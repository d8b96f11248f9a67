"""TF-IDF feature extraction over per-attribute token vocabularies.

The extractor is a trainable model in its own right: it owns one top-K
vocabulary per attribute, smoothed IDF weights and a per-dimension min-max
scaler, and it can be refitted from scratch on a buffer of recent samples
when the deployment decides the token distribution has moved on.  A fitted
model is immutable; refitting produces a new model whose vocabularies can be
diffed against the old one.
"""

from __future__ import annotations

import hashlib
import json
import reprlib
import textwrap
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .errors import (DimensionMismatch, DriftStreamError, EmptyTrainingSet,
                     ParseError, SchemaMismatch)
from .stream import SampleStream, StreamSchema

# Samples transformed per numpy pass.  Each pass pays about 40 us of fixed
# numpy dispatch; larger blocks hold larger ``BLOCK_ROWS x dim`` temporaries.
# 64 -> 256 rows, with SGD's allocation-free step, raised retrain-sgd-adwin
# ``throughput_sps`` 17.5 % in 10 of 10 benchmark pairs; a retrain replay's
# in-process peak RSS is 43.6 MB at 64 rows and 44.5 MB at 256.
BLOCK_ROWS = 256
_DF_RANGE = ("need one document frequency per token, an integer from 0 to "
             "n_train_docs")


@dataclass
class AttributeVocabulary:
    """Top-K token vocabulary of one attribute with document frequencies.

    ``tokens[i]`` is the token mapped to column ``i`` of the attribute's
    block, and ``document_frequency[i]`` the number of the
    ``n_train_docs`` training samples that contain it.
    """

    attribute_name: str
    tokens: list[str]
    document_frequency: list[int]
    n_train_docs: int

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass(frozen=True)
class VocabularyDiff:
    """Set difference between two fitted vocabularies of one attribute."""

    attribute_name: str
    added: frozenset[str]
    removed: frozenset[str]
    retained: frozenset[str]

    def to_dict(self) -> dict:
        return {
            "attribute": self.attribute_name,
            "added": sorted(self.added),
            "removed": sorted(self.removed),
            "retained": sorted(self.retained),
        }


class FeatureExtractorModel:
    """Fitted TF-IDF + min-max model mapping samples to vectors in [0, 1].

    The output dimension is ``n_attributes * k`` for the model's whole
    lifetime; attributes whose vocabulary has fewer than ``k`` tokens leave
    their trailing columns at zero.
    """

    def __init__(self, schema: StreamSchema, k: int,
                 vocabularies: Sequence[AttributeVocabulary],
                 minmax_min: np.ndarray, minmax_max: np.ndarray):
        if k < 1:
            raise ValueError(f"vocabulary size k must be >= 1, got {k}")
        if len(vocabularies) != schema.n_attributes:
            raise SchemaMismatch("one vocabulary per schema attribute required")
        for name, vocab in zip(schema.attribute_names, vocabularies):
            if vocab.attribute_name != name:
                raise SchemaMismatch(
                    f"vocabulary for {vocab.attribute_name!r} does not match "
                    f"schema attribute {name!r}")
            if len(vocab) > k:
                raise ValueError("vocabulary larger than block size k")
        self.schema = schema
        self.k = k
        self.vocabularies = list(vocabularies)
        self.minmax_min = np.asarray(minmax_min, dtype=float)
        self.minmax_max = np.asarray(minmax_max, dtype=float)
        if self.minmax_min.shape != (self.dim,) or self.minmax_max.shape != (self.dim,):
            raise DimensionMismatch("min-max arrays must have length dim")
        if not np.isfinite([self.minmax_min, self.minmax_max]).all():
            raise ValueError("min-max values must be finite")
        if np.any(self.minmax_min > self.minmax_max):
            raise ValueError("per-dimension min must not exceed max")
        # Derived lookups of the block transform: the smoothed idf
        # ln((1 + n_docs) / (1 + df)) + 1 per column (0 past a short
        # vocabulary) and the min-max divisor.
        self._idf = np.zeros(self.dim)
        for a_idx, vocab in enumerate(self.vocabularies):
            if len(set(vocab.tokens)) != len(vocab):
                raise ValueError("vocabulary tokens must be unique")
            lo = a_idx * k
            df = np.asarray(vocab.document_frequency, dtype=float)
            if df.shape != (len(vocab),) or not np.array_equal(
                    df, np.clip(np.round(df), 0, vocab.n_train_docs)):
                raise ValueError(_DF_RANGE)
            self._idf[lo:lo + len(vocab)] = (
                np.log((1.0 + vocab.n_train_docs) / (1.0 + df)) + 1.0)
        span = self.minmax_max - self.minmax_min
        self._scale = np.where(span > 0.0, span, 1.0)
        # the token table whose id -> flat column array (-1 outside the
        # vocabulary) is kept, and that array
        self._table = self._column_of = None

    @property
    def dim(self) -> int:
        return self.schema.n_attributes * self.k

    def _column_ids(self, samples: SampleStream) -> np.ndarray:
        """The flat column of each token id of ``samples``' table, -1 for
        a token outside the vocabulary; built once per table."""
        if samples.tokens is not self._table:
            names = samples.schema.attribute_names
            if set(names) != set(self.schema.attribute_names):
                raise SchemaMismatch(f"stream attributes {names} do not "
                                     "match extractor schema")
            column_of = np.full(len(samples.tokens), -1, dtype=np.intp)
            for a_idx, vocab in enumerate(self.vocabularies):
                ids = samples.token_ids[vocab.attribute_name]
                for col, tok in enumerate(vocab.tokens, start=a_idx * self.k):
                    if tok in ids:
                        column_of[ids[tok]] = col
            self._table, self._column_of = samples.tokens, column_of
        return self._column_of

    def _raw_matrix(self, samples: SampleStream) -> np.ndarray:
        """TF-IDF rows with per-attribute L2 normalization, before scaling.

        One gather maps every token id to its flat column (-1 outside the
        vocabulary), and one ``bincount`` counts every in-vocabulary token
        at its flat index ``row * dim + attribute * k + column``.
        """
        n, dim = len(samples), self.dim
        rows, ids = samples.token_rows(dim)
        columns = self._column_ids(samples)[ids]
        known = columns >= 0
        counts = np.bincount(rows[known] + columns[known], minlength=n * dim)
        raw = counts.reshape(n, dim) * self._idf
        blocks = raw.reshape(n, self.schema.n_attributes, self.k)
        norms = np.sqrt(np.vecdot(blocks, blocks))
        norms[norms == 0.0] = 1.0  # an all-zero block stays +0.0
        blocks /= norms[..., None]
        return raw

    def transform_many(self, samples: SampleStream) -> np.ndarray:
        """Map a block of samples to the rows of an (n, dim) matrix in [0, 1].

        ``samples`` is a stream (a slice of one, typically) whose
        attributes are the extractor's, in any order.  Out-of-vocabulary
        tokens are ignored; min-max scaling uses the training ranges with
        clamping, so unseen samples cannot escape the unit cube.  Callers
        pass at most ``BLOCK_ROWS`` samples at a time, which bounds the
        temporaries to a few ``BLOCK_ROWS x dim`` arrays.  The matrix is
        read-only, and so is every row taken from it.
        """
        scaled = self._raw_matrix(samples)
        scaled -= self.minmax_min
        scaled /= self._scale
        np.clip(scaled, 0.0, 1.0, out=scaled)
        scaled.flags.writeable = False
        return scaled

    def iter_transform(self, samples: SampleStream,
                       start: int = 0) -> Iterator[np.ndarray]:
        """Yield the ``transform_many`` row of each of ``samples[start:]``.

        Rows are computed ``BLOCK_ROWS`` samples ahead of the consumer.  A
        caller that replaces the extractor mid-stream drops the iterator and
        starts a new one at the first sample not yet consumed.
        """
        for lo in range(start, len(samples), BLOCK_ROWS):
            yield from self.transform_many(samples[lo:lo + BLOCK_ROWS])

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "kind": "tfidf-minmax-extractor",
            "k": self.k,
            "schema": list(self.schema.attribute_names),
            "attributes": [
                {
                    "name": vocab.attribute_name,
                    "tokens": list(vocab.tokens),
                    "document_frequency": list(vocab.document_frequency),
                    "n_train_docs": vocab.n_train_docs,
                }
                for vocab in self.vocabularies
            ],
            "minmax_min": self.minmax_min.tolist(),
            "minmax_max": self.minmax_max.tolist(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json() + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "FeatureExtractorModel":
        """The model ``save`` wrote to ``path``; a file that does not hold
        one is a ``ParseError`` naming the file."""
        path = Path(path)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
            schema = StreamSchema(tuple(_json_list(payload["schema"], str)))
            vocabs = [
                AttributeVocabulary(
                    attribute_name=entry["name"],
                    tokens=_json_list(entry["tokens"], str),
                    document_frequency=_json_frequencies(
                        entry["document_frequency"]),
                    n_train_docs=_json_int(entry["n_train_docs"]),
                )
                for entry in payload["attributes"]
            ]
            return cls(
                schema=schema,
                k=_json_int(payload["k"]),
                vocabularies=vocabs,
                minmax_min=np.asarray(
                    _json_list(payload["minmax_min"], int, float), dtype=float),
                minmax_max=np.asarray(
                    _json_list(payload["minmax_max"], int, float), dtype=float),
            )
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: invalid JSON ({exc.msg})") from None
        except KeyError as exc:
            raise ParseError(f"{path}: missing key "
                             f"{reprlib.repr(exc.args[0])}") from None
        except (ValueError, TypeError, RecursionError,
                DriftStreamError) as exc:
            raise ParseError(f"{path}: not an extractor model "
                             f"({textwrap.shorten(str(exc), 120)})") from None

    def fingerprint(self) -> str:
        """Stable content hash; changes iff the fitted model changes."""
        return hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()


def _json_int(value) -> int:
    """``value`` if it is a JSON integer; a bool or a float is not."""
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {reprlib.repr(value)}")
    return value


def _json_frequencies(value) -> list:
    """``_json_list(value, int)``, failing with the range check's message:
    a string, a bool or a float is not a frequency, whatever its value."""
    try:
        return _json_list(value, int)
    except TypeError:
        raise ValueError(_DF_RANGE) from None


def _json_list(value, *types) -> list:
    """``value`` if it is a JSON array of items of exactly ``types``."""
    if type(value) is not list or any(type(v) not in types for v in value):
        raise TypeError(f"expected an array of "
                        f"{' or '.join(t.__name__ for t in types)}, "
                        f"got {reprlib.repr(value)}")
    return value


def fit_extractor(samples: SampleStream, k: int) -> FeatureExtractorModel:
    """Fit a fresh extractor on a stream (a slice of one, typically).

    Vocabulary per attribute: top-k tokens by total term frequency across
    the batch, ties broken by the token string.  The min-max scaler is
    fitted on the L2-normalized TF-IDF transforms of the same batch, so
    every training sample lands exactly inside [0, 1]^dim.
    """
    n = len(samples)
    if not n:
        raise EmptyTrainingSet("fit_extractor needs at least one sample")
    schema = samples.schema
    # token ids are unique across attributes: one count of each id's
    # distinct samples serves every attribute
    doc_freq = np.bincount(samples.distinct_token_ids()[0])
    vocabularies = []
    for name, (ids, _) in zip(schema.attribute_names, samples._cells()):
        term_freq = np.bincount(ids)
        present = np.flatnonzero(term_freq)
        if 0 < k < len(present):  # keep the k-th largest count and ties
            cut = np.partition(term_freq[present], len(present) - k)
            present = present[term_freq[present] >= cut[len(present) - k]]
        ranked = sorted(zip((-term_freq[present]).tolist(),
                            [samples.tokens[t] for t in present.tolist()],
                            present.tolist()))[:k]
        vocabularies.append(AttributeVocabulary(
            attribute_name=name,
            tokens=[tok for _, tok, _ in ranked],
            document_frequency=doc_freq[[t for _, _, t in ranked]].tolist(),
            n_train_docs=n,
        ))

    dim = schema.n_attributes * k
    probe = FeatureExtractorModel(
        schema=schema, k=k, vocabularies=vocabularies,
        minmax_min=np.zeros(dim), minmax_max=np.zeros(dim))
    running_min = np.full(dim, np.inf)
    running_max = np.full(dim, -np.inf)
    for lo in range(0, n, BLOCK_ROWS):
        raw = probe._raw_matrix(samples[lo:lo + BLOCK_ROWS])
        np.minimum(running_min, raw.min(axis=0), out=running_min)
        np.maximum(running_max, raw.max(axis=0), out=running_max)
    return FeatureExtractorModel(
        schema=schema, k=k, vocabularies=vocabularies,
        minmax_min=running_min, minmax_max=running_max)


def vocabulary_diff(old: FeatureExtractorModel,
                    new: FeatureExtractorModel) -> list[VocabularyDiff]:
    """Per-attribute token set differences between two fitted extractors."""
    if old.schema.attribute_names != new.schema.attribute_names:
        raise SchemaMismatch("extractors were fitted on different schemas")
    diffs = []
    for old_vocab, new_vocab in zip(old.vocabularies, new.vocabularies):
        old_set = frozenset(old_vocab.tokens)
        new_set = frozenset(new_vocab.tokens)
        diffs.append(VocabularyDiff(
            attribute_name=old_vocab.attribute_name,
            added=new_set - old_set,
            removed=old_set - new_set,
            retained=old_set & new_set,
        ))
    return diffs
