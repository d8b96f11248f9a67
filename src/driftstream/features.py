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
from collections import Counter
from dataclasses import dataclass
from itertools import chain, repeat
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .errors import (DimensionMismatch, DriftStreamError, EmptyTrainingSet,
                     ParseError, SchemaMismatch)
from .stream import RawSample, StreamSchema

# Samples transformed per numpy pass.  Larger blocks hold larger
# ``BLOCK_ROWS x dim`` temporaries: on the retrain-sgd-adwin benchmark,
# 256 rows raised peak RSS by 1.5-1.7 % with no throughput gain, while 64
# rows left it unchanged.
BLOCK_ROWS = 64


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
        if np.any(self.minmax_min > self.minmax_max):
            raise ValueError("per-dimension min must not exceed max")
        # Derived lookups of the block transform: the token -> flat column
        # map of each attribute, the smoothed idf
        # ln((1 + n_docs) / (1 + df)) + 1 per column (0 past a short
        # vocabulary) and the min-max divisor.
        self._names = frozenset(schema.attribute_names)
        self._columns = {}
        self._idf = np.zeros(self.dim)
        for a_idx, vocab in enumerate(self.vocabularies):
            lo = a_idx * k
            columns = {tok: lo + col for col, tok in enumerate(vocab.tokens)}
            if len(columns) != len(vocab):
                raise ValueError("vocabulary tokens must be unique")
            self._columns[vocab.attribute_name] = columns
            df = np.asarray(vocab.document_frequency, dtype=float)
            self._idf[lo:lo + len(vocab)] = (
                np.log((1.0 + vocab.n_train_docs) / (1.0 + df)) + 1.0)
        span = self.minmax_max - self.minmax_min
        self._scale = np.where(span > 0.0, span, 1.0)

    @property
    def dim(self) -> int:
        return self.schema.n_attributes * self.k

    def _raw_matrix(self, samples: Sequence[RawSample]) -> np.ndarray:
        """TF-IDF rows with per-attribute L2 normalization, before scaling.

        One ``bincount`` counts every in-vocabulary token (column -1 is
        absent) at its flat index ``row * dim + attribute * k + column``.
        """
        n, dim = len(samples), self.dim
        columns, lengths = [], []
        for name, table in self._columns.items():
            cells = [sample.attributes[name] for sample in samples]
            columns += map(table.get, chain.from_iterable(cells), repeat(-1))
            lengths += map(len, cells)
        columns = np.array(columns, dtype=np.intp)
        rows = np.repeat(np.tile(np.arange(n), len(self._columns)), lengths)
        known = columns >= 0
        counts = np.bincount(rows[known] * dim + columns[known],
                             minlength=n * dim)
        raw = counts.reshape(n, dim) * self._idf
        blocks = raw.reshape(n, self.schema.n_attributes, self.k)
        norms = np.sqrt(np.vecdot(blocks, blocks))[..., None]
        np.divide(blocks, norms, out=blocks, where=norms > 0.0)
        return raw

    def transform_many(self, samples: Sequence[RawSample]) -> np.ndarray:
        """Map a block of samples to the rows of an (n, dim) matrix in [0, 1].

        Out-of-vocabulary tokens are ignored; min-max scaling uses the
        training ranges with clamping, so unseen samples cannot escape the
        unit cube.  Callers pass at most ``BLOCK_ROWS`` samples at a time,
        which bounds the temporaries to a few ``BLOCK_ROWS x dim`` arrays.
        The matrix is read-only, and so is every row taken from it.
        """
        for sample in samples:
            if sample.attributes.keys() != self._names:
                raise SchemaMismatch(
                    f"sample {sample.id!r} does not match extractor schema")
        scaled = self._raw_matrix(samples)
        scaled -= self.minmax_min
        scaled /= self._scale
        np.clip(scaled, 0.0, 1.0, out=scaled)
        scaled.flags.writeable = False
        return scaled

    def iter_transform(self, samples: Sequence[RawSample],
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
            schema = StreamSchema(tuple(payload["schema"]))
            vocabs = [
                AttributeVocabulary(
                    attribute_name=entry["name"],
                    tokens=list(entry["tokens"]),
                    document_frequency=list(entry["document_frequency"]),
                    n_train_docs=int(entry["n_train_docs"]),
                )
                for entry in payload["attributes"]
            ]
            return cls(
                schema=schema,
                k=int(payload["k"]),
                vocabularies=vocabs,
                minmax_min=np.asarray(payload["minmax_min"], dtype=float),
                minmax_max=np.asarray(payload["minmax_max"], dtype=float),
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


def _top_k_tokens(samples: Sequence[RawSample], attribute: str,
                  k: int) -> tuple[list[str], list[int]]:
    """Pick the k highest total-term-frequency tokens, ties lexicographic."""
    cells = [sample.attributes[attribute] for sample in samples]
    term_freq = Counter(chain.from_iterable(cells))
    doc_freq = Counter(chain.from_iterable(map(set, cells)))
    ranked = sorted(term_freq.items(), key=lambda item: (-item[1], item[0]))
    chosen = [tok for tok, _ in ranked[:k]]
    return chosen, [doc_freq[tok] for tok in chosen]


def fit_extractor(samples: Sequence[RawSample],
                  k: int) -> FeatureExtractorModel:
    """Fit a fresh extractor on a batch of samples, in the first one's schema.

    Vocabulary per attribute: top-k tokens by total term frequency across
    the batch (lexicographic tie-break).  The min-max scaler is fitted on
    the L2-normalized TF-IDF transforms of the same batch, so every
    training sample lands exactly inside [0, 1]^dim.
    """
    samples = list(samples)
    if not samples:
        raise EmptyTrainingSet("fit_extractor needs at least one sample")
    schema = StreamSchema(tuple(samples[0].attributes.keys()))
    names = set(schema.attribute_names)
    for sample in samples:
        if sample.attributes.keys() != names:
            raise SchemaMismatch(
                f"sample {sample.id!r} does not match schema")

    vocabularies = []
    for name in schema.attribute_names:
        tokens, dfs = _top_k_tokens(samples, name, k)
        vocabularies.append(AttributeVocabulary(
            attribute_name=name,
            tokens=tokens,
            document_frequency=dfs,
            n_train_docs=len(samples),
        ))

    dim = schema.n_attributes * k
    probe = FeatureExtractorModel(
        schema=schema, k=k, vocabularies=vocabularies,
        minmax_min=np.zeros(dim), minmax_max=np.zeros(dim))
    running_min = np.full(dim, np.inf)
    running_max = np.full(dim, -np.inf)
    for lo in range(0, len(samples), BLOCK_ROWS):
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
