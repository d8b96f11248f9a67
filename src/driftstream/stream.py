"""Sample data model and timestamp-ordered stream I/O.

A sample is a bag of string tokens grouped by named attribute (for Android
apps these are things like API calls, permissions, URLs).  Streams keep a
total order by (timestamp, id) so every downstream consumer sees samples in
the same temporal order regardless of file layout.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Iterator

from .errors import EmptyStream, InvalidFraction, ParseError, SchemaMismatch


def _normalize_token(tok) -> str:
    """The one normalization rule: text, stripped, lowercased."""
    return str(tok).strip().lower()


def _token_interner():
    """A token-list normalizer for one load: ``_normalize_token`` per token,
    empty results dropped, duplicates kept, one ``str`` per distinct result.

    Raw ``str`` tokens map to their normalized object through one table, so
    a list whose tokens were all seen before is normalized by one C-level
    ``map``.  Only exact ``str`` tokens enter the table: JSON ``1``,
    ``true`` and ``1.0`` are equal dict keys but normalize to different
    text.
    """
    table: dict[str, str] = {}   # raw token -> its shared normalized str
    shared: dict[str, str] = {}  # normalized str -> object its spellings share
    lookup = table.__getitem__

    def intern_one(tok) -> str:
        if type(tok) is not str:
            norm = _normalize_token(tok)
            return shared.setdefault(norm, norm)
        norm = table.get(tok)
        if norm is None:
            norm = _normalize_token(tok)
            if norm == tok:
                norm = tok  # the key doubles as the value: one object, not two
            norm = table[tok] = shared.setdefault(norm, norm)
        return norm

    def intern(tokens) -> list[str]:
        try:
            out = list(map(lookup, tokens))
        except (KeyError, TypeError):  # an unseen or unhashable token
            out = [intern_one(tok) for tok in tokens]
        if "" in out:
            out = [tok for tok in out if tok]
        return out

    return intern


@dataclass(frozen=True)
class StreamSchema:
    """Ordered attribute names shared by every sample of a stream."""

    attribute_names: tuple[str, ...]

    def __post_init__(self):
        if not self.attribute_names:
            raise SchemaMismatch("schema must declare at least one attribute")
        if len(set(self.attribute_names)) != len(self.attribute_names):
            raise SchemaMismatch("duplicate attribute names in schema")
        for name in self.attribute_names:
            if not name:
                raise SchemaMismatch("empty attribute name in schema")

    @property
    def n_attributes(self) -> int:
        return len(self.attribute_names)


@dataclass(frozen=True)
class RawSample:
    """One observed app: id, arrival time, optional label, token bags.

    ``label`` is 1 for malware, 0 for goodware and None when unknown.
    ``attributes`` maps attribute name -> token list (normalized, possibly
    empty, duplicates allowed).
    """

    id: str
    timestamp: int
    label: int | None
    attributes: dict[str, list[str]]


@dataclass(frozen=True)
class SampleStream:
    """Immutable sequence of samples sorted by (timestamp, id)."""

    schema: StreamSchema
    samples: tuple[RawSample, ...]

    def __len__(self) -> int:
        return len(self.samples)

    def __iter__(self) -> Iterator[RawSample]:
        return iter(self.samples)

    def __getitem__(self, idx):
        return self.samples[idx]


def stream_from_samples(samples: Iterable[RawSample]) -> SampleStream:
    """Sort samples into a stream, inferring the schema from the first one.

    Every sample must carry exactly the schema's attribute-name set.  A
    sample whose attributes are already in schema order is kept as is;
    any other is rebuilt with its attributes in schema order.
    """
    materialized = list(samples)
    if not materialized:
        raise EmptyStream("cannot build a stream from zero samples")
    schema = StreamSchema(tuple(materialized[0].attributes.keys()))
    names = schema.attribute_names
    wanted = set(names)
    for i, sample in enumerate(materialized):
        keys = tuple(sample.attributes)
        if keys == names:
            continue
        got = set(keys)
        if got != wanted:
            raise SchemaMismatch(
                f"sample {sample.id!r}: attributes {sorted(got)} != schema "
                f"{sorted(wanted)}")
        ordered = {name: sample.attributes[name] for name in names}
        materialized[i] = RawSample(sample.id, sample.timestamp, sample.label,
                                    ordered)
    materialized.sort(key=attrgetter("timestamp", "id"))
    return SampleStream(schema=schema, samples=tuple(materialized))


def _parse_int(value, what: str, line: int) -> int:
    """``value`` as an int; bools and numbers int() would change are errors."""
    if type(value) is int:  # the common case, checked first for load speed
        return value
    try:
        as_int = int(value)
        if isinstance(value, bool) or (not isinstance(value, str)
                                       and as_int != value):
            raise ValueError
    except (TypeError, ValueError, OverflowError):
        raise ParseError(f"{what} {value!r} is not an integer", line) from None
    return as_int


def _parse_label(value, line: int) -> int | None:
    if value is None:
        return None
    if isinstance(value, str):
        value = value.strip()
        if value == "" or value.lower() in ("none", "null"):
            return None
    as_int = _parse_int(value, "label", line)
    if as_int not in (0, 1):
        raise ParseError(f"label {as_int} outside {{0, 1}}", line)
    return as_int


def _parse_timestamp(value, line: int) -> int:
    ts = _parse_int(value, "timestamp", line)
    if ts < 0:
        raise ParseError(f"timestamp {ts} is negative", line)
    if ts > 253402300799:  # the last second datetime can represent
        raise ParseError(f"timestamp {ts} is past 9999-12-31T23:59:59Z", line)
    return ts


def _load_jsonl(path: Path) -> list[RawSample]:
    samples = []
    intern = _token_interner()
    names: dict[str, str] = {}  # one key object per attribute name
    with path.open("r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"invalid JSON ({exc.msg})", line_no) from None
            if not isinstance(record, dict):
                raise ParseError("record is not a JSON object", line_no)
            for key in ("id", "timestamp", "attributes"):
                if key not in record:
                    raise ParseError(f"missing required field {key!r}", line_no)
            attrs = record["attributes"]
            if not isinstance(attrs, dict) or not attrs:
                raise ParseError("'attributes' must be a non-empty object", line_no)
            parsed_attrs = {}
            for name, tokens in attrs.items():
                if not isinstance(tokens, list):
                    raise ParseError(
                        f"attribute {name!r} must hold a token list", line_no)
                parsed_attrs[names.setdefault(name, name)] = intern(tokens)
            samples.append(RawSample(
                id=str(record["id"]),
                timestamp=_parse_timestamp(record["timestamp"], line_no),
                label=_parse_label(record.get("label"), line_no),
                attributes=parsed_attrs,
            ))
    return samples


def _load_csv(path: Path) -> list[RawSample]:
    samples = []
    intern = _token_interner()
    with path.open("r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            return []
        if header[:3] != ["id", "timestamp", "label"]:
            raise ParseError(
                "CSV header must start with id,timestamp,label", line=1)
        attr_names = header[3:]
        if not attr_names:
            raise ParseError("CSV header declares no attribute columns", line=1)
        for i, name in enumerate(header):
            if name in header[:i]:
                raise ParseError(f"CSV header repeats column {name!r}", line=1)
        for row in reader:
            if not row:  # a blank line
                continue
            line_no = reader.line_num
            if len(row) < len(header):
                raise ParseError(
                    f"missing column {header[len(row)]!r}", line_no)
            if len(row) > len(header):
                raise ParseError(f"row has {len(row)} cells, the header "
                                 f"has {len(header)} columns", line_no)
            samples.append(RawSample(
                id=row[0],
                timestamp=_parse_timestamp(row[1], line_no),
                label=_parse_label(row[2], line_no),
                attributes={name: intern(cell.split())
                            for name, cell in zip(attr_names, row[3:])},
            ))
    return samples


def load_stream(path: str | Path, fmt: str = "jsonl") -> SampleStream:
    """Load a labeled or partially labeled stream from disk.

    ``fmt`` is "jsonl" (one JSON object per line) or "csv" (columns
    id,timestamp,label,<attr>... with space-separated tokens per cell; a
    repeated column or a row with more or fewer cells than the header is
    a parse error).  Samples are sorted by (timestamp, id); duplicate ids
    are kept as distinct samples.  Tokens are interned per call: equal
    tokens of the stream share one ``str`` object.
    """
    path = Path(path)
    if fmt == "jsonl":
        samples = _load_jsonl(path)
    elif fmt == "csv":
        samples = _load_csv(path)
    else:
        raise ParseError(f"unknown stream format {fmt!r}")
    if not samples:
        raise EmptyStream(f"{path} holds no samples")
    return stream_from_samples(samples)


def save_stream(stream: SampleStream, path: str | Path) -> None:
    """Write a stream as canonical JSONL (stable key and attribute order)."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for sample in stream:
            record = {
                "id": sample.id,
                "timestamp": sample.timestamp,
                "label": sample.label,
                "attributes": {name: sample.attributes[name]
                               for name in stream.schema.attribute_names},
            }
            fh.write(json.dumps(record) + "\n")


def split_temporal(stream: SampleStream,
                   fraction: float) -> tuple[SampleStream, SampleStream]:
    """Split a stream into (oldest, newest) parts.

    The first part receives floor(fraction * n) samples; ordering is
    inherited from the stream, so the split point is purely temporal.
    """
    if not 0.0 < fraction < 1.0:
        raise InvalidFraction(f"fraction {fraction} not in (0, 1)")
    if len(stream) == 0:
        raise EmptyStream("cannot split an empty stream")
    n_first = math.floor(fraction * len(stream))
    first = SampleStream(stream.schema, stream.samples[:n_first])
    second = SampleStream(stream.schema, stream.samples[n_first:])
    return first, second
