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
from pathlib import Path
from typing import Iterable, Iterator

from .errors import EmptyStream, InvalidFraction, ParseError, SchemaMismatch


def normalize_tokens(tokens: Iterable[str]) -> list[str]:
    """Lowercase and strip tokens, dropping any that end up empty.

    Duplicates are preserved: token multiplicity carries term-frequency
    information for the featurizer.
    """
    out = []
    for tok in tokens:
        tok = str(tok).strip().lower()
        if tok:
            out.append(tok)
    return out


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


def stream_from_samples(samples: Iterable[RawSample],
                        schema: StreamSchema | None = None) -> SampleStream:
    """Sort samples into a stream, inferring the schema from the first one.

    Every sample must carry exactly the schema's attribute-name set; the
    attribute order of each sample is normalized to the schema order.
    """
    materialized = list(samples)
    if not materialized:
        raise EmptyStream("cannot build a stream from zero samples")
    if schema is None:
        schema = StreamSchema(tuple(materialized[0].attributes.keys()))
    wanted = set(schema.attribute_names)
    fixed = []
    for sample in materialized:
        got = set(sample.attributes.keys())
        if got != wanted:
            raise SchemaMismatch(
                f"sample {sample.id!r}: attributes {sorted(got)} != schema "
                f"{sorted(wanted)}")
        ordered = {name: sample.attributes[name] for name in schema.attribute_names}
        fixed.append(RawSample(sample.id, sample.timestamp, sample.label, ordered))
    fixed.sort(key=lambda s: (s.timestamp, s.id))
    return SampleStream(schema=schema, samples=tuple(fixed))


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
                parsed_attrs[str(name)] = normalize_tokens(tokens)
            samples.append(RawSample(
                id=str(record["id"]),
                timestamp=_parse_timestamp(record["timestamp"], line_no),
                label=_parse_label(record.get("label"), line_no),
                attributes=parsed_attrs,
            ))
    return samples


def _load_csv(path: Path) -> list[RawSample]:
    samples = []
    with path.open("r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            return []
        header = list(reader.fieldnames)
        if header[:3] != ["id", "timestamp", "label"]:
            raise ParseError(
                "CSV header must start with id,timestamp,label", line=1)
        attr_names = header[3:]
        if not attr_names:
            raise ParseError("CSV header declares no attribute columns", line=1)
        for row in reader:
            line_no = reader.line_num
            if row.get("id") is None:
                raise ParseError("row is missing columns", line_no)
            attrs = {}
            for name in attr_names:
                cell = row.get(name)
                if cell is None:
                    raise ParseError(f"missing attribute column {name!r}", line_no)
                attrs[name] = normalize_tokens(cell.split())
            samples.append(RawSample(
                id=str(row["id"]),
                timestamp=_parse_timestamp(row["timestamp"], line_no),
                label=_parse_label(row.get("label"), line_no),
                attributes=attrs,
            ))
    return samples


def load_stream(path: str | Path, fmt: str = "jsonl") -> SampleStream:
    """Load a labeled or partially labeled stream from disk.

    ``fmt`` is "jsonl" (one JSON object per line) or "csv" (columns
    id,timestamp,label,<attr>... with space-separated tokens per cell).
    Samples are sorted by (timestamp, id); duplicate ids are kept as
    distinct samples.
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
