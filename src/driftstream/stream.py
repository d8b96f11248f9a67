"""Sample data model and timestamp-ordered stream I/O.

A sample is a bag of string tokens grouped by named attribute (for Android
apps these are things like API calls, permissions, URLs).  Streams keep a
total order by (timestamp, id) so every downstream consumer sees samples in
the same temporal order regardless of file layout.  A stream holds its
samples as columns: tokens become ids into one table per stream, and each
attribute keeps every sample's ids in one array.
"""

from __future__ import annotations

import copy
import csv
import json
import reprlib
import sys
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .errors import EmptyStream, ParseError, SchemaMismatch, ValueOutOfRange

# 9999-12-31T23:59:59Z, the last second datetime can represent
MAX_TIMESTAMP = 253402300799


def _normalize_token(tok) -> str:
    """The one normalization rule: text, stripped, lowercased."""
    return str(tok).strip().lower()


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


class SampleStream:
    """Immutable samples sorted by (timestamp, id), held as columns.

    ``ids`` (object), ``timestamps`` (int64) and ``labels`` (int8, -1 for
    no label) hold one entry per sample.  Tokens are ids into one table
    per stream: ``tokens[i]`` is token id ``i``'s text and
    ``token_ids[attribute][text]`` its id, one id per (attribute, token)
    pair, numbered in first-seen order over the sorted stream (samples in
    order, attributes in schema order, tokens in list order).  Each
    attribute keeps the ids of every sample in one array, sample by
    sample.  A slice or an index take (``stream[lo:hi]``,
    ``stream[rows]``) is a stream that shares these arrays and the table;
    ``stream[i]`` and iteration build ``RawSample`` records when asked.
    """

    def __init__(self, schema: StreamSchema, tokens: tuple[str, ...],
                 token_ids: dict[str, dict[str, int]], ids: np.ndarray,
                 timestamps: np.ndarray, labels: np.ndarray,
                 cells: list[tuple[np.ndarray, np.ndarray]]):
        """``cells`` holds one ``(ids, ends)`` per attribute: sample
        ``i``'s token ids are ``ids[ends[i]:ends[i + 1]]``."""
        self.schema = schema
        self.tokens = tokens
        self.token_ids = token_ids
        self.ids = ids
        self.timestamps = timestamps
        self.labels = labels
        self._cell_ids = [cell_ids for cell_ids, _ in cells]
        self._starts = [ends[:-1] for _, ends in cells]
        self._stops = [ends[1:] for _, ends in cells]
        self._contiguous = True  # each sample's ids follow the previous one's
        for column in (ids, timestamps, labels, *chain.from_iterable(cells)):
            column.flags.writeable = False  # views of a stream share them

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[RawSample]:
        return map(self._sample, range(len(self)))

    def __getitem__(self, index):
        """A ``RawSample`` for an integer; a stream sharing this one's
        arrays for a slice or an array of row numbers or a row mask."""
        if isinstance(index, (int, np.integer)):
            return self._sample(index)
        view = copy.copy(self)
        if isinstance(index, slice):
            view._contiguous = self._contiguous and index.step in (None, 1)
        else:
            index = np.asarray(index)
            view._contiguous = False
        view.ids = self.ids[index]
        view.timestamps = self.timestamps[index]
        view.labels = self.labels[index]
        view._starts = [starts[index] for starts in self._starts]
        view._stops = [stops[index] for stops in self._stops]
        return view

    def _sample(self, i) -> RawSample:
        label = int(self.labels[i])
        tokens = self.tokens
        return RawSample(
            self.ids[i], int(self.timestamps[i]), None if label < 0 else label,
            {name: [tokens[t] for t in ids[starts[i]:stops[i]].tolist()]
             for name, ids, starts, stops in zip(
                 self.schema.attribute_names, self._cell_ids, self._starts,
                 self._stops)})

    def _cells(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per attribute in schema order, ``(ids, counts)``: the token ids
        of every sample, sample by sample, and each sample's count."""
        out = []
        for ids, starts, stops in zip(self._cell_ids, self._starts,
                                      self._stops):
            counts = stops - starts
            if not self._contiguous:  # ids[starts[i]:stops[i]] of every i
                ends = np.cumsum(counts)
                ids = ids[np.arange(ends[-1] if len(ends) else 0)
                          + np.repeat(starts - (ends - counts), counts)]
            elif len(counts):
                ids = ids[starts[0]:stops[-1]]
            else:
                ids = ids[:0]
            out.append((ids, counts))
        return out

    def token_rows(self, step: int = 1,
                   dtype=np.intp) -> tuple[np.ndarray, np.ndarray]:
        """``(rows, ids)`` of every token occurrence, attribute by
        attribute and sample by sample: ``ids`` are the token ids and
        ``rows`` their sample's number times ``step``, of ``dtype`` (which
        must hold ``len(self) * step``)."""
        cells = self._cells()
        rows = np.arange(0, len(self) * step, step, dtype=dtype)
        return (np.repeat(np.concatenate([rows] * len(cells)),
                          np.concatenate([counts for _, counts in cells])),
                np.concatenate([ids for ids, _ in cells]))

    def distinct_token_ids(self) -> tuple[np.ndarray, np.ndarray]:
        """Each sample's distinct token ids, sorted, in the CSR form
        ``(ids, ends)``: sample ``i``'s ids are ``ids[ends[i-1]:ends[i]]``
        (from 0 for the first sample).

        One sort of the keys ``row << shift | id``, int32 while ``n <<
        shift < 2**31`` (n samples), orders each sample's ids and puts its
        repeats side by side; an index gather (cheaper than a mask's)
        keeps the first key of each run.
        """
        n, shift = len(self), max(len(self.tokens) - 1, 1).bit_length()
        dtype = np.int32 if n << shift < 2**31 else np.intp
        keys, ids = self.token_rows(1 << shift, dtype)
        keys |= ids
        keys.sort()
        distinct = np.ones(len(keys), dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=distinct[1:])
        kept = keys[distinct.nonzero()[0]]
        return (np.bitwise_and(kept, (1 << shift) - 1, dtype=np.intp),
                np.searchsorted(kept, np.arange(1, n + 1, dtype=dtype) << shift))


def _first_seen(cells: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """Every token id of ``cells`` (per attribute, ``(ids, ends)``) in the
    order of its first occurrence by (sample, attribute, position)."""
    first_ids, first_cells, first_at = [], [], []
    for a, (ids, ends) in enumerate(cells):
        seen, at = np.unique(ids, return_index=True)
        rows = np.searchsorted(ends, at, side="right") - 1
        first_ids.append(seen)
        first_cells.append(rows * len(cells) + a)
        first_at.append(at)
    return np.concatenate(first_ids)[np.lexsort(
        (np.concatenate(first_at), np.concatenate(first_cells)))]


class _Columns:
    """A stream's columns as its samples arrive, in any order.

    Token ids come from one counter in arrival order; ``stream`` sorts the
    samples and, when arrival order was not sorted order, renumbers the
    ids in first-seen order over the sorted stream.  Tokens are normalized
    (``_normalize_token``) and those left empty are dropped; a raw ``str``
    token is looked up in one table per attribute, so a cell whose tokens
    were all seen before takes one C-level ``map``.
    Only exact ``str`` tokens enter that table: JSON ``1``, ``true`` and
    ``1.0`` are equal dict keys but normalize to different text.
    """

    def __init__(self, names: tuple[str, ...]):
        self.names = names
        self.sample_ids: list[str] = []
        self.timestamps: list[int] = []
        self.labels: list[int] = []  # -1 for no label
        self.tokens: list[str] = []  # id -> token
        self.token_ids = {name: {} for name in names}  # token -> id
        self.texts: dict[str, str] = {}  # one object per token text
        self.columns = []  # per attribute: ids, ends, raw token -> id
        for index in self.token_ids.values():
            raw = {}
            self.columns.append(([], [0], raw.__getitem__, raw, index))

    def __len__(self) -> int:
        return len(self.sample_ids)

    def add(self, sid: str, ts: int, label: int | None, cells) -> None:
        """Append one sample; ``cells`` holds its token lists in schema
        order."""
        self.sample_ids.append(sid)
        self.timestamps.append(ts)
        self.labels.append(-1 if label is None else label)
        for tokens, (ids, ends, lookup, raw, index) in zip(cells,
                                                            self.columns):
            try:
                ids.extend(map(lookup, tokens))
            except (KeyError, TypeError):  # an unseen or unhashable token
                del ids[ends[-1]:]
                ids.extend(self._number(raw, index, tokens))
            ends.append(len(ids))

    def _number(self, raw: dict, index: dict, tokens) -> list[int]:
        """The ids of ``tokens``, handing unseen ones the next ids."""
        out = []
        for tok in tokens:
            tid = raw.get(tok) if type(tok) is str else None
            if tid is None:
                norm = _normalize_token(tok)
                if not norm:
                    continue
                tid = index.get(norm)
                if tid is None:
                    tid = index[norm] = len(self.tokens)
                    self.tokens.append(self.texts.setdefault(
                        norm, tok if norm == tok else norm))
                if type(tok) is str:
                    raw[tok] = tid
            out.append(tid)
        return out

    def stream(self) -> SampleStream:
        """The samples sorted by (timestamp, id), file order kept among
        equal keys, with token ids first-seen over that order."""
        n_tokens, schema = len(self.tokens), StreamSchema(self.names)
        timestamps = np.array(self.timestamps, dtype=np.int64)
        ids = np.empty(len(self), dtype=object)
        ids[:] = self.sample_ids
        labels = np.array(self.labels, dtype=np.int8)
        cells = [(np.fromiter(tok_ids, np.int32, len(tok_ids)),
                  np.array(ends, dtype=np.int64))
                 for tok_ids, ends, *_ in self.columns]
        steps = np.diff(timestamps)
        if (steps < 0).any() or any(
                ids[i] > ids[i + 1] for i in np.flatnonzero(steps == 0)):
            keys = list(zip(self.timestamps, self.sample_ids))
            order = np.array(sorted(range(len(self)), key=keys.__getitem__))
            arrived = SampleStream(schema, tuple(self.tokens), self.token_ids,
                                   ids, timestamps, labels, cells)[order]
            timestamps, ids, labels = (arrived.timestamps, arrived.ids,
                                       arrived.labels)
            sorted_cells = [(tok_ids, np.concatenate(([0], np.cumsum(counts))))
                            for tok_ids, counts in arrived._cells()]
            old_of_new = _first_seen(sorted_cells)
            new_of_old = np.empty(n_tokens, dtype=np.int32)
            new_of_old[old_of_new] = np.arange(n_tokens)
            cells = [(new_of_old[tok_ids], ends)
                     for tok_ids, ends in sorted_cells]
            self.tokens = [self.tokens[old] for old in old_of_new.tolist()]
            renumbered = new_of_old.tolist()
            self.token_ids = {
                name: {tok: renumbered[tid] for tok, tid in table.items()}
                for name, table in self.token_ids.items()}
        return SampleStream(schema, tuple(self.tokens), self.token_ids, ids,
                            timestamps, labels, cells)


def stream_from_samples(samples: Iterable[RawSample]) -> SampleStream:
    """Sort samples into a stream, inferring the schema from the first one.

    Every sample must carry exactly the schema's attribute-name set, in
    any order, an int timestamp from 0 to ``MAX_TIMESTAMP`` and a label
    of 0, 1 or None, not a bool: the records ``load_stream`` admits.
    Tokens are normalized as ``load_stream`` normalizes them.
    """
    columns = None
    for sample in samples:
        attrs = sample.attributes
        if columns is None:
            columns = _Columns(StreamSchema(tuple(attrs)).attribute_names)
        try:
            cells = list(map(attrs.__getitem__, columns.names))
        except KeyError:
            cells = None
        if cells is None or len(attrs) != len(cells):
            raise SchemaMismatch(
                f"sample {sample.id!r}: attributes {sorted(attrs)} != "
                f"schema {sorted(columns.names)}")
        label, ts = sample.label, sample.timestamp
        if isinstance(label, bool) or label not in (0, 1, None):
            raise ValueOutOfRange(f"sample {sample.id!r}: label "
                                  f"{label!r} is not 0, 1 or None")
        if type(ts) is not int or not 0 <= ts <= MAX_TIMESTAMP:
            raise ValueOutOfRange(f"sample {sample.id!r}: timestamp {ts!r} "
                                  f"is not an int from 0 to {MAX_TIMESTAMP}")
        columns.add(sample.id, ts, label, cells)
    if columns is None:
        raise EmptyStream("cannot build a stream from zero samples")
    return columns.stream()


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
        raise ParseError(f"{what} {reprlib.repr(value)} is not an integer",
                         line) from None
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
        raise ParseError(f"label {reprlib.repr(as_int)} outside {{0, 1}}",
                         line)
    return as_int


def _parse_timestamp(value, line: int) -> int:
    ts = _parse_int(value, "timestamp", line)
    if ts < 0:
        raise ParseError(f"timestamp {reprlib.repr(ts)} is negative", line)
    if ts > MAX_TIMESTAMP:
        raise ParseError(f"timestamp {reprlib.repr(ts)} is past "
                         "9999-12-31T23:59:59Z", line)
    return ts


# One C scanner for every line, shared the way ``json.loads`` shares its
# default decoder: a call decodes one JSON value, without the whitespace and
# trailing-data checks that ``json.loads`` adds around it.
_scan_json = json.JSONDecoder().scan_once


def _decode_line(line: str, line_no: int):
    """``json.loads`` of a line the scanner did not take whole, with each
    decode failure as a ``ParseError``."""
    try:
        return json.loads(line)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON ({exc.msg})", line_no) from None
    except ValueError:  # the only other ValueError: an over-long integer
        raise ParseError("invalid JSON (integer longer than "
                         f"{sys.get_int_max_str_digits()} digits)",
                         line_no) from None
    except RecursionError:
        raise ParseError("invalid JSON (nested too deeply)", line_no) from None


def _load_jsonl(path: Path) -> _Columns | None:
    columns = mismatch = None
    with path.open("r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            # A record that fills the line up to its "\n" needs one scan;
            # any other line takes json.loads and its error messages.
            try:
                record, end = _scan_json(line, 0)
            except (StopIteration, ValueError, RecursionError):
                end = -1
            if end != len(line) and (end != len(line) - 1
                                     or line[end] != "\n"):
                if not line.strip():
                    continue
                record = _decode_line(line, line_no)
            if type(record) is not dict:
                raise ParseError("record is not a JSON object", line_no)
            try:
                sid = record["id"]
                ts = record["timestamp"]
                attrs = record["attributes"]
            except KeyError:
                key = next(k for k in ("id", "timestamp", "attributes")
                           if k not in record)
                raise ParseError(f"missing required field {key!r}",
                                 line_no) from None
            if type(attrs) is not dict or not attrs:
                raise ParseError("'attributes' must be a non-empty object", line_no)
            if columns is None:
                columns = _Columns(tuple(attrs))
                all_lists = [list] * len(attrs)
            try:
                cells = list(map(attrs.__getitem__, columns.names))
            except KeyError:
                cells = None
            if (cells is None or len(attrs) != len(cells)
                    or list(map(type, cells)) != all_lists):
                for name, tokens in attrs.items():
                    if type(tokens) is not list:
                        raise ParseError(
                            f"attribute {reprlib.repr(name)} must hold a "
                            "token list", line_no)
                if mismatch is None:
                    mismatch = (str(sid), tuple(attrs))
                cells = None
            if type(ts) is not int or not 0 <= ts <= MAX_TIMESTAMP:
                ts = _parse_timestamp(ts, line_no)
            label = record.get("label")
            if label is not None and (type(label) is not int
                                      or not 0 <= label <= 1):
                label = _parse_label(label, line_no)
            if cells is not None:
                columns.add(str(sid), ts, label, cells)
    if mismatch is not None:  # reported once every line has parsed
        StreamSchema(columns.names)  # a bad schema is reported first
        raise SchemaMismatch(f"sample {mismatch[0]!r}: attributes "
                             f"{sorted(mismatch[1])} != schema "
                             f"{sorted(columns.names)}")
    return columns


def _load_csv(path: Path) -> _Columns | None:
    with path.open("r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            return None
        if header[:3] != ["id", "timestamp", "label"]:
            raise ParseError(
                "CSV header must start with id,timestamp,label", line=1)
        attr_names = header[3:]
        if not attr_names:
            raise ParseError("CSV header declares no attribute columns", line=1)
        for i, name in enumerate(header):
            if name in header[:i]:
                raise ParseError(
                    f"CSV header repeats column {reprlib.repr(name)}", line=1)
        columns = _Columns(tuple(attr_names))
        for row in reader:
            if not row:  # a blank line
                continue
            line_no = reader.line_num
            if len(row) < len(header):
                raise ParseError(
                    f"missing column {reprlib.repr(header[len(row)])}",
                    line_no)
            if len(row) > len(header):
                raise ParseError(f"row has {len(row)} cells, the header "
                                 f"has {len(header)} columns", line_no)
            columns.add(row[0], _parse_timestamp(row[1], line_no),
                        _parse_label(row[2], line_no),
                        list(map(str.split, row[3:])))
    return columns


def _not_utf8_error(path: Path) -> ParseError:
    """The error for a file that is not UTF-8, naming the first line (split
    as the text reader splits lines) whose bytes do not decode."""
    for line_no, raw in enumerate(path.read_bytes().splitlines(), start=1):
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            return ParseError(f"not UTF-8 text ({exc.reason})", line_no)
    return ParseError("not UTF-8 text")


def load_stream(path: str | Path, fmt: str = "jsonl") -> SampleStream:
    """Load a labeled or partially labeled stream from disk.

    ``fmt`` is "jsonl" (one JSON object per line) or "csv" (columns
    id,timestamp,label,<attr>... with space-separated tokens per cell; a
    repeated column or a row with more or fewer cells than the header is
    a parse error).  Samples are sorted by (timestamp, id); duplicate ids
    are kept as distinct samples.  Tokens become ids into one table per
    call (see ``SampleStream``).  A file that is not UTF-8 is a
    ``ParseError`` naming its first line that does not decode.
    """
    path = Path(path)
    try:
        if fmt == "jsonl":
            columns = _load_jsonl(path)
        elif fmt == "csv":
            columns = _load_csv(path)
        else:
            raise ParseError(f"unknown stream format {fmt!r}")
    except UnicodeDecodeError:
        raise _not_utf8_error(path) from None
    if not columns:
        raise EmptyStream(f"{path} holds no samples")
    return columns.stream()


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

