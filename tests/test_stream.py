"""Stream loading, ordering and temporal splitting."""

import csv
import gc
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftstream import (DriftStreamError, EmptyStream, ExperimentConfig,
                         InsufficientData, ParseError, RawSample,
                         SchemaMismatch, StreamSchema, SynthStreamSpec,
                         ValueOutOfRange, generate_synth_stream, load_stream,
                         run_temporal_split, save_stream, stream_from_samples)
from driftstream.stream import MAX_TIMESTAMP
from .oracles import (ReferenceTokenIndexer, reference_load_csv,
                      reference_load_jsonl, reference_load_stream)


def make_sample(sid, ts, label=0, tokens=("alpha",)):
    return RawSample(id=sid, timestamp=ts, label=label,
                     attributes={"api_calls": list(tokens)})


# ---------------------------------------------------------------------------
# normalization and schema
# ---------------------------------------------------------------------------

def _loaded_tokens(tmp_path, tokens):
    path = tmp_path / "s.jsonl"
    path.write_text(json.dumps({"id": "a", "timestamp": 1,
                                "attributes": {"x": tokens}}) + "\n")
    return load_stream(path)[0].attributes["x"]


def test_tokens_are_lowercased_stripped_and_non_empty(tmp_path):
    assert _loaded_tokens(tmp_path, [" Foo ", "BAR", "", "  ", "baz"]) == \
        ["foo", "bar", "baz"]


def test_duplicate_tokens_survive_normalization(tmp_path):
    assert _loaded_tokens(tmp_path, ["A", "a", " a"]) == ["a", "a", "a"]


def test_schema_rejects_duplicate_names():
    with pytest.raises(SchemaMismatch):
        StreamSchema(("a", "b", "a"))


def test_schema_rejects_empty():
    with pytest.raises(SchemaMismatch):
        StreamSchema(())


# ---------------------------------------------------------------------------
# ordering
# ---------------------------------------------------------------------------

def test_stream_sorted_by_timestamp_then_id():
    samples = [make_sample("b", 20), make_sample("z", 10),
               make_sample("a", 20), make_sample("m", 15)]
    stream = stream_from_samples(samples)
    assert [s.id for s in stream] == ["z", "m", "a", "b"]


def test_equal_timestamps_break_ties_by_id():
    samples = [make_sample("x2", 5), make_sample("x10", 5),
               make_sample("x1", 5)]
    stream = stream_from_samples(samples)
    # lexicographic id order, not numeric
    assert [s.id for s in stream] == ["x1", "x10", "x2"]


def test_duplicate_ids_are_kept_as_distinct_samples():
    samples = [make_sample("dup", 1), make_sample("dup", 2)]
    stream = stream_from_samples(samples)
    assert len(stream) == 2


@pytest.mark.parametrize("label, timestamp", [
    (-1, 1), (2, 1), (0.5, 1), (0, 1.5), (None, "1"),
    (0, -1), (0, MAX_TIMESTAMP + 1), (0, 2**63), (0, True), (True, 1)])
def test_stream_from_samples_rejects_what_its_columns_cannot_hold(
        label, timestamp):
    """Labels are int8 with -1 for None and timestamps int64, so another
    label would read back changed or as None, a float timestamp cut and
    ``2**63`` overflow.  A negative timestamp or one past
    ``MAX_TIMESTAMP`` would be saved to a file that ``load_stream``
    rejects, and the JSONL loader takes no bool label or timestamp."""
    with pytest.raises(ValueOutOfRange, match="sample 'b'"):
        stream_from_samples([make_sample("a", 1),
                             make_sample("b", timestamp, label=label)])


def test_extreme_timestamps_survive_save_and_load(tmp_path):
    stream = stream_from_samples([make_sample("a", MAX_TIMESTAMP),
                                  make_sample("b", 0)])
    save_stream(stream, tmp_path / "s.jsonl")
    loaded = load_stream(tmp_path / "s.jsonl")
    assert loaded.timestamps.tolist() == [0, MAX_TIMESTAMP]
    assert [s.id for s in loaded] == ["b", "a"]


def test_mismatched_attribute_set_raises():
    good = make_sample("a", 1)
    bad = RawSample(id="b", timestamp=2, label=0,
                    attributes={"permissions": ["x"]})
    with pytest.raises(SchemaMismatch):
        stream_from_samples([good, bad])


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------

def test_load_jsonl_roundtrip(tmp_path):
    path = tmp_path / "stream.jsonl"
    rows = [
        {"id": "s2", "timestamp": 200, "label": 1,
         "attributes": {"api_calls": ["Open", "READ"], "perms": ["NET"]}},
        {"id": "s1", "timestamp": 100, "label": 0,
         "attributes": {"api_calls": ["close"], "perms": []}},
        {"id": "s3", "timestamp": 300, "label": None,
         "attributes": {"api_calls": [], "perms": ["gps", "gps"]}},
    ]
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    stream = load_stream(path)
    assert [s.id for s in stream] == ["s1", "s2", "s3"]
    assert stream[1].attributes["api_calls"] == ["open", "read"]
    assert stream[2].label is None
    assert stream[2].attributes["perms"] == ["gps", "gps"]

    out = tmp_path / "copy.jsonl"
    save_stream(stream, out)
    again = load_stream(out)
    assert list(again) == list(stream)
    # a second save of the reloaded stream is byte-identical
    out2 = tmp_path / "copy2.jsonl"
    save_stream(again, out2)
    assert out.read_bytes() == out2.read_bytes()


def test_malformed_json_line_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "a", "timestamp": 1, "attributes": {"x": []}}\n'
                    'this is not json\n')
    with pytest.raises(ParseError) as err:
        load_stream(path)
    assert err.value.line == 2


def test_bad_label_line_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "a", "timestamp": 1, "label": 3, '
                    '"attributes": {"x": []}}\n')
    with pytest.raises(ParseError) as err:
        load_stream(path)
    assert err.value.line == 1


@pytest.mark.parametrize("timestamp,label", [
    ("2", "0.7"), ("2", "true"), ("6.9", "0"), ("false", "0"),
    ("Infinity", "0"),
])
def test_non_integral_label_or_timestamp_line_number(tmp_path, timestamp,
                                                     label):
    path = tmp_path / "bad.jsonl"
    path.write_text(
        '{"id": "a", "timestamp": 1, "label": 0, "attributes": {"x": []}}\n'
        f'{{"id": "b", "timestamp": {timestamp}, "label": {label}, '
        f'"attributes": {{"x": []}}}}\n')
    with pytest.raises(ParseError) as err:
        load_stream(path)
    assert err.value.line == 2


def test_integral_float_label_and_timestamp_accepted(tmp_path):
    path = tmp_path / "ok.jsonl"
    path.write_text('{"id": "a", "timestamp": 6.0, "label": 1.0, '
                    '"attributes": {"x": []}}\n')
    sample = load_stream(path)[0]
    assert (sample.timestamp, sample.label) == (6, 1)


def test_negative_timestamp_rejected(tmp_path):
    path = tmp_path / "bad.jsonl"
    # also a timestamp past 9999-12-31T23:59:59Z, which has no calendar month
    for timestamp in (-5, 253402300800):
        path.write_text(f'{{"id": "a", "timestamp": {timestamp}, '
                        f'"attributes": {{"x": []}}}}\n')
        with pytest.raises(ParseError) as err:
            load_stream(path)
        assert err.value.line == 1
    path.write_text('{"id": "a", "timestamp": 253402300799, '
                    '"attributes": {"x": []}}\n')
    assert load_stream(path)[0].timestamp == 253402300799


def test_schema_mismatch_on_later_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "a", "timestamp": 1, "attributes": {"x": []}}\n'
                    '{"id": "b", "timestamp": 2, "attributes": {"y": []}}\n')
    with pytest.raises(SchemaMismatch):
        load_stream(path)


def test_empty_file_raises_empty_stream(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    with pytest.raises(EmptyStream):
        load_stream(path)


def test_empty_csv_raises_empty_stream(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(EmptyStream):
        load_stream(path, fmt="csv")


def test_csv_header_without_attribute_columns(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("id,timestamp,label\ns1,1,0\n")
    with pytest.raises(ParseError, match="declares no attribute columns") as err:
        load_stream(path, fmt="csv")
    assert err.value.line == 1


def test_csv_blank_line_is_skipped(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("id,timestamp,label,a\ns1,1,0,x\n\ns2,2,1,y\n")
    stream = load_stream(path, fmt="csv")
    assert [(s.id, s.attributes["a"]) for s in stream] == [("s1", ["x"]),
                                                          ("s2", ["y"])]


def test_jsonl_empty_attributes_object_line_number(tmp_path):
    path = tmp_path / "s.jsonl"
    path.write_text(json.dumps({"id": "a", "timestamp": 1,
                                "attributes": {"x": ["t"]}}) + "\n"
                    + json.dumps({"id": "b", "timestamp": 2,
                                  "attributes": {}}) + "\n")
    with pytest.raises(ParseError, match="'attributes' must be a non-empty "
                                         "object") as err:
        load_stream(path)
    assert err.value.line == 2


def test_jsonl_empty_attribute_name_is_a_schema_error(tmp_path):
    path = tmp_path / "s.jsonl"
    path.write_text(json.dumps({"id": "a", "timestamp": 1,
                                "attributes": {"": ["t"]}}) + "\n")
    with pytest.raises(SchemaMismatch, match="empty attribute name"):
        load_stream(path)


def test_load_csv(tmp_path):
    path = tmp_path / "stream.csv"
    path.write_text(
        "id,timestamp,label,api_calls,perms\n"
        "s1,100,0,open read,net\n"
        "s2,50,1,CLOSE, \n"
        "s3,200,,write write,gps net\n")
    stream = load_stream(path, fmt="csv")
    assert [s.id for s in stream] == ["s2", "s1", "s3"]
    assert stream[0].attributes["api_calls"] == ["close"]
    assert stream[0].attributes["perms"] == []
    assert stream[2].label is None
    assert stream[2].attributes["api_calls"] == ["write", "write"]


def test_csv_and_jsonl_agree(tmp_path):
    csv_path = tmp_path / "s.csv"
    csv_path.write_text("id,timestamp,label,a\n"
                        "x,1,0,t1 t2\n"
                        "y,2,1,t3\n")
    jsonl_path = tmp_path / "s.jsonl"
    jsonl_path.write_text(
        '{"id": "x", "timestamp": 1, "label": 0, "attributes": {"a": ["t1", "t2"]}}\n'
        '{"id": "y", "timestamp": 2, "label": 1, "attributes": {"a": ["t3"]}}\n')
    assert list(load_stream(csv_path, "csv")) == list(load_stream(jsonl_path))


def test_unknown_format_is_a_parse_error(tmp_path):
    path = tmp_path / "s.jsonl"
    path.write_text('{"id": "a", "timestamp": 1, "attributes": {"x": []}}\n')
    with pytest.raises(ParseError, match="unknown stream format 'xml'"):
        load_stream(path, "xml")


def test_csv_bad_header(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("timestamp,id,label,a\n1,x,0,t\n")
    with pytest.raises(ParseError):
        load_stream(path, fmt="csv")


def test_csv_repeated_column_is_a_parse_error(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("id,timestamp,label,a,a\ns1,1,0,x y,z\n")
    with pytest.raises(ParseError, match="repeats column 'a'") as err:
        load_stream(path, fmt="csv")
    assert err.value.line == 1


@pytest.mark.parametrize("row", ["s2,2,0,x y,z", "s2,2,0,x y,z,w", "s2,2,0"])
def test_csv_row_with_extra_or_missing_cells_is_a_parse_error(tmp_path, row):
    path = tmp_path / "s.csv"
    path.write_text(f"id,timestamp,label,a\ns1,1,0,x\n{row}\n")
    with pytest.raises(ParseError) as err:
        load_stream(path, fmt="csv")
    assert err.value.line == 3


def test_non_str_json_tokens_normalize_by_their_text(tmp_path):
    # 1, true and 1.0 are equal dict keys; each still loads as its own text
    path = tmp_path / "s.jsonl"
    tokens = '[1, true, "1", "True", 1.0, " A ", ""]'
    path.write_text(
        f'{{"id": "a", "timestamp": 1, "attributes": {{"x": {tokens}}}}}\n'
        f'{{"id": "b", "timestamp": 2, "attributes": {{"x": {tokens}}}}}\n')
    for sample in load_stream(path):
        assert sample.attributes["x"] == ["1", "true", "1", "true", "1.0", "a"]


def _token_objects(stream):
    """normalized token -> ids of the objects holding it in the stream."""
    objects = {}
    for sample in stream:
        for tokens in sample.attributes.values():
            for tok in tokens:
                objects.setdefault(tok, set()).add(id(tok))
    return objects


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_equal_tokens_share_one_object(tmp_path, fmt):
    rows = [("s1", 3, 1, {"api": ["Send", "send", " SEND "], "perm": ["net"]}),
            ("s2", 1, 0, {"api": ["net", "read"], "perm": ["NET", "send"]}),
            ("s3", 2, 0, {"api": ["read", "read"], "perm": ["Read", "net"]})]
    path = tmp_path / f"s.{fmt}"
    if fmt == "jsonl":
        path.write_text("".join(
            json.dumps({"id": sid, "timestamp": ts, "label": label,
                        "attributes": attrs}) + "\n"
            for sid, ts, label, attrs in rows))
    else:
        path.write_text("id,timestamp,label,api,perm\n" + "".join(
            f"{sid},{ts},{label},{' '.join(attrs['api'])},"
            f"{' '.join(attrs['perm'])}\n" for sid, ts, label, attrs in rows))
    stream = load_stream(path, fmt)
    objects = _token_objects(stream)
    assert sorted(objects) == ["net", "read", "send"]
    assert all(len(ids) == 1 for ids in objects.values())
    for sample in stream:
        assert all(got is want for got, want in
                   zip(sample.attributes, stream.schema.attribute_names))


def test_loaded_stream_holds_no_object_per_sample(tmp_path):
    """Token ids replace the per-sample token lists: loading 2,000
    samples leaves a bounded number of objects for the collector, not a
    few per sample."""
    path = tmp_path / "s.jsonl"
    save_stream(generate_synth_stream(SynthStreamSpec(
        n_samples=2000, n_attributes=3, seed=0)), path)
    gc.collect()
    before = len(gc.get_objects())
    stream = load_stream(path)
    gc.collect()
    assert len(stream) == 2000
    assert len(gc.get_objects()) - before < 100


def test_stream_from_samples_keeps_samples_in_schema_order():
    kept = RawSample("a", 2, 0, {"x": ["t"], "y": []})
    reordered = RawSample("b", 1, 0, {"y": ["u"], "x": []})
    stream = stream_from_samples([kept, reordered])
    assert stream[1] == kept
    assert list(stream[0].attributes) == ["x", "y"]
    assert stream[0] == reordered


# ---------------------------------------------------------------------------
# the interning loader against the former one-token-at-a-time loader
# ---------------------------------------------------------------------------

TOKEN_TEXT = st.text(alphabet="aAbB\u0130\u03a3 \t", max_size=3)
JSON_TOKENS = st.one_of(
    TOKEN_TEXT, st.sampled_from([1, True, False, 1.0, 2.5, None, 0]),
    st.lists(st.sampled_from([1, "A", None]), max_size=2))
CELL_TEXT = st.text(alphabet="aAbB\u0130\u03a3 \t\n,\"", max_size=10)
ATTRIBUTE_NAMES = st.lists(st.sampled_from(["api", "perm", "url", "Api"]),
                           min_size=1, max_size=4, unique=True)


# What the loader's one-scan fast path must hand to its json.loads fallback:
# blanks around a record (JSON and non-JSON whitespace), whitespace-only
# lines, trailing data, CRLF endings, a BOM, non-object records, missing
# keys, and field values outside the int fast path.
AROUND = st.sampled_from(["", " ", "\t ", "  ", "\x0b", "\xa0"])
TRAILING = st.sampled_from(["", " ", "\t", "  ", "\xa0", " x", "{}", ",",
                            " 1"])
BLANK_LINES = st.sampled_from(["", " ", "\t", "\x0b", "\xa0", " \x0b\xa0 "])
NOT_OBJECTS = st.sampled_from(["null", "[]", "[1]", "3", '"x"', "true"])
ODD_TIMESTAMPS = st.sampled_from([True, 1.0, 2.5, "3", float("nan"), -1,
                                  MAX_TIMESTAMP, MAX_TIMESTAMP + 1, None])
ODD_LABELS = st.sampled_from([True, False, 1.0, 0.5, float("nan"), 2, -1,
                              "1", " null ", ""])
LINE_KINDS = st.sampled_from(["record"] * 8 + ["padded record"] * 2
                             + ["odd record"] * 2 + ["blank"]
                             + ["not an object"] * 2)
RARELY = st.sampled_from([False] * 7 + [True])


@st.composite
def jsonl_text(draw):
    names = draw(ATTRIBUTE_NAMES)
    lines = []
    for i in range(draw(st.integers(1, 10))):
        kind = draw(LINE_KINDS)
        if kind == "blank":
            lines.append(draw(BLANK_LINES))
            continue
        if kind == "not an object":
            lines.append(draw(AROUND) + draw(NOT_OBJECTS) + draw(TRAILING))
            continue
        attrs = {name: draw(st.lists(JSON_TOKENS, max_size=6))
                 for name in draw(st.permutations(names))}
        record = {"id": draw(st.sampled_from(["x", "y", f"s{i}"])),
                  "timestamp": draw(st.integers(0, 5)),
                  "label": draw(st.sampled_from([0, 1, None])),
                  "attributes": attrs}
        if kind == "odd record":
            odd = draw(st.sets(st.sampled_from(["timestamp", "label", "keys"]),
                               min_size=1))
            if "timestamp" in odd:
                record["timestamp"] = draw(ODD_TIMESTAMPS)
            if "label" in odd:
                record["label"] = draw(ODD_LABELS)
            if "keys" in odd:
                for key in draw(st.lists(st.sampled_from(list(record)),
                                         min_size=1, max_size=2)):
                    record.pop(key, None)
        line = json.dumps(record)
        if kind == "padded record":
            line = draw(AROUND) + line + draw(TRAILING)
        lines.append(line)
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    text = "".join(line + eol * draw(st.integers(1, 2)) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")  # a last line with no newline
    if draw(RARELY):
        text = "\ufeff" + text
    return text


@st.composite
def csv_rows(draw):
    names = draw(ATTRIBUTE_NAMES)
    rows = [["id", "timestamp", "label", *names]]
    for i in range(draw(st.integers(1, 10))):
        rows.append([draw(st.sampled_from(["x", "y", f"s{i}", "a,b"])),
                     draw(st.integers(0, 5)),
                     draw(st.sampled_from(["0", "1", "", "null", " 1 "])),
                     *(draw(CELL_TEXT) for _ in names)])
    return rows


def _records(stream):
    return (stream.schema, [(s.id, s.timestamp, s.label,
                             list(s.attributes.items())) for s in stream])


def _outcome(load, path, fmt):
    """The loaded stream and its records, or the error's type, message
    and line."""
    try:
        stream = load(path, fmt)
    except DriftStreamError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    return _records(stream)  # _records: also the attribute order


def _columns(stream):
    """Every column of a stream, token ids per attribute included."""
    return (stream.schema, stream.ids.tolist(), stream.timestamps.tolist(),
            stream.labels.tolist(), stream.tokens, stream.token_ids,
            [(ids.tolist(), counts.tolist()) for ids, counts in
             stream._cells()])


def _check_columns(stream, read_samples):
    """The stream's token ids are the reference indexer's, first seen over
    the sorted stream, and ``stream_from_samples`` of the samples as read
    (in file order) builds the same columns."""
    indexer = ReferenceTokenIndexer()
    for i, sample in enumerate(stream):
        indexer.encode(sample)
        cells = stream[i:i + 1]._cells()
        for (name, tokens), (ids, _) in zip(sample.attributes.items(), cells):
            assert ids.tolist() == [indexer._index[name, tok]
                                    for tok in tokens]
            assert [stream.tokens[t] for t in ids.tolist()] == tokens
            assert [stream.token_ids[name][tok] for tok in tokens] == \
                ids.tolist()
    assert len(stream.tokens) == len(indexer)
    assert _columns(stream_from_samples(read_samples)) == _columns(stream)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_interning_loader_matches_reference(tmp_path_factory, data):
    """Lines in any order, attributes in any key order, tokens that are
    not normalized, not strings or empty after stripping, CRLF endings
    and blank lines: the loaded records are the reference loader's, and
    so are the token ids."""
    path = tmp_path_factory.mktemp("load") / "s"
    fmt = data.draw(st.sampled_from(["jsonl", "csv"]))
    if fmt == "jsonl":
        path.write_bytes(data.draw(jsonl_text()).encode("utf-8"))
    else:
        with path.open("w", encoding="utf-8", newline="") as fh:
            csv.writer(fh).writerows(data.draw(csv_rows()))
    assert (_outcome(load_stream, path, fmt)
            == _outcome(reference_load_stream, path, fmt))
    try:
        stream = load_stream(path, fmt)
    except DriftStreamError:
        return
    read = {"jsonl": reference_load_jsonl, "csv": reference_load_csv}[fmt]
    _check_columns(stream, read(path))


def _jsonl_record(sid="a", **fields):
    """One JSONL record; a field given as ``...`` is left out."""
    record = {"id": sid, "timestamp": 1, "label": 0,
              "attributes": {"x": ["t"]}}
    record.update(fields)
    return json.dumps({k: v for k, v in record.items() if v is not ...})


FALLBACK_TEXTS = {
    "leading-blanks": f" \t{_jsonl_record()}\n",
    "trailing-blanks": f"{_jsonl_record()} \t\n",
    "leading-vertical-tab": f"\x0b{_jsonl_record()}\n",
    "trailing-no-break-space": f"{_jsonl_record()}\xa0\n",
    "blank-lines": (f"\n{_jsonl_record()}\n \n\x0b\n\xa0\n"
                    f"{_jsonl_record('b')}\n\n"),
    "only-blank-lines": "\n \x0b \n\xa0\n",
    "trailing-data": f"{_jsonl_record()} x\n",
    "trailing-object": f"{_jsonl_record()}{{}}\n",
    "crlf": f"{_jsonl_record()}\r\n\r\n{_jsonl_record('b')}\r\n",
    "no-final-newline": f"{_jsonl_record()}\n{_jsonl_record('b')}",
    "bom": f"\ufeff{_jsonl_record()}\n",
    "array": f"{_jsonl_record()}\n[1]\n",
    "string": '"x"\n',
    "padded-null": f" null \n{_jsonl_record()}\n",
    "no-id": f"{_jsonl_record(sid=...)}\n",
    "no-timestamp": f"{_jsonl_record(timestamp=...)}\n",
    "no-attributes": f"{_jsonl_record(attributes=...)}\n",
    "no-keys": "{}\n",
    "no-label": f"{_jsonl_record(label=...)}\n",
    "timestamp-true": f"{_jsonl_record(timestamp=True)}\n",
    "timestamp-1.0": f"{_jsonl_record(timestamp=1.0)}\n",
    "timestamp-nan": f"{_jsonl_record(timestamp=float('nan'))}\n",
    "timestamp-negative": f"{_jsonl_record(timestamp=-1)}\n",
    "timestamp-past-max": f"{_jsonl_record(timestamp=MAX_TIMESTAMP + 1)}\n",
    "timestamp-max": f"{_jsonl_record(timestamp=MAX_TIMESTAMP)}\n",
    "label-true": f"{_jsonl_record(label=True)}\n",
    "label-false": f"{_jsonl_record(label=False)}\n",
    "label-1.0": f"{_jsonl_record(label=1.0)}\n",
    "label-nan": f"{_jsonl_record(label=float('nan'))}\n",
    "label-2": f"{_jsonl_record(label=2)}\n",
    "label-negative": f"{_jsonl_record(label=-1)}\n",
}


@pytest.mark.parametrize("text", FALLBACK_TEXTS.values(), ids=FALLBACK_TEXTS)
def test_fallback_lines_match_reference(tmp_path, text):
    path = tmp_path / "s.jsonl"
    path.write_bytes(text.encode("utf-8"))
    assert (_outcome(load_stream, path, "jsonl")
            == _outcome(reference_load_stream, path, "jsonl"))


# ---------------------------------------------------------------------------
# temporal split: run_temporal_split trains on the oldest floor(f * n)
# samples and evaluates the rest; its counts show the sizes, and positives
# labeled by time show which side is the newest
# ---------------------------------------------------------------------------

def temporal_split(stream, fraction):
    config = ExperimentConfig(strategy="temporal", classifier="sgd",
                              split_fraction=fraction)
    return run_temporal_split(stream, config)[1]


def test_split_sizes_even():
    stream = stream_from_samples([make_sample(f"s{i}", i) for i in range(10)])
    assert temporal_split(stream, 0.5).total == 5


def test_split_single_sample_floor():
    stream = stream_from_samples([make_sample("only", 1)])
    with pytest.raises(InsufficientData, match="leaves an empty side"):
        temporal_split(stream, 0.5)


def test_split_odd_large_count():
    n = 129013
    stream = stream_from_samples([make_sample(f"s{i:06d}", i) for i in range(n)])
    assert temporal_split(stream, 0.5).total == 64507


def test_split_boundary_timestamps():
    """The evaluated side is the five newest samples (timestamps 3, 5, 7,
    9, 9), four of them positive; in file order it would hold two."""
    samples = [make_sample(f"s{i}", ts, label=int(ts >= 5)) for i, ts in
               enumerate([5, 3, 9, 3, 7, 1, 9, 2])]
    counts = temporal_split(stream_from_samples(samples), 0.4)
    assert (counts.total, counts.tp + counts.fn) == (5, 4)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 1000), st.integers(0, 99),
                          st.integers(0, 1)),
                min_size=2, max_size=60),
       st.floats(0.01, 0.99))
def test_split_is_a_partition(triples, fraction):
    samples = [make_sample(f"s{i}_{suffix}", ts, label=label)
               for i, (ts, suffix, label) in enumerate(triples)]
    stream = stream_from_samples(samples)
    cut = math.floor(fraction * len(stream))
    if cut == 0:
        with pytest.raises(InsufficientData):
            temporal_split(stream, fraction)
        return
    counts = temporal_split(stream, fraction)
    assert counts.total == len(stream) - cut
    assert counts.tp + counts.fn == sum(s.label for s in stream[cut:])
