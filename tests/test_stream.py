"""Stream loading, ordering and temporal splitting."""

import csv
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftstream import (EmptyStream, InvalidFraction, ParseError, RawSample,
                         SchemaMismatch, StreamSchema, load_stream,
                         save_stream, split_temporal, stream_from_samples)
from .oracles import reference_load_stream


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
    assert again.samples == stream.samples
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
    assert load_stream(csv_path, "csv").samples == load_stream(jsonl_path).samples


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


def test_stream_from_samples_keeps_samples_in_schema_order():
    kept = RawSample("a", 2, 0, {"x": ["t"], "y": []})
    reordered = RawSample("b", 1, 0, {"y": ["u"], "x": []})
    stream = stream_from_samples([kept, reordered])
    assert stream[1] is kept
    assert stream[0] is not reordered
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


@st.composite
def jsonl_text(draw):
    names = draw(ATTRIBUTE_NAMES)
    lines = []
    for i in range(draw(st.integers(1, 10))):
        attrs = {name: draw(st.lists(JSON_TOKENS, max_size=6))
                 for name in draw(st.permutations(names))}
        record = {"id": draw(st.sampled_from(["x", "y", f"s{i}"])),
                  "timestamp": draw(st.integers(0, 5)),
                  "label": draw(st.sampled_from([0, 1, None])),
                  "attributes": attrs}
        lines.append(json.dumps(record) + "\n" * draw(st.integers(1, 2)))
    return "".join(lines)


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


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_interning_loader_matches_reference(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("load") / "s"
    fmt = data.draw(st.sampled_from(["jsonl", "csv"]))
    if fmt == "jsonl":
        path.write_text(data.draw(jsonl_text()), encoding="utf-8")
    else:
        with path.open("w", encoding="utf-8", newline="") as fh:
            csv.writer(fh).writerows(data.draw(csv_rows()))
    got = load_stream(path, fmt)
    want = reference_load_stream(path, fmt)
    assert got == want
    assert _records(got) == _records(want)  # also the attribute order


# ---------------------------------------------------------------------------
# temporal split
# ---------------------------------------------------------------------------

def test_split_sizes_even():
    stream = stream_from_samples([make_sample(f"s{i}", i) for i in range(10)])
    first, second = split_temporal(stream, 0.5)
    assert (len(first), len(second)) == (5, 5)


def test_split_single_sample_floor():
    stream = stream_from_samples([make_sample("only", 1)])
    first, second = split_temporal(stream, 0.5)
    assert (len(first), len(second)) == (0, 1)


def test_split_odd_large_count():
    n = 129013
    stream = stream_from_samples([make_sample(f"s{i:06d}", i) for i in range(n)])
    first, second = split_temporal(stream, 0.5)
    assert (len(first), len(second)) == (64506, 64507)


def test_split_rejects_out_of_range_fraction():
    stream = stream_from_samples([make_sample("a", 1), make_sample("b", 2)])
    for bad in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(InvalidFraction):
            split_temporal(stream, bad)


def test_split_boundary_timestamps():
    """Every timestamp in the first part <= every timestamp in the second."""
    samples = [make_sample(f"s{i}", ts) for i, ts in
               enumerate([5, 3, 9, 3, 7, 1, 9, 2])]
    stream = stream_from_samples(samples)
    first, second = split_temporal(stream, 0.4)
    assert max(s.timestamp for s in first) <= min(s.timestamp for s in second)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 1000), st.integers(0, 99)),
                min_size=2, max_size=60),
       st.floats(0.01, 0.99))
def test_split_is_a_partition(pairs, fraction):
    samples = [make_sample(f"s{i}_{suffix}", ts)
               for i, (ts, suffix) in enumerate(pairs)]
    stream = stream_from_samples(samples)
    first, second = split_temporal(stream, fraction)
    assert len(first) + len(second) == len(stream)
    assert list(first.samples) + list(second.samples) == list(stream.samples)
    assert len(first) == int(fraction * len(stream) // 1)
