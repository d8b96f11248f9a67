"""TF-IDF feature extraction, scaling and vocabulary diffs."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftstream import (EmptyTrainingSet, FeatureExtractorModel, RawSample,
                         SchemaMismatch, fit_extractor, stream_from_samples,
                         vocabulary_diff)
from driftstream import features
from driftstream.errors import ParseError
from .oracles import (naive_fit_transform, per_sample_raw_vector,
                      per_sample_transform)


def doc(sid, ts, tokens, label=0, attr="api_calls"):
    return RawSample(id=sid, timestamp=ts, label=label,
                     attributes={attr: list(tokens)})


def as_stream(*samples):
    return stream_from_samples(samples)


# ---------------------------------------------------------------------------
# worked example: two documents, one attribute, K = 2
#   d1 = {a, a, b},  d2 = {b, c}
#   totals: a -> 2, b -> 2, c -> 1; tie between a and b broken to a first.
#   vocab = [a, b]; df(a) = 1, df(b) = 2
#   idf(a) = ln((1+2)/(1+1)) + 1 = ln(1.5) + 1, idf(b) = ln(1) + 1 = 1
# ---------------------------------------------------------------------------

IDF_A = math.log(1.5) + 1.0


def worked_extractor():
    train = stream_from_samples([doc("d1", 1, ["a", "a", "b"]),
                                 doc("d2", 2, ["b", "c"])])
    return fit_extractor(train, k=2)


def test_topk_selection_and_tiebreak():
    model = worked_extractor()
    vocab = model.vocabularies[0]
    assert vocab.attribute_name == "api_calls"
    assert vocab.tokens == ["a", "b"]
    assert vocab.document_frequency == [1, 2]
    assert vocab.n_train_docs == 2


def test_idf_values():
    model = worked_extractor()
    assert model._idf[0] == pytest.approx(IDF_A, abs=1e-15)
    assert model._idf[1] == pytest.approx(1.0, abs=1e-15)


def test_worked_example_raw_geometry():
    """Before min-max, d1 maps to the unit vector of (2*idf_a, 1)."""
    model = worked_extractor()
    raw = model._raw_matrix(as_stream(doc("d1", 1, ["a", "a", "b"])))[0]
    expect = np.array([2 * IDF_A, 1.0])
    expect /= np.linalg.norm(expect)
    np.testing.assert_allclose(raw, expect, atol=1e-12)


def test_train_transforms_span_unit_interval():
    """The fitted min-max puts each seen dimension's extremes at 0 and 1."""
    model = worked_extractor()
    v1, v2 = model.transform_many(as_stream(doc("d1", 1, ["a", "a", "b"]),
                                            doc("d2", 2, ["b", "c"])))
    # d2 has no "a" -> raw 0 is the min, d1's is the max
    assert v1[0] == pytest.approx(1.0)
    assert v2[0] == pytest.approx(0.0)
    # dim "b": d2's normalized weight (1.0) exceeds d1's
    assert v2[1] == pytest.approx(1.0)
    assert v1[1] == pytest.approx(0.0)


def test_oov_only_document_maps_to_zero_vector():
    model = worked_extractor()
    vec = model.transform_many(as_stream(doc("q", 9, ["zzz", "qqq"])))[0]
    assert vec.tobytes() == np.zeros(2).tobytes()  # +0.0, not -0.0


# ---------------------------------------------------------------------------
# oracle equivalence on random corpora
# ---------------------------------------------------------------------------

def random_corpus(rng, n_docs, n_attrs, pool_size, max_len):
    attrs = [f"attr{j}" for j in range(n_attrs)]
    samples = []
    for i in range(n_docs):
        attributes = {}
        for a in attrs:
            count = int(rng.integers(0, max_len + 1))
            attributes[a] = [f"t{int(rng.integers(pool_size))}"
                             for _ in range(count)]
        if all(len(v) == 0 for v in attributes.values()):
            attributes[attrs[0]] = ["t0"]
        samples.append(RawSample(id=f"s{i:04d}", timestamp=i, label=0,
                                 attributes=attributes))
    return stream_from_samples(samples)


@pytest.mark.parametrize("seed,k", [(0, 2), (1, 5), (2, 100)])
def test_matches_naive_reference(seed, k):
    rng = np.random.default_rng(seed)
    stream = random_corpus(rng, n_docs=40, n_attrs=3, pool_size=25, max_len=12)
    model = fit_extractor(stream, k=k)
    queries = random_corpus(rng, n_docs=15, n_attrs=3, pool_size=30, max_len=12)

    train_docs = [dict(s.attributes) for s in stream]
    query_docs = [dict(s.attributes) for s in queries]
    expected = naive_fit_transform(train_docs, query_docs, k)
    for i, want in enumerate(expected):
        got = model.transform_many(queries[i:i + 1])[0]
        np.testing.assert_allclose(got, np.asarray(want), atol=1e-9)


# ---------------------------------------------------------------------------
# block transform == former per-sample transform, bit for bit
# ---------------------------------------------------------------------------

TOKENS = [f"t{i}" for i in range(12)]
OOV_TOKENS = ["oov0", "oov1", "oov2"]


@st.composite
def block_case(draw):
    """(k, training samples, query block) over 1-3 attributes.

    The training pool may hold fewer distinct tokens than ``k``, the last
    attribute may hold no token in any training sample, and a training
    set may span several blocks.  Sample ``i`` of ``n`` draws from the
    first ``1 + i * len(pool) // n`` tokens of its pool, so later blocks
    hold tokens, and column maxima, that earlier ones do not.  Queries mix
    in out-of-vocabulary tokens, their count is one block give or take a
    row, and the block's first and last rows are an all-empty and an
    all-OOV sample.  Token lists come from a drawn numpy seed: drawn one
    by one, several hundred samples exceed hypothesis's entropy limit.
    """
    names = [f"a{j}" for j in range(draw(st.integers(1, 3)))]
    pool = TOKENS[:draw(st.integers(1, len(TOKENS)))]
    k = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def token_list(tokens):
        return [tokens[j] for j in rng.integers(len(tokens),
                                                size=rng.integers(0, 7))]

    def samples(tokens, n, prefix, empty=()):
        return [RawSample(id=f"{prefix}{i}", timestamp=i, label=0,
                          attributes={name: [] if name in empty
                                      else token_list(
                                          tokens[:1 + i * len(tokens) // n])
                                      for name in names})
                for i in range(n)]

    n_train = draw(st.integers(1, 70)
                   | st.integers(features.BLOCK_ROWS + 1,
                                 2 * features.BLOCK_ROWS + 1))
    train = samples(pool, n_train, "train",
                    names[-1:] if draw(st.booleans()) else ())
    queries = samples(pool + OOV_TOKENS, draw(st.sampled_from(
        [1, features.BLOCK_ROWS - 1, features.BLOCK_ROWS,
         features.BLOCK_ROWS + 1])), "q")
    queries[0] = RawSample(id="empty", timestamp=0, label=0,
                           attributes={name: [] for name in names})
    queries[-1] = RawSample(id="oov", timestamp=len(queries), label=0,
                            attributes={name: list(OOV_TOKENS)
                                        for name in names})
    return k, stream_from_samples(train), stream_from_samples(queries)


@settings(max_examples=60, deadline=None)
@given(block_case())
def test_block_transform_is_bit_identical_to_per_sample(case):
    k, train, queries = case
    model = fit_extractor(train, k=k)
    for vocab in model.vocabularies:
        assert vocab.document_frequency == [
            sum(tok in set(s.attributes[vocab.attribute_name]) for s in train)
            for tok in vocab.tokens]
    raws = np.array([per_sample_raw_vector(model, s) for s in train])
    assert model.minmax_min.tobytes() == raws.min(axis=0).tobytes()
    assert model.minmax_max.tobytes() == raws.max(axis=0).tobytes()

    # bytes, not values: -0.0 == +0.0 would pass np.array_equal
    want = np.array([per_sample_transform(model, s) for s in queries])
    assert model.transform_many(queries).tobytes() == want.tobytes()
    assert np.array(list(model.iter_transform(queries))).tobytes() == \
        want.tobytes()
    assert not want[-1].any()  # OOV tokens leave every column at the min


def test_transform_outputs_are_read_only():
    model = worked_extractor()
    queries = as_stream(doc("q1", 3, ["a", "c"]), doc("q2", 4, ["b"]))
    for out in (model.transform_many(queries),
                model.transform_many(queries[:1])[0],
                *model.iter_transform(queries)):
        assert not out.flags.writeable
        with pytest.raises(ValueError):
            out[0] = 0.5


def test_values_bounded_in_unit_interval():
    rng = np.random.default_rng(11)
    stream = random_corpus(rng, n_docs=60, n_attrs=2, pool_size=15, max_len=10)
    model = fit_extractor(stream, k=5)
    queries = random_corpus(rng, n_docs=40, n_attrs=2, pool_size=40, max_len=10)
    for vec in model.iter_transform(queries):
        assert np.all(vec >= 0.0) and np.all(vec <= 1.0)


def test_l2_normalization_is_per_attribute_block():
    """Each attribute's block is normalized on its own, not globally."""
    train = stream_from_samples([
        RawSample(id="d1", timestamp=1, label=0,
                  attributes={"x": ["a"], "y": ["b", "b"]}),
        RawSample(id="d2", timestamp=2, label=0,
                  attributes={"x": ["a", "c"], "y": ["b"]})])
    model = fit_extractor(train, k=1)
    raw = model._raw_matrix(train[:1])[0]
    # single live dimension per block -> each block normalizes to length 1
    np.testing.assert_allclose(raw, [1.0, 1.0], atol=1e-12)


# ---------------------------------------------------------------------------
# dimensionality
# ---------------------------------------------------------------------------

def test_dim_is_attributes_times_k_even_when_vocab_short():
    train = stream_from_samples([
        RawSample(id="a", timestamp=1, label=0,
                  attributes={"x": ["only"], "y": ["t1", "t2"]})])
    model = fit_extractor(train, k=100)
    assert model.dim == 200
    vec = model.transform_many(train[:1])[0]
    assert vec.shape == (200,)
    # block for "x" has one live dimension, the rest of its 100 are zero
    assert np.count_nonzero(vec[:100]) <= 1


def test_empty_training_set_rejected():
    with pytest.raises(EmptyTrainingSet):
        fit_extractor(as_stream(doc("d1", 1, ["a"]))[:0], k=2)


def test_vocabulary_size_below_one_rejected():
    train = as_stream(doc("d1", 1, ["a"]))
    with pytest.raises(ValueError, match="vocabulary size k must be >= 1"):
        fit_extractor(train, k=0)


def test_transform_schema_mismatch():
    model = worked_extractor()
    other = RawSample(id="q", timestamp=1, label=0,
                      attributes={"permissions": ["a"]})
    with pytest.raises(SchemaMismatch):
        model.transform_many(as_stream(other))


# ---------------------------------------------------------------------------
# schema
# ---------------------------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(st.data())
def test_any_stream_slice_fits_the_stream_schema(data):
    """Samples whose attribute dicts come in shuffled orders all leave
    ``stream_from_samples`` in schema order, so an extractor fitted on any
    non-empty slice of the stream has the stream's schema."""
    names = data.draw(st.lists(st.sampled_from(["api", "perm", "url", "x"]),
                               min_size=1, max_size=4, unique=True))
    tokens = st.lists(st.sampled_from(["a", "b", "c"]), max_size=3)
    samples = [
        RawSample(id=f"s{i}", timestamp=data.draw(st.integers(0, 5)), label=0,
                  attributes={name: data.draw(tokens)
                              for name in data.draw(st.permutations(names))})
        for i in range(data.draw(st.integers(1, 8)))]
    stream = stream_from_samples(samples)
    for sample in stream:
        assert tuple(sample.attributes) == stream.schema.attribute_names
    lo = data.draw(st.integers(0, len(stream) - 1))
    hi = data.draw(st.integers(lo + 1, len(stream)))
    assert fit_extractor(stream[lo:hi], k=2).schema == stream.schema


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_json_roundtrip_preserves_transforms(tmp_path):
    rng = np.random.default_rng(3)
    stream = random_corpus(rng, n_docs=30, n_attrs=2, pool_size=20, max_len=8)
    model = fit_extractor(stream, k=7)
    path = tmp_path / "extractor.json"
    model.save(path)
    loaded = FeatureExtractorModel.load(path)
    assert loaded.fingerprint() == model.fingerprint()
    # the loaded model maps this stream's token ids by their text
    np.testing.assert_array_equal(loaded.transform_many(stream),
                                  model.transform_many(stream))


def test_serialization_is_byte_stable(tmp_path):
    model = worked_extractor()
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    model.save(a)
    FeatureExtractorModel.load(a).save(b)
    assert a.read_bytes() == b.read_bytes()


def _with_attribute(**changes):
    vocab = worked_extractor().to_dict()["attributes"][0]
    return {"attributes": [{**vocab, **changes}]}


# each of these but k-bool used to load: k and n_train_docs through
# int(...), a string as its list of characters, a number as a token or a
# name, min-max values through float(...)
COERCED_FIELDS = {
    "k-fraction": {"k": 2.7},
    "k-integral-float": {"k": 2.0},
    "k-string": {"k": "2"},
    "k-bool": {"k": True},
    "n-train-docs-fraction": _with_attribute(n_train_docs=2.9),
    "n-train-docs-string": _with_attribute(n_train_docs="2"),
    "token-number": _with_attribute(tokens=["a", 17]),
    "schema-name-number": {"schema": [5], **_with_attribute(name=5)},
    "schema-string": {"schema": "a", **_with_attribute(name="a")},
    "tokens-string": _with_attribute(tokens="ab"),
    "minmax-bool": {"minmax_max": [True, 1.0]},
    "minmax-string": {"minmax_max": ["0.5", 1.0]},
}


@pytest.mark.parametrize("changes", COERCED_FIELDS.values(),
                         ids=COERCED_FIELDS)
def test_load_rejects_values_it_would_coerce(tmp_path, changes):
    path = tmp_path / "extractor.json"
    path.write_text(json.dumps({**worked_extractor().to_dict(), **changes}))
    with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: not an "
                                         "extractor model \\(expected an "):
        FeatureExtractorModel.load(path)


def test_fingerprint_distinguishes_models():
    m1 = worked_extractor()
    train2 = stream_from_samples([doc("d1", 1, ["a", "c", "c"]),
                                  doc("d2", 2, ["b"])])
    m2 = fit_extractor(train2, k=2)
    assert m1.fingerprint() != m2.fingerprint()
    assert len(m1.fingerprint()) == 64


# ---------------------------------------------------------------------------
# vocabulary diff
# ---------------------------------------------------------------------------

def test_vocabulary_diff_partitions_tokens():
    before = worked_extractor()
    train2 = stream_from_samples([doc("d1", 1, ["b", "b", "x"]),
                                  doc("d2", 2, ["x", "b"])])
    after = fit_extractor(train2, k=2)
    diffs = vocabulary_diff(before, after)
    assert len(diffs) == 1
    d = diffs[0]
    assert d.attribute_name == "api_calls"
    assert d.added == frozenset({"x"})
    assert d.removed == frozenset({"a"})
    assert d.retained == frozenset({"b"})
    assert d.to_dict() == {"attribute": "api_calls", "added": ["x"],
                           "removed": ["a"], "retained": ["b"]}


def test_vocabulary_diff_requires_same_schema():
    m1 = worked_extractor()
    other = stream_from_samples([
        RawSample(id="a", timestamp=1, label=0, attributes={"z": ["t"]})])
    m2 = fit_extractor(other, k=2)
    with pytest.raises(SchemaMismatch):
        vocabulary_diff(m1, m2)
