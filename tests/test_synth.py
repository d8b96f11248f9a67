"""Synthetic stream generator: determinism, shape and drift semantics."""

import numpy as np
import pytest

from driftstream import (InvalidSpec, SynthStreamSpec, fit_extractor,
                         generate_synth_stream)


def spec(**overrides):
    base = dict(n_samples=400, seed=0)
    base.update(overrides)
    return SynthStreamSpec(**base)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_spec_validation():
    with pytest.raises(InvalidSpec):
        generate_synth_stream(spec(n_samples=0))
    with pytest.raises(InvalidSpec):
        generate_synth_stream(spec(kind="gradual"))
    with pytest.raises(InvalidSpec):
        generate_synth_stream(spec(malware_rate=0.0))
    with pytest.raises(InvalidSpec):
        generate_synth_stream(spec(drift_points=(400,)))
    with pytest.raises(InvalidSpec):
        generate_synth_stream(spec(drift_points=(200, 100)))
    with pytest.raises(InvalidSpec):
        generate_synth_stream(spec(n_attributes=0))


def test_attribute_names_extend_past_builtin_list():
    stream = generate_synth_stream(spec(n_samples=3, n_attributes=9))
    assert stream.schema.attribute_names[-1] == "attr_8"


# ---------------------------------------------------------------------------
# shape and determinism
# ---------------------------------------------------------------------------

def test_stream_shape_and_ordering():
    stream = generate_synth_stream(spec(n_samples=250, n_attributes=3))
    assert len(stream) == 250
    assert stream.schema.attribute_names == ("api_calls", "permissions",
                                             "intents")
    timestamps = [s.timestamp for s in stream]
    assert timestamps == sorted(timestamps)
    assert timestamps[0] == 1230768000
    assert timestamps[1] - timestamps[0] == 1
    assert all(s.label in (0, 1) for s in stream)
    assert all(len(tokens) >= 1 for s in stream
               for tokens in s.attributes.values())


def test_custom_timestamps():
    stream = generate_synth_stream(
        spec(n_samples=5, start_timestamp=1000, step_seconds=3600))
    assert [s.timestamp for s in stream] == [1000, 4600, 8200, 11800, 15400]


def test_same_seed_reproduces_byte_for_byte():
    a = generate_synth_stream(spec(drift_points=(200,)))
    b = generate_synth_stream(spec(drift_points=(200,)))
    assert list(a) == list(b)


def test_different_seed_differs():
    a = generate_synth_stream(spec())
    b = generate_synth_stream(spec(seed=1))
    assert list(a) != list(b)


def test_class_balance_tracks_malware_rate():
    stream = generate_synth_stream(spec(n_samples=4000, malware_rate=0.35))
    rate = np.mean([s.label for s in stream])
    assert abs(rate - 0.35) < 0.03


# ---------------------------------------------------------------------------
# drift semantics
# ---------------------------------------------------------------------------

def malware_tokens(stream, lo, hi):
    out = set()
    for s in stream[lo:hi]:
        if s.label == 1:
            for tokens in s.attributes.values():
                out.update(tokens)
    return out


def test_vocabulary_shift_introduces_unseen_tokens():
    stream = generate_synth_stream(
        spec(n_samples=2000, drift_points=(1000,), kind="vocabulary-shift"))
    before = malware_tokens(stream, 0, 1000)
    after = malware_tokens(stream, 1000, 2000)
    fresh = {t for t in after - before if t.startswith("m")}
    assert fresh, "post-drift malware should carry new concept tokens"
    # pre-drift concept tokens disappear from post-drift malware
    old_concept = {t for t in before if "c0_" in t}
    assert old_concept and not (old_concept & after)


def test_abrupt_drift_stays_inside_known_vocabulary():
    stream = generate_synth_stream(
        spec(n_samples=2000, drift_points=(1000,), kind="abrupt"))
    model = fit_extractor(stream[:1000], k=100)
    vocab_tokens = set()
    for vocab in model.vocabularies:
        vocab_tokens.update(vocab.tokens)
    after = malware_tokens(stream, 1000, 2000)
    oov = after - vocab_tokens
    # the emphasis moves, the token universe does not
    assert len(oov) / max(1, len(after)) < 0.05


def test_goodware_distribution_is_stationary():
    stream = generate_synth_stream(
        spec(n_samples=3000, drift_points=(1500,), kind="vocabulary-shift"))
    before = set()
    after = set()
    for s in stream[:1500]:
        if s.label == 0:
            for tokens in s.attributes.values():
                before.update(tokens)
    for s in stream[1500:]:
        if s.label == 0:
            for tokens in s.attributes.values():
                after.update(tokens)
    assert before == after


def test_mean_tokens_per_attribute_near_spec():
    stream = generate_synth_stream(spec(n_samples=3000, tokens_mean=8.0))
    lengths = [len(tokens) for s in stream for tokens in s.attributes.values()]
    assert abs(np.mean(lengths) - 8.0) < 0.3
