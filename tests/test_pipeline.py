"""Experiment strategies: prequential loop, baselines, pool, warmup sweep."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftstream import (CLASSIFIERS, ClassMissingInFold, ConfigError,
                         ConfusionCounts, DriftLevel, ExperimentConfig,
                         FnFPipeline, InsufficientData, InsufficientTimeSpan,
                         ModelPoolPipeline, RawSample, SynthStreamSpec,
                         UnlabeledSample, WarmupTooSmall,
                         generate_synth_stream, metrics, parse_duration,
                         resolve_warmup_count, run_cross_validation, run_iwc,
                         run_multiple_time_spans, run_temporal_split,
                         stream_from_samples)
from driftstream import features
from driftstream.cli import main as cli_main
from driftstream.pipeline import TokenIndexer, _chunk_sizes, build_classifier

from .oracles import reference_pool_run


def synth(n=600, drift=(), seed=0, **kw):
    return generate_synth_stream(SynthStreamSpec(
        n_samples=n, drift_points=tuple(drift), seed=seed, **kw))


def config(**overrides):
    base = dict(strategy="fnf-update", detector="none", classifier="sgd",
                warmup=100, seed=0, metrics_window=100)
    base.update(overrides)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

def test_parse_duration_units():
    assert parse_duration("90s") == 90
    assert parse_duration("12h") == 43200
    assert parse_duration("365d") == 31536000
    assert parse_duration("2w") == 1209600
    assert parse_duration("1y") == 31536000
    assert parse_duration("0.5d") == 43200


@pytest.mark.parametrize("bad", ["", "d", "5x", "-3d", "d5", "3 days",
                                 "infd", "1e400d", "1e305d"])
def test_parse_duration_rejects_garbage(bad):
    with pytest.raises(ConfigError):
        parse_duration(bad)


def test_resolve_warmup_count_by_count_and_duration():
    stream = synth(n=50)
    assert resolve_warmup_count(stream, 10) == 10
    assert resolve_warmup_count(stream, 500) == 50  # clamped
    # timestamps are 1 second apart -> "5s" covers the first five samples
    assert resolve_warmup_count(stream, "5s") == 5


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"strategy": "temporal", "typo_key": 1})


@pytest.mark.parametrize("field,value", [
    ("strategy", "bagging"), ("detector", "page-hinkley"),
    ("classifier", "svm"), ("classifier", "hoeffding"),
    ("cv_folds", 1), ("mts_folds", 1), ("split_fraction", 1.0),
    ("pool_tau_low", 0.9), ("pool_interval", 0), ("vocab_size", 0),
    ("warmup", 0), ("warmup", "yesterday"), ("warmup", "infd"),
    ("warmup", "1e400d"), ("mts_inner", "temporal"),
    ("fading", 0.0), ("fading", 1.5),
    ("metrics_window", 0), ("arf_trees", 0),
    ("adwin_delta", 0.0), ("adwin_delta", 1.0), ("adwin_max_buckets", 1),
    ("kswin_stat_size", 0),
    ("kswin_stat_size", 100), ("kswin_window", 30),
    ("kswin_alpha", 0.0), ("kswin_alpha", 1.0),
    # values of the wrong type
    ("kswin_sampled", "no"), ("kswin_sampled", 1), ("warmup", True),
    ("vocab_size", "100"), ("vocab_size", True),
    ("adwin_delta", "0.01"), ("metrics_window", None), ("seed", 1.5),
    ("adwin_max_buckets", 5.0),
    # classifier knobs that would fail or go constant only mid-run
    ("hoeffding_delta", 0.0), ("hoeffding_delta", 2.0), ("arf_lambda", -1.0),
    ("arf_lambda", 0), ("sgd_learning_rate", 0.0),
    ("sgd_learning_rate", float("nan")),
    # no float field takes a non-finite value
    ("sgd_l2", float("inf")), ("hoeffding_tie", float("-inf")),
    # a negative L2, or learning rate x L2 >= 1 (the default rate is 0.01),
    # flips or blows up the SGD weights; ARF knobs below their floor
    ("sgd_l2", -1.0), ("sgd_l2", 100.0), ("sgd_l2", 200.0),
    ("hoeffding_grace", 0), ("hoeffding_grace", -5),
    ("hoeffding_tie", -1.0),
    # np.random.SeedSequence rejects a negative seed only once a run starts
    ("seed", -1),
])
def test_config_validation_catches_bad_values(field, value):
    with pytest.raises(ConfigError):
        config(**{field: value}).validate()


@pytest.mark.parametrize("field,value", [
    ("adwin_max_buckets", None), ("arf_lambda", 6), ("fading", 1),
    ("warmup", 10), ("warmup", "30d"), ("kswin_sampled", True),
    ("seed", np.int64(3)), ("warmup", np.int64(10)), ("seed", 2**64),
])
def test_config_validation_accepts_right_types(field, value):
    ExperimentConfig.from_dict({field: value}).validate()


def test_fnf_pipeline_rejects_offline_strategy():
    with pytest.raises(ConfigError):
        FnFPipeline(config(strategy="cross-val"))


# ---------------------------------------------------------------------------
# instrumentation helpers
# ---------------------------------------------------------------------------

class RecordingClassifier:
    """Wraps a real classifier and logs every predict/fit call."""

    def __init__(self, inner, log):
        self.inner = inner
        self.log = log

    def predict(self, x):
        self.log.append(("predict", tuple(np.round(x, 12))))
        return self.inner.predict(x)

    def partial_fit(self, x, y, weight=1.0):
        self.log.append(("fit", tuple(np.round(x, 12))))
        self.inner.partial_fit(x, y, weight)

    def clone_untrained(self):
        self.log.append(("clone", ()))
        return RecordingClassifier(self.inner.clone_untrained(), self.log)


def recording_factory(log):
    def factory(cfg, dim, seed):
        return RecordingClassifier(build_classifier(cfg, dim, seed), log)
    return factory


class ScriptedDetector:
    """Replays a script of levels: ``script`` maps a 1-based update call to
    its level; every other call is Normal."""

    def __init__(self, script, stat_size=5):
        self.calls = 0
        self.script = script
        self.stat_size = stat_size  # read by the kswin buffer rule

    def update(self, value):
        self.calls += 1
        return self.script.get(self.calls, DriftLevel.NORMAL)


# ---------------------------------------------------------------------------
# prequential discipline
# ---------------------------------------------------------------------------

def test_every_sample_is_predicted_before_it_trains():
    stream = synth(n=300)
    log = []
    cfg = config(warmup=100)
    FnFPipeline(cfg, classifier_factory=recording_factory(log)).run(stream)
    # warmup: fits only
    assert all(kind == "fit" for kind, _ in log[:100])
    # evaluation: strict predict/fit alternation, 200 evaluated samples
    tail = log[100:]
    assert len(tail) == 400
    for i, (kind, vec) in enumerate(tail):
        assert kind == ("predict" if i % 2 == 0 else "fit")
        if i % 2 == 1:
            assert vec == tail[i - 1][1]  # trains on the predicted vector


def test_static_strategy_never_trains_after_warmup():
    stream = synth(n=300)
    log = []
    cfg = config(strategy="static", warmup=100)
    timeline = FnFPipeline(
        cfg, classifier_factory=recording_factory(log)).run(stream)
    kinds = [kind for kind, _ in log]
    assert kinds.count("fit") == 100
    assert kinds.count("predict") == 200
    assert timeline.n_steps == 200


def test_update_and_retrain_agree_when_no_drift_fires():
    stream = synth(n=500)
    upd = FnFPipeline(config(strategy="fnf-update")).run(stream)
    ret = FnFPipeline(config(strategy="fnf-retrain")).run(stream)
    assert upd.predictions == ret.predictions
    assert upd.events == ret.events == []


def test_unlabeled_sample_rejected():
    samples = [RawSample(id=f"s{i}", timestamp=i, label=(None if i == 5 else i % 2),
                         attributes={"a": ["t"]}) for i in range(10)]
    stream = stream_from_samples(samples)
    with pytest.raises(UnlabeledSample):
        FnFPipeline(config(warmup=4)).run(stream)


def test_single_class_warmup_rejected():
    samples = [RawSample(id=f"s{i}", timestamp=i, label=0 if i < 50 else i % 2,
                         attributes={"a": [f"t{i % 7}"]}) for i in range(100)]
    stream = stream_from_samples(samples)
    with pytest.raises(WarmupTooSmall):
        FnFPipeline(config(warmup=50)).run(stream)


# ---------------------------------------------------------------------------
# drift reactions
# ---------------------------------------------------------------------------

def test_drift_event_accounting_invariant():
    stream = synth(n=1500, drift=(700,), kind="vocabulary-shift", seed=3)
    cfg = config(strategy="fnf-update", detector="adwin")
    pipe = FnFPipeline(cfg)
    timeline = pipe.run(stream)
    assert timeline.drift_count() >= 1
    assert timeline.drift_count() == pipe.rebuild_count + pipe.degenerate_drifts
    steps = [e.step for e in timeline.events]
    assert steps == sorted(set(steps))
    assert all(e.detector == "adwin" for e in timeline.events)


def _run_record(pipe, stream):
    timeline = pipe.run(stream)
    return timeline.predictions, timeline.events, timeline.summary()


def test_fnf_rerun_on_one_pipeline_starts_afresh():
    stream = synth(n=600, drift=(300,), kind="vocabulary-shift", seed=1)
    pipe = FnFPipeline(config(strategy="fnf-retrain", detector="adwin"))

    def counters():
        return (pipe.rebuild_count, pipe.degenerate_drifts,
                list(pipe.extractor_fingerprints),
                list(pipe.vocab_diff_events))

    first = _run_record(pipe, stream)
    first_counters = counters()
    assert first_counters[0] == 3 and len(first_counters[2]) == 4
    assert _run_record(pipe, stream) == first
    assert counters() == first_counters


def test_pool_rerun_on_one_pipeline_starts_afresh():
    stream = synth(n=600, drift=(300,), kind="vocabulary-shift", seed=1)
    pipe = ModelPoolPipeline(config(strategy="pool"))
    first = _run_record(pipe, stream)
    first_state = (pipe.aging_events, list(pipe.weights), len(pipe.indexer))
    assert first_state[0] == 1
    assert _run_record(pipe, stream) == first
    assert (pipe.aging_events, list(pipe.weights),
            len(pipe.indexer)) == first_state


def test_update_keeps_extractor_retrain_replaces_it():
    stream = synth(n=1500, drift=(700,), kind="vocabulary-shift", seed=3)
    upd_pipe = FnFPipeline(config(strategy="fnf-update", detector="adwin"))
    upd_pipe.run(stream)
    assert len(upd_pipe.extractor_fingerprints) == 1
    assert upd_pipe.vocab_diff_events == []
    assert upd_pipe.rebuild_count >= 1

    ret_pipe = FnFPipeline(config(strategy="fnf-retrain", detector="adwin"))
    ret_pipe.run(stream)
    assert ret_pipe.rebuild_count >= 1
    assert len(ret_pipe.extractor_fingerprints) == 1 + ret_pipe.rebuild_count
    assert len(ret_pipe.vocab_diff_events) == ret_pipe.rebuild_count
    step, diffs = ret_pipe.vocab_diff_events[0]
    assert step >= 1
    assert {d.attribute_name for d in diffs} == set(stream.schema.attribute_names)


def test_retrain_vocabulary_absorbs_shifted_tokens():
    stream = synth(n=2000, drift=(1000,), kind="vocabulary-shift", seed=7)
    pipe = FnFPipeline(config(strategy="fnf-retrain", detector="adwin"))
    pipe.run(stream)
    assert pipe.vocab_diff_events, "expected at least one retrain"
    added = set()
    for _, diffs in pipe.vocab_diff_events:
        for d in diffs:
            added |= d.added
    assert any(tok.startswith("m") and "c1_" in tok for tok in added), \
        "retraining should pull post-drift concept tokens into the vocabulary"


def test_kswin_drift_buffer_is_newest_stat_size_samples():
    stream = synth(n=130)
    log = []
    cfg = config(strategy="fnf-update", detector="kswin", warmup=100)
    pipe = FnFPipeline(cfg, classifier_factory=recording_factory(log),
                       detector_factory=lambda c, s: ScriptedDetector(
                           {10: DriftLevel.DRIFT}, stat_size=5))
    pipe.run(stream)
    # call log: 100 warmup fits, 9 x (predict, fit), predict, clone, 5 fits
    tail = log[100:]
    assert [k for k, _ in tail[:19]] == ["predict", "fit"] * 9 + ["predict"]
    assert tail[19][0] == "clone"
    refit = tail[20:25]
    assert [k for k, _ in refit] == ["fit"] * 5
    eval_predicts = [vec for kind, vec in tail if kind == "predict"]
    # buffer = the five samples ending at the drift step (steps 6..10)
    assert [vec for _, vec in refit] == eval_predicts[5:10]
    assert pipe.rebuild_count == 1


def test_ddm_drift_buffer_is_the_open_warning_episode():
    stream = synth(n=130)
    log = []
    cfg = config(strategy="fnf-update", detector="ddm", warmup=100)
    script = {3: DriftLevel.WARNING, 4: DriftLevel.WARNING,
              5: DriftLevel.NORMAL, 7: DriftLevel.WARNING,
              8: DriftLevel.WARNING, 9: DriftLevel.WARNING,
              10: DriftLevel.DRIFT}
    pipe = FnFPipeline(cfg, classifier_factory=recording_factory(log),
                       detector_factory=lambda c, s: ScriptedDetector(script))
    timeline = pipe.run(stream)
    assert [(e.step, e.level) for e in timeline.events] == [
        (3, "warning"), (7, "warning"), (10, "drift")]
    # call log: 100 warmup fits, 9 x (predict, fit), predict, clone, 3 fits
    tail = log[100:]
    assert [k for k, _ in tail[:19]] == ["predict", "fit"] * 9 + ["predict"]
    assert tail[19][0] == "clone"
    refit = tail[20:23]
    assert [k for k, _ in refit] == ["fit"] * 3
    assert tail[23][0] == "predict"
    eval_predicts = [vec for kind, vec in tail if kind == "predict"]
    # the episode fizzled at step 5; the buffer is steps 7..9 alone
    assert [vec for _, vec in refit] == eval_predicts[6:9]
    assert pipe.rebuild_count == 1


def test_empty_drift_buffer_is_degenerate_not_fatal():
    stream = synth(n=130)
    cfg = config(strategy="fnf-retrain", detector="ddm", warmup=100)
    pipe = FnFPipeline(cfg, detector_factory=lambda c, s: ScriptedDetector(
        {3: DriftLevel.DRIFT}))
    timeline = pipe.run(stream)
    # drift with no preceding warning: nothing buffered for ddm
    assert pipe.degenerate_drifts == 1
    assert pipe.rebuild_count == 0
    assert len(pipe.extractor_fingerprints) == 1
    assert timeline.drift_count() == 1
    assert timeline.n_steps == 30


@pytest.mark.parametrize("classifier", CLASSIFIERS)
def test_static_classifier_is_not_a_constant_predictor(classifier):
    """Every selectable classifier, trained once on the warmup, must predict
    both classes and beat the F1 of always predicting the majority class."""
    stream = generate_synth_stream(SynthStreamSpec(
        n_samples=10000, drift_points=(5000,), n_attributes=4,
        tokens_mean=20, seed=0))
    timeline = FnFPipeline(config(strategy="static", classifier=classifier,
                                  warmup=1000)).run(stream)
    labels = timeline.labels
    majority = int(2 * sum(labels) > len(labels))
    baseline = ConfusionCounts.of([majority] * len(labels), labels)
    assert set(timeline.predictions) == {0, 1}
    assert timeline.summary()["f1"] > metrics(baseline)["f1"]


def test_fnf_run_is_deterministic():
    stream = synth(n=800, drift=(400,), seed=5)
    cfg = config(strategy="fnf-retrain", detector="adwin", classifier="arf")
    a = FnFPipeline(cfg).run(stream)
    b = FnFPipeline(cfg).run(stream)
    assert a.predictions == b.predictions
    assert a.events == b.events
    assert a.summary() == b.summary()


@pytest.mark.parametrize("detector", ["adwin", "kswin"])
def test_rebuild_mid_block_does_not_reuse_stale_vectors(detector, tmp_path,
                                                        monkeypatch):
    """Blocks of one sample and of BLOCK_ROWS samples write the same reports,
    with drifts that fall inside a block."""
    monkeypatch.delenv("DRIFTSTREAM_OUT", raising=False)
    stream_file = tmp_path / "stream.jsonl"
    # stream seed 2: rows computed ahead of the drifts change the reports
    # unless they are computed again after the rebuild
    assert cli_main(["gen", "--n", "3000", "--drift-at", "1500",
                     "--seed", "2", "--out", str(stream_file)]) == 0

    def run_digests(out_dir):
        assert cli_main(["run", "--input", str(stream_file),
                         "--out", str(out_dir), "--strategy", "fnf-retrain",
                         "--detector", detector, "--classifier", "sgd",
                         "--warmup", "300", "--metrics-window", "250"]) == 0
        return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                for path in sorted(out_dir.iterdir())}

    blocked = run_digests(tmp_path / "blocked")
    events = [json.loads(line) for line in
              (tmp_path / "blocked" / "events.jsonl").read_text().splitlines()]
    drift_steps = [e["step"] for e in events if e["level"] == "drift"]
    assert any(step % features.BLOCK_ROWS for step in drift_steps)
    monkeypatch.setattr(features, "BLOCK_ROWS", 1)
    assert run_digests(tmp_path / "per_sample") == blocked


# ---------------------------------------------------------------------------
# month-by-month incremental retraining
# ---------------------------------------------------------------------------

def test_iwc_groups_by_calendar_month():
    stream = synth(n=90, step_seconds=86400)  # daily from 2009-01-01
    timeline = run_iwc(stream, config(strategy="iwc"))
    labels = [p.label for p in timeline.periods]
    assert labels == ["2009-02", "2009-03"]
    assert [p.counts.total for p in timeline.periods] == [28, 31]
    assert timeline.n_steps == 59  # first month only trains


def test_iwc_needs_two_months():
    stream = synth(n=20, step_seconds=86400)
    with pytest.raises(InsufficientTimeSpan):
        run_iwc(stream, config(strategy="iwc"))


def test_iwc_is_deterministic():
    stream = synth(n=120, step_seconds=86400, seed=2)
    cfg = config(strategy="iwc")
    assert run_iwc(stream, cfg).summary() == run_iwc(stream, cfg).summary()


# ---------------------------------------------------------------------------
# temporal split and cross-validation
# ---------------------------------------------------------------------------

def test_temporal_split_counts_cover_test_half():
    stream = synth(n=401)
    out = run_temporal_split(stream, config(strategy="temporal",
                                            split_fraction=0.5))
    assert out["counts"].total == 401 - 200
    assert set(out) == {"accuracy", "f1", "recall", "precision", "counts"}


def test_temporal_split_needs_data():
    stream = synth(n=1)
    with pytest.raises(InsufficientData):
        run_temporal_split(stream, config(strategy="temporal"))


def separable_stream(n_each=30):
    samples = []
    for i in range(n_each):
        samples.append(RawSample(id=f"g{i:03d}", timestamp=i, label=0,
                                 attributes={"a": ["good", f"g{i % 5}"]}))
        samples.append(RawSample(id=f"m{i:03d}", timestamp=1000 + i, label=1,
                                 attributes={"a": ["mal", f"g{i % 5}"]}))
    return stream_from_samples(samples)


def test_cross_validation_perfect_on_separable_tokens():
    out = run_cross_validation(separable_stream(),
                               config(strategy="cross-val", cv_folds=5))
    assert out["f1"] == 1.0
    assert out["accuracy"] == 1.0


def test_cross_validation_mean_matches_per_fold_recomputation():
    stream = synth(n=300)
    out = run_cross_validation(stream, config(strategy="cross-val",
                                              cv_folds=4))
    assert len(out["per_fold"]) == 4
    assert sum(c.total for c in out["per_fold"]) == 300
    for name in ("accuracy", "f1", "recall", "precision"):
        recomputed = np.mean([metrics(c)[name] for c in out["per_fold"]])
        assert out[name] == pytest.approx(recomputed)


def test_cross_validation_detects_lost_class():
    samples = [RawSample(id=f"g{i}", timestamp=i, label=0,
                         attributes={"a": ["good"]}) for i in range(10)]
    samples.append(RawSample(id="m0", timestamp=99, label=1,
                             attributes={"a": ["mal"]}))
    stream = stream_from_samples(samples)
    with pytest.raises(ClassMissingInFold):
        run_cross_validation(stream, config(strategy="cross-val",
                                            cv_folds=2))


# ---------------------------------------------------------------------------
# model pool
# ---------------------------------------------------------------------------

def test_pool_ages_members_on_total_agreement():
    stream = synth(n=400, seed=1)
    cfg = config(strategy="pool", warmup=100, pool_interval=50)
    pipe = ModelPoolPipeline(cfg)
    timeline = pipe.run(stream)
    # stationary stream, easy vote: agreement ~1 > tau_high every interval
    assert pipe.aging_events == 6
    assert timeline.drift_count() == 6
    assert all(w >= 0.05 for w in pipe.weights)


def test_pool_tracks_labels_on_stationary_stream():
    stream = synth(n=1200, seed=4)
    timeline = ModelPoolPipeline(config(strategy="pool",
                                        warmup=200)).run(stream)
    assert timeline.summary()["f1"] > 0.7


def test_pool_interval_boundary_events():
    stream = synth(n=130, seed=2)
    cfg = config(strategy="pool", warmup=100, pool_interval=10)
    pipe = ModelPoolPipeline(cfg)
    timeline = pipe.run(stream)
    assert all(e.step % 10 == 0 for e in timeline.events)


def test_encode_returns_sorted_distinct_first_seen_ids():
    indexer = TokenIndexer()

    def encode(**attributes):
        return indexer.encode(RawSample("s", 0, 0, attributes))

    first = encode(api=["z", "y", "z"], perm=["y", "x"])
    assert first.dtype == np.intp and first.ndim == 1
    assert first.tolist() == [0, 1, 2, 3]
    # ids in first-seen order: api z, api y, perm y, perm x, then api w
    assert encode(api=["w", "z"], perm=["x", "x"]).tolist() == [0, 3, 4]
    assert encode(api=["y"], perm=[]).tolist() == [1]
    assert encode(api=[], perm=["y"]).tolist() == [2]
    assert encode(api=[], perm=[]).tolist() == []
    assert encode(api=["z", "y", "z"], perm=["y", "x"]).tolist() == [0, 1, 2, 3]
    assert len(indexer) == 5


@st.composite
def pool_case(draw):
    """(stream, pool_interval) over 1-4 attributes sharing one token pool.

    Token lists repeat tokens and may be empty; the first two samples carry
    both labels, so any warmup of two or more holds both classes.
    """
    names = [f"a{j}" for j in range(draw(st.integers(1, 4)))]
    tokens = st.lists(st.sampled_from([f"t{i}" for i in range(10)]),
                      max_size=6)
    n = draw(st.integers(4, 60))
    labels = [0, 1] + draw(st.lists(st.integers(0, 1), min_size=n - 2,
                                    max_size=n - 2))
    samples = [RawSample(f"s{i:03d}", i, label,
                         {name: draw(tokens) for name in names})
               for i, label in enumerate(labels)]
    return stream_from_samples(samples), draw(st.integers(1, 6))


@settings(max_examples=60, deadline=None)
@given(pool_case(), st.integers(2, 10))
def test_pool_run_is_bit_identical_to_reference(case, warmup):
    stream, interval = case
    cfg = config(strategy="pool", warmup=warmup, pool_interval=interval)
    pipe = ModelPoolPipeline(cfg)
    timeline = pipe.run(stream)
    count = min(warmup, len(stream))
    predictions, event_steps, members, weights = reference_pool_run(
        stream.samples[:count], stream.samples[count:], interval,
        cfg.pool_tau_low, cfg.pool_tau_high)
    assert timeline.predictions == predictions
    assert [(e.step, e.detector, e.level) for e in timeline.events] == [
        (step, "pool", "drift") for step in event_steps]
    assert pipe.weights == weights
    for member, reference in zip(pipe.members, members):
        assert member.kind == reference.kind
        assert member.weights.tobytes() == reference.weights.tobytes()
        assert member.bias == reference.bias


# ---------------------------------------------------------------------------
# growing-warmup sweep
# ---------------------------------------------------------------------------

def test_chunk_sizes_divide_evenly_and_unevenly():
    assert _chunk_sizes(110, 11) == [10] * 11
    assert _chunk_sizes(115, 11) == [11] * 5 + [10] * 6
    assert sum(_chunk_sizes(129013, 11)) == 129013


def test_mts_sweeps_growing_warmups():
    stream = synth(n=220, seed=6)
    cfg = config(strategy="mts", mts_folds=11, mts_inner="fnf-update")
    report = run_multiple_time_spans(stream, cfg)
    assert [f.warmup_size for f in report.folds] == list(range(20, 201, 20))
    assert [f.iteration for f in report.folds] == list(range(1, 11))
    f1s = [f.summary["f1"] for f in report.folds]
    assert report.f1_mean == pytest.approx(np.mean(f1s))
    assert report.f1_std == pytest.approx(np.std(f1s))


def test_mts_with_pool_inner():
    stream = synth(n=220, seed=6)
    cfg = config(strategy="mts", mts_folds=4, mts_inner="pool",
                 pool_interval=25)
    report = run_multiple_time_spans(stream, cfg)
    assert len(report.folds) == 3
    for fold in report.folds:
        assert set(fold.summary) == {"accuracy", "f1", "recall", "precision",
                                     "drifts"}


def test_mts_needs_enough_samples():
    stream = synth(n=5)
    with pytest.raises(InsufficientData):
        run_multiple_time_spans(stream, config(strategy="mts", mts_folds=11))
