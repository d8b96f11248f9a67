"""Experiment strategies: prequential loop, baselines, pool, warmup sweep."""

import bisect
import calendar
import hashlib
import itertools
import json
import time
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from driftstream import (CLASSIFIERS, DETECTORS, AdwinDetector, ArfEnsemble,
                         ClassMissingInFold, ConfigError, ConfusionCounts,
                         DdmDetector, DriftLevel, EddmDetector,
                         ExperimentConfig, FnFPipeline, InsufficientData,
                         InsufficientTimeSpan, KswinDetector,
                         ModelPoolPipeline, NeverFiresDetector, RawSample,
                         SgdClassifier, SynthStreamSpec, UnlabeledSample,
                         WarmupTooSmall, fit_extractor, generate_synth_stream,
                         metrics, parse_duration, resolve_warmup_count,
                         run_cross_validation, run_iwc,
                         run_multiple_time_spans, run_temporal_split,
                         stream_from_samples)
from driftstream import drift, features, learners
from driftstream.cli import main as cli_main
from driftstream.pipeline import (_chunk_sizes, build_classifier,
                                  build_detector)

from .oracles import (ReferenceTokenIndexer, reference_fnf_run,
                      reference_pool_run)


def synth(n=600, drift=(), seed=0, **kw):
    return generate_synth_stream(SynthStreamSpec(
        n_samples=n, drift_points=tuple(drift), seed=seed, **kw))


BASE = dict(strategy="fnf-update", detector="none", classifier="sgd",
            warmup=100, seed=0, metrics_window=100)
FIELD_NAMES = {spec.name for spec in fields(ExperimentConfig)}


def config(**overrides):
    return ExperimentConfig(**{**BASE, **overrides})


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


def _stream_at(timestamps):
    return stream_from_samples(
        RawSample(f"s{i:03d}", ts, i % 2, {"api": [f"t{i % 3}"]})
        for i, ts in enumerate(timestamps))


@st.composite
def warmup_case(draw):
    """Sorted timestamps with ties, and a duration in seconds that often
    lands exactly on one of them."""
    gaps = draw(st.lists(st.integers(0, 4), min_size=1, max_size=40))
    timestamps = list(itertools.accumulate(gaps, initial=draw(
        st.integers(0, 10**6))))
    on_a_sample = [ts - timestamps[0] for ts in timestamps
                   if ts > timestamps[0]]
    seconds = draw(st.sampled_from(on_a_sample) if on_a_sample and draw(
        st.booleans()) else st.integers(1, 200))
    return timestamps, seconds


@settings(max_examples=200, deadline=None)
@given(warmup_case())
def test_duration_warmup_counts_samples_before_the_cutoff(case):
    timestamps, seconds = case
    stream = _stream_at(timestamps)
    cutoff = stream[0].timestamp + seconds
    count = 0
    for sample in stream:  # the linear count bisection replaced
        if sample.timestamp >= cutoff:
            break
        count += 1
    assert resolve_warmup_count(stream, f"{seconds}s") == count


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"strategy": "temporal", "typo_key": 1})


@pytest.mark.parametrize("field,value", [
    ("strategy", "bagging"), ("detector", "page-hinkley"),
    ("classifier", "svm"), ("classifier", "hoeffding"),
    ("cv_folds", 1), ("mts_folds", 1), ("split_fraction", 1.0),
    ("split_fraction", 0.0), ("split_fraction", -0.1),
    ("split_fraction", 1.5),
    ("pool_interval", 0), ("vocab_size", 0),
    ("warmup", 0), ("warmup", "yesterday"), ("warmup", "infd"),
    ("warmup", "1e400d"), ("mts_inner", "temporal"),
    ("metrics_window", 0), ("arf_trees", 0),
    # values of the wrong type
    ("warmup", True), ("vocab_size", "100"), ("vocab_size", True),
    ("metrics_window", None), ("seed", 1.5),
    # np.random.SeedSequence rejects a negative seed only once a run starts
    ("seed", -1),
    # detector, classifier, pool and reporting knobs that are no longer
    # config fields: the algorithms run at their published defaults, and a
    # config that still names one is rejected as naming an unknown key
    ("pool_tau_low", 0.9), ("fading", 0.0), ("fading", 1.5),
    ("adwin_delta", 0.0), ("adwin_delta", 1.0), ("adwin_max_buckets", 1),
    ("kswin_stat_size", 0),
    ("kswin_stat_size", 100), ("kswin_window", 30),
    ("kswin_alpha", 0.0), ("kswin_alpha", 1.0),
    ("kswin_sampled", "no"), ("kswin_sampled", 1),
    ("adwin_delta", "0.01"), ("adwin_max_buckets", 5.0),
    ("hoeffding_delta", 0.0), ("hoeffding_delta", 2.0), ("arf_lambda", -1.0),
    ("arf_lambda", 0), ("sgd_learning_rate", 0.0),
    ("sgd_learning_rate", float("nan")),
    ("sgd_l2", float("inf")), ("hoeffding_tie", float("-inf")),
    ("sgd_l2", -1.0), ("sgd_l2", 100.0), ("sgd_l2", 200.0),
    ("hoeffding_grace", 0), ("hoeffding_grace", -5),
    ("hoeffding_tie", -1.0),
])
def test_config_validation_catches_bad_values(field, value):
    with pytest.raises(ConfigError) as caught:
        ExperimentConfig.from_dict({**BASE, field: value})
    if field not in FIELD_NAMES:
        assert "unknown config keys" in str(caught.value)
    else:  # replace is how run_multiple_time_spans builds its inner configs
        with pytest.raises(ConfigError) as replaced:
            replace(config(), **{field: value})
        assert str(replaced.value) == str(caught.value)


def test_config_is_frozen():
    cfg = config()
    with pytest.raises(FrozenInstanceError):
        cfg.seed = -1


@pytest.mark.parametrize("field,value", [
    ("split_fraction", np.float64(0.25)), ("vocab_size", np.int32(5)),
    ("mts_inner", "pool"), ("warmup", 10), ("warmup", "30d"),
    ("cv_folds", np.uint8(3)),
    ("seed", np.int64(3)), ("warmup", np.int64(10)), ("seed", 2**64),
])
def test_config_validation_accepts_right_types(field, value):
    ExperimentConfig.from_dict({field: value})


# each detector's published defaults, which every run uses: the upper-case
# ones are module constants of ``drift``, the others are held by the
# detector; the golden runs build neither EDDM nor the stub, so this is
# their only pin
PUBLISHED_DETECTORS = {
    "ddm": (DdmDetector, dict(DDM_MIN_INSTANCES=30, DDM_WARNING_FACTOR=2.0,
                              DDM_DRIFT_FACTOR=3.0)),
    "eddm": (EddmDetector, dict(EDDM_MIN_ERRORS=30, EDDM_WARNING_RATIO=0.95,
                                EDDM_DRIFT_RATIO=0.90)),
    "adwin": (AdwinDetector, dict(delta=0.002, max_buckets=5)),
    "kswin": (KswinDetector, dict(window_size=100, stat_size=30,
                                  KSWIN_ALPHA=0.005)),
    "none": (NeverFiresDetector, {}),
}


@pytest.mark.parametrize("name", DETECTORS)
def test_build_detector_uses_published_defaults(name):
    cls, params = PUBLISHED_DETECTORS[name]
    detector = build_detector(config(detector=name))
    assert type(detector) is cls
    assert {key: getattr(drift if key.isupper() else detector, key)
            for key in params} == params


def test_build_classifier_uses_published_defaults():
    sgd = build_classifier(config(classifier="sgd"), 8, seed=1)
    assert type(sgd) is SgdClassifier
    assert (learners.SGD_LEARNING_RATE, learners.SGD_L2) == (0.01, 1e-4)
    arf = build_classifier(config(classifier="arf", arf_trees=3), 8, seed=1)
    assert type(arf) is ArfEnsemble
    assert (arf.n_trees, learners.ARF_POISSON_LAMBDA) == (3, 6.0)
    assert (learners.HOEFFDING_GRACE_PERIOD,
            learners.HOEFFDING_SPLIT_CONFIDENCE,
            learners.HOEFFDING_TIE_THRESHOLD) == (200, 1e-7, 0.05)


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

    def partial_fit(self, x, y):
        self.log.append(("fit", tuple(np.round(x, 12))))
        self.inner.partial_fit(x, y)

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

@pytest.mark.parametrize("strategy", ["fnf-update", "fnf-retrain"])
@pytest.mark.parametrize("detector", ["ddm", "eddm", "adwin", "kswin"])
def test_drift_event_accounting_invariant(detector, strategy):
    # every detector fires on this stream; eddm under fnf-update also
    # drifts with an empty warning buffer, which rebuilds nothing
    stream = synth(n=1500, drift=(700,), kind="vocabulary-shift", seed=3)
    pipe = FnFPipeline(config(strategy=strategy, detector=detector))
    timeline = pipe.run(stream)
    assert timeline.drift_count() >= 1
    assert timeline.drift_count() == pipe.rebuild_count + pipe.degenerate_drifts
    steps = [e.step for e in timeline.events]
    assert steps == sorted(set(steps))
    assert all(e.detector == detector for e in timeline.events)


def _run_record(pipe, stream):
    timeline = pipe.run(stream)
    return timeline.predictions, timeline.events, timeline.summary()


def test_fnf_rerun_on_one_pipeline_starts_afresh():
    stream = synth(n=600, drift=(300,), kind="vocabulary-shift", seed=1)
    pipe = FnFPipeline(config(strategy="fnf-retrain", detector="adwin"))

    def counters():
        return (pipe.rebuild_count, pipe.degenerate_drifts,
                pipe.extractor.fingerprint(), list(pipe.vocab_diff_events))

    first = _run_record(pipe, stream)
    first_counters = counters()
    assert first_counters[0] == 3 and len(first_counters[3]) == 3
    assert _run_record(pipe, stream) == first
    assert counters() == first_counters


def test_pool_rerun_on_one_pipeline_starts_afresh():
    stream = synth(n=600, drift=(300,), kind="vocabulary-shift", seed=1)
    pipe = ModelPoolPipeline(config(strategy="pool"))
    first = _run_record(pipe, stream)

    def state():
        return (pipe.aging_events, list(pipe.weights),
                pipe.members.weights.tobytes())

    first_state = state()
    assert first_state[0] == 1
    assert _run_record(pipe, stream) == first
    assert state() == first_state


def test_update_keeps_extractor_retrain_replaces_it():
    stream = synth(n=1500, drift=(700,), kind="vocabulary-shift", seed=3)
    upd_pipe = FnFPipeline(config(strategy="fnf-update", detector="adwin"))
    upd_pipe.run(stream)
    warm_fingerprint = fit_extractor(stream[:100],
                                     upd_pipe.config.vocab_size).fingerprint()
    assert upd_pipe.extractor.fingerprint() == warm_fingerprint
    assert upd_pipe.vocab_diff_events == []
    assert upd_pipe.rebuild_count >= 1

    ret_pipe = FnFPipeline(config(strategy="fnf-retrain", detector="adwin"))
    ret_pipe.run(stream)
    assert ret_pipe.rebuild_count >= 1
    assert ret_pipe.extractor.fingerprint() != warm_fingerprint
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
                       detector_factory=lambda c: ScriptedDetector(
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
                       detector_factory=lambda c: ScriptedDetector(script))
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
    pipe = FnFPipeline(cfg, detector_factory=lambda c: ScriptedDetector(
        {3: DriftLevel.DRIFT}))
    timeline = pipe.run(stream)
    # drift with no preceding warning: nothing buffered for ddm
    assert pipe.degenerate_drifts == 1
    assert pipe.rebuild_count == 0
    assert pipe.vocab_diff_events == []
    assert pipe.extractor.fingerprint() == fit_extractor(
        stream[:100], cfg.vocab_size).fingerprint()
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


@st.composite
def month_straddling_timestamps(draw):
    """Timestamps within 40 days of a UTC month start, many within
    seconds of it; none is negative, since the earliest start is 1971."""
    year = draw(st.integers(1971, 2100))
    month = draw(st.integers(1, 12))
    start = calendar.timegm((year, month, 1, 0, 0, 0))
    near = st.integers(-3, 3) | st.integers(-86400, 86400)
    offsets = draw(st.lists(near | st.integers(-40 * 86400, 40 * 86400),
                            min_size=2, max_size=30))
    return [start + offset for offset in offsets]


@settings(max_examples=60, deadline=None)
@given(month_straddling_timestamps())
def test_iwc_periods_match_a_per_sample_month_walk(timestamps):
    stream = _stream_at(timestamps)
    labels, counts = [], []
    for sample in stream:
        year, month = time.gmtime(sample.timestamp)[:2]
        label = f"{year:04d}-{month:02d}"
        if not labels or labels[-1] != label:
            labels.append(label)
            counts.append(0)
        counts[-1] += 1
    if len(labels) < 2:
        with pytest.raises(InsufficientTimeSpan):
            run_iwc(stream, config(strategy="iwc"))
        return
    timeline = run_iwc(stream, config(strategy="iwc"))
    assert [p.label for p in timeline.periods] == labels[1:]
    assert [p.counts.total for p in timeline.periods] == counts[1:]


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
    summary, counts = run_temporal_split(
        stream, config(strategy="temporal", split_fraction=0.5))
    assert counts.total == 401 - 200
    assert summary == {**metrics(counts), "drifts": 0}


def test_temporal_split_needs_data():
    stream = synth(n=1)
    with pytest.raises(InsufficientData):
        run_temporal_split(stream, config(strategy="temporal"))
    # 10 % of 5 samples rounds down to an empty training side
    with pytest.raises(InsufficientData, match="leaves an empty side"):
        run_temporal_split(synth(n=5), config(strategy="temporal",
                                              split_fraction=0.1))


def separable_stream(n_each=30):
    samples = []
    for i in range(n_each):
        samples.append(RawSample(id=f"g{i:03d}", timestamp=i, label=0,
                                 attributes={"a": ["good", f"g{i % 5}"]}))
        samples.append(RawSample(id=f"m{i:03d}", timestamp=1000 + i, label=1,
                                 attributes={"a": ["mal", f"g{i % 5}"]}))
    return stream_from_samples(samples)


def test_cross_validation_perfect_on_separable_tokens():
    summary, _ = run_cross_validation(
        separable_stream(), config(strategy="cross-val", cv_folds=5))
    assert summary["f1"] == 1.0
    assert summary["accuracy"] == 1.0


def test_cross_validation_mean_matches_per_fold_recomputation():
    stream = synth(n=300)
    summary, per_fold = run_cross_validation(
        stream, config(strategy="cross-val", cv_folds=4))
    assert len(per_fold) == 4
    assert sum(c.total for c in per_fold) == 300
    assert set(summary) == {"accuracy", "f1", "recall", "precision", "drifts"}
    assert summary["drifts"] == 0
    for name in ("accuracy", "f1", "recall", "precision"):
        recomputed = np.mean([metrics(c)[name] for c in per_fold])
        assert summary[name] == pytest.approx(recomputed)


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


def encode_rows(samples):
    """``distinct_token_ids`` of ``samples``, split into one list per row."""
    ids, ends = samples.distinct_token_ids()
    assert ids.dtype == np.intp and ids.ndim == 1 and len(ends) == len(samples)
    return [ids[lo:hi].tolist() for lo, hi in zip([0, *ends[:-1]], ends)]


def five_token_stream():
    """Six samples over five (attribute, token) pairs, with repeats and
    empty lists."""
    rows = [dict(api=["z", "y", "z"], perm=["y", "x"]),
            dict(api=["w", "z"], perm=["x", "x"]),
            dict(api=["y"], perm=[]), dict(api=[], perm=["y"]),
            dict(api=[], perm=[]), dict(api=["z", "y", "z"], perm=["y", "x"])]
    return stream_from_samples(RawSample(f"s{i}", i, 0, attributes)
                               for i, attributes in enumerate(rows))


def test_encode_returns_sorted_distinct_first_seen_ids():
    stream = five_token_stream()
    first, *rest = encode_rows(stream)
    assert first == [0, 1, 2, 3]
    # ids in first-seen order: api z, api y, perm y, perm x, then api w
    assert rest == [[0, 3, 4], [1], [2], [], [0, 1, 2, 3]]
    assert len(stream.tokens) == 5


@pytest.mark.parametrize("table", [2**29, 2**30, 2**31, 2**32 + 1])
def test_encode_keys_fit_any_table_size(table):
    """The keys widen from int32 to ``np.intp`` once ``n << shift`` reaches
    ``2**31``: with a stand-in token table of ``table`` entries (the
    encoder reads only its length), six rows and their one-row views encode
    as with the stream's own five-token table.  Int32 keys would overflow
    from row 4 (shift 29), row 2 (shift 30) or row 1 (shift 31 and 33)."""
    stream = five_token_stream()
    wide = stream[:]
    wide.tokens = range(table)
    assert encode_rows(wide) == encode_rows(stream)
    assert ([encode_rows(wide[i:i + 1]) for i in range(len(stream))]
            == [encode_rows(stream[i:i + 1]) for i in range(len(stream))])


@st.composite
def encoder_case(draw):
    """(samples, chunk) over 1-4 attributes drawing on one shared token
    pool, so token lists repeat tokens, may be empty and hold tokens that
    other attributes hold too.  Tokens no other sample holds are first seen
    in the last sample of the first chunk and at drawn steps.  Two thirds
    of the streams are padded to a table of 2**k or 2**k + 1 entries."""
    names = [f"a{j}" for j in range(draw(st.integers(1, 4)))]
    n = draw(st.sampled_from([1, 2, 63, 64, 65, 129]))
    chunk = draw(st.integers(1, n))
    tokens = st.lists(st.sampled_from([f"t{i}" for i in range(8)]),
                      max_size=4)
    rows = [{name: draw(tokens) for name in names} for _ in range(n)]
    for step in [chunk - 1, *draw(st.lists(st.integers(0, n - 1),
                                           max_size=3))]:
        rows[step][draw(st.sampled_from(names))].append(f"new{step}")
    # tokens padded in at drawn places so that the table holds 2**k or
    # 2**k + 1 (attribute, token) pairs: its largest id is then 2**k - 1,
    # the largest that ``shift`` bits hold, or 2**k, which needs one more
    pad = draw(st.sampled_from([None, 0, 1]))
    if pad is not None:
        size = len({(name, token) for row in rows
                    for name, tokens in row.items() for token in tokens})
        table = (1 << max(size - 1 - pad, 0).bit_length()) + pad
        for i in range(table - size):
            rows[draw(st.integers(0, n - 1))][
                draw(st.sampled_from(names))].append(f"pad{i}")
    return [RawSample(f"s{i:03d}", i, 0, attributes)
            for i, attributes in enumerate(rows)], chunk


@settings(max_examples=60, deadline=None)
@given(encoder_case())
def test_encoder_matches_reference_indexer(case):
    """Chunks encoded in turn give the ids that one indexer gives the
    whole stream, as the pool encodes it."""
    samples, chunk = case
    stream = stream_from_samples(samples)
    reference = ReferenceTokenIndexer()
    encoded = [row for lo in range(0, len(stream), chunk)
               for row in encode_rows(stream[lo:lo + chunk])]
    assert encoded == [reference.encode(sample) for sample in samples]
    assert len(stream.tokens) == len(reference)


@st.composite
def pool_case(draw):
    """(stream, pool_interval) over 1-4 attributes sharing one token pool.

    Token lists repeat tokens and may be empty.  They hold 0-6 tokens of
    10, or 0-200 of 400, so that a sample may hold more than 128 distinct
    ids.  The first two samples carry both labels, so any warmup of two or
    more holds both classes; an interval of up to 20 often leaves a
    partial last interval.
    """
    names = [f"a{j}" for j in range(draw(st.integers(1, 4)))]
    pool, longest = draw(st.sampled_from([(10, 6), (400, 200)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(4, 60))
    labels = [0, 1] + draw(st.lists(st.integers(0, 1), min_size=n - 2,
                                    max_size=n - 2))
    samples = [RawSample(f"s{i:03d}", i, label,
                         {name: [f"t{t}" for t in rng.integers(
                             pool, size=rng.integers(longest + 1))]
                          for name in names})
               for i, label in enumerate(labels)]
    return stream_from_samples(samples), draw(st.integers(1, 20))


@settings(max_examples=60, deadline=None)
@given(pool_case(), st.integers(2, 10))
def test_pool_run_is_bit_identical_to_reference(case, warmup):
    stream, interval = case
    cfg = config(strategy="pool", warmup=warmup, pool_interval=interval)
    pipe = ModelPoolPipeline(cfg)
    if warmup >= len(stream):
        with pytest.raises(InsufficientData, match="warmup covers all"):
            pipe.run(stream)
        return
    timeline = pipe.run(stream)
    predictions, event_steps, members, weights = reference_pool_run(
        list(stream)[:warmup], list(stream)[warmup:], interval, 0.3, 0.7)
    assert timeline.predictions == predictions
    assert [(e.step, e.detector, e.level) for e in timeline.events] == [
        (step, "pool", "drift") for step in event_steps]
    assert pipe.weights == weights
    pool = pipe.members
    assert pool.kinds == tuple(reference.kind for reference in members)
    for m, reference in enumerate(members):
        size = pool.sizes[m]
        assert pool.weights[m, :size].tobytes() == reference.weights.tobytes()
        assert not pool.weights[m, size:].any()
        assert pool.biases[m] == reference.bias


def test_pool_run_ignores_the_key_order_of_sample_attributes():
    """The encoder looks each sample's token lists up in schema order;
    ``stream_from_samples`` puts every sample's attributes in that order."""
    samples = list(synth(n=600, drift=(300,), kind="vocabulary-shift",
                         n_attributes=3, seed=1))
    # every key order in turn; the first sample, which the schema is taken
    # from, keeps schema order
    orders = list(itertools.permutations(samples[0].attributes))
    shuffled = [RawSample(s.id, s.timestamp, s.label,
                          {name: s.attributes[name]
                           for name in orders[i % len(orders)]})
                for i, s in enumerate(samples)]

    def outcome(stream):
        pipe = ModelPoolPipeline(config(strategy="pool", pool_interval=25))
        timeline = pipe.run(stream)
        return (timeline.predictions, timeline.events, pipe.weights,
                pipe.members.weights.tobytes(), list(pipe.members.biases))

    assert outcome(stream_from_samples(shuffled)) == outcome(
        stream_from_samples(samples))


# ---------------------------------------------------------------------------
# the drift-reaction loop against its one-sample-at-a-time reference
# ---------------------------------------------------------------------------

@st.composite
def fnf_case(draw):
    """(stream, warmup count, vocab size): 120-400 samples over 1-3
    attributes with up to three vocabulary shifts, and one to three label
    flips at drawn steps at least 60 samples past the warmup.  A flip
    inverts every later label until the next one, so a classifier that
    has learned the stream errs at once and the detectors fire on short
    streams."""
    warmup = draw(st.integers(20, 100))
    n = draw(st.integers(warmup + 100, 400))
    shifts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=3)))
    flips = sorted(draw(st.sets(st.integers(warmup + 60, n - 1),
                                min_size=1, max_size=3)))
    stream = synth(n=n, drift=shifts, kind="vocabulary-shift",
                   seed=draw(st.integers(0, 2**16)),
                   n_attributes=draw(st.integers(1, 3)),
                   tokens_mean=draw(st.sampled_from([2.0, 4.0, 8.0])))
    samples = [RawSample(s.id, s.timestamp,
                         s.label ^ (bisect.bisect(flips, i) % 2),
                         s.attributes)
               for i, s in enumerate(stream)]
    return (stream_from_samples(samples), warmup,
            draw(st.sampled_from([5, 20, 60])))


@settings(max_examples=150, deadline=None)
@given(fnf_case(), st.sampled_from(["static", "fnf-update", "fnf-retrain"]),
       st.sampled_from(["ddm", "eddm", "adwin", "kswin"]))
def test_fnf_run_matches_reference_loop(case, strategy, detector):
    stream, warmup, k = case
    samples = list(stream)
    assume({s.label for s in samples[:warmup]} == {0, 1})
    pipe = FnFPipeline(config(strategy=strategy, detector=detector,
                              warmup=warmup, vocab_size=k))
    timeline = pipe.run(stream)
    predictions, events, diffs, final = reference_fnf_run(
        samples[:warmup], samples[warmup:], strategy, detector, k)
    assert timeline.predictions == predictions
    assert [(e.step, e.detector, e.level) for e in timeline.events] == [
        (step, detector, level) for step, level in events]
    assert [(step, [d.to_dict() for d in diff])
            for step, diff in pipe.vocab_diff_events] == diffs
    assert pipe.extractor.to_dict() == final


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
    summary, report = run_multiple_time_spans(stream, cfg)
    folds = report["folds"]
    assert [f["warmup_size"] for f in folds] == list(range(20, 201, 20))
    assert [f["iteration"] for f in folds] == list(range(1, 11))
    f1s = [f["f1"] for f in folds]
    assert report["f1_mean"] == pytest.approx(np.mean(f1s))
    assert report["f1_std"] == pytest.approx(np.std(f1s))
    assert summary["f1"] == pytest.approx(np.mean(f1s))
    assert summary["drifts"] == sum(f["drifts"] for f in folds)


def test_mts_with_pool_inner():
    stream = synth(n=220, seed=6)
    cfg = config(strategy="mts", mts_folds=4, mts_inner="pool",
                 pool_interval=25)
    summary, report = run_multiple_time_spans(stream, cfg)
    assert len(report["folds"]) == 3
    for fold in report["folds"]:
        assert set(fold) == {"iteration", "warmup_size", "accuracy", "f1",
                             "recall", "precision", "drifts"}
    assert set(summary) == {"accuracy", "f1", "recall", "precision",
                            "drifts"}


def test_mts_needs_enough_samples():
    stream = synth(n=5)
    with pytest.raises(InsufficientData):
        run_multiple_time_spans(stream, config(strategy="mts", mts_folds=11))
