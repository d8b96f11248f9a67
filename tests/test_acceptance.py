"""Acceptance gate: one test per release criterion, one verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines;
each test prints ``[PASS]``/``[FAIL] criterion N: ...`` with the measured
numbers before asserting, so a red run still reports every measurement.
"""

import json
import os
import time

import numpy as np
import pytest

from driftstream import (AdwinDetector, DdmDetector, DriftLevel,
                         ExperimentConfig, FnFPipeline, KswinDetector,
                         MetricsTimeline, SynthStreamSpec, fit_extractor,
                         generate_synth_stream, ks_pvalue, ks_statistic,
                         load_stream, metrics, prequential_error, run_iwc,
                         stream_from_samples)
from driftstream.cli import main as cli_main
from driftstream.evaluation import ConfusionCounts
from driftstream.stream import RawSample
from .oracles import adwin_oracle_run, brute_ks_statistic, naive_fit_transform


def _verdict(criterion: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\n[{status}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# ---------------------------------------------------------------------------
# 1. sliding-window detector vs exhaustive cut-point oracle
# ---------------------------------------------------------------------------

def test_criterion_1_adwin_matches_exhaustive_oracle():
    t0 = time.perf_counter()

    # compression off: decisions AND retained windows must match exactly
    rng = np.random.default_rng(42)
    exact_mismatches = 0
    for trial in range(1000):
        n = int(rng.integers(8, 65))
        if trial % 2 == 0:
            values = rng.random(n)
        else:
            cut = int(rng.integers(2, n - 1))
            values = np.concatenate([rng.uniform(0.0, 0.2, cut),
                                     rng.uniform(0.8, 1.0, n - cut)])
        det = AdwinDetector(delta=0.002, max_buckets=None)
        decisions = [det.update(v) is DriftLevel.DRIFT for v in values]
        want_decisions, want_window = adwin_oracle_run(list(values), 0.002)
        if decisions != want_decisions or det.window_values() != want_window:
            exact_mismatches += 1

    # with 5-bucket compression the change/no-change verdict must agree on
    # at least 99% of streams (wide-margin shifts and pure noise)
    rng = np.random.default_rng(123)
    agree = 0
    for trial in range(1000):
        n = int(rng.integers(48, 65))
        if trial % 2 == 0:
            values = rng.random(n)
        else:
            cut = int(rng.integers(int(0.3 * n), int(0.7 * n) + 1))
            values = np.concatenate([rng.uniform(0.0, 0.05, cut),
                                     rng.uniform(0.95, 1.0, n - cut)])
        det = AdwinDetector(delta=0.002, max_buckets=5)
        fired = any(det.update(v) is DriftLevel.DRIFT for v in values)
        want_decisions, _ = adwin_oracle_run(list(values), 0.002)
        if fired == any(want_decisions):
            agree += 1

    elapsed = time.perf_counter() - t0
    ok = exact_mismatches == 0 and agree >= 990 and elapsed < 30.0
    _verdict("1", ok,
             f"uncompressed exact on {1000 - exact_mismatches}/1000 streams, "
             f"compressed agreement {agree}/1000 (>=990), "
             f"runtime {elapsed:.1f}s (<30s)")


# ---------------------------------------------------------------------------
# 2. KS statistic / p-value correctness and false-alarm control
# ---------------------------------------------------------------------------

def test_criterion_2_ks_primitives():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 201))
        m = int(rng.integers(1, 201))
        a = rng.normal(size=n)
        b = rng.normal(loc=rng.uniform(-1.0, 1.0), size=m)
        if rng.random() < 0.3:
            a = np.round(a, 1)  # heavy ties
            b = np.round(b, 1)
        worst = max(worst, abs(ks_statistic(a, b) - brute_ks_statistic(a, b)))

    ps = [ks_pvalue(d, 80, 90) for d in np.linspace(0.0, 1.0, 41)]
    monotone = all(p1 >= p2 - 1e-12 for p1, p2 in zip(ps, ps[1:]))

    tests = 0
    drifts = 0
    for seed in range(100):
        noise_rng = np.random.default_rng(seed)
        det = KswinDetector()  # window 100, stat 30, alpha 0.005
        for i, value in enumerate(noise_rng.random(1000)):
            level = det.update(value)
            if i >= 99:
                tests += 1
                drifts += level is DriftLevel.DRIFT
    rate = drifts / tests

    ok = worst <= 1e-12 and monotone and rate <= 3 * 0.005
    _verdict("2", ok,
             f"brute-force max deviation {worst:.2e} (<=1e-12), "
             f"p-value monotone={monotone}, stationary false-alarm rate "
             f"{rate:.5f} (<= {3 * 0.005})")


# ---------------------------------------------------------------------------
# 3. prompt detection of an abrupt error-rate shift
# ---------------------------------------------------------------------------

def test_criterion_3_error_rate_shift_detection():
    detectors = {
        "ddm": DdmDetector,
        "adwin": AdwinDetector,
        # binary error bits carry less signal per sample than continuous
        # statistics, so the windowed KS detector gets a wider window here
        "kswin": lambda: KswinDetector(window_size=200, stat_size=100),
    }
    lines = []
    ok = True
    for name, maker in detectors.items():
        for seed in (0, 1, 5):
            rng = np.random.default_rng(seed)
            bits = np.concatenate([
                (rng.random(5000) < 0.05).astype(float),
                (rng.random(5000) < 0.45).astype(float)])
            det = maker()
            false_alarms = 0
            delay = None
            t0 = time.perf_counter()
            for i, bit in enumerate(bits):
                if det.update(bit) is DriftLevel.DRIFT:
                    if i < 5000:
                        false_alarms += 1
                    elif delay is None:
                        delay = i - 5000
            elapsed = time.perf_counter() - t0
            good = (false_alarms <= 1 and delay is not None
                    and delay <= 1000 and elapsed < 10.0)
            ok = ok and good
            lines.append(f"{name}/seed{seed}: delay={delay} "
                         f"fa={false_alarms} {elapsed:.2f}s")
    _verdict("3", ok, "; ".join(lines))


# ---------------------------------------------------------------------------
# 4. retraining the extractor beats refreshing only the classifier
# ---------------------------------------------------------------------------

def test_criterion_4_retrain_beats_update_beats_static():
    def final_f1(strategy, seed):
        stream = generate_synth_stream(SynthStreamSpec(
            n_samples=4000, drift_points=(2000,), kind="vocabulary-shift",
            seed=seed))
        cfg = ExperimentConfig(strategy=strategy, detector="adwin",
                               classifier="sgd", warmup=500, seed=seed,
                               metrics_window=500)
        return FnFPipeline(cfg).run(stream).summary()["f1"]

    seeds = (0, 1, 2)
    static = np.mean([final_f1("static", s) for s in seeds])
    update = np.mean([final_f1("fnf-update", s) for s in seeds])
    retrain = np.mean([final_f1("fnf-retrain", s) for s in seeds])
    ok = retrain >= update + 0.02 and update >= static + 0.02
    _verdict("4", ok,
             f"mean F1 over seeds {seeds}: retrain {retrain:.4f} > "
             f"update {update:.4f} > static {static:.4f} "
             f"(each gap >= 0.02)")


# ---------------------------------------------------------------------------
# 5. monthly-retrain recall collapse and streaming recovery
# ---------------------------------------------------------------------------

def _hourly_two_concept_stream(seed=0):
    return generate_synth_stream(SynthStreamSpec(
        n_samples=4320, drift_points=(2160,), kind="vocabulary-shift",
        step_seconds=3600, seed=seed))  # six months, change on April 1st


def test_criterion_5_recall_collapse_and_recovery():
    stream = _hourly_two_concept_stream()

    iwc_tl = run_iwc(stream, ExperimentConfig(strategy="iwc",
                                              classifier="sgd", seed=0))
    recalls = {p.label: metrics(p.counts)["recall"] for p in iwc_tl.periods}
    pre = np.mean([recalls["2009-02"], recalls["2009-03"]])
    dropped = recalls["2009-04"]
    recovered = max(recalls["2009-05"], recalls["2009-06"])
    iwc_ok = dropped <= pre - 0.20 and recovered >= dropped + 0.20

    cfg = ExperimentConfig(strategy="fnf-retrain", detector="adwin",
                           classifier="sgd", warmup=744, seed=0,
                           metrics_window=200)
    pipe = FnFPipeline(cfg)
    tl = pipe.run(stream)
    drift_steps = [e.step for e in tl.events if e.level == "drift"]
    snaps = tl.window_snapshots()
    window_recall = [metrics(c)["recall"] for _, c in snaps]
    first_drift = drift_steps[0]
    drift_window = next(i for i, (end, _) in enumerate(snaps)
                        if end >= first_drift)
    pre_recall = np.mean(window_recall[:drift_window])
    after = window_recall[drift_window + 1: drift_window + 3]
    fnf_ok = bool(drift_steps) and max(after) >= pre_recall - 0.05

    ok = iwc_ok and fnf_ok
    _verdict("5", ok,
             f"IWC monthly recall {pre:.3f} -> {dropped:.3f} -> "
             f"{recovered:.3f} (drop >= 0.20 then recovery); retrain run "
             f"drift at step {first_drift}, windowed recall back to "
             f"{max(after):.3f} within 2 windows (pre {pre_recall:.3f})")


# ---------------------------------------------------------------------------
# 6. feature extraction vs naive recompute-from-scratch oracle
# ---------------------------------------------------------------------------

def test_criterion_6_tfidf_oracle():
    rng = np.random.default_rng(11)
    worst = 0.0
    for trial in range(100):
        k = (2, 5, 100)[trial % 3]
        n_docs = int(rng.integers(2, 101))
        pool = int(rng.integers(1, 51))
        samples = []
        for i in range(n_docs):
            attrs = {}
            for attr in ("api_calls", "permissions"):
                count = int(rng.integers(0, 13))
                attrs[attr] = [f"t{int(rng.integers(pool))}"
                               for _ in range(count)]
            if all(not v for v in attrs.values()):
                attrs["api_calls"] = ["t0"]
            samples.append(RawSample(id=f"s{i:03d}", timestamp=i, label=0,
                                     attributes=attrs))
        stream = stream_from_samples(samples)
        model = fit_extractor(stream, k=k)
        docs = [dict(s.attributes) for s in stream]
        expected = naive_fit_transform(docs, docs, k)
        for i, want in enumerate(expected):
            got = model.transform_many(stream[i:i + 1])[0]
            worst = max(worst, float(np.max(np.abs(got - np.asarray(want)))))
    ok = worst <= 1e-9
    _verdict("6", ok, f"max deviation from naive oracle {worst:.2e} "
                      f"over 100 corpora (<= 1e-9)")


# ---------------------------------------------------------------------------
# 7. metric identities
# ---------------------------------------------------------------------------

def test_criterion_7_metric_identities():
    rng = np.random.default_rng(3)
    bits = (rng.random(5000) < 0.3).astype(int)
    steps = np.arange(1, bits.size + 1)
    curve = prequential_error(bits, fading=1.0)
    correct = np.cumsum(1 - bits)
    identity = bool(np.array_equal(curve, (steps - correct) / steps))

    tl = MetricsTimeline()
    for _ in range(3000):
        tl.record(int(rng.integers(2)), int(rng.integers(2)))
    pairs = list(zip(tl.predictions, tl.labels))
    rebuilt = ConfusionCounts(tp=pairs.count((1, 1)), fp=pairs.count((1, 0)),
                              tn=pairs.count((0, 0)), fn=pairs.count((0, 1)))
    recomputed = metrics(rebuilt)
    summary = tl.summary()
    summary_ok = all(summary[key] == recomputed[key]
                     for key in ("accuracy", "precision", "recall", "f1"))

    ok = identity and summary_ok
    _verdict("7", ok,
             f"unit-fading error equals 1 - cumulative accuracy at all "
             f"5000 steps: {identity}; summary equals recomputation from "
             f"stored pairs: {summary_ok}")


# ---------------------------------------------------------------------------
# 8. byte-identical reruns
# ---------------------------------------------------------------------------

def test_criterion_8_run_determinism(tmp_path):
    stream_path = tmp_path / "stream.jsonl"
    assert cli_main(["gen", "--n", "1200", "--drift-at", "600",
                     "--seed", "4", "--out", str(stream_path)]) == 0
    args = ["run", "--input", str(stream_path), "--strategy", "fnf-retrain",
            "--detector", "adwin", "--classifier", "arf",
            "--warmup", "200", "--metrics-window", "200", "--seed", "4"]
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert cli_main(args + ["--out", str(out_a)]) == 0
    assert cli_main(args + ["--out", str(out_b)]) == 0
    same_summary = (out_a / "summary.json").read_bytes() == \
        (out_b / "summary.json").read_bytes()
    same_metrics = (out_a / "metrics.csv").read_bytes() == \
        (out_b / "metrics.csv").read_bytes()
    ok = same_summary and same_metrics
    _verdict("8", ok, f"rerun byte-identical: summary.json={same_summary}, "
                      f"metrics.csv={same_metrics}")


# ---------------------------------------------------------------------------
# 9. optional large-scale reproduction on a user-supplied corpus
# ---------------------------------------------------------------------------

def test_criterion_9_optional_large_scale():
    path = os.environ.get("DRIFTSTREAM_DREBIN")
    if not path:
        pytest.skip("set DRIFTSTREAM_DREBIN=/path/to/stream.jsonl (labeled "
                    "attribute-vector stream) to run the large-scale check")
    t0 = time.perf_counter()
    stream = load_stream(path)
    cfg = ExperimentConfig(strategy="fnf-retrain", detector="adwin",
                           classifier="arf", warmup="365d", seed=0)
    timeline = FnFPipeline(cfg).run(stream)
    elapsed = time.perf_counter() - t0
    summary = timeline.summary()
    f1_ok = abs(summary["f1"] - 0.8444) <= 0.03
    drift_ok = 9 <= summary["drifts"] <= 27
    ok = f1_ok and drift_ok
    _verdict("9", ok,
             f"large-scale run: F1 {summary['f1']:.4f} (target 0.8444 "
             f"+/- 0.03), drifts {summary['drifts']} (target 18 +/- 50%), "
             f"runtime {elapsed:.0f}s on {len(stream)} samples")
