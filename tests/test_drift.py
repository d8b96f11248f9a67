"""Drift detectors and the KS primitives behind the windowed detector."""

import math
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from driftstream import (AdwinDetector, DdmDetector, DriftLevel, EddmDetector,
                         EmptyInput, KswinDetector, ValueOutOfRange,
                         ks_pvalue, ks_statistic)
from .oracles import (ReferenceAdwinDetector, adwin_oracle_run,
                      brute_ks_statistic, ddm_oracle_run, eddm_oracle_run)


def run_levels(detector, values):
    return [detector.update(v) for v in values]


# ---------------------------------------------------------------------------
# DDM
# ---------------------------------------------------------------------------

def test_ddm_stays_normal_on_perfect_stream():
    det = DdmDetector()
    levels = run_levels(det, [0.0] * 500)
    assert all(lv is DriftLevel.NORMAL for lv in levels)


def test_ddm_quiet_during_burn_in():
    det = DdmDetector()
    levels = run_levels(det, [1.0] * 29)
    assert all(lv is DriftLevel.NORMAL for lv in levels)


def test_ddm_fires_on_error_rate_jump():
    rng = np.random.default_rng(5)
    bits = np.concatenate([(rng.random(100) < 0.05).astype(float),
                           (rng.random(100) < 0.60).astype(float)])
    det = DdmDetector()
    levels = run_levels(det, bits)
    drift_steps = [i for i, lv in enumerate(levels) if lv is DriftLevel.DRIFT]
    assert drift_steps, "expected a drift somewhere after the jump"
    assert drift_steps[0] >= 100
    warn_steps = [i for i, lv in enumerate(levels) if lv is DriftLevel.WARNING]
    assert warn_steps and warn_steps[0] <= drift_steps[0]


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_ddm_matches_replay_oracle(seed):
    rng = np.random.default_rng(seed)
    p = rng.uniform(0.02, 0.3)
    bits = (rng.random(400) < p).astype(float)
    if seed % 2:
        bits[250:] = (rng.random(150) < min(0.9, p + 0.5)).astype(float)
    det = DdmDetector()
    got = [det.update(b).value for b in bits]
    assert got == ddm_oracle_run(list(bits))


def test_ddm_reset_equals_fresh():
    rng = np.random.default_rng(9)
    bits = (rng.random(200) < 0.2).astype(float)
    det = DdmDetector()
    run_levels(det, bits)
    det.reset()
    fresh = DdmDetector()
    tail = (rng.random(100) < 0.2).astype(float)
    assert run_levels(det, tail) == run_levels(fresh, tail)


# ---------------------------------------------------------------------------
# EDDM
# ---------------------------------------------------------------------------

def test_eddm_constant_spacing_is_normal():
    """Errors every 10th sample: distances never shrink, no signal."""
    bits = ([0.0] * 9 + [1.0]) * 60
    det = EddmDetector()
    levels = run_levels(det, bits)
    assert all(lv is DriftLevel.NORMAL for lv in levels)


def test_eddm_fires_when_errors_bunch_up():
    bits = ([0.0] * 19 + [1.0]) * 40 + [1.0, 0.0] * 150
    det = EddmDetector()
    levels = run_levels(det, bits)
    drift_steps = [i for i, lv in enumerate(levels) if lv is DriftLevel.DRIFT]
    assert drift_steps and drift_steps[0] >= 800


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_eddm_matches_replay_oracle(seed):
    rng = np.random.default_rng(100 + seed)
    bits = (rng.random(600) < 0.1).astype(float)
    if seed % 2:
        bits[400:] = (rng.random(200) < 0.6).astype(float)
    det = EddmDetector()
    got = [det.update(b).value for b in bits]
    assert got == eddm_oracle_run(list(bits))


def test_eddm_level_is_sticky_between_errors():
    """Once in warning, correct predictions alone do not clear the level."""
    bits = ([0.0] * 19 + [1.0]) * 40 + [1.0] * 200
    det = EddmDetector()
    warned = False
    for b in bits:
        if det.update(b) is DriftLevel.WARNING:
            warned = True
            break
    assert warned
    for _ in range(50):
        assert det.update(0.0) is DriftLevel.WARNING


def test_eddm_reset_equals_fresh():
    rng = np.random.default_rng(77)
    bits = (rng.random(300) < 0.15).astype(float)
    det = EddmDetector()
    run_levels(det, bits)
    det.reset()
    fresh = EddmDetector()
    tail = (rng.random(200) < 0.15).astype(float)
    assert run_levels(det, tail) == run_levels(fresh, tail)


# ---------------------------------------------------------------------------
# ADWIN
# ---------------------------------------------------------------------------

def test_adwin_constant_stream_never_cuts():
    det = AdwinDetector()
    levels = run_levels(det, [0.0] * 1000)
    assert all(lv is DriftLevel.NORMAL for lv in levels)
    assert det.width == 1000


def test_adwin_step_change_detected_and_window_purged():
    det = AdwinDetector()
    levels = run_levels(det, [0.0] * 500 + [1.0] * 500)
    assert DriftLevel.DRIFT in levels
    assert levels.index(DriftLevel.DRIFT) >= 500
    # the stale zero-mean half was dropped
    assert det.mean > 0.9


def test_adwin_tolerates_alternating_values():
    det = AdwinDetector()
    levels = run_levels(det, [0.0, 1.0] * 1024)
    assert DriftLevel.DRIFT not in levels


def test_adwin_rejects_values_outside_unit_interval():
    det = AdwinDetector()
    for bad in (-0.1, 1.1, 5.0):
        with pytest.raises(ValueOutOfRange):
            det.update(bad)


def test_adwin_width_and_mean_track_window():
    det = AdwinDetector(max_buckets=None)
    values = [0.25, 0.5, 0.75, 1.0]
    for v in values:
        det.update(v)
    assert det.width == 4
    assert det.mean == pytest.approx(np.mean(values))
    assert det.window_values() == values


def test_adwin_window_values_requires_uncompressed():
    det = AdwinDetector(max_buckets=5)
    det.update(0.5)
    with pytest.raises(ValueError):
        det.window_values()


@pytest.mark.parametrize("seed", [42, 7])
def test_adwin_uncompressed_matches_exhaustive_oracle(seed):
    """With compression off the detector IS the quadratic definition."""
    rng = np.random.default_rng(seed)
    for trial in range(120):
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
        assert decisions == want_decisions
        assert det.window_values() == want_window


def test_adwin_compressed_agrees_on_clean_shifts():
    """Bucket compression must not change the verdict on wide-margin cuts."""
    rng = np.random.default_rng(123)
    for trial in range(200):
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
        assert fired == any(want_decisions)


def _adwin_state(det, buckets):
    """Level-independent state, floats as hex so that equality is bitwise."""
    return (det.width, det.mean.hex(),
            [(size, total.hex()) for size, total in buckets])


@settings(max_examples=60, deadline=None)
@given(delta=st.sampled_from([0.002, 0.05, 0.5]),
       max_buckets=st.sampled_from([None, 2, 3, 4, 5, 6, 7, 8]),
       real=st.booleans(),
       segments=st.lists(st.tuples(st.floats(0.0, 1.0), st.integers(20, 500)),
                         min_size=1, max_size=4),
       reset_at=st.integers(0, 1600),
       seed=st.integers(0, 2**32 - 1))
@example(delta=0.002, max_buckets=5, real=False,
         segments=[(0.05, 400), (0.6, 400), (0.05, 400)], reset_at=1600,
         seed=0)
@example(delta=0.002, max_buckets=None, real=True,
         segments=[(0.9, 200), (0.1, 200)], reset_at=250, seed=1)
# a cut makes room for a second cut at an earlier boundary, whose horizon
# was computed before the first drop
@example(delta=0.002, max_buckets=7, real=False,
         segments=[(0.4878787630597822, 87), (0.4834181147525649, 104),
                   (0.9646969872568616, 186), (0.7525046995401022, 97)],
         reset_at=1600, seed=2402811634)
# the retrain regime: a long, quiet window whose boundaries with a short
# side are settled untested (eps >= 1) on long horizons, then a jump
@example(delta=0.002, max_buckets=5, real=False,
         segments=[(0.01, 3000), (0.3, 500)], reset_at=4000, seed=0)
# a step from 0 to 1: the gap is 1, so the first cut comes at the first
# tick at which the newest boundaries' eps falls below 1
@example(delta=0.002, max_buckets=None, real=False,
         segments=[(0.0, 20), (1.0, 20)], reset_at=0, seed=0)
# a quiet window gives its boundaries caps on the window total, and a burst
# of errors then uses them up one after another
@example(delta=0.002, max_buckets=5, real=False,
         segments=[(0.0, 3000), (1.0, 60)], reset_at=4000, seed=0)
# the same with real values: caps on a total that is not an integer
@example(delta=0.002, max_buckets=5, real=True,
         segments=[(0.02, 3000), (0.6, 300)], reset_at=4000, seed=0)
# left means near eps_inf: some boundaries earn a cap, others a horizon
@example(delta=0.002, max_buckets=5, real=False,
         segments=[(0.08, 400), (0.0, 2500), (0.5, 200)], reset_at=4000,
         seed=0)
# real values with two buckets a row: merges cascade, and a merged sum added
# to its prefix often rounds otherwise than the two sums added one by one
@example(delta=0.002, max_buckets=2, real=True,
         segments=[(0.3, 300), (0.7, 300)], reset_at=4000, seed=0)
# a loose cap on the newest boundary shows at a large delta: with eps = 3 in
# place of the settled eps, the cut of update 15 is skipped
@example(delta=0.5, max_buckets=5, real=False,
         segments=[(0.0, 12), (1.0, 5)], reset_at=4000, seed=0)
def test_adwin_is_bit_identical_to_bucket_scan(delta, max_buckets, real,
                                               segments, reset_at, seed):
    """The incremental detector against the former bucket-scan detector:
    equal level, width, mean and bucket sums after every update, with the
    error rate stepping up and down between segments.  The prefix counts
    and sums equal a left-to-right scan of the buckets bit for bit."""
    rng = np.random.default_rng(seed)
    values = []
    for rate, length in segments:
        if real:
            low, high = max(0.0, rate - 0.2), min(1.0, rate + 0.2)
            values.extend(rng.uniform(low, high, length).tolist())
        else:
            values.extend((rng.random(length) < rate).astype(float).tolist())
    if max_buckets is None:  # the reference scan is quadratic here
        values = values[:400]
    det = AdwinDetector(delta, max_buckets)
    ref = ReferenceAdwinDetector(delta, max_buckets)
    for step, value in enumerate(values):
        if step == reset_at:  # both restart from scratch
            det = AdwinDetector(delta, max_buckets)
            ref = ReferenceAdwinDetector(delta, max_buckets)
        assert det.update(value) is ref.update(value), step
        got = _adwin_state(det, zip(det._sizes, det._sums))
        assert got == _adwin_state(ref, ref._buckets_old_to_new()), step
        assert det._prefix_counts == list(
            accumulate(det._sizes, initial=0)), step
        assert [s.hex() for s in det._prefix_sums] == [
            s.hex() for s in accumulate(det._sums, initial=0.0)], step


@settings(max_examples=60, deadline=None)
@given(delta=st.sampled_from([0.9, 0.999])
       | st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       max_buckets=st.sampled_from([None, 2, 5]),
       values=st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
                       min_size=2, max_size=300))
@example(delta=0.5, max_buckets=5, values=[0.0] * 12 + [1.0] * 5)
@example(delta=0.002, max_buckets=5, values=[0.0] * 200 + [1.0] * 10)
def test_adwin_newest_boundary_cap_is_never_looser_than_settle(
        delta, max_buckets, values):
    """An update that does not drop leaves the newest boundary's horizon
    and cap as the insert set them.  The horizon is ``_settle``'s, and so
    is the cap off the constant-time path; on it (a left mean below the
    slack times the least eps_inf) the cap may be lower, never higher."""
    det = AdwinDetector(delta, max_buckets)
    for value in values:
        width = det.width
        det.update(value)
        if det.width != width + 1 or width == 0:
            continue  # a drop settled the boundaries afresh
        n0, s0 = width, det._prefix_sums[-2]
        ln_term = math.log(4.0 * (n0 + 1) / delta)
        until, cap = det._settle(
            n0, s0, 1, math.sqrt((1.0 / n0 + 1.0) * ln_term / 2.0), ln_term)
        assert det._horizon[-1] == until
        assert det._caps[-1] <= cap
        if s0 * s0 >= det._quiet_sq * n0:  # the log/sqrt path
            assert det._caps[-1] == cap


def test_adwin_skips_its_boundary_loop_on_a_quiet_stream(monkeypatch):
    """A low, steady error rate, like the retrain runs' error sequences: the
    caps and horizons settle almost every boundary, so the boundary loop
    runs on few updates and rarely needs a horizon from ``_no_cut_ticks``.
    The newest boundary mostly takes its cap from two constants of delta,
    without a ``_settle`` call.  Sums of 0s and 1s are exact, so no merge
    rescans the prefixes: a rescan comes only from a drop."""
    calls = {"_shrink": 0, "_no_cut_ticks": 0, "_refresh_prefixes": 0,
             "_drop_oldest_bucket": 0, "_settle": 0}
    for name in calls:
        method = getattr(AdwinDetector, name)

        def counted(self, *args, _method=method, _name=name):
            calls[_name] += 1
            return _method(self, *args)
        monkeypatch.setattr(AdwinDetector, name, counted)
    values = (np.random.default_rng(0).random(19000) < 0.007).astype(float)
    det = AdwinDetector()
    for value in values:
        det.update(value)
    assert calls["_shrink"] < 0.1 * len(values)
    assert calls["_no_cut_ticks"] < 0.2 * len(values)
    assert calls["_settle"] < 0.05 * len(values)
    assert calls["_refresh_prefixes"] == calls["_drop_oldest_bucket"]


# ---------------------------------------------------------------------------
# KS primitives
# ---------------------------------------------------------------------------

def test_ks_statistic_small_example():
    assert ks_statistic([1, 2, 3, 4], [2, 3, 4, 5]) == pytest.approx(0.25)


def test_ks_statistic_identical_samples():
    assert ks_statistic([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0


def test_ks_statistic_disjoint_supports():
    assert ks_statistic([0, 1, 2], [10, 11, 12]) == pytest.approx(1.0)


def test_ks_statistic_empty_input():
    with pytest.raises(EmptyInput):
        ks_statistic([], [1.0])
    with pytest.raises(EmptyInput):
        ks_statistic([1.0], [])


@pytest.mark.parametrize("seed", range(6))
def test_ks_statistic_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 60))
    m = int(rng.integers(1, 60))
    a = rng.normal(size=n)
    b = rng.normal(loc=rng.uniform(-1, 1), size=m)
    if seed % 3 == 0:  # force ties across the two samples
        a = np.round(a)
        b = np.round(b)
    assert ks_statistic(a, b) == pytest.approx(brute_ks_statistic(a, b),
                                               abs=1e-12)


def test_ks_pvalue_zero_statistic_is_one():
    assert ks_pvalue(0.0, 30, 30) == 1.0


def test_ks_pvalue_total_separation_is_tiny():
    assert ks_pvalue(1.0, 30, 30) < 1e-6


def test_ks_pvalue_monotone_in_statistic():
    ps = [ks_pvalue(d, 50, 60) for d in np.linspace(0.0, 1.0, 21)]
    assert all(0.0 <= p <= 1.0 for p in ps)
    assert all(p1 >= p2 - 1e-12 for p1, p2 in zip(ps, ps[1:]))


def test_ks_pvalue_grows_with_smaller_samples():
    """The same statistic is less surprising with less data."""
    assert ks_pvalue(0.3, 10, 10) > ks_pvalue(0.3, 200, 200)


# ---------------------------------------------------------------------------
# KSWIN
# ---------------------------------------------------------------------------

def test_kswin_validates_window_config():
    with pytest.raises(ValueOutOfRange):
        KswinDetector(window_size=50, stat_size=50)
    with pytest.raises(ValueOutOfRange):
        KswinDetector(window_size=10, stat_size=0)


def test_kswin_silent_until_window_full():
    det = KswinDetector(window_size=100, stat_size=30)
    rng = np.random.default_rng(0)
    levels = run_levels(det, rng.random(99))
    assert all(lv is DriftLevel.NORMAL for lv in levels)


def test_kswin_detects_distribution_shift():
    rng = np.random.default_rng(4)
    values = np.concatenate([rng.uniform(0.0, 0.2, 300),
                             rng.uniform(0.8, 1.0, 120)])
    det = KswinDetector()
    levels = run_levels(det, values)
    drifts = [i for i, lv in enumerate(levels) if lv is DriftLevel.DRIFT]
    assert drifts and drifts[0] >= 300


def test_kswin_truncates_window_after_drift():
    rng = np.random.default_rng(4)
    values = np.concatenate([rng.uniform(0.0, 0.2, 300),
                             rng.uniform(0.8, 1.0, 120)])
    det = KswinDetector(window_size=100, stat_size=30)
    for v in values:
        if det.update(v) is DriftLevel.DRIFT:
            break
    assert len(det.window) == 30


def test_kswin_stationary_stream_rarely_fires():
    rng = np.random.default_rng(2)
    det = KswinDetector()
    levels = run_levels(det, rng.random(2000))
    # alpha = 0.005 over ~1900 tests, but tests are heavily overlapping;
    # a handful of firings would indicate a broken p-value, not bad luck
    assert sum(lv is DriftLevel.DRIFT for lv in levels) <= 2


# ---------------------------------------------------------------------------
# The shared input contract
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("make", [DdmDetector, EddmDetector, AdwinDetector,
                                  KswinDetector])
def test_detectors_reject_values_outside_unit_interval(make):
    det = make()
    for bad in (7.0, -3.0, float("nan"), -1e-12, 1.0 + 1e-12):
        with pytest.raises(ValueOutOfRange):
            det.update(bad)
    # a rejected value leaves no trace: the run matches a fresh detector's
    values = [0.0, 1.0, 0.25, 0.5] * 30
    assert run_levels(det, values) == run_levels(make(), values)
