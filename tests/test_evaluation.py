"""Confusion metrics, prequential error, timelines and report export."""

import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftstream import (ConfusionCounts, EmptyCounts, MetricsTimeline,
                         export_reports, fit_extractor, metrics,
                         prequential_error, vocabulary_diff)
from .oracles import ReferenceTimeline, prequential_oracle


# ---------------------------------------------------------------------------
# confusion counts and derived metrics
# ---------------------------------------------------------------------------

def test_confusion_cell_routing():
    pairs = [(1, 1), (1, 1), (1, 1), (1, 0),
             (0, 1), (0, 1), (0, 0), (0, 0), (0, 0), (0, 0)]
    c = ConfusionCounts.of([p for p, _ in pairs], [y for _, y in pairs])
    assert (c.tp, c.fp, c.fn, c.tn) == (3, 1, 2, 4)
    assert c.total == 10


def test_metrics_formulas():
    c = ConfusionCounts(tp=3, fp=1, tn=4, fn=2)
    m = metrics(c)
    assert m["accuracy"] == pytest.approx(0.7)
    assert m["precision"] == pytest.approx(0.75)
    assert m["recall"] == pytest.approx(0.6)
    assert m["f1"] == pytest.approx(2 / 3)


def test_metrics_zero_denominators():
    # never predicts positive: precision 0; no positives exist: recall 0
    m = metrics(ConfusionCounts(tp=0, fp=0, tn=5, fn=3))
    assert m["precision"] == 0.0 and m["f1"] == 0.0
    m = metrics(ConfusionCounts(tp=0, fp=2, tn=5, fn=0))
    assert m["recall"] == 0.0 and m["f1"] == 0.0


def test_metrics_empty_counts_raise():
    with pytest.raises(EmptyCounts):
        metrics(ConfusionCounts())


# ---------------------------------------------------------------------------
# prequential error
# ---------------------------------------------------------------------------

def test_prequential_unit_fading_is_running_mean():
    curve = prequential_error([1, 0, 1, 0], fading=1.0)
    np.testing.assert_allclose(curve, [1.0, 0.5, 2 / 3, 0.5])


def test_prequential_unit_fading_equals_cumulative_error_rate():
    rng = np.random.default_rng(0)
    bits = (rng.random(500) < 0.3).astype(int)
    curve = prequential_error(bits, fading=1.0)
    cumulative = np.cumsum(bits) / np.arange(1, len(bits) + 1)
    np.testing.assert_allclose(curve, cumulative)


def test_prequential_matches_recurrence_oracle():
    rng = np.random.default_rng(1)
    bits = (rng.random(300) < 0.2).astype(int)
    got = prequential_error(bits, fading=0.95)
    np.testing.assert_allclose(got, prequential_oracle(list(bits), 0.95),
                               atol=1e-12)


def test_prequential_fading_reacts_faster_than_mean():
    bits = [0] * 200 + [1] * 50
    faded = prequential_error(bits, fading=0.9)
    flat = prequential_error(bits, fading=1.0)
    assert faded[-1] > flat[-1]


def test_prequential_rejects_bad_fading():
    for bad in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            prequential_error([1, 0], fading=bad)


# ---------------------------------------------------------------------------
# timeline
# ---------------------------------------------------------------------------

def filled_timeline(n=25, window=10, seed=0):
    rng = np.random.default_rng(seed)
    tl = MetricsTimeline(window=window)
    for _ in range(n):
        tl.record(int(rng.integers(2)), int(rng.integers(2)))
    return tl


def test_timeline_counts_and_faded_curve():
    tl = MetricsTimeline(fading=0.9)
    for pred, label in [(1, 1), (0, 1), (1, 0), (0, 0)]:
        tl.record(pred, label)
    assert tl.n_steps == 4
    np.testing.assert_allclose(tl.faded_error(),
                               prequential_error([0, 1, 1, 0], 0.9))
    assert (tl.confusion.tp, tl.confusion.fn,
            tl.confusion.fp, tl.confusion.tn) == (1, 1, 1, 1)


def test_timeline_event_ordering_enforced():
    tl = MetricsTimeline()
    tl.record_event(10, "adwin", "warning")
    tl.record_event(11, "adwin", "drift")
    with pytest.raises(ValueError):
        tl.record_event(11, "adwin", "drift")
    with pytest.raises(ValueError):
        tl.record_event(5, "adwin", "drift")
    assert tl.drift_count() == 1
    assert tl.warning_count() == 1


def test_timeline_summary_on_empty_run():
    # no run records zero steps, so an empty timeline has no summary
    with pytest.raises(EmptyCounts):
        MetricsTimeline().summary()


def test_timeline_summary_matches_direct_metrics():
    tl = filled_timeline(n=200, seed=3)
    want = metrics(tl.confusion)
    got = tl.summary()
    for key in ("accuracy", "precision", "recall", "f1"):
        assert got[key] == want[key]
    assert got["drifts"] == 0


def test_window_snapshot_count_and_partial_tail():
    tl = filled_timeline(n=25, window=10)
    snaps = tl.window_snapshots()
    assert len(snaps) == math.ceil(25 / 10)
    assert [end for end, _ in snaps] == [10, 20, 25]
    assert snaps[-1][1].total == 5
    cells = [(c.tp, c.fp, c.tn, c.fn) for _, c in snaps]
    assert ConfusionCounts(*map(sum, zip(*cells))) == tl.confusion


@settings(max_examples=150, deadline=None)
@given(pairs=st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)),
                      min_size=1, max_size=60),
       fading=st.floats(0.0, 1.0, exclude_min=True),
       data=st.data())
def test_timeline_matches_running_count_reference(pairs, fading, data):
    """Counts derived from the stored pairs equal the former running
    counts, down to the bytes of the exported reports.  An empty timeline
    has no summary (``test_timeline_summary_on_empty_run``)."""
    window = data.draw(st.integers(1, len(pairs) + 1), label="window")
    got = MetricsTimeline(fading=fading, window=window)
    want = ReferenceTimeline(fading=fading, window=window)
    for prediction, label in pairs:
        got.record(prediction, label)
        want.record(prediction, label)
    assert got.confusion == want.confusion
    assert got.window_snapshots() == want.window_snapshots()
    assert got.summary() == want.summary()
    assert np.array_equal(got.faded_error(), want.faded_error())
    with tempfile.TemporaryDirectory() as where:
        got_paths = export_reports(got, [], Path(where) / "got")
        want_paths = export_reports(want, [], Path(where) / "want")
        for key in ("metrics", "summary"):
            assert (got_paths[key].read_bytes()
                    == want_paths[key].read_bytes())


# ---------------------------------------------------------------------------
# report export
# ---------------------------------------------------------------------------

def sample_diffs():
    from driftstream import stream_from_samples, RawSample

    def doc(sid, tokens):
        return RawSample(id=sid, timestamp=1, label=0,
                         attributes={"api_calls": list(tokens)})

    old = fit_extractor(stream_from_samples(
        [doc("a", ["x", "y"]), doc("b", ["y"])]), k=2)
    new = fit_extractor(stream_from_samples(
        [doc("a", ["z", "y"]), doc("b", ["z"])]), k=2)
    return vocabulary_diff(old, new)


def test_export_writes_four_files(tmp_path):
    tl = filled_timeline(n=25, window=10)
    tl.record_event(7, "ddm", "warning")
    tl.record_event(9, "ddm", "drift")
    paths = export_reports(tl, [(9, sample_diffs())], tmp_path)
    for key in ("metrics", "events", "vocab_diffs", "summary"):
        assert paths[key].exists()

    lines = paths["metrics"].read_text().splitlines()
    assert lines[0] == ("step,prequential_error,window_accuracy,"
                        "window_precision,window_recall,window_f1")
    assert len(lines) == 1 + 3  # header + ceil(25/10) windows
    assert lines[1].startswith("10,")
    assert lines[3].startswith("25,")
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == 6
        for cell in cells[1:]:
            assert len(cell.split(".")[1]) == 6  # 6 decimal places

    events = [json.loads(l) for l in paths["events"].read_text().splitlines()]
    assert events == [
        {"detector": "ddm", "level": "warning", "step": 7},
        {"detector": "ddm", "level": "drift", "step": 9},
    ]

    diffs = json.loads(paths["vocab_diffs"].read_text())
    assert diffs[0]["step"] == 9
    assert diffs[0]["diffs"][0]["attribute"] == "api_calls"
    assert diffs[0]["diffs"][0]["added"] == ["z"]

    summary = json.loads(paths["summary"].read_text())
    assert set(summary) == {"accuracy", "f1", "recall", "precision", "drifts"}
    assert summary["drifts"] == 1


def test_export_is_byte_stable(tmp_path):
    def export(where):
        tl = filled_timeline(n=40, window=16, seed=12)
        tl.record_event(5, "adwin", "drift")
        return export_reports(tl, [(5, sample_diffs())], where)

    a = export(tmp_path / "a")
    b = export(tmp_path / "b")
    for key in a:
        assert a[key].read_bytes() == b[key].read_bytes()


def test_export_faded_column_uses_final_step_of_each_window(tmp_path):
    tl = MetricsTimeline(window=2, fading=1.0)
    for pred, label in [(1, 0), (0, 0), (0, 0), (0, 0)]:
        tl.record(pred, label)
    paths = export_reports(tl, [], tmp_path)
    rows = paths["metrics"].read_text().splitlines()[1:]
    # running mean after steps 2 and 4: 0.5 and 0.25
    assert rows[0].split(",")[1] == "0.500000"
    assert rows[1].split(",")[1] == "0.250000"
