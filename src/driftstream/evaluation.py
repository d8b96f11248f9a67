"""Prequential metrics accounting and report export.

The timeline stores, for every evaluated sample, only the prediction/label
pair, plus the drift/warning events and any per-period counts.  Everything
else is derived from the two lists on demand: the cumulative confusion
matrix and the fixed-size window snapshots through ``ConfusionCounts.of``
(the one place that counts pairs), and the fading prequential error from
the pairs' error bits.  ``export_reports``
serializes a run into four stable files (metrics.csv, events.jsonl,
vocab_diffs.json, summary.json) that byte-reproduce across reruns of the
same seed; ``write_json`` is the layout of every JSON report file.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import EmptyCounts
from .features import VocabularyDiff

METRIC_NAMES = ("accuracy", "f1", "recall", "precision")


@dataclass
class ConfusionCounts:
    """Binary confusion matrix; class 1 is the positive (malware) class."""

    tp: int = 0
    fp: int = 0
    tn: int = 0
    fn: int = 0

    @classmethod
    def of(cls, predictions: Iterable[int],
           labels: Iterable[int]) -> "ConfusionCounts":
        """The counts of the 0/1 (prediction, label) pairs."""
        cells = Counter(zip(predictions, labels))
        return cls(tp=cells[1, 1], fp=cells[1, 0], tn=cells[0, 0],
                   fn=cells[0, 1])

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


def metrics(counts: ConfusionCounts) -> dict[str, float]:
    """Accuracy, precision, recall and F1; zero whenever a denominator is zero."""
    if counts.total == 0:
        raise EmptyCounts("metrics need at least one counted sample")
    precision = counts.tp / (counts.tp + counts.fp) if counts.tp + counts.fp else 0.0
    recall = counts.tp / (counts.tp + counts.fn) if counts.tp + counts.fn else 0.0
    f1 = (2.0 * precision * recall / (precision + recall)
          if precision + recall else 0.0)
    accuracy = (counts.tp + counts.tn) / counts.total
    return {"accuracy": accuracy, "precision": precision,
            "recall": recall, "f1": f1}


def prequential_error(error_bits: Sequence[float], fading: float = 0.999) -> np.ndarray:
    """Fading prequential error curve e_t = S_t / B_t.

    S_t = bit_t + fading * S_{t-1}, B_t = 1 + fading * B_{t-1}.  With
    fading = 1 this is exactly the running mean of the error bits.
    """
    if not 0.0 < fading <= 1.0:
        raise ValueError(f"fading factor {fading} not in (0, 1]")
    curve = np.empty(len(error_bits), dtype=float)
    s = 0.0
    b = 0.0
    for t, bit in enumerate(error_bits):
        s = float(bit) + fading * s
        b = 1.0 + fading * b
        curve[t] = s / b
    return curve


@dataclass(frozen=True)
class DriftEvent:
    """A detector signal at a 1-based step of the evaluated stream."""

    step: int
    detector: str
    level: str  # "warning" or "drift"

    def to_dict(self) -> dict:
        return {"step": self.step, "detector": self.detector, "level": self.level}


@dataclass(frozen=True)
class PeriodMetrics:
    """Confusion counts for one labeled evaluation period (e.g. a month)."""

    label: str
    counts: ConfusionCounts


class MetricsTimeline:
    """Per-step prequential record of one evaluation run: plain ``int``
    lists of the predictions and labels, and everything derived from them."""

    def __init__(self, fading: float = 0.999, window: int = 1000):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.fading = fading
        self.window = window
        self.predictions: list[int] = []
        self.labels: list[int] = []
        self.events: list[DriftEvent] = []
        self.periods: list[PeriodMetrics] = []

    @property
    def n_steps(self) -> int:
        return len(self.predictions)

    @property
    def confusion(self) -> ConfusionCounts:
        return ConfusionCounts.of(self.predictions, self.labels)

    def record(self, prediction: int, label: int) -> None:
        self.predictions.append(int(prediction))
        self.labels.append(int(label))

    def record_event(self, step: int, detector: str, level: str) -> None:
        if self.events and step <= self.events[-1].step:
            raise ValueError("event steps must be strictly increasing")
        self.events.append(DriftEvent(step=step, detector=detector, level=level))

    def faded_error(self) -> np.ndarray:
        return prequential_error(
            [p != y for p, y in zip(self.predictions, self.labels)],
            self.fading)

    def drift_count(self) -> int:
        return sum(1 for e in self.events if e.level == "drift")

    def warning_count(self) -> int:
        return sum(1 for e in self.events if e.level == "warning")

    def summary(self) -> dict:
        if self.n_steps == 0:
            vals = dict.fromkeys(METRIC_NAMES, 0.0)
        else:
            vals = metrics(self.confusion)
        summary = {name: vals[name] for name in METRIC_NAMES}
        summary["drifts"] = self.drift_count()
        return summary

    def window_snapshots(self) -> list[tuple[int, ConfusionCounts]]:
        """(end_step, counts) for each window; the last may be partial."""
        out = []
        for start in range(0, self.n_steps, self.window):
            end = min(start + self.window, self.n_steps)
            out.append((end, ConfusionCounts.of(self.predictions[start:end],
                                                self.labels[start:end])))
        return out


def _fmt(value: float) -> str:
    return f"{value:.6f}"


def _rounded(value):
    """``value`` with every float, however deeply nested, rounded to 6 places."""
    if isinstance(value, float):
        return round(value, 6)
    if isinstance(value, dict):
        return {key: _rounded(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_rounded(item) for item in value]
    return value


def write_json(path: str | Path, payload) -> None:
    """Write a JSON report: floats rounded to 6 places, keys sorted, indent 2."""
    Path(path).write_text(json.dumps(_rounded(payload), sort_keys=True,
                                     indent=2) + "\n", encoding="utf-8")


def export_reports(timeline: MetricsTimeline,
                   vocab_diffs: Iterable[tuple[int, Sequence[VocabularyDiff]]],
                   out_dir: str | Path) -> dict[str, Path]:
    """Write metrics.csv, events.jsonl, vocab_diffs.json and summary.json.

    All floats are serialized with six decimal places, keys are sorted and
    rows are emitted in step order, so identical runs produce
    byte-identical files.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {
        "metrics": out_dir / "metrics.csv",
        "events": out_dir / "events.jsonl",
        "vocab_diffs": out_dir / "vocab_diffs.json",
        "summary": out_dir / "summary.json",
    }

    faded = timeline.faded_error()
    lines = ["step,prequential_error,window_accuracy,window_precision,"
             "window_recall,window_f1"]
    for end_step, counts in timeline.window_snapshots():
        vals = metrics(counts)
        lines.append(",".join([
            str(end_step),
            _fmt(faded[end_step - 1]),
            _fmt(vals["accuracy"]),
            _fmt(vals["precision"]),
            _fmt(vals["recall"]),
            _fmt(vals["f1"]),
        ]))
    paths["metrics"].write_text("\n".join(lines) + "\n", encoding="utf-8")

    with paths["events"].open("w", encoding="utf-8") as fh:
        for event in timeline.events:
            fh.write(json.dumps(event.to_dict(), sort_keys=True) + "\n")

    write_json(paths["vocab_diffs"],
               [{"step": step, "diffs": [d.to_dict() for d in diffs]}
                for step, diffs in vocab_diffs])
    write_json(paths["summary"], timeline.summary())
    return paths
