"""Experiment strategies: streaming drift-reaction loops and offline baselines.

The central loop (``FnFPipeline.run``) is strictly prequential: every
sample is transformed and predicted first, the outcome is recorded, the
drift detector consumes the error bit, and only then may the sample train
the models.  On a Drift signal the pipeline either rebuilds the classifier on
the drift buffer under the existing feature extractor ("fnf-update") or
refits extractor *and* classifier on the buffered raw samples
("fnf-retrain").  The buffer is a detector-specific slice of the
evaluated stream, never a copy kept alongside it: the steps of the open
warning episode for DDM/EDDM (from its first Warning step up to the drift
step, excluded), the samples aligned with the surviving window for ADWIN,
and the newest ``stat_size`` samples for KSWIN.  Vectors are computed one
block of samples ahead of the loop; after a rebuild the rows not yet
consumed are computed again, so every sample is transformed by the
extractor in force when the loop reaches it.

The offline baselines (temporal split, stratified cross-validation,
month-by-month incremental retraining, several-warmup-sizes sweeps) and
the pseudo-labeling model pool live here too, sharing configuration and
reporting machinery.
"""

from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass, fields, replace
from datetime import datetime, timezone
from itertools import groupby

import numpy as np

from .drift import (AdwinDetector, DdmDetector, DriftLevel, EddmDetector,
                    KswinDetector, NeverFiresDetector)
from .errors import (ClassMissingInFold, ConfigError, InsufficientData,
                     InsufficientTimeSpan, UnlabeledSample, WarmupTooSmall)
from .evaluation import (METRIC_NAMES, ConfusionCounts, MetricsTimeline,
                         PeriodMetrics, metrics)
from .features import FeatureExtractorModel, fit_extractor, vocabulary_diff
from .learners import ArfEnsemble, PoolMembers, SgdClassifier, POOL_MEMBER_KINDS
from .stream import SampleStream

log = logging.getLogger(__name__)

STRATEGIES = ("cross-val", "temporal", "iwc", "fnf-update", "fnf-retrain",
              "pool", "mts", "static")
# every detector runs at its published defaults (see ``drift``)
_DETECTOR_CLASSES = {"ddm": DdmDetector, "eddm": EddmDetector,
                     "adwin": AdwinDetector, "kswin": KswinDetector,
                     "none": NeverFiresDetector}
DETECTORS = tuple(_DETECTOR_CLASSES)
CLASSIFIERS = ("arf", "sgd")


# the values each annotation of ExperimentConfig admits; a bool is admitted
# by none, although Python counts it as an int
_FIELD_TYPES = {"str": str, "int": numbers.Integral, "float": numbers.Real,
                "int | str": (numbers.Integral, str)}
_CHOICES = {"strategy": STRATEGIES, "detector": DETECTORS,
            "classifier": CLASSIFIERS}
# the least value of each integer field; np.random.SeedSequence rejects a
# negative seed only once a run has started
_MINIMUM = {"seed": 0, "vocab_size": 1, "cv_folds": 2, "mts_folds": 2,
            "pool_interval": 1, "metrics_window": 1, "arf_trees": 1}


@dataclass(frozen=True)
class ExperimentConfig:
    """The experiment's own choices, one field per CLI flag, checked when
    built (``dataclasses.replace`` included) and frozen.  Detectors and
    classifiers run at their published defaults (``drift``, ``learners``)."""

    strategy: str = "fnf-retrain"
    detector: str = "adwin"
    classifier: str = "arf"
    seed: int = 0
    vocab_size: int = 100
    warmup: int | str = "365d"
    split_fraction: float = 0.5
    cv_folds: int = 10
    mts_folds: int = 11
    mts_inner: str = "fnf-retrain"
    arf_trees: int = 10
    pool_interval: int = 500
    metrics_window: int = 1000

    def __post_init__(self) -> None:
        for spec in fields(self):
            value = getattr(self, spec.name)
            if (isinstance(value, bool)
                    or not isinstance(value, _FIELD_TYPES[spec.type])):
                raise ConfigError(f"{spec.name} must be {spec.type}, "
                                  f"got {value!r}")
            if spec.type == "float" and not math.isfinite(value):
                raise ConfigError(f"{spec.name} must be finite, "
                                  f"got {value!r}")
        for name, choices in _CHOICES.items():
            if getattr(self, name) not in choices:
                raise ConfigError(f"unknown {name} {getattr(self, name)!r}; "
                                  f"choose from {', '.join(choices)}")
        if self.mts_inner not in ("fnf-update", "fnf-retrain", "pool"):
            raise ConfigError(
                f"mts_inner must be fnf-update, fnf-retrain or pool, "
                f"got {self.mts_inner!r}")
        for name, minimum in _MINIMUM.items():
            if getattr(self, name) < minimum:
                raise ConfigError(f"{name} must be >= {minimum}")
        if not 0.0 < self.split_fraction < 1.0:
            raise ConfigError("split_fraction must lie in (0, 1)")
        if isinstance(self.warmup, numbers.Integral):
            if self.warmup < 1:
                raise ConfigError("warmup sample count must be >= 1")
        else:
            parse_duration(self.warmup)  # raises ConfigError when malformed

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentConfig":
        unknown = set(payload) - {spec.name for spec in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**payload)


_DURATION_UNITS = {"s": 1, "h": 3600, "d": 86400, "w": 7 * 86400,
                   "y": 365 * 86400}


def parse_duration(text: str) -> int:
    """Parse a duration like "365d", "12h" or "90s" into seconds."""
    text = str(text).strip().lower()
    if len(text) >= 2 and text[-1] in _DURATION_UNITS:
        try:
            seconds = float(text[:-1]) * _DURATION_UNITS[text[-1]]
        except ValueError:
            seconds = -1.0
        if 0.0 < seconds < math.inf:
            return int(round(seconds))
    raise ConfigError(
        f"cannot parse duration {text!r}; use e.g. 365d, 12h, 90s")


def resolve_warmup_count(stream: SampleStream, warmup: int | str) -> int:
    """Number of leading samples covered by a warmup specification."""
    if isinstance(warmup, numbers.Integral):
        return min(warmup, len(stream))
    seconds = parse_duration(warmup)
    if len(stream) == 0:
        return 0
    return int(np.searchsorted(stream.timestamps,
                               stream.timestamps[0] + seconds))


def _require_labels(stream: SampleStream) -> None:
    unlabeled = np.flatnonzero(stream.labels < 0)
    if len(unlabeled):
        raise UnlabeledSample(
            f"sample {stream.ids[unlabeled[0]]!r} has no label; evaluation "
            f"strategies need fully labeled streams")


def _split_warmup(stream: SampleStream,
                  warmup: int | str) -> tuple[SampleStream, SampleStream]:
    """(warmup, evaluated) slices of a labeled stream.

    The warmup slice must hold both classes and leave a sample to evaluate.
    """
    _require_labels(stream)
    count = resolve_warmup_count(stream, warmup)
    warm = stream[:count]
    if set(warm.labels.tolist()) != {0, 1}:
        raise WarmupTooSmall(
            "warmup slice must be non-empty and contain both classes")
    if count == len(stream):
        raise InsufficientData(f"warmup covers all {count} samples; none is "
                               f"left to evaluate")
    return warm, stream[count:]


def build_detector(config: ExperimentConfig):
    return _DETECTOR_CLASSES[config.detector]()


def build_classifier(config: ExperimentConfig, dim: int, seed: int = 0):
    if config.classifier == "sgd":
        return SgdClassifier(dim)
    return ArfEnsemble(dim, config.arf_trees, seed=seed)


def _train_on(classifier, extractor: FeatureExtractorModel,
              samples: SampleStream) -> None:
    """Single prequential-order pass of partial_fit over a sample batch."""
    for vec, label in zip(extractor.iter_transform(samples),
                          samples.labels.tolist()):
        classifier.partial_fit(vec, label)


def _fit_and_predict(train, test, config: ExperimentConfig,
                     seed: int) -> list[int]:
    """Fit a fresh extractor and classifier on ``train``; predict ``test``."""
    extractor = fit_extractor(train, config.vocab_size)
    classifier = build_classifier(config, extractor.dim, seed)
    _train_on(classifier, extractor, train)
    return [classifier.predict(vec) for vec in extractor.iter_transform(test)]


def _spawn_seeds(seed: int, n: int) -> list[int]:
    """Derive n reproducible component seeds from one root seed."""
    children = np.random.SeedSequence(seed).spawn(n)
    return [int(child.generate_state(1)[0]) for child in children]


# ---------------------------------------------------------------------------
# Drift-reaction streaming loop
# ---------------------------------------------------------------------------

class FnFPipeline:
    """Prequential loop with drift-triggered model rebuilds.

    After the run, ``extractor``/``classifier`` hold the final models,
    ``vocab_diff_events`` the per-retrain vocabulary diffs,
    ``rebuild_count`` the number of rebuilds and ``degenerate_drifts`` the
    number of drift signals whose buffer was empty (models kept unchanged
    in that case).  Each ``run`` starts these records afresh.
    """

    def __init__(self, config: ExperimentConfig,
                 classifier_factory=None, detector_factory=None):
        if config.strategy not in ("fnf-update", "fnf-retrain", "static"):
            raise ConfigError(
                f"FnFPipeline cannot run strategy {config.strategy!r}")
        self.config = config
        self._classifier_factory = classifier_factory or build_classifier
        self._detector_factory = detector_factory or build_detector
        self.extractor: FeatureExtractorModel | None = None
        self.classifier = None
        self.detector = None

    def _drift_buffer(self, rest: SampleStream, warning_from: int | None,
                      step: int) -> SampleStream:
        """The samples to rebuild on; ``rest[:step]`` are those seen so far.
        A Normal level closes a warning episode, so its steps are contiguous."""
        name = self.config.detector
        if name in ("ddm", "eddm"):
            return rest[(warning_from or step) - 1:step - 1]
        if name == "adwin":
            return rest[max(0, step - self.detector.width):step]
        if name == "kswin":
            return rest[max(0, step - self.detector.stat_size):step]
        return rest[:0]

    def _rebuild(self, buffer: SampleStream, step: int) -> None:
        """A fresh classifier on ``buffer``; under fnf-retrain also a fresh
        extractor, while fnf-update keeps the extractor in force."""
        if self.config.strategy == "fnf-retrain":
            new_extractor = fit_extractor(buffer, self.config.vocab_size)
            self.vocab_diff_events.append(
                (step, vocabulary_diff(self.extractor, new_extractor)))
            self.extractor = new_extractor
        self.classifier = self.classifier.clone_untrained()
        _train_on(self.classifier, self.extractor, buffer)
        self.rebuild_count += 1

    def run(self, stream: SampleStream) -> MetricsTimeline:
        cfg = self.config
        warm, rest = _split_warmup(stream, cfg.warmup)
        self.vocab_diff_events: list[tuple[int, list]] = []
        self.degenerate_drifts = 0
        self.rebuild_count = 0
        clf_seed, = _spawn_seeds(cfg.seed, 1)
        self.extractor = fit_extractor(warm, cfg.vocab_size)
        self.classifier = self._classifier_factory(cfg, self.extractor.dim,
                                                   clf_seed)
        _train_on(self.classifier, self.extractor, warm)
        static = cfg.strategy == "static"
        self.detector = None if static else self._detector_factory(cfg)

        timeline = MetricsTimeline(window=cfg.metrics_window)
        warning_from = None  # first step of the open warning episode
        normal, warning = DriftLevel.NORMAL, DriftLevel.WARNING  # read once
        vectors = self.extractor.iter_transform(rest)
        for step, label in enumerate(rest.labels.tolist(), start=1):
            vec = next(vectors)
            prediction = self.classifier.predict(vec)
            timeline.record(prediction, label)
            if static:
                continue
            error = float(prediction != label)
            level = self.detector.update(error)
            if level is normal:
                self.classifier.partial_fit(vec, label)
                warning_from = None  # a warning episode fizzles out
            elif level is warning:
                self.classifier.partial_fit(vec, label)
                if warning_from is None:
                    timeline.record_event(step, cfg.detector, "warning")
                    warning_from = step
            else:
                timeline.record_event(step, cfg.detector, "drift")
                buffer = self._drift_buffer(rest, warning_from, step)
                if buffer:
                    self._rebuild(buffer, step)
                    # rows computed ahead may come from the old extractor
                    vectors = self.extractor.iter_transform(rest, step)
                else:
                    self.degenerate_drifts += 1
                    log.warning("drift at step %d with empty buffer; "
                                "keeping current models", step)
                warning_from = None
        return timeline


# ---------------------------------------------------------------------------
# Month-by-month incremental retraining (offline windowed baseline)
# ---------------------------------------------------------------------------

def _month_key(timestamp: int) -> tuple[int, int]:
    stamp = datetime.fromtimestamp(timestamp, tz=timezone.utc)
    return stamp.year, stamp.month


def run_iwc(stream: SampleStream, config: ExperimentConfig) -> MetricsTimeline:
    """Per calendar month: refit on all earlier data, evaluate on the month.

    The first month only seeds the training set; months without samples are
    skipped.  Per-month confusion counts are kept in ``timeline.periods``.
    """
    _require_labels(stream)
    months = [(key, len(list(run))) for key, run in groupby(
        map(_month_key, stream.timestamps.tolist()))]
    if len(months) < 2:
        raise InsufficientTimeSpan(
            "month-by-month evaluation needs a stream spanning at least two "
            "calendar months")

    seeds = _spawn_seeds(config.seed, len(months))
    timeline = MetricsTimeline(window=config.metrics_window)
    start = months[0][1]  # the first month only seeds the training set
    for month_idx, (key, size) in enumerate(months[1:], start=1):
        month = stream[start:start + size]
        predictions = _fit_and_predict(stream[:start], month, config,
                                       seeds[month_idx])
        labels = month.labels.tolist()
        for prediction, label in zip(predictions, labels):
            timeline.record(prediction, label)
        timeline.periods.append(
            PeriodMetrics(label=f"{key[0]:04d}-{key[1]:02d}",
                          counts=ConfusionCounts.of(predictions, labels)))
        start += size
    return timeline


# ---------------------------------------------------------------------------
# Temporal split and stratified cross-validation baselines
# ---------------------------------------------------------------------------

def run_temporal_split(stream: SampleStream, config: ExperimentConfig
                       ) -> tuple[dict, ConfusionCounts]:
    """Train once on the oldest ``floor(split_fraction * n)`` samples and
    evaluate the rest.  Returns ``(summary, counts)``: the ``summary.json``
    dict (the four metrics and ``"drifts": 0``) and the evaluated counts."""
    _require_labels(stream)
    cut = math.floor(config.split_fraction * len(stream))
    if cut == 0:  # the newest side is never empty, as split_fraction < 1
        raise InsufficientData(
            f"split fraction {config.split_fraction} leaves an empty side "
            f"for n={len(stream)}")
    train, test = stream[:cut], stream[cut:]
    seed, = _spawn_seeds(config.seed, 1)
    counts = ConfusionCounts.of(
        _fit_and_predict(train, test, config, seed), test.labels.tolist())
    return {**metrics(counts), "drifts": 0}, counts


def run_cross_validation(stream: SampleStream, config: ExperimentConfig
                         ) -> tuple[dict, list[ConfusionCounts]]:
    """Stratified ``cv_folds``-fold evaluation with a fresh
    extractor+classifier per fold.

    Returns ``(summary, per_fold)``: the ``summary.json`` dict, whose
    metrics are the unweighted means of the per-fold metrics and whose
    ``"drifts"`` is 0, and the per-fold confusion counts.
    """
    _require_labels(stream)
    k = config.cv_folds
    if len(stream) < k:
        raise InsufficientData(f"need at least {k} samples for {k} folds")

    shuffle_seed, *fold_seeds = _spawn_seeds(config.seed, k + 1)
    rng = np.random.default_rng(shuffle_seed)
    fold_of = np.empty(len(stream), dtype=int)
    for cls in (0, 1):
        indices = np.flatnonzero(stream.labels == cls)
        rng.shuffle(indices)
        fold_of[indices] = np.arange(len(indices)) % k

    per_fold = []
    for fold in range(k):
        train, test = stream[fold_of != fold], stream[fold_of == fold]
        train_labels = set(train.labels.tolist())
        if train_labels != {0, 1}:
            raise ClassMissingInFold(
                f"fold {fold}: training split lost a class "
                f"(has {sorted(train_labels)})")
        per_fold.append(ConfusionCounts.of(
            _fit_and_predict(train, test, config, fold_seeds[fold]),
            test.labels.tolist()))

    fold_metrics = [metrics(c) for c in per_fold]
    summary = {name: float(np.mean([m[name] for m in fold_metrics]))
               for name in METRIC_NAMES}
    summary["drifts"] = 0
    return summary, per_fold


# ---------------------------------------------------------------------------
# Pseudo-labeling model pool
# ---------------------------------------------------------------------------

# the agreement band outside which a pool member is aged
POOL_TAU_LOW = 0.3
POOL_TAU_HIGH = 0.7


class ModelPoolPipeline:
    """Three linear learners vote; disagreeing or stale members get refreshed.

    Every sample receives a pseudo-label from the weighted vote of the
    members (weights are each member's agreement fraction from the previous
    check interval).  Every ``pool_interval`` steps each member's agreement
    with the vote is measured; members outside (``POOL_TAU_LOW``,
    ``POOL_TAU_HIGH``) are considered aged and replay the interval's samples
    with their pseudo-labels.  True labels are used for metrics only.
    A member's weights change only at a check, so the run encodes, scores
    and replays one interval (the warmup: chunks of ``pool_interval``
    samples) at a time, with one ``PoolMembers`` call for all members; a
    last, partial interval is scored but not checked.  A feature is one of
    the stream's token ids (``SampleStream.token_ids``), and a chunk is
    encoded by ``SampleStream.distinct_token_ids``.  Each ``run``
    starts from untrained members; after it, ``members``, ``weights`` and
    ``aging_events`` hold that run's final state.
    """

    def __init__(self, config: ExperimentConfig):
        self.config = config

    def run(self, stream: SampleStream) -> MetricsTimeline:
        cfg = self.config
        warm, rest = _split_warmup(stream, cfg.warmup)
        self.members = PoolMembers(POOL_MEMBER_KINDS)
        everyone = range(len(POOL_MEMBER_KINDS))
        self.weights = [1.0] * len(everyone)
        self.aging_events = 0
        interval = cfg.pool_interval
        for lo in range(0, len(warm), interval):
            chunk = warm[lo:lo + interval]
            ids, ends = chunk.distinct_token_ids()
            self.members.partial_fit_many(ids, ends, chunk.labels.tolist(),
                                          everyone)

        timeline = MetricsTimeline(window=cfg.metrics_window)
        for lo in range(0, len(rest), interval):
            chunk = rest[lo:lo + interval]
            ids, ends = chunk.distinct_token_ids()
            votes = self.members.score_many(ids, ends) > 0.0
            # ((0 + ±w0) + ±w1) + ±w2 per row, as the per-sample vote added
            score = sum(np.where(vote, weight, -weight)
                        for weight, vote in zip(self.weights, votes))
            pseudo = score > 0.0
            predictions = pseudo.tolist()
            for prediction, label in zip(predictions, chunk.labels.tolist()):
                timeline.record(prediction, label)
            if len(chunk) < interval:
                break
            hits = np.count_nonzero(votes == pseudo, axis=1).tolist()
            ji = [count / interval for count in hits]
            aged = [m for m, value in enumerate(ji)
                    if value < POOL_TAU_LOW or value > POOL_TAU_HIGH]
            if aged:
                self.aging_events += 1
                timeline.record_event(lo + interval, "pool", "drift")
                self.members.partial_fit_many(ids, ends, predictions, aged)
            self.weights = [max(value, 0.05) for value in ji]
        return timeline


# ---------------------------------------------------------------------------
# Growing-warmup sweep over equal time chunks
# ---------------------------------------------------------------------------

def _chunk_sizes(n: int, folds: int) -> list[int]:
    base, extra = divmod(n, folds)
    return [base + (1 if i < extra else 0) for i in range(folds)]


def run_multiple_time_spans(stream: SampleStream,
                            config: ExperimentConfig) -> tuple[dict, dict]:
    """Cut the stream into equal chunks; sweep warmup = first i chunks.

    For i = 1 .. folds-1, the configured inner strategy runs with the
    first i chunks as warmup and the remainder as the evaluated stream.
    Returns ``(summary, report)``: the mean of each metric plus the total
    drift count, and the ``mts.json`` payload ``{"folds": [{"iteration",
    "warmup_size", **fold summary}], "f1_mean", "f1_std"}``.
    """
    _require_labels(stream)
    folds = config.mts_folds
    if len(stream) < folds:
        raise InsufficientData(
            f"need at least {folds} samples for {folds} chunks")
    sizes = _chunk_sizes(len(stream), folds)
    reports = []
    warm = 0
    for iteration in range(1, folds):
        warm += sizes[iteration - 1]
        inner_cfg = replace(config, strategy=config.mts_inner, warmup=warm)
        if config.mts_inner == "pool":
            timeline = ModelPoolPipeline(inner_cfg).run(stream)
        else:
            timeline = FnFPipeline(inner_cfg).run(stream)
        reports.append({"iteration": iteration, "warmup_size": warm,
                        **timeline.summary()})
    f1_values = np.array([r["f1"] for r in reports])
    summary = {name: float(sum(r[name] for r in reports) / len(reports))
               for name in METRIC_NAMES}
    summary["drifts"] = sum(r["drifts"] for r in reports)
    return summary, {"folds": reports, "f1_mean": float(f1_values.mean()),
                     "f1_std": float(f1_values.std())}
