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

import numpy as np

from .drift import (AdwinDetector, DdmDetector, DriftLevel, EddmDetector,
                    KswinDetector, NeverFiresDetector)
from .errors import (ClassMissingInFold, ConfigError, InsufficientData,
                     InsufficientTimeSpan, UnlabeledSample, WarmupTooSmall)
from .evaluation import (METRIC_NAMES, ConfusionCounts, MetricsTimeline,
                         PeriodMetrics, metrics)
from .features import FeatureExtractorModel, fit_extractor, vocabulary_diff
from .learners import ArfEnsemble, PoolMember, SgdClassifier, POOL_MEMBER_KINDS
from .stream import RawSample, SampleStream, split_temporal

log = logging.getLogger(__name__)

STRATEGIES = ("cross-val", "temporal", "iwc", "fnf-update", "fnf-retrain",
              "pool", "mts", "static")
DETECTORS = ("ddm", "eddm", "adwin", "kswin", "none")
CLASSIFIERS = ("arf", "sgd")


# the values each annotation of ExperimentConfig admits; a bool is admitted
# only by "bool", although Python counts it as an int
_FIELD_TYPES = {"str": str, "bool": bool, "int": numbers.Integral,
                "float": numbers.Real, "int | str": (numbers.Integral, str),
                "int | None": (numbers.Integral, type(None))}


@dataclass
class ExperimentConfig:
    """Flat bag of every tunable knob, one field per CLI flag."""

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
    # detector knobs
    ddm_min_instances: int = 30
    ddm_warning_factor: float = 2.0
    ddm_drift_factor: float = 3.0
    eddm_min_errors: int = 30
    eddm_warning_ratio: float = 0.95
    eddm_drift_ratio: float = 0.90
    adwin_delta: float = 0.002
    adwin_max_buckets: int | None = 5
    kswin_window: int = 100
    kswin_stat_size: int = 30
    kswin_alpha: float = 0.005
    kswin_sampled: bool = False
    # classifier knobs
    sgd_learning_rate: float = 0.01
    sgd_l2: float = 1e-4
    hoeffding_grace: int = 200
    hoeffding_delta: float = 1e-7
    hoeffding_tie: float = 0.05
    arf_trees: int = 10
    arf_lambda: float = 6.0
    # model-pool knobs
    pool_tau_low: float = 0.3
    pool_tau_high: float = 0.7
    pool_interval: int = 500
    # reporting knobs
    fading: float = 0.999
    metrics_window: int = 1000

    def validate(self) -> None:
        for spec in fields(self):
            value = getattr(self, spec.name)
            if (isinstance(value, bool) != (spec.type == "bool")
                    or not isinstance(value, _FIELD_TYPES[spec.type])):
                raise ConfigError(f"{spec.name} must be {spec.type}, "
                                  f"got {value!r}")
            if spec.type == "float" and not math.isfinite(value):
                raise ConfigError(f"{spec.name} must be finite, "
                                  f"got {value!r}")
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"unknown strategy {self.strategy!r}; "
                              f"choose from {', '.join(STRATEGIES)}")
        if self.detector not in DETECTORS:
            raise ConfigError(f"unknown detector {self.detector!r}; "
                              f"choose from {', '.join(DETECTORS)}")
        if self.classifier not in CLASSIFIERS:
            raise ConfigError(f"unknown classifier {self.classifier!r}; "
                              f"choose from {', '.join(CLASSIFIERS)}")
        if self.mts_inner not in ("fnf-update", "fnf-retrain", "pool"):
            raise ConfigError(
                f"mts_inner must be fnf-update, fnf-retrain or pool, "
                f"got {self.mts_inner!r}")
        if self.seed < 0:  # np.random.SeedSequence rejects it mid-run
            raise ConfigError("seed must be >= 0")
        if self.vocab_size < 1:
            raise ConfigError("vocab_size must be >= 1")
        if not 0.0 < self.split_fraction < 1.0:
            raise ConfigError("split_fraction must lie in (0, 1)")
        if self.cv_folds < 2:
            raise ConfigError("cv_folds must be >= 2")
        if self.mts_folds < 2:
            raise ConfigError("mts_folds must be >= 2")
        if not 0.0 <= self.pool_tau_low < self.pool_tau_high <= 1.0:
            raise ConfigError("need 0 <= pool_tau_low < pool_tau_high <= 1")
        if self.pool_interval < 1:
            raise ConfigError("pool_interval must be >= 1")
        if not 0.0 < self.fading <= 1.0:
            raise ConfigError("fading must lie in (0, 1]")
        if self.metrics_window < 1:
            raise ConfigError("metrics_window must be >= 1")
        if self.arf_trees < 1:
            raise ConfigError("arf_trees must be >= 1")
        if self.arf_lambda <= 0.0:
            raise ConfigError("arf_lambda must be > 0")
        if not 0.0 < self.hoeffding_delta < 1.0:
            raise ConfigError("hoeffding_delta must lie in (0, 1)")
        if self.sgd_learning_rate <= 0.0:
            raise ConfigError("sgd_learning_rate must be > 0")
        if self.sgd_l2 < 0.0 or self.sgd_learning_rate * self.sgd_l2 >= 1.0:
            # at learning rate x L2 >= 1 the decay flips the weights' sign
            raise ConfigError(
                "need sgd_l2 >= 0 and sgd_learning_rate * sgd_l2 < 1")
        if self.hoeffding_grace < 1:
            raise ConfigError("hoeffding_grace must be >= 1")
        if self.hoeffding_tie < 0.0:
            raise ConfigError("hoeffding_tie must be >= 0")
        # the ranges the detector constructors enforce (DDM and EDDM
        # enforce none), checked here so they fail before any run starts
        if not 0.0 < self.adwin_delta < 1.0:
            raise ConfigError("adwin_delta must lie in (0, 1)")
        if self.adwin_max_buckets is not None and self.adwin_max_buckets < 2:
            raise ConfigError("adwin_max_buckets must be >= 2 (or null)")
        if not 1 <= self.kswin_stat_size < self.kswin_window:
            raise ConfigError("need kswin_window > kswin_stat_size >= 1")
        if not 0.0 < self.kswin_alpha < 1.0:
            raise ConfigError("kswin_alpha must lie in (0, 1)")
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
    cutoff = stream[0].timestamp + seconds
    count = 0
    for sample in stream:
        if sample.timestamp < cutoff:
            count += 1
        else:
            break
    return count


def _require_labels(samples) -> None:
    for sample in samples:
        if sample.label is None:
            raise UnlabeledSample(
                f"sample {sample.id!r} has no label; evaluation strategies "
                f"need fully labeled streams")


def _split_warmup(stream: SampleStream,
                  warmup: int | str) -> tuple[list, list]:
    """(warmup, evaluated) samples of a labeled stream.

    The warmup slice must hold both classes.
    """
    _require_labels(stream)
    count = resolve_warmup_count(stream, warmup)
    warm = list(stream.samples[:count])
    if {s.label for s in warm} != {0, 1}:
        raise WarmupTooSmall(
            "warmup slice must be non-empty and contain both classes")
    return warm, list(stream.samples[count:])


def build_detector(config: ExperimentConfig, seed: int = 0):
    name = config.detector
    if name == "ddm":
        return DdmDetector(config.ddm_min_instances,
                           config.ddm_warning_factor,
                           config.ddm_drift_factor)
    if name == "eddm":
        return EddmDetector(config.eddm_min_errors,
                            config.eddm_warning_ratio,
                            config.eddm_drift_ratio)
    if name == "adwin":
        return AdwinDetector(config.adwin_delta, config.adwin_max_buckets)
    if name == "kswin":
        return KswinDetector(config.kswin_window, config.kswin_stat_size,
                             config.kswin_alpha, config.kswin_sampled,
                             seed=seed)
    return NeverFiresDetector()


def build_classifier(config: ExperimentConfig, dim: int, seed: int = 0):
    name = config.classifier
    if name == "sgd":
        return SgdClassifier(dim, config.sgd_learning_rate, config.sgd_l2)
    return ArfEnsemble(dim, config.arf_trees, config.arf_lambda, seed=seed,
                       grace_period=config.hoeffding_grace,
                       split_confidence=config.hoeffding_delta,
                       tie_threshold=config.hoeffding_tie)


def _train_on(classifier, extractor: FeatureExtractorModel, samples) -> None:
    """Single prequential-order pass of partial_fit over a sample batch."""
    for vec, sample in zip(extractor.iter_transform(samples), samples):
        classifier.partial_fit(vec, sample.label)


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
    ``extractor_fingerprints`` the content hash of every extractor that was
    ever active, ``vocab_diff_events`` the per-retrain vocabulary diffs and
    ``degenerate_drifts`` the number of drift signals whose buffer was
    empty (models kept unchanged in that case).  Each ``run`` starts these
    records afresh.
    """

    def __init__(self, config: ExperimentConfig,
                 classifier_factory=None, detector_factory=None):
        config.validate()
        if config.strategy not in ("fnf-update", "fnf-retrain", "static"):
            raise ConfigError(
                f"FnFPipeline cannot run strategy {config.strategy!r}")
        self.config = config
        self._classifier_factory = classifier_factory or build_classifier
        self._detector_factory = detector_factory or build_detector
        self.extractor: FeatureExtractorModel | None = None
        self.classifier = None
        self.detector = None

    def _drift_buffer(self, rest: list, warning_from: int | None,
                      step: int) -> list:
        """The samples to rebuild on; ``rest[:step]`` are those seen so far.
        A Normal level closes a warning episode, so its steps are contiguous."""
        name = self.config.detector
        if name in ("ddm", "eddm"):
            return rest[warning_from - 1:step - 1] if warning_from else []
        if name == "adwin":
            return rest[max(0, step - self.detector.width):step]
        if name == "kswin":
            return rest[max(0, step - self.detector.stat_size):step]
        return []

    def _rebuild(self, buffer: list, step: int) -> None:
        """A fresh classifier on ``buffer``; under fnf-retrain also a fresh
        extractor, while fnf-update keeps the extractor in force."""
        if self.config.strategy == "fnf-retrain":
            new_extractor = fit_extractor(buffer, self.config.vocab_size)
            self.vocab_diff_events.append(
                (step, vocabulary_diff(self.extractor, new_extractor)))
            self.extractor = new_extractor
            self.extractor_fingerprints.append(new_extractor.fingerprint())
        self.classifier = self.classifier.clone_untrained()
        _train_on(self.classifier, self.extractor, buffer)
        self.rebuild_count += 1

    def run(self, stream: SampleStream) -> MetricsTimeline:
        cfg = self.config
        warm, rest = _split_warmup(stream, cfg.warmup)
        self.extractor_fingerprints: list[str] = []
        self.vocab_diff_events: list[tuple[int, list]] = []
        self.degenerate_drifts = 0
        self.rebuild_count = 0
        clf_seed, det_seed = _spawn_seeds(cfg.seed, 2)
        self.extractor = fit_extractor(warm, cfg.vocab_size)
        self.extractor_fingerprints.append(self.extractor.fingerprint())
        self.classifier = self._classifier_factory(cfg, self.extractor.dim,
                                                   clf_seed)
        _train_on(self.classifier, self.extractor, warm)
        static = cfg.strategy == "static"
        self.detector = None if static else self._detector_factory(cfg, det_seed)

        timeline = MetricsTimeline(fading=cfg.fading,
                                   window=cfg.metrics_window)
        warning_from = None  # first step of the open warning episode
        vectors = self.extractor.iter_transform(rest)
        for step, sample in enumerate(rest, start=1):
            vec = next(vectors)
            prediction = self.classifier.predict(vec)
            timeline.record(prediction, sample.label)
            if static:
                continue
            error = float(prediction != sample.label)
            level = self.detector.update(error)
            if level is DriftLevel.NORMAL:
                self.classifier.partial_fit(vec, sample.label)
                warning_from = None  # a warning episode fizzles out
            elif level is DriftLevel.WARNING:
                self.classifier.partial_fit(vec, sample.label)
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
    config.validate()
    _require_labels(stream)
    groups: list[tuple[tuple[int, int], list[RawSample]]] = []
    for sample in stream:
        key = _month_key(sample.timestamp)
        if not groups or groups[-1][0] != key:
            groups.append((key, []))
        groups[-1][1].append(sample)
    if len(groups) < 2:
        raise InsufficientTimeSpan(
            "month-by-month evaluation needs a stream spanning at least two "
            "calendar months")

    seeds = _spawn_seeds(config.seed, len(groups))
    timeline = MetricsTimeline(fading=config.fading,
                               window=config.metrics_window)
    trained: list[RawSample] = list(groups[0][1])
    for month_idx, (key, month_samples) in enumerate(groups[1:], start=1):
        predictions = _fit_and_predict(trained, month_samples, config,
                                       seeds[month_idx])
        labels = [sample.label for sample in month_samples]
        for prediction, label in zip(predictions, labels):
            timeline.record(prediction, label)
        timeline.periods.append(
            PeriodMetrics(label=f"{key[0]:04d}-{key[1]:02d}",
                          counts=ConfusionCounts.of(predictions, labels)))
        trained.extend(month_samples)
    return timeline


# ---------------------------------------------------------------------------
# Temporal split and stratified cross-validation baselines
# ---------------------------------------------------------------------------

def run_temporal_split(stream: SampleStream,
                       config: ExperimentConfig) -> dict:
    """Train once on the oldest fraction, evaluate on the rest."""
    config.validate()
    _require_labels(stream)
    if len(stream) < 2:
        raise InsufficientData("temporal split needs at least two samples")
    train, test = split_temporal(stream, config.split_fraction)
    if len(train) == 0 or len(test) == 0:
        raise InsufficientData(
            f"split fraction {config.split_fraction} leaves an empty side "
            f"for n={len(stream)}")
    seed, = _spawn_seeds(config.seed, 1)
    counts = ConfusionCounts.of(
        _fit_and_predict(train, test, config, seed),
        [sample.label for sample in test])
    vals = metrics(counts)
    out = {name: vals[name] for name in METRIC_NAMES}
    out["counts"] = counts
    return out


def run_cross_validation(stream: SampleStream,
                         config: ExperimentConfig) -> dict:
    """Stratified ``cv_folds``-fold evaluation with a fresh
    extractor+classifier per fold.

    Reported metrics are the unweighted mean of the per-fold metrics; the
    per-fold confusion counts are returned alongside for recomputation.
    """
    config.validate()
    _require_labels(stream)
    k = config.cv_folds
    if len(stream) < k:
        raise InsufficientData(f"need at least {k} samples for {k} folds")

    shuffle_seed, *fold_seeds = _spawn_seeds(config.seed, k + 1)
    rng = np.random.default_rng(shuffle_seed)
    fold_of = np.empty(len(stream), dtype=int)
    for cls in (0, 1):
        indices = np.flatnonzero(
            np.fromiter((s.label == cls for s in stream), bool, len(stream)))
        rng.shuffle(indices)
        for pos, sample_idx in enumerate(indices):
            fold_of[sample_idx] = pos % k

    per_fold = []
    for fold in range(k):
        train = [s for i, s in enumerate(stream) if fold_of[i] != fold]
        test = [s for i, s in enumerate(stream) if fold_of[i] == fold]
        train_labels = {s.label for s in train}
        if train_labels != {0, 1}:
            raise ClassMissingInFold(
                f"fold {fold}: training split lost a class "
                f"(has {sorted(train_labels)})")
        per_fold.append(ConfusionCounts.of(
            _fit_and_predict(train, test, config, fold_seeds[fold]),
            [sample.label for sample in test]))

    fold_metrics = [metrics(c) for c in per_fold]
    out = {name: float(np.mean([m[name] for m in fold_metrics]))
           for name in METRIC_NAMES}
    out["per_fold"] = per_fold
    return out


# ---------------------------------------------------------------------------
# Pseudo-labeling model pool
# ---------------------------------------------------------------------------

class TokenIndexer:
    """Growing bijection (attribute, token) -> feature id, handed out in
    first-seen order: attributes in the sample's order, tokens in order."""

    def __init__(self):
        self._tables: dict[str, dict[str, int]] = {}
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def encode(self, sample: RawSample) -> np.ndarray:
        """The sample's distinct token ids as a sorted ``np.intp`` array,
        adding unseen tokens; the form ``PoolMember`` takes as given."""
        seen = set()
        for attr, tokens in sample.attributes.items():
            table = self._tables.setdefault(attr, {})
            found = set(map(table.get, tokens))
            if None in found:
                for token in tokens:
                    if token not in table:
                        table[token] = self._size
                        self._size += 1
                found = set(map(table.get, tokens))
            seen |= found
        ids = np.fromiter(seen, np.intp, len(seen))
        ids.sort()
        return ids


class ModelPoolPipeline:
    """Three linear learners vote; disagreeing or stale members get refreshed.

    Every sample receives a pseudo-label from the weighted vote of the
    members (weights are each member's agreement fraction from the previous
    check interval).  Every ``pool_interval`` steps each member's agreement
    with the vote is measured; members outside (tau_low, tau_high) are
    considered aged and replay the interval's samples with their
    pseudo-labels.  True labels are used for metrics only.  Each ``run``
    starts from untrained members; after it, ``members``, ``weights``,
    ``indexer`` and ``aging_events`` hold that run's final state.
    """

    def __init__(self, config: ExperimentConfig):
        config.validate()
        self.config = config

    def run(self, stream: SampleStream) -> MetricsTimeline:
        cfg = self.config
        warm, rest = _split_warmup(stream, cfg.warmup)
        self.members = [PoolMember(kind) for kind in POOL_MEMBER_KINDS]
        self.weights = [1.0] * len(self.members)
        self.indexer = TokenIndexer()
        self.aging_events = 0
        for sample in warm:
            indices = self.indexer.encode(sample)
            for member in self.members:
                member.partial_fit(indices, sample.label)

        timeline = MetricsTimeline(fading=cfg.fading,
                                   window=cfg.metrics_window)
        buffer: list[tuple[np.ndarray, int]] = []
        agreements = [0] * len(self.members)
        for step, sample in enumerate(rest, start=1):
            indices = self.indexer.encode(sample)
            votes = [member.predict(indices) for member in self.members]
            score = sum(w * (2 * v - 1) for w, v in zip(self.weights, votes))
            pseudo = 1 if score > 0.0 else 0
            timeline.record(pseudo, sample.label)
            buffer.append((indices, pseudo))
            for i, vote in enumerate(votes):
                agreements[i] += int(vote == pseudo)
            if len(buffer) == cfg.pool_interval:
                ji = [hits / len(buffer) for hits in agreements]
                aged = [value < cfg.pool_tau_low or value > cfg.pool_tau_high
                        for value in ji]
                if any(aged):
                    self.aging_events += 1
                    timeline.record_event(step, "pool", "drift")
                    for member, is_aged in zip(self.members, aged):
                        if is_aged:
                            for indices_b, pseudo_b in buffer:
                                member.partial_fit(indices_b, pseudo_b)
                self.weights = [max(value, 0.05) for value in ji]
                buffer.clear()
                agreements = [0] * len(self.members)
        return timeline


# ---------------------------------------------------------------------------
# Growing-warmup sweep over equal time chunks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FoldReport:
    iteration: int
    warmup_size: int
    summary: dict


@dataclass(frozen=True)
class MtsReport:
    """One report per warmup size, their F1 mean and std, and ``summary``:
    the mean of each metric plus the total drift count."""

    folds: list[FoldReport]
    f1_mean: float
    f1_std: float
    summary: dict


def _chunk_sizes(n: int, folds: int) -> list[int]:
    base, extra = divmod(n, folds)
    return [base + (1 if i < extra else 0) for i in range(folds)]


def run_multiple_time_spans(stream: SampleStream,
                            config: ExperimentConfig) -> MtsReport:
    """Cut the stream into equal chunks; sweep warmup = first i chunks.

    For i = 1 .. folds-1, the configured inner strategy runs with the
    first i chunks as warmup and the remainder as the evaluated stream.
    """
    config.validate()
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
        reports.append(FoldReport(iteration=iteration, warmup_size=warm,
                                  summary=timeline.summary()))
    f1_values = np.array([r.summary["f1"] for r in reports])
    summary = {name: float(sum(r.summary[name] for r in reports)
                           / len(reports))
               for name in METRIC_NAMES}
    summary["drifts"] = sum(r.summary["drifts"] for r in reports)
    return MtsReport(folds=reports, f1_mean=float(f1_values.mean()),
                     f1_std=float(f1_values.std()), summary=summary)
