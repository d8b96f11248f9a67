"""Independent brute-force reference implementations used by the tests.

Everything here is deliberately written from first principles on plain
Python data structures (lists, dicts, math) so that it shares no code path
with the library implementations it checks.  Two exceptions are former
library code kept as bit-exact references of their faster replacements:
``per_sample_transform``, the extractor's one-sample-at-a-time numpy
transform (reference of the block transform),
``ReferenceAdwinDetector``, the ADWIN that rebuilds its bucket list and scans
every boundary on each update (reference of the incremental detector), and
``ReferenceTokenIndexer`` with ``ReferencePoolMember``, the pool path on
plain index lists that each member re-sorts and deduplicates (reference of
the sorted-id path), and ``ReferenceTimeline``, the timeline that keeps
running confusion counts and error bits next to the prediction and label
lists (reference of the timeline that derives them from the lists).
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

from driftstream import DriftLevel, ValueOutOfRange
from driftstream.evaluation import (METRIC_NAMES, ConfusionCounts,
                                    DriftEvent, metrics, prequential_error)
from driftstream.learners import POOL_MEMBER_KINDS


# ---------------------------------------------------------------------------
# Adaptive-window cut search (uncompressed)
# ---------------------------------------------------------------------------

def adwin_cut_eps(n0: int, n1: int, n: int, delta: float) -> float:
    inv_m = 1.0 / n0 + 1.0 / n1
    return math.sqrt(inv_m * math.log(4.0 * n / delta) / 2.0)


def adwin_oracle_step(window: list[float], delta: float) -> tuple[bool, list[float]]:
    """One post-insert shrink pass over an explicit value window.

    Scans every cut point oldest-to-newest; on the first triggering cut the
    oldest value is dropped and the scan restarts, until no cut triggers.
    Returns (changed, surviving window).
    """
    window = list(window)
    changed = False
    while len(window) >= 2:
        n = len(window)
        total = 0.0
        for v in window:
            total += v
        cut = False
        s0 = 0.0
        n0 = 0
        for v in window[:-1]:
            n0 += 1
            s0 += v
            n1 = n - n0
            s1 = total - s0
            eps = adwin_cut_eps(n0, n1, n, delta)
            if abs(s0 / n0 - s1 / n1) > eps:
                cut = True
                break
        if not cut:
            break
        changed = True
        window = window[1:]
    return changed, window


def adwin_oracle_run(values, delta: float):
    """Full replay: per-step change decisions plus the final window."""
    window: list[float] = []
    decisions = []
    for v in values:
        window.append(float(v))
        changed, window = adwin_oracle_step(window, delta)
        decisions.append(changed)
    return decisions, window


# ---------------------------------------------------------------------------
# Bucket-scan ADWIN (bit-exact reference of the incremental detector)
# ---------------------------------------------------------------------------

class ReferenceAdwinDetector:
    """Adaptive windowing with an exponential bucket histogram.

    The window of recent values is summarized by rows of buckets; row r
    holds buckets of 2^r elements each (sum only — counts are implied).
    When a row exceeds ``max_buckets`` buckets, its two oldest buckets merge
    into one bucket of the next row.  Passing ``max_buckets=None`` disables
    compression entirely, which keeps every value in a size-1 bucket and
    makes the detector exactly equivalent to an exhaustive cut search.

    On every update (or every ``check_interval`` updates) the detector scans
    all bucket boundaries oldest-to-newest and cuts when the sub-window
    means differ by more than

        eps = sqrt(ln(4 / delta') / (2 m)),   1/m = 1/|W0| + 1/|W1|,

    with delta' = delta / n for the current window length n.  A cut drops
    the oldest bucket and the scan restarts, possibly shrinking repeatedly
    within a single update.
    """

    def __init__(self, delta: float = 0.002,
                 max_buckets: int | None = 5,
                 check_interval: int = 1):
        if not 0.0 < delta < 1.0:
            raise ValueOutOfRange(f"delta {delta} not in (0, 1)")
        if max_buckets is not None and max_buckets < 2:
            raise ValueOutOfRange("max_buckets must be >= 2 (or None)")
        if check_interval < 1:
            raise ValueOutOfRange("check_interval must be >= 1")
        self.delta = delta
        self.max_buckets = max_buckets
        self.check_interval = check_interval
        self.reset()

    def reset(self) -> None:
        # _rows[r] is a list of bucket sums, oldest first; row r buckets
        # cover 2^r elements each.
        self._rows: list[list[float]] = [[]]
        self._count = 0
        self._sum = 0.0
        self._ticks = 0

    # -- window queries ----------------------------------------------------

    @property
    def width(self) -> int:
        return self._count

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    def window_values(self) -> list[float]:
        """The retained window, oldest first (uncompressed detectors only)."""
        if self.max_buckets is not None:
            raise ValueError("window_values requires max_buckets=None")
        return list(self._rows[0])

    # -- maintenance -------------------------------------------------------

    def _insert(self, value: float) -> None:
        self._rows[0].append(value)
        self._count += 1
        self._sum += value
        if self.max_buckets is None:
            return
        row = 0
        while len(self._rows[row]) > self.max_buckets:
            oldest = self._rows[row].pop(0)
            second = self._rows[row].pop(0)
            if row + 1 == len(self._rows):
                self._rows.append([])
            self._rows[row + 1].append(oldest + second)
            row += 1

    def _buckets_old_to_new(self) -> list[tuple[int, float]]:
        out = []
        for row in range(len(self._rows) - 1, -1, -1):
            size = 1 << row
            for bucket_sum in self._rows[row]:
                out.append((size, bucket_sum))
        return out

    def _drop_oldest_bucket(self) -> None:
        for row in range(len(self._rows) - 1, -1, -1):
            if self._rows[row]:
                self._rows[row].pop(0)
                self._count -= 1 << row
                break
        while len(self._rows) > 1 and not self._rows[-1]:
            self._rows.pop()
        # Recompute the total oldest-to-newest so that the running sum stays
        # bit-identical to a fresh left-to-right sum over the survivors.
        total = 0.0
        for _, bucket_sum in self._buckets_old_to_new():
            total += bucket_sum
        self._sum = total

    def _shrink(self) -> bool:
        changed = False
        reduced = True
        while reduced:
            reduced = False
            n = self._count
            if n < 2:
                break
            ln_term = math.log(4.0 * n / self.delta)
            buckets = self._buckets_old_to_new()
            n0 = 0
            s0 = 0.0
            for size, bucket_sum in buckets[:-1]:
                n0 += size
                s0 += bucket_sum
                n1 = n - n0
                s1 = self._sum - s0
                inv_m = 1.0 / n0 + 1.0 / n1
                eps = math.sqrt(inv_m * ln_term / 2.0)
                if abs(s0 / n0 - s1 / n1) > eps:
                    changed = True
                    reduced = True
                    self._drop_oldest_bucket()
                    break
        return changed

    def update(self, value: float) -> DriftLevel:
        if not 0.0 <= value <= 1.0:
            raise ValueOutOfRange(f"ADWIN input {value} outside [0, 1]")
        self._insert(float(value))
        self._ticks += 1
        if self._ticks % self.check_interval == 0 and self._shrink():
            return DriftLevel.DRIFT
        return DriftLevel.NORMAL


# ---------------------------------------------------------------------------
# Two-sample KS statistic by direct ECDF comparison
# ---------------------------------------------------------------------------

def brute_ks_statistic(a, b) -> float:
    a = [float(x) for x in a]
    b = [float(x) for x in b]
    best = 0.0
    for point in a + b:
        f_a = sum(1 for x in a if x <= point) / len(a)
        f_b = sum(1 for x in b if x <= point) / len(b)
        best = max(best, abs(f_a - f_b))
    return best


# ---------------------------------------------------------------------------
# Error-rate detector recurrences (scalar replays)
# ---------------------------------------------------------------------------

def ddm_oracle_run(bits, min_instances=30, warn=2.0, drift=3.0):
    """Replay of the p/s minimum-tracking recurrence; returns level strings."""
    levels = []
    n = 0
    p = 0.0
    p_min = s_min = min_sum = math.inf
    for bit in bits:
        n += 1
        p += (bit - p) / n
        s = math.sqrt(p * (1 - p) / n)
        level = "normal"
        if n >= min_instances:
            curr = p + s
            if curr < min_sum:
                p_min, s_min, min_sum = p, s, curr
            elif curr > min_sum:
                if curr >= p_min + drift * s_min:
                    level = "drift"
                    n = 0
                    p = 0.0
                    p_min = s_min = min_sum = math.inf
                elif curr >= p_min + warn * s_min:
                    level = "warning"
        levels.append(level)
    return levels


def eddm_oracle_run(bits, min_errors=30, warn=0.95, drift=0.90):
    """Replay of the error-spacing recurrence; returns level strings."""
    levels = []
    state = _fresh_eddm()
    for bit in bits:
        state["n"] += 1
        if bit < 0.5:
            levels.append(state["level"])
            continue
        state["errors"] += 1
        if state["last"] is None:
            state["last"] = state["n"]
            levels.append(state["level"])
            continue
        d = state["n"] - state["last"]
        state["last"] = state["n"]
        state["k"] += 1
        delta = d - state["mean"]
        state["mean"] += delta / state["k"]
        state["m2"] += delta * (d - state["mean"])
        m2s = state["mean"] + 2.0 * math.sqrt(state["m2"] / state["k"])
        if m2s > state["max"]:
            state["max"] = m2s
            state["level"] = "normal"
        elif state["errors"] >= min_errors and state["max"] > 0:
            ratio = m2s / state["max"]
            if ratio < drift:
                levels.append("drift")
                state = _fresh_eddm()
                continue
            state["level"] = "warning" if ratio < warn else "normal"
        levels.append(state["level"])
    return levels


def _fresh_eddm():
    return {"n": 0, "errors": 0, "last": None, "k": 0,
            "mean": 0.0, "m2": 0.0, "max": 0.0, "level": "normal"}


# ---------------------------------------------------------------------------
# Naive TF-IDF + min-max pipeline on raw dicts
# ---------------------------------------------------------------------------

def naive_fit_transform(train_docs, query_docs, k):
    """Brute-force reference of the extractor pipeline.

    ``train_docs`` and ``query_docs`` are lists of dicts attribute ->
    token list.  Returns one flat list of floats per query doc.  The block
    layout is (attribute order of the first training doc) x k columns.
    """
    attrs = list(train_docs[0].keys())
    n_docs = len(train_docs)

    vocab = {}
    idf = {}
    for attr in attrs:
        tf = Counter()
        df = Counter()
        for doc in train_docs:
            tf.update(doc[attr])
            df.update(set(doc[attr]))
        ranked = sorted(tf, key=lambda t: (-tf[t], t))[:k]
        vocab[attr] = ranked
        idf[attr] = {t: math.log((1 + n_docs) / (1 + df[t])) + 1.0
                     for t in ranked}

    def raw_vector(doc):
        vec = []
        for attr in attrs:
            counts = Counter(doc[attr])
            block = [counts.get(t, 0) * idf[attr][t] for t in vocab[attr]]
            block += [0.0] * (k - len(block))
            norm = math.sqrt(sum(v * v for v in block))
            if norm > 0:
                block = [v / norm for v in block]
            vec.extend(block)
        return vec

    train_raw = [raw_vector(d) for d in train_docs]
    dim = len(attrs) * k
    lo = [min(row[j] for row in train_raw) for j in range(dim)]
    hi = [max(row[j] for row in train_raw) for j in range(dim)]

    out = []
    for doc in query_docs:
        raw = raw_vector(doc)
        scaled = []
        for j in range(dim):
            span = hi[j] - lo[j]
            v = (raw[j] - lo[j]) / (span if span > 0 else 1.0)
            scaled.append(min(1.0, max(0.0, v)))
        out.append(scaled)
    return out


# ---------------------------------------------------------------------------
# Per-sample numpy transform (bit-exact reference of the block transform)
# ---------------------------------------------------------------------------

def per_sample_raw_vector(extractor, sample) -> np.ndarray:
    """TF-IDF vector with per-attribute L2 normalization, before scaling."""
    k = extractor.k
    vec = np.zeros(extractor.dim, dtype=float)
    for a_idx, vocab in enumerate(extractor.vocabularies):
        counts = Counter(sample.attributes.get(vocab.attribute_name, ()))
        block = np.zeros(k, dtype=float)
        for tok, count in counts.items():
            col = vocab.token_to_index.get(tok)
            if col is not None:
                block[col] = count * vocab.idf[col]
        norm = np.linalg.norm(block)
        if norm > 0.0:
            block /= norm
        vec[a_idx * k:(a_idx + 1) * k] = block
    return vec


def per_sample_transform(extractor, sample) -> np.ndarray:
    """Min-max scaled and clamped ``per_sample_raw_vector``."""
    raw = per_sample_raw_vector(extractor, sample)
    span = extractor.minmax_max - extractor.minmax_min
    scale = np.where(span > 0.0, span, 1.0)
    scaled = (raw - extractor.minmax_min) / scale
    np.clip(scaled, 0.0, 1.0, out=scaled)
    return scaled


# ---------------------------------------------------------------------------
# Pool path on index lists (bit-exact reference of the sorted-id path)
# ---------------------------------------------------------------------------

class ReferenceTokenIndexer:
    """Growing bijection (attribute, token) -> feature index."""

    def __init__(self):
        self._index: dict[tuple[str, str], int] = {}

    def __len__(self) -> int:
        return len(self._index)

    def encode(self, sample) -> list[int]:
        """Binary-presence indices for a sample, adding unseen tokens."""
        seen = set()
        for attr, tokens in sample.attributes.items():
            for token in tokens:
                key = (attr, token)
                idx = self._index.get(key)
                if idx is None:
                    idx = len(self._index)
                    self._index[key] = idx
                seen.add(idx)
        return sorted(seen)


class ReferencePoolMember:
    """Linear model over a growing binary token-feature space.

    The feature space is extended on the fly as new tokens appear; new
    dimensions start at weight zero, so they do not disturb earlier
    decisions.  Inputs are sparse index lists (binary presence).  Update
    rules: "sgd-hinge" (eta * hinge subgradient), "perceptron"
    (mistake-driven) and "passive-aggressive" (PA-I with aggressiveness
    capped at C).  Prediction is sign(w.x + b) with 0 on the boundary.
    """

    def __init__(self, kind: str, learning_rate: float = 0.01,
                 aggressiveness: float = 1.0):
        if kind not in POOL_MEMBER_KINDS:
            raise ValueError(f"unknown pool member kind {kind!r}")
        self.kind = kind
        self.learning_rate = learning_rate
        self.aggressiveness = aggressiveness
        self.reset()

    def reset(self) -> None:
        self.weights = np.zeros(0, dtype=float)
        self.bias = 0.0

    def _ensure_capacity(self, max_index: int) -> None:
        if max_index >= self.weights.size:
            grown = np.zeros(max_index + 1, dtype=float)
            grown[:self.weights.size] = self.weights
            self.weights = grown

    def score(self, indices) -> float:
        if not len(indices):
            return self.bias
        idx = np.asarray(indices, dtype=int)
        idx = idx[idx < self.weights.size]
        return float(self.weights[idx].sum()) + self.bias

    def predict(self, indices) -> int:
        return 1 if self.score(indices) > 0.0 else 0

    def partial_fit(self, indices, y: int) -> None:
        indices = np.asarray(sorted(set(int(i) for i in indices)), dtype=int)
        if indices.size:
            self._ensure_capacity(int(indices.max()))
        y_signed = 1.0 if y == 1 else -1.0
        margin = y_signed * self.score(indices)
        if self.kind == "perceptron":
            if margin <= 0.0:
                self.weights[indices] += self.learning_rate * y_signed
                self.bias += self.learning_rate * y_signed
        elif self.kind == "sgd-hinge":
            if margin < 1.0:
                self.weights[indices] += self.learning_rate * y_signed
                self.bias += self.learning_rate * y_signed
        else:  # passive-aggressive (PA-I)
            loss = max(0.0, 1.0 - margin)
            if loss > 0.0:
                sq_norm = float(indices.size) + 1.0  # bias acts as constant input
                tau = min(self.aggressiveness, loss / sq_norm)
                self.weights[indices] += tau * y_signed
                self.bias += tau * y_signed


def reference_pool_run(warm, rest, pool_interval, tau_low, tau_high):
    """The model-pool loop on the reference indexer and members.

    Returns (pseudo-labels, steps of the aging events, members, vote
    weights).
    """
    members = [ReferencePoolMember(kind) for kind in POOL_MEMBER_KINDS]
    weights = [1.0] * len(members)
    indexer = ReferenceTokenIndexer()
    for sample in warm:
        indices = indexer.encode(sample)
        for member in members:
            member.partial_fit(indices, sample.label)
    predictions, event_steps = [], []
    buffer = []
    agreements = [0] * len(members)
    for step, sample in enumerate(rest, start=1):
        indices = indexer.encode(sample)
        votes = [member.predict(indices) for member in members]
        score = sum(w * (2 * v - 1) for w, v in zip(weights, votes))
        pseudo = 1 if score > 0.0 else 0
        predictions.append(pseudo)
        buffer.append((indices, pseudo))
        for i, vote in enumerate(votes):
            agreements[i] += int(vote == pseudo)
        if len(buffer) == pool_interval:
            ji = [hits / len(buffer) for hits in agreements]
            aged = [value < tau_low or value > tau_high for value in ji]
            if any(aged):
                event_steps.append(step)
                for member, is_aged in zip(members, aged):
                    if is_aged:
                        for indices_b, pseudo_b in buffer:
                            member.partial_fit(indices_b, pseudo_b)
            weights = [max(value, 0.05) for value in ji]
            buffer.clear()
            agreements = [0] * len(members)
    return predictions, event_steps, members, weights


# ---------------------------------------------------------------------------
# Prequential error recurrence
# ---------------------------------------------------------------------------

def prequential_oracle(bits, fading):
    curve = []
    s = b = 0.0
    for bit in bits:
        s = bit + fading * s
        b = 1.0 + fading * b
        curve.append(s / b)
    return curve


# ---------------------------------------------------------------------------
# Timeline with running counts
# ---------------------------------------------------------------------------

def reference_count(counts: ConfusionCounts, prediction: int,
                    label: int) -> None:
    """Route one pair into its confusion cell."""
    if prediction == 1 and label == 1:
        counts.tp += 1
    elif prediction == 1 and label == 0:
        counts.fp += 1
    elif prediction == 0 and label == 0:
        counts.tn += 1
    else:
        counts.fn += 1


class ReferenceTimeline:
    """Per-step prequential record of one evaluation run."""

    def __init__(self, fading: float = 0.999, window: int = 1000):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.fading = fading
        self.window = window
        self.predictions: list[int] = []
        self.labels: list[int] = []
        self.error_bits: list[int] = []
        self.confusion = ConfusionCounts()
        self.events: list[DriftEvent] = []
        self.periods = []

    @property
    def n_steps(self) -> int:
        return len(self.error_bits)

    def record(self, prediction: int, label: int) -> None:
        self.predictions.append(int(prediction))
        self.labels.append(int(label))
        self.error_bits.append(int(prediction != label))
        reference_count(self.confusion, prediction, label)

    def record_event(self, step: int, detector: str, level: str) -> None:
        if self.events and step <= self.events[-1].step:
            raise ValueError("event steps must be strictly increasing")
        self.events.append(DriftEvent(step=step, detector=detector, level=level))

    def faded_error(self) -> np.ndarray:
        return prequential_error(self.error_bits, self.fading)

    def drift_count(self) -> int:
        return sum(1 for e in self.events if e.level == "drift")

    def warning_count(self) -> int:
        return sum(1 for e in self.events if e.level == "warning")

    def summary(self) -> dict:
        if self.confusion.total == 0:
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
            counts = ConfusionCounts()
            for i in range(start, end):
                reference_count(counts, self.predictions[i], self.labels[i])
            out.append((end, counts))
        return out
