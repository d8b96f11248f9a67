"""Concept drift detectors over a stream of prediction-error values.

All detectors share one contract: ``update(value) -> DriftLevel`` where the
value is the per-sample error indicator (0.0 correct / 1.0 wrong, though
ADWIN and KSWIN accept any real in [0, 1]).  DDM and EDDM expose the full
Normal/Warning/Drift ladder; ADWIN and KSWIN have no warning level and jump
straight from Normal to Drift.  After a Drift signal DDM and EDDM reset to
a freshly constructed state, ADWIN keeps its surviving sub-window and KSWIN
keeps the most recent ``stat_size`` values.  That restart is the only
``reset()``: a run builds its detector fresh.
"""

from __future__ import annotations

import math
from enum import Enum
from itertools import accumulate

import numpy as np

from .errors import EmptyInput, ValueOutOfRange


class DriftLevel(Enum):
    NORMAL = "normal"
    WARNING = "warning"
    DRIFT = "drift"


# ---------------------------------------------------------------------------
# Two-sample Kolmogorov-Smirnov primitives
# ---------------------------------------------------------------------------

def ks_statistic(a, b) -> float:
    """Two-sample KS statistic: sup over pooled points of |ECDF_a - ECDF_b|."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise EmptyInput("ks_statistic needs two non-empty samples")
    pooled = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, pooled, side="right") / a.size
    cdf_b = np.searchsorted(b, pooled, side="right") / b.size
    return float(np.max(np.abs(cdf_a - cdf_b)))


def ks_pvalue(d: float, n: int, m: int) -> float:
    """Asymptotic two-sided p-value for a two-sample KS statistic ``d``.

    Uses the Kolmogorov survival series Q(lambda) = 2 * sum_{k>=1}
    (-1)^(k-1) exp(-2 k^2 lambda^2) with the small-sample correction
    lambda = (sqrt(n_e) + 0.12 + 0.11 / sqrt(n_e)) * d, n_e = n*m/(n+m).
    Terms are accumulated until they drop below 1e-10; the result is
    clamped to [0, 1].
    """
    if n < 1 or m < 1:
        raise EmptyInput("ks_pvalue needs positive sample sizes")
    if d <= 0.0:
        return 1.0
    n_eff = n * m / (n + m)
    root = math.sqrt(n_eff)
    lam = (root + 0.12 + 0.11 / root) * d
    if lam < 1e-6:
        # the alternating series degenerates as lambda -> 0; the limit is 1
        return 1.0
    total = 0.0
    sign = 1.0
    for k in range(1, 100001):
        term = math.exp(-2.0 * (k * lam) ** 2)
        if term < 1e-10:
            break
        total += sign * term
        sign = -sign
    p = 2.0 * total
    return min(1.0, max(0.0, p))


# ---------------------------------------------------------------------------
# DDM
# ---------------------------------------------------------------------------

class DdmDetector:
    """Error-rate drift detection via minimum-tracking of p + s.

    p_i is the running error rate after i samples, s_i = sqrt(p(1-p)/i) its
    standard error.  The detector remembers (p_min, s_min) at the update
    minimizing p + s.  Once the sum climbs back above the recorded minimum,
    Warning fires at p + s >= p_min + warning_factor * s_min and Drift at
    p + s >= p_min + drift_factor * s_min.  No signal is emitted before
    ``min_instances`` updates, and a Drift resets the detector.
    """

    def __init__(self, min_instances: int = 30,
                 warning_factor: float = 2.0,
                 drift_factor: float = 3.0):
        self.min_instances = min_instances
        self.warning_factor = warning_factor
        self.drift_factor = drift_factor
        self.reset()

    def reset(self) -> None:
        self.n = 0
        self.p = 0.0
        self.s = 0.0
        self.p_min = math.inf
        self.s_min = math.inf
        self.min_sum = math.inf

    def update(self, value: float) -> DriftLevel:
        error = 1.0 if value >= 0.5 else 0.0
        self.n += 1
        self.p += (error - self.p) / self.n
        self.s = math.sqrt(self.p * (1.0 - self.p) / self.n)
        if self.n < self.min_instances:
            return DriftLevel.NORMAL
        curr = self.p + self.s
        if curr < self.min_sum:
            self.p_min = self.p
            self.s_min = self.s
            self.min_sum = curr
            return DriftLevel.NORMAL
        if curr > self.min_sum:
            if curr >= self.p_min + self.drift_factor * self.s_min:
                self.reset()
                return DriftLevel.DRIFT
            if curr >= self.p_min + self.warning_factor * self.s_min:
                return DriftLevel.WARNING
        return DriftLevel.NORMAL


# ---------------------------------------------------------------------------
# EDDM
# ---------------------------------------------------------------------------

class EddmDetector:
    """Drift detection from the spacing between consecutive errors.

    Tracks the running mean p' and standard deviation s' of the distances
    (in samples) between consecutive errors and the maximum of p' + 2s'
    reached so far.  When (p' + 2s') / max falls below ``warning_ratio``
    the level is Warning, below ``drift_ratio`` it is Drift.  Ratios are
    only evaluated once ``min_errors`` errors were seen; a Drift resets the
    detector.  Between errors the last computed level is retained.
    """

    def __init__(self, min_errors: int = 30,
                 warning_ratio: float = 0.95,
                 drift_ratio: float = 0.90):
        self.min_errors = min_errors
        self.warning_ratio = warning_ratio
        self.drift_ratio = drift_ratio
        self.reset()

    def reset(self) -> None:
        self.n = 0
        self.n_errors = 0
        self.last_error_at = None
        self.n_distances = 0
        self.dist_mean = 0.0
        self.dist_m2 = 0.0
        self.max_m2s = 0.0
        self.level = DriftLevel.NORMAL

    def update(self, value: float) -> DriftLevel:
        error = value >= 0.5
        self.n += 1
        if not error:
            return self.level
        self.n_errors += 1
        if self.last_error_at is None:
            self.last_error_at = self.n
            return self.level
        distance = float(self.n - self.last_error_at)
        self.last_error_at = self.n
        self.n_distances += 1
        delta = distance - self.dist_mean
        self.dist_mean += delta / self.n_distances
        self.dist_m2 += delta * (distance - self.dist_mean)
        std = math.sqrt(self.dist_m2 / self.n_distances)
        m2s = self.dist_mean + 2.0 * std
        if m2s > self.max_m2s:
            self.max_m2s = m2s
            self.level = DriftLevel.NORMAL
        elif self.n_errors >= self.min_errors and self.max_m2s > 0.0:
            ratio = m2s / self.max_m2s
            if ratio < self.drift_ratio:
                self.reset()
                return DriftLevel.DRIFT
            if ratio < self.warning_ratio:
                self.level = DriftLevel.WARNING
            else:
                self.level = DriftLevel.NORMAL
        return self.level


# ---------------------------------------------------------------------------
# ADWIN
# ---------------------------------------------------------------------------

# A boundary is skipped only while its worst-case gap stays below eps shrunk
# by this factor, so the rounding of the running sums and of the horizon
# formula can never hide a cut that the exact scan would have made.
_HORIZON_SLACK = 1.0 - 1e-6
# No horizon reaches past this window length.  Up to it, K running-sum
# additions move a right-side mean by at most 2^-53 * (n + K), under a
# fortieth of the slack at the smallest eps such a window can have.
_HORIZON_MAX_WIDTH = 1 << 20


class AdwinDetector:
    """Adaptive windowing with an exponential bucket histogram.

    The window of recent values is summarized by rows of buckets; row r
    holds buckets of 2^r elements each.  When a row exceeds ``max_buckets``
    buckets, its two oldest buckets merge into one bucket of the next row.
    Passing ``max_buckets=None`` disables compression entirely, which keeps
    every value in a size-1 bucket and makes the detector exactly
    equivalent to an exhaustive cut search.

    On every update the detector looks for a bucket boundary where the
    sub-window means differ by more than

        eps = sqrt(ln(4 / delta') / (2 m)),   1/m = 1/|W0| + 1/|W1|,

    with delta' = delta / n for the current window length n.  A cut drops
    the oldest bucket and the search restarts, possibly shrinking
    repeatedly within a single update.

    The buckets are kept in one flat oldest-to-newest list; a row is a run
    of that list, so merges happen in place.  Prefix counts and sums equal
    the running left-to-right sums of a full scan bit for bit, and each
    boundary carries a tick up to which it provably cannot cut
    (``_no_cut_ticks``), so an update tests only the boundaries whose
    horizon has run out.
    """

    def __init__(self, delta: float = 0.002, max_buckets: int | None = 5):
        if not 0.0 < delta < 1.0:
            raise ValueOutOfRange(f"delta {delta} not in (0, 1)")
        if max_buckets is not None and max_buckets < 2:
            raise ValueOutOfRange("max_buckets must be >= 2 (or None)")
        self.delta = delta
        self.max_buckets = max_buckets
        # bucket sizes and sums, oldest first; the newest _row_lengths[r]
        # buckets before those of rows < r form row r
        self._sizes: list[int] = []
        self._sums: list[float] = []
        self._row_lengths = [0]
        # _prefix_counts[j] / _prefix_sums[j]: size and sum of the oldest j
        # buckets, summed oldest first
        self._prefix_counts = [0]
        self._prefix_sums = [0.0]
        # _horizon[j]: last tick at which the boundary after bucket j cannot
        # cut; -1 when it has not been tested since it appeared
        self._horizon: list[int] = []
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
        return list(self._sums)

    # -- maintenance -------------------------------------------------------

    def _refresh_prefixes(self, start: int) -> None:
        """Recompute the prefixes past the oldest ``start`` buckets."""
        counts, sums = self._prefix_counts, self._prefix_sums
        counts[start:] = accumulate(self._sizes[start:], initial=counts[start])
        sums[start:] = accumulate(self._sums[start:], initial=sums[start])

    def _insert(self, value: float) -> None:
        sizes, sums, horizon = self._sizes, self._sums, self._horizon
        if sizes:
            horizon.append(-1)
        sizes.append(1)
        sums.append(value)
        self._count += 1
        self._sum += value
        rows = self._row_lengths
        rows[0] += 1
        limit = self.max_buckets
        if limit is None or rows[0] <= limit:
            self._prefix_counts.append(self._count)
            self._prefix_sums.append(self._prefix_sums[-1] + value)
            return
        end = len(sizes)
        row = 0
        while rows[row] > limit:
            # merge the row's two oldest buckets into the next row's newest
            first = end - rows[row]
            sums[first] += sums[first + 1]
            sizes[first] *= 2
            del sums[first + 1], sizes[first + 1], horizon[first]
            rows[row] -= 2
            row += 1
            if row == len(rows):
                rows.append(0)
            rows[row] += 1
            end = first + 1
        # the merges changed the order of the additions past ``first``
        self._refresh_prefixes(first)

    def _drop_oldest_bucket(self) -> None:
        self._count -= self._sizes.pop(0)
        del self._sums[0]
        rows = self._row_lengths
        rows[-1] -= 1
        while len(rows) > 1 and not rows[-1]:
            rows.pop()
        self._refresh_prefixes(0)
        # the total, like every prefix, is now summed from the new oldest
        self._sum = self._prefix_sums[-1]
        self._horizon = [-1] * (len(self._sizes) - 1)

    def _no_cut_ticks(self, n0: int, s0: float, n1: int, s1: float,
                      ln_term: float) -> int:
        """How many more inserts provably leave this boundary uncut.

        K inserts of values in [0, 1] and no drop keep n0 and s0, keep the
        right-side mean in [s1/(n1+K), (s1+K)/(n1+K)] and keep eps at least
        sqrt((1/n0 + 1/(n1+K)) * ln_term / 2).  For caps C = 4, 16, 64, ...
        this takes eps at K = C and solves the two linear bounds for K.
        """
        m0 = s0 / n0
        limit = _HORIZON_MAX_WIDTH - n0 - n1
        best = 0
        cap = 4
        while best < limit:
            cap = min(cap, limit)
            eps = math.sqrt((1.0 / n0 + 1.0 / (n1 + cap)) * ln_term / 2.0)
            eps *= _HORIZON_SLACK
            k = cap
            low = m0 - eps
            if low > 0.0:  # the right mean may fall to s1/(n1+K)
                k_low = s1 / low - n1
                if k_low < k:
                    k = math.floor(k_low)
            high = m0 + eps
            if high < 1.0:  # or rise to (s1+K)/(n1+K)
                k_high = (high * n1 - s1) / (1.0 - high)
                if k_high < k:
                    k = math.floor(k_high)
            if k <= best:
                break
            best = k
            if k < cap:
                break
            cap *= 4
        return best

    def _shrink(self) -> bool:
        changed = False
        tick = self._ticks
        while self._count >= 2:
            n = self._count
            ln_term = math.log(4.0 * n / self.delta)
            total = self._sum
            counts, sums = self._prefix_counts, self._prefix_sums
            horizon = self._horizon
            for j, until in enumerate(horizon):
                if until >= tick:
                    continue
                n0 = counts[j + 1]
                s0 = sums[j + 1]
                n1 = n - n0
                s1 = total - s0
                inv_m = 1.0 / n0 + 1.0 / n1
                eps = math.sqrt(inv_m * ln_term / 2.0)
                if abs(s0 / n0 - s1 / n1) > eps:
                    break
                horizon[j] = tick + self._no_cut_ticks(n0, s0, n1, s1,
                                                       ln_term)
            else:
                break
            changed = True
            self._drop_oldest_bucket()
        return changed

    def update(self, value: float) -> DriftLevel:
        if not 0.0 <= value <= 1.0:
            raise ValueOutOfRange(f"ADWIN input {value} outside [0, 1]")
        self._insert(float(value))
        self._ticks += 1
        return DriftLevel.DRIFT if self._shrink() else DriftLevel.NORMAL


# ---------------------------------------------------------------------------
# KSWIN
# ---------------------------------------------------------------------------

class KswinDetector:
    """Sliding-window KS test between old and recent values.

    Keeps the last ``window_size`` values; once the window is full, the
    newest ``stat_size`` values are tested against the preceding
    ``window_size - stat_size`` ones.  By default the comparison is
    deterministic (oldest block vs newest block); ``sampled=True`` draws a
    bootstrap sample from the old block instead, seeded for
    reproducibility.  A p-value strictly below ``alpha`` signals Drift and
    truncates the window to the newest ``stat_size`` values.
    """

    def __init__(self, window_size: int = 100, stat_size: int = 30,
                 alpha: float = 0.005, sampled: bool = False, seed: int = 0):
        if stat_size < 1 or window_size <= stat_size:
            raise ValueOutOfRange(
                f"need window_size > stat_size >= 1, got "
                f"{window_size}/{stat_size}")
        if not 0.0 < alpha < 1.0:
            raise ValueOutOfRange(f"alpha {alpha} not in (0, 1)")
        self.window_size = window_size
        self.stat_size = stat_size
        self.alpha = alpha
        self.sampled = sampled
        self._window: list[float] = []
        self._rng = np.random.default_rng(seed)

    @property
    def window(self) -> tuple[float, ...]:
        return tuple(self._window)

    def update(self, value: float) -> DriftLevel:
        self._window.append(float(value))
        if len(self._window) > self.window_size:
            self._window.pop(0)
        if len(self._window) < self.window_size:
            return DriftLevel.NORMAL
        recent = self._window[-self.stat_size:]
        older = self._window[:-self.stat_size]
        if self.sampled:
            older = list(self._rng.choice(older, size=len(older), replace=True))
        d = ks_statistic(older, recent)
        p = ks_pvalue(d, len(older), len(recent))
        if p < self.alpha:
            self._window = self._window[-self.stat_size:]
            return DriftLevel.DRIFT
        return DriftLevel.NORMAL


class NeverFiresDetector:
    """Stub detector: always Normal.  Useful as a no-drift baseline."""

    def update(self, value: float) -> DriftLevel:
        return DriftLevel.NORMAL
