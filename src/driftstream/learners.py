"""Incremental binary classifiers used by the streaming pipelines.

Every classifier follows one contract: ``partial_fit(x, y)`` for a single
sample and ``predict(x)`` returning 0/1 (an untrained model predicts 0 and
never raises).  The model pool's ``PoolMembers`` instead scores and trains
a batch of rows per call, as its weights change only between batches.  A
fresh, untrained model comes only from the constructor or, for SGD and the
forest, from ``clone_untrained()``; no model has a ``reset()``.  The
Hoeffding tree serves only as the forest's base learner; its
``partial_fit`` also takes the forest's Poisson draw as a weight, and it
scores all splits of a leaf in one array pass, bit for bit the scalar
loops over features, thresholds and classes that it replaced.  The
published defaults are module constants, not constructor options.
Prediction never mutates model state, and all randomness is derived from
the constructor seed: a model is a function of (seed, training sequence).
SGD's ``predict`` keeps the score it computed, which is not model state: a
``partial_fit`` called next on the same read-only array reuses it instead
of computing ``w.x + b`` again, and any other input is scored afresh.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch, ValueOutOfRange

_SQRT2 = math.sqrt(2.0)
_SPLIT_POINTS = 10  # candidate thresholds per feature in a split attempt

SGD_LEARNING_RATE = 0.01  # eta
SGD_L2 = 1e-4  # alpha
# read-only 0-d float64 step factors: numpy converts no Python float per call
_SGD_DECAY = np.broadcast_to(1.0 - SGD_LEARNING_RATE * SGD_L2, ())
_SGD_RATE_UP = np.broadcast_to(SGD_LEARNING_RATE, ())
_SGD_RATE_DOWN = np.broadcast_to(-SGD_LEARNING_RATE, ())
HOEFFDING_GRACE_PERIOD = 200  # leaf weight between split attempts
HOEFFDING_SPLIT_CONFIDENCE = 1e-7  # delta of the Hoeffding bound
HOEFFDING_TIE_THRESHOLD = 0.05
ARF_POISSON_LAMBDA = 6.0  # lambda of the online-bagging weights


def _check_dim(x: np.ndarray, dim: int) -> np.ndarray:
    if type(x) is not np.ndarray or x.dtype != float:
        x = np.asarray(x, dtype=float)
    if x.shape != (dim,):
        raise DimensionMismatch(f"expected vector of length {dim}, got {x.shape}")
    return x


def _check_finite(x: np.ndarray, dim: int) -> np.ndarray:
    """``_check_dim``, and no infinite or NaN entry: one would leave a
    Hoeffding leaf's running mean NaN for good."""
    x = _check_dim(x, dim)
    finite = np.isfinite(x)
    if not finite.all():
        i = int(finite.argmin())
        raise ValueOutOfRange(f"input entry {i} is {x[i]}, not finite")
    return x


# ---------------------------------------------------------------------------
# Linear model, SGD with hinge loss
# ---------------------------------------------------------------------------

class SgdClassifier:
    """Linear model trained by SGD on the hinge loss with L2 decay.

    Labels {0, 1} are mapped to {-1, +1}.  With learning rate eta and L2
    strength alpha, an update first decays the weights by (1 - eta*alpha)
    and, when the margin y(w.x + b) is below 1, adds eta*y*x to the weights
    and eta*y to the bias (the bias is not regularized).
    """

    def __init__(self, dim: int):
        if dim < 1:
            raise DimensionMismatch(f"dim must be >= 1, got {dim}")
        self.dim = dim
        self.weights = np.zeros(dim, dtype=float)
        self.bias = 0.0
        self._step = np.empty(dim)  # eta*y*x of a hinge update
        # (x, w.x + b) of the last predict, for the partial_fit that follows
        # it on the same read-only x; any later call clears it
        self._scored = None

    def clone_untrained(self) -> "SgdClassifier":
        return SgdClassifier(self.dim)

    def predict(self, x: np.ndarray) -> int:
        x = _check_dim(x, self.dim)
        score = float(self.weights.dot(x)) + self.bias
        self._scored = (x, score)
        return 1 if score > 0.0 else 0

    def partial_fit(self, x: np.ndarray, y: int) -> None:
        scored, self._scored = self._scored, None
        if scored is not None and scored[0] is x and not x.flags.writeable:
            score = scored[1]  # predict checked this very object
        else:
            x = _check_dim(x, self.dim)
            score = float(self.weights.dot(x)) + self.bias
        up = y == 1
        self.weights *= _SGD_DECAY
        if (score if up else -score) < 1.0:  # the margin y * score
            self.weights += np.multiply(
                x, _SGD_RATE_UP if up else _SGD_RATE_DOWN, out=self._step)
            self.bias += SGD_LEARNING_RATE if up else -SGD_LEARNING_RATE


# ---------------------------------------------------------------------------
# Hoeffding tree
# ---------------------------------------------------------------------------

def hoeffding_bound(value_range: float, delta: float, n: float) -> float:
    """Hoeffding epsilon: sqrt(R^2 ln(1/delta) / (2n))."""
    return math.sqrt(value_range * value_range * math.log(1.0 / delta) / (2.0 * n))


class _LeafNode:
    """Leaf with per-class Gaussian statistics per feature.  Every feature
    is observed with the sample's weight: one weight per class serves all."""

    __slots__ = ("class_weights", "feat_weight", "feat_mean", "feat_m2",
                 "feat_min", "feat_max", "weight_at_last_attempt")

    def __init__(self, dim: int, class_weights=None):
        self.class_weights = (np.zeros(2) if class_weights is None
                              else np.asarray(class_weights, dtype=float))
        self.feat_weight = np.zeros(2)
        self.feat_mean = np.zeros((2, dim))
        self.feat_m2 = np.zeros((2, dim))
        self.feat_min = np.full(dim, np.inf)
        self.feat_max = np.full(dim, -np.inf)
        self.weight_at_last_attempt = float(self.class_weights.sum())

    def total_weight(self) -> float:
        return float(self.class_weights.sum())

    def observe(self, x: np.ndarray, y: int, weight: float) -> None:
        self.class_weights[y] += weight
        w = self.feat_weight[y] + weight
        delta = x - self.feat_mean[y]
        self.feat_mean[y] += (weight / w) * delta
        self.feat_m2[y] += weight * delta * (x - self.feat_mean[y])
        self.feat_weight[y] = w
        np.minimum(self.feat_min, x, out=self.feat_min)
        np.maximum(self.feat_max, x, out=self.feat_max)

    def majority(self) -> int:
        # strict comparison: ties (including the untrained leaf) go to 0
        return 1 if self.class_weights[1] > self.class_weights[0] else 0


class _SplitNode:
    __slots__ = ("feature", "threshold", "left", "right")

    def __init__(self, feature: int, threshold: float, left, right):
        self.feature = feature
        self.threshold = threshold
        self.left = left
        self.right = right


_erf = np.frompyfunc(math.erf, 1, 1)
_log2 = np.frompyfunc(math.log2, 1, 1)


def _split_candidates(leaf: _LeafNode) -> list:
    """Each feature's best binary split of ``leaf``, best first, as
    ``(gain, feature, threshold, masses)``; ``masses`` holds the left and
    then the right per-class weights.  See ``HoeffdingTreeClassifier``."""
    lo, hi = leaf.feat_min, leaf.feat_max
    features = np.flatnonzero(np.isfinite(lo) & (hi > lo))
    lo, hi = lo[features, None], hi[features, None]
    steps = np.arange(1, _SPLIT_POINTS + 1)
    thresholds = lo + (hi - lo) * steps / (_SPLIT_POINTS + 1)
    class_w = leaf.class_weights[:, None, None]
    feat_w = leaf.feat_weight[:, None, None]
    mean = leaf.feat_mean[:, features, None]
    # axes: class, feature, threshold; a class without feature weight
    # divides by zero here, and its mass is then set to 0
    with np.errstate(divide="ignore", invalid="ignore"):
        var = leaf.feat_m2[:, features, None] / feat_w
        z = (thresholds - mean) / np.sqrt(var)
        gauss = class_w * 0.5 * (1.0 + _erf(z / _SQRT2).astype(float))
        left = np.where(feat_w <= 0.0, 0.0, np.where(
            var <= 1e-18, np.where(mean <= thresholds, class_w, 0.0), gauss))
        # axes: class, side, feature, threshold
        sides = np.stack((left, class_w - left), axis=1)
        # the parent's class weights first: one pass gives every entropy
        weights = np.concatenate(
            (leaf.class_weights[:, None], sides.reshape(2, -1)), axis=1)
        totals = weights[0] + weights[1]
        p = weights / totals
        plogp = p * _log2(np.where(weights > 0.0, p, 1.0)).astype(float)
        entropy = (0.0 - plogp[0]) - plogp[1]
    side_w, side_h = (a[1:].reshape(sides.shape[1:]) for a in (totals, entropy))
    gain = entropy[0] - (side_w[0] * side_h[0]
                         + side_w[1] * side_h[1]) / totals[0]
    valid = (side_w[0] > 0.0) & (side_w[1] > 0.0)
    gain[~valid] = -np.inf
    rows = np.flatnonzero(valid.any(axis=1))
    cols = gain[rows].argmax(axis=1)  # the first threshold of highest gain
    order = np.argsort(-gain[rows, cols], kind="stable")  # lower feature first
    rows, cols = rows[order], cols[order]
    return list(zip(gain[rows, cols].tolist(), features[rows].tolist(),
                    thresholds[rows, cols].tolist(),
                    sides[:, :, rows, cols].transpose(2, 1, 0)))


class HoeffdingTreeClassifier:
    """Incremental decision tree with Hoeffding-bound split decisions.

    Leaves accumulate per-class Gaussian summaries of each feature.  Every
    grace period of weight a leaf ranks candidate binary splits by
    information gain and splits when the gain advantage of the best feature
    over the runner-up exceeds eps = sqrt(ln(1/delta) / (2n)) (R = 1 for
    binary-class entropy), or when eps < the tie threshold.  The candidates,
    ``_SPLIT_POINTS`` thresholds evenly inside each non-constant feature's
    range, are scored in one array pass: a class's weight below a threshold
    is its Gaussian mass there (a step at its mean when its variance is
    ~0), and a split leaving a side empty is dropped.  ``math.erf`` and
    ``math.log2`` run cell by cell: numpy has no erf, and ``np.log2`` can
    differ in the last bit, which can flip a tie.  A feature's best split
    is its first threshold of highest gain; equal gains rank the lower
    feature first.  Leaves predict their majority class.  An infinite or
    NaN entry raises ``ValueOutOfRange``.
    """

    def __init__(self, dim: int):
        if dim < 1:
            raise DimensionMismatch(f"dim must be >= 1, got {dim}")
        self.dim = dim
        self._root = _LeafNode(dim)

    # -- prediction --------------------------------------------------------

    def _find_leaf(self, x: np.ndarray):
        """(parent, went_left, leaf) of ``x``'s path; no parent at the root."""
        parent, went_left, node = None, False, self._root
        while isinstance(node, _SplitNode):
            parent = node
            went_left = x[node.feature] <= node.threshold
            node = node.left if went_left else node.right
        return parent, went_left, node

    def predict(self, x: np.ndarray) -> int:
        x = _check_finite(x, self.dim)
        return self._find_leaf(x)[2].majority()

    # -- training ----------------------------------------------------------

    def partial_fit(self, x: np.ndarray, y: int, weight: float = 1.0) -> None:
        x = _check_finite(x, self.dim)
        path_parent, went_left, node = self._find_leaf(x)
        node.observe(x, int(y), float(weight))
        if node.total_weight() - node.weight_at_last_attempt >= HOEFFDING_GRACE_PERIOD:
            node.weight_at_last_attempt = node.total_weight()
            replacement = self._attempt_split(node)
            if replacement is not None:
                if path_parent is None:
                    self._root = replacement
                elif went_left:
                    path_parent.left = replacement
                else:
                    path_parent.right = replacement

    def _attempt_split(self, leaf: _LeafNode) -> _SplitNode | None:
        n = leaf.total_weight()
        if n <= 0.0 or leaf.class_weights.min() <= 0.0:
            return None  # pure leaf: no gain is possible
        candidates = _split_candidates(leaf)
        if not candidates:
            return None
        best_gain, feature, threshold, masses = candidates[0]
        second_gain = candidates[1][0] if len(candidates) > 1 else 0.0
        if best_gain <= 1e-12:
            return None
        eps = hoeffding_bound(1.0, HOEFFDING_SPLIT_CONFIDENCE, n)
        if best_gain - second_gain > eps or eps < HOEFFDING_TIE_THRESHOLD:
            left, right = (_LeafNode(self.dim, class_weights=np.maximum(m, 0.0))
                           for m in masses)
            return _SplitNode(feature, threshold, left, right)
        return None


# ---------------------------------------------------------------------------
# Adaptive random forest (online bagging + random subspaces)
# ---------------------------------------------------------------------------

class ArfEnsemble:
    """Ensemble of Hoeffding trees with Poisson(lambda) online bagging.

    Each tree sees a fixed random subspace of ceil(sqrt(dim)) features
    chosen at construction.  Every training sample is replayed into each
    tree with weight k ~ Poisson(lambda), skipping trees that draw k = 0.
    Prediction is an unweighted majority vote with ties resolved to 0.
    The ensemble carries no internal drift detectors; reacting to drift is
    the enclosing pipeline's job.  An infinite or NaN entry raises
    ``ValueOutOfRange`` before any Poisson weight is drawn.
    """

    def __init__(self, dim: int, n_trees: int = 10,
                 seed: int | np.random.SeedSequence = 0):
        if dim < 1:
            raise DimensionMismatch(f"dim must be >= 1, got {dim}")
        if n_trees < 1:
            raise ValueError(f"n_trees must be >= 1, got {n_trees}")
        self.dim = dim
        self.n_trees = n_trees
        self._seed_seq = (seed if isinstance(seed, np.random.SeedSequence)
                          else np.random.SeedSequence(seed))
        subspace_rng_seed, poisson_rng_seed = self._seed_seq.spawn(2)
        subspace_rng = np.random.default_rng(subspace_rng_seed)
        self._poisson_rng = np.random.default_rng(poisson_rng_seed)
        size = math.ceil(math.sqrt(dim))
        self.subspaces = [
            np.sort(subspace_rng.choice(dim, size=size, replace=False))
            for _ in range(n_trees)
        ]
        self.trees = [HoeffdingTreeClassifier(size) for _ in range(n_trees)]

    def clone_untrained(self) -> "ArfEnsemble":
        # spawn a fresh child seed so that successive rebuilds stay
        # deterministic without replaying the parent's random stream
        return ArfEnsemble(self.dim, self.n_trees, self._seed_seq.spawn(1)[0])

    def partial_fit(self, x: np.ndarray, y: int) -> None:
        x = _check_finite(x, self.dim)
        draws = self._poisson_rng.poisson(ARF_POISSON_LAMBDA, size=self.n_trees)
        for tree, subspace, k in zip(self.trees, self.subspaces, draws):
            if k > 0:
                tree.partial_fit(x[subspace], y, weight=float(k))

    def predict(self, x: np.ndarray) -> int:
        x = _check_finite(x, self.dim)
        ones = sum(tree.predict(x[subspace])
                   for tree, subspace in zip(self.trees, self.subspaces))
        return 1 if 2 * ones > self.n_trees else 0


# ---------------------------------------------------------------------------
# Growable linear members for the model-pool strategy
# ---------------------------------------------------------------------------

POOL_MEMBER_KINDS = ("sgd-hinge", "perceptron", "passive-aggressive")
POOL_LEARNING_RATE = 0.01  # eta: the "sgd-hinge" and "perceptron" step
POOL_AGGRESSIVENESS = 1.0  # C: the cap on a "passive-aggressive" step


class PoolMembers:
    """The pool's linear members over a growing binary token-feature space.

    Member ``m`` has kind ``kinds[m]``, weights ``weights[m, :sizes[m]]``
    and bias ``biases[m]``.  ``weights`` is one C-contiguous ``(members,
    capacity)`` matrix; ids at or past a member's logical size weigh
    nothing, and its columns there hold 0.0.  A member's space grows on
    the fly as new tokens appear; new dimensions start at weight zero, so
    they do not disturb earlier decisions.  The members work on a batch of
    rows in CSR form ``(ids, ends)``: row ``i`` is the binary-presence ids
    ``ids[ends[i-1]:ends[i]]`` (from 0 for the first row), sorted and
    distinct, as the pool's chunk encoder returns them; they are used as
    given.  Update rules: "sgd-hinge" (eta * hinge subgradient),
    "perceptron" (mistake-driven) and "passive-aggressive" (PA-I with
    aggressiveness capped at C).  Prediction is sign(w.x + b) with 0 on
    the boundary.  Rows are gathered with ``take(axis=1)``, whose
    C-contiguous result sums each member's row in the order of its own 1-D
    ``sum()``; the result of ``weights[:, row]`` is not C-contiguous.
    """

    def __init__(self, kinds):
        for kind in kinds:
            if kind not in POOL_MEMBER_KINDS:
                raise ValueError(f"unknown pool member kind {kind!r}")
        self.kinds = tuple(kinds)
        self.weights = np.zeros((len(self.kinds), 0))
        self.biases = [0.0] * len(self.kinds)
        self.sizes = [0] * len(self.kinds)

    def score_many(self, ids: np.ndarray, ends: np.ndarray) -> np.ndarray:
        """``w.x + b`` of every member (axis 0) and row (axis 1).

        Members of equal size are scored together.  A row keeps its first
        ids: all but those past the size, each found in the row whose end
        lies past its place.  Rows are ordered by their number ``n`` of kept
        ids, their weights gathered once, and the rows keeping ``n`` reduced
        as ``(members, rows, n)`` blocks whose rows of ``n`` are contiguous
        (to 0.0 if ``n`` is 0), so that ``add.reduce(axis=2)`` adds each row
        in the order of its own 1-D ``sum()``, and one scatter puts them
        back in row order.  Neither ``reduceat`` nor zero padding does.
        """
        starts = np.concatenate(([0], ends[:-1]))
        scores = np.empty((len(self.kinds), len(ends)))
        for size in set(self.sizes):
            group = [m for m, s in enumerate(self.sizes) if s == size]
            past = (ids >= size).nonzero()[0]  # ids a row does not keep
            kept = (ends - starts) - np.bincount(
                ends.searchsorted(past, side="right"), minlength=len(ends))
            # rows in order of kept count, their kept weights gathered in turn
            order = np.argsort(kept, kind="stable")
            lengths = kept[order]
            firsts = np.cumsum(lengths) - lengths
            picks = (np.arange(lengths.sum())
                     + np.repeat(starts[order] - firsts, lengths))
            matrix = (self.weights if len(group) == len(self.kinds)
                      else self.weights[group])
            gathered = matrix.take(ids[picks], axis=1)
            ordered = np.empty((len(group), len(ends)))  # in kept order
            n_of, first_of = lengths.tolist(), firsts.tolist()
            cuts = [i for i in range(1, len(n_of)) if n_of[i] != n_of[i - 1]]
            for lo, hi in zip([0, *cuts], [*cuts, len(n_of)]):
                n, first = n_of[lo], first_of[lo]
                rows = gathered[:, first:first + (hi - lo) * n]
                np.add.reduce(rows.reshape(len(group), hi - lo, n), axis=2,
                              out=ordered[:, lo:hi])
            sums = np.empty_like(ordered)
            sums[:, order] = ordered
            biases = np.array([self.biases[m] for m in group])
            scores[group] = sums + biases[:, None]
        return scores

    def partial_fit_many(self, ids: np.ndarray, ends: np.ndarray, labels,
                         members) -> None:
        """One update per row, in order, of each member in ``members``.

        The chosen members grow once, to the largest id.  Each row's
        weights are gathered and summed once for all members, and written
        back by one scatter that adds each member's step.  Members that do
        not step add 0.0, which leaves every weight as it was: weights
        start at +0.0 and change only by nonzero steps, whose exact zero
        sums round to +0.0, so no weight is ever -0.0.
        """
        top = int(ids.max()) if ids.size else -1
        if top >= self.weights.shape[1]:
            grown = np.zeros((len(self.kinds), top + 1))
            grown[:, :self.weights.shape[1]] = self.weights
            self.weights = grown
        for m in members:
            self.sizes[m] = max(self.sizes[m], top + 1)
        take, reduce, biases = self.weights.take, np.add.reduce, self.biases
        rules = [(m, self.kinds[m]) for m in members]
        column = np.zeros((len(self.kinds), 1))  # the row's step per member
        start = 0
        for end, y in zip(ends.tolist(), labels):
            row = ids[start:end]
            y_signed = 1.0 if y == 1 else -1.0
            gathered = take(row, axis=1)
            sums = reduce(gathered, axis=1).tolist()
            stepped = False
            for m, kind in rules:
                margin = y_signed * (sums[m] + biases[m])
                if kind == "perceptron":
                    step = POOL_LEARNING_RATE if margin <= 0.0 else 0.0
                elif kind == "sgd-hinge":
                    step = POOL_LEARNING_RATE if margin < 1.0 else 0.0
                else:  # passive-aggressive (PA-I); bias acts as constant input
                    loss = max(0.0, 1.0 - margin)
                    step = min(POOL_AGGRESSIVENESS, loss / (end - start + 1.0))
                if step > 0.0:
                    step *= y_signed
                    biases[m] += step
                    column[m, 0] = step
                    stepped = True
            if stepped:
                self.weights[:, row] = np.add(gathered, column, out=gathered)
                column.fill(0.0)
            start = end
