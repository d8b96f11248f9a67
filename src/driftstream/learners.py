"""Incremental binary classifiers used by the streaming pipelines.

Everything here follows one contract: ``partial_fit(x, y, weight)`` for a
single sample and ``predict(x)`` returning 0/1 (an untrained model predicts
0 and never raises).  A fresh, untrained model comes only from the
constructor or, for SGD and the forest, from ``clone_untrained()``, which
the pipeline calls to rebuild after a drift; no model has a ``reset()``.
The Hoeffding tree serves only as the forest's base learner.  The pool
members' step size and PA-I cap are module constants.  Prediction never
mutates model state, and all randomness is derived from the constructor
seed, so a model is a deterministic function of (seed, training sequence).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch

_SQRT2 = math.sqrt(2.0)
_SPLIT_POINTS = 10  # candidate thresholds per feature in a split attempt


def _check_dim(x: np.ndarray, dim: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (dim,):
        raise DimensionMismatch(f"expected vector of length {dim}, got {x.shape}")
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

    def __init__(self, dim: int, learning_rate: float = 0.01, l2: float = 1e-4):
        if dim < 1:
            raise DimensionMismatch(f"dim must be >= 1, got {dim}")
        self.dim = dim
        self.learning_rate = learning_rate
        self.l2 = l2
        self.weights = np.zeros(dim, dtype=float)
        self.bias = 0.0

    def clone_untrained(self) -> "SgdClassifier":
        return SgdClassifier(self.dim, self.learning_rate, self.l2)

    def predict(self, x: np.ndarray) -> int:
        x = _check_dim(x, self.dim)
        score = float(self.weights @ x) + self.bias
        return 1 if score > 0.0 else 0

    def partial_fit(self, x: np.ndarray, y: int, weight: float = 1.0) -> None:
        x = _check_dim(x, self.dim)
        y_signed = 1.0 if y == 1 else -1.0
        eta = self.learning_rate * weight
        margin = y_signed * (float(self.weights @ x) + self.bias)
        self.weights *= (1.0 - eta * self.l2)
        if margin < 1.0:
            self.weights += eta * y_signed * x
            self.bias += eta * y_signed


# ---------------------------------------------------------------------------
# Hoeffding tree
# ---------------------------------------------------------------------------

def hoeffding_bound(value_range: float, delta: float, n: float) -> float:
    """Hoeffding epsilon: sqrt(R^2 ln(1/delta) / (2n))."""
    return math.sqrt(value_range * value_range * math.log(1.0 / delta) / (2.0 * n))


def _entropy(class_weights: np.ndarray) -> float:
    total = class_weights.sum()
    if total <= 0.0:
        return 0.0
    h = 0.0
    for w in class_weights:
        if w > 0.0:
            p = w / total
            h -= p * math.log2(p)
    return h


class _LeafNode:
    """Leaf with per-class Gaussian statistics per feature."""

    __slots__ = ("class_weights", "feat_weight", "feat_mean", "feat_m2",
                 "feat_min", "feat_max", "weight_at_last_attempt")

    def __init__(self, dim: int, class_weights=None):
        self.class_weights = (np.zeros(2) if class_weights is None
                              else np.asarray(class_weights, dtype=float))
        self.feat_weight = np.zeros((2, dim))
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

    def route(self, x: np.ndarray):
        return self.left if x[self.feature] <= self.threshold else self.right


class HoeffdingTreeClassifier:
    """Incremental decision tree with Hoeffding-bound split decisions.

    Leaves accumulate per-class Gaussian summaries of each feature.  Every
    ``grace_period`` units of weight a leaf ranks candidate binary splits by
    information gain and splits when the gain advantage of the best feature
    over the runner-up exceeds eps = sqrt(ln(1/delta) / (2n)) (R = 1 for
    binary-class entropy), or when eps < tie_threshold.  Leaves predict
    their majority class.
    """

    def __init__(self, dim: int, grace_period: int = 200,
                 split_confidence: float = 1e-7, tie_threshold: float = 0.05):
        if dim < 1:
            raise DimensionMismatch(f"dim must be >= 1, got {dim}")
        self.dim = dim
        self.grace_period = grace_period
        self.split_confidence = split_confidence
        self.tie_threshold = tie_threshold
        self._root = _LeafNode(dim)

    # -- prediction --------------------------------------------------------

    def _find_leaf(self, x: np.ndarray) -> _LeafNode:
        node = self._root
        while isinstance(node, _SplitNode):
            node = node.route(x)
        return node

    def predict(self, x: np.ndarray) -> int:
        x = _check_dim(x, self.dim)
        return self._find_leaf(x).majority()

    # -- training ----------------------------------------------------------

    def partial_fit(self, x: np.ndarray, y: int, weight: float = 1.0) -> None:
        x = _check_dim(x, self.dim)
        path_parent = None
        went_left = False
        node = self._root
        while isinstance(node, _SplitNode):
            path_parent = node
            went_left = x[node.feature] <= node.threshold
            node = node.left if went_left else node.right
        node.observe(x, int(y), float(weight))
        if node.total_weight() - node.weight_at_last_attempt >= self.grace_period:
            node.weight_at_last_attempt = node.total_weight()
            replacement = self._attempt_split(node)
            if replacement is not None:
                if path_parent is None:
                    self._root = replacement
                elif went_left:
                    path_parent.left = replacement
                else:
                    path_parent.right = replacement

    def _class_mass_below(self, leaf: _LeafNode, feature: int,
                          threshold: float) -> np.ndarray:
        """Estimated per-class weight with feature value <= threshold."""
        mass = np.zeros(2)
        for cls in (0, 1):
            w = leaf.feat_weight[cls][feature]
            if w <= 0.0:
                continue
            mean = leaf.feat_mean[cls][feature]
            var = leaf.feat_m2[cls][feature] / w
            if var <= 1e-18:
                mass[cls] = leaf.class_weights[cls] if mean <= threshold else 0.0
            else:
                z = (threshold - mean) / math.sqrt(var)
                mass[cls] = leaf.class_weights[cls] * 0.5 * (1.0 + math.erf(z / _SQRT2))
        return mass

    def _best_split_for_feature(self, leaf: _LeafNode,
                                feature: int) -> tuple[float, float] | None:
        lo = leaf.feat_min[feature]
        hi = leaf.feat_max[feature]
        if not np.isfinite(lo) or hi <= lo:
            return None
        total = leaf.class_weights
        h_parent = _entropy(total)
        total_w = total.sum()
        best = None
        for i in range(1, _SPLIT_POINTS + 1):
            threshold = lo + (hi - lo) * i / (_SPLIT_POINTS + 1)
            left = self._class_mass_below(leaf, feature, threshold)
            right = total - left
            wl = left.sum()
            wr = right.sum()
            if wl <= 0.0 or wr <= 0.0:
                continue
            gain = h_parent - (wl * _entropy(left) + wr * _entropy(right)) / total_w
            if best is None or gain > best[0]:
                best = (gain, threshold)
        return best

    def _attempt_split(self, leaf: _LeafNode) -> _SplitNode | None:
        n = leaf.total_weight()
        if n <= 0.0 or leaf.class_weights.min() <= 0.0:
            return None  # pure leaf: no gain is possible
        candidates = []
        for feature in range(self.dim):
            found = self._best_split_for_feature(leaf, feature)
            if found is not None:
                candidates.append((found[0], feature, found[1]))
        if not candidates:
            return None
        candidates.sort(key=lambda c: (-c[0], c[1]))
        best_gain, feature, threshold = candidates[0]
        second_gain = candidates[1][0] if len(candidates) > 1 else 0.0
        if best_gain <= 1e-12:
            return None
        eps = hoeffding_bound(1.0, self.split_confidence, n)
        if best_gain - second_gain > eps or eps < self.tie_threshold:
            left_mass = self._class_mass_below(leaf, feature, threshold)
            right_mass = leaf.class_weights - left_mass
            left = _LeafNode(self.dim, class_weights=np.maximum(left_mass, 0.0))
            right = _LeafNode(self.dim, class_weights=np.maximum(right_mass, 0.0))
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
    the enclosing pipeline's job.
    """

    def __init__(self, dim: int, n_trees: int = 10, poisson_lambda: float = 6.0,
                 seed: int | np.random.SeedSequence = 0, grace_period: int = 200,
                 split_confidence: float = 1e-7, tie_threshold: float = 0.05):
        if dim < 1:
            raise DimensionMismatch(f"dim must be >= 1, got {dim}")
        if n_trees < 1:
            raise ValueError(f"n_trees must be >= 1, got {n_trees}")
        self.dim = dim
        self.n_trees = n_trees
        self.poisson_lambda = poisson_lambda
        self.grace_period = grace_period
        self.split_confidence = split_confidence
        self.tie_threshold = tie_threshold
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
        self.trees = [
            HoeffdingTreeClassifier(size, grace_period, split_confidence,
                                    tie_threshold)
            for _ in range(n_trees)
        ]

    def clone_untrained(self) -> "ArfEnsemble":
        # spawn a fresh child seed so that successive rebuilds stay
        # deterministic without replaying the parent's random stream
        return ArfEnsemble(self.dim, self.n_trees, self.poisson_lambda,
                           self._seed_seq.spawn(1)[0], self.grace_period,
                           self.split_confidence, self.tie_threshold)

    def _poisson_weights(self) -> np.ndarray:
        return self._poisson_rng.poisson(self.poisson_lambda, size=self.n_trees)

    def partial_fit(self, x: np.ndarray, y: int, weight: float = 1.0) -> None:
        x = _check_dim(x, self.dim)
        draws = self._poisson_weights()
        for tree, subspace, k in zip(self.trees, self.subspaces, draws):
            if k > 0:
                tree.partial_fit(x[subspace], y, weight=float(k) * weight)

    def predict(self, x: np.ndarray) -> int:
        x = _check_dim(x, self.dim)
        ones = sum(tree.predict(x[subspace])
                   for tree, subspace in zip(self.trees, self.subspaces))
        return 1 if 2 * ones > self.n_trees else 0


# ---------------------------------------------------------------------------
# Growable linear members for the model-pool strategy
# ---------------------------------------------------------------------------

POOL_MEMBER_KINDS = ("sgd-hinge", "perceptron", "passive-aggressive")
POOL_LEARNING_RATE = 0.01  # eta: the "sgd-hinge" and "perceptron" step
POOL_AGGRESSIVENESS = 1.0  # C: the cap on a "passive-aggressive" step


class PoolMember:
    """Linear model over a growing binary token-feature space.

    The feature space is extended on the fly as new tokens appear; new
    dimensions start at weight zero, so they do not disturb earlier
    decisions.  Inputs are binary-presence ids, sorted and distinct, as
    ``TokenIndexer.encode`` returns them; they are used as given.  Update
    rules: "sgd-hinge" (eta * hinge subgradient), "perceptron"
    (mistake-driven) and "passive-aggressive" (PA-I with aggressiveness
    capped at C).  Prediction is sign(w.x + b) with 0 on the boundary.
    """

    def __init__(self, kind: str):
        if kind not in POOL_MEMBER_KINDS:
            raise ValueError(f"unknown pool member kind {kind!r}")
        self.kind = kind
        self.weights = np.zeros(0, dtype=float)
        self.bias = 0.0

    def _ensure_capacity(self, max_index: int) -> None:
        if max_index >= self.weights.size:
            grown = np.zeros(max_index + 1, dtype=float)
            grown[:self.weights.size] = self.weights
            self.weights = grown

    def score(self, indices) -> float:
        idx = np.asarray(indices, dtype=np.intp)
        if not idx.size:
            return self.bias
        if idx[-1] >= self.weights.size:  # ids beyond capacity weigh 0
            idx = idx[:np.searchsorted(idx, self.weights.size)]
        return float(self.weights[idx].sum()) + self.bias

    def predict(self, indices) -> int:
        return 1 if self.score(indices) > 0.0 else 0

    def partial_fit(self, indices, y: int) -> None:
        indices = np.asarray(indices, dtype=np.intp)
        if indices.size:
            self._ensure_capacity(int(indices[-1]))
        y_signed = 1.0 if y == 1 else -1.0
        margin = y_signed * self.score(indices)
        if self.kind == "perceptron":
            if margin <= 0.0:
                self.weights[indices] += POOL_LEARNING_RATE * y_signed
                self.bias += POOL_LEARNING_RATE * y_signed
        elif self.kind == "sgd-hinge":
            if margin < 1.0:
                self.weights[indices] += POOL_LEARNING_RATE * y_signed
                self.bias += POOL_LEARNING_RATE * y_signed
        else:  # passive-aggressive (PA-I)
            loss = max(0.0, 1.0 - margin)
            if loss > 0.0:
                sq_norm = float(indices.size) + 1.0  # bias acts as constant input
                tau = min(POOL_AGGRESSIVENESS, loss / sq_norm)
                self.weights[indices] += tau * y_signed
                self.bias += tau * y_signed
