"""Incremental classifiers: linear SGD, Hoeffding tree, forest, pool members."""

import numpy as np
import pytest

from driftstream import (ArfEnsemble, DimensionMismatch,
                         HoeffdingTreeClassifier, PoolMember, SgdClassifier)
from driftstream.learners import _LeafNode, _SplitNode, hoeffding_bound

# ---------------------------------------------------------------------------
# SGD with hinge loss
# ---------------------------------------------------------------------------


def test_sgd_untrained_predicts_zero():
    m = SgdClassifier(dim=3)
    assert m.predict(np.zeros(3)) == 0
    assert m.predict(np.ones(3)) == 0


def test_sgd_two_step_update_exact():
    """Hand-computed weights after two hinge updates at the defaults."""
    m = SgdClassifier(dim=2)
    m.partial_fit(np.array([1.0, 0.0]), 1)
    np.testing.assert_allclose(m.weights, [0.01, 0.0], atol=0)
    assert m.bias == 0.01
    m.partial_fit(np.array([0.0, 1.0]), 0)
    # first weight only sees the L2 decay factor (1 - 1e-6)
    np.testing.assert_allclose(m.weights, [0.00999999, -0.01], atol=1e-15)
    assert m.bias == 0.0


def test_sgd_no_update_when_margin_met():
    m = SgdClassifier(dim=2, learning_rate=1.0, l2=0.0)
    x = np.array([1.0, 0.0])
    m.partial_fit(x, 1)          # margin 0 -> update: w=[1,0], b=1
    m.partial_fit(x, 1)          # margin 2 >= 1 -> decay only (l2 = 0)
    np.testing.assert_array_equal(m.weights, [1.0, 0.0])
    assert m.bias == 1.0


def test_sgd_sample_weight_scales_step():
    m = SgdClassifier(dim=2)
    m.partial_fit(np.array([1.0, 0.0]), 1, weight=2.0)
    np.testing.assert_allclose(m.weights, [0.02, 0.0], atol=0)
    assert m.bias == 0.02


def test_sgd_learns_separable_data():
    rng = np.random.default_rng(0)
    m = SgdClassifier(dim=2)
    for _ in range(2000):
        x = rng.normal(size=2)
        y = int(x[0] + x[1] > 0)
        m.partial_fit(x, y)
    checks = rng.normal(size=(500, 2))
    acc = np.mean([m.predict(x) == int(x[0] + x[1] > 0) for x in checks])
    assert acc > 0.95


def test_sgd_weights_stay_finite_under_long_training():
    rng = np.random.default_rng(1)
    m = SgdClassifier(dim=4)
    for _ in range(20000):
        m.partial_fit(rng.random(4), int(rng.integers(2)))
    assert np.all(np.isfinite(m.weights))
    assert np.linalg.norm(m.weights) < 100.0


def test_sgd_dimension_checked():
    m = SgdClassifier(dim=3)
    with pytest.raises(DimensionMismatch):
        m.predict(np.zeros(4))
    with pytest.raises(DimensionMismatch):
        m.partial_fit(np.zeros(2), 1)


def test_sgd_reset_and_clone():
    """A model is reset by cloning it untrained."""
    m = SgdClassifier(dim=2)
    m.partial_fit(np.ones(2), 1)
    clone = m.clone_untrained()
    assert clone.predict(np.ones(2)) == 0
    np.testing.assert_array_equal(clone.weights, np.zeros(2))
    assert clone.bias == 0.0


# ---------------------------------------------------------------------------
# Hoeffding bound and tree
# ---------------------------------------------------------------------------

def test_hoeffding_bound_frozen_value():
    assert hoeffding_bound(1.0, 1e-7, 1000) == pytest.approx(
        0.0897721996248235, abs=1e-15)


def test_hoeffding_bound_scales_inverse_sqrt_n():
    assert hoeffding_bound(1, 1e-7, 500) == pytest.approx(
        2 * hoeffding_bound(1, 1e-7, 2000))


def test_hoeffding_bound_vanishes_with_data():
    assert hoeffding_bound(1, 1e-7, 10**9) < 1e-3


def test_tree_untrained_predicts_zero():
    t = HoeffdingTreeClassifier(dim=2)
    assert t.predict(np.array([0.3, 0.9])) == 0
    assert isinstance(t._root, _LeafNode)


def test_tree_learns_single_threshold_concept():
    rng = np.random.default_rng(3)
    t = HoeffdingTreeClassifier(dim=3)
    for _ in range(3000):
        x = rng.random(3)
        t.partial_fit(x, int(x[0] > 0.5))
    assert isinstance(t._root, _SplitNode)
    checks = rng.random((500, 3))
    acc = np.mean([t.predict(x) == int(x[0] > 0.5) for x in checks])
    assert acc > 0.95


def test_tree_never_splits_on_pure_labels():
    rng = np.random.default_rng(4)
    t = HoeffdingTreeClassifier(dim=3)
    for _ in range(2000):
        t.partial_fit(rng.random(3), 0)
    assert isinstance(t._root, _LeafNode)
    assert t.predict(rng.random(3)) == 0


def test_tree_prediction_does_not_mutate_state():
    rng = np.random.default_rng(5)
    data = [(rng.random(3), int(rng.integers(2))) for _ in range(800)]
    probes = rng.random((50, 3))
    quiet = HoeffdingTreeClassifier(dim=3)
    chatty = HoeffdingTreeClassifier(dim=3)
    for x, y in data:
        quiet.partial_fit(x, y)
        for p in probes[:5]:
            chatty.predict(p)
        chatty.partial_fit(x, y)
    assert [quiet.predict(p) for p in probes] == \
        [chatty.predict(p) for p in probes]


# ---------------------------------------------------------------------------
# Adaptive random forest
# ---------------------------------------------------------------------------

def test_arf_poisson_draws_have_expected_mean():
    ens = ArfEnsemble(dim=4, n_trees=10, seed=0)
    draws = np.concatenate([ens._poisson_weights() for _ in range(2000)])
    assert abs(draws.mean() - 6.0) < 0.1
    assert draws.min() >= 0


def test_arf_subspace_sizes():
    ens = ArfEnsemble(dim=30, n_trees=5, seed=0)
    for sub in ens.subspaces:
        assert len(sub) == 6  # ceil(sqrt(30))
        assert len(set(sub.tolist())) == len(sub)
        assert list(sub) == sorted(sub)
    small = ArfEnsemble(dim=2, n_trees=3, seed=0)
    for sub in small.subspaces:
        assert len(sub) == 2  # ceil(sqrt(2)), the whole space


def test_arf_untrained_majority_is_zero():
    ens = ArfEnsemble(dim=4, n_trees=10, seed=0)
    assert ens.predict(np.ones(4)) == 0


def test_arf_is_deterministic_per_seed():
    rng = np.random.default_rng(7)
    data = [(rng.random(6), int(rng.integers(2))) for _ in range(400)]
    probes = rng.random((60, 6))

    def train(seed):
        ens = ArfEnsemble(dim=6, n_trees=5, seed=seed)
        for x, y in data:
            ens.partial_fit(x, y)
        return [ens.predict(p) for p in probes]

    assert train(11) == train(11)
    a, b = train(11), train(12)
    sub_a = ArfEnsemble(dim=100, n_trees=5, seed=11).subspaces
    sub_b = ArfEnsemble(dim=100, n_trees=5, seed=12).subspaces
    assert any(not np.array_equal(x, y) for x, y in zip(sub_a, sub_b))


def test_arf_clone_untrained_diverges_from_parent_stream():
    """A rebuild must not replay the parent's exact randomness."""
    ens = ArfEnsemble(dim=40, n_trees=5, seed=9)
    clone = ens.clone_untrained()
    assert clone.predict(np.ones(40)) == 0
    differs = any(not np.array_equal(a, b)
                  for a, b in zip(ens.subspaces, clone.subspaces))
    assert differs


def test_arf_beats_single_tree_under_label_noise():
    """Online bagging recovers a signal the base learner alone misses."""

    def run(seed, flip=0.2, n_train=2500, n_test=600, dim=12):
        rng = np.random.default_rng(seed)

        def batch(n):
            X = rng.random((n, dim))
            y = (X[:, :3].sum(axis=1) > 1.5).astype(int)
            noisy = y.copy()
            mask = rng.random(n) < flip
            noisy[mask] = 1 - noisy[mask]
            return X, y, noisy

        X_train, _, y_noisy = batch(n_train)
        X_test, y_test, _ = batch(n_test)
        ens = ArfEnsemble(dim, n_trees=10, seed=seed)
        tree = HoeffdingTreeClassifier(dim)
        for x, yn in zip(X_train, y_noisy):
            ens.partial_fit(x, int(yn))
            tree.partial_fit(x, int(yn))
        acc_e = np.mean([ens.predict(x) == t for x, t in zip(X_test, y_test)])
        acc_t = np.mean([tree.predict(x) == t for x, t in zip(X_test, y_test)])
        return acc_e, acc_t

    pairs = [run(seed) for seed in (0, 1, 2)]
    mean_ens = np.mean([e for e, _ in pairs])
    mean_tree = np.mean([t for _, t in pairs])
    assert mean_ens > 0.7
    assert mean_ens > mean_tree + 0.1


# ---------------------------------------------------------------------------
# pool members
# ---------------------------------------------------------------------------

def test_pool_member_rejects_unknown_kind():
    with pytest.raises(ValueError):
        PoolMember("decision-stump")


def test_pool_untrained_predicts_zero():
    for kind in ("sgd-hinge", "perceptron", "passive-aggressive"):
        m = PoolMember(kind)
        assert m.predict([0, 5, 17]) == 0
        assert m.predict([]) == 0


def test_perceptron_update_rule():
    m = PoolMember("perceptron")         # step size 0.01
    m.partial_fit([0], 1)                # mistake: score 0 -> update
    assert m.score([0]) == pytest.approx(0.02)  # w=0.01 plus b=0.01
    m.partial_fit([0], 1)                # margin 0.02 > 0 -> no update
    assert m.score([0]) == pytest.approx(0.02)


def test_sgd_hinge_updates_inside_margin_where_perceptron_stops():
    hinge = PoolMember("sgd-hinge")
    mistake = PoolMember("perceptron")
    for m in (hinge, mistake):
        m.partial_fit([0], 1)            # both update from zero
        assert m.score([0]) == pytest.approx(0.02)
    hinge.partial_fit([0], 1)            # margin 0.02 < 1 -> another step
    mistake.partial_fit([0], 1)          # margin 0.02 > 0 -> no step
    assert hinge.score([0]) == pytest.approx(0.04)
    assert mistake.score([0]) == pytest.approx(0.02)


def test_passive_aggressive_step_size():
    m = PoolMember("passive-aggressive")
    m.partial_fit([0, 1], 1)
    # loss 1 over squared norm 3 (two features + bias) -> tau = 1/3
    assert m.score([0, 1]) == pytest.approx(1.0)
    np.testing.assert_allclose(m.weights, [1 / 3, 1 / 3])
    m.partial_fit([0, 1], 1)             # margin exactly 1 -> loss 0
    assert m.score([0, 1]) == pytest.approx(1.0)


def test_passive_aggressive_cap():
    m = PoolMember("passive-aggressive")  # C = 1
    m.partial_fit([], 1)                 # loss 1 over squared norm 1 -> tau 1
    assert m.bias == pytest.approx(1.0)
    m.partial_fit([], 0)                 # loss 2 -> tau 2, capped at 1
    assert m.bias == pytest.approx(0.0)


def test_pool_member_grows_feature_space():
    m = PoolMember("perceptron")
    m.partial_fit([2], 1)
    assert m.weights.size == 3
    m.partial_fit([10], 1)
    assert m.weights.size == 11
    assert m.weights[2] == 0.01          # old weight untouched by growth
    # indices beyond current capacity contribute nothing to the score
    assert m.score([2, 99]) == pytest.approx(m.score([2]))

