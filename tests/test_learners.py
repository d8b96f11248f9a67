"""Incremental classifiers: linear SGD, Hoeffding tree, forest, pool members."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from driftstream import (ArfEnsemble, DimensionMismatch, PoolMembers,
                         SgdClassifier, ValueOutOfRange)
from driftstream import learners
from driftstream.learners import (ARF_POISSON_LAMBDA, POOL_MEMBER_KINDS,
                                  HoeffdingTreeClassifier, _Node,
                                  hoeffding_bound)

from .oracles import (ReferencePoolMember, ReferenceSgdClassifier,
                      reference_split_candidates)

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
    m = SgdClassifier(dim=2)
    x = np.array([100.0, 0.0])
    m.partial_fit(x, 1)          # margin 0 -> update: w=[1,0], b=0.01
    np.testing.assert_array_equal(m.weights, [1.0, 0.0])
    assert m.bias == 0.01
    m.partial_fit(x, 1)          # margin 100.01 >= 1 -> L2 decay only
    np.testing.assert_allclose(m.weights, [1.0 - 1e-6, 0.0], rtol=0,
                               atol=1e-15)
    assert m.bias == 0.01


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
    """Wrong lengths, a (1, dim) row and 0-d inputs, in either method, also
    when a partial_fit follows a predict that checked another row."""
    m = SgdClassifier(dim=3)
    for x in (np.zeros(4), np.zeros(2), np.zeros((1, 3)), np.array(0.0),
              np.float64(0.0), [0.0] * 4):
        with pytest.raises(DimensionMismatch):
            m.predict(x)
        with pytest.raises(DimensionMismatch):
            m.partial_fit(x, 1)
    scored = _read_only([0.0] * 3)
    for x in (_read_only([0.0] * 4), _read_only([[0.0] * 3]), [0.0] * 4):
        assert m.predict(scored) == 0
        with pytest.raises(DimensionMismatch):
            m.partial_fit(x, 1)


def test_sgd_labels_of_any_integer_type_train_alike():
    """Python and numpy integers and booleans are the same labels."""
    rng = np.random.default_rng(5)
    rows = rng.uniform(-1.0, 1.0, (60, 3))
    labels = rng.integers(0, 2, 60)
    trained = set()
    for label_type in (int, bool, np.int64, np.int8, np.bool_):
        m = SgdClassifier(dim=3)
        for x, y in zip(rows, labels):
            m.partial_fit(x, label_type(y))
        trained.add((m.weights.tobytes(), m.bias.hex()))
    assert len(trained) == 1


def test_sgd_step_constants_are_read_only():
    for constant in (learners._SGD_DECAY, learners._SGD_RATE_UP,
                     learners._SGD_RATE_DOWN):
        assert constant.shape == () and constant.dtype == np.float64
        with pytest.raises(ValueError):
            constant[()] = 0.0


def test_sgd_reset_and_clone():
    """A model is reset by cloning it untrained."""
    m = SgdClassifier(dim=2)
    m.partial_fit(np.ones(2), 1)
    clone = m.clone_untrained()
    assert clone.predict(np.ones(2)) == 0
    np.testing.assert_array_equal(clone.weights, np.zeros(2))
    assert clone.bias == 0.0


def _read_only(values):
    x = np.array(values, dtype=float)
    x.flags.writeable = False
    return x


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_sgd_score_reuse_is_bit_identical_to_reference(data):
    """Random interleavings of predict and partial_fit: each step may
    predict on a vector, then fits zero to two times on the same read-only
    array, a distinct read-only array with equal or other values, or the
    predicted writeable array after changing it in place."""
    dim = data.draw(st.integers(1, 4))
    values = st.lists(st.floats(-100.0, 100.0, allow_nan=False),
                      min_size=dim, max_size=dim)
    steps = data.draw(st.lists(st.tuples(
        st.sampled_from(["same", "equal", "other", "changed"]), values,
        values, st.booleans(), st.integers(0, 2), st.integers(0, 1)),
        min_size=1, max_size=30))
    model, reference = SgdClassifier(dim), ReferenceSgdClassifier(dim)
    for form, first, second, predict_first, fits, label in steps:
        x = np.array(first) if form == "changed" else _read_only(first)
        if predict_first:
            assert model.predict(x) == reference.predict(x)
        if form == "equal":
            x = _read_only(first)
        elif form == "other":
            x = _read_only(second)
        elif form == "changed":
            x[:] = second
        for _ in range(fits):
            model.partial_fit(x, label)
            reference.partial_fit(x, label)
            assert model.weights.tobytes() == reference.weights.tobytes()
            assert model.bias.hex() == reference.bias.hex()


SGD_INPUT_FORMS = {
    "list": lambda block, i: block[i].tolist(),
    "float32": lambda block, i: block[i].astype(np.float32),
    "int": lambda block, i: np.rint(block[i] * 3.0).astype(int),
    "strided": lambda block, i: np.repeat(block[i], 2)[::2],
    "block-row": lambda block, i: block[i],
}


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([1, 2, 200, 300]) | st.integers(1, 300),
       st.integers(0, 2**32 - 1),
       st.lists(st.tuples(st.sampled_from(sorted(SGD_INPUT_FORMS)),
                          st.integers(0, 7), st.booleans(),
                          st.integers(0, 1)), min_size=1, max_size=30))
def test_sgd_input_forms_are_bit_identical_to_reference(dim, seed, steps):
    """Lists, float32 and int arrays, non-contiguous views and rows of a
    read-only block matrix, at dims up to 300: each step may predict (and
    keep the reference's score to the bit), then fits once; the reference
    sees the input as ``np.asarray(x, float)``."""
    block = np.random.default_rng(seed).uniform(-10.0, 10.0, (8, dim))
    block.flags.writeable = False
    model, reference = SgdClassifier(dim), ReferenceSgdClassifier(dim)
    for form, row, predict_first, label in steps:
        x = SGD_INPUT_FORMS[form](block, row)
        as_float = np.asarray(x, dtype=float)
        if predict_first:
            assert model.predict(x) == reference.predict(as_float)
            score = float(reference.weights @ as_float) + reference.bias
            assert model._scored[1].hex() == score.hex()
        model.partial_fit(x, label)
        reference.partial_fit(as_float, label)
        assert model.weights.tobytes() == reference.weights.tobytes()
        assert model.bias.hex() == reference.bias.hex()


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
    assert t._root.left is None


def test_tree_learns_single_threshold_concept():
    rng = np.random.default_rng(3)
    t = HoeffdingTreeClassifier(dim=3)
    for _ in range(3000):
        x = rng.random(3)
        t.partial_fit(x, int(x[0] > 0.5))
    assert t._root.left is not None
    checks = rng.random((500, 3))
    acc = np.mean([t.predict(x) == int(x[0] > 0.5) for x in checks])
    assert acc > 0.95


def test_tree_routes_the_threshold_itself_left():
    """A split sends ``x[feature] == threshold`` to the left child and the
    next float up to the right one; the children predict differently."""
    rng = np.random.default_rng(3)
    t = HoeffdingTreeClassifier(dim=3)
    while t._root.left is None:
        x = rng.random(3)
        t.partial_fit(x, int(x[0] > 0.5))
    root = t._root
    assert root.feature == 0
    assert root.left.majority() != root.right.majority()
    at = np.array([root.threshold, 0.5, 0.5])
    above = np.array([np.nextafter(root.threshold, 1.0), 0.5, 0.5])
    assert t._find_leaf(at) is root.left
    assert t._find_leaf(above) is root.right
    assert t.predict(at) == root.left.majority()
    assert t.predict(above) == root.right.majority()


def test_tree_never_splits_on_pure_labels():
    rng = np.random.default_rng(4)
    t = HoeffdingTreeClassifier(dim=3)
    for _ in range(2000):
        t.partial_fit(rng.random(3), 0)
    assert t._root.left is None
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


def tree_leaves(node):
    if node.left is not None:
        return tree_leaves(node.left) + tree_leaves(node.right)
    return [node]


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_tree_and_forest_reject_non_finite_entries(bad):
    """An infinite or NaN entry raises before any state changes.  A tree
    fed ``[inf, 0.5]`` and then 3,000 samples of the concept x0 > 0.5 used
    to stay one leaf whose class-1 mean was NaN for good."""
    tree = HoeffdingTreeClassifier(dim=2)
    forest = ArfEnsemble(dim=2, n_trees=3, seed=0)
    for model in (tree, forest):
        for call in (lambda x: model.partial_fit(x, 1), model.predict):
            with pytest.raises(ValueOutOfRange, match="not finite"):
                call(np.array([bad, 0.5]))
    # the forest drew no Poisson weights for the rejected sample
    assert (forest._poisson_rng.bit_generator.state
            == ArfEnsemble(dim=2, n_trees=3, seed=0)
            ._poisson_rng.bit_generator.state)
    rng = np.random.default_rng(3)
    for _ in range(3000):
        x = rng.random(2)
        tree.partial_fit(x, int(x[0] > 0.5))
    assert tree._root.left is not None
    assert tree._root.feature == 0
    assert all(np.isfinite(leaf.feat_mean).all()
               for leaf in tree_leaves(tree._root))


GRID = [i / 10 for i in range(11)]


def stats_leaf(class_weights, feat_weight, features):
    """A leaf holding the given statistics: per feature ``(lo, hi, (mean,
    m2) of class 0, (mean, m2) of class 1)``."""
    leaf = _Node(len(features), class_weights)
    leaf.feat_weight[:] = feat_weight
    for f, (lo, hi, *stats) in enumerate(features):
        leaf.feat_min[f], leaf.feat_max[f] = lo, hi
        for c, (mean, m2) in enumerate(stats):
            leaf.feat_mean[c, f], leaf.feat_m2[c, f] = mean, m2
    return leaf


@st.composite
def split_leaves(draw):
    """Leaves with constant and unseen features (no candidate), classes of
    zero variance (a step, so equal gains on the 0.1 grid), a class
    without feature weight (a fresh child), and repeated features (equal
    gains across features)."""
    weight = st.one_of(st.integers(1, 30).map(float), st.floats(0.01, 50.0))
    class_weights = [draw(weight), draw(weight)]
    feat_weight = [draw(st.one_of(st.just(0.0), weight)) for _ in range(2)]
    value = st.one_of(st.sampled_from(GRID), st.floats(0.0, 1.0))
    variance = st.one_of(st.just(0.0), st.floats(1e-4, 0.5))

    def feature():
        kind = draw(st.sampled_from(["range", "constant", "unseen"]))
        if kind == "unseen":
            return (np.inf, -np.inf, (0.0, 0.0), (0.0, 0.0))
        lo, hi = sorted((draw(value), draw(value)))
        if kind == "constant":
            hi = lo
        return (lo, hi, *((draw(value), draw(variance) * w) if w else (0.0, 0.0)
                          for w in feat_weight))

    specs = [feature() for _ in range(draw(st.integers(1, 3)))]
    picks = draw(st.lists(st.integers(0, len(specs) - 1), min_size=1,
                          max_size=4))
    return stats_leaf(class_weights, feat_weight, [specs[i] for i in picks])


def split_bits(candidates):
    return [(float(gain).hex(), feature, float(threshold).hex(),
             [[float(m).hex() for m in side] for side in masses])
            for gain, feature, threshold, masses in candidates]


@settings(max_examples=300, deadline=None)
@given(split_leaves())
# a leaf whose best gain differs in its last bit under np.log2 (numpy 2.4.6
# on AVX-512), where drawn leaves rarely show it
@example(stats_leaf([25.0, 9.0], [25.0, 9.0], [(0.0, 1.0, (0.5, 0.25),
                                                 (0.1, 1.17))]))
def test_split_candidates_are_bit_identical_to_scalar_loops(leaf):
    # every ranked candidate's gain, threshold and child masses, as bits
    assert split_bits(learners._split_candidates(leaf)) == \
        split_bits(reference_split_candidates(leaf))


# ---------------------------------------------------------------------------
# Adaptive random forest
# ---------------------------------------------------------------------------

def test_arf_poisson_draws_have_expected_mean():
    ens = ArfEnsemble(dim=4, n_trees=10, seed=0)
    draws = ens._poisson_rng.poisson(ARF_POISSON_LAMBDA, size=(2000, 10))
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
        PoolMembers(["perceptron", "decision-stump"])


def one_row(ids):
    """``ids`` as a batch of one row, in ``PoolMembers``' CSR form."""
    return np.array(ids, dtype=np.intp), np.array([len(ids)])


def fit(pool, ids, label):
    """Replay one row into the one member of ``pool``."""
    pool.partial_fit_many(*one_row(ids), [label], [0])


def score(pool, ids):
    return pool.score_many(*one_row(ids))[0, 0]


def weights_of(pool, m=0):
    return pool.weights[m, :pool.sizes[m]]


def test_pool_untrained_predicts_zero():
    pool = PoolMembers(POOL_MEMBER_KINDS)
    # rows [0, 5, 17] and []: score 0 lies on the boundary, so vote 0
    ids, ends = np.array([0, 5, 17]), np.array([3, 3])
    assert pool.score_many(ids, ends).tolist() == [[0.0, 0.0]] * 3


def test_perceptron_update_rule():
    m = PoolMembers(["perceptron"])      # step size 0.01
    fit(m, [0], 1)                       # mistake: score 0 -> update
    assert score(m, [0]) == pytest.approx(0.02)  # w=0.01 plus b=0.01
    fit(m, [0], 1)                       # margin 0.02 > 0 -> no update
    assert score(m, [0]) == pytest.approx(0.02)


def test_sgd_hinge_updates_inside_margin_where_perceptron_stops():
    hinge = PoolMembers(["sgd-hinge"])
    mistake = PoolMembers(["perceptron"])
    for m in (hinge, mistake):
        fit(m, [0], 1)                   # both update from zero
        assert score(m, [0]) == pytest.approx(0.02)
    fit(hinge, [0], 1)                   # margin 0.02 < 1 -> another step
    fit(mistake, [0], 1)                 # margin 0.02 > 0 -> no step
    fit(mistake, [0], 1)                 # margin 0.02 > 0 -> no step
    assert score(hinge, [0]) == pytest.approx(0.04)
    assert score(mistake, [0]) == pytest.approx(0.02)


def test_passive_aggressive_step_size():
    m = PoolMembers(["passive-aggressive"])
    fit(m, [0, 1], 1)
    # loss 1 over squared norm 3 (two features + bias) -> tau = 1/3
    assert score(m, [0, 1]) == pytest.approx(1.0)
    np.testing.assert_allclose(weights_of(m), [1 / 3, 1 / 3])
    fit(m, [0, 1], 1)                    # margin exactly 1 -> loss 0
    assert score(m, [0, 1]) == pytest.approx(1.0)


def test_passive_aggressive_cap():
    m = PoolMembers(["passive-aggressive"])  # C = 1
    fit(m, [], 1)                        # loss 1 over squared norm 1 -> tau 1
    assert m.biases[0] == pytest.approx(1.0)
    fit(m, [], 0)                        # loss 2 -> tau 2, capped at 1
    assert m.biases[0] == pytest.approx(0.0)


def test_pool_member_grows_feature_space():
    m = PoolMembers(["perceptron"])
    fit(m, [2], 1)
    assert m.sizes == [3]
    fit(m, [10], 1)
    assert m.sizes == [11]
    assert weights_of(m)[2] == 0.01      # old weight untouched by growth
    # indices beyond current capacity contribute nothing to the score
    assert score(m, [2, 99]) == pytest.approx(score(m, [2]))


def test_pool_members_grow_only_the_members_that_replay():
    pool = PoolMembers(POOL_MEMBER_KINDS)
    pool.partial_fit_many(*one_row([4]), [1], [0, 2])
    assert pool.sizes == [5, 0, 5]
    pool.partial_fit_many(*one_row([1, 7]), [0], [1])
    assert pool.sizes == [5, 8, 5]
    # the matrix is as wide as the widest member, zero past each size
    assert pool.weights.shape == (3, 8) and pool.weights.flags.c_contiguous
    assert not pool.weights[0, 5:].any() and not pool.weights[2, 5:].any()
    # id 7 weighs -0.01 for member 1 and nothing for members 0 and 2
    assert pool.score_many(*one_row([7])).tolist() == [
        [0.01], [-0.02], [0.5]]


# updates whose ids are sorted and distinct; a sample's largest id may lie
# past the member's capacity, and a sample may hold no id at all
pool_updates = st.lists(
    st.tuples(st.sets(st.integers(0, 40), max_size=8).map(sorted),
              st.integers(0, 1)),
    min_size=1, max_size=40)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(POOL_MEMBER_KINDS), pool_updates)
def test_pool_member_updates_are_bit_identical_to_reference(kind, updates):
    member, reference = PoolMembers([kind]), ReferencePoolMember(kind)
    for ids, label in updates:
        fit(member, ids, label)
        reference.partial_fit(ids, label)
        assert ([w.hex() for w in weights_of(member).tolist()]
                == [w.hex() for w in reference.weights.tolist()])
        assert member.biases[0].hex() == reference.bias.hex()


def batch(rows):
    """Rows of ids as one batch in ``PoolMembers``' CSR form."""
    return (np.array([i for row in rows for i in row], dtype=np.intp),
            np.cumsum([len(row) for row in rows], dtype=np.intp))


@st.composite
def pool_batches(draw):
    """1-4 batches of (ids, label) rows, ids sorted and distinct, each with
    the set of members that replays it.

    Row sizes cover empty rows, 1-8 ids, 9-128 ids (numpy's 8-way unrolled
    sum) and 129-300 ids (its pairwise recursion); a batch's rows share 1-3
    sizes, so rows of one size are summed together.  Each batch draws its
    ids below its own bound of 100-400, and only some members may replay
    it, so members' sizes diverge: a member meets ids past its size in
    part of a row or all of it, while others of the pool do not.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = st.one_of(st.just(0), st.integers(1, 8), st.integers(9, 128),
                     st.integers(129, 300))
    batches = []
    for _ in range(draw(st.integers(1, 4))):
        bound = 100 * draw(st.integers(1, 4))
        sizes = draw(st.lists(size, min_size=1, max_size=3))
        rows = [
            (np.sort(rng.choice(bound, min(n, bound), replace=False)).tolist(),
             draw(st.integers(0, 1)))
            for n in draw(st.lists(st.sampled_from(sizes), min_size=1,
                                   max_size=8))]
        batches.append((rows, sorted(draw(st.sets(st.integers(0, 2))))))
    return batches


def diverging_batches():
    """Member 2 replays 60-id rows below 100, members 0 and 1 150-id rows
    below 400; the third batch is scored with sizes 100 and 400, where
    summing member 2's rows at 400 ids, padded with zeros, changes bits."""
    rng = np.random.default_rng(0)

    def rows(bound, n, count):
        return [(np.sort(rng.choice(bound, n, replace=False)).tolist(),
                 int(rng.integers(2))) for _ in range(count)]

    return [(rows(100, 60, 6), [2]), (rows(400, 150, 4), [0, 1]),
            (rows(400, 150, 4), [0, 1, 2])]


def boundary_batches():
    """Member 0 replays one row of ids 0-4; the second batch is scored at
    sizes 5, 0 and 0.  Member 0 keeps both ids of the first row, none of
    the second, whose first id is its size, and one of the third: an id
    past a size counts against the row whose end lies past the id's place,
    also when it is the row's first id."""
    return [([([0, 1, 2, 3, 4], 1)], [0]),
            ([([1, 3], 0), ([5, 7], 1), ([2, 6], 1)], [])]


@settings(max_examples=100, deadline=None)
@given(pool_batches())
@example(diverging_batches())
@example(boundary_batches())
def test_pool_member_batches_are_bit_identical_to_reference(batches):
    """Each batch is scored, then replayed into some members, by one call
    each; one reference member per kind scores and updates one row at a
    time."""
    pool = PoolMembers(POOL_MEMBER_KINDS)
    references = [ReferencePoolMember(kind) for kind in POOL_MEMBER_KINDS]
    for rows, members in batches:
        ids, ends = batch([row for row, _ in rows])
        assert ([[s.hex() for s in scores]
                 for scores in pool.score_many(ids, ends).tolist()]
                == [[reference.score(row).hex() for row, _ in rows]
                    for reference in references])
        pool.partial_fit_many(ids, ends, [label for _, label in rows],
                              members)
        for m in members:
            for row, label in rows:
                references[m].partial_fit(row, label)
        for m, reference in enumerate(references):
            assert ([w.hex() for w in weights_of(pool, m).tolist()]
                    == [w.hex() for w in reference.weights.tolist()])
            assert not pool.weights[m, pool.sizes[m]:].any()
            assert pool.biases[m].hex() == reference.bias.hex()
