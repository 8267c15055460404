import gc
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from helpers import (DATA, brute_force_gini_split, brute_force_sse_split, monotone_mapped,
                     thresholds_dropped, two_cumsum_sse_gains)

from medtab import dataset as ds, encoding
from medtab.models import export_tree, train_dtree, train_gbdt, tree_predict
from medtab.models.tree import (NodeRows, TreeModel, _paired, _sse_gains, _sse_totals,
                                best_gini_split, best_sse_split, gini_from_counts,
                                train_regression_tree)


class TestGini:
    def test_balanced_counts(self):
        assert gini_from_counts(5, 5) == 0.5

    def test_pure_node(self):
        assert gini_from_counts(10, 0) == 0.0

    def test_empty(self):
        assert gini_from_counts(0, 0) == 0.0


def random_table(rng, n_max=20, d_max=5):
    n = int(rng.integers(4, n_max + 1))
    d = int(rng.integers(1, d_max + 1))
    # draw from a coarse grid so ties between rows are common
    X = rng.integers(0, 6, size=(n, d)).astype(np.float64) / 2.0
    y = rng.integers(0, 2, n).astype(np.int64)
    return X, y


class TestBestSplitOracle:
    def test_matches_brute_force_on_random_tables(self):
        rng = np.random.default_rng(2024)
        checked = 0
        for _ in range(200):
            X, y = random_table(rng)
            ours = best_gini_split(X, y)
            oracle = brute_force_gini_split(X, y)
            if oracle is None:
                assert ours is None
                continue
            assert ours is not None
            assert ours[0] == oracle[0], "column mismatch"
            assert ours[1] == oracle[1], "threshold mismatch"
            checked += 1
        assert checked > 100

    def test_toy_table_root(self):
        X = np.array([[1, 0, 5], [2, 1, 4], [3, 0, 3], [4, 1, 2],
                      [5, 0, 1], [6, 1, 0], [7, 0, 2], [8, 1, 6]], dtype=np.float64)
        y = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        col, thr, gain = best_gini_split(X, y)
        ocol, othr, ogain = brute_force_gini_split(X, y)
        assert (col, thr) == (ocol, othr) == (0, 4.5)

    def test_constant_columns_yield_no_split(self):
        X = np.ones((6, 2))
        y = np.array([0, 1, 0, 1, 0, 1])
        assert best_gini_split(X, y) is None


@st.composite
def tie_heavy_tables(draw, n_max=24, d_max=5):
    """(X, y, t, w): a table on a coarse value grid, so most columns repeat
    values; 0/1 labels; targets and weights that are small multiples of a
    power of two, so every sum of them is exact."""
    n = draw(st.integers(1, n_max))
    d = draw(st.integers(1, d_max))

    def column(values, size):
        return np.array(draw(st.lists(values, min_size=size, max_size=size)), dtype=np.float64)

    X = column(st.integers(0, 5), n * d).reshape(n, d) / 2.0
    y = column(st.integers(0, 1), n).astype(np.int64)
    t = column(st.integers(-8, 8), n) / 4.0
    w = column(st.integers(1, 8), n) / 8.0
    return X, y, t, w


def reference_tree(X, max_depth, min_samples_split, leaf, split):
    """Recursive greedy grower over row subsets, calling ``split`` on the
    node's own rows (a brute-force oracle). ``leaf(rows)`` gives the leaf's
    document and whether the node may split. Returns (root doc, gains)."""
    n, d = X.shape
    gains = np.zeros(d)

    def grow(rows, depth):
        doc, splittable = leaf(rows)
        if not splittable or depth >= max_depth or len(rows) < min_samples_split:
            return doc
        found = split(rows)
        if found is None:
            return doc
        col, thr, gain = found
        gains[col] += (len(rows) / n) * gain
        mask = X[rows, col] <= thr
        return {"n": len(rows), "column": col, "threshold": thr,
                "left": grow(rows[mask], depth + 1), "right": grow(rows[~mask], depth + 1)}

    return grow(np.arange(n), 0), gains


def walk_predict(root, X):
    """Per-row walk from the root, the reference for ``tree_predict``."""
    out = []
    for x in X:
        node = root
        while not node.is_leaf:
            node = node.left if x[node.column] <= node.threshold else node.right
        out.append(node.value)
    return np.array(out, dtype=np.float64)


class TestEngineOracles:
    @given(tie_heavy_tables())
    @settings(max_examples=100, deadline=None)
    def test_gini_split_equals_brute_force(self, table):
        X, y, _, _ = table
        assert best_gini_split(X, y) == brute_force_gini_split(X, y)

    @given(tie_heavy_tables())
    @settings(max_examples=100, deadline=None)
    def test_sse_split_equals_brute_force(self, table):
        X, _, t, _ = table
        assert best_sse_split(X, t) == brute_force_sse_split(X, t)

    @given(tie_heavy_tables(n_max=40), st.integers(1, 5), st.integers(2, 6))
    @settings(max_examples=100, deadline=None)
    def test_dtree_equals_reference_grower(self, table, max_depth, min_samples_split):
        X, y, _, _ = table

        def leaf(rows):
            pos = int(y[rows].sum())
            neg = len(rows) - pos
            return {"n": len(rows), "value": pos / len(rows), "counts": [neg, pos]}, pos and neg

        want, gains = reference_tree(X, max_depth, min_samples_split, leaf,
                                     lambda rows: brute_force_gini_split(X[rows], y[rows]))
        model = train_dtree(X, y, max_depth, min_samples_split)
        assert model.root.to_doc() == want
        assert np.array_equal(model._gains, gains)

    @given(tie_heavy_tables(n_max=40), st.integers(1, 6))
    @settings(max_examples=100, deadline=None)
    def test_regression_tree_equals_reference_grower(self, table, max_depth):
        X, _, t, w = table

        def leaf(rows):
            return {"n": len(rows), "value": float(t[rows].sum() / (w[rows].sum() + 1e-12))}, True

        want, gains = reference_tree(X, max_depth, 2, leaf,
                                     lambda rows: brute_force_sse_split(X[rows], t[rows]))
        root, got_gains = train_regression_tree(X, t, w, max_depth=max_depth)
        assert root.to_doc() == want
        assert np.array_equal(got_gains, gains)

    @given(tie_heavy_tables(n_max=40), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_tree_predict_equals_row_walk(self, table, seed):
        X, y, t, w = table
        rng = np.random.default_rng(seed)
        # Query on a finer grid than the table's, so rows fall exactly on
        # thresholds (midpoints) too, plus missing values.
        Xq = rng.integers(-1, 12, size=(30, X.shape[1])) / 4.0
        Xq[rng.random(Xq.shape) < 0.1] = np.nan
        for root in (train_dtree(X, y, 4, 2).root, train_regression_tree(X, t, w)[0]):
            assert np.array_equal(tree_predict(root, Xq), walk_predict(root, Xq))
        assert tree_predict(root, Xq[:0]).shape == (0,)

    @given(tie_heavy_tables(n_max=40))
    @settings(max_examples=60, deadline=None)
    def test_pruned_tree_equals_direct_growth(self, table):
        X, y, _, _ = table
        full = train_dtree(X, y, 5, 2)
        for max_depth in range(1, 6):
            for min_samples_split in range(2, 11):
                got = full.pruned(max_depth, min_samples_split)
                want = train_dtree(X, y, max_depth, min_samples_split)
                assert got.to_doc() == want.to_doc()
                assert np.array_equal(got._gains, want._gains)

    @given(tie_heavy_tables(n_max=40))
    @settings(max_examples=60, deadline=None)
    def test_one_routing_gives_every_pruned_trees_probabilities(self, table):
        X, y, _, _ = table
        Xq = np.concatenate([X, X + 0.25])  # the training rows, and rows on the thresholds
        full = train_dtree(X, y, 5, 2)
        proba = full.pruned_proba(Xq)
        for max_depth in range(1, 6):
            for min_samples_split in range(2, 11):
                got = proba(max_depth, min_samples_split)
                want = full.pruned(max_depth, min_samples_split).predict_proba(Xq)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_pruning_outside_the_grown_tree_rejected(self):
        X = np.arange(8, dtype=np.float64)[:, None]
        y = np.array([0, 1] * 4)
        full = train_dtree(X, y, 3, 4)
        proba = full.pruned_proba(X)
        for max_depth, min_samples_split in ((4, 4), (3, 3), (0, 4)):
            with pytest.raises(ValueError):
                full.pruned(max_depth, min_samples_split)
            with pytest.raises(ValueError):
                proba(max_depth, min_samples_split)
        loaded = TreeModel.from_doc(full.to_doc())
        with pytest.raises(ValueError, match="carry no split gains"):
            loaded.pruned(2, 4)
        with pytest.raises(ValueError, match="carry no split gains"):
            loaded.pruned_proba(X)
        with pytest.raises(ValueError, match="expected 1 columns, got 2"):
            full.pruned_proba(np.zeros((3, 2)))

    def test_training_leaves_no_reference_cycles(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(60, 3))
        y = (X[:, 0] > 0).astype(np.int64)
        gc.collect()
        gc.disable()
        try:
            train_dtree(X, y, 5, 2).pruned(3, 4)
            train_regression_tree(X, y - 0.5, np.full(60, 0.25))
            shared = NodeRows.root(X)
            for t in (y - 0.5, X[:, 1], y - 0.5):
                train_regression_tree(X, t, np.full(60, 0.25), node_rows=shared)
            del shared
            unreachable = gc.collect()
        finally:
            gc.enable()
        assert unreachable == 0


@st.composite
def target_rounds(draw, n_max=30):
    """(X, w, rounds): a tie-heavy table, weights, and a list of (targets,
    max_depth) rounds. The targets are picked from a pool of up to three
    vectors, so consecutive rounds often repeat a target (every split
    repeats) or switch to another one (splits change, and a later switch
    back finds the first splits replaced)."""
    X, _, _, w = draw(tie_heavy_tables(n_max=n_max))
    n = len(X)
    pool = [np.array(draw(st.lists(st.integers(-8, 8), min_size=n, max_size=n)),
                     dtype=np.float64) / 4.0
            for _ in range(draw(st.integers(1, 3)))]
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=2, max_size=8))
    return X, w, [(pool[i], draw(st.integers(1, 4))) for i in picks]


def split_gains(root):
    """Each split's gain, in preorder."""
    out, stack = [], [root]
    while stack:
        node = stack.pop()
        if not node.is_leaf:
            out.append(node.gain)
            stack += [node.right, node.left]
    return out


def remembered(node_rows):
    """Every NodeRows reachable from ``node_rows`` through remembered splits."""
    out, stack = [], [node_rows]
    while stack:
        node = stack.pop()
        out.append(node)
        stack += node.children or ()
    return out


class TestSharedRoot:
    @given(target_rounds())
    @settings(max_examples=100, deadline=None)
    def test_shared_root_equals_fresh_growth(self, case):
        X, w, rounds = case
        shared = NodeRows.root(X)
        for t, max_depth in rounds:
            got_fitted, want_fitted = np.empty(len(X)), np.empty(len(X))
            got, got_gains = train_regression_tree(X, t, w, max_depth, node_rows=shared,
                                                   fitted=got_fitted)
            want, want_gains = train_regression_tree(X, t, w, max_depth, fitted=want_fitted)
            assert got.to_doc() == want.to_doc()
            assert split_gains(got) == split_gains(want)
            assert np.array_equal(got_gains, want_gains)
            assert np.array_equal(got_fitted, want_fitted)

    def test_same_split_reuses_children_and_another_replaces_them(self):
        X = np.arange(16, dtype=np.float64).reshape(8, 2)
        w = np.ones(8)
        shared = NodeRows.root(X)
        low_high = np.array([-1.0] * 4 + [1.0] * 4)
        train_regression_tree(X, low_high, w, 1, node_rows=shared)
        children = shared.children
        assert [len(c.rows) for c in children] == [4, 4]
        train_regression_tree(X, 2 * low_high, w, 1, node_rows=shared)
        assert shared.children is children
        train_regression_tree(X, np.array([-1.0] * 2 + [1.0] * 6), w, 1, node_rows=shared)
        assert shared.children is not children
        assert [len(c.rows) for c in shared.children] == [2, 6]

    @pytest.mark.parametrize("max_depth", [1, 3, 5])
    def test_remembered_nodes_stay_within_one_tree(self, max_depth):
        rng = np.random.default_rng(max_depth)
        X = rng.normal(size=(200, 4)).round(1)
        w = np.full(200, 0.25)
        shared = NodeRows.root(X)
        bound = 2 ** (max_depth + 1) - 1
        for _ in range(60):
            train_regression_tree(X, rng.normal(size=200), w, max_depth, node_rows=shared)
            assert len(remembered(shared)) <= bound


@st.composite
def wide_target_tables(draw, n_max=60):
    """(X, t): a tie-heavy table and targets spread over forty binades, so
    their sums round, unlike those of ``tie_heavy_tables``."""
    X, _, _, _ = draw(tie_heavy_tables(n_max=n_max, d_max=4))
    value = st.builds(lambda mantissa, exponent: mantissa * 2.0 ** exponent,
                      st.floats(-1.0, 1.0), st.integers(-20, 20))
    return X, np.array(draw(st.lists(value, min_size=len(X), max_size=len(X))))


class TestSseSearch:
    @given(wide_target_tables())
    @settings(max_examples=150, deadline=None)
    def test_paired_prefix_sums_equal_two_float_cumsums(self, table):
        X, t = table
        gains_of = partial(_sse_gains, tc=_paired(t))
        stack = [(NodeRows.root(X), 0)]
        while stack:
            node, depth = stack.pop()
            totals = _sse_totals(t, node.rows)
            found = node.best_split(gains_of, -np.inf, totals)  # lays out the cuts, and any gain wins
            if found is None:
                continue
            assert gains_of(node, *totals).tobytes() == two_cumsum_sse_gains(node, t).tobytes()
            if depth < 3:
                stack += [(child, depth + 1) for child in node.split(*found[:3])]

    @pytest.mark.parametrize("value", [0.7, 0.9999])
    def test_equal_targets_never_split_on_rounding_noise(self, value):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(10_000, 3))
        t = np.full(10_000, value)
        root, gains = train_regression_tree(X, t, np.full(10_000, 0.25))
        assert root.is_leaf and root.n_samples == 10_000
        assert not gains.any()
        assert best_sse_split(X, t) is None


class TestTrainDtree:
    def test_pure_node_is_leaf(self):
        X = np.arange(8, dtype=np.float64)[:, None]
        y = np.zeros(8, dtype=np.int64)
        model = train_dtree(X, y, max_depth=3, min_samples_split=2)
        assert model.root.is_leaf
        assert model.root.counts == (8, 0)

    def test_depth_limit_respected(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(100, 3))
        y = (X[:, 0] * X[:, 1] > 0).astype(np.int64)
        model = train_dtree(X, y, max_depth=2, min_samples_split=2)

        def depth(node):
            return 0 if node.is_leaf else 1 + max(depth(node.left), depth(node.right))

        assert depth(model.root) == 2

    def test_min_samples_split_respected(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(30, 2))
        y = rng.integers(0, 2, 30)
        model = train_dtree(X, y, max_depth=10, min_samples_split=12)

        def check(node):
            if not node.is_leaf:
                assert node.n_samples >= 12
                check(node.left)
                check(node.right)

        check(model.root)

    def test_single_leaf_counts_give_probability(self):
        X = np.ones((4, 1))
        y = np.array([0, 0, 0, 1])
        model = train_dtree(X, y, max_depth=3, min_samples_split=2)
        assert model.root.is_leaf
        probs = tree_predict(model.root, np.array([[1.0], [9.0]]))
        assert np.allclose(probs, 0.25)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(40, 3))
        y = (X[:, 1] > 0.3).astype(np.int64)
        X_query = rng.normal(size=(15, 3))
        model_a = train_dtree(X, y, 4, 2)
        pred_a = tree_predict(model_a.root, X_query)

        def warp(M):
            out = M.copy()
            out[:, 1] = np.exp(M[:, 1] / 2.0)  # strictly monotone on column 1
            return out

        model_b = train_dtree(warp(X), y, 4, 2)
        pred_b = tree_predict(model_b.root, warp(X_query))
        assert np.array_equal(pred_a, pred_b)

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(50, 4))
        y = rng.integers(0, 2, 50)
        names = ("a", "b", "c", "d")
        a = export_tree(train_dtree(X, y, 5, 2), names)
        b = export_tree(train_dtree(X, y, 5, 2), names)
        assert a == b

    def test_invalid_hyperparams(self):
        X = np.zeros((4, 1))
        y = np.array([0, 1, 0, 1])
        with pytest.raises(ValueError):
            train_dtree(X, y, max_depth=0, min_samples_split=2)
        with pytest.raises(ValueError):
            train_dtree(X, y, max_depth=2, min_samples_split=1)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_root_split_equals_oracle_property(self, seed):
        rng = np.random.default_rng(seed)
        X, y = random_table(rng)
        model = train_dtree(X, y, max_depth=1, min_samples_split=2)
        oracle = brute_force_gini_split(X, y)
        if y.min() == y.max():
            assert model.root.is_leaf
        elif oracle is None:
            assert model.root.is_leaf
        else:
            assert not model.root.is_leaf
            assert (model.root.column, model.root.threshold) == (oracle[0], oracle[1])


def flipped_doc(doc):
    """A dtree document as training on flipped labels gives it: the same
    splits and gains, each leaf's counts swapped and its value their new
    positive share."""
    out = dict(doc)
    if "root" in doc:
        out["root"] = flipped_doc(doc["root"])
    elif "column" in doc:
        out["left"], out["right"] = flipped_doc(doc["left"]), flipped_doc(doc["right"])
    else:
        neg, pos = doc["counts"]
        out["counts"], out["value"] = [pos, neg], neg / doc["n"]
    return out


class TestDtreeMetamorphic:
    """Whole-model invariants of ``train_dtree``: Gini gains come from integer
    counts, so row order does not reach them, and they are symmetric in the
    two classes."""

    @given(tie_heavy_tables(n_max=40), st.integers(1, 5), st.integers(2, 6), st.data())
    @settings(max_examples=150, deadline=None)
    def test_row_permutation_gives_the_same_document(self, table, max_depth,
                                                     min_samples_split, data):
        X, y, _, _ = table
        order = np.array(data.draw(st.permutations(range(len(y)))), dtype=np.int64)
        assert train_dtree(X[order], y[order], max_depth, min_samples_split).to_doc() == \
            train_dtree(X, y, max_depth, min_samples_split).to_doc()

    @given(tie_heavy_tables(n_max=40), tie_heavy_tables(n_max=30, d_max=1), st.integers(1, 5),
           st.integers(2, 6))
    @settings(max_examples=150, deadline=None)
    def test_label_flip_keeps_the_splits_and_flips_the_probabilities(
            self, table, held_out, max_depth, min_samples_split):
        X, y, _, _ = table
        X_held = np.resize(held_out[0], (len(held_out[0]), X.shape[1]))
        model = train_dtree(X, y, max_depth, min_samples_split)
        flipped = train_dtree(X, 1 - y, max_depth, min_samples_split)
        assert flipped.to_doc() == flipped_doc(model.to_doc())
        # ``1 - p`` rounds once more than the flipped leaf's own share
        assert np.abs(flipped.predict_proba(X_held) - (1.0 - model.predict_proba(X_held))).max() \
            <= 2.0 ** -52

    @pytest.mark.parametrize("name", ["hepatitis", "heart"])
    def test_bundled_tables(self, request, name):
        schema = request.getfixturevalue(f"{name}_schema")
        _, _, X, y = encoding.prepare(ds.load_csv(DATA / f"{name}.csv", schema), 7)
        model = train_dtree(X["train"], y["train"], 5, 2)
        rng = np.random.default_rng(7)
        for _ in range(5):
            order = rng.permutation(len(y["train"]))
            assert train_dtree(X["train"][order], y["train"][order], 5, 2).to_doc() == \
                model.to_doc()
        flipped = train_dtree(X["train"], 1 - y["train"], 5, 2)
        assert flipped.to_doc() == flipped_doc(model.to_doc())
        assert np.abs(flipped.predict_proba(X["test"])
                      - (1.0 - model.predict_proba(X["test"]))).max() <= 2.0 ** -52


class TestMonotoneColumnMap:
    """A strictly increasing map of one column keeps its sorted order and its
    ties, so both tree families split the same rows with the same gains and
    the same leaf values; only the thresholds on that column move."""

    @staticmethod
    def check(train, X, y):
        column, mapped_X = monotone_mapped(X)
        model, mapped = train(X, y), train(mapped_X, y)
        assert thresholds_dropped(mapped.to_doc(), column) == \
            thresholds_dropped(model.to_doc(), column)
        assert mapped._gains.tobytes() == model._gains.tobytes()
        assert mapped.predict_proba(mapped_X).tobytes() == model.predict_proba(X).tobytes()

    @given(tie_heavy_tables(n_max=40))
    @settings(max_examples=100, deadline=None)
    def test_dtree(self, table):
        X, y, _, _ = table
        self.check(lambda X, y: train_dtree(X, y, 5, 2), X, y)

    @given(tie_heavy_tables(n_max=40))
    @settings(max_examples=30, deadline=None)
    def test_gbdt(self, table):
        X, y, _, _ = table
        assume(0 < y.sum() < len(y))
        self.check(lambda X, y: train_gbdt(X, y, 100, 0.3), X, y)

    @pytest.mark.parametrize("name", ["hepatitis", "heart"])
    def test_bundled_tables(self, request, name):
        schema = request.getfixturevalue(f"{name}_schema")
        _, _, X, y = encoding.prepare(ds.load_csv(DATA / f"{name}.csv", schema), 7)
        self.check(lambda X, y: train_dtree(X, y, 5, 2), X["train"], y["train"])
        self.check(lambda X, y: train_gbdt(X, y, 100, 0.3), X["train"], y["train"])


class TestImportances:
    def test_stump_importance_is_one_hot(self):
        X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]] * 3)
        y = np.array([0, 1, 0, 1] * 3)
        model = train_dtree(X, y, max_depth=1, min_samples_split=2)
        scores = model.importances()
        assert scores.shape == (2,)
        assert scores[1] == pytest.approx(1.0)
        assert scores[0] == 0.0

    def test_importances_sum_to_one(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(80, 5))
        y = ((X[:, 0] + X[:, 3]) > 0).astype(np.int64)
        model = train_dtree(X, y, max_depth=5, min_samples_split=2)
        scores = model.importances()
        assert scores.shape == (5,)
        assert scores.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(scores >= 0)


class TestExportTree:
    NAMES = ("alpha",)

    def make(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]] * 2)
        y = np.array([0, 0, 1, 1] * 2)
        return train_dtree(X, y, 1, 2)

    def test_stump_text_render(self):
        assert export_tree(self.make(), self.NAMES) == (
            "alpha <= 1.5 (samples=8)\n"
            "  leaf: p=0.000000 counts=[4, 0] samples=4\n"
            "  leaf: p=1.000000 counts=[0, 4] samples=4\n")

    def test_depth_3_text_bytes(self):
        rng = np.random.default_rng(11)
        X = rng.integers(0, 5, size=(24, 3)).astype(float)
        y = ((X[:, 0] + X[:, 2]) > 4).astype(int)
        assert export_tree(train_dtree(X, y, 3, 2), ("a", "b", "c")) == (
            "a <= 1.5 (samples=24)\n"
            "  leaf: p=0.000000 counts=[8, 0] samples=8\n"
            "  c <= 2.5 (samples=16)\n"
            "    a <= 2.5 (samples=8)\n"
            "      leaf: p=0.000000 counts=[4, 0] samples=4\n"
            "      leaf: p=0.750000 counts=[1, 3] samples=4\n"
            "    leaf: p=1.000000 counts=[0, 8] samples=8\n")

    def test_identical_bytes_for_same_model(self):
        model = self.make()
        assert export_tree(model, self.NAMES) == export_tree(model, self.NAMES)

    def test_unknown_format(self):
        # text is the only rendering, so there is no format to name
        with pytest.raises(TypeError):
            export_tree(self.make(), self.NAMES, "dot")
