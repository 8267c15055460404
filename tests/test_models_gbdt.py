import gc
import json
from itertools import islice

import numpy as np
import pytest

from medtab.models import log_loss, train_gbdt
from medtab.models.gbdt import GbdtModel, gbdt_raw_scores, gbdt_stages
from medtab.models.logreg import sigmoid
from medtab.models.tree import train_regression_tree, tree_predict


def toy_6rows():
    X = np.array([[1.0, 10.0], [2.0, 9.0], [3.0, 8.0],
                  [4.0, 3.0], [5.0, 2.0], [6.0, 1.0]])
    y = np.array([0.0, 0.0, 1.0, 1.0, 1.0, 0.0])
    return X, y


def oracle_two_rounds(X, y, lr, max_depth=6, eps=1e-12):
    """Straight-line re-implementation of two boosting rounds: exhaustive
    SSE split search by brute partition, leaves sum(res)/ (sum(hess)+eps)."""

    def sse(values):
        values = np.asarray(values)
        if len(values) == 0:
            return 0.0
        total = float(values.sum())
        return float((values * values).sum()) - total * total / len(values)

    def build(rows, res, hess, depth):
        node = {"value": float(res[rows].sum() / (hess[rows].sum() + eps))}
        if depth >= max_depth or len(rows) < 2:
            return node
        parent = sse(res[rows])
        best = None
        for col in range(X.shape[1]):
            for a, b in zip(*(lambda v: (v, v[1:]))(sorted(set(X[rows, col].tolist())))):
                thr = (a + b) / 2.0
                mask = X[rows, col] <= thr
                gain = parent - sse(res[rows][mask]) - sse(res[rows][~mask])
                if best is None or gain > best[0]:
                    best = (gain, col, thr)
        if best is None or best[0] <= 1e-12:
            return node
        _, col, thr = best
        mask = X[rows, col] <= thr
        return {"column": col, "threshold": thr,
                "left": build(rows[mask], res, hess, depth + 1),
                "right": build(rows[~mask], res, hess, depth + 1)}

    def predict(node, x):
        while "column" in node:
            node = node["left"] if x[node["column"]] <= node["threshold"] else node["right"]
        return node["value"]

    base = float(y.mean())
    scores = np.full(len(y), np.log(base / (1 - base)))
    for _ in range(2):
        p = 1.0 / (1.0 + np.exp(-scores))
        res = y - p
        hess = p * (1 - p)
        root = build(np.arange(len(y)), res, hess, 0)
        scores = scores + lr * np.array([predict(root, x) for x in X])
    return 1.0 / (1.0 + np.exp(-scores))


class TestGbdt:
    def test_zero_estimators_predicts_base_rate(self):
        X, y = toy_6rows()
        model = train_gbdt(X, y, n_estimators=0, learning_rate=0.1)
        assert np.allclose(model.predict_proba(X), y.mean())

    def test_zero_learning_rate_predicts_base_rate(self):
        X, y = toy_6rows()
        model = train_gbdt(X, y, n_estimators=25, learning_rate=0.0)
        assert np.allclose(model.predict_proba(X), y.mean())

    def test_training_loss_non_increasing(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(60, 4))
        y = ((X[:, 0] - X[:, 2] + 0.3 * rng.normal(size=60)) > 0).astype(np.float64)
        prev = None
        for k in range(0, 12, 2):
            model = train_gbdt(X, y, n_estimators=k, learning_rate=0.1)
            loss = log_loss(y, model.predict_proba(X))
            if prev is not None:
                assert loss <= prev + 1e-12
            prev = loss

    def test_two_rounds_match_hand_oracle(self):
        X, y = toy_6rows()
        for lr in (0.01, 0.1, 0.3):
            model = train_gbdt(X, y, n_estimators=2, learning_rate=lr)
            ours = model.predict_proba(X)
            oracle = oracle_two_rounds(X, y, lr)
            assert np.max(np.abs(ours - oracle)) < 1e-9

    def test_single_class_rejected(self):
        X = np.zeros((5, 2))
        with pytest.raises(ValueError):
            train_gbdt(X, np.ones(5), n_estimators=5, learning_rate=0.1)

    def test_initial_log_odds_matches_base_rate(self):
        X, y = toy_6rows()
        model = train_gbdt(X, y, n_estimators=3, learning_rate=0.1)
        assert sigmoid(np.array([model.initial_log_odds]))[0] == pytest.approx(y.mean())

    def test_raw_scores_compose_trees(self):
        X, y = toy_6rows()
        model = train_gbdt(X, y, n_estimators=4, learning_rate=0.2)
        assert np.allclose(sigmoid(gbdt_raw_scores(model, X)), model.predict_proba(X))

    def test_deterministic(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(40, 3))
        y = (X[:, 1] > 0).astype(np.float64)
        a = train_gbdt(X, y, 10, 0.1)
        b = train_gbdt(X, y, 10, 0.1)
        assert np.array_equal(a.predict_proba(X), b.predict_proba(X))

    def test_dimension_mismatch_rejected(self):
        X, y = toy_6rows()
        model = train_gbdt(X, y, 2, 0.1)
        with pytest.raises(ValueError):
            model.predict_proba(np.zeros((3, 5)))

    def test_importances_normalized(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(60, 4))
        y = (X[:, 2] > 0).astype(np.float64)
        scores = train_gbdt(X, y, 10, 0.1).importances()
        assert scores.shape == (4,)
        assert scores.sum() == pytest.approx(1.0, abs=1e-12)
        assert scores[2] > 0.5


def reference_boost(X, y, n_estimators, lr, max_tree_depth):
    """The boosting loop written out, one fresh run per ``n_estimators``."""
    base = float(y.mean())
    f0 = float(np.log(base / (1.0 - base)))
    scores = np.full(len(y), f0)
    trees, gains = [], np.zeros(X.shape[1])
    for _ in range(n_estimators):
        p = sigmoid(scores)
        root, tree_gains = train_regression_tree(X, y - p, p * (1.0 - p), max_depth=max_tree_depth)
        gains += tree_gains
        trees.append(root)
        scores = scores + lr * tree_predict(root, X)
    return GbdtModel(trees=trees, learning_rate=lr, n_estimators=n_estimators,
                     initial_log_odds=f0, max_tree_depth=max_tree_depth, n_columns=X.shape[1],
                     _gains=gains)


def gbdt_doc(model) -> str:
    return json.dumps(model.to_doc(), sort_keys=True)


class TestStages:
    def test_stages_serialize_as_separate_runs(self):
        rng = np.random.default_rng(14)
        X = np.round(rng.normal(size=(50, 3)), 1)
        y = ((X[:, 0] + 0.5 * rng.normal(size=50)) > 0).astype(np.float64)
        stages = list(islice(gbdt_stages(X, y, 0.3, max_tree_depth=3), 201))
        for k in (0, 50, 100, 200):
            want = gbdt_doc(reference_boost(X, y, k, 0.3, 3))
            assert gbdt_doc(stages[k]) == want
            assert gbdt_doc(train_gbdt(X, y, k, 0.3, max_tree_depth=3)) == want
        assert np.allclose(stages[0].predict_proba(X), y.mean())

    def test_training_leaves_no_reference_cycles(self):
        X, y = toy_6rows()
        gc.collect()
        gc.disable()
        try:
            train_gbdt(X, y, n_estimators=5, learning_rate=0.1)
            unreachable = gc.collect()
        finally:
            gc.enable()
        assert unreachable == 0
