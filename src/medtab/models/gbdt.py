"""Gradient-boosted trees on binary logistic loss.

Each round fits a depth-bounded regression tree to the residuals ``y - p``;
leaves take the second-order step ``sum(residuals) / sum(p * (1 - p))`` and the
ensemble updates ``F += learning_rate * tree``. The initial score is the
log-odds of the training base rate.

Boosting is stagewise: round ``k`` depends only on the rounds before it, so
the first ``k`` trees of a longer run, with the importance gains summed over
those trees, are exactly the model ``train_gbdt`` fits with
``n_estimators=k``. ``gbdt_stages`` yields those models one round at a time,
and the training scores take each tree's values from the leaves its grower
put the rows in.

All trees of a run grow from one ``tree.NodeRows`` root, so the training
matrix is presorted once. Each node of it keeps its sorted layout and the
two children of its last split; when a round cuts a node where the round
before did, the children are reused, and only the residuals are gathered,
summed and scored again. A different cut replaces the remembered pair, so
the run keeps at most one tree's worth of nodes. A node whose residuals are
all equal is a leaf without a search (a node of one class has equal
residuals in the first round), and one complex cumulative sum gives the
prefix sums of the residuals and of their squares together (see ``tree``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .logreg import sigmoid
from .tree import NodeRows, TreeNode, normalized_gains, train_regression_tree, tree_predict

DEFAULT_TREE_DEPTH = 6


@dataclass
class GbdtModel:
    trees: list[TreeNode]
    learning_rate: float
    n_estimators: int
    initial_log_odds: float
    max_tree_depth: int
    n_columns: int
    _gains: np.ndarray = field(default=None, repr=False)

    def importances(self) -> np.ndarray:
        return normalized_gains(self._gains)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return sigmoid(gbdt_raw_scores(self, X))

    def to_doc(self) -> dict:
        return {"learning_rate": self.learning_rate, "n_estimators": self.n_estimators,
                "initial_log_odds": self.initial_log_odds, "max_tree_depth": self.max_tree_depth,
                "n_columns": self.n_columns, "gains": self._gains.tolist(),
                "trees": [t.to_doc() for t in self.trees]}

    @classmethod
    def from_doc(cls, doc: dict) -> "GbdtModel":
        return cls(trees=[TreeNode.from_doc(t) for t in doc["trees"]],
                   learning_rate=doc["learning_rate"], n_estimators=doc["n_estimators"],
                   initial_log_odds=doc["initial_log_odds"],
                   max_tree_depth=doc["max_tree_depth"], n_columns=doc["n_columns"],
                   _gains=np.asarray(doc["gains"], dtype=np.float64))


def gbdt_stages(X, y, learning_rate: float, max_tree_depth: int = DEFAULT_TREE_DEPTH):
    """Boost without end, yielding the model after 0, 1, 2, ... trees. Each
    yielded model is a snapshot: later rounds do not change it."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, d = X.shape
    if n < 2 or len(np.unique(y)) < 2:
        raise ValueError("training needs at least two rows with both classes present")
    base = float(y.mean())
    f0 = float(np.log(base / (1.0 - base)))
    node_rows = NodeRows.root(X)
    scores = np.full(n, f0)
    trees: list[TreeNode] = []
    gains = np.zeros(d)
    fitted = np.empty(n)  # each training row's value in the newest tree
    while True:
        yield GbdtModel(trees=list(trees), learning_rate=learning_rate, n_estimators=len(trees),
                        initial_log_odds=f0, max_tree_depth=max_tree_depth, n_columns=d,
                        _gains=gains.copy())
        p = sigmoid(scores)
        residuals = y - p
        hess = p * (1.0 - p)
        root, tree_gains = train_regression_tree(X, residuals, hess, max_depth=max_tree_depth,
                                                 node_rows=node_rows, fitted=fitted)
        gains += tree_gains
        trees.append(root)
        scores = scores + learning_rate * fitted


def train_gbdt(X, y, n_estimators: int, learning_rate: float,
               max_tree_depth: int = DEFAULT_TREE_DEPTH) -> GbdtModel:
    stages = gbdt_stages(X, y, learning_rate, max_tree_depth)
    return next(islice(stages, n_estimators, None))


def gbdt_raw_scores(model: GbdtModel, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.shape[1] != model.n_columns:
        raise ValueError(f"expected {model.n_columns} columns, got {X.shape[1]}")
    scores = np.full(len(X), model.initial_log_odds)
    for root in model.trees:
        scores = scores + model.learning_rate * tree_predict(root, X)
    return scores


def log_loss(y: np.ndarray, p: np.ndarray, eps: float = 1e-12) -> float:
    p = np.clip(np.asarray(p, dtype=np.float64), eps, 1.0 - eps)
    y = np.asarray(y, dtype=np.float64)
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))
