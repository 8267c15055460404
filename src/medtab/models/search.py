"""Validation-accuracy grid search over the fixed hyperparameter grids.

Candidates are ranked from most regularized to least (smaller C, smaller
depth, larger min split, fewer trees, smaller learning rate); the report
lists them in that order, and the best validation accuracy wins, ties going
to the earlier candidate, so toward stronger regularization.

The GBDT grid is fitted stagewise: per learning rate, one run boosts to
``max(GBDT_N_GRID)`` trees and every smaller ``n_estimators`` is scored on
its prefix, which is exactly the model ``train_gbdt`` would fit (see
``gbdt``). The validation raw scores are carried from stage to stage, so
each tree predicts the validation rows once. The trees of one run grow from
one ``tree.NodeRows`` root, whose nodes keep their sorted layout and the
children of their last split, so a round that splits the same rows as the
round before reuses them (most splits on hepatitis, few on heart). A
learning rate's run starts from a fresh root, and only the current run and
the incumbent best model are kept.

The dtree grid is fitted by pruning: one tree is grown at the largest depth
and the smallest min split, and every grid point is a cut of it
(``TreeModel.pruned``), which is exactly the tree ``train_dtree`` would grow
at that point, since the two settings only decide which nodes are searched.
That one tree grows from a fresh root, so it reuses nothing. The validation
rows are routed through it once (``TreeModel.pruned_proba``): a point's
probability for a row is the value at the first node on the row's path that
the point leaves unsplit, so the grid predicts with no pruned tree, and only
the winning point is cut.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import islice

import numpy as np

from .gbdt import GbdtModel, gbdt_stages, train_gbdt
from .logreg import LogRegModel, sigmoid, train_logreg
from .tree import TreeModel, train_dtree, tree_predict

LOGREG_C_GRID = (0.001, 0.01, 0.1, 1.0, 10.0, 100.0)
DTREE_DEPTH_GRID = (3, 4, 5)
DTREE_MIN_SPLIT_GRID = (2, 3, 4, 5, 7, 10)
GBDT_N_GRID = (50, 100, 200)
GBDT_LR_GRID = (0.01, 0.1, 0.3)
THRESHOLD = 0.5  # a score at or above it predicts the positive class

# The one table from family name to model class; each class predicts, reports
# importances and reads and writes its own JSON document.
MODEL_TYPES = {"logreg": LogRegModel, "dtree": TreeModel, "gbdt": GbdtModel}
FAMILIES = tuple(MODEL_TYPES)


@dataclass
class GridPoint:
    params: dict
    val_accuracy: float


@dataclass
class GridSearchResult:
    family: str
    model: object
    params: dict
    val_accuracy: float
    report: list[GridPoint]


def _accuracy(y: np.ndarray, scores: np.ndarray) -> float:
    return float(np.mean((scores >= THRESHOLD).astype(np.int64) == y))


def _candidates(family: str):
    if family == "logreg":
        return [{"C": c} for c in LOGREG_C_GRID]
    if family == "dtree":
        return [{"max_depth": depth, "min_samples_split": ms}
                for depth in DTREE_DEPTH_GRID
                for ms in sorted(DTREE_MIN_SPLIT_GRID, reverse=True)]
    if family == "gbdt":
        return [{"n_estimators": n, "learning_rate": lr}
                for n in GBDT_N_GRID for lr in GBDT_LR_GRID]
    raise ValueError(f"unknown model family {family!r}; expected one of {FAMILIES}")


def _fits(family: str, X, y, X_val):
    """(params, model, validation probabilities) for every candidate: logreg
    fitted per point; dtree scored from one routing of the validation rows
    through one grown tree, its model being the ``partial`` that prunes it,
    so only the winner is cut; GBDT stagewise in learning-rate-major order
    with the validation raw scores carried from stage to stage (each tree
    added in ``gbdt_raw_scores``' order)."""
    if family == "dtree":
        full = train_dtree(X, y, max(DTREE_DEPTH_GRID), min(DTREE_MIN_SPLIT_GRID))
        proba = full.pruned_proba(X_val)
        for params in _candidates(family):
            yield params, partial(full.pruned, **params), proba(**params)
        return
    if family == "gbdt":
        for lr in GBDT_LR_GRID:
            stages, raw = gbdt_stages(X, y, lr), None
            for model in islice(stages, max(GBDT_N_GRID) + 1):
                raw = (np.full(len(X_val), model.initial_log_odds) if raw is None
                       else raw + model.learning_rate * tree_predict(model.trees[-1], X_val))
                if model.n_estimators in GBDT_N_GRID:
                    yield ({"n_estimators": model.n_estimators, "learning_rate": lr}, model,
                           sigmoid(raw))
        return
    for params in _candidates(family):
        model = _train(family, params, X, y)
        yield params, model, model.predict_proba(X_val)


def _train(family: str, params: dict, X, y):
    if family == "logreg":
        return train_logreg(X, y, **params)
    if family == "dtree":
        return train_dtree(X, y, **params)
    return train_gbdt(X, y, **params)


def grid_search(family: str, X_train, y_train, X_val, y_val) -> GridSearchResult:
    """Train every grid point on the training split and keep the candidate
    with the best validation accuracy. Raises ValueError when the train or
    val part has no rows, since no accuracy could rank the candidates."""
    X_train = np.asarray(X_train, dtype=np.float64)
    X_val = np.asarray(X_val, dtype=np.float64)
    y_train = np.asarray(y_train, dtype=np.int64)
    y_val = np.asarray(y_val, dtype=np.int64)
    for part, X in (("train", X_train), ("val", X_val)):
        if len(X) == 0:
            raise ValueError(f"grid search needs {part} rows, and the {part} part is empty")
    if X_val.shape[1] != X_train.shape[1]:
        raise ValueError(f"expected {X_train.shape[1]} val columns, got {X_val.shape[1]}")
    candidates = _candidates(family)
    accuracy = {}
    best = None  # (accuracy, rank, model): the first best candidate in rank order
    for params, model, scores in _fits(family, X_train, y_train, X_val):
        rank = candidates.index(params)
        acc = accuracy[rank] = _accuracy(y_val, scores)
        if best is None or acc > best[0] or (acc == best[0] and rank < best[1]):
            best = (acc, rank, model)
    acc, rank, model = best
    if isinstance(model, partial):
        model = model()
    report = [GridPoint(params=dict(p), val_accuracy=accuracy[i])
              for i, p in enumerate(candidates)]
    return GridSearchResult(family=family, model=model, params=dict(candidates[rank]),
                            val_accuracy=acc, report=report)
