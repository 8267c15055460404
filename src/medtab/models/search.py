"""Validation-accuracy grid search over each family's fixed grid.

Each class in ``MODEL_TYPES`` holds its family's grid, ``GRID``, ranked from
most regularized to least (smaller C, smaller depth, larger min split, fewer
trees, smaller learning rate), and fits it with ``fit_grid``. The report
lists the points in that order, and the best validation accuracy wins, ties
going to the earlier point, so toward stronger regularization.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .gbdt import GbdtModel
from .logreg import LogRegModel
from .tree import TreeModel

THRESHOLD = 0.5  # a score at or above it predicts the positive class

# The one table from family name to model class; each class fits its grid,
# predicts, reports importances and reads and writes its own JSON document.
MODEL_TYPES = {"logreg": LogRegModel, "dtree": TreeModel, "gbdt": GbdtModel}
FAMILIES = tuple(MODEL_TYPES)


@dataclass
class GridPoint:
    params: dict
    val_accuracy: float


@dataclass
class GridSearchResult:
    model: object
    params: dict
    val_accuracy: float
    report: list[GridPoint]


def _accuracy(y: np.ndarray, scores: np.ndarray) -> float:
    return float(np.mean((scores >= THRESHOLD).astype(np.int64) == y))


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
    model_type = MODEL_TYPES.get(family)
    if model_type is None:
        raise ValueError(f"unknown model family {family!r}; expected one of {FAMILIES}")
    grid = model_type.GRID
    accuracy = {}
    best = None  # (accuracy, rank, model): the first best candidate in rank order
    for params, model, scores in model_type.fit_grid(X_train, y_train, X_val):
        rank = grid.index(params)
        acc = accuracy[rank] = _accuracy(y_val, scores)
        if best is None or acc > best[0] or (acc == best[0] and rank < best[1]):
            best = (acc, rank, model)
    acc, rank, model = best
    if isinstance(model, partial):
        model = model()
    report = [GridPoint(params=dict(p), val_accuracy=accuracy[i])
              for i, p in enumerate(grid)]
    return GridSearchResult(model=model, params=dict(grid[rank]), val_accuracy=acc, report=report)
