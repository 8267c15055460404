"""Interpretable tabular classifiers built from scratch: L2 logistic
regression, a Gini CART tree, and gradient-boosted trees, plus grid search,
feature importances and JSON persistence.

Each family's model class (``LogRegModel``, ``TreeModel``, ``GbdtModel``)
owns its behaviour: ``GRID`` (its grid points in rank order),
``fit_grid(X, y, X_val)``, ``predict_proba(X)``, ``importances()``,
``to_doc()``, ``doc_check(width)`` (the check of what ``to_doc`` writes for
``width`` columns) and ``from_doc(doc)``.
``search.MODEL_TYPES``, the one table from family name to class, is what
``grid_search`` and ``load_model`` read. Adding a family touches its own
module and one ``MODEL_TYPES`` entry.

Models hold no column names: ``importances()`` gives one score per encoded
column, in ``EncoderState.column_names`` order, and callers pass those names
to ``export_tree``.
"""

from __future__ import annotations

import numpy as np

from .gbdt import GBDT_LR_GRID, GBDT_N_GRID, GbdtModel, log_loss, train_gbdt
from .logreg import LOGREG_C_GRID, LogRegModel, sigmoid, train_logreg
from .persist import ModelArtifact, PersistError, load_model, save_model
from .search import FAMILIES, MODEL_TYPES, THRESHOLD, GridSearchResult, grid_search
from .tree import (DTREE_DEPTH_GRID, DTREE_MIN_SPLIT_GRID, TreeModel, TreeNode, best_gini_split,
                   export_tree, train_dtree, tree_predict)


def predict_proba(model, X: np.ndarray) -> np.ndarray:
    return model.predict_proba(X)


__all__ = [
    "FAMILIES", "GbdtModel", "GridSearchResult", "LogRegModel", "MODEL_TYPES", "ModelArtifact",
    "PersistError", "THRESHOLD", "TreeModel", "TreeNode", "best_gini_split", "export_tree",
    "grid_search", "load_model", "log_loss", "predict_proba", "save_model", "sigmoid",
    "train_dtree", "train_gbdt", "train_logreg", "tree_predict",
    "LOGREG_C_GRID", "DTREE_DEPTH_GRID", "DTREE_MIN_SPLIT_GRID", "GBDT_N_GRID", "GBDT_LR_GRID",
]
