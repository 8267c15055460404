"""Correctness oracles computed apart from medtab.

Everything here reads the generated files and the bundled tables with the
``csv`` module and recomputes with plain numpy or Python, so a fault in the
program cannot make its own check pass. Each ``check_*`` function returns a
list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np


def read_rows(path: Path) -> list[dict]:
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def read_schema(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def typed_cell(feature: dict, cell: str):
    """The value a CSV cell stands for; None for an empty (missing) cell."""
    if cell == "":
        return None
    if feature["kind"] == "integer":
        return int(cell)
    if feature["kind"] == "real":
        return float(cell)
    return cell


def cells_equal(feature: dict, a: str, b: str) -> bool:
    return typed_cell(feature, a) == typed_cell(feature, b)


def same_value(expected, actual, missing) -> bool:
    """A program value equals an expected typed value (None means missing)."""
    if expected is None:
        return actual is missing
    return type(actual) is type(expected) and actual == expected


# ---------------------------------------------------------------------------
# train-hepatitis
# ---------------------------------------------------------------------------

# Visit order documented in medtab.models.search: most regularised first.
GRID_ORDER = {
    "logreg": [{"C": c} for c in (0.001, 0.01, 0.1, 1.0, 10.0, 100.0)],
    "dtree": [{"max_depth": d, "min_samples_split": m}
              for d in (3, 4, 5) for m in (10, 7, 5, 4, 3, 2)],
    "gbdt": [{"n_estimators": n, "learning_rate": lr}
             for n in (50, 100, 200) for lr in (0.01, 0.1, 0.3)],
}


def check_split(labels: list[int], train, val, test) -> list[str]:
    problems = []
    parts = [set(train), set(val), set(test)]
    if sum(len(p) for p in parts) != len(set().union(*parts)):
        problems.append("split parts overlap")
    if set().union(*parts) != set(range(len(labels))):
        problems.append("split parts do not cover every row")
    for cls in (0, 1):
        n_c = sum(1 for y in labels if y == cls)
        got = [sum(1 for i in p if labels[i] == cls) for p in (train, val)]
        want = [int(0.7 * n_c), int(0.1 * n_c)]
        if got != want:
            problems.append(f"class {cls}: train/val sizes {got}, expected {want}")
    return problems


def check_encoder(features: list[dict], rows: list[dict], train, columns) -> list[str]:
    """Numeric centres and scales against numpy on the imputed train rows;
    categorical levels and the train mode."""
    problems = []
    by_name = {c.name: c for c in columns}
    for f in features:
        cells = [rows[i][f["name"]] for i in train]
        col = by_name[f["name"]]
        if f["kind"] in ("integer", "real"):
            observed = np.array([float(c) for c in cells if c != ""])
            impute = observed.mean() if observed.size else 0.0
            imputed = np.array([float(c) if c != "" else impute for c in cells])
            scale = imputed.std()
            want = (impute, imputed.mean(), scale if scale > 0 else 1.0)
            got = (col.impute_mean, col.center, col.scale)
            if not np.allclose(got, want, rtol=1e-12, atol=0.0):
                problems.append(f"{f['name']}: encoder state {got}, numpy gives {want}")
        else:
            counts = {v: 0 for v in f["allowed_values"]}
            for c in cells:
                if c != "":
                    counts[c] += 1
            mode = max(f["allowed_values"], key=lambda v: counts[v])
            if tuple(col.categories) != tuple(f["allowed_values"]) or col.impute_category != mode:
                problems.append(f"{f['name']}: categories or train mode differ")
    return problems


def check_grid_choice(family: str, report, params: dict) -> list[str]:
    visited = [p.params for p in report]
    if visited != GRID_ORDER[family]:
        return [f"{family}: grid visited {visited}"]
    accs = [p.val_accuracy for p in report]
    first_best = GRID_ORDER[family][accs.index(max(accs))]
    if params != first_best:
        return [f"{family}: chose {params}, first maximum is {first_best}"]
    return []


def pairwise_auc(y: np.ndarray, scores: np.ndarray) -> float:
    pos, neg = scores[y == 1], scores[y == 0]
    wins = np.sum(pos[:, None] > neg[None, :]) + 0.5 * np.sum(pos[:, None] == neg[None, :])
    return float(wins) / (len(pos) * len(neg))


def log_loss(y: np.ndarray, p: np.ndarray) -> float:
    p = np.clip(p, 1e-12, 1 - 1e-12)
    return float(-np.mean(y * np.log(p) + (1 - y) * np.log(1 - p)))


def gini_oracle(X: np.ndarray, y: np.ndarray):
    """Brute-force best root split: every column, every midpoint between
    distinct values, counts by direct masking, first maximum in (column,
    threshold) order. Returns (column, threshold) or None."""
    n = len(y)
    pos = int(y.sum())
    neg = n - pos
    parent = 1.0 - (pos * pos + neg * neg) / (n * n)
    best = None
    for col in range(X.shape[1]):
        values = np.unique(X[:, col])
        for thr in (values[:-1] + values[1:]) / 2.0:
            left = X[:, col] <= thr
            n_l = int(left.sum())
            pos_l = int(y[left].sum())
            neg_l = n_l - pos_l
            n_r, pos_r = n - n_l, pos - pos_l
            neg_r = n_r - pos_r
            gini_l = 1.0 - (pos_l * pos_l + neg_l * neg_l) / (n_l * n_l)
            gini_r = 1.0 - (pos_r * pos_r + neg_r * neg_r) / (n_r * n_r)
            gain = parent - (n_l * gini_l + n_r * gini_r) / n
            if best is None or gain > best[0]:
                best = (gain, col, float(thr))
    if best is None or best[0] <= 0.0:
        return None
    return best[1], best[2]


# ---------------------------------------------------------------------------
# compare-heart
# ---------------------------------------------------------------------------

def count_differences(features: list[dict], truth_rows: list[dict], extracted_rows: list[dict]):
    """(rows with no differing cell, cells that match, cells compared) of an
    extracted table against the truth rows with the same ids."""
    truth_by_id = {r["id"]: r for r in truth_rows}
    exact_rows = matched = 0
    for row in extracted_rows:
        truth = truth_by_id[row["id"]]
        same = sum(cells_equal(f, row[f["name"]], truth[f["name"]]) for f in features)
        matched += same
        exact_rows += same == len(features)
    return exact_rows, matched, len(extracted_rows) * len(features)


def accuracy(y: np.ndarray, scores: np.ndarray) -> float:
    return float(np.mean((scores >= 0.5) == (y == 1)))
