#!/usr/bin/env python3
"""Desk-scale reproduction on the bundled tables.

For each dataset and model family: seeded 70/10/20 split, grid search on the
validation split, test metrics, and feature importances. Prints one metrics
block per dataset plus the selected decision tree, mirroring the layout of
the headline experiment tables.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from medtab import dataset as ds
from medtab import encoding, evalkit, models
from medtab.schema import load_schema

DATASETS = {
    "hepatitis": (ROOT / "schemas/hepatitis.schema.json", ROOT / "data/hepatitis.csv"),
    "heart": (ROOT / "schemas/heart.schema.json", ROOT / "data/heart.csv"),
}


def run_dataset(name: str, seed: int, show_tree: bool) -> None:
    schema_path, csv_path = DATASETS[name]
    schema = load_schema(schema_path)
    table = ds.load_csv(csv_path, schema)
    assignment, encoder, X, y = encoding.prepare(table, seed)

    print(f"\n=== {name} (n={table.n}, seed={seed}, "
          f"split {len(assignment.train_ids)}/{len(assignment.val_ids)}/"
          f"{len(assignment.test_ids)}) ===")
    print(f"{'model':8s} {'acc':>6s} {'prec':>6s} {'rec':>6s} {'F1':>6s} {'AUC':>6s}  params")
    for family in ("logreg", "dtree", "gbdt"):
        started = time.monotonic()
        search = models.grid_search(family, X["train"], y["train"], X["val"], y["val"])
        scores = models.predict_proba(search.model, X["test"])
        m = evalkit.classification_metrics(y["test"], scores)
        print(f"{family:8s} {m.accuracy:6.3f} {m.precision:6.3f} {m.recall:6.3f} "
              f"{m.f1:6.3f} {m.auc:6.3f}  {search.params} "
              f"[{time.monotonic() - started:.1f}s]")
        iv = models.feature_importances_named(search.model, encoder.column_names)
        ranked = sorted(zip(iv.names, iv.scores), key=lambda t: -abs(t[1]))[:5]
        print("         top importances: "
              + ", ".join(f"{n}={s:+.3f}" for n, s in ranked))
        if family == "dtree" and show_tree:
            print(models.export_tree(search.model, encoder.column_names))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--dataset", choices=[*DATASETS, "all"], default="all")
    parser.add_argument("--show-tree", action="store_true",
                        help="print the selected decision tree")
    args = parser.parse_args()
    names = list(DATASETS) if args.dataset == "all" else [args.dataset]
    for name in names:
        run_dataset(name, args.seed, args.show_tree)


if __name__ == "__main__":
    main()
