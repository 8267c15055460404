#!/usr/bin/env python3
"""Byte-identity gate for the tree models.

For each bundled table and split seed, and for the dtree and gbdt families,
trains every grid point with the family's trainer, and runs ``grid_search``
once. Prints one line per (table, seed, family) with two sha256 digests:

* ``points``: over every grid point's serialized model (``to_doc``, as
  ``save_model`` writes it) and its validation probabilities, in grid
  order;
* ``search``: over the ``grid_search`` result: the report, the chosen
  parameters, the validation accuracy and the chosen model.

The last line digests all the others. A change to the tree engine, the
boosting loop or the grid search that keeps every model bit for bit prints
the same lines before and after:

    python3 scripts/model_hashes.py > after.txt   # run in each checkout, then diff
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from medtab import dataset as ds, encoding, models  # noqa: E402
from medtab.schema import load_schema  # noqa: E402

TABLES = (("hepatitis", (1, 2, 3)), ("heart", (1,)))
TRAINERS = {"dtree": models.train_dtree, "gbdt": models.train_gbdt}


def model_bytes(model, X_val) -> bytes:
    doc = json.dumps(model.to_doc(), sort_keys=True).encode()
    return doc + models.predict_proba(model, X_val).tobytes()


def group_digests(family, X_train, y_train, X_val, y_val) -> tuple[str, str]:
    points = hashlib.sha256()
    for params in models.MODEL_TYPES[family].GRID:
        model = TRAINERS[family](X_train, y_train, **params)
        points.update(hashlib.sha256(model_bytes(model, X_val)).digest())
    result = models.grid_search(family, X_train, y_train, X_val, y_val)
    summary = json.dumps({"report": [[p.params, repr(p.val_accuracy)] for p in result.report],
                          "params": result.params, "val_accuracy": repr(result.val_accuracy)},
                         sort_keys=True).encode()
    search = hashlib.sha256(summary + model_bytes(result.model, X_val))
    return points.hexdigest(), search.hexdigest()


def main() -> None:
    total = hashlib.sha256()
    for table_name, seeds in TABLES:
        schema = load_schema(ROOT / "schemas" / f"{table_name}.schema.json")
        table = ds.load_csv(ROOT / "data" / f"{table_name}.csv", schema)
        y = table.label_array()
        for seed in seeds:
            assignment = ds.split(table, seed)
            encoder = encoding.fit_encoder(table, assignment.train_ids)
            X_train = encoding.transform(table, encoder, assignment.train_ids)
            X_val = encoding.transform(table, encoder, assignment.val_ids)
            y_train, y_val = y[list(assignment.train_ids)], y[list(assignment.val_ids)]
            for family in TRAINERS:
                points, search = group_digests(family, X_train, y_train, X_val, y_val)
                line = f"{table_name} seed={seed} {family} points={points} search={search}"
                total.update(line.encode() + b"\n")
                print(line, flush=True)
    print(f"all {total.hexdigest()}")


if __name__ == "__main__":
    main()
