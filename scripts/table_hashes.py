#!/usr/bin/env python3
"""Byte-identity gate for the table layer: CSV loading, encoding and the
extraction metrics.

For each bundled table it writes, for corruption seeds 1, 2 and 3, a copy of
the CSV with cells changed by ``random.Random(seed)``: a few rows dropped,
numeric cells blanked, written as missing-value sentinels, padded, given a
comma decimal or taken from another row, categories and labels recased or
padded or switched. For each seed it also writes two invalid copies, each with
a few invalid cells (a non-number, a non-integer, an unknown category, an
unknown label) and sometimes a line with a cell too few. Prints one line per
file with sha256 digests:

* ``load``: the ``load_csv`` result (every row's items with the repr of
  each value, the ids and the labels), or the error message with the
  scratch directory replaced by ``<dir>``;
* ``prepare``: for a file that loads, ``prepare`` at split seeds 1, 2 and 3:
  the split, the encoder and every part's matrix and labels;
* ``metrics``: for a valid copy, ``extraction_metrics`` of it against the
  table it was made from;
* ``compare``: for the seed-1 copy, ``compare --json`` output for every
  model family.

The last line digests all the others. A change to the table layer that keeps
every result byte for byte prints the same lines before and after:

    python3 scripts/table_hashes.py > after.txt   # run in each checkout, then diff
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import random
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from medtab import dataset as ds, encoding, evalkit, models  # noqa: E402
from medtab.cli import main as cli_main  # noqa: E402
from medtab.schema import load_schema  # noqa: E402

TABLES = ("hepatitis", "heart")
SEEDS = (1, 2, 3)
SPLIT_SEEDS = (1, 2, 3)
INVALID = {"integer": ["4.5", "forty"], "real": ["abc", "inf", "1,5,0"],
           "categorical": ["purple"], "label": ["maybe"]}


def column_kinds(header, schema) -> list:
    """Per header column: None for the id, ``"label"``, or the feature spec's
    kind and allowed values."""
    specs = {f.name: f for f in schema.features}
    return [None if name == "id" else ("label", ()) if name == schema.label.name
            else (specs[name].kind, specs[name].allowed_values) for name in header]


def corrupt(kinds, lines, rng):
    """The data lines with about one cell in twelve changed and one row in
    twenty dropped, each value still valid for the schema."""
    out = []
    for cells in lines:
        if rng.random() < 0.05:
            continue
        cells = list(cells)
        for j, (column, cell) in enumerate(zip(kinds, cells)):
            if column is None or rng.random() >= 1 / 12:
                continue
            kind, allowed = column
            if kind in ("integer", "real"):
                choices = [rng.choice(lines)[j], "", "n/a", " NaN ", f" {cell} "]
                if kind == "integer":
                    choices.append(f"{cell}.0")
                elif cell.count(".") == 1:
                    choices.append(cell.replace(".", ","))
            elif kind == "label":
                choices = [cell.upper(), f" {cell} "]
            else:
                choices = [rng.choice(allowed), cell.swapcase(), f" {cell} ", "", "N/A"]
            cells[j] = rng.choice(choices)
        out.append(cells)
    return out


def invalidate(kinds, lines, rng):
    """A copy of the lines with three invalid cells, and sometimes a short line."""
    lines = [list(cells) for cells in lines]
    targets = [(j, INVALID[column[0]]) for j, column in enumerate(kinds) if column is not None]
    for _ in range(3):
        j, values = rng.choice(targets)
        rng.choice(lines)[j] = rng.choice(values)
    if rng.random() < 0.5:
        del rng.choice(lines)[-1]
    return lines


def write_csv(path: Path, header, lines) -> None:
    with path.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([header, *lines])


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else json.dumps(part, sort_keys=True).encode())
    return h.hexdigest()


def load_digest(path: Path, schema, scratch: Path):
    try:
        table = ds.load_csv(path, schema)
    except ds.DatasetError as e:
        return None, digest(["error", str(e).replace(str(scratch), "<dir>")])
    names = list(table.columns)
    rows = [[[k, repr(v)] for k, v in zip(names, cells)] for cells in zip(*table.columns.values())]
    return table, digest(["ok", rows, table.ids, table.labels])


def prepare_digest(table) -> str:
    parts = []
    for seed in SPLIT_SEEDS:
        assignment, encoder, X, y = encoding.prepare(table, seed)
        parts += [assignment.to_dict(), encoder.to_dict()]
        parts += [X[part].tobytes() + y[part].tobytes() for part in ds.PARTS]
    return digest(*parts)


def compare_digest(truth: Path, extracted: Path, schema_path: Path) -> str:
    outputs = []
    for family in models.FAMILIES:
        out = io.StringIO()
        with redirect_stdout(out):
            cli_main.main(args=["--seed", "1", "--json", "compare", "--truth", str(truth),
                                "--extracted", str(extracted), "--schema", str(schema_path),
                                "--family", family], prog_name="medtab", standalone_mode=False)
        outputs.append(out.getvalue())
    return digest(outputs)


def main() -> None:
    total = hashlib.sha256()

    def emit(line: str) -> None:
        total.update(line.encode() + b"\n")
        print(line, flush=True)

    with tempfile.TemporaryDirectory() as tmp:
        scratch = Path(tmp)
        for name in TABLES:
            schema_path = ROOT / "schemas" / f"{name}.schema.json"
            data_path = ROOT / "data" / f"{name}.csv"
            schema = load_schema(schema_path)
            with data_path.open(newline="", encoding="utf-8") as fh:
                header, *lines = list(csv.reader(fh))
            kinds = column_kinds(header, schema)
            truth, load = load_digest(data_path, schema, scratch)
            emit(f"{name} truth load={load} prepare={prepare_digest(truth)}")
            for seed in SEEDS:
                rng = random.Random(seed)
                corrupted = corrupt(kinds, lines, rng)
                path = scratch / f"{name}-{seed}.csv"
                write_csv(path, header, corrupted)
                table, load = load_digest(path, schema, scratch)
                line = (f"{name} seed={seed} load={load} prepare={prepare_digest(table)} "
                        f"metrics={digest(repr(evalkit.extraction_metrics(table, truth)))}")
                if seed == SEEDS[0]:
                    line += f" compare={compare_digest(data_path, path, schema_path)}"
                emit(line)
                for k in (1, 2):
                    bad = scratch / f"{name}-{seed}-invalid{k}.csv"
                    write_csv(bad, header, invalidate(kinds, corrupted, rng))
                    _, load = load_digest(bad, schema, scratch)
                    emit(f"{name} seed={seed} invalid{k} load={load}")
    print(f"all {total.hexdigest()}")


if __name__ == "__main__":
    main()
