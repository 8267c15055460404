"""Tabular dataset container: CSV ingestion and writing, and seeded stratified
splitting with split files.

A ``TabularDataset`` holds one list of cells per feature, and every stage
reads whole columns: ``load_csv`` hands over the columns it coerced,
``subset`` gathers them, ``save_csv`` writes them, and the encoder
(``medtab.encoding``) fits and encodes column by column.

CSV layout: UTF-8 (a leading byte-order mark is allowed), RFC-4180 quoting,
header row required, empty cell means a missing value. An optional ``id``
column carries row identifiers (row indices are used when absent); the label
column is matched by the schema's label name. ``load_csv`` reads whole columns
and coerces each distinct raw string of a column once; the error it reports is
the first bad cell in file order (by line, then header position), else the
first line with the wrong number of cells, and it names the physical line on
which that record starts.

Split files are JSON: ``{"seed": int, "train": [...], "val": [...], "test": [...]}``,
an id list per name in ``PARTS``.

This module does not import numpy (``label_array`` imports it when called),
so the extraction commands load tables without it. Encoding for modeling
(``EncoderState``, ``fit_encoder``, ``transform``, ``prepare``) lives in
``medtab.encoding``.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

from . import inputs
from .schema import (MISSING, CoercionError, ExtractionSchema, FeatureSpec, LabelSpec, MissingType,
                     fold_name)


class DatasetError(ValueError):
    pass


@dataclass
class TabularDataset:
    """A table held column by column: ``columns`` maps each feature name to
    its cells in row order (``load_csv`` keeps the file's header order), and
    ``ids`` and ``labels`` run along the same rows."""

    schema: ExtractionSchema
    columns: dict[str, list]
    ids: list[str]
    labels: list[int] | None = None  # 1 = positive_value

    def __post_init__(self):
        if set(self.columns) != {spec.name for spec in self.schema.features}:
            raise DatasetError("columns must be the schema's features, one each")
        if any(len(cells) != len(self.ids) for cells in self.columns.values()):
            raise DatasetError("ids and columns must have equal length")
        if self.labels is not None and len(self.labels) != len(self.ids):
            raise DatasetError("labels and ids must have equal length")
        if len(set(self.ids)) != len(self.ids):
            raise DatasetError("row ids must be unique")

    @property
    def n(self) -> int:
        return len(self.ids)

    def subset(self, indices) -> "TabularDataset":
        idx = list(indices)

        def take(cells):
            return [cells[i] for i in idx]

        return TabularDataset(
            schema=self.schema,
            columns={name: take(cells) for name, cells in self.columns.items()},
            ids=take(self.ids),
            labels=take(self.labels) if self.labels is not None else None,
        )

    def label_array(self):
        """The labels as an int64 numpy array."""
        import numpy as np

        if self.labels is None:
            raise DatasetError("dataset has no labels")
        return np.asarray(self.labels, dtype=np.int64)


def load_csv(path: str | Path, schema: ExtractionSchema) -> TabularDataset:
    """Read a dataset column by column: every cell passes through the schema
    coercion rules, each distinct raw string of a column once.

    The error raised is the one a line-by-line read meets first: the first bad
    cell in file order (by line, then header position), else the first line
    without one cell per header column. Lines from that one on are not coerced.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DatasetError(f"{path}: empty file, expected a header row") from None
        roles = _map_header(header, schema, path)
        records, lines, stop = _read_records(reader, len(roles), path)
    raw = list(zip(*records)) or [()] * len(roles)
    values, failures = {}, []  # failures: (record, header position, error)
    for j, (role, column) in enumerate(zip(roles, raw)):
        if role != "id":
            values[j], failure = _coerce_column(column, _coercer(role, schema.label))
            if failure is not None:
                record, error = failure
                failures.append((record, j, error))
    if failures:
        record, _, error = min(failures, key=lambda f: f[:2])
        raise DatasetError(f"{path}:{lines[record]}: {error}") from error.__cause__
    if stop is not None:
        raise stop
    columns = {role.name: values[j] for j, role in enumerate(roles)
               if isinstance(role, FeatureSpec)}
    ids = (list(raw[roles.index("id")]) if "id" in roles
           else [str(i) for i in range(len(records))])
    labels = values[roles.index("label")] if "label" in roles else None
    return TabularDataset(schema=schema, columns=columns, ids=ids, labels=labels)


def _read_records(reader, width: int, path: Path):
    """``(records, lines, stop)``: the records before the first one without
    ``width`` cells, the physical line each of them starts on (a quoted cell
    may span lines), and the error that ends the read there. A record the
    reader cannot read or decode ends it too, with its own error; ``stop`` is
    None at the end of the file."""
    records, lines = [], []
    try:
        start = reader.line_num + 1
        for cells in reader:
            if len(cells) != width:
                return records, lines, DatasetError(f"{path}:{start}: expected {width} "
                                                    f"cells, got {len(cells)}")
            records.append(cells)
            lines.append(start)
            start = reader.line_num + 1
    except (csv.Error, UnicodeDecodeError) as e:
        return records, lines, e
    return records, lines, None


def _coercer(role, label: LabelSpec | None):
    """The function from a raw cell of a feature or label column to its value
    (the label's as 1 for positive, 0 for negative). It raises DatasetError,
    without the cell's line, for a cell it rejects."""
    if role == "label":
        def coerce(raw):
            value = label.parse(raw)
            if value is None:
                raise DatasetError(f"label {raw!r} is neither {label.positive_value!r} "
                                   f"nor {label.negative_value!r}")
            return int(value == label.positive_value)
    else:
        coerce_feature = role.coerce  # an empty cell is a missing value, as None is

        def coerce(raw):
            try:
                return coerce_feature(raw)
            except CoercionError as e:
                raise DatasetError(f"column {role.name!r}: {e}") from e
    return coerce


def _coerce_column(column, coerce):
    """``(values, None)``, coercing each distinct cell once, in the order of
    first occurrence; or ``(None, (record, error))`` for the first cell that
    ``coerce`` rejects, which is that raw string's first occurrence."""
    memo = {}
    for raw in dict.fromkeys(column):
        try:
            memo[raw] = coerce(raw)
        except DatasetError as e:
            return None, (column.index(raw), e)
    return list(map(memo.__getitem__, column)), None


def _map_header(header, schema, path):
    """Resolve header names to feature specs / 'id' / 'label' roles."""
    columns = []
    seen = set()
    for name in header:
        folded = fold_name(name)
        spec = schema.match_key(name)
        if spec is not None:
            role = spec
        elif folded == "id":
            role = "id"
        elif schema.label is not None and folded == fold_name(schema.label.name):
            role = "label"
        else:
            raise DatasetError(f"{path}: header column {name!r} does not match the schema")
        key = folded
        if key in seen:
            raise DatasetError(f"{path}: duplicate header column {name!r}")
        seen.add(key)
        columns.append(role)
    missing = [f.name for f in schema.features if f not in columns]
    if missing:
        raise DatasetError(f"{path}: header is missing feature columns: {', '.join(missing)}")
    return columns


def format_cell(value) -> str:
    if value is MISSING:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


# The csv module writes a cell of one of these exact types as ``format_cell``
# formats it (``str`` of an int or a string, ``repr`` of a float), and None as
# ``format_cell`` writes Missing, empty.
_CSV_NATIVE = frozenset({int, float, str})


def _csv_cells(cells: list) -> list:
    """The cells of a column as ``save_csv`` hands them to the csv writer:
    as they are, with Missing as None, when every cell's type is one the
    writer formats as ``format_cell`` does, else through ``format_cell``."""
    types = set(map(type, cells))
    if types <= _CSV_NATIVE:
        return cells
    if types - {MissingType} <= _CSV_NATIVE:
        return [None if cell is MISSING else cell for cell in cells]
    return list(map(format_cell, cells))


def save_csv(dataset: TabularDataset, path: str | Path) -> None:
    """Write a dataset (id column first, label last when present). Cells are
    written as ``format_cell`` formats them."""
    path = Path(path)
    features, label = dataset.schema.features, dataset.schema.label
    header = ["id"] + [f.name for f in features]
    columns = [dataset.ids] + [_csv_cells(dataset.columns[f.name]) for f in features]
    if dataset.labels is not None:
        header.append(label.name)
        columns.append([label.positive_value if y else label.negative_value
                        for y in dataset.labels])
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*columns))


# ---------------------------------------------------------------------------
# Splitting
# ---------------------------------------------------------------------------

# The split's 64-bit linear congruential generator: x <- (a*x + c) mod 2^64
# with Knuth's MMIX constants. A bounded draw takes the high 32 bits through a
# fixed-point multiply.
_LCG_MULT = 6364136223846793005
_LCG_INC = 1442695040888963407
_MASK64 = (1 << 64) - 1


def _shuffled(indices: list[int], state: int) -> tuple[list[int], int]:
    """``indices`` after a descending Fisher-Yates shuffle whose draws come
    from the LCG at ``state``, and the state after the last draw."""
    out = list(indices)
    for i in range(len(out) - 1, 0, -1):
        state = (_LCG_MULT * state + _LCG_INC) & _MASK64
        j = ((state >> 32) * (i + 1)) >> 32
        out[i], out[j] = out[j], out[i]
    return out, state


PARTS = ("train", "val", "test")


@dataclass(frozen=True)
class SplitAssignment:
    train_ids: tuple[int, ...]
    val_ids: tuple[int, ...]
    test_ids: tuple[int, ...]
    seed: int

    def parts(self) -> dict[str, tuple[int, ...]]:
        """Row indices by part name, in ``PARTS`` order."""
        return dict(zip(PARTS, (self.train_ids, self.val_ids, self.test_ids)))

    def to_dict(self) -> dict:
        return {"seed": self.seed, **{part: list(ids) for part, ids in self.parts().items()}}

    @classmethod
    def from_dict(cls, doc: dict) -> "SplitAssignment":
        return cls(*(tuple(doc[part]) for part in PARTS), seed=int(doc["seed"]))


def split(dataset: TabularDataset, seed: int) -> SplitAssignment:
    """Stratified 70/10/20 split of row indices, deterministic for a seed.

    Within each class: indices are shuffled by the documented LCG and cut at
    floor(0.7 n_c) and floor(0.1 n_c); the remainder goes to the test split.
    """
    if dataset.n < 10:
        raise DatasetError(f"need at least 10 rows to split, got {dataset.n}")
    if dataset.labels is None:
        raise DatasetError("stratified split needs labels")
    state = (_LCG_MULT * ((seed ^ 0x5DEECE66D) & _MASK64) + _LCG_INC) & _MASK64  # one step in
    train, val, test = [], [], []
    for cls in (0, 1):
        members = [i for i, y in enumerate(dataset.labels) if y == cls]
        if len(members) < 3:
            raise DatasetError(f"class {cls} has {len(members)} members; cannot stratify")
        shuffled, state = _shuffled(members, state)
        n_tr = int(0.7 * len(members))
        n_val = int(0.1 * len(members))
        train += shuffled[:n_tr]
        val += shuffled[n_tr:n_tr + n_val]
        test += shuffled[n_tr + n_val:]
    return SplitAssignment(train_ids=tuple(sorted(train)), val_ids=tuple(sorted(val)),
                           test_ids=tuple(sorted(test)), seed=seed)


def save_split(assignment: SplitAssignment, path: str | Path) -> None:
    Path(path).write_text(json.dumps(assignment.to_dict()) + "\n", encoding="utf-8")


# evaluate compares the seed with the model's
_SPLIT = inputs.Table({"seed": inputs.INT, **{part: inputs.Each(inputs.COUNT, "a list of row ids")
                                              for part in PARTS}})


def load_split(path: str | Path) -> SplitAssignment:
    """Read a split file. Raises DatasetError, naming the file, when it is not
    UTF-8 JSON, lacks the seed or an id list, the seed is not an integer, or
    an id is not a non-negative integer or is listed twice, in one part or in
    two. Whether the ids fit a table is for its caller to check."""
    doc = inputs.load(path, _SPLIT, DatasetError)
    repeat = inputs.first_repeat((rid, f"$.{part}[{i}]") for part in PARTS
                                 for i, rid in enumerate(doc[part]))
    if repeat:
        first, at, rid = repeat
        raise DatasetError(inputs.message(path, at, f"an id listed once (it is also at {first})",
                                          rid))
    return SplitAssignment.from_dict(doc)


def __getattr__(name: str):
    # perfbench's tracer patches ``medtab.dataset.fit_encoder`` and
    # ``medtab.dataset.transform`` by name, so these two keep resolving here,
    # from ``medtab.encoding`` and only when asked for: importing it at the
    # top would load numpy for every table read. Callers import ``encoding``.
    if name in ("fit_encoder", "transform"):
        from . import encoding

        return getattr(encoding, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
