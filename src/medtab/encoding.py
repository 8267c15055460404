"""Leakage-free encoding for modeling: impute, one-hot and standardize each
feature column, fitted on training rows only, and ``prepare``, the one
modeling front end (split, fit the encoder on train rows, encode every part).

``EncoderState`` owns the encoded columns: each column state (``NumericState``,
``CategoricalState``) fits itself on train cells, names, saves, checks and
encodes its columns. Models hold no names.

This is the numpy side of the table layer. ``medtab.dataset`` (tables, CSV
files, splits) does not import it, so the extraction commands never load
numpy; the modeling commands import it when they run.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import ClassVar

import numpy as np

from . import inputs
from .dataset import DatasetError, TabularDataset, split
from .schema import MISSING


@dataclass(frozen=True)
class NumericState:
    """One column, z-scored against the imputed train cells (zero variance
    yields scale 1); a missing cell takes the observed train mean."""

    KIND: ClassVar[str] = "numeric"
    name: str
    impute_mean: float
    center: float
    scale: float
    DOC_CHECK = inputs.Table({"name": inputs.TEXT, "impute_mean": inputs.NUMBER,
                              "center": inputs.NUMBER,
                              "scale": (lambda value: inputs.NUMBER[0](value) and value > 0,
                                        "a finite number greater than 0")})

    @classmethod
    def fit(cls, spec, cells) -> "NumericState":
        values, missing = float_column(cells)
        observed = values[~missing]
        impute = float(observed.mean()) if observed.size else 0.0
        imputed = np.where(missing, impute, values)
        scale = float(imputed.std())
        return cls(name=spec.name, impute_mean=impute, center=float(imputed.mean()),
                   scale=scale if scale > 0 else 1.0)

    @classmethod
    def from_dict(cls, doc: dict) -> "NumericState":
        return cls(doc["name"], doc["impute_mean"], doc["center"], doc["scale"])

    @property
    def names(self) -> tuple[str, ...]:
        return (self.name,)

    def to_dict(self) -> dict:
        return {"kind": self.KIND, "name": self.name, "impute_mean": self.impute_mean,
                "center": self.center, "scale": self.scale}

    def encode(self, cells) -> np.ndarray:
        values, missing = float_column(cells)
        raw = np.where(missing, self.impute_mean, values)
        return ((raw - self.center) / self.scale)[:, None]


@dataclass(frozen=True)
class CategoricalState:
    """One indicator column per allowed value, in schema order; a missing cell
    takes the train mode."""

    KIND: ClassVar[str] = "categorical"
    name: str
    categories: tuple[str, ...]
    impute_category: str
    DOC_CHECK = inputs.Table({"name": inputs.TEXT,
                              "categories": inputs.Each(inputs.TEXT, "a list of strings"),
                              "impute_category": inputs.TEXT})

    @classmethod
    def fit(cls, spec, cells) -> "CategoricalState":
        k = len(spec.allowed_values)
        counts = np.bincount(_category_codes(spec.name, spec.allowed_values, cells, None),
                             minlength=k + 1)[:k]
        mode = spec.allowed_values[int(counts.argmax())]  # ties: schema order
        return cls(name=spec.name, categories=spec.allowed_values, impute_category=mode)

    @classmethod
    def from_dict(cls, doc: dict) -> "CategoricalState":
        return cls(doc["name"], tuple(doc["categories"]), doc["impute_category"])

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(f"{self.name}_{cat}" for cat in self.categories)

    def to_dict(self) -> dict:
        return {"kind": self.KIND, "name": self.name, "categories": list(self.categories),
                "impute_category": self.impute_category}

    def encode(self, cells) -> np.ndarray:
        codes = _category_codes(self.name, self.categories, cells, self.impute_category)
        return np.eye(len(self.categories))[codes]


def object_column(cells) -> tuple[np.ndarray, np.ndarray]:
    """A column's cells as an object array, and the mask of the missing ones
    (``MISSING`` equals only itself)."""
    column = np.array(cells, dtype=object)
    return column, column == MISSING


def float_column(cells) -> tuple[np.ndarray, np.ndarray]:
    """A numeric column's cells as float64 (0 where missing), and the mask of
    the missing ones."""
    column, missing = object_column(cells)
    return np.where(missing, 0.0, column).astype(np.float64), missing


def _category_codes(name: str, categories: tuple[str, ...], cells, impute) -> np.ndarray:
    """Each cell's position in ``categories``, a missing cell taking
    ``impute``'s, or ``len(categories)`` when ``impute`` is None (a fit, which
    counts missing cells apart). DatasetError names the first cell, a missing
    one as ``impute``, that is none of the categories."""
    pos = dict(zip(categories, range(len(categories))))
    pos[MISSING] = len(categories) if impute is None else pos.get(impute, -1)
    codes = np.fromiter(map(pos.get, cells, repeat(-1)), dtype=np.intp, count=len(cells))
    unknown = codes < 0
    if unknown.any():
        value = cells[int(unknown.argmax())]
        value = impute if value is MISSING else value
        raise DatasetError(f"{name}: value {value!r} is not an allowed category")
    return codes


# The saved "kind", and the schema feature kind (text has none), to the column class
_COLUMN_KINDS = {cls.KIND: cls for cls in (NumericState, CategoricalState)}
_FEATURE_COLUMNS = {"integer": NumericState, "real": NumericState,
                    "categorical": CategoricalState}


@dataclass(frozen=True)
class EncoderState:
    columns: tuple  # NumericState | CategoricalState, in schema feature order
    DOC_CHECK = inputs.Table({"columns": inputs.Each(inputs.tagged(
        "kind", {kind: cls.DOC_CHECK for kind, cls in _COLUMN_KINDS.items()},
        " or ".join(map(repr, _COLUMN_KINDS))), "a list of columns")})

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(name for col in self.columns for name in col.names)

    def to_dict(self) -> dict:
        return {"columns": [col.to_dict() for col in self.columns]}

    @classmethod
    def from_dict(cls, doc: dict) -> "EncoderState":
        return cls(columns=tuple(_COLUMN_KINDS[column["kind"]].from_dict(column)
                                 for column in doc["columns"]))


def fit_encoder(dataset: TabularDataset, train_ids) -> EncoderState:
    """Fit each feature's column state on the training rows only."""
    train_idx = list(train_ids)
    if not train_idx:
        raise DatasetError("train_ids must be nonempty")
    columns = []
    for spec in dataset.schema.features:
        kind = _FEATURE_COLUMNS.get(spec.kind)
        if kind is None:
            raise DatasetError(f"feature {spec.name!r}: text features cannot be encoded for modeling")
        cells = dataset.columns[spec.name]
        columns.append(kind.fit(spec, [cells[i] for i in train_idx]))
    return EncoderState(columns=tuple(columns))


def transform(dataset: TabularDataset, encoder: EncoderState, ids=None) -> np.ndarray:
    """The (rows, ``encoder.column_names``) float64 matrix of the given rows
    (all rows when ids is None). DatasetError names the columns the encoder
    needs that the table lacks."""
    missing = [col.name for col in encoder.columns if col.name not in dataset.columns]
    if missing:
        raise DatasetError(f"the encoder needs column(s) the table lacks: {', '.join(missing)}")
    idx = None if ids is None else list(ids)
    parts = []
    for col in encoder.columns:
        cells = dataset.columns[col.name]
        parts.append(col.encode(cells if idx is None else [cells[i] for i in idx]))
    return np.hstack(parts) if parts else np.zeros((dataset.n if idx is None else len(idx), 0))


def prepare(dataset: TabularDataset, seed: int):
    """``(assignment, encoder, X, y)``: the seeded split, the encoder fitted on
    its train rows, and each part's matrix and labels keyed by part name. Encoding
    is per cell, so a part's slice of one transform is that part's transform."""
    assignment = split(dataset, seed)
    encoder = fit_encoder(dataset, assignment.train_ids)
    X, y = transform(dataset, encoder), dataset.label_array()
    parts = assignment.parts().items()
    return (assignment, encoder, {part: X[list(ids)] for part, ids in parts},
            {part: y[list(ids)] for part, ids in parts})

