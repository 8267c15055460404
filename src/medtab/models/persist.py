"""Versioned JSON persistence for trained models.

A saved document embeds the fitted encoder state and its column names, which
``load_model`` checks against each other, so a loaded artifact predicts on raw
datasets without any other context. Before that, ``load_model`` checks every
value of the file against ``_MODEL_FILE``, the table of what ``save_model``
writes, so a damaged file raises PersistError naming the file and the
field's JSON path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .. import inputs
from ..dataset import EncoderState, TabularDataset, transform
from ..schema import LABEL, LabelSpec
from .search import MODEL_TYPES

FORMAT_VERSION = 1


class PersistError(ValueError):
    pass


# The model file: what save_model writes, key by key.
_COUNTS = inputs.Each(inputs.COUNT, "a list of integers of at least 0")
_NUMBERS = inputs.Each(inputs.NUMBER, "a list of finite numbers")
# a node with a column is a split, one without a leaf
_NODE = (lambda doc: (_SPLIT if type(doc) is dict and "column" in doc else _LEAF)(doc),
         "a tree node")
_LEAF = inputs.Table({"n": inputs.COUNT, "value": inputs.NUMBER}, {"counts": _COUNTS})
_SPLIT = inputs.Table({"n": inputs.COUNT, "column": inputs.COUNT, "threshold": inputs.NUMBER,
                       "left": _NODE, "right": _NODE})
_MODELS = {
    "logreg": inputs.Table({"weights": _NUMBERS, "bias": inputs.NUMBER, "C": inputs.NUMBER,
                            "n_iter": inputs.COUNT, "converged": inputs.BOOL}),
    "dtree": inputs.Table({"max_depth": inputs.COUNT, "min_samples_split": inputs.COUNT,
                           "n_columns": inputs.COUNT, "n_training_rows": inputs.COUNT,
                           "gains": _NUMBERS, "root": _NODE}),
    "gbdt": inputs.Table({"learning_rate": inputs.NUMBER, "n_estimators": inputs.COUNT,
                          "initial_log_odds": inputs.NUMBER, "max_tree_depth": inputs.COUNT,
                          "n_columns": inputs.COUNT, "gains": _NUMBERS,
                          "trees": inputs.Each(_NODE, "a list of tree nodes")}),
}
_ENCODER_COLUMN = inputs.tagged("kind", {
    "numeric": inputs.Table({"name": inputs.TEXT, "impute_mean": inputs.NUMBER,
                             "center": inputs.NUMBER,
                             "scale": (lambda value: inputs.NUMBER[0](value) and value > 0,
                                       "a finite number greater than 0")}),
    "categorical": inputs.Table({"name": inputs.TEXT,
                                 "categories": inputs.Each(inputs.TEXT, "a list of strings"),
                                 "impute_category": inputs.TEXT}),
}, "'numeric' or 'categorical'")
_MODEL_FILE = inputs.tagged("family", {
    family: inputs.Table(
        {"format_version": (lambda value: type(value) is int and value == FORMAT_VERSION,
                            str(FORMAT_VERSION)),
         "columns": inputs.Each(inputs.TEXT, "a list of column names"),
         "encoder": inputs.Table({"columns": inputs.Each(_ENCODER_COLUMN, "a list of columns")}),
         "model": model},
        {"label": LABEL, "params": inputs.OBJECT,
         "seed": (lambda value: value is None or type(value) is int, "an integer or null")})
    for family, model in _MODELS.items()}, f"one of {', '.join(map(repr, MODEL_TYPES))}")


@dataclass
class ModelArtifact:
    family: str
    model: object
    encoder: EncoderState
    label: LabelSpec | None = None
    params: dict | None = None
    seed: int | None = None

    @property
    def column_names(self) -> tuple[str, ...]:
        return self.encoder.column_names

    def predict_proba_dataset(self, dataset: TabularDataset, ids=None) -> np.ndarray:
        return self.model.predict_proba(transform(dataset, self.encoder, ids))


def save_model(artifact: ModelArtifact, path: str | Path) -> None:
    doc = {
        "format_version": FORMAT_VERSION,
        "family": artifact.family,
        "columns": list(artifact.column_names),
        "encoder": artifact.encoder.to_dict(),
        "params": artifact.params or {},
        "seed": artifact.seed,
        "model": artifact.model.to_doc(),
    }
    if artifact.label is not None:
        doc["label"] = artifact.label.to_doc()
    Path(path).write_text(json.dumps(doc, sort_keys=True) + "\n", encoding="utf-8")


def load_model(path: str | Path) -> ModelArtifact:
    doc = inputs.load(path, _MODEL_FILE, PersistError)
    encoder = EncoderState.from_dict(doc["encoder"])
    if tuple(doc["columns"]) != encoder.column_names:
        raise PersistError(inputs.message(path, "$.columns", "the encoder's column names",
                                          doc["columns"]))
    return ModelArtifact(family=doc["family"], model=MODEL_TYPES[doc["family"]].from_doc(
                             doc["model"]), encoder=encoder,
                         label=LabelSpec.from_doc(doc["label"]) if "label" in doc else None,
                         params=doc.get("params", {}), seed=doc.get("seed"))
