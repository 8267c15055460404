"""Versioned JSON persistence for trained models.

A saved document embeds the fitted encoder state and its column names, which
``load_model`` checks against each other, so a loaded artifact predicts on raw
datasets without any other context. Before that, ``load_model`` checks every
value of the file against ``_MODEL_FILE``, so a damaged file raises
PersistError naming the file and the field's JSON path. Its encoder part is
checked by ``EncoderState.DOC_CHECK`` and its model part by the
``doc_check(width)`` of the model's class, ``width`` being the number of
column names, so a model as wide as its encoder is all that loads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .. import inputs
from ..dataset import TabularDataset
from ..encoding import EncoderState, transform
from ..schema import LABEL, LabelSpec
from .search import MODEL_TYPES

FORMAT_VERSION = 1


class PersistError(ValueError):
    pass


def _model_file(model) -> tuple:
    """The check of a file whose model part is of class ``model``: what
    save_model writes, each part checked by the class that writes it, the
    model part as wide as the file's column list. That list is checked before
    the model part, so the width of 0 taken when it is no list is never used."""
    return inputs.given("columns", lambda columns: inputs.Table(
        {"format_version": (lambda value: type(value) is int and value == FORMAT_VERSION,
                            str(FORMAT_VERSION)),
         "columns": inputs.Each(inputs.TEXT, "a list of column names"),
         "encoder": EncoderState.DOC_CHECK,
         "model": model.doc_check(len(columns) if type(columns) is list else 0)},
        {"label": LABEL, "params": inputs.OBJECT,
         "seed": (lambda value: value is None or type(value) is int, "an integer or null")}))


_MODEL_FILE = inputs.tagged("family", {family: _model_file(model)
                                       for family, model in MODEL_TYPES.items()},
                            f"one of {', '.join(map(repr, MODEL_TYPES))}")


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
