"""Versioned JSON persistence for trained models.

A saved document embeds the fitted encoder state and its column names, so a
loaded artifact predicts on raw datasets without any other context.
``load_model`` checks a file in the order it reads it: each value but the
model against ``_MODEL_FILE`` (the encoder by ``EncoderState.DOC_CHECK``), the
column names against the encoder's, then the model by its class's
``doc_check(width)``, ``width`` being the encoder's column count. A damaged
file raises PersistError naming the file and the JSON path of the first fault
in that order, the one reported when a file has several.
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


_MODEL_FILE = inputs.Table(
    {"family": (lambda value: type(value) is str and value in MODEL_TYPES,
                f"one of {', '.join(map(repr, MODEL_TYPES))}"),
     "format_version": (lambda value: type(value) is int and value == FORMAT_VERSION,
                        str(FORMAT_VERSION)),
     "columns": inputs.Each(inputs.TEXT, "a list of column names"),
     "encoder": EncoderState.DOC_CHECK,
     "model": inputs.OBJECT},
    {"label": LABEL, "params": inputs.OBJECT,
     "seed": (lambda value: value is None or type(value) is int, "an integer or null")})


@dataclass
class ModelArtifact:
    family: str
    model: object
    encoder: EncoderState
    label: LabelSpec | None = None
    params: dict | None = None
    seed: int | None = None

    def predict_proba_dataset(self, dataset: TabularDataset, ids=None) -> np.ndarray:
        return self.model.predict_proba(transform(dataset, self.encoder, ids))


def save_model(artifact: ModelArtifact, path: str | Path) -> None:
    doc = {
        "format_version": FORMAT_VERSION,
        "family": artifact.family,
        "columns": list(artifact.encoder.column_names),
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
    model_type = MODEL_TYPES[doc["family"]]
    inputs.check(doc["model"], model_type.doc_check(len(encoder.column_names)), PersistError,
                 str(path), "$.model")
    return ModelArtifact(family=doc["family"], model=model_type.from_doc(doc["model"]),
                         encoder=encoder,
                         label=LabelSpec.from_doc(doc["label"]) if "label" in doc else None,
                         params=doc.get("params", {}), seed=doc.get("seed"))
