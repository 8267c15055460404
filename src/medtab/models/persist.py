"""Versioned JSON persistence for trained models.

A saved document embeds the fitted encoder state and its column names, which
``load_model`` checks against each other, so a loaded artifact predicts on raw
datasets without any other context.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..dataset import DatasetError, EncoderState, TabularDataset, transform
from ..schema import LabelSpec
from .search import MODEL_TYPES

FORMAT_VERSION = 1


class PersistError(ValueError):
    pass


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
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as e:
        raise PersistError(f"cannot load model file {path}: {e}") from e
    if not isinstance(doc, dict):
        raise PersistError(f"model file {path}: expected a JSON object")
    if doc.get("format_version") != FORMAT_VERSION:
        raise PersistError(f"unsupported model format version {doc.get('format_version')!r}")
    if doc.get("family") not in MODEL_TYPES:
        raise PersistError(f"unknown family {doc.get('family')!r}")
    try:
        encoder = EncoderState.from_dict(doc["encoder"])
        columns = tuple(doc["columns"])
        model = MODEL_TYPES[doc["family"]].from_doc(doc["model"])
        label = LabelSpec.from_doc(doc["label"]) if "label" in doc else None
    except KeyError as e:
        raise PersistError(f"model file {path}: missing key {e}") from e
    except (DatasetError, TypeError) as e:
        raise PersistError(f"model file {path}: {e}") from e
    if columns != encoder.column_names:
        raise PersistError(f"model file {path}: its columns do not match its encoder's")
    return ModelArtifact(family=doc["family"], model=model, encoder=encoder, label=label,
                         params=doc.get("params") or {}, seed=doc.get("seed"))
