"""Typed feature schemas that drive prompting, validation, coercion and encoding.

A schema file is a JSON document::

    {
      "features": [
        {"name": "Age", "title": "Age", "description": "...", "kind": "integer",
         "range": [0, 120], "allow_missing": true},
        {"name": "Sex", "title": "Sex", "description": "...", "kind": "categorical",
         "allowed_values": ["M", "F"]},
        ...
      ],
      "label": {"name": "HeartDisease", "positive": "1", "negative": "0"}
    }

``kind`` is one of ``integer``, ``real``, ``text``, ``categorical``.
``allowed_values`` is required for categoricals, ``range`` is optional for
numerics (inclusive ``[min, max]``), ``allow_missing`` defaults to true.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

KINDS = ("integer", "real", "text", "categorical")

# Strings that coerce to Missing (case-insensitive), alongside JSON null.
MISSING_SENTINELS = frozenset({"none", "", "n/a", "nan"})


class MissingType:
    """Singleton marker for an absent cell value."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Missing"

    def __bool__(self):
        return False


MISSING = MissingType()


class SchemaError(ValueError):
    """Raised when a schema file or schema definition is invalid."""


class CoercionError(ValueError):
    """A raw value cannot be canonicalized for a feature spec.

    ``reason`` is one of: ``type-mismatch``, ``out-of-range``,
    ``missing-not-allowed``, ``unknown-category``.
    """

    def __init__(self, reason: str, message: str):
        super().__init__(message)
        self.reason = reason


def fold_name(name: str) -> str:
    """Fold a key for matching: lowercase with spaces and underscores removed,
    so "Resting Bp" == "resting_bp" == "RestingBP"."""
    return name.strip().lower().replace(" ", "").replace("_", "")


def snake_name(name: str) -> str:
    """Lowercase snake-case form used for prompt schema-block keys."""
    return "_".join(name.strip().lower().split())


@dataclass(frozen=True)
class FeatureSpec:
    """One column of the extraction target."""

    name: str
    title: str = ""
    description: str = ""
    kind: str = "text"
    allowed_values: tuple[str, ...] = ()
    numeric_range: tuple[float, float] | None = None
    allow_missing: bool = True

    def __post_init__(self):
        if not self.name:
            raise SchemaError("feature name must be nonempty")
        if self.kind not in KINDS:
            raise SchemaError(f"feature {self.name!r}: invalid kind {self.kind!r}")
        if self.kind == "categorical":
            if not self.allowed_values:
                raise SchemaError(f"feature {self.name!r}: categorical needs nonempty allowed_values")
            if len(set(self.allowed_values)) != len(self.allowed_values):
                raise SchemaError(f"feature {self.name!r}: allowed_values must be pairwise distinct")
        elif self.allowed_values:
            raise SchemaError(f"feature {self.name!r}: allowed_values only valid for categorical")
        if self.numeric_range is not None:
            if self.kind not in ("integer", "real"):
                raise SchemaError(f"feature {self.name!r}: range only valid for numeric kinds")
            lo, hi = self.numeric_range
            if lo > hi:
                raise SchemaError(f"feature {self.name!r}: range min {lo} > max {hi}")


@dataclass(frozen=True)
class LabelSpec:
    """Binary label column: a positive and a negative canonical string."""

    name: str
    positive_value: str
    negative_value: str

    def __post_init__(self):
        if not self.name:
            raise SchemaError("label name must be nonempty")
        if self.positive_value == self.negative_value:
            raise SchemaError("label positive_value must differ from negative_value")

    def parse(self, raw) -> str | None:
        """The value ``raw`` names, compared stripped and lowercased (positive
        first), or None when it names neither."""
        text = str(raw).strip().lower()
        return next((v for v in (self.positive_value, self.negative_value)
                     if v.lower() == text), None)

    def to_doc(self) -> dict:
        """``{"name", "positive", "negative"}``, as schema and model files hold it."""
        return {"name": self.name, "positive": self.positive_value,
                "negative": self.negative_value}

    @classmethod
    def from_doc(cls, doc: dict) -> "LabelSpec":
        return cls(name=doc["name"], positive_value=str(doc["positive"]),
                   negative_value=str(doc["negative"]))


@dataclass(frozen=True)
class ExtractionSchema:
    """Ordered feature specs plus an optional label. Immutable after load."""

    features: tuple[FeatureSpec, ...]
    label: LabelSpec | None = None
    name: str = ""
    _by_folded: dict = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        if not self.features:
            raise SchemaError("schema needs at least one feature")
        seen = set()
        for f in self.features:
            if f.name in seen:
                raise SchemaError(f"duplicate feature name {f.name!r}")
            seen.add(f.name)
        folded = {}
        for f in self.features:
            key = fold_name(f.name)
            if key in folded:
                raise SchemaError(f"feature names {folded[key].name!r} and {f.name!r} collide after folding")
            folded[key] = f
        if self.label is not None:
            if self.label.name in seen or fold_name(self.label.name) in folded:
                raise SchemaError(f"label name {self.label.name!r} collides with a feature")
        object.__setattr__(self, "_by_folded", folded)

    @property
    def m(self) -> int:
        return len(self.features)

    def feature(self, name: str) -> FeatureSpec:
        """Look up a feature by folded name; KeyError if absent."""
        return self._by_folded[fold_name(name)]

    def match_key(self, key: str) -> FeatureSpec | None:
        return self._by_folded.get(fold_name(key))


def load_schema(path: str | Path) -> ExtractionSchema:
    """Load and validate a schema file (format documented in the module docstring)."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise SchemaError(f"{path}: invalid JSON at line {e.lineno} column {e.colno}: {e.msg}") from e
    return schema_from_dict(doc, name=path.stem.replace(".schema", ""))


def schema_from_dict(doc: dict, name: str = "") -> ExtractionSchema:
    if not isinstance(doc, dict) or "features" not in doc:
        raise SchemaError("schema document must be an object with a 'features' list")
    features = []
    for entry in doc["features"]:
        rng = entry.get("range")
        features.append(FeatureSpec(
            name=entry.get("name", ""),
            title=entry.get("title", entry.get("name", "")),
            description=entry.get("description", ""),
            kind=entry.get("kind", "text"),
            allowed_values=tuple(str(v) for v in entry.get("allowed_values", ())),
            numeric_range=(float(rng[0]), float(rng[1])) if rng is not None else None,
            allow_missing=bool(entry.get("allow_missing", True)),
        ))
    label = LabelSpec.from_doc(doc["label"]) if doc.get("label") is not None else None
    return ExtractionSchema(features=tuple(features), label=label, name=name)


_JSON_TYPE = {"integer": "integer", "real": "number", "text": "string", "categorical": "string"}


def emit_json_schema_block(schema: ExtractionSchema) -> str:
    """Render the single-line ``{"properties": {...}}`` block embedded in prompts.

    Property keys are the snake-cased titles (``"Max Hr"`` becomes ``max_hr``),
    matching the prompt convention; response keys match back through the
    fold rule regardless of casing or separators. The label, when present,
    is not part of the block.
    """
    props = {}
    for f in schema.features:
        props[snake_name(f.title or f.name)] = {
            "title": f.title,
            "description": f.description,
            "type": _JSON_TYPE[f.kind],
        }
    return json.dumps({"properties": props})


def _coerce_number(raw):
    """Parse a JSON scalar or numeral string into a finite float; None when
    not numeric (infinities are not valid record values)."""
    if isinstance(raw, bool):
        return None
    if isinstance(raw, (int, float)):
        value = float(raw)
        return value if math.isfinite(value) else None
    if isinstance(raw, str):
        s = raw.strip()
        try:
            value = float(s)
        except ValueError:
            # tolerate a comma decimal separator ("1,5" -> 1.5)
            if s.count(",") == 1 and "." not in s:
                try:
                    value = float(s.replace(",", "."))
                except ValueError:
                    return None
            else:
                return None
        return value if math.isfinite(value) else None
    return None


def canonicalize_value(spec: FeatureSpec, raw):
    """Coerce a raw JSON scalar into the feature's canonical typed value.

    Returns the typed value or MISSING; raises CoercionError otherwise.
    Idempotent: feeding the result back returns it unchanged.
    """
    if raw is MISSING or raw is None or (isinstance(raw, str) and raw.strip().lower() in MISSING_SENTINELS):
        if spec.allow_missing:
            return MISSING
        raise CoercionError("missing-not-allowed", f"{spec.name}: value is missing but the feature requires one")
    if isinstance(raw, float) and raw != raw:  # NaN slipping through a lenient parse
        if spec.allow_missing:
            return MISSING
        raise CoercionError("missing-not-allowed", f"{spec.name}: value is missing but the feature requires one")

    if spec.kind in ("integer", "real"):
        num = _coerce_number(raw)
        if num is None:
            raise CoercionError("type-mismatch", f"{spec.name}: cannot interpret {raw!r} as a number")
        if spec.kind == "integer":
            if num != int(num):
                raise CoercionError("type-mismatch", f"{spec.name}: expected an integer, got {raw!r}")
            value = int(num)
        else:
            value = float(num)
        if spec.numeric_range is not None:
            lo, hi = spec.numeric_range
            if not (lo <= value <= hi):
                raise CoercionError(
                    "out-of-range",
                    f"{spec.name}: {value} outside the expected range between {_fmt_bound(lo)} and {_fmt_bound(hi)}")
        return value

    if spec.kind == "categorical":
        text = _stringify(raw).strip()
        lowered = text.lower()
        for allowed in spec.allowed_values:
            if allowed.lower() == lowered:
                return allowed
        raise CoercionError(
            "unknown-category",
            f"{spec.name}: {text!r} is not one of the allowed values: {', '.join(spec.allowed_values)}")

    # text
    return _stringify(raw)


def _stringify(raw) -> str:
    if isinstance(raw, bool):
        return "true" if raw else "false"
    if isinstance(raw, float) and raw == int(raw):
        return str(int(raw))
    return raw if isinstance(raw, str) else str(raw)


def _fmt_bound(x: float) -> str:
    return str(int(x)) if x == int(x) else str(x)
