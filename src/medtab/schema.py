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
``load_schema`` first checks every field's JSON type against ``_SCHEMA``
(see ``medtab.inputs``), so a wrong one raises SchemaError naming the file
and the field's JSON path.

What every value and every key needs is built once. Each ``FeatureSpec``
compiles its coercer when it is constructed: the kind, the range, the
case-folded allowed values and the messages are chosen there, and an allowed
value's own spelling takes a short path. ``FeatureSpec.coerce`` is that
coercer, and ``_compile_coercer`` says what coercion is. A value the schema
names must read as itself: an allowed value that its own coercer maps to
another value, to Missing or to an error, and a label value that
``LabelSpec.parse`` does not return, are SchemaErrors.
Each ``ExtractionSchema`` computes every feature's prompt key (its
snake-cased title) once; the schema block asks for each feature under it, and
the key table maps a feature's name and prompt key, exact or folded, to that
feature, so ``match_key`` folds only other keys. A prompt key that names
another feature or the label is a SchemaError. ``validate_record``, here
beside them, and ``dataset.load_csv`` read the key table and the coercers.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from . import inputs

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
    # raw value -> canonical value, built from the fields above; see
    # ``_compile_coercer``.
    coerce: Callable = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "coerce", _compile_coercer(self))


@dataclass(frozen=True)
class LabelSpec:
    """Binary label column: a positive and a negative canonical string."""

    name: str
    positive_value: str
    negative_value: str

    def __post_init__(self):
        if not self.name:
            raise SchemaError("label name must be nonempty")
        for value in (self.positive_value, self.negative_value):
            if self.parse(value) != value:
                raise SchemaError(f"label {self.name!r}: value {value!r} reads as "
                                  f"{self.parse(value)!r}, not as itself")
        if self.positive_value == self.negative_value:
            raise SchemaError(f"label {self.name!r}: positive and negative are both "
                              f"{self.positive_value!r}")

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
    # the key the schema block asks for each feature under, in feature order
    prompt_keys: tuple[str, ...] = field(init=False, repr=False, compare=False, default=())
    _by_folded: dict = field(init=False, repr=False, compare=False, default=None)
    _by_key: dict = field(init=False, repr=False, compare=False, default=None)

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
        label = fold_name(self.label.name) if self.label is not None else None
        if label in folded:
            raise SchemaError(f"label name {self.label.name!r} collides with feature {folded[label].name!r}")
        prompt_keys = tuple(snake_name(f.title or f.name) for f in self.features)
        for f, key in zip(self.features, prompt_keys):
            owner = folded.setdefault(fold_name(key), f)
            if owner is not f:
                raise SchemaError(f"feature {f.name!r} is asked for as {key!r}, which names "
                                  f"feature {owner.name!r}")
            if fold_name(key) == label:
                raise SchemaError(f"feature {f.name!r} is asked for as {key!r}, which names "
                                  f"the label {self.label.name!r}")
        object.__setattr__(self, "prompt_keys", prompt_keys)
        object.__setattr__(self, "_by_folded", folded)
        object.__setattr__(self, "_by_key", {
            spelling: f for f, key in zip(self.features, prompt_keys) for spelling in (f.name, key)})

    def match_key(self, key: str) -> FeatureSpec | None:
        """The feature whose name or prompt key ``key`` names under
        ``fold_name``, or None."""
        try:
            return self._by_key[key]
        except KeyError:
            return self._by_folded.get(fold_name(key))


LABEL = inputs.Table({"name": inputs.TEXT, "positive": inputs.TEXT, "negative": inputs.TEXT})
_FEATURE = inputs.Table({"name": inputs.TEXT}, {
    "title": inputs.TEXT, "description": inputs.TEXT, "kind": inputs.TEXT,
    "allowed_values": (lambda value: type(value) is list, "a list"),
    "range": (lambda value: value is None or type(value) is list and len(value) == 2
              and all(map(inputs.NUMBER[0], value)), "two finite numbers [min, max], or null"),
    "allow_missing": inputs.BOOL,
})
_SCHEMA = inputs.Table(
    {"features": inputs.Each(_FEATURE, "a non-empty list of features", nonempty=True)},
    {"label": (lambda value: value is None or LABEL(value), "a JSON object or null")})


def load_schema(path: str | Path) -> ExtractionSchema:
    """Load and validate a schema file (format documented in the module docstring)."""
    return schema_from_dict(inputs.load(path, _SCHEMA, SchemaError))


def schema_from_dict(doc: dict) -> ExtractionSchema:
    """The schema a document of the form ``_SCHEMA`` checks describes;
    SchemaError when the schema is invalid."""
    features = []
    for entry in doc["features"]:
        rng = entry.get("range")
        features.append(FeatureSpec(
            name=entry["name"],
            title=entry.get("title", entry["name"]),
            description=entry.get("description", ""),
            kind=entry.get("kind", "text"),
            allowed_values=tuple(str(v) for v in entry.get("allowed_values", ())),
            numeric_range=(float(rng[0]), float(rng[1])) if rng is not None else None,
            allow_missing=entry.get("allow_missing", True),
        ))
    label = LabelSpec.from_doc(doc["label"]) if doc.get("label") is not None else None
    return ExtractionSchema(features=tuple(features), label=label)


_JSON_TYPE = {"integer": "integer", "real": "number", "text": "string", "categorical": "string"}


def emit_json_schema_block(schema: ExtractionSchema) -> str:
    """Render the single-line ``{"properties": {...}}`` block embedded in prompts.

    Property keys are the schema's prompt keys, the snake-cased titles
    (``"Max Hr"`` becomes ``max_hr``); response keys match back through the
    fold rule regardless of casing or separators. The label, when present,
    is not part of the block.
    """
    props = {}
    for key, f in zip(schema.prompt_keys, schema.features):
        props[key] = {
            "title": f.title,
            "description": f.description,
            "type": _JSON_TYPE[f.kind],
        }
    return json.dumps({"properties": props})


@dataclass
class Violation:
    key: str
    reason: str  # missing-required-key | unknown-extra-key | type-mismatch | out-of-range | unknown-category
    message: str
    received: object = None


@dataclass
class ValidationResult:
    values: dict
    violations: list[Violation]


def validate_record(obj, schema: ExtractionSchema) -> ValidationResult:
    """Match response keys to features (case/spacing-insensitive), coerce every
    value, and collect all violations instead of stopping at the first. Keys
    go through the schema's key table and values through each feature's
    compiled coercer. A key that folds to the label's name is skipped, value
    and all: the extracted table has no label column."""
    violations: list[Violation] = []
    values: dict = {}
    if not isinstance(obj, dict):
        return ValidationResult({}, [Violation("", "type-mismatch", "response is not a JSON object", obj)])

    matched: dict[str, object] = {}
    match_key = schema.match_key
    label_fold = fold_name(schema.label.name) if schema.label is not None else None
    for key, raw in obj.items():
        spec = match_key(key)
        if spec is not None:
            if spec.name in matched:
                violations.append(Violation(key, "unknown-extra-key",
                                            f"key {key!r} duplicates feature {spec.name!r}", raw))
            else:
                matched[spec.name] = raw
        elif fold_name(key) != label_fold:
            violations.append(Violation(key, "unknown-extra-key",
                                        f"key {key!r} is not part of the schema", raw))

    for spec in schema.features:
        if spec.name in matched:
            raw = matched[spec.name]
            try:
                values[spec.name] = spec.coerce(raw)
            except CoercionError as e:
                violations.append(Violation(spec.name, e.reason, str(e), raw))
        elif spec.allow_missing:
            values[spec.name] = MISSING
        else:
            violations.append(Violation(spec.name, "missing-required-key",
                                        f"required key {spec.name!r} is absent"))
    return ValidationResult(values, violations)


def _number(raw) -> float | None:
    """A JSON number or numeral string as a finite float; None when it is not
    one. Infinities are not valid record values, and neither is an integer
    too large for a float (a 400-digit ``Age``), which is treated as ``1e400``
    is. ``str.strip`` strips more than ``float`` does, so it comes first. A
    single comma is a decimal point, unless exactly three digits follow it."""
    if isinstance(raw, (int, float)):
        if raw.__class__ is bool:  # bool has no subclasses
            return None
        try:
            value = float(raw)
        except OverflowError:
            return None
    elif isinstance(raw, str):
        s = raw.strip()
        if s.count(",") == 1 and "." not in s:  # float takes no comma
            digits = s.partition(",")[2]
            if len(digits) == 3 and digits.isdecimal():
                return None  # "1,079" may group thousands or be 1.079: read neither
            s = s.replace(",", ".")  # a comma decimal separator: "1,5" is 1.5
        try:
            value = float(s)
        except ValueError:
            return None
    else:
        return None
    return value if value - value == 0.0 else None  # neither NaN nor infinite


def _is_missing(raw) -> bool:
    """JSON null, Missing, a sentinel string or NaN."""
    return (raw is MISSING or raw is None
            or (isinstance(raw, str) and raw.strip().lower() in MISSING_SENTINELS)
            or (isinstance(raw, float) and raw != raw))


def _compile_coercer(spec: FeatureSpec):
    """The coercer of ``spec``: ``coerce(raw)`` turns a raw JSON scalar into
    the feature's canonical typed value.

    It returns the typed value or MISSING; raises CoercionError otherwise:
    ``missing-not-allowed`` for a missing value (JSON null, Missing, a
    string in ``MISSING_SENTINELS`` after stripping and lowercasing, NaN) of
    a feature that requires one; ``type-mismatch`` for a numeric feature's
    value that is not a finite number (see ``_number``) or, for an
    integer feature, not integral; ``out-of-range`` outside the numeric
    range; ``unknown-category`` for a categorical value that matches no
    allowed value after stripping and lowercasing. Idempotent: feeding the
    result back returns it unchanged.
    """
    name = spec.name
    missing_message = f"{name}: value is missing but the feature requires one"

    def missing():
        if spec.allow_missing:
            return MISSING
        raise CoercionError("missing-not-allowed", missing_message)

    if spec.kind in ("integer", "real"):
        integer = spec.kind == "integer"
        if spec.numeric_range is None:
            lo, hi, range_message = -math.inf, math.inf, ""  # every finite value passes
        else:
            lo, hi = spec.numeric_range
            range_message = (f" outside the expected range between {_fmt_bound(lo)} and "
                             f"{_fmt_bound(hi)}")

        def coerce(raw):
            num = _number(raw)
            if num is None:  # so is every missing value
                if _is_missing(raw):
                    return missing()
                raise CoercionError("type-mismatch", f"{name}: cannot interpret {raw!r} as a number")
            value = int(num) if integer else num
            if value != num:  # a real feature's value never differs
                raise CoercionError("type-mismatch", f"{name}: expected an integer, got {raw!r}")
            if lo <= value <= hi:
                return value
            raise CoercionError("out-of-range", f"{name}: {value}{range_message}")

        return coerce

    if spec.kind == "categorical":
        by_fold = {}
        for allowed in spec.allowed_values:
            by_fold.setdefault(allowed.lower(), allowed)
        choices = ", ".join(spec.allowed_values)

        def general(raw):
            if _is_missing(raw):
                return missing()
            text = _stringify(raw).strip()
            value = by_fold.get(text.lower())
            if value is None:
                raise CoercionError("unknown-category",
                                    f"{name}: {text!r} is not one of the allowed values: {choices}")
            return value

        # each allowed value must read as itself, so its own spelling is exact
        for allowed in spec.allowed_values:
            try:
                value = general(allowed)
            except CoercionError as e:
                raise SchemaError(f"feature {name!r}: allowed value {allowed!r} cannot be "
                                  f"read: {e}") from None
            if value != allowed:
                raise SchemaError(f"feature {name!r}: allowed value {allowed!r} reads as "
                                  f"{value!r}, not as itself")
        exact = frozenset(spec.allowed_values)

        def coerce(raw):
            if raw.__class__ is str and raw in exact:
                return raw
            return general(raw)

        return coerce

    def general(raw):  # text
        return missing() if _is_missing(raw) else _stringify(raw)

    def coerce(raw):
        if raw.__class__ is str and raw.strip().lower() not in MISSING_SENTINELS:
            return raw
        return general(raw)

    return coerce


def _stringify(raw) -> str:
    if isinstance(raw, bool):
        return "true" if raw else "false"
    if isinstance(raw, float) and raw.is_integer():  # not inf, which int() cannot take
        return str(int(raw))
    return raw if isinstance(raw, str) else str(raw)


def _fmt_bound(x: float) -> str:
    return str(int(x)) if x == int(x) else str(x)
