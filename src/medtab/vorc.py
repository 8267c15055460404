"""Validation loop for model responses: strict parse, rule-based JSON repair,
schema validation, and bounded correction prompts back to the model.

Rule-based repairs are free; only correction prompts actually sent to the
model count as feedback calls, and ``vorc_call_rate`` is the fraction of
reports that needed at least one such prompt.
"""

from __future__ import annotations

import json
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from .llm import CompletionRequest, ProviderError
from .prompts import PromptBundle, build_json_correction_prompt, build_type_correction_prompt
from .schema import MISSING, CoercionError, ExtractionSchema, canonicalize_value, fold_name

REPAIR_ORDER = (
    "strip_code_fence",
    "single_to_double_quotes",
    "remove_trailing_comma",
    "quote_bare_key",
    "pyliteral_to_json",
    "nan_to_null",
    "extract_json_substring",
)


class ParseFailure(ValueError):
    """Strict parsing failed; ``kind`` is ``no-json-found`` or ``strict-parse-error``."""

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


class UnrepairableError(ValueError):
    """The rule set cannot make the text parse; model feedback is needed."""


@dataclass(frozen=True)
class RepairAction:
    kind: str
    span: tuple[int, int]


@dataclass(frozen=True)
class VorcBudget:
    max_correction_prompts: int = 3

    def __post_init__(self):
        if self.max_correction_prompts < 0:
            raise ValueError("max_correction_prompts must be >= 0")


@dataclass
class Violation:
    key: str
    reason: str  # missing-required-key | unknown-extra-key | type-mismatch | out-of-range | unknown-category
    message: str
    received: object = None


@dataclass
class ValidationResult:
    values: dict
    label: str | None
    violations: list[Violation]


@dataclass
class ExtractionRecord:
    """One validated row plus its provenance."""

    values: dict
    vorc_iterations: int = 0
    repairs: list[RepairAction] = field(default_factory=list)
    source_id: str = ""
    label: str | None = None


@dataclass
class VorcFailure:
    source_id: str
    vorc_iterations: int
    repairs: list[RepairAction]
    reason: str  # budget-exhausted | provider-error
    detail: str
    violations: list[Violation] | None = None


def _strict_loads(text: str):
    def reject_constant(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=reject_constant)


def _block_end(text: str, start: int) -> int | None:
    """End of the {...} block that opens at ``start``, aware of double-quoted
    strings; None when the block is never closed."""
    depth = 0
    in_string = False
    escaped = False
    for i, c in enumerate(text[start:], start=start):
        if in_string:
            if escaped:
                escaped = False
            elif c == "\\":
                escaped = True
            elif c == '"':
                in_string = False
        elif c == '"':
            in_string = True
        elif c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
            if depth == 0:
                return i + 1
    return None


def _json_spans(text: str) -> list[tuple[int, int]]:
    """Spans of complete top-level {...} blocks. Outside a block only ``{``
    matters; a ``{`` that is never closed (``{systolic first`` in reasoning
    prose) is prose, and the search goes on from just after it."""
    spans = []
    start = text.find("{")
    while start != -1:
        end = _block_end(text, start)
        if end is None:
            start = text.find("{", start + 1)
        else:
            spans.append((start, end))
            start = text.find("{", end)
    return spans


def parse_response(raw: str):
    """Parse the answer's JSON object out of a response, strictly.

    The answer is the span ``_answer_span`` picks: the last ``{...}`` block,
    unless that block cannot be made an object at all.
    """
    span = _answer_span(raw)
    if span is None:
        raise ParseFailure("no-json-found", "no JSON object found in the response")
    start, end = span
    try:
        return _strict_loads(raw[start:end])
    except (json.JSONDecodeError, ValueError) as e:
        pos = getattr(e, "pos", None)
        where = f" at position {start + pos}" if pos is not None else ""
        raise ParseFailure("strict-parse-error", f"invalid JSON{where}: {e}") from e


def _parses(text: str) -> bool:
    """True when the whole text is strictly a JSON object (records are always
    objects, so repairing into an array or scalar is not a success)."""
    try:
        return isinstance(_strict_loads(text), dict)
    except (json.JSONDecodeError, ValueError):
        return False


def _split_strings(text: str) -> list[tuple[str, bool]]:
    """Alternating (segment, is_double_quoted_string) pieces; strings keep quotes."""
    pieces = []
    buf_start = 0
    in_string = False
    escaped = False
    for i, c in enumerate(text):
        if in_string:
            if escaped:
                escaped = False
            elif c == "\\":
                escaped = True
            elif c == '"':
                pieces.append((text[buf_start:i + 1], True))
                buf_start = i + 1
                in_string = False
        elif c == '"':
            if i > buf_start:
                pieces.append((text[buf_start:i], False))
            buf_start = i
            in_string = True
    if buf_start < len(text):
        pieces.append((text[buf_start:], in_string))
    return pieces


def _map_nonstring(text: str, fn) -> str:
    return "".join(seg if is_str else fn(seg) for seg, is_str in _split_strings(text))


_FENCE_LINE = re.compile(r"^\s*`{3,}[A-Za-z]*\s*$")


def _strip_code_fence(text: str) -> str:
    lines = text.split("\n")
    kept = [ln for ln in lines if not _FENCE_LINE.match(ln)]
    if len(kept) == len(lines):
        return text
    return "\n".join(kept)


def _single_to_double_quotes(text: str) -> str:
    """Convert single-quoted strings in JSON positions (after ``{ [ , :``) only,
    leaving prose apostrophes alone."""
    out = []
    i = 0
    n = len(text)
    last_sig = ""  # last significant char outside strings
    while i < n:
        c = text[i]
        if c == '"':  # skip a double-quoted string wholesale
            out.append(c)
            i += 1
            while i < n:
                out.append(text[i])
                if text[i] == "\\" and i + 1 < n:
                    out.append(text[i + 1])
                    i += 2
                    continue
                if text[i] == '"':
                    i += 1
                    break
                i += 1
            last_sig = '"'
            continue
        if c == "'" and last_sig in "{[,:":
            j = i + 1
            content = []
            closed = False
            while j < n:
                if text[j] == "\\" and j + 1 < n:
                    nxt = text[j + 1]
                    content.append(nxt if nxt == "'" else text[j] + nxt)
                    j += 2
                    continue
                if text[j] == "'":
                    closed = True
                    break
                if text[j] == "\n":
                    break  # strings do not span lines; treat as prose
                content.append(text[j])
                j += 1
            if closed:
                inner = "".join(content).replace('"', '\\"')
                out.append('"' + inner + '"')
                i = j + 1
                last_sig = '"'
                continue
        out.append(c)
        if not c.isspace():
            last_sig = c
        i += 1
    return "".join(out)


def _remove_trailing_comma(text: str) -> str:
    return _map_nonstring(text, lambda seg: re.sub(r",(\s*[}\]])", r"\1", seg))


def _quote_bare_key(text: str) -> str:
    """Quote bare identifiers in key position within object context."""
    pieces = _split_strings(text)
    stack: list[str] = []
    out = []
    for seg, is_str in pieces:
        if is_str:
            out.append(seg)
            continue
        res = []
        i = 0
        while i < len(seg):
            c = seg[i]
            if c in "{[":
                stack.append(c)
            elif c in "}]" and stack:
                stack.pop()
            if c in "{," and stack and stack[-1] == "{":
                m = re.match(r"(\s*)([A-Za-z_][A-Za-z0-9_]*)(\s*):", seg[i + 1:])
                if m:
                    res.append(c)
                    res.append(f'{m.group(1)}"{m.group(2)}"{m.group(3)}:')
                    i += 1 + m.end()
                    continue
            res.append(c)
            i += 1
        out.append("".join(res))
    return "".join(out)


def _pyliteral_to_json(text: str) -> str:
    def fix(seg: str) -> str:
        seg = re.sub(r"\bTrue\b", "true", seg)
        seg = re.sub(r"\bFalse\b", "false", seg)
        return re.sub(r"\bNone\b", "null", seg)

    return _map_nonstring(text, fix)


def _nan_to_null(text: str) -> str:
    return _map_nonstring(text, lambda seg: re.sub(r"-?\bNaN\b", "null", seg))


def _extract_json_substring(text: str) -> str:
    span = _answer_span(text)
    if span is None:
        return text
    candidate = text[span[0]:span[1]]
    return candidate if candidate != text.strip() else text


_RULES = {
    "strip_code_fence": _strip_code_fence,
    "single_to_double_quotes": _single_to_double_quotes,
    "remove_trailing_comma": _remove_trailing_comma,
    "quote_bare_key": _quote_bare_key,
    "pyliteral_to_json": _pyliteral_to_json,
    "nan_to_null": _nan_to_null,
    "extract_json_substring": _extract_json_substring,
}

_MAX_REPAIR_PASSES = 3


def _diff_span(before: str, after: str) -> tuple[int, int]:
    lo = 0
    limit = min(len(before), len(after))
    while lo < limit and before[lo] == after[lo]:
        lo += 1
    hi_b, hi_a = len(before), len(after)
    while hi_b > lo and hi_a > lo and before[hi_b - 1] == after[hi_a - 1]:
        hi_b -= 1
        hi_a -= 1
    return (lo, hi_b)


def repair_json(raw: str) -> tuple[str, list[RepairAction]]:
    """Apply the repair rules in fixed order until the text parses strictly.

    Already-valid JSON comes back unchanged with no actions. Raises
    UnrepairableError when the rule set cannot produce parseable text.
    """
    current = raw
    actions: list[RepairAction] = []
    if _parses(current.strip()):
        return current, actions
    for _ in range(_MAX_REPAIR_PASSES):
        changed = False
        for kind in REPAIR_ORDER:
            fixed = _RULES[kind](current)
            if fixed != current:
                actions.append(RepairAction(kind=kind, span=_diff_span(current, fixed)))
                current = fixed
                changed = True
            if _parses(current.strip()):
                return current.strip(), actions
        if not changed:
            break
    raise UnrepairableError("response could not be repaired into valid JSON")


def _answer_span(text: str) -> tuple[int, int] | None:
    """The {...} span that holds the answer, or None when there is none.

    It is the last span, unless rule repair cannot make that span an object
    (``{systolic}`` in a note after the answer): then it is the last span
    before it that parses or repairs. A span that only needs repair is still
    the answer, so an object echoed earlier in the reply never wins over it.
    When no span can be made an object, it is the last span.
    """
    spans = _json_spans(text)
    if len(spans) <= 1:
        return spans[0] if spans else None
    for start, end in reversed(spans):
        try:
            repair_json(text[start:end])  # each span is shorter than text
        except UnrepairableError:
            continue
        return start, end
    return spans[-1]


def validate_record(obj, schema: ExtractionSchema) -> ValidationResult:
    """Match response keys to features (case/spacing-insensitive), coerce every
    value, and collect all violations instead of stopping at the first."""
    violations: list[Violation] = []
    values: dict = {}
    label_value: str | None = None
    if not isinstance(obj, dict):
        return ValidationResult({}, None, [Violation("", "type-mismatch", "response is not a JSON object", obj)])

    matched: dict[str, object] = {}
    label_fold = fold_name(schema.label.name) if schema.label else None
    for key, raw in obj.items():
        spec = schema.match_key(key)
        if spec is not None:
            if spec.name in matched:
                violations.append(Violation(key, "unknown-extra-key",
                                            f"key {key!r} duplicates feature {spec.name!r}", raw))
            else:
                matched[spec.name] = raw
            continue
        if label_fold is not None and fold_name(key) == label_fold:
            text = str(raw).strip().lower()
            for candidate in (schema.label.positive_value, schema.label.negative_value):
                if candidate.lower() == text:
                    label_value = candidate
                    break
            else:
                violations.append(Violation(
                    key, "unknown-category",
                    f"{schema.label.name}: expected {schema.label.positive_value!r} or "
                    f"{schema.label.negative_value!r}", raw))
            continue
        violations.append(Violation(key, "unknown-extra-key",
                                    f"key {key!r} is not part of the schema", raw))

    for spec in schema.features:
        if spec.name in matched:
            raw = matched[spec.name]
            try:
                values[spec.name] = canonicalize_value(spec, raw)
            except CoercionError as e:
                violations.append(Violation(spec.name, e.reason, str(e), raw))
        elif spec.allow_missing:
            values[spec.name] = MISSING
        else:
            violations.append(Violation(spec.name, "missing-required-key",
                                        f"required key {spec.name!r} is absent"))
    return ValidationResult(values, label_value, violations)


def run_vorc(provider, prompt: str, schema: ExtractionSchema,
             budget: VorcBudget = VorcBudget(), source_id: str = ""):
    """Complete -> parse -> repair -> validate, with correction prompts on
    failure, until a valid record emerges or the budget is spent.

    Returns an ExtractionRecord or a VorcFailure. Provider errors propagate.
    """
    iterations = 0
    repairs: list[RepairAction] = []
    current_prompt = prompt
    while True:
        raw = provider.complete(CompletionRequest(prompt=current_prompt)).text
        obj = None
        parse_error = None
        try:
            obj = parse_response(raw)
        except ParseFailure as e:
            parse_error = e
            try:
                repaired, actions = repair_json(raw)
                repairs.extend(actions)
                obj = parse_response(repaired)
            except (UnrepairableError, ParseFailure):
                obj = None

        if obj is None:
            if iterations >= budget.max_correction_prompts:
                return VorcFailure(source_id, iterations, repairs, "budget-exhausted",
                                   f"unparseable response: {parse_error}")
            iterations += 1
            current_prompt = build_json_correction_prompt(prompt, raw, str(parse_error))
            continue

        result = validate_record(obj, schema)
        if not result.violations:
            return ExtractionRecord(values=result.values, vorc_iterations=iterations,
                                    repairs=repairs, source_id=source_id, label=result.label)
        if iterations >= budget.max_correction_prompts:
            detail = "; ".join(v.message for v in result.violations)
            return VorcFailure(source_id, iterations, repairs, "budget-exhausted",
                               f"validation failed: {detail}", result.violations)
        iterations += 1
        current_prompt = build_type_correction_prompt(prompt, json.dumps(obj), result.violations)


def call_rate(iterations: list[int]) -> float | None:
    """Fraction of reports that needed at least one correction prompt, from
    each report's ``vorc_iterations``; None when there are no reports."""
    if not iterations:
        return None
    return sum(1 for k in iterations if k >= 1) / len(iterations)


@dataclass
class CorpusStats:
    n_reports: int
    n_records: int
    n_failures: int
    vorc_call_rate: float | None


@dataclass
class CorpusResult:
    outcomes: list  # ExtractionRecord | VorcFailure, in input order
    stats: CorpusStats

    @property
    def records(self) -> list[ExtractionRecord]:
        return [o for o in self.outcomes if isinstance(o, ExtractionRecord)]

    @property
    def failures(self) -> list[VorcFailure]:
        return [o for o in self.outcomes if isinstance(o, VorcFailure)]


def extract_corpus(provider, reports: list[tuple[str, str]], schema: ExtractionSchema,
                   templates: PromptBundle, budget: VorcBudget = VorcBudget(),
                   parallelism: int = 1) -> CorpusResult:
    """Run the loop over a corpus with a bounded worker pool.

    Output order always matches input order; per-record failures (budget or
    provider) are collected and never abort the corpus.
    """
    ids = [rid for rid, _ in reports]
    if len(set(ids)) != len(ids):
        raise ValueError("report ids must be unique")
    if parallelism < 1:
        raise ValueError("parallelism must be >= 1")

    def work(item):
        rid, text = item
        prompt = templates.render(text)
        try:
            return run_vorc(provider, prompt, schema, budget, source_id=rid)
        except ProviderError as e:
            return VorcFailure(rid, 0, [], "provider-error", str(e))

    if parallelism == 1:
        outcomes = [work(item) for item in reports]
    else:
        with ThreadPoolExecutor(max_workers=parallelism) as pool:
            outcomes = list(pool.map(work, reports))

    n = len(reports)
    n_failed = sum(1 for o in outcomes if isinstance(o, VorcFailure))
    stats = CorpusStats(n_reports=n, n_records=n - n_failed, n_failures=n_failed,
                        vorc_call_rate=call_rate([o.vorc_iterations for o in outcomes]))
    return CorpusResult(outcomes=outcomes, stats=stats)


def provenance_entries(result: CorpusResult) -> list[dict]:
    """Sidecar provenance rows, in corpus input order."""
    return [{
        "id": o.source_id,
        "vorc_iterations": o.vorc_iterations,
        "repairs": [{"kind": a.kind, "span": list(a.span)} for a in o.repairs],
        "status": "ok" if isinstance(o, ExtractionRecord) else "failed",
    } for o in result.outcomes]
