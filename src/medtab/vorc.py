"""Validation loop for model responses: strict parse, rule-based JSON repair,
schema validation, and bounded correction prompts back to the model.

Rule-based repairs are free; only correction prompts actually sent to the
model count as feedback calls, and ``vorc_call_rate`` is the fraction of
reports that needed at least one such prompt.

Parsing and repair share one string model, the ``_STRING`` pattern: a string
is double-quoted, a backslash escapes the next character (a newline too), and
a string that is never closed runs to the end of the text. The repair rules
work on the pieces ``_STRINGS.split`` cuts, and the block scanner behind
``_json_spans`` steps over strings with the same pattern.

``_RULES`` is the one ordered table of repair rules; ``repair_json`` runs them
in that order. ``run_vorc`` takes one step per provider call: read the reply
(strict parse, else rule repair), validate what the extracted table holds
(a key naming the label is skipped), and on failure either stop at the
budget or send the matching correction prompt.

What every reply needs is built once, at import or with the schema: one JSON
decoder for every strict parse, compiled patterns, and the schema's key
table and per-feature coercers, which ``validate_record`` reads; it lives in
``schema``, and ``run_vorc`` calls it by this module's name. A reply is not
read again where the answer is already known: ``_parses`` decodes only text
that can be an object, each rule first checks on the text that it can change
something there, and a text is cut into its string pieces only when a rule
that reads them runs.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

from .llm import CompletionRequest, ProviderError
from .prompts import PromptBundle, build_json_correction_prompt, build_type_correction_prompt
from .schema import ExtractionSchema, Violation, validate_record

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


@dataclass
class ExtractionRecord:
    """One validated row plus its provenance."""

    values: dict
    vorc_iterations: int = 0
    repairs: list[RepairAction] = field(default_factory=list)
    source_id: str = ""


@dataclass
class VorcFailure:
    source_id: str
    vorc_iterations: int
    repairs: list[RepairAction]
    reason: str  # budget-exhausted | provider-error
    detail: str
    violations: list[Violation] | None = None


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


# One decoder for every strict parse, shared by all threads as json.loads'
# own default decoder is.
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


def _strict_loads(text: str):
    """``json.loads(text)`` that rejects NaN and the infinities, with
    ``json.loads``' error for a leading byte-order mark. Text nested too deep
    to decode raises ValueError too, as an integer of too many digits does."""
    if text.startswith("\ufeff"):
        raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
    try:
        return _DECODER.decode(text)
    except RecursionError:
        raise ValueError("JSON nested too deep to decode") from None


_STRING = r'"[^"\\]*(?:\\[\s\S][^"\\]*)*(?:"|\\?\Z)'  # see the module docstring
# Its split pieces: even indices lie outside strings (and may be empty), odd
# ones are strings.
_STRINGS = re.compile(f"({_STRING})")
# Everything up to the next brace outside strings, and that brace ("" at the
# end of the text); it cannot fail, so it never backtracks.
_NEXT_BRACE = re.compile(rf'[^{{}}"]*(?:{_STRING}[^{{}}"]*)*([{{}}]|\Z)')
# A single quote, or a whole double-quoted string to step over.
_QUOTE_TOKEN = re.compile(f"'|{_STRING}")
# A single-quoted string, closed on its own line (a bare newline makes it prose).
_SINGLE_QUOTED = re.compile(r"'([^'\\\n]*(?:\\[\s\S][^'\\\n]*)*)'")
# An escape in a single-quoted string: \' loses its backslash, others keep it.
_UNESCAPE = re.compile(r"\\(')|(\\[\s\S])")
_FENCE_LINE = re.compile(r"^\s*`{3,}[A-Za-z]*\s*$")
_TRAILING_COMMA = re.compile(r",(\s*[}\]])")
_STRUCTURE = re.compile(r"[{}\[\],]")
_BARE_KEY = re.compile(r"(\s*)([A-Za-z_][A-Za-z0-9_]*)(\s*):")
# A bare key anywhere, as the rule's prefilter.
_BARE_KEY_ANYWHERE = re.compile("[{,]" + _BARE_KEY.pattern)
_PY_LITERALS = (("True", "true"), ("False", "false"), ("None", "null"))
_JSON_WHITESPACE = " \t\n\r"


def _scan_block(text: str, start: int, ends: dict[int, int | None]) -> None:
    """Scan the {...} block that opens at ``start``, aware of double-quoted
    strings, and record in ``ends`` where every block opened on the way ends
    (None when it is never closed). A fresh scan from any of those ``{``
    would see the same strings, so ``_json_spans`` needs no scan of its own
    for them, and text of unclosed braces is scanned once, not once per brace.
    For the same reason a ``{`` an earlier scan recorded is not scanned again:
    the scan jumps to its end, or, when it never closes, neither does any
    block still open."""
    open_at = []
    pos = start
    while True:
        m = _NEXT_BRACE.match(text, pos)
        brace, pos = m[1], m.end()
        if not brace:
            break
        if brace == "{":
            if pos - 1 not in ends:
                open_at.append(pos - 1)
            elif ends[pos - 1] is None:
                break
            else:
                pos = ends[pos - 1]
            continue
        ends[open_at.pop()] = pos
        if not open_at:
            return
    ends.update(dict.fromkeys(open_at))


def _json_spans(text: str) -> list[tuple[int, int]]:
    """Spans of complete top-level {...} blocks. Outside a block only ``{``
    matters; a ``{`` that is never closed (``{systolic first`` in reasoning
    prose) is prose, and the search goes on from just after it."""
    spans = []
    ends: dict[int, int | None] = {}
    start = text.find("{")
    while start != -1:
        if start not in ends:
            _scan_block(text, start, ends)
        end = ends[start]
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
    objects, so repairing into an array or scalar is not a success). Text
    that does not start with ``{`` after JSON whitespace is not decoded."""
    if not text.lstrip(_JSON_WHITESPACE).startswith("{"):
        return False
    try:
        return isinstance(_strict_loads(text), dict)
    except (json.JSONDecodeError, ValueError):
        return False


# Each rule takes the text and a function that returns its ``_STRINGS.split``
# pieces, and returns the repaired text (the same text when it has nothing to
# repair). A rule first checks, on the text, that it can change something
# there, so the pieces are cut only for a rule that reads them.

def _splitter(text: str):
    """The function that returns ``_STRINGS.split(text)``, cut on its first
    call and kept for the later ones. (``functools.cache`` would do the same,
    but it copies the wrapped function's attributes for every text.)"""
    pieces = None

    def split() -> list[str]:
        nonlocal pieces
        if pieces is None:
            pieces = _STRINGS.split(text)
        return pieces

    return split


def _map_nonstring(pieces: list[str], fn) -> str:
    """The text with ``fn`` applied outside strings. The pieces outside
    strings hold no ``"``, so they go through ``fn`` joined by ``"`` (which no
    rule's pattern matches) and are split apart again."""
    out = pieces[:]
    out[::2] = fn('"'.join(pieces[::2])).split('"')
    return "".join(out)


def _strip_code_fence(text: str, pieces) -> str:
    if "```" not in text:  # every fence line holds one
        return text
    lines = text.split("\n")
    kept = [ln for ln in lines if not _FENCE_LINE.match(ln)]
    if len(kept) == len(lines):
        return text
    return "\n".join(kept)


def _single_to_double_quotes(text: str, pieces) -> str:
    """Convert single-quoted strings in JSON positions (after ``{ [ , :``) only,
    leaving prose apostrophes alone. A single-quoted string may hold ``"``,
    so this rule finds its own strings rather than using the pieces."""
    if "'" not in text:
        return text
    out = []
    copied = pos = 0
    last_sig = ""  # last non-space character outside strings
    while m := _QUOTE_TOKEN.search(text, pos):
        at = m.start()
        if text[at] == '"':
            pos, last_sig = m.end(), '"'
            continue
        gap = text[pos:at].rstrip()
        if gap:
            last_sig = gap[-1]
        if last_sig in "{[,:" and (quoted := _SINGLE_QUOTED.match(text, at)):
            inner = quoted[1]
            if "\\" in inner:
                inner = _UNESCAPE.sub(r"\1\2", inner)
            inner = inner.replace('"', '\\"')
            out += (text[copied:at], f'"{inner}"')
            copied = pos = quoted.end()
            last_sig = '"'
        else:
            pos, last_sig = at + 1, "'"
    out.append(text[copied:])
    return "".join(out)


def _remove_trailing_comma(text: str, pieces) -> str:
    # A match outside strings is a match in the text, since ``"`` ends none.
    if not _TRAILING_COMMA.search(text):
        return text
    return _map_nonstring(pieces(), lambda seg: _TRAILING_COMMA.sub(r"\1", seg))


def _quote_bare_key(text: str, pieces) -> str:
    """Quote bare identifiers in key position within object context. Object
    context opens at a ``{``, so a key before the first one is never quoted."""
    start = text.find("{")
    if start < 0 or not _BARE_KEY_ANYWHERE.search(text, start):
        return text
    stack: list[str] = []
    pieces = pieces()
    out = pieces[:]
    for i in range(0, len(pieces), 2):
        seg = pieces[i]
        res = []
        copied = 0
        for m in _STRUCTURE.finditer(seg):
            c = m.group()
            if c in "{[":
                stack.append(c)
            elif c in "}]" and stack:
                stack.pop()
            if c in "{," and stack and stack[-1] == "{":
                key = _BARE_KEY.match(seg, m.end())
                if key:
                    res += (seg[copied:key.start()], '{}"{}"{}:'.format(*key.groups()))
                    copied = key.end()
        if copied:
            out[i] = "".join(res) + seg[copied:]
    return "".join(out)


def _is_word_char(c: str) -> bool:
    """A word character of ``re``'s ``\\w`` on str patterns."""
    return c.isalnum() or c == "_"


def _sub_word(seg: str, word: str, literal: str, dash: bool = False) -> str:
    """``re.sub(rf"\\b{word}\\b", literal, seg)``, or with ``dash``
    ``re.sub(rf"-?\\b{word}\\b", ...)``, which also replaces a ``-`` just
    before the word. A pattern that opens with ``\\b`` or ``-?`` has no literal
    prefix, so ``re`` tries it at every position; here ``str.find`` visits
    only the places where ``word`` is. ``word`` is one of ``True``, ``False``,
    ``None`` and ``NaN``: a rejected place can hide no accepted one inside it."""
    out = []
    copied = 0
    at = seg.find(word)
    while at >= 0:
        end = at + len(word)
        if ((end == len(seg) or not _is_word_char(seg[end]))
                and (at == 0 or not _is_word_char(seg[at - 1]))):
            start = at - 1 if dash and at and seg[at - 1] == "-" else at
            out += (seg[copied:start], literal)
            copied = end
            at = seg.find(word, end)
        else:
            at = seg.find(word, at + 1)
    if not out:
        return seg
    out.append(seg[copied:])
    return "".join(out)


def _pyliteral_to_json(text: str, pieces) -> str:
    found = [(word, literal) for word, literal in _PY_LITERALS if word in text]

    def fix(seg: str) -> str:
        for word, literal in found:
            seg = _sub_word(seg, word, literal)
        return seg

    return _map_nonstring(pieces(), fix) if found else text


def _nan_to_null(text: str, pieces) -> str:
    if "NaN" not in text:
        return text
    return _map_nonstring(pieces(), lambda seg: _sub_word(seg, "NaN", "null", dash=True))


def _extract_json_substring(text: str, pieces) -> str:
    span = _answer_span(text)
    if span is None:
        return text
    candidate = text[span[0]:span[1]]
    return candidate if candidate != text.strip() else text


# The repair rules, in the order ``repair_json`` applies them.
_RULES = {
    "strip_code_fence": _strip_code_fence,
    "single_to_double_quotes": _single_to_double_quotes,
    "remove_trailing_comma": _remove_trailing_comma,
    "quote_bare_key": _quote_bare_key,
    "pyliteral_to_json": _pyliteral_to_json,
    "nan_to_null": _nan_to_null,
    "extract_json_substring": _extract_json_substring,
}
REPAIR_ORDER = tuple(_RULES)

_MAX_REPAIR_PASSES = 3


def _common_prefix(a: str, b: str, limit: int) -> int:
    """Length of the longest common prefix of ``a`` and ``b``, at most
    ``limit``, by bisection; each step compares only the part not yet
    known to agree."""
    lo, hi = 0, limit
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if a[lo:mid] == b[lo:mid]:
            lo = mid
        else:
            hi = mid - 1
    return lo


def _diff_span(before: str, after: str) -> tuple[int, int]:
    """The span of ``before`` that ``after`` replaced: what lies between their
    longest common prefix and the longest common suffix of the rest."""
    limit = min(len(before), len(after))
    lo = _common_prefix(before, after, limit)
    tail = _common_prefix(before[::-1], after[::-1], limit - lo)
    return (lo, len(before) - tail)


def repair_json(raw: str) -> tuple[str, list[RepairAction]]:
    """Apply the repair rules in fixed order until the text parses strictly.

    The text comes back stripped, and already-valid JSON with no actions.
    Raises UnrepairableError when the rule set cannot produce parseable text.
    """
    current = raw
    actions: list[RepairAction] = []
    if _parses(current.strip()):
        return current.strip(), actions
    pieces = _splitter(current)
    for _ in range(_MAX_REPAIR_PASSES):
        changed = False
        for kind, rule in _RULES.items():
            fixed = rule(current, pieces)
            if fixed == current:
                continue  # so are its pieces, and it still does not parse
            actions.append(RepairAction(kind=kind, span=_diff_span(current, fixed)))
            current, pieces, changed = fixed, _splitter(fixed), True
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


def run_vorc(provider, prompt: str, schema: ExtractionSchema, budget: int, source_id: str = ""):
    """Complete -> parse -> repair -> validate, with correction prompts on
    failure, until a valid record emerges or ``budget`` correction prompts
    have been sent.

    Returns an ExtractionRecord or a VorcFailure. A provider error ends the
    record as a ``provider-error`` failure that keeps the correction prompts
    sent and the repairs made before it.
    """
    iterations = 0
    repairs: list[RepairAction] = []
    current_prompt = prompt
    while True:
        try:
            raw = provider.complete(CompletionRequest(prompt=current_prompt)).text
        except ProviderError as e:
            return VorcFailure(source_id, iterations, repairs, "provider-error", str(e))
        obj = violations = None
        try:
            obj = parse_response(raw)
        except ParseFailure as e:
            error = str(e)
            try:
                repaired, actions = repair_json(raw)
                repairs.extend(actions)
                obj = _strict_loads(repaired)  # repair_json returns only text that parses
            except UnrepairableError:
                detail = f"unparseable response: {error}"
        if obj is not None:
            result = validate_record(obj, schema)
            if not result.violations:
                return ExtractionRecord(values=result.values, vorc_iterations=iterations,
                                        repairs=repairs, source_id=source_id)
            violations = result.violations
            detail = "validation failed: " + "; ".join(v.message for v in violations)
        if iterations >= budget:
            return VorcFailure(source_id, iterations, repairs, "budget-exhausted", detail, violations)
        iterations += 1
        if obj is None:
            current_prompt = build_json_correction_prompt(prompt, raw, error)
        else:
            current_prompt = build_type_correction_prompt(prompt, json.dumps(obj), violations)


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
                   templates: PromptBundle, budget: int, parallelism: int = 1) -> CorpusResult:
    """Run the loop over a corpus with a bounded worker pool, each record
    allowed at most ``budget`` correction prompts.

    Output order always matches input order; per-record failures (budget or
    provider) are collected and never abort the corpus.
    """
    ids = [rid for rid, _ in reports]
    if len(set(ids)) != len(ids):
        raise ValueError("report ids must be unique")
    if budget < 0:
        raise ValueError("max_correction_prompts must be >= 0")
    if parallelism < 1:
        raise ValueError("parallelism must be >= 1")

    def work(item):
        rid, text = item
        return run_vorc(provider, templates.render(text), schema, budget, source_id=rid)

    if parallelism == 1:
        outcomes = [work(item) for item in reports]
    else:
        from concurrent.futures import ThreadPoolExecutor  # ~10 ms of imports, pools only

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
