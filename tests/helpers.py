"""Shared test utilities: independent oracles, small schema builders, and the
replay-scripted extraction fixture."""

from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from medtab.dataset import DatasetError, TabularDataset, _map_header, format_cell, load_csv
from medtab.encoding import CategoricalState, NumericState
from medtab.evalkit import EvalError, ExtractionReport
from medtab.llm import CompletionRequest, ProviderError, ReplayExhaustedError
from medtab.models import train_dtree, train_gbdt, train_logreg
from medtab.prompts import (DEFAULT_INSTRUCTIONS, DEFAULT_MAX_PROMPT_CHARS, EXAMPLE_HEADING,
                            FORMAT_SECTION, REPORT_SLOT, SCHEMA_HEADING, SEPARATOR,
                            OneShotExample, PromptBundle, PromptError, _fit_sections)
from medtab.schema import (MISSING, MISSING_SENTINELS, CoercionError, ExtractionSchema, FeatureSpec,
                           LabelSpec, emit_json_schema_block, fold_name, snake_name)
from medtab.vorc import (ExtractionRecord, ParseFailure, RepairAction, UnrepairableError,
                         Violation, VorcFailure, call_rate)

ROOT = Path(__file__).resolve().parent.parent
SCHEMAS = ROOT / "schemas"
DATA = ROOT / "data"
TEMPLATES = ROOT / "templates"

# Each family's trainer, which fits one grid point: ``TRAINERS[family](X, y,
# **params)`` is the model that point stands for.
TRAINERS = {"logreg": train_logreg, "dtree": train_dtree, "gbdt": train_gbdt}


def json_places(value, path=()):
    """The path of every value in a JSON document, containers included."""
    yield path
    items = value.items() if type(value) is dict else enumerate(value) \
        if type(value) is list else ()
    for key, child in items:
        yield from json_places(child, path + (key,))


def json_replaced(doc, path, new):
    """``doc`` with the value at ``path`` replaced by ``new``: the containers
    on the path are copies, the rest is shared with ``doc``."""
    if not path:
        return new
    copy = doc.copy()
    copy[path[0]] = json_replaced(doc[path[0]], path[1:], new)
    return copy


def json_path(path) -> str:
    """``path`` as ``medtab.inputs`` names it in an error, such as ``$.a[0].b``."""
    return "$" + "".join(f"[{key}]" if type(key) is int else f".{key}" for key in path)


def table_from_rows(schema, rows, ids, labels=None) -> TabularDataset:
    """A table of the given row mappings, its columns in the first row's key
    order (the schema's when there are no rows)."""
    names = list(rows[0]) if rows else [spec.name for spec in schema.features]
    return TabularDataset(schema=schema, columns={name: [row[name] for row in rows]
                                                  for name in names},
                          ids=list(ids), labels=labels)


def table_rows(table: TabularDataset) -> tuple[dict, ...]:
    """The table's rows built from its columns: one dict per row, from
    feature name to cell, in ``columns`` order."""
    names = tuple(table.columns)
    return tuple(dict(zip(names, cells)) for cells in zip(*table.columns.values()))


def int_feature(name, lo=None, hi=None, allow_missing=True):
    rng = (lo, hi) if lo is not None else None
    return FeatureSpec(name=name, title=name, kind="integer", numeric_range=rng,
                       allow_missing=allow_missing)


def real_feature(name, allow_missing=True):
    return FeatureSpec(name=name, title=name, kind="real", allow_missing=allow_missing)


def cat_feature(name, values, allow_missing=True):
    return FeatureSpec(name=name, title=name, kind="categorical",
                       allowed_values=tuple(values), allow_missing=allow_missing)


def small_schema():
    return ExtractionSchema(
        features=(int_feature("age"), cat_feature("sex", ["M", "F"])),
        label=LabelSpec(name="outcome", positive_value="yes", negative_value="no"),
    )


def bundle_for(schema: ExtractionSchema, example_values: dict) -> PromptBundle:
    return PromptBundle(
        instructions=DEFAULT_INSTRUCTIONS,
        schema_block=emit_json_schema_block(schema),
        example=OneShotExample(
            report_text="Example patient, 40-year-old man.",
            reasoning_text='The report says 40-year-old, therefore "age": 40.',
            output_json_text=json.dumps(example_values),
        ),
        reasoning_guidelines="Read ages as integers.",
    )


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------

def gini_of(y) -> float:
    n = len(y)
    pos = int(sum(y))
    neg = n - pos
    return 1.0 - (pos * pos + neg * neg) / (n * n)


def brute_force_gini_split(X, y):
    """Exhaustive argmax of Gini decrease over every (column, midpoint)
    candidate, recomputing node impurities from scratch per candidate.
    Ties keep the first (lowest column, then lowest threshold)."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    n = len(y)
    parent = gini_of(y)
    best = None
    for col in range(X.shape[1]):
        values = sorted(set(X[:, col].tolist()))
        for a, b in zip(values, values[1:]):
            thr = (a + b) / 2.0
            mask = X[:, col] <= thr
            n_l = int(mask.sum())
            n_r = n - n_l
            pos_l = int(y[mask].sum())
            neg_l = n_l - pos_l
            pos_r = int(y.sum()) - pos_l
            neg_r = n_r - pos_r
            gini_l = 1.0 - (pos_l * pos_l + neg_l * neg_l) / (n_l * n_l)
            gini_r = 1.0 - (pos_r * pos_r + neg_r * neg_r) / (n_r * n_r)
            gain = parent - (n_l * gini_l + n_r * gini_r) / n
            if best is None or gain > best[0]:
                best = (gain, col, thr)
    if best is None or best[0] <= 0.0:
        return None
    return best[1], best[2], best[0]


def brute_force_sse_split(X, t):
    """Exhaustive argmax of squared-error decrease over every (column,
    midpoint) candidate, recomputing each side's sums from scratch per
    candidate as ``sum(t*t) - sum(t)**2 / n``. Ties keep the first (lowest
    column, then lowest threshold). With targets whose sums are exact in
    float64 (small multiples of a power of two) every gain is bit-identical
    to a prefix-sum computation of the same formula."""
    X = np.asarray(X, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)

    def sums(values):
        return float(values.sum()), float((values * values).sum()), len(values)

    total, total_sq, n = sums(t)
    parent = total_sq - total * total / n
    best = None
    for col in range(X.shape[1]):
        values = sorted(set(X[:, col].tolist()))
        for a, b in zip(values, values[1:]):
            thr = (a + b) / 2.0
            mask = X[:, col] <= thr
            sum_l, sq_l, n_l = sums(t[mask])
            sum_r, sq_r, n_r = sums(t[~mask])
            gain = parent - ((sq_l - sum_l * sum_l / n_l) + (sq_r - sum_r * sum_r / n_r))
            if best is None or gain > best[0]:
                best = (gain, col, thr)
    if best is None or best[0] <= 1e-12:
        return None
    return best[1], best[2], best[0]


def two_cumsum_sse_gains(node, t):
    """The squared-error gains at each cut of a ``tree.NodeRows`` node as
    ``tree._sse_gains`` computed them with one float cumulative sum of the
    targets and another of their squares. It is the oracle for the paired
    (complex) prefix sums on any targets, where the brute force above needs
    exact sums."""
    m = len(node.rows)
    node_t = t.take(node.rows)
    total = float(node_t.sum())
    total_sq = float((node_t * node_t).sum())
    parent = total_sq - total * total / m
    ts = t.take(node.order)
    sum_l = np.cumsum(ts, axis=1).take(node.cuts)
    sq_l = np.cumsum(ts * ts, axis=1).take(node.cuts)
    n_l, n_r = node.n_left, node.n_right
    sse_l = sq_l - sum_l * sum_l / n_l
    sum_r = total - sum_l
    sse_r = (total_sq - sq_l) - sum_r * sum_r / n_r
    return parent - (sse_l + sse_r)


def monotone_mapped(X):
    """(column, copy of ``X`` with ``exp(x / 3)`` applied to ``column``), the
    column being the first with the most distinct values. The map is checked
    to keep the column's sorted order and its ties, as a strictly increasing
    map does."""
    X = np.asarray(X, dtype=np.float64)
    column = int(np.argmax([len(np.unique(values)) for values in X.T]))
    out = X.copy()
    out[:, column] = np.exp(X[:, column] / 3.0)
    order = np.argsort(X[:, column], kind="stable")
    assert np.array_equal(np.argsort(out[:, column], kind="stable"), order)
    assert len(np.unique(out[:, column])) == len(np.unique(X[:, column]))
    return column, out


def thresholds_dropped(doc, column):
    """A model document without the thresholds of the splits on ``column``."""
    if isinstance(doc, list):
        return [thresholds_dropped(item, column) for item in doc]
    if isinstance(doc, dict):
        return {key: thresholds_dropped(value, column) for key, value in doc.items()
                if not (key == "threshold" and doc.get("column") == column)}
    return doc


def brute_force_auc(y, scores) -> float:
    """AUC by direct comparison of every positive/negative pair, ties 0.5."""
    pos = [s for s, t in zip(scores, y) if t == 1]
    neg = [s for s, t in zip(scores, y) if t == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def loop_midrank_auc(y, scores) -> float:
    """The rank AUC with midranks found by a loop over sorted runs of equal
    scores, as evalkit computed it before taking them from ``np.unique``."""
    y = np.asarray(y, dtype=np.int64)
    s = np.asarray(scores, dtype=np.float64)
    n_pos = int(y.sum())
    n_neg = len(y) - n_pos
    order = np.argsort(s, kind="stable")
    ranks = np.empty(len(s), dtype=np.float64)
    sorted_scores = s[order]
    i = 0
    while i < len(s):
        j = i
        while j + 1 < len(s) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return (float(ranks[y == 1].sum()) - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def corrupt_cells(table: TabularDataset, fraction: float, seed: int) -> TabularDataset:
    """Return a copy with ``fraction`` of feature cells replaced: numerics take
    another row's value from the same column, categoricals a different allowed
    value. Cells are chosen uniformly at random."""
    rng = np.random.default_rng(seed)
    rows = list(table_rows(table))
    feats = table.schema.features
    n_cells = len(rows) * len(feats)
    chosen = rng.choice(n_cells, size=int(round(fraction * n_cells)), replace=False)
    for c in chosen:
        i, j = divmod(int(c), len(feats))
        spec = feats[j]
        if spec.kind == "categorical":
            alternatives = [v for v in spec.allowed_values if v != rows[i][spec.name]]
            rows[i][spec.name] = alternatives[rng.integers(len(alternatives))]
        else:
            k = int(rng.integers(len(rows) - 1))
            if k >= i:
                k += 1
            rows[i][spec.name] = rows[k][spec.name]
    return table_from_rows(table.schema, rows, table.ids,
                           list(table.labels) if table.labels is not None else None)


def eleven_hepatitis_rows(schema: ExtractionSchema) -> TabularDataset:
    """The first 5 positive and first 6 negative rows of hepatitis.csv: every
    seed splits them 7/0/4, since floor(0.1 n) is 0 in both classes."""
    table = load_csv(DATA / "hepatitis.csv", schema)
    pos = [i for i, y in enumerate(table.labels) if y][:5]
    neg = [i for i, y in enumerate(table.labels) if not y][:6]
    return table.subset(sorted(pos + neg))


# ---------------------------------------------------------------------------
# Replay extraction fixture: 7 clean, 2 one-correction, 1 budget-exhausting
# ---------------------------------------------------------------------------

def vorc_fixture_files(tmpdir: Path) -> tuple[Path, Path, Path]:
    """Write corpus.jsonl, replay.json and a template dir for the 10-report
    fixture. Returns (corpus_path, replay_path, template_dir)."""
    tmpdir = Path(tmpdir)
    reports = []
    entries = []
    for i in range(10):
        marker = f"[record-{i:02d}]"
        reports.append({"id": f"r{i:02d}", "text": f"{marker} Patient aged {30 + i}, male.",
                        "label": "yes" if i % 2 else "no"})
        good = json.dumps({"age": 30 + i, "sex": "M"})
        if i < 6:
            entries.append({"match_substring": marker, "response": f"Output JSON:\n{good}"})
        elif i == 6:
            # rule-repairable on the first response: no correction prompt
            entries.append({"match_substring": marker,
                            "response": "Output JSON:\n{'age': %d, 'sex': 'M'}" % (30 + i)})
        elif i in (7, 8):
            entries.append({"match_substring": marker, "response": "I cannot find structured data."})
            entries.append({"match_substring": marker, "response": good})
        else:
            for _ in range(4):  # initial + 3 corrections, all unusable
                entries.append({"match_substring": marker, "response": "still no structured data"})
    corpus_path = tmpdir / "corpus.jsonl"
    corpus_path.write_text("\n".join(json.dumps(r) for r in reports) + "\n", encoding="utf-8")
    replay_path = tmpdir / "replay.json"
    replay_path.write_text(json.dumps(entries, indent=1), encoding="utf-8")

    template_dir = tmpdir / "templates"
    template_dir.mkdir(exist_ok=True)
    (template_dir / "example_report.txt").write_text("Example patient, 40-year-old man.\n")
    (template_dir / "example_reasoning.txt").write_text(
        'The report says 40-year-old, therefore "age": 40.\n')
    (template_dir / "example_output.json").write_text('{"age": 40, "sex": "M"}\n')
    (template_dir / "guidelines.txt").write_text("Read ages as integers.\n")
    return corpus_path, replay_path, template_dir


def small_schema_file(tmpdir: Path) -> Path:
    doc = {
        "features": [
            {"name": "age", "title": "Age", "description": "Age in years", "kind": "integer"},
            {"name": "sex", "title": "Sex", "description": "Sex [M,F]", "kind": "categorical",
             "allowed_values": ["M", "F"]},
        ],
        "label": {"name": "outcome", "positive": "yes", "negative": "no"},
    }
    path = Path(tmpdir) / "small.schema.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path

# ---------------------------------------------------------------------------
# Reference parser and rule repair: the character-loop implementation that
# the tokenizer in medtab.vorc replaced, kept verbatim as an oracle. Tests
# compare the library against ``repair_json``, ``parse_response`` and
# ``_json_spans`` here (imported under ``oracle_`` names).
# ---------------------------------------------------------------------------

REPAIR_ORDER = (
    "strip_code_fence",
    "single_to_double_quotes",
    "remove_trailing_comma",
    "quote_bare_key",
    "pyliteral_to_json",
    "nan_to_null",
    "extract_json_substring",
)


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


# ---------------------------------------------------------------------------
# Reference correction prompts: the two builders as they were before they
# shared one frame, kept verbatim as an oracle for medtab.prompts.
# ---------------------------------------------------------------------------

def build_json_correction_prompt(original_prompt: str, response: str, error: str,
                                 max_chars: int = DEFAULT_MAX_PROMPT_CHARS) -> str:
    """Ask the model to re-emit JSON after a parse failure, showing it the
    original prompt, its response, and the error."""
    if not (original_prompt and response and error):
        raise PromptError("original prompt, response and error must all be nonempty")
    front = (
        "Your previous answer could not be parsed as JSON.\n"
        "\n"
        "Original prompt:\n"
        f"{original_prompt}\n"
        "\n"
        "Response:\n"
    )
    back = (
        "\n"
        "\n"
        "Error:\n"
        f"{error}\n"
        "\n"
        "Extract the JSON data once more. Respond with only the corrected JSON "
        "instance and nothing else."
    )
    front, response = _fit_sections(front, response, back, max_chars)
    return front + response + back


def build_type_correction_prompt(original_prompt: str, response_json: str,
                                 violations: list,
                                 max_chars: int = DEFAULT_MAX_PROMPT_CHARS) -> str:
    """Ask the model to fix specific key values; one line per violation.

    ``violations`` holds ``(feature_name, detail)`` pairs or objects with
    ``key``/``message`` attributes (as produced by record validation); input
    order is preserved.
    """
    if not violations:
        raise PromptError("violations must be nonempty")
    lines = []
    for v in violations:
        if isinstance(v, tuple):
            key, detail = v
            lines.append(f"- {key}: {detail}")
        else:
            received = getattr(v, "received", None)
            if received is None:
                lines.append(f"- {v.key}: {v.message}")
            else:
                lines.append(f"- {v.key} (received {received!r}): {v.message}")
    front = (
        "Your previous answer contained values that do not conform to the expected "
        "key types.\n"
        "\n"
        "Original prompt:\n"
        f"{original_prompt}\n"
        "\n"
        "Response:\n"
    )
    back = (
        "\n"
        "\n"
        "Errors:\n"
        + "\n".join(lines)
        + "\n"
        "\n"
        "Make the necessary corrections. Respond with only the corrected JSON "
        "instance and nothing else."
    )
    front, response_json = _fit_sections(front, response_json, back, max_chars)
    return front + response_json + back


# ---------------------------------------------------------------------------
# Reference extraction loop: report -> prompt -> provider -> strict parse, else
# rule repair -> validate -> correction prompt, built from the oracles above
# only, one report after another.
# ---------------------------------------------------------------------------

def vorc_by_reference(provider, prompt: str, schema: ExtractionSchema, max_corrections: int,
                      source_id: str):
    """One report's outcome: an ExtractionRecord once a reply validates, else
    a VorcFailure when a reply fails with ``max_corrections`` correction
    prompts sent, or when a provider call fails (with the iterations and
    repairs counted up to it)."""
    iterations, repairs, current = 0, [], prompt
    while True:
        try:
            raw = provider.complete(CompletionRequest(prompt=current)).text
        except ProviderError as e:
            return VorcFailure(source_id, iterations, repairs, "provider-error", str(e))
        try:
            obj = parse_response(raw)
        except ParseFailure as e:
            try:
                text, actions = repair_json(raw)
            except UnrepairableError:
                if iterations == max_corrections:
                    return VorcFailure(source_id, iterations, repairs, "budget-exhausted",
                                       f"unparseable response: {e}")
                iterations += 1
                current = build_json_correction_prompt(prompt, raw, str(e))
                continue
            repairs += actions
            obj = _strict_loads(text)
        result = validate_record(obj, schema)
        violations = result.violations
        if not violations:
            return ExtractionRecord(result.values, iterations, repairs, source_id)
        if iterations == max_corrections:
            detail = "validation failed: " + "; ".join(v.message for v in violations)
            return VorcFailure(source_id, iterations, repairs, "budget-exhausted", detail,
                               violations)
        iterations += 1
        current = build_type_correction_prompt(prompt, json.dumps(obj), violations)


def extract_by_reference(provider, reports, schema: ExtractionSchema, templates: PromptBundle,
                         max_corrections: int) -> list:
    """The outcome of each ``(id, text)`` report, in order."""
    return [vorc_by_reference(provider, render(templates, text), schema, max_corrections, rid)
            for rid, text in reports]


# ---------------------------------------------------------------------------
# Reference coercion, key matching, record validation and prompt rendering:
# the per-call code that the compiled coercers and key lookup of
# medtab.schema, the prompt frame of medtab.prompts and the column writer of
# medtab.dataset replaced, kept verbatim as oracles (methods as functions of
# their object; ``validate_record`` calls the ``match_key`` here). Four
# changes are marked: in ``_coerce_number`` an int too large for a float is
# not a number, as ``1e400`` is not, and ``_stringify`` writes an infinite
# float as ``str`` does; the originals raised OverflowError for both. A
# single comma before exactly three digits is no decimal point in
# ``_coerce_number``; the original read "1,079" as 1.079.
# ``match_key`` also accepts the key the prompt asks for; the original folded
# the name only.
# ---------------------------------------------------------------------------

@dataclass
class ValidationResult:
    """What ``validate_record`` below returns: ``schema.ValidationResult`` as
    it was when a reply's label value was read and kept."""

    values: dict
    label: str | None
    violations: list[Violation]


def match_key(self: ExtractionSchema, key: str) -> FeatureSpec | None:
    # Changed: a feature's prompt key (its snake-cased title) names it too.
    return next((f for f in self.features if fold_name(key) in (
        fold_name(f.name), fold_name(snake_name(f.title or f.name)))), None)


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
        spec = match_key(schema, key)
        if spec is not None:
            if spec.name in matched:
                violations.append(Violation(key, "unknown-extra-key",
                                            f"key {key!r} duplicates feature {spec.name!r}", raw))
            else:
                matched[spec.name] = raw
            continue
        if label_fold is not None and fold_name(key) == label_fold:
            parsed = schema.label.parse(raw)
            if parsed is not None:
                label_value = parsed
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


def render(self: PromptBundle, report: str) -> str:
    if not report:
        raise PromptError("report must be nonempty")
    body = (
        f"{self.instructions}\n"
        f"\n"
        f"{SCHEMA_HEADING}\n"
        f"```\n"
        f"{self.schema_block}\n"
        f"```\n"
        f"\n"
        f"{FORMAT_SECTION}\n"
        f"\n"
        f"{EXAMPLE_HEADING}\n"
        f"\n"
        f"Medical report:\n"
        f"{self.example.report_text}\n"
        f"\n"
        f"{self.reasoning_block()}"
        f"Output JSON:\n"
        f"{self.example.output_json_text}\n"
        f"\n"
        f"{SEPARATOR}\n"
        f"\n"
        f"{REPORT_SLOT}"
    )
    body = body.replace("{{SCHEMA_BLOCK}}", self.schema_block)
    return body.replace("{{REPORT}}", report)


def save_csv_by_cell(dataset: TabularDataset, path: str | Path) -> None:
    """Write a dataset (id column first, label last when present)."""
    path = Path(path)
    features, label = dataset.schema.features, dataset.schema.label
    header = ["id"] + [f.name for f in features]
    columns = [dataset.ids] + [list(map(format_cell, dataset.columns[f.name])) for f in features]
    if dataset.labels is not None:
        header.append(label.name)
        columns.append([label.positive_value if y else label.negative_value
                        for y in dataset.labels])
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*columns))


def _coerce_number(raw):
    """Parse a JSON scalar or numeral string into a finite float; None when
    not numeric (infinities are not valid record values)."""
    if isinstance(raw, bool):
        return None
    if isinstance(raw, (int, float)):
        try:
            value = float(raw)
        except OverflowError:  # the first change: an int too large for a float
            return None
        return value if math.isfinite(value) else None
    if isinstance(raw, str):
        s = raw.strip()
        try:
            value = float(s)
        except ValueError:
            # tolerate a comma decimal separator ("1,5" -> 1.5); the fourth
            # change: not one that may group thousands ("1,079")
            digits = s.split(",")[-1]
            if s.count(",") == 1 and "." not in s and not (
                    len(digits) == 3 and digits.isdecimal()):
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
    if isinstance(raw, float) and raw.is_integer():  # the second change
        return str(int(raw))
    return raw if isinstance(raw, str) else str(raw)


def _fmt_bound(x: float) -> str:
    return str(int(x)) if x == int(x) else str(x)


# ---------------------------------------------------------------------------
# Reference table layer: the cell-by-cell loader, column encoders and
# extraction metrics that the column-wise versions in medtab.dataset,
# medtab.encoding and medtab.evalkit replaced, kept verbatim as an oracle (the loader under a new
# name, the column methods as functions of the state).
# ---------------------------------------------------------------------------

def load_csv_by_cell(path: str | Path, schema: ExtractionSchema) -> TabularDataset:
    """Read a dataset; every cell passes through the schema coercion rules."""
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DatasetError(f"{path}: empty file, expected a header row") from None
        columns = _map_header(header, schema, path)
        rows, ids, labels = [], [], []
        has_label = any(role == "label" for role in columns)
        for lineno, cells in enumerate(reader, start=2):
            if len(cells) != len(columns):
                raise DatasetError(f"{path}:{lineno}: expected {len(columns)} cells, got {len(cells)}")
            row: dict = {}
            row_id = None
            label = None
            for role, cell in zip(columns, cells):
                if role == "id":
                    row_id = cell
                elif role == "label":
                    label = schema.label.parse(cell)
                    if label is None:
                        raise DatasetError(f"{path}:{lineno}: label {cell!r} is neither "
                                           f"{schema.label.positive_value!r} nor "
                                           f"{schema.label.negative_value!r}")
                else:
                    try:
                        row[role.name] = canonicalize_value(role, cell if cell != "" else None)
                    except CoercionError as e:
                        raise DatasetError(f"{path}:{lineno}: column {role.name!r}: {e}") from e
            rows.append(row)
            ids.append(row_id if row_id is not None else str(len(ids)))
            if has_label:
                labels.append(int(label == schema.label.positive_value))
    seen = {}  # the rule added since: a repeated id names its line and the first one's
    for lineno, row_id in enumerate(ids, start=2):
        if row_id in seen:
            raise DatasetError(f"{path}:{lineno}: id {row_id!r} repeats the id of line "
                               f"{seen[row_id]}")
        seen[row_id] = lineno
    return table_from_rows(schema, rows, ids, labels if has_label else None)


def numeric_fit(spec, cells) -> NumericState:
    observed = np.array([float(v) for v in cells if v is not MISSING], dtype=np.float64)
    impute = float(observed.mean()) if observed.size else 0.0
    imputed = np.array([float(v) if v is not MISSING else impute for v in cells])
    scale = float(imputed.std())
    return NumericState(name=spec.name, impute_mean=impute, center=float(imputed.mean()),
                        scale=scale if scale > 0 else 1.0)


def numeric_encode(self: NumericState, cells) -> np.ndarray:
    raw = np.array([self.impute_mean if v is MISSING else float(v) for v in cells],
                   dtype=np.float64)
    return ((raw - self.center) / self.scale)[:, None]


def categorical_fit(spec, cells) -> CategoricalState:
    counts = {cat: 0 for cat in spec.allowed_values}
    for v in cells:
        if v is not MISSING:
            counts[v] += 1
    mode = max(spec.allowed_values, key=lambda cat: counts[cat])  # ties: schema order
    return CategoricalState(name=spec.name, categories=spec.allowed_values, impute_category=mode)


def categorical_encode(self: CategoricalState, cells) -> np.ndarray:
    pos = {cat: j for j, cat in enumerate(self.categories)}
    block = np.zeros((len(cells), len(self.categories)), dtype=np.float64)
    for r, v in enumerate(cells):
        cat = self.impute_category if v is MISSING else v
        if cat not in pos:
            raise DatasetError(f"{self.name}: value {cat!r} is not an allowed category")
        block[r, pos[cat]] = 1.0
    return block


REAL_MATCH_RTOL = 1e-9


def cells_match(spec, a, b) -> bool:
    """Cell equality: Missing only matches Missing; reals compare with a
    relative tolerance, everything else exactly."""
    if a is MISSING or b is MISSING:
        return a is MISSING and b is MISSING
    if spec.kind == "real":
        fa, fb = float(a), float(b)
        return abs(fa - fb) <= REAL_MATCH_RTOL * max(abs(fa), abs(fb), 1.0)
    return a == b


def extraction_metrics(extracted: TabularDataset, truth: TabularDataset,
                       provenance: list[dict] | None = None) -> ExtractionReport:
    """Compare an extracted table against ground truth row by row.

    Extracted ids must all exist in the truth table (rows that failed
    extraction may be absent from the extracted table; they simply are not
    evaluated). Missing-value precision/recall treat "cell is missing" as the
    positive class. Every rate comes back as None when its denominator is
    zero, so with no compared rows both accuracies are None.
    """
    names = [spec.name for spec in extracted.schema.features]
    truth_names = [spec.name for spec in truth.schema.features]
    if names != truth_names:
        raise EvalError(f"extracted and truth tables use different schemas: features "
                        f"{names} vs {truth_names}")
    truth_by_id = {rid: row for rid, row in zip(truth.ids, table_rows(truth))}
    unknown = [rid for rid in extracted.ids if rid not in truth_by_id]
    if unknown:
        raise EvalError(f"extracted ids not present in truth table: {unknown[:5]}")

    features = truth.schema.features
    n_rows = extracted.n
    exact_rows = 0
    matched_cells = 0
    both_missing = 0
    extracted_missing = 0
    truth_missing = 0
    for rid, row in zip(extracted.ids, table_rows(extracted)):
        truth_row = truth_by_id[rid]
        row_exact = True
        for spec in features:
            a = row[spec.name]
            b = truth_row[spec.name]
            if a is MISSING:
                extracted_missing += 1
            if b is MISSING:
                truth_missing += 1
            if a is MISSING and b is MISSING:
                both_missing += 1
            if cells_match(spec, a, b):
                matched_cells += 1
            else:
                row_exact = False
        exact_rows += row_exact

    total_cells = n_rows * len(features)
    return ExtractionReport(
        record_accuracy=exact_rows / n_rows if n_rows else None,
        cell_accuracy=matched_cells / total_cells if total_cells else None,
        missing_precision=both_missing / extracted_missing if extracted_missing else None,
        missing_recall=both_missing / truth_missing if truth_missing else None,
        vorc_call_rate=call_rate([e.get("vorc_iterations", 0) for e in provenance or ()]),
        n_evaluated=n_rows,
        # Added with the fields: the truth rows, and those no extracted row names.
        n_truth=len(truth.ids),
        n_missing=len(set(truth.ids) - set(extracted.ids)),
    )


def replay_by_scan(entries: list, prompt: str) -> str:
    """The replay rule as a linear scan over the pending ``ReplayEntry`` list,
    as ``ReplayProvider.complete`` applied it before the script was indexed:
    pop and return the response of the first entry whose ``match_substring``
    is None or occurs in ``prompt``."""
    for i, entry in enumerate(entries):
        if entry.match_substring is None or entry.match_substring in prompt:
            entries.pop(i)
            return entry.response
    raise ReplayExhaustedError("no pending replay entry matches the request")
