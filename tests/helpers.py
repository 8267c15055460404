"""Shared test utilities: independent oracles, small schema builders, and the
replay-scripted extraction fixture."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from medtab.dataset import TabularDataset
from medtab.prompts import DEFAULT_INSTRUCTIONS, FORMAT_SECTION, OneShotExample, PromptBundle
from medtab.schema import ExtractionSchema, FeatureSpec, LabelSpec, emit_json_schema_block

ROOT = Path(__file__).resolve().parent.parent
SCHEMAS = ROOT / "schemas"
DATA = ROOT / "data"
TEMPLATES = ROOT / "templates"


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
        name="small",
    )


def bundle_for(schema: ExtractionSchema, example_values: dict) -> PromptBundle:
    return PromptBundle(
        instructions=DEFAULT_INSTRUCTIONS,
        schema_block=emit_json_schema_block(schema),
        format_section=FORMAT_SECTION,
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


def corrupt_cells(table: TabularDataset, fraction: float, seed: int) -> TabularDataset:
    """Return a copy with ``fraction`` of feature cells replaced: numerics take
    another row's value from the same column, categoricals a different allowed
    value. Cells are chosen uniformly at random."""
    rng = np.random.default_rng(seed)
    rows = [dict(r) for r in table.rows]
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
    return TabularDataset(schema=table.schema, rows=rows, ids=list(table.ids),
                          labels=list(table.labels) if table.labels is not None else None)


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
