"""Evaluation: extraction quality against ground truth, binary classification
metrics, and fidelity between models trained on ground-truth versus extracted
tables. Report rendering is deterministic (text or JSON).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .dataset import TabularDataset
from .encoding import float_column, object_column
from .models import THRESHOLD

REAL_MATCH_RTOL = 1e-9


class EvalError(ValueError):
    pass


@dataclass
class ExtractionReport:
    record_accuracy: float | None
    cell_accuracy: float | None
    missing_precision: float | None
    missing_recall: float | None
    vorc_call_rate: float | None
    n_evaluated: int
    n_truth: int
    n_missing: int  # truth rows with no extracted row, which no rate above counts


@dataclass
class ClassificationReport:
    accuracy: float
    precision: float
    recall: float
    f1: float
    auc: float | None
    auc_note: str | None = None


@dataclass
class FidelityReport:
    acc_d: float
    auc_d: float | None
    r2: float | None


def extraction_metrics(extracted: TabularDataset, truth: TabularDataset,
                       provenance: list[dict] | None = None) -> ExtractionReport:
    """Compare an extracted table against ground truth, one feature column at
    a time.

    Extracted ids must all exist in the truth table. Rows that failed
    extraction may be absent from the extracted table: they are not
    evaluated, and ``n_missing`` counts them. Missing only matches missing;
    reals match within a relative tolerance, everything else exactly.
    Missing-value precision/recall treat "cell is missing" as the positive
    class. Every rate comes back as None when its denominator is zero, so with
    no compared rows both accuracies are None.
    """
    names = [spec.name for spec in extracted.schema.features]
    truth_names = [spec.name for spec in truth.schema.features]
    if names != truth_names:
        raise EvalError(f"extracted and truth tables use different schemas: features "
                        f"{names} vs {truth_names}")
    position = {rid: k for k, rid in enumerate(truth.ids)}
    unknown = [rid for rid in extracted.ids if rid not in position]
    if unknown:
        raise EvalError(f"extracted ids not present in truth table: {unknown[:5]}")

    features = truth.schema.features
    truth_idx = [position[rid] for rid in extracted.ids]
    n_rows = extracted.n
    row_exact = np.ones(n_rows, dtype=bool)
    matched_cells = both_missing = extracted_missing = truth_missing = 0
    for spec in features:
        column = float_column if spec.kind == "real" else object_column
        truth_cells = truth.columns[spec.name]
        a, a_missing = column(extracted.columns[spec.name])
        b, b_missing = column([truth_cells[k] for k in truth_idx])
        if spec.kind == "real":
            equal = np.abs(a - b) <= REAL_MATCH_RTOL * np.maximum(
                np.maximum(np.abs(a), np.abs(b)), 1.0)
        else:
            equal = a == b
        match = np.where(a_missing | b_missing, a_missing & b_missing, equal)
        extracted_missing += int(a_missing.sum())
        truth_missing += int(b_missing.sum())
        both_missing += int((a_missing & b_missing).sum())
        matched_cells += int(match.sum())
        row_exact &= match
    exact_rows = int(row_exact.sum())

    total_cells = n_rows * len(features)
    rate = None  # ``call_rate`` of no reports, without loading the extraction code
    if provenance:
        from .vorc import call_rate

        rate = call_rate([e.get("vorc_iterations", 0) for e in provenance])
    return ExtractionReport(
        record_accuracy=exact_rows / n_rows if n_rows else None,
        cell_accuracy=matched_cells / total_cells if total_cells else None,
        missing_precision=both_missing / extracted_missing if extracted_missing else None,
        missing_recall=both_missing / truth_missing if truth_missing else None,
        vorc_call_rate=rate,
        n_evaluated=n_rows,
        n_truth=truth.n,
        n_missing=truth.n - n_rows,
    )


def auc_score(y_true, scores) -> float:
    """Rank-based AUC with ties credited 0.5, equal to brute-force pairwise
    comparison: midranks make the two formulations identical. Scores must be
    finite (NaN has no rank)."""
    y = np.asarray(y_true, dtype=np.int64)
    s = np.asarray(scores, dtype=np.float64)
    n_pos = int(y.sum())
    n_neg = len(y) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise EvalError("AUC needs both classes present")
    if not np.isfinite(s).all():
        raise EvalError("AUC needs finite scores")
    # a value's midrank is its last 1-based sorted position minus half its ties
    _, inverse, counts = np.unique(s, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]
    rank_sum_pos = float(ranks[y == 1].sum())
    return (rank_sum_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def classification_metrics(y_true, scores) -> ClassificationReport:
    """Accuracy, positive-class precision/recall/F1 at ``models.THRESHOLD``
    (the cut grid search ranks by), and AUC.

    AUC is None (with a note) when only one class is present. Precision with
    no predicted positives, and F1 with precision+recall both zero, are 0.
    """
    y = np.asarray(y_true, dtype=np.int64)
    s = np.asarray(scores, dtype=np.float64)
    if len(y) != len(s) or len(y) == 0:
        raise EvalError("y_true and scores must be nonempty and equally long")
    pred = (s >= THRESHOLD).astype(np.int64)
    tp = int(np.sum((pred == 1) & (y == 1)))
    fp = int(np.sum((pred == 1) & (y == 0)))
    fn = int(np.sum((pred == 0) & (y == 1)))
    accuracy = float(np.mean(pred == y))
    precision = tp / (tp + fp) if (tp + fp) else 0.0
    recall = tp / (tp + fn) if (tp + fn) else 0.0
    f1 = 2 * precision * recall / (precision + recall) if (precision + recall) else 0.0
    try:
        auc = auc_score(y, s)
        note = None
    except EvalError as e:
        auc, note = None, str(e)
    return ClassificationReport(accuracy=accuracy, precision=precision, recall=recall,
                                f1=f1, auc=auc, auc_note=note)


def importance_r2(reference, other) -> float | None:
    """Coefficient of determination of the ``other`` importances against the
    ``reference`` ones (the ground-truth model's), one score per encoded
    column in both; None when the reference has zero variance."""
    ref = np.asarray(reference, dtype=np.float64)
    oth = np.asarray(other, dtype=np.float64)
    if len(ref) != len(oth):
        raise EvalError(f"importance vectors differ in length: {len(ref)} vs {len(oth)}")
    ss_tot = float(np.sum((ref - ref.mean()) ** 2))
    if ss_tot == 0.0:
        return None
    ss_res = float(np.sum((ref - oth) ** 2))
    return 1.0 - ss_res / ss_tot


def fidelity(model_gt, model_ext, X_test_gt, X_test_ext, y_test) -> FidelityReport:
    """Compare a ground-truth-trained and an extraction-trained model of the
    same family: each predicts on its own pipeline's test matrix over the same
    rows, and the models' importances are compared by R^2 against the
    ground-truth model's. ``auc_d`` is None when either AUC is undefined (a
    single-class test set)."""
    if type(model_gt) is not type(model_ext):
        raise EvalError("fidelity compares two models of the same family")
    y = np.asarray(y_test, dtype=np.int64)
    scores_gt = model_gt.predict_proba(X_test_gt)
    scores_ext = model_ext.predict_proba(X_test_ext)
    m_gt = classification_metrics(y, scores_gt)
    m_ext = classification_metrics(y, scores_ext)
    auc_d = None if m_gt.auc is None or m_ext.auc is None else abs(m_gt.auc - m_ext.auc)
    return FidelityReport(
        acc_d=abs(m_gt.accuracy - m_ext.accuracy),
        auc_d=auc_d,
        r2=importance_r2(model_gt.importances(), model_ext.importances()),
    )


def render_report(reports: dict, format: str = "text") -> str:
    """Render named reports deterministically as ``text`` or ``json``.

    ``reports`` maps a section name to a report dataclass (or a plain dict).
    JSON output is versioned; text gives a ``[section]`` heading per section
    and one ``metric = value`` line per metric, sections and fields in input
    order.
    """
    items = [(name, asdict(r) if not isinstance(r, dict) else dict(r))
             for name, r in reports.items()]
    if format == "json":
        return json.dumps({"report_version": 1, "sections": dict(items)},
                          indent=2, sort_keys=False) + "\n"
    if format == "text":
        lines = []
        for name, fields in items:
            lines.append(f"[{name}]")
            for key, value in fields.items():
                lines.append(f"  {key} = {_fmt(value)}")
        return "\n".join(lines) + "\n"
    raise EvalError(f"unknown report format {format!r}")


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)
