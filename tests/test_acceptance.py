"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
and enforcing its stated tolerance and runtime budget.

Criteria 6-8 run against the committed surrogate tables under data/ (the
original public corpora are not redistributable here; see README). The
surrogates share the published schemas, row counts and class balance, and the
same thresholds are asserted unchanged.
"""

import json
import time

import numpy as np
import pytest

from helpers import (DATA, brute_force_auc, brute_force_gini_split, corrupt_cells,
                     small_schema, table_from_rows, table_rows, vorc_fixture_files)
from test_vorc import ALREADY_VALID, REPAIR_CORPUS

from medtab import dataset as ds
from medtab import encoding, evalkit, models, vorc
from medtab.llm import configure_provider
from medtab.models.logreg import GRAD_TOL, loss_and_grad
from medtab.models.search import _train
from medtab.prompts import load_templates
from medtab.schema import MISSING
from medtab.vorc import repair_json


def report_line(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} - {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


class Budget:
    def __init__(self, seconds: float):
        self.limit = seconds
        self.start = time.monotonic()

    @property
    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def check(self) -> bool:
        return self.elapsed < self.limit


def test_criterion_1_json_repair_corpus():
    budget = Budget(1.0)
    assert len(REPAIR_CORPUS) >= 20
    repaired_ok = 0
    for raw, expected, _kinds in REPAIR_CORPUS:
        repaired, actions = repair_json(raw)
        assert json.loads(repaired) == expected
        assert actions, f"no action recorded for {raw!r}"
        repaired_ok += 1
    for raw in ALREADY_VALID:
        repaired, actions = repair_json(raw)
        assert repaired == raw and actions == []
    report_line(1, repaired_ok == len(REPAIR_CORPUS) and budget.check(),
                f"{repaired_ok}/{len(REPAIR_CORPUS)} repairable cases parse strictly, "
                f"{len(ALREADY_VALID)} valid inputs byte-identical, {budget.elapsed:.2f}s")


def test_criterion_2_vorc_loop_determinism(tmp_path):
    budget = Budget(1.0)

    def run(workdir, parallelism):
        workdir.mkdir()
        corpus_path, replay_path, template_dir = vorc_fixture_files(workdir)
        schema = small_schema()
        bundle = load_templates(template_dir, schema)
        provider = configure_provider("replay", {"script": replay_path})
        reports = [(d["id"], d["text"]) for d in
                   map(json.loads, corpus_path.read_text().splitlines())]
        result = vorc.extract_corpus(provider, reports, schema, bundle,
                                     vorc.VorcBudget(3), parallelism)
        records = result.records
        table = table_from_rows(schema, [r.values for r in records],
                                [r.source_id for r in records])
        csv_path = workdir / "extracted.csv"
        ds.save_csv(table, csv_path)
        prov = "\n".join(json.dumps(e, sort_keys=True)
                         for e in vorc.provenance_entries(result))
        return result, csv_path.read_bytes(), prov.encode()

    outputs = []
    for tag, parallelism in (("p1a", 1), ("p1b", 1), ("p4", 4)):
        result, table_bytes, prov_bytes = run(tmp_path / tag, parallelism)
        outputs.append((table_bytes, prov_bytes))
        assert result.stats.vorc_call_rate == pytest.approx(0.3)
        assert result.stats.n_records == 9
        assert result.stats.n_failures == 1
    identical = all(o == outputs[0] for o in outputs[1:])
    report_line(2, identical and budget.check(),
                f"vorc_call_rate=0.3, 9 rows + 1 failure, byte-identical across "
                f"runs and parallelism 1 vs 4, {budget.elapsed:.2f}s")


def test_criterion_3_logreg_gradient_check():
    budget = Budget(10.0)
    rng = np.random.default_rng(20240813)
    h = 1e-5
    worst_rel = 0.0
    worst_norm = 0.0
    for _ in range(100):
        n = int(rng.integers(5, 51))
        d = int(rng.integers(1, 11))
        X = rng.normal(size=(n, d))
        y = rng.integers(0, 2, n).astype(np.float64)
        if y.min() == y.max():
            y[0] = 1.0 - y[0]
        C = float(rng.choice(models.LOGREG_C_GRID))
        w = rng.normal(size=d)
        b = float(rng.normal())
        _, gw, gb = loss_and_grad(w, b, X, y, C)
        analytic = np.append(gw, gb)
        fd = np.empty(d + 1)
        for j in range(d):
            e = np.zeros(d)
            e[j] = h
            up, *_ = loss_and_grad(w + e, b, X, y, C)
            down, *_ = loss_and_grad(w - e, b, X, y, C)
            fd[j] = (up - down) / (2 * h)
        up, *_ = loss_and_grad(w, b + h, X, y, C)
        down, *_ = loss_and_grad(w, b - h, X, y, C)
        fd[d] = (up - down) / (2 * h)
        rel = np.linalg.norm(fd - analytic) / max(np.linalg.norm(fd),
                                                  np.linalg.norm(analytic), 1e-12)
        worst_rel = max(worst_rel, rel)
        model = models.train_logreg(X, y, C)
        _, gw, gb = loss_and_grad(model.weights, model.bias, X, y, C)
        worst_norm = max(worst_norm, float(np.linalg.norm(np.append(gw, gb))))
    ok = worst_rel < 1e-5 and worst_norm <= GRAD_TOL and budget.check()
    report_line(3, ok, f"100 instances: max FD relative error {worst_rel:.2e} < 1e-5, "
                       f"max converged gradient norm {worst_norm:.2e} <= 1e-6, "
                       f"{budget.elapsed:.1f}s")


def test_criterion_4_cart_oracle_equivalence():
    budget = Budget(10.0)
    rng = np.random.default_rng(20240814)
    agree = 0
    total = 0
    for _ in range(200):
        n = int(rng.integers(4, 21))
        d = int(rng.integers(1, 6))
        X = rng.integers(0, 6, size=(n, d)).astype(np.float64) / 2.0
        y = rng.integers(0, 2, n).astype(np.int64)
        ours = models.best_gini_split(X, y)
        oracle = brute_force_gini_split(X, y)
        total += 1
        if oracle is None or ours is None:
            agree += oracle is None and ours is None
        else:
            agree += (ours[0], ours[1]) == (oracle[0], oracle[1])
    report_line(4, agree == total and budget.check(),
                f"{agree}/{total} random tables match the brute-force argmax "
                f"exactly, {budget.elapsed:.1f}s")


def test_criterion_5_auc_oracle_equivalence():
    budget = Budget(5.0)
    rng = np.random.default_rng(20240815)
    worst = 0.0
    checked = 0
    while checked < 200:
        n = int(rng.integers(2, 51))
        y = rng.integers(0, 2, n)
        if y.min() == y.max():
            continue
        scores = rng.integers(0, 6, n) / 5.0  # coarse grid injects ties
        diff = abs(evalkit.auc_score(y, scores) - brute_force_auc(y, scores))
        worst = max(worst, diff)
        checked += 1
    report_line(5, worst < 1e-12 and budget.check(),
                f"200 vectors with ties: max |rank AUC - pairwise AUC| = {worst:.1e} "
                f"< 1e-12, {budget.elapsed:.1f}s")


def _pipeline(table, seed):
    assignment = ds.split(table, seed)
    encoder = encoding.fit_encoder(table, assignment.train_ids)
    y = table.label_array()
    parts = {name: encoding.transform(table, encoder, ids)
             for name, ids in (("train", assignment.train_ids),
                               ("val", assignment.val_ids),
                               ("test", assignment.test_ids))}
    labels = {name: y[list(ids)] for name, ids in (("train", assignment.train_ids),
                                                   ("val", assignment.val_ids),
                                                   ("test", assignment.test_ids))}
    return assignment, encoder, parts, labels


def test_criterion_6_hepatitis_reproduction(hepatitis_schema):
    budget = Budget(60.0)
    table = ds.load_csv(DATA / "hepatitis.csv", hepatitis_schema)
    assert table.n == 589
    _, encoder, X, y = _pipeline(table, seed=7)
    results = {}
    for family in ("dtree", "logreg", "gbdt"):
        search = models.grid_search(family, X["train"], y["train"], X["val"], y["val"])
        scores = models.predict_proba(search.model, X["test"])
        results[family] = evalkit.classification_metrics(y["test"], scores)
    checks = {
        "dtree acc >= 0.93": results["dtree"].accuracy >= 0.93,
        "logreg acc >= 0.90": results["logreg"].accuracy >= 0.90,
        "gbdt acc >= 0.95": results["gbdt"].accuracy >= 0.95,
        "gbdt auc >= 0.95": results["gbdt"].auc >= 0.95,
    }
    ok = all(checks.values()) and budget.check()
    detail = (f"dtree={results['dtree'].accuracy:.3f}, "
              f"logreg={results['logreg'].accuracy:.3f}, "
              f"gbdt={results['gbdt'].accuracy:.3f}, "
              f"gbdt_auc={results['gbdt'].auc:.3f}, {budget.elapsed:.1f}s")
    report_line(6, ok, f"hepatitis 589 rows, seed 7: {detail}")


def test_criterion_7_heart_reproduction(heart_schema):
    budget = Budget(60.0)
    table = ds.load_csv(DATA / "heart.csv", heart_schema)
    assert table.n == 917
    _, encoder, X, y = _pipeline(table, seed=7)
    gbdt = models.grid_search("gbdt", X["train"], y["train"], X["val"], y["val"])
    gbdt_acc = evalkit.classification_metrics(
        y["test"], models.predict_proba(gbdt.model, X["test"])).accuracy
    dtree = models.grid_search("dtree", X["train"], y["train"], X["val"], y["val"])
    iv = models.feature_importances_named(dtree.model, encoder.column_names)
    ranked = [name for name, _ in sorted(zip(iv.names, iv.scores), key=lambda t: -t[1])]
    top2 = ranked[:2]
    ok = gbdt_acc >= 0.85 and "ST_Slope_Up" in top2 and budget.check()
    report_line(7, ok, f"heart 917 rows: gbdt acc={gbdt_acc:.3f} >= 0.85, dtree top-2 "
                       f"columns={top2} include ST_Slope_Up, {budget.elapsed:.1f}s")


def test_criterion_8_fidelity_under_corruption(hepatitis_schema):
    budget = Budget(120.0)
    table = ds.load_csv(DATA / "hepatitis.csv", hepatitis_schema)
    corrupted = corrupt_cells(table, fraction=0.02, seed=99)
    n_changed = sum(1 for gt_row, bad_row in zip(table_rows(table), table_rows(corrupted))
                    for f in hepatitis_schema.features
                    if gt_row[f.name] != bad_row[f.name])
    assert n_changed > 0.015 * table.n * hepatitis_schema.m

    assignment, enc_gt, X_gt, y = _pipeline(table, seed=7)
    _, enc_bad, X_bad, _ = _pipeline(corrupted, seed=7)
    failures = []
    for family in ("logreg", "gbdt"):
        search = models.grid_search(family, X_gt["train"], y["train"],
                                    X_gt["val"], y["val"])
        model_gt = search.model
        model_bad = _train(family, search.params, X_bad["train"], y["train"])
        iv_gt = models.feature_importances_named(model_gt, enc_gt.column_names)
        iv_bad = models.feature_importances_named(model_bad, enc_bad.column_names)
        fid = evalkit.fidelity(model_gt, model_bad, X_gt["test"], X_bad["test"],
                               y["test"], iv_gt, iv_bad)
        if not (fid.acc_d <= 0.05 and fid.auc_d <= 0.05 and fid.r2 >= 0.9):
            failures.append((family, fid))
        # exact self-comparison
        self_fid = evalkit.fidelity(model_gt, model_gt, X_gt["test"], X_gt["test"],
                                    y["test"], iv_gt, iv_gt)
        assert self_fid.acc_d == 0.0 and self_fid.auc_d == 0.0 and self_fid.r2 == 1.0
    ok = not failures and budget.check()
    report_line(8, ok, f"2% cell corruption: acc_d <= 0.05, auc_d <= 0.05, r2 >= 0.9 "
                       f"for logreg and gbdt; self-comparison exact "
                       f"(failures={failures}), {budget.elapsed:.1f}s")


def test_criterion_9_extraction_metrics_closed_form():
    from test_evalkit import TestExtractionMetrics, table

    fixture = TestExtractionMetrics()
    truth_rows = fixture.truth_rows()
    extracted_rows = [dict(r) for r in truth_rows]
    extracted_rows[3]["b"] = 9.9       # hallucinated value where truth is Missing
    extracted_rows[4]["a"] = MISSING   # spurious missing where truth has a value
    report = evalkit.extraction_metrics(table(extracted_rows), table(truth_rows))
    expected = {"record_accuracy": 0.6, "cell_accuracy": 18 / 20,
                "missing_precision": 0.5, "missing_recall": 0.5}
    got = {"record_accuracy": report.record_accuracy, "cell_accuracy": report.cell_accuracy,
           "missing_precision": report.missing_precision,
           "missing_recall": report.missing_recall}
    report_line(9, got == expected,
                f"hand-built 5-row fixture: {got} == {expected} (exact)")
