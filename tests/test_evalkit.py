import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import helpers as oracle  # holds the row-by-row extraction metrics
from helpers import (brute_force_auc, cat_feature, int_feature, loop_midrank_auc, real_feature,
                     small_schema, table_from_rows)

from medtab.evalkit import (ClassificationReport, EvalError, auc_score,
                            classification_metrics, extraction_metrics, fidelity,
                            importance_r2, render_report)
from medtab.models import ImportanceVector, train_logreg
from medtab.schema import MISSING, ExtractionSchema


def metrics_schema():
    return ExtractionSchema(
        features=(int_feature("a"), real_feature("b"), cat_feature("c", ["x", "y"]),
                  int_feature("d")),
        name="metrics",
    )


def table(rows, ids=None):
    schema = metrics_schema()
    return table_from_rows(schema, rows, ids or [f"r{i}" for i in range(len(rows))])


class TestExtractionMetrics:
    def truth_rows(self):
        return [
            {"a": 1, "b": 1.5, "c": "x", "d": 7},
            {"a": 2, "b": 2.5, "c": "y", "d": 8},
            {"a": 3, "b": 3.5, "c": "x", "d": 9},
            {"a": 4, "b": MISSING, "c": "y", "d": 10},
            {"a": 5, "b": 5.5, "c": "x", "d": MISSING},
        ]

    def test_closed_form_fixture(self):
        """Five rows, four features = 20 cells. Extracted matches rows 0-2
        exactly; row 3 hallucinates b (truth Missing, extracted 9.9); row 4
        drops a (extracted Missing) and misses d (truth Missing, matched).

        record_accuracy: rows 0,1,2 exact = 3/5 = 0.6
        cell mismatches: row3.b, row4.a -> cell_accuracy = 18/20 = 0.9
        missing cells: truth {row3.b, row4.d}; extracted {row4.a, row4.d}
        both-missing {row4.d}: precision 1/2, recall 1/2
        """
        extracted_rows = [dict(r) for r in self.truth_rows()]
        extracted_rows[3]["b"] = 9.9
        extracted_rows[4]["a"] = MISSING
        report = extraction_metrics(table(extracted_rows), table(self.truth_rows()))
        assert report.record_accuracy == 0.6
        assert report.cell_accuracy == 18 / 20
        assert report.missing_precision == 0.5
        assert report.missing_recall == 0.5
        assert report.n_evaluated == 5

    def test_self_comparison_is_perfect(self):
        t = table(self.truth_rows())
        report = extraction_metrics(t, t)
        assert report.record_accuracy == 1.0
        assert report.cell_accuracy == 1.0
        assert report.missing_precision == 1.0
        assert report.missing_recall == 1.0

    def test_no_missing_anywhere_yields_null_metrics(self):
        rows = [{"a": 1, "b": 2.0, "c": "x", "d": 3}]
        report = extraction_metrics(table(rows), table(rows))
        assert report.missing_precision is None
        assert report.missing_recall is None

    def test_hallucination_counts_against_recall(self):
        truth = [{"a": 1, "b": MISSING, "c": "x", "d": 2}]
        extracted = [{"a": 1, "b": 3.3, "c": "x", "d": 2}]
        report = extraction_metrics(table(extracted), table(truth))
        assert report.missing_recall == 0.0
        assert report.missing_precision is None  # nothing extracted as missing

    def test_record_accuracy_le_cell_accuracy(self):
        truth = self.truth_rows()
        extracted = [dict(r) for r in truth]
        extracted[0]["a"] = 99
        report = extraction_metrics(table(extracted), table(truth))
        assert report.record_accuracy <= report.cell_accuracy

    def test_real_cells_compare_with_tolerance(self):
        truth = [{"a": 1, "b": 0.1 + 0.2, "c": "x", "d": 1}]
        extracted = [{"a": 1, "b": 0.3, "c": "x", "d": 1}]
        report = extraction_metrics(table(extracted), table(truth))
        assert report.record_accuracy == 1.0

    def test_unknown_extracted_id_rejected(self):
        truth = table(self.truth_rows())
        extr = table(self.truth_rows(), ids=[f"z{i}" for i in range(5)])
        with pytest.raises(EvalError, match="ids"):
            extraction_metrics(extr, truth)

    def test_extracted_subset_is_allowed(self):
        truth = table(self.truth_rows())
        extr = table(self.truth_rows()[:3])
        report = extraction_metrics(extr, truth)
        assert report.n_evaluated == 3

    def test_vorc_call_rate_from_provenance(self):
        t = table(self.truth_rows())
        provenance = [{"id": f"r{i}", "vorc_iterations": 1 if i < 2 else 0,
                       "repairs": [], "status": "ok"} for i in range(5)]
        report = extraction_metrics(t, t, provenance)
        assert report.vorc_call_rate == pytest.approx(0.4)

    def test_vorc_call_rate_is_null_without_provenance_entries(self):
        t = table(self.truth_rows())
        assert extraction_metrics(t, t).vorc_call_rate is None
        assert extraction_metrics(t, t, []).vorc_call_rate is None

    def test_renamed_feature_is_a_schema_mismatch(self):
        schema = small_schema()
        renamed = replace(schema, features=(replace(schema.features[0], name="years"),
                                            *schema.features[1:]))
        extracted = table_from_rows(renamed, [{"years": 40, "sex": "M"}], ["r0"])
        truth = table_from_rows(schema, [{"age": 40, "sex": "M"}], ["r0"])
        with pytest.raises(EvalError, match="different schemas"):
            extraction_metrics(extracted, truth)

    def test_no_compared_rows_yields_null_accuracies(self):
        report = extraction_metrics(table([]), table(self.truth_rows()))
        assert report.n_evaluated == 0
        assert report.record_accuracy is None
        assert report.cell_accuracy is None
        sections = json.loads(render_report({"extraction": report}, "json"))["sections"]
        assert sections["extraction"]["record_accuracy"] is None
        assert "record_accuracy = -" in render_report({"extraction": report}, "text")


# Truth cells of ``metrics_schema`` and what an extraction may make of each:
# the same value, a missing cell, another value, or a real moved by a relative
# step on either side of the match tolerance.
_TRUTH_CELLS = {
    "a": st.just(MISSING) | st.integers(-5, 5),
    "b": st.just(MISSING) | st.floats(-1e6, 1e6, allow_nan=False) | st.sampled_from([0.0, -0.0]),
    "c": st.sampled_from([MISSING, "x", "y"]),
    "d": st.just(MISSING) | st.integers(0, 3),
}


@st.composite
def extraction_pairs(draw):
    """(extracted, truth) tables: the extracted ids are some of the truth's,
    in any order, and each cell is kept, blanked, redrawn or nudged."""
    truth_rows = draw(st.lists(st.fixed_dictionaries(_TRUTH_CELLS), max_size=12))
    truth = table(truth_rows)
    ids = draw(st.permutations(truth.ids))[:draw(st.integers(0, len(truth_rows)))]
    rows = []
    for rid in ids:
        row = dict(truth_rows[truth.ids.index(rid)])
        for name, cells in _TRUTH_CELLS.items():
            edit = draw(st.sampled_from(["keep", "keep", "missing", "redraw", "nudge"]))
            if edit == "missing":
                row[name] = MISSING
            elif edit == "redraw":
                row[name] = draw(cells)
            elif edit == "nudge" and name == "b" and row[name] is not MISSING:
                row[name] *= 1 + draw(st.sampled_from([1e-12, -1e-10, 1e-9, -1e-9, 2e-9, -1e-8]))
        rows.append(row)
    return table(rows, ids=list(ids)), truth


class TestExtractionMetricsByColumn:
    def test_tolerance_boundaries_equal_row_by_row(self):
        # pairs at, just inside and just outside 1e-9 of the larger magnitude
        pairs = [(0.0, 1e-9), (-1e-9, 0.0), (1e6, 1e6 * (1 - 1e-9)), (1e6 * (1 - 1e-9), 1e6),
                 (3.0, 3.0 + 3e-9), (3.0 + 3.1e-9, 3.0), (-2e3, -2e3 * (1 + 1e-9)),
                 (1e12, 999999999000.0)]  # within 1e-9 of the truth's magnitude only
        truth = table([{"a": 1, "b": t, "c": "x", "d": 1} for t, _ in pairs])
        extracted = table([{"a": 1, "b": e, "c": "x", "d": 1} for _, e in pairs])
        report = extraction_metrics(extracted, truth)
        assert repr(report) == repr(oracle.extraction_metrics(extracted, truth))
        assert 0 < report.record_accuracy < 1

    @given(extraction_pairs(), st.sampled_from([None, [], [{"vorc_iterations": 1}, {}]]))
    @settings(max_examples=300, deadline=None)
    def test_equals_row_by_row_metrics(self, pair, provenance):
        extracted, truth = pair
        assert repr(extraction_metrics(extracted, truth, provenance)) == repr(
            oracle.extraction_metrics(extracted, truth, provenance))


class TestClassificationMetrics:
    def test_perfect_ranking(self):
        report = classification_metrics([1, 1, 0, 0], [0.9, 0.8, 0.3, 0.2])
        assert report.auc == 1.0
        assert report.accuracy == 1.0

    def test_auc_075_from_pairwise_oracle(self):
        y = [1, 0, 1, 0]
        s = [0.9, 0.8, 0.3, 0.2]
        assert brute_force_auc(y, s) == 0.75
        assert classification_metrics(y, s).auc == 0.75

    def test_all_positive_predictions(self):
        y = [1, 0, 1, 0, 0]
        report = classification_metrics(y, [0.9, 0.9, 0.9, 0.9, 0.9])
        assert report.recall == 1.0
        assert report.precision == pytest.approx(2 / 5)

    def test_f1_is_harmonic_mean(self):
        report = classification_metrics([1, 1, 0, 0], [0.9, 0.2, 0.8, 0.1])
        p, r = report.precision, report.recall
        assert report.f1 == pytest.approx(2 * p * r / (p + r))

    def test_single_class_auc_is_none_with_note(self):
        report = classification_metrics([1, 1, 1], [0.5, 0.6, 0.7])
        assert report.auc is None
        assert "both classes" in report.auc_note

    def test_empty_rejected(self):
        with pytest.raises(EvalError):
            classification_metrics([], [])

    def test_auc_matches_brute_force_with_ties(self):
        rng = np.random.default_rng(99)
        for _ in range(50):
            n = int(rng.integers(2, 51))
            y = rng.integers(0, 2, n)
            if y.min() == y.max():
                continue
            scores = rng.integers(0, 5, n) / 4.0  # coarse grid forces ties
            assert abs(auc_score(y, scores) - brute_force_auc(y, scores)) < 1e-12

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scores_have_no_auc(self, bad):
        # np.unique would merge NaNs into one tie, where pairwise comparison
        # ranks each NaN apart, so such scores are refused
        y, s = [0, 1, 0, 1], [0.1, bad, 0.3, bad]
        with pytest.raises(EvalError, match="finite scores"):
            auc_score(y, s)
        report = classification_metrics(y, s)
        assert report.auc is None and "finite" in report.auc_note

    @given(st.lists(st.tuples(st.integers(0, 1),
                              st.sampled_from([-1.0, -0.0, 0.0, 0.25, 0.5, 2.0, 1e300])),
                    min_size=2, max_size=60))
    @settings(max_examples=300, deadline=None)
    def test_auc_equals_loop_midranks_on_ties(self, pairs):
        y, s = zip(*pairs)
        if len(set(y)) < 2:
            return
        assert auc_score(y, s) == loop_midrank_auc(y, s)  # bit for bit
        assert auc_score(y, s) == pytest.approx(brute_force_auc(y, s), abs=1e-12)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_auc_invariant_under_monotone_transform(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 40))
        y = rng.integers(0, 2, n)
        if y.min() == y.max():
            return
        s = rng.integers(0, 6, n) / 5.0
        transformed = np.exp(3.0 * s) + 1.0
        assert auc_score(y, s) == pytest.approx(auc_score(y, transformed), abs=1e-12)

    @given(st.lists(st.tuples(st.integers(0, 1), st.sampled_from([-1.0, 0.0, 0.25, 0.5, 2.0])),
                    min_size=2, max_size=60))
    @settings(max_examples=300, deadline=None)
    def test_auc_of_flipped_labels_is_one_minus_auc(self, pairs):
        y, s = map(np.array, zip(*pairs))
        if y.min() == y.max():
            return
        # Exact in the rank sums; ``1 - x`` adds one rounding (1 - 1/3 is
        # 0.6666666666666667, 2/3 is 0.6666666666666666), so the bound is one
        # unit in the last place of 1.0.
        assert abs(auc_score(y, s) - (1.0 - auc_score(1 - y, s))) <= 2.0 ** -52


class TestFidelity:
    def setup_models(self):
        rng = np.random.default_rng(21)
        X = rng.normal(size=(60, 4))
        y = (X[:, 0] + 0.2 * rng.normal(size=60) > 0).astype(np.int64)
        model = train_logreg(X[:40], y[:40].astype(float), C=1.0)
        return model, X[40:], y[40:]

    def test_self_comparison(self):
        model, X_test, y_test = self.setup_models()
        from medtab.models import feature_importances_named
        iv = feature_importances_named(model, ("a", "b", "c", "d"))
        report = fidelity(model, model, X_test, X_test, y_test, iv, iv)
        assert report.acc_d == 0.0
        assert report.auc_d == 0.0
        assert report.r2 == 1.0

    def test_single_class_test_set_gives_null_auc_d(self):
        model, X_test, _ = self.setup_models()
        from medtab.models import feature_importances_named
        iv = feature_importances_named(model, ("a", "b", "c", "d"))
        y_one_class = np.ones(len(X_test), dtype=np.int64)
        report = fidelity(model, model, X_test, X_test, y_one_class, iv, iv)
        assert report.auc_d is None
        assert report.acc_d == 0.0
        assert json.loads(render_report({"fidelity": report}, "json"))[
            "sections"]["fidelity"]["auc_d"] is None

    def test_constant_reference_importances_give_null_r2(self):
        ones = ImportanceVector(names=("a", "b"), scores=np.array([0.5, 0.5]))
        other = ImportanceVector(names=("a", "b"), scores=np.array([0.2, 0.8]))
        assert importance_r2(ones, other) is None

    def test_r2_self_is_one(self):
        v = ImportanceVector(names=("a", "b", "c"), scores=np.array([0.5, -1.0, 2.0]))
        assert importance_r2(v, v) == 1.0

    def test_misaligned_importances_rejected(self):
        a = ImportanceVector(names=("a", "b"), scores=np.zeros(2))
        b = ImportanceVector(names=("b", "a"), scores=np.zeros(2))
        with pytest.raises(EvalError):
            importance_r2(a, b)

    def test_different_families_rejected(self):
        model, X_test, y_test = self.setup_models()
        from medtab.models import feature_importances_named, train_dtree
        tree = train_dtree(X_test, y_test, 3, 2)
        names = ("a", "b", "c", "d")
        with pytest.raises(EvalError, match="same family"):
            fidelity(model, tree, X_test, X_test, y_test,
                     feature_importances_named(model, names),
                     feature_importances_named(tree, names))


class TestRenderReport:
    def test_deterministic(self):
        report = ClassificationReport(accuracy=0.9, precision=0.8, recall=0.7,
                                      f1=0.746, auc=0.95)
        sections = {"classification": report}
        assert render_report(sections, "json") == render_report(sections, "json")

    def test_text_has_all_extraction_fields(self):
        from medtab.evalkit import ExtractionReport
        report = ExtractionReport(record_accuracy=0.98, cell_accuracy=0.99,
                                  missing_precision=0.97, missing_recall=0.99,
                                  vorc_call_rate=0.12, n_evaluated=100)
        text = render_report({"extraction": report}, "text")
        for field in ("record_accuracy", "cell_accuracy", "missing_precision",
                      "missing_recall", "vorc_call_rate", "n_evaluated"):
            assert field in text

    def test_unknown_format_rejected(self):
        for format in ("xml", "csv"):
            with pytest.raises(EvalError, match=f"unknown report format '{format}'"):
                render_report({}, format)
