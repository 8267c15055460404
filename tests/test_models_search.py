import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import TRAINERS, json_path, json_places, json_replaced

from medtab import inputs
from medtab.encoding import EncoderState, fit_encoder, transform
from medtab.models import (MODEL_TYPES, ModelArtifact, PersistError, grid_search, load_model,
                           predict_proba, save_model, train_gbdt, train_logreg)
from medtab.models.gbdt import GbdtModel
from medtab.models.tree import DTREE_DEPTH_GRID, DTREE_MIN_SPLIT_GRID, TreeModel, train_dtree, \
    tree_predict


def separable_data(rng, n=60, d=3):
    X = rng.normal(size=(n, d))
    y = (X[:, 0] > 0).astype(np.int64)
    return X, y


class TestGridSearch:
    def test_logreg_grid_has_six_candidates(self):
        rng = np.random.default_rng(0)
        X, y = separable_data(rng)
        result = grid_search("logreg", X[:40], y[:40], X[40:], y[40:])
        assert len(result.report) == 6
        assert [p.params["C"] for p in result.report] == [0.001, 0.01, 0.1, 1.0, 10.0, 100.0]

    def test_dtree_grid_has_eighteen_candidates(self):
        rng = np.random.default_rng(1)
        X, y = separable_data(rng)
        result = grid_search("dtree", X[:40], y[:40], X[40:], y[40:])
        assert len(result.report) == 18

    def test_gbdt_grid_has_nine_candidates(self):
        rng = np.random.default_rng(2)
        X, y = separable_data(rng, n=40)
        result = grid_search("gbdt", X[:30], y[:30], X[30:], y[30:])
        assert len(result.report) == 9

    def test_all_ties_return_most_regularized(self):
        # constant features: every candidate scores the same validation accuracy
        X = np.ones((40, 2))
        y = np.array([0, 1] * 20)
        result = grid_search("dtree", X[:30], y[:30], X[30:], y[30:])
        assert result.params == {"max_depth": 3, "min_samples_split": 10}
        result = grid_search("gbdt", X[:30], y[:30], X[30:], y[30:])
        assert result.params == {"n_estimators": 50, "learning_rate": 0.01}
        result = grid_search("logreg", X[:30], y[:30], X[30:], y[30:])
        assert result.params == {"C": 0.001}

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="family"):
            grid_search("mlp", np.zeros((4, 1)), np.zeros(4), np.zeros((2, 1)), np.zeros(2))

    def test_best_has_max_val_accuracy(self):
        rng = np.random.default_rng(3)
        X, y = separable_data(rng, n=80)
        result = grid_search("dtree", X[:60], y[:60], X[60:], y[60:])
        assert result.val_accuracy == max(p.val_accuracy for p in result.report)


def reference_grid_search(family, X_train, y_train, X_val, y_val):
    """Every candidate fitted on its own by its family's trainer, in report
    order; only a strictly better validation accuracy displaces the
    incumbent."""
    best, report = None, []
    for params in MODEL_TYPES[family].GRID:
        model = TRAINERS[family](X_train, y_train, **params)
        acc = float(np.mean((predict_proba(model, X_val) >= 0.5) == y_val))
        report.append((params, acc))
        if best is None or acc > best[0]:
            best = (acc, params, model)
    return best, report


class TestGridMatchesSeparateFits:
    @pytest.mark.parametrize("family", ["logreg", "dtree", "gbdt"])
    @pytest.mark.parametrize("seed", [4, 5])
    def test_same_report_choice_and_model(self, family, seed):
        rng = np.random.default_rng(seed)
        X = np.round(rng.normal(size=(50, 3)), 1)
        # noisy labels and a small validation part, so accuracies tie often
        y = ((X[:, 0] + rng.normal(size=50)) > 0).astype(np.int64)
        result = grid_search(family, X[:38], y[:38], X[38:], y[38:])
        (acc, params, model), report = reference_grid_search(family, X[:38], y[:38],
                                                             X[38:], y[38:])
        assert [(p.params, p.val_accuracy) for p in result.report] == report
        assert (result.params, result.val_accuracy) == (params, acc)
        assert (json.dumps(result.model.to_doc(), sort_keys=True)
                == json.dumps(model.to_doc(), sort_keys=True))

    @pytest.mark.parametrize("family", ["logreg", "dtree", "gbdt"])
    def test_fit_grid_yields_every_grid_point_once(self, family):
        rng = np.random.default_rng(9)
        X, y = separable_data(rng, n=40)
        model_type = MODEL_TYPES[family]
        yielded = [params for params, _, _ in model_type.fit_grid(X[:30], y[:30], X[30:])]
        assert sorted(map(model_type.GRID.index, yielded)) == list(range(len(model_type.GRID)))


class TestEmptyPart:
    def test_empty_val_part_rejected_for_each_family(self, hepatitis_schema):
        from helpers import eleven_hepatitis_rows
        from medtab.encoding import prepare
        from medtab.models import FAMILIES

        assignment, _, X, y = prepare(eleven_hepatitis_rows(hepatitis_schema), 3)
        assert [len(ids) for ids in assignment.parts().values()] == [7, 0, 4]
        for family in FAMILIES:
            with pytest.raises(ValueError, match="the val part is empty"):
                grid_search(family, X["train"], y["train"], X["val"], y["val"])

    def test_empty_train_part_rejected(self):
        X, y = separable_data(np.random.default_rng(2))
        with pytest.raises(ValueError, match="the train part is empty"):
            grid_search("dtree", X[:0], y[:0], X, y)


class TestHepatitisImportances:
    def test_dtree_ast_importance_dominant(self, hepatitis_schema):
        from helpers import DATA
        from medtab.dataset import load_csv, split

        table = load_csv(DATA / "hepatitis.csv", hepatitis_schema)
        assignment = split(table, 7)
        enc = fit_encoder(table, assignment.train_ids)
        y = table.label_array()
        result = grid_search(
            "dtree",
            transform(table, enc, assignment.train_ids),
            y[list(assignment.train_ids)],
            transform(table, enc, assignment.val_ids),
            y[list(assignment.val_ids)])
        by_name = dict(zip(enc.column_names, result.model.importances()))
        assert max(by_name, key=by_name.get) == "AST"
        # reference ground-truth value is ~0.607; allow 0.15 for split differences
        assert abs(by_name["AST"] - 0.607) <= 0.15


def toy_models():
    """The encoder fitted on a toy table, and a small model of each family
    trained on the table it encodes."""
    from test_dataset import toy_dataset

    table = toy_dataset(n=40)
    enc = fit_encoder(table, range(40))
    X, y = transform(table, enc), table.label_array()
    return enc, {"logreg": train_logreg(X, y, C=1.0), "dtree": train_dtree(X, y, 3, 2),
                 "gbdt": train_gbdt(X, y, n_estimators=2, learning_rate=0.3)}


@pytest.mark.parametrize("family", ["logreg", "dtree", "gbdt"])
def test_one_importance_per_column(family):
    enc, models = toy_models()
    assert models[family].importances().shape == (len(enc.column_names),)


# A left edge of 600 splits: json decodes it, and it nests deeper than the
# model file's checks can recurse.
DEEP_TREE = ('{"n": 2, "column": 0, "threshold": 0.5, "right": {"n": 1, "value": 0.5}, "left": '
             * 600 + '{"n": 1, "value": 0.5}' + "}" * 600)


class TestPersistence:
    @pytest.mark.parametrize("family", ["logreg", "dtree", "gbdt", "encoder"])
    def test_doc_check_names_every_key_that_its_class_writes(self, family):
        """A class's check passes the document its class writes, and fails,
        naming the value's path, once any one value in it is replaced by one
        that no check accepts: so a key written without a check entry fails."""
        enc, models = toy_models()
        spec, doc = ((EncoderState.DOC_CHECK, enc.to_dict()) if family == "encoder"
                     else (MODEL_TYPES[family].doc_check(len(enc.column_names)),
                           models[family].to_doc()))
        doc = json.loads(json.dumps(doc))  # as a model file holds it: numpy floats as floats
        assert inputs.check(doc, spec, ValueError, "doc") is doc
        for path in list(json_places(doc))[1:]:
            with pytest.raises(ValueError, match=re.escape(f"doc: {json_path(path)} must be ")):
                inputs.check(json_replaced(doc, path, object()), spec, ValueError, "doc")

    @pytest.mark.parametrize("family, tree", [("dtree", ("root",)), ("gbdt", ("trees", 1))],
                             ids=["dtree", "gbdt"])
    @pytest.mark.parametrize("column", [1000, 10 ** 400], ids=["1000", "10**400"])
    def test_split_column_outside_the_model_rejected_on_load(self, tmp_path, family, tree,
                                                               column):
        enc, models = toy_models()
        save_model(ModelArtifact(family, models[family], enc), tmp_path / "m.json")
        doc = json.loads((tmp_path / "m.json").read_text())
        path, node = ("model",) + tree, doc
        for key in path:
            node = node[key]
        while "column" in node["left"]:  # the deepest split on the left edge
            path, node = path + ("left",), node["left"]
        assert load_model(tmp_path / "m.json").family == family
        node["column"] = column
        (tmp_path / "m.json").write_text(json.dumps(doc))
        width = doc["model"]["n_columns"]
        with pytest.raises(PersistError, match=re.escape(
                f"m.json: {json_path(path + ('column',))} must be less than n_columns "
                f"({width}), got {repr(column)[:20]}")):
            load_model(tmp_path / "m.json")

    @pytest.mark.parametrize("family, edit, field, what", [
        ("logreg", lambda doc: doc["weights"].pop(), "weights", "a list of finite numbers, "
         "one per encoder column"),
        ("dtree", lambda doc: doc.update(n_columns=1000), "n_columns",
         "the encoder's column count"),
        ("gbdt", lambda doc: doc.update(n_columns=1000), "n_columns",
         "the encoder's column count"),
        ("dtree", lambda doc: doc["gains"].pop(), "gains", "a list of finite numbers, "
         "one per encoder column"),
        ("gbdt", lambda doc: doc["gains"].append(0.0), "gains", "a list of finite numbers, "
         "one per encoder column"),
    ], ids=["logreg-weights", "dtree-n_columns", "gbdt-n_columns", "dtree-gains",
            "gbdt-gains"])
    def test_model_width_other_than_the_encoders_rejected_on_load(self, tmp_path, family,
                                                                  edit, field, what):
        enc, models = toy_models()
        save_model(ModelArtifact(family, models[family], enc), tmp_path / "m.json")
        doc = json.loads((tmp_path / "m.json").read_text())
        edit(doc["model"])
        (tmp_path / "m.json").write_text(json.dumps(doc))
        with pytest.raises(PersistError, match=re.escape(
                f"m.json: $.model.{field} must be {what} ({len(enc.column_names)}), got ")):
            load_model(tmp_path / "m.json")

    @pytest.mark.parametrize("family, place, value, message", [
        ("logreg", ("seed",), "7" * 5000, "Exceeds the limit"),
        ("dtree", ("seed",), "[" * 100_000 + "]" * 100_000, "maximum recursion depth"),
        ("dtree", ("model", "root"), DEEP_TREE, "$.model nests too deep to check"),
        ("gbdt", ("model", "trees", 0), DEEP_TREE, "$.model nests too deep to check"),
    ], ids=["5000-digit-integer", "nested-too-deep", "dtree-too-deep", "gbdt-too-deep"])
    def test_model_file_that_cannot_decode_or_check_rejected_on_load(self, tmp_path, family,
                                                                       place, value, message):
        """json raises a plain ValueError for an integer of over 4,300 digits
        and RecursionError past its nesting limit; a tree that decodes but
        nests deeper than the checks recurse is rejected too."""
        enc, models = toy_models()
        path = tmp_path / "m.json"
        save_model(ModelArtifact(family, models[family], enc), path)
        doc = json_replaced(json.loads(path.read_text()), place, "PLACE")
        path.write_text(json.dumps(doc).replace('"PLACE"', value))
        with pytest.raises(PersistError, match=f"^{re.escape(f'{path}: ')}.*{re.escape(message)}"):
            load_model(path)

    @pytest.mark.parametrize("family", ["logreg", "dtree", "gbdt"])
    def test_round_trip_predictions(self, family, tmp_path):
        from test_dataset import toy_dataset

        table = toy_dataset(n=40)
        enc = fit_encoder(table, range(30))
        X_train = transform(table, enc, range(30))
        X_val = transform(table, enc, range(30, 40))
        y = table.label_array()
        result = grid_search(family, X_train, y[:30], X_val, y[30:])
        artifact = ModelArtifact(family=family, model=result.model, encoder=enc,
                                 label=table.schema.label, params=result.params, seed=11)
        path = tmp_path / "model.json"
        save_model(artifact, path)
        loaded = load_model(path)
        assert loaded.family == family
        assert loaded.params == result.params
        assert loaded.encoder.column_names == enc.column_names
        assert loaded.label == table.schema.label
        original = predict_proba(result.model, X_val)
        restored = predict_proba(loaded.model, X_val)
        assert np.array_equal(original, restored)
        via_dataset = loaded.predict_proba_dataset(table, range(30, 40))
        assert np.array_equal(original, via_dataset)

    def test_unknown_family_rejected_on_load(self, tmp_path):
        from medtab.models import PersistError
        from test_dataset import toy_dataset

        table = toy_dataset(n=30)
        enc = fit_encoder(table, range(20))
        X = transform(table, enc, range(20))
        y = table.label_array()
        result = grid_search("logreg", X, y[:20], X, y[:20])
        save_model(ModelArtifact("logreg", result.model, enc), tmp_path / "m.json")
        doc = json.loads((tmp_path / "m.json").read_text())
        doc["family"] = "mlp"
        (tmp_path / "m.json").write_text(json.dumps(doc))
        with pytest.raises(PersistError, match=r"m\.json: \$\.family must be one of "
                           r"'logreg', 'dtree', 'gbdt', got 'mlp'$"):
            load_model(tmp_path / "m.json")

    def test_columns_disagreeing_with_encoder_rejected_on_load(self, tmp_path):
        from medtab.models import PersistError
        from test_dataset import toy_dataset

        table = toy_dataset(n=30)
        enc = fit_encoder(table, range(20))
        X = transform(table, enc, range(20))
        y = table.label_array()
        result = grid_search("logreg", X, y[:20], X, y[:20])
        save_model(ModelArtifact("logreg", result.model, enc), tmp_path / "m.json")
        doc = json.loads((tmp_path / "m.json").read_text())
        assert tuple(doc["columns"]) == enc.column_names
        assert load_model(tmp_path / "m.json").encoder.column_names == enc.column_names
        doc["columns"][2:4] = doc["columns"][3:1:-1]  # two one-hot columns swapped
        (tmp_path / "m.json").write_text(json.dumps(doc))
        with pytest.raises(PersistError,
                           match=r"m\.json: \$\.columns must be the encoder's column names, "
                                 r"got \['"):
            load_model(tmp_path / "m.json")

    @pytest.mark.parametrize("family", ["logreg", "dtree", "gbdt"])
    def test_columns_that_lost_an_entry_rejected_on_load(self, tmp_path, family):
        """The model's width is the encoder's, so a short column list is a
        column-name fault, not a model-width one."""
        enc, models = toy_models()
        save_model(ModelArtifact(family, models[family], enc), tmp_path / "m.json")
        doc = json.loads((tmp_path / "m.json").read_text())
        doc["columns"].pop()
        (tmp_path / "m.json").write_text(json.dumps(doc))
        with pytest.raises(PersistError) as raised:
            load_model(tmp_path / "m.json")
        assert str(raised.value) == inputs.message(
            str(tmp_path / "m.json"), "$.columns", "the encoder's column names", doc["columns"])

    def test_importances_survive_round_trip(self, tmp_path):
        from test_dataset import toy_dataset

        table = toy_dataset(n=40)
        enc = fit_encoder(table, range(30))
        X_train = transform(table, enc, range(30))
        y = table.label_array()
        result = grid_search("dtree", X_train, y[:30], X_train, y[:30])
        artifact = ModelArtifact("dtree", result.model, enc)
        save_model(artifact, tmp_path / "m.json")
        loaded = load_model(tmp_path / "m.json")
        assert loaded.encoder.column_names == enc.column_names
        assert np.allclose(result.model.importances(), loaded.model.importances())

    @pytest.mark.parametrize("family", ["logreg", "dtree", "gbdt"])
    def test_identical_bytes_on_rewrite(self, family, tmp_path):
        from test_dataset import toy_dataset

        table = toy_dataset(n=30)
        enc = fit_encoder(table, range(20))
        X = transform(table, enc, range(20))
        y = table.label_array()
        result = grid_search(family, X, y[:20], X, y[:20])
        artifact = ModelArtifact(family, result.model, enc,
                                 label=table.schema.label, params=result.params, seed=3)
        save_model(artifact, tmp_path / "a.json")
        save_model(artifact, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        save_model(load_model(tmp_path / "a.json"), tmp_path / "c.json")
        assert (tmp_path / "c.json").read_bytes() == (tmp_path / "a.json").read_bytes()


class TestGbdtValidationScores:
    def test_carried_scores_equal_predictions_with_600_tree_calls(self, monkeypatch):
        from medtab.models import gbdt

        rng = np.random.default_rng(6)
        X, y = separable_data(rng, n=40)
        calls = []

        def counted(root, X):
            calls.append(len(X))
            return tree_predict(root, X)

        monkeypatch.setattr(gbdt, "tree_predict", counted)
        points = list(GbdtModel.fit_grid(X[:30], y[:30], X[30:]))
        monkeypatch.undo()  # predict_proba below calls gbdt.tree_predict too
        # 200 trees per learning rate, each predicting the validation rows once
        assert calls == [10] * 600
        assert len(points) == 9
        for params, model, scores in points:
            assert scores.tobytes() == model.predict_proba(X[30:]).tobytes(), params

    def test_val_columns_must_match_train(self):
        X = np.zeros((6, 3))
        with pytest.raises(ValueError, match="expected 3 val columns, got 2"):
            grid_search("gbdt", X, np.array([0, 1] * 3), X[:2, :2], np.array([0, 1]))


@st.composite
def dtree_tables(draw):
    """(X_train, y_train, X_val) on a coarse value grid, so values tie often
    and validation rows fall on thresholds' sides in every way."""
    n, m, d = draw(st.integers(2, 40)), draw(st.integers(1, 12)), draw(st.integers(1, 4))

    def column(values, size):
        return np.array(draw(st.lists(values, min_size=size, max_size=size)), dtype=np.float64)

    X = column(st.integers(0, 6), n * d).reshape(n, d) / 2.0
    y = column(st.integers(0, 1), n).astype(np.int64)
    X_val = column(st.integers(-1, 13), m * d).reshape(m, d) / 4.0
    return X, y, X_val


class TestDtreeGridScores:
    """The dtree grid scores every point from one routing of the validation
    rows; each point must score as the pruned tree it stands for."""

    @given(dtree_tables())
    @settings(max_examples=150, deadline=None)
    def test_one_pass_probabilities_equal_each_pruned_tree(self, table):
        X, y, X_val = table
        full = train_dtree(X, y, max(DTREE_DEPTH_GRID), min(DTREE_MIN_SPLIT_GRID))
        points = 0
        for params, model, scores in TreeModel.fit_grid(X, y, X_val):
            want = full.pruned(**params).predict_proba(X_val)
            assert scores.dtype == want.dtype and scores.tobytes() == want.tobytes(), params
            assert model().to_doc() == full.pruned(**params).to_doc(), params
            points += 1
        assert points == 18

    def test_grid_prunes_only_the_winner(self, monkeypatch):
        rng = np.random.default_rng(8)
        X, y = separable_data(rng, n=50)
        calls = []
        pruned = TreeModel.pruned

        def counted(self, max_depth, min_samples_split):
            calls.append((max_depth, min_samples_split))
            return pruned(self, max_depth, min_samples_split)

        monkeypatch.setattr(TreeModel, "pruned", counted)
        result = grid_search("dtree", X[:40], y[:40], X[40:], y[40:])
        assert calls == [(result.params["max_depth"], result.params["min_samples_split"])]
        assert result.model.max_depth == result.params["max_depth"]
