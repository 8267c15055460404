import csv
import io
import json
import re
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import helpers as oracle  # holds the cell-by-cell loader and column encoders
from helpers import DATA, cat_feature, int_feature, real_feature, table_from_rows, table_rows

from medtab.dataset import (PARTS, DatasetError, TabularDataset, load_csv, load_split, save_csv,
                            save_split, split)
from medtab.encoding import CategoricalState, EncoderState, NumericState, fit_encoder, prepare, transform
from medtab.schema import MISSING, ExtractionSchema, FeatureSpec, LabelSpec


def toy_schema():
    return ExtractionSchema(
        features=(int_feature("age"), real_feature("score"),
                  cat_feature("color", ["red", "green", "blue"])),
        label=LabelSpec("target", "pos", "neg"),
        name="toy",
    )


def toy_dataset(n=20, missing_every=None, seed=3):
    rng = np.random.default_rng(seed)
    schema = toy_schema()
    rows, labels = [], []
    for i in range(n):
        age = int(rng.integers(20, 80))
        score = round(float(rng.normal()), 3)
        color = ["red", "green", "blue"][int(rng.integers(3))]
        row = {"age": age, "score": score, "color": color}
        if missing_every and i % missing_every == 0:
            row["score"] = MISSING
        rows.append(row)
        labels.append(int(rng.random() < 0.5))
    # make sure both classes appear a few times
    labels[:6] = [0, 1, 0, 1, 0, 1]
    return table_from_rows(schema, rows, [f"row{i}" for i in range(n)], labels)


def with_cells(table, name, cells):
    """A copy of ``table`` whose column ``name`` holds ``cells`` (row index to
    value) in place of its own; the table itself is unchanged."""
    column = list(table.columns[name])
    for i, value in cells.items():
        column[i] = value
    return replace(table, columns={**table.columns, name: column})


class TestTabularDataset:
    def test_columns_and_rows_keep_the_header_order(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("color,target,score,age\nred,pos,1.5,40\n")
        table = load_csv(path, toy_schema())
        assert list(table.columns) == ["color", "score", "age"]
        assert list(table_rows(table)[0].items()) == [("color", "red"), ("score", 1.5), ("age", 40)]

    def test_subset_gathers_every_column(self):
        table = toy_dataset(n=6)
        part = table.subset([4, 1])
        assert part.ids == ["row4", "row1"]
        assert part.labels == [table.labels[4], table.labels[1]]
        assert table_rows(part) == (table_rows(table)[4], table_rows(table)[1])

    def test_columns_must_be_the_schema_features_along_the_ids(self):
        with pytest.raises(DatasetError, match="schema's features"):
            TabularDataset(schema=toy_schema(), columns={"age": [1]}, ids=["a"])
        with pytest.raises(DatasetError, match="equal length"):
            TabularDataset(schema=toy_schema(), ids=["a"],
                           columns={"age": [1], "score": [1.0], "color": []})


class TestLoadCsv:
    def test_hepatitis_csv_has_589_rows(self, hepatitis_schema):
        table = load_csv(DATA / "hepatitis.csv", hepatitis_schema)
        assert table.n == 589
        assert table.labels is not None
        assert not any(v is MISSING for row in table_rows(table) for v in row.values())

    def test_header_only_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("id,age,score,color,target\n")
        table = load_csv(path, toy_schema())
        assert table.n == 0

    def test_bad_label_names_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("age,score,color,target\n40,1.5,red,maybe\n")
        with pytest.raises(DatasetError, match=":2"):
            load_csv(path, toy_schema())

    def test_header_mismatch(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("age,score,hue,target\n")
        with pytest.raises(DatasetError, match="hue"):
            load_csv(path, toy_schema())

    def test_missing_feature_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("age,score,target\n")
        with pytest.raises(DatasetError, match="color"):
            load_csv(path, toy_schema())

    def test_cell_error_has_coordinates(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("age,score,color,target\nforty,1.5,red,pos\n")
        with pytest.raises(DatasetError, match=r"bad.csv:2.*age"):
            load_csv(path, toy_schema())

    def test_empty_cell_is_missing(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("age,score,color,target\n40,,red,pos\n")
        table = load_csv(path, toy_schema())
        assert table_rows(table)[0]["score"] is MISSING

    def test_ids_default_to_row_indices(self, tmp_path):
        path = tmp_path / "noid.csv"
        path.write_text("age,score,color,target\n40,1.0,red,pos\n41,2.0,blue,neg\n")
        table = load_csv(path, toy_schema())
        assert table.ids == ["0", "1"]

    def test_round_trip(self, tmp_path):
        table = toy_dataset(missing_every=5)
        path = tmp_path / "out.csv"
        save_csv(table, path)
        back = load_csv(path, table.schema)
        assert back.ids == table.ids
        assert back.labels == table.labels
        assert table_rows(back) == table_rows(table)

    # A note quoted over lines 2-3 puts the next record on physical line 4.
    MULTI_LINE = 'age,dose,color,note,target\n40,1.5,red,"two\nlines",pos\n'

    def test_bad_cell_after_multi_line_cell_names_its_physical_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(self.MULTI_LINE + "forty,1.5,red,,pos\n")
        with pytest.raises(DatasetError) as e:
            load_csv(path, loader_schema())
        assert str(e.value) == (f"{path}:4: column 'age': age: cannot interpret 'forty' "
                                "as a number")

    def test_short_line_after_multi_line_cell_names_its_physical_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(self.MULTI_LINE + "40,1.5,red,\n")
        with pytest.raises(DatasetError) as e:
            load_csv(path, loader_schema())
        assert str(e.value) == f"{path}:4: expected 5 cells, got 4"



# Cells the generated CSV files draw from, by header column: good ones (missing
# sentinels among them where the feature allows it; line i has id ``r<i>``)
# and bad ones. The pools are small, so values repeat across lines.
_GOOD = {
    "age": ["40", "7", " 12 ", "1e2", "3,0", "120", "", "n/a", "NaN", "None"],
    "dose": ["1.5", "0.25", "-0.0", "1,5", "2", "1e-3"],
    "color": ["red", "GREEN", " blue", "", "N/A"],
    "note": ["", "x", "free text", "none", "7"],
    "target": ["pos", "NEG", " neg ", "Pos"],
}
_BAD = {
    "id": ["r0"],  # the first line's id again
    "age": ["121", "-1", "4.5", "forty", "inf"],
    "dose": ["", "nan", "abc", "inf", "1,5,0"],
    "color": ["purple", "re d"],
    "note": [],
    "target": ["maybe", ""],
}


def loader_schema():
    return ExtractionSchema(
        features=(int_feature("age", 0, 120), real_feature("dose", allow_missing=False),
                  cat_feature("color", ["red", "green", "blue"]),
                  FeatureSpec(name="note", kind="text")),
        label=LabelSpec("target", "pos", "neg"),
        name="loader",
    )


@st.composite
def csv_texts(draw):
    """CSV text for ``loader_schema``: the columns in any order, id and label
    optional, up to 12 lines, a few bad cells and lines with a cell too few or
    too many."""
    header = draw(st.permutations(["age", "dose", "color", "note"]
                                  + sorted(draw(st.sets(st.sampled_from(["id", "target"]))))))
    n = draw(st.integers(0, 12))
    lines = [[f"r{i}" if name == "id" else draw(st.sampled_from(_GOOD[name])) for name in header]
             for i in range(n)]
    if n:
        for _ in range(draw(st.integers(0, 3))):
            i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, len(header) - 1))
            if _BAD[header[j]]:
                lines[i][j] = draw(st.sampled_from(_BAD[header[j]]))
        for _ in range(draw(st.integers(0, 2))):
            i = draw(st.integers(0, n - 1))
            lines[i] = lines[i][:-1] if draw(st.booleans()) else lines[i] + ["extra"]
    out = io.StringIO()
    csv.writer(out).writerows([header, *lines])
    return out.getvalue()


def loaded(load, path, schema):
    """What ``load`` makes of a file: every row's items (their order and the
    repr of each value), ids and labels, or the error message."""
    try:
        table = load(path, schema)
    except DatasetError as e:
        return "error", str(e)
    rows = [[(k, repr(v)) for k, v in row.items()] for row in table_rows(table)]
    return "ok", rows, table.ids, table.labels


class TestLoadCsvByColumn:
    """The column-wise loader against the cell-by-cell one it replaced."""

    def both(self, tmp_path, text, encoding="utf-8"):
        path = tmp_path / "t.csv"
        path.write_bytes(text.encode(encoding) if isinstance(text, str) else text)
        want = loaded(oracle.load_csv_by_cell, path, loader_schema())
        assert loaded(load_csv, path, loader_schema()) == want
        return want

    @given(csv_texts())
    @settings(max_examples=400, deadline=None)
    def test_equals_cell_by_cell_loader(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            self.both(Path(tmp), text)

    def test_later_column_on_earlier_line_wins(self, tmp_path):
        got = self.both(tmp_path, "age,dose,color,note,target\n40,1.5,purple,,pos\n"
                                  "forty,1.5,red,,pos\n")
        assert got == ("error", f"{tmp_path / 't.csv'}:2: column 'color': color: 'purple' is not "
                                "one of the allowed values: red, green, blue")

    def test_short_line_after_a_bad_cell(self, tmp_path):
        got = self.both(tmp_path, "age,dose,color,note,target\n40,abc,red,,pos\n40,1.5,red,\n")
        assert got[0] == "error" and ":2: column 'dose'" in got[1]

    def test_bad_cell_after_a_short_line(self, tmp_path):
        got = self.both(tmp_path, "age,dose,color,note,target\n40,1.5,red,\n40,abc,red,,pos\n")
        assert got[0] == "error" and got[1].endswith(":2: expected 5 cells, got 4")

    def test_repeated_bad_value_reported_at_its_first_line(self, tmp_path):
        got = self.both(tmp_path, "age,dose,color,note,target\n40,1.5,red,,pos\n"
                                  "forty,1.5,red,,pos\n41,abc,red,,pos\nforty,abc,red,,pos\n")
        assert got[0] == "error" and ":3: column 'age'" in got[1]

    def test_bad_label_and_missing_sentinels(self, tmp_path):
        got = self.both(tmp_path, "age,dose,color,note,target\nn/a,1.5,,,pos\n"
                                  "40,1.5,red,,maybe\n")
        assert got[0] == "error" and ":3: label 'maybe'" in got[1]

    def test_unreadable_record_after_a_bad_cell(self, tmp_path):
        # the read stops at the field over csv's size limit, or at the byte
        # that is no UTF-8 (past the first decoded chunk), after line 2 failed
        head = "age,dose,color,note,target\n40,abc,red,,pos\n" + "40,1.5,red,,pos\n" * 800
        for tail in (("x" * 200_000).encode(), b"\xff\n"):
            got = self.both(tmp_path, head.encode() + tail)
            assert got[0] == "error" and ":2: column 'dose'" in got[1]

    def test_byte_order_mark_is_accepted(self, tmp_path, hepatitis_schema):
        plain = load_csv(DATA / "hepatitis.csv", hepatitis_schema)
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + (DATA / "hepatitis.csv").read_bytes())
        bom = load_csv(path, hepatitis_schema)
        assert (table_rows(bom), bom.ids, bom.labels) == (table_rows(plain), plain.ids, plain.labels)

# Train and encoded cells for the column states; encoded categorical cells
# also hold values that are no category.
_NUMERIC_CELLS = st.lists(st.just(MISSING) | st.integers(-10**6, 10**6)
                          | st.floats(-1e9, 1e9, allow_nan=False), max_size=40)
_COLORS = ["red", "green", "blue"]


def encoded(encode, cells):
    try:
        block = encode(cells)
    except DatasetError as e:
        return "error", str(e)
    return "ok", block.dtype, block.shape, block.tobytes()


# Cells of every type a column may hold: the three the csv writer formats as
# format_cell does, Missing, and types it formats otherwise (bools), plus
# strings that need quoting and floats whose repr is unusual.
_ANY_CELL = st.one_of(st.just(MISSING), st.integers(-10 ** 30, 10 ** 30), st.floats(),
                      st.sampled_from([-0.0, 1e16, 5e-324, 0.1]), st.booleans(),
                      st.text(alphabet='ab ,"\n\r', max_size=4), st.none(),
                      st.sampled_from([(1, 2), b"x"]))


class TestSaveCsvByColumn:
    """``save_csv`` hands whole columns to the csv writer; the cell-by-cell
    writer it replaced (tests/helpers.py) is the oracle: the same bytes."""

    @settings(max_examples=300, deadline=None)
    @given(st.data(), st.integers(0, 6), st.booleans())
    def test_bytes_equal_oracle(self, data, n, labeled):
        def column(kind):
            cells = st.sampled_from([MISSING, 3, 0.5, "x"]) if kind else _ANY_CELL
            return data.draw(st.lists(cells, min_size=n, max_size=n))

        table = TabularDataset(schema=toy_schema(),
                               columns={name: column(data.draw(st.booleans()))
                                        for name in ("age", "score", "color")},
                               ids=[f"r{i}" for i in range(n)],
                               labels=data.draw(st.lists(st.integers(0, 1), min_size=n,
                                                         max_size=n)) if labeled else None)
        with tempfile.TemporaryDirectory() as tmp:
            ours, theirs = Path(tmp) / "a.csv", Path(tmp) / "b.csv"
            save_csv(table, ours)
            oracle.save_csv_by_cell(table, theirs)
            assert ours.read_bytes() == theirs.read_bytes()


class TestColumnStatesByColumn:
    """``fit`` and ``encode`` on whole columns against the cell-by-cell
    versions they replaced."""

    @given(st.sampled_from([int_feature("n"), real_feature("n")]),
           _NUMERIC_CELLS.filter(lambda cells: cells), _NUMERIC_CELLS)
    @settings(max_examples=200, deadline=None)
    def test_numeric_equals_cell_by_cell(self, spec, train, cells):
        state = NumericState.fit(spec, train)
        assert repr(state) == repr(oracle.numeric_fit(spec, train))
        assert encoded(state.encode, cells) == encoded(
            lambda c: oracle.numeric_encode(state, c), cells)

    @given(st.lists(st.sampled_from([MISSING, *_COLORS]), min_size=1, max_size=40),
           st.lists(st.sampled_from([MISSING, *_COLORS, "purple", "Red"]), max_size=40),
           st.sampled_from([None, "blue", "purple"]))
    @settings(max_examples=200, deadline=None)
    def test_categorical_equals_cell_by_cell(self, train, cells, impute):
        spec = cat_feature("color", _COLORS)
        state = CategoricalState.fit(spec, train)
        assert repr(state) == repr(oracle.categorical_fit(spec, train))
        if impute is not None:  # a saved state may impute any string
            state = CategoricalState(state.name, state.categories, impute)
        assert encoded(state.encode, cells) == encoded(
            lambda c: oracle.categorical_encode(state, c), cells)

    def test_fit_names_an_unknown_category(self):
        # the cell-by-cell fit let a KeyError out here
        with pytest.raises(DatasetError, match="color: value 'purple' is not an allowed category"):
            CategoricalState.fit(cat_feature("color", _COLORS), ["red", MISSING, "purple"])


class TestSplit:
    def test_exact_70_10_20_when_divisible(self):
        table = toy_dataset(n=100)
        table.labels[:] = [0] * 50 + [1] * 50
        a = split(table, seed=1)
        assert (len(a.train_ids), len(a.val_ids), len(a.test_ids)) == (70, 10, 20)

    def test_deterministic_for_seed(self):
        table = toy_dataset(n=60)
        assert split(table, 9) == split(table, 9)
        assert split(table, 9) != split(table, 10)

    def test_partition_covers_all_rows(self):
        table = toy_dataset(n=57)
        a = split(table, 4)
        combined = set(a.train_ids) | set(a.val_ids) | set(a.test_ids)
        assert combined == set(range(57))
        assert len(a.train_ids) + len(a.val_ids) + len(a.test_ids) == 57

    def test_stratified_within_one_of_floor(self):
        table = toy_dataset(n=80)
        table.labels[:] = [1] * 20 + [0] * 60
        a = split(table, 11)
        train_pos = sum(table.labels[i] for i in a.train_ids)
        assert train_pos == int(0.7 * 20)

    def test_hepatitis_sizes_match_floor_oracle(self, hepatitis_schema):
        table = load_csv(DATA / "hepatitis.csv", hepatitis_schema)
        a = split(table, 7)
        # oracle: per-class floor arithmetic
        n_pos = sum(table.labels)
        n_neg = table.n - n_pos
        exp_train = int(0.7 * n_pos) + int(0.7 * n_neg)
        exp_val = int(0.1 * n_pos) + int(0.1 * n_neg)
        exp_test = table.n - exp_train - exp_val
        assert len(a.train_ids) == exp_train
        assert len(a.val_ids) == exp_val
        assert len(a.test_ids) == exp_test
        # within +-1 per stratum of the 412/59/118 reference sizes
        assert abs(len(a.train_ids) - 412) <= 2
        assert abs(len(a.val_ids) - 59) <= 2
        assert abs(len(a.test_ids) - 118) <= 2

    def test_too_small_rejected(self):
        table = toy_dataset(n=9)
        with pytest.raises(DatasetError, match="at least 10"):
            split(table, 1)

    def test_tiny_class_rejected(self):
        table = toy_dataset(n=20)
        table.labels[:] = [0] * 19 + [1]
        with pytest.raises(DatasetError, match="cannot stratify"):
            split(table, 1)

    def test_split_file_round_trip(self, tmp_path):
        a = split(toy_dataset(n=40), 5)
        path = tmp_path / "split.json"
        save_split(a, path)
        assert load_split(path) == a

    # each message is of the edited document; an appended val id is at len(val) - 1
    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc["val"].append(-2),
         lambda doc: f"$.val[{len(doc['val']) - 1}] must be an integer of at least 0, got -2"),
        (lambda doc: doc["val"].append(1.0),
         lambda doc: f"$.val[{len(doc['val']) - 1}] must be an integer of at least 0, got 1.0"),
        (lambda doc: doc["val"].append(True),
         lambda doc: f"$.val[{len(doc['val']) - 1}] must be an integer of at least 0, got True"),
        (lambda doc: doc["val"].append("3"),
         lambda doc: f"$.val[{len(doc['val']) - 1}] must be an integer of at least 0, got '3'"),
        (lambda doc: doc["val"].append(doc["val"][0]),
         lambda doc: f"$.val[{len(doc['val']) - 1}] must be an id listed once (it is also at "
                     f"$.val[0]), got {doc['val'][0]}"),
        (lambda doc: doc["test"].append(doc["val"][0]),
         lambda doc: f"$.test[{len(doc['test']) - 1}] must be an id listed once (it is also at "
                     f"$.val[0]), got {doc['val'][0]}"),
        (lambda doc: doc.pop("seed"), lambda doc: "$.seed must be an integer, got nothing"),
        (lambda doc: doc.update(train=None),
         lambda doc: "$.train must be a list of row ids, got None"),
        (lambda doc: doc.update(seed=True), lambda doc: "$.seed must be an integer, got True"),
        (lambda doc: doc.update(seed=5.9), lambda doc: "$.seed must be an integer, got 5.9"),
        (lambda doc: doc.update(seed="7"), lambda doc: "$.seed must be an integer, got '7'"),
        (lambda doc: doc.update(seed=None), lambda doc: "$.seed must be an integer, got None"),
        (lambda doc: doc.update(seed=[5]), lambda doc: "$.seed must be an integer, got [5]"),
    ], ids=["negative", "float", "bool", "string", "duplicate", "shared", "no-seed", "no-list",
            "seed-bool", "seed-float", "seed-string", "seed-null", "seed-list"])
    def test_malformed_split_file_rejected(self, tmp_path, edit, message):
        doc = split(toy_dataset(n=40), 5).to_dict()
        edit(doc)
        path = tmp_path / "split.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DatasetError, match=f"^{re.escape(f'{path}: {message(doc)}')}$"):
            load_split(path)

    @pytest.mark.parametrize("text", [
        '{"seed": ' + "5" * 5000 + ', "train": [], "val": [], "test": []}',
        "[" * 100_000,
    ], ids=["5000-digit-seed", "nested-too-deep"])
    def test_split_file_json_cannot_decode_names_the_file(self, tmp_path, text):
        """json raises a plain ValueError and RecursionError for these."""
        path = tmp_path / "split.json"
        path.write_text(text)
        with pytest.raises(DatasetError, match=f"^{re.escape(str(path))}: "):
            load_split(path)

    def test_split_file_not_json_names_the_file(self, tmp_path):
        path = tmp_path / "split.json"
        path.write_text('{seed: 5}')
        with pytest.raises(DatasetError, match=re.escape(f"{path}: Expecting property name")):
            load_split(path)

    @pytest.mark.parametrize("seed, expected", [
        (1, {"train": [0, 2, 3, 6, 7, 9, 10, 11, 12, 15, 16, 17, 19], "val": [14],
             "test": [1, 4, 5, 8, 13, 18]}),
        (123456789, {"train": [2, 3, 4, 6, 7, 8, 11, 12, 13, 15, 16, 18, 19], "val": [17],
                     "test": [0, 1, 5, 9, 10, 14]}),
        (-5, {"train": [0, 1, 2, 3, 4, 5, 6, 10, 11, 15, 16, 18, 19], "val": [8],
              "test": [7, 9, 12, 13, 14, 17]}),
    ])
    def test_pinned_assignment(self, seed, expected):
        # the documented LCG's shuffles, so a split file names the same rows
        # in every release
        assert split(toy_dataset(n=20), seed).to_dict() == {"seed": seed, **expected}

    @given(st.integers(0, 2**32))
    @settings(max_examples=25, deadline=None)
    def test_any_seed_yields_valid_partition(self, seed):
        table = toy_dataset(n=23)
        a = split(table, seed)
        assert set(a.train_ids) | set(a.val_ids) | set(a.test_ids) == set(range(23))
        assert not (set(a.train_ids) & set(a.test_ids))
        assert not (set(a.train_ids) & set(a.val_ids))


class TestEncoder:
    def test_one_hot_columns_per_allowed_value(self):
        table = toy_dataset()
        enc = fit_encoder(table, range(table.n))
        assert enc.column_names == ("age", "score", "color_red", "color_green", "color_blue")

    def test_one_hot_rows_sum_to_one(self):
        table = toy_dataset(missing_every=4)
        enc = fit_encoder(table, range(10))
        matrix = transform(table, enc)
        block = matrix[:, 2:5]
        assert np.allclose(block.sum(axis=1), 1.0)

    def test_categorical_encoding_values(self):
        table = with_cells(toy_dataset(), "color", {0: "green"})
        enc = fit_encoder(table, range(table.n))
        matrix = transform(table, enc, [0])
        names = list(enc.column_names)
        assert matrix[0, names.index("color_green")] == 1.0
        assert matrix[0, names.index("color_red")] == 0.0

    def test_zero_variance_column_scales_to_zero(self):
        table = toy_dataset()
        table = with_cells(table, "age", {i: 42 for i in range(table.n)})
        enc = fit_encoder(table, range(table.n))
        matrix = transform(table, enc)
        assert np.all(matrix[:, 0] == 0.0)

    def test_missing_numeric_imputed_with_train_mean(self):
        table = with_cells(toy_dataset(), "score", {0: MISSING})
        train = list(range(1, table.n))
        enc = fit_encoder(table, train)
        observed = [float(table_rows(table)[i]["score"]) for i in train]
        state = enc.columns[1]
        assert state.impute_mean == pytest.approx(np.mean(observed))
        row0 = transform(table, enc, [0])[0]
        expected = (state.impute_mean - state.center) / state.scale
        assert row0[1] == pytest.approx(expected)

    def test_missing_categorical_imputed_with_mode(self):
        table = with_cells(toy_dataset(), "color",
                           {**{i: "blue" for i in range(12)}, 15: MISSING})
        enc = fit_encoder(table, range(table.n))
        assert enc.columns[2].impute_category == "blue"
        row = transform(table, enc, [15])[0]
        assert row[list(enc.column_names).index("color_blue")] == 1.0

    def test_columns_stable_across_splits(self):
        table = toy_dataset(n=30)
        enc = fit_encoder(table, range(0, 20))
        m_train = transform(table, enc, range(0, 20))
        m_test = transform(table, enc, range(20, 30))
        assert m_train.shape == (20, len(enc.column_names))
        assert m_test.shape == (10, len(enc.column_names))

    def test_row_at_train_mean_encodes_to_zero(self):
        table = toy_dataset()
        enc = fit_encoder(table, range(table.n))
        state = enc.columns[1]
        table = with_cells(table, "score", {0: state.center})
        row = transform(table, enc, [0])[0]
        assert row[1] == pytest.approx(0.0)

    def test_no_leakage_from_non_train_rows(self):
        table = toy_dataset(n=30)
        train = list(range(20))
        enc_before = fit_encoder(table, train)
        table = with_cells(with_cells(table, "score", {25: 999.0}), "color", {25: "blue"})
        enc_after = fit_encoder(table, train)
        assert enc_before == enc_after

    def test_encoder_state_round_trip(self):
        table = toy_dataset(missing_every=4)
        enc = fit_encoder(table, range(table.n))
        assert [type(c) for c in enc.columns] == [NumericState, NumericState, CategoricalState]
        assert EncoderState.from_dict(enc.to_dict()) == enc
        # through JSON, as a model file holds it: lists come back as tuples
        loaded = EncoderState.from_dict(json.loads(json.dumps(enc.to_dict())))
        assert loaded == enc
        assert loaded.columns[2].categories == ("red", "green", "blue")
        assert loaded.column_names == enc.column_names

    def test_text_features_rejected(self):
        from medtab.schema import FeatureSpec
        schema = ExtractionSchema(features=(FeatureSpec(name="note", kind="text"),))
        table = table_from_rows(schema, [{"note": "hi"}], ["a"])
        with pytest.raises(DatasetError, match="text features"):
            fit_encoder(table, [0])

    def test_d_equals_numeric_plus_category_count(self, heart_schema):
        table = load_csv(DATA / "heart.csv", heart_schema)
        enc = fit_encoder(table, range(100))
        numeric = sum(1 for f in heart_schema.features if f.kind in ("integer", "real"))
        cats = sum(len(f.allowed_values) for f in heart_schema.features
                   if f.kind == "categorical")
        assert len(enc.column_names) == numeric + cats == 21

    def test_transform_names_the_columns_the_table_lacks(self):
        table = toy_dataset()
        enc = fit_encoder(table, range(table.n))
        columns = {"score": table.columns["score"]}
        narrow = replace(table, schema=replace(table.schema, features=table.schema.features[1:2]),
                         columns=columns)
        with pytest.raises(DatasetError, match=re.escape(
                "the encoder needs column(s) the table lacks: age, color")):
            transform(narrow, enc)


# Random toy-schema cells, a third of them missing; scores span magnitudes
# so that standardizing rounds.
_CELLS = {
    "age": st.integers(-50, 200),
    "score": st.floats(-1e6, 1e6, allow_nan=False),
    "color": st.sampled_from(["red", "green", "blue"]),
}


def _rows(n):
    return st.lists(st.fixed_dictionaries({name: st.just(MISSING) | cells | cells
                                           for name, cells in _CELLS.items()}),
                    min_size=n, max_size=n)


@st.composite
def toy_tables(draw):
    """Tables of 10 to 40 rows with at least 3 rows of each class, the
    smallest that split accepts."""
    n_neg = draw(st.integers(3, 20))
    n_pos = draw(st.integers(max(3, 10 - n_neg), 20))
    labels = draw(st.permutations([0] * n_neg + [1] * n_pos))
    return table_from_rows(toy_schema(), draw(_rows(len(labels))),
                           [f"r{i}" for i in range(len(labels))], list(labels))


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestPrepare:
    @given(toy_tables(), st.integers(0, 2**32))
    @settings(max_examples=80, deadline=None)
    def test_each_part_equals_its_own_transform(self, table, seed):
        assignment, encoder, X, y = prepare(table, seed)
        assert assignment == split(table, seed)
        assert encoder == fit_encoder(table, assignment.train_ids)
        assert list(X) == list(y) == list(PARTS)
        for part, ids in assignment.parts().items():
            assert _same_bits(X[part], transform(table, encoder, ids)), part
            assert y[part].tolist() == [table.labels[i] for i in ids], part

    @given(toy_tables(), st.integers(0, 2**32), st.data())
    @settings(max_examples=80, deadline=None)
    def test_val_and_test_cells_never_reach_the_encoder(self, table, seed, data):
        assignment, encoder, X, _ = prepare(table, seed)
        held_out = assignment.val_ids + assignment.test_ids
        rows = list(table_rows(table))
        for i, row in zip(held_out, data.draw(_rows(len(held_out)))):
            rows[i] = row
        table = table_from_rows(table.schema, rows, table.ids, table.labels)
        after, encoder_after, X_after, _ = prepare(table, seed)
        assert after == assignment
        assert encoder_after == encoder
        assert _same_bits(X_after["train"], X["train"])

    @given(toy_tables(), st.integers(0, 2**32))
    @settings(max_examples=40, deadline=None)
    def test_parts_round_trip_through_split_file(self, table, seed):
        assignment = split(table, seed)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "split.json"
            save_split(assignment, path)
            doc = json.loads(path.read_text(encoding="utf-8"))
            back = load_split(path)
        assert list(doc) == ["seed", *PARTS]
        assert back == assignment
        assert back.parts() == assignment.parts()
        assert {part: tuple(doc[part]) for part in PARTS} == assignment.parts()

    def test_unlabeled_table_rejected(self):
        table = toy_dataset(n=20)
        table.labels = None
        with pytest.raises(DatasetError, match="needs labels"):
            prepare(table, 1)
