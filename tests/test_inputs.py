import math
import re

import pytest

from medtab import inputs

POINT = inputs.Table({"x": inputs.NUMBER}, {"tags": inputs.Each(inputs.TEXT, "a list of strings")})
SHAPE = inputs.Table({"points": inputs.Each(POINT, "a non-empty list of points", nonempty=True)},
                     {"name": inputs.TEXT}, closed=True)


def failure(doc, spec=SHAPE) -> str:
    with pytest.raises(ValueError) as err:
        inputs.check(doc, spec, ValueError, "f.json")
    return str(err.value)


class TestCheck:
    def test_a_good_document_is_returned(self):
        doc = {"points": [{"x": 1}, {"x": 2.5, "tags": ["a"], "other": None}], "name": "n"}
        assert inputs.check(doc, SHAPE, ValueError, "f.json") is doc

    @pytest.mark.parametrize("doc, message", [
        ([], "$ must be a JSON object, got []"),
        ({}, "$.points must be a non-empty list of points, got nothing"),
        ({"points": []}, "$.points must be a non-empty list of points, got []"),
        ({"points": [{"x": 1}], "size": 3},
         "$.size must be absent (the keys are name, points), got 3"),
        ({"points": [{"x": 1}, 7]}, "$.points[1] must be a JSON object, got 7"),
        ({"points": [{"x": True}]}, "$.points[0].x must be a finite number, got True"),
        ({"points": [{"x": math.nan}]}, "$.points[0].x must be a finite number, got nan"),
        ({"points": [{"x": 10 ** 400}]}, "$.points[0].x must be a finite number, got 1"
                                         + "0" * 56 + "..."),
        ({"points": [{"x": 0, "tags": ["a", 5]}]},
         "$.points[0].tags[1] must be a string, got 5"),
        ({"points": [{"x": 0}], "name": None}, "$.name must be a string, got None"),
    ], ids=["root", "missing", "empty", "unknown", "item", "bool", "nan", "huge", "nested",
            "null"])
    def test_one_message_form_names_the_path_what_and_value(self, doc, message):
        assert failure(doc) == f"f.json: {message}"

    def test_the_first_missing_key_is_named_in_table_order(self):
        spec = inputs.Table({"b": inputs.TEXT, "a": inputs.TEXT})
        assert failure({}, spec) == "f.json: $.b must be a string, got nothing"

    def test_a_table_picked_by_a_tag(self):
        spec = inputs.tagged("kind", {"dot": inputs.Table({"r": inputs.NUMBER})}, "'dot'")
        assert inputs.check({"kind": "dot", "r": 1}, spec, ValueError, "f.json")
        assert failure({"kind": "box"}, spec) == "f.json: $.kind must be 'dot', got 'box'"
        assert failure({"kind": "dot"}, spec) == "f.json: $.r must be a finite number, got nothing"

    def test_a_root_path_prefixes_the_path(self):
        with pytest.raises(KeyError, match=r"\$\.shape\.name must be a string"):
            inputs.check({"points": [{"x": 0}], "name": 1}, SHAPE, KeyError, "f.json",
                         "$.shape")


class TestRead:
    def test_lines_keep_their_numbers_and_skip_blank_ones(self, tmp_path):
        path = tmp_path / "p.jsonl"
        path.write_text('{"x": 1}\n\n  \n{"x": 2}\n')
        assert inputs.load_lines(path, POINT, ValueError) == [(1, {"x": 1}), (4, {"x": 2})]

    def test_a_bad_line_is_named_by_its_number(self, tmp_path):
        path = tmp_path / "p.jsonl"
        path.write_text('{"x": 1}\n\n{"x": "1"}\n')
        with pytest.raises(ValueError) as err:
            inputs.load_lines(path, POINT, ValueError)
        assert str(err.value) == f"{path}:3: $.x must be a finite number, got '1'"

    def test_a_line_that_is_not_json_is_named_by_its_number(self, tmp_path):
        path = tmp_path / "p.jsonl"
        path.write_text('{"x": 1}\n{x: 1}\n')
        with pytest.raises(ValueError, match=rf"^{path}:2: Expecting property name"):
            inputs.load_lines(path, POINT, ValueError)

    def test_unreadable_and_undecodable_files_raise_the_callers_class(self, tmp_path):
        with pytest.raises(KeyError, match="cannot read .*: No such file or directory"):
            inputs.load(tmp_path / "missing.json", POINT, KeyError)
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"x": "\xe9"}')
        with pytest.raises(KeyError, match="can't decode byte 0xe9"):
            inputs.load(path, POINT, KeyError)

    @pytest.mark.parametrize("text", [
        '{"x": ' + "9" * 5000 + "}",
        '{"x": ' + "[" * 100_000 + "]" * 100_000 + "}",
    ], ids=["5000-digit-integer", "nested-too-deep"])
    def test_json_that_cannot_decode_raises_the_callers_class(self, tmp_path, text):
        """json raises a plain ValueError and RecursionError for these."""
        path = tmp_path / "p.json"
        path.write_text(text)
        with pytest.raises(KeyError, match=f"^'{re.escape(str(path))}: "):
            inputs.load(path, POINT, KeyError)
        path.write_text('{"x": 1}\n' + text + "\n")
        with pytest.raises(KeyError, match=f"^'{re.escape(str(path))}:2: "):
            inputs.load_lines(path, POINT, KeyError)

    def test_document_too_deep_to_check_raises_the_callers_class(self):
        nested = inputs.Table(optional={"inner": (lambda value: nested(value), "an object")})
        doc = {}
        for _ in range(5000):
            doc = {"inner": doc}
        with pytest.raises(KeyError, match=r"^'where: \$ nests too deep to check'$"):
            inputs.check(doc, nested, KeyError, "where")

    def test_first_repeat_names_both_places(self):
        assert inputs.first_repeat([("a", 1), ("b", 2), ("a", 3), ("b", 4)]) == (1, 3, "a")
        assert inputs.first_repeat([("a", 1), ("b", 2)]) is None
