import json
import re

import pytest
from hypothesis import example, given, settings, strategies as st

import helpers as oracle  # holds the character-loop parser and repair
from helpers import bundle_for, small_schema, vorc_fixture_files

from medtab import vorc
from medtab.llm import (CompletionResult, ProviderError, ReplayEntry, ReplayProvider,
                        configure_provider)
from medtab.schema import MISSING, fold_name
from medtab.vorc import (ExtractionRecord, ParseFailure, UnrepairableError, Violation,
                         VorcFailure, _RULES, _STRINGS, _answer_span, _json_spans, _parses,
                         _strict_loads, _sub_word, call_rate, extract_corpus, parse_response,
                         provenance_entries, repair_json, run_vorc, validate_record)

# (raw, expected object, expected action kinds) - each repair rule alone and in pairs
REPAIR_CORPUS = [
    ('```json\n{"a": 1}\n```', {"a": 1}, ["strip_code_fence"]),
    ("{'a': 1}", {"a": 1}, ["single_to_double_quotes"]),
    ('{"a": 1,}', {"a": 1}, ["remove_trailing_comma"]),
    ('{a: 1}', {"a": 1}, ["quote_bare_key"]),
    ('{"a": None}', {"a": None}, ["pyliteral_to_json"]),
    ('{"a": True, "b": False}', {"a": True, "b": False}, ["pyliteral_to_json"]),
    ('{"a": NaN}', {"a": None}, ["nan_to_null"]),
    ('Output JSON: {"a": 1}', {"a": 1}, ["extract_json_substring"]),
    ('```json\n{"a": 1,}\n```', {"a": 1}, ["strip_code_fence", "remove_trailing_comma"]),
    ("```\n{'a': 1}\n```", {"a": 1}, ["strip_code_fence", "single_to_double_quotes"]),
    ("{'a': None}", {"a": None}, ["single_to_double_quotes", "pyliteral_to_json"]),
    ("{'a': 1,}", {"a": 1}, ["single_to_double_quotes", "remove_trailing_comma"]),
    ("Output JSON:\n{'a': 1}", {"a": 1},
     ["single_to_double_quotes", "extract_json_substring"]),
    ('The answer is {"a": 1,} here', {"a": 1},
     ["remove_trailing_comma", "extract_json_substring"]),
    ('{a: None}', {"a": None}, ["quote_bare_key", "pyliteral_to_json"]),
    ('{a: 1,}', {"a": 1}, ["remove_trailing_comma", "quote_bare_key"]),
    ('Result: {"a": NaN}', {"a": None}, ["nan_to_null", "extract_json_substring"]),
    ('Answer {"ok": True}', {"ok": True}, ["pyliteral_to_json", "extract_json_substring"]),
    ("{'a': NaN}", {"a": None}, ["single_to_double_quotes", "nan_to_null"]),
    ('{"a": None,}', {"a": None}, ["remove_trailing_comma", "pyliteral_to_json"]),
    ('```json\n{a: 2}\n```', {"a": 2}, ["strip_code_fence", "quote_bare_key"]),
    ("{'a': True,}", {"a": True},
     ["single_to_double_quotes", "remove_trailing_comma", "pyliteral_to_json"]),
    ('{"a": [1, 2,]}', {"a": [1, 2]}, ["remove_trailing_comma"]),
    ("{'note': \"it's fine\", 'age': 3}", {"note": "it's fine", "age": 3},
     ["single_to_double_quotes"]),
]

ALREADY_VALID = [
    '{"a": 1}',
    '{"nested": {"b": [1, 2]}, "s": "x,}"}',
    '{"s": "patient\'s value"}',
    '{"age": 63, "sex": "M", "oldpeak": 1.5}',
]


# the one-shot example echoed in the reasoning, then the answer in single quotes
ECHOED_EXAMPLE_REPLY = ('Reasoning: like the example {"age": 40} the patient is older.\n'
                        "Output JSON:\n{'age': 63}")

STRAY_BRACE_REPLY = ('Reasoning: the vital signs give the pressure as 120 {systolic first, '
                     'therefore "age": 31.\nOutput JSON:\n{"age": 31, "sex": "M"}')


def rescanned_spans(text):
    """Reference for ``_json_spans``: one left-to-right brace scanner that
    ignores quotes outside blocks, run again from just after any ``{`` it
    left open."""
    spans, resume = [], 0
    while True:
        depth, start, in_string, escaped = 0, -1, False, False
        for i in range(resume, len(text)):
            c = text[i]
            if in_string:
                escaped, in_string = (False, True) if escaped else (c == "\\", c != '"')
            elif c == '"':
                in_string = depth > 0
            elif c == "{":
                start = i if depth == 0 else start
                depth += 1
            elif c == "}" and depth > 0:
                depth -= 1
                if depth == 0:
                    spans.append((start, i + 1))
        if depth == 0:
            return spans
        resume = start + 1


class TestParseResponse:
    def test_takes_last_json_object(self):
        obj = parse_response('Reasoning: things {not json} ... \nOutput JSON:\n{"age": 63}')
        assert obj == {"age": 63}

    def test_empty_object(self):
        assert parse_response("{}") == {}

    def test_no_json_found(self):
        with pytest.raises(ParseFailure) as exc:
            parse_response("no braces here")
        assert exc.value.kind == "no-json-found"

    def test_strict_parse_error_has_position(self):
        with pytest.raises(ParseFailure) as exc:
            parse_response("{'a': 1}")
        assert exc.value.kind == "strict-parse-error"
        assert "position" in str(exc.value)

    def test_nan_is_not_strict_json(self):
        with pytest.raises(ParseFailure):
            parse_response('{"a": NaN}')

    def test_braces_inside_strings_ignored(self):
        assert parse_response('{"s": "}"}') == {"s": "}"}

    def test_unparseable_trailing_span_falls_back(self):
        reply = ('Output JSON:\n{"age": 63}\n'
                 'Note: blood pressure is charted as {systolic}/{diastolic} in mm Hg.')
        assert parse_response(reply) == {"age": 63}

    def test_unclosed_brace_in_prose_is_skipped(self):
        assert parse_response(STRAY_BRACE_REPLY) == {"age": 31, "sex": "M"}

    @given(st.text(alphabet='{}"\\ a:', max_size=40))
    def test_spans_equal_rescanning_reference(self, text):
        assert _json_spans(text) == rescanned_spans(text)

    @pytest.mark.parametrize("repeats", [800, 3200])
    def test_braces_quoted_for_every_earlier_scan_equal_oracle(self, repeats, monkeypatch):
        # every second { lies inside a string for each scan before its own
        text = '"{\\""{' * repeats
        steps = []

        class CountedPattern:
            def match(self, *args):
                steps.append(None)
                return pattern.match(*args)

        pattern = vorc._NEXT_BRACE
        monkeypatch.setattr(vorc, "_NEXT_BRACE", CountedPattern())
        assert _json_spans(text) == oracle._json_spans(text)
        # a scan stops at a brace an earlier scan left open, so the brace
        # steps grow linearly with the text, not with its square
        assert len(steps) <= 4 * repeats

    def test_many_unclosed_braces_do_not_exhaust_the_stack(self):
        assert parse_response("{" * 1200 + '{"a": {"b": 1}} and {') == {"a": {"b": 1}}

    def test_error_reports_last_span_when_none_repairs(self):
        reply = "{a} and {b}"
        with pytest.raises(ParseFailure) as exc:
            parse_response(reply)
        assert exc.value.kind == "strict-parse-error"
        assert f"position {reply.index('{b}') + 1}" in str(exc.value)

    def test_repairable_last_span_wins_over_echoed_example(self):
        reply = ECHOED_EXAMPLE_REPLY
        with pytest.raises(ParseFailure) as exc:
            parse_response(reply)
        assert exc.value.kind == "strict-parse-error"
        assert f"position {reply.rindex('{') + 1}" in str(exc.value)

    def test_repairable_answer_before_trailing_note_is_not_skipped(self):
        reply = ('{"age": 40} Output JSON:\n'
                 "{'age': 63}\nNote: charted as {systolic}/{diastolic}.")
        answer_at = reply.index("{'age'")
        with pytest.raises(ParseFailure) as exc:
            parse_response(reply)
        assert f"position {answer_at + 1}" in str(exc.value)
        assert json.loads(repair_json(reply)[0]) == {"age": 63}


class TestRepairJson:
    @pytest.mark.parametrize("raw,expected,kinds", REPAIR_CORPUS,
                             ids=[f"case{i}" for i in range(len(REPAIR_CORPUS))])
    def test_repair_corpus(self, raw, expected, kinds):
        repaired, actions = repair_json(raw)
        assert json.loads(repaired) == expected
        assert [a.kind for a in actions] == kinds

    @pytest.mark.parametrize("raw", ALREADY_VALID)
    def test_valid_json_byte_identical(self, raw):
        repaired, actions = repair_json(raw)
        assert repaired == raw
        assert actions == []

    @pytest.mark.parametrize("raw", ['\x0c{"a": 1}', '{"a": 1}\x1c', ' \n{"a": 1}\t '])
    def test_valid_json_comes_back_stripped(self, raw):
        # str.strip also removes form feeds and separators, which JSON rejects
        repaired, actions = repair_json(raw)
        assert (repaired, actions) == ('{"a": 1}', [])
        assert _strict_loads(repaired) == {"a": 1}

    def test_unrepairable(self):
        with pytest.raises(UnrepairableError):
            repair_json("{{{")

    def test_extract_skips_unparseable_trailing_span(self):
        repaired, actions = repair_json("Output JSON:\n{'a': 1}\nNote: {x}/{y} as charted.")
        assert json.loads(repaired) == {"a": 1}
        assert [a.kind for a in actions] == ["single_to_double_quotes",
                                             "extract_json_substring"]

    def test_extract_prefers_repairable_answer_to_echoed_example(self):
        repaired, actions = repair_json(ECHOED_EXAMPLE_REPLY)
        assert json.loads(repaired) == {"age": 63}
        assert [a.kind for a in actions] == ["single_to_double_quotes",
                                             "extract_json_substring"]

    def test_non_object_json_is_unrepairable(self):
        # records are objects; an array response needs model feedback
        with pytest.raises(UnrepairableError):
            repair_json("```json\n[1, 2]\n```")

    @given(st.text(max_size=60))
    def test_roundtrip_whenever_repair_succeeds(self, raw):
        try:
            repaired, _ = repair_json(raw)
        except UnrepairableError:
            return
        assert isinstance(parse_response(repaired), dict)

    def test_prose_apostrophes_left_alone(self):
        raw = "The patient's data follows. Output JSON: {\"age\": 3}"
        repaired, actions = repair_json(raw)
        assert json.loads(repaired) == {"age": 3}

    @pytest.mark.parametrize("raw,expected,kinds", REPAIR_CORPUS)
    def test_parse_after_repair_roundtrip(self, raw, expected, kinds):
        repaired, _ = repair_json(raw)
        assert parse_response(repaired) == expected

    @given(st.dictionaries(
        st.text(st.characters(min_codepoint=32, max_codepoint=126), min_size=1, max_size=8),
        st.one_of(st.integers(-100, 100), st.booleans(), st.none(),
                  st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=10)),
        max_size=5))
    def test_repair_identity_on_generated_valid_json(self, obj):
        raw = json.dumps(obj)
        repaired, actions = repair_json(raw)
        assert repaired == raw
        assert actions == []

    # reversible malformations over token-safe payloads (single-word strings,
    # none of the literal words), so the original object is recoverable
    _word = st.text("abcdefghijkmopqrsvwxyz", min_size=1, max_size=6)
    _payload = st.dictionaries(
        _word, st.one_of(st.integers(-50, 50), st.booleans(), st.none(), _word),
        min_size=1, max_size=4)

    @staticmethod
    def _malform(raw: str, which: str) -> str:
        if which == "fence":
            return f"```json\n{raw}\n```"
        if which == "prose":
            return f"Reasoning: the values follow.\nOutput JSON:\n{raw}"
        if which == "quotes":
            return raw.replace('"', "'")
        if which == "pyliterals":
            return (raw.replace("null", "None").replace("true", "True")
                    .replace("false", "False"))
        if which == "trailing_comma":
            return raw[:-1] + ",}"
        raise AssertionError(which)

    @given(_payload, st.lists(st.sampled_from(
        ["fence", "prose", "quotes", "pyliterals", "trailing_comma"]),
        min_size=1, max_size=3, unique=True))
    def test_repair_recovers_malformed_payloads(self, obj, malformations):
        raw = json.dumps(obj)
        # apply inner-to-outer: value-level damage first, wrappers last
        order = ["trailing_comma", "pyliterals", "quotes", "prose", "fence"]
        broken = raw
        for which in sorted(malformations, key=order.index):
            broken = self._malform(broken, which)
        repaired, actions = repair_json(broken)
        assert parse_response(repaired) == obj
        if broken != raw:
            assert actions, f"expected at least one action for {broken!r}"


# Pieces of model replies: prose, both quote kinds, braces, backslashes,
# escaped quotes and newlines, fences, Python literals, NaN, trailing commas
# and bare keys.
REPLY_FRAGMENTS = [
    "Reasoning: ", "the patient's age", " therefore ", "Output JSON:\n", "Note: ",
    "{systolic}/{diastolic}", "```json\n", "\n```", "```", "{", "}", "[", "]", ",", ", ",
    ":", ": ", "'", '"', "\\", '\\"', "\\\n", "\\'", "\n", " ", "age", "sex", "a",
    "1", "-2.5", "True", "False", "None", "NaN", "-NaN", ",}", ",]", "{age: ", "age:",
    "'age': ", '"age": ', "'M'", '"M"', '{"a": 1}', "{'a': 1}", "{'s': \"it's\"}",
    '"say \\"hi\\" {', '"x\\\\"', '"a\\"}", b: None,', "{'n': 'O\\'Neil'}", "'a\\\\'",
    "[a: 1, b: 2]", "{k: [1, x: 2]}",
]
replies = st.lists(st.sampled_from(REPLY_FRAGMENTS), max_size=30).map("".join)


def outcome(fn, *args):
    """What a call returns, or the kind of error it raises and its message."""
    try:
        return "ok", fn(*args)
    except ParseFailure as e:
        return "parse-failure", e.kind, str(e)
    except UnrepairableError as e:
        return "unrepairable", str(e)


def loaded(load, text):
    """What ``load(text)`` gives: the value, or the error's type, message and
    position."""
    try:
        return "ok", load(text)
    except ValueError as e:
        return type(e).__name__, str(e), getattr(e, "pos", None)


_JSONISH = st.one_of(
    st.text(alphabet=' \t\n\r\x0c{}[]:,"\\aeu0123-.NaInfityl', max_size=20),
    st.recursive(st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
                 lambda inner: st.lists(inner, max_size=3)
                 | st.dictionaries(st.text(max_size=3), inner, max_size=3),
                 max_leaves=6).map(json.dumps),
)


class TestStrictParse:
    """``_strict_loads`` decodes with one module-level decoder and
    ``_parses`` skips text that cannot be an object; ``json.loads`` with a
    new decoder per call (tests/helpers.py) is the oracle."""

    @settings(max_examples=1000, deadline=None)
    @given(st.sampled_from(["", " ", "\ufeff", "\x0c", "\n\t "]), _JSONISH,
           st.sampled_from(["", " ", "\n", "x"]))
    @example("\ufeff", '{"a": 1}', "").via("a byte-order mark")
    @example("", '{"a": NaN}', "").via("a non-standard constant")
    @example(" \r\n", '{"a": [1, 2]}', " ").via("JSON whitespace around an object")
    def test_equals_json_loads(self, before, text, after):
        text = before + text + after
        assert loaded(_strict_loads, text) == loaded(oracle._strict_loads, text)
        assert _parses(text) == oracle._parses(text)

    def test_text_nested_too_deep_is_not_json(self):
        """json raises RecursionError past its nesting limit; the reply is then
        an unparseable one, which gets a JSON correction prompt."""
        deep = '{"age": ' * 100_000 + "1" + "}" * 100_000
        with pytest.raises(ValueError, match="nested too deep"):
            _strict_loads(deep)
        assert not _parses(deep)
        with pytest.raises(ParseFailure, match="nested too deep") as err:
            parse_response(deep)
        assert err.value.kind == "strict-parse-error"
        outcome = TestRunVorc().run(replay(deep, '{"age": 31, "sex": "M"}'))
        assert isinstance(outcome, ExtractionRecord)
        assert (outcome.vorc_iterations, outcome.repairs) == (1, [])


# Texts around the words the literal rules replace: word characters of
# several scripts, the dash NaN may take, and overlapping spellings.
_WORDS_TEXT = st.lists(st.sampled_from(["NaN", "aN", "Na", "-", "True", "False", "None", "Tru",
                                        "e", "_", " ", ":", "x", "9", "é", "٣", "\n"]),
                       max_size=10).map("".join)


class TestWordSubstitution:
    @settings(max_examples=2000, deadline=None)
    @given(_WORDS_TEXT)
    @example("NaNaN -NaN--NaN NaN_ xNaN NaN-NaN")
    def test_equals_re_sub(self, seg):
        assert _sub_word(seg, "NaN", "null", dash=True) == re.sub(r"-?\bNaN\b", "null", seg)
        for word, literal in (("True", "true"), ("False", "false"), ("None", "null")):
            assert _sub_word(seg, word, literal) == re.sub(rf"\b{word}\b", literal, seg)


class TestAgainstCharacterLoopOracle:
    """The tokenizer-based parser and repair against the character-loop
    implementation they replaced (tests/helpers.py): same text, same
    ``RepairAction`` list, same errors."""

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet='ab "\'\\\n{},:', max_size=40))
    def test_tokenizer_equals_oracle(self, text):
        pieces = [(p, i % 2 == 1) for i, p in enumerate(_STRINGS.split(text)) if p]
        assert pieces == oracle._split_strings(text)

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet='ab "\'\\\n{}[],:', max_size=40) | replies)
    def test_each_rule_equals_oracle(self, text):
        pieces = _STRINGS.split(text)
        for kind, rule in _RULES.items():
            assert rule(text, lambda: pieces) == oracle._RULES[kind](text), kind

    @settings(max_examples=300, deadline=None)
    @given(replies)
    @example(' {"a": 1}\n').via("valid once stripped")
    @example('\x0c{"a": 1}').via("valid once str.strip removes a form feed")
    @example("\n{'a': 1} ").via("repaired")
    def test_repair_json_equals_oracle(self, raw):
        want = outcome(oracle.repair_json, raw)
        if want == ("ok", (raw, [])):
            # Text that parses once stripped: the oracle hands it back as it
            # came, repair_json stripped, so that it also loads strictly when
            # only str.strip whitespace such as a form feed surrounds it.
            want = ("ok", (raw.strip(), []))
        assert outcome(repair_json, raw) == want

    @settings(max_examples=300, deadline=None)
    @given(replies)
    def test_parse_response_equals_oracle(self, raw):
        assert outcome(parse_response, raw) == outcome(oracle.parse_response, raw)
        assert _answer_span(raw) == oracle._answer_span(raw)
        assert _json_spans(raw) == oracle._json_spans(raw)

    @settings(max_examples=300, deadline=None)
    @given(replies)
    def test_repair_is_idempotent(self, raw):
        try:
            repaired, _ = repair_json(raw)
        except UnrepairableError:
            return
        assert repair_json(repaired) == (repaired, [])

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet='ab "\'\\\n{}[],:', max_size=40) | replies)
    def test_repaired_text_parses_to_its_strict_load(self, raw):
        # run_vorc reads a repaired reply with _strict_loads alone
        try:
            repaired, _ = repair_json(raw)
        except UnrepairableError:
            return
        assert parse_response(repaired) == _strict_loads(repaired)

    @pytest.mark.parametrize("raw", [
        '{"s": "a\\"b", \'t\': 1,}',  # escaped quote inside a string
        '{"s": "line\\\nbreak", "n": None}',  # escaped newline inside a string
        '{"s": "ends in \\\\", k: 2}',  # escaped backslash before the closing quote
        '{"open": "never closed, a: True}',  # unterminated string runs to the end
        '"\\',  # unterminated string ending in a lone backslash
    ])
    def test_string_escapes_equal_oracle(self, raw):
        assert outcome(repair_json, raw) == outcome(oracle.repair_json, raw)
        assert outcome(parse_response, raw) == outcome(oracle.parse_response, raw)


class TestValidateRecord:
    def test_heart_instance_validates(self, heart_schema):
        obj = {"Age": 63, "Sex": "M", "ChestPainType": "ATA", "RestingBP": 145,
               "Cholesterol": 220, "FastingBS": 1, "RestingECG": "Normal", "MaxHR": 150,
               "ExerciseAngina": "N", "Oldpeak": 1.5, "ST_Slope": "Down"}
        result = validate_record(obj, heart_schema)
        assert result.violations == []
        assert set(result.values) == {f.name for f in heart_schema.features}
        assert result.values["Age"] == 63
        assert result.values["FastingBS"] == "1"
        assert result.values["Oldpeak"] == 1.5

    def test_snake_case_keys_fold_to_features(self, heart_schema):
        obj = {"age": 63, "sex": "M", "chest_pain_type": "ATA", "resting_bp": 145,
               "cholesterol": 220, "fasting_bs": 1, "resting_ecg": "Normal", "max_hr": 150,
               "exercise_angina": "N", "oldpeak": 1.5, "st_slope": "Down"}
        result = validate_record(obj, heart_schema)
        assert result.violations == []

    def test_type_mismatch_reported(self):
        result = validate_record({"age": "sixty"}, small_schema())
        assert [(v.key, v.reason) for v in result.violations] == [("age", "type-mismatch")]

    def test_unknown_extra_key(self):
        result = validate_record({"age": 63, "Extra": 1}, small_schema())
        assert [(v.key, v.reason) for v in result.violations] == [("Extra", "unknown-extra-key")]

    def test_absent_keys_become_missing(self):
        result = validate_record({"age": 63}, small_schema())
        assert result.violations == []
        assert result.values["sex"] is MISSING

    def test_all_violations_collected_at_once(self, heart_schema):
        obj = {"Age": "old", "MaxHR": 999, "Bogus": 1}
        reasons = {(v.key, v.reason) for v in validate_record(obj, heart_schema).violations}
        assert ("Bogus", "unknown-extra-key") in reasons
        assert ("Age", "type-mismatch") in reasons
        assert ("MaxHR", "out-of-range") in reasons

    def test_label_key_is_ignored(self):
        result = validate_record({"age": 1, "sex": "F", "outcome": "yes"}, small_schema())
        assert result.violations == []
        assert "outcome" not in result.values

    def test_bad_label_value_is_no_violation(self):
        result = validate_record({"age": 1, "Outcome": "maybe"}, small_schema())
        assert result.violations == []

    def test_integer_too_large_for_a_float_is_a_type_mismatch(self, heart_schema):
        huge = int("9" * 400)
        result = validate_record({"Age": huge, "Sex": "M", "MaxHR": -huge}, heart_schema)
        assert [(v.key, v.reason, v.message, v.received) for v in result.violations] == [
            ("Age", "type-mismatch", f"Age: cannot interpret {huge!r} as a number", huge),
            ("MaxHR", "type-mismatch", f"MaxHR: cannot interpret {-huge!r} as a number", -huge)]
        assert result.values["Sex"] == "M"

    def test_infinite_float_for_a_category_is_an_unknown_category(self):
        result = validate_record(json.loads('{"age": 40, "sex": 1e400}'), small_schema())
        assert [(v.key, v.reason) for v in result.violations] == [("sex", "unknown-category")]


def validated(obj, schema, validate):
    """``validate(obj, schema)`` as comparable data: every value's type and
    repr, and every violation's fields (the received value by repr)."""
    result = validate(obj, schema)
    return ([(name, type(v), repr(v)) for name, v in result.values.items()],
            [(v.key, v.reason, v.message, type(v.received), repr(v.received))
             for v in result.violations])


def without_label_keys(obj, schema):
    """``obj`` less the keys that fold to the label's name, which
    ``validate_record`` skips and the oracle still reads."""
    if not isinstance(obj, dict):
        return obj
    label = fold_name(schema.label.name)
    return {key: raw for key, raw in obj.items() if fold_name(key) != label}


_RECORD_KEYS = st.sampled_from(["Age", "age", "AGE", "Sex", "sex", "Chest Pain Type",
                                "chest_pain_type", "RestingBP", "resting_bp", "Cholesterol",
                                "FastingBS", "RestingECG", "MaxHR", "Max Hr", "ExerciseAngina",
                                "Oldpeak", "oldpeak", "ST_Slope", "St Slope", "HeartDisease",
                                "heart_disease", "Bogus", "", "outcome", "sex "])
_RECORD_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-10 ** 4, 10 ** 4), st.integers(10 ** 300, 10 ** 400),
    st.floats(), st.sampled_from(["M", "f", " asy ", "Normal", "up", "0", "1", "yes", "N/A", "",
                                  "63", " 1,5 ", "1e400", "nan", "x", "Y"]),
    st.lists(st.integers(0, 2), max_size=2))


class TestValidateRecordAgainstOracle:
    """``validate_record`` reads the schema's key lookup and compiled
    coercers; the per-call version it replaced (tests/helpers.py) is the
    oracle: the same values and violations, in the same order, once the keys
    naming the label, which the oracle still reads, are taken out."""

    @settings(max_examples=600, deadline=None)
    @given(st.dictionaries(_RECORD_KEYS, _RECORD_VALUES, max_size=14))
    def test_heart_records_equal_oracle(self, heart_schema, obj):
        assert validated(obj, heart_schema, validate_record) == \
            validated(without_label_keys(obj, heart_schema), heart_schema,
                      oracle.validate_record)

    @settings(max_examples=300, deadline=None)
    @given(st.dictionaries(_RECORD_KEYS, _RECORD_VALUES, max_size=6) | _RECORD_VALUES)
    def test_small_schema_records_equal_oracle(self, obj):
        schema = small_schema()
        assert validated(obj, schema, validate_record) == \
            validated(without_label_keys(obj, schema), schema, oracle.validate_record)


def replay(*responses):
    return ReplayProvider([ReplayEntry(response=r) for r in responses])


class TestRunVorc:
    def run(self, provider, budget=3):
        schema = small_schema()
        prompt = bundle_for(schema, {"age": 40, "sex": "M"}).render("Patient, 31, male.")
        return run_vorc(provider, prompt, schema, budget, source_id="r1")

    def test_happy_path(self):
        outcome = self.run(replay('{"age": 31, "sex": "M"}'))
        assert isinstance(outcome, ExtractionRecord)
        assert outcome.vorc_iterations == 0
        assert outcome.repairs == []
        assert outcome.values == {"age": 31, "sex": "M"}

    def test_rule_repair_does_not_count_as_feedback(self):
        outcome = self.run(replay("{'age': 31, 'sex': 'M'}"))
        assert isinstance(outcome, ExtractionRecord)
        assert outcome.vorc_iterations == 0
        assert [a.kind for a in outcome.repairs] == ["single_to_double_quotes"]

    def test_trailing_note_needs_no_correction(self):
        note = "\nNote: blood pressure is charted as {systolic}/{diastolic} in mm Hg."
        provider = replay('Output JSON:\n{"age": 31, "sex": "M"}' + note)
        outcome = self.run(provider)
        assert isinstance(outcome, ExtractionRecord)
        assert outcome.vorc_iterations == 0
        assert outcome.repairs == []
        assert outcome.values == {"age": 31, "sex": "M"}

    def test_unclosed_brace_in_prose_needs_no_correction(self):
        calls = []

        class CountingProvider:
            inner = replay(STRAY_BRACE_REPLY, '{"age": 99, "sex": "F"}')

            def complete(self, request):
                calls.append(request.prompt)
                return self.inner.complete(request)

        outcome = self.run(CountingProvider())
        assert isinstance(outcome, ExtractionRecord)
        assert len(calls) == 1
        assert outcome.vorc_iterations == 0
        assert outcome.repairs == []
        assert outcome.values == {"age": 31, "sex": "M"}

    def test_echoed_example_does_not_replace_answer(self):
        outcome = self.run(replay(ECHOED_EXAMPLE_REPLY))
        assert isinstance(outcome, ExtractionRecord)
        assert outcome.vorc_iterations == 0
        assert outcome.values["age"] == 63
        assert [a.kind for a in outcome.repairs] == ["single_to_double_quotes",
                                                     "extract_json_substring"]

    def test_json_correction_prompt_counts(self):
        outcome = self.run(replay("not json at all", '{"age": 31, "sex": "M"}'))
        assert isinstance(outcome, ExtractionRecord)
        assert outcome.vorc_iterations == 1

    def test_type_correction_prompt_counts(self):
        outcome = self.run(replay('{"age": "unknown-value", "sex": "M"}',
                                  '{"age": 31, "sex": "M"}'))
        assert isinstance(outcome, ExtractionRecord)
        assert outcome.vorc_iterations == 1

    def test_budget_exhaustion(self):
        outcome = self.run(replay(*(["garbage"] * 4)), budget=3)
        assert isinstance(outcome, VorcFailure)
        assert outcome.reason == "budget-exhausted"
        assert outcome.vorc_iterations == 3

    def test_zero_budget_fails_immediately(self):
        outcome = self.run(replay("garbage"), budget=0)
        assert isinstance(outcome, VorcFailure)
        assert outcome.vorc_iterations == 0

    def test_unparseable_failure_detail(self):
        outcome = self.run(replay("garbage", "{age: 31, sex: M}"), budget=1)
        assert isinstance(outcome, VorcFailure)
        assert outcome.vorc_iterations == 1
        assert outcome.detail == ("unparseable response: invalid JSON at position 1: "
                                  "Expecting property name enclosed in double quotes: "
                                  "line 1 column 2 (char 1)")
        assert outcome.violations is None

    def test_validation_failure_detail(self):
        outcome = self.run(replay("garbage", '{"age": "old", "sex": "X", "bp": 1}'),
                           budget=1)
        assert isinstance(outcome, VorcFailure)
        assert outcome.vorc_iterations == 1
        assert outcome.detail == ("validation failed: key 'bp' is not part of the schema; "
                                  "age: cannot interpret 'old' as a number; "
                                  "sex: 'X' is not one of the allowed values: M, F")
        assert outcome.violations == [
            Violation("bp", "unknown-extra-key", "key 'bp' is not part of the schema", 1),
            Violation("age", "type-mismatch", "age: cannot interpret 'old' as a number", "old"),
            Violation("sex", "unknown-category",
                      "sex: 'X' is not one of the allowed values: M, F", "X")]

    def test_empty_reply_gets_a_correction_prompt(self):
        captured = []

        class SpyProvider:
            inner = replay("", '{"age": 31, "sex": "M"}')

            def complete(self, request):
                captured.append(request.prompt)
                return self.inner.complete(request)

        outcome = self.run(SpyProvider())
        assert isinstance(outcome, ExtractionRecord)
        assert outcome.vorc_iterations == 1
        assert outcome.values == {"age": 31, "sex": "M"}
        assert "Response:\n\n\nError:\nno JSON object found in the response" in captured[1]

    def test_correction_prompt_embeds_original(self):
        captured = []

        class SpyProvider:
            def __init__(self):
                self.inner = replay("garbage", '{"age": 31, "sex": "M"}')

            def complete(self, request):
                captured.append(request.prompt)
                return self.inner.complete(request)

        self.run(SpyProvider())
        assert len(captured) == 2
        assert captured[0] in captured[1]
        assert "garbage" in captured[1]


class TestExtractCorpus:
    def fixture(self, tmp_path, parallelism):
        corpus_path, replay_path, template_dir = vorc_fixture_files(tmp_path)
        schema = small_schema()
        from medtab.prompts import load_templates
        bundle = load_templates(template_dir, schema)
        provider = configure_provider("replay", {"script": replay_path})
        reports = [(d["id"], d["text"]) for d in
                   map(json.loads, corpus_path.read_text().splitlines())]
        return extract_corpus(provider, reports, schema, bundle, 3, parallelism)

    def test_call_rate_and_counts(self, tmp_path):
        result = self.fixture(tmp_path, 1)
        assert result.stats.n_reports == 10
        assert result.stats.n_records == 9
        assert result.stats.n_failures == 1
        assert result.stats.vorc_call_rate == pytest.approx(0.3)

    def test_order_preserved_under_parallelism(self, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        serial = self.fixture(tmp_path / "a", 1)
        parallel = self.fixture(tmp_path / "b", 4)
        ids_serial = [o.source_id for o in serial.outcomes]
        ids_parallel = [o.source_id for o in parallel.outcomes]
        assert ids_serial == ids_parallel == [f"r{i:02d}" for i in range(10)]
        for a, b in zip(serial.outcomes, parallel.outcomes):
            assert type(a) is type(b)
            if isinstance(a, ExtractionRecord):
                assert a.values == b.values
                assert a.vorc_iterations == b.vorc_iterations

    def test_call_rate_counts_reports_with_a_correction_prompt(self):
        assert call_rate([0, 1, 3, 0]) == 0.5
        assert call_rate([0, 0]) == 0.0
        assert call_rate([]) is None

    def test_empty_corpus(self):
        schema = small_schema()
        bundle = bundle_for(schema, {"age": 40, "sex": "M"})
        result = extract_corpus(replay(), [], schema, bundle, 3)
        assert result.stats.n_reports == 0
        assert result.stats.vorc_call_rate is None

    def test_all_records_failing_is_not_fatal(self):
        schema = small_schema()
        bundle = bundle_for(schema, {"age": 40, "sex": "M"})
        provider = replay(*(["nope"] * 8))
        result = extract_corpus(provider, [("a", "r1"), ("b", "r2")], schema, bundle, 3)
        assert result.stats.n_records == 0
        assert result.stats.n_failures == 2

    def test_duplicate_ids_rejected(self):
        schema = small_schema()
        bundle = bundle_for(schema, {"age": 40, "sex": "M"})
        with pytest.raises(ValueError, match="unique"):
            extract_corpus(replay(), [("a", "r"), ("a", "r")], schema, bundle, 3)

    @pytest.mark.parametrize("budget, parallelism, message", [
        (-1, 1, "budget must be >= 0"), (3, 0, "parallelism must be >= 1")])
    def test_bad_budget_or_parallelism_rejected_before_any_call(self, budget, parallelism,
                                                                message):
        schema = small_schema()
        bundle = bundle_for(schema, {"age": 40, "sex": "M"})
        provider = ScriptedProvider({"<report 0>": ['{"age": 1, "sex": "F"}']})
        with pytest.raises(ValueError, match=message):
            extract_corpus(provider, [("r0", "<report 0>")], schema, bundle, budget, parallelism)
        assert provider.sent == []

    def test_empty_reply_does_not_abort_the_corpus(self):
        schema = small_schema()
        bundle = bundle_for(schema, {"age": 40, "sex": "M"})
        provider = replay("", '{"age": 1, "sex": "F"}', '{"age": 2, "sex": "M"}')
        result = extract_corpus(provider, [("a", "r1"), ("b", "r2")], schema, bundle, 3)
        assert [o.vorc_iterations for o in result.records] == [1, 0]
        assert result.stats.n_failures == 0

    def test_provider_error_collected_per_record(self):
        schema = small_schema()
        bundle = bundle_for(schema, {"age": 40, "sex": "M"})
        provider = replay('{"age": 1, "sex": "F"}')  # second record exhausts the script
        result = extract_corpus(provider, [("a", "r1"), ("b", "r2")], schema, bundle, 3)
        assert result.stats.n_records == 1
        assert result.failures[0].reason == "provider-error"

    def test_provider_error_mid_chain_keeps_the_record_cost(self):
        # a repaired reply with a bad value, a correction prompt, then a failed call
        schema = small_schema()
        bundle = bundle_for(schema, {"age": 40, "sex": "M"})
        provider = ScriptedProvider({"<report 0>": [
            _REPLY_KINDS["repaired-bad-value"]({"age": 40, "sex": "M"}),
            ProviderError("scripted provider failure")]})
        result = extract_corpus(provider, [("r0", "<report 0> Patient note.")], schema, bundle, 2)
        failure, = result.failures
        assert (failure.reason, failure.detail) == ("provider-error", "scripted provider failure")
        assert len(provider.sent) == 2
        entry, = provenance_entries(result)
        assert (entry["vorc_iterations"], entry["status"]) == (1, "failed")
        assert [r["kind"] for r in entry["repairs"]] == ["single_to_double_quotes"]
        assert result.stats.vorc_call_rate == 1.0

    def test_provenance_entries_in_order(self, tmp_path):
        result = self.fixture(tmp_path, 1)
        entries = provenance_entries(result)
        assert [e["id"] for e in entries] == [f"r{i:02d}" for i in range(10)]
        assert entries[9]["status"] == "failed"
        assert entries[6]["repairs"][0]["kind"] == "single_to_double_quotes"
        assert all(set(e) == {"id", "vorc_iterations", "repairs", "status"} for e in entries)


# Scripted reply kinds for the whole-loop property: each takes the report's
# values and gives the reply text, or the ProviderError the call raises.
_REPLY_KINDS = {
    "clean": json.dumps,
    "fenced": lambda values: f"```json\n{json.dumps(values)}\n```",
    "single-quoted": lambda values: json.dumps(values).replace('"', "'"),
    "trailing-comma": lambda values: json.dumps(values)[:-1] + ",}",
    "prose": lambda values: f"Reasoning: the note gives both.\nOutput JSON:\n{json.dumps(values)}",
    "bad-value": lambda values: json.dumps({**values, "age": "old"}),
    "repaired-bad-value": lambda values: json.dumps({**values, "sex": "X"}).replace('"', "'"),
    "unrepairable": lambda values: "I cannot find structured data.",
    "provider-error": lambda values: ProviderError("scripted provider failure"),
}


class ScriptedProvider:
    """Replies by report: a prompt holds one report's marker, and gets that
    report's next scripted reply, so the order in which reports run does not
    matter. Every prompt is kept with its marker, in the order sent."""

    def __init__(self, scripts: dict):
        self.pending = {marker: list(replies) for marker, replies in scripts.items()}
        self.sent = []

    def complete(self, request):
        marker = next(m for m in self.pending if m in request.prompt)
        self.sent.append((marker, request.prompt))
        reply = self.pending[marker].pop(0)
        if isinstance(reply, ProviderError):
            raise reply
        return CompletionResult(text=reply, provider_id="scripted", latency_ms=0, attempt_count=1)

    def prompts_by_report(self) -> dict:
        return {m: [p for marker, p in self.sent if marker == m] for m in self.pending}


def outcome_fields(outcome) -> tuple:
    """An outcome as comparable data: its type, id, iterations and repairs,
    then its values by repr, or its reason, detail and violations."""
    head = (type(outcome).__name__, outcome.source_id, outcome.vorc_iterations,
            [(a.kind, a.span) for a in outcome.repairs])
    if isinstance(outcome, ExtractionRecord):
        return head + ([(name, repr(v)) for name, v in outcome.values.items()],)
    return head + (outcome.reason, outcome.detail, None if outcome.violations is None else
                   [(v.key, v.reason, v.message, repr(v.received)) for v in outcome.violations])


@st.composite
def scripted_corpora(draw):
    """``(budget, reports, scripts)``: up to four reports, each with values
    for the small schema and one scripted reply kind per call the loop can
    make at that budget."""
    budget = draw(st.integers(0, 3))
    reports, scripts = [], {}
    for i in range(draw(st.integers(1, 4))):
        marker = f"<report {i}>"
        values = {"age": draw(st.integers(0, 120) | st.none()), "sex": draw(st.sampled_from("MF"))}
        kinds = draw(st.lists(st.sampled_from(sorted(_REPLY_KINDS)), min_size=budget + 1,
                              max_size=budget + 1))
        reports.append((f"r{i}", f"{marker} Patient note."))
        scripts[marker] = [_REPLY_KINDS[kind](values) for kind in kinds]
    return budget, reports, scripts


class TestWholeLoopAgainstReference:
    """``extract_corpus`` against the reference loop of tests/helpers.py,
    which calls only the parse, repair, validate and correction-prompt
    oracles: the same outcomes, provenance, stats and prompts, report by
    report, at parallelism 1 and 3."""

    @settings(max_examples=150, deadline=None)
    @given(scripted_corpora(), st.sampled_from([1, 3]))
    @example((2, [("r0", "<report 0> Patient note.")],
              {"<report 0>": ['{"age": "old", "sex": "M"}', "I cannot find structured data.",
                              ProviderError("scripted provider failure")]}), 1)
    def test_equals_reference_loop(self, corpus, parallelism):
        budget, reports, scripts = corpus
        schema = small_schema()
        bundle = bundle_for(schema, {"age": 40, "sex": "M"})
        provider, reference = ScriptedProvider(scripts), ScriptedProvider(scripts)
        result = extract_corpus(provider, reports, schema, bundle, budget, parallelism)
        want = oracle.extract_by_reference(reference, reports, schema, bundle, budget)
        assert list(map(outcome_fields, result.outcomes)) == list(map(outcome_fields, want))
        assert provenance_entries(result) == [{
            "id": o.source_id, "vorc_iterations": o.vorc_iterations,
            "repairs": [{"kind": a.kind, "span": list(a.span)} for a in o.repairs],
            "status": "ok" if isinstance(o, ExtractionRecord) else "failed"} for o in want]
        n_failed = sum(isinstance(o, VorcFailure) for o in want)
        assert (result.stats.n_records, result.stats.n_failures) == (len(want) - n_failed,
                                                                     n_failed)
        assert provider.prompts_by_report() == reference.prompts_by_report()
        if parallelism == 1:
            assert provider.sent == reference.sent
