import json
import re
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

import helpers as oracle  # holds the correction builders and render before the frames
from helpers import TEMPLATES, bundle_for, small_schema

from medtab.prompts import (DEFAULT_MAX_PROMPT_CHARS, OneShotExample, PromptBundle, PromptError,
                            TRUNCATION_MARKER, build_fewshot_classifier_prompt,
                            build_json_correction_prompt,
                            build_type_correction_prompt, load_templates, truncate_middle)
from medtab.schema import LabelSpec, Violation, snake_name


@pytest.fixture(scope="module")
def heart_bundle(heart_schema):
    return load_templates(TEMPLATES / "heart", heart_schema)


class TestRextractPrompt:
    def test_heart_example_reasoning_present(self, heart_schema, heart_bundle):
        prompt = heart_bundle.render("Patient report goes here.")
        assert 'therefore "Age": 63' in prompt
        assert "Here is the output JSON schema:" in prompt
        assert "When generating JSON instance follow this format:" in prompt
        assert "Here is an example of a process:" in prompt

    def test_every_feature_name_in_prompt(self, heart_schema, heart_bundle):
        prompt = heart_bundle.render("x")
        for f in heart_schema.features:
            assert snake_name(f.title) in prompt

    def test_report_slot_at_end(self, heart_bundle):
        prompt = heart_bundle.render("x")
        assert prompt.endswith("Medical report: x")

    def test_deterministic(self, heart_bundle):
        report = "Some report."
        assert heart_bundle.render(report) == heart_bundle.render(report)

    def test_extract_only_removes_exactly_the_reasoning_block(self, heart_bundle):
        report = "Some report."
        full = heart_bundle.render(report)
        ablated = heart_bundle.without_reasoning().render(report)
        block = heart_bundle.reasoning_block()
        assert block and block in full
        assert full.replace(block, "") == ablated

    def test_extract_only_keeps_other_sections(self, heart_bundle):
        ablated = heart_bundle.without_reasoning().render("x")
        for heading in ("Here is the output JSON schema:",
                        "When generating JSON instance follow this format:",
                        "Here is an example of a process:"):
            assert heading in ablated

    def test_example_must_validate_against_schema(self, tmp_path, heart_schema):
        for name in ("example_report.txt", "example_reasoning.txt"):
            (tmp_path / name).write_text((TEMPLATES / "heart" / name).read_text())
        (tmp_path / "example_output.json").write_text(json.dumps({"Age": "not a number"}))
        with pytest.raises(PromptError, match="does not validate against the schema"):
            load_templates(tmp_path, heart_schema)

    @pytest.mark.parametrize("text, message", [
        ('{"Age": ' + "9" * 5000 + "}", "Exceeds the limit"),
        ('{"Age": ' + "[" * 100_000 + "]" * 100_000 + "}", "maximum recursion depth"),
        ('{"Age": 1', "Expecting"),
    ], ids=["5000-digit-integer", "nested-too-deep", "not-json"])
    def test_example_output_that_cannot_decode_names_the_file(self, tmp_path, heart_schema,
                                                               text, message):
        """json raises a plain ValueError and RecursionError for the first two."""
        for name in ("example_report.txt", "example_reasoning.txt"):
            (tmp_path / name).write_text((TEMPLATES / "heart" / name).read_text())
        (tmp_path / "example_output.json").write_text(text)
        with pytest.raises(PromptError, match=re.escape(
                f"{tmp_path / 'example_output.json'}: example output is not valid JSON: "
                f"{message}")):
            load_templates(tmp_path, heart_schema)

    def test_empty_report_rejected(self, heart_bundle):
        with pytest.raises(PromptError):
            heart_bundle.render("")

    def test_missing_template_file(self, tmp_path, heart_schema):
        with pytest.raises(PromptError, match="missing template file"):
            load_templates(tmp_path, heart_schema)

    @pytest.mark.parametrize("name", ["example_report.txt", "example_reasoning.txt",
                                      "example_output.json", "instructions.txt",
                                      "guidelines.txt"])
    def test_template_file_that_is_not_utf8_names_the_file(self, tmp_path, heart_schema, name):
        for each in ("example_report.txt", "example_reasoning.txt", "example_output.json"):
            (tmp_path / each).write_bytes((TEMPLATES / "heart" / each).read_bytes())
        (tmp_path / name).write_bytes(b"text\xff")
        with pytest.raises(PromptError) as raised:
            load_templates(tmp_path, heart_schema)
        assert str(raised.value) == (f"{tmp_path / name}: 'utf-8' codec can't decode byte 0xff "
                                     "in position 4: invalid start byte")


class TestTruncation:
    def test_untouched_below_limit(self):
        assert truncate_middle("abc", 10) == "abc"

    @pytest.mark.parametrize("length,limit", [(100, 50), (1000, 999), (1000, 100),
                                              (5000, 4096), (37, 36)])
    def test_truncated_length_is_exactly_limit(self, length, limit):
        text = "".join(chr(ord("a") + i % 26) for i in range(length))
        out = truncate_middle(text, limit)
        # oracle: head + marker + tail arithmetic
        budget = limit - len(TRUNCATION_MARKER)
        head = (budget + 1) // 2
        tail = budget - head
        assert len(out) == limit
        assert out == text[:head] + TRUNCATION_MARKER + text[-tail:]

    def test_correction_prompt_respects_max_chars(self):
        response = "y" * 50000
        prompt = build_json_correction_prompt("P" * 100, response, "some error",
                                              max_chars=2000)
        assert len(prompt) == 2000
        assert TRUNCATION_MARKER in prompt

    def test_correction_prompt_untouched_when_small(self):
        prompt = build_json_correction_prompt("P", "resp", "err")
        assert len(prompt) < DEFAULT_MAX_PROMPT_CHARS
        assert TRUNCATION_MARKER not in prompt


class TestJsonCorrectionPrompt:
    def test_embeds_all_three_inputs_verbatim(self):
        prompt = build_json_correction_prompt("THE PROMPT", "not json", "expected '}'")
        assert "THE PROMPT" in prompt
        assert "not json" in prompt
        assert "expected '}'" in prompt

    def test_braces_preserved_unescaped(self):
        prompt = build_json_correction_prompt("p", "r", 'error near {"a": 1}')
        assert '{"a": 1}' in prompt

    def test_empty_input_rejected(self):
        with pytest.raises(PromptError):
            build_json_correction_prompt("", "r", "e")

    def test_empty_error_rejected(self):
        with pytest.raises(PromptError):
            build_json_correction_prompt("p", "r", "")

    def test_empty_response_accepted(self):
        prompt = build_json_correction_prompt("THE PROMPT", "", "no JSON object found")
        assert prompt.startswith("Your previous answer could not be parsed as JSON.\n")
        assert "THE PROMPT\n\nResponse:\n\n\nError:\nno JSON object found\n" in prompt


class TestTypeCorrectionPrompt:
    def test_range_violation_names_key_and_bounds(self, heart_schema):
        violations = [Violation(key="max_hr", reason="out-of-range",
                                message="MaxHR: 250 outside the expected range "
                                        "between 60 and 202", received=250)]
        prompt = build_type_correction_prompt("orig", '{"max_hr": 250}', violations)
        assert "max_hr" in prompt
        assert "between 60 and 202" in prompt

    def test_two_violations_in_input_order(self):
        violations = [Violation("b_key", "type-mismatch", "bad b", "x"),
                      Violation("a_key", "type-mismatch", "bad a", "y")]
        prompt = build_type_correction_prompt("orig", "{}", violations)
        assert prompt.index("b_key") < prompt.index("a_key")

    def test_categorical_violation_lists_allowed_values(self):
        violations = [Violation("sex", "unknown-category",
                                "Sex: 'x' is not one of the allowed values: M, F", "x")]
        prompt = build_type_correction_prompt("orig", '{"sex": "x"}', violations)
        assert "M, F" in prompt

    def test_empty_violations_rejected(self):
        with pytest.raises(PromptError):
            build_type_correction_prompt("orig", "{}", [])


texts = st.text(min_size=1, max_size=150) | st.text(alphabet='ab {}"\n', min_size=1, max_size=150)
violations = st.lists(st.builds(Violation, key=st.text(max_size=8),
                                reason=st.just("type-mismatch"), message=st.text(max_size=20),
                                received=st.none() | st.integers() | st.text(max_size=5)),
                      min_size=1, max_size=4)


def any_limit(data, full: str) -> int:
    """A limit from 0 to past the untruncated prompt: the response alone, or
    the original prompt as well, gets truncated, or nothing does."""
    return data.draw(st.integers(0, len(full) + 10) | st.just(DEFAULT_MAX_PROMPT_CHARS))


class TestCorrectionPromptsAgainstOracle:
    """Both builders against their separate versions in tests/helpers.py."""

    @settings(max_examples=300, deadline=None)
    @given(texts, texts, texts, st.data())
    def test_json_correction_equals_oracle(self, original, response, error, data):
        full = oracle.build_json_correction_prompt(original, response, error, 10**9)
        max_chars = any_limit(data, full)
        assert build_json_correction_prompt(original, response, error, max_chars) == \
            oracle.build_json_correction_prompt(original, response, error, max_chars)

    @settings(max_examples=300, deadline=None)
    @given(texts, texts, violations, st.data())
    def test_type_correction_equals_oracle(self, original, response, found, data):
        full = oracle.build_type_correction_prompt(original, response, found, 10**9)
        max_chars = any_limit(data, full)
        assert build_type_correction_prompt(original, response, found, max_chars) == \
            oracle.build_type_correction_prompt(original, response, found, max_chars)


class TestFewshotPrompt:
    LABEL = LabelSpec(name="outcome", positive_value="yes", negative_value="no")

    def test_ten_shots_plus_empty_slot(self):
        shots = [(f"report {i}", "yes" if i % 2 else "no") for i in range(10)]
        prompt = build_fewshot_classifier_prompt(shots, "query report", self.LABEL)
        assert prompt.count("Answer:") == 11
        assert prompt.endswith("Answer:")

    def test_single_shot(self):
        prompt = build_fewshot_classifier_prompt([("r", "yes")], "q", self.LABEL)
        assert prompt.count("Answer:") == 2

    def test_invalid_label_rejected(self):
        with pytest.raises(PromptError, match="label"):
            build_fewshot_classifier_prompt([("r", "maybe")], "q", self.LABEL)

    def test_zero_shots_rejected(self):
        with pytest.raises(PromptError):
            build_fewshot_classifier_prompt([], "q", self.LABEL)

    def test_too_many_shots_rejected(self):
        shots = [("r", "yes")] * 33
        with pytest.raises(PromptError):
            build_fewshot_classifier_prompt(shots, "q", self.LABEL)


class TestBundleHelpers:
    def test_small_schema_bundle_renders(self):
        schema = small_schema()
        bundle = bundle_for(schema, {"age": 40, "sex": "M"})
        prompt = bundle.render("Report body.")
        assert prompt.endswith("Medical report: Report body.")
        assert '"age"' in prompt

    def test_schema_block_placeholder_substituted(self):
        schema = small_schema()
        bundle = bundle_for(schema, {"age": 40, "sex": "M"})
        bundle = replace(bundle, instructions="Fill {{SCHEMA_BLOCK}} here.")
        prompt = bundle.render("x")
        assert "{{SCHEMA_BLOCK}}" not in prompt
        assert prompt.startswith("Fill {\"properties\":")

    def test_report_placeholder_substituted_once(self):
        schema = small_schema()
        bundle = bundle_for(schema, {"age": 40, "sex": "M"})
        assert "{{REPORT}}" not in bundle.render("the report body")
        assert bundle.render("the report body").count("the report body") == 1


# Template and report text around the two placeholders, and pieces of them.
_TEMPLATE_TEXT = st.lists(st.sampled_from(["{{REPORT}}", "{{SCHEMA_BLOCK}}", "{{", "}}", "{",
                                           "REPORT", "x", " ", "\n", "{{REPORT}}}"]),
                          max_size=6).map("".join)


class TestRenderAgainstOracle:
    """``render`` joins the report into the frame the bundle built once; the
    per-call body and its two replaces (tests/helpers.py) are the oracle."""

    @settings(max_examples=500, deadline=None)
    @given(instructions=_TEMPLATE_TEXT, schema_block=_TEMPLATE_TEXT, report_text=_TEMPLATE_TEXT,
           reasoning=_TEMPLATE_TEXT, output=_TEMPLATE_TEXT, guidelines=_TEMPLATE_TEXT,
           report=_TEMPLATE_TEXT.filter(bool))
    @example(instructions="{{REPORT}} {{SCHEMA_BLOCK}}", schema_block="{{REPORT}}",
             report_text="", reasoning="", output="", guidelines="",
             report="{{SCHEMA_BLOCK}}{{REPORT}}")
    def test_equals_oracle(self, instructions, schema_block, report_text, reasoning, output,
                           guidelines, report):
        bundle = PromptBundle(instructions=instructions, schema_block=schema_block,
                              example=OneShotExample(report_text, reasoning, output),
                              reasoning_guidelines=guidelines)
        for b in (bundle, bundle.without_reasoning(), replace(bundle, instructions="i")):
            assert b.render(report) == oracle.render(b, report)

    def test_heart_bundle_equals_oracle(self, heart_bundle):
        for report in ("Patient report goes here.", "{{SCHEMA_BLOCK}} and {{REPORT}}"):
            assert heart_bundle.render(report) == oracle.render(heart_bundle, report)
            ablated = heart_bundle.without_reasoning()
            assert ablated.render(report) == oracle.render(ablated, report)
