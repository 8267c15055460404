"""Prompt assembly: extraction prompts with a worked example and reasoning
guidelines, correction prompts for the validation loop, and the few-shot
classification prompt.

Section headings and the fixed format text are frozen: downstream extraction
quality is conditioned on these exact strings, so do not edit them casually.
Editable content (the worked example, the per-feature reasoning guidelines)
lives in external template files, one directory per schema::

    <templates>/<schema_name>/
        instructions.txt      (optional, defaults to DEFAULT_INSTRUCTIONS)
        example_report.txt
        example_reasoning.txt
        example_output.json
        guidelines.txt        (optional, empty means no extra guidance)

Template files may reference {{SCHEMA_BLOCK}}; the rendered prompt ends with
``REPORT_SLOT``, the report substituted into its {{REPORT}} slot. The format
text (``FORMAT_SECTION``) and the report slot are the same for every bundle,
and the few-shot prompt takes 1 to ``MAX_SHOTS`` examples. A bundle builds
its prompt frame once, when it is made, with {{SCHEMA_BLOCK}} substituted;
``render`` only joins the report into the frame's {{REPORT}} slots.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path

from .schema import ExtractionSchema, LabelSpec, emit_json_schema_block

DEFAULT_INSTRUCTIONS = (
    "The output JSON should be formatted as a JSON instance that conforms to the "
    "JSON schema from Pydantic.\n"
    "\n"
    'As an example, for the schema {"properties": {"foo": {"title": "Foo", '
    '"description": "a list of strings", "type": "array", "items": {"type": '
    '"string"}}}, "required": ["foo"]}}\n'
    'the object {"foo": ["bar", "baz"]} is a well-formatted instance of the schema. '
    'The object {"properties": {"foo": ["bar", "baz"]}} is not well-formatted.'
)

FORMAT_SECTION = (
    "When generating JSON instance follow this format:\n"
    "\n"
    "Medical report: the input medical report from which you should extract JSON instance.\n"
    "Reasoning: give me an explanation of how you assign value for a given key. "
    "Thinking step by step for each key before assigning a value to it.\n"
    "Output JSON: The final output JSON should be formatted as a JSON instance "
    "that conforms to the output JSON schema above."
)

SCHEMA_HEADING = "Here is the output JSON schema:"
EXAMPLE_HEADING = "Here is an example of a process:"
SEPARATOR = "-" * 80
REPORT_SLOT = "Medical report: {{REPORT}}"
MAX_SHOTS = 32

DEFAULT_MAX_PROMPT_CHARS = 14000
TRUNCATION_MARKER = "\n[... truncated ...]\n"


class PromptError(ValueError):
    """Bad prompt inputs: missing template files, example/schema mismatch."""


@dataclass(frozen=True)
class OneShotExample:
    """Worked extraction example: a report, per-feature rationale, and its JSON."""

    report_text: str
    reasoning_text: str
    output_json_text: str

    def without_reasoning(self) -> "OneShotExample":
        return replace(self, reasoning_text="")


@dataclass(frozen=True)
class PromptBundle:
    """The per-schema pieces of an extraction prompt; the format text, the
    headings and the report slot are the same for every schema."""

    instructions: str
    schema_block: str
    example: OneShotExample
    reasoning_guidelines: str
    # the prompt with {{SCHEMA_BLOCK}} substituted, cut at every {{REPORT}}
    _frame: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def reasoning_block(self) -> str:
        """The removable reasoning section; empty when both sources are empty."""
        parts = [p for p in (self.reasoning_guidelines, self.example.reasoning_text) if p]
        if not parts:
            return ""
        return "Reasoning:\n" + "\n".join(parts) + "\n\n"

    def __post_init__(self):
        body = "\n".join([
            self.instructions, "", SCHEMA_HEADING, "```", self.schema_block, "```", "",
            FORMAT_SECTION, "", EXAMPLE_HEADING, "", "Medical report:", self.example.report_text,
            "", f"{self.reasoning_block()}Output JSON:", self.example.output_json_text, "",
            SEPARATOR, "", REPORT_SLOT])
        frame = body.replace("{{SCHEMA_BLOCK}}", self.schema_block).split("{{REPORT}}")
        object.__setattr__(self, "_frame", tuple(frame))

    def render(self, report: str) -> str:
        """The extraction prompt for ``report``: the frame with the report in
        every ``{{REPORT}}`` slot. A report is inserted as it is, so a
        ``{{SCHEMA_BLOCK}}`` in it stays as written."""
        if not report:
            raise PromptError("report must be nonempty")
        return report.join(self._frame)

    def without_reasoning(self) -> "PromptBundle":
        """Ablated bundle: drops guidelines and the example rationale, nothing else."""
        return replace(self, reasoning_guidelines="", example=self.example.without_reasoning())


def _check_example(example: OneShotExample, schema: ExtractionSchema, path: Path) -> None:
    """PromptError, naming ``path``, unless the example output decodes as JSON
    and validates; text nested too deep, or holding an integer of too many
    digits, does not decode."""
    try:
        obj = json.loads(example.output_json_text)
    except (ValueError, RecursionError) as e:
        raise PromptError(f"{path}: example output is not valid JSON: {e}") from e
    from .vorc import validate_record  # local import, vorc depends on this module

    result = validate_record(obj, schema)
    if result.violations:
        details = "; ".join(v.message for v in result.violations)
        raise PromptError(f"{path}: example output does not validate against the schema: "
                          f"{details}")


def load_templates(template_dir: str | Path, schema: ExtractionSchema) -> PromptBundle:
    """Load a per-schema template directory into a renderable bundle."""
    template_dir = Path(template_dir)
    if not template_dir.is_dir():
        raise PromptError(f"template directory not found: {template_dir}")

    def read_required(name: str) -> str:
        p = template_dir / name
        if not p.is_file():
            raise PromptError(f"missing template file: {p}")
        return p.read_text(encoding="utf-8").strip("\n")

    def read_optional(name: str, default: str = "") -> str:
        p = template_dir / name
        return p.read_text(encoding="utf-8").strip("\n") if p.is_file() else default

    example = OneShotExample(
        report_text=read_required("example_report.txt"),
        reasoning_text=read_required("example_reasoning.txt"),
        output_json_text=read_required("example_output.json"),
    )
    _check_example(example, schema, template_dir / "example_output.json")
    return PromptBundle(
        instructions=read_optional("instructions.txt", DEFAULT_INSTRUCTIONS),
        schema_block=emit_json_schema_block(schema),
        example=example,
        reasoning_guidelines=read_optional("guidelines.txt"),
    )


def truncate_middle(text: str, limit: int) -> str:
    """Cap ``text`` at ``limit`` characters, keeping head and tail around a marker.

    When truncation happens the result is exactly ``limit`` characters long
    (provided the limit leaves room for the marker plus one character per side).
    """
    if len(text) <= limit:
        return text
    budget = limit - len(TRUNCATION_MARKER)
    if budget < 2:
        return text[:max(limit, 0)]
    head = (budget + 1) // 2
    tail = budget - head
    return text[:head] + TRUNCATION_MARKER + text[-tail:]


def _fit_sections(front: str, middle: str, back: str, max_chars: int) -> tuple[str, str]:
    """Shrink middle (then front) so front+middle+back fits in max_chars."""
    fixed = len(front) + len(back)
    if fixed + len(middle) <= max_chars:
        return front, middle
    middle = truncate_middle(middle, max(max_chars - fixed, 0))
    if fixed + len(middle) > max_chars:
        front = truncate_middle(front, max(max_chars - len(back) - len(middle), 0))
    return front, middle


def _correction_prompt(opening: str, original_prompt: str, response: str, heading: str,
                       body: str, closing: str, max_chars: int) -> str:
    """The frame both correction prompts share: the opening line, the original
    prompt, the response (truncated first to fit ``max_chars``), then the
    heading, its body and the closing request."""
    front = f"{opening}\n\nOriginal prompt:\n{original_prompt}\n\nResponse:\n"
    back = f"\n\n{heading}:\n{body}\n\n{closing}"
    front, response = _fit_sections(front, response, back, max_chars)
    return front + response + back


def build_json_correction_prompt(original_prompt: str, response: str, error: str,
                                 max_chars: int = DEFAULT_MAX_PROMPT_CHARS) -> str:
    """Ask the model to re-emit JSON after a parse failure, showing it the
    original prompt, its response (which may be empty), and the error."""
    if not (original_prompt and error):
        raise PromptError("original prompt and error must be nonempty")
    return _correction_prompt(
        "Your previous answer could not be parsed as JSON.", original_prompt, response,
        "Error", error,
        "Extract the JSON data once more. Respond with only the corrected JSON "
        "instance and nothing else.", max_chars)


def build_type_correction_prompt(original_prompt: str, response_json: str,
                                 violations: list,
                                 max_chars: int = DEFAULT_MAX_PROMPT_CHARS) -> str:
    """Ask the model to fix specific key values; one line per violation.

    ``violations`` holds objects with ``key`` and ``message`` attributes and
    an optional ``received`` value, as record validation produces them; a
    line shows the received value when it is not None. Input order is
    preserved.
    """
    if not violations:
        raise PromptError("violations must be nonempty")
    lines = []
    for v in violations:
        received = getattr(v, "received", None)
        shown = "" if received is None else f" (received {received!r})"
        lines.append(f"- {v.key}{shown}: {v.message}")
    return _correction_prompt(
        "Your previous answer contained values that do not conform to the expected "
        "key types.", original_prompt, response_json,
        "Errors", "\n".join(lines),
        "Make the necessary corrections. Respond with only the corrected JSON "
        "instance and nothing else.", max_chars)


def check_shots(shots: list[tuple[str, str]], label_spec: LabelSpec) -> None:
    """PromptError unless there are 1 to ``MAX_SHOTS`` shots, each labeled with
    one of the label's two values."""
    if not 1 <= len(shots) <= MAX_SHOTS:
        raise PromptError(f"need between 1 and {MAX_SHOTS} shots, got {len(shots)}")
    valid = {label_spec.positive_value, label_spec.negative_value}
    for _, shot_label in shots:
        if shot_label not in valid:
            raise PromptError(f"shot label {shot_label!r} is not one of {sorted(valid)}")


def build_fewshot_classifier_prompt(shots: list[tuple[str, str]], report: str,
                                    label_spec: LabelSpec) -> str:
    """K labeled report/answer pairs followed by the query and an empty answer
    slot; the shots are checked by ``check_shots``."""
    check_shots(shots, label_spec)
    parts = [
        f"Classify each medical report. Answer with exactly one of: "
        f"{label_spec.positive_value} or {label_spec.negative_value}.",
        "",
    ]
    for shot_report, shot_label in shots:
        parts += [f"Medical report: {shot_report}", f"Answer: {shot_label}", ""]
    parts += [f"Medical report: {report}", "Answer:"]
    return "\n".join(parts)
