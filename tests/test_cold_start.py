"""Each side loads without the other. A fresh interpreter imports the CLI
and the table layer without numpy, the model code or the extraction code.
``prompt-preview`` and ``extract`` run, and write the same bytes, with numpy
made unimportable, and ``prompt-preview`` with ``vorc`` and ``llm`` made
unimportable; ``train``, ``evaluate`` and ``compare`` do so with ``vorc``,
``llm`` and ``prompts`` made unimportable."""

import json
import os
import subprocess
import sys

import pytest

from helpers import ROOT, SCHEMAS, TEMPLATES
from test_input_mutations import _demo_module

# Run the CLI in a fresh interpreter; importing a module named in the
# comma-separated first argument raises.
RUN_CLI = """import sys
for name in filter(None, sys.argv[1].split(",")):
    sys.modules[name] = None
from medtab.cli import main
main(sys.argv[2:], prog_name="medtab")
"""
EXTRACTION = ("medtab.vorc", "medtab.llm", "medtab.prompts")


def python(*args) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          timeout=120)


def test_cli_and_tables_import_without_numpy_or_the_models():
    done = python("-c", "import sys, medtab.cli, medtab.dataset; print(sorted(name for name in "
                        "('numpy', 'medtab.models', 'medtab.evalkit', 'medtab.encoding') "
                        "if name in sys.modules))")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_cli_imports_without_the_extraction_code():
    done = python("-c", f"import sys, medtab.cli; print(sorted(name for name in {EXTRACTION!r} "
                        "if name in sys.modules))")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def outputs_with_and_without(blocked, out_dir, args) -> dict:
    """``{mode: (stdout, {file name: bytes})}`` of one command run with the
    ``blocked`` modules unimportable and run normally, each writing under
    its own directory, which stdout names as ``<out>``."""
    outputs = {}
    for mode in ("blocked", "normal"):
        out = out_dir / mode
        done = python("-c", RUN_CLI, ",".join(blocked) if mode == "blocked" else "",
                      "--output-dir", str(out), *map(str, args))
        assert done.returncode == 0, done.stderr
        files = sorted(out.iterdir()) if out.exists() else []
        outputs[mode] = (done.stdout.replace(str(out), "<out>"),
                         {path.name: path.read_bytes() for path in files})
    return outputs


@pytest.fixture(scope="module")
def heart_fixture(tmp_path_factory):
    """The pipeline demo's heart corpus and replay script."""
    d = tmp_path_factory.mktemp("heart")
    _demo_module().build_fixture(d)
    return d


@pytest.mark.parametrize("command", ["prompt-preview", "extract"])
def test_extraction_commands_run_without_numpy(heart_fixture, tmp_path, command):
    args = {"prompt-preview": ["prompt-preview", "--report-text", "A 54-year-old man."],
            "extract": ["extract", "--corpus", heart_fixture / "corpus.jsonl",
                        "--replay", heart_fixture / "replay.json"]}[command]
    outputs = outputs_with_and_without(["numpy"], tmp_path, [
        *args, "--schema", SCHEMAS / "heart.schema.json", "--templates", TEMPLATES / "heart"])
    assert outputs["blocked"] == outputs["normal"]
    if command == "extract":
        stdout, files = outputs["blocked"]
        assert stdout.startswith("extracted 40/40 records")
        assert set(files) == {"extracted.csv", "provenance.jsonl", "extract_stats.json"}
        assert json.loads(files["extract_stats.json"])["n_records"] == 40


def test_prompt_preview_runs_without_vorc_or_llm(tmp_path):
    outputs = outputs_with_and_without(["medtab.vorc", "medtab.llm"], tmp_path, [
        "prompt-preview", "--report-text", "A 54-year-old man.",
        "--schema", SCHEMAS / "heart.schema.json", "--templates", TEMPLATES / "heart"])
    assert outputs["blocked"] == outputs["normal"]
    assert outputs["normal"][0].endswith("Medical report: A 54-year-old man.\n")


@pytest.fixture(scope="module")
def modeling_fixture(heart_fixture):
    """The demo corpus extracted, and a model with its split trained on the
    demo's truth table, by normal runs."""
    d = heart_fixture / "modeling"
    for args in (["extract", "--corpus", heart_fixture / "corpus.jsonl",
                  "--replay", heart_fixture / "replay.json", "--templates", TEMPLATES / "heart"],
                 ["train", "--data", heart_fixture / "truth.csv", "--family", "dtree"]):
        done = python("-c", RUN_CLI, "", "--output-dir", str(d), *map(str, args),
                      "--schema", str(SCHEMAS / "heart.schema.json"))
        assert done.returncode == 0, done.stderr
    return d


@pytest.mark.parametrize("command", ["train", "evaluate", "compare"])
def test_modeling_commands_run_without_the_extraction_code(heart_fixture, modeling_fixture,
                                                             tmp_path, command):
    truth = heart_fixture / "truth.csv"
    args = {"train": ["train", "--data", truth, "--family", "logreg"],
            "evaluate": ["evaluate", "--model", modeling_fixture / "model_dtree.json",
                         "--data", truth, "--split", modeling_fixture / "split.json"],
            "compare": ["compare", "--truth", truth,
                        "--extracted", modeling_fixture / "extracted.csv", "--family", "dtree"],
            }[command]
    outputs = outputs_with_and_without(EXTRACTION, tmp_path, [
        "--json", *args, "--schema", SCHEMAS / "heart.schema.json"])
    assert outputs["blocked"] == outputs["normal"]
    stdout, files = outputs["blocked"]
    if command == "train":
        assert set(files) == {"model_logreg.json", "grid_report.csv", "split.json"}
    else:
        assert not files and json.loads(stdout)["report_version"] == 1
