"""The extraction side loads without the modeling side: a fresh interpreter
imports the CLI and the table layer without numpy or the model code, and
``prompt-preview`` and ``extract`` run, and write the same bytes, with numpy
made unimportable."""

import json
import os
import subprocess
import sys

import pytest

from helpers import ROOT, SCHEMAS, TEMPLATES
from test_input_mutations import _demo_module

# Run the CLI in a fresh interpreter; with "blocked", ``import numpy`` raises.
RUN_CLI = """import sys
if sys.argv[1] == "blocked":
    sys.modules["numpy"] = None
from medtab.cli import main
main(sys.argv[2:], prog_name="medtab")
"""


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
    outputs = {}
    for mode in ("blocked", "normal"):
        out = tmp_path / mode
        done = python("-c", RUN_CLI, mode, "--output-dir", str(out), *map(str, args),
                      "--schema", str(SCHEMAS / "heart.schema.json"),
                      "--templates", str(TEMPLATES / "heart"))
        assert done.returncode == 0, done.stderr
        files = sorted(out.iterdir()) if out.exists() else []
        outputs[mode] = done.stdout, {path.name: path.read_bytes() for path in files}
    assert outputs["blocked"] == outputs["normal"]
    if command == "extract":
        stdout, files = outputs["blocked"]
        assert stdout.startswith("extracted 40/40 records")
        assert set(files) == {"extracted.csv", "provenance.jsonl", "extract_stats.json"}
        assert json.loads(files["extract_stats.json"])["n_records"] == 40
