"""Every input file the pipeline demo reads fails closed: with one JSON value
changed, the command that reads it exits 0, 2 or 3, never with a traceback;
so does ``evaluate`` on a heart table with one cell, line or byte changed."""

import functools
import importlib.util
import json

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from helpers import DATA, ROOT, SCHEMAS, TEMPLATES, json_places, json_replaced

from medtab.cli import main

MUTANTS = [None, True, 5, 5.5, -1, 1000, 10 ** 400, "x", [], {}]
FAMILIES = ("logreg", "dtree", "gbdt")
HEART = SCHEMAS / "heart.schema.json"


def _demo_module():
    spec = importlib.util.spec_from_file_location("run_pipeline_demo",
                                                  ROOT / "scripts" / "run_pipeline_demo.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def demo(tmp_path_factory):
    """The demo's files, made once: its corpus, replay script and truth
    table, then the provenance of extracting them, a heart model of each
    family and their split, a config file, a few shots and the heart schema."""
    d = tmp_path_factory.mktemp("demo")
    truth = _demo_module().build_fixture(d)
    runner = CliRunner()
    for args in [["--output-dir", d, "extract", "--schema", HEART,
                  "--templates", TEMPLATES / "heart", "--corpus", d / "corpus.jsonl",
                  "--replay", d / "replay.json"]] + [
                 ["--output-dir", d, "--seed", "7", "train", "--data", DATA / "heart.csv",
                  "--schema", HEART, "--family", family] for family in FAMILIES]:
        result = runner.invoke(main, [str(a) for a in args])
        assert result.exit_code == 0, result.output
    (d / "config.json").write_text(json.dumps({
        "schema": str(HEART), "templates": str(TEMPLATES / "heart"),
        "corpus": str(d / "corpus.jsonl"), "output_dir": "out", "seed": 3, "budget": 3,
        "parallelism": 1, "provider": {"kind": "replay", "script": str(d / "replay.json")}}))
    texts = [json.loads(line)["text"] for line in (d / "corpus.jsonl").open()]
    labels = [line.rsplit(",", 1)[1] for line in truth.read_text().splitlines()[1:]]
    (d / "shots.jsonl").write_text("".join(json.dumps({"text": text, "label": label}) + "\n"
                                           for text, label in zip(texts[:3], labels)))
    (d / "heart.schema.json").write_text(HEART.read_text())
    return d


def _commands(d):
    """Input file: the command that reads it, with ``{}`` for its path."""
    extract = ["--output-dir", "out", "extract", "--schema", HEART, "--templates",
               TEMPLATES / "heart"]
    evaluate = ["evaluate", "--data", DATA / "heart.csv", "--schema", HEART]
    return {
        "heart.schema.json": ["prompt-preview", "--schema", "{}", "--templates",
                              TEMPLATES / "heart", "--report-text", "A 54-year-old man."],
        **{f"model_{family}.json": evaluate + ["--model", "{}", "--split", d / "split.json"]
           for family in FAMILIES},
        "split.json": evaluate + ["--model", d / "model_dtree.json", "--split", "{}"],
        "config.json": ["--config", "{}", "extract"],
        "corpus.jsonl": extract + ["--corpus", "{}", "--replay", d / "replay.json"],
        "replay.json": extract + ["--corpus", d / "corpus.jsonl", "--replay", "{}"],
        "provenance.jsonl": ["--seed", "3", "compare", "--truth", d / "truth.csv",
                             "--extracted", d / "extracted.csv", "--provenance", "{}",
                             "--schema", HEART, "--family", "logreg"],
        "shots.jsonl": ["--output-dir", "out", "fewshot", "--schema", HEART, "--shots", "{}",
                        "--corpus", d / "corpus.jsonl", "--replay", d / "replay.json"],
    }


@functools.cache
def _document(path):
    """The file's JSON document (for JSON lines, the list of its lines'
    documents) and the paths of the values a mutation may change: a JSON-lines
    file is a list of documents, not one, so its lines change, not the list."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".jsonl":
        doc = [json.loads(line) for line in text.splitlines()]
        return doc, [p for p in json_places(doc) if p]
    doc = json.loads(text)
    return doc, list(json_places(doc))


@pytest.mark.parametrize("name", ["heart.schema.json", "model_logreg.json", "model_dtree.json",
                                  "model_gbdt.json", "split.json", "config.json", "corpus.jsonl",
                                  "replay.json", "provenance.jsonl", "shots.jsonl"])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_one_changed_value_exits_0_2_or_3_without_a_traceback(demo, name, data):
    doc, paths = _document(demo / name)
    lines = name.endswith(".jsonl")
    path = data.draw(st.sampled_from(paths), label="path")
    new = data.draw(st.sampled_from(MUTANTS), label="value")
    changed = json_replaced(doc, path, new)
    runner = CliRunner()
    with runner.isolated_filesystem():  # outputs, a changed output_dir too, go here
        with open(name, "w", encoding="utf-8") as fh:
            fh.write("".join(json.dumps(line) + "\n" for line in changed) if lines
                     else json.dumps(changed))
        args = [name if a == "{}" else str(a) for a in _commands(demo)[name]]
        result = runner.invoke(main, args)
    assert result.exit_code in (0, 2, 3), result.exc_info
    if result.exit_code:
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1, \
            result.stderr


CELL_MUTANTS = ["", "x", "-1", "1e400", "\x00", '"', "x" * 200_000]


@st.composite
def _changed_heart_csv(draw):
    """heart.csv with one cell set to a mutant, one line with a cell dropped
    or added, or one byte replaced by 0xff."""
    data = (DATA / "heart.csv").read_bytes()
    kind = draw(st.sampled_from(["cell", "width", "byte"]), label="kind")
    if kind == "byte":
        at = draw(st.integers(0, len(data) - 1), label="byte")
        return data[:at] + b"\xff" + data[at + 1:]
    lines = data.split(b"\r\n")
    i = draw(st.integers(0, len(lines) - 2), label="line")
    cells = lines[i].split(b",")
    j = draw(st.integers(0, len(cells) - 1), label="column")
    if kind == "cell":
        cells[j] = draw(st.sampled_from(CELL_MUTANTS), label="value").encode()
    elif draw(st.booleans(), label="drop"):
        del cells[j]
    else:
        cells.insert(j, b"x")
    lines[i] = b",".join(cells)
    return b"\r\n".join(lines)


@given(changed=_changed_heart_csv())
@settings(max_examples=30, deadline=None)
def test_one_changed_csv_cell_line_or_byte_exits_0_or_2(demo, changed):
    runner = CliRunner()
    with runner.isolated_filesystem():
        with open("heart.csv", "wb") as fh:
            fh.write(changed)
        result = runner.invoke(main, ["evaluate", "--data", "heart.csv", "--schema", str(HEART),
                                      "--model", str(demo / "model_dtree.json"),
                                      "--split", str(demo / "split.json")])
    assert result.exit_code in (0, 2), result.exc_info
    if result.exit_code:
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1, \
            result.stderr
