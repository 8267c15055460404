#!/usr/bin/env python3
"""Offline end-to-end pipeline demo on the heart schema.

Builds a 40-report corpus whose ground truth comes from data/heart.csv,
scripts a replay provider that answers with those rows as JSON (including a
few malformed responses that exercise rule repairs and one correction
prompt), then drives the CLI: prompt-preview (with and without reasoning),
extract -> compare, train -> evaluate for each model family, and the
few-shot baseline on a labeled copy of the corpus, then three commands on
damaged inputs (a CSV cell over csv's size limit, a report that is not UTF-8,
a model file whose column list lost an entry), each of which must exit 2 with
one error line naming the file. Everything runs without network access.
"""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from medtab.models import FAMILIES  # noqa: E402

N_REPORTS = 40


def cli(args, check: bool = True):
    """Run one ``python -m medtab.cli`` command with ``src/`` first on its path;
    with ``check``, one that must exit 0, else one whose output is captured."""
    cmd = [sys.executable, "-m", "medtab.cli", *args]
    print("+", " ".join(str(a) for a in cmd))
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([str(a) for a in cmd], check=check, capture_output=not check,
                          text=True, env={**os.environ, "PYTHONPATH": path})


def cli_fails(args, damaged: Path):
    """Run one command that must exit 2 with exactly one stderr line, an
    ``error: `` line naming ``damaged``."""
    result = cli(args, check=False)
    print(result.stderr, end="")
    if (result.returncode != 2 or result.stderr.count("\n") != 1
            or not result.stderr.startswith("error: ") or str(damaged) not in result.stderr):
        sys.exit(f"expected exit 2 and one error line naming {damaged}, got exit "
                 f"{result.returncode}:\n{result.stdout}{result.stderr}")


def build_fixture(workdir: Path):
    workdir.mkdir(parents=True, exist_ok=True)
    with (ROOT / "data/heart.csv").open(newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        rows = [next(reader) for _ in range(N_REPORTS)]

    truth_path = workdir / "truth.csv"
    with truth_path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)

    corpus, replay = [], []
    for i, row in enumerate(rows):
        marker = f"[case-{i:02d}]"
        corpus.append({"id": row["id"],
                       "text": f"{marker} {row['Age']}-year-old patient, narrative report."})
        payload = {k: (float(v) if k == "Oldpeak" else int(v) if k in
                       ("Age", "RestingBP", "Cholesterol", "MaxHR") else v)
                   for k, v in row.items() if k not in ("id", "HeartDisease")}
        text = json.dumps(payload)
        if i == 3:  # single quotes: fixed by a rule, no model feedback
            replay.append({"match_substring": marker,
                           "response": "Output JSON:\n" + text.replace('"', "'")})
        elif i == 5:  # first answer unusable: one correction prompt
            replay.append({"match_substring": marker, "response": "unable to comply"})
            replay.append({"match_substring": marker, "response": text})
        else:
            replay.append({"match_substring": marker, "response": f"Output JSON:\n{text}"})

    (workdir / "corpus.jsonl").write_text(
        "\n".join(json.dumps(c) for c in corpus) + "\n", encoding="utf-8")
    (workdir / "replay.json").write_text(json.dumps(replay, indent=1), encoding="utf-8")
    return truth_path


def write_fewshot_files(workdir: Path, truth_path: Path) -> None:
    """Shots from the heart rows after the corpus's, the corpus with each
    report's gold label, and a replay script of label answers: most name the
    gold label, one by its first line, one wrongly, and one abstains. The
    shots carry no ``[case-NN]`` marker, so each answer matches one report."""
    with (ROOT / "data/heart.csv").open(newline="", encoding="utf-8") as fh:
        later = list(csv.DictReader(fh))[N_REPORTS:N_REPORTS + 4]
    (workdir / "shots.jsonl").write_text("".join(
        json.dumps({"text": f"{row['Age']}-year-old patient, narrative report.",
                    "label": row["HeartDisease"]}) + "\n" for row in later), encoding="utf-8")
    with truth_path.open(newline="", encoding="utf-8") as fh:
        gold = {row["id"]: row["HeartDisease"] for row in csv.DictReader(fh)}
    corpus = [json.loads(line) for line in
              (workdir / "corpus.jsonl").read_text(encoding="utf-8").splitlines()]
    replay = []
    for i, doc in enumerate(corpus):
        doc["label"] = gold[doc["id"]]
        answer = {1: f"{doc['label']}\nbecause of the narrative", 2: "unsure",
                  3: "1" if doc["label"] == "0" else "0"}.get(i, doc["label"])
        replay.append({"match_substring": f"[case-{i:02d}]", "response": answer})
    (workdir / "labeled_corpus.jsonl").write_text(
        "".join(json.dumps(doc) + "\n" for doc in corpus), encoding="utf-8")
    (workdir / "fewshot_replay.json").write_text(json.dumps(replay, indent=1), encoding="utf-8")


def main():
    workdir = ROOT / "demo_output"
    truth_path = build_fixture(workdir)
    schema = ROOT / "schemas/heart.schema.json"
    templates = ROOT / "templates/heart"

    report = json.loads((workdir / "corpus.jsonl").read_text(encoding="utf-8").split("\n")[0])
    (workdir / "report.txt").write_text(report["text"] + "\n", encoding="utf-8")
    for ablation in ([], ["--no-reasoning"]):
        cli(["prompt-preview", "--schema", schema, "--templates", templates,
             "--report", workdir / "report.txt", *ablation])
    cli(["--output-dir", workdir, "extract",
         "--schema", schema, "--templates", templates,
         "--corpus", workdir / "corpus.jsonl", "--replay", workdir / "replay.json"])
    cli(["--seed", "3", "compare",
         "--truth", truth_path, "--extracted", workdir / "extracted.csv",
         "--provenance", workdir / "provenance.jsonl",
         "--schema", schema, "--family", "dtree"])
    for family in FAMILIES:  # each model file is saved, then loaded by a fresh process
        cli(["--output-dir", workdir, "--seed", "7", "train",
             "--data", ROOT / "data/heart.csv", "--schema", schema, "--family", family])
        cli(["evaluate", "--model", workdir / f"model_{family}.json",
             "--data", ROOT / "data/heart.csv", "--schema", schema,
             "--split", workdir / "split.json"])

    write_fewshot_files(workdir, truth_path)
    cli(["--output-dir", workdir, "fewshot", "--schema", schema,
         "--shots", workdir / "shots.jsonl", "--corpus", workdir / "labeled_corpus.jsonl",
         "--replay", workdir / "fewshot_replay.json"])
    with (workdir / "fewshot_labels.csv").open(newline="", encoding="utf-8") as fh:
        if not any(row["predicted"] and row["gold"] for row in csv.DictReader(fh)):
            sys.exit("fewshot scored no report")

    # Damaged inputs: each command exits 2 with one error line naming the file.
    lines = (ROOT / "data/heart.csv").read_text(encoding="utf-8").split("\n")
    lines[1] = lines[1].replace(",M,", ',"' + "M" * 200_000 + '",', 1)
    long_cell = workdir / "heart_long_cell.csv"
    long_cell.write_text("\n".join(lines), encoding="utf-8")
    cli_fails(["evaluate", "--model", workdir / "model_dtree.json", "--data", long_cell,
               "--schema", schema, "--split", workdir / "split.json"], long_cell)
    latin1 = workdir / "report_latin1.txt"
    latin1.write_bytes(report["text"].encode("utf-8") + " caf\xe9.\n".encode("latin-1"))
    cli_fails(["prompt-preview", "--schema", schema, "--templates", templates,
               "--report", latin1], latin1)
    model = json.loads((workdir / "model_logreg.json").read_text(encoding="utf-8"))
    model["columns"].pop()
    short_columns = workdir / "model_short_columns.json"
    short_columns.write_text(json.dumps(model), encoding="utf-8")
    cli_fails(["evaluate", "--model", short_columns, "--data", ROOT / "data/heart.csv",
               "--schema", schema, "--split", workdir / "split.json"], short_columns)
    print(f"\nDemo artifacts under {workdir}/")


if __name__ == "__main__":
    main()
