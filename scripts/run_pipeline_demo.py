#!/usr/bin/env python3
"""Offline end-to-end pipeline demo on the heart schema.

Builds a 40-report corpus whose ground truth comes from data/heart.csv,
scripts a replay provider that answers with those rows as JSON (including a
few malformed responses that exercise rule repairs and one correction
prompt), then drives the CLI: extract -> compare, then train -> evaluate for
each model family. Everything runs without network access.
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


def cli(args):
    """Run one ``python -m medtab.cli`` command with ``src/`` first on its path."""
    cmd = [sys.executable, "-m", "medtab.cli", *args]
    print("+", " ".join(str(a) for a in cmd))
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    subprocess.run([str(a) for a in cmd], check=True, env={**os.environ, "PYTHONPATH": path})


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


def main():
    workdir = ROOT / "demo_output"
    truth_path = build_fixture(workdir)
    schema = ROOT / "schemas/heart.schema.json"
    templates = ROOT / "templates/heart"

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
    print(f"\nDemo artifacts under {workdir}/")


if __name__ == "__main__":
    main()
