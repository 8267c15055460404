#!/usr/bin/env python3
"""Seeded input generator for the perfbench workloads.

Uses the standard library only and never imports medtab: the program under
test receives nothing but the files written here. The same seed always gives
byte-identical files.

    python3 perfbench/gen.py --workload extract-replay --seed 3 --out /tmp/inputs

Run it from the root of a checkout, which holds data/heart.csv.

Files per workload (all under --out):

    extract-replay   corpus.jsonl, replay.json   (program inputs)
                     truth.csv                   (program input: the scoring truth)
                     expect.json                 (benchmark only: scripted outcome per report)
    train-hepatitis  plan.json                   (split seeds, one per round)
    compare-heart    corrupted.csv, copy.csv     (program inputs: extracted-table stand-ins)
                     plan.json                   (split seeds, one per compare)

The make-up of each workload is fixed by the constants below and recorded in
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import csv
import json
import random
from pathlib import Path

HEART_FEATURES = ("Age", "Sex", "ChestPainType", "RestingBP", "Cholesterol", "FastingBS",
                  "RestingECG", "MaxHR", "ExerciseAngina", "Oldpeak", "ST_Slope")
HEART_INTEGER = ("Age", "RestingBP", "Cholesterol", "MaxHR")
HEART_CATEGORIES = {
    "Sex": ("M", "F"),
    "ChestPainType": ("TA", "ATA", "NAP", "ASY"),
    "FastingBS": ("0", "1"),
    "RestingECG": ("Normal", "ST", "LVH"),
    "ExerciseAngina": ("Y", "N"),
    "ST_Slope": ("Up", "Flat", "Down"),
}
# Upper limits for corrupted integers (MaxHR's is the schema range's top).
HEART_INT_MAX = {"Age": 99, "RestingBP": 200, "Cholesterol": 450, "MaxHR": 202}

# extract-replay: reports per corpus and the number of each scripted kind.
# The mix is assumed, not taken from logged provider replies: it covers every
# repair and correction path and costs about 1.35 calls per report.
N_REPORTS = 800
REPLY_MIX = (
    # kind, count, scripted provider calls
    ("clean", 432, 1),
    ("repair-fence-comma", 27, 1),
    ("repair-single-quotes", 27, 1),
    ("repair-bare-keys", 27, 1),
    ("repair-trailing-comma", 27, 1),
    ("repair-python-none", 26, 1),
    ("repair-nan", 26, 1),
    ("unparseable-then-good", 56, 2),
    ("type-maxhr-then-good", 32, 2),
    ("type-category-then-good", 32, 2),
    ("exhaust-budget", 32, 4),
    ("fault-trailing-note", 28, 2),
    ("fault-brace-in-prose", 28, 2),
)
# Kinds whose report leaves Cholesterol unmeasured (truth cell empty).
MISSING_CHOLESTEROL = ("repair-python-none", "repair-nan")
# Kinds that cost a correction today only because of a parser fault; a fixed
# parser may take one call instead of the scripted two.
FAULT_KINDS = ("fault-trailing-note", "fault-brace-in-prose")

# compare-heart: share of rows missing from the corrupted table, share of
# remaining cells changed, and share of changed cells that become empty.
DROP_RATE = 0.02
CORRUPT_RATE = 0.06
CORRUPT_TO_MISSING = 0.2

# Split seeds listed per run; rounds use them in order.
N_SPLIT_SEEDS = 256


def read_heart(root: Path) -> list[dict]:
    with (root / "data" / "heart.csv").open(newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def typed_payload(row: dict) -> dict:
    """The row as the JSON object a model should answer with (None = null)."""
    out = {}
    for name in HEART_FEATURES:
        cell = row[name]
        if cell == "":
            out[name] = None
        elif name in HEART_INTEGER:
            out[name] = int(cell)
        elif name == "Oldpeak":
            out[name] = float(cell)
        else:
            out[name] = cell
    return out


_PAIN_TEXT = {
    "TA": "substernal pressure on exertion that eases with rest, typical of angina",
    "ATA": "chest discomfort with some but not all features of angina",
    "NAP": "sharp chest pain unrelated to exertion, judged non-anginal",
    "ASY": "exertional chest discomfort without accompanying symptoms",
}
_ECG_TEXT = {
    "Normal": "normal sinus rhythm without ST-T abnormality or hypertrophy",
    "ST": "ST-T wave abnormality with T wave inversions",
    "LVH": "voltage criteria for left ventricular hypertrophy",
}
_SLOPE_TEXT = {"Up": "sloped upward", "Flat": "stayed flat", "Down": "sloped downward"}


def report_text(marker: str, row: dict, rng: random.Random) -> str:
    sex = "man" if row["Sex"] == "M" else "woman"
    diastolic = rng.randint(60, 95)
    sugar = rng.randint(121, 180) if row["FastingBS"] == "1" else rng.randint(75, 120)
    if row["Cholesterol"] == "":
        labs = "Total cholesterol was not measured at this visit."
    else:
        labs = f"Total cholesterol {row['Cholesterol']} mg/dl, HDL {rng.randint(30, 70)}."
    angina = "with" if row["ExerciseAngina"] == "Y" else "without"
    return (
        f"{marker} REASON FOR VISIT: Evaluation of chest discomfort.\n"
        f"HISTORY: The patient is a {row['Age']}-year-old {sex} who reports "
        f"{_PAIN_TEXT[row['ChestPainType']]}.\n"
        f"VITAL SIGNS: Blood pressure {row['RestingBP']}/{diastolic} mm Hg at rest, "
        f"pulse {rng.randint(55, 100)}.\n"
        f"LABORATORY DATA: {labs} Fasting blood sugar {sugar} mg/dL.\n"
        f"ELECTROCARDIOGRAM: Resting tracing shows {_ECG_TEXT[row['RestingECG']]}.\n"
        f"EXERCISE STUDY: Peak heart rate {row['MaxHR']} beats per minute {angina} "
        f"exercise-induced angina. ST depression of {row['Oldpeak']} mm was recorded and "
        f"the ST segment {_SLOPE_TEXT[row['ST_Slope']]} at peak exercise."
    )


def reasoning(row: dict, stray_brace: bool = False) -> str:
    """Per-feature rationale in the style of templates/heart/example_reasoning.txt.

    The prose holds no braces (unless ``stray_brace``), no capitalised Python
    literals and balanced double quotes, so only the JSON object is at stake.
    """
    chol = ('The laboratory data say cholesterol was not measured, therefore "Cholesterol": null.'
            if row["Cholesterol"] == "" else
            f'The laboratory data list total cholesterol of {row["Cholesterol"]} mg/dl, '
            f'therefore "Cholesterol": {row["Cholesterol"]}.')
    bp = (f'The vital signs give the pressure as {row["RestingBP"]} over the diastolic value '
          f'and the systolic figure is reported, therefore "RestingBP": {row["RestingBP"]}.')
    if stray_brace:
        bp = (f'The vital signs give the pressure as {row["RestingBP"]} {{systolic first '
              f'and the systolic figure is reported, therefore "RestingBP": {row["RestingBP"]}.')
    lines = [
        f'The history describes a {row["Age"]}-year-old patient, therefore "Age": {row["Age"]}.',
        f'The patient is referred to as a {"man" if row["Sex"] == "M" else "woman"}, '
        f'therefore "Sex": "{row["Sex"]}".',
        f'The chest pain description fits this category, therefore '
        f'"ChestPainType": "{row["ChestPainType"]}".',
        bp,
        chol,
        f'The fasting blood sugar is compared with the 120 mg/dL cutoff, therefore '
        f'"FastingBS": {row["FastingBS"]}.',
        f'The resting tracing is read as described, therefore "RestingECG": "{row["RestingECG"]}".',
        f'The peak heart rate on the treadmill is recorded, therefore "MaxHR": {row["MaxHR"]}.',
        f'The exercise study notes whether angina appeared, therefore '
        f'"ExerciseAngina": "{row["ExerciseAngina"]}".',
        f'The exercise study recorded ST depression relative to baseline, therefore '
        f'"Oldpeak": {row["Oldpeak"]}.',
        f'The ST segment slope at peak exercise is given, therefore "ST_Slope": "{row["ST_Slope"]}".',
    ]
    return "Reasoning:\n" + "\n".join(lines) + "\n"


def _with_prose(row: dict, json_text: str, stray_brace: bool = False) -> str:
    return reasoning(row, stray_brace) + "Output JSON:\n" + json_text


def scripted_replies(kind: str, row: dict, rng: random.Random) -> list[str]:
    """The provider replies for one report, in the order they are served."""
    payload = typed_payload(row)
    good = json.dumps(payload)
    if kind == "clean":
        return [_with_prose(row, good)]
    if kind == "repair-fence-comma":
        return [_with_prose(row, "```json\n" + good[:-1] + ",}\n```")]
    if kind == "repair-single-quotes":
        return [_with_prose(row, good.replace('"', "'"))]
    if kind == "repair-bare-keys":
        bare = good
        for name in HEART_FEATURES:
            bare = bare.replace(f'"{name}":', f"{name}:")
        return [_with_prose(row, bare)]
    if kind == "repair-trailing-comma":
        return [_with_prose(row, good[:-1] + ",\n}")]
    if kind == "repair-python-none":
        return [_with_prose(row, good.replace("null", "None"))]
    if kind == "repair-nan":
        return [_with_prose(row, good.replace("null", "NaN"))]
    if kind == "unparseable-then-good":
        return [_with_prose(row, good[:len(good) // 2]), good]
    if kind == "type-maxhr-then-good":
        wrong = dict(payload, MaxHR=rng.choice((rng.randint(210, 260), rng.randint(20, 50))))
        return [_with_prose(row, json.dumps(wrong)), good]
    if kind == "type-category-then-good":
        wrong = dict(payload, ChestPainType="typical angina")
        return [_with_prose(row, json.dumps(wrong)), good]
    if kind == "exhaust-budget":
        refusal = "The report does not contain enough information to fill the schema."
        return [refusal, _with_prose(row, good[:len(good) // 3]), refusal, good[:len(good) // 2]]
    if kind == "fault-trailing-note":
        note = "\nNote: blood pressure is charted as {systolic}/{diastolic} in mm Hg."
        return [_with_prose(row, good) + note, good]
    if kind == "fault-brace-in-prose":
        return [_with_prose(row, good, stray_brace=True), good]
    raise ValueError(f"unknown reply kind {kind!r}")


def write_csv(path: Path, header: list[str], rows: list[list[str]]) -> None:
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def split_seeds(rng: random.Random) -> list[int]:
    return [rng.randrange(1, 2 ** 31) for _ in range(N_SPLIT_SEEDS)]


def gen_extract_replay(root: Path, out: Path, rng: random.Random) -> None:
    heart = read_heart(root)
    rows = rng.sample(heart, N_REPORTS)
    kinds = [kind for kind, count, _ in REPLY_MIX for _ in range(count)]
    assert len(kinds) == N_REPORTS
    rng.shuffle(kinds)
    calls = {kind: n for kind, _, n in REPLY_MIX}
    corpus, replay, expect, truth = [], [], [], []
    for k, (row, kind) in enumerate(zip(rows, kinds)):
        row = dict(row)
        if kind in MISSING_CHOLESTEROL:
            row["Cholesterol"] = ""
        marker = f"[rpt-{k:05d}]"
        corpus.append({"id": row["id"], "text": report_text(marker, row, rng)})
        replies = scripted_replies(kind, row, rng)
        assert len(replies) == calls[kind]
        replay.extend({"match_substring": marker, "response": r} for r in replies)
        expect.append({"id": row["id"], "marker": marker, "kind": kind,
                       "calls": len(replies),
                       "min_calls": 1 if kind in FAULT_KINDS else len(replies),
                       "outcome": "failed" if kind == "exhaust-budget" else "record"})
        truth.append([row["id"]] + [row[f] for f in HEART_FEATURES] + [row["HeartDisease"]])
    (out / "corpus.jsonl").write_text("".join(json.dumps(c) + "\n" for c in corpus),
                                      encoding="utf-8")
    (out / "replay.json").write_text(json.dumps(replay), encoding="utf-8")
    (out / "expect.json").write_text(json.dumps(expect), encoding="utf-8")
    write_csv(out / "truth.csv", ["id", *HEART_FEATURES, "HeartDisease"], truth)


def _corrupt_cell(name: str, cell: str, rng: random.Random) -> str:
    if rng.random() < CORRUPT_TO_MISSING:
        return ""
    if name in HEART_CATEGORIES:
        return rng.choice([c for c in HEART_CATEGORIES[name] if c != cell])
    if name == "Oldpeak":
        value = float(cell) + rng.choice((-1, 1)) * rng.choice((0.5, 1.0, 1.5))
        return f"{value:.1f}"
    value, delta = int(cell), rng.randint(3, 20)
    # Move down instead when moving up would pass the limit; no value near a
    # limit is within 20 of the bottom of its range.
    return str(value + delta if value + delta <= HEART_INT_MAX[name] else value - delta)


def gen_compare_heart(root: Path, out: Path, rng: random.Random) -> None:
    heart = read_heart(root)
    corrupted, copy = [], []
    for row in heart:
        cells = [row[f] for f in HEART_FEATURES]
        copy.append([row["id"], *cells])
        if rng.random() < DROP_RATE:
            continue
        cells = [_corrupt_cell(f, c, rng) if rng.random() < CORRUPT_RATE else c
                 for f, c in zip(HEART_FEATURES, cells)]
        corrupted.append([row["id"], *cells])
    write_csv(out / "corrupted.csv", ["id", *HEART_FEATURES], corrupted)
    write_csv(out / "copy.csv", ["id", *HEART_FEATURES], copy)
    (out / "plan.json").write_text(json.dumps({"split_seeds": split_seeds(rng)}), encoding="utf-8")


def gen_train_hepatitis(root: Path, out: Path, rng: random.Random) -> None:
    (out / "plan.json").write_text(json.dumps({"split_seeds": split_seeds(rng)}), encoding="utf-8")


GENERATORS = {
    "extract-replay": gen_extract_replay,
    "train-hepatitis": gen_train_hepatitis,
    "compare-heart": gen_compare_heart,
}


def generate(workload: str, seed: int, root: Path, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    GENERATORS[workload](root, out, random.Random(f"{workload}:{seed}"))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(GENERATORS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    generate(args.workload, args.seed, Path.cwd(), args.out)


if __name__ == "__main__":
    main()
