#!/usr/bin/env python3
"""Byte-identity gate for the response parser and rule repair.

For the extract-replay inputs that ``perfbench/gen.py`` generates at seeds
1, 2, 3 and 7, hashes what the parser and the repair rules make of every
scripted reply, what the ``extract`` command writes for the corpus, and every
prompt it sends. Prints one line per seed with four sha256 digests:

* ``replies``: for every reply, in script order, the ``parse_response``
  result (or the ``ParseFailure`` kind and message), the ``repair_json``
  text and its ``RepairAction`` list (or ``UnrepairableError``), the
  ``_answer_span`` result, and the ``validate_record`` result against the
  heart schema of the object the loop reads from the reply (parsed, else
  repaired): every value with its repr, and every violation's key, reason
  and message;
* ``extract``: ``provenance.jsonl``, ``extracted.csv`` and
  ``extract_stats.json`` of one ``extract`` run (replay provider,
  ``--budget 3``, ``--parallelism 1``);
* ``prompts``: every prompt the replay provider receives during that run,
  in order, correction prompts included;
* ``n``: the number of replies hashed, and ``calls`` the number of prompts.

The last line digests all the others. A change to the parser, the repair
rules or the correction prompts that keeps every output byte for byte prints
the same lines before and after:

    python3 scripts/repair_hashes.py > after.txt   # run in each checkout, then diff
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import gen  # noqa: E402
from medtab import llm, vorc  # noqa: E402
from medtab.cli import main as cli_main  # noqa: E402
from medtab.schema import load_schema  # noqa: E402

SEEDS = (1, 2, 3, 7)
OUTPUTS = ("provenance.jsonl", "extracted.csv", "extract_stats.json")
SCHEMA = load_schema(ROOT / "schemas" / "heart.schema.json")


def reply_bytes(raw: str) -> bytes:
    obj = None
    try:
        obj = vorc.parse_response(raw)
        parsed = ["ok", obj]
    except vorc.ParseFailure as e:
        parsed = ["fail", e.kind, str(e)]
    try:
        text, actions = vorc.repair_json(raw)
        repaired = ["ok", text, [[a.kind, list(a.span)] for a in actions]]
        if obj is None:
            obj = vorc._strict_loads(text)
    except vorc.UnrepairableError as e:
        repaired = ["unrepairable", str(e)]
    span = vorc._answer_span(raw)
    validated = None
    if obj is not None:
        result = vorc.validate_record(obj, SCHEMA)
        validated = [[[name, repr(value)] for name, value in result.values.items()],
                     [[v.key, v.reason, v.message] for v in result.violations]]
    return json.dumps([parsed, repaired, span, validated], sort_keys=True).encode()


def extract_digests(inputs: Path, out: Path) -> tuple[str, str, int]:
    """Digests of the ``extract`` outputs and of the prompts it sent, and the
    number of prompts."""
    args = ["--output-dir", out, "extract",
            "--schema", ROOT / "schemas" / "heart.schema.json",
            "--templates", ROOT / "templates" / "heart",
            "--corpus", inputs / "corpus.jsonl",
            "--replay", inputs / "replay.json",
            "--budget", 3, "--parallelism", 1]
    prompts = hashlib.sha256()
    calls = 0
    complete = llm.ReplayProvider.complete

    def recording(self, request):
        nonlocal calls
        prompts.update(hashlib.sha256(request.prompt.encode()).digest())
        calls += 1
        return complete(self, request)

    llm.ReplayProvider.complete = recording
    try:
        with redirect_stdout(io.StringIO()):
            cli_main.main(args=[str(a) for a in args], prog_name="medtab", standalone_mode=False)
    finally:
        llm.ReplayProvider.complete = complete
    digest = hashlib.sha256()
    for name in OUTPUTS:
        digest.update(hashlib.sha256((out / name).read_bytes()).digest())
    return digest.hexdigest(), prompts.hexdigest(), calls


def main() -> None:
    total = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        for seed in SEEDS:
            inputs = Path(tmp) / f"inputs-{seed}"
            gen.generate("extract-replay", seed, ROOT, inputs)
            replies = [e["response"] for e in
                       json.loads((inputs / "replay.json").read_text(encoding="utf-8"))]
            digest = hashlib.sha256()
            for raw in replies:
                digest.update(hashlib.sha256(reply_bytes(raw)).digest())
            extract, prompts, calls = extract_digests(inputs, Path(tmp) / f"out-{seed}")
            line = (f"seed={seed} n={len(replies)} replies={digest.hexdigest()} extract={extract}"
                    f" calls={calls} prompts={prompts}")
            total.update(line.encode() + b"\n")
            print(line, flush=True)
    print(f"all {total.hexdigest()}")


if __name__ == "__main__":
    main()
