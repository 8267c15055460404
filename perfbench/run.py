#!/usr/bin/env python3
"""medtab benchmark: one command for both pipelines.

    python3 perfbench/run.py --workload extract-replay --seed 1 --seconds 30 --trace 0

Run from the root of a medtab checkout; the code under test is imported from
its ``src/``. Workloads, metrics and bounds are listed in BENCHMARK.json and
explained in perfbench/README.md.

Each run generates its inputs from ``--seed`` (perfbench/gen.py), times the
program's set-up in fresh interpreters, then repeats whole rounds of
operations in this single thread until ``--seconds`` have passed, checking
every output apart from the program. Set-up, operations and spans are timed
in process CPU time (see README.md for why). The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``). Any failed check makes the exit code 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
# Every workload runs in one thread: keep numpy's BLAS from starting a pool.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import gen  # noqa: E402
from spans import INCLUSIVE, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

REQUIRED = ("BENCHMARK.json", "src/medtab/__init__.py", "data/heart.csv", "data/hepatitis.csv",
            "schemas/heart.schema.json", "schemas/hepatitis.schema.json", "templates/heart")
SETUP_PROBES = 5
RUNS_DIR = ".perfbench_runs"

# Per-layer metric names are "<span>.<stat>": a time unit for the mean self
# time per call (inclusive for the spans in spans.INCLUSIVE), or "calls" for
# calls per operation. The rest are computed by name in per_layer_metrics.
_SCALE = {"us": 1e3, "ms": 1e6, "s": 1e9}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="medtab benchmark (see perfbench/README.md)")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", type=Path, default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def checkout_root() -> Path:
    """The current directory, which must be a medtab checkout; exit 2 otherwise."""
    root = Path.cwd()
    missing = [p for p in REQUIRED if not (root / p).exists()]
    if missing:
        print(f"error: {root} is not a medtab checkout (missing {', '.join(missing)})",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(root / "src"))
    return root


def check_imported_from(root: Path) -> None:
    import medtab

    src = (root / "src").resolve()
    if src not in Path(medtab.__file__).resolve().parents:
        print(f"error: medtab was imported from {medtab.__file__}, not from {src}", file=sys.stderr)
        sys.exit(2)


def setup_probe(root: Path, workload: str, inputs: Path) -> None:
    """Child mode: time the program's set-up in this fresh interpreter."""
    start = process_time()
    WORKLOADS[workload](root, inputs, inputs, None).setup()
    elapsed = process_time() - start
    check_imported_from(root)
    print(repr(elapsed))


def probe_setup(root: Path, workload: str, inputs: Path) -> float:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
           "--seconds", "0", "--setup-probe", str(inputs)]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        sys.exit(2)
    return float(done.stdout.strip().splitlines()[-1])


class Unit:
    """One timed unit of a round: ``ops`` operations taking ``seconds`` of
    process CPU time (``wall`` seconds of elapsed time)."""

    def __init__(self, ops: int):
        self.ops = ops
        self.seconds = self.wall = 0.0


class Clock:
    def __init__(self, tracer: Tracer | None):
        self.tracer = tracer
        self.tracing = False

    @contextmanager
    def __call__(self, op, n_ops):
        unit = Unit(n_ops)
        trace_start = self.tracer.begin(op) if self.tracing else None
        start, wall = process_time(), perf_counter()
        try:
            yield unit
        finally:
            unit.seconds = process_time() - start
            unit.wall = perf_counter() - wall
            if self.tracing:
                self.tracer.end(trace_start, n_ops)


def round_rate(units: list[Unit]) -> float:
    return sum(u.ops for u in units) / sum(u.seconds for u in units)


def per_layer_metrics(names, tracer: Tracer, workload, traced_rates, untraced_rates) -> dict:
    stats, n_ops, unaccounted = tracer.summary()
    repair = stats.get("vorc.repair_json")
    corrections = stats.get("prompts.correction")
    trees = stats.get("tree.train_regression_tree")
    sizes = workload.model_bytes
    named = {
        "vorc.repair_json.ok_ratio": repair["ok"] / repair["calls"] if repair else 0.0,
        "vorc.corrections": corrections["calls"] / n_ops if corrections else 0.0,
        "gbdt.trees": trees["calls"] / n_ops if trees else 0.0,
        "persist.model_bytes": statistics.fmean(sizes) if sizes else 0.0,
        "trace.unaccounted": 100.0 * unaccounted,
        "trace.traced_ops_per_s": statistics.median(traced_rates),
        "trace.untraced_ops_per_s": statistics.median(untraced_rates),
    }
    metrics = {}
    for name in names:
        if name in named:
            metrics[name] = named[name]
            continue
        span, stat = name.rsplit(".", 1)
        s = stats.get(span)
        if s is None:
            metrics[name] = 0.0
        elif stat == "calls":
            metrics[name] = s["calls"] / n_ops
        else:
            ns = s["incl_ns"] if span.startswith(INCLUSIVE) else s["self_ns"]
            metrics[name] = ns / s["calls"] / _SCALE[stat]
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    root = checkout_root()
    if args.setup_probe is not None:
        setup_probe(root, args.workload, args.setup_probe)
        return 0

    work = root / RUNS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    inputs = work / "inputs"
    gen.generate(args.workload, args.seed, root, inputs)

    setup_samples = [] if args.trace else [probe_setup(root, args.workload, inputs)
                                           for _ in range(SETUP_PROBES)]
    tracer = Tracer() if args.trace else None
    clock = Clock(tracer)
    workload = WORKLOADS[args.workload](root, inputs, work / "out", clock)
    workload.setup()
    check_imported_from(root)
    workload.prepare_checks()

    # Whole rounds until the time is up; with --trace 1 rounds alternate
    # untraced/traced and end on a traced one, so the overhead is measured
    # on interleaved rounds.
    rates = {False: [], True: []}
    deadline = perf_counter() + args.seconds
    k = 0
    while k == 0 or perf_counter() < deadline or (args.trace and k % 2 == 1):
        clock.tracing = bool(args.trace) and k % 2 == 1
        gc.collect()
        if clock.tracing:
            tracer.install()
        units = workload.round(k)
        if clock.tracing:
            tracer.uninstall()
        rates[clock.tracing].append(round_rate(units))
        print(f"round {k}{' traced' if clock.tracing else ''}: "
              f"{sum(u.ops for u in units)} ops in {sum(u.seconds for u in units):.4f} s CPU, "
              f"{sum(u.wall for u in units):.4f} s elapsed", file=sys.stderr)
        k += 1

    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.trace:
        tracer.write(work / "spans.jsonl")
        listed = spec["per_layer"]
        values = per_layer_metrics([m["name"] for m in listed], tracer, workload,
                                   rates[True], rates[False])
    else:
        listed = spec["end_to_end"]
        values = {
            "ops_per_s": statistics.median(rates[False]),
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    shutil.rmtree(inputs)
    shutil.rmtree(work / "out", ignore_errors=True)
    if not args.trace:
        work.rmdir()

    for problem in (workload.errors + workload.op_problems)[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    correct = not workload.errors
    result = {"correct": correct, "attempted": workload.attempted, "failed": workload.failed,
              "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                          for m in listed}}
    print(json.dumps(result))
    return 0 if correct and workload.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
