"""The three workloads, run through medtab's own ``extract``, ``train``,
``evaluate`` and ``compare`` commands, invoked in this process.

Each workload has a ``setup`` (the program's own set-up: importing medtab and
loading schema, templates, corpus, replay script and tables with the
program's loaders), a ``round`` of whole operations, and checks made apart
from the program (``checks``). medtab is imported inside the methods, never at
module level, so a set-up probe can time the import.

The checks read the files a command writes and its ``--json`` report. What a
command keeps in memory (the corpus outcomes, the fitted model before it is
saved, the scores it evaluates) is recorded by ``Spy`` wrappers around the
program's functions, installed once before the first round.

``round(k)`` returns the timed units of round ``k`` (see ``run.Unit``) and
adds to ``self.failed`` every operation whose outcome differs from the
script; problems with the run as a whole go to ``self.errors``. Round ``k``
uses split seed ``k`` of the generated plan, cycling if a run outlasts it.
"""

from __future__ import annotations

import functools
import importlib
import io
import json
import os
from contextlib import redirect_stdout
from pathlib import Path

from spans import bindings

BUDGET = 3


def run_command(*args) -> str:
    """Run one medtab command in this process and return its standard output.

    A command that fails exits through ``SystemExit`` with its own message
    on standard error, which ends the run.
    """
    from medtab.cli import main

    out = io.StringIO()
    with redirect_stdout(out):
        main.main(args=[str(a) for a in args], prog_name="medtab", standalone_mode=False)
    return out.getvalue()


class Spy:
    """Records every call the program makes to one of its functions (or to a
    method, given as ``Class.method``), with its arguments and result.

    It replaces every binding of the function in the loaded medtab modules,
    as the tracer does, and stays in place for the rest of the run; a tracer
    installed later wraps the spy.
    """

    def __init__(self, module: str, attr: str):
        owner = importlib.import_module(module)
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name)
            fn = owner.__dict__[attr]
            targets = [(owner, attr)]
        else:
            fn = getattr(owner, attr)
            targets = bindings(fn)
        calls = self.calls = []

        @functools.wraps(fn)
        def spied(*args, **kwargs):
            result = fn(*args, **kwargs)
            calls.append((args, kwargs, result))
            return result

        for target, key in targets:
            setattr(target, key, spied)

    def take(self) -> list:
        """The calls recorded since the last ``take``."""
        taken = list(self.calls)
        self.calls.clear()
        return taken


class Workload:
    def __init__(self, root: Path, inputs: Path, out: Path, clock):
        self.root, self.inputs, self.out = root, inputs, out
        self.clock = clock  # clock(op_id, n_ops) -> context manager timing one unit
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []  # the run as a whole is wrong
        self.op_problems: list[str] = []  # why operations failed
        self.model_bytes: list[int] = []

    def fail(self, problems: list[str], what: str) -> bool:
        self.op_problems += [f"{what}: {p}" for p in problems[:5]]
        return bool(problems)


class ExtractReplay(Workload):
    """One round is one batch: the ``extract`` command over the whole corpus
    against a zero-latency replay provider, then its ``extracted.csv`` and
    ``provenance.jsonl`` scored by ``evalkit.extraction_metrics`` against
    the truth table. An operation is one report."""

    def setup(self):
        import medtab.cli
        from medtab import dataset as ds, llm, prompts, schema

        self.schema = schema.load_schema(self.root / "schemas" / "heart.schema.json")
        prompts.load_templates(self.root / "templates" / "heart", self.schema)
        self.n_reports = len(medtab.cli._read_corpus(self.inputs / "corpus.jsonl"))
        llm.ReplayProvider.from_file(self.inputs / "replay.json")
        self.truth = ds.load_csv(self.inputs / "truth.csv", self.schema)

    def prepare_checks(self):
        from checks import read_rows, read_schema

        self.expect = json.loads((self.inputs / "expect.json").read_text(encoding="utf-8"))
        self.features = read_schema(self.root / "schemas" / "heart.schema.json")["features"]
        self.truth_rows = {r["id"]: r for r in read_rows(self.inputs / "truth.csv")}
        self.corpus_spy = Spy("medtab.vorc", "extract_corpus")
        self.call_spy = Spy("medtab.llm", "ReplayProvider.complete")

    def round(self, k):
        from medtab import dataset as ds, evalkit

        out = self.out / "extract"
        with self.clock(k, self.n_reports) as unit:
            # The command reads the replay script on every invocation; a
            # replay provider is used up by one pass.
            run_command("--output-dir", out, "extract",
                        "--schema", self.root / "schemas" / "heart.schema.json",
                        "--templates", self.root / "templates" / "heart",
                        "--corpus", self.inputs / "corpus.jsonl",
                        "--replay", self.inputs / "replay.json",
                        "--budget", BUDGET, "--parallelism", 1)
            provenance = [json.loads(line) for line in
                          (out / "provenance.jsonl").read_text(encoding="utf-8").splitlines()]
            extracted = ds.load_csv(out / "extracted.csv", self.schema)
            report = evalkit.extraction_metrics(extracted, self.truth, provenance)
        self.attempted += self.n_reports
        (_, _, result), = self.corpus_spy.take()
        calls = {}
        for (_, request), _, _ in self.call_spy.take():
            at = request.prompt.rfind("[rpt-")
            marker = request.prompt[at:at + 11]
            calls[marker] = calls.get(marker, 0) + 1
        self.check(result, calls, out, report)
        return [unit]

    def check(self, result, calls, out, report):
        from checks import read_rows, same_value, typed_cell
        from medtab import vorc
        from medtab.schema import MISSING

        n = len(self.expect)
        provenance = [json.loads(line) for line in
                      (out / "provenance.jsonl").read_text(encoding="utf-8").splitlines()]
        if len(result.outcomes) != n or len(provenance) != n:
            self.errors.append(f"{len(result.outcomes)} outcomes and {len(provenance)} "
                               f"provenance lines for {n} reports")
            return
        unknown = set(calls) - {e["marker"] for e in self.expect}
        if unknown:
            self.errors.append(f"provider calls for unknown reports {sorted(unknown)[:3]}")
        repair_kinds = set()
        for e, outcome, prov in zip(self.expect, result.outcomes, provenance):
            used = calls.get(e["marker"], 0)
            ok = e["min_calls"] <= used <= e["calls"]
            ok &= outcome.source_id == e["id"] and prov["id"] == e["id"]
            ok &= prov["vorc_iterations"] == used - 1
            if e["outcome"] == "record":
                truth = self.truth_rows[e["id"]]
                ok &= (isinstance(outcome, vorc.ExtractionRecord) and prov["status"] == "ok"
                       and all(same_value(typed_cell(f, truth[f["name"]]),
                                          outcome.values.get(f["name"]), MISSING)
                               for f in self.features))
                if e["kind"] == "clean" or e["kind"].startswith("repair-"):
                    ok &= bool(prov["repairs"]) == e["kind"].startswith("repair-")
            else:
                ok &= (isinstance(outcome, vorc.VorcFailure)
                       and outcome.reason == "budget-exhausted" and prov["status"] == "failed")
            repair_kinds.update(r["kind"] for r in prov["repairs"])
            self.failed += not ok

        # Aggregates against the benchmark's own counts.
        n_called = sum(1 for e in self.expect if calls.get(e["marker"], 0) >= 2)
        n_failed = sum(1 for e in self.expect if e["outcome"] == "failed")
        stats = json.loads((out / "extract_stats.json").read_text(encoding="utf-8"))
        want_stats = {"n_reports": n, "n_records": n - n_failed, "n_failures": n_failed,
                      "vorc_call_rate": n_called / n}
        if stats != want_stats:
            self.errors.append(f"extract_stats.json {stats}, counted {want_stats}")
        if repair_kinds != set(vorc.REPAIR_ORDER):
            self.errors.append(f"repairs seen {sorted(repair_kinds)} do not cover REPAIR_ORDER")

        # extracted.csv must hold every scripted record, in input order, each
        # cell equal to its source row.
        rows = read_rows(out / "extracted.csv")
        names = [f["name"] for f in self.features]
        if not rows or list(rows[0]) != ["id", *names]:
            self.errors.append("extracted.csv header differs from id + schema features")
            return
        want_ids = [e["id"] for e in self.expect if e["outcome"] == "record"]
        if [r["id"] for r in rows] != want_ids:
            self.errors.append("extracted.csv rows are not the extracted reports in input order")
            return
        differ = [(row["id"], f["name"]) for row in rows for f in self.features
                  if typed_cell(f, row[f["name"]])
                  != typed_cell(f, self.truth_rows[row["id"]][f["name"]])]
        if differ:
            self.errors.append(f"extracted.csv cells differ from their source rows: {differ[:3]}")
        missing_ext = sum(row[f] == "" for row in rows for f in names)
        missing_truth = sum(self.truth_rows[row["id"]][f] == "" for row in rows for f in names)
        want = {"record_accuracy": 1.0, "cell_accuracy": 1.0,
                "missing_precision": 1.0 if missing_ext else None,
                "missing_recall": 1.0 if missing_truth else None,
                "vorc_call_rate": n_called / n, "n_evaluated": len(want_ids)}
        got = {key: getattr(report, key) for key in want}
        if got != want:
            self.errors.append(f"extraction_metrics {got}, expected {want}")


class TrainHepatitis(Workload):
    """One round is, for each of logreg, dtree and gbdt, the ``train``
    command on data/hepatitis.csv with one split seed, then the ``evaluate``
    command on the test part of that split. An operation is one family: split,
    encode, grid search, ``save_model``, ``load_model`` and the test metrics."""

    FAMILIES = ("logreg", "dtree", "gbdt")

    def setup(self):
        import medtab.cli  # noqa: F401
        from medtab import dataset as ds, schema

        self.schema = schema.load_schema(self.root / "schemas" / "hepatitis.schema.json")
        self.table = ds.load_csv(self.root / "data" / "hepatitis.csv", self.schema)
        self.seeds = json.loads((self.inputs / "plan.json").read_text())["split_seeds"]

    def prepare_checks(self):
        import numpy as np

        from checks import read_rows, read_schema

        doc = read_schema(self.root / "schemas" / "hepatitis.schema.json")
        self.features = doc["features"]
        self.rows = read_rows(self.root / "data" / "hepatitis.csv")
        positive = doc["label"]["positive"]
        self.labels = np.array([int(r[doc["label"]["name"]] == positive) for r in self.rows])
        self.grid_spy = Spy("medtab.models.search", "grid_search")
        self.save_spy = Spy("medtab.models.persist", "save_model")
        self.metrics_spy = Spy("medtab.evalkit", "classification_metrics")

    def round(self, k):
        seed = self.seeds[k % len(self.seeds)]
        data = self.root / "data" / "hepatitis.csv"
        schema = self.root / "schemas" / "hepatitis.schema.json"
        units = []
        for family in self.FAMILIES:
            out = self.out / family
            with self.clock((k, family), 1) as unit:
                run_command("--seed", seed, "--output-dir", out, "train",
                            "--data", data, "--schema", schema, "--family", family)
                shown = run_command("--json", "evaluate", "--model", out / f"model_{family}.json",
                                    "--data", data, "--split", out / "split.json",
                                    "--schema", schema, "--part", "test")
            units.append(unit)
            self.attempted += 1
            self.model_bytes.append(os.path.getsize(out / f"model_{family}.json"))
            problems = self.check(family, seed, out, json.loads(shown))
            self.failed += self.fail(problems, f"train {family} seed {seed}")
        return units

    def check(self, family, seed, out, shown):
        import numpy as np

        import checks
        from medtab import models

        (grid_args, grid_kwargs, result), = self.grid_spy.take()
        ((artifact, _), _, _), = self.save_spy.take()
        ((y_test, scores), _, _), = self.metrics_spy.take()
        _, X_train, y_train, X_val, y_val = grid_args
        split = json.loads((out / "split.json").read_text(encoding="utf-8"))
        train, val, test = split["train"], split["val"], split["test"]
        problems = checks.check_split(list(self.labels), train, val, test)
        if problems:
            return problems
        if split["seed"] != seed or artifact.seed != seed or artifact.family != family:
            problems.append(f"split seed {split['seed']}, model {artifact.family} seed "
                            f"{artifact.seed}, expected {family} seed {seed}")
        if not (np.array_equal(y_train, self.labels[train]) and np.array_equal(
                y_val, self.labels[val]) and np.array_equal(y_test, self.labels[test])):
            problems.append("labels given to grid_search or evaluate differ from the split's")
        problems += checks.check_encoder(self.features, self.rows, train, artifact.encoder.columns)
        problems += checks.check_grid_choice(family, result.report, result.params)
        if artifact.model is not result.model or artifact.params != result.params:
            problems.append("the saved model is not the one grid search chose")
        val_acc = checks.accuracy(y_val, models.predict_proba(result.model, X_val))
        if val_acc != result.val_accuracy:
            problems.append(f"val accuracy {result.val_accuracy}, recomputed {val_acc}")
        auc = shown["sections"]["classification (test)"]["auc"]
        want_auc = checks.pairwise_auc(self.labels[test], scores)
        if auc is None or abs(auc - want_auc) > 1e-12:
            problems.append(f"test AUC {auc}, pairwise {want_auc}")
        # evaluate scored the model it loaded; the model grid search fitted
        # must give the very same probabilities.
        if not np.array_equal(artifact.predict_proba_dataset(self.table, test), scores):
            problems.append("probabilities changed across save_model/load_model")
        if family == "gbdt":
            fitted = checks.log_loss(y_train, models.predict_proba(result.model, X_train))
            base = checks.log_loss(y_train, np.full(len(y_train), float(np.mean(y_train))))
            if fitted > base:
                problems.append(f"train log-loss {fitted} worse than the base rate {base}")
        if family == "dtree":
            want = checks.gini_oracle(X_train, y_train)
            root = result.model.root
            got = None if root.is_leaf else (root.column, root.threshold)
            if got != want:
                problems.append(f"root split {got}, brute-force Gini oracle {want}")
        return problems


class CompareHeart(Workload):
    """One round is one ``compare`` command, family dtree, of data/heart.csv
    against the seeded corrupted copy on one split seed. Each run first makes
    one control compare against an uncorrupted copy (untimed)."""

    FAMILY = "dtree"

    def setup(self):
        import medtab.cli  # noqa: F401
        from medtab import dataset as ds, schema

        heart = schema.load_schema(self.root / "schemas" / "heart.schema.json")
        for path in (self.root / "data" / "heart.csv", self.inputs / "corrupted.csv",
                     self.inputs / "copy.csv"):
            ds.load_csv(path, heart)
        self.seeds = json.loads((self.inputs / "plan.json").read_text())["split_seeds"]

    def prepare_checks(self):
        from checks import count_differences, read_rows, read_schema

        features = read_schema(self.root / "schemas" / "heart.schema.json")["features"]
        truth = read_rows(self.root / "data" / "heart.csv")
        self.want = {}
        for name in ("corrupted", "copy"):
            exact, matched, cells = count_differences(
                features, truth, read_rows(self.inputs / f"{name}.csv"))
            self.want[name] = (exact / (cells // len(features)), matched / cells)
        self.fidelity_spy = Spy("medtab.evalkit", "fidelity")
        self.control()

    def compare(self, name, seed) -> str:
        return run_command("--seed", seed, "--json", "compare",
                           "--truth", self.root / "data" / "heart.csv",
                           "--extracted", self.inputs / f"{name}.csv",
                           "--schema", self.root / "schemas" / "heart.schema.json",
                           "--family", self.FAMILY)

    def check(self, name, shown) -> list[str]:
        import checks
        from medtab import models

        (args, _, _), = self.fidelity_spy.take()
        model_gt, model_ext, X_gt, X_ext, y_test = args[:5]
        extraction = shown["sections"]["extraction"]
        fidelity = shown["sections"][f"fidelity ({self.FAMILY})"]
        problems = []
        got = (extraction["record_accuracy"], extraction["cell_accuracy"])
        if got != self.want[name]:
            problems.append(f"record/cell accuracy {got}, counted {self.want[name]}")
        accs = [checks.accuracy(y_test, models.predict_proba(model, X))
                for model, X in ((model_gt, X_gt), (model_ext, X_ext))]
        if abs(fidelity["acc_d"] - abs(accs[0] - accs[1])) > 1e-12:
            problems.append(f"acc_d {fidelity['acc_d']}, recomputed {abs(accs[0] - accs[1])}")
        if name == "copy" and (fidelity["acc_d"], fidelity["auc_d"], fidelity["r2"]) != (0, 0, 1):
            problems.append(f"control compare gave acc_d={fidelity['acc_d']} "
                            f"auc_d={fidelity['auc_d']} r2={fidelity['r2']}")
        return problems

    def control(self):
        self.attempted += 1
        found = self.check("copy", json.loads(self.compare("copy", self.seeds[-1])))
        self.failed += self.fail(found, "control compare")

    def round(self, k):
        seed = self.seeds[k % len(self.seeds)]
        with self.clock(k, 1) as unit:
            shown = self.compare("corrupted", seed)
        self.attempted += 1
        self.failed += self.fail(self.check("corrupted", json.loads(shown)),
                                 f"compare seed {seed}")
        return [unit]


WORKLOADS = {
    "extract-replay": ExtractReplay,
    "train-hepatitis": TrainHepatitis,
    "compare-heart": CompareHeart,
}
