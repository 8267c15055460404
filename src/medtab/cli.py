"""Command-line surface: prompt-preview, extract, train, evaluate, compare,
fewshot.

Settings come from an optional JSON config file with flag overrides (flags
win). Secrets are only ever read from the environment variable named by the
provider settings.

Exit codes are decided in one place, ``_Main.invoke``: 0 on success (possibly
with per-record extraction failures); 2 for a ``ProviderConfigError``, a
``ValueError`` (every medtab error class is one) or an ``OSError``; 3 for any
other ``ProviderError``. A failure prints one ``error: <message>`` line.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

import click

from . import dataset as ds
from . import evalkit, models, prompts, vorc
from .llm import CompletionRequest, ProviderConfigError, ProviderError, configure_provider
from .schema import load_schema

EXIT_CONFIG = 2
EXIT_PROVIDER = 3

# config key: (default, test, what the value must be). The tests are on the
# types JSON gives: "3" is not 3, true is not 1 (its type is bool), and null
# passes none of them.
_PATH = (lambda value: isinstance(value, str), "a path string")
_CONFIG = {
    "schema": (None, *_PATH), "templates": (None, *_PATH), "corpus": (None, *_PATH),
    "output_dir": (".", *_PATH),
    "provider": (None, lambda value: isinstance(value, dict), "a JSON object"),
    "seed": (7, lambda value: type(value) is int, "an integer"),
    "budget": (3, lambda value: type(value) is int and value >= 0, "an integer of at least 0"),
    "parallelism": (1, lambda value: type(value) is int and value >= 1,
                    "an integer of at least 1"),
}


class CliState:
    def __init__(self, config: dict, seed: int | None, output_dir: str | None, as_json: bool):
        self.config = config
        self.seed = self.setting("seed", seed)
        self.output_dir = Path(self.setting("output_dir", output_dir))
        self.as_json = as_json

    def setting(self, key: str, override=None, required: bool = False):
        """The flag's value when given, else the config file's, else the
        key's default."""
        value = override if override is not None else self.config.get(key, _CONFIG[key][0])
        if required and value is None:
            _fail(f"missing required setting {key!r} (flag or config file)")
        return value


def _fail(message: str, code: int = EXIT_CONFIG):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    p = Path(path)
    if not p.is_file():
        _fail(f"config file not found: {p}")
    try:
        doc = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        _fail(f"config file {p} is not valid JSON: {e}")
    if not isinstance(doc, dict):
        _fail(f"config file {p} must hold a JSON object")
    unknown = set(doc) - set(_CONFIG)
    if unknown:
        _fail(f"unknown config keys: {', '.join(sorted(unknown))}")
    for key, value in doc.items():
        _, valid, expected = _CONFIG[key]
        if not valid(value):
            _fail(f"config key {key!r} must be {expected}")
    return doc


def _provider_from(state: CliState, replay_script: str | None):
    if replay_script is not None:
        settings = {"kind": "replay", "script": replay_script}
    else:
        settings = state.setting("provider", required=True)
    return configure_provider(settings.get("kind"),
                              {k: v for k, v in settings.items() if k != "kind"})


def _schema_from(state: CliState, schema_path: str | None):
    return load_schema(state.setting("schema", schema_path, required=True))


def _templates_from(state: CliState, templates_path: str | None, schema):
    return prompts.load_templates(state.setting("templates", templates_path, required=True),
                                  schema)


def _read_corpus(path: Path, keys: tuple[str, ...] = ("id", "text"),
                 what: str = "corpus", problem=lambda doc: None) -> list[dict]:
    """The objects of a JSON-lines file, blank lines skipped; exits 2 when the
    file cannot be read, a line is not JSON, an object lacks one of ``keys``
    or ``problem(object)`` names what is wrong with it."""
    entries = []
    try:
        with path.open(encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                doc = json.loads(line)
                if not isinstance(doc, dict) or any(k not in doc for k in keys):
                    _fail(f"{path}:{lineno}: {what} lines need "
                          + " and ".join(repr(k) for k in keys))
                wrong = problem(doc)
                if wrong:
                    _fail(f"{path}:{lineno}: {wrong}")
                entries.append(doc)
    except OSError as e:
        _fail(f"cannot read {what}: {e}")
    except json.JSONDecodeError as e:
        _fail(f"{path}: invalid JSON line: {e}")
    return entries


class _Main(click.Group):
    """The command group, and the one place that turns an exception into an
    exit code."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (ProviderConfigError, ValueError, OSError) as e:
            _fail(str(e))
        except ProviderError as e:
            _fail(str(e), EXIT_PROVIDER)


@click.group(cls=_Main)
@click.option("--config", "config_path", type=str, default=None,
              help="JSON config file; flags override its values.")
@click.option("--seed", type=int, default=None, help="Random seed for splits.")
@click.option("--output-dir", type=str, default=None, help="Directory for outputs.")
@click.option("--json", "as_json", is_flag=True, help="Machine-readable output.")
@click.pass_context
def main(ctx, config_path, seed, output_dir, as_json):
    """Extract tables from medical reports and model them."""
    ctx.obj = CliState(_load_config_file(config_path), seed, output_dir, as_json)


@main.command("prompt-preview")
@click.option("--schema", "schema_path", type=str, default=None)
@click.option("--templates", "templates_path", type=str, default=None)
@click.option("--report", "report_path", type=str, default=None, help="File holding one report.")
@click.option("--report-text", type=str, default=None)
@click.option("--no-reasoning", is_flag=True, help="Render the extract-only ablation.")
@click.pass_obj
def cmd_prompt_preview(state, schema_path, templates_path, report_path, report_text, no_reasoning):
    """Render the extraction prompt for one report without contacting a provider."""
    schema = _schema_from(state, schema_path)
    bundle = _templates_from(state, templates_path, schema)
    if report_text is None:
        if report_path is None:
            _fail("provide --report or --report-text")
        try:
            report_text = Path(report_path).read_text(encoding="utf-8").strip("\n")
        except OSError as e:
            _fail(f"cannot read report: {e}")
    if no_reasoning:
        bundle = bundle.without_reasoning()
    click.echo(bundle.render(report_text))


@main.command("extract")
@click.option("--schema", "schema_path", type=str, default=None)
@click.option("--templates", "templates_path", type=str, default=None)
@click.option("--corpus", "corpus_path", type=str, default=None)
@click.option("--replay", "replay_script", type=str, default=None,
              help="Use a replay provider with this script file.")
@click.option("--budget", type=int, default=None, help="Max correction prompts per record.")
@click.option("--parallelism", type=int, default=None)
@click.pass_obj
def cmd_extract(state, schema_path, templates_path, corpus_path, replay_script, budget, parallelism):
    """Convert a report corpus into a table CSV plus provenance."""
    schema = _schema_from(state, schema_path)
    bundle = _templates_from(state, templates_path, schema)
    provider = _provider_from(state, replay_script)
    corpus = _read_corpus(Path(state.setting("corpus", corpus_path, required=True)))
    result = vorc.extract_corpus(provider, [(d["id"], d["text"]) for d in corpus], schema,
                                 bundle, vorc.VorcBudget(state.setting("budget", budget)),
                                 state.setting("parallelism", parallelism))

    out = state.output_dir
    out.mkdir(parents=True, exist_ok=True)
    records = result.records
    table = ds.TabularDataset(
        schema=schema, columns={spec.name: [r.values[spec.name] for r in records]
                                for spec in schema.features},
        ids=[r.source_id for r in records])
    ds.save_csv(table, out / "extracted.csv")
    with (out / "provenance.jsonl").open("w", encoding="utf-8") as fh:
        for entry in vorc.provenance_entries(result):
            fh.write(json.dumps(entry, sort_keys=True) + "\n")
    stats = asdict(result.stats)
    (out / "extract_stats.json").write_text(json.dumps(stats, sort_keys=True) + "\n",
                                            encoding="utf-8")
    rate = result.stats.vorc_call_rate
    click.echo(f"extracted {result.stats.n_records}/{result.stats.n_reports} records, "
               f"{result.stats.n_failures} failures, "
               f"vorc_call_rate={'-' if rate is None else f'{rate:.3f}'}")
    failures = result.failures
    if failures and all(f.reason == "provider-error" for f in failures) \
            and not records and result.stats.n_reports > 0:
        _fail("provider failed on every record", EXIT_PROVIDER)


def _grid_report_csv(result) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["family", "params", "val_accuracy"])
    for point in result.report:
        writer.writerow([result.family, json.dumps(point.params, sort_keys=True),
                         f"{point.val_accuracy:.6f}"])
    return buf.getvalue()


@main.command("train")
@click.option("--data", "data_path", type=str, required=True, help="Dataset CSV with labels.")
@click.option("--schema", "schema_path", type=str, default=None)
@click.option("--family", type=click.Choice(models.FAMILIES), required=True)
@click.pass_obj
def cmd_train(state, data_path, schema_path, family):
    """Grid-search a model family on a 70/10/20 split and save the best model."""
    schema = _schema_from(state, schema_path)
    dataset = ds.load_csv(data_path, schema)
    assignment, encoder, X, y = ds.prepare(dataset, state.seed)
    result = models.grid_search(family, X["train"], y["train"], X["val"], y["val"])

    out = state.output_dir
    out.mkdir(parents=True, exist_ok=True)
    artifact = models.ModelArtifact(family=family, model=result.model, encoder=encoder,
                                    label=schema.label, params=result.params, seed=state.seed)
    model_path = out / f"model_{family}.json"
    models.save_model(artifact, model_path)
    (out / "grid_report.csv").write_text(_grid_report_csv(result), encoding="utf-8")
    ds.save_split(assignment, out / "split.json")
    click.echo(f"saved {model_path} (params={json.dumps(result.params, sort_keys=True)}, "
               f"val_accuracy={result.val_accuracy:.4f})")


@main.command("evaluate")
@click.option("--model", "model_path", type=str, required=True)
@click.option("--data", "data_path", type=str, required=True)
@click.option("--split", "split_path", type=str, required=True)
@click.option("--schema", "schema_path", type=str, default=None)
@click.option("--part", type=click.Choice(ds.PARTS), default="test")
@click.pass_obj
def cmd_evaluate(state, model_path, data_path, split_path, schema_path, part):
    """Score a saved model on one split of a dataset."""
    schema = _schema_from(state, schema_path)
    artifact = models.load_model(model_path)
    dataset = ds.load_csv(data_path, schema)
    assignment = ds.load_split(split_path)
    if artifact.seed is not None and artifact.seed != assignment.seed:
        _fail(f"model {model_path} was trained on split seed {artifact.seed}, "
              f"but {split_path} holds split seed {assignment.seed}")
    parts = assignment.parts()
    last = max((rid for ids in parts.values() for rid in ids), default=-1)
    if last >= dataset.n:
        _fail(f"split id {last} is outside the table ({dataset.n} rows)")
    ids = parts[part]
    scores = artifact.predict_proba_dataset(dataset, ids)
    report = evalkit.classification_metrics(dataset.label_array()[list(ids)], scores)
    click.echo(evalkit.render_report({f"classification ({part})": report},
                                     "json" if state.as_json else "text"), nl=False)


def _iterations_problem(entry: dict) -> str | None:
    n = entry["vorc_iterations"]
    if type(n) is not int or n < 0:  # bool is not an iteration count
        return f"'vorc_iterations' must be a non-negative integer, got {n!r}"
    return None


@main.command("compare")
@click.option("--truth", "truth_path", type=str, required=True, help="Ground-truth CSV with labels.")
@click.option("--extracted", "extracted_path", type=str, required=True)
@click.option("--provenance", "provenance_path", type=str, default=None)
@click.option("--schema", "schema_path", type=str, default=None)
@click.option("--family", type=click.Choice(models.FAMILIES), required=True)
@click.pass_obj
def cmd_compare(state, truth_path, extracted_path, provenance_path, schema_path, family):
    """Extraction metrics plus fidelity between truth-trained and
    extraction-trained models of one family."""
    schema = _schema_from(state, schema_path)
    provenance = None
    if provenance_path:
        provenance = _read_corpus(Path(provenance_path), ("id", "vorc_iterations"), "provenance",
                                  _iterations_problem)
    truth = ds.load_csv(truth_path, schema)
    extracted = ds.load_csv(extracted_path, schema)
    extraction = evalkit.extraction_metrics(extracted, truth, provenance)  # rejects unknown ids
    # both tables hold the extracted ids in truth order with the truth labels,
    # so their splits and test labels are the same
    position = {rid: k for k, rid in enumerate(truth.ids)}
    order = sorted(range(extracted.n), key=lambda i: position[extracted.ids[i]])
    gt = truth.subset(position[extracted.ids[i]] for i in order)
    ext = replace(extracted.subset(order), labels=gt.labels)
    fits = []
    for table in (gt, ext):
        _, encoder, X, y = ds.prepare(table, state.seed)
        model = models.grid_search(family, X["train"], y["train"], X["val"], y["val"]).model
        fits.append((model, X["test"],
                     models.feature_importances_named(model, encoder.column_names)))
    (model_gt, X_gt, iv_gt), (model_ext, X_ext, iv_ext) = fits
    fidelity = evalkit.fidelity(model_gt, model_ext, X_gt, X_ext, y["test"], iv_gt, iv_ext)
    click.echo(evalkit.render_report(
        {"extraction": extraction, f"fidelity ({family})": fidelity},
        "json" if state.as_json else "text"), nl=False)


def _parse_answer(text: str, label_spec):
    candidates = [text.strip()]
    if candidates[0]:
        candidates.append(candidates[0].splitlines()[0].strip())
    for c in candidates:
        if c == label_spec.positive_value:
            return 1
        if c == label_spec.negative_value:
            return 0
    return None


@main.command("fewshot")
@click.option("--schema", "schema_path", type=str, default=None)
@click.option("--shots", "shots_path", type=str, required=True,
              help="JSON-lines file of {'text', 'label'} examples.")
@click.option("--corpus", "corpus_path", type=str, default=None)
@click.option("--replay", "replay_script", type=str, default=None)
@click.pass_obj
def cmd_fewshot(state, schema_path, shots_path, corpus_path, replay_script):
    """Few-shot label classification baseline over a report corpus."""
    schema = _schema_from(state, schema_path)
    if schema.label is None:
        _fail("schema has no label; few-shot classification needs one")
    provider = _provider_from(state, replay_script)
    corpus = _read_corpus(Path(state.setting("corpus", corpus_path, required=True)))
    shots = [(d["text"], str(d["label"]))
             for d in _read_corpus(Path(shots_path), ("text", "label"), "shots file")]
    golds = [None if d.get("label") is None else schema.label.parse(d["label"]) for d in corpus]
    for doc, gold in zip(corpus, golds):
        if gold is None and doc.get("label") is not None:
            _fail(f"report {doc['id']!r}: gold label {doc['label']!r} is neither "
                  f"{schema.label.positive_value!r} nor {schema.label.negative_value!r}")

    rows = []
    for doc, gold in zip(corpus, golds):
        prompt = prompts.build_fewshot_classifier_prompt(shots, doc["text"], schema.label)
        text = provider.complete(CompletionRequest(prompt=prompt)).text
        rows.append({"id": doc["id"], "predicted": _parse_answer(text, schema.label),
                     "gold": gold})

    out = state.output_dir
    out.mkdir(parents=True, exist_ok=True)
    with (out / "fewshot_labels.csv").open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "predicted", "gold"])
        for r in rows:
            pred = "" if r["predicted"] is None else (
                schema.label.positive_value if r["predicted"] else schema.label.negative_value)
            writer.writerow([r["id"], pred, r["gold"] if r["gold"] is not None else ""])

    scored = [r for r in rows if r["predicted"] is not None and r["gold"] is not None]
    report = {"n reports": len(rows), "n scored": len(scored),
              "n abstained": sum(r["predicted"] is None for r in rows)}
    if scored:
        y = [int(r["gold"] == schema.label.positive_value) for r in scored]
        pred = [r["predicted"] for r in scored]
        metrics = evalkit.classification_metrics(y, pred)
        # the few-shot baseline emits labels, not scores, so AUC is not reported
        report.update({"accuracy": metrics.accuracy, "precision": metrics.precision,
                       "recall": metrics.recall, "f1": metrics.f1})
    click.echo(evalkit.render_report({"fewshot": report},
                                     "json" if state.as_json else "text"), nl=False)


if __name__ == "__main__":
    main()
