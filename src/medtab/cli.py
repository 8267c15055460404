"""Command-line surface: prompt-preview, extract, train, evaluate, compare,
fewshot.

Settings come from an optional JSON config file with flag overrides (flags
win). Secrets are only ever read from the environment variable named by the
provider settings.

Exit codes are decided in one place, ``_Main.invoke``: 0 on success (possibly
with per-record extraction failures); 2 for a ``ProviderConfigError``, a
``ValueError`` (every medtab error class is one) or an ``OSError``; 3 for any
other ``ProviderError``. A failure prints one ``error: <message>`` line. Every
JSON input file is read and checked by ``medtab.inputs``, so a bad input
exits 2 with ``error: <file>[:<line>]: <JSON path> must be <what>, got
<value>``.

Loading this module imports only ``dataset``, ``schema`` and ``inputs`` of
medtab; each command imports the rest when it runs. ``extract`` imports the
extraction code (``prompts``, ``vorc`` and ``llm``), ``prompt-preview`` only
``prompts``, and neither imports numpy or the modeling code. ``train``, ``evaluate`` and
``compare`` import the modeling code (``encoding``, ``models`` and
``evalkit``) and never the extraction code, except that ``compare
--provenance`` imports ``vorc`` for the call rate. ``fewshot`` imports
``prompts``, ``llm`` and ``evalkit``.
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
from . import inputs
from .schema import load_schema

EXIT_CONFIG = 2
EXIT_PROVIDER = 3

# ``json.dumps(..., sort_keys=True)``, without building an encoder per line.
_SORTED_JSON = json.JSONEncoder(sort_keys=True)

# The config file's keys; a key it leaves out takes its default, if any.
_PATH = (inputs.TEXT[0], "a path string")
_CONFIG = inputs.Table(optional={
    "schema": _PATH, "templates": _PATH, "corpus": _PATH, "output_dir": _PATH,
    "provider": inputs.OBJECT, "seed": inputs.INT, "budget": inputs.COUNT,
    "parallelism": inputs.POSITIVE}, closed=True)
_DEFAULTS = {"output_dir": ".", "seed": 7, "budget": 3, "parallelism": 1}
# A corpus id is written to CSV as its text, so 1 and "1" name one row. A
# report is never empty.
_ID = (lambda value: type(value) in (str, int), "a string or an integer")
_REPORT = (lambda value: type(value) is str and value != "", "a non-empty string")
_CORPUS_LINE = inputs.Table({"id": _ID, "text": _REPORT})
_PROVENANCE_LINE = inputs.Table({"id": _ID, "vorc_iterations": inputs.COUNT},
                                {"status": (lambda value: value in ("ok", "failed"),
                                            "'ok' or 'failed'")})


class CliState:
    def __init__(self, config_path: str | None, seed: int | None, output_dir: str | None,
                 as_json: bool):
        self.config_path = config_path
        self.config = {} if config_path is None else inputs.load(config_path, _CONFIG, ValueError)
        self.seed = self.setting("seed", seed)
        self.output_dir = Path(self.setting("output_dir", output_dir))
        self.report_format = "json" if as_json else "text"

    def setting(self, key: str, override=None, required: bool = False):
        """The flag's value when given, checked as the config file's is, else
        the config file's, else the key's default."""
        test, what = _CONFIG.fields[key]
        if override is not None and not test(override):
            raise ValueError(f"--{key.replace('_', '-')} must be {what}, got {override!r}")
        value = override if override is not None else self.config.get(key, _DEFAULTS.get(key))
        if required and value is None:
            raise ValueError(f"missing required setting {key!r} (flag or config file)")
        return value


def _provider_from(state: CliState, replay_script: str | None):
    from .llm import configure_provider

    if replay_script is not None:
        return configure_provider("replay", {"script": replay_script})
    settings = dict(state.setting("provider", required=True))
    return configure_provider(settings.pop("kind", None), settings, state.config_path,
                              "$.provider")


def _schema_from(state: CliState, schema_path: str | None):
    return load_schema(state.setting("schema", schema_path, required=True))


def _templates_from(state: CliState, templates_path: str | None, schema):
    from .prompts import load_templates

    return load_templates(state.setting("templates", templates_path, required=True), schema)


def _read_corpus(path, line=_CORPUS_LINE) -> list[dict]:
    """The corpus lines; ValueError names the first line that fails ``line``,
    or whose id is an earlier line's once both are CSV text."""
    lines = dict(inputs.load_lines(path, line, ValueError))
    repeat = inputs.first_repeat((str(doc["id"]), lineno) for lineno, doc in lines.items())
    if repeat:
        first, lineno, _ = repeat
        raise ValueError(inputs.message(f"{path}:{lineno}", "$.id", f"other than line {first}'s "
                                        f"id {lines[first]['id']!r} once written as CSV text",
                                        lines[lineno]["id"]))
    return list(lines.values())


class _Families(click.Choice):
    """The ``--family`` choice: the names in ``search.MODEL_TYPES``, read when
    click first needs them (to check a value or print help), so that loading
    the CLI does not import the models."""

    def __init__(self):
        self.case_sensitive = True

    @property
    def choices(self):
        from .models.search import FAMILIES

        return FAMILIES


class _Main(click.Group):
    """The command group, and the one place that turns an exception into an
    exit code."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (ValueError, OSError) as e:
            message, code = str(e), EXIT_CONFIG
        except RuntimeError as e:
            # A ProviderError exists only once a command has loaded ``llm``;
            # the modeling commands never load it.
            llm = sys.modules.get(f"{__package__}.llm")
            if llm is None or not isinstance(e, llm.ProviderError):
                raise
            message = str(e)
            code = EXIT_CONFIG if isinstance(e, llm.ProviderConfigError) else EXIT_PROVIDER
        click.echo(f"error: {message}", err=True)
        sys.exit(code)


@click.group(cls=_Main)
@click.option("--config", "config_path", type=str, default=None,
              help="JSON config file; flags override its values.")
@click.option("--seed", type=int, default=None, help="Random seed for splits.")
@click.option("--output-dir", type=str, default=None, help="Directory for outputs.")
@click.option("--json", "as_json", is_flag=True, help="Machine-readable output.")
@click.pass_context
def main(ctx, config_path, seed, output_dir, as_json):
    """Extract tables from medical reports and model them."""
    ctx.obj = CliState(config_path, seed, output_dir, as_json)


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
            raise ValueError("provide --report or --report-text")
        report_text = inputs.read_text(report_path, ValueError).strip("\n")
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
    from . import vorc
    from .llm import ProviderError

    schema = _schema_from(state, schema_path)
    bundle = _templates_from(state, templates_path, schema)
    provider = _provider_from(state, replay_script)
    corpus = _read_corpus(state.setting("corpus", corpus_path, required=True))
    result = vorc.extract_corpus(provider, [(d["id"], d["text"]) for d in corpus], schema,
                                 bundle, state.setting("budget", budget),
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
            fh.write(_SORTED_JSON.encode(entry) + "\n")
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
        raise ProviderError("provider failed on every record")


def _grid_report_csv(family: str, result) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["family", "params", "val_accuracy"])
    for point in result.report:
        writer.writerow([family, json.dumps(point.params, sort_keys=True),
                         f"{point.val_accuracy:.6f}"])
    return buf.getvalue()


@main.command("train")
@click.option("--data", "data_path", type=str, required=True, help="Dataset CSV with labels.")
@click.option("--schema", "schema_path", type=str, default=None)
@click.option("--family", type=_Families(), required=True)
@click.pass_obj
def cmd_train(state, data_path, schema_path, family):
    """Grid-search a model family on a 70/10/20 split and save the best model."""
    from . import encoding, models

    schema = _schema_from(state, schema_path)
    dataset = ds.load_csv(data_path, schema)
    assignment, encoder, X, y = encoding.prepare(dataset, state.seed)
    result = models.grid_search(family, X["train"], y["train"], X["val"], y["val"])

    out = state.output_dir
    out.mkdir(parents=True, exist_ok=True)
    artifact = models.ModelArtifact(family=family, model=result.model, encoder=encoder,
                                    label=schema.label, params=result.params, seed=state.seed)
    model_path = out / f"model_{family}.json"
    models.save_model(artifact, model_path)
    (out / "grid_report.csv").write_text(_grid_report_csv(family, result), encoding="utf-8")
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
    from . import evalkit, models

    schema = _schema_from(state, schema_path)
    artifact = models.load_model(model_path)
    if artifact.label not in (None, schema.label):
        raise ValueError(f"model {model_path} was trained with label {artifact.label.to_doc()}, "
                         f"but the schema's label is {schema.label and schema.label.to_doc()}")
    dataset = ds.load_csv(data_path, schema)
    assignment = ds.load_split(split_path)
    if artifact.seed is not None and artifact.seed != assignment.seed:
        raise ValueError(f"model {model_path} was trained on split seed {artifact.seed}, "
                         f"but {split_path} holds split seed {assignment.seed}")
    parts = assignment.parts()
    last = max((rid for ids in parts.values() for rid in ids), default=-1)
    if last >= dataset.n:
        raise ValueError(f"split id {last} is outside the table ({dataset.n} rows)")
    ids = parts[part]
    scores = artifact.predict_proba_dataset(dataset, ids)
    report = evalkit.classification_metrics(dataset.label_array()[list(ids)], scores)
    click.echo(evalkit.render_report({f"classification ({part})": report},
                                     state.report_format), nl=False)


def _bind_provenance(path, lines, extracted_path, extracted, truth_path, truth) -> None:
    """ValueError, naming the first id that differs, unless every provenance
    id is a truth id and the ids with status 'ok' are the extracted ids.
    Provenance ids are compared as the CSV text they are written as."""
    truth_ids, extracted_ids = set(truth.ids), set(extracted.ids)
    for lineno, entry in lines:
        rid, status = str(entry["id"]), entry.get("status")
        if rid not in truth_ids:
            what = f"an id of {truth_path}"
        elif (status == "ok") != (rid in extracted_ids):
            what = (f"an id {'of' if status == 'ok' else 'missing from'} {extracted_path}, "
                    f"as its status is {status!r}")
        else:
            continue
        raise ValueError(inputs.message(f"{path}:{lineno}", "$.id", what, entry["id"]))
    ok_ids = {str(entry["id"]) for _, entry in lines if entry.get("status") == "ok"}
    missing = next((rid for rid in extracted.ids if rid not in ok_ids), None)
    if missing is not None:
        raise ValueError(f"{extracted_path}: id {missing!r} has no entry with status 'ok' "
                         f"in {path}")


@main.command("compare")
@click.option("--truth", "truth_path", type=str, required=True, help="Ground-truth CSV with labels.")
@click.option("--extracted", "extracted_path", type=str, required=True)
@click.option("--provenance", "provenance_path", type=str, default=None)
@click.option("--schema", "schema_path", type=str, default=None)
@click.option("--family", type=_Families(), required=True)
@click.pass_obj
def cmd_compare(state, truth_path, extracted_path, provenance_path, schema_path, family):
    """Extraction metrics plus fidelity between truth-trained and
    extraction-trained models of one family."""
    from . import encoding, evalkit, models

    schema = _schema_from(state, schema_path)
    lines = (inputs.load_lines(provenance_path, _PROVENANCE_LINE, ValueError)
             if provenance_path else None)
    truth = ds.load_csv(truth_path, schema)
    extracted = ds.load_csv(extracted_path, schema)
    provenance = None
    if lines is not None:
        _bind_provenance(provenance_path, lines, extracted_path, extracted, truth_path, truth)
        provenance = [entry for _, entry in lines]
    extraction = evalkit.extraction_metrics(extracted, truth, provenance)  # rejects unknown ids
    if provenance is not None:
        extraction = {**asdict(extraction), "n_reports": len(provenance),
                      "n_failed": sum(entry.get("status") == "failed" for entry in provenance)}
    # both tables hold the extracted ids in truth order with the truth labels,
    # so their splits and test labels are the same
    position = {rid: k for k, rid in enumerate(truth.ids)}
    order = sorted(range(extracted.n), key=lambda i: position[extracted.ids[i]])
    gt = truth.subset(position[extracted.ids[i]] for i in order)
    ext = replace(extracted.subset(order), labels=gt.labels)
    fits = []
    for table in (gt, ext):
        _, _, X, y = encoding.prepare(table, state.seed)
        model = models.grid_search(family, X["train"], y["train"], X["val"], y["val"]).model
        fits.append((model, X["test"]))
    (model_gt, X_gt), (model_ext, X_ext) = fits
    fidelity = evalkit.fidelity(model_gt, model_ext, X_gt, X_ext, y["test"])
    click.echo(evalkit.render_report(
        {"extraction": extraction, f"fidelity ({family})": fidelity}, state.report_format),
        nl=False)


def _read_answer(text: str, label_spec) -> str | None:
    """The label value an answer names: the whole stripped answer, else its
    first line, each compared exactly; None when it names neither value."""
    answer = text.strip()
    first_line = answer.splitlines()[0].strip() if answer else answer
    values = (label_spec.positive_value, label_spec.negative_value)
    return next((c for c in (answer, first_line) if c in values), None)


@main.command("fewshot")
@click.option("--schema", "schema_path", type=str, default=None)
@click.option("--shots", "shots_path", type=str, required=True,
              help="JSON-lines file of {'text', 'label'} examples.")
@click.option("--corpus", "corpus_path", type=str, default=None)
@click.option("--replay", "replay_script", type=str, default=None)
@click.pass_obj
def cmd_fewshot(state, schema_path, shots_path, corpus_path, replay_script):
    """Few-shot label classification baseline over a report corpus."""
    from .llm import CompletionRequest
    from .prompts import MAX_SHOTS, build_fewshot_classifier_prompt

    label = _schema_from(state, schema_path).label
    if label is None:
        raise ValueError("schema has no label; few-shot classification needs one")
    provider = _provider_from(state, replay_script)
    # shot and gold labels are read like a CSV label; a null or absent gold is none
    named = (lambda value: type(value) in (str, int) and label.parse(value) is not None,
             f"{label.positive_value!r} or {label.negative_value!r}")
    gold = (lambda value: value is None or named[0](value), f"{named[1]}, or null")
    corpus = _read_corpus(state.setting("corpus", corpus_path, required=True),
                          inputs.Table({"id": _ID, "text": _REPORT}, {"label": gold}))
    shots = [(d["text"], label.parse(d["label"])) for _, d in inputs.load_lines(
        shots_path, inputs.Table({"text": inputs.TEXT, "label": named}), ValueError)]
    if not 1 <= len(shots) <= MAX_SHOTS:
        raise ValueError(f"{shots_path}: need between 1 and {MAX_SHOTS} shots, got {len(shots)}")
    golds = [None if doc.get("label") is None else label.parse(doc["label"]) for doc in corpus]
    answers = [_read_answer(provider.complete(CompletionRequest(prompt=prompt)).text, label)
               for prompt in (build_fewshot_classifier_prompt(shots, doc["text"], label)
                              for doc in corpus)]

    out = state.output_dir
    out.mkdir(parents=True, exist_ok=True)
    with (out / "fewshot_labels.csv").open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)  # writes None as an empty cell
        writer.writerow(["id", "predicted", "gold"])
        writer.writerows(zip((doc["id"] for doc in corpus), answers, golds))

    from . import evalkit

    # the one step from label values to classes: (gold is positive, answer is positive)
    scored = [(gold == label.positive_value, answer == label.positive_value)
              for gold, answer in zip(golds, answers) if gold is not None and answer is not None]
    report = {"n reports": len(corpus), "n scored": len(scored),
              "n abstained": answers.count(None)}
    if scored:
        metrics = evalkit.classification_metrics(*zip(*scored))
        # the few-shot baseline emits labels, not scores, so AUC is not reported
        report.update({"accuracy": metrics.accuracy, "precision": metrics.precision,
                       "recall": metrics.recall, "f1": metrics.f1})
    click.echo(evalkit.render_report({"fewshot": report}, state.report_format), nl=False)


if __name__ == "__main__":
    main()
