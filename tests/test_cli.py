import json

import pytest
from click.testing import CliRunner

from helpers import DATA, SCHEMAS, TEMPLATES, json_path, small_schema_file, vorc_fixture_files

from medtab.cli import main
from medtab.prompts import MAX_SHOTS


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, args):
    return runner.invoke(main, args, catch_exceptions=False)


class TestPromptPreview:
    def test_renders_without_provider(self, runner, tmp_path):
        report = tmp_path / "report.txt"
        report.write_text("A 70-year-old woman with chest pain.")
        result = invoke(runner, ["prompt-preview", "--schema", str(SCHEMAS / "heart.schema.json"),
                                 "--templates", str(TEMPLATES / "heart"),
                                 "--report", str(report)])
        assert result.exit_code == 0
        assert "Here is an example of a process:" in result.output
        assert result.output.rstrip().endswith("A 70-year-old woman with chest pain.")

    def test_missing_template_dir_exits_2(self, runner, tmp_path):
        result = runner.invoke(main, ["prompt-preview",
                                      "--schema", str(SCHEMAS / "heart.schema.json"),
                                      "--templates", str(tmp_path / "nope"),
                                      "--report-text", "x"])
        assert result.exit_code == 2

    def test_no_reasoning_flag_gives_extract_only(self, runner):
        base = ["prompt-preview", "--schema", str(SCHEMAS / "heart.schema.json"),
                "--templates", str(TEMPLATES / "heart"), "--report-text", "x"]
        full = invoke(runner, base).output
        ablated = invoke(runner, base + ["--no-reasoning"]).output
        assert "Reasoning:\n" in full
        assert len(ablated) < len(full)
        assert 'therefore "Age": 63' not in ablated


    @pytest.mark.parametrize("value", ["9" * 5000, "[" * 100_000 + "]" * 100_000],
                             ids=["5000-digit-integer", "nested-too-deep"])
    def test_example_output_that_cannot_decode_exits_2_naming_the_file(self, runner, tmp_path,
                                                                       value):
        templates = tmp_path / "templates"
        templates.mkdir()
        for name in ("example_report.txt", "example_reasoning.txt"):
            (templates / name).write_text((TEMPLATES / "heart" / name).read_text())
        (templates / "example_output.json").write_text('{"Age": %s}' % value)
        result = invoke(runner, ["prompt-preview", "--schema", str(SCHEMAS / "heart.schema.json"),
                                 "--templates", str(templates), "--report-text", "x"])
        assert result.exit_code == 2
        assert result.stderr.startswith(f"error: {templates / 'example_output.json'}: ")
        assert result.stderr.count("\n") == 1


class TestExtract:
    def run_extract(self, runner, tmp_path, parallelism=1):
        corpus, replay, templates = vorc_fixture_files(tmp_path)
        schema = small_schema_file(tmp_path)
        out = tmp_path / f"out-p{parallelism}"
        result = runner.invoke(main, ["--output-dir", str(out), "extract",
                                      "--schema", str(schema),
                                      "--templates", str(templates),
                                      "--corpus", str(corpus),
                                      "--replay", str(replay),
                                      "--parallelism", str(parallelism)])
        return result, out

    def test_writes_outputs_and_summary(self, runner, tmp_path):
        result, out = self.run_extract(runner, tmp_path)
        assert result.exit_code == 0
        assert "vorc_call_rate=0.300" in result.output
        table = (out / "extracted.csv").read_text()
        assert len(table.strip().split("\n")) == 1 + 9  # header + 9 records
        provenance = [json.loads(l) for l in (out / "provenance.jsonl").read_text().splitlines()]
        assert len(provenance) == 10
        stats = json.loads((out / "extract_stats.json").read_text())
        assert stats["n_failures"] == 1
        assert stats["vorc_call_rate"] == pytest.approx(0.3)

    def test_parallelism_gives_identical_bytes(self, runner, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        _, out1 = self.run_extract(runner, tmp_path / "a", parallelism=1)
        _, out4 = self.run_extract(runner, tmp_path / "b", parallelism=4)
        for name in ("extracted.csv", "provenance.jsonl", "extract_stats.json"):
            assert (out1 / name).read_bytes() == (out4 / name).read_bytes()

    def test_failing_records_do_not_abort(self, runner, tmp_path):
        result, out = self.run_extract(runner, tmp_path)
        assert result.exit_code == 0
        provenance = [json.loads(l) for l in (out / "provenance.jsonl").read_text().splitlines()]
        assert provenance[9]["status"] == "failed"

    def test_config_file_supplies_settings(self, runner, tmp_path):
        corpus, replay, templates = vorc_fixture_files(tmp_path)
        schema = small_schema_file(tmp_path)
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "schema": str(schema), "templates": str(templates), "corpus": str(corpus),
            "provider": {"kind": "replay", "script": str(replay)},
            "output_dir": str(tmp_path / "out"), "parallelism": 1,
        }))
        result = runner.invoke(main, ["--config", str(config), "extract"])
        assert result.exit_code == 0
        assert (tmp_path / "out" / "extracted.csv").exists()

    def test_empty_reply_still_writes_outputs(self, runner, tmp_path):
        corpus, replay, templates = vorc_fixture_files(tmp_path)
        entries = json.loads(replay.read_text())
        entries.insert(0, {"match_substring": "[record-00]", "response": ""})
        replay.write_text(json.dumps(entries))
        out = tmp_path / "out"
        result = runner.invoke(main, ["--output-dir", str(out), "extract",
                                      "--schema", str(small_schema_file(tmp_path)),
                                      "--templates", str(templates), "--corpus", str(corpus),
                                      "--replay", str(replay)])
        assert result.exit_code == 0, result.output
        assert "extracted 9/10 records" in result.output
        provenance = [json.loads(l) for l in (out / "provenance.jsonl").read_text().splitlines()]
        assert provenance[0] == {"id": "r00", "vorc_iterations": 1, "repairs": [],
                                 "status": "ok"}
        assert (out / "extracted.csv").read_text().splitlines()[1].startswith("r00,30,M")
        assert json.loads((out / "extract_stats.json").read_text())["n_records"] == 9

    def test_integer_too_large_for_a_float_gets_a_correction(self, runner, tmp_path):
        corpus, replay, templates = vorc_fixture_files(tmp_path)
        entries = json.loads(replay.read_text())
        huge = '{"age": %s, "sex": "M"}' % ("9" * 400)
        entries.insert(0, {"match_substring": "[record-00]", "response": f"Output JSON:\n{huge}"})
        replay.write_text(json.dumps(entries))
        out = tmp_path / "out"
        result = runner.invoke(main, ["--output-dir", str(out), "extract",
                                      "--schema", str(small_schema_file(tmp_path)),
                                      "--templates", str(templates), "--corpus", str(corpus),
                                      "--replay", str(replay)])
        assert result.exit_code == 0, result.output
        assert "extracted 9/10 records" in result.output
        provenance = [json.loads(l) for l in (out / "provenance.jsonl").read_text().splitlines()]
        assert provenance[0] == {"id": "r00", "vorc_iterations": 1, "repairs": [],
                                 "status": "ok"}
        assert (out / "extracted.csv").read_text().splitlines()[1].startswith("r00,30,M")

    @pytest.mark.parametrize("depth", [990, 100_000])
    def test_reply_nested_too_deep_gets_a_correction(self, runner, tmp_path, depth):
        """A reply too deep for json to decode is an unparseable reply: one
        JSON correction prompt, and the corpus goes on."""
        corpus, replay, templates = vorc_fixture_files(tmp_path)
        entries = json.loads(replay.read_text())
        deep = '{"age": ' * depth + "1" + "}" * depth
        entries.insert(0, {"match_substring": "[record-00]", "response": deep})
        replay.write_text(json.dumps(entries))
        out = tmp_path / "out"
        result = runner.invoke(main, ["--output-dir", str(out), "extract",
                                      "--schema", str(small_schema_file(tmp_path)),
                                      "--templates", str(templates), "--corpus", str(corpus),
                                      "--replay", str(replay)])
        assert result.exit_code == 0, result.output
        assert "extracted 9/10 records" in result.output
        provenance = [json.loads(l) for l in (out / "provenance.jsonl").read_text().splitlines()]
        assert provenance[0] == {"id": "r00", "vorc_iterations": 1, "repairs": [],
                                 "status": "ok"}
        assert (out / "extracted.csv").read_text().splitlines()[1].startswith("r00,30,M")
        assert json.loads((out / "extract_stats.json").read_text())["n_records"] == 9

    def test_all_provider_failures_exit_3(self, runner, tmp_path):
        corpus, _, templates = vorc_fixture_files(tmp_path)
        schema = small_schema_file(tmp_path)
        empty_replay = tmp_path / "empty.json"
        empty_replay.write_text("[]")
        result = runner.invoke(main, ["--output-dir", str(tmp_path / "out"), "extract",
                                      "--schema", str(schema), "--templates", str(templates),
                                      "--corpus", str(corpus), "--replay", str(empty_replay)])
        assert result.exit_code == 3


class TestTrainEvaluateCompare:
    def test_train_dtree_on_hepatitis(self, runner, tmp_path):
        out = tmp_path / "out"
        result = runner.invoke(main, ["--output-dir", str(out), "--seed", "7", "train",
                                      "--data", str(DATA / "hepatitis.csv"),
                                      "--schema", str(SCHEMAS / "hepatitis.schema.json"),
                                      "--family", "dtree"])
        assert result.exit_code == 0, result.output
        assert (out / "model_dtree.json").exists()
        grid = (out / "grid_report.csv").read_text().strip().split("\n")
        assert len(grid) == 1 + 18
        assert (out / "split.json").exists()

    def test_same_seed_identical_model_file(self, runner, tmp_path):
        args = lambda out: ["--output-dir", str(out), "--seed", "11", "train",
                            "--data", str(DATA / "hepatitis.csv"),
                            "--schema", str(SCHEMAS / "hepatitis.schema.json"),
                            "--family", "logreg"]
        assert runner.invoke(main, args(tmp_path / "a")).exit_code == 0
        assert runner.invoke(main, args(tmp_path / "b")).exit_code == 0
        assert (tmp_path / "a" / "model_logreg.json").read_bytes() == \
               (tmp_path / "b" / "model_logreg.json").read_bytes()

    def test_too_small_dataset_exits_2(self, runner, tmp_path):
        csv_path = tmp_path / "tiny.csv"
        csv_path.write_text("age,sex,outcome\n" + "\n".join(
            f"{30 + i},M,{'yes' if i % 2 else 'no'}" for i in range(5)) + "\n")
        schema = small_schema_file(tmp_path)
        result = runner.invoke(main, ["--output-dir", str(tmp_path / "o"), "train",
                                      "--data", str(csv_path), "--schema", str(schema),
                                      "--family", "dtree"])
        assert result.exit_code == 2

    def test_empty_val_part_exits_2_and_writes_nothing(self, runner, tmp_path,
                                                        hepatitis_schema):
        from helpers import eleven_hepatitis_rows
        from medtab.dataset import save_csv

        csv_path = tmp_path / "eleven.csv"
        save_csv(eleven_hepatitis_rows(hepatitis_schema), csv_path)
        schema = str(SCHEMAS / "hepatitis.schema.json")
        for family in ("logreg", "dtree", "gbdt"):
            out = tmp_path / family
            result = runner.invoke(main, ["--output-dir", str(out), "--seed", "3", "train",
                                          "--data", str(csv_path), "--schema", schema,
                                          "--family", family])
            assert result.exit_code == 2, result.output
            assert "the val part is empty" in result.output
            assert not out.exists()
            result = runner.invoke(main, ["--seed", "3", "compare", "--truth", str(csv_path),
                                          "--extracted", str(csv_path), "--schema", schema,
                                          "--family", family])
            assert result.exit_code == 2, result.output
            assert "the val part is empty" in result.output

    def test_evaluate_on_test_split(self, runner, tmp_path):
        out = tmp_path / "out"
        runner.invoke(main, ["--output-dir", str(out), "--seed", "7", "train",
                             "--data", str(DATA / "hepatitis.csv"),
                             "--schema", str(SCHEMAS / "hepatitis.schema.json"),
                             "--family", "dtree"])
        result = runner.invoke(main, ["--json", "evaluate",
                                      "--model", str(out / "model_dtree.json"),
                                      "--data", str(DATA / "hepatitis.csv"),
                                      "--schema", str(SCHEMAS / "hepatitis.schema.json"),
                                      "--split", str(out / "split.json")])
        assert result.exit_code == 0, result.output
        doc = json.loads(result.output)
        metrics = doc["sections"]["classification (test)"]
        assert metrics["accuracy"] >= 0.9

    # each message is of the edited document; the last test id is at len(test) - 1
    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc["test"].append(-1),
         lambda doc: f"$.test[{len(doc['test']) - 1}] must be an integer of at least 0, got -1"),
        (lambda doc: doc["test"].append(doc["test"][0]),
         lambda doc: f"$.test[{len(doc['test']) - 1}] must be an id listed once (it is also at "
                     f"$.test[0]), got {doc['test'][0]}"),
        (lambda doc: doc["test"].append(doc["train"][0]),
         lambda doc: f"$.test[{len(doc['test']) - 1}] must be an id listed once (it is also at "
                     f"$.train[0]), got {doc['train'][0]}"),
        (lambda doc: doc["test"].append(589),
         lambda doc: "split id 589 is outside the table (589 rows)"),
        (lambda doc: doc.update(seed=7.9), lambda doc: "$.seed must be an integer, got 7.9"),
    ], ids=["negative", "duplicate", "shared", "outside", "seed-float"])
    def test_evaluate_bad_split_exits_2(self, runner, tmp_path, edit, message):
        out = tmp_path / "out"
        runner.invoke(main, ["--output-dir", str(out), "--seed", "7", "train",
                             "--data", str(DATA / "hepatitis.csv"),
                             "--schema", str(SCHEMAS / "hepatitis.schema.json"),
                             "--family", "logreg"])
        doc = json.loads((out / "split.json").read_text())
        edit(doc)
        (out / "split.json").write_text(json.dumps(doc))
        result = runner.invoke(main, ["evaluate", "--model", str(out / "model_logreg.json"),
                                      "--data", str(DATA / "hepatitis.csv"),
                                      "--schema", str(SCHEMAS / "hepatitis.schema.json"),
                                      "--split", str(out / "split.json")])
        assert result.exit_code == 2
        assert message(doc) in result.output

    def test_evaluate_mismatched_columns_exits_2(self, runner, tmp_path):
        out = tmp_path / "out"
        runner.invoke(main, ["--output-dir", str(out), "--seed", "7", "train",
                             "--data", str(DATA / "hepatitis.csv"),
                             "--schema", str(SCHEMAS / "hepatitis.schema.json"),
                             "--family", "dtree"])
        result = runner.invoke(main, ["evaluate", "--model", str(out / "model_dtree.json"),
                                      "--data", str(DATA / "heart.csv"),
                                      "--schema", str(SCHEMAS / "heart.schema.json"),
                                      "--split", str(out / "split.json")])
        assert result.exit_code == 2

    def test_evaluate_model_columns_disagreeing_with_encoder_exits_2(self, runner, tmp_path):
        out = tmp_path / "out"
        runner.invoke(main, ["--output-dir", str(out), "--seed", "7", "train",
                             "--data", str(DATA / "hepatitis.csv"),
                             "--schema", str(SCHEMAS / "hepatitis.schema.json"),
                             "--family", "logreg"])
        args = ["evaluate", "--model", str(out / "model_logreg.json"),
                "--data", str(DATA / "hepatitis.csv"),
                "--schema", str(SCHEMAS / "hepatitis.schema.json"),
                "--split", str(out / "split.json")]
        assert runner.invoke(main, args).exit_code == 0
        doc = json.loads((out / "model_logreg.json").read_text())
        doc["columns"] = doc["columns"][1:] + doc["columns"][:1]
        (out / "model_logreg.json").write_text(json.dumps(doc))
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert (f"{out / 'model_logreg.json'}: $.columns must be the encoder's column names, "
                f"got {repr(doc['columns'])[:57]}...") in result.output

    @pytest.mark.parametrize("corrupt, message", [
        (lambda doc: doc.pop("columns"), "$.columns must be a list of column names, got nothing"),
        (lambda doc: doc["encoder"]["columns"][0].update(kind="ordinal"),
         "$.encoder.columns[0].kind must be 'numeric' or 'categorical', got 'ordinal'"),
        (lambda doc: doc.update(columns=5), "$.columns must be a list of column names, got 5"),
    ], ids=["no-columns", "ordinal-kind", "columns-not-a-list"])
    def test_evaluate_damaged_model_file_exits_2_naming_file_and_key(self, runner, tmp_path,
                                                                      corrupt, message):
        out = tmp_path / "out"
        runner.invoke(main, ["--output-dir", str(out), "--seed", "7", "train",
                             "--data", str(DATA / "hepatitis.csv"),
                             "--schema", str(SCHEMAS / "hepatitis.schema.json"),
                             "--family", "dtree"])
        model = out / "model_dtree.json"
        doc = json.loads(model.read_text())
        corrupt(doc)
        model.write_text(json.dumps(doc))
        result = runner.invoke(main, ["evaluate", "--model", str(model),
                                      "--data", str(DATA / "hepatitis.csv"),
                                      "--schema", str(SCHEMAS / "hepatitis.schema.json"),
                                      "--split", str(out / "split.json")])
        assert result.exit_code == 2, result.output
        assert f"{model}: {message}" in result.output

    def test_compare_identical_tables(self, runner, tmp_path):
        result = runner.invoke(main, ["--json", "--seed", "7", "compare",
                                      "--truth", str(DATA / "hepatitis.csv"),
                                      "--extracted", str(DATA / "hepatitis.csv"),
                                      "--schema", str(SCHEMAS / "hepatitis.schema.json"),
                                      "--family", "logreg"])
        assert result.exit_code == 0, result.output
        doc = json.loads(result.output)
        extraction = doc["sections"]["extraction"]
        assert extraction["record_accuracy"] == 1.0
        fid = doc["sections"]["fidelity (logreg)"]
        assert fid["acc_d"] == 0.0
        assert fid["auc_d"] == 0.0
        assert fid["r2"] == 1.0

    def test_compare_end_to_end_replay_fixture(self, runner, tmp_path):
        """Extract 24 reports through a replay script, then compare against a
        truth table that differs in 3 known cells spread over 3 rows:
        record_accuracy = 21/24, cell_accuracy = 45/48."""
        schema = small_schema_file(tmp_path)
        (tmp_path / "tpl").mkdir()
        template_dir = vorc_fixture_files(tmp_path / "tpl")[2]
        corpus, replay, truth_rows = [], [], []
        for i in range(24):
            marker = f"[cmp-{i:02d}]"
            age = 30 + i
            sex = "M" if i % 2 else "F"
            label = "yes" if i % 2 else "no"
            corpus.append({"id": f"c{i:02d}", "text": f"{marker} patient"})
            replay.append({"match_substring": marker,
                           "response": json.dumps({"age": age, "sex": sex})})
            truth_rows.append([f"c{i:02d}", str(age), sex, label])
        truth_rows[2][1] = "99"   # age mismatch
        truth_rows[5][2] = "F"    # sex mismatch (extracted said M)
        truth_rows[8][1] = "77"   # age mismatch
        (tmp_path / "corpus.jsonl").write_text(
            "\n".join(json.dumps(c) for c in corpus) + "\n")
        (tmp_path / "replay.json").write_text(json.dumps(replay))
        truth_csv = tmp_path / "truth.csv"
        truth_csv.write_text("id,age,sex,outcome\n" +
                             "\n".join(",".join(r) for r in truth_rows) + "\n")
        out = tmp_path / "out"
        result = runner.invoke(main, ["--output-dir", str(out), "extract",
                                      "--schema", str(schema),
                                      "--templates", str(template_dir),
                                      "--corpus", str(tmp_path / "corpus.jsonl"),
                                      "--replay", str(tmp_path / "replay.json")])
        assert result.exit_code == 0, result.output
        result = runner.invoke(main, ["--json", "--seed", "5", "compare",
                                      "--truth", str(truth_csv),
                                      "--extracted", str(out / "extracted.csv"),
                                      "--provenance", str(out / "provenance.jsonl"),
                                      "--schema", str(schema), "--family", "dtree"])
        assert result.exit_code == 0, result.output
        extraction = json.loads(result.output)["sections"]["extraction"]
        assert extraction["record_accuracy"] == pytest.approx(21 / 24)
        assert extraction["cell_accuracy"] == pytest.approx(45 / 48)
        assert extraction["missing_precision"] is None
        assert extraction["vorc_call_rate"] == 0.0
        assert extraction["n_evaluated"] == 24

    @pytest.mark.parametrize("as_json", [True, False], ids=["json", "text"])
    def test_compare_counts_provenance_reports_and_failures(self, runner, tmp_path, as_json):
        """Two reports of the truth table failed extraction: the provenance
        has one line per report, two of them with status 'failed'."""
        rows = (DATA / "hepatitis.csv").read_text(encoding="utf-8").splitlines()
        extracted, provenance = tmp_path / "extracted.csv", tmp_path / "provenance.jsonl"
        extracted.write_text("\n".join(rows[:1] + rows[3:]) + "\n", encoding="utf-8")
        provenance.write_text("".join(json.dumps(
            {"id": row.split(",")[0], "vorc_iterations": 1 if i < 2 else 0,
             "status": "failed" if i < 2 else "ok"}) + "\n"
            for i, row in enumerate(rows[1:])), encoding="utf-8")
        args = ["--seed", "7", "compare", "--truth", str(DATA / "hepatitis.csv"),
                "--extracted", str(extracted), "--schema", str(SCHEMAS / "hepatitis.schema.json"),
                "--family", "logreg"]
        without = invoke(runner, (["--json"] if as_json else []) + args)
        result = invoke(runner, (["--json"] if as_json else [])
                        + args + ["--provenance", str(provenance)])
        assert without.exit_code == 0 and result.exit_code == 0, result.output
        n_reports = len(rows) - 1
        if as_json:
            extraction = json.loads(result.stdout)["sections"]["extraction"]
            assert extraction["n_reports"] == n_reports
            assert extraction["n_failed"] == 2
            assert extraction["vorc_call_rate"] == pytest.approx(2 / n_reports)
            assert extraction["n_evaluated"] == n_reports - 2
            shown = json.loads(without.stdout)["sections"]["extraction"]
            assert "n_reports" not in shown and "n_failed" not in shown
        else:
            assert f"  n_evaluated = {n_reports - 2}\n  n_reports = {n_reports}\n" \
                   f"  n_failed = 2\n[fidelity (logreg)]\n" in result.stdout
            assert "n_reports" not in without.stdout

    @pytest.mark.parametrize("command", ["train", "compare"])
    def test_unknown_family_exits_2_naming_the_families(self, runner, tmp_path, command):
        data = ["--data", str(DATA / "hepatitis.csv")] if command == "train" else [
            "--truth", str(DATA / "hepatitis.csv"), "--extracted", str(DATA / "hepatitis.csv")]
        result = runner.invoke(main, ["--output-dir", str(tmp_path / "out"), command, *data,
                                      "--schema", str(SCHEMAS / "hepatitis.schema.json"),
                                      "--family", "forest"])
        assert result.exit_code == 2
        assert "Invalid value for '--family': 'forest' is not one of 'logreg', 'dtree', " \
               "'gbdt'." in result.stderr
        assert not (tmp_path / "out").exists()

    def test_train_help_lists_the_families(self, runner):
        result = invoke(runner, ["train", "--help"])
        assert result.exit_code == 0
        assert "--family [logreg|dtree|gbdt]" in result.stdout

    @pytest.mark.parametrize("bad_line, message", [
        ([1], "$ must be a JSON object, got [1]"),
        ({"id": "r0", "status": "ok"}, "$.vorc_iterations must be an integer of at least 0, "
                                       "got nothing"),
    ], ids=["bad_line0", "bad_line1"])
    def test_compare_malformed_provenance_exits_2_with_its_line(self, runner, tmp_path,
                                                                bad_line, message):
        provenance = tmp_path / "provenance.jsonl"
        provenance.write_text(json.dumps({"id": "a", "vorc_iterations": 0}) + "\n"
                              + json.dumps(bad_line) + "\n")
        result = runner.invoke(main, ["--seed", "7", "compare",
                                      "--truth", str(DATA / "hepatitis.csv"),
                                      "--extracted", str(DATA / "hepatitis.csv"),
                                      "--provenance", str(provenance),
                                      "--schema", str(SCHEMAS / "hepatitis.schema.json"),
                                      "--family", "logreg"])
        assert result.exit_code == 2
        assert f"{provenance}:2: {message}" in result.output

    @pytest.mark.parametrize("iterations", ["x", True, -1, 1.5, None])
    def test_compare_bad_iteration_count_exits_2_with_its_line(self, runner, tmp_path,
                                                               iterations):
        provenance = tmp_path / "provenance.jsonl"
        provenance.write_text(json.dumps({"id": "a", "vorc_iterations": 0}) + "\n"
                              + json.dumps({"id": "b", "vorc_iterations": iterations}) + "\n")
        result = runner.invoke(main, ["--seed", "7", "compare",
                                      "--truth", str(DATA / "hepatitis.csv"),
                                      "--extracted", str(DATA / "hepatitis.csv"),
                                      "--provenance", str(provenance),
                                      "--schema", str(SCHEMAS / "hepatitis.schema.json"),
                                      "--family", "logreg"])
        assert result.exit_code == 2
        assert f"{provenance}:2: $.vorc_iterations must be an integer of at least 0, got " \
            f"{iterations!r}" in result.output

    def test_compare_unlabeled_truth_exits_2(self, runner, tmp_path):
        truth = tmp_path / "truth.csv"
        truth.write_text("".join(line.rsplit(",", 1)[0] + "\n"
                                 for line in (DATA / "hepatitis.csv").read_text().splitlines()))
        result = runner.invoke(main, ["--seed", "7", "compare", "--truth", str(truth),
                                      "--extracted", str(DATA / "hepatitis.csv"),
                                      "--schema", str(SCHEMAS / "hepatitis.schema.json"),
                                      "--family", "logreg"])
        assert result.exit_code == 2
        assert "error: stratified split needs labels" in result.output

    def test_compare_disjoint_ids_exits_2(self, runner, tmp_path):
        import csv as csv_module
        src = (DATA / "hepatitis.csv").read_text().splitlines()
        renamed = tmp_path / "renamed.csv"
        rows = list(csv_module.reader(src))
        for i, row in enumerate(rows[1:], start=0):
            row[0] = f"other-{i}"
        with renamed.open("w", newline="") as fh:
            csv_module.writer(fh).writerows(rows)
        result = runner.invoke(main, ["--seed", "7", "compare",
                                      "--truth", str(DATA / "hepatitis.csv"),
                                      "--extracted", str(renamed),
                                      "--schema", str(SCHEMAS / "hepatitis.schema.json"),
                                      "--family", "logreg"])
        assert result.exit_code == 2


ABSENT = object()  # as a gold label: the corpus line has no "label" key


class TestFewshot:
    def make_files(self, tmp_path, answers, schema=None, shot_labels=("no", "yes") * 5):
        schema = schema or small_schema_file(tmp_path)
        shots = tmp_path / "shots.jsonl"
        shots.write_text("\n".join(json.dumps({"text": f"shot {i}", "label": label})
                                   for i, label in enumerate(shot_labels)) + "\n")
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("\n".join(json.dumps(
            {"id": f"q{i}", "text": f"[q-{i}] report",
             **({} if label is ABSENT else {"label": label})})
            for i, (label, _) in enumerate(answers)) + "\n")
        replay = tmp_path / "replay.json"
        replay.write_text(json.dumps([
            {"match_substring": f"[q-{i}]", "response": resp}
            for i, (_, resp) in enumerate(answers)]))
        return schema, shots, corpus, replay

    def test_labels_scored_and_written(self, runner, tmp_path):
        answers = [("yes", "yes"), ("no", "no"), ("yes", "no"), ("no", "no")]
        schema, shots, corpus, replay = self.make_files(tmp_path, answers)
        result = runner.invoke(main, ["--output-dir", str(tmp_path / "out"), "--json",
                                      "fewshot", "--schema", str(schema),
                                      "--shots", str(shots), "--corpus", str(corpus),
                                      "--replay", str(replay)])
        assert result.exit_code == 0, result.output
        doc = json.loads(result.output)["sections"]["fewshot"]
        assert doc["n scored"] == 4
        assert doc["accuracy"] == 0.75
        assert "auc" not in doc
        labels = (tmp_path / "out" / "fewshot_labels.csv").read_text().splitlines()
        assert labels[0] == "id,predicted,gold"
        assert len(labels) == 5

    def test_gold_case_variants_score_as_their_label(self, runner, tmp_path):
        answers = [("yes", "yes"), ("Yes", "yes"), (" NO ", "no"), (None, "no")]
        schema, shots, corpus, replay = self.make_files(tmp_path, answers)
        result = runner.invoke(main, ["--output-dir", str(tmp_path / "out"), "--json",
                                      "fewshot", "--schema", str(schema),
                                      "--shots", str(shots), "--corpus", str(corpus),
                                      "--replay", str(replay)])
        assert result.exit_code == 0, result.output
        doc = json.loads(result.output)["sections"]["fewshot"]
        assert (doc["n scored"], doc["accuracy"], doc["recall"]) == (3, 1.0, 1.0)
        labels = (tmp_path / "out" / "fewshot_labels.csv").read_text().splitlines()
        assert labels[1:] == ["q0,yes,yes", "q1,yes,yes", "q2,no,no", "q3,no,"]

    def test_gold_naming_neither_value_exits_2_with_its_id(self, runner, tmp_path):
        answers = [("yes", "yes"), ("yess", "yes")]
        schema, shots, corpus, replay = self.make_files(tmp_path, answers)
        result = runner.invoke(main, ["--output-dir", str(tmp_path / "out"), "fewshot",
                                      "--schema", str(schema), "--shots", str(shots),
                                      "--corpus", str(corpus), "--replay", str(replay)])
        assert result.exit_code == 2
        assert "report 'q1': gold label 'yess' is neither 'yes' nor 'no'" in result.output
        assert not (tmp_path / "out").exists()

    def test_unparseable_answer_becomes_abstain(self, runner, tmp_path):
        answers = [("yes", "yes"), ("no", "I refuse to answer")]
        schema, shots, corpus, replay = self.make_files(tmp_path, answers)
        result = runner.invoke(main, ["--output-dir", str(tmp_path / "out"), "--json",
                                      "fewshot", "--schema", str(schema),
                                      "--shots", str(shots), "--corpus", str(corpus),
                                      "--replay", str(replay)])
        doc = json.loads(result.output)["sections"]["fewshot"]
        assert doc["n abstained"] == 1
        assert doc["n scored"] == 1

    @pytest.mark.parametrize("bad_line, message", [
        ({"text": "shot 2"}, "$.label must be a string or an integer, got nothing"),
        (7, "$ must be a JSON object, got 7"),
    ], ids=["bad_line0", "7"])
    def test_shot_without_label_exits_2_with_its_line(self, runner, tmp_path, bad_line,
                                                      message):
        schema, shots, corpus, replay = self.make_files(tmp_path, [("yes", "yes")])
        lines = shots.read_text().splitlines()
        lines[2] = json.dumps(bad_line)
        shots.write_text("\n".join(lines) + "\n")
        result = runner.invoke(main, ["--output-dir", str(tmp_path / "out"), "fewshot",
                                      "--schema", str(schema), "--shots", str(shots),
                                      "--corpus", str(corpus), "--replay", str(replay)])
        assert result.exit_code == 2
        assert f"{shots}:3: {message}" in result.output

    @pytest.mark.parametrize("bad_line, message", [
        ({"text": [], "label": "yes"}, "$.text must be a string, got []"),
        ({"text": "shot 2", "label": True}, "$.label must be a string or an integer, got True"),
        ({"text": "shot 2", "label": {}}, "$.label must be a string or an integer, got {}"),
    ], ids=["text-list", "label-bool", "label-object"])
    def test_shot_of_the_wrong_type_exits_2_with_its_line(self, runner, tmp_path, bad_line,
                                                          message):
        schema, shots, corpus, replay = self.make_files(tmp_path, [("yes", "yes")])
        lines = shots.read_text().splitlines()
        lines[2] = json.dumps(bad_line)
        shots.write_text("\n".join(lines) + "\n")
        result = runner.invoke(main, ["--output-dir", str(tmp_path / "out"), "fewshot",
                                      "--schema", str(schema), "--shots", str(shots),
                                      "--corpus", str(corpus), "--replay", str(replay)])
        assert result.exit_code == 2
        assert result.stderr == f"error: {shots}:3: {message}\n"

    def test_integer_shot_labels_are_read_as_their_text(self, runner, tmp_path):
        shots = tmp_path / "shots.jsonl"
        shots.write_text("".join(json.dumps({"text": f"shot {i}", "label": i % 2}) + "\n"
                                 for i in range(4)))
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(json.dumps({"id": 1, "text": "[q-1] report", "label": 1}) + "\n")
        replay = tmp_path / "replay.json"
        replay.write_text(json.dumps([{"match_substring": "Answer: 1\n\nMedical report: "
                                                          "[q-1]", "response": "1"}]))
        result = runner.invoke(main, ["--output-dir", str(tmp_path / "out"), "--json",
                                      "fewshot", "--schema", str(SCHEMAS / "heart.schema.json"),
                                      "--shots", str(shots), "--corpus", str(corpus),
                                      "--replay", str(replay)])
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["sections"]["fewshot"]["accuracy"] == 1.0

    # (gold, answer) per report; the heart schema's values are "1" and "0"
    HEART_CASES = [("1", "1"), (" 0 ", "0\nbecause the ST slope is up"), (1, "  1  "),
                   (ABSENT, "maybe"), (None, ""), ("0", "Answer: 1"), ("1", "0"), ("0", "1\n0")]

    @pytest.mark.parametrize("as_json, report", [
        (True, '{\n  "report_version": 1,\n  "sections": {\n    "fewshot": {\n'
               '      "n reports": 8,\n      "n scored": 5,\n      "n abstained": 3,\n'
               '      "accuracy": 0.6,\n      "precision": 0.6666666666666666,\n'
               '      "recall": 0.6666666666666666,\n      "f1": 0.6666666666666666\n'
               '    }\n  }\n}\n'),
        (False, "[fewshot]\n  n reports = 8\n  n scored = 5\n  n abstained = 3\n"
                "  accuracy = 0.600000\n  precision = 0.666667\n  recall = 0.666667\n"
                "  f1 = 0.666667\n"),
    ], ids=["json", "text"])
    def test_outputs_pinned(self, runner, tmp_path, as_json, report):
        """An answer names a value as a whole (stripped) or by its first line,
        else it abstains; a gold is matched case-insensitively, stripped, from
        a string or an integer, and an absent or null gold is not scored."""
        schema, shots, corpus, replay = self.make_files(
            tmp_path, self.HEART_CASES, SCHEMAS / "heart.schema.json", ("1", 0))
        result = invoke(runner, ["--output-dir", str(tmp_path / "out")]
                        + ["--json"] * as_json
                        + ["fewshot", "--schema", str(SCHEMAS / "heart.schema.json"),
                           "--shots", str(shots), "--corpus", str(corpus),
                           "--replay", str(replay)])
        assert result.exit_code == 0, result.output
        assert result.stdout == report
        assert (tmp_path / "out" / "fewshot_labels.csv").read_bytes() == (
            b"id,predicted,gold\r\nq0,1,1\r\nq1,0,0\r\nq2,1,1\r\nq3,,\r\nq4,,\r\n"
            b"q5,,0\r\nq6,0,1\r\nq7,1,0\r\n")

    def test_nothing_scored_reports_counts_only(self, runner, tmp_path):
        answers = [(ABSENT, "yes"), ("no", "  "), (None, "no")]
        schema, shots, corpus, replay = self.make_files(tmp_path, answers)
        result = invoke(runner, ["--output-dir", str(tmp_path / "out"), "--json", "fewshot",
                                 "--schema", str(schema), "--shots", str(shots),
                                 "--corpus", str(corpus), "--replay", str(replay)])
        assert result.exit_code == 0, result.output
        assert json.loads(result.stdout)["sections"]["fewshot"] == {
            "n reports": 3, "n scored": 0, "n abstained": 1}
        assert (tmp_path / "out" / "fewshot_labels.csv").read_bytes() == (
            b"id,predicted,gold\r\nq0,yes,\r\nq1,,no\r\nq2,no,\r\n")

    def test_zero_shots_exits_2(self, runner, tmp_path):
        answers = [("yes", "yes")]
        schema, _, corpus, replay = self.make_files(tmp_path, answers)
        empty_shots = tmp_path / "none.jsonl"
        empty_shots.write_text("")
        result = runner.invoke(main, ["--output-dir", str(tmp_path / "out"), "fewshot",
                                      "--schema", str(schema), "--shots", str(empty_shots),
                                      "--corpus", str(corpus), "--replay", str(replay)])
        assert result.exit_code == 2

    @pytest.mark.parametrize("shot_labels, message", [
        (["7"], "shot label '7' is not one of ['0', '1']"),
        ([], f"need between 1 and {MAX_SHOTS} shots, got 0"),
        (["1"] * (MAX_SHOTS + 1), f"need between 1 and {MAX_SHOTS} shots, got {MAX_SHOTS + 1}"),
    ], ids=["label-of-neither-value", "no-shots", "too-many-shots"])
    def test_shots_are_checked_before_any_report(self, runner, tmp_path, shot_labels, message):
        shots, corpus, replay = (tmp_path / name for name in
                                 ("shots.jsonl", "corpus.jsonl", "replay.json"))
        shots.write_text("".join(json.dumps({"text": "s", "label": label}) + "\n"
                                 for label in shot_labels))
        corpus.write_text("")
        replay.write_text("[]")
        result = invoke(runner, ["--output-dir", str(tmp_path / "out"), "fewshot",
                                 "--schema", str(SCHEMAS / "heart.schema.json"),
                                 "--shots", str(shots), "--corpus", str(corpus),
                                 "--replay", str(replay)])
        assert result.exit_code == 2
        assert result.stderr == f"error: {message}\n"
        assert not (tmp_path / "out").exists()


class TestErrorBoundary:
    """Errors that no command catches exit through the group's one boundary:
    one ``error:`` line on stderr, no traceback."""

    def assert_one_error(self, result, message, code=2):
        assert result.exit_code == code
        assert "Traceback" not in result.output
        assert result.stderr == f"error: {message}\n"
        assert not result.stdout

    def test_train_missing_data_exits_2(self, runner, tmp_path):
        missing = tmp_path / "missing.csv"
        result = invoke(runner, ["--output-dir", str(tmp_path / "out"), "train",
                                 "--data", str(missing),
                                 "--schema", str(SCHEMAS / "hepatitis.schema.json"),
                                 "--family", "logreg"])
        self.assert_one_error(result, f"[Errno 2] No such file or directory: '{missing}'")
        assert not (tmp_path / "out").exists()

    def test_compare_missing_truth_exits_2(self, runner, tmp_path):
        missing = tmp_path / "missing.csv"
        result = invoke(runner, ["compare", "--truth", str(missing),
                                 "--extracted", str(DATA / "hepatitis.csv"),
                                 "--schema", str(SCHEMAS / "hepatitis.schema.json"),
                                 "--family", "logreg"])
        self.assert_one_error(result, f"[Errno 2] No such file or directory: '{missing}'")

    def test_extract_negative_budget_exits_2(self, runner, tmp_path):
        corpus, replay, templates = vorc_fixture_files(tmp_path)
        result = invoke(runner, ["--output-dir", str(tmp_path / "out"), "extract",
                                 "--schema", str(small_schema_file(tmp_path)),
                                 "--templates", str(templates), "--corpus", str(corpus),
                                 "--replay", str(replay), "--budget", "-1"])
        self.assert_one_error(result, "max_correction_prompts must be >= 0")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["extract", "fewshot"])
    @pytest.mark.parametrize("line, message", [
        ({"id": "a", "text": 5}, "$.text must be a string, got 5"),
        ({"id": "a", "text": None}, "$.text must be a string, got None"),
        ({"id": ["a"], "text": "report"}, "$.id must be a string or an integer, got ['a']"),
        ({"id": True, "text": "report"}, "$.id must be a string or an integer, got True"),
        ({"id": 1.5, "text": "report"}, "$.id must be a string or an integer, got 1.5"),
    ], ids=["text-number", "text-null", "id-list", "id-bool", "id-float"])
    def test_corpus_field_of_wrong_type_exits_2_with_its_line(self, runner, tmp_path,
                                                              command, line, message):
        _, replay, templates = vorc_fixture_files(tmp_path)
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(json.dumps({"id": 7, "text": "an int id is an id"}) + "\n"
                          + json.dumps(line) + "\n")
        shots = tmp_path / "shots.jsonl"
        shots.write_text(json.dumps({"text": "shot", "label": "yes"}) + "\n")
        extra = (["--templates", str(templates)] if command == "extract"
                 else ["--shots", str(shots)])
        result = invoke(runner, ["--output-dir", str(tmp_path / "out"), command,
                                 "--schema", str(small_schema_file(tmp_path)),
                                 "--corpus", str(corpus), "--replay", str(replay)] + extra)
        self.assert_one_error(result, f"{corpus}:2: {message}")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text", [
        '{"seed": ' + "7" * 5000 + ', "train": [], "val": [], "test": []}',
        "[" * 100_000,
    ], ids=["5000-digit-seed", "nested-too-deep"])
    def test_evaluate_split_json_cannot_decode_names_the_file(self, runner, tmp_path, text):
        out = tmp_path / "out"
        invoke(runner, ["--output-dir", str(out), "--seed", "7", "train",
                        "--data", str(DATA / "hepatitis.csv"),
                        "--schema", str(SCHEMAS / "hepatitis.schema.json"),
                        "--family", "logreg"])
        split_path = out / "split.json"
        split_path.write_text(text)
        result = invoke(runner, ["evaluate", "--model", str(out / "model_logreg.json"),
                                 "--data", str(DATA / "hepatitis.csv"),
                                 "--schema", str(SCHEMAS / "hepatitis.schema.json"),
                                 "--split", str(split_path)])
        assert result.exit_code == 2
        assert "Traceback" not in result.output
        assert result.stderr.startswith(f"error: {split_path}: ")
        assert result.stderr.count("\n") == 1

    def test_evaluate_split_not_json_names_the_file(self, runner, tmp_path):
        out = tmp_path / "out"
        invoke(runner, ["--output-dir", str(out), "--seed", "7", "train",
                        "--data", str(DATA / "hepatitis.csv"),
                        "--schema", str(SCHEMAS / "hepatitis.schema.json"),
                        "--family", "logreg"])
        split_path = out / "split.json"
        split_path.write_text("{seed: 7}")
        result = invoke(runner, ["evaluate", "--model", str(out / "model_logreg.json"),
                                 "--data", str(DATA / "hepatitis.csv"),
                                 "--schema", str(SCHEMAS / "hepatitis.schema.json"),
                                 "--split", str(split_path)])
        self.assert_one_error(result, f"{split_path}: Expecting property name enclosed in "
                                      "double quotes: line 1 column 2 (char 1)")

    def test_provider_error_exits_3(self, runner, tmp_path):
        schema = small_schema_file(tmp_path)
        shots = tmp_path / "shots.jsonl"
        shots.write_text(json.dumps({"text": "shot", "label": "yes"}) + "\n")
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(json.dumps({"id": "q0", "text": "report"}) + "\n")
        replay = tmp_path / "replay.json"
        replay.write_text("[]")
        result = invoke(runner, ["--output-dir", str(tmp_path / "out"), "fewshot",
                                 "--schema", str(schema), "--shots", str(shots),
                                 "--corpus", str(corpus), "--replay", str(replay)])
        self.assert_one_error(result, "no pending replay entry matches the request", code=3)

    def extract_with_config(self, runner, tmp_path, config):
        corpus, _, templates = vorc_fixture_files(tmp_path)
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        result = invoke(runner, ["--config", str(path), "extract",
                                 "--schema", str(small_schema_file(tmp_path)),
                                 "--templates", str(templates), "--corpus", str(corpus)])
        return result, path

    @pytest.mark.parametrize("key, value, expected", [
        ("permits", 0, "an integer of at least 1"),
        ("permits", None, "an integer of at least 1"),
        ("max_attempts", "2", "an integer of at least 1"),
        ("timeout", -1, "a finite number greater than 0"),
    ])
    def test_bad_provider_setting_exits_2(self, runner, tmp_path, monkeypatch,
                                          key, value, expected):
        monkeypatch.setenv("TEST_CLI_TOKEN", "sekrit")
        provider = {"kind": "http", "endpoint": "http://localhost:9/v1", "model": "m",
                    "credential_env": "TEST_CLI_TOKEN", key: value}
        result, path = self.extract_with_config(runner, tmp_path, {"provider": provider})
        self.assert_one_error(result, f"{path}: $.provider.{key} must be {expected}, "
                                      f"got {value!r}")

    @pytest.mark.parametrize("script", [5, None])
    def test_replay_script_that_is_not_a_path_exits_2(self, runner, tmp_path, script):
        result, path = self.extract_with_config(runner, tmp_path,
                                                {"provider": {"kind": "replay", "script": script}})
        self.assert_one_error(result, f"{path}: $.provider.script must be a file path "
                                      f"string, got {script!r}")

    def test_config_that_is_not_an_object_exits_2(self, runner, tmp_path):
        result, path = self.extract_with_config(runner, tmp_path, [])
        self.assert_one_error(result, f"{path}: $ must be a JSON object, got []")

    def test_provider_that_is_not_an_object_exits_2(self, runner, tmp_path):
        result, path = self.extract_with_config(runner, tmp_path, {"provider": ["http"]})
        self.assert_one_error(result, f"{path}: $.provider must be a JSON object, got ['http']")

    @pytest.mark.parametrize("config, message", [
        ({"seed": "7"}, "$.seed must be an integer, got '7'"),
        ({"budget": "3"}, "$.budget must be an integer of at least 0, got '3'"),
        ({"budget": None}, "$.budget must be an integer of at least 0, got None"),
        ({"budget": True}, "$.budget must be an integer of at least 0, got True"),
        ({"parallelism": "4"}, "$.parallelism must be an integer of at least 1, got '4'"),
        ({"parallelism": 2.5}, "$.parallelism must be an integer of at least 1, got 2.5"),
        ({"output_dir": 5}, "$.output_dir must be a path string, got 5"),
        ({"corpus": ["c.jsonl"]}, "$.corpus must be a path string, got ['c.jsonl']"),
    ], ids=["seed-string", "budget-string", "budget-null", "budget-bool", "parallelism-string",
            "parallelism-float", "output-dir-int", "corpus-list"])
    def test_wrong_typed_config_value_exits_2(self, runner, tmp_path, config, message):
        result, path = self.extract_with_config(runner, tmp_path, config)
        self.assert_one_error(result, f"{path}: {message}")

    def test_evaluate_on_a_table_lacking_an_encoder_column_exits_2(self, runner, tmp_path):
        def table(features):
            name = "".join(features)
            schema = tmp_path / f"{name}.schema.json"
            schema.write_text(json.dumps({
                "features": [{"name": f, "title": f, "description": f, "kind": "integer"}
                             for f in features],
                "label": {"name": "y", "positive": "1", "negative": "0"}}))
            data = tmp_path / f"{name}.csv"
            data.write_text("\n".join([f"id,{','.join(features)},y"] + [
                f"r{i},{i % 5},{i % 3},{i % 2}" for i in range(24)]) + "\n")
            return ["--data", str(data), "--schema", str(schema)]

        out = tmp_path / "out"
        invoke(runner, ["--output-dir", str(out), "train", *table(["a", "b"]),
                        "--family", "logreg"])
        result = invoke(runner, ["evaluate", "--model", str(out / "model_logreg.json"),
                                 "--split", str(out / "split.json"), *table(["a", "c"])])
        self.assert_one_error(result, "the encoder needs column(s) the table lacks: b")

    @pytest.mark.parametrize("entry, message", [
        ({"match_substring": 5, "response": "{}"}, "$[1].match_substring must be a string, got 5"),
        ({"response": 5}, "$[1].response must be a string, got 5"),
    ], ids=["entry0-replay entry 1: match_substring", "entry1-replay entry 1: response"])
    def test_replay_entry_of_the_wrong_type_exits_2(self, runner, tmp_path, entry, message):
        corpus, _, templates = vorc_fixture_files(tmp_path)
        script = tmp_path / "typed.json"
        script.write_text(json.dumps([{"match_substring": "[record-00]", "response": "{}"},
                                      entry]))
        result = invoke(runner, ["--output-dir", str(tmp_path / "out"), "extract",
                                 "--schema", str(small_schema_file(tmp_path)),
                                 "--templates", str(templates), "--corpus", str(corpus),
                                 "--replay", str(script)])
        self.assert_one_error(result, f"{script}: {message}")
        assert not (tmp_path / "out").exists()

    def train_hepatitis_logreg(self, runner, out, seed):
        result = invoke(runner, ["--output-dir", str(out), "--seed", str(seed), "train",
                                 "--data", str(DATA / "hepatitis.csv"),
                                 "--schema", str(SCHEMAS / "hepatitis.schema.json"),
                                 "--family", "logreg"])
        assert result.exit_code == 0, result.output
        return out / "model_logreg.json", out / "split.json"

    def evaluate_hepatitis(self, runner, model, split):
        return invoke(runner, ["evaluate", "--model", str(model),
                               "--data", str(DATA / "hepatitis.csv"),
                               "--schema", str(SCHEMAS / "hepatitis.schema.json"),
                               "--split", str(split)])

    def test_evaluate_with_another_seeds_split_exits_2(self, runner, tmp_path):
        model, _ = self.train_hepatitis_logreg(runner, tmp_path / "seed5", 5)
        _, split = self.train_hepatitis_logreg(runner, tmp_path / "seed9", 9)
        result = self.evaluate_hepatitis(runner, model, split)
        self.assert_one_error(result, f"model {model} was trained on split seed 5, "
                                      f"but {split} holds split seed 9")

    def test_evaluate_accepts_a_model_that_records_no_seed(self, runner, tmp_path):
        model, split = self.train_hepatitis_logreg(runner, tmp_path / "seed5", 5)
        doc = json.loads(model.read_text())
        del doc["seed"]
        model.write_text(json.dumps(doc))
        result = self.evaluate_hepatitis(runner, model, split)
        assert result.exit_code == 0, result.output
        assert "accuracy" in result.stdout

    def test_provider_config_error_exits_2(self, runner, tmp_path):
        corpus, _, templates = vorc_fixture_files(tmp_path)
        missing = tmp_path / "missing.json"
        result = invoke(runner, ["extract", "--schema", str(small_schema_file(tmp_path)),
                                 "--templates", str(templates), "--corpus", str(corpus),
                                 "--replay", str(missing)])
        assert result.exit_code == 2
        assert result.stderr == f"error: cannot read {missing}: No such file or directory\n"

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc.update(features=5),
         "$.features must be a non-empty list of features, got 5"),
        (lambda doc: doc["features"].__setitem__(0, "x"),
         "$.features[0] must be a JSON object, got 'x'"),
        (lambda doc: doc["features"][0].update(name=5),
         "$.features[0].name must be a string, got 5"),
        (lambda doc: doc.update(label=[]), "$.label must be a JSON object, got []"),
        (lambda doc: doc["label"].pop("name"), "$.label.name must be a string, got nothing"),
        (lambda doc: doc["features"][0].update(range=[1]),
         "$.features[0].range must be two finite numbers [min, max], or null, got [1]"),
        (lambda doc: doc["features"][1].update(allowed_values=5),
         "$.features[1].allowed_values must be a list, got 5"),
        (lambda doc: doc["features"][0].update(allow_missing="false"),
         "$.features[0].allow_missing must be true or false, got 'false'"),
    ], ids=["features-int", "feature-string", "name-int", "label-list", "label-no-name",
            "range-one-number", "allowed-values-int", "allow-missing-string"])
    def test_schema_field_of_the_wrong_type_exits_2(self, runner, tmp_path, edit, message):
        doc = json.loads((SCHEMAS / "heart.schema.json").read_text(encoding="utf-8"))
        edit(doc)
        schema = tmp_path / "heart.schema.json"
        schema.write_text(json.dumps(doc), encoding="utf-8")
        result = invoke(runner, ["prompt-preview", "--schema", str(schema),
                                 "--templates", str(TEMPLATES / "heart"), "--report-text", "r"])
        self.assert_one_error(result, f"{schema}: {message}")

    @pytest.mark.parametrize("family", [["dtree"], {"dtree": 1}], ids=["list", "object"])
    def test_model_family_of_the_wrong_type_exits_2(self, runner, tmp_path, family):
        model, split = self.train_hepatitis_logreg(runner, tmp_path, 7)
        doc = json.loads(model.read_text())
        doc["family"] = family
        model.write_text(json.dumps(doc))
        result = self.evaluate_hepatitis(runner, model, split)
        self.assert_one_error(result, f"{model}: $.family must be one of 'logreg', 'dtree', "
                                      f"'gbdt', got {family!r}")

    @pytest.fixture(scope="class")
    def hepatitis_trees(self, tmp_path_factory):
        """The hepatitis dtree and GBDT model files of split seed 7, and the split."""
        out = tmp_path_factory.mktemp("trees")
        for family in ("dtree", "gbdt"):
            result = invoke(CliRunner(), ["--output-dir", str(out), "--seed", "7", "train",
                                          "--data", str(DATA / "hepatitis.csv"),
                                          "--schema", str(SCHEMAS / "hepatitis.schema.json"),
                                          "--family", family])
            assert result.exit_code == 0, result.output
        return out

    @pytest.mark.parametrize("family, tree", [("dtree", ("root",)), ("gbdt", ("trees", 2))],
                             ids=["dtree", "gbdt"])
    @pytest.mark.parametrize("column", [1000, 10 ** 400], ids=["1000", "10**400"])
    def test_split_column_outside_the_model_exits_2(self, runner, tmp_path, hepatitis_trees,
                                                    family, tree, column):
        doc = json.loads((hepatitis_trees / f"model_{family}.json").read_text())
        path, node = ("model",) + tree + ("right",), doc
        for key in path:
            node = node[key]
        node["column"] = column  # the tree root's right child is a split
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        result = self.evaluate_hepatitis(runner, model, hepatitis_trees / "split.json")
        shown = repr(column) if column < 10 ** 50 else repr(column)[:57] + "..."
        self.assert_one_error(result, f"{model}: {json_path(path + ('column',))} must be less "
                                      f"than n_columns ({doc['model']['n_columns']}), got {shown}")

    @pytest.mark.parametrize("ids", [(1, "1"), ("a", "a")], ids=["int-and-string", "equal"])
    def test_corpus_ids_that_collide_as_csv_text_exit_2(self, runner, tmp_path, ids):
        _, replay, templates = vorc_fixture_files(tmp_path)
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("".join(json.dumps({"id": rid, "text": f"[record-0{i}] report"}) + "\n"
                                  for i, rid in enumerate((0,) + ids)))
        result = invoke(runner, ["--output-dir", str(tmp_path / "out"), "extract",
                                 "--schema", str(small_schema_file(tmp_path)),
                                 "--templates", str(templates), "--corpus", str(corpus),
                                 "--replay", str(replay)])
        self.assert_one_error(result, f"{corpus}:3: $.id must be other than line 2's id "
                                      f"{ids[0]!r} once written as CSV text, got {ids[1]!r}")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda lines: [{"id": f"x{i}", "vorc_iterations": 1, "status": "ok"} for i in range(5)],
         lambda files: f"{files['provenance']}:1: $.id must be an id of {files['truth']}, "
                       "got 'x0'"),
        (lambda lines: lines[:-1],
         lambda files: f"{files['extracted']}: id 'hep-0588' has no entry with status 'ok' in "
                       f"{files['provenance']}"),
        (lambda lines: lines[:3] + [{**lines[3], "status": "failed"}] + lines[4:],
         lambda files: f"{files['provenance']}:4: $.id must be an id missing from "
                       f"{files['extracted']}, as its status is 'failed', got 'hep-0003'"),
        (lambda lines: lines + [{"id": "hep-0589", "vorc_iterations": 0, "status": "ok"}],
         lambda files: f"{files['provenance']}:590: $.id must be an id of {files['extracted']}, "
                       "as its status is 'ok', got 'hep-0589'"),
    ], ids=["ids-not-in-the-tables", "extracted-id-missing", "failed-id-extracted",
            "ok-id-not-extracted"])
    def test_compare_provenance_must_match_the_extracted_ids(self, runner, tmp_path, edit,
                                                             message):
        rows = (DATA / "hepatitis.csv").read_text(encoding="utf-8").splitlines()
        files = {name: tmp_path / f"{name}.{ext}" for name, ext in
                 (("truth", "csv"), ("extracted", "csv"), ("provenance", "jsonl"))}
        # the truth table has one row more than was extracted
        files["truth"].write_text("\n".join(rows + [rows[-1].replace("hep-0588", "hep-0589")])
                                  + "\n", encoding="utf-8")
        files["extracted"].write_text("\n".join(rows) + "\n", encoding="utf-8")
        lines = [{"id": row.split(",")[0], "vorc_iterations": 0, "status": "ok"}
                 for row in rows[1:]]
        files["provenance"].write_text("".join(json.dumps(entry) + "\n"
                                               for entry in edit(lines)), encoding="utf-8")
        result = invoke(runner, ["compare", "--truth", str(files["truth"]),
                                 "--extracted", str(files["extracted"]),
                                 "--provenance", str(files["provenance"]),
                                 "--schema", str(SCHEMAS / "hepatitis.schema.json"),
                                 "--family", "logreg"])
        self.assert_one_error(result, message(files))
