import json

import pytest
from click.testing import CliRunner

from helpers import DATA, SCHEMAS, TEMPLATES, small_schema_file, vorc_fixture_files

from medtab.cli import main


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

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc["test"].append(-1), "test id -1 is not a non-negative integer"),
        (lambda doc: doc["test"].append(doc["test"][0]), "is listed twice under test"),
        (lambda doc: doc["test"].append(doc["train"][0]), "is listed under train and test"),
        (lambda doc: doc["test"].append(589), "split id 589 is outside the table (589 rows)"),
    ], ids=["negative", "duplicate", "shared", "outside"])
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
        assert message in result.output

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
        assert "columns do not match" in result.output

    @pytest.mark.parametrize("corrupt, message", [
        (lambda doc: doc.pop("columns"), "missing key 'columns'"),
        (lambda doc: doc["encoder"]["columns"][0].update(kind="ordinal"),
         "unknown encoder column kind 'ordinal'"),
        (lambda doc: doc.update(columns=5), "'int' object is not iterable"),
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
        assert f"model file {model}: {message}" in result.output

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

    @pytest.mark.parametrize("bad_line", [[1], {"id": "r0", "status": "ok"}])
    def test_compare_malformed_provenance_exits_2_with_its_line(self, runner, tmp_path,
                                                                bad_line):
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
        assert f"{provenance}:2: provenance lines need 'id' and 'vorc_iterations'" \
            in result.output

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
        assert f"{provenance}:2: 'vorc_iterations' must be a non-negative integer, got " \
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


class TestFewshot:
    def make_files(self, tmp_path, answers):
        schema = small_schema_file(tmp_path)
        shots = tmp_path / "shots.jsonl"
        shots.write_text("\n".join(json.dumps({"text": f"shot {i}", "label": "yes" if i % 2 else "no"})
                                   for i in range(10)) + "\n")
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("\n".join(json.dumps(
            {"id": f"q{i}", "text": f"[q-{i}] report", "label": label})
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

    @pytest.mark.parametrize("bad_line", [{"text": "shot 2"}, 7])
    def test_shot_without_label_exits_2_with_its_line(self, runner, tmp_path, bad_line):
        schema, shots, corpus, replay = self.make_files(tmp_path, [("yes", "yes")])
        lines = shots.read_text().splitlines()
        lines[2] = json.dumps(bad_line)
        shots.write_text("\n".join(lines) + "\n")
        result = runner.invoke(main, ["--output-dir", str(tmp_path / "out"), "fewshot",
                                      "--schema", str(schema), "--shots", str(shots),
                                      "--corpus", str(corpus), "--replay", str(replay)])
        assert result.exit_code == 2
        assert f"{shots}:3: shots file lines need 'text' and 'label'" in result.output

    def test_zero_shots_exits_2(self, runner, tmp_path):
        answers = [("yes", "yes")]
        schema, _, corpus, replay = self.make_files(tmp_path, answers)
        empty_shots = tmp_path / "none.jsonl"
        empty_shots.write_text("")
        result = runner.invoke(main, ["--output-dir", str(tmp_path / "out"), "fewshot",
                                      "--schema", str(schema), "--shots", str(empty_shots),
                                      "--corpus", str(corpus), "--replay", str(replay)])
        assert result.exit_code == 2


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
        result, _ = self.extract_with_config(runner, tmp_path, {"provider": provider})
        self.assert_one_error(result, f"http provider setting {key} must be {expected}, "
                                      f"got {value!r}")

    @pytest.mark.parametrize("script", [5, None])
    def test_replay_script_that_is_not_a_path_exits_2(self, runner, tmp_path, script):
        result, _ = self.extract_with_config(runner, tmp_path,
                                             {"provider": {"kind": "replay", "script": script}})
        self.assert_one_error(result, f"replay provider setting script must be a file path "
                                      f"string, got {script!r}")

    def test_config_that_is_not_an_object_exits_2(self, runner, tmp_path):
        result, path = self.extract_with_config(runner, tmp_path, [])
        self.assert_one_error(result, f"config file {path} must hold a JSON object")

    def test_provider_that_is_not_an_object_exits_2(self, runner, tmp_path):
        result, _ = self.extract_with_config(runner, tmp_path, {"provider": ["http"]})
        self.assert_one_error(result, "config key 'provider' must be a JSON object")

    @pytest.mark.parametrize("config, message", [
        ({"seed": "7"}, "config key 'seed' must be an integer"),
        ({"budget": "3"}, "config key 'budget' must be an integer of at least 0"),
        ({"budget": None}, "config key 'budget' must be an integer of at least 0"),
        ({"budget": True}, "config key 'budget' must be an integer of at least 0"),
        ({"parallelism": "4"}, "config key 'parallelism' must be an integer of at least 1"),
        ({"parallelism": 2.5}, "config key 'parallelism' must be an integer of at least 1"),
        ({"output_dir": 5}, "config key 'output_dir' must be a path string"),
        ({"corpus": ["c.jsonl"]}, "config key 'corpus' must be a path string"),
    ], ids=["seed-string", "budget-string", "budget-null", "budget-bool", "parallelism-string",
            "parallelism-float", "output-dir-int", "corpus-list"])
    def test_wrong_typed_config_value_exits_2(self, runner, tmp_path, config, message):
        result, _ = self.extract_with_config(runner, tmp_path, config)
        self.assert_one_error(result, message)

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
        ({"match_substring": 5, "response": "{}"},
         "replay entry 1: 'match_substring' must be a string, got 5"),
        ({"response": 5}, "replay entry 1: 'response' must be a string, got 5"),
    ])
    def test_replay_entry_of_the_wrong_type_exits_2(self, runner, tmp_path, entry, message):
        corpus, _, templates = vorc_fixture_files(tmp_path)
        script = tmp_path / "typed.json"
        script.write_text(json.dumps([{"match_substring": "[record-00]", "response": "{}"},
                                      entry]))
        result = invoke(runner, ["--output-dir", str(tmp_path / "out"), "extract",
                                 "--schema", str(small_schema_file(tmp_path)),
                                 "--templates", str(templates), "--corpus", str(corpus),
                                 "--replay", str(script)])
        self.assert_one_error(result, message)
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
        assert result.stderr.startswith(f"error: cannot read replay script {missing}: ")
