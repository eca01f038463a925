"""End-to-end command line checks, including exit codes and file outputs."""

import csv
import io
import json
import math
import os
import stat
import subprocess
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from smlbayes.classifiers import NBClassifier
from smlbayes.cli import main, parse_prior
from smlbayes.data import read_codes
from smlbayes.errors import ConfigError
from smlbayes.model_io import load_model
from smlbayes.scoring import PriorSpec


@pytest.fixture()
def data_csv(tmp_path):
    lines = ["temp,color,label"]
    for i in range(1, 31):
        color = "red" if i % 3 else "blue"
        label = "hot" if i > 15 else "cold"
        lines.append(f"{i},{color},{label}")
    path = tmp_path / "data.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def _eval_args(data_csv, out, **overrides):
    flags = {
        "--data": data_csv,
        "--class-col": "label",
        "--classifiers": "nb,om1,pm",
        "--trials": "3",
        "--restarts": "2",
        "--patience": "20",
        "--seed": "1",
        "--out": out,
    }
    flags.update(overrides)
    args = ["eval"]
    for key, value in flags.items():
        args.extend([key, value])
    return args


class TestParsePrior:
    def test_forms(self):
        assert parse_prior("uniform") == PriorSpec.uniform_cell(1.0)
        assert parse_prior("uniform:0.5") == PriorSpec.uniform_cell(0.5)
        assert parse_prior("bdeu:2") == PriorSpec.equivalent_sample_size(2.0)

    def test_rejects(self):
        for bad in ("jeffreys", "uniform:zero", "uniform:-1", "bdeu:0",
                    "uniform:nan", "bdeu:inf", "uniform:1e-320"):
            with pytest.raises(ConfigError):
                parse_prior(bad)


class TestEval:
    def test_byte_identical_reruns(self, data_csv, tmp_path):
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        assert main(_eval_args(data_csv, str(out_a))) == 0
        assert main(_eval_args(data_csv, str(out_b))) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_report_shape(self, data_csv, tmp_path):
        out = tmp_path / "r.json"
        assert main(_eval_args(data_csv, str(out))) == 0
        report = json.loads(out.read_text())
        assert report["format_version"] == 1
        assert len(report["trials"]) == 3
        assert set(report["means"]) == {"nb", "om1", "pm"}
        assert set(report["gains_vs_nb"]) == {"nb", "om1", "pm"}
        assert report["config"]["prior"] == "uniform:1.0"
        for trial in report["trials"]:
            assert set(trial["partitions"]) == {"pm"}

    def test_seed_changes_report(self, data_csv, tmp_path):
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        main(_eval_args(data_csv, str(out_a)))
        main(_eval_args(data_csv, str(out_b), **{"--seed": "2"}))
        a = json.loads(out_a.read_text())
        b = json.loads(out_b.read_text())
        assert [t["train_digest"] for t in a["trials"]] != [
            t["train_digest"] for t in b["trials"]
        ]

    def test_per_trial_discretization_mode(self, data_csv, tmp_path):
        out = tmp_path / "r.json"
        args = _eval_args(data_csv, str(out), **{"--global-discretize": "false"})
        assert main(args) == 0
        report = json.loads(out.read_text())
        assert report["config"]["rediscretize_per_trial"] is True
        assert report["config"]["global_discretize"] is False

    def test_missing_file_exits_2(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        code = main(_eval_args(str(tmp_path / "absent.csv"), str(out)))
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_class_column_exits_2(self, data_csv, tmp_path):
        out = tmp_path / "r.json"
        assert main(_eval_args(data_csv, str(out), **{"--class-col": "nope"})) == 2

    def test_header_only_file_exits_2(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("a,label\n", encoding="utf-8")
        assert main(_eval_args(str(empty), str(tmp_path / "r.json"))) == 2

    def test_bad_classifier_token_exits_3(self, data_csv, tmp_path):
        out = tmp_path / "r.json"
        assert main(_eval_args(data_csv, str(out), **{"--classifiers": "svm"})) == 3

    def test_bad_prior_exits_3(self, data_csv, tmp_path):
        out = tmp_path / "r.json"
        assert main(_eval_args(data_csv, str(out), **{"--prior": "cauchy"})) == 3

    @pytest.mark.parametrize(
        "command,prior", [("eval", "bdeu:inf"), ("search", "uniform:1e-320"), ("eval", "uniform:nan")]
    )
    def test_non_finite_or_subnormal_prior_writes_nothing(self, data_csv, tmp_path, capsys, command, prior):
        out = tmp_path / "r.json"
        if command == "eval":
            args = _eval_args(data_csv, str(out), **{"--prior": prior})
        else:
            args = ["search", "--data", data_csv, "--class-col", "label", "--prior", prior, "--out", str(out)]
        assert main(args) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: prior strength") and err.count("\n") == 1
        assert not out.exists()

    def test_true_label_probability_0_exits_3_and_keeps_out(self, tmp_path, capsys):
        # 400 predictors that agree with the class, but row 59 has every x
        # of class k1 and class k0: nb's softmax underflows to 0 at its label
        lines = [",".join([f"x{j}" for j in range(400)] + ["cls"])]
        for i in range(60):
            x, k = (1, 0) if i == 59 else (i % 2, i % 2)
            lines.append(",".join([str(x)] * 400 + [f"k{k}"]))
        data = tmp_path / "under.csv"
        data.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "rep.json"
        out.write_text("earlier report\n")
        argv = ["eval", "--data", str(data), "--class-col", "cls", "--classifiers", "nb",
                "--trials", "20", "--out", str(out)]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: nb in trial ") and err.count("\n") == 1
        assert "probability 0" in err
        assert out.read_text() == "earlier report\n"
        assert sorted(os.listdir(tmp_path)) == ["rep.json", "under.csv"]

    def test_bad_search_flag_exits_3(self, data_csv, tmp_path):
        out = tmp_path / "r.json"
        assert main(_eval_args(data_csv, str(out), **{"--restarts": "0"})) == 3

    def test_missing_required_flag_exits_3(self, data_csv):
        assert main(["eval", "--data", data_csv, "--class-col", "label"]) == 3


class TestSearch:
    def test_writes_result(self, data_csv, tmp_path):
        out = tmp_path / "s.json"
        code = main(
            [
                "search",
                "--data", data_csv,
                "--class-col", "label",
                "--restarts", "2",
                "--patience", "30",
                "--seed", "7",
                "--out", str(out),
            ]
        )
        assert code == 0
        result = json.loads(out.read_text())
        assert result["format_version"] == 1
        covered = sorted(i for block in result["best_partition"] for i in block)
        assert covered == [0, 1]
        assert len(result["restarts"]) == 2
        assert result["config"]["search"]["seed"] == 7
        # score strings carry full precision
        float(result["best_score"]["log_value"])

    def test_invalid_utf8_exits_2(self, tmp_path, capsys):
        data = tmp_path / "bad.csv"
        data.write_bytes(b"a,label\n1,x\n\xff\xfe,y\n")
        out = tmp_path / "s.json"
        code = main(["search", "--data", str(data), "--class-col", "label", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "UTF-8" in err and err.count("\n") == 1
        assert not out.exists()

    def test_cell_past_the_csv_field_limit_exits_2(self, tmp_path, capsys):
        data = tmp_path / "big.csv"
        data.write_text("a,label\n1,x\n" + "2" * 200_000 + ",y\n", encoding="utf-8")
        out = tmp_path / "s.json"
        code = main(["search", "--data", str(data), "--class-col", "label", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: cannot read {data}: line 3: field larger than field limit (131072)\n"
        assert not out.exists()

    def test_non_finite_numeric_column_exits_2(self, tmp_path, capsys):
        data = tmp_path / "inf.csv"
        data.write_text("a,label\n1,x\n-inf,y\n2,x\n", encoding="utf-8")
        out = tmp_path / "s.json"
        code = main(["search", "--data", str(data), "--class-col", "label", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err == "error: column 'a': non-finite number '-inf'\n"
        assert not out.exists()


class TestTrainPredict:
    def _train(self, data_csv, tmp_path, classifier, class_col="label"):
        model_path = tmp_path / f"{classifier}.json"
        code = main(
            [
                "train",
                "--data", data_csv,
                "--class-col", class_col,
                "--classifier", classifier,
                "--restarts", "2",
                "--patience", "20",
                "--out", str(model_path),
            ]
        )
        assert code == 0
        return model_path

    def _predict(self, tmp_path, model_path, text):
        input_path = tmp_path / "new.csv"
        input_path.write_text(text, encoding="utf-8")
        out_path = tmp_path / "pred.csv"
        code = main(
            ["predict", "--model", str(model_path), "--input", str(input_path), "--out", str(out_path)]
        )
        assert code == 0
        with open(out_path, newline="", encoding="utf-8") as fh:
            return list(csv.reader(fh))

    @pytest.mark.parametrize("classifier", ["nb", "om2", "pm", "anb"])
    def test_round_trip(self, data_csv, tmp_path, classifier):
        model_path = self._train(data_csv, tmp_path, classifier)
        rows = self._predict(tmp_path, model_path, "temp,color\n2,red\n28,blue\n")
        assert rows[0] == ["p_cold", "p_hot", "predicted"]
        assert len(rows) == 3
        for row in rows[1:]:
            total = float(row[0]) + float(row[1])
            assert total == pytest.approx(1.0, abs=1e-12)
        assert rows[1][2] == "cold"
        assert rows[2][2] == "hot"

    def test_predict_column_order_is_free(self, data_csv, tmp_path):
        model_path = self._train(data_csv, tmp_path, "nb")
        a = self._predict(tmp_path, model_path, "temp,color\n2,red\n")
        b = self._predict(tmp_path, model_path, "color,temp\nred,2\n")
        assert a == b

    def test_unseen_category_still_predicts(self, data_csv, tmp_path):
        model_path = self._train(data_csv, tmp_path, "nb")
        rows = self._predict(tmp_path, model_path, "temp,color\n2,green\n")
        total = float(rows[1][0]) + float(rows[1][1])
        assert total == pytest.approx(1.0, abs=1e-12)
        assert rows[1][2] == "cold"

    @staticmethod
    def _one_row(tmp_path):
        path = tmp_path / "new.csv"
        path.write_text("temp,color\n2,red\n", encoding="utf-8")
        return path

    @pytest.mark.parametrize("classifier", ["nb", "om2", "pm", "anb"])
    def test_predict_bytes_equal_a_reference_writer(self, data_csv, tmp_path, classifier):
        # green is an unseen level and 99 lies past every cut point
        model_path = self._train(data_csv, tmp_path, classifier)
        text = "color,temp\nred,2\ngreen,14\nblue,99\ngreen,-5\nred,16\n"
        self._predict(tmp_path, model_path, text)
        model, encoder = load_model(str(model_path))
        ref = io.StringIO(newline="")
        writer = csv.writer(ref)
        names = list(encoder.class_values)
        writer.writerow([f"p_{v}" for v in names] + ["predicted"])
        for x in read_codes(str(tmp_path / "new.csv"), encoder):
            dist = model.predict(x)
            writer.writerow([repr(float(p)) for p in dist] + [names[int(np.argmax(dist))]])
        assert (tmp_path / "pred.csv").read_bytes() == ref.getvalue().encode("utf-8")

    def test_failed_predict_leaves_no_partial_file(self, data_csv, tmp_path, monkeypatch):
        # the model fails on its 900th row, after some 30 KB have been written
        model_path = self._train(data_csv, tmp_path, "nb")
        input_path = tmp_path / "new.csv"
        input_path.write_text("temp,color\n" + "2,red\n" * 1000, encoding="utf-8")
        out = tmp_path / "p.csv"
        out.write_text("earlier output\n", encoding="utf-8")
        before = sorted(tmp_path.iterdir())
        predict, calls = NBClassifier.predict, []

        def failing(self, x):
            calls.append(x)
            if len(calls) == 900:
                raise RuntimeError("model failed")
            return predict(self, x)

        monkeypatch.setattr(NBClassifier, "predict", failing)
        with pytest.raises(RuntimeError, match="model failed"):
            main(["predict", "--model", str(model_path), "--input", str(input_path), "--out", str(out)])
        assert sorted(tmp_path.iterdir()) == before
        assert out.read_text(encoding="utf-8") == "earlier output\n"

    def test_out_naming_a_directory_exits_2_and_leaves_nothing(self, data_csv, tmp_path, capsys):
        model_path = self._train(data_csv, tmp_path, "nb")
        input_path = self._one_row(tmp_path)
        out = tmp_path / "taken"
        out.mkdir()
        before = sorted(tmp_path.iterdir())
        capsys.readouterr()
        assert main(["predict", "--model", str(model_path), "--input", str(input_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out}:") and err.count("\n") == 1
        assert sorted(tmp_path.iterdir()) == before and not any(out.iterdir())

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_out_naming_a_pipe_is_written_in_place(self, data_csv, tmp_path):
        # replacing a pipe (or a device such as /dev/stdout) would remove it
        model_path = self._train(data_csv, tmp_path, "nb")
        input_path = self._one_row(tmp_path)
        pipe = tmp_path / "pipe"
        os.mkfifo(pipe)
        got = []
        reader = threading.Thread(target=lambda: got.append(pipe.read_bytes()), daemon=True)
        reader.start()
        code = main(["predict", "--model", str(model_path), "--input", str(input_path), "--out", str(pipe)])
        reader.join(timeout=30)
        assert code == 0 and not reader.is_alive()
        assert stat.S_ISFIFO(pipe.stat().st_mode)
        assert got[0].startswith(b"p_cold,p_hot,predicted\r\n")

    @pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
    def test_out_to_dev_stdout_writes_into_a_pipe(self, data_csv, tmp_path):
        # /dev/stdout links to 'pipe:[N]' here, a name realpath cannot resolve
        model_path = self._train(data_csv, tmp_path, "nb")
        input_path = self._one_row(tmp_path)
        args = ["predict", "--model", str(model_path), "--input", str(input_path)]
        assert main(args + ["--out", str(tmp_path / "pred.csv")]) == 0
        proc = subprocess.run(
            [sys.executable, "-m", "smlbayes.cli", *args, "--out", "/dev/stdout"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert proc.stdout == (tmp_path / "pred.csv").read_bytes()

    @pytest.mark.skipif(os.name != "posix", reason="needs POSIX permission bits")
    def test_replaced_out_keeps_its_permission_bits(self, data_csv, tmp_path):
        model_path = self._train(data_csv, tmp_path, "nb")
        input_path = self._one_row(tmp_path)
        out = tmp_path / "pred.csv"
        out.write_text("earlier output\n", encoding="utf-8")
        out.chmod(0o600)
        assert main(["predict", "--model", str(model_path), "--input", str(input_path), "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8").startswith("p_cold")
        assert stat.S_IMODE(out.stat().st_mode) == 0o600

    def test_file_at_the_temporary_name_is_left_alone(self, data_csv, tmp_path):
        # a file this run did not create is neither truncated nor removed
        model_path = self._train(data_csv, tmp_path, "nb")
        input_path = self._one_row(tmp_path)
        out = tmp_path / "pred.csv"
        taken = tmp_path / f"pred.csv.{os.getpid()}.0.tmp"
        taken.write_text("not ours\n", encoding="utf-8")
        assert main(["predict", "--model", str(model_path), "--input", str(input_path), "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8").startswith("p_cold")
        assert taken.read_text(encoding="utf-8") == "not ours\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv", "nb.json", "new.csv", "pred.csv", taken.name]

    def test_out_naming_a_symlink_replaces_its_target(self, data_csv, tmp_path):
        model_path = self._train(data_csv, tmp_path, "nb")
        input_path = self._one_row(tmp_path)
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_text("earlier output\n", encoding="utf-8")
        link.symlink_to(target)
        assert main(["predict", "--model", str(model_path), "--input", str(input_path), "--out", str(link)]) == 0
        assert link.is_symlink() and target.read_text(encoding="utf-8").startswith("p_cold")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv", "link.csv", "nb.json", "new.csv", "target.csv"]

    def test_missing_predictor_column_exits_2(self, data_csv, tmp_path):
        model_path = self._train(data_csv, tmp_path, "nb")
        input_path = tmp_path / "new.csv"
        input_path.write_text("temp\n2\n", encoding="utf-8")
        code = main(
            ["predict", "--model", str(model_path), "--input", str(input_path), "--out", str(tmp_path / "p.csv")]
        )
        assert code == 2

    def test_non_numeric_cell_exits_2(self, data_csv, tmp_path, capsys):
        model_path = self._train(data_csv, tmp_path, "nb")
        input_path = tmp_path / "new.csv"
        input_path.write_text("temp,color\nwarm,red\n", encoding="utf-8")
        code = main(
            ["predict", "--model", str(model_path), "--input", str(input_path), "--out", str(tmp_path / "p.csv")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "line 2" in err and "temp" in err

    def _predict_fails(self, data_csv, tmp_path, capsys, content: bytes) -> str:
        model_path = self._train(data_csv, tmp_path, "nb")
        input_path = tmp_path / "new.csv"
        input_path.write_bytes(content)
        out = tmp_path / "p.csv"
        capsys.readouterr()
        code = main(["predict", "--model", str(model_path), "--input", str(input_path), "--out", str(out)])
        assert code == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        return err

    def test_invalid_utf8_input_exits_2(self, data_csv, tmp_path, capsys):
        err = self._predict_fails(data_csv, tmp_path, capsys, b"temp,color\n2,red\n3,\xff\xfe\n")
        assert "UTF-8" in err

    def test_bad_last_row_leaves_no_output(self, data_csv, tmp_path, capsys):
        err = self._predict_fails(data_csv, tmp_path, capsys, b"temp,color\n2,red\n3,blue\nwarm,red\n")
        assert "line 4: column 'temp' expected a number, got 'warm'" in err
        err = self._predict_fails(data_csv, tmp_path, capsys, b"temp,color\n2,red\n3,blue,x\n")
        assert "line 3: row has 3 fields, expected 2" in err

    def test_non_finite_cell_exits_2(self, data_csv, tmp_path, capsys):
        err = self._predict_fails(data_csv, tmp_path, capsys, b"temp,color\n2,red\nnan,blue\n")
        assert "line 3: column 'temp' expected a finite number, got 'nan'" in err

    def test_model_file_not_utf8_exits_2(self, data_csv, tmp_path, capsys):
        model_path = self._train(data_csv, tmp_path, "nb")
        model_path.write_bytes(b"\xff\xfe" + model_path.read_bytes())
        input_path = tmp_path / "new.csv"
        input_path.write_text("temp,color\n2,red\n", encoding="utf-8")
        capsys.readouterr()
        code = main(
            ["predict", "--model", str(model_path), "--input", str(input_path), "--out", str(tmp_path / "p.csv")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read model file") and "UTF-8" in err and err.count("\n") == 1

    def test_cell_past_the_csv_field_limit_exits_2(self, data_csv, tmp_path, capsys):
        err = self._predict_fails(data_csv, tmp_path, capsys, b"temp,color\n2,red\n3," + b"r" * 200_000 + b"\n")
        assert err.endswith("new.csv: line 3: field larger than field limit (131072)\n")

    def test_line_numbers_count_physical_lines(self, data_csv, tmp_path, capsys):
        # the quoted cell spans lines 2 and 3, so the bad row is on line 4
        err = self._predict_fails(data_csv, tmp_path, capsys, b'temp,color\n2,"two\nlines"\ny,zz\n')
        assert "line 4: column 'temp' expected a number, got 'y'" in err

    def test_missing_column_is_reported_before_short_rows(self, data_csv, tmp_path, capsys):
        err = self._predict_fails(data_csv, tmp_path, capsys, b"temp\n2\n3,4\n")
        assert "missing predictor column 'color'" in err

    def test_duplicate_header_name_exits_2(self, data_csv, tmp_path, capsys):
        err = self._predict_fails(data_csv, tmp_path, capsys, b"temp,color,temp\n2,red,30\n")
        assert err == "error: duplicate column names in header\n"

    def test_empty_categorical_cell_exits_2(self, data_csv, tmp_path, capsys):
        err = self._predict_fails(data_csv, tmp_path, capsys, b"temp,color\n2,red\n3, \n")
        assert err == "error: line 3: empty cell in column 'color'\n"

    def test_empty_numeric_cell_exits_2(self, data_csv, tmp_path, capsys):
        err = self._predict_fails(data_csv, tmp_path, capsys, b"color,temp\nred,2\nblue,\n")
        assert err == "error: line 3: empty cell in column 'temp'\n"

    @pytest.mark.parametrize("cell", ["1_0", "\u0661\u0662"])
    def test_number_with_underscore_or_non_ascii_digit_exits_2(self, data_csv, tmp_path, capsys, cell):
        err = self._predict_fails(data_csv, tmp_path, capsys, f"temp,color\n2,red\n{cell},red\n".encode())
        assert err == f"error: line 3: column 'temp' expected a number, got {cell!r}\n"

    def test_byte_order_mark_in_input(self, data_csv, tmp_path):
        model_path = self._train(data_csv, tmp_path, "nb")
        plain = self._predict(tmp_path, model_path, "temp,color\n2,red\n")
        assert self._predict(tmp_path, model_path, "\ufefftemp,color\n2,red\n") == plain

    @pytest.mark.parametrize(
        "classifier,field",
        [("nb", "tables"), ("om2", "tables"), ("nb", "encoder"), ("anb", "partition")],
    )
    def test_null_model_field_exits_2(self, data_csv, tmp_path, capsys, classifier, field):
        model_path = self._train(data_csv, tmp_path, classifier)
        payload = json.loads(model_path.read_text(encoding="utf-8"))
        payload[field] = None
        model_path.write_text(json.dumps(payload), encoding="utf-8")
        self._assert_malformed_model(tmp_path, model_path, capsys)

    @pytest.mark.parametrize(
        "classifier,fault",
        [
            ("nb", "negative class count"),
            ("anb", "negative class count"),
            ("nb", "one class count"),
            ("anb", "one class count"),
            ("nb", "negative table count"),
            ("nb", "missing table"),
            ("anb", "missing table"),
        ],
    )
    def test_bad_model_counts_exit_2(self, data_csv, tmp_path, capsys, classifier, fault):
        model_path = self._train(data_csv, tmp_path, classifier)
        payload = json.loads(model_path.read_text(encoding="utf-8"))
        tables = "tables" if classifier == "nb" else "block_tables"
        if fault == "negative class count":
            payload["class_counts"][0] = -5
        elif fault == "one class count":
            payload["class_counts"] = payload["class_counts"][:1]
        elif fault == "negative table count":
            payload["tables"][0][0][0] = -5
        else:
            payload[tables] = payload[tables][:-1]
        model_path.write_text(json.dumps(payload), encoding="utf-8")
        self._assert_malformed_model(tmp_path, model_path, capsys)

    @pytest.mark.parametrize("classifier", ["nb", "anb"])
    def test_class_counts_disagreeing_with_tables_exit_2(
        self, data_csv, tmp_path, capsys, classifier
    ):
        model_path = self._train(data_csv, tmp_path, classifier)
        payload = json.loads(model_path.read_text(encoding="utf-8"))
        payload["class_counts"] = [1000, 1]
        model_path.write_text(json.dumps(payload), encoding="utf-8")
        self._assert_malformed_model(tmp_path, model_path, capsys)

    def _train_ab(self, tmp_path, classifier):
        """A model trained on an 8-row CSV `a,b,cls`, and its file's payload."""
        data = tmp_path / "d.csv"
        rows = [f"{i},{'xy'[i % 2]},{'pq'[i % 2]}" for i in range(1, 9)]
        data.write_text("\n".join(["a,b,cls", *rows]) + "\n", encoding="utf-8")
        model_path = self._train(str(data), tmp_path, classifier, class_col="cls")
        return model_path, json.loads(model_path.read_text(encoding="utf-8"))

    def test_mixture_tables_of_unequal_class_arity_exit_2(self, tmp_path, capsys):
        model_path, payload = self._train_ab(tmp_path, "om1")
        table = payload["tables"][0]
        table["class_arity"] = 3
        table["counts"] = [row + [0] for row in table["counts"]]
        model_path.write_text(json.dumps(payload), encoding="utf-8")
        self._assert_malformed_model(tmp_path, model_path, capsys, "a,b\n2,x\n")

    @pytest.mark.parametrize(
        "classifier,fault",
        [
            ("om1", "reversed configs"),
            ("om1", "repeated config"),
            ("om1", "negative config"),
            ("om1", "config past arity"),
            ("om1", "subset [5]"),
            ("om1", "q"),
            ("om1", "log q"),
            ("om1", "float subset"),
            ("om1", "float config"),
            ("om1", "float count"),
            ("om1", "float q"),
            ("om1", "float bins"),
            ("anb", "float partition"),
            ("nb", "float count"),
            ("anb", "float class count"),
            ("anb", "reversed configs"),
            ("anb", "q"),
            ("nb", "schema"),
            ("anb", "schema"),
            ("nb", "int category levels"),
            ("nb", "unknown kind"),
            ("nb", "string cut points"),
            ("nb", "boolean strength"),
            ("nb", "boolean format version"),
            ("om1", "string log q"),
        ],
    )
    def test_table_disagreeing_with_the_encoder_exits_2(self, tmp_path, capsys, classifier, fault):
        # every edit keeps the counts of each table summing to its rows, once
        # a float is truncated as `int()` would
        model_path, payload = self._train_ab(tmp_path, classifier)
        tables = payload.get("tables") or payload.get("block_tables")
        table = tables[0]
        if fault == "reversed configs":
            table["configs"].reverse()
            table["counts"].reverse()
        elif fault == "repeated config":
            table["configs"][1] = table["configs"][0]
        elif fault == "negative config":
            table["configs"][0] = [-1]
        elif fault == "config past arity":
            table["configs"][-1] = [9]
        elif fault == "subset [5]":
            table["subset"] = [5]
        elif fault == "q":
            table["q"] += 1
        elif fault == "log q":
            table["log_q"] += 0.5
        elif fault == "float subset":
            table["subset"] = [table["subset"][0] + 0.5]
        elif fault == "float config":
            table["configs"][0] = [table["configs"][0][0] + 0.9]
        elif fault == "float count":
            (table if classifier == "nb" else table["counts"])[0][0] += 0.5
        elif fault == "float q":
            table["q"] += 0.5
        elif fault == "float class count":
            payload["class_counts"][0] += 0.5
        elif fault == "float bins":
            payload["encoder"]["discretization"]["bins"] += 0.9
        elif fault == "float partition":
            payload["partition"][0][0] += 0.5
        elif fault == "int category levels":
            payload["encoder"]["categories"]["b"] = [1, 2]
        elif fault == "unknown kind":
            payload["encoder"]["kinds"][1] = "weird"
        elif fault == "string cut points":
            cuts = payload["encoder"]["discretization"]["cut_points"]
            cuts["a"] = [str(c) for c in cuts["a"]]
        elif fault == "boolean strength":
            payload["prior"]["strength"] = True
        elif fault == "boolean format version":
            payload["format_version"] = True
        elif fault == "string log q":
            table["log_q"] = str(table["log_q"])
        else:
            payload["schema"]["predictor_arities"][1] += 1
        model_path.write_text(json.dumps(payload), encoding="utf-8")
        self._assert_malformed_model(tmp_path, model_path, capsys, "a,b\n2,x\n")

    @pytest.mark.parametrize("strength", [math.inf, "inf", 1e-320])
    @pytest.mark.parametrize("classifier", ["nb", "anb", "om1"])
    def test_model_prior_strength_that_cannot_score_exits_2(self, tmp_path, capsys, classifier, strength):
        model_path, payload = self._train_ab(tmp_path, classifier)
        payload["prior"]["strength"] = strength
        model_path.write_text(json.dumps(payload), encoding="utf-8")
        self._assert_malformed_model(tmp_path, model_path, capsys, "a,b\n2,x\n")

    def test_model_nested_past_the_parser_depth_exits_2(self, tmp_path, capsys):
        model_path = tmp_path / "deep.json"
        model_path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        self._assert_malformed_model(tmp_path, model_path, capsys)

    def test_non_object_model_exits_2(self, tmp_path, capsys):
        model_path = tmp_path / "list.json"
        model_path.write_text("[]", encoding="utf-8")
        self._assert_malformed_model(tmp_path, model_path, capsys)

    def _assert_malformed_model(self, tmp_path, model_path, capsys, rows="temp,color\n2,red\n"):
        input_path = tmp_path / "new.csv"
        input_path.write_text(rows, encoding="utf-8")
        capsys.readouterr()
        code = main(
            ["predict", "--model", str(model_path), "--input", str(input_path), "--out", str(tmp_path / "p.csv")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed model file") and err.count("\n") == 1
        assert not (tmp_path / "p.csv").exists()


class TestFlagChecks:
    @pytest.mark.parametrize(
        "command,flag,value",
        [
            ("search", "--bins", "0"),
            ("search", "--bins", "-1"),
            ("eval", "--bins", "0"),
            ("eval", "--train-frac", "1.5"),
            ("eval", "--train-frac", "0"),
            ("eval", "--train-frac", "1"),
            ("eval", "--train-frac", "nan"),
        ],
    )
    def test_out_of_range_flag_exits_3(self, data_csv, tmp_path, capsys, command, flag, value):
        out = tmp_path / "out.json"
        if command == "eval":
            args = _eval_args(data_csv, str(out), **{flag: value})
        else:
            args = ["search", "--data", data_csv, "--class-col", "label", flag, value,
                    "--out", str(out)]
        assert main(args) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: argument {flag}:") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("token", ["om\u00b2", "om\u0661"], ids=["superscript-two", "arabic-indic-one"])
    @pytest.mark.parametrize("command", ["eval", "train"])
    def test_om_with_a_non_ascii_digit_exits_3(self, data_csv, tmp_path, capsys, command, token):
        # str.isdigit accepts both; int() refused the first and read the second as 1
        out = tmp_path / "out.json"
        if command == "eval":
            args = _eval_args(data_csv, str(out), **{"--classifiers": f"nb,{token}"})
        else:
            args = ["train", "--data", data_csv, "--class-col", "label", "--classifier", token,
                    "--out", str(out)]
        assert main(args) == 3
        assert capsys.readouterr().err == f"error: unknown classifier token {token!r}\n"
        assert not out.exists()

    @pytest.mark.parametrize("value", ["٢", "1_0"], ids=["arabic-indic-two", "underscore"])
    @pytest.mark.parametrize(
        "command,flag",
        [("search", f) for f in ("--seed", "--restarts", "--patience", "--max-block-size", "--bins")]
        + [("eval", "--trials")],
    )
    def test_integer_flag_outside_the_csv_number_rule_exits_3(
        self, data_csv, tmp_path, capsys, command, flag, value
    ):
        # int() reads both, as 2 and 10
        out = tmp_path / "out.json"
        if command == "eval":
            args = _eval_args(data_csv, str(out), **{flag: value})
        else:
            args = ["search", "--data", data_csv, "--class-col", "label", flag, value,
                    "--out", str(out)]
        assert main(args) == 3
        err = capsys.readouterr().err
        assert err == f"error: argument {flag}: expected an integer, got {value!r}\n"
        assert not out.exists()

    def test_bins_far_past_the_row_count_fit_the_cuts_of_one_bin_per_row(self, data_csv, tmp_path):
        # data_csv has 30 rows; the time to fit cuts no longer grows with --bins
        def cuts(bins):
            out = tmp_path / f"nb-{bins}.json"
            args = ["train", "--data", data_csv, "--class-col", "label", "--classifier", "nb",
                    "--bins", str(bins), "--out", str(out)]
            began = time.perf_counter()
            assert main(args) == 0
            elapsed = time.perf_counter() - began
            discretization = json.loads(out.read_text())["encoder"]["discretization"]
            assert discretization["bins"] == bins  # recorded as given
            return discretization["cut_points"], elapsed

        huge, elapsed = cuts(10**18)
        assert elapsed < 1.0
        assert huge == cuts(30)[0] == {"temp": [float(v) for v in range(1, 30)]}

    @pytest.mark.parametrize(
        "argv",
        [
            ["search"],
            ["train", "--classifier", "pm"],
            ["train", "--classifier", "anb"],
            ["eval", "--classifiers", "nb,pm", "--trials", "2"],
            ["eval", "--classifiers", "anb", "--trials", "2"],
        ],
        ids=["search", "train-pm", "train-anb", "eval-pm", "eval-anb"],
    )
    def test_search_without_predictors_exits_3(self, tmp_path, capsys, argv):
        data = tmp_path / "cls.csv"
        data.write_text("cls\np\nq\np\n", encoding="utf-8")
        out = tmp_path / "out.json"
        assert main([*argv, "--data", str(data), "--class-col", "cls", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err == "error: search needs at least one predictor column\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["search"],
            ["eval", "--classifiers", "nb,om1", "--trials", "2"],
            ["train", "--classifier", "om1"],
        ],
        ids=["search", "eval", "train"],
    )
    def test_prior_too_strong_to_score_exits_3(self, tmp_path, capsys, argv):
        # the class mass 2 * 1e308 leaves float range, and the score would be nan
        data = tmp_path / "d.csv"
        rows = [f"{i},{'xy'[i % 2]},{'pq'[i % 2]}" for i in range(1, 9)]
        data.write_text("\n".join(["a,b,cls", *rows]) + "\n", encoding="utf-8")
        out = tmp_path / "out.json"
        args = [*argv, "--data", str(data), "--class-col", "cls", "--prior", "uniform:1e308"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([*args, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err == "error: prior uniform:1e+308 gives a non-finite score (nan)\n"
        assert not out.exists()

    def test_huge_prior_scores_a_log_probability(self, tmp_path):
        # the CI runtime-only CSV: at uniform:1e16 every one of the 8 labels has
        # probability 1/2 under every partition (the score was +128); at 1e306,
        # where lgamma of the class mass overflows, too (it exited 3)
        data = tmp_path / "data.csv"
        rows = [f"{i},{'yx'[i % 2]},{'qp'[i % 2]}" for i in range(1, 9)]
        data.write_text("\n".join(["a,b,cls", *rows]) + "\n", encoding="utf-8")
        out = tmp_path / "partition.json"
        for prior in ("uniform:1e16", "uniform:1e306"):
            argv = ["search", "--data", str(data), "--class-col", "cls", "--restarts", "2",
                    "--prior", prior, "--out", str(out)]
            assert main(argv) == 0
            best = json.loads(out.read_text(encoding="utf-8"))["best_score"]["log_value"]
            assert float(best) == pytest.approx(-8 * math.log(2), rel=1e-12)

    @pytest.mark.parametrize("command", ["eval", "search", "train", "predict"])
    def test_unwritable_out_exits_2(self, data_csv, tmp_path, capsys, command):
        out = tmp_path / "missing" / "out"
        data = ["--data", data_csv, "--class-col", "label"]
        if command == "eval":
            args = _eval_args(data_csv, str(out))
        elif command == "search":
            args = ["search", *data, "--restarts", "2", "--out", str(out)]
        elif command == "train":
            args = ["train", *data, "--classifier", "nb", "--out", str(out)]
        else:
            model = tmp_path / "nb.json"
            assert main(["train", *data, "--classifier", "nb", "--out", str(model)]) == 0
            rows = tmp_path / "new.csv"
            rows.write_text("temp,color\n2,red\n", encoding="utf-8")
            args = ["predict", "--model", str(model), "--input", str(rows), "--out", str(out)]
        capsys.readouterr()
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out}:") and err.count("\n") == 1
        assert not out.parent.exists()


def test_help_runs_as_module():
    proc = subprocess.run(
        [sys.executable, "-m", "smlbayes.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "eval" in proc.stdout and "predict" in proc.stdout
