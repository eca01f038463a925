"""The benchmark's workloads: the CLI commands of one round and their checks.

A round is the fixed sequence of ``smlbayes.cli.main`` commands a workload
issues; the benchmark repeats rounds in a closed loop. Checks read the files
a round wrote and run after timing ends. Each returns one list of problems
per command, so a failed check counts against the command that wrote the
file.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

XOR_CLASSIFIERS = ("nb", "om2", "pm", "anb")
CSV_MODELS = ("nb", "om2")
# floors on held-out accuracy (majority class: about 0.53); the seed commit
# scores 0.719-0.725 (nb) and 0.688-0.695 (om2) on seeds 1-10
CSV_ACCURACY_FLOOR = {"nb": 0.70, "om2": 0.67}


def xor_commands(inp: Path, out: Path) -> list[list[str]]:
    return [[
        "eval", "--data", str(inp / "xor.csv"), "--class-col", "cls",
        "--classifiers", ",".join(XOR_CLASSIFIERS), "--trials", "50",
        "--restarts", "10", "--patience", "200", "--out", str(out / "report.json"),
    ]]


def wide_commands(inp: Path, out: Path) -> list[list[str]]:
    return [[
        "search", "--data", str(inp / "wide.csv"), "--class-col", "cls",
        "--restarts", "2", "--patience", "100", "--out", str(out / "partition.json"),
    ]]


def csv_commands(inp: Path, out: Path) -> list[list[str]]:
    cmds = []
    for model in CSV_MODELS:
        cmds.append([
            "train", "--data", str(inp / "train.csv"), "--class-col", "cls",
            "--classifier", model, "--out", str(out / f"{model}.json"),
        ])
        cmds.append([
            "predict", "--model", str(out / f"{model}.json"),
            "--input", str(inp / "new.csv"), "--out", str(out / f"{model}.pred.csv"),
        ])
    return cmds


def xor_units(out: Path) -> int:
    return json.loads((out / "report.json").read_text())["config"]["trials"]


def wide_units(out: Path) -> int:
    return json.loads((out / "partition.json").read_text())["proposals_evaluated"]


def csv_units(out: Path) -> int:
    return sum(csv_predict_rows(out).values())


def xor_predict_rows(out: Path) -> dict[str, int]:
    trials = json.loads((out / "report.json").read_text())["trials"]
    rows = sum(t["n_test"] for t in trials)
    return {"nb": rows, "mixture": 2 * rows, "anb": rows}  # om2 and pm are mixtures


def wide_predict_rows(out: Path) -> dict[str, int]:
    return {"nb": 0, "mixture": 0, "anb": 0}


def csv_predict_rows(out: Path) -> dict[str, int]:
    rows = {m: len(_read_predictions(out / f"{m}.pred.csv")[1]) for m in CSV_MODELS}
    return {"nb": rows["nb"], "mixture": rows["om2"], "anb": 0}


def check_xor(inp: Path, out: Path, keep: dict) -> list[list[str]]:
    means = json.loads((out / "report.json").read_text())["means"]
    problems = []
    nb = means["nb"]["zero_one_loss"]
    if not 0.40 <= nb <= 0.60:
        problems.append(f"nb 0/1 loss {nb} outside [0.40, 0.60]")
    for name in ("om2", "pm", "anb"):
        if not means[name]["zero_one_loss"] <= 0.15:
            problems.append(f"{name} 0/1 loss {means[name]['zero_one_loss']} above 0.15")
    for name in ("om2", "pm"):
        if not means[name]["log_loss"] < means["nb"]["log_loss"]:
            problems.append(f"{name} log loss not below nb")
    return [problems]


def check_wide(inp: Path, out: Path, keep: dict) -> list[list[str]]:
    from smlbayes.cli import parse_prior
    from smlbayes.data import DatasetEncoder, fit_discretization, load_csv
    from smlbayes.search import score_partition, singleton_partition

    # bins 3 and prior uniform:1.0 are the defaults the search command ran with
    report = json.loads((out / "partition.json").read_text())
    raw = load_csv(inp / "wide.csv", "cls")
    data = DatasetEncoder.fit(raw, fit_discretization(raw, 3)).encode_table(raw)
    prior = parse_prior("uniform:1.0")
    reported = float(report["best_score"]["log_value"])
    recomputed = score_partition(report["best_partition"], data, prior).log_value
    baseline = score_partition(singleton_partition(data.schema.n_predictors), data, prior).log_value
    problems = []
    if not reported >= baseline:
        problems.append(f"best score {reported} below all-singletons score {baseline}")
    if not abs(reported - recomputed) <= 1e-9:
        problems.append(f"best score {reported} != score_partition {recomputed}")
    return [problems]


def _read_predictions(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def check_predictions(path: Path, labels: list[str], floor: float) -> list[str]:
    header, rows = _read_predictions(path)
    values = [h[2:] for h in header[:-1]]
    if len(rows) != len(labels):
        return [f"{path.name}: {len(rows)} rows, expected {len(labels)}"]
    problems = []
    correct = 0
    for line, (row, label) in enumerate(zip(rows, labels), start=2):
        probs = [float(p) for p in row[:-1]]
        if min(probs) <= 0.0 or abs(math.fsum(probs) - 1.0) > 1e-9:
            problems.append(f"{path.name} line {line}: bad distribution {row[:-1]}")
        argmax = values[max(range(len(probs)), key=probs.__getitem__)]
        if row[-1] != argmax:
            problems.append(f"{path.name} line {line}: predicted {row[-1]!r}, argmax {argmax!r}")
        correct += row[-1] == label
        if len(problems) >= 5:
            break
    accuracy = correct / len(labels)
    if not problems and accuracy < floor:
        problems.append(f"{path.name}: accuracy {accuracy:.4f} below {floor}")
    return problems


def check_csv(inp: Path, out: Path, keep: dict) -> list[list[str]]:
    per_command = []
    for model in CSV_MODELS:
        model_file = out / f"{model}.json"
        per_command.append([] if model_file.stat().st_size > 0 else [f"{model_file.name} is empty"])
        per_command.append(check_predictions(
            out / f"{model}.pred.csv", keep["new_labels"], CSV_ACCURACY_FLOOR[model]))
    return per_command


@dataclass(frozen=True)
class Workload:
    commands: Callable[[Path, Path], list[list[str]]]
    # work units of one round, counted from its output files; work_per_s
    # divides them by the time of the rate commands and is printed as rate_name
    units: Callable[[Path], int]
    rate_name: str
    rate_commands: tuple[str, ...]
    check: Callable[[Path, Path, dict], list[list[str]]]
    # rows each classifier kind predicted in one round, by the output files
    predict_rows: Callable[[Path], dict[str, int]]
    # models a round writes, as <name>.json
    models: tuple[str, ...] = ()


WORKLOADS = {
    "xor-eval": Workload(
        xor_commands, xor_units, "trials_per_s", ("eval",), check_xor, xor_predict_rows),
    "wide-search": Workload(
        wide_commands, wide_units, "proposals_per_s", ("search",), check_wide, wide_predict_rows),
    "csv-train-predict": Workload(
        csv_commands, csv_units, "predict_rows_per_s", ("predict",), check_csv, csv_predict_rows,
        CSV_MODELS),
}
