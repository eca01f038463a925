"""Tests of the benchmark itself; run with ``python3 -m pytest perfbench -q``.

They use smaller inputs than the benchmark so they finish in seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import gen
import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
LAYERS = json.loads((run.HERE / "layers.json").read_text())["metrics"]
SMALL = {"wide-search": 3000, "csv-train-predict": 400}


def _tree(path: Path) -> dict[str, bytes]:
    return {f.name: f.read_bytes() for f in sorted(path.iterdir())}


@pytest.mark.parametrize("workload", sorted(gen.WRITERS))
def test_generators_are_deterministic_and_seed_sensitive(tmp_path, workload):
    write = gen.WRITERS[workload]
    for name, seed in (("a", 3), ("b", 3), ("c", 4)):
        (tmp_path / name).mkdir()
        write(tmp_path / name, seed)
    assert _tree(tmp_path / "a") == _tree(tmp_path / "b")
    assert _tree(tmp_path / "a") != _tree(tmp_path / "c")


def _run_pair(tmp_path: Path, workload: str) -> tuple[dict, dict, dict]:
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    keep = gen.WRITERS[workload](inputs, 5, n_rows=SMALL[workload])
    deadline = time.monotonic() + 120
    plain = run.run_worker(workload, inputs, tmp_path / "plain", 0, False, deadline)
    traced = run.run_worker(workload, inputs, tmp_path / "traced", 0, True, deadline)
    return plain, traced, keep


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_traced_run_writes_identical_files_and_matches_program_counts(tmp_path, workload):
    plain, traced, _ = _run_pair(tmp_path, workload)
    plain_dir, traced_dir = Path(plain["rounds"][0]["dir"]), Path(traced["rounds"][0]["dir"])
    assert _tree(plain_dir) == _tree(traced_dir)
    assert run.cross_check(workload, traced, plain["rounds"][0]) == []
    assert traced["spans"]["cli.main"]["calls"] == len(traced["rounds"][0]["commands"])


def test_wide_search_count_table_calls_repeat_exactly(tmp_path):
    calls = []
    for name in ("1", "2"):
        (tmp_path / name).mkdir()
        traced = _run_pair(tmp_path / name, "wide-search")[1]
        calls.append(traced["spans"]["scoring.build_count_table"]["calls"])
    assert calls[0] == calls[1] > 0


def test_metric_names_and_units_match_benchmark_json(tmp_path):
    plain, traced, _ = _run_pair(tmp_path, "csv-train-predict")
    layers = run.layer_metrics("csv-train-predict", traced, plain["rounds"][0]["wall_s"])
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {name: unit for name, (_, unit) in layers.items()} == declared
    assert set(LAYERS) == set(declared)
    assert {m["name"] for m in BENCHMARK["end_to_end"]} == {"setup_s", "wall_s", "work_per_s", "peak_rss_mb"}
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(run.WORKLOADS)


def test_checks_pass_on_good_output_and_fail_on_bad(tmp_path):
    plain, _, keep = _run_pair(tmp_path, "csv-train-predict")
    inputs, rounds = tmp_path / "inputs", plain["rounds"]
    assert run.check_rounds("csv-train-predict", inputs, keep, rounds) == 0
    pred = Path(rounds[0]["dir"]) / "nb.pred.csv"
    lines = pred.read_text().splitlines()
    pred.write_text("\n".join(lines[:-1]) + "\n")  # drop a row
    assert run.check_rounds("csv-train-predict", inputs, keep, rounds) == 1


def test_exits_nonzero_without_result_when_sources_are_missing(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "xor-eval", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
