"""smlbayes benchmark: one workload per invocation, run from the checkout root.

    python3 perfbench/run.py --workload xor-eval --seed 1 --seconds 30 --trace 0

Steps: generate the workload's CSV inputs from the seed (untimed), time a
fresh-interpreter ``import smlbayes.cli`` several times (setup_s), run the
workload's rounds in one worker process, check every output file, and print
the metrics. ``--trace 1`` instead runs one untraced and one traced round and
prints per-layer metrics from the traced one. The last line of standard
output is the JSON result; the lines before it are for people.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_REPEATS = 5
# a whole invocation must end well inside the 180 s allowed
DEADLINE_S = 170.0

# the machine may have few cores and is shared: keep native code on one thread
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}

from workloads import WORKLOADS


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC), **THREAD_ENV)


def measure_setup() -> float:
    """Median wall time of a fresh interpreter importing smlbayes.cli.

    One unmeasured import first writes the bytecode caches, which users pay
    only once.
    """
    cmd = [sys.executable, "-c", "import smlbayes.cli"]
    times = []
    for i in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=child_env(), cwd=ROOT, check=True, timeout=60)
        if i:
            times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_worker(workload: str, inputs: Path, out: Path, seconds: float, trace: bool, deadline: float) -> dict:
    result = out.with_suffix(".json")
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(inputs), str(out),
           str(seconds), "1" if trace else "0", str(result)]
    # worker output goes to stderr so the last stdout line stays the result
    subprocess.run(cmd, env=child_env(), cwd=ROOT, check=True, stdout=sys.stderr,
                   timeout=max(deadline - time.monotonic(), 1.0))
    return json.loads(result.read_text(encoding="utf-8"))


def dir_digest(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(path.iterdir()):
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def check_rounds(name: str, inputs: Path, keep: dict, rounds: list[dict]) -> int:
    """Count failed commands: nonzero exit, or a problem in their output.

    Rounds that wrote identical files are checked once.
    """
    workload = WORKLOADS[name]
    verdicts: dict[str, list[list[str]]] = {}
    failed = 0
    for rnd in rounds:
        out = Path(rnd["dir"])
        digest = dir_digest(out)
        if digest not in verdicts:
            try:
                verdicts[digest] = workload.check(inputs, out, keep)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                verdicts[digest] = [[f"unreadable output: {exc!r}"]] * len(rnd["commands"])
            for problems in verdicts[digest]:
                for problem in problems:
                    print(f"check failed: {out.name}: {problem}", file=sys.stderr)
        for cmd, problems in zip(rnd["commands"], verdicts[digest]):
            failed += bool(cmd["rc"] != 0 or problems)
    return failed


def work_per_s(name: str, rnd: dict) -> float:
    workload = WORKLOADS[name]
    busy = sum(c["s"] for c in rnd["commands"] if c["command"] in workload.rate_commands)
    return workload.units(Path(rnd["dir"])) / busy


def model_bytes(name: str, round_dir: Path) -> int:
    return sum((round_dir / f"{m}.json").stat().st_size for m in WORKLOADS[name].models)


def layer_metrics(name: str, traced: dict, untraced_wall: float) -> dict[str, tuple[float, str]]:
    spans, groups = traced["spans"], traced["groups"]
    rnd = traced["rounds"][0]

    def calls(span: str) -> tuple[int, str]:
        return spans[span]["calls"], "count"

    def busy(span: str, key: str = "s") -> tuple[float, str]:
        return spans[span][key], "s"

    predict_calls = sum(spans[s]["calls"] for s in
                        ("classifiers.NBClassifier.predict", "classifiers.MixtureClassifier.predict",
                         "classifiers.ANBClassifier.predict"))
    block_calls = spans["search.PartitionScorer.block_score"]["calls"]
    misses = traced["block_cache_misses"]
    out = {
        "data.load_csv.calls": calls("data.load_csv"),
        "data.load_csv.s": busy("data.load_csv"),
        "data.encode.s": (groups["data.encode"], "s"),
        "data.encode_value.calls": (traced["counts"]["data.DatasetEncoder.encode_value"], "count"),
        "data.split_indices.calls": calls("data.split_indices"),
        "data.split_indices.s": busy("data.split_indices"),
        "scoring.build_count_table.calls": calls("scoring.build_count_table"),
        "scoring.build_count_table.s": busy("scoring.build_count_table"),
        "scoring.build_count_table.rows": (traced["rows"]["scoring.build_count_table"], "count"),
        "scoring.log_sml.calls": calls("scoring.log_sml"),
        "scoring.log_sml.s": busy("scoring.log_sml"),
        "scoring.log_family_score.calls": calls("scoring.log_family_score"),
        "scoring.log_family_score.s": busy("scoring.log_family_score"),
        "search.pm_search.calls": calls("search.pm_search"),
        "search.pm_search.s": busy("search.pm_search"),
        "search.pm_search.self_s": busy("search.pm_search", "self_s"),
        "search.propose_move.calls": calls("search.propose_move"),
        "search.propose_move.s": busy("search.propose_move"),
        "search.block_score.calls": (block_calls, "count"),
        "search.block_cache.misses": (misses, "count"),
        "search.block_cache.hit_ratio": (1.0 - misses / block_calls if block_calls else 0.0, "ratio"),
    }
    for kind in ("nb", "omi", "pm_mixture", "anb"):
        out[f"classifiers.build_{kind}.calls"] = calls(f"classifiers.build_{kind}")
        out[f"classifiers.build_{kind}.s"] = busy(f"classifiers.build_{kind}")
    for kind, cls in (("nb", "NBClassifier"), ("mixture", "MixtureClassifier"), ("anb", "ANBClassifier")):
        out[f"classifiers.predict.{kind}.calls"] = calls(f"classifiers.{cls}.predict")
        out[f"classifiers.predict.{kind}.s"] = busy(f"classifiers.{cls}.predict")
    out["classifiers.predict.us_per_row"] = (
        1e6 * groups["classifiers.predict"] / predict_calls if predict_calls else 0.0, "us")
    out.update({
        "harness.run_trials.s": busy("harness.run_trials"),
        "harness.run_trials.self_s": busy("harness.run_trials", "self_s"),
        "harness.losses.s": (groups["harness.losses"], "s"),
        "model_io.model_to_json_dict.s": busy("model_io.model_to_json_dict"),
        "model_io.load_model.s": busy("model_io.load_model"),
        "model_io.model_bytes": (model_bytes(name, Path(rnd["dir"])), "bytes"),
        "cli.main.calls": calls("cli.main"),
        "cli.main.self_s": busy("cli.main", "self_s"),
        "trace.overhead_s": (rnd["wall_s"] - untraced_wall, "s"),
    })
    return out


def cross_check(name: str, traced: dict, plain_round: dict) -> list[str]:
    """Compare the traced round with counts the program reports itself, and
    its output files with the untraced round's."""
    problems = []
    traced_dir, plain_dir = Path(traced["rounds"][0]["dir"]), Path(plain_round["dir"])
    for f in sorted(plain_dir.iterdir()):
        if f.read_bytes() != (traced_dir / f.name).read_bytes():
            problems.append(f"traced run wrote a different {f.name}")
    spans = traced["spans"]
    expected = WORKLOADS[name].predict_rows(traced_dir)
    for kind, cls in (("nb", "NBClassifier"), ("mixture", "MixtureClassifier"), ("anb", "ANBClassifier")):
        got = spans[f"classifiers.{cls}.predict"]["calls"]
        if got != expected[kind]:
            problems.append(f"{got} {kind} predict calls, program predicted {expected[kind]} rows")
    if name == "wide-search":
        proposals = WORKLOADS[name].units(traced_dir)
        if spans["search.propose_move"]["calls"] != proposals:
            problems.append(f"{spans['search.propose_move']['calls']} propose_move calls, "
                            f"report says {proposals} proposals")
        if spans["scoring.build_count_table"]["calls"] != traced["block_cache_misses"]:
            problems.append("search built count tables outside block-cache misses")
    return problems


def stamp(versions: dict) -> str:
    commit = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
        commit = git.stdout.strip() or commit
    src = hashlib.sha256()
    for f in sorted(SRC.rglob("*.py")):
        src.update(str(f.relative_to(SRC)).encode() + b"\0" + f.read_bytes())
    fields = dict(nproc=len(os.sched_getaffinity(0)), **versions, commit=commit, src_sha256=src.hexdigest()[:16])
    return " ".join(f"{k}={v}" for k, v in fields.items())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (SRC / "smlbayes" / "cli.py").is_file():
        print(f"error: no smlbayes sources under {SRC}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    os.environ.update(THREAD_ENV)  # before numpy loads, here and in every child
    import gen

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    inputs = work / "inputs"
    inputs.mkdir(parents=True)
    keep = gen.WRITERS[args.workload](inputs, args.seed)

    metrics: dict[str, tuple[float, str]] = {}
    if args.trace:
        plain = run_worker(args.workload, inputs, work / "plain", 0, False, deadline)
        traced = run_worker(args.workload, inputs, work / "traced", 0, True, deadline)
        rounds = plain["rounds"] + traced["rounds"]
        metrics = layer_metrics(args.workload, traced, plain["rounds"][0]["wall_s"])
        problems = cross_check(args.workload, traced, plain["rounds"][0])
    else:
        metrics["setup_s"] = (measure_setup(), "s")
        plain = run_worker(args.workload, inputs, work / "plain", args.seconds, False, deadline)
        rounds = plain["rounds"]
        metrics["wall_s"] = (statistics.median(r["wall_s"] for r in rounds), "s")
        metrics["work_per_s"] = (statistics.median(work_per_s(args.workload, r) for r in rounds), "1/s")
        metrics["peak_rss_mb"] = (plain["peak_rss_mb"], "MB")
        problems = []

    attempted = sum(len(r["commands"]) for r in rounds)
    failed = check_rounds(args.workload, inputs, keep, rounds)
    for problem in problems:
        print(f"cross-check failed: {problem}", file=sys.stderr)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(rounds)} round(s), {attempted} command(s)")
    print(f"env {stamp(plain['versions'])}")
    for f in sorted(Path(rounds[0]["dir"]).iterdir()):
        print(f"sha256 {f.name} {hashlib.sha256(f.read_bytes()).hexdigest()}")
    for metric, (value, unit) in metrics.items():
        alias = f"  ({WORKLOADS[args.workload].rate_name})" if metric == "work_per_s" else ""
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"{metric} {shown} {unit}{alias}")
    print(f"fail_frac {failed / attempted:.6g} ratio ({failed}/{attempted})")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
