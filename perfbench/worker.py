"""Run one workload's rounds in this process and write their timings as JSON.

Usage: python3 perfbench/worker.py WORKLOAD INPUT_DIR OUT_DIR SECONDS TRACE RESULT

One caller issues ``smlbayes.cli.main`` commands one after another (a closed
loop). The first round always runs; another starts only while the time used
plus the median round still fits in SECONDS. With TRACE=1 the worker installs
the tracer before the first command and writes its spans next to RESULT.
smlbayes must be importable (the benchmark puts the checkout's src/ on
PYTHONPATH).
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from tracing import GROUPS, Tracer, child_count, group_busy, summarize
from workloads import WORKLOADS


def run_command(cli, argv: list[str]) -> int:
    try:
        return cli.main(argv)
    except Exception:  # a crash is a failed command; the loop goes on
        traceback.print_exc()
        return -1


def main(argv: list[str]) -> int:
    name, inp, out, seconds, trace, result_path = argv
    workload = WORKLOADS[name]
    import smlbayes.cli as cli

    tracer = Tracer() if trace == "1" else None
    if tracer is not None:
        tracer.install()

    rounds = []
    clock = time.perf_counter
    began = clock()
    while True:
        round_dir = Path(out) / f"r{len(rounds)}"
        round_dir.mkdir(parents=True)
        commands = []
        round_start = clock()
        for cmd in workload.commands(Path(inp), round_dir):
            t0 = clock()
            rc = run_command(cli, cmd)
            commands.append({"command": cmd[0], "rc": rc, "s": clock() - t0})
        rounds.append({"dir": str(round_dir), "wall_s": clock() - round_start, "commands": commands})
        used = clock() - began
        if used + statistics.median(r["wall_s"] for r in rounds) > float(seconds):
            break

    import numpy
    import scipy

    result = {
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
        "rounds": rounds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        spans = tracer.arrays()
        tracer.save(Path(result_path).with_suffix(".spans.npz"))
        result["spans"] = summarize(tracer.names, spans)
        result["counts"] = tracer.counts
        result["rows"] = tracer.rows
        result["groups"] = {g: group_busy(tracer.names, spans, members) for g, members in GROUPS.items()}
        result["block_cache_misses"] = child_count(
            tracer.names, spans, "search.PartitionScorer.block_score", "scoring.build_count_table"
        )
    Path(result_path).write_text(json.dumps(result, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
