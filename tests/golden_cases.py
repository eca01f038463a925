"""The seeded inputs and commands whose outputs `tests/golden/` pins, and the
comparison `test_golden.py` applies to them.

Regenerate the golden files with ``python tests/regenerate_golden.py`` after
a change that is meant to alter an output, and say why in CHANGES.md.
"""

from __future__ import annotations

import csv
import json
import math
import os
from pathlib import Path

import numpy as np

from smlbayes import PriorSpec, SearchConfig, encode, fit_discretization, load_csv, pm_search
from smlbayes.cli import main

GOLDEN = Path(__file__).parent / "golden"
INPUTS = ("train.csv", "new.csv")

_DATA = ["--data", "train.csv", "--class-col", "cls"]
_SEARCH = ["--restarts", "3", "--patience", "40", "--seed", "5"]

# (output file, argv) per CLI command, in the order they run; predict reads
# the model files train wrote before it
COMMANDS = [
    ("eval-uniform.json", ["eval", *_DATA, "--classifiers", "nb,om2,pm,anb", "--trials", "6",
                           *_SEARCH, "--out", "eval-uniform.json"]),
    ("eval-bdeu-local.json", ["eval", *_DATA, "--bins", "2", "--classifiers", "nb,om1,pm,anb",
                              "--trials", "6", "--prior", "bdeu:2", "--global-discretize", "false",
                              "--max-block-size", "2", *_SEARCH, "--out", "eval-bdeu-local.json"]),
    ("search-uniform.json", ["search", *_DATA, *_SEARCH, "--out", "search-uniform.json"]),
    ("search-bdeu.json", ["search", *_DATA, "--prior", "bdeu:1", "--max-block-size", "2",
                          *_SEARCH, "--out", "search-bdeu.json"]),
]
for _kind in ("nb", "om2", "pm", "anb"):
    COMMANDS.append((f"{_kind}.json", ["train", *_DATA, "--classifier", _kind, *_SEARCH,
                                       "--out", f"{_kind}.json"]))
COMMANDS.append(("anb-bdeu.json", ["train", *_DATA, "--classifier", "anb", "--prior", "bdeu:1",
                                   *_SEARCH, "--out", "anb-bdeu.json"]))
for _model in ("nb", "om2", "pm", "anb", "anb-bdeu"):
    COMMANDS.append((f"pred-{_model}.csv", ["predict", "--model", f"{_model}.json",
                                            "--input", "new.csv", "--out", f"pred-{_model}.csv"]))

# the CLI always starts each restart from singletons; the library can start
# from a random partition
RANDOM_INIT = "search-random-init.json"
OUTPUTS = tuple(name for name, _ in COMMANDS) + (RANDOM_INIT,)


def write_inputs(directory: Path, seed: int = 20170) -> None:
    """Training rows drawn from a pool of 12 configurations, so rows repeat,
    and predict rows that add unseen levels and numbers outside the range.

    The class is a noisy xor of a and b; c is numeric; d is constant, so
    moving it between blocks leaves a partition's score unchanged.
    """
    rng = np.random.default_rng(seed)
    pool = [(a, b, c, "k", e) for a in "xyz" for b in "pq" for c, e in ((0.5, "u"), (2.25, "v"))]
    rows = []
    for i in rng.integers(len(pool), size=90).tolist():
        a, b, c, d, e = pool[i]
        label = ("hi", "lo")[(a == "x") != (b == "p")]
        if rng.random() < 0.15:
            label = "mid"
        c += float(rng.integers(3))
        rows.append([a, b, repr(c), d, e, label])
    new = [row[:5] for row in rows[:8]] * 2
    new += [["w", "r", "100.0", "m", "t"], ["x", "r", "-5.0", "k", "u"], ["w", "r", "100.0", "m", "t"]]
    for name, header, body in (("train.csv", ["a", "b", "c", "d", "e", "cls"], rows),
                               ("new.csv", ["a", "b", "c", "d", "e"], new)):
        with open(directory / name, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([header, *body])


def run_all(directory: Path) -> None:
    """Run every command in `directory`, which holds the inputs, with
    relative paths, so the outputs do not depend on where it is."""
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        for name, argv in COMMANDS:
            if main(argv) != 0:
                raise RuntimeError(f"{name}: {' '.join(argv)} failed")
        raw = load_csv("train.csv", "cls")
        data = encode(raw, fit_discretization(raw, 3))
        config = SearchConfig(restarts=3, patience=40, seed=5, init_mode="random")
        result = pm_search(data, PriorSpec.uniform_cell(1.0), config)
        Path(RANDOM_INIT).write_text(json.dumps(result.to_json_dict(), indent=1) + "\n", encoding="utf-8")
    finally:
        os.chdir(cwd)


def _floats_agree(a: float, b: float, ulps: int = 4) -> bool:
    # NumPy's SIMD exp and log may differ in the last bit across CPUs
    return a == b or abs(a - b) <= ulps * math.ulp(max(abs(a), abs(b)))


def _cells_agree(got: str, want: str) -> bool:
    if got == want:
        return True
    try:
        return _floats_agree(float(got), float(want))
    except ValueError:
        return False


def differences(got, want, where: str = "") -> list[str]:
    """Where two parsed JSON values differ: ints, strings, lists and keys
    exactly, floats (and strings holding floats) within 4 ulp."""
    if isinstance(want, dict) and isinstance(got, dict):
        if got.keys() != want.keys():
            return [f"{where}: keys {sorted(got)} != {sorted(want)}"]
        return [d for k in want for d in differences(got[k], want[k], f"{where}.{k}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{where}: length {len(got)} != {len(want)}"]
        return [d for i, (g, w) in enumerate(zip(got, want)) for d in differences(g, w, f"{where}[{i}]")]
    if isinstance(want, float) and type(got) is float:
        ok = _floats_agree(got, want)
    elif isinstance(want, str) and isinstance(got, str):
        ok = _cells_agree(got, want)
    else:
        ok = type(got) is type(want) and got == want
    return [] if ok else [f"{where}: {got!r} != {want!r}"]


def read_output(path: Path):
    """A JSON output parsed, or a CSV output as a list of rows."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        return json.loads(text)
    return list(csv.reader(text.splitlines()))
