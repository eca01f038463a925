"""Seeded input generators for the benchmark workloads.

Each generator writes CSV files into a directory and returns whatever the
benchmark keeps for itself (the held-out labels of csv-train-predict). The
same seed gives the same bytes for a given NumPy version; the program under
test only ever sees the CSV files.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

# per-workload stream tags keep the workloads' inputs independent for one seed
_XOR_STREAM = 1
_WIDE_STREAM = 2
_CSV_STREAM = 3


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([stream, seed])


def _write_csv(path: Path, header: list[str], columns: list[list[str]]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(cells) for cells in zip(*columns))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_xor(out_dir: Path, seed: int, n_rows: int = 400) -> dict:
    """x0 XOR x1 sets the class, flipped with probability 0.05; x2, x3 are noise.

    The four (x0, x1) cells hold n_rows / 4 rows each, so neither predictor
    alone carries class information and naive Bayes stays near chance on
    every seed.
    """
    rng = _rng(seed, _XOR_STREAM)
    cells = rng.permutation(np.arange(n_rows) % 4)
    x = np.column_stack([cells // 2, cells % 2, rng.integers(2, size=(n_rows, 2))])
    flip = rng.random(n_rows) < 0.05
    y = (x[:, 0] ^ x[:, 1]) ^ flip.astype(np.int64)
    columns = [[("a", "b")[v] for v in x[:, j].tolist()] for j in range(4)]
    columns.append([("neg", "pos")[v] for v in y.tolist()])
    _write_csv(out_dir / "xor.csv", ["x0", "x1", "x2", "x3", "cls"], columns)
    return {}


def write_wide(out_dir: Path, seed: int, n_rows: int = 50_000) -> dict:
    """16 categorical predictors, arities 2..5, 3 classes from planted interactions.

    The class is a noisy function of the pairs (x0, x1) and (x2, x3, x4), so a
    good partition groups those predictors; the other eleven are noise.
    """
    rng = _rng(seed, _WIDE_STREAM)
    arities = [2 + (j % 4) for j in range(16)]
    x = np.stack([rng.integers(a, size=n_rows) for a in arities], axis=1)
    signal = (x[:, 0] * x[:, 1] + x[:, 2] + 2 * x[:, 3] * x[:, 4]) % 3
    noisy = rng.random(n_rows) < 0.25
    y = np.where(noisy, rng.integers(3, size=n_rows), signal)
    columns = [[f"c{v}" for v in x[:, j].tolist()] for j in range(16)]
    columns.append([f"k{v}" for v in y.tolist()])
    header = [f"x{j}" for j in range(16)] + ["cls"]
    _write_csv(out_dir / "wide.csv", header, columns)
    return {}


def _csv_rows(rng: np.random.Generator, n_rows: int) -> tuple[list[list[str]], list[str]]:
    """6 numeric and 4 eight-level categorical columns; binary class."""
    num = rng.normal(size=(n_rows, 6))
    cat = rng.integers(8, size=(n_rows, 4))
    logit = (
        1.2 * num[:, 0]
        - 0.8 * num[:, 1]
        + 0.6 * num[:, 2] * num[:, 3]
        + np.where(cat[:, 0] < 3, 1.0, -0.6)
        + 0.4 * (cat[:, 1] % 2)
    )
    y = rng.random(n_rows) < 1.0 / (1.0 + np.exp(-logit))
    columns = [[f"{v:.6f}" for v in num[:, j].tolist()] for j in range(6)]
    columns += [[f"lvl{v}" for v in cat[:, j].tolist()] for j in range(4)]
    labels = ["yes" if v else "no" for v in y.tolist()]
    return columns, labels


CSV_PREDICTORS = [f"n{j}" for j in range(6)] + [f"g{j}" for j in range(4)]


def write_csv_train_predict(out_dir: Path, seed: int, n_rows: int = 20_000) -> dict:
    """train.csv with the class column; new.csv without it, in shuffled column order.

    Returns the held-out labels of new.csv for the accuracy check.
    """
    rng = _rng(seed, _CSV_STREAM)
    columns, labels = _csv_rows(rng, n_rows)
    _write_csv(out_dir / "train.csv", CSV_PREDICTORS + ["cls"], columns + [labels])
    new_columns, new_labels = _csv_rows(rng, n_rows)
    order = list(reversed(range(len(CSV_PREDICTORS))))  # predict matches columns by name
    _write_csv(
        out_dir / "new.csv",
        [CSV_PREDICTORS[j] for j in order],
        [new_columns[j] for j in order],
    )
    return {"new_labels": new_labels}


WRITERS = {
    "xor-eval": write_xor,
    "wide-search": write_wide,
    "csv-train-predict": write_csv_train_predict,
}
