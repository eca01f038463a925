"""Tabular input handling: CSV loading, discretization, encoding, seeded splits.

Everything downstream works on integer-coded `Dataset` objects. This module
owns the boundary between raw CSV text and that representation, plus the
deterministic train/test split machinery used by the evaluation harness.

`read_columns` is the one CSV reader, for `load_csv` and the CLI's predict
input alike; `DatasetEncoder.encode_column` turns every column into codes.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import operator
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import ConfigError, DataError

NUMERIC = "numeric"
CATEGORICAL = "categorical"

_MASK64 = (1 << 64) - 1


def derive_seed(master_seed: int, *indices: int) -> int:
    """Mix a master seed with stream indices into an independent 64-bit seed.

    Pure integer hashing (splitmix-style finalizer per index), so the same
    inputs always yield the same seed on every platform.
    """
    z = master_seed & _MASK64
    for index in indices:
        z = (z + ((index & _MASK64) + 1) * 0x9E3779B97F4A7C15) & _MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        z ^= z >> 31
    return z


@dataclass(frozen=True)
class Schema:
    """Shape of an encoded dataset: named discrete predictors plus a class variable."""

    predictor_names: tuple[str, ...]
    predictor_arities: tuple[int, ...]
    class_name: str
    class_arity: int

    def __post_init__(self) -> None:
        if len(self.predictor_names) != len(self.predictor_arities):
            raise ValueError("predictor names and arities must have equal length")
        if any(a < 1 for a in self.predictor_arities):
            raise ValueError("predictor arities must be >= 1")
        if self.class_arity < 2:
            raise ValueError("class arity must be >= 2")
        if len(set(self.predictor_names)) != len(self.predictor_names):
            raise ValueError("predictor names must be distinct")

    @property
    def n_predictors(self) -> int:
        return len(self.predictor_names)

    def to_json_dict(self) -> dict:
        return {
            "predictor_names": list(self.predictor_names),
            "predictor_arities": list(self.predictor_arities),
            "class_name": self.class_name,
            "class_arity": self.class_arity,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "Schema":
        return cls(
            tuple(d["predictor_names"]),
            tuple(map(operator.index, d["predictor_arities"])),
            d["class_name"],
            operator.index(d["class_arity"]),
        )


def take_rows(rows: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """rows[indices], gathered straight into the column-major order `Dataset` keeps."""
    return rows.T.take(indices, axis=1).T


@dataclass(frozen=True, eq=False)
class Dataset:
    """Encoded table: integer predictor values and class labels under a schema.

    Arrays are stored read-only; treat instances as immutable values.
    ``rows`` is stored column-major, so each predictor's column
    ``rows[:, i]`` is one contiguous array.
    """

    schema: Schema
    rows: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        rows = np.asfortranarray(np.asarray(self.rows, dtype=np.int64))
        labels = np.ascontiguousarray(np.asarray(self.labels, dtype=np.int64))
        if rows.ndim != 2 or rows.shape[1] != self.schema.n_predictors:
            raise ValueError("rows must be a 2-d array with one column per predictor")
        if labels.ndim != 1 or labels.shape[0] != rows.shape[0]:
            raise ValueError("labels must be a 1-d array aligned with rows")
        if labels.size:
            if labels.min() < 0 or labels.max() >= self.schema.class_arity:
                raise ValueError("label index outside class arity")
        if rows.size:
            arities = np.asarray(self.schema.predictor_arities, dtype=np.int64)
            if rows.min() < 0 or (rows >= arities).any():
                raise ValueError("predictor value index outside its arity")
        rows.flags.writeable = False
        labels.flags.writeable = False
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "labels", labels)

    @property
    def n_rows(self) -> int:
        return int(self.labels.shape[0])

    def take(self, indices: np.ndarray) -> "Dataset":
        return Dataset(self.schema, take_rows(self.rows, indices), self.labels[indices])

    def digest(self) -> str:
        """Stable content hash over schema, rows, and labels."""
        h = hashlib.sha256()
        h.update(json.dumps(self.schema.to_json_dict(), sort_keys=True).encode())
        h.update(self.rows.tobytes())
        h.update(self.labels.tobytes())
        return h.hexdigest()


@dataclass
class RawColumn:
    name: str
    kind: str  # NUMERIC or CATEGORICAL
    values: list

    def select(self, indices: Iterable[int]) -> "RawColumn":
        return RawColumn(self.name, self.kind, [self.values[i] for i in indices])


@dataclass
class RawTable:
    """Parsed CSV with the class column extracted from the predictors."""

    predictors: list[RawColumn]
    class_column: RawColumn

    @property
    def n_rows(self) -> int:
        return len(self.class_column.values)

    def select(self, indices: Iterable[int]) -> "RawTable":
        idx = list(indices)
        return RawTable(
            [c.select(idx) for c in self.predictors],
            self.class_column.select(idx),
        )


@contextmanager
def read_text(source) -> Iterator[io.TextIOBase]:
    """Text stream over a path, bytes, or a text or binary stream.

    A leading UTF-8 byte order mark is dropped. A source that cannot be
    opened or read, or bytes that are not UTF-8, met here or while the caller
    reads, raise `DataError`. Only a file opened here is closed here; a
    caller's binary stream is detached from, not closed.
    """
    name = source if isinstance(source, (str, Path)) else "input"
    try:
        if isinstance(source, (str, Path)):
            with open(source, "r", newline="", encoding="utf-8-sig") as stream:
                yield stream
        elif isinstance(source, bytes):
            yield io.StringIO(source.decode("utf-8-sig"))
        elif isinstance(source, io.TextIOBase):
            yield source
        else:
            # binary stream
            stream = io.TextIOWrapper(source, encoding="utf-8-sig", newline="")
            try:
                yield stream
            finally:
                stream.detach()
    except UnicodeDecodeError as exc:
        raise DataError(f"cannot read {name}: not valid UTF-8 ({exc.reason})") from None
    except OSError as exc:
        raise DataError(f"cannot read {name}: {exc}") from exc


def _plain(text: str) -> bool:
    """Whether `text` holds no character that `float` reads but a CSV number
    does not have: a digit-group underscore ('1_0') or a non-ASCII digit."""
    return text.isascii() and "_" not in text


# a column shares one str per distinct cell text until it has seen this many
# distinct texts; past that (numeric columns) the sharing dict is dropped
_SHARED_TEXTS_MAX = 1024


def read_columns(source, keep) -> tuple[list[str], list[list], int]:
    """The header, the kept columns and the number of data rows of a CSV.

    Header names are stripped and must be distinct. ``keep(header)`` gets
    them (None if there is no header row), raises `DataError` for a header
    its caller cannot use, and returns ``(name, numeric)`` per column to
    keep, in the order a row's cells are checked. Each row must have one
    field per name and each kept cell, stripped, must be nonempty; numeric
    columns hold finite floats read from plain numbers (`_plain`), the others
    one shared str per text. The first fault in file order raises `DataError`
    naming its line and column.
    """
    with read_text(source) as stream:
        reader = csv.reader(stream)
        header = next(reader, None)
        if header is not None:
            header = [h.strip() for h in header]
            if len(set(header)) != len(header):
                raise DataError("duplicate column names in header")
        # [position, name, numeric, values, shared texts or None]
        columns = [[header.index(name), name, numeric, [], {}] for name, numeric in keep(header)]
        n_fields = len(header)
        n_rows = 0
        for row in reader:
            line = reader.line_num
            if len(row) != n_fields:
                raise DataError(f"line {line}: row has {len(row)} fields, expected {n_fields}")
            n_rows += 1
            for column in columns:
                pos, name, numeric, values, texts = column
                text = row[pos].strip()
                if not text:
                    raise DataError(f"line {line}: empty cell in column {name!r}")
                if numeric:
                    value = None
                    if _plain(text):
                        try:
                            value = float(text)
                        except ValueError:
                            pass
                    if value is None or not math.isfinite(value):
                        what = "a number" if value is None else "a finite number"
                        raise DataError(f"line {line}: column {name!r} expected {what}, got {text!r}")
                    values.append(value)
                    continue
                if texts is not None:
                    text = texts.setdefault(text, text)
                    if len(texts) > _SHARED_TEXTS_MAX:
                        column[4] = None
                values.append(text)
    return header, [column[3] for column in columns], n_rows


def load_csv(source, class_column: str) -> RawTable:
    """Parse CSV bytes/path into a raw table, separating out the class column.

    The header row is mandatory. A column is numeric when every one of its
    cells is a plain ASCII number with '.' as the decimal separator and no
    digit-group underscores; otherwise it is categorical. Rows with missing
    (empty) cells, and numeric columns holding nan or infinite cells, are
    rejected outright so they cannot silently skew counts downstream.
    """

    def keep(header):
        if header is None:
            raise DataError("empty CSV: missing header row")
        if class_column not in header:
            raise DataError(f"unknown class column {class_column!r}")
        return [(name, False) for name in header]

    header, columns, _ = read_columns(source, keep)
    predictors = []
    for name, cells in zip(header, columns):
        if name == class_column:
            continue
        try:
            values = list(map(float, cells))
        except ValueError:
            values = []
        if not values or not _plain("".join(cells)):  # a cell that is not a number, or no rows
            predictors.append(RawColumn(name, CATEGORICAL, cells))
        elif all(map(math.isfinite, values)):
            predictors.append(RawColumn(name, NUMERIC, values))
        else:
            cell = next(c for c, v in zip(cells, values) if not math.isfinite(v))
            raise DataError(f"column {name!r}: non-finite number {cell!r}")
    # class values stay raw strings; they are encoded by first appearance later
    labels = columns[header.index(class_column)]
    return RawTable(predictors, RawColumn(class_column, CATEGORICAL, labels))


def fit_equal_frequency(values: Sequence[float], bins: int) -> list[float]:
    """Pick cut points at order statistics giving near-equal bin occupancy.

    A cut point is the inclusive upper edge of its bin. Tied values are never
    split across a boundary: a boundary landing inside a run of equal values
    slides to the end of that run. Degenerate inputs simply collapse to fewer
    bins, so the result has at most ``bins - 1`` strictly increasing cuts.
    NaN has no place in that order and raises `ValueError`.
    """
    if bins < 1:
        raise ValueError("bins must be >= 1")
    if len(values) == 0:
        raise ValueError("values must be nonempty")
    ordered = sorted(float(v) for v in values)
    if any(map(math.isnan, ordered)):
        raise ValueError("values must not contain NaN")
    n = len(ordered)
    cuts: list[float] = []
    for t in range(1, bins):
        edge = (t * n) // bins
        if edge <= 0:
            continue
        while edge < n and ordered[edge - 1] == ordered[edge]:
            edge += 1
        if edge >= n:
            continue
        cut = ordered[edge - 1]
        if not cuts or cut > cuts[-1]:
            cuts.append(cut)
    return cuts


@dataclass(frozen=True)
class DiscretizationSpec:
    """Ordered cut points per numeric column; ``bins`` is the requested count."""

    cut_points: dict[str, tuple[float, ...]]
    bins: int = 3

    def __post_init__(self) -> None:
        if self.bins < 1:
            raise ValueError("bins must be >= 1")
        clean = {}
        for name, cuts in self.cut_points.items():
            cuts = tuple(float(c) for c in cuts)
            if any(map(math.isnan, cuts)):
                raise ValueError(f"cut points for {name!r} must not be NaN")
            if any(b <= a for a, b in zip(cuts, cuts[1:])):
                raise ValueError(f"cut points for {name!r} must be strictly increasing")
            if len(cuts) > self.bins - 1:
                raise ValueError(f"column {name!r} has more than bins-1 cut points")
            clean[name] = cuts
        object.__setattr__(self, "cut_points", clean)

    def to_json_dict(self) -> dict:
        return {
            "bins": self.bins,
            "cut_points": {k: list(v) for k, v in sorted(self.cut_points.items())},
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "DiscretizationSpec":
        return cls({k: tuple(v) for k, v in d["cut_points"].items()}, int(d["bins"]))


def fit_discretization(raw: RawTable, bins: int = 3) -> DiscretizationSpec:
    """Fit equal-frequency cuts for every numeric predictor column."""
    cuts = {}
    for col in raw.predictors:
        if col.kind == NUMERIC:
            cuts[col.name] = tuple(fit_equal_frequency(col.values, bins))
    return DiscretizationSpec(cuts, bins)


def _text_codes(levels: Sequence, values: Sequence) -> np.ndarray:
    """Index in `levels` of each value's text, ``len(levels)`` for a text
    that is none of them. A level listed twice keeps its first index; a
    level that is not a str equals no text."""
    unseen = len(levels)
    index = {v: i for i, v in reversed(list(enumerate(levels))) if isinstance(v, str)}
    codes = np.fromiter(map(index.get, values, repeat(unseen)), dtype=np.int64, count=len(values))
    # a value that is not a str may still name a level through its text
    for i in np.flatnonzero(codes == unseen).tolist():
        codes[i] = index.get(str(values[i]), unseen)
    return codes


@dataclass
class DatasetEncoder:
    """Frozen mapping from raw column values to integer codes.

    Categorical levels (and class values) are indexed in first-appearance
    order; numeric columns go through their discretization cuts. The encoder
    is serializable so a trained model can encode future rows identically.
    Unseen categorical values encode to the out-of-range index ``arity``,
    which classifiers treat as a never-observed value.
    """

    predictor_names: tuple[str, ...]
    kinds: tuple[str, ...]
    discretization: DiscretizationSpec
    categories: dict[str, tuple[str, ...]]
    class_name: str
    class_values: tuple[str, ...]

    @classmethod
    def fit(
        cls,
        raw: RawTable,
        spec: DiscretizationSpec,
        class_values: tuple[str, ...] | None = None,
    ) -> "DatasetEncoder":
        """Learn category orders from `raw`; `class_values` may be pinned externally."""
        categories = {}
        for col in raw.predictors:
            if col.kind == NUMERIC:
                if col.name not in spec.cut_points:
                    raise ConfigError(f"no cut points for numeric column {col.name!r}")
            else:
                categories[col.name] = tuple(dict.fromkeys(col.values))
        if class_values is None:
            class_values = tuple(dict.fromkeys(raw.class_column.values))
        return cls(
            tuple(c.name for c in raw.predictors),
            tuple(c.kind for c in raw.predictors),
            spec,
            categories,
            raw.class_column.name,
            class_values,
        )

    def schema(self) -> Schema:
        arities = []
        for name, kind in zip(self.predictor_names, self.kinds):
            if kind == NUMERIC:
                arities.append(len(self.discretization.cut_points[name]) + 1)
            else:
                # floor of 1 keeps empty tables representable
                arities.append(max(len(self.categories[name]), 1))
        return Schema(
            self.predictor_names,
            tuple(arities),
            self.class_name,
            max(len(self.class_values), 2),
        )

    def encode_value(self, name: str, kind: str, value) -> int:
        # one cell's code; kept because the benchmark's tracer counts it by name
        return int(self.encode_column(name, kind, [value])[0])

    def encode_column(self, name: str, kind: str, values: Sequence) -> np.ndarray:
        """Codes of a whole column: a numeric cell's bin is the number of cuts
        strictly below it, a text cell's the index of its level, ``len(levels)``
        for an unseen one."""
        if kind == NUMERIC:
            x = np.fromiter(map(float, values), dtype=np.float64, count=len(values))
            cuts = np.asarray(self.discretization.cut_points[name], dtype=np.float64)
            codes = np.searchsorted(cuts, x, side="left").astype(np.int64, copy=False)
            codes[np.isnan(x)] = 0  # bisect_left puts NaN before every cut
            return codes
        return _text_codes(self.categories[name], values)

    def encode_columns(self, columns: Sequence[Sequence], n_rows: int) -> np.ndarray:
        """Codes of the predictor columns, given in `predictor_names` order:
        an (n_rows, k) array, column-major as `Dataset` keeps it."""
        codes = np.zeros((n_rows, len(self.predictor_names)), dtype=np.int64, order="F")
        for j, (name, kind, values) in enumerate(zip(self.predictor_names, self.kinds, columns)):
            codes[:, j] = self.encode_column(name, kind, values)
        return codes

    def encode_predictor_rows(self, raw: RawTable) -> np.ndarray:
        """Encode predictor columns only; may contain out-of-range sentinels."""
        by_name = {c.name: c.values for c in raw.predictors}
        for name in self.predictor_names:
            if name not in by_name:
                raise DataError(f"missing predictor column {name!r}")
        return self.encode_columns([by_name[name] for name in self.predictor_names], raw.n_rows)

    def encode_table(self, raw: RawTable) -> Dataset:
        rows = self.encode_predictor_rows(raw)
        values = raw.class_column.values
        labels = _text_codes(self.class_values, values)
        unseen = np.flatnonzero(labels == len(self.class_values))
        if unseen.size:
            raise DataError(f"unseen class value {values[unseen[0]]!r}")
        return Dataset(self.schema(), rows, labels)

    def to_json_dict(self) -> dict:
        return {
            "predictor_names": list(self.predictor_names),
            "kinds": list(self.kinds),
            "discretization": self.discretization.to_json_dict(),
            "categories": {k: list(v) for k, v in sorted(self.categories.items())},
            "class_name": self.class_name,
            "class_values": list(self.class_values),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "DatasetEncoder":
        return cls(
            tuple(d["predictor_names"]),
            tuple(d["kinds"]),
            DiscretizationSpec.from_json_dict(d["discretization"]),
            {k: tuple(v) for k, v in d["categories"].items()},
            d["class_name"],
            tuple(d["class_values"]),
        )


def encode(raw: RawTable, spec: DiscretizationSpec) -> Dataset:
    """Encode a raw table with cuts from `spec` and categories fit on `raw` itself."""
    return DatasetEncoder.fit(raw, spec).encode_table(raw)


@dataclass(frozen=True)
class SplitPlan:
    """Deterministic recipe for one train/test split of a dataset."""

    train_fraction: float = 0.75
    master_seed: int = 1
    trial_index: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must lie strictly between 0 and 1")
        if self.trial_index < 0:
            raise ValueError("trial_index must be >= 0")

    def trial_seed(self) -> int:
        return derive_seed(self.master_seed, self.trial_index)


def split_indices(n_rows: int, plan: SplitPlan) -> tuple[np.ndarray, np.ndarray]:
    """Seeded uniform permutation of row indices, cut at ceil(fraction * N)."""
    if n_rows < 2:
        raise DataError("need at least 2 rows to split")
    rng = np.random.default_rng(plan.trial_seed())
    perm = rng.permutation(n_rows)
    n_train = math.ceil(plan.train_fraction * n_rows)
    return perm[:n_train], perm[n_train:]


def split(data: Dataset, plan: SplitPlan) -> tuple[Dataset, Dataset]:
    train_idx, test_idx = split_indices(data.n_rows, plan)
    return data.take(train_idx), data.take(test_idx)
