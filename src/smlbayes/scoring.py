"""Sufficient statistics and the supervised marginal likelihood kernel.

A diagnostic class model conditions the class on a subset of predictors.
Its fit to labeled data is the probability of the observed label sequence
given the predictor rows, with the per-configuration class distributions
integrated out under a Dirichlet prior. That quantity has a closed form in
gamma functions over the (configuration x class) count table; everything
here works in natural-log space.
"""

from __future__ import annotations

import math
import operator
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .data import Dataset, json_float
from .errors import ConfigError

UNIFORM_CELL = "uniform_cell"
EQUIVALENT_SAMPLE_SIZE = "equivalent_sample_size"
# each prior kind's short name: `describe` writes it and --prior reads it
PRIOR_TAGS = {UNIFORM_CELL: "uniform", EQUIVALENT_SAMPLE_SIZE: "bdeu"}

# prior cell mass below this log is handled through the small-argument
# limit of the gamma ratios instead of raw floats
_LOG_FLOAT_SAFE = 600.0
_TINY = np.finfo(float).tiny


def _lgamma_or_inf(x: float) -> float:
    try:
        return math.lgamma(x)
    except OverflowError:  # lgamma(x) > float max for x above ~2.55e305
        return math.inf


def _lgamma(x) -> np.ndarray:
    """Elementwise log|gamma(x)|: `math.lgamma` mapped over a float array.

    The score kernel only asks for short runs of arguments, so one map over
    the scalar function beats any vectorized series. Arguments whose lgamma
    leaves float range give inf.
    """
    x = np.asarray(x, dtype=float)
    values = x.ravel().tolist()
    out = np.fromiter(map(_lgamma_or_inf, values), dtype=float, count=len(values))
    return out.reshape(x.shape)


def _log_sum_exp(values: Sequence[float]) -> float:
    """log(sum(exp(values))) for a nonempty sequence of floats.

    Max-shifted, so values anywhere down to -1e6 and beyond neither overflow
    nor collapse to -inf; `fsum` adds the shifted terms exactly rounded.
    Inputs are a handful of floats, so plain `math` beats any array call.
    """
    top = max(values)
    if math.isinf(top):
        return top
    return top + math.log(math.fsum([math.exp(v - top) for v in values]))


@dataclass(frozen=True)
class PriorSpec:
    """Dirichlet hyperparameter rule for count-table cells.

    ``uniform_cell`` puts ``strength`` on every (configuration, class) cell.
    ``equivalent_sample_size`` spreads a total mass of ``strength`` evenly
    over the configuration space, giving ``strength / (q * r)`` per cell; the
    total prior mass then stays comparable across models of different size.
    """

    kind: str
    strength: float

    def __post_init__(self) -> None:
        if self.kind not in PRIOR_TAGS:
            raise ValueError(f"unknown prior kind {self.kind!r}")
        # nan, inf and subnormal strengths would turn scores and losses into nan
        if not (math.isfinite(self.strength) and self.strength >= _TINY):
            raise ValueError("prior strength must be a finite, normal number > 0")

    @classmethod
    def uniform_cell(cls, alpha: float = 1.0) -> "PriorSpec":
        return cls(UNIFORM_CELL, float(alpha))

    @classmethod
    def equivalent_sample_size(cls, s: float) -> "PriorSpec":
        return cls(EQUIVALENT_SAMPLE_SIZE, float(s))

    def cell_prior(self, q: int, log_q: float, class_arity: int) -> tuple[float, float]:
        """Per-cell pseudo-count for a table with q configurations: (value, log value).

        The float value underflows to 0.0 for astronomically large q; the log
        form stays finite and callers fall back to it.
        """
        if self.kind == UNIFORM_CELL:
            return self.strength, math.log(self.strength)
        log_a = math.log(self.strength) - log_q - math.log(class_arity)
        if log_q < _LOG_FLOAT_SAFE:
            return self.strength / (float(q) * class_arity), log_a
        return math.exp(log_a), log_a

    def attribute_smoothing(
        self, q: int, log_q: float, class_arity: int
    ) -> tuple[float, float, float, float]:
        """Smoothing for one conditional table: (cell, log cell, mass, log mass).

        ``mass`` is the per-class prior total q * cell; it is float('inf') when
        that product leaves float range, in which case ``log mass`` is the
        usable form.
        """
        cell, log_cell = self.cell_prior(q, log_q, class_arity)
        if self.kind == UNIFORM_CELL:
            log_mass = log_cell + log_q
            mass = self.strength * float(q) if log_mass < _LOG_FLOAT_SAFE else math.inf
        else:
            mass = self.strength / class_arity
            log_mass = math.log(mass)
        return cell, log_cell, mass, log_mass

    def describe(self) -> str:
        return f"{PRIOR_TAGS[self.kind]}:{self.strength:g}"

    def to_json_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json_dict(cls, d: dict) -> "PriorSpec":
        return cls(d["kind"], json_float(d["strength"]))


def check_subset(subset: Sequence[int], n_predictors: int) -> tuple[int, ...]:
    """Validate a relevant-predictor subset: sorted, distinct, in range."""
    out = tuple(map(operator.index, subset))
    if any(b <= a for a, b in zip(out, out[1:])):
        raise ValueError("subset indices must be sorted and distinct")
    if out and (out[0] < 0 or out[-1] >= n_predictors):
        raise ValueError(f"subset index outside 0..{n_predictors - 1}")
    return out


class CountTable:
    """Sparse (configuration x class) counts over one predictor subset.

    Only configurations that occur in the data are stored, in lexicographic
    order: ``config_array`` is an (n_configs, len(subset)) int64 array whose
    rows line up with the rows of ``counts``, and ``config_totals`` holds
    each stored configuration's number of rows. The constructor takes
    ``configs`` as such an array or as a sequence of int tuples. A table from
    `build_count_table` keeps only its sorted integer keys and decodes
    ``config_array`` from them on its first read. ``q`` is the exact
    size of the full configuration space (a Python int, so it never wraps)
    and ``log_q`` its log for use when q dwarfs float range. The empty subset
    has the single configuration () and q = 1.
    """

    def __init__(
        self,
        subset: tuple[int, ...],
        configs: np.ndarray | Sequence[tuple[int, ...]],
        counts: np.ndarray,
        n_rows: int,
        class_arity: int,
        q: int,
        log_q: float,
    ) -> None:
        self.subset = tuple(subset)
        config_array = np.asarray(configs, dtype=np.int64)
        config_array = config_array.reshape(len(config_array), len(self.subset))
        config_array.flags.writeable = False
        self.config_array = config_array
        self._set_counts(counts, len(config_array), n_rows, class_arity, q, log_q)

    @classmethod
    def _from_keys(
        cls,
        subset: tuple[int, ...],
        arities: Sequence[int],
        keys: np.ndarray,
        counts: np.ndarray,
        n_rows: int,
        class_arity: int,
        q: int,
        log_q: float,
    ) -> "CountTable":
        """A table whose configurations are the ascending mixed-radix `keys`
        over `arities`, first member most significant."""
        table = cls.__new__(cls)
        table.subset = tuple(subset)
        table._keys = keys
        table._arities = tuple(arities)
        table._set_counts(counts, len(keys), n_rows, class_arity, q, log_q)
        return table

    def _set_counts(
        self, counts, n_configs: int, n_rows: int, class_arity: int, q: int, log_q: float
    ) -> None:
        counts = np.ascontiguousarray(counts, dtype=np.int64)
        counts = counts.reshape(n_configs, class_arity)
        # the row sums; einsum beats sum(axis=1) over a short class axis
        totals = np.einsum("ij->i", counts)
        if counts.size and counts.min() < 0:
            raise ValueError("counts must be nonnegative")
        if int(totals.sum()) != n_rows:
            raise ValueError("counts must sum to the number of rows")
        if n_configs and totals.min() <= 0:
            raise ValueError("stored configurations must have positive count")
        counts.flags.writeable = False
        totals.flags.writeable = False
        self.counts = counts  # (n_configs, class_arity) int64
        self.config_totals = totals  # (n_configs,) int64
        self.n_rows = n_rows
        self.class_arity = class_arity
        self.q = q
        self.log_q = log_q

    @cached_property
    def config_array(self) -> np.ndarray:
        # only tables built from keys get here; `%` and `//` take object keys too
        keys = self._keys
        config_array = np.zeros((len(keys), len(self._arities)), dtype=np.int64)
        for j in reversed(range(len(self._arities))):
            config_array[:, j] = keys % self._arities[j]
            keys = keys // self._arities[j]
        config_array.flags.writeable = False
        return config_array

    def to_json_dict(self) -> dict:
        return {
            "subset": list(self.subset),
            "configs": self.config_array.tolist(),
            "counts": self.counts.tolist(),
            "n_rows": self.n_rows,
            "class_arity": self.class_arity,
            "q": self.q,
            "log_q": self.log_q,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "CountTable":
        return cls(
            tuple(map(operator.index, d["subset"])),
            int_array(d["configs"]),
            int_array(d["counts"]),
            operator.index(d["n_rows"]),
            operator.index(d["class_arity"]),
            operator.index(d["q"]),
            json_float(d["log_q"]),
        )


def int_array(values) -> np.ndarray:
    """Model-file integers as an int64 array; a float is a TypeError, never truncated."""
    a = np.asarray(values)
    if a.size and a.dtype.kind != "i":
        raise TypeError(f"expected integers, not {a.dtype} values")
    return a.astype(np.int64)


# mixed-radix keys below these bounds cannot overflow int32 and int64
_NARROW_KEY_LIMIT = 2**31
_KEY_LIMIT = 2**62


def _run_edges(sorted_keys: np.ndarray) -> np.ndarray:
    """Run boundaries of a sorted array, one flag per gap: True before the
    first element, between unequal neighbours, and after the last."""
    edges = np.ones(len(sorted_keys) + 1, dtype=bool)
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=edges[1:-1])
    return edges


def build_count_table(data: Dataset, subset: Sequence[int]) -> CountTable:
    """Tally (configuration, class) counts for `subset` with one sort over `data`.

    Each row becomes one mixed-radix integer key: its configuration, first
    subset member most significant, then its label as the last digit. The
    key is exact only because `Dataset` rejects values outside their arity.
    Sorting the keys sorts configurations lexicographically, the canonical
    order that keeps scores reproducible, and lines up each configuration's
    rows by class. Runs of equal keys are the nonzero cells and their
    counts; a change of key // r starts the next configuration. The table
    keeps the configuration keys and decodes them to `config_array` only if
    that is read. The keys are int32 below `_NARROW_KEY_LIMIT`, tallied from
    the dataset's int32 copy of its codes (`Dataset.narrow`), int64 below
    `_KEY_LIMIT` and Python ints in an object array above it: the same code,
    only slower. A table stores its configuration keys in int64 either way,
    past `_KEY_LIMIT` as Python ints.
    """
    sub = check_subset(subset, data.schema.n_predictors)
    arities = [data.schema.predictor_arities[i] for i in sub]
    q = math.prod(arities)
    log_q = float(sum(math.log(a) for a in arities))
    r = data.schema.class_arity
    n = data.n_rows

    narrow = q * r < _NARROW_KEY_LIMIT
    codes, classes = data.narrow if narrow else (data.rows, data.labels)
    key = np.zeros(n, dtype=np.int32 if narrow else np.int64 if q * r < _KEY_LIMIT else object)
    for i, a in zip(sub, arities):
        key *= a
        key += codes[:, i]
    key *= r
    key += classes
    key.sort()
    # each run of equal keys is one nonzero cell
    bounds = _run_edges(key).nonzero()[0]
    cell_counts = bounds[1:] - bounds[:-1]
    cell_keys = key[bounds[:-1]]
    # each label by subtraction: `%` is slower, and np.divmod has no object loop
    cell_configs = cell_keys // r
    labels = (cell_keys - cell_configs * r).astype(np.int64, copy=False)
    first = _run_edges(cell_configs)[:-1]
    config_keys = cell_configs[first]
    if narrow:
        config_keys = config_keys.astype(np.int64)
    rows = first.cumsum() - 1
    counts = np.zeros(len(config_keys) * r, dtype=np.int64)
    counts[rows * r + labels] = cell_counts
    return CountTable._from_keys(sub, arities, config_keys, counts, n, r, q, log_q)


# a prior cell mass above this many times every configuration total dwarfs the
# counts: log_sml then sums logs instead of subtracting lgammas; strengths up
# to it keep the bits of the lgamma form
_DWARFS = 64


def _rising_log(a: float, top: int) -> np.ndarray:
    """log(a (a + 1) ... (a + k - 1)) = lgamma(a + k) - lgamma(a) for k = 0..top.

    Summed as k log(a) + sum_{i<k} log1p(i / a), which stays accurate where a
    dwarfs k, while the lgamma difference cancels: at a = 1e16 each lgamma
    is ~3.6e17, whose unit in the last place is 64.
    """
    k = np.arange(top + 1)
    steps = np.zeros(top + 1)
    np.cumsum(np.log1p(k[:-1] / a), out=steps[1:])
    return k * math.log(a) + steps


def log_sml(table: CountTable, prior: PriorSpec) -> float:
    """Log probability of the label sequence given the predictor rows.

    Closed form: for each stored configuration j with class counts N_jk,

        lgamma(A_j) - lgamma(A_j + N_j) + sum_k [lgamma(a + N_jk) - lgamma(a)]

    where a is the prior cell mass and A_j = r * a. Configurations with zero
    rows contribute exactly 0, so only stored configurations are visited; the
    empty table gives 0 (an empty product).

    Where the cell mass a is over `_DWARFS` times every configuration total,
    each lgamma difference is summed as a rising log (`_rising_log`) instead.
    Otherwise, when every configuration total is below the number of cells, each
    lgamma is evaluated once per possible count, into a lookup table, and
    gathered. Each term is still the lgamma of the same float, summed over
    arrays of the same shape, so the result equals the direct evaluation
    bit for bit.

    A score that is not finite raises `ConfigError` naming the prior: a
    strength so large that the class mass A_j itself leaves float range,
    which is caught before any array sees it, so no floating-point warning
    fires. A smaller mass, even one whose lgamma overflows, takes the
    summed-log branch and scores.
    """
    if table.n_rows == 0:
        return 0.0
    r = table.class_arity
    a_cell, log_a_cell = prior.cell_prior(table.q, table.log_q, r)
    counts = table.counts
    n_j = table.config_totals
    if a_cell >= _TINY:
        a_row = a_cell * r
        if a_row == math.inf:
            # lgamma(a_row) - lgamma(a_row + N) would be inf - inf
            raise ConfigError(f"prior {prior.describe()} gives a non-finite score (nan)")
        top = int(n_j.max())
        if a_cell > _DWARFS * top:
            # lgamma(a + k) - lgamma(a) would cancel nearly every digit
            row_part, cell_part = -_rising_log(a_row, top)[n_j], _rising_log(a_cell, top)[counts]
        else:
            lg_row, lg_cell = _lgamma_or_inf(a_row), _lgamma_or_inf(a_cell)
            if top < counts.size:
                # each possible count's term, as plain floats: the same additions as in an array
                steps = range(top + 1)
                row_lut = np.array([lg_row - _lgamma_or_inf(a_row + k) for k in steps])
                cell_lut = np.array([_lgamma_or_inf(a_cell + k) - lg_cell for k in steps])
                row_part, cell_part = row_lut[n_j], cell_lut[counts]
            else:
                row_part = lg_row - _lgamma(a_row + n_j)
                cell_part = _lgamma(counts + a_cell) - lg_cell
    else:
        # prior mass underflowed to 0 or to a subnormal, whose few significant
        # bits would skew the score: gamma(a)/gamma(a + N) -> -log a - lgamma(N)
        log_a_row = log_a_cell + math.log(r)
        row_part = -log_a_row - _lgamma(n_j)
        pos = counts > 0
        cell_part = np.where(pos, _lgamma(np.maximum(counts, 1)) + log_a_cell, 0.0)
    score = float(row_part.sum()) + float(cell_part.sum())
    if not math.isfinite(score):
        raise ConfigError(f"prior {prior.describe()} gives a non-finite score ({score})")
    return score


@dataclass(frozen=True)
class FamilyScore:
    """Joint score of a model family: log of the mean member likelihood."""

    log_value: float
    member_log_scores: tuple[float, ...]

    def to_json_dict(self) -> dict:
        # decimal strings keep full precision independent of the JSON reader
        return {
            "log_value": format(self.log_value, ".17g"),
            "member_log_scores": [format(s, ".17g") for s in self.member_log_scores],
        }


def log_family_score(member_log_scores: Sequence[float]) -> FamilyScore:
    """Average the member likelihoods in probability space, staying in logs:
    the log-sum-exp of the members less log(n)."""
    members = tuple(float(s) for s in member_log_scores)
    if not members:
        raise ValueError("family must have at least one member score")
    return FamilyScore(_log_sum_exp(members) - math.log(len(members)), members)
