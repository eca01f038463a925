"""Classifiers over encoded discrete data.

Four kinds share a common ``predict(x) -> ClassDistribution`` surface:

- ``DiagnosticClassifier``: class given one predictor subset, posterior
  predictive of its count table.
- ``MixtureClassifier``: likelihood-weighted average of diagnostic models,
  either all subsets of a fixed size or the blocks of a partition; it holds
  their count tables and one prior, and derives the weights from them.
- ``ANBClassifier``: naive Bayes whose attributes are partition blocks, each
  treated as one joint variable.
- ``NBClassifier``: plain naive Bayes, which is ``ANBClassifier`` over the
  singleton partition; it adds only the dense per-predictor view of its
  tables that nb model files store.

Distributions are plain numpy vectors, strictly positive and summing to 1.

Each model compiles itself on its first prediction: every smoothed row it
can read is computed once and stacked into one read-only table
(`_StackedRows`), so a prediction is a handful of array operations on the
rows x's configurations select. The compiled form is cached on the model;
treat a model as immutable once it has predicted. Each model also memoizes
its prediction per distinct row, so a repeated row is one dict lookup.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .data import Dataset, Schema
from .errors import ConfigError, DataError
from .scoring import (
    CountTable,
    PriorSpec,
    _log_sum_exp,
    build_count_table,
    log_sml,
)
from .search import Partition, singleton_partition, validate_partition

ClassDistribution = np.ndarray

# floor for prior cell mass that underflowed float range; keeps predictions
# strictly positive at the cost of (immeasurably) distorting that edge case
_CELL_FLOOR = np.finfo(float).tiny


# distinct rows a model memoizes; past that (numeric bins, say) it drops the memo
_MEMO_MAX = 1024


def _memoized(compute):
    """`compute` once per distinct 1-D int64 row (keyed by its bytes), kept
    read-only in `_memo`; returns a fresh copy. Other shapes raise ValueError."""

    @functools.wraps(compute)
    def predict(self, x: Sequence[int]) -> ClassDistribution:
        row = np.asarray(x, dtype=np.int64)
        if row.ndim != 1:
            raise ValueError(f"predict takes one 1-D row, got shape {row.shape}")
        memo = vars(self).setdefault("_memo", {})
        if memo is None:
            return compute(self, row)
        dist = memo.get(key := row.tobytes())
        if dist is None:
            dist = memo[key] = compute(self, row)
            dist.flags.writeable = False
            if len(memo) > _MEMO_MAX:
                self._memo = None
        return dist.copy()

    return predict


# one lookup block: (subset, stored configurations, their rows, unseen row)
_Block = tuple[tuple[int, ...], np.ndarray, np.ndarray, np.ndarray]


class _StackedRows:
    """Read-only rows of several lookup blocks, stacked in one table.

    A block is a predictor subset with its stored configurations (distinct,
    in lexicographic order, as `CountTable` keeps them), one row per stored
    configuration, and one more row for every configuration it never
    stored. `gather(x)` returns a fresh (n_blocks, row width) array holding,
    per block, the row of x's configuration.

    Configurations are found by mixed-radix integer keys, first member most
    significant, so a block's keys sort like its configurations; each block's
    keys are offset past the previous block's, so the blocks tile one key
    range [0, top). A member's digit is its value capped at one more than its
    largest stored value, so a larger value (such as the unseen-level
    sentinel) or a negative one gives a key no stored configuration has.

    That range is cut into intervals, each holding one row. A block with
    stored keys k1 < ... < kn has 2n + 1 of them, ending in turn at k1,
    k1 + 1, ..., kn, kn + 1 and the next block's base (top for the last
    block): its unseen row in every gap, and [k, k + 1) holding k's row. A
    gap may be empty (a first key at the base, adjacent keys, the empty
    subset), and a right-side search never lands in one. `_ends` holds every
    interval's end in ascending order, the last being top, and `table` the
    row of each interval, so a gather is one `searchsorted` and one `take`.
    The keys are uint64 while top stays below 2**64 and Python ints in an
    object array past it: the same code, only slower.
    """

    def __init__(self, blocks: Sequence[_Block]) -> None:
        n_blocks = len(blocks)
        members = max((len(b[0]) for b in blocks), default=0)
        # one row per member position and one column per block, so the key
        # sum reduces over the outer axis; a padding member reads x[0]
        # (present whenever members > 0) with stride 0
        self._pos = np.zeros((members, n_blocks), dtype=np.intp)
        self._cap = np.zeros((members, n_blocks), dtype=np.uint64)
        strides, bounds = [[0] * n_blocks for _ in range(members)], [0]
        for c, (subset, configs, _, _) in enumerate(blocks):
            caps = (configs.max(axis=0, initial=-1) + 1).tolist()
            span = 1
            for j in reversed(range(len(caps))):
                strides[j][c] = span
                span *= caps[j] + 1
            self._pos[:len(subset), c] = subset
            self._cap[:len(caps), c] = caps
            bounds.append(bounds[-1] + span)
        dtype = np.uint64 if bounds[-1] < 2**64 else object
        self._stride = np.array(strides, dtype=dtype).reshape(members, n_blocks)
        bounds = np.array(bounds, dtype=dtype)
        self._base = bounds[:-1]
        # stored key i of block b ends its gap at 2i + b and its own
        # interval at 2i + b + 1; the block's last gap ends at the next base
        n_keys = np.array([len(b[1]) for b in blocks])
        keys = np.concatenate([b[1].astype(dtype) @ s[:len(b[0])] + base
                               for b, s, base in zip(blocks, self._stride.T, self._base)])
        gap = 2 * np.arange(len(keys)) + np.repeat(np.arange(n_blocks), n_keys)
        self._ends = np.empty(2 * len(keys) + n_blocks, dtype=dtype)
        self._ends[gap], self._ends[gap + 1] = keys, keys + 1
        self._ends[2 * np.cumsum(n_keys) + np.arange(n_blocks)] = bounds[1:]
        self.table = np.repeat(np.array([b[3] for b in blocks]), 2 * n_keys + 1, axis=0)
        self.table[gap + 1] = np.concatenate([b[2] for b in blocks])
        for a in (self._pos, self._cap, self._stride, self._base, self._ends, self.table):
            a.flags.writeable = False

    def gather(self, x: Sequence[int]) -> np.ndarray:
        # negative values wrap to huge unsigned ones and are capped too
        digits = np.asarray(x, dtype=np.int64)[self._pos].view(np.uint64)
        key = np.add.reduce(np.minimum(digits, self._cap) * self._stride)
        key += self._base
        return self.table.take(self._ends.searchsorted(key, "right"), axis=0)


def _diag_block(table: CountTable, prior: PriorSpec) -> _Block:
    """The diagnostic model's predictive row per stored configuration.

    Each is (count + prior cell) / (config total + prior row mass); a
    configuration never seen in training gets the prior predictive, which is
    uniform for these symmetric priors. A row whose mass passes float range
    gets its exact limit 1/r: such a prior cell dwarfs every count.
    """
    r = table.class_arity
    a_cell, _ = prior.cell_prior(table.q, table.log_q, r)
    a_cell = max(a_cell, _CELL_FLOOR)
    numer = np.vstack([table.counts + a_cell, np.full(r, a_cell)])
    with np.errstate(over="ignore"):
        total = numer.sum(axis=1, keepdims=True)
    rows = np.where(np.isinf(total), 1 / r, numer / total)
    return table.subset, table.config_array, rows[:-1], rows[-1]


@dataclass(eq=False)
class DiagnosticClassifier:
    """Posterior-predictive class distribution given one predictor subset."""

    table: CountTable
    prior: PriorSpec

    @_memoized
    def predict(self, x: Sequence[int]) -> ClassDistribution:
        """The predictive row of x's configuration (see `_diag_block`)."""
        return self._compiled.gather(x)[0]

    @cached_property
    def _compiled(self) -> _StackedRows:
        return _StackedRows([_diag_block(self.table, self.prior)])


@dataclass(eq=False)
class MixtureClassifier:
    """Diagnostic models over `tables`, averaged with weights proportional to
    their label likelihoods (SML scores) under `prior`.

    The weights are derived, not stored: `log_weights` holds the tables' log
    SML scores normalized by log-sum-exp, computed once on construction.
    """

    tables: tuple[CountTable, ...]
    prior: PriorSpec

    def __post_init__(self) -> None:
        self.tables = tuple(self.tables)
        if not self.tables:
            raise ValueError("mixture needs at least one table")
        if len({t.class_arity for t in self.tables}) != 1:
            raise ValueError("mixture tables disagree on class arity")
        scores = np.array([log_sml(t, self.prior) for t in self.tables])
        self.log_weights = scores - _log_sum_exp(scores.tolist())
        self.log_weights.flags.writeable = False

    @property
    def components(self) -> tuple[DiagnosticClassifier, ...]:
        """One diagnostic model per table, for callers that inspect members."""
        return tuple(DiagnosticClassifier(t, self.prior) for t in self.tables)

    @_memoized
    def predict(self, x: Sequence[int]) -> ClassDistribution:
        """Average the component predictions in probability space."""
        weights, rows = self._compiled
        out = weights @ rows.gather(x)
        return out / np.add.reduce(out)

    @cached_property
    def _compiled(self) -> tuple[np.ndarray, _StackedRows]:
        weights = np.exp(self.log_weights)
        weights.flags.writeable = False
        return weights, _StackedRows([_diag_block(t, self.prior) for t in self.tables])


def _count_table(train: Dataset, subset: tuple[int, ...]) -> CountTable:
    """`train`'s table over `subset`, built once and kept in `train.count_tables`."""
    if subset not in train.count_tables:
        train.count_tables[subset] = build_count_table(train, subset)
    return train.count_tables[subset]


def build_omi(
    train: Dataset, subset_size: int, prior: PriorSpec, enumeration_cap: int = 200_000
) -> MixtureClassifier:
    """Mixture over every predictor subset of exactly `subset_size`.

    Component weights are the member label likelihoods, normalized by
    log-sum-exp. Refuses to enumerate more than `enumeration_cap` subsets.
    """
    n = train.schema.n_predictors
    if not 1 <= subset_size <= n:
        raise ConfigError(f"subset size {subset_size} outside 1..{n}")
    n_subsets = math.comb(n, subset_size)
    if n_subsets > enumeration_cap:
        raise ConfigError(f"{n_subsets} subsets of size {subset_size} exceed the cap of {enumeration_cap}")
    tables = [_count_table(train, s) for s in itertools.combinations(range(n), subset_size)]
    return MixtureClassifier(tables, prior)


def build_pm_mixture(
    partition: Sequence[Sequence[int]], train: Dataset, prior: PriorSpec
) -> MixtureClassifier:
    """Mixture with one diagnostic component per partition block."""
    part = validate_partition(partition, train.schema.n_predictors)
    tables = [_count_table(train, block) for block in part]
    return MixtureClassifier(tables, prior)


def _class_log_prior(class_counts: np.ndarray, prior: PriorSpec) -> np.ndarray:
    """Smoothed log class marginal.

    Where the prior mass r * a leaves float range, the denominator's log is
    assembled as log a + log(N / a + r) instead.
    """
    r = len(class_counts)
    a, log_a = prior.cell_prior(1, 0.0, r)
    n = float(class_counts.sum())
    log_total = math.log(n + r * a) if r * a < math.inf else log_a + math.log(n / a + r)
    return np.log(class_counts + a) - log_total


def _cond_log_column(
    value_counts: np.ndarray, class_counts: np.ndarray, cell: float, mass: float, log_mass: float
) -> np.ndarray:
    """Per-class log of (count + cell) / (class count + prior mass).

    ``value_counts`` is one count vector or a stack of them, one per row.
    ``mass`` is inf when the per-class prior total left float range; the
    denominator is then assembled in log space instead.
    """
    numer = np.log(value_counts + max(cell, _CELL_FLOOR))
    if math.isfinite(mass):
        return numer - np.log(class_counts + mass)
    with np.errstate(divide="ignore"):
        return numer - np.logaddexp(np.log(class_counts), log_mass)


def _softmax(log_scores: np.ndarray) -> ClassDistribution:
    # the ufunc reductions are what ndarray.max and .sum call, minus a wrapper
    p = np.exp(log_scores - np.maximum.reduce(log_scores))
    return p / np.add.reduce(p)


@dataclass(eq=False)
class ANBClassifier:
    """Naive Bayes whose attributes are partition blocks (joint meta-variables)."""

    schema: Schema
    partition: Partition
    class_counts: np.ndarray
    block_tables: tuple[CountTable, ...]
    prior: PriorSpec

    def __post_init__(self) -> None:
        r = self.schema.class_arity
        counts = np.asarray(self.class_counts)
        if counts.shape != (r,) or (counts < 0).any():
            raise ValueError(f"class counts must be {r} nonnegative counts")
        if len(self.block_tables) != len(self.partition):
            raise ValueError("one block table per partition block required")
        for block, table in zip(self.partition, self.block_tables):
            if table.subset != tuple(block) or table.class_arity != r:
                raise ValueError(f"block {list(block)} needs a table over it with {r} classes")
            # every table tallies the same rows, so its class totals are the class counts
            if not np.array_equal(table.counts.sum(axis=0), counts):
                raise ValueError(f"block {list(block)} disagrees with the class counts")

    @_memoized
    def predict(self, x: Sequence[int]) -> ClassDistribution:
        """Bayes rule in log space, one factor per block's joint configuration.

        A block configuration absent from training (an unseen level included)
        contributes that block's zero-count smoothed factor.
        """
        # accumulate adds the factors one at a time, prior first
        return _softmax(np.add.accumulate(self._compiled.gather(x), axis=0)[-1])

    @cached_property
    def _compiled(self) -> _StackedRows:
        # the class log prior rides along as the one row of an empty block,
        # so a gather returns it first and then one factor per block
        r = len(self.class_counts)
        log_prior = _class_log_prior(self.class_counts, self.prior)
        blocks = [((), np.zeros((1, 0), dtype=np.int64), log_prior[None], log_prior)]
        for t in self.block_tables:
            cell, _, mass, log_mass = self.prior.attribute_smoothing(t.q, t.log_q, r)
            rows, unseen = (
                _cond_log_column(c, self.class_counts, cell, mass, log_mass)
                for c in (t.counts, np.zeros(r, dtype=np.int64))
            )
            blocks.append((t.subset, t.config_array, rows, unseen))
        return _StackedRows(blocks)


class NBClassifier(ANBClassifier):
    """Naive Bayes: the block-augmented model over the singleton partition."""

    # a binding of its own, so a profiler can tell nb rows from anb rows
    predict = ANBClassifier.predict

    @property
    def tables(self) -> tuple[np.ndarray, ...]:
        """Dense (value x class) counts per predictor, as nb model files store them."""
        dense = []
        for t in self.block_tables:
            table = np.zeros((t.q, t.class_arity), dtype=np.int64)
            table[t.config_array[:, 0]] = t.counts
            dense.append(table)
        return tuple(dense)


def _tally_blocks(cls, partition: Sequence[Sequence[int]], train: Dataset, prior: PriorSpec):
    """A `cls` model holding the class counts and one count table per block."""
    if train.n_rows == 0:
        raise DataError("cannot train on an empty dataset")
    part = validate_partition(partition, train.schema.n_predictors)
    r = train.schema.class_arity
    class_counts = np.bincount(train.labels, minlength=r).astype(np.int64)
    block_tables = tuple(_count_table(train, block) for block in part)
    return cls(train.schema, part, class_counts, block_tables, prior)


def build_nb(train: Dataset, prior: PriorSpec) -> NBClassifier:
    """Tally marginal and per-predictor counts; smoothing happens at predict time."""
    return _tally_blocks(NBClassifier, singleton_partition(train.schema.n_predictors), train, prior)


def build_anb(partition: Sequence[Sequence[int]], train: Dataset, prior: PriorSpec) -> ANBClassifier:
    return _tally_blocks(ANBClassifier, partition, train, prior)
