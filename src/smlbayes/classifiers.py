"""Classifiers over encoded discrete data.

Four kinds share a common ``predict(x) -> ClassDistribution`` surface:

- ``DiagnosticClassifier``: class given one predictor subset, posterior
  predictive of its count table.
- ``MixtureClassifier``: likelihood-weighted average of diagnostic models,
  either all subsets of a fixed size or the blocks of a partition.
- ``NBClassifier``: naive Bayes with per-predictor conditional tables.
- ``ANBClassifier``: naive Bayes whose attributes are partition blocks, each
  treated as one joint variable.

Distributions are plain numpy vectors, strictly positive and summing to 1.

Each model compiles itself on its first prediction: every smoothed row it
can read is computed once and stacked into one read-only table
(`_StackedRows`), so a prediction is a handful of array operations on the
rows x's configurations select. The compiled form is cached on the model;
treat a model as immutable once it has predicted.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np
from scipy.special import logsumexp

from .data import Dataset, Schema
from .errors import ConfigError, DataError
from .scoring import (
    _KEY_LIMIT,
    CountTable,
    PriorSpec,
    build_count_table,
    log_sml,
)
from .search import Partition, validate_partition

ClassDistribution = np.ndarray

# floor for prior cell mass that underflowed float range; keeps predictions
# strictly positive at the cost of (immeasurably) distorting that edge case
_CELL_FLOOR = np.finfo(float).tiny


# one lookup block: (subset, stored configurations, q, their rows, unseen row)
_Block = tuple[tuple[int, ...], np.ndarray, int, np.ndarray, np.ndarray]


class _StackedRows:
    """Read-only rows of several lookup blocks, stacked in one table.

    A block is a predictor subset with its stored configurations (distinct,
    in lexicographic order, as `CountTable` keeps them), the size q of its
    configuration space, one row per stored configuration, and one more row
    for every configuration it never stored. `gather(x)` returns a fresh
    (n_blocks, row width) array holding, per block, the row of x's
    configuration.

    Configurations are found by mixed-radix integer keys, first member most
    significant, so a block's keys sort like its configurations; each block's
    keys are offset past the previous block's, so all blocks share one sorted
    key array below 2**62 and one `searchsorted`. A member's digit is its
    value capped at one more than its largest stored value, so a larger
    value (such as the unseen-level sentinel) or a negative one gives a key
    no stored configuration has. A block whose configuration space reaches
    2**62, or whose keys would carry the stacked key range past it, is
    looked up by configuration tuple instead.
    """

    def __init__(self, blocks: Sequence[_Block]) -> None:
        n_blocks = len(blocks)
        members = max((len(b[0]) for b in blocks), default=0)
        # a padding member reads x[0] (present whenever members > 0) with stride 0
        self._pos = np.zeros((n_blocks, members), dtype=np.intp)
        self._cap = np.zeros((n_blocks, members), dtype=np.uint64)
        self._stride = np.zeros((n_blocks, members), dtype=np.uint64)
        self._base = np.zeros(n_blocks, dtype=np.uint64)
        keys, keyed, fallback = [], [], []
        top = 0
        for c, (subset, configs, q, _, _) in enumerate(blocks):
            caps = (configs.max(axis=0, initial=-1) + 1).tolist()
            strides, span = [], 1
            for cap in reversed(caps):
                strides.insert(0, span)
                span *= cap + 1
            if q >= _KEY_LIMIT or top + span >= _KEY_LIMIT:
                fallback.append(c)
                continue
            k = len(subset)
            self._pos[c, :k] = subset
            self._cap[c, :k] = caps
            self._stride[c, :k] = strides
            self._base[c] = top
            keys.append(configs.astype(np.uint64) @ self._stride[c, :k] + np.uint64(top))
            keyed.append(c)
            top += span
        # the sentinel lies above every key, so a search never runs off the end
        self._keys = np.concatenate([*keys, np.full(1, np.iinfo(np.uint64).max, np.uint64)])
        # fallback blocks' rows follow the keyed ones; the unseen rows come last
        first = len(self._keys) - 1
        self._fallback = []
        for c in fallback:
            subset, configs = blocks[c][:2]
            index = {config: i for i, config in enumerate(map(tuple, configs.tolist()))}
            self._fallback.append((c, subset, index, first))
            first += len(configs)
        self._unseen = np.arange(first, first + n_blocks)
        rows = [blocks[c][3] for c in keyed + fallback]
        self.table = np.concatenate([*rows, np.stack([b[4] for b in blocks])])
        for a in (self._pos, self._cap, self._stride, self._base, self._keys, self._unseen, self.table):
            a.flags.writeable = False

    def gather(self, x: Sequence[int]) -> np.ndarray:
        # negative values wrap to huge unsigned ones and are capped too
        digits = np.asarray(x, dtype=np.int64)[self._pos].view(np.uint64)
        key = (np.minimum(digits, self._cap) * self._stride).sum(axis=1)
        key += self._base
        found = np.searchsorted(self._keys, key)
        idx = np.where(self._keys[found] == key, found, self._unseen)
        for c, subset, index, first in self._fallback:
            i = index.get(tuple(int(x[j]) for j in subset))
            idx[c] = self._unseen[c] if i is None else first + i
        return self.table[idx]


def _diag_block(table: CountTable, prior: PriorSpec) -> _Block:
    """The diagnostic model's predictive row per stored configuration.

    Each is (count + prior cell) / (config total + prior row mass); a
    configuration never seen in training gets the prior predictive, which is
    uniform for these symmetric priors.
    """
    r = table.class_arity
    a_cell, _ = prior.cell_prior(table.q, table.log_q, r)
    a_cell = max(a_cell, _CELL_FLOOR)
    numer = table.counts + a_cell
    unseen = np.full(r, a_cell)
    rows = numer / numer.sum(axis=1, keepdims=True)
    return table.subset, table.config_array, table.q, rows, unseen / unseen.sum()


@dataclass(eq=False)
class DiagnosticClassifier:
    """Posterior-predictive class distribution given one predictor subset."""

    table: CountTable
    prior: PriorSpec

    def predict(self, x: Sequence[int]) -> ClassDistribution:
        return diag_predict(self, x)

    @cached_property
    def _compiled(self) -> _StackedRows:
        return _StackedRows([_diag_block(self.table, self.prior)])


def diag_predict(model: DiagnosticClassifier, x: Sequence[int]) -> ClassDistribution:
    """(count + prior cell) / (config total + prior row mass) at x's configuration.

    A configuration never seen in training falls back to the prior
    predictive, which is uniform for these symmetric priors.
    """
    return model._compiled.gather(x)[0]


@dataclass(eq=False)
class MixtureClassifier:
    """Weighted family of diagnostic models; weights live in log space."""

    components: tuple[DiagnosticClassifier, ...]
    log_weights: np.ndarray

    def __post_init__(self) -> None:
        lw = np.asarray(self.log_weights, dtype=float)
        if lw.shape != (len(self.components),):
            raise ValueError("one log weight per component required")
        if not len(self.components):
            raise ValueError("mixture needs at least one component")
        if abs(float(logsumexp(lw))) > 1e-9:
            raise ValueError("log weights must normalize to 1")
        self.log_weights = lw

    def predict(self, x: Sequence[int]) -> ClassDistribution:
        return mixture_predict(self, x)

    @cached_property
    def _compiled(self) -> tuple[np.ndarray, _StackedRows]:
        weights = np.exp(self.log_weights)
        weights.flags.writeable = False
        return weights, _StackedRows([_diag_block(c.table, c.prior) for c in self.components])


def mixture_predict(model: MixtureClassifier, x: Sequence[int]) -> ClassDistribution:
    """Average the component predictions in probability space."""
    weights, rows = model._compiled
    out = weights @ rows.gather(x)
    return out / out.sum()


def mixture_from_tables(tables: list[CountTable], prior: PriorSpec) -> MixtureClassifier:
    """Mixture of one diagnostic component per table, weighted by label likelihood.

    Weights are the tables' log SML scores normalized by log-sum-exp.
    """
    scores = np.array([log_sml(t, prior) for t in tables])
    log_weights = scores - logsumexp(scores)
    components = tuple(DiagnosticClassifier(t, prior) for t in tables)
    return MixtureClassifier(components, log_weights)


def build_omi(
    train: Dataset,
    subset_size: int,
    prior: PriorSpec,
    enumeration_cap: int = 200_000,
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
        raise ConfigError(
            f"{n_subsets} subsets of size {subset_size} exceed the cap of {enumeration_cap}"
        )
    tables = [
        build_count_table(train, subset)
        for subset in itertools.combinations(range(n), subset_size)
    ]
    return mixture_from_tables(tables, prior)


def build_pm_mixture(
    partition: Sequence[Sequence[int]], train: Dataset, prior: PriorSpec
) -> MixtureClassifier:
    """Mixture with one diagnostic component per partition block."""
    part = validate_partition(partition, train.schema.n_predictors)
    tables = [build_count_table(train, block) for block in part]
    return mixture_from_tables(tables, prior)


def _class_log_prior(class_counts: np.ndarray, prior: PriorSpec) -> np.ndarray:
    """Smoothed log class marginal."""
    r = len(class_counts)
    a = prior.class_cell_prior(r)
    return np.log(class_counts + a) - math.log(float(class_counts.sum()) + r * a)


def _cond_log_column(
    value_counts: np.ndarray,
    class_counts: np.ndarray,
    cell: float,
    mass: float,
    log_mass: float,
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
    p = np.exp(log_scores - log_scores.max())
    return p / p.sum()


def _naive_bayes_rows(
    class_counts: np.ndarray,
    prior: PriorSpec,
    attributes: Sequence[tuple[tuple[int, ...], np.ndarray, int, float, np.ndarray]],
) -> _StackedRows:
    """Stacked log factors of a naive Bayes model over joint attributes.

    An attribute is (subset, stored configurations, q, log q, their count
    rows); a configuration it never stored contributes its zero-count
    factor. The class log prior rides along as the one row of an empty
    block, so a gather returns it first and then one factor per attribute.
    """
    r = len(class_counts)
    log_prior = _class_log_prior(class_counts, prior)
    blocks = [((), np.zeros((1, 0), dtype=np.int64), 1, log_prior[None], log_prior)]
    for subset, configs, q, log_q, counts in attributes:
        cell, _, mass, log_mass = prior.attribute_smoothing(q, log_q, r)
        rows, unseen = (
            _cond_log_column(c, class_counts, cell, mass, log_mass)
            for c in (counts, np.zeros(r, dtype=np.int64))
        )
        blocks.append((subset, configs, q, rows, unseen))
    return _StackedRows(blocks)


def _naive_bayes_predict(rows: _StackedRows, x: Sequence[int]) -> ClassDistribution:
    # accumulate adds the factors one at a time, prior first
    return _softmax(np.add.accumulate(rows.gather(x), axis=0)[-1])


@dataclass(eq=False)
class NBClassifier:
    """Naive Bayes: class marginal counts plus one (value x class) table per predictor."""

    schema: Schema
    class_counts: np.ndarray
    tables: tuple[np.ndarray, ...]
    prior: PriorSpec

    def predict(self, x: Sequence[int]) -> ClassDistribution:
        return nb_predict(self, x)

    @cached_property
    def _compiled(self) -> _StackedRows:
        attributes = []
        for i, table in enumerate(self.tables):
            arity = table.shape[0]
            values = np.arange(arity, dtype=np.int64)[:, None]
            attributes.append(((i,), values, arity, math.log(arity), table))
        return _naive_bayes_rows(self.class_counts, self.prior, attributes)


def build_nb(train: Dataset, prior: PriorSpec) -> NBClassifier:
    """Tally marginal and conditional counts; smoothing happens at predict time."""
    if train.n_rows == 0:
        raise DataError("cannot train on an empty dataset")
    r = train.schema.class_arity
    class_counts = np.bincount(train.labels, minlength=r).astype(np.int64)
    tables = []
    for i, arity in enumerate(train.schema.predictor_arities):
        table = np.zeros((arity, r), dtype=np.int64)
        np.add.at(table, (train.rows[:, i], train.labels), 1)
        tables.append(table)
    return NBClassifier(train.schema, class_counts, tuple(tables), prior)


def nb_predict(model: NBClassifier, x: Sequence[int]) -> ClassDistribution:
    """Bayes rule in log space with posterior-predictive factor estimates.

    A value index outside a table (an unseen categorical level) contributes
    its zero-count smoothed factor.
    """
    return _naive_bayes_predict(model._compiled, x)


@dataclass(eq=False)
class ANBClassifier:
    """Naive Bayes whose attributes are partition blocks (joint meta-variables)."""

    schema: Schema
    partition: Partition
    class_counts: np.ndarray
    block_tables: tuple[CountTable, ...]
    prior: PriorSpec

    def predict(self, x: Sequence[int]) -> ClassDistribution:
        return anb_predict(self, x)

    @cached_property
    def _compiled(self) -> _StackedRows:
        attributes = [
            (t.subset, t.config_array, t.q, t.log_q, t.counts) for t in self.block_tables
        ]
        return _naive_bayes_rows(self.class_counts, self.prior, attributes)


def build_anb(
    partition: Sequence[Sequence[int]], train: Dataset, prior: PriorSpec
) -> ANBClassifier:
    if train.n_rows == 0:
        raise DataError("cannot train on an empty dataset")
    part = validate_partition(partition, train.schema.n_predictors)
    r = train.schema.class_arity
    class_counts = np.bincount(train.labels, minlength=r).astype(np.int64)
    block_tables = tuple(build_count_table(train, block) for block in part)
    return ANBClassifier(train.schema, part, class_counts, block_tables, prior)


def anb_predict(model: ANBClassifier, x: Sequence[int]) -> ClassDistribution:
    """Like naive Bayes, with each block's joint configuration as one attribute.

    A block configuration absent from training contributes that block's
    prior-predictive factor through its zero count vector.
    """
    return _naive_bayes_predict(model._compiled, x)
