"""Stochastic greedy search over predictor partitions.

A partition groups the predictors into disjoint blocks; its score is the
probability-space average of the per-block label likelihoods. The search is
a plain restarted hill climb over three move kinds, deterministic for a
given seed.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import asdict, dataclass
from typing import Callable, Sequence

import numpy as np

from .data import Dataset, derive_seed
from .errors import ConfigError
from .scoring import (
    FamilyScore,
    PriorSpec,
    build_count_table,
    check_subset,
    log_family_score,
    log_sml,
)

Block = tuple[int, ...]
Partition = tuple[Block, ...]

_RESTART_STREAM = 0x5EA2C4B7


def canonical_partition(blocks: Sequence[Sequence[int]]) -> Partition:
    """Sort members within blocks and blocks by first member."""
    return tuple(sorted(tuple(sorted(map(operator.index, b))) for b in blocks))


def validate_partition(partition: Sequence[Sequence[int]], n_predictors: int) -> Partition:
    """Check disjoint nonempty blocks covering 0..n-1; return canonical form."""
    part = canonical_partition(partition)
    seen: list[int] = []
    for block in part:
        if not block:
            raise ValueError("partition blocks must be nonempty")
        check_subset(block, n_predictors)
        seen.extend(block)
    if sorted(seen) != list(range(n_predictors)):
        raise ValueError("partition blocks must cover every predictor exactly once")
    return part


def singleton_partition(n_predictors: int) -> Partition:
    return tuple((i,) for i in range(n_predictors))


@dataclass(frozen=True)
class SearchConfig:
    restarts: int = 10
    patience: int = 200
    max_block_size: int | None = None
    seed: int = 0
    init_mode: str = "singletons"

    def __post_init__(self) -> None:
        if self.restarts < 1:
            raise ConfigError("restarts must be >= 1")
        if self.patience < 1:
            raise ConfigError("patience must be >= 1")
        if self.max_block_size is not None and self.max_block_size < 1:
            raise ConfigError("max_block_size must be >= 1")
        if self.init_mode not in ("singletons", "random"):
            raise ConfigError(f"unknown init_mode {self.init_mode!r}")

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class RestartTrace:
    restart_index: int
    initial_score: float
    final_score: float
    proposals: int

    def to_json_dict(self) -> dict:
        return {
            "restart_index": self.restart_index,
            "initial_score": format(self.initial_score, ".17g"),
            "final_score": format(self.final_score, ".17g"),
            "proposals": self.proposals,
        }


@dataclass(eq=False)
class SearchResult:
    best_partition: Partition
    best_score: FamilyScore
    proposals_evaluated: int
    restarts: tuple[RestartTrace, ...]

    def to_json_dict(self) -> dict:
        return {
            "best_partition": [list(b) for b in self.best_partition],
            "best_score": self.best_score.to_json_dict(),
            "proposals_evaluated": self.proposals_evaluated,
            "restarts": [t.to_json_dict() for t in self.restarts],
        }


class PartitionScorer:
    """Scores partitions against one training set, memoizing per-block scores
    and per-partition family scores.

    Block scores depend only on block contents, so the cache stays valid for
    the scorer's lifetime and is shared freely across candidate partitions.
    A partition scored before costs one dict lookup.
    """

    def __init__(self, train: Dataset, prior: PriorSpec):
        self.train = train
        self.prior = prior
        self._cache: dict[Block, float] = {}
        self._scores: dict[Partition, FamilyScore] = {}

    def block_score(self, block: Block) -> float:
        score = self._cache.get(block)
        if score is None:
            # reads a table a model built from `train` holds; keeps none it builds
            table = self.train.count_tables.get(block) or build_count_table(self.train, block)
            score = self._cache[block] = log_sml(table, self.prior)
        return score

    def score(self, partition: Partition) -> FamilyScore:
        score = self._scores.get(partition)
        if score is None:
            members = [self.block_score(b) for b in partition]
            score = self._scores[partition] = log_family_score(members)
        return score


def score_partition(partition: Sequence[Sequence[int]], train: Dataset, prior: PriorSpec) -> FamilyScore:
    """Probability-space average of per-block label likelihoods."""
    part = validate_partition(partition, train.schema.n_predictors)
    return PartitionScorer(train, prior).score(part)


def _relocate(blocks: list[list[int]], operand: tuple[int, int, int]) -> None:
    bi, v, ti = operand
    blocks[bi].remove(v)
    blocks[ti].append(v)


def _detach(blocks: list[list[int]], operand: tuple[int, int]) -> None:
    bi, v = operand
    blocks[bi].remove(v)
    blocks.append([v])


def _merge(blocks: list[list[int]], operand: tuple[int, int]) -> None:
    i, j = operand
    blocks[i].extend(blocks[j])
    del blocks[j]


# (apply the move to a block list, operands, candidate per operand or None)
_MoveKind = tuple[Callable, list, list]


@functools.lru_cache(maxsize=1024)
def _move_table(partition: Partition, max_block_size: int | None) -> tuple[_MoveKind, ...]:
    """The move kinds applicable to `partition`, each with its valid operands.

    A pure function of its arguments, so it is memoized: a hill climb keeps
    its partition until a proposal is accepted, and every rejection draws
    from the same table. A candidate partition is built the first time its
    operand is drawn or checked, and kept in the table.
    """
    n = sum(len(b) for b in partition)
    if n < 2:
        raise ValueError("no moves exist for fewer than 2 predictors")
    cap = n if max_block_size is None else max_block_size
    relocations = [
        (bi, v, ti)
        for bi, b in enumerate(partition)
        for v in b
        for ti, t in enumerate(partition)
        if ti != bi and len(t) < cap
    ]
    detachables = [(bi, v) for bi, b in enumerate(partition) if len(b) >= 2 for v in b]
    merges = [
        (i, j)
        for i in range(len(partition))
        for j in range(i + 1, len(partition))
        if len(partition[i]) + len(partition[j]) <= cap
    ]
    kinds = tuple(
        (apply, operands, [None] * len(operands))
        for apply, operands in ((_relocate, relocations), (_detach, detachables), (_merge, merges))
        if operands
    )
    if not kinds:
        raise ValueError("no applicable moves under the block-size cap")
    return kinds


class BoundedDraws:
    """Draws `integers(n)` from a bit generator's raw stream, each equal to
    what `np.random.Generator(bit_generator).integers(n)` would draw, for the
    bounds a search draws: a move kind, an operand, a block index, all < 2**32.

    NumPy keeps each bit generator's stream stable across releases (NEP 19),
    but not the algorithm `Generator.integers` runs over it, so the search
    runs that algorithm itself. It is Lemire's multiply-shift with rejection
    (default int64 dtype, unmasked): n = 1 draws nothing; otherwise a 32-bit
    half u of the stream gives (u * n) >> 32 unless the low 32 bits of u * n
    fall below (2**32 - n) % n, which draws again. The halves of each 64-bit
    raw value come low first, and a high half left over is kept for the next draw.
    """

    _BLOCK = 64  # raw values fetched per call to `random_raw`

    def __init__(self, bit_generator: np.random.BitGenerator):
        self._raw = bit_generator.random_raw
        self._halves = iter(())  # the 32-bit halves of the fetched raw values, low first

    def integers(self, n: int) -> int:
        """One draw from range(n), for a Python int n in 1..2**32 - 1."""
        if 1 < n < 2**32:
            # the common case, inlined: one half, one multiply, one mask
            try:
                m = next(self._halves) * n
            except StopIteration:
                m = self._half() * n
            if m & (2**32 - 1) < n:
                threshold = (2**32 - n) % n
                while m & (2**32 - 1) < threshold:
                    m = self._half() * n
            return m >> 32
        if n == 1:
            return 0
        raise ValueError(f"bound {n} outside 1..2**32 - 1")

    def _half(self) -> int:
        try:
            return next(self._halves)
        except StopIteration:
            raw = self._raw(self._BLOCK)
            self._halves = iter(np.stack((raw & (2**32 - 1), raw >> 32), axis=1).ravel().tolist())
            return next(self._halves)


def propose_move(
    partition: Sequence[Sequence[int]],
    rng: np.random.Generator | BoundedDraws,
    max_block_size: int | None = None,
    moves: tuple[_MoveKind, ...] | None = None,
) -> Partition:
    """Draw one neighboring partition: relocate, split off, or merge.

    The move kind is chosen uniformly among the kinds applicable to the
    current partition, then its operands uniformly among the valid choices,
    so the result is always a valid partition different from the input.
    Operands are enumerated in the given block order. `moves`, if given, must
    equal `_move_table(partition, max_block_size)`: it spares the lookup.
    """
    if moves is None:
        moves = _move_table(tuple(map(tuple, partition)), max_block_size)
    move = moves[rng.integers(len(moves))]
    return _candidate(partition, move, rng.integers(len(move[1])))


def _candidate(partition: Sequence[Sequence[int]], move: _MoveKind, i: int) -> Partition:
    """Operand `i` of `move` applied to `partition`, built once and kept in the move table."""
    apply, operands, candidates = move
    candidate = candidates[i]
    if candidate is None:
        blocks = [list(b) for b in partition]
        apply(blocks, operands[i])
        candidate = candidates[i] = canonical_partition(b for b in blocks if b)
    return candidate


def _is_local_optimum(
    part: Partition, moves: tuple[_MoveKind, ...], scores: dict[Partition, FamilyScore], log_value: float
) -> bool:
    """Whether every neighbour of `part` has a score in `scores` and none is above `log_value`."""
    for move in moves:
        for i in range(len(move[1])):
            known = scores.get(_candidate(part, move, i))
            if known is None or known.log_value > log_value:
                return False
    return True


def _initial_partition(n: int, mode: str, rng: BoundedDraws) -> Partition:
    if mode == "singletons":
        return singleton_partition(n)
    # one draw at a time, as Generator.integers(n, size=n) draws them
    blocks: dict[int, list[int]] = {}
    for var in range(n):
        blocks.setdefault(rng.integers(n), []).append(var)
    return canonical_partition(blocks.values())


def check_searchable(data: Dataset) -> None:
    """Raise `ConfigError` unless `data` has a predictor to partition."""
    if data.schema.n_predictors < 1:
        raise ConfigError("search needs at least one predictor column")


def pm_search(train: Dataset, prior: PriorSpec, config: SearchConfig) -> SearchResult:
    """Restarted greedy hill climb; accepts strict improvements only.

    Each restart runs until `patience` consecutive proposals fail to improve,
    or until, after a rejection, every operand of the current partition's
    move table yields a candidate in this search's score memo at no more than
    the current score. Every later proposal would be rejected, so none is
    drawn: the result equals the full patience run's but for the proposal
    counts, which count the proposals drawn. Ties across restarts resolve to
    the earliest restart. Deterministic for a given config seed.
    """
    check_searchable(train)
    n = train.schema.n_predictors
    scorer = PartitionScorer(train, prior)
    movable = n >= 2 and (config.max_block_size is None or config.max_block_size >= 2)

    best: tuple[Partition, FamilyScore] | None = None
    traces: list[RestartTrace] = []
    total_proposals = 0
    for ridx in range(config.restarts):
        rng = BoundedDraws(np.random.PCG64(derive_seed(config.seed, _RESTART_STREAM, ridx)))
        part = _initial_partition(n, config.init_mode, rng)
        score = scorer.score(part)
        initial = score.log_value
        rejections = 0
        proposals = 0
        while movable and rejections < config.patience:
            if rejections == 0:  # a restart's first partition, or one just accepted
                moves = _move_table(part, config.max_block_size)
            candidate = propose_move(part, rng, config.max_block_size, moves)
            cand_score = scorer.score(candidate)
            proposals += 1
            if cand_score.log_value > score.log_value:
                part, score = candidate, cand_score
                rejections = 0
            else:
                rejections += 1
                if _is_local_optimum(part, moves, scorer._scores, score.log_value):
                    break
        traces.append(RestartTrace(ridx, initial, score.log_value, proposals))
        total_proposals += proposals
        if best is None or score.log_value > best[1].log_value:
            best = (part, score)
    assert best is not None
    return SearchResult(best[0], best[1], total_proposals, tuple(traces))
