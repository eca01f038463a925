"""Stochastic greedy search over predictor partitions.

A partition groups the predictors into disjoint blocks; its score is the
probability-space average of the per-block label likelihoods. The search is
a plain restarted hill climb over three move kinds, deterministic for a
given seed.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
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
    return tuple(sorted((tuple(sorted(int(i) for i in b)) for b in blocks)))


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
        return {
            "restarts": self.restarts,
            "patience": self.patience,
            "max_block_size": self.max_block_size,
            "seed": self.seed,
            "init_mode": self.init_mode,
        }


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
            table = build_count_table(self.train, block)
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
    operand is drawn and kept in the table.
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
    what `np.random.Generator(bit_generator).integers(n)` would draw.

    NumPy keeps each bit generator's stream stable across releases (NEP 19),
    but not the algorithm `Generator.integers` runs over it, so the search
    runs that algorithm itself. It is Lemire's multiply-shift with rejection
    (default int64 dtype, unmasked): n = 1 draws nothing; for n < 2**32, a
    32-bit half u of the stream gives (u * n) >> 32 unless the low 32 bits of
    u * n fall below (2**32 - n) % n, which draws again; n = 2**32 is u
    itself. The halves of each 64-bit raw value come low first, and a high
    half left over is kept for the next 32-bit draw. For n > 2**32 the same
    rule runs over a whole 64-bit value, which leaves a kept half in place.
    """

    _BLOCK = 64  # raw values fetched per call to `random_raw`

    def __init__(self, bit_generator: np.random.BitGenerator):
        self._raw = bit_generator.random_raw
        self._halves = iter(())  # an optional kept high half, then whole values as (low, high)

    def integers(self, n: int) -> int:
        """One draw from range(n), for a Python int n (its products must not wrap)."""
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
        if n == 2**32:
            return self._half()
        if not 1 <= n <= 2**63:
            raise ValueError(f"bound {n} outside 1..2**63")
        m = self._whole() * n
        if m & (2**64 - 1) < n:
            threshold = (2**64 - n) % n
            while m & (2**64 - 1) < threshold:
                m = self._whole() * n
        return m >> 64

    def _refill(self) -> list[int]:
        raw = self._raw(self._BLOCK)
        return np.stack((raw & (2**32 - 1), raw >> 32), axis=1).ravel().tolist()

    def _half(self) -> int:
        try:
            return next(self._halves)
        except StopIteration:
            self._halves = iter(self._refill())
            return next(self._halves)

    def _whole(self) -> int:
        rest = list(self._halves)
        kept, pairs = rest[: len(rest) % 2], rest[len(rest) % 2 :]
        if not pairs:
            pairs = self._refill()
        self._halves = iter(kept + pairs[2:])
        return pairs[0] | pairs[1] << 32


# the last tuple partition proposed from, its cap and its move table: a hill
# climb proposes from one partition object until it accepts, so most calls
# neither rebuild nor hash the table's key
_last_table: list = [((), None, ())]


def propose_move(
    partition: Sequence[Sequence[int]],
    rng: np.random.Generator | BoundedDraws,
    max_block_size: int | None = None,
) -> Partition:
    """Draw one neighboring partition: relocate, split off, or merge.

    The move kind is chosen uniformly among the kinds applicable to the
    current partition, then its operands uniformly among the valid choices,
    so the result is always a valid partition different from the input.
    Operands are enumerated in the given block order.
    """
    last = _last_table[0]
    if partition is last[0] and max_block_size == last[1]:
        kinds = last[2]
    else:
        part = tuple(map(tuple, partition))
        kinds = _move_table(part, max_block_size)
        if part == partition:  # a tuple of tuples cannot change: keep it by identity
            _last_table[0] = (partition, max_block_size, kinds)
    apply, operands, candidates = kinds[rng.integers(len(kinds))]
    i = rng.integers(len(operands))
    candidate = candidates[i]
    if candidate is None:
        blocks = [list(b) for b in partition]
        apply(blocks, operands[i])
        candidate = candidates[i] = canonical_partition(b for b in blocks if b)
    return candidate


def _initial_partition(n: int, mode: str, rng: BoundedDraws) -> Partition:
    if mode == "singletons":
        return singleton_partition(n)
    # one draw at a time, as Generator.integers(n, size=n) draws them
    blocks: dict[int, list[int]] = {}
    for var in range(n):
        blocks.setdefault(rng.integers(n), []).append(var)
    return canonical_partition(blocks.values())


def pm_search(train: Dataset, prior: PriorSpec, config: SearchConfig) -> SearchResult:
    """Restarted greedy hill climb; accepts strict improvements only.

    Each restart runs until `patience` consecutive proposals fail to improve.
    Ties across restarts resolve to the earliest restart. Deterministic for a
    given config seed.
    """
    n = train.schema.n_predictors
    if n < 1:
        raise ValueError("search needs at least one predictor")
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
            candidate = propose_move(part, rng, config.max_block_size)
            cand_score = scorer.score(candidate)
            proposals += 1
            if cand_score.log_value > score.log_value:
                part, score = candidate, cand_score
                rejections = 0
            else:
                rejections += 1
        traces.append(RestartTrace(ridx, initial, score.log_value, proposals))
        total_proposals += proposals
        if best is None or score.log_value > best[1].log_value:
            best = (part, score)
    assert best is not None
    return SearchResult(best[0], best[1], total_proposals, tuple(traces))
