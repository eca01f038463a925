"""Partition moves, scoring, and the restarted greedy search."""

import math
from unittest import mock

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import random_dataset, set_partitions
from smlbayes import (
    ConfigError,
    Dataset,
    PartitionScorer,
    PriorSpec,
    Schema,
    SearchConfig,
    SplitPlan,
    build_count_table,
    build_nb,
    log_family_score,
    log_sml,
    pm_search,
    propose_move,
    score_partition,
    singleton_partition,
    validate_partition,
)
from smlbayes import search
from smlbayes.data import split_indices
from smlbayes.search import BoundedDraws

UNIFORM = PriorSpec.uniform_cell(1.0)


def _xor_data(rng, n_rows=120, noise=0.05):
    """Labels are x0 xor x1 with flip noise; x2, x3 carry nothing."""
    rows = rng.integers(2, size=(n_rows, 4))
    labels = rows[:, 0] ^ rows[:, 1]
    flips = rng.random(n_rows) < noise
    labels = labels ^ flips.astype(np.int64)
    schema = Schema(("x0", "x1", "x2", "x3"), (2, 2, 2, 2), "y", 2)
    return Dataset(schema, rows, labels)


class TestPartitionValidation:
    def test_canonical_form(self):
        assert validate_partition([[2, 0], [1]], 3) == ((0, 2), (1,))

    def test_rejects_gaps_overlaps_and_empties(self):
        for bad in ([[0]], [[0, 1], [1, 2]], [[0, 1], []], [[0, 1, 3]]):
            with pytest.raises(ValueError):
                validate_partition(bad, 3)

    def test_rejects_members_that_are_not_integers(self):
        # a float member is not truncated, nor a string read as its number
        for bad in ([[0.5], [1, 2]], [["1"], [0, 2]]):
            with pytest.raises(TypeError):
                validate_partition(bad, 3)

    def test_enumerator_matches_bell_numbers(self):
        for n, bell in [(1, 1), (2, 2), (3, 5), (4, 15)]:
            assert len(list(set_partitions(list(range(n))))) == bell


class TestScorePartition:
    def test_matches_family_score_of_block_scores(self):
        rng = np.random.default_rng(3)
        data = random_dataset(rng, 40, (2, 3, 2), 2)
        part = ((0, 2), (1,))
        expected = log_family_score(
            [
                log_sml(build_count_table(data, (0, 2)), UNIFORM),
                log_sml(build_count_table(data, (1,)), UNIFORM),
            ]
        )
        got = score_partition(part, data, UNIFORM)
        assert got.log_value == expected.log_value
        assert got.member_log_scores == expected.member_log_scores

    def test_cache_is_transparent(self):
        rng = np.random.default_rng(5)
        data = random_dataset(rng, 30, (2, 2, 2), 2)
        scorer = PartitionScorer(data, UNIFORM)
        parts = [validate_partition(p, 3) for p in set_partitions([0, 1, 2])]
        cached = [scorer.score(p).log_value for p in parts]
        fresh = [score_partition(p, data, UNIFORM).log_value for p in parts]
        assert cached == fresh


class TestProposeMove:
    def test_single_predictor_has_no_moves(self):
        rng = np.random.default_rng(7)
        with pytest.raises(ValueError):
            propose_move(((0,),), rng)

    def test_blocks_given_as_lists(self):
        rng, tuple_rng = np.random.default_rng(8), np.random.default_rng(8)
        for _ in range(20):
            got = propose_move([[2, 0], [1], [3]], rng, max_block_size=3)
            assert got == propose_move(((2, 0), (1,), (3,)), tuple_rng, max_block_size=3)
            validate_partition(got, 4)

    def test_same_partition_object_under_another_cap(self):
        # one partition object proposed from under two caps gets each cap's moves
        part = singleton_partition(3)
        assert max(len(b) for b in propose_move(part, np.random.default_rng(3))) == 2
        with pytest.raises(ValueError, match="no applicable moves"):
            propose_move(part, np.random.default_rng(3), max_block_size=1)

    def test_always_valid_and_different(self):
        rng = np.random.default_rng(9)
        for n in (2, 3, 5):
            part = singleton_partition(n)
            for _ in range(300):
                nxt = propose_move(part, rng)
                validate_partition(nxt, n)
                assert nxt != part
                part = nxt

    def test_respects_max_block_size(self):
        rng = np.random.default_rng(11)
        part = singleton_partition(5)
        for _ in range(400):
            part = propose_move(part, rng, max_block_size=2)
            assert max(len(b) for b in part) <= 2

    def test_reaches_all_partitions_of_three(self):
        rng = np.random.default_rng(13)
        seen = set()
        part = singleton_partition(3)
        for _ in range(500):
            part = propose_move(part, rng)
            seen.add(part)
        all_parts = {validate_partition(p, 3) for p in set_partitions([0, 1, 2])}
        assert seen | {singleton_partition(3)} == all_parts


class TestPmSearch:
    def test_zero_predictors_raise_config_error(self):
        data = Dataset(Schema((), (), "y", 2), np.zeros((4, 0)), np.array([0, 1, 0, 1]))
        with pytest.raises(ConfigError, match="^search needs at least one predictor column$"):
            pm_search(data, UNIFORM, SearchConfig(restarts=1, patience=5, seed=1))

    def test_single_predictor_short_circuits(self):
        rng = np.random.default_rng(15)
        data = random_dataset(rng, 20, (3,), 2)
        result = pm_search(data, UNIFORM, SearchConfig(restarts=2, patience=5, seed=1))
        assert result.best_partition == ((0,),)
        assert result.proposals_evaluated == 0
        assert len(result.restarts) == 2

    def test_deterministic_for_seed(self):
        rng = np.random.default_rng(17)
        data = random_dataset(rng, 60, (2, 2, 3, 2), 2)
        cfg = SearchConfig(restarts=3, patience=30, seed=42)
        a = pm_search(data, UNIFORM, cfg)
        b = pm_search(data, UNIFORM, cfg)
        assert a.best_partition == b.best_partition
        assert a.best_score.log_value == b.best_score.log_value
        assert a.proposals_evaluated == b.proposals_evaluated
        assert [t.final_score for t in a.restarts] == [t.final_score for t in b.restarts]

    def test_greedy_never_degrades(self):
        rng = np.random.default_rng(19)
        data = random_dataset(rng, 50, (2, 2, 2, 2), 2)
        result = pm_search(data, UNIFORM, SearchConfig(restarts=4, patience=50, seed=3))
        for trace in result.restarts:
            assert trace.final_score >= trace.initial_score
            assert result.best_score.log_value >= trace.initial_score
        singleton_score = score_partition(
            singleton_partition(4), data, UNIFORM
        ).log_value
        assert result.best_score.log_value >= singleton_score

    def test_single_restart_finds_optimum_on_tiny_n(self):
        # strict-improvement greedy cannot cross score valleys, so this is a
        # statistical property of typical data, checked on a fixed batch
        rng = np.random.default_rng(99)
        for i in range(30):
            n = int(rng.integers(1, 4))
            arities = tuple(int(a) for a in rng.integers(2, 4, size=n))
            data = random_dataset(rng, int(rng.integers(8, 50)), arities, 2)
            best = max(
                score_partition(p, data, UNIFORM).log_value
                for p in set_partitions(list(range(n)))
            )
            result = pm_search(data, UNIFORM, SearchConfig(restarts=1, patience=50, seed=i))
            assert_allclose(result.best_score.log_value, best, atol=1e-9)

    def test_xor_pair_lands_in_one_block(self):
        rng = np.random.default_rng(23)
        data = _xor_data(rng)
        # the xor pair is also what the exhaustive oracle prefers
        best_part = max(
            (validate_partition(p, 4) for p in set_partitions(list(range(4)))),
            key=lambda p: score_partition(p, data, UNIFORM).log_value,
        )
        assert any({0, 1} <= set(b) for b in best_part)
        result = pm_search(data, UNIFORM, SearchConfig(restarts=10, patience=100, seed=7))
        assert any({0, 1} <= set(b) for b in result.best_partition)

    def test_random_init_mode(self):
        rng = np.random.default_rng(29)
        data = random_dataset(rng, 40, (2, 2, 2), 2)
        cfg = SearchConfig(restarts=5, patience=40, seed=11, init_mode="random")
        result = pm_search(data, UNIFORM, cfg)
        validate_partition(result.best_partition, 3)
        for trace in result.restarts:
            assert result.best_score.log_value >= trace.initial_score

    def test_max_block_size_honored(self):
        rng = np.random.default_rng(31)
        data = _xor_data(rng, n_rows=80)
        cfg = SearchConfig(restarts=4, patience=50, seed=5, max_block_size=1)
        result = pm_search(data, UNIFORM, cfg)
        assert result.best_partition == singleton_partition(4)

    def test_two_predictors_draw_one_proposal_or_two(self):
        # every move from the singletons merges, and every move from the merge
        # detaches: a restart stops after its first rejection
        draws = set()
        for seed in range(12):
            rng = np.random.default_rng(seed)
            if seed % 3:
                data = random_dataset(rng, 30, (2, 3), 2)
            else:  # labels x0 xor x1: the merge is best
                rows = rng.integers(2, size=(40, 2))
                data = Dataset(Schema(("x0", "x1"), (2, 2), "y", 2), rows, rows[:, 0] ^ rows[:, 1])
            singles = score_partition(((0,), (1,)), data, UNIFORM).log_value
            merged = score_partition(((0, 1),), data, UNIFORM).log_value
            want = 2 if merged > singles else 1
            result = pm_search(data, UNIFORM, SearchConfig(restarts=3, patience=200, seed=seed))
            assert [t.proposals for t in result.restarts] == [want] * 3
            assert result.proposals_evaluated == 3 * want
            draws.add(want)
        assert draws == {1, 2}

    @pytest.mark.parametrize("init_mode", ["singletons", "random"])
    def test_proposals_evaluated_counts_the_proposals_drawn(self, init_mode):
        data = _xor_data(np.random.default_rng(37))
        config = SearchConfig(restarts=6, patience=200, seed=9, init_mode=init_mode)
        with mock.patch.object(search, "propose_move", wraps=search.propose_move) as spy:
            result = pm_search(data, UNIFORM, config)
        assert spy.call_count == result.proposals_evaluated == sum(t.proposals for t in result.restarts)
        # every restart stopped before its patience ran out
        assert all(t.proposals < config.patience for t in result.restarts)

    def test_config_validation(self):
        for bad in (
            dict(restarts=0),
            dict(patience=0),
            dict(max_block_size=0),
            dict(init_mode="bogus"),
        ):
            with pytest.raises(ConfigError):
                SearchConfig(**bad)


class TestGoldenDraws:
    """Literal draws, so a NumPy release that changes a stream fails here by
    name rather than as a distant report difference."""

    def test_search_stream(self):
        # in-repo bounded draws over PCG64's raw stream, which NEP 19 keeps stable
        bounds = [1, 2, 3, 7, 10, 100, 2**31 + 1, 2**32 - 1, 5, 6, 17, 1, 4, 9, 1000, 2**31, 3]
        draws = BoundedDraws(np.random.PCG64(20130601))
        assert [draws.integers(n) for n in bounds] == [
            0, 0, 0, 4, 1, 95, 2025178271, 1094721480, 0, 5, 11, 0, 0, 7, 524, 1501967706, 1,
        ]

    def test_bounds_outside_the_search_range_raise(self):
        draws = BoundedDraws(np.random.PCG64(20130601))
        for n in (0, -1, 2**32, 2**63 + 1):
            with pytest.raises(ValueError, match="outside 1..2\\*\\*32 - 1"):
                draws.integers(n)

    def test_split(self):
        # NumPy's Generator.permutation, which NumPy may change between releases
        train, test = split_indices(40, SplitPlan(0.75, 7, 3))
        assert train.tolist()[:12] == [6, 9, 38, 21, 12, 26, 16, 13, 29, 19, 27, 25]
        assert test.tolist() == [39, 8, 18, 37, 36, 15, 11, 28, 2, 17]


def test_search_keeps_no_count_table():
    # the search reads the tables that models built from its training set
    # hold, and drops every table it builds itself
    data = _xor_data(np.random.default_rng(4))
    pm_search(data, UNIFORM, SearchConfig(restarts=3, patience=30, seed=2))
    assert data.count_tables == {}
    nb = build_nb(data, UNIFORM)
    pm_search(data, UNIFORM, SearchConfig(restarts=3, patience=30, seed=2))
    assert list(data.count_tables) == [(0,), (1,), (2,), (3,)]
    assert tuple(data.count_tables.values()) == nb.block_tables
