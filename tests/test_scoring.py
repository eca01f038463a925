"""Count tables, the label-likelihood kernel, and family scores."""

import json
import math
import re
import warnings

import mpmath as mp
import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import (
    config_tuples,
    dense_log_sml,
    dirichlet_multinomial_log_evidence,
    random_dataset,
    sequential_log_prob,
)
from smlbayes import (
    ConfigError,
    CountTable,
    Dataset,
    PriorSpec,
    Schema,
    build_count_table,
    log_family_score,
    log_sml,
)

UNIFORM = PriorSpec.uniform_cell(1.0)
ESS1 = PriorSpec.equivalent_sample_size(1.0)


def _binary_data(rows, labels):
    n = len(rows[0]) if rows else 0
    schema = Schema(tuple(f"x{i}" for i in range(n)), (2,) * n, "y", 2)
    return Dataset(
        schema,
        np.array(rows, dtype=np.int64).reshape(len(labels), n),
        np.array(labels, dtype=np.int64),
    )


class TestPriorSpec:
    @pytest.mark.parametrize("strength", [math.inf, math.nan, 1e-320])
    @pytest.mark.parametrize("make", [PriorSpec.uniform_cell, PriorSpec.equivalent_sample_size])
    def test_strength_not_finite_and_normal_raises(self, make, strength):
        # the message the CLI prints for --prior uniform:inf and the like
        with pytest.raises(ValueError, match=r"^prior strength must be a finite, normal number > 0$"):
            make(strength)


class TestBuildCountTable:
    def test_empty_subset_pools_all_rows(self):
        data = _binary_data([[0], [1], [0]], [0, 0, 1])
        table = build_count_table(data, ())
        assert config_tuples(table) == ((),)
        assert table.counts.tolist() == [[2, 1]]
        assert table.q == 1 and table.log_q == 0.0

    def test_single_binary_predictor(self):
        data = _binary_data([[0], [0], [1]], [0, 1, 0])
        table = build_count_table(data, (0,))
        assert config_tuples(table) == ((0,), (1,))
        assert table.counts.tolist() == [[1, 1], [1, 0]]
        assert table.q == 2

    def test_zero_count_configs_not_stored(self):
        data = _binary_data([[0, 0], [0, 0]], [0, 1])
        table = build_count_table(data, (0, 1))
        assert config_tuples(table) == ((0, 0),)
        assert table.q == 4

    def test_counts_sum_to_n(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            arities = tuple(int(a) for a in rng.integers(2, 4, size=rng.integers(0, 4)))
            data = random_dataset(rng, int(rng.integers(0, 30)), arities, 2)
            subset = tuple(
                i for i in range(len(arities)) if rng.random() < 0.5
            )
            table = build_count_table(data, subset)
            assert int(table.counts.sum()) == data.n_rows
            if table.counts.size:
                assert (table.counts.sum(axis=1) > 0).all()

    def test_invalid_subset(self):
        data = _binary_data([[0]], [0])
        with pytest.raises(ValueError):
            build_count_table(data, (1, 0))
        with pytest.raises(ValueError):
            build_count_table(data, (5,))

    def test_json_round_trip(self):
        data = _binary_data([[0, 1], [1, 0], [0, 1]], [0, 1, 1])
        table = build_count_table(data, (0, 1))
        again = CountTable.from_json_dict(json.loads(json.dumps(table.to_json_dict())))
        assert config_tuples(again) == config_tuples(table)
        assert np.array_equal(again.counts, table.counts)
        assert log_sml(again, UNIFORM) == log_sml(table, UNIFORM)


class TestLogSml:
    def test_empty_table_scores_zero(self):
        data = _binary_data([], [])
        assert log_sml(build_count_table(data, ()), UNIFORM) == 0.0

    def test_single_config_two_rows(self):
        # both rows share one configuration, labels both 0:
        # 1/2 * 2/3 = 1/3 by the chain rule
        data = _binary_data([[0], [0]], [0, 0])
        table = build_count_table(data, (0,))
        assert_allclose(log_sml(table, UNIFORM), -1.0986122886681098, atol=1e-10)

    def test_two_config_example(self):
        # configs (0): labels 0,1 -> 1/2 * 1/3 ; (1): label 0 -> 1/2
        data = _binary_data([[0], [0], [1]], [0, 1, 0])
        table = build_count_table(data, (0,))
        assert_allclose(log_sml(table, UNIFORM), -2.4849066497880004, atol=1e-10)

    def test_chain_rule_oracle_sweep(self):
        rng = np.random.default_rng(17)
        for _ in range(150):
            n = int(rng.integers(0, 4))
            arities = tuple(int(a) for a in rng.integers(2, 4, size=n))
            r = int(rng.integers(2, 4))
            data = random_dataset(rng, int(rng.integers(0, 14)), arities, r)
            subset = tuple(i for i in range(n) if rng.random() < 0.6)
            table = build_count_table(data, subset)
            for prior in (UNIFORM, PriorSpec.uniform_cell(0.5), ESS1,
                          PriorSpec.equivalent_sample_size(2.5)):
                expected = sequential_log_prob(
                    data.rows.tolist(), data.labels.tolist(), subset, arities, r, prior
                )
                assert_allclose(log_sml(table, prior), expected, atol=1e-10)

    def test_row_order_irrelevant(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            data = random_dataset(rng, 20, (2, 3), 2)
            perm = rng.permutation(20)
            shuffled = data.take(perm)
            for subset in [(), (0,), (0, 1)]:
                a = log_sml(build_count_table(data, subset), UNIFORM)
                b = log_sml(build_count_table(shuffled, subset), UNIFORM)
                assert abs(a - b) <= 1e-12

    def test_sparse_equals_dense(self):
        rng = np.random.default_rng(29)
        for _ in range(40):
            arities = (2, 3, 2)
            r = int(rng.integers(2, 4))
            data = random_dataset(rng, int(rng.integers(1, 25)), arities, r)
            subset = tuple(i for i in range(3) if rng.random() < 0.7)
            table = build_count_table(data, subset)
            for prior in (UNIFORM, ESS1):
                expected = dense_log_sml(
                    data.rows.tolist(), data.labels.tolist(), subset, arities, r, prior
                )
                assert abs(log_sml(table, prior) - expected) <= 1e-12

    def test_empty_subset_is_label_evidence(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            r = int(rng.integers(2, 5))
            data = random_dataset(rng, int(rng.integers(1, 30)), (2,), r)
            table = build_count_table(data, ())
            label_counts = np.bincount(data.labels, minlength=r).tolist()
            for a in (1.0, 0.5):
                expected = dirichlet_multinomial_log_evidence(label_counts, a)
                assert_allclose(
                    log_sml(table, PriorSpec.uniform_cell(a)), expected, atol=1e-12
                )

    @pytest.mark.parametrize("strength", [1e14, 1e15, 1e16, 1e17, 1e300, 1e306])
    def test_huge_uniform_strength_makes_every_label_uniform(self, strength):
        # a mass that dwarfs the counts leaves each of 8 labels probability
        # 1/2; lgamma(a + k) - lgamma(a) cancels nearly every digit there
        # (it gave -7.67 at 1e14 and +128 at 1e16), a sum of logs does not;
        # at 1e306 lgamma of the class mass overflows, the sum does not
        table = build_count_table(_binary_data([[0], [1]] * 4, [0, 1] * 4), ())
        assert_allclose(log_sml(table, PriorSpec.uniform_cell(strength)), -8 * math.log(2), rtol=1e-12)

    def test_ess_matches_uniform_with_scaled_alpha(self):
        # s spread over q*r cells is the same prior as alpha = s/(q*r) per cell
        rng = np.random.default_rng(37)
        data = random_dataset(rng, 30, (2, 3), 2)
        table = build_count_table(data, (0, 1))
        s = 2.0
        alpha = s / (table.q * table.class_arity)
        assert_allclose(
            log_sml(table, PriorSpec.equivalent_sample_size(s)),
            log_sml(table, PriorSpec.uniform_cell(alpha)),
            atol=1e-12,
        )

    def test_score_never_positive(self):
        rng = np.random.default_rng(41)
        for _ in range(40):
            data = random_dataset(rng, int(rng.integers(0, 20)), (2, 2), 2)
            table = build_count_table(data, (0, 1))
            for prior in (UNIFORM, ESS1):
                assert log_sml(table, prior) <= 1e-12

    def _mp_log_sml(self, counts, q, r, s):
        mp.mp.dps = 120
        a = mp.mpf(s) / (mp.mpf(q) * r)
        total = mp.mpf(0)
        for row in counts:
            nj = sum(row)
            total += mp.loggamma(r * a) - mp.loggamma(r * a + nj)
            for c in row:
                total += mp.loggamma(a + c) - mp.loggamma(a)
        return float(total)

    def test_equivalent_sample_size_with_huge_config_space(self):
        # q far beyond int64: the cell prior must move through log space,
        # also where it is a subnormal float (2**-1061 down to 2**-1075)
        for exponent in (200, 1200, 1060, 1070, 1074):
            q = 2**exponent
            table = CountTable(
                subset=(0, 1),
                configs=((0, 0), (1, 5)),
                counts=np.array([[3, 1], [0, 2]]),
                n_rows=6,
                class_arity=2,
                q=q,
                log_q=exponent * math.log(2.0),
            )
            got = log_sml(table, ESS1)
            assert math.isfinite(got)
            assert_allclose(got, self._mp_log_sml([[3, 1], [0, 2]], q, 2, 1.0), atol=1e-8)

    def test_uniform_cell_untouched_by_huge_config_space(self):
        small = CountTable((0,), ((0,), (1,)), np.array([[2, 0], [1, 1]]), 4, 2, 2, math.log(2))
        huge = CountTable((0,), ((0,), (1,)), np.array([[2, 0], [1, 1]]), 4, 2, 2**500, 500 * math.log(2))
        assert log_sml(small, UNIFORM) == log_sml(huge, UNIFORM)


    @pytest.mark.parametrize(
        "prior,name",
        [
            (PriorSpec.uniform_cell(1e308), "uniform:1e+308"),
        ],
    )
    def test_non_finite_score_raises_naming_the_prior(self, prior, name):
        # the class mass 2 * 1e308 is inf itself, and inf - inf is nan;
        # the raise is the whole report: no RuntimeWarning on the way
        table = build_count_table(_binary_data([[0], [1], [0], [1]], [0, 1, 0, 1]), (0,))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match=rf"^prior {re.escape(name)} gives a non-finite"):
                log_sml(table, prior)

    def test_bdeu_row_mass_cannot_overflow(self):
        # BDeu's class mass is s / q, finite for every finite s, so even a
        # strength whose lgamma overflows scores, without a RuntimeWarning
        table = build_count_table(_binary_data([[0], [1], [0], [1]], [0, 1, 0, 1]), (0,))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            score = log_sml(table, PriorSpec.equivalent_sample_size(1e307))
        assert math.isfinite(score) and score <= 0.0


class TestFamilyScore:
    def test_single_member_identity(self):
        assert log_family_score([-2.5]).log_value == -2.5

    def test_two_member_example(self):
        # mean of 1/2 and 1/4 is 3/8
        score = log_family_score([math.log(0.5), math.log(0.25)])
        assert_allclose(score.log_value, -0.9808292530117262, atol=1e-12)
        assert score.member_log_scores == (math.log(0.5), math.log(0.25))

    def test_equal_members_collapse(self):
        assert_allclose(log_family_score([-3.0, -3.0, -3.0]).log_value, -3.0, atol=1e-12)

    def test_bounded_by_members(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            members = (-rng.exponential(50.0, size=rng.integers(1, 8))).tolist()
            v = log_family_score(members).log_value
            assert min(members) - 1e-9 <= v <= max(members) + 1e-9

    def test_deep_scores_stay_finite(self):
        v = log_family_score([-1e6, -1e6 + 2.0, -9.9e5]).log_value
        assert math.isfinite(v)
        assert -1e6 <= v <= -9.9e5

    def test_empty_family_rejected(self):
        with pytest.raises(ValueError):
            log_family_score([])

    def test_json_uses_full_precision_strings(self):
        score = log_family_score([-1.2345678901234567, -7.0])
        d = json.loads(json.dumps(score.to_json_dict()))
        assert isinstance(d["log_value"], str)
        digits = d["member_log_scores"][0].lstrip("-").replace(".", "").split("e")[0]
        assert len(digits.lstrip("0")) >= 15
