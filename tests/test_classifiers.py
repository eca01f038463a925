"""Diagnostic, mixture, naive Bayes, and block-augmented classifiers."""

import itertools
import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import random_dataset
from smlbayes import (
    ANBClassifier,
    ConfigError,
    DataError,
    Dataset,
    DiagnosticClassifier,
    MixtureClassifier,
    PriorSpec,
    Schema,
    build_anb,
    build_count_table,
    build_nb,
    build_omi,
    build_pm_mixture,
    log_sml,
    singleton_partition,
)
from scipy.special import logsumexp
from smlbayes.classifiers import _StackedRows

UNIFORM = PriorSpec.uniform_cell(1.0)
ESS2 = PriorSpec.equivalent_sample_size(2.0)


def _data(rows, labels, arities, r=2):
    n = len(arities)
    schema = Schema(tuple(f"x{i}" for i in range(n)), tuple(arities), "y", r)
    return Dataset(
        schema,
        np.array(rows, dtype=np.int64).reshape(len(labels), n),
        np.array(labels, dtype=np.int64),
    )


def _assert_distribution(p, r):
    assert p.shape == (r,)
    assert (p > 0).all()
    assert abs(float(p.sum()) - 1.0) <= 1e-12


class TestDiagnostic:
    def test_posterior_predictive_counts(self):
        # config counts [2, 0] under alpha=1: (2+1)/(2+2), (0+1)/(2+2)
        data = _data([[0], [0]], [0, 0], (2,))
        model = DiagnosticClassifier(build_count_table(data, (0,)), UNIFORM)
        assert_allclose(model.predict([0]), [0.75, 0.25], atol=1e-12)

    def test_unseen_config_gives_prior_predictive(self):
        data = _data([[0]], [0], (2,))
        model = DiagnosticClassifier(build_count_table(data, (0,)), UNIFORM)
        assert_allclose(model.predict([1]), [0.5, 0.5], atol=1e-12)

    def test_row_mass_past_float_range_gives_uniform(self):
        # counts + 1e308 summed over two classes leaves float range; the
        # exact limit of every row, stored or unseen, is 1/r
        data = _data([[0], [0], [1]], [0, 1, 0], (3,))
        model = DiagnosticClassifier(build_count_table(data, (0,)), PriorSpec.uniform_cell(1e308))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for x in ([0], [1], [2]):
                assert np.array_equal(model.predict(x), np.full(2, 1 / 2))

    def test_balanced_counts_give_uniform(self):
        data = _data([[1], [1]], [0, 1], (2,))
        model = DiagnosticClassifier(build_count_table(data, (0,)), UNIFORM)
        assert_allclose(model.predict([1]), [0.5, 0.5], atol=1e-12)

    def test_appending_row_multiplies_score_by_prediction(self):
        # the one-step predictive is exactly the score ratio
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(1, 4))
            arities = tuple(int(a) for a in rng.integers(2, 4, size=n))
            r = int(rng.integers(2, 4))
            data = random_dataset(rng, int(rng.integers(0, 15)), arities, r)
            subset = tuple(i for i in range(n) if rng.random() < 0.6)
            prior = UNIFORM if rng.random() < 0.5 else ESS2
            x = [int(rng.integers(a)) for a in arities]
            k = int(rng.integers(r))
            model = DiagnosticClassifier(build_count_table(data, subset), prior)
            before = log_sml(model.table, prior)
            grown = Dataset(
                data.schema,
                np.vstack([data.rows, np.array(x, dtype=np.int64).reshape(1, n)]),
                np.append(data.labels, k),
            )
            after = log_sml(build_count_table(grown, subset), prior)
            assert_allclose(
                after - before, math.log(model.predict(x)[k]), atol=1e-10
            )


class TestMixture:
    def test_single_component_identity(self):
        data = _data([[0], [0]], [0, 0], (2,))
        model = build_omi(data, 1, UNIFORM)
        assert len(model.components) == 1
        assert_allclose(model.log_weights, [0.0], atol=1e-12)
        assert_allclose(model.predict([0]), model.components[0].predict([0]))

    def test_probability_space_average(self):
        # one config with counts [3, 1] and one with [4, 0]: under uniform:1
        # their SML is 1/20 and 1/5, so the weights are 0.2 and 0.8
        d1 = _data([[0], [0], [0], [0]], [0, 0, 0, 1], (2,))  # (3+1)/(4+2), (1+1)/(4+2)
        d2 = _data([[0], [0], [0], [0]], [0, 0, 0, 0], (2,))  # (4+1)/(4+2), (0+1)/(4+2)
        model = MixtureClassifier((build_count_table(d1, (0,)), build_count_table(d2, (0,))), UNIFORM)
        assert_allclose(np.exp(model.log_weights), [0.2, 0.8], atol=1e-12)
        expected = 0.2 * np.array([4 / 6, 2 / 6]) + 0.8 * np.array([5 / 6, 1 / 6])
        assert_allclose(expected, [0.8, 0.2], atol=1e-12)
        assert_allclose(model.predict([0]), expected, atol=1e-12)

    def test_weights_normalize(self):
        rng = np.random.default_rng(19)
        data = random_dataset(rng, 40, (2, 2, 3), 2)
        for model in (build_omi(data, 2, UNIFORM), build_omi(data, 1, ESS2)):
            assert abs(float(logsumexp(model.log_weights))) <= 1e-12

    def test_tables_of_unequal_class_arity_rejected(self):
        two = build_count_table(_data([[0]], [0], (2,)), (0,))
        three = build_count_table(_data([[0]], [2], (2,), r=3), (0,))
        with pytest.raises(ValueError, match="class arity"):
            MixtureClassifier((two, three), UNIFORM)

    def test_no_tables_rejected(self):
        with pytest.raises(ValueError, match="at least one table"):
            MixtureClassifier((), UNIFORM)

    def test_log_weights_are_read_only(self):
        rng = np.random.default_rng(20)
        model = build_omi(random_dataset(rng, 20, (2, 2), 2), 1, UNIFORM)
        with pytest.raises(ValueError, match="read-only"):
            model.log_weights[0] = 0.0

    def test_omi_component_count(self):
        rng = np.random.default_rng(21)
        data = random_dataset(rng, 20, (2, 2, 2, 2), 2)
        assert len(build_omi(data, 2, UNIFORM).components) == 6
        assert len(build_omi(data, 4, UNIFORM).components) == 1

    def test_omi_bad_size(self):
        rng = np.random.default_rng(22)
        data = random_dataset(rng, 10, (2, 2), 2)
        for bad in (0, 3):
            with pytest.raises(ConfigError):
                build_omi(data, bad, UNIFORM)

    def test_omi_enumeration_cap(self):
        rng = np.random.default_rng(23)
        data = random_dataset(rng, 10, (2,) * 12, 2)
        with pytest.raises(ConfigError, match="924"):
            build_omi(data, 6, UNIFORM, enumeration_cap=100)

    def test_pm_mixture_one_component_per_block(self):
        rng = np.random.default_rng(25)
        data = random_dataset(rng, 30, (2,) * 6, 2)
        model = build_pm_mixture([[0, 1, 2], [3, 4], [5]], data, UNIFORM)
        assert len(model.components) == 3
        assert {c.table.subset for c in model.components} == {(0, 1, 2), (3, 4), (5,)}

    def test_weight_shift_invariance(self):
        rng = np.random.default_rng(27)
        scores = -rng.exponential(20.0, size=5)
        w1 = scores - logsumexp(scores)
        w2 = (scores + 123.456) - logsumexp(scores + 123.456)
        assert_allclose(w1, w2, atol=1e-12)


class TestNaiveBayes:
    def test_counts(self):
        data = _data([[0, 1], [1, 1], [0, 0]], [0, 1, 0], (2, 2))
        model = build_nb(data, UNIFORM)
        assert model.class_counts.tolist() == [2, 1]
        assert model.tables[0].tolist() == [[2, 0], [0, 1]]
        assert model.tables[1].tolist() == [[1, 0], [1, 1]]
        # per-class column sums equal the class counts
        for t in model.tables:
            assert t.sum(axis=0).tolist() == [2, 1]

    def test_worked_example(self):
        # class counts [2,1]; predictor table [[2,0],[0,1]]; alpha=1; x=(0):
        # class 0: 3/5 * 3/4, class 1: 2/5 * 1/3 -> 27/35, 8/35
        data = _data([[0], [0], [1]], [0, 0, 1], (2,))
        model = build_nb(data, UNIFORM)
        assert_allclose(
            model.predict([0]),
            [0.7714285714285715, 0.2285714285714286],
            atol=1e-12,
        )

    def test_no_predictors_gives_smoothed_marginal(self):
        data = _data([[] for _ in range(3)], [0, 0, 1], ())
        model = build_nb(data, UNIFORM)
        assert_allclose(model.predict([]), [3 / 5, 2 / 5], atol=1e-12)

    def test_unseen_value_index_uses_zero_counts(self):
        data = _data([[0], [1]], [0, 1], (2,))
        model = build_nb(data, UNIFORM)
        p = model.predict([2])  # out-of-range sentinel
        _assert_distribution(p, 2)
        assert_allclose(p, [0.5, 0.5], atol=1e-12)

    def test_empty_training_rejected(self):
        data = _data([], [], (2,))
        with pytest.raises(DataError):
            build_nb(data, UNIFORM)

    def test_class_prior_mass_past_float_range(self):
        # r * a = 2e308 is inf: the class prior's denominator is taken in
        # logs, so the prediction is the uniform distribution, not nan
        data = _data([[0], [0], [1]], [0, 0, 1], (2,))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = build_nb(data, PriorSpec.uniform_cell(1e308)).predict([0])
        assert_allclose(p, [0.5, 0.5], rtol=1e-12)


class TestAnb:
    def test_all_singletons_equals_nb(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            n = int(rng.integers(1, 5))
            arities = tuple(int(a) for a in rng.integers(2, 4, size=n))
            r = int(rng.integers(2, 4))
            data = random_dataset(rng, int(rng.integers(1, 30)), arities, r)
            prior = UNIFORM if rng.random() < 0.5 else ESS2
            nb = build_nb(data, prior)
            anb = build_anb(singleton_partition(n), data, prior)
            for _ in range(5):
                x = [int(rng.integers(a)) for a in arities]
                assert_allclose(anb.predict(x), nb.predict(x), atol=1e-12)

    def test_single_block_matches_diagnostic_under_ess(self):
        # with one block holding everything, the class-prior mass and the
        # block's prior column mass cancel, leaving the diagnostic predictive
        rng = np.random.default_rng(37)
        for _ in range(40):
            n = int(rng.integers(1, 4))
            arities = tuple(int(a) for a in rng.integers(2, 4, size=n))
            r = int(rng.integers(2, 4))
            data = random_dataset(rng, int(rng.integers(1, 25)), arities, r)
            prior = PriorSpec.equivalent_sample_size(float(rng.uniform(0.5, 4.0)))
            anb = build_anb([list(range(n))], data, prior)
            diag = DiagnosticClassifier(
                build_count_table(data, tuple(range(n))), prior
            )
            for _ in range(5):
                x = [int(rng.integers(a)) for a in arities]
                assert_allclose(anb.predict(x), diag.predict(x), atol=1e-10)

    def test_unseen_block_config(self):
        data = _data([[0, 0], [0, 0]], [0, 1], (2, 2))
        model = build_anb([[0, 1]], data, UNIFORM)
        p = model.predict([1, 1])
        _assert_distribution(p, 2)

    def test_block_tables_follow_partition(self):
        rng = np.random.default_rng(41)
        data = random_dataset(rng, 25, (2,) * 6, 3)
        model = build_anb([[0, 1, 2], [3, 4], [5]], data, UNIFORM)
        assert tuple(t.subset for t in model.block_tables) == ((0, 1, 2), (3, 4), (5,))
        # per-block class sums equal the class counts
        for t in model.block_tables:
            assert t.counts.sum(axis=0).tolist() == model.class_counts.tolist()

    def test_bad_partition_rejected(self):
        data = _data([[0, 0]], [0], (2, 2))
        for bad in ([[0]], [[0, 1], [1]], [[0, 0, 1]]):
            with pytest.raises(ValueError):
                build_anb(bad, data, UNIFORM)

    def test_inconsistent_counts_rejected(self):
        data = _data([[0, 1], [1, 1], [0, 0]], [0, 1, 0], (2, 2))
        three = _data([[0, 1], [1, 1], [0, 0]], [0, 2, 0], (2, 2), r=3)
        model = build_anb([[0], [1]], data, UNIFORM)
        tables = model.block_tables
        ANBClassifier(data.schema, model.partition, model.class_counts, tables, UNIFORM)
        for counts, blocks in [
            (np.array([[2, 1]]), tables),
            (np.array([3]), tables),
            (np.array([4, -1]), tables),
            (model.class_counts, tables[:1]),
            (model.class_counts, tables[::-1]),
            (model.class_counts, (tables[0], build_count_table(three, (1,)))),
        ]:
            with pytest.raises(ValueError):
                ANBClassifier(data.schema, model.partition, counts, blocks, UNIFORM)


class TestSharedProperties:
    def _models(self, data, prior):
        n = data.schema.n_predictors
        return {
            "nb": build_nb(data, prior),
            "om1": build_omi(data, 1, prior),
            "anb": build_anb([list(range(n))], data, prior),
            "pm": build_pm_mixture(singleton_partition(n), data, prior),
        }

    def test_outputs_are_distributions(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            arities = tuple(int(a) for a in rng.integers(2, 4, size=n))
            r = int(rng.integers(2, 4))
            data = random_dataset(rng, int(rng.integers(1, 30)), arities, r)
            prior = UNIFORM if rng.random() < 0.5 else ESS2
            for model in self._models(data, prior).values():
                x = [int(rng.integers(a)) for a in arities]
                _assert_distribution(model.predict(x), r)

    def test_label_permutation_equivariance(self):
        rng = np.random.default_rng(47)
        for _ in range(15):
            n = int(rng.integers(1, 4))
            arities = tuple(int(a) for a in rng.integers(2, 4, size=n))
            r = int(rng.integers(2, 4))
            data = random_dataset(rng, int(rng.integers(2, 25)), arities, r)
            perm = rng.permutation(r)
            permuted = Dataset(data.schema, data.rows, perm[data.labels])
            prior = UNIFORM if rng.random() < 0.5 else ESS2
            originals = self._models(data, prior)
            relabeled = self._models(permuted, prior)
            for name in originals:
                x = [int(rng.integers(a)) for a in arities]
                p = originals[name].predict(x)
                q = relabeled[name].predict(x)
                assert_allclose(q[perm], p, atol=1e-12)


class TestStackedRows:
    """Every lookup of hand-made blocks against a linear search."""

    @staticmethod
    def _block(subset, configs, start):
        configs = np.array(configs, dtype=np.int64).reshape(len(configs), len(subset))
        rows = start + np.arange(2 * len(configs), dtype=float).reshape(len(configs), 2)
        return tuple(subset), configs, rows, np.array([-start, -start - 1.0])

    @staticmethod
    def _linear(blocks, x):
        out = []
        for subset, configs, rows, unseen in blocks:
            found = [i for i, c in enumerate(configs.tolist()) if c == [x[j] for j in subset]]
            out.append(rows[found[0]] if found else unseen)
        return np.array(out)

    def _check(self, blocks, values):
        stacked = _StackedRows(blocks)
        arrays = [a for a in vars(stacked).values() if isinstance(a, np.ndarray)]
        assert arrays and not any(a.flags.writeable for a in arrays)
        for x in itertools.product(*values):
            got, want = stacked.gather(list(x)), self._linear(blocks, x)
            assert got.shape == want.shape and (got == want).all(), x
        return stacked

    def test_lookups_equal_a_linear_search(self):
        blocks = [
            # the empty subset, as anb stacks its class prior: one stored key
            self._block((), [()], 10),
            # keys 0 and 1 adjacent, the first at the block's base; caps 3 and 4
            self._block((0, 1), [(0, 0), (0, 1), (1, 3), (2, 2)], 20),
            # every capped key but the last stored, so key + 1 is the cap digit
            self._block((2,), [(0,), (1,), (2,)], 30),
            # nothing stored: every digit reads the unseen row
            self._block((1,), [], 40),
        ]
        big = self._block((3, 4), [(0, 5), (2**40, 2**40)], 50)
        # digits below 0, at and above each cap, and int64 extremes
        values = [(-1, 0, 1, 2, 3, 4), (-1, 0, 1, 2, 3, 4, 5), (-(2**63), -1, 0, 1, 2, 3, 4),
                  (-1, 0, 1, 2**40, 2**40 + 1, 2**63 - 1), (-1, 0, 5, 2**40)]
        small = self._check(blocks, values)
        assert small._ends.dtype == np.uint64 and small._ends[-1] == 1 + 20 + 4 + 1
        # the big block carries the stacked key range past 2**64
        mixed = self._check([blocks[0], big, *blocks[1:]], values)
        assert mixed._ends.dtype == object and mixed._ends[-1] == 1 + (2**40 + 2) ** 2 + 25
