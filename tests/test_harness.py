"""Losses, the repeated-split protocol, and report assembly."""

import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import random_dataset
from smlbayes import (
    ClassifierSpec,
    ConfigError,
    DataError,
    Dataset,
    PriorSpec,
    Schema,
    SearchConfig,
    gains_vs_nb,
    load_csv,
    log_loss,
    run_trials,
    zero_one_loss,
)
from smlbayes import classifiers, search
from smlbayes.data import DatasetEncoder, fit_discretization
from smlbayes.harness import EvalReport, spec_from_token

UNIFORM = PriorSpec.uniform_cell(1.0)
SEARCH = SearchConfig(restarts=3, patience=30, seed=5)


def _dist(*ps):
    return np.array(ps, dtype=float)


class TestLosses:
    def test_zero_one_uses_argmax(self):
        preds = [_dist(0.9, 0.1), _dist(0.2, 0.8), _dist(0.6, 0.4)]
        assert zero_one_loss(preds, [0, 1, 1]) == pytest.approx(1 / 3)

    def test_zero_one_tie_breaks_to_smallest_index(self):
        preds = [_dist(0.5, 0.5)]
        assert zero_one_loss(preds, [0]) == 0.0
        assert zero_one_loss(preds, [1]) == 1.0

    def test_log_loss_mean_of_negative_logs(self):
        preds = [_dist(0.5, 0.5), _dist(0.25, 0.75)]
        # -(ln .5 + ln .75)/2
        expected = -(math.log(0.5) + math.log(0.75)) / 2
        assert log_loss(preds, [0, 1]) == pytest.approx(expected, abs=1e-12)

    def test_log_loss_on_certain_predictions_is_zero(self):
        assert log_loss([_dist(1.0, 0.0)], [0]) == 0.0

    def test_zero_probability_at_truth_is_a_defect(self):
        with pytest.raises(ValueError, match="zero probability"):
            log_loss([_dist(1.0, 0.0)], [1])

    def test_misaligned_inputs(self):
        with pytest.raises(ValueError):
            zero_one_loss([_dist(1.0, 0.0)], [0, 1])
        with pytest.raises(ValueError):
            log_loss([], [])


class TestSpecParsing:
    def test_tokens(self):
        assert spec_from_token("nb", UNIFORM, SEARCH).name == "nb"
        om3 = spec_from_token("om3", UNIFORM, SEARCH)
        assert om3.kind == "omi" and om3.subset_size == 3 and om3.name == "om3"
        assert spec_from_token("pm", UNIFORM, SEARCH).search == SEARCH
        assert spec_from_token("anb", UNIFORM, SEARCH).kind == "anb"

    def test_bad_tokens(self):
        for bad in ("om", "omx", "nbx", "", "om-1"):
            with pytest.raises(ConfigError):
                spec_from_token(bad, UNIFORM, SEARCH)

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            ClassifierSpec("pm", UNIFORM)  # search config missing
        with pytest.raises(ConfigError):
            ClassifierSpec("omi", UNIFORM)  # subset size missing
        with pytest.raises(ConfigError):
            ClassifierSpec("nb", UNIFORM, subset_size=2)


def _separable_data(n_rows=40):
    """x0 fully determines the label."""
    rng = np.random.default_rng(2)
    rows = rng.integers(2, size=(n_rows, 2))
    labels = rows[:, 0].copy()
    schema = Schema(("x0", "x1"), (2, 2), "y", 2)
    return Dataset(schema, rows, labels)


class TestRunTrials:
    def test_separable_data_scores_near_zero(self):
        report = run_trials(
            _separable_data(),
            [ClassifierSpec("nb", UNIFORM)],
            trials=5,
            master_seed=3,
        )
        assert report.means["nb"]["zero_one_loss"] == 0.0
        assert 0 < report.means["nb"]["log_loss"] < 0.5

    def test_deterministic_reports(self):
        specs = [
            ClassifierSpec("nb", UNIFORM),
            ClassifierSpec("omi", UNIFORM, subset_size=1),
            ClassifierSpec("pm", UNIFORM, search=SEARCH),
            ClassifierSpec("anb", UNIFORM, search=SEARCH),
        ]
        rng = np.random.default_rng(7)
        data = random_dataset(rng, 30, (2, 3, 2), 2)
        a = run_trials(data, specs, trials=3, master_seed=11)
        b = run_trials(data, specs, trials=3, master_seed=11)
        assert json.dumps(a.to_json_dict(), sort_keys=True) == json.dumps(
            b.to_json_dict(), sort_keys=True
        )

    def test_seed_changes_splits(self):
        data = _separable_data()
        a = run_trials(data, [ClassifierSpec("nb", UNIFORM)], trials=3, master_seed=1)
        b = run_trials(data, [ClassifierSpec("nb", UNIFORM)], trials=3, master_seed=2)
        assert [t.train_digest for t in a.trials] != [t.train_digest for t in b.trials]

    def test_means_are_arithmetic_means(self):
        data = _separable_data()
        report = run_trials(
            data, [ClassifierSpec("nb", UNIFORM)], trials=4, master_seed=9
        )
        for loss in ("zero_one_loss", "log_loss"):
            values = [t.metrics["nb"][loss] for t in report.trials]
            assert report.means["nb"][loss] == pytest.approx(sum(values) / 4, abs=1e-15)

    def test_partitions_recorded_for_searched_classifiers(self):
        rng = np.random.default_rng(13)
        data = random_dataset(rng, 25, (2, 2, 2), 2)
        specs = [
            ClassifierSpec("nb", UNIFORM),
            ClassifierSpec("pm", UNIFORM, search=SEARCH),
            ClassifierSpec("anb", UNIFORM, search=SEARCH),
        ]
        report = run_trials(data, specs, trials=2, master_seed=5)
        for trial in report.trials:
            assert set(trial.partitions) == {"pm", "anb"}
            # same search config and prior -> the search is shared
            assert trial.partitions["pm"] == trial.partitions["anb"]
            assert "nb" not in trial.partitions

    def test_gains_included_with_nb_present(self):
        data = _separable_data()
        specs = [
            ClassifierSpec("nb", UNIFORM),
            ClassifierSpec("omi", UNIFORM, subset_size=1),
        ]
        report = run_trials(data, specs, trials=2, master_seed=5)
        assert report.gains_vs_nb is not None
        assert set(report.gains_vs_nb) == {"nb", "om1"}

    def test_gains_absent_without_nb(self):
        data = _separable_data()
        report = run_trials(
            data, [ClassifierSpec("omi", UNIFORM, subset_size=1)], trials=2, master_seed=5
        )
        assert report.gains_vs_nb is None

    def test_duplicate_names_rejected(self):
        data = _separable_data()
        with pytest.raises(ConfigError):
            run_trials(
                data,
                [ClassifierSpec("nb", UNIFORM), ClassifierSpec("nb", UNIFORM)],
                trials=1,
            )

    def test_degenerate_split_rejected(self):
        schema = Schema(("x0",), (2,), "y", 2)
        data = Dataset(schema, np.array([[0], [1]]), np.array([0, 1]))
        with pytest.raises(DataError, match="empty test"):
            run_trials(data, [ClassifierSpec("nb", UNIFORM)], trials=1, train_fraction=0.75)

    @pytest.mark.parametrize("kind", ["pm", "anb"])
    def test_search_without_predictors_raises_before_splitting(self, kind):
        # 3 rows at 0.75 put every row in the training half, so a split
        # would end in DataError; the search check comes first
        data = Dataset(Schema((), (), "y", 2), np.zeros((3, 0)), np.array([0, 1, 0]))
        with pytest.raises(DataError, match="empty test"):
            run_trials(data, [ClassifierSpec("nb", UNIFORM)], trials=1, train_fraction=0.75)
        specs = [ClassifierSpec("nb", UNIFORM), ClassifierSpec(kind, UNIFORM, search=SEARCH)]
        with pytest.raises(ConfigError, match="^search needs at least one predictor column$"):
            run_trials(data, specs, trials=1, train_fraction=0.75)

    def test_per_trial_rediscretization(self):
        text = "a,cls\n" + "\n".join(
            f"{v},{'p' if v > 10 else 'q'}" for v in range(1, 22)
        )
        raw = load_csv(text.encode(), "cls")
        enc = DatasetEncoder.fit(raw, fit_discretization(raw, 3))
        data = enc.encode_table(raw)
        report = run_trials(
            data,
            [ClassifierSpec("nb", UNIFORM)],
            trials=3,
            master_seed=4,
            raw=raw,
            bins=3,
        )
        assert report.config["rediscretize_per_trial"] is True
        for trial in report.trials:
            assert math.isfinite(trial.metrics["nb"]["log_loss"])

    def test_losses_all_finite_and_in_range(self):
        rng = np.random.default_rng(17)
        data = random_dataset(rng, 40, (2, 3), 3)
        specs = [
            ClassifierSpec("nb", UNIFORM),
            ClassifierSpec("omi", PriorSpec.equivalent_sample_size(1.0), subset_size=2),
            ClassifierSpec("pm", UNIFORM, search=SEARCH),
        ]
        report = run_trials(data, specs, trials=4, master_seed=21)
        for trial in report.trials:
            for stats in trial.metrics.values():
                assert 0.0 <= stats["zero_one_loss"] <= 1.0
                assert math.isfinite(stats["log_loss"]) and stats["log_loss"] >= 0.0


class TestGains:
    def _report(self, means):
        return EvalReport(1, {}, [], means, None)

    def test_nb_self_gain(self):
        report = self._report(
            {"nb": {"zero_one_loss": 0.4, "log_loss": 0.7}}
        )
        gains = gains_vs_nb(report)
        assert gains["nb"]["zero_one_loss"] == {"difference": 0.0, "ratio": 1.0}

    def test_difference_and_ratio(self):
        report = self._report(
            {
                "nb": {"zero_one_loss": 0.4, "log_loss": 0.8},
                "pm": {"zero_one_loss": 0.3, "log_loss": 0.4},
            }
        )
        gains = gains_vs_nb(report)
        assert gains["pm"]["zero_one_loss"]["difference"] == pytest.approx(0.1)
        assert gains["pm"]["zero_one_loss"]["ratio"] == pytest.approx(0.75)
        assert gains["pm"]["log_loss"]["ratio"] == pytest.approx(0.5)

    def test_zero_nb_loss_makes_ratio_undefined(self):
        report = self._report(
            {
                "nb": {"zero_one_loss": 0.0, "log_loss": 0.5},
                "pm": {"zero_one_loss": 0.1, "log_loss": 0.25},
            }
        )
        gains = gains_vs_nb(report)
        assert gains["pm"]["zero_one_loss"]["ratio"] == "undefined"
        assert gains["pm"]["zero_one_loss"]["difference"] == pytest.approx(-0.1)
        assert gains["pm"]["log_loss"]["ratio"] == pytest.approx(0.5)

    def test_requires_nb(self):
        report = self._report({"pm": {"zero_one_loss": 0.1, "log_loss": 0.2}})
        with pytest.raises(ConfigError):
            gains_vs_nb(report)


def test_a_trial_builds_each_count_table_once(monkeypatch):
    """nb, om2, pm and anb on noisy xor data: the model builders build each
    subset of a trial's training half at most once, and the search, which
    runs after nb and om2, builds none of the subsets they already hold."""
    rng = np.random.default_rng(3)
    rows = rng.integers(0, 2, size=(160, 4))
    labels = (rows[:, 0] ^ rows[:, 1]) ^ (rng.random(160) < 0.05)
    data = Dataset(Schema(("a", "b", "c", "d"), (2, 2, 2, 2), "y", 2), rows, labels)
    builds = []  # (training set, subset, builder module); holding the set keeps its id unique
    for module in (classifiers, search):
        def counted(train, subset, _build=module.build_count_table, _who=module.__name__):
            builds.append((train, tuple(subset), _who))
            return _build(train, subset)
        monkeypatch.setattr(module, "build_count_table", counted)
    specs = [spec_from_token(t, UNIFORM, SEARCH) for t in ("nb", "om2", "pm", "anb")]
    run_trials(data, specs, trials=4)

    trains = {id(train) for train, _, _ in builds}
    assert len(trains) == 4
    held = set()
    for train, subset, who in builds:
        key = (id(train), subset)
        if who == "smlbayes.classifiers":
            assert key not in held, f"{subset} built twice for one training set"
            held.add(key)
        else:
            assert key not in held, f"the search rebuilt {subset}, which a model holds"
    # every trial built nb's 4 singletons and om2's 6 pairs, and the search
    # scored the 5 larger subsets itself
    assert len(held) >= 4 * 10
    assert sum(who == "smlbayes.search" for _, _, who in builds) >= 4 * 5
