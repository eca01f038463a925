"""Repeated-split evaluation protocol and report assembly.

Each trial draws one seeded train/test split, trains every requested
classifier on the same training half, and records 0/1 loss and conditional
log loss on the held-out half. Reports carry the full resolved
configuration so a run can be reproduced byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from typing import Sequence

import numpy as np

from .classifiers import (
    build_anb,
    build_nb,
    build_omi,
    build_pm_mixture,
)
from .data import (
    Dataset,
    DatasetEncoder,
    RawTable,
    SplitPlan,
    derive_seed,
    fit_discretization,
    split_indices,
    take_rows,
)
from .errors import ConfigError, DataError
from .scoring import PriorSpec
from .search import SearchConfig, SearchResult, check_searchable, pm_search

FORMAT_VERSION = 1

_TRIAL_SEARCH_STREAM = 0x7A1C9E35

NB = "nb"
OMI = "omi"
PM = "pm"
ANB = "anb"


@dataclass(frozen=True)
class ClassifierSpec:
    """One classifier to evaluate: kind, prior, and search knobs where relevant."""

    kind: str
    prior: PriorSpec
    subset_size: int | None = None
    search: SearchConfig | None = None

    def __post_init__(self) -> None:
        if self.kind not in (NB, OMI, PM, ANB):
            raise ConfigError(f"unknown classifier kind {self.kind!r}")
        if self.kind == OMI:
            if self.subset_size is None or self.subset_size < 1:
                raise ConfigError("omi requires a subset size >= 1")
        elif self.subset_size is not None:
            raise ConfigError(f"{self.kind} takes no subset size")
        if self.kind in (PM, ANB) and self.search is None:
            raise ConfigError(f"{self.kind} requires a search config")

    @property
    def name(self) -> str:
        return f"om{self.subset_size}" if self.kind == OMI else self.kind

    def to_json_dict(self) -> dict:
        return {**asdict(self), "name": self.name}


def spec_from_token(
    token: str, prior: PriorSpec, search: SearchConfig
) -> ClassifierSpec:
    """Build a spec from a CLI token: nb, om<i>, pm, or anb."""
    token = token.strip().lower()
    if token == NB:
        return ClassifierSpec(NB, prior)
    if token == PM:
        return ClassifierSpec(PM, prior, search=search)
    if token == ANB:
        return ClassifierSpec(ANB, prior, search=search)
    if token.startswith("om") and token[2:].isascii() and token[2:].isdigit():
        return ClassifierSpec(OMI, prior, subset_size=int(token[2:]))
    raise ConfigError(f"unknown classifier token {token!r}")


def train_model(spec: ClassifierSpec, train: Dataset, search_result: SearchResult | None = None):
    """Train the model `spec` names on `train`.

    pm and anb use the best partition of `search_result`, or of a fresh
    `pm_search` with the spec's own search config when none is given.
    """
    if spec.kind == NB:
        return build_nb(train, spec.prior)
    if spec.kind == OMI:
        return build_omi(train, spec.subset_size, spec.prior)
    if search_result is None:
        search_result = pm_search(train, spec.prior, spec.search)
    build = build_pm_mixture if spec.kind == PM else build_anb
    return build(search_result.best_partition, train, spec.prior)


def _aligned(predictions, truth) -> tuple[np.ndarray, np.ndarray]:
    """Predictions as an (n, r) float array and truth as n class indices."""
    truth = np.asarray(truth, dtype=np.intp)
    if len(predictions) != len(truth) or len(truth) == 0:
        raise ValueError("predictions and truth must be nonempty and aligned")
    return np.asarray(predictions, dtype=float), truth


def zero_one_loss(predictions: np.ndarray | Sequence[np.ndarray], truth: Sequence[int]) -> float:
    """Fraction misclassified; argmax ties resolve to the smallest class index.

    ``predictions`` is an (n, r) array, or n distributions of length r.
    """
    predictions, truth = _aligned(predictions, truth)
    wrong = np.count_nonzero(predictions.argmax(axis=1) != truth)
    return wrong / len(truth)


def log_loss(predictions: np.ndarray | Sequence[np.ndarray], truth: Sequence[int]) -> float:
    """Mean negative log probability assigned to the true label.

    ``predictions`` as for `zero_one_loss`. The logs are `math.log`s,
    subtracted in row order.
    """
    predictions, truth = _aligned(predictions, truth)
    at_truth = predictions[np.arange(len(truth)), truth]
    if (at_truth <= 0.0).any():
        raise ValueError("zero probability at the true label")
    total = 0.0
    for p in at_truth.tolist():
        total -= math.log(p)
    return total / len(truth)


@dataclass
class TrialResult:
    trial_index: int
    train_digest: str
    n_train: int
    n_test: int
    metrics: dict[str, dict[str, float]]
    partitions: dict[str, list[list[int]]] = field(default_factory=dict)

    # by hand: `asdict` would deep-copy every trial's metrics and partitions
    def to_json_dict(self) -> dict:
        return {
            "trial_index": self.trial_index,
            "train_digest": self.train_digest,
            "n_train": self.n_train,
            "n_test": self.n_test,
            "metrics": self.metrics,
            "partitions": self.partitions,
        }


@dataclass
class EvalReport:
    format_version: int
    config: dict
    trials: list[TrialResult]
    means: dict[str, dict[str, float]]
    gains_vs_nb: dict | None

    # by hand, as `TrialResult`: `asdict` would deep-copy the whole report
    def to_json_dict(self) -> dict:
        return {
            "format_version": self.format_version,
            "config": self.config,
            "trials": [t.to_json_dict() for t in self.trials],
            "means": self.means,
            "gains_vs_nb": self.gains_vs_nb,
        }


def _evaluate(model, rows: np.ndarray, labels: np.ndarray, what: str) -> tuple[float, float]:
    preds = np.array(list(map(model.predict, rows)))
    if not (preds[np.arange(len(labels)), labels] > 0).all():
        raise ConfigError(f"{what} gives a true label probability 0, so its log loss is infinite")
    return zero_one_loss(preds, labels), log_loss(preds, labels)


def run_trials(
    data: Dataset,
    specs: Sequence[ClassifierSpec],
    trials: int = 50,
    train_fraction: float = 0.75,
    master_seed: int = 1,
    *,
    raw: RawTable | None = None,
    bins: int = 3,
) -> EvalReport:
    """Run the repeated-split protocol over every spec.

    Within a trial all classifiers share the identical split. With ``raw``
    given, the predictor encoding (cut points and category levels) is refit
    on each trial's training half instead of reusing the global encoding;
    the class value order always comes from ``data``.
    """
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    specs = list(specs)
    names = [s.name for s in specs]
    if len(set(names)) != len(names):
        raise ConfigError("classifier names must be distinct")
    if raw is not None and raw.n_rows != data.n_rows:
        raise DataError("raw table and encoded dataset disagree on row count")
    if any(s.kind in (PM, ANB) for s in specs):
        check_searchable(data)

    class_values = None
    if raw is not None:
        class_values = tuple(dict.fromkeys(raw.class_column.levels))

    trial_results: list[TrialResult] = []
    for t in range(trials):
        plan = SplitPlan(train_fraction, master_seed, t)
        train_idx, test_idx = split_indices(data.n_rows, plan)
        if len(test_idx) == 0:
            raise DataError("degenerate split: empty test set")

        schema, rows = data.schema, data.rows
        if raw is not None:
            raw_train = raw.select(train_idx.tolist())
            encoder = DatasetEncoder.fit(
                raw_train, fit_discretization(raw_train, bins), class_values
            )
            schema, rows = encoder.schema(), encoder.encode_predictor_rows(raw)
        train = Dataset(schema, take_rows(rows, train_idx), data.labels[train_idx])
        test_rows, test_labels = rows[test_idx], data.labels[test_idx]

        metrics: dict[str, dict[str, float]] = {}
        partitions: dict[str, list[list[int]]] = {}
        search_cache: dict = {}
        for spec in specs:
            result = None
            if spec.kind in (PM, ANB):
                # per-trial salt keeps search streams independent across trials
                # while remaining a pure function of the configured seed
                key = (spec.search, spec.prior)
                result = search_cache.get(key)
                if result is None:
                    trial_cfg = replace(
                        spec.search, seed=derive_seed(spec.search.seed, _TRIAL_SEARCH_STREAM, t)
                    )
                    result = search_cache[key] = pm_search(train, spec.prior, trial_cfg)
                partitions[spec.name] = [list(b) for b in result.best_partition]
            model = train_model(spec, train, result)
            zo, ll = _evaluate(model, test_rows, test_labels, f"{spec.name} in trial {t}")
            metrics[spec.name] = {"zero_one_loss": zo, "log_loss": ll}
        trial_results.append(
            TrialResult(t, train.digest(), train.n_rows, len(test_idx), metrics, partitions)
        )

    means = {
        name: {
            loss: sum(tr.metrics[name][loss] for tr in trial_results) / trials
            for loss in ("zero_one_loss", "log_loss")
        }
        for name in names
    }

    config = {
        "dataset_digest": data.digest(),
        "n_rows": data.n_rows,
        "n_predictors": data.schema.n_predictors,
        "class_arity": data.schema.class_arity,
        "trials": trials,
        "train_fraction": train_fraction,
        "master_seed": master_seed,
        "rediscretize_per_trial": raw is not None,
        "bins": bins,
        "classifiers": [s.to_json_dict() for s in specs],
    }
    report = EvalReport(FORMAT_VERSION, config, trial_results, means, None)
    if NB in names:
        report.gains_vs_nb = gains_vs_nb(report)
    return report


def gains_vs_nb(report: EvalReport) -> dict:
    """Per-classifier gain over naive Bayes, as difference and as ratio.

    Difference is NB loss minus the classifier's loss (positive means
    better than NB); ratio is classifier loss over NB loss, "undefined"
    whenever the NB loss is zero.
    """
    if NB not in report.means:
        raise ConfigError("gains require naive Bayes among the evaluated classifiers")
    nb_means = report.means[NB]
    gains: dict[str, dict[str, dict]] = {}
    for name, losses in report.means.items():
        gains[name] = {}
        for loss, value in losses.items():
            nb_value = nb_means[loss]
            gains[name][loss] = {
                "difference": nb_value - value,
                "ratio": value / nb_value if nb_value > 0 else "undefined",
            }
    return gains
