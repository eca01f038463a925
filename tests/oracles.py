"""Hand-rolled reference implementations the suite checks the library against.

Nothing here calls into the library's scoring internals: the sequential
oracle only uses the posterior-predictive definition, the dense oracle only
the closed form over the full configuration space.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from smlbayes import Dataset, PriorSpec, Schema
from smlbayes.scoring import UNIFORM_CELL


def cell_prior_value(prior: PriorSpec, q: int, r: int) -> float:
    if prior.kind == UNIFORM_CELL:
        return prior.strength
    return prior.strength / (q * r)


def sequential_log_prob(rows, labels, subset, arities, r, prior: PriorSpec) -> float:
    """Chain rule: each label scored by the posterior predictive of the counts
    accumulated over the earlier rows only."""
    q = 1
    for i in subset:
        q *= arities[i]
    a = cell_prior_value(prior, q, r)
    seen: dict[tuple, list[int]] = {}
    total = 0.0
    for row, y in zip(rows, labels):
        config = tuple(row[i] for i in subset)
        counts = seen.setdefault(config, [0] * r)
        total += math.log((counts[y] + a) / (sum(counts) + r * a))
        counts[y] += 1
    return total


def dense_log_sml(rows, labels, subset, arities, r, prior: PriorSpec) -> float:
    """Closed form summed over the FULL configuration space, zero-count cells
    included; feasible only for small q."""
    q = 1
    for i in subset:
        q *= arities[i]
    a = cell_prior_value(prior, q, r)
    counts = {
        config: [0] * r
        for config in itertools.product(*[range(arities[i]) for i in subset])
    }
    for row, y in zip(rows, labels):
        counts[tuple(row[i] for i in subset)][y] += 1
    total = 0.0
    for vec in counts.values():
        total += math.lgamma(r * a) - math.lgamma(r * a + sum(vec))
        for c in vec:
            total += math.lgamma(a + c) - math.lgamma(a)
    return total


def dirichlet_multinomial_log_evidence(label_counts, a: float) -> float:
    """Log evidence of a bare label sequence under a symmetric Dirichlet."""
    r = len(label_counts)
    n = sum(label_counts)
    total = math.lgamma(r * a) - math.lgamma(r * a + n)
    for c in label_counts:
        total += math.lgamma(a + c) - math.lgamma(a)
    return total


def set_partitions(items: list):
    """Every partition of `items` into nonempty blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def random_dataset(
    rng: np.random.Generator,
    n_rows: int,
    arities: tuple[int, ...],
    class_arity: int,
) -> Dataset:
    schema = Schema(
        tuple(f"x{i}" for i in range(len(arities))),
        tuple(arities),
        "y",
        class_arity,
    )
    if arities:
        rows = np.column_stack([rng.integers(a, size=n_rows) for a in arities])
    else:
        rows = np.zeros((n_rows, 0), dtype=np.int64)
    labels = rng.integers(class_arity, size=n_rows)
    return Dataset(schema, rows, labels)


def dict_count_table(data: Dataset, subset) -> tuple[tuple, list]:
    """(configs, counts) of the observed configurations of `subset`, tallied
    row by row in a dict and sorted as tuples."""
    acc: dict[tuple, list[int]] = {}
    for row, y in zip(data.rows.tolist(), data.labels.tolist()):
        config = tuple(row[i] for i in subset)
        acc.setdefault(config, [0] * data.schema.class_arity)[y] += 1
    configs = tuple(sorted(acc))
    return configs, [acc[c] for c in configs]
