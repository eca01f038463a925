"""Model persistence: JSON files holding counts, never probabilities.

Storing raw counts plus the prior spec lets a loaded model reproduce its
predictions exactly; a mixture's weights follow from its stored tables
and prior, so they are never stored.
"""

from __future__ import annotations

import json
import math
import operator
from pathlib import Path

import numpy as np

from .classifiers import (
    ANBClassifier,
    DiagnosticClassifier,
    MixtureClassifier,
    NBClassifier,
)
from .data import DatasetEncoder, Schema
from .errors import ConfigError, DataError
from .scoring import CountTable, PriorSpec, check_subset, int_array
from .search import singleton_partition, validate_partition

FORMAT_VERSION = 1


def model_to_json_dict(model, encoder: DatasetEncoder) -> dict:
    """The model file dictionary."""
    base = {
        "format_version": FORMAT_VERSION,
        "encoder": encoder.to_json_dict(),
        "prior": model.prior.to_json_dict(),
    }
    if isinstance(model, NBClassifier):
        base.update(
            kind="nb",
            schema=model.schema.to_json_dict(),
            class_counts=model.class_counts.tolist(),
            tables=[t.tolist() for t in model.tables],
        )
    elif isinstance(model, ANBClassifier):
        base.update(
            kind="anb",
            schema=model.schema.to_json_dict(),
            partition=[list(b) for b in model.partition],
            class_counts=model.class_counts.tolist(),
            block_tables=[t.to_json_dict() for t in model.block_tables],
        )
    elif isinstance(model, MixtureClassifier):
        base.update(kind="mixture", tables=[t.to_json_dict() for t in model.tables])
    elif isinstance(model, DiagnosticClassifier):
        base.update(kind="diagnostic", table=model.table.to_json_dict())
    else:
        raise TypeError(f"cannot serialize {type(model).__name__}")
    return base


def _singleton_table(i: int, dense: list, class_arity: int) -> CountTable:
    """The count table of predictor i from its dense (value x class) counts,
    keeping the values that occur."""
    dense = int_array(dense)
    if dense.ndim != 2:
        raise ValueError(f"table {i} must be a (value x class) matrix")
    seen = dense.any(axis=1)
    q = len(dense)
    counts = dense[seen]
    return CountTable(
        (i,), np.flatnonzero(seen)[:, None], counts, int(counts.sum()), class_arity, q, math.log(q)
    )


def _checked(tables, schema: Schema):
    """`tables`, each checked against `schema`: subset, configurations (strictly
    increasing, each value within its arity), q, log q and class arity."""
    for t in tables:
        name = f"table over {list(t.subset)}"
        arities = [schema.predictor_arities[i] for i in check_subset(t.subset, schema.n_predictors)]
        configs = t.config_array
        if configs.size and (configs.min() < 0 or (configs >= arities).any()):
            raise ValueError(f"{name} stores a value outside its predictor's arity")
        rows = configs.tolist()
        if any(a >= b for a, b in zip(rows, rows[1:])):
            raise ValueError(f"{name} stores configurations out of order or twice")
        if t.q != math.prod(arities) or t.log_q != float(sum(math.log(a) for a in arities)):
            raise ValueError(f"{name} gives q or log q other than its configuration space's")
        if t.class_arity != schema.class_arity:
            raise ValueError(f"{name} has {t.class_arity} classes, not {schema.class_arity}")
    return tables


def model_from_json_dict(d: dict):
    """Rebuild (model, encoder) from a model file dictionary."""
    version = d.get("format_version")
    if type(version) is not int:  # true equals 1, but is no version
        raise TypeError(f"format_version must be an integer, not {type(version).__name__}")
    if version != FORMAT_VERSION:
        raise DataError(f"unsupported model format version {version!r}")
    encoder = DatasetEncoder.from_json_dict(d["encoder"])
    schema = encoder.schema()
    prior = PriorSpec.from_json_dict(d["prior"])
    kind = d["kind"]
    if kind in ("nb", "anb"):
        if Schema.from_json_dict(d["schema"]) != schema:
            raise ValueError("model schema disagrees with its encoder")
        class_counts = int_array(d["class_counts"])
        if kind == "nb":
            cls, partition = NBClassifier, singleton_partition(schema.n_predictors)
            tables = tuple(_singleton_table(i, t, schema.class_arity) for i, t in enumerate(d["tables"]))
        else:
            members = [list(map(operator.index, b)) for b in d["partition"]]
            cls, partition = ANBClassifier, validate_partition(members, schema.n_predictors)
            tables = tuple(CountTable.from_json_dict(t) for t in d["block_tables"])
        model = cls(schema, partition, class_counts, _checked(tables, schema), prior)
    elif kind == "mixture":
        model = MixtureClassifier(_checked([CountTable.from_json_dict(t) for t in d["tables"]], schema), prior)
    elif kind == "diagnostic":
        model = DiagnosticClassifier(*_checked([CountTable.from_json_dict(d["table"])], schema), prior)
    else:
        raise DataError(f"unknown model kind {kind!r}")
    return model, encoder


def save_model(model, encoder: DatasetEncoder, path: str | Path) -> None:
    payload = json.dumps(model_to_json_dict(model, encoder), sort_keys=True, indent=2)
    Path(path).write_text(payload + "\n", encoding="utf-8")


def load_model(path: str | Path):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read model file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"cannot read model file {path}: not valid UTF-8 ({exc.reason})") from None
    try:
        return model_from_json_dict(json.loads(text))
    except (KeyError, ValueError, TypeError, AttributeError, OverflowError, RecursionError,
            ConfigError) as exc:
        # a field of the wrong type (null, a list for an object) surfaces as
        # TypeError or AttributeError inside the rebuild, an integer past int64
        # as OverflowError, a prior the tables cannot be scored under as
        # ConfigError, and JSON nested past the parser's depth as RecursionError
        raise DataError(f"malformed model file {path}: {exc}") from exc
