"""Hand-rolled reference implementations the suite checks the library against.

Nothing here calls into the library's scoring internals: the sequential
oracle only uses the posterior-predictive definition, the dense oracle only
the closed form over the full configuration space. The predict oracles
score one row at a time from a model's raw counts and its prior, with the
same floating-point operations in the same order as the compiled lookup
tables, so their results must agree bit for bit; so must the direct SML
closed form and the score kernel's gathered lookup tables. The move
oracle enumerates every operand of every move kind on each call, drawing
from the generator exactly as the memoized move tables must.
"""

from __future__ import annotations

import csv
import itertools
import math
from array import array
from bisect import bisect_left
from typing import Iterator

import numpy as np

from smlbayes import DataError, Dataset, DatasetEncoder, DiscretizationSpec, PriorSpec, Schema
from smlbayes.data import CATEGORICAL, NUMERIC, RawColumn, RawTable, read_text
from smlbayes.scoring import UNIFORM_CELL
from smlbayes.search import canonical_partition


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


def categorical_encoder(schema: Schema) -> DatasetEncoder:
    """An encoder whose level names are the codes of `schema` as strings."""
    names = schema.predictor_names
    return DatasetEncoder(
        names,
        ("categorical",) * len(names),
        DiscretizationSpec({}, 3),
        {name: tuple(str(v) for v in range(a)) for name, a in zip(names, schema.predictor_arities)},
        schema.class_name,
        tuple(f"c{k}" for k in range(schema.class_arity)),
    )


def dict_count_table(data: Dataset, subset) -> tuple[tuple, list]:
    """(configs, counts) of the observed configurations of `subset`, tallied
    row by row in a dict and sorted as tuples."""
    acc: dict[tuple, list[int]] = {}
    for row, y in zip(data.rows.tolist(), data.labels.tolist()):
        config = tuple(row[i] for i in subset)
        acc.setdefault(config, [0] * data.schema.class_arity)[y] += 1
    configs = tuple(sorted(acc))
    return configs, [acc[c] for c in configs]


def log_sml_direct(table, prior: PriorSpec) -> float:
    """The closed form of the SML score with one lgamma call per term, for a
    nonempty table whose prior cell mass is a positive float."""
    gammaln = np.vectorize(math.lgamma, otypes=[float])
    r = table.class_arity
    a_cell = prior.cell_prior(table.q, table.log_q, r)[0]
    a_row = a_cell * r
    row_part = gammaln(a_row) - gammaln(a_row + table.counts.sum(axis=1))
    cell_part = gammaln(table.counts + a_cell) - gammaln(a_cell)
    return float(row_part.sum() + cell_part.sum())


def config_tuples(table) -> tuple[tuple[int, ...], ...]:
    """A CountTable's stored configurations as a tuple of int tuples."""
    return tuple(map(tuple, table.config_array.tolist()))


# prior cell mass that underflowed float range is floored to this
_CELL_FLOOR = np.finfo(float).tiny


def _stored_counts(table, config):
    """The count row of `config` in a CountTable, or None; a linear scan."""
    for stored, counts in zip(table.config_array.tolist(), table.counts):
        if tuple(stored) == config:
            return counts
    return None


def diag_predict_oracle(model, x) -> np.ndarray:
    """(count + prior cell) / (config total + prior row mass); the prior
    predictive for a configuration never seen in training."""
    table = model.table
    r = table.class_arity
    a_cell = max(model.prior.cell_prior(table.q, table.log_q, r)[0], _CELL_FLOOR)
    counts = _stored_counts(table, tuple(int(x[i]) for i in table.subset))
    numer = np.full(r, a_cell) if counts is None else counts + a_cell
    return numer / numer.sum()


def mixture_predict_oracle(model, x) -> np.ndarray:
    preds = np.stack([diag_predict_oracle(c, x) for c in model.components])
    out = np.exp(model.log_weights) @ preds
    return out / out.sum()


def _cond_log_column(value_counts, class_counts, prior: PriorSpec, q: int, log_q: float):
    cell, _, mass, log_mass = prior.attribute_smoothing(q, log_q, len(class_counts))
    numer = np.log(value_counts + max(cell, _CELL_FLOOR))
    if math.isfinite(mass):
        return numer - np.log(class_counts + mass)
    with np.errstate(divide="ignore"):
        return numer - np.logaddexp(np.log(class_counts), log_mass)


def _naive_bayes(class_counts, prior: PriorSpec, factors) -> np.ndarray:
    """Softmax of the smoothed log class prior plus each (counts, q, log q)
    factor's log column, added one at a time."""
    r = len(class_counts)
    a = prior.cell_prior(1, 0.0, r)[0]
    log_scores = np.log(class_counts + a) - math.log(float(class_counts.sum()) + r * a)
    for counts, q, log_q in factors:
        log_scores = log_scores + _cond_log_column(counts, class_counts, prior, q, log_q)
    p = np.exp(log_scores - log_scores.max())
    return p / p.sum()


def nb_predict_oracle(model, x) -> np.ndarray:
    """A value outside its table (an unseen level) has zero counts."""
    r = model.schema.class_arity
    factors = []
    for i, table in enumerate(model.tables):
        arity = table.shape[0]
        v = int(x[i])
        counts = table[v] if 0 <= v < arity else np.zeros(r, dtype=np.int64)
        factors.append((counts, arity, math.log(arity)))
    return _naive_bayes(model.class_counts, model.prior, factors)


def anb_predict_oracle(model, x) -> np.ndarray:
    r = model.schema.class_arity
    factors = []
    for table in model.block_tables:
        counts = _stored_counts(table, tuple(int(x[i]) for i in table.subset))
        if counts is None:
            counts = np.zeros(r, dtype=np.int64)
        factors.append((counts, table.q, table.log_q))
    return _naive_bayes(model.class_counts, model.prior, factors)


def propose_move_oracle(partition, rng: np.random.Generator, max_block_size: int | None = None):
    """Draw one neighboring partition, enumerating every move afresh."""
    n = sum(len(b) for b in partition)
    if n < 2:
        raise ValueError("no moves exist for fewer than 2 predictors")
    cap = n if max_block_size is None else max_block_size
    blocks = [list(b) for b in partition]

    relocations = [
        (bi, v, ti)
        for bi, b in enumerate(blocks)
        for v in b
        for ti, t in enumerate(blocks)
        if ti != bi and len(t) < cap
    ]
    detachables = [(bi, v) for bi, b in enumerate(blocks) if len(b) >= 2 for v in b]
    merges = [
        (i, j)
        for i in range(len(blocks))
        for j in range(i + 1, len(blocks))
        if len(blocks[i]) + len(blocks[j]) <= cap
    ]

    kinds = []
    if relocations:
        kinds.append("relocate")
    if detachables:
        kinds.append("detach")
    if merges:
        kinds.append("merge")
    if not kinds:
        raise ValueError("no applicable moves under the block-size cap")

    kind = kinds[int(rng.integers(len(kinds)))]
    if kind == "relocate":
        bi, v, ti = relocations[int(rng.integers(len(relocations)))]
        blocks[bi].remove(v)
        blocks[ti].append(v)
    elif kind == "detach":
        bi, v = detachables[int(rng.integers(len(detachables)))]
        blocks[bi].remove(v)
        blocks.append([v])
    else:
        i, j = merges[int(rng.integers(len(merges)))]
        blocks[i].extend(blocks[j])
        del blocks[j]
    return canonical_partition(b for b in blocks if b)


# --- the CSV readers as they were before `data.read_columns` served both:
# `load_csv` and `cli._read_codes` (here `read_codes`) with the helpers they
# used, kept verbatim so the shared reader can be checked against them


def _looks_numeric(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _numbered_rows(reader, n_fields: int) -> Iterator[tuple[int, list[str]]]:
    """Each remaining row of a `csv.reader` with the physical line it ends on;
    a row without `n_fields` fields raises `DataError`."""
    for row in reader:
        if len(row) != n_fields:
            raise DataError(f"line {reader.line_num}: row has {len(row)} fields, expected {n_fields}")
        yield reader.line_num, row


# a column shares one str per distinct cell text until it has seen this many
# distinct texts; past that (numeric columns) the sharing dict is dropped
_SHARED_TEXTS_MAX = 1024


def load_csv(source, class_column: str) -> RawTable:
    """Parse CSV bytes/path into a raw table, separating out the class column.

    The header row is mandatory. A column is numeric when every one of its
    cells parses as a number with '.' as the decimal separator; otherwise it
    is categorical. Rows with missing (empty) cells, and numeric columns
    holding nan or infinite cells, are rejected outright so they cannot
    silently skew counts downstream.
    """
    with read_text(source) as stream:
        reader = csv.reader(stream)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError("empty CSV: missing header row") from None
        header = [h.strip() for h in header]
        if len(set(header)) != len(header):
            raise DataError("duplicate column names in header")
        if class_column not in header:
            raise DataError(f"unknown class column {class_column!r}")

        columns: list[list[str]] = [[] for _ in header]
        # repeated cells then hold one str object, not one per row
        shared: list[dict[str, str] | None] = [{} for _ in header]
        for line, row in _numbered_rows(reader, len(header)):
            for j, cell in enumerate(row):
                text = cell.strip()
                if text == "":
                    raise DataError(f"line {line}: empty cell in column {header[j]!r}")
                texts = shared[j]
                if texts is not None:
                    text = texts.setdefault(text, text)
                    if len(texts) > _SHARED_TEXTS_MAX:
                        shared[j] = None
                columns[j].append(text)

    class_idx = header.index(class_column)
    predictors = []
    for name, cells in zip(header, columns):
        if name == class_column:
            continue
        if cells and all(_looks_numeric(c) for c in cells):
            values = [float(c) for c in cells]
            if not all(map(math.isfinite, values)):
                cell = next(c for c, v in zip(cells, values) if not math.isfinite(v))
                raise DataError(f"column {name!r}: non-finite number {cell!r}")
            predictors.append(RawColumn(name, NUMERIC, values))
        else:
            predictors.append(RawColumn(name, CATEGORICAL, cells))
    # class values stay raw strings; they are encoded by first appearance later
    return RawTable(predictors, RawColumn(class_column, CATEGORICAL, columns[class_idx]))


def level_codes(encoder: DatasetEncoder, name: str) -> tuple[dict[str, int], int]:
    """Code of each level text of a categorical column, and the unseen code.

    A level listed twice keeps its first index, as `encode_value` finds
    it; a level that is not a str can equal no cell text and is left out.
    """
    levels = encoder.categories[name]
    codes: dict[str, int] = {}
    for i, level in enumerate(levels):
        if isinstance(level, str):
            codes.setdefault(level, i)
    return codes, len(levels)


def read_codes(path: str, encoder: DatasetEncoder) -> np.ndarray:
    """Encode every row of the predictor CSV at `path`: an (n_rows, k) array.

    Columns follow ``encoder.predictor_names``. Each cell is parsed once and
    only its code is kept (numeric cells are kept as floats until the end,
    then binned column by column); the row's text is dropped once read.
    """
    names = encoder.predictor_names
    with read_text(path) as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise DataError("empty input CSV") from None
        for name in names:
            if name not in header:
                raise DataError(f"missing predictor column {name!r}")
        # (name, position, level codes and the unseen code or None, parsed values)
        columns = []
        for name, kind in zip(names, encoder.kinds):
            if kind == NUMERIC:
                columns.append((name, header.index(name), None, array("d")))
            else:
                columns.append((name, header.index(name), level_codes(encoder, name), array("q")))
        n_rows = 0
        for n_rows, (line, row) in enumerate(_numbered_rows(reader, len(header)), start=1):
            for name, pos, levels, values in columns:
                cell = row[pos].strip()
                if levels is not None:
                    codes, unseen = levels
                    values.append(codes.get(cell, unseen))
                    continue
                try:
                    value = float(cell)
                except ValueError:
                    raise DataError(
                        f"line {line}: column {name!r} expected a number, got {cell!r}"
                    ) from None
                if not math.isfinite(value):
                    raise DataError(
                        f"line {line}: column {name!r} expected a finite number, got {cell!r}"
                    )
                values.append(value)
    out = np.zeros((n_rows, len(names)), dtype=np.int64)
    for j, (name, _, levels, values) in enumerate(columns):
        out[:, j] = values if levels is not None else encoder.encode_column(name, NUMERIC, values)
    return out


# --- per-cell encoding as `DatasetEncoder` did before `encode_column` coded
# whole columns, kept so the column form can be checked against it


def bin_index(value: float, cuts) -> int:
    """Map a real value to its bin: count of cut points strictly below it."""
    return bisect_left(cuts, value)


def encode_value(encoder: DatasetEncoder, name: str, kind: str, value) -> int:
    if kind == NUMERIC:
        return bin_index(float(value), encoder.discretization.cut_points[name])
    levels = encoder.categories[name]
    try:
        return levels.index(str(value))
    except ValueError:
        return len(levels)  # out-of-range sentinel for unseen levels
