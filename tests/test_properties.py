"""Property checks of the vectorized scoring kernel, the CSV reader, the
column-wise encoder, the compiled predictors and the memoized partition
moves against simple references."""

import csv
import hashlib
import io
import re
import json
import math
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import oracles
from oracles import (
    anb_predict_oracle,
    categorical_encoder,
    config_tuples,
    diag_predict_oracle,
    dict_count_table,
    log_sml_direct,
    mixture_predict_oracle,
    nb_predict_oracle,
    propose_move_oracle,
    random_dataset,
)
from smlbayes import (
    ANBClassifier,
    CountTable,
    Dataset,
    DatasetEncoder,
    DiscretizationSpec,
    DiagnosticClassifier,
    MixtureClassifier,
    NBClassifier,
    PriorSpec,
    Schema,
    build_anb,
    build_count_table,
    build_nb,
    build_omi,
    build_pm_mixture,
    fit_discretization,
    fit_equal_frequency,
    log_family_score,
    log_loss,
    log_sml,
    score_partition,
    zero_one_loss,
)
from smlbayes import DataError, load_csv, search
from smlbayes.data import RawColumn, RawTable, read_codes
from smlbayes.model_io import model_from_json_dict, model_to_json_dict
from smlbayes.scoring import _lgamma, _log_sum_exp


@st.composite
def data_and_subset(draw, arities=st.lists(st.integers(1, 5), max_size=7), min_subset=0):
    """A dataset whose rows repeat a few distinct rows (so configurations
    collide, also through columns outside the subset) and a sorted subset."""
    arities = tuple(draw(arities))
    r = draw(st.integers(2, 4))
    n = draw(st.integers(0, 60))
    pool = draw(
        st.lists(st.tuples(*[st.integers(0, a - 1) for a in arities]), min_size=1, max_size=8)
    )
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n))
    labels = draw(st.lists(st.integers(0, r - 1), min_size=n, max_size=n))
    members = draw(st.sets(st.sampled_from(range(len(arities))), min_size=min_subset)
                   if arities else st.just(set()))
    schema = Schema(tuple(f"x{i}" for i in range(len(arities))), arities, "y", r)
    rows = np.array([pool[i] for i in picks], dtype=np.int64).reshape(n, len(arities))
    return Dataset(schema, rows, np.array(labels, dtype=np.int64)), tuple(sorted(members))


def _assert_matches_dict_oracle(data, subset):
    table = build_count_table(data, subset)
    configs, counts = dict_count_table(data, subset)
    assert config_tuples(table) == configs
    assert table.counts.tolist() == counts
    assert table.config_array.shape == (len(configs), len(subset))
    return table


@settings(max_examples=300, deadline=None)
@given(data_and_subset())
def test_count_table_matches_dict_oracle(case):
    _assert_matches_dict_oracle(*case)


@settings(max_examples=40, deadline=None)
@given(data_and_subset(arities=st.just([3] * 45), min_subset=40))
def test_count_table_beyond_int64_keys_matches_dict_oracle(case):
    # 3**40 > 2**62: the keys are Python ints in an object array
    table = _assert_matches_dict_oracle(*case)
    assert table.q > 2**62 and table._keys.dtype == object


@settings(max_examples=100, deadline=None)
@given(data_and_subset(arities=st.just([2] * 60 + [3]), min_subset=59))
def test_count_table_at_the_key_limit_matches_dict_oracle(case):
    # q from 2**59 to 3 * 2**60 configurations times 2-4 classes: the
    # (configuration, class) key is int64 below 2**62 on one side of the
    # limit, and on the other, where it could pass 2**63, a Python int
    table = _assert_matches_dict_oracle(*case)
    assert table.q < 2**62


@settings(max_examples=100, deadline=None)
@given(data_and_subset(arities=st.just([2] * 33), min_subset=29))
def test_count_table_at_the_int32_key_limit_matches_dict_oracle(case):
    # q from 2**29 to 2**33 configurations times 2-4 classes: the
    # (configuration, class) key is int32 below 2**31 on one side of the
    # limit and int64 on the other; the table keeps int64 keys on both
    table = _assert_matches_dict_oracle(*case)
    event("int32 keys" if table.q * table.class_arity < 2**31 else "int64 keys")
    assert table._keys.dtype == np.int64


@settings(max_examples=200, deadline=None)
@given(data_and_subset())
def test_config_array_is_decoded_on_first_read(case):
    data, subset = case
    table = build_count_table(data, subset)
    assert "config_array" not in vars(table)
    configs, _ = dict_count_table(data, subset)
    array = table.config_array
    assert not array.flags.writeable
    assert array.dtype == np.int64 and array.shape == (len(configs), len(subset))
    assert array.tolist() == [list(c) for c in configs]
    assert table.config_array is array


@st.composite
def count_tables(draw, few_totals: bool):
    """A table drawn as its count matrix. With `few_totals` every
    configuration total is below the number of cells (the kernel gathers
    from lgamma lookup tables); otherwise one total reaches it."""
    r = draw(st.integers(2, 4))
    if few_totals:
        n_configs, top = draw(st.integers(4, 30)), 3
    else:
        n_configs, top = draw(st.integers(1, 3)), 500
    counts = np.array(
        draw(st.lists(st.lists(st.integers(0, top), min_size=r, max_size=r),
                      min_size=n_configs, max_size=n_configs)),
        dtype=np.int64,
    )
    counts[:, 0] += counts.sum(axis=1) == 0
    if not few_totals:
        counts[0, 0] += counts.size
    q = n_configs + draw(st.integers(0, 10**6))
    return CountTable((0,), [(i,) for i in range(n_configs)], counts, int(counts.sum()), r, q, math.log(q))


@settings(max_examples=300, deadline=None)
@given(st.booleans().flatmap(lambda few: st.tuples(st.just(few), count_tables(few))),
       st.sampled_from([PriorSpec.uniform_cell, PriorSpec.equivalent_sample_size]),
       st.floats(0.01, 50.0))
def test_log_sml_lookup_tables_equal_the_direct_form(case, prior_kind, strength):
    few_totals, table = case
    assert (int(table.counts.sum(axis=1).max()) < table.counts.size) == few_totals
    prior = prior_kind(strength)
    assert log_sml(table, prior) == log_sml_direct(table, prior)


@st.composite
def encoders_and_columns(draw):
    """A JSON-loaded encoder with one numeric and one categorical column,
    and cells for both: NaN, infinities and cut points themselves; listed,
    duplicated and unseen levels, and non-str cells whose text is a level."""
    cuts = sorted(set(draw(st.lists(st.floats(allow_nan=False), max_size=4))))
    levels = draw(st.lists(st.sampled_from(["a", "b", "1", "nan", " "]), max_size=6))
    encoder = DatasetEncoder(
        ("n", "g"), ("numeric", "categorical"),
        DiscretizationSpec({"n": cuts}, len(cuts) + 1), {"g": tuple(levels)}, "y", ("p", "q"),
    )
    encoder = DatasetEncoder.from_json_dict(json.loads(json.dumps(encoder.to_json_dict())))
    cells = draw(st.lists(st.tuples(
        st.floats() | st.sampled_from(cuts or [0.0]),
        st.sampled_from(levels + ["z", "A"]) | st.integers(0, 2) | st.just(math.nan),
    ), max_size=30))
    numbers, texts = [list(c) for c in zip(*cells)] or ([], [])
    return encoder, numbers, texts


@settings(max_examples=300, deadline=None)
@given(encoders_and_columns())
def test_column_encoding_equals_per_cell_encoding(case):
    encoder, numbers, texts = case
    raw = RawTable(
        [RawColumn("g", "categorical", texts), RawColumn("n", "numeric", numbers)],
        RawColumn("y", "categorical", ["p"] * len(numbers)),
    )
    want = [
        [oracles.encode_value(encoder, "n", "numeric", v) for v in numbers],
        [oracles.encode_value(encoder, "g", "categorical", v) for v in texts],
    ]
    got = encoder.encode_predictor_rows(raw)
    assert got.dtype == np.int64 and got.shape == (len(numbers), 2)
    assert got.T.tolist() == want


# cells of a numeric and of a text column; some texts need quoting (a comma,
# a quote, a line break) or stripping
_NUMBER_CELLS = ["1", "-2.5", "3e1", " 4 ", "0.5", "1_0"]
_TEXT_CELLS = ["x", "y", " z", "x,y", 'say "hi"', "two\nlines", "1"]
# cells that are a fault somewhere: empty, blank, not finite
_FAULT_CELLS = ["", "  ", "nan", "inf", "-Infinity", "NaN"]


def _rare(draw) -> bool:
    # not an end of the range: Hypothesis draws those far more often
    return draw(st.integers(0, 15)) == 7


@st.composite
def csv_cases(draw):
    """CSV bytes with the names of its header and which of its columns are
    numeric. The header may be missing or repeat a name, a row may be short
    or long, and a cell empty or not finite; quoted cells span lines and the
    text may start with a BOM."""
    if _rare(draw):
        return None, [], b""
    header = draw(st.lists(st.sampled_from(["a", "b", "c", "d"]), unique=True, max_size=4))
    if not _rare(draw):
        header.insert(draw(st.integers(0, len(header))), "cls")
    if header and _rare(draw):
        header.append(" " + draw(st.sampled_from(header)))
    numeric = [draw(st.booleans()) for _ in header]
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        n_fields = len(header) + (draw(st.sampled_from([-1, 1])) if _rare(draw) else 0)
        rows.append([
            draw(st.sampled_from(
                _FAULT_CELLS if _rare(draw)
                else _NUMBER_CELLS if j < len(header) and numeric[j] else _TEXT_CELLS
            ))
            for j in range(max(n_fields, 0))
        ])
    buf = io.StringIO()
    writer = csv.writer(
        buf,
        quoting=draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL])),
        lineterminator=draw(st.sampled_from(["\n", "\r\n"])),
    )
    writer.writerows([header] + rows)
    bom = "\ufeff" if draw(st.booleans()) else ""
    return [h.strip() for h in header], numeric, (bom + buf.getvalue()).encode("utf-8")


def _outcome(fn, *args):
    """fn's result, or the text of the `DataError` it raised."""
    try:
        return fn(*args)
    except DataError as exc:
        return str(exc)


# The one rule the old readers lack: a number is plain ASCII without
# digit-group underscores, where `float` also reads "1_0" as 10.0. The old
# readers are held to the new rule by reading every "1_0" spelt as a text no
# float parses, and their texts and messages spelt back.
_SPELT = ("1_0", "1_0?")


def _old_outcome(fn, source, *args):
    out = _outcome(fn, source.replace(*map(str.encode, _SPELT)), *args)
    if isinstance(out, str):
        return out.replace(*reversed(_SPELT))
    if isinstance(out, RawTable):
        for column in [*out.predictors, out.class_column]:
            # the old reader holds no codes, so a column is its own levels
            column.levels = [v.replace(*reversed(_SPELT)) if isinstance(v, str) else v for v in column.levels]
    return out


@settings(max_examples=300, deadline=None)
@given(csv_cases())
def test_load_csv_equals_the_old_reader(case):
    """Equal tables or equal error text, but for the one listed rule: a
    column with a cell such as "1_0" holds texts (see `_SPELT`)."""
    _, _, source = case
    got, want = _outcome(load_csv, source, "cls"), _old_outcome(oracles.load_csv, source, "cls")
    if isinstance(want, str):
        assert got == want
        return
    assert [(c.name, c.kind, c.values) for c in got.predictors] == [
        (c.name, c.kind, c.values) for c in want.predictors
    ]
    assert got.class_column == want.class_column


@st.composite
def predict_encoders(draw, header, numeric):
    """An encoder over some of the header's columns, in any order, maybe with
    a column the header lacks; mostly of each column's own kind, with cuts
    or with levels the cells may or may not hold."""
    kinds = dict(zip(header, numeric))
    pool = sorted(set(header) - {"cls"}) + (["e"] if _rare(draw) else [])
    names = draw(st.permutations(pool))[draw(st.integers(0, len(pool))):]
    numeric_kind = [kinds.get(n, False) != _rare(draw) for n in names]
    cuts = {
        n: sorted(set(draw(st.lists(st.sampled_from([-1.0, 0.5, 2.0, 10.0]), max_size=2))))
        for n, num in zip(names, numeric_kind) if num
    }
    categories = {
        n: tuple(draw(st.lists(st.sampled_from(["x", "y", "z", "x,y", "1", "nan"]), max_size=4)))
        for n, num in zip(names, numeric_kind) if not num
    }
    return DatasetEncoder(
        tuple(names),
        tuple("numeric" if num else "categorical" for num in numeric_kind),
        DiscretizationSpec(cuts, 3),
        categories,
        "cls",
        ("p", "q"),
    )


def _fault_line(message: str) -> int | None:
    match = re.match(r"line (\d+): ", message)
    return int(match[1]) if match else None


@settings(max_examples=300, deadline=None)
@given(csv_cases(), st.data())
def test_predict_reader_equals_the_old_reader(case, data):
    """Equal codes or equal error text, but for the two faults the old
    predict reader let through: repeated header names, and empty cells
    (which it read as an unseen level or reported as a missing number); and
    for the one listed rule: "1_0" in a numeric column is not a number
    (see `_SPELT`)."""
    header, numeric, source = case
    encoder = data.draw(predict_encoders(header or [], numeric))
    got = _outcome(read_codes, source, encoder)
    want = _old_outcome(oracles.read_codes, source, encoder)
    if not isinstance(got, str):
        assert not isinstance(want, str), want
        assert got.dtype == want.dtype and np.array_equal(got, want)
        return
    if got == "duplicate column names in header":
        return
    match = re.fullmatch(r"line (\d+): empty cell in column '(\w+)'", got)
    if match is None:
        assert got == want
        return
    # the first fault the new reader met is an empty cell; the old reader
    # passed it (a categorical column) or failed on it or on a later cell
    line, name = int(match[1]), match[2]
    order = list(encoder.predictor_names)
    if not isinstance(want, str):
        assert encoder.kinds[order.index(name)] == "categorical"
    elif want == f"line {line}: column {name!r} expected a number, got ''":
        assert encoder.kinds[order.index(name)] == "numeric"
    else:
        old_line = _fault_line(want)
        assert old_line is not None and old_line >= line
        if old_line == line:
            old_name = re.search(r"column '(\w+)'", want)[1]
            assert order.index(old_name) > order.index(name)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(1000, 1100),
    st.sampled_from([4, 1500]),
    st.sampled_from([None, ("g", ""), ("n", ""), ("n", "inf")]),
    st.integers(0, 2**32 - 1),
)
def test_readers_across_the_shared_text_cap_equal_the_old_readers(n_texts, n_numbers, fault, seed):
    """A text column of 1,000-1,100 distinct texts, held as codes up to
    1,024 of them and as texts past that, and a numeric column of few or
    many distinct numbers: both readers equal the old ones, also with a
    fault in a row after the cap. The one listed difference is an empty
    cell, which the old predict reader did not name as such."""
    rng = np.random.default_rng(seed)
    picks = rng.permutation(np.concatenate([np.arange(n_texts), rng.integers(0, n_texts, 400)]))
    rows = [[f"t{k}", str(rng.integers(n_numbers)), "pq"[k % 2]] for k in picks.tolist()]
    raw = load_csv(_csv_bytes(rows), "cls")
    assert (raw.predictors[0].codes is None) == (n_texts > 1024)
    encoder = DatasetEncoder.fit(raw, fit_discretization(raw, 3))
    line = None
    if fault is not None:
        first_rows = sorted({k: i for i, k in reversed(list(enumerate(picks.tolist())))}.values())
        i = int(rng.integers(first_rows[1024] if n_texts > 1024 else 1024, len(rows)))
        rows[i]["gn".index(fault[0])] = fault[1]
        line = i + 2
    source = _csv_bytes(rows)

    got, want = _outcome(load_csv, source, "cls"), _outcome(oracles.load_csv, source, "cls")
    if isinstance(want, str):
        assert got == want and fault is not None
    else:
        assert got.predictors == want.predictors and got.class_column == want.class_column

    got, want = _outcome(read_codes, source, encoder), _outcome(oracles.read_codes, source, encoder)
    if fault is not None and fault[1] == "":
        assert got == f"line {line}: empty cell in column {fault[0]!r}"
        assert not isinstance(want, str) or _fault_line(want) == line
    elif isinstance(want, str):
        assert got == want
    else:
        assert got.dtype == want.dtype and np.array_equal(got, want)


def _csv_bytes(rows) -> bytes:
    return "".join(f"{','.join(row)}\n" for row in [["g", "n", "cls"], *rows]).encode()


@settings(max_examples=100, deadline=None)
@given(data_and_subset())
def test_digest_does_not_depend_on_row_layout(case):
    data, _ = case
    rows = data.rows.tolist()
    shape = data.rows.shape
    c_order = Dataset(data.schema, np.ascontiguousarray(data.rows), data.labels)
    f_order = Dataset(data.schema, np.asfortranarray(data.rows), data.labels)
    assert c_order.rows.flags.f_contiguous and f_order.rows.flags.f_contiguous
    assert c_order.digest() == f_order.digest()
    want = hashlib.sha256()
    want.update(json.dumps(data.schema.to_json_dict(), sort_keys=True).encode())
    want.update(np.array(rows, dtype=np.int64).reshape(shape).tobytes())
    want.update(data.labels.tobytes())
    assert c_order.digest() == want.hexdigest()


@st.composite
def member_scores(draw):
    """Log scores spread over [-1e6, 0], or clustered within 40 nats of a base
    anywhere in that range (so several members carry weight)."""
    if draw(st.booleans()):
        return draw(st.lists(st.floats(-1e6, 0.0), min_size=1, max_size=20))
    base = draw(st.one_of(st.floats(-1e6, 0.0), st.floats(-1e6, -1e6 + 100.0)))
    offsets = draw(st.lists(st.floats(-40.0, 0.0), min_size=1, max_size=20))
    return [base + d for d in offsets]


@settings(max_examples=300, deadline=None)
@given(member_scores())
def test_family_score_matches_mpmath(members):
    with mp.workdps(60):
        want = float(mp.log(mp.fsum(mp.exp(mp.mpf(s)) for s in members) / len(members)))
    got = log_family_score(members).log_value
    # relative 1e-12; the absolute floor covers results near 0, where
    # subtracting log(n) cancels most digits
    assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12)


@st.composite
def models_and_rows(draw, arities=st.lists(st.integers(1, 4), max_size=5)):
    """Every classifier kind trained on one small dataset, and query rows.

    The class arity may exceed the classes seen (as when a schema floors a
    one-class column to 2), the partition is random, and a query value may be
    the unseen-level sentinel (the arity) or negative.
    """
    arities = tuple(draw(arities))
    n_pred = len(arities)
    r = draw(st.integers(2, 4))
    seen_classes = draw(st.integers(1, r))
    n = draw(st.integers(1, 30))
    rows = [[draw(st.integers(0, a - 1)) for a in arities] for _ in range(n)]
    labels = draw(st.lists(st.integers(0, seen_classes - 1), min_size=n, max_size=n))
    schema = Schema(tuple(f"x{i}" for i in range(n_pred)), arities, "y", r)
    data = Dataset(schema, np.array(rows, dtype=np.int64).reshape(n, n_pred), labels)
    strength = draw(st.floats(0.05, 5.0))
    prior = draw(st.sampled_from([PriorSpec.uniform_cell, PriorSpec.equivalent_sample_size]))(strength)
    block_of = draw(st.lists(st.integers(0, max(n_pred - 1, 0)), min_size=n_pred, max_size=n_pred))
    partition = [[i for i in range(n_pred) if block_of[i] == b] for b in sorted(set(block_of))]
    subset = tuple(sorted(draw(st.sets(st.sampled_from(range(n_pred))) if n_pred else st.just(set()))))
    models = {
        "diagnostic": DiagnosticClassifier(build_count_table(data, subset), prior),
        "nb": build_nb(data, prior),
        "anb": build_anb(partition, data, prior),
    }
    if n_pred:
        models["pm"] = build_pm_mixture(partition, data, prior)
        models.update({f"om{i}": build_omi(data, i, prior) for i in (1, 2) if i <= n_pred})
    queries = draw(st.lists(
        st.tuples(*[st.integers(-1, a) for a in arities]).map(list)
        | st.sampled_from(rows), min_size=1, max_size=6))
    return models, queries


ORACLES = {
    DiagnosticClassifier: diag_predict_oracle,
    MixtureClassifier: mixture_predict_oracle,
    NBClassifier: nb_predict_oracle,
    ANBClassifier: anb_predict_oracle,
}


def _assert_predicts_like_oracle(model, queries):
    oracle = ORACLES[type(model)]
    for x in queries:
        got, want = model.predict(x), oracle(model, x)
        assert got.shape == want.shape and (got == want).all(), (x, got, want)


@settings(max_examples=300, deadline=None)
@given(models_and_rows())
def test_compiled_predict_equals_per_row_oracle(case):
    models, queries = case
    for model in models.values():
        _assert_predicts_like_oracle(model, queries)


def test_no_predictors_gives_the_class_prior():
    data = Dataset(Schema((), (), "y", 3), np.zeros((4, 0), dtype=np.int64), np.array([0, 0, 1, 2]))
    for prior in (PriorSpec.uniform_cell(0.5), PriorSpec.equivalent_sample_size(2.0)):
        nb = build_nb(data, prior)
        anb = build_anb([], data, prior)
        diag = DiagnosticClassifier(build_count_table(data, ()), prior)
        _assert_predicts_like_oracle(nb, [[]])
        _assert_predicts_like_oracle(anb, [[]])
        _assert_predicts_like_oracle(diag, [[]])
        assert (nb.predict([]) == anb.predict([])).all()


@settings(max_examples=40, deadline=None)
@given(data_and_subset(arities=st.just([3] * 45), min_subset=40), st.data())
def test_configuration_space_beyond_int64_keys_is_looked_up_by_tuple(case, draw):
    # 3**40 > 2**62: a block's digits are capped by its stored values, so its
    # keys are Python ints once those carry the stacked span past 2**64
    data, subset = case
    prior = draw.draw(st.sampled_from([PriorSpec.uniform_cell(1.0), PriorSpec.equivalent_sample_size(1.0)]))
    rest = [i for i in range(45) if i not in subset]
    partition = [list(subset)] + ([rest] if rest else [])
    diag = DiagnosticClassifier(build_count_table(data, subset), prior)
    models = [(diag, _key_span([diag.table]))]
    if data.n_rows:
        anb, pm = build_anb(partition, data, prior), build_pm_mixture(partition, data, prior)
        models += [(anb, 1 + _key_span(anb.block_tables)), (pm, _key_span(pm.tables))]
    queries = [list(row) for row in data.rows.tolist()[:3]]
    queries += draw.draw(st.lists(st.lists(st.integers(-1, 3), min_size=45, max_size=45), max_size=3))
    for model, top in models:
        rows = model._compiled[1] if isinstance(model, MixtureClassifier) else model._compiled
        event("object keys" if top >= 2**64 else "uint64 keys")
        assert rows._ends.dtype == (object if top >= 2**64 else np.uint64)
        _assert_predicts_like_oracle(model, queries)


@st.composite
def keys_near_two_to_the_64(draw):
    """A dataset whose first `m` binary predictors form one big block, next to
    two small ternary predictors. Only the first `seen` big-block members
    ever take the value 1, so that block's keys span 2**(m - seen) * 3**seen:
    below 2**64, exactly 2**64, or above it."""
    m, seen = draw(st.sampled_from([(63, 0), (63, 1), (62, 1), (60, 2), (64, 0), (62, 2), (60, 3), (66, 2)]))
    r = draw(st.integers(2, 3))
    n = draw(st.integers(1, 12))
    big = [[1] * seen] + [draw(st.lists(st.integers(0, 1), min_size=seen, max_size=seen)) for _ in range(n - 1)]
    small = [draw(st.lists(st.integers(0, 2), min_size=2, max_size=2)) for _ in range(n)]
    rows = [b + [0] * (m - seen) + s for b, s in zip(big, small)]
    labels = draw(st.lists(st.integers(0, r - 1), min_size=n, max_size=n))
    schema = Schema(tuple(f"x{i}" for i in range(m + 2)), (2,) * m + (3, 3), "y", r)
    data = Dataset(schema, np.array(rows, dtype=np.int64), np.array(labels, dtype=np.int64))
    queries = rows[:2] + draw(st.lists(
        st.tuples(*[st.integers(-1, 2)] * m, st.integers(-1, 3), st.integers(-1, 3)).map(list),
        min_size=1, max_size=3))
    return data, queries


def _key_span(tables) -> int:
    # a block's digits run up to one past its largest stored values
    return sum(math.prod((t.config_array.max(axis=0, initial=-1) + 2).tolist()) for t in tables)


@settings(max_examples=60, deadline=None)
@given(keys_near_two_to_the_64(), st.sampled_from([PriorSpec.uniform_cell(1.0), PriorSpec.equivalent_sample_size(1.0)]))
def test_compiled_predict_equals_per_row_oracle_on_both_sides_of_uint64_keys(case, prior):
    # one big block carries the stacked key range of the whole model past
    # 2**64 or not; the small blocks are looked up through the same keys
    data, queries = case
    m = data.schema.n_predictors - 2
    partition = [list(range(m)), [m], [m + 1]]
    diag = DiagnosticClassifier(build_count_table(data, range(m)), prior)
    anb = build_anb(partition, data, prior)
    pm = build_pm_mixture(partition, data, prior)
    # anb stacks its class prior first, as one more block with one key
    for model, top in [(diag, _key_span([diag.table])), (anb, 1 + _key_span(anb.block_tables)),
                       (pm, _key_span(pm.tables))]:
        rows = model._compiled[1] if isinstance(model, MixtureClassifier) else model._compiled
        event("object keys" if top >= 2**64 else "uint64 keys")
        assert rows._ends.dtype == (object if top >= 2**64 else np.uint64)
        assert rows._ends[-1] == top
        _assert_predicts_like_oracle(model, queries)


@st.composite
def models_on_keys_near_two_to_the_64(draw):
    """Every kind trained on `keys_near_two_to_the_64`'s data, and its queries."""
    data, queries = draw(keys_near_two_to_the_64())
    m = data.schema.n_predictors - 2
    partition = [list(range(m)), [m], [m + 1]]
    prior = draw(st.sampled_from([PriorSpec.uniform_cell(1.0), PriorSpec.equivalent_sample_size(1.0)]))
    models = {
        "diagnostic": DiagnosticClassifier(build_count_table(data, range(m)), prior),
        "nb": build_nb(data, prior),
        "anb": build_anb(partition, data, prior),
        "pm": build_pm_mixture(partition, data, prior),
    }
    return models, queries


@settings(max_examples=200, deadline=None)
@given(models_and_rows() | models_on_keys_near_two_to_the_64(), st.data())
def test_memoized_predict_equals_the_unmemoized_computation(case, draw):
    # rows repeat: each call takes one from a small pool (negative codes, the
    # unseen sentinel and object keys included), as a list or an array row
    models, pool = case
    arrays = np.array(pool, dtype=np.int64).reshape(len(pool), len(pool[0]))
    picks = draw.draw(st.lists(
        st.tuples(st.integers(0, len(pool) - 1), st.booleans()), min_size=1, max_size=20))
    for model in models.values():
        compute, oracle = type(model).predict.__wrapped__, ORACLES[type(model)]
        for i, as_array in picks:
            x = arrays[i] if as_array else pool[i]
            got, want = model.predict(x), compute(model, x)
            assert got.shape == want.shape and (got == want).all(), (x, got, want)
            assert (want == oracle(model, x)).all()
        assert len(model._memo) == len({tuple(pool[i]) for i, _ in picks})


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 8))
def test_prior_mass_beyond_float_range(seed, n):
    # 110 predictors of arity 1000: q = 10**330, so the BDeu cell underflows
    # (and is floored) and the uniform per-class prior mass overflows
    rng = np.random.default_rng(seed)
    arities = (1000,) * 110
    data = random_dataset(rng, n, arities, 2)
    bdeu, uniform = PriorSpec.equivalent_sample_size(1.0), PriorSpec.uniform_cell(1.0)
    table = build_count_table(data, tuple(range(110)))
    assert bdeu.cell_prior(table.q, table.log_q, 2)[0] < np.finfo(float).tiny
    assert uniform.attribute_smoothing(table.q, table.log_q, 2)[2] == math.inf
    halves = [list(range(55)), list(range(55, 110))]
    models = [DiagnosticClassifier(table, bdeu)]
    for prior in (bdeu, uniform):
        models += [build_anb([list(range(110))], data, prior), build_anb(halves, data, prior)]
    queries = [data.rows[0].tolist(), [int(v) for v in rng.integers(0, 1000, size=110)]]
    for model in models:
        _assert_predicts_like_oracle(model, queries)


@settings(max_examples=150, deadline=None)
@given(models_and_rows())
def test_save_and_load_round_trips_predictions(case):
    models, queries = case
    encoder = categorical_encoder(models["nb"].schema)
    for model in models.values():
        payload = json.loads(json.dumps(model_to_json_dict(model, encoder), sort_keys=True))
        loaded, loaded_encoder = model_from_json_dict(payload)
        assert type(loaded) is type(model)
        assert loaded_encoder == encoder
        for x in queries:
            assert (loaded.predict(x) == model.predict(x)).all()


@settings(max_examples=100, deadline=None)
@given(models_and_rows())
def test_returned_distributions_are_fresh(case):
    models, queries = case
    for model in models.values():
        compiled = model._compiled
        tables = compiled if isinstance(compiled, tuple) else (compiled,)
        for part in tables:
            arrays = [part] if isinstance(part, np.ndarray) else [part.table, part._ends]
            assert not any(a.flags.writeable for a in arrays)
        x = queries[0]
        first = model.predict(x)
        kept = first.copy()
        first[...] = -1.0
        for y in queries:
            model.predict(y)[...] = -2.0
        assert (model.predict(x) == kept).all()


@st.composite
def partitions_and_caps(draw):
    """A partition of 2-12 predictors with its blocks, and the members within
    them, in random order, and a block-size cap (None or 1..n)."""
    n = draw(st.integers(2, 12))
    block_of = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    blocks = [[i for i in range(n) if block_of[i] == b] for b in set(block_of)]
    blocks = [draw(st.permutations(b)) for b in draw(st.permutations(blocks))]
    cap = draw(st.none() | st.integers(1, n))
    return tuple(map(tuple, blocks)), cap


def _step(propose, part, rng, cap):
    try:
        return propose(part, rng, cap)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(partitions_and_caps(), st.integers(0, 2**32 - 1), st.integers(30, 60))
def test_memoized_moves_walk_like_the_enumerating_oracle(case, seed, steps):
    part, cap = case
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    table_rng = np.random.default_rng(seed)
    for _ in range(steps):
        got = _step(search.propose_move, part, rng, cap)
        want = _step(propose_move_oracle, part, oracle_rng, cap)
        assert got == want
        assert rng.bit_generator.state == oracle_rng.bit_generator.state
        if isinstance(want, str):
            break
        # the caller's move table draws as the looked-up one does
        assert search.propose_move(part, table_rng, cap, search._move_table(part, cap)) == got
        assert table_rng.bit_generator.state == rng.bit_generator.state
        part = got


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.lists(st.integers(1, 3), min_size=1, max_size=6),
    st.integers(2, 3),
    st.integers(1, 40),
    st.data(),
)
def test_search_reports_equal_the_enumerating_oracle_run(seed, arities, r, n_rows, draw):
    data = random_dataset(np.random.default_rng(seed), n_rows, tuple(arities), r)
    prior = draw.draw(st.sampled_from([PriorSpec.uniform_cell(1.0), PriorSpec.equivalent_sample_size(2.0)]))
    config = search.SearchConfig(
        restarts=draw.draw(st.integers(1, 3)),
        patience=draw.draw(st.integers(1, 30)),
        max_block_size=draw.draw(st.none() | st.integers(1, len(arities))),
        seed=seed,
        init_mode=draw.draw(st.sampled_from(["singletons", "random"])),
    )
    result = search.pm_search(data, prior, config)
    def oracle(partition, rng, cap, moves):  # the oracle enumerates its own moves
        return propose_move_oracle(partition, rng, cap)

    with mock.patch.object(search, "propose_move", oracle):
        want = search.pm_search(data, prior, config)
    assert result.to_json_dict() == want.to_json_dict()
    assert result.best_score == score_partition(result.best_partition, data, prior)


def _assert_near_mpmath(got: float, want, tol: float) -> None:
    """|got - want| within tol relative to |want|, with an absolute floor of 1."""
    want = float(want)
    assert abs(got - want) <= tol * max(1.0, abs(want)), (got, want)


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=5e-324, max_value=1e6))
def test_lgamma_matches_mpmath(x):
    with mp.workdps(40):
        _assert_near_mpmath(float(_lgamma(np.array([x]))[0]), mp.loggamma(mp.mpf(x)), 1e-14)


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=5e-324, max_value=1e6), st.integers(1, 400))
def test_lgamma_runs_match_mpmath(a, k):
    # the lookup-table arguments of log_sml: a prior mass plus every count
    x = a + np.arange(k)
    got = _lgamma(x)
    assert got.shape == x.shape
    with mp.workdps(40):
        for g, xi in zip(got.tolist(), x.tolist()):
            _assert_near_mpmath(g, mp.loggamma(mp.mpf(xi)), 1e-14)


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=2.6e305, allow_nan=False))
def test_lgamma_is_inf_past_overflow(x):
    # lgamma overflows float range above ~2.55e305; inf, as scipy's gammaln gives
    assert _lgamma(np.array([1.0, x, 2.0])).tolist() == [0.0, math.inf, 0.0]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(min_value=-1e6, max_value=1e3), min_size=1, max_size=12))
def test_log_sum_exp_matches_mpmath(values):
    with mp.workdps(60):
        want = mp.log(mp.fsum(mp.exp(mp.mpf(v)) for v in values))
        _assert_near_mpmath(_log_sum_exp(values), want, 1e-12)


# bounds for the stream: no draw at 1, small ones, ones near 2**31 (where
# about half the 32-bit draws are rejected) and the largest, 2**32 - 1
_BOUNDS = st.one_of(
    st.just(1),
    st.integers(2, 100),
    st.integers(2**31 - 64, 2**31 + 64),
    st.just(2**32 - 1),
)


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 2**64 - 1), st.sampled_from([None, 3, 4, 5, 16, 17]), st.lists(_BOUNDS, max_size=80))
def test_bounded_draws_equal_generator_integers(seed, n_init, bounds):
    draws = search.BoundedDraws(np.random.PCG64(seed))
    rng = np.random.default_rng(seed)
    if n_init is not None:
        # random initialisation: n draws at once from the Generator, one at a
        # time from the stream, which keeps a leftover high half for later
        assert [draws.integers(n_init) for _ in range(n_init)] == rng.integers(n_init, size=n_init).tolist()
    got = [draws.integers(n) for n in bounds]
    assert got == [int(rng.integers(n)) for n in bounds]
    assert all(type(g) is int for g in got)


@pytest.mark.parametrize("init_mode", ["singletons", "random"])
@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.lists(st.integers(1, 3), min_size=1, max_size=6),
    st.integers(2, 3),
    st.integers(1, 40),
    st.data(),
)
def test_search_reports_equal_a_generator_run(init_mode, seed, arities, r, n_rows, draw):
    data = random_dataset(np.random.default_rng(seed), n_rows, tuple(arities), r)
    prior = draw.draw(st.sampled_from([PriorSpec.uniform_cell(1.0), PriorSpec.equivalent_sample_size(2.0)]))
    config = search.SearchConfig(
        restarts=draw.draw(st.integers(1, 3)),
        patience=draw.draw(st.integers(1, 30)),
        max_block_size=draw.draw(st.none() | st.integers(1, len(arities))),
        seed=seed,
        init_mode=init_mode,
    )
    result = search.pm_search(data, prior, config)
    with mock.patch.object(search, "BoundedDraws", np.random.default_rng):
        want = search.pm_search(data, prior, config)
    assert result.to_json_dict() == want.to_json_dict()


@st.composite
def search_cases(draw):
    """A random dataset of 2-5 predictors, a prior and a search config over
    both init modes, block-size caps 1-4 and patience 1-300."""
    seed = draw(st.integers(0, 2**32 - 1))
    arities = tuple(draw(st.lists(st.integers(1, 3), min_size=2, max_size=5)))
    data = random_dataset(np.random.default_rng(seed), draw(st.integers(1, 40)), arities, draw(st.integers(2, 3)))
    prior = draw(st.sampled_from([PriorSpec.uniform_cell(1.0), PriorSpec.equivalent_sample_size(2.0)]))
    config = search.SearchConfig(
        restarts=draw(st.integers(1, 3)),
        patience=draw(st.integers(1, 300)),
        max_block_size=draw(st.none() | st.integers(1, 4)),
        seed=seed,
        init_mode=draw(st.sampled_from(["singletons", "random"])),
    )
    return data, prior, config


def _without_counts(report: dict) -> dict:
    return {**report, "proposals_evaluated": None, "restarts": [{**t, "proposals": None} for t in report["restarts"]]}


@settings(max_examples=200, deadline=None)
@given(search_cases())
def test_certified_search_equals_the_full_patience_loop_but_for_its_counts(case):
    data, prior, config = case
    got = search.pm_search(data, prior, config).to_json_dict()
    full = oracles.pm_search_oracle(data, prior, config).to_json_dict()
    assert _without_counts(got) == _without_counts(full)
    assert all(g["proposals"] <= f["proposals"] for g, f in zip(got["restarts"], full["restarts"]))
    if got["proposals_evaluated"] < full["proposals_evaluated"]:
        event("a restart stopped at a certified local optimum")
    # the exact oracle builds every neighbour afresh after each rejection
    assert got == oracles.pm_search_oracle(data, prior, config, certify=True).to_json_dict()


@settings(max_examples=40, deadline=None)
@given(search_cases(), st.integers(0, 2**32 - 1))
def test_certified_search_ignores_the_candidates_move_tables_keep(case, other_seed):
    """The move tables outlive a search and keep the candidates other searches
    built; a search reports the same after a cold start and after a search on
    other data warmed them."""
    data, prior, config = case
    want = oracles.pm_search_oracle(data, prior, config, certify=True).to_json_dict()
    search._move_table.cache_clear()
    assert search.pm_search(data, prior, config).to_json_dict() == want
    other = random_dataset(np.random.default_rng(other_seed), 40, data.schema.predictor_arities, data.schema.class_arity)
    warm = search.SearchConfig(restarts=5, patience=300, max_block_size=config.max_block_size,
                               seed=other_seed, init_mode="random")
    search.pm_search(other, prior, warm)
    assert search.pm_search(data, prior, config).to_json_dict() == want


@st.composite
def small_count_tables(draw, q_extra=st.integers(0, 10**6)):
    """A table of 1-5 configurations with 2-4 classes and counts up to 12."""
    r = draw(st.integers(2, 4))
    counts = np.array(
        draw(st.lists(st.lists(st.integers(0, 12), min_size=r, max_size=r), min_size=1, max_size=5)),
        dtype=np.int64,
    )
    counts[:, 0] += counts.sum(axis=1) == 0
    n_configs = len(counts)
    q = n_configs + draw(q_extra)
    return CountTable((0,), [(i,) for i in range(n_configs)], counts, int(counts.sum()), r, q, math.log(q))


def _mp_rising_log(a, k):
    """log(a (a + 1) ... (a + k - 1)) = loggamma(a + k) - loggamma(a), with no cancellation."""
    return mp.fsum(mp.log(a + i) for i in range(k))


@settings(max_examples=300, deadline=None)
# the second range holds the switch to summed logs and the strengths where
# the log1p terms still count
@given(small_count_tables(), st.floats(-300.0, 300.0) | st.floats(0.0, 16.0))
def test_log_sml_matches_mpmath_at_any_uniform_strength(table, exponent):
    strength = 10.0**exponent
    got = log_sml(table, PriorSpec.uniform_cell(strength))
    with mp.workdps(50):
        a = mp.mpf(strength)
        want = mp.fsum(
            _mp_rising_log(a, c) for row in table.counts.tolist() for c in row
        ) - mp.fsum(_mp_rising_log(a * table.class_arity, n) for n in table.config_totals.tolist())
    _assert_near_mpmath(got, want, 1e-11)


_ANY_PRIOR = st.builds(
    lambda kind, exponent: kind(10.0**exponent),
    st.sampled_from([PriorSpec.uniform_cell, PriorSpec.equivalent_sample_size]),
    st.floats(-300.0, 300.0),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(small_count_tables(st.integers(0, 10**400)), min_size=1, max_size=4), _ANY_PRIOR,
       st.lists(st.floats(-1e6, 0.0), min_size=1, max_size=6))
def test_scores_are_log_probabilities(tables, prior, members):
    scores = [log_sml(t, prior) for t in tables]
    assert all(s <= 0.0 for s in scores), scores
    # the first label of each stored configuration has probability exactly 1/r
    for t, s in zip(tables, scores):
        assert s <= -len(t.counts) * math.log(t.class_arity) * (1 - 1e-9), (s, t.counts.tolist())
    assert log_family_score(scores).log_value <= 0.0
    assert log_family_score(members).log_value <= 0.0


@st.composite
def predictions_and_truth(draw):
    """n rows of r positive probabilities, most drawn from a few values so
    that rows tie at their maximum, and n true labels."""
    n, r = draw(st.integers(1, 30)), draw(st.integers(1, 5))
    cell = st.sampled_from([0.125, 0.25, 0.5]) | st.floats(1e-300, 1.0)
    rows = draw(st.lists(st.lists(cell, min_size=r, max_size=r), min_size=n, max_size=n))
    return np.array(rows), draw(st.lists(st.integers(0, r - 1), min_size=n, max_size=n))


@settings(max_examples=300, deadline=None)
@given(predictions_and_truth())
def test_array_losses_equal_the_per_row_definitions(case):
    preds, truth = case
    wrong = sum(int(np.argmax(p)) != t for p, t in zip(preds, truth))
    total = 0.0
    for p, t in zip(preds, truth):
        total -= math.log(float(p[t]))
    if any((p == p.max()).sum() > 1 for p in preds):
        event("argmax tie")
    for given_preds in (preds, list(preds)):
        assert zero_one_loss(given_preds, truth) == wrong / len(truth)
        assert log_loss(given_preds, np.array(truth)) == total / len(truth)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.sampled_from([-0.0, 0.0, 1.0, 2.5, -7.0, math.inf, -math.inf])
             | st.floats(allow_nan=False), min_size=1, max_size=40),
    st.data(),
)
def test_equal_frequency_cuts_equal_the_uncapped_loop(values, draw):
    bins = draw.draw(st.integers(1, 5 * len(values) + 7))
    # repr tells -0.0 from 0.0, which a model file would too
    got, want = fit_equal_frequency(values, bins), oracles.fit_equal_frequency(values, bins)
    assert list(map(repr, got)) == list(map(repr, want))


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.lists(st.integers(1, 3), min_size=1, max_size=5),
    st.integers(2, 3),
    st.integers(1, 40),
    st.data(),
)
def test_models_on_held_tables_equal_models_on_a_fresh_dataset(seed, arities, r, n_rows, draw):
    """Models built, in any order, on a dataset that already holds tables
    predict what the same models built on a fresh `Dataset` of the same
    arrays predict, and a search reports the same with and without them."""
    data = random_dataset(np.random.default_rng(seed), n_rows, tuple(arities), r)

    def fresh():
        return Dataset(data.schema, data.rows, data.labels)

    n = len(arities)
    prior = draw.draw(st.sampled_from([PriorSpec.uniform_cell(1.0), PriorSpec.equivalent_sample_size(2.0)]))
    config = search.SearchConfig(restarts=2, patience=draw.draw(st.integers(1, 30)), seed=seed)
    block_of = draw.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    partition = [[i for i in range(n) if block_of[i] == b] for b in sorted(set(block_of))]
    builders = {
        "nb": lambda d: build_nb(d, prior),
        "pm": lambda d: build_pm_mixture(partition, d, prior),
        "anb": lambda d: build_anb(partition, d, prior),
        **{f"om{i}": (lambda d, i=i: build_omi(d, i, prior)) for i in (1, 2) if i <= n},
    }
    want = search.pm_search(fresh(), prior, config).to_json_dict()
    held = {}
    for name in draw.draw(st.permutations(sorted(builders))):
        held[name] = builders[name](data)
        assert search.pm_search(data, prior, config).to_json_dict() == want
    # one table per subset, shared by every model over it
    assert all(a is b for a, b in zip(held["pm"].tables, held["anb"].block_tables))
    queries = draw.draw(st.lists(st.tuples(*[st.integers(-1, a) for a in arities]).map(list),
                                 min_size=1, max_size=6))
    for name, build in builders.items():
        model = build(fresh())
        for x in queries:
            assert (held[name].predict(x) == model.predict(x)).all(), (name, x)
