"""Loading, discretization, encoding, and split behavior."""

import errno
import gc
import io
import json
import re
import time
import warnings

import numpy as np
import pytest

from oracles import bin_index
from smlbayes import (
    DataError,
    Dataset,
    DatasetEncoder,
    DiscretizationSpec,
    Schema,
    SplitPlan,
    derive_seed,
    encode,
    fit_discretization,
    fit_equal_frequency,
    load_csv,
    split,
)
from smlbayes.data import RawColumn, RawTable, split_indices


def _csv(text: str) -> bytes:
    return text.strip().encode() + b"\n"


class TestLoadCsv:
    def test_numeric_and_categorical_inference(self):
        raw = load_csv(_csv("a,b,cls\n1.5,x,yes\n2,y,no\n3e1,x,yes"), "cls")
        kinds = {c.name: c.kind for c in raw.predictors}
        assert kinds == {"a": "numeric", "b": "categorical"}
        assert raw.predictors[0].values == [1.5, 2.0, 30.0]
        assert raw.class_column.values == ["yes", "no", "yes"]

    def test_mixed_cells_make_column_categorical(self):
        raw = load_csv(_csv("a,cls\n1,yes\nnot_a_number,no"), "cls")
        assert raw.predictors[0].kind == "categorical"

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "Infinity", "NaN"])
    def test_non_finite_numeric_cell_rejected(self, cell):
        with pytest.raises(DataError, match=f"column 'a': non-finite number '{cell}'"):
            load_csv(_csv(f"a,b,cls\n1,x,yes\n{cell},y,no\n3,x,yes"), "cls")

    @pytest.mark.parametrize("cells", [["1_0", "2_0", "3_0"], ["\u0661\u0662", "2", "3"], ["1_0", "nan", "3"]])
    def test_underscores_and_non_ascii_digits_are_text(self, cells):
        # float() reads '1_0' as 10.0 and Arabic-Indic digits as 12.0
        rows = "\n".join(f"{c},{'pq'[i % 2]}" for i, c in enumerate(cells))
        raw = load_csv(f"id,cls\n{rows}\n".encode(), "cls")
        assert [(c.kind, c.values) for c in raw.predictors] == [("categorical", cells)]

    def test_non_finite_text_in_categorical_column_is_a_level(self):
        raw = load_csv(_csv("a,cls\nnan,yes\nred,no"), "cls")
        assert raw.predictors[0].values == ["nan", "red"]

    def test_unknown_class_column(self):
        with pytest.raises(DataError, match="unknown class column"):
            load_csv(_csv("a,b\n1,2"), "nope")

    def test_ragged_row_names_line(self):
        with pytest.raises(DataError, match="line 3"):
            load_csv(_csv("a,b,cls\n1,2,yes\n1,2"), "cls")

    def test_empty_file(self):
        with pytest.raises(DataError, match="header"):
            load_csv(b"", "cls")

    def test_missing_cell_rejected(self):
        with pytest.raises(DataError, match="empty cell"):
            load_csv(_csv("a,cls\n,yes"), "cls")

    def test_duplicate_header(self):
        with pytest.raises(DataError, match="duplicate"):
            load_csv(_csv("a,a,cls\n1,2,yes"), "cls")

    def test_header_only_gives_zero_rows(self):
        raw = load_csv(_csv("a,cls"), "cls")
        assert raw.n_rows == 0

    def test_path_input(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_bytes(_csv("a,cls\n1,yes\n2,no"))
        assert load_csv(p, "cls").n_rows == 2

    def test_quoted_fields(self):
        raw = load_csv(_csv('a,cls\n"hello, world",yes\nplain,no'), "cls")
        assert raw.predictors[0].values == ["hello, world", "plain"]

    def test_path_input_closes_its_file(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_bytes(_csv("a,cls\n1,yes\n2,no"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            load_csv(p, "cls")
            with pytest.raises(DataError):
                load_csv(p, "nope")
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_binary_stream_stays_open(self):
        stream = io.BytesIO(_csv("a,cls\n1,yes\n2,no"))
        assert load_csv(stream, "cls").n_rows == 2
        gc.collect()
        assert not stream.closed

    def test_read_error_is_a_data_error(self):
        class FailingRaw(io.RawIOBase):
            def readable(self):
                return True

            def readinto(self, buffer):
                raise OSError(errno.EIO, "Input/output error")

        with pytest.raises(DataError, match=r"cannot read input: \[Errno 5\] Input/output error"):
            load_csv(io.BufferedReader(FailingRaw()), "cls")

    def test_utf8_byte_order_mark_is_dropped(self, tmp_path):
        text = b"\xef\xbb\xbf" + _csv("cls,a\nyes,1\nno,2")
        p = tmp_path / "bom.csv"
        p.write_bytes(text)
        for source in (text, p, io.BytesIO(text)):
            raw = load_csv(source, "cls")
            assert raw.class_column.values == ["yes", "no"]
            assert [c.name for c in raw.predictors] == ["a"]

    @pytest.mark.parametrize("ending", [b"\r", b"\n", b"\r\n"])
    def test_bytes_split_lines_as_a_file_does(self, tmp_path, ending):
        text = ending.join([b"a,cls", b"1,p", b'"2\r\n3",q', b"4,p", b""])
        p = tmp_path / "lines.csv"
        p.write_bytes(text)
        tables = [load_csv(source, "cls") for source in (text, p, io.BytesIO(text))]
        assert tables[0] == tables[1] == tables[2]
        assert tables[0].class_column.values == ["p", "q", "p"]

    def test_csv_module_fault_is_a_data_error(self, tmp_path):
        text = b"a,cls\n1,p\n" + b"2" * 200_000 + b",q\n"
        p = tmp_path / "big.csv"
        p.write_bytes(text)
        for source, name in ((text, "input"), (io.BytesIO(text), "input"), (p, str(p))):
            with pytest.raises(DataError) as info:
                load_csv(source, "cls")
            assert str(info.value) == f"cannot read {name}: line 3: field larger than field limit (131072)"
            assert info.value.__cause__ is None

    def test_repeated_cells_share_one_string(self):
        lines = ["a,cls"] + [f"{i},{'yes' if i % 2 else 'no'}" for i in range(3000)]
        raw = load_csv(_csv("\n".join(lines)), "cls")
        labels = raw.class_column.values
        assert labels[1] is labels[3] and labels[0] is labels[2]
        # a column past the sharing limit still loads every value
        assert raw.predictors[0].values == [float(i) for i in range(3000)]


class TestEqualFrequency:
    def test_nine_values_three_bins(self):
        assert fit_equal_frequency([float(v) for v in range(1, 10)], 3) == [3.0, 6.0]

    def test_all_equal_collapses(self):
        assert fit_equal_frequency([7.0] * 12, 3) == []

    def test_tied_run_is_never_split(self):
        cuts = fit_equal_frequency([1.0, 1.0, 1.0, 1.0, 2.0, 3.0], 3)
        bins = [bin_index(v, cuts) for v in [1.0, 1.0, 1.0, 1.0, 2.0, 3.0]]
        assert len(set(bins[:4])) == 1  # the four 1s share a bin

    def test_single_bin(self):
        assert fit_equal_frequency([1.0, 2.0, 3.0], 1) == []

    def test_cut_count_bounded(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(1, 40))
            bins = int(rng.integers(1, 7))
            values = rng.choice([0.0, 1.0, 2.5, 7.0], size=n).tolist()
            cuts = fit_equal_frequency(values, bins)
            assert len(cuts) <= bins - 1
            assert all(b > a for a, b in zip(cuts, cuts[1:]))
            assert set(cuts) <= set(values)  # cuts sit on order statistics

    def test_duplicate_free_occupancy_within_one(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(2, 60))
            bins = int(rng.integers(1, 7))
            values = rng.permutation(n).astype(float).tolist()
            cuts = fit_equal_frequency(values, bins)
            occ = np.bincount(
                [bin_index(v, cuts) for v in values], minlength=len(cuts) + 1
            )
            assert occ.max() - occ.min() <= 1

    def test_ties_stay_together_randomized(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            values = rng.integers(0, 5, size=int(rng.integers(1, 40))).astype(float)
            cuts = fit_equal_frequency(values.tolist(), int(rng.integers(1, 5)))
            by_value = {}
            for v in values:
                by_value.setdefault(float(v), set()).add(bin_index(v, cuts))
            assert all(len(s) == 1 for s in by_value.values())

    def test_long_tie_run_at_one_bin_per_value_is_fast(self):
        # each edge jumps past its run of ties at once; a walk per edge took
        # seconds for 20,000 values
        values = [0.0] * 19_999 + [1.0]
        began = time.perf_counter()
        assert fit_equal_frequency(values, 20_000) == [0.0]
        assert fit_equal_frequency(values, 10**18) == [0.0]
        assert time.perf_counter() - began < 1.0

    def test_empty_values_rejected(self):
        with pytest.raises(ValueError):
            fit_equal_frequency([], 3)

    @pytest.mark.parametrize(
        "values", [[3, float("nan"), 1, 2, 5, 4], [3, 1, 2, 5, 4, float("nan")]]
    )
    def test_nan_rejected_wherever_it_sits(self, values):
        # sorting cannot place NaN, so the cuts would depend on where it sits
        with pytest.raises(ValueError, match="NaN"):
            fit_equal_frequency(values, 3)


class TestDiscretizationSpec:
    def test_json_round_trip(self):
        spec = DiscretizationSpec({"a": (3.0, 6.0), "b": (0.5,)}, bins=3)
        again = DiscretizationSpec.from_json_dict(
            json.loads(json.dumps(spec.to_json_dict()))
        )
        assert again == spec

    def test_rejects_nonincreasing_cuts(self):
        with pytest.raises(ValueError):
            DiscretizationSpec({"a": (2.0, 2.0)}, bins=3)

    def test_rejects_too_many_cuts(self):
        with pytest.raises(ValueError):
            DiscretizationSpec({"a": (1.0, 2.0, 3.0)}, bins=3)

    @pytest.mark.parametrize("cuts", [(float("nan"),), (1.0, float("nan"))])
    def test_rejects_nan_cuts(self, cuts):
        with pytest.raises(ValueError, match="NaN"):
            DiscretizationSpec({"a": cuts}, bins=3)


class TestEncode:
    def test_numeric_binning(self):
        raw = load_csv(
            _csv("a,cls\n" + "\n".join(f"{v},{'y' if v % 2 else 'n'}" for v in range(1, 10))),
            "cls",
        )
        data = encode(raw, fit_discretization(raw, 3))
        assert data.schema.predictor_arities == (3,)
        assert data.rows[:, 0].tolist() == [0, 0, 0, 1, 1, 1, 2, 2, 2]
        assert data.n_rows == raw.n_rows

    def test_categorical_first_appearance_order(self):
        raw = load_csv(_csv("b,cls\nx,1\ny,0\nx,1"), "cls")
        data = encode(raw, fit_discretization(raw, 3))
        assert data.rows[:, 0].tolist() == [0, 1, 0]
        assert data.schema.predictor_arities == (2,)
        # class labels are dense indices in first-appearance order too
        assert data.labels.tolist() == [0, 1, 0]

    def test_empty_table(self):
        raw = load_csv(_csv("a,cls"), "cls")
        data = encode(raw, fit_discretization(raw, 3))
        assert data.n_rows == 0

    def test_encoder_round_trip_preserves_encoding(self):
        raw = load_csv(_csv("a,b,cls\n1,x,p\n5,y,q\n9,x,p"), "cls")
        enc = DatasetEncoder.fit(raw, fit_discretization(raw, 3))
        again = DatasetEncoder.from_json_dict(
            json.loads(json.dumps(enc.to_json_dict()))
        )
        d1, d2 = enc.encode_table(raw), again.encode_table(raw)
        assert np.array_equal(d1.rows, d2.rows)
        assert np.array_equal(d1.labels, d2.labels)

    def test_unseen_categorical_encodes_out_of_range(self):
        raw = load_csv(_csv("b,cls\nx,1\ny,0"), "cls")
        enc = DatasetEncoder.fit(raw, fit_discretization(raw, 3))
        assert enc.encode_value("b", "categorical", "z") == 2


    def test_class_values_encode_by_text_to_their_first_index(self):
        # a hand-edited encoder may list a class value twice, or a non-str one
        encoder = DatasetEncoder(
            (), (), DiscretizationSpec({}), {}, "y", ("p", "q", "p", "1", 2)
        )
        raw = RawTable([], RawColumn("y", "categorical", ["q", "p", 1, "1"]))
        assert encoder.encode_table(raw).labels.tolist() == [1, 0, 3, 3]
        for value in ("2", 2, "r"):
            raw = RawTable([], RawColumn("y", "categorical", ["p", value, "r"]))
            with pytest.raises(DataError, match=f"^unseen class value {re.escape(repr(value))}$"):
                encoder.encode_table(raw)

class TestDatasetInvariants:
    def test_rejects_label_outside_arity(self):
        schema = Schema(("x0",), (2,), "y", 2)
        with pytest.raises(ValueError):
            Dataset(schema, np.zeros((1, 1), dtype=int), np.array([2]))

    def test_rejects_value_outside_arity(self):
        schema = Schema(("x0",), (2,), "y", 2)
        with pytest.raises(ValueError):
            Dataset(schema, np.array([[2]]), np.array([0]))

    def test_rejects_float_rows(self):
        schema = Schema(("a",), (3,), "y", 2)
        with pytest.raises(TypeError, match="^rows must hold integers, not float64 values$"):
            Dataset(schema, np.array([[1.7], [0.2]]), np.array([0, 1]))

    def test_rejects_float_labels(self):
        schema = Schema(("a",), (3,), "y", 2)
        with pytest.raises(TypeError, match="^labels must hold integers, not float64 values$"):
            Dataset(schema, np.array([[1], [0]]), np.array([0.9, 1.0]))
        # empty float arrays hold no value to truncate
        assert Dataset(Schema((), (), "y", 2), np.zeros((3, 0)), np.array([0, 1, 1])).n_rows == 3

    def test_rows_are_read_only(self):
        schema = Schema(("x0",), (2,), "y", 2)
        data = Dataset(schema, np.array([[1]]), np.array([0]))
        with pytest.raises(ValueError):
            data.rows[0, 0] = 0

    def test_rows_are_column_major(self):
        schema = Schema(("x0", "x1"), (2, 3), "y", 2)
        data = Dataset(schema, np.array([[1, 2], [0, 1], [1, 0]]), np.array([0, 1, 0]))
        assert data.rows.flags.f_contiguous
        assert data.rows[:, 1].flags.c_contiguous
        assert data.take(np.array([2, 0])).rows.flags.f_contiguous


class TestSplit:
    def _data(self, n):
        schema = Schema(("x0",), (max(n, 2),), "y", 2)
        return Dataset(
            schema, np.arange(n).reshape(n, 1), np.zeros(n, dtype=int)
        )

    def test_sizes_use_ceiling(self):
        train, test = split(self._data(4), SplitPlan(0.75, 1, 0))
        assert (train.n_rows, test.n_rows) == (3, 1)

    def test_multiset_preserved(self):
        data = self._data(17)
        train, test = split(data, SplitPlan(0.6, 9, 3))
        combined = sorted(train.rows[:, 0].tolist() + test.rows[:, 0].tolist())
        assert combined == list(range(17))

    def test_pure_function_of_plan(self):
        data = self._data(20)
        a = split(data, SplitPlan(0.75, 5, 2))
        b = split(data, SplitPlan(0.75, 5, 2))
        assert np.array_equal(a[0].rows, b[0].rows)
        assert np.array_equal(a[1].rows, b[1].rows)

    def test_trials_differ(self):
        perms = [
            tuple(split_indices(30, SplitPlan(0.75, 1, t))[0].tolist())
            for t in range(50)
        ]
        assert len(set(perms)) > 1

    def test_too_small_to_split(self):
        with pytest.raises(DataError):
            split(self._data(1), SplitPlan(0.75, 1, 0))


class TestSeedDerivation:
    def test_pure_and_stable(self):
        assert derive_seed(1, 0) == derive_seed(1, 0)
        assert derive_seed(1, 0) != derive_seed(1, 1)
        assert derive_seed(1, 0) != derive_seed(2, 0)

    def test_spread(self):
        seeds = {derive_seed(123, t) for t in range(1000)}
        assert len(seeds) == 1000
