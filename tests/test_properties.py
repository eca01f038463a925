"""Property checks of the vectorized scoring kernel against simple references."""

import math

import mpmath as mp
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import dict_count_table
from smlbayes import Dataset, Schema, build_count_table, log_family_score


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
    assert table.configs == configs
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
    # 3**40 > 2**62: configurations are sorted as rows, not as integer keys
    table = _assert_matches_dict_oracle(*case)
    assert table.q > 2**62


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
