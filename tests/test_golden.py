"""Every golden command re-run on the committed inputs writes what
tests/golden/ holds: equal integers, strings, partitions and labels, and
floats within 4 ulp (see golden_cases.py)."""

import shutil

import pytest

from golden_cases import GOLDEN, INPUTS, OUTPUTS, differences, read_output, run_all


@pytest.fixture(scope="module")
def rerun(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    for name in INPUTS:
        shutil.copy(GOLDEN / name, out / name)
    run_all(out)
    return out


def test_commands_write_exactly_the_golden_files(rerun):
    assert sorted(p.name for p in rerun.iterdir()) == sorted(INPUTS + OUTPUTS)


@pytest.mark.parametrize("name", OUTPUTS)
def test_output_matches_golden(rerun, name):
    assert differences(read_output(rerun / name), read_output(GOLDEN / name), name) == []
