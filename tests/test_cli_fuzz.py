"""Fuzzed command lines: every run ends in exit 0, 2 or 3, a failure says so
in one line, and no file a command writes holds a non-finite number or a
log score above 0.

Arguments are drawn for all four subcommands over small generated CSVs and
over model files that `train` wrote. Each draw picks at most two faults (a
flag with a bad value or left out, a broken CSV, an unknown command or
flag) and gives every other flag a good value or leaves an optional one
out, so each fault is reached alone as well as with another. Model files
with one integer or one float edited are predicted from as well: they end in
exit 0 or 2.
"""

import contextlib
import io
import json
import math
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from smlbayes.cli import main

# no cell, name or class value spells nan or inf, so any such word in an
# output file is a number the program wrote
_NON_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)

_NUMBERS = ["1", "2.5", "-3", "4e1", "0", " 7 "]
_TEXTS = ["x", "y", "z", " w ", "1_0"]
_CLASSES = ["p", "q", "r"]

_GOOD_PRIORS = [
    "uniform:1", "uniform", "bdeu:2", "uniform:0.5", "bdeu:1e-3", "bdeu:40", "uniform:1e16", "uniform:1e300",
]
_BAD_PRIORS = [
    "uniform:0", "bdeu:-1", "uniform:nan", "bdeu:inf", "uniform:1e-320",
    "uniform:1e306", "jeffreys", "uniform:x",
]
_GOOD_TOKENS = ["nb", "om1", "om2", "pm", "anb"]
_BAD_TOKENS = ["om3", "om0", "om9", "", "xyz"]

# faults that are not a flag's value
_COMMAND, _CSV, _BOGUS = "command", "csv", "--bogus"


def _flag_table(workdir: Path, models: dict) -> dict:
    """Per command: (flag, good values, bad values); None leaves the flag out."""
    out = ("--out", [str(workdir / "out")], [
        None,
        str(workdir / "missing" / "out"),  # in a directory that does not exist
        str(workdir),  # a directory
    ])
    data = [
        ("--data", [str(workdir / "data.csv")], [None, str(workdir / "none.csv")]),
        ("--class-col", ["cls"], [None, "nope"]),
        ("--bins", [None, "1", "2", "3"], ["0", "-1", "x"]),
        ("--prior", [None, *_GOOD_PRIORS], _BAD_PRIORS),
        ("--seed", [None, "1", "7", "-3"], ["x", "1.5"]),
        ("--restarts", ["1", "2"], ["0", "x"]),
        ("--patience", ["1", "5"], ["0", "-2"]),
        ("--max-block-size", [None, "1", "2"], ["0"]),
    ]
    tokens = st.lists(st.sampled_from(_GOOD_TOKENS), min_size=1, max_size=3, unique=True)
    bad_tokens = st.sampled_from([None, ",", "nb,nb", *_BAD_TOKENS]) | tokens.map(lambda t: ",".join(t + ["om9"]))
    return {
        "eval": [
            *data,
            ("--classifiers", tokens.map(",".join), bad_tokens),
            ("--trials", ["1", "2"], [None, "0", "-1", "x"]),  # None runs the default 50 trials
            ("--train-frac", [None, "0.5", "0.75"], ["0", "1", "1.5", "nan", "x"]),
            ("--global-discretize", [None, "true", "false"], ["maybe"]),
            out,
        ],
        "search": [*data, out],
        "train": [*data, ("--classifier", _GOOD_TOKENS, [None, *_BAD_TOKENS]), out],
        "predict": [
            ("--model", [str(m) for m in models.values()],
             [None, str(workdir / "none.json"), str(workdir / "input.csv")]),
            ("--input", [str(workdir / "input.csv")], [None, str(workdir / "none.csv")]),
            out,
        ],
    }


# the keys under which a report holds log scores, each one a log-probability
_SCORE_KEYS = {"log_value", "member_log_scores", "initial_score", "final_score"}


def _scores(node):
    """Every score in a JSON value, as a float."""
    if isinstance(node, dict):
        for key, value in node.items():
            if key in _SCORE_KEYS:
                yield from map(float, value if isinstance(value, list) else [value])
            else:
                yield from _scores(value)
    elif isinstance(node, list):
        for value in node:
            yield from _scores(value)


def _values(values):
    return values if isinstance(values, st.SearchStrategy) else st.sampled_from(values)


@st.composite
def csv_texts(draw, names, numeric, broken):
    """A CSV over `names` and a class column; `numeric` maps a column to its
    kind, and an unmapped column gets either. A broken CSV lacks the class
    column, holds fewer than two rows, or has one empty cell, short row or
    text cell in a numeric column."""
    fault = None
    if broken:
        fault = draw(st.sampled_from(["no class", "few rows", "empty cell", "short row", "text"]))
    header = list(names) if fault == "no class" else [*names, "cls"]
    pools = {name: _CLASSES for name in header}
    for name in names:
        pools[name] = _NUMBERS if numeric.get(name, draw(st.booleans())) else _TEXTS
    rows = [[draw(st.sampled_from(pools[name])) for name in header] for _ in range(draw(st.integers(4, 10)))]
    if fault == "few rows":
        rows = rows[:draw(st.integers(0, 1))]
    elif fault in ("empty cell", "short row", "text"):
        row = draw(st.sampled_from(rows))
        j = draw(st.integers(0, len(header) - 1))
        if fault == "short row":
            del row[j]
        else:
            row[j] = "" if fault == "empty cell" else "word"
    return "\n".join(",".join(row) for row in [header, *rows]) + "\n"


@st.composite
def argvs(draw, workdir: Path, models: dict):
    """(argv, {name: text} of the files the command reads) for one command."""
    table = _flag_table(workdir, models)
    command = draw(st.sampled_from(sorted(table)))
    flags = table[command]
    # a shuffle spreads the faults evenly; drawn elements lean to the first
    kinds = draw(st.permutations([_COMMAND, _CSV, _BOGUS, *(f for f, _, _ in flags)]))
    faults = set(kinds[:draw(st.sampled_from([0, 1, 1, 1, 2]))])
    argv = ["fit" if _COMMAND in faults else command]
    for flag, good, bad in flags:
        value = draw(_values(bad if flag in faults else good))
        if value is not None:
            argv += [flag, value]
    if _BOGUS in faults:
        argv.append(_BOGUS)
    if command == "predict":
        # the model files were trained on a numeric `a` and a text `b`
        files = {"input.csv": draw(csv_texts(["a", "b"], {"a": True, "b": False}, _CSV in faults))}
    else:
        names = draw(st.sampled_from([["a", "b"], ["a", "b", "c"], ["a"], []]))
        files = {"data.csv": draw(csv_texts(names, {}, _CSV in faults))}
    return argv, files


@pytest.fixture(scope="module")
def models(tmp_path_factory):
    """Model files of every kind, trained on a 12-row CSV with one numeric
    and one text predictor."""
    root = tmp_path_factory.mktemp("models")
    data = root / "train.csv"
    rows = [f"{i},{'xyz'[i % 3]},{'pq'[i > 6]}" for i in range(1, 13)]
    data.write_text("\n".join(["a,b,cls", *rows]) + "\n", encoding="utf-8")
    paths = {}
    for kind in _GOOD_TOKENS:
        paths[kind] = root / f"{kind}.json"
        argv = ["train", "--data", str(data), "--class-col", "cls", "--classifier", kind,
                "--restarts", "2", "--patience", "5", "--out", str(paths[kind])]
        assert main(argv) == 0
    return paths


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=600, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_fuzzed_command_lines_exit_cleanly(models, scratch, data):
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        workdir = Path(tmp)
        argv, files = data.draw(argvs(workdir, models))
        for name, text in files.items():
            (workdir / name).write_text(text, encoding="utf-8")
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        err = stderr.getvalue()
        event(f"{argv[0]} exits {code}")
        assert code in (0, 2, 3), (argv, err)
        if code:
            assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), (argv, err)
        for path in workdir.rglob("*"):
            if path.is_file() and path.name not in files:
                text = path.read_text(encoding="utf-8")
                match = _NON_FINITE.search(text)
                assert match is None, (argv, path.name, match)
                if text.startswith("{"):
                    scores = list(_scores(json.loads(text)))
                    assert all(v <= 0.0 for v in scores), (argv, path.name, scores)


def _integer_paths(node, path=()):
    """The path of every integer in a JSON value (booleans excluded)."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _integer_paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _integer_paths(value, path + (i,))
    elif isinstance(node, int) and not isinstance(node, bool):
        yield path


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_model_file_with_one_edited_integer_exits_0_or_2(models, scratch, data):
    kind = data.draw(st.sampled_from(sorted(models)))
    payload = json.loads(models[kind].read_text(encoding="utf-8"))
    *keys, last = data.draw(st.sampled_from(list(_integer_paths(payload))))
    node = payload
    for key in keys:
        node = node[key]
    old = node[last]
    node[last] = data.draw(st.sampled_from([old - 1, old + 1, -old, 0, -1, 2 * old + 7, 2**63, 2**64 + 1, old + 0.5]))
    event(f"{kind} {'.'.join(k for k in [*keys, last] if isinstance(k, str))}")
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        workdir = Path(tmp)
        (workdir / "model.json").write_text(json.dumps(payload), encoding="utf-8")
        (workdir / "input.csv").write_text(
            data.draw(csv_texts(["a", "b"], {"a": True, "b": False}, False)), encoding="utf-8")
        out = workdir / "out.csv"
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
            code = main(["predict", "--model", str(workdir / "model.json"),
                         "--input", str(workdir / "input.csv"), "--out", str(out)])
        err = stderr.getvalue()
        assert code in (0, 2), (keys, last, node[last], err)
        if code:
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert not out.exists()
        else:
            assert _NON_FINITE.search(out.read_text(encoding="utf-8")) is None


_FLOAT_FIELDS = ("strength", "cut_points", "log_q")


def _float_paths(node, path=()):
    """(field, path) of the prior strength, of every cut point and of every
    table's log q in a model file."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _float_paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _float_paths(value, path + (i,))
    elif isinstance(node, float):
        for field in set(_FLOAT_FIELDS).intersection(path):
            yield field, path


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_model_file_with_one_edited_float_exits_0_or_2(models, scratch, data):
    kind = data.draw(st.sampled_from(sorted(models)))
    payload = json.loads(models[kind].read_text(encoding="utf-8"))
    paths = {}
    for field, path in _float_paths(payload):
        paths.setdefault(field, []).append(path)
    # the field first, so a strength is edited as often as a cut point
    field = data.draw(st.sampled_from(sorted(paths)))
    *keys, last = data.draw(st.sampled_from(paths[field]))
    node = payload
    for key in keys:
        node = node[key]
    node[last] = data.draw(st.sampled_from([math.inf, -math.inf, math.nan, 0, -1, 1e-320, 1e308, "inf"]))
    event(f"{kind} {'.'.join(k for k in [*keys, last] if isinstance(k, str))} {node[last]!r}")
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        workdir = Path(tmp)
        (workdir / "model.json").write_text(json.dumps(payload), encoding="utf-8")
        (workdir / "input.csv").write_text(
            data.draw(csv_texts(["a", "b"], {"a": True, "b": False}, False)), encoding="utf-8")
        out = workdir / "out.csv"
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
            code = main(["predict", "--model", str(workdir / "model.json"),
                         "--input", str(workdir / "input.csv"), "--out", str(out)])
        err = stderr.getvalue()
        assert code in (0, 2), (keys, last, node[last], err)
        if code:
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert not out.exists()
        else:
            assert _NON_FINITE.search(out.read_text(encoding="utf-8")) is None
