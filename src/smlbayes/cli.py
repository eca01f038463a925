"""Command line interface: eval, search, train, predict.

Every CSV, training data and predict input alike, is read under the same
rules: unique header names, one field per name in every row, no empty cell,
and finite numbers in numeric columns.

Exit codes: 0 on success, 2 for input problems (unreadable or malformed
data or model files), 3 for configuration problems (bad flags or classifier
specs, a partition search over no predictors, a prior whose scores are not
finite, an infinite log loss).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import errno
import json
import os
import shutil
import sys

from .data import DatasetEncoder, _plain, fit_discretization, load_csv, read_codes
from .errors import ConfigError, DataError
from .harness import run_trials, spec_from_token, train_model
from .model_io import load_model, model_to_json_dict
from .scoring import PRIOR_TAGS, PriorSpec
from .search import SearchConfig, pm_search

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CONFIG = 3


class _Parser(argparse.ArgumentParser):
    # surface usage problems as ConfigError so main() can map them to exit 3
    def error(self, message):
        raise ConfigError(message)


def parse_prior(text: str) -> PriorSpec:
    """uniform[:alpha] puts alpha on every cell; bdeu[:s] spreads s over the table."""
    tag, _, value = text.partition(":")
    kinds = {t: kind for kind, t in PRIOR_TAGS.items()}
    if tag not in kinds:
        raise ConfigError(f"unknown prior {text!r}; expected uniform:A or bdeu:S")
    try:
        strength = float(value) if value else 1.0
    except ValueError:
        raise ConfigError(f"bad prior strength in {text!r}") from None
    try:
        return PriorSpec(kinds[tag], strength)
    except ValueError as exc:  # the strength rule
        raise ConfigError(str(exc)) from None


def _parse_bool(text: str) -> bool:
    if text.lower() in ("true", "1", "yes"):
        return True
    if text.lower() in ("false", "0", "no"):
        return False
    raise ConfigError(f"expected true or false, got {text!r}")


def _integer(text: str) -> int:
    """An integer flag, read under the CSV number rule: ASCII digits, no '_'."""
    if _plain(text):
        with contextlib.suppress(ValueError):
            return int(text)
    raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")


def _bin_count(text: str) -> int:
    bins = _integer(text)
    if bins < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {bins}")
    return bins


def _fraction(text: str) -> float:
    try:
        frac = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not 0.0 < frac < 1.0:  # nan fails too
        raise argparse.ArgumentTypeError(f"must lie strictly between 0 and 1, got {text}")
    return frac


def _add_data_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", required=True, help="CSV file with a header row")
    p.add_argument("--class-col", required=True, help="name of the class column")
    p.add_argument(
        "--bins", type=_bin_count, default=3, help="equal-frequency bins for numeric columns"
    )


def _add_search_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=_integer, default=1)
    p.add_argument("--restarts", type=_integer, default=10)
    p.add_argument("--patience", type=_integer, default=200)
    p.add_argument("--max-block-size", type=_integer, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="smlbayes", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_eval = sub.add_parser("eval", help="repeated-split evaluation of classifiers")
    _add_data_flags(p_eval)
    p_eval.add_argument("--trials", type=_integer, default=50)
    p_eval.add_argument("--train-frac", type=_fraction, default=0.75)
    p_eval.add_argument(
        "--classifiers", required=True, help="comma list: nb, om<i>, pm, anb"
    )
    p_eval.add_argument("--prior", default="uniform:1.0")
    _add_search_flags(p_eval)
    p_eval.add_argument(
        "--global-discretize",
        default="true",
        help="false refits discretization on each trial's training half",
    )
    p_eval.add_argument("--out", required=True)

    p_search = sub.add_parser("search", help="search for a predictor partition")
    _add_data_flags(p_search)
    p_search.add_argument("--prior", default="uniform:1.0")
    _add_search_flags(p_search)
    p_search.add_argument("--out", required=True)

    p_train = sub.add_parser("train", help="train one classifier on the full dataset")
    _add_data_flags(p_train)
    p_train.add_argument("--classifier", required=True, help="nb, om<i>, pm, or anb")
    p_train.add_argument("--prior", default="uniform:1.0")
    _add_search_flags(p_train)
    p_train.add_argument("--out", required=True)

    p_pred = sub.add_parser("predict", help="predict class distributions for new rows")
    p_pred.add_argument("--model", required=True)
    p_pred.add_argument("--input", required=True, help="CSV with the predictor columns")
    p_pred.add_argument("--out", required=True)

    return parser


def _load_encoded(args):
    """The raw table, its encoder and its encoding."""
    raw = load_csv(args.data, args.class_col)
    if raw.n_rows == 0:
        raise DataError("CSV has no data rows")
    spec = fit_discretization(raw, args.bins)
    encoder = DatasetEncoder.fit(raw, spec)
    return raw, encoder, encoder.encode_table(raw)


def _create_beside(target: str) -> tuple[str, int]:
    """A new file beside `target`, opened for writing.

    O_EXCL never opens a file that is already there, so a file this run did
    not create is never truncated or removed; mode 0o666 less the umask is
    what `open(target, "w")` would have given a new file.
    """
    for n in range(100):
        tmp = f"{target}.{os.getpid()}.{n}.tmp"
        try:
            return tmp, os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        except FileExistsError:
            continue
    raise FileExistsError(errno.EEXIST, "no free temporary file name", tmp)


@contextlib.contextmanager
def _open_out(path: str, newline: str | None = None):
    """Open the --out file for writing, through a temporary file beside it.

    The temporary file replaces `path` (the file a symlink names, if it is
    one) only once the block has written its last byte, and takes the
    permission bits of the file it replaces; if the block fails, it is
    removed and a file already at `path` stays as it was. A path that
    names something other than a regular file, such as /dev/stdout or a
    pipe, is written in place: replacing it would remove it. A path that
    cannot be written is an input problem.
    """
    # exists and isfile stat through /dev/stdout's link to 'pipe:[N]',
    # which realpath cannot resolve, so decide on the path as given
    in_place = os.path.exists(path) and not os.path.isfile(path)
    target, tmp = os.path.realpath(path), None
    try:
        if in_place:
            fh = open(path, "w", newline=newline, encoding="utf-8")
        else:
            tmp, fd = _create_beside(target)
            fh = os.fdopen(fd, "w", newline=newline, encoding="utf-8")
        with fh:
            if tmp is not None and os.path.exists(target):
                shutil.copymode(target, tmp)
            yield fh
        if tmp is not None:
            os.replace(tmp, target)
            tmp = None
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc.strerror or exc}") from None
    finally:
        if tmp is not None:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)


def _write_json(path: str, payload: dict) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2)
    with _open_out(path) as fh:
        fh.write(text + "\n")


def _search_config(args) -> SearchConfig:
    return SearchConfig(
        restarts=args.restarts,
        patience=args.patience,
        max_block_size=args.max_block_size,
        seed=args.seed,
    )


def _cmd_eval(args) -> int:
    prior = parse_prior(args.prior)
    search = _search_config(args)
    tokens = [t for t in args.classifiers.split(",") if t.strip()]
    if not tokens:
        raise ConfigError("--classifiers must name at least one classifier")
    specs = [spec_from_token(t, prior, search) for t in tokens]
    global_disc = _parse_bool(args.global_discretize)
    raw, _, data = _load_encoded(args)
    report = run_trials(
        data,
        specs,
        trials=args.trials,
        train_fraction=args.train_frac,
        master_seed=args.seed,
        raw=None if global_disc else raw,
        bins=args.bins,
    )
    payload = report.to_json_dict()
    payload["config"].update(
        data=args.data,
        class_col=args.class_col,
        prior=args.prior,
        global_discretize=global_disc,
    )
    _write_json(args.out, payload)
    return EXIT_OK


def _cmd_search(args) -> int:
    prior = parse_prior(args.prior)
    config = _search_config(args)
    _, _, data = _load_encoded(args)
    result = pm_search(data, prior, config)
    payload = result.to_json_dict()
    payload["format_version"] = 1
    payload["config"] = {
        "data": args.data,
        "class_col": args.class_col,
        "bins": args.bins,
        "prior": args.prior,
        "search": config.to_json_dict(),
    }
    _write_json(args.out, payload)
    return EXIT_OK


def _cmd_train(args) -> int:
    spec = spec_from_token(args.classifier, parse_prior(args.prior), _search_config(args))
    _, encoder, data = _load_encoded(args)
    _write_json(args.out, model_to_json_dict(train_model(spec, data), encoder))
    return EXIT_OK


def _cmd_predict(args) -> int:
    model, encoder = load_model(args.model)
    codes = read_codes(args.input, encoder)
    value_names = encoder.class_labels()

    # opened only now, so input that fails to encode leaves no output file
    with _open_out(args.out, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"p_{v}" for v in value_names] + ["predicted"])
        # repr of each probability as a Python float, then the argmax's name
        writer.writerows(
            [*map(repr, dist.tolist()), value_names[dist.argmax()]]
            for dist in map(model.predict, codes)
        )
    return EXIT_OK


_COMMANDS = {
    "eval": _cmd_eval,
    "search": _cmd_search,
    "train": _cmd_train,
    "predict": _cmd_predict,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
