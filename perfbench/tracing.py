"""Out-of-tree tracing: wrap smlbayes functions and record spans in memory.

The wrappers are installed from outside the package, on every module
attribute that is bound to the wrapped function (``search`` and
``classifiers`` import ``build_count_table`` by name, for example), so no
source file changes. A span is (name, parent span, start, end); spans are
kept in flat arrays and written out once, when the traced run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from pathlib import Path

import numpy as np

# (module, qualified name) of every function traced as a span
SPAN_TARGETS = (
    ("data", "load_csv"),
    ("data", "fit_discretization"),
    ("data", "DatasetEncoder.fit"),
    ("data", "DatasetEncoder.encode_table"),
    ("data", "DatasetEncoder.encode_predictor_rows"),
    ("data", "split_indices"),
    ("scoring", "build_count_table"),
    ("scoring", "log_sml"),
    ("scoring", "log_family_score"),
    ("search", "pm_search"),
    ("search", "propose_move"),
    ("search", "PartitionScorer.block_score"),
    ("classifiers", "build_nb"),
    ("classifiers", "build_omi"),
    ("classifiers", "build_pm_mixture"),
    ("classifiers", "build_anb"),
    ("classifiers", "NBClassifier.predict"),
    ("classifiers", "MixtureClassifier.predict"),
    ("classifiers", "ANBClassifier.predict"),
    ("harness", "run_trials"),
    ("harness", "zero_one_loss"),
    ("harness", "log_loss"),
    ("model_io", "model_to_json_dict"),
    ("model_io", "load_model"),
    ("cli", "main"),
)

# called once per CSV cell: counted only, a span each would dominate the run
COUNT_TARGETS = (("data", "DatasetEncoder.encode_value"),)

# rows tallied per build_count_table call, read from its Dataset argument
ROWS_OF = {"scoring.build_count_table": lambda data, *_a, **_k: data.n_rows}


class Tracer:
    """Span and call-count recorder for one single-threaded process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, int] = {}
        self.rows: dict[str, int] = {}
        self._stack = [-1]

    def span_wrapper(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        rows_of = ROWS_OF.get(name)
        if rows_of is not None:
            self.rows[name] = 0
        span_name, parent, start, end = self.span_name, self.parent, self.start, self.end
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            span_name.append(name_id)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            if rows_of is not None:
                self.rows[name] += rows_of(*args, **kwargs)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def count_wrapper(self, name: str, fn):
        counts = self.counts
        counts[name] = 0

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        """Wrap every target on each smlbayes module binding that refers to it."""
        modules = [m for n, m in sys.modules.items() if n == "smlbayes" or n.startswith("smlbayes.")]
        targets = [(t, self.span_wrapper) for t in SPAN_TARGETS]
        targets += [(t, self.count_wrapper) for t in COUNT_TARGETS]
        for (mod_name, qualname), make in targets:
            module = importlib.import_module(f"smlbayes.{mod_name}")
            name = f"{mod_name}.{qualname}"
            owner_name, _, attr = qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    setattr(owner, attr, classmethod(make(name, raw.__func__)))
                else:
                    setattr(owner, attr, make(name, raw))
                continue
            original = getattr(module, attr)
            wrapped = make(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "span_name": np.frombuffer(self.span_name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path: Path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def summarize(names: list[str], spans: dict[str, np.ndarray]) -> dict[str, dict]:
    """Per span name: calls, busy seconds and self seconds.

    Self time is a span's duration minus the durations of its direct
    children; the tracer runs in one thread, so children nest strictly.
    """
    name_of, parent = spans["span_name"], spans["parent"]
    duration = spans["end"] - spans["start"]
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=len(duration))
    self_time = duration - child_time
    out = {}
    for i, name in enumerate(names):
        mask = name_of == i
        order = np.argsort(spans["start"][mask])
        starts, ends = spans["start"][mask][order], spans["end"][mask][order]
        if len(starts) > 1 and (starts[1:] < ends[:-1]).any():
            # busy time would double-count a re-entrant function
            raise RuntimeError(f"span {name} nests inside itself")
        out[name] = {
            "calls": int(mask.sum()),
            "s": float(duration[mask].sum()),
            "self_s": float(self_time[mask].sum()),
        }
    return out


def group_busy(names: list[str], spans: dict[str, np.ndarray], group: tuple[str, ...]) -> float:
    """Seconds covered by spans of `group`, counting a span nested in another member once."""
    name_of, parent = spans["span_name"], spans["parent"]
    ids = [names.index(n) for n in group]
    member = np.isin(name_of, ids)
    parent_member = np.zeros_like(member)
    has_parent = parent >= 0
    parent_member[has_parent] = member[parent[has_parent]]
    top = member & ~parent_member
    return float((spans["end"][top] - spans["start"][top]).sum())


# layers whose metric sums several traced functions
GROUPS = {
    "data.encode": (
        "data.fit_discretization",
        "data.DatasetEncoder.fit",
        "data.DatasetEncoder.encode_table",
        "data.DatasetEncoder.encode_predictor_rows",
    ),
    "classifiers.predict": (
        "classifiers.NBClassifier.predict",
        "classifiers.MixtureClassifier.predict",
        "classifiers.ANBClassifier.predict",
    ),
    "harness.losses": ("harness.zero_one_loss", "harness.log_loss"),
}


def child_count(names: list[str], spans: dict[str, np.ndarray], parent_name: str, child_name: str) -> int:
    """Number of distinct `parent_name` spans that have a direct `child_name` child."""
    name_of, parent = spans["span_name"], spans["parent"]
    pid, cid = names.index(parent_name), names.index(child_name)
    parents = parent[(name_of == cid) & (parent >= 0)]
    return int(np.unique(parents[name_of[parents] == pid]).size)
