"""Spans around calls into flapwear's public functions, for the traced run.

The tracer replaces module attributes with timing wrappers. A function
imported by name into another module (``engine.argmax_class``,
``simulate.classify_run``) is found by identity and replaced there too,
so every call site is traced. Spans are kept in memory and saved when
the run ends; self times are computed afterwards from the saved file.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# Traced functions by span name, "<module>.<function>", with the per-layer
# metrics reported for each: (name, call count, summed self time).
LAYERS = (
    ("predictions.parse_prediction_file", True, True),
    ("predictions.validate_vector", True, True),
    ("predictions.argmax_class", True, True),
    ("predictions.confidence", True, True),
    ("engine.classify_run", True, True),
    ("engine.ensemble_classify", True, True),
    ("engine.to_record", True, True),
    ("taxonomy.check_consistency", True, True),
    ("taxonomy.outcome_from_parts", True, True),
    ("cli.main", False, True),
    ("metrics.accumulate", True, True),
    ("metrics.roc_curve", True, True),
    ("metrics.matrix_summary", False, True),
    ("metrics.confidence_stats", False, True),
    ("metrics.write_confusion_csv", False, True),
    ("metrics.round_report", True, False),
    ("synth.generate_observation", True, True),
    ("synth.observation_vectors", True, True),
    ("synth.sample_oracle_predictions", True, True),
    ("simulate.run_synthetic_batch", False, True),
    ("simulate.spec_for_outcome", False, True),
    ("simulate.oracle_branch_trials", False, True),
    ("simulate.run_oracle_batch", False, True),
    ("propagation.propagation_report", False, True),
)
# Spans whose callables are not the module attribute of the same name.
ATTRIBUTE_PATHS = {
    "engine.to_record": ("engine.RunResult.to_record", "engine.EnsembleResult.to_record"),
}
NO_PARENT = -1


class Tracer:
    """Span store: name index, start, end and parent span of every traced call."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self._stack = [NO_PARENT]

    def wrap(self, span_name: str, fn):
        if span_name not in self.names:
            self.names.append(span_name)
        idx = self.names.index(span_name)
        name, start, end, parent, stack = self.name, self.start, self.end, self.parent, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name.append(idx)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return traced

    def install(self, package: str = "flapwear") -> None:
        """Wrap every traced function, in every loaded module of the package that holds it."""
        modules = [m for n, m in sys.modules.items() if n == package or n.startswith(package + ".")]
        for span_name, _, _ in LAYERS:
            for path in ATTRIBUTE_PATHS.get(span_name, (span_name,)):
                *owner_path, attr = path.split(".")
                owner = sys.modules.get(f"{package}.{owner_path[0]}")
                for part in owner_path[1:]:
                    owner = getattr(owner, part, None)
                original = getattr(owner, attr, None)
                if original is None:  # gone from the program: the span reports no calls
                    continue
                wrapper = self.wrap(span_name, original)
                setattr(owner, attr, wrapper)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
        )


def self_times(start, end, parent) -> np.ndarray:
    """Per span: its duration minus the durations of its direct children.

    Traced code is single-threaded and synchronous, so the children of a
    span run one after another inside it and never overlap; the part of
    its interval they cover is the sum of their durations.
    """
    parent = np.asarray(parent, dtype=np.int64)
    duration = np.asarray(end, dtype=np.float64) - np.asarray(start, dtype=np.float64)
    has_parent = parent != NO_PARENT
    covered = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=len(duration))
    return duration - covered


def summarize(path) -> dict[str, dict[str, float]]:
    """Calls and summed self time per span name, from a saved span file."""
    with np.load(path) as spans:
        names = [str(n) for n in spans["names"]]
        name = spans["name"]
        self_s = self_times(spans["start"], spans["end"], spans["parent"])
    calls = np.bincount(name, minlength=len(names))
    totals = np.bincount(name, weights=self_s, minlength=len(names))
    return {n: {"calls": int(calls[i]), "self_s": float(totals[i])} for i, n in enumerate(names)}
