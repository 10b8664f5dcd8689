"""Spans around the package's layer boundaries, installed from outside.

The package binds several names by `from ... import`, so a function is
wrapped in every module namespace where a caller looks it up. One wrapper is
shared by all those namespaces, so a call records exactly one span.
"""

import contextlib
import functools
import importlib
import inspect
import time
from collections import Counter
from dataclasses import dataclass

# (span name, [(module, attribute), ...]); the layer is the part before the dot
WRAPPED = (
    ("statistic.pair_aggregates", [("statistic", "pair_aggregates"), ("covariance", "pair_aggregates")]),
    ("statistic.compute_statistic", [("calibration", "compute_statistic")]),
    ("covariance.estimate_plain", [("calibration", "estimate_plain"), ("covariance", "estimate_plain")]),
    ("covariance.estimate_tapered", [("calibration", "estimate_tapered")]),
    ("covariance.eigenvalues_sym", [("calibration", "eigenvalues_sym")]),
    ("calibration.simulate_null_draws", [("calibration", "simulate_null_draws")]),
    ("calibration.empirical_quantile", [("calibration", "empirical_quantile")]),
    ("calibration.run_test", [("calibration", "run_test"), ("experiments", "run_test")]),
    ("datagen.generate_scenario", [("experiments", "generate_scenario")]),
    ("experiments.run_power_curve", [("cli", "run_power_curve"), ("experiments", "run_power_curve")]),
)


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span, None at the top
    request: int  # the benchmark call (one test, or one simulate run) it served


class Tracer:
    """Records one span per wrapped call, in memory, from a single thread."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.spectrum_lengths = []
        self.request = 0  # set by the caller before each benchmark call
        self._stack = []
        self._sites = []  # (module, attribute, wrapper)
        for name, sites in WRAPPED:
            wrappers = {}
            for module, attr in sites:
                mod = importlib.import_module(f"twosample.{module}")
                fn = getattr(mod, attr, None)
                if fn is not None:
                    wrapper = wrappers.setdefault(id(fn), self._wrap(name, fn))
                    self._sites.append((mod, attr, wrapper))

    @contextlib.contextmanager
    def active(self):
        """Install the wrappers for the duration of a with block."""
        with _patched(self._sites):
            yield self

    def _wrap(self, name, fn):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = Span(name, start, end, parent, self.request)
            self.counts[name] += 1
            if name == "calibration.simulate_null_draws":
                self._count_normals(signature.bind(*args, **kwargs).arguments)
            return result

        return wrapper

    def _count_normals(self, arguments):
        size = len(arguments["spectrum"])
        self.spectrum_lengths.append(size)
        self.counts["calibration.normals"] += arguments["config"].draws * size

    def self_times(self):
        """Seconds of self time per span name: duration minus direct children."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child[span.parent] += span.end - span.start
        out = Counter()
        for span, inner in zip(self.spans, child):
            out[span.name] += span.end - span.start - inner
        return out

    def to_json(self):
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "request": s.request}
            for s in self.spans
        ]


@contextlib.contextmanager
def counting_pools(counts):
    """Count ProcessPoolExecutor constructions by the experiments module into counts."""
    experiments = importlib.import_module("twosample.experiments")
    base = getattr(experiments, "ProcessPoolExecutor", None)
    if base is None:
        yield
        return

    class CountingPool(base):
        def __init__(self, *args, **kwargs):
            counts["experiments.pools"] += 1
            super().__init__(*args, **kwargs)

    with _patched([(experiments, "ProcessPoolExecutor", CountingPool)]):
        yield


@contextlib.contextmanager
def _patched(replacements):
    saved = []
    try:
        for mod, attr, value in replacements:
            saved.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, value)
        yield
    finally:
        for mod, attr, value in reversed(saved):
            setattr(mod, attr, value)
