"""In-memory spans for the traced benchmark run.

Spans are recorded only from the benchmark's files: around the steps the
worker runs (a suite, an oracle call, a CLI invocation) and around calls
into hypmetrics' public functions, which `instrument` replaces by timing
wrappers in every hypmetrics module that holds them. A span records its
name, start, end, parent span and op id. Self time is a span's duration
minus the part of it that its child spans cover.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager

import numpy as np

# Public functions wrapped in the traced run, by defining module. Each is
# replaced wherever a hypmetrics module holds it (`from .x import f` copies
# the reference), so calls between modules are seen too.
WRAPPED = {
    "metrics": ["eval_many"],
    "curvature": ["curvature_at"],
    "distances": ["dist_disk", "dist_halfplane", "dist_strip", "dist_punctured_disk",
                  "dist_annulus", "covering_decay_ratio", "comparability_constants"],
    "inequalities": ["ahlfors_check", "beardon_minda_bound", "boundary_max_ratio",
                     "harnack_bound", "harnack_conical_bound", "hopf_functional",
                     "hopf_conical_functional", "radial_solution_space_check",
                     "aux_v", "aux_v_alpha"],
    "extrapolation": ["extrapolate"],
    "liouville": ["integrate_radial", "classify_singularity"],
    "rigidity": ["dichotomy_report", "decay_exponent_fit"],
}

NAME, START, END, PARENT, OP = range(5)


class Tracer:
    """Spans as [name, start_ns, end_ns, parent_index, op_id] lists."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.missing: list[str] = []
        self.op = None
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.op])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def self_ns(self) -> list[int]:
        """Self time of every span, in nanoseconds."""
        out = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                out[s[PARENT]] -= s[END] - s[START]
        return out


def _wrap(tracer: Tracer, name: str, fn):
    if name == "metrics.eval_many":
        @functools.wraps(fn)
        def wrapper(metric, zs, *args, **kwargs):
            tracer.count("metrics.eval_many.points", int(np.size(zs)))
            idx = tracer.begin(name)
            try:
                return fn(metric, zs, *args, **kwargs)
            finally:
                tracer.end(idx)
        return wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(idx)
    return wrapper


@contextmanager
def instrument(tracer: Tracer):
    """Wrap every WRAPPED function for the duration of the block.

    A name that no longer exists is recorded in tracer.missing instead of
    failing, so a refactor that removes it shows as a missing metric.
    """
    replaced = []
    for short, names in WRAPPED.items():
        try:
            module = importlib.import_module(f"hypmetrics.{short}")
        except ImportError:
            tracer.missing.extend(f"{short}.{n}" for n in names)
            continue
        for fn_name in names:
            original = getattr(module, fn_name, None)
            if original is None:
                tracer.missing.append(f"{short}.{fn_name}")
                continue
            wrapper = _wrap(tracer, f"{short}.{fn_name}", original)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "hypmetrics"
                                       or mod_name.startswith("hypmetrics.")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        replaced.append((mod, attr, original))
    try:
        yield tracer
    finally:
        for mod, attr, original in reversed(replaced):
            setattr(mod, attr, original)
