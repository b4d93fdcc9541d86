"""Span recording around the public functions of trefftz_dd, and the
arithmetic the benchmark reports from the spans.

A traced pass replaces, for its duration only, every binding of each listed
function in the trefftz_dd modules (and each listed method on its class)
with a wrapper that records one span per call:
(name, start, end, parent, workload, run).  Spans stay in memory; the
benchmark writes them out when it ends.
"""
import functools
import math
import sys
import time
from collections import namedtuple
from contextlib import contextmanager

Span = namedtuple("Span", "name start end parent workload run")

#: span name -> (module, attribute path) of the function the span times.
#: A dotted attribute is a method, wrapped on its class; `Factorization`
#: is a class, so its constructor is what gets timed.
TARGETS = {
    "experiments.generate_urban_synthetic": ("trefftz_dd.experiments", "generate_urban_synthetic"),
    "geometry.build_skeleton": ("trefftz_dd.geometry", "build_skeleton"),
    "geometry.refine_edges": ("trefftz_dd.geometry", "refine_edges"),
    "mesh.generate_structured": ("trefftz_dd.mesh", "generate_structured"),
    "mesh.refine_toward": ("trefftz_dd.mesh", "refine_toward"),
    "mesh.red_refine": ("trefftz_dd.mesh", "red_refine"),
    "mesh.build_overlap": ("trefftz_dd.mesh", "build_overlap"),
    "fem.assemble": ("trefftz_dd.fem", "assemble"),
    "fem.solve_fine": ("trefftz_dd.fem", "solve_fine"),
    "fem.error_norms": ("trefftz_dd.fem", "error_norms"),
    "numerics.Factorization": ("trefftz_dd.numerics", "Factorization.__init__"),
    "numerics.gmres": ("trefftz_dd.numerics", "gmres"),
    "coarse.build_cell_cache": ("trefftz_dd.coarse", "build_cell_cache"),
    "coarse.build_trefftz": ("trefftz_dd.coarse", "build_trefftz"),
    "coarse.build_nicolaides": ("trefftz_dd.coarse", "build_nicolaides"),
    "coarse.coarse_approximation": ("trefftz_dd.coarse", "coarse_approximation"),
    "coarse.CoarseSpace.apply": ("trefftz_dd.coarse", "CoarseSpace.apply"),
    "schwarz.build_schwarz": ("trefftz_dd.schwarz", "build_schwarz"),
    "schwarz.apply_ras": ("trefftz_dd.schwarz", "apply_ras"),
    "schwarz.apply_two_level": ("trefftz_dd.schwarz", "apply_two_level"),
    "schwarz.solve_pgmres": ("trefftz_dd.schwarz", "solve_pgmres"),
    "schwarz.hybrid_iterate": ("trefftz_dd.schwarz", "hybrid_iterate"),
    "schwarz.ErrorMonitor.record": ("trefftz_dd.schwarz", "ErrorMonitor.record"),
}


class Tracer:
    """Collects spans; `current_run` labels the spans of one traced pass."""

    def __init__(self, workload):
        self.workload = workload
        self.current_run = 0
        self.spans = []
        self._stack = []

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = Span(name, start, end, parent,
                                         self.workload, self.current_run)
        return traced


@contextmanager
def installed(tracer):
    """Wrap every target for the duration of the block, then restore.

    A function is replaced in every trefftz_dd module namespace that binds
    it, since callers look it up there (schwarz calls its own `error_norms`
    binding, not fem's); a method is replaced on its class.
    """
    patches = []
    try:
        for name, (module_name, attr) in TARGETS.items():
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                orig = owner.__dict__[meth]
                patches.append((owner, meth, orig))
                setattr(owner, meth, tracer.wrap(name, orig))
                continue
            orig = getattr(module, attr)
            wrapper = tracer.wrap(name, orig)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "trefftz_dd" and not mod_name.startswith("trefftz_dd."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        patches.append((mod, key, orig))
                        setattr(mod, key, wrapper)
        yield tracer
    finally:
        for owner, key, orig in reversed(patches):
            setattr(owner, key, orig)


def self_times(spans):
    """Per-span self time: duration minus the union of its children's intervals."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        lo = hi = None
        for start, end in sorted((spans[c].start, spans[c].end) for c in children[i]):
            start, end = max(start, s.start), min(end, s.end)
            if hi is None or start > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = start, end
            else:
                hi = max(hi, end)
        if hi is not None:
            covered += hi - lo
        out.append((s.end - s.start) - covered)
    return out


#: percentile levels a tail may be reported at, lowest first
TAIL_LEVELS = (50, 75, 90, 95, 99, 99.9)


def tail_level(n, beyond=10):
    """Highest level in TAIL_LEVELS with at least `beyond` of n samples above
    its nearest-rank value; 50 when even the median has fewer."""
    best = TAIL_LEVELS[0]
    for q in TAIL_LEVELS:
        if n - math.ceil(q * n / 100.0) >= beyond:
            best = q
    return best


def percentile(values, q):
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered) / 100.0), 1) - 1]
