"""In-memory span tracer that wraps a package's public callables from outside.

A span is (name, start, end, parent).  Spans stay in memory until the caller
writes them out.  Nothing in the traced package is edited on disk: the
wrappers are installed at run time at every module attribute that binds a
traced function, so `from .assembly import Factorization`-style imports in
other modules see the wrapper too.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time
from collections import defaultdict
from dataclasses import is_dataclass
from fractions import Fraction

PROBE = "trace.probe"


class Tracer:
    """Records nested spans around wrapped callables.

    A probe runs after a wrapped call returns and may update `counters`
    (exact counts such as matrix fill).  Its time is recorded as a
    `trace.probe` span under the caller's parent, so it is charged to no
    layer's self time.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counters: dict = defaultdict(int)
        self.installed: set[str] = set()
        self._stack = [-1]

    def __len__(self):
        return len(self.names)

    def _open(self, name):
        idx = len(self.names)
        self.names.append(name)
        self.starts.append(0.0)
        self.ends.append(0.0)
        self.parents.append(self._stack[-1])
        return idx

    def wrap(self, name, fn, probe=None):
        self.installed.add(name)
        stack, clock = self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            stack.append(idx)
            self.starts[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[idx] = clock()
                stack.pop()
            if probe is not None:
                pidx = self._open(PROBE)
                self.starts[pidx] = clock()
                probe(self, args, kwargs, result)
                self.ends[pidx] = clock()
            return result

        return traced


def install(tracer: Tracer, package: str, modules, probes=None,
            entry_only=None) -> None:
    """Wrap the public functions, constructors and methods defined in
    `package.<m>` for each m in `modules`, and rebind every module attribute
    of the package that referred to an original function.

    Span names are `<m>.<qualname>`; a class constructor's span is
    `<m>.<Class>`.  `entry_only` maps a module to the one function traced in
    it.  `probes` maps a span name to a probe (see Tracer).
    """
    probes = probes or {}
    entry_only = entry_only or {}
    replaced = {}
    for short in modules:
        mod = importlib.import_module(f"{package}.{short}")
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if short in entry_only and attr != entry_only[short]:
                continue
            name = f"{short}.{attr}"
            if inspect.isfunction(obj):
                replaced[obj] = tracer.wrap(name, obj, probes.get(name))
            elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                _wrap_class(tracer, name, obj, probes)
    for modname, mod in list(sys.modules.items()):
        if modname != package and not modname.startswith(package + "."):
            continue
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in replaced:
                setattr(mod, attr, replaced[obj])


def _wrap_class(tracer, name, cls, probes):
    for attr, raw in list(vars(cls).items()):
        if attr == "__init__":
            if is_dataclass(cls):
                continue  # generated field assignment, not a layer
            span = name
        elif attr.startswith("_"):
            continue
        else:
            span = f"{name}.{attr}"
        if isinstance(raw, staticmethod):
            setattr(cls, attr, staticmethod(
                tracer.wrap(span, raw.__func__, probes.get(span))))
        elif inspect.isfunction(raw):
            setattr(cls, attr, tracer.wrap(span, raw, probes.get(span)))


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the part of its interval that its child
    spans cover (overlapping children are counted once)."""
    children = defaultdict(list)
    for i, p in enumerate(parents):
        if p >= 0:
            children[p].append(i)
    out = []
    for i, (lo_i, hi_i) in enumerate(zip(starts, ends)):
        covered = 0.0
        run_lo = run_hi = None
        for c in sorted(children.get(i, ()), key=starts.__getitem__):
            lo, hi = max(starts[c], lo_i), min(ends[c], hi_i)
            if hi <= lo:
                continue
            if run_hi is not None and lo <= run_hi:
                run_hi = max(run_hi, hi)
                continue
            if run_hi is not None:
                covered += run_hi - run_lo
            run_lo, run_hi = lo, hi
        if run_hi is not None:
            covered += run_hi - run_lo
        out.append(hi_i - lo_i - covered)
    return out


PERCENTILES = (50, 90, 99, 99.9)


def highest_percentile(n: int, candidates=PERCENTILES):
    """The highest candidate percentile with at least ten of `n` samples
    beyond it, or None when even the first has fewer."""
    best = None
    for p in candidates:
        if n * (100 - Fraction(str(p))) / 100 >= 10:
            best = p
    return best


def percentile(values, p) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(values)
    if not xs:
        return math.nan
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)
