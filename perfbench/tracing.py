"""Per-layer tracing applied from outside the program.

The tracer replaces the module-level names through which the layers of
``conevol`` call each other (for example ``conevol.volume.eval_f_prime`` or
``conevol.geometry.solve_cone_equation``) with wrappers, and restores the
originals on ``uninstall``.  Nothing under ``src/`` knows about it.

Two kinds of wrapper are used:

* span wrappers, at coarse layer boundaries, record one span per call:
  ``(id, name, start, end, parent id, thread id)``.  Spans stay in memory;
  per-layer calls, inclusive seconds and self time are computed from them at
  the end.  A span opened on a thread with no open span (a ``sweep`` pool
  worker) takes as parent the outermost span open on the driving thread.
* leaf wrappers, on the hot evaluation kernels (hundreds of thousands of
  calls per pass), only count calls and add up their time in per-thread
  tables; a span per call would cost more than the call.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = Counter()
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self._tables = []
        self._lock = threading.Lock()
        self._main = threading.get_ident()
        self._root = None
        self._patches = []

    # ------------------------------------------------------------ recording

    def _stack(self):
        try:
            return self._tls.stack
        except AttributeError:
            self._tls.stack = []
            return self._tls.stack

    def _table(self):
        try:
            return self._tls.table
        except AttributeError:
            table = defaultdict(lambda: [0, 0.0])
            with self._lock:
                self._tables.append(table)
            self._tls.table = table
            return table

    def count(self, name, amount=1):
        with self._lock:
            self.counters[name] += amount

    def in_span(self, name) -> bool:
        """True if a span of this name is open on the calling thread."""
        return any(frame[1] == name for frame in self._stack())

    def span_wrapper(self, name, fn, on_exit=None):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            is_root = not stack and threading.get_ident() == tracer._main
            parent = stack[-1][0] if stack else (None if is_root else tracer._root)
            sid = next(tracer._ids)
            if is_root:
                tracer._root = sid
            stack.append((sid, name))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if is_root:
                    tracer._root = None
                tracer.spans.append(
                    (sid, name, start, end, parent, threading.get_ident())
                )
            if on_exit is not None:
                on_exit(args, result)
            return result

        return wrapper

    def leaf_wrapper(self, name, fn, caller_code=None):
        """Count calls and time; with caller_code, only calls made from that code."""
        tracer = self
        clock = time.perf_counter
        getframe = sys._getframe

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if caller_code is not None and getframe(1).f_code is not caller_code:
                return fn(*args, **kwargs)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                row = tracer._table()[name]
                row[0] += 1
                row[1] += clock() - start

        return wrapper

    # ------------------------------------------------------------- patching

    def patch_function(self, fn, wrapper, modules):
        """Rebind every module-level name that refers to fn."""
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def patch_attr(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def patch_item(self, mapping, key, wrapper):
        self._patches.append((mapping, key, mapping[key]))
        mapping[key] = wrapper

    def uninstall(self):
        for owner, key, value in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)
        self._patches.clear()

    # ------------------------------------------------------------ summaries

    def leaf_totals(self):
        totals = defaultdict(lambda: [0, 0.0])
        with self._lock:
            for table in self._tables:
                for name, (calls, secs) in table.items():
                    totals[name][0] += calls
                    totals[name][1] += secs
        return totals

    def span_totals(self):
        totals = defaultdict(lambda: [0, 0.0])
        for _, name, start, end, _, _ in self.spans:
            totals[name][0] += 1
            totals[name][1] += end - start
        return totals

    def self_seconds(self, name) -> float:
        """Summed duration of the named spans minus the time their children cover."""
        children = defaultdict(list)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        total = 0.0
        for sid, span_name, start, end, _, _ in self.spans:
            if span_name != name:
                continue
            covered = 0.0
            cur_lo = cur_hi = None
            for lo, hi in sorted(children.get(sid, ())):
                lo, hi = max(lo, start), min(hi, end)
                if hi <= lo:
                    continue
                if cur_hi is None or lo > cur_hi:
                    if cur_hi is not None:
                        covered += cur_hi - cur_lo
                    cur_lo, cur_hi = lo, hi
                else:
                    cur_hi = max(cur_hi, hi)
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            total += (end - start) - covered
        return total


def install(tracer: Tracer) -> Tracer:
    """Wrap the public functions of every conevol layer; returns the tracer."""
    from conevol import (
        chebyshev, cli, exactpoly, geometry, representation, riley, verify, volume,
    )

    modules = [m for k, m in sorted(sys.modules.items()) if k.startswith("conevol")]
    span, leaf = tracer.span_wrapper, tracer.leaf_wrapper

    for fn in (chebyshev.eval_f, chebyshev.eval_f_prime, chebyshev.eval_g,
               chebyshev.eval_g_prime):
        tracer.patch_function(fn, leaf("chebyshev.eval", fn), modules)
    tracer.patch_function(
        exactpoly.p_gcd, leaf("exactpoly.gcd", exactpoly.p_gcd), modules
    )
    tracer.patch_function(
        riley.build_phi, span("exactpoly.phi", riley.build_phi), modules
    )

    tracer.patch_function(
        riley.build_cone_equation,
        span("riley.assemble", riley.build_cone_equation),
        modules,
    )

    def count_roots(args, result):
        tracer.count("riley.roots", len(result))

    tracer.patch_function(
        riley.solve_cone_equation,
        span("riley.solve", riley.solve_cone_equation, count_roots),
        modules,
    )
    tracer.patch_attr(
        riley.ConeEquation,
        "residual_prime",
        leaf("riley.newton", riley.ConeEquation.residual_prime,
             caller_code=riley._polish.__code__),
    )

    for fn, name in ((representation.holonomy_data, "representation.holonomy"),
                     (representation.longitude_eigenvalue, "representation.longitude"),
                     (representation.relation_residual, "representation.relation")):
        tracer.patch_function(fn, span(name, fn), modules)

    member = geometry._MemberGeometry
    tracer.patch_attr(member, "_resolve", span("geometry.resolve", member._resolve))
    tracer.patch_attr(
        member, "hyperbolic_root", span("geometry.hyproot", member.hyperbolic_root)
    )
    # geometry.critical and volume.compute have no metric of their own: they
    # are the children that cli.self.s subtracts from a sweep
    for fn, name in ((geometry.classify, "geometry.classify"),
                     (geometry.spherical_length, "geometry.sphlen"),
                     (geometry.critical_angle, "geometry.critical")):
        tracer.patch_function(fn, span(name, fn), modules)

    for fn, name in ((volume.compute_volume, "volume.compute"),
                     (volume.volume_hyperbolic, "volume.hyp"),
                     (volume.volume_spherical, "volume.sph"),
                     (volume.volume_schlafli, "volume.schlafli"),
                     (volume.adaptive_quad, "volume.quad")):
        tracer.patch_function(fn, span(name, fn), modules)

    def count_tracker(args, result):
        tracer.count("volume.tracker.samples", len(args[0].ts))

    def tracker_init(fn):
        wrapped = span("volume.tracker", fn, count_tracker)

        @functools.wraps(fn)
        def init(self, *args, **kwargs):
            if tracer.in_span("volume.hyp"):
                tracer.count("volume.candidates")
            return wrapped(self, *args, **kwargs)

        return init

    tracker = volume.BranchTracker
    tracer.patch_attr(tracker, "__init__", tracker_init(tracker.__init__))
    integrand = volume._Integrand
    tracer.patch_attr(
        integrand, "__call__", leaf("volume.integrand", integrand.__call__)
    )

    tracer.patch_function(cli.cmd_sweep, span("cli.sweep", cli.cmd_sweep), modules)
    for suite, fn in list(verify.ALL_SUITES.items()):
        tracer.patch_item(verify.ALL_SUITES, suite, span(f"verify.{suite}", fn))
    return tracer
