"""Volume integrals and the Schlaefli cross-oracle.

The volume of the cone-manifold is the contour integral

    hyperbolic:  Vol = Re[ i * INT_{conj(y0)}^{y0} log(R(y)) f'(y)/(f(y)^2-1) dy ]
    spherical:   Vol = Re[     INT_{y+}^{y-}       log(R(y)) f'(y)/(f(y)^2-1) dy ]

with R(y) = (f(y)^2 + A^2) / ((1+A^2) g(y)) and A = cot(alpha/2).  R equals 1
at the integration endpoints (they solve the cone equation), which anchors
the logarithm branch: the argument is unwrapped continuously along the path
starting from log = 0.

Paths.  All integrand singularities lie on the real axis (denominator zeros
y = 2 and S_{n-1} = 0, the f = +/-1 points, and the zeros of g).  The
hyperbolic contour therefore runs in two straight legs conj(y0) -> x_c -> y0
through a fixed real anchor x_c: the collision root of the member, nudged
off any singular point.  Anchoring the real-axis crossing makes the homotopy
class independent of the cone angle (a straight chord would sweep across
fixed singular points as the endpoints move, changing the value by a
monodromy jump).  The spherical contour runs along the real segment from y+
to y- with a small V detour into the upper half-plane over each singular
point in between.  A path is a tuple of complex vertices joined by straight
legs.

Both regimes go through one driver (_Contour), which turns the path's
integral (times i for a hyperbolic volume) into the VolumeResult.
The right class is the one in which log(R) returns to 0 at the far
endpoint, where R = 1 again.  R is c * prod (y - a)^e over the roots of
N^2 + A^2 D^2 and the exact cosines of chebyshev.r_cosines (_r_factors,
once per volume), and on a straight leg p -> q each factor turns by exactly
e * phase((y - a)/(p - a)).  So R's winding along a path is an exact sum:
the hyperbolic candidates (the anchored V, then Vs through other real
anchors and staples threading the pinch corridors beside higher-order zeros
of the log argument) are yielded only in that class, and the first one is
integrated.  The same sums give the branch of log(R) at every node
(BranchTracker, no evaluation of R) and its exact closure check, the
spherical path's class certificate: a path failing it raises
PathBlockedError and is never replaced by a path of another class.

Quadrature is adaptive Gauss 15/7 per leg, absolute tolerance 1e-9, at
most 2000 subdivisions.  The 7-point Gauss-Legendre rule is a separate rule,
not an embedded one: it shares only the midpoint node with the 15-point
rule, and its difference from the 15-point value is the error estimate.
A panel's 21 nodes (_PANEL: the 15-point rule's, then the 7-point rule's
other 6) are evaluated at once, so the Schlaefli oracle solves them
together.  The contour's node is one closure per path (_Integrand): at
t = k + u on leg k from p to q it takes y = p + (q - p)*u, f, f' and g from
chebyshev.kernel's closure, R, and log R's branch from the tracked arg at
its left sample (BranchTracker.log_at).
One leg algorithm (_quad_steps: heap, split order, sums) asks for the panels
it needs and those it is certain to split, and one lock-step loop (_drive)
evaluates the panels of its legs in rounds: adaptive_quad is its one-leg
case, and _integrate runs every leg of one compute_volumes call's contours,
a round on lanes from LANES_MIN nodes (_round, lanes.panel_sums).  Every
value, error estimate and raised error is the sequential rule's, leg by leg.
Within 1e-3 of the transition angle the endpoints nearly coincide and the
contour loses relative accuracy, so the Schlaefli integral is used there
instead.  It also serves within 1e-5 below the folded angle pi: there the
conjugate zeros of N^2 + A^2 D^2 close in on the real zeros of f, which lie
on the spherical segment, and the quadrature would integrate an interior log
singularity that its error estimate does not see.

The Schlaefli oracle integrates the real length of the singular geodesic:
kappa * dVol = (1/2) l_alpha d(alpha) with Vol -> 0 at the transition, i.e.
Vol = INT_alpha^{a_K} l/2 (hyperbolic) and INT_{a_K}^alpha l/2 (spherical,
folded about pi by the A^2 symmetry).  The substitution beta = a_K -/+ t^2
absorbs the square-root behaviour of l at the transition.  Both lengths come
from classify's selection, as does the l_alpha of every volume result:
2*log|ell| at the selected root, or the closed form 2|atan F(r1) - atan F(r0)|
at the pair.  A panel's 21 angles lie on one side of a_K and are selected
in one geometry._select_panel call (one stacked companion solve and one
stacked longitude walk), each length bit for bit classify's.

compute_volumes is the entry for many angles of one member (a CLI sweep);
compute_volume is its one-angle case.  What depends on the member only is
computed once in functools caches: N_f^2, D_f^2 and R's exact-cosine
factors (_r_parts) and the real singular set (_singular_points).
"""

from __future__ import annotations

import bisect
import cmath
import heapq
import math
from dataclasses import dataclass, field
from functools import lru_cache, partial, reduce
from itertools import accumulate, islice
from operator import add, mul, sub

import numpy as np

from . import exactpoly as xp
# eval_f_prime is not called here, but perfbench's tracer test reads this name
from .chebyshev import eval_f_prime, kernel, r_cosines, s_diff_zeros, s_zeros  # noqa: F401
from .errors import ConevolError, PathBlockedError, QuadratureError
from .families import ConeManifoldSpec, KnotFamily, validate_twist
from .geometry import (Regime, RegimeResult, _fold, _select_panel, classify,
                       collision_root, critical_angle, regime_of)
from .lanes import panel_sums

R_EXCL = 1e-4
QUAD_ABS_TOL = 1e-9
QUAD_MAX_SUBDIV = 2000
SCHLAFLI_QUAD_TOL = 1e-8
PATH_CLEARANCE = 1e-7  # least distance from a candidate path to a singular point
IMAG_RESIDUAL_TOL = 1e-7
TRANSITION_WINDOW = 1e-3
PI_WINDOW = 1e-5

_GL15 = tuple(a.tolist() for a in np.polynomial.legendre.leggauss(15))
_GL7 = tuple(a.tolist() for a in np.polynomial.legendre.leggauss(7))


# ------------------------------------------------------------- singular set

def real_singular_points(n: int, include_f_zeros: bool = False):
    """Real singularities of the integrand: poles of f and g, f = +/-1, g = 0.

    All are exact cosines: y = 2 and the zeros of S_{n-1} (poles), the zeros
    of S_n - S_{n-1} (f = -1, also zeros of g for two families) and of
    S_{n-1} - S_{n-2} (f = +1).

    With include_f_zeros the zeros of f join the list (2*S_n - y*S_{n-1}
    equals 2*cos(n*theta) at y = 2*cos(theta)).  At cone angle pi the log
    argument vanishes there, pinching the contour; real paths must pass
    straight through them (the ratio stays positive, so there is no branch
    jump and the log singularity is integrable), but the hyperbolic anchor
    is kept away from them.  A fresh list of _singular_points.
    """
    return list(_singular_points(n, include_f_zeros))


@lru_cache(maxsize=None, typed=True)
def _singular_points(n: int, include_f_zeros: bool) -> tuple:
    """real_singular_points as a tuple, once per (n, include_f_zeros)."""
    validate_twist(n)
    pts = {2.0}
    pts.update(s_zeros(n - 1))
    pts.update(s_diff_zeros(n))
    pts.update(s_diff_zeros(n - 1))
    if include_f_zeros:
        m = abs(n)
        pts.update(2.0 * math.cos((2 * k + 1) * math.pi / (2 * m)) for k in range(m))
    return tuple(sorted(pts))


# ------------------------------------------------------------ path geometry

def _dist_point_segment(p: complex, z0: complex, z1: complex) -> float:
    d = z1 - z0
    L2 = abs(d) ** 2
    if L2 == 0.0:
        return abs(p - z0)
    t = max(0.0, min(1.0, ((p - z0) * d.conjugate()).real / L2))
    return abs(p - (z0 + t * d))


def _nudge_anchor(x: float, obstacles, keepout: float) -> float:
    """Move a real anchor off any singular point by at least keepout."""
    for _ in range(16):
        clash = [s for s in obstacles if abs(x - s) < keepout]
        if not clash:
            return x
        s = min(clash, key=lambda v: abs(x - v))
        x = s + 1.25 * keepout if x >= s else s - 1.25 * keepout
    raise PathBlockedError(f"could not place the real anchor away from {clash}")


def _r_factors(family: KnotFamily, n: int, A: float):
    """R = c * prod (y - a)^e as (a, e): the zeros of f^2 + A^2 (the roots of
    N_f^2 + A^2 D_f^2, conjugate pairs hugging the real f-poles for large A),
    then the exact cosines; a fresh list, from the member's _r_parts."""
    return _r_factors_many(family, n, [A])[0]


def _r_factors_many(family: KnotFamily, n: int, As) -> list:
    """_r_factors at each A, all zeros from one exactpoly.p_roots_many call
    (p_roots is its case of one polynomial, so the bits are the same)."""
    num2, den2, cosines = _r_parts(family, n)
    polys = [xp.p_float_sum(num2, den2, A * A) for A in As]
    return [[(z, 1) for z in zeros] + list(cosines) for zeros in xp.p_roots_many(polys)]


@lru_cache(maxsize=None, typed=True)
def _r_parts(family: KnotFamily, n: int) -> tuple:
    """(N_f^2, D_f^2, the exact-cosine factors of R), once per member."""
    num, den = xp.f_parts(n)
    return tuple(xp.p_mul(num, num)), tuple(xp.p_mul(den, den)), r_cosines(family, n)


def _leg_phases(p: complex, y: complex, factors) -> list:
    """e * arg change of each factor (y - a)^e along the straight leg p -> y.

    (y - a)/(p - a) runs on a straight line from 1 that meets (-inf, 0] only
    when a is on the leg, so its principal phase is the continuous change:
    monotone along the leg and below pi in size.
    """
    return [e * cmath.phase((y - a) / (p - a)) for a, e in factors]


def _closes(path: tuple, factors) -> bool:
    """True when R's exact winding along the path's straight legs is zero
    (summed leg by leg from 0.0, as BranchTracker sums its last sample)."""
    turn = reduce(add, (sum(_leg_phases(p, q, factors))
                        for p, q in zip(path, path[1:])), 0.0)
    return round(turn / (2.0 * math.pi)) == 0


def _via(y0: complex, *waypoints: complex) -> tuple:
    """Straight legs conj(y0) -> waypoints -> y0, as a tuple of vertices."""
    return (y0.conjugate(), *waypoints, y0)


def _candidate_paths(family: KnotFamily, n: int, factors, y0: complex,
                     shift: complex = 0.0):
    """Deterministic contour candidates, collision-anchored V first: only
    paths of winding 0 (_closes, exact on straight legs, decided before any
    integration) and clear of the real singular set are yielded, and the
    caller integrates the first.  Straight two-leg Vs handle simple real
    zeros of the log argument (side selection by anchor interval); staple
    paths thread the pinch corridors next to higher-order zeros, whose
    conjugate companion pair squeezes onto the axis as the angle shrinks.
    """
    reals = _singular_points(n, True)
    y_star = collision_root(family, n)
    zeros = [a for a, _ in factors if a.imag > 1e-9]
    verticals = sorted(
        set(reals)
        | {z.real for z in zeros if abs(z.real) < abs(reals[-1]) + 1.0}
    )
    xs = [_nudge_anchor(y_star, reals, 2.0 * R_EXCL)]
    xs.extend(
        0.5 * (a + b) for a, b in zip(verticals, verticals[1:]) if b - a > 1e-7
    )
    xs.append(verticals[0] - 0.5)
    xs.append(verticals[-1] + 0.5)
    for x in [xs[0]] + sorted(xs[1:], key=lambda c: abs(c - y_star)):
        paths = [_via(y0, complex(x) + shift)]
        h_local = max(
            (z.imag for z in zeros if abs(z.real - x) < 0.6), default=0.0
        )
        if h_local > 0.0:
            # the staple's vertical mid-leg through x threads the corridor
            # between a conjugate pair of log-argument zeros and the adjacent
            # real singular point; its outer legs fly over the pair
            h = 1.4 * h_local + 0.05
            paths.append(_via(y0, complex(x, math.copysign(h, -y0.imag)) + shift,
                              complex(x, math.copysign(h, y0.imag)) + shift))
        yield from (path for path in paths
                    if _closes(path, factors) and _path_clear(path, reals))


def _path_clear(path: tuple, obstacles) -> bool:
    """Every obstacle at least PATH_CLEARANCE from every leg.  An obstacle
    outside a leg's real and imaginary bounds widened by 1e-6 is farther than
    1e-6 from it, so its distance is not computed."""
    for p, q in zip(path, path[1:]):
        re_lo, re_hi = min(p.real, q.real) - 1e-6, max(p.real, q.real) + 1e-6
        im_lo, im_hi = min(p.imag, q.imag) - 1e-6, max(p.imag, q.imag) + 1e-6
        for s in map(complex, obstacles):
            if s.real < re_lo or s.real > re_hi or s.imag < im_lo or s.imag > im_hi:
                continue
            if not _dist_point_segment(s, p, q) >= PATH_CLEARANCE:
                return False
    return True


def spherical_path(n: int, y_from: float, y_to: float):
    """Real segment y_from -> y_to with an upper-half-plane V over each
    singular point s in between: near -> s + i*r -> far."""
    obstacles = _singular_points(n, False)
    lo, hi = min(y_from, y_to), max(y_from, y_to)
    inside = [s for s in obstacles if lo + 1e-12 < s < hi - 1e-12]
    for s in obstacles:
        if abs(s - y_from) < R_EXCL or abs(s - y_to) < R_EXCL:
            raise PathBlockedError(
                f"singular point {s:.8f} within the exclusion radius of an endpoint"
            )
    gaps = [lo] + inside + [hi]
    radius = min(2.0 * R_EXCL, 0.4 * min(b - a for a, b in zip(gaps, gaps[1:])))
    # r is at most 0.4 of every gap, so no leg between the Vs is degenerate
    r = radius if y_to >= y_from else -radius
    path = [complex(y_from)]
    for s in sorted(inside, reverse=r < 0.0):
        path += [complex(s - r), complex(s, radius), complex(s + r)]
    return (*path, complex(y_to))


# ------------------------------------------------- branch-tracked integrand

class BranchTracker:
    """Continuous arg R along a path of straight legs, 0 at the start.

    The samples carry R's exact continuation, the sum of _leg_phases from
    each leg's start, so R is neither evaluated nor unwrapped.  A sample
    interval is bisected until its factors turn by at most 1.5 in all,
    sum |e * delta_a|.  Each factor turns monotonically along a leg, so a
    node's continued arg is within 1.5 of est, the arg at its left sample.
    With the start anchored to 1e-5 and arg R within 8.4e-6 of its factor
    product's (measured on the paths of the 68 resolving members with |n|
    <= 12; tier-1 pins 1e-5), (est - principal) / 2pi is within 0.239 of
    the node's k: log_at's rounding picks it.  Samples run from 0.0 to
    len(legs), Gauss nodes lie inside, so a node's left sample is on its
    path.  The last sample is R's exact winding, the sum _closes rounds.
    """

    MAX_SAMPLES = 200_000

    def __init__(self, path: tuple, factors):
        ts, unwrapped = [0.0], [0.0]
        for k, (p, q) in enumerate(zip(path, path[1:])):
            base, t0, a0 = unwrapped[-1], float(k), [0.0] * len(factors)
            # _leg_phases from p with each p - a formed once per leg
            starts = [(a, e, p - a) for a, e in factors]

            def phases(y):
                return [e * cmath.phase((y - a) / pa) for a, e, pa in starts]

            # right ends of the intervals still to append, nearest last
            pending = [(float(k + 1), phases(q))]
            while pending:
                t1, a1 = pending[-1]
                if sum(map(abs, map(sub, a1, a0))) > 1.5:
                    tm = 0.5 * (t0 + t1)
                    if not t0 < tm < t1:
                        raise QuadratureError(f"a zero or pole of R lies on the path at t={tm!r}")
                    pending.append((tm, phases(p + (q - p) * (tm - k))))
                    continue
                t0, a0 = pending.pop()
                ts.append(t0)
                unwrapped.append(base + sum(a0))
                if len(ts) > self.MAX_SAMPLES:
                    raise QuadratureError("branch tracking exceeded the sample budget")
        self.ts, self.unwrapped = ts, unwrapped
        # a closure over locals, not a method: attribute lookups cost per node
        two_pi = 2.0 * math.pi
        bisect_right, phase, log = bisect.bisect_right, cmath.phase, math.log

        def log_at(t: float, value: complex) -> complex:
            principal = phase(value)
            k = round((unwrapped[bisect_right(ts, t) - 1] - principal) / two_pi)
            return log(abs(value)) + 1j * (principal + two_pi * k)

        self.log_at = log_at


class _Integrand:
    """log(R(y)) * f'(y) / (f(y)^2 - 1) * dy/dt along a path parameter t,
    which runs over [k, k + 1] on leg k, by one closure per path (see the
    module docstring)."""

    POLE_TOL = 1e-60  # clearance is enforced geometrically on the path

    def __init__(self, family: KnotFamily, n: int, A: float, path: tuple, factors):
        a2, scale = A * A, 1.0 + A * A  # scale: the 1 + A^2 of R's denominator
        legs = [(p, q - p) for p, q in zip(path, path[1:])]
        fg = kernel(family, n, self.POLE_TOL)
        # what lanes.node_values reads of the path
        self.fg, self.a2, self.scale, self.legs = fg, a2, scale, legs
        ends, last = len(legs), len(legs) - 1
        fv, gv, _, _ = fg(path[0], 1, 1)
        if abs(start := cmath.phase((fv * fv + a2) / (scale * gv))) > 1e-5:
            raise QuadratureError(
                f"log argument not anchored at the start endpoint (arg = {start:.3e})")
        self.tracker = BranchTracker(path, factors)
        log_at = self.tracker.log_at

        def node(t):
            k = int(t) if t < ends else last
            z0, dy = legs[k]
            y = z0 + dy * (t - k)
            fv, gv, fp, _ = fg(y, 2, 1)
            f2 = fv * fv
            val = (f2 + a2) / (scale * gv)
            if abs(val) < 1e-100:
                raise QuadratureError(f"log argument vanishes on the path at y = {y:.8f}")
            return log_at(t, val) * fp / (f2 - 1.0) * dy

        self._node = node

    def __call__(self, t: float) -> complex:
        return self._node(t)


# ----------------------------------------------------------- adaptive quad

# GL15 node 7 and GL7 node 3 are both exactly 0.0: the midpoint is evaluated
# once, so a panel has 21 nodes, the 15 of GL15 and then GL7's other 6
_PANEL = (*_GL15[0], *(x for x in _GL7[0] if x))
# the 7-point rule's columns of _PANEL, in its node order
_GL7_COLUMNS = tuple(_PANEL.index(x) for x in _GL7[0])

# nodes in a round from which the lanes, panel sums included, beat the scalar
# node: us a node at 84 nodes 3.7-5.0 against 3.4-4.8, at 105 2.9-4.0 against
# 3.5-4.8, at 168 2.2-3.0 against 3.4-4.8 (ROADMAP aim 1)
LANES_MIN = 100


def _panel_nodes(a: float, b: float) -> list:
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return [mid + half * x for x in _PANEL]


def _gauss_pair(values, a: float, b: float):
    """(15-point value, |15-point - 7-point|) of a panel from its node values."""
    half = 0.5 * (b - a)
    # 0 + w0*v0 + w1*v1 + ... left to right on every Python version: sum() of
    # Python floats compensates its rounding from 3.12 on, changing the bits
    i15 = half * reduce(add, map(mul, _GL15[1], values), 0)
    i7 = half * reduce(add, map(mul, _GL7[1], map(values.__getitem__, _GL7_COLUMNS)), 0)
    return i15, abs(i15 - i7)


def _pair(f, lo: float, hi: float):
    """The panel's _gauss_pair from panel function f, or the error f raises."""
    try:
        return _gauss_pair(list(f(_panel_nodes(lo, hi))), lo, hi)
    except Exception as exc:
        return exc


def _quad_steps(a: float, b: float, abs_tol: float):
    """Adaptive Gauss 15/7 on [a, b] as a generator returning (integral,
    error estimate): the heap splits its panel of largest error until the
    errors sum to at most abs_tol (QuadratureError after QUAD_MAX_SUBDIV
    splits).  Lacking a panel, it yields those it needs and those it is
    certain to split (_look_ahead), none it holds, and is sent each one's
    _gauss_pair or the error its evaluation raised.  It holds them by
    (lo, hi) and raises a held error or a pair not finite only as it takes
    that panel."""
    heap, held = [], {}
    (val, err), = yield from _take(((a, b),), heap, held, abs_tol)
    heap.append((-err, 0, a, b, val, err))
    total_val, total_err, count, serial = val, err, 0, 1
    while total_err > abs_tol:
        if count >= QUAD_MAX_SUBDIV:
            raise QuadratureError(f"tolerance {abs_tol:.1e} not reached after {QUAD_MAX_SUBDIV} "
                                  f"subdivisions (error {total_err:.1e})")
        _, _, lo, hi, v_old, e_old = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        (v1, e1), (v2, e2) = yield from _take(((lo, mid), (mid, hi)), heap, held, abs_tol)
        total_val += v1 + v2 - v_old
        total_err += e1 + e2 - e_old
        heapq.heappush(heap, (-e1, serial, lo, mid, v1, e1))
        heapq.heappush(heap, (-e2, serial + 1, mid, hi, v2, e2))
        serial += 2
        count += 1
    return total_val, total_err


def _take(panels, heap, held: dict, abs_tol: float):
    """The panels' pairs out of held, after one yield if it lacks one: the
    first held error raises, then QuadratureError at a pair not finite."""
    if not all(p in held for p in panels):
        wanted = [p for p in (*panels, *_look_ahead(heap, abs_tol)) if p not in held]
        held.update(zip(wanted, (yield wanted)))
    pairs = [held.pop(p) for p in panels]
    for pair in pairs:
        if isinstance(pair, Exception):
            raise pair
    for (lo, hi), (v, e) in zip(panels, pairs):
        if not (cmath.isfinite(v) and math.isfinite(e)):
            raise QuadratureError(f"panel [{lo!r}, {hi!r}] is not finite: "
                                  f"value {v!r}, error {e!r}")
    return pairs


def _look_ahead(heap, abs_tol: float) -> list:
    """The halves of each heap panel that _quad_steps is certain to split: in
    pop order while the errors from that panel on sum to more than abs_tol
    (all stay in the heap until it is popped, so the leg goes on), within
    the splits left (the heap holds one panel per split made)."""
    order = sorted(heap)
    tails = list(accumulate(e for *_, e in reversed(order)))[::-1]
    budget = max(QUAD_MAX_SUBDIV - 1 - len(heap), 0)
    return [half for (*_, lo, hi, _, _), tail in zip(order[:budget], tails)
            if tail > abs_tol for half in ((lo, 0.5 * (lo + hi)), (0.5 * (lo + hi), hi))]


def _drive(legs, evaluate) -> list:
    """Each leg's (integral, error estimate) or error; legs are (key,
    _quad_steps) pairs.  Each round, evaluate gets the (key, lo, hi) of the
    panels the live legs yield and returns the outcomes they are sent."""
    outcomes = [None] * len(legs)
    live = [(i, key, steps, next(steps)) for i, (key, steps) in enumerate(legs)]
    while live:
        sent = iter(evaluate([(key, *p) for _, key, _, wanted in live for p in wanted]))
        asked, live = live, []
        for i, key, steps, wanted in asked:
            try:
                live.append((i, key, steps, steps.send(list(islice(sent, len(wanted))))))
            except StopIteration as done:
                outcomes[i] = done.value
            except Exception as exc:  # the leg's error, whatever its type
                outcomes[i] = exc
    return outcomes


def adaptive_quad(f, a: float, b: float, abs_tol: float = QUAD_ABS_TOL):
    """Adaptive Gauss 15/7 on [a, b]; returns (integral, error estimate).

    f is a panel function: it takes the list of a panel's 21 nodes (_PANEL)
    and returns their values in that order.  _drive's one-leg case.  Raises
    QuadratureError after QUAD_MAX_SUBDIV subdivisions or at a panel whose
    value or error estimate is not finite, and f's error at a panel it takes.
    """
    out, = _drive([(f, _quad_steps(a, b, abs_tol))], lambda panels: [_pair(*p) for p in panels])
    if isinstance(out, Exception):
        raise out
    return out


def _round(integrands, panels, tables: dict) -> list:
    """Each panel (path index, lo, hi)'s _gauss_pair, or the error that its
    scalar node raises.  A round of LANES_MIN nodes or more runs on lanes
    (lanes.panel_sums, which fills tables at its first round), and a panel
    that is not ok there goes through the scalar node."""
    pairs = [None] * len(panels)
    if len(panels) * len(_PANEL) >= LANES_MIN:
        pairs = panel_sums(integrands, tables, panels, (_PANEL, _GL15[1], _GL7[1], _GL7_COLUMNS))
    return [_pair(partial(map, integrands[j]), lo, hi) if pair is None else pair
            for pair, (j, lo, hi) in zip(pairs, panels)]


def _integrate(integrands) -> list:
    """Each integrand's integral over its path and error estimate, summed leg
    by leg, or the error of its first failing leg: _drive over every leg of
    every path, each round through _round."""
    tables = {}
    outcomes = iter(_drive([(j, _quad_steps(float(k), float(k + 1), QUAD_ABS_TOL))
                            for j, f in enumerate(integrands) for k in range(len(f.legs))],
                           lambda panels: _round(integrands, panels, tables)))
    sums = []
    for f in integrands:
        legs = list(islice(outcomes, len(f.legs)))
        if failed := [leg for leg in legs if isinstance(leg, Exception)]:
            sums.append(failed[0])
        else:
            vals, errs = zip(*legs)
            sums.append((reduce(add, vals, 0j), reduce(add, errs, 0.0)))
    return sums


# --------------------------------------------------------------- results

@dataclass
class VolumeResult:
    """A computed cone-manifold volume with its certificate trail."""

    spec: ConeManifoldSpec
    regime: Regime
    volume: float
    error_estimate: float
    imaginary_residual: float = 0.0
    l_alpha: float | None = None
    schlafli_volume: float | None = None
    diagnostics: dict = field(default_factory=dict)


class _Contour:
    """A contour volume between its set-up and its quadrature: its regime's
    path and the path's _Integrand, whose tracked log must return to 0 (R = 1
    at both ends), else PathBlockedError.  result() makes the volume."""

    def __init__(self, spec: ConeManifoldSpec, path: tuple, regime: Regime, factors,
                 **diagnostics):
        family, n = spec.family, spec.n
        try:
            integrand = _Integrand(family, n, spec.cot_half, path, factors)
        except QuadratureError as exc:
            raise PathBlockedError(f"branch tracking failed on the contour: {exc}") from exc
        if abs(integrand.tracker.unwrapped[-1]) > 1e-5:
            raise PathBlockedError(f"the tracked log does not close on the contour of "
                                   f"{family.value} n={n} at alpha={spec.alpha:.6f}")
        self.spec, self.path, self.regime, self.integrand = spec, path, regime, integrand
        self.diagnostics = diagnostics

    def result(self, sums) -> VolumeResult:
        """The volume from _integrate's outcome for the path, whose error
        raises: the real part of i * INT, or of INT, with the error estimate,
        the imaginary residual and the diagnostics.  A spherical volume is
        not negative: the pair's longitude-phase order alone fixes its sign."""
        if isinstance(sums, Exception):
            raise sums
        total, err = sums
        value = (1j if self.regime is Regime.HYPERBOLIC else 1) * total
        if abs(value.imag) > IMAG_RESIDUAL_TOL:
            raise QuadratureError(f"volume has imaginary residual {value.imag:.3e} "
                                  f"(branch tracking inconsistent)")
        out = VolumeResult(self.spec, self.regime, value.real, err, abs(value.imag))
        if self.regime is Regime.SPHERICAL and out.volume < 0.0:
            y_plus, y_minus = self.path[0].real, self.path[-1].real
            raise QuadratureError(f"spherical volume {out.volume:.3e} < 0: the pair "
                                  f"({y_plus:.8f}, {y_minus:.8f}) is not in phase order")
        out.diagnostics.update(self.diagnostics)
        return out

    def volume(self) -> VolumeResult:
        """result() of the path integrated alone."""
        return self.result(*_integrate([self.integrand]))


def _hyperbolic_contour(spec: ConeManifoldSpec, y0: complex, factors,
                        anchor_shift: complex = 0.0) -> _Contour:
    """The first candidate path from y0 (_candidate_paths), set up."""
    family, n = spec.family, spec.n
    path = next(_candidate_paths(family, n, factors, y0, anchor_shift), None)
    if path is None:
        raise PathBlockedError(f"no contour of winding 0 clear of the singular set for "
                               f"{family.value} n={n} at alpha={spec.alpha:.6f}")
    return _Contour(spec, path, Regime.HYPERBOLIC, factors, y0=y0, anchor=path[1])


def _spherical_contour(spec: ConeManifoldSpec, y_plus: float, y_minus: float,
                       factors) -> _Contour:
    """The spherical path from y_plus to y_minus, set up."""
    path = spherical_path(spec.n, y_plus, y_minus)
    return _Contour(spec, path, Regime.SPHERICAL, factors, y_plus=y_plus,
                    y_minus=y_minus, deformations=sum(z.imag != 0.0 for z in path))


def volume_hyperbolic(spec: ConeManifoldSpec, y0: complex,
                      anchor_shift: complex = 0.0) -> VolumeResult:
    """Contour volume at a hyperbolic angle from the selected root y0.

    anchor_shift displaces the mid-path control point (used by the
    path-independence certificate); any shift keeping the path clear of the
    singular set leaves the value unchanged.  l_alpha is left to classify.
    """
    factors = _r_factors(spec.family, spec.n, spec.cot_half)
    return _hyperbolic_contour(spec, y0, factors, anchor_shift).volume()


def volume_spherical(spec: ConeManifoldSpec, y_plus: float,
                     y_minus: float) -> VolumeResult:
    """Contour volume from the selected real pair, whose longitude-phase order
    alone fixes the sign (a negative volume raises); l_alpha is left to classify."""
    factors = _r_factors(spec.family, spec.n, spec.cot_half)
    return _spherical_contour(spec, y_plus, y_minus, factors).volume()


def volume_schlafli(spec: ConeManifoldSpec) -> float:
    """Volume by integrating the singular geodesic length from the transition.

    Independent of the contour machinery: only classify's l_alpha enters,
    from one _select_panel call per Gauss panel in the regime of spec, with
    beta = a_K -/+ t^2.  Raises ValueError beyond the spherical band, from
    2*pi - a_K on.
    """
    family, n = spec.family, spec.n
    a_k = critical_angle(family, n)
    regime = regime_of(spec.alpha, a_k, Regime.HYPERBOLIC, Regime.EUCLIDEAN,
                       Regime.SPHERICAL)
    if regime is Regime.EUCLIDEAN:
        return 0.0
    side = -1.0 if regime is Regime.HYPERBOLIC else 1.0

    def integrand(ts):
        alphas = [a_k + side * t * t for t in ts]
        # a node with t*t under half an ulp of a_K lands on it, where l = 0
        nodes = iter(_select_panel(family, n, [a for a in alphas if a != a_k], regime))
        return [next(nodes)[1] * t if alpha != a_k else 0.0 for alpha, t in zip(alphas, ts)]

    val, _ = adaptive_quad(integrand, 0.0, math.sqrt(abs(_fold(spec.alpha) - a_k)),
                           SCHLAFLI_QUAD_TOL)
    return float(val)


def compute_volumes(family: KnotFamily, n: int, alphas, cross_check: bool = False) -> list:
    """compute_volume at each angle of one member, in order: its VolumeResult,
    or the ConevolError or ValueError that compute_volume raises there.

    Every spec is made and the member resolved first, so a bad angle or a
    member without a_K raises.  Each solved regime with two or more angles
    is selected in one geometry._select_panel call, bit for bit classify's;
    an angle alone in its regime or in one whose panel raised (each failing
    angle keeps its own error), at a_K or beyond the band is classified
    alone (_volume_at).  The contours get R's factors from one stacked solve
    (_r_factors_many) and are integrated together (_integrate).
    """
    specs = [ConeManifoldSpec(family, n, alpha) for alpha in alphas]
    a_k = critical_angle(family, n)
    regimes = [regime_of(spec.alpha, a_k) for spec in specs]
    classified = [None] * len(specs)
    for regime in (Regime.HYPERBOLIC, Regime.SPHERICAL):
        rows = [i for i, r in enumerate(regimes) if r is regime]
        if len(rows) < 2:
            continue
        try:
            panel = _select_panel(family, n, [_fold(specs[i].alpha) for i in rows], regime)
        except (ConevolError, ValueError):
            continue
        for i, (roots, l_alpha) in zip(rows, panel):
            classified[i] = RegimeResult(regime, a_k, roots, l_alpha)
    outcomes = []
    for spec, result in zip(specs, classified):
        try:
            outcomes.append(_volume_at(spec, result, cross_check))
        except (ConevolError, ValueError) as exc:
            outcomes.append(exc)
    rows = [i for i, out in enumerate(outcomes) if isinstance(out, RegimeResult)]
    contours = {}
    for i, factors in zip(rows, _r_factors_many(family, n, [specs[i].cot_half for i in rows])):
        result = outcomes[i]
        try:
            contours[i] = (_hyperbolic_contour(specs[i], result.roots[0], factors)
                           if result.regime is Regime.HYPERBOLIC else
                           _spherical_contour(specs[i], *result.roots, factors))
        except (ConevolError, ValueError) as exc:
            outcomes[i] = exc
    sums = _integrate([contour.integrand for contour in contours.values()])
    for (i, contour), outcome in zip(contours.items(), sums):
        try:
            out = contour.result(outcome)
            out.l_alpha = outcomes[i].l_alpha
            if cross_check:
                out.schlafli_volume = volume_schlafli(contour.spec)
            outcomes[i] = out
        except (ConevolError, ValueError) as exc:
            outcomes[i] = exc
    return outcomes


def _volume_at(spec: ConeManifoldSpec, result: RegimeResult | None,
               cross_check: bool):
    """The volume at spec from its classify result (None: classify it here)
    where no contour is needed: 0 at a_K, Schlaefli near a_K and pi;
    ValueError beyond the spherical band.  Else the classify result, whose
    contour compute_volumes integrates."""
    if result is None:
        result = classify(spec)
    if result.regime is Regime.OUT_OF_RANGE:
        raise ValueError(
            f"cone angle {spec.alpha} is beyond the spherical band "
            f"(alpha_K = {result.critical_angle:.6f})"
        )
    if result.regime is Regime.EUCLIDEAN:
        return VolumeResult(spec, Regime.EUCLIDEAN, 0.0, 0.0, diagnostics={"transition": True})
    a_k = result.critical_angle
    folded = _fold(spec.alpha)
    if abs(folded - a_k) < TRANSITION_WINDOW or math.pi - folded < PI_WINDOW:
        vol = volume_schlafli(spec)
        return VolumeResult(spec, result.regime, vol, 1e-7, l_alpha=result.l_alpha,
                            schlafli_volume=vol if cross_check else None,
                            diagnostics={"regularized": True})
    return result


def compute_volume(spec: ConeManifoldSpec, cross_check: bool = False) -> VolumeResult:
    """Classify the angle and evaluate its volume: 0 at a_K, Schlaefli near a_K
    and pi, else the contour of its regime; ValueError beyond the spherical
    band.  compute_volumes' one-angle case, raising the error it returns."""
    out, = compute_volumes(spec.family, spec.n, [spec.alpha], cross_check)
    if isinstance(out, Exception):
        raise out
    return out
