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

Both regimes go through one driver, which integrates the one path it is
given.  The right class is the one in which log(R) returns to 0 at the far
endpoint, where R = 1 again.  R is c * prod (y - a)^e over the roots of
N^2 + A^2 D^2 and the exact cosines of families.R_EXPONENTS (_r_factors,
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
The integrand is a panel function: it gets a panel's 21 nodes at once (the
15 of the 15-point rule, then the 7-point rule's other 6), so the Schlaefli
oracle can solve them together; the contour evaluates them one by one.
A node's dispatch (calls, tuples, attribute and table lookups) cost more than
its arithmetic.  So nodes and weights are Python floats, not leggauss's numpy
arrays, which would make each parameter, tracker lookup and panel sum a numpy
scalar operation (same rounding), and the integrand is one closure per path
(_Integrand): the member's chebyshev.kernel, each leg's start p and step
q - p and A^2 are fixed with the path, and a node at t = k + u on leg k forms
y = p + (q - p)*u with dy/du = q - p, walks once and reads the tracked log
with the tracker's bracket lookup inlined, in the floating-point operations
of BranchTracker.log_at.  One more evaluation of R, at the start vertex,
checks that the branch is anchored there.
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
from classify, as does the l_alpha of every volume result: 2*log|ell| at the
selected root, or the closed form 2|atan F(r1) - atan F(r0)| at the pair.
The oracle classifies each panel's 21 angles in one geometry.classify_panel
call: one stacked companion solve and one stacked walk of the longitude
words serve them all, and each length is classify's, bit for bit.
"""

from __future__ import annotations

import bisect
import cmath
import heapq
import math
from dataclasses import dataclass, field
from functools import reduce
from operator import add, mul, sub

import numpy as np

from . import exactpoly as xp
# eval_f_prime is not called here, but perfbench's tracer test reads this name
from .chebyshev import eval_f_prime, kernel, s_diff_zeros, s_zeros  # noqa: F401
from .errors import PathBlockedError, QuadratureError
from .families import R_EXPONENTS, ConeManifoldSpec, KnotFamily
from .geometry import (Regime, _fold, classify, classify_panel, collision_root,
                       critical_angle, regime_of)

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
    is kept away from them.
    """
    pts = {2.0}
    pts.update(s_zeros(n - 1))
    pts.update(s_diff_zeros(n))
    pts.update(s_diff_zeros(n - 1))
    if include_f_zeros:
        m = abs(n)
        pts.update(2.0 * math.cos((2 * k + 1) * math.pi / (2 * m)) for k in range(m))
    return sorted(pts)


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
    then the exact cosines."""
    a, b, c, _ = R_EXPONENTS[family]
    num, den = xp.f_parts(n)
    log_zeros = xp.p_roots(xp.p_float_sum(xp.p_mul(num, num), xp.p_mul(den, den), A * A))
    return ([(z, 1) for z in log_zeros] + [(2.0, a)]
            + [(s, b) for s in s_zeros(n - 1)]
            + [(s, -c) for s in s_diff_zeros(n)])


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
    """Deterministic contour candidates, collision-anchored V first.

    The correct class has log(R) returning to zero at the far endpoint.  A
    candidate is made of straight legs, so its winding of R (factors, from
    _r_factors) is exact and is decided before any integration: only paths
    of winding 0 (_closes) and clear of the real singular set are yielded.
    The caller integrates the first.  Straight two-leg Vs handle simple real
    zeros of the log argument (side selection by anchor interval); staple
    paths thread the pinch corridors next to higher-order zeros, whose
    conjugate companion pair squeezes onto the axis as the angle shrinks.
    """
    reals = real_singular_points(n, include_f_zeros=True)
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
    return all(_dist_point_segment(complex(s), p, q) >= PATH_CLEARANCE
               for s in obstacles for p, q in zip(path, path[1:]))


def spherical_path(n: int, y_from: float, y_to: float):
    """Real segment y_from -> y_to with an upper-half-plane V over each
    singular point s in between: near -> s + i*r -> far."""
    obstacles = real_singular_points(n)
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
    sum |e * delta_a|.  Each factor turns monotonically along a leg, so its
    linear interpolant stays within |e * delta_a| of it, and the interpolated
    arg within 1.5 of R's.  With the start anchored to 1e-5 and R equal to
    its factor product to 1e-9, that is less than pi: log_at's rounding of
    (est - principal) / 2pi is proven to pick the node's 2*pi*k.  The last
    sample is R's exact winding, the sum _closes rounds.
    """

    MAX_SAMPLES = 200_000

    def __init__(self, path: tuple, factors):
        ts, unwrapped = [0.0], [0.0]
        for k, (p, q) in enumerate(zip(path, path[1:])):
            base, t0, a0 = unwrapped[-1], float(k), [0.0] * len(factors)
            # right ends of the intervals still to append, nearest last
            pending = [(float(k + 1), _leg_phases(p, q, factors))]
            while pending:
                t1, a1 = pending[-1]
                if sum(map(abs, map(sub, a1, a0))) > 1.5:
                    tm = 0.5 * (t0 + t1)
                    if not t0 < tm < t1:
                        raise QuadratureError(f"a zero or pole of R lies on the path at t={tm!r}")
                    pending.append((tm, _leg_phases(p, p + (q - p) * (tm - k), factors)))
                    continue
                t0, a0 = pending.pop()
                ts.append(t0)
                unwrapped.append(base + sum(a0))
                if len(ts) > self.MAX_SAMPLES:
                    raise QuadratureError("branch tracking exceeded the sample budget")
        self.ts, self.unwrapped = ts, unwrapped

    def log_at(self, t: float, value: complex) -> complex:
        i = bisect.bisect_right(self.ts, t) - 1
        i = max(0, min(i, len(self.ts) - 2))
        t0, t1 = self.ts[i], self.ts[i + 1]
        w = (t - t0) / (t1 - t0) if t1 > t0 else 0.0
        est = self.unwrapped[i] * (1 - w) + self.unwrapped[i + 1] * w
        principal = cmath.phase(value)
        k = round((est - principal) / (2.0 * math.pi))
        return math.log(abs(value)) + 1j * (principal + 2.0 * math.pi * k)


class _Integrand:
    """log(R(y)) * f'(y) / (f(y)^2 - 1) * dy/dt along a path parameter t,
    which runs over [k, k + 1] on leg k, by one closure per path (see the
    module docstring)."""

    POLE_TOL = 1e-60  # clearance is enforced geometrically on the path

    def __init__(self, family: KnotFamily, n: int, A: float, path: tuple, factors):
        fg = kernel(family, n, self.POLE_TOL)
        a2, scale = A * A, 1.0 + A * A  # scale: the 1 + A^2 of R's denominator
        legs = [(p, q - p) for p, q in zip(path, path[1:])]
        ends, last, two_pi = len(legs), len(legs) - 1, 2.0 * math.pi
        fv, gv, _, _ = fg(path[0], 1, 1)
        if abs(start := cmath.phase((fv * fv + a2) / (scale * gv))) > 1e-5:
            raise QuadratureError(
                f"log argument not anchored at the start endpoint (arg = {start:.3e})")
        tracker = self.tracker = BranchTracker(path, factors)
        ts, unwrapped, top = tracker.ts, tracker.unwrapped, len(tracker.ts) - 2

        def node(t):
            k = int(t) if t < ends else last
            z0, dy = legs[k]
            y = z0 + dy * (t - k)
            fv, gv, fp, _ = fg(y, 2, 1)
            f2 = fv * fv
            val = (f2 + a2) / (scale * gv)
            if abs(val) < 1e-100:
                raise QuadratureError(f"log argument vanishes on the path at y = {y:.8f}")
            i = bisect.bisect_right(ts, t) - 1
            i = top if i > top else 0 if i < 0 else i
            t0, t1 = ts[i], ts[i + 1]
            w = (t - t0) / (t1 - t0) if t1 > t0 else 0.0
            est = unwrapped[i] * (1 - w) + unwrapped[i + 1] * w
            principal = cmath.phase(val)
            k = round((est - principal) / two_pi)
            return (math.log(abs(val)) + 1j * (principal + two_pi * k)) * fp / (f2 - 1.0) * dy

        self._node = node

    def __call__(self, t: float) -> complex:
        return self._node(t)


# ----------------------------------------------------------- adaptive quad

# GL15 node 7 and GL7 node 3 are both exactly 0.0: the midpoint is evaluated
# once, so a panel has 21 nodes, the 15 of GL15 and then GL7's other 6
_PANEL = (*_GL15[0], *(x for x in _GL7[0] if x))


def _gauss_pair(f, a: float, b: float):
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    values = f([mid + half * x for x in _PANEL])
    v15 = values[:15]
    # 0 + w0*v0 + w1*v1 + ... left to right on every Python version: sum() of
    # Python floats compensates its rounding from 3.12 on, changing the bits
    i15 = half * reduce(add, map(mul, _GL15[1], v15), 0)
    v7 = [*values[15:18], v15[7], *values[18:]]
    i7 = half * reduce(add, map(mul, _GL7[1], v7), 0)
    return i15, abs(i15 - i7)


def adaptive_quad(f, a: float, b: float, abs_tol: float = QUAD_ABS_TOL):
    """Adaptive Gauss 15/7 on [a, b]; returns (integral, error estimate).

    f is a panel function: it takes the list of a panel's 21 nodes (_PANEL)
    and returns their values in that order.  Raises QuadratureError after
    QUAD_MAX_SUBDIV subdivisions.
    """
    val, err = _gauss_pair(f, a, b)
    heap = [(-err, 0, a, b, val, err)]
    total_val, total_err = val, err
    count = 0
    serial = 1
    while total_err > abs_tol and heap:
        if count >= QUAD_MAX_SUBDIV:
            raise QuadratureError(
                f"tolerance {abs_tol:.1e} not reached after {QUAD_MAX_SUBDIV} "
                f"subdivisions (error {total_err:.1e})"
            )
        _, _, lo, hi, v_old, e_old = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        v1, e1 = _gauss_pair(f, lo, mid)
        v2, e2 = _gauss_pair(f, mid, hi)
        total_val += v1 + v2 - v_old
        total_err += e1 + e2 - e_old
        heapq.heappush(heap, (-e1, serial, lo, mid, v1, e1))
        heapq.heappush(heap, (-e2, serial + 1, mid, hi, v2, e2))
        serial += 2
        count += 1
    return total_val, total_err


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


def _contour(spec: ConeManifoldSpec, path: tuple, rotation: complex, factors):
    """rotation * INT over path; returns (value, error estimate).

    R = 1 at both endpoints, so on a path of the right class the tracked log
    returns to 0.  The tracker's closure check certifies that exactly: where
    it does not close, or branch tracking fails, the call raises
    PathBlockedError.
    """
    family, n = spec.family, spec.n
    try:
        integrand = _Integrand(family, n, spec.cot_half, path, factors)
    except QuadratureError as exc:
        raise PathBlockedError(f"branch tracking failed on the contour: {exc}") from exc
    if abs(integrand.tracker.unwrapped[-1]) > 1e-5:
        raise PathBlockedError(
            f"the tracked log does not close on the contour of {family.value} "
            f"n={n} at alpha={spec.alpha:.6f}"
        )
    total = 0j
    err = 0.0
    for k in range(len(path) - 1):
        v, e = adaptive_quad(lambda ts: list(map(integrand, ts)), float(k), float(k + 1))
        total += v
        err += e
    value = rotation * total
    if abs(value.imag) > IMAG_RESIDUAL_TOL:
        raise QuadratureError(
            f"volume has imaginary residual {value.imag:.3e} (branch tracking "
            f"inconsistent)"
        )
    return value, err


def volume_hyperbolic(spec: ConeManifoldSpec, y0: complex,
                      anchor_shift: complex = 0.0) -> VolumeResult:
    """Contour volume at a hyperbolic angle from the selected root y0.

    anchor_shift displaces the mid-path control point (used by the
    path-independence certificate); any shift keeping the path clear of the
    singular set leaves the value unchanged.  l_alpha is left to classify.
    """
    family, n = spec.family, spec.n
    factors = _r_factors(family, n, spec.cot_half)
    path = next(_candidate_paths(family, n, factors, y0, anchor_shift), None)
    if path is None:
        raise PathBlockedError(
            f"no contour of winding 0 clear of the singular set for "
            f"{family.value} n={n} at alpha={spec.alpha:.6f}"
        )
    value, err = _contour(spec, path, 1j, factors)
    return VolumeResult(
        spec,
        Regime.HYPERBOLIC,
        value.real,
        err,
        abs(value.imag),
        diagnostics={"y0": y0, "anchor": path[1]},
    )


def volume_spherical(spec: ConeManifoldSpec, y_plus: float,
                     y_minus: float) -> VolumeResult:
    """Contour volume from the selected real pair; l_alpha is left to classify.

    The pair's longitude-phase order alone fixes the sign: a negative volume raises.
    """
    path = spherical_path(spec.n, y_plus, y_minus)
    value, err = _contour(spec, path, 1, _r_factors(spec.family, spec.n, spec.cot_half))
    if value.real < 0.0:
        raise QuadratureError(f"spherical volume {value.real:.3e} < 0: the pair "
                              f"({y_plus:.8f}, {y_minus:.8f}) is not in phase order")
    return VolumeResult(
        spec,
        Regime.SPHERICAL,
        value.real,
        err,
        abs(value.imag),
        diagnostics={
            "y_plus": y_plus,
            "y_minus": y_minus,
            "deformations": sum(z.imag != 0.0 for z in path),
        },
    )


def volume_schlafli(spec: ConeManifoldSpec) -> float:
    """Volume by integrating the singular geodesic length from the transition.

    Independent of the contour machinery: only classify's l_alpha enters, at
    each node, from one classify_panel call per Gauss panel.  The
    substitution beta = a_K -/+ t^2 removes the square-root vanishing of the
    length at the transition.  Raises ValueError beyond the spherical band,
    from 2*pi - a_K on.
    """
    family, n = spec.family, spec.n
    a_k = critical_angle(family, n)
    regime = regime_of(spec.alpha, a_k, Regime.HYPERBOLIC, Regime.EUCLIDEAN,
                       Regime.SPHERICAL)
    if regime is Regime.EUCLIDEAN:
        return 0.0
    side = -1.0 if regime is Regime.HYPERBOLIC else 1.0

    def integrand(ts):
        nodes = classify_panel([ConeManifoldSpec(family, n, a_k + side * t * t) for t in ts])
        # a node with t*t under half an ulp of a_K lands on it, where l = 0
        return [0.0 if node.regime is Regime.EUCLIDEAN else node.l_alpha * t
                for node, t in zip(nodes, ts)]

    val, _ = adaptive_quad(integrand, 0.0, math.sqrt(abs(_fold(spec.alpha) - a_k)),
                           SCHLAFLI_QUAD_TOL)
    return float(val)


def compute_volume(spec: ConeManifoldSpec, cross_check: bool = False) -> VolumeResult:
    """Classify the angle and evaluate the volume (Schlaefli near a_K and pi)."""
    return _volume_for(spec, classify(spec), cross_check)


def _volume_for(spec: ConeManifoldSpec, result, cross_check: bool) -> VolumeResult:
    """compute_volume for an angle already classified as result."""
    if result.regime is Regime.OUT_OF_RANGE:
        raise ValueError(
            f"cone angle {spec.alpha} is beyond the spherical band "
            f"(alpha_K = {result.critical_angle:.6f})"
        )
    if result.regime is Regime.EUCLIDEAN:
        return VolumeResult(
            spec, Regime.EUCLIDEAN, 0.0, 0.0, diagnostics={"transition": True}
        )
    a_k = result.critical_angle
    folded = _fold(spec.alpha)
    if abs(folded - a_k) < TRANSITION_WINDOW or math.pi - folded < PI_WINDOW:
        vol = volume_schlafli(spec)
        return VolumeResult(
            spec,
            result.regime,
            vol,
            1e-7,
            l_alpha=result.l_alpha,
            schlafli_volume=vol if cross_check else None,
            diagnostics={"regularized": True},
        )
    if result.regime is Regime.HYPERBOLIC:
        out = volume_hyperbolic(spec, result.roots[0])
    else:
        out = volume_spherical(spec, result.roots[0], result.roots[1])
    out.l_alpha = result.l_alpha
    if cross_check:
        out.schlafli_volume = volume_schlafli(spec)
    return out
