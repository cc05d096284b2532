"""Regime classification and geometric root selection.

Each hyperbolic family member has a critical cone angle a_K in [2*pi/3, pi):
the cone manifold is hyperbolic below it, Euclidean at it, spherical between
a_K and 2*pi - a_K, and out of range from 2*pi - a_K on.  regime_of is that
one rule; every entry point asks it and raises ValueError outside its own
regimes (classify serves all four).  classify is the one source of l_alpha.

a_K is found by tracking the geometric conjugate root pair of the cone
equation upward in the angle until it collides onto the real axis, bisecting
the collision angle, and polishing the collided double root on the deflated
equation, which gives a_K.  A failed polish raises NonConvergenceError; the
bisected angle is no fallback.

Which pair is geometric cannot be read off pointwise: every complex root
with Im f > 0 is a genuine representation (the relation residual vanishes)
and several of them can have positive real length.  Since the hyperbolic
structure is unique and persists on all of (0, a_K) with a_K >= 2*pi/3, the
geometric branch is selected by competition: every Im f > 0 conjugate pair
at the seed angle is continued upward, and the branch whose collision lands
in [2*pi/3, pi) wins.  Non-geometric branches collide early (below 2*pi/3)
or never; two survivors raise SelectionAmbiguityError rather than guessing.
The winner is additionally certified against the matrix oracle (relation
residual <= 1e-9 and |ell| > 1, i.e. positive real length).

The spherical pair is seeded just above a_K at the two real roots splitting
off the collision and tracked the same way.  One tracker serves both: a
_Track keeps ascending node angles and one state each (y on the branch,
(pair, phase) on the spherical pair), and one rule, _match_unambiguous,
takes every root from a solve.  Marches halve the step on an ambiguous
match; lookups match from the nearest node and raise SelectionAmbiguityError
instead of guessing.  The (+, -) labels come from the sign of the tracked
longitude phase difference, which is zero at the transition.  Angles above
pi reuse the pair at 2*pi - alpha, since the cone equation depends on the
angle only through A^2 = cot^2(alpha/2).

Torus-knot members (families.is_torus_member) have no complex roots at any
angle, so critical_angle raises NotBracketedError for them.
"""

from __future__ import annotations

import bisect
import cmath
import math
import threading
from dataclasses import dataclass
from enum import Enum

from .chebyshev import eval_f
from .errors import (DegenerateLongitudeError, NonConvergenceError, NotBracketedError,
                     SelectionAmbiguityError)
from .exactpoly import p_deriv, p_eval
from .families import ConeManifoldSpec, KnotFamily, validate_twist
from .representation import longitude_eigenvalue, relation_residual
from .riley import _cone_parts, build_cone_equation, solve_cone_equation

ALPHA_SEED = 0.01
MARCH_STEP = 0.05
COLLISION_IM_TOL = 1e-9
BISECT_TOL = 1e-10
CERT_RELATION_TOL = 1e-9
_WINDOW_LO = 2.0 * math.pi / 3.0 - 1e-6  # Kojima-Porti lower bound, with slack


class Regime(Enum):
    HYPERBOLIC = "hyperbolic"
    EUCLIDEAN = "euclidean"
    SPHERICAL = "spherical"
    OUT_OF_RANGE = "out_of_range"


@dataclass(frozen=True)
class RegimeResult:
    """Outcome of classify(): regime, a_K, selected roots and l_alpha.

    l_alpha is None at the Euclidean point and beyond the spherical band.
    """

    regime: Regime
    critical_angle: float
    roots: tuple
    l_alpha: float | None


_LOCK = threading.RLock()
_MEMBERS: dict = {}


def _moving_roots(family: KnotFamily, n: int, alpha: float) -> list:
    A = 1.0 / math.tan(0.5 * alpha)
    eq = build_cone_equation(family, n, A)
    return [r.y for r in solve_cone_equation(eq) if not r.unit_f]


def _real_roots(ys) -> list:
    return [y for y in ys if abs(y.imag) <= 1e-7]


def _match_unambiguous(ys, target: complex):
    """(nearest root, unambiguous?): the match must beat the runner-up clearly.

    A match is trusted when the tracked point moved less than half the
    distance to the second-nearest root, so continuation steps shrink rather
    than silently hopping branches.  A near-tie of a non-real root with its
    own conjugate is the collision funnel, not branch tangling, and is
    trusted too; real roots get no such excuse.
    """
    ranked = sorted(ys, key=lambda y: abs(y - target))
    if len(ranked) == 1:
        return ranked[0], True
    move = abs(ranked[0] - target)
    runner = abs(ranked[1] - target)
    funnel = (
        abs(ranked[0].imag) > COLLISION_IM_TOL
        and abs(ranked[1] - ranked[0].conjugate()) < 1e-9
    )
    return ranked[0], move <= 0.5 * runner or funnel


def _ell(family: KnotFamily, n: int, alpha: float, y: complex) -> complex:
    """Longitude eigenvalue of the representation at (alpha, y)."""
    m = cmath.exp(0.5j * alpha)
    return longitude_eigenvalue(family, n, m, y)


def _length(family: KnotFamily, n: int, alpha: float, y: complex) -> float:
    """Real length 2*log|ell| of the singular geodesic at a hyperbolic root."""
    return 2.0 * math.log(abs(_ell(family, n, alpha, y)))


class _Track:
    """Continuation nodes: ascending angles and the tracked state at each."""

    def __init__(self, alpha: float, state):
        self.alphas = [alpha]
        self.states = [state]

    def add(self, alpha: float, state):
        self.alphas.append(alpha)
        self.states.append(state)

    def nearest(self, alpha: float):
        """(angle, state) of the node nearest alpha; a tie goes to the lower node."""
        a = self.alphas
        i = bisect.bisect_left(a, alpha)
        if i == len(a) or (i > 0 and alpha - a[i - 1] <= a[i] - alpha):
            i -= 1
            while i > 0 and alpha - a[i - 1] == alpha - a[i]:  # equal once rounded
                i -= 1
        return a[i], self.states[i]


def _certify(family: KnotFamily, n: int, alpha: float, y: complex) -> bool:
    """Relation residual and positive real length at the candidate root."""
    m = cmath.exp(0.5j * alpha)
    if relation_residual(family, n, m, y) > CERT_RELATION_TOL:
        return False
    try:
        # the residual check above rules out longitude_eigenvalue's ValueError
        ell = _ell(family, n, alpha, y)
    except DegenerateLongitudeError:
        return False
    return abs(ell) > 1.0


class _Branch:
    """One conjugate root pair continued upward from the seed angle."""

    def __init__(self, family: KnotFamily, n: int, y_seed: complex):
        self.family = family
        self.n = n
        self.track = _Track(ALPHA_SEED, y_seed)
        self.collision: float | None = None
        self.collision_root: float | None = None

    def volume_estimate(self) -> float:
        """Trapezoid of l/2 over the branch nodes: the branch's total volume.

        Used as a tie-break when several branches collide inside the
        Kojima-Porti window: the geometric branch has the maximal volume
        (volume rigidity of the discrete faithful representation at the
        zero-angle limit).
        """
        total = 0.0
        prev_a = prev_l = None
        for a, y in zip(self.track.alphas, self.track.states):
            l = _length(self.family, self.n, a, y)
            if prev_a is not None:
                total += 0.25 * (l + prev_l) * (a - prev_a)
            prev_a, prev_l = a, l
        return total

    def march_to_collision(self):
        """Advance until the tracked root lands on the real axis; bisect the angle."""
        family, n = self.family, self.n
        a, y = self.track.alphas[-1], self.track.states[-1]
        step = MARCH_STEP
        while True:
            if a >= math.pi - 1e-12:
                return  # survived past the window: not a transition in (0, pi)
            cand = min(a + step, math.pi)
            matched, ok = _match_unambiguous(_moving_roots(family, n, cand), y)
            if ok and abs(matched.imag) > COLLISION_IM_TOL:
                a, y = cand, matched
                self.track.add(a, y)
                step = min(MARCH_STEP, step * 1.6)
                continue
            if step > 1e-4:
                step *= 0.5
                continue
            if abs(matched.imag) > COLLISION_IM_TOL:
                raise SelectionAmbiguityError(
                    f"{family.value} n={n}: root tracking tangled near "
                    f"alpha={cand:.6f}",
                    [y, matched],
                )
            lo, hi = a, cand
            break
        while hi - lo > BISECT_TOL:
            mid = 0.5 * (lo + hi)
            matched = _match_unambiguous(_moving_roots(family, n, mid), y)[0]
            if abs(matched.imag) > COLLISION_IM_TOL:
                lo, y = mid, matched
            else:
                hi = mid
        self.collision = 0.5 * (lo + hi)
        self.collision_root = y.real


def _polish_collision(family: KnotFamily, n: int, alpha_est: float, y_est: float):
    """Newton polish of the double root on the deflated moving polynomial.

    A double root of C0r + A^2*C1r satisfies the single real equation
    C0r'*C1r - C0r*C1r' = 0; the angle then follows from A^2 = -C0r/C1r.
    Raises NonConvergenceError if it leaves the bracket (1e-6 in alpha, 1e-3 in y).
    """
    _, _, _, c0r, c1r = _cone_parts(family, n)
    d0, d1 = p_deriv(c0r), p_deriv(c1r)

    def g(y):
        return p_eval(d0, y) * p_eval(c1r, y) - p_eval(c0r, y) * p_eval(d1, y)

    y = float(y_est)
    h = 1e-7 * max(1.0, abs(y))
    for _ in range(80):
        gy = g(y)
        gp = (g(y + h) - g(y - h)) / (2.0 * h)
        if gp == 0.0:
            break
        step = gy / gp
        y -= step
        if abs(step) < 1e-15 * max(1.0, abs(y)):
            break
    denom = p_eval(c1r, y)
    # no real angle (A^2 <= 0) leaves alpha = nan, which fails the bracket test
    a_sq = -p_eval(c0r, y) / denom if denom != 0.0 else 0.0
    alpha = 2.0 * math.atan(1.0 / math.sqrt(a_sq)) if a_sq > 0.0 else math.nan
    if not (abs(alpha - alpha_est) <= 1e-6 and abs(y - y_est) <= 1e-3):
        raise NonConvergenceError(f"{family.value} n={n}: the double-root polish left "
                                  f"the bracket of alpha={alpha_est:.10f}, y={y_est:.10f}")
    return alpha, y


class _MemberGeometry:
    """Per-(family, n) cache: winning branch, critical angle, spherical track."""

    def __init__(self, family: KnotFamily, n: int):
        validate_twist(n)
        self.family = family
        self.n = n
        self._resolve()
        # (pair, phase) nodes above a_K, seeded on first use; the track grows
        # lazily and concurrent classify() calls must not interleave appends
        self.sph: _Track | None = None
        self._sph_lock = threading.RLock()

    # ---------------------------------------------------------- hyperbolic

    def _resolve(self):
        family, n = self.family, self.n
        seeds = [
            y
            for y in _moving_roots(family, n, ALPHA_SEED)
            if abs(y.imag) > COLLISION_IM_TOL and eval_f(n, y).imag > 0.0
        ]
        if not seeds:
            raise NotBracketedError(
                f"{family.value} n={n}: no complex root with Im f > 0 at the seed "
                f"angle; this member admits no hyperbolic cone structure"
            )
        branches = [_Branch(family, n, y) for y in seeds]
        for b in branches:
            b.march_to_collision()
        winners = [
            b
            for b in branches
            if b.collision is not None and _WINDOW_LO <= b.collision < math.pi
        ]
        if not winners:
            raise NotBracketedError(
                f"{family.value} n={n}: no root-pair collision inside [2*pi/3, pi); "
                f"branch collisions: {[b.collision for b in branches]}"
            )
        if len(winners) > 1:
            # several candidate transitions: the geometric branch carries the
            # maximal volume (rigidity); demand a clear margin before choosing
            volumes = {b: b.volume_estimate() for b in winners}
            winners.sort(key=volumes.get, reverse=True)
            v0, v1 = volumes[winners[0]], volumes[winners[1]]
            if not v0 > v1 * 1.02:
                raise SelectionAmbiguityError(
                    f"{family.value} n={n}: {len(winners)} branches collide inside "
                    f"the Kojima-Porti window with comparable volumes "
                    f"({v0:.6f} vs {v1:.6f})",
                    [b.track.states[0] for b in winners],
                )
        win = winners[0]
        y_seed = win.track.states[0]
        if not _certify(family, n, ALPHA_SEED, y_seed):
            raise SelectionAmbiguityError(
                f"{family.value} n={n}: surviving branch failed holonomy "
                f"certification at the seed angle",
                [y_seed],
            )
        alpha_k, y_star = _polish_collision(family, n, win.collision, win.collision_root)
        if not (_WINDOW_LO <= alpha_k < math.pi):
            raise NotBracketedError(
                f"collision angle {alpha_k:.8f} outside [2*pi/3, pi) for "
                f"{family.value} n={n}"
            )
        self.branch = win
        self.alpha_k = alpha_k
        self.y_star = y_star

    def hyperbolic_root(self, alpha: float) -> complex:
        """Tracked geometric root at a hyperbolic angle, polished at alpha.

        Matched from the nearest branch node by the march's rule; an ambiguous
        match raises instead of taking the nearest root.
        """
        _, ref = self.branch.track.nearest(alpha)
        y, ok = _match_unambiguous(_moving_roots(self.family, self.n, alpha), ref)
        if not ok:
            raise SelectionAmbiguityError(
                f"{self.family.value} n={self.n}: ambiguous root at alpha={alpha:.8f}",
                [ref, y],
            )
        if eval_f(self.n, y).imag < 0.0:
            y = y.conjugate()
        return y

    # ------------------------------------------------------------ spherical

    SEED_OFFSET = 1e-4

    def _ell_ratio(self, alpha: float, pair) -> complex:
        e1 = _ell(self.family, self.n, alpha, complex(pair[0]))
        return e1 / _ell(self.family, self.n, alpha, complex(pair[1]))

    def _split_state(self, alpha: float):
        """The two real roots split off the collision nearest y*, and their phase."""
        real = _real_roots(_moving_roots(self.family, self.n, alpha))
        real.sort(key=lambda y: abs(y - self.y_star))
        if len(real) < 2 or abs(real[1] - self.y_star) > 0.2:
            raise SelectionAmbiguityError(
                f"{self.family.value} n={self.n}: could not isolate the split real "
                f"pair at alpha={alpha:.8f}",
                real[:4],
            )
        pair = tuple(sorted((real[0].real, real[1].real)))
        return pair, cmath.phase(self._ell_ratio(alpha, pair))

    def _sph_step(self, a: float, state, step: float):
        """(angle, state) after following the pair from node (a, state) by step.

        The step halves until each root matches unambiguously, the two stay
        distinct and the phase jumps by at most 1.5 (or the step is <= 1e-7).
        """
        (p0, p1), phase = state
        while True:
            nxt = a + step
            live = _real_roots(_moving_roots(self.family, self.n, nxt))
            r1, ok1 = _match_unambiguous(live, p0)
            r2, ok2 = _match_unambiguous(live, p1)
            if (not ok1 or not ok2 or r1 == r2) and abs(step) > 1e-7:
                step *= 0.5
                continue
            if r1 == r2:
                raise SelectionAmbiguityError(
                    f"spherical pair merged at alpha={nxt:.8f}", [r1]
                )
            pair = (r1.real, r2.real)
            jump = cmath.phase(self._ell_ratio(nxt, pair) * cmath.exp(-1j * phase))
            if abs(jump) <= 1.5 or abs(step) <= 1e-7:
                return nxt, (pair, phase + jump)
            step *= 0.5

    def spherical_state(self, alpha: float):
        """((r1, r2), unwrapped phase difference) at a folded angle in (a_K, pi].

        The track advances past alpha and stores nodes; the lookup then steps
        from the nearest node and stores nothing.  Each advance aims at pi,
        not at alpha, so the nodes are a prefix of one fixed sequence and the
        result does not depend on which angles were asked before.  Both
        angles lie in (2*pi/3, pi], so alpha - a is exact and the last step
        lands on alpha.
        """
        with self._sph_lock:
            if self.sph is None:
                a0 = self.alpha_k + self.SEED_OFFSET
                self.sph = _Track(a0, self._split_state(a0))
            track = self.sph
            if alpha < track.alphas[0]:
                return self._split_state(alpha)
            while track.alphas[-1] < alpha - 1e-15:
                cur = track.alphas[-1]
                step = min(MARCH_STEP / 2.0, math.pi - cur)
                track.add(*self._sph_step(cur, track.states[-1], step))
            a, state = track.nearest(alpha)
        while True:
            a, state = self._sph_step(a, state, alpha - a)
            if a == alpha:
                return state


def _member(family: KnotFamily, n: int) -> _MemberGeometry:
    with _LOCK:
        key = (family, n)
        member = _MEMBERS.get(key)
        if member is None:
            member = _MemberGeometry(family, n)
            _MEMBERS[key] = member
        return member


def critical_angle(family: KnotFamily, n: int) -> float:
    """Transition angle a_K, cached per (family, n); in [2*pi/3, pi)."""
    return _member(family, n).alpha_k


def collision_root(family: KnotFamily, n: int) -> float:
    """The real double root at a_K (integration anchor and spherical seed)."""
    return _member(family, n).y_star


def regime_of(alpha: float, a_k: float, *serves: Regime) -> Regime:
    """The regime of alpha (module docstring); ValueError if serves lacks it."""
    if alpha >= 2.0 * math.pi - a_k:
        regime = Regime.OUT_OF_RANGE
    elif alpha == a_k:
        regime = Regime.EUCLIDEAN
    else:
        regime = Regime.HYPERBOLIC if alpha < a_k else Regime.SPHERICAL
    if serves and regime not in serves:
        raise ValueError(f"alpha={alpha} is {regime.value} (a_K = {a_k}); only "
                         f"{', '.join(r.value for r in serves)} angles are served")
    return regime


def select_hyperbolic_root(spec: ConeManifoldSpec) -> complex:
    """The geometric root y0 (Im f > 0) at a hyperbolic cone angle."""
    member = _member(spec.family, spec.n)
    regime_of(spec.alpha, member.alpha_k, Regime.HYPERBOLIC)
    return member.hyperbolic_root(spec.alpha)


def _fold(alpha: float) -> float:
    return alpha if alpha <= math.pi else 2.0 * math.pi - alpha


def _spherical(spec: ConeManifoldSpec) -> RegimeResult:
    """classify(spec) at a spherical angle; any other angle raises ValueError."""
    regime_of(spec.alpha, _member(spec.family, spec.n).alpha_k, Regime.SPHERICAL)
    return classify(spec)


def select_spherical_roots(spec: ConeManifoldSpec):
    """(y_plus, y_minus): the real-f root pair, phase-ordered (l_alpha > 0)."""
    return _spherical(spec).roots


def spherical_length(family: KnotFamily, n: int, alpha: float) -> float:
    """Geodesic length of the singular locus in the spherical regime.

    Unwrapped longitude phase difference of the selected pair, anchored to
    zero at a_K; symmetric under alpha -> 2*pi - alpha.
    """
    return _spherical(ConeManifoldSpec(family, n, alpha)).l_alpha


def classify(spec: ConeManifoldSpec) -> RegimeResult:
    """Regime, selected geometric root(s) and l_alpha (its one source).

    l_alpha is 2*log|ell| at the tracked hyperbolic root, or the spherical
    pair's unwrapped longitude phase gap, which also orders the pair.
    """
    member = _member(spec.family, spec.n)
    a_k = member.alpha_k
    alpha = spec.alpha
    regime = regime_of(alpha, a_k)
    if regime is Regime.OUT_OF_RANGE:
        return RegimeResult(regime, a_k, (), None)
    if regime is Regime.EUCLIDEAN:
        return RegimeResult(regime, a_k, (member.y_star,), None)
    if regime is Regime.HYPERBOLIC:
        y0 = member.hyperbolic_root(alpha)
        return RegimeResult(regime, a_k, (y0,), _length(spec.family, spec.n, alpha, y0))
    pair, phase = member.spherical_state(_fold(alpha))
    return RegimeResult(regime, a_k, pair if phase >= 0.0 else pair[::-1], abs(phase))


def clear_caches():
    """Drop all per-member geometry caches (mainly for tests)."""
    with _LOCK:
        _MEMBERS.clear()
