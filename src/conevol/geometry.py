"""Regime classification and geometric root selection.

Each hyperbolic family member has a critical cone angle a_K in [2*pi/3, pi):
the cone manifold is hyperbolic below it, Euclidean at it, spherical between
a_K and 2*pi - a_K, and unsupported beyond.  a_K is found by tracking the
geometric conjugate root pair of the cone equation upward in the angle until
it collides onto the real axis, bisecting the collision angle, and polishing
the collided double root on the deflated equation.

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
off the collision and tracked the same way; the (+, -) labels come from the
sign of the continuously tracked longitude phase difference, which is zero
at the transition.  Angles above pi reuse the pair at 2*pi - alpha, since
the cone equation depends on the angle only through A^2 = cot^2(alpha/2).

Torus-knot members (families.is_torus_member) have no complex roots at any
angle, so critical_angle raises NotBracketedError for them.
"""

from __future__ import annotations

import cmath
import math
import threading
from dataclasses import dataclass
from enum import Enum

from .chebyshev import eval_f
from .errors import DegenerateLongitudeError, NotBracketedError, SelectionAmbiguityError
from .exactpoly import p_eval
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
    """Outcome of classify(): regime, transition angle, selected roots."""

    regime: Regime
    critical_angle: float
    roots: tuple
    f_values: tuple
    continuation_trace: tuple


_LOCK = threading.RLock()
_MEMBERS: dict = {}


def _moving_roots(family: KnotFamily, n: int, alpha: float):
    A = 1.0 / math.tan(0.5 * alpha)
    eq = build_cone_equation(family, n, A)
    return [r for r in solve_cone_equation(eq) if not r.unit_f]


def _nearest_y(records, target: complex) -> complex:
    return min(records, key=lambda r: abs(r.y - target)).y


def _match_unambiguous(ys, target: complex):
    """(nearest root, unambiguous?): the match must beat the runner-up clearly.

    A match is trusted when the tracked point moved less than half the
    distance to the second-nearest root, so continuation steps shrink rather
    than silently hopping branches.
    """
    ranked = sorted(ys, key=lambda y: abs(y - target))
    if len(ranked) == 1:
        return ranked[0], True
    move = abs(ranked[0] - target)
    runner = abs(ranked[1] - target)
    return ranked[0], move <= 0.5 * runner


def _certify(family: KnotFamily, n: int, alpha: float, y: complex) -> bool:
    """Relation residual and positive real length at the candidate root."""
    m = cmath.exp(0.5j * alpha)
    p = family.word_exponent(n)
    if relation_residual(family, n, p, m, y) > CERT_RELATION_TOL:
        return False
    try:
        # the residual check above rules out longitude_eigenvalue's ValueError
        ell = longitude_eigenvalue(family, n, p, m, y)
    except DegenerateLongitudeError:
        return False
    return abs(ell) > 1.0


class _Branch:
    """One conjugate root pair continued upward from the seed angle."""

    def __init__(self, family: KnotFamily, n: int, y_seed: complex):
        self.family = family
        self.n = n
        self.alphas = [ALPHA_SEED]
        self.ys = [y_seed]
        self.collision: float | None = None
        self.collision_root: float | None = None

    def volume_estimate(self) -> float:
        """Trapezoid of l/2 over the branch nodes: the branch's total volume.

        Used as a tie-break when several branches collide inside the
        Kojima-Porti window: the geometric branch has the maximal volume
        (volume rigidity of the discrete faithful representation at the
        zero-angle limit).
        """
        p = self.family.word_exponent(self.n)
        total = 0.0
        prev_a = prev_l = None
        for a, y in zip(self.alphas, self.ys):
            m = cmath.exp(0.5j * a)
            ell = longitude_eigenvalue(self.family, self.n, p, m, y)
            l = 2.0 * math.log(abs(ell))
            if prev_a is not None:
                total += 0.25 * (l + prev_l) * (a - prev_a)
            prev_a, prev_l = a, l
        return total

    def march_to_collision(self):
        """Advance until the tracked root lands on the real axis; bisect the angle."""
        family, n = self.family, self.n
        a, y = self.alphas[-1], self.ys[-1]
        step = MARCH_STEP
        ceiling = math.pi - 0.02
        bracket = None
        while True:
            if a >= ceiling - 1e-12:
                return  # survived past the window: not a transition in (0, pi)
            cand = min(a + step, ceiling)
            live = [r.y for r in _moving_roots(family, n, cand)]
            matched, ok = _match_unambiguous(live, y)
            if not ok:
                # a near-tie with the root's own conjugate is the collision
                # funnel, not branch tangling; Im-based detection handles it
                ranked = sorted(live, key=lambda z: abs(z - y))
                if len(ranked) > 1 and abs(ranked[1] - ranked[0].conjugate()) < 1e-9:
                    ok = True
            if ok and abs(matched.imag) > COLLISION_IM_TOL:
                a, y = cand, matched
                self.alphas.append(a)
                self.ys.append(y)
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
            bracket = (a, cand)
            break
        lo, hi = bracket
        while hi - lo > BISECT_TOL:
            mid = 0.5 * (lo + hi)
            matched = _nearest_y(_moving_roots(family, n, mid), y)
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
    """
    _, _, _, c0r, c1r = _cone_parts(family, n)
    d0 = [i * c for i, c in enumerate(c0r)][1:]
    d1 = [i * c for i, c in enumerate(c1r)][1:]

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
    if denom == 0.0:
        return None
    a_sq = -p_eval(c0r, y) / denom
    if a_sq <= 0.0:
        return None
    alpha = 2.0 * math.atan(1.0 / math.sqrt(a_sq))
    if abs(alpha - alpha_est) > 1e-6 or abs(y - y_est) > 1e-3:
        return None
    return alpha, y


class _MemberGeometry:
    """Per-(family, n) cache: winning branch, critical angle, spherical trace."""

    def __init__(self, family: KnotFamily, n: int):
        validate_twist(n)
        self.family = family
        self.n = n
        self._resolve()
        self._sph_alphas: list = []
        self._sph_pairs: list = []
        self._sph_phases: list = []
        # the spherical trace grows lazily; concurrent classify() calls on the
        # same member must not interleave appends
        self._sph_lock = threading.RLock()

    # ---------------------------------------------------------- hyperbolic

    def _resolve(self):
        family, n = self.family, self.n
        records = _moving_roots(family, n, ALPHA_SEED)
        seeds = [
            r.y
            for r in records
            if abs(r.y.imag) > COLLISION_IM_TOL and eval_f(n, r.y).imag > 0.0
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
            winners.sort(key=lambda b: b.volume_estimate(), reverse=True)
            v0 = winners[0].volume_estimate()
            v1 = winners[1].volume_estimate()
            if not v0 > v1 * 1.02:
                raise SelectionAmbiguityError(
                    f"{family.value} n={n}: {len(winners)} branches collide inside "
                    f"the Kojima-Porti window with comparable volumes "
                    f"({v0:.6f} vs {v1:.6f})",
                    [b.ys[0] for b in winners],
                )
        win = winners[0]
        if not _certify(family, n, ALPHA_SEED, win.ys[0]):
            raise SelectionAmbiguityError(
                f"{family.value} n={n}: surviving branch failed holonomy "
                f"certification at the seed angle",
                [win.ys[0]],
            )
        alpha_k, y_star = win.collision, win.collision_root
        polished = _polish_collision(family, n, alpha_k, y_star)
        if polished is not None:
            alpha_k, y_star = polished
        if not (_WINDOW_LO <= alpha_k < math.pi):
            raise NotBracketedError(
                f"collision angle {alpha_k:.8f} outside [2*pi/3, pi) for "
                f"{family.value} n={n}"
            )
        self.branch = win
        self.alpha_k = alpha_k
        self.y_star = y_star

    def hyperbolic_root(self, alpha: float) -> complex:
        """Tracked geometric root at a hyperbolic angle, polished at alpha."""
        br = self.branch
        if alpha < br.alphas[0]:
            ref = br.ys[0]
        else:
            idx = min(
                range(len(br.alphas)), key=lambda i: abs(br.alphas[i] - alpha)
            )
            ref = br.ys[idx]
        y = _nearest_y(_moving_roots(self.family, self.n, alpha), ref)
        if eval_f(self.n, y).imag < 0.0:
            y = y.conjugate()
        return y

    def hyperbolic_trace(self, alpha: float) -> tuple:
        return tuple(
            (a, y)
            for a, y in zip(self.branch.alphas, self.branch.ys)
            if a <= alpha + 1e-12
        )

    # ------------------------------------------------------------ spherical

    SEED_OFFSET = 1e-4

    def _ell_ratio(self, alpha: float, pair) -> complex:
        m = cmath.exp(0.5j * alpha)
        p = self.family.word_exponent(self.n)
        e1 = longitude_eigenvalue(self.family, self.n, p, m, complex(pair[0]))
        e2 = longitude_eigenvalue(self.family, self.n, p, m, complex(pair[1]))
        return e1 / e2

    def _split_pair(self, alpha: float):
        """The two real roots that split off the collision, nearest to y*."""
        records = _moving_roots(self.family, self.n, alpha)
        real = [r.y for r in records if abs(r.y.imag) <= 1e-7]
        real.sort(key=lambda y: abs(y - self.y_star))
        if len(real) < 2 or abs(real[1] - self.y_star) > 0.2:
            raise SelectionAmbiguityError(
                f"{self.family.value} n={self.n}: could not isolate the split real "
                f"pair at alpha={alpha:.8f}",
                real[:4],
            )
        pair = sorted((real[0].real, real[1].real))
        return tuple(pair)

    def _sph_seed(self):
        a0 = self.alpha_k + self.SEED_OFFSET
        pair = self._split_pair(a0)
        q = self._ell_ratio(a0, pair)
        self._sph_alphas = [a0]
        self._sph_pairs = [pair]
        self._sph_phases = [cmath.phase(q)]

    def _sph_advance(self, alpha: float):
        cur = self._sph_alphas[-1]
        while cur < alpha - 1e-15:
            step = min(MARCH_STEP / 2.0, alpha - cur)
            while True:
                nxt = cur + step
                records = _moving_roots(self.family, self.n, nxt)
                live = [r.y for r in records if abs(r.y.imag) <= 1e-7]
                prev = self._sph_pairs[-1]
                r1, ok1 = _match_unambiguous(live, prev[0])
                r2, ok2 = _match_unambiguous(live, prev[1])
                if (not ok1 or not ok2 or r1 == r2) and step > 1e-7:
                    step *= 0.5
                    continue
                if r1 == r2:
                    raise SelectionAmbiguityError(
                        f"spherical pair merged at alpha={nxt:.8f}", [r1]
                    )
                q = self._ell_ratio(nxt, (r1.real, r2.real))
                jump = cmath.phase(q * cmath.exp(-1j * self._sph_phases[-1]))
                if abs(jump) <= 1.5 or step <= 1e-7:
                    break
                step *= 0.5
            self._sph_alphas.append(nxt)
            self._sph_pairs.append((r1.real, r2.real))
            self._sph_phases.append(self._sph_phases[-1] + jump)
            cur = nxt

    def spherical_state(self, alpha: float):
        """((r1, r2), unwrapped phase difference) at a folded angle in (a_K, pi]."""
        with self._sph_lock:
            if not self._sph_alphas:
                self._sph_seed()
            if alpha < self._sph_alphas[0]:
                pair = self._split_pair(alpha)
                return pair, cmath.phase(self._ell_ratio(alpha, pair))
            if alpha > self._sph_alphas[-1]:
                self._sph_advance(alpha)
            idx = min(
                range(len(self._sph_alphas)),
                key=lambda i: abs(self._sph_alphas[i] - alpha),
            )
            prev = self._sph_pairs[idx]
            anchor_phase = self._sph_phases[idx]
        records = _moving_roots(self.family, self.n, alpha)
        live = [r.y for r in records if abs(r.y.imag) <= 1e-7]
        r1 = min(live, key=lambda y: abs(y - prev[0])).real
        r2 = min(live, key=lambda y: abs(y - prev[1])).real
        q = self._ell_ratio(alpha, (r1, r2))
        jump = cmath.phase(q * cmath.exp(-1j * anchor_phase))
        return (r1, r2), anchor_phase + jump

    def spherical_trace(self, alpha: float) -> tuple:
        with self._sph_lock:
            return tuple(
                (a, pr)
                for a, pr in zip(self._sph_alphas, self._sph_pairs)
                if a <= alpha + 1e-12
            )


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


def select_hyperbolic_root(spec: ConeManifoldSpec) -> complex:
    """The geometric root y0 (Im f > 0) at a hyperbolic cone angle."""
    member = _member(spec.family, spec.n)
    if not spec.alpha < member.alpha_k:
        raise ValueError(
            f"alpha={spec.alpha} is not in the hyperbolic range (0, {member.alpha_k})"
        )
    return member.hyperbolic_root(spec.alpha)


def hyperbolic_root_at(family: KnotFamily, n: int, alpha: float) -> complex:
    """Tracked y0 at any hyperbolic angle (fast path for the Schlaefli sweep)."""
    return _member(family, n).hyperbolic_root(alpha)


def _fold(alpha: float) -> float:
    return alpha if alpha <= math.pi else 2.0 * math.pi - alpha


def select_spherical_roots(spec: ConeManifoldSpec):
    """(y_plus, y_minus): the real-f root pair, phase-ordered (l_alpha > 0)."""
    member = _member(spec.family, spec.n)
    a_k = member.alpha_k
    if not (a_k < spec.alpha < 2.0 * math.pi - a_k):
        raise ValueError(
            f"alpha={spec.alpha} is not in the spherical band "
            f"({a_k}, {2.0 * math.pi - a_k})"
        )
    pair, phase = member.spherical_state(_fold(spec.alpha))
    if phase >= 0.0:
        return pair[0], pair[1]
    return pair[1], pair[0]


def spherical_length(family: KnotFamily, n: int, alpha: float) -> float:
    """Geodesic length of the singular locus in the spherical regime.

    Unwrapped longitude phase difference of the selected pair, anchored to
    zero at a_K; symmetric under alpha -> 2*pi - alpha.
    """
    _, phase = _member(family, n).spherical_state(_fold(alpha))
    return abs(phase)


def classify(spec: ConeManifoldSpec) -> RegimeResult:
    """Regime of the cone angle plus the selected geometric root(s)."""
    member = _member(spec.family, spec.n)
    a_k = member.alpha_k
    alpha = spec.alpha
    if alpha >= 2.0 * math.pi - a_k:
        return RegimeResult(Regime.OUT_OF_RANGE, a_k, (), (), ())
    if alpha == a_k:
        y_star = member.y_star
        return RegimeResult(
            Regime.EUCLIDEAN, a_k, (y_star,), (eval_f(spec.n, y_star),), ()
        )
    if alpha < a_k:
        y0 = member.hyperbolic_root(alpha)
        return RegimeResult(
            Regime.HYPERBOLIC,
            a_k,
            (y0,),
            (eval_f(spec.n, y0),),
            member.hyperbolic_trace(alpha),
        )
    y_plus, y_minus = select_spherical_roots(spec)
    return RegimeResult(
        Regime.SPHERICAL,
        a_k,
        (y_plus, y_minus),
        (eval_f(spec.n, y_plus), eval_f(spec.n, y_minus)),
        member.spherical_trace(_fold(alpha)),
    )


def clear_caches():
    """Drop all per-member geometry caches (mainly for tests)."""
    with _LOCK:
        _MEMBERS.clear()
