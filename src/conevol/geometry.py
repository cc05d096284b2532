"""Regime classification and geometric root selection.

Each hyperbolic family member has a critical cone angle a_K in [2*pi/3, pi):
the cone manifold is hyperbolic below it, Euclidean at it, spherical between
a_K and 2*pi - a_K, and out of range from 2*pi - a_K on.  regime_of is that
one rule; every entry point asks it and raises ValueError outside its own
regimes (classify serves all four).  classify is the one source of l_alpha.

Roots are selected by their order, not by continuation.  The hyperbolic cone
structure on (0, a_K) is unique (Hodgson-Kerckhoff), and its root is the
member with Im f > 0 (_geometric_root) of the non-real conjugate pair with
the least real part (_least_pair).  A missing pair, a least pair that is not
conjugate, or a second pair within PAIR_MARGIN in real part raises
SelectionAmbiguityError.
Above a_K the pair has split into the two least real roots r0 < r1
(_spherical_pair), ordered (r1, r0) for n > 0 and (r0, r1) for n < 0; a
non-real root among the two least raises SelectionAmbiguityError.  Their
length comes from f in closed form: for real F = f(r) tan(alpha/2) the
longitude eigenvalue is -exp(-2i atan F), so l = 2|atan F(r1) - atan F(r0)|.
Angles above pi reuse the pair at 2*pi - alpha, since the cone equation
depends on the angle only through A^2 = cot^2(alpha/2).  Each lookup is one
cone-equation solve and a sort, so it cannot depend on earlier lookups.
classify_panel classifies the angles of one member together (a Schlaefli
quadrature panel): each angle still gets its own solve, but the companion
roots of all come from one stacked eigenvalue call (_panel_roots) and the
hyperbolic lengths from one stacked walk of the longitude words, each bit
for bit its single value; classify is its one-angle call.  A panel raises
its first build failure (a cone equation that cannot be built), else its
first solve or selection failure, else its first length failure.

a_K is set up once per member: the rule picks the root at ALPHA_SEED, the
Riley polynomial certifies it (riley.build_phi: its scaled backward error in
Phi(2cos(alpha/2), .) is at most PHI_ROOT_TOL), and the angle is marched
upward until the least pair collides onto the real axis.  The Im f > 0 rule
already gives the root positive real length: |ell| > 1 is equivalent to
Re(-i f tan(alpha/2)) > 0.  The set-up reads no matrix word; of the matrix
oracle (representation) geometry uses only the longitude eigenvalue, for the
hyperbolic l_alpha.  Every march node uses the same order rule (_least_pair),
so nothing is tracked from node to node but the pair's real part; a node has
collided when no root is non-real.  No member collides below the
Kojima-Porti floor 2*pi/3 (_WINDOW_LO), so the march passes its lattice
nodes below the floor without a solve; it keeps the lattice of a march from
ALPHA_SEED, since a_K and y* depend on the bracket's exact bits.  The first
solved node, less than one step below the floor, must hold a non-real pair,
else NotBracketedError.  The march halves its step past a collided node,
bisects the collision angle, and the collided double root is polished on
the deflated equation, which gives a_K.  A failed polish raises
NonConvergenceError; the bisected angle is no fallback.  The member keeps
only a_K and the double root y*.

_least_pair reads no real root, so the seed, the march and every hyperbolic
lookup take the cone equation's non-real listing (riley.solve_cone_equation
with keep_real=False), which certifies an exactly real root by its residual
instead of polishing it.  The spherical pair takes the full listing: which
two roots are least depends on every root's polished value.

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
from .errors import NonConvergenceError, NotBracketedError, SelectionAmbiguityError
from .exactpoly import p_deriv, p_eval, p_roots_many
from .families import ConeManifoldSpec, KnotFamily, validate_twist
from .representation import longitude_eigenvalues
from .riley import (PHI_ROOT_TOL, _cone_parts, build_cone_equation, build_phi,
                    solve_cone_equation)

ALPHA_SEED = 0.01
MARCH_STEP = 0.05
COLLISION_IM_TOL = 1e-9
BISECT_TOL = 1e-10
REAL_IM_TOL = 1e-7  # a spherical root with |Im y| above this is not real
PAIR_MARGIN = 1e-3  # least real-part gap between the geometric pair and the next
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


def _moving_roots(family: KnotFamily, n: int, alpha: float, keep_real: bool = True,
                  solved=None) -> list:
    """The moving roots at alpha; keep_real=False leaves out the exactly real
    ones (solve_cone_equation's non-real listing), which _least_pair never reads.
    solved is alpha's (cone equation, companion roots) when a panel has them."""
    eq, starts = solved or (build_cone_equation(family, n, 1.0 / math.tan(0.5 * alpha)), None)
    return [r.y for r in solve_cone_equation(eq, False, keep_real, starts) if not r.unit_f]


def _panel_roots(family: KnotFamily, n: int, alphas, keep_reals):
    """_moving_roots at each angle, with the companion roots of every angle
    from one stacked solve (exactpoly.p_roots_many).

    Every cone equation is built first, so an equation that cannot be built
    (build_cone_equation's ValueError) raises before any angle is polished;
    the angles are then polished lazily, each when its turn comes.
    """
    eqs = [build_cone_equation(family, n, 1.0 / math.tan(0.5 * alpha)) for alpha in alphas]
    starts = p_roots_many([eq.moving_coeffs for eq in eqs])
    return (_moving_roots(family, n, alpha, keep_real, solved)
            for alpha, keep_real, solved in zip(alphas, keep_reals, zip(eqs, starts)))


def _least_pair(family: KnotFamily, n: int, alpha: float, roots):
    """The least-real-part non-real conjugate pair, or None if every root is real."""
    ys = sorted((y for y in roots if abs(y.imag) > COLLISION_IM_TOL),
                key=lambda y: y.real)
    if not ys:
        return None
    if len(ys) < 2 or abs(ys[1] - ys[0].conjugate()) > 1e-9 * max(1.0, abs(ys[0])):
        raise SelectionAmbiguityError(f"{_where(family, n, alpha)}: the least non-real "
                                      f"roots {ys[:2]} are not a conjugate pair", ys[:2])
    if len(ys) > 2 and ys[2].real - ys[0].real < PAIR_MARGIN:
        raise SelectionAmbiguityError(f"{_where(family, n, alpha)}: two non-real pairs "
                                      f"within {PAIR_MARGIN} in real part", ys[:4])
    return ys[0], ys[1]


def _where(family: KnotFamily, n: int, alpha: float) -> str:
    return f"{family.value} n={n} at alpha={alpha:.8f}"


def _geometric_root(family: KnotFamily, n: int, alpha: float, roots) -> complex:
    """The member with Im f > 0 of the least pair (_least_pair)."""
    pair = _least_pair(family, n, alpha, roots)
    if pair is None:
        raise SelectionAmbiguityError(f"{_where(family, n, alpha)}: no non-real root", [])
    return pair[0] if eval_f(n, pair[0]).imag > 0.0 else pair[1]


def _spherical_pair(family: KnotFamily, n: int, alpha: float, roots):
    """((y_plus, y_minus), l_alpha) at a folded spherical angle in (a_K, pi],
    from its moving roots (the full listing).

    The two least real roots r0 < r1, as (r1, r0) for n > 0 and (r0, r1)
    for n < 0, and l = 2|atan F(r1) - atan F(r0)| with F = f(r) tan(alpha/2).
    """
    ys = sorted(roots, key=lambda y: y.real)
    if len(ys) < 2 or max(abs(ys[0].imag), abs(ys[1].imag)) > REAL_IM_TOL:
        raise SelectionAmbiguityError(
            f"{family.value} n={n}: the two least roots at alpha={alpha:.8f} are "
            f"not a real pair", ys[:2])
    r0, r1 = ys[0].real, ys[1].real
    t = math.tan(0.5 * alpha)
    l_alpha = 2.0 * abs(math.atan(eval_f(n, r1) * t) - math.atan(eval_f(n, r0) * t))
    return ((r1, r0) if n > 0 else (r0, r1)), l_alpha


def _lengths(family: KnotFamily, n: int, alphas, ys) -> list:
    """Real length 2*log|ell| of the singular geodesic at each hyperbolic root."""
    ms = [cmath.exp(0.5j * alpha) for alpha in alphas]
    return [2.0 * math.log(abs(ell)) for ell in longitude_eigenvalues(family, n, ms, ys)]


def _certify(family: KnotFamily, n: int, alpha: float, y: complex) -> bool:
    """Phi(2cos(alpha/2), y) = 0 to a scaled backward error of riley.PHI_ROOT_TOL."""
    x = 2.0 * math.cos(0.5 * alpha)
    return build_phi(family, n).backward_error(x, y) <= PHI_ROOT_TOL


def _march_to_collision(family: KnotFamily, n: int):
    """(angle, x) where the least pair, of real part x, lands on the real axis.

    The march walks the lattice ALPHA_SEED + k*MARCH_STEP, built by the float
    additions of its step rule; a node has collided when _least_pair finds no
    non-real root.  No member collides below _WINDOW_LO (Kojima-Porti), so a
    lattice node is passed without a solve when the node after it is still
    below the floor, and the first solved node must hold a non-real pair,
    else NotBracketedError.  The lattice starts at ALPHA_SEED, not at the
    floor, because a_K and y* hang on the bracket's exact bits (the polish
    starts from the bisected angle and x).  None if the pair is still off
    the axis at pi.
    """
    a, step, x = ALPHA_SEED, MARCH_STEP, None
    while a + step + step < _WINDOW_LO:
        a += step
    while True:
        if a >= math.pi - 1e-12:
            return None
        cand = min(a + step, math.pi)
        pair = _least_pair(family, n, cand, _moving_roots(family, n, cand, False))
        if pair is not None:
            a, x = cand, pair[0].real
            step = min(MARCH_STEP, step * 1.6)
        elif x is None:
            raise NotBracketedError(f"{_where(family, n, cand)}: the least pair has "
                                    f"collided below 2*pi/3")
        elif step > 1e-4:
            step *= 0.5
        else:
            break
    lo, hi = a, cand
    while hi - lo > BISECT_TOL:
        mid = 0.5 * (lo + hi)
        pair = _least_pair(family, n, mid, _moving_roots(family, n, mid, False))
        if pair is not None:
            lo, x = mid, pair[0].real
        else:
            hi = mid
    return 0.5 * (lo + hi), x


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
    """Per-(family, n) set-up: a_K and the collided double root y*."""

    def __init__(self, family: KnotFamily, n: int):
        self.family = family
        self.n = n
        self._resolve()

    def _resolve(self):
        family, n = self.family, self.n
        roots = _moving_roots(family, n, ALPHA_SEED, False)
        if _least_pair(family, n, ALPHA_SEED, roots) is None:
            raise NotBracketedError(
                f"{family.value} n={n}: no complex root at the seed angle; this "
                f"member admits no hyperbolic cone structure"
            )
        y_seed = _geometric_root(family, n, ALPHA_SEED, roots)
        if not _certify(family, n, ALPHA_SEED, y_seed):
            raise SelectionAmbiguityError(
                f"{family.value} n={n}: the seed root failed Riley-polynomial "
                f"certification",
                [y_seed],
            )
        collision = _march_to_collision(family, n)
        if collision is None or not _WINDOW_LO <= collision[0] < math.pi:
            raise NotBracketedError(
                f"{family.value} n={n}: the geometric root collides outside "
                f"[2*pi/3, pi), at {collision}"
            )
        alpha_k, y_star = _polish_collision(family, n, *collision)
        if not (_WINDOW_LO <= alpha_k < math.pi):
            raise NotBracketedError(
                f"collision angle {alpha_k:.8f} outside [2*pi/3, pi) for "
                f"{family.value} n={n}"
            )
        self.alpha_k = alpha_k
        self.y_star = y_star

    def hyperbolic_root(self, alpha: float) -> complex:
        """The geometric root at a hyperbolic angle (_geometric_root)."""
        return _geometric_root(self.family, self.n, alpha,
                               _moving_roots(self.family, self.n, alpha, False))


def _member(family: KnotFamily, n: int) -> _MemberGeometry:
    validate_twist(n)  # before the lookup: 1.0 or True must not find n = 1
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
    """The real double root y* at a_K (the contour's integration anchor)."""
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
    """(y_plus, y_minus): the real-f root pair, in _spherical_pair's order."""
    return _spherical(spec).roots


def spherical_length(family: KnotFamily, n: int, alpha: float) -> float:
    """Geodesic length of the singular locus in the spherical regime.

    2|atan F(r1) - atan F(r0)| at the selected pair (_spherical_pair); zero
    at a_K and symmetric under alpha -> 2*pi - alpha.
    """
    return _spherical(ConeManifoldSpec(family, n, alpha)).l_alpha


def classify(spec: ConeManifoldSpec) -> RegimeResult:
    """Regime, selected geometric root(s) and l_alpha (its one source).

    l_alpha is 2*log|ell| at the hyperbolic root, from the matrix words, or
    the spherical pair's closed-form length (_spherical_pair).  The one-angle
    call of classify_panel.
    """
    return classify_panel([spec])[0]


def classify_panel(specs) -> list:
    """classify at each of one member's specs, as one panel (module docstring).

    ValueError unless there is at least one spec and every spec is of one
    member.  Every angle's cone equation is built (_panel_roots), then each
    angle is solved and selected in order, then the hyperbolic lengths are
    found together: a panel raises its first build failure, else its first
    solve or selection failure, else its first length failure.
    """
    if len({(spec.family, spec.n) for spec in specs}) != 1:
        raise ValueError("a panel takes at least one spec, all of one member")
    family, n = specs[0].family, specs[0].n
    member = _member(family, n)
    a_k = member.alpha_k
    regimes = [regime_of(spec.alpha, a_k) for spec in specs]
    solved = [(_fold(spec.alpha), regime) for spec, regime in zip(specs, regimes)
              if regime in (Regime.HYPERBOLIC, Regime.SPHERICAL)]
    roots = _panel_roots(family, n, [alpha for alpha, _ in solved],
                         [regime is Regime.SPHERICAL for _, regime in solved])
    # the hyperbolic root, or the spherical (pair, l_alpha)
    picks = [_geometric_root(family, n, alpha, ys) if regime is Regime.HYPERBOLIC
             else _spherical_pair(family, n, alpha, ys)
             for (alpha, regime), ys in zip(solved, roots)]
    hyperbolic = [(alpha, y) for (alpha, regime), y in zip(solved, picks)
                  if regime is Regime.HYPERBOLIC]
    lengths = iter(_lengths(family, n, *zip(*hyperbolic)) if hyperbolic else ())
    picks = iter(picks)
    out = []
    for regime in regimes:
        if regime is Regime.OUT_OF_RANGE:
            out.append(RegimeResult(regime, a_k, (), None))
        elif regime is Regime.EUCLIDEAN:
            out.append(RegimeResult(regime, a_k, (member.y_star,), None))
        elif regime is Regime.HYPERBOLIC:
            out.append(RegimeResult(regime, a_k, (next(picks),), next(lengths)))
        else:
            out.append(RegimeResult(regime, a_k, *next(picks)))
    return out


def clear_caches():
    """Drop all per-member geometry caches (mainly for tests)."""
    with _LOCK:
        _MEMBERS.clear()
