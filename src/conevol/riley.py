"""Riley polynomials and the cone equation.

Two exact objects are assembled here with integer arithmetic:

* the Riley polynomial Phi of the family member, whose zeros parametrize the
  nonabelian SL(2,C) representations (for C(2n,-2n) the factor carrying the
  holonomy component is used, the reducible factor z-2 is dropped).  In all
  three families it is linear in x^2, Phi = P0(y) + x^2 P1(y), the same shape
  as the cone equation's C0 + A^2 C1, so a RileyPoly holds the two exact
  integer lists;

* the cone equation  f_n^2(y) + A^2 = (1+A^2) g_n(y)  with A = cot(alpha/2),
  cleared of denominators with the minimal powers of (y-2) and S_{n-1}.  The
  powers come from families.R_EXPONENTS, the exponent table that chebyshev's
  g_n and volume's factorisation of the log argument read as well.  The
  cleared polynomial splits as C0(y) + A^2*C1(y) with exact integer C0, C1,
  so one symbolic assembly per (family, n) serves every angle.

A ConeEquation carries the cleared polynomial deflated: the parasite
gcd(C0, C1) in closed form (_cone_parts), whose roots are exact cosines
(chebyshev.s_diff_zeros), and the moving quotient, whose roots come from the
companion matrix (exactpoly.p_roots_many: one stacked call serves every angle
of a geometry panel) and are polished by Newton iteration on the rational
residual itself, which avoids error amplification from the cleared factors;
roots that fail to polish raise.  Each non-real conjugate pair is polished
once: LAPACK returns the companion roots of a real polynomial in exact
conjugate pairs, and every operation of the polish and of _unit_f (complex
+, -, *, division, abs and integer powers, all with real coefficients) maps
conjugate inputs to conjugate outputs, so the twin's record is the
conjugate of the first member's, bit for bit.  Each Newton point costs one
recurrence walk of the member's kernel closure, which the equation looks up
once when it is made (ConeEquation.fg, not a constructor argument):
ConeEquation.residual_prime returns (residual, slope), and keeps its name
because perfbench's tracer counts riley.newton.steps by it.  Of the cleared
denominators only y = 2 can be a root, exactly where cot^2(alpha/2) = det K
(C(2n,2) with n <= -1, every C(2n,-2n)); it is marked spurious.  (S_{n-1}
divides w and D, so at its zeros C0 = C1 = r != 0 by the Pell identity.)
Roots with f_n(y)^2 = 1, where the equivalence with Phi = 0 breaks down,
are marked unit_f; the angle-independent ones, roots of gcd(C0, C1), and the
spurious roots appear only in the full flagged listing (keep_spurious).

A third listing, the non-real one (keep_real=False), serves callers that
read no real root: below a_K geometry selects the least non-real conjugate
pair, and more than half of the companion roots there come out exactly real.
Newton keeps an exactly real start real, so its polish could only move the
root along the axis the selection ignores; such a root is left out, and one
residual walk certifies it instead of a polish.  A root whose certificate
fails is polished and checked as in the other listings, so every root passes
or raises exactly as there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import zip_longest

from . import exactpoly as xp
from .chebyshev import eval_S, eval_f, kernel, s_diff_zeros
from .errors import NonConvergenceError, PoleError
from .families import (R_EXPONENTS, ConeManifoldSpec, KnotFamily, validate_family,
                       validate_twist)

# Proximity threshold to the cleared denominator y = 2.
SPURIOUS_EPS = 1e-8
RESIDUAL_TOL = 1e-8
UNIT_F_TOL = 1e-8
PHI_ROOT_TOL = 1e-14  # Phi's one root test: RileyPoly.backward_error at most this
NEWTON_MAX_STEPS = 100


def trace_u(n: int, x, y):
    """Trace of the inner word block ((ab)^-n conjugate pattern): 2 + (y-2)(y+2-x^2)S_{n-1}^2(y)."""
    s = eval_S(n - 1, y)
    return 2 + (y - 2) * (y + 2 - x * x) * s * s


@dataclass(frozen=True)
class RileyPoly:
    """Phi = P0(y) + x^2 * P1(y), exact integer coefficients ascending in y."""

    p0: tuple
    p1: tuple

    def eval(self, x, y):
        return xp.p_eval(self.p0, y) + x * x * xp.p_eval(self.p1, y)

    def univariate_in_y(self, x):
        """Complex coefficient list in y at fixed numeric x (ascending)."""
        x_sq = complex(x) * complex(x)
        pairs = zip_longest(self.p0, self.p1, fillvalue=0)
        return xp.p_trim([0j + c0 + c1 * x_sq for c0, c1 in pairs])

    def backward_error(self, x, y) -> float:
        """Scaled backward error of y as a root of Phi(x, .) (exactpoly.p_backward_error)."""
        return xp.p_backward_error(self.p0, self.p1, x * x, y)


@lru_cache(maxsize=None, typed=True)
def build_phi(family: KnotFamily, n: int) -> RileyPoly:
    """The Phi of this member: word exponent p = 1 for C(2n,3) and C(2n,2), the
    holonomy factor for C(2n,-2n).  With t = y + 2 - x^2 and S_k = S_k(y):

    C(2n,3):   (S_n - S_{n-1}) u - (S_{n-1} - S_{n-2}),  u = 2 + (y-2) t S_{n-1}^2;
    C(2n,2):   1 + t S_{n-1} (S_n - S_{n-1});
    C(2n,-2n): -1 + t S_{n-1}^2, whose product with y-2 is u - y: the even
               Riley polynomial at p = -n has it as a factor, and y-2 carries
               only reducible representations.

    Each is linear in x^2: Phi = P0 + x^2 P1, with t = (y+2) - x^2 splitting
    any term t*q into (y+2)*q and -q.
    """
    validate_family(family)
    validate_twist(n)
    s_nm1, s_n = xp.s_poly(n - 1), xp.s_poly(n)
    if family is KnotFamily.C2N3:  # a u - b = (2a - b) + t a (y-2) S_{n-1}^2
        a, b = xp.p_sub(s_n, s_nm1), xp.p_sub(s_nm1, xp.s_poly(n - 2))
        const = xp.p_sub([2 * c for c in a], b)
        q = xp.p_mul(a, xp.p_mul([-2, 1], xp.p_pow(s_nm1, 2)))
    elif family is KnotFamily.C2N2:
        const, q = [1], xp.p_mul(s_nm1, xp.p_sub(s_n, s_nm1))
    else:
        const, q = [-1], xp.p_pow(s_nm1, 2)
    return RileyPoly(tuple(xp.p_add(const, xp.p_mul([2, 1], q))), tuple(-c for c in q))


# ------------------------------------------------------------- cone equation

@lru_cache(maxsize=None)
def _cone_parts(family: KnotFamily, n: int):
    """Exact integer parts of the cleared equation C0(y) + A^2 * C1(y) = 0.

    With f = N/D (exactpoly.f_parts) and w, r from families.R_EXPONENTS,
    g = -r / (D^2 w); multiplying through by D^2 w gives C0 = N^2 w + r and
    C1 = D^2 w + r = D^2 w (1 - g).  Since N - D = 2(S_{n-1} - S_{n-2}) and
    N + D = 2(S_n - S_{n-1}), C0 - C1 = 4 (S_n - S_{n-1})(S_{n-1} - S_{n-2}) w,
    and the common factor d, the angle-independent f^2 = 1 roots with g = 1,
    is S_{n-1} - S_{n-2} (f = +1) times, when c = 0, S_n - S_{n-1} (f = -1;
    for c > 0, r and g vanish there).  Each S_j - S_{j-1} is monic, so d is
    the primitive gcd(C0, C1), which the tests compare with exactpoly.p_gcd;
    p_divexact certifies that d divides both.  Returns (c0, c1, parasite,
    c0_red, c1_red), the deflated pair (C0/d, C1/d) carrying the moving roots.
    """
    num, den = xp.f_parts(n)
    s_nm1, s_n = xp.s_poly(n - 1), xp.s_poly(n)
    a, b, c, sign = R_EXPONENTS[family]
    w = xp.p_mul(xp.p_pow([-2, 1], a), xp.p_pow(s_nm1, b))
    r = [sign * k for k in xp.p_pow(xp.p_sub(s_n, s_nm1), c)]
    c0 = xp.p_add(xp.p_mul(xp.p_pow(num, 2), w), r)
    c1 = xp.p_add(xp.p_mul(xp.p_pow(den, 2), w), r)
    parasite = xp.p_sub(s_nm1, xp.s_poly(n - 2))
    if c == 0:
        parasite = xp.p_mul(parasite, xp.p_sub(s_n, s_nm1))
    return c0, c1, parasite, xp.p_divexact(c0, parasite), xp.p_divexact(c1, parasite)


@dataclass(frozen=True)
class ConeEquation:
    """f^2 + A^2 = (1+A^2) g as the deflated pair: C0 + A^2*C1 = parasite * moving."""

    family: KnotFamily
    n: int
    A: float
    parasite: tuple  # gcd(C0, C1): exact minimal polynomial of the f^2 = 1 roots
    moving_coeffs: tuple  # deflated (C0 + A^2*C1)/parasite, float ascending
    fg: object = field(init=False, repr=False, compare=False)  # the member's chebyshev.kernel

    def __post_init__(self):
        object.__setattr__(self, "fg", kernel(self.family, self.n))

    def residual(self, y):
        """The rational residual f^2 + A^2 - (1+A^2) g at y."""
        fv, gv, _, _ = self.fg(y)
        a2 = self.A * self.A
        return fv * fv + a2 - (1.0 + a2) * gv

    def residual_prime(self, y):
        """(residual(y), its derivative in y) from one recurrence walk."""
        fv, gv, fp, gp = self.fg(y, 2, 2)
        a2 = self.A * self.A
        one_a2 = 1.0 + a2
        return fv * fv + a2 - one_a2 * gv, 2.0 * fv * fp - one_a2 * gp


def build_cone_equation(family: KnotFamily, n: int, A: float) -> ConeEquation:
    """Clear denominators of f^2 + A^2 = (1+A^2) g and deflate the parasites.

    Coefficients depend on the angle only through A^2, so the equation is
    invariant under A -> -A (hence under alpha -> 2*pi - alpha).  ValueError
    at a non-finite A or float coefficient (A^2 overflows below alpha ~ 1.5e-154).
    """
    validate_family(family)
    validate_twist(n)
    if not math.isfinite(A):
        raise ValueError("A = cot(alpha/2) must be finite")
    _, _, parasite, c0_red, c1_red = _cone_parts(family, n)
    coeffs = xp.p_float_sum(c0_red, c1_red, A * A)
    if not all(map(math.isfinite, coeffs)):
        raise ValueError(f"cone equation coefficients overflow at A = cot(alpha/2) = {A:g}")
    return ConeEquation(family, n, float(A), tuple(parasite), coeffs)


@dataclass
class RootRecord:
    """One root of a cone equation; unit_f marks an f^2 = 1 parasite."""

    y: complex
    residual: float
    spurious: bool = False
    unit_f: bool = False


def _polish(eq: ConeEquation, y: complex):
    """Newton iteration on the rational residual; returns (y, |residual|)."""
    best_y, best_r, cur = y, math.inf, y
    try:
        for _ in range(NEWTON_MAX_STEPS):
            r, rp = eq.residual_prime(cur)
            if abs(r) < best_r:
                best_y, best_r = cur, abs(r)
            if abs(r) <= 1e-14 or rp == 0:
                break
            step = r / rp
            cur = cur - step
            if abs(step) <= 1e-16 * max(1.0, abs(cur)):
                r = eq.residual(cur)
                if abs(r) < best_r:
                    best_y, best_r = cur, abs(r)
                break
    except OverflowError:
        pass  # Newton diverged: keep the best point found so far
    return best_y, best_r


def solve_cone_equation(eq: ConeEquation, keep_spurious: bool = False,
                        keep_real: bool = True, starts=None):
    """All roots of the cone equation, polished and flagged.

    Returns RootRecords sorted by (real, imag); unit_f marks f^2 = 1.  A root
    within SPURIOUS_EPS of y = 2, or whose polish meets a pole, is spurious;
    one whose polished residual exceeds RESIDUAL_TOL raises
    NonConvergenceError.  keep_spurious gives the full flagged listing, with
    the spurious roots and the angle-independent f^2 = 1 parasites.

    keep_real=False gives the non-real listing (module docstring): it leaves
    out each root with Im y = 0.0 exactly, unpolished if |residual| <=
    RESIDUAL_TOL at the start (the polish keeps the best residual, the
    start's included, so it would pass too), else polished and checked.

    In every listing a non-real start whose conjugate start was polished
    takes the conjugate of that record (module docstring); a start whose
    twin is missing or was not polished is polished itself, and a failing
    pair raises at its first member.

    starts are the companion roots of eq.moving_coeffs when the caller has
    them from a stacked solve (exactpoly.p_roots_many); by default they are
    found here.
    """
    records, twins = [], {}
    for y0 in xp.p_roots(eq.moving_coeffs) if starts is None else starts:
        if abs(y0 - 2.0) <= SPURIOUS_EPS:
            records.append(RootRecord(y0, float("inf"), True))
            continue
        if not keep_real and y0.imag == 0.0 and _certified(eq, y0):
            continue
        twin = twins.pop(y0, None)
        if twin is not None:
            records.append(RootRecord(twin.y.conjugate(), twin.residual, False, twin.unit_f))
            continue
        try:
            y_pol, res = _polish(eq, y0)
        except PoleError:
            records.append(RootRecord(y0, float("inf"), True))
            continue
        if res > RESIDUAL_TOL and not _double_root_excused(eq, y_pol, res):
            raise NonConvergenceError(
                f"root {y0} failed to polish below {RESIDUAL_TOL} (residual {res:.3e})"
            )
        if keep_real or y0.imag != 0.0:
            records.append(RootRecord(y_pol, res, False, _unit_f(eq.n, y_pol)))
            if y0.imag != 0.0:
                twins[y0.conjugate()] = records[-1]
    if keep_spurious:
        for y0 in _parasite_roots(eq.family, eq.n):
            try:
                res = abs(eq.residual(y0))
            except PoleError:
                res = float("inf")
            records.append(RootRecord(y0, res, False, True))
    else:
        records = [r for r in records if not r.spurious]
    records.sort(key=lambda r: (r.y.real, r.y.imag))
    return records


def _certified(eq: ConeEquation, y0: complex) -> bool:
    """|residual(y0)| <= RESIDUAL_TOL; False where the walk meets a pole or overflows."""
    try:
        return abs(eq.residual(y0)) <= RESIDUAL_TOL
    except (PoleError, OverflowError):
        return False


def _parasite_roots(family: KnotFamily, n: int) -> list:
    """The parasite factor's roots (_cone_parts): f = +1, and f = -1 for C(2n,-2n)."""
    f_minus_one = s_diff_zeros(n) if R_EXPONENTS[family][2] == 0 else []
    return [complex(y) for y in s_diff_zeros(n - 1) + f_minus_one]


def _unit_f(n: int, y: complex) -> bool:
    """f(y)^2 = 1 to UNIT_F_TOL; False at a pole of f."""
    try:
        fv = eval_f(n, y)
    except PoleError:
        return False
    return abs(fv * fv - 1.0) <= UNIT_F_TOL


def _double_root_excused(eq: ConeEquation, y: complex, res: float) -> bool:
    """Near a root collision the polynomial is fine but Newton stalls; accept then."""
    return res <= 1e-6 and abs(eq.residual_prime(y)[1]) <= 1e-3


@dataclass(frozen=True)
class LemmaCdReport:
    """Simultaneous-vanishing check of Phi(2cos(alpha/2), y) and the cone residual."""

    phi_value: complex
    cone_residual: complex
    phi_zero: bool
    cone_zero: bool
    unit_f: bool

    @property
    def consistent(self) -> bool:
        if self.unit_f:
            # f^2 = 1 parasites satisfy the cone equation for every angle but
            # are not representation points; the equivalence presumes f^2 != 1.
            return True
        return self.phi_zero == self.cone_zero


def check_lemma_cd(
    family: KnotFamily, n: int, alpha: float, y: complex
) -> LemmaCdReport:
    """Evaluate Phi and the rational cone residual at the same point.

    Away from f^2 = 1 the two vanish simultaneously; the report applies Phi's
    root test (PHI_ROOT_TOL) and the cone equation's (|residual| <= RESIDUAL_TOL).
    """
    A = ConeManifoldSpec(family, n, alpha).cot_half  # ValueError outside (0, 2*pi)
    x, y = 2.0 * math.cos(0.5 * alpha), complex(y)
    phi = build_phi(family, n)
    res = build_cone_equation(family, n, A).residual(y)
    return LemmaCdReport(
        phi.eval(x, y), res, phi.backward_error(x, y) <= PHI_ROOT_TOL,
        abs(res) <= RESIDUAL_TOL, _unit_f(n, y),
    )
