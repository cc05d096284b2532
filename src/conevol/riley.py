"""Riley polynomials and the cone equation.

Two exact objects are assembled here with integer arithmetic:

* the Riley polynomial Phi of the family member, a bivariate polynomial in
  (x^2, y) whose zeros parametrize the nonabelian SL(2,C) representations
  (for C(2n,-2n) the factor carrying the holonomy component is used, the
  reducible factor z-2 is dropped);

* the cone equation  f_n^2(y) + A^2 = (1+A^2) g_n(y)  with A = cot(alpha/2),
  cleared of denominators with the minimal powers of (y-2) and S_{n-1}.  The
  powers come from families.R_EXPONENTS, the exponent table that chebyshev's
  g_n and volume's factorisation of the log argument read as well.  The
  cleared polynomial splits as C0(y) + A^2*C1(y) with exact integer C0, C1,
  so one symbolic assembly per (family, n) serves every angle.

A ConeEquation carries the cleared polynomial deflated: the parasite
gcd(C0, C1) and the moving quotient.  The moving roots come from the
companion matrix (exactpoly.p_roots) and are polished by Newton iteration on
the rational residual itself, which avoids error amplification from the
cleared factors; roots that fail to polish raise.  Each non-real conjugate
pair is polished once: LAPACK returns the companion roots of a real
polynomial in exact conjugate pairs, and every operation of the polish and
of _unit_f (complex +, -, *, division, abs and integer powers, all with real
coefficients) maps conjugate inputs to conjugate outputs, so the twin's
record is the conjugate of the first member's, bit for bit.  Each Newton
point costs one recurrence walk: ConeEquation.residual_prime returns
(residual, slope), and keeps its name because perfbench's tracer counts
riley.newton.steps by it.  Of the cleared denominators only y = 2 can be a
root, exactly where cot^2(alpha/2) = det K (C(2n,2) with n <= -1, every
C(2n,-2n)); it is marked spurious.  (S_{n-1} divides w and D, so at its
zeros C0 = C1 = r != 0 by the Pell identity.)  Roots with f_n(y)^2 = 1,
where the equivalence with Phi = 0 breaks down, are marked unit_f; the
angle-independent ones, roots of gcd(C0, C1), and the spurious roots appear
only in the full flagged listing (keep_spurious).

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
from dataclasses import dataclass
from functools import lru_cache

from . import exactpoly as xp
from .chebyshev import eval_S, eval_f, kernel
from .errors import NonConvergenceError, PoleError
from .families import R_EXPONENTS, KnotFamily, validate_twist

# Proximity threshold to the cleared denominator y = 2.
SPURIOUS_EPS = 1e-8
RESIDUAL_TOL = 1e-8
UNIT_F_TOL = 1e-8
LEMMA_CD_TOL = 1e-8  # |Phi| and |cone residual| below this count as zero
NEWTON_MAX_STEPS = 100
NEWTON_POLY_STEPS = 50  # Newton steps polishing a root of the parasite gcd


def trace_u(n: int, x, y):
    """Trace of the inner word block ((ab)^-n conjugate pattern): 2 + (y-2)(y+2-x^2)S_{n-1}^2(y)."""
    s = eval_S(n - 1, y)
    return 2 + (y - 2) * (y + 2 - x * x) * s * s


@dataclass(frozen=True)
class BivariatePoly:
    """Integer polynomial in (x^2, y); coeffs maps (i, j) -> coefficient of (x^2)^i y^j."""

    coeffs: dict

    def eval(self, x, y):
        return xp.b_eval(self.coeffs, x * x, y)

    def univariate_in_y(self, x):
        """Coefficient list in y at fixed numeric x (ascending)."""
        return xp.b_uni_in_y(self.coeffs, complex(x) * complex(x))


# y + 2 - x^2, shared by the inner block and both even-family builders
_Y_PLUS_2_MINUS_X2 = xp.b_sub(xp.b_from_uni([2, 1], "y"), xp.b_from_uni([0, 1], "X"))


def _u_block(n: int) -> dict:
    """u = 2 + (y-2)(y+2-x^2) S_{n-1}^2(y) as an exact bivariate polynomial."""
    s = xp.b_from_uni(xp.s_poly(n - 1), "y")
    y_minus_2 = xp.b_from_uni([-2, 1], "y")
    out = xp.b_mul(xp.b_mul(y_minus_2, _Y_PLUS_2_MINUS_X2), xp.b_mul(s, s))
    return xp.b_add(xp.b_const(2), out)


@lru_cache(maxsize=None)
def build_phi_odd(n: int, p: int) -> BivariatePoly:
    """Riley polynomial of C(2n, 2p+1):  (S_n - S_{n-1}) S_p(u) - (S_{n-1} - S_{n-2}) S_{p-1}(u)."""
    validate_twist(n)
    u = _u_block(n)
    sp_u = xp.b_compose_S(p, u)
    spm1_u = xp.b_compose_S(p - 1, u)
    a = xp.b_from_uni(xp.p_sub(xp.s_poly(n), xp.s_poly(n - 1)), "y")
    b = xp.b_from_uni(xp.p_sub(xp.s_poly(n - 1), xp.s_poly(n - 2)), "y")
    return BivariatePoly(xp.b_sub(xp.b_mul(a, sp_u), xp.b_mul(b, spm1_u)))


@lru_cache(maxsize=None)
def build_phi_even(n: int, p: int) -> BivariatePoly:
    """Riley polynomial of C(2n, 2p):  [1 + (z+2-x^2) S_{n-1}(S_n - S_{n-1})] S_{p-1}(v) - S_{p-2}(v)."""
    validate_twist(n)
    v = _u_block(n)  # same shape in the variable z
    s_nm1 = xp.b_from_uni(xp.s_poly(n - 1), "y")
    diff = xp.b_from_uni(xp.p_sub(xp.s_poly(n), xp.s_poly(n - 1)), "y")
    bracket = xp.b_add(xp.b_const(1), xp.b_mul(_Y_PLUS_2_MINUS_X2, xp.b_mul(s_nm1, diff)))
    return BivariatePoly(
        xp.b_sub(xp.b_mul(bracket, xp.b_compose_S(p - 1, v)), xp.b_compose_S(p - 2, v))
    )


@lru_cache(maxsize=None)
def build_phi_hol_minus2n(n: int) -> BivariatePoly:
    """Holonomy factor for C(2n,-2n):  -1 + (z+2-x^2) S_{n-1}^2(z).

    The full even Riley polynomial at word exponent p = -n contains this as a
    factor; (z-2) times it equals v - z, with z-2 carrying only reducible
    representations.
    """
    validate_twist(n)
    s = xp.b_from_uni(xp.s_poly(n - 1), "y")
    return BivariatePoly(
        xp.b_add(xp.b_const(-1), xp.b_mul(_Y_PLUS_2_MINUS_X2, xp.b_mul(s, s)))
    )


def build_phi(family: KnotFamily, n: int) -> BivariatePoly:
    """The Phi used for this family member (holonomy factor for C(2n,-2n))."""
    if family is KnotFamily.C2N3:
        return build_phi_odd(n, 1)
    if family is KnotFamily.C2N2:
        return build_phi_even(n, 1)
    return build_phi_hol_minus2n(n)


# ------------------------------------------------------------- cone equation

@lru_cache(maxsize=None)
def _cone_parts(family: KnotFamily, n: int):
    """Exact integer parts of the cleared equation C0(y) + A^2 * C1(y) = 0.

    With f = N/D (exactpoly.f_parts) and w, r from families.R_EXPONENTS,
    g = -r / (D^2 w); multiplying through by D^2 w gives C0 = N^2 w + r and
    C1 = D^2 w + r.  The common factor d = gcd(C0, C1) holds exactly the
    angle-independent f^2 = 1 parasite roots; the deflated pair (C0/d, C1/d)
    carries the moving roots.  Returns (c0, c1, parasite, c0_red, c1_red).
    """
    num, den = xp.f_parts(n)
    s_nm1 = xp.s_poly(n - 1)
    a, b, c, sign = R_EXPONENTS[family]
    w = xp.p_mul(xp.p_pow([-2, 1], a), xp.p_pow(s_nm1, b))
    r = [sign * k for k in xp.p_pow(xp.p_sub(xp.s_poly(n), s_nm1), c)]
    c0 = xp.p_add(xp.p_mul(xp.p_pow(num, 2), w), r)
    c1 = xp.p_add(xp.p_mul(xp.p_pow(den, 2), w), r)
    parasite = xp.p_gcd(c0, c1)
    if len(parasite) > 1:
        c0_red = xp.p_divexact(c0, parasite)
        c1_red = xp.p_divexact(c1, parasite)
    else:
        parasite = [1]
        c0_red, c1_red = c0, c1
    return c0, c1, parasite, c0_red, c1_red


@dataclass(frozen=True)
class ConeEquation:
    """f^2 + A^2 = (1+A^2) g as the deflated pair: C0 + A^2*C1 = parasite * moving."""

    family: KnotFamily
    n: int
    A: float
    parasite: tuple  # gcd(C0, C1): exact minimal polynomial of the f^2 = 1 roots
    moving_coeffs: tuple  # deflated (C0 + A^2*C1)/parasite, float ascending

    def residual(self, y):
        """The rational residual f^2 + A^2 - (1+A^2) g at y."""
        fv, gv, _, _ = kernel(self.family, self.n)(y)
        a2 = self.A * self.A
        return fv * fv + a2 - (1.0 + a2) * gv

    def residual_prime(self, y):
        """(residual(y), its derivative in y) from one recurrence walk."""
        fv, gv, fp, gp = kernel(self.family, self.n)(y, 2, 2)
        a2 = self.A * self.A
        one_a2 = 1.0 + a2
        return fv * fv + a2 - one_a2 * gv, 2.0 * fv * fp - one_a2 * gp


def build_cone_equation(family: KnotFamily, n: int, A: float) -> ConeEquation:
    """Clear denominators of f^2 + A^2 = (1+A^2) g and deflate the parasites.

    Coefficients depend on the angle only through A^2, so the equation is
    invariant under A -> -A (hence under alpha -> 2*pi - alpha).
    """
    validate_twist(n)
    if not math.isfinite(A):
        raise ValueError("A = cot(alpha/2) must be finite")
    _, _, parasite, c0_red, c1_red = _cone_parts(family, n)
    return ConeEquation(
        family, n, float(A), tuple(parasite), xp.p_float_sum(c0_red, c1_red, A * A)
    )


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
                        keep_real: bool = True):
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
    """
    records, twins = [], {}
    for y0 in xp.p_roots(eq.moving_coeffs):
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
        for y0 in _parasite_roots(eq.parasite):
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


@lru_cache(maxsize=None)
def _parasite_roots(parasite: tuple) -> tuple:
    """Polished roots of gcd(C0, C1): angle-independent, so solved once per member."""
    roots = xp.p_roots(parasite)  # none for the constant gcd (1,)
    return tuple(_newton_on_poly(parasite, y0) for y0 in roots)


def _newton_on_poly(coeffs, y: complex) -> complex:
    deriv = xp.p_deriv(coeffs)
    for _ in range(NEWTON_POLY_STEPS):
        pv = xp.p_eval(coeffs, y)
        dv = xp.p_eval(deriv, y)
        if dv == 0:
            break
        step = pv / dv
        y -= step
        if abs(step) <= 1e-16 * max(1.0, abs(y)):
            break
    return y


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

    Away from f^2 = 1 the two vanish simultaneously; the report says whether
    each is below LEMMA_CD_TOL.
    """
    x = 2.0 * math.cos(0.5 * alpha)
    A = 1.0 / math.tan(0.5 * alpha)
    phi = build_phi(family, n).eval(x, complex(y))
    eq = build_cone_equation(family, n, A)
    res = eq.residual(complex(y))
    return LemmaCdReport(
        phi, res, abs(phi) <= LEMMA_CD_TOL, abs(res) <= LEMMA_CD_TOL,
        _unit_f(n, complex(y)),
    )
