"""Second-kind Chebyshev recurrences and the derived rational functions.

The building block is the sequence S_k defined for every integer k by

    S_0(y) = 1,    S_1(y) = y,    S_k(y) = y*S_{k-1}(y) - S_{k-2}(y),

so S_k(2*cos t) = sin((k+1)t)/sin t.  On top of it sit the two rational
functions that drive the whole artifact, for a nonzero twist parameter n:

    f_n(y) = (2*S_n(y) - y*S_{n-1}(y)) / ((y-2)*S_{n-1}(y))

and a family-dependent companion g_n(y):

    C(2n,3):    -(S_n - S_{n-1})^2 / ((y-2)^3 * S_{n-1}^4)
    C(2n,2):    -(S_n - S_{n-1})   / ((y-2)^2 * S_{n-1}^3)
    C(2n,-2n):   1                 / ((y-2)^2 * S_{n-1}^4)

Evaluation runs the recurrence directly (never the closed form in
s = (y +/- sqrt(y^2-4))/2, which needs a branch choice); it is exact for
integer arguments and stable for the moderate |k| <= ~50 used here.

One kernel, eval_S_pair, walks the recurrence once per point from (S_0, S_1)
and returns S_{n-1} and S_n, with S'_{n-1} and S'_n carried along when asked;
a Python complex y, the contour's and Newton polish's case, is seeded without
type dispatch.  f_n, g_n and their derivatives are all assembled from those
four values, so eval_fg hands Newton polish (and _f_from/_g_from the contour
integrand) everything they need from one walk; eval_S, eval_f, eval_g and
their derivatives are views over the same kernel, with identical
floating-point results.  The exact coefficients of S_k
(s_poly) and their Horner evaluation (p_eval) live in the polynomial module
exactpoly.
"""

from __future__ import annotations

from .errors import PoleError
from .exactpoly import _zero_like
from .families import KnotFamily

# Denominator guard: |den| below this times the numerator scale is a pole.
POLE_TOL = 1e-14


def eval_S_pair(n: int, y, prime: bool = False):
    """(S_{n-1}, S_n, S'_{n-1}, S'_n) at y from one walk of the recurrence.

    Starts at (S_0, S_1) and runs forward for n >= 1, backward for n <= 0
    (S_{k-2} = y*S_{k-1} - S_k).  With prime the derivatives ride along
    (S'_k = S_{k-1} + y*S'_{k-1} - S'_{k-2}); without it they are None.
    Python scalar arithmetic throughout, so integer input stays exact.  A
    Python complex y, the contour's and Newton's case, is seeded with 1+0j and
    0j directly; other types take _zero_like's isinstance chain (one is its
    zero plus 1).
    """
    one, zero = (1 + 0j, 0j) if type(y) is complex else (_zero_like(y) + 1, _zero_like(y))
    lo, hi = one, y  # S_0, S_1
    if not prime:
        if n >= 1:
            for _ in range(n - 1):
                lo, hi = hi, y * hi - lo
        else:
            for _ in range(1 - n):
                lo, hi = y * lo - hi, lo
        return lo, hi, None, None
    d_lo, d_hi = zero, one  # S'_0, S'_1
    if n >= 1:
        for _ in range(n - 1):
            d_lo, d_hi = d_hi, hi + y * d_hi - d_lo
            lo, hi = hi, y * hi - lo
    else:
        for _ in range(1 - n):
            d_lo, d_hi = lo + y * d_lo - d_hi, d_lo
            lo, hi = y * lo - hi, lo
    return lo, hi, d_lo, d_hi


def eval_S(k: int, y):
    """S_k(y), any integer k, any complex y."""
    return eval_S_pair(k, y)[1]


def eval_S_prime(k: int, y):
    """d/dy S_k(y)."""
    return eval_S_pair(k, y, True)[3]


def _guard(num, den, tol):
    d = abs(den)
    if d <= tol or d <= tol * abs(num):  # i.e. d <= tol * max(1, |num|)
        raise PoleError(f"denominator {den!r} vanishes relative to numerator {num!r}")


def _f_from(y, walk, pole_tol):
    """(f_n, f'_n) from an eval_S_pair walk; f'_n is None unless the walk has S'."""
    s_nm1, s_n, d_nm1, d_n = walk
    num = 2 * s_n - y * s_nm1
    den = (y - 2) * s_nm1
    _guard(num, den, pole_tol)
    if d_n is None:
        return num / den, None
    num_p = 2 * d_n - s_nm1 - y * d_nm1
    den_p = s_nm1 + (y - 2) * d_nm1
    return num / den, (num_p * den - num * den_p) / (den * den)


def _g_from(family: KnotFamily, y, walk, pole_tol):
    """(g_n, g'_n) from an eval_S_pair walk, both by the quotient rule on the
    unreduced numerator and denominator; g'_n is None unless the walk has S'."""
    s_nm1, s_n, d_nm1, d_n = walk
    if family is KnotFamily.C2N3:
        num, den = -((s_n - s_nm1) ** 2), (y - 2) ** 3 * s_nm1**4
    elif family is KnotFamily.C2N2:
        num, den = -(s_n - s_nm1), (y - 2) ** 2 * s_nm1**3
    else:
        num, den = 1, (y - 2) ** 2 * s_nm1**4
    _guard(num, den, pole_tol)
    if d_n is None:
        return num / den, None
    if family is KnotFamily.C2N3:
        num_p = -2 * (s_n - s_nm1) * (d_n - d_nm1)
        den_p = 3 * (y - 2) ** 2 * s_nm1**4 + 4 * (y - 2) ** 3 * s_nm1**3 * d_nm1
    elif family is KnotFamily.C2N2:
        num_p = -(d_n - d_nm1)
        den_p = 2 * (y - 2) * s_nm1**3 + 3 * (y - 2) ** 2 * s_nm1**2 * d_nm1
    else:
        num_p = 0
        den_p = 2 * (y - 2) * s_nm1**4 + 4 * (y - 2) ** 2 * s_nm1**3 * d_nm1
    return num / den, (num_p * den - num * den_p) / (den * den)


def eval_fg(family: KnotFamily, n: int, y, prime: bool = False):
    """(f_n, g_n, f'_n, g'_n) at y from a single recurrence walk.

    The derivatives are None unless prime.  Raises PoleError where f_n or g_n
    has a pole (f_n is checked first).
    """
    walk = eval_S_pair(n, y, prime)
    fv, fp = _f_from(y, walk, POLE_TOL)
    gv, gp = _g_from(family, y, walk, POLE_TOL)
    return fv, gv, fp, gp


def eval_f(n: int, y):
    """f_n(y); raises PoleError at y = 2 and at zeros of S_{n-1}."""
    return _f_from(y, eval_S_pair(n, y), POLE_TOL)[0]


def eval_f_prime(n: int, y):
    """d/dy f_n(y), assembled by the quotient rule from S and S'."""
    return _f_from(y, eval_S_pair(n, y, True), POLE_TOL)[1]


def eval_g(family: KnotFamily, n: int, y):
    """Family-specific g_n(y); raises PoleError on the shared denominator zeros."""
    return _g_from(family, y, eval_S_pair(n, y), POLE_TOL)[0]


def eval_g_prime(family: KnotFamily, n: int, y):
    """d/dy g_n(y) by the quotient rule (needed by Newton polish, not an integrand)."""
    return _g_from(family, y, eval_S_pair(n, y, True), POLE_TOL)[1]
