"""Second-kind Chebyshev recurrences and the derived rational functions.

The building block is the sequence S_k defined for every integer k by

    S_0(y) = 1,    S_1(y) = y,    S_k(y) = y*S_{k-1}(y) - S_{k-2}(y),

so S_k(2*cos t) = sin((k+1)t)/sin t.  On top of it sit the two rational
functions that drive the whole artifact, for a nonzero twist parameter n:

    f_n(y) = (2*S_n(y) - y*S_{n-1}(y)) / ((y-2)*S_{n-1}(y))

and a family-dependent companion g_n(y) = -r / (D^2 w), with D = (y-2) S_{n-1},
w = (y-2)^a S_{n-1}^b and r = sign (S_n - S_{n-1})^c; families.R_EXPONENTS
holds (a, b, c, sign), the one table of the family-specific exponents:

    C(2n,3):    -(S_n - S_{n-1})^2 / ((y-2)^3 * S_{n-1}^4)
    C(2n,2):    -(S_n - S_{n-1})   / ((y-2)^2 * S_{n-1}^3)
    C(2n,-2n):   1                 / ((y-2)^2 * S_{n-1}^4)

Evaluation runs the recurrence directly (never the closed form in
s = (y +/- sqrt(y^2-4))/2, which needs a branch choice); it is exact for
integer arguments and stable for the moderate |k| <= ~50 used here.

One walk, eval_S_pair, runs the recurrence once per point from (S_0, S_1)
to S_{n-1} and S_n, always carrying S'_{n-1} and S'_n along; a Python
complex y is seeded without type dispatch.  One factory, kernel(family, n,
pole tolerance), fixes the R_EXPONENTS row and the guard once per member and
returns the closure that alone forms f_n, g_n, f'_n and (for Newton) g'_n
from that walk.  It runs unchanged on a Python complex (the eval_* views,
ConeEquation, the contour node volume._Integrand) and on lanes.Lanes (the
contour's lanes); its pole argument says what a pole does: raise PoleError,
or record a mask.
The exact coefficients of S_k (s_poly) and their Horner evaluation live in
exactpoly.

The real zeros are exact cosines, owned here: s_zeros(m) gives those of S_m
(the poles of f and g at m = n-1), s_diff_zeros(j) those of S_j - S_{j-1}
(f = +1 at j = n-1, f = -1 at j = n), and r_cosines R's factors at them.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .errors import PoleError
from .exactpoly import _zero_like
from .families import R_EXPONENTS, KnotFamily, validate_family, validate_twist

# Denominator guard: |den| below this times the numerator scale is a pole.
POLE_TOL = 1e-14


def eval_S_pair(n: int, y):
    """(S_{n-1}, S_n, S'_{n-1}, S'_n) at y from one walk of the recurrence.

    Starts at (S_0, S_1) and runs forward for n >= 1, backward for n <= 0
    (S_{k-2} = y*S_{k-1} - S_k), the derivatives riding along (S'_k = S_{k-1}
    + y*S'_{k-1} - S'_{k-2}).  Python scalar arithmetic throughout, so integer
    input stays exact.  A Python complex y, the contour's and Newton's case,
    is seeded with 1+0j and 0j directly; other types take _zero_like's
    isinstance chain (one is its zero plus 1).
    """
    one, zero = (1 + 0j, 0j) if type(y) is complex else (_zero_like(y) + 1, _zero_like(y))
    lo, hi, d_lo, d_hi = one, y, zero, one  # S_0, S_1, S'_0, S'_1
    if n >= 1:
        for _ in range(n - 1):
            d_lo, d_hi = d_hi, hi + y * d_hi - d_lo
            lo, hi = hi, y * hi - lo
    else:
        for _ in range(1 - n):
            d_lo, d_hi = lo + y * d_lo - d_hi, d_lo
            lo, hi = y * lo - hi, lo
    return lo, hi, d_lo, d_hi


def s_zeros(m: int):
    """Real zeros of S_m: 2*cos(k*pi/(m+1)); S_m = -S_{-m-2} for m < -1."""
    m = max(m, -m - 2)
    return [2.0 * math.cos(k * math.pi / (m + 1)) for k in range(1, m + 1)]


def s_diff_zeros(j: int):
    """Real zeros of S_j - S_{j-1}: 2*cos((2k+1)*pi/(2j+1)); j < 0 mirrors to -j-1."""
    j = max(j, -j - 1)
    return [2.0 * math.cos((2 * k + 1) * math.pi / (2 * j + 1)) for k in range(j)]


def r_cosines(family: KnotFamily, n: int) -> tuple:
    """R's factors (a, e) at exact cosines, by the member's R_EXPONENTS row:
    (2, a), each zero of S_{n-1} with b, each zero of S_n - S_{n-1} with -c;
    a factor whose exponent is 0 is left out."""
    a, b, c, _ = R_EXPONENTS[family]
    factors = ((2.0, a), *((s, b) for s in s_zeros(n - 1)), *((s, -c) for s in s_diff_zeros(n)))
    return tuple((s, e) for s, e in factors if e)


def eval_S(k: int, y):
    """S_k(y), any integer k, any complex y."""
    return eval_S_pair(k, y)[1]


def eval_S_prime(k: int, y):
    """d/dy S_k(y)."""
    return eval_S_pair(k, y)[3]


def raise_at_pole(num, den, tol: float) -> None:
    """kernel's default pole action: PoleError where |den| <= tol * max(1, |num|)."""
    if (d := abs(den)) <= tol or d <= tol * abs(num):
        raise PoleError(f"denominator {den!r} vanishes relative to numerator {num!r}")


@lru_cache(maxsize=None, typed=True)
def kernel(family: KnotFamily | None, n: int, pole_tol: float = POLE_TOL):
    """fg(y, f=1, g=1, pole=raise_at_pole) -> (f_n, g_n, f'_n, g'_n).

    f and g are each 0 (skip), 1 (value) or 2 (value and derivative); what is
    not asked is None.  The R_EXPONENTS row is looked up here once (hashing the
    family enum runs Python code).  pole(num, den, pole_tol) sees f's quotient
    before g's.  g' is the quotient rule on the unreduced -sign (S_n -
    S_{n-1})^c over (y-2)^(a+2) S_{n-1}^(b+2).  family None: f only.  The
    cache is typed, so 1.0 or True never reaches the closure cached for n = 1.
    """
    validate_twist(n)
    a, b, c, sign = (R_EXPONENTS[validate_family(family)] if family is not None
                     else (0, 0, 0, 0))
    p, q = a + 2, b + 2

    def fg(y, f=1, g=1, pole=raise_at_pole):
        s_nm1, s_n, d_nm1, d_n = eval_S_pair(n, y)
        ym2 = y - 2
        fv = gv = fp = gp = None
        if f:
            num, den = 2 * s_n - y * s_nm1, ym2 * s_nm1
            pole(num, den, pole_tol)
            fv = num / den
            if f > 1:
                num_p, den_p = 2 * d_n - s_nm1 - y * d_nm1, s_nm1 + ym2 * d_nm1
                fp = (num_p * den - num * den_p) / (den * den)
        if g:
            ym2_p, s_nm1_q = ym2**p, s_nm1**q
            num, den = -sign * (s_n - s_nm1) ** c, ym2_p * s_nm1_q
            pole(num, den, pole_tol)
            gv = num / den
            if g > 1:
                num_p = -sign * c * (s_n - s_nm1) ** (c - 1) * (d_n - d_nm1) if c else 0
                den_p = p * ym2 ** (p - 1) * s_nm1_q + q * ym2_p * s_nm1 ** (q - 1) * d_nm1
                gp = (num_p * den - num * den_p) / (den * den)
        return fv, gv, fp, gp

    return fg


def eval_f(n: int, y):
    """f_n(y); raises PoleError at y = 2 and at zeros of S_{n-1}."""
    return kernel(None, n)(y, 1, 0)[0]


def eval_f_prime(n: int, y):
    """d/dy f_n(y), assembled by the quotient rule from S and S'."""
    return kernel(None, n)(y, 2, 0)[2]


def eval_g(family: KnotFamily, n: int, y):
    """Family-specific g_n(y); raises PoleError on the shared denominator zeros."""
    return kernel(validate_family(family), n)(y, 0, 1)[1]  # None would be f-only


def eval_g_prime(family: KnotFamily, n: int, y):
    """d/dy g_n(y) by the quotient rule (needed by Newton polish, not an integrand)."""
    return kernel(validate_family(family), n)(y, 0, 2)[3]
