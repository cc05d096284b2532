"""Independent oracles used by the tests.

Everything here deliberately avoids the library's own shortcut code paths:
words are multiplied letter by letter, polynomials are assembled in sympy,
derivatives come from central differences, and the complete-structure volume
comes from the classical lune-angle series.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
import sympy as sp


def central_diff(fn, x, h=1e-6):
    return (fn(x + h) - fn(x - h)) / (2.0 * h)


def lobachevsky(theta: float, terms: int = 200_000) -> float:
    """L(theta) = 1/2 sum_k sin(2 k theta)/k^2 by its Fourier series."""
    k = np.arange(1, terms + 1)
    return 0.5 * float(np.sum(np.sin(2.0 * k * theta) / k**2))


def figure_eight_volume() -> float:
    """Complete hyperbolic volume of the figure-eight knot complement."""
    return 6.0 * lobachevsky(math.pi / 3.0)


# ------------------------------------------------------------ matrix words

def letters_odd(n: int, p: int):
    """Letter string of (ab)^n [(a^-1 b^-1)^n (ab)^n]^p, as +/- generator ids."""
    ab = ["a", "b"]
    inv_ab = ["A", "B"]  # a^-1 b^-1
    block = _power(inv_ab, n) + _power(ab, n)
    return _power(ab, n) + _power(block, p)


def letters_even(n: int, p: int):
    """Letter string of [(a^-1 b)^n (a b^-1)^n]^p."""
    block = _power(["A", "b"], n) + _power(["a", "B"], n)
    return _power(block, p)


def _power(word, k: int):
    if k >= 0:
        return word * k
    return _invert(word) * (-k)


def _invert(word):
    return [c.swapcase() for c in reversed(word)]


def eval_letters(word, A, B):
    """Multiply generator images one letter at a time."""
    inv = {
        "a": np.linalg.inv(A),
        "b": np.linalg.inv(B),
    }
    table = {"a": A, "b": B, "A": inv["a"], "B": inv["b"]}
    out = np.eye(2, dtype=complex)
    for c in word:
        out = out @ table[c]
    return out


# --------------------------------------------------------------- symbolics

def sympy_S(k: int, var) -> sp.Expr:
    """Second-kind sequence via the recurrence, any integer index."""
    if k == 0:
        return sp.Integer(1)
    if k == 1:
        return var
    if k >= 2:
        prev, cur = sp.Integer(1), var
        for _ in range(k - 1):
            prev, cur = cur, sp.expand(var * cur - prev)
        return cur
    cur, above = sp.Integer(1), var
    for _ in range(-k):
        cur, above = sp.expand(var * cur - above), cur
    return cur


def sympy_phi_odd(n: int, p: int):
    """(S_n - S_{n-1}) S_p(u) - (S_{n-1} - S_{n-2}) S_{p-1}(u), expanded."""
    x, y = sp.symbols("x y")
    u = 2 + (y - 2) * (y + 2 - x**2) * sympy_S(n - 1, y) ** 2
    expr = (sympy_S(n, y) - sympy_S(n - 1, y)) * sympy_S_of(p, u) - (
        sympy_S(n - 1, y) - sympy_S(n - 2, y)
    ) * sympy_S_of(p - 1, u)
    return sp.expand(expr), x, y


def sympy_phi_even(n: int, p: int):
    """[1 + (z+2-x^2) S_{n-1}(S_n - S_{n-1})] S_{p-1}(v) - S_{p-2}(v), expanded."""
    x, z = sp.symbols("x y")
    v = 2 + (z - 2) * (z + 2 - x**2) * sympy_S(n - 1, z) ** 2
    bracket = 1 + (z + 2 - x**2) * sympy_S(n - 1, z) * (
        sympy_S(n, z) - sympy_S(n - 1, z)
    )
    expr = bracket * sympy_S_of(p - 1, v) - sympy_S_of(p - 2, v)
    return sp.expand(expr), x, z


def sympy_phi_hol(n: int):
    """-1 + (z+2-x^2) S_{n-1}(z)^2, the holonomy factor of C(2n,-2n), expanded."""
    x, z = sp.symbols("x y")
    return sp.expand(-1 + (z + 2 - x**2) * sympy_S(n - 1, z) ** 2), x, z


def sympy_S_of(k: int, arg) -> sp.Expr:
    """S_k evaluated at an arbitrary sympy expression."""
    if k == 0:
        return sp.Integer(1)
    if k == 1:
        return arg
    if k >= 2:
        prev, cur = sp.Integer(1), arg
        for _ in range(k - 1):
            prev, cur = cur, sp.expand(arg * cur - prev)
        return cur
    cur, above = sp.Integer(1), arg
    for _ in range(-k):
        cur, above = sp.expand(arg * cur - above), cur
    return cur


def phi_roots_60(family_token: str, n: int, alpha: float):
    """Roots in y of Phi(2cos(alpha/2), y) from mpmath.polyroots at 60 digits.

    Phi is expanded in sympy (the holonomy factor for C(2n,-2n)), so neither
    its coefficients nor its roots come from the library.
    """
    if family_token == "c2n3":
        phi, x, y = sympy_phi_odd(n, 1)
    elif family_token == "c2n2":
        phi, x, y = sympy_phi_even(n, 1)
    else:
        x, y = sp.symbols("x y")
        phi = sp.expand(-1 + (y + 2 - x**2) * sympy_S(n - 1, y) ** 2)
    with mpmath.workdps(60):
        xv = 2 * mpmath.cos(mpmath.mpf(alpha) / 2)
        coeffs = [
            mpmath.polyval([int(c) for c in sp.Poly(cy, x).all_coeffs()], xv)
            for cy in sp.Poly(phi, y).all_coeffs()
        ]
        roots = mpmath.polyroots(coeffs, maxsteps=200, extraprec=120)
        return [complex(r) for r in roots]


def sympy_cone_polynomial(family_token: str, n: int):
    """Cleared cone equation as exact sympy polys (c0, c1) in y, minimal clearing."""
    y, a = sp.symbols("y A")
    s_nm1 = sympy_S(n - 1, y)
    s_n = sympy_S(n, y)
    n_f = 2 * s_n - y * s_nm1
    diff = s_n - s_nm1
    if family_token == "c2n3":
        c0 = sp.expand(n_f**2 * (y - 2) * s_nm1**2 + diff**2)
        c1 = sp.expand((y - 2) ** 3 * s_nm1**4 + diff**2)
    elif family_token == "c2n2":
        c0 = sp.expand(n_f**2 * s_nm1 + diff)
        c1 = sp.expand((y - 2) ** 2 * s_nm1**3 + diff)
    else:
        c0 = sp.expand(n_f**2 * s_nm1**2 - 1)
        c1 = sp.expand((y - 2) ** 2 * s_nm1**4 - 1)
    return c0, c1, y


def critical_angle_exact(family_token: str, n: int) -> float:
    """a_K from the exact double root of the deflated cone polynomial.

    A double root of P = C0r + s*C1r (s = cot^2(alpha/2)) is a real root of
    the integer polynomial W = C0r'*C1r - C0r*C1r', where s = -C0r/C1r is
    critical.  sympy isolates the real roots of W in rational intervals of
    width 1e-30; since s' vanishes there, s at the midpoint is exact far past
    double precision.  a_K = 2*atan(1/sqrt(s)) for the least s in (0, 1/3],
    which is the largest angle in [2*pi/3, pi).
    """
    c0, c1, y = sympy_cone_polynomial(family_token, n)
    p0, p1 = sp.Poly(c0, y), sp.Poly(c1, y)
    gcd = sp.gcd(p0, p1)
    c0r, c1r = sp.quo(p0, gcd), sp.quo(p1, gcd)
    w = c0r.diff(y) * c1r - c0r * c1r.diff(y)
    best = None
    for (lo, hi), _ in w.intervals(eps=sp.Rational(1, 10**30)):
        mid = (lo + hi) / 2
        den = c1r.eval(mid)
        if den == 0:
            continue
        s = -c0r.eval(mid) / den
        if 0 < s <= sp.Rational(1, 3) and (best is None or s < best):
            best = s
    return float(2 * sp.atan(1 / sp.sqrt(best)).evalf(40))


# ------------------------------------------------------ 60-digit longitude

def _mp_S(k: int, y):
    """S_k(y) by the recurrence in mpmath arithmetic, any integer k."""
    lo, hi = mpmath.mpf(1), y  # S_0, S_1
    if k >= 1:
        for _ in range(k - 1):
            lo, hi = hi, y * hi - lo
        return hi
    for _ in range(-k):
        lo, hi = y * lo - hi, lo
    return lo


def singular_length_60(family_token: str, n: int, alpha: float, y_guess: complex):
    """(2*log|ell|, root) at 60 digits, from the double-precision root y_guess.

    The root is polished by mpmath.findroot on f^2 + A^2 = (1 + A^2) g, and
    ell is the (2,2)-entry of rho(w*) rho(w), the reversed word times the
    word, multiplied letter by letter from the generator images.
    """
    with mpmath.workdps(60):
        a2 = mpmath.cot(mpmath.mpf(alpha) / 2) ** 2

        def cone(y):
            s_nm1, s_n = _mp_S(n - 1, y), _mp_S(n, y)
            f = (2 * s_n - y * s_nm1) / ((y - 2) * s_nm1)
            if family_token == "c2n3":
                g = -((s_n - s_nm1) ** 2) / ((y - 2) ** 3 * s_nm1**4)
            elif family_token == "c2n2":
                g = -(s_n - s_nm1) / ((y - 2) ** 2 * s_nm1**3)
            else:
                g = 1 / ((y - 2) ** 2 * s_nm1**4)
            return f * f + a2 - (1 + a2) * g

        y = mpmath.findroot(cone, mpmath.mpc(y_guess))
        m = mpmath.expj(mpmath.mpf(alpha) / 2)
        if family_token == "c2n3":
            word = letters_odd(n, 1)
            low = y - m * m - 1 / (m * m)
        else:
            word = letters_even(n, 1 if family_token == "c2n2" else -n)
            low = 2 - y
        gens = {"a": mpmath.matrix([[m, 1], [0, 1 / m]]),
                "b": mpmath.matrix([[m, 0], [low, 1 / m]])}
        for c in "ab":  # determinant-1 inverses
            g = gens[c]
            gens[c.upper()] = mpmath.matrix([[g[1, 1], -g[0, 1]], [-g[1, 0], g[0, 0]]])
        longitude = mpmath.eye(2)
        for c in list(reversed(word)) + word:
            longitude = longitude * gens[c]
        return float(2 * mpmath.log(abs(longitude[1, 1]))), complex(y)


# ------------------------------------------------------ exact volume anchors

def det_k(family_token: str, n: int) -> int:
    """Knot determinant: |4n+1| for C(2n,2), |6n+1| for C(2n,3), 4n^2-1 for C(2n,-2n).

    At alpha = pi the cone-manifold is the pi-orbifold, a quotient of the lens
    space L(det K, q) by an involution, so Vol(pi) = pi^2 / det K (Dunbar,
    "Geometric orbifolds" (1988); Porti, Kobe J. Math. 21 (2004)).
    """
    if family_token == "c2n2":
        return abs(4 * n + 1)
    if family_token == "c2n3":
        return abs(6 * n + 1)
    return 4 * n * n - 1


# ------------------------------------------------ presentation identities

def two_bridge_pq(family_token: str, n: int) -> tuple:
    """(p, q mod p) of the two-bridge knot b(p, q) with Conway notation C(2n, b).

    C(a, b) has the continued fraction a + 1/b = (ab + 1)/b, so p = |ab + 1|
    (the determinant, as in det_k) and q = b; the sign of the fraction only
    mirrors the knot.
    """
    b = {"c2n2": 2, "c2n3": 3}.get(family_token, -2 * n)
    p = abs(2 * n * b + 1)
    return p, b % p


def same_two_bridge_knot(pq, pq_other) -> bool:
    """Schubert (1956): b(p, q) and b(p, q') are equal up to mirror exactly
    when q' = +/- q^(+/-1) mod p."""
    (p, q), (p_other, q_other) = pq, pq_other
    if p != p_other:
        return False
    q_inv = pow(q, -1, p)
    return q_other in {q, -q % p, q_inv, -q_inv % p}


def mednykh_rasskazov_volume(alpha: float) -> float:
    """Figure-eight cone-manifold volume in closed form, at 30 digits.

    Mednykh and Rasskazov, Tokyo J. Math. 29 (2006): below 2*pi/3 it is
    INT_alpha^{2pi/3} arccosh(1 + cos t - cos 2t) dt, above it
    INT_{2pi/3}^alpha arccos(1 + cos t - cos 2t) dt with alpha folded about pi.
    The real part keeps the endpoint t = 2pi/3, where the argument is 1, on
    the real branch despite rounding.
    """
    with mpmath.workdps(30):
        a, third = mpmath.mpf(alpha), 2 * mpmath.pi / 3
        if a < third:
            inv, lo, hi = mpmath.acosh, a, third
        else:
            inv, lo, hi = mpmath.acos, third, min(a, 2 * mpmath.pi - a)
        return float(mpmath.quad(
            lambda t: mpmath.re(inv(1 + mpmath.cos(t) - mpmath.cos(2 * t))), [lo, hi]
        ))
