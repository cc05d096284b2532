"""The one polynomial module: exact-integer arithmetic and Horner evaluation.

Every exact polynomial of the package is built here: the S_k coefficient
lists, the numerator and denominator of f_n, the Riley and cone-equation
pieces; p_eval is the only Horner loop and p_roots_many the only root finder
(p_roots is its one-polynomial call).
Polynomials are plain lists of Python ints (coefficient of y^j at index j),
so coefficient growth is unbounded and exact.  The Riley polynomial and the
cleared cone equation are linear in a parameter s (x^2 or A^2), so each is a
pair p0 + s*p1 of such lists, and p_backward_error scores a root of that
shape.  p_gcd, a rational Euclid, has no caller in the package: riley builds
the parasite factor gcd(C0, C1) in closed form, and the tests use p_gcd as
that factor's reference.
"""

from __future__ import annotations

import numpy as np


# ---------------------------------------------------------------- univariate

def p_add(a, b):
    m = max(len(a), len(b))
    out = [0] * m
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return p_trim(out)


def p_sub(a, b):
    return p_add(a, [-c for c in b])


def p_mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return p_trim(out)


def p_pow(a, k: int):
    out = [1]
    base = list(a)
    while k:
        if k & 1:
            out = p_mul(out, base)
        base = p_mul(base, base)
        k >>= 1
    return out


def p_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _zero_like(y):
    return 0 if isinstance(y, int) else 0.0 if isinstance(y, float) else 0j


def p_eval(a, y):
    """a(y) by Horner's rule from the zero of y's type (an int y stays exact)."""
    acc = _zero_like(y)
    for c in reversed(a):
        acc = acc * y + c
    return acc


def p_backward_error(p0, p1, s, y) -> float:
    """|p0(y) + s*p1(y)| / (sum |p0_k| |y|^k + |s| sum |p1_k| |y|^k).

    The scaled backward error of y as a root of p0 + s*p1: the least relative
    change of the coefficients that makes y an exact root (0 where every
    term vanishes).
    """
    r = abs(y)
    scale = (p_eval([abs(c) for c in p0], r)
             + abs(s) * p_eval([abs(c) for c in p1], r))
    return abs(p_eval(p0, y) + s * p_eval(p1, y)) / scale if scale else 0.0


def p_roots(a):
    """All complex roots of a (ascending coefficients), from the companion matrix."""
    return p_roots_many([a])[0]


def p_roots_many(polys) -> list:
    """The roots of each real polynomial (ascending coefficients), bit for bit
    as np.roots finds them, from one np.linalg.eigvals call per companion size.

    Each companion matrix is built as np.roots builds it from the descending
    coefficients: made float (Python ints convert as np.roots converts them,
    and a Python complex coefficient raises TypeError), leading and trailing
    zeros stripped, ones on the subdiagonal and -p[1:] / p[0] in the first
    row.  Matrices of one size are stacked, and LAPACK solves each one as it
    would alone.  eigvals returns a real array only when every eigenvalue of
    the stack is real, but LAPACK gives a real eigenvalue the imaginary part
    +0.0, so each converts to the complex that np.roots gives.  Each
    stripped trailing zero appends an exact root 0.  A polynomial of degree
    0 (or all zeros) has no roots.
    """
    out, groups = [], {}
    for i, a in enumerate(polys):
        p = np.asarray(list(reversed(a)), dtype=float)
        nonzero = np.flatnonzero(p)
        out.append([0j] * (len(p) - 1 - nonzero[-1]) if len(nonzero) else [])
        if len(nonzero) == 0 or nonzero[-1] == nonzero[0]:
            continue
        p = p[nonzero[0]:nonzero[-1] + 1]
        groups.setdefault(len(p), []).append((i, p))
    for size, members in groups.items():
        coeffs = np.array([p for _, p in members])
        companions = np.zeros((len(members), size - 1, size - 1))
        companions.reshape(len(members), -1)[:, size - 1::size] = 1  # the subdiagonal
        companions[:, 0, :] = -coeffs[:, 1:] / coeffs[:, :1]
        for (i, _), w in zip(members, np.linalg.eigvals(companions)):
            out[i] = list(map(complex, w.tolist())) + out[i]
    return out


def p_deriv(a):
    """Coefficients of a'(y); integer coefficients stay integers."""
    return [i * c for i, c in enumerate(a)][1:]


def p_gcd(a, b):
    """Primitive gcd of two integer polynomials, positive leading coefficient.

    Euclid over the rationals, then denominators cleared and content divided
    out (Gauss's lemma keeps everything integral).
    """
    from fractions import Fraction
    from math import gcd as int_gcd

    fa = [Fraction(c) for c in a]
    fb = [Fraction(c) for c in b]
    fa, fb = p_trim(fa), p_trim(fb)
    while fb:
        da, db = len(fa) - 1, len(fb) - 1
        if da < db:
            fa, fb = fb, fa
            continue
        r = fa[-1] / fb[-1]
        for i in range(db + 1):
            fa[da - db + i] -= r * fb[i]
        p_trim(fa)
        if len(fa) - 1 < db:
            fa, fb = fb, fa
    if not fa:
        return []
    lcm = 1
    for c in fa:
        lcm = lcm * c.denominator // int_gcd(lcm, c.denominator)
    ints = [int(c * lcm) for c in fa]
    content = 0
    for c in ints:
        content = int_gcd(content, abs(c))
    ints = [c // content for c in ints]
    if ints[-1] < 0:
        ints = [-c for c in ints]
    return ints


def p_divexact(a, d):
    """Exact quotient a / d for integer polynomials; raises if not exact/integral."""
    from fractions import Fraction

    rem = [Fraction(c) for c in a]
    q = [Fraction(0)] * (len(a) - len(d) + 1)
    for i in range(len(q) - 1, -1, -1):
        c = rem[i + len(d) - 1] / d[-1]
        q[i] = c
        if c:
            for j, dc in enumerate(d):
                rem[i + j] -= c * dc
    if any(c != 0 for c in rem):
        raise ValueError("polynomial division not exact")
    out = []
    for c in q:
        if c.denominator != 1:
            raise ValueError("quotient not integral")
        out.append(int(c))
    return p_trim(out)


def s_poly(k: int):
    """Coefficient list of the second-kind sequence S_k (S_{-1} = 0, S_k = -S_{-k-2})."""
    if k == -1:
        return []
    if k < -1:
        return [-c for c in s_poly(-k - 2)]
    prev, cur = [1], [0, 1]
    if k == 0:
        return prev
    for _ in range(k - 1):
        prev, cur = cur, p_sub([0] + cur, prev)
    return cur


def f_parts(n: int):
    """(2*S_n - y*S_{n-1}, (y-2)*S_{n-1}): exact numerator and denominator of f_n."""
    s_nm1 = s_poly(n - 1)
    num = p_sub([2 * c for c in s_poly(n)], p_mul([0, 1], s_nm1))
    return num, p_mul([-2, 1], s_nm1)


def p_float_sum(p0, p1, a2: float) -> tuple:
    """Float coefficients of p0 + a2*p1, trailing zeros trimmed."""
    out = [0.0] * max(len(p0), len(p1))
    for i, c in enumerate(p0):
        out[i] += float(c)
    for i, c in enumerate(p1):
        out[i] += a2 * float(c)
    return tuple(p_trim(out))
