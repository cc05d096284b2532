"""Exact integer polynomial helpers against sympy."""

import numpy as np
import pytest
import sympy as sp

from conevol import exactpoly as xp


def _to_sympy(coeffs, var):
    return sum(c * var**i for i, c in enumerate(coeffs))


def test_basic_arithmetic():
    a, b = [1, 2, 3], [5, -1]
    y = sp.Symbol("y")
    assert _to_sympy(xp.p_mul(a, b), y) == sp.expand(_to_sympy(a, y) * _to_sympy(b, y))
    assert _to_sympy(xp.p_add(a, b), y) == _to_sympy(a, y) + _to_sympy(b, y)
    assert _to_sympy(xp.p_sub(a, b), y) == _to_sympy(a, y) - _to_sympy(b, y)
    assert _to_sympy(xp.p_pow(b, 3), y) == sp.expand(_to_sympy(b, y) ** 3)
    deriv = xp.p_deriv(xp.p_mul(a, b))
    assert _to_sympy(deriv, y) == sp.diff(_to_sympy(xp.p_mul(a, b), y), y)
    assert all(type(c) is int for c in deriv)


def test_gcd_with_common_factor():
    y = sp.Symbol("y")
    d = [-1, 0, 1]  # y^2 - 1
    a = xp.p_mul(d, [3, 1])
    b = xp.p_mul(d, [-7, 0, 2])
    g = xp.p_gcd(a, b)
    assert g == d
    assert xp.p_divexact(a, g) == [3, 1]
    assert xp.p_divexact(b, g) == [-7, 0, 2]


def test_gcd_coprime_is_constant():
    assert xp.p_gcd([1, 1], [2, 0, 1]) == [1]


def test_gcd_normalization():
    # content divided out, leading coefficient positive
    g = xp.p_gcd([-4, 0, 4], [-6, 0, 6])
    assert g == [-1, 0, 1]


def test_divexact_rejects_inexact():
    with pytest.raises(ValueError):
        xp.p_divexact([1, 1, 1], [1, 1])


def test_random_gcds_match_sympy():
    rng = np.random.default_rng(5)
    y = sp.Symbol("y")
    for _ in range(25):
        d = [int(c) for c in rng.integers(-3, 4, size=3)]
        if not any(d):
            continue
        a = xp.p_mul(d, [int(c) for c in rng.integers(-3, 4, size=4)] or [1])
        b = xp.p_mul(d, [int(c) for c in rng.integers(-3, 4, size=3)] or [1])
        a, b = xp.p_trim(a), xp.p_trim(b)
        if not a or not b:
            continue
        ours = _to_sympy(xp.p_gcd(a, b), y)
        theirs = sp.gcd(_to_sympy(a, y), _to_sympy(b, y))
        quotient = sp.simplify(ours / theirs)
        assert quotient.is_number and quotient != 0


def test_bivariate_roundtrip():
    # (2 + X*y)^2 evaluated vs direct
    p = xp.b_add(xp.b_const(2), {(1, 1): 1})
    sq = xp.b_mul(p, p)
    for xs, yv in ((0.5, 2.0), (1.5, -1.0)):
        direct = (2 + xs * yv) ** 2
        assert xp.b_eval(sq, xs, yv) == pytest.approx(direct)


def test_bivariate_chebyshev_composition():
    # S_3(u) at a bivariate u agrees with numeric recurrence
    u = xp.b_add(xp.b_const(2), {(1, 0): -1, (0, 1): 1})  # 2 - X + y
    comp = xp.b_compose_S(3, u)
    for xs, yv in ((0.3, 1.1), (2.0, -0.4)):
        uval = 2 - xs + yv
        expected = uval**3 - 2 * uval
        assert xp.b_eval(comp, xs, yv) == pytest.approx(expected)


def test_s_poly_negative_index():
    assert xp.s_poly(-1) == []
    assert xp.s_poly(-2) == [-1]
    assert xp.s_poly(-5) == [-c for c in xp.s_poly(3)]
