"""Chebyshev recurrences and the rational pair f, g."""

import math

import numpy as np
import pytest
import sympy as sp

from conevol import chebyshev as ch
from conevol import exactpoly as xp
from conevol.errors import PoleError
from conevol.families import KnotFamily

from oracles import central_diff, sympy_S


def test_base_cases():
    assert ch.eval_S(0, 3.7) == 1.0
    assert ch.eval_S(1, 3.7) == 3.7
    assert ch.eval_S(-1, 0.123) == 0.0
    assert ch.eval_S(-2, 0.123) == -1.0


def test_value_at_two_is_index_plus_one():
    # integer input stays exact through the recurrence
    for k in range(0, 13):
        assert ch.eval_S(k, 2) == k + 1


def test_closed_form_sine_ratio():
    # S_k(2 cos t) = sin((k+1) t) / sin t
    for k in (2, 5, 9):
        for t in (0.3, math.pi / 7, 1.9):
            expected = math.sin((k + 1) * t) / math.sin(t)
            assert ch.eval_S(k, 2.0 * math.cos(t)) == pytest.approx(expected, abs=1e-11)


def test_pell_identity_scaled():
    rng = np.random.default_rng(42)
    for _ in range(200):
        while True:
            y = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
            if abs(y) <= 4.0:
                break
        for k in range(-6, 9):
            a, b = ch.eval_S(k, y), ch.eval_S(k - 1, y)
            res = abs(a * a - y * a * b + b * b - 1.0)
            scale = max(1.0, abs(a * a), abs(y * a * b), abs(b * b))
            assert res / scale <= 1e-10


def test_negative_index_symmetry():
    rng = np.random.default_rng(3)
    for _ in range(20):
        y = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        for k in range(0, 9):
            assert ch.eval_S(-k, y) == pytest.approx(-ch.eval_S(k - 2, y), abs=1e-10)


def test_poly_coefficients():
    assert ch.poly_S(2).coeffs == (-1, 0, 1)
    assert ch.poly_S(4).coeffs == (1, 0, -3, 0, 1)
    assert ch.poly_S(-1).coeffs == ()
    assert ch.poly_S(-2).coeffs == (-1,)


def test_poly_matches_sympy():
    y = sp.Symbol("y")
    for k in range(-6, 11):
        expected = sp.Poly(sympy_S(k, y), y).all_coeffs()[::-1] if sympy_S(k, y) != 0 else []
        assert list(ch.poly_S(k).coeffs) == [int(c) for c in expected]


def test_poly_invariants():
    for k in range(0, 11):
        poly = ch.poly_S(k)
        assert poly.degree == k
        assert poly.coeffs[-1] == 1
    # recurrence holds coefficient-wise
    for k in range(-4, 9):
        a = np.zeros(14)
        for j, c in enumerate(ch.poly_S(k).coeffs):
            a[j] += c
        for j, c in enumerate(ch.poly_S(k - 2).coeffs):
            a[j] += c
        for j, c in enumerate(ch.poly_S(k - 1).coeffs):
            a[j + 1] -= c
        assert np.all(a == 0)


def _ref_horner(coeffs, y):
    """Horner's loop from a float (or complex) zero, as a float or complex y takes it."""
    acc = complex(0.0) if isinstance(y, complex) else 0.0
    for c in reversed(coeffs):
        acc = acc * y + c
    return acc


def test_poly_horner_matches_eval():
    rng = np.random.default_rng(11)
    for k in range(0, 11):
        poly = ch.poly_S(k)
        for _ in range(20):
            y = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            ref = ch.eval_S(k, y)
            assert poly(y) == pytest.approx(ref, rel=1e-10, abs=1e-12)
    # an int y stays an exact int; float and complex y are bit for bit the loop
    for k in range(-6, 11):
        poly = ch.poly_S(k)
        for y in (-3, 0, 2, 5):
            value = xp.p_eval(list(poly.coeffs), y)
            assert type(value) is int and value == ch.eval_S(k, y)
            assert type(poly(y)) is int and poly(y) == value
        for y in (-1.7, 0.25, 2.0, 3.9, 1.3 + 0.4j, -0.7 - 1.1j, 0.5j):
            ref = repr(_ref_horner(poly.coeffs, y))
            assert repr(xp.p_eval(list(poly.coeffs), y)) == ref
            assert repr(poly(y)) == ref


def test_derivative_base_cases():
    assert ch.eval_S_prime(1, 0.77) == 1.0
    assert ch.eval_S_prime(2, 3.0) == 6.0
    assert ch.eval_S_prime(0, 1.5) == 0.0


def test_derivative_matches_finite_difference():
    rng = np.random.default_rng(8)
    for k in (-5, -3, 4, 7):
        for _ in range(10):
            y = complex(rng.uniform(-3, 3), rng.uniform(-2, 2))
            fd = central_diff(lambda v: ch.eval_S(k, v), y)
            assert ch.eval_S_prime(k, y) == pytest.approx(fd, rel=1e-5, abs=1e-7)


def test_f_values():
    assert ch.eval_f(1, 4.0) == pytest.approx(2.0, abs=1e-14)
    assert ch.eval_f(2, 1.0) == pytest.approx(1.0, abs=1e-14)


def test_f_pole_raises():
    with pytest.raises(PoleError):
        ch.eval_f(1, 2.0)
    with pytest.raises(PoleError):
        ch.eval_f(2, 0.0)  # S_1 vanishes


def test_f_prime_values():
    assert ch.eval_f_prime(1, 4.0) == pytest.approx(-0.5, abs=1e-14)
    assert ch.eval_f_prime(1, 3.0) == pytest.approx(-2.0, abs=1e-14)


def test_f_prime_finite_difference():
    fd = central_diff(lambda v: ch.eval_f(2, v), 1.0 + 0.5j)
    assert ch.eval_f_prime(2, 1.0 + 0.5j) == pytest.approx(fd, rel=1e-6)
    rng = np.random.default_rng(4)
    for n in (-3, -1, 2, 3):
        for _ in range(8):
            y = complex(rng.uniform(-1.5, 1.5), rng.uniform(0.3, 2.0))
            fd = central_diff(lambda v: ch.eval_f(n, v), y)
            assert ch.eval_f_prime(n, y) == pytest.approx(fd, rel=1e-5, abs=1e-8)


def test_g_values():
    assert ch.eval_g(KnotFamily.C2N2, 1, 3.0) == pytest.approx(-2.0, abs=1e-14)
    assert ch.eval_g(KnotFamily.C2NMINUS2N, 1, 3.0) == pytest.approx(1.0, abs=1e-14)
    assert ch.eval_g(KnotFamily.C2N3, 1, 4.0) == pytest.approx(-9.0 / 8.0, abs=1e-14)


def test_g_prime_finite_difference():
    rng = np.random.default_rng(5)
    for family in KnotFamily:
        for n in (-2, 1, 2):
            for _ in range(6):
                y = complex(rng.uniform(-1.5, 1.5), rng.uniform(0.4, 2.0))
                fd = central_diff(lambda v: ch.eval_g(family, n, v), y)
                assert ch.eval_g_prime(family, n, y) == pytest.approx(
                    fd, rel=1e-5, abs=1e-8
                )


def test_pure_functions_thread_safe_shape():
    # same inputs, same outputs, no state
    y = 0.9 - 1.1j
    assert ch.eval_S(6, y) == ch.eval_S(6, y)
    assert ch.eval_f(3, y) == ch.eval_f(3, y)


# ------------------------------------------- the single-walk kernel, exactly

def _ref_tables(y, k_min=-16, k_max=16):
    """S_k and S'_k for k_min <= k <= k_max by the plain recurrence from (S_0, S_1)."""
    if isinstance(y, int):
        one, zero = 1, 0
    elif isinstance(y, float):
        one, zero = 1.0, 0.0
    else:
        one, zero = complex(1.0), complex(0.0)
    s, d = {0: one, 1: y}, {0: zero, 1: one}
    for k in range(2, k_max + 1):
        s[k] = y * s[k - 1] - s[k - 2]
        d[k] = s[k - 1] + y * d[k - 1] - d[k - 2]
    for k in range(-1, k_min - 1, -1):
        s[k] = y * s[k + 1] - s[k + 2]
        d[k] = s[k + 1] + y * d[k + 1] - d[k + 2]
    return s, d


def _ref_guard(num, den, tol):
    if abs(den) <= tol * max(1.0, abs(num)):
        raise PoleError("pole")


def _ref_f(n, y, s, d, tol):
    """(f_n, f'_n) by the quotient rule, in the order the module documents."""
    num, den = 2 * s[n] - y * s[n - 1], (y - 2) * s[n - 1]
    _ref_guard(num, den, tol)
    num_p = 2 * d[n] - s[n - 1] - y * d[n - 1]
    den_p = s[n - 1] + (y - 2) * d[n - 1]
    return num / den, (num_p * den - num * den_p) / (den * den)


def _ref_g(family, n, y, s, d, tol):
    """(g_n, g'_n) by the quotient rule on the unreduced numerator and denominator."""
    a, b, da, db = s[n - 1], s[n], d[n - 1], d[n]
    if family is KnotFamily.C2N3:
        num, den = -((b - a) ** 2), (y - 2) ** 3 * a**4
        num_p = -2 * (b - a) * (db - da)
        den_p = 3 * (y - 2) ** 2 * a**4 + 4 * (y - 2) ** 3 * a**3 * da
    elif family is KnotFamily.C2N2:
        num, den = -(b - a), (y - 2) ** 2 * a**3
        num_p = -(db - da)
        den_p = 2 * (y - 2) * a**3 + 3 * (y - 2) ** 2 * a**2 * da
    else:
        num = 1 if isinstance(y, int) else 1.0 if isinstance(y, float) else complex(1.0)
        den = (y - 2) ** 2 * a**4
        num_p = num - num
        den_p = 2 * (y - 2) * a**4 + 4 * (y - 2) ** 2 * a**3 * da
    _ref_guard(num, den, tol)
    return num / den, (num_p * den - num * den_p) / (den * den)


def _outcome(fn, *args):
    """repr of the value, or the exception type: equal outcomes are bit-identical."""
    try:
        return repr(fn(*args))
    except PoleError:
        return "PoleError"


KERNEL_POINTS = [-3, 0, 1, 2, 3, 5, -1.7, 0.25, 2.0, 2.5, 3.9,
                 1.3 + 0.4j, -0.7 - 1.1j, complex(2.0), 0.5j, 3.2 - 0.01j]


@pytest.mark.parametrize("y", KERNEL_POINTS, ids=repr)
def test_kernel_and_views_match_the_plain_recurrence_exactly(y):
    s, d = _ref_tables(y)
    for k in range(-15, 16):
        assert repr(ch.eval_S(k, y)) == repr(s[k])
        assert repr(ch.eval_S_prime(k, y)) == repr(d[k])
    for n in [m for m in range(-14, 15) if m]:
        walk = (s[n - 1], s[n], d[n - 1], d[n])
        assert repr(ch.eval_S_pair(n, y, True)) == repr(walk)
        assert repr(ch.eval_S_pair(n, y)) == repr(walk[:2] + (None, None))
        tol = ch.POLE_TOL
        ref_f = _outcome(_ref_f, n, y, s, d, tol)
        assert _outcome(lambda: ch.eval_f(n, y)) == _outcome(
            lambda: _ref_f(n, y, s, d, tol)[0])
        assert _outcome(lambda: ch.eval_f_prime(n, y)) == _outcome(
            lambda: _ref_f(n, y, s, d, tol)[1])
        for family in KnotFamily:
            ref_g = _outcome(_ref_g, family, n, y, s, d, tol)
            assert _outcome(lambda: ch.eval_g(family, n, y)) == _outcome(
                lambda: _ref_g(family, n, y, s, d, tol)[0])
            assert _outcome(lambda: ch.eval_g_prime(family, n, y)) == _outcome(
                lambda: _ref_g(family, n, y, s, d, tol)[1])
            if "PoleError" in (ref_f, ref_g):
                with pytest.raises(PoleError):
                    ch.eval_fg(family, n, y, prime=True)
                continue
            fv, fp = _ref_f(n, y, s, d, tol)
            gv, gp = _ref_g(family, n, y, s, d, tol)
            assert repr(ch.eval_fg(family, n, y, prime=True)) == repr((fv, gv, fp, gp))
            assert repr(ch.eval_fg(family, n, y)) == repr((fv, gv, None, None))
        # the contour integrand calls the assemblers with its own guard, 1e-60
        tiny = 1e-60
        assert _outcome(ch._f_from, y, walk, tiny) == _outcome(_ref_f, n, y, s, d, tiny)
        for family in KnotFamily:
            ref_g = _outcome(lambda: _ref_g(family, n, y, s, d, tiny)[0])
            assert _outcome(ch._g_from, family, y, walk, tiny) == _outcome(
                _ref_g, family, n, y, s, d, tiny)
            assert _outcome(lambda: ch._g_from(family, y, walk[:2] + (None, None),
                                               tiny)[0]) == ref_g
