"""Chebyshev recurrences and the rational pair f, g."""

import ast
import inspect
import math
from pathlib import Path

import numpy as np
import pytest
import sympy as sp

from conevol import chebyshev as ch
from conevol import exactpoly as xp
from conevol import riley, volume
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
    assert xp.s_poly(2) == [-1, 0, 1]
    assert xp.s_poly(4) == [1, 0, -3, 0, 1]
    assert xp.s_poly(-1) == []
    assert xp.s_poly(-2) == [-1]


def test_poly_matches_sympy():
    y = sp.Symbol("y")
    for k in range(-6, 11):
        expected = sp.Poly(sympy_S(k, y), y).all_coeffs()[::-1] if sympy_S(k, y) != 0 else []
        assert xp.s_poly(k) == [int(c) for c in expected]


def test_poly_invariants():
    for k in range(0, 11):
        poly = xp.s_poly(k)
        assert len(poly) - 1 == k
        assert poly[-1] == 1
    # recurrence holds coefficient-wise
    for k in range(-4, 9):
        a = np.zeros(14)
        for j, c in enumerate(xp.s_poly(k)):
            a[j] += c
        for j, c in enumerate(xp.s_poly(k - 2)):
            a[j] += c
        for j, c in enumerate(xp.s_poly(k - 1)):
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
        poly = xp.s_poly(k)
        for _ in range(20):
            y = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            ref = ch.eval_S(k, y)
            assert xp.p_eval(poly, y) == pytest.approx(ref, rel=1e-10, abs=1e-12)
    # an int y stays an exact int; float and complex y are bit for bit the loop
    for k in range(-6, 11):
        poly = xp.s_poly(k)
        for y in (-3, 0, 2, 5):
            value = xp.p_eval(poly, y)
            assert type(value) is int and value == ch.eval_S(k, y)
        for y in (-1.7, 0.25, 2.0, 3.9, 1.3 + 0.4j, -0.7 - 1.1j, 0.5j):
            assert repr(xp.p_eval(poly, y)) == repr(_ref_horner(poly, y))


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
    """(g_n, g'_n) by the quotient rule on the unreduced numerator and denominator.

    One branch per family, written out: the reference for the table-driven
    chebyshev.kernel.
    """
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


# numpy scalars take the kernel's isinstance fallback, Python complex its fast path
KERNEL_POINTS = [-3, 0, 1, 2, 3, 5, -1.7, 0.25, 2.0, 2.5, 3.9,
                 1.3 + 0.4j, -0.7 - 1.1j, complex(2.0), 0.5j, 3.2 - 0.01j,
                 np.float64(-1.7), np.float64(2.0), np.complex128(1.3 + 0.4j),
                 np.complex128(2.0)]


@pytest.mark.parametrize("y", KERNEL_POINTS, ids=repr)
def test_kernel_and_views_match_the_plain_recurrence_exactly(y):
    s, d = _ref_tables(y)
    for k in range(-15, 16):
        assert repr(ch.eval_S(k, y)) == repr(s[k])
        assert repr(ch.eval_S_prime(k, y)) == repr(d[k])
    for n in [m for m in range(-14, 15) if m]:
        walk = (s[n - 1], s[n], d[n - 1], d[n])
        assert repr(ch.eval_S_pair(n, y)) == repr(walk)
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
                    ch.kernel(family, n)(y, 2, 2)
                continue
            fv, fp = _ref_f(n, y, s, d, tol)
            gv, gp = _ref_g(family, n, y, s, d, tol)
            assert repr(ch.kernel(family, n)(y, 2, 2)) == repr((fv, gv, fp, gp))
            assert repr(ch.kernel(family, n)(y, 1, 1)) == repr((fv, gv, None, None))
        # the factory itself, in every mode, under Newton's guard and the
        # contour integrand's own, 1e-60
        for tol in (ch.POLE_TOL, 1e-60):
            for family in (None, *KnotFamily):
                fg = ch.kernel(family, n, tol)
                for f, g in _MODES if family is not None else _MODES[:2]:
                    assert _outcome(fg, y, f, g) == _kernel_ref(family, n, y, s, d, tol, f, g)


def test_kernel_rejects_a_non_int_twist_equal_to_a_cached_one():
    # True, 1.0 and np.int64(1) hash and compare equal to 1: an untyped cache
    # served them the closure of n = 1, and a float n reaching the walk first
    # cached a closure that raised TypeError for n = 1 ever after
    y = 0.5 + 0.5j
    ch.kernel.cache_clear()
    for n in (1.0, True, np.int64(1)):
        with pytest.raises(ValueError, match="integer"):
            ch.eval_f(n, y)
        with pytest.raises(ValueError, match="integer"):
            ch.kernel(KnotFamily.C2N2, n)
    assert ch.eval_f(1, y) == pytest.approx(y / (y - 2), rel=1e-15)  # f_1 = y/(y-2)
    for n in (1.0, True, np.int64(1)):
        with pytest.raises(ValueError, match="integer"):
            ch.eval_f(n, y)


# (f, g) modes of chebyshev.kernel: 0 skip, 1 value, 2 value and derivative
_MODES = [(1, 0), (2, 0), (0, 1), (0, 2), (1, 1), (2, 1), (1, 2), (2, 2)]


def _kernel_ref(family, n, y, s, d, tol, f, g):
    """The outcome a kernel call in mode (f, g) must have: f guarded first."""
    try:
        fv, fp = _ref_f(n, y, s, d, tol) if f else (None, None)
        gv, gp = _ref_g(family, n, y, s, d, tol) if g else (None, None)
    except PoleError:
        return "PoleError"
    return repr((fv, gv, fp if f > 1 else None, gp if g > 1 else None))


def _value(fn, *args):
    try:
        return fn(*args)
    except PoleError:
        return "PoleError"


def test_table_g_equals_the_per_family_formulas():
    # == rather than repr: the table's powers may flip the sign of a zero
    # imaginary part, which no caller reads
    rng = np.random.default_rng(13)
    off_axis = [complex(x, h) for x, h in zip(rng.uniform(-3, 3, 40), rng.uniform(-1.5, 1.5, 40))]
    real = [complex(x) for x in rng.uniform(-3, 3, 20)] + rng.uniform(-3, 3, 10).tolist()
    for y in off_axis + real:
        s, d = _ref_tables(y)
        for n in [k for m in range(1, 15) for k in (m, -m)]:
            for family in KnotFamily:
                fg = ch.kernel(family, n)
                ref = _value(_ref_g, family, n, y, s, d, ch.POLE_TOL)
                assert _value(lambda: fg(y, 0, 2)[1::2]) == ref
                ref_g = ref if ref == "PoleError" else ref[0]
                assert _value(lambda: fg(y, 0, 1)[1]) == ref_g


def test_g_and_r_factor_builders_name_no_family():
    # each reads the one exponent table, families.R_EXPONENTS
    members = {family.name for family in KnotFamily}
    for fn in (ch.kernel.__wrapped__, ch.r_cosines, riley._cone_parts.__wrapped__,
               volume._r_factors, volume._r_parts.__wrapped__, volume._Integrand):
        tree = ast.parse(inspect.getsource(fn))
        named = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        named |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert not named & members, fn.__name__


def _base(node):
    """The variable a name or subscript expression reads: s for s[k - 1]."""
    while isinstance(node, ast.Subscript):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def test_the_recurrence_step_is_written_only_in_eval_s_pair():
    # an assignment in a loop of the form  ... = m * x - z  that advances the
    # sequence it reads (x and z among its targets) is a step of the S_k
    # walk; a second kernel must call eval_S_pair instead of forking the walk
    steps = set()
    for path in sorted(Path(ch.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for loop in (n for n in ast.walk(fn) if isinstance(n, (ast.For, ast.While))):
                for assign in (n for n in ast.walk(loop) if isinstance(n, ast.Assign)):
                    targets = {_base(t) for node in assign.targets for t in
                               (node.elts if isinstance(node, ast.Tuple) else [node])}
                    for node in ast.walk(assign.value):
                        if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
                                and isinstance(node.left, ast.BinOp)
                                and isinstance(node.left.op, ast.Mult)
                                and _base(node.right) in targets
                                and {_base(node.left.left), _base(node.left.right)} & targets):
                            steps.add((path.name, fn.name))
    assert steps == {("chebyshev.py", "eval_S_pair")}
    # and it is one walk: (n, y) only, one loop per direction, so a second,
    # derivative-free copy of the loops cannot come back behind an option
    walk = ast.parse(inspect.getsource(ch.eval_S_pair)).body[0]
    assert ast.dump(walk.args) == ast.dump(ast.parse("def f(n: int, y): pass").body[0].args)
    assert sum(isinstance(node, (ast.For, ast.While)) for node in ast.walk(walk)) == 2
