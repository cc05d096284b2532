"""Exact integer polynomial helpers against sympy."""

import ast
import inspect
import math
from pathlib import Path

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


def test_p_backward_error():
    # (y-1)(y-2) + s*(y - 3) at y = 1, s = 0.5: value -1, term sizes 2 + 3 + 1 + 0.5 * 4
    assert xp.p_backward_error([2, -3, 1], [-3, 1], 0.5, 1.0) == pytest.approx(1 / 8)
    assert xp.p_backward_error([2, -3, 1], [], 0.0, 2.0 + 0j) == 0.0
    assert xp.p_backward_error([0, 1], [0, 2], 3.0, 0.0) == 0.0  # every term vanishes


def test_s_poly_negative_index():
    assert xp.s_poly(-1) == []
    assert xp.s_poly(-2) == [-1]
    assert xp.s_poly(-5) == [-c for c in xp.s_poly(3)]


def test_p_roots_takes_ascending_coefficients():
    roots = sorted(xp.p_roots([2, -3, 1]), key=lambda z: z.real)  # (y-1)(y-2)
    assert all(type(z) is complex for z in roots)
    assert roots == [pytest.approx(1.0, abs=1e-14), pytest.approx(2.0, abs=1e-14)]
    assert xp.p_roots([7]) == []


def _hex_roots(roots):
    """Each root as the float.hex of its real and imaginary parts (signed zeros kept)."""
    return [(complex(z).real.hex(), complex(z).imag.hex()) for z in roots]


def _np_roots(a):
    """The reference: np.roots of the descending coefficients."""
    return _hex_roots(np.roots(list(reversed(a))))


def _cone_polys():
    # the moving polynomial of every member with |n| <= 12 on an angle grid:
    # one call then stacks many degrees, each from many angles
    from conevol.families import KnotFamily
    from conevol.riley import build_cone_equation

    return [build_cone_equation(family, n, 1.0 / math.tan(0.5 * alpha)).moving_coeffs
            for family in KnotFamily for n in range(-12, 13) if n
            for alpha in (0.05, 0.7, 1.9, 2.4, 2.9, math.pi)]


def test_p_roots_many_equals_np_roots_bit_for_bit_on_the_cone_equations():
    polys = _cone_polys()
    assert len({len(a) for a in polys}) > 20
    got = xp.p_roots_many(polys)
    assert [_hex_roots(r) for r in got] == [_np_roots(a) for a in polys]
    assert all(type(z) is complex for roots in got for z in roots)


@pytest.mark.parametrize("polys", [
    [[-6, 11, -6, 1], [1, 0, 0, 1], [2, 0, 1, 0, 1]],  # all real next to non-real, one size
    [[0, 2, -3, 1], [0, 0, 1.5, 1], [1, 0, 0, 1]],  # zero constant terms: exact roots 0
    [[2, -3, 1, 0, 0], [-6, 11, -6, 1]],  # a vanished leading coefficient
    [[1, 2.5, 3, 1], [-6, 11, -6, 1], [2.0, 1]],  # ints next to floats in one stack
    [[], [0], [7], [0, 0], [0, 5], [3, 2], [0.5, -0.25], [0, 0, 4.0]],  # degree <= 1
    [[2**70, -(2**70), 3], [1, 2, 1], [1, -2.0, 1]],  # ints past int64, double roots
])
def test_p_roots_many_equals_np_roots_on_edge_cases(polys):
    assert [_hex_roots(r) for r in xp.p_roots_many(polys)] == [_np_roots(a) for a in polys]
    assert [_hex_roots(xp.p_roots(a)) for a in polys] == \
        [_hex_roots(r) for r in xp.p_roots_many(polys)]


@pytest.mark.parametrize("polys", [[[1, 2j, 3, 1]], [[-6, 11, -6, 1], [2 + 0j, 1]]])
def test_p_roots_many_takes_real_coefficients_only(polys):
    # every caller passes p_float_sum tuples; a complex coefficient is refused
    with pytest.raises(TypeError):
        xp.p_roots_many(polys)


def test_real_roots_in_a_stack_with_non_real_ones_keep_imaginary_part_plus_zero():
    # eigvals returns a real array only when the whole stack is real; np.roots
    # of one polynomial with real roots gives them imaginary part +0.0
    real, mixed = [-6, 11, -6, 1], [1, 0, 0, 1]
    roots = xp.p_roots_many([real, mixed])
    assert [z.imag for z in roots[0]] == [0.0] * 3
    assert all(math.copysign(1.0, z.imag) == 1.0 for z in roots[0])
    assert sum(z.imag != 0.0 for z in roots[1]) == 2
    assert xp.p_roots_many([]) == []


def test_p_roots_is_the_only_numpy_root_finder_in_src():
    # a change of root finder then touches one function: the companion
    # eigenvalues of p_roots_many; np.roots itself is left to the tests
    finders = ("roots", "eigvals")
    callers = []
    for path in sorted(Path(xp.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        numpy_names = {"numpy"} | {
            alias.asname or alias.name
            for node in ast.walk(tree) if isinstance(node, ast.Import)
            for alias in node.names if alias.name.split(".")[0] == "numpy"
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
                callers += [(path.name, a.name) for a in node.names if a.name.endswith(finders)]
            elif isinstance(node, ast.Attribute) and node.attr.endswith(finders):
                base = node.value
                while isinstance(base, ast.Attribute):
                    base = base.value
                if isinstance(base, ast.Name) and base.id in numpy_names:
                    callers.append((path.name, node.attr))
    assert callers == [("exactpoly.py", "eigvals")]
    tree = ast.parse(inspect.getsource(xp.p_roots_many))
    assert "eigvals" in {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
