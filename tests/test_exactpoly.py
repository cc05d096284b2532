"""Exact integer polynomial helpers against sympy."""

import ast
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


def test_p_roots_is_the_only_numpy_root_finder_in_src():
    # a change of root finder then touches one function
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
                callers += [path.name for a in node.names if a.name.endswith("roots")]
            elif isinstance(node, ast.Attribute) and node.attr.endswith("roots"):
                base = node.value
                while isinstance(base, ast.Attribute):
                    base = base.value
                if isinstance(base, ast.Name) and base.id in numpy_names:
                    callers.append(path.name)
    assert callers == ["exactpoly.py"]
