"""Lanes: CPython's complex arithmetic on float64 arrays, bit for bit."""

import operator
import re
from pathlib import Path

import numpy as np
import pytest

from conevol import chebyshev
from conevol import volume as vo
from conevol.errors import PoleError
from conevol.lanes import Lanes, PoleMask

from test_volume import NODE_MEMBERS, _node_paths

rng = np.random.default_rng(29)
# signed zeros, both Smith branches (|re| above and below |im|), ties, and
# magnitudes that overflow or underflow
SPECIAL = [0.0, -0.0, 1.0, -1.0, 2.0, 0.5, -3.25, 1e-300, -1e300, 7e-17]
VALUES = [complex(x, y) for x in SPECIAL for y in SPECIAL]
VALUES += [complex(x, y) for x, y in rng.normal(0.0, 3.0, (60, 2))]


def lanes(values):
    return Lanes(np.array([z.real for z in values]), np.array([z.imag for z in values]))


def python_bits(op, *args):
    """The bits CPython gives, or None where it raises."""
    try:
        z = op(*args)
    except (ZeroDivisionError, OverflowError):
        return None
    return z.real.hex(), z.imag.hex()


def assert_lanes_match(got, want):
    size = len(want)
    re = np.broadcast_to(got.re, (size,)).tolist()
    im = np.broadcast_to(got.im, (size,)).tolist()
    pairs = [(g, w) for g, w in zip(zip(map(float.hex, re), map(float.hex, im)), want)
             if w is not None]
    assert [g for g, _ in pairs] == [w for _, w in pairs]
    assert len(pairs) > size // 2


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul, operator.truediv],
                         ids=lambda op: op.__name__)
@pytest.mark.parametrize("other", [1.5 - 0.25j, -0.0 + 2j, 2, -0.5, 3e-310 + 1j],
                         ids=repr)
def test_operators_follow_cpython(op, other):
    a, b = VALUES, VALUES[::-1]
    with np.errstate(all="ignore"):
        assert_lanes_match(op(lanes(a), lanes(b)), [python_bits(op, x, y) for x, y in zip(a, b)])
        assert_lanes_match(op(lanes(a), other), [python_bits(op, x, other) for x in a])
        assert_lanes_match(op(other, lanes(a)), [python_bits(op, other, x) for x in a])
        if isinstance(other, float):  # a float64 array is promoted as a float is
            assert_lanes_match(op(np.full(len(a), other), lanes(a)),
                               [python_bits(op, other, x) for x in a])


@pytest.mark.parametrize("e", range(6))
def test_integer_powers_follow_c_powi(e):
    with np.errstate(all="ignore"):
        got = lanes(VALUES) ** e
    assert_lanes_match(got if e else Lanes(got.real, got.imag),
                       [python_bits(operator.pow, x, e) for x in VALUES])


def test_abs_is_hypot():
    assert abs(lanes(VALUES)).tolist() == [abs(x) for x in VALUES]


@pytest.mark.parametrize("family,n", NODE_MEMBERS, ids=lambda v: str(v))
def test_the_kernel_on_lanes_equals_the_scalar_kernel(family, n):
    # chebyshev.kernel's closure in the contour's mode (2, 1), at the nodes
    # of the first panel of each leg of the anchored V, the staple and the
    # spherical detour, at every vertex, and at the poles: y = 2, where f's
    # guard fires, and at n = 2 the double 1e-25, a zero of S_1 = y that only
    # g's guard sees
    fg = chebyshev.kernel(family, n, vo._Integrand.POLE_TOL)
    ys, poles = [], [2 + 0j] + [complex(1e-25)] * (n == 2)
    for _, path in _node_paths(family, n):
        ys += [p + (q - p) * t for p, q in zip(path, path[1:]) for t in vo._panel_nodes(0.0, 1.0)]
        ys += path
    ys += poles
    mask = PoleMask()
    with np.errstate(all="ignore"):
        got = fg(lanes(ys), 2, 1, mask)
    assert got[3] is None
    raised = []
    for m, y in enumerate(ys):
        try:
            want = fg(y, 2, 1)
        except PoleError:
            raised.append(m)
            continue
        assert want[3] is None
        assert [(v.re[m].hex(), v.im[m].hex()) for v in got[:3]] == [
            (w.real.hex(), w.imag.hex()) for w in want[:3]], y
    assert raised == list(range(len(ys) - len(poles), len(ys)))
    assert np.flatnonzero(~mask.ok).tolist() == raised


def test_the_python_range_is_the_one_ci_runs():
    # the lanes copy CPython 3.10 to 3.13's mixed real/complex arithmetic, so
    # pyproject.toml's range must not outrun CI: every matrix version lies in
    # it, and it admits no minor version above the matrix's highest.  Both
    # files are read as text, since CI's 3.10 leg has no tomllib
    root = Path(__file__).resolve().parents[1]
    spec, = re.findall(r'^requires-python = "(.*)"$', (root / "pyproject.toml").read_text(), re.M)
    bounds = [re.fullmatch(r"\s*(>=|<)(\d+)\.(\d+)\s*", c) for c in spec.split(",")]
    assert all(bounds), spec
    lower = [(int(m[2]), int(m[3])) for m in bounds if m[1] == ">="]
    upper = [(int(m[2]), int(m[3])) for m in bounds if m[1] == "<"]
    ci = (root / ".github" / "workflows" / "tier1.yml").read_text()
    matrix = {(int(a), int(b)) for entry in re.findall(r'python-version: (\[.*?\]|"[^"]*")', ci)
              for a, b in re.findall(r'"(\d+)\.(\d+)"', entry)}
    assert lower and upper and matrix
    assert all(max(lower) <= v < min(upper) for v in matrix)
    highest = max(matrix)
    assert min(upper) <= (highest[0], highest[1] + 1)
