"""Lanes: CPython's complex arithmetic on float64 arrays, bit for bit."""

import operator

import numpy as np
import pytest

from conevol.lanes import Lanes

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
