"""Complex lanes: many complex numbers in float64 arrays, computed with
CPython's complex arithmetic bit for bit.

numpy's complex ufuncs may fuse a multiply and an add, and its log and
arctan2 differ from libm's in the last bits, so a numpy complex array does
not reproduce what a loop over Python complex numbers gives.  Lanes keeps
the real and imaginary parts as two float64 arrays and spells out each
operation as CPython 3.10 to 3.13 does it in C (Objects/complexobject.c),
so an expression written for a Python complex gives the same bits in every
lane.  node_values runs the contour's node (volume._Integrand) on it, with
the node's own kernel closure and a PoleMask as that closure's pole action,
and log R's branch from the tracker sample at or left of each node.
panel_sums is the lanes' part of a quadrature round (volume._round): it
evaluates the 21 nodes of every panel of the round and forms each panel's
Gauss 15/7 pair as volume._gauss_pair does, so the legs are sent one
(value, error) per panel and no node becomes a Python complex.  The panel
layout (its nodes and the columns that the 7-point rule reads) comes from
volume, with the weights.
"""

from __future__ import annotations

import math

import numpy as np


class Lanes:
    """Complex lanes: float64 arrays (re, im) whose operators do CPython's
    complex arithmetic (3.10 to 3.13) step by step, so each lane holds the
    bits that a Python complex gets from the same expression.  A real operand
    is promoted to (x, 0.0), * is _Py_c_prod, / is _Py_c_quot, ** a
    nonnegative int is c_powu and abs is hypot.  An operand may be a Python
    int, float or complex, a float64 array (real lanes) or Lanes."""

    __slots__ = ("re", "im")
    __array_ufunc__ = None  # an ndarray operand defers to these operators

    def __init__(self, re, im):
        self.re, self.im = re, im

    def __add__(self, other):
        b_re, b_im = _parts(other)
        return Lanes(self.re + b_re, self.im + b_im)

    __radd__ = __add__  # IEEE addition commutes

    def __sub__(self, other):
        b_re, b_im = _parts(other)
        return Lanes(self.re - b_re, self.im - b_im)

    def __rsub__(self, other):
        a_re, a_im = _parts(other)
        return Lanes(a_re - self.re, a_im - self.im)

    def __mul__(self, other):
        b_re, b_im = _parts(other)
        a_re, a_im = self.re, self.im
        return Lanes(a_re * b_re - a_im * b_im, a_re * b_im + a_im * b_re)

    __rmul__ = __mul__  # _Py_c_prod gives the same bits either way round

    def __truediv__(self, other):
        return _quot(self.re, self.im, *_parts(other))

    def __rtruediv__(self, other):
        return _quot(*_parts(other), self.re, self.im)

    def __pow__(self, e: int):
        # c_powu: squares p, multiplying r by it at each set bit of e; the
        # last squaring, whose value c_powu never reads, is left out.  e = 0
        # gives 1+0j, as c_powi's 1 / c_powu(x, 0) does
        r, p, mask = 1 + 0j, self, 1
        while True:
            if e & mask:
                r = r * p
            mask <<= 1
            if mask > e:
                return r
            p = p * p

    def __abs__(self):
        return np.hypot(self.re, self.im)


def _parts(x):
    if type(x) is Lanes:
        return x.re, x.im
    if type(x) is complex:
        return x.real, x.imag
    return x, 0.0


def _quot(a_re, a_im, b_re, b_im) -> Lanes:
    """_Py_c_quot: Smith's division, by b's real part where it is at least
    its imaginary part in size, else by the imaginary part.  A scalar b
    divides as an array does: by zero to inf or nan, with no exception."""
    b_re, b_im = np.asarray(b_re, float), np.asarray(b_im, float)
    by_re = np.abs(b_re) >= np.abs(b_im)
    ratio = b_im / b_re
    denom = b_re + b_im * ratio
    x_re, x_im = (a_re + a_im * ratio) / denom, (a_im - a_re * ratio) / denom
    if by_re.all():
        return Lanes(x_re, x_im)
    ratio = b_re / b_im
    denom = b_re * ratio + b_im
    y_re, y_im = (a_re * ratio + a_im) / denom, (a_im * ratio - a_re) / denom
    return Lanes(np.where(by_re, x_re, y_re), np.where(by_re, x_im, y_im))


class PoleMask:
    """chebyshev.kernel's pole action on lanes: ok is false where the scalar
    guard raises PoleError or |den| + |num| is not finite."""

    ok = True

    def __call__(self, num, den, tol: float) -> None:
        d, scale = abs(den), abs(num)
        self.ok = self.ok & (d > tol) & (d > tol * scale) & np.isfinite(d + scale)


def panel_sums(integrands, tables: dict, panels, rule) -> list:
    """Each panel (path index, lo, hi)'s (value, error) as volume._gauss_pair
    forms it from the panel's node values, or None where a node is not ok
    (node_values) or the pair is not finite.  tables holds the paths'
    node_tables, made at the first call; rule is (the panel's nodes on
    [-1, 1], the 15-point weights, the 7-point weights, the 7-point rule's
    columns of the panel).

    The rule's sums are _gauss_pair's: each weight times a value as a real
    promoted to (w, 0.0), summed left to right from 0.0 (an accumulate, not a
    pairwise sum), times half the panel, and the error is hypot of the
    difference.  The 15-point rule reads the panel's first 15 columns."""
    if not tables:
        tables.update(node_tables(integrands))
    nodes, w15, w7, columns7 = rule
    j, lo, hi = map(np.array, zip(*panels))
    half = 0.5 * (hi - lo)
    t = (0.5 * (lo + hi))[:, None] + half[:, None] * np.array(nodes)
    # the unused Smith branch may divide by 0, and a lane that is not ok may
    # overflow: neither reaches a pair that is returned
    with np.errstate(all="ignore"):
        re, im, ok = node_values(integrands, tables, np.repeat(j, len(nodes)), t.ravel())
        v = Lanes(re.reshape(t.shape), im.reshape(t.shape))
        i15 = half * _rule_sum(v, w15, np.s_[:15])
        i7 = half * _rule_sum(v, w7, columns7)
        err = abs(i15 - i7)
    good = ok.reshape(t.shape).all(1) & np.isfinite(i15.re) & np.isfinite(i15.im) & np.isfinite(err)
    return [(complex(x, y), e) if g else None
            for x, y, e, g in zip(i15.re.tolist(), i15.im.tolist(), err.tolist(), good.tolist())]


def _rule_sum(v: Lanes, weights, columns) -> Lanes:
    """0 + w0*v0 + w1*v1 + ... over the given columns of each row, in order."""
    terms = Lanes(v.re[:, columns], v.im[:, columns]) * np.array(weights)
    zero = np.zeros((len(terms.re), 1))
    return Lanes(*(np.add.accumulate(np.hstack((zero, x)), axis=1)[:, -1]
                   for x in (terms.re, terms.im)))


def node_values(integrands, tables: dict, j, t):
    """volume._Integrand's node at each t (a float64 array) on path j (an index
    array), on Lanes: (re, im, ok) arrays; tables are the paths' node_tables.

    The scalar node's arithmetic, its branches as masks: f, f' and g from its
    kernel closure (the paths are of one member), with a PoleMask as the pole
    action.  A lane is ok unless
    it trips a pole guard, finds |R| below 1e-100, takes an abs that
    overflows (hypot, where CPython raises) or ends not finite.  The phase
    and the log go through math.atan2 and math.log lane by lane (numpy's own
    differ in the last bits), the tracker's left sample is searchsorted on
    (path index, t) keys and round is np.rint (both round half to even).
    """
    two_pi = 2.0 * math.pi
    dy, y = _leg_points(tables, j, t)
    poles = PoleMask()
    fv, gv, fp, _ = integrands[0].fg(y, 2, 1, poles)
    f2 = fv * fv
    val = (f2 + tables["a2"][j]) / (tables["scale"][j] * gv)
    del y, fv, gv  # a large round's memory peaks in the steps below
    r = abs(val)
    ok = poles.ok & (r >= 1e-100) & np.isfinite(r)
    est = _tracked_arg(tables, j, t)
    principal = np.fromiter(map(math.atan2, memoryview(val.im), memoryview(val.re)), float, len(t))
    k = np.rint((est - principal) / two_pi)
    log_r = np.fromiter(map(math.log, memoryview(np.where(ok, r, 1.0))), float, len(t))
    out = (log_r + 1j * Lanes(principal + two_pi * k, 0.0)) * fp / (f2 - 1.0) * dy
    ok &= np.isfinite(out.re) & np.isfinite(out.im)
    return out.re, out.im, ok


def _leg_points(tables: dict, j, t):
    """(dy, y) of each node: its leg's q - p, and p + (q - p)*(t - k) on leg k,
    the last leg at the path's end."""
    ends = tables["ends"][j]
    k = np.where(t < ends, np.trunc(t), ends - 1.0)
    leg = tables["leg_start"][j] + k.astype(np.intp)
    dy = Lanes(tables["dy_re"][leg], tables["dy_im"][leg])
    return dy, Lanes(tables["z0_re"][leg], tables["z0_im"][leg]) + dy * (t - k)


def _tracked_arg(tables: dict, j, t):
    """BranchTracker.log_at's arg R at each node: the unwrapped arg at its
    left sample, the last one at or before t in its own path."""
    key = np.empty(len(t), complex)
    key.real, key.imag = j, t
    return tables["unwrapped"][np.searchsorted(tables["keys"], key, "right") - 1]


def node_tables(integrands) -> dict:
    """The per-path constants of the lanes as float64 and index tables: each
    path's legs and tracker samples, numbered across the paths, and its A^2,
    1 + A^2 and leg count.  The tracker keys are complex (path index, t):
    numpy orders complex numbers by real, then imaginary part, so one
    searchsorted finds each node's left sample, and the samples of a path
    run from 0.0, so that sample is in the node's own path."""
    legs = [leg for f in integrands for leg in f.legs]
    return {
        "z0_re": np.array([z0.real for z0, _ in legs]),
        "z0_im": np.array([z0.imag for z0, _ in legs]),
        "dy_re": np.array([dy.real for _, dy in legs]),
        "dy_im": np.array([dy.imag for _, dy in legs]),
        "leg_start": np.cumsum([0] + [len(f.legs) for f in integrands])[:-1],
        "ends": np.array([float(len(f.legs)) for f in integrands]),
        "a2": np.array([f.a2 for f in integrands]),
        "scale": np.array([f.scale for f in integrands]),
        "keys": np.array([complex(j, t) for j, f in enumerate(integrands) for t in f.tracker.ts]),
        "unwrapped": np.array([u for f in integrands for u in f.tracker.unwrapped]),
    }
