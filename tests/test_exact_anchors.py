"""Exact anchors: Vol(pi) = pi^2/det K and the figure-eight curve in closed form.

Neither oracle uses any code of the library (see tests/oracles.py).  At
alpha = pi the spherical contour integrates across an interior log
singularity: the conjugate zeros of N^2 + A^2 D^2 close in on the real zeros
of f, which lie on the spherical segment.  The strict xfails pin that defect
(ROADMAP item 9); the Schlaefli oracle, which does not use the contour, holds.
"""

import math
from functools import lru_cache

import pytest

from conevol.families import ConeManifoldSpec, KnotFamily, is_torus_member
from conevol.volume import compute_volume, volume_schlafli

from oracles import det_k, mednykh_rasskazov_volume

ANCHOR_TOL = 1e-12
CURVE_TOL = 1e-13

MEMBERS = [
    (family, n)
    for family in KnotFamily
    for n in (-4, -3, -2, -1, 1, 2, 3, 4)
    if not is_torus_member(family, n)
]
# members whose contour error at pi exceeds the returned error_estimate
ESTIMATE_MISSES = {
    (KnotFamily.C2N2, -2),
    (KnotFamily.C2N3, -4), (KnotFamily.C2N3, -3), (KnotFamily.C2N3, -2),
    (KnotFamily.C2N3, 2), (KnotFamily.C2N3, 3),
    (KnotFamily.C2NMINUS2N, -2), (KnotFamily.C2NMINUS2N, 2),
}
PI_DEFECT = "spherical contour crosses a log singularity at alpha = pi (item 9)"


def _ids(member):
    return f"{member[0].value}:{member[1]}"


def _exact_at_pi(family, n):
    return math.pi**2 / det_k(family.value, n)


@lru_cache(maxsize=None)
def _contour_at_pi(family, n):
    return compute_volume(ConeManifoldSpec(family, n, math.pi))


def test_member_list_is_the_21_non_torus_members():
    assert len(MEMBERS) == 21
    assert ESTIMATE_MISSES < set(MEMBERS)


@pytest.mark.parametrize("member", MEMBERS, ids=_ids)
def test_schlafli_volume_at_pi_is_pi_squared_over_det_k(member):
    family, n = member
    vol = volume_schlafli(ConeManifoldSpec(family, n, math.pi))
    assert abs(vol - _exact_at_pi(family, n)) <= ANCHOR_TOL


@pytest.mark.xfail(strict=True, reason=PI_DEFECT)
@pytest.mark.parametrize("member", MEMBERS, ids=_ids)
def test_contour_volume_at_pi_is_pi_squared_over_det_k(member):
    family, n = member
    assert abs(_contour_at_pi(family, n).volume - _exact_at_pi(family, n)) <= ANCHOR_TOL


@pytest.mark.parametrize("member", [
    pytest.param(m, marks=pytest.mark.xfail(strict=True, reason=PI_DEFECT))
    if m in ESTIMATE_MISSES else m
    for m in MEMBERS
], ids=_ids)
def test_error_estimate_at_pi_covers_the_exact_error(member):
    family, n = member
    result = _contour_at_pi(family, n)
    assert abs(result.volume - _exact_at_pi(family, n)) <= result.error_estimate


# both regimes of C(2,2), a_K = 2*pi/3; none within 1e-4 of pi, none in the
# 1e-3 window around a_K where Schlaefli serves
FIG8_ANGLES = (0.05, 0.3, 0.7, 1.2, 1.7, 2.0, 2.09, 2.1, 2.4, 2.8,
               math.pi - 1e-3, math.pi - 1e-4, math.pi + 1e-4, 3.6, 4.0, 4.18)


@pytest.mark.parametrize("alpha", FIG8_ANGLES)
def test_figure_eight_matches_the_mednykh_rasskazov_curve(alpha):
    vol = compute_volume(ConeManifoldSpec(KnotFamily.C2N2, 1, alpha)).volume
    assert abs(vol - mednykh_rasskazov_volume(alpha)) <= CURVE_TOL
