"""Dense end-to-end certification across the whole supported envelope.

Every member (three families, |n| <= 4, torus members excluded) is swept
through both regimes; at every angle the contour volume must match the
independent Schlaefli length integral to 1e-7 (the length integrator itself
targets 1e-8, so this is its noise floor) and carry clean diagnostics.
This is the broadest single statement the oracle web can make.
"""

import math

import numpy as np
import pytest

from conevol.errors import NotBracketedError
from conevol.families import ConeManifoldSpec, KnotFamily, is_torus_member
from conevol.geometry import critical_angle
from conevol.volume import compute_volume

MEMBERS = [
    (family, n)
    for family in KnotFamily
    for n in (-4, -3, -2, -1, 1, 2, 3, 4)
    if not is_torus_member(family, n)
]


@pytest.mark.parametrize("family,n", MEMBERS, ids=lambda v: str(v))
def test_member_certified_across_both_regimes(family, n):
    a_k = critical_angle(family, n)
    hyp = np.linspace(0.05, a_k - 5e-3, 7)
    sph = np.linspace(a_k + 5e-3, 2 * math.pi - a_k - 5e-3, 7)
    worst = 0.0
    for alpha in list(hyp) + list(sph):
        r = compute_volume(ConeManifoldSpec(family, n, float(alpha)),
                           cross_check=True)
        assert r.volume >= 0.0
        assert r.imaginary_residual <= 1e-7
        worst = max(worst, abs(r.volume - r.schlafli_volume))
    assert worst <= 1e-7


def test_torus_members_stay_degenerate():
    for family, n in ((KnotFamily.C2N2, -1), (KnotFamily.C2NMINUS2N, 1),
                      (KnotFamily.C2NMINUS2N, -1)):
        with pytest.raises(NotBracketedError):
            critical_angle(family, n)
