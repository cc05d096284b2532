"""Same knot, same numbers: presentation identities as an oracle (ROADMAP item 14).

Two members that present the same two-bridge knot up to mirror (Schubert's
criterion, tests/oracles.py) must agree in a_K, volume and l_alpha, which the
mirror does not change.  The pairs come from each member's (p, q), not from a
hand list.
"""

import math

import pytest

from conevol.errors import SelectionAmbiguityError
from conevol.families import ConeManifoldSpec, KnotFamily, is_torus_member
from conevol.geometry import classify, critical_angle
from conevol.volume import compute_volume

from oracles import same_two_bridge_knot, two_bridge_pq

PAIR_TOL = 1e-12


def _members(max_n):
    return [(family, n) for family in KnotFamily for n in range(-max_n, max_n + 1)
            if n != 0 and not is_torus_member(family, n)]


def _pairs(members):
    pq = {m: two_bridge_pq(m[0].value, m[1]) for m in members}
    return [(a, b) for i, a in enumerate(members) for b in members[i + 1:]
            if same_two_bridge_knot(pq[a], pq[b])]


PAIRS_4 = _pairs(_members(4))
# C(2n,-2n) ~ C(-2n,2n) for n = 5 ... 11
PAIRS_5_11 = [pair for pair in _pairs(_members(11)) if pair not in PAIRS_4]
# each pair's largest hyperbolic l_alpha gap over _angles, as measured: the
# matrix-word length (ROADMAP item 4) drifts apart between the presentations
HYPERBOLIC_LENGTH_GAP = {5: 2.2e-12, 6: 1.6e-12, 7: 1.3e-11, 8: 3.8e-11, 9: 7.8e-11,
                         10: 2.5e-10, 11: 1.6e-10}


def _ids(pair):
    return " ~ ".join(f"{family.value}:{n}" for family, n in pair)


def _angles(a_k, regime):
    """Five hyperbolic angles below a_K, or five spherical ones in the band."""
    fractions = (0.1, 0.3, 0.45, 0.7, 0.9)
    if regime == "hyperbolic":
        return [f * a_k for f in fractions]
    return [a_k + f * (2.0 * math.pi - 2.0 * a_k) for f in fractions]


def _volumes_and_lengths(pair, alpha):
    return [(compute_volume(spec).volume, classify(spec).l_alpha)
            for spec in (ConeManifoldSpec(*member, alpha) for member in pair)]


def test_schubert_pairs_up_to_twelve():
    # C(2,2) ~ C(-2,3), C(-4,2) ~ C(2,3), and C(2n,-2n) ~ C(-2n,2n)
    expected = {((KnotFamily.C2N2, 1), (KnotFamily.C2N3, -1)),
                ((KnotFamily.C2N2, -2), (KnotFamily.C2N3, 1))}
    expected |= {((KnotFamily.C2NMINUS2N, -n), (KnotFamily.C2NMINUS2N, n))
                 for n in range(2, 13)}
    assert set(_pairs(_members(12))) == expected
    assert len(PAIRS_4) == 5


@pytest.mark.parametrize("pair", PAIRS_4 + PAIRS_5_11 + [pytest.param(
    ((KnotFamily.C2NMINUS2N, -12), (KnotFamily.C2NMINUS2N, 12)), id="c2nm2n:-12 ~ c2nm2n:12",
    marks=pytest.mark.xfail(raises=SelectionAmbiguityError, strict=True, reason=(
        "ROADMAP items 2 and 12: the seed root of C(24,-24) fails holonomy "
        "certification")))], ids=_ids)
def test_presentations_share_the_critical_angle(pair):
    a_k, a_k_other = (critical_angle(*member) for member in pair)
    assert abs(a_k - a_k_other) <= 4 * math.ulp(a_k)


@pytest.mark.parametrize("pair", PAIRS_4, ids=_ids)
def test_presentations_share_volume_and_length(pair):
    a_k = critical_angle(*pair[0])
    for alpha in _angles(a_k, "hyperbolic") + _angles(a_k, "spherical"):
        (v, l), (v_other, l_other) = _volumes_and_lengths(pair, alpha)
        assert abs(v - v_other) <= PAIR_TOL, alpha
        assert abs(l - l_other) <= PAIR_TOL, alpha


@pytest.mark.parametrize("pair", PAIRS_5_11, ids=_ids)
def test_wider_presentations_share_volume_and_spherical_length(pair):
    a_k = critical_angle(*pair[0])
    for regime in ("hyperbolic", "spherical"):
        for alpha in _angles(a_k, regime):
            (v, l), (v_other, l_other) = _volumes_and_lengths(pair, alpha)
            assert abs(v - v_other) <= PAIR_TOL, alpha
            if regime == "spherical":
                assert abs(l - l_other) <= PAIR_TOL, alpha


@pytest.mark.parametrize("pair", [
    pytest.param(pair, marks=pytest.mark.xfail(raises=AssertionError, strict=True, reason=(
        f"ROADMAP item 4: the matrix-word hyperbolic l_alpha differs by up to "
        f"{HYPERBOLIC_LENGTH_GAP[pair[1][1]]:.1e}")))
    for pair in PAIRS_5_11], ids=_ids)
def test_wider_presentations_share_the_hyperbolic_length(pair):
    a_k = critical_angle(*pair[0])
    for alpha in _angles(a_k, "hyperbolic"):
        l, l_other = (classify(ConeManifoldSpec(*member, alpha)).l_alpha for member in pair)
        assert abs(l - l_other) <= PAIR_TOL, alpha
