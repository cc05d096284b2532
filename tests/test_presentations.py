"""Same knot, same numbers: presentation identities as an oracle (ROADMAP item 14).

Two members that present the same two-bridge knot up to mirror (Schubert's
criterion, tests/oracles.py) must agree in a_K, volume and l_alpha, which the
mirror does not change.  The pairs come from each member's (p, q), not from a
hand list.
"""

import math

import pytest

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


def _ids(pair):
    return " ~ ".join(f"{family.value}:{n}" for family, n in pair)


def test_schubert_pairs_up_to_twelve():
    # C(2,2) ~ C(-2,3), C(-4,2) ~ C(2,3), and C(2n,-2n) ~ C(-2n,2n)
    expected = {((KnotFamily.C2N2, 1), (KnotFamily.C2N3, -1)),
                ((KnotFamily.C2N2, -2), (KnotFamily.C2N3, 1))}
    expected |= {((KnotFamily.C2NMINUS2N, -n), (KnotFamily.C2NMINUS2N, n))
                 for n in range(2, 13)}
    assert set(_pairs(_members(12))) == expected
    assert len(PAIRS_4) == 5


@pytest.mark.parametrize("pair", PAIRS_4, ids=_ids)
def test_presentations_share_the_critical_angle(pair):
    a_k, a_k_other = (critical_angle(*member) for member in pair)
    assert abs(a_k - a_k_other) <= 4 * math.ulp(a_k)


@pytest.mark.parametrize("pair", PAIRS_4, ids=_ids)
def test_presentations_share_volume_and_length(pair):
    a_k = critical_angle(*pair[0])
    band = 2.0 * math.pi - 2.0 * a_k
    fractions = (0.1, 0.3, 0.45, 0.7, 0.9)
    angles = [f * a_k for f in fractions] + [a_k + f * band for f in fractions]
    for alpha in angles:
        (v, l), (v_other, l_other) = (
            (compute_volume(spec).volume, classify(spec).l_alpha)
            for spec in (ConeManifoldSpec(*member, alpha) for member in pair))
        assert abs(v - v_other) <= PAIR_TOL, alpha
        assert abs(l - l_other) <= PAIR_TOL, alpha
