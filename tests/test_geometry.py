"""Critical angles, regime classification, geometric root selection."""

import cmath
import math

import numpy as np
import pytest

from conevol import geometry as ge
from conevol.chebyshev import eval_f
from conevol.errors import (
    DegenerateLongitudeError,
    NonConvergenceError,
    NotBracketedError,
    SelectionAmbiguityError,
)
from conevol.families import ConeManifoldSpec, KnotFamily, is_torus_member
from conevol.representation import relation_residual
from conevol.riley import build_cone_equation

from oracles import singular_length_60

MEMBERS = [
    (family, n)
    for family in KnotFamily
    for n in (-3, -2, -1, 1, 2, 3)
    if not is_torus_member(family, n)
]


def test_figure_eight_critical_angle_exact():
    a_k = ge.critical_angle(KnotFamily.C2N2, 1)
    assert a_k == pytest.approx(2 * math.pi / 3, abs=1e-9)
    assert ge.collision_root(KnotFamily.C2N2, 1) == pytest.approx(0.0, abs=1e-9)
    # the mirror presentation of the same knot agrees
    assert ge.critical_angle(KnotFamily.C2N3, -1) == pytest.approx(
        2 * math.pi / 3, abs=1e-9
    )


@pytest.mark.parametrize("family,n", MEMBERS)
def test_critical_angle_in_window(family, n):
    a_k = ge.critical_angle(family, n)
    assert 2 * math.pi / 3 - 1e-6 <= a_k < math.pi


@pytest.mark.parametrize(
    "family,n",
    [(KnotFamily.C2N2, -1), (KnotFamily.C2NMINUS2N, 1), (KnotFamily.C2NMINUS2N, -1)],
)
def test_torus_members_have_no_transition(family, n):
    with pytest.raises(NotBracketedError):
        ge.critical_angle(family, n)


def test_classification_examples():
    assert ge.classify(ConeManifoldSpec(KnotFamily.C2N2, 1, 0.5)).regime is ge.Regime.HYPERBOLIC
    assert ge.classify(ConeManifoldSpec(KnotFamily.C2N2, 1, math.pi)).regime is ge.Regime.SPHERICAL
    a_k = ge.critical_angle(KnotFamily.C2N2, 1)
    out = ge.classify(ConeManifoldSpec(KnotFamily.C2N2, 1, 2 * math.pi - a_k + 0.1))
    assert out.regime is ge.Regime.OUT_OF_RANGE


def test_fig8_hyperbolic_root_small_angle_limit():
    # at alpha -> 0 the root tends to the z^2 - 3z + 3 zero with Im f > 0,
    # which is (3 - i sqrt(3))/2 (its conjugate has Im f < 0)
    y0 = ge.select_hyperbolic_root(ConeManifoldSpec(KnotFamily.C2N2, 1, 0.01))
    assert y0 == pytest.approx((3 - 1j * math.sqrt(3)) / 2, abs=5e-3)
    assert eval_f(1, y0).imag > 0


@pytest.mark.parametrize("family,n", MEMBERS)
def test_selected_hyperbolic_root_invariants(family, n):
    a_k = ge.critical_angle(family, n)
    for alpha in (0.4, 0.8 * a_k):
        spec = ConeManifoldSpec(family, n, alpha)
        y0 = ge.select_hyperbolic_root(spec)
        assert eval_f(n, y0).imag > 0
        eq = build_cone_equation(family, n, spec.cot_half)
        assert abs(eq.residual(y0)) <= 1e-8
        assert abs(eq.residual(y0.conjugate())) <= 1e-8  # conjugate also a root
        m = cmath.exp(0.5j * alpha)
        assert relation_residual(family, n, m, y0) <= 1e-9


def test_fig8_spherical_roots_at_pi():
    spec = ConeManifoldSpec(KnotFamily.C2N2, 1, math.pi)
    y_plus, y_minus = ge.select_spherical_roots(spec)
    golden = (math.sqrt(5) - 1) / 2
    assert sorted((y_plus, y_minus)) == pytest.approx(
        [-(golden + 1), golden], abs=1e-10
    )


@pytest.mark.parametrize("family,n", [(KnotFamily.C2N2, 1), (KnotFamily.C2N3, 1),
                                      (KnotFamily.C2NMINUS2N, 2), (KnotFamily.C2N3, -2)])
def test_spherical_roots_real_f(family, n):
    a_k = ge.critical_angle(family, n)
    for alpha in (a_k + 0.1, math.pi - 0.1, math.pi + 0.4):
        if alpha >= 2 * math.pi - a_k:
            continue
        spec = ConeManifoldSpec(family, n, alpha)
        y_plus, y_minus = ge.select_spherical_roots(spec)
        assert abs(eval_f(n, complex(y_plus)).imag) <= 1e-8
        assert abs(eval_f(n, complex(y_minus)).imag) <= 1e-8


def test_transition_continuity():
    # the gap scales like sqrt(delta); measured ~0.058 at delta = 1e-3
    for family, n in ((KnotFamily.C2N2, 1), (KnotFamily.C2N3, 1)):
        a_k = ge.critical_angle(family, n)
        gaps = []
        for delta in (1e-3, 1e-5):
            y0 = ge.select_hyperbolic_root(ConeManifoldSpec(family, n, a_k - delta))
            y_plus, y_minus = ge.select_spherical_roots(
                ConeManifoldSpec(family, n, a_k + delta)
            )
            gaps.append(min(abs(y0 - y_plus), abs(y0 - y_minus)))
        assert gaps[1] < gaps[0] < 0.1
        assert gaps[1] < 0.01


def test_im_f_vanishes_at_transition():
    family, n = KnotFamily.C2N2, 1
    a_k = ge.critical_angle(family, n)
    values = []
    for delta in (1e-2, 1e-4, 1e-6):
        y0 = ge.select_hyperbolic_root(ConeManifoldSpec(family, n, a_k - delta))
        values.append(eval_f(n, y0).imag)
    assert values[0] > values[1] > values[2] > 0
    assert values[2] < 1e-2


def test_continuation_consistency():
    for family, n in ((KnotFamily.C2N2, 2), (KnotFamily.C2N3, -2)):
        a_k = ge.critical_angle(family, n)
        for alpha in np.linspace(0.05, a_k - 0.02, 50):
            spec = ConeManifoldSpec(family, n, float(alpha))
            y0 = ge.select_hyperbolic_root(spec)
            eq = build_cone_equation(family, n, spec.cot_half)
            assert abs(eq.residual(y0)) <= 1e-8


def test_regime_symmetry_across_pi():
    for family, n in ((KnotFamily.C2N2, 1), (KnotFamily.C2NMINUS2N, 2)):
        a_k = ge.critical_angle(family, n)
        for alpha in (a_k + 0.2, math.pi - 0.3):
            r1 = ge.classify(ConeManifoldSpec(family, n, alpha))
            r2 = ge.classify(ConeManifoldSpec(family, n, 2 * math.pi - alpha))
            assert r1.regime is r2.regime is ge.Regime.SPHERICAL
            assert r1.roots == pytest.approx(r2.roots, abs=1e-9)


def test_spherical_length_properties():
    family, n = KnotFamily.C2N2, 1
    a_k = ge.critical_angle(family, n)
    near = ge.spherical_length(family, n, a_k + 1e-4)
    mid = ge.spherical_length(family, n, 2.6)
    assert 0 < near < 0.1 < mid
    # symmetric about pi
    assert ge.spherical_length(family, n, 2.6) == pytest.approx(
        ge.spherical_length(family, n, 2 * math.pi - 2.6), abs=1e-9
    )


def test_euclidean_point_classification():
    family, n = KnotFamily.C2N2, 1
    a_k = ge.critical_angle(family, n)
    res = ge.classify(ConeManifoldSpec(family, n, a_k))
    assert res.regime is ge.Regime.EUCLIDEAN


def test_certify_rejects_only_a_degenerate_longitude(monkeypatch):
    monkeypatch.setattr(ge, "relation_residual", lambda *args: 0.0)

    def degenerate(*args):
        raise DegenerateLongitudeError("word (1,2)-entry is 0")

    monkeypatch.setattr(ge, "longitude_eigenvalue", degenerate)
    assert ge._certify(KnotFamily.C2N2, 1, 0.5, 1.0 + 1.0j) is False

    def broken(*args):
        raise RuntimeError("not a certification outcome")

    monkeypatch.setattr(ge, "longitude_eigenvalue", broken)
    with pytest.raises(RuntimeError):
        ge._certify(KnotFamily.C2N2, 1, 0.5, 1.0 + 1.0j)


def test_hyperbolic_root_raises_on_an_ambiguous_match(monkeypatch):
    family, n, alpha = KnotFamily.C2N2, 1, 1.0
    member = ge._member(family, n)
    y = member.hyperbolic_root(alpha)
    # two roots tie around the tracked one: neither is a trustworthy match
    monkeypatch.setattr(ge, "_moving_roots", lambda *args: [y + 0.5, y - 0.5])
    with pytest.raises(SelectionAmbiguityError):
        member.hyperbolic_root(alpha)


def test_match_unambiguous_excuses_only_a_non_real_conjugate_tie():
    # a non-real root with its conjugate as runner-up: the collision funnel
    root = 1.0 + 1e-6j
    y, ok = ge._match_unambiguous([root.conjugate(), root], 1.0 + 1e-8j)
    assert (y, ok) == (root, True)
    # a near-tie between two real roots stays ambiguous
    y, ok = ge._match_unambiguous([1.0, 1.0 + 2e-6], 1.0 + 0.9e-6)
    assert (y, ok) == (1.0, False)
    # so does a "conjugate" tie of a root that is real within COLLISION_IM_TOL
    root = 1.0 + 1e-10j
    assert ge._match_unambiguous([root, root.conjugate()], 1.0 + 1e-11j) == (root, False)
    # a clear winner needs no excuse
    assert ge._match_unambiguous([0.0, 1.0], 0.1) == (0.0, True)


def test_classify_length_is_none_off_both_regimes():
    family, n = KnotFamily.C2N2, 1
    a_k = ge.critical_angle(family, n)
    assert ge.classify(ConeManifoldSpec(family, n, a_k)).l_alpha is None
    assert ge.classify(ConeManifoldSpec(family, n, 2 * math.pi - a_k + 0.1)).l_alpha is None


def test_tie_break_scores_each_winner_once(monkeypatch):
    # three branches of C(8,3) collide inside the Kojima-Porti window
    scored = []
    estimate = ge._Branch.volume_estimate

    def counted(self):
        scored.append(self)
        return estimate(self)

    monkeypatch.setattr(ge._Branch, "volume_estimate", counted)
    member = ge._MemberGeometry(KnotFamily.C2N3, 4)
    assert len(scored) == len(set(map(id, scored))) == 3
    assert member.branch is max(scored, key=estimate)
    assert member.alpha_k == ge.critical_angle(KnotFamily.C2N3, 4)


NODES = (0.5, 1.0, 1.5, 2.5, 2.5000000000000004)


@pytest.mark.parametrize(
    "alpha",
    [-1.0, 0.5, 0.75, 0.9, 1.0, 1.25, 1.3, 2.0, 2.4, 2.5, 2.5000000000000004, 9.0],
)
def test_track_nearest_matches_the_linear_scan(alpha):
    track = ge._Track(NODES[0], "s0")
    for i, a in enumerate(NODES[1:], start=1):
        track.add(a, f"s{i}")
    # 0.75, 1.25 and 2.0 are exact ties: the lower node wins
    i = min(range(len(NODES)), key=lambda k: abs(NODES[k] - alpha))
    assert track.nearest(alpha) == (NODES[i], f"s{i}")


def test_collision_polish_raises_outside_its_bracket():
    # the polish owns a_K: an estimate it cannot confirm raises, there is no
    # fallback to the estimate
    family, n = KnotFamily.C2N3, 2
    a_k, y_star = ge.critical_angle(family, n), ge.collision_root(family, n)
    alpha, y = ge._polish_collision(family, n, a_k, y_star)
    assert alpha == pytest.approx(a_k, abs=1e-12) and y == pytest.approx(y_star, abs=1e-9)
    with pytest.raises(NonConvergenceError):
        ge._polish_collision(family, n, a_k + 1e-3, y_star)


def test_critical_angle_of_c16_minus16():
    # the geometric branch collides above pi - 0.02: a march that stops there
    # lets a non-geometric branch win at 2.9715
    a_k = ge.critical_angle(KnotFamily.C2NMINUS2N, 8)
    assert a_k == pytest.approx(3.1222269291861986, abs=1e-9)


@pytest.mark.parametrize("n,a_k", [(9, 3.1263061886817187), (10, 3.1292192030523864)])
def test_critical_angle_of_c18_minus18_and_c20_minus20(n, a_k):
    assert ge.critical_angle(KnotFamily.C2NMINUS2N, n) == pytest.approx(a_k, abs=1e-9)


def test_critical_angle_of_c2n_minus2n_increases_with_n():
    angles = [ge.critical_angle(KnotFamily.C2NMINUS2N, n) for n in range(2, 11)]
    assert all(a < b for a, b in zip(angles, angles[1:]))


def _cold_spherical_lengths(family, n, descending):
    ge.clear_caches()
    a_k = ge.critical_angle(family, n)
    grid = [float(a) for a in np.linspace(a_k, math.pi, 14)[1:-1]]
    order = grid[::-1] if descending else grid
    return {a: repr(ge.spherical_length(family, n, a)) for a in order}


@pytest.mark.parametrize("family,n", [(KnotFamily.C2N2, 1), (KnotFamily.C2N3, 2),
                                      (KnotFamily.C2NMINUS2N, 4), (KnotFamily.C2N2, 8)])
def test_spherical_length_does_not_depend_on_query_order(family, n):
    # advances must not aim at the queried angle: doing so made C(2,2) at
    # 2.738824364668025 read ...911 ascending and ...912 descending
    ascending = _cold_spherical_lengths(family, n, False)
    assert _cold_spherical_lengths(family, n, True) == ascending


# C(2,2), C(4,3) and C(16,2), where the matrix longitude is accurate
ORACLE_POINTS = [(KnotFamily.C2N2, 1, 1.0), (KnotFamily.C2N3, 2, 1.0),
                 (KnotFamily.C2N2, 8, 0.5)]


@pytest.mark.parametrize("family,n,alpha", ORACLE_POINTS)
def test_singular_length_matches_the_60_digit_oracle(family, n, alpha):
    res = ge.classify(ConeManifoldSpec(family, n, alpha))
    length, y = singular_length_60(family.value, n, alpha, res.roots[0])
    assert abs(y - res.roots[0]) <= 1e-14
    assert abs(res.l_alpha - length) <= 2e-14


@pytest.mark.xfail(strict=True, reason="ROADMAP Open item 4: matrix longitude off by 3.4e-13")
def test_singular_length_of_c8_minus8_at_a_small_angle():
    # the 60-digit length is 0.14228245401260867; the rational longitude
    # (c+1)/(c-1) gets within 1.4e-16 of it, the word matrices 3.4e-13 away
    alpha = 0.06173060880012988
    res = ge.classify(ConeManifoldSpec(KnotFamily.C2NMINUS2N, 4, alpha))
    length, _ = singular_length_60("c2nm2n", 4, alpha, res.roots[0])
    assert abs(res.l_alpha - length) <= 2e-14
