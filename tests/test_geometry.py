"""Critical angles, regime classification, geometric root selection."""

import ast
import cmath
import inspect
import math
import random
import sys
from pathlib import Path

import numpy as np
import pytest

from conevol import exactpoly as xp
from conevol import geometry as ge
from conevol import representation as rp
from conevol import riley as ry
from conevol.chebyshev import eval_f, eval_g, kernel
from conevol.errors import (
    ConevolError,
    NonConvergenceError,
    NotBracketedError,
    PoleError,
    SelectionAmbiguityError,
)
from conevol.families import ConeManifoldSpec, KnotFamily, is_torus_member
from conevol.representation import longitude_eigenvalue, relation_residual
from conevol.riley import build_cone_equation

from oracles import critical_angle_exact, singular_length_60

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads as wl  # noqa: E402

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


def test_hyperbolic_root_raises_on_an_ambiguous_match(monkeypatch):
    family, n, alpha = KnotFamily.C2N2, 1, 1.0
    member = ge._member(family, n)
    y = member.hyperbolic_root(alpha)
    # the two least non-real roots are no conjugate pair: nothing to select
    monkeypatch.setattr(ge, "_moving_roots", lambda *args: [y + 0.5, y - 0.5])
    with pytest.raises(SelectionAmbiguityError):
        member.hyperbolic_root(alpha)


def test_classify_length_is_none_off_both_regimes():
    family, n = KnotFamily.C2N2, 1
    a_k = ge.critical_angle(family, n)
    assert ge.classify(ConeManifoldSpec(family, n, a_k)).l_alpha is None
    assert ge.classify(ConeManifoldSpec(family, n, 2 * math.pi - a_k + 0.1)).l_alpha is None


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


@pytest.mark.parametrize("lookup", [ge.critical_angle, ge.collision_root])
def test_member_lookups_reject_a_non_int_twist_equal_to_a_cached_one(lookup):
    # True, 1.0 and np.int64(1) hash and compare equal to 1: the member cache
    # answered them with the set-up of n = 1 before any validation ran
    lookup(KnotFamily.C2N2, 1)
    for n in (True, 1.0, np.int64(1)):
        with pytest.raises(ValueError, match="integer"):
            lookup(KnotFamily.C2N2, n)


_FAMILY_ENTRIES = {
    "spec": lambda family: ConeManifoldSpec(family, 1, 1.0),  # compute_volume's input
    "build_phi": lambda family: ry.build_phi(family, 1),
    "build_cone_equation": lambda family: build_cone_equation(family, 1, 1.0),
    "critical_angle": lambda family: ge.critical_angle(family, 1),
    "kernel": lambda family: kernel(family, 1),
    "build_matrices": lambda family: rp.build_matrices(family, 2.0, 1.0),
    "complex_length": lambda family: rp.complex_length(family, 1, 1.0, 0.5 + 0.8j, 1.5),
    "eval_g": lambda family: eval_g(family, 1, 1.3 + 0.4j),
    "is_torus_member": lambda family: is_torus_member(family, -1),
    "f_identity_gap": lambda family: rp.f_identity_gap(family, 1, 1.2 + 0.3j, 0.5 + 0.8j,
                                                       1.5 + 0.2j),
}


@pytest.mark.parametrize("entry,family", [
    (entry, family) for entry in _FAMILY_ENTRIES
    for family in ("c2n2", None, (KnotFamily.C2N2, 1))
    if (entry, family) != ("kernel", None)  # kernel's None is the f-only closure
], ids=lambda v: "tuple" if isinstance(v, tuple) else str(v))
def test_entry_points_reject_a_family_that_is_not_a_knot_family(entry, family):
    # a token raised a raw KeyError or AttributeError, build_phi answered any
    # non-enum family with the Phi of C(2n,-2n), eval_g(None, ...) with 0,
    # is_torus_member with False, f_identity_gap with its value, and the spec
    # took a (family, n) tuple
    with pytest.raises(ValueError, match="must be a KnotFamily"):
        _FAMILY_ENTRIES[entry](family)


def test_spherical_length_at_a_hyperbolic_angle_raises_value_error():
    # it raised SelectionAmbiguityError ("could not isolate the split real pair")
    with pytest.raises(ValueError):
        ge.spherical_length(KnotFamily.C2N2, 1, 1.0)


def _cold_spherical_lengths(family, n, descending):
    ge.clear_caches()
    a_k = ge.critical_angle(family, n)
    grid = [float(a) for a in np.linspace(a_k, math.pi, 14)[1:-1]]
    order = grid[::-1] if descending else grid
    return {a: repr(ge.spherical_length(family, n, a)) for a in order}


@pytest.mark.parametrize("family,n", [(KnotFamily.C2N2, 1), (KnotFamily.C2N3, 2),
                                      (KnotFamily.C2NMINUS2N, 4), (KnotFamily.C2N2, 8)])
def test_spherical_length_does_not_depend_on_query_order(family, n):
    # a lookup is one solve and a sort; a continued phase once made C(2,2) at
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


# ------------------------------------------------ selection by root order

MEMBERS_4 = [
    (family, n)
    for family in KnotFamily
    for n in range(-4, 5)
    if n != 0 and not is_torus_member(family, n)
]
FIG8 = (KnotFamily.C2N2, 1)


def _hyperbolic_grid(a_k):
    return [f * a_k for f in (0.05, 0.3, 0.6, 0.9, 0.999)]


def _spherical_grid(a_k):
    band = math.pi - a_k
    return [a_k + f * band for f in (0.01, 0.3, 0.7, 1.0)] + [math.pi + 0.5 * band]


@pytest.mark.parametrize("family,n", MEMBERS_4)
def test_geometric_root_is_the_certified_member_of_its_pair(family, n):
    a_k = ge.critical_angle(family, n)
    for alpha in _hyperbolic_grid(a_k):
        y0 = ge.select_hyperbolic_root(ConeManifoldSpec(family, n, alpha))
        assert ge._certify(family, n, alpha, y0)
        # the matrix words, an independent oracle: y0 is a representation
        # point, and of its conjugate pair the one with positive real length
        m = cmath.exp(0.5j * alpha)
        assert relation_residual(family, n, m, y0) <= 1e-9
        assert (abs(longitude_eigenvalue(family, n, m, y0)) > 1.0
                > abs(longitude_eigenvalue(family, n, m, y0.conjugate())))


def test_cold_set_up_reads_no_matrix_word(monkeypatch):
    def raises(*args, **kwargs):
        raise AssertionError("the set-up called a representation function")

    modules = [mod for name, mod in sys.modules.items() if name.startswith("conevol")]
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value.__module__ == rp.__name__:
                monkeypatch.setattr(mod, attr, raises)
    ge.clear_caches()
    for family, n in MEMBERS_4 + [(KnotFamily.C2N2, 8)]:
        ge.critical_angle(family, n)


def test_geometry_imports_only_the_longitude_eigenvalue_from_representation():
    tree = ast.parse(inspect.getsource(ge))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name for alias in node.names]
            if getattr(node, "module", None) == "representation":
                imported += names
            else:
                assert not any("representation" in name for name in names)
    assert imported == ["longitude_eigenvalues"]


@pytest.mark.parametrize("family,n", MEMBERS_4)
def test_spherical_length_is_the_phase_of_the_matrix_longitude_ratio(family, n):
    # the matrix words are an independent oracle for the closed form, and the
    # sign of the phase checks the (y_plus, y_minus) order
    a_k = ge.critical_angle(family, n)
    for alpha in _spherical_grid(a_k):
        res = ge.classify(ConeManifoldSpec(family, n, alpha))
        m = cmath.exp(0.5j * min(alpha, 2 * math.pi - alpha))
        y_plus, y_minus = (complex(y) for y in res.roots)
        ratio = (longitude_eigenvalue(family, n, m, y_plus)
                 / longitude_eigenvalue(family, n, m, y_minus))
        assert abs(math.remainder(res.l_alpha - cmath.phase(ratio), 2 * math.pi)) <= 1e-10


@pytest.mark.parametrize("family,n", MEMBERS_4)
def test_classify_does_not_depend_on_query_order(family, n):
    ge.clear_caches()
    a_k = ge.critical_angle(family, n)
    grid = sorted(_hyperbolic_grid(a_k) + _spherical_grid(a_k))
    ascending = [repr(ge.classify(ConeManifoldSpec(family, n, a))) for a in grid]
    order = list(range(len(grid)))
    random.Random(n).shuffle(order)
    ge.clear_caches()
    shuffled = {i: repr(ge.classify(ConeManifoldSpec(family, n, grid[i]))) for i in order}
    assert [shuffled[i] for i in range(len(grid))] == ascending


# constructed moving roots per angle of the figure-eight (a_K = 2*pi/3): at
# 0.6 a conjugate pair that is no representation point, so its length
# raises; at 0.7 no conjugate pair to select; at 2.7 no real spherical pair.
# At 1e-160 the cone equation's coefficients overflow as it is built.
_PANEL_ROOTS = {0.6: [1.0 - 1.0j, 1.0 + 1.0j], 0.7: [1.5 + 1.0j, 0.5 + 1.0j],
                2.7: [-1.0 - 1e-3j, -1.0 + 1e-3j, 0.5 + 0j]}
_LENGTH = (ValueError, "representation point")
_SELECT = (SelectionAmbiguityError, "")
_BUILD = (ValueError, "overflow")
_HYP, _SPH = ge.Regime.HYPERBOLIC, ge.Regime.SPHERICAL


def _outcome(call):
    try:
        return [repr(r) for r in call()]
    except Exception as exc:  # the error is the outcome compared
        return type(exc), str(exc)


@pytest.mark.parametrize("alphas, regime, error", [
    ((0.5, 0.6, 0.7), _HYP, _SELECT),  # a selection failure comes before a length failure
    ((0.5, 0.7, 0.6), _HYP, _SELECT),
    ((0.6, 1e-160), _HYP, _BUILD),  # a build failure comes before either
    ((1e-160, 0.7), _HYP, _BUILD),
    ((0.7, 1e-160), _HYP, _BUILD),
    ((0.5, 0.6), _HYP, _LENGTH),
    ((2.6, 2.7), _SPH, _SELECT),
    ((0.5, 1.0, 2.0), _HYP, None),  # nothing fails
    ((2.6, 3.0, math.pi), _SPH, None),
])
def test_a_panel_raises_the_error_of_its_first_failing_angle(alphas, regime, error,
                                                             monkeypatch):
    # the first failing angle of the earliest kind: build, then solve or
    # selection, then length
    solve = ge._moving_roots
    monkeypatch.setattr(ge, "_moving_roots", lambda family, n, alpha, *mode: (
        list(_PANEL_ROOTS[alpha]) if alpha in _PANEL_ROOTS else solve(family, n, alpha, *mode)))
    panel = _outcome(lambda: ge._select_panel(*FIG8, list(alphas), regime))
    alone = [_outcome(lambda: ge._select_panel(*FIG8, [a], regime)) for a in alphas]
    if error is None:
        assert panel == [r for one in alone for r in one]
        # classify sends a solved angle as a panel of one
        classified = [ge.classify(ConeManifoldSpec(*FIG8, a)) for a in alphas]
        assert panel == [repr((r.roots, r.l_alpha)) for r in classified]
        assert {r.regime for r in classified} == {regime}
    else:
        # the error of the first angle that fails alone by this kind of failure
        assert panel == next(one for one in alone
                             if one[0] is error[0] and error[1] in one[1])


@pytest.mark.parametrize("regime", [_HYP, _SPH])
def test_an_empty_panel_walks_no_word(regime, monkeypatch):
    def walk(*args):
        raise AssertionError("a longitude word was walked")

    monkeypatch.setattr(ge, "longitude_eigenvalues", walk)
    assert ge._select_panel(*FIG8, [], regime) == []


@pytest.mark.parametrize("roots", [
    [-1.0 + 0j, 0.5 + 0j],  # no non-real pair
    [1.0 - 1.0j, 1.0 + 0.5j],  # the least two non-real roots are not conjugate
    [1.0 - 1.0j, 1.0 + 1.0j, 1.0005 - 2.0j, 1.0005 + 2.0j],  # pairs within PAIR_MARGIN
])
def test_hyperbolic_selection_raises_on_constructed_roots(roots, monkeypatch):
    member = ge._member(*FIG8)
    monkeypatch.setattr(ge, "_moving_roots", lambda *args: list(roots))
    with pytest.raises(SelectionAmbiguityError):
        member.hyperbolic_root(1.0)


def test_hyperbolic_selection_takes_im_f_positive_from_the_least_pair(monkeypatch):
    member = ge._member(*FIG8)
    roots = [-3.0 + 0j, 1.0 - 1.0j, 1.0 + 1.0j, 1.5 - 2.0j, 1.5 + 2.0j]
    monkeypatch.setattr(ge, "_moving_roots", lambda *args: list(roots))
    y = member.hyperbolic_root(1.0)
    assert y in (1.0 - 1.0j, 1.0 + 1.0j) and eval_f(1, y).imag > 0


def test_geometry_orders_roots_only_by_real_part():
    # roots are selected by their order: a sort or min/max keyed on anything
    # but the real part (a distance to a tracked root, say) would bring back
    # matching by continuation
    keys = [kw.value for node in ast.walk(ast.parse(inspect.getsource(ge)))
            if isinstance(node, ast.Call) and (
                getattr(node.func, "id", None) in ("sorted", "min", "max")
                or getattr(node.func, "attr", None) == "sort")
            for kw in node.keywords if kw.arg == "key"]
    assert keys
    for key in keys:
        assert (isinstance(key, ast.Lambda) and isinstance(key.body, ast.Attribute)
                and key.body.attr == "real"
                and getattr(key.body.value, "id", None) == key.args.args[0].arg), \
            ast.unparse(key)


@pytest.mark.parametrize("roots", [
    [0.5 + 0j],  # one root
    [-1.0 - 1e-3j, -1.0 + 1e-3j, 0.5 + 0j],  # the least two are a conjugate pair
    [-1.0 + 0j, 0.2 - 1e-3j, 0.2 + 1e-3j],  # the second least is not real
])
def test_spherical_selection_raises_on_constructed_roots(roots, monkeypatch):
    ge.critical_angle(*FIG8)
    monkeypatch.setattr(ge, "_moving_roots", lambda *args: list(roots))
    with pytest.raises(SelectionAmbiguityError):
        ge.classify(ConeManifoldSpec(*FIG8, 2.6))


@pytest.mark.parametrize("roots,match", [
    ([1.0 - 1.0j, 2.0 + 1.0j], "conjugate pair"),
    ([1.0 - 1.0j, 1.0 + 1.0j], "certification"),  # no representation point
])
def test_set_up_raises_on_constructed_seed_roots(roots, match, monkeypatch):
    monkeypatch.setattr(ge, "_moving_roots", lambda *args: list(roots))
    with pytest.raises(SelectionAmbiguityError, match=match):
        ge._MemberGeometry(*FIG8)


def test_set_up_raises_when_the_march_tangles(monkeypatch):
    seed_roots = ge._moving_roots(*FIG8, ge.ALPHA_SEED)
    y = ge._geometric_root(*FIG8, ge.ALPHA_SEED, seed_roots)
    # past the seed, the least two non-real roots at a march node are no
    # conjugate pair: the order rule has no pair to march
    monkeypatch.setattr(ge, "_moving_roots", lambda family, n, alpha, *mode: (
        seed_roots if alpha == ge.ALPHA_SEED else [y - 0.5, y + 0.5]))
    with pytest.raises(SelectionAmbiguityError, match="conjugate pair"):
        ge._MemberGeometry(*FIG8)


def _solved_angles(monkeypatch):
    """The angles of every cone-equation solve of geometry, in call order."""
    angles = []
    solve = ge._moving_roots
    monkeypatch.setattr(ge, "_moving_roots", lambda family, n, alpha, *mode: (
        angles.append(alpha) or solve(family, n, alpha, *mode)))
    return angles


def _march_from_the_seed(family, n):
    """A reference march that solves every lattice node from ALPHA_SEED on.
    Returns ((angle, x), the solved angles)."""
    angles = []

    def pair_at(alpha):
        angles.append(alpha)
        return ge._least_pair(family, n, alpha, ge._moving_roots(family, n, alpha, False))

    a, step = ge.ALPHA_SEED, ge.MARCH_STEP
    x = pair_at(a)[0].real
    while True:
        cand = min(a + step, math.pi)
        pair = pair_at(cand)
        if pair is not None:
            a, x = cand, pair[0].real
            step = min(ge.MARCH_STEP, step * 1.6)
        elif step > 1e-4:
            step *= 0.5
        else:
            break
    lo, hi = a, cand
    while hi - lo > ge.BISECT_TOL:
        mid = 0.5 * (lo + hi)
        pair = pair_at(mid)
        if pair is not None:
            lo, x = mid, pair[0].real
        else:
            hi = mid
    return (0.5 * (lo + hi), x), angles


@pytest.mark.parametrize("family,n", wl.CURVE_MEMBERS)
def test_the_march_solves_no_lattice_node_below_the_floor(family, n, monkeypatch):
    # the floor rule leaves out the lattice nodes below 2*pi/3 - MARCH_STEP
    # and nothing else: the bracket, and so a_K and y*, keep their bits
    collision, old = _march_from_the_seed(family, n)
    lattice = [ge.ALPHA_SEED]
    while lattice[-1] + ge.MARCH_STEP < ge._WINDOW_LO - ge.MARCH_STEP:
        lattice.append(lattice[-1] + ge.MARCH_STEP)
    assert old[:len(lattice)] == lattice
    ge.clear_caches()
    new = _solved_angles(monkeypatch)
    ge.critical_angle(family, n)
    assert new == [ge.ALPHA_SEED] + old[len(lattice):]
    assert min(new[1:]) >= ge._WINDOW_LO - ge.MARCH_STEP
    assert ge._march_to_collision(family, n) == collision


def test_set_up_raises_when_the_first_solved_node_has_collided(monkeypatch):
    # a pair that is real at the first node past the skipped lattice has
    # collided below 2*pi/3, which no member does
    seed_roots = ge._moving_roots(*FIG8, ge.ALPHA_SEED)
    angles = []
    monkeypatch.setattr(ge, "_moving_roots", lambda family, n, alpha, *mode: (
        angles.append(alpha)
        or (seed_roots if alpha == ge.ALPHA_SEED else [-1.0 + 0j, 0.5 + 0j])))
    with pytest.raises(NotBracketedError, match="below 2"):
        ge._MemberGeometry(*FIG8)
    assert angles[0] == ge.ALPHA_SEED and len(angles) == 2
    assert ge._WINDOW_LO - ge.MARCH_STEP <= angles[1] < ge._WINDOW_LO


def test_cold_set_up_of_the_curve_members_solves_a_pinned_count(monkeypatch):
    # solving every march lattice node from the seed on took 367
    ge.clear_caches()
    angles = _solved_angles(monkeypatch)
    for family, n in wl.CURVE_MEMBERS:
        ge.critical_angle(family, n)
    assert len(angles) == 207


def test_c18_3_just_above_its_a_k_is_still_hyperbolic():
    # a_K of C(18,3) is 1.7e-9 below the exact value (ROADMAP item 12), so a
    # conjugate pair is still the least at a_K + 1e-10; the continued split
    # pair silently answered l_alpha = 0.622 there
    a_k = ge.critical_angle(KnotFamily.C2N3, 9)
    with pytest.raises(SelectionAmbiguityError, match="not a real pair"):
        ge.classify(ConeManifoldSpec(KnotFamily.C2N3, 9, a_k + 1e-10))


# a_K past 4 ulp of the exact double root (ROADMAP item 12)
_AK_OFF = {(KnotFamily.C2N3, 4): 8.9e-15, (KnotFamily.C2NMINUS2N, 4): 8.9e-15,
           (KnotFamily.C2NMINUS2N, -4): 8.9e-15, (KnotFamily.C2N2, 8): 1.65e-12,
           (KnotFamily.C2N2, -6): 4.13e-14}


@pytest.mark.parametrize("family,n", [
    pytest.param(f, n, marks=pytest.mark.xfail(
        strict=True, reason=f"ROADMAP item 12: a_K {_AK_OFF[f, n]:.3g} off"))
    if (f, n) in _AK_OFF else (f, n)
    for f, n in MEMBERS_4 + [(KnotFamily.C2N2, 8), (KnotFamily.C2N2, -6)]
])
def test_critical_angle_is_within_4_ulp_of_the_exact_double_root(family, n):
    exact = critical_angle_exact(family.value, n)
    assert abs(ge.critical_angle(family, n) - exact) <= 4 * math.ulp(exact)


MEMBERS_12 = [
    (family, n)
    for family in KnotFamily
    for n in range(-12, 13)
    if n != 0 and not is_torus_member(family, n)
]
# ROADMAP item 2: the double-root polish of c2n3 n=12 leaves its bracket
STILL_RAISE = {(KnotFamily.C2N3, 12)}


# (a_K, y*) of every resolving member, bit for bit: a_K is printed by the CLI
# and y* anchors every contour, so a change to the set-up march shows here
SET_UP = {
    (KnotFamily.C2N2, -12): (3.0339030452861024, -1.972874508204277),
    (KnotFamily.C2N2, -11): (3.0238779339957396, -1.9676060822961776),
    (KnotFamily.C2N2, -10): (3.011793717680157, -1.9606411585124912),
    (KnotFamily.C2N2, -9): (2.996942972120213, -1.951165846788154),
    (KnotFamily.C2N2, -8): (2.9782520273563975, -1.937813486452331),
    (KnotFamily.C2N2, -7): (2.9540084319003492, -1.9181456088816045),
    (KnotFamily.C2N2, -6): (2.9213020906794864, -1.8874629580601558),
    (KnotFamily.C2N2, -5): (2.8747536839035672, -1.8357460520498199),
    (KnotFamily.C2N2, -4): (2.803178746393895, -1.738453600919772),
    (KnotFamily.C2N2, -3): (2.678787547805059, -1.522005488471306),
    (KnotFamily.C2N2, -2): (2.4071698135544546, -0.8832035059135258),
    (KnotFamily.C2N2, 1): (2.0943951023931957, 2.7728957531590674e-17),
    (KnotFamily.C2N2, 2): (2.5741407781318397, -1.2990844010726703),
    (KnotFamily.C2N2, 3): (2.7506851520102793, -1.6541033200567838),
    (KnotFamily.C2N2, 4): (2.8432095326835336, -1.7954644410492588),
    (KnotFamily.C2N2, 5): (2.90025566693852, -1.8652366852606879),
    (KnotFamily.C2N2, 6): (2.938968128072271, -1.9046235108047798),
    (KnotFamily.C2N2, 7): (2.9669683930563395, -1.92898793432461),
    (KnotFamily.C2N2, 8): (2.98816502670468, -1.9450924856627547),
    (KnotFamily.C2N2, 9): (3.004770354274258, -1.9562855701857849),
    (KnotFamily.C2N2, 10): (3.0181309437074453, -1.9643773184813569),
    (KnotFamily.C2N2, 11): (3.0291135085191967, -1.9704152711046048),
    (KnotFamily.C2N2, 12): (3.0383012323145455, -1.9750395614726752),
    (KnotFamily.C2N3, -12): (3.0713470182889053, -1.9784335904509347),
    (KnotFamily.C2N3, -11): (3.0648601756360185, -1.9742769637836874),
    (KnotFamily.C2N3, -10): (3.05705192313996, -1.9687928718875185),
    (KnotFamily.C2N3, -9): (3.0474738508331285, -1.9613502762860549),
    (KnotFamily.C2N3, -8): (3.0354469364261965, -1.950893752300913),
    (KnotFamily.C2N3, -7): (3.0198936535112693, -1.9355494743832369),
    (KnotFamily.C2N3, -6): (2.998994995019931, -1.9117288954581306),
    (KnotFamily.C2N3, -5): (2.969419149039419, -1.8718429159825754),
    (KnotFamily.C2N3, -4): (2.9243319233357123, -1.7975069784633098),
    (KnotFamily.C2N3, -3): (2.847130608403818, -1.6344468911713754),
    (KnotFamily.C2N3, -2): (2.6840352539874024, -1.1636064363854701),
    (KnotFamily.C2N3, -1): (2.0943951023931957, 1.0),
    (KnotFamily.C2N3, 1): (2.4071698135544546, -0.13224188231190023),
    (KnotFamily.C2N3, 2): (2.755110647655862, -1.3873714331463964),
    (KnotFamily.C2N3, 3): (2.878258529608999, -1.705404659242026),
    (KnotFamily.C2N3, 4): (2.9417544067175725, -1.8281315231787898),
    (KnotFamily.C2N3, 5): (2.9805441786857485, -1.8876861065511168),
    (KnotFamily.C2N3, 6): (3.006711216349767, -1.9209487918153756),
    (KnotFamily.C2N3, 7): (3.0255585263590907, -1.9413751024520085),
    (KnotFamily.C2N3, 8): (3.0397820291106905, -1.9548049525291324),
    (KnotFamily.C2N3, 9): (3.050897984134941, -1.9641013228069328),
    (KnotFamily.C2N3, 10): (3.0598248311106877, -1.970800520271592),
    (KnotFamily.C2N3, 11): (3.067151711161037, -1.9757865326581003),
    (KnotFamily.C2NMINUS2N, -12): (3.1330077394514873, -1.9827706955028417),
    (KnotFamily.C2NMINUS2N, -11): (3.131371906424934, -1.9794742968146992),
    (KnotFamily.C2NMINUS2N, -10): (3.1292192030523864, -1.9751298351572595),
    (KnotFamily.C2NMINUS2N, -9): (3.1263061886817187, -1.969239237409301),
    (KnotFamily.C2NMINUS2N, -8): (3.1222269291861986, -1.9609677716465845),
    (KnotFamily.C2NMINUS2N, -7): (3.116262743346622, -1.9488273005176333),
    (KnotFamily.C2NMINUS2N, -6): (3.107040214180285, -1.9299456623255171),
    (KnotFamily.C2NMINUS2N, -5): (3.091655288535102, -1.8981591174299464),
    (KnotFamily.C2NMINUS2N, -4): (3.0630358528332473, -1.8380996992217484),
    (KnotFamily.C2NMINUS2N, -3): (2.999847664134955, -1.7014971228297513),
    (KnotFamily.C2NMINUS2N, -2): (2.808209937605886, -1.2599210498948732),
    (KnotFamily.C2NMINUS2N, 2): (2.808209937605886, -1.2599210498948732),
    (KnotFamily.C2NMINUS2N, 3): (2.999847664134955, -1.7014971228297513),
    (KnotFamily.C2NMINUS2N, 4): (3.0630358528332473, -1.8380996992217484),
    (KnotFamily.C2NMINUS2N, 5): (3.091655288535102, -1.8981591174299464),
    (KnotFamily.C2NMINUS2N, 6): (3.107040214180285, -1.9299456623255171),
    (KnotFamily.C2NMINUS2N, 7): (3.116262743346622, -1.9488273005176333),
    (KnotFamily.C2NMINUS2N, 8): (3.1222269291861986, -1.9609677716465845),
    (KnotFamily.C2NMINUS2N, 9): (3.1263061886817187, -1.969239237409301),
    (KnotFamily.C2NMINUS2N, 10): (3.1292192030523864, -1.9751298351572595),
    (KnotFamily.C2NMINUS2N, 11): (3.131371906424934, -1.9794742968146992),
    (KnotFamily.C2NMINUS2N, 12): (3.1330077394514873, -1.9827706955028417),
}


@pytest.mark.parametrize("family,n", MEMBERS_12)
def test_every_member_up_to_twelve_resolves_or_raises_a_typed_error(family, n):
    if (family, n) in STILL_RAISE:
        with pytest.raises(ConevolError):
            ge.critical_angle(family, n)
    else:
        a_k, y_star = ge.critical_angle(family, n), ge.collision_root(family, n)
        assert 2 * math.pi / 3 - 1e-6 <= a_k < math.pi
        assert (repr(a_k), repr(y_star)) == tuple(map(repr, SET_UP[family, n]))


# ------------------------------------- the non-real listing below a_K

def _non_real_angles(a_k):
    """The march's lattice nodes below a_K and a 16-point hyperbolic grid.

    The set-up solves only the lattice nodes past 2*pi/3 - MARCH_STEP; the
    rest stay here as coverage of the non-real listing."""
    march, a = [], ge.ALPHA_SEED
    while a < a_k:
        march.append(a)
        a += ge.MARCH_STEP
    return march + [(k + 0.5) / 16 * a_k for k in range(16)]


def _passing_real_start(eq, y):
    """An exactly real companion root whose residual passes RESIDUAL_TOL."""
    try:
        return y.imag == 0.0 and abs(eq.residual(y)) <= ry.RESIDUAL_TOL
    except (PoleError, OverflowError):
        return False


@pytest.mark.parametrize("family,n", MEMBERS_4 + [(KnotFamily.C2N2, 8)])
def test_non_real_listing_skips_only_the_polish_of_certified_real_roots(
        family, n, monkeypatch):
    a_k = ge.critical_angle(family, n)
    polished = []  # the passing real starts that _polish was called on
    polish = ry._polish

    def counted(eq, y):
        if _passing_real_start(eq, y):
            polished.append(y)
        return polish(eq, y)

    monkeypatch.setattr(ry, "_polish", counted)
    for alpha in _non_real_angles(a_k):
        eq = build_cone_equation(family, n, 1.0 / math.tan(0.5 * alpha))
        passing = [y for y in xp.p_roots(eq.moving_coeffs) if _passing_real_start(eq, y)]
        polished.clear()
        full = _non_real_records(eq, True)
        # the full listing polishes each of them, unless it raised first
        assert polished == passing or isinstance(full, str)
        polished.clear()
        # a root that fails its polish raises the same error in both listings
        assert _non_real_records(eq, False) == full
        assert polished == []
    ge.clear_caches()
    member = ge._member(family, n)  # the seed and march of the set-up
    for alpha in _non_real_angles(a_k):
        for lookup in (member.hyperbolic_root,  # and a hyperbolic panel of one:
                       lambda a: ge.classify(ConeManifoldSpec(family, n, a))):
            try:
                lookup(alpha)
            except NonConvergenceError:
                pass  # a real root beside y = 2 fails its polish (ROADMAP item 2)
    assert polished == []


def _non_real_records(eq, keep_real):
    """reprs of the records with |Im y| > COLLISION_IM_TOL, or the error raised."""
    try:
        return [repr(r) for r in ry.solve_cone_equation(eq, False, keep_real)
                if abs(r.y.imag) > ge.COLLISION_IM_TOL]
    except NonConvergenceError as err:
        return repr(err)


@pytest.mark.parametrize("n", (4, -4))
def test_a_failed_real_root_still_raises_in_the_non_real_listing(n):
    # the real root 2.000247... beside the y = 2 pole misses RESIDUAL_TOL
    # (ROADMAP item 2); the hyperbolic lookup does not select it, but it is
    # polished and checked as in the full listing
    with pytest.raises(NonConvergenceError, match="failed to polish"):
        ge.classify(ConeManifoldSpec(KnotFamily.C2NMINUS2N, n, 0.25))
