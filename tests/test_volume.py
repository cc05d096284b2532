"""Contour volumes, branch tracking, quadrature, and the Schlaefli oracle."""

import ast
import cmath
import inspect
import math
from pathlib import Path

import numpy as np
import pytest

from conevol import chebyshev, geometry
from conevol import volume as vo
from conevol.cli import main
from conevol.errors import (ConevolError, NonConvergenceError, PathBlockedError,
                            QuadratureError, SelectionAmbiguityError)
from conevol.families import ConeManifoldSpec, KnotFamily, is_torus_member
from conevol.geometry import Regime, classify, critical_angle
from conevol.representation import holonomy_data, longitude_eigenvalue, word_12

from oracles import figure_eight_volume

FIG8 = KnotFamily.C2N2


# the non-torus members with |n| <= 4, and C(16,2)
MEMBERS = [
    (family, n)
    for family in KnotFamily
    for n in (-4, -3, -2, -1, 1, 2, 3, 4)
    if not is_torus_member(family, n)
] + [(FIG8, 8)]


def spec8(alpha):
    return ConeManifoldSpec(FIG8, 1, alpha)


# ------------------------------------------------------------- quadrature

def test_adaptive_quad_exact_smooth():
    val, err = vo.adaptive_quad(lambda ts: [math.exp(t) for t in ts], 0.0, 1.0)
    assert val == pytest.approx(math.e - 1.0, abs=1e-13)
    assert err < 1e-9


def test_adaptive_quad_complex_and_log_singularity():
    val, _ = vo.adaptive_quad(lambda ts: [(1 + 2j) * t * t for t in ts], 0.0, 1.0)
    assert val == pytest.approx((1 + 2j) / 3, abs=1e-12)
    # integrable log singularity at an interior point
    val, _ = vo.adaptive_quad(
        lambda ts: [math.log(abs(t - 0.37) + 1e-300) for t in ts], 0.0, 1.0)
    exact = 0.37 * (math.log(0.37) - 1) + 0.63 * (math.log(0.63) - 1)
    assert val == pytest.approx(exact, abs=1e-8)


def test_adaptive_quad_subdivision_cap(monkeypatch):
    monkeypatch.setattr(vo, "QUAD_MAX_SUBDIV", 5)
    with pytest.raises(QuadratureError):
        vo.adaptive_quad(
            lambda ts: [math.log(abs(t - 0.3) + 1e-300) for t in ts], 0.0, 1.0,
            abs_tol=1e-14
        )


# ------------------------------------------------ singular set bookkeeping

def test_singular_points_are_actual_zeros():
    from conevol.chebyshev import eval_S, eval_f

    for n in (-3, -2, 2, 3):
        pts = vo.real_singular_points(n)
        assert 2.0 in pts
        for s in pts:
            if s == 2.0:
                continue
            vals = [
                abs(eval_S(n - 1, s)),
                abs(eval_S(n, s) - eval_S(n - 1, s)),
                abs(eval_S(n - 1, s) - eval_S(n - 2, s)),
            ]
            assert min(vals) < 1e-12
        with_f = vo.real_singular_points(n, include_f_zeros=True)
        for s in set(with_f) - set(pts):
            assert abs(eval_f(n, s)) < 1e-12


# ------------------------------------------------------------- hyperbolic

def test_complete_structure_limit_matches_lune_series():
    v1 = vo.compute_volume(spec8(0.01)).volume
    v2 = vo.compute_volume(spec8(0.005)).volume
    extrapolated = (4.0 * v2 - v1) / 3.0
    assert extrapolated == pytest.approx(figure_eight_volume(), abs=1e-6)


def test_hyperbolic_result_fields():
    r = vo.compute_volume(spec8(1.0), cross_check=True)
    assert r.regime is Regime.HYPERBOLIC
    assert r.volume > 0
    assert r.error_estimate < 1e-8
    assert r.imaginary_residual <= 1e-7
    assert r.volume == pytest.approx(r.schlafli_volume, abs=1e-6)


def test_volume_monotone_decreasing_hyperbolic():
    a_k = critical_angle(FIG8, 1)
    grid = np.arange(0.1, a_k - 0.02, 0.05)
    vols = [vo.compute_volume(spec8(float(a))).volume for a in grid]
    assert all(v1 > v2 for v1, v2 in zip(vols, vols[1:]))


def test_vanishing_at_transition_both_sides():
    a_k = critical_angle(FIG8, 1)
    assert vo.compute_volume(spec8(a_k - 1e-3)).volume < 1e-3
    assert vo.compute_volume(spec8(a_k + 1e-3)).volume < 1e-3


def test_path_independence():
    res = classify(spec8(1.2))
    v0 = vo.volume_hyperbolic(spec8(1.2), res.roots[0]).volume
    for shift in (0.1j, -0.1j):
        v = vo.volume_hyperbolic(spec8(1.2), res.roots[0], anchor_shift=shift).volume
        assert abs(v - v0) <= 1e-8


_CLASS_DEFECT = "ROADMAP Open item 5: shifted contours leave the homotopy class"


@pytest.mark.parametrize("family,n,fraction", [
    # the first closing shifted path differs from the unshifted class by an
    # imaginary period: QuadratureError with residual -/+1.761
    pytest.param(KnotFamily.C2N2, -4, 0.2, id="C(-8,2)", marks=pytest.mark.xfail(
        raises=QuadratureError, strict=True, reason=_CLASS_DEFECT)),
    # no shifted candidate closes
    pytest.param(KnotFamily.C2NMINUS2N, 2, 0.05, id="C(4,-4)", marks=pytest.mark.xfail(
        raises=PathBlockedError, strict=True, reason=_CLASS_DEFECT)),
])
def test_path_independence_at_small_angles(family, n, fraction):
    spec = ConeManifoldSpec(family, n, fraction * critical_angle(family, n))
    y0 = classify(spec).roots[0]
    v0 = vo.volume_hyperbolic(spec, y0).volume
    for shift in (0.1j, -0.1j):
        v = vo.volume_hyperbolic(spec, y0, anchor_shift=shift).volume
        assert abs(v - v0) <= 1e-9


def test_candidate_paths_are_clear_of_the_singular_set():
    # one V of C(16,2) at 0.95 a_K runs through the singular point x = 1.96158
    spec = ConeManifoldSpec(FIG8, 8, 0.95 * critical_angle(FIG8, 8))
    y0 = classify(spec).roots[0]
    reals = vo.real_singular_points(8, include_f_zeros=True)
    paths = list(vo._candidate_paths(FIG8, 8, vo._r_factors(FIG8, 8, spec.cot_half), y0))
    assert len(paths) > 1
    assert all(vo._path_clear(path, reals) for path in paths)


def test_integrand_vanishes_at_endpoints():
    spec = spec8(1.0)
    res = classify(spec)
    y0 = res.roots[0]
    path = vo._via(y0, complex(vo.collision_root(FIG8, 1)))
    A = spec.cot_half
    integrand = vo._Integrand(FIG8, 1, A, path, vo._r_factors(FIG8, 1, A))
    # the log factor is anchored to zero where the endpoints solve the equation
    for t in (1e-9, 2.0 - 1e-9):
        k = min(int(t), 1)
        y = path[k] + (path[k + 1] - path[k]) * (t - k)
        log_term = integrand.tracker.log_at(t, _log_argument(FIG8, 1, A, y))
        assert abs(log_term) < 1e-6


def test_spherical_volume_of_the_reversed_pair_raises():
    # the longitude-phase order of the pair is the one owner of the sign
    spec = ConeManifoldSpec(KnotFamily.C2N3, 2, 2.9)
    y_plus, y_minus = classify(spec).roots
    assert vo.volume_spherical(spec, y_plus, y_minus).volume > 0.0
    with pytest.raises(QuadratureError):
        vo.volume_spherical(spec, y_minus, y_plus)


# ------------------------------------------------------- exact class filter

def _log_argument(family, n, A, y):
    """R = (f^2 + A^2) / ((1 + A^2) g) from the recurrence kernel."""
    fv, gv, _, _ = chebyshev.kernel(family, n)(y, 1, 1)
    return (fv * fv + A * A) / ((1.0 + A * A) * gv)


@pytest.mark.parametrize("family", list(KnotFamily), ids=lambda f: f.value)
def test_log_argument_is_a_constant_times_its_factor_product(family):
    # R = c * prod (y - a)^e over the zeros of N^2 + A^2 D^2 and the exact
    # cosines of families.R_EXPONENTS: the premise of the exact winding filter
    # and of every node's branch
    rng = np.random.default_rng(12)
    ys = [complex(x, s * h) for x, s, h in zip(
        rng.uniform(-2.5, 2.5, 12), rng.choice((-1.0, 1.0), 12),
        rng.uniform(0.05, 1.0, 12))]
    for n in [k for m in range(1, 13) for k in (m, -m)]:
        for alpha in (0.05, 0.3, 1.5, 2.5, 3.0, 3.1):
            A = 1.0 / math.tan(0.5 * alpha)
            factors = vo._r_factors(family, n, A)
            c = []
            for y in ys:
                prod = 1.0
                for a, e in factors:
                    prod *= (y - a) ** e
                c.append(_log_argument(family, n, A, y) / prod)
            spread = max(abs(v - c[0]) for v in c) / abs(c[0])
            assert spread <= 1e-9, (n, alpha, spread)


def _scan(family, n, A, y0, shift, monkeypatch):
    """Every candidate of the generator with the exact class filter off."""
    with monkeypatch.context() as m:
        m.setattr(vo, "_closes", lambda path, factors: True)
        return list(vo._candidate_paths(family, n, vo._r_factors(family, n, A), y0, shift))


def _tracker_closes(family, n, A, path):
    try:
        tracker = vo._Integrand(family, n, A, path, vo._r_factors(family, n, A)).tracker
    except QuadratureError:
        return False
    return abs(tracker.unwrapped[-1]) <= 1e-5


@pytest.mark.parametrize("family,n", MEMBERS, ids=lambda v: str(v))
def test_filter_yields_first_the_path_the_sampled_scan_accepts(family, n,
                                                                monkeypatch):
    a_k = critical_angle(family, n)
    for fraction in (0.05, 0.2, 0.5, 0.8, 0.95):
        spec = ConeManifoldSpec(family, n, fraction * a_k)
        A, y0 = spec.cot_half, classify(spec).roots[0]
        for shift in (0.0, 0.1j, -0.1j):
            # None where no candidate closes: the shifted C(2n,-2n) cases of
            # test_path_independence_at_small_angles
            accepted = next((path for path in _scan(family, n, A, y0, shift, monkeypatch)
                             if _tracker_closes(family, n, A, path)), None)
            factors = vo._r_factors(family, n, A)
            first = next(vo._candidate_paths(family, n, factors, y0, shift), None)
            assert first == accepted, (fraction, shift)


def test_twice_winding_v_of_c_minus8_3_is_not_yielded(monkeypatch):
    # the sampled tracker closes on conj(y0) -> 0.88268343236509 -> y0, but
    # R winds twice along it
    family, n = KnotFamily.C2N3, -4
    spec = ConeManifoldSpec(family, n, 0.05 * critical_angle(family, n))
    A, y0 = spec.cot_half, classify(spec).roots[0]
    v = vo._via(y0, complex(0.88268343236509))
    assert v in _scan(family, n, A, y0, 0.0, monkeypatch)
    # a dense unwrap of R, 20,000 steps a leg, counts the two turns
    turn = 0.0
    for p, q in zip(v, v[1:]):
        phases = [cmath.phase(_log_argument(family, n, A, p + (q - p) * (k / 20000)))
                  for k in range(20001)]
        turn += float(np.unwrap(phases)[-1] - phases[0])
    assert round(turn / (2.0 * math.pi)) == 2
    factors = vo._r_factors(family, n, A)
    assert not vo._closes(v, factors)
    assert v not in list(vo._candidate_paths(family, n, factors, y0))


def test_every_yielded_path_of_c_minus8_3_has_a_closing_tracker():
    # the sampled tracker missed a full turn on the V through 0.6052 +/- 0.1i,
    # whose exact winding is 0
    family, n = KnotFamily.C2N3, -4
    spec = ConeManifoldSpec(family, n, 0.05 * critical_angle(family, n))
    A, y0 = spec.cot_half, classify(spec).roots[0]
    for shift in (0.1j, -0.1j):
        for path in vo._candidate_paths(family, n, vo._r_factors(family, n, A), y0, shift):
            assert _tracker_closes(family, n, A, path), (shift, path)


@pytest.mark.parametrize("family,n", [
    (FIG8, 1), (KnotFamily.C2N3, 2), (KnotFamily.C2NMINUS2N, 4), (FIG8, 8),
], ids=lambda v: str(v))
def test_one_branch_tracker_per_hyperbolic_volume(family, n, monkeypatch):
    # the four sweep-curves members at 16 hyperbolic angles
    a_k = critical_angle(family, n)
    specs = [ConeManifoldSpec(family, n, (k + 0.5) / 16 * a_k) for k in range(16)]
    roots = [classify(spec).roots[0] for spec in specs]
    trackers = []
    init = vo.BranchTracker.__init__

    def counted_init(self, path, factors):
        trackers[-1] += 1
        init(self, path, factors)

    monkeypatch.setattr(vo.BranchTracker, "__init__", counted_init)
    for spec, y0 in zip(specs, roots):
        trackers.append(0)
        vo.volume_hyperbolic(spec, y0)
    assert trackers == [1] * 16


# ----------------------------------------------------------- branch tracker

def _tracked_paths():
    """(family, n, A, path): every candidate _candidate_paths yields for MEMBERS
    at 0.05, 0.2 and 0.8 a_K with shift 0 and +/-0.1i, and the spherical
    path at two spherical angles per member."""
    for family, n in MEMBERS:
        a_k = critical_angle(family, n)
        for fraction in (0.05, 0.2, 0.8):
            spec = ConeManifoldSpec(family, n, fraction * a_k)
            A, y0 = spec.cot_half, classify(spec).roots[0]
            factors = vo._r_factors(family, n, A)
            for shift in (0.0, 0.1j, -0.1j):
                for path in vo._candidate_paths(family, n, factors, y0, shift):
                    yield family, n, A, path
        for fraction in (0.3, 0.7):
            spec = ConeManifoldSpec(family, n, a_k + fraction * (math.pi - a_k))
            yield family, n, spec.cot_half, vo.spherical_path(n, *classify(spec).roots)


def _winding(path, factors):
    """The sum _closes rounds, leg by leg."""
    turn = 0.0
    for p, q in zip(path, path[1:]):
        turn += sum(vo._leg_phases(p, q, factors))
    return turn


def test_tracked_arg_is_within_the_proven_bound_of_the_factor_continuation():
    # at 2,001 points a leg the interpolated arg is within 1.5 of R's arg
    # continued per factor, so each node's 2*pi*k is the right one; the last
    # sample is the exact winding
    u = np.linspace(0.0, 1.0, 2001)
    paths = spherical = 0
    for family, n, A, path in _tracked_paths():
        factors = vo._r_factors(family, n, A)
        tracker = vo.BranchTracker(path, factors)
        base = 0.0
        for k, (p, q) in enumerate(zip(path, path[1:])):
            y = p + (q - p) * u
            turn = sum(e * np.angle((y - a) / (p - a)) for a, e in factors)
            est = np.interp(k + u, tracker.ts, tracker.unwrapped)
            gap = float(np.max(np.abs(est - (base + turn))))
            assert gap <= 1.5 + 1e-12, (family, n, path, k, gap)
            base += float(turn[-1])
        winding = _winding(path, factors)
        assert tracker.unwrapped[-1] == winding
        assert abs(winding - base) <= 1e-9
        assert vo._closes(path, factors), path
        paths += 1
        spherical += path[0].imag == 0.0
    assert spherical == 2 * len(MEMBERS) and paths > 10 * len(MEMBERS)


def test_the_sample_budget_binds_exactly(monkeypatch):
    # a zero 1e-9 off the middle of the leg turns by pi within a few 1e-9 of it
    path, factors = (0j, 1 + 0j), [(0.5 + 1e-9j, 1)]
    count = len(vo.BranchTracker(path, factors).ts)
    assert count > 50
    monkeypatch.setattr(vo.BranchTracker, "MAX_SAMPLES", count)
    assert len(vo.BranchTracker(path, factors).ts) == count
    monkeypatch.setattr(vo.BranchTracker, "MAX_SAMPLES", count - 1)
    with pytest.raises(QuadratureError, match="sample budget"):
        vo.BranchTracker(path, factors)


def test_a_factor_on_the_path_raises():
    # R's arg jumps by pi across a zero on the leg: no bisection bounds it
    with pytest.raises(QuadratureError, match="lies on the path"):
        vo.BranchTracker((0j, 1 + 0j), [(0.5 + 0j, 1)])


def test_r_branch_has_one_source_the_factor_list():
    # the tracker and the class filter call no Chebyshev evaluation and no
    # kernel: R's branch comes from the factor list alone
    evaluators = {name for name, obj in vars(chebyshev).items()
                  if callable(obj) and getattr(obj, "__module__", None) == chebyshev.__name__}
    assert {"kernel", "eval_S_pair"} <= evaluators
    for fn in (vo.BranchTracker, vo._closes, vo._leg_phases):
        tree = ast.parse(inspect.getsource(fn))
        called = {getattr(node.func, "attr", getattr(node.func, "id", None))
                  for node in ast.walk(tree) if isinstance(node, ast.Call)}
        named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert not (called | named) & (evaluators | {"chebyshev", "fg", "_Integrand"}), fn
        assert "phase" in called or "_leg_phases" in called, fn


# -------------------------------------------------------------- spherical

def test_fig8_orbifold_volume_at_pi():
    # the angle-pi cone manifold is the quotient of the lens space L(5,2)
    # with its round metric: volume pi^2 / 5
    r = vo.compute_volume(spec8(math.pi))
    assert r.volume == pytest.approx(math.pi**2 / 5.0, abs=1e-12)


def test_spherical_symmetry():
    for alpha in (2.2, 2.6, 3.0):
        v1 = vo.compute_volume(spec8(alpha)).volume
        v2 = vo.compute_volume(spec8(2 * math.pi - alpha)).volume
        assert abs(v1 - v2) <= 1e-8


def test_spherical_derivative_sign_above_transition():
    a_k = critical_angle(FIG8, 1)
    h = 1e-4
    base = a_k + 0.05
    fd = (
        vo.compute_volume(spec8(base + h)).volume
        - vo.compute_volume(spec8(base - h)).volume
    ) / (2 * h)
    assert fd > 0


def test_schlafli_derivative_both_regimes():
    h = 1e-4
    for alpha, sign in ((1.2, -1.0), (2.6, +1.0)):
        r = vo.compute_volume(spec8(alpha))
        fd = (
            vo.compute_volume(spec8(alpha + h)).volume
            - vo.compute_volume(spec8(alpha - h)).volume
        ) / (2 * h)
        assert fd == pytest.approx(sign * r.l_alpha / 2.0, rel=1e-4)


def test_spherical_contour_must_close(monkeypatch):
    init = vo.BranchTracker.__init__

    def unclosed(self, *args, **kwargs):
        # a repeated last sample whose log ends at 2*pi*i; no node reads it,
        # so only the closure test can see that the path is in the wrong class
        init(self, *args, **kwargs)
        self.ts.append(self.ts[-1])
        self.unwrapped.append(self.unwrapped[-1] + 2.0 * math.pi)

    monkeypatch.setattr(vo.BranchTracker, "__init__", unclosed)
    with pytest.raises(PathBlockedError):
        vo.compute_volume(spec8(2.6))


@pytest.mark.parametrize("family,n", MEMBERS, ids=lambda v: str(v))
def test_spherical_paths_have_exact_winding_zero(family, n):
    # a spherical path is straight legs too, so R's winding along it is exact
    a_k, top = critical_angle(family, n), math.pi - vo.PI_WINDOW
    for i in range(1, 61):
        spec = ConeManifoldSpec(family, n, a_k + (top - a_k) * i / 61)
        path = vo.spherical_path(n, *classify(spec).roots)
        factors = vo._r_factors(family, n, spec.cot_half)
        assert vo._closes(path, factors), spec.alpha


@pytest.mark.parametrize("family,n", [(FIG8, -2), (KnotFamily.C2N3, -1)],
                         ids=["C(-4,2)", "C(-2,3)"])
def test_spherical_detour_volumes_match_schlafli(family, n):
    # the only resolving members with |n| <= 12 whose spherical pair has a
    # singular point between them: the contour takes one V over it
    a_k = critical_angle(family, n)
    for fraction in (0.2, 0.35, 0.5, 0.65, 0.8):
        spec = ConeManifoldSpec(family, n, a_k + fraction * (math.pi - a_k))
        result = vo.volume_spherical(spec, *classify(spec).roots)
        assert result.diagnostics["deformations"] == 1, fraction
        assert abs(result.volume - vo.volume_schlafli(spec)) <= 1e-12, fraction


def test_every_path_is_a_tuple_of_complex_vertices():
    paths = []
    for family, n in [(FIG8, -2), (KnotFamily.C2N3, -1), (FIG8, 8)]:
        a_k = critical_angle(family, n)
        spec = ConeManifoldSpec(family, n, a_k + 0.5 * (math.pi - a_k))
        paths.append(vo.spherical_path(n, *classify(spec).roots))
    for family, n in [(FIG8, 8), (KnotFamily.C2N3, -4)]:
        for fraction in (0.05, 0.5, 0.95):
            spec = ConeManifoldSpec(family, n, fraction * critical_angle(family, n))
            y0 = classify(spec).roots[0]
            for shift in (0.0, 0.1j, -0.1j):
                factors = vo._r_factors(family, n, spec.cot_half)
                paths.extend(vo._candidate_paths(family, n, factors, y0, shift))
    assert any(z.imag != 0.0 for z in paths[0])
    for path in paths:
        assert type(path) is tuple and len(path) >= 2
        assert all(type(z) is complex for z in path), path


def test_a_path_not_starting_at_the_conjugate_root_raises():
    # R = 1 at conj(y0); a start 1e-3 off it fails the anchored-start check
    # before any branch is tracked
    spec = ConeManifoldSpec(FIG8, 1, 1.0)
    y0 = classify(spec).roots[0]
    factors = vo._r_factors(spec.family, spec.n, spec.cot_half)
    path = next(vo._candidate_paths(spec.family, spec.n, factors, y0))
    assert vo._contour(spec, path, 1j, factors)[0].real > 0.0
    for offset in (1e-3, 1e-3j):
        with pytest.raises(PathBlockedError, match="not anchored"):
            vo._contour(spec, (path[0] + offset, *path[1:]), 1j, factors)


def test_hyperbolic_tracker_veto_raises_instead_of_taking_another_path(monkeypatch):
    # the first path of the exact class is the only one integrated: a veto by
    # the tracker's closure check raises, it does not move on to a path of
    # another class
    spec = ConeManifoldSpec(KnotFamily.C2N3, 2, 0.5 * critical_angle(KnotFamily.C2N3, 2))
    y0 = classify(spec).roots[0]
    factors = vo._r_factors(spec.family, spec.n, spec.cot_half)
    assert len(list(vo._candidate_paths(spec.family, spec.n, factors, y0))) > 1
    trackers = []
    init = vo.BranchTracker.__init__

    def unclosed(self, *args, **kwargs):
        trackers.append(self)
        init(self, *args, **kwargs)
        self.ts.append(self.ts[-1])
        self.unwrapped.append(self.unwrapped[-1] + 2.0 * math.pi)

    monkeypatch.setattr(vo.BranchTracker, "__init__", unclosed)
    with pytest.raises(PathBlockedError):
        vo.volume_hyperbolic(spec, y0)
    assert len(trackers) == 1


# ------------------------------------------------------- singular length

@pytest.mark.parametrize("family,n", MEMBERS, ids=lambda v: str(v))
def test_classify_owns_the_singular_length(family, n):
    a_k = critical_angle(family, n)
    hyperbolic = [f * a_k for f in (0.2, 0.5, 0.8)]
    spherical = [a_k + 0.3 * (math.pi - a_k), math.pi + 0.4 * (math.pi - a_k)]
    for alpha in hyperbolic + spherical:
        spec = ConeManifoldSpec(family, n, alpha)
        res = classify(spec)
        if alpha < a_k:
            expected = holonomy_data(family, n, alpha, res.roots[0]).real_length
        else:
            expected = geometry.spherical_length(family, n, alpha)
        assert repr(res.l_alpha) == repr(expected)
        assert repr(vo.compute_volume(spec).l_alpha) == repr(res.l_alpha)


@pytest.mark.parametrize("family,n", MEMBERS, ids=lambda v: str(v))
def test_longitude_eigenvalue_is_the_word_entry_ratio(family, n):
    # one word evaluation at m serves the residual check and W_12
    a_k = critical_angle(family, n)
    for alpha in (0.5 * a_k, a_k + 0.3 * (math.pi - a_k)):
        m = cmath.exp(0.5j * alpha)
        for y in classify(ConeManifoldSpec(family, n, alpha)).roots:
            ratio = -word_12(family, n, 1.0 / m, y) / word_12(family, n, m, y)
            assert repr(longitude_eigenvalue(family, n, m, y)) == repr(ratio)


def test_spherical_volume_looks_up_the_pair_once(monkeypatch):
    critical_angle(FIG8, 1)
    calls = []
    solve = geometry._moving_roots

    def counted(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(geometry, "_moving_roots", counted)
    r = vo.compute_volume(spec8(2.6))
    assert r.regime is Regime.SPHERICAL
    assert len(calls) == 1


def test_volume_just_above_a_k_of_c16_3():
    # the continued split pair leaked a raw ValueError here ("longitude
    # eigenvalue needs a representation point")
    a_k = critical_angle(KnotFamily.C2N3, 8)
    vol = vo.compute_volume(ConeManifoldSpec(KnotFamily.C2N3, 8, a_k + 1e-8)).volume
    assert vol == pytest.approx(5.6e-12, rel=0.01)


@pytest.mark.xfail(strict=True, raises=SelectionAmbiguityError,
                   reason="ROADMAP items 2 and 12: a Schlaefli node 3.6e-14 below a_K "
                          "solves the geometric pair as two real roots")
def test_volume_just_below_a_k_of_c16_2():
    a_k = critical_angle(KnotFamily.C2N2, 8)
    vol = vo.compute_volume(ConeManifoldSpec(KnotFamily.C2N2, 8, a_k - 1e-9)).volume
    assert 0.0 < vol < 1e-10


@pytest.mark.parametrize("family, n", [(FIG8, 3), (KnotFamily.C2NMINUS2N, 2)],
                         ids=["C(6,2)", "C(4,-4)"])
def test_volume_a_hair_above_a_k(family, n):
    a_k = critical_angle(family, n)
    vol = vo.compute_volume(ConeManifoldSpec(family, n, a_k + 1e-14)).volume
    assert 0.0 < vol < 1e-18


@pytest.mark.xfail(strict=True, raises=SelectionAmbiguityError,
                   reason="ROADMAP items 2 and 12: a Schlaefli node between the true "
                          "collision and the bisected a_K has no non-real root")
@pytest.mark.parametrize("family, n", [(FIG8, 3), (KnotFamily.C2NMINUS2N, 2)],
                         ids=["C(6,2)", "C(4,-4)"])
def test_volume_a_hair_below_a_k(family, n):
    a_k = critical_angle(family, n)
    vol = vo.compute_volume(ConeManifoldSpec(family, n, a_k - 1e-14)).volume
    assert 0.0 < vol < 1e-18


def test_contour_layer_imports_nothing_from_representation():
    # the singular length comes from geometry; volume never builds a holonomy
    tree = ast.parse(Path(vo.__file__).read_text())
    modules = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            modules.append(node.module or "")
            if node.module in (None, "conevol"):
                modules.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            modules.extend(alias.name for alias in node.names)
    assert "geometry" in modules
    assert not [m for m in modules if "representation" in m.split(".")]


def test_contour_layer_imports_no_length_function_from_geometry():
    # classify is the one source of l_alpha, the Schlaefli nodes' included
    tree = ast.parse(Path(vo.__file__).read_text())
    names = [alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "geometry"
             for alias in node.names]
    assert "classify" in names
    assert not [name for name in names if "length" in name]


# ------------------------------------------------------------- dispatch

def test_out_of_range_raises():
    a_k = critical_angle(FIG8, 1)
    with pytest.raises(ValueError):
        vo.compute_volume(spec8(2 * math.pi - a_k + 0.05))


def test_schlafli_beyond_the_band_raises():
    # it used to integrate the hyperbolic length up to 2*pi - 6.2 and return
    # 2.0238973934903703, the hyperbolic volume at that folded angle
    with pytest.raises(ValueError):
        vo.volume_schlafli(spec8(6.2))


ROADMAP_MEMBERS = [(FIG8, 1), (KnotFamily.C2N3, 2), (KnotFamily.C2NMINUS2N, 4), (FIG8, 8)]


@pytest.mark.parametrize("family,n", ROADMAP_MEMBERS, ids=lambda v: str(v))
def test_schlafli_at_the_end_of_the_band_raises(family, n):
    # classify calls 2*pi - a_K out of range; the folded angle a_K gave 0.0
    spec = ConeManifoldSpec(family, n, 2 * math.pi - critical_angle(family, n))
    assert classify(spec).regime is Regime.OUT_OF_RANGE
    with pytest.raises(ValueError):
        vo.volume_schlafli(spec)


def _spherical_length(spec):
    return geometry.spherical_length(spec.family, spec.n, spec.alpha)


ENTRY_POINTS = [
    (geometry.select_hyperbolic_root, {Regime.HYPERBOLIC}),
    (geometry.select_spherical_roots, {Regime.SPHERICAL}),
    (_spherical_length, {Regime.SPHERICAL}),
    (vo.volume_schlafli, {Regime.HYPERBOLIC, Regime.EUCLIDEAN, Regime.SPHERICAL}),
]


@pytest.mark.parametrize("family,n", ROADMAP_MEMBERS, ids=lambda v: str(v))
def test_entry_points_raise_value_error_exactly_outside_their_regimes(family, n):
    a_k = critical_angle(family, n)
    edge = 2 * math.pi - a_k
    for alpha in (a_k - 1e-9, a_k, a_k + 1e-9, edge - 1e-9, edge, edge + 1e-9):
        spec = ConeManifoldSpec(family, n, alpha)
        regime = geometry.regime_of(alpha, a_k)
        try:
            assert classify(spec).regime is regime
        except ConevolError:
            pass  # the root tracker may fail next to a_K; the rule still holds
        for entry, serves in ENTRY_POINTS:
            try:
                entry(spec)
            except ValueError:
                assert regime not in serves, (entry.__name__, alpha)
            except ConevolError:
                assert regime in serves, (entry.__name__, alpha)
            else:
                assert regime in serves, (entry.__name__, alpha)


@pytest.mark.parametrize("side", [-1.0, 1.0])
def test_schlafli_node_landing_on_a_k_has_zero_length(side):
    # within 1e-14 of a_K some nodes round onto a_K, which classify calls
    # Euclidean (no l_alpha); their length is the limit 0, not a raw error
    alpha = critical_angle(FIG8, 1) + side * 1e-14
    assert 0.0 <= vo.volume_schlafli(spec8(alpha)) < 1e-18


# volume_schlafli recorded before each Gauss panel's nodes were solved as one
# stack (float.hex, or the typed error): (family, n, alpha, value or error)
SCHLAFLI_PINS = [
    (FIG8, 1, "0x1.41b2f769cf0e1p+0", "0x1.dfd993ad91225p-1"),  # 0.6 a_K
    (FIG8, 1, "0x1.5c81e15d4af9ep+1", "0x1.b5f32cab17cc1p-1"),  # spherical
    (FIG8, 1, "0x1.0c152382d734fp+1", "0x1.d0c44b57fe2c3p-70"),  # a_K - 1e-14
    (FIG8, 1, "0x1.0c152382d737dp+1", "0x1.e13aa8ed94e69p-70"),  # a_K + 1e-14
    (FIG8, 1, "0x1.921fb54442d18p+1", "0x1.f952e0f96d62dp+0"),  # pi
    (FIG8, 1, "0x1.eff3e818748aep+1", "0x1.24380b4ca5beep-2"),  # past pi, folded
    (KnotFamily.C2N3, 2, "0x1.a72f5bdd20407p+0", "0x1.3660a209a69e7p+1"),  # 3 panels
    (KnotFamily.C2N3, -2, "0x1.9c448f864fea4p+0", "0x1.1c82ec83cc91bp+1"),
    (KnotFamily.C2NMINUS2N, -2, "0x1.810dfe7fd20c6p+1", "0x1.2e39df5874807p-2"),
    (KnotFamily.C2NMINUS2N, 4, "0x1.0000000000000p-2", "0x1.aca1e34fb7521p+2"),  # 9 panels
    # C(8,-8) below its pole crossing: a real root beside y = 2 (ROADMAP item 2)
    (KnotFamily.C2NMINUS2N, 4, "0x1.a66f7fb6522a4p-3", (NonConvergenceError, "failed to polish")),
    # C(16,2) at a_K - 1e-9: a node past the bisected a_K (ROADMAP item 12)
    (FIG8, 8, "0x1.7e7c310a39eedp+1", (SelectionAmbiguityError, "no non-real root")),
]


@pytest.mark.parametrize("family, n, alpha, want", SCHLAFLI_PINS)
def test_schlafli_values_are_pinned_bit_for_bit(family, n, alpha, want):
    spec = ConeManifoldSpec(family, n, float.fromhex(alpha))
    if isinstance(want, str):
        assert vo.volume_schlafli(spec).hex() == want
    else:
        with pytest.raises(want[0], match=want[1]):
            vo.volume_schlafli(spec)


def test_euclidean_volume_zero():
    a_k = critical_angle(FIG8, 1)
    r = vo.compute_volume(spec8(a_k))
    assert r.regime is Regime.EUCLIDEAN
    assert r.volume == 0.0


def test_near_transition_regularization_flag():
    a_k = critical_angle(FIG8, 1)
    r = vo.compute_volume(spec8(a_k + 5e-4))
    assert r.diagnostics.get("regularized")
    assert 0 < r.volume < 1e-3


def test_cross_check_in_the_transition_window_runs_schlafli_once(monkeypatch):
    calls = []
    schlafli = vo.volume_schlafli

    def counted(spec, *args, **kwargs):
        calls.append(spec.alpha)
        return schlafli(spec, *args, **kwargs)

    monkeypatch.setattr(vo, "volume_schlafli", counted)
    r = vo.compute_volume(spec8(critical_angle(FIG8, 1) - 5e-4), cross_check=True)
    assert r.diagnostics.get("regularized")
    assert len(calls) == 1
    assert r.schlafli_volume == r.volume


def test_cross_check_all_families():
    for family, n in ((KnotFamily.C2N3, 1), (KnotFamily.C2NMINUS2N, 2),
                      (KnotFamily.C2N2, -2)):
        a_k = critical_angle(family, n)
        for alpha in (0.9, a_k + 0.25):
            r = vo.compute_volume(
                ConeManifoldSpec(family, n, alpha), cross_check=True
            )
            assert r.volume == pytest.approx(r.schlafli_volume, abs=1e-6)
            assert r.volume > 0


def test_staple_contour_member():
    # C(2n,-2n) pinches the contour against a double zero of the log argument;
    # the threading path must still reproduce the Schlaefli value
    spec = ConeManifoldSpec(KnotFamily.C2NMINUS2N, 2, 0.5)
    r = vo.compute_volume(spec, cross_check=True)
    assert r.volume == pytest.approx(r.schlafli_volume, abs=1e-6)
    assert r.imaginary_residual <= 1e-7


# ------------------------------------------- hot-loop scalars and work counts

@pytest.mark.parametrize("offset, regime", [
    (-0.5, Regime.HYPERBOLIC),
    (0.25, Regime.SPHERICAL),
    (-5e-4, Regime.HYPERBOLIC),  # inside the transition window: Schlaefli
    (5e-4, Regime.SPHERICAL),
    (0.0, Regime.EUCLIDEAN),
], ids=["hyperbolic", "spherical", "window-hyperbolic", "window-spherical",
        "euclidean"])
def test_result_numbers_are_python_floats(offset, regime):
    r = vo.compute_volume(spec8(critical_angle(FIG8, 1) + offset), cross_check=True)
    assert r.regime is regime
    numbers = [r.volume, r.error_estimate, r.imaginary_residual]
    if regime is not Regime.EUCLIDEAN:
        numbers.append(r.schlafli_volume)
    assert [type(x) for x in numbers] == [float] * len(numbers)


C43 = ConeManifoldSpec(KnotFamily.C2N3, 2, math.pi)  # spherical


def test_hot_loop_runs_on_python_scalars(monkeypatch):
    t_types, y_types = set(), set()
    factory = vo.kernel

    def typed_kernel(*key):
        fg = factory(*key)

        def typed_fg(y, *modes):
            y_types.add(type(y))
            return fg(y, *modes)

        return typed_fg

    def typed(method):
        def wrapper(self, t):
            t_types.add(type(t))
            return method(self, t)

        return wrapper

    monkeypatch.setattr(vo, "kernel", typed_kernel)
    monkeypatch.setattr(vo._Integrand, "__call__", typed(vo._Integrand.__call__))
    hyperbolic = ConeManifoldSpec(FIG8, 8, 0.6 * critical_angle(FIG8, 8))
    for spec, regime in ((hyperbolic, Regime.HYPERBOLIC), (C43, Regime.SPHERICAL)):
        assert vo.compute_volume(spec).regime is regime
    assert t_types == {float}
    assert y_types == {complex}


# every member the node pin covers: the three families at n = +/-1 ... +/-4 and 8
NODE_MEMBERS = [
    (family, n)
    for family in KnotFamily
    for n in (-4, -3, -2, -1, 1, 2, 3, 4, 8)
    if not is_torus_member(family, n)
]


def _node_paths(family, n):
    """(A, path) for an anchored V, a staple and a spherical path with a detour."""
    a_k = critical_angle(family, n)
    hyp = ConeManifoldSpec(family, n, 0.5 * a_k)
    y0 = classify(hyp).roots[0]
    reals = vo.real_singular_points(n, include_f_zeros=True)
    x = vo._nudge_anchor(vo.collision_root(family, n), reals, 2.0 * vo.R_EXCL)
    h = math.copysign(0.5, y0.imag)
    sph = ConeManifoldSpec(family, n, a_k + 0.5 * (math.pi - a_k))
    y_plus = classify(sph).roots[0]
    # from y+ across its nearest singular point: R = 1 anchors the start
    s = min(vo.real_singular_points(n), key=lambda v: abs(v - y_plus))
    detour_path = vo.spherical_path(n, y_plus, s + math.copysign(0.05, s - y_plus))
    assert any(z.imag != 0.0 for z in detour_path)
    return [(hyp.cot_half, vo._via(y0, complex(x))),
            (hyp.cot_half, vo._via(y0, complex(x, -h), complex(x, h))),
            (sph.cot_half, detour_path)]


@pytest.mark.parametrize("family,n", NODE_MEMBERS, ids=lambda v: str(v))
def test_integrand_nodes_equal_the_written_out_expression(family, n):
    # the per-path node closure, bit for bit, against the integrand written
    # out: R from the kernel, the log from tracker.log_at, on leg p -> q
    # y = p + (q - p)*u and dy/du = q - p
    for A, path in _node_paths(family, n):
        integrand = vo._Integrand(family, n, A, path, vo._r_factors(family, n, A))
        legs = len(path) - 1
        # the GL15 and GL7 nodes of each leg's first adaptive panel, and the
        # path's two ends, where the leg and bracket indices clamp
        nodes = [k + 0.5 + 0.5 * x for k in range(legs)
                 for x in vo._GL15[0] + vo._GL7[0]]
        for t in nodes + [0.0, float(legs)]:
            k = min(int(t), legs - 1)
            p, q, u = path[k], path[k + 1], t - k
            fv, gv, fp, _ = chebyshev.kernel(family, n)(p + (q - p) * u, 2, 2)
            val = (fv * fv + A * A) / ((1.0 + A * A) * gv)
            want = (integrand.tracker.log_at(t, val) * fp / (fv * fv - 1.0)
                    * (q - p))
            assert repr(integrand(t)) == repr(want)


@pytest.mark.parametrize("spec, evals, trackers, samples", [
    (ConeManifoldSpec(FIG8, 8, 0.6 * critical_angle(FIG8, 8)), 294, 1, 11),
    (ConeManifoldSpec(KnotFamily.C2NMINUS2N, 4,
                      0.6 * critical_angle(KnotFamily.C2NMINUS2N, 4)), 651, 1, 19),
    (C43, 1407, 1, 30),
], ids=["C(16,2)", "C(8,-8)", "C(4,3)"])
def test_contour_work_counts_are_pinned(spec, evals, trackers, samples, monkeypatch):
    # integrand evaluations must not fall: a faster contour must come from
    # cheaper evaluations, not from fewer; the exact class filter leaves one
    # branch tracker per hyperbolic volume
    counts = {"evals": 0, "trackers": 0, "samples": 0}
    call, init = vo._Integrand.__call__, vo.BranchTracker.__init__

    def counted_call(self, t):
        counts["evals"] += 1
        return call(self, t)

    def counted_init(self, path, factors):
        counts["trackers"] += 1
        init(self, path, factors)
        counts["samples"] += len(self.ts)

    monkeypatch.setattr(vo._Integrand, "__call__", counted_call)
    monkeypatch.setattr(vo.BranchTracker, "__init__", counted_init)
    # the contour itself: at pi, compute_volume takes the Schlaefli window
    res = classify(spec)
    if res.regime is Regime.HYPERBOLIC:
        vo.volume_hyperbolic(spec, res.roots[0])
    else:
        vo.volume_spherical(spec, res.roots[0], res.roots[1])
    assert counts == {"evals": evals, "trackers": trackers, "samples": samples}


# ----------------------------------------------------- golden CLI output

# `conevol sweep --jobs 1` output recorded before the Chebyshev evaluation was
# fused into one recurrence walk per point; the CSV must stay byte for byte.
GOLDEN_SWEEPS = {
    ("c2nm2n", "4", "2.4", "3.21", "10"): """\
alpha,regime,volume,error_estimate,l_alpha,alpha_K,status
2.4,hyperbolic,2.49466369526,1.28893332957e-10,8.57242371553,3.06303585283,ok
2.49,hyperbolic,2.10357474077,2.68453487712e-10,8.78354608902,3.06303585283,ok
2.58,hyperbolic,1.70670126175,9.29851433988e-10,8.82418469911,3.06303585283,ok
2.67,hyperbolic,1.31246633468,1.73790046404e-11,8.65984268913,3.06303585283,ok
2.76,hyperbolic,0.931102968397,7.92546674768e-12,8.24180266408,3.06303585283,ok
2.85,hyperbolic,0.575793886712,1.66221053361e-11,7.48118759479,3.06303585283,ok
2.94,hyperbolic,0.265869934476,1.99179543907e-09,6.17027414627,3.06303585283,ok
3.03,hyperbolic,0.039133371665,5.03544413968e-10,3.50100663676,3.06303585283,ok
3.12,spherical,0.0948487801705,9.71400043737e-12,5.16023442967,3.06303585283,ok
3.21,spherical,0.0068705276855,5.86035994038e-11,2.04104507328,3.06303585283,ok
""",
    ("c2n2", "8", "2.4", "3.28", "9"): """\
alpha,regime,volume,error_estimate,l_alpha,alpha_K,status
2.4,hyperbolic,1.14102091363,2.01960299076e-10,3.7453337128,2.9881650267,ok
2.51,hyperbolic,0.929374126559,1.15239286666e-10,3.961102444,2.9881650267,ok
2.62,hyperbolic,0.70410510449,3.69939583375e-11,4.23832785457,2.9881650267,ok
2.73,hyperbolic,0.464142911503,7.43927568666e-12,4.44783738911,2.9881650267,ok
2.84,hyperbolic,0.224296235692,1.97969199789e-10,4.13809764286,2.9881650267,ok
2.95,hyperbolic,0.0321720904403,2.1767122877e-12,2.47788177053,2.9881650267,ok
3.06,spherical,0.0903045448121,3.81940590266e-10,3.90353258797,2.9881650267,ok
3.17,spherical,0.215503977779,1.43429261523e-10,5.48320292265,2.9881650267,ok
3.28,spherical,0.00827716619973,2.67200324366e-12,1.66573247663,2.9881650267,ok
""",
}


@pytest.mark.parametrize("key", sorted(GOLDEN_SWEEPS), ids=lambda k: f"{k[0]}-n{k[1]}")
def test_two_regime_sweep_matches_golden_csv(key, capsys):
    family, n, start, stop, count = key
    # cold caches, as in a fresh process; the spherical track's nodes are a
    # prefix of one fixed sequence, so earlier queries would not change a byte
    geometry.clear_caches()
    assert main([
        "sweep", "--family", family, "--n", n, "--alpha-start", start,
        "--alpha-stop", stop, "--count", count, "--jobs", "1",
    ]) == 0
    out = capsys.readouterr().out
    assert {"hyperbolic", "spherical"} <= {r.split(",")[1] for r in out.splitlines()[1:]}
    assert out == GOLDEN_SWEEPS[key]


def test_cross_checked_volume_of_c16_minus16():
    # the non-geometric branch that collides at 2.9715 gives 5.33649 here
    spec = ConeManifoldSpec(KnotFamily.C2NMINUS2N, 8,
                            0.5 * critical_angle(KnotFamily.C2NMINUS2N, 8))
    r = vo.compute_volume(spec, cross_check=True)
    assert r.volume == pytest.approx(5.82464414394, abs=1e-10)
    assert abs(r.volume - r.schlafli_volume) <= 1e-10


@pytest.mark.xfail(raises=NonConvergenceError, strict=True,
                   reason="ROADMAP Open item 2: root beside the y = 2 pole rejected")
def test_cross_check_below_the_pole_crossing_of_c8_minus8():
    spec = ConeManifoldSpec(KnotFamily.C2NMINUS2N, 4, 0.20626735472821622)
    vo.compute_volume(spec, cross_check=True)


@pytest.mark.xfail(raises=NonConvergenceError, strict=True,
                   reason="ROADMAP item 2: a real root beside y = 2 misses RESIDUAL_TOL "
                          "where cot^2(alpha/2) = det K = 11 puts a cone root at the pole")
@pytest.mark.parametrize("alpha", [0.5855, 0.58598, 0.586])
def test_volume_of_c_minus6_2_near_the_pole_crossing(alpha):
    vo.compute_volume(ConeManifoldSpec(FIG8, -3, alpha))


def test_volume_of_c_minus6_2_past_the_pole_crossing():
    vol = vo.compute_volume(ConeManifoldSpec(FIG8, -3, 0.59)).volume
    assert vol == pytest.approx(3.12801454799, abs=1e-10)


@pytest.mark.xfail(raises=SelectionAmbiguityError, strict=True,
                   reason="ROADMAP items 2 and 13: a Schlaefli node finds that the two "
                          "least roots of C(-24,3) are not a real pair")
def test_volume_of_c_minus24_3_at_pi():
    vo.compute_volume(ConeManifoldSpec(KnotFamily.C2N3, -12, math.pi))
