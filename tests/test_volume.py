"""Contour volumes, branch tracking, quadrature, and the Schlaefli oracle."""

import ast
import bisect
import cmath
import functools
import heapq
import inspect
import math
import operator
import sys
from pathlib import Path

import numpy as np
import pytest

from conevol import chebyshev, geometry, lanes
from conevol import volume as vo
from conevol.cli import main
from conevol.errors import (ConevolError, NonConvergenceError, PathBlockedError,
                            PoleError, QuadratureError, SelectionAmbiguityError)
from conevol.families import ConeManifoldSpec, KnotFamily, is_torus_member
from conevol.geometry import Regime, classify, critical_angle
from conevol.representation import holonomy_data, longitude_eigenvalue, word_12

from oracles import figure_eight_volume

FIG8 = KnotFamily.C2N2


# the non-torus members with |n| <= 4, and C(16,2)
MEMBERS_4 = [
    (family, n)
    for family in KnotFamily
    for n in (-4, -3, -2, -1, 1, 2, 3, 4)
    if not is_torus_member(family, n)
]
MEMBERS = MEMBERS_4 + [(FIG8, 8)]
# the 68 non-torus members with |n| <= 12 that resolve: c2n3 n = 12's set-up
# fails (ROADMAP item 2)
MEMBERS_12 = [
    (family, n)
    for family in KnotFamily
    for n in [k for m in range(1, 13) for k in (m, -m)]
    if not is_torus_member(family, n) and (family, n) != (KnotFamily.C2N3, 12)
]


def spec8(alpha):
    return ConeManifoldSpec(FIG8, 1, alpha)


def knot_id(family, n):
    """The member's two-bridge name: C(2n,2), C(2n,3) or C(2n,-2n)."""
    second = {FIG8: 2, KnotFamily.C2N3: 3}.get(family, -2 * n)
    return f"C({2 * n},{second})"


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


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=repr)
def test_adaptive_quad_raises_at_a_non_finite_node(bad):
    # a NaN error compares false with the tolerance: this returned (nan, nan)
    with pytest.raises(QuadratureError, match="is not finite"):
        vo.adaptive_quad(lambda ts: [bad if 0.3 < t < 0.31 else 1.0 for t in ts], 0.0, 1.0)


def test_adaptive_quad_subdivision_cap(monkeypatch):
    monkeypatch.setattr(vo, "QUAD_MAX_SUBDIV", 5)
    with pytest.raises(QuadratureError):
        vo.adaptive_quad(
            lambda ts: [math.log(abs(t - 0.3) + 1e-300) for t in ts], 0.0, 1.0,
            abs_tol=1e-14
        )


def _sequential_quad(f, a, b, abs_tol=vo.QUAD_ABS_TOL):
    """Adaptive Gauss 15/7 on [a, b] written out as one sequential loop with
    no look-ahead, an independent reference for the lock-step loop: the
    heap pops the panel of largest error estimate and splits it, f gets each
    half in turn, then both pairs are checked and summed in the same order.
    Returns ((integral, error estimate) or the error raised, the panels
    (lo, hi) that f got, in order)."""
    w15, w7 = vo._GL15[1], vo._GL7[1]
    asked = []

    def pairs(*panels):
        out = []
        for lo, hi in panels:
            asked.append((lo, hi))
            mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
            values = f([mid + half * x for x in vo._PANEL])
            i15 = half * functools.reduce(operator.add, map(operator.mul, w15, values[:15]), 0)
            v7 = [*values[15:18], values[7], *values[18:]]
            i7 = half * functools.reduce(operator.add, map(operator.mul, w7, v7), 0)
            out.append((i15, abs(i15 - i7)))
        for (lo, hi), (v, e) in zip(panels, out):
            if not (cmath.isfinite(v) and math.isfinite(e)):
                raise QuadratureError(f"panel [{lo!r}, {hi!r}] is not finite: "
                                      f"value {v!r}, error {e!r}")
        return out

    try:
        (val, err), = pairs((a, b))
        heap = [(-err, 0, a, b, val, err)]
        total_val, total_err, count, serial = val, err, 0, 1
        while total_err > abs_tol and heap:
            if count >= vo.QUAD_MAX_SUBDIV:
                raise QuadratureError(
                    f"tolerance {abs_tol:.1e} not reached after {vo.QUAD_MAX_SUBDIV} "
                    f"subdivisions (error {total_err:.1e})")
            _, _, lo, hi, v_old, e_old = heapq.heappop(heap)
            mid = 0.5 * (lo + hi)
            (v1, e1), (v2, e2) = pairs((lo, mid), (mid, hi))
            total_val += v1 + v2 - v_old
            total_err += e1 + e2 - e_old
            heapq.heappush(heap, (-e1, serial, lo, mid, v1, e1))
            heapq.heappush(heap, (-e2, serial + 1, mid, hi, v2, e2))
            serial += 2
            count += 1
    except Exception as exc:
        return exc, asked
    return (total_val, total_err), asked


def _outcome_bits(out):
    if isinstance(out, Exception):
        return type(out), str(out)
    return _scalar_bits([out[0]]), out[1].hex()


def _raise_near(x):
    """A panel function that raises ValueError at a panel with a node within
    0.01 of x."""
    def f(ts):
        if any(abs(t - x) < 0.01 for t in ts):
            raise ValueError(f"node near {x}")
        return [math.sqrt(t) for t in ts]
    return f


@pytest.mark.parametrize("f, a, b, abs_tol, cap", [
    (lambda ts: [math.exp(t) for t in ts], 0.0, 1.0, vo.QUAD_ABS_TOL, None),
    (lambda ts: [(1 + 2j) * t * t for t in ts], 0.0, 1.0, vo.QUAD_ABS_TOL, None),
    (lambda ts: [math.log(abs(t - 0.37) + 1e-300) for t in ts], 0.0, 1.0, vo.QUAD_ABS_TOL, None),
    (lambda ts: [complex(math.sqrt(t), -math.log(t)) for t in ts], 0.0, 2.0, 1e-12, None),
    # looser than QUAD_ABS_TOL: each leg looks ahead by its own tolerance
    (lambda ts: [math.log(abs(t - 0.37) + 1e-300) for t in ts], 0.0, 1.0, 1e-4, None),
    (lambda ts: [math.log(abs(t - 0.3) + 1e-300) for t in ts], 0.0, 1.0, 1e-14, 5),
    (lambda ts: [math.log(abs(t - 0.3) + 1e-300) for t in ts], 0.0, 1.0, 1e-14, 40),
    (lambda ts: [math.nan if 0.3 < t < 0.31 else 1.0 / (t + 0.01) for t in ts], 0.0, 1.0,
     vo.QUAD_ABS_TOL, None),
    (_raise_near(0.7), 0.0, 1.0, vo.QUAD_ABS_TOL, None),
], ids=["exp", "complex", "log", "sqrt-log", "log-loose", "cap-5", "cap-40", "nan", "raises"])
def test_adaptive_quad_equals_the_sequential_rule(f, a, b, abs_tol, cap, monkeypatch):
    # the one-leg case of the lock-step loop, which looks ahead, against
    # the sequential loop: the same bits or the same error, and on success
    # the same panels, each evaluated once
    if cap is not None:
        monkeypatch.setattr(vo, "QUAD_MAX_SUBDIV", cap)
    want, panels = _sequential_quad(f, a, b, abs_tol)
    got_nodes = []

    def recorded(ts):
        got_nodes.append(tuple(ts))
        return f(ts)

    try:
        got = vo.adaptive_quad(recorded, a, b, abs_tol)
    except Exception as exc:
        got = exc
    assert _outcome_bits(got) == _outcome_bits(want)
    want_nodes = [tuple(vo._panel_nodes(lo, hi)) for lo, hi in panels]
    if isinstance(want, Exception):
        assert set(want_nodes) <= set(got_nodes)
    else:
        assert sorted(got_nodes) == sorted(want_nodes)


@pytest.mark.parametrize("family,n,fraction", [
    (FIG8, 1, 0.1), (FIG8, 1, 1.2), (KnotFamily.C2NMINUS2N, 4, 0.1),
    (KnotFamily.C2NMINUS2N, 4, 1.02),
], ids=["C(2,2)-hyp", "C(2,2)-sph", "C(8,-8)-hyp", "C(8,-8)-sph"])
def test_schlafli_integral_equals_the_sequential_rule(family, n, fraction, monkeypatch):
    # volume_schlafli's integral through adaptive_quad, which looks ahead,
    # and through the sequential loop: the same bits and the same panels
    calls, quad = [], vo.adaptive_quad

    def captured(f, a, b, abs_tol=vo.QUAD_ABS_TOL):
        calls.append((f, a, b, abs_tol))
        return quad(f, a, b, abs_tol)

    monkeypatch.setattr(vo, "adaptive_quad", captured)
    a_k = critical_angle(family, n)
    vo.volume_schlafli(ConeManifoldSpec(family, n, fraction * a_k))
    (f, a, b, abs_tol), = calls
    want, panels = _sequential_quad(f, a, b, abs_tol)
    got_nodes = []

    def recorded(ts):
        got_nodes.append(tuple(ts))
        return f(ts)

    assert _outcome_bits(quad(recorded, a, b, abs_tol)) == _outcome_bits(want)
    assert sorted(got_nodes) == sorted(tuple(vo._panel_nodes(lo, hi)) for lo, hi in panels)


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



def test_a_returned_singular_list_is_the_callers_own():
    # the set is cached per member; the caller gets a fresh list each time
    want = vo.real_singular_points(3, include_f_zeros=True)
    for include_f_zeros in (False, True):
        pts = vo.real_singular_points(3, include_f_zeros)
        pts.append(99.0)
        pts[0] = -99.0
        again = vo.real_singular_points(3, include_f_zeros)
        assert 99.0 not in again and -99.0 not in again
    assert vo.real_singular_points(3, include_f_zeros=True) == want
    factors = vo._r_factors(FIG8, 3, 0.7)
    factors.clear()
    assert len(vo._r_factors(FIG8, 3, 0.7)) > 0


def test_cold_empties_the_member_caches_of_the_contour():
    # perfbench's cold() finds every functools cache of the package: setup_s
    # and the battery's cold passes stay cold with the contour's member caches
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads as wl

    spec = ConeManifoldSpec(FIG8, 2, 1.0)
    vo.compute_volume(spec)
    caches = (vo._singular_points, vo._r_parts)
    assert all(cache.cache_info().currsize > 0 for cache in caches)
    wl.cold()
    assert [cache.cache_info().currsize for cache in caches] == [0, 0]

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


V8 = 3.663862376708876  # the Whitehead link's volume, a regular ideal octahedron's
BOUND_FRACTIONS = (0.1, 0.3, 0.6, 0.9)


@functools.cache
def _volume_at(family, n, fraction):
    alpha = fraction * critical_angle(family, n)
    return vo.compute_volume(ConeManifoldSpec(family, n, alpha)).volume


def _bound_cell(family, n, bound, k):
    marks = []
    if (family, n, k) == (FIG8, -11, 0):
        marks = [pytest.mark.xfail(
            strict=True, raises=NonConvergenceError,
            reason="ROADMAP items 2 and 18: 0.1 a_K = 0.30239 lies beside the "
                   "pole-crossing angle 2 atan(1/sqrt(43)) = 0.30267")]
    return pytest.param(family, n, bound, k, marks=marks,
                        id=f"{knot_id(family, n)}-{BOUND_FRACTIONS[k]}")


@pytest.mark.parametrize("family, n, bound, k", [
    _bound_cell(family, n, bound, k)
    for family, bound in ((FIG8, V8), (KnotFamily.C2NMINUS2N, 2.0 * V8))
    for n in range(-12, 13) if n and not is_torus_member(family, n)
    for k in range(len(BOUND_FRACTIONS))])
def test_volume_is_below_the_filled_link_and_decreases(family, n, bound, k):
    # C(2n,2) is a Dehn filling of the Whitehead link and C(2n,-2n) one of the
    # Borromean rings (2 v8); a filling has less volume than the link it fills
    # (Thurston), and the cone-manifold's volume falls as alpha grows (Schlaefli)
    vol = _volume_at(family, n, BOUND_FRACTIONS[k])
    assert 0.0 < vol < bound
    if k + 1 < len(BOUND_FRACTIONS):
        assert vol > _volume_at(family, n, BOUND_FRACTIONS[k + 1])


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


_SHIFT_DEFECTS = {
    # the first closing shifted path differs from the unshifted class by an
    # imaginary period: QuadratureError with residual -/+1.761
    (KnotFamily.C2N2, -4, 0.2): QuadratureError,
    # the unshifted contour closes, but no shifted candidate does
    **{(KnotFamily.C2NMINUS2N, n, 0.05): PathBlockedError for n in (-4, -3, -2, 2, 3, 4)},
    **{(KnotFamily.C2NMINUS2N, n, 0.2): PathBlockedError for n in (-4, 4)},
}


# item 5's table: every non-torus member with |n| <= 4 at 0.05, 0.2 and
# 0.8 a_K, the anchor shifted by +/-0.1i
@pytest.mark.parametrize("family,n,fraction", [
    pytest.param(family, n, fraction, id=f"{knot_id(family, n)}-{fraction}", marks=[
        pytest.mark.xfail(raises=defect, strict=True, reason=_CLASS_DEFECT)] if defect else [])
    for family, n in MEMBERS_4 for fraction in (0.05, 0.2, 0.8)
    for defect in [_SHIFT_DEFECTS.get((family, n, fraction))]
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


@pytest.mark.parametrize("family", list(KnotFamily), ids=lambda f: f.value)
def test_r_factor_table_holds_only_factors_of_r(family):
    # a factor (a, 0) adds nothing to R's continuation, yet it cost a phase
    # in _closes and in every tracker sample: (2, 0) for C(2n,2) and
    # C(2n,-2n), and the zeros of S_n - S_{n-1} for C(2n,-2n)
    for n in [k for m in range(1, 13) for k in (m, -m)]:
        assert all(e != 0 for _, e in vo._r_factors(family, n, 0.7)), n
    counts = {(FIG8, 1): 3, (KnotFamily.C2N3, 2): 8, (KnotFamily.C2NMINUS2N, 4): 11,
              (FIG8, 8): 31}
    for (f, n), count in counts.items():
        if f is family:
            assert len(vo._r_factors(f, n, 0.7)) == count, knot_id(f, n)


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
    # at 2,001 points a leg the arg at the left sample is within 1.5 of R's
    # arg continued per factor, so each node's 2*pi*k is the right one; the
    # last sample is the exact winding
    u = np.linspace(0.0, 1.0, 2001)
    paths = spherical = 0
    for family, n, A, path in _tracked_paths():
        factors = vo._r_factors(family, n, A)
        tracker = vo.BranchTracker(path, factors)
        base = 0.0
        for k, (p, q) in enumerate(zip(path, path[1:])):
            y = p + (q - p) * u
            turn = sum(e * np.angle((y - a) / (p - a)) for a, e in factors)
            left = np.searchsorted(tracker.ts, k + u, "right") - 1
            est = np.array(tracker.unwrapped)[left]
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


def _interpolated_arg(tracker, t):
    """A reference rule for the tracker's arg at t, independent of log_at's:
    linear between the two samples that bracket t, the end brackets at and
    past the path's ends."""
    ts, unwrapped = tracker.ts, tracker.unwrapped
    i = min(max(bisect.bisect_right(ts, t) - 1, 0), len(ts) - 2)
    w = (t - ts[i]) / (ts[i + 1] - ts[i]) if ts[i + 1] > ts[i] else 0.0
    return unwrapped[i] * (1 - w) + unwrapped[i + 1] * w


def test_the_left_sample_picks_the_branch_of_the_interpolation_and_of_the_factors():
    # log_at takes 2*pi*k from the arg at the node's left sample: at the 21
    # nodes of each leg's first panel and of its halves, and at random t, the
    # k is the one the interpolation between the bracketing samples picks
    # and the one R's arg continued per factor picks, and the lanes read the
    # same sample as the scalar node
    rng = np.random.default_rng(37)
    two_pi = 2.0 * math.pi
    integrands, nodes = [], []
    for family, n, A, path in _tracked_paths():
        factors = vo._r_factors(family, n, A)
        integrand = vo._Integrand(family, n, A, path, factors)
        tracker, legs = integrand.tracker, len(path) - 1
        t = np.array([t for k in range(legs)
                      for lo, hi in ((k, k + 1), (k, k + 0.5), (k + 0.5, k + 1))
                      for t in vo._panel_nodes(float(lo), float(hi))]
                     + rng.uniform(0.0, legs, 20).tolist())
        k = np.minimum(np.trunc(t), legs - 1).astype(int)
        p, dy = np.array(path[:-1])[k], np.diff(path)[k]
        y = p + dy * (t - k)
        fv, gv, _, _ = chebyshev.kernel(family, n)(y, 1, 1, lambda num, den, tol: None)
        val = (fv * fv + A * A) / ((1.0 + A * A) * gv)
        principal = np.array([cmath.phase(v) for v in val.tolist()])
        bases = np.array([_winding(path[:m + 1], factors) for m in range(legs)])
        exact = bases[k] + sum(e * np.angle((y - a) / (p - a)) for a, e in factors)
        left = np.array(tracker.unwrapped)[np.searchsorted(tracker.ts, t, "right") - 1]
        interpolated = np.array([_interpolated_arg(tracker, x) for x in t.tolist()])
        k_left, k_interp, k_exact = (np.rint((est - principal) / two_pi)
                                     for est in (left, interpolated, exact))
        assert (k_left == k_interp).all() and (k_left == k_exact).all(), (family, n, path)
        got = [tracker.log_at(x, v).imag for x, v in zip(t.tolist(), val.tolist())]
        assert got == (principal + two_pi * k_left).tolist()
        integrands.append(integrand)
        nodes.append((t, left))
    j = np.repeat(np.arange(len(nodes)), [len(t) for t, _ in nodes])
    got = lanes._tracked_arg(lanes.node_tables(integrands), j,
                             np.concatenate([t for t, _ in nodes]))
    assert got.tolist() == np.concatenate([left for _, left in nodes]).tolist()
    assert len(got) > 100_000


# BranchTracker's docstring: R's arg drifts from its factor product's by at
# most this along the contour paths of MEMBERS_12 (measured 8.4e-6, C(24,-24)
# where a staple leg passes 1.9e-5 from a zero of R)
FACTOR_GAP = 1e-5


def _gap_points(p, q, factors):
    """2,001 points of the leg p -> q, and points around each factor's
    nearest approach to it, where the drift peaks."""
    u = [np.linspace(0.0, 1.0, 2001)]
    around = np.array([-2.0, -1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 1.0, 2.0])
    for a, _ in factors:
        s = (a - p) / (q - p)
        u.append(s.real + abs(s.imag) * around)
    return p + (q - p) * np.clip(np.concatenate(u), 0.0, 1.0)


def test_r_is_its_factor_product_to_the_gap_the_branch_proof_states():
    # wrapped arg R minus its start minus R's arg continued per factor, along
    # the contour path at 0.2, 0.5 and 0.8 a_K and at two spherical angles of
    # every member that resolves with |n| <= 12
    worst = {}
    for family, n in MEMBERS_12:
        a_k = critical_angle(family, n)
        specs = [ConeManifoldSpec(family, n, f * a_k) for f in (0.2, 0.5, 0.8)]
        specs += [ConeManifoldSpec(family, n, a_k + f * (math.pi - a_k)) for f in (0.3, 0.7)]
        fg = chebyshev.kernel(family, n)
        for spec in specs:
            A, roots = spec.cot_half, classify(spec).roots
            factors = vo._r_factors(family, n, A)
            path = (next(vo._candidate_paths(family, n, factors, roots[0])) if len(roots) == 1
                    else vo.spherical_path(n, *roots))

            def arg_r(y):
                fv, gv, _, _ = fg(y, 1, 1, lambda num, den, tol: None)
                return np.angle((fv * fv + A * A) / ((1.0 + A * A) * gv))

            start = float(arg_r(np.array([path[0]]))[0])
            assert abs(start) <= 1e-5  # _Integrand's anchor check
            for k, (p, q) in enumerate(zip(path, path[1:])):
                y = _gap_points(p, q, factors)
                turn = _winding(path[:k + 1], factors) + sum(
                    e * np.angle((y - a) / (p - a)) for a, e in factors)
                gap = np.abs((arg_r(y) - start - turn + math.pi) % (2 * math.pi) - math.pi)
                worst[family, n] = max(worst.get((family, n), 0.0), float(gap.max()))
    assert len(worst) == 68
    assert max(worst.values()) <= FACTOR_GAP, max(worst.items(), key=lambda kv: kv[1])
    # the proof needs the sample interval's 1.5, the anchor's 1e-5 and the
    # gap below pi: they are 0.239 of a turn, 1.64 below pi
    assert (1.5 + 1e-5 + FACTOR_GAP) / (2.0 * math.pi) < 0.24
    assert math.pi - (1.5 + 1e-5 + FACTOR_GAP) > 1.64


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


def test_the_contour_forms_f_and_g_only_through_the_kernel():
    # chebyshev.kernel's closure is the one place that forms f, f' and g:
    # the contour's modules walk no S_k and read no exponent row themselves;
    # the lanes call the closure of the paths' scalar node
    for module, closure in ((vo, "kernel"), (lanes, "fg")):
        tree = ast.parse(inspect.getsource(module))
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        names |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                  for alias in node.names}
        assert not names & {"eval_S_pair", "R_EXPONENTS"}, module.__name__
        assert closure in names, module.__name__


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
    assert vo._Contour(spec, path, Regime.HYPERBOLIC, factors).volume().volume > 0.0
    for offset in (1e-3, 1e-3j):
        with pytest.raises(PathBlockedError, match="not anchored"):
            vo._Contour(spec, (path[0] + offset, *path[1:]), Regime.HYPERBOLIC, factors)


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


# the 27 members of MEMBERS_12 whose volume at a_K - 1e-9 comes out; the
# other 41 raise
_JUST_BELOW_RESOLVES = (
    {(FIG8, n) for n in (1, 2, -2, 3, -3, 4, -4, -5, 6, -8)}
    | {(KnotFamily.C2N3, n) for n in (1, -1, 2, -2, 3, -3, 4, -4, -5)}
    | {(KnotFamily.C2NMINUS2N, n) for n in (2, -2, 3, -3, 4, -4, 6, -6)})


def _just_below(family, n):
    return pytest.param(family, n, id=knot_id(family, n), marks=[pytest.mark.xfail(
        strict=True, raises=SelectionAmbiguityError,
        reason="ROADMAP items 2 and 12: a Schlaefli node just below a_K (3.6e-14 "
               "for C(16,2)) solves the geometric pair as two real roots")]
        if (family, n) not in _JUST_BELOW_RESOLVES else [])


@pytest.mark.parametrize("family, n", [_just_below(*m) for m in MEMBERS_12])
def test_volume_just_below_a_k(family, n):
    a_k = critical_angle(family, n)
    vol = vo.compute_volume(ConeManifoldSpec(family, n, a_k - 1e-9)).volume
    assert 0.0 < vol < 1e-10


@pytest.mark.parametrize("family, n", [pytest.param(*m, id=knot_id(*m)) for m in MEMBERS_4])
def test_volume_a_hair_above_a_k(family, n):
    a_k = critical_angle(family, n)
    vol = vo.compute_volume(ConeManifoldSpec(family, n, a_k + 1e-14)).volume
    assert 0.0 < vol < 1e-18


def _hair_below(family, n):
    # c2n2 and c2n3 from |n| = 3 on, and every c2nm2n member
    fails = family is KnotFamily.C2NMINUS2N or abs(n) >= 3
    return pytest.param(family, n, id=knot_id(family, n), marks=[pytest.mark.xfail(
        strict=True, raises=SelectionAmbiguityError,
        reason="ROADMAP items 2 and 12: a Schlaefli node between the true collision "
               "and the bisected a_K has no non-real root")] if fails else [])


@pytest.mark.parametrize("family, n", [_hair_below(*m) for m in MEMBERS_4])
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


@pytest.mark.parametrize("alpha", [1.0, 2.5])
def test_schlafli_panels_take_angles_not_specs(alpha, monkeypatch):
    # each panel goes to geometry in the regime of spec, as its nodes' angles
    panels = []
    select = geometry._select_panel
    monkeypatch.setattr(vo, "_select_panel", lambda family, n, alphas, regime: (
        panels.append(regime) or select(family, n, alphas, regime)))
    monkeypatch.setattr(vo, "ConeManifoldSpec", None)  # no spec is built per node
    vo.volume_schlafli(spec8(alpha))
    assert panels and set(panels) == {classify(spec8(alpha)).regime}


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
    # the scalar node hands the kernel Python complex numbers; a round of
    # LANES_MIN nodes or more hands it Lanes, and nothing else
    t_types, y_types = set(), set()
    factory = vo.kernel

    @functools.lru_cache(maxsize=None)  # one closure per member, as kernel's
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
    rounds = []
    round_ = vo._round

    def counted_round(integrands, panels, tables):
        rounds.append(len(vo._PANEL) * len(panels))
        return round_(integrands, panels, tables)

    monkeypatch.setattr(vo, "_round", counted_round)
    a_k = critical_angle(FIG8, 1)
    alphas = [a_k * (i + 0.5) / 8 for i in range(8)] + [2.5, 2.8, 3.0]
    assert all(isinstance(r, vo.VolumeResult) for r in vo.compute_volumes(FIG8, 1, alphas))
    assert max(rounds) >= vo.LANES_MIN > min(rounds)
    assert t_types == {float}
    assert y_types == {complex, lanes.Lanes}


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
    # a node on a pole raises the kernel's PoleError: the last node of a leg
    # w -> s lands on s exactly.  f's guard fires at y = 2; at n = 2 the
    # double 1e-25 is a zero of S_1 = y that only g's guard sees.  The
    # tracker is not asked to pass a factor of R at the path's end
    hyp = ConeManifoldSpec(family, n, 0.5 * critical_angle(family, n))
    y0 = classify(hyp).roots[0]
    for w, s in [(complex(1.5, 0.5), 2.0)] + [(0.5j, 1e-25)] * (n == 2):
        path = (y0, w, complex(s))
        factors = [(a, e) for a, e in vo._r_factors(family, n, hyp.cot_half) if a != s]
        integrand = vo._Integrand(family, n, hyp.cot_half, path, factors)
        assert w + (s - w) * 1.0 == s
        with pytest.raises(PoleError) as got:
            integrand(2.0)
        with pytest.raises(PoleError) as want:
            chebyshev.kernel(family, n, vo._Integrand.POLE_TOL)(complex(s), 2, 1)
        assert str(got.value) == str(want.value)


def _scalar_bits(values):
    return [(v.real.hex(), v.imag.hex()) for v in values]


@pytest.mark.parametrize("family,n", NODE_MEMBERS, ids=lambda v: str(v))
def test_the_lanes_equal_the_scalar_node_bit_for_bit(family, n):
    # the anchored V, the staple and the spherical detour (whose real legs
    # carry +/-0.0 imaginary parts) in one batch: each leg's first panel,
    # the halves it splits into, and every leg end, where the leg and
    # bracket indices clamp
    integrands = [vo._Integrand(family, n, A, path, vo._r_factors(family, n, A))
                  for A, path in _node_paths(family, n)]
    jobs = []
    for j, integrand in enumerate(integrands):
        legs = len(integrand.legs)
        ts = [t for k in range(legs) for lo, hi in ((k, k + 1), (k, k + 0.5), (k + 0.5, k + 1))
              for t in vo._panel_nodes(float(lo), float(hi))]
        jobs.append((j, ts + [float(k) for k in range(legs + 1)]))
    j = np.repeat([j for j, _ in jobs], [len(ts) for _, ts in jobs])
    t = np.array([t for _, ts in jobs for t in ts])
    with np.errstate(all="ignore"):  # as _round runs them: the unused Smith branch divides by 0
        re, im, ok = lanes.node_values(integrands, lanes.node_tables(integrands), j, t)
    assert ok.all()
    want = [integrands[j](t) for j, ts in jobs for t in ts]
    assert list(zip(map(float.hex, re.tolist()), map(float.hex, im.tolist()))) == _scalar_bits(want)
    assert any(z.imag == 0.0 for z in want)  # real legs: the sign of 0.0 is compared


def test_a_failing_panel_in_a_lanes_round_raises_the_scalar_error(monkeypatch):
    # a leg through the pole y = 2, which the midpoint node t = 1.5 of the
    # panel [1, 2] lands on, in a round of at least LANES_MIN good nodes: that
    # panel alone goes back through the scalar node and gets its PoleError,
    # the others the scalar _gauss_pair's bits from the lanes
    family, n = FIG8, 3
    hyp = ConeManifoldSpec(family, n, 0.5 * critical_angle(family, n))
    y0 = classify(hyp).roots[0]
    A = hyp.cot_half
    factors = [(a, e) for a, e in vo._r_factors(family, n, A) if a != 2.0]
    failing = vo._Integrand(family, n, A, (y0, complex(1.5, 0.5), complex(2.5, -0.5)), factors)
    z0, dy = failing.legs[1]
    assert z0 + dy * 0.5 == 2.0
    good = vo._Integrand(family, n, A, vo._via(y0, complex(vo.collision_root(family, n))),
                         vo._r_factors(family, n, A))
    panels = [(1, k / 4, (k + 1) / 4) for k in range(8)]
    panels.insert(3, (0, 1.0, 2.0))
    assert len(vo._PANEL) * (len(panels) - 1) >= vo.LANES_MIN
    scalar, pair = [], vo._pair

    def counted_pair(f, lo, hi):
        scalar.append((lo, hi))
        return pair(f, lo, hi)

    monkeypatch.setattr(vo, "_pair", counted_pair)
    got = vo._round([failing, good], panels, {})
    assert scalar == [(1.0, 2.0)]
    with pytest.raises(PoleError) as want:
        chebyshev.kernel(family, n, vo._Integrand.POLE_TOL)(2 + 0j, 2, 1)
    assert isinstance(got[3], PoleError) and str(got[3]) == str(want.value)
    for (j, lo, hi), sums in zip(panels, got):
        if j == 1:
            want_sums = vo._gauss_pair(list(map(good, vo._panel_nodes(lo, hi))), lo, hi)
            assert _scalar_bits(sums) == _scalar_bits(want_sums)


def test_the_lanes_gauss_pair_equals_the_scalar_pair_bit_for_bit(monkeypatch):
    # random complex node values, whole panels of them real with +0.0 or -0.0
    # imaginary parts and signed zeros scattered, summed on lanes: each
    # panel's (value, error) is _gauss_pair's, and the lanes are handed
    # _panel_nodes' nodes
    rng = np.random.default_rng(35)
    size = 48
    re = rng.normal(0.0, 3.0, (size, 21)) * 10.0 ** rng.integers(-4, 5, (size, 21))
    im = rng.normal(0.0, 3.0, (size, 21)) * 10.0 ** rng.integers(-4, 5, (size, 21))
    im[:12], im[12:24] = 0.0, -0.0
    re[::5, ::3], im[24::3, 1::4], re[30:36] = -0.0, 0.0, 0.0
    # panels of zeros: the sum's leading 0.0 fixes the sign of their value
    re[36:42], im[36:39], im[39:42] = -0.0, 0.0, -0.0
    ends = np.sort(rng.uniform(0.0, 3.0, (size, 2)), axis=1)
    panels = [(0, lo, hi) for lo, hi in ends.tolist()]

    def given_values(integrands, tables, j, t):
        assert t.tolist() == [x for _, lo, hi in panels for x in vo._panel_nodes(lo, hi)]
        return re.ravel(), im.ravel(), np.ones(re.size, bool)

    monkeypatch.setattr(lanes, "node_values", given_values)
    # tables already made: node_values is replaced, so no path is read
    got = lanes.panel_sums(None, {"given": None}, panels,
                           (vo._PANEL, vo._GL15[1], vo._GL7[1], vo._GL7_COLUMNS))
    for (_, lo, hi), row_re, row_im, sums in zip(panels, re.tolist(), im.tolist(), got):
        want = vo._gauss_pair(list(map(complex, row_re, row_im)), lo, hi)
        assert _scalar_bits(sums) == _scalar_bits(want)
    # the real panels: a sum from 0.0 turns each -0.0 into +0.0
    assert [math.copysign(1.0, v.imag) for v, _ in got[:24]] == [1.0] * 24


def _contours(family, n, alphas):
    contours = []
    for alpha in alphas:
        spec = ConeManifoldSpec(family, n, alpha)
        res = classify(spec)
        factors = vo._r_factors(family, n, spec.cot_half)
        contours.append(vo._hyperbolic_contour(spec, res.roots[0], factors)
                        if res.regime is Regime.HYPERBOLIC else
                        vo._spherical_contour(spec, *res.roots, factors))
    return contours


def _alone(integrand):
    """The integrand's legs through the sequential loop (_sequential_quad)
    one at a time, summed, or the error of its first failing leg; and the
    node lists they evaluated."""
    total, err, asked = 0j, 0.0, []
    for k in range(len(integrand.legs)):
        def f(ts):
            asked.append(ts)
            return list(map(integrand, ts))
        out, _ = _sequential_quad(f, float(k), float(k + 1))
        if isinstance(out, Exception):
            return out, asked
        total += out[0]
        err += out[1]
    return (total, err), asked


@pytest.mark.parametrize("family,n,fractions", [
    (FIG8, 1, None), (KnotFamily.C2N3, -3, None), (FIG8, 8, None),
    # far below a_K, where a leg splits 30 times and more
    (KnotFamily.C2NMINUS2N, 4, (0.05, 0.1, 0.15, 0.2, 0.25, 0.3)),
], ids=["KnotFamily.C2N2-1", "KnotFamily.C2N3--3", "KnotFamily.C2N2-8",
        "KnotFamily.C2NMINUS2N-4-low"])
def test_lock_step_legs_equal_adaptive_quad_leg_by_leg(family, n, fractions):
    # a sweep's contours integrated together: each total and error estimate
    # is the sum of its legs' own sequential loop, bit for bit
    a_k = critical_angle(family, n)
    if fractions is None:
        alphas = [0.2 + i * (a_k - 0.3) / 9 for i in range(10)]
        alphas += [a_k + 0.1 + i * (math.pi - a_k - 0.2) / 5 for i in range(6)]
    else:
        alphas = [f * a_k for f in fractions]
    integrands = [contour.integrand for contour in _contours(family, n, alphas)]
    splits = 0
    for integrand, sums in zip(integrands, vo._integrate(integrands)):
        want, asked = _alone(integrand)
        assert _scalar_bits(sums) == _scalar_bits(want)
        splits = max(splits, (len(asked) - len(integrand.legs)) // 2)
    assert fractions is None or splits >= 30


def test_paths_of_two_members_are_not_integrated_together():
    # the lanes evaluate every path of a round with the first path's kernel
    # closure: C(4,3) integrated with C(2,2) at alpha = 1 read
    # -0.46845508082728227i instead of its own -3.7848896694374625i.  Paths
    # of one member at several angles share the member's closure
    c22, c43 = (_contours(family, n, [1.0])[0].integrand
                for family, n in ((FIG8, 1), (KnotFamily.C2N3, 2)))
    with pytest.raises(ValueError, match="one member"):
        vo._integrate([c22, c43])
    (value, _), = vo._integrate([c43])
    assert value.imag == pytest.approx(-3.7848896694374625, abs=1e-9)
    together = [contour.integrand for contour in _contours(FIG8, 1, [0.5, 1.0, 1.5])]
    assert all(not isinstance(out, Exception) for out in vo._integrate(together))


def _low_c8():
    """A C(8,-8) contour at 0.1 a_K, whose legs split 30 times and more."""
    alpha = 0.1 * critical_angle(KnotFamily.C2NMINUS2N, 4)
    return _contours(KnotFamily.C2NMINUS2N, 4, [alpha])[0].integrand


def _fail_where(monkeypatch, fails, lanes_min):
    """Every node t with fails(t) raises QuadratureError in the scalar node
    and is not ok on the lanes; rounds of lanes_min nodes or more run on
    lanes."""
    call, node_values = vo._Integrand.__call__, lanes.node_values

    def failing_call(self, t):
        if fails(t):
            raise QuadratureError(f"failure at t={t!r}")
        return call(self, t)

    def failing_lanes(integrands, tables, j, t):
        re, im, ok = node_values(integrands, tables, j, t)
        return re, im, ok & ~np.array([fails(x) for x in t.tolist()], bool)

    monkeypatch.setattr(vo._Integrand, "__call__", failing_call)
    monkeypatch.setattr(lanes, "node_values", failing_lanes)
    monkeypatch.setattr(vo, "LANES_MIN", lanes_min)


def _recorded(monkeypatch, name, record):
    """Wrap volume's function name so that record gets each call's arguments
    and its result."""
    fn = getattr(vo, name)

    def wrapper(*args):
        out = fn(*args)
        record(*args, out)
        return out

    monkeypatch.setattr(vo, name, wrapper)


@pytest.mark.parametrize("lanes_min", [10 ** 9, 0], ids=["scalar", "lanes"])
def test_a_failed_look_ahead_panel_that_is_never_asked_for_is_dropped(lanes_min,
                                                                      monkeypatch):
    # a look-ahead over every panel in the leg's order, not only over the
    # panels certain to split, evaluates panels that the leg never asks for,
    # and every node that the leg alone does not evaluate fails: the failed
    # panels are held but never taken, so none raises, and the leg's value
    # is its own, bit for bit
    integrand = _low_c8()
    want, asked = _alone(integrand)
    evaluated = {t for ts in asked for t in ts}
    failed = []

    def every_panel(order, abs_tol):
        return [half for _, lo, hi, _ in order
                for half in ((lo, 0.5 * (lo + hi)), (0.5 * (lo + hi), hi))]

    monkeypatch.setattr(vo, "_look_ahead", every_panel)
    _recorded(monkeypatch, "_round", lambda integrands, panels, tables, pairs: failed.extend(
        p for p in pairs if isinstance(p, Exception)))
    _fail_where(monkeypatch, lambda t: t not in evaluated, lanes_min)
    got, = vo._integrate([integrand])
    assert failed
    assert _scalar_bits(got) == _scalar_bits(want)


@pytest.mark.parametrize("lanes_min", [10 ** 9, 0], ids=["scalar", "lanes"])
def test_a_failed_look_ahead_panel_raises_when_it_is_asked_for(lanes_min, monkeypatch):
    # a panel first evaluated by look-ahead fails there; its leg holds the
    # error and raises it when it takes that panel, the error that the leg
    # raises alone, and no round evaluates the panel again
    integrand = _low_c8()
    ahead = []
    _recorded(monkeypatch, "_look_ahead", lambda order, abs_tol, halves: ahead.append(halves))
    vo._integrate([integrand])
    lo, hi = next(halves for halves in ahead if halves)[-1]
    rounds = []
    _recorded(monkeypatch, "_round", lambda integrands, panels, tables, pairs: rounds.append(
        [pair for (_, a, b), pair in zip(panels, pairs) if (a, b) == (lo, hi)]))
    _fail_where(monkeypatch, set(vo._panel_nodes(lo, hi)).__contains__, lanes_min)
    got, = vo._integrate([integrand])
    want, _ = _alone(integrand)
    assert type(got) is type(want) is QuadratureError and str(got) == str(want)
    tried = [pair for pairs in rounds for pair in pairs]
    assert len(tried) == 1 and type(tried[0]) is QuadratureError and str(tried[0]) == str(want)


@pytest.mark.parametrize("cap", [3, 6])
def test_a_leg_out_of_subdivisions_raises_the_message_it_raises_alone(cap, monkeypatch):
    # the leg's own message and error estimate; no leg looks ahead at more
    # panels than it has subdivisions left (its order holds one panel per
    # split made), and at 6 that bound cuts the look-ahead short
    monkeypatch.setattr(vo, "QUAD_MAX_SUBDIV", cap)
    integrand = _low_c8()
    calls = []
    _recorded(monkeypatch, "_look_ahead",
              lambda order, abs_tol, halves: calls.append((len(order), halves)))
    got, = vo._integrate([integrand])
    want, _ = _alone(integrand)
    assert f"after {cap} subdivisions" in str(want)
    assert type(got) is QuadratureError and str(got) == str(want)
    assert all(len(halves) <= 2 * max(cap - 1 - made, 0) for made, halves in calls)
    assert cap == 3 or any(halves and len(halves) == 2 * (cap - 1 - made) for made, halves in calls)


@pytest.mark.parametrize("lanes_min", [10 ** 9, 0], ids=["scalar", "lanes"])
def test_a_non_finite_node_raises_quadrature_error(lanes_min, monkeypatch):
    # a NaN node on a contour's first leg: the volume raises, whether its
    # round runs on the scalar node or on the lanes, where the NaN lane is not
    # ok and its panel goes back through the scalar node
    call, node_values = vo._Integrand.__call__, lanes.node_values

    def nan_call(self, t):
        return complex(math.nan, 0.0) if 0.3 < t < 0.31 else call(self, t)

    def nan_lanes(integrands, tables, j, t):
        re, im, ok = node_values(integrands, tables, j, t)
        re = np.where((0.3 < t) & (t < 0.31), math.nan, re)
        return re, im, ok & np.isfinite(re)

    monkeypatch.setattr(vo._Integrand, "__call__", nan_call)
    monkeypatch.setattr(lanes, "node_values", nan_lanes)
    monkeypatch.setattr(vo, "LANES_MIN", lanes_min)
    with pytest.raises(QuadratureError, match=r"panel \[0.0, 1.0\] is not finite: value \(?nan"):
        vo.compute_volume(spec8(0.5 * critical_angle(FIG8, 1)))


@pytest.mark.parametrize("spec, evals, trackers, samples", [
    (ConeManifoldSpec(FIG8, 8, 0.6 * critical_angle(FIG8, 8)), 294, 1, 11),
    (ConeManifoldSpec(KnotFamily.C2NMINUS2N, 4,
                      0.6 * critical_angle(KnotFamily.C2NMINUS2N, 4)), 651, 1, 19),
    (C43, 1407, 1, 30),
], ids=["C(16,2)", "C(8,-8)", "C(4,3)"])
def test_contour_work_counts_are_pinned(spec, evals, trackers, samples, monkeypatch):
    # integrand evaluations must not fall: a faster contour must come from
    # cheaper evaluations, not from fewer; the exact class filter leaves one
    # branch tracker per hyperbolic volume.  Nodes are counted where a round
    # asks for them, whether the scalar node or the lanes evaluate them
    counts = {"evals": 0, "trackers": 0, "samples": 0}
    round_, init = vo._round, vo.BranchTracker.__init__

    def counted_round(integrands, panels, tables):
        counts["evals"] += len(vo._PANEL) * len(panels)
        return round_(integrands, panels, tables)

    def counted_init(self, path, factors):
        counts["trackers"] += 1
        init(self, path, factors)
        counts["samples"] += len(self.ts)

    monkeypatch.setattr(vo, "_round", counted_round)
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


def _pole_cell(family, n, alpha, raises):
    marks = [pytest.mark.xfail(
        raises=NonConvergenceError, strict=True,
        reason="ROADMAP item 2: a real root beside y = 2 misses RESIDUAL_TOL where "
               "cot^2(alpha/2) = det K puts a cone root at the pole")] if raises else []
    return pytest.param(family, n, alpha, marks=marks, id=f"{knot_id(family, n)}-{alpha!r}")


def _pole_cells(family, n):
    # det K = |ab + 1| for C(a, b); alpha_det is hyperbolic for these nine
    # members, the c2n2 ones with n <= -2 and the C(2n,-2n) ones with |n| >= 2
    a, b = 2 * n, 2 if family is FIG8 else -2 * n
    alpha_det = 2.0 * math.atan(1.0 / math.sqrt(abs(a * b + 1)))
    return [_pole_cell(family, n, alpha_det * (1.0 + s),
                       abs(s) == 1e-5 or family is not FIG8 and abs(n) >= 3)
            for s in (-1e-3, -1e-5, 1e-5, 1e-3)]


@pytest.mark.parametrize("family, n, alpha", [
    *(cell for n in (-4, -3, -2) for cell in _pole_cells(FIG8, n)),
    *(cell for n in (-4, -3, -2, 2, 3, 4) for cell in _pole_cells(KnotFamily.C2NMINUS2N, n)),
    *(_pole_cell(FIG8, -3, alpha, True) for alpha in (0.5855, 0.58598, 0.586)),
])
def test_volume_near_the_pole_crossing(family, n, alpha):
    # every pole-crossing cell with |n| <= 4 (ROADMAP item 18), with the
    # bounds of test_volume_is_below_the_filled_link_and_decreases
    vol = vo.compute_volume(ConeManifoldSpec(family, n, alpha)).volume
    assert 0.0 < vol < (V8 if family is FIG8 else 2.0 * V8)


def test_volume_of_c_minus6_2_past_the_pole_crossing():
    vol = vo.compute_volume(ConeManifoldSpec(FIG8, -3, 0.59)).volume
    assert vol == pytest.approx(3.12801454799, abs=1e-10)


@pytest.mark.xfail(raises=SelectionAmbiguityError, strict=True,
                   reason="ROADMAP item 12: a Schlaefli node of C(-24,3) lies between "
                          "the computed and the exact a_K, where the two least roots "
                          "are not a real pair")
def test_volume_of_c_minus24_3_at_pi():
    vo.compute_volume(ConeManifoldSpec(KnotFamily.C2N3, -12, math.pi))
