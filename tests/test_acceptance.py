"""Acceptance criteria, one test per criterion, each printing a PASS line.

Tolerances are fixed here, not tuned: criteria fail loudly if the library
drifts.  The torus-knot members C(2,-2), C(-2,2) (both trefoils, reached at
n = 1 / n = -1 of the C(2n,-2n) family and n = -1 of C(2n,2)) have no
hyperbolic regime and no transition angle; criteria that quantify over
"all three families, n = 1, 2" assert the documented degeneracy for that
member instead of a volume (see notes/decisions.md in the build records).
"""

import cmath
import math
import time

import numpy as np
import pytest

from conevol import geometry as ge
from conevol import representation as rp
from conevol import riley as ry
from conevol import volume as vo
from conevol.chebyshev import eval_S, eval_f
from conevol.errors import NotBracketedError
from conevol.families import ConeManifoldSpec, KnotFamily, is_torus_member

from oracles import figure_eight_volume

ALL_N = (-3, -2, -1, 1, 2, 3)
FAMILIES = list(KnotFamily)


def _report(num, name, detail):
    print(f"criterion {num:2d} PASS  {name}: {detail}")


def test_criterion_01_chebyshev_identity_suite():
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(200):
        while True:
            y = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
            if abs(y) <= 4.0:
                break
        for k in range(-6, 9):
            a, b = eval_S(k, y), eval_S(k - 1, y)
            res = abs(a * a - y * a * b + b * b - 1.0)
            scale = max(1.0, abs(a * a), abs(y * a * b), abs(b * b))
            worst = max(worst, res / scale)
    elapsed = time.monotonic() - start
    assert worst <= 1e-10
    assert elapsed < 1.0
    _report(1, "Pell identity", f"max scaled residual {worst:.2e} in {elapsed:.2f}s")


def test_criterion_02_representation_oracle_equivalence():
    start = time.monotonic()
    worst_rel = worst_w12 = 0.0
    roots_checked = 0
    degenerate = 0
    for family in FAMILIES:
        for n in ALL_N:
            if is_torus_member(family, n):
                with pytest.raises(NotBracketedError):
                    ge.critical_angle(family, n)
                degenerate += 1
                continue
            a_k = ge.critical_angle(family, n)
            hyp = np.linspace(0.08, a_k - 0.02, 20)
            sph = np.linspace(a_k + 0.02, 2 * math.pi - a_k - 0.02, 20)
            for alpha in list(hyp) + list(sph):
                res = ge.classify(ConeManifoldSpec(family, n, float(alpha)))
                m = cmath.exp(0.5j * float(alpha))
                for y in res.roots:
                    y = complex(y)
                    worst_rel = max(
                        worst_rel, rp.relation_residual(family, n, m, y)
                    )
                    lit = rp.word_12(family, n, m, y)
                    closed = rp.w12_closed_form(family, n, m, y)
                    worst_w12 = max(worst_w12, abs(lit - closed))
                    roots_checked += 1
    elapsed = time.monotonic() - start
    assert worst_rel <= 1e-9
    assert worst_w12 <= 1e-9
    assert elapsed < 30.0
    _report(
        2,
        "representation oracle",
        f"{roots_checked} selected roots, relation residual {worst_rel:.2e}, "
        f"word-entry gap {worst_w12:.2e}, {degenerate} torus members flagged, "
        f"{elapsed:.1f}s",
    )


def test_criterion_03_lemma_cd_equivalence():
    start = time.monotonic()
    rng = np.random.default_rng(7)
    worst = 0.0
    sets = 0
    for family in FAMILIES:
        for n in ALL_N:
            phi = ry.build_phi(family, n)
            for _ in range(20):
                alpha = rng.uniform(0.2, math.pi - 0.2)
                A = 1.0 / math.tan(alpha / 2)
                x = 2.0 * math.cos(alpha / 2)
                cone = [
                    r.y
                    for r in ry.solve_cone_equation(
                        ry.build_cone_equation(family, n, A)
                    )
                    if not r.unit_f
                ]
                phir = np.roots(list(reversed(phi.univariate_in_y(x))))
                assert len(cone) == len(phir), (family, n, alpha)
                for z in phir:
                    worst = max(worst, min(abs(z - w) for w in cone))
                for w in cone:
                    worst = max(worst, min(abs(w - z) for z in phir))
                sets += 1
    elapsed = time.monotonic() - start
    assert worst <= 1e-7
    assert elapsed < 30.0
    _report(
        3,
        "Lemma-cd equivalence",
        f"{sets} zero-set matchings, max gap {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_04_trigonometric_identity():
    worst_gap = worst_imf = worst_unit = 0.0
    for family, n in [(f, n) for f in FAMILIES for n in (1, 2, -2)
                      if not is_torus_member(f, n)]:
        a_k = ge.critical_angle(family, n)
        for alpha in np.linspace(0.3, a_k - 0.05, 5):
            alpha = float(alpha)
            y0 = ge.select_hyperbolic_root(ConeManifoldSpec(family, n, alpha))
            assert eval_f(n, y0).imag > 0
            m = cmath.exp(0.5j * alpha)
            ell = rp.longitude_eigenvalue(family, n, m, y0)
            worst_gap = max(worst_gap, rp.f_identity_gap(family, n, m, y0, ell))
        for alpha in np.linspace(a_k + 0.05, math.pi, 5):
            alpha = float(alpha)
            y_plus, y_minus = ge.select_spherical_roots(
                ConeManifoldSpec(family, n, alpha)
            )
            m = cmath.exp(0.5j * alpha)
            for y in (y_plus, y_minus):
                worst_imf = max(worst_imf, abs(eval_f(n, complex(y)).imag))
                ell = rp.longitude_eigenvalue(family, n, m, complex(y))
                worst_unit = max(worst_unit, abs(abs(ell) - 1.0))
                worst_gap = max(
                    worst_gap, rp.f_identity_gap(family, n, m, complex(y), ell)
                )
    assert worst_gap <= 1e-8
    assert worst_imf <= 1e-8
    assert worst_unit <= 1e-8
    _report(
        4,
        "trigonometric identity",
        f"identity gap {worst_gap:.2e}, spherical Im f {worst_imf:.2e}, "
        f"|ell|-1 {worst_unit:.2e}",
    )


def test_criterion_05_schlafli_cross_oracle():
    start = time.monotonic()
    worst = 0.0
    volumes = 0
    degenerate = 0
    for family in FAMILIES:
        for n in (1, 2):
            if is_torus_member(family, n):
                with pytest.raises(NotBracketedError):
                    ge.critical_angle(family, n)
                degenerate += 1
                continue
            a_k = ge.critical_angle(family, n)
            hyp = np.linspace(0.3, a_k - 0.1, 5)
            sph = np.linspace(a_k + 0.05, math.pi - 0.05, 5)
            for alpha in list(hyp) + list(sph):
                r = vo.compute_volume(
                    ConeManifoldSpec(family, n, float(alpha)), cross_check=True
                )
                worst = max(worst, abs(r.volume - r.schlafli_volume))
                volumes += 1
    elapsed = time.monotonic() - start
    assert worst <= 1e-6
    assert elapsed < 300.0
    _report(
        5,
        "Schlaefli cross-oracle",
        f"{volumes} volumes, max |contour - Schlaefli| {worst:.2e}, "
        f"{degenerate} torus member flagged, {elapsed:.1f}s",
    )


def test_criterion_06_derivative_check():
    h = 1e-4
    points = [
        (KnotFamily.C2N2, 1, 1.0), (KnotFamily.C2N2, 1, 1.6),
        (KnotFamily.C2N3, 1, 1.2), (KnotFamily.C2N3, 2, 1.5),
        (KnotFamily.C2NMINUS2N, 2, 2.0), (KnotFamily.C2N2, 2, 1.3),
        (KnotFamily.C2N2, 1, 2.5), (KnotFamily.C2N3, 1, 2.8),
        (KnotFamily.C2NMINUS2N, 2, 2.95), (KnotFamily.C2N2, 2, 2.9),
    ]
    assert len(points) == 10
    worst = 0.0
    for family, n, alpha in points:
        a_k = ge.critical_angle(family, n)
        sign = -1.0 if alpha < a_k else +1.0
        vp = vo.compute_volume(ConeManifoldSpec(family, n, alpha + h)).volume
        vm = vo.compute_volume(ConeManifoldSpec(family, n, alpha - h)).volume
        fd = (vp - vm) / (2 * h)
        pred = sign * vo.compute_volume(ConeManifoldSpec(family, n, alpha)).l_alpha / 2
        rel = abs(fd - pred) / abs(pred)
        worst = max(worst, rel)
    assert worst <= 1e-4
    _report(6, "Schlaefli derivative", f"10 points, max relative gap {worst:.2e}")


def test_criterion_07_transition_behaviour():
    a_k8 = ge.critical_angle(KnotFamily.C2N2, 1)
    assert abs(a_k8 - 2 * math.pi / 3) <= 1e-6
    checked = 0
    degenerate = 0
    for family in FAMILIES:
        for n in (1, 2):
            if is_torus_member(family, n):
                with pytest.raises(NotBracketedError):
                    ge.critical_angle(family, n)
                degenerate += 1
                continue
            a_k = ge.critical_angle(family, n)
            below = vo.compute_volume(ConeManifoldSpec(family, n, a_k - 1e-3)).volume
            above = vo.compute_volume(ConeManifoldSpec(family, n, a_k + 1e-3)).volume
            assert 0 <= below < 1e-3
            assert 0 <= above < 1e-3
            checked += 1
    _report(
        7,
        "transition behaviour",
        f"alpha_K(fig-8) = 2*pi/3 to {abs(a_k8 - 2 * math.pi / 3):.1e}; "
        f"Vol(alpha_K +/- 1e-3) < 1e-3 for {checked} members, "
        f"{degenerate} torus member flagged",
    )


def test_criterion_08_complete_structure_limit():
    v1 = vo.compute_volume(ConeManifoldSpec(KnotFamily.C2N2, 1, 0.01)).volume
    v2 = vo.compute_volume(ConeManifoldSpec(KnotFamily.C2N2, 1, 0.005)).volume
    extrapolated = (4.0 * v2 - v1) / 3.0
    oracle = figure_eight_volume()
    assert oracle == pytest.approx(2.02988321, abs=2e-8)
    assert abs(extrapolated - oracle) <= 1e-4
    _report(
        8,
        "complete-structure limit",
        f"extrapolated {extrapolated:.9f} vs lune-series {oracle:.9f} "
        f"(gap {abs(extrapolated - oracle):.1e})",
    )


def test_criterion_09_spherical_symmetry():
    worst = 0.0
    pairs = 0
    for family, n in ((KnotFamily.C2N2, 1), (KnotFamily.C2N3, 1),
                      (KnotFamily.C2NMINUS2N, 2)):
        a_k = ge.critical_angle(family, n)
        for alpha in np.linspace(a_k + 0.03, math.pi - 0.03, 10):
            alpha = float(alpha)
            v1 = vo.compute_volume(ConeManifoldSpec(family, n, alpha)).volume
            v2 = vo.compute_volume(
                ConeManifoldSpec(family, n, 2 * math.pi - alpha)
            ).volume
            worst = max(worst, abs(v1 - v2))
            pairs += 1
    assert worst <= 1e-8
    _report(9, "spherical symmetry", f"{pairs} pairs, max gap {worst:.2e}")


def test_criterion_10_path_independence():
    configs = [
        (KnotFamily.C2N2, 1, 1.0), (KnotFamily.C2N2, 2, 1.2),
        (KnotFamily.C2N3, 1, 0.8), (KnotFamily.C2N3, -1, 1.5),
        (KnotFamily.C2NMINUS2N, 2, 2.2),
    ]
    worst = 0.0
    for family, n, alpha in configs:
        spec = ConeManifoldSpec(family, n, alpha)
        y0 = ge.select_hyperbolic_root(spec)
        base = vo.volume_hyperbolic(spec, y0).volume
        for shift in (0.1j, -0.1j):
            v = vo.volume_hyperbolic(spec, y0, anchor_shift=shift).volume
            worst = max(worst, abs(v - base))
    assert worst <= 1e-8
    _report(10, "path independence", f"5 configurations, max shift effect {worst:.2e}")
