"""Riley polynomials, cone equation assembly, roots, and the Lemma-cd link."""

import math

import numpy as np
import pytest
import sympy as sp

from conevol import chebyshev, geometry
from conevol import exactpoly as xp
from conevol import riley as ry
from conevol.chebyshev import eval_f, eval_fg
from conevol.errors import NonConvergenceError
from conevol.families import KnotFamily
from conevol.geometry import critical_angle

from oracles import det_k, sympy_cone_polynomial, sympy_phi_even, sympy_phi_odd

ALL_N = (-3, -2, -1, 1, 2, 3)


def test_trace_u_examples():
    assert ry.trace_u(3, 1.7, 2.0) == pytest.approx(2.0, abs=1e-14)
    assert ry.trace_u(1, 2.0, 3.0) == pytest.approx(3.0, abs=1e-14)
    assert ry.trace_u(2, 1.0, 2.5) == pytest.approx(12.9375, abs=1e-12)


def test_trace_v_examples():
    # the even-family block v has the same trace as u, in the variable z
    assert ry.trace_u(4, 0.3, 2.0) == pytest.approx(2.0, abs=1e-14)
    assert ry.trace_u(1, 0.0, 3.0) == pytest.approx(7.0, abs=1e-14)


def test_phi_odd_small_cases():
    assert ry.build_phi_odd(1, 0).coeffs == {(0, 0): -1, (0, 1): 1}  # y - 1
    # at x = 0: (y-1) u - 1 with u = 2 + (y-2)(y+2)
    phi = ry.build_phi_odd(1, 1)
    for y in (0.3, 1.7, -2.2):
        u = 2 + (y - 2) * (y + 2)
        assert phi.eval(0.0, y) == pytest.approx((y - 1) * u - 1, abs=1e-12)


def test_phi_even_small_cases():
    phi = ry.build_phi_even(1, 1)
    for x, z in ((0.0, 0.5), (1.2, 2.3), (2.0, -1.0)):
        expected = 1 + (z + 2 - x * x) * (z - 1)
        assert phi.eval(x, z) == pytest.approx(expected, abs=1e-12)
    # figure-eight parabolic locus: z^2 - 3z + 3 at x = 2
    root = (3 + 1j * math.sqrt(3)) / 2
    assert abs(phi.eval(2.0, root)) < 1e-12


def test_phi_hol_small_cases():
    phi = ry.build_phi_hol_minus2n(1)
    assert phi.coeffs == {(0, 0): 1, (0, 1): 1, (1, 0): -1}  # -1 + (z+2-x^2)
    assert phi.eval(2.0, 3.0) == pytest.approx(0.0, abs=1e-14)  # z - 3 at x=2


@pytest.mark.parametrize("n", ALL_N)
@pytest.mark.parametrize("p", (-2, -1, 0, 1, 2))
def test_phi_odd_matches_sympy(n, p):
    expr, x, y = sympy_phi_odd(n, p)
    ours = ry.build_phi_odd(n, p)
    theirs = {}
    for (px, py), c in sp.Poly(expr, x, y).terms():
        assert px % 2 == 0, "odd power of x appeared"
        theirs[(px // 2, py)] = int(c)
    assert ours.coeffs == theirs


@pytest.mark.parametrize("n", ALL_N)
@pytest.mark.parametrize("p", (-2, -1, 1, 2))
def test_phi_even_matches_sympy(n, p):
    expr, x, z = sympy_phi_even(n, p)
    ours = ry.build_phi_even(n, p)
    theirs = {}
    for (px, pz), c in sp.Poly(expr, x, z).terms():
        assert px % 2 == 0
        theirs[(px // 2, pz)] = int(c)
    assert ours.coeffs == theirs


@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_hol_factor_times_z_minus_2_is_v_minus_z(n):
    # (z-2) * (-1 + (z+2-x^2) S_{n-1}^2) = v - z  symbolically
    x, z = sp.symbols("x z")
    from oracles import sympy_S

    v = 2 + (z - 2) * (z + 2 - x**2) * sympy_S(n - 1, z) ** 2
    phi = ry.build_phi_hol_minus2n(n)
    phi_expr = sum(
        c * x ** (2 * i) * z**j for (i, j), c in phi.coeffs.items()
    )
    assert sp.expand((z - 2) * phi_expr - (v - z)) == 0


@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_full_even_riley_divisible_by_hol_factor(n):
    # the word-exponent p = -n Riley polynomial contains the holonomy factor
    expr, x, z = sympy_phi_even(n, -n)
    phi = ry.build_phi_hol_minus2n(n)
    phi_expr = sum(c * x ** (2 * i) * z**j for (i, j), c in phi.coeffs.items())
    _, rem = sp.div(expr, phi_expr, z)
    assert sp.simplify(rem) == 0


def test_cone_equation_fig8_at_pi():
    eq = ry.build_cone_equation(KnotFamily.C2N2, 1, 0.0)
    # no parasite; the moving factor is proportional to y^2 + y - 1
    assert list(eq.parasite) == [1]
    c = np.array(eq.moving_coeffs)
    assert np.allclose(c / c[-1], [-1.0, 1.0, 1.0])
    roots = sorted(r.y.real for r in ry.solve_cone_equation(eq))
    assert roots[0] == pytest.approx((-1 - math.sqrt(5)) / 2, abs=1e-12)
    assert roots[1] == pytest.approx((-1 + math.sqrt(5)) / 2, abs=1e-12)


def test_cone_equation_minus2n_trefoil_at_pi():
    # f^2 = g for C(2,-2) reduces to y^2 = 1; y = 1 is the angle-independent
    # f^2 = 1 parasite (common root of C0 and C1), y = -1 the moving root
    eq = ry.build_cone_equation(KnotFamily.C2NMINUS2N, 1, 0.0)
    c = np.array(eq.moving_coeffs)
    assert np.allclose(c / c[-1], [1.0, 1.0])
    assert list(eq.parasite) == [-1, 1]
    recs = ry.solve_cone_equation(eq, keep_spurious=True)
    moving = [r for r in recs if not r.unit_f]
    parasites = [r for r in recs if r.unit_f]
    assert len(moving) == 1 and moving[0].y == pytest.approx(-1.0, abs=1e-12)
    assert len(parasites) == 1 and parasites[0].y == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("family", list(KnotFamily))
@pytest.mark.parametrize("n", ALL_N)
def test_cone_parts_match_sympy(family, n):
    c0_ref, c1_ref, y = sympy_cone_polynomial(family.value, n)
    c0, c1 = ry._cone_parts(family, n)[:2]
    for ours, ref in ((c0, c0_ref), (c1, c1_ref)):
        coeffs = sp.Poly(ref, y).all_coeffs()[::-1]
        assert list(ours) == [int(c) for c in coeffs]


@pytest.mark.parametrize("family", list(KnotFamily))
@pytest.mark.parametrize("n", (-4, -3, -2, -1, 1, 2, 3, 4))
def test_degree_matches_symbolic_prediction(family, n):
    c0_ref, c1_ref, y = sympy_cone_polynomial(family.value, n)
    eq = ry.build_cone_equation(family, n, 0.33)
    predicted = max(sp.degree(c0_ref, y), sp.degree(c1_ref, y))
    # the cleared polynomial is the parasite times the moving factor
    assert (len(eq.moving_coeffs) - 1) + (len(eq.parasite) - 1) == predicted


@pytest.mark.parametrize("family", list(KnotFamily))
def test_coefficients_even_in_A(family):
    a = 0.8125
    eq_plus = ry.build_cone_equation(family, 2, a)
    eq_minus = ry.build_cone_equation(family, 2, -a)
    assert eq_plus.moving_coeffs == eq_minus.moving_coeffs


def test_conjugation_closure():
    for family in KnotFamily:
        for n in (-2, 2, 3):
            eq = ry.build_cone_equation(family, n, 1.91)
            roots = [r.y for r in ry.solve_cone_equation(eq)]
            for y in roots:
                assert min(abs(y.conjugate() - w) for w in roots) < 1e-9


def test_residuals_at_roots():
    A = 1.0 / math.tan(0.25)
    eq = ry.build_cone_equation(KnotFamily.C2N2, 1, A)
    for r in ry.solve_cone_equation(eq):
        assert abs(eq.residual(r.y)) <= 1e-8


@pytest.mark.parametrize("family", list(KnotFamily))
def test_residual_prime_is_the_residual_and_its_slope_bit_for_bit(family):
    # one walk gives residual(y) and the slope the two-walk formula gave
    for n in (-3, -1, 2, 4):
        for A in (0.0, 0.37, 2.5):
            eq = ry.build_cone_equation(family, n, A)
            for y in (0.3 + 0.8j, -1.7 + 0.05j, 2.6 - 0.4j, 1.1 + 0j):
                fv, _, fp, gp = eval_fg(family, n, y, prime=True)
                slope = 2.0 * fv * fp - (1.0 + A * A) * gp
                assert repr(eq.residual_prime(y)) == repr((eq.residual(y), slope))


@pytest.mark.parametrize("family", list(KnotFamily))
def test_zeros_of_s_nm1_are_never_roots_of_the_moving_polynomial(family):
    # S_{n-1} divides D and w, so at its zeros C0 = C1 = r with S_n = +/-1:
    # the deflated C0 + A^2 C1 is (1 + A^2) r / d there, never zero
    for n in [m for m in range(-12, 13) if m]:
        _, _, _, c0_red, c1_red = ry._cone_parts(family, n)
        s_nm1 = xp.s_poly(n - 1)
        assert xp.p_gcd(c0_red, s_nm1) == [1]
        xp.p_divexact(xp.p_sub(c0_red, c1_red), s_nm1)  # raises unless it divides


@pytest.mark.parametrize("family", list(KnotFamily))
def test_y_equal_2_is_a_cleared_root_exactly_where_a_squared_is_det_k(family):
    # C0(2) + A^2 C1(2) = 0 needs A^2 = -C0(2)/C1(2): det K for C(2n,2) with
    # n <= -1 and for every C(2n,-2n), negative otherwise
    for n in [m for m in range(-12, 13) if m]:
        c0, c1, parasite = ry._cone_parts(family, n)[:3]
        assert xp.p_eval(parasite, 2) != 0
        a2 = -xp.p_eval(c0, 2) / xp.p_eval(c1, 2)
        if family is KnotFamily.C2N3 or (family is KnotFamily.C2N2 and n > 0):
            assert a2 < 0
        else:
            assert a2 == det_k(family.value, n)


@pytest.mark.parametrize("family, n", [(KnotFamily.C2N2, -2), (KnotFamily.C2NMINUS2N, 2)])
def test_root_at_y_equal_2_is_spurious_and_only_in_the_full_listing(family, n):
    alpha = 2.0 * math.atan(1.0 / math.sqrt(det_k(family.value, n)))
    eq = ry.build_cone_equation(family, n, 1.0 / math.tan(0.5 * alpha))
    full = [r for r in ry.solve_cone_equation(eq, keep_spurious=True)
            if abs(r.y - 2.0) <= ry.SPURIOUS_EPS]
    assert len(full) == 1 and full[0].spurious and full[0].residual == math.inf
    assert all(abs(r.y - 2.0) > ry.SPURIOUS_EPS for r in ry.solve_cone_equation(eq))


def test_default_listing_leaves_out_the_parasites():
    # C(4,3) has the f^2 = 1 parasite y = 1; only the full listing holds it
    eq = ry.build_cone_equation(KnotFamily.C2N3, 2, 0.5)
    full = ry.solve_cone_equation(eq, keep_spurious=True)
    default = ry.solve_cone_equation(eq)
    assert [r for r in full if not r.unit_f] == default
    assert [r.y for r in full if r.unit_f] == [pytest.approx(1.0, abs=1e-12)]


@pytest.mark.parametrize("family, n, walks", [
    # marching every seed pair took 2,613, 34,732 and 7,292 walks; before that,
    # residual and slope walked apart: 4,392, 64,035 and 14,603
    (KnotFamily.C2N3, 2, 1411),
    (KnotFamily.C2N2, 8, 5520),
    (KnotFamily.C2NMINUS2N, 4, 3143),
])
def test_cold_critical_angle_recurrence_walks_are_pinned(family, n, walks, monkeypatch):
    geometry.clear_caches()
    calls = []
    kernel = chebyshev.eval_S_pair
    monkeypatch.setattr(
        chebyshev, "eval_S_pair", lambda *a, **k: calls.append(a) or kernel(*a, **k)
    )
    critical_angle(family, n)
    assert len(calls) == walks


def test_newton_polish_on_constructed_polynomial():
    # (y^2 - 2y + 2)(y + 1): roots 1 +/- i and -1
    coeffs = [2.0, 0.0, -1.0, 1.0]
    roots = sorted(np.roots(list(reversed(coeffs))), key=lambda z: (z.real, z.imag))
    polished = [ry._newton_on_poly(coeffs, complex(z)) for z in roots]
    expected = [(-1 + 0j), (1 - 1j), (1 + 1j)]
    for got, want in zip(polished, expected):
        assert got == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("n", (13, 14))
def test_diverging_newton_polish_raises_a_typed_error(n):
    # Newton in _polish diverges on these members until S_{n-1}^4 overflows in
    # the residual; the best point so far fails the residual tolerance
    with pytest.raises(NonConvergenceError, match="failed to polish"):
        critical_angle(KnotFamily.C2N3, n)


def test_lemma_cd_at_roots_and_off_roots():
    for family, n in ((KnotFamily.C2N2, 1), (KnotFamily.C2N3, 2),
                      (KnotFamily.C2NMINUS2N, 2)):
        alpha = 1.1
        A = 1.0 / math.tan(alpha / 2)
        eq = ry.build_cone_equation(family, n, A)
        for r in ry.solve_cone_equation(eq, keep_spurious=True):
            rep = ry.check_lemma_cd(family, n, alpha, r.y)
            assert rep.consistent
            if not r.unit_f:
                assert rep.cone_zero and rep.phi_zero
            # perturbed points are far from both zero sets
            rep_off = ry.check_lemma_cd(family, n, alpha, r.y + 0.1)
            if not rep_off.cone_zero and not rep_off.phi_zero:
                assert abs(rep_off.phi_value) > 1e-4 or abs(rep_off.cone_residual) > 1e-4


def test_unit_f_parasites_are_alpha_independent(monkeypatch):
    # parasite roots of C(4,3): zeros of S_1 - S_0 = y - 1
    eqs = [
        ry.build_cone_equation(KnotFamily.C2N3, 2, A) for A in (0.0, 0.5, 2.0)
    ]
    for eq in eqs:
        paras = [
            r.y for r in ry.solve_cone_equation(eq, keep_spurious=True) if r.unit_f
        ]
        assert len(paras) == 1
        assert paras[0] == pytest.approx(1.0, abs=1e-12)
        fv = eval_f(2, paras[0])
        assert abs(fv * fv - 1.0) < 1e-12
    # the parasites are solved once per member: another angle polishes none
    calls = []
    newton = ry._newton_on_poly
    monkeypatch.setattr(
        ry, "_newton_on_poly", lambda *args: calls.append(args) or newton(*args)
    )
    eq = ry.build_cone_equation(KnotFamily.C2N3, 2, 1.3)
    recs = ry.solve_cone_equation(eq, keep_spurious=True)
    assert [r.y for r in recs if r.unit_f] == paras
    assert calls == []


def test_zero_sets_coincide_small_grid():
    rng = np.random.default_rng(17)
    for family in KnotFamily:
        for n in (-2, 1, 2):
            phi = ry.build_phi(family, n)
            for _ in range(5):
                alpha = rng.uniform(0.3, math.pi - 0.3)
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
                assert len(cone) == len(phir)
                for z in phir:
                    assert min(abs(z - w) for w in cone) < 1e-7
