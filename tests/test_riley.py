"""Riley polynomials, cone equation assembly, roots, and the Lemma-cd link."""

import ast
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest
import sympy as sp

from conevol import chebyshev, geometry
from conevol import exactpoly as xp
from conevol import riley as ry
from conevol.chebyshev import eval_f, kernel
from conevol.errors import NonConvergenceError, PoleError
from conevol.families import KnotFamily, is_torus_member
from conevol.geometry import critical_angle

from oracles import (det_k, sympy_cone_polynomial, sympy_phi_even, sympy_phi_hol,
                     sympy_phi_odd)

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
    # at x = 0: (y-1) u - 1 with u = 2 + (y-2)(y+2)
    phi = ry.build_phi(KnotFamily.C2N3, 1)
    for y in (0.3, 1.7, -2.2):
        u = 2 + (y - 2) * (y + 2)
        assert phi.eval(0.0, y) == pytest.approx((y - 1) * u - 1, abs=1e-12)
    # (y-1)(y^2 - 2 - x^2 (y-2)) - 1
    assert phi == ry.RileyPoly((1, -2, -1, 1), (-2, 3, -1))


def test_phi_even_small_cases():
    phi = ry.build_phi(KnotFamily.C2N2, 1)
    for x, z in ((0.0, 0.5), (1.2, 2.3), (2.0, -1.0)):
        expected = 1 + (z + 2 - x * x) * (z - 1)
        assert phi.eval(x, z) == pytest.approx(expected, abs=1e-12)
    # figure-eight parabolic locus: z^2 - 3z + 3 at x = 2
    root = (3 + 1j * math.sqrt(3)) / 2
    assert abs(phi.eval(2.0, root)) < 1e-12
    assert phi == ry.RileyPoly((-1, 1, 1), (1, -1))


def test_phi_hol_small_cases():
    phi = ry.build_phi(KnotFamily.C2NMINUS2N, 1)
    assert phi == ry.RileyPoly((1, 1), (-1,))  # -1 + (z+2-x^2)
    assert phi.eval(2.0, 3.0) == pytest.approx(0.0, abs=1e-14)  # z - 3 at x=2


@pytest.mark.parametrize("family", list(KnotFamily), ids=lambda f: f.value)
def test_build_phi_rejects_a_non_int_twist_equal_to_a_cached_one(family):
    # True, 1.0 and np.int64(1) hash and compare equal to 1: an untyped cache
    # served them the cached Phi of n = 1 without reaching validate_twist
    ry.build_phi(family, 1)
    for n in (True, 1.0, np.int64(1)):
        with pytest.raises(ValueError, match="integer"):
            ry.build_phi(family, n)


@pytest.mark.parametrize("family", list(KnotFamily), ids=lambda f: f.value)
@pytest.mark.parametrize("n", [k for k in range(-9, 10) if k])
def test_phi_matches_sympy(family, n):
    oracle = {KnotFamily.C2N3: lambda: sympy_phi_odd(n, 1),
              KnotFamily.C2N2: lambda: sympy_phi_even(n, 1),
              KnotFamily.C2NMINUS2N: lambda: sympy_phi_hol(n)}
    expr, x, y = oracle[family]()
    poly = sp.Poly(expr, x, y)
    assert poly.degree(x) <= 2  # no x^4 term: Phi is linear in x^2
    theirs = [[0] * (poly.degree(y) + 1) for _ in range(2)]
    for (px, py), c in poly.terms():
        assert px % 2 == 0, "odd power of x appeared"
        theirs[px // 2][py] = int(c)
    phi = ry.build_phi(family, n)
    assert (list(phi.p0), list(phi.p1)) == tuple(xp.p_trim(t) for t in theirs)


@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_hol_factor_times_z_minus_2_is_v_minus_z(n):
    # (z-2) * (-1 + (z+2-x^2) S_{n-1}^2) = v - z  symbolically
    x, z = sp.symbols("x z")
    from oracles import sympy_S

    v = 2 + (z - 2) * (z + 2 - x**2) * sympy_S(n - 1, z) ** 2
    assert sp.expand((z - 2) * _phi_expr(KnotFamily.C2NMINUS2N, n, x, z) - (v - z)) == 0


@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_full_even_riley_divisible_by_hol_factor(n):
    # the word-exponent p = -n Riley polynomial contains the holonomy factor
    expr, x, z = sympy_phi_even(n, -n)
    _, rem = sp.div(expr, _phi_expr(KnotFamily.C2NMINUS2N, n, x, z), z)
    assert sp.simplify(rem) == 0


def _phi_expr(family, n, x, y):
    """build_phi's P0 + x^2 P1 as a sympy expression."""
    phi = ry.build_phi(family, n)
    return (sum(c * y**j for j, c in enumerate(phi.p0))
            + x**2 * sum(c * y**j for j, c in enumerate(phi.p1)))


def test_phi_backward_error_scales_by_the_term_sizes():
    phi = ry.build_phi(KnotFamily.C2N2, 1)  # (z^2 + z - 1) + x^2 (1 - z)
    assert phi.backward_error(2.0, (3 + 1j * math.sqrt(3)) / 2) < 1e-16
    # at z = 2, x = 1: Phi = 4, term sizes 4 + 2 + 1 + 1 + 2 = 10
    assert phi.backward_error(1.0, 2.0) == pytest.approx(0.4, abs=1e-15)


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
                fv, _, fp, gp = kernel(family, n)(y, 2, 2)
                slope = 2.0 * fv * fp - (1.0 + A * A) * gp
                assert repr(eq.residual_prime(y)) == repr((eq.residual(y), slope))


def test_a_cone_equation_looks_up_its_own_members_kernel():
    # fg is no constructor argument, so it cannot disagree with (family, n)
    eq = ry.build_cone_equation(KnotFamily.C2N3, 2, 0.5)
    assert eq.fg is kernel(KnotFamily.C2N3, 2)
    with pytest.raises(TypeError):
        ry.ConeEquation(KnotFamily.C2N3, 2, 0.5, eq.parasite, eq.moving_coeffs,
                        kernel(KnotFamily.C2N2, 1))


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
def test_closed_form_parasite_is_the_gcd_of_c0_and_c1(family):
    # S_{n-1} - S_{n-2}, times S_n - S_{n-1} for C(2n,-2n): the primitive gcd
    # that the rational Euclid of exactpoly.p_gcd finds
    for n in [m for m in range(-24, 25) if m]:
        c0, c1, parasite = ry._cone_parts(family, n)[:3]
        assert parasite == xp.p_gcd(c0, c1), n


@pytest.mark.parametrize("family", list(KnotFamily))
def test_parasite_roots_are_the_cosines_to_30_digits(family):
    # every root of the parasite factor, as an exact cosine 2cos((2k+1)pi/(2j+1))
    # with j = n - 1 (f = +1) and, for C(2n,-2n), j = n (f = -1)
    with mpmath.workdps(30):
        for n in [m for m in range(-24, 25) if m]:
            parasite = ry._cone_parts(family, n)[2]
            js = (n - 1, n) if family is KnotFamily.C2NMINUS2N else (n - 1,)
            cosines = sorted(2 * mpmath.cos((2 * k + 1) * mpmath.pi / (2 * j + 1))
                             for j in (j if j > 0 else -j - 1 for j in js)
                             for k in range(j))
            assert len(cosines) == len(parasite) - 1
            for c in cosines:  # each cosine is a root of the exact factor
                scale = sum(abs(a) * abs(c) ** i for i, a in enumerate(parasite))
                assert abs(mpmath.polyval(parasite[::-1], c)) <= 1e-25 * scale
            roots = sorted(ry._parasite_roots(family, n), key=lambda y: y.real)
            assert all(y.imag == 0.0 for y in roots)
            assert max((abs(mpmath.mpf(y.real) - c) for y, c in zip(roots, cosines)),
                       default=0) <= 2e-15, n


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


def test_a_start_on_a_pole_is_spurious_and_only_in_the_full_listing(monkeypatch):
    # y = 0 is the zero of S_1, a pole of f and g at n = 2: the companion
    # solve never returns it, so it is added to the starts by hand
    eq = ry.build_cone_equation(KnotFamily.C2N2, 2, 0.5)
    starts = xp.p_roots(eq.moving_coeffs)
    monkeypatch.setattr(xp, "p_roots", lambda coeffs: starts + [0j])
    assert not ry._certified(eq, 0j)
    full = ry.solve_cone_equation(eq, keep_spurious=True)
    assert [r for r in full if r.spurious] == [ry.RootRecord(0j, math.inf, True)]
    for keep_real in (True, False):
        listing = ry.solve_cone_equation(eq, keep_real=keep_real)
        assert listing and all(r.y != 0 for r in listing)


@pytest.mark.parametrize("family, n, walks", [
    # solving the march's lattice nodes below 2*pi/3 took 598, 2,277 and 901;
    # polishing both members of each conjugate pair took 867, 3,454 and 1,421
    # walks; polishing the exactly real roots too, 1,411, 5,520 and 3,143;
    # marching every seed pair, 2,613, 34,732 and 7,292; before that, residual
    # and slope walked apart: 4,392, 64,035 and 14,603
    (KnotFamily.C2N3, 2, 305),
    (KnotFamily.C2N2, 8, 1146),
    (KnotFamily.C2NMINUS2N, 4, 426),
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


# the non-torus members with |n| <= 4, and C(16,2)
LISTING_MEMBERS = [(family, n) for family in KnotFamily for n in (-4, -3, -2, -1, 1, 2, 3, 4)
                   if not is_torus_member(family, n)] + [(KnotFamily.C2N2, 8)]
LISTING_MODES = ((False, True), (True, True), (False, False))  # (keep_spurious, keep_real)


def _listing_polishing_every_start(eq, keep_spurious, keep_real):
    """solve_cone_equation with no conjugate-pair reuse: every start is
    polished and every kept root runs _unit_f on its own polished value."""
    records = []
    for y0 in xp.p_roots(eq.moving_coeffs):
        if abs(y0 - 2.0) <= ry.SPURIOUS_EPS:
            records.append(ry.RootRecord(y0, math.inf, True))
            continue
        if not keep_real and y0.imag == 0.0 and ry._certified(eq, y0):
            continue
        try:
            y_pol, res = ry._polish(eq, y0)
        except PoleError:
            records.append(ry.RootRecord(y0, math.inf, True))
            continue
        if res > ry.RESIDUAL_TOL and not ry._double_root_excused(eq, y_pol, res):
            raise NonConvergenceError(
                f"root {y0} failed to polish below {ry.RESIDUAL_TOL} (residual {res:.3e})")
        if keep_real or y0.imag != 0.0:
            records.append(ry.RootRecord(y_pol, res, False, ry._unit_f(eq.n, y_pol)))
    if keep_spurious:
        for y0 in ry._parasite_roots(eq.family, eq.n):
            try:
                res = abs(eq.residual(y0))
            except PoleError:
                res = math.inf
            records.append(ry.RootRecord(y0, res, False, True))
    else:
        records = [r for r in records if not r.spurious]
    records.sort(key=lambda r: (r.y.real, r.y.imag))
    return records


def _listing_repr(solve, eq, mode):
    try:
        return repr(solve(eq, *mode))
    except NonConvergenceError as err:
        return repr(err)


@pytest.mark.parametrize("family, n", LISTING_MEMBERS)
def test_listings_equal_polishing_every_start_bit_for_bit(family, n):
    # the conjugate twin of a polished non-real start gets the conjugate
    # record: conjugate inputs give conjugate outputs in the polish and _unit_f
    a_k = critical_angle(family, n)
    # the march's lattice nodes below a_K (the set-up solves those past
    # 2*pi/3 - MARCH_STEP), a hyperbolic and a spherical grid
    march = [geometry.ALPHA_SEED + k * geometry.MARCH_STEP
             for k in range(int((a_k - geometry.ALPHA_SEED) / geometry.MARCH_STEP) + 1)]
    fractions = (0.1, 0.3, 0.5, 0.7, 0.9)
    grids = [f * a_k for f in fractions] + [a_k + f * (math.pi - a_k) for f in fractions]
    for alpha in march + grids:
        eq = ry.build_cone_equation(family, n, 1.0 / math.tan(0.5 * alpha))
        for mode in LISTING_MODES:
            assert (_listing_repr(ry.solve_cone_equation, eq, mode)
                    == _listing_repr(_listing_polishing_every_start, eq, mode)), (alpha, mode)


def _counted_polish(monkeypatch):
    starts = []
    polish = ry._polish
    monkeypatch.setattr(ry, "_polish", lambda eq, y: starts.append(y) or polish(eq, y))
    return starts


@pytest.mark.parametrize("mode", LISTING_MODES, ids=("default", "keep_spurious", "non_real"))
def test_each_conjugate_pair_is_polished_once(mode, monkeypatch):
    eq = ry.build_cone_equation(KnotFamily.C2N2, 8, 1.0 / math.tan(0.5))
    starts = xp.p_roots(eq.moving_coeffs)
    non_real = [y for y in starts if y.imag != 0.0]
    assert non_real and all(y.conjugate() in non_real for y in non_real)
    polished = _counted_polish(monkeypatch)
    records = ry.solve_cone_equation(eq, *mode)
    polished_non_real = [y for y in polished if y.imag != 0.0]
    assert len(polished_non_real) == len(non_real) // 2
    assert not {y.conjugate() for y in polished_non_real} & set(polished_non_real)
    assert sum(r.y.imag != 0.0 for r in records) == len(non_real)


def test_a_start_without_its_conjugate_twin_is_polished(monkeypatch):
    # each second member of a pair becomes a neighbour one ulp off the conjugate
    eq = ry.build_cone_equation(KnotFamily.C2N2, 8, 1.0 / math.tan(0.5))
    starts, seen = [], set()
    for y in xp.p_roots(eq.moving_coeffs):
        if y.imag != 0.0 and y.conjugate() in seen:
            y = complex(math.nextafter(y.real, math.inf), y.imag)
        seen.add(y)
        starts.append(y)
    assert starts != xp.p_roots(eq.moving_coeffs)
    monkeypatch.setattr(xp, "p_roots", lambda coeffs: list(starts))
    polished = _counted_polish(monkeypatch)
    ry.solve_cone_equation(eq)
    assert polished == starts


def test_polish_is_called_only_by_solve_cone_equation():
    # so every polish passes through the conjugate-pair reuse
    users = []
    for path in sorted(Path(ry.__file__).parent.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            users += [(path.name, getattr(stmt, "name", None)) for node in ast.walk(stmt)
                      if (isinstance(node, ast.Name) and node.id == "_polish")
                      or (isinstance(node, ast.Attribute) and node.attr == "_polish")]
    assert users == [("riley.py", "solve_cone_equation")]


@pytest.mark.parametrize("n, alpha", [(13, 0.51), (14, 0.060000000000000005)],
                         ids=("13", "14"))
def test_diverging_newton_polish_raises_a_typed_error(n, alpha):
    # Newton in _polish diverges on these members at these march lattice
    # nodes until S_{n-1}^4 overflows in the residual; the best point so far
    # fails the residual tolerance.  The set-up solves no node below 2*pi/3;
    # both members still end in a typed error there
    eq = ry.build_cone_equation(KnotFamily.C2N3, n, 1.0 / math.tan(0.5 * alpha))
    with pytest.raises(NonConvergenceError, match="failed to polish"):
        ry.solve_cone_equation(eq, False, False)
    with pytest.raises(NonConvergenceError):
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


@pytest.mark.parametrize("alpha", (0.0, -1.0, 7.0, 2 * math.pi, math.nan))
def test_lemma_cd_rejects_an_angle_outside_the_open_interval(alpha):
    # alpha = 0 used to leak ZeroDivisionError from 1/tan(0); the others passed
    with pytest.raises(ValueError, match="cone angle"):
        ry.check_lemma_cd(KnotFamily.C2N2, 1, alpha, 1 + 1j)


def test_a_tiny_angle_raises_value_error():
    # tan(alpha/2) underflows to 0 (cot_half divided by it), and A^2 overflows
    # the float coefficients (np.roots raised LinAlgError on them)
    with pytest.raises(ValueError, match="tan"):
        ry.check_lemma_cd(KnotFamily.C2N2, 1, 5e-324, 1 + 1j)
    with pytest.raises(ValueError, match="overflow"):
        ry.solve_cone_equation(ry.build_cone_equation(KnotFamily.C2N2, 1, 1e200))


def test_unit_f_parasites_are_alpha_independent():
    # parasite roots of C(4,3): zeros of S_1 - S_0 = y - 1, the exact cosine
    # 2cos(pi/3) at every angle
    for A in (0.0, 0.5, 2.0, 1.3):
        eq = ry.build_cone_equation(KnotFamily.C2N3, 2, A)
        paras = [
            r.y for r in ry.solve_cone_equation(eq, keep_spurious=True) if r.unit_f
        ]
        assert len(paras) == 1
        assert paras[0] == pytest.approx(1.0, abs=1e-12)
        fv = eval_f(2, paras[0])
        assert abs(fv * fv - 1.0) < 1e-12
        assert paras == chebyshev.s_diff_zeros(1)


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
