"""The SL(2,C) matrix oracle: words, relation, longitude, complex length."""

import cmath
import math

import numpy as np
import pytest

from conevol import representation as rp
from conevol import riley as ry
from conevol.chebyshev import eval_f
from conevol.errors import BranchError, DegenerateLongitudeError
from conevol.families import ConeManifoldSpec, KnotFamily
from conevol.geometry import classify, critical_angle

from oracles import eval_letters, letters_even, letters_odd, sympy_phi_even


def _random_params(rng):
    m = cmath.exp(complex(rng.uniform(-0.3, 0.3), rng.uniform(-2.0, 2.0)))
    t = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
    return m, t


def test_generator_traces_and_determinants():
    m, y = 0.6 + 0.8j, 1.3 - 0.4j
    for family in (KnotFamily.C2N3, KnotFamily.C2N2):
        A, B = rp.build_matrices(family, m, y)
        assert np.trace(A) == pytest.approx(m + 1 / m)
        assert np.trace(B) == pytest.approx(m + 1 / m)
        assert np.linalg.det(A) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.det(B) == pytest.approx(1.0, abs=1e-12)
    A, B = rp.build_matrices(KnotFamily.C2N3, m, y)
    assert np.trace(A @ B) == pytest.approx(y, abs=1e-12)
    A, B = rp.build_matrices(KnotFamily.C2N2, m, y)
    assert np.trace(A @ rp.mat_inv(B)) == pytest.approx(y, abs=1e-12)


def test_word_base_cases():
    m, y = 0.9 + 0.2j, 0.7 + 0.1j
    A, B = rp.build_matrices(KnotFamily.C2N3, m, y)
    assert np.allclose(rp.word_omega_odd(1, 0, A, B), A @ B)
    A, B = rp.build_matrices(KnotFamily.C2N2, m, y)
    assert np.allclose(rp.word_omega_even(1, 0, A, B), np.eye(2))


@pytest.mark.parametrize("n", (-3, -1, 1, 2, 3))
@pytest.mark.parametrize("p", (-3, -1, 0, 1, 2))
def test_words_match_letter_products(n, p):
    rng = np.random.default_rng(abs(n) * 10 + p + 5)
    m, t = _random_params(rng)
    A, B = rp.build_matrices(KnotFamily.C2N3, m, t)
    assert np.allclose(
        rp.word_omega_odd(n, p, A, B), eval_letters(letters_odd(n, p), A, B), atol=1e-9
    )
    A, B = rp.build_matrices(KnotFamily.C2N2, m, t)
    assert np.allclose(
        rp.word_omega_even(n, p, A, B), eval_letters(letters_even(n, p), A, B),
        atol=1e-9,
    )


def test_inner_block_traces_match_formulas():
    rng = np.random.default_rng(12)
    for _ in range(50):
        m, t = _random_params(rng)
        x = m + 1 / m
        for n in (-3, -2, -1, 1, 2, 3):
            A, B = rp.build_matrices(KnotFamily.C2N3, m, t)
            U = rp.mat_pow(rp.mat_inv(A) @ rp.mat_inv(B), n) @ rp.mat_pow(A @ B, n)
            assert np.trace(U) == pytest.approx(ry.trace_u(n, x, t), rel=1e-9, abs=1e-9)
            A, B = rp.build_matrices(KnotFamily.C2N2, m, t)
            V = rp.mat_pow(rp.mat_inv(A) @ B, n) @ rp.mat_pow(A @ rp.mat_inv(B), n)
            assert np.trace(V) == pytest.approx(ry.trace_u(n, x, t), rel=1e-9, abs=1e-9)


def test_determinant_preserved_through_words():
    # unit-circle meridian eigenvalue, as at every geometric evaluation
    rng = np.random.default_rng(99)
    for _ in range(10):
        m = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        t = complex(rng.uniform(-2.5, 2.5), rng.uniform(-1.5, 1.5))
        for family, n in ((KnotFamily.C2N3, 3), (KnotFamily.C2N2, -3)):
            A, B = rp.build_matrices(family, m, t)
            W = rp.word_value(family, n, A, B)
            assert np.linalg.det(W) == pytest.approx(1.0, abs=1e-10)


def test_residual_matrix_structure():
    # rho(w a) - rho(b w) = [[0, Phi], [kappa Phi, 0]]
    rng = np.random.default_rng(21)
    for family in KnotFamily:
        for n in (-2, 1, 2, 3):
            m, t = _random_params(rng)
            R = rp.relation_residual_matrix(family, n, m, t)
            scale = max(1.0, float(np.linalg.norm(R)))
            assert abs(R[0, 0]) < 1e-10 * scale and abs(R[1, 1]) < 1e-10 * scale
            x = m + 1 / m
            if family is KnotFamily.C2NMINUS2N:
                # the full even Riley polynomial at p = -n, not its holonomy factor
                expr, sx, sy = sympy_phi_even(n, family.word_exponent(n))
                phi = complex(expr.subs({sx: x, sy: t}))
            else:
                phi = ry.build_phi(family, n).eval(x, t)
            kappa = (x * x - 2 - t) if family.is_odd_presentation else (t - 2)
            assert R[0, 1] == pytest.approx(phi, rel=1e-9, abs=1e-9)
            assert R[1, 0] == pytest.approx(kappa * phi, rel=1e-9, abs=1e-9)


def test_residual_iff_riley_root():
    rng = np.random.default_rng(31)
    for family in KnotFamily:
        for n in (-2, 2):
            phi = ry.build_phi(family, n)
            alpha = 1.3
            m = cmath.exp(0.5j * alpha)
            x = 2 * math.cos(alpha / 2)
            for z in np.roots(list(reversed(phi.univariate_in_y(x)))):
                assert rp.relation_residual(family, n, m, complex(z)) < 1e-9
            for _ in range(5):
                t = complex(rng.uniform(-3, 3), rng.uniform(0.2, 2))
                res = rp.relation_residual(family, n, m, t)
                if abs(phi.eval(x, t)) > 1e-3:
                    assert res > 1e-6


def test_w12_closed_forms_at_riley_roots():
    for family in KnotFamily:
        for n in (-3, -2, -1, 1, 2, 3):
            phi = ry.build_phi(family, n)
            alpha = 0.9
            m = cmath.exp(0.5j * alpha)
            x = 2 * math.cos(alpha / 2)
            for z in np.roots(list(reversed(phi.univariate_in_y(x)))):
                z = complex(z)
                lit = rp.word_12(family, n, m, z)
                closed = rp.w12_closed_form(family, n, m, z)
                assert lit == pytest.approx(closed, rel=1e-9, abs=1e-9)


def test_longitude_requires_representation_point():
    with pytest.raises(ValueError):
        rp.longitude_eigenvalue(KnotFamily.C2N2, 1, cmath.exp(0.3j), 2.5 + 1.0j)


def _one_point_longitude(family, n, m, t):
    """longitude_eigenvalue as one point's 2x2 products: the word and the word
    at 1/m, each built and walked alone."""
    A, B = rp.build_matrices(family, m, t)
    W = rp.word_value(family, n, A, B)
    assert np.linalg.norm(W @ A - B @ W) <= 1e-8
    return -rp.word_12(family, n, 1.0 / m, t) / complex(W[0, 1])


CURVE_MEMBERS = [(KnotFamily.C2N2, 1), (KnotFamily.C2N3, 2), (KnotFamily.C2NMINUS2N, 4),
                 (KnotFamily.C2N2, 8)]


@pytest.mark.parametrize("family,n", CURVE_MEMBERS)
def test_stacked_longitudes_equal_the_one_point_products_bit_for_bit(family, n):
    a_k = critical_angle(family, n)
    alphas = [a_k * k / 12.0 for k in range(1, 12)]
    ms = [cmath.exp(0.5j * alpha) for alpha in alphas]
    ys = [_selected(family, n, alpha).roots[0] for alpha in alphas]
    want = [repr(_one_point_longitude(family, n, m, y)) for m, y in zip(ms, ys)]
    assert [repr(ell) for ell in rp.longitude_eigenvalues(family, n, ms, ys)] == want
    assert [repr(rp.longitude_eigenvalue(family, n, m, y)) for m, y in zip(ms, ys)] == want


def _zero_word_at(index, monkeypatch):
    """Make the word of the point at index the zero matrix: relation residual
    0 and W_12 = 0."""
    word = rp.word_value

    def zeroed(family, n, A, B):
        W = word(family, n, A, B).copy()
        W[index] = 0.0
        return W

    monkeypatch.setattr(rp, "word_value", zeroed)


def test_stacked_longitudes_keep_both_checks_in_point_order(monkeypatch):
    family, n = KnotFamily.C2N2, 1
    ms = [cmath.exp(0.45j), cmath.exp(0.5j)]
    good = [_selected(family, n, 2.0 * cmath.phase(m)).roots[0] for m in ms]
    off = 2.5 + 1.0j  # no representation point
    with pytest.raises(ValueError, match="representation point"):
        rp.longitude_eigenvalues(family, n, ms, [good[0], off])
    _zero_word_at(1, monkeypatch)
    with pytest.raises(DegenerateLongitudeError):
        rp.longitude_eigenvalues(family, n, ms, good)
    # the first failing point raises, whichever check it fails
    with pytest.raises(ValueError, match="representation point"):
        rp.longitude_eigenvalues(family, n, ms, [off, good[1]])
    monkeypatch.undo()
    _zero_word_at(0, monkeypatch)
    with pytest.raises(DegenerateLongitudeError):
        rp.longitude_eigenvalues(family, n, ms, [good[0], off])
    with pytest.raises(DegenerateLongitudeError):
        rp.longitude_eigenvalue(family, n, ms[0], good[0])


def _selected(family, n, alpha):
    return classify(ConeManifoldSpec(family, n, alpha))


def test_f_identity_and_lengths_hyperbolic():
    for family, n in ((KnotFamily.C2N2, 1), (KnotFamily.C2N3, 1),
                      (KnotFamily.C2NMINUS2N, 2), (KnotFamily.C2N3, -2)):
        alpha = 0.9
        res = _selected(family, n, alpha)
        y0 = res.roots[0]
        m = cmath.exp(0.5j * alpha)
        ell = rp.longitude_eigenvalue(family, n, m, y0)
        assert rp.f_identity_gap(family, n, m, y0, ell) < 1e-8
        assert abs(ell) > 1.0  # positive real length
        # conjugate root carries the inverse magnitude
        ell_bar = rp.longitude_eigenvalue(family, n, m, y0.conjugate())
        assert abs(ell_bar * ell.conjugate()) == pytest.approx(1.0, abs=1e-8)


def test_f_identity_and_unit_ell_spherical():
    for family, n in ((KnotFamily.C2N2, 1), (KnotFamily.C2N3, 1),
                      (KnotFamily.C2NMINUS2N, 2)):
        a_k = critical_angle(family, n)
        alpha = a_k + 0.3
        res = _selected(family, n, alpha)
        m = cmath.exp(0.5j * alpha)
        for y in res.roots:
            assert abs(eval_f(n, complex(y)).imag) <= 1e-8
            ell = rp.longitude_eigenvalue(family, n, m, complex(y))
            assert abs(abs(ell) - 1.0) <= 1e-8
            assert rp.f_identity_gap(family, n, m, complex(y), ell) < 1e-8


def test_literal_longitude_matrix():
    # rho(w*) rho(w) is upper triangular with ell in the (2,2) slot
    for family, n in ((KnotFamily.C2N3, 1), (KnotFamily.C2N3, -2),
                      (KnotFamily.C2N2, 2), (KnotFamily.C2NMINUS2N, 2)):
        alpha = 0.8
        res = _selected(family, n, alpha)
        y0 = res.roots[0]
        m = cmath.exp(0.5j * alpha)
        L = rp.longitude_matrix(family, n, m, y0)
        ell = rp.longitude_eigenvalue(family, n, m, y0)
        assert abs(L[1, 0]) < 1e-9
        assert L[1, 1] == pytest.approx(ell, rel=1e-9)


def test_complex_length_branch_and_crosscheck():
    for family, n in ((KnotFamily.C2N2, 1), (KnotFamily.C2N3, 2),
                      (KnotFamily.C2NMINUS2N, -2)):
        alpha = 1.1
        res = _selected(family, n, alpha)
        y0 = res.roots[0]
        data = rp.holonomy_data(family, n, alpha, y0, with_length=True)
        gamma = data.complex_length
        assert gamma.real > 0
        assert -2 * math.pi <= gamma.imag < 2 * math.pi
        assert gamma.real == pytest.approx(data.real_length, abs=1e-9)
        # the conjugate root has negative real length: branch failure
        with pytest.raises(BranchError):
            ell_bar = rp.longitude_eigenvalue(
                family, n, cmath.exp(0.5j * alpha), y0.conjugate()
            )
            rp.complex_length(family, n, alpha, y0.conjugate(), ell_bar)


def test_length_vanishes_at_transition():
    # l ~ c * sqrt(a_K - alpha): check the vanishing at its actual rate
    for family, n in ((KnotFamily.C2N2, 1), (KnotFamily.C2N3, 1)):
        a_k = critical_angle(family, n)
        lengths = []
        for delta in (1e-3, 1e-5, 1e-7):
            res = _selected(family, n, a_k - delta)
            data = rp.holonomy_data(family, n, a_k - delta, res.roots[0])
            lengths.append(data.real_length)
        assert 0 < lengths[2] < lengths[1] < lengths[0] < 0.2
        assert lengths[1] < 0.02 and lengths[2] < 0.002
        # square-root scaling: l/sqrt(delta) roughly constant
        ratios = [l / math.sqrt(d) for l, d in zip(lengths, (1e-3, 1e-5, 1e-7))]
        assert max(ratios) < 1.05 * min(ratios)
