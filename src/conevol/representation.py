"""Numerical SL(2,C) holonomy oracle.

Everything here is built from literal 2x2 matrix products so it can certify
the Chebyshev shortcuts independently.  The parametrized generator images
are, for meridian eigenvalue m and trace parameter t,

    odd families  (t = tr(ab)):      A = [[m, 1], [0, 1/m]],  B = [[m, 0], [t - m^2 - m^-2, 1/m]]
    even families (t = tr(a b^-1)):  A = [[m, 1], [0, 1/m]],  B = [[m, 0], [2 - t, 1/m]]

with defining words

    odd:   w = (ab)^n [ (a^-1 b^-1)^n (ab)^n ]^p
    even:  w = [ (a^-1 b)^n (a b^-1)^n ]^p

evaluated by binary exponentiation of the repeated blocks.  The longitude is
w w* a^{-4n} for odd families and w w* for even ones (w* = letters of w
reversed); its upper-left eigenvalue comes out of the (1,2)-entry trick
ell = -W~_12 / W_12, where W~ re-evaluates the word at m -> 1/m.

The words of many points are walked as one (k, 2, 2) stack
(longitude_eigenvalues).  numpy's stacked 2x2 products round as its single
ones do; products written with Python complex scalars would not, since the
BLAS product uses fused multiply-adds.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .chebyshev import eval_S, eval_S_pair, eval_f
from .errors import BranchError, DegenerateLongitudeError
from .families import KnotFamily, validate_family, validate_twist

_IMAG_WINDOW = 2.0 * math.pi  # lifted holonomy angle lives in [-2*pi, 2*pi)


def mat_inv(M: np.ndarray) -> np.ndarray:
    """Inverse of a determinant-1 matrix, or of each in a (k, 2, 2) stack, explicitly."""
    out = np.empty_like(M)
    out[..., 0, 0], out[..., 0, 1] = M[..., 1, 1], -M[..., 0, 1]
    out[..., 1, 0], out[..., 1, 1] = -M[..., 1, 0], M[..., 0, 0]
    return out


def mat_pow(M: np.ndarray, k: int) -> np.ndarray:
    """M^k by binary exponentiation; a (k, 2, 2) stack is powered matrix by matrix."""
    if k < 0:
        return mat_pow(mat_inv(M), -k)
    out = np.eye(2, dtype=complex)
    base = M
    while k:
        if k & 1:
            out = out @ base
        base = base @ base
        k >>= 1
    return out


def build_matrices(family: KnotFamily, m: complex, t: complex):
    """Generator images (A, B) with tr(AB) = t (odd) or tr(A B^-1) = t (even)."""
    A, B = _generator_stacks(family, [m], [t])
    return A[0], B[0]


def _generator_stacks(family: KnotFamily, ms, ts):
    """build_matrices at each (m, t), as two (k, 2, 2) stacks."""
    validate_family(family)
    if 0 in ms:
        raise ValueError("meridian eigenvalue m must be nonzero")
    if family.is_odd_presentation:
        lows = [t - m * m - 1.0 / (m * m) for m, t in zip(ms, ts)]
    else:
        lows = [2.0 - t for t in ts]
    A = np.array([[[m, 1.0], [0.0, 1.0 / m]] for m in ms], dtype=complex)
    B = np.array([[[m, 0.0], [low, 1.0 / m]] for m, low in zip(ms, lows)], dtype=complex)
    return A, B


def word_omega_odd(n: int, p: int, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """(AB)^n [ (A^-1 B^-1)^n (AB)^n ]^p."""
    ab_n = mat_pow(A @ B, validate_twist(n))
    inner = mat_pow(mat_inv(A) @ mat_inv(B), n) @ ab_n
    return ab_n @ mat_pow(inner, p)


def word_omega_even(n: int, p: int, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """[ (A^-1 B)^n (A B^-1)^n ]^p."""
    validate_twist(n)
    inner = mat_pow(mat_inv(A) @ B, n) @ mat_pow(A @ mat_inv(B), n)
    return mat_pow(inner, p)


def word_value(family: KnotFamily, n: int, A: np.ndarray, B: np.ndarray):
    p = family.word_exponent(n)
    if family.is_odd_presentation:
        return word_omega_odd(n, p, A, B)
    return word_omega_even(n, p, A, B)


def _word_reversed(family: KnotFamily, n: int, A: np.ndarray, B: np.ndarray):
    """The word with its letters written in reversed order."""
    p = family.word_exponent(validate_twist(n))
    if family.is_odd_presentation:
        # w = P Q^p, P = (ab)^n, Q = (a^-1 b^-1)^n (ab)^n
        # w* = (Q*)^p P*, Q* = (ba)^n (b^-1 a^-1)^n, P* = (ba)^n
        ba_n = mat_pow(B @ A, n)
        q_star = ba_n @ mat_pow(mat_inv(B) @ mat_inv(A), n)
        return mat_pow(q_star, p) @ ba_n
    # w = R^p, R = (a^-1 b)^n (a b^-1)^n; R* = (b^-1 a)^n (b a^-1)^n
    r_star = mat_pow(mat_inv(B) @ A, n) @ mat_pow(B @ mat_inv(A), n)
    return mat_pow(r_star, p)


def longitude_matrix(family: KnotFamily, n: int, m: complex, t: complex):
    """Literal product rho(w*) rho(w), the reversed word times the word.

    At representation parameters this commutes with the meridian image, so it
    is upper triangular, and its (2,2)-entry equals the eigenvalue ell
    returned by longitude_eigenvalue (for odd families w* w is the canonical
    longitude times a^{4n}, which is where the m^{4n} factor in ell lives).
    """
    A, B = build_matrices(family, m, t)
    return _word_reversed(family, n, A, B) @ word_value(family, n, A, B)


def relation_residual(family: KnotFamily, n: int, m: complex, t: complex) -> float:
    """Frobenius norm of rho(w a) - rho(b w); zero exactly at Riley roots."""
    return float(np.linalg.norm(relation_residual_matrix(family, n, m, t)))


def relation_residual_matrix(family: KnotFamily, n: int, m: complex, t: complex):
    A, B = build_matrices(family, m, t)
    W = word_value(family, n, A, B)
    return W @ A - B @ W


def word_12(family: KnotFamily, n: int, m: complex, t: complex) -> complex:
    """(1,2)-entry of the word image, from the literal product."""
    A, B = build_matrices(family, m, t)
    return complex(word_value(family, n, A, B)[0, 1])


def w12_closed_form(family: KnotFamily, n: int, m: complex, y: complex) -> complex:
    """Closed form of the word (1,2)-entry, valid at Riley roots:

    odd:   (m^-1 - m (S_n - S_{n-1}) / (S_{n-1} - S_{n-2})) * S_p(u) * S_{n-1}(y)
    even:  (m (S_n - S_{n-1}) - m^-1 (S_{n-1} - S_{n-2})) * S_{n-1}(y) * S_{p-1}(u)
    """
    p = family.word_exponent(validate_twist(n))
    s_nm2, s_nm1, _, _ = eval_S_pair(n - 1, y)  # two walks of y in all
    s_n = eval_S_pair(n, y)[1]
    x = m + 1.0 / m
    u = 2 + (y - 2) * (y + 2 - x * x) * s_nm1 * s_nm1  # riley.trace_u, from this walk
    if family.is_odd_presentation:
        ratio = (s_n - s_nm1) / (s_nm1 - s_nm2)
        return (1.0 / m - m * ratio) * eval_S(p, u) * s_nm1
    lead = m * (s_n - s_nm1) - (1.0 / m) * (s_nm1 - s_nm2)
    return lead * s_nm1 * eval_S(p - 1, u)


def longitude_eigenvalue(family: KnotFamily, n: int, m: complex, t: complex) -> complex:
    """ell = -W~_12 / W_12 with W~ the word re-evaluated at m -> 1/m.

    For odd families this equals l * m^{4n} with l the longitude eigenvalue
    proper; for even families it is l itself.  Requires representation
    parameters (relation residual <= 1e-8).  The one-point call of
    longitude_eigenvalues.
    """
    return longitude_eigenvalues(family, n, [m], [t])[0]


def longitude_eigenvalues(family: KnotFamily, n: int, ms, ts) -> list:
    """longitude_eigenvalue at each (m, t), from one walk of the stacked words.

    The words at every (m, t) and (1/m, t) are one (2k, 2, 2) stack, walked
    by the literal products above; stacked 2x2 products round as the single
    ones do, so each ell is the one-point value bit for bit.  The points are
    checked in order, each for its relation residual and then its W_12, and
    the first failure raises.
    """
    k = len(ms)
    A, B = _generator_stacks(family, [*ms, *(1.0 / m for m in ms)], [*ts, *ts])
    words = word_value(family, n, A, B)
    W = words[:k]
    residuals = W @ A[:k] - B[:k] @ W  # relation_residual_matrix, from this W
    out = []
    for i in range(k):
        res = float(np.linalg.norm(residuals[i]))
        if res > 1e-8:
            raise ValueError(
                f"longitude eigenvalue needs a representation point (residual {res:.3e})"
            )
        w12 = complex(W[i, 0, 1])
        if abs(w12) <= 1e-12:
            raise DegenerateLongitudeError(f"word (1,2)-entry is {w12!r}")
        out.append(-complex(words[k + i, 0, 1]) / w12)
    return out


def f_identity_gap(
    family: KnotFamily, n: int, m: complex, t: complex, ell: complex
) -> float:
    """|f_n(t) - ( -(ell+1)/(ell-1) * (m + 1/m)/(m - 1/m) )|.

    The square-root form of the identity is invariant under the branch flip
    ell^(1/2) -> -ell^(1/2); multiplying through gives this branch-free form.
    The identity is the same for every family; family is validated only.
    """
    validate_family(family)
    rhs = -((ell + 1.0) / (ell - 1.0)) * ((m + 1.0 / m) / (m - 1.0 / m))
    return abs(eval_f(n, t) - rhs)


def _longitude_shift(family: KnotFamily, n: int, alpha: float) -> float:
    """Angle shift between ell and e^{gamma/2}: 4*n*alpha for odd words, 0 for even.

    The odd-family longitude carries the a^{-4n} correction, so
    ell = e^{(gamma + 4*n*i*alpha)/2}; the even-family longitude is bare.
    """
    return 4.0 * n * alpha if validate_family(family).is_odd_presentation else 0.0


def complex_length(
    family: KnotFamily, n: int, alpha: float, y: complex, ell: complex
) -> complex:
    """Complex length gamma = l + i*phi of the singular geodesic, hyperbolic regime.

    Inverts i*coth((gamma + i*shift)/4) * cot(alpha/2) = f_n(y) with the
    branch fixed by Re(gamma) > 0 and Im(gamma) in [-2*pi, 2*pi), then
    cross-checks e^{(gamma + i*shift)/2} against the matrix-derived ell.  The
    4*pi*i shift that lands Im(gamma) in the window is found in closed form:
    the odd-family shift 4*n*alpha reaches about 120 rad at |n| = 12.
    """
    f = eval_f(n, complex(y))
    c = -1j * f * math.tan(0.5 * alpha)
    w = 0.5 * cmath.log((c + 1.0) / (c - 1.0))  # principal arccoth
    shift = _longitude_shift(family, n, alpha)
    base = 4.0 * w - 1j * shift
    if base.real <= 0.0:
        raise BranchError(
            f"no branch with positive real length (Re gamma = {base.real:.3e})"
        )
    k = math.ceil((-_IMAG_WINDOW - base.imag) / (4.0 * math.pi))
    # the quotient can round across an integer where Im(gamma) lies on the
    # window's edge, as the figure-eight's does (+/-2*pi): step k to the least
    # shift that lands at or above -2*pi
    if (base + 4.0j * math.pi * (k - 1)).imag >= -_IMAG_WINDOW:
        k -= 1
    elif (base + 4.0j * math.pi * k).imag < -_IMAG_WINDOW:
        k += 1
    gamma = base + 4.0j * math.pi * k
    if not -_IMAG_WINDOW <= gamma.imag < _IMAG_WINDOW:
        raise BranchError("no 2*pi*i shift lands the holonomy angle in [-2*pi, 2*pi)")
    predicted = cmath.exp(0.5 * (gamma + 1j * shift))
    if abs(predicted - ell) > 1e-6 * max(1.0, abs(ell)):
        raise BranchError(
            f"trig inversion disagrees with longitude eigenvalue: {predicted!r} vs {ell!r}"
        )
    return gamma


@dataclass(frozen=True)
class HolonomyData:
    """Holonomy snapshot at one representation point."""

    longitude_eigenvalue: complex
    complex_length: complex | None = None

    @property
    def real_length(self) -> float:
        """l_alpha = Re(gamma) = 2*log|ell|; branch-free."""
        return 2.0 * math.log(abs(self.longitude_eigenvalue))


def holonomy_data(
    family: KnotFamily,
    n: int,
    alpha: float,
    y: complex,
    with_length: bool = False,
) -> HolonomyData:
    """Build and certify the holonomy data at cone angle alpha and root y."""
    ell = longitude_eigenvalue(family, n, cmath.exp(0.5j * alpha), y)
    gamma = None
    if with_length:
        gamma = complex_length(family, n, alpha, y, ell)
    return HolonomyData(ell, gamma)
