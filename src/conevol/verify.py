"""Built-in verification suites (surfaced by the CLI's verify subcommand).

Each suite exercises one invariant web with deterministic sampling and
returns a SuiteResult; the whole battery passes only if every suite does.
Torus-knot members are skipped where a hyperbolic regime is required.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .chebyshev import eval_S_pair
from .errors import ConevolError
from .families import ConeManifoldSpec, KnotFamily, is_torus_member
from .geometry import (_panel_roots, critical_angle, select_hyperbolic_root,
                       select_spherical_roots)
from .representation import relation_residual, w12_closed_form, word_12
from .riley import PHI_ROOT_TOL, build_phi
from .volume import compute_volume

# Each suite's tolerance, sample counts and seed.
PELL_TOL, PELL_SAMPLES, PELL_SEED = 1e-10, 200, 7
LEMMA_CD_ANGLES, LEMMA_CD_TOL, LEMMA_CD_SEED = 20, 1e-7, 11  # TOL: root separation
REPRESENTATION_ANGLES, REPRESENTATION_TOL = 6, 1e-9
W12_TOL, W12_SEED = 1e-9, 13
SCHLAFLI_TOL = 1e-6
SYMMETRY_TOL = 1e-8
DEFAULT_N = (-2, -1, 1, 2)  # twist parameters of the battery without --n


@dataclass
class SuiteResult:
    """passed grades metric, the worst value measured, against the suite tolerance."""

    name: str
    passed: bool
    detail: str
    metric: float


def _default_members(n_values):
    return [
        (family, n)
        for family in KnotFamily
        for n in n_values
        if not is_torus_member(family, n)
    ]


def suite_pell() -> SuiteResult:
    """S_k^2 - y S_k S_{k-1} + S_{k-1}^2 = 1, scaled residual, k in [-6, 8]."""
    rng = np.random.default_rng(PELL_SEED)
    worst = 0.0
    for _ in range(PELL_SAMPLES):
        while True:
            y = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
            if abs(y) <= 4.0:
                break
        for k in range(-6, 9):
            b, a, _, _ = eval_S_pair(k, y)  # (S_{k-1}, S_k) from one walk
            res = abs(a * a - y * a * b + b * b - 1.0)
            scale = max(1.0, abs(a * a), abs(y * a * b), abs(b * b))
            worst = max(worst, res / scale)
    return SuiteResult(
        "pell-identity", worst <= PELL_TOL, f"max scaled residual {worst:.2e}", worst
    )


def suite_lemma_cd(n_values=DEFAULT_N) -> SuiteResult:
    """Zero sets of Phi(2cos(alpha/2), .) and of the cone equation coincide: the
    moving cone roots number deg_y Phi, lie more than LEMMA_CD_TOL apart and pass
    Phi's root test (riley.PHI_ROOT_TOL), so they are all of Phi's roots.
    Each member's angles are solved as one panel (geometry._panel_roots)."""
    rng = np.random.default_rng(LEMMA_CD_SEED)
    worst = 0.0
    checked = 0
    for family in KnotFamily:
        for n in n_values:
            phi = build_phi(family, n)
            alphas = [rng.uniform(0.2, math.pi - 0.2) for _ in range(LEMMA_CD_ANGLES)]
            for alpha, ys in zip(alphas, _panel_roots(family, n, alphas, [True] * len(alphas))):
                x = 2.0 * math.cos(0.5 * alpha)
                degree = len(phi.univariate_in_y(x)) - 1
                gap = min((abs(a - b) for a, b in combinations(ys, 2)), default=math.inf)
                if len(ys) != degree or gap <= LEMMA_CD_TOL:
                    return SuiteResult("lemma-cd", False, f"{family.value} n={n} "
                                       f"alpha={alpha:.4f}: {len(ys)} cone roots for deg "
                                       f"Phi {degree}, least separation {gap:.2e}", math.inf)
                worst = max([worst] + [phi.backward_error(x, y) for y in ys])
                checked += 1
    return SuiteResult(
        "lemma-cd", worst <= PHI_ROOT_TOL,
        f"{checked} angle sets, max Phi backward error {worst:.2e}", worst,
    )


def suite_representation(n_values=DEFAULT_N) -> SuiteResult:
    """Selected geometric roots satisfy the defining matrix relation.

    The grid knows each angle's regime, so the roots come from the selectors
    alone: no singular length is computed.
    """
    worst = 0.0
    checked = 0
    for family, n in _default_members(n_values):
        a_k = critical_angle(family, n)

        def spec(alpha):
            return ConeManifoldSpec(family, n, float(alpha))

        selected = [(a, (select_hyperbolic_root(spec(a)),))
                    for a in np.linspace(0.1, a_k - 0.05, REPRESENTATION_ANGLES)]
        # a_K + 0.05 passes pi for C(2n,-2n) from |n| = 5 on; the midpoint does not
        start = min(a_k + 0.05, 0.5 * (a_k + math.pi))
        selected += [(a, select_spherical_roots(spec(a)))
                     for a in np.linspace(start, math.pi, REPRESENTATION_ANGLES)]
        for alpha, ys in selected:
            m = cmath.exp(0.5j * alpha)
            for y in ys:
                worst = max(worst, relation_residual(family, n, m, complex(y)))
                checked += 1
    return SuiteResult(
        "representation-oracle",
        worst <= REPRESENTATION_TOL,
        f"{checked} selected roots, max relation residual {worst:.2e}",
        worst,
    )


def suite_w12(n_values=DEFAULT_N) -> SuiteResult:
    """Closed-form word (1,2)-entries match literal products at Phi's roots:
    the moving cone roots, which lemma-cd certifies as all of them.  Each
    member's six angles are solved as one panel (geometry._panel_roots)."""
    rng = np.random.default_rng(W12_SEED)
    worst = 0.0
    checked = 0
    for family in KnotFamily:
        for n in n_values:
            alphas = [rng.uniform(0.3, math.pi - 0.3) for _ in range(6)]
            for alpha, zs in zip(alphas, _panel_roots(family, n, alphas, [True] * 6)):
                m = cmath.exp(0.5j * alpha)
                for z in zs:
                    lit = word_12(family, n, m, z)
                    worst = max(worst, abs(lit - w12_closed_form(family, n, m, z)))
                    checked += 1
    return SuiteResult(
        "w12-closed-form", worst <= W12_TOL, f"{checked} roots, max gap {worst:.2e}",
        worst,
    )


def suite_schlafli(n_values=DEFAULT_N) -> SuiteResult:
    """Contour volumes match the Schlaefli length integral."""
    worst = 0.0
    checked = 0
    for family, n in _default_members(n_values):
        a_k = critical_angle(family, n)
        for alpha in (0.6 * a_k, a_k + 0.6 * (math.pi - a_k)):
            r = compute_volume(
                ConeManifoldSpec(family, n, float(alpha)), cross_check=True
            )
            worst = max(worst, abs(r.volume - r.schlafli_volume))
            checked += 1
    return SuiteResult(
        "schlafli-consistency",
        worst <= SCHLAFLI_TOL,
        f"{checked} volumes, max |contour - schlafli| {worst:.2e}",
        worst,
    )


def suite_symmetry(n_values=DEFAULT_N) -> SuiteResult:
    """Vol(alpha) = Vol(2*pi - alpha) across the spherical band."""
    worst = 0.0
    checked = 0
    for family, n in _default_members(n_values):
        a_k = critical_angle(family, n)
        for frac in (0.25, 0.6):
            alpha = a_k + frac * (math.pi - a_k)
            v1 = compute_volume(ConeManifoldSpec(family, n, alpha)).volume
            v2 = compute_volume(
                ConeManifoldSpec(family, n, 2.0 * math.pi - alpha)
            ).volume
            worst = max(worst, abs(v1 - v2))
            checked += 1
    return SuiteResult(
        "symmetry", worst <= SYMMETRY_TOL,
        f"{checked} pairs, max |Vol(a) - Vol(2pi-a)| {worst:.2e}", worst,
    )


ALL_SUITES = {
    "pell-identity": suite_pell,
    "lemma-cd": suite_lemma_cd,
    "representation-oracle": suite_representation,
    "w12-closed-form": suite_w12,
    "schlafli-consistency": suite_schlafli,
    "symmetry": suite_symmetry,
}


def run_suites(names=None, n_values=DEFAULT_N):
    """Run the requested suites (all by default); returns list of SuiteResult.

    A suite that raises a ConevolError fails with metric inf, and the rest
    of the battery still runs.  An unknown name raises ValueError (no empty battery).
    """
    if unknown := sorted(set(names or ()) - set(ALL_SUITES)):
        raise ValueError(f"unknown suites {unknown}; expected some of {sorted(ALL_SUITES)}")
    results = []
    for name, fn in ALL_SUITES.items():
        if names and name not in names:
            continue
        try:
            results.append(fn() if name == "pell-identity" else fn(n_values=n_values))
        except ConevolError as exc:
            results.append(
                SuiteResult(name, False, f"{type(exc).__name__}: {exc}", math.inf)
            )
    return results
