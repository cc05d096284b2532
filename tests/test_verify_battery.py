"""The built-in verification battery: the default run passes end to end."""

import ast
import cmath
import math
from pathlib import Path

import numpy as np
import pytest

from conevol import geometry, verify
from conevol.errors import NonConvergenceError
from conevol.families import KnotFamily, is_torus_member
from conevol.representation import w12_closed_form, word_12
from conevol.riley import PHI_ROOT_TOL, build_phi
from conevol.verify import (
    ALL_SUITES,
    DEFAULT_N,
    W12_SEED,
    W12_TOL,
    run_suites,
    suite_lemma_cd,
    suite_pell,
    suite_representation,
    suite_w12,
)

from oracles import phi_roots_60


def test_default_battery_all_pass():
    results = run_suites()
    assert len(results) == 6
    for r in results:
        assert r.passed, f"{r.name}: {r.detail}"


def test_suite_filter():
    results = run_suites(names=["pell-identity"])
    assert [r.name for r in results] == ["pell-identity"]
    assert results[0].passed


def test_an_unknown_suite_name_raises():
    # an empty result list would read as a passing battery: all([]) is True
    with pytest.raises(ValueError, match=r"unknown suites \['nope'\]"):
        run_suites(["nope", "pell-identity"])


def test_pell_metric_is_pinned():
    # (S_{k-1}, S_k) from one walk is the sequence two walks gave, bit for bit
    assert repr(suite_pell().metric) == "4.228706907417768e-16"


def test_phi_root_metrics_are_pinned():
    # both suites read the polished cone roots and lemma-cd scores them by
    # Phi's backward error, so a change to the cone solve or to how Phi is
    # built or evaluated shows here first
    assert repr(suite_lemma_cd().metric) == "8.658352797442317e-16"
    assert repr(suite_w12().metric) == "4.112398564494648e-14"


def test_suite_registry_names():
    assert set(ALL_SUITES) == {
        "pell-identity",
        "lemma-cd",
        "representation-oracle",
        "w12-closed-form",
        "schlafli-consistency",
        "symmetry",
    }


def test_representation_suite_computes_no_singular_length(monkeypatch):
    # the suite reads only roots; classify would add one matrix longitude per
    # hyperbolic angle (54 in the default run)
    for family in KnotFamily:
        for n in DEFAULT_N:
            if not is_torus_member(family, n):
                geometry.critical_angle(family, n)
    calls = []
    lengths = geometry._lengths
    monkeypatch.setattr(
        geometry, "_lengths", lambda *args: calls.append(args) or lengths(*args)
    )
    assert suite_representation().passed
    assert calls == []


def test_w12_closed_form_of_c12_minus3_at_60_digit_roots():
    # at exact roots of Phi the literal word and the closed form agree (gap
    # about 4e-13), and at the polished cone roots the suite reads (6.4e-13).
    # suite_w12(n_values=(-6,)) draws six angles per family in KnotFamily
    # order, so C(-12,3) gets the second six
    rng = np.random.default_rng(W12_SEED)
    angles = [rng.uniform(0.3, math.pi - 0.3) for _ in range(12)][6:]
    family, n = KnotFamily.C2N3, -6
    worst = 0.0
    for alpha in angles:
        m = cmath.exp(0.5j * alpha)
        for y in phi_roots_60(family.value, n, alpha):
            gap = abs(word_12(family, n, m, y) - w12_closed_form(family, n, m, y))
            worst = max(worst, gap)
    assert worst <= W12_TOL


def test_w12_suite_passes_at_n_minus_6():
    assert suite_w12(n_values=(-6,)).passed


def _lemma_cd_with(monkeypatch, edit):
    """suite_lemma_cd at n = 2 with each angle's cone roots passed through edit."""
    # the suite's panel (geometry._panel_roots) lists each angle by _moving_roots
    solve = geometry._moving_roots
    monkeypatch.setattr(geometry, "_moving_roots", lambda *args: edit(solve(*args)))
    return suite_lemma_cd(n_values=(2,))


def test_lemma_cd_fails_when_a_root_is_missing(monkeypatch):
    r = _lemma_cd_with(monkeypatch, lambda ys: ys[1:])
    assert not r.passed and r.metric == math.inf
    assert "n=2 alpha=" in r.detail and "cone roots for deg Phi" in r.detail


def test_lemma_cd_fails_when_a_root_is_repeated(monkeypatch):
    # the count holds, but a double listing leaves one root of Phi unmatched
    r = _lemma_cd_with(monkeypatch, lambda ys: ys[:-1] + ys[:1])
    assert not r.passed and r.metric == math.inf
    assert "least separation 0.00e+00" in r.detail


def test_lemma_cd_fails_when_a_root_is_off_by_1e_minus_6(monkeypatch):
    r = _lemma_cd_with(monkeypatch, lambda ys: [ys[0] + 1e-6] + ys[1:])
    assert not r.passed
    assert PHI_ROOT_TOL < r.metric < math.inf


@pytest.mark.parametrize("n", (-8, -6, 6, 8))
def test_phi_root_suites_pass_beyond_n_5(n):
    # a second np.roots solve of Phi missed the cone roots by 4.5e-7 from
    # |n| = 9 on, and the word gap at its roots passed W12_TOL from |n| = 6 on
    results = run_suites(["lemma-cd", "w12-closed-form"], n_values=(n,))
    assert [r.name for r in results] == ["lemma-cd", "w12-closed-form"]
    for r in results:
        assert r.passed, f"{r.name}: {r.detail}"


def test_representation_grid_stays_in_the_spherical_band():
    # for C(16,-16), a_K + 0.05 lies past 2*pi - a_K: the grid raised ValueError
    results = run_suites(["representation-oracle"], n_values=(8,))
    assert len(results) == 1
    assert results[0].passed, results[0].detail


@pytest.mark.xfail(
    strict=True, raises=NonConvergenceError,
    reason="ROADMAP items 2(a) and 18: the first grid angle 0.1 is the pole-crossing "
    "angle of C(20,-20) and C(-20,20), where the real root 2.000006263767758 beside "
    "y = 2 is left with residual 2.48e-5",
)
@pytest.mark.parametrize("n", [10, -10])
def test_representation_oracle_at_the_pole_crossing_of_c20_minus20(n):
    result = suite_representation(n_values=(n,))
    assert result.passed, result.detail


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 2: a start polishes onto the f = +1 parasite "
    "1.98137189207266 and is dropped as unit_f, so Phi's root near "
    "1.98101 + 3.7e-7i has no cone root",
)
def test_c24_3_lists_a_cone_root_for_each_root_of_phi():
    family, n, alpha = KnotFamily.C2N3, 12, 1.547383605066063
    phi = build_phi(family, n)
    degree = len(phi.univariate_in_y(2.0 * math.cos(0.5 * alpha))) - 1
    assert degree == 36
    assert len(geometry._moving_roots(family, n, alpha)) == degree


def _names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.asname or node.name.split(".")[-1]


def test_phi_is_solved_once_and_tested_by_one_tolerance():
    src = Path(verify.__file__).parent
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(src.glob("*.py"))}
    # verify reads the polished cone roots: no second solve of Phi
    assert {"p_roots", "roots"}.isdisjoint(_names(trees["verify.py"]))
    assigned = [
        name for name, tree in trees.items() for node in ast.walk(tree)
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        for leaf in ast.walk(target)
        if isinstance(leaf, ast.Name) and leaf.id == "PHI_ROOT_TOL"
    ]
    assert assigned == ["riley.py"]
    for name in ("geometry.py", "riley.py"):
        text = (src / name).read_text()
        assert "CERT_PHI_TOL" not in text and "LEMMA_CD_TOL" not in text, name
