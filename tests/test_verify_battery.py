"""The built-in verification battery: the default run passes end to end."""

import cmath
import math

import numpy as np
import pytest

from conevol import geometry
from conevol.families import KnotFamily, is_torus_member
from conevol.representation import w12_closed_form, word_12
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
    # np.roots reads Phi's coefficient list in y, so a change to how Phi is
    # built or collapsed at fixed x shows here first
    assert repr(suite_lemma_cd().metric) == "1.280377857346985e-14"
    assert repr(suite_w12().metric) == "1.1071868539771575e-13"


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
    length = geometry._length
    monkeypatch.setattr(
        geometry, "_length", lambda *args: calls.append(args) or length(*args)
    )
    assert suite_representation().passed
    assert calls == []


def test_w12_closed_form_of_c12_minus3_at_60_digit_roots():
    # at exact roots of Phi the literal word and the closed form agree (gap
    # about 4e-13); the suite's gap comes from the np.roots roots.
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


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 2: the np.roots roots of Phi for C(-12,3) are off "
    "enough that the word and its closed form differ by 1.33e-8",
)
def test_w12_suite_passes_at_n_minus_6():
    assert suite_w12(n_values=(-6,)).passed
