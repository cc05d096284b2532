"""The built-in verification battery: the default run passes end to end."""

from conevol import geometry
from conevol.families import KnotFamily, is_torus_member
from conevol.verify import ALL_SUITES, run_suites, suite_representation


def test_default_battery_all_pass():
    results = run_suites()
    assert len(results) == 6
    for r in results:
        assert r.passed, f"{r.name}: {r.detail}"


def test_suite_filter():
    results = run_suites(names=["pell-identity"])
    assert [r.name for r in results] == ["pell-identity"]
    assert results[0].passed


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
        for n in (-2, -1, 1, 2):
            if not is_torus_member(family, n):
                geometry.critical_angle(family, n)
    calls = []
    length = geometry._length
    monkeypatch.setattr(
        geometry, "_length", lambda *args: calls.append(args) or length(*args)
    )
    assert suite_representation().passed
    assert calls == []
