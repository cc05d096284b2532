"""Sweep grids of the benchmark print exactly their recorded reference CSV.

perfbench/workloads.py builds the sweep-curves grids and perfbench/reference.json
holds the CSV of every grid variant; both are only read here.  Every recorded
grid is pinned: the eight variants of each member and regime.
"""

import sys
from pathlib import Path

import pytest

from conevol import geometry
from conevol import volume as vo

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads as wl  # noqa: E402

REFERENCE = wl.load_reference()
PINS = [
    (family, n, regime, variant)
    for family, n in wl.CURVE_MEMBERS
    for regime in ("hyp", "sph")
    for variant in range(wl.GRID_VARIANTS)
]


@pytest.mark.parametrize("family,n,regime,variant", PINS,
                         ids=[wl.sweep_key(*pin) for pin in PINS])
def test_sweep_grid_prints_its_reference_csv(family, n, regime, variant):
    geometry.clear_caches()  # as in a fresh process
    alpha_k = REFERENCE["members"][wl.member_key(family, n)]
    argv = wl.sweep_argv(family, n, alpha_k, regime, variant, jobs=1)
    assert wl.run_cli(argv) == REFERENCE["sweeps"][wl.sweep_key(family, n, regime, variant)]


@pytest.mark.parametrize("variant, nodes, rounds", [
    (3, 14490, 13), (4, 14238, 13), (6, 13650, 12),
])
def test_seed_one_c8_hyperbolic_grids_take_few_rounds(variant, nodes, rounds, monkeypatch):
    # C(8,-8)'s hyperbolic grids of a seed-1 sweep-curves pass, one
    # compute_volumes call each: a leg that evaluates the halves of every
    # panel it is certain to split cut their rounds from 40, 40 and 38 at
    # the same nodes; fewer nodes would mean a changed quadrature
    family, n = wl.C2NM2N, 4
    counts = {"nodes": 0, "rounds": 0}
    round_ = vo._round

    def counted_round(integrands, panels, tables):
        counts["nodes"] += len(vo._PANEL) * len(panels)
        counts["rounds"] += 1
        return round_(integrands, panels, tables)

    monkeypatch.setattr(vo, "_round", counted_round)
    geometry.clear_caches()
    alpha_k = REFERENCE["members"][wl.member_key(family, n)]
    wl.run_cli(wl.sweep_argv(family, n, alpha_k, "hyp", variant, jobs=1))
    assert counts == {"nodes": nodes, "rounds": rounds}
