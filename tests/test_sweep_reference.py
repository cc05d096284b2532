"""Sweep grids of the benchmark print exactly their recorded reference CSV.

perfbench/workloads.py builds the sweep-curves grids and perfbench/reference.json
holds the CSV of every grid variant; both are only read here.  One variant per
member and regime is pinned, each of the eight variants once.
"""

import sys
from pathlib import Path

import pytest

from conevol import geometry

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads as wl  # noqa: E402

REFERENCE = wl.load_reference()
PINS = [
    (family, n, regime, (2 * i + j) % wl.GRID_VARIANTS)
    for i, (family, n) in enumerate(wl.CURVE_MEMBERS)
    for j, regime in enumerate(("hyp", "sph"))
]


@pytest.mark.parametrize("family,n,regime,variant", PINS,
                         ids=[wl.sweep_key(*pin) for pin in PINS])
def test_sweep_grid_prints_its_reference_csv(family, n, regime, variant):
    geometry.clear_caches()  # as in a fresh process
    alpha_k = REFERENCE["members"][wl.member_key(family, n)]
    argv = wl.sweep_argv(family, n, alpha_k, regime, variant, jobs=1)
    assert wl.run_cli(argv) == REFERENCE["sweeps"][wl.sweep_key(family, n, regime, variant)]
