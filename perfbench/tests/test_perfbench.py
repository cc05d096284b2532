"""Tests of the benchmark itself, at smoke size.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import copy
import json
import re
import shutil
import subprocess
import sys

import pytest

import run
import tracing
import workloads as wl

NAME = re.compile(r"[A-Za-z0-9_.-]+")
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_metric_names_are_well_formed_and_match_benchmark_json():
    e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert e2e == run.END_TO_END
    assert layer == run.PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(wl.BENCHMARKED)
    assert set(wl.BENCHMARKED) <= set(wl.WORKLOADS)
    for name in [*e2e, *layer, *wl.WORKLOADS]:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert set(run.VERIFY_SUITES) == set(wl.verify.ALL_SUITES)


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_smoke_run_is_correct_and_reports_every_metric(name):
    report = run.run_workload(name, seed=3, seconds=0, trace=False, smoke=True)
    result = report["result"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert report["provenance"]["samples"]["passes"] >= run.MIN_PASSES


def test_same_seed_same_inputs_other_seed_other_inputs():
    ref = wl.load_reference()
    labels = lambda seed: [r.label for r in wl.build_certify_scattered(seed, ref)]
    assert labels(5) == labels(5)
    assert labels(5) != labels(6)


def _perturbed(mutate):
    ref = copy.deepcopy(wl.load_reference())
    mutate(ref)
    return lambda path=None: ref


def test_gate_counts_a_wrong_critical_angle_and_goes_on(monkeypatch):
    key = wl.member_key(*wl.COLD_MEMBERS[0])

    def mutate(ref):
        ref["members"][key] += 1e-9

    monkeypatch.setattr(wl, "load_reference", _perturbed(mutate))
    report = run.run_workload("members-cold", seed=3, seconds=0, trace=False,
                              smoke=True)
    passes = report["provenance"]["samples"]["passes"]
    assert report["result"]["correct"] is False
    assert report["failures"] == {"check": passes}
    assert report["result"]["attempted"] == 3 * passes


def test_gate_counts_a_wrong_sweep_row(monkeypatch):
    family, n = wl.CURVE_MEMBERS[0]

    def mutate(ref):
        for regime in ("hyp", "sph"):
            for v in range(wl.GRID_VARIANTS):
                key = wl.sweep_key(family, n, regime, v)
                lines = ref["sweeps"][key].splitlines(keepends=True)
                lines[2] = lines[2].replace(",ok", ",0k")
                ref["sweeps"][key] = "".join(lines)

    monkeypatch.setattr(wl, "load_reference", _perturbed(mutate))
    report = run.run_workload("sweep-curves", seed=3, seconds=0, trace=False,
                              smoke=True)
    passes = report["provenance"]["samples"]["passes"]
    assert report["failures"] == {"check": 2 * passes}
    assert report["result"]["failed"] == 2 * passes


@pytest.mark.parametrize("name", ["sweep-curves", "certify-scattered"])
def test_traced_counters_repeat_exactly(name):
    def counts():
        report = run.run_workload(name, seed=4, seconds=0, trace=True, smoke=True)
        assert report["result"]["correct"]
        metrics = report["result"]["metrics"]
        assert set(metrics) == set(run.PER_LAYER)
        return {k: m["value"] for k, m in metrics.items() if m["unit"] == "count"}

    first = counts()
    assert first["riley.solve.calls"] > 0 and first["chebyshev.eval.calls"] > 0
    assert counts() == first


def test_tracer_is_removed_after_a_traced_run():
    from conevol import geometry, volume

    before = (volume.eval_f_prime, geometry.solve_cone_equation,
              volume.BranchTracker.__init__)
    run.run_workload("certify-scattered", seed=4, seconds=0, trace=True, smoke=True)
    after = (volume.eval_f_prime, geometry.solve_cone_equation,
             volume.BranchTracker.__init__)
    assert before == after


def test_times_are_normalised_by_the_readings_beside_them(monkeypatch):
    readings = iter([1.0, 3.0, 2.0, 6.0, 5.0] * 10)
    monkeypatch.setattr(run.calibrate, "reading", lambda: next(readings) * run.calibrate.REF_S)
    requests = [wl.Request(label=str(i), call=lambda: None, check=lambda out: [])
                for i in range(4)]
    tally = run.Tally()
    run.run_pass(requests, tally, wl)
    wall, norm = tally.latencies[0], tally.normalised[0]
    assert norm == pytest.approx([w / m for w, m in zip(wall, (2.0, 2.5, 4.0, 5.5))])


def test_self_time_subtracts_the_union_of_children():
    t = tracing.Tracer()
    t.spans = [
        (1, "cli.sweep", 0.0, 10.0, None, 1),
        (2, "volume.compute", 1.0, 4.0, 1, 2),
        (3, "volume.compute", 3.0, 6.0, 1, 3),  # overlaps on another thread
        (4, "volume.hyp", 3.5, 5.0, 3, 3),  # grandchild: not subtracted again
        (5, "geometry.critical", 9.0, 12.0, 1, 1),  # clipped to the parent
    ]
    assert t.self_seconds("cli.sweep") == pytest.approx(10.0 - 5.0 - 1.0)


def test_benchmark_alone_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "members-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.xfail(raises=wl.errors.NonConvergenceError, strict=True,
                   reason="ROADMAP Open item 2: root beside the y = 2 pole rejected")
def test_cross_check_below_the_pole_crossing_of_c8_minus8():
    """Why certify-scattered starts C(8,-8) at CERT_HYP_LO: this still fails."""
    spec = wl.ConeManifoldSpec(wl.C2NM2N, 4, 0.20626735472821622)
    wl.compute_volume(spec, cross_check=True)
