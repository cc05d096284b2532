"""Record reference.json: the outputs the benchmark gates compare against.

    python3 perfbench/record_reference.py

Stores a_K of every member the workloads touch and the CSV output of every
sweep-curves grid variant, computed by the program of this checkout.  Run it
again only when a change is meant to alter these outputs, and say so.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_program()

import workloads as wl  # noqa: E402


def record() -> dict:
    from conevol import geometry

    members = dict.fromkeys(wl.COLD_MEMBERS + wl.CURVE_MEMBERS + wl.VERIFY_MEMBERS)
    alpha_k = {wl.member_key(f, n): geometry.critical_angle(f, n) for f, n in members}
    sweeps = {}
    for family, n in wl.CURVE_MEMBERS:
        for regime in ("hyp", "sph"):
            for variant in range(wl.GRID_VARIANTS):
                argv = wl.sweep_argv(family, n, alpha_k[wl.member_key(family, n)],
                                     regime, variant, jobs=1)
                csv = wl.run_cli(argv)
                bad = [r for r in csv.splitlines()[1:] if not r.endswith(",ok")]
                if bad:
                    raise SystemExit(f"{argv}: rows not ok: {bad}")
                sweeps[wl.sweep_key(family, n, regime, variant)] = csv
    return {"members": alpha_k, "sweeps": sweeps}


if __name__ == "__main__":
    with open(wl.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(record(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {wl.REFERENCE_PATH}")
