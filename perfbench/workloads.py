"""The four benchmark workloads: inputs from the seed, requests, output gates.

A workload is a list of requests (one pass) built from the seed.  A request
is what a user waits on: one ``conevol sweep`` call, one cross-checked
volume, one critical angle from cold caches, or one suite of the
verification battery.
Each request carries the check that its output must pass; a failed check
counts as a failed item, and the run goes on.

"Cold" means ``geometry.clear_caches()`` plus ``cache_clear()`` on every
``functools`` cache in the package (the exact cone-equation parts and the
Riley polynomial builders), i.e. what a fresh process pays apart from the
import.  ``geometry.clear_caches()`` alone would leave the ``riley`` caches
warm.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import conevol
from conevol import cli, errors, geometry, verify
from conevol.families import ConeManifoldSpec, KnotFamily, is_torus_member
from conevol.volume import compute_volume

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

C2N2, C2N3, C2NM2N = KnotFamily.C2N2, KnotFamily.C2N3, KnotFamily.C2NMINUS2N

# The four members named in ROADMAP, cone-equation degrees 2 to 23.
CURVE_MEMBERS = ((C2N2, 1), (C2N3, 2), (C2NM2N, 4), (C2N2, 8))
# Every non-torus member with |n| <= 4, plus C(16, 2).  Members with known
# defects (wrong a_K for C(2n,-2n) at n >= 8, root-solve failures at
# C(-12, 2) and C(-16, 3)) are left out on purpose.
COLD_MEMBERS = tuple(
    (family, n)
    for family in KnotFamily
    for n in (-4, -3, -2, -1, 1, 2, 3, 4)
    if not is_torus_member(family, n)
) + ((C2N2, 8),)
VERIFY_N = (-2, -1, 1, 2)  # the default of verify.run_suites
VERIFY_MEMBERS = tuple(
    (family, n) for family in KnotFamily for n in VERIFY_N
    if not is_torus_member(family, n)
)

# sweep-curves grids: ascending, one CLI call per regime so that the narrow
# spherical band gets its own points.  A seed picks, per member and regime,
# one of GRID_VARIANTS grids shifted by a fraction of a step; the reference
# output of every variant is recorded in reference.json.
HYP_POINTS = 16
SPH_POINTS = 12
GRID_VARIANTS = 8
GRIDS_PER_PASS = 3  # distinct variants per member and regime in one pass
HYP_LO = 0.05
HYP_EDGE = 0.01  # keeps grids off the 1e-3 window where Schlaefli replaces the contour
SPH_EDGE_FRAC = 0.03

# certify-scattered: one random angle per stratum, per member and regime.
CERT_STRATA = 12
# A real root of the C(8,-8) cone equation crosses the y = 2 pole at
# alpha = 0.25066.  A cross-check below that angle integrates through it, and
# the root solve can raise NonConvergenceError there (ROADMAP Open item 2:
# a genuine root beside the pole misses RESIDUAL_TOL).  Like the members of
# Open items 1 and 2, that range is left out until the defect is fixed;
# tests/test_perfbench.py pins a failing angle.
CERT_HYP_LO = {(C2NM2N, 4): 0.26}
CERT_SCHLAFLI_TOL = 1e-7  # the bounds of tests/test_certification_sweep.py
CERT_IMAG_TOL = 1e-7
ALPHA_K_TOL = 1e-12


def member_key(family: KnotFamily, n: int) -> str:
    return f"{family.value}:{n}"


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cold() -> None:
    """Empty every cache of the program (see the module docstring)."""
    geometry.clear_caches()
    for cache in _CACHES:
        cache.cache_clear()


def _find_caches():
    found = {}
    for name, module in sorted(sys.modules.items()):
        if not name.startswith("conevol"):
            continue
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                found[id(value)] = value
    return tuple(found.values())


_CACHES = _find_caches()  # taken before any tracing wrapper is installed


def resolve(members) -> None:
    for family, n in members:
        geometry.critical_angle(family, n)


def extend_traces(members) -> None:
    """Grow each member's lazy spherical trace, in order, up to alpha = pi.

    Every folded angle of the spherical band is at most pi, so afterwards
    requests only read the traces.
    """
    for family, n in members:
        geometry.spherical_length(family, n, math.pi)


def error_kind(exc: BaseException) -> str:
    return "typed" if isinstance(exc, errors.ConevolError) else "raw"


def _kind_of_status(status: str) -> str:
    """Row status 'error:<Type>' of a sweep row, as typed or raw."""
    name = status.partition(":")[2]
    cls = getattr(errors, name, None)
    if isinstance(cls, type) and issubclass(cls, errors.ConevolError):
        return "typed"
    return "raw"


@dataclass
class Request:
    label: str
    call: Callable[[], object]
    check: Callable[[object], list]  # one failure kind per failed item
    items: int = 1
    before: Callable[[], None] | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    items: str  # what throughput_per_s counts
    members: tuple
    warm_up: bool  # extend the lazy spherical traces before the timed loop
    build: Callable[[int, dict, bool], list]


# ---------------------------------------------------------------- sweeps

def sweep_grid(alpha_k: float, regime: str, variant: int):
    """(start, stop, count) of one ascending sweep grid."""
    phase = (variant + 0.5) / GRID_VARIANTS
    if regime == "hyp":
        lo, hi, count = HYP_LO, alpha_k - HYP_EDGE, HYP_POINTS
    else:
        band = 2.0 * math.pi - 2.0 * alpha_k
        lo = alpha_k + SPH_EDGE_FRAC * band
        hi = 2.0 * math.pi - alpha_k - SPH_EDGE_FRAC * band
        count = SPH_POINTS
    step = (hi - lo) / count
    start = lo + phase * step
    return start, start + (count - 1) * step, count


def sweep_key(family, n, regime, variant) -> str:
    return f"{member_key(family, n)}:{regime}:{variant}"


def sweep_argv(family, n, alpha_k, regime, variant, jobs):
    start, stop, count = sweep_grid(alpha_k, regime, variant)
    return [
        "sweep", "--family", family.value, f"--n={n}",
        "--alpha-start", repr(start), "--alpha-stop", repr(stop),
        "--count", str(count), "--jobs", str(jobs),
    ]


def run_cli(argv) -> str:
    """conevol's CLI in-process; returns stdout, raises on a non-zero exit."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"conevol {argv[0]} exited with {code}")
    return out.getvalue()


def _check_sweep(expected: str):
    want = expected.splitlines()

    def check(got: str):
        rows = got.splitlines()
        if rows[:1] != want[:1] or len(rows) != len(want):
            return ["check"] * (len(want) - 1)
        failures = []
        for row, line in zip(rows[1:], want[1:]):
            if row != line:
                status = row.rsplit(",", 1)[-1]
                failures.append(_kind_of_status(status)
                                if status.startswith("error:") else "check")
        return failures

    return check


def build_sweep_curves(seed: int, ref: dict, smoke: bool = False):
    rng = random.Random(seed)
    members = list(CURVE_MEMBERS[:1] if smoke else CURVE_MEMBERS)
    rng.shuffle(members)
    jobs = nproc()
    requests = []
    grids = 1 if smoke else GRIDS_PER_PASS
    for family, n in members:
        alpha_k = ref["members"][member_key(family, n)]
        for regime in ("hyp", "sph"):
            for variant in sorted(rng.sample(range(GRID_VARIANTS), grids)):
                argv = sweep_argv(family, n, alpha_k, regime, variant, jobs)
                expected = ref["sweeps"][sweep_key(family, n, regime, variant)]
                requests.append(Request(
                    label=sweep_key(family, n, regime, variant),
                    call=lambda argv=argv: run_cli(argv),
                    check=_check_sweep(expected),
                    items=len(expected.splitlines()) - 1,
                ))
    return requests


# ------------------------------------------------------------ certified

def certify_angles(seed: int, ref: dict, members, strata: int):
    """Angles in both regimes, shuffled: (family, n, alpha, regime).

    Each member and regime gets one uniform random angle per stratum, so the
    mix of cheap and costly angles in a pass hardly depends on the seed.
    """
    rng = random.Random(seed)
    out = []
    for family, n in members:
        alpha_k = ref["members"][member_key(family, n)]
        band = 2.0 * math.pi - 2.0 * alpha_k
        ranges = (
            ("hyperbolic", CERT_HYP_LO.get((family, n), HYP_LO), alpha_k - HYP_EDGE),
            ("spherical", alpha_k + SPH_EDGE_FRAC * band,
             2.0 * math.pi - alpha_k - SPH_EDGE_FRAC * band),
        )
        for regime, lo, hi in ranges:
            width = (hi - lo) / strata
            out.extend(
                (family, n, lo + (i + rng.random()) * width, regime)
                for i in range(strata)
            )
    rng.shuffle(out)
    return out


def _check_certified(regime: str):
    def check(result):
        ok = (
            result.regime.value == regime
            and result.volume >= 0.0
            and abs(result.volume - result.schlafli_volume) <= CERT_SCHLAFLI_TOL
            and result.imaginary_residual <= CERT_IMAG_TOL
        )
        return [] if ok else ["check"]

    return check


def build_certify_scattered(seed: int, ref: dict, smoke: bool = False):
    members = CURVE_MEMBERS[:1] if smoke else CURVE_MEMBERS
    strata = 2 if smoke else CERT_STRATA
    return [
        Request(
            label=f"{member_key(family, n)}@{alpha!r}",
            call=lambda s=ConeManifoldSpec(family, n, alpha):
                compute_volume(s, cross_check=True),
            check=_check_certified(regime),
        )
        for family, n, alpha, regime in certify_angles(seed, ref, members, strata)
    ]


# ----------------------------------------------------------- cold members

def _check_alpha_k(expected: float):
    def check(alpha_k):
        inside = 2.0 * math.pi / 3.0 <= alpha_k < math.pi
        return [] if inside and abs(alpha_k - expected) <= ALPHA_K_TOL else ["check"]

    return check


def build_members_cold(seed: int, ref: dict, smoke: bool = False):
    members = list(COLD_MEMBERS[:3] if smoke else COLD_MEMBERS)
    random.Random(seed).shuffle(members)
    return [
        Request(
            label=member_key(family, n),
            call=lambda f=family, n=n: geometry.critical_angle(f, n),
            check=_check_alpha_k(ref["members"][member_key(family, n)]),
            before=cold,
        )
        for family, n in members
    ]


# ---------------------------------------------------------------- verify

SMOKE_SUITES = ("pell-identity", "lemma-cd")


def _check_suite(results):
    return [] if len(results) == 1 and results[0].passed else ["check"]


def build_verify_battery(seed: int, ref: dict, smoke: bool = False):
    """One request per suite, in battery order, caches emptied before the first.

    A pass is therefore one `conevol verify` with default members.  The
    battery samples with its own fixed seeds; the workload seed has nothing
    to vary here.
    """
    names = SMOKE_SUITES if smoke else tuple(verify.ALL_SUITES)
    return [
        Request(
            label=name,
            call=lambda name=name: verify.run_suites([name]),
            check=_check_suite,
            before=cold if i == 0 else None,
        )
        for i, name in enumerate(names)
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep-curves",
            "conevol sweep over both regimes of the four ROADMAP members; "
            "contour layer, warm member caches",
            "volumes", CURVE_MEMBERS, True, build_sweep_curves,
        ),
        Workload(
            "certify-scattered",
            "compute_volume(cross_check=True) at shuffled stratified angles; "
            "Schlaefli nodes and root solves",
            "volumes", CURVE_MEMBERS, True, build_certify_scattered,
        ),
        Workload(
            "members-cold",
            "critical_angle from empty caches for 22 members; branch marching "
            "and root solves, contour layer idle",
            "members", COLD_MEMBERS, False, build_members_cold,
        ),
        Workload(
            "verify-battery",
            "conevol verify from cold caches; the only Phi, lemma-cd and w12 "
            "path",
            "suites", VERIFY_MEMBERS, False, build_verify_battery,
        ),
    )
}

# The workloads BENCHMARK.json names.  The host these were tuned on slows
# down by up to 1.6x for minutes at a time; with two workloads each run can
# measure 45 s, and these two still reach every layer (cli only through
# sweep, verify and Phi only through the battery).  The other two stay
# runnable by name.
BENCHMARKED = ("sweep-curves", "verify-battery")

PROGRAM_VERSION = conevol.__version__
