"""conevol benchmark: end-to-end metrics per workload, or a traced per-layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in workloads.py, or ``all``.  The program is
imported from ``src/`` of the same checkout and driven in-process.

Untraced (``--trace 0``): the workload's members are resolved from cold
caches SETUP_REPS times (``setup_s`` is the median); sweep-curves and
certify-scattered then extend the members' lazy spherical traces, untimed;
then complete passes run until ``--seconds`` have gone by, and at least
MIN_PASSES of them.  Every timed set-up and request is bracketed by readings
of a calibration kernel and reported at its reference speed (calibrate.py);
the wall-time figures are printed beside them.

Traced (``--trace 1``): a fixed amount of work, so that the counters repeat
exactly for a seed: one pass runs untraced, then one cold set-up and one
pass run with the tracer installed; ``trace.overhead_ratio`` is traced over
untraced normalised time of set-up plus pass.

Every output a request returns is checked; failures are counted by kind
(``check``: wrong output, ``typed``: a ConevolError, ``raw``: any other
exception) and the run goes on.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPS = 5
MIN_PASSES = 3
CAL_REPS = 5  # kernel readings on each side of a set-up

END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_ms_p50": "ms",
    "latency_ms_p90": "ms",
    "peak_rss_mb": "MB",
}
VERIFY_SUITES = (
    "pell-identity", "lemma-cd", "representation-oracle", "w12-closed-form",
    "schlafli-consistency", "symmetry",
)
PER_LAYER = {
    "riley.solve.calls": "count", "riley.solve.s": "s",
    "riley.newton.steps": "count", "riley.roots": "count",
    "riley.assemble.calls": "count", "riley.assemble.s": "s",
    "chebyshev.eval.calls": "count", "chebyshev.eval.s": "s",
    "exactpoly.phi.calls": "count", "exactpoly.phi.s": "s",
    "exactpoly.gcd.calls": "count",
    "representation.holonomy.calls": "count", "representation.holonomy.s": "s",
    "representation.longitude.calls": "count", "representation.longitude.s": "s",
    "representation.relation.calls": "count", "representation.relation.s": "s",
    "geometry.resolve.calls": "count", "geometry.resolve.s": "s",
    "geometry.classify.calls": "count", "geometry.classify.s": "s",
    "geometry.hyproot.calls": "count", "geometry.hyproot.s": "s",
    "geometry.sphlen.calls": "count", "geometry.sphlen.s": "s",
    "volume.hyp.calls": "count", "volume.hyp.s": "s",
    "volume.sph.calls": "count", "volume.sph.s": "s",
    "volume.integrand.evals": "count",
    "volume.tracker.calls": "count", "volume.tracker.samples": "count",
    "volume.tracker.s": "s",
    "volume.candidates": "count", "volume.candidates.accepted_ratio": "ratio",
    "volume.quad.calls": "count",
    "volume.schlafli.calls": "count", "volume.schlafli.s": "s",
    **{f"verify.{suite}.s": "s" for suite in VERIFY_SUITES},
    "cli.sweep.calls": "count", "cli.sweep.s": "s", "cli.self.s": "s",
    "errors.typed": "count", "errors.raw": "count", "errors.check": "count",
    "error_rate": "ratio",
    "trace.overhead_ratio": "ratio", "trace.spans": "count",
}
# per-layer names that come straight from span or leaf totals
_CALLS_AND_SECONDS = (
    "riley.solve", "riley.assemble", "chebyshev.eval", "exactpoly.phi",
    "representation.holonomy", "representation.longitude",
    "representation.relation", "geometry.resolve", "geometry.classify",
    "geometry.hyproot", "geometry.sphlen", "volume.hyp", "volume.sph",
    "volume.tracker", "volume.schlafli", "cli.sweep",
)


class MissingProgram(Exception):
    pass


def import_program():
    """Put this checkout's src/ first on sys.path and import conevol from it."""
    init = SRC / "conevol" / "__init__.py"
    if not init.is_file():
        raise MissingProgram(f"no conevol package under {SRC}")
    sys.path.insert(0, str(SRC))
    import conevol

    if Path(conevol.__file__).resolve() != init.resolve():
        raise MissingProgram(f"conevol imported from {conevol.__file__}, not {SRC}")
    return conevol


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = git / ref
        if path.is_file():
            return path.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


@dataclass
class Tally:
    attempted: int = 0
    ok_items: int = 0
    failures: Counter = field(default_factory=Counter)
    latencies: list = field(default_factory=list)  # one list per pass
    normalised: list = field(default_factory=list)  # the same, at REF_S speed
    readings: list = field(default_factory=list)  # calibration kernel, seconds
    passes: int = 0
    failed_labels: list = field(default_factory=list)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def run_pass(requests, tally: Tally, wl) -> None:
    """Run every request once, timing only its call."""
    ok = 0
    latencies, normalised = [], []
    cal = calibrate.reading()
    for req in requests:
        if req.before is not None:
            req.before()
        start = time.perf_counter()
        try:
            out = req.call()
        except Exception as exc:  # a failing request is counted, never fatal
            elapsed = time.perf_counter() - start
            kinds = [wl.error_kind(exc)] * req.items
            print(f"request {req.label} raised {type(exc).__name__}: {exc}",
                  file=sys.stderr)
        else:
            elapsed = time.perf_counter() - start
            kinds = req.check(out)
        after = calibrate.reading()
        ok += req.items - len(kinds)
        latencies.append(elapsed)
        normalised.append(elapsed * calibrate.REF_S / (0.5 * (cal + after)))
        tally.readings.append(after)
        cal = after
        tally.attempted += req.items
        tally.failures.update(kinds)
        if kinds:
            tally.failed_labels.append(req.label)
    tally.ok_items += ok
    tally.latencies.append(latencies)
    tally.normalised.append(normalised)
    tally.passes += 1


def _calibration(reps: int = CAL_REPS) -> float:
    return statistics.median(calibrate.reading() for _ in range(reps))


def _setup(wl, members) -> tuple:
    """One set-up from cold caches: (wall seconds, seconds at REF_S speed)."""
    wl.cold()
    cal = _calibration()
    start = time.perf_counter()
    wl.resolve(members)
    elapsed = time.perf_counter() - start
    cal = 0.5 * (cal + _calibration())
    return elapsed, elapsed * calibrate.REF_S / cal


def _merge(*tallies) -> Tally:
    out = Tally()
    for t in tallies:
        out.attempted += t.attempted
        out.ok_items += t.ok_items
        out.failures.update(t.failures)
        out.failed_labels.extend(t.failed_labels)
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False) -> dict:
    """Run one workload; returns the report (result, metrics, provenance)."""
    import numpy
    import workloads as wl

    workload = wl.WORKLOADS[name]
    ref = wl.load_reference()
    requests = workload.build(seed, ref, smoke)
    members = workload.members[:1] if smoke else workload.members
    setup_times = [_setup(wl, members) for _ in range(1 if smoke else SETUP_REPS)]
    if workload.warm_up:
        wl.extend_traces(members)
    raw = None
    if trace:
        metrics, timed, tracer, others = _traced(wl, workload, requests, members,
                                                 setup_times)
    else:
        timed, tracer, others = Tally(), None, Tally()
        start = time.perf_counter()
        while timed.passes < MIN_PASSES or time.perf_counter() - start < seconds:
            run_pass(requests, timed, wl)
        metrics, raw = _end_to_end(setup_times, timed)
    total = _merge(others, timed)
    report = {
        "result": {
            "correct": total.failed == 0,
            "attempted": total.attempted,
            "failed": total.failed,
            "metrics": metrics,
        },
        "failures": dict(total.failures),
        "failed_requests": total.failed_labels,
        "provenance": {
            "workload": name,
            "why": workload.why,
            "seed": seed,
            "seconds": seconds,
            "trace": int(trace),
            "smoke": smoke,
            "nproc": wl.nproc(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "conevol": wl.PROGRAM_VERSION,
            "commit": git_commit(),
            "platform": platform.platform(),
            "calibration": {
                "ref_s": calibrate.REF_S,
                "median_reading_s": statistics.median(timed.readings),
                "readings": len(timed.readings),
            },
            "samples": {
                "setup_reps": len(setup_times),
                "passes": timed.passes,
                "requests": sum(map(len, timed.latencies)),
                "requests_per_pass": len(requests),
                "items": timed.attempted,
                "items_name": workload.items,
            },
        },
    }
    if raw is not None:
        report["wall"] = raw
    if tracer is not None:
        report["spans"] = tracer.spans
    return report


def _end_to_end(setup_times, timed: Tally) -> tuple:
    """The metrics from normalised times, and the same figures from wall times.

    Every time is normalised by the calibration readings beside it (see
    calibrate.py), and each request's figure is the median of its repeats
    over the whole run.  Percentiles are taken over the requests of a pass;
    throughput is the items of a pass over the sum of the requests' figures.
    The wall-time figures (each request's best repeat, the median wall
    set-up) are reported beside them but are not metrics: on a shared host
    they follow its speed.
    """
    def figures(per_request, setup):
        p50, p90 = (statistics.quantiles(per_request, n=100, method="inclusive")[q - 1]
                    if len(per_request) > 1 else per_request[0] for q in (50, 90))
        return {
            "setup_s": statistics.median(setup),
            "throughput_per_s": timed.ok_items / timed.passes / sum(per_request),
            "latency_ms_p50": 1000.0 * p50,
            "latency_ms_p90": 1000.0 * p90,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    metrics = figures([statistics.median(t) for t in zip(*timed.normalised)],
                      [norm for _, norm in setup_times])
    raw = figures([min(t) for t in zip(*timed.latencies)],
                  [wall for wall, _ in setup_times])
    return ({k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()},
            {k: v for k, v in raw.items() if k != "peak_rss_mb"})


def _traced(wl, workload, requests, members, setup_times):
    """One cold set-up and one pass, untraced then traced (see the docstring)."""
    import tracing

    tracer = tracing.Tracer()
    untraced = Tally()
    setup_u = statistics.median(norm for _, norm in setup_times)
    run_pass(requests, untraced, wl)
    pass_u = sum(untraced.normalised[0])
    try:
        tracing.install(tracer)
        setup_t = _setup(wl, members)[1]
    finally:
        tracer.uninstall()
    if workload.warm_up:
        wl.extend_traces(members)  # the cold set-up dropped them
    traced = Tally()
    try:
        tracing.install(tracer)
        run_pass(requests, traced, wl)
    finally:
        tracer.uninstall()
    metrics = per_layer(tracer, traced)
    pass_t = sum(traced.normalised[0])
    metrics["trace.overhead_ratio"] = (setup_t + pass_t) / (setup_u + pass_u)
    out = {k: {"value": metrics[k], "unit": unit} for k, unit in PER_LAYER.items()}
    return out, traced, tracer, untraced


def per_layer(tracer, tally: Tally) -> dict:
    spans, leaves = tracer.span_totals(), tracer.leaf_totals()
    totals = {**leaves, **spans}
    m = {}
    for name in _CALLS_AND_SECONDS:
        calls, secs = totals.get(name, (0, 0.0))
        m[f"{name}.calls"], m[f"{name}.s"] = calls, secs
    m["riley.newton.steps"] = leaves.get("riley.newton", (0, 0.0))[0]
    m["riley.roots"] = tracer.counters["riley.roots"]
    m["exactpoly.gcd.calls"] = leaves.get("exactpoly.gcd", (0, 0.0))[0]
    m["volume.integrand.evals"] = leaves.get("volume.integrand", (0, 0.0))[0]
    m["volume.tracker.samples"] = tracer.counters["volume.tracker.samples"]
    m["volume.candidates"] = tracer.counters["volume.candidates"]
    tried = m["volume.candidates"]
    m["volume.candidates.accepted_ratio"] = m["volume.hyp.calls"] / tried if tried else 0.0
    m["volume.quad.calls"] = spans.get("volume.quad", (0, 0.0))[0]
    for suite in VERIFY_SUITES:
        m[f"verify.{suite}.s"] = spans.get(f"verify.{suite}", (0, 0.0))[1]
    m["cli.self.s"] = tracer.self_seconds("cli.sweep")
    for kind in ("typed", "raw", "check"):
        m[f"errors.{kind}"] = tally.failures[kind]
    m["error_rate"] = tally.failed / tally.attempted
    m["trace.spans"] = len(tracer.spans)
    return m


def describe(report: dict) -> list:
    """Human-readable lines: every metric by name with its unit, plus errors."""
    prov, res = report["provenance"], report["result"]
    s = prov["samples"]
    lines = [
        f"# workload {prov['workload']}  seed {prov['seed']}  trace {prov['trace']}"
        f"  ({s['passes']} passes, {s['requests']} requests, {s['items']} "
        f"{s['items_name']}, setup x{s['setup_reps']})",
    ]
    for name, metric in res["metrics"].items():
        lines.append(f"{name:36s} {metric['value']:>16.6g} {metric['unit']}")
    if prov["trace"]:
        return lines
    for name, value in report["wall"].items():
        lines.append(f"{'wall.' + name:36s} {value:>16.6g} {END_TO_END[name]}"
                     f"  (not normalised)")
    rate = res["failed"] / res["attempted"]
    kinds = report["failures"]
    lines.append(
        f"{'error_rate':36s} {rate:>16.6g} ratio  ({res['failed']} of "
        f"{res['attempted']}; typed {kinds.get('typed', 0)}, raw "
        f"{kinds.get('raw', 0)}, check {kinds.get('check', 0)})"
    )
    return lines


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path,
                   help="also write the full report (and spans, if traced) as JSON")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_program()
    except MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import workloads as wl

    if args.workload != "all" and args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of "
              f"{', '.join(wl.WORKLOADS)} or all", file=sys.stderr)
        return 2
    names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    reports = [run_workload(n, args.seed, args.seconds, bool(args.trace))
               for n in names]
    for report in reports:
        print("\n".join(describe(report)))
        print(json.dumps({"provenance": report["provenance"]}))
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(reports if len(reports) > 1 else reports[0], fh, indent=1)
    if len(reports) == 1:
        result = reports[0]["result"]
    else:
        result = {
            "correct": all(r["result"]["correct"] for r in reports),
            "attempted": sum(r["result"]["attempted"] for r in reports),
            "failed": sum(r["result"]["failed"] for r in reports),
            "metrics": {
                f"{r['provenance']['workload']}.{k}": v
                for r in reports for k, v in r["result"]["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
