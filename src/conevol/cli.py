"""Command-line interface.

Subcommands: volume, sweep, critical-angle, roots, verify.  Angles are taken
in radians unless --degrees is given (converted at parse time and recorded in
the output metadata).  Floats print with 12 significant digits; identical
configurations produce bitwise-identical output.

Exit codes: 0 success, 1 validation/numerical/I-O failure, 2 out-of-range
angle, 3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

from . import __version__
from .chebyshev import eval_f
from .errors import ConevolError, PoleError
from .families import ConeManifoldSpec, parse_family
from .geometry import Regime, classify, collision_root, critical_angle
from .riley import build_cone_equation, solve_cone_equation
from .verify import ALL_SUITES, run_suites
from .volume import _volume_for

CSV_HEADER = "alpha,regime,volume,error_estimate,l_alpha,alpha_K,status"


def _fmt(x) -> str:
    if x is None:
        return ""
    return format(float(x), ".12g")


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 on usage errors (2 is reserved for out-of-range)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        sys.exit(1)


def _add_common(p):
    p.add_argument("--family", required=True, help="c2n2 | c2n3 | c2nm2n")
    p.add_argument("--n", type=int, required=True, help="nonzero twist parameter")
    p.add_argument("--degrees", action="store_true", help="angles given in degrees")


def build_parser() -> _Parser:
    parser = _Parser(prog="conevol", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("volume", parents=[], help="volume at a single cone angle")
    _add_common(p)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--cross-check", action="store_true",
                   help="also compute the Schlaefli volume")
    p.add_argument("--tol-quad", type=float, default=1e-9)
    p.set_defaults(func=cmd_volume)

    p = sub.add_parser("sweep", help="volumes over an angle grid, to CSV or JSON")
    _add_common(p)
    p.add_argument("--alpha-start", type=float, required=True)
    p.add_argument("--alpha-stop", type=float, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", help="output path (default: stdout)")
    p.add_argument("--cross-check", action="store_true")
    p.add_argument("--tol-quad", type=float, default=1e-9)
    p.add_argument("--jobs", type=int, default=0,
                   help="worker threads (default: logical CPUs)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("critical-angle", help="transition angle of a family member")
    _add_common(p)
    p.set_defaults(func=cmd_critical_angle)

    p = sub.add_parser("roots", help="cone-equation roots at a single angle")
    _add_common(p)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--tol-root", type=float, default=1e-8,
                   help="rational-residual threshold shown in the listing")
    p.set_defaults(func=cmd_roots)

    p = sub.add_parser("verify", help="run the built-in verification suites")
    p.add_argument("--suite", action="append", choices=sorted(ALL_SUITES),
                   help="run only the named suite (repeatable)")
    p.add_argument("--n", type=int, action="append",
                   help="twist value(s) to verify (default: -2 -1 1 2)")
    p.add_argument("--tol", type=float,
                   help="override every suite tolerance (failure injection)")
    p.set_defaults(func=cmd_verify)
    return parser


def _validated_spec(args) -> ConeManifoldSpec:
    family = parse_family(args.family)
    if args.n == 0:
        raise ValueError("n must be nonzero")
    alpha = math.radians(args.alpha) if args.degrees else args.alpha
    if not 0.0 < alpha < 2.0 * math.pi:
        raise ValueError(f"alpha must lie in (0, 2*pi) radians, got {alpha}")
    return ConeManifoldSpec(family, args.n, alpha)


def cmd_volume(args) -> int:
    try:
        spec = _validated_spec(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        classified = classify(spec)
        if classified.regime is Regime.OUT_OF_RANGE:
            print(
                f"error: alpha={_fmt(spec.alpha)} is beyond the spherical band",
                file=sys.stderr,
            )
            return 2
        result = _volume_for(spec, classified, args.cross_check, args.tol_quad)
    except ConevolError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    record = {
        "family": spec.family.value,
        "n": spec.n,
        "alpha": float(_fmt(spec.alpha)),
        "regime": result.regime.value,
        "volume": float(_fmt(result.volume)),
        "error_estimate": float(_fmt(result.error_estimate)),
        "alpha_K": float(_fmt(critical_angle(spec.family, spec.n))),
    }
    if result.schlafli_volume is not None:
        record["schlafli_volume"] = float(_fmt(result.schlafli_volume))
    if args.degrees:
        record["input_degrees"] = True
    print(json.dumps(record))
    return 0


def _sweep_row(spec: ConeManifoldSpec, a_k: float, quad_tol: float,
               cross_check: bool):
    row = {
        "alpha": spec.alpha, "regime": None, "volume": None,
        "error_estimate": None, "l_alpha": None, "alpha_K": a_k,
        "schlafli_volume": None,
    }
    try:
        classified = classify(spec)
        if classified.regime is Regime.OUT_OF_RANGE:
            return {**row, "regime": classified.regime.value, "status": "out_of_range"}
        r = _volume_for(spec, classified, cross_check, quad_tol)
    except (ConevolError, ValueError) as exc:
        return {**row, "status": f"error:{type(exc).__name__}"}
    return {
        **row, "regime": r.regime.value, "volume": r.volume,
        "error_estimate": r.error_estimate, "l_alpha": r.l_alpha,
        "schlafli_volume": r.schlafli_volume, "status": "ok",
    }


def cmd_sweep(args) -> int:
    try:
        family = parse_family(args.family)
        if args.n == 0:
            raise ValueError("n must be nonzero")
        if args.count < 1:
            raise ValueError("count must be >= 1")
        start, stop = args.alpha_start, args.alpha_stop
        if args.degrees:
            start, stop = math.radians(start), math.radians(stop)
        if not (0.0 < start <= stop < 2.0 * math.pi):
            raise ValueError("need 0 < start <= stop < 2*pi (radians)")
        a_k = critical_angle(family, args.n)
    except (ValueError, ConevolError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.count == 1:
        alphas = [start]
    else:
        step = (stop - start) / (args.count - 1)
        alphas = [start + i * step for i in range(args.count)]
    specs = [ConeManifoldSpec(family, args.n, a) for a in alphas]
    jobs = args.jobs if args.jobs > 0 else (os.cpu_count() or 1)
    def row_of(s):
        return _sweep_row(s, a_k, args.tol_quad, args.cross_check)

    if jobs == 1:
        rows = [row_of(s) for s in specs]
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(row_of, specs))

    extra = ["schlafli_volume"] if args.cross_check else []
    if args.format == "csv":
        lines = [",".join([CSV_HEADER, *extra])]
        for row in rows:
            lines.append(
                ",".join(
                    [
                        _fmt(row["alpha"]),
                        row["regime"] or "",
                        _fmt(row["volume"]),
                        _fmt(row["error_estimate"]),
                        _fmt(row["l_alpha"]),
                        _fmt(row["alpha_K"]),
                        row["status"],
                        *(_fmt(row[k]) for k in extra),
                    ]
                )
            )
        payload = "\n".join(lines) + "\n"
    else:
        meta = {
            "version": __version__,
            "family": family.value,
            "n": args.n,
            "alpha_start": float(_fmt(start)),
            "alpha_stop": float(_fmt(stop)),
            "count": args.count,
            "input_degrees": bool(args.degrees),
            "tol_quad": args.tol_quad,
        }
        out_rows = []
        for row in rows:
            out_rows.append(
                {
                    "alpha": float(_fmt(row["alpha"])),
                    "regime": row["regime"],
                    "volume": None if row["volume"] is None else float(_fmt(row["volume"])),
                    "error_estimate": None
                    if row["error_estimate"] is None
                    else float(_fmt(row["error_estimate"])),
                    "l_alpha": None if row["l_alpha"] is None else float(_fmt(row["l_alpha"])),
                    "alpha_K": float(_fmt(row["alpha_K"])),
                    "status": row["status"],
                    **{k: None if row[k] is None else float(_fmt(row[k])) for k in extra},
                }
            )
        payload = json.dumps({"metadata": meta, "rows": out_rows}, indent=2) + "\n"

    try:
        if args.out:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(payload)
        else:
            sys.stdout.write(payload)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def cmd_critical_angle(args) -> int:
    try:
        family = parse_family(args.family)
        if args.n == 0:
            raise ValueError("n must be nonzero")
        a_k = critical_angle(family, args.n)
        y_star = collision_root(family, args.n)
    except (ValueError, ConevolError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"alpha_K={a_k:.10f} collided_root={_fmt(y_star)}")
    return 0


def cmd_roots(args) -> int:
    try:
        spec = _validated_spec(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        eq = build_cone_equation(spec.family, spec.n, spec.cot_half)
        records = solve_cone_equation(eq, keep_spurious=True)
        selected = []
        classified = classify(spec)
        regime = classified.regime
        if regime in (Regime.HYPERBOLIC, Regime.SPHERICAL):
            selected = [complex(y) for y in classified.roots]
            if regime is Regime.HYPERBOLIC:
                selected.append(selected[0].conjugate())
    except ConevolError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    print("re,im,f_re,f_im,residual,spurious_flag,selected_flag")
    for r in records:
        try:
            fv = eval_f(spec.n, r.y)
            f_re, f_im = _fmt(fv.real), _fmt(fv.imag)
        except PoleError:
            f_re = f_im = "nan"
        is_sel = any(abs(r.y - s) <= 1e-9 for s in selected)
        print(
            ",".join(
                [
                    _fmt(r.y.real), _fmt(r.y.imag), f_re, f_im,
                    _fmt(r.residual) if math.isfinite(r.residual) else "inf",
                    "true" if (r.spurious or r.unit_f) else "false",
                    "true" if is_sel else "false",
                ]
            )
        )
    return 0


def cmd_verify(args) -> int:
    n_values = tuple(args.n) if args.n else (-2, -1, 1, 2)
    if any(v == 0 for v in n_values):
        print("error: n must be nonzero", file=sys.stderr)
        return 1
    results = run_suites(args.suite, n_values=n_values)
    if args.tol is not None:
        # failure-injection override: re-grade every suite at the given tolerance
        results = [replace(r, passed=r.metric <= args.tol) for r in results]
    width = max(len(r.name) for r in results)
    all_pass = True
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        all_pass &= r.passed
        print(f"{r.name:<{width}}  {mark}  {r.detail}")
    return 0 if all_pass else 3


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
