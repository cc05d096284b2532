"""Command-line interface.

Subcommands: volume, sweep, critical-angle, roots, verify.  Angles are taken
in radians unless --degrees is given (converted at parse time and recorded in
the output metadata).  Floats print with 12 significant digits; identical
configurations produce bitwise-identical output.

Sweep rows are computed in order on the calling thread; --jobs is accepted
and ignored.  A failure ends in one stderr line: "error: <Type>: <message>"
for a library error, "error: <message>" for bad input or I/O.

Exit codes: 0 success, 1 validation/numerical/I-O failure, 2 a volume angle
beyond the spherical band, 3 verification failure.  Only volume exits 2:
sweep gives such an angle the row status out_of_range, and roots lists the
roots with none selected (as it also does at exactly a_K).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import __version__
from .chebyshev import eval_f
from .errors import ConevolError, PoleError
from .families import ConeManifoldSpec, parse_family
from .geometry import Regime, classify, collision_root, critical_angle
from .riley import build_cone_equation, solve_cone_equation
from .verify import ALL_SUITES, DEFAULT_N, run_suites
from .volume import QUAD_ABS_TOL, _volume_for

CSV_HEADER = "alpha,regime,volume,error_estimate,l_alpha,alpha_K,status"
_TEXT_COLUMNS = ("regime", "status")


def _fmt(x) -> str:
    if x is None:
        return ""
    return format(float(x), ".12g")


def _csv_cell(column: str, value) -> str:
    return (value or "") if column in _TEXT_COLUMNS else _fmt(value)


def _json_cell(column: str, value):
    return value if column in _TEXT_COLUMNS or value is None else float(_fmt(value))


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 on usage errors (2 is reserved for out-of-range)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        sys.exit(1)


def _add_common(p, angles=True):
    p.add_argument("--family", required=True, help="c2n2 | c2n3 | c2nm2n")
    p.add_argument("--n", type=int, required=True, help="nonzero twist parameter")
    if angles:  # critical-angle reads no angle
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
    p.set_defaults(func=cmd_volume)

    p = sub.add_parser("sweep", help="volumes over an angle grid, to CSV or JSON")
    _add_common(p)
    p.add_argument("--alpha-start", type=float, required=True)
    p.add_argument("--alpha-stop", type=float, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", help="output path (default: stdout)")
    p.add_argument("--cross-check", action="store_true")
    p.add_argument("--jobs", type=int, default=0,
                   help="accepted and ignored: rows run in order")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("critical-angle", help="transition angle of a family member")
    _add_common(p, angles=False)
    p.set_defaults(func=cmd_critical_angle)

    p = sub.add_parser("roots", help="cone-equation roots at a single angle")
    _add_common(p)
    p.add_argument("--alpha", type=float, required=True)
    p.set_defaults(func=cmd_roots)

    p = sub.add_parser("verify", help="run the built-in verification suites")
    p.add_argument("--suite", action="append", choices=sorted(ALL_SUITES),
                   help="run only the named suite (repeatable)")
    p.add_argument("--n", type=int, action="append",
                   help="twist value(s) to verify (default: "
                        f"{' '.join(map(str, DEFAULT_N))})")
    p.set_defaults(func=cmd_verify)
    return parser


def _validated_spec(args) -> ConeManifoldSpec:
    family = parse_family(args.family)
    alpha = math.radians(args.alpha) if args.degrees else args.alpha
    return ConeManifoldSpec(family, args.n, alpha)


def _blank_row(alpha: float, a_k: float, status: str) -> dict:
    return {"alpha": alpha, "regime": None, "volume": None, "error_estimate": None,
            "l_alpha": None, "alpha_K": a_k, "schlafli_volume": None, "status": status}


def _volume_row(spec: ConeManifoldSpec, cross_check: bool) -> dict:
    """Classify, then integrate: one angle's sweep columns plus schlafli_volume."""
    classified = classify(spec)
    if classified.regime is Regime.OUT_OF_RANGE:
        row = _blank_row(spec.alpha, classified.critical_angle, "out_of_range")
        return {**row, "regime": classified.regime.value}
    r = _volume_for(spec, classified, cross_check)
    return {
        "alpha": spec.alpha, "regime": r.regime.value, "volume": r.volume,
        "error_estimate": r.error_estimate, "l_alpha": r.l_alpha,
        "alpha_K": classified.critical_angle, "schlafli_volume": r.schlafli_volume,
        "status": "ok",
    }


def cmd_volume(args) -> int:
    spec = _validated_spec(args)
    row = _volume_row(spec, args.cross_check)
    if row["status"] == "out_of_range":
        print(
            f"error: alpha={_fmt(spec.alpha)} is beyond the spherical band",
            file=sys.stderr,
        )
        return 2
    record = {"family": spec.family.value, "n": spec.n}
    for c in ("alpha", "regime", "volume", "error_estimate", "alpha_K",
              "schlafli_volume"):
        if row[c] is not None:  # schlafli_volume is None without --cross-check
            record[c] = _json_cell(c, row[c])
    if args.degrees:
        record["input_degrees"] = True
    print(json.dumps(record))
    return 0


def _sweep_row(spec: ConeManifoldSpec, a_k: float, cross_check: bool) -> dict:
    """_volume_row; a failed angle keeps its place, with the error as its status."""
    try:
        return _volume_row(spec, cross_check)
    except (ConevolError, ValueError) as exc:
        return _blank_row(spec.alpha, a_k, f"error:{type(exc).__name__}")


def cmd_sweep(args) -> int:
    family = parse_family(args.family)
    if args.count < 1:
        raise ValueError("count must be >= 1")
    start, stop = args.alpha_start, args.alpha_stop
    if args.degrees:
        start, stop = math.radians(start), math.radians(stop)
    if start > stop:
        raise ValueError("need start <= stop")
    step = (stop - start) / (args.count - 1) if args.count > 1 else 0.0
    specs = [ConeManifoldSpec(family, args.n, start + i * step)
             for i in range(args.count)]
    a_k = critical_angle(family, args.n)
    rows = [_sweep_row(spec, a_k, args.cross_check) for spec in specs]

    columns = CSV_HEADER.split(",") + (["schlafli_volume"] if args.cross_check else [])
    if args.format == "csv":
        lines = [",".join(columns)]
        lines.extend(",".join(_csv_cell(c, row[c]) for c in columns) for row in rows)
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
            "tol_quad": QUAD_ABS_TOL,
        }
        out_rows = [{c: _json_cell(c, row[c]) for c in columns} for row in rows]
        payload = json.dumps({"metadata": meta, "rows": out_rows}, indent=2) + "\n"

    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    return 0


def cmd_critical_angle(args) -> int:
    family = parse_family(args.family)
    a_k = critical_angle(family, args.n)
    y_star = collision_root(family, args.n)
    print(f"alpha_K={a_k:.10f} collided_root={_fmt(y_star)}")
    return 0


def cmd_roots(args) -> int:
    spec = _validated_spec(args)
    eq = build_cone_equation(spec.family, spec.n, spec.cot_half)
    records = solve_cone_equation(eq, keep_spurious=True)
    selected = []
    classified = classify(spec)
    regime = classified.regime
    if regime in (Regime.HYPERBOLIC, Regime.SPHERICAL):
        selected = [complex(y) for y in classified.roots]
        if regime is Regime.HYPERBOLIC:
            selected.append(selected[0].conjugate())
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
    n_values = tuple(args.n) if args.n else DEFAULT_N
    if any(v == 0 for v in n_values):
        raise ValueError("n must be nonzero")
    results = run_suites(args.suite, n_values=n_values)
    width = max(len(r.name) for r in results)
    all_pass = True
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        all_pass &= r.passed
        print(f"{r.name:<{width}}  {mark}  {r.detail}")
    return 0 if all_pass else 3


def main(argv=None) -> int:
    """Run one subcommand; a ConevolError, ValueError or OSError becomes exit 1."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConevolError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
