"""Command-line front end: `hecke-bz <command> [flags]`.

Commands: derive-speh (derivative of a Speh module against the
vertical-strip rule), verify (named invariant suites), principal
(principal-series construction and derivative dimensions).  Output is a
single report in JSON or as a flattened table; exit status is 0 when the
report passes, 1 on a verification failure, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import sys
import time
from math import factorial, isfinite, log

from .affine.modules import (
    bz_dimension,
    principal_series,
    verify_relations,
)
from .combinatorics import parse_partition
from .graded import _pieri_report, g_bz_derivative, pin, speh_module
from .reports import MIN_RANK, SUITES, make_report, render, resolve_config
from .scalars import parse_qrational

__all__ = ["main"]

# The principal series has n! basis vectors, and its generators are dense
# n! x n! matrices; the relation check reads them as sparse rows, one
# table row at a time: rank 6 (720^2 cells a matrix, 60 rows) takes
# 6-12 s with a 94 MB peak on two cores.  Rank 7 has 5040^2 cells a
# matrix, 49 times as many: its 13 generators alone hold 2.6 GB of 8-byte
# list slots.  Its time and peak are unmeasured.
MAX_PRINCIPAL_RANK = 6


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hecke-bz",
        description="Hecke-algebra derivative toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "table"),
                        default="json", help="report rendering")
    common.add_argument("--timings", action="store_true",
                        help="include wall-clock timings in the report "
                             "(off by default: reports stay byte-stable)")

    d = sub.add_parser("derive-speh", parents=[common],
                       help="derivative of a Speh module vs vertical strips")
    d.add_argument("--shape", required=True,
                   help="partition, comma separated (e.g. 3,2,1)")
    d.add_argument("--i", required=True, type=int, dest="order",
                   help="derivative order")
    d.add_argument("--kappa", type=float, default=None,
                   help="numeric kappa for a floating cross-check at q0")
    d.add_argument("--q", dest="q0", type=float, default=None,
                   help="numeric Hecke parameter q0 of the --kappa "
                        "cross-check")

    v = sub.add_parser("verify", parents=[common],
                       help="run a named invariant suite")
    v.add_argument("suite", choices=sorted(SUITES),
                   help="suite name")
    v.add_argument("--max-n", type=int, default=None,
                   help="rank bound for the sweep")
    v.add_argument("--threads", type=int, default=None,
                   help="worker processes for suite cases")
    v.add_argument("--tol", type=float, default=None,
                   help="numeric residual tolerance (bridge only)")
    v.add_argument("--cluster-tol", type=float, default=None,
                   help="refuse a matrix whose eigenvector condition "
                        "estimate exceeds 1/cluster-tol as possibly "
                        "defective; 0 turns the guard off (bridge only)")

    p = sub.add_parser("principal", parents=[common],
                       help="principal-series module report")
    p.add_argument("--n", required=True, type=int, help="rank")
    p.add_argument("--t", required=True,
                   help="character, comma-separated expressions in q "
                        "(e.g. 1,4 or 1/2,0.5 or 1,q,q^2); write "
                        "--t=-1,2 for a leading minus")
    p.add_argument("--derive", type=int, default=None, dest="derive_i",
                   help="also report the derivative dimension at this order")
    return parser


def _cmd_derive_speh(args, config) -> tuple[dict, dict, bool]:
    if args.q0 is not None and args.kappa is None:
        raise SystemExit("hecke-bz: --q sets q0 of the --kappa cross-check; "
                         "give --kappa too")
    if args.kappa is not None and not isfinite(args.kappa):
        raise SystemExit(f"hecke-bz: --kappa must be finite, got {args.kappa}")
    try:
        shape = parse_partition(args.shape)
    except ValueError as exc:
        raise SystemExit(f"hecke-bz: {exc}") from exc
    if not shape:
        raise SystemExit(f"hecke-bz: not a partition: {args.shape!r}")
    n = sum(shape)
    if not 0 <= args.order <= n:
        raise SystemExit(
            f"hecke-bz: derivative order must lie in 0..{n}, "
            f"got {args.order}")
    M = speh_module(shape)
    rep = _pieri_report(M, args.order)
    inputs = {"shape": list(shape), "i": args.order}
    results = {
        "dim": rep["dim"],
        "predicted": rep["predicted"],
        "computed": rep["computed"],
    }
    passed = rep["pass"]
    if args.kappa is not None:
        inputs["kappa"] = args.kappa
        inputs["q0"] = config["q0"]
        G = pin(M, log(config["q0"]), args.kappa)
        numeric_dim = g_bz_derivative(G, args.order).dim
        results["numeric_dim"] = numeric_dim
        passed = passed and numeric_dim == rep["dim"]
    return inputs, results, passed


def _cmd_verify(args, config) -> tuple[dict, dict, bool]:
    for flag, val in (("--tol", args.tol),
                      ("--cluster-tol", args.cluster_tol)):
        if val is not None and args.suite != "bridge":
            raise SystemExit(f"hecke-bz: {flag} is read by the bridge suite "
                             f"only, not by {args.suite}")
    low = MIN_RANK[args.suite]
    if args.max_n is not None and args.max_n < low:
        raise SystemExit(
            f"hecke-bz: suite {args.suite} starts at rank {low}; "
            f"--max-n must be at least {low}, got {args.max_n}")
    inputs, results, passed = SUITES[args.suite](args.max_n, config)
    inputs = {"suite": args.suite, **inputs,
              "threads": config["threads"]}
    return inputs, results, passed


def _cmd_principal(args, config) -> tuple[dict, dict, bool]:
    if args.n < 1:
        raise SystemExit("hecke-bz: rank must be positive")
    if args.n > MAX_PRINCIPAL_RANK:
        raise SystemExit(
            f"hecke-bz: the principal series has n! basis vectors; "
            f"--n must be at most {MAX_PRINCIPAL_RANK}, got {args.n}")
    try:
        t = tuple(parse_qrational(part) for part in args.t.split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise SystemExit(f"hecke-bz: bad character {args.t!r}: {exc}") \
            from exc
    if len(t) != args.n:
        raise SystemExit(
            f"hecke-bz: character needs {args.n} coordinates, got {len(t)}")
    if not all(t):
        raise SystemExit("hecke-bz: character coordinates must be nonzero")
    if args.derive_i is not None and not 0 <= args.derive_i <= args.n:
        raise SystemExit(
            f"hecke-bz: derivative order must lie in 0..{args.n}")
    M = principal_series(args.n, t)
    rel = verify_relations(M)
    inputs = {"n": args.n, "t": [str(v) for v in t]}
    results = {
        "dim": M.dim,
        "relations": {
            "pass": rel["pass"],
            "residual": 0 if rel["pass"] else "nonzero",
        },
    }
    passed = rel["pass"]
    if args.n == 1:
        results["theta_1"] = str(M.x[0][0][0])
    if args.derive_i is not None:
        d = bz_dimension(M, args.derive_i)
        results["derivative"] = {"i": args.derive_i, "dim": d,
                                 "free_rank_prediction":
                                     factorial(args.n)
                                     // factorial(args.derive_i)}
        inputs["derive"] = args.derive_i
    return inputs, results, passed


_COMMANDS = {
    "derive-speh": _cmd_derive_speh,
    "verify": _cmd_verify,
    "principal": _cmd_principal,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = resolve_config(**{
            key: getattr(args, key, None)
            for key in ("q0", "tol", "cluster_tol", "threads")})
    except ValueError as exc:
        parser.error(str(exc))
    started = time.perf_counter()
    try:
        inputs, results, passed = _COMMANDS[args.command](args, config)
    except SystemExit as exc:
        if exc.code and isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return 2
        raise
    timings = {"seconds": round(time.perf_counter() - started, 3)} \
        if args.timings else None
    report = make_report(args.command, inputs, results, passed, timings)
    print(render(report, args.format))
    return 0 if report["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
