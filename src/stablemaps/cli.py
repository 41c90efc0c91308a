"""Command-line front end.

Subcommands: compute (solver class tables), oracle (tree-sum series),
verify (named exact/numeric check suites), euler (Euler-characteristic
tables), trees (tree census), count-ff (finite-field map count).  All exact
numbers are serialized as "p/q" strings; the only floats in any output come
from the advisory implicit-solution check.  Output is byte-identical across
runs.

Exit codes: 0 success, 1 verification failure, 2 usage or data error.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache, cached_property

from .eulerchi import chi_agrees, chi_table
from .solver import (extract_classes, potential, solve_phi0, verify_dt,
                     verify_functional_equation, verify_implicit_numeric,
                     verify_ode, verify_potential_expansion, verify_quadratic)
from .target import (check_count_request, count_maps_bruteforce, parse_target,
                     projective_space, verify_recurrence)
from .trees import enum_trees, tree_sum_potential

USAGE_ERROR = 2
VERIFY_ERROR = 1
# the census up to 18 vertices has 205,004 trees; each further vertex
# multiplies that by about 6
TREES_VMAX = 18

SUITES = ("oracle", "ode", "dt", "fe", "potential", "implicit", "recurrence",
          "ffcount", "chi")
# phi-degree of the potential suite, and the (u, z) sample of the implicit suite
POTENTIAL_NMAX = 4
IMPLICIT_U, IMPLICIT_Z = "4", "1/1000"


def _resolve(args):
    w = parse_target(args.target)
    dmax = None if args.dmax is None else args.dmax.split(",")
    return w, w.box(dmax, args.kmax)


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_compute(args) -> int:
    w, dmax = _resolve(args)
    phi0 = solve_phi0(w, args.kmax, dmax, adams=args.adams)
    table = extract_classes(potential(w, phi0, adams=args.adams), w)
    text = table.to_csv() if args.format == "csv" else table.to_json()
    _emit(text, args.out)
    return 0


def cmd_oracle(args) -> int:
    if args.workers != 1:
        raise ValueError("--workers must be 1: the tree sum runs in one process")
    w, dmax = _resolve(args)
    series = tree_sum_potential(w, args.kmax, dmax, adams=args.adams)
    obj = {"target": w.name, "series": series.to_json()}
    _emit(json.dumps(obj, indent=2) + "\n", args.out)
    return 0


def cmd_euler(args) -> int:
    w, dmax = _resolve(args)
    rows = [{"k": k, "beta": list(d), "chi": str(v)}
            for (k, d), v in sorted(chi_table(w, args.kmax, dmax, adams=args.adams).items())]
    obj = {"target": w.name, "kmax": args.kmax, "dmax": list(dmax), "entries": rows}
    _emit(json.dumps(obj, indent=2) + "\n", args.out)
    return 0


def cmd_trees(args) -> int:
    if args.vmax > TREES_VMAX:
        raise ValueError(f"--vmax above {TREES_VMAX}: the census grows about sixfold "
                         f"per vertex and would not finish")
    lines = [f"{t.vcount}\t{aut}\t{t.canonical_code.decode('ascii')}"
             for t, aut in enum_trees(args.vmax)]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_count_ff(args) -> int:
    count = count_maps_bruteforce(args.n, args.d, args.p)
    _emit(f"{count}\n", args.out)
    return 0


class _Run:
    """What the suites of one verify run share, each computed on first use
    and at most once: the target and its box, phi0, the potential and its
    class table.  With --adams these are the corrected routes."""

    def __init__(self, args):
        self.args = args

    @cached_property
    def box(self):
        return _resolve(self.args)

    @cached_property
    def phi0(self):
        w, dmax = self.box
        return solve_phi0(w, self.args.kmax, dmax, adams=self.args.adams)

    @cached_property
    def potential(self):
        return potential(self.box[0], self.phi0, adams=self.args.adams)

    @cached_property
    def table(self):
        return extract_classes(self.potential, self.box[0])


def _run_suite(suite, run):
    """One named check; returns (ok, detail)."""
    args, adams = run.args, run.args.adams
    if suite in ("oracle", "ode", "dt", "fe", "potential", "chi", "implicit"):
        w, dmax = run.box
    if suite == "oracle":
        summed = tree_sum_potential(w, args.kmax, dmax, adams=adams)
        ok = run.potential == summed
        return ok, "solver potential equals tree sum" if ok else "route mismatch"
    if suite == "ode":
        res_a, res_b = verify_ode(run.phi0)
        ok = res_a.is_zero and res_b.is_zero
        return ok, "both residuals vanish" if ok else f"residuals {res_a} ; {res_b}"
    if suite == "dt":
        if not verify_dt(run.potential, run.phi0, w):
            return False, "mismatch"
        res = verify_quadratic(w, run.phi0, run.potential, adams=adams)
        return res.is_zero, ("d/dt potential reproduces the fixed point" if res.is_zero
                             else f"closed-form residual {res}")
    if suite == "fe":
        res = verify_functional_equation(w, run.phi0, adams=adams)
        return res.is_zero, ("functional equation holds on the box" if res.is_zero
                             else f"residual {res}")
    if suite == "potential":
        ok = verify_potential_expansion(w, POTENTIAL_NMAX, args.kmax, dmax)
        return ok, f"expansions agree through degree {POTENTIAL_NMAX}" if ok else "mismatch"
    if suite == "implicit":
        # without --dmax the check keeps its own default box: on the zero
        # box the series is z-free and the spread says nothing about z
        spread = verify_implicit_numeric(
            w, IMPLICIT_U, IMPLICIT_Z, [0, "1/200", "1/100"],
            kmax=max(args.kmax, 10), dmax=dmax if args.dmax else None)
        ok = spread <= args.tolerance
        return ok, f"relative spread {spread:.3e} (tolerance {args.tolerance:.1e})"
    if suite == "chi":
        r0 = run.phi0.truncate(kmax=0) if adams else None  # the run's slice, not a new solve
        ok = chi_agrees(w, run.table, adams=adams, r0=r0)
        return ok, "u -> 1 limit matches exact classes" if ok else "mismatch"
    if suite == "recurrence":
        ok = verify_recurrence(args.n, args.dmaxff)
        return ok, f"degree recurrence for n={args.n} up to d={args.dmaxff}"
    if suite == "ffcount":
        primes = [int(p) for p in args.primes.split(",")]
        w = projective_space(args.n)
        for d in range(args.dmaxff + 1):
            for p in primes:
                counted = count_maps_bruteforce(args.n, d, p)
                expected = w.map_class((d,)).eval_at(p)
                if counted != expected:
                    return False, f"(n={args.n}, d={d}, p={p}): {counted} != {expected}"
        return True, f"counts match closed form for d<={args.dmaxff}, p in {primes}"
    raise ValueError(f"unknown suite {suite!r}")


def cmd_verify(args) -> int:
    run = _Run(args)
    if args.dmaxff < 0:
        raise ValueError(f"--dmaxff {args.dmaxff} must be >= 0")
    if "ffcount" in args.suite:  # refuse an oversized count before any suite runs
        for d in range(args.dmaxff + 1):
            for p in args.primes.split(","):
                check_count_request(args.n, d, int(p))
    results = []
    for suite in args.suite:
        ok, detail = _run_suite(suite, run)
        results.append({"suite": suite, "pass": ok, "detail": detail})
        print(f"{'PASS' if ok else 'FAIL'} {suite}: {detail}")
    summary = {"results": results, "ok": all(r["pass"] for r in results)}
    print(json.dumps(summary))
    return 0 if summary["ok"] else VERIFY_ERROR


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parse_args keeps no
    state between calls."""
    parser = argparse.ArgumentParser(
        prog="stablemaps",
        description="Exact classes of genus-zero stable-map moduli spaces.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, kmax_default=None):
        p.add_argument("--target", default="point",
                       help="point | pn:N | file:PATH (default: point)")
        p.add_argument("--kmax", type=int, default=kmax_default,
                       help="t-truncation order")
        p.add_argument("--dmax", default=None,
                       help="comma-separated z-truncation per component")
        p.add_argument("--out", default=None, help="output file (default stdout)")

    def add_adams(p):
        p.add_argument("--adams", action="store_true",
                       help="keep the Adams operations: coarse-space Poincare "
                            "polynomials instead of the p_k = 0 specialisation")

    p = sub.add_parser("compute", help="solver class table")
    add_common(p, kmax_default=4)
    add_adams(p)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("oracle", help="tree-sum series (the brute-force route)")
    add_common(p, kmax_default=4)
    add_adams(p)
    p.add_argument("--workers", type=int, default=1,
                   help="must be 1: the tree sum runs in one process")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("verify", help="run named verification suites")
    add_common(p, kmax_default=4)
    add_adams(p)
    p.add_argument("--suite", action="append", choices=SUITES, required=True,
                   help="repeatable; each suite prints one PASS/FAIL line")
    p.add_argument("--n", type=int, default=1, help="projective dimension for recurrence/ffcount")
    p.add_argument("--dmaxff", type=int, default=2, help="max degree for recurrence/ffcount")
    p.add_argument("--primes", default="2,3,5", help="primes for ffcount")
    p.add_argument("--tolerance", type=float, default=1e-5,
                   help="relative-spread tolerance for the implicit suite")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("euler", help="Euler-characteristic table")
    add_common(p, kmax_default=4)
    add_adams(p)
    p.set_defaults(func=cmd_euler)

    p = sub.add_parser("trees", help="tree census: vertex count, |Aut|, code")
    p.add_argument("--vmax", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_trees)

    p = sub.add_parser("count-ff", help="finite-field map count")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_count_ff)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, ArithmeticError) as exc:  # e.g. a box too large to index
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
