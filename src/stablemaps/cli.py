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
import re
import sys
from functools import cache, cached_property

from .eulerchi import chi_agrees, chi_table
from .solver import (class_table, indented_json, potential, solve_phi0, verify_dt,
                     verify_functional_equation, verify_implicit_numeric,
                     verify_ode, verify_potential_expansion, verify_quadratic)
from .target import (check_count_request, count_maps_bruteforce, parse_target,
                     projective_space, verify_recurrence)
from .trees import enum_trees, max_vertices, tree_sum_potential

USAGE_ERROR = 2
VERIFY_ERROR = 1
# the census up to 18 vertices has 205,004 trees; each further vertex
# multiplies that by about 6
TREES_VMAX = 18

SUITES = ("oracle", "ode", "dt", "fe", "potential", "implicit", "recurrence",
          "ffcount", "chi")
# the suites that read phi0's t**kmax layer
TOP_LAYER_SUITES = frozenset(("ode", "dt", "fe"))
# the flags that take one int, read by _int after parsing, so that a bad
# value ends on one error line like any other usage error
INT_FLAGS = ("kmax", "workers", "n", "dmaxff", "vmax", "d", "p")
# phi-degree of the potential suite, and the (u, z) sample of the implicit suite
POTENTIAL_NMAX = 4
IMPLICIT_U, IMPLICIT_Z = "4", "1/1000"


def _int(flag: str, entry: str) -> int:
    """One int of a flag's value: ASCII digits with an optional leading '-'
    (int() alone would read '1_0' as 10, a non-ASCII digit or ' 2')."""
    if not re.fullmatch(r"-?[0-9]+", entry):
        raise ValueError(f"{flag} entry {entry!r} is not an integer")
    return int(entry)


def _int_list(flag: str, text: str) -> list:
    """The comma-separated ints of a flag's value, each read by _int."""
    return [_int(flag, entry) for entry in text.split(",")]


def _resolve(args):
    w = parse_target(args.target)
    dmax = None if args.dmax is None else _int_list("--dmax", args.dmax)
    return w, w.box(dmax, args.kmax)


def _check_tree_budget(kmax: int, dmax) -> None:
    """Refuse a tree sum whose deficit budget kmax + 2|dmax| admits trees on
    more vertices than the census allows (trees.max_vertices)."""
    vertices = max_vertices(kmax, dmax)
    if vertices > TREES_VMAX:
        raise ValueError(f"box too large for the tree sum: kmax + 2|dmax| - 2 = {vertices} "
                         f"vertices, above the cap of {TREES_VMAX}")


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_compute(args) -> int:
    table = _Run(args).table
    text = table.to_csv() if args.format == "csv" else table.to_json()
    _emit(text, args.out)
    return 0


def cmd_oracle(args) -> int:
    if args.workers != 1:
        raise ValueError("--workers must be 1: the tree sum runs in one process")
    w, dmax = _resolve(args)
    _check_tree_budget(args.kmax, dmax)
    series = tree_sum_potential(w, args.kmax, dmax, adams=args.adams)
    _emit(indented_json({"target": w.name, "series": series.to_json()}), args.out)
    return 0


def cmd_euler(args) -> int:
    w, dmax = _resolve(args)
    rows = [{"k": k, "beta": list(d), "chi": str(v)}
            for (k, d), v in sorted(chi_table(w, args.kmax, dmax, adams=args.adams).items())]
    obj = {"target": w.name, "kmax": args.kmax, "dmax": list(dmax), "entries": rows}
    _emit(indented_json(obj), args.out)
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
    """What compute and the verify suites share, each computed on first use
    and at most once: the target and its box, phi0, the potential and the
    class table.  The table is read off phi0 (class_table), so compute
    builds no potential series; the suites that read the potential do.
    With --adams these are the corrected routes."""

    def __init__(self, args):
        self.args = args

    @cached_property
    def box(self):
        return _resolve(self.args)

    @cached_property
    def primes(self):
        return _int_list("--primes", self.args.primes)

    @cached_property
    def phi0(self):
        """The run's one solve: phi0 through t**kmax when one of the ode, dt
        and fe suites is selected, since they read the top layer, and one
        t-order short otherwise, since the potential and the table read
        phi0 below t**kmax only."""
        w, dmax = self.box
        whole = not TOP_LAYER_SUITES.isdisjoint(getattr(self.args, "suite", ()))
        kmax = self.args.kmax if whole else max(self.args.kmax - 1, 0)
        return solve_phi0(w, kmax, dmax, adams=self.args.adams)

    @cached_property
    def potential(self):
        return potential(self.box[0], self.phi0, adams=self.args.adams,
                         kmax=self.args.kmax)

    @cached_property
    def table(self):
        return class_table(self.box[0], self.phi0, adams=self.args.adams,
                           kmax=self.args.kmax)


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
        ok = chi_agrees(w, run.table, adams=adams)
        return ok, "u -> 1 limit matches exact classes" if ok else "mismatch"
    if suite == "recurrence":
        ok = verify_recurrence(args.n, args.dmaxff)
        return ok, f"degree recurrence for n={args.n} up to d={args.dmaxff}"
    if suite == "ffcount":
        w = projective_space(args.n)
        for d in range(args.dmaxff + 1):
            for p in run.primes:
                counted = count_maps_bruteforce(args.n, d, p)
                expected = w.map_class((d,)).eval_at(p)
                if counted != expected:
                    return False, f"(n={args.n}, d={d}, p={p}): {counted} != {expected}"
        return True, f"counts match closed form for d<={args.dmaxff}, p in {run.primes}"
    raise ValueError(f"unknown suite {suite!r}")


def cmd_verify(args) -> int:
    run = _Run(args)
    if args.dmaxff < 0:
        raise ValueError(f"--dmaxff {args.dmaxff} must be >= 0")
    if not 0 <= args.tolerance < float("inf"):  # also refuses nan
        raise ValueError(f"--tolerance {args.tolerance} must be a finite number >= 0")
    if "ode" in args.suite and args.kmax < 1:
        raise ValueError(f"--suite ode needs --kmax >= 1: at --kmax {args.kmax} "
                         "both residuals live on an empty box")
    if "ffcount" in args.suite:  # refuse an oversized count before any suite runs
        for d in range(args.dmaxff + 1):
            for p in run.primes:
                check_count_request(args.n, d, p)
    if "oracle" in args.suite:
        _check_tree_budget(args.kmax, run.box[1])
    results, lines = [], []
    for suite in args.suite:
        ok, detail = _run_suite(suite, run)
        results.append({"suite": suite, "pass": ok, "detail": detail})
        lines.append(f"{'PASS' if ok else 'FAIL'} {suite}: {detail}")
        print(lines[-1])
    summary = {"results": results, "ok": all(r["pass"] for r in results)}
    lines.append(json.dumps(summary))
    print(lines[-1])
    if args.out:
        _emit("\n".join(lines) + "\n", args.out)
    return 0 if summary["ok"] else VERIFY_ERROR


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parse_args keeps no
    state between calls."""
    parser = argparse.ArgumentParser(
        prog="stablemaps",
        description="Exact classes of genus-zero stable-map moduli spaces.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--target", default="point",
                       help="point | pn:N | file:PATH (default: point)")
        p.add_argument("--kmax", default="4", help="t-truncation order")
        p.add_argument("--dmax", default=None,
                       help="comma-separated z-truncation per component")
        p.add_argument("--out", default=None, help="output file (default stdout)")
        p.add_argument("--adams", action="store_true",
                       help="keep the Adams operations: coarse-space Poincare "
                            "polynomials instead of the p_k = 0 specialisation")

    p = sub.add_parser("compute", help="solver class table")
    add_common(p)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("oracle", help="tree-sum series (the brute-force route)")
    add_common(p)
    p.add_argument("--workers", default="1",
                   help="must be 1: the tree sum runs in one process")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("verify", help="run named verification suites")
    add_common(p)
    p.add_argument("--suite", action="append", choices=SUITES, required=True,
                   help="repeatable; each suite prints one PASS/FAIL line")
    p.add_argument("--n", default="1", help="projective dimension for recurrence/ffcount")
    p.add_argument("--dmaxff", default="2", help="max degree for recurrence/ffcount")
    p.add_argument("--primes", default="2,3,5", help="primes for ffcount")
    p.add_argument("--tolerance", type=float, default=1e-5,
                   help="relative-spread tolerance for the implicit suite")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("euler", help="Euler-characteristic table")
    add_common(p)
    p.set_defaults(func=cmd_euler)

    p = sub.add_parser("trees", help="tree census: vertex count, |Aut|, code")
    p.add_argument("--vmax", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_trees)

    p = sub.add_parser("count-ff", help="finite-field map count")
    p.add_argument("--n", required=True)
    p.add_argument("--d", required=True)
    p.add_argument("--p", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_count_ff)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for name in INT_FLAGS:
            if hasattr(args, name):
                setattr(args, name, _int(f"--{name}", getattr(args, name)))
        return args.func(args)
    except (ValueError, OSError, ArithmeticError) as exc:  # e.g. a box too large to index
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
