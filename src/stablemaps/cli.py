"""Command-line front end.

COMMANDS is the one table of the command line: each command's function, help
and flags.  main reads argv against it; -h or --help prints help built from it.
All exact numbers are serialized as "p/q" strings; the only floats in any output
come from the advisory implicit-solution check.  Output is byte-identical across
runs.  Exit codes: 0 success, 1 verification failure, 2 usage or data error,
each usage or data error with one "error: ..." line on stderr.
"""

from __future__ import annotations

import json
import re
import sys
from collections import namedtuple
from functools import cached_property
from types import SimpleNamespace

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
# phi-degree of the potential suite, and the (u, z) sample of the implicit suite
POTENTIAL_NMAX = 4
IMPLICIT_U, IMPLICIT_Z = "4", "1/1000"


def _int(flag: str, entry: str) -> int:
    """One int of a flag's value: ASCII digits with an optional leading '-'
    (int() alone would read '1_0' as 10, a non-ASCII digit or ' 2')."""
    if not re.fullmatch(r"-?[0-9]+", entry):
        raise ValueError(f"{flag} entry {entry!r} is not an integer")
    return int(entry)


def _float(flag: str, text: str) -> float:
    """A float flag's value: ASCII text without '_' or whitespace, read by
    float() (which alone would read '1_0' as 10, a non-ASCII digit or ' 2')."""
    try:
        if text.isascii() and not re.search(r"[\s_]", text):
            return float(text)
    except ValueError:
        pass
    raise ValueError(f"{flag} {text!r} is not a number")


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


# A flag: its default (REQUIRED if it must be given; False for a switch, which takes
# no value and is True when given); read(flag, text), which reads a value (None keeps
# the text); the values it may take (any when empty); whether it repeats.
Flag = namedtuple("Flag", "default read choices repeat", defaults=(None, (), False))
REQUIRED = object()
COMMON = {"--target": Flag("point"), "--kmax": Flag(4, _int), "--dmax": Flag(None),
          "--out": Flag(None), "--adams": Flag(False)}
COMMANDS = {  # each command: its function, its help and its flags
    "compute": (cmd_compute, "solver class table",
                {**COMMON, "--format": Flag("json", choices=("json", "csv"))}),
    "oracle": (cmd_oracle, "tree-sum series (the brute-force route)",
               {**COMMON, "--workers": Flag(1, _int)}),
    "verify": (cmd_verify, "run named verification suites", {
        **COMMON, "--suite": Flag(REQUIRED, choices=SUITES, repeat=True), "--n": Flag(1, _int),
        "--dmaxff": Flag(2, _int), "--primes": Flag("2,3,5"), "--tolerance": Flag(1e-5, _float)}),
    "euler": (cmd_euler, "Euler-characteristic table", COMMON),
    "trees": (cmd_trees, "tree census: vertex count, |Aut|, code",
              {"--vmax": Flag(REQUIRED, _int), "--out": Flag(None)}),
    "count-ff": (cmd_count_ff, "finite-field map count", {
        "--n": Flag(REQUIRED, _int), "--d": Flag(REQUIRED, _int), "--p": Flag(REQUIRED, _int),
        "--out": Flag(None)}),
}


def _parse(argv) -> SimpleNamespace:
    """argv read against COMMANDS: the command, its function and one attribute
    per flag.  A flag's value is the next argument, even one that starts with
    '-', or follows '='; a flag that does not repeat keeps the last value
    given.  Any usage error raises ValueError."""
    if {"-h", "--help"}.intersection(argv):  # help wins wherever it is asked for
        return SimpleNamespace(command=argv[0] if argv[0] in COMMANDS else None, func=_help)
    if not argv or argv[0] not in COMMANDS:
        problem = f"unknown command {argv[0]!r}" if argv else "no command given"
        raise ValueError(f"{problem}: choose one of {', '.join(COMMANDS)}")
    func, _, flags = COMMANDS[argv[0]]
    values, tokens = {}, iter(argv[1:])
    for token in tokens:
        name, given, value = token.partition("=")
        if name not in flags:
            raise ValueError(f"{argv[0]} has no flag {name!r}")
        flag = flags[name]
        if flag.default is False and given:
            raise ValueError(f"{name} is a switch and takes no value")
        value = True if flag.default is False else value if given else next(tokens, None)
        if value is None:
            raise ValueError(f"{name} needs a value")
        if flag.choices and value not in flag.choices:
            raise ValueError(f"{name} {value!r} is not one of {', '.join(flag.choices)}")
        value = flag.read(name, value) if flag.read else value
        values[name] = values.get(name, []) + [value] if flag.repeat else value
    for name, flag in flags.items():
        if flag.default is REQUIRED and name not in values:
            raise ValueError(f"{argv[0]} needs {name}")
    return SimpleNamespace(command=argv[0], func=func, **{
        name[2:]: values.get(name, flag.default) for name, flag in flags.items()})


def _help(args) -> int:
    """Print every command, or args.command alone, with its flags."""
    print("usage: stablemaps COMMAND [--FLAG VALUE | --FLAG=VALUE | --SWITCH]...")
    for command, (_, text, flags) in COMMANDS.items():
        if args.command in (None, command):
            print(f"\n{command}: {text}")
            for name, flag in flags.items():
                notes = ["switch" if flag.default is False else "required"
                         if flag.default is REQUIRED else f"default {flag.default}"]
                notes += ["repeatable"] * flag.repeat
                notes += [f"one of {'|'.join(flag.choices)}"] * bool(flag.choices)
                print(f"  {name:<12} {', '.join(notes)}")
    return 0


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        return args.func(args)
    except (ValueError, OSError, ArithmeticError) as exc:  # e.g. a box too large to index
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
