"""Correctness checks on the benchmark's outputs, run after the timed region.

Every output must be byte-canonical (re-serializing what it says gives the
same bytes).  Settled values are compared with goldens.json: every `point`
cell, the cells with |beta| <= 1, the finite-field counts and the recurrence
result.  Cells with |beta| >= 2 are meant to change (ROADMAP item 1), so they
are checked by exact identities instead:

- compute: with Phi rebuilt from the table and phi0 = d/dt(Phi / P_W), the
  ODE residual (1 - u phi0) phi0_t - (u+1) phi0 - t must vanish, and so must
  Phi - P_W (-u/(2(u+1)) phi0^2 + phi0/(u+1) - t^2/(2(u+1))) below the top
  t-order, which covers the k = 0 cells the ODE does not see.  ROADMAP
  item 1 adds P_W u/(2(u+1)) psi_2(phi0|t=0) to the k = 0 cells; the change
  that lands it must extend this second identity.
- oracle: the tree-sum series must equal potential(solve_phi0(...)) on the
  same box.
- euler: crosscheck_chi must pass, and every emitted chi must equal the
  exact solver class at u = 1.
- count-ff: the count must equal [Map_d](p).

Run `python3 perfbench/checks.py` to print the settled values of the
current program (the content of goldens.json); the goldens file must change
only when a settled value is shown to have been wrong.
"""

import json
import os
from fractions import Fraction
from functools import lru_cache
from math import factorial

GOLDENS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "goldens.json")


class CheckFailed(Exception):
    pass


def _require(ok, what):
    if not ok:
        raise CheckFailed(what)


def _kind(job_id):
    return job_id.split()[0]


def _opt(job_id, flag):
    words = job_id.split()
    return words[words.index(flag) + 1]


def _cell(k, beta):
    return f"{k}|{','.join(str(b) for b in beta)}"


def _settled_beta(beta):
    return sum(beta) <= 1


# -- settled values -----------------------------------------------------------------

def settled(job_id: str, text: str):
    """The settled part of one output, in the form stored in goldens.json."""
    kind = _kind(job_id)
    if kind in ("count-ff", "verify"):
        return text
    obj = json.loads(text)
    if kind == "compute":
        return {_cell(r["k"], r["beta"]): r["class_u"] for r in obj["entries"]
                if _settled_beta(r["beta"])}
    if kind == "euler":
        return {_cell(r["k"], r["beta"]): r["chi"] for r in obj["entries"]
                if _settled_beta(r["beta"])}
    if kind == "oracle":
        return {_cell(t["k"], t["d"]): t["coeff"] for t in obj["series"]["terms"]
                if _settled_beta(t["d"])}
    raise ValueError(f"no settled values for {job_id!r}")


@lru_cache(maxsize=1)
def _goldens():
    with open(GOLDENS, encoding="utf-8") as fh:
        return json.load(fh)


# -- exact identities -----------------------------------------------------------------

def _target(job_id, desc_path):
    from stablemaps.target import parse_target

    spec = _opt(job_id, "--target")
    if spec.startswith("file:"):
        spec = "file:" + desc_path
    return parse_target(spec)


def _box(job_id, w):
    kmax = int(_opt(job_id, "--kmax"))
    dmax = (tuple(int(x) for x in _opt(job_id, "--dmax").split(","))
            if "--dmax" in job_id.split() else w.grading.zero)
    return kmax, dmax


def _closed_form_identities(table, w):
    from stablemaps.qfield import LINE_CLASS, P_ONE, RatFunc, U, UPoly
    from stablemaps.series import MultiSeries, series_dt

    g, kmax, dmax = w.grading, table.kmax, table.dmax
    phi = MultiSeries(g, kmax, dmax, {key: RatFunc(p) * Fraction(1, factorial(key[0]))
                                      for key, p in table.entries.items()})
    phi0 = series_dt(phi).scale(RatFunc(P_ONE, w.pw))
    km = kmax - 1

    def t_pow(n, kcap):
        return (MultiSeries.monomial(g, kcap, dmax, n, g.zero, 1) if kcap >= n
                else MultiSeries.zero(g, kcap, dmax))

    one = MultiSeries.const(g, km, dmax, 1)
    ode = (one - phi0.scale(U)) * series_dt(phi0) \
        - (phi0.scale(LINE_CLASS) + t_pow(1, km)).truncate(kmax=km - 1)
    two_up1 = LINE_CLASS.scale(2)
    closed = ((phi0 * phi0).scale(RatFunc(UPoly((0, -1)), two_up1))
              + phi0.scale(RatFunc(P_ONE, LINE_CLASS))
              - t_pow(2, km).scale(RatFunc(P_ONE, two_up1))).scale(w.pw)
    gap = closed - phi.truncate(kmax=km)
    return ode, gap


@lru_cache(maxsize=8)
def _closed_form_potential(job_id, desc_path):
    from stablemaps.solver import potential, solve_phi0

    w = _target(job_id, desc_path)
    kmax, dmax = _box(job_id, w)
    return potential(w, solve_phi0(w, kmax, dmax))


@lru_cache(maxsize=8)
def _exact_table_and_crosscheck(job_id, desc_path):
    from stablemaps.eulerchi import crosscheck_chi
    from stablemaps.solver import extract_classes

    w = _target(job_id, desc_path)
    kmax, dmax = _box(job_id, w)
    table = extract_classes(_closed_form_potential(job_id, desc_path), w)
    return table, crosscheck_chi(w, kmax, dmax)


# -- the check ------------------------------------------------------------------------

def check(job_id: str, text: str, desc_path: str) -> None:
    """Raise CheckFailed (or the parser's error) unless `text` is a correct
    output of the job."""
    kind = _kind(job_id)
    golden = _goldens().get(job_id)
    _require(golden is not None, f"no golden entry for {job_id!r}")
    _require(settled(job_id, text) == golden, "settled values differ from goldens.json")

    if kind == "compute":
        from stablemaps.solver import ClassTable

        table = ClassTable.from_json(text)
        _require(table.to_json() == text, "output is not byte-canonical")
        w = _target(job_id, desc_path)
        _require((table.target_name, table.kmax, table.dmax) == (w.name,) + _box(job_id, w),
                 "wrong target or box")
        ode, gap = _closed_form_identities(table, w)
        _require(ode.is_zero, "ODE residual is nonzero")
        _require(gap.is_zero, "table is not the closed-form potential of its phi0")
    elif kind == "oracle":
        from stablemaps.series import MultiSeries

        obj = json.loads(text)
        w = _target(job_id, desc_path)
        series = MultiSeries.from_json(obj["series"], grading=w.grading)
        canonical = {"target": w.name, "series": series.to_json()}
        _require(json.dumps(canonical, indent=2) + "\n" == text, "output is not byte-canonical")
        _require(series == _closed_form_potential(job_id, desc_path),
                 "tree sum differs from the closed-form potential")
    elif kind == "euler":
        obj = json.loads(text)
        for row in obj["entries"]:
            row["chi"] = str(Fraction(row["chi"]))
        _require(json.dumps(obj, indent=2) + "\n" == text, "output is not byte-canonical")
        w = _target(job_id, desc_path)
        _require((obj["target"], obj["kmax"], tuple(obj["dmax"])) == (w.name,) + _box(job_id, w),
                 "wrong target or box")
        table, crosscheck = _exact_table_and_crosscheck(job_id, desc_path)
        _require(crosscheck, "crosscheck_chi failed")
        emitted = {(r["k"], tuple(r["beta"])): Fraction(r["chi"]) for r in obj["entries"]}
        _require(emitted == {cell: table.entry(*cell).eval(1) for cell in table.cells()},
                 "chi differs from the exact classes at u = 1")
    elif kind == "count-ff":
        from stablemaps.target import projective_space

        n, d, p = (int(_opt(job_id, f)) for f in ("--n", "--d", "--p"))
        _require(text == f"{projective_space(n).map_class((d,)).eval_at(p)}\n",
                 "count differs from [Map_d](p)")
    elif kind != "verify":
        raise ValueError(f"no check for {job_id!r}")


# -- metrics read off the outputs ---------------------------------------------------

def _polys(job_id, text):
    kind = _kind(job_id)
    if kind == "compute":
        return [r["class_u"] for r in json.loads(text)["entries"]]
    if kind == "oracle":
        terms = json.loads(text)["series"]["terms"]
        return [t["coeff"][part] for t in terms for part in ("num", "den")]
    if kind == "euler":
        return [[r["chi"]] for r in json.loads(text)["entries"]]
    if kind == "count-ff":
        return [[text.strip()]]
    return []


def output_metrics(outputs) -> dict:
    """Metrics read off one run's outputs, a {job_id: text} map."""
    from stablemaps.qfield import UPoly, is_palindromic

    udeg = bits = cells = nonpal = tree_cells = size = 0
    for job_id, text in outputs.items():
        size += len(text.encode("utf-8"))
        for coeffs in _polys(job_id, text):
            udeg = max(udeg, len(coeffs) - 1)
            for c in coeffs:
                f = Fraction(c)
                bits = max(bits, f.numerator.bit_length(), f.denominator.bit_length())
        kind = _kind(job_id)
        if kind == "compute":
            rows = json.loads(text)["entries"]
            cells += len(rows)
            spec = _opt(job_id, "--target")
            if spec.startswith("pn:"):
                n = int(spec[3:])
                nonpal += sum(
                    1 for r in rows
                    if not is_palindromic(UPoly.from_json(r["class_u"]),
                                          (n + 1) * r["beta"][0] + n + r["k"] - 3))
        elif kind == "oracle":
            tree_cells += len(json.loads(text)["series"]["terms"])
    return {
        "qfield.udeg_max": udeg,
        "qfield.coeff_bits_max": bits,
        "solver.cells": cells,
        "solver.nonpalindromic_cells": nonpal,
        "trees.cells": tree_cells,
        "cli.output_bytes": size,
    }


def _print_settled():
    """Run every workload job once in this process and print the settled
    values as goldens.json content."""
    import sys

    import child
    import workloads

    sys.path.insert(0, os.path.join(workloads.ROOT, "src"))
    work = os.path.join(workloads.ROOT, workloads.WORK_DIR, "goldens")
    os.makedirs(work, exist_ok=True)
    out = {}
    for name in workloads.WORKLOADS:
        run = child.run_jobs(*child.prepare(name, 0, work), work)
        for job in run["jobs"]:
            if job["error"] is not None:
                raise SystemExit(f"{job['id']}: {job['error']}")
            with open(job["out"], encoding="utf-8") as fh:
                out[job["id"]] = settled(job["id"], fh.read())
    print(json.dumps(out, indent=1, sort_keys=True))


if __name__ == "__main__":
    _print_settled()
