import importlib.util
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import stablemaps
from stablemaps import cli, eulerchi, solver
from stablemaps.cli import main
from stablemaps.qfield import RatFunc
from stablemaps.series import MultiSeries
from stablemaps.solver import ClassTable, extract_classes, potential, solve_phi0
from stablemaps.target import parse_target, projective_space, target_from_json
from stablemaps.trees import tree_sum_potential
from reference import parse_reference
from test_solver import fraction_formatted, p1xp1_descriptor, p1xp1_target

HELP = ("-h", "--help")
PARSE = cli._parse


def read_as_reference(argv):
    """The flag table's reading of argv, checked against the argparse
    reference wherever the reference accepts argv: the same attributes,
    the command function included, with the same values."""
    args = PARSE(argv)
    expected = None if set(HELP).intersection(argv) else parse_reference(argv)
    if expected is not None:  # by repr: a nan tolerance is equal, and 4 is not '4'
        assert {k: repr(v) for k, v in vars(args).items()} == \
            {k: repr(v) for k, v in expected.items()}
    return args


@pytest.fixture(autouse=True)
def parse_checked(monkeypatch):
    # every argv that a test here runs through main is read as argparse read it
    monkeypatch.setattr(cli, "_parse", read_as_reference)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def entry_for(obj, k, beta):
    for row in obj["entries"]:
        if row["k"] == k and row["beta"] == list(beta):
            return row
    raise KeyError((k, beta))


class TestCompute:
    def test_point_table(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "--target", "point", "--kmax", "5")
        assert code == 0
        obj = json.loads(out)
        assert entry_for(obj, 5, ())["class_u"] == ["1", "5", "1"]
        assert entry_for(obj, 5, ())["chi"] == "7"
        assert entry_for(obj, 4, ())["class_q"] == ["1", "0", "1"]

    def test_line_degree_one(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "--target", "pn:1",
                               "--kmax", "0", "--dmax", "1")
        assert code == 0
        assert entry_for(json.loads(out), 0, (1,))["class_u"] == ["1"]

    def test_p3_grassmannian(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "--target", "pn:3",
                               "--kmax", "0", "--dmax", "1")
        assert code == 0
        assert entry_for(json.loads(out), 0, (1,))["class_u"] == ["1", "1", "2", "1", "1"]

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "--target", "point",
                               "--kmax", "4", "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == '"k","beta","class_u","class_q","chi"'
        assert '"4","","1,1","1,0,1","2"' in lines

    def test_deterministic_output(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for path in (a, b):
            code = main(["compute", "--target", "pn:1", "--kmax", "3",
                         "--dmax", "2", "--out", str(path)])
            assert code == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_adams_flag(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "--target", "pn:1",
                               "--kmax", "0", "--dmax", "2", "--adams")
        assert code == 0
        assert entry_for(json.loads(out), 0, (2,))["class_u"] == ["1", "1", "1"]
        code, plain, _ = run_cli(capsys, "compute", "--target", "pn:1",
                                 "--kmax", "0", "--dmax", "2")
        assert code == 0
        assert entry_for(json.loads(plain), 0, (2,))["class_u"] == ["1/2", "1/2", "1"]

    def test_table_roundtrip_bytes(self, tmp_path):
        path = tmp_path / "t.json"
        assert main(["compute", "--target", "pn:2", "--kmax", "2",
                     "--dmax", "1", "--out", str(path)]) == 0
        text = path.read_text()
        assert ClassTable.from_json(text).to_json() == text


# (target, dmax) of the small edge boxes, each run at kmax 0, 1 and 2
EDGE_BOXES = [("point", ()), ("pn:1", (3,)), ("p1xp1", (2, 2))]


def edge_target(name, tmp_path):
    """The --target spec and the TargetSpace of an EDGE_BOXES name; p1xp1
    is written to a descriptor file under tmp_path."""
    if name != "p1xp1":
        return name, parse_target(name)
    path = tmp_path / "p1xp1.json"
    path.write_text(json.dumps(p1xp1_descriptor()))
    return f"file:{path}", p1xp1_target()


class TestTopLayer:
    """compute, and verify without the ode, dt and fe suites, solve phi0
    below t**kmax only: the top layer, which no class reads, is left out,
    and the table is the full-phi0 route's."""

    @pytest.mark.parametrize("adams", [False, True])
    @pytest.mark.parametrize("kmax", [0, 1, 2])
    @pytest.mark.parametrize("name, dmax", EDGE_BOXES)
    def test_table_is_the_full_route(self, capsys, tmp_path, name, dmax, kmax, adams):
        spec, w = edge_target(name, tmp_path)
        argv = ["compute", "--target", spec, "--kmax", str(kmax)]
        argv += ["--dmax", ",".join(map(str, dmax))] if dmax else []
        argv += ["--adams"] if adams else []
        full = extract_classes(potential(w, solve_phi0(w, kmax, dmax, adams), adams), w)
        assert run_cli(capsys, *argv) == (0, full.to_json(), "")
        assert run_cli(capsys, *argv, "--format", "csv") == (0, full.to_csv(), "")

    @staticmethod
    def solved_orders(monkeypatch):
        """A list that gains the t-order of each solve the CLI makes."""
        orders = []
        real = cli.solve_phi0

        def recorded(w, kmax, dmax=None, adams=False):
            orders.append(kmax)
            return real(w, kmax, dmax, adams=adams)
        monkeypatch.setattr(cli, "solve_phi0", recorded)
        return orders

    def test_compute_drops_the_top_layer_products(self, capsys, monkeypatch):
        # compute solves pn:2 (6; 4) through t**5 only, and its table is
        # the full-box route's
        orders = self.solved_orders(monkeypatch)
        w, kmax, dmax = projective_space(2), 6, (4,)
        full = extract_classes(potential(w, solve_phi0(w, kmax, dmax)), w).to_json()
        code, out, _ = run_cli(capsys, "compute", "--target", "pn:2", "--kmax", "6",
                               "--dmax", "4")
        assert code == 0 and out == full
        assert orders == [kmax - 1]

    def test_verify_without_top_layer_suites_drops_the_products(self, capsys, monkeypatch):
        # no ode, dt or fe suite reads the t**6 layer, so verify solves one
        # t-order short too, and the oracle suite still passes
        orders = self.solved_orders(monkeypatch)
        w, kmax, dmax = projective_space(2), 6, (4,)
        assert potential(w, solve_phi0(w, kmax, dmax)) == tree_sum_potential(w, kmax, dmax)
        code, out, _ = run_cli(capsys, "verify", "--suite", "oracle", "--target", "pn:2",
                               "--kmax", "6", "--dmax", "4")
        assert code == 0
        assert out == ("PASS oracle: solver potential equals tree sum\n"
                       '{"results": [{"suite": "oracle", "pass": true, '
                       '"detail": "solver potential equals tree sum"}], "ok": true}\n')
        assert orders == [kmax - 1]


class TestStdlibText:
    """The CLI's JSON is byte-equal to json.dumps(obj, indent=2) + "\\n" of
    the objects it writes, and compute's table to one written with one
    Fraction per coefficient (fraction_formatted)."""

    @pytest.mark.parametrize("adams", [False, True])
    @pytest.mark.parametrize("name", ["pn:1", "non-ascii"])
    def test_compute_oracle_euler(self, capsys, tmp_path, name, adams):
        if name == "pn:1":
            spec, w, kmax, dmax = "pn:1", projective_space(1), 3, (2,)
        else:
            descriptor = dict(p1xp1_descriptor(), name='P\u00b9\u00d7P\u00b9 "r\u00e9gl\u00e9"\t\u2603')
            path = tmp_path / "t.json"
            path.write_text(json.dumps(descriptor), encoding="utf-8")
            spec, w, kmax, dmax = f"file:{path}", target_from_json(descriptor), 2, (1, 1)
        argv = ["--target", spec, "--kmax", str(kmax), "--dmax", ",".join(map(str, dmax))]
        argv += ["--adams"] if adams else []
        table = extract_classes(potential(w, solve_phi0(w, kmax, dmax, adams), adams), w)
        json_text, csv_text = fraction_formatted(table)
        assert run_cli(capsys, "compute", *argv) == (0, json_text, "")
        assert run_cli(capsys, "compute", *argv, "--format", "csv") == (0, csv_text, "")
        series = tree_sum_potential(w, kmax, dmax, adams=adams).to_json()
        assert run_cli(capsys, "oracle", *argv) == \
            (0, json.dumps({"target": w.name, "series": series}, indent=2) + "\n", "")
        rows = [{"k": k, "beta": list(d), "chi": str(v)}
                for (k, d), v in sorted(eulerchi.chi_table(w, kmax, dmax, adams).items())]
        obj = {"target": w.name, "kmax": kmax, "dmax": list(dmax), "entries": rows}
        assert run_cli(capsys, "euler", *argv) == (0, json.dumps(obj, indent=2) + "\n", "")


class TestOracle:
    def test_adams_oracle_matches_adams_compute(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--target", "pn:1", "--kmax", "1",
                               "--dmax", "2", "--adams")
        assert code == 0
        terms = {(t["k"], tuple(t["d"])): t["coeff"] for t in json.loads(out)["series"]["terms"]}
        assert terms[(0, (2,))] == {"num": ["1", "1", "1"], "den": ["1"]}

    def test_point_oracle(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--target", "point", "--kmax", "4")
        assert code == 0
        obj = json.loads(out)
        terms = {(t["k"], tuple(t["d"])): t["coeff"] for t in obj["series"]["terms"]}
        assert terms[(3, ())]["num"] == ["1/6"]


class TestVerify:
    def test_ode_suite(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "ode",
                               "--target", "point", "--kmax", "6")
        assert code == 0
        assert "PASS ode" in out

    def test_parser_reused_across_calls(self, capsys):
        # two calls in one process each parse only their own suites
        for suites in (("ode",), ("recurrence", "fe")):
            argv = ["verify", "--target", "point", "--kmax", "2"]
            for suite in suites:
                argv += ["--suite", suite]
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0
            lines = out.splitlines()
            assert [line.split()[1].rstrip(":") for line in lines[:-1]] == list(suites)
            assert [r["suite"] for r in json.loads(lines[-1])["results"]] == list(suites)

    def test_oracle_suite(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "oracle",
                               "--target", "pn:1", "--kmax", "4", "--dmax", "2")
        assert code == 0
        assert "PASS oracle" in out

    def test_ffcount_suite(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "ffcount",
                               "--n", "1", "--dmaxff", "2", "--primes", "2,3,5")
        assert code == 0
        assert "PASS ffcount" in out

    def test_ffcount_suite_counts_constant_maps(self, capsys, monkeypatch):
        # degree 0 is counted too: a miscount of the constant maps must fail
        # the suite, also when it is the only degree asked for
        real = cli.count_maps_bruteforce
        monkeypatch.setattr(cli, "count_maps_bruteforce",
                            lambda n, d, p: real(n, d, p) + (d == 0))
        for dmaxff in ("0", "1"):
            code, out, _ = run_cli(capsys, "verify", "--suite", "ffcount",
                                   "--n", "2", "--dmaxff", dmaxff, "--primes", "3")
            assert code == 1
            assert "FAIL ffcount: (n=2, d=0, p=3): 14 != 13" in out

    def test_negative_dmaxff_is_refused(self, capsys):
        # before, both suites checked nothing and passed
        code, out, err = run_cli(capsys, "verify", "--suite", "recurrence",
                                 "--suite", "ffcount", "--n", "1", "--dmaxff", "-1")
        assert code == 2 and out == ""
        assert err == "error: --dmaxff -1 must be >= 0\n"

    def test_vacuous_ode_suite_is_refused(self, capsys):
        # at --kmax 0 both residuals live on the empty box kmax - 1 = -1:
        # before, any phi0 passed the suite
        code, out, err = run_cli(capsys, "verify", "--suite", "recurrence",
                                 "--suite", "ode", "--kmax", "0")
        assert code == 2 and out == ""
        assert err == ("error: --suite ode needs --kmax >= 1: at --kmax 0 "
                       "both residuals live on an empty box\n")

    @pytest.mark.parametrize("tolerance, shown", [("nan", "nan"), ("-1", "-1.0"),
                                                  ("inf", "inf")])
    def test_bad_tolerance_is_refused(self, capsys, tolerance, shown):
        # before, the implicit suite ran and printed FAIL with exit 1 (nan,
        # -1), or passed on any input (inf)
        code, out, err = run_cli(capsys, "verify", "--suite", "implicit",
                                 "--tolerance", tolerance)
        assert code == 2 and out == ""
        assert err == f"error: --tolerance {shown} must be a finite number >= 0\n"

    # float() alone would read '1_0' as 10 and the Arabic-Indic digit one as 1
    @pytest.mark.parametrize("tolerance", ["\u0661", "1_0", " 1", "1 ", "1\t", "", "x",
                                           "1e-5e"])
    def test_tolerance_text_is_strict(self, capsys, tolerance):
        assert run_cli(capsys, "verify", "--suite", "implicit", "--tolerance", tolerance) == \
            (2, "", f"error: --tolerance {tolerance!r} is not a number\n")

    def test_multiple_suites_and_summary(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "recurrence",
                               "--suite", "chi", "--suite", "dt",
                               "--suite", "potential", "--target", "pn:1",
                               "--kmax", "3", "--dmax", "1", "--n", "2",
                               "--dmaxff", "3")
        assert code == 0
        summary = json.loads(out.strip().split("\n")[-1])
        assert summary["ok"] is True
        assert [r["suite"] for r in summary["results"]] == [
            "recurrence", "chi", "dt", "potential"]

    def test_fe_suite(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "fe",
                               "--target", "pn:2", "--kmax", "3", "--dmax", "2")
        assert code == 0
        assert "PASS fe" in out

    def test_adams_suites(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "oracle", "--suite", "fe",
                               "--adams", "--target", "pn:1", "--kmax", "3",
                               "--dmax", "2")
        assert code == 0
        assert "PASS oracle" in out and "PASS fe" in out

    @pytest.mark.parametrize("flags", [(), ("--adams",)])
    def test_dt_suite_checks_the_closed_form(self, capsys, monkeypatch, flags):
        # a wrong t-layer of phi0 passes the derivative identity, which the
        # potential meets by construction, but not the closed form
        def tampered(w, kmax, dmax, adams=False):
            phi = solver.solve_phi0(w, kmax, dmax, adams=adams)
            return phi + MultiSeries.monomial(phi.grading, phi.kmax, phi.dmax, 1, (1,),
                                              RatFunc(Fraction(1, 7)))
        monkeypatch.setattr(cli, "solve_phi0", tampered)
        code, out, _ = run_cli(capsys, "verify", "--suite", "dt", "--target", "pn:1",
                               "--kmax", "3", "--dmax", "2", *flags)
        assert code == 1
        assert out.startswith("FAIL dt: closed-form residual ")

    @pytest.mark.parametrize("flags", [(), ("--adams",)])
    def test_wrong_slice_is_caught_by_fe_chi_and_oracle(self, capsys, monkeypatch, flags):
        # the t-layers fit any t = 0 slice, so ode and dt pass a slice with
        # its top cell off by 1/7; the functional equation, the Euler limit
        # and the tree sum each catch it
        real = solver._slice

        def tampered(w, dmax, adams):
            r0 = real(w, dmax, adams)
            return r0 + MultiSeries.monomial(r0.grading, 0, r0.dmax, 0, r0.dmax,
                                             RatFunc(Fraction(1, 7)))
        monkeypatch.setattr(solver, "_slice", tampered)
        code, out, _ = run_cli(capsys, "verify", "--suite", "fe", "--suite", "ode",
                               "--suite", "dt", "--suite", "chi", "--suite", "oracle",
                               "--target", "pn:1", "--kmax", "3", "--dmax", "3", *flags)
        assert code == 1
        status = dict(line.split(":")[0].split()[::-1] for line in out.splitlines()[:5])
        assert status == {"fe": "FAIL", "ode": "PASS", "dt": "PASS", "chi": "FAIL",
                          "oracle": "FAIL"}

    @staticmethod
    def count_calls(monkeypatch):
        # solve_phi0 is counted through every binding that the CLI can reach
        calls = {"parse_target": 0, "solve_phi0": 0}

        def counted(module, name):
            real = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        counted(cli, "parse_target")
        counted(cli, "solve_phi0")
        counted(eulerchi, "solve_phi0")
        counted(solver, "solve_phi0")
        return calls

    def verify_call_counts(self, capsys, monkeypatch, *flags):
        calls = self.count_calls(monkeypatch)
        code, out, _ = run_cli(capsys, "verify", "--suite", "oracle", "--suite", "ode",
                               "--suite", "dt", "--suite", "fe", "--suite", "chi",
                               "--target", "pn:1", "--kmax", "3", "--dmax", "2", *flags)
        assert code == 0 and out.count("PASS") == 5
        return calls

    def test_box_and_phi0_resolved_once(self, capsys, monkeypatch):
        assert self.verify_call_counts(capsys, monkeypatch) == \
            {"parse_target": 1, "solve_phi0": 1}

    def test_adams_slice_not_solved_again(self, capsys, monkeypatch):
        # the chi suite reads the Adams correction off the Euler limit's own
        # slice, so the run's one solve is the only one
        assert self.verify_call_counts(capsys, monkeypatch, "--adams") == \
            {"parse_target": 1, "solve_phi0": 1}

    def test_whole_box_inverted_once(self, capsys, monkeypatch):
        # verify solves phi0 through t**kmax in one go, so the suites that
        # read the top layer take no second inverse of 1 - u R0
        inverses = []
        real = solver.series_pow_binomial

        def counted(base, exponent):
            if exponent == -1:
                inverses.append(base)
            return real(base, exponent)
        monkeypatch.setattr(solver, "series_pow_binomial", counted)
        code, out, _ = run_cli(capsys, "verify", "--suite", "ode", "--suite", "dt",
                               "--suite", "fe", "--target", "pn:2", "--kmax", "4",
                               "--dmax", "3")
        assert code == 0 and out.count("PASS") == 3
        assert len(inverses) == 1

    @pytest.mark.parametrize("adams", [False, True])
    @pytest.mark.parametrize("kmax", [1, 2])
    @pytest.mark.parametrize("name, dmax", EDGE_BOXES)
    def test_suites_pass_on_edge_boxes(self, capsys, tmp_path, name, dmax, kmax, adams):
        spec, _ = edge_target(name, tmp_path)
        argv = ["verify", "--suite", "oracle", "--suite", "ode", "--suite", "dt",
                "--suite", "fe", "--suite", "chi", "--target", spec, "--kmax", str(kmax)]
        argv += ["--dmax", ",".join(map(str, dmax))] if dmax else []
        argv += ["--adams"] if adams else []
        code, out, err = run_cli(capsys, *argv)
        assert (code, out.count("PASS"), err) == (0, 5, "")

    def test_euler_adams_runs_no_exact_solve(self, capsys, monkeypatch):
        calls = self.count_calls(monkeypatch)
        code, out, _ = run_cli(capsys, "euler", "--target", "pn:2", "--kmax", "2",
                               "--dmax", "3", "--adams")
        assert code == 0 and entry_for(json.loads(out), 0, (2,))["chi"] == "12"
        assert calls == {"parse_target": 1, "solve_phi0": 0}

    def test_implicit_suite_uses_dmax(self, capsys):
        # the z-truncation moves the spread at z = 1/1000; both boxes pass
        spreads = []
        for dmax in ("1", "5"):
            code, out, _ = run_cli(capsys, "verify", "--suite", "implicit",
                                   "--target", "pn:1", "--kmax", "10", "--dmax", dmax)
            assert code == 0 and "PASS implicit" in out
            spreads.append(out.split("relative spread ")[1].split()[0])
        assert spreads[0] != spreads[1]

    @pytest.mark.parametrize("suites, expected", [(("recurrence", "ode"), 0),
                                                  (("implicit",), 1)])
    def test_out_file_holds_the_report(self, tmp_path, capsys, suites, expected):
        # the report goes to stdout and, with --out, to the file as well
        path = tmp_path / "report.txt"
        argv = ["verify", "--target", "point", "--kmax", "10", "--tolerance", "1e-30",
                "--out", str(path)]
        for suite in suites:
            argv += ["--suite", suite]
        code, out, _ = run_cli(capsys, *argv)
        assert code == expected and out.count("\n") == len(suites) + 1
        assert path.read_text(encoding="utf-8") == out

    def test_failure_exit_code(self, capsys):
        # an impossible tolerance forces a verification failure
        code, out, _ = run_cli(capsys, "verify", "--suite", "implicit",
                               "--target", "point", "--kmax", "10",
                               "--tolerance", "1e-30")
        assert code == 1
        assert "FAIL implicit" in out


class TestSmallCommands:
    def test_trees_census(self, capsys):
        code, out, _ = run_cli(capsys, "trees", "--vmax", "5")
        assert code == 0
        rows = out.strip().split("\n")
        assert len(rows) == 8  # 1+1+1+2+3
        assert rows[0].split("\t")[:2] == ["1", "1"]

    def test_count_ff(self, capsys):
        code, out, _ = run_cli(capsys, "count-ff", "--n", "2", "--d", "1", "--p", "3")
        assert code == 0
        assert out.strip() == "312"

    def test_python_m_from_a_checkout(self):
        # runs without an install: the package directory's parent on the path
        src = str(Path(stablemaps.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "stablemaps", "count-ff",
                               "--n", "1", "--d", "1", "--p", "2"],
                              capture_output=True, text=True, env=env, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "6\n", "")

    def test_euler_table(self, capsys):
        code, out, _ = run_cli(capsys, "euler", "--target", "pn:1",
                               "--kmax", "4", "--dmax", "2")
        assert code == 0
        obj = json.loads(out)
        assert entry_for(obj, 4, (0,))["chi"] == "4"

    def test_euler_adams(self, capsys):
        code, out, _ = run_cli(capsys, "euler", "--target", "pn:2",
                               "--kmax", "0", "--dmax", "2", "--adams")
        assert code == 0
        assert entry_for(json.loads(out), 0, (2,))["chi"] == "12"


# every flag that takes one int reads it by the same rule as --dmax: a
# bad value is one error line naming the flag, and a good one (leading
# zeros and a leading '-' included) reads as it did under int()
INT_FLAG_COMMANDS = {
    "--kmax": ("compute",),
    "--workers": ("oracle", "--kmax", "1"),
    "--n": ("verify", "--suite", "recurrence", "--dmaxff", "1"),
    "--dmaxff": ("verify", "--suite", "recurrence"),
    "--vmax": ("trees",),
    "--d": ("count-ff", "--n", "1", "--p", "3"),
    "--p": ("count-ff", "--n", "1", "--d", "2"),
}
BAD_INTS = ["1_0", "\u0663", " 2", "2 ", "+2", "", "1,2", "2.0"]


class TestErrors:
    # [Map_1]/[W] is u(u+1) in the first target and (3u^2+1)/((u^2+1)(u+1))
    # in the second: neither vanishes at u = 1, so there is no Euler limit
    @pytest.mark.parametrize("pw, value, at_one, command", [
        (["-1", "1"], {"num": ["0", "-1", "0", "1"], "den": ["1"]}, "2", ("euler",)),
        (["-1", "1"], {"num": ["0", "-1", "0", "1"], "den": ["1"]}, "2",
         ("verify", "--suite", "chi")),
        (["1", "1"], {"num": ["1", "0", "3"], "den": ["1", "0", "1"]}, "1", ("euler",)),
    ], ids=["euler", "verify-chi", "euler-rational"])
    def test_euler_limit_needs_vanishing_ratio(self, tmp_path, capsys, pw, value, at_one,
                                               command):
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"name": "t", "rank": 1, "pw": pw,
                                    "classes": [{"beta": [1], "value": value}]}))
        code, out, err = run_cli(capsys, *command, "--target", f"file:{path}",
                                 "--kmax", "3", "--dmax", "1")
        assert code == 2 and out == ""
        assert f"beta (1,) is {at_one} at u = 1, not 0" in err
        assert err.count("\n") == 1

    # int() would read "pn:1_0" as P^10 and "pn: 1" as P^1
    @pytest.mark.parametrize("spec", [
        "torus", "pn:1_0", "pn: 1", "pn:", "pn:1.5", "pn:-1", "pn:\u0661",
    ], ids=["torus", "underscore", "space", "empty", "decimal", "negative", "non-ascii"])
    def test_unknown_target(self, capsys, spec):
        code, _, err = run_cli(capsys, "compute", "--target", spec, "--kmax", "2")
        assert code == 2
        assert err.count("\n") == 1
        assert "unknown target spec" in err

    def test_point_with_dmax(self, capsys):
        code, _, err = run_cli(capsys, "compute", "--target", "point",
                               "--kmax", "2", "--dmax", "1")
        assert code == 2
        assert "z-grading" in err

    def test_dmax_rank_mismatch(self, capsys):
        code, _, err = run_cli(capsys, "compute", "--target", "pn:1",
                               "--kmax", "2", "--dmax", "1,2")
        assert code == 2
        assert "rank" in err

    @pytest.mark.parametrize("box", [("--kmax", "2", "--dmax", "1,2"),
                                     ("--kmax", "2", "--dmax=-1"),
                                     ("--kmax=-1", "--dmax", "1")])
    def test_bad_box(self, capsys, box):
        errors = set()
        for command in ("compute", "oracle", "euler"):
            code, out, err = run_cli(capsys, command, "--target", "pn:1", *box)
            assert code == 2 and out == "" and err.count("\n") == 1
            errors.add(err)
        assert len(errors) == 1

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "compute", "--target", "file:/nope.json",
                               "--kmax", "2")
        assert code == 2

    @pytest.mark.parametrize("entry, message", [
        ({"beta": [1]}, "missing field 'value'"),
        ({"value": {"num": ["1"], "den": ["1"]}}, "missing field 'beta'"),
        ([1, "1"], "must be a JSON object"),
        ({"beta": 5, "value": {"num": ["1"], "den": ["1"]}}, "beta must be a JSON list"),
        ({"beta": [1], "value": {"num": 5, "den": ["1"]}}, "num must be a JSON list"),
        ({"beta": [1], "value": {"num": ["1"]}}, "fields 'num' and 'den'"),
        ({"beta": [1], "value": {"num": ["1"], "den": ["0"]}},
         "error: class for beta (1,) has a zero denominator"),
        ({"beta": [1], "value": {"num": ["1"], "den": []}},
         "error: class for beta (1,) has a zero denominator"),
    ])
    def test_bad_class_entry(self, tmp_path, capsys, entry, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "bad", "rank": 1, "pw": ["1", "1"],
                                    "classes": [entry]}))
        code, _, err = run_cli(capsys, "compute", "--target", f"file:{path}",
                               "--kmax", "1", "--dmax", "1")
        assert code == 2
        assert message in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("field, value", [("pw", 5), ("classes", 5),
                                              ("pw", [float("inf"), 1])])
    def test_bad_descriptor_field(self, tmp_path, capsys, field, value):
        desc = {"name": "bad", "rank": 1, "pw": ["1", "1"], "classes": []}
        desc[field] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(desc))  # writes inf as the JSON extension Infinity
        code, _, err = run_cli(capsys, "compute", "--target", f"file:{path}",
                               "--kmax", "1", "--dmax", "1")
        assert code == 2
        assert f"{field} must be a JSON list" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("field, value, bad", [
        ("pw", ["1/0"], "'1/0'"),
        ("pw", ["1", "x"], "'x'"),
        ("num", ["1", "2/x"], "'2/x'"),
        ("den", ["1/0", "1"], "'1/0'"),
    ])
    def test_bad_coefficient(self, tmp_path, capsys, field, value, bad):
        desc = {"name": "bad", "rank": 1, "pw": ["1", "1"],
                "classes": [{"beta": [1], "value": {"num": ["1"], "den": ["1"]}}]}
        if field == "pw":
            desc["pw"] = value
        else:
            desc["classes"][0]["value"][field] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(desc))
        code, out, err = run_cli(capsys, "compute", "--target", f"file:{path}",
                                 "--kmax", "1", "--dmax", "1")
        assert code == 2 and out == ""
        assert err == f"error: {field} coefficient {bad} is not a rational number\n"

    @pytest.mark.parametrize("command", ["oracle", "verify"])
    def test_workers_below_one(self, capsys, command):
        # the tree sum runs in one process: oracle accepts only --workers 1,
        # and verify has no such flag
        if command == "verify":
            assert run_cli(capsys, "verify", "--suite", "oracle", "--workers", "1") == \
                (2, "", "error: verify has no flag '--workers'\n")
            return
        for workers in ("0", "2"):
            code, out, err = run_cli(capsys, "oracle", "--target", "point", "--kmax", "3",
                                     "--workers", workers)
            assert code == 2
            assert out == ""
            assert err == "error: --workers must be 1: the tree sum runs in one process\n"
        code, out, _ = run_cli(capsys, "oracle", "--target", "point", "--kmax", "3",
                               "--workers", "1")
        assert code == 0 and out

    def test_deeply_nested_target_file(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000)
        code, out, err = run_cli(capsys, "compute", "--target", f"file:{path}")
        assert code == 2 and out == ""
        assert err.startswith(f"error: malformed target file {path}: ")
        assert err.count("\n") == 1

    def test_dmax_too_large_to_index(self, capsys):
        code, out, err = run_cli(capsys, "compute", "--target", "pn:1", "--kmax", "1",
                                 "--dmax", "99999999999999999999")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("box", [("--target", "pn:1", "--kmax", "1",
                                      "--dmax", "99999999999999999999"),
                                     ("--target", "point", "--kmax", "99999999999999999999")])
    def test_box_too_large_to_index(self, capsys, box):
        # refused before any work, with the same line from every command
        errors = set()
        for command in ("compute", "oracle", "euler"):
            code, out, err = run_cli(capsys, command, *box)
            assert code == 2 and out == "" and err.count("\n") == 1
            errors.add(err)
        assert errors == {"error: box too large: a truncation order above "
                          f"{sys.maxsize} cannot be indexed\n"}

    def test_trees_census_too_large(self, capsys, monkeypatch):
        # refused before any tree is built; 18, the largest census allowed,
        # is checked with the enumeration stubbed out (it takes ~30 s)
        for vmax in ("19", "30"):
            code, out, err = run_cli(capsys, "trees", "--vmax", vmax)
            assert code == 2 and out == ""
            assert err == ("error: --vmax above 18: the census grows about sixfold "
                           "per vertex and would not finish\n")
        monkeypatch.setattr(cli, "enum_trees", lambda vmax: [])
        assert run_cli(capsys, "trees", "--vmax", "18")[0] == 0

    def test_count_ff_too_large(self, capsys):
        code, out, err = run_cli(capsys, "count-ff", "--n", "3", "--d", "3", "--p", "5")
        assert code == 2 and out == ""
        assert err == ("error: too large: p^((n+1)(d+1)) = 5^16 tuples exceed "
                       "the cap of 10^9\n")

    def test_ffcount_suite_refuses_before_counting(self, capsys, monkeypatch):
        # (1,5,7) is over the cap: no smaller (d, p) may be counted first,
        # and no other suite may run
        calls = []
        monkeypatch.setattr(cli, "count_maps_bruteforce",
                            lambda *a: calls.append(a) or 0)
        code, out, err = run_cli(capsys, "verify", "--suite", "recurrence",
                                 "--suite", "ffcount", "--n", "1", "--dmaxff", "5",
                                 "--primes", "7")
        assert calls == []
        assert code == 2 and out == ""
        assert err == ("error: too large: p^((n+1)(d+1)) = 7^12 tuples exceed "
                       "the cap of 10^9\n")

    # int() would read "1_0" as 10 and the Arabic-Indic digit two as 2;
    # an empty entry used to print int()'s own message
    @pytest.mark.parametrize("argv, flag, entry", [
        (("compute", "--target", "pn:1", "--kmax", "1", "--dmax", "1_0"), "--dmax", "1_0"),
        (("compute", "--target", "pn:1", "--kmax", "1", "--dmax", "\u0662"), "--dmax",
         "\u0662"),
        (("compute", "--target", "pn:1", "--kmax", "1", "--dmax", " 1"), "--dmax", " 1"),
        (("oracle", "--target", "pn:1", "--kmax", "1", "--dmax", ""), "--dmax", ""),
        (("euler", "--target", "pn:1", "--kmax", "1", "--dmax", "1,"), "--dmax", ""),
        (("verify", "--suite", "ffcount", "--primes", "1_1"), "--primes", "1_1"),
        (("verify", "--suite", "ffcount", "--primes", ","), "--primes", ""),
        (("verify", "--suite", "recurrence", "--suite", "ffcount", "--primes", "2,+3"),
         "--primes", "+3"),
    ], ids=["underscore", "non-ascii", "space", "empty", "trailing-comma",
            "primes-underscore", "primes-empty", "primes-plus"])
    def test_int_list_is_strict(self, capsys, argv, flag, entry):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err == f"error: {flag} entry {entry!r} is not an integer\n"


    @pytest.mark.parametrize("argv, code, out, err", [
        ((*command, flag, value), 2, "", f"error: {flag} entry {value!r} is not an integer\n")
        for flag, command in INT_FLAG_COMMANDS.items() for value in BAD_INTS
    ] + [
        (("compute", "--kmax", "-1"), 2, "", "error: kmax -1 must be >= 0\n"),
        (("oracle", "--kmax", "1", "--workers", "01"), 0,
         '{\n  "target": "point",\n  "series": {\n    "kmax": 1,\n    "dmax": [],\n'
         '    "terms": []\n  }\n}\n', ""),
        (("oracle", "--workers", "0"), 2, "",
         "error: --workers must be 1: the tree sum runs in one process\n"),
        (("verify", "--suite", "recurrence", "--n", "2", "--dmaxff", "3"), 0,
         "PASS recurrence: degree recurrence for n=2 up to d=3\n"
         '{"results": [{"suite": "recurrence", "pass": true, "detail": "degree recurrence '
         'for n=2 up to d=3"}], "ok": true}\n', ""),
        (("verify", "--suite", "recurrence", "--dmaxff", "-1"), 2, "",
         "error: --dmaxff -1 must be >= 0\n"),
        (("trees", "--vmax", "03"), 0, "1\t1\tC()\n2\t2\tB()()\n3\t2\tC(()())\n", ""),
        (("trees", "--vmax", "0"), 2, "", "error: vmax must be >= 1\n"),
        (("count-ff", "--n", "1", "--d", "2", "--p", "3"), 0, "216\n", ""),
    ], ids=[f"{flag}-{i}" for flag in INT_FLAG_COMMANDS for i in range(len(BAD_INTS))] + [
        "kmax-negative", "workers-leading-zero", "workers-zero", "recurrence",
        "dmaxff-negative", "vmax-leading-zero", "vmax-zero", "count-ff"])
    def test_int_flags_are_strict(self, capsys, argv, code, out, err):
        assert run_cli(capsys, *argv) == (code, out, err)

    def test_negative_dmax_still_reaches_the_box(self, capsys):
        code, out, err = run_cli(capsys, "compute", "--target", "pn:1", "--kmax", "1",
                                 "--dmax=-1")
        assert code == 2 and out == ""
        assert err == "error: dmax (-1,) has a negative component\n"

    @pytest.mark.parametrize("box, vertices", [
        (("--target", "pn:1", "--kmax", "1", "--dmax", "1000"), 1999),
        (("--target", "point", "--kmax", "21"), 19)], ids=["pn1", "point"])
    def test_oracle_box_too_large(self, capsys, monkeypatch, box, vertices):
        # the budget kmax + 2|dmax| admits trees on kmax + 2|dmax| - 2
        # vertices; above the census cap the sum is refused before any
        # tree is built and before any suite prints
        monkeypatch.setattr(cli, "tree_sum_potential", lambda *a, **k: pytest.fail("ran"))
        expected = ("error: box too large for the tree sum: kmax + 2|dmax| - 2 = "
                    f"{vertices} vertices, above the cap of 18\n")
        for argv in (("oracle",), ("verify", "--suite", "recurrence", "--suite", "oracle")):
            code, out, err = run_cli(capsys, *argv, *box)
            assert code == 2 and out == ""
            assert err == expected

    @pytest.mark.parametrize("box", [("--target", "pn:1", "--kmax", "0", "--dmax", "10"),
                                     ("--target", "point", "--kmax", "20")],
                             ids=["pn1", "point"])
    def test_oracle_box_at_the_cap_runs(self, capsys, monkeypatch, box):
        # a budget of 20 (18 vertices) is accepted; the sum itself takes
        # seconds on these boxes and is stubbed out
        calls = []

        def stub(w, kmax, dmax, adams=False):
            calls.append((kmax, dmax))
            return MultiSeries.zero(w.grading, kmax, dmax)
        monkeypatch.setattr(cli, "tree_sum_potential", stub)
        code, out, _ = run_cli(capsys, "oracle", *box)
        assert code == 0 and json.loads(out)["series"]["terms"] == []
        assert len(calls) == 1


def load_workloads():
    """perfbench/workloads.py, the benchmark's job list."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = load_workloads()
COMMAND_LIST = "compute, oracle, verify, euler, trees, count-ff"


class TestFlagTable:
    """main reads argv against cli.COMMANDS: each valid argv as the argparse
    reference read it (the parse_checked fixture checks this for every argv
    run in this module), each usage error as one line, and help from the
    table."""

    @pytest.mark.parametrize("job", [job for jobs in WORKLOADS.WORKLOADS.values()
                                     for job in jobs], ids=WORKLOADS.job_id)
    def test_benchmark_jobs_read_as_reference(self, job):
        argv = WORKLOADS.argv(job, "p1xp1.json", "job.out")
        assert parse_reference(argv) is not None
        read_as_reference(argv)

    @pytest.mark.parametrize("argv, line", [
        ((), f"no command given: choose one of {COMMAND_LIST}"),
        (("frobnicate",), f"unknown command 'frobnicate': choose one of {COMMAND_LIST}"),
        (("compute", "--bogus", "1"), "compute has no flag '--bogus'"),
        (("compute", "--km", "3"), "compute has no flag '--km'"),
        (("compute", "--kmax"), "--kmax needs a value"),
        (("compute", "--format", "xml"), "--format 'xml' is not one of json, csv"),
        (("verify", "--suite", "bogus"), "--suite 'bogus' is not one of oracle, ode, dt, fe, "
                                         "potential, implicit, recurrence, ffcount, chi"),
        (("trees",), "trees needs --vmax"),
        (("count-ff", "--n", "1", "--d", "1"), "count-ff needs --p"),
        (("verify",), "verify needs --suite"),
        (("compute", "--adams=1"), "--adams is a switch and takes no value"),
        (("verify", "--workers", "1"), "verify has no flag '--workers'"),
        (("trees", "--kmax", "2"), "trees has no flag '--kmax'"),
    ], ids=["no-command", "unknown-command", "unknown-flag", "prefix", "no-value",
            "format-choice", "suite-choice", "trees-required", "count-ff-required",
            "verify-required", "switch-value", "verify-workers", "trees-kmax"])
    def test_usage_error_is_one_line(self, capsys, argv, line):
        # argparse printed a usage block before each of these errors
        assert run_cli(capsys, *argv) == (2, "", f"error: {line}\n")

    @pytest.mark.parametrize("argv, name, value", [
        (("compute", "--kmax=2", "--kmax", "3"), "kmax", 3),
        (("verify", "--suite=ode", "--suite", "fe", "--suite", "ode"), "suite",
         ["ode", "fe", "ode"]),
        (("compute", "--target=pn:1", "--dmax", "-1"), "dmax", "-1"),
        (("oracle", "--kmax", "-1"), "kmax", -1),
    ], ids=["last-wins", "repeat-in-order", "dash-value", "dash-int"])
    def test_flag_values(self, argv, name, value):
        assert getattr(read_as_reference(argv), name) == value
        assert parse_reference(argv)[name] == value

    @pytest.mark.parametrize("argv", [("--help",), ("-h",),
                                      *[(command, "--help") for command in cli.COMMANDS],
                                      ("compute", "--kmax", "3", "-h"), ("bogus", "--help")])
    def test_help(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == "" and out.startswith("usage: stablemaps ")
        listed = [line.split()[0] for line in out.splitlines() if line.startswith("  ")]
        shown = {line.split(":")[0] for line in out.splitlines() if line[:1].isalpha()}
        if argv[0] in cli.COMMANDS:
            assert shown == {"usage", argv[0]}
            assert listed == list(cli.COMMANDS[argv[0]][2])
        else:
            assert shown == {"usage", *cli.COMMANDS}
            assert listed == [flag for _, _, flags in cli.COMMANDS.values() for flag in flags]
