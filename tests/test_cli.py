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
from stablemaps.solver import ClassTable


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
        # one parser per process; each call still parses only its own suites
        assert cli.build_parser() is cli.build_parser()
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

    def verify_call_counts(self, capsys, monkeypatch, *flags):
        # solve_phi0 is counted through every binding that verify can reach
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
        code, out, _ = run_cli(capsys, "verify", "--suite", "oracle", "--suite", "ode",
                               "--suite", "dt", "--suite", "fe", "--suite", "chi",
                               "--target", "pn:1", "--kmax", "3", "--dmax", "2", *flags)
        assert code == 0 and out.count("PASS") == 5
        return calls

    def test_box_and_phi0_resolved_once(self, capsys, monkeypatch):
        assert self.verify_call_counts(capsys, monkeypatch) == \
            {"parse_target": 1, "solve_phi0": 1}

    def test_adams_slice_not_solved_again(self, capsys, monkeypatch):
        # the chi suite takes the Adams factor from the run's t = 0 slice
        # instead of solving the slice again
        assert self.verify_call_counts(capsys, monkeypatch, "--adams") == \
            {"parse_target": 1, "solve_phi0": 1}

    def test_implicit_suite_uses_dmax(self, capsys):
        # the z-truncation moves the spread at z = 1/1000; both boxes pass
        spreads = []
        for dmax in ("1", "5"):
            code, out, _ = run_cli(capsys, "verify", "--suite", "implicit",
                                   "--target", "pn:1", "--kmax", "10", "--dmax", dmax)
            assert code == 0 and "PASS implicit" in out
            spreads.append(out.split("relative spread ")[1].split()[0])
        assert spreads[0] != spreads[1]

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
            with pytest.raises(SystemExit) as exc:
                main(["verify", "--suite", "oracle", "--workers", "1"])
            assert exc.value.code == 2
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
