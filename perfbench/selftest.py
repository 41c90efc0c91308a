"""Tests of the benchmark itself: the tracer's pitfalls and the checks.

    python3 perfbench/selftest.py

Takes about half a minute: the check tests run every workload job once.
"""

import os
import random
import shutil
import sys
import time
import unittest

import workloads

sys.path.insert(0, os.path.join(workloads.ROOT, "src"))

import checks  # noqa: E402
import child  # noqa: E402
import stablemaps  # noqa: E402
import stablemaps.cli  # noqa: E402
from stablemaps import eulerchi, qfield, series, solver, target  # noqa: E402
from tracer import Tracer, _bindings  # noqa: E402

WORK = os.path.join(workloads.ROOT, workloads.WORK_DIR, "selftest")

SMALL_JOBS = [
    ("compute", "--target", "pn:1", "--kmax", "3", "--dmax", "2"),
    ("oracle", "--target", "pn:1", "--kmax", "2", "--dmax", "2"),
    ("euler", "--target", "pn:1", "--kmax", "3", "--dmax", "2"),
    ("count-ff", "--n", "1", "--d", "1", "--p", "3"),
    ("verify", "--suite", "recurrence", "--n", "1", "--dmaxff", "2"),
]


def _installed(test):
    tracer = Tracer().install()
    test.addCleanup(tracer.uninstall)
    return tracer


def _work(name):
    path = os.path.join(WORK, name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


class TracerPitfalls(unittest.TestCase):
    def test_every_by_value_binding_is_patched_and_restored(self):
        originals = {
            "cli.solve_phi0": stablemaps.cli.solve_phi0,
            "eulerchi.solve_phi0": eulerchi.solve_phi0,
            "solver.series_pow_binomial": solver.series_pow_binomial,
            "eulerchi.series_log1p": eulerchi.series_log1p,
            "cli.count_maps_bruteforce": stablemaps.cli.count_maps_bruteforce,
        }
        tracer = Tracer().install()
        try:
            for fn in tracer.originals:
                self.assertEqual(_bindings(fn), [], fn)
            self.assertIsNot(stablemaps.cli.solve_phi0, originals["cli.solve_phi0"])
            self.assertIsNot(eulerchi.solve_phi0, originals["eulerchi.solve_phi0"])
            self.assertIsNot(solver.series_pow_binomial,
                             originals["solver.series_pow_binomial"])
            self.assertIsNot(eulerchi.series_log1p, originals["eulerchi.series_log1p"])
            self.assertIsNot(stablemaps.cli.count_maps_bruteforce,
                             originals["cli.count_maps_bruteforce"])
        finally:
            tracer.uninstall()
        self.assertIs(stablemaps.cli.solve_phi0, originals["cli.solve_phi0"])
        self.assertIs(eulerchi.solve_phi0, originals["eulerchi.solve_phi0"])
        self.assertIs(solver.series_pow_binomial, originals["solver.series_pow_binomial"])
        self.assertIs(eulerchi.series_log1p, originals["eulerchi.series_log1p"])
        self.assertIs(qfield.RatFunc.__rmul__, qfield.RatFunc.__mul__)

    def test_reflected_operators_are_counted(self):
        tracer = _installed(self)
        x = qfield.RatFunc(qfield.U)
        self.assertIs(qfield.RatFunc.__rmul__, qfield.RatFunc.__mul__)
        self.assertIs(qfield.RatFunc.__radd__, qfield.RatFunc.__add__)
        mul, add = tracer.stats["qfield.ratfunc_mul"], tracer.stats["qfield.ratfunc_add"]
        before = (mul[0], add[0])
        _ = 2 * x
        _ = 1 + x
        self.assertEqual((mul[0], add[0]), (before[0] + 1, before[1] + 1))

    def test_call_sites_are_counted_where_they_call(self):
        tracer = _installed(self)
        g = series.MultiSeries.monomial(series.Grading(0), 3, (), 1, (), 1)
        series.series_pow_binomial(g, 2)
        series.series_log1p(g)
        self.assertEqual(tracer.counters["solver.passes"], 0)
        self.assertEqual(tracer.counters["eulerchi.passes"], 0)
        solver.solve_phi0(target.point_target(), 3)
        eulerchi.solve_phi0_chi(target.projective_space(1), 2, (1,))
        self.assertGreater(tracer.counters["solver.passes"], 0)
        self.assertGreater(tracer.counters["eulerchi.passes"], 0)

    def test_cache_statistics_are_read_without_change(self):
        tracer = _installed(self)
        jobs = [(i, job) for i, job in enumerate(SMALL_JOBS)]
        work = _work("cache")
        child.run_jobs(jobs, os.path.join(work, "unused.json"), work, tracer)
        info = qfield._binom_falling.cache_info()
        sizes = [len(w._cache) for w in tracer.targets]
        metrics = tracer.metrics()
        self.assertEqual(qfield._binom_falling.cache_info(), info)
        self.assertEqual([len(w._cache) for w in tracer.targets], sizes)
        self.assertEqual(metrics["qfield.binom_cache.hits"], info.hits)
        self.assertGreater(metrics["target.cache_entries"], 0)

    def test_self_times_are_non_negative_and_add_up(self):
        tracer = _installed(self)
        jobs = [(i, job) for i, job in enumerate(SMALL_JOBS)]
        work = _work("selftime")
        start = time.perf_counter()
        run = child.run_jobs(jobs, os.path.join(work, "unused.json"), work, tracer)
        elapsed = time.perf_counter() - start
        self.assertTrue(all(job["error"] is None for job in run["jobs"]), run["jobs"])
        roots = tracer.check()
        self.assertTrue(all(s[5] >= -1e-9 for s in tracer.spans))
        self.assertTrue(all(v >= 0 for v in tracer.layer_self.values()))
        self.assertAlmostEqual(sum(tracer.layer_self.values()), roots, delta=1e-6)
        self.assertLessEqual(roots, elapsed)
        self.assertEqual(sum(1 for s in tracer.spans if s[3] == -1), len(SMALL_JOBS))
        for layer in ("cli", "target", "eulerchi", "trees", "solver", "series", "qfield"):
            self.assertGreater(tracer.layer_self[layer], 0, layer)

    def test_check_rejects_a_broken_tracer(self):
        tracer = _installed(self)
        stablemaps.cli.main(["count-ff", "--n", "1", "--d", "1", "--p", "2",
                             "--out", os.path.join(_work("broken"), "out")])
        tracer.layer_self["series"] += 0.5
        with self.assertRaises(AssertionError):
            tracer.check()


def _corrupt(text, pos):
    c = text[pos]
    new = str((int(c) + 1) % 10) if c.isdigit() else chr(ord(c) ^ 1)
    return text[:pos] + new + text[pos + 1:]


class Checks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.outputs = {}
        for name in workloads.WORKLOADS:
            work = _work(name)
            jobs, desc = child.prepare(name, 0, work)
            for job in child.run_jobs(jobs, desc, work)["jobs"]:
                assert job["error"] is None, job
                with open(job["out"], encoding="utf-8") as fh:
                    cls.outputs[job["id"]] = (fh.read(), desc)

    def test_outputs_pass(self):
        for job_id, (text, desc) in self.outputs.items():
            checks.check(job_id, text, desc)

    def test_one_corrupted_byte_fails(self):
        rng = random.Random(0)
        for job_id, (text, desc) in self.outputs.items():
            digits = [i for i, c in enumerate(text) if c.isdigit()]
            others = [i for i, c in enumerate(text) if not c.isdigit()]
            positions = rng.sample(digits, min(6, len(digits)))
            positions += rng.sample(others, min(3, len(others)))
            for pos in positions:
                with self.subTest(job=job_id, pos=pos):
                    with self.assertRaises(Exception):
                        checks.check(job_id, _corrupt(text, pos), desc)

    def test_a_changed_unsettled_value_fails_its_identity(self):
        """Values with |beta| >= 2, re-serialized canonically so that only
        the exact identities can catch them."""
        import json
        from fractions import Fraction

        from stablemaps.qfield import RatFunc
        from stablemaps.series import MultiSeries
        from stablemaps.solver import ClassTable

        text, desc = self.outputs["compute --target pn:1 --kmax 8 --dmax 4"]
        for cell in [(0, (3,)), (0, (4,)), (1, (2,)), (5, (2,)), (8, (4,))]:
            table = ClassTable.from_json(text)
            table.entries[cell] = table.entries[cell] + 1
            with self.subTest(cell=cell), self.assertRaises(checks.CheckFailed):
                checks.check("compute --target pn:1 --kmax 8 --dmax 4", table.to_json(), desc)

        job_id = "oracle --target pn:2 --kmax 5 --dmax 3 --workers 1"
        text, desc = self.outputs[job_id]
        obj = json.loads(text)
        s = MultiSeries.from_json(obj["series"])
        s.coeffs[(0, (3,))] = s.coeffs[(0, (3,))] + RatFunc(1)
        obj["series"] = s.to_json()
        with self.assertRaises(checks.CheckFailed):
            checks.check(job_id, json.dumps(obj, indent=2) + "\n", desc)

        job_id = "euler --target pn:1 --kmax 6 --dmax 4"
        text, desc = self.outputs[job_id]
        obj = json.loads(text)
        row = next(r for r in obj["entries"] if r["k"] == 0 and r["beta"] == [3])
        row["chi"] = str(Fraction(row["chi"]) + 1)
        with self.assertRaises(checks.CheckFailed):
            checks.check(job_id, json.dumps(obj, indent=2) + "\n", desc)

    def test_a_failing_job_is_recorded(self):
        work = _work("failing")
        run = child.run_jobs([(0, ("compute", "--target", "pn:0"))], "", work)
        self.assertEqual(run["jobs"][0]["error"], "exit code 2")


if __name__ == "__main__":
    unittest.main()
