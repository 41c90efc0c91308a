"""One repetition of a workload, in a fresh interpreter.

    python3 perfbench/child.py '{"workload": ..., "seed": ..., "trace": 0|1,
                                 "setup_only": false, "work": DIR, "spawn": T}'

T is the parent's time.monotonic() just before the spawn, so setup_s covers
interpreter start, the stablemaps import and writing the generated target
descriptor.  The jobs then run as in-process `stablemaps.cli.main(argv)`
calls with `--out` in DIR, unless setup_only is set, with the reference
computation between them.  The last line of stdout is one JSON object:
setup_s, wall_s and cpu_s (sums over the jobs), one record per job (time,
CPU time, reference time) and, when traced, the per-layer metrics.
"""

import contextlib
import io
import json
import os
import sys
import time
from fractions import Fraction

import workloads


def prepare(workload: str, seed: int, work: str):
    """Write the workload's descriptor into `work`; return the jobs in seed
    order as (index in the workload definition, job) pairs, and the
    descriptor path."""
    jobs, entries = workloads.plan(workload, seed)
    desc = os.path.join(work, workloads.DESC_NAME + ".json")
    if workloads.uses_descriptor(workload):
        with open(desc, "w", encoding="utf-8") as fh:
            fh.write(workloads.descriptor_text(entries))
    order = workloads.WORKLOADS[workload]
    return [(order.index(job), job) for job in jobs], desc


def reference_s():
    """Time of a fixed computation of about a quarter second that uses
    nothing from stablemaps: dense products of Fraction polynomials, the
    operation mix that dominates qfield.

    On a shared 2-core Xeon VM the speed of pure-Python code drifted by up
    to 40% over minutes and by 10-20% from one second to the next, and the
    reference slows down with it.  Dividing each job's time by the mean of
    the references run right before and right after it cancels most of the
    drift."""
    coeffs = [Fraction(i + 1, i + 2) for i in range(24)]
    start = time.perf_counter()
    for _ in range(120):
        out = [Fraction(0)] * 47
        for i, x in enumerate(coeffs):
            for j, y in enumerate(coeffs):
                out[i + j] += x * y
    return time.perf_counter() - start


def run_jobs(jobs, desc: str, work: str, tracer=None, reference=False) -> dict:
    """Run the jobs, timing each one alone.  With `reference`, reference_s()
    runs before the first job and after each job, outside the job timings,
    and each job record gets ref_s, the mean of the two around it."""
    import stablemaps.cli

    records = []
    ref = reference_s() if reference else None
    for index, job in jobs:
        out = os.path.join(work, f"job{index}.out")
        if tracer is not None:
            tracer.job = index
        captured = io.StringIO()
        error = None
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            with contextlib.redirect_stdout(captured):
                rc = stablemaps.cli.main(workloads.argv(job, desc, out))
        except Exception as exc:  # a job that raises counts as failed; the rest still run
            rc, error = None, f"{type(exc).__name__}: {exc}"
        seconds, cpu = time.perf_counter() - t0, time.process_time() - c0
        if error is None and rc != 0:
            error = f"exit code {rc}"
        records.append({"id": workloads.job_id(job), "index": index, "s": seconds,
                        "cpu_s": cpu, "error": error, "out": out,
                        "stdout": captured.getvalue()})
        if reference:
            ref_after = reference_s()
            records[-1]["ref_s"] = (ref + ref_after) / 2
            ref = ref_after
    for rec in records:
        # `verify` reports on stdout; keep it as that job's output
        if rec["id"].startswith("verify") and rec["error"] is None:
            with open(rec["out"], "w", encoding="utf-8") as fh:
                fh.write(rec.pop("stdout"))
        else:
            rec.pop("stdout")
    return {"wall_s": sum(r["s"] for r in records),
            "cpu_s": sum(r["cpu_s"] for r in records), "jobs": records}


def main():
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, os.path.join(workloads.ROOT, "src"))
    import stablemaps.cli  # noqa: F401

    jobs, desc = prepare(spec["workload"], spec["seed"], spec["work"])
    setup = time.monotonic() - spec["spawn"]
    if spec["setup_only"]:
        print(json.dumps({"setup_s": setup}))
        return

    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer().install()
    result = run_jobs(jobs, desc, spec["work"], tracer, reference=True)
    result["setup_s"] = setup
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.metrics()
        with open(os.path.join(spec["work"], "spans.json"), "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "job", "self_s"],
                       "spans": tracer.spans}, fh)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
