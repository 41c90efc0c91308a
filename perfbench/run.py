"""stablemaps benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload closed-form --seed 1 --seconds 40 --trace 0

Each repetition of the workload runs in a fresh interpreter (child.py),
spawned here and reaped with os.wait4, so the caches in qfield, trees and
TargetSpace start empty, as for a CLI user.  Repetitions run one at a time,
in one process each, until --seconds is spent (at least three), with
set-up-only children in between.  The outputs are then checked (checks.py)
outside the timed region.

--trace 0 reports the end-to-end metrics, each the median over the
repetitions: wall_ref and cpu_ref (a repetition's job times and CPU times,
each job divided by the reference computation run around it in the child),
peak_rss_mib (the child's peak RSS) and setup_s (spawn until stablemaps is
imported and the generated descriptor is written).  The raw wall_s and
cpu_s are printed too.  --trace 1 alternates untraced and traced
repetitions and reports the per-layer metrics of the traced ones
(tracer.py), with the tracing overhead as traced minus untraced wall_s.

Lines before the last describe the run: the environment (commit, source
digest, Python, nproc, CPU model, load average at start and end), the seed,
every metric with its unit, error_rate (failed jobs over attempted jobs) and,
when traced, each layer's share of the traced time.  The last line is one
JSON object: correct, attempted, failed and metrics.

Exit status: 0 when a result is printed, 1 when a repetition fails to run,
2 when the program or the benchmark definition is missing.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import sys
import time

import workloads
from tracer import LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
MIN_REPS = 3
SETUP_PROBES = 2  # set-up-only children per repetition: set-up time drifts with the machine
DEADLINE_S = 165  # a run must end within 180 s, checks included


class RunFailed(Exception):
    pass


# -- environment ------------------------------------------------------------------

def _read(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return None


def _commit():
    head = _read(os.path.join(workloads.ROOT, ".git", "HEAD"))
    if head is None:
        return "unknown (not a git checkout)"
    head = head.strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    loose = _read(os.path.join(workloads.ROOT, ".git", ref))
    if loose:
        return loose.strip()
    for line in (_read(os.path.join(workloads.ROOT, ".git", "packed-refs")) or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def _src_digest():
    digest = hashlib.sha256()
    src = os.path.join(workloads.ROOT, "src")
    for base, dirs, files in sorted(os.walk(src)):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def _cpu_model():
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return "unknown"


def _loadavg():
    text = _read("/proc/loadavg")
    return " ".join(text.split()[:3]) if text else "unknown"


# -- one repetition ---------------------------------------------------------------

def _reap(pid, deadline):
    """Wait for the child with os.wait4; kill it at the deadline."""
    while True:
        got, status, usage = os.wait4(pid, os.WNOHANG)
        if got == pid:
            return status, usage
        if time.monotonic() > deadline:
            os.kill(pid, 9)
            os.wait4(pid, 0)
            raise RunFailed(f"repetition killed after the {DEADLINE_S} s deadline")
        time.sleep(0.005)


def run_child(workload, seed, traced, work, deadline, setup_only=False):
    os.makedirs(work, exist_ok=True)
    out_path, err_path = os.path.join(work, "child.out"), os.path.join(work, "child.err")
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, out_path, flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, err_path, flags, 0o644)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    spec = {"workload": workload, "seed": seed, "trace": int(traced),
            "setup_only": setup_only, "work": work}
    spec["spawn"] = time.monotonic()
    pid = os.posix_spawn(sys.executable, [sys.executable, "-s", CHILD, json.dumps(spec)],
                         env, file_actions=actions)
    status, usage = _reap(pid, deadline)
    lines = (_read(out_path) or "").strip().splitlines()
    if os.waitstatus_to_exitcode(status) != 0 or not lines:
        tail = (_read(err_path) or "").strip().splitlines()[-5:]
        raise RunFailed(f"repetition exited with status {os.waitstatus_to_exitcode(status)}: "
                        + " | ".join(tail))
    rep = json.loads(lines[-1])
    if setup_only:
        return rep["setup_s"]
    rep["traced"] = traced
    rep["peak_rss_mib"] = usage.ru_maxrss / 1024  # ru_maxrss is in KiB on Linux
    rep["desc"] = os.path.join(work, workloads.DESC_NAME + ".json")
    return rep


def run_reps(workload, seed, seconds, trace, work):
    """Repetitions until `seconds` would be exceeded by one more; with
    tracing, untraced and traced alternate and stop after a pair.  Untraced
    runs start SETUP_PROBES set-up-only children before each repetition.
    Returns the repetitions and every set-up time measured."""
    start = time.monotonic()
    deadline = start + DEADLINE_S
    reps, setups = [], []
    while True:
        traced = bool(trace) and len(reps) % 2 == 1
        if not trace:
            setups += [run_child(workload, seed, False, os.path.join(work, "setup"), deadline,
                                 setup_only=True) for _ in range(SETUP_PROBES)]
        rep = run_child(workload, seed, traced, os.path.join(work, f"rep{len(reps)}"), deadline)
        reps.append(rep)
        setups.append(rep["setup_s"])
        elapsed = time.monotonic() - start
        per_rep = elapsed / len(reps)
        whole = not trace or len(reps) % 2 == 0
        if whole and len(reps) >= (2 * (MIN_REPS - 1) if trace else MIN_REPS) \
                and elapsed + per_rep > seconds:
            return reps, setups
        if elapsed + 2 * per_rep > DEADLINE_S - 20:
            if whole and len(reps) >= 2:
                return reps, setups
            raise RunFailed("a repetition is too slow for the run's deadline")


# -- checks and metrics ---------------------------------------------------------------

def check_reps(reps):
    """Check every job of every repetition; identical outputs are checked once.
    Keeps the text of each output that passed in its job record.  Returns
    (attempted, failed, failure messages)."""
    import checks

    verdicts = {}
    attempted = failed = 0
    messages = []
    for rep in reps:
        for job in rep["jobs"]:
            attempted += 1
            error = job["error"]
            if error is None:
                text = _read(job["out"])
                key = (job["id"], text)
                if key not in verdicts:
                    try:
                        checks.check(job["id"], text, rep["desc"])
                        verdicts[key] = None
                    except Exception as exc:  # any failure to verify counts against the job
                        verdicts[key] = f"{type(exc).__name__}: {exc}"
                error = verdicts[key]
            if error is None:
                job["text"] = text
            else:
                failed += 1
                messages.append(f"{job['id']}: {error}")
    return attempted, failed, messages


def _median(values):
    """Median; for whole numbers (counts), the lower median, so it stays whole."""
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def end_to_end(reps, setups):
    return {"wall_ref": _median([sum(j["s"] / j["ref_s"] for j in r["jobs"]) for r in reps]),
            "cpu_ref": _median([sum(j["cpu_s"] / j["ref_s"] for j in r["jobs"]) for r in reps]),
            "peak_rss_mib": _median([r["peak_rss_mib"] for r in reps]),
            "setup_s": _median(setups)}


def per_layer(reps):
    import checks

    traced = [r for r in reps if r["traced"]]
    plain = [r for r in reps if not r["traced"]]
    metrics = {name: _median([r["layers"][name] for r in traced])
               for name in traced[0]["layers"]}
    outputs = {job["id"]: job["text"] for job in traced[0]["jobs"] if "text" in job}
    metrics.update(checks.output_metrics(outputs))
    metrics["trace.overhead_s"] = (_median([r["wall_s"] for r in traced])
                                   - _median([r["wall_s"] for r in plain]))
    return metrics


def _spread(values):
    if len(values) < 2:
        return f"n={len(values)}"
    return f"min {min(values):.6g}, max {max(values):.6g}, n={len(values)}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bench = _read(os.path.join(workloads.ROOT, "BENCHMARK.json"))
    if not os.path.isfile(os.path.join(workloads.ROOT, "src", "stablemaps", "cli.py")) \
            or bench is None:
        print("error: needs src/stablemaps and BENCHMARK.json at the root of the checkout",
              file=sys.stderr)
        return 2
    spec = json.loads(bench)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    sys.path.insert(0, os.path.join(workloads.ROOT, "src"))

    work = os.path.join(workloads.ROOT, workloads.WORK_DIR,
                        f"{args.workload}-seed{args.seed}-trace{args.trace}")
    env = {"commit": _commit(), "src_sha256": _src_digest(),
           "python": sys.version.split()[0], "nproc": os.cpu_count(),
           "cpu": _cpu_model(), "loadavg_start": _loadavg()}
    shutil.rmtree(work, ignore_errors=True)
    try:
        reps, setups = run_reps(args.workload, args.seed, args.seconds, args.trace, work)
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted, failed, messages = check_reps(reps)
    metrics = per_layer(reps) if args.trace else end_to_end(reps, setups)
    env["loadavg_end"] = _loadavg()
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} do not match "
              "BENCHMARK.json", file=sys.stderr)
        return 2

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"repetitions {len(reps)} ({sum(r['traced'] for r in reps)} traced)")
    print("environment " + json.dumps(env))
    plain = [r for r in reps if not r["traced"]]
    for name in ("wall_s", "cpu_s", "peak_rss_mib"):
        print(f"  rep {name:<13} {_spread([r[name] for r in plain])}")
    print(f"  rep setup_s       {_spread(setups)}")
    for name in sorted(metrics):
        print(f"metric {name} = {metrics[name]!r} {units[name]}")
    for name in ("wall_s", "cpu_s"):
        print(f"measured {name} = {_median([r[name] for r in plain])!r} s "
              "(median; drifts with the machine, so not bounded)")
    print(f"metric error_rate = {failed / attempted!r} ({failed} of {attempted} jobs)")
    for message in messages[:10]:
        print(f"  failed {message}")
    if args.trace:
        total = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
        shares = "  ".join(f"{layer} {metrics[f'{layer}.self_s'] / total:.1%}"
                           for layer in LAYERS)
        print(f"layer shares of traced time: {shares}")

    with open(os.path.join(work, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({"args": vars(args), "environment": env, "metrics": metrics,
                   "attempted": attempted, "failed": failed, "failures": messages,
                   "setups": setups,
                   "repetitions": [{k: v for k, v in r.items() if k != "jobs"}
                                   | {"jobs": [{k: v for k, v in j.items() if k != "text"}
                                               for j in r["jobs"]]} for r in reps]},
                  fh, indent=1)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
