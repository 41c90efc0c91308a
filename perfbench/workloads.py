"""The benchmark's workloads: the CLI jobs each one runs, and the generated
P^1 x P^1 target descriptor.

A job is the argument list of one `stablemaps.cli.main` call, without
`--out`.  The string DESC stands for the path of the generated descriptor.
The seed fixes the job order and the entry order of the descriptor, never
the work: every seed runs the same jobs on the same boxes.
"""

import json
import os
import random

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK_DIR = ".perfbench_work"  # outputs, spans and results; ignored by git
DESC = "{desc}"

WORKLOADS = {
    # The production path: the fixed point in `solver` over `series` and
    # `qfield`.  `trees` does no work here.
    "closed-form": [
        ("compute", "--target", "point", "--kmax", "14"),
        ("compute", "--target", "pn:1", "--kmax", "8", "--dmax", "4"),
        ("compute", "--target", "pn:2", "--kmax", "6", "--dmax", "4"),
        ("compute", "--target", "file:" + DESC, "--kmax", "4", "--dmax", "2,2"),
    ],
    # The 1/|Aut| tree sum: `qfield` under the `trees` recursion, with
    # `series` and `solver` bypassed.
    "tree-oracle": [
        ("oracle", "--target", "pn:2", "--kmax", "5", "--dmax", "3", "--workers", "1"),
        ("oracle", "--target", "file:" + DESC, "--kmax", "3", "--dmax", "2,2",
         "--workers", "1"),
    ],
    # Many small `qfield`/`series` operations on degree-0 operands, plus the
    # integer brute force in `target`.
    "euler-ffcount": [
        ("euler", "--target", "pn:1", "--kmax", "6", "--dmax", "4"),
        ("euler", "--target", "pn:2", "--kmax", "5", "--dmax", "3"),
        ("count-ff", "--n", "1", "--d", "3", "--p", "5"),
        ("count-ff", "--n", "1", "--d", "4", "--p", "3"),
        ("count-ff", "--n", "2", "--d", "2", "--p", "5"),
        ("verify", "--suite", "recurrence", "--n", "3", "--dmaxff", "8"),
    ],
}

DESC_NAME = "p1xp1"
DESC_BOX = (2, 2)


def job_id(job) -> str:
    """Stable name of a job, independent of where the descriptor lives."""
    return " ".join(job).replace(DESC, DESC_NAME + ".json")


def uses_descriptor(workload: str) -> bool:
    return any(DESC in arg for job in WORKLOADS[workload] for arg in job)


def plan(workload: str, seed: int):
    """The workload's jobs in seed order, and the descriptor's class entries
    in seed order."""
    rng = random.Random(seed)
    jobs = list(WORKLOADS[workload])
    rng.shuffle(jobs)
    entries = [(a, b) for a in range(DESC_BOX[0] + 1) for b in range(DESC_BOX[1] + 1)
               if (a, b) != (0, 0)]
    rng.shuffle(entries)
    return jobs, entries


def descriptor_text(entries) -> str:
    """JSON descriptor of P^1 x P^1 in the basis of the two rulings.

    [Map_(a,b)] = [Map_a(P^1)] * [Map_b(P^1)] and [W] = (u+1)^2, from the
    closed forms of `stablemaps.target`, written out by hand so that the
    benchmark builds its input without calling the program.
    """
    def map_p1(d):  # lowest degree first; [Map_0] = u + 1
        if d == 0:
            return [1, 1]
        # (u + 1) * u^(2(d-1)) * (u^2 - u) = u^(2d-1) * (u^2 - 1)
        return [0] * (2 * d - 1) + [-1, 0, 1]

    def mul(p, q):
        out = [0] * (len(p) + len(q) - 1)
        for i, x in enumerate(p):
            for j, y in enumerate(q):
                out[i + j] += x * y
        return out

    classes = [{"beta": [a, b],
                "value": {"num": [str(c) for c in mul(map_p1(a), map_p1(b))],
                          "den": ["1"]}}
               for a, b in entries]
    desc = {"name": DESC_NAME, "rank": 2, "pw": ["1", "2", "1"], "classes": classes}
    return json.dumps(desc, indent=2) + "\n"


def argv(job, desc_path: str, out_path: str) -> list:
    return [a.replace(DESC, desc_path) for a in job] + ["--out", out_path]
