"""The demo scripts, the README quickstart and the benchmark's self-test run
to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_python(args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


def quickstart_code() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Quickstart (library)", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_demos_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    done = run_python([str(demo)])
    assert done.returncode == 0, done.stderr


def test_readme_quickstart_runs():
    done = run_python(["-c", quickstart_code()])
    assert done.returncode == 0, done.stderr
    assert done.stdout == "u^2 + u + 1\n"


def test_benchmark_selftest_passes():
    # the self-test calls into the package (MultiSeries.const and monomial
    # among others) and writes only under the git-ignored .perfbench_work/
    done = run_python([str(ROOT / "perfbench" / "selftest.py")])
    assert done.returncode == 0, done.stderr
