"""Tooling around the library: the benchmark's tracer (perfbench/spans.py)
wraps qcauchy functions by name, so a renamed or removed function must fail
here and not in every traced benchmark operation; and the demos must run."""

import glob
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_tracer_installs():
    code = ("import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; "
            "import spans; spans.install(spans.Tracer())")
    proc = subprocess.run(
        [sys.executable, "-c", code, os.path.join(ROOT, "perfbench"),
         os.path.join(ROOT, "src")],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


DEMOS = os.path.join(ROOT, "demos")


@pytest.mark.parametrize("demo", sorted(
    os.path.basename(p) for p in glob.glob(os.path.join(DEMOS, "*.py"))))
def test_demos_run(demo):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.join(DEMOS, demo)],
        capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
