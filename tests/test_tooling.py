"""The benchmark's tracer (perfbench/spans.py) wraps qcauchy functions by
name; a renamed or removed function must fail here, not in every traced
benchmark operation."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_tracer_installs():
    code = ("import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; "
            "import spans; spans.install(spans.Tracer())")
    proc = subprocess.run(
        [sys.executable, "-c", code, os.path.join(ROOT, "perfbench"),
         os.path.join(ROOT, "src")],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
