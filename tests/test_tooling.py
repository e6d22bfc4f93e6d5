"""Tooling around the library: the benchmark's tracer (perfbench/spans.py)
wraps qcauchy functions by name, so a renamed or removed function must fail
here and not in every traced benchmark operation; the benchmark's own
self-tests must pass; the demos must run; and the exact (q, t) query
commands must not reach the general gcd."""

import glob
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# installs the tracer and runs a small gl-qt verification under it, which
# also calls the gcd's after-hook: it reads the degrees of the gcd's result;
# then a small sl verification, whose after-hooks read the certified box at
# r[1] of sl_certificate and the summand count at r[2] of _sl_rhs_adaptive
TRACED_VERIFY = """
import contextlib, io, json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import spans
tracer = spans.Tracer()
spans.install(tracer)
from qcauchy import cli
argv = ["verify", "--identity", "gl-qt", "--n", "1", "--max-deg", "2"]
with contextlib.redirect_stdout(io.StringIO()):
    status = tracer.run_op(0, cli.run, argv)
snap = tracer.snapshot()
before = dict(snap["counts"])
argv = ["verify", "--identity", "sl", "--n", "2", "--max-deg", "2",
        "--max-q", "3"]
with contextlib.redirect_stdout(io.StringIO()):
    sl_status = tracer.run_op(1, cli.run, argv)
sl_counts = {name: v - before.get(name, 0)
             for name, v in tracer.snapshot()["counts"].items()}
print(json.dumps([status, snap["folded"]["exact.qtpoly_gcd"][0],
                  "exact.qtpoly_gcd.nontrivial" in snap["counts"],
                  sl_status, sl_counts]))
"""


def test_tracer_installs():
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_VERIFY, os.path.join(ROOT, "perfbench"),
         os.path.join(ROOT, "src")],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    status, gcd_calls, hooked, sl_status, sl_counts = json.loads(
        proc.stdout.splitlines()[-1])
    assert status == 0
    assert gcd_calls > 0
    assert hooked
    # the report's certified_box and summands at this point
    assert sl_status == 0
    assert sl_counts["identities.certificate.box"] == 8
    assert sl_counts["identities.macdonald_side.summands"] == 17
    # the window-pruned tables still go through the wrapped table builders
    assert sl_counts["macdonald.T0Engine.batch.targets"] > 0
    assert sl_counts["macdonald.atom_terms.fillings"] > 0


def test_benchmark_self_tests():
    proc = subprocess.run(
        [sys.executable, "-m", "unittest", "discover", "-s",
         "perfbench/tests"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
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


def test_query_commands_need_no_gcd(monkeypatch, capsys):
    # macdonald --spec qt|qt-inv and norm --qt reduce by trial division over
    # the cyclotomic factors of their binomials and never fall back to the
    # general gcd
    from qcauchy import cli, exact
    from qcauchy.weights import compositions_up_to

    def no_gcd(a, b):
        raise AssertionError("general gcd reached")
    monkeypatch.setattr(exact, "qtpoly_gcd", no_gcd)
    for n in (1, 2, 3):
        for lam in compositions_up_to(n, 4):
            text = ",".join(map(str, lam))
            common = ["--n", str(n), "--lambda", text]
            for argv in (["macdonald", *common, "--spec", "qt"],
                         ["macdonald", *common, "--spec", "qt-inv"],
                         ["norm", *common, "--qt"]):
                assert cli.run(argv) == 0, argv
    capsys.readouterr()
