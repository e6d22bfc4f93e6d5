"""Tooling around the library: the benchmark's tracer (perfbench/spans.py)
wraps qcauchy functions by name, so a renamed or removed function must fail
here and not in every traced benchmark operation; the benchmark's own
self-tests must pass; every benchmark request must print its recorded
bytes; the demos must run; the exact (q, t) query commands must not
reach the general gcd; no module, test or demo keeps an import it does
not use; and every top-level name of a module is read somewhere."""

import ast
import functools
import glob
import hashlib
import importlib.util
import json
import os
import signal
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# installs the tracer and runs a small gl-qt verification under it, which
# also calls the gcd's after-hook: it reads the degrees of the gcd's result;
# then a small sl verification, whose after-hooks read the certified box at
# r[1] of sl_certificate and the summand count at r[2] of _sl_rhs_adaptive,
# and whose Macdonald sum opens identities.pair_product spans; then a ch T
# request, whose one summand goes through the same wrapped kernel; then a
# small gl-t0 verification.  Both verifications compare their sides in an
# identities.compare span.  Last come a t = 0 and an atom table request,
# query-mix's route to the wrapped table builders.
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
sl_snap = tracer.snapshot()
sl_counts = {name: v - before.get(name, 0)
             for name, v in sl_snap["counts"].items()}
argv = ["char", "--kind", "T", "--n", "3", "--lambda", "0,1,2",
        "--max-deg", "3", "--max-q", "6"]
with contextlib.redirect_stdout(io.StringIO()):
    char_status = tracer.run_op(2, cli.run, argv)
char_snap = tracer.snapshot()
argv = ["verify", "--identity", "gl-t0", "--n", "2", "--max-deg", "2",
        "--max-q", "2"]
with contextlib.redirect_stdout(io.StringIO()):
    t0_status = tracer.run_op(3, cli.run, argv)
last = tracer.snapshot()["spans"]
before = dict(tracer.snapshot()["counts"])
table_status = []
for op, spec in ((4, "t0"), (5, "qinv-tinf")):
    argv = ["macdonald", "--n", "3", "--lambda", "0,1,2", "--spec", spec]
    with contextlib.redirect_stdout(io.StringIO()):
        table_status.append(tracer.run_op(op, cli.run, argv))
table_counts = {name: v - before.get(name, 0)
                for name, v in tracer.snapshot()["counts"].items()}

def count(name, op):
    return sum(1 for rec in last if rec[spans.OP] == op
               and rec[spans.NAME] == name)
print(json.dumps([status, snap["folded"]["exact.qtpoly_gcd"][0],
                  "exact.qtpoly_gcd.nontrivial" in snap["counts"],
                  sl_status, sl_counts, char_status, t0_status,
                  table_status, table_counts]
                 + [count("identities.pair_product", op) for op in (1, 2)]
                 + [count("identities.compare", op) for op in (1, 3)]))
"""


def test_tracer_installs():
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_VERIFY, os.path.join(ROOT, "perfbench"),
         os.path.join(ROOT, "src")],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    (status, gcd_calls, hooked, sl_status, sl_counts, char_status, t0_status,
     table_status, table_counts, sl_pair_spans, char_pair_spans, sl_compares,
     t0_compares) = json.loads(proc.stdout.splitlines()[-1])
    assert status == 0
    assert gcd_calls > 0
    assert hooked
    # the report's certified_box and summands at this point
    assert sl_status == 0
    assert sl_counts["identities.certificate.box"] == 8
    assert sl_counts["identities.macdonald_side.summands"] == 17
    # the sl tables come packed from the column program, past the wrapped
    # table builders; the table requests still reach both
    assert sl_counts.get("macdonald.T0Engine.batch.targets", 0) == 0
    assert sl_counts.get("macdonald.atom_terms.fillings", 0) == 0
    assert table_status == [0, 0]
    assert table_counts["macdonald.T0Engine.batch.targets"] > 0
    assert table_counts["macdonald.atom_terms.fillings"] > 0
    # the packed sl Macdonald sum goes through the wrapped summand kernel
    assert sl_pair_spans > 0
    # and so does ch T, from characters, through the identities namespace
    assert char_status == 0
    assert char_pair_spans > 0
    # each verification compares its two sides through the wrapped
    # first_difference
    assert t0_status == 0
    assert sl_compares > 0
    assert t0_compares > 0


# imports the command line and runs one small verification through it
NO_ARGPARSE = """
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
from qcauchy import cli
argv = ["verify", "--identity", "gl-t0", "--n", "1", "--max-deg", "1",
        "--max-q", "1"]
with contextlib.redirect_stdout(io.StringIO()), \\
        contextlib.redirect_stderr(io.StringIO()):
    status = cli.run(argv)
print(status, "argparse" in sys.modules)
"""


def test_cli_leaves_argparse_unimported():
    # every benchmark operation is a fresh interpreter, which would pay for
    # importing argparse (gettext with it) and building a parser; this runs
    # in a subprocess because pytest imports argparse itself
    proc = subprocess.run(
        [sys.executable, "-c", NO_ARGPARSE, os.path.join(ROOT, "src")],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "False"]


def _unused_imports(path):
    """The names a module imports at module level and never reads."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((alias.asname or alias.name).split(".")[0]
                            for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


# the modules of the package but __init__.py, which imports to re-export
SOURCES = sorted(os.path.basename(p) for p in glob.glob(
    os.path.join(ROOT, "src", "qcauchy", "*.py"))
    if not p.endswith("__init__.py"))


# the package's modules by file name, then the tests and demos by their
# path in the repository
IMPORTERS = ([os.path.join("src", "qcauchy", m) for m in SOURCES]
             + sorted(os.path.relpath(p, ROOT) for folder in ("tests", "demos")
                      for p in glob.glob(os.path.join(ROOT, folder, "*.py"))))


@pytest.mark.parametrize("path", IMPORTERS, ids=lambda p: p.removeprefix(
    os.path.join("src", "qcauchy", "")))
def test_no_unused_imports(path):
    assert _unused_imports(os.path.join(ROOT, path)) == []


def _module_names(tree):
    """{name: (first line, last line)} of a module's top-level functions,
    classes and assigned constants."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names[node.name] = (node.lineno, node.end_lineno)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        names[leaf.id] = (node.lineno, node.end_lineno)
    return names


def _name_reads(tree, exports):
    """(name, line) of every read in a module: a loaded name, an attribute,
    a component of a dotted string (the tracer looks functions up by such
    strings), or, with ``exports``, a name the module imports (the package
    ``__init__`` re-exports the public API)."""
    for node in ast.walk(tree):
        if exports and isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            for part in node.value.split("."):
                yield part, node.lineno


READ_FROM = ("src/qcauchy", "tests", "demos", "perfbench", "perfbench/tests")


@functools.lru_cache(maxsize=None)
def _reads():
    """{name: {(path, line), ...}} over every Python file the program, its
    tests, demos and benchmark read names from."""
    reads = {}
    for folder in READ_FROM:
        for path in glob.glob(os.path.join(ROOT, folder, "*.py")):
            with open(path) as fh:
                tree = ast.parse(fh.read(), path)
            exports = path == os.path.join(ROOT, "src", "qcauchy",
                                           "__init__.py")
            for name, line in _name_reads(tree, exports):
                reads.setdefault(name, set()).add((path, line))
    return reads


@pytest.mark.parametrize("module", SOURCES)
def test_no_unreferenced_names(module):
    # every top-level function, class and constant of a module is read
    # somewhere outside its own definition: in the program, its tests, the
    # demos or the benchmark
    path = os.path.join(ROOT, "src", "qcauchy", module)
    with open(path) as fh:
        names = _module_names(ast.parse(fh.read(), path))
    unread = [name for name, (first, last) in sorted(names.items())
              if not any(where != path or not first <= line <= last
                         for where, line in _reads().get(name, ()))]
    assert unread == []


def test_benchmark_requests_match_expected_digests(capsys):
    # every request the benchmark can generate, run in this process: its
    # exit status and the sha256 of its stdout equal the recorded ones in
    # perfbench/expected.json, so a change of any report's bytes fails here
    from qcauchy import cli
    spec = importlib.util.spec_from_file_location(
        "workloads", os.path.join(ROOT, "perfbench", "workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    with open(os.path.join(ROOT, "perfbench", "expected.json")) as fh:
        expected = json.load(fh)
    capsys.readouterr()
    for name in workloads.WORKLOADS:
        for argv in workloads.universe(name):
            status = cli.run(argv)
            out = capsys.readouterr().out
            got = {"status": status,
                   "sha256": hashlib.sha256(out.encode()).hexdigest()}
            assert got == expected[workloads.key(argv)], argv


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
    # stdout a pipe whose read end is already closed: the demo dies of
    # SIGPIPE, as a shell tool does, and prints no traceback
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(DEMOS, demo)], stdout=write_end,
            stderr=subprocess.PIPE, text=True, timeout=120, env=env)
    finally:
        os.close(write_end)
    assert proc.returncode == -signal.SIGPIPE, proc.stderr
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
