"""The golden report corpus: every command line of ``golden_reports.json``,
run in this process, passing or with one named fault injected, must exit
with its recorded status and print stdout with its recorded sha256.  A
fault replaces one function of the program in every qcauchy module that
binds it.

The corpus holds the byte lists a change is checked against: the sl
identity, the q-series gl variants and gl-qt at points up to a few seconds
each, every ``macdonald`` spec, ``norm`` flag set and ``char`` kind on both
lattices for n <= 3, |lam| <= 4, and the rank-one appendix, in both output
formats.  The faults are a norm + 1 or + q; one wrong table entry, the
columns of lam = (0, 1, 2) with one cell's leg + 1 too large, which both
tables of lam are built from on the sl side and, on the gl sides, the
atom tables of the orbit of (0, 1, 2) (its increasing representative) and
no t = 0 table; a window cost of the sl side one too large where it is
finite, for the t = 0 or the atom rule; the Kostant solutions of the sl
certificate without the largest x-side sum; q^2 added to one coefficient
of the q-binomial factors below the diagonal, which the certificate reads
as its class weights; and the selector b of the gl sides' atom walk with
its test inverted, so that they divide by 1 - q^a where they should not
and not where they should.  Tier-1 runs the rows marked tier1 (a few
seconds); the whole corpus (about 40 s) runs from the command line,
against the ``src`` beside this ``tests`` folder:

    python tests/test_golden.py                 # check every row
    python tests/test_golden.py --record        # rewrite every digest
    python tests/test_golden.py --against TREE  # compare with another tree

``--record`` rewrites the file from the code as it stands, so it belongs
only to a change whose purpose is to alter report bytes.  ``--against``
runs every row twice, under the ``src`` of TREE (a checkout of a parent
commit, say) in a subprocess and under this tree, and compares exit
status and stdout; for each mismatch it prints the first differing stdout
line of both.  A row whose fault replaces a function TREE does not have
is counted apart, not compared.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from types import SimpleNamespace
from unittest import mock

HERE = os.path.dirname(os.path.abspath(__file__))
CORPUS = os.path.join(HERE, "golden_reports.json")

if __name__ == "__main__":
    # --emit SRC: the subprocess of --against, on the qcauchy of SRC
    sys.path.insert(0, sys.argv[2] if sys.argv[1:2] == ["--emit"]
                    else os.path.join(os.path.dirname(HERE), "src"))

import qcauchy.identities as identities     # noqa: E402
import qcauchy.macdonald as macdonald       # noqa: E402
from qcauchy import cli                     # noqa: E402
from qcauchy.exact import QSeries, QTRational     # noqa: E402
from qcauchy.weights import compositions_up_to    # noqa: E402


def _norm_plus_one(norm_a_q):
    return lambda lam, cap: norm_a_q(lam, cap) + QSeries.one(cap)


def _char_plus_q(hw_algebra_char):
    def shifted(*args):
        char = hw_algebra_char(*args)
        return SimpleNamespace(qseries=lambda cap: (
            char.qseries(cap) + QSeries.one(cap).shift(1)))
    return shifted


def _qt_norm_plus_one(norm_a_qt):
    return lambda lam: norm_a_qt(lam) + QTRational.one()


def _leg_plus_one(columns):
    # one table entry wrong: the cell (3, 2) of lam = (0, 1, 2), alone in its
    # column, gains leg + 1 = 2 where it should gain 1, in both tables
    def corrupted(lam):
        cols = columns(lam)
        if lam != (0, 1, 2):
            return cols
        pattern, d = cols[-1]
        return cols[:-1] + ((pattern, d[:-1] + (d[-1] + 1,)),)
    return corrupted


def _drop_largest_xsums(kostant_xsums):
    # the Kostant solutions of each c without the largest x-side sum tuple,
    # whatever order the walk finds them in: the certificate may lose the
    # solution that sets a fiber's bound, and loses its weight from a fiber
    def dropped(c):
        return sorted(kostant_xsums(c))[:-1]
    return dropped


def _middle_q_binomial_plus_q2(q_binomial_coeffs):
    # q^2 added at k = 1 of the 1 / (q a; q)_oo coefficients, the list that
    # the product sides read below the diagonal and the certificate reads
    # as its class weights
    def raised(top, cap):
        first, middle, last = q_binomial_coeffs(top, cap)
        if len(middle) > 1:
            middle = middle[:]
            middle[1] = middle[1] + QSeries.one(cap).shift(2)
        return first, middle, last
    return raised


def _selector_inverted(atom_selector):
    # b's test inverted: the atom walk divides by 1 - q^a where b > 0 and
    # not where b = 0
    return lambda lam, i: 0 if atom_selector(lam, i) else 1


def _cost_plus_one(rule):
    # the window cost of one rule one too large where it is finite: the sl
    # side may skip a lam whose summand counts, and with rule "atom" it
    # builds the t = 0 table one q-power short
    def corrupt(window_cost):
        def raised(lam, floor, which):
            cost = window_cost(lam, floor, which)
            return cost + 1 if which == rule and cost != math.inf else cost
        return raised
    return corrupt


# fault name -> (the function it replaces, its corruption)
FAULTS = {
    "norm_a_q+1": ("norm_a_q", _norm_plus_one),
    "hw_algebra_char+q": ("hw_algebra_char", _char_plus_q),
    "norm_a_qt+1": ("norm_a_qt", _qt_norm_plus_one),
    "leg(0,1,2)+1": ("_columns", _leg_plus_one),
    "window_cost(t0)+1": ("_window_cost", _cost_plus_one("t0")),
    "window_cost(atom)+1": ("_window_cost", _cost_plus_one("atom")),
    "kostant_xsums-max": ("_kostant_xsums", _drop_largest_xsums),
    "q_binomial+q2": ("_q_binomial_coeffs", _middle_q_binomial_plus_q2),
    "demazure-selector": ("_atom_selector", _selector_inverted),
}


def _target(fault):
    """The function of the program that the named fault replaces, or None
    where the program has no such function."""
    name = FAULTS[fault][0]
    return getattr(identities, name, None) or getattr(macdonald, name, None)


def run_entry(argv, fault):
    """(exit status, stdout sha256) of one in-process command line, with
    the named fault (or none) injected."""
    status, out = run_report(argv, fault)
    return status, hashlib.sha256(out.encode()).hexdigest()


def run_report(argv, fault):
    """(exit status, stdout) of one in-process command line, with the
    named fault (or none) injected."""
    out = io.StringIO()
    with contextlib.ExitStack() as stack:
        if fault is not None:
            name, corrupt = FAULTS[fault]
            orig = _target(fault)
            bad = corrupt(orig)
            for module in [m for key, m in sys.modules.items()
                           if key.split(".")[0] == "qcauchy"]:
                if getattr(module, name, None) is orig:
                    stack.enter_context(mock.patch.object(module, name, bad))
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(io.StringIO()))
        status = cli.run(argv.split())
    return status, out.getvalue()


# (n, W, K) of verify sl, (n, D, K) of the q-series gl variants, (n, D) of
# gl-qt; the tier1 points are those a Tier-1 run can afford
SL_POINTS = [(1, 2, 4), (1, 3, 3), (1, 5, 4), (2, 2, 3), (2, 3, 2),
             (2, 3, 5), (2, 4, 4), (2, 5, 8), (2, 6, 3), (3, 1, 3), (3, 2, 1),
             (3, 2, 2), (3, 2, 4), (3, 3, 3), (3, 3, 4), (3, 3, 6), (3, 4, 4),
             (3, 5, 5), (4, 1, 2), (4, 2, 1), (4, 2, 3), (4, 3, 2), (4, 3, 3),
             (5, 1, 2), (5, 2, 2)]
SL_TIER1 = {(1, 2, 4), (2, 2, 3), (2, 3, 5), (3, 2, 2), (3, 2, 4), (4, 1, 2)}
GL_POINTS = [(1, 4, 4), (2, 5, 6), (3, 3, 4), (3, 6, 8), (4, 4, 6),
             (3, 8, 10), (5, 4, 5)]
GL_TIER1 = {(1, 4, 4), (2, 5, 6), (3, 3, 4)}
QT_POINTS = [(1, 4), (2, 3), (3, 2)]


def corpus_runs():
    """The rows (argv, fault, tier1) of the corpus, in file order."""
    rows = []
    for fmt in ("text", "json"):
        tail = f" --format {fmt}"
        # the table fault rides on the n = 3 tier1 points, but for
        # classical-q0: its tables, at cap 0, keep no filling that gains
        for n, w, K in SL_POINTS:
            argv = f"verify --identity sl --n {n} --max-deg {w} --max-q {K}"
            tier1 = (n, w, K) in SL_TIER1
            faults = [None, "norm_a_q+1", "hw_algebra_char+q"]
            faults += ["leg(0,1,2)+1"] * (tier1 and n == 3)
            # at n = 1 a table is one monomial with coefficient 1, which no
            # budget cuts
            faults += ["window_cost(t0)+1",
                       "window_cost(atom)+1"] * (tier1 and n >= 2)
            faults += ["kostant_xsums-max", "q_binomial+q2"] * tier1
            rows.extend((argv + tail, fault, tier1) for fault in faults)
        for identity in ("gl-t0", "gl-slform", "iwahori-char",
                         "classical-q0"):
            for n, D, K in GL_POINTS:
                argv = (f"verify --identity {identity} --n {n} --max-deg {D}"
                        f" --max-q {K}")
                tier1 = (n, D, K) in GL_TIER1
                faults = [None, "norm_a_q+1"]
                faults += ["leg(0,1,2)+1"] * (tier1 and n == 3
                                             and identity != "classical-q0")
                # at n = 1 there is no factor below the diagonal
                faults += ["q_binomial+q2"] * (tier1 and n >= 2
                                               and identity != "classical-q0")
                # at n = 1 there is no step, and classical-q0's tables at
                # cap 0 are the same with or without the division
                faults += ["demazure-selector"] * (
                    tier1 and n >= 2 and identity != "classical-q0")
                rows.extend((argv + tail, fault, tier1) for fault in faults)
        for n, D in QT_POINTS:
            argv = f"verify --identity gl-qt --n {n} --max-deg {D}"
            for fault in (None, "norm_a_qt+1"):
                rows.append((argv + tail, fault, True))
        rows.append(("appendix" + tail, None, True))
        rows.append(("verify --identity sl2-appendix --n 2 --max-deg 4"
                     " --max-q 6" + tail, None, True))
        for n in (1, 2, 3):
            for lam in sorted(compositions_up_to(n, 4)):
                common = f"--n {n} --lambda {','.join(map(str, lam))}"
                tier1 = n <= 2 and sum(lam) <= 3
                queries = [f"macdonald {common} --spec {spec}"
                           for spec in sorted(cli.SPEC_NAMES)]
                queries += [f"macdonald {common} --spec {spec} --max-q 2"
                            for spec in ("t0", "qinv-tinf")]
                queries += [f"norm {common}{flag}"
                            for flag in ("", " --qt", " --alt")]
                queries += [f"char {common} --kind {kind} --max-deg 4"
                            f" --max-q 5 --lattice {lattice}"
                            for kind in ("D", "Uo", "T", "A-D", "A-U")
                            for lattice in ("sl", "gl")]
                rows.extend((argv + tail, None, tier1) for argv in queries)
    return rows


def load_corpus():
    with open(CORPUS) as fh:
        return json.load(fh)["runs"]


def _mismatches(rows):
    return [(argv, fault, (status, digest), got)
            for argv, fault, _, status, digest in rows
            if (got := run_entry(argv, fault)) != (status, digest)]


def test_corpus_faults_fail():
    # a recorded fault that still passes would check nothing
    rows = load_corpus()
    assert all(status == 1 for _, fault, _, status, _ in rows
               if fault is not None)
    assert {fault for _, fault, _, _, _ in rows} == {None, *FAULTS}


def test_first_line_difference():
    # what --against prints for a mismatch
    assert first_line_difference("a\nb\n", "a\nb\n") is None
    assert first_line_difference("a\nb\n", "a\nc\n") == (2, "b", "c")
    assert first_line_difference("a\n", "a\nb\n") == (2, None, "b")


def test_tier1_reports_match_corpus():
    rows = [row for row in load_corpus() if row[2]]
    assert _mismatches(rows) == []


def first_line_difference(a, b):
    """(line number from 1, line of a, line of b) of the first line where
    two reports differ, a missing line read as None; None if equal."""
    a, b = a.splitlines(), b.splitlines()
    for k in range(max(len(a), len(b))):
        x = a[k] if k < len(a) else None
        y = b[k] if k < len(b) else None
        if x != y:
            return k + 1, x, y
    return None


def against(tree):
    """Run every corpus row under the ``src`` of ``tree`` and under this
    tree; print each mismatch with its first differing line."""
    child = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--emit",
         os.path.join(os.path.abspath(tree), "src")],
        stdout=subprocess.PIPE, text=True)
    rows = load_corpus()
    bad = lacking = 0
    with child:
        for (argv, fault, *_), line in zip(rows, child.stdout):
            theirs = json.loads(line)
            if theirs is None:
                lacking += 1        # TREE has no function the fault replaces
                continue
            theirs = tuple(theirs)
            ours = run_report(argv, fault)
            if theirs == ours:
                continue
            bad += 1
            print(f"MISMATCH {argv} [{fault}]: exit {theirs[0]} there, "
                  f"{ours[0]} here")
            diff = first_line_difference(theirs[1], ours[1])
            if diff is not None:
                k, x, y = diff
                print(f"  line {k} there: {x!r}")
                print(f"  line {k} here:  {y!r}")
    if child.returncode:
        print(f"the run under {tree} failed ({child.returncode})")
        return 1
    print(f"{len(rows) - bad - lacking} of {len(rows)} runs match {tree}")
    if lacking:
        print(f"{lacking} runs inject a fault whose function {tree} lacks")
    return 1 if bad else 0


def main(args):
    if args[:1] == ["--emit"]:
        for argv, fault, *_ in load_corpus():
            known = fault is None or _target(fault) is not None
            print(json.dumps(run_report(argv, fault) if known else None),
                  flush=True)
        return 0
    if len(args) == 2 and args[0] == "--against":
        return against(args[1])
    if args == ["--record"]:
        rows = [[argv, fault, tier1, *run_entry(argv, fault)]
                for argv, fault, tier1 in corpus_runs()]
        with open(CORPUS, "w") as fh:
            fh.write('{"columns": ["argv", "fault", "tier1", "status", '
                     '"sha256"],\n"runs": [\n')
            fh.write(",\n".join(json.dumps(row) for row in rows))
            fh.write("\n]}\n")
        print(f"recorded {len(rows)} runs")
        return 0
    if args:
        print(__doc__, file=sys.stderr)
        return 2
    rows = load_corpus()
    bad = _mismatches(rows)
    for argv, fault, want, got in bad:
        print(f"MISMATCH {argv} [{fault}]: want {want}, got {got}")
    print(f"{len(rows) - len(bad)} of {len(rows)} runs match")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
