"""The golden report corpus: every command line of ``golden_reports.json``,
run in this process, passing or with one named fault injected, must exit
with its recorded status and print stdout with its recorded sha256.  A
fault replaces one function of the program in every qcauchy module that
binds it.

The corpus holds the byte lists a change is checked against: the sl
identity, the q-series gl variants and gl-qt at points up to a few seconds
each, every ``macdonald`` spec, ``norm`` flag set and ``char`` kind on both
lattices for n <= 3, |lam| <= 4, and the rank-one appendix, in both output
formats.  The faults are a norm + 1 or + q, and one wrong table entry: the
columns of lam = (0, 1, 2) with one cell's leg + 1 too large, which both
tables of lam are built from.  Tier-1 runs the rows marked tier1 (a few
seconds); the whole corpus (about 40 s) runs from the command line,
against the ``src`` beside this ``tests`` folder:

    python tests/test_golden.py             # check every row
    python tests/test_golden.py --record    # rewrite every digest

``--record`` rewrites the file from the code as it stands, so it belongs
only to a change whose purpose is to alter report bytes.  To take the
digests of another tree (a parent commit, say), copy this script into that
tree's ``tests`` folder, record there, and copy the corpus back.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
from types import SimpleNamespace
from unittest import mock

HERE = os.path.dirname(os.path.abspath(__file__))
CORPUS = os.path.join(HERE, "golden_reports.json")

if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

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


# fault name -> (the function it replaces, its corruption)
FAULTS = {
    "norm_a_q+1": ("norm_a_q", _norm_plus_one),
    "hw_algebra_char+q": ("hw_algebra_char", _char_plus_q),
    "norm_a_qt+1": ("norm_a_qt", _qt_norm_plus_one),
    "leg(0,1,2)+1": ("_columns", _leg_plus_one),
}


def run_entry(argv, fault):
    """(exit status, stdout sha256) of one in-process command line, with
    the named fault (or none) injected."""
    out = io.StringIO()
    with contextlib.ExitStack() as stack:
        if fault is not None:
            name, corrupt = FAULTS[fault]
            orig = getattr(identities, name, None) or getattr(macdonald, name)
            bad = corrupt(orig)
            for module in [m for key, m in sys.modules.items()
                           if key.split(".")[0] == "qcauchy"]:
                if getattr(module, name, None) is orig:
                    stack.enter_context(mock.patch.object(module, name, bad))
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(io.StringIO()))
        status = cli.run(argv.split())
    return status, hashlib.sha256(out.getvalue().encode()).hexdigest()


# (n, W, K) of verify sl, (n, D, K) of the q-series gl variants, (n, D) of
# gl-qt; the tier1 points are those a Tier-1 run can afford
SL_POINTS = [(1, 2, 4), (1, 3, 3), (1, 5, 4), (2, 2, 3), (2, 3, 2),
             (2, 3, 5), (2, 4, 4), (2, 5, 8), (2, 6, 3), (3, 1, 3), (3, 2, 1),
             (3, 2, 2), (3, 2, 4), (3, 3, 3), (3, 3, 4), (3, 3, 6), (3, 4, 4),
             (4, 1, 2), (4, 2, 1), (4, 2, 3), (4, 3, 2), (5, 1, 2)]
SL_TIER1 = {(1, 2, 4), (2, 2, 3), (2, 3, 5), (3, 2, 2), (3, 2, 4), (4, 1, 2)}
GL_POINTS = [(1, 4, 4), (2, 5, 6), (3, 3, 4), (3, 6, 8), (4, 4, 6),
             (3, 8, 10)]
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


def test_tier1_reports_match_corpus():
    rows = [row for row in load_corpus() if row[2]]
    assert _mismatches(rows) == []


def main(args):
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
