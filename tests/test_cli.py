import argparse
import functools
import importlib.util
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import qcauchy
import qcauchy.cli as cli
from qcauchy.cli import (IDENTITY_NAMES, SPEC_NAMES, UsageError, cmd_appendix,
                         cmd_char, cmd_macdonald, cmd_norm, cmd_verify,
                         parse_args, run)


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


# The argparse command line that cli.parse_args replaced, kept as its
# oracle: the parser and the range check after it, as they were.

class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are one ``error:`` line: it raises
    UsageError where argparse would print its usage and exit.  A message
    quotes arguments as given, so their line breaks are escaped."""

    def error(self, message):
        raise UsageError(message.replace("\n", "\\n"))


# least admissible value of each numeric option
_LEAST = {"n": 1, "max_deg": 0, "max_q": 0, "range": 0, "jobs": 1}


def _check_ranges(args):
    for name, least in _LEAST.items():
        value = getattr(args, name, None)
        if value is not None and value < least:
            flag = "--" + name.replace("_", "-")
            raise UsageError(f"{flag} must be at least {least}, got {value}")


@functools.lru_cache(maxsize=None)
def build_parser():
    """The argument parser, built on first use and kept for the process."""
    p = _Parser(
        prog="qcauchy",
        description="Exact computations with nonsymmetric Macdonald "
                    "polynomials and q-Cauchy identity verification")
    sub = p.add_subparsers(dest="verb", required=True)

    def common(sp, need_lambda=False):
        sp.add_argument("--n", type=int, required=True)
        if need_lambda:
            sp.add_argument("--lambda", dest="lam", required=True,
                            help="comma-separated composition, e.g. 0,2")
        sp.add_argument("--format", choices=("text", "json"), default="text")

    sp = sub.add_parser("macdonald", help="print E_lambda")
    common(sp, need_lambda=True)
    sp.add_argument("--spec", choices=sorted(SPEC_NAMES), default="qt")
    sp.add_argument("--max-q", type=int, default=None)
    sp.set_defaults(func=cmd_macdonald)

    sp = sub.add_parser("norm", help="print the norm factor a_lambda")
    common(sp, need_lambda=True)
    sp.add_argument("--qt", action="store_true",
                    help="the exact (q, t) norm instead of the q-series")
    sp.add_argument("--alt", action="store_true",
                    help="use the alternative product formula")
    sp.add_argument("--max-q", type=int, default=None)
    sp.set_defaults(func=cmd_norm)

    sp = sub.add_parser("char", help="print a module character")
    common(sp, need_lambda=True)
    sp.add_argument("--kind", choices=("D", "Uo", "T", "A-D", "A-U"),
                    required=True)
    sp.add_argument("--max-deg", type=int, required=True)
    sp.add_argument("--max-q", type=int, required=True)
    sp.add_argument("--lattice", choices=("sl", "gl"), default="sl")
    sp.set_defaults(func=cmd_char)

    sp = sub.add_parser("verify", help="run an identity verification")
    common(sp)
    sp.add_argument("--identity", choices=sorted(IDENTITY_NAMES),
                    required=True)
    sp.add_argument("--max-deg", type=int, required=True)
    sp.add_argument("--max-q", type=int, default=None)
    sp.add_argument("--jobs", type=int, default=1,
                    help="accepted for compatibility; has no effect")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("appendix", help="run the rank-one closed-form suite")
    sp.add_argument("--range", type=int, default=6,
                    help="check sl_2 weights in [-range, range]")
    sp.add_argument("--max-q", type=int, default=12)
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.set_defaults(func=cmd_appendix)
    return p


def oracle_parse(argv):
    """The namespace argparse gives ``argv`` after the range check, or
    None where argparse printed its help; a bad command line raises the
    UsageError the parser raised."""
    try:
        with redirect_stdout(io.StringIO()):
            args = build_parser().parse_args(argv)
    except SystemExit as ex:
        assert ex.code == 0, argv
        return None
    _check_ranges(args)
    del args.func
    return args


def outcome(parse, argv):
    """What ``parse`` makes of ``argv``: the option values with the verb,
    "help", or the error line run prints."""
    try:
        args = parse(argv)
    except UsageError as ex:
        return "error: " + str(ex).replace("\n", "\\n")
    return "help" if args is None else vars(args)


def oracle_invoke(argv):
    """invoke(argv) with the oracle in place of cli.parse_args."""
    with mock.patch.object(cli, "parse_args", oracle_parse):
        return invoke(argv)


class TestVerify:
    def test_gl_t0_scaled_down(self):
        code, out, _ = invoke(["verify", "--identity", "gl-t0", "--n", "2",
                               "--max-deg", "4", "--max-q", "6"])
        assert code == 0
        assert "outcome  : pass" in out

    def test_macdonald_trivial(self):
        code, out, _ = invoke(["macdonald", "--n", "2", "--lambda", "0,0",
                               "--spec", "t0"])
        assert code == 0 and out.strip() == "1"

    def test_norm_partition_series(self):
        code, out, _ = invoke(["norm", "--n", "2", "--lambda", "0,2",
                               "--max-q", "4"])
        assert code == 0
        assert json.loads(out) == {"cap": 4,
                                   "coeffs": ["1", "1", "2", "2", "3"]}

    def test_exit_one_on_failure(self, monkeypatch):
        import qcauchy.cli as cli
        from qcauchy.identities import VerificationReport

        def fake(variant, n, policy):
            return VerificationReport(variant, n, {}, "fail",
                                      {"monomial": [0]}, 0, 0.0)
        monkeypatch.setattr(cli, "verify_identity", fake)
        code, out, _ = invoke(["verify", "--identity", "gl-t0", "--n", "2",
                               "--max-deg", "1", "--max-q", "1"])
        assert code == 1


class TestSpecializations:
    def test_max_q_keeps_vanishing_coefficients(self):
        # E_(0,4)(x; q^{-1}, oo) has the x1^4 coefficient q^4: modulo q^4
        # it is a zero series, and it is still printed
        code, out, _ = invoke(["macdonald", "--n", "2", "--lambda", "0,4",
                               "--spec", "qinv-tinf", "--max-q", "3"])
        assert code == 0
        assert "(0 + O(q^4)) x1^4" in out.splitlines()

    def test_corner_specs_are_integer_tables(self):
        code, out, _ = invoke(["macdonald", "--n", "2", "--lambda", "0,2",
                               "--spec", "q0"])
        assert code == 0 and out.splitlines() == ["1 x2^2", "1 x1*x2",
                                                  "1 x1^2"]


class TestInvariantErrors:
    def test_broken_positivity_exits_three(self, monkeypatch):
        import qcauchy.identities as identities
        from qcauchy.exact import QSeries

        def negative_norm(lam, cap):
            return QSeries(cap, (1, -1))
        monkeypatch.setattr(identities, "norm_a_q", negative_norm)
        code, out, err = invoke(["verify", "--identity", "sl", "--n", "2",
                                 "--max-deg", "1", "--max-q", "2"])
        assert code == 3 and out == ""
        assert err == ("internal error: negative norm coefficient; "
                       "positivity broken\n")

    def test_negative_table_coefficient_exits_three(self, monkeypatch):
        # the first series without a constant term that the column program
        # returns loses 1, which makes its q^0 coefficient -1; the sl side
        # reads every coefficient of its tables, so the run breaks an
        # invariant.  Every qcauchy module that binds the program sees the
        # wrapper.
        import qcauchy.macdonald as macdonald
        program = macdonald._packed_column_terms
        corrupted = []

        def wrapped(columns, n, cap, rule, floor, width, bits):
            out = program(columns, n, cap, rule, floor, width, bits)
            for code, series in out.items():
                if not corrupted and series and not series & (1 << width) - 1:
                    out[code] = series - 1
                    corrupted.append(code)
            return out
        for name, module in list(sys.modules.items()):
            if (name.split(".")[0] == "qcauchy"
                    and getattr(module, "_packed_column_terms", None)
                    is program):
                monkeypatch.setattr(module, "_packed_column_terms", wrapped)
        code, out, err = invoke(["verify", "--identity", "sl", "--n", "3",
                                 "--max-deg", "2", "--max-q", "2"])
        assert corrupted
        assert code == 3 and out == ""
        assert err.startswith("internal error: ") and err.count("\n") == 1


class TestSlMismatch:
    # the witness is pinned in full (monomial and both rendered sides), so
    # the packed Macdonald sums must name the first mismatch exactly
    def _witness(self, monkeypatch, name, corrupt):
        import qcauchy.identities as identities
        monkeypatch.setattr(identities, name,
                            corrupt(getattr(identities, name)))
        code, out, _ = invoke(["verify", "--identity", "sl", "--n", "3",
                               "--max-deg", "2", "--max-q", "2"])
        assert code == 1
        lines = out.splitlines()
        # the failing run still sums every lambda up to the certified box
        assert "summands : 316" in lines
        assert "outcome  : fail" in lines
        return json.loads(lines[-1].split(":", 1)[1])

    def test_injected_mismatch_names_witness(self, monkeypatch):
        # a norm one too large breaks the identity at the trivial class
        from qcauchy.exact import QSeries

        def corrupt(norm_a_q):
            return lambda lam, cap: norm_a_q(lam, cap) + QSeries.one(cap)
        assert self._witness(monkeypatch, "norm_a_q", corrupt) == {
            "monomial": [0, 0, 0, 0],
            "lhs": {"cap": 2, "coeffs": ["1", "6", "33"]},
            "rhs": {"cap": 2, "coeffs": ["2", "12", "58"]}}

    def test_injected_hw_norm_mismatch_names_witness(self, monkeypatch):
        # a highest-weight-algebra norm q too large passes the product
        # side against the arm/leg norm and fails the comparison of the
        # two norms' Macdonald sums
        from types import SimpleNamespace
        from qcauchy.exact import QSeries

        def corrupt(hw_algebra_char):
            def shifted(*args):
                char = hw_algebra_char(*args)
                return SimpleNamespace(qseries=lambda cap: (
                    char.qseries(cap) + QSeries.one(cap).shift(1)))
            return shifted
        assert self._witness(monkeypatch, "hw_algebra_char", corrupt) == {
            "monomial": [0, 0, 0, 0],
            "lhs": {"cap": 2, "coeffs": ["1", "6", "33"]},
            "rhs": {"cap": 2, "coeffs": ["1", "7", "39"]}}


class TestUsageErrors:
    def test_unknown_flag(self):
        code, _, err = invoke(["verify", "--identity", "gl-t0", "--n", "2",
                               "--max-deg", "2", "--max-q", "2", "--bogus"])
        assert code == 2
        assert err == "error: unrecognized arguments: --bogus\n"
        # argparse quotes the argument as given; its line break is escaped
        code, _, err = invoke(["appendix", "--bo\ngus"])
        assert code == 2
        assert err == "error: unrecognized arguments: --bo\\ngus\n"

    def test_malformed_lambda(self):
        code, _, err = invoke(["macdonald", "--n", "2", "--lambda", "0,x"])
        assert code == 2 and "malformed" in err

    def test_wrong_rank(self):
        code, _, _ = invoke(["macdonald", "--n", "3", "--lambda", "0,1"])
        assert code == 2

    def test_inconsistent_flags(self):
        code, _, err = invoke(["norm", "--n", "2", "--lambda", "0,1",
                               "--qt", "--max-q", "3"])
        assert code == 2
        code, out, err = invoke(["norm", "--n", "2", "--lambda", "0,2",
                                 "--qt", "--alt"])
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        code, _, err = invoke(["verify", "--identity", "gl-qt", "--n", "2",
                               "--max-deg", "2", "--max-q", "3"])
        assert code == 2
        code, _, err = invoke(["verify", "--identity", "gl-t0", "--n", "2",
                               "--max-deg", "2"])
        assert code == 2

    @pytest.mark.parametrize("spec", ["qt", "q0", "qinf-tinf", "qt-inv"])
    def test_max_q_needs_series_spec(self, spec):
        code, out, err = invoke(["macdonald", "--n", "2", "--lambda", "0,2",
                                 "--spec", spec, "--max-q", "3"])
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_unknown_identity(self):
        code, _, err = invoke(["verify", "--identity", "nope", "--n", "2",
                               "--max-deg", "2", "--max-q", "2"])
        assert code == 2
        assert err.startswith("error: argument --identity: invalid choice")
        assert err.count("\n") == 1


# stdout of norm --alt (the gl lift of the D algebra character) and of
# char --kind A-U (sigma_max) at a few points, as the separate alternative
# norm product and the stabilizer walk for sigma_max printed them; (1,3,1)
# and (2,1,1,2) have tied entries, where only the maximal tie order gives
# these series
@pytest.mark.parametrize("argv, expected", [
    ("norm --n 3 --lambda 3,0,2 --alt --max-q 10",
     '{"cap": 10, "coeffs": ["1", "1", "2", "2", "3", "3", "4", "4", "5", '
     '"5", "6"]}'),
    ("norm --n 1 --lambda 3 --alt --max-q 5",
     '{"cap": 5, "coeffs": ["1", "1", "2", "3", "4", "5"]}'),
    ("norm --n 4 --lambda 1,0,2,1 --alt --max-q 8",
     '{"cap": 8, "coeffs": ["1"]}'),
    ("norm --n 3 --lambda 2,2,1 --alt --max-q 6 --format json",
     '{"lambda": [2, 2, 1], "n": 3, "value": {"cap": 6, "coeffs": '
     '["1", "1", "1", "1", "1", "1", "1"]}}'),
    ("char --kind A-U --n 3 --lambda 1,3,1 --max-deg 0 --max-q 6 "
     "--lattice gl",
     "(1 + 2*q + 3*q^2 + 4*q^3 + 5*q^4 + 6*q^5 + 7*q^6 + O(q^7))"),
    ("char --kind A-U --n 4 --lambda 2,1,1,2 --max-deg 0 --max-q 6 "
     "--lattice gl",
     "(1 + q + q^2 + q^3 + q^4 + q^5 + q^6 + O(q^7))"),
    ("char --kind A-U --n 3 --lambda 1,0,1 --max-deg 1 --max-q 6 "
     "--lattice gl --format json",
     '{"kind": "A-U", "lambda": [1, 0, 1], "n": 3, "policy": {"max_deg": 1, '
     '"max_q": 6}, "terms": [{"coeff": {"cap": 6, "coeffs": ["1"]}, '
     '"exps": [0, 0, 0, 0, 0, 0]}]}'),
], ids=["norm-alt-302", "norm-alt-rank1", "norm-alt-1021", "norm-alt-json",
        "A-U-131", "A-U-2112", "A-U-json"])
def test_algebra_character_outputs(argv, expected):
    code, out, _ = invoke(argv.split())
    assert code == 0
    assert out == expected + "\n"


class TestInterpreterLimits:
    @pytest.mark.parametrize("spec, lam", [
        pytest.param("qt", "1500", id="qt"),
        pytest.param("qt-inv", "1500", id="qt-inv"),
        pytest.param("qt", "300,300", id="qt-300,300"),
        pytest.param("qt-inv", "300,300", id="qt-inv-300,300"),
        pytest.param("qt", "40,40,40", id="qt-40,40,40"),
        pytest.param("qt-inv", "40,40,40", id="qt-inv-40,40,40")])
    def test_deep_composition(self, spec, lam, monkeypatch):
        # 1500, 300 and 40 columns (more than the interpreter's default
        # recursion limit) of 1500, 600 and 120 cells.  No filling makes a
        # cell differ from its left neighbour, so E_lam is x^lam and no
        # cell's binomial enters the numerators; numerators over the full
        # D_lam, a product of that many binomials, would blow up.  A fresh
        # engine computes each.
        import qcauchy.macdonald as macdonald
        monkeypatch.setattr(macdonald, "_GENERIC", {})
        entries = lam.split(",")
        code, out, err = invoke(["macdonald", "--n", str(len(entries)),
                                 "--lambda", lam, "--spec", spec])
        mono = "*".join(f"x{i}^{e}" for i, e in enumerate(entries, 1))
        assert (code, out, err) == (0, f"((1)) {mono}\n", "")

    @pytest.mark.parametrize("exc", [
        RecursionError("maximum recursion depth exceeded"), MemoryError()],
        ids=["recursion", "memory"])
    def test_exhausted_interpreter_exits_three(self, exc, monkeypatch):
        import qcauchy.cli as cli

        def exhausted(*args):
            raise exc
        monkeypatch.setattr(cli, "verify_identity", exhausted)
        code, out, err = invoke(["verify", "--identity", "gl-t0", "--n", "2",
                                 "--max-deg", "1", "--max-q", "1"])
        assert code == 3 and out == ""
        assert "Traceback" not in err
        assert err.startswith("internal error: ") and err.count("\n") == 1
        assert type(exc).__name__ in err


_MALFORMED_LAMBDAS = ("", ",", "x", "1,,2", "-1,0", "1.5", "0,1,2,3,4")
_NINE_IN_TEN = st.sampled_from((True,) * 9 + (False,))


@st.composite
def _argvs(draw):
    """A command line: every verb and flag, n <= 3, degrees and caps <= 3
    and below their least admissible values, well-formed and malformed
    lambdas, a flag sometimes left out, given twice, shortened to a prefix
    or joined to its value by =, and an unknown one or a -- sometimes
    added.  Valid values and forms are drawn more often than invalid ones,
    so that most examples get past the usage checks."""
    verb = draw(st.sampled_from(["macdonald", "norm", "char", "verify",
                                 "appendix"]))
    n = draw(st.sampled_from((1, 2, 3) * 3 + (0, -1)))
    # gl-qt and sl at rank 3 take seconds from degree or cap 3 on
    top = 2 if verb == "verify" and n == 3 else 3
    num = st.sampled_from(tuple(map(str, range(top + 1))) * 3 + ("-1",))
    well_formed = st.lists(st.integers(0, 3), min_size=max(n, 1),
                           max_size=max(n, 1)).map(
        lambda xs: ",".join(map(str, xs)))
    lam = st.one_of(well_formed, well_formed,
                    st.sampled_from(_MALFORMED_LAMBDAS))
    required = {
        "macdonald": [("--n", st.just(str(n))), ("--lambda", lam)],
        "norm": [("--n", st.just(str(n))), ("--lambda", lam)],
        "char": [("--kind", st.sampled_from(["D", "Uo", "T", "A-D", "A-U"])),
                 ("--n", st.just(str(n))), ("--lambda", lam),
                 ("--max-deg", num), ("--max-q", num)],
        "verify": [("--identity",
                    st.sampled_from(sorted(IDENTITY_NAMES) + ["nope"])),
                   ("--n", st.just(str(n))), ("--max-deg", num)],
        "appendix": [],
    }[verb]
    optional = {
        "macdonald": [("--spec", st.sampled_from(sorted(SPEC_NAMES))),
                      ("--max-q", num)],
        "norm": [("--qt", None), ("--alt", None), ("--max-q", num)],
        "char": [("--lattice", st.sampled_from(["sl", "gl"]))],
        "verify": [("--max-q", num), ("--jobs", num)],
        "appendix": [("--range", num), ("--max-q", num)],
    }[verb] + [("--format", st.sampled_from(("text", "json") * 3 + ("xml",)))]
    given = [option for flags, present in ((required, _NINE_IN_TEN),
                                           (optional, st.booleans()))
             for option in flags if draw(present)]
    if given and not draw(_NINE_IN_TEN):
        given.append(draw(st.sampled_from(given)))
    argv = [verb]
    for flag, values in given:
        if not draw(_NINE_IN_TEN):
            flag = flag[:draw(st.integers(3, len(flag)))]
        if values is None:
            argv.append(flag)
        elif draw(_NINE_IN_TEN):
            argv += [flag, draw(values)]
        else:
            argv.append(f"{flag}={draw(values)}")
    if not draw(_NINE_IN_TEN):
        argv.append(draw(st.sampled_from(["--bogus", "--bo\ngus"])))
    if not draw(_NINE_IN_TEN):
        argv.insert(draw(st.integers(1, len(argv))), "--")
    return argv


@settings(max_examples=150, deadline=5000)
@given(_argvs())
def test_cli_fuzz(argv):
    code, out, err = invoke(argv)
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err, argv
    if code in (2, 3):
        assert err.count("\n") == 1, (argv, err)
    # the same exit status and stdout as with the argparse command line
    assert oracle_invoke(argv)[:2] == (code, out), argv


@settings(max_examples=500, deadline=None)
@given(_argvs())
def test_parse_matches_oracle(argv):
    assert outcome(parse_args, argv) == outcome(oracle_parse, argv)


# command lines at the edges of the grammar: no verb, an unknown one, a
# lone - and --, unknown and ambiguous options, prefixes, values that look
# like options, help anywhere, a line break in an argument
EDGE_ARGVS = [
    [], ["nope"], ["-x"], ["--"], ["-"], ["--max"], ["--lam"], ["-1"],
    ["--", "verify"], ["-x", "appendix", "--bogus"], ["--bogus", "nope"],
    ["char", "--max", "3"], ["verify", "--max=3"], ["char", "--l", "sl"],
    ["macdonald", "--n", "2", "--lambda", "0,2", "--max", "3"],
    ["norm", "--n", "2", "--lam", "0,2", "--q"],
    ["macdonald", "--n=2", "--lam=0,2", "--spec=t0", "--f=json"],
    ["macdonald", "--n", "2", "--n", "3", "--lambda", "0,2,1"],
    ["verify", "--identity", "gl-t0", "--n", "2", "--max-deg", "2",
     "--max-q", "-1"],
    ["verify", "--n", "-1", "--bogus"], ["verify", "--n", "--n"],
    ["verify", "--n"], ["verify", "--n", "-x"], ["verify", "--n", "-1.5"],
    ["verify", "--n", "1 2"], ["verify", "--n=", "--max=1"],
    ["norm", "--n", "2", "--lambda", "0,2", "--qt=1"],
    ["norm", "--n", "2", "--lambda", "0,2", "--alt="],
    ["appendix", "--bo\ngus"], ["appendix", "--bo\ngus", "--max\nq"],
    ["appendix", "--range", "1", "--", "--range", "2"],
    ["appendix", "--range", "--"], ["appendix", "--", "x"],
    ["appendix", "--range", "-1", "--max-q", "-1"], ["appendix", "--=1"],
    ["--=1"], ["verify", "--=x", "--n", "x"],
    ["appendix", "-x y", "--range", "٣", "--format", "jso"],
    ["-h"], ["--help"], ["--he"], ["-hh"], ["-hx"], ["-h=h"], ["--help="],
    ["-x", "-h"], ["verify", "-h"], ["verify", "--identity", "nope", "-h"],
    ["verify", "-h", "--identity", "nope"], ["verify", "--bogus", "--h"],
    ["verify", "--max", "-h"], ["char", "--n", "-h"], ["appendix", "-hhx"],
]


@pytest.mark.parametrize("argv", EDGE_ARGVS, ids=repr)
def test_edges_match_oracle(argv):
    assert outcome(parse_args, argv) == outcome(oracle_parse, argv)
    assert oracle_invoke(argv) == invoke(argv)


def test_benchmark_requests_parse_as_before():
    spec = importlib.util.spec_from_file_location(
        "workloads", os.path.join(ROOT, "perfbench", "workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for name in workloads.WORKLOADS:
        for argv in workloads.universe(name):
            assert outcome(parse_args, argv) == outcome(oracle_parse, argv)


@pytest.mark.parametrize("argv, err", [
    (["verify", "--identity", "gl-t0", "--n=--", "--max-deg", "1"],
     "error: argument --n: invalid int value: '--'\n"),
    (["macdonald", "--n", "1", "--lambda=--"],
     "error: malformed lambda '--'\n"),
    (["macdonald", "--n", "1", "--lambda", "1", "--format=--"],
     "error: argument --format: invalid choice: '--' (choose from 'text', "
     "'json')\n"),
])
def test_joined_dash_dash_is_a_value(argv, err):
    # argparse dropped a joined -- and stored [] for the option, which
    # --n, --lambda, --spec and --identity then failed on with a traceback
    assert invoke(argv) == (2, "", err)


@pytest.mark.parametrize("argv", [
    ["-h"], ["--help"], ["-x", "--he"], ["verify", "-h"],
    ["char", "--n", "2", "--help", "--bogus"], ["norm", "--bogus", "-hh", "--max-q=x"]],
    ids=repr)
def test_help_prints_the_synopsis(argv):
    code, out, err = invoke(argv)
    assert (code, err) == (0, "")
    assert out.startswith("Subcommands:\n") and "-h or --help" in out
    for verb, (_, options) in cli.VERBS.items():
        assert f"    {verb} " in out
        assert all(o.flag in out for o in options)


class TestDeterminism:
    def test_jobs_byte_identical(self):
        base = ["verify", "--identity", "gl-t0", "--n", "2",
                "--max-deg", "4", "--max-q", "6"]
        _, out1, _ = invoke(base + ["--jobs", "1"])
        _, out8, _ = invoke(base + ["--jobs", "8"])
        assert out1 == out8

    def test_repeated_invocations(self):
        args = ["macdonald", "--n", "3", "--lambda", "1,0,2",
                "--format", "json"]
        outs = {invoke(args)[1] for _ in range(3)}
        assert len(outs) == 1

    def test_module_entry_point(self):
        # python -m qcauchy runs the same entry point as run(), from a
        # checkout where only the source directory is on the path
        args = ["macdonald", "--n", "1", "--lambda", "1"]
        src = os.path.dirname(os.path.dirname(qcauchy.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-m", "qcauchy", *args],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert proc.stdout == invoke(args)[1]


@pytest.mark.parametrize("args", [
    ["--help"], ["norm", "--n", "1", "--lambda", "30", "--qt"],
    ["verify", "--identity", "gl-t0", "--n", "1", "--max-deg", "2",
     "--max-q", "2"]])
def test_closed_stdout_exits_141(args):
    # stdout is a pipe whose read end is already closed: no traceback, and
    # status 128 + SIGPIPE rather than 1, the status of a failed check
    src = os.path.dirname(os.path.dirname(qcauchy.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "qcauchy", *args],
                              stdout=write_end, stderr=subprocess.PIPE,
                              text=True, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 141, proc.stderr
    assert "Traceback" not in proc.stderr


class TestJsonRoundTrip:
    def test_verify_json(self):
        code, out, _ = invoke(["verify", "--identity", "classical-q0",
                               "--n", "2", "--max-deg", "3", "--max-q", "0",
                               "--format", "json"])
        assert code == 0
        rec = json.loads(out)
        assert json.dumps(rec, sort_keys=True) == out.strip()
        assert rec["outcome"] == "pass"

    def test_macdonald_json(self):
        code, out, _ = invoke(["macdonald", "--n", "2", "--lambda", "0,2",
                               "--spec", "t0", "--format", "json"])
        rec = json.loads(out)
        assert json.dumps(rec, sort_keys=True) == out.strip()
        assert {tuple(t["exps"]) for t in rec["terms"]} == \
            {(0, 2), (1, 1), (2, 0)}


class TestAppendixVerb:
    def test_appendix(self):
        code, out, _ = invoke(["appendix", "--range", "3", "--max-q", "6"])
        assert code == 0 and "pass" in out

    def test_sl2_appendix_identity(self):
        code, out, _ = invoke(["verify", "--identity", "sl2-appendix",
                               "--n", "2", "--max-deg", "4", "--max-q", "8"])
        assert code == 0

    def test_sl2_appendix_needs_rank_two(self):
        code, _, _ = invoke(["verify", "--identity", "sl2-appendix",
                             "--n", "3", "--max-deg", "4", "--max-q", "8"])
        assert code == 2


VERIFY = ["verify", "--identity", "gl-t0"]


@pytest.mark.parametrize("argv", [
    VERIFY + ["--n", "2", "--max-deg", "-1", "--max-q", "2"],
    VERIFY + ["--n", "2", "--max-deg", "2", "--max-q", "-1"],
    ["appendix", "--range", "-1"],
    VERIFY + ["--n", "0", "--max-deg", "2", "--max-q", "2"],
    VERIFY + ["--n", "2", "--max-deg", "2", "--max-q", "2", "--jobs", "0"],
    VERIFY + ["--n", "2", "--max-deg", "2", "--max-q", "2", "--jobs", "-2"],
], ids=["negative-max-deg", "negative-max-q", "negative-range", "n-zero",
        "jobs-zero", "jobs-negative"])
def test_out_of_range_option(argv):
    code, out, err = invoke(argv)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1
