"""Acceptance suite: one test per criterion, at the stated scales and time
budgets, each printing a pass/fail line.  All comparisons are exact."""

import io
import time
from contextlib import redirect_stderr, redirect_stdout

from qcauchy.affine import (factorized_words, hw_algebra_char,
                            hw_algebra_char_gl)
from qcauchy.cli import run as cli_run
from qcauchy.characters import ch_weyl_ratio_check
from qcauchy.exact import (QPoly, QSeries, limit_t, qseries_from_qtrational)
from qcauchy.identities import verify_identity, verify_sl2_appendix
from qcauchy.macdonald import (e_atom_table, e_t0_table, exact_cap,
                               macdonald_E, macdonald_E_fillings, norm_a_q,
                               norm_a_qt, restrict_poly_terms,
                               sl2_closed_forms, specialize_E)
from qcauchy.series import TruncationPolicy
from qcauchy.weights import (compositions_up_to, min_zero_compositions_up_to,
                             sl_representative)


def report_line(name, ok, elapsed):
    print(f"[{'PASS' if ok else 'FAIL'}] {name} ({elapsed:.1f}s)")
    assert ok, name


def timed(fn):
    t0 = time.monotonic()
    result = fn()
    return result, time.monotonic() - t0


def test_ac01_t0_cauchy_identity():
    r, dt = timed(lambda: verify_identity(
        "gl_t0", 2, TruncationPolicy(6, 6, 10)))
    assert dt < 120, f"n=2 run took {dt:.0f}s, budget 120s"
    ok = r.passed
    r3, dt3 = timed(lambda: verify_identity(
        "gl_t0", 3, TruncationPolicy(4, 4, 8)))
    assert dt3 < 600, f"n=3 run took {dt3:.0f}s, budget 600s"
    report_line("AC1 t=0 Cauchy identity (n=2 D=6 K=10; n=3 D=4 K=8)",
                ok and r3.passed, dt + dt3)


def test_ac02_full_qt_identity():
    r, dt = timed(lambda: verify_identity(
        "gl_qt", 2, TruncationPolicy(3, 3, None)))
    assert dt < 600, f"run took {dt:.0f}s, budget 600s"
    report_line("AC2 full (q,t) identity (n=2 D=3, exact coefficients)",
                r.passed, dt)


def test_ac03_slform():
    r2, dt2 = timed(lambda: verify_identity(
        "gl_slform", 2, TruncationPolicy(6, 6, 10)))
    r3, dt3 = timed(lambda: verify_identity(
        "gl_slform", 3, TruncationPolicy(4, 4, 8)))
    report_line("AC3 pre-projection form (n=2 D=6 K=10; n=3 D=4 K=8)",
                r2.passed and r3.passed, dt2 + dt3)


def test_ac04_sl_identity():
    r2, dt2 = timed(lambda: verify_identity(
        "sl_projected", 2, TruncationPolicy(5, 5, 8)))
    r3, dt3 = timed(lambda: verify_identity(
        "sl_projected", 3, TruncationPolicy(3, 3, 6)))
    report_line("AC4 sl identity on certified windows (n=2 deg<=5 K=8; "
                "n=3 deg<=3 K=6)", r2.passed and r3.passed, dt2 + dt3)


def test_ac05_iwahori_character():
    r, dt = timed(lambda: verify_identity(
        "iwahori_char", 2, TruncationPolicy(5, 5, 8)))
    report_line("AC5 Iwahori function-space character (n=2 D=5 K=8)",
                r.passed, dt)


def test_ac06_classical_limit():
    t0 = time.monotonic()
    ok = True
    for n in (1, 2, 3):
        r = verify_identity("classical_q0", n, TruncationPolicy(5, 5, 0))
        ok = ok and r.passed
    # a_lambda(0) = 1 for every enumerated composition
    for n in (2, 3):
        for lam in compositions_up_to(n, 5):
            ok = ok and norm_a_q(lam, 0) == QSeries.one(0)
    report_line("AC6 classical q=0 identity (n<=3, D<=5, a(0)=1)",
                ok, time.monotonic() - t0)


def test_ac07_norm_cross_check():
    t0 = time.monotonic()
    cases = 0
    ok = True
    for n in (1, 2, 3, 4):
        for lam in compositions_up_to(n, 6):
            a = norm_a_q(lam, 12)
            b = hw_algebra_char_gl(lam, "D", 12)
            c = qseries_from_qtrational(limit_t(norm_a_qt(lam), "zero"), 12)
            ok = ok and a == b == c
            cases += 1
    dt = time.monotonic() - t0
    assert dt < 60, f"norm sweep took {dt:.0f}s, budget 60s"
    report_line(f"AC7 norm three-way agreement ({cases} cases, n<=4 |lam|<=6)",
                ok, dt)


def test_ac08_hw_algebra_identification():
    t0 = time.monotonic()
    ok = True
    for n in (2, 3):
        for lam in min_zero_compositions_up_to(n, 6):
            lhs = hw_algebra_char(lam, "D").qseries(20)
            ok = ok and lhs == norm_a_q(lam, 20)
    report_line("AC8 highest-weight algebra vs Cherednik norm "
                "(n<=3 |lam|<=6 K=20)", ok, time.monotonic() - t0)


def test_ac09_two_path_agreement():
    t0 = time.monotonic()
    ok = True
    for n in (1, 2, 3):
        for lam in compositions_up_to(n, 5):
            a = macdonald_E(lam)
            b = macdonald_E_fillings(lam)
            ok = ok and a.terms == b.terms
    report_line("AC9 two-path Macdonald agreement (|lam|<=5, n<=3)",
                ok, time.monotonic() - t0)


def test_ac10_appendix_suite():
    r, dt = timed(lambda: verify_sl2_appendix((-6, 6), 12))
    report_line("AC10 rank-one closed forms (weights -6..6, K=12)",
                r.passed, dt)


def test_ac11_property_suites():
    t0 = time.monotonic()
    ok = True
    for n in (1, 2, 3):
        for lam in compositions_up_to(n, 5):
            E = macdonald_E(lam)
            ok = ok and E.total_degree_check()
            for mode in ("t0", "qinv_tinf"):
                S = specialize_E(E, mode)
                for c in S.terms.values():
                    ok = ok and all(
                        x >= 0 and x == int(x) for x in c.coeffs)
    # stability under adding multiples of (1,...,1)
    for n in (2, 3):
        for lam in compositions_up_to(n, 4):
            E = macdonald_E(lam)
            for m in (1, 2):
                shifted = macdonald_E(tuple(e + m for e in lam))
                ok = ok and shifted.terms == {
                    tuple(e + m for e in exps): c
                    for exps, c in E.terms.items()}
    # restriction compatibility of the production tables with the rank-one
    # closed forms
    for lam in compositions_up_to(2, 5):
        w = lam[0] - lam[1]
        cf_t0, cf_atom, _ = sl2_closed_forms(w, 12)
        got_t0, got_atom = (
            {e[0]: QPoly(c.coeffs) for e, c in restrict_poly_terms(
                table([lam], exact_cap(lam))[lam]).items()}
            for table in (e_t0_table, e_atom_table))
        ok = ok and got_t0 == cf_t0 and got_atom == cf_atom
    report_line("AC11 positivity/homogeneity/stability/restriction suites",
                ok, time.monotonic() - t0)


def test_ac12_affine_consistency():
    t0 = time.monotonic()
    ok = True
    weights2 = [(c,) for c in range(-4, 5)]
    weights3 = [(c1, c2) for c1 in range(-4, 5) for c2 in range(-4, 5)]
    for coords in weights2 + weights3:
        lam = sl_representative(coords).entries
        # duality
        neg = sl_representative(tuple(-c for c in coords)).entries
        ok = ok and hw_algebra_char(lam, "U") == hw_algebra_char(neg, "D")
        # factorized-word consistency, both modes
        for mode in ("D", "U"):
            word, prefix = factorized_words(lam, mode)
            ok = ok and hw_algebra_char(lam, mode) == \
                hw_algebra_char(lam, "at_m", m=prefix, word=word)
            # the degree formula against the literal beta count
            for m in (0, prefix, word.length):
                ok = ok and ch_weyl_ratio_check(lam, m, word).passed
    report_line("AC12 affine consistency (duality, word prefixes, "
                "degree counts; sl2/sl3 |coords|<=4)",
                ok, time.monotonic() - t0)


def test_ac13_determinism():
    t0 = time.monotonic()

    def invoke(argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli_run(argv)
        return code, out.getvalue()

    base = ["verify", "--identity", "gl-t0", "--n", "2",
            "--max-deg", "5", "--max-q", "8"]
    c1, out1 = invoke(base + ["--jobs", "1"])
    c8, out8 = invoke(base + ["--jobs", "8"])
    ok = c1 == 0 and c8 == 0 and out1 == out8
    report_line("AC13 determinism across --jobs (byte-identical reports)",
                ok, time.monotonic() - t0)
