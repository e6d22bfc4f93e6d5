import math

import pytest
from hypothesis import given, settings, strategies as st

from qcauchy.affine import hw_algebra_char, hw_algebra_char_gl
from qcauchy.exact import (ExactError, QPoly, QSeries, QTPoly, QTRational,
                           geometric_series, invert_q, limit_t,
                           qseries_from_qtrational)
from qcauchy.macdonald import (FactoredE, GenericMacdonaldEngine,
                               MacdonaldPolynomial, _window_cost, atom_terms,
                               e_atom_table, e_t0_table, exact_cap,
                               macdonald_E, macdonald_E_fillings, norm_a_q,
                               norm_a_qt, recursion_parent,
                               restrict_poly_terms, rs_polynomial,
                               sl2_closed_forms, specialize_E)
from qcauchy.weights import (arm_leg, compositions_up_to, diagram,
                             min_zero_compositions_up_to)

ONE = QTPoly.one()
Q = QTPoly.q()
T = QTPoly.t()
TABLES = ((e_t0_table, "t0"), (e_atom_table, "qinv_tinf"))


class TestConstruction:
    def test_zero_composition(self):
        E = macdonald_E((0, 0, 0))
        assert E.terms == {(0, 0, 0): QTRational.one()}

    def test_constant_diagonal(self):
        # E_{(m,...,m)} = (x_1...x_n)^m
        for n, m in ((2, 1), (2, 2), (3, 1)):
            E = macdonald_E((m,) * n)
            assert E.terms == {(m,) * n: QTRational.one()}

    def test_basic_two_variable(self):
        E = macdonald_E((0, 1))
        c = QTRational(ONE - T, ONE - Q * T)
        assert E.terms == {(0, 1): QTRational.one(), (1, 0): c}
        assert macdonald_E((1, 0)).terms == {(1, 0): QTRational.one()}

    def test_t0_of_01(self):
        E = specialize_E(macdonald_E((0, 1)), "t0")
        assert E.terms == {(0, 1): QPoly.one(), (1, 0): QPoly.one()}

    def test_homogeneous(self):
        for n in (2, 3):
            for lam in compositions_up_to(n, 4):
                assert macdonald_E(lam, n).total_degree_check()

    def test_negative_entry_rejected(self):
        # the recursion from (-1, 0) never reaches the zero composition
        with pytest.raises(ExactError):
            macdonald_E((-1, 0))

    def test_stability(self):
        for n in (2, 3):
            for lam in compositions_up_to(n, 3):
                E = macdonald_E(lam, n)
                for m in (1, 2):
                    shifted = tuple(e + m for e in lam)
                    Es = macdonald_E(shifted, n)
                    expected = {tuple(e + m for e in exps): c
                                for exps, c in E.terms.items()}
                    assert Es.terms == expected, (lam, m)


def _get_by_recursion(eng, lam, memo):
    """E_lam by one call per step of the recursion_parent chain: the walk
    GenericMacdonaldEngine.get replaced, kept as its oracle."""
    if lam not in memo:
        parent, step = recursion_parent(lam)
        if parent is None:
            memo[lam] = FactoredE(eng.n, lam, {(0,) * eng.n: QTPoly.one()}, ())
        elif step[0] == "PHI":
            memo[lam] = eng._phi_step(_get_by_recursion(eng, parent, memo),
                                      lam)
        else:
            memo[lam] = eng._t_step(_get_by_recursion(eng, parent, memo), lam,
                                    step)
    return memo[lam]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_engine_walk_matches_recursion(n):
    # largest first, so that get builds whole chains and memoizes every
    # composition on them, then reads the rest from the chains' ends
    eng = GenericMacdonaldEngine(n)
    lams = sorted(compositions_up_to(n, 6), key=sum, reverse=True)
    for lam in lams:
        eng.get(lam)
    memo = {}
    for lam, fe in eng.memo.items():
        want = _get_by_recursion(eng, lam, memo)
        assert (fe.terms, fe.den) == (want.terms, want.den), lam
    assert set(lams) <= set(eng.memo)


class TestTwoPath:
    def test_agreement(self):
        # the acceptance range |lam| <= 5, n <= 3 runs in test_acceptance;
        # here a moderate slice
        for n in (1, 2, 3):
            for lam in compositions_up_to(n, 4 if n == 3 else 5):
                a = macdonald_E(lam, n)
                b = macdonald_E_fillings(lam, n)
                assert a.terms == b.terms, (n, lam)

    def test_fillings_specialization_example(self):
        E = specialize_E(macdonald_E_fillings((1, 0)), "t0")
        assert E.terms == {(1, 0): QPoly.one()}


class TestSpecializations:
    def test_modes_on_01(self):
        E = macdonald_E((0, 1))
        atom = specialize_E(E, "qinv_tinf")
        assert atom.terms == {(0, 1): QPoly.one(), (1, 0): QPoly.gen()}
        key = specialize_E(E, "q0_t0")
        assert key.terms == {(0, 1): 1, (1, 0): 1}
        at_inf = specialize_E(E, "qinf_tinf")
        assert at_inf.terms == {(0, 1): 1}

    def test_trivial_any_mode(self):
        E = macdonald_E((0, 0))
        for mode in ("t0", "qinv_tinf", "qt_inv", "q0_t0", "qinf_tinf"):
            S = specialize_E(E, mode)
            assert list(S.terms) == [(0, 0)]

    def test_positivity(self):
        for n in (2, 3):
            for lam in compositions_up_to(n, 4):
                E = macdonald_E(lam, n)
                for mode in ("t0", "qinv_tinf"):
                    S = specialize_E(E, mode)
                    for c in S.terms.values():
                        assert all(x >= 0 for x in c.coeffs), (lam, mode)

    def test_qinv_tinf_order_immaterial(self):
        # limit after q-inversion equals t->0 of the fully inverted form
        for lam in compositions_up_to(2, 4):
            E = macdonald_E(lam)
            for c in E.terms.values():
                via_limit = limit_t(invert_q(c), "infinity")
                via_inverted = invert_q(c, invert_t=True).subs_t0()
                assert via_limit == via_inverted

    def test_engine_tables_match_specialize(self):
        # at exact_cap(lam) the production tables are the exact polynomials
        # specialize_E reads off the generic E
        for n, size in ((1, 5), (2, 5), (3, 5), (4, 4)):
            for lam in compositions_up_to(n, size):
                E = macdonald_E(lam, n)
                cap = exact_cap(lam)
                for table, mode in TABLES:
                    got = table(n, [lam], cap)[lam]
                    assert {e: QPoly(c.coeffs) for e, c in got.items()} == \
                        specialize_E(E, mode).terms, (lam, mode)

    def test_tables_truncate_exactly(self):
        # dropping the partial fillings above the cap is exact: the table
        # at every cap is the exact table truncated to it
        for n in (1, 2, 3):
            for lam in compositions_up_to(n, 5):
                top = exact_cap(lam)
                for table, _ in TABLES:
                    exact = table(n, [lam], top)[lam]
                    for cap in range(top + 1):
                        want = {e: c.truncate(cap) for e, c in exact.items()}
                        want = {e: c for e, c in want.items() if not c.is_zero}
                        assert table(n, [lam], cap)[lam] == want, (lam, cap)


SMALL_COMPOSITIONS = [(n, lam) for n in (1, 2, 3)
                      for lam in sorted(compositions_up_to(n, 6))]


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(SMALL_COMPOSITIONS), st.integers(0, 21))
def test_tables_match_specialize_property(case, cap):
    n, lam = case
    E = macdonald_E(lam, n)
    for table, mode in TABLES:
        want = {e: QSeries.from_qpoly(c, cap)
                for e, c in specialize_E(E, mode).terms.items()}
        want = {e: c for e, c in want.items() if not c.is_zero}
        assert table(n, [lam], cap)[lam] == want, (lam, cap, mode)


def _in_window(table, n, window):
    """The monomials of a table whose min-zero class has degree <= window."""
    return {e: c for e, c in table.items() if sum(e) - n * min(e) <= window}


def window_floor(lam, n, window):
    """The weight floor of the window classes of degree <= window among the
    weights of |w| = |lam|: ceil((|lam| - window) / n)."""
    return -((window - sum(lam)) // n)


def test_window_tables_match_restricted_tables():
    # the oracle of the floor pruning: the table built with the floor of a
    # window is the full table restricted to the window classes, for both
    # rules; a floor <= 0 keeps the full table, and a floor with n floor >
    # |lam| keeps no weight
    for n, size in ((1, 6), (2, 6), (3, 6), (4, 5)):
        lams = sorted(compositions_up_to(n, size))
        for cap in (0, 2, 4):
            for table, _ in TABLES:
                full = table(n, lams, cap)
                for lam in lams:
                    for floor in (-1, 0):
                        assert table(n, [lam], cap, floor)[lam] == full[lam]
                    assert table(n, [lam], cap, sum(lam) // n + 1)[lam] == {}
                    for window in range(4):
                        pruned = table(n, [lam], cap,
                                       window_floor(lam, n, window))[lam]
                        want = _in_window(full[lam], n, window)
                        assert pruned == want, \
                            (lam, cap, window, table.__name__)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(SMALL_COMPOSITIONS + [
           (4, lam) for lam in sorted(compositions_up_to(4, 6))]),
       st.integers(0, 8), st.integers(0, 6))
def test_window_tables_property(case, window, cap):
    n, lam = case
    floor = window_floor(lam, n, window)
    for table, _ in TABLES:
        want = _in_window(table(n, [lam], cap)[lam], n, window)
        assert table(n, [lam], cap, floor)[lam] == want, (lam, window, cap)


def test_window_cost_bounds_window_valuations():
    # the oracle of the window cost: in the full table every weight with
    # min(w) >= the window floor has q-valuation at least the cost; some
    # costs exceed the cap
    rejected = cases = 0
    for n, size in ((2, 10), (3, 8), (4, 6)):
        lams = sorted(compositions_up_to(n, size))
        for cap in range(4):
            for table, rule in ((e_t0_table, "t0"), (e_atom_table, "atom")):
                full = table(n, lams, cap)
                for window in range(4):
                    for lam in lams:
                        cases += 1
                        floor = window_floor(lam, n, window)
                        cost = _window_cost(lam, n, floor, rule)
                        assert all(c.valuation() >= cost
                                   for w, c in full[lam].items()
                                   if min(w) >= floor), \
                            (lam, cap, window, rule)
                        rejected += cost > cap
    assert cases == 14112
    assert rejected > 0
    # among them: at n = 4 and window 1, |lam| = 3 needs min(w) >= 1, so
    # |w| >= 4; no row count demands a raised cell, and only n F > |lam|
    # rejects lam, at every cap
    lam = (0, 1, 1, 1)
    assert window_floor(lam, 4, 1) == 1
    assert [(4 - v) - sum(lam[v:]) for v in range(1, 4)] == [0, 0, 0]
    assert _window_cost(lam, 4, 1, "t0") == math.inf


class TestNorms:
    def test_examples(self):
        a = norm_a_qt((0, 2))
        expected = QTRational(
            (ONE - QTPoly.term(1, 2, 1)) * (ONE - Q * T),
            (ONE - QTPoly.term(1, 2, 0)) * (ONE - Q))
        assert a == expected
        b = norm_a_qt((2, 0))
        expected = QTRational(
            (ONE - QTPoly.term(1, 2, 2)) * (ONE - Q * T),
            (ONE - QTPoly.term(1, 2, 1)) * (ONE - Q))
        assert b == expected
        assert norm_a_qt((0,) * 3) == QTRational.one()

    def test_q_series_examples(self):
        # 1/((1-q)(1-q^2)) and 1/(1-q)
        assert norm_a_q((0, 2), 8) == \
            geometric_series(1, 8) * geometric_series(2, 8)
        assert norm_a_q((2, 0), 8) == geometric_series(1, 8)
        assert norm_a_q((0, 0), 8) == QSeries.one(8)

    def test_norm_products_match_geometric_series(self):
        # the one in-place product builder against the product of the
        # geometric series 1/(1 - q^d), for both norm products; for
        # norm_a_q the degrees are read off arm_leg cell by cell
        for n in (1, 2, 3, 4):
            for lam in compositions_up_to(n, 6):
                legs = [leg + 1 for arm, leg in
                        (arm_leg(lam, cell) for cell in diagram(lam))
                        if arm == 0]
                hw = hw_algebra_char(lam, "D")
                for cap in range(11):
                    for got, ds in ((norm_a_q(lam, cap), legs),
                                    (hw.qseries(cap), hw.generator_degrees)):
                        want = QSeries.one(cap)
                        for d in ds:
                            # 1 / (1 - q^d), written out
                            want = want * QSeries(cap, [
                                int(k % d == 0) for k in range(cap + 1)])
                        assert got == want, (lam, cap)

    def test_three_way_agreement(self):
        cap = 10
        for n in (2, 3, 4):
            for lam in compositions_up_to(n, 4):
                x = norm_a_q(lam, cap)
                y = hw_algebra_char_gl(lam, "D", cap)
                z = qseries_from_qtrational(
                    limit_t(norm_a_qt(lam), "zero"), cap)
                assert x == y == z, lam


def rank_one_tables(lam):
    """The t = 0 and (q^{-1}, oo) tables of a rank-two lam at its exact cap,
    restricted to sl_2: two {X-exponent: QPoly} maps."""
    cap = exact_cap(lam)
    return tuple({e[0]: QPoly(c.coeffs) for e, c in
                  restrict_poly_terms(table(2, [lam], cap)[lam]).items()}
                 for table in (e_t0_table, e_atom_table))


class TestRankOne:
    def test_rs_small(self):
        assert rs_polynomial(0) == {0: QPoly.one()}
        assert rs_polynomial(1) == {1: QPoly.one(), -1: QPoly.one()}
        r2 = rs_polynomial(2)
        assert r2[0] == QPoly((1, 1)) and r2[2] == QPoly.one()

    def test_closed_forms_match_computed(self):
        cap = 12
        for w in range(-6, 7):
            lam = (w, 0) if w > 0 else (0, -w)
            cf_t0, cf_atom, cf_norm = sl2_closed_forms(w, cap)
            got_t0, got_atom = rank_one_tables(lam)
            assert got_t0 == cf_t0, w
            assert got_atom == cf_atom, w
            assert norm_a_q(lam, cap) == cf_norm, w

    def test_weight_one_values(self):
        e_t0, e_atom, a = sl2_closed_forms(-1, 6)
        assert e_t0 == {1: QPoly.one(), -1: QPoly.one()}
        assert e_atom == {1: QPoly.gen(), -1: QPoly.one()}
        assert a == geometric_series(1, 6)
        e_t0, e_atom, a = sl2_closed_forms(1, 6)
        assert e_t0 == {1: QPoly.one()}
        assert e_atom == {1: QPoly.one()}
        assert a == QSeries.one(6)


def test_restriction_compatibility():
    # res E_lam(x; q, t) at n = 2 matches the closed forms under each
    # specialization for mixed-sign weights
    for lam in ((3, 1), (1, 4)):
        w = lam[0] - lam[1]
        cf_t0, cf_atom, _ = sl2_closed_forms(w, 10)
        t0, atom = rank_one_tables(lam)
        assert t0 == cf_t0
        assert atom == cf_atom


def test_monic_normalization():
    for n in (2, 3):
        for lam in compositions_up_to(n, 4):
            E = macdonald_E(lam, n)
            assert E.terms[tuple(lam)] == QTRational.one()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_classical_tables_match_corner_specializations(n):
    # the q^0 coefficients of the t = 0 and (q^{-1}, oo) tables, which the
    # classical_q0 identity uses, are the key polynomials E(x; 0, 0) and
    # the Demazure atoms E(x; oo, oo)
    lams = list(compositions_up_to(n, 4))
    t0 = e_t0_table(n, lams, 0)
    atom = e_atom_table(n, lams, 0)
    for lam in lams:
        E = macdonald_E(lam, n)
        assert {e: c[0] for e, c in t0[lam].items()} == \
            specialize_E(E, "q0_t0").terms
        assert {e: c[0] for e, c in atom[lam].items()} == \
            specialize_E(E, "qinf_tinf").terms
