import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from qcauchy.exact import ExactError, QSeries, QTRational, inv_pochhammer_qq
import qcauchy.identities as identities
import qcauchy.macdonald as macdonald
from qcauchy.identities import (_kostant_xsums, _packed_macdonald_sum,
                                _rhs_lambdas, _sl_budget_hits, _sl_lhs_window,
                                _sl_rhs_adaptive, _window_hits, lhs_series,
                                project_to_sl, rhs_series, sl_certificate,
                                sl_window_pairs, verify_identity,
                                verify_sl2_appendix)
from qcauchy.macdonald import (_columns, _window_cost, e_atom_table,
                               e_t0_table, norm_a_q)
from qcauchy.series import (TruncatedSeries, TruncationPolicy, VariableSet,
                            first_difference, inverse_truncated, mul_truncated,
                            pochhammer_series)
from qcauchy.weights import compositions_up_to, min_zero_compositions_up_to


class TestLhs:
    def test_classical_rank_one(self):
        pol = TruncationPolicy(3, 3, 0)
        s = lhs_series("classical_q0", 1, pol)
        one = QSeries.one(0)
        assert s.terms == {(k, k): one for k in range(4)}

    def test_t0_rank_one(self):
        # 1 + (1 + q + q^2) x1 y1 at D = 1, K = 2
        pol = TruncationPolicy(1, 1, 2)
        s = lhs_series("gl_t0", 1, pol)
        assert s.terms == {(0, 0): QSeries.one(2),
                           (1, 1): QSeries(2, (1, 1, 1))}

    def test_qt_rank_one(self):
        pol = TruncationPolicy(1, 1, None)
        s = lhs_series("gl_qt", 1, pol)
        # coefficient of x1 y1: 1 + q(1-t)/(1-q) = (1 - qt)/(1 - q)
        from qcauchy.exact import QTPoly
        one, q, t = QTPoly.one(), QTPoly.q(), QTPoly.t()
        assert s.terms[(1, 1)] == QTRational(one - q * t, one - q)

    def test_slform_has_koszul_factor(self):
        pol = TruncationPolicy(2, 2, 3)
        plain = lhs_series("gl_t0", 2, pol)
        koszul = lhs_series("gl_slform", 2, pol)
        # they differ exactly in the determinant letters
        d = first_difference(plain, koszul)
        assert d is not None and sum(d[0]) == 4


def _lhs_by_pochhammer(variant, n, policy):
    """The product side multiplied out factor by factor from Pochhammer
    products and series inverses: the construction the closed forms of
    lhs_series replace, kept as their oracle."""
    varset = VariableSet.gl(n)
    K = policy.max_q_degree
    one = QTRational.one() if K is None else QSeries.one(K)
    q = QTRational.q() if K is None else QSeries(K, (0, 1))
    zero = (0,) * (2 * n)

    def linear(a, c):    # 1 - c a
        return TruncatedSeries(varset, policy, {zero: one, a: -c})

    result = TruncatedSeries.constant(varset, policy, one)
    for i in range(n):
        for j in range(n):
            a = tuple(int(k in (i, n + j)) for k in range(2 * n))
            if i <= j:
                result = mul_truncated(result,
                                       inverse_truncated(linear(a, one)))
            if variant == "classical_q0":
                continue
            if variant == "gl_qt":
                if i < j:
                    result = mul_truncated(result, linear(a, QTRational.t()))
                result = mul_truncated(result, pochhammer_series(
                    q * QTRational.t(), a, None, varset, policy))
            result = mul_truncated(result, inverse_truncated(
                pochhammer_series(q, a, None, varset, policy)))
    if variant in ("gl_slform", "iwahori_char"):
        result = mul_truncated(result, pochhammer_series(
            one, (1,) * (2 * n), None, varset, policy))
    return result


@pytest.mark.parametrize("variant", ["gl_t0", "gl_slform", "iwahori_char",
                                     "classical_q0"])
@pytest.mark.parametrize("n, dmax", [(1, 4), (2, 4), (3, 3)])
def test_closed_form_factors_match_pochhammer_products(variant, n, dmax):
    for dx in range(dmax + 1):
        for dy in range(dmax + 1):
            for K in range(5):
                pol = TruncationPolicy(dx, dy, K)
                assert lhs_series(variant, n, pol) == \
                    _lhs_by_pochhammer(variant, n, pol), (dx, dy, K)


@pytest.mark.parametrize("n", [1, 2])
def test_closed_form_qt_factors_match_pochhammer_products(n):
    for dx in range(4):
        for dy in range(4):
            pol = TruncationPolicy(dx, dy, None)
            assert lhs_series("gl_qt", n, pol) == \
                _lhs_by_pochhammer("gl_qt", n, pol), (dx, dy)


class TestRhs:
    def test_degree_zero_only_lambda_zero(self):
        pol = TruncationPolicy(0, 0, 3)
        for variant in ("gl_t0", "gl_slform", "classical_q0"):
            s = rhs_series(variant, 2, pol)
            assert s.terms == {(0, 0, 0, 0): QSeries.one(3)}, variant

    def test_explicit_degree_one_block(self):
        # 1 + a E(x)E(y) restricted to degree 1: the closed rank-one forms
        pol = TruncationPolicy(1, 1, 4)
        s = rhs_series("gl_t0", 2, pol)
        g1 = inv_pochhammer_qq(1, 4)
        q = QSeries(4, (0, 1))
        expected = {
            (0, 0, 0, 0): QSeries.one(4),
            (1, 0, 1, 0): g1,       # from (1,0) with a = 1 and (0,1)
            (1, 0, 0, 1): g1,
            (0, 1, 0, 1): g1,
            (0, 1, 1, 0): q * g1,
        }
        # (1,0): contributes x1 y1; (0,1): a = 1/(1-q),
        # E(x) = x1 + x2, E(y) = q y1 + y2
        expected[(1, 0, 1, 0)] = QSeries.one(4) + q * g1
        assert s.terms == expected


def _rhs_by_qseries(variant, n, policy):
    """The Macdonald side summed on QSeries objects, norm * E(x) * E(y)
    pair by pair, inline: the accumulation the packed sum of rhs_series
    replaces, kept as its oracle."""
    lambdas = _rhs_lambdas(variant, n, policy)
    K = policy.max_q_degree
    terms = {}
    if variant == "classical_q0":
        t0, atom = e_t0_table(n, lambdas, 0), e_atom_table(n, lambdas, 0)
        norms = {lam: QSeries.one(K) for lam in lambdas}
        t0 = {lam: {e: c[0] for e, c in t0[lam].items()} for lam in lambdas}
        atom = {lam: {e: c[0] for e, c in atom[lam].items()}
                for lam in lambdas}
    else:
        t0, atom = e_t0_table(n, lambdas, K), e_atom_table(n, lambdas, K)
        norms = {lam: norm_a_q(lam, K) for lam in lambdas}
    for lam in lambdas:
        for ex, cx in t0[lam].items():
            for ey, cy in atom[lam].items():
                c = norms[lam] * cx * cy
                terms[ex + ey] = terms[ex + ey] + c if ex + ey in terms else c
    return TruncatedSeries(VariableSet.gl(n), policy, terms)


@pytest.mark.parametrize("variant", ["gl_t0", "gl_slform", "classical_q0"])
@pytest.mark.parametrize("n, dmax", [(1, 4), (2, 4), (3, 3)])
def test_packed_rhs_matches_qseries_sum(variant, n, dmax):
    for D in range(dmax + 1):
        for K in range(5):
            pol = TruncationPolicy(D, D, K)
            assert rhs_series(variant, n, pol) == \
                _rhs_by_qseries(variant, n, pol), (D, K)


class TestVerify:
    def test_qbinomial_instance(self):
        pol = TruncationPolicy(4, 4, 6)
        assert verify_identity("gl_t0", 1, pol).passed

    def test_classical_n2(self):
        pol = TruncationPolicy(4, 4, 0)
        assert verify_identity("classical_q0", 2, pol).passed

    def test_t0_moderate(self):
        pol = TruncationPolicy(3, 3, 5)
        assert verify_identity("gl_t0", 2, pol).passed

    def test_qt_small(self):
        pol = TruncationPolicy(2, 2, None)
        assert verify_identity("gl_qt", 2, pol).passed

    def test_iwahori_small(self):
        pol = TruncationPolicy(3, 3, 5)
        assert verify_identity("iwahori_char", 2, pol).passed

    def test_monotone_retruncation(self):
        # a pass at policy P implies a pass at P' <= P
        big = TruncationPolicy(4, 4, 6)
        small = TruncationPolicy(2, 2, 3)
        lhs_b = lhs_series("gl_t0", 2, big)
        rhs_b = rhs_series("gl_t0", 2, big)
        assert first_difference(lhs_b.retruncate(small),
                                rhs_b.retruncate(small)) is None
        lhs_s = lhs_series("gl_t0", 2, small)
        assert first_difference(lhs_b.retruncate(small), lhs_s) is None

    def test_slform_matches_t0_after_resummation(self):
        # the Koszul-factored sum over min-zero compositions equals the full
        # sum divided by prod_m 1/(q)_m resummation; verified by comparing
        # the slform sides directly
        pol = TruncationPolicy(3, 3, 5)
        assert verify_identity("gl_slform", 2, pol).passed

    def test_t0_is_limit_of_qt(self):
        # the t = 0 sides arise from the (q, t) sides termwise
        from qcauchy.exact import limit_t, invert_q, qseries_from_qtrational
        pol_qt = TruncationPolicy(2, 2, None)
        pol = TruncationPolicy(2, 2, 6)
        qt = rhs_series("gl_qt", 2, pol_qt)
        t0 = rhs_series("gl_t0", 2, pol)
        for exps, c in qt.terms.items():
            expect = qseries_from_qtrational(limit_t(c, "zero"), 6)
            got = t0.terms.get(exps, QSeries.zero(6))
            assert expect == got, exps

    def test_failure_witness(self):
        # a corrupted comparison reports the first mismatching monomial
        pol = TruncationPolicy(2, 2, 3)
        lhs = lhs_series("gl_t0", 1, pol)
        bad = dict(lhs.terms)
        bad[(1, 1)] = bad[(1, 1)] + QSeries.one(3)
        lhs2 = TruncatedSeries(lhs.varset, pol, bad)
        d = first_difference(lhs, lhs2)
        assert d is not None and d[0] == (1, 1)


class TestProjection:
    def test_singleton_fibers(self):
        varset = VariableSet.gl(2)
        pol = TruncationPolicy(1, 1, 2)
        one = QSeries.one(2)
        f = TruncatedSeries(varset, pol, {(1, 0, 1, 0): one,
                                          (0, 1, 0, 1): one})
        pairs = [((1, 0), (1, 0)), ((0, 1), (0, 1))]
        kmax = {p: 0 for p in pairs}
        g = project_to_sl(f, pairs, kmax, 2)
        assert g.terms == {(1, 1): one, (-1, -1): one}

    def test_constant(self):
        varset = VariableSet.gl(2)
        pol = TruncationPolicy(2, 2, 2)
        f = TruncatedSeries(varset, pol, {(0, 0, 0, 0): QSeries.one(2)})
        pairs = [((0, 0), (0, 0))]
        kmax = {p: 1 for p in pairs}
        g = project_to_sl(f, pairs, kmax, 2)
        assert g.terms == {(0, 0): QSeries.one(2)}

    def test_diagonal_classes(self):
        # f = sum over min-zero nu of x^nu y^nu: one term per class
        varset = VariableSet.gl(2)
        pol = TruncationPolicy(3, 3, 0)
        one = QSeries.one(0)
        terms = {}
        for nu in ((0, 0), (1, 0), (0, 1), (2, 0), (0, 2), (3, 0), (0, 3)):
            terms[nu + nu] = one
        f = TruncatedSeries(varset, pol, terms)
        pairs = [(a, a) for a in ((0, 0), (1, 0), (0, 1))]
        kmax = {p: 1 for p in pairs}
        g = project_to_sl(f, pairs, kmax, 0)
        assert g.terms == {(0, 0): one, (1, 1): one, (-1, -1): one}

    def test_uncertified_window_rejected(self):
        varset = VariableSet.gl(2)
        pol = TruncationPolicy(1, 1, 2)
        f = TruncatedSeries(varset, pol, {(0, 0, 0, 0): QSeries.one(2)})
        pairs = [((0, 0), (0, 0))]
        kmax = {((0, 0), (0, 0)): 3}      # needs degree 6, box is 1
        from qcauchy.exact import InvariantError
        with pytest.raises(InvariantError):
            project_to_sl(f, pairs, kmax, 2)

    def test_non_min_zero_pair_rejected(self):
        # (1, 1) and (0, 0) key on one sl class: summing the two pairs
        # would let the later fiber sum replace the earlier one
        f = lhs_series("gl_slform", 2, TruncationPolicy(6, 6, 3))
        for pairs in ([((1, 1), (0, 0)), ((0, 0), (0, 0))],
                      [((0, 0), (0, 1)), ((0, 0), (2, 1))]):
            kmax = {p: 2 for p in pairs}
            with pytest.raises(ExactError):
                project_to_sl(f, pairs, kmax, 3)

    def test_sl_identity_small(self):
        pol = TruncationPolicy(2, 2, 3)
        r = verify_identity("sl_projected", 2, pol)
        assert r.passed
        r3 = verify_identity("sl_projected", 3, pol)
        assert r3.passed

    def test_certificate_balance(self):
        pairs = sl_window_pairs(2, 2)
        kmax, _, _ = sl_certificate(2, pairs, 3)
        # the diagonal fiber at the trivial class reaches at least k = 1
        assert kmax[((0, 0), (0, 0))] >= 1


def window_floor(lam, n, window):
    """The weight floor of the window classes of degree <= window among the
    weights of |w| = |lam|: ceil((|lam| - window) / n)."""
    return -((window - sum(lam)) // n)


def test_packed_sum_of_no_summands():
    # the sl side may keep no lambda; its sums are then empty, not an error
    assert _packed_macdonald_sum([], 3) == []


def test_window_hits_pair_up_in_window():
    # the sl Macdonald side keys rep_x + rep_y with no filter of its own:
    # every class of one lam's window hits is a window class, and every (x
    # class, y class) pair of them is a window pair, for every lam up to
    # the certified box
    K = 1
    for n in range(1, 5):
        for w in range(4):
            pairs = sl_window_pairs(n, w)
            pair_set = set(pairs)
            reps = {a for a, _ in pairs}
            _, box, _ = sl_certificate(n, pairs, K)
            for lam in min_zero_compositions_up_to(n, box):
                floor = window_floor(lam, n, w)
                xs = _window_hits(e_t0_table(n, [lam], K, floor)[lam], "t0")
                if not xs:
                    continue        # no pair; the atom table is not needed
                ys = _window_hits(e_atom_table(n, [lam], K, floor)[lam],
                                  "atom")
                assert set(xs) <= reps and set(ys) <= reps, (n, w, lam)
                for a in xs:
                    for b in ys:
                        assert (a, b) in pair_set, (n, w, lam, a, b)


def _summand(lam, K, hits):
    """norm * E(x) * E(y) modulo q^{K+1} of lam's (x hits, y hits), {} for
    None."""
    if hits is None:
        return {}
    sums, = _packed_macdonald_sum([((norm_a_q(lam, K),),) + hits], K)
    return sums


def _full_cap_hits(n, lam, K, w):
    # the oracle of the shared budget: both tables built at cap K
    floor = window_floor(lam, n, w)
    return (_window_hits(e_t0_table(n, [lam], K, floor)[lam], "t0"),
            _window_hits(e_atom_table(n, [lam], K, floor)[lam], "atom"))


# (n, W, K) of the exhaustive oracle: every point with n <= 2, and at
# n = 3, 4 the points whose full-cap tables build in a fraction of a second
# (n = 4, W = 3, K = 4 alone takes minutes); the property below samples
# the rest of n <= 4, W <= 3, K <= 4
BUDGET_POINTS = [(n, w, K) for n in range(1, 5) for w in range(4)
                 for K in range(5) if n <= 2 or w + K <= 6 - n]
# the largest certified box at n over W <= 3, K <= 4
LARGEST_BOX = {1: 4, 2: 11, 3: 24, 4: 31}


def test_shared_budget_keeps_every_summand():
    # every min-zero lam up to the certified box: its summand under the
    # shared q-budget equals the one of both tables at cap K, modulo
    # q^{K+1}; the budget skips some lam whose tables both hit the window
    skipped = 0
    for n, w, K in BUDGET_POINTS:
        _, box, _ = sl_certificate(n, sl_window_pairs(n, w), K)
        for lam in sorted(min_zero_compositions_up_to(n, box)):
            full = _full_cap_hits(n, lam, K, w)
            shared = _sl_budget_hits(n, lam, K, w)
            assert _summand(lam, K, shared) == _summand(lam, K, full), \
                (n, w, K, lam)
            skipped += shared is None and all(full)
    assert skipped > 0


def test_budget_skips_run_no_column_program(monkeypatch):
    # _sl_budget_hits runs the t = 0 column program of lam iff c_x + c_y <=
    # K, and the atom program iff, in addition, e_x + c_y <= K, e_x the
    # least q-exponent of the t = 0 table's hits (infinite without a hit);
    # the t = 0 table's cap K - c_y bounds e_x, so the second condition
    # fails only on an empty t = 0 table; the first skips some lam
    runs = []
    column_terms = macdonald._column_terms

    def recorded(columns, n, cap, rule, floor):
        table = column_terms(columns, n, cap, rule, floor)
        runs.append((rule, columns, table))
        return table
    monkeypatch.setattr(macdonald, "_column_terms", recorded)
    skipped = 0
    for n, w, K in BUDGET_POINTS:
        _, box, _ = sl_certificate(n, sl_window_pairs(n, w), K)
        for lam in sorted(min_zero_compositions_up_to(n, box)):
            floor = window_floor(lam, n, w)
            cost_x = _window_cost(lam, n, floor, "t0")
            cost_y = _window_cost(lam, n, floor, "atom")
            runs.clear()
            _sl_budget_hits(n, lam, K, w)
            assert all(columns == _columns(lam) for _, columns, _ in runs)
            rules = [rule for rule, _, _ in runs]
            case = (n, w, K, lam)
            if cost_x + cost_y > K:
                assert rules == [], case
                skipped += 1
                continue
            assert rules[0] == "t0", case
            low = min((c.valuation() for c in runs[0][2].values()),
                      default=math.inf)
            assert low == math.inf or low <= K - cost_y, case
            want = ["t0", "atom"] if low + cost_y <= K else ["t0"]
            assert rules == want, case
    assert skipped > 0


def test_norms_only_for_summed_lambda(monkeypatch):
    # the sl Macdonald side computes (and checks) both norms of the lam it
    # sums, and no other: at (3, 2, 2), 91 of the 316 lam up to the box
    n, w, K = 3, 2, 2
    pairs = sl_window_pairs(n, w)
    _, box, _ = sl_certificate(n, pairs, K)
    summed = sum(_sl_budget_hits(n, lam, K, w) is not None
                 for lam in min_zero_compositions_up_to(n, box))
    calls = {"norm_a_q": 0, "hw_algebra_char": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(identities, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(identities, name, counted)
    _, _, count = _sl_rhs_adaptive(n, pairs, K, box)
    assert (summed, count) == (91, 316)
    assert calls == {"norm_a_q": summed, "hw_algebra_char": summed}


@st.composite
def _budget_cases(draw):
    n = draw(st.integers(1, 4))
    rem, parts = LARGEST_BOX[n], []
    for _ in range(n):
        parts.append(draw(st.integers(0, rem)))
        rem -= parts[-1]
    parts[draw(st.integers(0, n - 1))] = 0
    return n, tuple(parts), draw(st.integers(0, 3)), draw(st.integers(0, 4))


@settings(max_examples=50, deadline=None)
@given(_budget_cases())
def test_shared_budget_keeps_every_summand_property(case):
    n, lam, w, K = case
    assert _summand(lam, K, _sl_budget_hits(n, lam, K, w)) == \
        _summand(lam, K, _full_cap_hits(n, lam, K, w)), case


@pytest.mark.parametrize("n, w, K", [(1, 3, 3), (2, 2, 3), (2, 3, 2),
                                     (3, 1, 3), (3, 2, 1)])
def test_sl_window_matches_full_box_projection(n, w, K):
    # the certificate's fiber sums against those of the gl_slform product
    # over the whole certified box
    pairs = sl_window_pairs(n, w)
    kmax, D, fibers = sl_certificate(n, pairs, K)
    box = lhs_series("gl_slform", n, TruncationPolicy(D, D, K))
    want = project_to_sl(box, pairs, kmax, K)
    got = _sl_lhs_window(n, pairs, fibers, K)
    assert got.terms == want.terms
    assert got.policy == want.policy


def _matrices(cells, budget):
    """Entry tuples of the nonnegative matrices with the given number of
    cells and entry sum <= budget."""
    if cells == 0:
        yield ()
        return
    for v in range(budget + 1):
        for rest in _matrices(cells - 1, budget - v):
            yield (v,) + rest


def _per_matrix_certificate(n, pairs, K):
    """The certificate's (kmax, Dx, fibers) by a walk over every beta
    matrix on its own: the row and column sums, the Kostant right-hand side
    and the weight are formed per matrix, with no grouping by margins."""
    inv_poch = [inv_pochhammer_qq(v, K) for v in range(K + 1)]
    kostant = {}
    kmax = {pair: -1 for pair in pairs}
    fibers = {}
    S = 0
    while S * (S + 1) // 2 <= K:
        betas = []
        for entries in _matrices(n * n, K - S * (S + 1) // 2):
            w = inv_poch[S].shift(S * (S + 1) // 2) * (-1) ** S
            for v in entries:
                w = w * inv_poch[v].shift(v)
            betas.append(([sum(entries[r * n:(r + 1) * n]) for r in range(n)],
                          [sum(entries[s::n]) for s in range(n)], w))
        for a, b in pairs:
            off, rem = divmod(sum(b) - sum(a), n)
            if rem:
                continue
            for rows, cols, w in betas:
                c = tuple(a[i] + off - b[i] - rows[i] + cols[i]
                          for i in range(n))
                if c not in kostant:
                    kostant[c] = _kostant_xsums(c, n)
                for mx in kostant[c]:
                    k = max(mx[i] + rows[i] + S - a[i] for i in range(n))
                    if k >= 0 and k >= off:
                        kmax[(a, b)] = max(kmax[(a, b)], k)
                        fibers[(a, b)] = fibers.get((a, b),
                                                    QSeries.zero(K)) + w
        S += 1
    Dx = max((sum(a) + n * k for (a, b), k in kmax.items() if k >= 0),
             default=0)
    return kmax, Dx, fibers


@pytest.mark.parametrize("n, w, K", list(itertools.product(
    (1, 2, 3), (1, 2, 3), range(5))) + list(itertools.product(
    (1, 2), (1, 2, 3), (5, 6))) + list(itertools.product(
    (4,), (1, 2), range(3))))
def test_margin_certificate_matches_per_matrix_walk(n, w, K):
    # grouping the beta matrices by margins, and counting each class's
    # solutions per S by bisection, changes no bound and no sum; at K = 6
    # the S of the support system reaches 3
    pairs = sl_window_pairs(n, w)
    assert sl_certificate(n, pairs, K) == _per_matrix_certificate(n, pairs, K)


@pytest.mark.parametrize("n, w, K, summands, box", [
    (2, 2, 3, 17, 8), (3, 2, 1, 199, 11), (3, 2, 2, 316, 14),
    (4, 1, 2, 1665, 13), (3, 3, 4, 901, 24)])
def test_sl_sums_every_lambda_up_to_the_box(n, w, K, summands, box):
    # the Macdonald side sums each min-zero lambda up to the certified box
    # once: the summand count is the number of such lambdas
    r = verify_identity("sl_projected", n, TruncationPolicy(w, w, K))
    assert r.passed
    assert r.policy["certified_box"] == [box, box]
    assert r.lambda_count == summands
    assert summands == sum(1 for lam in compositions_up_to(n, box)
                           if min(lam) == 0)


class TestAppendix:
    def test_small_range(self):
        assert verify_sl2_appendix((-3, 3), 8).passed

    def test_report_fields(self):
        rep = verify_sl2_appendix((0, 0), 4)
        assert rep.lambda_count == 1
        assert rep.variant == "sl2_appendix"
        data = rep.to_json()
        import json
        parsed = json.loads(data)
        assert parsed["outcome"] == "pass"


def test_slform_rhs_is_resummed_t0_rhs():
    # the sum over all compositions equals the min-zero sum times the
    # geometric tower sum_m (x1..xn y1..yn)^m / (q; q)_m
    from qcauchy.exact import inv_pochhammer_qq
    from qcauchy.series import mul_truncated
    pol = TruncationPolicy(4, 4, 5)
    n = 2
    full = rhs_series("gl_t0", n, pol)
    reduced = rhs_series("gl_slform", n, pol)
    tower = TruncatedSeries(
        VariableSet.gl(n), pol,
        {(m,) * (2 * n): inv_pochhammer_qq(m, 5) for m in range(5)})
    assert first_difference(full, mul_truncated(reduced, tower)) is None
