import itertools

import pytest

from qcauchy.exact import ExactError, QSeries, QTRational, inv_pochhammer_qq
from qcauchy.identities import (_kostant_xsums, _packed_macdonald_sum,
                                _rhs_lambdas, _sl_lhs_window, _window_hits,
                                lhs_series, project_to_sl, rhs_series,
                                sl_certificate, sl_window_pairs,
                                verify_identity, verify_sl2_appendix)
from qcauchy.macdonald import e_atom_table, e_t0_table, norm_a_q
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
        kmax, dx, dy, _ = sl_certificate(2, pairs, 3)
        assert dx == dy
        # the diagonal fiber at the trivial class reaches at least k = 1
        assert kmax[((0, 0), (0, 0))] >= 1


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
            _, Dx, Dy, _ = sl_certificate(n, pairs, K)
            for lam in min_zero_compositions_up_to(n, min(Dx, Dy)):
                xs = _window_hits(e_t0_table(n, [lam], K, w)[lam], "t0")
                if not xs:
                    continue        # no pair; the atom table is not needed
                ys = _window_hits(e_atom_table(n, [lam], K, w)[lam], "atom")
                assert set(xs) <= reps and set(ys) <= reps, (n, w, lam)
                for a in xs:
                    for b in ys:
                        assert (a, b) in pair_set, (n, w, lam, a, b)


@pytest.mark.parametrize("n, w, K", [(1, 3, 3), (2, 2, 3), (2, 3, 2),
                                     (3, 1, 3), (3, 2, 1)])
def test_sl_window_matches_full_box_projection(n, w, K):
    # the certificate's fiber sums against those of the gl_slform product
    # over the whole certified box
    pairs = sl_window_pairs(n, w)
    kmax, Dx, Dy, fibers = sl_certificate(n, pairs, K)
    box = lhs_series("gl_slform", n, TruncationPolicy(Dx, Dy, K))
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
    kmax, Dx, Dy, fibers = sl_certificate(n, pairs, K)
    assert Dy == Dx
    assert (kmax, Dx, fibers) == _per_matrix_certificate(n, pairs, K)


@pytest.mark.parametrize("n, w, K, summands, box", [
    (2, 2, 3, 17, 8), (3, 2, 1, 199, 11), (3, 2, 2, 316, 14)])
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
