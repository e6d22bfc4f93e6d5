import pytest

from qcauchy.exact import QSeries, QTRational, inv_pochhammer_qq
from qcauchy.identities import (_sl_lhs_window, lhs_series, project_to_sl,
                                rhs_series, sl_certificate, sl_window_pairs,
                                verify_identity, verify_sl2_appendix)
from qcauchy.series import (TruncatedSeries, TruncationPolicy, VariableSet,
                            first_difference)
from qcauchy.weights import compositions_up_to


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
