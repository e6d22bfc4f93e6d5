import random

import pytest
from hypothesis import given, settings, strategies as st

from qcauchy.exact import (DivergentPochhammerError, ExactError, QSeries,
                           QTPoly, QTRational, inv_pochhammer_qq)
from qcauchy.series import (TruncatedSeries, TruncationPolicy, VariableSet,
                            _is_zero_scalar, first_difference,
                            inverse_truncated, monomial_key, mul_truncated,
                            pochhammer_series, series_records)

GL1 = VariableSet.gl(1)
GL2 = VariableSet.gl(2)


def qs(cap, *coeffs):
    return QSeries(cap, coeffs)


def unit(varset, policy, cap):
    return TruncatedSeries.constant(varset, policy, QSeries.one(cap))


class TestMul:
    def test_difference_of_squares(self):
        pol = TruncationPolicy(2, 2, 0)
        one = QSeries.one(0)
        f = TruncatedSeries(GL1, pol, {(0, 0): one, (1, 1): one})
        g = TruncatedSeries(GL1, pol, {(0, 0): one, (1, 1): -one})
        prod = mul_truncated(f, g)
        assert prod.terms == {(0, 0): one, (2, 2): -one}

    def test_truncation_drops_top(self):
        pol = TruncationPolicy(1, 1, 0)
        one = QSeries.one(0)
        f = TruncatedSeries(GL1, pol, {(0, 0): one, (1, 1): one})
        g = TruncatedSeries(GL1, pol, {(0, 0): one, (1, 1): -one})
        assert mul_truncated(f, g).terms == {(0, 0): one}

    def test_varset_mismatch(self):
        pol = TruncationPolicy(1, 1, 0)
        f = unit(GL1, pol, 0)
        g = unit(GL2, pol, 0)
        with pytest.raises(ExactError):
            mul_truncated(f, g)

    def test_commutative_associative(self):
        pol = TruncationPolicy(3, 3, 4)
        rng = random.Random(7)

        def rand_series():
            terms = {}
            for _ in range(5):
                e = (rng.randint(0, 2), rng.randint(0, 2))
                terms[e] = QSeries(4, [rng.randint(-2, 2) for _ in range(3)])
            return TruncatedSeries(GL1, pol, terms)

        for _ in range(10):
            a, b, c = rand_series(), rand_series(), rand_series()
            assert mul_truncated(a, b) == mul_truncated(b, a)
            assert mul_truncated(mul_truncated(a, b), c) == \
                mul_truncated(a, mul_truncated(b, c))


class TestInverse:
    def test_geometric(self):
        pol = TruncationPolicy(3, 3, 0)
        one = QSeries.one(0)
        f = TruncatedSeries(GL1, pol, {(0, 0): one, (1, 1): -one})
        g = inverse_truncated(f)
        assert set(g.terms) == {(0, 0), (1, 1), (2, 2), (3, 3)}
        assert mul_truncated(f, g).terms == {(0, 0): one}

    def test_scalar_series(self):
        # 1 - q at K = 2 inverts to 1 + q + q^2
        pol = TruncationPolicy(0, 0, 2)
        f = TruncatedSeries(GL1, pol, {(0, 0): qs(2, 1, -1)})
        g = inverse_truncated(f)
        assert g.terms == {(0, 0): qs(2, 1, 1, 1)}

    def test_big_product_roundtrip(self):
        # f = prod_{i<=j} (1 - x_i y_j) at n = 2, D = 4
        pol = TruncationPolicy(4, 4, 0)
        one = QSeries.one(0)
        f = unit(GL2, pol, 0)
        for (i, j) in ((0, 0), (0, 1), (1, 1)):
            mono = [0, 0, 0, 0]
            mono[i] = 1
            mono[2 + j] = 1
            lin = TruncatedSeries(GL2, pol,
                                  {(0, 0, 0, 0): one, tuple(mono): -one})
            f = mul_truncated(f, lin)
        g = inverse_truncated(f)
        assert mul_truncated(f, g).terms == {(0, 0, 0, 0): one}

    def test_random_unit_series(self):
        pol = TruncationPolicy(2, 2, 3)
        rng = random.Random(3)
        for _ in range(8):
            terms = {(0, 0): QSeries(3, (1, rng.randint(-2, 2)))}
            for _ in range(4):
                e = (rng.randint(0, 2), rng.randint(0, 2))
                if e == (0, 0):
                    continue
                terms[e] = QSeries(3, [rng.randint(-2, 2) for _ in range(4)])
            f = TruncatedSeries(GL1, pol, terms)
            assert mul_truncated(f, inverse_truncated(f)).terms == \
                {(0, 0): QSeries.one(3)}

    def test_non_unit_fails(self):
        pol = TruncationPolicy(1, 1, 2)
        f = TruncatedSeries(GL1, pol, {(1, 1): QSeries.one(2)})
        with pytest.raises(ExactError):
            inverse_truncated(f)


class TestPochhammer:
    def test_qq_two(self):
        pol = TruncationPolicy(0, 0, 5)
        p = pochhammer_series(qs(5, 0, 1), (0, 0), 2, GL1, pol)
        assert p.terms[(0, 0)] == qs(5, 1, -1, -1, 1)

    def test_empty_product(self):
        pol = TruncationPolicy(2, 2, 5)
        p = pochhammer_series(qs(5, 0, 1), (1, 1), 0, GL1, pol)
        assert p.terms == {(0, 0): QSeries.one(5)}

    def test_infinite_with_q_prefactor(self):
        # (q x1 y1; q)_oo at D = 1, K = 3: 1 - (q + q^2 + q^3) x1 y1
        pol = TruncationPolicy(1, 1, 3)
        p = pochhammer_series(qs(3, 0, 1), (1, 1), None, GL1, pol)
        assert p.terms == {(0, 0): QSeries.one(3), (1, 1): qs(3, 0, -1, -1, -1)}

    def test_recurrence(self):
        pol = TruncationPolicy(3, 3, 6)
        a = qs(6, 1)
        for m in range(4):
            lhs = pochhammer_series(a, (1, 1), m + 1, GL1, pol)
            step = TruncatedSeries(GL1, pol,
                                   {(0, 0): QSeries.one(6),
                                    (1, 1): -a.shift(m)})
            rhs = mul_truncated(pochhammer_series(a, (1, 1), m, GL1, pol), step)
            assert lhs == rhs

    def test_divergent(self):
        pol = TruncationPolicy(1, 1, 3)
        with pytest.raises(DivergentPochhammerError):
            pochhammer_series(QSeries.one(3), (0, 0), None, GL1, pol)
        qt_pol = TruncationPolicy(1, 1, None)
        with pytest.raises(DivergentPochhammerError):
            pochhammer_series(QTRational.one(), (0, 0), None, GL1, qt_pol)

    def test_exact_euler_expansion(self):
        # (q t x1 y1; q)_oo with exact coefficients: the z-power k carries
        # (-1)^k q^{k(k-1)/2} (q t)^k / (q; q)_k
        pol = TruncationPolicy(2, 2, None)
        a = QTRational.from_qtpoly(QTPoly.term(1, 1, 1))
        p = pochhammer_series(a, (1, 1), None, GL1, pol)
        one = QTPoly.one()
        q, t = QTPoly.q(), QTPoly.t()
        assert p.terms[(1, 1)] == QTRational(-(q * t), one - q)
        assert p.terms[(2, 2)] == QTRational(
            QTPoly.term(1, 3, 2), (one - q) * (one - q * q))


def test_qbinomial_theorem():
    # sum_m z^m / (q; q)_m = 1/(z; q)_oo
    pol = TruncationPolicy(4, 0, 5)
    lhs = TruncatedSeries(GL1, pol,
                          {(m, 0): inv_pochhammer_qq(m, 5) for m in range(5)})
    rhs = inverse_truncated(
        pochhammer_series(QSeries.one(5), (1, 0), None, GL1, pol))
    assert first_difference(lhs, rhs) is None


def test_policy_mismatch_rejected():
    # a sum or a product takes one policy; retruncate first
    big = unit(GL1, TruncationPolicy(4, 4, 6), 6)
    small = unit(GL1, TruncationPolicy(2, 2, 3), 3)
    for op in (mul_truncated, TruncatedSeries.__add__):
        with pytest.raises(ExactError):
            op(big, small)
    assert mul_truncated(big.retruncate(small.policy), small) == small


def test_truncation_coherence():
    # computing at P then retruncating to P' <= P equals computing at P'
    big = TruncationPolicy(4, 4, 6)
    small = TruncationPolicy(2, 2, 3)
    q1 = QSeries(6, (0, 1))
    f_big = pochhammer_series(q1, (1, 1), None, GL1, big)
    prod_big = mul_truncated(f_big, inverse_truncated(f_big))
    q1s = QSeries(3, (0, 1))
    f_small = pochhammer_series(q1s, (1, 1), None, GL1, small)
    assert f_big.retruncate(small) == f_small
    assert prod_big.retruncate(small).terms == {(0, 0): QSeries.one(3)}


def test_serialization_deterministic():
    pol = TruncationPolicy(2, 2, 2)
    f = TruncatedSeries(GL1, pol, {(1, 1): qs(2, 0, -3), (0, 0): qs(2, 1),
                                   (2, 2): qs(2, 5, 0, 1)})
    recs = series_records(f)
    assert [r["exps"] for r in recs] == [[0, 0], [1, 1], [2, 2]]
    assert recs[1]["coeff"] == {"cap": 2, "coeffs": ["0", "-3"]}


def _first_difference_by_sort(f, g):
    """The oracle of first_difference: walk every key of both sides in
    canonical order.  A key on one side only differs unless its scalar is
    zero."""
    for exps in sorted(set(f.terms) | set(g.terms),
                       key=lambda e: monomial_key(f.varset, e)):
        cf, cg = f.terms.get(exps), g.terms.get(exps)
        if cf is not None and cg is not None:
            if cf != cg:
                return exps, cf, cg
        elif not _is_zero_scalar(cf if cg is None else cg):
            return exps, cf, cg
    return None


DIFF_POLICY = TruncationPolicy(3, 3, 2)
DIFF_EXPS = st.tuples(*[st.integers(0, 1)] * 4)
DIFF_SCALARS = st.one_of(
    st.integers(-2, 2),
    st.lists(st.integers(-2, 2), max_size=3).map(lambda cs: qs(2, *cs)))


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(DIFF_EXPS, DIFF_SCALARS, max_size=8),
       st.dictionaries(DIFF_EXPS, DIFF_SCALARS, max_size=4),
       st.lists(DIFF_EXPS, max_size=3),
       st.dictionaries(DIFF_EXPS, st.sampled_from([0, qs(2)]), max_size=3),
       st.booleans())
def test_first_difference_matches_sorted_walk(terms, changed, dropped,
                                              zeros, swap):
    # equal sides, sides that differ (changed or dropped terms), and sides
    # that differ only by zero scalars present on one side; the scalars are
    # kept as drawn, zero ones included
    other = dict(terms)
    other.update(changed)
    for e in dropped:
        other.pop(e, None)
    for e, z in zeros.items():
        other.setdefault(e, z)
    f = TruncatedSeries(GL2, DIFF_POLICY, terms, _checked=True)
    g = TruncatedSeries(GL2, DIFF_POLICY, other, _checked=True)
    if swap:
        f, g = g, f
    assert first_difference(f, g) == _first_difference_by_sort(f, g)
    assert first_difference(f, f) is None
