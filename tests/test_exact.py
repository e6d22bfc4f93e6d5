from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from qcauchy.exact import (DivergentLimitError, ExactError, PackedQ, QPoly,
                           QSeries, QTPoly, QTRational, ZeroDenominatorError,
                           binomial_ratio, gaussian_binomial, geometric_product,
                           geometric_series, invert_q,
                           inv_pochhammer_qq, l1_mass, limit_t, normalize_qt,
                           q_text, qq_pochhammer_poly, qseries_from_qtrational,
                           qtpoly_gcd, reduce_over_binomials, _divide_exact)

ONE = QTPoly.one()
Q = QTPoly.q()
T = QTPoly.t()


class TestNormalize:
    def test_common_factor(self):
        # (q t - q) / (t - 1) = q
        assert normalize_qt(Q * T - Q, T - ONE) == QTRational.q()

    def test_zero_numerator(self):
        assert normalize_qt(QTPoly.zero(), ONE + Q * T).is_zero

    def test_polynomial_division(self):
        # (1 - q^2 t^2) / (1 - q t) = 1 + q t, verified by multiplying back
        f = normalize_qt(ONE - (Q * Q) * (T * T), ONE - Q * T)
        expected = ONE + Q * T
        assert f == QTRational.from_qtpoly(expected)
        assert (f * QTRational(ONE - Q * T, ONE)).num == ONE - (Q * Q) * (T * T)

    def test_zero_denominator(self):
        with pytest.raises(ZeroDenominatorError):
            normalize_qt(ONE, QTPoly.zero())

    def test_scaling_invariance(self):
        c = ONE + Q + T * T
        a, b = ONE - Q * T, ONE - Q
        assert normalize_qt(a * c, b * c) == normalize_qt(a, b)

    def test_huge_leading_coefficient(self):
        # the gcd is scaled exactly: 1 / 10**400 as a float is 0.0
        a = (T + Q).scale(10 ** 400)
        assert qtpoly_gcd(a, a) == T + Q
        assert QTRational(a, a) == QTRational.one()

    def test_rational_cofactors(self):
        # the common factor 2q + 1 is q + 1/2 in lex-monic form, so both
        # exact divisions by it run through Fraction remainders
        c = Q.scale(2) + ONE
        f = normalize_qt(c * (T + Q), c * (ONE - T))
        assert f.num == -(T + Q) and f.den == T - ONE
        assert all(type(x) is int for x in f.num.m.values())

    def test_division_needs_lex_monic_divisor(self):
        with pytest.raises(ExactError):
            _divide_exact(Q * T, T.scale(2))


class TestLimit:
    def test_leading_ratio(self):
        f = QTRational(ONE - Q * T, ONE - T)
        assert limit_t(f, "infinity") == QTRational.q()

    def test_vanishing_at_zero(self):
        f = QTRational(T, ONE + T)
        assert limit_t(f, "zero").is_zero

    def test_norm_factor_at_zero(self):
        # (1 - q^{L+1} t^{A+1}) / (1 - q^{L+1} t^A) -> 1 when A >= 1
        for L, A in ((0, 1), (2, 3), (5, 1)):
            f = QTRational(ONE - QTPoly.term(1, L + 1, A + 1),
                           ONE - QTPoly.term(1, L + 1, A))
            assert limit_t(f, "zero") == QTRational.one()

    def test_divergent_carries_valuations(self):
        f = QTRational(ONE, T)
        with pytest.raises(DivergentLimitError) as err:
            limit_t(f, "zero")
        assert err.value.num_val == 0 and err.value.den_val == 1

    def test_zero_limit_is_substitution_when_regular(self):
        f = QTRational(ONE + Q * T, ONE - Q - T)
        lim = limit_t(f, "zero")
        assert lim == f.subs_t0()


class TestInvertQ:
    def test_monomial(self):
        assert invert_q(QTRational.q()) == QTRational.one() / QTRational.q()

    def test_geometric(self):
        # 1/(1 - 1/q) = q/(q - 1)
        f = QTRational(ONE, ONE - Q)
        assert invert_q(f) == QTRational(Q, Q - ONE)

    def test_involutive(self):
        for f in (QTRational(ONE, ONE - Q),
                  QTRational(ONE - Q * T, ONE - QTPoly.term(1, 2, 1)),
                  QTRational(Q + T, ONE + Q * Q)):
            assert invert_q(invert_q(f)) == f
            assert invert_q(invert_q(f, True), True) == f

    def test_image_needs_no_gcd(self):
        # the image of a canonical coefficient is already gcd-free
        from qcauchy.macdonald import macdonald_E
        from qcauchy.weights import compositions_up_to
        for n in (1, 2, 3):
            for lam in compositions_up_to(n, 4):
                for c in macdonald_E(lam).terms.values():
                    for invert_t in (False, True):
                        r = invert_q(c, invert_t)
                        assert r == QTRational(r.num, r.den), (lam, invert_t)
                        assert r.eval_qt(Fraction(2, 3), Fraction(5, 7)) == \
                            c.eval_qt(Fraction(3, 2), Fraction(7, 5)
                                      if invert_t else Fraction(5, 7))

    def test_norm_factor_substitution(self):
        # substituting inside the factored norm product agrees with
        # substituting into the assembled fraction
        from qcauchy.macdonald import norm_a_qt
        a = norm_a_qt((0, 2))
        direct = invert_q(a, invert_t=True)
        num = QTPoly.one()
        den = QTPoly.one()
        # cells of (0, 2): (leg, arm) = (1, 0) and (0, 0); after q -> 1/q,
        # t -> 1/t each factor (1 - q^{-l-1} t^{-a-1}) clears to a monomial
        # times (q^{l+1} t^{a+1} - 1); assemble independently
        for leg, arm in ((1, 0), (0, 0)):
            num = num * (QTPoly.term(1, leg + 1, arm + 1) - ONE)
            den = den * (QTPoly.term(1, leg + 1, arm) - ONE)
        shift_num = QTPoly.term(1, 2, 1) * QTPoly.term(1, 1, 1)
        shift_den = QTPoly.term(1, 2, 0) * QTPoly.term(1, 1, 0)
        expected = QTRational(num * shift_den, den * shift_num)
        assert direct == expected


_small = st.integers(min_value=-3, max_value=3)


def qtpolys(max_terms=4):
    term = st.tuples(st.integers(0, 3), st.integers(0, 3), _small)
    return st.lists(term, min_size=0, max_size=max_terms).map(
        lambda ts: _build_poly(ts))


def _build_poly(ts):
    p = QTPoly.zero()
    for i, j, c in ts:
        if c:
            p = p + QTPoly.term(c, i, j)
    return p


def qtrationals():
    return st.tuples(qtpolys(), qtpolys()).map(
        lambda nd: QTRational(nd[0], nd[1])
        if not nd[1].is_zero else QTRational.from_qtpoly(nd[0]))


# a draw whose a * b + a * c took 20-30 s while sums and products reduced
# the whole cross products by the general gcd: degree-12 products with a
# gcd of degree 3
_SLOW_A = QTRational(_build_poly([(0, 0, 3), (3, 1, 2), (3, 3, -3)]),
                     _build_poly([(0, 0, 1), (3, 1, 2), (1, 3, 3), (3, 3, 3)]))
_SLOW_B = QTRational(_build_poly([(2, 0, -2), (1, 1, 1), (0, 2, 3),
                                  (3, 3, 2)]),
                     _build_poly([(2, 0, -1), (0, 1, -1), (2, 3, 2)]))


@settings(max_examples=60, deadline=None)
@given(qtrationals(), qtrationals(), qtrationals())
@example(_SLOW_A, _SLOW_B, _SLOW_A)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a


@settings(max_examples=60, deadline=None)
@given(qtrationals(), qtrationals())
def test_sum_and_product_match_reduced_cross_forms(x, y):
    # the sum and the product cancel gcds factor by factor; the canonical
    # form is unique, so they give the same object, rendered the same, as
    # reducing the cross products by one gcd
    for got, want in [
            (x + y, QTRational(x.num * y.den + y.num * x.den, x.den * y.den)),
            (x * y, QTRational(x.num * y.num, x.den * y.den))]:
        assert got == want
        assert repr(got) == repr(want)


@settings(max_examples=60, deadline=None)
@given(qtpolys(), qtpolys(), qtpolys())
def test_canonical_form_decides_equality(a, b, c):
    # a/b and (a c)/(b c) are the same function; canonical forms agree
    if b.is_zero or c.is_zero:
        return
    assert QTRational(a, b) == QTRational(a * c, b * c)
    assert hash(QTRational(a, b)) == hash(QTRational(a * c, b * c))


def _terms_qtpoly(terms):
    p = QTPoly.zero()
    for (i, j), c in terms.items():
        p = p + QTPoly.term(c, i, j)
    return p


def _times_binomial(terms, a, d):
    return QTPoly(dict(terms)).mul_one_minus_qt(a, d).m


def _gcd_path(terms, binomials):
    den = ONE
    for a, d in binomials:
        den = den * QTPoly.one_minus_qt(a, d)
    return QTRational(_terms_qtpoly(terms), den)


_binomials = st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(
        lambda b: b != (0, 0)),
    min_size=1, max_size=5)
_numerators = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 4)), st.integers(-3, 3),
    max_size=5)


class TestReduceOverBinomials:
    @settings(max_examples=150, deadline=None)
    @given(_binomials, _numerators, st.booleans(), st.data())
    def test_matches_gcd_path(self, binomials, num, cancel, data):
        # in half the examples the numerator carries some of the binomials
        if cancel:
            picked = data.draw(st.lists(st.booleans(), min_size=len(binomials),
                                        max_size=len(binomials)))
            for (a, d), take in zip(binomials, picked):
                if take:
                    num = _times_binomial(num, a, d)
        assert (reduce_over_binomials(num, binomials)
                == _gcd_path(num, binomials))

    def test_repeated_and_shared_factors(self):
        # (1 - q^2 t^2) and (1 - q t) share Phi_1(q t); cancelling
        # (1 - q t)^2 needs a second division by the same factor
        for binomials, carried in (
                (((1, 1), (1, 1)), ((1, 1), (1, 1))),
                (((2, 2), (1, 1)), ((1, 1), (1, 1))),
                (((2, 2), (2, 2), (1, 0)), ((2, 0), (1, 1))),
                (((3, 0), (1, 2)), ((1, 0),))):
            num = {(0, 0): 1, (1, 2): 2}
            for a, d in carried:
                num = _times_binomial(num, a, d)
            assert (reduce_over_binomials(num, binomials)
                    == _gcd_path(num, binomials)), binomials

    def test_signs(self):
        # 1 / (1 - q) = -1 / (q - 1); t / ((1 - t)(1 - q t)) keeps its sign
        assert (reduce_over_binomials({(0, 0): 1}, [(1, 0)])
                == QTRational(ONE, ONE - Q))
        assert (reduce_over_binomials({(0, 1): 1}, [(0, 1), (1, 1)])
                == QTRational(T, (ONE - T) * (ONE - Q * T)))

    def test_binomial_ratio(self):
        # the cyclotomic factors of the two products cancel by count and
        # the rest multiplies out, a factor regrouped into its binomial
        # where all of that binomial's factors are left, against the gcd
        # path on the expanded products
        for top, bottom in (([], [(1, 0)]), ([(1, 0)], []),
                            ([(2, 2)], [(1, 1)]), ([(1, 1)], [(2, 2), (4, 0)]),
                            ([(6, 0), (2, 1)], [(4, 2), (3, 0), (1, 1)]),
                            ([(6, 3), (6, 3)], [(2, 1), (0, 1)])):
            num, den = ONE, ONE
            for a, d in top:
                num = num * QTPoly.one_minus_qt(a, d)
            for a, d in bottom:
                den = den * QTPoly.one_minus_qt(a, d)
            assert binomial_ratio(top, bottom) == QTRational(num, den), \
                (top, bottom)
        with pytest.raises(ZeroDenominatorError):
            binomial_ratio([], [(0, 0)])

    def test_invalid_binomials(self):
        for num in ({(0, 0): 1}, {}):
            with pytest.raises(ZeroDenominatorError):
                reduce_over_binomials(num, [(1, 1), (0, 0)])
            with pytest.raises(ExactError):
                reduce_over_binomials(num, [(1, -1)])

    def test_norms_match_product_construction(self):
        from qcauchy.macdonald import norm_a_qt
        from qcauchy.weights import arm_leg, compositions_up_to, diagram
        for n in (1, 2, 3):
            for lam in compositions_up_to(n, 5):
                num, den = ONE, ONE
                for cell in diagram(lam):
                    arm, leg = arm_leg(lam, cell)
                    num = num * QTPoly.one_minus_qt(leg + 1, arm + 1)
                    den = den * QTPoly.one_minus_qt(leg + 1, arm)
                assert norm_a_qt(lam) == QTRational(num, den), lam


class TestQSeries:
    def test_truncation_ring_hom(self):
        # trunc(f g) = trunc(trunc f * trunc g)
        f = QSeries(8, (1, 2, 0, 3, 1, 1, 4, 2, 9))
        g = QSeries(8, (2, 0, 1, 1, 5, 0, 0, 3, 7))
        for cap in (0, 2, 5, 8):
            lhs = (f * g).truncate(cap)
            rhs = f.truncate(cap) * g.truncate(cap)
            assert lhs == rhs

    def test_min_cap_rule(self):
        a = QSeries(5, (1, 1))
        b = QSeries(3, (1, 2))
        assert (a * b).cap == 3
        assert (a + b).cap == 3

    def test_inverse(self):
        f = QSeries(6, (1, -1))
        g = f.inverse()
        assert g == geometric_series(1, 6)
        assert f * g == QSeries.one(6)

    def test_negative_shift_rejected(self):
        f = QSeries(5, (1, 2, 3))
        assert f.shift(2) == QSeries(5, (0, 0, 1, 2, 3))
        with pytest.raises(ValueError):
            f.shift(-1)

    def test_partition_counts(self):
        assert inv_pochhammer_qq(2, 6).coeffs == (1, 1, 2, 2, 3, 3, 4)
        assert geometric_product((1, 2), 6) == inv_pochhammer_qq(2, 6)
        assert geometric_product((), 3) == QSeries.one(3)
        with pytest.raises(ExactError):
            geometric_product((2, 0), 3)

    def test_inv_pochhammer_matches_inverse(self):
        # the product of geometric series against the inverse of the
        # expanded (q; q)_m
        for m in range(15):
            for cap in range(25):
                want = QSeries.from_qpoly(qq_pochhammer_poly(m), cap).inverse()
                assert inv_pochhammer_qq(m, cap) == want, (m, cap)

    def test_from_qtrational(self):
        f = QTRational(ONE, ONE - Q)
        assert qseries_from_qtrational(f, 4) == geometric_series(1, 4)


def _signed_terms_text(coeffs):
    """The q-text as QPoly.__str__ printed it before ``q_text`` was shared
    with QSeries, built sign by sign: the first term keeps its sign, every
    later one is joined by " + " or " - " and printed by magnitude."""
    text = ""
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        if not text:
            sep, c = ("-", -c) if c < 0 and i > 0 else ("", c)
        else:
            sep, c = (" - ", -c) if c < 0 else (" + ", c)
        if i == 0:
            body = str(c)
        else:
            body = ("" if c == 1 else f"{c}*") + "q" + (f"^{i}" if i > 1 else "")
        text += sep + body
    return text or "0"


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.sampled_from([0, 1, -1]), st.integers(-40, 40),
                          st.fractions(max_denominator=6)), max_size=8),
       st.booleans(), st.integers(0, 3))
@example([0, 1, -1, 0, -7, 3], False, 0)
@example([], False, 0)
def test_q_text_matches_qpoly_text(coeffs, lead_zero, slack):
    # the coefficient tuple of a QSeries (trailing zeros dropped, leading
    # zeros kept) renders as the QPoly of the same coefficients did
    coeffs = [0] * lead_zero + coeffs
    s = QSeries(len(coeffs) + slack, coeffs)
    want = _signed_terms_text(s.coeffs)
    assert q_text(s.coeffs) == want
    assert str(QPoly(s.coeffs)) == want


def _coeff_lists(data, cap, m):
    """Two integer lists in [-m, m] that run past the cap, with the edges
    -m, 0 and m drawn often."""
    coeff = st.one_of(st.sampled_from([m, -m, 0]), st.integers(-m, m))
    return [data.draw(st.lists(coeff, max_size=cap + 3)) for _ in range(2)]


class TestPackedQ:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 8), st.integers(0, 2 ** 70), st.data())
    def test_matches_qseries_arithmetic(self, cap, m, data):
        a, b = _coeff_lists(data, cap, m)
        fa, fb = QSeries(cap, a), QSeries(cap, b)
        # the L1 masses of the untruncated lists bound every coefficient of
        # their product and of their sum
        prod = PackedQ(l1_mass(a) * l1_mass(b), cap)
        pa, pb = prod.pack(a), prod.pack(b)
        assert prod.unpack(pa * pb) == fa * fb
        assert prod.unpack(pa * pb & prod.mask) == fa * fb
        total = PackedQ(l1_mass(a) + l1_mass(b), cap)
        assert total.unpack(total.pack(a) + total.pack(b)) == fa + fb
        # products masked one by one and then summed, as the identity sides
        # accumulate them
        both = PackedQ(l1_mass(a) * (l1_mass(a) + l1_mass(b)), cap)
        pa, pb = both.pack(a), both.pack(b)
        assert (both.unpack((pa * pa & both.mask) + (pa * pb & both.mask))
                == fa * fa + fa * fb)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 8), st.integers(0, 2 ** 70), st.data())
    def test_round_trip_at_the_bound(self, cap, bound, data):
        # every coefficient at most the bound, the edge of the slot width;
        # zero and negative slots too, and zeros at the top, which unpack
        # strips itself: equality compares the coefficient tuples
        c = data.draw(st.lists(st.sampled_from([bound, -bound, 0]),
                               max_size=cap + 1))
        packing = PackedQ(bound, cap)
        assert packing.width == bound.bit_length() + 2
        for coeffs in (c, c + [0] * (cap + 1 - len(c)), [0] * (cap + 1),
                       [-bound] * cap + [0]):
            got = packing.unpack(packing.pack(coeffs))
            assert got == QSeries(cap, coeffs)
            assert all(type(x) is int for x in got.coeffs)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 8), st.integers(0, 2 ** 70), st.data())
    def test_masked_ints_compare_like_series(self, cap, bound, data):
        # two lists with |c| <= bound and mixed signs (past the cap too)
        # are equal as series iff their masked packed ints are equal; b is
        # often a with one coefficient moved, to the opposite edge or by 1
        coeff = st.one_of(st.sampled_from([bound, -bound, 0]),
                          st.integers(-bound, bound))
        a = data.draw(st.lists(coeff, max_size=cap + 3))
        b = list(a)
        if b and data.draw(st.booleans()):
            i = data.draw(st.integers(0, len(b) - 1))
            b[i] = data.draw(st.one_of(st.sampled_from([-b[i], b[i] - 1]),
                                       coeff))
            b[i] = max(-bound, min(bound, b[i]))
        elif data.draw(st.booleans()):
            b = data.draw(st.lists(coeff, max_size=cap + 3))
        packing = PackedQ(bound, cap)
        masked = [packing.pack(c) & packing.mask for c in (a, b)]
        assert (masked[0] == masked[1]) == (QSeries(cap, a) == QSeries(cap, b))

    def test_non_integer_coefficient_rejected(self):
        packing = PackedQ(4, 2)
        with pytest.raises(ExactError):
            packing.pack((1, Fraction(1, 2)))
        with pytest.raises(ExactError):
            packing.pack(QSeries(2, (1, Fraction(3, 2))).coeffs)


def test_gaussian_binomials():
    assert gaussian_binomial(4, 2) == QPoly((1, 1, 2, 1, 1))
    assert gaussian_binomial(3, 0) == QPoly.one()
    assert gaussian_binomial(3, 5).is_zero
    # symmetry
    for m in range(6):
        for a in range(m + 1):
            assert gaussian_binomial(m, a) == gaussian_binomial(m, m - a)


def test_qpoly_arithmetic():
    q = QPoly.gen()
    p = (1 - q) * (1 + q + q ** 2)
    assert p == QPoly((1, 0, 0, -1))
    assert qq_pochhammer_poly(2) == QPoly((1, -1, -1, 1))
    quo, rem = p.divmod(QPoly((1, -1)))
    assert rem.is_zero and quo == QPoly((1, 1, 1))
