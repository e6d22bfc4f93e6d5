import pytest

from qcauchy.characters import char_module, ch_weyl_ratio_check
from qcauchy.affine import factorized_words
from qcauchy.exact import ExactError, QSeries, inv_pochhammer_qq
from qcauchy.identities import lhs_series
from qcauchy.series import TruncationPolicy, first_difference, mul_truncated
from qcauchy.weights import compositions_up_to


POL = TruncationPolicy(3, 3, 6)


class TestCharModule:
    def test_trivial_weight(self):
        t = char_module("T", (0, 0), POL)
        assert t.terms == {(0, 0): QSeries.one(6)}

    def test_rank_one_example(self):
        # sl_2 weight -1 (gl representative (0, 1)):
        # ch T = 1/(q)_1 * (X + 1/X) * (q Y + 1/Y)
        t = char_module("T", (0, 1), POL)
        g1 = inv_pochhammer_qq(1, 6)
        q = QSeries(6, (0, 1))
        expected = {
            (1, 1): g1 * q, (1, -1): g1,
            (-1, 1): g1 * q, (-1, -1): g1,
        }
        assert t.terms == expected

    def test_gl_demazure(self):
        d = char_module("D", (1, 0), POL, lattice="gl")
        assert d.terms == {(1, 0, 0, 0): QSeries.one(6)}

    def test_factorization(self):
        for lam in ((0, 1), (2, 0), (0, 2), (1, 0, 2)):
            pol = TruncationPolicy(4, 4, 5)
            t = char_module("T", lam, pol)
            ad = char_module("A_D", lam, pol)
            d = char_module("D", lam, pol)
            u = char_module("Uo", lam, pol)
            prod = mul_truncated(mul_truncated(ad, d), u)
            assert first_difference(t, prod) is None, lam

    def test_positivity(self):
        for lam in compositions_up_to(2, 4):
            for kind in ("D", "Uo", "T", "A_D", "A_U"):
                s = char_module(kind, lam, POL)
                for c in s.terms.values():
                    assert c.is_nonnegative(), (lam, kind)

    def test_negative_entry_rejected(self):
        # E_lam needs a composition: the recursion from (-1, 0) never ends
        for kind in ("D", "Uo", "T"):
            with pytest.raises(ExactError):
                char_module(kind, (-1, 0), POL)

    def test_gl_lift_factor(self):
        # the gl algebra character carries the extra 1/(q;q)_{min entry}
        a_sl = char_module("A_D", (3, 1), POL).terms[(0, 0)]
        a_gl = char_module("A_D", (3, 1), POL, lattice="gl").terms[(0,) * 4]
        assert a_gl == a_sl * inv_pochhammer_qq(1, 6)


class TestIwahori:
    def test_rank_one_trivial(self):
        pol = TruncationPolicy(3, 3, 4)
        s = lhs_series("iwahori_char", 1, pol)
        assert s.terms == {(0, 0): QSeries.one(4)}

    def test_rank_two_low_degree(self):
        pol = TruncationPolicy(1, 1, 1)
        s = lhs_series("iwahori_char", 2, pol)
        one = QSeries.one(1)
        q = QSeries(1, (0, 1))
        expected = {
            (0, 0, 0, 0): one,
            (1, 0, 1, 0): one + q,
            (1, 0, 0, 1): one + q,
            (0, 1, 0, 1): one + q,
            (0, 1, 1, 0): q,
        }
        assert s.terms == expected

    def test_q0_layer_counts_borel_functions(self):
        # the coefficient of x^lam y^lam q^0 is 1 for min-zero lam
        pol = TruncationPolicy(4, 4, 2)
        s = lhs_series("iwahori_char", 2, pol)
        for lam in compositions_up_to(2, 4):
            if min(lam) == 0:
                c = s.terms.get(tuple(lam) + tuple(lam))
                assert c is not None and c[0] == 1, lam


class TestWeylRatio:
    def test_trivial(self):
        w, p = factorized_words((0, 0), "D")
        rep = ch_weyl_ratio_check((0, 0), p, w)
        assert rep.passed

    def test_degrees_both_ways(self):
        # sl_2 weight -2: m = 0 leaves degrees {1, 2}; after one letter of
        # the U word a degree is consumed
        wu, pu = factorized_words((0, 2), "U")
        for m in range(wu.length + 1):
            rep = ch_weyl_ratio_check((0, 2), m, wu)
            assert rep.passed, m

    def test_sweep(self):
        for lam in compositions_up_to(3, 3):
            for mode in ("D", "U"):
                w, p = factorized_words(lam, mode)
                rep = ch_weyl_ratio_check(lam, p, w)
                assert rep.passed, (lam, mode)
