import itertools

import pytest

from qcauchy.affine import (AffinePerm, HwAlgebraChar, ReducedWord,
                            beta_sequence, char_l,
                            expected_translation_length, factorized_words,
                            hw_algebra_char, hw_algebra_char_gl,
                            maximal_sigma, translation_reduced_word)
from qcauchy.exact import ExactError, QSeries, inv_pochhammer_qq
from qcauchy.macdonald import norm_a_q
from qcauchy.weights import (Permutation, antidominant_data,
                             compositions_up_to, min_zero_compositions_up_to,
                             restrict_weight, sl_representative)


def ball(n, radius):
    """All affine permutations of length <= radius, by breadth-first search
    over right multiplication by simple reflections and length-zero shifts."""
    seen = {}
    frontier = [AffinePerm.pi_power(r, n) for r in range(-radius, radius + 1)]
    for f in frontier:
        seen[f] = 0
    while frontier:
        nxt = []
        for f in frontier:
            lf = f.length()
            for j in range(n):
                g = f * AffinePerm.simple(j, n)
                lg = g.length()
                if lg <= radius and g not in seen:
                    seen[g] = lg
                    nxt.append(g)
        frontier = nxt
    return seen


def maximal_sigma_by_walk(lam):
    """The longest element of the coset v(lam)^{-1} stab(lam_-), by walking
    all n! permutations and keeping those that fix lam_-."""
    lam_minus, v = antidominant_data(lam)
    base = v.inverse()
    best = None
    for images in itertools.permutations(range(1, len(lam) + 1)):
        u = Permutation(images)
        if u.act(lam_minus) != lam_minus:
            continue
        cand = base * u
        assert cand.act(lam_minus) == tuple(lam)
        if best is None or cand.length() > best.length():
            best = cand
    return best, lam_minus


class TestTranslationWords:
    def test_zero(self):
        w = translation_reduced_word((0, 0))
        assert w.length == 0 and w.pi == 0

    def test_sl2_minus_alpha(self):
        w = translation_reduced_word((-1, 1))
        assert w.length == 2 and w.pi_residue == 0
        assert w.evaluate() == AffinePerm.translation((-1, 1))

    def test_sl2_minus_omega(self):
        w = translation_reduced_word((-1, 0))
        assert w.length == 1 and w.pi_residue != 0

    def test_non_antidominant_rejected(self):
        with pytest.raises(ExactError):
            translation_reduced_word((1, 0))

    def test_lengths_are_minimal(self):
        # brute force: no shorter word evaluates to the same translation
        for n in (2, 3):
            lengths = ball(n, 6)
            mus = [mu for mu in itertools.product(range(-2, 1), repeat=n)
                   if all(mu[i] <= mu[i + 1] for i in range(n - 1))]
            for mu in mus:
                t = AffinePerm.translation(mu)
                expected = expected_translation_length(mu)
                if expected <= 6:
                    assert lengths.get(t) == expected, mu
                    w = translation_reduced_word(mu)
                    assert w.length == expected
                    assert w.evaluate() == t


class TestBetaSequence:
    def test_empty(self):
        w = ReducedWord(2, 0, ())
        assert beta_sequence(w) == []

    def test_sl2_translation(self):
        w = translation_reduced_word((-1, 1))
        betas = beta_sequence(w)
        assert len(betas) == 2
        assert all(b.finite_part == (-1, 1) for b in betas)
        assert sorted(b.degree for b in betas) == [1, 2]

    def test_negativity_invariant(self):
        for n in (2, 3):
            mus = [mu for mu in itertools.product(range(-3, 1), repeat=n)
                   if all(mu[i] <= mu[i + 1] for i in range(n - 1))]
            for mu in mus:
                w = translation_reduced_word(mu)
                for b in beta_sequence(w):
                    assert b.is_negative_finite(), (mu, b)
                    assert b.degree > 0, (mu, b)

    def test_distinctness(self):
        for n in (2, 3):
            mus = [mu for mu in itertools.product(range(-3, 1), repeat=n)
                   if all(mu[i] <= mu[i + 1] for i in range(n - 1))]
            for mu in mus:
                w = translation_reduced_word(mu)
                if w.length <= 8:
                    betas = beta_sequence(w)
                    assert len(set(betas)) == len(betas), mu


class TestCharL:
    def test_empty_count(self):
        w = translation_reduced_word((-1, 1))
        assert char_l((-1, 1), w, (1, 2), 0) == 2

    def test_one_counted(self):
        w = translation_reduced_word((-1, 1))
        assert char_l((-1, 1), w, (1, 2), 1) == 1

    def test_full_count(self):
        w = translation_reduced_word((-2, 2))
        full = char_l((-2, 2), w, (1, 2), w.length)
        betas = beta_sequence(w)
        count = sum(1 for b in betas if b.finite_part == (-1, 1))
        assert full == 4 - count

    def test_out_of_range(self):
        w = translation_reduced_word((-1, 1))
        with pytest.raises(ExactError):
            char_l((-1, 1), w, (1, 2), 5)


class TestHwAlgebra:
    def test_sl2_antidominant(self):
        # weight -m: degrees {1..m}, character 1/(q;q)_m
        for m in (0, 1, 2, 3):
            h = hw_algebra_char((0, m), "D")
            assert h.generator_degrees == tuple(range(1, m + 1))
            assert h.qseries(10) == inv_pochhammer_qq(m, 10)

    def test_sl2_dominant(self):
        for m in (1, 2, 3):
            h = hw_algebra_char((m, 0), "D")
            assert h.generator_degrees == tuple(range(1, m))

    def test_zero_weight(self):
        assert hw_algebra_char((0, 0), "D").generator_degrees == ()
        assert hw_algebra_char((0, 0, 0), "D").qseries(6) == QSeries.one(6)

    def test_duality(self):
        for n in (2, 3):
            for lam in compositions_up_to(n, 4):
                neg = sl_representative(
                    tuple(-x for x in restrict_weight(lam))).entries
                assert hw_algebra_char(lam, "U") == \
                    hw_algebra_char(neg, "D"), lam

    def test_factorized_word_consistency(self):
        # the closed forms agree with the beta-count versions along the
        # factorized words (both modes)
        for n in (2, 3):
            for lam in compositions_up_to(n, 4):
                wd, pd = factorized_words(lam, "D")
                wu, pu = factorized_words(lam, "U")
                assert hw_algebra_char(lam, "D") == \
                    hw_algebra_char(lam, "at_m", m=pd, word=wd), lam
                assert hw_algebra_char(lam, "U") == \
                    hw_algebra_char(lam, "at_m", m=pu, word=wu), lam

    def test_at_m_out_of_range(self):
        # m outside 0..length is rejected as char_l rejects it, not sliced
        word, _ = factorized_words((0, 2), "U")
        assert word.length == 2
        for m in (-1, 7):
            with pytest.raises(ExactError):
                hw_algebra_char((0, 2), "at_m", m=m, word=word)

    def test_norm_identification(self):
        # characters of the D algebras match the arm/leg norm on canonical
        # representatives
        for n in (2, 3):
            for lam in min_zero_compositions_up_to(n, 6):
                assert hw_algebra_char(lam, "D").qseries(20) == \
                    norm_a_q(lam, 20), lam

    def test_maximal_sigma_matches_walk(self):
        # the sort with ties reversed against the stabilizer walk, 265 weights
        lams = [lam for n in range(1, 5) for lam in compositions_up_to(n, 5)]
        lams += list(compositions_up_to(5, 3))
        assert len(lams) == 265
        for lam in lams:
            assert maximal_sigma(lam) == maximal_sigma_by_walk(lam), lam

    def test_one_sort_matches_permutations(self):
        # the D/U degrees from one sort against the Permutation build:
        # sig = v(lam)^{-1} (D) or sigma_max (U), n <= 5, entries -2..3
        count = 0
        for n in range(1, 6):
            for lam in itertools.product(range(-2, 4), repeat=n):
                lam_minus, v = antidominant_data(lam)
                for mode in ("D", "U"):
                    sig = v.inverse() if mode == "D" else maximal_sigma(lam)[0]
                    degrees = []
                    for j in range(1, n):
                        positive = int(sig(j) < sig(j + 1))
                        top = (lam_minus[j] - lam_minus[j - 1]
                               - (1 - positive if mode == "D" else positive))
                        degrees.extend(range(1, top + 1))
                    assert hw_algebra_char(lam, mode) == \
                        HwAlgebraChar(degrees), (lam, mode)
                    count += 1
        assert count == 18660

    def test_gl_lift(self):
        lam = (3, 1)
        base = hw_algebra_char(lam, "D").qseries(8)
        assert hw_algebra_char_gl(lam, "D", 8) == \
            base * inv_pochhammer_qq(1, 8)


class TestFactorizedWords:
    def test_regular_antidominant_empty_prefix(self):
        w, p = factorized_words((0, 1, 2), "D")
        assert p == 0
        assert w.evaluate() == AffinePerm.translation((0, 1, 2))

    def test_sl2_dominant(self):
        # gl (2,0): the D prefix spells v(lam) = s_1, one letter
        w, p = factorized_words((2, 0), "D")
        assert p == 1
        wu, pu = factorized_words((2, 0), "U")
        assert pu == 0

    def test_reduced_and_correct(self):
        for n in (2, 3):
            for lam in compositions_up_to(n, 4):
                from qcauchy.weights import antidominant_data
                lam_minus, _ = antidominant_data(lam)
                for mode in ("D", "U"):
                    w, p = factorized_words(lam, mode)
                    assert w.is_reduced()
                    assert w.evaluate() == AffinePerm.translation(lam_minus)
                    assert 0 <= p <= w.length


class TestAffinePermModel:
    def test_braid_relations(self):
        n = 3
        s = [AffinePerm.simple(j, n) for j in range(n)]
        for j in range(n):
            assert s[j] * s[j] == AffinePerm.identity(n)
        for a in range(n):
            b = (a + 1) % n
            assert s[a] * s[b] * s[a] == s[b] * s[a] * s[b]

    def test_pi_conjugation(self):
        n = 3
        pi = AffinePerm.pi_power(1, n)
        pinv = AffinePerm.pi_power(-1, n)
        for j in range(n):
            assert pi * AffinePerm.simple(j, n) * pinv == \
                AffinePerm.simple((j + 1) % n, n)

    def test_translation_homomorphism(self):
        for mu in ((1, -1, 0), (2, 0, 1)):
            for nu in ((0, 1, -1), (1, 1, 1)):
                lhs = AffinePerm.translation(mu) * AffinePerm.translation(nu)
                rhs = AffinePerm.translation(
                    tuple(a + b for a, b in zip(mu, nu)))
                assert lhs == rhs

    def test_length_zero_elements(self):
        for n in (2, 3, 4):
            for r in range(-3, 4):
                assert AffinePerm.pi_power(r, n).length() == 0
