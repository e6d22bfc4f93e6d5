import functools
import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from qcauchy.exact import (ExactError, PackedQ, QSeries, QTRational,
                           inv_pochhammer_qq, l1_mass)
import qcauchy.identities as identities
import qcauchy.macdonald as macdonald
from qcauchy.affine import hw_algebra_char
from qcauchy.identities import (_code_bits, _kostant_xsums, _macdonald_bound,
                                _macdonald_side, _packed_macdonald_sum,
                                _product_bound, _product_factors,
                                _rhs_lambdas, _sl_budget, _sl_budget_hits,
                                _sl_lambdas, _sl_lhs_window, _sl_rhs_adaptive,
                                lhs_series, project_to_sl, rhs_series,
                                sl_certificate, sl_window_pairs,
                                verify_identity, verify_sl2_appendix)
from qcauchy.macdonald import (_exponents, _fillings_bound, _window_cost,
                               e_atom_table, e_t0_table, norm_a_q)
from qcauchy.series import (TruncatedSeries, TruncationPolicy, VariableSet,
                            first_difference, inverse_truncated, mul_truncated,
                            pochhammer_series, render_scalar)
from qcauchy.weights import (compositions_up_to, min_zero_compositions_up_to,
                             restrict_weight)
from test_series import _first_difference_by_sort


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
        d = first_difference(plain.varset, plain.terms, koszul.terms)
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


@functools.lru_cache(maxsize=None)
def _lhs_oracle(variant, n, dx, dy, K):
    # the q-series oracle points are shared by three tests below
    return _lhs_by_pochhammer(variant, n, TruncationPolicy(dx, dy, K))


@pytest.mark.parametrize("variant", ["gl_t0", "gl_slform", "iwahori_char",
                                     "classical_q0"])
@pytest.mark.parametrize("n, dmax", [(1, 4), (2, 4), (3, 3)])
def test_closed_form_factors_match_pochhammer_products(variant, n, dmax):
    for dx in range(dmax + 1):
        for dy in range(dmax + 1):
            for K in range(5):
                pol = TruncationPolicy(dx, dy, K)
                assert lhs_series(variant, n, pol) == \
                    _lhs_oracle(variant, n, dx, dy, K), (dx, dy, K)


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


def _rhs_by_qseries(variant, n, policy, norm=norm_a_q):
    """The Macdonald side summed on QSeries objects, norm * E(x) * E(y)
    pair by pair, inline: the accumulation the packed sum of rhs_series
    replaces, kept as its oracle.  ``norm`` is the norm a_lam(q) at a cap."""
    lambdas = _rhs_lambdas(variant, n, policy)
    K = policy.max_q_degree
    terms = {}
    if variant == "classical_q0":
        t0, atom = e_t0_table(lambdas, 0), e_atom_table(lambdas, 0)
        norms = {lam: QSeries(K, norm(lam, 0).coeffs) for lam in lambdas}
        t0 = {lam: {e: c[0] for e, c in t0[lam].items()} for lam in lambdas}
        atom = {lam: {e: c[0] for e, c in atom[lam].items()}
                for lam in lambdas}
    else:
        t0, atom = e_t0_table(lambdas, K), e_atom_table(lambdas, K)
        norms = {lam: norm(lam, K) for lam in lambdas}
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


Q_VARIANTS = ["gl_t0", "gl_slform", "iwahori_char", "classical_q0"]


def _old_product_bound(factors):
    # the product of the factors' L1 masses, over every degree
    return math.prod(sum(l1_mass(c.coeffs) for c in cs) for _, cs in factors)


@pytest.mark.parametrize("variant", Q_VARIANTS)
def test_graded_product_bound(variant):
    # the degree-graded bound holds every coefficient of the product side
    # (the signed determinant factor of gl_slform and iwahori_char
    # included, also with Dx != Dy), and never exceeds the ungraded one
    for n in (1, 2, 3):
        for dx in range(5):
            for dy in range(5):
                for K in range(5):
                    pol = TruncationPolicy(dx, dy, K)
                    factors = _product_factors(variant, n, pol)
                    bound = _product_bound(VariableSet.gl(n), pol, factors)
                    lhs = _lhs_oracle(variant, n, dx, dy, K)
                    assert all(abs(c) <= bound for s in lhs.terms.values()
                               for c in s.coeffs), (n, dx, dy, K)
                    assert bound <= _old_product_bound(factors)


def test_graded_width_at_gl_t0_box():
    # the benchmark's gl-t0 point: 30-bit slots on the product side, where
    # the ungraded bound gave 68; the shared slot, which the Macdonald side
    # fixes from the columns before building any table, is 31 bits
    pol = TruncationPolicy(6, 6, 8)
    factors = _product_factors("gl_t0", 3, pol)
    bound = _product_bound(VariableSet.gl(3), pol, factors)
    assert PackedQ(bound, 8).width == 30
    assert PackedQ(_old_product_bound(factors), 8).width == 68
    assert _macdonald_side("gl_t0", 3, pol, bound)[0].width == 31


def test_gl_side_computes_each_lambdas_columns_once():
    # a gl side builds every t = 0 table, then every atom table: the columns
    # of each lam are computed once for both passes
    macdonald._columns.cache_clear()
    _, _, count = _macdonald_side("gl_t0", 3, TruncationPolicy(3, 3, 4))
    assert macdonald._columns.cache_info().misses == count == 20


def _norm_plus_one(lam, cap):
    return norm_a_q(lam, cap) + QSeries.one(cap)


def _norm_zero_at_one(lam, cap):
    # no summand of |lam| = 1: the degree-1 monomials stay on the product
    # side only
    return QSeries.zero(cap) if sum(lam) == 1 else norm_a_q(lam, cap)


def _off_degree_one(exps):
    return sum(exps[: len(exps) // 2]) != 1


def _witness(diff):
    """The report's witness of a first difference; an absent value renders
    "0"."""
    return None if diff is None else {
        "monomial": list(diff[0]),
        **{side: "0" if c is None else render_scalar(c)
           for side, c in zip(("lhs", "rhs"), diff[1:])}}


# (norm, product-side monomials kept): passing; both witness values
# nonzero; the Macdonald value absent; the product value absent
PERTURBATIONS = [(norm_a_q, None), (_norm_plus_one, None),
                 (_norm_zero_at_one, None), (norm_a_q, _off_degree_one)]


@pytest.mark.parametrize("variant", Q_VARIANTS)
def test_packed_verdict_matches_oracles(variant, monkeypatch):
    # verify_identity compares the two sides packed and unpacks only the
    # witness: outcome and witness equal those of first_difference on the
    # oracle sides, under each perturbation; an absent value renders "0"
    packed_product = identities._packed_product
    seen = set()
    for n in (1, 2, 3):
        for D in range(4):
            for K in range(5):
                pol = TruncationPolicy(D, D, K)
                lhs = _lhs_oracle(variant, n, D, D, K)
                for norm, keep in PERTURBATIONS:
                    keep = keep or (lambda exps: True)
                    monkeypatch.setattr(identities, "norm_a_q", norm)
                    monkeypatch.setattr(
                        identities, "_packed_product",
                        lambda varset, policy, *args, keep=keep: {
                            e: v for e, v in
                            packed_product(varset, policy, *args).items()
                            if keep(_exponents(e, varset.size,
                                            _code_bits(policy)))})
                    got = verify_identity(variant, n, pol)
                    diff = first_difference(
                        lhs.varset,
                        {e: c for e, c in lhs.terms.items() if keep(e)},
                        _rhs_by_qseries(variant, n, pol, norm).terms)
                    want = _witness(diff)
                    case = (n, D, K, norm.__name__, keep.__name__)
                    assert got.outcome == ("pass" if diff is None
                                           else "fail"), case
                    assert got.witness == want, case
                    if want is not None:
                        seen.add((want["lhs"] == "0", want["rhs"] == "0"))
    assert seen == {(False, False), (False, True), (True, False)}


@pytest.mark.parametrize("variant", Q_VARIANTS)
def test_verify_unpacks_only_the_witness(variant, monkeypatch):
    # at the benchmark's point no output monomial is unpacked on a pass,
    # and only the witness's two values on a failure
    calls = []
    unpack = PackedQ.unpack

    def counted(self, value):
        calls.append(value)
        return unpack(self, value)
    monkeypatch.setattr(PackedQ, "unpack", counted)
    pol = TruncationPolicy(6, 6, 8)
    assert verify_identity(variant, 3, pol).passed
    assert calls == []
    monkeypatch.setattr(identities, "norm_a_q", _norm_plus_one)
    assert not verify_identity(variant, 3, pol).passed
    assert len(calls) == 2


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
        assert lhs_b.retruncate(small) == rhs_b.retruncate(small)
        assert lhs_b.retruncate(small) == lhs_series("gl_t0", 2, small)

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
        d = first_difference(lhs.varset, lhs.terms, lhs2.terms)
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
        # would let the later fiber sum replace the earlier one; and the
        # certificate counts every solution only on min-zero pairs
        f = lhs_series("gl_slform", 2, TruncationPolicy(6, 6, 3))
        for pairs in ([((1, 1), (0, 0)), ((0, 0), (0, 0))],
                      [((0, 0), (0, 1)), ((0, 0), (2, 1))]):
            kmax = {p: 2 for p in pairs}
            with pytest.raises(ExactError):
                project_to_sl(f, pairs, kmax, 3)
            with pytest.raises(ExactError):
                sl_certificate(2, pairs, 3)

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
    assert _packed_macdonald_sum([], PackedQ(0, 3)) == []


def test_window_hits_pair_up_in_window():
    # the sl Macdonald side keys its sums on the class-pair codes x-key +
    # y-key of each lam's window hits with no filter of its own: every such
    # key is the code of a window pair, for every lam up to the certified
    # box.  The hits are read from _sl_budget_hits, at the floor and caps
    # the sums use; the floor prune has its own oracle in test_macdonald.py
    # (test_packed_program_matches_per_key_program)
    K = 1
    summed = 0
    for n in range(1, 5):
        for w in range(4):
            pairs = sl_window_pairs(n, w)
            pair_set = set(pairs)
            _, box, _ = sl_certificate(n, pairs, K)
            bits = box.bit_length() + 1
            for lam in min_zero_compositions_up_to(n, box):
                entry = _sl_budget(lam, K, w)
                hits = entry and _sl_budget_hits(
                    entry, K, PackedQ(_fillings_bound(lam), K), bits)
                if not hits:
                    continue        # lam adds no key to the sums
                summed += 1
                for cx, cy in itertools.product(*hits):
                    exps = _exponents(cx + cy, 2 * n, bits)
                    assert (exps[:n], exps[n:]) in pair_set, (n, w, lam)
    assert summed > 0


def _pair_classes(code, n, bits):
    """The sl class pair (restrict_weight of both) of a class-pair code."""
    exps = _exponents(code, 2 * n, bits)
    return restrict_weight(exps[:n]) + restrict_weight(exps[n:])


def _shared_hits(lam, K, w):
    """(hits, packing, bits): _sl_budget_hits of lam's entry, made by the
    cost test ``_sl_budget`` as on the sl side, at the slot width of lam's
    own bound F(lam) and the code width of |lam|; hits is None when the
    cost test skips lam."""
    norms = (norm_a_q(lam, K),)
    packing = PackedQ(_macdonald_bound(
        [(norms, _fillings_bound(lam))]), K)
    bits = sum(lam).bit_length() + 1
    entry = _sl_budget(lam, K, w)
    return entry and _sl_budget_hits(entry, K, packing, bits), packing, bits


def _shared_summand(lam, K, shared):
    """norm * E(x) * E(y) modulo q^{K+1} of lam's window hits under the
    shared q-budget (``_shared_hits``), keyed on sl class pairs and
    unpacked; {} when lam is skipped."""
    hits, packing, bits = shared
    if hits is None:
        return {}
    sums, = _packed_macdonald_sum([((norm_a_q(lam, K),),) + hits], packing)
    return {_pair_classes(code, len(lam), bits): packing.unpack(v)
            for code, v in sums.items()}


def _summand(lam, K, hits):
    """norm * E(x) * E(y) modulo q^{K+1} of lam's QSeries (x hits, y hits),
    keyed on sl class pairs, zero sums dropped."""
    norm, (xs, ys) = norm_a_q(lam, K), hits
    out = {a + b: norm * cx * cy for a, cx in xs.items()
           for b, cy in ys.items()}
    return {key: c for key, c in out.items() if not c.is_zero}


def _window_classes(table, lam, K, floor):
    """The oracle of the window hits: lam's table built in full at cap K,
    restricted to the weights w with min(w) >= floor, keyed on sl
    classes."""
    return {restrict_weight(e): c for e, c in table([lam], K)[lam].items()
            if min(e) >= floor}


def _full_cap_hits(n, lam, K, w):
    # the oracle of the shared budget: both tables at cap K, on the window
    floor = window_floor(lam, n, w)
    return (_window_classes(e_t0_table, lam, K, floor),
            _window_classes(e_atom_table, lam, K, floor))


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
            shared = _shared_hits(lam, K, w)
            assert _shared_summand(lam, K, shared) == \
                _summand(lam, K, full), (n, w, K, lam)
            skipped += shared[0] is None and all(full)
    assert skipped > 0


def test_budget_skips_run_no_column_program(monkeypatch):
    # _sl_budget_hits runs the t = 0 column program of lam iff c_x + c_y <=
    # K, and the atom program iff, in addition, e_x + c_y <= K, e_x the
    # least q-exponent of the t = 0 table's hits (infinite without a hit);
    # the t = 0 table's cap K - c_y bounds e_x, so the second condition
    # fails only on an empty t = 0 table; the first skips some lam; every
    # program run is of the lam under test
    runs = []
    program = macdonald._packed_column_terms

    def recorded(built, cap, rule, floor, width, bits):
        table = program(built, cap, rule, floor, width, bits)
        # each series' valuation: the slot of its lowest set bit
        runs.append((rule, built, {
            code: ((v & -v).bit_length() - 1) // width
            for code, v in table.items()}))
        return table
    monkeypatch.setattr(identities, "_packed_column_terms", recorded)
    skipped = 0
    for n, w, K in BUDGET_POINTS:
        _, box, _ = sl_certificate(n, sl_window_pairs(n, w), K)
        for lam in sorted(min_zero_compositions_up_to(n, box)):
            floor = window_floor(lam, n, w)
            cost_x = _window_cost(lam, floor, "t0")
            cost_y = _window_cost(lam, floor, "atom")
            runs.clear()
            _shared_hits(lam, K, w)
            assert all(ran == lam for _, ran, _ in runs), (n, w, K, lam)
            rules = [rule for rule, _, _ in runs]
            case = (n, w, K, lam)
            if cost_x + cost_y > K:
                assert rules == [], case
                skipped += 1
                continue
            assert rules[0] == "t0", case
            low = min(runs[0][2].values(), default=math.inf)
            assert low == math.inf or low <= K - cost_y, case
            want = ["t0", "atom"] if low + cost_y <= K else ["t0"]
            assert rules == want, case
    assert skipped > 0


def test_budget_skips_lambda_without_t0_hit(monkeypatch):
    # no lam with c_x + c_y <= K has an empty floor-pruned t = 0 table
    # below cap K - c_y at n <= 4, W <= 4, K <= 5, nor at n = 5 with W <= 1,
    # K <= 5 or W = 2, K <= 3 (searched), so the branch is driven
    # directly: an empty t = 0 table skips lam, and no atom table is built
    n, lam, K, w = 2, (1, 0), 2, 1
    floor = window_floor(lam, n, w)
    assert (_window_cost(lam, floor, "t0")
            + _window_cost(lam, floor, "atom")) <= K

    def t0_only(lam, cap, rule, floor, width, bits):
        if rule == "atom":
            raise AssertionError("atom table built without a t = 0 hit")
        return {}
    monkeypatch.setattr(identities, "_packed_column_terms", t0_only)
    assert _shared_hits(lam, K, w)[0] is None


def test_norms_only_for_lambda_passing_cost_test(monkeypatch):
    # the sl Macdonald side runs its cost test once on each lam it keeps
    # and computes (and checks) both norms of those lam, before it builds
    # any table, and of no other: at (3, 2, 2), 92 of the 316 lam up to the
    # box, of which it sums 91
    n, w, K = 3, 2, 2
    pairs = sl_window_pairs(n, w)
    _, box, _ = sl_certificate(n, pairs, K)
    passed = sum(_sl_budget(lam, K, w) is not None
                 for lam in min_zero_compositions_up_to(n, box))
    calls = {"norm_a_q": 0, "hw_algebra_char": 0, "_sl_budget": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(identities, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(identities, name, counted)
    summed = []

    def recorded(summands, packing):
        summed.append(len(summands))
        return _packed_macdonald_sum(summands, packing)
    monkeypatch.setattr(identities, "_packed_macdonald_sum", recorded)
    count = _sl_rhs_adaptive(n, pairs, K, box).lambda_count
    assert (passed, summed, count) == (92, [91], 316)
    assert calls == dict.fromkeys(calls, passed)


def _filtered_entries(n, K, w, box):
    """The enumeration the walk replaced, kept as its oracle: the entries
    the cost test makes of every min-zero lam up to the box, sorted, those
    it skips dropped."""
    return [entry for lam in sorted(min_zero_compositions_up_to(n, box))
            if (entry := _sl_budget(lam, K, w))]


# (n, W, K) of the walk's oracle: every point with n <= 4, W <= 4, K <= 5,
# and two points at n = 5, 6
WALK_POINTS = [(n, w, K) for n in range(1, 5) for w in range(5)
               for K in range(6)] + [(5, 2, 2), (6, 1, 2)]


def test_walk_matches_sorted_filter(monkeypatch):
    # up to each certified box, the walk yields the entries of the lam that
    # pass the cost test, sorted, each as the test makes it, and runs the
    # test once on each of them and on no other lam: a partial c_x + c_y at
    # the last free part is the final one, so it cuts every failing leaf.
    # The summand count is C(box + n, n) - C(box, n), the number of
    # min-zero lam up to the box
    tested = []

    def counted(lam, K, w):
        tested.append(lam)
        return _sl_budget(lam, K, w)
    monkeypatch.setattr(identities, "_sl_budget", counted)
    for n, w, K in WALK_POINTS:
        pairs = sl_window_pairs(n, w)
        _, box, _ = sl_certificate(n, pairs, K)
        tested.clear()
        got = _sl_lambdas(n, K, w, box)
        assert got == _filtered_entries(n, K, w, box), (n, w, K)
        assert sorted(tested) == [entry.lam for entry in got], (n, w, K)
        with monkeypatch.context() as patch:
            # no lam, so that only the count is computed
            patch.setattr(identities, "_sl_lambdas", lambda *args: [])
            count = _sl_rhs_adaptive(n, pairs, K, box).lambda_count
        assert count == sum(1 for _ in min_zero_compositions_up_to(n, box)), \
            (n, w, K)


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
    assert _shared_summand(lam, K, _shared_hits(lam, K, w)) == \
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
    packing = PackedQ(max(abs(c) for fiber in fibers.values()
                          for c in fiber.coeffs), K)
    bits = D.bit_length() + 1
    assert {_pair_classes(code, n, bits): packing.unpack(v) for code, v in
            _sl_lhs_window(fibers, packing, bits).items()} == want.terms


class _CharPlusQ:
    """A highest-weight-algebra character whose q-series gains q."""

    def __init__(self, char):
        self.char = char

    def qseries(self, cap):
        return self.char.qseries(cap) + QSeries(cap, (0, 1))


def _hw_plus_q(lam, mode):
    return _CharPlusQ(hw_algebra_char(lam, mode))


def _sl_macdonald_by_qseries(n, w, K, box, norms):
    """The sl Macdonald sums, one per norm (a function of lam and cap), on
    QSeries objects: every min-zero lam up to the box, both tables at cap
    K, every pair of their window hits that is a window pair, keyed on sl
    classes, zero sums dropped.  The oracle of _sl_rhs_adaptive's budget,
    skips and packed sums."""
    pair_set = {(restrict_weight(a), restrict_weight(b))
                for a, b in sl_window_pairs(n, w)}
    sums = [{} for _ in norms]
    for lam in min_zero_compositions_up_to(n, box):
        xs, ys = _full_cap_hits(n, lam, K, w)
        for acc, norm in zip(sums, norms):
            a_lam = norm(lam, K)
            for a, cx in xs.items():
                for b, cy in ys.items():
                    if (a, b) in pair_set:
                        c = a_lam * cx * cy
                        acc[a, b] = acc[a, b] + c if (a, b) in acc else c
    return [{a + b: c for (a, b), c in acc.items() if not c.is_zero}
            for acc in sums]


# injected into the identities namespace: none, a norm + 1, a character + q
SL_FAULTS = [{}, {"norm_a_q": _norm_plus_one},
             {"hw_algebra_char": _hw_plus_q}]


@pytest.mark.parametrize("n, w, K", [(1, 2, 4), (1, 3, 3), (2, 1, 2),
                                     (2, 2, 3), (2, 3, 4), (3, 1, 2),
                                     (3, 2, 1), (3, 2, 2)])
def test_sl_verdict_matches_oracles(n, w, K, monkeypatch):
    # verify sl, passing and under each injected fault: outcome and witness
    # equal those of the sorted walk over project_to_sl on the whole
    # certified gl_slform box and the QSeries Macdonald sums
    pairs = sl_window_pairs(n, w)
    kmax, D, _ = sl_certificate(n, pairs, K)
    lhs = project_to_sl(lhs_series("gl_slform", n, TruncationPolicy(D, D, K)),
                        pairs, kmax, K)
    for fault in SL_FAULTS:
        norm = fault.get("norm_a_q", norm_a_q)
        char = fault.get("hw_algebra_char", hw_algebra_char)
        gl, sl = _sl_macdonald_by_qseries(
            n, w, K, D, (norm, lambda lam, cap: char(lam, "D").qseries(cap)))
        diff = (_first_difference_by_sort(lhs.varset, lhs.terms, gl)
                or _first_difference_by_sort(lhs.varset, gl, sl))
        with monkeypatch.context() as patch:
            for name, fn in fault.items():
                patch.setattr(identities, name, fn)
            got = verify_identity("sl_projected", n, TruncationPolicy(w, w, K))
        case = (n, w, K, sorted(fault))
        assert got.outcome == ("fail" if fault else "pass"), case
        assert got.witness == _witness(diff), case


def test_sl_width_bounds_every_compared_coefficient(monkeypatch):
    # the bound of the one PackedQ that verify sl compares on covers every
    # coefficient it compares: those of the certificate's fibers and of both
    # Macdonald sums, here on QSeries objects.  A passing run's sums equal
    # the fibers, so the injected faults, which enlarge the sums, check the
    # Macdonald side's own bound.
    bounds = []

    class Recorded(PackedQ):
        def __init__(self, bound, cap):
            bounds.append(bound)
            super().__init__(bound, cap)
    norms = []      # both norms under each fault
    for fault in SL_FAULTS:
        char = fault.get("hw_algebra_char", hw_algebra_char)
        norms += [fault.get("norm_a_q", norm_a_q),
                  lambda lam, cap, char=char: char(lam, "D").qseries(cap)]
    for n, w, K in BUDGET_POINTS:
        pairs = sl_window_pairs(n, w)
        _, D, fibers = sl_certificate(n, pairs, K)
        sums = _sl_macdonald_by_qseries(n, w, K, D, norms)
        for i, fault in enumerate(SL_FAULTS):
            top = max((abs(c) for terms in [fibers] + sums[2 * i:2 * i + 2]
                       for series in terms.values() for c in series.coeffs),
                      default=0)
            bounds.clear()
            with monkeypatch.context() as patch:
                for name, fn in {**fault, "PackedQ": Recorded}.items():
                    patch.setattr(identities, name, fn)
                verify_identity("sl_projected", n, TruncationPolicy(w, w, K))
            # the certificate's own PackedQ comes first, the shared one last
            assert bounds[-1] >= top, (n, w, K, sorted(fault))


def _matrices(cells, budget):
    """Entry tuples of the nonnegative matrices with the given number of
    cells and entry sum <= budget."""
    if cells == 0:
        yield ()
        return
    for v in range(budget + 1):
        for rest in _matrices(cells - 1, budget - v):
            yield (v,) + rest


def _kostant_by_roots(c, n):
    """The x-side sums of the nonnegative solutions of
    sum m_{ij} (e_i - e_j) = c, i < j, by a search over the positive roots
    one at a time: each unit of m_{ij} consumes j - i units of the weighted
    height -sum k c_k, which bounds the search, and a leaf is kept when it
    leaves nothing of c."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    sols = []
    mx = [0] * n

    def rec(idx, rem):
        height = -sum(k * rem[k] for k in range(n))
        if height < 0:
            return
        if idx == len(pairs):
            if all(x == 0 for x in rem):
                sols.append(tuple(mx))
            return
        i, j = pairs[idx]
        for v in range(height // (j - i) + 1):
            rem[i] -= v
            rem[j] += v
            mx[i] += v
            rec(idx + 1, rem)
            rem[i] += v
            rem[j] -= v
            mx[i] -= v

    rec(0, list(c))
    return sols


@pytest.mark.parametrize("n, r", [(1, 6), (2, 6), (3, 6), (4, 3), (5, 1)])
def test_row_walk_matches_root_search(n, r):
    # every c with sum 0 and |c_i| <= r: the same x-side sums, as multisets
    for c in itertools.product(range(-r, r + 1), repeat=n):
        if sum(c) == 0:
            assert (sorted(_kostant_xsums(c))
                    == sorted(_kostant_by_roots(c, n))), c


@pytest.mark.parametrize("n, w, K", [(3, 2, 2), (4, 1, 2), (5, 1, 1)])
def test_row_walk_matches_root_search_on_certificate(n, w, K, monkeypatch):
    # every c the certificate forms at these points, some beyond the boxes
    # of test_row_walk_matches_root_search
    seen = []

    def spy(c):
        seen.append(c)
        return _kostant_xsums(c)

    monkeypatch.setattr(identities, "_kostant_xsums", spy)
    sl_certificate(n, sl_window_pairs(n, w), K)
    assert seen
    for c in seen:
        assert sorted(_kostant_xsums(c)) == sorted(_kostant_by_roots(c, n)), c


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
                    kostant[c] = _kostant_by_roots(c, n)
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


MARGIN_POINTS = list(itertools.product(
    (1, 2, 3), (1, 2, 3), range(5))) + list(itertools.product(
    (1, 2), (1, 2, 3), (5, 6))) + list(itertools.product(
    (4,), (1, 2), range(3))) + [(5, 1, 0), (5, 1, 1)]


@pytest.mark.parametrize("n, w, K", MARGIN_POINTS)
def test_margin_certificate_matches_per_matrix_walk(n, w, K):
    # grouping the beta matrices by margins and the margins by rows - cols,
    # and counting every solution for every S in the budget, changes no
    # bound and no sum; at K = 6 the S of the support system reaches 3
    pairs = sl_window_pairs(n, w)
    assert sl_certificate(n, pairs, K) == _per_matrix_certificate(n, pairs, K)


@pytest.mark.parametrize("n, w, K", MARGIN_POINTS + [(3, 3, 6)])
def test_certificate_width_bounds_every_partial_sum(n, w, K, monkeypatch):
    # the class weights are nonnegative, so every coefficient the certificate
    # sums on its fibers' PackedQ, of a group's weight or of a partial fiber
    # sum, is at most in absolute value the matching coefficient of the
    # fiber with every S weight taken positive; that fiber, summed at a
    # width far beyond any coefficient, stays below 2^(B - 2).  At a small K
    # a fiber is mostly a count of Kostant solutions, so a bound without the
    # most solutions of any c fails here at n >= 3
    bounds = []

    class Recorded(PackedQ):
        def __init__(self, bound, cap):
            bounds.append(bound)
            super().__init__(bound, cap)

    class Wide(PackedQ):
        def __init__(self, bound, cap):
            super().__init__(bound << 256, cap)

    def unsigned(top, cap):
        first, middle, last = q_binomial_coeffs(top, cap)
        return first, middle, [QSeries(cap, map(abs, c.coeffs)) for c in last]

    products = []

    def recorded(varset, policy, factors, packing):
        products.append((packing, packed_product(varset, policy, factors,
                                                 packing)))
        return products[-1][1]

    q_binomial_coeffs = identities._q_binomial_coeffs
    packed_product = identities._packed_product
    pairs = sl_window_pairs(n, w)
    monkeypatch.setattr(identities, "PackedQ", Recorded)
    sl_certificate(n, pairs, K)
    monkeypatch.setattr(identities, "PackedQ", Wide)
    monkeypatch.setattr(identities, "_q_binomial_coeffs", unsigned)
    monkeypatch.setattr(identities, "_packed_product", recorded)
    _, _, fibers = sl_certificate(n, pairs, K)
    # the fibers' PackedQ is the certificate's last
    width = PackedQ(bounds[-1], K).width
    assert fibers
    assert all(0 <= c < 1 << width - 2
               for fiber in fibers.values() for c in fiber.coeffs), (n, w, K)
    # the class weights are summed per group on the product's PackedQ, the
    # certificate's first: the summed mass of every class weight, which
    # bounds every coefficient of a group's sum, stays below 2^(B - 2)
    (packing, classes), = products
    mass = sum(c for v in classes.values() for c in packing.unpack(v).coeffs)
    assert 0 < mass < 1 << PackedQ(bounds[0], K).width - 2, (n, w, K)


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
    assert full == mul_truncated(reduced, tower)
