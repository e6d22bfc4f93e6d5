r"""The identity verification engine.

Each variant names one numerical identity; both sides are built as maps
{monomial: coefficient} and compared exactly by ``first_difference``, whose
first differing monomial in canonical order is the failure witness:

* ``gl_qt``        -- the full (q, t) Cauchy kernel expansion,
* ``gl_t0``        -- its t = 0 specialization over all compositions,
* ``gl_slform``    -- the determinant-factored form summed over compositions
                      with a zero entry,
* ``sl_projected`` -- the image of gl_slform in the sl weight lattice on a
                      certified window,
* ``classical_q0`` -- the q = 0 limit (key polynomials vs Demazure atoms),
* ``iwahori_char`` -- the function-space character against the Macdonald sum,
* ``sl2_appendix`` -- the rank-one closed forms.

The sl projection sums fibers lam + k*1.  ``sl_certificate`` walks the
solutions of the kernel's support system once per class pair: they bound
the fiber index k, which fixes the certified gl box, and their weights sum
to the projected product side.  The Macdonald side sums every min-zero lam
up to that box, as E_lam(x) E_lam(y) has x- and y-degree |lam|;
``_sl_rhs_adaptive`` plans it in one pass, one entry per lam that passes
the cost test, and the packing width, the tables and the sums all read
those entries.

The q-series gl variants (gl_t0, gl_slform, iwahori_char, classical_q0)
and sl_projected build both sides on packed integers (``PackedQ``,
Kronecker substitution): a truncated q-series with integer coefficients
is one int with B bits per coefficient, a product of series one integer
product.  Packed arithmetic is a ring homomorphism onto the integers
modulo 2^{B (cap + 1)} that kills q^{cap + 1}, so intermediate values need
no bound; B = bound.bit_length() + 2 for a bound on every coefficient
unpacked or compared, from L1 masses (sum of |coefficient|):
``_product_bound`` on the gl product side, the largest fiber coefficient
on the sl product side, and ``_macdonald_bound`` on a Macdonald side and
on ch T (``characters``), the one summand A_D * E_lam(x) * E_lam(y), which
``_packed_macdonald_sum`` sums too.  Every side fixes B before it builds a
table, and takes its tables packed at B from the column program.  A gl
monomial x^a y^b is one integer code, the 2n exponents as digits
(``_code_bits``), on both sides: the product side drops a degree digit
with one shift, and the Macdonald side adds an x-code to a shifted y-code;
an sl class pair is the code of its two min-zero representatives
(``_window_hits`` keys a table weight w on the code of w - min(w) 1).
``verify_identity`` compares masked ints on these codes, and decodes a
code, and unpacks a value, only for the witness.  Every summand norm *
E_lam(x) * E_lam(y) of a Macdonald sum is accumulated by the one kernel
``_pair_product_series``, which sees only packed ints and gl_qt's exact
(q, t) scalars.
"""

from __future__ import annotations

import json
import math
import time
from itertools import accumulate
from typing import NamedTuple

from .exact import (ExactError, InvariantError, PackedQ, QSeries, QTPoly,
                    QTRational, inv_pochhammer_qq, invert_q, l1_mass,
                    qq_pochhammer_poly)
from .macdonald import (_exponents, _fillings_bound, _packed_column_terms,
                        _window_cost, e_atom_table, e_t0_table,
                        generic_engine, norm_a_q, norm_a_qt, packed_tables,
                        sl2_closed_forms, restrict_poly_terms)
from .affine import hw_algebra_char
from .series import (TruncatedSeries, TruncationPolicy, VariableSet,
                     first_difference, mul_truncated, render_scalar)
from .weights import (compositions_of_size, compositions_up_to,
                      min_zero_compositions_up_to, restrict_weight)

class VerificationReport:
    """The outcome of one identity check: ``witness`` names the first
    mismatch on failure; ``elapsed`` (seconds) stays out of the
    deterministic serializations."""

    __slots__ = ("variant", "n", "policy", "outcome", "witness",
                 "lambda_count", "elapsed")

    def __init__(self, variant, n, policy, outcome, witness=None,
                 lambda_count=0, elapsed=0.0):
        self.variant = variant
        self.n = n
        self.policy = policy
        self.outcome = outcome          # 'pass' | 'fail'
        self.witness = witness
        self.lambda_count = lambda_count
        self.elapsed = elapsed

    @property
    def passed(self):
        return self.outcome == "pass"

    def to_json(self):
        """Deterministic serialization (timing is reported separately)."""
        return json.dumps({
            "variant": self.variant, "n": self.n, "policy": self.policy,
            "outcome": self.outcome, "witness": self.witness,
            "lambda_count": self.lambda_count}, sort_keys=True)

    def text(self):
        lines = [f"identity : {self.variant}",
                 f"rank     : {self.n}",
                 f"policy   : {json.dumps(self.policy, sort_keys=True)}",
                 f"summands : {self.lambda_count}",
                 f"outcome  : {self.outcome}"]
        if self.witness is not None:
            lines.append(f"witness  : {json.dumps(self.witness, sort_keys=True)}")
        return "\n".join(lines)


def _mk_report(variant, n, policy_dict, diff, lam_count, t_start,
               packing=None):
    witness = {"monomial": list(diff[0]), **{
        side: "0" if c is None else render_scalar(
            c if packing is None else packing.unpack(c))
        for side, c in zip(("lhs", "rhs"), diff[1:])}} if diff else None
    return VerificationReport(variant, n, policy_dict,
                              "fail" if witness else "pass", witness,
                              lam_count, time.monotonic() - t_start)


# ---------------------------------------------------------------------------
# left-hand sides
# ---------------------------------------------------------------------------

def _graded_masses(varset, policy, factors):
    """[z^d] prod_f sum_k L1(cs_f[k]) z^{k g_f} for d <= G, where G is the
    smaller policy degree and g_f >= 1 the degree of mono_f, equal in both
    blocks: a bound on the summed L1 masses of ``_packed_product``'s
    coefficients at degree d.  A monomial of degree d has the coefficient
    sum_{(k_f)} prod_f cs_f[k_f] over the (k_f) with sum_f k_f g_f = d that
    give it, and distinct monomials take disjoint sets of (k_f); by the
    triangle inequality and L1(a b) <= L1(a) L1(b) their L1 masses add up
    to at most [z^d]."""
    top = min(policy.max_x_degree, policy.max_y_degree)
    graded = [1] + [0] * top
    for mono, cs in factors:
        g = varset.block_degrees(mono)[0]
        masses = [l1_mass(c.coeffs) for c in cs[: top // g + 1]]
        graded = [sum(masses[k] * graded[d - k * g]
                      for k in range(min(d // g + 1, len(masses))))
                  for d in range(top + 1)]
    return graded


def _product_bound(varset, policy, factors):
    """A bound on every coefficient of ``_packed_product``'s output: the
    largest of ``_graded_masses``."""
    return max(_graded_masses(varset, policy, factors))


def _code_bits(policy):
    """The digit width of the integer monomial codes of the q-series gl
    sides (see ``macdonald._exponents``): 2^(bits - 1) exceeds top =
    min(Dx, Dy), which bounds every exponent and degree of a term, and |lam|
    for every summand, as the column program needs."""
    return min(policy.max_x_degree, policy.max_y_degree).bit_length() + 1


def _packed_product(varset, policy, factors, packing):
    """The product of the factors sum_k cs[k] mono^k, given as (mono, cs)
    with integer QSeries cs[k], on packed q-series: {monomial code: masked
    int}, zero coefficients dropped, the code of x^a y^b holding the 2n
    exponents a, b as digits of ``_code_bits`` bits, the lowest first.

    Every mono has equal x- and y-degree, as x_i y_j and x_1..x_n y_1..y_n
    do, so every term has too, and the policy bounds both by one degree,
    top = min(Dx, Dy).  Each step multiplies every term e by the powers of
    one factor's monomial that keep e within it.  ``packing`` needs a
    bound on the output coefficients only (``_product_bound``)."""
    mask = packing.mask
    top = min(policy.max_x_degree, policy.max_y_degree)
    # while multiplying, a monomial's key holds its degree as a digit below
    # the exponents: a product of monomials is a sum of keys, and no digit
    # reaches 2^bits.  One shift drops the degree digit at the end.
    bits = _code_bits(policy)
    digit = (1 << bits) - 1

    def encode(exps):
        key = 0
        for d in reversed((varset.block_degrees(exps)[0],) + exps):
            key = (key << bits) + d
        return key

    terms = {0: 1}
    for mono, cs in factors:
        g = varset.block_degrees(mono)[0]
        step = encode(mono)
        packed = [packing.pack(c.coeffs) for c in cs]
        new = {}
        for key, v in terms.items():
            room = (top - (key & digit)) // g
            for p in packed[: room + 1]:
                if p:
                    new[key] = new.get(key, 0) + (v * p & mask)
                key += step
        terms = new
    return {key >> bits: m for key, v in terms.items() if (m := v & mask)}


def _q_binomial_coeffs(top, cap):
    """The coefficient lists, k <= top at q-cap ``cap``, of the integer
    factors in one monomial a that every packed product side reads:

        1 / (a; q)_oo   = sum_k a^k / (q; q)_k,
        1 / (q a; q)_oo = sum_k q^k a^k / (q; q)_k,
        (a; q)_oo       = sum_k (-1)^k q^{k(k-1)/2} a^k / (q; q)_k."""
    inv_poch = [inv_pochhammer_qq(k, cap) for k in range(top + 1)]
    return (inv_poch, [c.shift(k) for k, c in enumerate(inv_poch)],
            [c.shift(k * (k - 1) // 2) * (-1) ** k
             for k, c in enumerate(inv_poch)])


def _product_factors(variant, n, policy):
    r"""The factors (mono, cs) of the product side of the named identity.

    Every factor is a series in one monomial a = x_i y_j (or, for the
    determinant factor of gl_slform, a = x_1..x_n y_1..y_n), expanded in
    closed form by the q-binomial theorem (``_q_binomial_coeffs``; gl_qt
    uses (b a; q)_oo / (a; q)_oo = sum_k (b; q)_k a^k / (q; q)_k).
    A factor in q a rather than a (the pairs i > j) has its k-th
    coefficient shifted by q^k.  ``iwahori_char`` names the gl_slform
    product: the character of the functions on the Iwahori matrix space."""
    top = min(policy.max_x_degree, policy.max_y_degree)
    cap = policy.max_q_degree
    det = None
    if variant == "gl_qt":
        if cap is not None:
            raise ExactError("gl_qt works with exact coefficients; no q-cap")

        def ratios(first, shift):
            # (q^first t; q)_k q^(shift k) / (q; q)_k for k <= top
            out, num = [], QTPoly.one()
            for k in range(top + 1):
                out.append(QTRational(
                    num * QTPoly.term(1, shift * k, 0),
                    QTPoly.from_qpoly(qq_pochhammer_poly(k))))
                num = num * QTPoly.one_minus_qt(first + k, 1)
            return out
        # b = qt on the diagonal, b = t above it, and b = t in q a below it
        diag, upper, lower = ratios(1, 0), ratios(0, 0), ratios(0, 1)
    else:
        if cap is None:
            raise ExactError(f"variant {variant} needs a finite q-cap")
        if variant == "classical_q0":
            diag = upper = [QSeries.one(cap)] * (top + 1)
            lower = None    # no factor below the diagonal
        elif variant in ("gl_t0", "gl_slform", "iwahori_char"):
            upper, lower, det = _q_binomial_coeffs(top, cap)
            diag, det = upper, (None if variant == "gl_t0" else det)
        else:
            raise ExactError(f"no product side for variant {variant!r}")
    factors = []
    for i in range(n):
        for j in range(n):
            cs = diag if i == j else upper if i < j else lower
            if cs is not None:
                factors.append(
                    (tuple(int(k in (i, n + j)) for k in range(2 * n)), cs))
    if det is not None:
        factors.append(((1,) * (2 * n), det))
    return factors


def lhs_series(variant, n, policy):
    """The product side of the named identity, as a truncated series: the
    ``_product_factors`` multiplied by ``_packed_product`` and unpacked, or
    for ``gl_qt`` on exact (q, t) scalars by ``mul_truncated``."""
    varset = VariableSet.gl(n)
    factors = _product_factors(variant, n, policy)
    if variant != "gl_qt":
        packing = PackedQ(_product_bound(varset, policy, factors),
                          policy.max_q_degree)
        bits = _code_bits(policy)
        return TruncatedSeries(varset, policy, {
            _exponents(code, varset.size, bits): packing.unpack(v)
            for code, v in
            _packed_product(varset, policy, factors, packing).items()},
            _checked=True)
    result = TruncatedSeries.constant(varset, policy, QTRational.one())
    for mono, cs in factors:    # sum_k cs[k] mono^k, within the policy
        result = mul_truncated(result, TruncatedSeries(varset, policy, {
            tuple(k * e for e in mono): c for k, c in enumerate(cs)}))
    return result


# ---------------------------------------------------------------------------
# right-hand sides
# ---------------------------------------------------------------------------

def _pair_product_series(out, xterms, yterms, norm):
    """Add norm * E(x-part) * E(y-part) into the term dict ``out``, keyed on
    x-key + y-key, for any scalars that add and multiply."""
    for ex, cx in xterms.items():
        cxn = cx * norm
        for ey, cy in yterms.items():
            key = ex + ey
            prev = out.get(key)
            out[key] = cxn * cy if prev is None else prev + cxn * cy


def _macdonald_bound(summands):
    """A bound on every coefficient of ``_packed_macdonald_sum``'s sums:
    sum max_i L1(norms[i]) F^2 over the summands (norms, F), F = F(lam) of
    ``macdonald._fillings_bound``, which bounds the L1 mass of both of
    lam's tables at every cap and floor.  A key splits into one x- and one
    y-key, so no slot of a sum exceeds it.  F is read off lam's columns, so
    every caller fixes its width before it builds any table."""
    return sum(max(l1_mass(norm.coeffs) for norm in norms) * fills * fills
               for norms, fills in summands)


def _packed_macdonald_sum(summands, packing):
    """The sums over ``summands``, a list of (norms, x-table, y-table) with
    integer QSeries norms and tables of packed ints, of norms[i] * E(x) *
    E(y): one {x-key + y-key: masked int} per norm position, zero sums
    dropped ([] for no summands).

    Each norm is packed once, and every norm runs ``_pair_product_series``
    on the same packed tables, untruncated; ``packing`` needs a bound on
    the sums (``_macdonald_bound``)."""
    pack, mask = packing.pack, packing.mask
    sums = [{} for _ in summands[0][0]] if summands else []
    for norms, xs, ys in summands:
        for acc, norm in zip(sums, norms):
            _pair_product_series(acc, xs, ys, pack(norm.coeffs))
    return [{key: m for key, v in acc.items() if (m := v & mask)}
            for acc in sums]


def _rhs_lambdas(variant, n, policy):
    bound = min(policy.max_x_degree, policy.max_y_degree)
    if variant in ("gl_slform", "iwahori_char"):
        return sorted(min_zero_compositions_up_to(n, bound))
    return sorted(compositions_up_to(n, bound))


def _macdonald_side(variant, n, policy, bound=0):
    """(packing, sums, summand count) of a q-series gl variant's Macdonald
    side, one summand (norm,) * E(x) * E(y) per composition of
    ``_rhs_lambdas``: sums maps the monomial codes of ``_packed_product``
    to masked ints, zero sums dropped.

    The ``PackedQ`` is fixed before any table is built, at the larger of
    ``bound`` and ``_macdonald_bound`` with the masses F(lam) of
    ``_fillings_bound``, read off lam's columns.  The tables then come
    from the column program packed at its width (``packed_tables``),
    keyed on codes of ``_code_bits`` bits, the y-tables' shifted past the
    n x-digits, so that x-key + y-key is the code of x^a y^b.  The norms
    are the only values packed here."""
    lambdas = _rhs_lambdas(variant, n, policy)
    # classical_q0 sums the key polynomials E(x; 0, 0) and the Demazure
    # atoms E(x; oo, oo): the tables at cap 0, where every norm is 1
    tcap = 0 if variant == "classical_q0" else policy.max_q_degree
    norms = [(norm_a_q(lam, tcap),) for lam in lambdas]
    fills = [_fillings_bound(lam) for lam in lambdas]
    packing = PackedQ(max(bound, _macdonald_bound(zip(norms, fills))),
                      policy.max_q_degree)
    bits = _code_bits(policy)
    t0, atom = (packed_tables(lambdas, tcap, rule, packing.width, bits)
                for rule in ("t0", "atom"))
    shift = bits * n
    sums, = _packed_macdonald_sum([
        (norm, t0[lam], {code << shift: v for code, v in atom[lam].items()})
        for norm, lam in zip(norms, lambdas)], packing)
    return packing, sums, len(lambdas)


def rhs_series(variant, n, policy):
    """The Macdonald-polynomial side: sum over compositions of
    norm * E(x) * E(y) at the variant's parameter points.

    E_lam has degree |lam| <= min(Dx, Dy), so every summand lies within the
    policy; the terms of all summands go into one dict.  The q-series
    variants sum on packed ints (``_macdonald_side``) and unpack; ``gl_qt``
    sums exact (q, t) scalars by the same kernel, ``_pair_product_series``."""
    if variant == "gl_qt":
        terms = {}
        eng = generic_engine(n)
        for lam in _rhs_lambdas(variant, n, policy):
            xt = eng.get(lam)
            yt = {e: invert_q(c, invert_t=True) for e, c in xt.items()}
            _pair_product_series(terms, xt, yt, norm_a_qt(lam))
    elif variant in ("gl_t0", "gl_slform", "iwahori_char", "classical_q0"):
        packing, sums, _ = _macdonald_side(variant, n, policy)
        bits = _code_bits(policy)
        terms = {_exponents(code, 2 * n, bits): packing.unpack(v)
                 for code, v in sums.items()}
    else:
        raise ExactError(f"no Macdonald side for variant {variant!r}")
    return TruncatedSeries(VariableSet.gl(n), policy, terms, _checked=True)


# ---------------------------------------------------------------------------
# the sl projection: windows, certificates, fiber sums
# ---------------------------------------------------------------------------

def sl_window_pairs(n, max_deg):
    """All sl class pairs reachable from gl monomials x^lam y^mu with
    |lam| = |mu| <= max_deg, as pairs of canonical representatives."""
    reps = sorted(min_zero_compositions_up_to(n, max_deg))
    pairs = []
    for a in reps:
        for b in reps:
            if (sum(a) - sum(b)) % n == 0:
                pairs.append((a, b))
    return pairs


def _kostant_xsums(c):
    """The x-side sums (sum_j m_{ij})_i of the nonnegative solutions {m_{ij}}
    of sum m_{ij} (e_i - e_j) = c, i < j, one tuple per solution; c sums to 0.

    Row i's equation says its sum is c_i plus its column sum, what the rows
    above put into column i.  So the walk fills m row by row: row i passes
    that sum on to columns i + 1, ..., n - 1 in every way, and a branch ends
    where a row's sum would be negative.  The last row's sum is sum(c) = 0,
    so every leaf is a solution."""
    n = len(c)
    sols = []

    def rows(i, cols, xsums):
        if i == n - 1:
            sols.append(xsums + (0,))
            return
        s = c[i] + cols[0]
        if s < 0:
            return
        for part in compositions_of_size(n - 1 - i, s):
            rows(i + 1, tuple(map(int.__add__, cols[1:], part)), xsums + (s,))

    rows(0, (0,) * n, ())
    return sols


class SlCertificate(NamedTuple):
    """What ``sl_certificate`` certifies for a window."""
    kmax: dict      # class pair -> largest fiber index k, on the x-side
    box: int        # D, the box degree in both blocks, as k fixes l
    fibers: dict    # class pair with a solution -> its fiber sum (QSeries)


def sl_certificate(n, pairs, K):
    """Per class pair, the largest fiber index k of any potential kernel
    contributor x^{a + k 1} y^{b + k 1} q^{<= K}, from the support system

        nu + sum m_{ij} e_i + sum beta_{rs} e_r + S*1 = a + k*1   (x side)
        nu + sum m_{ij} e_j + sum beta_{rs} e_s + S*1 = b + k*1   (y side)

    with nu a min-0 composition, m, beta >= 0, and q-cost
    sum(beta) + S(S+1)/2 <= K.  The y-side shift l is tied to the x-side
    shift k by n(k - l) = |b| - |a| (the kernel is balanced), so one index
    suffices.

    Eliminating nu leaves the Kostant system sum m_{ij} (e_i - e_j) = c,
    c = a - b + (|b| - |a|)/n * 1 - d, d = rows - cols, and k = t + S with
    t the largest entry of m's x-side sums mx + rows - a.  c sees beta only
    through d, so per pair the walk forms c once per group of margin
    classes with one d; ``_kostant_xsums`` solves each distinct c once, and
    the dict keeps N(c), the number of solutions, and M, the entrywise
    maximum of their x-side sums.  Every solution counts for every S in the
    budget: nu = a + t 1 - mx - rows >= 0 makes the y side b + l 1 = nu +
    my + cols + S 1 >= 0 (mx - my = c), and a and b are min-zero, so k >= 0
    and l >= 0.  So a group's largest k is the largest entry of M - a + R,
    R the entrywise maximum over its classes of rows + S_s, S_s the largest
    S in the budget at entry sum s.

    It also sums the solutions' coefficients in the gl_slform product,
    which are exactly the fiber sums project_to_sl would take over the full
    box.  The system reads the product in the factorization

        [sum_{min nu = 0} (xy)^nu] * prod_{i<j} 1 / (1 - x_i y_j)
          * prod_{i,j} 1 / (q x_i y_j; q)_oo * (q x_1..x_n y_1..y_n; q)_oo,

    with nu, m, beta and S the exponents of its four factors.  The class
    weights are the coefficients of the third, keyed on (rows, cols), from
    one ``_packed_product`` call on the n^2 monomials x_i y_j: a class of
    entry sum s has q-valuation s and leading coefficient 1, so the policy
    (K, K) drops exactly the classes that vanish modulo q^{K+1}.  S weighs
    p_S = (-1)^S q^{S(S+1)/2} / (q; q)_S, the (a; q)_oo coefficient times
    q^S.  So a group weighs H_d = sum_class w (p_0 + ... + p_{S_s}), and
    a pair's fiber is sum_d N(c) H_d, one packed multiply-add per group.

    The class weights are summed per (d, S_s) on the product's packed
    ints, and each sum is unpacked once.  Their coefficients are
    nonnegative, so every coefficient of such a sum is at most the summed
    L1 mass of all classes, ``mass``, and that is at most sum_{d <= K} of
    ``_graded_masses``: the product's ``PackedQ`` is fixed at that total,
    so no slot of a sum carries.

    c is an integer code, digits of B bits biased by 2^(B-1): the pair's
    biased code minus the plain code of d.  |c_i| <= 2 W + K < 2^(B-1), W
    the largest class degree, so no digit borrows.  The fibers' bound is
    N_max * sum_S L1(p_S) * mass, N_max the largest N(c) met; as a
    product's coefficients are at most the product of its factors' L1
    masses, it bounds every H_d and every partial fiber sum.  So the walk
    keeps each pair's (N(c), d), and the fibers are summed after it."""
    _, cells, det = _q_binomial_coeffs(K, K)
    poch_w = [c.shift(S) for S, c in enumerate(det) if S * (S + 1) // 2 <= K]
    varset, policy = VariableSet.gl(n), TruncationPolicy(K, K, K)
    factors = [(tuple(int(k in (i, n + j)) for k in range(2 * n)), cells)
               for i in range(n) for j in range(n)]
    weights = PackedQ(sum(_graded_masses(varset, policy, factors)), K)
    bits = _code_bits(policy)
    # S_s of a class of entry sum s
    last_s = [max(S for S in range(len(poch_w)) if s + S * (S + 1) // 2 <= K)
              for s in range(K + 1)]
    W = max((max(sum(a), sum(b)) for a, b in pairs), default=0)
    B = (2 * W + K).bit_length() + 1
    half, digit = 1 << (B - 1), (1 << B) - 1
    groups = {}     # d code -> (R, {S_s: summed class weights})
    for code, w in _packed_product(varset, policy, factors, weights).items():
        exps = _exponents(code, 2 * n, bits)
        rows, s = exps[:n], sum(exps[:n])
        reach, by_s = groups.setdefault(
            sum(rows[i] - exps[n + i] << B * i for i in range(n)),
            ([0] * n, {}))
        reach[:] = map(max, reach, (r + last_s[s] for r in rows))
        by_s[last_s[s]] = by_s.get(last_s[s], 0) + w
    mass = 0
    for _, by_s in groups.values():
        for S, w in by_s.items():
            by_s[S] = coeffs = weights.unpack(w).coeffs
            mass += sum(coeffs)
    kostant = {}    # c code -> (N(c), M), or () when c has no solution
    kmax = {pair: -1 for pair in pairs}
    found = []      # (pair, [(N(c), d code) of each group with a solution])
    for pair in pairs:
        a, b = pair
        if min(a) or min(b):
            raise ExactError(f"class pair {pair} is not min-zero")
        off, rem = divmod(sum(b) - sum(a), n)
        if rem:
            continue
        base = sum(a[i] - b[i] + off + half << B * i for i in range(n))
        best = -1
        hits = []
        for dcode, (reach, _) in groups.items():
            key = base - dcode
            entry = kostant.get(key)
            if entry is None:
                sols = _kostant_xsums(tuple(
                    (key >> B * i & digit) - half for i in range(n)))
                entry = kostant[key] = (
                    (len(sols), tuple(map(max, zip(*sols)))) if sols else ())
            if entry:
                count, xmax = entry
                hits.append((count, dcode))
                best = max(best, max(map(int.__sub__,
                                         map(int.__add__, xmax, reach), a)))
        kmax[pair] = best
        if hits:
            found.append((pair, hits))
    most = max((count for _, hits in found for count, _ in hits), default=0)
    packing = PackedQ(most * sum(l1_mass(pw.coeffs) for pw in poch_w) * mass,
                      K)
    # p_0 + ... + p_S, packed
    upto = list(accumulate(packing.pack(pw.coeffs) for pw in poch_w))
    group_w = {dcode: sum(packing.pack(acc) * upto[S]
                          for S, acc in by_s.items()) & packing.mask
               for dcode, (_, by_s) in groups.items()}
    fibers = {pair: packing.unpack(sum(count * group_w[dcode]
                                       for count, dcode in hits))
              for pair, hits in found}
    D = max((sum(a) + n * k for (a, b), k in kmax.items() if k >= 0),
            default=0)
    return SlCertificate(kmax, D, fibers)


def project_to_sl(f, pairs, kmax, K):
    """Fiber sums of a gl series over the window class pairs, keyed on sl
    classes, zero sums dropped, truncated at twice the window's largest gl
    degree and q-cap K: the test oracle of ``_sl_lhs_window``.

    Each pair is two min-zero class representatives (two pairs keyed on one
    sl class would overwrite each other); raises ExactError otherwise.
    Requires the series box to contain every certified fiber contributor;
    raises otherwise ('window exceeds certified bound')."""
    n = f.varset.nx
    by_pair = {}
    for (a, b) in pairs:
        if min(a) != 0 or min(b) != 0:
            raise ExactError(f"class pair {(a, b)} is not min-zero")
        k = kmax.get((a, b), -1)
        if k < 0:
            continue
        off = (sum(b) - sum(a)) // n
        if sum(a) + n * k > min(f.policy.max_x_degree, f.policy.max_y_degree):
            raise InvariantError("window exceeds certified bound")
        for kk in range(max(0, off), k + 1):
            exps = tuple(x + kk for x in a) + tuple(y + kk - off for y in b)
            c = f.terms.get(exps)
            if c is not None:
                prev = by_pair.get((a, b))
                by_pair[(a, b)] = c if prev is None else prev + c
    wdeg = max((max(sum(a), sum(b)) for a, b in pairs), default=0)
    return TruncatedSeries(VariableSet.sl(n),
                           TruncationPolicy(2 * wdeg, 2 * wdeg, K), {
                               restrict_weight(a) + restrict_weight(b): c
                               for (a, b), c in by_pair.items()
                               if not c.is_zero}, _checked=True)


def _sl_lhs_window(fibers, packing, bits):
    """Projected gl_slform product side: {class-pair code: masked int} of
    the fiber sums {class pair: QSeries} of ``sl_certificate``, zero sums
    dropped.  The pair (a, b) of min-zero representatives is coded as the
    keys of ``_sl_rhs_adaptive``: the 2n entries as digits of ``bits``
    bits, the lowest first, so no two pairs share a key."""
    out = {sum(e << bits * i for i, e in enumerate(a + b)):
           packing.pack(c.coeffs) & packing.mask
           for (a, b), c in fibers.items()}
    return {key: v for key, v in out.items() if v}


def _window_hits(lam, cap, rule, floor, packing, bits, shift=0):
    """{class code << shift: packed series} of lam's table of ``rule`` at
    ``cap``, pruned to ``floor`` by the column program at the slot width of
    ``packing`` and the code width ``bits``.  A weight w is keyed on the
    code of its sl class w - min(w) 1, injective on the weights of degree
    |lam|; with the window's floor every hit is a window class.  A count is
    below 2^(width - 2), so a negative coefficient sets the top bit of the
    lowest negative slot: one ``& packing.bias`` checks a series."""
    n = len(lam)
    ones = sum(1 << bits * v for v in range(n))
    hits = {}
    for code, v in _packed_column_terms(lam, cap, rule, floor,
                                        packing.width, bits).items():
        if v & packing.bias:
            raise InvariantError(
                f"negative {rule} coefficient; positivity broken")
        hits[code - min(_exponents(code, n, bits)) * ones << shift] = v
    return hits


class _SlEntry(NamedTuple):
    """The plan of one lam of the sl Macdonald side (``_sl_rhs_adaptive``)."""
    lam: tuple
    floor: int          # F, the weight floor of the window classes
    cost_y: int         # c_y; K - c_y caps the t = 0 table
    norms: tuple = ()   # (arm/leg norm, highest-weight-algebra norm)
    fills: int = 0      # F(lam) of ``_fillings_bound``


def _sl_budget(lam, K, W):
    """The cost test of lam on the window of degree W under the q-budget K:
    lam's entry (lam, F, c_y), or None when lam adds nothing to the sums
    modulo q^{K+1}.

    The window classes are the min-zero w - min(w)*1 of degree <= W, and
    every weight of either table has |w| = |lam|, so w is in a window class
    iff min(w) >= F = ceil((|lam| - W) / n), n = len(lam): both tables are
    built with the floor F.  Every monomial with min(w) >= F of the t = 0
    table has q-valuation at least c_x = ``_window_cost(lam, F, "t0")``,
    and every one of the atom table at least c_y, its mirror.  A norm has
    no negative q-power, so when c_x + c_y > K every product of an x- and
    a y-term vanishes modulo q^{K+1}, and lam is skipped."""
    floor = -((W - sum(lam)) // len(lam))
    cost_y = _window_cost(lam, floor, "atom")
    if _window_cost(lam, floor, "t0") + cost_y > K:
        return None
    return _SlEntry(lam, floor, cost_y)


def _sl_budget_hits(entry, K, packing, bits):
    """(x hits, y hits) of the tables E_lam(x; q, 0) and E_lam(y; q^{-1},
    oo) of lam's entry (lam, F, c_y), pruned to the floor F and built under
    one q-budget K for both, or None when lam adds nothing to the sums
    modulo q^{K+1}.  The hits are keyed on class codes (``_window_hits``),
    the y hits' shifted past n = len(lam) digits.

    An x-term of degree above K - c_y meets only y-terms of degree >= c_y
    (``_sl_budget``), and their product vanishes modulo q^{K+1}: the t = 0
    table is built at cap K - c_y.  With e_x the least q-exponent among its
    hits, read off the lowest set bit of its packed series, the same
    argument with the roles swapped builds the atom table at cap K - e_x;
    that cap is at least c_y, as e_x <= K - c_y, so lam is skipped at this
    step only when the t = 0 table has no hit.  Every summand norm * E(x) *
    E(y) is unchanged modulo q^{K+1}; coefficients above the lowered caps
    are not computed, and every computed one is checked nonnegative."""
    lam, floor = entry.lam, entry.floor
    xhits = _window_hits(lam, K - entry.cost_y, "t0", floor, packing, bits)
    if not xhits:
        return None
    low = (min(v & -v for v in xhits.values()).bit_length() - 1
           ) // packing.width
    yhits = _window_hits(lam, K - low, "atom", floor, packing, bits,
                         bits * len(lam))
    return (xhits, yhits) if yhits else None


def _sl_lambdas(n, K, W, box):
    """The plan entries (``_sl_budget``) of the min-zero lam of n parts with
    |lam| <= box that pass the cost test at budget K and window degree W,
    sorted: a walk over the parts of each size s that prunes on the cost.

    At size s the floor F = ceil((s - W) / n) is fixed, and n F > s leaves
    no weight (the cost is infinite), so that size is skipped.  Otherwise,
    with P_m the sum of lam's first m parts, the costs of
    ``_window_cost`` are c_y = max(0, max_m (m F - P_m)) (atom) and c_x =
    max(0, max_m (m F - s + P_{n-m})) (t = 0), m = 1, ..., n: a suffix
    sum is s minus a prefix sum.  The walk sets lam's parts one at a
    time and carries the maxima over the prefix sums it knows.  Each is a
    lower bound of its final value, so a branch whose partial c_x + c_y
    exceeds K holds no lam that passes, and is cut.  The last part is s
    minus the others, and every leaf is a min-zero lam that goes through
    ``_sl_budget`` itself, the exact test, once."""
    kept = []
    lam = [0] * n

    def walk(j, prefix, cx, cy, zero):
        # lam[:j] is set, with sum prefix; cx and cy hold the terms of
        # P_0, ..., P_j
        if j == n - 1:
            lam[j] = s - prefix
            if zero or not lam[j]:
                entry = _sl_budget(tuple(lam), K, W)
                if entry:
                    kept.append(entry)
            return
        # P_{j+1} = p brings c_y's term (j + 1) F - p, which needs p >= (j +
        # 1) F - K + cx, and c_x's term (n - j - 1) F - s + p, which grows
        # with p; the two terms add up to n F - s <= 0, so the new sum is
        # within K once each term is within K less the other old maximum
        for p in range(max(prefix, (j + 1) * floor - K + cx), s + 1):
            x = max(cx, (n - j - 1) * floor - s + p)
            if x + cy > K:
                break
            lam[j] = p - prefix
            walk(j + 1, p, x, max(cy, (j + 1) * floor - p),
                 zero or p == prefix)

    for s in range(box + 1):
        floor = -((W - s) // n)
        if n * floor <= s:
            walk(0, 0, 0, 0, False)
    kept.sort()
    return kept


class SlMacdonaldSide(NamedTuple):
    """``_sl_rhs_adaptive``'s sums {class-pair code: nonzero masked int}."""
    by_a: dict          # with the arm/leg norm
    by_h: dict          # with the highest-weight-algebra norm
    lambda_count: int
    packing: PackedQ
    bits: int


def _sl_rhs_adaptive(n, pairs, K, box, bound=0):
    """The sl Macdonald side on the window: every min-zero lam with
    |lam| <= box summed once, with both norms, on packed ints.

    lam reaches the window class pair (a, b) through the monomials of
    E_lam(x; q, 0) and E_lam(y; q^{-1}, oo) whose classes are a and b.  The
    side is planned in one pass: the walk ``_sl_lambdas`` runs the cost
    test once per lam and keeps an entry (lam, F, c_y) of each lam that
    passes; both norms, checked nonnegative, and F(lam) are filled in on
    each entry; the ``PackedQ`` is fixed from the entries, at the larger of
    ``bound`` and ``_macdonald_bound``; then ``_sl_budget_hits`` builds
    each entry's tables.  The tracer of ``perfbench/spans.py`` looks the
    function up by its name, which is kept although nothing adapts.

    Codes have ``bits`` bits, 2^(bits - 1) > box.  A key of the sums is
    the code of a class pair, as in ``_sl_lhs_window``.  Nothing is
    filtered a second time: a monomial e of E_lam has |e| = |lam|, so its
    class e - min(e) 1 has degree |lam| - n min(e), congruent to |lam| mod
    n on both sides; with the floor every hit is a window class, and
    ``pairs`` (``sl_window_pairs(n, W)``) holds every pair of window
    classes whose degrees agree mod n."""
    W = max((sum(a) for a, _ in pairs), default=0)
    plan = []
    for entry in _sl_lambdas(n, K, W, box):
        lam = entry.lam
        norms = norm_a_q(lam, K), hw_algebra_char(lam, "D").qseries(K)
        if not all(norm.is_nonnegative() for norm in norms):
            raise InvariantError("negative norm coefficient; positivity broken")
        plan.append(entry._replace(norms=norms, fills=_fillings_bound(lam)))
    packing = PackedQ(max(bound, _macdonald_bound(
        (entry.norms, entry.fills) for entry in plan)), K)
    bits = box.bit_length() + 1
    summands = [(entry.norms,) + hits for entry in plan
                if (hits := _sl_budget_hits(entry, K, packing, bits))]
    by_a, by_h = _packed_macdonald_sum(summands, packing) or ({}, {})
    # every min-zero lam up to the box, summed or skipped: the compositions
    # with sum <= box less those with no zero part (each part less 1)
    count = math.comb(box + n, n) - math.comb(box, n)
    return SlMacdonaldSide(by_a, by_h, count, packing, bits)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def verify_identity(variant, n, policy):
    """Build both sides of the named identity and compare their term maps
    by ``first_difference``; an absent witness value reads 0.

    sl_projected compares ``_sl_lhs_window`` with the arm/leg-norm sums of
    ``_sl_rhs_adaptive``, then those with its other sums, on the one
    ``PackedQ`` that ``_sl_rhs_adaptive`` fixes at the larger of the
    fibers' largest |coefficient| and its own bound.  The q-series gl
    variants pack both sides with one ``PackedQ``, fixed by
    ``_macdonald_side`` before any table is built at the larger of
    ``_product_bound`` and its own bound.  Both compare masked ints on
    integer codes; ``first_difference`` decodes a code only where the
    sides differ, and only the witness's two values are unpacked."""
    t_start = time.monotonic()
    policy_dict = {"max_x_degree": policy.max_x_degree,
                   "max_y_degree": policy.max_y_degree,
                   "max_q_degree": policy.max_q_degree}

    if variant == "sl_projected":
        w = min(policy.max_x_degree, policy.max_y_degree)
        K = policy.max_q_degree
        pairs = sl_window_pairs(n, w)
        cert = sl_certificate(n, pairs, K)
        policy_dict["window_degree"] = w
        policy_dict["certified_box"] = [cert.box, cert.box]
        side = _sl_rhs_adaptive(n, pairs, K, cert.box, max(
            (abs(c) for fiber in cert.fibers.values() for c in fiber.coeffs),
            default=0))
        p_lhs = _sl_lhs_window(cert.fibers, side.packing, side.bits)

        def decode(code):
            exps = _exponents(code, 2 * n, side.bits)
            return restrict_weight(exps[:n]) + restrict_weight(exps[n:])
        varset = VariableSet.sl(n)
        diff = (first_difference(varset, p_lhs, side.by_a, decode)
                or first_difference(varset, side.by_a, side.by_h, decode))
        return _mk_report(variant, n, policy_dict, diff, side.lambda_count,
                          t_start, side.packing)

    if variant == "sl2_appendix":
        return verify_sl2_appendix(
            (-policy.max_x_degree, policy.max_x_degree),
            policy.max_q_degree)

    varset = VariableSet.gl(n)
    if variant == "gl_qt":
        lhs = lhs_series(variant, n, policy)
        rhs = rhs_series(variant, n, policy)
        lhs._compat(rhs)
        diff = first_difference(varset, lhs.terms, rhs.terms)
        return _mk_report(variant, n, policy_dict, diff,
                          len(_rhs_lambdas(variant, n, policy)), t_start)
    factors = _product_factors(variant, n, policy)
    packing, rhs, count = _macdonald_side(
        variant, n, policy, _product_bound(varset, policy, factors))
    lhs = _packed_product(varset, policy, factors, packing)
    bits = _code_bits(policy)
    diff = first_difference(
        varset, lhs, rhs, lambda code: _exponents(code, varset.size, bits))
    return _mk_report(variant, n, policy_dict, diff, count, t_start, packing)


def _nonzero_series(terms, K):
    """{key: QPoly} -> {key: QSeries} at cap K, without the zero series."""
    out = {e: QSeries.from_qpoly(c, K) for e, c in terms.items()}
    return {e: c for e, c in out.items() if not c.is_zero}


def verify_sl2_appendix(lam_range, K):
    """Computed rank-one specializations against the Rogers-Szego closed
    forms, for every sl_2 weight in the (inclusive) range."""
    t_start = time.monotonic()
    lo, hi = lam_range
    lams = [(w, 0) if w > 0 else (0, -w) for w in range(lo, hi + 1)]
    t0 = e_t0_table(lams, K)
    atom = e_atom_table(lams, K)
    count = 0
    witness = None
    for w, lam in zip(range(lo, hi + 1), lams):
        cf_t0, cf_atom, cf_norm = sl2_closed_forms(w, K)
        got_t0 = {e[0]: c for e, c in restrict_poly_terms(t0[lam]).items()}
        got_atom = {e[0]: c for e, c in restrict_poly_terms(atom[lam]).items()}
        got_norm = norm_a_q(lam, K)
        # the tables drop coefficients that vanish modulo q^(K+1)
        cf_t0 = _nonzero_series(cf_t0, K)
        cf_atom = _nonzero_series(cf_atom, K)
        for name, got, want in (("E_t0", got_t0, cf_t0),
                                ("E_qinv_tinf", got_atom, cf_atom),
                                ("a_q", {0: got_norm}, {0: cf_norm})):
            if got != want and witness is None:
                witness = {"weight": w, "quantity": name,
                           "computed": {str(k): render_scalar(v)
                                        for k, v in sorted(got.items())},
                           "closed_form": {str(k): render_scalar(v)
                                           for k, v in sorted(want.items())}}
        count += 1
    outcome = "pass" if witness is None else "fail"
    return VerificationReport("sl2_appendix", 2,
                              {"range": [lo, hi], "max_q_degree": K},
                              outcome, witness, count,
                              time.monotonic() - t_start)
