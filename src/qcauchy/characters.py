r"""Character-level model of the graded modules over the Iwahori algebra.

Characters are carried as truncated series in the sl Laurent variables
(X-basis, Y-basis) or the gl variables (x, y) with q-series coefficients:

* kind 'D'   -- the t = 0 specialization E_lam(X; q, 0),
* kind 'Uo'  -- the (q^{-1}, oo) specialization E_lam(Y; q^{-1}, oo),
* kind 'A_D', 'A_U' -- Hilbert series of the highest-weight algebras,
* kind 'T'   -- the product ch(A_D) * ch(D) * ch(Uo), one Macdonald
                summand with the A_D series as its norm, summed on
                ``PackedQ`` integers by ``identities._packed_macdonald_sum``
                from its t = 0 table packed by the column program and its
                atom table, which it packs itself.  The program runs on
                lam itself: the gl sides run it once per S_n orbit and
                walk to each member (``macdonald.packed_tables``), which
                for one lam would cost a representative's run and the
                steps besides.

The function-space character of the Iwahori subgroup is the product

    (x_1..x_n y_1..y_n; q)_oo  *  prod_{i<=j} 1/(1 - x_i y_j)
                               *  prod_{i,j}  1/(q x_i y_j; q)_oo,

the product side of the gl_slform identity: ``lhs_series("iwahori_char",
n, policy)`` in ``identities``.
"""

from __future__ import annotations

import time

from .exact import ExactError, PackedQ
from .macdonald import (_compositions, _exponents, _fillings_bound,
                        _packed_column_terms, e_atom_table, e_t0_table,
                        restrict_poly_terms)
from .affine import (HwAlgebraChar, char_l, hw_algebra_char,
                     hw_algebra_char_gl)
from .identities import (VerificationReport, _macdonald_bound,
                         _packed_macdonald_sum)
from .series import TruncatedSeries, VariableSet
from .weights import antidominant_data


def _embed_terms(terms, nvars, offset, restrict):
    """Exponent-keyed QSeries terms -> series terms over the chosen
    variable block, optionally pushed through the gl -> sl restriction."""
    if restrict:
        terms = restrict_poly_terms(terms)
    return {(0,) * offset + tuple(e) + (0,) * (nvars - offset - len(e)): c
            for e, c in terms.items()}


def char_module(kind, lam, policy, lattice="sl"):
    """Graded character of the module of the given kind at weight lam.

    ``lam`` is a gl integer vector (a composition for the kinds D, Uo and
    T); for ``lattice='sl'`` only its class matters and the series lives
    in the X/Y Laurent variables, while ``lattice='gl'`` keeps the
    composition and multiplies the algebra characters by the extra factor
    1/(q; q)_{min entry}.
    """
    lam = tuple(int(e) for e in lam)
    n = len(lam)
    cap = policy.max_q_degree
    if cap is None:
        raise ExactError("character computations need a finite q-cap")
    if lattice == "sl":
        varset = VariableSet.sl(n)
        restrict = True
    elif lattice == "gl":
        varset = VariableSet.gl(n)
        restrict = False
        if min(lam) < 0:
            raise ExactError("gl characters need a composition")
    else:
        raise ExactError(f"unknown lattice {lattice!r}")
    nv = varset.size

    def algebra_series(mode):
        if lattice == "gl":
            return hw_algebra_char_gl(lam, mode, cap)
        return hw_algebra_char(lam, mode).qseries(cap)

    if kind in ("A_D", "A_U"):
        return TruncatedSeries.constant(varset, policy,
                                        algebra_series(kind[-1]))
    if kind in ("D", "Uo"):
        table, offset = ((e_t0_table, 0) if kind == "D"
                         else (e_atom_table, varset.nx))
        terms = _embed_terms(table([lam], cap)[lam], nv, offset, restrict)
        return TruncatedSeries(varset, policy, terms)
    if kind == "T":
        # the blocks are disjoint: a product term is within the policy iff
        # both factors are, so a factor whose block degree (the sum of
        # |exponent|) is over its block's cap is dropped before multiplying;
        # every key of the sum is then an in-policy x-key joined to an
        # in-policy y-key, and the kernel drops the zero sums
        # the slot width is fixed first, from lam's columns; the t = 0
        # table then comes packed at it from the column program, run on
        # lam itself: packed_tables would run it on lam's orbit
        # representative and walk to lam, which costs more for one lam.
        # The atom table comes from e_atom_table: perfbench/tests expects
        # its small request set, where this is the one atom table, to reach
        # atom_terms
        norms = (algebra_series("D"),)
        fills = _fillings_bound(lam)
        packing = PackedQ(_macdonald_bound([(norms, fills)]), cap)
        bits = sum(lam).bit_length() + 1
        lam, = _compositions([lam])
        t0 = {_exponents(code, n, bits): v for code, v in _packed_column_terms(
            lam, cap, "t0", 0, packing.width, bits).items()}
        atom = {e: packing.pack(c.coeffs)
                for e, c in e_atom_table([lam], cap)[lam].items()}
        if restrict:
            t0, atom = restrict_poly_terms(t0), restrict_poly_terms(atom)
        xs = {e: c for e, c in t0.items()
              if sum(map(abs, e)) <= policy.max_x_degree}
        ys = {e: c for e, c in atom.items()
              if sum(map(abs, e)) <= policy.max_y_degree}
        sums, = _packed_macdonald_sum([(norms, xs, ys)], packing)
        return TruncatedSeries(varset, policy, {
            e: packing.unpack(v) for e, v in sums.items()}, _checked=True)
    raise ExactError(f"unknown module kind {kind!r}")


def ch_weyl_ratio_check(lam, m, word):
    """Consistency of the two descriptions of the graded character ratio of
    global to local Weyl modules with characteristics: the polynomial-algebra
    degrees against the degrees 1, ..., l_{alpha_j, m} of the literal beta
    counts ``char_l`` for the supplied word.

    Returns a VerificationReport (variant 'weyl_ratio')."""
    t0 = time.monotonic()
    lam = tuple(int(e) for e in lam)
    n = len(lam)
    lam_minus, _ = antidominant_data(lam)
    by_formula = hw_algebra_char(lam, "at_m", m=m, word=word)
    by_count = HwAlgebraChar([
        d for j in range(1, n)
        for d in range(1, char_l(lam_minus, word, (j, j + 1), m) + 1)])
    ok = by_formula == by_count
    witness = None if ok else {
        "formula": list(by_formula.generator_degrees),
        "count": list(by_count.generator_degrees)}
    return VerificationReport(
        variant="weyl_ratio", n=n,
        policy={"lam": list(lam), "m": m},
        outcome="pass" if ok else "fail",
        witness=witness, lambda_count=1,
        elapsed=time.monotonic() - t0)
