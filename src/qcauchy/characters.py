r"""Character-level model of the graded modules over the Iwahori algebra.

Characters are carried as truncated series in the sl Laurent variables
(X-basis, Y-basis) or the gl variables (x, y) with q-series coefficients:

* kind 'D'   -- the t = 0 specialization E_lam(X; q, 0),
* kind 'Uo'  -- the (q^{-1}, oo) specialization E_lam(Y; q^{-1}, oo),
* kind 'A_D', 'A_U' -- Hilbert series of the highest-weight algebras,
* kind 'T'   -- the product ch(A_D) * ch(D) * ch(Uo).

The function-space character of the Iwahori subgroup is the product

    (x_1..x_n y_1..y_n; q)_oo  *  prod_{i<=j} 1/(1 - x_i y_j)
                               *  prod_{i,j}  1/(q x_i y_j; q)_oo,

the product side of the gl_slform identity: ``lhs_series("iwahori_char",
n, policy)`` in ``identities``.
"""

from __future__ import annotations

from .exact import ExactError
from .macdonald import e_atom_table, e_t0_table
from .affine import beta_sequence, hw_algebra_char, hw_algebra_char_gl
from .identities import VerificationReport
from .series import TruncatedSeries, VariableSet, mul_truncated
from .weights import antidominant_data, restrict_weight


def _require_cap(policy):
    if policy.max_q_degree is None:
        raise ExactError("character computations need a finite q-cap")
    return policy.max_q_degree


def _embed_terms(terms, nvars, offset, restrict):
    """Exponent-keyed QSeries terms -> series terms over the chosen
    variable block, optionally pushed through the gl -> sl restriction."""
    out = {}
    for exps, c in terms.items():
        if restrict:
            exps = restrict_weight(exps)
        key = (0,) * offset + tuple(exps) + (0,) * (nvars - offset - len(exps))
        if key in out:
            out[key] = out[key] + c
        else:
            out[key] = c
    return out


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
    cap = _require_cap(policy)
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
    if kind == "D":
        terms = _embed_terms(e_t0_table(n, [lam], cap)[lam], nv, 0, restrict)
        return TruncatedSeries(varset, policy, terms)
    if kind == "Uo":
        terms = _embed_terms(e_atom_table(n, [lam], cap)[lam], nv, varset.nx,
                             restrict)
        return TruncatedSeries(varset, policy, terms)
    if kind == "T":
        d = char_module("D", lam, policy, lattice)
        u = char_module("Uo", lam, policy, lattice)
        return mul_truncated(d, u).scale(algebra_series("D"))
    raise ExactError(f"unknown module kind {kind!r}")


def ch_weyl_ratio_check(lam, m, word):
    """Consistency of the two descriptions of the graded character ratio of
    global to local Weyl modules with characteristics: the polynomial-algebra
    degrees against the beta-count degrees for the supplied word.

    Returns a VerificationReport (variant 'weyl_ratio')."""
    import time
    t0 = time.monotonic()
    lam = tuple(int(e) for e in lam)
    n = len(lam)
    lam_minus, _ = antidominant_data(lam)
    by_formula = hw_algebra_char(lam, "at_m", m=m, word=word)
    betas = beta_sequence(word)[:m]
    degrees = []
    for j in range(1, n):
        neg = [0] * n
        neg[j - 1], neg[j] = -1, 1
        cnt = sum(1 for b in betas if b.finite_part == tuple(neg))
        top = -(lam_minus[j - 1] - lam_minus[j]) - cnt
        degrees.extend(range(1, top + 1))
    from .affine import HwAlgebraChar
    by_count = HwAlgebraChar(degrees)
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
