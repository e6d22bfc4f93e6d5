r"""The identity verification engine.

Each variant names one numerical identity; both sides are built as truncated
series and compared exactly (subtract and report the first nonzero monomial
in canonical order as the failure witness):

* ``gl_qt``        -- the full (q, t) Cauchy kernel expansion,
* ``gl_t0``        -- its t = 0 specialization over all compositions,
* ``gl_slform``    -- the determinant-factored form summed over compositions
                      with a zero entry,
* ``sl_projected`` -- the image of gl_slform in the sl weight lattice on a
                      certified window,
* ``classical_q0`` -- the q = 0 limit (key polynomials vs Demazure atoms),
* ``iwahori_char`` -- the function-space character against the Macdonald sum,
* ``sl2_appendix`` -- the rank-one closed forms.

The sl projection sums fibers lam + k*1; the certificate enumerates, per
class pair, every solution of the support system of the kernel and bounds
the fiber index k, which fixes the gl box the series must be computed in.
Positivity of all right-hand summands then makes a window match a proof
that no contributor was missed.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from .exact import (ExactError, InvariantError, QSeries, QTRational,
                    inv_pochhammer_qq, invert_q)
from .macdonald import (e_atom_table, e_t0_table, generic_engine, norm_a_q,
                        norm_a_qt, sl2_closed_forms, restrict_poly_terms)
from .affine import hw_algebra_char
from .series import (TruncatedSeries, TruncationPolicy, VariableSet,
                     first_difference, inverse_truncated, mul_truncated,
                     pochhammer_series, render_scalar)
from .weights import (compositions_up_to, min_zero_compositions_up_to,
                      restrict_weight)

VARIANTS = ("gl_qt", "gl_t0", "gl_slform", "sl_projected", "classical_q0",
            "iwahori_char", "sl2_appendix")


@dataclass
class VerificationReport:
    variant: str
    n: int
    policy: dict
    outcome: str                    # 'pass' | 'fail'
    witness: object = None          # first mismatch data on failure
    lambda_count: int = 0
    elapsed: float = 0.0

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


def _mk_report(variant, n, policy_dict, diff, varset, lam_count, t_start):
    if diff is None:
        return VerificationReport(variant, n, policy_dict, "pass", None,
                                  lam_count, time.monotonic() - t_start)
    exps, lc, rc = diff
    witness = {"monomial": list(exps),
               "lhs": render_scalar(lc) if lc is not None else "0",
               "rhs": render_scalar(rc) if rc is not None else "0"}
    return VerificationReport(variant, n, policy_dict, "fail", witness,
                              lam_count, time.monotonic() - t_start)


# ---------------------------------------------------------------------------
# left-hand sides
# ---------------------------------------------------------------------------

def _xy_monomial(n, i, j):
    mono = [0] * (2 * n)
    mono[i] = 1
    mono[n + j] = 1
    return tuple(mono)


def lhs_series(variant, n, policy):
    """The product side of the named identity, as a truncated series.

    ``iwahori_char`` names the gl_slform product: the character of the
    functions on the Iwahori matrix space."""
    varset = VariableSet.gl(n)
    if variant == "gl_qt":
        if policy.max_q_degree is not None:
            raise ExactError("gl_qt works with exact coefficients; no q-cap")
        one = QTRational.one()
        q = QTRational.q()
        t = QTRational.t()
        result = TruncatedSeries.constant(varset, policy, one)
        for i in range(n):
            for j in range(n):
                mono = _xy_monomial(n, i, j)
                lin = TruncatedSeries(varset, policy,
                                      {(0,) * (2 * n): one, mono: -one})
                if i == j:
                    result = mul_truncated(result, inverse_truncated(lin))
                elif i < j:
                    tlin = TruncatedSeries(varset, policy,
                                           {(0,) * (2 * n): one, mono: -t})
                    result = mul_truncated(result, tlin)
                    result = mul_truncated(result, inverse_truncated(lin))
                num = pochhammer_series(q * t, mono, None, varset, policy)
                den = pochhammer_series(q, mono, None, varset, policy)
                result = mul_truncated(result, num)
                result = mul_truncated(result, inverse_truncated(den))
        return result

    cap = policy.max_q_degree
    if cap is None:
        raise ExactError(f"variant {variant} needs a finite q-cap")
    if variant == "iwahori_char":
        variant = "gl_slform"
    one = QSeries.one(cap)
    q1 = QSeries(cap, (0, 1))
    result = TruncatedSeries.constant(varset, policy, one)
    if variant == "classical_q0":
        for i in range(n):
            for j in range(i, n):
                lin = TruncatedSeries(varset, policy,
                                      {(0,) * (2 * n): one,
                                       _xy_monomial(n, i, j): -one})
                result = mul_truncated(result, inverse_truncated(lin))
        return result
    if variant in ("gl_t0", "gl_slform"):
        for i in range(n):
            for j in range(n):
                mono = _xy_monomial(n, i, j)
                if i <= j:
                    lin = TruncatedSeries(varset, policy,
                                          {(0,) * (2 * n): one, mono: -one})
                    result = mul_truncated(result, inverse_truncated(lin))
                factor = inverse_truncated(
                    pochhammer_series(q1, mono, None, varset, policy))
                result = mul_truncated(result, factor)
        if variant == "gl_slform":
            det = tuple([1] * (2 * n))
            result = mul_truncated(
                result, pochhammer_series(one, det, None, varset, policy))
        return result
    raise ExactError(f"no product side for variant {variant!r}")


# ---------------------------------------------------------------------------
# right-hand sides
# ---------------------------------------------------------------------------

def _pair_product_series(varset, policy, xterms, yterms, norm):
    """norm * E(x-part) * E(y-part) assembled directly as a term dict."""
    n = varset.nx
    dmx, dmy = policy.max_x_degree, policy.max_y_degree
    out = {}
    for ex, cx in xterms.items():
        if sum(ex) > dmx:
            continue
        cxn = cx * norm
        for ey, cy in yterms.items():
            if sum(ey) > dmy:
                continue
            key = tuple(u + v for u, v in zip(ex, ey))
            c = cxn * cy
            if key in out:
                out[key] = out[key] + c
            else:
                out[key] = c
    return TruncatedSeries(varset, policy, out)


def _rhs_lambdas(variant, n, policy):
    bound = min(policy.max_x_degree, policy.max_y_degree)
    if variant in ("gl_slform", "iwahori_char"):
        return sorted(min_zero_compositions_up_to(n, bound))
    return sorted(compositions_up_to(n, bound))


def rhs_series(variant, n, policy, jobs=1):
    """The Macdonald-polynomial side: sum over compositions of
    norm * E(x) * E(y) at the variant's parameter points."""
    varset = VariableSet.gl(n)
    lambdas = _rhs_lambdas(variant, n, policy)
    cap = policy.max_q_degree

    if variant == "gl_qt":
        eng = generic_engine(n)

        def summand(lam):
            terms = eng.terms_qtrational(lam)
            xt = {e + (0,) * n: c for e, c in terms.items()}
            yt = {(0,) * n + e: invert_q(c, invert_t=True)
                  for e, c in terms.items()}
            return _pair_product_series(varset, policy, xt, yt, norm_a_qt(lam))
    elif variant in ("gl_t0", "gl_slform", "iwahori_char"):
        t0 = e_t0_table(n, lambdas, cap)
        atom = e_atom_table(n, lambdas, cap)

        def summand(lam):
            xt = {e + (0,) * n: c for e, c in t0[lam].items()}
            yt = {(0,) * n + e: c for e, c in atom[lam].items()}
            return _pair_product_series(varset, policy, xt, yt,
                                        norm_a_q(lam, cap))
    elif variant == "classical_q0":
        # the key polynomials E(x; 0, 0) and the Demazure atoms E(x; oo, oo)
        # are the q^0 coefficients of the t = 0 and (q^{-1}, oo) tables
        keys = e_t0_table(n, lambdas, 0)
        atoms = e_atom_table(n, lambdas, 0)

        def summand(lam):
            one = QSeries.one(cap)
            xt = {e + (0,) * n: QSeries.from_int(c[0], cap)
                  for e, c in keys[lam].items()}
            yt = {(0,) * n + e: QSeries.from_int(c[0], cap)
                  for e, c in atoms[lam].items()}
            return _pair_product_series(varset, policy, xt, yt, one)
    else:
        raise ExactError(f"no Macdonald side for variant {variant!r}")

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            pieces = list(pool.map(summand, lambdas))
    else:
        pieces = [summand(lam) for lam in lambdas]
    total = TruncatedSeries(varset, policy, {}, _checked=True)
    for p in pieces:
        total = total + p
    return total


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


def _kostant_solutions(c, n):
    """Nonnegative solutions {m_{ij}} of sum m_{ij} (e_i - e_j) = c, i < j.

    Each unit of m_{ij} consumes j - i units of the weighted height
    -sum k c_k, which bounds the search."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    sols = []

    def rec(idx, rem, m):
        height = -sum(k * rem[k] for k in range(n))
        if height < 0:
            return
        if idx == len(pairs):
            if all(x == 0 for x in rem):
                sols.append(dict(m))
            return
        i, j = pairs[idx]
        for v in range(height // (j - i) + 1):
            rem[i] -= v
            rem[j] += v
            m[(i, j)] = v
            rec(idx + 1, rem, m)
            rem[i] += v
            rem[j] -= v
        del m[(i, j)]

    rec(0, list(c), {})
    return sols


def _beta_matrices(n, budget):
    """Nonnegative n x n matrices with entry sum <= budget, as
    (row sums, column sums, entries in row-major order)."""
    cells = [(r, s) for r in range(n) for s in range(n)]
    out = []

    def rec(idx, left, rows, cols, entries):
        if idx == len(cells):
            out.append((tuple(rows), tuple(cols), tuple(entries)))
            return
        r, s = cells[idx]
        for v in range(left + 1):
            rows[r] += v
            cols[s] += v
            entries.append(v)
            rec(idx + 1, left - v, rows, cols, entries)
            entries.pop()
            rows[r] -= v
            cols[s] -= v
    rec(0, budget, [0] * n, [0] * n, [])
    return out


def _sl_supports(n, pairs, K):
    """The solutions of the support system of sl_certificate on the given
    class pairs: yields (pair, S, beta entries, k) for every S and beta
    matrix within the q-budget sum(beta) + S(S+1)/2 <= K and every Kostant
    solution m, with the fiber index k it lands on, when both k and the
    y-side index k - (|b| - |a|) / n are nonnegative."""
    betas_by_budget = {}
    kostant = {}    # tuple(c) -> the x-side sums of its Kostant solutions
    for a, b in pairs:
        off, rem = divmod(sum(b) - sum(a), n)
        if rem:
            continue
        S = 0
        while S * (S + 1) // 2 <= K:
            budget = K - S * (S + 1) // 2
            if budget not in betas_by_budget:
                betas_by_budget[budget] = _beta_matrices(n, budget)
            for rows, cols, entries in betas_by_budget[budget]:
                c = [a[i] + off - b[i] - rows[i] + cols[i] for i in range(n)]
                if sum(c) != 0:
                    continue
                sums = kostant.get(tuple(c))
                if sums is None:
                    sums = kostant[tuple(c)] = []
                    for m in _kostant_solutions(c, n):
                        mx = [0] * n
                        for (i, _), v in m.items():
                            mx[i] += v
                        sums.append(mx)
                for mx in sums:
                    k = max(mx[i] + rows[i] + S - a[i] for i in range(n))
                    if k >= 0 and k >= off:
                        yield (a, b), S, entries, k
            S += 1


def sl_certificate(n, pairs, K):
    """Per class pair, the largest fiber index k of any potential kernel
    contributor x^{a + k 1} y^{b + k 1} q^{<= K}, from the support system

        nu + sum m_{ij} e_i + sum beta_{rs} e_r + S*1 = a + k*1   (x side)
        nu + sum m_{ij} e_j + sum beta_{rs} e_s + S*1 = b + k*1   (y side)

    with nu a min-0 composition, m, beta >= 0, and q-cost
    sum(beta) + S(S+1)/2 <= K.  The y-side shift l is tied to the x-side
    shift k by n(k - l) = |b| - |a| (the kernel is balanced), so one index
    suffices.  Returns (kmax, Dx, Dy) with kmax keyed on the x-side."""
    kmax = {pair: -1 for pair in pairs}
    for pair, _, _, k in _sl_supports(n, pairs, K):
        if k > kmax[pair]:
            kmax[pair] = k
    Dx = max((sum(a) + n * k for (a, b), k in kmax.items() if k >= 0),
             default=0)
    Dy = Dx    # the balance relation makes the two box needs coincide
    return kmax, Dx, Dy


def project_to_sl(f, pairs, kmax, K):
    """Fiber sums of a gl series over the window class pairs.

    Requires the series box to contain every certified fiber contributor;
    raises otherwise ('window exceeds certified bound')."""
    n = f.varset.nx
    svars = VariableSet.sl(n)
    wdeg = max((max(sum(a), sum(b)) for a, b in pairs), default=0)
    spolicy = TruncationPolicy(2 * wdeg, 2 * wdeg, K)
    out = {}
    cap = f.policy.max_q_degree
    for (a, b) in pairs:
        k = kmax.get((a, b), -1)
        if k < 0:
            continue
        off = (sum(b) - sum(a)) // n
        if sum(a) + n * k > f.policy.max_x_degree or \
           sum(a) + n * k > f.policy.max_y_degree:
            raise InvariantError("window exceeds certified bound")
        acc = None
        for kk in range(max(0, off), k + 1):
            exps = tuple(x + kk for x in a) + tuple(y + kk - off for y in b)
            c = f.terms.get(exps)
            if c is not None:
                acc = c if acc is None else acc + c
        if acc is not None and not acc.is_zero:
            key = restrict_weight(a) + restrict_weight(b)
            if key in out:
                out[key] = out[key] + acc
            else:
                out[key] = acc
    return TruncatedSeries(svars, spolicy, out, _checked=True)


def _sl_lhs_window(n, pairs, kmax, K):
    """Projected gl_slform product side, computed per window entry by
    summing the support-system solutions with their coefficients (exactly
    the fiber sums project_to_sl would take over the full box): a beta
    entry v weighs q^v / (q; q)_v, and S weighs
    (-1)^S q^{S(S+1)/2} / (q; q)_S."""
    svars = VariableSet.sl(n)
    wdeg = max((max(sum(a), sum(b)) for a, b in pairs), default=0)
    spolicy = TruncationPolicy(2 * wdeg, 2 * wdeg, K)
    inv_poch = [inv_pochhammer_qq(m, K) for m in range(K + 1)]
    beta_w = [p.shift(v) for v, p in enumerate(inv_poch)]
    poch_w = [p.shift(S * (S + 1) // 2) * (-1 if S % 2 else 1)
              for S, p in enumerate(inv_poch)]
    zero = QSeries.zero(K)
    live = [pair for pair in pairs if kmax.get(pair, -1) >= 0]
    weights = {}    # (S, beta entries) -> weight; each is formed once per call
    by_pair = {}
    for pair, S, entries, _ in _sl_supports(n, live, K):
        w = weights.get((S, entries))
        if w is None:
            w = poch_w[S]
            for v in entries:
                if v:
                    w = w * beta_w[v]
            weights[(S, entries)] = w
        by_pair[pair] = by_pair.get(pair, zero) + w
    out = {}
    for (a, b), c in by_pair.items():
        if not c.is_zero:
            key = restrict_weight(a) + restrict_weight(b)
            out[key] = out.get(key, zero) + c
    out = {k: v for k, v in out.items() if not v.is_zero}
    return TruncatedSeries(svars, spolicy, out, _checked=True)


def _assemble_sl_rhs_batch(n, lambdas, pairs, K):
    """Window contributions of a batch of compositions, for both norm
    sources at once: ({key: QSeries} with the arm/leg norm,
    {key: QSeries} with the highest-weight-algebra norm)."""
    t0 = e_t0_table(n, lambdas, K)
    atom = e_atom_table(n, lambdas, K)
    x_reps = {tuple(a) for a, _ in pairs}
    y_reps = {tuple(b) for _, b in pairs}
    pair_set = {(tuple(a), tuple(b)) for a, b in pairs}
    out_a = {}
    out_h = {}
    for lam in lambdas:
        norm_a = norm_a_q(lam, K)
        norm_h = hw_algebra_char(lam, "D").qseries(K)
        if not norm_a.is_nonnegative() or not norm_h.is_nonnegative():
            raise InvariantError("negative norm coefficient; positivity broken")
        xhits = []
        for e, c in t0[lam].items():
            if not c.is_nonnegative():
                raise InvariantError("negative t0 coefficient; positivity broken")
            rep = tuple(x - min(e) for x in e)
            if rep in x_reps:
                xhits.append((rep, c))
        if not xhits:
            continue
        yhits = []
        for e, c in atom[lam].items():
            if not c.is_nonnegative():
                raise InvariantError("negative atom coefficient; positivity broken")
            rep = tuple(y - min(e) for y in e)
            if rep in y_reps:
                yhits.append((rep, c))
        for arep, ca in xhits:
            for brep, cb in yhits:
                if (arep, brep) not in pair_set:
                    continue
                key = restrict_weight(arep) + restrict_weight(brep)
                prod = ca * cb
                va = prod * norm_a
                vh = prod * norm_h
                out_a[key] = out_a.get(key, QSeries.zero(K)) + va
                out_h[key] = out_h.get(key, QSeries.zero(K)) + vh
    return out_a, out_h


def _qseries_leq(a, b):
    top = max(len(a.coeffs), len(b.coeffs))
    return all(a[i] <= b[i] for i in range(top))


def _terms_leq(acc, target):
    """acc <= target coefficientwise (missing entries are zero); returns a
    violating key or None."""
    for key, c in acc.items():
        t = target.terms.get(key)
        if t is None:
            if not c.is_zero:
                return key
        elif not _qseries_leq(c, t):
            return key
    return None


def _sl_rhs_adaptive(n, pairs, K, bound, p_lhs):
    """Sum the sl Macdonald side over lam in (Z_{>=0})^n_0 of growing size
    until the window matches the certified product side.

    All summands have nonnegative coefficients, so partial sums increase
    monotonically towards the full fiber sums; a window match at any size
    bound therefore certifies that every contributor has been included (and
    verifies the identity), while an overshoot is a genuine failure.

    Returns (series_armleg_norm, series_hw_norm, lambda_count)."""
    svars = VariableSet.sl(n)
    wdeg = max((max(sum(a), sum(b)) for a, b in pairs), default=0)
    spolicy = TruncationPolicy(2 * wdeg, 2 * wdeg, K)
    acc_a = {}
    acc_h = {}
    count = 0
    size = 0
    wmax = max((max(sum(a), sum(b)) for a, b in pairs), default=0)
    step = n
    target = min(wmax + n * (K + 1), bound)
    while True:
        hi = min(target, bound)
        batch = [lam for lam in min_zero_compositions_up_to(n, hi)
                 if sum(lam) >= size]
        if batch:
            ba, bh = _assemble_sl_rhs_batch(n, sorted(batch), pairs, K)
            for key, c in ba.items():
                acc_a[key] = acc_a.get(key, QSeries.zero(K)) + c
            for key, c in bh.items():
                acc_h[key] = acc_h.get(key, QSeries.zero(K)) + c
            count += len(batch)
        size = hi + 1
        bad = _terms_leq(acc_a, p_lhs)
        if bad is not None:
            break  # overshoot; a genuine mismatch the caller will report
        done = all(acc_a.get(key) == c for key, c in p_lhs.terms.items())
        if done or hi >= bound:
            break
        target = min(bound, hi + step)
    sa = TruncatedSeries(svars, spolicy,
                         {k: v for k, v in acc_a.items() if not v.is_zero},
                         _checked=True)
    sh = TruncatedSeries(svars, spolicy,
                         {k: v for k, v in acc_h.items() if not v.is_zero},
                         _checked=True)
    return sa, sh, count


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def verify_identity(variant, n, policy, jobs=1):
    """Build both sides of the named identity and compare exactly."""
    t_start = time.monotonic()
    policy_dict = {"max_x_degree": policy.max_x_degree,
                   "max_y_degree": policy.max_y_degree,
                   "max_q_degree": policy.max_q_degree}

    if variant == "sl_projected":
        w = min(policy.max_x_degree, policy.max_y_degree)
        K = policy.max_q_degree
        pairs = sl_window_pairs(n, w)
        kmax, Dx, Dy = sl_certificate(n, pairs, K)
        policy_dict["window_degree"] = w
        policy_dict["certified_box"] = [Dx, Dy]
        p_lhs = _sl_lhs_window(n, pairs, kmax, K)
        bound = min(Dx, Dy)
        p_gl, p_sl, count = _sl_rhs_adaptive(n, pairs, K, bound, p_lhs)
        diff = first_difference(p_lhs, p_gl)
        if diff is None:
            diff = first_difference(p_gl, p_sl)
        return _mk_report(variant, n, policy_dict, diff, p_lhs.varset,
                          count, t_start)

    if variant == "sl2_appendix":
        return verify_sl2_appendix(
            (-policy.max_x_degree, policy.max_x_degree),
            policy.max_q_degree)

    lhs = lhs_series(variant, n, policy)
    rhs = rhs_series(variant, n, policy, jobs=jobs)
    diff = first_difference(lhs, rhs)
    return _mk_report(variant, n, policy_dict, diff, lhs.varset,
                      len(_rhs_lambdas(variant, n, policy)), t_start)


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
    t0 = e_t0_table(2, lams, K)
    atom = e_atom_table(2, lams, K)
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
