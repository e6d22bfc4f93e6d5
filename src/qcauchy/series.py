r"""Sparse truncated Laurent series in letter variables.

A ``TruncatedSeries`` is a finite map from exponent vectors to nonzero
scalar coefficients, together with an explicit ``TruncationPolicy`` capping
the total degree in the x-block and the y-block separately.  Scalars are
``QSeries`` (q-truncated integers) or ``QTRational`` (exact rational
functions); the q-cap, when present, lives inside the scalars.

The gl variable sets (x_1..x_n, y_1..y_n) are strictly nonnegative; the sl
sets (X-basis, Y-basis of the weight lattice written on fundamental weights)
are Laurent.  Monomials are ordered graded-lexicographically with the
x-block before the y-block, which fixes deterministic iteration and output.
"""

from __future__ import annotations

from fractions import Fraction

from .exact import (DivergentPochhammerError, ExactError, QPoly, QSeries,
                    QTPoly, QTRational, qq_pochhammer_poly)


class VariableSet:
    """Declaration of the letter variables: two blocks, each possibly Laurent."""

    __slots__ = ("xnames", "ynames", "laurent")

    def __init__(self, xnames, ynames, laurent=False):
        self.xnames = tuple(xnames)
        self.ynames = tuple(ynames)
        self.laurent = laurent

    @classmethod
    def gl(cls, n):
        return cls([f"x{i}" for i in range(1, n + 1)],
                   [f"y{i}" for i in range(1, n + 1)], laurent=False)

    @classmethod
    def sl(cls, n):
        return cls([f"X{i}" for i in range(1, n)],
                   [f"Y{i}" for i in range(1, n)], laurent=True)

    @property
    def nx(self):
        return len(self.xnames)

    @property
    def ny(self):
        return len(self.ynames)

    @property
    def size(self):
        return self.nx + self.ny

    def block_degrees(self, exps):
        xs = exps[: self.nx]
        ys = exps[self.nx:]
        if self.laurent:
            return sum(abs(e) for e in xs), sum(abs(e) for e in ys)
        return sum(xs), sum(ys)

    def validate(self, exps):
        if len(exps) != self.size:
            raise ExactError("exponent length does not match variable set")
        if not self.laurent and any(e < 0 for e in exps):
            raise ExactError("negative exponent in non-Laurent variable set")

    def __eq__(self, other):
        return (isinstance(other, VariableSet)
                and self.xnames == other.xnames
                and self.ynames == other.ynames
                and self.laurent == other.laurent)

    def __hash__(self):
        return hash((self.xnames, self.ynames, self.laurent))

    def __repr__(self):
        return f"VariableSet({self.xnames + self.ynames}, laurent={self.laurent})"


class TruncationPolicy:
    """Per-block degree caps plus an optional q-degree cap.

    A sum or a product takes two series with one policy; a series moves to
    a smaller policy only by ``TruncatedSeries.retruncate``.
    ``max_q_degree=None`` means unbounded in q (only meaningful with exact
    QTRational scalars).
    """

    __slots__ = ("max_x_degree", "max_y_degree", "max_q_degree")

    def __init__(self, max_x_degree, max_y_degree, max_q_degree=None):
        if max_x_degree < 0 or max_y_degree < 0:
            raise ValueError("degree caps must be >= 0")
        self.max_x_degree = max_x_degree
        self.max_y_degree = max_y_degree
        self.max_q_degree = max_q_degree

    def admits(self, dx, dy):
        return dx <= self.max_x_degree and dy <= self.max_y_degree

    def leq(self, other):
        ok_q = (other.max_q_degree is None
                or (self.max_q_degree is not None
                    and self.max_q_degree <= other.max_q_degree))
        return (self.max_x_degree <= other.max_x_degree
                and self.max_y_degree <= other.max_y_degree and ok_q)

    def __eq__(self, other):
        return (isinstance(other, TruncationPolicy)
                and (self.max_x_degree, self.max_y_degree, self.max_q_degree)
                == (other.max_x_degree, other.max_y_degree, other.max_q_degree))

    def __repr__(self):
        return (f"TruncationPolicy(Dx={self.max_x_degree}, "
                f"Dy={self.max_y_degree}, K={self.max_q_degree})")


def _is_zero_scalar(c):
    if isinstance(c, int):
        return c == 0
    if isinstance(c, Fraction):
        return c == 0
    return c.is_zero


def _scalar_inverse(c):
    if isinstance(c, QSeries):
        return c.inverse()
    if isinstance(c, QTRational):
        return c.inverse()
    if isinstance(c, int):
        if abs(c) != 1:
            raise ExactError("series not invertible")
        return c
    if isinstance(c, Fraction):
        return 1 / c
    raise ExactError(f"cannot invert scalar of type {type(c)}")


def monomial_key(varset, exps):
    """Graded-lexicographic sort key, x-block before y-block."""
    dx, dy = varset.block_degrees(exps)
    return (dx, dy, exps)


class TruncatedSeries:
    """Finite sum of scalar * monomial, truncated per policy."""

    __slots__ = ("varset", "policy", "terms")

    def __init__(self, varset, policy, terms=None, _checked=False):
        self.varset = varset
        self.policy = policy
        if terms is None:
            terms = {}
        if not _checked:
            clean = {}
            for exps, c in terms.items():
                varset.validate(exps)
                dx, dy = varset.block_degrees(exps)
                if not policy.admits(dx, dy):
                    continue
                if not _is_zero_scalar(c):
                    clean[tuple(exps)] = c
            terms = clean
        self.terms = terms

    @classmethod
    def constant(cls, varset, policy, scalar):
        zero = (0,) * varset.size
        return cls(varset, policy, {zero: scalar})

    @property
    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        self._compat(other)
        out = dict(self.terms)
        for exps, c in other.terms.items():
            if exps in out:
                s = out[exps] + c
                if _is_zero_scalar(s):
                    del out[exps]
                else:
                    out[exps] = s
            else:
                out[exps] = c
        return TruncatedSeries(self.varset, self.policy, out, _checked=True)

    def __neg__(self):
        return TruncatedSeries(self.varset, self.policy,
                               {e: -c for e, c in self.terms.items()}, _checked=True)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return mul_truncated(self, other)

    def _compat(self, other):
        if self.varset != other.varset:
            raise ExactError("variable-set mismatch")
        if self.policy != other.policy:
            raise ExactError("truncation-policy mismatch")

    def retruncate(self, policy):
        """Re-truncate to a policy <= the current one."""
        if not policy.leq(self.policy):
            raise ExactError("retruncate target policy exceeds current policy")
        if policy == self.policy:
            return self
        out = {}
        for exps, c in self.terms.items():
            dx, dy = self.varset.block_degrees(exps)
            if policy.admits(dx, dy):
                c2 = c.truncate(policy.max_q_degree) if (
                    isinstance(c, QSeries) and policy.max_q_degree is not None
                    and policy.max_q_degree < c.cap) else c
                if not _is_zero_scalar(c2):
                    out[exps] = c2
        return TruncatedSeries(self.varset, policy, out, _checked=True)

    def by_total_degree(self):
        buckets = {}
        for exps, c in self.terms.items():
            dx, dy = self.varset.block_degrees(exps)
            buckets.setdefault(dx + dy, {})[exps] = c
        return buckets

    def sorted_items(self):
        return sorted(self.terms.items(),
                      key=lambda item: monomial_key(self.varset, item[0]))

    def __eq__(self, other):
        return (isinstance(other, TruncatedSeries)
                and self.varset == other.varset
                and self.policy == other.policy
                and self.terms == other.terms)

    def __repr__(self):
        n = len(self.terms)
        return f"TruncatedSeries({n} terms, {self.policy})"


def mul_truncated(f, g):
    """Exact product with all out-of-policy terms discarded."""
    f._compat(g)
    policy = f.policy
    varset = f.varset
    dmax_x, dmax_y = policy.max_x_degree, policy.max_y_degree
    out = {}
    gitems = [(e, varset.block_degrees(e), c) for e, c in g.terms.items()]
    for ef, cf in f.terms.items():
        dfx, dfy = varset.block_degrees(ef)
        for eg, (dgx, dgy), cg in gitems:
            if not varset.laurent and (dfx + dgx > dmax_x or dfy + dgy > dmax_y):
                continue
            exps = tuple(a + b for a, b in zip(ef, eg))
            if varset.laurent:
                dx, dy = varset.block_degrees(exps)
                if dx > dmax_x or dy > dmax_y:
                    continue
            c = cf * cg
            if exps in out:
                s = out[exps] + c
                if _is_zero_scalar(s):
                    del out[exps]
                else:
                    out[exps] = s
            elif not _is_zero_scalar(c):
                out[exps] = c
    return TruncatedSeries(varset, policy, out, _checked=True)


def inverse_truncated(f):
    """Multiplicative inverse by graded recursion on total letter degree.

    Requires the constant term of f to be a unit scalar.
    """
    zero = (0,) * f.varset.size
    c0 = f.terms.get(zero)
    if c0 is None or _is_zero_scalar(c0):
        raise ExactError("series not invertible: no unit constant term")
    inv0 = _scalar_inverse(c0)
    dmax = f.policy.max_x_degree + f.policy.max_y_degree
    fbuckets = f.by_total_degree()
    gbuckets = {0: {zero: inv0}}
    for d in range(1, dmax + 1):
        acc = {}
        for e in range(1, d + 1):
            fb = fbuckets.get(e)
            gb = gbuckets.get(d - e)
            if not fb or not gb:
                continue
            for ef, cf in fb.items():
                for eg, cg in gb.items():
                    exps = tuple(a + b for a, b in zip(ef, eg))
                    dx, dy = f.varset.block_degrees(exps)
                    if not f.policy.admits(dx, dy):
                        continue
                    c = cf * cg
                    if exps in acc:
                        acc[exps] = acc[exps] + c
                    else:
                        acc[exps] = c
        bucket = {}
        for exps, c in acc.items():
            v = -(inv0 * c)
            if not _is_zero_scalar(v):
                bucket[exps] = v
        if bucket:
            gbuckets[d] = bucket
    out = {}
    for bucket in gbuckets.values():
        out.update(bucket)
    return TruncatedSeries(f.varset, f.policy, out, _checked=True)


def _monomial_power_admits(varset, policy, exps, k):
    dx, dy = varset.block_degrees(tuple(e * k for e in exps))
    return policy.admits(dx, dy)


def pochhammer_series(coeff, monomial, count, varset, policy):
    r"""Truncated q-Pochhammer product (a; q)_count for a = coeff * monomial.

    For a finite count this is the product \prod_{i<count} (1 - q^i a).  For
    ``count=None`` (infinity), factors falling outside the policy are
    dropped: with a finite q-cap the product stops once q^i * a vanishes
    under the cap; with no q-cap (exact scalars) the expansion

        (a; q)_oo = sum_k (-1)^k q^{k(k-1)/2} a^k / (q; q)_k

    is used, which is finite within the letter-degree policy provided the
    monomial has positive degree.
    """
    varset.validate(monomial)
    monomial = tuple(monomial)
    dx, dy = varset.block_degrees(monomial)
    letter_degree = dx + dy
    qt_scalars = isinstance(coeff, (QTRational, QTPoly))
    if isinstance(coeff, QTPoly):
        coeff = QTRational.from_qtpoly(coeff)

    def q_shift(c, i):
        if i == 0:
            return c
        if isinstance(c, QSeries):
            return c.shift(i)
        return c * QTRational.from_qtpoly(QTPoly.term(1, i, 0))

    zero_exps = (0,) * varset.size

    def linear_factor(ci):
        # 1 - ci * monomial, accumulating if the monomial is constant
        terms = {zero_exps: one_scalar()}
        if monomial == zero_exps:
            terms[zero_exps] = terms[zero_exps] - ci
        else:
            terms[monomial] = -ci
        return TruncatedSeries(varset, policy, terms)

    def one_scalar():
        if qt_scalars:
            return QTRational.one()
        if not isinstance(coeff, QSeries):
            raise ExactError("pochhammer_series needs QSeries or QTRational coefficient")
        return QSeries.one(coeff.cap)

    result = TruncatedSeries.constant(varset, policy, one_scalar())

    if count is None and letter_degree == 0:
        if qt_scalars:
            raise DivergentPochhammerError(
                "divergent Pochhammer: constant argument with unbounded q-cap")
        if coeff[0] != 0:
            raise DivergentPochhammerError(
                "divergent Pochhammer: argument has q-valuation 0")

    if count is not None or not qt_scalars:
        # the factors 1 - q^i a for i < count; for the infinite product, as
        # long as q^i a survives the q-cap and its monomial the policy
        if count is None and \
                not _monomial_power_admits(varset, policy, monomial, 1):
            return result
        i = 0
        while i != count:
            ci = q_shift(coeff, i)
            if ci.is_zero:
                break
            result = mul_truncated(result, linear_factor(ci))
            i += 1
        return result

    # exact scalars, positive letter degree: Euler expansion
    terms = {(0,) * varset.size: QTRational.one()}
    k = 1
    power = coeff
    exps = monomial
    while _monomial_power_admits(varset, policy, monomial, k):
        qfac = QTRational.from_qtpoly(QTPoly.term(1, k * (k - 1) // 2, 0))
        inv_poch = QTRational.from_qtpoly(
            QTPoly.from_qpoly(qq_pochhammer_poly(k))).inverse()
        sign = -1 if k % 2 else 1
        c = power * qfac * inv_poch * QTRational.from_int(sign)
        if not c.is_zero:
            terms[exps] = c
        k += 1
        power = power * coeff
        exps = tuple(a + b for a, b in zip(exps, monomial))
    return TruncatedSeries(varset, policy, terms)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def render_scalar(c):
    """Exact string/JSON rendering of a coefficient scalar."""
    if isinstance(c, int):
        return str(c)
    if isinstance(c, Fraction):
        return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
    if isinstance(c, QPoly):
        return [render_scalar(x) for x in c.coeffs]
    if isinstance(c, QSeries):
        return {"cap": c.cap, "coeffs": [render_scalar(x) for x in c.coeffs]}
    if isinstance(c, QTPoly):
        return [[render_scalar(x) for x in row.coeffs] for row in c.tcoeffs]
    if isinstance(c, QTRational):
        return {"num": render_scalar(c.num), "den": render_scalar(c.den)}
    raise ExactError(f"cannot render scalar of type {type(c)}")


def series_records(f):
    """Deterministic list of {exponents, coefficient} records."""
    return [{"exps": list(exps), "coeff": render_scalar(c)}
            for exps, c in f.sorted_items()]


def first_difference(varset, f, g, decode=None):
    """First monomial (``monomial_key`` order on ``varset``) where the term
    maps f and g differ, or None.

    f and g map exponent tuples, or keys that ``decode`` turns into
    exponent tuples, to scalars that compare by ``!=``: masked packed ints,
    ``QSeries`` or ``QTRational``.  A monomial present on one side only
    differs unless its scalar is zero.  Only the differing monomials are
    decoded and ordered.  Returns (exps, f value or None, g value or
    None)."""
    diff = [e for e, c in f.items()
            if (c != g[e] if e in g else not _is_zero_scalar(c))]
    diff += [e for e, c in g.items()
             if e not in f and not _is_zero_scalar(c)]
    if not diff:
        return None
    decode = decode or (lambda e: e)
    key = min(diff, key=lambda e: monomial_key(varset, decode(e)))
    return decode(key), f.get(key), g.get(key)
