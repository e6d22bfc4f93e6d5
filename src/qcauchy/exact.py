r"""Exact scalar arithmetic.

The coefficient types used everywhere downstream:

* ``Rational``       -- arbitrary-precision rationals (``fractions.Fraction``),
* ``QPoly``          -- polynomials in q over the rationals, dense,
* ``QTPoly``         -- polynomials in (q, t) over the rationals, sparse:
                        {(q_exp, t_exp): coefficient},
* ``QTRational``     -- reduced fractions of QTPolys,
* ``QSeries``        -- q-power series truncated at an explicit cap,
* ``PackedQ``        -- integer QSeries packed into one int per series
                        (Kronecker substitution) for bulk products and sums.

A QTPoly has no rows of its own: its t-rows, QPolys indexed by t-degree,
are built on demand for rendering and for the general gcd.

All arithmetic is exact; there is no floating point anywhere.  A
``QTRational`` is kept in a canonical reduced form (gcd-free, content
normalized, denominator's lexicographically-leading coefficient equal to 1
for the order q < t), so structural equality decides mathematical equality.
A fraction over binomials 1 - q^a t^d, the denominator of a Macdonald
coefficient, is brought to that form by integer trial division by the
binomials' cyclotomic factors (``reduce_over_binomials``); a ratio of two
products of binomials, a norm, by cancelling those factors by count
(``binomial_ratio``); other fractions by the general gcd
(``normalize_qt``).  A sum or a product of
two canonical fractions takes only the gcds that can be nontrivial
(Henrici): of the two denominators, and of each numerator with the other
denominator.  All end in the one exact (q, t) division, ``_divide_exact``,
by a lex-monic divisor.
"""

from __future__ import annotations

import functools
import heapq
import math
from collections import Counter
from fractions import Fraction

Rational = Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


class ExactError(ArithmeticError):
    pass


class InvariantError(ExactError):
    """Raised when an internal invariant breaks (failed positivity, an
    uncertified window, a non-monic E): a bug, not a failed identity."""


class ZeroDenominatorError(ExactError):
    """Raised on division by the zero rational function."""


class DivergentLimitError(ExactError):
    """Raised when a t -> 0 or t -> oo limit does not exist.

    Carries the offending t-valuations (or t-degrees) of numerator and
    denominator so the failure is diagnosable.
    """

    def __init__(self, message, num_val=None, den_val=None):
        super().__init__(message)
        self.num_val = num_val
        self.den_val = den_val


class DivergentPochhammerError(ExactError):
    """Raised for (a; q)_oo when infinitely many factors differ from 1."""


def _frac(x):
    return x if isinstance(x, Fraction) else Fraction(x)


def _coeff(x):
    """Normalize a polynomial coefficient: integers stay machine integers
    (int and Fraction hash and compare consistently), non-integral rationals
    stay Fractions."""
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def _exact_scalar_div(a, b):
    if isinstance(a, int) and isinstance(b, int):
        v = Fraction(a, b)
    else:
        v = Fraction(a.numerator * b.denominator, a.denominator * b.numerator)
    return v.numerator if v.denominator == 1 else v


# ---------------------------------------------------------------------------
# univariate polynomials in q
# ---------------------------------------------------------------------------

class QPoly:
    """Polynomial in q with rational coefficients, dense representation.

    ``coeffs[i]`` is the coefficient of q^i; no trailing zeros are stored,
    and the zero polynomial has an empty coefficient tuple.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_coeff(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls):
        return cls(())

    @classmethod
    def one(cls):
        return cls((1,))

    @classmethod
    def gen(cls):
        return cls((0, 1))

    @classmethod
    def monomial(cls, k, c=1):
        return cls((0,) * k + (c,))

    @property
    def is_zero(self):
        return not self.coeffs

    def degree(self):
        return len(self.coeffs) - 1

    def valuation(self):
        if self.is_zero:
            raise ExactError("valuation of zero polynomial")
        for i, c in enumerate(self.coeffs):
            if c != 0:
                return i
        raise AssertionError

    def __getitem__(self, i):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return 0

    def __add__(self, other):
        if not isinstance(other, QPoly):
            other = QPoly((other,))
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return QPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return QPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        if not isinstance(other, QPoly):
            other = QPoly((other,))
        return self + (-other)

    def __rsub__(self, other):
        return QPoly((other,)) - self

    def __mul__(self, other):
        if not isinstance(other, QPoly):
            other = QPoly((other,))
        if self.is_zero or other.is_zero:
            return QPoly(())
        a, b = self.coeffs, other.coeffs
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca == 0:
                continue
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return QPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        result = QPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def scale(self, c):
        c = _coeff(c)
        return QPoly(tuple(x * c for x in self.coeffs))

    def shift(self, k):
        """Multiply by q^k (k >= 0)."""
        if self.is_zero:
            return self
        return QPoly((0,) * k + self.coeffs)

    def divmod(self, other):
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        db, lb = other.degree(), other.coeffs[-1]
        quo = [0] * max(0, len(rem) - db)
        while len(rem) - 1 >= db and rem:
            if rem[-1] == 0:
                rem.pop()
                continue
            k = len(rem) - 1 - db
            f = rem[-1] if lb == 1 else _exact_scalar_div(rem[-1], lb)
            quo[k] = f
            for i, c in enumerate(other.coeffs):
                rem[k + i] -= f * c
            rem.pop()
        return QPoly(quo), QPoly(rem)

    def exact_div(self, other):
        q, r = self.divmod(other)
        if not r.is_zero:
            raise ExactError("inexact polynomial division")
        return q

    def gcd(self, other):
        """Monic gcd over the rationals (integer primitive remainders)."""
        a, b = _int_prim(self), _int_prim(other)
        if a is None:
            a = b
            b = None
        if a is None:
            return QPoly.zero()
        while b:
            if len(b) > len(a):
                a, b = b, a
            # primitive pseudo-remainder
            r = list(a)
            lb = b[-1]
            while len(r) >= len(b) and r:
                if r[-1] == 0:
                    r.pop()
                    continue
                lr = r[-1]
                g = _gcd_int(lr, lb)
                m1, m2 = lb // g, lr // g
                k = len(r) - len(b)
                for i in range(len(r)):
                    r[i] *= m1
                for i, c in enumerate(b):
                    r[k + i] -= m2 * c
                while r and r[-1] == 0:
                    r.pop()
            a, b = b, (_prim_int_list(r) if r else None)
        if a[-1] < 0:
            a = [-c for c in a]
        return QPoly(a).scale(Fraction(1, a[-1]) if a[-1] != 1 else 1)

    def __call__(self, x):
        x = _frac(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other):
        if isinstance(other, QPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == QPoly((other,))
        return NotImplemented

    def __hash__(self):
        return hash(("QPoly", self.coeffs))

    def __repr__(self):
        return f"QPoly({list(self.coeffs)!r})"

    def __str__(self):
        return q_text(self.coeffs)


def q_text(coeffs):
    """Text of sum_i coeffs[i] q^i, zero coefficients skipped ("0" if all
    are zero): the rendering of a QPoly and of a QSeries' coefficients."""
    parts = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
        else:
            head = "" if c == 1 else ("-" if c == -1 else f"{c}*")
            parts.append(f"{head}q" + (f"^{i}" if i > 1 else ""))
    return " + ".join(parts).replace("+ -", "- ") if parts else "0"


def _gcd_int(a, b):
    return math.gcd(a, b) or 1


def _prim_int_list(coeffs):
    g = 0
    for c in coeffs:
        g = math.gcd(g, c)
    if g == 0:
        return None
    return [c // g for c in coeffs]


def _int_prim(p):
    """Integer primitive coefficient list of a QPoly, or None for zero."""
    if p.is_zero:
        return None
    den = 1
    for c in p.coeffs:
        den = math.lcm(den, c.denominator)
    ints = [int(c * den) for c in p.coeffs]
    return _prim_int_list(ints)


def qq_pochhammer_poly(m):
    """(q; q)_m as a QPoly."""
    p = QPoly.one()
    for i in range(1, m + 1):
        p = p * QPoly((1,) + (0,) * (i - 1) + (-1,))
    return p


def gaussian_binomial(m, a):
    """The Gaussian binomial [m choose a]_q as a QPoly."""
    if a < 0 or a > m:
        return QPoly.zero()
    num = QPoly.one()
    for i in range(m - a + 1, m + 1):
        num = num * QPoly((1,) + (0,) * (i - 1) + (-1,))
    return num.exact_div(qq_pochhammer_poly(a))


# ---------------------------------------------------------------------------
# polynomials in (q, t): sparse, {(q_exp, t_exp): coefficient}
# ---------------------------------------------------------------------------

def _clean(m):
    """m without its zero coefficients, integral Fractions made ints."""
    return {k: v.numerator if type(v) is Fraction and v.denominator == 1 else v
            for k, v in m.items() if v}


def _qpoly(row):
    """The QPoly of a sparse row {q_exp: coefficient} of a QTPoly, whose
    coefficients are already nonzero and normalized."""
    p = QPoly.__new__(QPoly)
    p.coeffs = tuple(row.get(i, 0) for i in range(max(row, default=-1) + 1))
    return p


class QTPoly:
    """Polynomial in (q, t) with rational coefficients, stored sparse.

    ``m`` maps (q_exp, t_exp) to a nonzero coefficient: an int, or a
    Fraction where it is not integral.  The constructor trusts ``m`` to be
    in that form.  Only ``add_inplace`` changes a QTPoly, one that its
    caller has just built; the numerator and denominator of a QTRational
    never change.  The t-rows (``tcoeff``, ``tcoeffs``) are QPoly views
    built on demand, for rendering and for the general gcd.
    """

    __slots__ = ("m",)

    def __init__(self, m=None):
        self.m = m if m is not None else {}

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({(0, 0): 1})

    @classmethod
    def q(cls):
        return cls({(1, 0): 1})

    @classmethod
    def t(cls):
        return cls({(0, 1): 1})

    @classmethod
    def from_qpoly(cls, p):
        return cls({(i, 0): c for i, c in enumerate(p.coeffs) if c})

    @classmethod
    def term(cls, c, i, j):
        """c * q^i * t^j."""
        c = _coeff(c)
        return cls({(i, j): c} if c else {})

    @classmethod
    def one_minus_qt(cls, a, d):
        """1 - q^a t^d with a >= 0, d >= 0."""
        return cls.one().mul_one_minus_qt(a, d)

    @property
    def is_zero(self):
        return not self.m

    def tdegree(self):
        return max((j for _, j in self.m), default=-1)

    def qdegree(self):
        return max((i for i, _ in self.m), default=-1)

    def tvaluation(self):
        if self.is_zero:
            raise ExactError("t-valuation of zero polynomial")
        return min(j for _, j in self.m)

    def tcoeff(self, j):
        """The coefficient of t^j, a QPoly."""
        return _qpoly({i: c for (i, k), c in self.m.items() if k == j})

    @property
    def tcoeffs(self):
        """The t-rows: the QPoly coefficients of t^0, ..., t^tdegree."""
        rows = {}
        for (i, j), c in self.m.items():
            rows.setdefault(j, {})[i] = c
        return tuple(_qpoly(rows.get(j, {}))
                     for j in range(max(rows, default=-1) + 1))

    def copy(self):
        return QTPoly(dict(self.m))

    def add_inplace(self, other, sign=1):
        """self += sign * other, in place; returns self.  Like
        ``mul_one_minus_qt`` it keeps an integral sum of Fractions a
        Fraction: the numerators built in place are integer, and
        ``__add__`` and ``__sub__`` normalize."""
        m = self.m
        for k, v in other.m.items():
            nv = m.get(k, 0) + sign * v
            if nv:
                m[k] = nv
            else:
                m.pop(k, None)
        return self

    def __add__(self, other):
        return QTPoly(_clean(self.copy().add_inplace(other).m))

    def __neg__(self):
        return QTPoly({k: -v for k, v in self.m.items()})

    def __sub__(self, other):
        return QTPoly(_clean(self.copy().add_inplace(other, -1).m))

    def __mul__(self, other):
        out = {}
        for (i, j), a in self.m.items():
            for (k, l), b in other.m.items():
                key = (i + k, j + l)
                out[key] = out.get(key, 0) + a * b
        return QTPoly(_clean(out))

    def scale(self, c):
        c = _coeff(c)
        return QTPoly(_clean({k: v * c for k, v in self.m.items()}))

    def mul_one_minus_qt(self, a, d):
        """Multiply by 1 - q^a t^d."""
        out = dict(self.m)
        for (i, j), v in self.m.items():
            k = (i + a, j + d)
            nv = out.get(k, 0) - v
            if nv:
                out[k] = nv
            else:
                out.pop(k, None)
        return QTPoly(out)

    def eval_qt(self, qv, tv):
        qv, tv = _frac(qv), _frac(tv)
        return sum((c * qv ** i * tv ** j for (i, j), c in self.m.items()),
                   _ZERO)

    def lex_leading(self):
        """(t-degree, q-degree, coefficient) of the lex-leading term, q < t."""
        if self.is_zero:
            raise ExactError("leading term of zero polynomial")
        j, i = max((j, i) for i, j in self.m)
        return j, i, self.m[(i, j)]

    def __eq__(self, other):
        if isinstance(other, QTPoly):
            return self.m == other.m
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.m.items()))

    def __repr__(self):
        return f"QTPoly({[str(c) for c in self.tcoeffs]})"

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for j, c in enumerate(self.tcoeffs):
            if c.is_zero:
                continue
            if j == 0:
                parts.append(f"({c})")
            else:
                parts.append(f"({c})*t" + (f"^{j}" if j > 1 else ""))
        return " + ".join(parts)


# -- the general gcd, on t-rows: tuples of QPoly indexed by t-degree ---------

def _row_content(rows):
    """Monic gcd over Q[q] of the rows."""
    g = QPoly.zero()
    for c in rows:
        g = g.gcd(c)
        if g.degree() == 0:
            break
    return g


def _row_div(rows, g):
    """The rows divided by a common factor g (zero g: all rows zero)."""
    if g.is_zero or g == QPoly.one():
        return rows
    return tuple(c.exact_div(g) for c in rows)


def _pseudo_rem_rows(a, b):
    """Pseudo-remainder of the rows a by the rows b in (Q[q])[t]."""
    db, lb = len(b) - 1, b[-1]
    r = list(a)
    while len(r) - 1 >= db:
        s, k = r[-1], len(r) - 1 - db
        r = [c * lb for c in r]
        for i, c in enumerate(b):
            r[k + i] = r[k + i] - s * c
        while r and r[-1].is_zero:
            r.pop()
    return tuple(r)


def _t_parts_coprime(a, b):
    """True when the t-primitive rows a, b are provably coprime, by a
    gcd of the specializations at a random rational q (sound: for q0 with a
    nonvanishing t-leading coefficient, the specialized gcd degree bounds
    the true gcd degree from above)."""
    for q0 in (Fraction(3, 2), Fraction(-5, 7), Fraction(11, 4)):
        la = a[-1](q0)
        lb = b[-1](q0)
        if la == 0 and lb == 0:
            continue
        fa = QPoly([c(q0) for c in a])
        fb = QPoly([c(q0) for c in b])
        if fa.gcd(fb).degree() == 0:
            return True
        return False
    return False


def qtpoly_gcd(a, b):
    """Gcd in Q[q, t] via the Euclidean algorithm in (Q(q))[t], lex-monic.

    Computed on the t-rows of a and b, fraction-free with primitive
    pseudo-remainder sequences and a separate gcd of q-contents; a
    coprimality certificate by specialization short-circuits the common
    case.
    """
    if a.is_zero:
        return b
    if b.is_zero:
        return a
    ra, rb = a.tcoeffs, b.tcoeffs
    ca, cb = _row_content(ra), _row_content(rb)
    cont = ca.gcd(cb)
    pa, pb = _row_div(ra, ca), _row_div(rb, cb)
    if len(pa) > 1 and len(pb) > 1 and _t_parts_coprime(pa, pb):
        return QTPoly.from_qpoly(cont)
    if len(pa) < len(pb):
        pa, pb = pb, pa
    while pb:
        r = _pseudo_rem_rows(pa, pb)
        pa, pb = pb, _row_div(r, _row_content(r))
    g = _row_div(pa, _row_content(pa))
    # lex-monic: the q-leading coefficient of the t-leading row is 1
    lead = g[-1].coeffs[-1]
    unit = cont if lead == 1 else cont.scale(_ONE / _frac(lead))
    return QTPoly({(i, j): c for j, row in enumerate(g)
                   for i, c in enumerate((row * unit).coeffs) if c})


# ---------------------------------------------------------------------------
# rational functions in (q, t)
# ---------------------------------------------------------------------------

class QTRational:
    """Reduced fraction of (q, t)-polynomials.

    Canonical form: num/den gcd-free, denominator's lex-leading coefficient
    (order q < t) equal to 1.  Structural equality then decides mathematical
    equality.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den, _normalized=False):
        if _normalized:
            self.num = num
            self.den = den
            return
        f = normalize_qt(num, den)
        self.num = f.num
        self.den = f.den

    @classmethod
    def zero(cls):
        return cls(QTPoly.zero(), QTPoly.one(), _normalized=True)

    @classmethod
    def one(cls):
        return cls(QTPoly.one(), QTPoly.one(), _normalized=True)

    @classmethod
    def q(cls):
        return cls(QTPoly.q(), QTPoly.one(), _normalized=True)

    @classmethod
    def t(cls):
        return cls(QTPoly.t(), QTPoly.one(), _normalized=True)

    @classmethod
    def from_int(cls, n):
        return cls(QTPoly.term(n, 0, 0), QTPoly.one(), _normalized=True)

    @classmethod
    def from_qtpoly(cls, p):
        return cls(p, QTPoly.one())

    @property
    def is_zero(self):
        return self.num.is_zero

    def __add__(self, other):
        other = _coerce_qtr(other)
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        # Henrici: with g = gcd(b, d), a/b + c/d = (a d' + c b') / (b' d' g)
        # for b = b' g, d = d' g; a d' + c b' is prime to b' d', so only
        # gcd(a d' + c b', g) is left to cancel
        g = qtpoly_gcd(self.den, other.den)
        b, d = _cancel(self.den, g), _cancel(other.den, g)
        num = self.num * d + other.num * b
        if num.is_zero:
            return QTRational.zero()
        h = qtpoly_gcd(num, g)
        return _unit_normalized(_cancel(num, h), b * d * _cancel(g, h))

    __radd__ = __add__

    def __neg__(self):
        return QTRational(-self.num, self.den, _normalized=True)

    def __sub__(self, other):
        return self + (-_coerce_qtr(other))

    def __rsub__(self, other):
        return _coerce_qtr(other) + (-self)

    def __mul__(self, other):
        other = _coerce_qtr(other)
        if self.is_zero or other.is_zero:
            return QTRational.zero()
        # Henrici: each numerator can share factors only with the other
        # denominator
        g, h = qtpoly_gcd(self.num, other.den), qtpoly_gcd(other.num, self.den)
        return _unit_normalized(_cancel(self.num, g) * _cancel(other.num, h),
                                _cancel(self.den, h) * _cancel(other.den, g))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce_qtr(other)
        if other.is_zero:
            raise ZeroDenominatorError("division by zero rational function")
        return QTRational(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return _coerce_qtr(other) / self

    def inverse(self):
        if self.is_zero:
            raise ZeroDenominatorError("division by zero rational function")
        return QTRational(self.den, self.num)

    def eval_qt(self, qv, tv):
        d = self.den.eval_qt(qv, tv)
        if d == 0:
            raise ZeroDenominatorError("denominator vanishes at evaluation point")
        return self.num.eval_qt(qv, tv) / d

    def subs_t0(self):
        """Substitute t = 0 (denominator must not vanish at t = 0)."""
        d0 = self.den.tcoeff(0)
        if d0.is_zero:
            raise DivergentLimitError("denominator vanishes at t=0",
                                      num_val=None, den_val=self.den.tvaluation())
        return QTRational(QTPoly.from_qpoly(self.num.tcoeff(0)),
                          QTPoly.from_qpoly(d0))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, QTPoly)):
            other = _coerce_qtr(other)
        if isinstance(other, QTRational):
            return self.num == other.num and self.den == other.den
        return NotImplemented

    def __hash__(self):
        return hash(("QTRational", self.num, self.den))

    def __repr__(self):
        if self.den == QTPoly.one():
            return f"({self.num})"
        return f"({self.num}) / ({self.den})"


def _coerce_qtr(x):
    if isinstance(x, QTRational):
        return x
    if isinstance(x, QTPoly):
        return QTRational.from_qtpoly(x)
    if isinstance(x, QPoly):
        return QTRational.from_qtpoly(QTPoly.from_qpoly(x))
    if isinstance(x, (int, Fraction)):
        return QTRational(QTPoly.term(x, 0, 0), QTPoly.one())
    raise TypeError(f"cannot coerce {type(x)} to QTRational")


def normalize_qt(num, den):
    """Canonical reduced representative of num/den in Q(q, t).

    Satisfies normalize_qt(a*c, b*c) == normalize_qt(a, b) for nonzero c.
    """
    if den.is_zero:
        raise ZeroDenominatorError("division by zero rational function")
    if num.is_zero:
        return QTRational(QTPoly.zero(), QTPoly.one(), _normalized=True)
    g = qtpoly_gcd(num, den)
    return _unit_normalized(_cancel(num, g), _cancel(den, g))


def _cancel(p, g):
    """p / g for a lex-monic gcd g of p and another QTPoly (p itself when g
    is a constant)."""
    if g.tdegree() > 0 or g.qdegree() > 0:
        return _divide_exact(p, g)
    return p


def _unit_normalized(num, den):
    """num/den for a gcd-free pair, scaled so that the denominator's
    lex-leading coefficient is 1."""
    _, _, lead = den.lex_leading()
    if lead != 1:
        inv = Fraction(1) / _frac(lead)
        num = num.scale(inv)
        den = den.scale(inv)
    return QTRational(num, den, _normalized=True)


# ---------------------------------------------------------------------------
# fractions over binomials 1 - q^a t^d: reduction by cyclotomic factors
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _cyclotomic(k):
    """Coefficients of the cyclotomic polynomial Phi_k(u), constant first."""
    p = QPoly((-1,) + (0,) * (k - 1) + (1,))
    for j in range(1, k):
        if k % j == 0:
            p = p.exact_div(QPoly(_cyclotomic(j)))
    return p.coeffs


def _divide_exact(num, divisor):
    """num / divisor for QTPolys, by sparse long division in lex order (t
    first, then q), or None when divisor does not divide num.

    The divisor must be lex-monic (lex-leading coefficient 1), so that
    every quotient coefficient is a remainder coefficient.  In an exact
    division the leading term of every remainder is a multiple of the
    divisor's, so the first one that is not decides."""
    lj, li, lead = divisor.lex_leading()
    if lead != 1:
        raise ExactError("exact division by a divisor that is not lex-monic")
    rest = [(k, x) for k, x in divisor.m.items() if k != (li, lj)]
    rem = dict(num.m)
    heap = [(-j, -i) for i, j in rem]
    heapq.heapify(heap)
    quo = {}
    while heap:
        nj, ni = heapq.heappop(heap)
        c = rem.pop((-ni, -nj))
        if not c:
            continue
        i, j = -ni - li, -nj - lj
        if i < 0 or j < 0:
            return None
        quo[(i, j)] = (c.numerator if type(c) is Fraction and c.denominator == 1
                       else c)
        # every new term is lex-below the one just removed
        for (di, dj), x in rest:
            m = (i + di, j + dj)
            if m in rem:
                rem[m] -= c * x
            else:
                rem[m] = -c * x
                heapq.heappush(heap, (-m[1], -m[0]))
    return QTPoly(quo)


def _binomial_factors(binomials):
    """The cyclotomic factors of prod (1 - q^a t^d) over the pairs (a, d),
    a, d >= 0, as a Counter of (k, alpha, beta), one for each factor
    Phi_k(q^alpha t^beta).

    With g = gcd(a, d) and u = q^{a/g} t^{d/g},

        1 - u^g = -prod_{k | g} Phi_k(u),

    and each Phi_k(q^alpha t^beta) with gcd(alpha, beta) = 1 is irreducible
    over Q: a unimodular change of variables of the Laurent ring maps it to
    Phi_k(u).  Factors of different (k, alpha, beta) are not associate.
    Each is lex-monic, as Phi_k is monic.

    A binomial (0, 0) is 1 - 1 = 0 and raises ZeroDenominatorError."""
    factors = Counter()
    for a, d in binomials:
        if a < 0 or d < 0:
            raise ExactError(f"binomial 1 - q^{a} t^{d}: negative exponent")
        if a == 0 and d == 0:
            raise ZeroDenominatorError("binomial 1 - q^0 t^0 is zero")
        g = math.gcd(a, d)
        factors.update((k, a // g, d // g) for k in range(1, g + 1)
                       if g % k == 0)
    return factors


def _phi(k, alpha, beta):
    """Phi_k(q^alpha t^beta) as a QTPoly."""
    return QTPoly({(alpha * e, beta * e): c
                   for e, c in enumerate(_cyclotomic(k)) if c})


def reduce_over_binomials(num, binomials):
    """The canonical QTRational of num / prod (1 - q^a t^d).

    ``num`` is a sparse integer polynomial {(q_exp, t_exp): int} with
    nonnegative exponents; ``binomials`` lists the pairs (a, d), a, d >= 0.

    Dividing num by each cyclotomic factor of the binomials
    (``_binomial_factors``), as often as it occurs and as long as it
    divides, leaves a numerator coprime to the factors kept.  That is the
    gcd-free form; every division is exact and in integers, because each
    Phi_k is monic.  The kept factors multiply out to a denominator with
    lex-leading coefficient 1, and the signs of the binomials go to the
    numerator: the canonical form of ``QTRational``, with no general gcd."""
    factors = _binomial_factors(binomials)
    num = QTPoly({m: c for m, c in num.items() if c})
    if num.is_zero:
        return QTRational.zero()
    den = QTPoly.one()
    for (k, alpha, beta), count in factors.items():
        phi = _phi(k, alpha, beta)
        while count:
            quo = _divide_exact(num, phi)
            if quo is None:
                break
            num = quo
            count -= 1
        for _ in range(count):
            den = den * phi
    if len(binomials) % 2:
        num = -num
    return QTRational(num, den, _normalized=True)


def _expand(factors):
    """The product of the factors Phi_k(q^alpha t^beta) of a Counter
    {(k, alpha, beta): count}.  Where every factor of a binomial is there,
    prod_{k | g} Phi_k(u) = -(1 - u^g) multiplies in by one shift and
    subtraction (``mul_one_minus_qt``), largest g first; the factors left
    multiply in as they are."""
    product, negate = QTPoly.one(), False
    for k, alpha, beta in sorted(factors, reverse=True):
        group = [(j, alpha, beta) for j in range(1, k + 1) if k % j == 0]
        times = min(factors[f] for f in group)
        for f in group:
            factors[f] -= times
        for _ in range(times):
            product = product.mul_one_minus_qt(alpha * k, beta * k)
        negate ^= times % 2
    for factor, count in factors.items():
        for _ in range(count):
            product = product * _phi(*factor)
    return -product if negate else product


def binomial_ratio(top, bottom):
    """The canonical QTRational of prod (1 - q^a t^d) over the pairs
    ``top`` divided by the same product over ``bottom``.

    Both products split into their cyclotomic factors
    (``_binomial_factors``); a factor on both sides cancels, count against
    count, and each side multiplies out what is left (``_expand``), with
    no division.  The factors left on the two sides are distinct
    irreducibles, so the fraction is gcd-free, and a product of lex-monic
    factors is lex-monic.  Each binomial is -prod Phi_k, so the numerator
    takes the sign (-1)^(number of binomials)."""
    count = _binomial_factors(top)
    count.subtract(_binomial_factors(bottom))
    num = _expand(+count)
    if (len(top) + len(bottom)) % 2:
        num = -num
    return QTRational(num, _expand(-count), _normalized=True)


def limit_t(f, direction):
    """Exact limit of f in Q(q, t) as t -> 0 ('zero') or t -> oo ('infinity').

    Returns a QTRational free of t.  Raises DivergentLimitError, carrying the
    offending valuations, when the limit does not exist.
    """
    if f.is_zero:
        return QTRational.zero()
    if direction == "zero":
        vn, vd = f.num.tvaluation(), f.den.tvaluation()
        if vn < vd:
            raise DivergentLimitError(
                f"t->0 limit diverges: numerator t-valuation {vn} < denominator {vd}",
                num_val=vn, den_val=vd)
        if vn > vd:
            return QTRational.zero()
        return QTRational(QTPoly.from_qpoly(f.num.tcoeff(vn)),
                          QTPoly.from_qpoly(f.den.tcoeff(vd)))
    if direction == "infinity":
        dn, dd = f.num.tdegree(), f.den.tdegree()
        if dn > dd:
            raise DivergentLimitError(
                f"t->oo limit diverges: numerator t-degree {dn} > denominator {dd}",
                num_val=dn, den_val=dd)
        if dn < dd:
            return QTRational.zero()
        return QTRational(QTPoly.from_qpoly(f.num.tcoeff(dn)),
                          QTPoly.from_qpoly(f.den.tcoeff(dd)))
    raise ValueError(f"unknown limit direction {direction!r}")


def invert_q(f, invert_t=False):
    """Substitute q -> 1/q (and optionally t -> 1/t), clearing negative powers.

    Involutive: invert_q(invert_q(f)) == f.

    Both sides go through one exponent map, q^i t^j -> q^(dq - i) t^j
    (q^(dq - i) t^(dt - j) when t is inverted), with dq and dt the larger
    q- and t-degree of numerator and denominator: f(1/q) is
    q^dq num(1/q) / (q^dq den(1/q)).

    The image of a canonical f is gcd-free and needs only the unit
    normalization, no gcd.  q -> 1/q (and t -> 1/t) is an automorphism of
    the Laurent ring Q[q^+-1, t^+-1], so the reversed numerator and
    denominator have no common factor there; in Q[q, t] a common factor
    could only be q (or t).  But the side of q-degree dq maps to a
    polynomial of q-valuation 0 (the side of t-degree dt to one of
    t-valuation 0), so q (t) divides at most one side.
    """
    if f.is_zero:
        return f
    dq = max(f.num.qdegree(), f.den.qdegree())
    dt, sign = (max(f.num.tdegree(), f.den.tdegree()), -1) if invert_t else (0, 1)

    def image(p):
        return QTPoly({(dq - i, dt + sign * j): c for (i, j), c in p.m.items()})

    return _unit_normalized(image(f.num), image(f.den))


# ---------------------------------------------------------------------------
# truncated q-series
# ---------------------------------------------------------------------------

class QSeries:
    """q-power series truncated at cap K: coefficients of q^0 .. q^K.

    Arithmetic between series of caps K1, K2 yields cap min(K1, K2);
    coefficients above the cap are never consulted.
    """

    __slots__ = ("cap", "coeffs")

    def __init__(self, cap, coeffs=()):
        if cap < 0:
            raise ValueError("cap must be >= 0")
        self.cap = cap
        cs = [int(c) if type(c) is Fraction and c.denominator == 1 else c
              for c in list(coeffs)[: cap + 1]]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls, cap):
        return cls(cap, ())

    @classmethod
    def one(cls, cap):
        return cls(cap, (1,))

    @classmethod
    def from_qpoly(cls, p, cap):
        return cls(cap, p.coeffs)

    @classmethod
    def from_int(cls, n, cap):
        return cls(cap, (n,))

    @property
    def is_zero(self):
        return not self.coeffs

    def __getitem__(self, i):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return 0

    def _meet(self, other):
        return min(self.cap, other.cap)

    def __add__(self, other):
        if isinstance(other, int):
            other = QSeries.from_int(other, self.cap)
        cap = self._meet(other)
        n = cap + 1
        a, b = self.coeffs[:n], other.coeffs[:n]
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return QSeries(cap, out)

    __radd__ = __add__

    def __neg__(self):
        return QSeries(self.cap, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        if isinstance(other, int):
            other = QSeries.from_int(other, self.cap)
        return self + (-other)

    def __rsub__(self, other):
        return QSeries.from_int(other, self.cap) - self

    def __mul__(self, other):
        if isinstance(other, int):
            return QSeries(self.cap, tuple(c * other for c in self.coeffs))
        cap = self._meet(other)
        if self.is_zero or other.is_zero:
            return QSeries.zero(cap)
        out = [0] * (cap + 1)
        for i, ca in enumerate(self.coeffs):
            if i > cap:
                break
            if ca == 0:
                continue
            top = min(len(other.coeffs), cap + 1 - i)
            for j in range(top):
                cb = other.coeffs[j]
                if cb:
                    out[i + j] += ca * cb
        return QSeries(cap, out)

    __rmul__ = __mul__

    def shift(self, k):
        """Multiply by q^k (k >= 0)."""
        if k < 0:
            raise ValueError(f"negative q-shift {k}")
        return QSeries(self.cap, (0,) * k + self.coeffs)

    def inverse(self):
        """Multiplicative inverse; constant term must be a unit (nonzero)."""
        c0 = self[0]
        if c0 == 0:
            raise ExactError("series not invertible: zero constant term")
        inv0 = c0 if isinstance(c0, int) and abs(c0) == 1 else Fraction(1) / c0
        out = [inv0] + [0] * self.cap
        for k in range(1, self.cap + 1):
            s = 0
            for j in range(1, min(k, len(self.coeffs) - 1) + 1):
                s += self[j] * out[k - j]
            out[k] = -inv0 * s
        return QSeries(self.cap, out)

    def truncate(self, cap):
        return QSeries(cap, self.coeffs)

    def is_nonnegative(self):
        return all(c >= 0 for c in self.coeffs)

    def __eq__(self, other):
        if isinstance(other, QSeries):
            return self.cap == other.cap and self.coeffs == other.coeffs
        if isinstance(other, int):
            return self == QSeries.from_int(other, self.cap)
        return NotImplemented

    def __hash__(self):
        return hash(("QSeries", self.cap, self.coeffs))

    def __repr__(self):
        return f"QSeries(cap={self.cap}, {list(self.coeffs)})"


class PackedQ:
    r"""Integer q-series truncated at ``cap``, packed into one Python int
    (Kronecker substitution): the coefficients c_0, c_1, ... become
    sum_k c_k 2^{B k} for a slot width of B bits, so a product of series is
    one integer product and a sum one integer sum.

    Soundness.  P |-> P(2^B) mod 2^{B (cap + 1)} is a ring homomorphism
    from Z[q] that kills q^{cap + 1}, so products, sums and ``mask`` (the
    low B (cap + 1) bits) may be taken in any order and the masked value is
    the image of the truncated exact result.  Unpacking takes centered
    residues slot by slot, which inverts that image on every coefficient
    list with |c_k| < 2^{B - 1}.  ``bound`` is a caller's bound on the
    absolute value of every coefficient to be unpacked or compared, not on
    intermediate values; B is ``bound.bit_length() + 2``, so |c_k| <=
    bound < 2^{B - 2}.  That bit of margin makes comparison exact: the
    difference of two such lists has |c_k| < 2^{B - 1}, so they are equal
    iff their masked values are.
    """

    __slots__ = ("width", "cap", "mask", "bias")

    def __init__(self, bound, cap):
        self.width = bound.bit_length() + 2
        self.cap = cap
        self.mask = (1 << self.width * (cap + 1)) - 1
        self.bias = self.mask // ((1 << self.width) - 1) << (self.width - 1)

    def pack(self, coeffs):
        """sum_k coeffs[k] 2^{B k} for integer coefficients; a coefficient
        that is not an int raises ExactError."""
        value = 0
        for c in reversed(coeffs):
            if type(c) is not int:
                raise ExactError(f"cannot pack non-integer coefficient {c!r}")
            value = (value << self.width) + c
        return value

    def unpack(self, value):
        """The QSeries at ``cap`` whose packed image is ``value`` modulo
        q^{cap + 1}: the low slots, each read as a centered residue."""
        # adding half a slot to every slot makes each slot c_k + 2^{B-1},
        # which lies in [0, 2^B): no slot borrows from the next
        width = self.width
        slot = (1 << width) - 1
        half = 1 << (width - 1)
        value = (value + self.bias) & self.mask
        out = []
        for _ in range(self.cap + 1):
            out.append((value & slot) - half)
            value >>= width
        while out and not out[-1]:
            out.pop()
        # the slots are ints, so the series needs none of __init__'s checks
        series = QSeries.__new__(QSeries)
        series.cap, series.coeffs = self.cap, tuple(out)
        return series


def l1_mass(coeffs):
    """sum |c| over the coefficients: bounds every coefficient of a product
    by the product of the factors' masses."""
    return sum(abs(c) for c in coeffs)


def geometric_series(exponent, cap):
    """1 / (1 - q^exponent) truncated at cap; exponent >= 1."""
    return geometric_product((exponent,), cap)


def geometric_product(exponents, cap):
    """prod over the exponents d of 1 / (1 - q^d), truncated at cap; every
    d >= 1.  Multiplying by 1 / (1 - q^d) is c[k] += c[k - d] for k >= d,
    in place and in increasing k, and a factor with d > cap is 1 modulo
    q^{cap+1}."""
    out = [1] + [0] * cap
    for d in exponents:
        if d < 1:
            raise ExactError("geometric series needs exponent >= 1")
        for k in range(d, cap + 1):
            out[k] += out[k - d]
    return QSeries(cap, out)


def inv_pochhammer_qq(m, cap):
    """1 / (q; q)_m truncated at cap: the product of 1 / (1 - q^d) for
    d = 1 .. m."""
    return geometric_product(range(1, m + 1), cap)


def qseries_from_qtrational(f, cap):
    """Expand a t-free QTRational as a truncated q-series."""
    if f.is_zero:
        return QSeries.zero(cap)
    if f.num.tdegree() > 0 or f.den.tdegree() > 0:
        raise ExactError("QTRational involves t; cannot expand as q-series")
    num = QSeries.from_qpoly(f.num.tcoeff(0), cap)
    den = QSeries.from_qpoly(f.den.tcoeff(0), cap)
    if den[0] == 0:
        raise ExactError("q-series expansion needs nonzero constant term in denominator")
    return num * den.inverse()
