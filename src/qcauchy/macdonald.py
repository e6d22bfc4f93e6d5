r"""Nonsymmetric Macdonald polynomials of type GL_n and their specializations.

Two independent construction paths are provided:

* ``macdonald_E``          -- the intertwiner recursion,
* ``macdonald_E_fillings`` -- a weighted sum over non-attacking fillings,

both in the convention pinned operationally by monicity at x^lam, stability
E_{lam + m*1} = (x_1...x_n)^m E_lam, and validity of the (q,t) Cauchy kernel
expansion at small truncation (exercised by the test suite).

The recursion uses the Demazure-Lusztig operator

    T_i f = t f - (t x_i - x_{i+1}) (f - s_i f) / (x_i - x_{i+1}),

the raising step

    E_{Phi mu} = q^{mu_n} x_1 E_mu(x_2, ..., x_n, q^{-1} x_1),
    Phi mu = (mu_n + 1, mu_1, ..., mu_{n-1}),

and, for mu_i > mu_{i+1},

    E_{s_i mu} = (T_i + (1 - t) / (1 - q^{mu_i - mu_{i+1}} t^{d})) E_mu,
    d = k_mu(i+1) - k_mu(i),
    k_mu(i) = #{j < i : mu_j > mu_i} + #{j > i : mu_j >= mu_i}.

Coefficients are carried with a factored common denominator (a product of
binomials 1 - q^a t^d), which keeps the recursion entirely in integer
arithmetic; reduced QTRational coefficients are produced on demand, by
trial division over the binomials' cyclotomic factors.

The t = 0 and (q^{-1}, infinity) specializations, and their q^0 corners,
have one production path: two rules of one dynamic program over the
columns of the fillings formula, ``_packed_column_terms``, which counts on
packed q-series, one per weight.  ``e_t0_table`` (``T0Engine``) and
``e_atom_table`` (``atom_terms``) unpack its counts into QSeries once, at
the end (``_column_terms``), for the sl identity, the characters, the
rank-one suite and the command line; ``packed_tables`` hands them on
packed to the gl identities and ch T, at a slot width the caller fixed
from ``_fillings_bound``.  ``specialize_E`` of the exact ``macdonald_E``,
which comes from the intertwiner recursion and not from fillings, is kept
as their test oracle.
Given a ``floor`` F, both tables keep only the monomials x^w with min(w)
>= F: the column program drops each partial filling that can no longer
reach such a weight, and the pruned table is the full table restricted to
those monomials.  The sl identity reads them with F = ceil((|lam| - W) /
n), the monomials whose min-zero class w - min(w)*1 has degree <= W.
``_window_cost`` bounds the q-valuation of every monomial with min(w) >= F
from below.  At t = 0 a cell holds a value above its row's basement value
only after an ascent in its row, and that ascent costs leg + 1, at least
the number of cells it raises; so a filling of q-degree e raises at most e
cells, while min(w) >= F forces some lam to raise a known number of them.
The atom side is the mirror case, with descents and the cells they lower.
The builders, the cost and the engine read the rank n of lam as len(lam)
(only the column program is told n: lam = 0 has no columns), so one batch
may mix ranks.  The builders run the column program for every lam they
are given; the sl identity reads the cost of both sides to decide which
lam to build and at which caps (see ``identities._sl_budget_hits``).
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .exact import (DivergentLimitError, ExactError, InvariantError, PackedQ,
                    QPoly, QTPoly, QTRational, gaussian_binomial,
                    geometric_product, invert_q, inv_pochhammer_qq, limit_t,
                    reduce_over_binomials)
from .weights import (_as_entries as _as_tuple, arm_leg, diagram,
                      restrict_weight)


def spectral_k(mu, i):
    """k_mu(i) for 0-based position i."""
    return (sum(1 for j in range(i) if mu[j] > mu[i])
            + sum(1 for j in range(i + 1, len(mu)) if mu[j] >= mu[i]))


def recursion_parent(lam):
    """(parent, step) for the deterministic recursion; step is
    ('T', i, delta, d) for an ascent fix at 0-based i, ('PHI',) for the
    cyclic raising, or None at the zero composition."""
    n = len(lam)
    if all(e == 0 for e in lam):
        return None, None
    for i in range(n - 1):
        if lam[i] < lam[i + 1]:
            mu = list(lam)
            mu[i], mu[i + 1] = mu[i + 1], mu[i]
            mu = tuple(mu)
            delta = mu[i] - mu[i + 1]
            d = spectral_k(mu, i + 1) - spectral_k(mu, i)
            return mu, ("T", i, delta, d)
    # weakly decreasing, lam[0] >= 1
    mu = lam[1:] + (lam[0] - 1,)
    return mu, ("PHI",)


def divided_difference(terms, i, add_fn):
    """(f - s_i f)/(x_i - x_{i+1}) on exponent dictionaries.

    ``add_fn(dict, key, coeff, sign)`` accumulates sign*coeff at key."""
    out = {}
    for exps, c in terms.items():
        a, b = exps[i], exps[i + 1]
        if a == b:
            continue
        sign = 1 if a > b else -1
        lo, hi = (b, a) if a > b else (a, b)
        e = list(exps)
        for r in range(hi - lo):
            e[i] = hi - 1 - r
            e[i + 1] = lo + r
            add_fn(out, tuple(e), c, sign)
    return out


# ---------------------------------------------------------------------------
# generic engine: factored denominators, exact integer numerators
# ---------------------------------------------------------------------------

class FactoredE:
    """E_lam with numerator terms over a common factored denominator
    prod (1 - q^a t^d)."""

    __slots__ = ("n", "lam", "terms", "den")

    def __init__(self, n, lam, terms, den):
        self.n = n
        self.lam = lam
        self.terms = terms      # {exps: QTPoly}, Laurent in q
        self.den = den          # tuple of (a, d)

    def den_poly(self):
        dp = QTPoly.one()
        for a, d in self.den:
            dp = dp.mul_one_minus_qt(a, d)
        return dp

    def monic_check(self):
        if self.terms.get(self.lam) != self.den_poly():
            raise InvariantError(f"E_{self.lam} not monic; convention broken")


class GenericMacdonaldEngine:
    """Exact recursion engine, memoized per composition."""

    def __init__(self, n):
        self.n = n
        self.memo = {}

    # -- recursion ---------------------------------------------------------

    def get(self, lam):
        """E_lam, built forward from the first memoized composition on its
        ``recursion_parent`` chain (or from the zero composition); every
        composition on the way is memoized.  The chain is walked in a loop:
        it has at least |lam| steps, more than the interpreter's recursion
        limit allows for a deep composition."""
        lam = _as_tuple(lam)
        if len(lam) != self.n:
            raise ExactError("composition rank mismatch")
        if lam in self.memo:
            return self.memo[lam]
        _compositions([lam])
        chain = []      # (composition, step) from lam down the parents
        cur = lam
        while cur is not None and cur not in self.memo:
            parent, step = recursion_parent(cur)
            chain.append((cur, step))
            cur = parent
        fe = self.memo.get(cur)
        for cur, step in reversed(chain):
            if step is None:
                fe = FactoredE(self.n, cur, {(0,) * self.n: QTPoly.one()}, ())
            elif step[0] == "PHI":
                fe = self._phi_step(fe, cur)
            else:
                fe = self._t_step(fe, cur, step)
            fe.monic_check()
            self.memo[cur] = fe
        return fe

    def _phi_step(self, fe, lam):
        n = self.n
        mu_last = fe.lam[n - 1]
        terms = {}
        for exps, c in fe.terms.items():
            alast = exps[n - 1]
            new_exps = (alast + 1,) + exps[: n - 1]
            terms[new_exps] = c.mul_qpow(mu_last - alast)
        return FactoredE(n, lam, terms, fe.den)

    def _t_step(self, fe, lam, step):
        _, i, delta, d = step

        def add(out, key, c, sign):
            cur = out.get(key)
            if cur is None:
                out[key] = c.copy() if sign == 1 else -c
            else:
                cur.add_inplace(c, sign)
                if cur.is_zero:
                    del out[key]

        dd = divided_difference(fe.terms, i, add)
        # T_i N = t N - t x_i dd + x_{i+1} dd
        tn = {}
        for exps, c in fe.terms.items():
            add(tn, exps, c.mul_t(), 1)
        for exps, c in dd.items():
            e1 = list(exps)
            e1[i] += 1
            add(tn, tuple(e1), c.mul_t(), -1)
            e2 = list(exps)
            e2[i + 1] += 1
            add(tn, tuple(e2), c, 1)
        # N' = (1 - q^delta t^d) T_i N + (1 - t) N
        out = {}
        for exps, c in tn.items():
            add(out, exps, c.mul_one_minus_qt(delta, d), 1)
        for exps, c in fe.terms.items():
            add(out, exps, c.mul_one_minus_qt(0, 1), 1)
        return FactoredE(self.n, lam, out, fe.den + ((delta, d),))

    # -- reduced coefficients ----------------------------------------------

    def coeff_qtrational(self, fe, exps):
        """The coefficient of x^exps in E_lam as a canonical QTRational: its
        integer numerator reduced over the binomials ``fe.den`` by
        ``reduce_over_binomials``, with no general gcd.  A numerator of
        q-valuation v < 0 is reduced as q^{-v} c, and q^{-v} joins the
        reduced denominator: q^{-v} c is not divisible by q and no binomial
        is, so q^{-v} cannot cancel."""
        c = fe.terms.get(exps)
        if c is None:
            return QTRational.zero()
        v = c.qval()
        if v >= 0:
            return reduce_over_binomials(c.m, fe.den)
        r = reduce_over_binomials(c.mul_qpow(-v).m, fe.den)
        return QTRational(r.num, r.den.mul_qpow(-v), _normalized=True)

    def terms_qtrational(self, lam):
        fe = self.get(_as_tuple(lam))
        return {exps: self.coeff_qtrational(fe, exps) for exps in fe.terms}


_GENERIC = {}


def generic_engine(n):
    if n not in _GENERIC:
        _GENERIC[n] = GenericMacdonaldEngine(n)
    return _GENERIC[n]


# ---------------------------------------------------------------------------
# the t = 0 and (q^{-1}, oo) tables: a dynamic program over columns
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _columns(lam):
    """Columns j = 1, ..., max(lam) of dg(lam) as (pattern, d).

    d_i = lam_i - j + 1, clipped at -1: row i has a cell in column j when
    d_i >= 1 (and d_i is then that cell's leg + 1), and a cell or basement
    entry in column j - 1 when d_i >= 0.  The pattern is the order type of
    d, densely ranked with -1 and 0 kept as they are; the filling rules
    only compare these values.  Cached: a Macdonald side reads the t = 0
    table and the atom table of each lam, in turn (sl) or in two passes
    (gl)."""
    out = []
    for j in range(1, max(lam, default=0) + 1):
        d = tuple(max(e - j + 1, -1) for e in lam)
        rank = {v: r for r, v in enumerate(sorted(set(d) | {-1, 0}), -1)}
        out.append((tuple(rank[v] for v in d), d))
    return tuple(out)


@functools.lru_cache(maxsize=None)
def _transitions(pattern, prev, rule):
    """The ways to fill one column of the given pattern after the column
    ``prev`` (entries by row, 0 where the row has no cell), under ``rule``:
    a tuple of (column, rows that gain leg + 1).

    A cell (i, j) may not repeat an entry of its own column, nor the entry
    (k, j - 1) of a lower row k > i.  Its partners are the cells (k, j),
    k < i, with d_k <= d_i and the cells (k, j - 1), k > i, with
    0 <= d_k < d_i.  When its entry v differs from its left neighbour,
    rule ``"t0"`` allows no cyclically increasing triple (v, partner, left)
    and gains when v > left; rule ``"atom"`` needs every such triple
    cyclically increasing and gains when v < left.  The triple compares
    the ints 4 v + 1, 4 partner + 2 and 4 left + 3, which order as the
    pairs (value, slot) of ``filling_statistics`` do: ties go by slot.
    The partners, and the entries a cell may not take, are kept as bit
    sets, so that one mask tests every partner of a candidate v."""
    n = len(pattern)
    rows = [i for i in range(n) if pattern[i] >= 1]
    col = [0] * n
    gains = []
    out = []

    def rec(idx):
        if idx == len(rows):
            out.append((tuple(col), tuple(gains)))
            return
        i = rows[idx]
        left = prev[i]
        banned = 0      # bit v set for each entry v the cell may not take
        partners = 0    # bit 4 p + 2 set for each partner entry p
        for k in rows[:idx]:
            banned |= 1 << col[k]
            if pattern[k] <= pattern[i]:
                partners |= 1 << 4 * col[k] + 2
        for k in range(i + 1, n):
            if pattern[k] >= 0:
                banned |= 1 << prev[k]
                if pattern[k] < pattern[i]:
                    partners |= 1 << 4 * prev[k] + 2
        c = 4 * left + 3
        for v in range(1, n + 1):
            if banned >> v & 1:
                continue
            gain = False
            if v != left:
                # the bits b with (4 v + 1, b, c) cyclically increasing: those
                # strictly between when 4 v + 1 < c, else those outside
                a = 4 * v + 1
                cyclic = ((1 << c) - (2 << a) if a < c
                          else ~((2 << a) - (1 << c)))
                if rule == "t0":
                    if partners & cyclic:
                        continue
                    gain = v > left
                else:
                    if partners & ~cyclic:
                        continue
                    gain = v < left
            col[i] = v
            if gain:
                gains.append(i)
            rec(idx + 1)
            if gain:
                gains.pop()
        col[i] = 0

    rec(0)
    return tuple(out)


def _cell_counts(columns):
    """The number of cells of each column: its entries d_i >= 1, the others
    being 0 or -1."""
    return [len(d) - d.count(0) - d.count(-1) for _, d in columns]


def _fillings_bound(columns, n):
    """F = prod over the columns of n! / (n - r)!, r the column's number
    of cells: the number of fillings with distinct entries 1..n in every
    column.  Both tables count some of these fillings, each once, so F
    bounds the L1 mass of every table of these columns, at every cap and
    floor."""
    return math.prod(math.perm(n, r) for r in _cell_counts(columns))


def _exponents(code, n, bits):
    """The exponent tuple of an integer monomial code: its n digits in base
    2^bits, the lowest first."""
    digit = (1 << bits) - 1
    return tuple([code >> shift & digit for shift in range(0, bits * n, bits)])


def _packed_column_terms(columns, n, cap, rule, floor, width, bits):
    """The column program of ``_column_terms`` on packed q-series: {weight
    code: int}, each count series c_0 + c_1 q + ... packed as sum_e c_e
    2^(width e), the weight w as the code sum_v w_v 2^(bits v) (see
    ``_exponents``), zero series dropped.  The caller picks width and
    bits: every count must stay below 2^width (``_fillings_bound`` bounds
    them), 2^(bits - 1) must exceed the number of cells, |lam|, and n floor
    must not exceed it.

    A state maps each weight code of its partial fillings to one packed
    series.  A column adds its 0/1 weight to the code and multiplies the
    series by q^gain, a shift by width * gain, gain the sum of the legs + 1
    of its gaining rows.  Every count is nonnegative and below 2^width, so
    no slot carries into the next and the shift is exact; the mask of the
    low width * (cap + 1) bits then drops the counts above q^cap, which no
    later column brings back.  A gain above the cap leaves nothing, and a
    column that gains nothing leaves every series as it is.

    The floor test reads all weight digits at once: with the top bit of
    every digit set, subtracting (floor - columns left) from each digit
    borrows from no other digit (the digits are below 2^(bits - 1), and so
    is the floor), and it clears a digit's top bit just where that digit
    is below it."""
    ones = sum(1 << (bits * v) for v in range(n))
    top = ones << (bits - 1)
    mask = (1 << width * (cap + 1)) - 1
    packed = {}
    states = {tuple(range(1, n + 1)): {0: 1}}
    left = len(columns)
    for pattern, d in columns:
        left -= 1
        prune = floor > left
        need = (floor - left) * ones
        nxt = {}
        gains = {}
        for prev, counts in states.items():
            for col, rows in _transitions(pattern, prev, rule):
                gain = gains.get(rows)
                if gain is None:
                    gain = gains[rows] = sum(d[i] for i in rows)
                if gain > cap:
                    continue
                inc = packed.get(col)
                if inc is None:
                    inc = packed[col] = sum(1 << (bits * (v - 1))
                                            for v in col if v)
                acc = nxt.setdefault(col, {})
                get = acc.get
                if gain:
                    shift = width * gain
                    for code, series in counts.items():
                        series = series << shift & mask
                        if series:
                            code += inc
                            if not prune or ((code | top) - need) & top == top:
                                acc[code] = get(code, 0) + series
                elif prune:
                    for code, series in counts.items():
                        code += inc
                        if ((code | top) - need) & top == top:
                            acc[code] = get(code, 0) + series
                else:
                    for code, series in counts.items():
                        code += inc
                        acc[code] = get(code, 0) + series
        states = {col: counts for col, counts in nxt.items() if counts}
    out = {}
    for counts in states.values():
        for code, series in counts.items():
            out[code] = out.get(code, 0) + series
    return out


def _column_terms(columns, n, cap, rule, floor=0):
    """E_lam(x; q, 0) (rule ``"t0"``) or E_lam(x; q^{-1}, oo) (rule
    ``"atom"``) modulo q^{cap+1}, as {weight: QSeries}, from the columns
    ``_columns(lam)`` of dg(lam); only the weights whose entries are all at
    least ``floor`` are kept.

    Both are sums over the non-attacking fillings of the fillings formula.
    At t = 0 a filling survives when it has coinv = 0 and gives q^maj, maj
    adding leg + 1 over the cells whose entry exceeds the left neighbour.
    After q -> 1/q and t -> oo it survives when every arm triple of every
    cell that differs from its left neighbour is cyclically increasing, and
    gives q to the sum of leg + 1 over the cells below their left
    neighbour.  The attack rules, the triples and the descents of column j
    only involve columns j and j - 1, so the fillings are counted column by
    column (``_packed_column_terms``): the state is the last column filled
    (column 0 is the basement 1, ..., n), its value the number of partial
    fillings per weight, one packed q-series each.  The series are
    unpacked once, at the end, with slots wide enough for
    ``_fillings_bound``.

    A column only adds to the q-exponent, so a partial filling above
    ``cap`` has no completion below it: dropping it leaves the result
    exact modulo q^{cap+1}.

    The floor is pruned the same way.  Every weight has |w| = |lam|, so a
    floor with n floor > |lam| leaves no weight, and the program is not
    run; otherwise the floor is at most |lam| / n.  A column's entries are
    distinct, so each later column adds a 0/1 vector to the weight: a
    partial weight p with some p_v + (columns left) < floor has no
    completion with every entry at least ``floor``, and is dropped.  After
    the last column the test is exact, so the result is the full table
    restricted to the weights with min(w) >= floor.  A column is tested
    only once floor exceeds the columns left after it, so with floor <= 0
    nothing is.  A state whose partial fillings were all dropped is
    dropped too."""
    cells = sum(_cell_counts(columns))
    if n * floor > cells:
        return {}
    bits = cells.bit_length() + 1
    packing = PackedQ(_fillings_bound(columns, n), cap)
    return {_exponents(code, n, bits): packing.unpack(series)
            for code, series in _packed_column_terms(
                columns, n, cap, rule, floor, packing.width, bits).items()}


def _window_cost(lam, floor, rule):
    """A lower bound on the q-valuation of every coefficient of x^w with
    min(w) >= ``floor`` in the table of ``rule`` (in n = len(lam)
    variables), and ``math.inf`` when the table has no such weight.  A
    table at a cap below the cost is empty once pruned to the floor;
    ``identities._sl_budget_hits`` reads the cost so as not to build it.

    Rows and values are counted from 0 here, so row v's basement value is
    v.  At t = 0 the entries of a row do not increase along it until its
    first ascent, so a cell holds a value above its row's basement value
    only at or after that ascent, which costs leg + 1: at least the number
    of the row's cells from there on.  So a filling of q-degree e has at
    most e such raised cells.  If min(w) >= F, at least (n - v) F cells
    hold a value >= v, and the rows v, ..., n - 1 hold sum_{i >= v} lam_i
    cells, so at least (n - v) F - sum_{i >= v} lam_i cells of the rows
    above v are raised, for v = 1, ..., n - 1.  The atom rule is the mirror
    case: a cell holds a value below its row's basement value only after a
    descent, which costs leg + 1, and at least (v + 1) F - sum_{i <= v}
    lam_i cells of the rows below v are lowered, for v = 0, ..., n - 2.
    Both read the counts m F - (cells of m rows), the last m rows (t = 0)
    or the first m (atom), for m < n; m = n counts every cell, and
    n F > |lam| leaves no weight at all, as every weight has |w| = |lam|."""
    held = cost = 0
    for m, cells in enumerate(reversed(lam) if rule == "t0" else lam, 1):
        held += cells
        cost = max(cost, m * floor - held)
    return math.inf if len(lam) * floor > held else cost


class T0Engine:
    """E_lam(x; q, 0) for batches of compositions, each in len(lam)
    variables, by the column program; only the monomials x^w with min(w)
    >= ``floor`` are kept (see ``_column_terms``)."""

    def __init__(self, floor=0):
        self.floor = floor

    def plan(self, targets):
        """(patterns, columns): the distinct column patterns of the batch,
        and the columns of each target."""
        columns = {lam: _columns(lam) for lam in targets}
        patterns = {p for cols in columns.values() for p, _ in cols}
        return patterns, columns

    def batch(self, targets, cap):
        targets = [_as_tuple(t) for t in targets]
        _, columns = self.plan(targets)
        return {lam: _column_terms(columns[lam], len(lam), cap, "t0",
                                   self.floor)
                for lam in targets}


def atom_terms(lam, cap, floor=0):
    """E_lam(x; q^{-1}, oo) modulo q^{cap+1} in len(lam) variables, by the
    column program; only the monomials x^w with min(w) >= ``floor`` are
    kept."""
    lam = _as_tuple(lam)
    return _column_terms(_columns(lam), len(lam), cap, "atom", floor)


# ---------------------------------------------------------------------------
# the combinatorial formula: non-attacking fillings
# ---------------------------------------------------------------------------

def _attack_cells(lam, cell):
    """Cells attacked by (i, j): same column j, and (i', j-1) with i' > i
    (column 0 is the basement, whose entry at row i is i)."""
    entries = _as_tuple(lam)
    n = len(entries)
    i, j = cell
    out = []
    for k in range(1, n + 1):
        if k != i and entries[k - 1] >= j:
            out.append((k, j))
    for k in range(i + 1, n + 1):
        if j - 1 == 0 or entries[k - 1] >= j - 1:
            out.append((k, j - 1))
    return out


def fillings(lam):
    """Non-attacking fillings of dg(lam) with entries in 1..n, including the
    basement column sigma(i, 0) = i.  Yields dicts cell -> entry."""
    entries = _as_tuple(lam)
    n = len(entries)
    cells = sorted(diagram(entries), key=lambda c: (c[1], c[0]))
    base = {(i, 0): i for i in range(1, n + 1)}

    def rec(idx, sigma):
        if idx == len(cells):
            yield dict(sigma)
            return
        cell = cells[idx]
        banned = set()
        for other in _attack_cells(entries, cell):
            v = sigma.get(other, base.get(other))
            if v is not None:
                banned.add(v)
        for v in range(1, n + 1):
            if v in banned:
                continue
            sigma[cell] = v
            yield from rec(idx + 1, sigma)
            del sigma[cell]

    yield from rec(0, {})


def _cyclically_increasing(a, b, c):
    """Exactly one rotation of three distinct keys is increasing."""
    return (a < b < c) or (b < c < a) or (c < a < b)


def filling_statistics(lam, sigma):
    """(weight, maj, coinv, factor_cells) of a non-attacking filling.

    Descents are cells whose entry exceeds the left neighbour (basement
    included); maj adds leg+1 over descents.  Every unit of arm pairs a cell
    u = (i, j) with a partner row k (rows k < i reaching column j, rows
    k > i reaching column j-1); coinv counts the arm units whose entry
    triple (sigma(u), partner, left neighbour) is cyclically increasing,
    ties broken in that slot order.
    """
    entries = _as_tuple(lam)
    n = len(entries)
    base = {(i, 0): i for i in range(1, n + 1)}

    def value(cell):
        return sigma.get(cell, base.get(cell))

    weight = [0] * n
    maj = 0
    coinv = 0
    factor_cells = []
    for (i, j) in diagram(entries):
        v = sigma[(i, j)]
        weight[v - 1] += 1
        arm, leg = arm_leg(entries, (i, j))
        left = value((i, j - 1))
        if v != left:
            factor_cells.append(((i, j), arm, leg))
            if v > left:
                maj += leg + 1
        li = entries[i - 1]
        for k in range(1, i):
            if j <= entries[k - 1] <= li:
                if _cyclically_increasing((v, 1), (value((k, j)), 2), (left, 3)):
                    coinv += 1
        for k in range(i + 1, n + 1):
            if j <= entries[k - 1] + 1 <= li:
                if _cyclically_increasing((v, 1), (value((k, j - 1)), 2), (left, 3)):
                    coinv += 1
    return tuple(weight), maj, coinv, factor_cells


# ---------------------------------------------------------------------------
# public API
# ---------------------------------------------------------------------------

SPECIALIZATION_TAGS = ("generic", "t0", "qinv_tinf", "qt_inv", "q0_t0", "qinf_tinf")


class MacdonaldPolynomial:
    """E_lam with a parameter tag; terms map x-exponent tuples to scalars
    (QTRational when generic or q/t-inverted, QPoly or integers after
    specialization)."""

    __slots__ = ("n", "lam", "terms", "tag")

    def __init__(self, n, lam, terms, tag):
        if tag not in SPECIALIZATION_TAGS:
            raise ExactError(f"unknown parameter tag {tag!r}")
        self.n = n
        self.lam = tuple(lam)
        self.terms = terms
        self.tag = tag

    def total_degree_check(self):
        d = sum(self.lam)
        return all(sum(e) == d for e in self.terms)

    def __eq__(self, other):
        return (isinstance(other, MacdonaldPolynomial)
                and self.n == other.n and self.lam == other.lam
                and self.tag == other.tag and self.terms == other.terms)

    def __repr__(self):
        return f"MacdonaldPolynomial(lam={self.lam}, tag={self.tag}, {len(self.terms)} terms)"


def macdonald_E(lam):
    """E_lam(x; q, t) in len(lam) variables, with exact rational-function
    coefficients."""
    lam = _as_tuple(lam)
    n = len(lam)
    return MacdonaldPolynomial(n, lam, generic_engine(n).terms_qtrational(lam),
                               "generic")


def macdonald_E_fillings(lam):
    """E_lam(x; q, t) in len(lam) variables, summed over non-attacking
    fillings (the independent second path; equals macdonald_E coefficient
    by coefficient).  It reduces through ``QTRational(num, den)``, the
    general gcd, and so is also the test oracle of
    ``reduce_over_binomials``, the trial division behind ``macdonald_E``.

    A filling weighs q^maj t^coinv prod (1 - t) / (1 - q^{leg+1} t^{arm+1})
    over its factor cells.  Over the common denominator
    D_lam = prod_cells (1 - q^{leg+1} t^{arm+1}) its numerator is the
    integer polynomial q^maj t^coinv (1 - t)^{#factor cells} times the
    cell factors of the other cells; the numerators are summed per weight
    and each sum is reduced once."""
    lam = _as_tuple(lam)
    cells = {}    # cell -> (q, t) exponents of its factor in D_lam
    den = QTPoly.one()
    for cell in diagram(lam):
        arm, leg = arm_leg(lam, cell)
        cells[cell] = (leg + 1, arm + 1)
        den = den.mul_one_minus_qt(leg + 1, arm + 1)
    acc = {}
    for sigma in fillings(lam):
        weight, maj, coinv, fcells = filling_statistics(lam, sigma)
        factor = {cell for cell, _, _ in fcells}
        num = QTPoly({(maj, coinv): 1})
        for cell, qt in cells.items():
            num = num.mul_one_minus_qt(*((0, 1) if cell in factor else qt))
        acc.setdefault(weight, QTPoly()).add_inplace(num)
    terms = {w: QTRational(c, den) for w, c in acc.items() if not c.is_zero}
    return MacdonaldPolynomial(len(lam), lam, terms, "generic")


def specialize_E(E, mode):
    """Specialize a generic E at the parameter point named by ``mode``:

    t0        -- t = 0 (coefficients land in Z[q]),
    qinv_tinf -- q -> 1/q then t -> oo, via the exact limit (Z[q] again),
    qt_inv    -- q -> 1/q, t -> 1/t (exact rational functions),
    q0_t0     -- the key-polynomial point (q, t) = (0, 0),
    qinf_tinf -- the opposite corner (q, t) = (oo, oo), the Demazure atoms.
    """
    if E.tag != "generic":
        raise ExactError("specialize_E needs generic parameters")

    def to_qpoly(f):
        if f.is_zero:
            return QPoly.zero()
        if f.num.tdegree() > 0 or f.den.tdegree() > 0:
            raise ExactError("specialized coefficient still involves t")
        return f.num.tcoeff(0).exact_div(f.den.tcoeff(0))

    out = {}
    for exps, c in E.terms.items():
        if mode == "t0":
            v = to_qpoly(c.subs_t0())
        elif mode == "qinv_tinf":
            v = to_qpoly(limit_t(invert_q(c), "infinity"))
        elif mode == "qt_inv":
            v = invert_q(c, invert_t=True)
        elif mode == "q0_t0":
            v = c.eval_qt(0, 0)
        elif mode == "qinf_tinf":
            g = invert_q(c, invert_t=True)
            d0 = g.den.eval_qt(0, 0)
            if d0 == 0:
                raise DivergentLimitError("divergent (q,t) -> (oo,oo) limit")
            v = g.num.eval_qt(0, 0) / d0
        else:
            raise ExactError(f"unknown specialization mode {mode!r}")
        if isinstance(v, Fraction):
            if v.denominator == 1:
                v = int(v)
        zero = (v == 0) if not isinstance(v, (QPoly, QTRational)) else v.is_zero
        if not zero:
            out[exps] = v
    return MacdonaldPolynomial(E.n, E.lam, out, mode)


# -- norms -------------------------------------------------------------------

def norm_a_qt(lam):
    """a_lam(q, t) = prod over cells of
    (1 - q^{leg+1} t^{arm+1}) / (1 - q^{leg+1} t^{arm}): the integer
    product of the numerator binomials, reduced over the denominator
    binomials by ``reduce_over_binomials``."""
    lam = _as_tuple(lam)
    num = QTPoly.one()
    den = []
    for cell in diagram(lam):
        arm, leg = arm_leg(lam, cell)
        num = num.mul_one_minus_qt(leg + 1, arm + 1)
        den.append((leg + 1, arm))
    return reduce_over_binomials(num.m, den)


def norm_a_q(lam, cap):
    """a_lam(q) = prod over arm-0 cells of 1/(1 - q^{leg+1}), truncated.

    By the arm of ``arm_leg``, the cell (i, j) has arm 0 iff j exceeds
    every lam_k <= lam_i with k < i and every lam_k + 1 <= lam_i with
    k > i.  So the arm-0 cells of row i are the j > J_i, J_i the largest of
    0 and those values, and their legs + 1 run over 1, ..., lam_i - J_i."""
    lam = _as_tuple(lam)
    degrees = []
    for i, li in enumerate(lam):
        top = max([0] + [e for e in lam[:i] if e <= li]
                  + [e + 1 for e in lam[i + 1:] if e < li])
        degrees.extend(range(1, li - top + 1))
    return geometric_product(degrees, cap)


# -- rank-one closed forms ---------------------------------------------------

def rs_polynomial(m):
    """Rogers-Szego polynomial r_m(X, q) = sum_a X^{m-2a} [m choose a]_q,
    as a map from X-exponents to QPoly."""
    out = {}
    for a in range(m + 1):
        e = m - 2 * a
        c = gaussian_binomial(m, a)
        out[e] = out.get(e, QPoly.zero()) + c
    return {e: c for e, c in out.items() if not c.is_zero}


def sl2_closed_forms(lam, cap):
    """Closed forms for the rank-one (sl_2) specializations at weight lam:

        lam <= 0, m = -lam:
            E(X; q, 0)        = r_m(X, q),
            E(Y; q^{-1}, oo)  = sum_a q^{m-a} [m choose a]_q Y^{m-2a},
            a(q)              = 1/(q; q)_m;
        lam > 0:
            E(X; q, 0)        = sum_a q^a [lam-1 choose a]_q X^{lam-2a},
            E(Y; q^{-1}, oo)  = Y r_{lam-1}(Y, q),
            a(q)              = 1/(q; q)_{lam-1}.

    Returns (E_t0, E_qinv_tinf, a) with the E's as X/Y-exponent maps and the
    norm as a QSeries at the given cap."""
    lam = int(lam)
    if lam <= 0:
        m = -lam
        e_t0 = rs_polynomial(m)
        e_atom = {}
        for a in range(m + 1):
            e = m - 2 * a
            c = gaussian_binomial(m, a).shift(m - a)
            e_atom[e] = e_atom.get(e, QPoly.zero()) + c
        norm = inv_pochhammer_qq(m, cap)
    else:
        e_t0 = {}
        for a in range(lam):
            e = lam - 2 * a
            c = gaussian_binomial(lam - 1, a).shift(a)
            e_t0[e] = e_t0.get(e, QPoly.zero()) + c
        e_atom = {e + 1: c for e, c in rs_polynomial(lam - 1).items()}
        norm = inv_pochhammer_qq(lam - 1, cap)
    e_t0 = {e: c for e, c in e_t0.items() if not c.is_zero}
    e_atom = {e: c for e, c in e_atom.items() if not c.is_zero}
    return e_t0, e_atom, norm


# -- batch tables: the production t = 0 and (q^{-1}, oo) paths --------------

def exact_cap(lam):
    """A q-cap at which both tables hold E_lam(x; q, 0) and
    E_lam(x; q^{-1}, oo) exactly: the sum of lam_i (lam_i + 1) / 2.

    At t = 0 every factor (1 - t) / (1 - q^{leg+1} t^{arm+1}) of the filling
    expansion is 1 and only fillings with coinv = 0 survive, each giving
    q^maj; maj adds leg + 1 over the descents, so it is at most the sum of
    leg + 1 over all cells.  On the (q^{-1}, oo) side a surviving filling
    gives q to the sum of leg + 1 over the cells below their left
    neighbour (see ``_column_terms``), at most the same sum.  Row i has the
    legs
    lam_i - 1, ..., 0, which add up (with the +1s) to lam_i (lam_i + 1) / 2.
    """
    return sum(e * (e + 1) // 2 for e in _as_tuple(lam))


def _compositions(lams):
    """The compositions as tuples.  A negative entry is rejected: the
    intertwiner recursion from it never reaches the zero composition."""
    lams = [_as_tuple(lam) for lam in lams]
    if any(e < 0 for lam in lams for e in lam):
        raise ExactError("E_lam needs a composition (nonnegative entries)")
    return lams


def e_t0_table(lams, cap, floor=0):
    """{lam: {exps: QSeries}} of t = 0 specializations, each in len(lam)
    variables; only the monomials x^w with min(w) >= ``floor``."""
    return T0Engine(floor).batch(_compositions(lams), cap)


def e_atom_table(lams, cap, floor=0):
    """{lam: {exps: QSeries}} of (q^{-1}, oo) specializations, each in
    len(lam) variables; only the monomials x^w with min(w) >= ``floor``."""
    return {lam: atom_terms(lam, cap, floor) for lam in _compositions(lams)}


def packed_tables(lams, cap, rule, width, bits):
    """{lam: {weight code: int}}: the t = 0 (rule ``"t0"``) or (q^{-1},
    oo) (rule ``"atom"``) table of each composition at ``cap``, every
    weight kept, as it leaves the column program (``_packed_column_terms``,
    which says what width and bits must satisfy)."""
    return {lam: _packed_column_terms(_columns(lam), len(lam), cap, rule, 0,
                                      width, bits)
            for lam in _compositions(lams)}


def restrict_poly_terms(terms):
    """Push x-exponent keyed terms through the gl -> sl restriction: the
    exponent tuple becomes its image in fundamental-weight coordinates."""
    out = {}
    for exps, c in terms.items():
        key = restrict_weight(exps)
        if key in out:
            out[key] = out[key] + c
        else:
            out[key] = c
    return out
