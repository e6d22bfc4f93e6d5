r"""Nonsymmetric Macdonald polynomials of type GL_n and their specializations.

Every table here comes from one formula, the nonsymmetric fillings formula
of Haglund, Haiman and Loehr (Amer. J. Math. 130 (2008)): E_lam is the sum
over the non-attacking fillings of dg(lam) of

    q^maj t^coinv prod (1 - t) / (1 - q^{leg+1} t^{arm+1}),

the product over the cells that differ from their left neighbour, in the
convention pinned operationally by monicity at x^lam, stability
E_{lam + m*1} = (x_1...x_n)^m E_lam, and validity of the (q,t) Cauchy
kernel expansion at small truncation (exercised by the test suite).

The attack rules, the coinv triples and the maj descents of column j only
involve columns j and j - 1, so one dynamic program over the columns
(``_transitions`` fills one column after another) computes each table,
with a rule for each.  The rules share one test of the triples, a bit
mask of each cell's partners: t0 and atom filter on it, and qt counts
coinv as its bit count.

* ``"qt"``, generic (q, t): ``macdonald_E``, memoized in
  ``GenericMacdonaldEngine``.  ``_generic_column_terms`` carries each
  weight's numerator over the product of (1 - q^{leg+1} t^{arm+1}) over
  the cells some filling makes unequal, as one signed Kronecker int in
  (q, t), decodes it once and reduces it by ``reduce_over_binomials``.
* ``"t0"`` and ``"atom"``: the t = 0 and (q^{-1}, infinity)
  specializations, and their q^0 corners.  ``_packed_column_terms``
  counts on packed q-series, one per weight.  ``e_t0_table``
  (``T0Engine``) and ``e_atom_table`` (``atom_terms``) unpack its counts
  into QSeries once, at the end (``_column_terms``), for the characters,
  the rank-one suite and the command line; ``packed_tables`` hands them on
  packed to the gl identities and ch T, and the sl identity runs the
  program itself, each at a slot width fixed from ``_fillings_bound``.

``macdonald_E_fillings`` sums the same formula filling by filling and
reduces through the general gcd; it is the test oracle of every table
(``specialize_E`` of it for the specializations).
Given a ``floor`` F, the packed program keeps only the monomials x^w with
min(w) >= F: it drops each partial filling that can no longer reach such
a weight, and the pruned table is the full table restricted to those
monomials.  The sl identity builds its tables with F = ceil((|lam| - W) /
n), the monomials whose min-zero class w - min(w)*1 has degree <= W.
``_window_cost`` bounds the q-valuation of every monomial with min(w) >= F
from below.  At t = 0 a cell holds a value above its row's basement value
only after an ascent in its row, and that ascent costs leg + 1, at least
the number of cells it raises; so a filling of q-degree e raises at most e
cells, while min(w) >= F forces some lam to raise a known number of them.
The atom side is the mirror case, with descents and the cells they lower.
Every entry takes lam and reads its columns, its cell counts and its
rank n = len(lam) off it (lam = 0 has no columns), so one batch may mix
ranks.  The builders run the column program for every lam they
are given; the sl identity reads the cost of both sides to decide which
lam to build and at which caps (see ``identities._sl_budget_hits``).
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .exact import (DivergentLimitError, ExactError, InvariantError, PackedQ,
                    QPoly, QTPoly, QTRational, binomial_ratio,
                    gaussian_binomial, geometric_product, invert_q,
                    inv_pochhammer_qq, limit_t, reduce_over_binomials)
# _as_tuple is also the name the benchmark's tracer (perfbench/spans.py)
# reads to key GenericMacdonaldEngine.memo
from .weights import (_as_entries as _as_tuple, arm_leg, diagram,
                      restrict_weight)


# ---------------------------------------------------------------------------
# the column program of the fillings formula
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
    a tuple of (column, rows that gain leg + 1), and for rule ``"qt"`` of
    (column, rows that gain leg + 1, coinv).

    A cell (i, j) may not repeat an entry of its own column, nor the entry
    (k, j - 1) of a lower row k > i.  Its partners are the cells (k, j),
    k < i, with d_k <= d_i and the cells (k, j - 1), k > i, with
    0 <= d_k < d_i; there are arm of them.  When its entry v differs from
    its left neighbour, rule ``"t0"`` allows no cyclically increasing
    triple (v, partner, left) and gains when v > left; rule ``"atom"``
    needs every such triple cyclically increasing and gains when v < left;
    rule ``"qt"`` allows every filling, gains when v > left (maj) and
    counts the cyclically increasing triples (coinv).  A cell equal to its
    left neighbour has no such triple: its partners differ from it.  The
    triple compares the ints 4 v + 1, 4 partner + 2 and 4 left + 3, which
    order as the pairs (value, slot) of ``filling_statistics`` do: ties go
    by slot.
    The partners, and the entries a cell may not take, are kept as bit
    sets, so that one mask tests every partner of a candidate v, and its
    bit count is the cell's coinv."""
    n = len(pattern)
    rows = [i for i in range(n) if pattern[i] >= 1]
    col = [0] * n
    gains = []
    out = []

    def rec(idx, coinv):
        if idx == len(rows):
            out.append((tuple(col), tuple(gains), coinv) if rule == "qt"
                       else (tuple(col), tuple(gains)))
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
            count = 0
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
                elif rule == "atom":
                    if partners & ~cyclic:
                        continue
                    gain = v < left
                else:
                    gain = v > left
                    count = (partners & cyclic).bit_count()
            col[i] = v
            if gain:
                gains.append(i)
            rec(idx + 1, coinv + count)
            if gain:
                gains.pop()
        col[i] = 0

    rec(0, 0)
    return tuple(out)


def _fillings_bound(lam):
    """F = prod over the columns j of n! / (n - r)!, n = len(lam) and r =
    #{i : lam_i >= j} the column's number of cells: the number of fillings
    with distinct entries 1..n in every column.  Both tables count some of
    these fillings, each once, so F bounds the L1 mass of every table of
    lam, at every cap and floor.  With lam sorted, s_0 <= ... <= s_{n-1},
    the columns j >= 1 with s_{k-1} < j <= s_k have n - k cells each."""
    n, low, out = len(lam), 0, 1
    for k, e in enumerate(sorted(lam)):
        if e > low:
            out *= math.perm(n, n - k) ** (e - low)
            low = e
    return out


def _exponents(code, n, bits):
    """The exponent tuple of an integer monomial code: its n digits in base
    2^bits, the lowest first."""
    digit = (1 << bits) - 1
    return tuple([code >> shift & digit for shift in range(0, bits * n, bits)])


def _packed_column_terms(lam, cap, rule, floor, width, bits):
    """The column program of ``_column_terms`` on packed q-series: {weight
    code: int} over the weights w with min(w) >= ``floor``, each count
    series c_0 + c_1 q + ... packed as sum_e c_e 2^(width e), w as the code
    sum_v w_v 2^(bits v) (see ``_exponents``), zero series dropped.  The
    caller picks width and bits: every count must stay below 2^width
    (``_fillings_bound`` bounds them), 2^(bits - 1) must exceed the number
    of cells, |lam|, and n floor must not exceed |lam|, n = len(lam).

    A state maps each weight code of its partial fillings to one packed
    series.  A column adds its 0/1 weight to the code and multiplies the
    series by q^gain, a shift by width * gain, gain the sum of the legs + 1
    of its gaining rows.  Every count is nonnegative and below 2^width, so
    no slot carries into the next and the shift is exact; the mask of the
    low width * (cap + 1) bits then drops the counts above q^cap, which no
    later column brings back.  A gain above the cap leaves nothing, and a
    column that gains nothing leaves every series as it is.

    The floor is pruned the same way.  Every weight has |w| = |lam|, so a
    floor with n floor > |lam| leaves no weight (``_window_cost`` is then
    infinite, and the sl identity builds no table); otherwise the floor is
    at most |lam| / n.  A column's entries are distinct, so each later
    column adds a 0/1 vector to the weight: a partial weight p with some
    p_v + (columns left) < floor has no completion with every entry at
    least ``floor``, and is dropped.  After the last column the test is
    exact, so the result is the full table restricted to the weights with
    min(w) >= floor.  A column is tested only once floor exceeds the
    columns left after it, so with floor <= 0 nothing is.  A state whose
    partial fillings were all dropped is dropped too.

    The floor test reads all weight digits at once: with the top bit of
    every digit set, subtracting (floor - columns left) from each digit
    borrows from no other digit (the digits are below 2^(bits - 1), and so
    is the floor), and it clears a digit's top bit just where that digit
    is below it."""
    n, columns = len(lam), _columns(lam)
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


def _column_terms(lam, cap, rule):
    """E_lam(x; q, 0) (rule ``"t0"``) or E_lam(x; q^{-1}, oo) (rule
    ``"atom"``) modulo q^{cap+1} in len(lam) variables, as {weight:
    QSeries}, from the columns ``_columns(lam)`` of dg(lam).

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
    exact modulo q^{cap+1}."""
    bits = sum(lam).bit_length() + 1
    packing = PackedQ(_fillings_bound(lam), cap)
    return {_exponents(code, len(lam), bits): packing.unpack(series)
            for code, series in _packed_column_terms(
                lam, cap, rule, 0, packing.width, bits).items()}


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
    variables, by the column program (``_column_terms``)."""

    def plan(self, targets):
        """(patterns, columns): the distinct column patterns of the batch,
        and the columns of each target."""
        columns = {lam: _columns(lam) for lam in targets}
        patterns = {p for cols in columns.values() for p, _ in cols}
        return patterns, columns

    def batch(self, targets, cap):
        targets = [_as_tuple(t) for t in targets]
        _, columns = self.plan(targets)
        return {lam: _column_terms(lam, cap, "t0") for lam in columns}


def atom_terms(lam, cap):
    """E_lam(x; q^{-1}, oo) modulo q^{cap+1} in len(lam) variables, by the
    column program."""
    lam = _as_tuple(lam)
    return _column_terms(lam, cap, "atom")


# ---------------------------------------------------------------------------
# generic (q, t): the column program on Kronecker ints in (q, t)
# ---------------------------------------------------------------------------

def _generic_column_terms(lam):
    """E_lam(x; q, t) as ({weight: numerator}, binomials): each nonzero
    coefficient is its numerator, {(q_exp, t_exp): int}, over the product
    of 1 - q^a t^d over the binomials (a, d).

    A filling's numerator over the binomials (leg + 1, arm + 1) of the
    cells that some filling makes unequal to their left neighbour is
    q^maj t^coinv (1 - t)^{#unequal} times the binomials of its equal
    cells among those; a cell that no filling makes unequal has its
    binomial on both sides of every filling, and is left out.  Every
    partial filling extends (copy the last column), so those cells are the
    ones some transition from a reachable state makes unequal.

    The column program with rule ``"qt"`` keeps one Kronecker int per
    state and weight code: the coefficient of q^a t^b in slot a T + b of W
    bits, T - 1 the sum of arm + 1 over the cells, a bound on every
    t-degree.  A transition shifts by its q^maj t^coinv and multiplies in
    each binomial 1 - u of its column as s - (s << the slot of u).
    q -> z^T, t -> z, z = 2^W, is a ring homomorphism, one-to-one on the
    monomials of t-degree below T, so the ints are exact, whatever their
    slots hold on the way.  A filling's numerator has L1 norm at most
    2^|lam|, so F(lam) 2^|lam| (``_fillings_bound``) bounds every final
    coefficient; W, a multiple of 8, exceeds its bit length, and each
    final int is decoded once, from its bytes, as centered residues
    (``PackedQ.unpack``)."""
    n, columns = len(lam), _columns(lam)
    cells = sum(lam)
    width = ((_fillings_bound(lam) << cells).bit_length() + 8) // 8 * 8
    stride = 1 + sum(arm_leg(lam, cell)[0] + 1 for cell in diagram(lam))
    bits = cells.bit_length() + 1
    binomials = []
    states = {tuple(range(1, n + 1)): {0: 1}}
    for j, (pattern, d) in enumerate(columns, 1):
        moves = {prev: _transitions(pattern, prev, "qt") for prev in states}
        unequal = {i: (d[i], arm_leg(lam, (i + 1, j))[0] + 1)
                   for i in sorted({i for prev, ts in moves.items()
                                    for col, _, _ in ts for i in range(n)
                                    if col[i] and col[i] != prev[i]})}
        binomials.extend(unequal.values())
        nxt = {}
        for prev, counts in states.items():
            for col, gains, coinv in moves[prev]:
                shift = width * (stride * sum(d[i] for i in gains) + coinv)
                steps = [width * (1 if col[i] != prev[i] else stride * a + b)
                         for i, (a, b) in unequal.items()]
                inc = sum(1 << (bits * (v - 1)) for v in col if v)
                acc = nxt.setdefault(col, {})
                get = acc.get
                for code, s in counts.items():
                    s <<= shift
                    for step in steps:
                        s -= s << step
                    code += inc
                    acc[code] = get(code, 0) + s
        states = nxt
    totals = {}
    for counts in states.values():
        for code, s in counts.items():
            totals[code] = totals.get(code, 0) + s
    size, half = width // 8, 1 << (width - 1)
    zero = half.to_bytes(size, "little")
    out = {}
    for code, s in totals.items():
        if s:
            # the top nonzero slot is the bit length of |s| over W
            slots = abs(s).bit_length() // width + 1
            raw = (s + int.from_bytes(zero * slots, "little")).to_bytes(
                size * slots, "little")
            out[_exponents(code, n, bits)] = {
                divmod(k, stride): int.from_bytes(raw[k * size:(k + 1) * size],
                                                  "little") - half
                for k in range(slots)
                if raw[k * size:(k + 1) * size] != zero}
    return out, binomials


class GenericMacdonaldEngine:
    """E_lam(x; q, t) in n variables, memoized per composition.  A class,
    with ``get`` and ``memo``, because the benchmark's tracer
    (perfbench/spans.py) wraps ``get`` by name and reads ``memo`` to count
    its misses; ``generic_engine`` keeps one engine per rank."""

    def __init__(self, n):
        self.n = n
        self.memo = {}

    def get(self, lam):
        """{exps: QTRational}, the reduced coefficients of E_lam, from the
        generic column program (``_generic_column_terms``), each numerator
        reduced once by ``reduce_over_binomials``.  The map is memoized;
        the caller gets a copy.  The coefficient of x^lam must be 1."""
        lam = _as_tuple(lam)
        if len(lam) != self.n:
            raise ExactError("composition rank mismatch")
        terms = self.memo.get(lam)
        if terms is None:
            _compositions([lam])
            nums, binomials = _generic_column_terms(lam)
            terms = {w: reduce_over_binomials(num, binomials)
                     for w, num in nums.items()}
            if terms.get(lam) != QTRational.one():
                raise InvariantError(f"E_{lam} not monic; convention broken")
            self.memo[lam] = terms
        return dict(terms)


_GENERIC = {}


def generic_engine(n):
    """The one engine of rank n, so that ``macdonald_E`` and gl-qt share
    its memo."""
    if n not in _GENERIC:
        _GENERIC[n] = GenericMacdonaldEngine(n)
    return _GENERIC[n]


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
    coefficients, from the generic column program (``generic_engine``).
    The benchmark's tracer wraps this name."""
    lam = _as_tuple(lam)
    n = len(lam)
    return MacdonaldPolynomial(n, lam, generic_engine(n).get(lam), "generic")


def macdonald_E_fillings(lam):
    """E_lam(x; q, t) in len(lam) variables, summed filling by filling over
    the non-attacking fillings (``fillings``, ``filling_statistics``): the
    one test oracle of the column program, which sums the same formula
    column by column for ``macdonald_E`` and the t = 0 and atom tables,
    and shares no code with it.  It reduces through ``QTRational(num,
    den)``, the general gcd, and so is also the test oracle of
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
    (1 - q^{leg+1} t^{arm+1}) / (1 - q^{leg+1} t^{arm}), by
    ``binomial_ratio``: the cyclotomic factors of the two products cancel
    by count, and what is left multiplies out."""
    lam, = _compositions([lam])
    cells = [arm_leg(lam, cell) for cell in diagram(lam)]
    return binomial_ratio([(leg + 1, arm + 1) for arm, leg in cells],
                          [(leg + 1, arm) for arm, leg in cells])


def norm_a_q(lam, cap):
    """a_lam(q) = prod over arm-0 cells of 1/(1 - q^{leg+1}), truncated.

    By the arm of ``arm_leg``, the cell (i, j) has arm 0 iff j exceeds
    every lam_k <= lam_i with k < i and every lam_k + 1 <= lam_i with
    k > i.  So the arm-0 cells of row i are the j > J_i, J_i the largest of
    0 and those values, and their legs + 1 run over 1, ..., lam_i - J_i."""
    lam, = _compositions([lam])
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
    """The compositions as tuples.  A negative entry is rejected: it has no
    diagram to fill."""
    lams = [_as_tuple(lam) for lam in lams]
    if any(e < 0 for lam in lams for e in lam):
        raise ExactError("E_lam needs a composition (nonnegative entries)")
    return lams


def e_t0_table(lams, cap):
    """{lam: {exps: QSeries}} of t = 0 specializations, each in len(lam)
    variables."""
    return T0Engine().batch(_compositions(lams), cap)


def e_atom_table(lams, cap):
    """{lam: {exps: QSeries}} of (q^{-1}, oo) specializations, each in
    len(lam) variables."""
    return {lam: atom_terms(lam, cap) for lam in _compositions(lams)}


def packed_tables(lams, cap, rule, width, bits):
    """{lam: {weight code: int}}: the t = 0 (rule ``"t0"``) or (q^{-1},
    oo) (rule ``"atom"``) table of each composition at ``cap``, every
    weight kept, as it leaves the column program (``_packed_column_terms``,
    which says what width and bits must satisfy)."""
    return {lam: _packed_column_terms(lam, cap, rule, 0, width, bits)
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
