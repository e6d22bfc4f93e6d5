import functools
import math

import pytest
from hypothesis import given, settings, strategies as st

from qcauchy.affine import hw_algebra_char, hw_algebra_char_gl
from qcauchy.exact import (ExactError, InvariantError, PackedQ, QPoly,
                           QSeries, QTPoly, QTRational, geometric_series,
                           invert_q, limit_t, qseries_from_qtrational,
                           reduce_over_binomials)
import qcauchy.macdonald as macdonald
from qcauchy.macdonald import (_column_terms, _columns,
                               _cyclically_increasing, _exponents,
                               _fillings_bound, _gain_table,
                               _packed_column_terms, _weight_increments,
                               _window_cost, e_atom_table, e_t0_table,
                               exact_cap, macdonald_E, macdonald_E_fillings,
                               norm_a_q, norm_a_qt, packed_tables,
                               restrict_poly_terms, rs_polynomial,
                               sl2_closed_forms, specialize_E)
from qcauchy.weights import arm_leg, compositions_up_to, diagram

ONE = QTPoly.one()
Q = QTPoly.q()
T = QTPoly.t()
TABLES = ((e_t0_table, "t0"), (e_atom_table, "qinv_tinf"))


class TestConstruction:
    def test_zero_composition(self):
        E = macdonald_E((0, 0, 0))
        assert E.terms == {(0, 0, 0): QTRational.one()}

    def test_constant_diagonal(self):
        # E_{(m,...,m)} = (x_1...x_n)^m
        for n, m in ((2, 1), (2, 2), (3, 1)):
            E = macdonald_E((m,) * n)
            assert E.terms == {(m,) * n: QTRational.one()}

    def test_basic_two_variable(self):
        E = macdonald_E((0, 1))
        c = QTRational(ONE - T, ONE - Q * T)
        assert E.terms == {(0, 1): QTRational.one(), (1, 0): c}
        assert macdonald_E((1, 0)).terms == {(1, 0): QTRational.one()}

    def test_t0_of_01(self):
        E = specialize_E(macdonald_E((0, 1)), "t0")
        assert E.terms == {(0, 1): QPoly.one(), (1, 0): QPoly.one()}

    def test_homogeneous(self):
        for n in (2, 3):
            for lam in compositions_up_to(n, 4):
                assert macdonald_E(lam).total_degree_check()

    def test_negative_entry_rejected(self):
        # a negative entry has no diagram to fill
        with pytest.raises(ExactError):
            macdonald_E((-1, 0))

    def test_stability(self):
        for n in (2, 3):
            for lam in compositions_up_to(n, 3):
                E = macdonald_E(lam)
                for m in (1, 2):
                    shifted = tuple(e + m for e in lam)
                    Es = macdonald_E(shifted)
                    expected = {tuple(e + m for e in exps): c
                                for exps, c in E.terms.items()}
                    assert Es.terms == expected, (lam, m)


@functools.lru_cache(maxsize=None)
def _fillings_E(lam):
    """The fillings oracle, which shares no ``_columns`` or ``_transitions``
    with the column program it checks; cached, as several tests read the
    same lam."""
    return macdonald_E_fillings(lam)


@functools.lru_cache(maxsize=None)
def _oracle_specialized(lam, mode):
    return specialize_E(_fillings_E(lam), mode).terms


def test_macdonald_E_matches_fillings_n4():
    # the generic column program against the filling-by-filling oracle,
    # exhaustively at n = 4 (TestTwoPath covers n <= 3)
    for lam in compositions_up_to(4, 4):
        assert macdonald_E(lam).terms == _fillings_E(lam).terms, lam


def test_engine_returns_a_copy():
    # a caller that changes the map it got leaves the memo as it was
    terms = macdonald_E((0, 1)).terms
    terms.clear()
    assert macdonald_E((0, 1)).terms == macdonald_E_fillings((0, 1)).terms


def test_engine_checks_monicity(monkeypatch):
    # a numerator that breaks the convention at x^lam is an internal error
    program = macdonald._generic_column_terms

    def doubled(lam):
        nums, binomials = program(lam)
        return {w: {k: 2 * c for k, c in num.items()}
                for w, num in nums.items()}, binomials
    monkeypatch.setattr(macdonald, "_generic_column_terms", doubled)
    with pytest.raises(InvariantError):
        macdonald.GenericMacdonaldEngine(2).get((0, 1))


class TestTwoPath:
    def test_agreement(self):
        # the acceptance range |lam| <= 5, n <= 3 runs in test_acceptance;
        # here a moderate slice
        for n in (1, 2, 3):
            for lam in compositions_up_to(n, 4 if n == 3 else 5):
                a = macdonald_E(lam)
                b = macdonald_E_fillings(lam)
                assert a.terms == b.terms, (n, lam)

    def test_fillings_specialization_example(self):
        E = specialize_E(macdonald_E_fillings((1, 0)), "t0")
        assert E.terms == {(1, 0): QPoly.one()}


class TestSpecializations:
    def test_modes_on_01(self):
        E = macdonald_E((0, 1))
        atom = specialize_E(E, "qinv_tinf")
        assert atom.terms == {(0, 1): QPoly.one(), (1, 0): QPoly.gen()}
        key = specialize_E(E, "q0_t0")
        assert key.terms == {(0, 1): 1, (1, 0): 1}
        at_inf = specialize_E(E, "qinf_tinf")
        assert at_inf.terms == {(0, 1): 1}

    def test_trivial_any_mode(self):
        E = macdonald_E((0, 0))
        for mode in ("t0", "qinv_tinf", "qt_inv", "q0_t0", "qinf_tinf"):
            S = specialize_E(E, mode)
            assert list(S.terms) == [(0, 0)]

    def test_positivity(self):
        for n in (2, 3):
            for lam in compositions_up_to(n, 4):
                E = macdonald_E(lam)
                for mode in ("t0", "qinv_tinf"):
                    S = specialize_E(E, mode)
                    for c in S.terms.values():
                        assert all(x >= 0 for x in c.coeffs), (lam, mode)

    def test_qinv_tinf_order_immaterial(self):
        # limit after q-inversion equals t->0 of the fully inverted form
        for lam in compositions_up_to(2, 4):
            E = macdonald_E(lam)
            for c in E.terms.values():
                via_limit = limit_t(invert_q(c), "infinity")
                via_inverted = invert_q(c, invert_t=True).subs_t0()
                assert via_limit == via_inverted

    def test_engine_tables_match_specialize(self):
        # at exact_cap(lam) the production tables are the exact polynomials
        # specialize_E reads off the generic E
        for n, size in ((1, 5), (2, 5), (3, 5), (4, 4)):
            for lam in compositions_up_to(n, size):
                cap = exact_cap(lam)
                for table, mode in TABLES:
                    got = table([lam], cap)[lam]
                    assert {e: QPoly(c.coeffs) for e, c in got.items()} == \
                        _oracle_specialized(lam, mode), (lam, mode)

    def test_tables_truncate_exactly(self):
        # dropping the partial fillings above the cap is exact: the table
        # at every cap is the exact table truncated to it
        for n in (1, 2, 3):
            for lam in compositions_up_to(n, 5):
                top = exact_cap(lam)
                for table, _ in TABLES:
                    exact = table([lam], top)[lam]
                    for cap in range(top + 1):
                        want = {e: c.truncate(cap) for e, c in exact.items()}
                        want = {e: c for e, c in want.items() if not c.is_zero}
                        assert table([lam], cap)[lam] == want, (lam, cap)


SMALL_COMPOSITIONS = [(n, lam) for n in (1, 2, 3)
                      for lam in sorted(compositions_up_to(n, 6))]


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(SMALL_COMPOSITIONS), st.integers(0, 21))
def test_tables_match_specialize_property(case, cap):
    n, lam = case
    for table, mode in TABLES:
        want = {e: QSeries.from_qpoly(c, cap)
                for e, c in _oracle_specialized(lam, mode).items()}
        want = {e: c for e, c in want.items() if not c.is_zero}
        assert table([lam], cap)[lam] == want, (lam, cap, mode)


def _in_window(table, n, window):
    """The monomials of a table whose min-zero class has degree <= window."""
    return {e: c for e, c in table.items() if sum(e) - n * min(e) <= window}


def window_floor(lam, n, window):
    """The weight floor of the window classes of degree <= window among the
    weights of |w| = |lam|: ceil((|lam| - window) / n)."""
    return -((window - sum(lam)) // n)


def _pruned_table(lam, cap, rule, floor):
    """The table of lam pruned to ``floor`` by the packed column program,
    unpacked, at the slot width of F(lam) and the code width of |lam|; {}
    when n floor > |lam| leaves no weight, where the window cost is
    infinite and the sl side builds no table."""
    n = len(lam)
    if n * floor > sum(lam):
        return {}
    bits = sum(lam).bit_length() + 1
    packing = PackedQ(_fillings_bound(lam), cap)
    return {_exponents(code, n, bits): packing.unpack(series)
            for code, series in _packed_column_terms(
                lam, cap, rule, floor, packing.width, bits).items()}


FLOOR_TABLES = ((e_t0_table, "t0"), (e_atom_table, "atom"))


def test_window_tables_match_restricted_tables():
    # the oracle of the floor pruning: the table built with the floor of a
    # window is the full table restricted to the window classes, for both
    # rules; a floor <= 0 keeps the full table, and a floor with n floor >
    # |lam| has an infinite window cost
    for n, size in ((1, 6), (2, 6), (3, 6), (4, 5)):
        lams = sorted(compositions_up_to(n, size))
        for cap in (0, 2, 4):
            for table, rule in FLOOR_TABLES:
                full = table(lams, cap)
                for lam in lams:
                    for floor in (-1, 0):
                        assert _pruned_table(lam, cap, rule, floor) == \
                            full[lam]
                    assert _window_cost(lam, sum(lam) // n + 1,
                                        rule) == math.inf
                    for window in range(4):
                        pruned = _pruned_table(lam, cap, rule,
                                               window_floor(lam, n, window))
                        want = _in_window(full[lam], n, window)
                        assert pruned == want, (lam, cap, window, rule)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(SMALL_COMPOSITIONS + [
           (4, lam) for lam in sorted(compositions_up_to(4, 6))]),
       st.integers(0, 8), st.integers(0, 6))
def test_window_tables_property(case, window, cap):
    n, lam = case
    floor = window_floor(lam, n, window)
    for table, rule in FLOOR_TABLES:
        want = _in_window(table([lam], cap)[lam], n, window)
        assert _pruned_table(lam, cap, rule, floor) == want, \
            (lam, window, cap)


def _valuation(series):
    """The least q-exponent of a nonzero QSeries."""
    return next(e for e, c in enumerate(series.coeffs) if c)


def test_window_cost_bounds_window_valuations():
    # the oracle of the window cost: in the full table every weight with
    # min(w) >= the window floor has q-valuation at least the cost; some
    # costs exceed the cap
    rejected = cases = 0
    for n, size in ((2, 10), (3, 8), (4, 6)):
        lams = sorted(compositions_up_to(n, size))
        for cap in range(4):
            for table, rule in FLOOR_TABLES:
                full = table(lams, cap)
                for window in range(4):
                    for lam in lams:
                        cases += 1
                        floor = window_floor(lam, n, window)
                        cost = _window_cost(lam, floor, rule)
                        assert all(_valuation(c) >= cost
                                   for w, c in full[lam].items()
                                   if min(w) >= floor), \
                            (lam, cap, window, rule)
                        rejected += cost > cap
    assert cases == 14112
    assert rejected > 0
    # among them: at n = 4 and window 1, |lam| = 3 needs min(w) >= 1, so
    # |w| >= 4; no row count demands a raised cell, and only n F > |lam|
    # rejects lam, at every cap
    lam = (0, 1, 1, 1)
    assert window_floor(lam, 4, 1) == 1
    assert [(4 - v) - sum(lam[v:]) for v in range(1, 4)] == [0, 0, 0]
    assert _window_cost(lam, 1, "t0") == math.inf


def test_tables_read_rank_from_each_lambda():
    # one batch mixing ranks 2 and 3 (the zero compositions included, which
    # have no columns): every lam's table has len(lam)-entry weights and
    # equals the table of lam built alone
    lams = [(1, 2), (0, 1, 2), (0, 0), (2, 0), (1, 0, 1), (0, 0, 0)]
    for table, _ in TABLES:
        for cap in (0, 3):
            batch = table(lams, cap)
            for lam in lams:
                assert batch[lam] and all(len(w) == len(lam)
                                          for w in batch[lam]), (lam, cap)
                assert batch[lam] == table([lam], cap)[lam], (lam, cap)


@functools.lru_cache(maxsize=None)
def _transitions_by_tuples(pattern, prev, rule):
    """The enumeration ``_transitions`` replaced, kept as its oracle: every
    triple compared as the (value, slot) pairs of ``filling_statistics``,
    and for rule ``"qt"`` coinv counted as the triples over the list of a
    cell's partners."""
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
        banned = {col[k] for k in rows[:idx]}
        banned.update(prev[k] for k in range(i + 1, n) if pattern[k] >= 0)
        partners = ([col[k] for k in rows[:idx] if pattern[k] <= pattern[i]]
                    + [prev[k] for k in range(i + 1, n)
                       if 0 <= pattern[k] < pattern[i]])
        for v in range(1, n + 1):
            if v in banned:
                continue
            gain = False
            count = 0
            if v != left:
                cyclic = [_cyclically_increasing((v, 1), (p, 2), (left, 3))
                          for p in partners]
                if rule == "t0":
                    if any(cyclic):
                        continue
                    gain = v > left
                elif rule == "atom":
                    if not all(cyclic):
                        continue
                    gain = v < left
                else:
                    gain = v > left
                    count = sum(cyclic)
            col[i] = v
            if gain:
                gains.append(i)
            rec(idx + 1, coinv + count)
            if gain:
                gains.pop()
        col[i] = 0

    rec(0, 0)
    return tuple(out)


def _column_terms_by_key(lam, cap, rule, floor=0):
    """The column program on one integer key per (weight, q-exponent), which
    the packed program ``_packed_column_terms`` replaced, kept as its
    oracle.

    A key holds the weight as its n low digits in base 2^bits, where
    2^(bits - 1) exceeds the number of cells, and the q-exponent e as the
    digit above them, at ``shift`` = bits * n.  A column adds its packed
    0/1 weight and its gain << shift to a key; a key takes a gain iff it is
    below (cap - gain + 1) << shift, and a state whose smallest e leaves
    no room for a gain skips that column.  The floor test is the packed
    program's, on the weight digits (the borrow-free subtraction leaves e
    alone)."""
    n, columns = len(lam), _columns(lam)
    cells = sum(lam)
    if n * floor > cells:
        return {}
    bits = cells.bit_length() + 1
    shift = bits * n
    ones = sum(1 << (bits * v) for v in range(n))
    top = ones << (bits - 1)
    packed = {}
    states = {tuple(range(1, n + 1)): {0: 1}}
    left = len(columns)
    for pattern, d in columns:
        left -= 1
        prune = floor > left
        low = (floor - left) * ones
        nxt = {}
        for prev, counts in states.items():
            room = cap - (min(counts) >> shift)
            for col, rows in _transitions_by_tuples(pattern, prev, rule):
                gain = sum(d[i] for i in rows)
                if gain > room:
                    continue
                inc = packed.get(col)
                if inc is None:
                    inc = packed[col] = sum(1 << (bits * (v - 1))
                                            for v in col if v)
                step = inc + (gain << shift)
                lim = (cap - gain + 1) << shift
                acc = nxt.setdefault(col, {})
                for key, c in counts.items():
                    if key < lim:
                        key += step
                        if not prune or ((key | top) - low) & top == top:
                            acc[key] = acc.get(key, 0) + c
        states = {col: counts for col, counts in nxt.items() if counts}
    by_weight = {}
    mask = (1 << shift) - 1
    for counts in states.values():
        for key, c in counts.items():
            cs = by_weight.setdefault(key & mask, [0] * (cap + 1))
            cs[key >> shift] += c
    digit = (1 << bits) - 1
    return {tuple((w >> (bits * v)) & digit for v in range(n)):
            QSeries(cap, cs) for w, cs in by_weight.items()}


# the oracle range of the column program: n <= 4 with |lam| <= 6 and n = 5
# with |lam| <= 3, at caps 0-9 and floors 0-2, under both rules
ORACLE_LAMS = [lam for n in range(1, 6)
               for lam in sorted(compositions_up_to(n, 6 if n <= 4 else 3))]
ORACLE_CASES = [(lam, cap, rule, floor) for lam in ORACLE_LAMS
                for cap in range(10) for rule in ("t0", "atom")
                for floor in range(3)]


def test_packed_program_matches_per_key_program():
    # the packed column program, unpacked, against the per-(weight,
    # q-exponent) program over the whole oracle range
    assert len(ORACLE_CASES) == 23100
    for lam, cap, rule, floor in ORACLE_CASES:
        assert _pruned_table(lam, cap, rule, floor) == _column_terms_by_key(
            lam, cap, rule, floor), \
            (lam, cap, rule, floor)


def test_fillings_bound_holds_every_table():
    # F(lam) bounds the L1 mass of every table over the oracle range, which
    # makes the slot width fixed from the columns sound; read off lam's
    # sorted entries, it is the product over the cells d >= 1 of each column
    for lam in ORACLE_LAMS:
        assert _fillings_bound(lam) == math.prod(
            math.perm(len(lam), sum(x >= 1 for x in d))
            for _, d in _columns(lam)), lam
    for lam, cap, rule, floor in ORACLE_CASES:
        mass = sum(sum(c.coeffs) for c in _pruned_table(
            lam, cap, rule, floor).values())
        assert mass <= _fillings_bound(lam), \
            (lam, cap, rule, floor)


def _walk_cases():
    """(lams, cap, width, bits) batches of the orbit walk's oracle: every
    composition with n <= 4, |lam| <= 6, at caps 0, 1 and 4 as one batch
    per n and cap, and at exact_cap as one batch per orbit; and the
    benchmark's gl-t0 point (3, 6, 8) at the slot width of its side."""
    cases = []
    for n in range(1, 5):
        lams = sorted(compositions_up_to(n, 6))
        bits = 4        # 2^(bits - 1) > |lam|
        fills = max(map(_fillings_bound, lams))
        cases += [(lams, cap, PackedQ(fills, cap).width, bits)
                  for cap in (0, 1, 4)]
        orbits = {}
        for lam in lams:
            orbits.setdefault(tuple(sorted(lam)), []).append(lam)
        cases += [(members, exact_cap(key),
                   PackedQ(_fillings_bound(key), exact_cap(key)).width, bits)
                  for key, members in orbits.items()]
    cases.append((sorted(compositions_up_to(3, 6)), 8, 31, 4))
    return cases


def test_orbit_walk_matches_per_lambda_program(monkeypatch):
    # packed_tables runs the column program once per orbit and walks to the
    # other members; every table equals the per-lam program's, under both
    # rules.  A batch of one member also runs it once, on its orbit's
    # representative.  The runs are counted on a wrapper
    program = _packed_column_terms
    runs = []

    def counted(lam, cap, rule, floor, width, bits):
        runs.append(lam)
        return program(lam, cap, rule, floor, width, bits)
    monkeypatch.setattr(macdonald, "_packed_column_terms", counted)
    checked = 0
    for lams, cap, width, bits in _walk_cases():
        for rule in ("t0", "atom"):
            runs.clear()
            got = packed_tables(lams, cap, rule, width, bits)
            assert len(runs) == len({tuple(sorted(lam)) for lam in lams})
            for lam in lams:
                assert got[lam] == program(lam, cap, rule, 0, width, bits), \
                    (lam, cap, rule)
                checked += 1
    assert checked == 2 * (3 * 329 + 329 + 84)
    runs.clear()
    lam = (2, 0, 1, 3)
    width = PackedQ(_fillings_bound(lam), 5).width
    for rule in ("t0", "atom"):
        assert packed_tables([lam], 5, rule, width, 4) == {
            lam: program(lam, 5, rule, 0, width, 4)}
    assert runs == [(3, 2, 1, 0), (0, 1, 2, 3)]


def _divided_difference(table, i):
    """D_i f = (f - s_i f) / (x_i - x_{i+1}) on {weight: QSeries}, from
    (x^a y^b - x^b y^a) / (x - y) = x^b y^b (x^{a-b} - y^{a-b}) / (x - y)
    for a > b, and its negative for a < b."""
    out = {}
    for w, c in table.items():
        a, b = w[i], w[i + 1]
        if a == b:
            continue
        hi, lo, sign = (a, b, c) if a > b else (b, a, -c)
        for k in range(hi - lo):
            v = w[:i] + (hi - 1 - k, lo + k) + w[i + 2:]
            out[v] = out[v] + sign if v in out else sign
    return out


def _times_x(table, i):
    return {w[:i] + (w[i] + 1,) + w[i + 1:]: c for w, c in table.items()}


def _intertwiner_d(mu, i):
    """d = k_mu(i+1) - k_mu(i) of the intertwiner step from mu to s_i mu,
    mu_i > mu_{i+1}, with k_mu(i) = #{j < i : mu_j > mu_i} + #{j > i :
    mu_j >= mu_i}, as the recursion computed it."""
    def k(r):
        return (sum(mu[j] > mu[r] for j in range(r))
                + sum(mu[j] >= mu[r] for j in range(r + 1, len(mu))))
    return k(i + 1) - k(i)


def _nonzero(table):
    return {w: c for w, c in table.items() if not c.is_zero}


# the ranges of the relations: n = 2, ..., 6 with these |lam|
T0_RELATION_SIZES = {2: 5, 3: 5, 4: 4, 5: 4, 6: 3}
ATOM_RELATION_SIZES = {2: 6, 3: 5, 4: 4, 5: 4, 6: 3}


def test_demazure_relations_hold_on_column_tables():
    # the relations of _demazure_step on the unpacked tables of the column
    # program at exact_cap, for every lam and adjacent pair with lam_i !=
    # lam_{i+1}: E_{s_i lam}(x; q, 0) = pi_i E_lam(x; q, 0) for lam_i >
    # lam_{i+1}, pi_i f = D_i(x_i f); and for lam_i < lam_{i+1} (pi'_i - 1)
    # E_lam(x; q^{-1}, oo) = -x_i D_i E_lam equals E_{s_i lam} when d > 1
    # and (1 - q^a) E_{s_i lam} when d = 1, d the intertwiner's at s_i lam,
    # which is the production selector b plus 1
    pairs = {"t0": 0, "atom": 0}
    divided = 0
    for rule, sizes in (("t0", T0_RELATION_SIZES),
                        ("atom", ATOM_RELATION_SIZES)):
        for n, top in sizes.items():
            for lam in compositions_up_to(n, top):
                cap = exact_cap(lam)
                table = _column_terms(lam, cap, rule)
                for i in range(n - 1):
                    if (lam[i + 1] - lam[i]) * (1 if rule == "t0" else -1) >= 0:
                        continue
                    child = lam[:i] + (lam[i + 1], lam[i]) + lam[i + 2:]
                    want = _column_terms(child, cap, rule)
                    if rule == "t0":
                        got = _nonzero(_divided_difference(
                            _times_x(table, i), i))
                    else:
                        got = _nonzero({w: -c for w, c in _times_x(
                            _divided_difference(table, i), i).items()})
                        d = _intertwiner_d(child, i)
                        assert d == macdonald._atom_selector(lam, i) + 1, \
                            (lam, i)
                        if d == 1:
                            factor = QSeries(cap, (1,) + (0,) * (
                                lam[i + 1] - lam[i] - 1) + (-1,))
                            want = _nonzero({w: c * factor
                                             for w, c in want.items()})
                            divided += 1
                    assert got == want, (rule, lam, i)
                    pairs[rule] += 1
    assert pairs == {"t0": 395, "atom": 398}
    assert 0 < divided < 398


def _columns_by_ranking(lam):
    """The body ``_columns`` had before it ranked only the columns where the
    pattern changes, kept as its oracle: every column ranked afresh."""
    out = []
    for j in range(1, max(lam, default=0) + 1):
        d = tuple(max(e - j + 1, -1) for e in lam)
        rank = {v: r for r, v in enumerate(sorted(set(d) | {-1, 0}), -1)}
        out.append((tuple(rank[v] for v in d), d))
    return tuple(out)


# every composition with n <= 5 and |lam| <= 8
COLUMN_LAMS = [lam for n in range(1, 6) for lam in compositions_up_to(n, 8)]


def test_columns_match_ranking_every_column():
    # ranking only the columns j with j - 1 or j - 2 a part of lam (and j =
    # 1) gives every column's pattern; the function stays cached by name
    assert len(COLUMN_LAMS) == 2001
    for lam in COLUMN_LAMS:
        assert _columns(lam) == _columns_by_ranking(lam), lam
    assert _columns.cache_info().currsize > 0


def test_gain_and_increment_tables_match_sums():
    # the tables the column programs index by mask, against the sums they
    # replaced: the legs + 1 of the gaining rows, over every row mask of
    # every column of COLUMN_LAMS, and the 0/1 weight code of a value set
    for lam in COLUMN_LAMS:
        n = len(lam)
        for _, d in _columns(lam):
            gains = _gain_table(d)
            assert len(gains) == 1 << n, lam
            for rows in range(1 << n):
                assert gains[rows] == sum(d[i] for i in range(n)
                                          if rows >> i & 1), (lam, d, rows)
    for n in range(1, 7):
        for bits in range(1, 8):
            incs = _weight_increments(n, bits)
            assert len(incs) == 1 << n, (n, bits)
            for values in range(1 << n):
                col = [v for v in range(1, n + 1) if values >> v - 1 & 1]
                assert incs[values] == sum(1 << (bits * (v - 1))
                                           for v in col), (n, bits, values)


def _as_tuples(moves):
    """``_transitions``' moves as the tuple enumeration gives them: (col,
    gaining rows[, coinv]), each value mask checked against its col."""
    out = []
    for col, rows, values, *coinv in moves:
        assert values == sum(1 << v - 1 for v in col if v), col
        out.append((col, tuple(i for i in range(len(col)) if rows >> i & 1),
                    *coinv))
    return tuple(out)


def test_transitions_match_tuple_enumeration(monkeypatch):
    # every (pattern, prev, rule) the column programs reach at n <= 4,
    # |lam| <= 6 and at n = 5, |lam| <= 4: the t = 0 and atom tables at the
    # exact cap and floor 0, where no transition is skipped, and the generic
    # program (rule "qt"), whose coinv is a bit count of the partner mask;
    # the integer triples give the tuple enumeration's output, once the
    # gaining-row mask is read back as the tuple of its rows and the value
    # mask is checked against the column's entries
    reached = set()
    transitions = macdonald._transitions

    def recorded(*args):
        reached.add(args)
        return transitions(*args)
    monkeypatch.setattr(macdonald, "_transitions", recorded)
    lams = [lam for n in range(1, 6)
            for lam in compositions_up_to(n, 6 if n <= 4 else 4)]
    assert len(lams) == 455
    for lam in lams:
        for rule in ("t0", "atom"):
            _column_terms(lam, exact_cap(lam), rule)
        macdonald._generic_column_terms(lam)
    assert len(reached) > 1000
    assert sum(rule == "qt" for _, _, rule in reached) == 1229
    for args in reached:
        assert _as_tuples(transitions(*args)) == \
            _transitions_by_tuples(*args), args


class TestNorms:
    def test_examples(self):
        a = norm_a_qt((0, 2))
        expected = QTRational(
            (ONE - QTPoly.term(1, 2, 1)) * (ONE - Q * T),
            (ONE - QTPoly.term(1, 2, 0)) * (ONE - Q))
        assert a == expected
        b = norm_a_qt((2, 0))
        expected = QTRational(
            (ONE - QTPoly.term(1, 2, 2)) * (ONE - Q * T),
            (ONE - QTPoly.term(1, 2, 1)) * (ONE - Q))
        assert b == expected
        assert norm_a_qt((0,) * 3) == QTRational.one()

    def test_negative_entry_rejected(self):
        # both norms refuse a negative entry in any position, as macdonald_E
        # and the tables do; norm_a_q once read (-1, 0) as 1
        lams = [(-1, 0), (2, -1)] + [
            tuple(-1 if k == i else 2 for k in range(n))
            for n in (1, 2, 3) for i in range(n)]
        for lam in lams:
            for build in (lambda: norm_a_q(lam, 5), lambda: norm_a_qt(lam),
                          lambda: macdonald_E(lam),
                          lambda: e_t0_table([lam], 5),
                          lambda: e_atom_table([lam], 5)):
                with pytest.raises(ExactError, match="needs a composition"):
                    build()

    def test_norms_match_trial_division(self):
        # norm_a_qt cancels cyclotomic factors by count; the path it
        # replaced multiplied the numerator binomials out and reduced them
        # over the denominator binomials by trial division
        for n in range(1, 5):
            for lam in compositions_up_to(n, 6):
                num, den = QTPoly.one(), []
                for cell in diagram(lam):
                    arm, leg = arm_leg(lam, cell)
                    num = num.mul_one_minus_qt(leg + 1, arm + 1)
                    den.append((leg + 1, arm))
                assert norm_a_qt(lam) == reduce_over_binomials(num.m, den), \
                    lam

    def test_q_series_examples(self):
        # 1/((1-q)(1-q^2)) and 1/(1-q)
        assert norm_a_q((0, 2), 8) == \
            geometric_series(1, 8) * geometric_series(2, 8)
        assert norm_a_q((2, 0), 8) == geometric_series(1, 8)
        assert norm_a_q((0, 0), 8) == QSeries.one(8)

    def test_norm_products_match_geometric_series(self):
        # the one in-place product builder against the product of the
        # geometric series 1/(1 - q^d), for both norm products; for
        # norm_a_q the degrees are read off arm_leg cell by cell
        for n in (1, 2, 3, 4):
            for lam in compositions_up_to(n, 6):
                legs = [leg + 1 for arm, leg in
                        (arm_leg(lam, cell) for cell in diagram(lam))
                        if arm == 0]
                hw = hw_algebra_char(lam, "D")
                for cap in range(11):
                    for got, ds in ((norm_a_q(lam, cap), legs),
                                    (hw.qseries(cap), hw.generator_degrees)):
                        want = QSeries.one(cap)
                        for d in ds:
                            # 1 / (1 - q^d), written out
                            want = want * QSeries(cap, [
                                int(k % d == 0) for k in range(cap + 1)])
                        assert got == want, (lam, cap)

    def test_three_way_agreement(self):
        cap = 10
        for n in (2, 3, 4):
            for lam in compositions_up_to(n, 4):
                x = norm_a_q(lam, cap)
                y = hw_algebra_char_gl(lam, "D", cap)
                z = qseries_from_qtrational(
                    limit_t(norm_a_qt(lam), "zero"), cap)
                assert x == y == z, lam


def rank_one_tables(lam):
    """The t = 0 and (q^{-1}, oo) tables of a rank-two lam at its exact cap,
    restricted to sl_2: two {X-exponent: QPoly} maps."""
    cap = exact_cap(lam)
    return tuple({e[0]: QPoly(c.coeffs) for e, c in
                  restrict_poly_terms(table([lam], cap)[lam]).items()}
                 for table in (e_t0_table, e_atom_table))


class TestRankOne:
    def test_rs_small(self):
        assert rs_polynomial(0) == {0: QPoly.one()}
        assert rs_polynomial(1) == {1: QPoly.one(), -1: QPoly.one()}
        r2 = rs_polynomial(2)
        assert r2[0] == QPoly((1, 1)) and r2[2] == QPoly.one()

    def test_closed_forms_match_computed(self):
        cap = 12
        for w in range(-6, 7):
            lam = (w, 0) if w > 0 else (0, -w)
            cf_t0, cf_atom, cf_norm = sl2_closed_forms(w, cap)
            got_t0, got_atom = rank_one_tables(lam)
            assert got_t0 == cf_t0, w
            assert got_atom == cf_atom, w
            assert norm_a_q(lam, cap) == cf_norm, w

    def test_weight_one_values(self):
        e_t0, e_atom, a = sl2_closed_forms(-1, 6)
        assert e_t0 == {1: QPoly.one(), -1: QPoly.one()}
        assert e_atom == {1: QPoly.gen(), -1: QPoly.one()}
        assert a == geometric_series(1, 6)
        e_t0, e_atom, a = sl2_closed_forms(1, 6)
        assert e_t0 == {1: QPoly.one()}
        assert e_atom == {1: QPoly.one()}
        assert a == QSeries.one(6)


def test_restriction_compatibility():
    # res E_lam(x; q, t) at n = 2 matches the closed forms under each
    # specialization for mixed-sign weights
    for lam in ((3, 1), (1, 4)):
        w = lam[0] - lam[1]
        cf_t0, cf_atom, _ = sl2_closed_forms(w, 10)
        t0, atom = rank_one_tables(lam)
        assert t0 == cf_t0
        assert atom == cf_atom


def test_monic_normalization():
    for n in (2, 3):
        for lam in compositions_up_to(n, 4):
            E = macdonald_E(lam)
            assert E.terms[tuple(lam)] == QTRational.one()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_classical_tables_match_corner_specializations(n):
    # the q^0 coefficients of the t = 0 and (q^{-1}, oo) tables, which the
    # classical_q0 identity uses, are the key polynomials E(x; 0, 0) and
    # the Demazure atoms E(x; oo, oo)
    lams = list(compositions_up_to(n, 4))
    t0 = e_t0_table(lams, 0)
    atom = e_atom_table(lams, 0)
    for lam in lams:
        E = macdonald_E(lam)
        assert {e: c[0] for e, c in t0[lam].items()} == \
            specialize_E(E, "q0_t0").terms
        assert {e: c[0] for e, c in atom[lam].items()} == \
            specialize_E(E, "qinf_tinf").terms
