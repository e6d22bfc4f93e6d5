r"""Weight-lattice combinatorics for gl_n and sl_n (type A only).

Compositions, diagrams with arm/leg statistics, antidominant representatives
with their minimal-length sorting permutations, the partial order on weights,
Bruhat order on S_n, and the restriction map to the sl_n weight lattice.

Conventions: a permutation w acts on integer vectors by (w.v)_{w(i)} = v_i,
antidominant means weakly increasing, and v(lam) is the unique minimal-length
permutation with v(lam).lam weakly increasing (computed by a stable sort,
which delivers minimality for repeated entries).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations as _all_perms


class Permutation:
    """Permutation of {1..n} in one-line notation: images[i-1] = w(i)."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError(f"not a permutation of 1..{len(images)}: {images}")
        self.images = images

    @classmethod
    def identity(cls, n):
        return cls(range(1, n + 1))

    @classmethod
    def simple(cls, i, n):
        """The transposition s_i = (i, i+1), 1 <= i <= n-1."""
        im = list(range(1, n + 1))
        im[i - 1], im[i] = im[i], im[i - 1]
        return cls(im)

    @classmethod
    def longest(cls, n):
        return cls(range(n, 0, -1))

    @property
    def n(self):
        return len(self.images)

    def __call__(self, i):
        return self.images[i - 1]

    def __mul__(self, other):
        """(self * other)(i) = self(other(i))."""
        return Permutation(self.images[other.images[i] - 1] for i in range(self.n))

    def inverse(self):
        inv = [0] * self.n
        for i, w in enumerate(self.images, start=1):
            inv[w - 1] = i
        return Permutation(inv)

    def act(self, vec):
        """(w.vec)_{w(i)} = vec_i, i.e. (w.vec)_j = vec_{w^{-1}(j)}."""
        vec = tuple(vec)
        out = [0] * self.n
        for i, w in enumerate(self.images):
            out[w - 1] = vec[i]
        return tuple(out)

    def length(self):
        im = self.images
        return sum(1 for i in range(self.n) for j in range(i + 1, self.n)
                   if im[i] > im[j])

    def reduced_word(self):
        """Lexicographically smallest reduced word (greedy left descents)."""
        w = self
        word = []
        while True:
            for i in range(1, w.n):
                # s_i is a left descent iff w^{-1}(i) > w^{-1}(i+1)
                inv = w.inverse()
                if inv(i) > inv(i + 1):
                    word.append(i)
                    w = Permutation.simple(i, w.n) * w
                    break
            else:
                break
        return tuple(word)

    def is_identity(self):
        return all(self.images[i] == i + 1 for i in range(self.n))

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"Permutation{self.images}"


@lru_cache(maxsize=None)
def _bruhat_lower_set(images):
    """All permutations <= w in Bruhat order, via subword products of a
    reduced word of w."""
    w = Permutation(images)
    n = w.n
    reachable = {Permutation.identity(n).images}
    for i in w.reduced_word():
        s = Permutation.simple(i, n)
        new = set(reachable)
        for im in reachable:
            new.add((Permutation(im) * s).images)
        reachable = new
    return frozenset(reachable)


def bruhat_leq(u, w):
    """u <= w in Bruhat order on S_n (subword criterion)."""
    if u.n != w.n:
        raise ValueError("rank mismatch")
    return u.images in _bruhat_lower_set(w.images)


# ---------------------------------------------------------------------------
# compositions, diagrams, arms and legs
# ---------------------------------------------------------------------------

class Composition:
    """Vector of n nonnegative integers."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        entries = tuple(int(e) for e in entries)
        if not entries:
            raise ValueError("composition must have length >= 1")
        if any(e < 0 for e in entries):
            raise ValueError(f"negative entry in composition {entries}")
        self.entries = entries

    @property
    def n(self):
        return len(self.entries)

    def size(self):
        return sum(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)

    def __eq__(self, other):
        if isinstance(other, Composition):
            return self.entries == other.entries
        if isinstance(other, tuple):
            return self.entries == other
        return NotImplemented

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"Composition{self.entries}"


def _as_entries(lam):
    if isinstance(lam, Composition):
        return lam.entries
    return tuple(int(e) for e in lam)


def diagram(lam):
    """Cells (i, j), 1 <= j <= lam_i, of the composition diagram."""
    entries = _as_entries(lam)
    return [(i, j) for i in range(1, len(entries) + 1)
            for j in range(1, entries[i - 1] + 1)]


def arm_leg(lam, cell):
    """Generalized arm and leg of a cell s = (i, j) in dg(lam):

        leg = lam_i - j,
        arm = #{k < i : j <= lam_k <= lam_i} + #{k > i : j <= lam_k + 1 <= lam_i}.
    """
    entries = _as_entries(lam)
    i, j = cell
    n = len(entries)
    if not (1 <= i <= n and 1 <= j <= entries[i - 1]):
        raise ValueError(f"cell {cell} outside diagram of {entries}")
    li = entries[i - 1]
    leg = li - j
    arm = 0
    for k in range(1, i):
        if j <= entries[k - 1] <= li:
            arm += 1
    for k in range(i + 1, n + 1):
        if j <= entries[k - 1] + 1 <= li:
            arm += 1
    return arm, leg


# ---------------------------------------------------------------------------
# antidominant data and the partial order
# ---------------------------------------------------------------------------

def antidominant_data(lam):
    """(lam_-, v(lam)): the weakly increasing rearrangement and the unique
    minimal-length permutation with v(lam).lam = lam_-.

    Works for arbitrary integer vectors (negative entries allowed).
    """
    entries = _as_entries(lam)
    n = len(entries)
    order = sorted(range(n), key=lambda i: (entries[i], i))
    lam_minus = tuple(entries[i] for i in order)
    # v maps original position order[j] (1-based) to j+1
    images = [0] * n
    for j, i in enumerate(order):
        images[i] = j + 1
    v = Permutation(images)
    return lam_minus, v


def min_length_sorting_brute(lam):
    """Brute-force check value: a minimal-length w with w.lam antidominant."""
    entries = _as_entries(lam)
    n = len(entries)
    target = tuple(sorted(entries))
    best = None
    for images in _all_perms(range(1, n + 1)):
        w = Permutation(images)
        if w.act(entries) == target:
            if best is None or w.length() < best.length():
                best = w
    return best


def in_negative_root_cone(vec):
    """vec in -Q_+: a nonpositive integer combination of simple roots.

    In type A this means all partial sums are <= 0 and the total sum is 0.
    """
    total = 0
    for e in vec[:-1]:
        total += e
        if total > 0:
            return False
    return total + vec[-1] == 0


def order_geq(lam, mu):
    """lam >= mu in the partial order: lam_- - mu_- in -Q_+, with Bruhat
    comparison v(lam) <= v(mu) exactly when lam_- = mu_-."""
    lam = _as_entries(lam)
    mu = _as_entries(mu)
    if len(lam) != len(mu):
        raise ValueError("weights in different lattices")
    lm, vl = antidominant_data(lam)
    mm, vm = antidominant_data(mu)
    if lm == mm:
        return bruhat_leq(vl, vm)
    diff = tuple(a - b for a, b in zip(lm, mm))
    return in_negative_root_cone(diff)


# ---------------------------------------------------------------------------
# gl_n -> sl_n restriction
# ---------------------------------------------------------------------------

def restrict_weight(lam):
    """Image of a gl_n weight in the sl_n lattice: coordinates on the
    fundamental weights, (lam_1 - lam_2, ..., lam_{n-1} - lam_n)."""
    entries = _as_entries(lam)
    return tuple(entries[j] - entries[j + 1] for j in range(len(entries) - 1))


def sl_representative(coords):
    """The unique representative in (Z_{>=0})^n_0 of an sl_n weight given by
    fundamental-weight coordinates; inverse to restrict_weight on that set."""
    coords = tuple(int(c) for c in coords)
    n = len(coords) + 1
    lam = [0] * n
    for j in range(n - 2, -1, -1):
        lam[j] = lam[j + 1] + coords[j]
    m = min(lam)
    return Composition(tuple(e - m for e in lam))


def compositions_of_size(n, total):
    """All compositions of given total with n parts."""
    if n == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions_of_size(n - 1, total - first):
            yield (first,) + rest


def compositions_up_to(n, max_total):
    for total in range(max_total + 1):
        yield from compositions_of_size(n, total)


def min_zero_compositions_up_to(n, max_total):
    """Compositions with at least one zero coordinate (the canonical
    representatives of sl_n weights), sizes up to max_total."""
    for lam in compositions_up_to(n, max_total):
        if min(lam) == 0:
            yield lam
