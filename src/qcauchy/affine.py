r"""Extended affine Weyl group of type A: words, coroots, graded algebras.

Elements are modelled as affine permutations: bijections f of the integers
with f(i + n) = f(i) + n, stored by the window (f(1), ..., f(n)).  Length is
the inversion count; the translation by an integer vector mu acts as
f(j) = j + n * mu_{j mod n}.  Reduced words are extracted greedily (smallest
available letter first), which makes every downstream beta-sequence
deterministic.

The beta-sequence of a reduced word pi s_{j_1} ... s_{j_l} is

    beta_l = alpha_{j_l}^vee,  beta_{l-1} = s_{j_l} alpha_{j_{l-1}}^vee, ...

with affine coroots written as (finite part, delta-degree); for translation
words of antidominant weights every finite part is a negative coroot and
every degree is positive.
"""

from __future__ import annotations

from .exact import ExactError, geometric_product, inv_pochhammer_qq
from .weights import Permutation, antidominant_data


class AffineCoroot:
    """Affine coroot beta = finite_part + degree * delta^vee; the finite part
    is an integer vector with zero sum in the epsilon^vee coordinates."""

    __slots__ = ("finite_part", "degree")

    def __init__(self, finite_part, degree):
        finite_part = tuple(finite_part)
        if sum(finite_part) != 0:
            raise ExactError("finite part of an affine coroot must have zero sum")
        self.finite_part = finite_part
        self.degree = degree

    @classmethod
    def simple(cls, j, n):
        """alpha_j^vee for j = 1..n-1, or alpha_0^vee = -theta^vee + delta^vee."""
        if j == 0:
            fp = [0] * n
            fp[0], fp[-1] = -1, 1
            return cls(fp, 1)
        fp = [0] * n
        fp[j - 1], fp[j] = 1, -1
        return cls(fp, 0)

    def reflect(self, j, n):
        """Apply the simple reflection s_j (j in 0..n-1)."""
        b = self.finite_part
        if j == 0:
            pairing = -(b[0] - b[n - 1])   # <alpha_0, beta> = -<theta, finite part>
        else:
            pairing = b[j - 1] - b[j]
        if pairing == 0:
            return self
        root = AffineCoroot.simple(j, n)
        fp = tuple(x - pairing * y for x, y in zip(b, root.finite_part))
        return AffineCoroot(fp, self.degree - pairing * root.degree)

    def is_negative_finite(self):
        """Finite part a negative coroot: first nonzero coordinate negative."""
        for x in self.finite_part:
            if x:
                return x < 0
        return False

    def __eq__(self, other):
        return (isinstance(other, AffineCoroot)
                and self.finite_part == other.finite_part
                and self.degree == other.degree)

    def __hash__(self):
        return hash((self.finite_part, self.degree))

    def __repr__(self):
        return f"AffineCoroot({self.finite_part}, deg={self.degree})"


class AffinePerm:
    """Affine permutation for the extended affine symmetric group."""

    __slots__ = ("n", "window")

    def __init__(self, n, window):
        window = tuple(window)
        if len(window) != n:
            raise ExactError("window length mismatch")
        if len({w % n for w in window}) != n:
            raise ExactError(f"window {window} is not an affine permutation")
        self.n = n
        self.window = window

    @classmethod
    def identity(cls, n):
        return cls(n, range(1, n + 1))

    @classmethod
    def simple(cls, j, n):
        """s_j for j in 0..n-1 (s_0 is the affine reflection)."""
        if not 0 <= j <= n - 1:
            raise ExactError(f"letter {j} out of range for rank {n}")
        w = list(range(1, n + 1))
        if j == 0:
            if n == 1:
                raise ExactError("rank 1 has no affine reflection")
            w[0], w[n - 1] = 0, n + 1
        else:
            w[j - 1], w[j] = j + 1, j
        return cls(n, w)

    @classmethod
    def pi_power(cls, r, n):
        """The length-zero generator pi: j -> j + 1, raised to the power r."""
        return cls(n, (i + r for i in range(1, n + 1)))

    @classmethod
    def translation(cls, mu):
        """t_mu: j -> j + n * mu_{res(j)}."""
        mu = tuple(mu)
        n = len(mu)
        return cls(n, (i + n * mu[i - 1] for i in range(1, n + 1)))

    def __call__(self, j):
        r = (j - 1) % self.n
        k = (j - 1 - r) // self.n
        return self.window[r] + k * self.n

    def __mul__(self, other):
        """(self * other)(j) = self(other(j))."""
        return AffinePerm(self.n, (self(other(i)) for i in range(1, self.n + 1)))

    def inverse(self):
        win = [0] * self.n
        for i in range(1, self.n + 1):
            v = self(i)
            r = (v - 1) % self.n
            k = (v - 1 - r) // self.n
            win[r] = i - k * self.n
        return AffinePerm(self.n, win)

    def shift_sum(self):
        s = sum(self.window) - self.n * (self.n + 1) // 2
        if s % self.n:
            raise ExactError("shift sum not divisible by rank")
        return s // self.n

    def length(self):
        """Inversion count #{(i, j): 1 <= i <= n, j > i, f(i) > f(j)}."""
        n = self.n
        total = 0
        for i in range(1, n + 1):
            fi = self(i)
            for r in range(1, n + 1):
                fr = self.window[r - 1]
                # j = r + k n > i  and  f(j) = fr + k n < fi
                # k > (i - r)/n  and  k < (fi - fr)/n
                klo = (i - r) // n + 1
                khi = -((fr - fi) // n) - 1
                if khi >= klo:
                    total += khi - klo + 1
        return total

    def is_identity(self):
        return self.window == tuple(range(1, self.n + 1))

    def __eq__(self, other):
        return (isinstance(other, AffinePerm) and self.n == other.n
                and self.window == other.window)

    def __hash__(self):
        return hash((self.n, self.window))

    def __repr__(self):
        return f"AffinePerm{self.window}"


class ReducedWord:
    """Word pi^r s_{j_1} ... s_{j_l} in the extended affine Weyl group."""

    __slots__ = ("n", "pi", "letters")

    def __init__(self, n, pi, letters):
        self.n = n
        self.pi = pi
        self.letters = tuple(letters)

    @property
    def length(self):
        return len(self.letters)

    @property
    def pi_residue(self):
        return self.pi % self.n

    def evaluate(self):
        w = AffinePerm.pi_power(self.pi, self.n)
        for j in self.letters:
            w = w * AffinePerm.simple(j, self.n)
        return w

    def is_reduced(self):
        return self.evaluate().length() == self.length

    def __eq__(self, other):
        return (isinstance(other, ReducedWord) and self.n == other.n
                and self.pi == other.pi and self.letters == other.letters)

    def __repr__(self):
        return f"ReducedWord(pi^{self.pi}, {list(self.letters)})"


def coxeter_part_word(w):
    """Lexicographically smallest reduced word of the Coxeter part of w,
    peeled by smallest left descents.  Returns (pi_power, letters)."""
    n = w.n
    r = w.shift_sum()
    u = AffinePerm.pi_power(-r, n) * w
    letters = []
    ell = u.length()
    while ell > 0:
        for j in range(n):
            su = AffinePerm.simple(j, n) * u
            l2 = su.length()
            if l2 < ell:
                letters.append(j)
                u, ell = su, l2
                break
        else:
            raise ExactError("no descent found; evaluation bug")
    if not u.is_identity():
        raise ExactError("Coxeter part extraction failed")
    return r, tuple(letters)


def expected_translation_length(mu):
    """ell(t_mu) = sum over positive roots of |<mu, alpha^vee>|."""
    mu = tuple(mu)
    n = len(mu)
    return sum(abs(mu[i] - mu[j]) for i in range(n) for j in range(i + 1, n))


def translation_reduced_word(mu):
    """Canonical reduced word for the translation t_mu, mu antidominant."""
    mu = tuple(int(e) for e in mu)
    if any(mu[i] > mu[i + 1] for i in range(len(mu) - 1)):
        raise ExactError(f"{mu} is not antidominant (weakly increasing)")
    t = AffinePerm.translation(mu)
    r, letters = coxeter_part_word(t)
    word = ReducedWord(len(mu), r, letters)
    if word.length != expected_translation_length(mu):
        raise ExactError("translation word length mismatch")
    if word.evaluate() != t:
        raise ExactError("translation word evaluation mismatch")
    return word


def beta_sequence(word):
    """The affine coroots beta_1, ..., beta_l attached to a reduced word:

        beta_l = alpha_{j_l},  beta_{l-1} = s_{j_l} alpha_{j_{l-1}}, ...,
        beta_k = s_{j_l} s_{j_{l-1}} ... s_{j_{k+1}} alpha_{j_k},

    with the innermost reflection s_{j_{k+1}} applied first."""
    n = word.n
    letters = word.letters
    l = len(letters)
    betas = [None] * l
    for k in range(l):
        b = AffineCoroot.simple(letters[k], n)
        for m in range(k + 1, l):
            b = b.reflect(letters[m], n)
        betas[k] = b
    return betas


def char_l(lam_minus, word, alpha, m):
    """l_{alpha, m} = -<lam_-, alpha^vee> - #{j <= m : bar beta_j = -alpha^vee}.

    ``alpha`` is a positive root given as the pair (i, j), 1 <= i < j <= n,
    for epsilon_i - epsilon_j."""
    if not 0 <= m <= word.length:
        raise ExactError(f"m = {m} out of range for word of length {word.length}")
    lam_minus = tuple(lam_minus)
    n = len(lam_minus)
    i, j = alpha
    pairing = lam_minus[i - 1] - lam_minus[j - 1]
    neg = [0] * n
    neg[i - 1], neg[j - 1] = -1, 1
    neg = tuple(neg)
    count = sum(1 for b in beta_sequence(word)[:m] if b.finite_part == neg)
    return -pairing - count


# ---------------------------------------------------------------------------
# factorized reduced words and highest-weight algebras
# ---------------------------------------------------------------------------

def maximal_sigma(lam):
    """The maximal-length sigma with sigma(lam_-) = lam, and lam_-.

    sigma(j) is the j-th position when the positions are sorted by
    (lam_i, -i): the sort of ``antidominant_data`` with ties taken in
    reverse, so that every pair of equal entries is an inversion."""
    lam = tuple(lam)
    order = sorted(range(len(lam)), key=lambda i: (lam[i], -i))
    return Permutation(i + 1 for i in order), tuple(lam[i] for i in order)


def _pi_conjugate_letters(letters, r, n):
    """Letters of s_i conjugated through pi^r: s_i pi^r = pi^r s_{i - r}."""
    return tuple((i - r) % n for i in letters)


def factorized_words(lam, which):
    """Reduced word for t_{lam_-} whose prefix spells v(lam) (mode 'D') or
    v(lam') = sigma^{-1} w_0 with sigma the maximal-length class element
    (mode 'U'), in the pi-conjugated letter arrangement.

    The first-prefix coroots of the resulting beta-sequence realize exactly
    the inversion sets entering the closed highest-weight-algebra formulas.
    Returns (word, prefix_length)."""
    lam = tuple(int(e) for e in lam)
    n = len(lam)
    if which == "D":
        lam_minus, v = antidominant_data(lam)
        finite = v
    elif which == "U":
        sigma, lam_minus = maximal_sigma(lam)
        finite = sigma.inverse() * Permutation.longest(n)
    else:
        raise ExactError(f"unknown mode {which!r}")
    t = AffinePerm.translation(lam_minus)
    fin_letters = finite.reduced_word()
    fin_aff = AffinePerm.identity(n)
    for i in fin_letters:
        fin_aff = fin_aff * AffinePerm.simple(i, n)
    rest = fin_aff.inverse() * t
    if rest.length() + len(fin_letters) != t.length():
        raise ExactError("factorization is not length-additive; not reduced")
    r, rest_letters = coxeter_part_word(rest)
    letters = _pi_conjugate_letters(fin_letters, r, n) + rest_letters
    word = ReducedWord(n, r, letters)
    if word.evaluate() != t or not word.is_reduced():
        raise ExactError("non-reduced concatenation in factorized word")
    return word, len(fin_letters)


class HwAlgebraChar:
    """Character data of a free graded polynomial algebra: the multiset of
    generator degrees.  The character is prod 1/(1 - q^d)."""

    __slots__ = ("generator_degrees",)

    def __init__(self, degrees):
        self.generator_degrees = tuple(sorted(d for d in degrees if d > 0))

    def qseries(self, cap):
        return geometric_product(self.generator_degrees, cap)

    def __eq__(self, other):
        return (isinstance(other, HwAlgebraChar)
                and self.generator_degrees == other.generator_degrees)

    def __repr__(self):
        return f"HwAlgebraChar{self.generator_degrees}"


def hw_algebra_char(lam, mode, m=None, word=None):
    """Generator degrees of the highest-weight algebra at weight lam.

    mode 'D': degrees {1 .. -<lam_-, alpha_j^vee> - 1 + [v(lam)^{-1} alpha_j > 0]},
    mode 'U': degrees {1 .. -<lam_-, alpha_j^vee> - [sigma_max alpha_j > 0]},
    mode 'at_m': degrees {1 .. -<lam_-, alpha_j^vee> - #{i <= m: -bar beta_i
    = alpha_j^vee}} for the supplied reduced word.

    ``lam`` is a gl vector; the pairings are sl pairings (differences).  The
    D mode uses the minimal-length class element v(lam)^{-1} (its gl lift
    ``hw_algebra_char_gl`` is the alternative norm product), the U mode the
    maximal one; these are exactly the inversion counts produced by the
    prefixes of the factorized words (a prefix w contributes the inversions
    of w^{-1})."""
    lam = tuple(int(e) for e in lam)
    n = len(lam)
    lam_minus, v = antidominant_data(lam)
    pairings = [lam_minus[j - 1] - lam_minus[j] for j in range(1, n)]
    degrees = []
    if mode in ("D", "U"):
        sig = v.inverse() if mode == "D" else maximal_sigma(lam)[0]
        for j in range(1, n):
            positive = int(sig(j) < sig(j + 1))     # sig alpha_j > 0
            top = -pairings[j - 1] - (1 - positive if mode == "D" else positive)
            degrees.extend(range(1, top + 1))
        return HwAlgebraChar(degrees)
    if mode == "at_m":
        if word is None or m is None:
            raise ExactError("mode at_m needs m and a reduced word")
        if not 0 <= m <= word.length:
            raise ExactError(
                f"m = {m} out of range for word of length {word.length}")
        betas = beta_sequence(word)[:m]
        for j in range(1, n):
            neg = [0] * n
            neg[j - 1], neg[j] = -1, 1
            cnt = sum(1 for b in betas if b.finite_part == tuple(neg))
            top = -pairings[j - 1] - cnt
            degrees.extend(range(1, top + 1))
        return HwAlgebraChar(degrees)
    raise ExactError(f"unknown mode {mode!r}")


def hw_algebra_char_gl(lam, mode, cap):
    """gl lift: the sl character times 1/(q; q)_{min entry of lam}.

    In mode 'D' this is the alternative norm product
    1/(q; q)_{(lam_-)_1} prod_j 1/(q; q)_{top_j}, which equals a_lam(q)."""
    lam = tuple(int(e) for e in lam)
    base = hw_algebra_char(lam, mode).qseries(cap)
    return base * inv_pochhammer_qq(min(lam), cap)
