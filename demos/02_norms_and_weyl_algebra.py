"""Norm factors and the affine combinatorics behind them.

The norm a_lambda(q) has three independent descriptions: the arm/leg cell
product, the t -> 0 limit of the exact a_lambda(q, t), and an alternative
Pochhammer product read off the antidominant data.  The alternative product
is the Hilbert series of a free polynomial algebra (times 1/(q; q)_{min
lambda} in gl), whose generator degrees come from reduced-word prefixes in
the extended affine Weyl group: ``hw_algebra_char_gl`` computes both at
once.  This script computes all three and shows the word machinery.
"""

import signal

from qcauchy import (beta_sequence, factorized_words, hw_algebra_char,
                     hw_algebra_char_gl, limit_t, norm_a_q, norm_a_qt,
                     qseries_from_qtrational, translation_reduced_word)


def main():
    lam = (3, 0, 2)
    cap = 10
    print(f"lambda = {lam}\n")

    print("a_lambda(q, t) as an exact rational function:")
    print("  ", norm_a_qt(lam), "\n")

    a1 = norm_a_q(lam, cap)
    a2 = hw_algebra_char_gl(lam, "D", cap)
    a3 = qseries_from_qtrational(limit_t(norm_a_qt(lam), "zero"), cap)
    print("arm/leg product     :", list(a1.coeffs))
    print("alternative product :", list(a2.coeffs))
    print("t -> 0 of the (q,t) :", list(a3.coeffs))
    print("all equal:", a1 == a2 == a3, "\n")

    h = hw_algebra_char(lam, "D")
    print("highest-weight algebra generator degrees:", h.generator_degrees)
    print("its Hilbert series matches the norm:", h.qseries(cap) == a1, "\n")

    print("=== reduced words for translations ===")
    mu = (-1, 0, 1)
    w = translation_reduced_word(mu)
    print(f"t_{mu} = pi^{w.pi} *", " ".join(f"s{j}" for j in w.letters))
    print("coroot sequence (finite part, delta-degree):")
    for b in beta_sequence(w):
        print("   ", b.finite_part, b.degree)
    print()

    print("=== factorized words and their prefixes ===")
    for mode in ("D", "U"):
        word, prefix = factorized_words(lam, mode)
        print(f"mode {mode}: pi^{word.pi}, letters {list(word.letters)}, "
              f"prefix length {prefix}")
        via_word = hw_algebra_char(lam, "at_m", m=prefix, word=word)
        print(f"   degrees from the closed form : "
              f"{hw_algebra_char(lam, mode).generator_degrees}")
        print(f"   degrees from the word prefix : "
              f"{via_word.generator_degrees}")


if __name__ == "__main__":
    # a reader that closes the pipe early ends the demo, with no traceback
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    main()
