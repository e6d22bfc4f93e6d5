"""Compute nonsymmetric Macdonald polynomials and their specializations.

Walks the basic objects: E_lambda with exact rational-function coefficients,
the combinatorial fillings path, and all five specializations (t = 0,
(q^{-1}, oo), full (q, t)-inversion, and the two classical corners).
"""

import signal

from qcauchy import macdonald_E, macdonald_E_fillings, specialize_E


def show(E, label):
    print(f"{label}:")
    for exps in sorted(E.terms, key=lambda e: (sum(e), e)):
        print(f"   x^{exps} : {E.terms[exps]!r}")
    print()


def main():
    print("=== the smallest nontrivial case: lambda = (0, 1) ===\n")
    E = macdonald_E((0, 1))
    show(E, "E_(0,1)(x; q, t)")

    F = macdonald_E_fillings((0, 1))
    print("fillings path agrees coefficient by coefficient:",
          E.terms == F.terms, "\n")

    for mode, label in [
        ("t0", "t = 0 (Demazure-type character)"),
        ("qinv_tinf", "(q^{-1}, oo) (the opposite family)"),
        ("q0_t0", "(0, 0) (key polynomial)"),
        ("qinf_tinf", "(oo, oo) (Demazure atom)"),
    ]:
        show(specialize_E(E, mode), f"specialization {label}")

    print("=== a rank-3 example: lambda = (0, 2, 1) ===\n")
    E = macdonald_E((0, 2, 1))
    show(specialize_E(E, "t0"), "E_(0,2,1)(x; q, 0)")
    print("number of generic terms:", len(E.terms))
    print("homogeneous of degree |lambda| = 3:", E.total_degree_check())

    print("\n=== stability: E_{lambda + m(1,..,1)} = (x1...xn)^m E_lambda ===")
    base = macdonald_E((0, 1, 2))
    shifted = macdonald_E((1, 2, 3))
    lifted = {tuple(e + 1 for e in exps): c for exps, c in base.terms.items()}
    print("E_(1,2,3) == x1 x2 x3 * E_(0,1,2):", shifted.terms == lifted)


if __name__ == "__main__":
    # a reader that closes the pipe early ends the demo, with no traceback
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    main()
