"""Module characters and the gl -> sl projection.

Shows the character product ch(T) = ch(A_D) ch(D) ch(Uo), the Iwahori
function-space character, and a hand-run of the fiber projection with its
certificate.
"""

import signal

from qcauchy import TruncationPolicy, char_module
from qcauchy.identities import (lhs_series, project_to_sl, sl_certificate,
                                sl_window_pairs)
from qcauchy.series import first_difference, mul_truncated


def main():
    pol = TruncationPolicy(3, 3, 5)
    lam = (0, 2)

    print(f"=== characters at the sl_2 weight of {lam} ===\n")
    for kind in ("A_D", "D", "Uo", "T"):
        s = char_module(kind, lam, pol)
        print(f"ch {kind}: {len(s.terms)} terms")
    t = char_module("T", lam, pol)
    prod = mul_truncated(mul_truncated(char_module("A_D", lam, pol),
                                       char_module("D", lam, pol)),
                         char_module("Uo", lam, pol))
    print("ch T == ch A_D * ch D * ch Uo:",
          first_difference(t.varset, t.terms, prod.terms) is None, "\n")

    print("=== the Iwahori function-space character (n = 2) ===")
    iw = lhs_series("iwahori_char", 2, pol)
    print(f"{len(iw.terms)} monomials at D = 3, K = 5")
    diag = sorted(e for e in iw.terms if e[0] == e[2] and e[1] == e[3])
    for e in diag[:4]:
        print(f"   x^{e[:2]} y^{e[2:]} :", list(iw.terms[e].coeffs))
    print()

    print("=== projecting to the sl weight lattice ===")
    n, wdeg, K = 2, 2, 3
    pairs = sl_window_pairs(n, wdeg)
    kmax, box_deg, _ = sl_certificate(n, pairs, K)
    print(f"window: class pairs reachable at gl-degree <= {wdeg} "
          f"({len(pairs)} pairs)")
    print(f"certificate: fibers close inside the box of degree D = {box_deg}"
          " in both blocks")
    box = TruncationPolicy(box_deg, box_deg, K)
    f = lhs_series("gl_slform", n, box)
    proj = project_to_sl(f, pairs, kmax, K)
    print("projected product side, sorted by class pair:")
    for exps, c in proj.sorted_items():
        print(f"   X^{exps[:1]} Y^{exps[1:]} :", list(c.coeffs))


if __name__ == "__main__":
    # a reader that closes the pipe early ends the demo, with no traceback
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    main()
