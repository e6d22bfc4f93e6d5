"""Verify the q-Cauchy identities at desk scale.

Each verification builds both sides as maps {monomial: coefficient} with
exact coefficients and compares them by ``first_difference``; a failure
would name the first mismatching monomial.  The runs here are smaller
cousins of the acceptance suite.
"""

import signal

from qcauchy import TruncationPolicy, verify_identity, verify_sl2_appendix


def main():
    runs = [
        ("classical_q0", 2, TruncationPolicy(4, 4, 0),
         "classical key/atom identity"),
        ("gl_t0", 2, TruncationPolicy(4, 4, 6),
         "t = 0 kernel vs Macdonald sum"),
        ("gl_slform", 2, TruncationPolicy(4, 4, 6),
         "determinant-factored form"),
        ("iwahori_char", 2, TruncationPolicy(4, 4, 6),
         "function-space character"),
        ("gl_qt", 2, TruncationPolicy(2, 2, None),
         "full (q, t) kernel, exact coefficients"),
        ("sl_projected", 2, TruncationPolicy(3, 3, 4),
         "projected identity on a certified window"),
        ("sl_projected", 3, TruncationPolicy(2, 2, 3),
         "projected identity at rank 3"),
    ]
    for variant, n, policy, label in runs:
        report = verify_identity(variant, n, policy)
        status = "pass" if report.passed else "FAIL"
        print(f"[{status}] {label}  (variant={variant}, n={n}, "
              f"{report.lambda_count} summands, {report.elapsed:.2f}s)")
        if not report.passed:
            print("   witness:", report.witness)

    report = verify_sl2_appendix((-4, 4), 10)
    status = "pass" if report.passed else "FAIL"
    print(f"[{status}] rank-one closed forms for weights -4..4")


if __name__ == "__main__":
    # a reader that closes the pipe early ends the demo, with no traceback
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    main()
