r"""Command-line front end.

Subcommands:

    macdonald --n N --lambda a,b,...
              [--spec qt|t0|qinv-tinf|q0|qinf-tinf|qt-inv] [--max-q K]
    norm      --n N --lambda a,b,...  [--qt | --alt] [--max-q K]
    char      --kind D|Uo|T|A-D|A-U --n N --lambda ... --max-deg D --max-q K
    verify    --identity gl-qt|gl-t0|gl-slform|sl|classical-q0|iwahori-char|
              sl2-appendix --n N --max-deg D --max-q K [--jobs J]
    appendix  --range L --max-q K

Exit status 0 on pass/success, 1 on verification failure, 2 on usage error
(a malformed or out-of-range option, or flags that do not go together:
--max-q with a macdonald spec other than t0 or qinv-tinf, norm --qt with
--max-q or --alt), 3 on a broken internal invariant (failed positivity, a
window beyond its certified bound, a non-monic E) or on a request that
exhausts the interpreter (``RecursionError``, ``MemoryError``).  Errors
print one ``error:`` or ``internal error:`` line to stderr.  Output is
deterministic; timing goes to stderr.  ``macdonald --spec t0`` and
``qinv-tinf`` read the t = 0 and (q^{-1}, oo) tables at a cap where they
are exact polynomials, ``q0`` and ``qinf-tinf`` their q^0 coefficients.
``verify --jobs`` is accepted for compatibility (it must be at least 1) and
has no effect: every identity runs in one thread.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from .affine import hw_algebra_char_gl
from .exact import (ExactError, InvariantError, QPoly, QSeries, QTRational,
                    q_text)
from .identities import verify_identity, verify_sl2_appendix
from .macdonald import (e_atom_table, e_t0_table, exact_cap, macdonald_E,
                        norm_a_q, norm_a_qt, specialize_E)
from .series import TruncationPolicy, render_scalar

IDENTITY_NAMES = {
    "gl-qt": "gl_qt",
    "gl-t0": "gl_t0",
    "gl-slform": "gl_slform",
    "sl": "sl_projected",
    "classical-q0": "classical_q0",
    "iwahori-char": "iwahori_char",
    "sl2-appendix": "sl2_appendix",
}

SPEC_NAMES = {"qt": "generic", "t0": "t0", "qinv-tinf": "qinv_tinf",
              "q0": "q0_t0", "qinf-tinf": "qinf_tinf", "qt-inv": "qt_inv"}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are one ``error:`` line: it raises
    UsageError where argparse would print its usage and exit.  A message
    quotes arguments as given, so their line breaks are escaped."""

    def error(self, message):
        raise UsageError(message.replace("\n", "\\n"))


def _parse_lambda(text, n):
    try:
        lam = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise UsageError(f"malformed lambda {text!r}")
    if len(lam) != n:
        raise UsageError(f"lambda has {len(lam)} entries, expected {n}")
    if any(e < 0 for e in lam):
        raise UsageError("lambda entries must be nonnegative")
    return lam


# least admissible value of each numeric option
_LEAST = {"n": 1, "max_deg": 0, "max_q": 0, "range": 0, "jobs": 1}


def _check_ranges(args):
    for name, least in _LEAST.items():
        value = getattr(args, name, None)
        if value is not None and value < least:
            flag = "--" + name.replace("_", "-")
            raise UsageError(f"{flag} must be at least {least}, got {value}")


def _scalar_text(c):
    if isinstance(c, (int, Fraction)):
        return str(c)
    if isinstance(c, QPoly):
        s = str(c)
        return s if c.degree() <= 0 else f"({s})"
    if isinstance(c, QSeries):
        return f"({q_text(c.coeffs)} + O(q^{c.cap + 1}))"
    if isinstance(c, QTRational):
        return repr(c)
    return json.dumps(render_scalar(c), sort_keys=True)


def _poly_text(terms, names):
    """Deterministic text rendering of exponent-keyed terms."""
    parts = []
    for exps in sorted(terms, key=lambda e: (sum(e), e)):
        c = terms[exps]
        mono = "*".join(f"{nm}^{e}" if e != 1 else nm
                        for nm, e in zip(names, exps) if e != 0)
        parts.append(f"{_scalar_text(c)} {mono}".strip())
    return "\n".join(parts) if parts else "0"


def _emit_terms(terms, names, fmt, meta):
    if fmt == "json":
        records = [{"exps": list(e), "coeff": render_scalar(terms[e])}
                   for e in sorted(terms, key=lambda e: (sum(e), e))]
        print(json.dumps({**meta, "terms": records}, sort_keys=True))
    else:
        print(_poly_text(terms, names))


def cmd_macdonald(args):
    lam = _parse_lambda(args.lam, args.n)
    mode = SPEC_NAMES[args.spec]
    if args.max_q is not None and mode not in ("t0", "qinv_tinf"):
        raise UsageError(f"--spec {args.spec} is exact; drop --max-q")
    if mode == "generic":
        terms = macdonald_E(lam, args.n).terms
    elif mode == "qt_inv":
        terms = specialize_E(macdonald_E(lam, args.n), mode).terms
    else:
        table = e_t0_table if mode in ("t0", "q0_t0") else e_atom_table
        if mode in ("q0_t0", "qinf_tinf"):
            terms = {e: c[0] for e, c in table(args.n, [lam], 0)[lam].items()}
        else:
            series = table(args.n, [lam], exact_cap(lam))[lam]
            terms = {e: QPoly(c.coeffs) for e, c in series.items()}
            if args.max_q is not None:
                terms = {e: QSeries.from_qpoly(c, args.max_q)
                         for e, c in terms.items()}
    names = [f"x{i}" for i in range(1, args.n + 1)]
    _emit_terms(terms, names, args.format,
                {"lambda": list(lam), "n": args.n, "spec": args.spec})
    return 0


def cmd_norm(args):
    lam = _parse_lambda(args.lam, args.n)
    if args.qt:
        if args.max_q is not None:
            raise UsageError("--qt is exact in (q, t); drop --max-q")
        if args.alt:
            raise UsageError("--alt is a q-series formula; drop --qt")
        value = norm_a_qt(lam)
    else:
        cap = args.max_q if args.max_q is not None else 10
        value = (hw_algebra_char_gl(lam, "D", cap) if args.alt
                 else norm_a_q(lam, cap))
    if args.format == "json":
        print(json.dumps({"lambda": list(lam), "n": args.n,
                          "value": render_scalar(value)}, sort_keys=True))
    else:
        print(json.dumps(render_scalar(value), sort_keys=True))
    return 0


def cmd_char(args):
    from .characters import char_module
    lam = _parse_lambda(args.lam, args.n)
    kind = args.kind.replace("-", "_")
    policy = TruncationPolicy(args.max_deg, args.max_deg, args.max_q)
    series = char_module(kind, lam, policy, lattice=args.lattice)
    names = list(series.varset.xnames + series.varset.ynames)
    terms = dict(series.terms)
    _emit_terms(terms, names, args.format,
                {"kind": args.kind, "lambda": list(lam), "n": args.n,
                 "policy": {"max_deg": args.max_deg, "max_q": args.max_q}})
    return 0


def cmd_verify(args):
    variant = IDENTITY_NAMES[args.identity]
    if variant == "gl_qt":
        if args.max_q is not None:
            raise UsageError("gl-qt runs with exact coefficients; drop --max-q")
        policy = TruncationPolicy(args.max_deg, args.max_deg, None)
    else:
        if args.max_q is None:
            raise UsageError(f"{args.identity} needs --max-q")
        policy = TruncationPolicy(args.max_deg, args.max_deg, args.max_q)
    if variant == "sl2_appendix" and args.n != 2:
        raise UsageError("sl2-appendix is a rank-2 suite; use --n 2")
    return _emit_report(verify_identity(variant, args.n, policy), args.format)


def cmd_appendix(args):
    return _emit_report(
        verify_sl2_appendix((-args.range, args.range), args.max_q),
        args.format)


def _emit_report(report, fmt):
    """Print the report on stdout and its time on stderr; return the exit
    status."""
    print(report.to_json() if fmt == "json" else report.text())
    print(f"elapsed: {report.elapsed:.3f}s", file=sys.stderr)
    return 0 if report.passed else 1


@functools.lru_cache(maxsize=None)
def build_parser():
    """The argument parser, built on first use and kept for the process."""
    p = _Parser(
        prog="qcauchy",
        description="Exact computations with nonsymmetric Macdonald "
                    "polynomials and q-Cauchy identity verification")
    sub = p.add_subparsers(dest="verb", required=True)

    def common(sp, need_lambda=False):
        sp.add_argument("--n", type=int, required=True)
        if need_lambda:
            sp.add_argument("--lambda", dest="lam", required=True,
                            help="comma-separated composition, e.g. 0,2")
        sp.add_argument("--format", choices=("text", "json"), default="text")

    sp = sub.add_parser("macdonald", help="print E_lambda")
    common(sp, need_lambda=True)
    sp.add_argument("--spec", choices=sorted(SPEC_NAMES), default="qt")
    sp.add_argument("--max-q", type=int, default=None)
    sp.set_defaults(func=cmd_macdonald)

    sp = sub.add_parser("norm", help="print the norm factor a_lambda")
    common(sp, need_lambda=True)
    sp.add_argument("--qt", action="store_true",
                    help="the exact (q, t) norm instead of the q-series")
    sp.add_argument("--alt", action="store_true",
                    help="use the alternative product formula")
    sp.add_argument("--max-q", type=int, default=None)
    sp.set_defaults(func=cmd_norm)

    sp = sub.add_parser("char", help="print a module character")
    common(sp, need_lambda=True)
    sp.add_argument("--kind", choices=("D", "Uo", "T", "A-D", "A-U"),
                    required=True)
    sp.add_argument("--max-deg", type=int, required=True)
    sp.add_argument("--max-q", type=int, required=True)
    sp.add_argument("--lattice", choices=("sl", "gl"), default="sl")
    sp.set_defaults(func=cmd_char)

    sp = sub.add_parser("verify", help="run an identity verification")
    common(sp)
    sp.add_argument("--identity", choices=sorted(IDENTITY_NAMES),
                    required=True)
    sp.add_argument("--max-deg", type=int, required=True)
    sp.add_argument("--max-q", type=int, default=None)
    sp.add_argument("--jobs", type=int, default=1,
                    help="accepted for compatibility; has no effect")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("appendix", help="run the rank-one closed-form suite")
    sp.add_argument("--range", type=int, default=6,
                    help="check sl_2 weights in [-range, range]")
    sp.add_argument("--max-q", type=int, default=12)
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.set_defaults(func=cmd_appendix)
    return p


def run(argv):
    """Entry point returning the exit status (0 pass, 1 fail, 2 usage,
    3 broken invariant or exhausted interpreter)."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as ex:    # --help printed the help text
        return 2 if ex.code not in (0, None) else 0
    except UsageError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2
    try:
        _check_ranges(args)
        return args.func(args)
    except InvariantError as ex:
        print(f"internal error: {ex}", file=sys.stderr)
        return 3
    except (RecursionError, MemoryError) as ex:
        # the request exhausted the interpreter, not a failed verification
        detail = f": {ex}" if str(ex) else ""
        print(f"internal error: {type(ex).__name__}{detail}", file=sys.stderr)
        return 3
    except (UsageError, ExactError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
