r"""Command-line front end.

Subcommands:

    macdonald --n N --lambda a,b,...
              [--spec qt|t0|qinv-tinf|q0|qinf-tinf|qt-inv] [--max-q K]
    norm      --n N --lambda a,b,...  [--qt | --alt] [--max-q K]
    char      --kind D|Uo|T|A-D|A-U --n N --lambda ... --max-deg D --max-q K
              [--lattice sl|gl]
    verify    --identity gl-qt|gl-t0|gl-slform|sl|classical-q0|iwahori-char|
              sl2-appendix --n N --max-deg D [--max-q K] [--jobs J]
    appendix  [--range L] [--max-q K]

Every verb takes [--format text|json].  An option is named in full or by a
unique prefix (--lam for --lambda), its value follows it or is joined to it
by = (--n=3), and the last one given wins.  -h or --help prints this.

Exit status 0 on pass/success or help, 1 on verification failure, 2 on
usage error (a malformed or out-of-range option, or flags that do not go
together: --max-q with a macdonald spec other than t0 or qinv-tinf, norm
--qt with --max-q or --alt), 3 on a broken internal invariant (failed
positivity, a window beyond its certified bound, a non-monic E) or on a
request that exhausts the interpreter (``RecursionError``,
``MemoryError``), 141 (128 + SIGPIPE) when the reader closes stdout
before the output is written.  Errors print one ``error:`` or ``internal
error:`` line to stderr.  Output is deterministic; timing goes to stderr.
``macdonald --spec t0`` and ``qinv-tinf`` read the t = 0 and (q^{-1}, oo)
tables at a cap where they are exact polynomials, ``q0`` and ``qinf-tinf``
their q^0 coefficients.  ``verify --jobs`` is accepted for compatibility
(it must be at least 1) and has no effect: every identity runs in one
thread.
"""

from __future__ import annotations

import json
import os
import re
import sys
from collections import namedtuple
from fractions import Fraction
from types import SimpleNamespace

from .affine import hw_algebra_char_gl
from .characters import char_module
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
        terms = macdonald_E(lam).terms
    elif mode == "qt_inv":
        terms = specialize_E(macdonald_E(lam), mode).terms
    else:
        table = e_t0_table if mode in ("t0", "q0_t0") else e_atom_table
        if mode in ("q0_t0", "qinf_tinf"):
            terms = {e: c[0] for e, c in table([lam], 0)[lam].items()}
        else:
            series = table([lam], exact_cap(lam))[lam]
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


# An option of a verb: its flag, the attribute it sets, its kind (int, str,
# a tuple of choices, or None for a flag that sets True), its default, the
# least value of an int option, and whether it must be given.
Option = namedtuple("Option", "flag dest kind default least required",
                    defaults=(None, None, False))
_N = Option("--n", "n", int, least=1, required=True)
_LAMBDA = Option("--lambda", "lam", str, required=True)
_FORMAT = Option("--format", "format", ("text", "json"), "text")
_MAX_DEG = Option("--max-deg", "max_deg", int, least=0, required=True)
_MAX_Q = Option("--max-q", "max_q", int, least=0)

# each verb's command and options; errors list options in this order
VERBS = {
    "macdonald": (cmd_macdonald, (
        _N, _LAMBDA, _FORMAT,
        Option("--spec", "spec", tuple(sorted(SPEC_NAMES)), "qt"), _MAX_Q)),
    "norm": (cmd_norm, (_N, _LAMBDA, _FORMAT, Option("--qt", "qt", None, False),
                        Option("--alt", "alt", None, False), _MAX_Q)),
    "char": (cmd_char, (
        _N, _LAMBDA, _FORMAT,
        Option("--kind", "kind", ("D", "Uo", "T", "A-D", "A-U"), required=True),
        _MAX_DEG, _MAX_Q._replace(required=True),
        Option("--lattice", "lattice", ("sl", "gl"), "sl"))),
    "verify": (cmd_verify, (
        _N, _FORMAT, Option("--identity", "identity",
                            tuple(sorted(IDENTITY_NAMES)), required=True),
        _MAX_DEG, _MAX_Q, Option("--jobs", "jobs", int, 1, 1))),
    "appendix": (cmd_appendix, (Option("--range", "range", int, 6, 0),
                                _MAX_Q._replace(default=12), _FORMAT)),
}
_HELP_FLAG = Option("-h/--help", "help", None)
_HELP = {"-h": _HELP_FLAG, "--help": _HELP_FLAG}
_FLAGS = {verb: {**_HELP, **{o.flag: o for o in options}}
          for verb, (_, options) in VERBS.items()}
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _lookup(token, flags):
    """How ``token`` reads against ``flags``: None for a value,
    else the flag (None if unknown) and the value joined to it (None if
    none).  A flag may be shortened to a unique prefix."""
    if token in flags:
        return token, None
    if token[:1] != "-" or len(token) == 1:
        return None
    flag, eq, value = token.partition("=")
    if eq and flag in flags:
        return flag, value
    if token[1] == "-":
        hits = [(f, value if eq else None) for f in flags if f.startswith(flag)]
    else:           # -h takes the rest of the token as its value
        hits = [(f, token[2:]) for f in flags if f == token[:2]]
    if len(hits) > 1:
        raise UsageError(f"ambiguous option: {token} could match "
                         + ", ".join(f for f, _ in hits))
    if hits:
        return hits[0]
    if _NEGATIVE_NUMBER.match(token) or " " in token:
        return None
    return None, None


def _take(tokens, flags, values, unknown):
    """Set ``values`` from ``tokens`` left to right, and collect the tokens
    no flag takes in ``unknown``; return True if one asks for help.  Every
    token is read, and an ambiguous one rejected, before any is taken."""
    hits = [_lookup(token, flags) for token in tokens]
    j = 0
    while j < len(tokens):
        flag, text = hits[j] or (None, None)
        option = flags.get(flag)
        j += 1
        if option is None:
            unknown.append(tokens[j - 1])
        elif option.kind is None:           # help, or a flag that sets True
            if flag == "-h" and text:       # -hh is -h -h
                text = text.lstrip("h") or None
            if text is not None:
                raise UsageError(f"argument {option.flag}: ignored explicit "
                                 f"argument {text!r}")
            if option is _HELP_FLAG:
                return True
            values[option.dest] = True
        else:
            if text is None:
                if j == len(tokens) or hits[j] is not None:
                    raise UsageError(f"argument {flag}: expected one argument")
                text, j = tokens[j], j + 1
            if option.kind is int:
                try:
                    text = int(text)
                except ValueError:
                    raise UsageError(
                        f"argument {flag}: invalid int value: {text!r}")
            elif option.kind is not str and text not in option.kind:
                raise UsageError(
                    f"argument {flag}: invalid choice: {text!r} (choose from "
                    + ", ".join(map(repr, option.kind)) + ")")
            values[option.dest] = text
    return False


def parse_args(argv):
    """The verb and option values of a command line, or None if it asks
    for help.  A bad command line raises UsageError for the first of: an
    ambiguous prefix, the leftmost bad value, missing options, unknown
    arguments, an int below its least value.  The last occurrence of an
    option wins; ``--`` ends the options."""
    argv = list(argv)
    top = 0         # the verb's index: options before it are help or unknown
    while top < len(argv) and argv[top] != "--" and _lookup(argv[top], _HELP):
        top += 1
    unknown = []
    if _take(argv[:top], _HELP, {}, unknown):
        return None
    if argv[top:] in ([], ["--"]):
        raise UsageError("the following arguments are required: verb")
    verb, rest = argv[top], argv[top + 1:]
    if verb not in VERBS:
        raise UsageError(f"argument verb: invalid choice: {verb!r} (choose "
                         "from " + ", ".join(map(repr, VERBS)) + ")")
    options = VERBS[verb][1]
    end = rest.index("--") if "--" in rest else len(rest)
    values = {o.dest: o.default for o in options}
    if _take(rest[:end], _FLAGS[verb], values, unknown):
        return None
    unknown += rest[end:]
    missing = [o.flag for o in options if o.required and values[o.dest] is None]
    if missing:
        raise UsageError("the following arguments are required: "
                         + ", ".join(missing))
    if unknown:
        raise UsageError("unrecognized arguments: " + " ".join(unknown))
    # in table order, except that appendix checks --max-q before --range
    for o in sorted(options, key=lambda o: o.dest == "range"):
        value = values[o.dest]
        if o.least is not None and value is not None and value < o.least:
            raise UsageError(f"{o.flag} must be at least {o.least}, "
                             f"got {value}")
    return SimpleNamespace(verb=verb, **values)


def run(argv):
    """Entry point returning the exit status (0 pass or help, 1 fail,
    2 usage, 3 broken invariant or exhausted interpreter)."""
    try:
        args = parse_args(argv)
    except UsageError as ex:
        # a message quotes arguments as given: their line breaks are escaped
        print("error: " + str(ex).replace("\n", "\\n"), file=sys.stderr)
        return 2
    if args is None:        # the synopsis at the head of this docstring
        if __doc__:         # python -OO strips docstrings
            print(__doc__[__doc__.index("Subcommands:"):
                          __doc__.index("\n\nExit status")])
        return 0
    try:
        return VERBS[args.verb][0](args)
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
    try:
        status = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: the flush at exit would fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 141
    sys.exit(status)


if __name__ == "__main__":
    main()
