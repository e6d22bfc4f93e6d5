"""The benchmark's workloads and their seeded request generators.

A workload turns a seed into operations.  An operation is the list of CLI
argument lists that one fresh interpreter runs, one after another, through
``qcauchy.cli.run``.  The program sees only these argument lists.

Every operation takes under a second, so that a run repeats it tens of
times and can report each request's median time (see ``run.py``).  The
verify points are therefore smaller than paper scale, chosen so that the
same layers lead: at sl window 2, K=2 the T0 engine, the atom table, the
product side and the certificate take about 42, 20, 14 and 9% (36, 23, 22
and 15% at window 3, K=4).

The verify workloads run one fixed parameter point each.  Neighbouring
points differ in cost by up to a quarter, more than the bound on
``solve_s``, so a seed that picked the point would make the figures spread
by the seed rather than by the code.  The seed picks the report format
instead (``text`` or ``json``): the same computation, checked against a
different digest.
"""

from __future__ import annotations

import itertools
import random

N = 3
MAX_SIZE = 4            # query-mix compositions: n = 3, |lambda| <= 4
REPEAT_MAX_SIZE = 3     # repeated macdonald requests stay on small lambda
CHAR_DEG, CHAR_Q = 3, 6

VERIFY_POINTS = {
    "sl-window": ["verify", "--identity", "sl", "--n", "3", "--max-deg", "2",
                  "--max-q", "2"],
    "gl-t0-box": ["verify", "--identity", "gl-t0", "--n", "3", "--max-deg",
                  "6", "--max-q", "8", "--jobs", "2"],
}
FORMATS = ("text", "json")

MACDONALD_SPECS = ("qt", "t0", "qinv-tinf")
NORM_FLAGS = ((), ("--alt",), ("--qt",))
CHAR_KINDS = ("D", "Uo", "T", "A-D")

WORKLOADS = tuple(VERIFY_POINTS) + ("query-mix",)


def compositions(max_size):
    return [lam for size in range(max_size + 1)
            for lam in itertools.product(range(size + 1), repeat=N)
            if sum(lam) == size]


def _lam(lam):
    return ",".join(map(str, lam))


def macdonald_request(lam, spec):
    return ["macdonald", "--n", str(N), "--lambda", _lam(lam), "--spec", spec]


def norm_request(lam, flags):
    return ["norm", "--n", str(N), "--lambda", _lam(lam), *flags]


def char_request(lam, kind):
    return ["char", "--kind", kind, "--n", str(N), "--lambda", _lam(lam),
            "--max-deg", str(CHAR_DEG), "--max-q", str(CHAR_Q)]


def query_mix(seed):
    """The seeded request sequence of one query-mix session.

    The session opens with one macdonald request per composition, in a
    fixed order and with the spec fixed by the composition's position.
    These requests write the generic engine's memo and carry most of the
    session's time.  Then come, in seeded order, the opening's requests on
    |lambda| <= REPEAT_MAX_SIZE once more, and one norm request per
    composition and flag set and one char request per composition and
    kind, which read what the opening wrote.  Every session asks for the
    same requests, so the seed moves the order of the work and not its
    amount: a seeded choice of the requests moved the median and the p95
    latency by a tenth or more from seed to seed."""
    rng = random.Random(seed)
    lams = compositions(MAX_SIZE)
    small = len(compositions(REPEAT_MAX_SIZE))    # they come by size
    opening = [macdonald_request(lam, MACDONALD_SPECS[i % len(MACDONALD_SPECS)])
               for i, lam in enumerate(lams)]
    mix = opening[:small]
    mix += [norm_request(lam, flags) for lam in lams for flags in NORM_FLAGS]
    mix += [char_request(lam, kind) for lam in lams for kind in CHAR_KINDS]
    rng.shuffle(mix)
    return opening + mix


def operation(workload, seed):
    """The requests of the workload's operation for ``seed``."""
    if workload == "query-mix":
        return query_mix(seed)
    fmt = random.Random(seed).choice(FORMATS)
    return [VERIFY_POINTS[workload] + ["--format", fmt]]


def universe(workload):
    """Every request any seed can generate, for recording digests."""
    if workload != "query-mix":
        return [VERIFY_POINTS[workload] + ["--format", fmt] for fmt in FORMATS]
    lams = compositions(MAX_SIZE)
    return ([macdonald_request(lam, s) for lam in lams for s in MACDONALD_SPECS]
            + [norm_request(lam, f) for lam in lams for f in NORM_FLAGS]
            + [char_request(lam, k) for lam in lams for k in CHAR_KINDS])


def key(argv):
    return " ".join(argv)
