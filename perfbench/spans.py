"""Span tracing of qcauchy from outside the program.

``install`` wraps the public functions of each qcauchy module where they
are looked up: a function imported by name into another module (as
``identities`` imports ``mul_truncated``) is rebound there too, so every
call site goes through the wrapper.  Each wrapped call records a span with
its name, start, end and parent span; the spans of one operation share an
operation id.  Spans stay in memory until ``Tracer.dump``.

Three kinds of wrapper:

* stored spans, one record per call;
* folded spans for the scalar leaves (``QSeries`` add and mul,
  ``qtpoly_gcd``) that run hundreds of thousands of times per operation:
  their calls and time are summed per name and per parent span instead of
  stored one by one.  They call no other wrapped function, so the parent's
  self time stays exact;
* folded generator steps for the ``weights`` enumerators, whose work happens
  inside ``next`` as the caller consumes them.  They are rebound only
  outside ``weights``, so ``min_zero_compositions_up_to`` counts its output
  once and not again through the ``compositions_up_to`` it filters.

Self time is a span's duration minus the time its children cover: the sum
of its folded children plus the union of its stored children's intervals.
A span opened in a pool thread, with no open span of its own thread, takes
the operation thread's innermost open span as parent.  Its time overlaps
that of its sibling threads, so on a multi-threaded operation the self
times sum to more than the wall time; ``summarize`` reports that excess as
``trace.overlap_s``.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time

_now = time.perf_counter

# (module, attribute) of the functions wrapped as stored spans, with the
# span name; class attributes are written "Class.method".
STORED = [
    ("exact", "normalize_qt", "exact.normalize_qt"),
    ("series", "mul_truncated", "series.mul_truncated"),
    ("series", "inverse_truncated", "series.inverse_truncated"),
    ("series", "pochhammer_series", "series.pochhammer_series"),
    ("series", "TruncatedSeries.__add__", "series.TruncatedSeries.add"),
    ("series", "first_difference", "series.first_difference"),
    ("macdonald", "T0Engine.batch", "macdonald.T0Engine.batch"),
    ("macdonald", "atom_terms", "macdonald.atom_terms"),
    ("macdonald", "GenericMacdonaldEngine.get",
     "macdonald.GenericMacdonaldEngine.get"),
    ("macdonald", "norm_a_q", "macdonald.norm_a_q"),
    ("macdonald", "macdonald_E", "macdonald.macdonald_E"),
    ("macdonald", "specialize_E", "macdonald.specialize_E"),
    ("affine", "hw_algebra_char", "affine.hw_algebra_char"),
    ("characters", "char_module", "characters.char_module"),
    ("cli", "run", "cli.run"),
]

FOLDED = [
    ("exact", "qtpoly_gcd", "exact.qtpoly_gcd"),
    ("exact", "QSeries.__mul__", "exact.QSeries.mul"),
    ("exact", "QSeries.__add__", "exact.QSeries.add"),
]

GENERATORS = [
    ("weights", "compositions_up_to", "weights.compositions"),
    ("weights", "min_zero_compositions_up_to", "weights.compositions"),
]

# The identity stages of verify_identity, wrapped in the identities
# namespace only (stage name, functions of that stage).
STAGES = [
    ("identities.window", ("sl_window_pairs",)),
    ("identities.certificate", ("sl_certificate",)),
    ("identities.product_side", ("lhs_series", "_sl_lhs_window",
                                 "project_to_sl")),
    ("identities.macdonald_side", ("rhs_series", "_sl_rhs_adaptive")),
    ("identities.compare", ("first_difference",)),
    # the per-composition summand of rhs_series, the unit of work of the
    # --jobs pool: gives pool-thread spans a parent in their own thread
    ("identities.pair_product", ("_pair_product_series",)),
]

# Span fields.
NAME, OP, PARENT, START, END, FOLD = range(6)


class _ThreadState:
    """What one thread records without locking: its span stack, its folded
    time per parent span, and its counters."""

    def __init__(self):
        self.stack = []
        self.fold_by_parent = {}    # parent span index -> seconds
        self.folded = {}            # name -> [calls, seconds]
        self.counts = {}            # metric name -> number


class Tracer:
    """In-memory span store of one process."""

    def __init__(self):
        self.spans = []          # [name, op, parent index, start, end, folded]
        self.op = None
        self._lock = threading.Lock()
        self._threads = []
        self._tls = threading.local()
        self._op_stack = None

    @property
    def _local(self):
        state = getattr(self._tls, "state", None)
        if state is None:
            state = self._tls.state = _ThreadState()
            with self._lock:
                self._threads.append(state)
        return state

    def _parent(self, stack):
        if stack:
            return stack[-1]
        if self._op_stack:
            return self._op_stack[-1]
        return None

    def open(self, name):
        stack = self._local.stack
        rec = [name, self.op, self._parent(stack), _now(), None, 0.0]
        with self._lock:
            idx = len(self.spans)
            self.spans.append(rec)
        stack.append(idx)
        return rec

    def close(self, rec):
        rec[END] = _now()
        self._local.stack.pop()

    def fold(self, name, seconds):
        local = self._local
        parent = self._parent(local.stack)
        if parent is not None:
            fbp = local.fold_by_parent
            fbp[parent] = fbp.get(parent, 0.0) + seconds
        acc = local.folded.get(name)
        if acc is None:
            local.folded[name] = [1, seconds]
        else:
            acc[0] += 1
            acc[1] += seconds

    def count(self, name, value=1):
        counts = self._local.counts
        counts[name] = counts.get(name, 0) + value

    def innermost(self, name):
        """Index of the innermost open span of this name, looking in this
        thread's stack or, from a pool thread, the operation's."""
        for idx in reversed(self._local.stack or self._op_stack or []):
            if self.spans[idx][NAME] == name:
                return idx
        return None

    def run_op(self, op, fn, *args):
        """Run ``fn(*args)`` under the root span of operation ``op``."""
        self.op = op
        self._op_stack = self._local.stack
        rec = self.open("op")
        try:
            return fn(*args)
        finally:
            self.close(rec)
            self._op_stack = None

    def snapshot(self):
        """The merged record of every thread: spans, folded, counts."""
        folded, counts = {}, {}
        for state in self._threads:
            for parent, secs in state.fold_by_parent.items():
                self.spans[parent][FOLD] += secs
            state.fold_by_parent = {}
            for name, (n, secs) in state.folded.items():
                acc = folded.setdefault(name, [0, 0.0])
                acc[0] += n
                acc[1] += secs
            for name, v in state.counts.items():
                counts[name] = counts.get(name, 0) + v
        return {"spans": self.spans, "folded": folded, "counts": counts}

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.snapshot(), fh)


# ---------------------------------------------------------------------------
# wrappers
# ---------------------------------------------------------------------------

def _stored(tracer, name, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(rec)
        if after is not None:
            after(result)
        return result
    return wrapper


def _folded(tracer, name, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = _now()
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.fold(name, _now() - t0)
        if after is not None:
            after(result)
        return result
    return wrapper


def _generator(tracer, name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        it = fn(*args, **kwargs)
        while True:
            t0 = _now()
            try:
                item = next(it)
            except StopIteration:
                tracer.fold(name, _now() - t0)
                return
            tracer.fold(name, _now() - t0)
            tracer.count(name + ".enumerated")
            yield item
    return wrapper


def _t0_batch(tracer, name, error_cls, fn):
    @functools.wraps(fn)
    def wrapper(self, targets, cap):
        tracer.count(name + ".targets", len(targets))
        rec = tracer.open(name)
        try:
            return fn(self, targets, cap)
        except error_cls as ex:
            if "insufficient q-precision" in str(ex):
                tracer.count(name + ".retries")
            raise
        finally:
            tracer.close(rec)
    return wrapper


def _generic_get(tracer, name, as_tuple, fn):
    @functools.wraps(fn)
    def wrapper(self, lam):
        if as_tuple(lam) not in self.memo:
            tracer.count(name + ".misses")
        rec = tracer.open(name)
        try:
            return fn(self, lam)
        finally:
            tracer.close(rec)
    return wrapper


def _patch(mods, module, attr, wrap, skip=()):
    """Wrap ``module.attr``.  A method is replaced on its class, under every
    alias (``__radd__ = __add__``); a function wherever a module binds it."""
    owner = mods[module]
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(owner, cls_name)
        orig = vars(cls)[meth]
        wrapper = wrap(orig)
        for alias, value in list(vars(cls).items()):
            if value is orig:
                setattr(cls, alias, wrapper)
        return
    orig = getattr(owner, attr)
    wrapper = wrap(orig)
    for mname, mod in mods.items():
        if mname in skip:
            continue
        for alias, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, alias, wrapper)


def install(tracer):
    """Wrap the qcauchy modules' functions for ``tracer``, for the rest of
    the process."""
    mods = {m: importlib.import_module("qcauchy." + m)
            for m in ("exact", "series", "weights", "macdonald", "affine",
                      "characters", "identities", "cli")}
    macdonald, identities = mods["macdonald"], mods["identities"]
    after = {
        "series.mul_truncated":
            lambda r: tracer.count("series.mul_truncated.terms_out",
                                   len(r.terms)),
        "exact.qtpoly_gcd":
            lambda g: tracer.count("exact.qtpoly_gcd.nontrivial",
                                   int(g.tdegree() > 0 or g.qdegree() > 0)),
        "macdonald.atom_terms":
            lambda r: tracer.count("macdonald.atom_terms.fillings",
                                   sum(sum(c.coeffs) for c in r.values())),
    }

    def wrap_stored(name):
        if name == "macdonald.T0Engine.batch":
            return lambda fn: _t0_batch(tracer, name,
                                        mods["exact"].ExactError, fn)
        if name == "macdonald.GenericMacdonaldEngine.get":
            return lambda fn: _generic_get(tracer, name, macdonald._as_tuple,
                                           fn)
        return lambda fn: _stored(tracer, name, fn, after.get(name))

    for module, attr, name in STORED:
        _patch(mods, module, attr, wrap_stored(name))
    for module, attr, name in FOLDED:
        _patch(mods, module, attr, functools.partial(_folded, tracer, name,
                                                     after=after.get(name)))
    for module, attr, name in GENERATORS:
        _patch(mods, module, attr, functools.partial(_generator, tracer, name),
               skip=("weights",))

    # T0Engine.plan computes the recursion closure of a batch
    plan = macdonald.T0Engine.plan

    def plan_wrapper(self, targets):
        depth, children = plan(self, targets)
        tracer.count("macdonald.T0Engine.batch.closure", len(depth))
        return depth, children
    macdonald.T0Engine.plan = plan_wrapper

    _install_stages(tracer, identities)


def _install_stages(tracer, identities):
    after = {
        "sl_window_pairs":
            lambda r: tracer.count("identities.window.pairs", len(r)),
        "sl_certificate":
            lambda r: tracer.count("identities.certificate.box", r[1]),
        "_sl_rhs_adaptive":
            lambda r: tracer.count("identities.macdonald_side.summands", r[2]),
    }
    # first_difference is already the series-layer wrapper here, so the
    # compare stage is its parent span
    for stage, attrs in STAGES:
        for attr in attrs:
            setattr(identities, attr, _stored(tracer, stage,
                                              getattr(identities, attr),
                                              after.get(attr)))

    # rhs_series sums over _rhs_lambdas; count its length when it is called
    # inside the Macdonald side (verify_identity calls it again for the
    # report, outside any stage)
    rhs_lambdas = identities._rhs_lambdas

    def rhs_lambdas_wrapper(*args):
        lams = rhs_lambdas(*args)
        if tracer.innermost("identities.macdonald_side") is not None:
            tracer.count("identities.macdonald_side.summands", len(lams))
        return lams
    identities._rhs_lambdas = rhs_lambdas_wrapper


# ---------------------------------------------------------------------------
# summary
# ---------------------------------------------------------------------------

def _union_length(intervals, lo, hi):
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        s, e = max(s, lo), min(e, hi)
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans):
    """Self time of every stored span: duration minus folded children minus
    the union of the stored children's intervals."""
    children = {}
    for rec in spans:
        if rec[PARENT] is not None:
            children.setdefault(rec[PARENT], []).append((rec[START], rec[END]))
    out = []
    for idx, rec in enumerate(spans):
        start, end = rec[START], rec[END]
        covered = _union_length(children.get(idx, ()), start, end)
        out.append(end - start - rec[FOLD] - covered)
    return out


def summarize(data):
    """Per-layer metrics from a dumped trace (``Tracer.dump``)."""
    spans, folded, counts = data["spans"], data["folded"], data["counts"]
    selfs = self_times(spans)
    calls, self_s, total_s = {}, {}, {}
    roots = 0.0
    for rec, s in zip(spans, selfs):
        name = rec[NAME]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + s
        if rec[PARENT] is None:
            roots += rec[END] - rec[START]
        elif spans[rec[PARENT]][NAME] != name:
            # inclusive time, counting a recursive call once
            total_s[name] = total_s.get(name, 0.0) + rec[END] - rec[START]
    for name, (n, secs) in folded.items():
        calls[name] = calls.get(name, 0) + n
        self_s[name] = self_s.get(name, 0.0) + secs

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for name in ("exact.qtpoly_gcd", "exact.normalize_qt", "exact.QSeries.mul",
                 "exact.QSeries.add", "series.mul_truncated",
                 "series.inverse_truncated", "series.pochhammer_series",
                 "series.TruncatedSeries.add", "macdonald.T0Engine.batch",
                 "macdonald.atom_terms", "affine.hw_algebra_char",
                 "characters.char_module", "cli.run"):
        m[name + ".calls"] = calls.get(name, 0)
        m[name + ".self_s"] = self_s.get(name, 0.0)
    gcd_calls = calls.get("exact.qtpoly_gcd", 0)
    m["exact.qtpoly_gcd.nontrivial_ratio"] = ratio(
        counts.get("exact.qtpoly_gcd.nontrivial", 0), gcd_calls)
    m["series.mul_truncated.terms_out"] = counts.get(
        "series.mul_truncated.terms_out", 0)
    m["series.first_difference.self_s"] = self_s.get(
        "series.first_difference", 0.0)
    m["weights.compositions.enumerated"] = counts.get(
        "weights.compositions.enumerated", 0)
    m["weights.self_s"] = self_s.get("weights.compositions", 0.0)
    batch = "macdonald.T0Engine.batch"
    for stat in ("targets", "closure", "retries"):
        m[f"{batch}.{stat}"] = counts.get(f"{batch}.{stat}", 0)
    m[batch + ".target_ratio"] = ratio(m[batch + ".targets"],
                                       m[batch + ".closure"])
    m["macdonald.atom_terms.fillings"] = counts.get(
        "macdonald.atom_terms.fillings", 0)
    get = "macdonald.GenericMacdonaldEngine.get"
    m[get + ".calls"] = calls.get(get, 0)
    m[get + ".misses"] = counts.get(get + ".misses", 0)
    m[get + ".hit_ratio"] = ratio(m[get + ".calls"] - m[get + ".misses"],
                                  m[get + ".calls"])
    m[get + ".self_s"] = self_s.get(get, 0.0)
    for name in ("macdonald.norm_a_q", "macdonald.macdonald_E",
                 "macdonald.specialize_E"):
        m[name + ".self_s"] = self_s.get(name, 0.0)
    for stage, _ in STAGES:
        m[stage + ".self_s"] = self_s.get(stage, 0.0)
        m[stage + ".total_s"] = total_s.get(stage, 0.0)
    m["identities.window.pairs"] = counts.get("identities.window.pairs", 0)
    m["identities.certificate.box"] = counts.get("identities.certificate.box",
                                                 0)
    m["identities.macdonald_side.summands"] = counts.get(
        "identities.macdonald_side.summands", 0)
    layer_self = sum(s for name, s in self_s.items() if name != "op")
    unattributed = self_s.get("op", 0.0)
    m["trace.solve_s"] = roots
    m["trace.unattributed_s"] = unattributed
    m["trace.overlap_s"] = layer_self + unattributed - roots
    return m


def unit(metric):
    """The unit of a per-layer metric, from its last component."""
    stat = metric.rsplit(".", 1)[1]
    if stat.endswith("_s"):
        return "s"
    if stat.endswith("ratio"):
        return "ratio"
    return "count"
