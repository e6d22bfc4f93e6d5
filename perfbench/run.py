"""qcauchy benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload sl-window --seed 0 --seconds 40 --trace 0

Run from the root of a qcauchy checkout; the program is run from ``src``
there.  The run repeats the workload's operation, each time in a fresh
interpreter, one at a time (a closed loop with one client), until
``--seconds`` have passed.  Every request's exit status and stdout sha256
are checked against ``perfbench/expected.json``.

The host this benchmark was built on (2 vCPUs of a shared machine) slows
by a quarter to three quarters for spells of seconds to minutes, which
moved the figures of unchanged code from run to run by more than the
bounds (``perfbench/WORKLOADS.md``).  So the run times a fixed pure-Python
loop before and after every operation, and scales the operation's times by
the loop's time at full speed over its time then: the time metrics are
seconds at the host's full speed.  The operations are short, so a run holds
tens of them, and each request's time is its median over the run.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``; with
``--trace 1`` the per-layer metrics of one extra, traced operation (spans
written to ``.perfbench_out/``).  The line before it records the run's
context: code and interpreter versions, core count, load average,
``fail_frac``, the request count and ``host_scale``, the median factor the
times were scaled by.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import spans  # noqa: E402
import workloads  # noqa: E402

RUN_DEADLINE_S = 170.0    # every run ends within 180 s
OUT_DIR = ".perfbench_out"
GAUGE_LOOPS = 150_000
# the gauge loop's time at full speed on the host the bounds were set on:
# 2 vCPUs of an Intel Xeon VM, Python 3.11.7
GAUGE_FULL_SPEED_S = 0.0102


def child_env():
    env = dict(os.environ)
    # a disk cache would change what is measured, and can change output
    env.pop("MACDONALD_CACHE_DIR", None)
    env["PYTHONPATH"] = "src"
    # the same string hashing in every run, so no seed does other work
    env["PYTHONHASHSEED"] = "0"
    return env


def nearest_rank(values, p):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)]


def gauge():
    """The least time of three runs of a fixed loop: the host's speed now.
    It runs while no operation does, so the program cannot slow it."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(GAUGE_LOOPS):
            acc += i * i % 7
        best = min(best, time.perf_counter() - t0)
    return best


def run_operation(requests, env, deadline, trace_path=None):
    """Run one operation in a fresh interpreter, killed at ``deadline``
    (``perf_counter`` time; None for no limit).  Returns (set-up seconds,
    from the spawn to the end of ``import qcauchy.cli``; per-request
    results), both None when the process failed."""
    job = json.dumps({"requests": requests, "trace": trace_path})
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "child.py")],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env, text=True)
    try:
        timeout = None if deadline is None else max(1.0, deadline - t0)
        out, err = proc.communicate(job, timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"operation timed out after {time.perf_counter() - t0:.1f}s",
              file=sys.stderr)
        return None, None
    if proc.returncode != 0:
        print(f"operation process exited {proc.returncode}:\n{err[-2000:]}",
              file=sys.stderr)
        return None, None
    payload = json.loads(out.splitlines()[-1])
    return payload["imported"] - t0, payload["results"]


def check(requests, results, expected):
    """Number of requests whose status or stdout digest is not the recorded
    one (all of them when the process failed)."""
    if results is None:
        return len(requests)
    failed = 0
    for argv, res in zip(requests, results):
        want = expected.get(workloads.key(argv))
        if want is None or res["status"] != want["status"] \
                or res["sha256"] != want["sha256"]:
            failed += 1
            print(f"mismatch: {workloads.key(argv)}: got {res['status']} "
                  f"{res['sha256'][:12]}, want {want}", file=sys.stderr)
    return failed


def context():
    git_sha = None
    try:
        with open(".git/HEAD") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(".git", head[5:])) as fh:
                head = fh.read().strip()
        git_sha = head
    except OSError:
        pass
    src = hashlib.sha256()
    pkg = os.path.join("src", "qcauchy")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    return {"git_sha": git_sha, "source_sha256": src.hexdigest(),
            "python": sys.version.split()[0], "nproc": os.cpu_count(),
            "loadavg": os.getloadavg()}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "qcauchy", "cli.py")):
        sys.exit("error: no qcauchy sources under src/; run from the root "
                 "of a qcauchy checkout")
    t_begin = time.perf_counter()
    deadline = t_begin + RUN_DEADLINE_S
    with open(os.path.join(HERE, "expected.json")) as fh:
        expected = json.load(fh)
    env = child_env()
    requests = workloads.operation(args.workload, args.seed)

    attempted = failed = 0
    setups, walls, latencies, scales = [], [], [], []
    t0 = time.perf_counter()
    before = gauge()
    while True:
        setup, results = run_operation(requests, env, deadline)
        after = gauge()
        scale = GAUGE_FULL_SPEED_S / ((before + after) / 2)
        before = after
        attempted += len(requests)
        failed += check(requests, results, expected)
        if results is not None:
            scales.append(scale)
            setups.append(setup * scale)
            walls.append(results[-1]["end"] - results[0]["start"])
            latencies.append([(r["end"] - r["start"]) * scale
                              for r in results])
        if time.perf_counter() - t0 >= args.seconds \
                or time.perf_counter() >= deadline:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    ctx = context()
    ctx.update({"workload": args.workload, "seed": args.seed,
                "operations": len(walls), "requests": attempted,
                "fail_frac": failed / attempted,
                "host_scale": statistics.median(scales) if scales else None})

    if args.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.json")
        _, results = run_operation(requests, env, deadline, trace_path=path)
        attempted += len(requests)
        failed += check(requests, results, expected)
        metrics = {}
        if results is not None:
            with open(path) as fh:
                layers = spans.summarize(json.load(fh))
            if walls:
                layers["trace.overhead_ratio"] = (
                    layers["trace.solve_s"] / statistics.median(walls))
            metrics = {name: {"value": v, "unit": spans.unit(name)}
                       for name, v in layers.items()}
        ctx["fail_frac"] = failed / attempted
    else:
        # the first spawn may write the bytecode cache
        setup_s = statistics.median(setups[1:] or setups) if setups else 0.0
        # each request's median over the run's operations
        typical = [statistics.median(ts) for ts in zip(*latencies)] or [0.0]
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "solve_s": {"value": sum(typical), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "query_p50_ms": {"value": 1000 * nearest_rank(typical, 0.5),
                             "unit": "ms"},
            "query_p95_ms": {"value": 1000 * nearest_rank(typical, 0.95),
                             "unit": "ms"},
        }
    ctx["run_s"] = time.perf_counter() - t_begin
    print(json.dumps(ctx, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
