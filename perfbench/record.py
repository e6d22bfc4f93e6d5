"""Record the expected exit status and stdout sha256 of every request any
seed can generate, into ``perfbench/expected.json``.

    python3 perfbench/record.py

Run it from the root of a checkout of the commit whose reports are the
reference, and only when a change of report bytes is the stated purpose of
that commit: the benchmark counts every later difference as a failure.
Verify requests run each in a fresh interpreter; the query-mix requests
share one.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402


def main():
    expected = {}
    env = run.child_env()
    for name in workloads.WORKLOADS:
        reqs = workloads.universe(name)
        ops = [reqs] if name == "query-mix" else [[r] for r in reqs]
        for op in ops:
            _, results = run.run_operation(op, env, None)
            if results is None:
                sys.exit(f"error: recording {name} failed")
            for argv, res in zip(op, results):
                expected[workloads.key(argv)] = {"status": res["status"],
                                                 "sha256": res["sha256"]}
        print(f"{name}: {len(reqs)} requests", file=sys.stderr)
    with open(os.path.join(HERE, "expected.json"), "w") as fh:
        json.dump(expected, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
