"""Run qcauchy CLI requests in this fresh interpreter.

Reads a job from stdin, ``{"requests": [[arg, ...], ...], "trace": path or
null}``, runs each request through ``qcauchy.cli.run`` with its stdout
captured, and prints one JSON line: the time ``qcauchy.cli`` finished
importing and, per request, the exit status, the sha256 of its stdout and
its start and end times.  Times are ``time.perf_counter``, which on Linux
is the system-wide monotonic clock, so the parent can compare them with its
own.  With a trace path the qcauchy modules are wrapped first
(``spans.install``) and the spans are written to that path at the end.
"""

import hashlib
import io
import json
import sys
import time


def main():
    from qcauchy import cli
    imported = time.perf_counter()
    job = json.load(sys.stdin)
    run = cli.run
    tracer = None
    if job.get("trace"):
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)
        run = cli.run     # the wrapped entry point

    results = []
    real_stdout = sys.stdout
    for i, argv in enumerate(job["requests"]):
        buf = io.StringIO()
        sys.stdout = buf
        start = time.perf_counter()
        try:
            if tracer is None:
                status = run(argv)
            else:
                status = tracer.run_op(i, run, argv)
        except Exception as ex:   # a crash fails this request, not the run
            status = f"{type(ex).__name__}: {ex}"
        finally:
            end = time.perf_counter()
            sys.stdout = real_stdout
        digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()
        results.append({"status": status, "sha256": digest,
                        "start": start, "end": end})
    if tracer is not None:
        tracer.dump(job["trace"])
    print(json.dumps({"imported": imported, "results": results}))


if __name__ == "__main__":
    main()
