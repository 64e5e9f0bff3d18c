"""One pass of a workload in a fresh interpreter.

Run by run.py, never imported: the parent starts it with PYTHONPATH pointing
at the checkout's src directory and notes the clock first.  The pass imports
evencob, loads the operation list, stamps the moment the first operation is
ready, then runs every operation through evencob.cli.main with stdout
captured.  Each operation is bracketed by readings of the machine's speed
(speed.py).  The pass prints one JSON document: the ready stamp, each
operation's time, speed reading, exit code, report and error text, and the
pass's peak resident memory.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-out", metavar="PATH")
    args = parser.parse_args()

    from evencob import cli

    import workloads

    ops = workloads.operations(args.workload)
    order = workloads.run_order(len(ops), args.seed)
    ready = time.monotonic()

    import speed

    setup_reference = speed.settled_reference_seconds()
    if args.setup_only:
        print(json.dumps({"ready": ready, "setup_reference": setup_reference}))
        return 0

    tracer = None
    if args.trace_out:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()

    seconds = [0.0] * len(ops)
    codes = [0] * len(ops)
    reports = [""] * len(ops)
    errors = [""] * len(ops)
    reference = [0.0] * len(ops)
    scaled_self_ns: dict[str, float] = {}
    seen_self_ns: dict[str, int] = {}
    before = speed.reference_seconds()
    for i in order:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = cli.main(ops[i])
            except Exception:  # an uncaught error fails the operation, not the pass
                code = None
                traceback.print_exc()
            seconds[i] = time.perf_counter() - start
        after = speed.reference_seconds()
        reference[i] = (before + after) / 2
        before = after
        codes[i] = code
        reports[i] = out.getvalue()
        errors[i] = err.getvalue()
        if tracer is not None:
            for name, ns in tracer.self_ns.items():
                if ns != seen_self_ns.get(name, 0):
                    scaled = speed.scaled(ns - seen_self_ns.get(name, 0), reference[i])
                    scaled_self_ns[name] = scaled_self_ns.get(name, 0.0) + scaled
                    seen_self_ns[name] = ns

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result = {
        "ready": ready,
        "setup_reference": setup_reference,
        "seconds": seconds,
        "reference": reference,
        "codes": codes,
        "reports": reports,
        "errors": errors,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics(scaled_self_ns)
        with open(args.trace_out, "w") as fh:
            json.dump(tracer.span_table(), fh, separators=(",", ":"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
