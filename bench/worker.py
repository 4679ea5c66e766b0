"""
One fresh interpreter running one workload.

    python3 bench/worker.py --workload W --inputs DIR --seconds S --trace 0|1

It loads the generator's inputs, runs every operation once with the
package's caches empty (the cold pass), then repeats the warm operations in
whole passes until S seconds have gone by since the cold pass began.  The
last line of its standard output is one JSON object with the per-operation
times, the failures and the peak resident set.  With --trace 1 the first
two passes run under the tracer and the object holds the per-layer figures
instead; further passes alternate untraced and traced to measure the
tracer's overhead.
"""

import argparse
import contextlib
import hashlib
import json
import os
import resource
import sys
import time
from time import perf_counter

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def import_package():
    """The curvetwist package from this checkout's src/, never another
    copy."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import curvetwist
    if os.path.dirname(os.path.dirname(os.path.abspath(curvetwist.__file__))) \
            != src:
        raise SystemExit("curvetwist was imported from %s, not %s"
                         % (curvetwist.__file__, src))
    import curvetwist.cli  # noqa: F401  (the ladder's entry point)
    return curvetwist


def run_pass(ops, failures, reports=None, checking=contextlib.nullcontext):
    """Time each operation, then check its output outside the timing and
    inside the `checking` context.  Returns {name: seconds}; failed
    operations are appended to failures.  A (code, text) output, which is
    what the command line gives, has its text's hash put in `reports` when
    that is a dict."""
    from workloads import Mismatch
    times = {}
    for op in ops:
        start = perf_counter()
        try:
            result = op.fn()
        except Exception as exc:  # a failing operation is counted, not fatal
            times[op.name] = perf_counter() - start
            failures.append("%s: %s: %s" % (op.name, type(exc).__name__, exc))
            continue
        times[op.name] = perf_counter() - start
        if reports is not None and isinstance(result, tuple) \
                and len(result) == 2 and isinstance(result[1], str):
            reports[op.name] = hashlib.sha256(result[1].encode()).hexdigest()
        try:
            with checking():
                op.check(result)
        except Mismatch as exc:
            failures.append("%s: %s" % (op.name, exc))
        except Exception as exc:  # the package raised inside a check
            failures.append("%s: check raised %s: %s"
                            % (op.name, type(exc).__name__, exc))
    return times


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    ct = import_package()
    from workloads import WORKLOAD_OPS
    with open(os.path.join(args.inputs, "inputs.json")) as fh:
        inputs = json.load(fh)
    ops = WORKLOAD_OPS[args.workload](ct, inputs)
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    warm_ops = [op for op in ops if op.warm]
    failures = []
    attempted = 0

    first_op_at = time.monotonic()
    deadline = first_op_at + args.seconds
    # checks call the package too; the tracer must not count them
    checking = tracer.paused if tracer else contextlib.nullcontext
    reports = {}
    cold = run_pass(ops, failures, reports, checking)
    attempted += len(ops)
    warm = []
    out = {"first_op_at": first_op_at, "cold": cold, "reports": reports}

    if tracer is None:
        while True:
            start = time.monotonic()
            warm.append(run_pass(warm_ops, failures))
            attempted += len(warm_ops)
            if time.monotonic() + (time.monotonic() - start) > deadline:
                break
        out["warm"] = warm
    else:
        warm.append(run_pass(warm_ops, failures, checking=checking))
        attempted += len(warm_ops)
        layers = {k: list(v) for k, v in tracer.stats.items()}
        overhead = []
        while True:
            start = time.monotonic()
            tracer.uninstall()
            plain = sum(run_pass(warm_ops, failures).values())
            tracer.install()
            traced = sum(run_pass(warm_ops, failures,
                                  checking=checking).values())
            attempted += 2 * len(warm_ops)
            overhead.append(traced - plain)
            if time.monotonic() + (time.monotonic() - start) > deadline:
                break
        tracer.uninstall()
        tracer.stats = layers
        overhead.sort()
        values, skipped = tracer.snapshot(overhead[len(overhead) // 2])
        out["layers"] = values
        out["skipped"] = skipped

    out["attempted"] = attempted
    out["failures"] = failures
    out["rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
