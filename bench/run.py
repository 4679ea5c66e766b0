"""
The curvetwist benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The generator (gen.py) makes the
workload's inputs from the seed in a process of its own; then WORKERS fresh
interpreters (worker.py) each time one cold pass and as many warm passes as
fit in S / WORKERS seconds.  The last line of standard output is one JSON
object with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
metrics with --trace 0, the per-layer metrics of one traced worker with
--trace 1.  Per-operation medians and any failures go to standard error.
See bench/README.md for the workloads and the metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKLOADS = ("search_ladder", "classify_words", "heavy_powers")
# fresh processes per untraced run, one after another: each gives one cold
# pass and one set-up time, and the run reports their medians.  The host's
# speed drifts on a scale of seconds, so many short workers spread over the
# run steady the medians more than a few long ones; the ladder's cold pass
# alone fills most of a third of the run.
WORKERS = {"search_ladder": 3, "classify_words": 6, "heavy_powers": 5}
# everything, generator included, ends within this many seconds
RUN_LIMIT_S = 170.0


class RunFailed(Exception):
    pass


def call(argv, deadline):
    """Run a child to its end (or kill it at the deadline and wait for it);
    returns its stdout."""
    try:
        proc = subprocess.run(argv, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RunFailed("%s did not finish in time"
                        % os.path.basename(argv[1]))
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RunFailed("%s exited with %d" % (os.path.basename(argv[1]),
                                               proc.returncode))
    return proc.stdout


def worker(args, inputs, seconds, deadline):
    spawned = time.monotonic()
    out = call([sys.executable, os.path.join(BENCH, "worker.py"),
                "--workload", args.workload, "--inputs", inputs,
                "--seconds", repr(seconds), "--trace", str(args.trace)],
               deadline)
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = result["first_op_at"] - spawned
    return result


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(results):
    cold_times = {}
    warm_times = {}
    for r in results:
        for name, t in r["cold"].items():
            cold_times.setdefault(name, []).append(t)
        for one_pass in r["warm"]:
            for name, t in one_pass.items():
                warm_times.setdefault(name, []).append(t)
    warm_medians = {n: statistics.median(ts) for n, ts in warm_times.items()}
    sys.stderr.write("%-24s %12s %12s %8s\n"
                     % ("operation", "cold_med_s", "warm_med_s", "warm_n"))
    for name in sorted(cold_times):
        warm = warm_medians.get(name)
        sys.stderr.write("%-24s %12.6f %12s %8d\n" % (
            name, statistics.median(cold_times[name]),
            "-" if warm is None else "%.6f" % warm,
            len(warm_times.get(name, ()))))
    return {
        "setup_s": metric(statistics.median(r["setup_s"] for r in results),
                          "s"),
        "cold_s": metric(statistics.median(sum(r["cold"].values())
                                           for r in results), "s"),
        "ops_per_s": metric(len(warm_medians) / sum(warm_medians.values()),
                            "1/s"),
        "peak_rss_mib": metric(statistics.median(r["rss_kib"]
                                                 for r in results) / 1024.0,
                               "MiB"),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    work_root = os.path.join(ROOT, ".bench_work")
    os.makedirs(work_root, exist_ok=True)
    work = tempfile.mkdtemp(prefix="%s-%d-" % (args.workload, args.seed),
                            dir=work_root)
    try:
        call([sys.executable, os.path.join(BENCH, "gen.py"),
              "--workload", args.workload, "--seed", str(args.seed),
              "--out", work], deadline)
        if args.trace:
            results = [worker(args, work, args.seconds, deadline)]
        else:
            n = WORKERS[args.workload]
            results = [worker(args, work, args.seconds / n, deadline)
                       for _ in range(n)]
    except RunFailed as exc:
        sys.stderr.write("benchmark failed: %s\n" % exc)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures = [f for r in results for f in r["failures"]]
    for f in failures[:20]:
        sys.stderr.write("FAILED %s\n" % f)
    if args.trace:
        metrics = results[0]["layers"]
        if results[0]["skipped"]:
            print("trace skipped (function or measure not found): %s"
                  % ", ".join(results[0]["skipped"]))
    else:
        metrics = end_to_end(results)
    # every check passed, and the command line kept its promise of
    # byte-identical reports for identical input
    correct = not failures and all(r["reports"] == results[0]["reports"]
                                   for r in results)
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
