"""
Tests of the benchmark itself (the package's suite lives in tests/):

    python3 -m pytest bench/test_bench.py
"""

import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def run(script, *args, timeout=170):
    proc = subprocess.run([sys.executable, os.path.join(BENCH, script),
                           *map(str, args)], cwd=ROOT, capture_output=True,
                          text=True, timeout=timeout)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def last_json(out):
    return json.loads(out.strip().splitlines()[-1])


def test_traced_runs_repeat_their_counts():
    first, second = (last_json(run("run.py", "--workload", "classify_words",
                                   "--seed", 5, "--seconds", 1, "--trace", 1))
                     for _ in range(2))
    counts = [{k: v["value"] for k, v in r["metrics"].items()
               if v["unit"] == "count"} for r in (first, second)]
    assert counts[0] == counts[1]
    assert counts[0]["classify.classify.calls"] > 0
    assert "trace.overhead_s" in first["metrics"]
    assert first["failed"] == second["failed"] == 0


def test_tracer_skips_a_removed_function(monkeypatch):
    from worker import import_package
    from tracer import Tracer
    ct = import_package()
    monkeypatch.delattr(sys.modules["curvetwist.curves"], "cut_along")
    tracer = Tracer()
    tracer.install()
    try:
        ct.twist(ct.MulticurveCoords(ct.build_surface(1, 1), (0, 1, 1)))
    finally:
        tracer.uninstall()
    values, skipped = tracer.snapshot(0.0)
    assert {"curves.cut_along.calls",
            "curves.cut_along.weight"} <= set(skipped)
    assert values["curves.cut_along.calls"]["value"] == 0
    assert values["mapping.twist.calls"]["value"] == 1


@pytest.fixture
def corpus(tmp_path):
    run("gen.py", "--workload", "classify_words", "--seed", 7,
        "--out", tmp_path)
    return tmp_path


def failures_with(corpus, kind, spoil):
    """Run a worker on the corpus with the expected answer of the first
    `kind` word spoiled; returns its failures and the number of passes."""
    path = corpus / "inputs.json"
    inputs = json.loads(path.read_text())
    k, item = next((k, w) for k, w in enumerate(inputs["words"])
                   if w["expect"]["kind"] == kind)
    spoil(item["expect"])
    path.write_text(json.dumps(inputs))
    out = last_json(run("worker.py", "--workload", "classify_words",
                        "--inputs", corpus, "--seconds", 0.1))
    name = "%s_%02d" % (item["surface"], k)
    assert all(f.startswith(name + ": ") for f in out["failures"])
    return out["failures"], 1 + len(out["warm"])


def test_wrong_expected_answer_is_a_failed_operation(corpus):
    def spoil(exp):
        exp["order"] += 1
    failures, passes = failures_with(corpus, "periodic", spoil)
    assert len(failures) == passes


def test_a_check_that_raises_is_a_failed_operation(corpus):
    def spoil(exp):
        exp["lambda"] = "not a number"
    failures, passes = failures_with(corpus, "pseudo_anosov", spoil)
    assert len(failures) == passes
    assert all("check raised ValueError" in f for f in failures)
