"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/tests

Smoke runs use reduced job lists (`--smoke`) and run as subprocesses from
the repository root, the way the benchmark is meant to be run.
"""
import json
import os
import shutil
import subprocess
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import records  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def bench(*args, timeout=170):
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), proc


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_end_to_end(workload):
    result, proc = bench("--workload", workload, "--seed", "3", "--seconds", "0",
                         "--trace", "0", "--smoke")
    assert result["correct"], proc.stderr
    assert result["failed"] == 0 and result["attempted"] > 0
    names = {m["name"] for m in spec()["end_to_end"]}
    assert set(result["metrics"]) == names
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name
    assert "failed_frac 0 " in proc.stdout


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_traced(workload):
    result, proc = bench("--workload", workload, "--seed", "4", "--seconds", "0",
                         "--trace", "1", "--smoke")
    assert result["correct"], proc.stderr
    assert set(result["metrics"]) == {m["name"] for m in spec()["per_layer"]}
    path = os.path.join(ROOT, ".perfbench", f"spans-{workload}-4.jsonl")
    with open(path) as handle:
        recorded = [tuple(json.loads(line)) for line in handle]
    assert recorded
    for span_id, parent, name, job, start, end, child_ns in recorded:
        assert 0 <= child_ns <= end - start, name
    assert spans.check_nesting(recorded) == []
    # a second run of the same seed must reproduce the exact counters
    again, proc = bench("--workload", workload, "--seed", "4", "--seconds", "0",
                        "--trace", "1", "--smoke")
    assert again["correct"], proc.stderr
    for name in ("criteria.z_entries", "criteria.anchor_words", "criteria.cycle_words",
                 "oracle.states", "oracle.nnz", "search.samples", "search.cycle3_unknowns"):
        assert again["metrics"][name] == result["metrics"][name]


def test_tampered_record_counts_as_failed(tmp_path):
    expected = tmp_path / "expected"
    shutil.copytree(os.path.join(BENCH, "expected"), expected)
    path = expected / "decide.json"
    doc = json.loads(path.read_text())
    name = "check-markov/k3m2/small0/neg/exact"
    doc["jobs"][name]["witness"]["word"][0] += 1
    path.write_text(json.dumps(doc))
    result, proc = bench("--workload", "decide", "--seed", str(workloads.DEFAULT_SEED),
                         "--seconds", "0", "--trace", "0", "--expected", str(expected))
    assert not result["correct"]
    passes = result["attempted"] // len(workloads.build("decide", workloads.DEFAULT_SEED).jobs)
    assert result["failed"] == passes
    assert f"FAILED {name}: golden: witness" in proc.stderr
    assert "failed_frac 0 " not in proc.stdout


def test_default_seed_matches_records():
    result, proc = bench("--workload", "search", "--seed", str(workloads.DEFAULT_SEED),
                         "--seconds", "0", "--trace", "0")
    assert result["correct"], proc.stderr


def test_refuses_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "decide",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def test_baseline_skips_jobs_the_seed_commit_cannot_serve(monkeypatch):
    import run
    good = {"kind": "cli", "argv": ["--report", "json", "model", "tasep"]}
    monkeypatch.chdir(ROOT)
    baseline = run.Baseline()
    try:
        # argparse exits on an unknown command: answered as an error
        assert baseline.seconds("bad", {"kind": "cli", "argv": ["no-such-command"]}) is None
        assert "SystemExit" in baseline.errors["bad"]
        assert baseline.seconds("bad", good) is None  # not sent again
        assert baseline.seconds("good", good) > 0
        # no answer in time: the worker is restarted and serves the next job
        monkeypatch.setattr(run, "BASELINE_TIMEOUT_S", 0.0)
        assert baseline.seconds("slow", good) is None
        assert "no answer" in baseline.errors["slow"]
        monkeypatch.setattr(run, "BASELINE_TIMEOUT_S", 30.0)
        assert baseline.seconds("again", good) > 0
    finally:
        baseline.close()
    assert baseline.proc.returncode == 0


def test_records_compare_floats_within_tolerance():
    exact = {"witness": {"word": [0, 1], "residual": "1/3"}, "verdict": "not-invariant"}
    good = {"witness": {"word": [0, 1], "residual": "0.33333333333333"},
            "verdict": "not-invariant"}
    bad = {"witness": {"word": [0, 1], "residual": "0.3334"}, "verdict": "not-invariant"}
    assert records.mismatches(exact, good, {}, True, 1e-9) == []
    assert records.mismatches(exact, bad, {}, True, 1e-9)
    assert records.mismatches(exact, good, {}, False, 1e-9)
    cert = {"certificate": {"01": "1/2"}}
    assert records.mismatches({"certificate": records.digest(cert)},
                              {"certificate": {"certificate": {"01": "1/3"}}}, {},
                              False, 1e-9)


@pytest.fixture
def fake_psinv():
    """Two modules under the psinv name; the second imports from the first."""
    first = types.ModuleType("psinv.fake_first")
    exec("def inner(x):\n    return x + 1\n\n"
         "def outer(x):\n    return inner(x) * 2\n", first.__dict__)
    second = types.ModuleType("psinv.fake_second")
    second.outer = first.outer
    sys.modules[first.__name__] = first
    sys.modules[second.__name__] = second
    yield first, second
    del sys.modules[first.__name__], sys.modules[second.__name__]


def test_tracer_wraps_imported_bindings_and_nests(fake_psinv):
    first, second = fake_psinv
    original = first.outer
    counted = []
    tracer = spans.Tracer([first], {"fake_first.inner":
                                    lambda t, a, k, r: counted.append(r)})
    tracer.install()
    try:
        tracer.begin_job("job-1")
        assert second.outer(1) == 4
        tracer.end_job()
    finally:
        tracer.uninstall()
    assert first.outer is original and second.outer is original
    assert counted == [2]
    names = {s[2]: s for s in tracer.spans}
    assert names["fake_first.inner"][1] == names["fake_first.outer"][0]
    assert names["fake_first.outer"][1] == names["job"][0]
    assert all(s[3] == "job-1" for s in tracer.spans)
    assert spans.check_nesting(tracer.spans) == []
    assert 0 <= tracer.self_ns["fake_first.outer"] <= tracer.busy_ns["fake_first.outer"]
    assert tracer.covered_ns <= tracer.job_ns
