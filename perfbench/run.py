"""psinv benchmark: seeded workloads of psinv jobs, end-to-end and per layer.

    python3 perfbench/run.py --workload decide --seed 1 --seconds 20 --trace 0

Run from the repository root; psinv is imported from ./src.  One process
sends jobs as a closed loop: one client, no threads, the next job starts when
the previous one has returned.  A job is one user request: an in-process
`psinv.cli.main([...])` call on a generated model file with its stdout parsed
as JSON (the 4x4 torus, beyond the CLI's fixed 3x3 oracle, makes the library
calls the CLI would make).  The run repeats whole passes over the workload's
fixed job list until `--seconds` have passed.

`--trace 0` runs every job a second time, right before or after, on a frozen
copy of the seed commit's psinv in a worker process (baseline/, kept in the
tree because the benchmark must also run from a checkout without git
history), and reports the job-time metrics of BENCHMARK.json relative to it:
the shared host this was written on drifts in speed by tens of percent
within minutes, which the pairing cancels.  Jobs the seed commit cannot
serve are listed and left out of those ratios.  peak_rss_mb and setup_s (the
median of SETUP_REPEATS set-ups, in seconds) are measured on the current
sources alone.  Wall-clock jobs_per_s, job_p50_ms and job_p90_ms (a job's
latency is its median over the passes; every job list holds over 100 jobs)
and the set-up time relative to the seed commit's are printed for reading.

`--trace 1` alternates untraced and traced passes and reports the per-layer
metrics of layers.py, the tracing overhead and the share of job time no layer
span covers; it fails when an exact counter differs between passes, or from
the counters an earlier run of the same seed, inputs and psinv sources left
in .perfbench/counters/.

Every job's output is checked against its expected record (see records.py);
a job that raises or mismatches counts as failed.  Expected records come from
the construction of the inputs (workloads.py), from the committed records of
the default seed (expected/), and from the first output of each exact job,
which its float twin (listed right after it) and its later passes must match.
The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import select
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench")

import layers  # noqa: E402
import records  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 11
# a baseline request that takes longer is abandoned: the worker is restarted
# and the job is left out of the comparison with the seed commit
BASELINE_TIMEOUT_S = 30.0


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def import_psinv():
    """A fresh import of psinv from ./src (psinv modules purged first)."""
    for name in [n for n in sys.modules if n == "psinv" or n.startswith("psinv.")]:
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    cli = importlib.import_module("psinv.cli")
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise ImportError(f"psinv was imported from {cli.__file__}, not from {SRC}")
    return cli


def execute(cli, kind: str, argv):
    """One job on the psinv package of `cli`: (exit code, parsed output)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        if kind == "torus4":
            return torus4(cli, argv[0])
        code = cli.main(argv)
    return code, json.loads(out.getvalue())


def torus4(cli, path):
    """check-2d on the 4x4 torus: the library calls of the CLI's check-2d."""
    lattice2d = importlib.import_module(cli.__package__ + ".lattice2d")
    oracle = importlib.import_module(cli.__package__ + ".oracle")
    model = cli.load_model_file(path)
    report = lattice2d.check_product_2d(model.square, model.rho)
    gen = oracle.build_generator(model.square, oracle.TorusSpace(4))
    mu = oracle.product_measure(model.rho, 16)
    residual = oracle.stationarity_residual(gen, mu)
    doc = {"verdict": report.verdict, "criterion": report.criterion,
           "residuals": {"torus4_max_residual": str(residual)}}
    return (0 if report.invariant else 1), doc


class Runner:
    """Runs jobs in process and checks them against their expected records."""

    def __init__(self, cli, jobs, golden=None, tol=workloads.FLOAT_TOL):
        self.cli = cli
        self.jobs = jobs
        self.golden = golden or {}
        self.tol = tol
        self.reference = {}

    def call(self, job, argv):
        """One job: returns (exit code, parsed output) and the latency in s."""
        start = time.perf_counter()
        code, doc = execute(self.cli, job.kind, argv)
        return code, doc, time.perf_counter() - start

    def expectations(self, job):
        yield "construction", job.expect
        if job.name in self.golden:
            yield "golden", self.golden[job.name]
        ref = self.reference.get(job.reference or job.name)
        if ref is not None:
            yield "reference", ref

    def check(self, job, code, doc):
        """Problems with one output.  The first output of an exact job becomes
        the reference that its float twin and its later passes must match."""
        rec = records.record(doc, code)
        problems = []
        for source, expected in self.expectations(job):
            problems += [f"{source}: {p}" for p in
                         records.mismatches(expected, rec, doc, job.float_mode, self.tol)]
        if not job.float_mode:
            self.reference.setdefault(job.name, rec)
        return problems


class Baseline:
    """The seed commit's psinv (baseline/psinv_seed) in a worker process.

    Each job runs there right before or after it runs here, alternating the
    order from job to job, so both sides see the same machine speed: on a shared
    host whose speed drifts by tens of percent over minutes, their ratio
    stays steady while the raw times do not.

    A request the seed commit cannot serve (it raises, exits, or takes longer
    than BASELINE_TIMEOUT_S) yields None, is listed in `errors` and is not sent
    again; such jobs are left out of the ratios rather than ending the run.
    """

    def __init__(self):
        self.errors = {}
        self.proc = None
        self.start()

    def start(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "baseline_worker.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT)

    def seconds(self, key: str, request):
        """The seed commit's time for one request, or None if it failed."""
        if key in self.errors:
            return None
        ready, line = [], ""
        try:
            self.proc.stdin.write(json.dumps(request) + "\n")
            self.proc.stdin.flush()
            # one answer line per request, so the pipe's buffer is empty here
            ready, _, _ = select.select([self.proc.stdout], [], [], BASELINE_TIMEOUT_S)
            line = self.proc.stdout.readline() if ready else ""
        except BrokenPipeError:
            pass
        if not line:
            self.errors[key] = ("the worker exited" if ready or self.proc.poll() is not None
                                else f"no answer within {BASELINE_TIMEOUT_S:g} s")
            self.close()
            self.start()
            return None
        answer = json.loads(line)
        if "error" in answer:
            self.errors[key] = answer["error"]
            return None
        return answer["seconds"]

    def close(self) -> None:
        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def load_golden(workload: str, seed: int, smoke: bool, inputs_sha: str, directory: str):
    """Committed records of the default seed, keyed by job name."""
    path = os.path.join(directory, f"{workload}.json")
    if seed != workloads.DEFAULT_SEED or smoke or not os.path.exists(path):
        return {}, None
    with open(path) as handle:
        doc = json.load(handle)
    if doc["inputs_sha256"] != inputs_sha:
        return {}, (f"{path} was recorded for other inputs "
                    f"({doc['inputs_sha256']} != {inputs_sha})")
    return doc["jobs"], None


def inputs_digest(materialized) -> str:
    h = hashlib.sha256()
    for job, argv in materialized:
        h.update(json.dumps([job.name, job.kind, job.argv, job.model],
                            sort_keys=True).encode())
    return h.hexdigest()


def prepare(workload: str, seed: int, smoke: bool, workdir: str, expected: str):
    """Write the model files and gather the expected records: the set-up
    after the import, the same on the current sources and the seed commit."""
    shutil.rmtree(workdir, ignore_errors=True)
    materialized = workloads.materialize(workloads.build(workload, seed, smoke), workdir)
    sha = inputs_digest(materialized)
    golden, problem = load_golden(workload, seed, smoke, sha, expected)
    return materialized, golden, sha, problem


def setup(args, workdir):
    """Import psinv, write the model files, gather the expected records."""
    cli = import_psinv()
    materialized, golden, sha, problem = prepare(args.workload, args.seed, args.smoke,
                                                 workdir, args.expected)
    return Runner(cli, materialized, golden), sha, problem


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def run_pass(runner, tracer=None, baseline=None, parity=0):
    """One pass over the job list: latencies here and, when a baseline is
    given, of the same jobs on the seed commit (None where it failed), which
    runs first on every other job (`parity` shifts the pattern between
    passes); failures and their reasons."""
    latencies, base, failures = [], [], []
    start = time.perf_counter()
    for index, (job, argv) in enumerate(runner.jobs):
        baseline_first = (index + parity) % 2 == 1
        if baseline is not None and baseline_first:
            base.append(baseline.seconds(job.name, {"kind": job.kind, "argv": argv}))
        if tracer is not None:
            tracer.begin_job(job.name)
        called = time.perf_counter()
        try:
            code, doc, latency = runner.call(job, argv)
            problems = runner.check(job, code, doc)
        except Exception:  # a job that raises counts as failed; keep measuring
            latency = time.perf_counter() - called
            problems = ["raised: " + traceback.format_exc(limit=3).strip().splitlines()[-1]]
        finally:
            if tracer is not None:
                tracer.end_job()
        latencies.append(latency)
        if problems:
            failures.append((job.name, problems))
        if baseline is not None and not baseline_first:
            base.append(baseline.seconds(job.name, {"kind": job.kind, "argv": argv}))
    return {"wall": time.perf_counter() - start, "jobs": len(runner.jobs),
            "latencies": latencies, "baseline": base, "failures": failures}


def throughput(passes) -> float:
    return sum(p["jobs"] for p in passes) / sum(p["wall"] for p in passes)


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def job_latencies(passes):
    """Each job's median latency over the passes, sorted: a transient stall
    of the machine then moves no percentile."""
    return sorted(statistics.median(lat) for lat in zip(*(p["latencies"] for p in passes)))


def raw_metrics(passes, setup_s):
    """Wall-clock figures of the current sources, for reading."""
    lat = job_latencies(passes)
    jobs = [p["jobs"] / sum(p["latencies"]) for p in passes]
    return {
        "jobs_per_s": (statistics.median(jobs), "1/s"),
        "job_p50_ms": (percentile(lat, 50) * 1e3, "ms"),
        "job_p90_ms": (percentile(lat, 90) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }


def relative_metrics(passes, setup_s):
    """The gated end-to-end metrics: times relative to the seed commit's psinv,
    run job by job next to them (see Baseline), over the jobs the seed commit
    served in every pass.  Each job gives one ratio, current over seed commit,
    of its latencies summed over the passes.  A single job's latency jitters
    by tens of percent on a shared host, even a job of seconds, and the few
    largest jobs would dominate summed times; so every metric is a geometric
    mean of per-job ratios, all jobs weighted alike: over all jobs (as a
    speedup), over those ranked 30-70% by the seed commit's latency, and over
    its tail (ranks 80-100%)."""
    pairs = [(sum(c), sum(b)) for c, b in
             zip(zip(*(p["latencies"] for p in passes)), zip(*(p["baseline"] for p in passes)))
             if None not in b]
    if not pairs:
        raise RuntimeError("the seed commit served none of the jobs")
    pairs.sort(key=lambda pair: pair[1])
    ratios = [c / b for c, b in pairs]

    def band(lo, hi):
        first = int(lo * len(ratios))
        return statistics.geometric_mean(ratios[first:max(first + 1, int(hi * len(ratios)))])

    return {
        "speedup_vs_seed": (1 / band(0.0, 1.0), "x"),
        "median_jobs_vs_seed": (band(0.3, 0.7), "x"),
        "tail_jobs_vs_seed": (band(0.8, 1.0), "x"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }


def src_digest() -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(SRC, "psinv"))):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as handle:
                    h.update(name.encode() + handle.read())
    return h.hexdigest()


def counter_gate(args, sha, per_pass):
    """Exact counters must agree between passes and with earlier runs."""
    vectors = [{k: counts[k] for k in layers.EXACT_COUNTERS} for counts in per_pass]
    problems = [f"exact counters differ between passes: {v} != {vectors[0]}"
                for v in vectors[1:] if v != vectors[0]]
    key = hashlib.sha256(f"{args.workload}:{args.seed}:{sha}:{src_digest()}"
                         .encode()).hexdigest()[:24]
    path = os.path.join(STATE, "counters", f"{args.workload}-{key}.json")
    if os.path.exists(path):
        with open(path) as handle:
            earlier = json.load(handle)
        if earlier != vectors[0]:
            problems.append(f"exact counters differ from an earlier run: "
                            f"{vectors[0]} != {earlier}")
    else:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            json.dump(vectors[0], handle, sort_keys=True)
    return vectors[0], problems


def traced_metrics(args, runner, sha, deadline):
    """Alternate untraced and traced passes; per-layer metrics per pass."""
    modules = [importlib.import_module(f"psinv.{m}") for m in layers.MODULES]
    tracer = spans.Tracer(modules, layers.HOOKS, extra=layers.EXTRA, skip=layers.SKIP)
    plain, traced, per_pass = [], [], []
    while not traced or time.perf_counter() < deadline:
        plain.append(run_pass(runner))
        before = Counter(tracer.counters)
        tracer.install()
        try:
            traced.append(run_pass(runner, tracer))
        finally:
            tracer.uninstall()
        per_pass.append(tracer.counters - before)
    totals = tracer.totals()
    metrics = {name: (layers.evaluate(source, totals, len(traced)), unit)
               for name, unit, source, _, _ in layers.METRICS}
    metrics["trace.overhead_frac"] = (1 - throughput(traced) / throughput(plain), "frac")
    metrics["trace.unattributed_frac"] = (1 - totals["covered_ns"] / totals["job_ns"], "frac")
    problems = [f"layer metric never fired: {m}"
                for m in layers.unfired(totals, args.workload)]
    problems += spans.check_nesting(tracer.spans)
    counters, gate = counter_gate(args, sha, per_pass)
    problems += gate
    os.makedirs(STATE, exist_ok=True)
    path = os.path.join(STATE, f"spans-{args.workload}-{args.seed}.jsonl")
    with open(path, "w") as handle:
        for span in tracer.spans:
            handle.write(json.dumps(span) + "\n")
    return plain, traced, metrics, counters, problems


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def metadata() -> dict:
    import numpy
    lines = 0
    for dirpath, _, filenames in os.walk(os.path.join(SRC, "psinv")):
        for name in filenames:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name)) as handle:
                    lines += sum(1 for _ in handle)
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "git_commit": git_commit(), "src_lines": lines}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced job lists, for the benchmark's own tests")
    parser.add_argument("--expected", default=os.path.join(HERE, "expected"),
                        help="directory of the default seed's expected records")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "psinv", "cli.py")):
        print(f"error: no psinv sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    workdir = os.path.join(STATE, f"work-{os.getpid()}")
    basedir = os.path.join(STATE, f"base-{os.getpid()}")
    # one CPU for this process and the baseline worker it starts: they take
    # turns, and on a shared host the two CPUs can be slowed unequally
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    baseline = None if args.trace else Baseline()
    try:
        times, base_times = [], []
        request = {"setup": [args.workload, args.seed, args.smoke, basedir, args.expected]}
        for rep in range(SETUP_REPEATS):
            if baseline is not None and rep % 2:
                base_times.append(baseline.seconds("setup", request))
            start = time.perf_counter()
            runner, sha, golden_problem = setup(args, workdir)
            times.append(time.perf_counter() - start)
            if baseline is not None and not rep % 2:
                base_times.append(baseline.seconds("setup", request))
        setup_s = statistics.median(times)
        deadline = time.perf_counter() + args.seconds
        problems = [golden_problem] if golden_problem else []
        counters = None
        if args.trace:
            passes, traced, metrics, counters, more = traced_metrics(args, runner, sha,
                                                                     deadline)
            problems += more
        else:
            passes, traced = [], []
            while not passes or time.perf_counter() < deadline:
                passes.append(run_pass(runner, baseline=baseline, parity=len(passes)))
            metrics = relative_metrics(passes, setup_s)
        raw = raw_metrics(passes, setup_s)
    finally:
        if baseline is not None:
            baseline.close()
        shutil.rmtree(workdir, ignore_errors=True)
        shutil.rmtree(basedir, ignore_errors=True)

    attempted = sum(p["jobs"] for p in passes + traced)
    failures = [f for p in passes + traced for f in p["failures"]]
    for name, why in failures[:20]:
        print(f"FAILED {name}: {'; '.join(why)}", file=sys.stderr)
    for problem in problems:
        print(f"PROBLEM {problem}", file=sys.stderr)

    print(f"workload {args.workload}  seed {args.seed}  inputs sha256 {sha}")
    print(f"closed loop, one client: {len(passes)} passes over {len(runner.jobs)} jobs; "
          "a job's latency is its median over the passes")
    print(f"failed_frac {len(failures) / attempted:.6g} ({len(failures)}/{attempted})")
    for name, (value, unit) in raw.items():
        print(f"{name:32s} {value:14.6g} {unit}")
    if baseline is not None:
        for key, why in baseline.errors.items():
            print(f"seed commit could not serve {key}: {why}; left out of the ratios")
        served = [b for b in zip(*(p["baseline"] for p in passes)) if None not in b]
        base = sorted(statistics.median(b) for b in served)
        if base:
            print(f"{'seed commit job_p50_ms':32s} {percentile(base, 50) * 1e3:14.6g} ms")
            print(f"{'seed commit job_p90_ms':32s} {percentile(base, 90) * 1e3:14.6g} ms")
        if None not in base_times:
            print(f"{'setup vs seed commit':32s} "
                  f"{setup_s / statistics.median(base_times):14.6g} x")
    for name, (value, unit) in metrics.items():
        if name not in raw:
            print(f"{name:32s} {value:14.6g} {unit}")
    if counters is not None:
        print("exact counters " + json.dumps(counters, sort_keys=True))
    print("meta " + json.dumps(metadata(), sort_keys=True))
    result = {"correct": not failures and not problems, "attempted": attempted,
              "failed": len(failures),
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
