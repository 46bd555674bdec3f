"""Record the expected output of every job of the default seed.

    python3 perfbench/make_expected.py [workload ...]

Runs each job once on the current sources and writes expected/<workload>.json
with every job's exit code, verdict, witness, certificate digest, oracle
residual and oracle_agrees.  Before writing, every verdict is cross-checked
against psinv's brute-force oracle on finite spaces:

* line verdicts (check-markov, check-product, equivalences): an invariant law
  must give a zero residual on every cycle from m + L sites up to the
  critical length h = 4m + 2L - 1 (capped at 4096 states); a not-invariant
  one must give a nonzero residual on one of them;
* segment checks and constructed boundaries: the chain law on the segment
  of the checked sizes, under the file's or the printed boundary rates;
* search candidates: each certified law on cycles of 4 to 6 sites;
* verify-cycle, check-2d and absorbing print the oracle's own answer, which
  is held to the construction of the inputs.

Run it only when the workloads change, and commit the result.
"""
from __future__ import annotations

import json
import os
import shutil
import sys
from fractions import Fraction

import run
import records
import workloads

CAP = 4096


def oracle_residuals(model, law_kernel, sizes, boundary=None):
    """Exact residual of the chain law on cycles (or segments) of the sizes."""
    from psinv import oracle
    from psinv.criteria import markov_context
    out = []
    for n in sizes:
        if model.kappa ** n > CAP * 2:
            continue
        if boundary is None:
            gen = oracle.build_generator(model.jrm, oracle.CycleSpace(n))
            mu = oracle.gibbs_measure(law_kernel, n)
        else:
            gen = oracle.build_generator(model.jrm, oracle.SegmentSpace(n, boundary))
            law = markov_context(model.jrm, law_kernel).law
            mu = oracle.segment_measure(law, n)
        out.append(oracle.stationarity_residual(gen, mu))
    return out


def line_sizes(model, memory):
    low = memory + model.range_
    high = 4 * memory + 2 * model.range_ - 1
    return [n for n in range(low, high + 1) if model.kappa ** n <= CAP]


def kernel_of(model):
    from psinv.core import MarkovKernel
    if model.kernel is not None:
        return model.kernel
    return MarkovKernel.from_marginal(model.rho)


ORACLE_OUTPUT = ("verify-cycle", "check-2d", "absorbing", "torus4")


def cross_check(cli, job, argv, doc):
    """Problems found by the brute-force oracle for one job."""
    command = job.name.split("/")[0]
    if command in ORACLE_OUTPUT:
        return []  # the output already is the oracle's answer
    model = cli.load_model_file(next(a for a in argv if a.endswith(".json")))
    if command in ("check-markov", "check-product", "equivalences"):
        invariant = doc["panel"]["line_invariant"] if command == "equivalences" \
            else doc["verdict"] == "invariant"
        kernel = kernel_of(model)
        res = oracle_residuals(model, kernel, line_sizes(model, kernel.memory))
        if not res:
            return ["no cycle small enough for the oracle"]
        if invariant != all(r == 0 for r in res):
            return [f"oracle residuals {[str(r) for r in res]} contradict {doc['verdict']}"]
        return []
    if command in ("segment", "segment-construct"):
        from psinv.core import Alphabet, BoundaryRates, JumpRateMatrix
        if command == "segment-construct":
            alphabet = Alphabet(model.kappa)

            def rates(items):
                return JumpRateMatrix(alphabet, 1, {(tuple(i["from"]), tuple(i["to"])):
                                                    Fraction(i["rate"]) for i in items})
            boundary = BoundaryRates(rates(doc["beta_left"]), rates(doc["beta_right"]))
            sizes, invariant = (7, 8), doc["verdict"] == "validated"
        else:
            boundary = model.beta
            n = int(argv[argv.index("--n") + 1])
            sizes, invariant = ((n, n + 1) if n >= 7 else (n,)), doc["verdict"] == "invariant"
        res = oracle_residuals(model, model.kernel, sizes, boundary)
        if invariant != all(r == 0 for r in res):
            return [f"segment oracle residuals {[str(r) for r in res]} contradict "
                    f"{doc['verdict']}"]
        return []
    if command in ("find-markov", "find-product"):
        from psinv.core import MarkovKernel
        problems = []
        for cand in doc["candidates"]:
            if command == "find-product":
                kernel = MarkovKernel.from_marginal([Fraction(p) for p in cand])
            elif cand["line_invariant"]:
                kernel = MarkovKernel.from_matrix([[Fraction(p) for p in row]
                                                   for row in cand["kernel"]])
            else:
                continue
            res = oracle_residuals(model, kernel, (4, 5, 6))
            if any(r != 0 for r in res):
                problems.append(f"candidate {cand} has oracle residuals "
                                f"{[str(r) for r in res]}")
        return problems
    return [f"no oracle cross-check for {command}"]


def make(name: str) -> int:
    cli = run.import_psinv()
    workload = workloads.build(name, workloads.DEFAULT_SEED)
    workdir = os.path.join(run.STATE, f"expected-{os.getpid()}")
    materialized = workloads.materialize(workload, workdir)
    runner = run.Runner(cli, materialized)
    jobs, problems = {}, []
    try:
        for job, argv in materialized:
            code, doc, _ = runner.call(job, argv)
            rec = records.record(doc, code)
            problems += [f"{job.name}: construction: {p}" for p in
                         records.mismatches(job.expect, rec, doc, job.float_mode,
                                            workloads.FLOAT_TOL)]
            if not job.float_mode:
                problems += [f"{job.name}: {p}" for p in cross_check(cli, job, argv, doc)]
            jobs[job.name] = records.golden(rec, job.float_mode)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        print(f"{name}: {len(problems)} problems; nothing written", file=sys.stderr)
        return 1
    out = {"workload": name, "seed": workloads.DEFAULT_SEED,
           "inputs_sha256": run.inputs_digest(materialized),
           "psinv_commit": run.git_commit(), "jobs": jobs}
    path = os.path.join(run.HERE, "expected", f"{name}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    header = json.dumps({k: v for k, v in out.items() if k != "jobs"}, sort_keys=True)
    body = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
                      for k, v in sorted(jobs.items()))
    with open(path, "w") as handle:
        handle.write(header[:-1] + ', "jobs": {\n' + body + "\n}}\n")
    print(f"{name}: {len(jobs)} records cross-checked and written to {path}")
    return 0


if __name__ == "__main__":
    names = sys.argv[1:] or list(workloads.WORKLOADS)
    sys.exit(max(make(name) for name in names))
