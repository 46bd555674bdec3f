"""Seeded inputs and job lists of the three benchmark workloads.

Everything here is built from the seed alone and written as schema-1 model
files; psinv only ever sees those files.  The model formulas are the
benchmark's own (they restate the catalog's), so a refactor of psinv's
Python API cannot change what is measured.

Invariant instances are invariant by construction:

* a *reversible* range-2 rate matrix is in detailed balance with the product
  law rho x rho on pairs; its pair graph is connected through a random
  spanning tree, so the product law is the only invariant pair law;
* a *drift* term swaps (i, j) -> (j, i) for i > j at rate c_i - c_j with c
  increasing (kappa = 3 is the catalog's tasep3 with r20 = r21 + r10); it
  preserves every product law, and sums of invariant rate matrices stay
  invariant;
* a memory-m kernel whose rows all equal rho describes the same product law.

The not-invariant twin adds delta > 0 to one rate that changes the letter
counts of its window.  Every other term keeps the expected letter
densities of the invariant law fixed, so the density of some letter then drifts
on the line, on every cycle and on every segment: the twin is not invariant
on any of them, whatever the seed.
"""
from __future__ import annotations

import itertools
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

DEFAULT_SEED = 1
WORKLOADS = ("decide", "search", "crosscheck")
FLOAT_TOL = 1e-9

Word = Tuple[int, ...]
Rates = Dict[Tuple[Word, Word], Fraction]


@dataclass
class Job:
    """One user request: a CLI call (argv) or, for the 4x4 torus, library calls."""

    name: str
    argv: List[str]  # "@model" stands for the path of the written model file
    model: dict
    expect: dict
    kind: str = "cli"
    float_mode: bool = False
    # name of the exact-arithmetic job whose output a float job is compared with
    reference: Optional[str] = None


@dataclass
class Workload:
    name: str
    jobs: List[Job] = field(default_factory=list)

    def add(self, job: Job) -> None:
        self.jobs.append(job)


# ---------------------------------------------------------------------------
# scalars and rate matrices
# ---------------------------------------------------------------------------

def rational(rng: random.Random, size: str) -> Fraction:
    """A positive rational p/q, p != q: 1-digit parts ('small') or 7-digit
    parts ('large')."""
    if size == "small":
        p, q = rng.sample(range(2, 10), 2)
        return Fraction(p, q)
    return Fraction(rng.randint(10 ** 6, 10 ** 7 - 1), rng.randint(10 ** 6, 10 ** 7 - 1))


def marginal(rng: random.Random, kappa: int, size: str) -> List[Fraction]:
    """A full-support law with distinct weights.  Equal weights would give the
    symmetric density, where the CLI's boundary construction switches from a
    discrepancy found early to a full validation, a tenfold change in cost."""
    if size == "small":
        raw = rng.sample(range(1, 10), kappa)
    else:
        raw = rng.sample(range(10 ** 6, 10 ** 7), kappa)
    return [Fraction(v, sum(raw)) for v in raw]


def words(kappa: int, length: int):
    return itertools.product(range(kappa), repeat=length)


def _add(rates: Rates, src: Word, dst: Word, rate) -> None:
    if src != dst and rate != 0:
        rates[(src, dst)] = rates.get((src, dst), Fraction(0)) + rate


def reversible_rates(rng: random.Random, kappa: int, rho, size: str) -> Rates:
    """Range-2 rates in detailed balance with rho x rho on a random connected
    pair graph: a spanning tree plus kappa^2 // 2 more edges.  Swaps (left to
    the drift term) and the perturbed jump are never edges, so every seed
    gives the same number of rate entries."""
    top = (kappa - 1, kappa - 1)
    banned = {frozenset((top, (kappa - 1, kappa - 2)))}
    pairs = list(words(kappa, 2))
    candidates = [(x, y) for x, y in itertools.combinations(pairs, 2)
                  if y != x[::-1] and frozenset((x, y)) not in banned]
    rng.shuffle(candidates)
    component = {x: x for x in pairs}

    def root(x):
        while component[x] != x:
            x = component[x]
        return x

    tree, rest = [], []
    for x, y in candidates:
        if root(x) != root(y):
            component[root(x)] = root(y)
            tree.append((x, y))
        else:
            rest.append((x, y))
    rates: Rates = {}
    for x, y in tree + rest[:len(pairs) // 2]:
        forward = rational(rng, size)
        _add(rates, x, y, forward)
        _add(rates, y, x, forward * rho[x[0]] * rho[x[1]] / (rho[y[0]] * rho[y[1]]))
    return rates


def drift_rates(rng: random.Random, kappa: int, size: str) -> Rates:
    """Swaps (i, j) -> (j, i), i > j, at rate c_i - c_j with c increasing."""
    c = [Fraction(0)]
    for _ in range(kappa - 1):
        c.append(c[-1] + rational(rng, size))
    rates: Rates = {}
    for i in range(kappa):
        for j in range(i):
            _add(rates, (i, j), (j, i), c[i] - c[j])
    return rates


def invariant_rates(rng: random.Random, kappa: int, rho, size: str) -> Rates:
    rates = reversible_rates(rng, kappa, rho, size)
    for (src, dst), rate in drift_rates(rng, kappa, size).items():
        _add(rates, src, dst, rate)
    return rates


def perturbed(rng: random.Random, rates: Rates, kappa: int, range_: int,
              size: str) -> Rates:
    """Add delta to the rate of one fixed jump that changes the letter counts:
    the middle letter of the all-(kappa - 1) window drops by one.  A fixed
    jump keeps the first violating word, and so the cost of the early exit,
    the same for every seed."""
    src = (kappa - 1,) * range_
    dst = src[:range_ // 2] + (kappa - 2,) + src[range_ // 2 + 1:]
    out = dict(rates)
    _add(out, src, dst, rational(rng, size))
    return out


# ---------------------------------------------------------------------------
# model files (schema 1)
# ---------------------------------------------------------------------------

def _num(value) -> str:
    value = Fraction(value)
    return str(value.numerator) if value.denominator == 1 else \
        f"{value.numerator}/{value.denominator}"


def _rate_list(rates: Rates):
    return [{"from": list(src), "to": list(dst), "rate": _num(rate)}
            for (src, dst), rate in sorted(rates.items())]


def line_model(kappa: int, range_: int, rates: Rates, rho=None, memory=None,
               kernel=None, beta=None) -> dict:
    doc = {"schema": 1, "kappa": kappa, "range": range_, "rates": _rate_list(rates)}
    if rho is not None:
        doc["rho"] = [_num(p) for p in rho]
    if memory is not None:
        doc["memory"] = memory
        doc["kernel"] = [[_num(p) for p in row] for row in kernel]
    if beta is not None:
        doc["beta_left"] = _rate_list(beta[0])
        doc["beta_right"] = _rate_list(beta[1])
    return doc


def product_kernel(kappa: int, memory: int, rho):
    """Memory-m kernel with every row equal to rho (the product law)."""
    return [list(rho) for _ in range(kappa ** memory)]


def square_model(kappa: int, rates: Rates, rho) -> dict:
    return {"schema": 1, "kappa": kappa, "two_dimensional": True,
            "square_rates": _rate_list(rates), "rho": [_num(p) for p in rho]}


def product_boundaries(kappa: int, rates: Rates, rho):
    """Segment boundary rates emulating the line for a product law (range 2),
    in the source-weighted form of psinv.segment:
    left[z -> a] = sum_{u,v} rho_u T[(u,z) -> (v,a)] and
    right[z -> a] = sum_{v,b} rho_v T[(z,v) -> (a,b)]."""
    left: Rates = {}
    right: Rates = {}
    for ((s0, s1), (d0, d1)), rate in rates.items():
        _add(left, (s1,), (d1,), rho[s0] * rate)
        _add(right, (s0,), (d0,), rho[s1] * rate)
    return left, right


# ---------------------------------------------------------------------------
# catalog models, restated
# ---------------------------------------------------------------------------

def ising(x) -> Tuple[Rates, list]:
    """Stochastic Ising spin flips (range 3) and their invariant kernel."""
    rates: Rates = {}
    for a, b, c in words(2, 3):
        rates[((a, b, c), (a, 1 - b, c))] = Fraction(x) ** ((2 * b - 1) * (2 * a + 2 * c - 2))
    align = 1 / (1 + Fraction(x) ** 2)
    return rates, [[align, 1 - align], [1 - align, align]]


def voter(kappa: int) -> Rates:
    rates: Rates = {}
    for a, m, b in words(kappa, 3):
        for c in range(kappa):
            if c != m and (c == a or c == b):
                rates[((a, m, b), (a, c, b))] = Fraction((c == a) + (c == b))
    return rates


def contact(lam) -> Rates:
    return {((1, 0), (1, 1)): lam, ((0, 1), (1, 1)): lam,
            ((1, 1), (0, 1)): Fraction(1), ((1, 0), (0, 0)): Fraction(1)}


def zero_range(g, kappa: int) -> Rates:
    """Pile a sends k particles right at rate g[k]; overfilling jumps dropped."""
    rates: Rates = {}
    for a in range(kappa):
        for k in range(1, a + 1):
            for b in range(kappa - k):
                rates[((a, b), (a - k, b + k))] = g[k]
    return rates


# ---------------------------------------------------------------------------
# job lists
# ---------------------------------------------------------------------------

def _exact_float(w: Workload, name: str, argv: List[str], model: dict,
                 expect: dict) -> None:
    """The same request under --exact and --float."""
    w.add(Job(f"{name}/exact", ["--exact"] + argv, model, expect))
    w.add(Job(f"{name}/float", ["--float", "--tol", str(FLOAT_TOL)] + argv, model,
              expect, float_mode=True, reference=f"{name}/exact"))


def _verdict(invariant: bool) -> dict:
    return {"exit": 0 if invariant else 1,
            "verdict": "invariant" if invariant else "not-invariant"}


DECIDE_SHAPES = ((2, 1), (3, 1), (2, 2), (4, 1), (3, 2))
SIZES = ("small", "large")


def decide(seed: int, smoke: bool = False) -> Workload:
    """Z-table deciders: check-markov, check-product and segment.

    Every instance comes as an invariant/not-invariant pair, in exact and
    float arithmetic, with 1-digit and 7-digit rationals; two draws of each
    keep the latency percentiles from resting on one draw's numbers.
    """
    rng = random.Random(f"decide-{seed}")
    w = Workload("decide")
    shapes = DECIDE_SHAPES[:2] if smoke else DECIDE_SHAPES
    sizes = SIZES[:1] if smoke else SIZES
    for size, draw in itertools.product(sizes, range(1 if smoke else 2)):
        tag = f"{size}{draw}"
        by_kappa = {}
        for kappa in sorted({k for k, _ in shapes}):
            rho = marginal(rng, kappa, size)
            good = invariant_rates(rng, kappa, rho, size)
            by_kappa[kappa] = (rho, good, perturbed(rng, good, kappa, 2, size))
        for kappa, memory in shapes:
            rho, good, bad = by_kappa[kappa]
            kernel = product_kernel(kappa, memory, rho)
            for label, rates, ok in (("pos", good, True), ("neg", bad, False)):
                doc = line_model(kappa, 2, rates, memory=memory, kernel=kernel)
                _exact_float(w, f"check-markov/k{kappa}m{memory}/{tag}/{label}",
                             ["--report", "json", "check-markov", "@model"],
                             doc, _verdict(ok))
        for kappa, (rho, good, bad) in by_kappa.items():
            for label, rates, ok in (("pos", good, True), ("neg", bad, False)):
                doc = line_model(kappa, 2, rates, rho=rho)
                _exact_float(w, f"check-product/k{kappa}/{tag}/{label}",
                             ["--report", "json", "check-product", "@model"],
                             doc, _verdict(ok))
        for kappa in (2, 3):
            rho, good, bad = by_kappa[kappa]
            kernel = product_kernel(kappa, 1, rho)
            doc = line_model(kappa, 2, good, memory=1, kernel=kernel)
            # the CLI builds the target-weighted boundaries, which psinv
            # documents as failing off the symmetric density: no verdict is
            # known by construction, only from the exact run and the records
            _exact_float(w, f"segment-construct/k{kappa}/{tag}",
                         ["--report", "json", "segment", "@model", "--construct-boundaries"],
                         doc, {})
            beta = product_boundaries(kappa, good, rho)
            n = "7" if kappa == 2 else "5"
            for label, rates, ok in (("pos", good, True), ("neg", bad, False)):
                doc = line_model(kappa, 2, rates, memory=1, kernel=kernel, beta=beta)
                _exact_float(w, f"segment/k{kappa}/{tag}/{label}",
                             ["--report", "json", "segment", "@model", "--n", n],
                             doc, _verdict(ok))
        x = rational(rng, size)
        rates, kernel = ising(x)
        bad = perturbed(rng, rates, 2, 3, size)
        for label, r, ok in (("pos", rates, True), ("neg", bad, False)):
            doc = line_model(2, 3, r, memory=1, kernel=kernel)
            _exact_float(w, f"check-markov/ising/{tag}/{label}",
                         ["--report", "json", "check-markov", "@model"],
                         doc, _verdict(ok))
    return w


def search(seed: int, smoke: bool = False) -> Workload:
    """find-markov and find-product on the range-2 catalog and on seeded
    invariant rate matrices whose product law the search must recover.

    Rationals stay 1-digit: the kappa = 2 Bernoulli root finder divides by
    trial up to the square root of each coefficient, which does not finish
    with 3-digit rationals (ROADMAP item 5).
    """
    rng = random.Random(f"search-{seed}")
    w = Workload("search")
    models = []
    for k in range(1 if smoke else 6):
        r10, r21 = rational(rng, "small"), rational(rng, "small")
        models += [
            (f"tasep{k}", 2, {((1, 0), (0, 1)): rational(rng, "small")}, None),
            (f"contact{k}", 2, contact(rational(rng, "small")), None),
            (f"tasep3-{k}", 3, {((1, 0), (0, 1)): r10, ((2, 1), (1, 2)): r21,
                                ((2, 0), (0, 2)): r10 + r21}, None),
            (f"tasep3_cyclic{k}", 3, {((0, 2), (2, 0)): rational(rng, "small"),
                                      ((1, 0), (0, 1)): rational(rng, "small"),
                                      ((2, 1), (1, 2)): rational(rng, "small")}, None),
            (f"zero_range{k}", 4,
             zero_range({j: rational(rng, "small") for j in (1, 2, 3)}, 4), None),
        ]
    for kappa, count in ((2, 1), (3, 1)) if smoke else ((2, 14), (3, 6), (4, 1)):
        for k in range(count):
            rho = marginal(rng, kappa, "small")
            models.append((f"random-k{kappa}-{k}", kappa,
                           invariant_rates(rng, kappa, rho, "small"), rho))
    for name, kappa, rates, rho in models:
        doc = line_model(kappa, 2, rates)
        for command in ("find-markov", "find-product"):
            expect = {"exit": 0}
            if rho is not None:
                expect["contains"] = [_num(p) for p in rho]
            w.add(Job(f"{command}/{name}", ["--report", "json", command, "@model"],
                      doc, expect))
    return w


def crosscheck(seed: int, smoke: bool = False) -> Workload:
    """The brute-force oracle behind every verdict: verify-cycle, check-2d,
    absorbing and equivalences, from a few states to 65,536."""
    rng = random.Random(f"crosscheck-{seed}")
    w = Workload("crosscheck")
    oracle_ok = {"residual": "0", "oracle_agrees": True}

    def cycle_job(name, doc, n, ok):
        expect = dict(_verdict(ok), oracle_agrees=True)
        if ok:
            expect.update(oracle_ok)
        w.add(Job(f"verify-cycle/{name}/n{n}",
                  ["--report", "json", "verify-cycle", "@model", "--n", str(n)],
                  doc, expect))

    # Ising chains: invariant with their kernel; a count-changing flip rate
    # perturbation is not (on any cycle).  Many small draws, few large sizes.
    draws = 2 if smoke else 8
    for k in range(draws):
        rates, kernel = ising(rational(rng, "small"))
        pos = line_model(2, 3, rates, memory=1, kernel=kernel)
        neg = line_model(2, 3, perturbed(rng, rates, 2, 3, "small"), memory=1, kernel=kernel)
        large = (10,) * (k < 4) + (14,) * (k == 0)
        for n in ((6, 8) if smoke else (6, 7, 8) + large):
            cycle_job(f"ising{k}", pos, n, True)
        for n in ((6,) if smoke else (5, 6, 7)):
            cycle_job(f"ising{k}-perturbed", neg, n, False)
    # Bernoulli tasep and three-colour products (every product is invariant)
    for k in range(2 if smoke else 6):
        p = Fraction(rng.randint(1, 8), 9)
        doc = line_model(2, 2, {((1, 0), (0, 1)): rational(rng, "small")}, rho=[1 - p, p])
        for n in ((6, 8) if smoke else (6, 8, 10)):
            cycle_job(f"tasep{k}", doc, n, True)
        r10, r21 = rational(rng, "small"), rational(rng, "small")
        rho = marginal(rng, 3, "small")
        doc = line_model(3, 2, {((1, 0), (0, 1)): r10, ((2, 1), (1, 2)): r21,
                                ((2, 0), (0, 2)): r10 + r21}, rho=rho)
        for n in ((4, 5) if smoke else (4, 5, 6, 7) + (8,) * (k == 0)):
            cycle_job(f"tasep3-{k}", doc, n, True)
    # reversible + drift products and their perturbed twins, on cycles and
    # through the equivalence panel
    for kappa, k in itertools.product((2, 3), range(1 if smoke else 2)):
        rho = marginal(rng, kappa, "small")
        good = invariant_rates(rng, kappa, rho, "small")
        bad = perturbed(rng, good, kappa, 2, "small")
        for label, rates, ok in (("pos", good, True), ("neg", bad, False)):
            doc = line_model(kappa, 2, rates, rho=rho)
            for n in ((4,) if smoke else ((6, 9) if kappa == 2 else (4, 6))):
                cycle_job(f"random-k{kappa}-{k}-{label}", doc, n, ok)
            if k:
                continue
            for memory in ((1,) if kappa == 3 or smoke else (1, 2)):
                kdoc = line_model(kappa, 2, rates, memory=memory,
                                  kernel=product_kernel(kappa, memory, rho))
                w.add(Job(f"equivalences/k{kappa}m{memory}/{label}",
                          ["--report", "json", "equivalences", "@model"],
                          kdoc, {"exit": 0, "verdict": "agree"}))
    # 2x2-square flips on the 3x3 torus: a r^2 p^2 = (1-p)^2 has p = 1/(r+1)
    up, down = (1, 1, 1, 0), (0, 0, 0, 1)
    for k in range(2 if smoke else 8):
        r = rational(rng, "small")
        p = 1 / (r + 1)
        rates = {(up, down): r * r, (down, up): Fraction(1)}
        w.add(Job(f"check-2d/flip{k}/pos", ["--report", "json", "check-2d", "@model"],
                  square_model(2, rates, [1 - p, p]),
                  dict(_verdict(True), residual="0")))
        q = p / 2
        w.add(Job(f"check-2d/flip{k}/neg", ["--report", "json", "check-2d", "@model"],
                  square_model(2, rates, [1 - q, q]), _verdict(False)))
        a = rational(rng, "small")
        pair = {((1, 0, 1, 0), (0, 1, 0, 1)): a, ((0, 1, 0, 1), (1, 0, 1, 0)): a}
        p = Fraction(rng.randint(1, 8), 9)
        w.add(Job(f"check-2d/pairflip{k}", ["--report", "json", "check-2d", "@model"],
                  square_model(2, pair, [1 - p, p]),
                  dict(_verdict(True), residual="0")))
    if not smoke:
        # 65,536 states: the largest space, beyond the CLI's 3x3 torus
        a, p = rational(rng, "small"), Fraction(rng.randint(1, 8), 9)
        pair = {((1, 0, 1, 0), (0, 1, 0, 1)): a, ((0, 1, 0, 1), (1, 0, 1, 0)): a}
        w.add(Job("torus4/pairflip", ["@model"], square_model(2, pair, [1 - p, p]),
                  dict(_verdict(True), residual="0"), kind="torus4"))
    # absorbing-set exclusion: voter (range 3) and contact (range 2)
    absorbing = [("voter2", 2, 3, voter(2), (6, 9, 12)),
                 ("voter3", 3, 3, voter(3), (5, 7)),
                 ("contact", 2, 2, contact(rational(rng, "small")), (6, 9, 12))]
    for name, kappa, range_, rates, tops in absorbing:
        doc = line_model(kappa, range_, rates)
        for top in (tops[:1] if smoke else tops):
            w.add(Job(f"absorbing/{name}/n{top}",
                      ["--report", "json", "absorbing", "@model", "--n-min", "3",
                       "--n-max", str(top)], doc,
                      {"exit": 0, "verdict": "no-full-support-markov-law"}))
    return w


BUILDERS = {"decide": decide, "search": search, "crosscheck": crosscheck}


def build(name: str, seed: int, smoke: bool = False) -> Workload:
    return BUILDERS[name](seed, smoke)


def materialize(workload: Workload, directory: str) -> List[Tuple[Job, List[str]]]:
    """Write every model file once and return each job with its final argv."""
    os.makedirs(directory, exist_ok=True)
    written: Dict[str, str] = {}
    out = []
    for job in workload.jobs:
        text = json.dumps(job.model, sort_keys=True)
        if text not in written:
            written[text] = os.path.join(directory, f"m{len(written):04d}.json")
            with open(written[text], "w") as handle:
                handle.write(text)
        out.append((job, [written[text] if a == "@model" else a for a in job.argv]))
    return out
