"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every numeric assertion here is exact (Fraction arithmetic) unless a
float tolerance is explicitly part of the criterion.
"""
import random
import time
from fractions import Fraction

from psinv.core import Alphabet, BoundaryRates, JumpRateMatrix, MarkovKernel
from psinv.criteria import (check_markov_cycle, check_product_line, cycle_balance,
                            equivalence_panel, markov_context, product_context,
                            z_table)
from psinv.lattice2d import check_product_2d
from psinv.linalg import stationary_distribution
from psinv.models import (flip_2d, hidden_marginal, hmc_example, pair_flip_2d,
                          project_jrm, stochastic_ising, tasep, tasep3, voter,
                          contact, zero_range)
from psinv.oracle import (CycleSpace, SegmentSpace, TorusSpace, absorbing_analysis,
                          absorbing_exclusion, build_generator, gibbs_measure,
                          product_measure, segment_measure, stationarity_residual)
from psinv.search import candidate_kernels, triple_from_kernel
from psinv.segment import construct_boundaries, segment_balance

from conftest import random_jrm, random_kernel, random_marginal

F = Fraction


def report(number, text):
    print(f"ACCEPTANCE {number}: PASS - {text}")


def test_01_ising_exactness():
    start = time.perf_counter()
    spec = stochastic_ising(F(1, 2))
    ctx = markov_context(spec.jrm, spec.kernel)
    table = z_table(ctx)
    assert len(table.values) == 32
    assert all(v == 0 for v in table.values.values())
    for x in Alphabet(2).words(9):
        assert cycle_balance(ctx, x) == 0
    for n in (3, 4, 5):
        gen = build_generator(spec.jrm, CycleSpace(n))
        assert stationarity_residual(gen, gibbs_measure(spec.kernel, n)) == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, f"32 zero balances, zero 9-cycles, zero residuals n=3..5 "
              f"({elapsed:.3f}s)")


def test_02_hidden_markov_instance():
    start = time.perf_counter()
    spec = hmc_example()
    ctx = markov_context(spec.jrm, spec.kernel)
    assert all(v == 0 for v in z_table(ctx).values.values())
    law = stationary_distribution(spec.kernel)
    assert law.rho == {(0,): F(35, 89), (1,): F(29, 89), (2,): F(25, 89)}
    projected = project_jrm(spec.jrm, (0, 1, 1))
    assert projected.rate((0, 0, 0), (0, 1, 0)) == 270
    assert projected.rate((0, 1, 0), (0, 0, 0)) == 294
    pi = (0, 1, 1)
    r3 = hidden_marginal(law, pi, (1, 1, 1)) / hidden_marginal(law, pi, (1, 1))
    r2 = hidden_marginal(law, pi, (1, 1)) / hidden_marginal(law, pi, (1,))
    assert (r3, r2) == (F(71, 106), F(53, 81))
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(2, f"zero balances, stationary law 35/89,29/89,25/89, projected "
              f"rates 270/294, ratios 71/106 vs 53/81 ({elapsed:.3f}s)")


def test_03_tasep_products_and_cycles():
    T = tasep().jrm
    for p in (F(1, 4), F(1, 2), F(9, 10)):
        rep = check_product_line(T, [1 - p, p])
        assert rep.invariant
        ctx = product_context(T, [1 - p, p])
        for word in _anchor_cycle_words(2, 3):
            assert cycle_balance(ctx, word) == 0
        for n in range(3, 7):
            gen = build_generator(T, CycleSpace(n))
            assert stationarity_residual(gen, product_measure([1 - p, p], n)) == 0
    report(3, "Bernoulli 1/4, 1/2, 9/10 invariant; oracle zero on n=3..6")


def _anchor_cycle_words(kappa, h):
    return Alphabet(kappa).words(h)


def test_04_three_colour_tasep():
    rng = random.Random(4)
    conservative = tasep3(1, 2, 1)
    assert -F(2) + F(1) + F(1) == 0  # -r20 + r21 + r10
    for _ in range(10):
        rho = random_marginal(rng, kappa=3)
        assert check_product_line(conservative.jrm, rho).invariant
    uniform = tasep3(1, 1, 1)
    assert -F(1) + F(1) + F(1) != 0
    rep = check_product_line(uniform.jrm, [F(1, 3), F(1, 3), F(1, 3)])
    assert not rep.invariant and rep.witness is not None
    report(4, "rates (1,2,1): 10 random products invariant; rates (1,1,1): "
              "witnessed violation matches the rate condition")


def test_05_absorbing_exclusions():
    for name, spec, expect_exact in (("voter", voter(), True),
                                     ("contact", contact(1), False)):
        T = spec.jrm
        for n in range(3, 9):
            analysis = absorbing_analysis(build_generator(T, CycleSpace(n)))
            assert analysis.is_proper
            gen = build_generator(T, CycleSpace(n))
            states = sorted(gen.state_word(s) for s in analysis.absorbing_states)
            if expect_exact:
                assert states == [(0,) * n, (1,) * n]
            else:
                assert (0,) * n in states
        verdict = absorbing_exclusion(T, range(3, 9))
        assert verdict.excluded
        assert verdict.memory_bound == 8 - T.range_
    report(5, "voter {0^n,1^n} and contact {0^n,..} absorbing for n=3..8; "
              "full-support Markov laws excluded")


def test_06_equivalence_panel_bulk():
    start = time.perf_counter()
    rng = random.Random(6)
    instances = 0
    invariant_seen = 0
    for kappa in (2, 3):
        for _ in range(100):
            T = random_jrm(rng, kappa=kappa, range_=2, max_entries=6)
            M = random_kernel(rng, kappa=kappa)
            ctx = markov_context(T, M)
            panel = equivalence_panel(ctx)
            core = {v for k, v in panel.items() if not k.startswith("paired")}
            assert len(core) == 1, f"panel disagrees on kappa={kappa} instance"
            verdict = panel["line_invariant"]
            invariant_seen += verdict
            assert panel["paired_lengths_6_5"] == verdict
            assert panel["paired_lengths_6_4"] == verdict
            for n in range(3, 7):
                gen = build_generator(T, CycleSpace(n))
                residual = stationarity_residual(gen, gibbs_measure(M, n))
                assert check_markov_cycle(ctx, n).invariant == (residual == 0)
            instances += 1
    # a few invariant instances so both branches of every predicate fire
    extras = [(tasep().jrm, MarkovKernel.from_matrix([[F(2, 3), F(1, 3)],
                                                      [F(2, 3), F(1, 3)]])),
              (stochastic_ising(F(1, 2)).jrm, stochastic_ising(F(1, 2)).kernel),
              (hmc_example().jrm, hmc_example().kernel)]
    for T, M in extras:
        panel = equivalence_panel(markov_context(T, M))
        assert all(v for k, v in panel.items() if not k.startswith("paired"))
    elapsed = time.perf_counter() - start
    assert instances == 200
    assert elapsed < 300
    report(6, f"200 instances: nine predicates agree, paired reductions hold, "
              f"oracle matches at n=3..6 ({elapsed:.1f}s, "
              f"{invariant_seen} invariant draws)")


def test_07_triple_measure_round_trip():
    rng = random.Random(7)
    exact_runs = 0
    for k in range(50):
        kappa = 2 if k % 2 else 3
        M = random_kernel(rng, kappa=kappa)
        nu = triple_from_kernel(M)
        result = candidate_kernels(nu)
        assert len(result.candidates) == 1
        cand = result.candidates[0]
        if cand.exact:
            exact_runs += 1
            assert cand.kernel.matrix() == M.matrix()
        else:
            for row_got, row_want in zip(cand.kernel.matrix(), M.matrix()):
                for got, want in zip(row_got, row_want):
                    assert abs(float(got) - float(want)) <= 1e-9
    # float path: same bound applies to a kernel fed in as floats
    M = random_kernel(rng, kappa=2)
    floats = MarkovKernel.from_matrix(
        [[float(v) for v in row] for row in M.matrix()])
    nu = triple_from_kernel(floats)
    cand = candidate_kernels(nu).candidates[0]
    for row_got, row_want in zip(cand.kernel.matrix(), M.matrix()):
        for got, want in zip(row_got, row_want):
            assert abs(float(got) - float(want)) <= 1e-9
    report(7, f"50 round-trips recovered exactly ({exact_runs} rational) "
              "plus a float-path recovery within 1e-9")


def test_08_balance_lemma_bulk():
    rng = random.Random(8)
    for k in range(100):
        kappa = 2 if k % 2 else 3
        T = random_jrm(rng, kappa=kappa)
        M = random_kernel(rng, kappa=kappa)
        ctx = markov_context(T, M)
        table = z_table(ctx)
        E = range(kappa)
        for a in E:
            for d in E:
                acc = sum(table[(a, b, c, d)] * M.prob((a,), b) *
                          M.prob((b,), c) * M.prob((c,), d)
                          for b in E for c in E)
                assert acc == 0
    report(8, "100 random (M, T): weighted window sums vanish for all contexts")


def test_09_two_dimensional():
    start = time.perf_counter()
    good = flip_2d(4)
    rep = check_product_2d(good.square, [F(2, 3), F(1, 3)])
    assert rep.invariant
    gen = build_generator(good.square, TorusSpace(3))
    assert gen.n_states == 512
    assert stationarity_residual(gen, product_measure([F(2, 3), F(1, 3)], 9)) == 0
    bad = pair_flip_2d(1, 2)
    rep_bad = check_product_2d(bad.square, [F(1, 2), F(1, 2)])
    assert not rep_bad.invariant
    elapsed = time.perf_counter() - start
    assert elapsed < 30
    report(9, f"flip family a=4 at density 1/3 invariant with zero torus "
              f"residual (512 states); unbalanced pair flip rejected "
              f"({elapsed:.2f}s)")


def test_10_segment_balances_and_boundaries():
    rng = random.Random(10)
    alphabet = Alphabet(2)
    checked = 0
    for _ in range(20):
        T = random_jrm(rng)
        M = random_kernel(rng)
        beta = BoundaryRates(
            JumpRateMatrix(alphabet, 1, {((0,), (1,)): F(rng.randint(0, 5), 7),
                                         ((1,), (0,)): F(rng.randint(0, 5), 7)}),
            JumpRateMatrix(alphabet, 1, {((0,), (1,)): F(rng.randint(0, 5), 7),
                                         ((1,), (0,)): F(rng.randint(0, 5), 7)}))
        ctx = markov_context(T, M)
        n = rng.choice([3, 4, 5, 6])
        gen = build_generator(T, SegmentSpace(n, beta))
        mu = segment_measure(ctx.law, n)
        for idx in range(gen.n_states):
            x = gen.state_word(idx)
            direct = sum(mu[y] * gen.rows[y].get(idx, F(0))
                         for y in range(gen.n_states)) - mu[idx] * gen.exit_rates[idx]
            assert segment_balance(ctx, beta, x) * ctx.law.marginal(x) == direct
        checked += 1
    assert checked == 20
    p = F(1, 4)
    M = MarkovKernel.from_matrix([[1 - p, p], [1 - p, p]])
    ctx = markov_context(tasep().jrm, M)
    target_w = construct_boundaries(ctx, variant="target-weighted")
    source_w = construct_boundaries(ctx, variant="source-weighted")
    # either outcome of the target-weighted form is acceptable, but it must
    # come with its validation report; here it fails and documents the witness
    assert target_w.validation is not None
    if not target_w.validation.invariant:
        assert target_w.validation.witness is not None
    assert source_w.validation.invariant
    report(10, "20 random (T,M,beta): segment balance equals generator exactly; "
               "boundary construction: target-weighted "
               f"validated={target_w.validation.invariant} "
               "(discrepancy documented), source-weighted validated=True")


def test_11_zero_range_geometric_family():
    kappa = 4
    T = zero_range(lambda a, k: 1, kappa).jrm
    base_q = F(1, 2)
    total = sum(base_q ** u for u in range(kappa))
    base = [base_q ** u / total for u in range(kappa)]
    assert check_product_line(T, base).invariant  # the verified geometric
    samples = (F(1, 5), F(1, 3), F(2, 5), F(3, 5), F(5, 7))
    for q in samples:
        total = sum(q ** u for u in range(kappa))
        rho = [q ** u / total for u in range(kappa)]
        assert check_product_line(T, rho).invariant
    report(11, "zero-range truncation kappa=4: geometric 1/2 verified and all "
               "5 same-support geometric samples invariant exactly")
