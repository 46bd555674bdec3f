import random
from fractions import Fraction

import pytest

from psinv.core import Alphabet, JumpRateMatrix, MarkovKernel, product_law
from psinv.criteria import check_markov_cycle, line_balance, markov_context, product_context
from psinv.linalg import stationary_distribution
from psinv.oracle import (CycleSpace, SegmentSpace, StateCapExceeded, TorusSpace,
                          absorbing_analysis, absorbing_exclusion, build_generator,
                          gibbs_measure, line_balance_raw, product_measure,
                          segment_measure, stationarity_residual)
from psinv.models import contact, hmc_example, stochastic_ising, tasep, voter

from conftest import random_jrm, random_kernel, random_marginal

F = Fraction


class TestBuildGenerator:
    def test_tasep_cycle3_rates(self):
        gen = build_generator(tasep().jrm, CycleSpace(3))
        assert gen.n_states == 8
        src = gen.state_index((1, 0, 0))
        dst = gen.state_index((0, 1, 0))
        assert gen.rows[src].get(dst) == 1

    def test_zero_dynamics_zero_generator(self):
        gen = build_generator(JumpRateMatrix(Alphabet(2), 2, {}), CycleSpace(4))
        assert all(not row for row in gen.rows)

    def test_contact_recovery_rate(self):
        gen = build_generator(contact(1, encoding="L3").jrm, CycleSpace(3))
        src = gen.state_index((1, 1, 1))
        dst = gen.state_index((1, 0, 1))
        assert gen.rows[src].get(dst) == 1

    def test_rows_sum_to_zero(self, rng):
        for _ in range(5):
            gen = build_generator(random_jrm(rng), CycleSpace(4))
            assert gen.row_sum_defect() == 0

    def test_small_cycle_uses_wrapped_windows(self):
        gen = build_generator(tasep().jrm, CycleSpace(2))
        src = gen.state_index((1, 0))
        dst = gen.state_index((0, 1))
        assert gen.rows[src].get(dst) == 1

    def test_state_cap(self):
        with pytest.raises(StateCapExceeded):
            build_generator(tasep().jrm, CycleSpace(10), max_states=512)


class TestMeasures:
    def test_uniform_gibbs(self):
        M = MarkovKernel.from_matrix([[F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]])
        assert gibbs_measure(M, 3) == [F(1, 8)] * 8

    def test_ising_gibbs_weights(self):
        spec = stochastic_ising(F(1, 2))
        mu = gibbs_measure(spec.kernel, 3)
        # cyclic weight of 000 is (4/5)^3, of 010 it is (4/5)(1/5)(1/5)
        total = sum(F(4, 5) ** (3 - k) * F(1, 5) ** k
                    for k in (0, 2, 2, 2, 2, 2, 2, 0))
        alphabet = Alphabet(2)
        assert mu[alphabet.encode((0, 0, 0))] == F(4, 5) ** 3 / total
        assert mu[alphabet.encode((0, 1, 0))] == F(4, 5) * F(1, 5) ** 2 / total

    def test_constant_row_kernel_gives_product(self):
        p = F(1, 3)
        M = MarkovKernel.from_matrix([[1 - p, p], [1 - p, p]])
        assert gibbs_measure(M, 4) == product_measure([1 - p, p], 4)


class TestStationarity:
    def test_ising_gibbs_invariant_on_cycles(self):
        spec = stochastic_ising(F(1, 2))
        for n in (3, 4, 5):
            gen = build_generator(spec.jrm, CycleSpace(n))
            assert stationarity_residual(gen, gibbs_measure(spec.kernel, n)) == 0

    def test_zero_dynamics_everything_invariant(self):
        gen = build_generator(JumpRateMatrix(Alphabet(2), 2, {}), CycleSpace(3))
        assert stationarity_residual(gen, [F(1, 8)] * 8) == 0

    def test_voter_full_support_gibbs_not_invariant(self):
        M = MarkovKernel.from_matrix([[F(1, 2), F(1, 2)], [F(1, 3), F(2, 3)]])
        gen = build_generator(voter().jrm, CycleSpace(4))
        assert stationarity_residual(gen, gibbs_measure(M, 4)) > 0

    def test_criterion_matches_oracle(self, rng):
        for kappa in (2, 3):
            for _ in range(8):
                T = random_jrm(rng, kappa=kappa)
                M = random_kernel(rng, kappa=kappa)
                ctx = markov_context(T, M)
                for n in (3, 4, 5, 6):
                    gen = build_generator(T, CycleSpace(n))
                    residual = stationarity_residual(gen, gibbs_measure(M, n))
                    assert check_markov_cycle(ctx, n).invariant == (residual == 0)

    def test_criterion_matches_oracle_range3(self, rng):
        for _ in range(5):
            T = random_jrm(rng, kappa=2, range_=3)
            M = random_kernel(rng, kappa=2)
            ctx = markov_context(T, M)
            for n in (3, 4, 5, 6):
                gen = build_generator(T, CycleSpace(n))
                residual = stationarity_residual(gen, gibbs_measure(M, n))
                assert check_markov_cycle(ctx, n).invariant == (residual == 0)

    def test_criterion_matches_oracle_tiny_cycles(self, rng):
        # below n = m + L the decision falls back to the direct balance
        for _ in range(6):
            T = random_jrm(rng, kappa=2, range_=2)
            M = random_kernel(rng, kappa=2)
            ctx = markov_context(T, M)
            for n in (1, 2):
                gen = build_generator(T, CycleSpace(n))
                residual = stationarity_residual(gen, gibbs_measure(M, n))
                assert check_markov_cycle(ctx, n).invariant == (residual == 0)

    def test_product_criterion_matches_oracle_small_n(self, rng):
        for _ in range(8):
            T = random_jrm(rng)
            rho = random_marginal(rng)
            ctx = product_context(T, rho)
            for n in (1, 2):
                gen = build_generator(T, CycleSpace(n))
                residual = stationarity_residual(gen, product_measure(rho, n))
                assert check_markov_cycle(ctx, n).invariant == (residual == 0)


class TestAbsorbing:
    def test_voter_consensus_states(self):
        T = voter().jrm
        for n in range(3, 9):
            gen = build_generator(T, CycleSpace(n))
            report = absorbing_analysis(gen)
            words = sorted(gen.state_word(s) for s in report.absorbing_states)
            assert words == [(0,) * n, (1,) * n]
            assert report.is_proper and report.reaches_all

    def test_contact_contains_extinction(self):
        T = contact(1).jrm
        for n in range(3, 9):
            gen = build_generator(T, CycleSpace(n))
            report = absorbing_analysis(gen)
            assert gen.state_index((0,) * n) in report.absorbing_states
            assert report.is_proper

    def test_zero_dynamics_everything_absorbing(self):
        gen = build_generator(JumpRateMatrix(Alphabet(2), 2, {}), CycleSpace(3))
        report = absorbing_analysis(gen)
        assert len(report.absorbing_states) == gen.n_states
        assert not report.is_proper

    def test_tasep_conservation_classes_cover_space(self):
        gen = build_generator(tasep().jrm, CycleSpace(4))
        report = absorbing_analysis(gen)
        assert not report.is_proper
        assert len(report.absorbing_states) == gen.n_states
        assert len(report.sink_components) == 5  # one class per particle count


class TestExclusion:
    def test_voter_excluded(self):
        verdict = absorbing_exclusion(voter().jrm, range(3, 9))
        assert verdict.excluded
        assert verdict.memory_bound == 5
        assert verdict.pattern_persists

    def test_contact_excluded(self):
        verdict = absorbing_exclusion(contact(1).jrm, range(3, 9))
        assert verdict.excluded
        assert verdict.memory_bound == 6

    def test_tasep_inconclusive(self):
        verdict = absorbing_exclusion(tasep().jrm, range(3, 7))
        assert not verdict.excluded

    def test_zero_dynamics_rejected(self):
        with pytest.raises(ValueError):
            absorbing_exclusion(JumpRateMatrix(Alphabet(2), 2, {}), [3, 4])


class TestSegmentAndTorusSpaces:
    def test_segment_interior_only(self):
        gen = build_generator(tasep().jrm, SegmentSpace(3))
        src = gen.state_index((1, 0, 1))
        dst = gen.state_index((0, 1, 1))
        assert gen.rows[src].get(dst) == 1
        # no wrap-around jump on a segment
        src = gen.state_index((0, 1, 1))
        dst = gen.state_index((1, 1, 0))
        assert dst not in gen.rows[src]

    def test_segment_measure_matches_marginals(self, rng):
        law = product_law(random_marginal(rng))
        mu = segment_measure(law, 3)
        assert sum(mu) == 1

    def test_torus_flip(self):
        from psinv.models import flip_2d
        gen = build_generator(flip_2d(1).square, TorusSpace(2))
        assert gen.n_sites == 4
        assert gen.row_sum_defect() == 0

    def test_torus_needs_square_patterns(self):
        with pytest.raises(ValueError, match="length 4"):
            build_generator(tasep().jrm, TorusSpace(2))


def _steps_inside(kernel, x):
    """Product of the kernel step weights whose window lies inside x."""
    m = kernel.memory
    weight = F(1)
    for j in range(len(x) - m):
        weight *= kernel.step_weight(x[j:j + m + 1])
    return weight


class TestLineBalanceReference:
    """line_balance_raw is the direct reference for criteria.line_balance:
    the raw cylinder balance equals the normalized one times the kernel
    step weights inside the word."""

    FIXED = MarkovKernel.from_matrix([[F(2, 3), F(1, 3)], [F(1, 4), F(3, 4)]])

    def cases(self):
        rng = random.Random(17)
        ising = stochastic_ising(F(1, 2))
        hmc = hmc_example()
        T = random_jrm(rng, kappa=2, range_=2)
        return [(tasep().jrm, product_law([F(1, 3), F(2, 3)])),
                (ising.jrm, stationary_distribution(ising.kernel)),
                (hmc.jrm, stationary_distribution(hmc.kernel)),
                (contact(1).jrm, stationary_distribution(self.FIXED)),
                (voter().jrm, stationary_distribution(self.FIXED)),
                (T, product_law(random_marginal(rng))),
                (T, stationary_distribution(random_kernel(rng)))]

    def test_raw_equals_normalized_times_inner_weight(self):
        words = 0
        for T, law in self.cases():
            ctx = markov_context(T, law)
            for n in (1, 2, 3):
                for x in ctx.alphabet.words(n):
                    words += 1
                    assert line_balance_raw(T, law, x) == \
                        line_balance(ctx, x) * _steps_inside(law.kernel, x), (T, x)
        assert words == 123
