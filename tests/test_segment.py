from fractions import Fraction

import pytest

from psinv.core import Alphabet, BoundaryRates, JumpRateMatrix, MarkovKernel
from psinv import criteria, segment
from psinv.criteria import markov_context
from psinv.oracle import SegmentSpace, build_generator, segment_measure
from psinv.segment import check_segment, construct_boundaries, segment_balance
from psinv.models import hmc_example, tasep

from conftest import random_jrm, random_kernel

F = Fraction


def random_boundary(rng):
    alphabet = Alphabet(2)
    def one_sided():
        return JumpRateMatrix(alphabet, 1, {
            ((0,), (1,)): F(rng.randint(0, 5), rng.randint(1, 5)),
            ((1,), (0,)): F(rng.randint(0, 5), rng.randint(1, 5))})
    return BoundaryRates(one_sided(), one_sided())


def generator_balance(ctx, beta, n):
    """Independent segment balance from the explicit generator."""
    gen = build_generator(ctx.T, SegmentSpace(n, beta))
    mu = segment_measure(ctx.law, n)
    out = []
    for idx in range(gen.n_states):
        value = sum(mu[y] * gen.rows[y].get(idx, F(0)) for y in range(gen.n_states))
        value -= mu[idx] * gen.exit_rates[idx]
        out.append(value)
    return gen, out


class TestSegmentBalance:
    def test_zero_everything(self, rng):
        T = JumpRateMatrix(Alphabet(2), 2, {})
        beta = BoundaryRates.zero(Alphabet(2), 1)
        ctx = markov_context(T, random_kernel(rng))
        for x in Alphabet(2).words(4):
            assert segment_balance(ctx, beta, x) == 0

    def test_matches_generator_exactly(self, rng):
        for _ in range(8):
            T = random_jrm(rng)
            M = random_kernel(rng)
            beta = random_boundary(rng)
            ctx = markov_context(T, M)
            n = rng.choice([3, 4, 5, 6])
            gen, direct = generator_balance(ctx, beta, n)
            for idx in range(gen.n_states):
                x = gen.state_word(idx)
                weight = ctx.law.marginal(x)
                assert segment_balance(ctx, beta, x) * weight == direct[idx]

    def test_needs_range2_memory1(self):
        spec = hmc_example()
        ctx = markov_context(spec.jrm, spec.kernel)
        with pytest.raises(ValueError):
            segment_balance(ctx, BoundaryRates.zero(Alphabet(3), 2), (0, 0, 0))

    @pytest.mark.parametrize("word", [(0, 1, 0, 2), (0, 1, -1, 0)])
    def test_letters_outside_the_alphabet_rejected(self, rng, word):
        # (0, 1, 0, 2) has the code of (0, 1, 1, 0)
        ctx = markov_context(tasep().jrm, MarkovKernel.from_matrix([[F(2, 3), F(1, 3)],
                                                                   [F(2, 3), F(1, 3)]]))
        with pytest.raises(ValueError, match="leaves the alphabet"):
            segment_balance(ctx, random_boundary(rng), word)

    def test_short_words_rejected(self, rng):
        ctx = markov_context(random_jrm(rng), random_kernel(rng))
        with pytest.raises(ValueError):
            segment_balance(ctx, BoundaryRates.zero(Alphabet(2), 1), (0, 1))


class TestCheckSegment:
    def test_zero_dynamics_invariant_with_conclusions(self, rng):
        T = JumpRateMatrix(Alphabet(2), 2, {})
        ctx = markov_context(T, random_kernel(rng))
        report = check_segment(ctx, BoundaryRates.zero(Alphabet(2), 1), 7)
        assert report.invariant
        assert "derived" in report.details

    def test_closed_tasep_segment_not_invariant(self):
        # without boundary drive the segment conserves particles, so the
        # Bernoulli product cannot be stationary
        p = F(1, 3)
        M = MarkovKernel.from_matrix([[1 - p, p], [1 - p, p]])
        ctx = markov_context(tasep().jrm, M)
        report = check_segment(ctx, BoundaryRates.zero(Alphabet(2), 1), 4)
        assert not report.invariant
        assert report.witness is not None

    def test_z_and_both_blocks_come_from_one_builder(self, monkeypatch, rng):
        # the criteria builder, read by z_table, and segment's import of it
        built, real = [], criteria._balance_table

        def counting(ctx, *args):
            built.append(args[1:2])  # the context lengths of a block
            return real(ctx, *args)

        monkeypatch.setattr(criteria, "_balance_table", counting)
        monkeypatch.setattr(segment, "_balance_table", counting)
        ctx = markov_context(tasep().jrm, random_kernel(rng))
        assert ctx.scalar_context.exact
        check_segment(ctx, random_boundary(rng), 5)
        assert built == [(), ((0, 1),), ((1, 0),)]


class TestReportPins:
    """Whole reports of passing and failing instances, pinned exactly."""

    @staticmethod
    def fields(report):
        return (report.invariant, report.criterion, report.witness, report.words_checked,
                report.details)

    def test_check_segment(self):
        p = F(1, 4)
        ctx = markov_context(tasep().jrm, MarkovKernel.from_matrix([[1 - p, p], [1 - p, p]]))
        source = construct_boundaries(ctx, variant="source-weighted").boundary
        derived = ("balance vanishes at two consecutive sizes >= 7: the law is invariant "
                   "on the line and on every segment of size >= 7 with these boundary rates")
        assert self.fields(check_segment(ctx, source, 7)) == \
            (True, "segment-7", None, 384, {"derived": derived})
        assert self.fields(check_segment(ctx, source, 5)) == (True, "segment-5", None, 32, {})
        target = construct_boundaries(ctx, variant="target-weighted").boundary
        assert self.fields(check_segment(ctx, target, 7)) == \
            (False, "segment-7", ((0,) * 7, F(-1, 6)), 1, {})
        closed = markov_context(tasep().jrm, MarkovKernel.from_matrix([[F(2, 3), F(1, 3)],
                                                                      [F(2, 3), F(1, 3)]]))
        assert self.fields(check_segment(closed, BoundaryRates.zero(Alphabet(2), 1), 4)) == \
            (False, "segment-4", ((0, 0, 0, 1), F(1)), 2, {})


class TestConstructBoundaries:
    def test_requires_line_invariance(self, rng):
        while True:
            T = random_jrm(rng)
            M = random_kernel(rng)
            ctx = markov_context(T, M)
            from psinv.criteria import check_markov_line
            if not check_markov_line(ctx).invariant:
                break
        with pytest.raises(ValueError, match="not invariant"):
            construct_boundaries(ctx)

    def test_zero_dynamics_zero_boundaries(self, rng):
        T = JumpRateMatrix(Alphabet(2), 2, {})
        ctx = markov_context(T, random_kernel(rng))
        built = construct_boundaries(ctx)
        assert built.boundary.left.is_zero and built.boundary.right.is_zero
        assert built.validation.invariant

    def test_tasep_source_weighted_passes(self):
        p = F(1, 4)
        M = MarkovKernel.from_matrix([[1 - p, p], [1 - p, p]])
        ctx = markov_context(tasep().jrm, M)
        built = construct_boundaries(ctx, variant="source-weighted")
        assert built.validation.invariant
        assert built.boundary.left.rate((0,), (1,)) == p       # injection
        assert built.boundary.right.rate((1,), (0,)) == 1 - p  # extraction

    def test_tasep_target_weighted_reports_discrepancy(self):
        # weighting the target letter breaks the balance off the symmetric
        # density; the failure is reported with its witness, never patched
        p = F(1, 4)
        M = MarkovKernel.from_matrix([[1 - p, p], [1 - p, p]])
        ctx = markov_context(tasep().jrm, M)
        built = construct_boundaries(ctx, variant="target-weighted")
        assert not built.validation.invariant
        word, residual = built.validation.witness
        assert residual != 0
        assert built.boundary.right.rate((1,), (0,)) == p

    def test_tasep_target_weighted_passes_at_symmetric_density(self):
        M = MarkovKernel.from_matrix([[F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]])
        ctx = markov_context(tasep().jrm, M)
        built = construct_boundaries(ctx, variant="target-weighted")
        assert built.validation.invariant

    def test_builds_one_z_table(self, monkeypatch):
        built = []
        real = criteria._balance_table

        def counting(ctx, *args):
            built.append(ctx)
            return real(ctx, *args)

        monkeypatch.setattr(criteria, "_balance_table", counting)
        p = F(1, 4)
        ctx = markov_context(tasep().jrm, MarkovKernel.from_matrix([[1 - p, p], [1 - p, p]]))
        assert construct_boundaries(ctx, variant="source-weighted").validation.invariant
        assert built == [ctx]

    def test_validated_boundaries_work_on_longer_segments(self):
        p = F(1, 4)
        M = MarkovKernel.from_matrix([[1 - p, p], [1 - p, p]])
        ctx = markov_context(tasep().jrm, M)
        built = construct_boundaries(ctx, variant="source-weighted")
        gen, direct = generator_balance(ctx, built.boundary, 5)
        assert all(v == 0 for v in direct)
