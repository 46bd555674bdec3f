"""One exact-or-float decision per context: inputs that mix rationals and
floats decide exactly as the same inputs all in floats (verdict, words
checked, witness bit for bit, certificate), and every table built for them
is float64."""
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from psinv.core import Alphabet, BoundaryRates, JumpRateMatrix, StationaryLaw
from psinv.criteria import (CriterionContext, check_markov_cycle, check_markov_line,
                            check_product_line, cycle_balance, markov_context,
                            product_context, z_table)
from psinv.lattice2d import _Partials, check_product_2d
from psinv.models import flip_2d, pair_flip_2d
from psinv.segment import _segment_balances, check_segment, construct_boundaries, segment_balance

from conftest import random_marginal
from z_reference import (floated, invariant_instance, perturbed_instance, pinned,
                         pinned_witness, reference_short_cycle_balance)

F = Fraction


def fields(report):
    certificate = report.certificate and {w: pinned(v)
                                          for w, v in report.certificate.values.items()}
    return report.invariant, report.words_checked, pinned_witness(report.witness), certificate


def assert_float_table(ctx):
    assert not ctx.scalar_context.exact
    assert z_table(ctx).values.entries.dtype == np.float64


def draws(seed, kappa, memory, range_):
    """(kind, T, kernel) with the rates of T inserted in sorted order, the
    order of their float copies in `floated`."""
    rng = random.Random(f"{seed}-{kappa}-{memory}-{range_}")
    for kind, draw in (("invariant", invariant_instance), ("perturbed", perturbed_instance)):
        T, kernel = draw(rng, kappa, memory, range_)
        yield kind, JumpRateMatrix(T.alphabet, T.range_,
                                   {(u, v): rate for u, v, rate in T.entries()}), kernel


def float_boundary(beta):
    return BoundaryRates(*(JumpRateMatrix(side.alphabet, 1, {(u, v): float(rate)
                                                             for u, v, rate in side.entries()})
                           for side in (beta.left, beta.right)))


class TestMarkovDeciders:
    @pytest.mark.parametrize("kappa,memory,range_", [(2, 1, 2), (3, 1, 2), (2, 2, 1),
                                                     (2, 0, 3), (3, 0, 2)])
    def test_exact_rates_with_a_float_kernel(self, kappa, memory, range_):
        for kind, T, kernel in draws(61, kappa, memory, range_):
            float_T, float_kernel = floated(T, kernel)
            mixed = markov_context(T, float_kernel)
            all_float = markov_context(float_T, float_kernel)
            assert all_float.T is float_T  # float inputs stay uncopied
            assert_float_table(mixed)
            line = check_markov_line(mixed)
            assert fields(line) == fields(check_markov_line(all_float)), kind
            if line.certificate:
                assert line.certificate.values.entries.dtype == np.float64
            for n in range(1, 2 * memory + range_ + 2):
                assert fields(check_markov_cycle(mixed, n)) == \
                    fields(check_markov_cycle(all_float, n)), (kind, n)

    @pytest.mark.parametrize("kappa,memory,range_", [(2, 1, 2), (3, 1, 2), (2, 2, 1),
                                                     (2, 0, 3), (3, 0, 2)])
    def test_short_cycles_keep_the_bits_of_the_stored_rates(self, kappa, memory, range_):
        # below n = m + L a float balance adds the stored rates from
        # Fraction(0) in entries() order, as the full scan of the moves did
        witnesses = 0
        for kind, T, kernel in draws(62, kappa, memory, range_):
            float_T, float_kernel = floated(T, kernel)
            for ctx in (markov_context(T, float_kernel), markov_context(float_T, float_kernel)):
                for n in range(1, memory + range_):
                    balances = {x: reference_short_cycle_balance(ctx, x)
                                for x in ctx.alphabet.words(n)}
                    assert {x: pinned(cycle_balance(ctx, x)) for x in balances} == \
                        {x: pinned(b) for x, b in balances.items()}, (kind, n)
                    witness = next(((x, b) for x, b in balances.items() if not ctx.is_zero(b)),
                                   None)
                    assert pinned_witness(check_markov_cycle(ctx, n).witness) == \
                        pinned_witness(witness), (kind, n)
                    witnesses += witness is not None
        assert witnesses  # the seed draws nonzero short-cycle balances

    @pytest.mark.parametrize("kappa,range_", [(2, 2), (3, 2), (2, 3)])
    def test_float_rates_with_a_fraction_marginal(self, kappa, range_):
        for kind, T, kernel in draws(62, kappa, 0, range_):
            rho = [kernel.prob((), a) for a in kernel.alphabet.letters]
            T = floated(T, kernel)[0]
            assert_float_table(product_context(T, rho))
            assert fields(check_product_line(T, rho)) == \
                fields(check_product_line(T, [float(p) for p in rho])), kind


class TestSegment:
    @pytest.mark.parametrize("kappa,sizes", [(2, range(3, 9)), (3, range(3, 8))])
    def test_float_boundary_rates_under_an_exact_context(self, kappa, sizes):
        for kind, T, kernel in draws(63, kappa, 1, 2):
            ctx = markov_context(T, kernel)
            if kind == "invariant":
                beta = construct_boundaries(ctx, variant="source-weighted").boundary
            else:
                rng = random.Random(kappa)
                beta = BoundaryRates(*(JumpRateMatrix(ctx.alphabet, 1, {
                    ((a,), (b,)): F(rng.randint(1, 5), rng.randint(1, 5))
                    for a in ctx.alphabet.letters for b in ctx.alphabet.letters if a != b})
                    for _ in range(2)))
            float_T, float_kernel = floated(T, kernel)
            all_float = CriterionContext(float_T, StationaryLaw(
                float_kernel, {w: float(p) for w, p in ctx.law.rho.items()}))
            assert ctx.scalar_context.exact
            exact_table = z_table(ctx)
            for n in sizes:
                report = check_segment(ctx, float_boundary(beta), n)
                # the exact table passed in is dropped for the float decision
                assert fields(report) == \
                    fields(check_segment(ctx, float_boundary(beta), n, exact_table))
                assert fields(report) == fields(check_segment(all_float, float_boundary(beta), n))
                assert fields(report) == fields(check_segment(all_float, beta, n))
                assert report.invariant == (kind == "invariant"), (kind, n)
                decided, balances, den = _segment_balances(ctx, float_boundary(beta), n)
                assert not decided.scalar_context.exact and den is None
                assert balances((0,) * n, 1).dtype == np.float64
            for x in itertools.islice(ctx.alphabet.words(5), 0, None, 7):
                got = segment_balance(ctx, float_boundary(beta), x, z_table(ctx))
                assert isinstance(got, float)
                assert got.hex() == float(segment_balance(all_float, beta, x)).hex(), (kind, x)


class TestProduct2d:
    @pytest.mark.parametrize("seed", range(4))
    def test_float_square_rates_with_a_fraction_marginal(self, seed):
        rng = random.Random(seed)
        alphabet = Alphabet(2)
        patterns = list(alphabet.words(4))
        squares = [flip_2d(4.0, 1.0).square, pair_flip_2d(1.5, 1.5).square,
                   JumpRateMatrix(alphabet, 4, {tuple(rng.sample(patterns, 2)): rng.random()
                                                for _ in range(5)})]
        rhos = [[F(2, 3), F(1, 3)], random_marginal(rng, 2)]
        for T2, rho in itertools.product(squares, rhos):
            ctx = product_context(T2, rho)
            assert_float_table(ctx)
            assert _Partials(z_table(ctx).values, rho).array(((0, 0),)).dtype == np.float64
            report = check_product_2d(T2, rho)
            assert fields(report) == fields(check_product_2d(T2, [float(p) for p in rho]))
        assert check_product_2d(squares[0], rhos[0]).invariant
