"""The array `Z` table, the line and segment scans over it and the segment
boundary blocks, against the per-word references of `z_reference`: equal
exact values, word counts and witnesses, and floats equal bit for bit,
including exact zeros that float arithmetic leaves untouched (they render as
"0", not "0.0")."""
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from psinv import criteria
from psinv.core import Alphabet, BoundaryRates, JumpRateMatrix, MarkovKernel
from psinv.criteria import (check_markov_line, cycle_balance, markov_context,
                            tail_bounds_advisory, z_table)
from psinv.segment import _segment_balances, check_segment, construct_boundaries, segment_balance

from z_reference import (cyclic_window_sum, floated, fraction_segment_balances, instances,
                         invariant_instance,
                         perturbed_instance, pinned, pinned_witness,
                         reference_anchor_scan, reference_certificate_check,
                         reference_potential, reference_segment_balance,
                         reference_segment_balances, reference_segment_scan,
                         reference_z_values)

F = Fraction
# kappa^(2m+L) above this is left out for time
MAX_TABLE = 4 ** 6


def shapes():
    for kappa, memory, range_ in itertools.product((2, 3, 4), range(3), range(1, 4)):
        if kappa ** (2 * memory + range_) <= MAX_TABLE:
            yield kappa, memory, range_


def pinned_table(values):
    return {w: pinned(v) for w, v in values.items()}


def line_fields(ctx):
    report = check_markov_line(ctx)
    certificate = report.certificate and pinned_table(report.certificate.values)
    return report.invariant, report.words_checked, pinned_witness(report.witness), certificate


def reference_line_fields(ctx):
    values = reference_z_values(ctx)
    count, witness = reference_anchor_scan(ctx, values)
    certificate = None
    if witness is None:
        potential = reference_potential(ctx, values)
        assert reference_certificate_check(ctx, values, potential)
        certificate = pinned_table(potential)
    return witness is None, count, pinned_witness(witness), certificate


class TestTable:
    @pytest.mark.parametrize("kappa,memory,range_", list(shapes()))
    def test_values_match_the_dict_table(self, kappa, memory, range_):
        for label, ctx in instances(31, kappa, memory, range_, mixed=True):
            values = z_table(ctx).values
            assert len(values) == kappa ** (2 * memory + range_)
            assert pinned_table(values) == pinned_table(reference_z_values(ctx)), label

    def test_untouched_windows_stay_exact_zeros_in_floats(self):
        # TASEP moves 10 -> 01 only: nothing jumps into or out of 00 and 11
        T = JumpRateMatrix(Alphabet(2), 2, {((1, 0), (0, 1)): 1.0})
        values = z_table(criteria.product_context(T, [0.25, 0.75])).values
        assert pinned(values[(0, 0)]) == ("Fraction", 0)
        assert isinstance(values[(1, 0)], float)

    def test_float_rates_under_an_exact_law(self):
        rng = random.Random(32)
        T, kernel = perturbed_instance(rng, 3, 1, 2)
        ctx = markov_context(floated(T, kernel)[0], kernel)
        assert pinned_table(z_table(ctx).values) == pinned_table(reference_z_values(ctx))

    def test_one_word_cycle_balance(self):
        for label, ctx in instances(33, 3, 1, 2, mixed=True):
            values = reference_z_values(ctx)
            for x in itertools.islice(ctx.alphabet.words(5), 0, None, 7):
                expected = cyclic_window_sum(values, ctx.window_length, x)
                assert float(cycle_balance(ctx, x)).hex() == float(expected).hex(), label
                if ctx.scalar_context.exact:
                    assert cycle_balance(ctx, x) == expected

    def test_tail_bounds(self):
        for label, ctx in instances(34, 3, 1, 2, mixed=True):
            inflow = reference_z_values(ctx, start=F(0))
            bounds = tail_bounds_advisory(ctx)
            assert pinned(bounds["sup_weighted_inflow"]) == \
                pinned(max(F(0), *inflow.values())), label


class TestAnchorScan:
    @pytest.mark.parametrize("kappa,memory,range_", list(shapes()))
    def test_matches_per_word_scan(self, kappa, memory, range_):
        for label, ctx in instances(41, kappa, memory, range_, mixed=True):
            assert line_fields(ctx) == reference_line_fields(ctx), label

    def test_block_boundaries_do_not_matter(self, monkeypatch):
        rng = random.Random(42)
        cases = []
        for kappa, memory in ((2, 1), (3, 1), (2, 2)):
            T, kernel = perturbed_instance(rng, kappa, memory, 2)
            cases += [markov_context(T, kernel), markov_context(*floated(T, kernel))]
            cases.append(markov_context(*invariant_instance(rng, kappa, memory, 2)))
        for ctx in cases:
            expected = reference_line_fields(ctx)
            for t in range(ctx.window_length + 1):
                monkeypatch.setattr(criteria, "SCAN_BLOCK", 2 ** t)
                assert line_fields(ctx) == expected, t


def random_boundary(rng, kappa):
    alphabet = Alphabet(kappa)
    moves = [((a,), (b,)) for a in alphabet.letters for b in alphabet.letters if a != b]

    def side():
        return JumpRateMatrix(alphabet, 1, {move: F(rng.randint(0, 5), rng.randint(1, 5))
                                            for move in rng.sample(moves, 2)})
    return BoundaryRates(side(), side())


def floated_boundary(beta):
    return BoundaryRates(*(JumpRateMatrix(side.alphabet, 1, {(u, v): float(rate)
                                                             for u, v, rate in side.entries()})
                           for side in (beta.left, beta.right)))


def segment_cases(seed, kappa):
    """(label, context, boundary rates): a line-invariant law with the
    validated source-weighted boundaries and a perturbed law with random
    ones, each exact, in floats, and with exact rates under the float law."""
    rng = random.Random(f"{seed}-{kappa}")
    for kind, draw in (("invariant", invariant_instance), ("perturbed", perturbed_instance)):
        T, kernel = draw(rng, kappa, 1, 2)
        ctx = markov_context(T, kernel)
        if kind == "invariant":
            beta = construct_boundaries(ctx, variant="source-weighted").boundary
        else:
            beta = random_boundary(rng, kappa)
        float_T, float_kernel = floated(T, kernel)
        yield f"{kind}/exact", ctx, beta
        yield f"{kind}/float", markov_context(float_T, float_kernel), floated_boundary(beta)
        yield f"{kind}/exact-rates-float-law", markov_context(T, float_kernel), beta


def segment_fields(ctx, beta, n):
    report = check_segment(ctx, beta, n)
    return report.invariant, report.words_checked, pinned_witness(report.witness)


def reference_segment_fields(ctx, beta, n):
    count, witness = reference_segment_scan(ctx, beta, n, reference_z_values(ctx))
    return witness is None, count, pinned_witness(witness)


class TestSegmentScan:
    @pytest.mark.parametrize("kappa,sizes", [(2, range(3, 10)), (3, range(3, 7)),
                                             (4, range(3, 5))])
    def test_matches_per_word_scan(self, kappa, sizes):
        invariant_seen = 0
        for label, ctx, beta in segment_cases(51, kappa):
            for n in sizes:
                expected = reference_segment_fields(ctx, beta, n)
                assert segment_fields(ctx, beta, n) == expected, (label, n)
                invariant_seen += expected[0]
        assert invariant_seen

    def test_one_word_balance(self):
        for label, ctx, beta in segment_cases(52, 3):
            values = reference_z_values(ctx)
            for x in itertools.islice(ctx.alphabet.words(5), 0, None, 13):
                expected = reference_segment_balance(ctx, beta, x, values)
                got = segment_balance(ctx, beta, x)
                assert float(got).hex() == float(expected).hex(), (label, x)
                if ctx.scalar_context.exact:
                    assert got == expected

    def test_block_boundaries_do_not_matter(self, monkeypatch):
        for label, ctx, beta in segment_cases(53, 2):
            for n in (3, 7):
                expected = reference_segment_fields(ctx, beta, n)
                for t in range(n + 2):
                    monkeypatch.setattr(criteria, "SCAN_BLOCK", 2 ** t)
                    assert segment_fields(ctx, beta, n) == expected, (label, n, t)


def block_cases(seed, kappa):
    """segment_cases, plus exact contexts under float boundary rates and
    under boundary rates with a zero side, and T = 0 exact and in floats
    under random and zero boundary rates."""
    rng = random.Random(f"{seed}-{kappa}-blocks")
    for label, ctx, beta in segment_cases(seed, kappa):
        yield label, ctx, beta
        if ctx.scalar_context.exact:
            yield f"{label}/float-boundary", ctx, floated_boundary(beta)
            yield f"{label}/zero-right", ctx, BoundaryRates(
                beta.left, JumpRateMatrix(ctx.alphabet, 1, {}))
    _, kernel = perturbed_instance(rng, kappa, 1, 2)
    zero = JumpRateMatrix(Alphabet(kappa), 2, {})
    for label, law in (("exact", kernel), ("float", floated(zero, kernel)[1])):
        ctx = markov_context(zero, law)
        yield f"zero-T/{label}", ctx, random_boundary(rng, kappa)
        yield f"zero-T/{label}/zero-boundary", ctx, BoundaryRates.zero(Alphabet(kappa), 1)


class TestSegmentBlocks:
    @staticmethod
    def assert_same_balances(kappa, seed, sizes, reference_balances):
        for label, ctx, beta in block_cases(seed, kappa):
            for n in sizes:
                decided, balances, den = _segment_balances(ctx, beta, n)
                reference, expected, expected_den = reference_balances(ctx, beta, n)
                assert decided.scalar_context.exact == reference.scalar_context.exact
                assert den == expected_den, (label, n)
                columns = criteria._letters(kappa, n)
                got, want = balances(columns, kappa ** n), expected(columns, kappa ** n)
                assert got.dtype == want.dtype, (label, n)
                if den is None:  # bit for bit: equal .hex()
                    assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (label, n)
                else:
                    assert np.array_equal(got, want), (label, n)

    @pytest.mark.parametrize("kappa", [2, 3, 4])
    def test_every_balance_matches_the_per_word_blocks(self, kappa):
        self.assert_same_balances(kappa, 54, range(3, 9), reference_segment_balances)

    @pytest.mark.parametrize("kappa", [2, 3])
    def test_coded_rates_match_the_fraction_rates(self, kappa):
        self.assert_same_balances(kappa, 56, (3, 4, 7), fraction_segment_balances)

    def test_makes_no_word_weight_call(self, monkeypatch):
        cases = list(block_cases(55, 3))

        def word_weight(*args, **kwargs):
            raise AssertionError("per-word chain weight")

        monkeypatch.setattr(MarkovKernel, "word_weight", word_weight)
        for label, ctx, beta in cases:
            decided, balances, den = _segment_balances(ctx, beta, 5)
            assert balances((0,) * 5, 1).size == 1, label
