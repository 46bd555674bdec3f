"""Both integer paths of the exact deciders give the same answers.

Exact tables (Z, the segment blocks, the 2D partials and every sum over
them) are int64 when an a-priori bound stays below `scalars.INT64_LIMIT`
and Python ints otherwise.  Each decider runs on seeded exact instances
(kappa 2-4, memory 0-2, range 1-3, rationals of 1 and 7 digits) once with
the limit at its value and once patched to 0, which sends every table to
Python ints: verdicts, witnesses, word counts, certificate numerators and
denominators must be equal.  The limit is also patched exactly at the bound
of a table's build (Python ints) and one above it (int64), and one instance
is drawn with a build bound just under the real limit, so that an
off-by-one or an int64 wraparound in the build shows as a changed answer.
"""
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from psinv import scalars
from psinv.core import Alphabet, BoundaryRates, JumpRateMatrix, MarkovKernel
from psinv.criteria import (_chain_weights, _summable, check_markov_cycle, check_markov_line,
                            equivalence_panel, markov_context, potential_from_table, z_table)
from psinv.lattice2d import _Partials, check_product_2d, square_context
from psinv.segment import check_segment, construct_boundaries

from z_reference import invariant_instance, perturbed_instance

# scans of more words than this are left out for time
MAX_WORDS = 3 ** 7


def draw(rng, digits):
    """A positive rational with numerator and denominator of `digits` digits."""
    low, high = 10 ** (digits - 1), 10 ** digits - 1
    return Fraction(rng.randint(low, high), rng.randint(low, high))


def distribution(rng, kappa, digits):
    raw = [draw(rng, digits) for _ in range(kappa)]
    return [p / sum(raw) for p in raw]


def balanced_instance(rng, kappa, memory, range_, digits):
    """Rates in detailed balance with a product law of `digits`-digit
    weights (Z = 0), the law as a memory-m kernel whose rows are its
    marginal."""
    alphabet, rho = Alphabet(kappa), distribution(rng, kappa, digits)
    words, rates = list(alphabet.words(range_)), {}
    for _ in range(kappa):
        u, v = rng.sample(words, 2)
        c = draw(rng, digits)
        for a, b in ((u, v), (v, u)):
            rates[(a, b)] = rates.get((a, b), 0) + c * math.prod(rho[x] for x in b)
    kernel = MarkovKernel(alphabet, memory, {(c, y): rho[y] for c in alphabet.words(memory)
                                             for y in alphabet.letters})
    return JumpRateMatrix(alphabet, range_, rates), kernel


def unbalanced_instance(rng, kappa, memory, range_, digits):
    """A balanced table with one more move of `digits` digits, under a
    random kernel of `digits`-digit rows."""
    T, _ = balanced_instance(rng, kappa, memory, range_, digits)
    u, v = rng.sample(list(T.alphabet.words(range_)), 2)
    kernel = MarkovKernel(T.alphabet, memory, {
        (c, y): p for c in T.alphabet.words(memory)
        for y, p in enumerate(distribution(rng, kappa, digits))})
    return T.plus(JumpRateMatrix(T.alphabet, range_, {(u, v): draw(rng, digits)})), kernel


def instances(kappa, memory, range_):
    """(label, T, kernel): seeded exact instances with 1- and 7-digit rationals."""
    rng = random.Random(f"int-paths-{kappa}-{memory}-{range_}")
    yield "invariant/1", *invariant_instance(rng, kappa, memory, range_)
    yield "perturbed/1", *perturbed_instance(rng, kappa, memory, range_)
    for digits in (1, 7):
        yield f"balanced/{digits}", *balanced_instance(rng, kappa, memory, range_, digits)
        yield f"unbalanced/{digits}", *unbalanced_instance(rng, kappa, memory, range_, digits)


def shapes():
    for kappa, memory, range_ in itertools.product((2, 3, 4), range(3), range(1, 4)):
        if kappa ** (2 * memory + range_) <= 4 ** 4:
            yield kappa, memory, range_


def fields(report):
    certificate = report.certificate and report.certificate.values
    return (report.invariant, report.criterion, report.witness, report.words_checked,
            report.details, certificate and (certificate.entries.tolist(), certificate.den))


def build_bound(ctx):
    """The bound that fixes the integer type of Z's build: the largest step
    numerator to the power s - m, times the larger of the rates' common
    denominator and their largest exit plus their sum, over it."""
    rates = [rate for _, _, rate in ctx.T.entries()]
    den = math.lcm(*(rate.denominator for rate in rates))
    exits = {}
    for u, _, rate in ctx.T.entries():
        exits[u] = exits.get(u, 0) + rate
    reach = (max(exits.values(), default=0) + sum(rates)) * den
    return max(ctx.kernel.integer_steps[0]) ** (ctx.window_length - ctx.memory) * max(den, reach)


def line_outcomes(T, kernel):
    """Every line and cycle decider on a new context (Z is built under the
    current limit), with the dtype of Z."""
    ctx = markov_context(T, kernel)
    kappa, m, L = T.alphabet.kappa, kernel.memory, T.range_
    out = [fields(check_markov_line(ctx))]
    for n in range(max(1, m + L - 1), m + L + 2):
        if kappa ** n <= MAX_WORDS:
            out.append(fields(check_markov_cycle(ctx, n)))
    if kappa ** ctx.critical_length <= MAX_WORDS:
        out.append(equivalence_panel(ctx))
    return out, z_table(ctx).values.entries.dtype


def outcomes_at(monkeypatch, limit, run, *args):
    """run(*args) with the limit patched."""
    with monkeypatch.context() as patch:
        patch.setattr(scalars, "INT64_LIMIT", limit)
        return run(*args)


class TestLineAndCycles:
    @pytest.mark.parametrize("kappa,memory,range_", list(shapes()))
    def test_int64_and_python_ints_agree(self, monkeypatch, kappa, memory, range_):
        dtypes = set()
        for label, T, kernel in instances(kappa, memory, range_):
            expected, dtype = line_outcomes(T, kernel)
            wide, wide_dtype = outcomes_at(monkeypatch, 0, line_outcomes, T, kernel)
            assert wide == expected, label
            assert wide_dtype == object
            dtypes.add((label.split("/")[1], dtype))
        # 1-digit tables are built on int64 (a few reach the bound of the
        # reduction to one denominator), 7-digit tables on Python ints
        assert ("1", np.dtype(np.int64)) in dtypes and ("7", np.dtype(object)) in dtypes

    @pytest.mark.parametrize("kappa,memory,range_", [(2, 1, 2), (3, 0, 2), (2, 0, 3), (3, 1, 1)])
    def test_limit_at_the_bound_and_one_above(self, monkeypatch, kappa, memory, range_):
        def chain_dtype(T, kernel):
            ctx = markov_context(T, kernel)
            factor = max(ctx.T.coded.den, ctx.T.coded.reach)
            return _chain_weights(ctx, ctx.window_length, factor=factor).dtype

        for label, T, kernel in instances(kappa, memory, range_):
            bound = build_bound(markov_context(T, kernel))
            if bound >= scalars.INT64_LIMIT:  # int64 holds no more
                continue
            expected, _ = line_outcomes(T, kernel)
            for limit, dtype in ((bound, object), (bound + 1, np.int64)):
                assert outcomes_at(monkeypatch, limit, chain_dtype, T, kernel) == dtype, label
                assert outcomes_at(monkeypatch, limit, line_outcomes, T, kernel)[0] == expected

    def test_tops_bound_their_tables(self):
        # the bounds Z and its potential carry for their sums
        for shape in ((2, 1, 2), (3, 0, 2), (2, 2, 1), (3, 1, 1), (2, 0, 3)):
            for label, T, kernel in instances(*shape):
                table = z_table(markov_context(T, kernel))
                potential = potential_from_table(table).values
                for values in (table.values, potential):
                    assert values.top >= max(abs(v) for v in values.entries.tolist()), label
                if table.values.entries.dtype == np.int64:  # the build's bound
                    assert potential.top == table.values.top * (table.values.length - 1)

    def test_sums_widen_above_an_int64_table(self, monkeypatch):
        # a limit above the build's bound and twice the table's: Z stays
        # int64, and a sum of h = 2s - 1 entries widens where h x top reaches it
        widened = 0
        for shape in ((2, 1, 2), (3, 0, 2), (2, 2, 1), (3, 1, 1)):
            for label, T, kernel in instances(*shape):
                ctx = markov_context(T, kernel)
                limit = max(build_bound(ctx) + 1, 2 * z_table(ctx).values.top)
                if limit >= scalars.INT64_LIMIT or not z_table(ctx).values.top:
                    continue
                expected, _ = line_outcomes(T, kernel)

                def anchor_dtypes():
                    values = z_table(markov_context(T, kernel)).values
                    h = 2 * values.length - 1
                    return values.entries.dtype, _summable(values, h).dtype

                assert outcomes_at(monkeypatch, limit, line_outcomes, T, kernel)[0] == expected
                dtypes = outcomes_at(monkeypatch, limit, anchor_dtypes)
                assert dtypes[0] == np.int64, (shape, label)
                widened += dtypes[1] == object
        assert widened

    @pytest.mark.parametrize("range_", [1, 2, 3])
    def test_build_just_under_the_limit(self, monkeypatch, range_):
        T, kernel = near_limit_instance(range_)
        ctx = markov_context(T, kernel)
        assert 2 ** 60 <= build_bound(ctx) < scalars.INT64_LIMIT
        factor = max(T.coded.den, T.coded.reach)
        assert _chain_weights(ctx, ctx.window_length, factor=factor).dtype == np.int64
        values = z_table(ctx).values
        expected, _ = line_outcomes(T, kernel)
        assert outcomes_at(monkeypatch, 0, line_outcomes, T, kernel)[0] == expected
        assert not expected[0][0]
        wide = outcomes_at(monkeypatch, 0, lambda: z_table(markov_context(T, kernel)).values)
        assert (values.entries.tolist(), values.den) == (wide.entries.tolist(), wide.den)


def near_limit_instance(range_):
    """kappa 2, memory 0: a marginal over q = 2^(21 // L) + 1 whose larger
    numerator is `top` = q // 2 + 1, and the moves 0^L -> 1^L at rate 3/D and back at 5/D,
    D odd with top^L * D just under 2^62.  D exceeds the rates' reach, so
    the build's D * P(1^L) (or P(0^L)) attains the bound."""
    q = 2 ** (21 // range_) + 1
    rho = [Fraction(q // 2 + 1, q), Fraction(q - q // 2 - 1, q)]
    top = max(p.numerator for p in rho)
    d = ((2 ** 62 - 1) // top ** range_ - 1) | 1
    alphabet = Alphabet(2)
    zeros, ones = (0,) * range_, (1,) * range_
    T = JumpRateMatrix(alphabet, range_, {(zeros, ones): Fraction(3, d),
                                          (ones, zeros): Fraction(5, d)})
    return T, MarkovKernel(alphabet, 0, {((), a): p for a, p in enumerate(rho)})


def random_boundary(rng, kappa, digits):
    moves = [((a,), (b,)) for a in range(kappa) for b in range(kappa) if a != b]

    def side():
        return JumpRateMatrix(Alphabet(kappa), 1, {move: draw(rng, digits)
                                                   for move in rng.sample(moves, 2)})
    return BoundaryRates(side(), side())


def segment_outcomes(T, kernel, beta, sizes):
    """check_segment at each size, and both boundary constructions when the
    law is invariant on the line, on a new context."""
    ctx = markov_context(T, kernel)
    out = [fields(check_segment(ctx, beta, n)) for n in sizes]
    if check_markov_line(ctx).invariant:
        for variant in ("target-weighted", "source-weighted"):
            built = construct_boundaries(ctx, variant)
            out.append((list(built.boundary.left.entries()), list(built.boundary.right.entries()),
                        fields(built.validation)))
    return out


class TestSegments:
    @pytest.mark.parametrize("kappa", [2, 3, 4])
    def test_int64_and_python_ints_agree(self, monkeypatch, kappa):
        rng = random.Random(f"int-paths-segment-{kappa}")
        sizes = (3, 7) if kappa < 4 else (3, 4)
        constructed = 0
        for label, T, kernel in instances(kappa, 1, 2):
            digits = int(label.split("/")[1])
            for beta in (random_boundary(rng, kappa, digits),
                         BoundaryRates.zero(Alphabet(kappa), 1)):
                expected = segment_outcomes(T, kernel, beta, sizes)
                assert outcomes_at(monkeypatch, 0, segment_outcomes, T, kernel, beta,
                                   sizes) == expected, label
                constructed += len(expected) > len(sizes)
        assert constructed


def square_instances(kappa):
    """(label, T2, rho): squares in detailed balance with a product law of
    1- and 7-digit weights, and the same with one more move."""
    rng = random.Random(f"int-paths-square-{kappa}")
    words = list(Alphabet(kappa).words(4))
    for digits in (1, 7):
        rho, rates = distribution(rng, kappa, digits), {}
        for _ in range(3):
            u, v = rng.sample(words, 2)
            c = draw(rng, digits)
            for a, b in ((u, v), (v, u)):
                rates[(a, b)] = rates.get((a, b), 0) + c * math.prod(rho[x] for x in b)
        T2 = JumpRateMatrix(Alphabet(kappa), 4, rates)
        yield f"balanced/{digits}", T2, rho
        u, v = rng.sample(words, 2)
        yield f"unbalanced/{digits}", T2.plus(JumpRateMatrix(Alphabet(kappa), 4, {
            (u, v): draw(rng, digits)})), rho


class TestSquares:
    @pytest.mark.parametrize("kappa", [2, 3])
    def test_int64_and_python_ints_agree(self, monkeypatch, kappa):
        verdicts = set()
        for label, T2, rho in square_instances(kappa):
            expected = fields(check_product_2d(T2, rho))
            assert outcomes_at(monkeypatch, 0, lambda: fields(check_product_2d(T2, rho))) == \
                expected, label
            verdicts.add(expected[0])
            # 1-digit partials are int64, 7-digit ones Python ints
            grid = _Partials(square_context(T2, rho)).grid
            assert grid.dtype == (np.int64 if label.endswith("/1") else object), label
        assert verdicts == {True, False}
