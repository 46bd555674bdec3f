import itertools
from fractions import Fraction

import pytest

from psinv import criteria
from psinv.core import Alphabet, JumpRateMatrix, MarkovKernel
from psinv.criteria import CriterionReport, markov_context, product_context, z_table
from psinv.lattice2d import (GAMMA0, GAMMA1, GAMMA2, SQUARE_CELLS, Shape,
                             bold_z_partial, check_bold_z_sufficient,
                             check_multinomial_preservation,
                             check_product_2d, check_product_2d_incremental,
                             growth_difference, hypercube, line_balance_2d, square_context,
                             truncated_poisson, _anchors_meeting, _growth_plan, _line_terms,
                             _Partials)
from psinv.oracle import TorusSpace, build_generator, product_measure, stationarity_residual
from psinv.models import (ball_cycle_2d, ball_move_2d, catalog, flip_2d, pair_flip_2d,
                          rotation_2d, three_colour_flip_2d, urn_shift_2d)

F = Fraction


def bold_z_table(T2, rho):
    """boldZ of a square dynamics: the Z table of its square context."""
    return z_table(square_context(T2, rho)).values


def bold_z(T2, rho, pattern):
    return bold_z_table(T2, rho)[tuple(pattern)]


def random_square(rng, kappa=2, entries=3):
    alphabet = Alphabet(kappa)
    words = list(alphabet.words(4))
    pairs = [(u, v) for u in words for v in words if u != v]
    chosen = rng.sample(pairs, entries)
    return JumpRateMatrix(alphabet, 4, {key: F(rng.randint(1, 9), rng.randint(1, 9))
                                        for key in chosen})


def balanced_square(rng, rho, kappa, pairs=3):
    """Pairs u <-> v with rates c rho(v) and c rho(u) (products over the
    four cells): detailed balance, so the product law rho is invariant."""
    words = list(Alphabet(kappa).words(4))
    rates = {}
    for _ in range(pairs):
        u, v = rng.sample(words, 2)
        c = F(rng.randint(1, 9), rng.randint(1, 9))
        rates[(u, v)] = c * _weight(rho, v)
        rates[(v, u)] = c * _weight(rho, u)
    return JumpRateMatrix(Alphabet(kappa), 4, rates)


def diagonal_swap(rng, kappa):
    """One move that swaps the letters of the cells (0,1) and (1,0)."""
    while True:
        u = tuple(rng.randrange(kappa) for _ in range(4))
        if u[1] != u[2]:
            v = (u[0], u[2], u[1], u[3])
            return JumpRateMatrix(Alphabet(kappa), 4, {(u, v): F(rng.randint(1, 9), 4)})


def _weight(rho, pattern):
    out = F(1)
    for a in pattern:
        out *= rho[a]
    return out


def reference_check_product_2d(T2, rho):
    """check_product_2d with condition (b) as the whole balance of the
    five-cell shape minus the whole balance of the four-cell hook, all on
    one context."""
    ctx = square_context(T2, rho)
    corners, witness = ctx.first_nonzero(
        T2.alphabet.words(3), lambda x: line_balance_2d(ctx, GAMMA0, x))
    if witness is not None:
        return CriterionReport(False, "corner-balance", witness=witness, words_checked=corners)

    def addition(x):
        letters = dict(zip(GAMMA2.cells, x))
        hook = tuple(letters[c] for c in GAMMA1.cells)
        return line_balance_2d(ctx, GAMMA2, x) - line_balance_2d(ctx, GAMMA1, hook)

    count, witness = ctx.first_nonzero(T2.alphabet.words(5), addition)
    if witness is not None:
        return CriterionReport(False, "cell-addition-balance", witness=witness,
                               words_checked=corners + count)
    return CriterionReport(True, "corner-and-addition", words_checked=corners + count)


def row_tasep_square():
    """Top-row exclusion: invariant products exist although the square
    balance table does not vanish."""
    rates = {}
    for w in (0, 1):
        for z in (0, 1):
            rates[((1, 0, w, z), (0, 1, w, z))] = F(1)
    return JumpRateMatrix(Alphabet(2), 4, rates)


class TestBoldZ:
    def test_zero_dynamics(self):
        T2 = JumpRateMatrix(Alphabet(2), 4, {})
        assert all(v == 0 for v in bold_z_table(T2, [F(1, 2), F(1, 2)]).values())

    def test_flip_model_balanced_at_half(self):
        T2 = flip_2d(1).square
        assert bold_z(T2, [F(1, 2), F(1, 2)], (0, 0, 0, 1)) == 0

    def test_flip_model_density_root(self):
        # the balance polynomial a p^2 - p^2 + 2p - 1 has root p = 1/(sqrt(a)+1)
        a, p = F(4), F(1, 3)
        assert a * p ** 2 - p ** 2 + 2 * p - 1 == 0
        T2 = flip_2d(a).square
        table = bold_z_table(T2, [1 - p, p])
        assert all(v == 0 for v in table.values())

    def test_full_support_required(self):
        with pytest.raises(ValueError, match="full support"):
            square_context(flip_2d(1).square, [F(1), F(0)])

    def test_square_patterns_required(self):
        line = JumpRateMatrix(Alphabet(2), 2, {((1, 0), (0, 1)): 1})
        with pytest.raises(ValueError, match="length 4"):
            check_product_2d(line, [F(1, 2), F(1, 2)])


def reference_bold_z_table(T2, rho):
    """boldZ term by term: -T_out(x), then rate * prod rho(y) / prod rho(x)
    for each move y -> x, in entry order (the float rounding is pinned)."""
    table = {x: -T2.out_rate(x) for x in T2.alphabet.words(4)}
    for y, x, rate in T2.entries():
        num = F(1)
        for a in y:
            num *= rho[a]
        den = F(1)
        for a in x:
            den *= rho[a]
        table[x] += rate * num / den
    return table


HALF = [F(1, 2), F(1, 2)]
CATALOG_SQUARES = [
    ("flip_2d", flip_2d(4), [F(2, 3), F(1, 3)]),
    ("pair_flip_2d", pair_flip_2d(1, 2), HALF),
    ("rotation_2d", rotation_2d(1, 1, 1, 1), [F(1, 3), F(2, 3)]),
    ("three_colour_flip_2d", three_colour_flip_2d(1, 1, 1), [F(1, 3)] * 3),
    ("ball_move_2d", ball_move_2d(2), HALF),
    ("ball_cycle_2d", ball_cycle_2d(2), HALF),
    ("urn_shift_2d", urn_shift_2d(2), [F(1, 3), F(2, 3)]),
]


class TestBoldZReference:
    def test_every_catalog_square_is_listed(self):
        squares = {name for name in catalog() if name.endswith("_2d")}
        assert {name for name, _, _ in CATALOG_SQUARES} == squares

    @pytest.mark.parametrize("name,spec,rho", CATALOG_SQUARES,
                             ids=[c[0] for c in CATALOG_SQUARES])
    def test_exact_table_matches_reference(self, name, spec, rho):
        assert bold_z_table(spec.square, rho) == reference_bold_z_table(spec.square, rho)

    @pytest.mark.parametrize("name,spec,rho", CATALOG_SQUARES,
                             ids=[c[0] for c in CATALOG_SQUARES])
    def test_float_table_matches_reference_bit_for_bit(self, name, spec, rho):
        T2 = JumpRateMatrix(spec.square.alphabet, 4,
                            {(src, dst): float(rate) for src, dst, rate in spec.square.entries()})
        rho = [float(p) for p in rho]
        got = bold_z_table(T2, rho)
        expected = reference_bold_z_table(T2, rho)
        assert got.keys() == expected.keys()
        assert {x: float(v).hex() for x, v in got.items()} == \
            {x: float(v).hex() for x, v in expected.items()}

    def test_marginal_must_sum_to_one(self):
        with pytest.raises(ValueError):
            check_product_2d(flip_2d(4).square, [F(1, 2), F(1, 3)])


class TestBoldZPartial:
    def test_full_overlap_is_bold_z(self, rng):
        T2 = random_square(rng)
        ctx = square_context(T2, [F(1, 3), F(2, 3)])
        table = z_table(ctx).values
        for pattern in Alphabet(2).words(4):
            overlap = dict(zip(SQUARE_CELLS, pattern))
            assert bold_z_partial(ctx, overlap) == table[pattern]

    def test_zero_dynamics(self):
        T2 = JumpRateMatrix(Alphabet(2), 4, {})
        assert bold_z_partial(square_context(T2, [F(1, 2), F(1, 2)]), {(0, 0): 1}) == 0

    def test_single_cell_matches_brute_force(self, rng):
        T2 = random_square(rng)
        rho = [F(1, 4), F(3, 4)]
        ctx = square_context(T2, rho)
        table = z_table(ctx).values
        for cell in SQUARE_CELLS:
            for letter in (0, 1):
                expected = F(0)
                free = [c for c in SQUARE_CELLS if c != cell]
                for letters in itertools.product((0, 1), repeat=3):
                    w = dict(zip(free, letters))
                    w[cell] = letter
                    pattern = tuple(w[c] for c in SQUARE_CELLS)
                    weight = F(1)
                    for c in free:
                        weight *= rho[w[c]]
                    expected += table[pattern] * weight
                assert bold_z_partial(ctx, {cell: letter}) == expected


class TestLettersOutsideTheAlphabet:
    # a letter outside the alphabet has another pattern's code
    RHO = [F(1, 2), F(1, 2)]

    def test_bold_z_table_has_no_entry(self):
        table = bold_z_table(flip_2d(4).square, self.RHO)
        assert (0, 0, 0, 2) not in table and (0, 0, 0, -1) not in table

    @pytest.mark.parametrize("letter", [2, -1])
    def test_balances_reject(self, letter):
        ctx = square_context(flip_2d(4).square, self.RHO)
        with pytest.raises(ValueError, match="leaves the alphabet"):
            line_balance_2d(ctx, GAMMA0, (0, 1, letter))
        with pytest.raises(ValueError, match="leaves the alphabet"):
            bold_z_partial(ctx, {(0, 0): letter})
        with pytest.raises(ValueError, match="leaves the alphabet"):
            growth_difference(ctx, GAMMA1, (1, 1), (0, 0, 1, letter, 0))


class TestLineBalance2D:
    def test_zero_dynamics(self):
        ctx = square_context(JumpRateMatrix(Alphabet(2), 4, {}), [F(1, 2), F(1, 2)])
        for x in Alphabet(2).words(3):
            assert line_balance_2d(ctx, GAMMA0, x) == 0

    def test_corner_shape_has_eight_squares(self):
        assert len(_anchors_meeting(GAMMA0)) == 8

    def test_invariant_model_kills_all_subshapes(self):
        ctx = square_context(flip_2d(4).square, [F(2, 3), F(1, 3)])
        for size in range(1, len(GAMMA2) + 1):
            for cells in itertools.combinations(GAMMA2.cells, size):
                shape = Shape(cells)
                for x in Alphabet(2).words(size):
                    assert line_balance_2d(ctx, shape, x) == 0

    def test_growth_difference_matches_balances(self, rng):
        # adding one cell changes the balance by the four-square difference
        block = hypercube(3)
        for _ in range(6):
            ctx = square_context(random_square(rng), [F(1, 3), F(2, 3)])
            cells = tuple(rng.sample(block.cells, rng.randint(1, 4)))
            shape = Shape(cells)
            outside = [c for c in block.cells if c not in shape]
            cell = rng.choice(outside)
            grown = Shape(cells + (cell,))
            for x in Alphabet(2).words(len(grown)):
                restriction = tuple(dict(zip(grown.cells, x))[c] for c in shape.cells)
                direct = line_balance_2d(ctx, grown, x) - line_balance_2d(ctx, shape, restriction)
                assert growth_difference(ctx, shape, cell, x) == direct


class TestOneTablePerContext:
    """A square context builds boldZ once: the decider's scans and every
    partial, balance and growth difference on it read that one table."""

    @pytest.fixture
    def built(self, monkeypatch):
        real, contexts = criteria._balance_table, []

        def spy(ctx, *args, **kwargs):
            contexts.append(ctx)
            return real(ctx, *args, **kwargs)

        monkeypatch.setattr(criteria, "_balance_table", spy)
        return contexts

    def test_one_build(self, built):
        ctx = square_context(flip_2d(4).square, [F(2, 3), F(1, 3)])
        partials = _Partials(ctx)
        assert partials.scan(_line_terms(GAMMA0), len(GAMMA0)) == (8, None)
        assert partials.scan(_growth_plan(GAMMA1, (1, 1)), len(GAMMA2)) == (32, None)
        for x in Alphabet(2).words(len(GAMMA2)):
            assert bold_z_partial(ctx, dict(zip(SQUARE_CELLS, x))) == z_table(ctx).values[x[:4]]
            assert line_balance_2d(ctx, GAMMA2, x) == 0
            assert growth_difference(ctx, GAMMA1, (1, 1), x) == 0
        assert built == [ctx]
        assert check_product_2d(ctx.T, [F(2, 3), F(1, 3)]).invariant
        assert len(built) == 2 and built[1] is not ctx

    def test_other_contexts_rejected(self):
        # a line table, and a memory-1 law on square rates (no marginal)
        line, square = (JumpRateMatrix(Alphabet(2), L, {}) for L in (2, 4))
        for ctx in (product_context(line, [F(1, 2), F(1, 2)]),
                    markov_context(square, MarkovKernel.from_matrix([[F(1, 2)] * 2] * 2))):
            with pytest.raises(ValueError, match="square_context"):
                line_balance_2d(ctx, GAMMA0, (0, 0, 1))


class TestCheckProduct2D:
    def test_flip_model_root_invariant(self):
        report = check_product_2d(flip_2d(4).square, [F(2, 3), F(1, 3)])
        assert report.invariant

    def test_flip_model_other_density_not(self):
        report = check_product_2d(flip_2d(4).square, [F(1, 2), F(1, 2)])
        assert not report.invariant

    def test_pair_flip_all_or_nothing(self):
        assert check_product_2d(pair_flip_2d(3, 3).square, [F(1, 5), F(4, 5)]).invariant
        assert not check_product_2d(pair_flip_2d(1, 2).square, [F(1, 2), F(1, 2)]).invariant

    def test_rotation_model(self):
        assert check_product_2d(rotation_2d(2, 2, 2, 2).square, [F(1, 3), F(2, 3)]).invariant
        assert not check_product_2d(rotation_2d(2, 1, 2, 2).square, [F(1, 2), F(1, 2)]).invariant

    def test_three_colour_quartic_family(self):
        # invariance requires a_i rho_i^4 constant: rates (1, 1, 16) with
        # marginals (2/5, 2/5, 1/5) satisfy it
        spec = three_colour_flip_2d(1, 1, 16)
        assert check_product_2d(spec.square, [F(2, 5), F(2, 5), F(1, 5)]).invariant
        assert not check_product_2d(spec.square, [F(1, 3), F(1, 3), F(1, 3)]).invariant

    def test_matches_torus_oracle(self, rng):
        cases = [
            (flip_2d(4).square, [F(2, 3), F(1, 3)]),
            (flip_2d(4).square, [F(1, 2), F(1, 2)]),
            (pair_flip_2d(1, 2).square, [F(1, 2), F(1, 2)]),
            (rotation_2d(1, 1, 1, 1).square, [F(1, 4), F(3, 4)]),
            (row_tasep_square(), [F(1, 3), F(2, 3)]),
            (random_square(rng), [F(1, 2), F(1, 2)]),
        ]
        for T2, rho in cases:
            report = check_product_2d(T2, rho)
            gen = build_generator(T2, TorusSpace(3))
            residual = stationarity_residual(gen, product_measure(rho, 9))
            assert report.invariant == (residual == 0)

    def test_matches_torus_oracle_n4(self):
        # 65536-state torus: the criterion verdicts survive the larger wrap
        good = flip_2d(4).square
        rho = [F(2, 3), F(1, 3)]
        assert check_product_2d(good, rho).invariant
        gen = build_generator(good, TorusSpace(4))
        assert stationarity_residual(gen, product_measure(rho, 16)) == 0
        bad = pair_flip_2d(1, 2).square
        uniform = [F(1, 2), F(1, 2)]
        assert not check_product_2d(bad, uniform).invariant
        gen_bad = build_generator(bad, TorusSpace(4))
        assert stationarity_residual(gen_bad, product_measure(uniform, 16)) != 0

    def test_matches_whole_shape_reference(self, rng):
        # detailed-balance squares (invariant), those plus one diagonal swap
        # (near misses) and random squares; a three-colour invariant square
        # runs all 243 addition words, so there is one
        reports = []
        for kappa, draws, balanced in ((2, 80, 15), (3, 30, 1)):
            for i in range(draws):
                raw = [rng.randint(1, 5) for _ in range(kappa)]
                rho = [F(v, sum(raw)) for v in raw]
                if i < balanced:
                    T2 = balanced_square(rng, rho, kappa)
                elif i % 2:
                    T2 = balanced_square(rng, rho, kappa).plus(diagonal_swap(rng, kappa))
                else:
                    T2 = random_square(rng, kappa, rng.randint(1, 4))
                report = check_product_2d(T2, rho)
                assert report == reference_check_product_2d(T2, rho)
                reports.append(report.criterion)
        assert reports.count("corner-and-addition") >= 10
        assert reports.count("cell-addition-balance") >= 10

    def test_incremental_variant_agrees(self, rng):
        cases = [
            (flip_2d(4).square, [F(2, 3), F(1, 3)]),
            (pair_flip_2d(1, 2).square, [F(1, 2), F(1, 2)]),
            (random_square(rng), [F(2, 5), F(3, 5)]),
        ]
        for T2, rho in cases:
            assert check_product_2d_incremental(T2, rho).invariant == \
                check_product_2d(T2, rho).invariant


class TestReportPins:
    """Whole reports of passing and failing instances, pinned exactly
    (square checks list no evaluated criteria)."""

    ADDITION = JumpRateMatrix(Alphabet(2), 4, {((0, 0, 1, 0), (0, 1, 0, 0)): F(1, 4)})

    @staticmethod
    def fields(report):
        return (report.invariant, report.criterion, report.witness, report.words_checked)

    def test_check_product_2d(self):
        assert self.fields(check_product_2d(flip_2d(4).square, [F(2, 3), F(1, 3)])) == \
            (True, "corner-and-addition", None, 40)
        assert self.fields(check_product_2d(rotation_2d(2, 1, 2, 2).square, HALF)) == \
            (False, "corner-balance", ((0, 0, 1), F(-1, 2)), 2)
        assert self.fields(check_product_2d(self.ADDITION, HALF)) == \
            (False, "cell-addition-balance", ((0, 0, 1, 0, 0), F(-1, 16)), 13)

    def test_check_product_2d_incremental(self):
        assert self.fields(check_product_2d_incremental(flip_2d(4).square,
                                                        [F(2, 3), F(1, 3)])) == \
            (True, "single-cell-and-growth", None, 118082)
        assert self.fields(check_product_2d_incremental(flip_2d(4).square, HALF)) == \
            (False, "single-cell-balance", (((0,),), F(3, 4)), 1)
        assert self.fields(check_product_2d_incremental(self.ADDITION, HALF)) == \
            (False, "growth-balance", ((((0, 0), (0, 1)), (1, 1), (0, 0, 0)), F(-1, 32)), 307)


def reference_partial(T2, rho, overlap, letters, table):
    """One partial boldZ as a `Fraction(0)`-started sum of table[w] * weight
    over the free letters, the weights multiplied from `Fraction(1)`."""
    pinned = {c: letters[k] for c, k in overlap}
    free = [k for k, c in enumerate(SQUARE_CELLS) if c not in pinned]
    total = F(0)
    for free_letters in itertools.product(T2.alphabet.letters, repeat=len(free)):
        w = [pinned.get(c, 0) for c in SQUARE_CELLS]
        weight = F(1)
        for k, a in zip(free, free_letters):
            w[k] = a
            weight *= rho[a]
        total += table[tuple(w)] * weight
    return total


def reference_sum(T2, rho, terms, pattern, table):
    total = F(0)
    for overlap, sign in terms:
        part = reference_partial(T2, rho, overlap, pattern, table)
        total = total + part if sign > 0 else total - part
    return total


def reference_scans(T2, rho, incremental):
    """The 2D deciders as one scalar sum of partials per pattern."""
    ctx = product_context(T2, rho)
    table = reference_bold_z_table(T2, rho)
    if incremental:
        first = [(((a,),), _line_terms(Shape([(0, 0)])), (a,)) for a in T2.alphabet.letters]
        block = hypercube(3).cells
        second = ((((subset, cell, x), _growth_plan(Shape(subset), cell), x)
                   for size in range(1, len(block))
                   for subset in itertools.combinations(block, size)
                   for cell in block if cell not in subset
                   for x in T2.alphabet.words(size + 1)))
    else:
        first = [(x, _line_terms(GAMMA0), x) for x in T2.alphabet.words(3)]
        second = ((x, _growth_plan(GAMMA1, (1, 1)), x) for x in T2.alphabet.words(5))
    count = 0
    for items in (first, second):
        for label, terms, pattern in items:
            count += 1
            value = reference_sum(T2, rho, terms, pattern, table)
            if not ctx.is_zero(value):
                return False, count, (label, value.hex() if isinstance(value, float) else value)
    return True, count, None


def floated_square(T2):
    return JumpRateMatrix(T2.alphabet, 4, {(u, v): float(r) for u, v, r in T2.entries()})


class TestPartialSumReference:
    """Integer partial sums against the scalar sums they replaced: the same
    verdicts, counts and witnesses, float residuals bit for bit."""

    @staticmethod
    def fields(report):
        witness = report.witness
        if witness is not None and isinstance(witness[1], float):
            witness = (witness[0], witness[1].hex())
        return report.invariant, report.words_checked, witness

    def cases(self, rng):
        out = [(spec.square, rho) for _, spec, rho in CATALOG_SQUARES]
        for kappa in (2, 3):
            rho = [F(rng.randint(1, 5)) for _ in range(kappa)]
            rho = [p / sum(rho) for p in rho]
            good = balanced_square(rng, rho, kappa)
            out += [(good, rho), (good.plus(diagonal_swap(rng, kappa)), rho)]
        for T2, rho in list(out):
            out += [(floated_square(T2), [float(p) for p in rho]),
                    (T2, [float(p) for p in rho])]
        return out

    def test_check_product_2d(self, rng):
        for T2, rho in self.cases(rng):
            assert self.fields(check_product_2d(T2, rho)) == reference_scans(T2, rho, False)

    def test_check_product_2d_incremental_failures(self, rng):
        failing = 0
        for T2, rho in self.cases(rng):
            if check_product_2d(T2, rho).invariant:
                continue  # the full growth scan is pinned by TestReportPins
            failing += 1
            assert self.fields(check_product_2d_incremental(T2, rho)) == \
                reference_scans(T2, rho, True)
        assert failing


class TestBoldZSufficient:
    def test_detailed_balance_instance(self):
        assert check_bold_z_sufficient(flip_2d(4).square, [F(2, 3), F(1, 3)])

    def test_sufficient_not_necessary(self):
        # row-wise exclusion flow: product invariant, balance table nonzero
        T2 = row_tasep_square()
        rho = [F(1, 3), F(2, 3)]
        assert not check_bold_z_sufficient(T2, rho)
        assert check_product_2d(T2, rho).invariant

    def test_zero_dynamics(self):
        assert check_bold_z_sufficient(JumpRateMatrix(Alphabet(2), 4, {}), [F(1, 2), F(1, 2)])


class TestMultinomial:
    def test_truncated_poisson_exact(self):
        rho = truncated_poisson(F(1), 3)
        assert rho == [F(2, 5), F(2, 5), F(1, 5)]

    def test_ball_move_interior_invariant(self):
        # undirected redistribution: dropped in- and out-jumps mirror each
        # other, so even the truncation boundary balances exactly
        spec = ball_move_2d(5)
        report = check_multinomial_preservation(spec.square, lam=F(1))
        assert report.interior_invariant
        assert not report.boundary_residuals

    def test_ball_cycle_truncation_residuals_reported(self):
        from psinv.models import ball_cycle_2d
        spec = ball_cycle_2d(4)
        report = check_multinomial_preservation(spec.square, lam=F(1))
        assert report.interior_invariant
        assert report.boundary_residuals  # directed moves leave a visible edge

    def test_ball_move_weighted(self):
        spec = ball_move_2d(4, weight=lambda m: F(m))
        report = check_multinomial_preservation(spec.square, lam=F(1, 2))
        assert report.interior_invariant

    def test_urn_shift_interior_invariant(self):
        from psinv.models import urn_shift_2d
        spec = urn_shift_2d(4)
        report = check_multinomial_preservation(spec.square, lam=F(2))
        assert report.interior_invariant

    def test_zero_weight_trivial(self):
        T2 = JumpRateMatrix(Alphabet(3), 4, {})
        report = check_multinomial_preservation(T2, lam=F(1))
        assert report.interior_invariant
        assert not report.boundary_residuals

    def test_mass_preservation_required(self):
        with pytest.raises(ValueError):
            check_multinomial_preservation(flip_2d(1).square, lam=F(1))
