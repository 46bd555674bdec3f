import fractions
import itertools
import random
import time
from fractions import Fraction

import pytest

from psinv import criteria, search
from psinv.core import Alphabet, JumpRateMatrix, MarkovKernel
from psinv.criteria import (check_markov_cycle, check_product_line, cycle_jumps,
                            product_context, symmetrize, z_table)
from psinv.linalg import solve_linear
from psinv.oracle import CycleSpace, build_generator, product_measure, stationarity_residual
from psinv.search import (TripleMeasure, _cycle_rows, _cycle_system, _factor_rank_one, _family,
                          _kills_balances, _kills_cycles3, _rational_roots, _trial_marginals,
                          candidate_kernels, find_markov, find_product, solve_cycle3_system,
                          triple_from_kernel)
from psinv import models
from psinv.models import kappa2_general, tasep, tasep3
from psinv.scalars import ScalarContext, over_common_denominator

from conftest import random_jrm, random_kernel, random_marginal, rational
from test_golden import MODELS
from z_reference import (exact_triple, fraction_family, fraction_solution, pinned,
                         reference_cycle_jumps, reference_cycle_rows, reference_factor_rank_one,
                         reference_family, reference_solve, reference_triple_check,
                         triple_values)

F = Fraction


def in_family(family, point, pivot=0.0):
    """Membership of a point in an affine family, up to the pivot tolerance
    of its system (0 for exact systems): solve for coefficients.  This was
    find_product's test of its trial marginals before the pair-row test."""
    sol = fraction_solution(family.solution)
    if sol.status == "empty":
        return False
    diff = [p - q for p, q in zip(point, sol.particular)]
    if sol.dimension == 0:
        return all(abs(d) <= pivot for d in diff)
    A = [[sol.basis[k][i] for k in range(sol.dimension)] for i in range(len(diff))]
    return reference_solve(A, diff, pivot).status != "empty"


def reference_cycle3_rows(T):
    """The length-3 cyclic balances of T as rows over the triples (a, b, c):
    a move (u, v) -> window of (a, b, c) feeds it from the triple read from
    the site after that window."""
    variables = list(T.alphabet.words(3))
    pos = {w: i for i, w in enumerate(variables)}
    out = {w: sum((r for u, _, r in T.entries() if u == w), F(0)) for w in T.alphabet.words(2)}
    rows = []
    for a, b, c in variables:
        row = [F(0)] * len(variables)
        for (u, v), dst, rate in T.entries():
            if dst == (a, b):
                row[pos[(c, u, v)]] += rate
            if dst == (b, c):
                row[pos[(a, u, v)]] += rate
            if dst == (c, a):
                row[pos[(b, u, v)]] += rate
        row[pos[(a, b, c)]] -= out[(a, b)] + out[(b, c)] + out[(c, a)]
        rows.append(row)
    return variables, rows


def reference_pair_rows(T):
    """The pair balances of the symmetrization S of T as rows over the pairs."""
    S = symmetrize(T)
    variables = list(T.alphabet.words(2))
    pos = {w: i for i, w in enumerate(variables)}
    rows = []
    for b, c in variables:
        row = [F(0)] * len(variables)
        for src, dst, rate in S.entries():
            if dst == (b, c):
                row[pos[src]] += rate
        row[pos[(b, c)]] -= sum((r for u, _, r in S.entries() if u == (b, c)), F(0))
        rows.append(row)
    return variables, rows


def reference_tied_family(variables, rows):
    """Rotation-invariant points of the probability simplex killing the rows,
    solved by the dense reference solve and sampled like the search systems
    in Fractions."""
    pos = {w: i for i, w in enumerate(variables)}
    rows = [list(row) for row in rows]
    for w in variables:
        turned = w[1:] + w[:1]
        if w != turned:
            row = [F(0)] * len(variables)
            row[pos[w]] += 1
            row[pos[turned]] -= 1
            rows.append(row)
    rows.append([F(1)] * len(variables))
    rhs = [F(0)] * (len(rows) - 1) + [F(1)]
    return reference_family(variables, reference_solve(rows, rhs), range(len(variables)))


def random_range2(rng, kappa):
    """A range-2 table; some draws add conservative swaps ab <-> ba with
    equal rates, or are made of them, so that invariant products occur."""
    kind = rng.randrange(3)
    T = JumpRateMatrix(Alphabet(kappa), 2, {})
    if kind < 2:
        T = random_jrm(rng, kappa=kappa, max_entries=3 * kappa)
    if kind > 0:
        swaps = {}
        for a in range(kappa):
            for b in range(a + 1, kappa):
                if rng.random() < 0.6:
                    swaps[((a, b), (b, a))] = swaps[((b, a), (a, b))] = rational(rng)
        T = T.plus(JumpRateMatrix(T.alphabet, 2, swaps))
    return T


def assert_same_family(family, reference):
    """The family equals the Fraction reference, its integer solution,
    vertices and samples read over their denominators."""
    assert fraction_family(family) == reference


def as_float(T):
    return JumpRateMatrix(T.alphabet, T.range_, {(u, v): float(r) for u, v, r in T.entries()})


RANGE2_MODELS = [key for key, (name, params, _) in MODELS.items()
                 if getattr(models.build(name, **params).jrm, "range_", None) == 2]


class TestFloatFamilies:
    """Float rounding noise must not decide the rank of a search system."""

    @pytest.mark.parametrize("search", [find_markov, find_product],
                             ids=["find_markov", "find_product"])
    @pytest.mark.parametrize("key", RANGE2_MODELS)
    def test_float_dimension_is_exact_dimension(self, key, search):
        name, params, _ = MODELS[key]
        T = models.build(name, **params).jrm
        exact = search(T).family.solution.dimension
        assert search(as_float(T)).family.solution.dimension == exact

    def test_float_zero_range_product_found(self):
        name, params, _ = MODELS["zero_range"]
        assert find_product(as_float(models.build(name, **params).jrm)).candidates


class TestTripleMeasure:
    def test_rotation_validation(self):
        nu = {w: F(1, 8) for w in Alphabet(2).words(3)}
        exact_triple(2, nu)
        nu[(0, 0, 1)] = F(1, 4)
        nu[(0, 1, 1)] = F(0)
        with pytest.raises(ValueError):
            exact_triple(2, nu)

    def test_from_kernel_is_valid(self, rng):
        for _ in range(5):
            nu = triple_from_kernel(random_kernel(rng, kappa=3))
            assert nu.is_positive


class TestCycle3System:
    def test_zero_dynamics_allows_uniform(self):
        T = JumpRateMatrix(Alphabet(2), 2, {})
        family = solve_cycle3_system(T)
        uniform = tuple(F(1, 8) for _ in range(8))
        assert in_family(family, uniform)

    def test_tasep_contains_every_bernoulli(self):
        family = solve_cycle3_system(tasep().jrm)
        for p in (F(1, 5), F(1, 2), F(7, 9)):
            kernel = MarkovKernel.from_matrix([[1 - p, p], [1 - p, p]])
            nu = triple_from_kernel(kernel)
            point = tuple(triple_values(nu)[w] for w in family.variables)
            assert in_family(family, point)

    def test_range_checked(self):
        with pytest.raises(ValueError):
            solve_cycle3_system(JumpRateMatrix(Alphabet(2), 3, {}))

    def test_matches_reference_rows(self, rng):
        # four colours: 64 unknowns, few draws
        for kappa, draws in ((2, 8), (3, 8), (4, 3)):
            for _ in range(draws):
                T = random_range2(rng, kappa)
                assert_same_family(solve_cycle3_system(T),
                                   reference_tied_family(*reference_cycle3_rows(T)))


def assert_rotation_invariant(family):
    """Every vertex, sample, the particular solution and every basis
    direction of a family give equal weights to the rotations of a word."""
    sol = family.solution
    vectors = family.vertices + family.samples
    if sol.status != "empty":
        vectors += (tuple(sol.particular),) + tuple(tuple(v) for v in sol.basis)
    for vector in vectors:
        nu = dict(zip(family.variables, vector))
        assert all(nu[w] == nu[w[1:] + w[:1]] for w in nu)


class TestOrbitSystem:
    """One unknown per rotation orbit, expanded to the words, gives the
    family of the word system with every rotation tied, entry for entry."""

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("key", RANGE2_MODELS)
    def test_catalog_matches_tied_reference(self, key, n):
        name, params, _ = MODELS[key]
        T = models.build(name, **params).jrm
        kappa = T.alphabet.kappa
        rows, family, _ = _cycle_system(T, n)
        # necklaces of length n over kappa letters
        assert len(rows) == {2: kappa * (kappa + 1) // 2, 3: (kappa ** 3 + 2 * kappa) // 3}[n]
        reference = reference_cycle3_rows(T) if n == 3 else reference_pair_rows(T)
        assert_same_family(family, reference_tied_family(*reference))
        if n == 3:
            assert_rotation_invariant(family)

    def test_random_families_rotation_invariant(self, rng):
        for kappa, draws in ((2, 8), (3, 6), (4, 2)):
            for _ in range(draws):
                assert_rotation_invariant(solve_cycle3_system(random_range2(rng, kappa)))

    def test_tasep3_exchange_dimension(self):
        # tying only w to its rotation when w < turned left 101 and 202
        # untied, and the family one dimension too large
        name, params, _ = MODELS["tasep3_exchange"]
        family = find_markov(models.build(name, **params).jrm).family
        assert family.solution.dimension == 9


def exact_tables(seed):
    """Seeded exact tables, kappa 2-4 at range 2 and 3, each with a few moves
    between words of period 1 or 2 (so that cycles shorter than the range
    see jumps), and the tables with no moves."""
    rng = random.Random(seed)
    for kappa in (2, 3, 4):
        for range_ in (2, 3):
            yield JumpRateMatrix(Alphabet(kappa), range_, {})
            for _ in range(3):
                T = random_jrm(rng, kappa=kappa, range_=range_, max_entries=3 * kappa)
                periodic = {}
                for _ in range(3):
                    u, v = (((rng.randrange(kappa), rng.randrange(kappa)) * range_)[:range_]
                            for _ in range(2))
                    if u != v:
                        periodic[(u, v)] = rational(rng)
                yield T.plus(JumpRateMatrix(T.alphabet, range_, periodic))


def cycle_systems(T, n, monkeypatch):
    """Every (rows, cols, tol) that `_cycle_system(T, n)` hands to
    solve_linear: the cycle system itself and the active-set systems of its
    vertices."""
    seen = []

    def recording(rows, cols, tol=0.0):
        seen.append((rows, cols, tol))
        return solve_linear(rows, cols, tol)

    with monkeypatch.context() as patch:
        patch.setattr(search, "solve_linear", recording)
        _cycle_system(T, n)
    return seen


def pinned_rows(rows):
    return [[(c, pinned(v)) for c, v in row.items()] for row in rows]


class TestIntegerRows:
    """Exact cycle systems are Python-int rows: the reference builder's
    Fraction rows times the rates' common denominator, the orbit-size row
    as it was.  Float systems keep the reference's rows bit for bit, and
    jumps looked up by window are the jumps of the full scan.  Lengths 1-5
    take in cycles shorter than the range, windows that wrap more than once
    and lengths the search does not solve; the systems handed to
    solve_linear are checked up to length 3, where the sampled family's
    active-set systems stay few."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_exact_rows_are_reference_rows_over_the_denominator(self, n, monkeypatch):
        shorter = 0
        for T in exact_tables(f"integer-rows-{n}"):
            den = over_common_denominator([rate for _, _, rate in T.entries()])[1]
            balances = list(_cycle_rows(T, n)[0].values())
            *reference, reference_sizes = reference_cycle_rows(T, n)
            assert [list(row) for row in balances] == [list(row) for row in reference]
            assert balances == [{c: v * den for c, v in row.items()} for row in reference]
            assert all(type(v) is int for row in balances for v in row.values())
            if n <= 3:
                handed = [rows for rows, _, _ in cycle_systems(T, n, monkeypatch)]
                assert handed[0] == balances + [reference_sizes]
                for rows in handed:
                    assert all(type(v) is int for row in rows for v in row.values())
            shorter += n < T.range_ and any(v for row in balances for v in row.values())
        assert shorter >= 4 or n >= 3  # n >= 3 is shorter than no range here

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_float_rows_are_reference_rows_bit_for_bit(self, n, monkeypatch):
        for T in exact_tables(f"float-rows-{n}"):
            floated = as_float(T)
            if T.is_zero:  # no rate, no float: the system stays exact
                continue
            reference = pinned_rows(reference_cycle_rows(floated, n))
            assert pinned_rows(_cycle_rows(floated, n)[0].values()) == reference[:-1]
            if n <= 3:
                assert pinned_rows(cycle_systems(floated, n, monkeypatch)[0][0]) == reference

    def test_cycle_jumps_match_the_scan(self):
        # exact tables jump by numerators over the rates' common denominator,
        # float tables (a table without rates stays exact) by their rates
        for T in exact_tables("cycle-jumps"):
            den = over_common_denominator([rate for _, _, rate in T.entries()])[1]
            for table in (T, as_float(T)):
                for n in range(1, table.range_ + 2):
                    for x in table.alphabet.words(n):
                        inflow, exit_rate = reference_cycle_jumps(table, x)
                        inflow = [(table.alphabet.encode(w), r) for w, r in inflow]
                        got_inflow, got_exit = cycle_jumps(table, table.alphabet.encode(x), n)
                        if table.is_exact:
                            assert got_inflow == [(w, r * den) for w, r in inflow]
                            assert type(got_exit) is int and got_exit == exit_rate * den
                        else:
                            assert ([(w, pinned(r)) for w, r in got_inflow], pinned(got_exit)) \
                                == ([(w, pinned(r)) for w, r in inflow], pinned(exit_rate))


class TestWindowIndex:
    def test_find_markov_groups_a_table_once(self, monkeypatch):
        # the triple-measure system and the product search (its pair and
        # length-3 rows) share the index cached on the table
        index = JumpRateMatrix.__dict__["by_window"]
        real, grouped = index.func, []

        def counted(T):
            grouped.append(T)
            return real(T)
        monkeypatch.setattr(index, "func", counted)
        for key in RANGE2_MODELS:
            name, params, _ = MODELS[key]
            T = models.build(name, **params).jrm
            find_markov(T)
            assert len(grouped) == 1 and grouped.pop() is T, key


class TestRowsPerTable:
    """Each length's cyclic balance rows are built once per table and
    cached on it (`JumpRateMatrix.cycle_rows`); their readers leave them as
    they were."""

    def test_find_markov_builds_each_length_once(self, monkeypatch):
        # solve_cycle3_system and find_product (its pair rows and the
        # length-3 rows that decide its marginals) share the cached rows:
        # the builder takes each orbit's jumps once per length
        lengths, real = [], search.cycle_jumps
        monkeypatch.setattr(search, "cycle_jumps",
                            lambda T, x, n: lengths.append(n) or real(T, x, n))
        for key in RANGE2_MODELS:
            name, params, _ = MODELS[key]
            T = models.build(name, **params).jrm
            find_markov(T)
            assert sorted(lengths) == [2] * len(T.cycle_rows[2][0]) + \
                [3] * len(T.cycle_rows[3][0]), key
            lengths.clear()
            find_product(T)
            assert lengths == [], key
            # a new table, even an equal one, builds its own rows
            fresh = models.build(name, **params).jrm
            find_product(fresh)
            assert sorted(lengths) == [n for n, (rows, _) in sorted(fresh.cycle_rows.items())
                                       for _ in rows] and 2 in lengths, key
            lengths.clear()

    def test_readers_leave_the_cached_rows_unchanged(self, monkeypatch):
        read = {}
        for name in ("solve_linear", "_kills_balances", "_kills_cycles3"):
            real = getattr(search, name)

            def counting(*args, name=name, real=real):
                read[name] = read.get(name, 0) + 1
                return real(*args)
            monkeypatch.setattr(search, name, counting)
        for key in RANGE2_MODELS:
            name, params, _ = MODELS[key]
            for T in (models.build(name, **params).jrm, as_float(models.build(name, **params).jrm)):
                built = {n: _cycle_rows(T, n) for n in (2, 3)}
                before = {n: (list(rows), pinned_rows(rows.values()), list(col))
                          for n, (rows, col) in built.items()}
                find_markov(T)
                find_product(T)
                assert all(T.cycle_rows[n] is rows for n, rows in built.items())
                assert {n: (list(rows), pinned_rows(rows.values()), list(col))
                        for n, (rows, col) in T.cycle_rows.items()} == before, key
        assert min(read.values()) >= len(RANGE2_MODELS) and len(read) == 3, read


class TestCandidateKernels:
    def test_round_trip_recovers_kernel(self, rng):
        for kappa in (2, 3):
            for _ in range(10):
                M = random_kernel(rng, kappa=kappa)
                nu = triple_from_kernel(M)
                result = candidate_kernels(nu)
                assert len(result.candidates) == 1
                cand = result.candidates[0]
                assert cand.exact
                assert cand.kernel.matrix() == M.matrix()

    def test_near_reducible_kernel_gives_its_exact_candidate(self):
        # two diagonal entries within 1e-5 of 1: numpy's dominant eigenvalue
        # of N_0 is about 4.9e-11 off 324082/324081, and float power
        # iteration ends about 8e-6 off it
        M = MarkovKernel.from_matrix(
            [[F(324081, 324082), F(1, 972246), F(1, 972246), F(1, 972246)],
             [F(1, 926190), F(308729, 308730), F(1, 926190), F(1, 926190)],
             [F(1, 25), F(6, 25), F(9, 25), F(9, 25)], [F(3, 8), F(1, 8), F(3, 8), F(1, 8)]])
        result = candidate_kernels(triple_from_kernel(M))
        assert result.notes == ()
        assert [(c.kernel.matrix(), c.exact) for c in result.candidates] == [(M.matrix(), True)]

    def test_near_reducible_kernels_recovered_exactly(self):
        # one dominant diagonal entry per row, the others 1-3 over a
        # denominator up to 10^6: every N_a has the rational dominant
        # eigenvalue 1 / M_aa, however close to a reducible matrix it is
        rng = random.Random("near-reducible")
        for _ in range(40):
            kappa = rng.choice((3, 4))
            rows = []
            for a in range(kappa):
                den = rng.randint(10, 10 ** 6)
                row = [F(rng.randint(1, 3), den) for _ in range(kappa)]
                row[a] = 1 - (sum(row) - row[a])
                rows.append(row)
            M = MarkovKernel.from_matrix(rows)
            result = candidate_kernels(triple_from_kernel(M))
            assert [(c.kernel.matrix(), c.exact) for c in result.candidates] == \
                [(M.matrix(), True)], rows

    def test_uniform_triple_gives_uniform_kernel(self):
        nu = exact_triple(2, {w: F(1, 8) for w in Alphabet(2).words(3)})
        result = candidate_kernels(nu)
        assert result.candidates[0].kernel.matrix() == \
            [[F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]]

    def test_non_positive_triple_skipped(self):
        nu_map = {w: F(0) for w in Alphabet(2).words(3)}
        nu_map[(0, 0, 0)] = F(1, 2)
        nu_map[(1, 1, 1)] = F(1, 2)
        nu = exact_triple(2, nu_map)
        result = candidate_kernels(nu)
        assert not result.candidates

    def test_invalid_triple_rejected(self, rng):
        # perturbing one rotation class breaks the product structure: either
        # the eigenvalues split or the verification fails, never a bad kernel
        M = random_kernel(rng, kappa=2)
        nu = triple_values(triple_from_kernel(M))
        eps = F(1, 50)
        for w in ((0, 0, 1), (0, 1, 0), (1, 0, 0)):
            nu[w] = nu[w] + eps
        for w in ((0, 1, 1), (1, 1, 0), (1, 0, 1)):
            nu[w] = nu[w] - eps
        measure = exact_triple(2, nu)
        result = candidate_kernels(measure)
        for cand in result.candidates:
            rebuilt = triple_from_kernel(cand.kernel)
            assert triple_values(rebuilt) == nu


class TestFindMarkov:
    def test_zero_dynamics_all_kernels(self):
        report = find_markov(JumpRateMatrix(Alphabet(2), 2, {}))
        assert report.all_kernels

    def test_tasep_product_family(self):
        report = find_markov(tasep().jrm)
        invariant = [c for c in report.candidates if c.line_report.invariant]
        assert invariant
        for cand in invariant:
            rows = cand.kernel.matrix()
            assert rows[0] == rows[1]  # constant rows: an i.i.d. law
        assert any("Bernoulli" in note for note in report.notes)

    def test_decides_each_product_once(self, monkeypatch):
        built, decided = [], []
        real_table, real_decision = criteria._balance_table, search._kills_cycles3

        def counting_table(ctx, *args):
            built.append(ctx.memory)
            return real_table(ctx, *args)

        def counting_decision(T, rows, weights, den=None, *args):
            decided.append(tuple(weights) if den is None else tuple(F(v, den) for v in weights))
            return real_decision(T, rows, weights, den, *args)

        monkeypatch.setattr(criteria, "_balance_table", counting_table)
        monkeypatch.setattr(search, "_kills_cycles3", counting_decision)
        T = tasep().jrm
        products = find_product(T)
        # each distinct full-support marginal is decided once, on the rows,
        # and no Z table is built
        assert len(decided) == len(set(decided)) == len(products.candidates) == 5
        assert built == []
        first = list(decided)
        decided.clear()
        report = find_markov(T)
        # one table for the triple-measure sample; the five products reuse
        # the decisions of find_product
        assert built == [1]
        assert decided == first
        assert [c.provenance for c in report.candidates] == ["invariant product"] * 5
        for cand, (rho, line_report) in zip(report.candidates, products.candidates):
            assert cand.line_report == line_report == \
                check_markov_cycle(product_context(T, list(rho)), 3)
            assert cand.line_report.invariant
            assert [cand.law.rho[(a,)] for a in range(2)] == list(rho)
            assert cand.kernel.matrix() == [list(rho), list(rho)]

    def test_routes_through_the_traced_searches_once(self, monkeypatch):
        # the benchmark times and counts find_markov through these two calls
        calls = []
        for name in ("solve_cycle3_system", "find_product"):
            real = getattr(search, name)

            def counting(*args, name=name, real=real):
                calls.append(name)
                return real(*args)

            monkeypatch.setattr(search, name, counting)
        for T in (tasep().jrm, tasep3(r10=1, r20=2, r21=1).jrm,
                  invariant_product_table(random.Random("routes"), 3)[0]):
            calls.clear()
            find_markov(T)
            assert sorted(calls) == ["find_product", "solve_cycle3_system"]

    def test_emitted_kernels_kill_length3_cycles(self):
        report = find_markov(tasep().jrm)
        for cand in report.candidates:
            ctx_nu = triple_from_kernel(cand.kernel)
            family = solve_cycle3_system(tasep().jrm)
            point = tuple(triple_values(ctx_nu)[w] for w in family.variables)
            assert in_family(family, point)

    def test_mass_preserving_two_colours_only_iid(self, rng):
        # exchange dynamics: the only invariant laws are the i.i.d. ones
        T = kappa2_general({1: {2: F(1)}, 2: {1: F(3)}}).jrm
        report = find_markov(T)
        for cand in report.candidates:
            if cand.line_report.invariant:
                rows = cand.kernel.matrix()
                assert rows[0] == rows[1]
        for cand in report.numeric_candidates:
            if cand.line_report.invariant:
                rows = cand.kernel.matrix()
                assert max(abs(a - b) for a, b in zip(rows[0], rows[1])) < 1e-8


class TestFindProduct:
    def test_tasep_all_bernoulli(self):
        report = find_product(tasep().jrm)
        assert report.bernoulli_all
        assert report.candidates
        for rho, line_report in report.candidates:
            assert line_report.invariant

    def test_partial_support_notes_render_scalars(self):
        # samples render as model files write scalars; floats by repr
        hint = "lacks full support; verify through restrict_support on its support"
        assert find_product(tasep().jrm).notes == (f"sample (0, 1) {hint}",
                                                   f"sample (1, 0) {hint}")
        assert find_product(as_float(tasep().jrm)).notes == (f"sample (0.0, 1.0) {hint}",
                                                             f"sample (1.0, 0.0) {hint}")

    def test_output_closure(self):
        # every emitted marginal kills the symmetrized balance table and the
        # length-3 cycles of the original dynamics
        report = find_product(tasep().jrm)
        for rho, _ in report.candidates:
            table = z_table(product_context(symmetrize(tasep().jrm), list(rho)))
            assert all(v == 0 for v in table.values.values())
            assert check_product_line(tasep().jrm, list(rho)).invariant

    def test_family_matches_symmetrized_reference(self, rng):
        for kappa in (2, 3, 4):
            for _ in range(8):
                T = random_range2(rng, kappa)
                assert_same_family(find_product(T).family,
                                   reference_tied_family(*reference_pair_rows(T)))

    @pytest.mark.parametrize("spec", [tasep(), tasep3(1, 2, 1)], ids=["tasep", "tasep3_121"])
    def test_float_and_exact_list_the_same_candidates(self, spec):
        # trial marginals in the family pass its membership test at the
        # pivot tolerance of the float system, not at tolerance 0
        T = spec.jrm
        floated = JumpRateMatrix(T.alphabet, 2, {(u, v): float(r) for u, v, r in T.entries()})
        exact = [rho for rho, _ in find_product(T).candidates]
        assert len(exact) >= 4
        assert [rho for rho, _ in find_product(floated).candidates] == exact

    def test_pair_rows_agree_with_membership_solve(self):
        # a length-2 cycle is a finite chain that commutes with rotation, so
        # its system always has a solution: the families are unique or larger
        statuses, kept = set(), [0, 0]
        for kappa in (2, 3, 4):
            rng = random.Random(f"trial-membership-{kappa}")
            tables = [random_range2(rng, kappa) for _ in range(8)]
            tables += [JumpRateMatrix(Alphabet(kappa), 2, {})] + \
                [tasep3(1, 2, 1).jrm] * (kappa == 3)
            for T in tables:
                for table in (T, as_float(T)):
                    rows, family, balances = _cycle_system(table, 2)
                    pivot = 0.0 if balances.exact else balances.tol * balances.scale
                    statuses.add(family.solution.status)
                    for raw in _trial_marginals(kappa):
                        rho = [F(v, sum(raw)) for v in raw]
                        point = [rho[u] * rho[v] for u, v in family.variables]
                        inside = in_family(family, point, pivot)
                        # exact systems test the raw integer weights, float
                        # systems the marginal's product table
                        weights = raw if table.is_exact else rho
                        values = [weights[u] * weights[v] for u, v in rows]
                        assert all(type(v) is int for v in values) == table.is_exact
                        assert _kills_balances(rows, balances, values) == inside
                        kept[table.is_exact] += inside
                    for point, read in zip(family.samples, fraction_family(family)[3]):
                        # exact samples are ints over the family's denominator
                        weight = dict(zip(family.variables, point))
                        values = [weight[k] for k in rows]
                        assert in_family(family, read, pivot)
                        assert _kills_balances(rows, balances, values)
        assert statuses == {"unique", "family"}
        assert min(kept) >= 8, kept

    def test_three_colour_uniform_rates_empty(self):
        report = find_product(tasep3(1, 1, 1).jrm)
        assert not report.candidates

    def test_three_colour_conservative_rates_found(self):
        report = find_product(tasep3(1, 2, 1).jrm)
        assert report.candidates

    def test_zero_dynamics(self):
        report = find_product(JumpRateMatrix(Alphabet(2), 2, {}))
        assert report.bernoulli_all

    def test_bernoulli_root_extraction(self):
        # pair creation/annihilation balances only at a specific density:
        # 00 -> 11 at rate 1 and 11 -> 00 at rate 9 need p/(1-p) = 1/3
        T = JumpRateMatrix(Alphabet(2), 2, {((0, 0), (1, 1)): 1, ((1, 1), (0, 0)): 9})
        report = find_product(T)
        assert not report.bernoulli_all
        assert F(1, 4) in report.bernoulli_roots
        assert any(rho == (F(3, 4), F(1, 4)) for rho, _ in report.candidates)

    def test_bernoulli_root_with_large_denominators(self):
        # 00 -> 11 at rate a, 11 -> 00 at rate 9a: root 1/4 whatever a is;
        # nine-digit denominators once needed a trial division up to 10^9
        a = F(123456789, 987654323)
        T = JumpRateMatrix(Alphabet(2), 2, {((0, 0), (1, 1)): a, ((1, 1), (0, 0)): 9 * a})
        start = time.perf_counter()
        report = find_product(T)
        assert report.bernoulli_roots == (F(1, 4),)
        assert time.perf_counter() - start < 0.5

    def test_rational_roots_formulas(self):
        assert _rational_roots([-1, 3]) == [F(1, 3)]                  # 3 p - 1
        assert _rational_roots([2, -9, 9]) == [F(1, 3), F(2, 3)]
        assert _rational_roots([-1, 0, 2]) == []                      # p^2 = 1/2
        assert _rational_roots([1, 0, 1]) == []                       # no real root
        assert _rational_roots([0, 0, 1]) == []                       # p = 0 only
        assert _rational_roots([5]) == []


def digits_rational(rng, digits=7):
    lo, hi = 10 ** (digits - 1), 10 ** digits - 1
    return F(rng.randint(lo, hi), rng.randint(lo, hi))


def invariant_product_table(rng, kappa, digits=7):
    """Range-2 rates with `digits`-digit rationals that keep a product law
    rho of `digits`-digit weights invariant: pair moves in detailed balance
    with rho x rho along the edges of a random tree on the pairs plus
    kappa^2 // 2 more edges (swap edges ab - ba left out), and a drift of
    swaps (i, j) -> (j, i), i > j, at rate c_i - c_j with c increasing."""
    raw = rng.sample(range(10 ** (digits - 1), 10 ** digits), kappa)
    rho = tuple(F(v, sum(raw)) for v in raw)
    pairs = list(itertools.product(range(kappa), repeat=2))
    rng.shuffle(pairs)
    edges = [(x, rng.choice(pairs[:i])) for i, x in enumerate(pairs) if i]
    edges += [tuple(rng.sample(pairs, 2)) for _ in range(kappa ** 2 // 2)]
    rates = {}

    def add(u, v, rate):
        rates[(u, v)] = rates.get((u, v), 0) + rate

    for x, y in edges:
        if y != x[::-1]:
            forward = digits_rational(rng, digits)
            add(x, y, forward)
            add(y, x, forward * rho[x[0]] * rho[x[1]] / (rho[y[0]] * rho[y[1]]))
    c = [F(0)]
    for _ in range(kappa - 1):
        c.append(c[-1] + digits_rational(rng, digits))
    for i in range(kappa):
        for j in range(i):
            add((i, j), (j, i), c[i] - c[j])
    return JumpRateMatrix(Alphabet(kappa), 2, rates), rho


class TestLargeRationals:
    @pytest.mark.parametrize("seed", range(3))
    def test_constructed_product_found(self, seed):
        T, rho = invariant_product_table(random.Random(f"large-{seed}"), 3)
        assert rho in [marginal for marginal, _ in find_product(T).candidates]
        kernels = [cand.kernel.matrix() for cand in find_markov(T).candidates]
        assert [list(rho)] * 3 in kernels


def row_verdict(T, weights, den=None, tol=1e-9):
    """The search's decision of the product of weights / den (floats when
    den is None) on the length-3 cyclic balance rows of T."""
    rows = _cycle_rows(T, 3)[0]
    return _kills_cycles3(T, rows, weights, den, tol)


def product_instances(seed):
    """Seeded exact (T, rho), rho of full support, for kappa 2-4: a table
    built to keep a product invariant (detailed balance plus drift) with its
    marginal and a random one, its perturbed twin with that marginal, and a
    random sparse table (`random_range2`) with the trial marginals and a
    random one."""
    rng = random.Random(seed)
    for kappa in (2, 3, 4):
        trials = [tuple(F(v, sum(raw)) for v in raw) for raw in _trial_marginals(kappa)]
        for _ in range(8):
            T, rho = invariant_product_table(rng, kappa, digits=1)
            u, v = rng.sample(list(T.alphabet.words(2)), 2)
            twin = T.plus(JumpRateMatrix(T.alphabet, 2, {(u, v): rational(rng)}))
            yield from ((T, m) for m in (rho, tuple(random_marginal(rng, kappa))))
            yield twin, rho
            sparse = random_range2(rng, kappa)
            yield from ((sparse, m) for m in trials + [tuple(random_marginal(rng, kappa))])


class TestProductRowDecision:
    """find_product keeps a full-support marginal when its product kills the
    length-3 cyclic balances of T: the line criterion of a memory-0 law
    (critical length h = 4m + 2L - 1 = 3), decided without a Z table."""

    def test_row_verdict_is_the_line_verdict(self):
        verdicts = []
        for T, rho in product_instances("row-decision"):
            weights, den = over_common_denominator(rho)
            verdict = row_verdict(T, weights, den)
            assert verdict == check_product_line(T, list(rho)).invariant
            assert verdict == check_markov_cycle(product_context(T, list(rho)), 3).invariant
            residual = stationarity_residual(build_generator(T, CycleSpace(3)),
                                             product_measure(list(rho), 3))
            assert verdict == (residual == 0)
            verdicts.append(verdict)
        assert len(verdicts) >= 150
        assert 0.3 <= sum(verdicts) / len(verdicts) < 1

    def test_float_copies_agree_with_the_line_check(self):
        for T, rho in product_instances("row-decision-floats"):
            floated, weights = as_float(T), [float(p) for p in rho]
            expected = check_product_line(floated, weights).invariant
            assert row_verdict(floated, weights) == expected
            # an exact marginal on a float table is decided in floats too
            assert row_verdict(floated, *over_common_denominator(rho)) == expected
            assert expected == check_product_line(T, list(rho)).invariant


class TestMixedScalars:
    """A float marginal on an exact table is decided in floats, at the
    tolerance of the line check's float context, never by `== 0`."""

    def test_float_marginal_on_exact_table(self, monkeypatch):
        T = tasep().jrm
        twin = T.plus(JumpRateMatrix(T.alphabet, 2, {((0, 0), (0, 1)): F(1)}))
        large, rho = invariant_product_table(random.Random("mixed-scalars"), 3)
        floats = [float(p) for p in rho]
        # the float copy of the marginal is not exactly invariant
        assert stationarity_residual(build_generator(large, CycleSpace(3)),
                                     product_measure([F(p) for p in floats], 3)) != 0
        compared, real = [], ScalarContext.is_zero

        def recording(self, value):
            compared.append((self.exact, type(value)))
            return real(self, value)

        for table, marginal, invariant in ((T, [0.5, 0.5], True), (twin, [0.5, 0.5], False),
                                           (T, [0.1, 0.9], True), (large, floats, True)):
            assert table.is_exact
            compared.clear()
            with monkeypatch.context() as patch:
                patch.setattr(ScalarContext, "is_zero", recording)
                verdict = row_verdict(table, marginal)
            assert compared and all(not exact for exact, _ in compared)
            assert verdict == check_product_line(table, marginal).invariant == invariant


def raised(fn, *args):
    """The message of the ValueError fn raises, None when it returns."""
    try:
        fn(*args)
    except ValueError as exc:
        return str(exc)
    return None


def family_systems(seed):
    """Seeded systems over n unknowns with a positive solution q / sum(q):
    n - 1 - d random integer rows orthogonal to q, then the row of ones with
    right-hand side 1, for d = 0..4 below n: (rows, n), families of
    dimension d."""
    rng = random.Random(seed)
    for n in (3, 4, 5, 6):
        for dim in range(min(n - 1, 5)):
            q = [rng.randint(1, 5) for _ in range(n)]
            rows = []
            for _ in range(n - 1 - dim):
                row = [rng.randint(-4, 4) for _ in range(n - 1)]
                # the last coefficient makes row . q = 0, scaled to integers
                last = F(-sum(a * b for a, b in zip(row, q)), q[-1])
                row = [a * last.denominator for a in row] + [last.numerator]
                rows.append({c: v for c, v in enumerate(row) if v})
            yield rows + [dict.fromkeys(range(n + 1), 1)], n


class TestIntegerCandidates:
    """The integer forms of the search's candidates (solutions, samples,
    triple measures, rank-one factors) against their Fraction references."""

    @staticmethod
    def measures(rng, kappa):
        """(label, {word: value}): a kernel's triple measure, and the same
        with a negative entry, unnormalised, or not rotation invariant."""
        nu = triple_values(triple_from_kernel(random_kernel(rng, kappa=kappa)))
        yield "valid", nu
        w = rng.choice([w for w in nu if len(set(w)) > 1])
        yield "negative", {**nu, w: -nu[w]}
        yield "unnormalised", {x: 2 * v for x, v in nu.items()}
        turned, eps = w[1:] + w[:1], nu[w] / 3
        yield "not-rotation-invariant", {**nu, w: nu[w] + eps, turned: nu[turned] - eps}

    def test_triple_measure_checks_match_reference(self):
        rng = random.Random("triple-checks")
        for kappa in (2, 3, 4):
            for _ in range(4):
                for label, nu in self.measures(rng, kappa):
                    expected = raised(reference_triple_check, kappa, nu)
                    assert (expected is None) == (label == "valid"), label
                    assert raised(exact_triple, kappa, nu) == expected
                    floats = {w: float(v) for w, v in nu.items()}
                    assert raised(TripleMeasure, kappa, tuple(floats.values())) == \
                        raised(reference_triple_check, kappa, floats)

    @staticmethod
    def pair_tables(rng, kappa):
        """Seeded symmetric pair tables {(u, v): value}: rank one with square
        diagonals, square diagonals off rank one, non-square diagonals near
        and far from rank one, and each in floats."""
        rho = random_marginal(rng, kappa)
        table = {(u, v): rho[u] * rho[v] for u in range(kappa) for v in range(kappa)}
        off = {**table, (0, 1): 2 * table[(0, 1)], (1, 0): 2 * table[(1, 0)]}
        for near in (F(1, 10 ** 15), F(1, 100)):
            # rho_0^2 (1 + near) is not a square: near passes the float test
            yield {**table, (0, 0): table[(0, 0)] * (1 + near)}
        for exact in (table, off):
            yield exact
            yield {key: float(v) for key, v in exact.items()}

    def test_factor_rank_one_matches_reference(self):
        rng = random.Random("rank-one")
        outcomes = set()
        for kappa in (2, 3, 4):
            for _ in range(5):
                for table in self.pair_tables(rng, kappa):
                    values = [table[(u, v)] for u in range(kappa) for v in range(kappa)]
                    exact = all(isinstance(v, F) for v in values)
                    values, den = over_common_denominator(values) if exact else (values, None)
                    got = _factor_rank_one(kappa, values, den, 1e-9)
                    if got is not None:
                        weights, den = got
                        got = [F(v, den) for v in weights] if den else weights
                    expected = reference_factor_rank_one(kappa, table, 1e-9)
                    assert (got and [pinned(v) for v in got]) == \
                        (expected and [pinned(v) for v in expected])
                    outcomes.add((exact, None if got is None else type(got[0]).__name__))
        assert outcomes == {(True, "Fraction"), (True, "float"), (True, None),
                            (False, "float"), (False, None)}

    def test_family_samples_match_fraction_reference(self):
        # exact solutions, their vertices, centroid and samples are ints over
        # one denominator; read as Fractions they are the reference's, and
        # float systems give the reference's floats bit for bit
        dims = set()
        for rows, n in family_systems("families"):
            variables = list(range(n)) + list(range(n))[::2]
            columns = variables  # repeated columns, as orbits expand to words
            for table, tol in ((rows, 0.0), ([{c: float(v) for c, v in row.items()}
                                              for row in rows], 1e-12)):
                sol = solve_linear(table, n, tol)
                family = _family(variables, sol, columns)
                reference = reference_family(variables, fraction_solution(sol), columns)
                assert (family.den is None) == bool(tol)
                if tol == 0:
                    assert fraction_family(family) == reference
                    assert all(type(v) is int for p in family.samples for v in p)
                else:
                    read = fraction_family(family)
                    assert [[pinned(v) for v in p] for p in read[2] + read[3]] == \
                        [[pinned(v) for v in p] for p in reference[2] + reference[3]]
                dims.add(sol.dimension)
        assert dims == {0, 1, 2, 3, 4}

    def test_mixed_rate_families_match_reference(self):
        # a float family (the table mixes Fractions and floats) whose active
        # rows can be all Fractions: t is read over its denominator, and
        # every vertex is listed once
        T = JumpRateMatrix(Alphabet(2), 2, {((0, 1), (1, 0)): 0.5, ((0, 0), (1, 1)): F(1),
                                            ((1, 1), (0, 0)): F(1)})
        for family in (_cycle_system(T, 2)[1], solve_cycle3_system(T)):
            columns = range(len(family.variables))
            reference = reference_family(family.variables, family.solution, columns)
            assert family.den is None and len(set(family.vertices)) == len(family.vertices)
            assert [[pinned(v) for v in p] for p in family.vertices + family.samples] == \
                [[pinned(v) for v in p] for p in reference[2] + reference[3]]
        assert [[pinned(v) for v in p] for p in _cycle_system(T, 2)[1].vertices] == \
            [[pinned(v) for v in p] for p in [(F(0), F(1, 2), F(1, 2), 0.0),
                                               (F(1, 2), F(0), F(0), 0.5)]]

    def test_float_marginal_and_equal_exact_one_are_checked_once(self, monkeypatch):
        # the one sample of this float table factors to (0.5, 0.5), which the
        # trial marginal [1, 1] and the Bernoulli root 1/2 give exactly
        T = JumpRateMatrix(Alphabet(2), 2, {((0, 0), (0, 1)): 1.0, ((1, 1), (1, 0)): 1.0,
                                            ((0, 1), (0, 0)): 1.0, ((1, 0), (1, 1)): 1.0})
        decided, real = [], search._kills_cycles3

        def counting(T, rows, weights, den=None, *args):
            decided.append((tuple(weights), den))
            return real(T, rows, weights, den, *args)

        monkeypatch.setattr(search, "_kills_cycles3", counting)
        report = find_product(T)
        assert report.family.samples == ((0.25,) * 4,)
        assert report.bernoulli_roots == (F(1, 2),)
        assert [[pinned(v) for v in weights] for weights, _ in decided] == [[pinned(0.5)] * 2]
        assert [[pinned(p) for p in rho] for rho, _ in report.candidates] == [[pinned(0.5)] * 2]


class TestFractionChurn:
    """The exact searches make Fractions only for what leaves them: at most
    half the constructions of the Fraction pipeline (find_markov 215,
    find_product 114 on tasep3(1, 2, 1))."""

    @pytest.mark.parametrize("search,bound", [(find_markov, 107), (find_product, 57)],
                             ids=["find_markov", "find_product"])
    def test_fraction_constructions(self, search, bound, monkeypatch):
        T = models.tasep3(r10=1, r20=2, r21=1).jrm
        made, new = [], fractions.Fraction.__new__

        def counting(cls, *args, **kwargs):
            made.append(cls)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(fractions.Fraction, "__new__", counting)
        search(T)
        monkeypatch.undo()
        assert len(made) <= bound
