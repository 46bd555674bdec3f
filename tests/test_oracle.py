import functools
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from psinv import oracle
from psinv.core import Alphabet, BoundaryRates, JumpRateMatrix, MarkovKernel, product_law
from psinv.criteria import check_markov_cycle, line_balance, markov_context, product_context
from psinv.linalg import stationary_distribution
from psinv.oracle import (CycleSpace, SegmentSpace, StateCapExceeded, TorusSpace,
                          absorbing_analysis, absorbing_exclusion, build_generator,
                          gibbs_measure, product_measure, segment_measure,
                          stationarity_residual)
from psinv.models import contact, hmc_example, stochastic_ising, tasep, voter

from conftest import random_jrm, random_kernel, random_marginal, rational
from z_reference import cyclic_chain_weight, induced_rate_cyclic, line_balance_raw

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

    def test_huge_sizes_are_refused_without_the_power(self):
        # 3^(10^7) alone takes seconds to compute, and its 4.7M digits are
        # past Python's int-to-string limit
        start = time.perf_counter()
        with pytest.raises(StateCapExceeded, match=r"^3\^10000000 states exceed the cap 1048576$"):
            oracle.check_state_cap(Alphabet(3), 10 ** 7)
        assert time.perf_counter() - start < 0.1

    def test_transition_budget(self):
        # 2^20 states are within the cap, but 20 windows x 8 moves x 2^17
        # sources are not within the budget; the check allocates nothing
        with pytest.raises(StateCapExceeded, match="20971520 transitions"):
            build_generator(stochastic_ising(F(1, 2)).jrm, CycleSpace(20))

    def test_short_cycles_count_against_the_budget(self, monkeypatch):
        # on Z/2Z the four flips of (a, b, a) apply, on each of the 2 windows
        monkeypatch.setattr(oracle, "TRANSITION_BUDGET", 7)
        with pytest.raises(StateCapExceeded, match="about 8 transitions"):
            build_generator(stochastic_ising(F(1, 2)).jrm, CycleSpace(2))

    @pytest.mark.parametrize("space", [CycleSpace(0), CycleSpace(-1), SegmentSpace(0)],
                             ids=["cycle-0", "cycle-negative", "segment-0"])
    def test_empty_spaces_rejected(self, space):
        with pytest.raises(ValueError, match=">= 1"):
            build_generator(tasep().jrm, space)


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


# ---------------------------------------------------------------------------
# the sink classes against Tarjan's algorithm

def _tarjan_sccs(ptr, succ):
    """Iterative Tarjan over CSR lists (the successors of x are
    succ[ptr[x]:ptr[x + 1]]); components come out in reverse topological
    order."""
    n = len(ptr) - 1
    index = [0] * n
    low = [0] * n
    on_stack = [False] * n
    visited = [False] * n
    stack = []
    sccs = []
    counter = 1
    for root in range(n):
        if visited[root]:
            continue
        work = [(root, ptr[root])]
        while work:
            node, edge_pos = work.pop()
            if not visited[node]:
                visited[node] = True
                index[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack[node] = True
            advanced = False
            for k in range(edge_pos, ptr[node + 1]):
                nxt = succ[k]
                if not visited[nxt]:
                    work.append((node, k + 1))
                    work.append((nxt, ptr[nxt]))
                    advanced = True
                    break
                if on_stack[nxt]:
                    low[node] = min(low[node], index[nxt])
            if advanced:
                continue
            if low[node] == index[node]:
                comp = []
                while True:
                    other = stack.pop()
                    on_stack[other] = False
                    comp.append(other)
                    if other == node:
                        break
                sccs.append(comp)
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
    return sccs


def reference_absorbing(gen):
    """The four AbsorbingReport fields from Tarjan's components (a sink is a
    component that no jump leaves) and a reverse search over Python sets."""
    ptr, succ = gen.indptr.tolist(), gen.dst.tolist()
    comp_of = {}
    for cid, comp in enumerate(_tarjan_sccs(ptr, succ)):
        comp_of.update((node, cid) for node in comp)
    has_exit = {comp_of[x] for x in range(gen.n_states)
                for y in succ[ptr[x]:ptr[x + 1]] if comp_of[x] != comp_of[y]}
    sinks = {}
    for node, cid in comp_of.items():
        if cid not in has_exit:
            sinks.setdefault(cid, []).append(node)
    absorbing = frozenset(node for comp in sinks.values() for node in comp)
    pred = [[] for _ in range(gen.n_states)]
    for x in range(gen.n_states):
        for y in succ[ptr[x]:ptr[x + 1]]:
            pred[y].append(x)
    seen = set(absorbing)
    frontier = list(absorbing)
    while frontier:
        for prev in pred[frontier.pop()]:
            if prev not in seen:
                seen.add(prev)
                frontier.append(prev)
    return (tuple(sorted(tuple(sorted(comp)) for comp in sinks.values())), absorbing,
            len(absorbing) < gen.n_states, len(seen) == gen.n_states)


class TestAbsorbingAgainstTarjan:
    """Sink classes by least-reachable-state labels against Tarjan's
    components, on all four report fields."""

    def check(self, T, space):
        gen = build_generator(T, space)
        report = absorbing_analysis(gen)
        assert (report.sink_components, report.absorbing_states, report.is_proper,
                report.reaches_all) == reference_absorbing(gen), space

    def test_random_tables_on_cycles_and_segments(self):
        rng = random.Random(41)
        for kappa in (2, 3):
            for range_ in (1, 2, 3):
                for entries in (2, 6, 12):
                    T = random_jrm(rng, kappa=kappa, range_=range_, max_entries=entries)
                    for n in range(1, 7 if kappa == 2 else 5):
                        self.check(T, CycleSpace(n))
                        self.check(T, SegmentSpace(n))
                    if range_ > 1:
                        beta = BoundaryRates(random_jrm(rng, kappa, range_ - 1, entries),
                                             random_jrm(rng, kappa, range_ - 1, entries))
                        for n in range(range_ - 1, 6 if kappa == 2 else 4):
                            self.check(T, SegmentSpace(n, beta))

    def test_random_tables_on_tori(self):
        rng = random.Random(42)
        for kappa, n in ((2, 2), (2, 3), (3, 2)):
            for entries in (2, 6, 20):
                self.check(random_jrm(rng, kappa=kappa, range_=4, max_entries=entries),
                           TorusSpace(n))

    def test_zero_dynamics(self):
        for n in (1, 3, 5):
            self.check(JumpRateMatrix(Alphabet(2), 2, {}), CycleSpace(n))

    def test_one_way_annihilation_has_many_singleton_classes(self):
        # a pair of particles annihilates and nothing creates one: every
        # state is its own component, and each state without an adjacent
        # pair is a sink
        T = JumpRateMatrix(Alphabet(2), 2, {((1, 1), (0, 0)): 1})
        for n in range(2, 11):
            self.check(T, CycleSpace(n))
            self.check(T, SegmentSpace(n))

    def test_tasep_conservation_classes(self):
        for n in range(2, 11):
            self.check(tasep().jrm, CycleSpace(n))

    def test_three_opinion_voter(self):
        for n in range(3, 8):
            self.check(voter(3).jrm, CycleSpace(n))

    def test_contact_process(self):
        for n in range(2, 10):
            self.check(contact(F(3, 2)).jrm, CycleSpace(n))


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

    @pytest.mark.parametrize("sizes,match", [
        pytest.param([], "nonempty", id="no-sizes"),
        pytest.param(range(5, 4), "nonempty", id="empty-range"),
        pytest.param([0, 3, 4], ">= 1", id="size-zero"),
        pytest.param([2], "below the range", id="below-range"),
    ])
    def test_sizes_without_a_bound_rejected(self, sizes, match):
        # the voter model has range 3: no size below 3 bounds any memory
        with pytest.raises(ValueError, match=match):
            absorbing_exclusion(voter().jrm, sizes)

    def test_smallest_bound_is_memory_zero(self):
        verdict = absorbing_exclusion(voter().jrm, [3])
        assert verdict.excluded
        assert verdict.memory_bound == 0


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


# ---------------------------------------------------------------------------
# an independent per-state reference for the array oracle
# ---------------------------------------------------------------------------

def _reference_windows(T, space):
    L, n = T.range_, space.n
    if isinstance(space, CycleSpace):
        return [([(s + i) % n for i in range(L)], T) for s in range(n)]
    if isinstance(space, TorusSpace):
        return [([(i + di) % n * n + (j + dj) % n for di in (0, 1) for dj in (0, 1)], T)
                for i in range(n) for j in range(n)]
    windows = [(list(range(s, s + L)), T) for s in range(n - L + 1)]
    if space.boundary is not None:
        windows += [(list(range(L - 1)), space.boundary.left),
                    (list(range(n - L + 1, n)), space.boundary.right)]
    return windows


def reference_generator(T, space):
    """Dict rows and exit rates, one state at a time, every rate added in
    generation order (window, then move)."""
    alphabet = T.alphabet
    n_sites = space.n ** 2 if isinstance(space, TorusSpace) else space.n
    rows = [{} for _ in range(alphabet.kappa ** n_sites)]
    exits = [F(0)] * len(rows)

    def add(src, dst, rate):
        if src != dst and rate != 0:
            rows[src][dst] = rows[src].get(dst, F(0)) + rate
            exits[src] += rate

    if isinstance(space, CycleSpace) and space.n < T.range_:
        words = list(alphabet.words(n_sites))
        for i, w in enumerate(words):
            for j, z in enumerate(words):
                add(i, j, induced_rate_cyclic(T, w, z))
        return rows, exits
    for index in range(len(rows)):
        w = alphabet.decode(index, n_sites)
        for sites, table in _reference_windows(T, space):
            for u, v, rate in table.entries():
                if tuple(w[k] for k in sites) == u:
                    z = list(w)
                    for site, letter in zip(sites, v):
                        z[site] = letter
                    add(index, alphabet.encode(z), rate)
    return rows, exits


def reference_residual(rows, exits, mu):
    acc = [-mu[x] * exits[x] for x in range(len(rows))]
    for y, row in enumerate(rows):
        for x, rate in row.items():
            acc[x] += mu[y] * rate
    return max(abs(v) for v in acc)


def reference_gibbs(kernel, n):
    alphabet = kernel.alphabet
    weights = [cyclic_chain_weight(kernel, alphabet.decode(i, n))
               for i in range(alphabet.kappa ** n)]
    total = sum(weights)
    return [w / total for w in weights]


def reference_product(rho, n_sites):
    out = []
    for i in range(len(rho) ** n_sites):
        weight = F(1)
        for a in Alphabet(len(rho)).decode(i, n_sites):
            weight *= rho[a]
        out.append(weight)
    return out


def _same(new, ref):
    """Equal values; where the reference is a float, the same float bit for bit."""
    if isinstance(ref, float):
        return isinstance(new, float) and new.hex() == ref.hex()
    return new == ref


def _close(new, ref):
    """Equal values; where the reference is a float, a float within 1e-13 of
    it, relative to its size (at least 1e-3): a float64 sum of the same few
    hundred terms in another order."""
    if isinstance(ref, float):
        return isinstance(new, float) and abs(new - ref) <= 1e-13 * max(abs(ref), 1e-3)
    return new == ref


def dense_periodic_table(rng, kappa, range_):
    """Moves from every word that repeats with a period n < range_: three to
    words of period n, and three to any words, most of which repeat with no
    period below range_ and so take no part on a short cycle."""
    words = list(Alphabet(kappa).words(range_))
    rates = {}
    for n in range(1, range_):
        periodic = [w for w in words if w == (w[:n] * range_)[:range_]]
        for u in periodic:
            for v in rng.choices(periodic, k=3) + rng.choices(words, k=3):
                if u != v:
                    rates[(u, v)] = rational(rng)
    return JumpRateMatrix(Alphabet(kappa), range_, rates)


def _as_float(T):
    return JumpRateMatrix(T.alphabet, T.range_, {(u, v): float(r) for u, v, r in T.entries()})


@pytest.mark.parametrize("as_float", [False, True], ids=["exact", "float"])
class TestAgainstReference:
    """The CSR generator, the measures and the residual against the per-state
    Fraction construction, on seeded random tables; float mode must agree
    bit for bit, since float sums depend on their order."""

    def check(self, T, space, mu, ref_mu, summed=_same):
        """`summed` compares the exit rates and residuals, which are sums."""
        gen = build_generator(T, space)
        rows, exits = reference_generator(T, space)
        assert len(gen.rows) == len(rows)
        for x, ref_row in enumerate(rows):
            row = gen.rows[x]
            assert sorted(row) == sorted(ref_row), (space, x)
            assert all(_same(row[y], rate) for y, rate in ref_row.items()), (space, x)
            assert summed(gen.exit_rates[x], exits[x]), (space, x)
        assert len(mu) == len(ref_mu)
        assert all(_same(a, b) for a, b in zip(mu, ref_mu)), space
        expected = reference_residual(rows, exits, ref_mu)
        assert summed(stationarity_residual(gen, mu), expected), space
        assert summed(stationarity_residual(gen, list(ref_mu)), expected), space

    def table(self, rng, kappa, range_, as_float):
        T = random_jrm(rng, kappa=kappa, range_=range_)
        return _as_float(T) if as_float else T

    def test_cycles(self, as_float):
        rng = random.Random(31)
        for kappa in (2, 3):
            for range_ in (2, 3):
                T = self.table(rng, kappa, range_, as_float)
                M = random_kernel(rng, kappa=kappa)
                if as_float:
                    M = MarkovKernel.from_matrix([[float(p) for p in row] for row in M.matrix()])
                for n in range(1, 7):
                    self.check(T, CycleSpace(n), gibbs_measure(M, n), reference_gibbs(M, n))

    def test_short_cycles_of_dense_periodic_tables(self, as_float):
        # the reference adds each state's exit rate target by target, the
        # generator window by window: float exit rates agree to rounding
        rng = random.Random(35)
        for kappa in (2, 3, 4):
            for range_ in (2, 3, 4, 5):
                T = dense_periodic_table(rng, kappa, range_)
                T = _as_float(T) if as_float else T
                rho = random_marginal(rng, kappa)
                if as_float:
                    rho = [float(p) for p in rho]
                for n in range(1, range_):
                    self.check(T, CycleSpace(n), product_measure(rho, n),
                               reference_product(rho, n), summed=_close)

    def test_flips_merged_from_three_windows(self, as_float):
        # every single-site flip is a move of three overlapping windows, so
        # merged rates are sums of three terms, whose float value depends on
        # the order of the additions
        rng = random.Random(34)
        words = list(Alphabet(2).words(3))
        rates = {(u, tuple(1 - a if k == p else a for k, a in enumerate(u))): rational(rng)
                 for u in words for p in range(3)}
        T = JumpRateMatrix(Alphabet(2), 3, rates)
        T = _as_float(T) if as_float else T
        rho = [0.25, 0.75] if as_float else [F(1, 4), F(3, 4)]
        for n in (3, 4, 5):
            self.check(T, CycleSpace(n), product_measure(rho, n), reference_product(rho, n))

    def test_segments_with_boundary_rates(self, as_float):
        rng = random.Random(32)
        for kappa in (2, 3):
            for range_ in (2, 3):
                T = self.table(rng, kappa, range_, as_float)
                beta = BoundaryRates(self.table(rng, kappa, range_ - 1, as_float),
                                     self.table(rng, kappa, range_ - 1, as_float))
                rho = random_marginal(rng, kappa)
                if as_float:
                    rho = [float(p) for p in rho]
                for n in range(range_ - 1, 6):
                    for boundary in (None, beta):
                        self.check(T, SegmentSpace(n, boundary), product_measure(rho, n),
                                   reference_product(rho, n))

    def test_tori(self, as_float):
        rng = random.Random(33)
        for kappa, n in ((2, 2), (2, 3), (3, 2)):
            T = self.table(rng, kappa, 4, as_float)
            rho = random_marginal(rng, kappa)
            if as_float:
                rho = [float(p) for p in rho]
            self.check(T, TorusSpace(n), product_measure(rho, n * n),
                       reference_product(rho, n * n))


class TestScale:
    """A cycle that the per-state construction could not afford: the Ising
    chain on Z/16Z has 65,536 states and 2^20 transitions."""

    def test_ising_cycle_16(self):
        spec = stochastic_ising(F(1, 2))
        mu = gibbs_measure(spec.kernel, 16)
        gen = build_generator(spec.jrm, CycleSpace(16))
        assert gen.n_states == 2 ** 16 and len(gen.dst) == 2 ** 20
        assert stationarity_residual(gen, mu) == 0
        rates = {(u, v): r for u, v, r in spec.jrm.entries()}
        rates[((0, 0, 0), (0, 1, 0))] *= 2
        twin = build_generator(JumpRateMatrix(Alphabet(2), 3, rates), CycleSpace(16))
        assert stationarity_residual(twin, mu) > 0


class TestExactPaths:
    """Exact arrays are int64 under the a-priori bound and Python ints in
    object arrays above it.  Lowering INT64_LIMIT forces the object path on
    the same instances; both must give the same rows, exit rates, measures
    and residuals."""

    def results(self, T, space, measure):
        gen = build_generator(T, space)
        mu = measure()
        return gen, mu, [stationarity_residual(gen, mu), stationarity_residual(gen, list(mu))]

    def test_int64_and_object_paths_agree(self, monkeypatch):
        rng = random.Random(44)
        ising = stochastic_ising(F(1, 3))
        cases = [(ising.jrm, CycleSpace(10), lambda: gibbs_measure(ising.kernel, 10))]
        for kappa, range_ in ((2, 2), (3, 2), (2, 3)):
            T = random_jrm(rng, kappa=kappa, range_=range_)
            M = random_kernel(rng, kappa=kappa)
            rho = random_marginal(rng, kappa)
            beta = BoundaryRates(random_jrm(rng, kappa, range_ - 1),
                                 random_jrm(rng, kappa, range_ - 1))
            cases += [(T, CycleSpace(5), lambda M=M: gibbs_measure(M, 5)),
                      (T, SegmentSpace(5, beta), lambda rho=rho: product_measure(rho, 5))]
        T = random_jrm(rng, kappa=2, range_=4, max_entries=10)
        cases.append((T, TorusSpace(3), lambda: product_measure([F(2, 7), F(5, 7)], 9)))
        for T, space, measure in cases:
            gen, mu, residuals = self.results(T, space, measure)
            with monkeypatch.context() as patch:
                patch.setattr(oracle, "INT64_LIMIT", 0)
                wide_gen, wide_mu, wide_residuals = self.results(T, space, measure)
            assert gen.rate.dtype == mu.num.dtype == np.int64
            assert wide_gen.rate.dtype == wide_mu.num.dtype == object
            assert gen.exact and wide_gen.exact and mu.exact and wide_mu.exact
            assert gen.rows == wide_gen.rows, space
            assert list(gen.exit_rates) == list(wide_gen.exit_rates), space
            assert list(mu) == list(wide_mu), space
            assert residuals == wide_residuals, space
            assert all(type(r) is Fraction for r in residuals)

    @pytest.mark.parametrize("x,n", [(F(2, 7), 8), (F(2, 9), 7), (F(3, 5), 10)])
    def test_each_side_bounded_by_itself(self, monkeypatch, x, n):
        # top(mu) * top(exits) * (1 + in-degree) has 63 or 64 bits here,
        # while the outflows and top(mu) times the largest column sum of the
        # rates stay below 2^62: the residual runs on int64, invariant or
        # not, and equals the object path's
        spec = stochastic_ising(x)
        rates = {(u, v): r for u, v, r in spec.jrm.entries()}
        rates[((0, 0, 0), (0, 1, 0))] *= F(3, 2)
        made = []
        real = oracle._ints

        def spy(values, bound):
            out = real(values, bound)
            made.append(out.dtype)
            return out
        for T in (spec.jrm, JumpRateMatrix(Alphabet(2), 3, rates)):
            gen, mu = build_generator(T, CycleSpace(n)), gibbs_measure(spec.kernel, n)
            terms = 1 + int(np.bincount(gen.dst).max())
            assert oracle._top(mu.num) * oracle._top(gen.exits) * terms >= oracle.INT64_LIMIT
            with monkeypatch.context() as patch:
                patch.setattr(oracle, "_ints", spy)
                residual = stationarity_residual(gen, mu)
            assert made[-1] == np.int64  # the weights
            with monkeypatch.context() as patch:
                patch.setattr(oracle, "INT64_LIMIT", 0)
                wide_gen = build_generator(T, CycleSpace(n))
                wide_mu = gibbs_measure(spec.kernel, n)
                assert wide_gen.rate.dtype == wide_mu.num.dtype == object
                assert stationarity_residual(wide_gen, wide_mu) == residual
            assert (residual == 0) == (T is spec.jrm)

    @pytest.mark.parametrize("x,dtype", [(F(1, 3), np.int64), (F(2, 7), object)],
                             ids=["x-1/3-int64", "x-2/7-object"])
    def test_ising_n14_path(self, monkeypatch, x, dtype):
        # at x = 2/7 the Gibbs numerators have 79 bits, at x = 1/3 45 bits
        spec = stochastic_ising(x)
        mu = gibbs_measure(spec.kernel, 14)
        gen = build_generator(spec.jrm, CycleSpace(14))
        assert mu.num.dtype == dtype and gen.rate.dtype == np.int64
        made = []
        real = oracle._ints

        def spy(values, bound):
            out = real(values, bound)
            made.append(out.dtype)
            return out
        monkeypatch.setattr(oracle, "_ints", spy)
        assert stationarity_residual(gen, mu) == 0
        assert made == [dtype]  # the weights, which fix the type of every product and sum


# ---------------------------------------------------------------------------
# the exact residual, window by window
# ---------------------------------------------------------------------------

def digit_table(rng, kappa, range_, digits, max_entries=6):
    """A random_jrm table whose rates have `digits`-digit numerators and
    denominators."""
    T = random_jrm(rng, kappa=kappa, range_=range_, max_entries=max_entries)
    lo = 10 ** (digits - 1)
    return JumpRateMatrix(T.alphabet, range_, {(u, v): rational(rng, lo, 10 * lo - 1)
                                               for u, v, _ in T.entries()})


def random_measure(rng, size, digits):
    """`size` positive weights with `digits`-digit numerators over one
    `digits`-digit denominator."""
    lo = 10 ** (digits - 1)
    den = rng.randint(lo, 10 * lo - 1)
    return [Fraction(rng.randint(lo, 10 * lo - 1), den) for _ in range(size)]


@functools.lru_cache(maxsize=None)
def larger_torus_case(digits, kappa, n):
    """A seeded table on the n x n torus, a random measure and their
    per-state reference residual, built once for the int64 and object runs."""
    rng = random.Random(1000 * digits + 10 * kappa + n)
    # the reference visits the 65,536 states of the 4 x 4 torus one by one
    T = digit_table(rng, kappa, 4, digits, max_entries=2 if n == 4 else 4)
    mu = random_measure(rng, kappa ** (n * n), digits)
    return T, mu, reference_residual(*reference_generator(T, TorusSpace(n)), mu)


@pytest.mark.parametrize("digits", [1, 7], ids=["1-digit", "7-digit"])
@pytest.mark.parametrize("limit", ["int64", "object"])
class TestWindowResidual:
    """The exact residual sums each window's local generator applied to mu;
    it must equal the per-state reference on both integer paths, for random
    measures and product measures."""

    def check(self, monkeypatch, limit, T, space, rng, digits):
        if limit == "object":
            monkeypatch.setattr(oracle, "INT64_LIMIT", 0)
        gen = build_generator(T, space)
        rows, exits = reference_generator(T, space)
        for mu in (random_measure(rng, gen.n_states, digits),
                   product_measure(random_marginal(rng, T.alphabet.kappa), gen.n_sites)):
            residual = stationarity_residual(gen, mu)
            assert type(residual) is Fraction, space
            assert residual == reference_residual(rows, exits, mu), space

    def test_cycles_shorter_than_the_range(self, monkeypatch, limit, digits):
        rng = random.Random(61 + digits)
        for kappa in (2, 3, 4):
            for range_ in (2, 3, 4):
                T = dense_periodic_table(rng, kappa, range_)
                if digits > 1:
                    T = JumpRateMatrix(T.alphabet, range_, {
                        (u, v): rational(rng, 10 ** 6, 10 ** 7 - 1) for u, v, _ in T.entries()})
                for n in range(1, range_):
                    self.check(monkeypatch, limit, T, CycleSpace(n), rng, digits)

    def test_segments_with_boundary_rates(self, monkeypatch, limit, digits):
        rng = random.Random(62 + digits)
        for kappa in (2, 3, 4):
            for range_ in (2, 3):
                T = digit_table(rng, kappa, range_, digits)
                beta = BoundaryRates(digit_table(rng, kappa, range_ - 1, digits),
                                     digit_table(rng, kappa, range_ - 1, digits))
                for n in range(range_ - 1, 6):
                    if kappa ** n <= 256:
                        self.check(monkeypatch, limit, T, SegmentSpace(n, beta), rng, digits)

    def test_tori(self, monkeypatch, limit, digits):
        rng = random.Random(63 + digits)
        for kappa, n in ((2, 2), (3, 2), (4, 2), (2, 3)):
            T = digit_table(rng, kappa, 4, digits, max_entries=12)
            self.check(monkeypatch, limit, T, TorusSpace(n), rng, digits)

    @pytest.mark.parametrize("kappa, n", [(3, 3), (2, 4)])
    def test_larger_tori(self, monkeypatch, limit, digits, kappa, n):
        T, mu, expected = larger_torus_case(digits, kappa, n)
        if limit == "object":
            monkeypatch.setattr(oracle, "INT64_LIMIT", 0)
        assert stationarity_residual(build_generator(T, TorusSpace(n)), mu) == expected


class TestLazyGenerator:
    def test_exact_residual_compresses_nothing(self):
        spec = stochastic_ising(F(1, 3))
        gen = build_generator(spec.jrm, CycleSpace(8))
        assert stationarity_residual(gen, gibbs_measure(spec.kernel, 8)) == 0
        assert "_csr" not in vars(gen)
        # a float measure goes through the CSR arrays, built on first read
        assert stationarity_residual(gen, [1 / 256] * 256) > 0
        assert "_csr" in vars(gen)

    def test_rate_type_is_fixed_at_build_time(self, monkeypatch):
        spec = stochastic_ising(F(1, 3))
        with monkeypatch.context() as patch:
            patch.setattr(oracle, "INT64_LIMIT", 0)
            gen = build_generator(spec.jrm, CycleSpace(6))
        assert "_csr" not in vars(gen)
        assert gen.values.dtype == gen.rate.dtype == gen.exits.dtype == object
