import gc
import inspect
import itertools
import weakref
from fractions import Fraction

import pytest

from psinv.core import Alphabet, JumpRateMatrix, MarkovKernel
from psinv.criteria import (check_markov_cycle, check_markov_line,
                            check_markov_small_cycles, check_product_cycle,
                            check_product_general_graph, check_product_line,
                            cycle_balance, equivalence_panel,
                            has_detailed_balance_product, is_reversible_for_chain,
                            line_balance, markov_context, PairRateField,
                            product_context, restrict_support, symmetrize,
                            tail_bounds_advisory, z_table)
from psinv import criteria, lattice2d, segment
from psinv.core import BoundaryRates
from psinv.linalg import stationary_distribution
from psinv.models import contact, hmc_example, stochastic_ising, tasep, tasep3, voter

from conftest import random_jrm, random_kernel, random_marginal, rational
from z_reference import cyclic_window_sum, induced_rate_cyclic, window_sum

F = Fraction


def tasep_product_ctx(p=F(1, 2)):
    return product_context(tasep().jrm, [1 - p, p])


def ising_ctx():
    spec = stochastic_ising(F(1, 2))
    return markov_context(spec.jrm, spec.kernel)


def reference_cycle_balances(ctx, n):
    """The normalized balance of every cyclic word x of length n straight
    from the induced rates: every other word w feeds x at rate
    induced_rate_cyclic(T, w, x), weighted by its cyclic chain weight."""
    m = ctx.memory
    kernel = ctx.law.kernel
    words = list(ctx.alphabet.words(n))
    weight = {}
    for w in words:
        weight[w] = F(1)
        for j in range(n):
            weight[w] *= kernel.step_weight(tuple(w[(j + i) % n] for i in range(m + 1)))
    rate = {(w, z): induced_rate_cyclic(ctx.T, w, z) for w in words for z in words if w != z}
    balances = {}
    for x in words:
        others = [w for w in words if w != x]
        inflow = sum((weight[w] * rate[(w, x)] for w in others), F(0))
        outflow = sum((rate[(x, w)] for w in others), F(0))
        balances[x] = (inflow - weight[x] * outflow) / weight[x]
    return balances


def cycle_window_sum(ctx, x):
    """The formal wrapped window sum of Z, defined for any n >= 1: the cycle
    balance for n >= m + L, the small-cycles criterion object below."""
    return cyclic_window_sum(z_table(ctx).values, ctx.window_length, tuple(x))


def deletion_defect(ctx, x):
    """Window sums of Z of the critical-length word x minus those of x with
    its middle letter (position s) deleted."""
    values = z_table(ctx).values
    s = ctx.window_length
    return window_sum(values, s, x) - window_sum(values, s, x[:s - 1] + x[s:])


def replacement_defect(ctx, x, y):
    """Window sums of Z of the critical-length word x minus those of x with
    its middle letter set to y."""
    values = z_table(ctx).values
    s = ctx.window_length
    return window_sum(values, s, x) - window_sum(values, s, x[:s - 1] + (y,) + x[s:])


def periodic_moves(rng, alphabet, range_, count=3):
    """Moves u -> v whose windows repeat with a period p < L, so that they
    still act on cycles shorter than the window."""
    rates = {}
    for _ in range(count):
        p = rng.randint(1, max(1, range_ - 1))
        u = [rng.randrange(alphabet.kappa) for _ in range(p)]
        v = [rng.randrange(alphabet.kappa) for _ in range(p)]
        if u != v:
            rates[(tuple(u[j % p] for j in range(range_)),
                   tuple(v[j % p] for j in range(range_)))] = rational(rng)
    return JumpRateMatrix(alphabet, range_, rates)


def voter_ctx(rng=None):
    M = MarkovKernel.from_matrix([[F(1, 2), F(1, 2)], [F(1, 3), F(2, 3)]])
    return markov_context(voter().jrm, M)


class TestZTable:
    def test_tasep_product_values(self):
        for p in (F(1, 4), F(1, 2), F(9, 10)):
            table = z_table(tasep_product_ctx(p))
            assert table[(0, 1)] == 1
            assert table[(1, 0)] == -1
            assert table[(0, 0)] == 0
            assert table[(1, 1)] == 0

    def test_zero_dynamics_zero_table(self, rng):
        T = JumpRateMatrix(Alphabet(2), 2, {})
        ctx = markov_context(T, random_kernel(rng))
        assert all(v == 0 for v in z_table(ctx).values.values())

    def test_ising_all_32_zero(self):
        ctx = ising_ctx()
        table = z_table(ctx)
        assert len(table.values) == 32
        assert all(v == 0 for v in table.values.values())

    def test_zero_kernel_entry_rejected(self):
        kernel = MarkovKernel.from_matrix([[F(1), F(0)], [F(1, 2), F(1, 2)]])
        with pytest.raises(ValueError, match="restrict_support"):
            markov_context(tasep().jrm, kernel)

    @pytest.mark.parametrize("rows", [[[F(1), F(0)], [F(1, 2), F(1, 2)]],
                                      [[F(1), F(0)], [F(0), F(1)]]])
    def test_zero_kernel_entry_rejected_before_any_solve(self, rows):
        # the second kernel is reducible: it has no unique stationary law
        with pytest.raises(ValueError, match="restrict_support"):
            markov_context(tasep().jrm, MarkovKernel.from_matrix(rows))

    def test_balance_lemma_weighted_row_sums(self, rng):
        # sum over the window of Z times the chain weight vanishes for every
        # context pair, whatever the rates
        for _ in range(25):
            T = random_jrm(rng, kappa=2, range_=2)
            M = random_kernel(rng, kappa=2)
            ctx = markov_context(T, M)
            table = z_table(ctx)
            for a in (0, 1):
                for d in (0, 1):
                    acc = sum(table[(a, b, c, d)] * M.prob((a,), b) *
                              M.prob((b,), c) * M.prob((c,), d)
                              for b in (0, 1) for c in (0, 1))
                    assert acc == 0

    def test_balance_lemma_general_memory(self, rng):
        for _ in range(5):
            T = random_jrm(rng, kappa=2, range_=3)
            M = random_kernel(rng, kappa=2, memory=1)
            ctx = markov_context(T, M)
            table = z_table(ctx)
            for a in (0, 1):
                for c in (0, 1):
                    acc = F(0)
                    for b in Alphabet(2).words(3):
                        w = (a,) + b + (c,)
                        weight = F(1)
                        for j in range(4):
                            weight *= M.prob((w[j],), w[j + 1])
                        acc += table[w] * weight
                    assert acc == 0

    def test_linearity_in_rates(self, rng):
        M = random_kernel(rng)
        T1 = random_jrm(rng)
        T2 = random_jrm(rng)
        a, b = F(2), F(3)
        t_combined = z_table(markov_context(T1.scaled(a).plus(T2.scaled(b)), M))
        t1 = z_table(markov_context(T1, M))
        t2 = z_table(markov_context(T2, M))
        for w in t_combined.values:
            assert t_combined[w] == a * t1[w] + b * t2[w]


class TestLettersOutsideTheAlphabet:
    """A letter outside {0..kappa-1} is no word of the table: its code would
    be another word's, so the lookups and balances reject it."""

    CONTACT_KERNEL = [[F(1, 2), F(1, 2)], [F(1, 3), F(2, 3)]]

    @pytest.mark.parametrize("word", [(0, 1, 0, 2), (0, 1, 1, -1)])
    def test_z_table_has_no_entry(self, word):
        ctx = markov_context(contact(1).jrm, MarkovKernel.from_matrix(self.CONTACT_KERNEL))
        with pytest.raises(KeyError):
            z_table(ctx)[word]
        assert word not in z_table(ctx).values

    @pytest.mark.parametrize("word", [(0, 1, -1), (0, 1, 2), (2,), (0, 0, 0, 0, 2)])
    def test_balances_reject(self, word):
        ctx = markov_context(contact(1).jrm, MarkovKernel.from_matrix(self.CONTACT_KERNEL))
        with pytest.raises(ValueError, match="leaves the alphabet"):
            cycle_balance(ctx, word)
        with pytest.raises(ValueError, match="leaves the alphabet"):
            line_balance(ctx, word)


class TestCycleBalance:
    def test_tasep_all_small_cycles_zero(self):
        ctx = tasep_product_ctx(F(1, 3))
        for n in range(1, 7):
            for x in Alphabet(2).words(n):
                assert cycle_balance(ctx, x) == 0

    def test_zero_dynamics(self, rng):
        T = JumpRateMatrix(Alphabet(2), 2, {})
        ctx = markov_context(T, random_kernel(rng))
        for x in Alphabet(2).words(4):
            assert cycle_balance(ctx, x) == 0

    def test_three_colour_overtaking_conservative_rates(self, rng):
        # rates (1, 2, 1) satisfy the conservation relation, so every
        # full-support product kills all length-3 cycle balances
        T = tasep3(1, 2, 1).jrm
        for _ in range(5):
            rho = random_marginal(rng, kappa=3)
            ctx = product_context(T, rho)
            for x in Alphabet(3).words(3):
                assert cycle_balance(ctx, x) == 0

    def test_rotation_invariance(self, rng):
        for _ in range(10):
            ctx = markov_context(random_jrm(rng), random_kernel(rng))
            for n in (3, 4, 5):
                for x in Alphabet(2).words(n):
                    base = cycle_balance(ctx, x)
                    for k in range(1, n):
                        assert cycle_balance(ctx, x[k:] + x[:k]) == base

    def test_empty_cycle_rejected(self):
        # a cycle's jumps are read on codes of its n >= 1 sites
        with pytest.raises(ValueError, match="at least one site"):
            cycle_balance(tasep_product_ctx(), ())

    def test_window_sum_matches_direct_balance_at_large_n(self, rng):
        # above n = m + L the formal window sum is the true normalized balance
        from psinv.criteria import _cycle_balance_direct
        for _ in range(5):
            ctx = markov_context(random_jrm(rng), random_kernel(rng))
            for n in (3, 4):
                for x in Alphabet(2).words(n):
                    assert cycle_window_sum(ctx, x) == _cycle_balance_direct(ctx, x)

    def test_short_cycles_match_induced_rate_reference(self, rng):
        # below n = m + L windows overlap themselves; a move then acts only
        # when it writes the same letter on both copies of a site.  Three
        # colours stop at cycles of length 4 (the reference is quadratic in
        # the 3^n words)
        for kappa in (2, 3):
            for L in range(1, 5):
                for m in range(3):
                    if kappa == 3 and m + L > 5:
                        continue
                    T = random_jrm(rng, kappa=kappa, range_=L, max_entries=8)
                    T = T.plus(periodic_moves(rng, T.alphabet, L))
                    ctx = markov_context(T, random_kernel(rng, kappa=kappa, memory=m))
                    for n in range(1, m + L):
                        for x, balance in reference_cycle_balances(ctx, n).items():
                            assert cycle_balance(ctx, x) == balance

    def test_scaling_preserves_verdicts(self, rng):
        T = random_jrm(rng)
        M = random_kernel(rng)
        base = check_markov_line(markov_context(T, M))
        scaled = check_markov_line(markov_context(T.scaled(F(7, 3)), M))
        assert base.invariant == scaled.invariant
        if base.witness:
            assert scaled.witness[0] == base.witness[0]


class TestDefects:
    def test_identity_replacement_zero(self, rng):
        ctx = markov_context(random_jrm(rng), random_kernel(rng))
        h = ctx.critical_length
        s = ctx.window_length
        for x in list(Alphabet(2).words(h))[:16]:
            assert replacement_defect(ctx, x, x[s - 1]) == 0

    def test_replacement_antisymmetry(self, rng):
        ctx = markov_context(random_jrm(rng), random_kernel(rng))
        s = ctx.window_length
        for x in list(Alphabet(2).words(ctx.critical_length))[:16]:
            for y in (0, 1):
                swapped = x[:s - 1] + (y,) + x[s:]
                assert replacement_defect(ctx, x, y) == \
                    -replacement_defect(ctx, swapped, x[s - 1])

    def test_ising_defects_vanish(self):
        ctx = ising_ctx()
        h = ctx.critical_length
        for x in list(Alphabet(2).words(h))[::37]:
            assert deletion_defect(ctx, x) == 0
            assert replacement_defect(ctx, x, 1) == 0

    def test_zero_dynamics_defects(self, rng):
        T = JumpRateMatrix(Alphabet(2), 2, {})
        ctx = markov_context(T, random_kernel(rng))
        for x in list(Alphabet(2).words(7))[:8]:
            assert deletion_defect(ctx, x) == 0


class TestLineBalance:
    def test_zero_dynamics(self, rng):
        T = JumpRateMatrix(Alphabet(2), 2, {})
        ctx = markov_context(T, random_kernel(rng))
        for n in (1, 2, 3):
            for x in Alphabet(2).words(n):
                assert line_balance(ctx, x) == 0

    def test_invariant_pair_all_words(self):
        ctx = ising_ctx()
        for n in range(1, 6):
            for x in Alphabet(2).words(n):
                assert line_balance(ctx, x) == 0

    def test_tasep_single_letter(self):
        for p in (F(1, 4), F(2, 3)):
            ctx = tasep_product_ctx(p)
            for a in (0, 1):
                assert line_balance(ctx, (a,)) == 0


class TestLineDeciders:
    def test_ising_invariant_with_certificate(self):
        report = check_markov_line(ising_ctx())
        assert report.invariant
        assert report.certificate is not None
        assert report.certificate.check(z_table(ising_ctx()))

    def test_certificate_telescopes(self):
        ctx = ising_ctx()
        table = z_table(ctx)
        cert = check_markov_line(ctx).certificate
        s = ctx.window_length
        for x in list(Alphabet(2).words(9))[::41]:
            total = sum(table[x[i:i + s]] for i in range(len(x) - s + 1))
            assert total == cert.values[x[-(s - 1):]] - cert.values[x[:s - 1]]

    def test_voter_not_invariant(self):
        report = check_markov_line(voter_ctx())
        assert not report.invariant
        word, residual = report.witness
        assert residual != 0
        assert len(word) == 9

    def test_hmc_invariant(self):
        spec = hmc_example()
        report = check_markov_line(markov_context(spec.jrm, spec.kernel))
        assert report.invariant

    def test_witness_is_lexicographically_first(self, rng):
        for _ in range(10):
            ctx = markov_context(random_jrm(rng), random_kernel(rng))
            report = check_markov_line(ctx)
            if report.invariant:
                continue
            table = z_table(ctx)
            for word in itertools.product((0, 1), repeat=ctx.window_length):
                padded = word + (0,) * (ctx.window_length - 1)
                value = cyclic_window_sum(table.values, ctx.window_length, padded)
                if value != 0:
                    assert report.witness[0] == padded
                    break
                assert padded != report.witness[0]

    def test_product_line_tasep(self):
        for p in (F(1, 4), F(1, 2), F(9, 10)):
            report = check_product_line(tasep().jrm, [1 - p, p])
            assert report.invariant

    def test_product_line_requires_full_support(self):
        with pytest.raises(ValueError):
            check_product_line(tasep().jrm, [F(1), F(0)])

    def test_three_colour_uniform_rates_not_invariant(self, rng):
        T = tasep3(1, 1, 1).jrm
        for _ in range(5):
            report = check_product_line(T, random_marginal(rng, kappa=3))
            assert not report.invariant
            assert report.witness is not None

    def test_zero_dynamics_always_invariant(self, rng):
        T = JumpRateMatrix(Alphabet(3), 2, {})
        report = check_product_line(T, random_marginal(rng, kappa=3))
        assert report.invariant


class TestSmallCycles:
    def test_agrees_with_line_decider(self, rng):
        for kappa in (2, 3):
            for _ in range(15):
                T = random_jrm(rng, kappa=kappa)
                M = random_kernel(rng, kappa=kappa)
                ctx = markov_context(T, M)
                assert check_markov_small_cycles(ctx).invariant == \
                    check_markov_line(ctx).invariant

    def test_tasep_bernoulli_invariant(self):
        p = F(1, 3)
        M = MarkovKernel.from_matrix([[1 - p, p], [1 - p, p]])
        ctx = markov_context(tasep().jrm, M)
        assert check_markov_small_cycles(ctx).invariant

    def test_ising_needs_only_length_two(self):
        ctx = ising_ctx()
        report = check_markov_small_cycles(ctx)
        assert report.invariant
        assert report.criteria_evaluated == ("cycle-window-sum-2",)

    def test_constant_word_defect_detected(self, rng):
        # a rate into the all-zero window makes Z(0..0) != 0
        T = JumpRateMatrix(Alphabet(2), 2, {((1, 1), (0, 0)): 1})
        ctx = markov_context(T, random_kernel(rng))
        report = check_markov_small_cycles(ctx)
        assert not report.invariant

    def test_rejects_products(self):
        with pytest.raises(ValueError):
            check_markov_small_cycles(tasep_product_ctx())


def report_fields(report):
    return (report.invariant, report.criterion, report.witness, report.words_checked,
            report.criteria_evaluated)


def memory2_kernel(rows):
    """Memory-2 kernel over two letters from its rows, keyed by context."""
    return MarkovKernel(Alphabet(2), 2, {(ctx, y): rows[ctx][y]
                                         for ctx in rows for y in (0, 1)})


class TestReportPins:
    """Whole reports of passing and failing instances, pinned exactly."""

    def test_small_cycles_memory2(self):
        p = F(1, 3)
        bernoulli = memory2_kernel({ctx: [1 - p, p] for ctx in Alphabet(2).words(2)})
        assert report_fields(check_markov_small_cycles(markov_context(tasep().jrm, bernoulli))) \
            == (True, "small-cycles", None, 24, ("cycle-window-sum-3", "cycle-window-sum-4"))
        low, high = [F(1, 9), F(8, 9)], [F(8, 9), F(1, 9)]
        alternating = memory2_kernel({(0, 0): low, (0, 1): high, (1, 0): low, (1, 1): high})
        assert report_fields(check_markov_small_cycles(markov_context(tasep().jrm, alternating))) \
            == (False, "small-cycles", ((0, 0, 1, 1), F(63)), 12,
                ("cycle-window-sum-3", "cycle-window-sum-4"))
        assert report_fields(check_markov_small_cycles(markov_context(contact(1).jrm,
                                                                      alternating))) \
            == (False, "small-cycles", ((0, 0, 0), F(192)), 1, ("cycle-window-sum-3",))

    def test_cycle_below_window_length(self):
        # n < m + L: balances come from the finite cycle directly
        assert report_fields(check_markov_cycle(voter_ctx(), 1)) == (True, "cycle-1", None, 2, ())
        assert report_fields(check_markov_cycle(voter_ctx(), 2)) == \
            (False, "cycle-2", ((0, 0), F(8, 3)), 1, ())
        assert report_fields(check_markov_cycle(ising_ctx(), 2)) == (True, "cycle-2", None, 4, ())

    def test_general_graph_symmetric(self):
        p = PairRateField(2, {(1,): F(1), (-1,): F(1)})
        swap = JumpRateMatrix(Alphabet(2), 2, {((0, 1), (1, 0)): 1, ((1, 0), (0, 1)): 1})
        assert report_fields(check_product_general_graph(swap, [F(1, 2), F(1, 2)], p)) == \
            (True, "symmetric-pair-cycle2", None, 4, ())
        creation = JumpRateMatrix(Alphabet(2), 2, {((0, 0), (1, 1)): 1})
        assert report_fields(check_product_general_graph(creation, [F(1, 3), F(2, 3)], p)) == \
            (False, "symmetric-pair-cycle2", ((0, 0), F(-2)), 1, ())


class TestCycleDeciders:
    def test_invariant_on_line_invariant_on_cycles(self):
        ctx = ising_ctx()
        for n in (3, 7):
            assert check_markov_cycle(ctx, n).invariant

    def test_voter_cycle_not_invariant(self):
        assert not check_markov_cycle(voter_ctx(), 4).invariant

    def test_product_cycle_tasep(self):
        for n in (1, 2, 3, 6):
            assert check_product_cycle(tasep().jrm, [F(1, 2), F(1, 2)], n).invariant


class TestEquivalencePanel:
    def test_ising_all_true(self):
        panel = equivalence_panel(ising_ctx())
        assert all(panel.values())

    def test_voter_all_false_except_pairs(self):
        panel = equivalence_panel(voter_ctx())
        core_keys = [k for k in panel if not k.startswith("paired")]
        assert not any(panel[k] for k in core_keys)

    def test_random_instances_agree(self, rng):
        for kappa in (2, 3):
            for _ in range(10):
                ctx = markov_context(random_jrm(rng, kappa=kappa),
                                     random_kernel(rng, kappa=kappa))
                panel = equivalence_panel(ctx)
                core = {v for k, v in panel.items() if not k.startswith("paired")}
                assert len(core) == 1
                assert panel["paired_lengths_6_5"] == panel["cycle_zero_critical_length"]
                assert panel["paired_lengths_6_4"] == panel["cycle_zero_critical_length"]


class TestGeneralGraphProducts:
    def test_symmetric_pair_rates_detailed_balance(self):
        # symmetric dynamics with detailed balance for the uniform marginal
        T = JumpRateMatrix(Alphabet(2), 2, {((0, 1), (1, 0)): 1, ((1, 0), (0, 1)): 1})
        p = PairRateField(2, {(1,): F(1), (-1,): F(1)})
        assert p.is_symmetric
        report = check_product_general_graph(T, [F(1, 2), F(1, 2)], p)
        assert report.invariant

    def test_asymmetric_reduces_to_line(self):
        p = PairRateField(2, {(1,): F(1)})
        assert not p.is_symmetric
        report = check_product_general_graph(tasep().jrm, [F(1, 3), F(2, 3)], p)
        assert report.invariant
        assert report.criterion == "asymmetric-pair-line"

    def test_zero_field_trivially_invariant(self):
        p = PairRateField(2, {})
        report = check_product_general_graph(tasep().jrm, [F(1, 3), F(2, 3)], p)
        assert report.invariant

    def test_symmetric_catches_violation(self):
        # one-way pair creation cannot preserve any product on a symmetric graph
        T = JumpRateMatrix(Alphabet(2), 2, {((0, 0), (1, 1)): 1})
        p = PairRateField(2, {(1,): F(1), (-1,): F(1)})
        report = check_product_general_graph(T, [F(1, 3), F(2, 3)], p)
        assert not report.invariant
        assert report.witness is not None


class TestSupportRestriction:
    def test_contact_zero_support_closed(self):
        spec = contact(1)
        restricted = restrict_support(spec.jrm, None, [0])
        assert restricted.support == (0,)
        assert restricted.T is None  # single letter: only the empty dynamics

    def test_tasep_all_ones_closed(self):
        restricted = restrict_support(tasep().jrm, None, [1])
        assert restricted.support == (1,)

    def test_full_support_rejected(self):
        with pytest.raises(ValueError):
            restrict_support(voter().jrm, None, [0, 1])

    def test_escaping_transition_reported(self):
        T = JumpRateMatrix(Alphabet(3), 2, {((0, 0), (1, 2)): 1})
        with pytest.raises(ValueError, match="not closed"):
            restrict_support(T, None, [0, 1])

    def test_reindexing(self):
        T = JumpRateMatrix(Alphabet(3), 2, {((1, 2), (2, 1)): 1, ((0, 0), (0, 1)): 1})
        restricted = restrict_support(T, [F(0), F(1, 3), F(2, 3)], [1, 2])
        assert restricted.T.rate((0, 1), (1, 0)) == 1
        assert restricted.kernel_or_law.marginal((0,)) == F(1, 3)

    def test_float_kernel_rows_sum_within_tolerance(self):
        # 0.3 + 0.6 + 0.1 == 0.9999999999999999 in floats
        T = JumpRateMatrix(Alphabet(4), 2, {((1, 0), (0, 1)): 1.0})
        kernel = MarkovKernel.from_matrix([[0.3, 0.6, 0.1, 0]] * 3 + [[0.25] * 4])
        restricted = restrict_support(T, kernel, [0, 1, 2])
        assert restricted.kernel_or_law.prob((0,), 1) == 0.6
        leaky = MarkovKernel.from_matrix([[0.3, 0.6, 0.099, 0.001]] * 3 + [[0.25] * 4])
        with pytest.raises(ValueError, match="leaks mass"):
            restrict_support(T, leaky, [0, 1, 2])


class TestSymmetrize:
    def test_tasep(self):
        S = symmetrize(tasep().jrm)
        assert S.rate((1, 0), (0, 1)) == 1
        assert S.rate((0, 1), (1, 0)) == 1

    def test_symmetric_doubles(self):
        T = JumpRateMatrix(Alphabet(2), 2, {((0, 1), (1, 0)): 1, ((1, 0), (0, 1)): 1})
        S = symmetrize(T)
        assert S.rate((0, 1), (1, 0)) == 2
        assert S.rate((1, 0), (0, 1)) == 2

    def test_zero(self):
        assert symmetrize(JumpRateMatrix(Alphabet(2), 2, {})).is_zero

    def test_range_checked(self):
        with pytest.raises(ValueError):
            symmetrize(voter().jrm)

    def test_invariance_transfers_to_symmetrization(self, rng):
        # a product invariant for T is invariant for its symmetrization, and
        # for symmetric dynamics invariance is exactly a zero balance table
        instances = [tasep().jrm,
                     JumpRateMatrix(Alphabet(2), 2, {((0, 1), (1, 0)): F(5, 2)})]
        for T in instances:
            for _ in range(5):
                rho = random_marginal(rng)
                if not check_product_line(T, rho).invariant:
                    continue
                S = symmetrize(T)
                assert check_product_line(S, rho).invariant
                table = z_table(product_context(S, rho))
                assert all(v == 0 for v in table.values.values())


class TestReversibilityHelpers:
    def test_ising_reversible(self):
        # the spin-flip chain satisfies pairwise reversibility, hence Z = 0
        T = JumpRateMatrix(Alphabet(2), 2, {((0, 1), (1, 0)): 1, ((1, 0), (0, 1)): 1})
        M = MarkovKernel.from_matrix([[F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]])
        assert is_reversible_for_chain(markov_context(T, M))

    def test_tasep_not_reversible_but_invariant(self):
        p = F(1, 2)
        M = MarkovKernel.from_matrix([[1 - p, p], [1 - p, p]])
        ctx = markov_context(tasep().jrm, M)
        assert not is_reversible_for_chain(ctx)
        assert check_markov_line(ctx).invariant

    def test_detailed_balance_product(self):
        T = JumpRateMatrix(Alphabet(2), 2, {((0, 1), (1, 0)): 1, ((1, 0), (0, 1)): 1})
        assert has_detailed_balance_product(T, [F(1, 2), F(1, 2)])
        assert not has_detailed_balance_product(tasep().jrm, [F(1, 2), F(1, 2)])


class TestTailBounds:
    def test_reports_suprema(self):
        ctx = tasep_product_ctx(F(1, 2))
        bounds = tail_bounds_advisory(ctx)
        assert bounds["sup_exit_rate"] == 1
        assert bounds["sup_weighted_inflow"] == 1
        assert "truncation" in bounds["advisory"]


class TestLazyLaw:
    """A context reads its kernel; the stationary law is solved on the first
    read of `law`, and a law passed in is kept."""

    @pytest.fixture
    def solves(self, monkeypatch):
        calls = []

        def counted(kernel):
            calls.append(kernel)
            return stationary_distribution(kernel)

        monkeypatch.setattr(criteria, "stationary_distribution", counted)
        return calls

    def test_solved_once_on_first_read(self, rng, solves):
        ctx = markov_context(random_jrm(rng, kappa=3), random_kernel(rng, kappa=3))
        check_markov_line(ctx)
        equivalence_panel(ctx)
        check_markov_cycle(ctx, 2)
        assert solves == []
        assert ctx.law is ctx.law and solves == [ctx.kernel]
        assert ctx.law == stationary_distribution(ctx.kernel)

    def test_given_laws_are_kept(self, rng, solves):
        law = stationary_distribution(random_kernel(rng))
        assert markov_context(tasep().jrm, law).law is law
        assert tasep_product_ctx().law.rho == {(0,): F(1, 2), (1,): F(1, 2)}
        assert solves == []

    @pytest.mark.parametrize("kappa,memory", [(2, 1), (3, 1), (2, 2)])
    def test_float_law_is_the_floated_exact_law(self, rng, kappa, memory):
        for _ in range(5):
            kernel = random_kernel(rng, kappa=kappa, memory=memory)
            ctx = markov_context(random_jrm(rng, kappa=kappa).floated(), kernel)
            expected = stationary_distribution(kernel).floated()
            assert not ctx.scalar_context.exact
            for got, want in ((ctx.law.rho.values(), expected.rho.values()),
                              (ctx.law.kernel.step_weights, expected.kernel.step_weights),
                              (ctx.kernel.step_weights, expected.kernel.step_weights)):
                assert [p.hex() for p in got] == [p.hex() for p in want]


class TestOneTablePerContext:
    """Z is built once per context, on its first z_table call, and kept on
    the context as entries, so that no reference cycle keeps it alive."""

    def test_every_reader_shares_one_build(self, monkeypatch, rng):
        built, real = [], criteria._balance_table

        def counting(ctx, *args):
            built.append(ctx)
            return real(ctx, *args)

        monkeypatch.setattr(criteria, "_balance_table", counting)
        ctx = markov_context(random_jrm(rng), random_kernel(rng))
        check_markov_line(ctx)
        cycle_balance(ctx, (0, 1, 1))
        line_balance(ctx, (1, 0))
        equivalence_panel(ctx)
        assert z_table(ctx).values is z_table(ctx).values
        assert len(built) == 1 and built[0] is ctx
        other = markov_context(ctx.T, ctx.kernel)  # an equal context builds its own
        check_markov_line(other)
        assert len(built) == 2 and built[1] is other

    def test_no_cycle_ties_a_context_to_its_tables(self):
        p = F(1, 4)
        gc.disable()
        try:
            ctx = markov_context(tasep().jrm, MarkovKernel.from_matrix([[1 - p, p], [1 - p, p]]))
            assert check_markov_line(ctx).invariant
            segment.check_segment(ctx, BoundaryRates.zero(Alphabet(2), 1), 4)
            assert ctx._z is not None
            alive = weakref.ref(ctx)
            del ctx
            assert alive() is None
        finally:
            gc.enable()

    def test_no_function_takes_a_table_it_could_build(self):
        # potential_from_table alone takes one: it derives W from the table
        # it is given and builds none
        functions = [f for module in (criteria, segment, lattice2d)
                     for name, f in inspect.getmembers(module, inspect.isfunction)
                     if f.__module__ == module.__name__ and not name.startswith("_")]
        functions += [segment._segment_balances, lattice2d._Partials.of]
        assert {f.__name__ for f in functions
                if "table" in inspect.signature(f).parameters} == {"potential_from_table"}
