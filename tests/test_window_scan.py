"""The array window-sum scan of `criteria` against the per-word path it
replaced.

The reference deciders below are the per-word forms: one `cycle_balance`
(one `Fraction` or float sum) per cyclic word, and the equivalence panel
over dicts of linear window sums.  The array forms must return the same
verdicts, word counts and witnesses; float residuals must match bit for bit.
"""
import itertools
import math
import random
from fractions import Fraction

import pytest

from psinv import criteria
from psinv.core import Alphabet, JumpRateMatrix, MarkovKernel
from psinv.criteria import (check_markov_cycle, check_markov_small_cycles,
                            check_product_general_graph, cycle_balance,
                            equivalence_panel, markov_context, PairRateField,
                            product_context, z_table)

from conftest import random_kernel, random_marginal, rational

F = Fraction


# ---------------------------------------------------------------------------
# instances
# ---------------------------------------------------------------------------

def invariant_instance(rng, kappa, memory, range_):
    """Rates preserving a product law, with the law written as a memory-m
    kernel whose rows all equal its marginal.  Pairwise detailed balance
    gives Z = 0; a drift of adjacent swaps at rates r(x, y) with
    r(x, y) - r(y, x) = P(x) - P(y) gives the nonzero, telescoping
    Z(b) = P(last letter) - P(first letter)."""
    alphabet = Alphabet(kappa)
    rho = random_marginal(rng, kappa)
    words = list(alphabet.words(range_))
    rates = {}

    def add(u, v, rate):
        if u != v and rate:
            rates[(u, v)] = rates.get((u, v), 0) + rate

    def weight(w):
        return math.prod(rho[a] for a in w)

    for _ in range(3):
        u, v = rng.sample(words, 2)
        c = rational(rng)
        add(u, v, c * weight(v))
        add(v, u, c * weight(u))
    potential = [rng.randint(0, 3) for _ in alphabet.letters]
    for w in words:
        for j in range(range_ - 1):
            x, y = w[j], w[j + 1]
            add(w, w[:j] + (y, x) + w[j + 2:], max(0, potential[x] - potential[y]))
    kernel = MarkovKernel(alphabet, memory, {(c, y): rho[y] for c in alphabet.words(memory)
                                             for y in alphabet.letters})
    return JumpRateMatrix(alphabet, range_, rates), kernel


def perturbed_instance(rng, kappa, memory, range_):
    """An invariant rate table with one more random move, under a random
    kernel (not invariant in general)."""
    T, _ = invariant_instance(rng, kappa, memory, range_)
    words = list(T.alphabet.words(range_))
    u, v = rng.sample(words, 2)
    return T.plus(JumpRateMatrix(T.alphabet, range_, {(u, v): rational(rng)})), \
        random_kernel(rng, kappa=kappa, memory=memory)


def floated(T, kernel):
    rates = {(u, v): float(rate) for u, v, rate in T.entries()}
    entries = {(c, y): float(kernel.prob(c, y)) for c in kernel.alphabet.words(kernel.memory)
               for y in kernel.alphabet.letters}
    return (JumpRateMatrix(T.alphabet, T.range_, rates),
            MarkovKernel(kernel.alphabet, kernel.memory, entries))


def instances(seed, kappa, memory, range_):
    """(label, context): an invariant and a perturbed instance, each exact
    and in floats."""
    rng = random.Random(f"{seed}-{kappa}-{memory}-{range_}")
    for kind, draw in (("invariant", invariant_instance), ("perturbed", perturbed_instance)):
        T, kernel = draw(rng, kappa, memory, range_)
        yield f"{kind}/exact", markov_context(T, kernel)
        yield f"{kind}/float", markov_context(*floated(T, kernel))


# ---------------------------------------------------------------------------
# the per-word reference
# ---------------------------------------------------------------------------

def pinned(witness):
    """A witness with float residuals written bit for bit."""
    if witness is None:
        return None
    word, value = witness
    return word, value.hex() if isinstance(value, float) else value


def reference_cycle(ctx, n, table=None):
    """(verdict, words checked, witness) of the cycle decider as one
    cycle_balance per word, in lexicographic order."""
    if n >= ctx.memory + ctx.range_:
        table = table or z_table(ctx)
    count, witness = ctx.first_nonzero(ctx.alphabet.words(n),
                                       lambda x: cycle_balance(ctx, x, table))
    return witness is None, count, pinned(witness)


def reference_cycle_window_sums(ctx, n):
    """The small-cycles scan of one length n as one wrapped window sum per
    word, also below n = m + L."""
    table = z_table(ctx)
    count, witness = ctx.first_nonzero(ctx.alphabet.words(n), table.cyclic_window_sum)
    return witness is None, count, witness


def fields(report):
    return report.invariant, report.words_checked, pinned(report.witness)


def reference_panel(ctx):
    """The equivalence panel over dicts of per-word window sums."""
    table = z_table(ctx)
    s, h = ctx.window_length, ctx.critical_length
    zero = ctx.is_zero
    words = ctx.alphabet.words
    anchors = [a + (0,) * (s - 1) for a in words(s)]
    sums_h = {x: table.window_sum(x) for x in words(h)}
    sums_h1 = {x: table.window_sum(x) for x in words(h - 1)}
    cycles = {n: all(zero(table.cyclic_window_sum(x)) for x in words(n))
              for n in range(ctx.memory + ctx.range_, h + 1)}
    cycle_anchor = all(zero(table.cyclic_window_sum(w)) for w in anchors)
    panel = {
        "line_invariant": cycle_anchor,
        "replacement_anchor_zero": all(zero(sums_h[w] - sums_h[w[:s - 1] + (0,) + w[s:]])
                                       for w in anchors),
        "replacement_all_zero": all(zero(sums_h[x] - sums_h[x[:s - 1] + (y,) + x[s:]])
                                    for x in words(h) for y in ctx.alphabet.letters),
        "deletion_anchor_zero": all(zero(sums_h[w] - sums_h1[w[:s - 1] + w[s:]])
                                    for w in anchors),
        "deletion_all_zero": all(zero(sums_h[x] - sums_h1[x[:s - 1] + x[s:]])
                                 for x in words(h)),
        "cycles_zero_all_lengths": all(cycles.values()),
        "cycle_zero_critical_length": cycles[h],
        "cycle_zero_anchor_words": cycle_anchor,
        "potential_certificate_exists": criteria.potential_from_table(table).check(table),
    }
    if (ctx.memory, ctx.range_) == (1, 2):
        panel["paired_lengths_6_5"] = cycles[6] and cycles[5]
        panel["paired_lengths_6_4"] = cycles[6] and cycles[4]
    return panel


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------

class TestCycleScan:
    @pytest.mark.parametrize("kappa", (2, 3, 4))
    def test_matches_per_word_reference(self, kappa):
        top = 6 if kappa == 4 else 8
        invariant_seen = 0
        for memory, range_ in itertools.product(range(3), range(1, 4)):
            size = kappa ** (2 * memory + range_)
            if size > 4 ** 6:
                continue  # kappa = 4, m = 2, L = 3: a 16,384-entry table, left out for time
            # tables above 500 entries are checked on their two shortest cycles
            last = min(top, memory + range_ + 1) if size > 500 else top
            for label, ctx in instances(6, kappa, memory, range_):
                table = z_table(ctx)
                for n in range(memory + range_, last + 1):
                    expected = reference_cycle(ctx, n, table)
                    assert fields(check_markov_cycle(ctx, n)) == expected, (label, memory,
                                                                            range_, n)
                    invariant_seen += expected[0]
        assert invariant_seen

    def test_exact_rates_under_a_float_law(self):
        # Z mixes exact entries (windows nothing jumps into) with floats;
        # the sums must still add them in window order as sum() does
        rng = random.Random(7)
        T, _ = invariant_instance(rng, 3, 0, 2)
        T = T.plus(JumpRateMatrix(T.alphabet, 2, {((2, 2), (0, 1)): F(5, 3)}))
        ctx = product_context(T, [0.25, 0.375, 0.375])
        assert not ctx.scalar_context.exact
        for n in range(2, 7):
            assert fields(check_markov_cycle(ctx, n)) == reference_cycle(ctx, n)

    def test_block_boundaries_do_not_matter(self, monkeypatch):
        rng = random.Random(11)
        T, kernel = invariant_instance(rng, 2, 1, 2)
        # one move between windows away from 0^L: the word 0^n still passes
        T = T.plus(JumpRateMatrix(T.alphabet, 2, {((1, 1), (1, 0)): F(2, 7)}))
        n = 10
        for ctx in (markov_context(T, kernel), markov_context(*floated(T, kernel))):
            expected = reference_cycle(ctx, n)
            assert not expected[0]
            first = expected[1] - 1  # code of the witness
            # with blocks of one word the witness opens the second block
            assert first == 1
            for t in range(n + 1):
                monkeypatch.setattr(criteria, "SCAN_BLOCK", 2 ** t)
                assert fields(check_markov_cycle(ctx, n)) == expected, t

    def test_block_size_need_not_be_a_power_of_kappa(self, monkeypatch):
        rng = random.Random(12)
        for draw in (invariant_instance, perturbed_instance):
            ctx = markov_context(*draw(rng, 3, 1, 2))
            expected = reference_cycle(ctx, 6)
            for block in (1, 2, 10, 100, 3 ** 6 + 1):
                monkeypatch.setattr(criteria, "SCAN_BLOCK", block)
                assert fields(check_markov_cycle(ctx, 6)) == expected

    def test_small_cycles_and_pair_cycles_match_reference(self):
        rng = random.Random(13)
        for kappa, memory in ((2, 1), (2, 2), (3, 1), (3, 2)):
            for draw in (invariant_instance, perturbed_instance):
                ctx = markov_context(*draw(rng, kappa, memory, 2))
                report = check_markov_small_cycles(ctx)
                count, witness = 0, None
                for n in range(memory + 1, kappa ** memory + 1):
                    invariant, checked, witness = reference_cycle_window_sums(ctx, n)
                    count += checked
                    if not invariant:
                        break
                assert (report.invariant, report.words_checked, report.witness) == \
                    (witness is None, count, witness)
        p = PairRateField(2, {(1,): F(1), (-1,): F(1)})
        for _ in range(5):
            T, _ = perturbed_instance(rng, 3, 0, 2)
            rho = random_marginal(rng, 3)
            report = check_product_general_graph(T, rho, p)
            assert fields(report)[1:] == reference_cycle(product_context(T, rho), 2)[1:]


class TestCodeOrder:
    def test_array_order_is_alphabet_words_order(self):
        rng = random.Random(14)
        for kappa, memory, range_ in ((2, 1, 2), (3, 1, 1), (4, 0, 2), (3, 0, 3)):
            for exact in (True, False):
                T, kernel = perturbed_instance(rng, kappa, memory, range_)
                ctx = markov_context(T, kernel) if exact else \
                    markov_context(*floated(T, kernel))
                table = z_table(ctx)
                entries, den = criteria._z_array(table)
                words = list(ctx.alphabet.words(ctx.window_length))
                assert len(entries) == len(words)
                for code, word in enumerate(words):
                    assert ctx.alphabet.encode(word) == code
                    assert ctx.alphabet.decode(code, len(word)) == word
                    if exact:
                        assert F(entries[code], den) == table[word]
                    else:
                        assert den == 1 and entries[code] == table[word]


class TestPanelReference:
    @pytest.mark.parametrize("kappa,memory,range_", [(2, 1, 2), (3, 1, 2), (2, 2, 2),
                                                     (2, 1, 3), (3, 2, 1)])
    def test_panel_matches_dict_panel(self, kappa, memory, range_):
        for label, ctx in instances(21, kappa, memory, range_):
            if kappa ** ctx.critical_length > 3 ** 7 and label.endswith("float"):
                continue
            assert equivalence_panel(ctx) == reference_panel(ctx), label
