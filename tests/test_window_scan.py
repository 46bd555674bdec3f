"""The array window-sum scan of `criteria` against the per-word path it
replaced.

The reference deciders below are the per-word forms over the dict table of
`z_reference`: one `Fraction` or float window sum per cyclic word, and the
equivalence panel over dicts of linear window sums.  The array forms must
return the same verdicts, word counts and witnesses; float residuals must
match bit for bit.
"""
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from psinv import criteria, scalars
from psinv.core import JumpRateMatrix
from psinv.criteria import (check_markov_cycle, check_markov_small_cycles,
                            check_product_general_graph, cycle_balance,
                            equivalence_panel, markov_context, PairRateField,
                            product_context, z_table)

from conftest import random_marginal
from z_reference import (cyclic_window_sum, floated, instances, invariant_instance,
                         perturbed_instance, pinned_witness, reference_certificate_check,
                         reference_potential, reference_z_values, window_sum)

F = Fraction


# ---------------------------------------------------------------------------
# the per-word reference
# ---------------------------------------------------------------------------

def reference_cycle(ctx, n, values=None):
    """(verdict, words checked, witness) of the cycle decider as one
    per-word cycle balance of the dict table, in lexicographic order."""
    if n >= ctx.memory + ctx.range_:
        values = values or reference_z_values(ctx)
        balance = lambda x: cyclic_window_sum(values, ctx.window_length, x)  # noqa: E731
    else:
        balance = lambda x: cycle_balance(ctx, x)  # noqa: E731
    count, witness = ctx.first_nonzero(ctx.alphabet.words(n), balance)
    return witness is None, count, pinned_witness(witness)


def reference_cycle_window_sums(ctx, n):
    """The small-cycles scan of one length n as one wrapped window sum per
    word, also below n = m + L."""
    values = reference_z_values(ctx)
    count, witness = ctx.first_nonzero(
        ctx.alphabet.words(n), lambda x: cyclic_window_sum(values, ctx.window_length, x))
    return witness is None, count, witness


def fields(report):
    return report.invariant, report.words_checked, pinned_witness(report.witness)


def reference_panel(ctx):
    """The equivalence panel over dicts of per-word window sums."""
    values = reference_z_values(ctx)
    s, h = ctx.window_length, ctx.critical_length
    zero = ctx.is_zero
    words = ctx.alphabet.words
    anchors = [a + (0,) * (s - 1) for a in words(s)]
    sums_h = {x: window_sum(values, s, x) for x in words(h)}
    sums_h1 = {x: window_sum(values, s, x) for x in words(h - 1)}
    cycles = {n: all(zero(cyclic_window_sum(values, s, x)) for x in words(n))
              for n in range(ctx.memory + ctx.range_, h + 1)}
    cycle_anchor = all(zero(cyclic_window_sum(values, s, w)) for w in anchors)
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
        "potential_certificate_exists": reference_certificate_check(
            ctx, values, reference_potential(ctx, values)),
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
                values = reference_z_values(ctx)
                for n in range(memory + range_, last + 1):
                    expected = reference_cycle(ctx, n, values)
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

    def test_int64_and_object_scans_agree(self, monkeypatch):
        # exact Z is built on int64 under its bounds and scanned on int64
        # (one perturbed kappa-3 table reaches the reduction's bound and is
        # built and scanned on Python ints); a limit of 0 builds and scans
        # every table on Python ints (a new context, as Z is kept on the one
        # that built it).  Verdict, count and witness agree, and a witness
        # is a Fraction of Python ints on both paths.
        paths, witnesses = set(), 0
        for kappa, memory, range_ in ((2, 1, 2), (2, 1, 3), (3, 1, 2), (2, 2, 2), (3, 0, 2)):
            for label, ctx in instances(9, kappa, memory, range_):
                if not ctx.scalar_context.exact:
                    continue
                values = z_table(ctx).values
                for n in range(memory + range_, memory + range_ + 4):
                    paths.add((values.entries.dtype, criteria._summable(values, n).dtype))
                    reports = [check_markov_cycle(ctx, n)]
                    with monkeypatch.context() as patch:
                        patch.setattr(scalars, "INT64_LIMIT", 0)
                        wide = markov_context(ctx.T, ctx.kernel)
                        assert z_table(wide).values.entries.dtype == object
                        reports.append(check_markov_cycle(wide, n))
                    assert fields(reports[0]) == fields(reports[1]), (label, n)
                    for report in reports:
                        if report.witness is not None:
                            witnesses += 1
                            value = report.witness[1]
                            assert type(value.numerator) is type(value.denominator) is int
        int64, wide = np.dtype(np.int64), np.dtype(object)
        assert paths == {(int64, int64), (wide, wide)} and witnesses

    def test_entries_beyond_int64_stay_python_ints(self):
        ctx = markov_context(*invariant_instance(random.Random(14), 2, 1, 2))
        values = z_table(ctx).values
        assert values.entries.dtype == np.int64
        huge = criteria.WordTable(values.alphabet, values.length,
                                  np.array(values.entries.tolist(), dtype=object) * 2 ** 64,
                                  values.den)
        assert huge.entries.dtype == object and criteria._summable(huge, 4) is huge.entries
        big = criteria.WordTable(values.alphabet, values.length,
                                 np.full(len(values.entries), 2 ** 60), values.den)
        assert criteria._summable(big, 3) is big.entries
        wide = criteria._summable(big, 4)  # 4 x 2^60 reaches the limit
        assert wide.dtype == object and type(wide[0]) is int
        assert wide.tolist() == big.entries.tolist()

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
                values = z_table(ctx).values
                entries, den = values.entries, values.den
                words = list(ctx.alphabet.words(ctx.window_length))
                assert len(entries) == len(words) == len(values)
                assert list(values) == words
                reference = reference_z_values(ctx)
                for code, word in enumerate(words):
                    assert ctx.alphabet.encode(word) == code
                    assert ctx.alphabet.decode(code, len(word)) == word
                    if exact:
                        assert F(entries[code], den) == reference[word]
                    else:
                        assert den is None and entries[code] == reference[word]


class TestPanelReference:
    @pytest.mark.parametrize("kappa,memory,range_", [(2, 1, 2), (3, 1, 2), (2, 2, 2),
                                                     (2, 1, 3), (3, 2, 1)])
    def test_panel_matches_dict_panel(self, kappa, memory, range_):
        for label, ctx in instances(21, kappa, memory, range_):
            if kappa ** ctx.critical_length > 3 ** 7 and label.endswith("float"):
                continue
            assert equivalence_panel(ctx) == reference_panel(ctx), label
