import random
from fractions import Fraction

import pytest

from psinv.core import Alphabet, JumpRateMatrix, MarkovKernel, StationaryLaw, product_law
from psinv.models import tasep, voter
from psinv.scalars import over_common_denominator

from conftest import random_jrm, rational
from z_reference import induced_rate_cyclic, pinned, reference_exit_rates


def brute_cyclic_rate(T, w, z):
    """Independent enumeration of wrapped windows, for cross-checking."""
    n = len(w)
    total = Fraction(0)
    for start in range(n):
        sites = [(start + i) % n for i in range(T.range_)]
        outside = [j for j in range(n) if j not in set(sites)]
        if all(w[j] == z[j] for j in outside):
            total += T.rate(tuple(w[j] for j in sites), tuple(z[j] for j in sites))
    return total


class TestAlphabetWords:
    def test_encode_decode_roundtrip(self):
        alphabet = Alphabet(3)
        for n in (1, 2, 4):
            for word in alphabet.words(n):
                assert alphabet.decode(alphabet.encode(word), n) == word

    def test_lexicographic_matches_numeric(self):
        alphabet = Alphabet(3)
        words = list(alphabet.words(3))
        assert words == sorted(words)
        assert [alphabet.encode(w) for w in words] == list(range(27))

    def test_kappa_must_be_at_least_two(self):
        with pytest.raises(ValueError):
            Alphabet(1)


class TestJumpRateMatrix:
    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ValueError):
            JumpRateMatrix(Alphabet(2), 2, {((0, 1), (0, 1)): 1})

    def test_rejects_negative_rates(self):
        with pytest.raises(ValueError):
            JumpRateMatrix(Alphabet(2), 2, {((0, 1), (1, 0)): -1})

    def test_out_rate(self):
        T = tasep().jrm
        assert T.out_rate((1, 0)) == 1
        assert T.out_rate((0, 1)) == 0

    def test_string_rates_parse_exactly(self):
        T = JumpRateMatrix(Alphabet(2), 2, {((0, 1), (1, 0)): "3/7"})
        assert T.rate((0, 1), (1, 0)) == Fraction(3, 7)


class TestInducedRateCyclic:
    def test_tasep_two_sites(self):
        assert induced_rate_cyclic(tasep().jrm, (1, 0), (0, 1)) == 1

    def test_equal_words_zero(self):
        for w in Alphabet(2).words(3):
            assert induced_rate_cyclic(tasep().jrm, w, w) == 0

    def test_voter_wrapped_windows(self):
        T = voter().jrm
        expected = brute_cyclic_rate(T, (0, 1, 0), (0, 0, 0))
        assert induced_rate_cyclic(T, (0, 1, 0), (0, 0, 0)) == expected == 2

    def test_matches_brute_enumeration(self, rng):
        for _ in range(10):
            T = random_jrm(rng, kappa=2, range_=2)
            for n in (1, 2, 3):
                for w in Alphabet(2).words(n):
                    for z in Alphabet(2).words(n):
                        assert induced_rate_cyclic(T, w, z) == brute_cyclic_rate(T, w, z)

    def test_rotation_invariance(self, rng):
        for _ in range(10):
            T = random_jrm(rng, kappa=2, range_=2)
            for w in Alphabet(2).words(4):
                for z in Alphabet(2).words(4):
                    base = induced_rate_cyclic(T, w, z)
                    for k in (1, 2, 3):
                        wr = w[k:] + w[:k]
                        zr = z[k:] + z[:k]
                        assert induced_rate_cyclic(T, wr, zr) == base


class TestKernelsAndLaws:
    def test_rows_must_sum_to_one(self):
        with pytest.raises(ValueError):
            MarkovKernel.from_matrix([[Fraction(1, 2), Fraction(1, 3)],
                                      [Fraction(1, 2), Fraction(1, 2)]])

    def test_memory_zero_is_product(self):
        law = product_law([Fraction(1, 3), Fraction(2, 3)])
        assert law.marginal((1, 1, 0)) == Fraction(2, 3) ** 2 * Fraction(1, 3)

    def test_stationarity_validated(self):
        kernel = MarkovKernel.from_matrix([[Fraction(1, 2), Fraction(1, 2)],
                                           [Fraction(1, 4), Fraction(3, 4)]])
        with pytest.raises(ValueError):
            StationaryLaw(kernel, {(0,): Fraction(1, 2), (1,): Fraction(1, 2)})

    def test_marginal_shorter_than_memory(self):
        kernel = MarkovKernel(Alphabet(2), 2, {
            ((a, b), y): Fraction(1, 2)
            for a in (0, 1) for b in (0, 1) for y in (0, 1)})
        law = StationaryLaw(kernel, {w: Fraction(1, 4) for w in Alphabet(2).words(2)})
        assert law.marginal((0,)) == Fraction(1, 2)

    def test_word_weight_is_chain_weight(self):
        kernel = MarkovKernel.from_matrix([[Fraction(1, 2), Fraction(1, 2)],
                                           [Fraction(1, 4), Fraction(3, 4)]])
        assert kernel.word_weight((0, 1, 1)) == Fraction(1, 2) * Fraction(3, 4)


class TestCodedMoves:
    """The coded form of a rate table against its entries and
    `over_common_denominator`, and its exit rates against the sums the
    table made at construction: exact by value, floats bit for bit; the
    exact reach is the largest exit rate plus the sum of the rates."""

    @staticmethod
    def tables():
        """(alphabet, range, rates): seeded exact, float and mixed tables,
        and the tables with no moves."""
        rng = random.Random("coded-moves")
        for kappa, range_ in ((2, 1), (2, 2), (3, 2), (2, 3), (4, 2)):
            alphabet = Alphabet(kappa)
            words = list(alphabet.words(range_))
            yield alphabet, range_, {}
            for _ in range(3):
                rates = {tuple(rng.sample(words, 2)): rational(rng, 1, 99) / rational(rng)
                         for _ in range(2 * kappa)}
                yield alphabet, range_, rates
                yield alphabet, range_, {key: float(r) for key, r in rates.items()}
                yield alphabet, range_, {key: float(r) if i % 2 else r
                                         for i, (key, r) in enumerate(rates.items())}

    def test_codes_rates_and_exit_rates(self):
        for alphabet, range_, rates in self.tables():
            T = JumpRateMatrix(alphabet, range_, rates)
            coded, entries = T.coded, list(T.entries())
            words = list(alphabet.words(range_))
            assert coded.sources.tolist() == [alphabet.encode(u) for u, _, _ in entries]
            assert coded.targets.tolist() == [alphabet.encode(v) for _, v, _ in entries]
            exits = reference_exit_rates(rates)
            expected = [exits.get(w, Fraction(0)) for w in words]
            reach = max(expected) + sum(rate for _, _, rate in entries)
            if T.is_exact:
                nums, den = over_common_denominator([rate for _, _, rate in entries])
                assert (coded.rates, coded.den) == (nums, den)
                assert coded.exits == [e * den for e in expected]
                assert coded.reach == reach * den
                assert all(type(v) is int for v in coded.rates + coded.exits)
            else:
                assert coded.den is None
                assert [pinned(r) for r in coded.rates] == [pinned(r) for _, _, r in entries]
                assert [pinned(e) for e in coded.exits] == [pinned(e) for e in expected]
            assert [pinned(T.out_rate(w)) for w in words] == [pinned(e) for e in expected]
