from fractions import Fraction

import pytest

from psinv.core import (Alphabet, JumpRateMatrix, MarkovKernel, StationaryLaw,
                        induced_rate_cyclic, product_law)
from psinv.models import tasep, voter

from conftest import random_jrm


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
