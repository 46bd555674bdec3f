"""Domain types for particle systems on one-dimensional lattices.

A particle system colours the sites of a lattice with letters from a finite
alphabet E = {0, .., kappa-1} and evolves by local jumps: a length-L window
equal to a word w is rewritten into w' at rate T[w -> w'].  The matrix T of
these rates (zero diagonal, nonnegative entries, stored sparsely) is the
whole dynamic.  Candidate invariant measures are Markov laws given by a
kernel with memory m (m = 0 encodes a product measure) together with the
stationary law of the kernel.

Words are tuples of ints, ordered lexicographically; encoded as base-kappa
integers with site 1 most significant, so lexicographic and numeric order
agree.  All types are immutable after construction and all operations pure.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Dict, Iterator, List, Mapping, NamedTuple, Optional, Tuple

import numpy as np

from .scalars import ScalarContext, all_exact, as_scalar, over_common_denominator

Word = Tuple[int, ...]

_ZERO = Fraction(0)


@dataclass(frozen=True)
class Alphabet:
    """The colour set {0, .., kappa-1}, kappa >= 2 finite."""

    kappa: int

    def __post_init__(self):
        if self.kappa < 2:
            raise ValueError("alphabet needs at least two letters")

    @property
    def letters(self) -> range:
        return range(self.kappa)

    def words(self, length: int) -> Iterator[Word]:
        """All words of the given length in lexicographic order."""
        return itertools.product(self.letters, repeat=length)

    def check_word(self, word: Word) -> Word:
        word = tuple(word)
        for a in word:
            if not 0 <= a < self.kappa:
                raise ValueError(f"word {word} leaves the alphabet of size {self.kappa}")
        return word

    def encode(self, word: Word) -> int:
        """Base-kappa integer of a word, first letter most significant."""
        index = 0
        for a in word:
            index = index * self.kappa + a
        return index

    def decode(self, index: int, length: int) -> Word:
        letters = []
        for _ in range(length):
            index, a = divmod(index, self.kappa)
            letters.append(a)
        return tuple(reversed(letters))


def _freeze_rates(alphabet: Alphabet, length: int, rates: Mapping) -> Dict[Tuple[Word, Word], object]:
    table: Dict[Tuple[Word, Word], object] = {}
    for (src, dst), value in rates.items():
        src = alphabet.check_word(src)
        dst = alphabet.check_word(dst)
        if len(src) != length or len(dst) != length:
            raise ValueError(f"rate entry {src}->{dst} does not have length {length}")
        rate = as_scalar(value)
        sign = rate if isinstance(rate, float) else rate.numerator  # denominators are positive
        if sign < 0:
            raise ValueError(f"negative rate for {src}->{dst}")
        if src == dst and sign != 0:
            raise ValueError(f"diagonal rate {src}->{src} must be zero")
        if sign != 0:
            table[(src, dst)] = table[(src, dst)] + rate if (src, dst) in table else rate
    return table


class CodedMoves(NamedTuple):
    """A rate table's moves in `entries()` order by window code, and every
    window's exit rate by code: Python ints over their lcm `den` when exact,
    else as stored (den None).  A named tuple: cheaper to define than a dataclass."""

    sources: np.ndarray
    targets: np.ndarray
    rates: List
    exits: List
    den: Optional[int]


@dataclass(frozen=True)
class JumpRateMatrix:
    """Sparse jump rates T[w -> w'] over length-L words; absent entry = 0.

    Exact when every rate is rational, decided once at construction; the
    sorted, coded and windowed moves are built on first use."""

    alphabet: Alphabet
    range_: int
    _rates: Dict[Tuple[Word, Word], object] = field(repr=False)
    _exact: bool = field(repr=False, compare=False)

    def __init__(self, alphabet: Alphabet, range_: int, rates: Mapping):
        if range_ < 1:
            raise ValueError("range must be >= 1")
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "range_", range_)
        table = _freeze_rates(alphabet, range_, rates)
        object.__setattr__(self, "_rates", table)
        object.__setattr__(self, "_exact", all_exact(table.values()))

    def rate(self, src: Word, dst: Word):
        return self._rates.get((tuple(src), tuple(dst)), _ZERO)

    def out_rate(self, src: Word):
        """Total rate at which the window leaves the word src."""
        coded = self.coded
        rate = coded.exits[self.alphabet.encode(src)]
        return rate if coded.den is None else Fraction(rate, coded.den)

    @cached_property
    def _sorted(self) -> Tuple[Tuple[Word, Word, object], ...]:
        return tuple((src, dst, rate) for (src, dst), rate in sorted(self._rates.items()))

    def entries(self) -> Iterator[Tuple[Word, Word, object]]:
        return iter(self._sorted)

    @cached_property
    def coded(self) -> CodedMoves:
        """The coded moves; float exit rates add their terms in rate order."""
        encode, moves = self.alphabet.encode, self._sorted
        if self._exact:
            rates, den = over_common_denominator([rate for _, _, rate in moves])
            out = zip((src for src, _, _ in moves), rates)
        else:
            rates, den = [rate for _, _, rate in moves], None
            out = ((src, rate) for (src, _), rate in self._rates.items())
        exits = [_ZERO if den is None else 0] * self.alphabet.kappa ** self.range_
        for src, rate in out:  # 0 + x is x, in floats too
            exits[encode(src)] += rate
        return CodedMoves(*(np.array([encode(move[k]) for move in moves], dtype=np.int64)
                            for k in (0, 1)), rates, exits, den)

    @cached_property
    def by_window(self) -> Tuple[Dict[Word, list], Dict[Word, list], object]:
        """(into, out_of, zero): the moves (u, v, rate) by target window v and
        by source window u, each group in `entries()` order, with `coded`'s
        rates (numerators over `coded.den` when exact); zero starts an exit
        sum: 0 when exact, else Fraction(0)."""
        into: Dict[Word, list] = {}
        out_of: Dict[Word, list] = {}
        for (u, v, _), rate in zip(self._sorted, self.coded.rates):
            into.setdefault(v, []).append((u, v, rate))
            out_of.setdefault(u, []).append((u, v, rate))
        return into, out_of, 0 if self._exact else _ZERO

    @property
    def is_zero(self) -> bool:
        return not self._rates

    @property
    def is_exact(self) -> bool:
        return self._exact

    def max_rate(self):
        return max(self._rates.values(), default=_ZERO)

    def floated(self) -> "JumpRateMatrix":
        """The rates as floats in the same order (self when they already are)."""
        if all(isinstance(r, float) for r in self._rates.values()):
            return self
        return JumpRateMatrix(self.alphabet, self.range_,
                              {key: float(r) for key, r in self._rates.items()})

    def scaled(self, factor) -> "JumpRateMatrix":
        factor = as_scalar(factor)
        if factor < 0:
            raise ValueError("scale factor must be nonnegative")
        return JumpRateMatrix(self.alphabet, self.range_,
                              {key: factor * r for key, r in self._rates.items()})

    def plus(self, other: "JumpRateMatrix") -> "JumpRateMatrix":
        if other.alphabet.kappa != self.alphabet.kappa or other.range_ != self.range_:
            raise ValueError("can only add rate matrices of the same shape")
        total = dict(self._rates)
        for key, r in other._rates.items():
            total[key] = total.get(key, 0) + r
        return JumpRateMatrix(self.alphabet, self.range_, total)

    def is_mass_preserving(self) -> bool:
        """True when every positive rate conserves the letter sum."""
        return all(sum(src) == sum(dst) for src, dst, _ in self.entries())


@dataclass(frozen=True)
class MarkovKernel:
    """Transition kernel with memory m: context word of length m -> next letter.

    Rows must be complete and sum to one.  m = 0 has a single empty context,
    which makes the kernel a plain marginal distribution: the associated
    stationary chain is an i.i.d. sequence, i.e. a product measure.

    The step weights are also kept as one list over the (m+1)-windows by
    their base-kappa code (context first, then the next letter).  An exact
    kernel (every entry rational, decided once at construction) also keeps
    them as Python-int numerators over their least common denominator, on
    which its rows are checked.
    """

    alphabet: Alphabet
    memory: int
    _entries: Dict[Tuple[Word, int], object] = field(repr=False)
    _steps: Tuple = field(repr=False, compare=False)
    _exact: bool = field(repr=False, compare=False)
    _integer_steps: Optional[Tuple[List[int], int]] = field(repr=False, compare=False)

    def __init__(self, alphabet: Alphabet, memory: int, entries: Mapping):
        if memory < 0:
            raise ValueError("memory must be >= 0")
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "memory", memory)
        table: Dict[Tuple[Word, int], object] = {}
        for (ctx, letter), value in entries.items():
            ctx = alphabet.check_word(ctx)
            if len(ctx) != memory:
                raise ValueError(f"context {ctx} does not have length {memory}")
            if not 0 <= letter < alphabet.kappa:
                raise ValueError(f"letter {letter} outside alphabet")
            p = as_scalar(value)
            if (p < 0 or p > 1) if isinstance(p, float) else \
                    not 0 <= p.numerator <= p.denominator:
                raise ValueError(f"kernel entry for {ctx}->{letter} outside [0,1]")
            table[(ctx, letter)] = p
        kappa = alphabet.kappa
        steps = tuple(table.get((ctx, y), _ZERO)
                      for ctx in alphabet.words(memory) for y in alphabet.letters)
        exact = all_exact(steps)
        integer_steps = over_common_denominator(steps) if exact else None
        values, one = integer_steps if exact else (steps, 1)
        for r, ctx in enumerate(alphabet.words(memory)):
            row = values[r * kappa:(r + 1) * kappa]
            total = sum(row)
            if not ScalarContext(exact or all_exact(row)).is_zero(total - one):
                total = Fraction(total, one) if exact else total
                raise ValueError(f"row for context {ctx} sums to {total}, not 1")
        object.__setattr__(self, "_entries", table)
        object.__setattr__(self, "_steps", steps)
        object.__setattr__(self, "_exact", exact)
        object.__setattr__(self, "_integer_steps", integer_steps)

    @classmethod
    def from_matrix(cls, rows) -> "MarkovKernel":
        """Memory-1 kernel from a square row-stochastic matrix."""
        kappa = len(rows)
        entries = {((i,), j): rows[i][j] for i in range(kappa) for j in range(len(rows[i]))}
        return cls(Alphabet(kappa), 1, entries)

    @classmethod
    def from_marginal(cls, rho) -> "MarkovKernel":
        """Memory-0 kernel encoding the product measure with marginal rho."""
        return cls(Alphabet(len(rho)), 0, {((), a): p for a, p in enumerate(rho)})

    def prob(self, ctx: Word, letter: int):
        return self._entries.get((tuple(ctx), letter), _ZERO)

    def step_weight(self, window: Word):
        """Kernel weight of a length-(m+1) window: P(last letter | first m)."""
        window = tuple(window)
        if len(window) != self.memory + 1:
            raise ValueError("window must have length memory + 1")
        return self.prob(window[:-1], window[-1])

    @property
    def step_weights(self) -> Tuple:
        """Kernel weight of every (m+1)-window, by the window's code."""
        return self._steps

    @property
    def integer_steps(self) -> Optional[Tuple[List[int], int]]:
        """(numerators, common denominator) of `step_weights`; None unless exact."""
        return self._integer_steps

    @property
    def is_positive(self) -> bool:
        if self._exact:
            return all(n > 0 for n in self._integer_steps[0])
        return all(p > 0 for p in self._steps)

    @property
    def is_exact(self) -> bool:
        return self._exact

    def floated(self) -> "MarkovKernel":
        """The entries as floats (self when they already are)."""
        if all(isinstance(p, float) for p in self._entries.values()):
            return self
        return MarkovKernel(self.alphabet, self.memory,
                            {key: float(p) for key, p in self._entries.items()})

    def matrix(self):
        """Row-stochastic matrix on contexts ordered lexicographically (m = 1
        gives back the usual kappa x kappa kernel)."""
        kappa = self.alphabet.kappa
        return [list(self._steps[r:r + kappa]) for r in range(0, len(self._steps), kappa)]

    def block_states(self):
        return list(self.alphabet.words(max(self.memory, 1)))

    def block_moves(self) -> Iterator[Tuple[int, int, int]]:
        """The moves of the chain of length-b sliding blocks, b = max(m, 1),
        blocks by their code (the order of `block_states`): (i, j, w) for
        block i followed by the letter y, j = (i kappa + y) mod kappa^b,
        with the step weight of the window code w = (i kappa + y) mod
        kappa^(m+1).  Every block has kappa moves out and kappa moves in,
        from distinct blocks; each block's moves in come in increasing i."""
        kappa = self.alphabet.kappa
        size, window = kappa ** max(self.memory, 1), kappa ** (self.memory + 1)
        for i in range(size):
            for y in range(kappa):
                code = i * kappa + y
                yield i, code % size, code % window

    def word_weight(self, word: Word, initial=None):
        """Chain weight prod M(window) of a word, optionally times an initial
        law on its first max(m,1) letters."""
        word = tuple(word)
        m = self.memory
        weight = Fraction(1)
        if initial is not None:
            weight = initial[word[:max(m, 1)]]
        for j in range(len(word) - m if m else len(word)):
            if initial is not None and m == 0 and j == 0:
                continue  # first letter already accounted by the initial law
            weight *= self.step_weight(word[j:j + m + 1])
        return weight


@dataclass(frozen=True)
class StationaryLaw:
    """A kernel together with its stationary block law.

    rho is indexed by words of length max(m, 1); it is a probability vector
    and invariant for the sliding-block chain of the kernel.  Exact when the
    kernel and rho are, decided once at construction; the checks of an
    exact law run on integers.
    """

    kernel: MarkovKernel
    rho: Mapping[Word, object]
    _exact: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        kernel = self.kernel
        states = kernel.block_states()
        missing = [w for w in states if w not in self.rho]
        if missing:
            raise ValueError(f"stationary law misses blocks {missing[:3]}")
        rho = [self.rho[w] for w in states]
        exact = all_exact(rho)
        object.__setattr__(self, "_exact", exact and kernel.is_exact)
        values, den = over_common_denominator(rho) if exact else (rho, None)
        if any(v < 0 for v in values):
            raise ValueError("stationary law has negative entries")
        total = sum(values)
        if total != den if exact else not ScalarContext(False).is_zero(total - 1):
            total = Fraction(total, den) if exact else total
            raise ValueError(f"stationary law sums to {total}, not 1")
        # sum_i rho_i M(i -> j) = rho_j for every block j; an exact law sums
        # integers, over den times the kernel's common step denominator
        if self._exact:
            weights, scale = kernel.integer_steps
        else:
            values, weights, scale = rho, kernel.step_weights, 1
        flows = [0] * len(states)
        for i, j, w in kernel.block_moves():
            flows[j] = flows[j] + values[i] * weights[w]
        flow_test = ScalarContext(self._exact)
        if not all(flow_test.is_zero(flow - v * scale) for flow, v in zip(flows, values)):
            raise ValueError("rho is not invariant for the kernel")

    @property
    def memory(self) -> int:
        return self.kernel.memory

    @property
    def alphabet(self) -> Alphabet:
        return self.kernel.alphabet

    @property
    def is_exact(self) -> bool:
        return self._exact

    def floated(self) -> "StationaryLaw":
        """The kernel and rho as floats (self when they already are)."""
        kernel, rho = self.kernel.floated(), self.rho
        if kernel is self.kernel and all(isinstance(p, float) for p in rho.values()):
            return self
        return StationaryLaw(kernel, {w: float(p) for w, p in rho.items()})

    def marginal(self, word: Word):
        """Stationary probability of seeing `word` in consecutive positions."""
        word = tuple(word)
        m = max(self.memory, 1)
        if len(word) >= m:
            return self.kernel.word_weight(word, self.rho)
        total = Fraction(0)
        for suffix in self.alphabet.words(m - len(word)):
            total += self.rho[word + suffix]
        return total


def product_law(rho) -> StationaryLaw:
    """Stationary law of the i.i.d. sequence with marginal rho."""
    kernel = MarkovKernel.from_marginal(rho)
    return StationaryLaw(kernel, {(a,): kernel.prob((), a) for a in kernel.alphabet.letters})


@dataclass(frozen=True)
class BoundaryRates:
    """Boundary jump rates for segments: two rate matrices with range L-1."""

    left: JumpRateMatrix
    right: JumpRateMatrix

    def __post_init__(self):
        if self.left.range_ != self.right.range_:
            raise ValueError("left and right boundary ranges differ")
        if self.left.alphabet.kappa != self.right.alphabet.kappa:
            raise ValueError("left and right boundary alphabets differ")

    @classmethod
    def zero(cls, alphabet: Alphabet, range_: int) -> "BoundaryRates":
        empty = JumpRateMatrix(alphabet, range_, {})
        return cls(empty, empty)

