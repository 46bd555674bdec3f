"""Brute-force ground truth on finite configuration spaces.

For a cycle Z/nZ, a segment {1..n} with boundary rates, or an n x n torus,
the particle system is an honest finite-state Markov jump process.  This
module builds its full rate matrix Q as integer index arrays (compressed
sparse rows; diagonal implicit), evaluates stationarity residuals mu Q
exactly, computes cyclic chain (Gibbs) weights and product weights, and
analyses absorbing structure through strongly connected components.  Exact
rates and measures are Python ints over one common denominator each, so
every sum is an integer sum; floats stay float64, summed in a fixed order.
Everything here is independent of the criteria module so the two can be
tested against each other.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from .core import (Alphabet, BoundaryRates, JumpRateMatrix, MarkovKernel,
                   StationaryLaw, Word, induced_rate_cyclic)
from .scalars import all_exact

DEFAULT_STATE_CAP = 2 ** 20


class StateCapExceeded(RuntimeError):
    """Raised when a requested configuration space is larger than the cap."""


@dataclass(frozen=True)
class CycleSpace:
    n: int


@dataclass(frozen=True)
class SegmentSpace:
    n: int
    boundary: Optional[BoundaryRates] = None


@dataclass(frozen=True)
class TorusSpace:
    n: int  # n x n torus, two dimensions


Space = Union[CycleSpace, SegmentSpace, TorusSpace]


# ---------------------------------------------------------------------------
# vectors over one common denominator
# ---------------------------------------------------------------------------

def _common_denominator(values) -> Tuple[np.ndarray, int]:
    """(numerators, denominator): Python ints (an object array) over the least
    common denominator when every value is rational, float64 values over 1
    as soon as one of them is a float."""
    values = list(values)
    if not all_exact(values):
        return np.array([float(v) for v in values], dtype=float), 1
    fractions = [Fraction(v) for v in values]
    den = math.lcm(*(f.denominator for f in fractions))
    num = np.empty(len(fractions), dtype=object)
    num[:] = [f.numerator * (den // f.denominator) for f in fractions]
    return num, den


def _floats(num: np.ndarray, den: int) -> np.ndarray:
    """num / den as float64, each value correctly rounded like float(Fraction)."""
    if num.dtype != object:
        return num
    return np.array([v / den for v in num.tolist()], dtype=float)


class ScaledArray(Sequence):
    """The vector num / den.  Exact vectors hold Python ints (an object array)
    over the positive int den; float vectors hold float64 values over 1.
    Indexing yields Fraction or float; == compares values with any sequence."""

    __hash__ = None  # type: ignore[assignment]

    def __init__(self, num: np.ndarray, den: int = 1):
        num.setflags(write=False)
        self.num = num
        self.den = den

    @property
    def exact(self) -> bool:
        return self.num.dtype == object

    def __len__(self) -> int:
        return len(self.num)

    def __getitem__(self, index: int):
        value = self.num[index]
        return Fraction(value, self.den) if self.exact else float(value)

    def __eq__(self, other):
        if not isinstance(other, Sequence) or isinstance(other, str):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __repr__(self) -> str:
        return f"ScaledArray({list(self)!r})"


# ---------------------------------------------------------------------------
# the explicit generator, in compressed sparse row (CSR) form
# ---------------------------------------------------------------------------

class _Row(Mapping):
    """Row x of a generator as a read-only {target: rate} view."""

    __slots__ = ("_gen", "_lo", "_hi")

    def __init__(self, gen: "FiniteGenerator", lo: int, hi: int):
        self._gen, self._lo, self._hi = gen, lo, hi

    def __len__(self) -> int:
        return self._hi - self._lo

    def __iter__(self) -> Iterator[int]:
        return iter(self._gen._targets[self._lo:self._hi])

    def __getitem__(self, target):
        targets = self._gen._targets
        k = bisect_left(targets, target, self._lo, self._hi)
        if k == self._hi or targets[k] != target:
            raise KeyError(target)
        return self._gen._rates[k]


class FiniteGenerator:
    """Explicit generator in CSR form: state x jumps to the states
    dst[indptr[x]:indptr[x + 1]] (ascending) at the rates rate[...] / scale;
    the diagonal entry is -exits[x] / scale.  An exact generator holds Python
    ints (object arrays) over `scale`, the least common denominator of the
    rates; a float generator holds float64 rates and scale 1.

    `rows[x]` is a {target: rate} view of row x and `exit_rates[x]` the exit
    rate, both as Fraction or float."""

    def __init__(self, space: Space, alphabet: Alphabet, n_sites: int, indptr: np.ndarray,
                 dst: np.ndarray, rate: np.ndarray, exits: np.ndarray, scale: int):
        self.space, self.alphabet, self.n_sites = space, alphabet, n_sites
        self.indptr, self.dst, self.rate, self.exits, self.scale = indptr, dst, rate, exits, scale

    @property
    def n_states(self) -> int:
        return self.alphabet.kappa ** self.n_sites

    @property
    def exact(self) -> bool:
        return self.rate.dtype == object

    @cached_property
    def rows(self) -> List[_Row]:
        """The row views, listed on first use; each length comes from indptr."""
        ptr = self.indptr.tolist()
        return [_Row(self, lo, hi) for lo, hi in zip(ptr, ptr[1:])]

    @cached_property
    def _targets(self) -> List[int]:
        return self.dst.tolist()

    @cached_property
    def _rates(self) -> ScaledArray:
        return ScaledArray(self.rate, self.scale)

    @property
    def exit_rates(self) -> ScaledArray:
        return ScaledArray(self.exits, self.scale)

    def sources(self) -> np.ndarray:
        """The source state of every stored jump (the row index of dst)."""
        return np.repeat(np.arange(self.n_states, dtype=np.int64), np.diff(self.indptr))

    def state_word(self, index: int) -> Word:
        return self.alphabet.decode(index, self.n_sites)

    def state_index(self, word: Word) -> int:
        return self.alphabet.encode(word)

    def row_sum_defect(self):
        """max |sum of off-diagonal row - exit rate|; zero by construction."""
        sums = np.zeros(self.n_states, dtype=self.rate.dtype)
        np.add.at(sums, self.sources(), self.rate)
        top = np.max(np.abs(sums - self.exits))
        return Fraction(top, self.scale) if self.exact else float(top)


def _digits(kappa: int, n: int) -> np.ndarray:
    """digits[k, x]: the letter at site k of state x (site 0 most significant)."""
    index = np.arange(kappa ** n, dtype=np.int64)
    digits = np.empty((n, len(index)), dtype=np.min_scalar_type(kappa - 1))
    for k in range(n):
        digits[k] = index // kappa ** (n - 1 - k) % kappa
    return digits


def _pattern_codes(digits: np.ndarray, kappa: int, sites) -> np.ndarray:
    """Base-kappa code of the pattern each state shows on `sites`, in order."""
    code = np.zeros(digits.shape[1], dtype=np.int64)
    for site in sites:
        code = code * kappa + digits[site]
    return code


def _moves_by_source(T: JumpRateMatrix) -> Dict[Word, List[Tuple[Word, object]]]:
    moves: Dict[Word, List[Tuple[Word, object]]] = {}
    for u, v, rate in T.entries():
        moves.setdefault(u, []).append((v, rate))
    return moves


def _site_windows(T: JumpRateMatrix, space: Space):
    """The jump windows of a space: (sites in pattern order, moves by source
    pattern).  Cycles wrap; segments add their two boundary windows; the
    torus has one 2x2 square per site, cells in SQUARE_CELLS order."""
    moves = _moves_by_source(T)
    L, n = T.range_, space.n
    if isinstance(space, CycleSpace):
        return [([(start + i) % n for i in range(L)], moves) for start in range(n)]
    if isinstance(space, SegmentSpace):
        boundary = space.boundary
        windows = [(list(range(start, start + L)), moves) for start in range(n - L + 1)]
        if boundary is not None:
            if boundary.left.range_ != L - 1:
                raise ValueError(f"boundary rates must have range {L - 1}")
            if n >= L - 1:
                windows.append((list(range(L - 1)), _moves_by_source(boundary.left)))
                windows.append((list(range(n - L + 1, n)), _moves_by_source(boundary.right)))
        return windows
    if n < 2:
        raise ValueError("torus oracle needs n >= 2")
    if L != 4:
        raise ValueError("torus dynamics need rates over 2x2-square patterns (length 4)")
    return [([(i + di) % n * n + (j + dj) % n for di in (0, 1) for dj in (0, 1)], moves)
            for i in range(n) for j in range(n)]


def _window_jumps(T: JumpRateMatrix, space: Space, n_sites: int):
    """(sources, targets, rate) per window and move, windows outermost.  The
    sources show the move's pattern u on the window's sites; the target of a
    move u -> v is the source plus sum (v_j - u_j) kappa^(n - 1 - site_j)."""
    alphabet = T.alphabet
    kappa = alphabet.kappa
    digits = _digits(kappa, n_sites)
    for sites, moves in _site_windows(T, space):
        code = _pattern_codes(digits, kappa, sites)
        for u, targets in moves.items():
            sources = np.flatnonzero(code == alphabet.encode(u))
            for v, rate in targets:
                delta = sum((b - a) * kappa ** (n_sites - 1 - site)
                            for site, a, b in zip(sites, u, v))
                yield sources, sources + delta, rate


def _pairwise_jumps(T: JumpRateMatrix, n: int):
    """Jumps of a cycle shorter than the range, where wrapped windows overlap
    themselves: the induced rate of every pair of distinct states."""
    words = list(T.alphabet.words(n))
    for i, w in enumerate(words):
        for j, z in enumerate(words):
            if i != j:
                rate = induced_rate_cyclic(T, w, z)
                if rate != 0:
                    yield np.array([i]), np.array([j]), rate


def _compress(space: Space, alphabet: Alphabet, n_sites: int, jumps) -> FiniteGenerator:
    """CSR generator from (sources, targets, rate) jumps in generation order.

    Transitions between the same two states are merged.  Float sums keep the
    generation order: each exit rate and each merged rate adds its terms in
    the order they were generated."""
    n_states = alphabet.kappa ** n_sites
    jumps = list(jumps)
    values, scale = _common_denominator(rate for _, _, rate in jumps)
    empty = [np.zeros(0, dtype=np.int64)]
    src = np.concatenate([sources for sources, _, _ in jumps] or empty)
    dst = np.concatenate([targets for _, targets, _ in jumps] or empty)
    # which jump made each transition, for its rate
    jump = np.repeat(np.arange(len(jumps)), [len(sources) for sources, _, _ in jumps])
    del jumps
    exits = np.zeros(n_states, dtype=values.dtype)
    np.add.at(exits, src, values[jump])
    key = src * n_states + dst
    del src, dst
    # stable: the transitions of one pair of states stay in generation order
    order = np.argsort(key, kind="stable")
    key, jump = key[order], jump[order]
    del order
    new = np.ones(len(key), dtype=bool)
    new[1:] = key[1:] != key[:-1]
    first = np.flatnonzero(new)
    group = np.cumsum(new) - 1
    rank = np.arange(len(key)) - first[group]
    rate = values[jump[first]]
    for r in range(1, int(rank.max(initial=0)) + 1):
        at = rank == r
        rate[group[at]] += values[jump[at]]
    key = key[first]
    indptr = np.zeros(n_states + 1, dtype=np.int64)
    np.cumsum(np.bincount(key // n_states, minlength=n_states), out=indptr[1:])
    targets = key % n_states
    for array in (indptr, targets, rate, exits):
        array.setflags(write=False)
    return FiniteGenerator(space, alphabet, n_sites, indptr, targets, rate, exits, scale)


def check_state_cap(alphabet: Alphabet, n_sites: int, max_states: int = DEFAULT_STATE_CAP):
    """Raise StateCapExceeded when kappa^n_sites configurations exceed the cap."""
    if alphabet.kappa ** n_sites > max_states:
        raise StateCapExceeded(f"{alphabet.kappa ** n_sites} states exceed the cap {max_states}")


def build_generator(T: JumpRateMatrix, space: Space,
                    max_states: int = DEFAULT_STATE_CAP) -> FiniteGenerator:
    """Explicit sparse generator of the particle system on a finite space."""
    if not isinstance(space, (CycleSpace, SegmentSpace, TorusSpace)):
        raise TypeError(f"unknown space {space!r}")
    if space.n < 1:
        raise ValueError(f"size {space.n} must be >= 1")
    alphabet = T.alphabet
    n_sites = space.n * space.n if isinstance(space, TorusSpace) else space.n
    check_state_cap(alphabet, n_sites, max_states)
    if isinstance(space, CycleSpace) and space.n < T.range_:
        jumps = _pairwise_jumps(T, n_sites)
    else:
        jumps = _window_jumps(T, space, n_sites)
    return _compress(space, alphabet, n_sites, jumps)


def stationarity_residual(gen: FiniteGenerator, mu: Sequence):
    """max_x |(mu Q)(x)|, exact in rational mode; zero iff mu is invariant.

    Exact when the generator and mu are both rational; otherwise every value
    is rounded to float first and the sums run in a fixed order: each target
    adds its inflows by ascending source."""
    if len(mu) != gen.n_states:
        raise ValueError("measure length does not match the state space")
    if not isinstance(mu, ScaledArray):
        mu = ScaledArray(*_common_denominator(mu))
    exact = gen.exact and mu.exact
    if exact:
        weights, rate, exits = mu.num, gen.rate, gen.exits
    else:
        weights = _floats(mu.num, mu.den)
        rate, exits = _floats(gen.rate, gen.scale), _floats(gen.exits, gen.scale)
    acc = -weights * exits
    np.add.at(acc, gen.dst, weights[gen.sources()] * rate)
    top = np.max(np.abs(acc))
    return Fraction(top, mu.den * gen.scale) if exact else float(top)


# ---------------------------------------------------------------------------
# reference measures on the finite spaces
# ---------------------------------------------------------------------------

def cyclic_chain_weight(kernel: MarkovKernel, x: Word):
    """Unnormalized cyclic weight: product of kernel weights of the n wrapped
    (m+1)-letter windows of x (the per-word form of gibbs_measure)."""
    n = len(x)
    weight = Fraction(1)
    for j in range(n):
        window = tuple(x[(j + i) % n] for i in range(kernel.memory + 1))
        weight *= kernel.step_weight(window)
    return weight


def gibbs_measure(kernel: MarkovKernel, n: int) -> ScaledArray:
    """Normalized cyclic chain law on Z/nZ: the weight of x is the product of
    the kernel weights of its n wrapped (m+1)-letter windows (for memory 1
    this is the usual kernel-weight measure with trace normalization)."""
    alphabet = kernel.alphabet
    kappa, span = alphabet.kappa, kernel.memory + 1
    table, _ = _common_denominator(kernel.step_weight(w) for w in alphabet.words(span))
    digits = _digits(kappa, n)
    weights = np.ones(kappa ** n, dtype=table.dtype)
    for j in range(n):
        weights = weights * table[_pattern_codes(digits, kappa,
                                                 [(j + i) % n for i in range(span)])]
    total = sum(weights.tolist())
    if total == 0:
        raise ValueError("cyclic weights sum to zero; no chain law on this cycle")
    if weights.dtype == object:
        return ScaledArray(weights, total)
    return ScaledArray(weights / total)


def product_measure(rho, n_sites: int) -> ScaledArray:
    """The product of the marginal rho over n_sites sites."""
    Alphabet(len(rho))  # rejects fewer than two letters, like every state space
    factor, den = _common_denominator(rho)
    weights = np.ones(1, dtype=factor.dtype)
    for _ in range(n_sites):
        weights = np.multiply.outer(weights, factor).ravel()
    return ScaledArray(weights, den ** n_sites)


def segment_measure(law: StationaryLaw, n: int) -> List:
    """The stationary chain law restricted to n consecutive sites."""
    alphabet = law.alphabet
    return [law.marginal(alphabet.decode(i, n)) for i in range(alphabet.kappa ** n)]


def line_balance_raw(T: JumpRateMatrix, law: StationaryLaw, x: Word):
    """Direct unnormalized cylinder balance of x on the line.

    Enumerates the dependence window of x (x plus L-1 sites each side) and
    balances inflow against outflow under the stationary law; independent of
    the window-sum machinery in the criteria module.
    """
    x = tuple(x)
    n = len(x)
    L = T.range_
    q = L - 1
    alphabet = law.alphabet
    total = Fraction(0)
    entries = list(T.entries())
    for left in alphabet.words(q):
        for right in alphabet.words(q):
            w = left + x + right
            weight = law.marginal(w)
            if weight == 0:
                continue
            for offset in range(len(w) - L + 1):
                src = w[offset:offset + L]
                for u, v, rate in entries:
                    # outflow: a jump src -> v changing some letter of x
                    if u == src:
                        z = w[:offset] + v + w[offset + L:]
                        if z[q:q + n] != x:
                            total -= weight * rate
                    # inflow: a jump u -> src restoring x from elsewhere
                    if v == src:
                        z = w[:offset] + u + w[offset + L:]
                        if z[q:q + n] != x:
                            total += law.marginal(z) * rate
    return total


# ---------------------------------------------------------------------------
# absorbing structure
# ---------------------------------------------------------------------------

def _tarjan_sccs(ptr: List[int], succ: List[int]) -> List[List[int]]:
    """Iterative Tarjan over CSR lists (the successors of x are
    succ[ptr[x]:ptr[x + 1]]); components come out in reverse topological
    order."""
    n = len(ptr) - 1
    index = [0] * n
    low = [0] * n
    on_stack = [False] * n
    visited = [False] * n
    stack: List[int] = []
    sccs: List[List[int]] = []
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


@dataclass(frozen=True)
class AbsorbingReport:
    """Union S of the closed recurrent classes of a finite generator.

    S is reachable from every state and closed under positive-rate jumps; it
    is a genuine absorbing set in the exclusion argument exactly when it is a
    proper subset of the configuration space.
    """

    sink_components: Tuple[Tuple[int, ...], ...]
    absorbing_states: frozenset
    is_proper: bool
    reaches_all: bool


def absorbing_analysis(gen: FiniteGenerator) -> AbsorbingReport:
    sccs = _tarjan_sccs(gen.indptr.tolist(), gen.dst.tolist())
    comp_of = np.empty(gen.n_states, dtype=np.int64)
    for cid, comp in enumerate(sccs):
        comp_of[comp] = cid
    src = gen.sources()
    leaving = comp_of[src] != comp_of[gen.dst]
    has_exit = np.zeros(len(sccs), dtype=bool)
    has_exit[comp_of[src[leaving]]] = True
    sinks = [tuple(sorted(comp)) for cid, comp in enumerate(sccs) if not has_exit[cid]]
    absorbing = frozenset(node for comp in sinks for node in comp)
    # reverse reachability from the absorbing set, over the jumps sorted by target
    order = np.argsort(gen.dst)
    pred = src[order].tolist()
    ptr = np.searchsorted(gen.dst[order], np.arange(gen.n_states + 1)).tolist()
    seen = set(absorbing)
    frontier = list(absorbing)
    while frontier:
        node = frontier.pop()
        for prev in pred[ptr[node]:ptr[node + 1]]:
            if prev not in seen:
                seen.add(prev)
                frontier.append(prev)
    return AbsorbingReport(tuple(sorted(sinks)), absorbing,
                           len(absorbing) < gen.n_states,
                           len(seen) == gen.n_states)


@dataclass(frozen=True)
class ExclusionVerdict:
    """Result of the absorbing-set exclusion argument over several cycle sizes."""

    excluded: bool
    memory_bound: Optional[int]
    tested_sizes: Tuple[int, ...]
    proper_sizes: Tuple[int, ...]
    pattern_persists: bool
    note: str


def absorbing_exclusion(T: JumpRateMatrix, n_values: Sequence[int],
                        max_states: int = DEFAULT_STATE_CAP) -> ExclusionVerdict:
    """Exclude full-support invariant Markov laws via absorbing sets.

    A proper absorbing set on Z/nZ rules out full-support invariant Markov
    laws with memory m <= n - L.  Finitely many cycle sizes can only certify
    the bound from the largest tested n; if every tested size is proper the
    verdict carries an explicit extrapolation flag, not a proof for all m.
    """
    if T.is_zero:
        raise ValueError("zero dynamics: every state is absorbing, all laws invariant")
    tested = tuple(n_values)
    if not tested or min(tested) < 1:
        raise ValueError("cycle sizes must be a nonempty list of sizes >= 1")
    if max(tested) < T.range_:
        raise ValueError(f"no memory bound: the largest cycle size {max(tested)} "
                         f"is below the range {T.range_}")
    proper = []
    for n in tested:
        gen = build_generator(T, CycleSpace(n), max_states=max_states)
        if absorbing_analysis(gen).is_proper:
            proper.append(n)
    if len(proper) == len(tested):
        bound = max(tested) - T.range_
        return ExclusionVerdict(True, bound, tested, tuple(proper), True,
                                f"no full-support invariant Markov law with memory <= {bound}; "
                                "absorbing pattern persists on every tested size")
    return ExclusionVerdict(False, None, tested, tuple(proper), False,
                            "inconclusive: some tested cycle has no proper absorbing set")
