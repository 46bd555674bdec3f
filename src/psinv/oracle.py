"""Brute-force ground truth on finite configuration spaces.

For a cycle Z/nZ, a segment {1..n} with boundary rates, or an n x n torus,
the particle system is an honest finite-state Markov jump process.  This
module builds its rate matrix Q from its jump windows, cycles shorter than
the range included, each build counted against TRANSITION_BUDGET before
anything is allocated.  A build keeps the window groups and their rates;
the full Q as integer index arrays (compressed sparse rows; diagonal
implicit) is compressed only when something reads it.  Exact stationarity
residuals mu Q need no stored Q: each window's local generator acts on mu,
viewed as a base-kappa tensor with the window's sites first.  The module
also computes cyclic chain (Gibbs) weights and product weights, and finds
the closed classes of the jump graph by labelling each state with the least
state it reaches.  Exact rates and measures are integers over one common
denominator each: int64 when an a-priori bound on every value and sum
computed from them (largest numerator x largest factor x number of terms;
for the residual, top(mu) x the windows' largest local exit or inflow rate)
is below INT64_LIMIT, Python ints in object arrays otherwise, so every sum
is an exact integer sum; floats stay float64, summed in a fixed order.
Everything here is independent of the criteria module so the two can be
tested against each other.
"""
from __future__ import annotations

from bisect import bisect_left
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterator, List, Optional, Tuple, Union

import numpy as np

from .core import (Alphabet, BoundaryRates, JumpRateMatrix, MarkovKernel,
                   StationaryLaw, Word)
from .scalars import all_exact, over_common_denominator

DEFAULT_STATE_CAP = 2 ** 20
# raw transitions one build may generate: the build peaks below 50 bytes
# per raw transition, so about 0.4 GB
TRANSITION_BUDGET = 2 ** 23
# exact arrays are int64 when every value computed from them stays below this
INT64_LIMIT = 2 ** 62


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

def _common_denominator(values) -> Tuple[object, int, bool]:
    """(numerators, denominator, exact): Python ints over the least common
    denominator when every value is rational, float64 values over 1 as soon
    as one of them is a float."""
    values = list(values)
    if not all_exact(values):
        return np.array([float(v) for v in values], dtype=float), 1, False
    return (*over_common_denominator([Fraction(v) for v in values]), True)


def _ints(values, bound: int) -> np.ndarray:
    """Integers as int64 when `bound`, an a-priori bound on every value and
    sum that will be computed from them, is below INT64_LIMIT; otherwise as
    Python ints in an object array."""
    if bound < INT64_LIMIT:
        return np.asarray(values, dtype=np.int64)
    if isinstance(values, np.ndarray):
        return values.astype(object)
    out = np.empty(len(values), dtype=object)
    out[:] = values
    return out


def _top(num) -> int:
    """The largest |value| of a list or array of integers, as a Python int."""
    if isinstance(num, np.ndarray) and num.dtype != object:
        return int(np.abs(num).max(initial=0))
    return max(map(abs, num.tolist() if isinstance(num, np.ndarray) else num), default=0)


def _floats(num: np.ndarray, den: int, exact: bool) -> np.ndarray:
    """num / den as float64, each value correctly rounded like float(Fraction)."""
    if not exact:
        return num
    return np.array([v / den for v in num.tolist()], dtype=float)


class ScaledArray(Sequence):
    """The vector num / den.  Exact vectors hold integers (int64, or Python
    ints in an object array) over the positive int den; float vectors hold
    float64 values over 1.  Indexing yields Fraction or float; == compares
    values with any sequence."""

    __hash__ = None  # type: ignore[assignment]

    def __init__(self, num: np.ndarray, den: int, exact: bool):
        num.setflags(write=False)
        self.num, self.den, self.exact = num, den, exact

    def __len__(self) -> int:
        return len(self.num)

    def __getitem__(self, index: int):
        value = self.num[index]
        return Fraction(int(value), self.den) if self.exact else float(value)

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
    the diagonal entry is -exits[x] / scale.  An exact generator holds
    integers (int64 or Python ints, see INT64_LIMIT) over `scale`, the least
    common denominator of the rates; a float generator holds float64 rates
    and scale 1.

    The generator is kept as its window groups (sites, moves) and `values`,
    the rates of the moves over `scale`, group by group, as int64 or Python
    ints fixed at build time; the four CSR arrays are compressed from them on
    first read.  Exact residuals need no CSR arrays.

    `rows[x]` is a {target: rate} view of row x and `exit_rates[x]` the exit
    rate, both as Fraction or float."""

    def __init__(self, space: Space, alphabet: Alphabet, n_sites: int, groups,
                 values: np.ndarray, scale: int, exact: bool):
        self.space, self.alphabet, self.n_sites = space, alphabet, n_sites
        self.groups, self.values, self.scale, self.exact = groups, values, scale, exact

    @property
    def n_states(self) -> int:
        return self.alphabet.kappa ** self.n_sites

    @cached_property
    def _csr(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        blocks = _window_blocks(self.groups, self.alphabet.kappa, self.n_sites)
        return _compress(self.n_states, blocks, self.values, self.exact)

    indptr = property(lambda self: self._csr[0])
    dst = property(lambda self: self._csr[1])
    rate = property(lambda self: self._csr[2])
    exits = property(lambda self: self._csr[3])

    @cached_property
    def _local(self):
        """Per window group: the axis order of each window (its sites in
        pattern order, then the other sites), the letters of the patterns the
        moves touch (one array per window site), their local exit rates, and
        rounds of moves (sources, rates): touched pattern j receives, in
        each round, rates[j] times the weight of touched pattern sources[j]
        (rate 0 where no move is left to add), as Python ints.  Also the sum
        over all windows of the largest local exit or inflow rate."""
        values, local, reach, at = self.values.tolist(), [], 0, 0
        everywhere = set(range(self.n_sites))
        for sites, moves in self.groups:
            touched = sorted({u for u, _, _ in moves} | {v for _, v, _ in moves})
            index = {word: i for i, word in enumerate(touched)}
            exits, inflow, rounds = [0] * len(touched), [0] * len(touched), []
            depth = [0] * len(touched)
            for (u, v, _), rate in zip(moves, values[at:at + len(moves)]):
                i, j = index[u], index[v]
                exits[i] += rate
                inflow[j] += rate
                if depth[j] == len(rounds):
                    rounds.append((list(range(len(touched))), [0] * len(touched)))
                rounds[depth[j]][0][j], rounds[depth[j]][1][j] = i, rate
                depth[j] += 1
            at += len(moves)
            reach += len(sites) * max(exits + inflow)
            orders = [tuple(window) + tuple(sorted(everywhere.difference(window)))
                      for window in sites.tolist()]
            local.append((orders, tuple(np.array(col) for col in zip(*touched)), exits,
                          [(np.array(sources), rates) for sources, rates in rounds]))
        return local, reach

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
        return ScaledArray(self.rate, self.scale, self.exact)

    @property
    def exit_rates(self) -> ScaledArray:
        return ScaledArray(self.exits, self.scale, self.exact)

    def sources(self) -> np.ndarray:
        """The source state of every stored jump (the row index of dst)."""
        return np.repeat(np.arange(self.n_states, dtype=np.int64), np.diff(self.indptr))

    def state_word(self, index: int) -> Word:
        return self.alphabet.decode(index, self.n_sites)

    def state_index(self, word: Word) -> int:
        return self.alphabet.encode(word)

    def row_sum_defect(self):
        """max |sum of off-diagonal row - exit rate|: the exit rates are
        summed from the raw jumps, so this is zero (up to rounding for
        floats) unless merging the transitions lost or changed a rate."""
        sums = np.zeros(self.n_states, dtype=self.rate.dtype)
        np.add.at(sums, self.sources(), self.rate)
        top = np.max(np.abs(sums - self.exits))
        return Fraction(int(top), self.scale) if self.exact else float(top)


def _window_groups(T: JumpRateMatrix, space: Space):
    """The jump windows of a space, grouped by move list: (sites, moves) with
    sites[w] the sites of window w in pattern order and moves the (u, v, rate)
    in source-pattern order.  Cycles wrap; segments add their two boundary
    windows; the torus has one 2x2 square per site, cells in SQUARE_CELLS
    order."""
    moves = list(T.entries())
    L, n = T.range_, space.n
    if isinstance(space, CycleSpace):
        if n < L:
            # a window reads each site more than once: a move applies when
            # both of its words repeat with period n, and then acts as
            # u[:n] -> v[:n] on the window's n sites
            moves = [(u[:n], v[:n], rate) for u, v, rate in moves
                     if u[n:] == u[:L - n] and v[n:] == v[:L - n]]
        groups = [(np.add.outer(np.arange(n), np.arange(min(L, n))) % n, moves)]
    elif isinstance(space, SegmentSpace):
        groups = [(np.add.outer(np.arange(max(n - L + 1, 0)), np.arange(L)), moves)]
        boundary = space.boundary
        if boundary is not None:
            if boundary.left.range_ != L - 1:
                raise ValueError(f"boundary rates must have range {L - 1}")
            if n >= L - 1:
                groups.append((np.arange(L - 1)[None, :], list(boundary.left.entries())))
                groups.append((np.arange(n - L + 1, n)[None, :], list(boundary.right.entries())))
    else:
        if n < 2:
            raise ValueError("torus oracle needs n >= 2")
        if L != 4:
            raise ValueError("torus dynamics need rates over 2x2-square patterns (length 4)")
        i, j = np.divmod(np.arange(n * n), n)
        groups = [(np.stack([(i + di) % n * n + (j + dj) % n for di in (0, 1) for dj in (0, 1)],
                            axis=1), moves)]
    return [(sites, moves) for sites, moves in groups if len(sites) and moves]


def _transitions(groups, kappa: int, n_sites: int) -> int:
    """The raw transitions of the window groups: windows x moves x the
    kappa^(sites - width) states that show each pattern."""
    return sum(len(sites) * len(moves) * kappa ** (n_sites - sites.shape[1])
               for sites, moves in groups)


def _window_blocks(groups, kappa: int, n_sites: int):
    """The jump blocks (fro, base, shift, move index) of every group, the
    move indices counting the moves group by group.  The states that show
    move k's pattern u on window w are fro[w, k] + base[w, :], ascending, and
    each of them jumps by shift[w, k]: base[w] lists the states that read
    zeros on window w, and fro[w, k] puts u's digits in place."""
    blocks, at = [], 0
    for sites, moves in groups:
        windows, width = sites.shape
        place = kappa ** (n_sites - 1 - sites)
        u = np.array([move[0] for move in moves], dtype=np.int64)
        v = np.array([move[1] for move in moves], dtype=np.int64)
        # the states that read zeros on each window, from the other sites' digits
        others = np.ones((windows, n_sites), dtype=bool)
        others[np.arange(windows)[:, None], sites] = False
        other_place = kappa ** (n_sites - 1 - np.nonzero(others)[1].reshape(windows, -1))
        base = np.zeros((windows, 1), dtype=np.int64)
        for t in range(n_sites - width):
            base = (base[:, :, None] + other_place[:, t, None, None] * np.arange(kappa)).reshape(
                windows, -1)
        blocks.append((place @ u.T, base, place @ (v - u).T, np.arange(at, at + len(moves))))
        at += len(moves)
    return blocks


def _compress(n_states: int, blocks, values: np.ndarray, exact: bool):
    """The CSR arrays (indptr, dst, rate, exits) from jump blocks (fro, base,
    shift, move): the states fro[w, k] + base[w, :] jump by shift[w, k] at
    values[move[k]].  Generation order is block list, window, move, ascending
    source.

    Transitions between the same two states are merged; exit rates add the
    rates of the raw jumps, apart from the merge.  Float sums keep the
    generation order: each exit rate and each merged rate adds its terms in
    the order they were generated."""
    empty = np.zeros(0, dtype=np.int64)
    shift = np.concatenate([s.ravel() for _, _, s, _ in blocks] + [empty])
    move = np.concatenate([np.broadcast_to(m, s.shape).ravel() for _, _, s, m in blocks]
                          + [empty]).astype(np.min_scalar_type(len(values)))
    width = np.concatenate([np.full(s.size, base.shape[1]) for _, base, s, _ in blocks] + [empty])
    raw = int(width.sum())
    # rank the blocks by shift, ties in generation order: then sorting the
    # keys source * J + rank orders the jumps by source, then target, and
    # keeps the jumps between two states in generation order.  Each block's
    # keys are ascending, so the stable sort merges sorted runs.
    bits = max(len(shift) - 1, 0).bit_length()
    J = 1 << bits
    by_shift = np.argsort(shift, kind="stable")
    rank = np.empty(len(shift), dtype=np.int64)
    rank[by_shift] = np.arange(len(shift))
    key = np.empty(raw, dtype=np.int64)
    at = block = 0
    for fro, base, s, _ in blocks:
        part = key[at:at + s.size * base.shape[1]].reshape(*s.shape, base.shape[1])
        np.add((fro * J + rank[block:block + s.size].reshape(s.shape))[:, :, None],
               base[:, None, :] * J, out=part)
        at, block = at + part.size, block + s.size
    exits = np.zeros(n_states, dtype=values.dtype)
    if not exact:
        np.add.at(exits, key >> bits, np.repeat(values[move], width))
    key.sort(kind="stable")
    src = key >> bits
    np.bitwise_and(key, J - 1, out=key)
    dst = shift[by_shift][key]
    dst += src
    move = move[by_shift][key]
    del key
    jump = values[move]
    del move
    new = np.ones(raw, dtype=bool)
    new[1:] = (dst[1:] != dst[:-1]) | (src[1:] != src[:-1])
    first = np.flatnonzero(new)
    if len(first) == raw:
        rate, targets = jump, dst
    else:
        targets = dst[first]
        del dst
        src, rate = src[first], jump[first]
        size = np.diff(first, append=raw)
        for k in range(1, int(size.max())):
            long = np.flatnonzero(size > k)
            rate[long] += jump[first[long] + k]
    indptr = np.zeros(n_states + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n_states), out=indptr[1:])
    if exact:
        # integer sums do not depend on their order: each row adds its raw
        # jumps, which start at the first jump of its first target
        rows = np.flatnonzero(np.diff(indptr))
        exits[rows] = np.add.reduceat(jump, first[indptr[rows]])
    for array in (indptr, targets, rate, exits):
        array.setflags(write=False)
    return indptr, targets, rate, exits


def check_state_cap(alphabet: Alphabet, n_sites: int, max_states: int = DEFAULT_STATE_CAP):
    """Raise StateCapExceeded when kappa^n_sites configurations exceed the cap.
    A size past the cap's bit length exceeds it (kappa >= 2) and is not
    raised to the power beyond 64 sites: the count is printed as kappa^n,
    since it can have more digits than Python converts to a string."""
    kappa = alphabet.kappa
    if n_sites > max_states.bit_length():
        count = kappa ** n_sites if n_sites <= 64 else f"{kappa}^{n_sites}"
    elif (count := kappa ** n_sites) <= max_states:
        return
    raise StateCapExceeded(f"{count} states exceed the cap {max_states}")


def check_space(T: JumpRateMatrix, space: Space, max_states: int = DEFAULT_STATE_CAP):
    """Check a space before anything is allocated: raise StateCapExceeded
    when it has more states than the cap, or when its generator would hold
    more than TRANSITION_BUDGET raw transitions (windows x moves x the
    kappa^(sites - width) states that show each pattern).  Returns the number
    of sites and the window groups."""
    if not isinstance(space, (CycleSpace, SegmentSpace, TorusSpace)):
        raise TypeError(f"unknown space {space!r}")
    if space.n < 1:
        raise ValueError(f"size {space.n} must be >= 1")
    n_sites = space.n * space.n if isinstance(space, TorusSpace) else space.n
    check_state_cap(T.alphabet, n_sites, max_states)
    groups = _window_groups(T, space)
    count = _transitions(groups, T.alphabet.kappa, n_sites)
    if count > TRANSITION_BUDGET:
        raise StateCapExceeded(f"about {count} transitions exceed the budget {TRANSITION_BUDGET}")
    return n_sites, groups


def build_generator(T: JumpRateMatrix, space: Space,
                    max_states: int = DEFAULT_STATE_CAP) -> FiniteGenerator:
    """Explicit sparse generator of the particle system on a finite space."""
    n_sites, groups = check_space(T, space, max_states)
    nums, scale, exact = _common_denominator(rate for _, moves in groups for _, _, rate in moves)
    # every exit and merged rate is a sum of at most this many nonnegative rates
    raw = _transitions(groups, T.alphabet.kappa, n_sites)
    values = _ints(nums, _top(nums) * raw) if exact else nums
    return FiniteGenerator(space, T.alphabet, n_sites, groups, values, scale, exact)


def stationarity_residual(gen: FiniteGenerator, mu: Sequence):
    """max_x |(mu Q)(x)|, exact in rational mode; zero iff mu is invariant.

    Exact when the generator and mu are both rational: mu Q is summed window
    by window, each window's local generator acting on mu viewed as a
    base-kappa tensor with the window's sites first, on int64 when the bound
    allows and on Python ints otherwise.  Otherwise every value is rounded
    to float first and the sums run over the CSR arrays in a fixed order:
    each target adds its inflows by ascending source."""
    if len(mu) != gen.n_states:
        raise ValueError("measure length does not match the state space")
    if not isinstance(mu, ScaledArray):
        nums, den, exact = _common_denominator(mu)
        mu = ScaledArray(_ints(nums, _top(nums)) if exact else nums, den, exact)
    exact = gen.exact and mu.exact
    if exact:
        # one window adds -mu(x) exit(x) and the inflows mu(y) rate, so each
        # of its partial sums is at most top(mu) times the larger of the
        # largest local exit and inflow rate, and the windows add up; the
        # bound also covers the weights and the local rates themselves
        local, reach = gen._local
        weights = _ints(mu.num, max(_top(mu.num), 1) * (reach + 1))
        acc = np.zeros(gen.n_states, dtype=weights.dtype)
        shape = (gen.alphabet.kappa,) * gen.n_sites
        tensor, out = weights.reshape(shape), acc.reshape(shape)
        for orders, letters, exits, rounds in local:
            diagonal = -np.array(exits, dtype=weights.dtype)[:, None]
            jumps = [(sources, np.array(rates, dtype=weights.dtype)[:, None])
                     for sources, rates in rounds]
            for order in orders:
                flow = tensor.transpose(order)[letters]
                flat = flow.reshape(len(exits), -1)
                part = diagonal * flat
                for sources, rates in jumps:
                    part += rates * flat[sources]
                # one window's touched patterns are distinct states
                out.transpose(order)[letters] += part.reshape(flow.shape)
    else:
        weights = _floats(mu.num, mu.den, mu.exact)
        rate, exits = (_floats(a, gen.scale, gen.exact) for a in (gen.rate, gen.exits))
        acc = -weights * exits
        np.add.at(acc, gen.dst, weights[gen.sources()] * rate)
    top = np.max(np.abs(acc))
    return Fraction(int(top), mu.den * gen.scale) if exact else float(top)


# ---------------------------------------------------------------------------
# reference measures on the finite spaces
# ---------------------------------------------------------------------------

def gibbs_measure(kernel: MarkovKernel, n: int) -> ScaledArray:
    """Normalized cyclic chain law on Z/nZ: the weight of x is the product of
    the kernel weights of its n wrapped (m+1)-letter windows (for memory 1
    this is the usual kernel-weight measure with trace normalization)."""
    alphabet = kernel.alphabet
    kappa, span = alphabet.kappa, kernel.memory + 1
    nums, _, exact = _common_denominator(kernel.step_weight(w) for w in alphabet.words(span))
    # each weight is a product of n entries, and the total sums kappa^n weights
    table = _ints(nums, _top(nums) ** n * kappa ** n) if exact else nums
    # windows 0 .. n - span lie inside the word: extend the prefixes one
    # letter at a time, each extension adding the window that ends there
    weights = np.ones(kappa ** min(span - 1, n), dtype=table.dtype)
    for length in range(span, n + 1):
        weights = np.repeat(weights, kappa) * np.tile(table, kappa ** (length - span))
    # the wrapped windows, read off the word repeated `laps` times
    laps = -(-(n + span - 1) // n)
    word = np.arange(kappa ** n, dtype=np.int64) * sum(kappa ** (n * k) for k in range(laps))
    for j in range(max(n - span + 1, 0), n):
        weights = weights * table[word // kappa ** (n * laps - j - span) % kappa ** span]
    total = int(weights.sum()) if exact else sum(weights.tolist())
    if total == 0:
        raise ValueError("cyclic weights sum to zero; no chain law on this cycle")
    if exact:
        return ScaledArray(weights, total, True)
    return ScaledArray(weights / total, 1, False)


def product_measure(rho, n_sites: int) -> ScaledArray:
    """The product of the marginal rho over n_sites sites."""
    Alphabet(len(rho))  # rejects fewer than two letters, like every state space
    nums, den, exact = _common_denominator(rho)
    factor = _ints(nums, _top(nums) ** n_sites) if exact else nums
    weights = np.ones(1, dtype=factor.dtype)
    for _ in range(n_sites):
        weights = np.multiply.outer(weights, factor).ravel()
    return ScaledArray(weights, den ** n_sites, exact)


def segment_measure(law: StationaryLaw, n: int) -> List:
    """The stationary chain law restricted to n consecutive sites."""
    alphabet = law.alphabet
    return [law.marginal(alphabet.decode(i, n)) for i in range(alphabet.kappa ** n)]


# ---------------------------------------------------------------------------
# absorbing structure
# ---------------------------------------------------------------------------

def _reach(indptr: np.ndarray, adj: np.ndarray, seen: np.ndarray) -> np.ndarray:
    """Mark, in place, every state reachable from the marked ones, where the
    neighbours of x are adj[indptr[x]:indptr[x + 1]]: a frontier search that
    gathers each level's neighbours at once."""
    frontier = np.flatnonzero(seen)
    slot = np.empty(len(seen), dtype=np.int64)
    while len(frontier):
        lo = indptr[frontier]
        counts = indptr[frontier + 1] - lo
        ends = np.cumsum(counts)
        near = adj[np.arange(ends[-1]) + np.repeat(lo - ends + counts, counts)]
        near = near[~seen[near]]
        # one copy of each new state: the one whose position its slot keeps
        at = np.arange(len(near))
        slot[near] = at
        frontier = near[slot[near] == at]
        seen[frontier] = True
    return seen


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
    """The closed classes of the jump graph, from least[x], the least state
    that x reaches.  A closed class C has least = min C on all of C, and so
    do all successors of its states; conversely, if every state reachable
    from r has the label r, then everything r reaches also reaches r, so r
    reaches exactly one closed class."""
    n, indptr, dst = gen.n_states, gen.indptr, gen.dst
    src = gen.sources()
    rows = np.flatnonzero(np.diff(indptr))
    # min-propagation over the jumps, with pointer jumping: least[least[x]]
    # is reachable from x too
    least = np.arange(n)
    while True:
        step = least.copy()
        if len(rows):
            step[rows] = np.minimum(step[rows], np.minimum.reduceat(least[dst], indptr[rows]))
        step = np.minimum(step, step[step])
        if np.array_equal(step, least):
            break
        least = step
    # reverse adjacency: the sources of the jumps into each state
    # (a stable sort of a small integer type is a radix sort)
    order = np.argsort(dst.astype(np.min_scalar_type(n - 1)), kind="stable")
    pred = src[order]
    rptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(dst, minlength=n), out=rptr[1:])
    # drop every state that reaches a jump between two labels: the rest is
    # the largest closed set on which each jump keeps its label
    leaky = np.zeros(n, dtype=bool)
    leaky[src[least[src] != least[dst]]] = True
    _reach(rptr, pred, leaky)
    absorbing = _reach(indptr, dst, ~leaky & (least == np.arange(n)))
    states = np.flatnonzero(absorbing)
    labels = least[states]
    order = np.argsort(labels, kind="stable")
    classes = np.split(states[order], np.flatnonzero(np.diff(labels[order])) + 1)
    reached = _reach(rptr, pred, absorbing.copy())
    return AbsorbingReport(tuple(tuple(c.tolist()) for c in classes),
                           frozenset(states.tolist()), len(states) < n, bool(reached.all()))


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
