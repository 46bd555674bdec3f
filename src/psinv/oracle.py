"""Brute-force ground truth on finite configuration spaces.

For a cycle Z/nZ, a segment {1..n} with boundary rates, or an n x n torus,
the particle system is an honest finite-state Markov jump process.  This
module builds its full rate matrix Q (sparse, row-wise; diagonal implicit),
evaluates stationarity residuals mu Q exactly, computes cyclic chain (Gibbs)
weights, and analyses absorbing structure through strongly connected
components.  Everything here is independent of the criteria module so the
two can be tested against each other.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .core import (Alphabet, BoundaryRates, JumpRateMatrix, MarkovKernel,
                   StationaryLaw, Word, induced_rate_cyclic)

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


@dataclass
class FiniteGenerator:
    """Explicit generator: rows[x][y] is the total jump rate x -> y (x != y);
    the diagonal is minus the row's exit rate."""

    space: Space
    alphabet: Alphabet
    n_sites: int
    rows: List[Dict[int, object]]
    exit_rates: List[object]

    @property
    def n_states(self) -> int:
        return self.alphabet.kappa ** self.n_sites

    def state_word(self, index: int) -> Word:
        return self.alphabet.decode(index, self.n_sites)

    def state_index(self, word: Word) -> int:
        return self.alphabet.encode(word)

    def row_sum_defect(self):
        """max |sum of off-diagonal row - exit rate|; zero by construction."""
        return max((abs(sum(row.values()) - exit) for row, exit
                    in zip(self.rows, self.exit_rates)), default=Fraction(0))


def _add_rate(rows, exits, src: int, dst: int, rate):
    if src == dst or rate == 0:
        return
    rows[src][dst] = rows[src].get(dst, Fraction(0)) + rate
    exits[src] += rate


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


def build_generator(T: JumpRateMatrix, space: Space,
                    max_states: int = DEFAULT_STATE_CAP) -> FiniteGenerator:
    """Explicit sparse generator of the particle system on a finite space."""
    if not isinstance(space, (CycleSpace, SegmentSpace, TorusSpace)):
        raise TypeError(f"unknown space {space!r}")
    alphabet = T.alphabet
    n_sites = space.n * space.n if isinstance(space, TorusSpace) else space.n
    n_states = alphabet.kappa ** n_sites
    if n_states > max_states:
        raise StateCapExceeded(f"{n_states} states exceed the cap {max_states}")
    rows: List[Dict[int, object]] = [dict() for _ in range(n_states)]
    exits: List[object] = [Fraction(0) for _ in range(n_states)]
    if isinstance(space, CycleSpace) and space.n < T.range_:
        # wrapped windows overlap themselves; fall back to the pairwise rate
        words = list(alphabet.words(n_sites))
        for w in words:
            for z in words:
                if w != z:
                    _add_rate(rows, exits, alphabet.encode(w), alphabet.encode(z),
                              induced_rate_cyclic(T, w, z))
    else:
        windows = _site_windows(T, space)
        for index in range(n_states):
            w = alphabet.decode(index, n_sites)
            for sites, moves in windows:
                for v, rate in moves.get(tuple(w[k] for k in sites), ()):
                    z = list(w)
                    for site, letter in zip(sites, v):
                        z[site] = letter
                    _add_rate(rows, exits, index, alphabet.encode(z), rate)
    return FiniteGenerator(space, alphabet, n_sites, rows, exits)


def stationarity_residual(gen: FiniteGenerator, mu: Sequence):
    """max_x |(mu Q)(x)|, exact in rational mode; zero iff mu is invariant."""
    if len(mu) != gen.n_states:
        raise ValueError("measure length does not match the state space")
    acc = [-mu[x] * gen.exit_rates[x] for x in range(gen.n_states)]
    for y, row in enumerate(gen.rows):
        if mu[y] == 0:
            continue
        for x, rate in row.items():
            acc[x] += mu[y] * rate
    return max((abs(v) for v in acc), default=Fraction(0))


# ---------------------------------------------------------------------------
# reference measures on the finite spaces
# ---------------------------------------------------------------------------

def cyclic_chain_weight(kernel: MarkovKernel, x: Word):
    """Unnormalized cyclic weight: product of kernel weights of the n wrapped
    (m+1)-letter windows of x."""
    n = len(x)
    weight = Fraction(1)
    for j in range(n):
        window = tuple(x[(j + i) % n] for i in range(kernel.memory + 1))
        weight *= kernel.step_weight(window)
    return weight


def gibbs_measure(kernel: MarkovKernel, n: int) -> List:
    """Normalized cyclic chain law on Z/nZ (for memory 1 this is the usual
    kernel-weight measure with trace normalization)."""
    alphabet = kernel.alphabet
    weights = [cyclic_chain_weight(kernel, alphabet.decode(i, n))
               for i in range(alphabet.kappa ** n)]
    total = sum(weights)
    if total == 0:
        raise ValueError("cyclic weights sum to zero; no chain law on this cycle")
    return [w / total for w in weights]


def product_measure(rho, n_sites: int) -> List:
    kappa = len(rho)
    alphabet = Alphabet(kappa)
    out = []
    for i in range(kappa ** n_sites):
        w = alphabet.decode(i, n_sites)
        weight = Fraction(1)
        for a in w:
            weight *= rho[a]
        out.append(weight)
    return out


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

def _tarjan_sccs(adjacency: List[List[int]]) -> List[List[int]]:
    """Iterative Tarjan; components come out in reverse topological order."""
    n = len(adjacency)
    index = [0] * n
    low = [0] * n
    on_stack = [False] * n
    visited = [False] * n
    stack: List[int] = []
    sccs: List[List[int]] = []
    counter = [1]
    for root in range(n):
        if visited[root]:
            continue
        work = [(root, 0)]
        while work:
            node, edge_pos = work.pop()
            if edge_pos == 0:
                visited[node] = True
                index[node] = low[node] = counter[0]
                counter[0] += 1
                stack.append(node)
                on_stack[node] = True
            advanced = False
            for k in range(edge_pos, len(adjacency[node])):
                succ = adjacency[node][k]
                if not visited[succ]:
                    work.append((node, k + 1))
                    work.append((succ, 0))
                    advanced = True
                    break
                if on_stack[succ]:
                    low[node] = min(low[node], index[succ])
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
    adjacency = [sorted(row.keys()) for row in gen.rows]
    sccs = _tarjan_sccs(adjacency)
    comp_of = [0] * gen.n_states
    for cid, comp in enumerate(sccs):
        for node in comp:
            comp_of[node] = cid
    has_exit = [False] * len(sccs)
    for u in range(gen.n_states):
        for v in adjacency[u]:
            if comp_of[v] != comp_of[u]:
                has_exit[comp_of[u]] = True
    sinks = [tuple(sorted(comp)) for cid, comp in enumerate(sccs) if not has_exit[cid]]
    absorbing = frozenset(node for comp in sinks for node in comp)
    # reverse reachability from the absorbing set
    reverse: List[List[int]] = [[] for _ in range(gen.n_states)]
    for u in range(gen.n_states):
        for v in adjacency[u]:
            reverse[v].append(u)
    seen = set(absorbing)
    frontier = list(absorbing)
    while frontier:
        node = frontier.pop()
        for prev in reverse[node]:
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
    proper = []
    for n in n_values:
        gen = build_generator(T, CycleSpace(n), max_states=max_states)
        if absorbing_analysis(gen).is_proper:
            proper.append(n)
    tested = tuple(n_values)
    if len(proper) == len(tested) and tested:
        bound = max(tested) - T.range_
        return ExclusionVerdict(True, bound, tested, tuple(proper), True,
                                f"no full-support invariant Markov law with memory <= {bound}; "
                                "absorbing pattern persists on every tested size")
    return ExclusionVerdict(False, None, tested, tuple(proper), False,
                            "inconclusive: some tested cycle has no proper absorbing set")
