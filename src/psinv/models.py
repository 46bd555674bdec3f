"""Catalog of concrete particle systems with their documented verdicts.

Each builder returns a ModelSpec bundling the jump rates (1D or 2x2-square)
with optional canonical kernels or marginals; its docstring states the
model's known invariant laws.  Infinite-alphabet models (zero range, block size
dynamics) are instantiated on a finite truncation {0..kappa-1}: jumps that
would leave the truncation are dropped and the number of dropped entries is
recorded in the model's notes, so truncation effects stay visible.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from .core import Alphabet, JumpRateMatrix, MarkovKernel, StationaryLaw, Word
from .lattice2d import SQUARE_CELLS
from .scalars import as_scalar


@dataclass(frozen=True)
class ModelSpec:
    jrm: Optional[JumpRateMatrix] = None
    square: Optional[JumpRateMatrix] = None
    kernel: Optional[MarkovKernel] = None
    rho: Optional[Tuple] = None
    notes: Tuple[str, ...] = ()


def tasep() -> ModelSpec:
    """Totally asymmetric exclusion: a particle hops onto an empty right
    neighbour at rate 1.  Every Bernoulli(p) product, 0 < p < 1, is invariant."""
    return ModelSpec(jrm=JumpRateMatrix(Alphabet(2), 2, {((1, 0), (0, 1)): 1}))


def contact(lam, encoding: str = "L2") -> ModelSpec:
    """Contact process: recovery at rate 1, infection by each occupied
    neighbour at rate lam.  The range-2 encoding is primary (smaller
    criterion systems); the range-3 encoding is kept for cross-checks.  The
    all-zero configuration is absorbing, so no full-support Markov law of
    any memory is invariant."""
    lam = as_scalar(lam)
    if lam <= 0:
        raise ValueError("infection rate must be positive")
    alphabet = Alphabet(2)
    if encoding == "L2":
        rates = {
            ((1, 0), (1, 1)): lam,
            ((0, 1), (1, 1)): lam,
            ((1, 1), (0, 1)): 1,
            ((1, 0), (0, 0)): 1,
        }
        T = JumpRateMatrix(alphabet, 2, rates)
    elif encoding == "L3":
        rates = {}
        for a in (0, 1):
            for b in (0, 1):
                rates[((a, 1, b), (a, 0, b))] = 1
                if a + b:
                    rates[((a, 0, b), (a, 1, b))] = lam * (a + b)
        T = JumpRateMatrix(alphabet, 3, rates)
    else:
        raise ValueError("encoding must be 'L2' or 'L3'")
    return ModelSpec(jrm=T)


def voter(kappa: int = 2) -> ModelSpec:
    """Voter model: the middle site adopts the opinion of each neighbour at
    rate 1 (rate 2 when both neighbours agree on a new opinion).  The kappa
    constant configurations are absorbing, so no full-support Markov law of
    any memory is invariant."""
    alphabet = Alphabet(kappa)
    rates: Dict[Tuple[Word, Word], object] = {}
    for a, m, b in itertools.product(alphabet.letters, repeat=3):
        for c in alphabet.letters:
            if c == m:
                continue
            rate = (1 if c == a else 0) + (1 if c == b else 0)
            if rate:
                rates[((a, m, b), (a, c, b))] = rate
    return ModelSpec(jrm=JumpRateMatrix(alphabet, 3, rates))


def stochastic_ising(x) -> ModelSpec:
    """Spin-flip dynamics with rates x^((2b-1)(2a+2c-2)) for flipping the
    middle of (a, b, c); x plays the role of the inverse temperature weight
    and must be rational so everything stays exact.  The Z table vanishes
    identically, and the bundled kernel, with M[0][1] = x^2/(1+x^2) and
    M[1][1] = 1/(1+x^2), gives the unique invariant chain law."""
    x = as_scalar(x)
    if x <= 0:
        raise ValueError("the weight x must be positive")
    alphabet = Alphabet(2)
    rates = {}
    for a, b, c in itertools.product((0, 1), repeat=3):
        exponent = (2 * b - 1) * (2 * a + 2 * c - 2)
        rates[((a, b, c), (a, 1 - b, c))] = x ** exponent
    p_align = 1 / (1 + x ** 2)       # stay aligned with the previous spin
    kernel = MarkovKernel.from_matrix([[p_align, 1 - p_align],
                                       [1 - p_align, p_align]])
    return ModelSpec(jrm=JumpRateMatrix(alphabet, 3, rates), kernel=kernel)


def tasep3(r10, r20, r21) -> ModelSpec:
    """Three-colour overtaking dynamics: ba -> ab at the given rate for the
    pairs (1,0), (2,0), (2,1).  Full-support invariant products exist exactly
    when r20 = r21 + r10."""
    rates = {((1, 0), (0, 1)): r10, ((2, 0), (0, 2)): r20, ((2, 1), (1, 2)): r21}
    return ModelSpec(jrm=JumpRateMatrix(Alphabet(3), 2, rates))


def tasep3_cyclic(r02, r10, r21) -> ModelSpec:
    """Variant where colour i overtakes i-1 mod 3 only; no invariant Markov
    law with positive kernel unless all three rates vanish."""
    rates = {((0, 2), (2, 0)): r02, ((1, 0), (0, 1)): r10, ((2, 1), (1, 2)): r21}
    return ModelSpec(jrm=JumpRateMatrix(Alphabet(3), 2, rates))


def tasep3_exchange(rates: Mapping[Tuple[int, int], object]) -> ModelSpec:
    """Full exchange variant: the ordered pair (a, b) swaps into (b, a) at
    rates[(a, b)] for any unequal colours."""
    table = {}
    for (a, b), value in rates.items():
        if a == b:
            raise ValueError("exchange needs two distinct colours")
        table[((a, b), (b, a))] = value
    return ModelSpec(jrm=JumpRateMatrix(Alphabet(3), 2, table))


def zero_range(g, kappa_trunc: int) -> ModelSpec:
    """Zero-range mass transport on the truncation {0..kappa_trunc-1}:
    a pile of size a sends k particles to the right at rate g(a, k),
    1 <= k <= a; g is a function or a mapping {(a, k): rate} (absent pairs
    have rate 0).  Jumps overfilling the right pile are dropped (counted).
    When g(a, k) depends on k only, the geometric products are invariant."""
    if not (callable(g) or isinstance(g, Mapping)):
        raise TypeError(f"g must be a function or a mapping {{(a, k): rate}}, not {g!r}")
    alphabet = Alphabet(kappa_trunc)
    rates = {}
    dropped = 0
    for a in alphabet.letters:
        for k in range(1, a + 1):
            rate = as_scalar(g(a, k) if callable(g) else g.get((a, k), 0))
            if rate == 0:
                continue
            for b in alphabet.letters:
                if b + k < kappa_trunc:
                    rates[((a, b), (a - k, b + k))] = rate
                else:
                    dropped += 1
    notes = (f"truncation dropped {dropped} jump entries",) if dropped else ()
    return ModelSpec(jrm=JumpRateMatrix(alphabet, 2, rates), notes=notes)


def pushtasep_blocks(kappa_trunc: int) -> ModelSpec:
    """Block-size dynamics of the push exclusion process, letters counting
    the particles in a block (block = run of particles plus its empty site).

    A particle hopping right moves one unit of mass to the next block; a
    particle jumping to the empty site on its left merges mass leftwards:
    (a, b) -> (a - 1, b + 1) at rate 1 and (a, b) -> (a + k, b - k) at rate
    1 for 1 <= k <= b, both truncated to the finite alphabet.  Products of
    geometric marginals are invariant."""
    alphabet = Alphabet(kappa_trunc)
    rates: Dict[Tuple[Word, Word], object] = {}
    dropped = 0
    for a, b in itertools.product(alphabet.letters, repeat=2):
        if a >= 1:
            if b + 1 < kappa_trunc:
                rates[((a, b), (a - 1, b + 1))] = Fraction(1)
            else:
                dropped += 1
        for k in range(1, b + 1):
            if a + k < kappa_trunc:
                rates[((a, b), (a + k, b - k))] = Fraction(1)
            else:
                dropped += 1
    notes = (f"truncation dropped {dropped} jump entries",) if dropped else ()
    return ModelSpec(jrm=JumpRateMatrix(alphabet, 2, rates), notes=notes)


def hmc_example() -> ModelSpec:
    """Three-colour system whose invariant chain projects onto a hidden
    Markov law on two colours (colours 1 and 2 merge).  The Z table of the
    bundled kernel vanishes identically; the projection (0, 1, 1) has rates
    270 for 000 -> 010 and 294 back, and its law is no Markov chain: the
    ratios P(111)/P(11) = 71/106 and P(11)/P(1) = 53/81 differ."""
    alphabet = Alphabet(3)
    rates = {
        ((0, 0, 0), (0, 1, 0)): 255,
        ((0, 0, 0), (0, 2, 0)): 15,
        ((0, 1, 0), (0, 0, 0)): 294,
        ((0, 2, 0), (0, 0, 0)): 294,
        ((0, 1, 0), (0, 2, 0)): 49,
        ((0, 2, 0), (0, 1, 0)): 49,
    }
    kernel = MarkovKernel.from_matrix([
        [Fraction(7, 15), Fraction(1, 3), Fraction(1, 5)],
        [Fraction(1, 2), Fraction(1, 6), Fraction(1, 3)],
        [Fraction(1, 6), Fraction(1, 2), Fraction(1, 3)],
    ])
    return ModelSpec(jrm=JumpRateMatrix(alphabet, 3, rates), kernel=kernel,
                     rho=(Fraction(35, 89), Fraction(29, 89), Fraction(25, 89)))


def kappa2_general(rates: Mapping[int, Mapping[int, object]]) -> ModelSpec:
    """Two-colour range-2 template: rates[i][j] is the rate of pair i -> j
    where pairs are read as two-bit numbers (ab -> 2a + b)."""
    alphabet = Alphabet(2)
    table = {}
    for i, row in rates.items():
        for j, value in row.items():
            table[(tuple(divmod(i, 2)), tuple(divmod(j, 2)))] = value
    return ModelSpec(jrm=JumpRateMatrix(alphabet, 2, table))


# ---------------------------------------------------------------------------
# 2x2-square models
# ---------------------------------------------------------------------------

_CYCLIC_CELLS = ((0, 0), (0, 1), (1, 1), (1, 0))


def _from_cyclic(word4: Sequence[int]) -> Word:
    """Pattern given in cyclic cell order -> lexicographic cell order."""
    letters = dict(zip(_CYCLIC_CELLS, word4))
    return tuple(letters[c] for c in SQUARE_CELLS)


def flip_2d(a, b=1) -> ModelSpec:
    """Square patterns 1110 and 0001 flip into their complements at rates a
    and b; the Bernoulli(p) product is invariant iff a p^2 = (1-p)^2
    (density 1/(sqrt(a)+1) when b = 1)."""
    up = (1, 1, 1, 0)
    down = (0, 0, 0, 1)
    square = JumpRateMatrix(Alphabet(2), 4, {(up, down): a, (down, up): b})
    return ModelSpec(square=square)


def pair_flip_2d(a, b) -> ModelSpec:
    """Checkerboard pair flip 1010 <-> 0101: every product measure is
    invariant when a = b, none otherwise."""
    up = (1, 0, 1, 0)
    down = (0, 1, 0, 1)
    square = JumpRateMatrix(Alphabet(2), 4, {(up, down): a, (down, up): b})
    return ModelSpec(square=square)


def rotation_2d(a, b, c, d) -> ModelSpec:
    """The four cyclic shifts of the two-particle pattern around the square;
    all Bernoulli products are invariant iff a = b = c = d."""
    cyc = (1, 1, 0, 0)
    words = [_from_cyclic(cyc[-k:] + cyc[:-k]) for k in range(4)]
    square = JumpRateMatrix(Alphabet(2), 4, {
        (words[0], words[1]): a,
        (words[1], words[2]): b,
        (words[2], words[3]): c,
        (words[3], words[0]): d,
    })
    return ModelSpec(square=square)


def three_colour_flip_2d(a0, a1, a2) -> ModelSpec:
    """Constant squares iiii jump to (i+1 mod 3) everywhere at rate a_i;
    invariant products satisfy a_i rho_i^4 all equal."""
    square = JumpRateMatrix(Alphabet(3), 4, {
        ((i, i, i, i), ((i + 1) % 3,) * 4): rate
        for i, rate in enumerate((a0, a1, a2))
    })
    return ModelSpec(square=square)


_STEP = {SQUARE_CELLS.index(c): SQUARE_CELLS.index(_CYCLIC_CELLS[(k + 1) % 4])
         for k, c in enumerate(_CYCLIC_CELLS)}  # lex index -> next cell around


def _moved(x: Word, i: int, j: int) -> Word:
    y = list(x)
    y[i] -= 1
    y[j] += 1
    return tuple(y)


def _mass_dynamics(kappa_trunc: int, weight, moves) -> ModelSpec:
    """Square dynamics scaled by the total mass: each pattern x of mass
    m = |x|_1 > 0 with weight(m) != 0 (default 1) jumps to y at rate
    weight(m) * factor for each (y, factor) of moves(x), in that order.
    Jumps overfilling a cell of the truncation are dropped (counted)."""
    alphabet = Alphabet(kappa_trunc)
    weight = weight or (lambda m: 1)
    rates = {}
    dropped = 0
    for x in itertools.product(alphabet.letters, repeat=4):
        w = as_scalar(weight(sum(x))) if any(x) else 0
        if w == 0:
            continue
        for y, factor in moves(x):
            if max(y) < kappa_trunc:
                rates[(x, y)] = w * factor
            else:
                dropped += 1
    notes = (f"truncation dropped {dropped} jump entries",) if dropped else ()
    return ModelSpec(square=JumpRateMatrix(alphabet, 4, rates), notes=notes)


def ball_move_2d(kappa_trunc: int, weight: Callable[[int], object] | None = None) -> ModelSpec:
    """Mass-preserving urn dynamics on the square: with total mass
    m = |x|_1, each unit at cell i moves to any other cell j at rate
    weight(m) / 3.  Preserves Poisson products (truncated here)."""
    def moves(x):
        return [(_moved(x, i, j), Fraction(x[i], 3))
                for i in range(4) if x[i] for j in range(4) if j != i]
    return _mass_dynamics(kappa_trunc, weight, moves)


def ball_cycle_2d(kappa_trunc: int, weight: Callable[[int], object] | None = None) -> ModelSpec:
    """Directed variant of the urn dynamics: a ball moves from its cell to
    the next cell around the square at rate weight(mass) per ball.  Preserves
    Poisson products on the full alphabet; the truncation leaves visible
    residuals on overfull patterns."""
    def moves(x):
        return [(_moved(x, i, j), Fraction(x[i])) for i, j in _STEP.items() if x[i]]
    return _mass_dynamics(kappa_trunc, weight, moves)


def urn_shift_2d(kappa_trunc: int, weight: Callable[[int], object] | None = None) -> ModelSpec:
    """Mass-preserving square dynamics shifting the four cell values one
    step around the square at rate weight(total mass); preserves any
    cell-exchangeable product, truncated Poisson included."""
    def moves(x):
        shifted = [0] * 4
        for i, j in _STEP.items():
            shifted[j] = x[i]
        return [(tuple(shifted), 1)] if tuple(shifted) != x else []
    return _mass_dynamics(kappa_trunc, weight, moves)


_BUILDERS = {
    "tasep": tasep,
    "contact": contact,
    "voter": voter,
    "stochastic_ising": stochastic_ising,
    "tasep3": tasep3,
    "tasep3_cyclic": tasep3_cyclic,
    "tasep3_exchange": tasep3_exchange,
    "zero_range": zero_range,
    "pushtasep_blocks": pushtasep_blocks,
    "hmc_example": hmc_example,
    "kappa2_general": kappa2_general,
    "flip_2d": flip_2d,
    "pair_flip_2d": pair_flip_2d,
    "rotation_2d": rotation_2d,
    "three_colour_flip_2d": three_colour_flip_2d,
    "ball_move_2d": ball_move_2d,
    "ball_cycle_2d": ball_cycle_2d,
    "urn_shift_2d": urn_shift_2d,
}


def build(name: str, **params) -> ModelSpec:
    if name not in _BUILDERS:
        raise ValueError(f"unknown model {name!r}; know {sorted(_BUILDERS)}")
    return _BUILDERS[name](**params)


def catalog() -> Tuple[str, ...]:
    return tuple(sorted(_BUILDERS))


# ---------------------------------------------------------------------------
# projections and special marginals
# ---------------------------------------------------------------------------

def project_jrm(T: JumpRateMatrix, pi: Sequence[int]) -> JumpRateMatrix:
    """Merge colours through a surjection pi: letters -> smaller alphabet.

    The dynamics projects consistently iff, from any representative source
    word, the total rate into each projected target word is the same; the
    first inconsistent pair of representatives is reported otherwise.
    Projected self-jumps are removed (they are not jumps downstairs)."""
    pi = tuple(pi)
    if len(pi) != T.alphabet.kappa:
        raise ValueError("projection must assign every letter")
    image = sorted(set(pi))
    if image != list(range(len(image))):
        raise ValueError("projection must be onto {0..kappa'-1}")
    small = Alphabet(len(image))
    L = T.range_
    fibers = {a: tuple(x for x in T.alphabet.letters if pi[x] == a) for a in small.letters}

    rates = {}
    for u in small.words(L):
        reps = list(itertools.product(*[fibers[a] for a in u]))
        for v in small.words(L):
            totals = []
            for rep in reps:
                total = sum(T.rate(rep, target)
                            for target in itertools.product(*[fibers[a] for a in v]))
                totals.append((rep, total))
            baseline = totals[0][1]
            for rep, total in totals[1:]:
                if total != baseline:
                    raise ValueError(
                        "projection is inconsistent: representatives "
                        f"{totals[0][0]} and {rep} of {u} reach {v} with total "
                        f"rates {baseline} != {total}")
            if u != v and baseline != 0:
                rates[(u, v)] = baseline
    return JumpRateMatrix(small, L, rates)


def hidden_marginal(law: StationaryLaw, pi: Sequence[int], word: Word):
    """Probability of a projected word under the projected chain law."""
    pi = tuple(pi)
    total = Fraction(0)
    for rep in itertools.product(*[[x for x in law.alphabet.letters if pi[x] == a]
                                   for a in word]):
        total += law.marginal(rep)
    return total


def almost_geometric(support: Sequence[int], g: Mapping[int, object]) -> List:
    """Distribution rho on `support` with rho_u rho_v = C g(u+v).

    Requires the consistency g(a) g(b) = g(a') g(b') whenever a + b = a' + b'
    over reachable sums; rho_u is proportional to g(u + min(support)).
    Returns the normalized marginal over the full alphabet 0..max(support)."""
    support = sorted(set(support))
    base = support[0]
    reachable = {u + v for u in support for v in support}
    missing = sorted(s for s in reachable if s not in g)
    if missing:
        raise ValueError(f"g misses the reachable sums {missing}")
    weights = {u: as_scalar(g[u + base]) for u in support}
    if any(w <= 0 for w in weights.values()):
        raise ValueError("g must be positive on reachable sums")
    norm = sum(weights.values())
    rho = [Fraction(0)] * (support[-1] + 1)
    for u in support:
        rho[u] = weights[u] / norm
    # consistency: rho_u rho_v must be a function of u + v matching g
    scale = rho[base] * rho[base] / as_scalar(g[2 * base])
    for u in support:
        for v in support:
            if rho[u] * rho[v] != scale * as_scalar(g[u + v]):
                raise ValueError("g is not consistent: rho_u rho_v cannot "
                                 "match g(u+v) on this support")
    return rho
