"""Product-measure invariance on the plane for 2x2-square jump dynamics.

Configurations colour Z^2; the dynamics rewrites the pattern on a 2x2 square
(cells in lexicographic order (0,0),(0,1),(1,0),(1,1)) at given rates, held
in a JumpRateMatrix over patterns of length 4 (SQUARE_CELLS order).  For a
product measure with full-support marginal rho, the local balance of one
square is

    boldZ(x) = sum_y (prod rho(y) / prod rho(x)) * T[y -> x] - T_out(x),

that is, the memory-0 table Z of `criteria` over length-4 patterns.  The
balance of a finite window C decomposes over the squares meeting C,
with squares sticking out of C contributing partial sums of boldZ weighted by
rho on the free cells.  Invariance of the product measure is equivalent to
two finite families of vanishing statements: the window balances of the
corner shape {(0,0),(0,1),(1,0)} and the invariance of window balances under
adding the cell (1,1) to {(0,0),(0,1),(1,0),(2,0)}.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, List, Mapping, Optional, Tuple

from .core import JumpRateMatrix, Word
from .criteria import CriterionReport, product_context, z_table
from .scalars import DEFAULT_TOL, as_scalar, is_exact

Cell = Tuple[int, int]

SQUARE_CELLS: Tuple[Cell, ...] = ((0, 0), (0, 1), (1, 0), (1, 1))


@dataclass(frozen=True)
class Shape:
    """A finite set of cells of Z^2, stored in lexicographic order."""

    cells: Tuple[Cell, ...]

    def __init__(self, cells: Iterable[Cell]):
        cells = tuple(sorted(set((int(i), int(j)) for i, j in cells)))
        if not cells:
            raise ValueError("shape must be nonempty")
        object.__setattr__(self, "cells", cells)

    def __contains__(self, cell: Cell) -> bool:
        return cell in self.cells

    def __len__(self) -> int:
        return len(self.cells)


GAMMA0 = Shape([(0, 0), (0, 1), (1, 0)])
GAMMA1 = Shape([(0, 0), (0, 1), (1, 0), (2, 0)])
GAMMA2 = Shape([(0, 0), (0, 1), (1, 0), (2, 0), (1, 1)])


def hypercube(side: int, dim: int = 2) -> Shape:
    return Shape(itertools.product(range(side), repeat=dim))


def _check_marginal(T2: JumpRateMatrix, rho) -> List:
    if T2.range_ != len(SQUARE_CELLS):
        raise ValueError("square dynamics need rates over patterns of length 4")
    rho = list(rho)
    if len(rho) != T2.alphabet.kappa:
        raise ValueError("marginal length does not match the alphabet")
    if any(p <= 0 for p in rho):
        raise ValueError("marginal must have full support")
    return rho


def bold_z_table(T2: JumpRateMatrix, rho) -> Mapping[Word, object]:
    """boldZ over all kappa^4 square patterns."""
    return z_table(product_context(T2, _check_marginal(T2, rho))).values


def bold_z_partial(T2: JumpRateMatrix, rho, overlap: Mapping[Cell, int],
                   table: Optional[Mapping[Word, object]] = None,
                   cache: Optional[dict] = None):
    """Partial boldZ of a square: cells in `overlap` (positions within the
    2x2 square) are pinned to letters, the free cells are integrated against
    rho.  With all four cells pinned this is boldZ itself."""
    rho = _check_marginal(T2, rho)
    if table is None:
        table = bold_z_table(T2, rho)
    unknown = [c for c in overlap if c not in SQUARE_CELLS]
    if unknown:
        raise ValueError(f"cells {unknown} are not inside the 2x2 square")
    if not overlap:
        raise ValueError("overlap must pin at least one cell")
    return _partial(T2, rho, tuple(sorted(overlap.items())), table,
                    {} if cache is None else cache)


def _partial(T2: JumpRateMatrix, rho: List, key: Tuple, table: Mapping[Word, object],
             cache: dict):
    """bold_z_partial for a checked marginal, the overlap given as its
    (cell, letter) pairs in SQUARE_CELLS order, memoized in `cache`."""
    if key not in cache:
        overlap = dict(key)
        free = [k for k, c in enumerate(SQUARE_CELLS) if c not in overlap]
        base = [overlap.get(c, 0) for c in SQUARE_CELLS]
        total = Fraction(0)
        for letters in itertools.product(T2.alphabet.letters, repeat=len(free)):
            w = list(base)
            weight = Fraction(1)
            for k, a in zip(free, letters):
                w[k] = a
                weight *= rho[a]
            total += table[tuple(w)] * weight
        cache[key] = total
    return cache[key]


def _anchors_meeting(shape: Shape) -> List[Cell]:
    anchors = set()
    for (i, j) in shape.cells:
        for (di, dj) in SQUARE_CELLS:
            anchors.add((i - di, j - dj))
    return sorted(anchors)


def line_balance_2d(T2: JumpRateMatrix, rho, shape: Shape, pattern: Word,
                    table: Optional[Mapping[Word, object]] = None):
    """Normalized balance of the window `pattern` on `shape`: the sum over
    all squares meeting the shape of their (partial) boldZ."""
    rho = _check_marginal(T2, rho)
    if len(pattern) != len(shape):
        raise ValueError("pattern length does not match the shape")
    if table is None:
        table = bold_z_table(T2, rho)
    total = Fraction(0)
    for overlap in _overlaps(shape.cells, _anchors_meeting(shape)):
        total += _partial(T2, rho, tuple((e, pattern[k]) for e, k in overlap), table, {})
    return total


def _overlaps(cells, anchors) -> List[Tuple]:
    """For the square at each anchor, its cells among `cells` as (position in
    the square, index in `cells`) pairs in SQUARE_CELLS order."""
    index = {c: k for k, c in enumerate(cells)}
    return [tuple(((di, dj), index[(ai + di, aj + dj)]) for (di, dj) in SQUARE_CELLS
                  if (ai + di, aj + dj) in index) for (ai, aj) in anchors]


def check_product_2d(T2: JumpRateMatrix, rho, tol: float = DEFAULT_TOL) -> CriterionReport:
    """Decide invariance of the product measure rho on Z^2 under T2.

    Condition (a): the corner-shape balances vanish; condition (b): adding
    the cell (1,1) to the four-cell hook never changes the balance.  Both
    families together are equivalent to invariance.  The squares that miss
    (1,1) cancel in (b), so it is the growth difference of the four squares
    that contain it.
    """
    rho = _check_marginal(T2, rho)
    ctx = product_context(T2, rho, tol)
    table = z_table(ctx).values
    corners, witness = ctx.first_nonzero(
        T2.alphabet.words(len(GAMMA0)), lambda x: line_balance_2d(T2, rho, GAMMA0, x, table))
    if witness is not None:
        return CriterionReport(False, "corner-balance", witness=witness, words_checked=corners)
    cache: dict = {}
    plan = _growth_plan(GAMMA1, (1, 1))
    count, witness = ctx.first_nonzero(
        T2.alphabet.words(len(GAMMA2)), lambda x: _growth(T2, rho, plan, x, table, cache))
    if witness is not None:
        return CriterionReport(False, "cell-addition-balance", witness=witness,
                               words_checked=corners + count)
    return CriterionReport(True, "corner-and-addition", words_checked=corners + count)


def check_bold_z_sufficient(T2: JumpRateMatrix, rho, tol: float = DEFAULT_TOL) -> bool:
    """True iff boldZ vanishes identically (sufficient for invariance,
    weaker than reversibility, not necessary)."""
    ctx = product_context(T2, _check_marginal(T2, rho), tol)
    return all(ctx.is_zero(v) for v in z_table(ctx).values.values())


def growth_difference(T2: JumpRateMatrix, rho, shape: Shape, cell: Cell, pattern: Word,
                      table: Optional[Mapping[Word, object]] = None,
                      cache: Optional[dict] = None):
    """Balance change when `cell` is added to `shape`: only the squares
    containing the new cell contribute, each by a difference of partials
    (a square that missed the old shape entirely has no old term)."""
    rho = _check_marginal(T2, rho)
    if table is None:
        table = bold_z_table(T2, rho)
    if cell in shape:
        raise ValueError("cell already belongs to the shape")
    return _growth(T2, rho, _growth_plan(shape, cell), pattern, table,
                   {} if cache is None else cache)


def _growth_plan(shape: Shape, cell: Cell) -> List[Tuple[Tuple, Tuple]]:
    """For each square containing `cell`, its overlaps (see _overlaps) with
    the grown shape and with the old one, indexed in the grown pattern."""
    anchors = [(cell[0] - di, cell[1] - dj) for (di, dj) in SQUARE_CELLS]
    grown = _overlaps(sorted(shape.cells + (cell,)), anchors)
    return [(new, tuple(p for p in new if p[0] != d)) for d, new in zip(SQUARE_CELLS, grown)]


def _growth(T2: JumpRateMatrix, rho: List, plan, pattern: Word,
            table: Mapping[Word, object], cache: dict):
    """growth_difference for a checked marginal, along a _growth_plan."""
    total = Fraction(0)
    for new, old in plan:
        total += _partial(T2, rho, tuple((e, pattern[k]) for e, k in new), table, cache)
        if old:
            total -= _partial(T2, rho, tuple((e, pattern[k]) for e, k in old), table, cache)
    return total


def check_product_2d_incremental(T2: JumpRateMatrix, rho,
                                 tol: float = DEFAULT_TOL) -> CriterionReport:
    """Slower equivalent decision through the growth conditions: the
    single-cell balance vanishes and growing any subset of the 3x3 block by
    one cell never changes the balance.  Exposed for cross-validation; the
    single-cell normalization follows the partial-sum convention and is
    checked against the torus oracle in the test suite."""
    rho = _check_marginal(T2, rho)
    ctx = product_context(T2, rho, tol)
    table = z_table(ctx).values
    cells, witness = ctx.first_nonzero(
        (((a,),) for a in T2.alphabet.letters),
        lambda word: line_balance_2d(T2, rho, Shape([(0, 0)]), word[0], table))
    if witness is not None:
        return CriterionReport(False, "single-cell-balance", witness=witness,
                               words_checked=cells)
    block = hypercube(3)
    plans = {(subset, cell): _growth_plan(Shape(subset), cell)
             for size in range(1, len(block))
             for subset in itertools.combinations(block.cells, size)
             for cell in block.cells if cell not in subset}
    growths = ((subset, cell, pattern) for subset, cell in plans
               for pattern in T2.alphabet.words(len(subset) + 1))
    cache: dict = {}
    count, witness = ctx.first_nonzero(
        growths, lambda growth: _growth(T2, rho, plans[growth[:2]], growth[2], table, cache))
    if witness is not None:
        return CriterionReport(False, "growth-balance", witness=witness,
                               words_checked=cells + count)
    return CriterionReport(True, "single-cell-and-growth", words_checked=cells + count)


def truncated_poisson(lam, kappa: int) -> List:
    """Poisson(lam) conditioned to {0..kappa-1} (exact for rational lam)."""
    lam = as_scalar(lam)
    weights = []
    power = Fraction(1) if is_exact(lam) else 1.0
    factorial = 1
    for k in range(kappa):
        if k:
            power = power * lam
            factorial *= k
        weights.append(power / factorial)
    total = sum(weights)
    return [w / total for w in weights]


@dataclass(frozen=True)
class TruncationReport:
    """Invariance of a mass-preserving square dynamics for a truncated
    product marginal: exact on the interior (patterns whose mass keeps every
    same-mass pattern inside the truncated alphabet), with the truncation
    residuals on the remaining patterns reported, never hidden."""

    interior_invariant: bool
    interior_patterns: int
    boundary_residuals: Tuple[Tuple[Word, object], ...]
    marginal: Tuple


def check_multinomial_preservation(T2: JumpRateMatrix, lam=1, tol: float = DEFAULT_TOL) -> TruncationReport:
    """Check that a mass-preserving square dynamics preserves the truncated
    Poisson product measure, splitting exact interior from truncation edge."""
    if not T2.is_mass_preserving():
        raise ValueError("multinomial preservation needs a mass-preserving dynamics")
    kappa = T2.alphabet.kappa
    rho = truncated_poisson(lam, kappa)
    ctx = product_context(T2, _check_marginal(T2, rho), tol)
    interior_ok = True
    interior_count = 0
    boundary = []
    for x, value in sorted(z_table(ctx).values.items()):
        if sum(x) <= kappa - 1:
            interior_count += 1
            if not ctx.is_zero(value):
                interior_ok = False
        elif not ctx.is_zero(value):
            boundary.append((x, value))
    return TruncationReport(interior_ok, interior_count, tuple(boundary), tuple(rho))
