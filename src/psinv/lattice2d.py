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
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Iterable, List, Mapping, Tuple

import numpy as np

from .core import JumpRateMatrix, Word
from .criteria import (CriterionContext, CriterionReport, WordTable, _scalar, _scan_words,
                       product_context, z_table)
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


def hypercube(side: int) -> Shape:
    return Shape(itertools.product(range(side), repeat=2))


def _check_marginal(T2: JumpRateMatrix, rho) -> List:
    if T2.range_ != len(SQUARE_CELLS):
        raise ValueError("square dynamics need rates over patterns of length 4")
    rho = list(rho)
    if len(rho) != T2.alphabet.kappa:
        raise ValueError("marginal length does not match the alphabet")
    if any(p <= 0 for p in rho):
        raise ValueError("marginal must have full support")
    return rho


def bold_z_table(T2: JumpRateMatrix, rho) -> WordTable:
    """boldZ over all kappa^4 square patterns."""
    return z_table(product_context(T2, _check_marginal(T2, rho))).values


def bold_z_partial(T2: JumpRateMatrix, rho, overlap: Mapping[Cell, int]):
    """Partial boldZ of a square: cells in `overlap` (positions within the
    2x2 square) are pinned to letters, the free cells are integrated against
    rho.  With all four cells pinned this is boldZ itself."""
    unknown = [c for c in overlap if c not in SQUARE_CELLS]
    if unknown:
        raise ValueError(f"cells {unknown} are not inside the 2x2 square")
    if not overlap:
        raise ValueError("overlap must pin at least one cell")
    pinned = tuple((c, k) for k, c in enumerate(c for c in SQUARE_CELLS if c in overlap))
    return _Partials.of(T2, rho).one([(pinned, 1)], [overlap[c] for c, _ in pinned])


class _Partials:
    """The partial boldZ of one table and marginal (see bold_z_partial) for
    every letter of the pinned cells, one array per set of pinned cells.

    Exact tables add the table's integer numerators, weighted by the
    numerators of rho over their common denominator D, into numerators over
    the one denominator table.den * D^3 (a square has at most three free
    cells).  Float tables read rho as floats and add the free letters'
    terms from zero in the order of their letters."""

    def __init__(self, table: WordTable, rho: List):
        self.arrays, self.alphabet, self.unit = {}, table.alphabet, 1
        self.kappa, self.den = table.alphabet.kappa, table.den
        if table.den is None:
            self.rho = [float(p) for p in rho]
        else:
            self.unit = math.lcm(*(Fraction(p).denominator for p in rho))
            self.rho = [int(p * self.unit) for p in rho]
            self.den = table.den * self.unit ** 3
        self.grid = table.entries.reshape((self.kappa,) * len(SQUARE_CELLS))

    @classmethod
    def of(cls, T2: JumpRateMatrix, rho):
        rho = _check_marginal(T2, rho)
        return cls(bold_z_table(T2, rho), rho)

    def array(self, cells: Tuple[Cell, ...]) -> np.ndarray:
        if cells not in self.arrays:
            free = [k for k, c in enumerate(SQUARE_CELLS) if c not in cells]
            total = 0
            for letters in itertools.product(range(self.kappa), repeat=len(free)):
                index, weight = [slice(None)] * len(SQUARE_CELLS), 1
                for k, a in zip(free, letters):
                    index[k] = a
                    weight *= self.rho[a]
                total = total + self.grid[tuple(index)] * weight
            self.arrays[cells] = np.ravel(total * self.unit ** (3 - len(free)))
        return self.arrays[cells]

    def sums(self, terms, columns, count: int):
        """Signed sums of partials for `count` patterns given by their letter
        columns (an int or an array per pattern index), added in the order of
        `terms`: (overlap, sign) pairs, each overlap as in _overlaps."""
        total = np.zeros(count, dtype=self.grid.dtype)
        for overlap, sign in terms:
            code = 0
            for _, k in overlap:
                code = code * self.kappa + columns[k]
            part = self.array(tuple(c for c, _ in overlap))[code]
            total = total + part if sign > 0 else total - part
        return total

    def one(self, terms, pattern):
        return _scalar(self.sums(terms, self.alphabet.check_word(pattern), 1)[0], self.den)

    def scan(self, ctx: CriterionContext, terms, n: int):
        return _scan_words(ctx, n, partial(self.sums, terms), self.den)


def _anchors_meeting(shape: Shape) -> List[Cell]:
    anchors = set()
    for (i, j) in shape.cells:
        for (di, dj) in SQUARE_CELLS:
            anchors.add((i - di, j - dj))
    return sorted(anchors)


def _line_terms(shape: Shape) -> List[Tuple]:
    """The squares meeting the shape, as sums terms of their partials."""
    return [(overlap, 1) for overlap in _overlaps(shape.cells, _anchors_meeting(shape))]


def line_balance_2d(T2: JumpRateMatrix, rho, shape: Shape, pattern: Word):
    """Normalized balance of the window `pattern` on `shape`: the sum over
    all squares meeting the shape of their (partial) boldZ."""
    if len(pattern) != len(shape):
        raise ValueError("pattern length does not match the shape")
    return _Partials.of(T2, rho).one(_line_terms(shape), pattern)


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
    partials = _Partials(z_table(ctx).values, rho)
    corners, witness = partials.scan(ctx, _line_terms(GAMMA0), len(GAMMA0))
    if witness is not None:
        return CriterionReport(False, "corner-balance", witness=witness, words_checked=corners)
    count, witness = partials.scan(ctx, _growth_plan(GAMMA1, (1, 1)), len(GAMMA2))
    if witness is not None:
        return CriterionReport(False, "cell-addition-balance", witness=witness,
                               words_checked=corners + count)
    return CriterionReport(True, "corner-and-addition", words_checked=corners + count)


def check_bold_z_sufficient(T2: JumpRateMatrix, rho, tol: float = DEFAULT_TOL) -> bool:
    """True iff boldZ vanishes identically (sufficient for invariance,
    weaker than reversibility, not necessary)."""
    ctx = product_context(T2, _check_marginal(T2, rho), tol)
    return all(ctx.is_zero(v) for v in z_table(ctx).values.values())


def growth_difference(T2: JumpRateMatrix, rho, shape: Shape, cell: Cell, pattern: Word):
    """Balance change when `cell` is added to `shape`: only the squares
    containing the new cell contribute, each by a difference of partials
    (a square that missed the old shape entirely has no old term)."""
    partials = _Partials.of(T2, rho)
    if cell in shape:
        raise ValueError("cell already belongs to the shape")
    return partials.one(_growth_plan(shape, cell), pattern)


def _growth_plan(shape: Shape, cell: Cell) -> List[Tuple]:
    """For each square containing `cell`, its overlap (see _overlaps) with
    the grown shape and, subtracted, with the old one, both indexed in the
    grown pattern, as sums terms."""
    anchors = [(cell[0] - di, cell[1] - dj) for (di, dj) in SQUARE_CELLS]
    terms = []
    for d, new in zip(SQUARE_CELLS, _overlaps(sorted(shape.cells + (cell,)), anchors)):
        old = tuple(p for p in new if p[0] != d)
        terms += [(new, 1), (old, -1)] if old else [(new, 1)]
    return terms


def check_product_2d_incremental(T2: JumpRateMatrix, rho,
                                 tol: float = DEFAULT_TOL) -> CriterionReport:
    """Slower equivalent decision through the growth conditions: the
    single-cell balance vanishes and growing any subset of the 3x3 block by
    one cell never changes the balance.  Exposed for cross-validation; the
    single-cell normalization follows the partial-sum convention and is
    checked against the torus oracle in the test suite."""
    rho = _check_marginal(T2, rho)
    ctx = product_context(T2, rho, tol)
    partials = _Partials(z_table(ctx).values, rho)
    count, witness = partials.scan(ctx, _line_terms(Shape([(0, 0)])), 1)
    if witness is not None:
        return CriterionReport(False, "single-cell-balance", witness=((witness[0],), witness[1]),
                               words_checked=count)
    block = hypercube(3).cells
    for subset, cell in ((subset, cell) for size in range(1, len(block))
                         for subset in itertools.combinations(block, size)
                         for cell in block if cell not in subset):
        checked, witness = partials.scan(ctx, _growth_plan(Shape(subset), cell), len(subset) + 1)
        count += checked
        if witness is not None:
            return CriterionReport(False, "growth-balance", witness=((subset, cell, witness[0]),
                                                                     witness[1]),
                                   words_checked=count)
    return CriterionReport(True, "single-cell-and-growth", words_checked=count)


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
    boundary = []
    for x, value in sorted(z_table(ctx).values.items()):
        if sum(x) <= kappa - 1:
            if not ctx.is_zero(value):
                interior_ok = False
        elif not ctx.is_zero(value):
            boundary.append((x, value))
    return TruncationReport(interior_ok, tuple(boundary), tuple(rho))
