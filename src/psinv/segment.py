"""Invariance on a finite segment {1..n} with boundary jump rates.

For range 2 and kernel memory 1, the segment dynamics adds two single-site
rate matrices acting on the first and last site.  The normalized balance of
a word splits into the interior window sums of Z plus two boundary blocks
mixing the jump rates with the boundary rates.  If the balance vanishes on
two consecutive sizes n0, n0 + 1 with n0 >= 7, it vanishes for every larger
size and the law is invariant on the whole line.

Explicit boundary rates emulating the rest of the line come in two variants
that differ in which letter of the exterior jump carries the kernel weight
on the right side: `target-weighted` attaches it to the letter the exterior
site jumps to, `source-weighted` to the letter it jumps from (what a direct
flux computation yields).  Construction never asserts correctness of either
closed form: the returned rates carry an oracle validation report, including
the exact discrepancy when validation fails.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

import numpy as np

from .core import BoundaryRates, JumpRateMatrix, Word
from .criteria import (CriterionContext, CriterionReport, LocalBalanceTable, _scalar,
                       _scan_words, _window_sums, check_markov_line, z_table)

_VARIANTS = ("target-weighted", "source-weighted")
# n0: balances vanishing on two consecutive sizes >= N0 vanish on every size
N0 = 7


def _require_21(ctx: CriterionContext):
    if (ctx.memory, ctx.range_) != (1, 2):
        raise ValueError("segment balance is implemented for range 2, memory 1")


def _segment_balances(ctx: CriterionContext, beta: BoundaryRates, n: int,
                      table: Optional[LocalBalanceTable] = None):
    """(context, balances(columns, count), den): the segment balances of
    words of size n from their letter columns, as for `_scan_words`, under
    the context that decides them.  Float boundary rates make an exact
    context float (with its own table); a float context takes float copies
    of the boundary rates.

    Interior jumps contribute the linear window sums of Z; the two outermost
    jump windows and the boundary rates contribute explicit blocks with the
    context weights of the chain law.  A block depends on three letters only
    (x1 x2 x3 on the left, x(n-2) x(n-1) x(n) on the right), so each is a
    table of its terms, in the order they are added: the exit rates, then
    one term per jump into the block.  Exact tables sum the terms up front.
    """
    _require_21(ctx)
    if n < 3:
        raise ValueError("segment balance needs n >= 3")
    if beta.left.range_ != 1:
        raise ValueError("boundary rates must act on single sites (range 1)")
    if ctx.scalar_context.exact and not (beta.left.is_exact and beta.right.is_exact):
        ctx, table = CriterionContext(ctx.T.floated(), ctx.law.floated(), ctx.tol), None
    if not ctx.scalar_context.exact:
        beta = BoundaryRates(beta.left.floated(), beta.right.floated())
    M, T = ctx.law.kernel, ctx.T
    left, right = [], []
    for x in ctx.alphabet.words(3):
        # left: jump window (1,2), boundary at site 1, weights from the law at
        # site 1; right: window (n-1,n), boundary at site n.  A boundary jump
        # keeps the letter u[kept] of the site next to it.
        sides = ((left, beta.left, x[:2], x[:1], 1, ctx.law.rho),
                 (right, beta.right, x[1:], x[2:], 0, None))
        for block, side, window, site, kept, law in sides:
            terms = [-(side.out_rate(site) + T.out_rate(window))]
            denom = M.word_weight(x, law)
            for u in itertools.product(ctx.alphabet.letters, repeat=2):
                amount = T.rate(u, window)
                if u[kept] == x[1]:
                    amount += side.rate(u[1 - kept:2 - kept], site)
                if amount != 0:
                    source = u + x[2:] if law else x[:1] + u
                    terms.append(M.word_weight(source, law) / denom * amount)
            block.append(terms)
    z = (table or z_table(ctx)).values
    entries, den = z.entries, z.den
    if den is not None:
        left, right = ([[sum(row)] for row in block] for block in (left, right))
        den = math.lcm(den, *(Fraction(row[0]).denominator for row in left + right))
        entries = entries * (den // z.den)
        left, right = ([[int(row[0] * den)] for row in block] for block in (left, right))
    width = max(len(row) for row in left + right)
    left, right = ([np.array([row[k] if k < len(row) else 0 for row in block], entries.dtype)
                    for k in range(width)] for block in (left, right))
    kappa = ctx.alphabet.kappa

    def balances(columns, count):
        total = _window_sums(ctx, entries, columns, count, cyclic=False)
        for block, first in ((left, 0), (right, len(columns) - 3)):
            code = (columns[first] * kappa + columns[first + 1]) * kappa + columns[first + 2]
            for column in block:
                total = total + column[code]
        return total

    return ctx, balances, den


def segment_balance(ctx: CriterionContext, beta: BoundaryRates, x: Word,
                    table: Optional[LocalBalanceTable] = None):
    """Normalized stationarity balance of the word x on the segment {1..n}:
    the linear window sums of Z plus the two boundary blocks."""
    _, balances, den = _segment_balances(ctx, beta, len(x), table)
    return _scalar(balances(tuple(x), 1)[0], den)


def check_segment(ctx: CriterionContext, beta: BoundaryRates, n: int,
                  table: Optional[LocalBalanceTable] = None) -> CriterionReport:
    """Test the segment balance on every word of E^n (from Z, built unless given).

    For n >= N0 the size n + 1 is tested as well; when both vanish the report
    carries the derived conclusions (line invariance, and invariance on every
    segment of size >= n with the same boundary rates).
    """
    ctx, balances, den = _segment_balances(ctx, beta, n, table)
    count = 0
    for size in [n, n + 1] if n >= N0 else [n]:
        checked, witness = _scan_words(ctx, size, balances, den)
        count += checked
        if witness is not None:
            return CriterionReport(False, f"segment-{size}", witness=witness,
                                   words_checked=count)
    details = {}
    if n >= N0:
        details["derived"] = (
            f"balance vanishes at two consecutive sizes >= {N0}: the law is "
            f"invariant on the line and on every segment of size >= {n} "
            "with these boundary rates")
    return CriterionReport(True, f"segment-{n}", words_checked=count, details=details)


@dataclass(frozen=True)
class BoundaryConstruction:
    """Boundary rates emulating the infinite line, plus their validation."""

    boundary: BoundaryRates
    variant: str
    validated: bool
    validation: CriterionReport
    discrepancy: Optional[Tuple[Word, object]]


def construct_boundaries(ctx: CriterionContext,
                         variant: str = "target-weighted") -> BoundaryConstruction:
    """Build boundary rates under which the chain law should be invariant on
    every segment, given that it is invariant on the line (checked first).

    Both variants compute
        left[z -> a]  = sum_{u,v} rho_u M_{u,z} T[(u,z)->(v,a)] / rho_z
    for the left side.  On the right side, `target-weighted` uses
        right[z -> a] = sum_{v,b} T[(z,v)->(a,b)] M_{z,b}
    while `source-weighted` weights the letter the exterior site leaves:
        right[z -> a] = sum_{v,b} M_{z,v} T[(z,v)->(a,b)].
    Diagonal entries are dropped (self-jumps are not jumps; they cancel in
    every balance).  The result is validated on segments of size N0 and
    N0 + 1 and returned with the outcome; a failed validation is reported,
    never silently repaired.
    """
    _require_21(ctx)
    if variant not in _VARIANTS:
        raise ValueError(f"variant must be one of {_VARIANTS}")
    table = z_table(ctx)
    line = check_markov_line(ctx, table)
    if not line.invariant:
        raise ValueError("law is not invariant on the line; no boundary rates exist")
    M = ctx.law.kernel
    rho = ctx.law.rho
    E = ctx.alphabet.letters
    T = ctx.T
    left = {}
    right = {}
    for z in E:
        for a in E:
            if a == z:
                continue
            lvalue = sum(rho[(u,)] * M.prob((u,), z) * T.rate((u, z), (v, a))
                         for u in E for v in E) / rho[(z,)]
            if lvalue != 0:
                left[((z,), (a,))] = lvalue
            if variant == "target-weighted":
                rvalue = sum(T.rate((z, v), (a, b)) * M.prob((z,), b)
                             for v in E for b in E)
            else:
                rvalue = sum(M.prob((z,), v) * T.rate((z, v), (a, b))
                             for v in E for b in E)
            if rvalue != 0:
                right[((z,), (a,))] = rvalue
    beta = BoundaryRates(JumpRateMatrix(ctx.alphabet, 1, left),
                         JumpRateMatrix(ctx.alphabet, 1, right))
    validation = check_segment(ctx, beta, N0, table)
    return BoundaryConstruction(beta, variant, validation.invariant, validation,
                                validation.witness)
