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
from dataclasses import dataclass
from typing import Optional, Tuple

from .core import BoundaryRates, JumpRateMatrix, Word
from .criteria import (CriterionContext, CriterionReport, LocalBalanceTable,
                       check_markov_line, z_table)

_VARIANTS = ("target-weighted", "source-weighted")


def _require_21(ctx: CriterionContext):
    if (ctx.memory, ctx.range_) != (1, 2):
        raise ValueError("segment balance is implemented for range 2, memory 1")


def segment_balance(ctx: CriterionContext, beta: BoundaryRates, x: Word,
                    table: Optional[LocalBalanceTable] = None):
    """Normalized stationarity balance of the word x on the segment {1..n}.

    Interior jumps contribute the window sums of Z; the two outermost jump
    windows and the boundary rates contribute explicit blocks with the
    context weights of the chain law.
    """
    _require_21(ctx)
    x = tuple(x)
    n = len(x)
    if n < 3:
        raise ValueError("segment balance needs n >= 3")
    if beta.left.range_ != 1:
        raise ValueError("boundary rates must act on single sites (range 1)")
    table = table or z_table(ctx)
    M = ctx.law.kernel
    rho = ctx.law.rho
    E = ctx.alphabet.letters
    T = ctx.T

    total = table.window_sum(x)

    # left block: jump window (1,2) and the left boundary at site 1
    total -= beta.left.out_rate((x[0],)) + T.out_rate((x[0], x[1]))
    denom = rho[(x[0],)] * M.prob((x[0],), x[1]) * M.prob((x[1],), x[2])
    for u1 in E:
        for u2 in E:
            weight = rho[(u1,)] * M.prob((u1,), u2) * M.prob((u2,), x[2]) / denom
            amount = T.rate((u1, u2), (x[0], x[1]))
            if u2 == x[1]:
                amount += beta.left.rate((u1,), (x[0],))
            if amount != 0:
                total += weight * amount

    # right block: jump window (n-1, n) and the right boundary at site n
    total -= beta.right.out_rate((x[n - 1],)) + T.out_rate((x[n - 2], x[n - 1]))
    denom = M.prob((x[n - 3],), x[n - 2]) * M.prob((x[n - 2],), x[n - 1])
    for u1 in E:
        for u2 in E:
            weight = M.prob((x[n - 3],), u1) * M.prob((u1,), u2) / denom
            amount = T.rate((u1, u2), (x[n - 2], x[n - 1]))
            if u1 == x[n - 2]:
                amount += beta.right.rate((u2,), (x[n - 1],))
            if amount != 0:
                total += weight * amount
    return total


def check_segment(ctx: CriterionContext, beta: BoundaryRates, n: int) -> CriterionReport:
    """Test the segment balance on every word of E^n.

    For n >= 7 the size n + 1 is tested as well; when both vanish the report
    carries the derived conclusions (line invariance, and invariance on every
    segment of size >= n with the same boundary rates).
    """
    _require_21(ctx)
    table = z_table(ctx)
    sizes = [n, n + 1] if n >= 7 else [n]
    count, witness = ctx.first_nonzero(
        itertools.chain.from_iterable(ctx.alphabet.words(size) for size in sizes),
        lambda x: segment_balance(ctx, beta, x, table))
    if witness is not None:
        return CriterionReport(False, f"segment-{len(witness[0])}", witness=witness,
                               words_checked=count)
    details = {}
    if n >= 7:
        details["derived"] = (
            "balance vanishes at two consecutive sizes >= 7: the law is "
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


def construct_boundaries(ctx: CriterionContext, variant: str = "target-weighted",
                         validate_n: int = 7) -> BoundaryConstruction:
    """Build boundary rates under which the chain law should be invariant on
    every segment, given that it is invariant on the line (checked first).

    Both variants compute
        left[z -> a]  = sum_{u,v} rho_u M_{u,z} T[(u,z)->(v,a)] / rho_z
    for the left side.  On the right side, `target-weighted` uses
        right[z -> a] = sum_{v,b} T[(z,v)->(a,b)] M_{z,b}
    while `source-weighted` weights the letter the exterior site leaves:
        right[z -> a] = sum_{v,b} M_{z,v} T[(z,v)->(a,b)].
    Diagonal entries are dropped (self-jumps are not jumps; they cancel in
    every balance).  The result is validated on segments of size
    `validate_n` and `validate_n` + 1 and returned with the outcome; a
    failed validation is reported, never silently repaired.
    """
    _require_21(ctx)
    if variant not in _VARIANTS:
        raise ValueError(f"variant must be one of {_VARIANTS}")
    line = check_markov_line(ctx)
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
    validation = check_segment(ctx, beta, validate_n)
    return BoundaryConstruction(beta, variant, validation.invariant, validation,
                                validation.witness)
