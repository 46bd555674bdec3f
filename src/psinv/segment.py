"""Invariance on a finite segment {1..n} with boundary jump rates.

For range 2 and kernel memory 1, the segment dynamics adds two single-site
rate matrices acting on the first and last site.  The normalized balance of
a word splits into the interior window sums of Z plus two boundary blocks
mixing the jump rates with the boundary rates.  Each block is a table over
the three letters at its end of the word, built like Z from one array of
chain weights of those words: exact blocks hold integer numerators over the
denominator of Z, float blocks float64 terms added in the order of the
per-word sum, so a size-n scan is the window gather of Z plus two lookups.
If the balance vanishes on two consecutive sizes n0, n0 + 1 with n0 >= 7,
it vanishes for every larger size and the law is invariant on the whole
line.

Explicit boundary rates emulating the rest of the line come in two variants
that differ in which letter of the exterior jump carries the kernel weight
on the right side: `target-weighted` attaches it to the letter the exterior
site jumps to, `source-weighted` to the letter it jumps from (what a direct
flux computation yields).  Construction never asserts correctness of either
closed form: the returned rates carry the report of `check_segment` at sizes
N0 and N0 + 1, whose witness is the exact discrepancy when validation fails.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
import numpy as np

from .core import BoundaryRates, JumpRateMatrix, Word
from .criteria import (CriterionContext, CriterionReport, _chain_weights, _over_one_denominator,
                       _scalar, _scan_words, _window_sums, check_markov_line, z_table)

_VARIANTS = ("target-weighted", "source-weighted")
# n0: balances vanishing on two consecutive sizes >= N0 vanish on every size
N0 = 7


def _require_21(ctx: CriterionContext):
    if (ctx.memory, ctx.range_) != (1, 2):
        raise ValueError("segment balance is implemented for range 2, memory 1")


def _segment_balances(ctx: CriterionContext, beta: BoundaryRates, n: int):
    """(context, balances(columns, count), den): the segment balances of
    words of size n from their letter columns, as for `_scan_words`, under
    the context that decides them.  Float boundary rates make an exact
    context float (a new context, with its own Z); a float context takes
    float copies of the boundary rates.

    A block word x (the three letters at one end) gets -(boundary exit at
    the end site + T exit of its jump window), then for each pair u, in
    lexicographic order, W(source) / W(x) times the rate of u into the
    window: T plus the boundary move of the end site lifted to the pair.
    Left: window x1 x2, source u x3, W = rho(x1) M(x1,x2) M(x2,x3); right:
    window x2 x3, source x1 u, W = M(x1,x2) M(x2,x3).  The rates come from
    the coded moves of T and of the boundary (`JumpRateMatrix.coded`), exact
    ones over the lcm of their denominators.  Exact blocks are one column of
    sums; float columns that are zero everywhere are left out.
    """
    _require_21(ctx)
    if n < 3:
        raise ValueError("segment balance needs n >= 3")
    if beta.left.range_ != 1:
        raise ValueError("boundary rates must act on single sites (range 1)")
    if ctx.scalar_context.exact and not (beta.left.is_exact and beta.right.is_exact):
        ctx = CriterionContext(ctx.T.floated(), ctx.law.floated(), ctx.tol)
    if not ctx.scalar_context.exact:
        beta = BoundaryRates(beta.left.floated(), beta.right.floated())
    T, exact, kappa = ctx.T, ctx.scalar_context.exact, ctx.alphabet.kappa
    codes, u = np.arange(kappa ** 3), np.arange(kappa ** 2)
    moves, dtype = T.coded, object if exact else float
    rho, blocks = [ctx.law.rho[(a,)] for a in ctx.alphabet.letters], []
    # boundary rates, end site in the window, initial weight, window and source codes
    for side, end, initial, window, source in (
            (beta.left, 0, rho, codes // kappa, u[:, None] * kappa + codes % kappa),
            (beta.right, 1, None, codes % kappa ** 2, codes - codes % kappa ** 2 + u[:, None])):
        # T's and the boundary's coded rates over one denominator (exact) or as stored
        lifted, place = side.coded, kappa ** (1 - end)  # place value of the end site
        scale = exact and math.lcm(moves.den, lifted.den)
        t, b = (scale // moves.den, scale // lifted.den) if exact else (1, 1)
        exits = np.array([-(lifted.exits[a] * b + x * t)
                          for a, x in zip(u // place % kappa, moves.exits)], dtype)[window]
        amounts = np.zeros((kappa ** 2, kappa ** 2), dtype)
        amounts[moves.sources, moves.targets] = np.array(moves.rates, dtype) * t
        others = u[:kappa] * kappa ** end  # the other site's letter, in place
        for a, c, rate in zip(lifted.sources, lifted.targets, lifted.rates):
            amounts[a * place + others, c * place + others] += rate * b
        amounts = amounts[:, window]
        weights = _chain_weights(ctx, 3, initial)
        if exact:
            blocks.append((exits * weights + (amounts * weights[source]).sum(axis=0),
                           scale * weights))
        else:
            columns = [exits, *(weights[source] / weights * amounts)]
            blocks.append([column for column in columns if column.any()])
    z = z_table(ctx).values
    entries, den = z.entries, z.den
    if exact:
        numerators, block_den = _over_one_denominator(*map(np.concatenate, zip(*blocks)))
        den = math.lcm(den, block_den)
        entries, numerators = entries * (den // z.den), numerators * (den // block_den)
        blocks = [[numerators[:kappa ** 3]], [numerators[kappa ** 3:]]]
    left, right = blocks

    def balances(columns, count):
        total = _window_sums(ctx, entries, columns, count, cyclic=False)
        for block, first in ((left, 0), (right, len(columns) - 3)):
            code = (columns[first] * kappa + columns[first + 1]) * kappa + columns[first + 2]
            for column in block:
                total = total + column[code]
        return total

    return ctx, balances, den


def segment_balance(ctx: CriterionContext, beta: BoundaryRates, x: Word):
    """Normalized stationarity balance of the word x on the segment {1..n}:
    the linear window sums of Z plus the two boundary blocks."""
    x = ctx.alphabet.check_word(x)
    _, balances, den = _segment_balances(ctx, beta, len(x))
    return _scalar(balances(x, 1)[0], den)


def check_segment(ctx: CriterionContext, beta: BoundaryRates, n: int) -> CriterionReport:
    """Test the segment balance on every word of E^n, from Z.

    For n >= N0 the size n + 1 is tested as well; when both vanish the report
    carries the derived conclusions (line invariance, and invariance on every
    segment of size >= n with the same boundary rates).
    """
    ctx, balances, den = _segment_balances(ctx, beta, n)
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
    """Boundary rates emulating the infinite line, plus their validation: the
    report of `check_segment` at sizes N0 and N0 + 1 (witness: a discrepancy)."""

    boundary: BoundaryRates
    variant: str
    validation: CriterionReport


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
    if not check_markov_line(ctx).invariant:
        raise ValueError("law is not invariant on the line; no boundary rates exist")
    M, rho, E, T = ctx.kernel.prob, ctx.law.rho, ctx.alphabet.letters, ctx.T
    left, right = {}, {}  # zero rates leave no entry in a JumpRateMatrix
    for z, a in itertools.product(E, repeat=2):
        if a == z:
            continue
        left[((z,), (a,))] = sum(rho[(u,)] * M((u,), z) * T.rate((u, z), (v, a))
                                 for u in E for v in E) / rho[(z,)]
        if variant == "target-weighted":
            right[((z,), (a,))] = sum(T.rate((z, v), (a, b)) * M((z,), b) for v in E for b in E)
        else:
            right[((z,), (a,))] = sum(M((z,), v) * T.rate((z, v), (a, b)) for v in E for b in E)
    beta = BoundaryRates(JumpRateMatrix(ctx.alphabet, 1, left),
                         JumpRateMatrix(ctx.alphabet, 1, right))
    return BoundaryConstruction(beta, variant, check_segment(ctx, beta, N0))
