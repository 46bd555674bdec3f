"""Invariance on a finite segment {1..n} with boundary jump rates.

For range 2 and kernel memory 1, the segment dynamics adds two single-site
rate matrices acting on the first and last site.  The normalized balance of
a word splits into the interior window sums of Z plus two boundary blocks
mixing the jump rates with the boundary rates.  Each block is a table over
the three letters at its end of the word, built by Z's builder from the
jump rates plus the boundary rates of the end site, so a size-n scan is the
window gather of Z plus two lookups.
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

from . import scalars
from .core import BoundaryRates, JumpRateMatrix, Word
from .criteria import (CriterionContext, CriterionReport, _balance_table, _scalar, _scan_words,
                       _window_sums, check_markov_line, z_table)

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

    Each boundary block is the balance table (`criteria._balance_table`)
    of T plus the boundary move of its end site, lifted to the end pair,
    over the three letters at its end of the word.  Left: no left context,
    weights rho(x1) M(x1,x2) M(x2,x3); right: no right context, weights
    M(x1,x2) M(x2,x3).  Exact Z and blocks go over one denominator, on int64
    while n times their largest numerator (a size-(n + 1) balance, scanned
    too from N0 on, adds n terms) stays below `scalars.INT64_LIMIT`.
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
    letters, kappa = ctx.alphabet.letters, ctx.alphabet.kappa
    rho = [ctx.law.rho[(a,)] for a in letters]
    tables = [z_table(ctx).values]
    for side, sides, first in ((beta.left, (0, 1), rho), (beta.right, (1, 0), None)):
        # the end site (the first one when weighted by rho) moves a -> c, the other keeps o
        lifted = {((a, o), (c, o)) if first else ((o, a), (o, c)): rate
                  for (a,), (c,), rate in side.entries() for o in letters}
        rates = ctx.T.plus(JumpRateMatrix(ctx.alphabet, 2, lifted))
        tables.append(_balance_table(ctx, rates, sides, first))
    entries, left, right = (table.entries for table in tables)
    den = None
    if ctx.scalar_context.exact:
        den = math.lcm(*(table.den for table in tables))
        # a size-(n + 1) balance adds n - 2 windows of Z and two blocks
        bound = n * max(max(table.top, 1) * (den // table.den) for table in tables)
        entries, left, right = (scalars.int_array(table.entries, bound) * (den // table.den)
                                for table in tables)

    def balances(columns, count):
        total = _window_sums(ctx, entries, columns, count, cyclic=False)
        for block, first in ((left, 0), (right, len(columns) - 3)):
            code = (columns[first] * kappa + columns[first + 1]) * kappa + columns[first + 2]
            total = total + block[code]
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
