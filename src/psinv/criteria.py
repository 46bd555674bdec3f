"""Finite algebraic criteria deciding invariance of Markov and product laws.

The pivot of everything is the local balance table Z.  For a candidate law
with kernel memory m and a jump rate matrix of range L, Z is indexed by words
of length s = 2m + L (an m-letter context on each side of an L-letter
window) and measures the normalized inflow-minus-outflow rate of the window
given its context:

    Z(a b c) = (sum_u T[u -> b] * P(a u c) - T_out(b) * P(a b c)) / P(a b c)

with P(w) = prod_j M(w_j .. w_j+m) the chain weight of w over all its
(m+1)-windows.  For m = 0 the context disappears and the weights are plain
marginal ratios.  Z reads the kernel M alone: the stationary law enters
only the boundary terms of line and segment balances, so a context solves
it on the first read of `CriterionContext.law`, and most verdicts never do.

Sums of Z over sliding windows reproduce the stationarity balance of cylinder
words (line) and of cyclic words (cycles), once normalized by the chain
weight.  Invariance of the law on the line is equivalent to a finite family
of vanishing statements about such sums; the decision procedure used here
checks the cyclic window sums of length h = 4m + 2L - 1 on the words
a[1..s] 0^(s-1) and, on success, produces a potential function W with
Z(w) = W(suffix) - W(prefix), which certifies invariance by telescoping.

Z is an array over the base-kappa codes of its index words (the order of
`Alphabet.words`), built from one product array holding P of every index
word, gathered from the kernel's step weights by window codes.  Exact
tables hold Python-int numerators over one common denominator; float tables
hold float64, the products taken in step order and the inflow terms added
in the order of T.entries(), as scalar arithmetic adds them.  Window sums
gather Z by window codes, one block of words at a time, window by window
from zero.  Verdicts report the first violating word in lexicographic order.
"""
from __future__ import annotations

import itertools
import math
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from typing import Dict, Optional, Tuple, Union

import numpy as np

from .core import (Alphabet, JumpRateMatrix, MarkovKernel, StationaryLaw, Word,
                   product_law)
from .linalg import stationary_distribution
from .scalars import DEFAULT_TOL, ScalarContext, all_exact, over_common_denominator

ZERO_DENOMINATOR_HINT = ("kernel has zero entries; invariance with partial support "
                         "must go through restrict_support on a closed sub-alphabet")
# words per block of an array window-sum scan (rounded down to a power of kappa)
SCAN_BLOCK = 2 ** 15
# exact cycle scans add int64 numerators when n x the largest |Z| is below this
INT64_LIMIT = 2 ** 62


@dataclass(frozen=True)
class CriterionContext:
    """Binds a jump rate matrix to a candidate law: a Markov kernel, or a
    stationary law kept as given.

    Tables and window sums read the kernel alone.  `law` is the stationary
    law, solved from the kernel on its first read (by line and segment
    balances and the boundary construction) unless one was given.

    Derived sizes: window_length s = 2m + L (index length of Z) and
    critical_length h = 4m + 2L - 1 (word length of the decisive cyclic
    checks, h = 2s - 1).

    Exact when the rates and the kernel (or the given law) are rational;
    otherwise the context holds float copies of the rates and the kernel,
    and `law` is the float copy of the law, so that every table is float64.
    """

    T: JumpRateMatrix
    kernel_or_law: Union[MarkovKernel, StationaryLaw] = field(repr=False)
    tol: float = DEFAULT_TOL
    kernel: MarkovKernel = field(init=False, compare=False)
    scalar_context: ScalarContext = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        given = self.kernel_or_law
        kernel = given.kernel if isinstance(given, StationaryLaw) else given
        if self.T.alphabet.kappa != kernel.alphabet.kappa:
            raise ValueError("rate matrix and law use different alphabets")
        if not kernel.is_positive:
            raise ValueError(ZERO_DENOMINATOR_HINT)
        scalars = ScalarContext.for_balances(self.T, given.is_exact, self.tol)
        object.__setattr__(self, "scalar_context", scalars)
        if not scalars.exact:
            object.__setattr__(self, "T", self.T.floated())
            kernel = kernel.floated()
        object.__setattr__(self, "kernel", kernel)

    @cached_property
    def law(self) -> StationaryLaw:
        """The stationary law: as given, or solved from the kernel now."""
        law = self.kernel_or_law
        if isinstance(law, MarkovKernel):
            law = stationary_distribution(law)
        return law if self.scalar_context.exact else law.floated()

    @property
    def alphabet(self) -> Alphabet:
        return self.T.alphabet

    @property
    def memory(self) -> int:
        return self.kernel.memory

    @property
    def range_(self) -> int:
        return self.T.range_

    @property
    def window_length(self) -> int:
        return 2 * self.memory + self.range_

    @property
    def critical_length(self) -> int:
        return 4 * self.memory + 2 * self.range_ - 1

    def is_zero(self, value) -> bool:
        return self.scalar_context.is_zero(value)

    def first_nonzero(self, words, balance):
        """Scan words in order: (number of words checked, (first word with a
        nonzero balance, its balance)), the witness None when all vanish."""
        count = 0
        for word in words:
            count += 1
            value = balance(word)
            if not self.is_zero(value):
                return count, (word, value)
        return count, None


def markov_context(T: JumpRateMatrix, kernel_or_law, tol: float = DEFAULT_TOL) -> CriterionContext:
    """Context for a Markov kernel, whose stationary law is solved only when
    read, or for a stationary law, kept as given."""
    return CriterionContext(T, kernel_or_law, tol)


def product_context(T: JumpRateMatrix, rho, tol: float = DEFAULT_TOL) -> CriterionContext:
    """Context for a product measure: its law, never solved, is rho's."""
    return CriterionContext(T, product_law(rho), tol)


class WordTable(Mapping):
    """Scalars over all words of one length, by the base-kappa code of the
    word (`Alphabet.encode`, the order of `Alphabet.words`): exact tables
    hold Python-int numerators over the one denominator `den`; float tables
    hold float64, `exact_zero` marking the entries that scalar arithmetic
    leaves an exact 0 (windows no jump touches)."""

    def __init__(self, alphabet: Alphabet, length: int, entries: np.ndarray,
                 den: Optional[int] = None, exact_zero: Optional[np.ndarray] = None):
        self.alphabet, self.length, self.entries = alphabet, length, entries
        self.den, self.exact_zero = den, exact_zero

    def __getitem__(self, word: Word):
        if len(word) != self.length:
            raise KeyError(word)
        code = self.alphabet.encode(word)
        if self.exact_zero is not None and self.exact_zero[code]:
            return Fraction(0)
        return _scalar(self.entries[code], self.den)

    def __iter__(self):
        return self.alphabet.words(self.length)

    def __len__(self) -> int:
        return self.alphabet.kappa ** self.length


def _scalar(value, den: Optional[int]):
    """An entry, or a sum of entries, as a scalar (a Fraction when exact)."""
    return Fraction(int(value), den) if den is not None else float(value)


@dataclass(frozen=True)
class LocalBalanceTable:
    """The table Z over all words of length s = 2m + L."""

    context: CriterionContext
    values: WordTable

    def __getitem__(self, word: Word):
        return self.values[word]


def z_table(ctx: CriterionContext) -> LocalBalanceTable:
    """Fill the local balance table Z for all kappa^(2m+L) index words."""
    return LocalBalanceTable(ctx, _balance_table(ctx))


def _balance_table(ctx: CriterionContext, exits: bool = True) -> WordTable:
    """-T_out(b) (0 without `exits`) + sum_u T[u -> b] * P(a u c) / P(a b c)
    for every index word a b c, from `T.coded`, the terms added in the order
    of T.entries(), and P the chain weight of `_chain_weights`."""
    alphabet, m, L = ctx.alphabet, ctx.memory, ctx.range_
    kappa, s = alphabet.kappa, ctx.window_length
    moves = ctx.T.coded
    start = [-x for x in moves.exits] if exits else [0] * kappa ** L
    codes = np.arange(kappa ** s)
    b = codes // kappa ** m % kappa ** L
    # the codes of a 0^L c; a move u -> v at (a, c) reads a u c and writes a v c
    sides = (codes[:kappa ** m, None] * kappa ** (m + L) + codes[:kappa ** m]).ravel()
    source, target = (w[:, None] * kappa ** m + sides for w in (moves.sources, moves.targets))
    den = exact_zero = None
    exact = ctx.scalar_context.exact
    if not exact:
        untouched = np.array([not isinstance(x, float) for x in start])
        untouched[moves.targets] = False
        exact_zero = untouched[b]
    dtype = object if exact else float
    rates, chain = np.array(moves.rates, dtype=dtype)[:, None], _chain_weights(ctx, s)
    total = np.array(start, dtype=dtype)[b]
    if exact:
        # numerators over den * P(a b c), then reduced to one denominator
        total = total * chain
        np.add.at(total, target.ravel(), (rates * chain[source]).ravel())
        total, den = _over_one_denominator(total, moves.den * chain)
    else:
        np.add.at(total, target.ravel(), (rates * chain[source] / chain[target]).ravel())
    return WordTable(alphabet, s, total, den, exact_zero)


def _chain_weights(ctx: CriterionContext, length: int, first: Optional[list] = None):
    """The chain weight P of every word of a length, by code: `first` (listed
    by the code of the first m letters) when given, times the kernel's step
    weights over the (m+1)-windows, multiplied in that order.  Exact weights
    are Python ints, all scaled by one common factor."""
    m, kappa, exact = ctx.memory, ctx.alphabet.kappa, ctx.scalar_context.exact
    weights = ctx.kernel.step_weights
    if exact:
        weights = ctx.kernel.integer_steps[0]
        first = first and over_common_denominator(first)[0]
    weights, codes = np.array(weights, object if exact else float), np.arange(kappa ** length)
    chain = first and np.array(first, weights.dtype)[codes // kappa ** (length - m)]
    for j in range(length - m):
        step = weights[codes // kappa ** (length - 1 - m - j) % kappa ** (m + 1)]
        chain = step if chain is None else chain * step
    return chain


def _over_one_denominator(numerators, denominators):
    """Ratios of Python-int arrays as (numerators, least common denominator)."""
    common = np.gcd(numerators, denominators)
    numerators, denominators = numerators // common, denominators // common
    den = math.lcm(*denominators)
    return numerators * (den // denominators), den


# ---------------------------------------------------------------------------
# window-sum functionals of Z
# ---------------------------------------------------------------------------

def cycle_balance(ctx: CriterionContext, x: Word, table: Optional[LocalBalanceTable] = None):
    """Normalized stationarity balance of the cyclic word x.

    For n >= m + L this equals the wrapped window sum of Z; shorter cycles
    force letter repetitions in the chain weight, so they are evaluated
    directly from the finite cyclic balance (exact in rational mode).
    """
    x = tuple(x)
    if len(x) >= ctx.memory + ctx.range_:
        values = (table or z_table(ctx)).values
        return _scalar(_window_sums(ctx, values.entries, x, 1, cyclic=True)[0], values.den)
    return _cycle_balance_direct(ctx, x)


def _cycle_balance_direct(ctx: CriterionContext, x: Word):
    def weight(w):  # the chain weight of a cyclic word over its wrapped windows
        return ctx.kernel.word_weight((w * (ctx.memory + 1))[:len(w) + ctx.memory])

    inflow, exit_rate = cycle_jumps(ctx.T, x)
    total_in = sum(weight(w) * rate for w, rate in inflow)
    # exact jumps are numerators over the rates' common denominator
    return (total_in - weight(x) * exit_rate) / (weight(x) * (ctx.T.coded.den or 1))


def cycle_jumps(T: JumpRateMatrix, x: Word):
    """The jumps of T into and out of the cyclic word x on Z/nZ, n = len(x).

    Returns (inflow, exit_rate): inflow lists (w, rate), one entry per
    wrapped window and per move w -> x (windows in site order, moves in
    T.entries() order), with each source w read from the site after its
    window; exit_rate is the total rate at which x is left, added in the
    same order.  When n < L a window covers some sites twice, and a move
    counts only when both of its words repeat with period n.  The moves of
    each window are looked up in `T.by_window`: an exact T gives Python-int
    numerators over `T.coded.den`, a float T its stored rates with exit
    sums from Fraction(0).
    """
    x = tuple(x)
    n, L = len(x), T.range_
    into, out_of, exit_rate = T.by_window
    inflow = []
    for start in range(n):
        window = tuple(x[(start + j) % n] for j in range(L))
        # read from the site after the window: the n - L letters outside it,
        # then the move's source word (when n < L, the source's first n letters
        # from that site on)
        rest = tuple(x[(start + L + i) % n] for i in range(n - L))
        for u, _, rate in into.get(window, ()):
            if n >= L:
                inflow.append((rest + u, rate))
            elif u[n:] == u[:L - n]:
                inflow.append((tuple(u[(L + i) % n] for i in range(n)), rate))
        for _, v, rate in out_of.get(window, ()):
            if n >= L or v[n:] == v[:L - n]:
                exit_rate += rate
    return inflow, exit_rate


def line_balance(ctx: CriterionContext, x: Word, table: Optional[LocalBalanceTable] = None):
    """Normalized stationarity balance of the cylinder word x on the line.

    Extends x by q = m + L - 1 letters on both sides (so every jump window
    touching x has a complete context), sums Z over all length-s windows of
    the extension and integrates the boundary letters against the law.
    Equals the raw cylinder balance divided by the chain weight of x.
    """
    x = tuple(x)
    n = len(x)
    if n < 1:
        raise ValueError("word must be nonempty")
    m = ctx.memory
    q = m + ctx.range_ - 1
    values = (table or z_table(ctx)).values
    # chain-weight windows of x divided out by the normalization
    # (empty when n <= m: the balance is then not normalized)
    normalized = set(range(q, q + n - m))
    total = Fraction(0)
    for left in ctx.alphabet.words(q):
        for right in ctx.alphabet.words(q):
            full = left + x + right
            weight = ctx.law.rho[full[:m]] if m else Fraction(1)
            for j in range(len(full) - m):
                if j not in normalized:
                    weight *= ctx.kernel.step_weight(full[j:j + m + 1])
            windows = _window_sums(ctx, values.entries, full, 1, cyclic=False)[0]
            total += weight * _scalar(windows, values.den)
    return total


# ---------------------------------------------------------------------------
# window sums of all words of a length, as array gathers
# ---------------------------------------------------------------------------

def _letters(kappa: int, length: int) -> list:
    """The letter columns of all words of a length, in lexicographic order."""
    return list(np.indices((kappa,) * length).reshape(length, kappa ** length))


def _window_sums(ctx: CriterionContext, entries, columns, count: int, cyclic: bool):
    """Sums of Z over the windows of `count` words given by their letter
    columns (an int or an array per position): the n wrapped windows when
    cyclic, else the n - s + 1 linear ones, added in window order from zero.
    A window code rolls as code * kappa mod kappa^s + its last letter."""
    kappa, s, n = ctx.alphabet.kappa, ctx.window_length, len(columns)
    code = 0
    for j in range(s - 1):
        code = code * kappa + columns[j % n]
    total = np.zeros(count, dtype=entries.dtype)
    for i in range(n if cyclic else n - s + 1):
        code = code * kappa % kappa ** s + columns[(i + s - 1) % n]
        total = total + entries[code]
    return total


def _scan_words(ctx: CriterionContext, n: int, balances, den: Optional[int], pad: Word = ()):
    """CriterionContext.first_nonzero over the words x + pad, x running over
    all words of length n in lexicographic order, in blocks of one prefix and
    all kappa^t <= SCAN_BLOCK suffixes: balances(columns, count) gives a
    block's balances (numerators over den when exact) from its letters."""
    kappa, t = ctx.alphabet.kappa, 0
    while t < n and kappa ** (t + 1) <= SCAN_BLOCK:
        t += 1
    suffixes = _letters(kappa, t)
    for prefix in range(kappa ** (n - t)):
        sums = balances(list(ctx.alphabet.decode(prefix, n - t)) + suffixes + list(pad),
                        kappa ** t)
        hits = np.flatnonzero(~ctx.is_zero(sums))
        if hits.size:
            code = prefix * kappa ** t + int(hits[0])
            word = ctx.alphabet.decode(code, n) + tuple(pad)
            return code + 1, (word, _scalar(sums[hits[0]], den))
    return kappa ** n, None


def _first_nonzero_cycle(ctx: CriterionContext, values: WordTable, n: int, pad: Word = ()):
    """_scan_words over the wrapped window sums of Z on the cycles x + pad."""
    return _scan_words(ctx, n, lambda columns, count: _window_sums(
        ctx, values.entries, columns, count, cyclic=True), values.den, pad)


# ---------------------------------------------------------------------------
# certificates and reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PotentialCertificate:
    """Function W on words of length s-1 with Z(w) = W(suffix) - W(prefix).

    Existence of such a potential makes every window sum of Z telescope,
    which certifies invariance on the line.
    """

    values: WordTable

    def check(self, table: LocalBalanceTable) -> bool:
        ctx, z, w = table.context, table.values, self.values
        kappa, s = ctx.alphabet.kappa, ctx.window_length
        codes = np.arange(kappa ** s)
        entries, steps = z.entries, w.entries[codes % kappa ** (s - 1)] - w.entries[codes // kappa]
        if z.den != w.den:  # exact potential over another denominator
            entries, steps = entries * w.den, steps * z.den
        return bool(ctx.is_zero(entries - steps).all())


def potential_from_table(table: LocalBalanceTable) -> PotentialCertificate:
    """Candidate potential W(x) = sum_i Z(0^(s-i) x[1..i]).

    When the decisive cyclic checks pass this W satisfies the certificate
    identity for every index word; the identity must still be verified.
    """
    ctx, z = table.context, table.values
    kappa, s = ctx.alphabet.kappa, ctx.window_length
    codes = np.arange(kappa ** (s - 1))
    total = np.zeros(len(codes), dtype=z.entries.dtype)
    exact_zero = None if z.exact_zero is None else np.ones(len(codes), dtype=bool)
    for i in range(1, s):
        prefix = codes // kappa ** (s - 1 - i)  # the code of 0^(s-i) x[1..i]
        total = total + z.entries[prefix]
        if exact_zero is not None:
            exact_zero &= z.exact_zero[prefix]
    return PotentialCertificate(WordTable(ctx.alphabet, s - 1, total, z.den, exact_zero))


@dataclass(frozen=True)
class CriterionReport:
    """Outcome of an invariance check.

    invariant verdicts carry a reconstructible certificate where one exists;
    not-invariant verdicts carry the lexicographically first violating word
    and its residual.
    """

    invariant: bool
    criterion: str
    witness: Optional[Tuple[Word, object]] = None
    certificate: Optional[PotentialCertificate] = None
    criteria_evaluated: Tuple[str, ...] = ()
    words_checked: int = 0
    details: dict = field(default_factory=dict)

    @property
    def verdict(self) -> str:
        return "invariant" if self.invariant else "not-invariant"


def check_markov_line(ctx: CriterionContext,
                      table: Optional[LocalBalanceTable] = None) -> CriterionReport:
    """Decide invariance of the law on the line (from Z, built unless given).

    Tests the cyclic window sums of length h on the words a[1..s] 0^(s-1);
    on success builds and verifies a potential certificate, on failure
    reports the first violating word.
    """
    table = table or z_table(ctx)
    s = ctx.window_length
    count, witness = _first_nonzero_cycle(ctx, table.values, s, pad=(0,) * (s - 1))
    if witness is not None:
        return CriterionReport(False, "cycle-anchor", witness=witness, words_checked=count)
    certificate = potential_from_table(table)
    if not certificate.check(table):
        # cannot happen for exact data; guards the float path
        return CriterionReport(False, "cycle-anchor",
                               witness=(None, "certificate verification failed"),
                               words_checked=count)
    return CriterionReport(True, "cycle-anchor", certificate=certificate,
                           words_checked=count)


def check_product_line(T: JumpRateMatrix, rho, tol: float = DEFAULT_TOL) -> CriterionReport:
    """Decide invariance of the product measure with marginal rho on the line.

    rho must have full support; partial supports go through restrict_support.
    """
    rho = [p if isinstance(p, (Fraction, float)) else Fraction(p) for p in rho]
    if any(p <= 0 for p in rho):
        raise ValueError("marginal must have full support; " + ZERO_DENOMINATOR_HINT)
    ctx = product_context(T, rho, tol)
    return check_markov_line(ctx)


def check_markov_small_cycles(ctx: CriterionContext) -> CriterionReport:
    """Decide line invariance through window sums on all cycle lengths up to
    kappa^m (equivalent to check_markov_line for kernels with memory m >= 1).

    The cyclic window sum of Z is used for every length n in
    [m+1, kappa^m]; below m + L it is a formal criterion object rather than
    a cycle balance.
    """
    if ctx.memory < 1:
        raise ValueError("small-cycles decision needs kernel memory >= 1")
    table = z_table(ctx)
    lengths = range(ctx.memory + 1, ctx.alphabet.kappa ** ctx.memory + 1)
    count = 0
    for top in lengths:
        checked, witness = _first_nonzero_cycle(ctx, table.values, top)
        count += checked
        if witness is not None:
            break
    evaluated = tuple(f"cycle-window-sum-{n}" for n in range(lengths[0], top + 1))
    if witness is not None:
        return CriterionReport(False, "small-cycles", witness=witness,
                               criteria_evaluated=evaluated, words_checked=count)
    certificate = potential_from_table(table)
    cert = certificate if certificate.check(table) else None
    return CriterionReport(True, "small-cycles", certificate=cert,
                           criteria_evaluated=evaluated, words_checked=count)


def _narrowed(values: WordTable, windows: int) -> WordTable:
    """An exact table with int64 numerators when a sum of `windows` entries
    stays below INT64_LIMIT in absolute value; otherwise the table itself."""
    if values.den is None:
        return values
    try:
        narrow = values.entries.astype(np.int64)
    except OverflowError:
        return values
    top = max(int(narrow.max(initial=0)), -int(narrow.min(initial=0)))
    if top * windows >= INT64_LIMIT:
        return values
    return WordTable(values.alphabet, values.length, narrow, values.den)


def check_markov_cycle(ctx: CriterionContext, n: int) -> CriterionReport:
    """Decide invariance of the cyclic chain law on Z/nZ (all kappa^n words).
    Exact window sums run on int64 when n x the largest |Z| numerator is
    below INT64_LIMIT, on Python ints otherwise."""
    if n < 1:
        raise ValueError("cycle length must be >= 1")
    if n >= ctx.memory + ctx.range_:
        count, witness = _first_nonzero_cycle(ctx, _narrowed(z_table(ctx).values, n), n)
    else:
        count, witness = ctx.first_nonzero(ctx.alphabet.words(n),
                                           lambda x: _cycle_balance_direct(ctx, x))
    return CriterionReport(witness is None, f"cycle-{n}", witness=witness,
                           words_checked=count)


def check_product_cycle(T: JumpRateMatrix, rho, n: int, tol: float = DEFAULT_TOL) -> CriterionReport:
    return check_markov_cycle(product_context(T, rho, tol), n)


def equivalence_panel(ctx: CriterionContext) -> dict:
    """Evaluate the nine equivalent invariance predicates plus the two
    paired cycle-length reductions (the latter only for range 2, memory 1).

    All nine predicates agree on every positive-kernel instance; the panel
    recomputes each one independently so that agreement can be tested.
    """
    table = z_table(ctx)
    entries = table.values.entries
    kappa, s, h = ctx.alphabet.kappa, ctx.window_length, ctx.critical_length

    def zero(sums):
        return bool(ctx.is_zero(sums).all())

    sums_h, sums_h1 = (_window_sums(ctx, entries, _letters(kappa, n), kappa ** n, cyclic=False)
                       for n in (h, h - 1))
    # the middle letter (position s) of an h-word has place value kappa^(h-s)
    codes, place = np.arange(kappa ** h), kappa ** (h - s)
    middle = codes // place % kappa
    deleted = codes // (place * kappa) * place + codes % place
    anchors = np.arange(kappa ** s) * place  # a[1..s] 0^(s-1), as h - s = s - 1
    cycles = {n: _first_nonzero_cycle(ctx, table.values, n)[1] is None
              for n in range(ctx.memory + ctx.range_, h + 1)}
    cycle_anchor = _first_nonzero_cycle(ctx, table.values, s, (0,) * (s - 1))[1] is None
    panel = {
        # the line-invariance predicate is decided by the anchor criterion,
        # which the other eight are provably equivalent to
        "line_invariant": cycle_anchor,
        "replacement_anchor_zero": zero(sums_h[anchors]
                                        - sums_h[anchors - middle[anchors] * place]),
        "replacement_all_zero": all(zero(sums_h - sums_h[codes + (y - middle) * place])
                                    for y in ctx.alphabet.letters),
        "deletion_anchor_zero": zero(sums_h[anchors] - sums_h1[deleted[anchors]]),
        "deletion_all_zero": zero(sums_h - sums_h1[deleted]),
        "cycles_zero_all_lengths": all(cycles.values()),
        "cycle_zero_critical_length": cycles[h],
        "cycle_zero_anchor_words": cycle_anchor,
        "potential_certificate_exists": potential_from_table(table).check(table),
    }
    if (ctx.memory, ctx.range_) == (1, 2):
        panel["paired_lengths_6_5"] = cycles[6] and cycles[5]
        panel["paired_lengths_6_4"] = cycles[6] and cycles[4]
    return panel


# ---------------------------------------------------------------------------
# product measures on general graphs with pair rates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PairRateField:
    """Translation-invariant pair selection rates p(offset) with finite range."""

    radius: int
    rates: Mapping[Tuple[int, ...], object]

    def __post_init__(self):
        for offset, value in self.rates.items():
            if sum(abs(c) for c in offset) >= self.radius and value != 0:
                raise ValueError(f"offset {offset} reaches beyond the radius")
            if value < 0:
                raise ValueError("pair rates must be nonnegative")

    @property
    def is_symmetric(self) -> bool:
        get = self.rates.get
        return all(value == get(tuple(-c for c in offset), 0)
                   for offset, value in self.rates.items())

    @property
    def is_zero(self) -> bool:
        return all(value == 0 for value in self.rates.values())


def check_product_general_graph(T: JumpRateMatrix, rho, p: PairRateField,
                                tol: float = DEFAULT_TOL) -> CriterionReport:
    """Invariance of the product measure when pairs of sites interact with
    position-dependent rates p: symmetric p reduces to the length-2 cyclic
    window sums, asymmetric p to plain line invariance.
    """
    if T.range_ != 2:
        raise ValueError("pair-rate dynamics needs range 2")
    if p.is_zero:
        return CriterionReport(True, "pair-rates-zero")
    if p.is_symmetric:
        ctx = product_context(T, rho, tol)
        count, witness = _first_nonzero_cycle(ctx, z_table(ctx).values, 2)
        return CriterionReport(witness is None, "symmetric-pair-cycle2", witness=witness,
                               words_checked=count)
    return replace(check_product_line(T, rho, tol), criterion="asymmetric-pair-line")


# ---------------------------------------------------------------------------
# support restriction and symmetrization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RestrictedInstance:
    """A rate matrix re-indexed over a closed support, with the candidate
    (a marginal's product law, or a kernel) as a CriterionContext takes it."""

    support: Tuple[int, ...]
    T: JumpRateMatrix
    kernel_or_law: Optional[Union[MarkovKernel, StationaryLaw]]


def restrict_support(T: JumpRateMatrix, law_or_rho, support) -> RestrictedInstance:
    """Restrict an instance to a strict sub-alphabet S.

    Verifies closure: no positive rate may lead from words over S to words
    leaving S.  Returns the re-indexed instance, or raises with the escaping
    transition as witness.
    """
    support = tuple(sorted(set(support)))
    kappa = T.alphabet.kappa
    if not support or len(support) >= kappa:
        raise ValueError("support must be a nonempty strict subset of the alphabet")
    inside = set(support)
    for src, dst, rate in T.entries():
        if set(src) <= inside and not set(dst) <= inside:
            raise ValueError(f"support not closed: rate {rate} leads {src} -> {dst}")
    new_letter = {a: i for i, a in enumerate(support)}

    def relabel(word):
        return tuple(new_letter[a] for a in word)

    # a one-letter support has only the constant word: no rates, no law
    sub = Alphabet(len(support)) if len(support) >= 2 else None
    rates = {(relabel(src), relabel(dst)): rate for src, dst, rate in T.entries()
             if set(src) <= inside and set(dst) <= inside}
    restricted_T = JumpRateMatrix(sub, T.range_, rates) if sub else None
    law = None
    if law_or_rho is not None and sub is not None:
        kernel = law_or_rho.kernel if isinstance(law_or_rho, StationaryLaw) else law_or_rho
        if isinstance(kernel, MarkovKernel):
            entries = {}
            for ctx_word in itertools.product(support, repeat=kernel.memory):
                row = [kernel.prob(ctx_word, y) for y in support]
                if not ScalarContext(all_exact(row)).is_zero(sum(row) - 1):
                    raise ValueError(f"kernel row {ctx_word} leaks mass outside the support")
                entries.update(((relabel(ctx_word), new_letter[y]), p)
                               for y, p in zip(support, row))
            law = MarkovKernel(sub, kernel.memory, entries)
        else:
            rho = list(law_or_rho)
            mass = sum(rho[a] for a in support)
            if mass != 1 and any(rho[a] != 0 for a in range(kappa) if a not in inside):
                raise ValueError("marginal has mass outside the support")
            law = product_law([rho[a] / mass for a in support])
    return RestrictedInstance(support, restricted_T, law)


def symmetrize(T: JumpRateMatrix) -> JumpRateMatrix:
    """S[(a,b)->(c,d)] = T[(a,b)->(c,d)] + T[(b,a)->(d,c)] (range 2 only)."""
    if T.range_ != 2:
        raise ValueError("symmetrization is defined for range 2")
    rates: Dict[Tuple[Word, Word], object] = {}
    for (a, b), (c, d), rate in T.entries():
        for key in (((a, b), (c, d)), ((b, a), (d, c))):
            rates[key] = rates.get(key, 0) + rate
    return JumpRateMatrix(T.alphabet, 2, rates)


# ---------------------------------------------------------------------------
# reversibility-style sufficient checks (helpers, not deciders)
# ---------------------------------------------------------------------------

def is_reversible_for_chain(ctx: CriterionContext) -> bool:
    """Sufficient condition: the dynamics is reversible for the chain law
    (memory 1, range 2), which forces Z = 0 identically."""
    if (ctx.memory, ctx.range_) != (1, 2):
        raise ValueError("reversibility helper covers memory 1, range 2")
    M, T = ctx.kernel.prob, ctx.T.rate
    return all(ctx.is_zero(T((u, v), (b, c)) * M((a,), u) * M((u,), v) * M((v,), d)
                           - M((a,), b) * M((b,), c) * M((c,), d) * T((b, c), (u, v)))
               for a, d, b, c, u, v in itertools.product(ctx.alphabet.letters, repeat=6))


def has_detailed_balance_product(T: JumpRateMatrix, rho) -> bool:
    """Sufficient condition for product invariance: pairwise detailed balance
    rho_b rho_c T[(b,c)->(u,v)] = rho_u rho_v T[(u,v)->(b,c)]."""
    if T.range_ != 2:
        raise ValueError("detailed balance helper covers range 2")
    rate = T.rate
    return all(rho[b] * rho[c] * rate((b, c), (u, v)) == rho[u] * rho[v] * rate((u, v), (b, c))
               for b, c, u, v in itertools.product(range(len(rho)), repeat=4))


# ---------------------------------------------------------------------------
# advisory bounds for truncations of infinite alphabets
# ---------------------------------------------------------------------------

def tail_bounds_advisory(ctx: CriterionContext) -> dict:
    """Suprema over the truncated alphabet of the two series bounds that
    control well-posedness of the balance sums when the alphabet is infinite.
    Advisory only: a finite value over a truncation proves nothing about the
    full model and is reported as such.
    """
    inflow = _balance_table(ctx, exits=False)
    sup_inflow = max(Fraction(0), *inflow.values())
    sup_exit = max((ctx.T.out_rate(b) for b in ctx.alphabet.words(ctx.range_)),
                   default=Fraction(0))
    return {"sup_weighted_inflow": sup_inflow, "sup_exit_rate": sup_exit,
            "advisory": "computed over the finite truncation only"}
