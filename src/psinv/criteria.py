"""Finite algebraic criteria deciding invariance of Markov and product laws.

The pivot of everything is the local balance table Z.  For a candidate law
with kernel memory m and a jump rate matrix of range L, Z is indexed by words
of length s = 2m + L (an m-letter context on each side of an L-letter
window) and measures the normalized inflow-minus-outflow rate of the window
given its context:

    Z(a, b, c) = sum_u T[u -> b] * prod_j M(w'_j..) / M(w_j..)  -  T_out(b)

with w = a b c and w' = a u c, the products running over all (m+1)-windows.
For m = 0 the context disappears and the weights are plain marginal ratios.

Sums of Z over sliding windows reproduce the stationarity balance of cylinder
words (line) and of cyclic words (cycles), once normalized by the chain
weight.  Invariance of the law on the line is equivalent to a finite family
of vanishing statements about such sums; the decision procedure used here
checks the cyclic window sums of length h = 4m + 2L - 1 on the words
a[1..s] 0^(s-1) and, on success, produces a potential function W with
Z(w) = W(suffix) - W(prefix), which certifies invariance by telescoping.

Window sums over all words of a length gather Z by the base-kappa codes of
the windows: exact sums add Python-int numerators over one denominator,
float sums add float64 values window by window, in the order of `sum`.
Verdicts report the first violating word in lexicographic order.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from .core import (Alphabet, JumpRateMatrix, MarkovKernel, StationaryLaw, Word,
                   product_law)
from .linalg import stationary_distribution
from .scalars import DEFAULT_TOL, ScalarContext

ZERO_DENOMINATOR_HINT = ("kernel has zero entries; invariance with partial support "
                         "must go through restrict_support on a closed sub-alphabet")
# words per block of an array window-sum scan (rounded down to a power of kappa)
SCAN_BLOCK = 2 ** 15


@dataclass(frozen=True)
class CriterionContext:
    """Binds a jump rate matrix to a candidate stationary law.

    Derived sizes: window_length s = 2m + L (index length of Z) and
    critical_length h = 4m + 2L - 1 (word length of the decisive cyclic
    checks, h = 2s - 1).
    """

    T: JumpRateMatrix
    law: StationaryLaw
    tol: float = DEFAULT_TOL
    scalar_context: ScalarContext = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.T.alphabet.kappa != self.law.alphabet.kappa:
            raise ValueError("rate matrix and law use different alphabets")
        if not self.law.kernel.is_positive:
            raise ValueError(ZERO_DENOMINATOR_HINT)
        object.__setattr__(self, "scalar_context",
                           ScalarContext.for_balances(self.T, self.law.is_exact, self.tol))

    @property
    def alphabet(self) -> Alphabet:
        return self.T.alphabet

    @property
    def memory(self) -> int:
        return self.law.memory

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
    law = kernel_or_law
    if isinstance(kernel_or_law, MarkovKernel):
        law = stationary_distribution(kernel_or_law)
    return CriterionContext(T, law, tol)


def product_context(T: JumpRateMatrix, rho, tol: float = DEFAULT_TOL) -> CriterionContext:
    """Context for a product measure (memory-0 kernel with marginal rho)."""
    return CriterionContext(T, product_law(rho), tol)


@dataclass(frozen=True)
class LocalBalanceTable:
    """The table Z over all words of length s = 2m + L."""

    context: CriterionContext
    values: Mapping[Word, object]

    def __getitem__(self, word: Word):
        return self.values[tuple(word)]

    def window_sum(self, word: Word):
        """Sum of Z over the sliding length-s windows of a linear word."""
        s = self.context.window_length
        return sum(self.values[tuple(word[i:i + s])] for i in range(len(word) - s + 1))

    def cyclic_window_sum(self, word: Word):
        """Sum of Z over the n wrapped length-s windows of a cyclic word."""
        n = len(word)
        s = self.context.window_length
        return sum(self.values[tuple(word[(i + j) % n] for j in range(s))] for i in range(n))


def z_table(ctx: CriterionContext) -> LocalBalanceTable:
    """Fill the local balance table Z for all kappa^(2m+L) index words."""
    m, L = ctx.memory, ctx.range_
    kernel = ctx.law.kernel
    values: Dict[Word, object] = {}
    out_rates = {b: ctx.T.out_rate(b) for b in ctx.alphabet.words(L)}
    into = _moves_into(ctx.T)
    for a in ctx.alphabet.words(m):
        for c in ctx.alphabet.words(m):
            for b in ctx.alphabet.words(L):
                values[a + b + c] = _inflow(kernel, into.get(b, ()), a, b, c, -out_rates[b])
    return LocalBalanceTable(ctx, values)


def _moves_into(T: JumpRateMatrix) -> Dict[Word, list]:
    """The moves of T as target -> [(source, rate)], each list in entry order."""
    into: Dict[Word, list] = {}
    for u, v, rate in T.entries():
        into.setdefault(v, []).append((u, rate))
    return into


def _inflow(kernel: MarkovKernel, moves, a: Word, b: Word, c: Word, start):
    """start + sum_u T[u -> b] * M(a u c) / M(a b c) over the moves (u, rate)
    into b, the chain weights M running over the (m+1)-windows; terms are
    added in the order of moves."""
    m = kernel.memory
    steps = range(m + len(b))
    w = a + b + c
    denom = Fraction(1)
    for j in steps:
        step = kernel.step_weight(w[j:j + m + 1])
        if step == 0:
            raise ZeroDivisionError(ZERO_DENOMINATOR_HINT)
        denom *= step
    total = start
    for u, rate in moves:
        wp = a + u + c
        num = Fraction(1)
        for j in steps:
            num *= kernel.step_weight(wp[j:j + m + 1])
        total += rate * num / denom
    return total


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
        table = table or z_table(ctx)
        return table.cyclic_window_sum(x)
    return _cycle_balance_direct(ctx, x)


def _cyclic_weight(ctx: CriterionContext, x: Word):
    n = len(x)
    kernel = ctx.law.kernel
    weight = Fraction(1)
    for j in range(n):
        window = tuple(x[(j + i) % n] for i in range(ctx.memory + 1))
        weight *= kernel.step_weight(window)
    return weight


def _cycle_balance_direct(ctx: CriterionContext, x: Word):
    inflow, exit_rate = cycle_jumps(ctx.T, x)
    weight = _cyclic_weight(ctx, x)
    total_in = sum(_cyclic_weight(ctx, w) * rate for w, rate in inflow)
    return (total_in - weight * exit_rate) / weight


def cycle_jumps(T: JumpRateMatrix, x: Word):
    """The jumps of T into and out of the cyclic word x on Z/nZ, n = len(x).

    Returns (inflow, exit_rate): inflow lists (w, rate), one entry per
    wrapped window and per move w -> x, with each source w read from the
    site after its window; exit_rate is the total rate at which x is left.
    When n < L a window covers some sites twice, and a move counts only when
    it reads and writes the same letter on every copy of a site.
    """
    x = tuple(x)
    n, L = len(x), T.range_
    moves = list(T.entries())
    inflow, exit_rate = [], Fraction(0)
    for start in range(n):
        sites = [(start + j) % n for j in range(L)]
        first = [sites.index(site) for site in sites]  # first copy of each site
        read = [(start + L + i) % n for i in range(n)]
        window = tuple(x[site] for site in sites)
        for u, v, rate in moves:
            if v == window and all(u[i] == a for i, a in zip(first, u)):
                letters = dict(zip(sites, u))
                inflow.append((tuple(letters.get(site, x[site]) for site in read), rate))
            elif u == window and all(v[i] == a for i, a in zip(first, v)):
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
    table = table or z_table(ctx)
    m, L = ctx.memory, ctx.range_
    s = ctx.window_length
    q = m + L - 1
    kernel = ctx.law.kernel
    law = ctx.law
    # chain-weight windows of x divided out by the normalization
    # (empty when n <= m: the balance is then not normalized)
    normalized = set(range(q, q + n - m)) if m else set(range(q, q + n))
    total = Fraction(0)
    for left in ctx.alphabet.words(q):
        for right in ctx.alphabet.words(q):
            full = left + x + right
            if m:
                weight = law.rho[full[:m]]
                for j in range(len(full) - m):
                    if j not in normalized:
                        weight *= kernel.step_weight(full[j:j + m + 1])
            else:
                weight = Fraction(1)
                for j in range(len(full)):
                    if j not in normalized:
                        weight *= kernel.step_weight(full[j:j + 1])
            windows = sum(table.values[full[j:j + s]] for j in range(n + L - 1))
            total += weight * windows
    return total


# ---------------------------------------------------------------------------
# window sums of all words of a length, as array gathers
# ---------------------------------------------------------------------------

def _z_array(table: LocalBalanceTable):
    """(entries, den): Z by the code of its index word (`Alphabet.encode`, the
    order of `Alphabet.words`).  Exact entries are Python-int numerators over
    one denominator; float ones are float64, or the raw values when an exact
    rate table meets a float law, so that sums mix them as `sum` does."""
    ctx = table.context
    values = [table.values[w] for w in ctx.alphabet.words(ctx.window_length)]
    den = 1
    if ctx.scalar_context.exact:
        den = math.lcm(*(Fraction(v).denominator for v in values))
        values = [int(v * den) for v in values]
    elif all(isinstance(v, float) or v == 0 for v in values):
        return np.array(values, dtype=float), den
    entries = np.empty(len(values), dtype=object)
    entries[:] = values
    return entries, den


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


def _first_nonzero_cycle(ctx: CriterionContext, array, n: int):
    """CriterionContext.first_nonzero over the cyclic words of length n and
    their wrapped window sums, from the array table (entries, den).  Words
    are scanned in lexicographic blocks: one prefix followed by all
    kappa^t <= SCAN_BLOCK suffixes."""
    entries, den = array
    kappa, t = ctx.alphabet.kappa, 0
    while t < n and kappa ** (t + 1) <= SCAN_BLOCK:
        t += 1
    suffixes = _letters(kappa, t)
    for prefix in range(kappa ** (n - t)):
        columns = list(ctx.alphabet.decode(prefix, n - t)) + suffixes
        sums = _window_sums(ctx, entries, columns, kappa ** t, cyclic=True)
        hits = np.flatnonzero(~ctx.is_zero(sums))
        if hits.size:
            total = sums[hits[0]]
            value = Fraction(total, den) if ctx.scalar_context.exact else \
                total.item() if isinstance(total, np.generic) else total
            code = prefix * kappa ** t + int(hits[0])
            return code + 1, (ctx.alphabet.decode(code, n), value)
    return kappa ** n, None


# ---------------------------------------------------------------------------
# certificates and reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PotentialCertificate:
    """Function W on words of length s-1 with Z(w) = W(suffix) - W(prefix).

    Existence of such a potential makes every window sum of Z telescope,
    which certifies invariance on the line.
    """

    values: Mapping[Word, object]

    def check(self, table: LocalBalanceTable) -> bool:
        ctx = table.context
        s = ctx.window_length
        for w, z in table.values.items():
            if not ctx.is_zero(z - (self.values[w[1:]] - self.values[w[:s - 1]])):
                return False
        return True


def potential_from_table(table: LocalBalanceTable) -> PotentialCertificate:
    """Candidate potential W(x) = sum_i Z(0^(s-i) x[1..i]).

    When the decisive cyclic checks pass this W satisfies the certificate
    identity for every index word; the identity must still be verified.
    """
    ctx = table.context
    s = ctx.window_length
    values = {}
    for x in ctx.alphabet.words(s - 1):
        acc = Fraction(0)
        for i in range(1, s):
            acc += table.values[(0,) * (s - i) + x[:i]]
        values[x] = acc
    return PotentialCertificate(values)


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


def _anchor_words(ctx: CriterionContext):
    """The decisive cyclic words a[1..s] 0^(s-1), in lexicographic order of a."""
    s = ctx.window_length
    pad = (0,) * (s - 1)
    for a in ctx.alphabet.words(s):
        yield a + pad


def check_markov_line(ctx: CriterionContext) -> CriterionReport:
    """Decide invariance of the law on the line.

    Tests the cyclic window sums of length h on the words a[1..s] 0^(s-1);
    on success builds and verifies a potential certificate, on failure
    reports the first violating word.
    """
    table = z_table(ctx)
    count, witness = ctx.first_nonzero(_anchor_words(ctx), table.cyclic_window_sum)
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
    rho = [Fraction(p) if not isinstance(p, float) else p for p in rho]
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
    array = _z_array(table)
    lengths = range(ctx.memory + 1, ctx.alphabet.kappa ** ctx.memory + 1)
    count = 0
    for top in lengths:
        checked, witness = _first_nonzero_cycle(ctx, array, top)
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


def check_markov_cycle(ctx: CriterionContext, n: int) -> CriterionReport:
    """Decide invariance of the cyclic chain law on Z/nZ (all kappa^n words)."""
    if n < 1:
        raise ValueError("cycle length must be >= 1")
    if n >= ctx.memory + ctx.range_:
        count, witness = _first_nonzero_cycle(ctx, _z_array(z_table(ctx)), n)
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
    entries, _ = array = _z_array(table)
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
    cycles = {n: _first_nonzero_cycle(ctx, array, n)[1] is None
              for n in range(ctx.memory + ctx.range_, h + 1)}
    cycle_anchor = zero(_window_sums(ctx, entries, _letters(kappa, s) + [0] * (s - 1),
                                     kappa ** s, cyclic=True))
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
        count, witness = _first_nonzero_cycle(ctx, _z_array(z_table(ctx)), 2)
        return CriterionReport(witness is None, "symmetric-pair-cycle2", witness=witness,
                               words_checked=count)
    report = check_product_line(T, rho, tol)
    return CriterionReport(report.invariant, "asymmetric-pair-line",
                           witness=report.witness, certificate=report.certificate,
                           words_checked=report.words_checked)


# ---------------------------------------------------------------------------
# support restriction and symmetrization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RestrictedInstance:
    """A rate matrix (and optionally a law) re-indexed over a closed support."""

    support: Tuple[int, ...]
    T: JumpRateMatrix
    law: Optional[StationaryLaw]
    letter_map: Mapping[int, int]


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
    sub = Alphabet(len(support)) if len(support) >= 2 else None
    rates = {}
    for src, dst, rate in T.entries():
        if set(src) <= inside and set(dst) <= inside:
            rates[(tuple(new_letter[a] for a in src), tuple(new_letter[a] for a in dst))] = rate
    if sub is None:
        # one-letter support: the only word is constant, all rates vanish
        restricted_T = None
    else:
        restricted_T = JumpRateMatrix(sub, T.range_, rates)

    law = None
    if law_or_rho is not None and sub is not None:
        kernel = law_or_rho.kernel if isinstance(law_or_rho, StationaryLaw) else law_or_rho
        if isinstance(kernel, MarkovKernel):
            m = kernel.memory
            entries = {}
            for ctx_word in itertools.product(support, repeat=m):
                total = sum(kernel.prob(ctx_word, y) for y in support)
                if total != 1:
                    raise ValueError(f"kernel row {ctx_word} leaks mass outside the support")
                for y in support:
                    entries[(tuple(new_letter[a] for a in ctx_word), new_letter[y])] = \
                        kernel.prob(ctx_word, y)
            law = stationary_distribution(MarkovKernel(sub, m, entries))
        else:
            rho = list(law_or_rho)
            mass = sum(rho[a] for a in support)
            if mass != 1 and any(rho[a] != 0 for a in range(kappa) if a not in inside):
                raise ValueError("marginal has mass outside the support")
            law = product_law([rho[a] / mass for a in support])
    return RestrictedInstance(support, restricted_T, law, new_letter)


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
    M = ctx.law.kernel
    E = ctx.alphabet.letters
    for a in E:
        for d in E:
            for b, c in itertools.product(E, repeat=2):
                for u, v in itertools.product(E, repeat=2):
                    lhs = ctx.T.rate((u, v), (b, c)) * M.prob((a,), u) * \
                        M.prob((u,), v) * M.prob((v,), d)
                    rhs = M.prob((a,), b) * M.prob((b,), c) * M.prob((c,), d) * \
                        ctx.T.rate((b, c), (u, v))
                    if not ctx.is_zero(lhs - rhs):
                        return False
    return True


def has_detailed_balance_product(T: JumpRateMatrix, rho) -> bool:
    """Sufficient condition for product invariance: pairwise detailed balance
    rho_b rho_c T[(b,c)->(u,v)] = rho_u rho_v T[(u,v)->(b,c)]."""
    if T.range_ != 2:
        raise ValueError("detailed balance helper covers range 2")
    E = range(len(rho))
    for b, c in itertools.product(E, repeat=2):
        for u, v in itertools.product(E, repeat=2):
            if rho[b] * rho[c] * T.rate((b, c), (u, v)) != \
               rho[u] * rho[v] * T.rate((u, v), (b, c)):
                return False
    return True


# ---------------------------------------------------------------------------
# advisory bounds for truncations of infinite alphabets
# ---------------------------------------------------------------------------

def tail_bounds_advisory(ctx: CriterionContext) -> dict:
    """Suprema over the truncated alphabet of the two series bounds that
    control well-posedness of the balance sums when the alphabet is infinite.
    Advisory only: a finite value over a truncation proves nothing about the
    full model and is reported as such.
    """
    m, L = ctx.memory, ctx.range_
    into = _moves_into(ctx.T)
    sup_inflow = Fraction(0)
    for a in ctx.alphabet.words(m):
        for c in ctx.alphabet.words(m):
            for b in ctx.alphabet.words(L):
                sup_inflow = max(sup_inflow, _inflow(ctx.law.kernel, into.get(b, ()),
                                                     a, b, c, Fraction(0)))
    sup_exit = max((ctx.T.out_rate(b) for b in ctx.alphabet.words(L)), default=Fraction(0))
    return {"sup_weighted_inflow": sup_inflow, "sup_exit_rate": sup_exit,
            "advisory": "computed over the finite truncation only"}
