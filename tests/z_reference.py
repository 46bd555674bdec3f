"""Per-word references for the array forms of `criteria` and `segment`.

These are the dict `Z` table (one `_inflow` of `Fraction` or float products
per index word), the wrapped and linear window sums of one word, the anchor
scan of `check_markov_line`, the candidate potential and its check, and the
per-word `segment_balance` scan, as the package computed them before `Z`
became an array; and the segment boundary blocks as the package built them
before they became chain-weight arrays (one `word_weight` quotient per
block word and jump).  The array forms must return the same exact values, word
counts and witnesses, and the same floats bit for bit.

Also the stationary law as it was solved and checked before both ran on
integers: the dense `Fraction` block transition matrix, `solve_linear` on
P^T - I with a row of ones, and the `Fraction` flow loop of
`StationaryLaw`.

The instance generators draw invariant and perturbed rate tables, exact and
in floats, for any alphabet size, memory and range.
"""
import itertools
import math
import random
from fractions import Fraction

import numpy as np

from psinv.core import Alphabet, BoundaryRates, JumpRateMatrix, MarkovKernel
from psinv.criteria import CriterionContext, _window_sums, markov_context, z_table
from psinv.linalg import solve_linear
from psinv.scalars import ScalarContext, all_exact

from conftest import random_kernel, random_marginal, rational

F = Fraction


# ---------------------------------------------------------------------------
# instances
# ---------------------------------------------------------------------------

def invariant_instance(rng, kappa, memory, range_):
    """Rates preserving a product law, with the law written as a memory-m
    kernel whose rows all equal its marginal.  Pairwise detailed balance
    gives Z = 0; a drift of adjacent swaps at rates r(x, y) with
    r(x, y) - r(y, x) = P(x) - P(y) gives the nonzero, telescoping
    Z(b) = P(last letter) - P(first letter)."""
    alphabet = Alphabet(kappa)
    rho = random_marginal(rng, kappa)
    words = list(alphabet.words(range_))
    rates = {}

    def add(u, v, rate):
        if u != v and rate:
            rates[(u, v)] = rates.get((u, v), 0) + rate

    def weight(w):
        return math.prod(rho[a] for a in w)

    for _ in range(3):
        u, v = rng.sample(words, 2)
        c = rational(rng)
        add(u, v, c * weight(v))
        add(v, u, c * weight(u))
    potential = [rng.randint(0, 3) for _ in alphabet.letters]
    for w in words:
        for j in range(range_ - 1):
            x, y = w[j], w[j + 1]
            add(w, w[:j] + (y, x) + w[j + 2:], max(0, potential[x] - potential[y]))
    kernel = MarkovKernel(alphabet, memory, {(c, y): rho[y] for c in alphabet.words(memory)
                                             for y in alphabet.letters})
    return JumpRateMatrix(alphabet, range_, rates), kernel


def perturbed_instance(rng, kappa, memory, range_):
    """An invariant rate table with one more random move, under a random
    kernel (not invariant in general)."""
    T, _ = invariant_instance(rng, kappa, memory, range_)
    words = list(T.alphabet.words(range_))
    u, v = rng.sample(words, 2)
    return T.plus(JumpRateMatrix(T.alphabet, range_, {(u, v): rational(rng)})), \
        random_kernel(rng, kappa=kappa, memory=memory)


def floated(T, kernel):
    rates = {(u, v): float(rate) for u, v, rate in T.entries()}
    entries = {(c, y): float(kernel.prob(c, y)) for c in kernel.alphabet.words(kernel.memory)
               for y in kernel.alphabet.letters}
    return (JumpRateMatrix(T.alphabet, T.range_, rates),
            MarkovKernel(kernel.alphabet, kernel.memory, entries))


def instances(seed, kappa, memory, range_, mixed=False):
    """(label, context): an invariant and a perturbed instance, each exact
    and in floats; with `mixed` also exact rates under the float law."""
    rng = random.Random(f"{seed}-{kappa}-{memory}-{range_}")
    for kind, draw in (("invariant", invariant_instance), ("perturbed", perturbed_instance)):
        T, kernel = draw(rng, kappa, memory, range_)
        yield f"{kind}/exact", markov_context(T, kernel)
        float_T, float_kernel = floated(T, kernel)
        yield f"{kind}/float", markov_context(float_T, float_kernel)
        if mixed:
            yield f"{kind}/exact-rates-float-law", markov_context(T, float_kernel)


def pinned(value):
    """A scalar with its type, floats written bit for bit."""
    return value.hex() if isinstance(value, float) else (type(value).__name__, value)


def pinned_witness(witness):
    if witness is None:
        return None
    word, value = witness
    return word, pinned(value)


# ---------------------------------------------------------------------------
# the dict table and per-word window sums
# ---------------------------------------------------------------------------

def reference_z_values(ctx, start=None):
    """{index word: Z}, one `_inflow` per word; `start` replaces the
    exit-rate term (the tail bounds start every entry from 0)."""
    m, L = ctx.memory, ctx.range_
    kernel = ctx.law.kernel
    into = {}
    for u, v, rate in ctx.T.entries():
        into.setdefault(v, []).append((u, rate))
    values = {}
    for a in ctx.alphabet.words(m):
        for c in ctx.alphabet.words(m):
            for b in ctx.alphabet.words(L):
                first = -ctx.T.out_rate(b) if start is None else start
                values[a + b + c] = _inflow(kernel, into.get(b, ()), a, b, c, first)
    return values


def _inflow(kernel, moves, a, b, c, start):
    m = kernel.memory
    steps = range(m + len(b))
    w = a + b + c
    denom = Fraction(1)
    for j in steps:
        denom *= kernel.step_weight(w[j:j + m + 1])
    total = start
    for u, rate in moves:
        wp = a + u + c
        num = Fraction(1)
        for j in steps:
            num *= kernel.step_weight(wp[j:j + m + 1])
        total += rate * num / denom
    return total


def window_sum(values, s, word):
    """Sum of Z over the sliding length-s windows of a linear word."""
    return sum(values[tuple(word[i:i + s])] for i in range(len(word) - s + 1))


def cyclic_window_sum(values, s, word):
    """Sum of Z over the n wrapped length-s windows of a cyclic word."""
    n = len(word)
    return sum(values[tuple(word[(i + j) % n] for j in range(s))] for i in range(n))


# ---------------------------------------------------------------------------
# the line decider: anchor scan and potential
# ---------------------------------------------------------------------------

def reference_anchor_scan(ctx, values):
    """(words checked, witness) of the anchor words a[1..s] 0^(s-1)."""
    s = ctx.window_length
    anchors = (a + (0,) * (s - 1) for a in ctx.alphabet.words(s))
    return ctx.first_nonzero(anchors, lambda w: cyclic_window_sum(values, s, w))


def reference_potential(ctx, values):
    s = ctx.window_length
    potential = {}
    for x in ctx.alphabet.words(s - 1):
        acc = Fraction(0)
        for i in range(1, s):
            acc += values[(0,) * (s - i) + x[:i]]
        potential[x] = acc
    return potential


def reference_certificate_check(ctx, values, potential):
    s = ctx.window_length
    return all(ctx.is_zero(z - (potential[w[1:]] - potential[w[:s - 1]]))
               for w, z in values.items())


# ---------------------------------------------------------------------------
# the segment decider
# ---------------------------------------------------------------------------

def reference_segment_balance(ctx, beta, x, values):
    M = ctx.law.kernel
    rho = ctx.law.rho
    E = ctx.alphabet.letters
    T = ctx.T
    n = len(x)
    total = window_sum(values, ctx.window_length, x)
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


def reference_segment_scan(ctx, beta, n, values):
    """(words checked, witness) of check_segment: sizes n, and n + 1 when
    n >= 7, one segment balance per word."""
    sizes = [n, n + 1] if n >= 7 else [n]
    count = 0
    for size in sizes:
        checked, witness = ctx.first_nonzero(
            ctx.alphabet.words(size), lambda x: reference_segment_balance(ctx, beta, x, values))
        count += checked
        if witness is not None:
            return count, witness
    return count, None


def reference_segment_balances(ctx, beta, n, table=None):
    """`segment._segment_balances` with its boundary blocks built word by
    word: (context, balances(columns, count), den)."""
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


# ---------------------------------------------------------------------------
# the stationary law on Fraction matrices
# ---------------------------------------------------------------------------

def reference_block_transition(kernel):
    """(block states, transition matrix of the chain of length-max(m,1)
    sliding blocks), entries Fraction(0) plus the kernel weight."""
    states = kernel.block_states()
    pos = {w: i for i, w in enumerate(states)}
    size = len(states)
    mat = [[Fraction(0)] * size for _ in range(size)]
    for w in states:
        for y in kernel.alphabet.letters:
            ctx = w[len(w) - kernel.memory:] if kernel.memory else ()
            nxt = (w + (y,))[1:]
            mat[pos[w]][pos[nxt]] += kernel.prob(ctx, y)
    return states, mat


def reference_stationary(kernel):
    """{block: probability} of `stationary_distribution`, by one dense
    `solve_linear` (pivot tolerance 1e-12 unless the kernel is exact)."""
    states, P = reference_block_transition(kernel)
    size = len(states)
    A = [[P[j][i] - (1 if i == j else 0) for j in range(size)] for i in range(size)]
    A.append([Fraction(1)] * size)
    b = [Fraction(0)] * size + [Fraction(1)]
    exact = all_exact(p for row in P for p in row)
    sol = solve_linear(A, b, tol=0.0 if exact else 1e-12)
    if sol.status != "unique":
        raise ValueError("kernel has no unique stationary law (reducible or periodic chain)")
    if any(v < 0 for v in sol.particular):
        raise ValueError("stationary vector has negative entries")
    return {w: sol.particular[i] for i, w in enumerate(states)}


def reference_law_check(kernel, rho):
    """The checks of `StationaryLaw`: raises its ValueError, else None."""
    states = kernel.block_states()
    missing = [w for w in states if w not in rho]
    if missing:
        raise ValueError(f"stationary law misses blocks {missing[:3]}")
    values = [rho[w] for w in states]
    total = sum(values)
    exact = all_exact(values)
    if any(v < 0 for v in values):
        raise ValueError("stationary law has negative entries")
    if not ScalarContext(exact).is_zero(total - 1):
        raise ValueError(f"stationary law sums to {total}, not 1")
    flow_test = ScalarContext(exact and kernel.is_exact)
    _, mat = reference_block_transition(kernel)
    for j, w in enumerate(states):
        flow = sum(rho[v] * mat[i][j] for i, v in enumerate(states))
        if not flow_test.is_zero(flow - rho[w]):
            raise ValueError("rho is not invariant for the kernel")
