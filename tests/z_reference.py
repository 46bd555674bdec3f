"""Per-word references for the array forms of `criteria` and `segment`.

These are the dict `Z` table (one `_inflow` of `Fraction` or float products
per index word), the wrapped and linear window sums of one word, the anchor
scan of `check_markov_line`, the candidate potential and its check, and the
per-word `segment_balance` scan, as the package computed them before `Z`
became an array; and the segment boundary blocks as the package built them
before they became chain-weight arrays (one `word_weight` quotient per
block word and jump), and before their rates were read from the coded
rates (`Fraction` exit and pair rates).  The array forms must return the same exact values, word
counts and witnesses, and the same floats bit for bit.

Also the dense linear solve as the package computed it before exact
elimination became integer and sparse (`reference_rref`, and
`reference_solve` on top of it), independent of `linalg.solve_linear`; and
the stationary law as it was solved and checked before both ran on
integers: the dense `Fraction` block transition matrix, `reference_solve`
on P^T - I with a row of ones, and the `Fraction` flow loop of
`StationaryLaw`.

And the length-n cyclic balance rows of `search._cycle_system` as they
were built before their jumps were looked up by window and exact rows became
integers: every window scanned against every move, `Fraction` rows.

And the search's candidate steps as they ran on `Fraction`s before exact
solutions, samples and triple measures became Python ints over one common
denominator: the sampled family (active-set vertices and their centroid),
the triple-measure checks and the rank-one factoring; with readers of the
integer forms as `Fraction`s.

The instance generators draw invariant and perturbed rate tables, exact and
in floats, for any alphabet size, memory and range.
"""
import itertools
import math
import random
from fractions import Fraction

import numpy as np

from psinv.core import Alphabet, BoundaryRates, JumpRateMatrix, MarkovKernel
from psinv.criteria import (CriterionContext, _chain_weights, _over_one_denominator,
                             _window_sums, markov_context, z_table)
from psinv.linalg import LinearSolution
from psinv.scalars import ScalarContext, all_exact, is_exact, over_common_denominator
from psinv.search import MAX_VERTEX_DIM, TripleMeasure

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


def reference_segment_balances(ctx, beta, n):
    """`segment._segment_balances` with its boundary blocks built word by
    word: (context, balances(columns, count), den)."""
    if ctx.scalar_context.exact and not (beta.left.is_exact and beta.right.is_exact):
        ctx = CriterionContext(ctx.T.floated(), ctx.law.floated(), ctx.tol)
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
    z = z_table(ctx).values
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


def fraction_segment_balances(ctx, beta, n):
    """`segment._segment_balances` with its boundary blocks built from
    `Fraction` exit rates and per-pair `Fraction` rates, put over one
    denominator afterwards, as the package built them before they were read
    from the coded rates: (context, balances(columns, count), den)."""
    if ctx.scalar_context.exact and not (beta.left.is_exact and beta.right.is_exact):
        ctx = CriterionContext(ctx.T.floated(), ctx.law.floated(), ctx.tol)
    if not ctx.scalar_context.exact:
        beta = BoundaryRates(beta.left.floated(), beta.right.floated())
    T, exact, kappa = ctx.T, ctx.scalar_context.exact, ctx.alphabet.kappa
    pairs, codes, u = list(ctx.alphabet.words(2)), np.arange(kappa ** 3), np.arange(kappa ** 2)
    rho, blocks = [ctx.law.rho[(a,)] for a in ctx.alphabet.letters], []
    for side, end, initial, window, source in (
            (beta.left, 0, rho, codes // kappa, u[:, None] * kappa + codes % kappa),
            (beta.right, 1, None, codes % kappa ** 2, codes - codes % kappa ** 2 + u[:, None])):
        exits = [-(side.out_rate(w[end:end + 1]) + T.out_rate(w)) for w in pairs]
        amounts = [T.rate(v, w) + side.rate(v[end:end + 1], w[end:end + 1])
                   if v[1 - end] == w[1 - end] else T.rate(v, w)
                   for v, w in itertools.product(pairs, repeat=2)]
        values, scale = over_common_denominator(exits + amounts) if exact else \
            (exits + amounts, None)
        values = np.array(values, object if exact else float)
        exits = values[:len(pairs)][window]
        amounts = values[len(pairs):].reshape(len(pairs), -1)[:, window]
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


# ---------------------------------------------------------------------------
# the dense linear solve
# ---------------------------------------------------------------------------

def reference_rref(matrix, tol=0.0):
    """Reduced row echelon form and pivot columns, as the package computed
    it before exact elimination became integer and sparse: dense
    Gauss-Jordan in the entries' own arithmetic, pivoting on the largest
    absolute value.  Its float form is unchanged."""
    m = [list(row) for row in matrix]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        pivot = max(range(r, rows), key=lambda i: abs(m[i][c]))
        if abs(m[pivot][c]) <= tol or m[pivot][c] == 0:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        head = m[r][c]
        m[r] = [v / head for v in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def reference_solve(A, b, tol=0.0):
    """The solutions of the dense system A x = b, as `solve_linear` found
    them before its rows became sparse: exact input with tol 0 is reduced
    as Fractions, anything else in its own arithmetic with pivot tolerance
    tol."""
    cols = len(A[0]) if A else 0
    aug = [list(row) + [v] for row, v in zip(A, b)]
    exact = all_exact(v for row in aug for v in row)
    if exact and tol == 0:
        aug = [[Fraction(v) for v in row] for row in aug]
    red, pivots = reference_rref(aug, tol)
    if cols in pivots:
        return LinearSolution("empty", None, [])
    zero = Fraction(0) if exact else 0.0
    particular = [zero] * cols
    for r, c in enumerate(pivots):
        particular[c] = red[r][cols]
    basis = []
    for f in (c for c in range(cols) if c not in pivots):
        vec = [zero] * cols
        vec[f] = zero + 1
        for r, c in enumerate(pivots):
            vec[c] = -red[r][f]
        basis.append(vec)
    return LinearSolution("family" if basis else "unique", particular, basis)


def reference_exit_rates(rates):
    """{window: exit rate} of a rate dict as `JumpRateMatrix` summed them at
    construction before its moves became coded: exact sums, float terms
    added in the dict's order, the first one as it is."""
    exits = {}
    for (src, _), rate in rates.items():
        exits[src] = exits[src] + rate if src in exits else rate
    return exits


def fraction_solution(sol):
    """An exact `LinearSolution` (Python ints over `den`) with the Fraction
    entries it had before solutions became integer; float solutions as they
    are."""
    if sol.den is None:
        return sol
    def read(vector):
        return [Fraction(v, sol.den) for v in vector]
    return LinearSolution(sol.status, read(sol.particular), [read(v) for v in sol.basis])


# ---------------------------------------------------------------------------
# the cyclic balance rows
# ---------------------------------------------------------------------------

def reference_cycle_jumps(T, x):
    """`criteria.cycle_jumps` as it scanned every move for each window:
    (inflow, exit_rate), in the same order and from Fraction(0)."""
    x = tuple(x)
    n, L = len(x), T.range_
    moves = list(T.entries())
    if n < L:
        moves = [(u, v, rate) for u, v, rate in moves
                 if u[n:] == u[:L - n] and v[n:] == v[:L - n]]
    inflow, exit_rate = [], Fraction(0)
    for start in range(n):
        sites = [(start + j) % n for j in range(L)]
        read = [(start + L + i) % n for i in range(n)]
        window = tuple(x[site] for site in sites)
        for u, v, rate in moves:
            if v == window:
                letters = dict(zip(sites, u))
                inflow.append((tuple(letters.get(site, x[site]) for site in read), rate))
            elif u == window:
                exit_rate += rate
    return inflow, exit_rate


def reference_short_cycle_balance(ctx, x):
    """`criteria.cycle_balance` of a cyclic word shorter than m + L as it
    read the stored rates of `reference_cycle_jumps`: the chain-weighted
    inflow, minus the weight of x times its exit rate, over that weight."""
    def weight(w):
        return ctx.kernel.word_weight((w * (ctx.memory + 1))[:len(w) + ctx.memory])

    inflow, exit_rate = reference_cycle_jumps(ctx.T, x)
    total_in = sum(weight(w) * rate for w, rate in inflow)
    return (total_in - weight(x) * exit_rate) / weight(x)


def reference_cycle_rows(T, n):
    """The rows `search._cycle_system` hands to `solve_linear`, as it built
    them with Fraction(0) + rate entries: one balance row per rotation
    orbit, then the orbit-size row with right-hand side Fraction(1)."""
    keys = sorted({max(w[i:] + w[:i] for i in range(n)) for w in T.alphabet.words(n)})
    col = {k[i:] + k[:i]: j for j, k in enumerate(keys) for i in range(n)}
    rows = []
    for x in keys:
        inflow, exit_rate = reference_cycle_jumps(T, x)
        row = {}
        for w, rate in inflow:
            row[col[w]] = row.get(col[w], Fraction(0)) + rate
        row[col[x]] = row.get(col[x], Fraction(0)) - exit_rate
        rows.append(dict(sorted(row.items())))
    sizes = {j: Fraction(len({k[i:] + k[:i] for i in range(n)})) for j, k in enumerate(keys)}
    return rows + [sizes | {len(keys): Fraction(1)}]


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
    `reference_solve` (pivot tolerance 1e-12 unless the kernel is exact)."""
    states, P = reference_block_transition(kernel)
    size = len(states)
    A = [[P[j][i] - (1 if i == j else 0) for j in range(size)] for i in range(size)]
    A.append([Fraction(1)] * size)
    b = [Fraction(0)] * size + [Fraction(1)]
    exact = all_exact(p for row in P for p in row)
    sol = reference_solve(A, b, tol=0.0 if exact else 1e-12)
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


# ---------------------------------------------------------------------------
# per-word references of the deciders and the oracle
# ---------------------------------------------------------------------------

def induced_rate_cyclic(T, w, z):
    """Induced rate on Z/nZ, n = len(w): windows wrap modulo n (all n of
    them, even n < L, when a window reads some sites more than once).  The
    reference for the oracle and the cycle deciders, which apply the same
    rule as a period test on the moves."""
    w, z = tuple(w), tuple(z)
    if len(w) != len(z):
        raise ValueError("induced rate needs words of equal length")
    n = len(w)
    if n < 1:
        raise ValueError("cyclic words must have length n >= 1")
    L = T.range_
    total = Fraction(0)
    for start in range(n):
        window = [(start + j) % n for j in range(L)]
        inside = set(window)
        if all(w[j] == z[j] for j in range(n) if j not in inside):
            src = tuple(w[j] for j in window)
            dst = tuple(z[j] for j in window)
            total += T.rate(src, dst)
    return total


def cyclic_chain_weight(kernel, x):
    """Unnormalized cyclic weight: product of kernel weights of the n wrapped
    (m+1)-letter windows of x (the per-word form of `oracle.gibbs_measure`)."""
    n = len(x)
    weight = Fraction(1)
    for j in range(n):
        window = tuple(x[(j + i) % n] for i in range(kernel.memory + 1))
        weight *= kernel.step_weight(window)
    return weight


def line_balance_raw(T, law, x):
    """Direct unnormalized cylinder balance of x on the line.

    Enumerates the dependence window of x (x plus L-1 sites each side) and
    balances inflow against outflow under the stationary law; independent of
    the window-sum machinery of `criteria.line_balance`.
    """
    x = tuple(x)
    n = len(x)
    L = T.range_
    q = L - 1
    alphabet = law.alphabet
    total = Fraction(0)
    entries = list(T.entries())
    for left in alphabet.words(q):
        for right in alphabet.words(q):
            w = left + x + right
            weight = law.marginal(w)
            if weight == 0:
                continue
            for offset in range(len(w) - L + 1):
                src = w[offset:offset + L]
                for u, v, rate in entries:
                    # outflow: a jump src -> v changing some letter of x
                    if u == src:
                        z = w[:offset] + v + w[offset + L:]
                        if z[q:q + n] != x:
                            total -= weight * rate
                    # inflow: a jump u -> src restoring x from elsewhere
                    if v == src:
                        z = w[:offset] + u + w[offset + L:]
                        if z[q:q + n] != x:
                            total += law.marginal(z) * rate
    return total


# ---------------------------------------------------------------------------
# the search's candidates on Fractions
# ---------------------------------------------------------------------------

def reference_polytope_vertices(solution):
    """Vertices of {particular + B t >= 0} of a Fraction solution, as
    `search._polytope_vertices` found them: every active set solved by
    `reference_solve`, the point sampled in Fractions."""
    dim = solution.dimension
    n = len(solution.particular)
    if dim == 0:
        point = tuple(solution.particular)
        return [point] if all(v >= 0 for v in point) else []
    if dim > MAX_VERTEX_DIM:
        return []
    vertices = set()
    for active in itertools.combinations(range(n), dim):
        sol = reference_solve([[solution.basis[k][i] for k in range(dim)] for i in active],
                              [-solution.particular[i] for i in active])
        if sol.status != "unique":
            continue
        point = list(solution.particular)
        for t, vec in zip(sol.particular, solution.basis):
            point = [a + t * v for a, v in zip(point, vec)]
        if all(v >= 0 for v in point):
            vertices.add(tuple(point))
    return sorted(vertices)


def reference_family(variables, solution, columns):
    """(variables, solution, vertices, samples, fully sampled) of
    `search._family` on a Fraction solution: the vertices, then their
    centroid, in Fractions."""
    if solution.status == "empty":
        return tuple(variables), solution, (), (), True

    def expand(vector):
        return [vector[c] for c in columns]

    vertices = sorted(tuple(expand(v)) for v in reference_polytope_vertices(solution))
    samples = list(vertices)
    if len(vertices) > 1:
        k = len(vertices)
        samples.append(tuple(sum(v[i] for v in vertices) / k for i in range(len(vertices[0]))))
    fully = solution.dimension <= MAX_VERTEX_DIM
    solution = LinearSolution(solution.status, expand(solution.particular),
                              [expand(vector) for vector in solution.basis])
    if not samples and all(v >= 0 for v in solution.particular):
        samples.append(tuple(solution.particular))
    return tuple(variables), solution, tuple(vertices), tuple(samples), fully


def fraction_family(family):
    """A `search.AffineFamily` in the form of `reference_family`: exact
    solutions, vertices and samples read as Fractions over their
    denominators."""
    def read(point):
        return tuple(point) if family.den is None else \
            tuple(Fraction(v, family.den) for v in point)
    return (family.variables, fraction_solution(family.solution),
            tuple(map(read, family.vertices)), tuple(map(read, family.samples)),
            family.fully_sampled)


def triple_values(measure):
    """{word: nu(word)} of a `search.TripleMeasure`: Fractions when it is
    exact, its floats otherwise."""
    words = Alphabet(measure.kappa).words(3)
    if measure.den is None:
        return dict(zip(words, measure.weights))
    return {w: Fraction(v, measure.den) for w, v in zip(words, measure.weights)}


def exact_triple(kappa, nu):
    """The exact `TripleMeasure` of {word: rational}, over the values'
    common denominator."""
    weights, den = over_common_denominator([nu[w] for w in Alphabet(kappa).words(3)])
    return TripleMeasure(kappa, tuple(weights), den)


def reference_triple_check(kappa, nu):
    """The checks of `TripleMeasure` on {word: scalar}, as it ran them in
    the scalars' own arithmetic: raises its ValueError, else None."""
    alphabet = Alphabet(kappa)
    values = [nu[w] for w in alphabet.words(3)]
    total = sum(values)
    zero = ScalarContext(all_exact(values)).is_zero
    if any(v < 0 for v in values):
        raise ValueError("triple measure has negative entries")
    if not zero(total - 1):
        raise ValueError(f"triple measure sums to {total}, not 1")
    for a, b, c in alphabet.words(3):
        if not zero(nu[(a, b, c)] - nu[(b, c, a)]):
            raise ValueError("triple measure is not rotation invariant")


def _reference_sqrt(value):
    if is_exact(value):
        value = Fraction(value)
        rn, rd = math.isqrt(value.numerator), math.isqrt(value.denominator)
        if rn * rn == value.numerator and rd * rd == value.denominator:
            return Fraction(rn, rd)
    return float(value) ** 0.5


def reference_factor_rank_one(kappa, pair_values, tol):
    """rho with rho x rho the symmetric pair table {(u, v): scalar}, or
    None, as `search._factor_rank_one` found it in the scalars' own
    arithmetic: exact square roots where they are rational, else floats,
    and every product compared exactly when both its roots are exact."""
    exact = all(is_exact(v) for v in pair_values.values())
    rho = [_reference_sqrt(pair_values[(u, u)]) for u in range(kappa)]
    for u in range(kappa):
        for v in range(kappa):
            lhs, rhs = rho[u] * rho[v], pair_values[(u, v)]
            if exact and is_exact(lhs):
                if lhs != rhs:
                    return None
            elif not ScalarContext(False, tol).is_zero(float(lhs) - float(rhs)):
                return None
    total = sum(rho)
    return None if total == 0 else [r / total for r in rho]
