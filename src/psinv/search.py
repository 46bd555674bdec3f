"""Search for candidate invariant laws of a given range-2 dynamics.

Markov kernels: every positive kernel M whose chain law kills the length-3
cyclic balances gives a rotation-invariant triple measure
nu(a,b,c) = M_ab M_bc M_ca / Tr(M^3), and nu solves an explicit linear
system with one unknown per rotation orbit of the triples (25 rows by 24
unknowns at kappa = 4).  Conversely a positive solution nu determines at
most one positive recurrent kernel: the matrices N_a built from nu must
share their dominant eigenvalue, and the kernel is recovered from the
dominant eigenvectors: exactly when every N_a has a rational dominant
eigenvalue (decided exactly by `linalg.perron_pair`), else in floats.
Each recovered kernel is verified once against nu (exactly when the kernel
is exact) and then filtered by the full line-invariance criterion;
candidates that fail verification are dropped, never patched.

Product measures: a product invariant for T is invariant for its
symmetrization S, and for symmetric dynamics invariance is exactly the
vanishing of the pair balance table.  The pair balances of S are the
length-2 cyclic balances of T, so both systems come from one list of cycle
jumps.  Replacing each product rho_u rho_v by a pair unknown makes that
linear; solutions must then factor as a rank-one nonnegative symmetric
matrix, and surviving marginals are verified against the original T on its
length-3 cyclic balances.  That is the line criterion: a full-support
product is a positive memory-0 kernel, whose critical length on a range-2
table is h = 4m + 2L - 1 = 3, and its line invariance holds exactly when
every cyclic balance of length h vanishes (`equivalence_panel`'s
`cycle_zero_critical_length`).  The product of rho kills a balance row
exactly when the cyclic window sum of Z over that orbit vanishes, so no Z
table is built.

Every system takes each cyclic word's jumps from `criteria.cycle_jumps`,
on base-kappa word codes: a rotation of a code is one multiply, one modulo
and one division, and each jump's source is a code sum, its column read
from a list indexed by code.  The moves of each window come from the index
that T caches (`JumpRateMatrix.by_window`), and each length's rows are
built once per table and cached on it (`JumpRateMatrix.cycle_rows`), so
`find_markov`'s triple-measure system and its product search share the
length-3 rows.  An exact T gives rows of Python ints (its rates' numerators
over their common denominator), and from the solve to the report every
exact quantity stays Python ints over one denominator: solutions, samples,
triple measures, rank-one factors, roots; Fractions are made only for
kernels, laws and marginals that leave the search.  Float systems keep
their Fraction(0) + rate entries and order.

Families are sampled deterministically: polytope vertices (dimension <= 3)
plus their centroid, else the particular solution.  Trial marginals are kept
when their product table kills the pair balances, and marginals are verified
when their product kills the length-3 balances (on exact rows and marginals,
integer dot products with raw weights; else in floats, at the tolerance of a
float criterion context); two-colour instances solve the rank-one slice
exactly in the Bernoulli parameter.
"""
from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm
from typing import Dict, List, Mapping, Optional, Tuple

from .core import Alphabet, JumpRateMatrix, MarkovKernel, StationaryLaw, Word
from .criteria import CriterionReport, check_markov_line, cycle_jumps, markov_context
from .linalg import LinearSolution, perron_pair, solve_linear, stationary_distribution
from .scalars import (DEFAULT_TOL, ScalarContext, all_exact, is_exact, over_common_denominator,
                      scalar_repr)

# largest family dimension whose polytope vertices are enumerated
MAX_VERTEX_DIM = 3


@dataclass(frozen=True)
class TripleMeasure:
    """Rotation-invariant probability measure on three-letter words, by word
    code (`Alphabet.words(3)` order): Python-int weights over `den` when
    exact, floats when den is None."""

    kappa: int
    weights: Tuple
    den: Optional[int] = None

    def __post_init__(self):
        values, den, square = self.weights, self.den, Alphabet(self.kappa).kappa ** 2
        if len(values) != square * self.kappa:
            raise ValueError("triple measure needs one weight per three-letter word")
        zero = ScalarContext(den is not None or all_exact(values)).is_zero
        if any(v < 0 for v in values):
            raise ValueError("triple measure has negative entries")
        total = sum(values)
        if not zero(total - (1 if den is None else den)):
            raise ValueError(f"triple measure sums to "
                             f"{total if den is None else Fraction(total, den)}, not 1")
        # the word a b c has code c0 = a kappa^2 + (b c), b c a has (b c) kappa + a
        if not all(zero(v - values[c0 % square * self.kappa + c0 // square])
                   for c0, v in enumerate(values)):
            raise ValueError("triple measure is not rotation invariant")

    @property
    def is_positive(self) -> bool:
        return all(v > 0 for v in self.weights)


def triple_from_kernel(kernel: MarkovKernel) -> TripleMeasure:
    """The cyclic length-3 weights M_ab M_bc M_ca of a kernel (of the least
    rotation a b c of each word; integers when exact), trace-normalized."""
    if kernel.memory != 1:
        raise ValueError("triple measures are built from memory-1 kernels")
    kappa = kernel.alphabet.kappa
    steps, square = kernel.integer_steps[0] if kernel.is_exact else kernel.step_weights, kappa ** 2
    codes = range(square * kappa)
    turn = [c % square * kappa + c // square for c in codes]  # a b c -> b c a
    raw = [steps[c // kappa] * steps[c % square] * steps[c % kappa * kappa + c // square]
           for c in (min(c, turn[c], turn[turn[c]]) for c in codes)]
    trace = sum(raw)
    if not trace:
        raise ZeroDivisionError("the kernel has no cycle of length 3")
    if kernel.is_exact:
        return TripleMeasure(kappa, tuple(raw), trace)
    return TripleMeasure(kappa, tuple(v / trace for v in raw))


# ---------------------------------------------------------------------------
# the linear system on triple measures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AffineFamily:
    """Solutions of a linear system restricted to the probability simplex.
    Exact vertices and samples are Python ints over the one denominator
    `den`; float ones are floats (den None)."""

    variables: Tuple[Word, ...]
    solution: LinearSolution
    vertices: Tuple[Tuple, ...]
    samples: Tuple[Tuple, ...]
    den: Optional[int] = None


def _trial_marginals(kappa: int):
    """Small deterministic battery of full-support marginals, as positive
    integer weights (the marginal is each weight over their sum)."""
    return [[1] * kappa,
            list(range(1, kappa + 1)),
            list(range(kappa, 0, -1)),
            [1] * (kappa - 1) + [kappa + 1]]


def _kills_balances(rows, balances: ScalarContext, values) -> bool:
    """Whether weights on the orbits, in row order, kill every balance row of
    a cycle system: for a positive multiple of a product table, which is
    rotation-invariant, this is membership of the normalized table in the
    system's family.  Integer rows and weights make each test one integer
    dot product."""
    return all(balances.is_zero(sum(r * values[c] for c, r in row.items()))
               for row in rows.values())


def _family(variables, solution: LinearSolution, columns) -> AffineFamily:
    """The family of a solution in which variable i reads column columns[i]:
    the vertices of {particular + B t >= 0} by exact active-set enumeration
    (dimension <= MAX_VERTEX_DIM) and their centroid, else the particular
    solution if nonnegative; exact ones as ints over one denominator."""
    if solution.status == "empty":
        return AffineFamily(tuple(variables), solution, (), ())
    dim, n = solution.dimension, len(solution.particular)
    # coordinate i vanishes: sum_k basis[k][i] t_k = -particular[i], a row
    # over t (integer rows when exact), built only to enumerate the vertices
    rows = [dict(enumerate([solution.basis[k][i] for k in range(dim)] + [-solution.particular[i]]))
            for i in range(n)] if 0 < dim <= MAX_VERTEX_DIM else None
    exact, found = solution.den is not None, set()
    for active in itertools.combinations(range(n), dim) if rows else ():
        sol = solve_linear([rows[i] for i in active], dim)
        if sol.status == "unique":
            t, d = sol.particular, sol.den or 1
            if not exact and sol.den:  # a float family's exact active rows (mixed tables)
                t, d = [Fraction(v, d) for v in t], 1
            point = solution.sample(t, d)
            if all(v >= 0 for v in point):  # t is unique, and so its reduced form
                found.add((tuple(point[c] for c in columns), d))
    if dim == 0 and all(v >= 0 for v in solution.particular):
        found.add((tuple(solution.particular[c] for c in columns), 1))
    common = lcm(*(d for _, d in found))  # 1 in a float family
    vertices = sorted(tuple(v * (common // d) for v in p) for p, d in found)
    den = solution.den and solution.den * common
    samples, k = list(vertices), len(vertices)
    if k > 1:
        sums = [sum(v[i] for v in vertices) for i in range(len(vertices[0]))]
        if den is None:
            samples.append(tuple(x / k for x in sums))
        else:  # the vertices over k den, then their centroid
            vertices = [tuple(x * k for x in v) for v in vertices]
            samples, den = vertices + [tuple(sums)], den * k
    solution = LinearSolution(solution.status, [solution.particular[c] for c in columns],
                              [[vector[c] for c in columns] for vector in solution.basis],
                              solution.den)
    if not samples and all(v >= 0 for v in solution.particular):
        samples.append(tuple(solution.particular))
    return AffineFamily(tuple(variables), solution, tuple(vertices), tuple(samples), den)


def _cycle_rows(T: JumpRateMatrix, n: int):
    """The length-n cyclic balances of T, {largest rotation: {column:
    coefficient}} with one row per rotation orbit, in ascending order of the
    key (the column order) and of the columns; and the column of every word,
    by code.  An exact T gives Python-int rows over the rates' common
    denominator, a float T rows that add its rates from Fraction(0)
    (`cycle_jumps`).  Built once per table and length (`T.cycle_rows`)."""
    if n in T.cycle_rows:
        return T.cycle_rows[n]
    kappa, zero = T.alphabet.kappa, T.by_window[2]
    size, top = kappa ** n, kappa ** (n - 1)
    keys, col = [], [0] * size
    for code in range(size):  # in ascending order, so the keys come sorted
        turns = [code]
        for _ in range(n - 1):
            turns.append(turns[-1] * kappa % size + turns[-1] // top)
        if code == max(turns):
            for turn in turns:
                col[turn] = len(keys)
            keys.append(code)
    words = list(T.alphabet.words(n))
    rows: Dict[Word, Dict[int, object]] = {}
    for j, x in enumerate(keys):
        inflow, exit_rate = cycle_jumps(T, x, n)
        row: Dict[int, object] = {}
        for w, rate in inflow:
            c = col[w]
            row[c] = row.get(c, zero) + rate
        row[j] = row.get(j, zero) - exit_rate
        rows[words[x]] = dict(sorted(row.items()))
    T.cycle_rows[n] = rows, col
    return T.cycle_rows[n]


def _cycle_system(T: JumpRateMatrix, n: int, tol: float = DEFAULT_TOL):
    """The length-n cyclic balances of T (`_cycle_rows`), the family of
    rotation-invariant probability vectors on the words of length n they
    kill, and the zero test of those balances (tolerance tol): float systems
    pivot above it, so that rounding noise does not decide their rank.

    The unknowns are one weight per rotation orbit, in the order of the
    rows.  In that order the reduced form frees the same columns as the
    word system with every rotation tied, and expands to that system's.
    One more row, with right-hand side 1, weighs each orbit by its size.  An
    exact T gives Python-int rows: the balances over the rates' common
    denominator (a homogeneous row keeps its solutions when scaled), the
    sizes as ints; float rows add their rates from Fraction(0)."""
    balances = ScalarContext.for_balances(T, True, tol)
    rows, col = _cycle_rows(T, n)
    number = int if balances.exact else Fraction
    sizes = {j: number(len({k[i:] + k[:i] for i in range(n)})) for j, k in enumerate(rows)}
    pivot = 0.0 if balances.exact else balances.tol * balances.scale
    solution = solve_linear([*rows.values(), sizes | {len(rows): number(1)}], len(rows), pivot)
    return rows, _family(list(T.alphabet.words(n)), solution, col), balances


def solve_cycle3_system(T: JumpRateMatrix, tol: float = DEFAULT_TOL) -> AffineFamily:
    """All rotation-invariant probability triple measures killing the
    length-3 cyclic balances of T (a linear system; possibly empty)."""
    if T.range_ != 2:
        raise ValueError("the triple-measure system needs range 2")
    return _cycle_system(T, 3, tol)[1]


# ---------------------------------------------------------------------------
# kernel reconstruction from a triple measure
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Candidate:
    kernel: MarkovKernel
    law: StationaryLaw
    line_report: Optional[CriterionReport] = None
    provenance: str = ""

    @property
    def exact(self) -> bool:
        return self.kernel.is_exact


@dataclass(frozen=True)
class CandidateSet:
    candidates: Tuple[Candidate, ...]
    notes: Tuple[str, ...] = ()


def candidate_kernels(nu: TripleMeasure, tol: float = DEFAULT_TOL) -> CandidateSet:
    """Reconstruct the unique kernel compatible with a positive triple
    measure, when it exists.

    Builds the ratio matrices N_a = [nu(a,x,y) / nu(a,x,a)], whose dominant
    eigenvalues must satisfy nu(a,a,a) * lambda_a^3 all equal (this sidesteps
    cube roots: the common value is the needed lambda^3).  The kernel then
    comes from rho_a M_ab = sum_x nu(a,b,x) r_a(x) / lambda^3: on nu's
    integer weights when nu is exact and every dominant eigenvalue rational
    (a row's common factor cancels), kept if its triple measure is nu by
    cross-multiplication.  Else no rational kernel reproduces nu: a float
    kernel is kept if it reproduces nu within tol, relative to nu.
    """
    if not nu.is_positive:
        return CandidateSet((), ("triple measure not strictly positive; skipped",))
    kappa, weights, den = nu.kappa, nu.weights, nu.den
    E, square = range(kappa), kappa * kappa
    ratio = Fraction if den is not None else operator.truediv
    pairs = [perron_pair([[ratio(weights[a * square + x * kappa + y],
                                 weights[a * square + x * kappa + a]) for y in E] for x in E])
             for a in E]
    exact = den is not None and all(p.exact for p in pairs)
    if exact:
        # nu(a,a,a) lambda_a^3 as (numerator, denominator), nu's den cancelling
        lam3 = [(weights[a * (square + kappa + 1)] * p.value.numerator ** 3,
                 p.value.denominator ** 3) for a, p in zip(E, pairs)]
        equal = all(n * lam3[0][1] == lam3[0][0] * d for n, d in lam3)
        rights = [over_common_denominator(p.right)[0] for p in pairs]
        joint = [[sum(weights[a * square + b * kappa + x] * rights[a][x] for x in E)
                  for b in E] for a in E]
    else:
        value = weights.__getitem__ if den is None else (lambda c: Fraction(weights[c], den))
        lam3 = [value(a * (square + kappa + 1)) * pairs[a].value ** 3 for a in E]
        zero = ScalarContext(False, tol, abs(float(lam3[0])) or 1.0).is_zero
        equal = all(zero(float(v) - float(lam3[0])) for v in lam3)
        joint = equal and [[sum(value(a * square + b * kappa + x) * pairs[a].right[x]
                                for x in E) / lam3[0] for b in E] for a in E]
    if not equal:
        return CandidateSet((), ("ratio matrices have distinct dominant eigenvalues",))
    rho = [sum(row) for row in joint]
    if any(r <= 0 for r in rho):
        return CandidateSet((), ("reconstructed joint law not positive",))
    if exact:
        kernel = MarkovKernel.from_matrix([[Fraction(v, r) for v in row]
                                           for row, r in zip(joint, rho)])
        rebuilt = triple_from_kernel(kernel)
        verified = all(v * den == w * rebuilt.den for v, w in zip(rebuilt.weights, weights))
    else:
        rows = [[float(v / r) for v in row] for row, r in zip(joint, rho)]
        kernel = MarkovKernel.from_matrix([[v / sum(row) for v in row] for row in rows])
        test = ScalarContext(False, tol, 1 if den is not None else max(1, *map(abs, weights)))
        verified = all(test.is_zero(v - value(c))
                       for c, v in enumerate(triple_from_kernel(kernel).weights))
    if not verified:
        return CandidateSet((), (f"candidate failed {'exact' if exact else 'float'} verification",))
    notes = () if exact else ("numeric candidate (no exact certificate)",)
    return CandidateSet((Candidate(kernel, stationary_distribution(kernel)),), notes)


@dataclass(frozen=True)
class MarkovSearchReport:
    """Certified candidates reproduce their triple measure exactly and are
    exact members of the length-3 solution set; numeric candidates only
    passed float verification and are kept apart, flagged, never merged."""

    family: AffineFamily
    candidates: Tuple[Candidate, ...]
    numeric_candidates: Tuple[Candidate, ...]
    all_kernels: bool
    notes: Tuple[str, ...] = ()


def find_markov(T: JumpRateMatrix, tol: float = DEFAULT_TOL) -> MarkovSearchReport:
    """Candidate invariant Markov kernels for T.

    Solves the triple-measure system and reconstructs kernels from the
    sampled positive solutions; invariant product measures found by the
    product search are included as constant-row kernels (products are the
    memory-0 laws).  Every candidate is filtered through the full line
    criterion; the per-candidate report distinguishes membership in the
    length-3 solution set from full invariance.
    """
    family = solve_cycle3_system(T, tol)
    if T.is_zero:
        return MarkovSearchReport(family, (), (), True,
                                  ("zero dynamics: every positive kernel is invariant",))
    seen = []
    exact_found: List[Candidate] = []
    numeric_found: List[Candidate] = []
    notes: List[str] = []
    if family.solution.dimension > MAX_VERTEX_DIM:
        notes.append(f"solution family has dimension > {MAX_VERTEX_DIM}; "
                     "only sampled points explored")

    def admit(law: StationaryLaw, provenance: str, report: Optional[CriterionReport] = None):
        matrix = law.kernel.matrix()
        if matrix in seen:
            return
        seen.append(matrix)
        report = report or check_markov_line(markov_context(T, law, tol))
        cand = Candidate(law.kernel, law, report, provenance)
        (exact_found if cand.exact else numeric_found).append(cand)

    for point in family.samples:
        try:
            nu = TripleMeasure(T.alphabet.kappa, point, family.den)
        except ValueError:
            continue
        if not nu.is_positive:
            continue
        result = candidate_kernels(nu, tol)
        notes.extend(result.notes)
        for cand in result.candidates:
            admit(cand.law, "triple-measure sample")

    products = find_product(T, tol)
    for rho, report in products.candidates:
        law = StationaryLaw(MarkovKernel.from_matrix([list(rho) for _ in rho]),
                            {(a,): p for a, p in enumerate(rho)})
        admit(law, "invariant product", report)
    if products.bernoulli_all:
        notes.append("every Bernoulli product is invariant; the constant-row "
                     "kernels form a one-parameter family (samples listed)")
    return MarkovSearchReport(family, tuple(exact_found), tuple(numeric_found),
                              False, tuple(notes))


# ---------------------------------------------------------------------------
# product-measure search
# ---------------------------------------------------------------------------

def _sqrt_exact(value):
    """Square root of a nonnegative scalar: a Fraction when rational, else a float."""
    if is_exact(value):
        num, den = Fraction(value).as_integer_ratio()
        rn, rd = isqrt(num), isqrt(den)
        if rn * rn == num and rd * rd == den:
            return Fraction(rn, rd)
    return float(value) ** 0.5


def _factor_rank_one(kappa: int, values, den: Optional[int], tol: float):
    """Factor a symmetric pair table (by pair code) as rho x rho: (weights,
    den) with rho = weights / den, or None.  Exact tables (ints over den)
    with square N_uu den take s_u = isqrt(N_uu den), s_u s_v = N_uv den; a
    float table or a non-square diagonal falls back to floats (den None)."""
    diagonal = range(0, kappa * kappa, kappa + 1)
    if den is not None:
        roots = [isqrt(values[c] * den) for c in diagonal]
        if all(r * r == values[c] * den for r, c in zip(roots, diagonal)):
            rank_one = all(roots[c // kappa] * roots[c % kappa] == v * den
                           for c, v in enumerate(values))
            return (roots, sum(roots)) if rank_one and sum(roots) else None
        values = [Fraction(v, den) for v in values]
    exact = all(is_exact(v) for v in values)
    rho = [_sqrt_exact(values[c]) for c in diagonal]
    for u in range(kappa):
        for v in range(kappa):
            lhs, rhs = rho[u] * rho[v], values[u * kappa + v]
            if lhs != rhs if exact and is_exact(lhs) else \
                    not ScalarContext(False, tol).is_zero(float(lhs) - float(rhs)):
                return None
    total = sum(rho)
    return ([r / total for r in rho], None) if total != 0 else None


@dataclass(frozen=True)
class ProductSearchReport:
    family: AffineFamily
    candidates: Tuple[Tuple[Tuple, CriterionReport], ...]
    bernoulli_all: bool
    bernoulli_roots: Tuple = ()
    notes: Tuple[str, ...] = ()


# rho_u rho_v as a polynomial in p (increasing degree) for rho = (1 - p, p)
_PAIR_POLYNOMIALS = {(0, 0): (1, -2, 1), (0, 1): (0, 1, -1), (1, 0): (0, 1, -1),
                     (1, 1): (0, 0, 1)}


def _integer_coefficients(poly):
    """Rational (or float, read exactly) coefficients over their common denominator."""
    ratios = [c.as_integer_ratio() for c in poly]
    den = lcm(*(d for _, d in ratios))
    return [n * (den // d) for n, d in ratios]


def _rational_roots(poly):
    """Rational roots in (0, 1) of a polynomial of degree <= 2 with integer
    coefficients (increasing degree), by the linear or quadratic formula."""
    poly = list(poly)
    while poly and poly[-1] == 0:
        poly.pop()
    if len(poly) > 3:
        raise ValueError("root finder covers degree <= 2")
    if len(poly) < 2:
        return []
    if len(poly) == 2:
        roots = [(-poly[0], poly[1])]
    else:
        c, b, a = poly
        disc = b * b - 4 * a * c
        root = isqrt(disc) if disc >= 0 else None
        if root is None or root * root != disc:
            return []
        roots = [(-b + root, 2 * a), (-b - root, 2 * a)]
    # n / d lies in (0, 1) exactly when 0 < n d < d^2
    return sorted({Fraction(n, d) for n, d in roots if 0 < n * d < d * d})


def _kills_cycles3(T: JumpRateMatrix, rows, weights, den: Optional[int],
                   tol: float = DEFAULT_TOL) -> bool:
    """Whether the product of the full-support marginal weights / den (float
    or mixed weights when den is None) kills the length-3 cyclic balance
    rows of T (`_cycle_rows`, Python ints over the rates' common denominator
    when T is exact).  An exact T and marginal make each orbit one integer
    dot product on the raw weights.  Otherwise the test is in floats: an
    orbit's balance over its own weight is the cyclic window sum of Z, tested
    at the scale of a float criterion context."""
    keys = list(rows)
    if T.is_exact and den is not None:
        return _kills_balances(rows, ScalarContext(), [weights[a] * weights[b] * weights[c]
                                                       for a, b, c in keys])
    rho = [float(v) if den is None else v / den for v in weights]
    values = [rho[a] * rho[b] * rho[c] for a, b, c in keys]
    unit = T.coded.den if T.is_exact else 1  # exact rows are numerators over it
    zero = ScalarContext.for_balances(T, False, tol).is_zero
    return all(zero(sum(r / unit * values[c] for c, r in row.items()) / values[j])
               for j, row in enumerate(rows.values()))


def find_product(T: JumpRateMatrix, tol: float = DEFAULT_TOL) -> ProductSearchReport:
    """Product measures invariant for T.

    Solve the linearized pair system (the length-2 cyclic balances of T),
    factor samples as rank-one tables, and verify every emitted marginal
    against T itself, on its length-3 cyclic balances (the line criterion of
    a memory-0 law; the rows are built for the first marginal to decide).
    For two colours the rank-one slice is resolved exactly in the Bernoulli
    parameter: either every parameter works, or the finitely many rational
    roots are extracted and verified.
    """
    if T.range_ != 2:
        raise ValueError("product search needs range 2")
    kappa = T.alphabet.kappa
    rows, family, balances = _cycle_system(T, 2, tol)

    candidates: List[Tuple[Tuple, CriterionReport]] = []
    notes: List[str] = []
    seen = set()

    def consider(weights, den=None):
        # a marginal weights / den, or floats; seen by value, so that a float
        # marginal and an equal exact one count once
        rho = tuple(weights) if den is None else tuple(Fraction(v, den) for v in weights)
        if rho in seen:
            return
        seen.add(rho)
        if all(p > 0 for p in rho):
            if _kills_cycles3(T, _cycle_rows(T, 3)[0], weights, den, tol):
                # the report check_markov_cycle gives on the product's context
                candidates.append((rho, CriterionReport(True, "cycle-3",
                                                        words_checked=kappa ** 3)))
        else:
            notes.append(f"sample ({', '.join(map(scalar_repr, rho))}) lacks full support; "
                         "verify through restrict_support on its support")

    for point in family.samples:
        factor = _factor_rank_one(kappa, point, family.den, tol)
        if factor is not None:
            consider(*factor)

    for raw in _trial_marginals(kappa):
        # exact rows are tested on the raw weights: a pair (u, v) weighs raw_u raw_v
        weights = raw if balances.exact else [Fraction(v, sum(raw)) for v in raw]
        if _kills_balances(rows, balances, [weights[u] * weights[v] for u, v in rows]):
            consider(raw, sum(raw))

    bernoulli_all = False
    roots: Tuple = ()
    if kappa == 2:
        # each pair-balance row as a polynomial in p, where rho = (1 - p, p);
        # the outflow of the row's own orbit comes first in every float sum
        keys = list(rows)
        polys = [[sum((r * _PAIR_POLYNOMIALS[keys[c]][d] for c, r in row.items() if c != k),
                      row[k] * _PAIR_POLYNOMIALS[w][d]) for d in range(3)]
                 for k, (w, row) in enumerate(rows.items())]
        live = [_integer_coefficients(p) for p in polys if any(c != 0 for c in p)]
        if not live:
            bernoulli_all = True
            for p in (1, 2, 3):
                consider((4 - p, p), 4)
        else:
            # p = n / q is a root of c0 + c1 p + c2 p^2 when c0 q^2 + c1 n q + c2 n^2 = 0
            roots = tuple(p for p in _rational_roots(live[0])
                          if all(sum(c * p.numerator ** d * p.denominator ** (2 - d)
                                     for d, c in enumerate(poly)) == 0 for poly in live[1:]))
            for p in roots:
                consider((p.denominator - p.numerator, p.numerator), p.denominator)
    if T.is_zero:
        notes.append("zero dynamics: every product measure is invariant")
    return ProductSearchReport(family, tuple(candidates), bernoulli_all, roots, tuple(notes))


# ---------------------------------------------------------------------------
# kernels from ratio tables
# ---------------------------------------------------------------------------

def ratio_table(kernel: MarkovKernel) -> Dict[Tuple[Word, Word], object]:
    """The full table F[(a,u,v,d),(b,c)] = weight(a u v d) / weight(a b c d)
    of three-step weight ratios of a positive memory-1 kernel."""
    if kernel.memory != 1 or not kernel.is_positive:
        raise ValueError("ratio tables need a positive memory-1 kernel")
    E = kernel.alphabet.letters

    def weight(a, x, y, d):
        return kernel.prob((a,), x) * kernel.prob((x,), y) * kernel.prob((y,), d)

    table = {}
    for a, u, v, d in itertools.product(E, repeat=4):
        for b, c in itertools.product(E, repeat=2):
            table[((a, u, v, d), (b, c))] = weight(a, u, v, d) / weight(a, b, c, d)
    return table


def kernel_from_ratios(F: Mapping[Tuple[Word, Word], object], kappa: int,
                       tol: float = DEFAULT_TOL) -> MarkovKernel:
    """Reconstruct the unique positive recurrent kernel with ratio table F.

    The reduced ratios C[b][c] = F[(0,b,c,0),(0,0)] / F[(0,b,0,0),(0,0)]
    equal M_bc M_c0 / (M_b0 M_00), so M is the stochastic rescaling of C by
    its dominant eigenpair; positivity of the eigenvector makes it unique.
    The full table is then re-verified entry by entry; any mismatch raises
    with the offending index (inconsistent tables name no kernel at all).
    """
    E = range(kappa)
    exact_table = all(is_exact(x) for x in F.values())
    for key, value in F.items():
        if value <= 0:
            raise ValueError(f"ratio table must be positive; offending entry {key}")
    unit_test = ScalarContext(exact_table, tol)
    for w in itertools.product(E, repeat=4):
        a, b, c, d = w
        unit = F[((a, b, c, d), (b, c))]
        if not unit_test.is_zero(unit - 1 if exact_table else float(unit) - 1):
            raise ValueError(f"ratio of a word with itself must be 1 at {w}")
    C = [[F[((0, b, c, 0), (0, 0))] / F[((0, b, 0, 0), (0, 0))] for c in E] for b in E]
    pair = perron_pair(C)
    v = pair.right
    M = [[C[b][c] * v[c] / (pair.value * v[b]) for c in E] for b in E]
    kernel = MarkovKernel.from_matrix(M if pair.exact else
                                      [[x / sum(row) for x in row] for row in M])
    rebuilt = ratio_table(kernel)
    exact = kernel.is_exact and all(is_exact(x) for x in F.values())
    for key, value in F.items():
        # float entries are compared relative to their size
        test = ScalarContext(exact, tol, 1.0 if exact else max(1.0, abs(float(value))))
        if not test.is_zero(rebuilt[key] - value if exact else
                            float(rebuilt[key]) - float(value)):
            raise ValueError(f"ratio table is inconsistent at {key}: "
                             f"{value} vs {rebuilt[key]} from the reconstruction")
    return kernel
