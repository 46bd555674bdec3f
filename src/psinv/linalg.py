"""Small exact linear algebra: linear systems, stationary laws, dominant
eigenpairs.

A linear system is a list of sparse rows {column: coefficient}, absent
entries zero, whose column `cols` holds the right-hand side, and
`solve_linear` is its one solver.  The largest in scope is the length-3
cyclic balance system of `search`: 25 rows by 24 unknowns (one per rotation
orbit of the triples) at kappa = 4.  Rational rows are eliminated exactly,
by fraction-free Gauss-Jordan in integers (the exact builders hand over
Python ints): forward elimination, then one back-substitution sweep.  The
solution stays Python ints over one common denominator until a caller
needs Fractions; floats pivot above a tolerance.
Dominant eigenpairs follow the usual nonnegative-matrix theory: for an
irreducible nonnegative matrix the largest eigenvalue is simple with
positive left/right eigenvectors, normalized so that l . 1 = 1 and l . r = 1.
On rational input an integer M-matrix test decides whether that eigenvalue
is rational, and then the pair is exact; nothing is rounded or guessed.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from fractions import Fraction
from math import gcd, lcm
from typing import List, Optional, Sequence

import numpy as np

from .core import MarkovKernel, StationaryLaw
from .scalars import all_exact, over_common_denominator

_ZERO = Fraction(0)
PERRON_TOL = 1e-13  # relative convergence of the float power iteration


def _eliminate(row, pivot, c):
    """Integer row `row` with column c cleared by `pivot`: head * row - f *
    pivot (head, f their column-c entries over their gcd), over the gcd of
    its entries.  Rows are {column: int}, zeros left out."""
    g = gcd(pivot[c], row[c])
    head, f = pivot[c] // g, row[c] // g
    new = {k: a * head for k, a in row.items()}
    for k, b in pivot.items():
        new[k] = new.get(k, 0) - f * b
    g = gcd(*new.values())
    return {k: v // g for k, v in new.items() if v}


def _gauss_jordan(pending, cols):
    """Reduced row echelon form of sparse integer rows ({column: int}, zeros
    left out): (the nonzero reduced rows, their pivot columns), in column
    order.  Forward elimination clears each pivot column below its pivot
    (the pivot row with the fewest nonzeros, which limits fill-in); one
    back-substitution sweep, from the last pivot up, then clears it above.
    The reduced form is unique up to the scale of each row, so neither
    choice changes it; a row's head may come out negative."""
    done, pivots = [], []
    for c in range(cols):
        hits = [row for row in pending if c in row]
        if not hits:
            continue
        pivot = min(hits, key=len)
        pending = [_eliminate(row, pivot, c) if c in row else row
                   for row in pending if row is not pivot]
        done.append(pivot)
        pivots.append(c)
    for k in range(len(done) - 1, 0, -1):
        pivot, c = done[k], pivots[k]
        done[:k] = [_eliminate(row, pivot, c) if c in row else row for row in done[:k]]
    return done, pivots


def _rref_float(matrix, tol):
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


@dataclass(frozen=True)
class LinearSolution:
    """Affine description of the solutions of a linear system.

    status is "unique", "family" or "empty"; particular is one solution (None
    when empty); basis spans the homogeneous solutions.  Exact solutions hold
    Python ints over their least common denominator `den`, float ones None.
    """

    status: str
    particular: Optional[List]
    basis: List[List]
    den: Optional[int] = None

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def sample(self, coefficients: Sequence, den: int = 1):
        """particular + sum_k t_k basis_k; exact solutions take the t_k as
        ints over den and give ints over self.den * den."""
        x = list(self.particular) if self.den is None else [a * den for a in self.particular]
        for t, vec in zip(coefficients, self.basis):
            x = [a + t * v for a, v in zip(x, vec)]
        return x


def solve_linear(rows, cols: int, tol: float = 0.0) -> LinearSolution:
    """The affine solution set of a linear system in the unknowns 0..cols-1.

    Each row is sparse, {column: coefficient} with absent entries zero, and
    its column `cols` holds the right-hand side.  Rational rows with tol 0
    are solved exactly by Gauss-Jordan in integers: rows of Python ints as
    they are, other rational rows each times the lcm of its denominators;
    the solution is read off the reduced rows over the lcm of their pivots.
    Other rows are made dense, Fraction(0) filling the absent entries (the
    float elimination's result types and signed zeros depend on these
    operands), and reduced with partial pivoting, pivots of size <= tol
    counting as zero.
    """
    entries = [v for row in rows for v in row.values()]
    integer = all(type(v) is int for v in entries)
    exact = integer or all_exact(entries)
    if exact and tol == 0:
        if integer:
            scaled = [{c: v for c, v in row.items() if v} for row in rows]
        else:
            dens = [lcm(*(v.denominator for v in row.values())) for row in rows]
            scaled = [{c: v.numerator * (d // v.denominator) for c, v in row.items() if v}
                      for row, d in zip(rows, dens)]
        red, pivots = _gauss_jordan(scaled, cols + 1)
        # row r: head x_c + sum_f red[r][f] x_f = red[r][cols], scaled so head = den
        den = lcm(*(row[c] for row, c in zip(red, pivots)))
        red = [{k: v * (den // row[c]) for k, v in row.items()} for row, c in zip(red, pivots)]
        zero, one = 0, den

        def entry(r, c):
            return red[r].get(c, 0)
    else:
        red, pivots = _rref_float([[row.get(c, _ZERO) for c in range(cols + 1)]
                                   for row in rows], tol)
        den, zero = None, _ZERO if exact else 0.0
        one = zero + 1

        def entry(r, c):
            return red[r][c]
    if cols in pivots:
        return LinearSolution("empty", None, [])
    particular = [zero] * cols
    for r, c in enumerate(pivots):
        particular[c] = entry(r, cols)
    basis = []
    for f in sorted(set(range(cols)) - set(pivots)):
        vec = [zero] * cols
        vec[f] = one
        for r, c in enumerate(pivots):
            vec[c] = -entry(r, f)
        basis.append(vec)
    if den is not None:  # over the least common denominator
        g = gcd(den, *particular, *(v for vec in basis for v in vec))
        particular, basis = [v // g for v in particular], [[v // g for v in vec] for vec in basis]
        den //= g
    return LinearSolution("family" if basis else "unique", particular, basis, den)


def is_irreducible(A) -> bool:
    """Strong connectivity of the positive-entry digraph of a square matrix:
    (I + [A > 0])^(n-1) has no zero entry, by repeated boolean squaring."""
    size = len(A)
    reach = np.eye(size, dtype=bool) | np.array(
        [[v > 0 for v in row] for row in A], dtype=bool).reshape(size, size)
    steps = 1
    while steps < size - 1:
        reach, steps = reach @ reach, 2 * steps
    return size > 0 and bool(reach.all())


def stationary_distribution(kernel: MarkovKernel) -> StationaryLaw:
    """Unique stationary law of the sliding-block chain of a kernel.

    Solves (P^t - I) x = 0 with sum x = 1, P the block transition matrix, in
    one `solve_linear` call: exact kernels give integer rows, P's weights
    over the kernel's common denominator; other kernels give Fraction(0) +
    weight (the float elimination's result types and signed zeros depend on
    these operands) and a pivot tolerance.  Raises when the chain does not
    determine a unique stationary vector (reducible or otherwise degenerate
    kernel).
    """
    states = kernel.block_states()
    size = len(states)
    if kernel.is_exact:
        (weights, one), zero = kernel.integer_steps, 0
    else:
        weights, one, zero = [_ZERO + w for w in kernel.step_weights], 1, _ZERO
    rows = [{} for _ in range(size)]
    for i, j, w in kernel.block_moves():
        rows[j][i] = weights[w]
    for j, row in enumerate(rows):
        row[j] = row.get(j, zero) - one
    sol = solve_linear(rows + [dict.fromkeys(range(size + 1), zero + 1)], size,
                       tol=0.0 if kernel.is_exact else 1e-12)
    if sol.status != "unique":
        raise ValueError("kernel has no unique stationary law (reducible or periodic chain)")
    if any(v < 0 for v in sol.particular):
        raise ValueError("stationary vector has negative entries")
    rho = sol.particular if sol.den is None else [Fraction(v, sol.den) for v in sol.particular]
    return StationaryLaw(kernel, dict(zip(states, rho)))


@dataclass(frozen=True)
class EigenPair:
    """Dominant eigenvalue with positive left/right eigenvectors.

    Normalization: sum(left) = 1 and left . right = 1.  `exact` is True when
    the pair is rational and exact; False on rational input means that the
    dominant eigenvalue is proven irrational, and the pair is float.
    """

    value: object
    left: List
    right: List
    exact: bool


def _det_above_root(t: int, B) -> Optional[int]:
    """det(tI - B) when t >= rho(B), else None, for an irreducible nonnegative
    integer matrix B.  Then tI - B is an M-matrix: its leading principal
    minors of orders 1..n-1 are positive and its determinant is >= 0, and
    fraction-free (Bareiss) elimination gives them all in integers (Berman
    and Plemmons 1979, ch. 6; Bareiss 1968)."""
    m = [[(t if i == j else 0) - v for j, v in enumerate(row)] for i, row in enumerate(B)]
    prev = 1
    for k in range(len(m) - 1):
        if m[k][k] <= 0:
            return None
        for i in range(k + 1, len(m)):
            for j in range(k + 1, len(m)):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return m[-1][-1] if m[-1][-1] >= 0 else None


def perron_pair(A) -> EigenPair:
    """Dominant eigenpair of a nonnegative irreducible matrix.

    Rational input is decided exactly.  With den the lcm of A's denominators,
    B = den * A has a monic integer characteristic polynomial, so a rational
    root of B is an integer.  The least integer K >= rho(B) is found by the
    M-matrix test: galloping up from numpy's estimate to a passing K, then
    secant steps through the two least passing K, which never pass below
    rho(B) (bisecting while only one is known); the root is rational
    exactly when det(KI - B) = 0, and then the value K / den and its
    eigenvectors (the exact null vectors of KI - B and its transpose) are
    returned; each K is tested once.  Float input and
    proven-irrational roots take power iteration on A + I (the shift removes
    periodicity) from the all-ones vector to relative tolerance PERRON_TOL,
    then one Rayleigh refinement.
    """
    size = len(A)
    if any(len(row) != size for row in A):
        raise ValueError("matrix must be square")
    if any(v < 0 for row in A for v in row):
        raise ValueError("matrix must be nonnegative")
    if not is_irreducible(A):
        raise ValueError("matrix is reducible; dominant eigenpair not unique up to scale")

    F = np.array([[float(v) for v in row] for row in A])
    if all_exact(v for row in A for v in row):
        nums, den = over_common_denominator([v for row in A for v in row])
        B = [nums[i:i + size] for i in range(0, size * size, size)]
        det = cache(lambda t: _det_above_root(t, B))  # no K is tested twice
        hi = round(Fraction(float(max(np.linalg.eigvals(F).real))) * den)
        step = 1 + abs(hi) // 2 ** 48  # about the estimate's rounding error
        lo, above = hi - step, None  # lo < rho(B) <= hi; above: the next passing K
        while det(hi) is None:  # gallop up
            lo, hi, step = hi, hi + step, 2 * step
        if det(lo) is not None:  # two passing K, and rho(B) >= 0 > -1
            lo, hi, above = -1, lo, hi
        while hi - lo > 1 and det(hi) != 0:
            if above is None:
                k = (lo + hi) // 2
            else:
                # p(t) = det(tI - B) is increasing and convex above rho(B), so
                # the secant through (hi, p(hi)) and (above, p(above)) meets
                # zero at some t* in [rho(B), hi]: ceil(t*) passes, and when
                # that is hi itself, hi - 1 is tested
                p, q = det(hi), det(above)
                k = max(lo + 1, min(hi - p * (above - hi) // (q - p), hi - 1))
            if det(k) is None:
                lo = k
            else:
                above, hi = hi, k
        if det(hi) == 0:
            # the null vectors of KI - B and of its transpose, in integer rows
            M = [[(hi if i == j else 0) - v for j, v in enumerate(row)]
                 for i, row in enumerate(B)]
            rows = [{j: v for j, v in enumerate(row) if v} for row in M]
            cols = [{i: v for i, v in enumerate(col) if v} for col in zip(*M)]
            (right,), (left,) = solve_linear(rows, size).basis, solve_linear(cols, size).basis
            # integer null vectors, normalized (signs too): left . 1 = left . right = 1
            total, scale = sum(left), sum(l * r for l, r in zip(left, right))
            return EigenPair(Fraction(hi, den), [Fraction(v, total) for v in left],
                             [Fraction(r * total, scale) for r in right], True)

    # float path: power iteration with all-ones start on the shifted matrix
    shifted = F + np.eye(size)
    x = np.ones(size)
    y = np.ones(size)
    lam = 0.0
    for _ in range(100000):
        x_new = shifted @ x
        x_new /= np.linalg.norm(x_new)
        y_new = shifted.T @ y
        y_new /= np.linalg.norm(y_new)
        lam_new = float(x_new @ (shifted @ x_new))
        if abs(lam_new - lam) <= PERRON_TOL * max(1.0, abs(lam_new)) and \
           np.linalg.norm(x_new - x) <= PERRON_TOL * 10 and \
           np.linalg.norm(y_new - y) <= PERRON_TOL * 10:
            x, y, lam = x_new, y_new, lam_new
            break
        x, y, lam = x_new, y_new, lam_new
    # one refinement: Rayleigh quotient on the unshifted matrix
    lam_val = float(y @ (F @ x) / (y @ x))
    right = np.abs(x)
    left = np.abs(y)
    left = left / left.sum()
    right = right / float(left @ right)
    return EigenPair(lam_val, [float(v) for v in left], [float(v) for v in right], False)
