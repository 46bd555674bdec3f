"""Small exact linear algebra: solves, nullspaces, stationary laws,
dominant eigenpairs.

Matrices are plain lists of lists.  The largest in scope is the length-3
cyclic balance system of `search`: 25 rows by 24 unknowns (one per rotation
orbit of the triples) at kappa = 4.  With rational entries the elimination
is exact, in integers on sparse rows; with floats a pivot tolerance applies.
Dominant eigenpairs follow the usual nonnegative-matrix theory: for an
irreducible nonnegative matrix the largest eigenvalue is simple with
positive left/right eigenvectors, normalized so that l . 1 = 1 and l . r = 1.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import List, Optional, Sequence

import numpy as np

from .core import MarkovKernel, StationaryLaw
from .scalars import all_exact

_ZERO = Fraction(0)
_NOT_UNIQUE = "kernel has no unique stationary law (reducible or periodic chain)"


def rref(matrix, tol: float = 0.0):
    """Reduced row echelon form; returns (R, pivot_columns).

    Exact when tol is 0 and every entry is rational, with Fraction entries.
    For float input pass a positive tol and partial pivoting kicks in.
    """
    if tol == 0 and all_exact(v for row in matrix for v in row):
        return _rref_exact(matrix)
    return _rref_float(matrix, tol)


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


def _rref_exact(matrix):
    """Gauss-Jordan on sparse integer rows (each rational row times the lcm
    of its denominators), expanded back to rows of Fractions."""
    cols = len(matrix[0]) if matrix else 0
    dens = [lcm(*(v.denominator for v in row)) for row in matrix]
    done, pivots = _gauss_jordan(
        [{c: v.numerator * (d // v.denominator) for c, v in enumerate(row) if v}
         for row, d in zip(matrix, dens)], cols)
    red = [[Fraction(row[j], row[c]) if j in row else _ZERO for j in range(cols)]
           for row, c in zip(done, pivots)]
    return red + [[_ZERO] * cols for _ in range(len(matrix) - len(done))], pivots


def _gauss_jordan(pending, cols):
    """Reduced row echelon form of sparse integer rows ({column: int}, zeros
    left out): (the nonzero reduced rows, their pivot columns), in column
    order.  The reduced form is unique, so the pivot order (fewest nonzeros
    first, which limits fill-in) does not change it."""
    done, pivots = [], []
    for c in range(cols):
        hits = [row for row in pending if c in row]
        if not hits:
            continue
        pivot = min(hits, key=len)
        pending = [_eliminate(row, pivot, c) if c in row else row
                   for row in pending if row is not pivot]
        done = [_eliminate(row, pivot, c) if c in row else row for row in done] + [pivot]
        pivots.append(c)
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
    """Affine description of {x : A x = b}.

    status is "unique", "family" or "empty"; particular is one solution (None
    when empty); basis spans the homogeneous solutions.
    """

    status: str
    particular: Optional[List]
    basis: List[List]

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def sample(self, coefficients: Sequence):
        x = list(self.particular)
        for t, vec in zip(coefficients, self.basis):
            x = [a + t * v for a, v in zip(x, vec)]
        return x


def solve_linear(A, b, tol: float = 0.0) -> LinearSolution:
    """Solve A x = b, returning the full affine solution set."""
    rows = len(A)
    cols = len(A[0]) if rows else 0
    if len(b) != rows:
        raise ValueError("right-hand side length does not match the matrix")
    aug = [list(A[i]) + [b[i]] for i in range(rows)]
    exact = all_exact(v for row in aug for v in row)
    red, pivots = _rref_exact(aug) if exact and tol == 0 else _rref_float(aug, tol)
    if cols in pivots:
        return LinearSolution("empty", None, [])
    pivot_rows = {c: r for r, c in enumerate(pivots)}
    zero = _ZERO if exact else 0.0
    particular = [zero] * cols
    for c, r in pivot_rows.items():
        particular[c] = red[r][cols]
    free = [c for c in range(cols) if c not in pivot_rows]
    basis = []
    for f in free:
        vec = [zero] * cols
        vec[f] = zero + 1
        for c, r in pivot_rows.items():
            vec[c] = -red[r][f]
        basis.append(vec)
    status = "unique" if not basis else "family"
    return LinearSolution(status, particular, basis)


def nullspace(A, tol: float = 0.0) -> List[List]:
    return solve_linear(A, [_ZERO] * len(A), tol=tol).basis


def mat_vec(A, x):
    return [sum(a * v for a, v in zip(row, x)) for row in A]


def vec_mat(x, A):
    cols = len(A[0]) if A else 0
    return [sum(x[i] * A[i][c] for i in range(len(A))) for c in range(cols)]


def is_irreducible(A) -> bool:
    """Strong connectivity of the positive-entry digraph of a square matrix."""
    size = len(A)
    adj = [[j for j in range(size) if A[i][j] != 0 and A[i][j] > 0] for i in range(size)]
    radj = [[] for _ in range(size)]
    for i in range(size):
        for j in adj[i]:
            radj[j].append(i)

    def reach(start, graph):
        seen = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for v in graph[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return seen

    return len(reach(0, adj)) == size and len(reach(0, radj)) == size


def stationary_distribution(kernel: MarkovKernel) -> StationaryLaw:
    """Unique stationary law of the sliding-block chain of a kernel.

    Solves (P^t - I) x = 0 with sum x = 1, P the block transition matrix.
    Exact kernels: integer Gauss-Jordan on sparse rows over the kernel's
    common denominator.  Otherwise `solve_linear` with a pivot tolerance.
    Raises when the chain does not determine a unique stationary vector
    (reducible or otherwise degenerate kernel).
    """
    states = kernel.block_states()
    size = len(states)
    if kernel.is_exact:
        weights, den = kernel.integer_steps
        rows = [{} for _ in range(size)]
        for i, j, w in kernel.block_moves():
            rows[j][i] = weights[w]
        for j, row in enumerate(rows):
            row[j] = row.get(j, 0) - den
        rows = [{i: v for i, v in row.items() if v} for row in rows]
        done, pivots = _gauss_jordan(rows + [dict.fromkeys(range(size + 1), 1)], size + 1)
        if pivots != list(range(size)):
            raise ValueError(_NOT_UNIQUE)
        x = [Fraction(row.get(size, 0), row[c]) for row, c in zip(done, pivots)]
    else:
        # P's entries are Fraction(0) + weight, Fraction(0) where there is no
        # move: the float elimination's result types and signed zeros depend
        # on these operands
        A = [[_ZERO] * size for _ in range(size)]
        for i, j, w in kernel.block_moves():
            A[j][i] = _ZERO + kernel.step_weights[w]
        for j in range(size):
            A[j][j] = A[j][j] - 1
        sol = solve_linear(A + [[Fraction(1)] * size], [_ZERO] * size + [Fraction(1)],
                           tol=1e-12)
        if sol.status != "unique":
            raise ValueError(_NOT_UNIQUE)
        x = sol.particular
    if any(v < 0 for v in x):
        raise ValueError("stationary vector has negative entries")
    return StationaryLaw(kernel, dict(zip(states, x)))


@dataclass(frozen=True)
class EigenPair:
    """Dominant eigenvalue with positive left/right eigenvectors.

    Normalization: sum(left) = 1 and left . right = 1.  `exact` records
    whether the data was certified in rational arithmetic.
    """

    value: object
    left: List
    right: List
    exact: bool


def _positive_vector(vec):
    """Scale a nullspace vector to be strictly positive, or return None."""
    if all(v > 0 for v in vec):
        return list(vec)
    if all(v < 0 for v in vec):
        return [-v for v in vec]
    return None


def perron_pair(A, tol: float = 1e-13) -> EigenPair:
    """Dominant eigenpair of a nonnegative irreducible matrix.

    Rational input: the float eigenvalue is rounded to a nearby rational g
    and certified exactly (a nonzero nullspace of A - gI + strictly positive
    eigenvectors, which pins the dominant eigenvalue of an irreducible
    nonnegative matrix); on success everything is exact.  Otherwise: power
    iteration on A + I (the shift removes periodicity) from the all-ones
    vector to relative tolerance `tol`, then one Rayleigh refinement.
    """
    size = len(A)
    if any(len(row) != size for row in A):
        raise ValueError("matrix must be square")
    if any(v < 0 for row in A for v in row):
        raise ValueError("matrix must be nonnegative")
    if not is_irreducible(A):
        raise ValueError("matrix is reducible; dominant eigenpair not unique up to scale")

    exact_input = all_exact(v for row in A for v in row)
    F = np.array([[float(v) for v in row] for row in A])
    eigvals = np.linalg.eigvals(F)
    lam_float = float(max(eigvals.real))

    if exact_input:
        tried = set()
        for denom_cap in (10 ** 6, 10 ** 12):
            guess = Fraction(lam_float).limit_denominator(denom_cap)
            if guess in tried:
                continue
            tried.add(guess)
            shifted = [[A[i][j] - (guess if i == j else 0) for j in range(size)]
                       for i in range(size)]
            right_basis = nullspace(shifted)
            if not right_basis:
                continue  # guess is no eigenvalue
            left_basis = nullspace([list(col) for col in zip(*shifted)])
            if len(right_basis) == 1 and len(left_basis) == 1:
                right = _positive_vector(right_basis[0])
                left = _positive_vector(left_basis[0])
                if right is not None and left is not None:
                    left_sum = sum(left)
                    left = [v / left_sum for v in left]
                    scale = sum(l * r for l, r in zip(left, right))
                    right = [r / scale for r in right]
                    return EigenPair(guess, left, right, True)
            break

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
        if abs(lam_new - lam) <= tol * max(1.0, abs(lam_new)) and \
           np.linalg.norm(x_new - x) <= tol * 10 and np.linalg.norm(y_new - y) <= tol * 10:
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
