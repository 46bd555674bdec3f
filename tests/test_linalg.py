import math
import random
from fractions import Fraction

import numpy as np
import pytest

from psinv import models
from psinv import linalg
from psinv.core import Alphabet, MarkovKernel, StationaryLaw
from psinv.linalg import perron_pair, solve_linear, stationary_distribution
from psinv.search import _sqrt_exact, triple_from_kernel

from test_golden import MODELS
from test_search import RANGE2_MODELS, as_float, cycle_systems
from conftest import random_kernel
from z_reference import (fraction_solution, invariant_instance, perturbed_instance, pinned,
                         reference_law_check, reference_rref, reference_solve, reference_stationary,
                         triple_values)

F = Fraction


def mat_vec(A, x):
    return [sum(a * v for a, v in zip(row, x)) for row in A]


def vec_mat(x, A):
    cols = len(A[0]) if A else 0
    return [sum(x[i] * A[i][c] for i in range(len(A))) for c in range(cols)]


def sparse(matrix, keep_zeros=False):
    """The rows {column: entry} of a dense augmented matrix (its last column
    the right-hand side), zero entries left out unless keep_zeros."""
    return [{c: v for c, v in enumerate(row) if keep_zeros or v != 0} for row in matrix]


def dense(rows, cols):
    """(A, b) of sparse rows over cols unknowns, Fraction(0) filling the
    absent entries, as `solve_linear` fills them for its float path."""
    full = [[row.get(c, F(0)) for c in range(cols + 1)] for row in rows]
    return [row[:cols] for row in full], [row[cols] for row in full]


def pinned_solution(sol):
    """Status, particular solution and basis, every entry with its type and
    floats bit for bit."""
    def pin(vector):
        return None if vector is None else [pinned(v) for v in vector]
    sol = fraction_solution(sol)
    return sol.status, pin(sol.particular), [pin(v) for v in sol.basis]


def assert_matches_reference(rows, cols, tol=0.0):
    """`solve_linear` on sparse rows against the dense reference solve of
    the same system: exact entries are Fractions equal by value, floats
    equal bit for bit."""
    sol = solve_linear(rows, cols, tol)
    assert pinned_solution(sol) == pinned_solution(reference_solve(*dense(rows, cols), tol))
    return sol


def assert_matrix_matches_reference(matrix, tol=0.0):
    """A dense augmented matrix as sparse rows, with and without its zero
    entries: the same solutions as the reference on the dense form."""
    cols = len(matrix[0]) - 1 if matrix else 0
    for keep_zeros in (False, True):
        assert_matches_reference(sparse(matrix, keep_zeros), cols, tol)


def random_entry(rng, digits, density=0.6):
    if rng.random() > density:
        return F(0)
    top = 10 ** digits - 1
    return F(rng.randint(-top, top), rng.randint(1, top))


def random_matrix(rng, rows, cols, digits, rank=None):
    """A rows x cols matrix of `digits`-digit rationals; with `rank`, a
    product of rows x rank and rank x cols factors."""
    if rank is None:
        return [[random_entry(rng, digits) for _ in range(cols)] for _ in range(rows)]
    left = random_matrix(rng, rows, rank, digits)
    right = random_matrix(rng, rank, cols, digits)
    return [[sum((a * b for a, b in zip(row, col)), F(0)) for col in zip(*right)]
            for row in left]


class TestSolveLinear:
    def test_identity_unique(self):
        sol = solve_linear([{0: F(1), 3: F(1)}, {1: F(1), 3: F(2)}, {2: F(1), 3: F(3)}], 3)
        assert sol.status == "unique"
        assert sol.particular == [1, 2, 3]

    def test_zero_matrix_family(self):
        sol = solve_linear([{0: F(0), 1: F(0)}, {}], 2)
        assert sol.status == "family"
        assert sol.dimension == 2

    def test_inconsistent_empty(self):
        sol = solve_linear([{0: F(1), 1: F(1), 2: F(1)}, {0: F(2), 1: F(2), 2: F(3)}], 2)
        assert sol.status == "empty"

    def test_residual_zero_on_samples(self, rng):
        for _ in range(20):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 4)
            A = [[F(rng.randint(-3, 3)) for _ in range(cols)] for _ in range(rows)]
            x = [F(rng.randint(-3, 3)) for _ in range(cols)]
            b = mat_vec(A, x)
            sol = fraction_solution(solve_linear(sparse([row + [v] for row, v in zip(A, b)]), cols))
            assert sol.status != "empty"
            assert mat_vec(A, sol.particular) == b
            for vec in sol.basis:
                assert mat_vec(A, vec) == [F(0)] * rows


class TestSparseRows:
    """Sparse input forms: explicit zeros, key order, empty rows, rows with
    only a right-hand side, and systems without rows or unknowns; exact
    systems agree with the dense reference by value, float systems bit for
    bit."""

    SYSTEMS = [(5, 4), (3, 6), (6, 2), (2, 1)]

    def systems(self, seed):
        """Seeded augmented matrices, exact and in floats, full and
        deficient rank: (matrix, tol)."""
        rng = random.Random(f"sparse-rows-{seed}")
        for rows, cols in self.SYSTEMS:
            for rank in (None, 1):
                matrix = random_matrix(rng, rows, cols + 1, 1, rank)
                yield matrix, 0.0
                yield [[float(v) for v in row] for row in matrix], 1e-12

    def test_integer_rows_go_to_elimination_as_they_are(self, monkeypatch):
        # rows of Python ints (zeros included) are not rescaled: one lcm is
        # taken, of the reduced rows' pivots for the solution's denominator,
        # elimination sees the nonzero entries unchanged, and the solutions
        # are those of the same rows as Fractions
        for matrix, tol in self.systems("integers"):
            if tol:
                continue
            cols = len(matrix[0]) - 1
            den = math.lcm(*(v.denominator for row in matrix for v in row))
            rows = [{c: int(v * den) for c, v in row.items()} for row in sparse(matrix, True)]
            expected = pinned_solution(assert_matches_reference(sparse(matrix), cols))
            seen, lcms = [], []
            eliminate = linalg._gauss_jordan
            with monkeypatch.context() as patch:
                patch.setattr(linalg, "lcm", lambda *heads: lcms.append(heads) or math.lcm(*heads))
                patch.setattr(linalg, "_gauss_jordan", lambda pending, width:
                              seen.append(pending) or eliminate(pending, width))
                assert pinned_solution(solve_linear(rows, cols)) == expected
            assert seen == [[{c: v for c, v in row.items() if v} for row in rows]]
            assert len(lcms) == 1

    def test_explicit_zero_entries(self):
        for matrix, tol in self.systems("zeros"):
            cols = len(matrix[0]) - 1
            # kept zeros are the float zeros of the dense matrix itself
            kept = assert_matches_reference(sparse(matrix, keep_zeros=True), cols, tol)
            dropped = assert_matches_reference(sparse(matrix), cols, tol)
            if tol == 0:
                assert pinned_solution(kept) == pinned_solution(dropped)
            exact_zeros = [{**row, **{c: F(0) for c in range(cols + 1) if c not in row}}
                           for row in sparse(matrix)]
            assert pinned_solution(assert_matches_reference(exact_zeros, cols, tol)) == \
                pinned_solution(dropped)

    def test_unsorted_keys(self):
        rng = random.Random("sparse-rows-order")
        for matrix, tol in self.systems("order"):
            cols = len(matrix[0]) - 1
            rows = sparse(matrix)
            shuffled = []
            for row in rows:
                items = list(row.items())
                rng.shuffle(items)
                shuffled.append(dict(items))
            assert pinned_solution(assert_matches_reference(shuffled, cols, tol)) == \
                pinned_solution(solve_linear(rows, cols, tol))

    def test_empty_rows(self):
        for matrix, tol in self.systems("empty-rows"):
            cols = len(matrix[0]) - 1
            rows = sparse(matrix)
            padded = [{}] + rows[:1] + [{}] + rows[1:]
            sol = assert_matches_reference(padded, cols, tol)
            if tol == 0:
                assert pinned_solution(sol) == pinned_solution(solve_linear(rows, cols))
        sol = solve_linear([{}, {}], 3)
        assert (sol.status, sol.particular, sol.basis) == (
            "family", [F(0)] * 3, [[F(1), 0, 0], [0, F(1), 0], [0, 0, F(1)]])

    def test_right_hand_side_alone_makes_the_system_empty(self):
        for matrix, tol in self.systems("rhs"):
            cols = len(matrix[0]) - 1
            for value in (F(3, 7), 0.25):
                rows = sparse(matrix) + [{cols: value}]
                assert assert_matches_reference(rows, cols, tol).status == "empty"
        assert solve_linear([{2: F(1)}], 2).status == "empty"
        assert solve_linear([{2: 0.5}], 2, 1e-12).status == "empty"

    def test_no_rows_or_no_unknowns(self):
        for tol in (0.0, 1e-12):
            assert pinned_solution(solve_linear([], 0, tol)) == ("unique", [], [])
            assert assert_matches_reference([], 0, tol).status == "unique"
            sol = solve_linear([], 2, tol)
            assert (sol.status, sol.particular, sol.basis) == (
                "family", [0, 0], [[1, 0], [0, 1]])
        # no unknowns: only right-hand sides, zero or not
        for rows, status in (([{}], "unique"), ([{0: F(0)}], "unique"),
                             ([{0: F(2)}], "empty"), ([{0: 0.0}, {}], "unique"),
                             ([{0: 0.5}], "empty")):
            for tol in (0.0, 1e-12):
                assert assert_matches_reference(rows, 0, tol).status == status
        assert solve_linear([{0: F(0)}], 0).particular == []

    def test_rows_are_not_changed(self):
        rows = [{1: F(2), 0: F(4), 2: F(6)}, {0: F(1, 3), 2: F(0)}]
        copy = [dict(row) for row in rows]
        solve_linear(rows, 2)
        solve_linear(rows, 2, 1e-12)
        assert rows == copy and [list(row) for row in rows] == [list(row) for row in copy]


class TestStationaryDistribution:
    def test_symmetric_two_state(self):
        law = stationary_distribution(MarkovKernel.from_matrix(
            [[F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]]))
        assert law.rho == {(0,): F(1, 2), (1,): F(1, 2)}

    def test_three_state_exact(self):
        kernel = MarkovKernel.from_matrix([
            [F(7, 15), F(1, 3), F(1, 5)],
            [F(1, 2), F(1, 6), F(1, 3)],
            [F(1, 6), F(1, 2), F(1, 3)],
        ])
        law = stationary_distribution(kernel)
        assert law.rho == {(0,): F(35, 89), (1,): F(29, 89), (2,): F(25, 89)}

    def test_identity_not_unique(self):
        with pytest.raises(ValueError):
            stationary_distribution(MarkovKernel.from_matrix([[F(1), F(0)],
                                                              [F(0), F(1)]]))


def outcome(fn, *args):
    """fn's result with its types (floats bit for bit), or its ValueError."""
    try:
        result = fn(*args)
    except ValueError as exc:
        return "ValueError", str(exc)
    return None if result is None else {w: pinned(v) for w, v in result.items()}


def solved(kernel):
    return stationary_distribution(kernel).rho


def checked(kernel, rho):
    StationaryLaw(kernel, rho)


def sparse_kernel(rng, kappa, memory, zeros):
    """A random exact kernel with up to `zeros` zero entries per row."""
    entries = {}
    for ctx in Alphabet(kappa).words(memory):
        raw = [F(rng.randint(1, 9)) for _ in range(kappa)]
        for y in rng.sample(range(kappa), rng.randint(0, min(zeros, kappa - 1))):
            raw[y] = F(0)
        for y in range(kappa):
            entries[(ctx, y)] = raw[y] / sum(raw)
    return MarkovKernel(Alphabet(kappa), memory, entries)


def floated_kernel(kernel, keep=()):
    """The kernel in floats, the rows of the contexts in `keep` left exact."""
    return MarkovKernel(kernel.alphabet, kernel.memory,
                        {(c, y): p if c in keep else float(p)
                         for (c, y), p in kernel._entries.items()})


SHAPES = [(kappa, memory) for kappa in (2, 3, 4) for memory in (0, 1, 2)]


class TestIntegerStationary:
    """The integer solve and flow check against the Fraction matrix forms."""

    @pytest.mark.parametrize("kappa,memory", SHAPES)
    def test_random_exact_kernels(self, kappa, memory):
        rng = random.Random(f"stationary-{kappa}-{memory}")
        for _ in range(4):
            kernel = random_kernel(rng, kappa=kappa, memory=memory)
            law = stationary_distribution(kernel)
            assert outcome(solved, kernel) == outcome(reference_stationary, kernel)
            assert all(type(p) is F for p in law.rho.values())
            assert law.is_exact

    @pytest.mark.parametrize("kappa,memory", SHAPES)
    def test_kernels_with_zero_entries(self, kappa, memory):
        """Unique laws with zero blocks, reducible and periodic chains: the
        same law or the same error."""
        rng = random.Random(f"sparse-{kappa}-{memory}")
        for _ in range(8):
            kernel = sparse_kernel(rng, kappa, memory, zeros=kappa - 1)
            assert outcome(solved, kernel) == outcome(reference_stationary, kernel)

    @pytest.mark.parametrize("rows,unique", [
        ([[1, 0], [0, 1]], False),                          # reducible
        ([[0, 1], [1, 0]], True),                           # periodic, one law
        ([[1, 0, 0], [0, 0, 1], [0, 1, 0]], False),         # two closed classes
        ([[F(1, 2), F(1, 2)], [0, 1]], True),               # one transient state
    ])
    def test_degenerate_chains(self, rows, unique):
        kernel = MarkovKernel.from_matrix([[F(p) for p in row] for row in rows])
        for k in (kernel, floated_kernel(kernel)):
            result = outcome(solved, k)
            assert result == outcome(reference_stationary, k)
            assert isinstance(result, dict) == unique
        if not unique:
            assert outcome(solved, kernel) == (
                "ValueError", "kernel has no unique stationary law (reducible or periodic chain)")

    def test_exact_solve_hands_integer_rows_to_elimination(self, monkeypatch):
        # one solve_linear call, whose elimination sees only Python ints
        solves, eliminations = [], []

        def solving(rows, cols, tol=0.0):
            solves.append(tol)
            return solve_linear(rows, cols, tol)

        def eliminating(pending, cols):
            eliminations.append([type(v) for row in pending for v in row.values()])
            return gauss_jordan(pending, cols)

        gauss_jordan = linalg._gauss_jordan
        monkeypatch.setattr(linalg, "solve_linear", solving)
        monkeypatch.setattr(linalg, "_gauss_jordan", eliminating)
        kernel = random_kernel(random.Random(5), kappa=3, memory=2)
        law = stationary_distribution(kernel)
        assert solves == [0.0] and len(eliminations) == 1
        assert set(eliminations[0]) == {int}
        assert law.rho == reference_stationary(kernel)

    @pytest.mark.parametrize("kappa,memory", SHAPES)
    def test_perturbed_rho_is_not_invariant(self, kappa, memory):
        """One entry moved by a small amount (another compensating, so the sum
        stays 1) fails the flow check, as the Fraction loop found."""
        rng = random.Random(f"perturb-{kappa}-{memory}")
        kernel = random_kernel(rng, kappa=kappa, memory=memory)
        rho = stationary_distribution(kernel).rho
        assert outcome(checked, kernel, rho) is None
        states = list(rho)
        for _ in range(3):
            a, b = rng.sample(states, 2)
            eps = F(1, rng.randint(10 ** 6, 10 ** 7))
            bad = rho | {a: rho[a] + eps, b: rho[b] - eps}
            assert outcome(checked, kernel, bad) == outcome(reference_law_check, kernel, bad) \
                == ("ValueError", "rho is not invariant for the kernel")

    def test_law_checks_match_reference(self):
        """Missing blocks, negative entries, a wrong sum, and mixed exact and
        float parts: the same acceptance and the same message."""
        kernel = random_kernel(random.Random(9), kappa=2, memory=2)
        rho = stationary_distribution(kernel).rho
        a, b = sorted(rho)[:2]
        float_rho = {w: float(p) for w, p in rho.items()}
        cases = [
            (kernel, {w: p for w, p in rho.items() if w != a}),
            (kernel, rho | {a: -rho[a], b: rho[b] + 2 * rho[a]}),
            (kernel, rho | {a: rho[a] + 1}),
            (kernel, rho | {a: 2 * rho[a]}),
            (kernel, float_rho),
            (kernel, float_rho | {a: float_rho[a] + 1e-6, b: float_rho[b] - 1e-6}),
            (floated_kernel(kernel), rho),
            (floated_kernel(kernel), rho | {a: rho[a] + F(1, 1000), b: rho[b] - F(1, 1000)}),
            (floated_kernel(kernel, keep=[(0, 0)]), float_rho),
            (kernel, {w: int(i == 0) for i, w in enumerate(sorted(rho))}),
        ]
        for k, r in cases:
            assert outcome(checked, k, r) == outcome(reference_law_check, k, r)
            if outcome(checked, k, r) is None:
                assert StationaryLaw(k, r).is_exact == (k.is_exact and all(
                    isinstance(p, (int, F)) for p in r.values()))

    @pytest.mark.parametrize("kappa,memory", SHAPES)
    def test_float_kernels_unchanged(self, kappa, memory):
        """Float and mixed kernels: the same floats bit for bit, and the same
        types where an entry stays exact."""
        rng = random.Random(f"float-{kappa}-{memory}")
        for draw in range(3):
            kernel = random_kernel(rng, kappa=kappa, memory=memory)
            contexts = list(kernel.alphabet.words(memory))
            for k in (floated_kernel(kernel), floated_kernel(kernel, keep=contexts[:1])):
                assert outcome(solved, k) == outcome(reference_stationary, k)
        kernel = sparse_kernel(rng, kappa, memory, zeros=kappa - 1)
        assert outcome(solved, floated_kernel(kernel)) == \
            outcome(reference_stationary, floated_kernel(kernel))


def reference_is_irreducible(A) -> bool:
    """Strong connectivity of the positive-entry digraph of a square matrix,
    by a forward and a reverse graph search from vertex 0 (the form
    `linalg.is_irreducible` had before boolean squaring; it raises
    IndexError on the 0 x 0 matrix)."""
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


class TestIsIrreducible:
    # positive entry drawn from rng, and the zero of that kind
    ENTRIES = {"fraction": (lambda rng: F(rng.randint(1, 9), rng.randint(1, 9)), F(0)),
               "int": (lambda rng: rng.randint(1, 9), 0),
               "float": (lambda rng: rng.randint(1, 9) / rng.randint(1, 9), 0.0)}

    @pytest.mark.parametrize("kind", ENTRIES)
    def test_matches_graph_search(self, kind):
        rng = random.Random(f"irreducible-{kind}")
        entry, zero = self.ENTRIES[kind]
        assert linalg.is_irreducible([]) is False
        seen = set()
        for size in range(1, 9):
            for _ in range(40):
                density = rng.choice((0.1, 0.25, 0.5, 0.9))
                A = [[entry(rng) if rng.random() < density else zero for _ in range(size)]
                     for _ in range(size)]
                if rng.random() < 0.2:
                    k = rng.randrange(size)
                    if rng.random() < 0.5:
                        A[k] = [zero] * size
                    else:
                        for row in A:
                            row[k] = zero
                expected = reference_is_irreducible(A)
                assert linalg.is_irreducible(A) is expected
                seen.add(expected)
        assert seen == {True, False}


class TestPerronPair:
    def test_reducible_rejected(self):
        with pytest.raises(ValueError):
            perron_pair([[F(2), F(0)], [F(0), F(2)]])

    def test_periodic_swap(self):
        pair = perron_pair([[F(0), F(1)], [F(1), F(0)]])
        assert pair.exact
        assert pair.value == 1
        assert pair.left == [F(1, 2), F(1, 2)]
        assert pair.right == [F(1), F(1)]

    def test_rank_one(self):
        u = [F(2), F(3)]
        v = [F(1, 2), F(1, 5)]
        A = [[a * b for b in v] for a in u]
        pair = perron_pair(A)
        assert pair.value == sum(a * b for a, b in zip(u, v))

    def test_normalization_and_eigen_identities(self, rng):
        for _ in range(10):
            size = rng.randint(2, 4)
            A = [[F(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(size)]
                 for _ in range(size)]
            pair = perron_pair(A)
            if pair.exact:
                assert mat_vec(A, pair.right) == [pair.value * r for r in pair.right]
                assert vec_mat(pair.left, A) == [pair.value * l for l in pair.left]
                assert sum(pair.left) == 1
                assert sum(l * r for l, r in zip(pair.left, pair.right)) == 1
            else:
                Ar = mat_vec(A, pair.right)
                for got, want in zip(Ar, [pair.value * r for r in pair.right]):
                    assert abs(float(got) - float(want)) < 1e-8
                assert abs(sum(pair.left) - 1) < 1e-12

    def test_rational_and_irrational_roots(self, rng):
        # D B D^-1 with constant row sums s has the rational root s; 2x2
        # matrices whose discriminant is no rational square have an
        # irrational root, which the M-matrix test proves, and take the
        # float path
        for _ in range(12):
            size = rng.randint(2, 4)
            s = F(rng.randint(1, 30), rng.randint(1, 7))
            B = []
            for _ in range(size):
                raw = [F(rng.randint(1, 9)) for _ in range(size)]
                B.append([v * s / sum(raw) for v in raw])
            d = [F(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(size)]
            A = [[d[i] * B[i][j] / d[j] for j in range(size)] for i in range(size)]
            pair = perron_pair(A)
            assert pair.exact
            assert pair.value == s
            assert mat_vec(A, pair.right) == [pair.value * r for r in pair.right]
            assert vec_mat(pair.left, A) == [pair.value * l for l in pair.left]
            assert all(v > 0 for v in pair.left + pair.right)
            assert sum(pair.left) == 1
            assert sum(l * r for l, r in zip(pair.left, pair.right)) == 1
        irrational = 0
        while irrational < 6:
            a, b, c, d = (F(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(4))
            disc = (a - d) ** 2 + 4 * b * c
            if isinstance(_sqrt_exact(disc), F):
                continue
            irrational += 1
            assert not perron_pair([[a, b], [c, d]]).exact

    def test_m_matrix_test_matches_spectral_radius(self, rng):
        # random irreducible integer matrices, some with zero diagonals and
        # some periodic (edges only from one class to the next): t passes
        # exactly when t >= rho(B), with det(tI - B), 0 at an integer root
        seen = set()
        for _ in range(400):
            size = rng.randint(1, 5)
            period = rng.choice([p for p in (1, 2, 3) if p <= size])
            classes = [i % period for i in range(size)]
            rng.shuffle(classes)
            B = [[rng.choice((0, 0, 1, 2, 5, 9)) if classes[j] == (classes[i] + 1) % period
                  else 0 for j in range(size)] for i in range(size)]
            if rng.random() < 0.3:
                for i in range(size):
                    B[i][i] = 0
            if not linalg.is_irreducible(B):
                continue
            rho = max(abs(np.linalg.eigvals(np.array(B, dtype=float))))
            for t in range(int(rho) - 2, int(rho) + 3):
                det = linalg._det_above_root(t, B)
                if abs(t - rho) < 1e-9:
                    seen.add("root")
                    assert det == 0
                elif t > rho:
                    expected = np.linalg.det(t * np.eye(size) - np.array(B, dtype=float))
                    assert det is not None and det > 0 and abs(det - expected) < 1e-6 * det
                else:
                    assert det is None
            pair = perron_pair(B)
            assert pair.exact == (abs(rho - round(rho)) < 1e-9)
            assert pair.value == round(rho) if pair.exact else abs(pair.value - rho) < 1e-9
            seen.add(("periodic" if period > 1 else "plain", size))
        assert "root" in seen and ("periodic", 3) in seen and ("plain", 5) in seen

    @staticmethod
    def counting(monkeypatch):
        """The K of every M-matrix test, in order."""
        tested = []
        det_above_root = linalg._det_above_root
        monkeypatch.setattr(linalg, "_det_above_root",
                            lambda t, B: tested.append(t) or det_above_root(t, B))
        return tested

    def test_two_tests_when_the_estimate_is_right(self, rng, monkeypatch):
        # small entries: numpy's estimate rounds to K or K - 1 for the least
        # integer K >= rho(B), so K passes, K - 1 fails, and nothing else runs
        tested = self.counting(monkeypatch)
        exact = 0
        for _ in range(40):
            size = rng.randint(1, 4)
            A = [[F(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(size)]
                 for _ in range(size)]
            tested.clear()
            exact += perron_pair(A).exact
            assert len(tested) == 2, tested
        assert 0 < exact < 40

    @pytest.mark.parametrize("factor", [0.0, 1 / 3, 3.0], ids=["zero", "third", "triple"])
    def test_wrong_estimate_tests_each_k_once(self, factor, rng, monkeypatch):
        # a scaled estimate makes the search gallop and bisect: it finds the
        # same pair, and no K is tested twice
        eigvals = np.linalg.eigvals
        most = 0
        for _ in range(20):
            size = rng.randint(1, 4)
            A = [[F(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(size)]
                 for _ in range(size)]
            expected = perron_pair(A)
            tested = self.counting(monkeypatch)
            monkeypatch.setattr(np.linalg, "eigvals", lambda M: eigvals(M) * factor)
            assert perron_pair(A) == expected
            assert len(tested) == len(set(tested))
            most = max(most, len(tested))
            monkeypatch.undo()
        assert most > 4

    def test_secant_steps_on_seven_digit_kernels(self, monkeypatch):
        # the ratio matrices N_a = [nu(a,x,y) / nu(a,x,a)] of seeded kappa
        # 3-4 kernels whose rows have 7-digit denominators, every other one
        # near-reducible: each has the rational dominant eigenvalue 1 / M_aa,
        # and the exact pair is pinned by its eigen identities.  Galloping
        # and bisecting took about 83 M-matrix tests per call on these
        # kernels; the secant steps take about 9.
        tested = self.counting(monkeypatch)
        rng = random.Random("perron-7-digit")
        calls = 0
        for i in range(40):
            kappa = rng.choice((3, 4))
            rows = []
            for a in range(kappa):
                den = rng.randint(10 ** 6, 10 ** 7 - 1)
                if i % 2:
                    row = [F(rng.randint(1, 3), den) for _ in range(kappa)]
                    row[a] = 1 - (sum(row) - row[a])
                else:
                    cuts = sorted(rng.sample(range(1, den), kappa - 1))
                    row = [F(b - c, den) for b, c in zip(cuts + [den], [0] + cuts)]
                rows.append(row)
            nu = triple_values(triple_from_kernel(MarkovKernel.from_matrix(rows)))
            for a in range(kappa):
                N = [[nu[(a, x, y)] / nu[(a, x, a)] for y in range(kappa)] for x in range(kappa)]
                start = len(tested)
                pair = perron_pair(N)
                assert len(set(tested[start:])) == len(tested) - start
                assert pair.exact and pair.value == 1 / rows[a][a]
                assert mat_vec(N, pair.right) == [pair.value * r for r in pair.right]
                assert vec_mat(pair.left, N) == [pair.value * l for l in pair.left]
                assert sum(pair.left) == 1
                assert sum(l * r for l, r in zip(pair.left, pair.right)) == 1
                calls += 1
        assert len(tested) <= 12 * calls, len(tested) / calls

    def test_float_path(self):
        A = [[0.1, 2.3], [1.7, 0.4]]
        pair = perron_pair(A)
        assert not pair.exact
        Ar = mat_vec(A, pair.right)
        for got, want in zip(Ar, [pair.value * r for r in pair.right]):
            assert abs(got - want) < 1e-9
        lA = vec_mat(pair.left, A)
        for got, want in zip(lA, [pair.value * l for l in pair.left]):
            assert abs(got - want) < 1e-9
        assert abs(sum(pair.left) - 1) < 1e-12
        assert abs(sum(l * r for l, r in zip(pair.left, pair.right)) - 1) < 1e-12


def integer_system(rng, kind, rows, cols):
    """Sparse integer rows over cols columns (the last one a right-hand
    side), about half their entries zero, shaped by kind: "full" as drawn,
    "deficient" with rows that combine others, "inconsistent" with such a
    row whose last entry is moved, "duplicate" with repeated rows, "empty"
    with rows of no entry, "no-entry" with a column that no row holds."""
    matrix = [[rng.choice([0, 0, 0, 0, 1, -1, 2, -3, 5, 7, -9]) for _ in range(cols)]
              for _ in range(rows)]
    if kind in ("deficient", "inconsistent"):
        for k in range(2):
            a, b = rng.sample(matrix, 2)
            s, t = rng.choice([1, -2, 3]), rng.choice([-1, 2, 5])
            combined = [s * x + t * y for x, y in zip(a, b)]
            combined[-1] += kind == "inconsistent" and k == 0
            matrix.insert(rng.randrange(len(matrix) + 1), combined)
    elif kind == "duplicate":
        matrix += [list(row) for row in rng.sample(matrix, 2)]
    elif kind == "empty":
        for _ in range(2):
            matrix.insert(rng.randrange(len(matrix) + 1), [0] * cols)
    elif kind == "no-entry":
        j = rng.randrange(cols)
        for row in matrix:
            row[j] = 0
    return [{c: v for c, v in enumerate(row) if v} for row in matrix]


class TestBackSubstitution:
    """`_gauss_jordan` eliminates forward, then back-substitutes in one sweep
    from the last pivot up.  On seeded sparse integer systems it finds the
    pivot columns of the dense reference reduction, and each of its reduced
    rows is the reference row times the row's head (an integer of either
    sign), so `solve_linear` reads the same solutions from it."""

    KINDS = ["full", "deficient", "inconsistent", "duplicate", "empty", "no-entry"]

    @pytest.mark.parametrize("kind", KINDS)
    def test_same_pivots_and_rows_as_the_reference(self, kind):
        rng = random.Random(f"back-substitution-{kind}")
        for rows, cols in [(4, 5), (6, 4), (3, 8), (8, 9), (9, 6), (2, 3)] * 6:
            system = integer_system(rng, kind, rows, cols)
            reduced, pivots = linalg._gauss_jordan([dict(row) for row in system], cols)
            reference, reference_pivots = reference_rref(
                [[F(row.get(c, 0)) for c in range(cols)] for row in system])
            assert pivots == reference_pivots
            for row, c, expected in zip(reduced, pivots, reference):
                assert all(type(v) is int and v for v in row.values())
                assert {k: F(v, row[c]) for k, v in row.items()} == \
                    {k: v for k, v in enumerate(expected) if v}
            if kind == "inconsistent":  # one added row depends on the others
                assert len(pivots) <= len(system) - 1 and pivots[-1] == cols - 1
            elif kind not in ("full", "no-entry"):  # two rows depend on the others
                assert len(pivots) <= len(system) - 2


class TestExactRref:
    """`solve_linear` on the sparse rows of seeded augmented matrices
    against the dense reference solve: the reduced row echelon form is
    unique, so both give the same solutions, exact entries equal by value
    and floats bit for bit.  A matrix with one column is a system with no
    unknowns."""

    SHAPES = [(5, 5), (3, 7), (8, 3), (1, 1), (1, 6), (6, 1)]

    @pytest.mark.parametrize("digits", [1, 7])
    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
    def test_random_full_and_deficient_rank(self, shape, digits):
        rng = random.Random(f"rref-{shape}-{digits}")
        rows, cols = shape
        for _ in range(6):
            assert_matrix_matches_reference(random_matrix(rng, rows, cols, digits))
            for rank in range(1, min(rows, cols)):
                assert_matrix_matches_reference(random_matrix(rng, rows, cols, digits, rank))

    @pytest.mark.parametrize("digits", [1, 7])
    def test_zero_rows_and_columns(self, digits):
        rng = random.Random(f"rref-zeros-{digits}")
        for _ in range(10):
            matrix = random_matrix(rng, 6, 5, digits, rank=rng.randint(1, 4))
            for i in rng.sample(range(6), 2):
                matrix[i] = [F(0)] * 5
            for j in rng.sample(range(5), 2):
                for row in matrix:
                    row[j] = F(0)
            assert_matrix_matches_reference(matrix)
        assert_matrix_matches_reference([[F(0)] * 4 for _ in range(3)])

    @pytest.mark.parametrize("digits", [1, 7])
    def test_inconsistent_augmented_systems(self, digits):
        # b outside the column space of a rank-deficient A: the right-hand
        # side column becomes a pivot and the system is empty
        rng = random.Random(f"rref-empty-{digits}")
        for _ in range(10):
            A = random_matrix(rng, 5, 4, digits, rank=2)
            aug = [row + [random_entry(rng, digits, density=1)] for row in A]
            assert_matrix_matches_reference(aug)
            assert solve_linear(sparse(aug), 4).status == "empty"

    def test_no_rows(self):
        sol = solve_linear([], 0)
        assert (sol.status, sol.particular, sol.basis) == ("unique", [], [])
        assert_matrix_matches_reference([])

    def test_mixed_int_and_fraction_entries(self):
        rng = random.Random("rref-mixed")
        for _ in range(20):
            matrix = [[rng.randint(-5, 5) if rng.random() < 0.5 else random_entry(rng, 1)
                       for _ in range(5)] for _ in range(4)]
            assert_matrix_matches_reference(matrix)
        assert pinned_solution(solve_linear([{0: 2, 1: 1}], 1)) == \
            ("unique", [pinned(F(1, 2))], [])

    @pytest.mark.parametrize("tol", [0.0, 1e-12])
    def test_floats_are_bit_identical(self, tol):
        rng = random.Random(f"rref-float-{tol}")
        for rows, cols in self.SHAPES:
            for _ in range(5):
                matrix = [[float(random_entry(rng, 2)) for _ in range(cols)] for _ in range(rows)]
                assert_matrix_matches_reference(matrix, tol)
                deficient = random_matrix(rng, rows, cols, 1, rank=max(1, min(rows, cols) - 1))
                assert_matrix_matches_reference([[float(v) for v in row] for row in deficient],
                                                tol)


def range2_tables():
    for key in RANGE2_MODELS:
        name, params, _ = MODELS[key]
        yield key, models.build(name, **params).jrm
    for kappa in (2, 3, 4):
        rng = random.Random(f"cycle-systems-{kappa}")
        for k in range(2):
            yield f"invariant-k{kappa}-{k}", invariant_instance(rng, kappa, 0, 2)[0]
        yield f"perturbed-k{kappa}", perturbed_instance(rng, kappa, 0, 2)[0]


class TestCycleSystems:
    @pytest.mark.parametrize("n", [2, 3])
    def test_search_systems_match_reference(self, n, monkeypatch):
        count = 0
        for label, T in range2_tables():
            for table in (T, as_float(T)):
                for rows, cols, tol in cycle_systems(table, n, monkeypatch):
                    assert all(isinstance(row, dict) for row in rows)
                    assert_matches_reference(rows, cols, tol)
                    count += 1
        assert count > 2 * len(RANGE2_MODELS)
