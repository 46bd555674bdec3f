import random
from fractions import Fraction

import numpy as np
import pytest

from psinv import models, search
from psinv import linalg
from psinv.core import Alphabet, MarkovKernel, StationaryLaw
from psinv.linalg import (mat_vec, perron_pair, rref, solve_linear, stationary_distribution,
                          vec_mat)
from psinv.search import _cycle_system, _rational_sqrt

from test_golden import MODELS
from test_search import RANGE2_MODELS, as_float
from conftest import random_kernel
from z_reference import (invariant_instance, perturbed_instance, pinned, reference_law_check,
                         reference_stationary)

F = Fraction


def reference_rref(matrix, tol=0.0):
    """`rref` as the package computed it before exact elimination became
    integer and sparse: dense Gauss-Jordan in the entries' own arithmetic,
    pivoting on the largest absolute value.  Its float form is unchanged."""
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


def assert_matches_reference(matrix, tol=0.0):
    red, pivots = rref(matrix, tol)
    exact = tol == 0 and all(isinstance(v, (int, Fraction)) for row in matrix for v in row)
    if exact:
        # the reference divides an int row by an int head in floats, so it
        # runs on the same entries as Fractions
        ref_red, ref_pivots = reference_rref([[F(v) for v in row] for row in matrix])
        assert all(type(v) is Fraction for row in red for v in row)
        assert red == ref_red
    else:
        ref_red, ref_pivots = reference_rref(matrix, tol)
        assert [[float(v).hex() for v in row] for row in red] == \
            [[float(v).hex() for v in row] for row in ref_red]
    assert pivots == ref_pivots
    assert len(red) == len(matrix)


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
        sol = solve_linear([[F(1), 0, 0], [0, F(1), 0], [0, 0, F(1)]],
                           [F(1), F(2), F(3)])
        assert sol.status == "unique"
        assert sol.particular == [1, 2, 3]

    def test_zero_matrix_family(self):
        sol = solve_linear([[F(0), F(0)], [F(0), F(0)]], [F(0), F(0)])
        assert sol.status == "family"
        assert sol.dimension == 2

    def test_inconsistent_empty(self):
        sol = solve_linear([[F(1), F(1)], [F(2), F(2)]], [F(1), F(3)])
        assert sol.status == "empty"

    def test_residual_zero_on_samples(self, rng):
        for _ in range(20):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 4)
            A = [[F(rng.randint(-3, 3)) for _ in range(cols)] for _ in range(rows)]
            x = [F(rng.randint(-3, 3)) for _ in range(cols)]
            b = mat_vec(A, x)
            sol = solve_linear(A, b)
            assert sol.status != "empty"
            assert mat_vec(A, sol.particular) == b
            for vec in sol.basis:
                assert mat_vec(A, vec) == [F(0)] * rows


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

    def test_exact_solve_bypasses_solve_linear(self, monkeypatch):
        calls = []
        monkeypatch.setattr(linalg, "solve_linear",
                            lambda *args, **kwargs: calls.append(args))
        stationary_distribution(random_kernel(random.Random(5), kappa=3, memory=2))
        assert calls == []

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
            if _rational_sqrt(disc) is not None:
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


class TestExactRref:
    """The integer sparse elimination against the dense Fraction reference:
    the reduced row echelon form is unique, so both agree entry for entry."""

    SHAPES = [(5, 5), (3, 7), (8, 3), (1, 1), (1, 6), (6, 1)]

    @pytest.mark.parametrize("digits", [1, 7])
    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
    def test_random_full_and_deficient_rank(self, shape, digits):
        rng = random.Random(f"rref-{shape}-{digits}")
        rows, cols = shape
        for _ in range(6):
            assert_matches_reference(random_matrix(rng, rows, cols, digits))
            for rank in range(1, min(rows, cols)):
                assert_matches_reference(random_matrix(rng, rows, cols, digits, rank))

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
            assert_matches_reference(matrix)
        assert_matches_reference([[F(0)] * 4 for _ in range(3)])

    @pytest.mark.parametrize("digits", [1, 7])
    def test_inconsistent_augmented_systems(self, digits):
        # b outside the column space of a rank-deficient A: the last column
        # becomes a pivot and solve_linear reports the system empty
        rng = random.Random(f"rref-empty-{digits}")
        for _ in range(10):
            A = random_matrix(rng, 5, 4, digits, rank=2)
            aug = [row + [random_entry(rng, digits, density=1)] for row in A]
            assert_matches_reference(aug)
            assert 4 in rref(aug)[1]
            assert solve_linear(A, [row[-1] for row in aug]).status == "empty"

    def test_no_rows(self):
        assert rref([]) == ([], [])
        assert_matches_reference([])

    def test_mixed_int_and_fraction_entries(self):
        rng = random.Random("rref-mixed")
        for _ in range(20):
            matrix = [[rng.randint(-5, 5) if rng.random() < 0.5 else random_entry(rng, 1)
                       for _ in range(5)] for _ in range(4)]
            assert_matches_reference(matrix)
        assert rref([[2, 1]]) == ([[F(1), F(1, 2)]], [0])

    @pytest.mark.parametrize("tol", [0.0, 1e-12])
    def test_floats_are_bit_identical(self, tol):
        rng = random.Random(f"rref-float-{tol}")
        for rows, cols in self.SHAPES:
            for _ in range(5):
                matrix = [[float(random_entry(rng, 2)) for _ in range(cols)] for _ in range(rows)]
                assert_matches_reference(matrix, tol)
                deficient = random_matrix(rng, rows, cols, 1, rank=max(1, min(rows, cols) - 1))
                assert_matches_reference([[float(v) for v in row] for row in deficient], tol)


def cycle_systems(T, n, monkeypatch):
    """Every (A, b, tol) that `_cycle_system(T, n)` hands to solve_linear:
    the cycle system itself and the active-set systems of its vertices."""
    seen = []

    def recording(A, b, tol=0.0):
        seen.append((A, b, tol))
        return solve_linear(A, b, tol)

    monkeypatch.setattr(search, "solve_linear", recording)
    _cycle_system(T, n)
    monkeypatch.undo()
    return seen


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
                for A, b, tol in cycle_systems(table, n, monkeypatch):
                    assert_matches_reference([row + [v] for row, v in zip(A, b)], tol)
                    count += 1
        assert count > 2 * len(RANGE2_MODELS)
