from fractions import Fraction

import pytest

from psinv.core import MarkovKernel
from psinv.linalg import (mat_vec, perron_pair, solve_linear, stationary_distribution,
                          vec_mat)
from psinv.search import _rational_sqrt

F = Fraction


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
        # irrational root, fail both denominator caps and take the float path
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
