import random
from fractions import Fraction

import pytest

from hecke_bz.linalg import (
    Subspace,
    column_space,
    full_space,
    identity,
    intersect_kernels,
    kernel_subspace,
    mat_eq,
    mat_inverse,
    mat_mul,
    restrict_operator,
    rref,
    transpose,
)
from hecke_bz.scalars import QRational


def rand_matrix(rng, rows, cols, density=0.7):
    return [[QRational(Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
             if rng.random() < density else QRational(0)
             for _ in range(cols)] for _ in range(rows)]


class TestKernelsAndSubspaces:
    def test_rref_idempotent_shape(self):
        rng = random.Random(7)
        A = rand_matrix(rng, 5, 7)
        R, pivots = rref(A)
        for r, col in enumerate(pivots):
            assert R[r][col] == 1
            for rr in range(len(R)):
                if rr != r:
                    assert R[rr][col] == 0

    def test_kernel_then_check(self):
        rng = random.Random(8)
        for _ in range(15):
            A = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 6))
            V = kernel_subspace(A, ncols=len(A[0]))
            prod = mat_mul(A, V.basis)
            assert all(all(not v for v in row) for row in prod)
            _, piv = rref(A)
            assert V.dim == len(A[0]) - len(piv)

    def test_column_space_rank_zero_keeps_ambient(self):
        Z = [[QRational(0)] * 3 for _ in range(4)]
        B, piv = column_space(Z)
        assert len(B) == 4 and piv == []

    def test_subspace_restrict_and_coords(self):
        one = QRational(1)
        two = QRational(2)
        M = [[one, one, 0], [0, two, 0], [0, 0, two]]
        V = intersect_kernels([], 3)
        assert V.dim == 3
        W = Subspace([[one], [QRational(0)], [QRational(0)]], [0])
        X = W.restrict(M)
        assert X == [[one]]

    def test_restrict_operator_rejects_noninvariant(self):
        one = QRational(1)
        M = [[0, one], [one, 0]]
        W = Subspace([[one], [QRational(0)]], [0])
        with pytest.raises(ArithmeticError):
            restrict_operator(M, W)

    def test_mat_inverse(self):
        rng = random.Random(9)
        for _ in range(10):
            n = rng.randint(1, 5)
            while True:
                A = rand_matrix(rng, n, n, density=0.9)
                _, piv = rref(A)
                if len(piv) == n:
                    break
            Ainv = mat_inverse(A)
            assert mat_eq(mat_mul(A, Ainv), identity(n))
            assert mat_eq(mat_mul(Ainv, A), identity(n))
        with pytest.raises(ArithmeticError):
            mat_inverse([[QRational(1), QRational(1)],
                         [QRational(1), QRational(1)]])

    def test_full_space_and_transpose(self):
        V = full_space(3)
        assert V.dim == 3 and V.pivot_rows == [0, 1, 2]
        A = [[1, 2, 3], [4, 5, 6]]
        assert transpose(A) == [[1, 4], [2, 5], [3, 6]]

    def test_int_matrices_stay_exact(self):
        R, pivots = rref([[2, 1], [0, 3]])
        assert pivots == [0, 1]
        assert R == [[1, 0], [0, 1]]
        inv = mat_inverse([[2, 0], [0, 3]])
        assert inv == [[Fraction(1, 2), 0], [0, Fraction(1, 3)]]
        R, _ = rref([[2, 1], [4, 5], [6, 7]])
        for M in (R, inv):
            assert not any(isinstance(v, float) for row in M for v in row)
            assert all(isinstance(v, (int, Fraction))
                       for row in M for v in row)
