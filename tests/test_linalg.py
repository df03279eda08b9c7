import random
from fractions import Fraction
from math import copysign

import pytest

from hecke_bz.linalg import (
    Subspace,
    column_space,
    full_space,
    identity,
    intersect_kernels,
    kernel_subspace,
    mat_add,
    mat_eq,
    mat_mul,
    mat_sub,
    restrict_operator,
    rref,
    transpose,
)
import hecke_bz.affine.modules
import hecke_bz.module_core
from hecke_bz.combinatorics import partitions
from hecke_bz.graded import speh_module
from hecke_bz.module_core import tail_kernel
from hecke_bz.reports import suite_leibniz
from hecke_bz.scalars import QRational

from routes import (
    assert_same_subspace,
    central_block_powers,
    mat_inverse,
    stacked_kernel,
    textbook_mat_mul,
    textbook_rref,
)

q = QRational.gen()


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


class TestIntersectKernels:
    """`intersect_kernels`, one matrix at a time, against
    `routes.stacked_kernel`, one row reduction of all of them."""

    def test_every_speh_tail_through_six(self):
        zero = 0
        for n in range(1, 7):
            for shape in partitions(n):
                M = speh_module(shape)
                for i in range(n + 1):
                    tail = [[[v + (r == c) for c, v in enumerate(row)]
                             for r, row in enumerate(g)]
                            for g in M.s[n - i:]]
                    V = tail_kernel(M, i)
                    assert_same_subspace(V, stacked_kernel(tail, M.dim))
                    zero += not V.dim
        # the orders past the number of rows
        assert zero == 58

    def test_leibniz_tails_and_central_blocks(self, monkeypatch):
        # over suite_leibniz(4): every Q(q) tail kernel of its inductions
        # (module_core) against one stacked reduction, and every central
        # block (affine.modules), split E_j by E_j, against the joint
        # kernel of the stabilized powers over the whole space
        # tails: [kernels of two or more matrices, zero kernels]
        # blocks: [central_block calls, zero blocks]
        calls = {"tails": [0, 0], "blocks": [0, 0]}

        def tails(mats, dim):
            mats = list(mats)
            V = intersect_kernels(mats, dim)
            assert_same_subspace(V, stacked_kernel(mats, dim))
            calls["tails"][0] += len(mats) > 1
            calls["tails"][1] += not V.dim
            return V

        block = hecke_bz.affine.modules.central_block

        def blocks(M, values):
            V = block(M, values)
            assert_same_subspace(V, central_block_powers(M, values))
            calls["blocks"][0] += 1
            calls["blocks"][1] += not V.dim
            return V

        monkeypatch.setattr(hecke_bz.module_core, "intersect_kernels", tails)
        monkeypatch.setattr(hecke_bz.affine.modules, "central_block", blocks)
        _, _, ok = suite_leibniz(4, {"threads": 1})
        assert ok
        assert calls == {"tails": [72, 52], "blocks": [1038, 518]}, calls

    def test_no_matrices_give_the_full_space(self):
        for mats in ([], iter(())):
            V = intersect_kernels(mats, 3)
            assert_same_subspace(V, full_space(3))

    def test_zero_before_the_last_matrix_stops(self):
        # ker A is the line through (1, 1, 0), which B cuts to 0; the
        # third matrix is never read
        A = [[1, -1, 0], [0, 0, 1]]
        B = [[1, 0, 0]]
        read = []

        def mats():
            for M in (A, B, None):
                read.append(M)
                yield M

        V = intersect_kernels(mats(), 3)
        assert read == [A, B]
        assert V.dim == 0 and V.pivot_rows == []
        assert V.basis == [[], [], []]
        assert_same_subspace(V, stacked_kernel([A, B], 3))

    def test_a_zero_row_matrix_cuts_nothing(self):
        A = [[Fraction(1, 2), 1, 0]]
        for mats in ([[], A], [A, []], [[], []]):
            assert_same_subspace(intersect_kernels(mats, 3),
                                 stacked_kernel(mats, 3))
        assert intersect_kernels([[]], 2).dim == 2


def entrywise_eq(A, B) -> bool:
    """Matrix equality one entry at a time, shapes first."""
    if len(A) != len(B):
        return False
    for ra, rb in zip(A, B):
        if len(ra) != len(rb):
            return False
        if any(a != b for a, b in zip(ra, rb)):
            return False
    return True


class TestMatEq:
    @pytest.mark.parametrize("A, B, want", [
        ([[1, 2]], [[1, 2], [3, 4]], False),
        ([[1, 2], [3]], [[1, 2], [3, 4]], False),
        ([[1, 2, 3], [4, 5]], [[1, 2], [4, 5]], False),
        ([[1, 0], [0, 2]], [[Fraction(1), 0], [0, Fraction(4, 2)]], True),
        ([[1, Fraction(1, 2)]], [[1, Fraction(1, 3)]], False),
        ([[q, 0], [0, 1]], [[q, QRational(0)], [0, QRational(1)]], True),
        ([[q + 1, 2]], [[q, 2]], False),
        ([[QRational(Fraction(3, 2))]], [[Fraction(3, 2)]], True),
        ([], [], True),
        ([[]], [[]], True),
    ], ids=["row-count", "row-length", "first-row-length", "int-fraction",
            "fraction-differs", "qrational", "qrational-differs",
            "qrational-fraction", "empty", "no-columns"])
    def test_answers_as_entry_by_entry(self, A, B, want):
        assert mat_eq(A, B) is want
        assert mat_eq(B, A) is want
        assert entrywise_eq(A, B) is want


def assert_same_entries(X, Y):
    """X and Y have the same shape and, entry for entry, equal values of
    the same type."""
    assert [*map(len, X)] == [*map(len, Y)]
    for rx, ry in zip(X, Y):
        for a, b in zip(rx, ry):
            assert type(a) is type(b) and a == b, (a, b)


def mixed_matrix(rng, rows, cols, kinds):
    """Entries 0, +-1 and +-2 of the exact types kinds, so that products
    are dense and their sums cancel often, to zeros of every type."""
    return [[rng.choice(kinds)(rng.choice([-2, -1, 0, 1, 1, 2]))
             for _ in range(cols)] for _ in range(rows)]


class TestKernelsAgainstTheTextbook:
    """`mat_mul` and `rref` store or negate the product where an entry
    is the int 0; `routes.textbook_mat_mul` and `routes.textbook_rref`
    add it to that 0 or subtract it from it.  The values and their types
    are the same."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("kinds", [
        (int, Fraction), (int, QRational), (int, Fraction, QRational),
    ], ids=["int-fraction", "int-qrational", "all"])
    def test_mixed_entries(self, kinds, seed, monkeypatch):
        rng = random.Random(seed)
        for _ in range(30):
            n, k, m = (rng.randint(0, 6) for _ in range(3))
            A, B = mixed_matrix(rng, n, k, kinds), mixed_matrix(rng, k, m,
                                                               kinds)
            assert_same_entries(mat_mul(A, B), textbook_mat_mul(A, B))
            R, pivots = rref(A)
            R0, pivots0 = textbook_rref(A)
            assert pivots == pivots0
            assert_same_entries(R, R0)
            V = kernel_subspace(A, ncols=k)
            monkeypatch.setattr(hecke_bz.linalg, "rref", textbook_rref)
            assert_same_subspace(V, kernel_subspace(A, ncols=k))
            monkeypatch.undo()

    def test_a_fraction_zero_takes_the_addition(self):
        # F(1) + F(-1) leaves Fraction(0), and Fraction(0) + 1 * 3 is
        # the Fraction 3, not the int 3
        A = [[Fraction(1), Fraction(-1), 1]]
        B = [[1], [1], [3]]
        assert_same_entries(mat_mul(A, B), [[Fraction(3)]])
        assert_same_entries(textbook_mat_mul(A, B), [[Fraction(3)]])

    def test_a_fraction_zero_takes_the_subtraction(self):
        # the first pivot leaves R[2][3] = Fraction(1) - 1 = Fraction(0);
        # the second subtracts 1 * 1 from it, a Fraction -1, which the
        # int lead 1 of the third pivot keeps; the kernel reads it off
        A = [[1, 0, 0, 1], [0, 1, 0, 1], [1, 1, 1, Fraction(1)]]
        R, pivots = rref(A)
        assert pivots == [0, 1, 2]
        assert_same_entries(R, [[1, 0, 0, 1], [0, 1, 0, 1],
                                [0, 0, 1, Fraction(-1)]])
        assert_same_entries(R, textbook_rref(A)[0])
        V = kernel_subspace(A)
        assert_same_entries(V.basis, [[-1], [-1], [Fraction(1)], [1]])

    def test_a_float_product_of_minus_zero(self):
        # 1e-200 * -1e-200 underflows to -0.0: stored as it is, it equals
        # the 0.0 that 0 + -0.0 gives, and both are floats; the sign of
        # that zero is all that differs
        A, B = [[1e-200, 2.0]], [[-1e-200], [0.0]]
        out, ref = mat_mul(A, B), textbook_mat_mul(A, B)
        assert_same_entries(out, ref)
        assert copysign(1.0, out[0][0]) == -1.0 == -copysign(1.0, ref[0][0])


    @pytest.mark.parametrize("A, B", [
        ([[1, Fraction(1, 2), 3], [0, 0, 0], [Fraction(2), -1, 0]],
         [[0, 0, 0], [1, Fraction(1, 3), 0], [0, 0, 0]]),
        ([[1, Fraction(1, 2), 3], [0, 5, 0]], [[0, 0], [0, 0], [0, 0]]),
        ([[1, Fraction(1, 2), 3], [Fraction(0), 2, -1]],
         [[Fraction(0), 2], [Fraction(0), Fraction(0)], [3, Fraction(0)]]),
        ([[q, 0, 1], [0, -q, Fraction(1, 2)]],
         [[0, q], [QRational(0), 1], [q, 0]]),
        ([[1.5, -0.0, 2.0], [0.0, 1.0, -1.0]],
         [[-0.0, 1.5], [0.0, -0.0], [2.0, -0.0]]),
    ], ids=["empty-rows", "all-zero", "fraction-zeros", "qrational",
            "float-zeros"])
    def test_sparse_right_factors(self, A, B):
        # B's rows are read as their nonzero (column, value) pairs: empty
        # rows, zeros of every type and signed float zeros add nothing
        assert_same_entries(mat_mul(A, B), textbook_mat_mul(A, B))
        assert_same_entries(mat_mul(B, transpose(B)),
                            textbook_mat_mul(B, transpose(B)))

    @pytest.mark.parametrize("seed", range(6))
    def test_sparse_right_factors_at_random(self, seed):
        # half the rows of each factor zero, the others int, Fraction
        # and QRational entries
        rng = random.Random(seed)
        kinds = (int, Fraction, QRational)
        for _ in range(30):
            n, k, m = (rng.randint(0, 7) for _ in range(3))
            A, B = mixed_matrix(rng, n, k, kinds), mixed_matrix(rng, k, m,
                                                               kinds)
            for row in rng.sample(B, k // 2) + rng.sample(A, n // 2):
                row[:] = [0] * len(row)
            assert_same_entries(mat_mul(A, B), textbook_mat_mul(A, B))


class TestShapes:
    """A product or sum of matrices whose shapes do not fit raises and
    names both shapes, where zip would cut the longer one short."""

    def test_mat_mul(self):
        with pytest.raises(ValueError, match="1 x 3 matrix by a 2 x 1"):
            mat_mul([[1, 2, 3]], [[1], [1]])
        with pytest.raises(ValueError, match="2 x 1/2 matrix"):
            mat_mul([[1, 2]], [[1], [2, 3]])
        assert mat_mul([[1, 2]], [[1], [2]]) == [[5]]
        assert mat_mul([], []) == [] and mat_mul([[]], []) == [[]]

    def test_mat_add(self):
        with pytest.raises(ValueError, match="add a 1 x 2 matrix and a 1 x 1"):
            mat_add([[1, 2]], [[1]])
        with pytest.raises(ValueError, match="1 x 2 matrix and a 2 x 2"):
            mat_add([[1, 2]], [[1, 2], [3, 4]])

    def test_mat_sub(self):
        with pytest.raises(ValueError,
                           match="subtract a 1 x 2 matrix and a 1 x 1"):
            mat_sub([[1, 2]], [[1]])
        with pytest.raises(ValueError, match="2 x 1/2 matrix and a 2 x 2"):
            mat_sub([[1], [2, 3]], [[1, 2], [3, 4]])
