from fractions import Fraction
from math import factorial

import pytest

from hecke_bz.combinatorics import (
    Permutation,
    hook_dimension,
    length,
    mn_character,
    partitions,
    sym_group,
    vertical_strips,
)
from hecke_bz.graded import g_bz_derivative, speh_module
from hecke_bz.linalg import (
    identity,
    mat_add,
    mat_eq,
    mat_mul,
    mat_scale,
    zeros,
)
from hecke_bz.scalars import QRational
from hecke_bz.symgroup import (
    _class_traces,
    _scaled,
    decompose_sn,
    sign_idempotent_matrix,
)

from routes import cycle_type, mat_inverse


class TestSeminormalModules:
    def test_coxeter_relations_and_jm_diagonality(self):
        # the Jucys-Murphy element X_k = sum_{j<k} (j k), summed as actual
        # transposition matrices, is -E_k = diag(content of k)
        for n in range(2, 6):
            for lam in partitions(n):
                M = speh_module(lam)
                ident = identity(M.dim)
                for g in M.s:
                    assert mat_eq(mat_mul(g, g), ident)
                for j in range(len(M.s) - 1):
                    a, b = M.s[j], M.s[j + 1]
                    assert mat_eq(mat_mul(a, mat_mul(b, a)),
                                  mat_mul(b, mat_mul(a, b)))
                for k in range(1, n + 1):
                    jm = zeros(M.dim, M.dim)
                    for j in range(1, k):
                        # the transposition (j, k)
                        word = list(range(1, n + 1))
                        word[j - 1], word[k - 1] = k, j
                        jm = mat_add(jm, M.perm_matrix(Permutation(word)))
                    assert mat_eq(jm, mat_scale(-1, M.x[k - 1])), (lam, k)

    def test_perm_matrix_is_a_homomorphism(self):
        M = speh_module((2, 1))
        G = sym_group(3)
        for v in G:
            for w in G:
                assert mat_eq(M.perm_matrix(v * w),
                              mat_mul(M.perm_matrix(v), M.perm_matrix(w)))

    def test_dimensions(self):
        assert speh_module((3, 2)).dim == 5
        assert speh_module((2, 2, 1)).dim == 5
        assert speh_module((1, 1, 1)).dim == 1


class TestDecompose:
    def test_self_recognition(self):
        for n in range(1, 7):
            for lam in partitions(n):
                M = speh_module(lam)
                got = decompose_sn(M.s, dim=M.dim, m=n)
                assert got == {lam: 1}

    def test_regular_representation(self):
        n = 4
        G = sym_group(n)
        index = {w: i for i, w in enumerate(G)}
        gens = []
        for a in range(1, n):
            s = Permutation.adjacent(n, a)
            mat = [[Fraction(0)] * len(G) for _ in range(len(G))]
            for col, w in enumerate(G):
                mat[index[s * w]][col] = Fraction(1)
            gens.append(mat)
        got = decompose_sn(gens)
        assert got == {lam: hook_dimension(lam) for lam in partitions(n)}

    def test_rejects_non_module(self):
        bad = [[Fraction(2), Fraction(0)], [Fraction(0), Fraction(1)]]
        with pytest.raises(ValueError):
            decompose_sn([bad])

    def test_rejects_inexact_entries(self):
        for v in (0.5, QRational(Fraction(1, 2))):
            with pytest.raises(ValueError, match=type(v).__name__):
                decompose_sn([[[v, 0], [0, 1]]])

    def test_conjugated_sum_keeps_multiplicities(self):
        # a rational change of basis with denominators 3 and 7 gives the
        # scaled oracle a common denominator L > 1
        A, B = speh_module((3, 1)), speh_module((2, 1, 1))
        d = A.dim + B.dim
        P = identity(d)
        for r in range(d):
            for c in range(r + 1, d):
                P[r][c] = Fraction(r + c, 3 if (r + c) % 2 else 7)
        Pinv = mat_inverse(P)
        gens = []
        for a, b in zip(A.s, B.s):
            g = [[0] * d for _ in range(d)]
            for r in range(A.dim):
                g[r][:A.dim] = a[r]
            for r in range(B.dim):
                g[A.dim + r][A.dim:] = b[r]
            gens.append(mat_mul(Pinv, mat_mul(g, P)))
        assert _scaled(gens)[0] % 21 == 0
        assert decompose_sn(gens) == {(3, 1): 1, (2, 1, 1): 1}

    def test_braid_failure_with_fractions(self):
        # both square to 1, but ab has trace 1, so order 6, not 3
        a = [[1, 0], [0, -1]]
        b = [[Fraction(1, 2), Fraction(3, 2)], [Fraction(1, 2), Fraction(-1, 2)]]
        assert mat_eq(mat_mul(b, b), identity(2))
        with pytest.raises(ValueError, match="braid failure at 1"):
            decompose_sn([a, b])

    def test_class_traces_match_characters(self):
        for m in range(1, 8):
            reps = {}
            for w in sym_group(m):
                reps.setdefault(cycle_type(w), w)
            for lam in partitions(m):
                M = speh_module(lam)
                scale, scaled = _scaled(M.s)
                got = _class_traces(scaled, scale, M.dim, m)
                for mu in partitions(m):
                    P = M.perm_matrix(reps[mu])
                    ref = sum(P[r][r] for r in range(M.dim))
                    assert got[mu] == mn_character(lam, mu) == ref, (lam, mu)

    def test_rank_zero_front(self):
        assert decompose_sn([], dim=3, m=0) == {(): 3}
        assert decompose_sn([], dim=0, m=0) == {}
        assert decompose_sn([], dim=2, m=1) == {(1,): 2}


class TestSignIsotypic:
    def test_idempotent_square(self):
        # P^2 = P, and P is the naive sum (1/i!) sum sgn(w) w over the
        # S_i on the tail letters n-i+1..n
        for n, i in ((3, 2), (4, 2), (4, 3), (5, 3)):
            M = speh_module((n - 1, 1) if n > 1 else (1,))
            P = sign_idempotent_matrix(M.s, n, i)
            assert mat_eq(mat_mul(P, P), P)
            naive = zeros(M.dim, M.dim)
            for u in sym_group(i):
                w = Permutation(tuple(range(1, n - i + 1))
                                + tuple(n - i + v for v in u.word))
                naive = mat_add(naive, mat_scale(
                    Fraction((-1) ** length(u), factorial(i)),
                    M.perm_matrix(w)))
            assert mat_eq(P, naive), (n, i)

    def test_master_vertical_strip_check(self):
        for n in range(1, 7):
            for lam in partitions(n):
                for i in range(n + 1):
                    assert_vertical_strips(lam, i)

    def test_master_check_n7_spots(self):
        for lam in ((4, 2, 1), (3, 3, 1), (2, 2, 2, 1)):
            for i in (1, 2, 3):
                assert_vertical_strips(lam, i)


def assert_vertical_strips(lam, i):
    """The front transpositions of the i-th derivative of the Speh module
    on lam carry the S_{n-i}-modules of the vertical strips of size i,
    each once, by class traces."""
    D = g_bz_derivative(speh_module(lam), i)
    want = {mu: 1 for mu in vertical_strips(lam, i)}
    if D.dim == 0:
        assert not want, (lam, i)
        return
    assert decompose_sn(D.s, dim=D.dim, m=D.n) == want, (lam, i)
