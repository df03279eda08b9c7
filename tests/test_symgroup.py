from fractions import Fraction
from math import factorial

import pytest

from hecke_bz.combinatorics import (
    Permutation,
    class_word,
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

from routes import (
    cycle_type,
    entrywise_lift,
    mat_inverse,
    perm_matrix,
    textbook_mat_mul,
)


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
                        jm = mat_add(jm, perm_matrix(M, Permutation(word)))
                    assert mat_eq(jm, mat_scale(-1, M.x[k - 1])), (lam, k)

    def test_perm_matrix_is_a_homomorphism(self):
        M = speh_module((2, 1))
        G = sym_group(3)
        for v in G:
            for w in G:
                assert mat_eq(perm_matrix(M, v * w),
                              mat_mul(perm_matrix(M, v), perm_matrix(M, w)))

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

    @pytest.mark.parametrize("gens, dim", [([[[1, 0]]], None),
                                           ([[[1]]], 2)])
    def test_rejects_wrongly_sized_generators(self, gens, dim):
        with pytest.raises(ValueError, match="must be a . x . matrix"):
            decompose_sn(gens, dim=dim)

    @pytest.mark.parametrize("dim, m", [(2, 3), (0, 2), (1, 2)])
    def test_rejects_a_rank_above_one_with_no_generators(self, dim, m):
        with pytest.raises(ValueError, match="m does not match"):
            decompose_sn([], dim=dim, m=m)

    def test_rejects_inexact_entries(self):
        for v in (0.5, QRational(Fraction(1, 2))):
            with pytest.raises(ValueError, match=type(v).__name__):
                decompose_sn([[[v, 0], [0, 1]]])

    def test_conjugated_sum_keeps_multiplicities(self):
        # a rational change of basis with denominators 3 and 7 gives the
        # scaled oracle a common denominator L > 1
        gens = conjugated_sum()
        assert _scaled(gens)[0] % 21 == 0
        assert decompose_sn(gens) == {(3, 1): 1, (2, 1, 1): 1}

    def test_braid_failure_with_fractions(self):
        # both square to 1, but ab has trace 1, so order 6, not 3
        a = [[1, 0], [0, -1]]
        b = [[Fraction(1, 2), Fraction(3, 2)], [Fraction(1, 2), Fraction(-1, 2)]]
        assert mat_eq(mat_mul(b, b), identity(2))
        with pytest.raises(ValueError, match="braid failure at 1"):
            decompose_sn([a, b])

    @pytest.mark.parametrize("gens, message", [
        ([[[2]]], r"s_1\^2 != 1"),
        ([[[1]], [[-1]], [[3]]], r"s_3\^2 != 1"),
        # the transpositions (1 2), (2 3), (1 3) of S_3 on C^3 satisfy
        # every square and braid of S_4's generators, but (1 2) and
        # (1 3) do not commute
        ([[[0, 1, 0], [1, 0, 0], [0, 0, 1]],
          [[1, 0, 0], [0, 0, 1], [0, 1, 0]],
          [[0, 0, 1], [0, 1, 0], [1, 0, 0]]], "s_1, s_3 do not commute"),
    ])
    def test_names_the_first_failing_relation(self, gens, message):
        with pytest.raises(ValueError,
                           match="input is not an S_m-module: " + message):
            decompose_sn(gens)

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
                    P = perm_matrix(M, reps[mu])
                    ref = sum(P[r][r] for r in range(M.dim))
                    assert got[mu] == mn_character(lam, mu) == ref, (lam, mu)

    def test_class_traces_are_dense_traces(self):
        # trace(P g) over g's nonzeros against the trace of the full
        # product along the class word, on sparse and on dense stacks
        stacks = [speh_module(lam).s for m in range(1, 7)
                  for lam in partitions(m)] + [conjugated_sum()]
        for gens in stacks:
            m = len(gens) + 1
            dim = len(gens[0]) if gens else 1
            scale, scaled = _scaled(gens)
            got = _class_traces(scaled, scale, dim, m)
            assert sorted(got) == sorted(partitions(m))
            for mu in partitions(m):
                P = identity(dim)
                for a in class_word(mu):
                    P = textbook_mat_mul(P, scaled[a - 1])
                trace = sum(P[r][r] for r in range(dim))
                k = len(class_word(mu))
                assert trace % scale ** k == 0
                assert got[mu] == trace // scale ** k, (gens, mu)

    def test_rank_zero_front(self):
        assert decompose_sn([], dim=3, m=0) == {(): 3}
        assert decompose_sn([], dim=0, m=0) == {}
        assert decompose_sn([], dim=2, m=1) == {(1,): 2}


def assert_same_lift(gens):
    """`_scaled` gives the L and the int matrices of the entry-by-entry
    lift, every entry an int."""
    scale, lifted = _scaled(gens)
    ref_scale, ref = entrywise_lift(gens)
    assert scale == ref_scale
    assert lifted == ref
    assert all(type(v) is int for g in lifted for row in g for v in row)
    return scale


class TestLift:
    """`_scaled` reads only the nonzero entries after one pass over each
    matrix; `routes.entrywise_lift` reads every entry."""

    def test_int_fraction_and_fraction_zero_mixes(self):
        F = Fraction
        gens = [[[F(1, 2), 0, F(0)], [3, F(-5, 3), 0], [F(0), F(0), F(7)]],
                [[0, 0, 0], [F(0), 0, F(0)], [0, 0, 0]],
                [[F(4, 6), -1, 0], [0, F(0), F(1, 9)], [2, 0, F(-6, 4)]]]
        assert assert_same_lift(gens) == 18

    def test_denominators_that_share_factors(self):
        F = Fraction
        for dens, want in (((4, 6, 10), 60), ((12, 18, 8), 72),
                           ((9, 27, 3), 27), ((14, 21, 6, 35), 210)):
            g = [[F(k + 1, d) if c == k else 0 for c in range(len(dens))]
                 for k, d in enumerate(dens)]
            assert assert_same_lift([g, g[::-1]]) == want

    def test_an_all_int_stack(self):
        gens = [[[0, -1], [1, 0]], [[2, 0], [0, 0]], [[0, 0], [0, 0]]]
        assert assert_same_lift(gens) == 1
        assert _scaled(gens)[1] == gens

    def test_a_subclass_of_int_is_an_int(self):
        # bools pass the isinstance test, as they always have
        gens = [[[True, False], [Fraction(1, 2), -1]]]
        assert assert_same_lift(gens) == 2

    def test_speh_and_conjugated_stacks(self):
        for lam in ((2, 1), (3, 1), (2, 2, 1), (3, 2, 1)):
            M = speh_module(lam)
            assert_same_lift(M.s + M.x)
            D = g_bz_derivative(M, 2)
            assert_same_lift(D.s + D.x)
        assert_same_lift(conjugated_sum())

    def test_no_generators_and_dimension_zero(self):
        assert _scaled([]) == (1, [])
        assert _scaled([[], []]) == (1, [[], []])

    @pytest.mark.parametrize("bad", [0.5, 0.0, -0.0, QRational(0),
                                     QRational(Fraction(1, 2)), None])
    def test_refuses_an_entry_that_is_not_exact(self, bad):
        # zero or not, wherever it sits
        for where in ((0, 0, 0), (1, 1, 0), (1, 0, 1)):
            gens = [[[1, 0], [0, Fraction(1, 2)]], [[0, 0], [0, 1]]]
            g, r, c = where
            gens[g][r][c] = bad
            with pytest.raises(ValueError, match=type(bad).__name__):
                _scaled(gens)


def conjugated_sum() -> list:
    """The t's of (3,1) + (2,1,1) in a basis with denominators 3 and 7."""
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
    return gens


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
                                + tuple(n - i + v for v in u))
                naive = mat_add(naive, mat_scale(
                    Fraction((-1) ** length(u), factorial(i)),
                    perm_matrix(M, w)))
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
