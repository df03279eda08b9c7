"""Graded-algebra modules: Speh family, derivatives, recognition."""

import hashlib
from fractions import Fraction
from math import inf, nan

import numpy as np
import pytest

from hecke_bz.combinatorics import (
    hook_dimension,
    partitions,
    standard_tableaux,
    vertical_strips,
)
from hecke_bz.graded import (
    GradedModule,
    decompose_as_speh,
    g_bz_derivative,
    pieri_verify,
    pin,
    speh_module,
)
from hecke_bz.linalg import mat_eq, mat_mul, rref
from hecke_bz.module_core import (
    check_relations,
    induce,
    svd_rank,
    tail_kernel,
)
from hecke_bz.symgroup import sign_idempotent_matrix


def block_diag(A, B):
    da, db = len(A), len(B)
    wa = len(A[0]) if da else 0
    wb = len(B[0]) if db else 0
    out = [[0] * (wa + wb) for _ in range(da + db)]
    for r in range(da):
        for c in range(wa):
            out[r][c] = A[r][c]
    for r in range(db):
        for c in range(wb):
            out[da + r][wa + c] = B[r][c]
    return out


def direct_sum(M1, M2):
    assert M1.n == M2.n
    s = [block_diag(a, b) for a, b in zip(M1.s, M2.s)]
    x = [block_diag(a, b) for a, b in zip(M1.x, M2.x)]
    return GradedModule(M1.n, M1.dim + M2.dim, s, x)


SPEH_DIGEST = \
    "c9a849999835235e97a1c87fc0eb871264d208ea879cecd96804b582a4bb169a"


class TestSpehConstruction:
    @pytest.mark.parametrize("shape", [(3,), (2, 1), (2, 2), (3, 1, 1)])
    def test_dimension_is_hook_count(self, shape):
        M = speh_module(shape)
        assert M.dim == hook_dimension(shape)
        assert M.n == sum(shape)

    def test_first_generator_is_kappa(self):
        # E_1 = kappa is 0 at (p, kappa) = (1, 0)
        M = speh_module((2, 2))
        assert M.x[0] == [[0] * M.dim for _ in range(M.dim)]

    def test_jm_diagonal_carries_contents(self):
        M = speh_module((2, 1))
        # E_3 = kappa - p * content: the letter 3 has content 1 and -1 over
        # the two standard tableaux
        assert sorted(M.x[2][r][r] for r in range(M.dim)) == [-1, 1]

    def test_numeric_mode_requires_both_pins(self):
        with pytest.raises(ValueError, match="finite kappa0"):
            pin(speh_module((2, 1)), 0.5, None)
        with pytest.raises(ValueError):
            speh_module((2, 1), scalar_mode="unknown")

    def test_rank_mismatch_rejected(self):
        M = speh_module((2, 1))
        with pytest.raises(ValueError):
            GradedModule(M.n, M.dim, M.s, M.x[:-1])

    def test_every_entry_is_pinned(self):
        # sha256 over the type and value of every entry of the exact Speh
        # module and of its pin at (0.7, -1.3), for all shapes of n <= 7;
        # recorded from the earlier tableau-object construction
        h = hashlib.sha256()
        for n in range(8):
            for lam in partitions(n):
                for M in (speh_module(lam),
                          pin(speh_module(lam), 0.7, -1.3)):
                    h.update(f"{lam} {M.n} {M.dim} {M.param!r}\n".encode())
                    for g in M.s + M.x:
                        for row in g:
                            h.update(" ".join(f"{type(v).__name__}:{v!r}"
                                              for v in row).encode() + b"\n")
        assert h.hexdigest() == SPEH_DIGEST


PINS = [(0.7, -1.3), (-0.5, 2.0)]


class TestPin:
    """`pin`, the one way from an exact graded module to a float one."""

    def test_a_pinned_module_is_refused(self):
        G = pin(speh_module((2, 1)), 0.5, 1.0)
        with pytest.raises(ValueError, match="already pinned"):
            pin(G, 0.5, 1.0)

    @pytest.mark.parametrize("p0, kappa0, name", [
        (None, 1.0, "p0"), (nan, 1.0, "p0"), (inf, 1.0, "p0"), (-inf, 1.0, "p0"),
        (0.5, nan, "kappa0"), (0.5, inf, "kappa0")])
    def test_missing_or_non_finite_pin_is_refused(self, p0, kappa0, name):
        with pytest.raises(ValueError, match=f"finite {name}, not"):
            pin(speh_module((2, 1)), p0, kappa0)

    @pytest.mark.parametrize("p0, kappa0", PINS)
    def test_speh_entries_from_the_tableaux(self, p0, kappa0):
        # second route: E_k is diagonal with kappa0 - p0 c_k, c_k read
        # off the tableau contents, and t_j is the float of the exact one
        for n in range(1, 7):
            for shape in partitions(n):
                M = speh_module(shape)
                G = pin(M, p0, kappa0)
                assert (G.n, G.dim, G.param) == (M.n, M.dim, p0)
                tabs = standard_tableaux(shape)
                for k in range(n):
                    for r in range(G.dim):
                        for c in range(G.dim):
                            want = kappa0 - p0 * tabs[r][k] if r == c else 0
                            got = G.x[k][r][c]
                            assert got == want and type(got) is type(want)
                for g, h in zip(G.s, M.s):
                    assert g == [[float(v) for v in row] for row in h]
                    assert all(type(v) is float for row in g for v in row)

    def test_any_exact_module(self):
        # an induced module, whose E's have nonzero off-diagonal entries
        M = induce(speh_module((1,)), speh_module((2,)))
        assert any(w for f in M.x for r, row in enumerate(f)
                   for c, w in enumerate(row) if r != c)
        G = pin(M, 0.7, -1.3)
        for e, f in zip(G.x, M.x):
            for r, (row, frow) in enumerate(zip(e, f)):
                for c, (v, w) in enumerate(zip(row, frow)):
                    assert v == -1.3 * (r == c) + 0.7 * float(w)
        assert check_relations(G)["pass"]


class TestOneScalarField:
    """An exact graded module lives over Q at (p, kappa) = (1, 0); every
    pin is recovered from it."""

    @pytest.mark.parametrize("p0, kappa0", PINS)
    def test_pin_of_the_exact_speh_is_the_numeric_speh(self, p0, kappa0):
        # the one test of the legacy scalar mode, which the benchmark
        # harness still calls to build its transport modules: a check that
        # the mode hands its module to `pin`.  `pin` itself is checked
        # against the tableaux in TestPin and against SPEH_DIGEST
        for n in range(1, 7):
            for shape in partitions(n):
                got = pin(speh_module(shape), p0, kappa0)
                want = speh_module(shape, "numeric", p0, kappa0)
                assert (got.s, got.x) == (want.s, want.x), shape

    @pytest.mark.parametrize("p0, kappa0", PINS)
    def test_pinned_derivatives_satisfy_the_relations(self, p0, kappa0):
        # homogeneity: relations that hold at p = 1 hold at every pin
        for n in range(1, 7):
            for shape in partitions(n):
                M = speh_module(shape)
                for i in range(n + 1):
                    D = pin(g_bz_derivative(M, i), p0, kappa0)
                    report = check_relations(D)
                    assert report["pass"], (shape, i, report)

    def test_entries_are_rational(self):
        for n in range(1, 6):
            for shape in partitions(n):
                M = speh_module(shape)
                for i in range(n + 1):
                    D = g_bz_derivative(M, i)
                    for mat in D.s + D.x:
                        for row in mat:
                            for v in row:
                                assert type(v) in (int, Fraction), \
                                    (shape, i, v)


class TestGradedRelations:
    def test_exact_all_shapes_through_five(self):
        for n in range(1, 6):
            for shape in partitions(n):
                report = check_relations(speh_module(shape))
                assert report["pass"], (shape, report)
                assert report["worst"] == 0.0

    def test_numeric_pin(self):
        M = pin(speh_module((3, 1)), 0.7, -1.3)
        report = check_relations(M)
        assert report["pass"], report
        assert report["worst"] <= 1e-12

    def test_tampered_module_fails(self):
        M = speh_module((2, 1))
        M.x[1][0][0] = M.x[1][0][0] + 1
        report = check_relations(M)
        assert not report["pass"]


class TestDerivative:
    def test_zeroth_is_the_module_itself(self):
        M = speh_module((2, 2))
        assert g_bz_derivative(M, 0) is M

    def test_out_of_range_order(self):
        M = speh_module((2, 1))
        with pytest.raises(ValueError):
            g_bz_derivative(M, 4)

    def test_full_derivative_detects_the_sign_column(self):
        assert g_bz_derivative(speh_module((1, 1, 1)), 3).dim == 1
        assert g_bz_derivative(speh_module((3,)), 3).dim == 0

    def test_derived_module_satisfies_relations(self):
        M = speh_module((3, 2))
        for i in (1, 2, 3):
            D = g_bz_derivative(M, i)
            assert check_relations(D)["pass"], i

    def test_numeric_route_matches_exact_dimensions(self):
        for shape in [(2, 2), (3, 1), (2, 1, 1)]:
            exact = speh_module(shape)
            numeric = pin(exact, 0.5, 1.0)
            for i in range(sum(shape) + 1):
                de = g_bz_derivative(exact, i).dim
                dn = g_bz_derivative(numeric, i).dim
                assert de == dn, (shape, i, de, dn)


class TestTailKernelIsTheSignImage:
    """`tail_kernel` against the second route: the image of the tail sign
    idempotent P, which B spans when P B = B and rank P = dim B."""

    def test_exact_every_speh_through_six(self):
        for n in range(1, 7):
            for shape in partitions(n):
                M = speh_module(shape)
                for i in range(n + 1):
                    V = tail_kernel(M, i)
                    P = sign_idempotent_matrix(M.s, n, i)
                    assert mat_eq(mat_mul(P, V.basis), V.basis), (shape, i)
                    assert len(rref(P)[1]) == V.dim, (shape, i)

    def test_numeric_at_a_pin(self):
        for n in range(1, 7):
            for shape in partitions(n):
                M = pin(speh_module(shape), 0.7, 1.3)
                for i in range(n + 1):
                    V = tail_kernel(M, i)
                    P = np.array(sign_idempotent_matrix(M.s, n, i),
                                 dtype=float)
                    assert np.allclose(P @ V.basis, V.basis,
                                       atol=1e-12), (shape, i)
                    sv = np.linalg.svd(P, compute_uv=False)
                    assert svd_rank(sv) == V.dim, (shape, i)


class TestDecomposeAsSpeh:
    @pytest.mark.parametrize("shape", [(2,), (2, 1), (2, 2), (3, 1, 1)])
    def test_recognizes_itself(self, shape):
        report = decompose_as_speh(speh_module(shape))
        assert report["pass"], report
        assert report["multiplicities"] == {tuple(shape): 1}

    def test_recognizes_a_direct_sum(self):
        M = direct_sum(speh_module((2, 1)), speh_module((3,)))
        report = decompose_as_speh(M)
        assert report["pass"], report
        assert report["multiplicities"] == {(3,): 1, (2, 1): 1}

    def test_recognizes_a_repeated_summand(self):
        S = speh_module((2, 1))
        report = decompose_as_speh(direct_sum(S, speh_module((2, 1))))
        assert report["pass"]
        assert report["multiplicities"] == {(2, 1): 2}

    def test_tampered_jm_is_rejected(self):
        M = direct_sum(speh_module((2, 1)), speh_module((3,)))
        M.x[2][0][0] = M.x[2][0][0] + 1
        report = decompose_as_speh(M)
        assert not report["pass"]
        assert not (report["jm_recursion"] and report["trace_match"])

    def test_numeric_module_rejected(self):
        M = pin(speh_module((2, 1)), 0.5, 1.0)
        with pytest.raises(ValueError):
            decompose_as_speh(M)


class TestPieri:
    def test_known_small_cases(self):
        rep = pieri_verify((2, 2), 1)
        assert rep["pass"] and rep["computed"] == [[2, 1]]
        rep = pieri_verify((2, 2), 2)
        assert rep["pass"] and rep["computed"] == [[1, 1]]
        rep = pieri_verify((3, 1), 1)
        assert rep["pass"] and rep["computed"] == [[3], [2, 1]]
        rep = pieri_verify((3, 1), 2)
        assert rep["pass"] and rep["computed"] == [[2]]

    def test_full_sweep_through_five(self):
        for n in range(1, 6):
            for shape in partitions(n):
                for i in range(n + 1):
                    rep = pieri_verify(shape, i)
                    assert rep["pass"], rep
                    assert rep["dim"] == sum(
                        hook_dimension(mu) for mu in rep["predicted"])

    def test_spot_checks_at_six(self):
        for shape, i in [((4, 2), 1), ((3, 2, 1), 2), ((2, 2, 1, 1), 3)]:
            rep = pieri_verify(shape, i)
            assert rep["pass"], rep
            assert rep["predicted"] == [
                list(mu)
                for mu in sorted(vertical_strips(shape, i), reverse=True)]
