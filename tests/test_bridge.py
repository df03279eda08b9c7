"""Exponential transport from graded modules to affine ones."""

import gc
from math import exp, expm1, log

import numpy as np
import pytest

import hecke_bz.bridge
from hecke_bz.affine.modules import (
    FinDimAffineModule,
    bz_derivative,
    bz_dimension,
    principal_series,
    verify_relations,
)
from hecke_bz.bridge import (
    bridge_bz_compare,
    fc_series,
    fc_value,
    lambda_functor,
    matrix_function,
    theta_spectrum_check,
)
from hecke_bz.combinatorics import partitions
from hecke_bz.graded import GradedModule, g_bz_derivative, pin, speh_module
from hecke_bz.module_core import induce
from routes import graded_char


def e_quotient(x: float, p0: float) -> float:
    """Fc(x) = E(x + p0) / E(x) with E(y) = expm1(y) / y, for x and
    x + p0 both nonzero."""
    return (expm1(x + p0) / (x + p0)) / (expm1(x) / x)


class TestSeries:
    @pytest.mark.parametrize("q0", [2.0, 3.0, 4.0])
    def test_removable_values(self, q0):
        p0 = log(q0)
        assert abs(fc_value(0.0, p0) - (q0 - 1) / p0) < 1e-12
        assert abs(fc_value(-p0, p0) - p0 * q0 / (q0 - 1)) < 1e-12
        assert abs(fc_value(p0, p0) - (q0 + 1) / 2) < 1e-12

    def test_removable_values_are_limits(self):
        # approach both singular centers from a regular direction
        q0 = 3.0
        p0 = log(q0)
        for center, want in [(0.0, (q0 - 1) / p0),
                             (-p0, p0 * q0 / (q0 - 1))]:
            for h in (1e-4, 1e-5):
                assert abs(fc_value(center + h, p0) - want) < 1e-3

    def test_series_matches_direct_values_at_regular_center(self):
        p0 = log(2.0)
        coeffs = fc_series(0.9, 8, p0)
        for h in (0.05, -0.03):
            got = sum(a * h ** k for k, a in enumerate(coeffs))
            assert abs(got - fc_value(0.9 + h, p0)) < 1e-9

    @pytest.mark.parametrize("q0", [2.0, 3.0, 4.0])
    @pytest.mark.parametrize("h", [1e-13, -1e-13, 1e-10, -1e-10,
                                   1e-7, -1e-7])
    def test_values_next_to_the_apparent_poles(self, q0, h):
        # E(x + p0) / E(x) has no pole to cancel: the value h away from
        # 0 or -p0 is the first-order Taylor polynomial there
        p0 = log(q0)
        for center in (0.0, -p0):
            got = fc_series(center + h, 0, p0)[0]
            want = fc_value(center, p0) + h * fc_series(center, 1, p0)[1]
            assert abs(got - want) <= 1e-12 * abs(want), (center, got, want)

    @pytest.mark.parametrize("x", [30.0, -30.0, -50.0])
    def test_values_far_out_are_the_e_quotient(self, x):
        p0 = log(3.0)
        assert abs(fc_value(x, p0) - e_quotient(x, p0)) <= \
            4e-16 * e_quotient(x, p0)


class TestMatrixFunction:
    def test_identity(self):
        F = matrix_function(np.eye(3), exp)
        assert np.abs(F - exp(1.0) * np.eye(3)).max() < 1e-12

    def test_empty(self):
        F = matrix_function(np.zeros((0, 0)), exp)
        assert F.size == 0

    def test_nonnormal_with_repeated_eigenvalue(self):
        P = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 1.0]])
        D = np.diag([0.2, 0.2, -0.4])
        A = P @ D @ np.linalg.inv(P)
        want = P @ np.diag(np.exp(np.diag(D))) @ np.linalg.inv(P)
        F = matrix_function(A, exp)
        assert np.abs(F - want).max() < 1e-9

    def test_jordan_block_is_rejected(self):
        # exp of [[0, 1], [0, 0]] is [[1, 1], [0, 1]]; the eigenvalues
        # alone would give the identity
        with pytest.raises(ArithmeticError):
            matrix_function([[0.0, 1.0], [0.0, 0.0]], exp)

    def test_nearly_defective_matrix_is_rejected(self):
        # eigenvalues 1e-12 apart with a 1e-3 coupling: the eigenvector
        # matrix has condition about 2e9, beyond 1 / cluster_tol
        A = [[1.0, 1e-3], [0.0, 1.0 + 1e-12]]
        with pytest.raises(ArithmeticError):
            matrix_function(A, exp)

    @pytest.mark.parametrize("A", [[[0.0, 1.0], [0.0, 0.0]], [[0.5]]],
                             ids=["jordan", "1x1"])
    @pytest.mark.parametrize("cluster_tol", [float("nan"), -1e-9,
                                             float("inf")])
    def test_bad_cluster_tol_is_rejected(self, A, cluster_tol):
        # NaN and negative tolerances would switch the Jordan-block guard
        # off; inf would pass a 1 x 1 matrix
        with pytest.raises(ValueError, match="cluster_tol"):
            matrix_function(A, exp, cluster_tol=cluster_tol)

    def test_zero_cluster_tol_is_allowed(self):
        F = matrix_function(np.diag([0.0, 1.0]), exp, cluster_tol=0.0)
        assert np.abs(F - np.diag([1.0, exp(1.0)])).max() < 1e-12

    def test_fc_next_to_both_apparent_poles(self):
        # 2e-9 from 0 and from -p0: Fc there is a plain quotient of
        # positive values
        p0 = log(3.0)
        xs = [2e-9, -p0 + 2e-9]
        F = matrix_function(np.diag(xs), lambda x: fc_value(x, p0))
        for k, x in enumerate(xs):
            want = e_quotient(x, p0)
            assert abs(F[k, k] - want) <= 1e-12 * want

    @pytest.mark.parametrize("A", [[[0.0, -1.0], [1.0, 0.0]],
                                   [[0.3, -2.0], [2.0, 0.3]]],
                             ids=["rotation", "scaled-rotation"])
    def test_complex_spectrum_is_rejected(self, A):
        # the real parts alone would give a multiple of the identity
        with pytest.raises(ArithmeticError, match="not numerically real"):
            matrix_function(A, exp)


def _pinned_spehs(max_n=5, pins=((2.0, 0.5), (3.0, -1.0))):
    """Every Speh module of rank at most max_n, pinned at each
    (q0, kappa / p) of pins."""
    return [pin(speh_module(lam), log(q0), ratio * log(q0))
            for q0, ratio in pins
            for n in range(1, max_n + 1) for lam in partitions(n)]


class TestDiagonalMatrixFunction:
    def test_transport_inputs_match_the_eigendecomposition(
            self, monkeypatch):
        # every diagonal matrix the transport of the Speh modules and of
        # their derivatives meets: the closed form gives the floats of
        # S diag(f(w)) S^-1 bit for bit, with no eig or inv
        seen = []
        inner = hecke_bz.bridge.matrix_function

        def recorded(A, f, *args, **kwargs):
            seen.append((np.array(A, dtype=float), f))
            return inner(A, f, *args, **kwargs)

        monkeypatch.setattr(hecke_bz.bridge, "matrix_function", recorded)
        for G in _pinned_spehs():
            for i in range(G.n + 1):
                bridge_bz_compare(G, i)
        diagonal = [(A, f) for A, f in seen
                    if np.array_equal(A, np.diag(np.diagonal(A)))]
        assert len(diagonal) > 100
        want = []
        for A, f in diagonal:
            w, S = np.linalg.eig(A)
            want.append(S @ np.diag([f(float(v)) for v in w])
                        @ np.linalg.inv(S))

        def refused(*args, **kwargs):
            raise AssertionError("a diagonal input reached LAPACK")

        monkeypatch.setattr(np.linalg, "eig", refused)
        monkeypatch.setattr(np.linalg, "inv", refused)
        for (A, f), F in zip(diagonal, want):
            got = inner(A, f)
            assert got.dtype == F.dtype and got.tobytes() == F.tobytes()

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     -float("inf")])
    def test_non_finite_diagonal_reaches_eig(self, bad):
        with pytest.raises(np.linalg.LinAlgError):
            matrix_function(np.diag([0.5, bad]), exp)

    def test_tiny_coupling_is_still_refused(self):
        # not diagonal: one off-diagonal 1e-300 makes the eigenvector
        # condition estimate about 6.7e153
        with pytest.raises(ArithmeticError,
                           match="not safely diagonalizable"):
            matrix_function([[0.0, 1e-300], [0.0, 0.0]], exp)

    def test_cluster_tol_above_one_refuses_as_before(self):
        # condition estimate 1 times cluster_tol 2 exceeds 1, as on the
        # eigendecomposition route; a 1 x 1 matrix is never checked
        with pytest.raises(ArithmeticError, match="1.000e\\+00"):
            matrix_function(np.diag([0.0, 1.0]), exp, cluster_tol=2.0)
        assert matrix_function([[0.0]], exp, cluster_tol=2.0)[0, 0] == 1.0


class TestTransport:
    def test_exact_module_rejected(self):
        with pytest.raises(ValueError):
            lambda_functor(speh_module((2, 1)))

    @pytest.mark.parametrize("cluster_tol", [float("nan"), -1e-9,
                                             float("inf")])
    def test_bad_cluster_tol_is_rejected(self, cluster_tol):
        G = pin(speh_module((2, 1)), log(3.0), 0.2)
        with pytest.raises(ValueError, match="cluster_tol"):
            lambda_functor(G, cluster_tol)

    def test_row_shape_gives_the_index_character(self):
        p0, kappa0 = log(3.0), 0.4
        G = pin(speh_module((3,)), p0, kappa0)
        A = lambda_functor(G)
        q0, t0 = exp(p0), exp(kappa0)
        for j in range(2):
            assert abs(A.s[j][0][0] - q0) < 1e-12
        for k in range(3):
            assert abs(A.x[k][0][0] - t0 / q0 ** k) < 1e-12

    def test_column_shape_gives_the_sign_character(self):
        p0, kappa0 = log(2.0), -0.3
        G = pin(speh_module((1, 1, 1)), p0, kappa0)
        A = lambda_functor(G)
        q0, t0 = exp(p0), exp(kappa0)
        for j in range(2):
            assert abs(A.s[j][0][0] + 1.0) < 1e-12
        for k in range(3):
            assert abs(A.x[k][0][0] - t0 * q0 ** k) < 1e-12

    @pytest.mark.parametrize("shape", [(2, 1), (2, 2), (3, 1)])
    def test_transported_module_satisfies_affine_relations(self, shape):
        G = pin(speh_module(shape), log(3.0), 0.5 * log(3.0))
        A = lambda_functor(G)
        report = verify_relations(A)
        assert report["pass"], report
        assert report["worst"] < 1e-10

    def test_theta_spectra_exponentiate(self):
        G = pin(speh_module((3, 1)), log(4.0), -log(4.0))
        A = lambda_functor(G)
        report = theta_spectrum_check(G, A)
        assert report["pass"], report

    # the spectra are zipped generator by generator, so a pair that is not
    # numeric, or not of one rank and dimension, is refused
    def test_theta_check_refuses_an_unpinned_graded_module(self):
        A = lambda_functor(pin(speh_module((2,)), 0.5, 0.2))
        with pytest.raises(ValueError, match="G must be pinned"):
            theta_spectrum_check(speh_module((2,)), A)

    def test_theta_check_refuses_an_exact_affine_module(self):
        G = pin(speh_module((1, 1)), 0.5, 0.2)
        with pytest.raises(ValueError, match="A have float entries"):
            theta_spectrum_check(G, principal_series(2, (1, 3)))

    def test_theta_check_refuses_another_rank(self):
        G = pin(speh_module((2,)), 0.5, 0.2)
        A = lambda_functor(pin(speh_module((3,)), 0.5, 0.2))
        with pytest.raises(ValueError, match=r"\(2, 1\), A has \(3, 1\)"):
            theta_spectrum_check(G, A)

    def test_theta_check_refuses_another_dimension(self):
        G = pin(speh_module((1, 1, 1)), 0.5, 0.2)
        A = lambda_functor(pin(speh_module((2, 1)), 0.5, 0.2))
        with pytest.raises(ValueError, match=r"\(3, 1\), A has \(3, 2\)"):
            theta_spectrum_check(G, A)

    def test_repeated_contents_exponentiate_exactly(self):
        # exp is applied to each eigenvalue itself, so a theta's spectrum
        # is exp of the E spectrum to the last bit, repeated contents
        # included
        p0 = log(2.0)
        G = pin(speh_module((2, 1, 1, 1)), p0, 1.5 * p0)
        assert theta_spectrum_check(G, lambda_functor(G))["worst"] == 0.0

    def test_wrong_twist_argument_breaks_the_relations(self):
        # twist by Fc(E_{j+1} - E_j) instead of Fc(E_j - E_{j+1}); the
        # relation check has to catch the flipped difference
        from hecke_bz.affine.modules import FinDimAffineModule

        p0 = log(3.0)
        G = pin(speh_module((2, 1)), p0, 0.2)
        jm = [np.asarray(E, dtype=float) for E in G.x]
        eye = np.eye(G.dim)
        theta = [matrix_function(E, exp).tolist() for E in jm]
        tee = []
        for j in range(G.n - 1):
            g = np.asarray(G.s[j], dtype=float)
            twist = matrix_function(jm[j + 1] - jm[j],
                                    lambda x: fc_value(x, p0))
            tee.append(((g + eye) @ twist - eye).tolist())
        bad = FinDimAffineModule(G.n, G.dim, tee, theta, exp(p0))
        report = verify_relations(bad)
        assert not report["pass"]
        assert report["worst"] > 1e-2


class TestBridgeCompare:
    def test_both_routes_agree_on_a_speh_module(self):
        G = pin(speh_module((2, 2)), log(3.0), 0.5)
        for i in range(5):
            report = bridge_bz_compare(G, i)
            assert report["pass"], (i, report)
            assert report["left_dim"] == report["right_dim"]

    def test_sign_dimension_matches_across_the_bridge(self):
        G = pin(speh_module((2, 1, 1)), log(2.0), -0.5)
        A = lambda_functor(G)
        assert bz_dimension(A, G.n) == g_bz_derivative(G, G.n).dim

    def test_orders_zero_and_one_compare_a_module_with_itself(self):
        # both routes hold the same matrices at orders 0 and 1, and
        # different ones from order 2 on; pairs of zero-dimensional
        # matrices are not compared
        shared = unshared = 0
        for G in _pinned_spehs():
            for i in range(G.n + 1):
                report = bridge_bz_compare(G, i)
                m = G.n - i
                pairs = max(m - 1, 0) + m
                assert report["shared"] == (pairs if i <= 1 else 0), \
                    (G.n, i, report)
                shared += report["shared"]
                if report["right_dim"]:
                    unshared += pairs - report["shared"]
        assert (shared, unshared) == (410, 120)

    def test_realness_is_judged_per_generator(self):
        # Theta_1 is a rotation; next to Theta_2 = 1e9 I a scale taken
        # over all the thetas at once would pass its imaginary parts
        A = FinDimAffineModule(
            2, 2, [[[-1.0, 0.0], [0.0, -1.0]]],
            [[[0.0, -1.0], [1.0, 0.0]], [[1e9, 0.0], [0.0, 1e9]]], 2.0)
        G = GradedModule(
            2, 2, [[[-1.0, 0.0], [0.0, -1.0]]],
            [[[0.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]]], log(2.0))
        with pytest.raises(ArithmeticError, match="not numerically real"):
            theta_spectrum_check(G, A)


class TestPrincipalSeriesThroughTheBridge:
    """Graded principal series, induced from distinct rank-1 characters:
    exact modules that are not Speh modules, pinned and transported."""

    @pytest.mark.parametrize("chars", [
        (0, 3), (0, 1), (0, 3, 7), (-2, 0, 1), (0, 1, 2, 3), (3, 0, -2, 1)],
        ids=str)
    def test_relations_and_both_routes(self, chars):
        M = induce(*(graded_char(a) for a in chars))
        G = pin(M, log(3.0), 0.5)
        report = verify_relations(lambda_functor(G))
        assert report["pass"], report
        for i in range(G.n + 1):
            report = bridge_bz_compare(G, i)
            assert report["pass"], (i, report)
            # and the float derivative has the exact one's dimension
            assert report["left_dim"] == g_bz_derivative(M, i).dim, i

    def test_a_wide_spread_is_judged_at_its_scale(self):
        # Theta entries reach e^(0.5 + 9 log 3), about 3.2e4: the float
        # residual of the relations is above an absolute 1e-8, and far
        # below 1e-8 times the generators' largest entry
        G = pin(induce(*(graded_char(a) for a in (0, 2, 5, 9))),
                log(3.0), 0.5)
        A = lambda_functor(G)
        scale = max(abs(v) for g in A.s + A.x for row in g for v in row)
        report = verify_relations(A)
        assert report["pass"], report
        assert 1e-8 < report["worst"] < 1e-10 * scale

    def test_a_pinned_derivative_is_transported_afresh(self):
        # a pin keeps no provenance: the order-1 derivative of an exact
        # module, pinned, is transported as a module of its own
        D = g_bz_derivative(induce(graded_char(0), graded_char(3)), 1)
        G = pin(D, log(3.0), 0.5)
        assert G.meta == {}
        assert verify_relations(lambda_functor(G))["pass"]

    def test_a_repeated_character_is_refused(self):
        # E_1 at (0, 0) is a Jordan block (the induced module is not
        # semisimple for the E's): no eigendecomposition, no transport
        G = pin(induce(graded_char(0), graded_char(0)), log(3.0), 0.5)
        with pytest.raises(ArithmeticError):
            lambda_functor(G)


class TestTransportMemo:
    @staticmethod
    def _module():
        return pin(speh_module((3, 1)), log(3.0), 0.5)

    def test_transport_is_computed_once(self):
        G = self._module()
        assert lambda_functor(G) is lambda_functor(G)

    def test_each_cluster_tol_has_its_own_transport(self):
        G = self._module()
        A, B = lambda_functor(G), lambda_functor(G, 1e-10)
        assert A is not B
        assert (A.s, A.x) == (B.s, B.x)
        assert lambda_functor(G, 1e-10) is B

    def test_transports_leave_no_reference_cycle(self):
        # the module holds its transport; a link back would make every
        # derivative transported in a sweep garbage for the cycle collector
        G = self._module()
        gc.collect()
        gc.disable()
        try:
            for i in range(G.n + 1):
                bridge_bz_compare(G, i)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_a_sweep_transports_the_module_once(self, monkeypatch):
        G = self._module()
        n, sizes = G.n, []
        inner = hecke_bz.bridge.matrix_function

        def counted(A, *args, **kwargs):
            sizes.append(len(A))
            return inner(A, *args, **kwargs)

        monkeypatch.setattr(hecke_bz.bridge, "matrix_function", counted)
        lambda_functor(G)
        # n thetas and n - 1 twists
        assert sizes.count(G.dim) == 2 * n - 1
        sizes.clear()
        for i in range(n + 1):
            assert bridge_bz_compare(G, i)["pass"]
        # G itself is not transported again, and neither is its order-1
        # derivative, which keeps G's space; the deeper ones of (3, 1)
        # are smaller.
        assert sizes.count(G.dim) == 0
        assert all(g_bz_derivative(G, i).dim < G.dim
                   for i in range(2, n + 1))

    def test_order_one_takes_the_parent_transport(self, monkeypatch):
        G = self._module()
        A = lambda_functor(G)
        calls = []
        inner = hecke_bz.bridge.matrix_function

        def counted(*args, **kwargs):
            calls.append(args)
            return inner(*args, **kwargs)

        monkeypatch.setattr(hecke_bz.bridge, "matrix_function", counted)
        got = lambda_functor(g_bz_derivative(G, 1))
        assert calls == []
        want = bz_derivative(A, 1)
        assert (got.n, got.dim, got.param) == (want.n, want.dim, want.param)
        assert (got.s, got.x) == (want.s, want.x)


def _old_route_worst(G, i) -> float:
    """bridge_bz_compare's residual with two eigendecompositions per
    generator: eigvals for the spectrum, np.poly of the matrix for the
    characteristic polynomial."""
    left = bz_derivative(lambda_functor(G), i)
    right = lambda_functor(g_bz_derivative(G, i))
    worst = 0.0
    for gl, gr in zip(left.s + left.x, right.s + right.x):
        al, ar = np.array(gl, dtype=float), np.array(gr, dtype=float)
        sl = sorted(float(v) for v in np.linalg.eigvals(al).real)
        sr = sorted(float(v) for v in np.linalg.eigvals(ar).real)
        for a, b in zip(sl, sr):
            worst = max(worst, abs(a - b) / max(1.0, abs(b)))
        for a, b in zip([float(v) for v in np.poly(al)],
                        [float(v) for v in np.poly(ar)]):
            worst = max(worst, abs(a - b) / max(1.0, abs(b)))
    return worst


@pytest.mark.parametrize("shape", [lam for n in range(1, 5)
                                   for lam in partitions(n)], ids=str)
@pytest.mark.parametrize("q0, ratio", [(2.0, 0.5), (3.0, -1.0)])
def test_shared_eigendecomposition_is_bit_identical(shape, q0, ratio):
    p0 = log(q0)
    G = pin(speh_module(shape), p0, ratio * p0)
    for i in range(sum(shape) + 1):
        report = bridge_bz_compare(G, i)
        if report["right_dim"]:
            assert report["worst"] == _old_route_worst(G, i), i
