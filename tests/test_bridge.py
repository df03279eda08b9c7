"""Exponential transport from graded modules to affine ones."""

from fractions import Fraction
from math import exp, log

import numpy as np
import pytest

from hecke_bz.affine.modules import bz_dimension, verify_relations
from hecke_bz.bridge import (
    bernoulli_numbers,
    bridge_bz_compare,
    exp_series,
    fc_series,
    fc_value,
    lambda_functor,
    matrix_function,
    theta_spectrum_check,
)
from hecke_bz.graded import g_bz_derivative, speh_module


class TestSeries:
    def test_bernoulli_values(self):
        B = bernoulli_numbers(12)
        assert B[0] == 1
        assert B[1] == Fraction(-1, 2)
        assert B[2] == Fraction(1, 6)
        assert B[3] == 0 and B[5] == 0 and B[7] == 0
        assert B[4] == Fraction(-1, 30)
        assert B[12] == Fraction(-691, 2730)

    def test_exp_series_is_shifted_exponential(self):
        coeffs = exp_series(0.5, 6)
        x = 0.5 + 0.3
        got = sum(a * 0.3 ** k for k, a in enumerate(coeffs))
        assert abs(got - exp(x)) < 1e-6

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


class TestMatrixFunction:
    def test_identity(self):
        F = matrix_function(np.eye(3), exp_series)
        assert np.abs(F - exp(1.0) * np.eye(3)).max() < 1e-12

    def test_empty(self):
        F = matrix_function(np.zeros((0, 0)), exp_series)
        assert F.size == 0

    def test_nonnormal_with_repeated_eigenvalue(self):
        P = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 1.0]])
        D = np.diag([0.2, 0.2, -0.4])
        A = P @ D @ np.linalg.inv(P)
        want = P @ np.diag(np.exp(np.diag(D))) @ np.linalg.inv(P)
        F = matrix_function(A, exp_series)
        assert np.abs(F - want).max() < 1e-9

    def test_center_snap_rescues_a_removable_singularity(self):
        # eigenvalues straddle 0, where the raw series division blows up
        p0 = log(3.0)

        def fc_fn(center, order):
            return fc_series(center, order, p0)

        A = np.diag([0.0, 5e-13])
        F = matrix_function(A, fc_fn, centers=(0.0, -p0))
        assert abs(F[0, 0] - fc_value(0.0, p0)) < 1e-9
        assert abs(F[1, 1] - fc_value(0.0, p0)) < 1e-9


class TestTransport:
    def test_exact_module_rejected(self):
        with pytest.raises(ValueError):
            lambda_functor(speh_module((2, 1)))

    def test_row_shape_gives_the_index_character(self):
        p0, kappa0 = log(3.0), 0.4
        G = speh_module((3,), scalar_mode="numeric", p0=p0, kappa0=kappa0)
        A = lambda_functor(G)
        q0, t0 = exp(p0), exp(kappa0)
        for j in range(2):
            assert abs(A.s[j][0][0] - q0) < 1e-12
        for k in range(3):
            assert abs(A.x[k][0][0] - t0 / q0 ** k) < 1e-12

    def test_column_shape_gives_the_sign_character(self):
        p0, kappa0 = log(2.0), -0.3
        G = speh_module((1, 1, 1), scalar_mode="numeric", p0=p0, kappa0=kappa0)
        A = lambda_functor(G)
        q0, t0 = exp(p0), exp(kappa0)
        for j in range(2):
            assert abs(A.s[j][0][0] + 1.0) < 1e-12
        for k in range(3):
            assert abs(A.x[k][0][0] - t0 * q0 ** k) < 1e-12

    @pytest.mark.parametrize("shape", [(2, 1), (2, 2), (3, 1)])
    def test_transported_module_satisfies_affine_relations(self, shape):
        G = speh_module(shape, scalar_mode="numeric",
                        p0=log(3.0), kappa0=0.5 * log(3.0))
        A = lambda_functor(G)
        report = verify_relations(A)
        assert report["pass"], report
        assert report["worst"] < 1e-10

    def test_theta_spectra_exponentiate(self):
        G = speh_module((3, 1), scalar_mode="numeric",
                        p0=log(4.0), kappa0=-log(4.0))
        A = lambda_functor(G)
        report = theta_spectrum_check(G, A)
        assert report["pass"], report

    def test_wrong_twist_argument_breaks_the_relations(self):
        # twist by Fc(E_{j+1} - E_j) instead of Fc(E_j - E_{j+1}); the
        # relation check has to catch the flipped difference
        from hecke_bz.affine.modules import FinDimAffineModule

        p0 = log(3.0)
        G = speh_module((2, 1), scalar_mode="numeric", p0=p0, kappa0=0.2)
        jm = [np.asarray(E, dtype=float) for E in G.x]
        eye = np.eye(G.dim)

        def fc_fn(center, order):
            return fc_series(center, order, p0)

        theta = [matrix_function(E, exp_series).tolist() for E in jm]
        tee = []
        for j in range(G.n - 1):
            g = np.asarray(G.s[j], dtype=float)
            twist = matrix_function(jm[j + 1] - jm[j], fc_fn,
                                    centers=(0.0, -p0))
            tee.append(((g + eye) @ twist - eye).tolist())
        bad = FinDimAffineModule(G.n, G.dim, tee, theta, exp(p0))
        report = verify_relations(bad)
        assert not report["pass"]
        assert report["worst"] > 1e-2


class TestBridgeCompare:
    def test_both_routes_agree_on_a_speh_module(self):
        G = speh_module((2, 2), scalar_mode="numeric",
                        p0=log(3.0), kappa0=0.5)
        for i in range(5):
            report = bridge_bz_compare(G, i)
            assert report["pass"], (i, report)
            assert report["left_dim"] == report["right_dim"]

    def test_sign_dimension_matches_across_the_bridge(self):
        G = speh_module((2, 1, 1), scalar_mode="numeric",
                        p0=log(2.0), kappa0=-0.5)
        A = lambda_functor(G)
        assert bz_dimension(A, G.n) == g_bz_derivative(G, G.n).dim
