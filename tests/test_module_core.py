"""The presentation shared by the affine and the graded algebra."""

from fractions import Fraction
from math import factorial, isnan, log, nan

import numpy as np
import pytest

from hecke_bz.affine.modules import (
    FinDimAffineModule,
    bz_derivative,
    principal_series,
    verify_relations,
)
from hecke_bz.bridge import lambda_functor
from hecke_bz.graded import (
    GradedModule,
    g_bz_derivative,
    pin,
    speh_module,
)
from hecke_bz.linalg import (
    identity,
    is_zero_matrix,
    mat_mul,
    mat_scale,
    mat_sub,
)
from hecke_bz.module_core import (
    NUMERIC_TOL,
    Module,
    check_relations,
    induce,
    svd_rank,
    tail_kernel,
)
from routes import graded_char

P0 = log(3.0)


def _speh(mode):
    M = speh_module((2, 1))
    return M if mode == "exact" else pin(M, P0, 0.5 * P0)


def _affine(mode):
    if mode == "exact":
        return principal_series(3, (2, 3, 5))
    return lambda_functor(_speh("numeric"))


# algebra -> (module factory, checker, family names)
ALGEBRAS = {
    "affine": (_affine, verify_relations,
               ["quadratic", "braid", "tee_commute", "theta_commute",
                "cross_far", "cross_near", "theta_invertible"]),
    "graded": (_speh, check_relations,
               ["square", "braid", "distant_commute", "jm_commute",
                "cross_far", "cross_near"]),
}
DERIVATIVES = {"affine": bz_derivative, "graded": g_bz_derivative}


@pytest.mark.parametrize("mode", ["exact", "numeric"])
@pytest.mark.parametrize("algebra", sorted(ALGEBRAS))
class TestFamilies:
    def test_names_in_order(self, algebra, mode):
        build, check, names = ALGEBRAS[algebra]
        report = check(build(mode))
        assert report["pass"], report
        assert list(report["families"]) == names

    def test_scaled_generator_breaks_the_quadratic_relation(self, algebra,
                                                            mode):
        build, check, names = ALGEBRAS[algebra]
        M = build(mode)
        M.s[0] = mat_scale(2, M.s[0])
        report = check(M)
        assert not report["pass"]
        quadratic = report["families"][names[0]]
        if mode == "exact":
            assert quadratic == {"nonzero": 1}
        else:
            assert quadratic["residual"] > 1.0

    def test_one_module_class(self, algebra, mode):
        M = ALGEBRAS[algebra][0](mode)
        assert isinstance(M, Module)
        assert (M.param is None) == (mode == "exact")
        for attr in ("tee", "theta", "gens", "jm", "scalar_mode"):
            assert not hasattr(M, attr), attr

    def test_derivative_meta_is_provenance(self, algebra, mode):
        M = ALGEBRAS[algebra][0](mode)
        D = DERIVATIVES[algebra](M, 1)
        assert type(D) is type(M) and D.param == M.param
        assert sorted(D.meta) == ["parent", "tail"]
        assert D.meta["parent"] is M and D.meta["tail"] == 1


@pytest.mark.parametrize("cls, names", [(FinDimAffineModule, ("T", "Theta")),
                                        (GradedModule, ("t", "E"))])
def test_generators_must_be_square_of_the_dimension(cls, names):
    one = [[1]]
    with pytest.raises(ValueError, match=f"^{names[0]}_1 is not 1 x 1$"):
        cls(2, 1, [[[1, 0]]], [one, one])
    with pytest.raises(ValueError, match=f"^{names[1]}_2 is not 1 x 1$"):
        cls(2, 1, [one], [one, [[1], [0]]])
    with pytest.raises(ValueError, match="generator count"):
        cls(2, 1, [], [one, one])


class TestNumericHelpers:
    def test_svd_rank_is_relative(self):
        assert svd_rank([]) == 0
        assert svd_rank([1e6, 1.0, 1e-3]) == 2
        # the cut is relative to the largest value, but never below 1
        assert svd_rank([0.5, 0.5 * NUMERIC_TOL]) == 1
        assert svd_rank([0.5, 2 * NUMERIC_TOL]) == 2

    @staticmethod
    def _tail_line(diag):
        """The tail kernel at order 2 of a numeric rank-2 module with
        T_1 = diag: the line of the entry -1."""
        eye = [[1.0, 0.0], [0.0, 1.0]]
        M = FinDimAffineModule(2, 2, [[[diag[0], 0.0], [0.0, diag[1]]]],
                               [eye, eye], 3.0)
        return tail_kernel(M, 2)

    def test_restriction_to_an_invariant_line(self):
        V = self._tail_line((-1.0, 3.0))
        assert V.dim == 1
        # the SVD gives the line's unit vector up to sign and rounding
        assert np.allclose(V.restrict([[2.0, 1.0], [0.0, 3.0]]), [[2.0]])
        assert np.allclose(V.restrict([[5.0, 0.0], [0.0, 7.0]]), [[5.0]])

    def test_restriction_rejects_a_non_invariant_span(self):
        V = self._tail_line((3.0, -1.0))
        with pytest.raises(ArithmeticError):
            V.restrict([[2.0, 1.0], [0.0, 3.0]])

    @pytest.mark.parametrize("A", [[[nan, 1.0], [0.0, 1.0]],
                                   [[1.0, 1.0], [0.0, nan]]])
    def test_restriction_rejects_a_nan(self, A):
        with pytest.raises(ArithmeticError):
            self._tail_line((-1.0, 3.0)).restrict(A)


@pytest.mark.parametrize("x", [[[[nan]], [[2.0]]], [[[2.0]], [[nan]]]])
def test_a_nan_residual_fails_the_check(x):
    report = check_relations(
        GradedModule(2, 1, [[[-1.0]]], x, param=0.5))
    assert not report["pass"]
    assert isnan(report["worst"])


class TestInduction:
    """One `induce` for both algebras, here on the graded one."""

    @pytest.mark.parametrize("build", [
        lambda: induce(speh_module((2, 1)), speh_module((1, 1))),
        lambda: induce(graded_char(2), GradedModule(0, 2, [], []),
                       graded_char(5), graded_char(Fraction(-1, 3))),
    ], ids=["speh21xspeh11", "characters-and-rank0"])
    def test_graded_relations_hold_exactly(self, build):
        M = build()
        assert type(M) is GradedModule and M.param is None
        report = check_relations(M)
        assert report["pass"], report
        assert report["worst"] == 0

    @pytest.mark.parametrize("values, trace", [
        ((2, 2, 5), 18), ((1, 3), 4), ((Fraction(1, 2), -1, 4, 7), 63)])
    def test_character_traces(self, values, trace):
        # second route: in the basis t_u sorted by length, E_k is
        # triangular with diagonal a_{u^-1(k)}, so each a sits on
        # (n-1)! of the n! diagonal places
        n = len(values)
        assert factorial(n - 1) * sum(Fraction(v) for v in values) == trace
        M = induce(*(graded_char(v) for v in values))
        assert M.dim == factorial(n)
        for k in range(n):
            assert sum(M.x[k][r][r] for r in range(M.dim)) == trace, k

    def test_repeated_character_is_a_jordan_block(self):
        # E_1 t_1 = t_1 E_2 + p: at E_1 = E_2 = a on the factors, E_1 is
        # a + p times a nilpotent of order two, not a scalar
        a = Fraction(3, 2)
        M = induce(graded_char(a), graded_char(a))
        for E in M.x:
            N = mat_sub(E, mat_scale(a, identity(M.dim)))
            assert not is_zero_matrix(N)
            assert is_zero_matrix(mat_mul(N, N))

    def test_no_factor_is_rejected(self):
        # no factor, no algebra to take the constants from
        with pytest.raises(ValueError, match="needs a factor"):
            induce()

    def test_factors_of_two_algebras_are_rejected(self):
        with pytest.raises(ValueError,
                           match="FinDimAffineModule.*GradedModule"):
            induce(principal_series(1, (2,)), speh_module((1,)))

    def test_numeric_factor_is_rejected(self):
        with pytest.raises(ValueError, match="exact modules"):
            induce(speh_module((1,)), _speh("numeric"))
