"""The presentation shared by the affine and the graded algebra."""

from math import log

import numpy as np
import pytest

from hecke_bz.affine.modules import principal_series, verify_relations
from hecke_bz.bridge import lambda_functor
from hecke_bz.graded import check_graded_relations, speh_module
from hecke_bz.linalg import mat_scale
from hecke_bz.module_core import NUMERIC_TOL, numeric_restriction, svd_rank

P0 = log(3.0)


def _speh(mode):
    if mode == "exact":
        return speh_module((2, 1))
    return speh_module((2, 1), "numeric", p0=P0, kappa0=0.5 * P0)


def _affine(mode):
    if mode == "exact":
        return principal_series(3, (2, 3, 5))
    return lambda_functor(_speh("numeric"))


# algebra -> (module factory, checker, Coxeter attribute, family names)
ALGEBRAS = {
    "affine": (_affine, verify_relations, "tee",
               ["quadratic", "braid", "tee_commute", "theta_commute",
                "cross_far", "cross_near", "theta_invertible"]),
    "graded": (_speh, check_graded_relations, "gens",
               ["square", "braid", "distant_commute", "jm_commute",
                "cross_far", "cross_near"]),
}


@pytest.mark.parametrize("mode", ["exact", "numeric"])
@pytest.mark.parametrize("algebra", sorted(ALGEBRAS))
class TestFamilies:
    def test_names_in_order(self, algebra, mode):
        build, check, _, names = ALGEBRAS[algebra]
        report = check(build(mode))
        assert report["pass"], report
        assert list(report["families"]) == names

    def test_scaled_generator_breaks_the_quadratic_relation(self, algebra,
                                                            mode):
        build, check, attr, names = ALGEBRAS[algebra]
        M = build(mode)
        gens = getattr(M, attr)
        gens[0] = mat_scale(2, gens[0])
        report = check(M)
        assert not report["pass"]
        quadratic = report["families"][names[0]]
        if mode == "exact":
            assert quadratic == {"nonzero": 1}
        else:
            assert quadratic["residual"] > 1.0


class TestNumericHelpers:
    def test_svd_rank_is_relative(self):
        assert svd_rank([]) == 0
        assert svd_rank([1e6, 1.0, 1e-3]) == 2
        # the cut is relative to the largest value, but never below 1
        assert svd_rank([0.5, 0.5 * NUMERIC_TOL]) == 1
        assert svd_rank([0.5, 2 * NUMERIC_TOL]) == 2

    def test_restriction_to_an_invariant_line(self):
        B = np.array([[1.0], [0.0]])
        s = [[[2.0, 1.0], [0.0, 3.0]]]
        x = [[[5.0, 0.0], [0.0, 7.0]], [[1.0, 0.0], [0.0, 1.0]]]
        got_s, got_x = numeric_restriction(B, s, x, 2)
        assert got_s == [[[2.0]]]
        assert got_x == [[[5.0]], [[1.0]]]
        assert numeric_restriction(B, s, x, 0) == ([], [])

    def test_restriction_rejects_a_non_invariant_span(self):
        B = np.array([[0.0], [1.0]])
        s = [[[2.0, 1.0], [0.0, 3.0]]]
        x = [[[1.0, 0.0], [0.0, 1.0]]] * 2
        with pytest.raises(ArithmeticError):
            numeric_restriction(B, s, x, 2)
