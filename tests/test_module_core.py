"""The presentation shared by the affine and the graded algebra."""

from fractions import Fraction
from math import factorial, inf, isnan, log, nan

import numpy as np
import pytest

from hecke_bz.affine.modules import (
    FinDimAffineModule,
    bz_derivative,
    one_dimensional_module,
    principal_series,
    verify_relations,
)
from hecke_bz.bridge import lambda_functor
from hecke_bz.combinatorics import partitions
from hecke_bz.graded import (
    GradedModule,
    g_bz_derivative,
    pin,
    speh_module,
)
from hecke_bz.linalg import (
    Subspace,
    full_space,
    identity,
    kernel_subspace,
    mat_mul,
    mat_scale,
    mat_sub,
)
from hecke_bz.module_core import (
    NUMERIC_TOL,
    Module,
    _failing_rows,
    _relation_table,
    _sparse,
    _sparse_mul,
    _sparse_plus,
    check_relations,
    induce,
    split,
    svd_rank,
    tail_kernel,
)
from hecke_bz.reports import _BRIDGE_Q0S, _BRIDGE_RATIOS
from hecke_bz.scalars import QRational
from routes import (
    assert_same_subspace,
    graded_char,
    is_zero_matrix,
    mat_inverse,
    relation_residuals,
)

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
        B = build(mode)
        M = type(B)(B.n, B.dim, [mat_scale(2, B.s[0])] + B.s[1:], B.x,
                    B.param)
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


@pytest.mark.parametrize("g", [[[1, 0], [0]], [[1, 0]], [],
                               [[1, 0], [0, 1, 0]], [[1, 0], [0, 1], [0, 0]]],
                         ids=["ragged", "short", "empty", "long-row", "tall"])
def test_a_ragged_or_short_generator_is_refused(g):
    one = [[1, 0], [0, 1]]
    with pytest.raises(ValueError, match="^s_1 is not 2 x 2$"):
        Module(2, 2, [g], [one, one])
    with pytest.raises(ValueError, match="^x_2 is not 2 x 2$"):
        Module(2, 2, [one], [one, g])
    with pytest.raises(ValueError, match="^t_1 is not 2 x 2$"):
        GradedModule(2, 2, [g], [one, one])


@pytest.mark.parametrize("n", range(10))
def test_every_row_scales_uniformly(n):
    # the integer lift L g of the generators reads a row on L^k times
    # both sides: rows with a linear term c g + c' 1 have two letters on
    # the left and none or two on the right, so that c L and c' L^2
    # scale it; the others have words of one length
    for _, left, right, linear in _relation_table(n):
        if linear:
            assert len(left) == 2 and len(right) in (0, 2)
        else:
            assert len(left) == len(right)


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


class TestSplit:
    """`split` on A = S J S^-1, J a Jordan block of size 2 at 2 and the
    eigenvalues 3 and 5, each generalized eigenspace checked against the
    canonical kernel of a power of A - lam over the whole space."""

    S = [[1, 1, 0, 1], [0, 1, 1, 0], [1, 0, 1, 1], [0, 2, 0, 1]]
    J = [[2, 1, 0, 0], [0, 2, 0, 0], [0, 0, 3, 0], [0, 0, 0, 5]]
    A = mat_mul(mat_mul([[QRational(v) for v in row] for row in S], J),
                mat_inverse([[QRational(v) for v in row] for row in S]))

    def minus(self, lam, power=1):
        D = mat_sub(self.A, mat_scale(QRational(lam), identity(4)))
        P = D
        for _ in range(power - 1):
            P = mat_mul(P, D)
        return P

    def kernel(self, M):
        return kernel_subspace(M, ncols=4)

    def test_the_whole_space(self):
        for lam, power in ((2, 2), (3, 1), (5, 1)):
            got = split(full_space(4), self.A, QRational(lam))
            assert_same_subspace(got, self.kernel(self.minus(lam, power)))
        assert split(full_space(4), self.A, QRational(7)).dim == 0

    def test_a_jordan_block_inside_an_invariant_subspace(self):
        # V, the 2- and 3-eigenspaces together, is A-invariant and
        # proper; inside it A - 2 needs its square
        V = self.kernel(mat_mul(self.minus(2, 2), self.minus(3)))
        assert V.dim == 3
        assert self.kernel(self.minus(2)).dim == 1
        assert_same_subspace(split(V, self.A, QRational(2)),
                             self.kernel(self.minus(2, 2)))
        assert_same_subspace(split(V, self.A, QRational(3)),
                             self.kernel(self.minus(3)))
        zero = split(V, self.A, QRational(5))
        assert zero.dim == 0 and zero.basis == [[], [], [], []]
        assert split(V, self.A, QRational(7)).dim == 0

    def test_the_block_itself_and_the_zero_block_come_back(self):
        V = self.kernel(self.minus(2, 2))
        assert split(V, self.A, QRational(2)) is V
        zero = Subspace([[] for _ in range(4)], [])
        assert split(zero, self.A, QRational(2)) is zero

    def test_a_subspace_the_operator_moves_is_rejected(self):
        # the first two coordinate axes are not A-invariant
        V = Subspace([[1, 0], [0, 1], [0, 0], [0, 0]], [0, 1])
        with pytest.raises(ArithmeticError, match="not invariant"):
            split(V, self.A, QRational(2))


@pytest.mark.parametrize("x", [[[[nan]], [[2.0]]], [[[2.0]], [[nan]]]])
def test_a_nan_residual_fails_the_check(x):
    report = check_relations(
        GradedModule(2, 1, [[[-1.0]]], x, param=0.5))
    assert not report["pass"]
    assert isnan(report["worst"])


def test_a_residual_is_judged_at_the_generators_scale():
    # E_1 t_1 - t_1 E_2 = p at E = (s + p, s) with s = 1e6: off by 1e-5,
    # the check fails at a 1e-12 share of s and passes at a 1e-10 share;
    # an infinite entry leaves no scale, and fails whatever its residual
    s = 1e6
    M = GradedModule(2, 1, [[[1.0]]], [[[s + 0.5 + 1e-5]], [[s]]],
                     param=0.5)
    assert not check_relations(M, tol=1e-12)["pass"]
    assert check_relations(M, tol=1e-10)["pass"]
    assert not check_relations(
        GradedModule(1, 1, [], [[[float("inf")]]], param=0.5))["pass"]


def _with_entry(M, g, r, c, value):
    """A copy of M whose generator g of the stack [s..., x...] has the
    entry (r, c) replaced by value(old entry)."""
    gens = [[list(row) for row in G] for G in M.s + M.x]
    gens[g][r][c] = value(gens[g][r][c])
    k = len(M.s)
    return type(M)(M.n, M.dim, gens[:k], gens[k:], M.param, M.meta)


def _max_abs(mats) -> float:
    return max((abs(v) for m in mats for row in m for v in row), default=0.0)


def _bridge_grid(max_n):
    """The pinned Speh modules of the bridge grid up to rank max_n, each
    followed by its transport."""
    for n in range(1, max_n + 1):
        for lam in partitions(n):
            for q0 in _BRIDGE_Q0S:
                for ratio in _BRIDGE_RATIOS:
                    G = pin(speh_module(lam), log(q0), ratio * log(q0))
                    yield G
                    yield lambda_functor(G)


def _sign_character(algebra, exact, n, dim):
    """The rank-n module on which every s_j is -1, at dimension 1, or
    its 0-dimensional shell; its relations hold exactly, in floats too:
    x_{k+1} = q x_k (affine, q0 = 2) or x_{k+1} = x_k + p (graded,
    p0 = 1/2)."""
    if algebra == "affine":
        cls, param = FinDimAffineModule, 2.0
        step = QRational.gen() if exact else param
        xs = [step ** k for k in range(n)]
    else:
        cls, param = GradedModule, 0.5
        xs = [(1 if exact else param) * k for k in range(n)]
    one = 1 if exact else 1.0
    return cls(n, dim, [[[-one]] if dim else [] for _ in range(n - 1)],
               [[[v]] if dim else [] for v in xs],
               None if exact else param)


class TestRelationTable:
    """`check_relations` against `routes.relation_residuals`, the
    families written out by hand as dense residual matrices."""

    def test_float_residuals_are_the_routes_bit_for_bit(self):
        count = 0
        for M in _bridge_grid(4):
            report = check_relations(M)
            route = relation_residuals(M)
            got = [report["families"][name]["residual"]
                   for name in M.families]
            # == on non-negative floats that are not NaN: bit for bit
            assert got == [_max_abs(route[name]) for name in M.families]
            assert report["worst"] == max(got)
            count += 1
        assert count == 2 * 11 * len(_BRIDGE_Q0S) * len(_BRIDGE_RATIOS)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("cls", [FinDimAffineModule, GradedModule])
    def test_float_residuals_of_random_matrices(self, cls, seed):
        # entries over 16 decades, a third of them 0: the order of each
        # sum shows in its last bits, and mat_mul skips the zeros
        rng = np.random.default_rng(seed)
        n, d = 5, 6
        gens = (rng.standard_normal((2 * n - 1, d, d))
                * 10.0 ** rng.integers(-8, 8, (2 * n - 1, d, d))
                * (rng.random((2 * n - 1, d, d)) < 2 / 3)).tolist()
        M = cls(n, d, gens[:n - 1], gens[n - 1:], 1.5)
        report = check_relations(M)
        route = relation_residuals(M)
        assert [report["families"][name]["residual"]
                for name in M.families] == [_max_abs(route[name])
                                            for name in M.families]

    @pytest.mark.parametrize("entry", [(0, 0), (0, -1), (-1, 1)])
    @pytest.mark.parametrize("build", [
        lambda: induce(principal_series(2, (2, 3)),
                       one_dimensional_module(2, 5, "sign")),
        lambda: speh_module((3, 2)),
    ], ids=["affine-rank4", "graded-rank5"])
    def test_exact_counts_are_the_routes_on_broken_modules(self, build,
                                                           entry):
        M0 = build()
        assert M0.n >= 4 and M0.param is None
        hit = dict.fromkeys(M0.families, 0)
        for g in range(len(M0.s) + len(M0.x)):
            M = _with_entry(M0, g, *entry, lambda v: v + 1)
            report = check_relations(M)
            route = relation_residuals(M)
            counts = {name: sum(not is_zero_matrix(r) for r in route[name])
                      for name in M.families}
            assert report["families"] == {
                name: {"nonzero": k} for name, k in counts.items()}
            assert not report["pass"] and report["worst"] == 0.0
            for name, k in counts.items():
                hit[name] += k
        # the braid and distant commutation rows have caught one
        _, braid, distant, *_ = M0.families
        assert hit[braid] and hit[distant], hit

    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "numeric"])
    @pytest.mark.parametrize("algebra", sorted(ALGEBRAS))
    @pytest.mark.parametrize("n, dim", [(0, 1), (1, 1), (2, 1),
                                        (0, 0), (1, 0), (2, 0), (4, 0)])
    def test_small_ranks_and_dimension_zero(self, algebra, exact, n, dim):
        M = _sign_character(algebra, exact, n, dim)
        report = check_relations(M)
        zero = {"nonzero": 0} if exact else {"residual": 0.0}
        assert report == {"families": {name: zero for name in M.families},
                          "pass": True, "worst": 0.0}
        assert list(report["families"]) == ALGEBRAS[algebra][2][:6]

    @pytest.mark.parametrize("value", [inf, -inf, nan])
    @pytest.mark.parametrize("g", [0, -1], ids=["s_1", "x_n"])
    @pytest.mark.parametrize("algebra", sorted(ALGEBRAS))
    def test_a_non_finite_entry_fails_without_raising(self, algebra, g,
                                                      value):
        build, check, names = ALGEBRAS[algebra]
        M = _with_entry(build("numeric"), g, 0, -1, lambda v: value)
        report = check(M)
        assert report["pass"] is False
        assert list(report["families"]) == names


def _reader_rows(M) -> list[int]:
    """The indices into `_relation_table(M.n)` of the rows that the exact
    reader `_failing_rows` yields on M."""
    rows = _relation_table(M.n)
    return [rows.index(row)
            for row in _failing_rows(M.s + M.x, M.constants(), rows)]


def _route_rows(M) -> list[tuple[int, int]]:
    """The same indices read off `routes.relation_residuals`: the rows
    whose dense residual has a nonzero entry, and how many it has."""
    route = relation_residuals(M)
    flat = [r for name in M.families for r in route[name]]
    assert len(flat) == len(_relation_table(M.n))
    return [(i, sum(1 for row in r for v in row if v))
            for i, r in enumerate(flat) if not is_zero_matrix(r)]


def _conjugated(M):
    """M in the basis P e_i, P = 1 + the superdiagonal 1/2: every
    generator P^-1 g P, so that the products of the relations cancel to
    zero at entries where they had none."""
    d = M.dim
    P = [[Fraction(int(r == c)) + Fraction(c == r + 1, 2) for c in range(d)]
         for r in range(d)]
    Pinv = mat_inverse(P)
    gens = [mat_mul(Pinv, mat_mul(g, P)) for g in M.s + M.x]
    k = len(M.s)
    return type(M)(M.n, d, gens[:k], gens[k:], M.param, M.meta)


class TestExactReader:
    """The exact reader `_failing_rows`, on sparse rows with every zero
    dropped, against `routes.relation_residuals`, dense residuals."""

    @pytest.mark.parametrize("build", [
        lambda: speh_module((2, 1)), lambda: speh_module((3, 1)),
        lambda: principal_series(3, (2, 3, 5)),
        lambda: induce(principal_series(2, (2, 3)),
                       one_dimensional_module(1, 7, "index")),
    ], ids=["speh21", "speh31", "principal3", "principal2x1"])
    def test_sides_that_agree_only_after_a_cancellation(self, build):
        M = _conjugated(build())
        assert check_relations(M)["pass"]
        assert _reader_rows(M) == [row for row, _ in _route_rows(M)] == []

    @pytest.mark.parametrize("build", [
        lambda: speh_module((2, 1)),
        lambda: _conjugated(principal_series(3, (2, 3, 5))),
    ], ids=["speh21", "conjugated-principal3"])
    def test_failing_rows_are_the_routes(self, build):
        M0 = build()
        single = 0
        corners = sorted({0, M0.dim - 1})
        for g in range(len(M0.s) + len(M0.x)):
            for r in corners:
                for c in corners:
                    M = _with_entry(M0, g, r, c, lambda v: v + 1)
                    route = _route_rows(M)
                    assert _reader_rows(M) == [row for row, _ in route]
                    single += sum(k == 1 for _, k in route)
        # some failing row differs from its other side in one entry
        assert single

    def test_sparse_rows_hold_the_nonzero_entries_only(self):
        q = QRational.gen()
        g = _sparse([[1, Fraction(0), 2], [QRational(0), q, 2], [1, -1, 0]])
        assert g == [{0: 1, 2: 2}, {1: q, 2: 2}, {0: 1, 1: -1}]
        # (g g)[2][2] = 2 - 2 and (g - 1)[0][0] = 1 - 1 cancel: neither
        # leaves an entry
        assert _sparse_mul(g, g) == [
            {0: 3, 1: -2, 2: 2}, {0: 2, 1: q * q - 2, 2: 2 * q}, {0: 1, 1: -q}]
        assert _sparse_plus(None, g, 1, -1) == [
            {2: 2}, {1: q - 1, 2: 2}, {0: 1, 1: -1, 2: -1}]

    def test_a_row_that_differs_in_one_entry(self):
        # E_2 = E_1 + 2 instead of E_1 + p at p = 1: both near cross
        # rows are off by one entry, the 1 x 1 matrix itself
        M = GradedModule(2, 1, [[[-1]]], [[[0]], [[2]]])
        assert _reader_rows(M) == [row for row, _ in _route_rows(M)]
        assert _route_rows(M) == [(2, 1), (3, 1)]

    @pytest.mark.parametrize("algebra", sorted(ALGEBRAS))
    @pytest.mark.parametrize("n, dim", [(0, 1), (1, 1), (2, 1),
                                        (0, 0), (1, 0), (2, 0), (4, 0)])
    def test_small_ranks_and_dimension_zero(self, algebra, n, dim):
        M = _sign_character(algebra, True, n, dim)
        assert _reader_rows(M) == _route_rows(M) == []
        if n > 1 and dim:
            M = _with_entry(M, 0, 0, 0, lambda v: v + 1)
            assert _reader_rows(M) == [row for row, _ in _route_rows(M)]
            assert _reader_rows(M)


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
