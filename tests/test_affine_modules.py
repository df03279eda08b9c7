"""Finite-dimensional module layer: relations, derivatives, induction."""

import itertools
import random
from fractions import Fraction
from math import factorial

import pytest

from hecke_bz.affine import AffineElement, sign_projector_tail
from hecke_bz.affine.modules import (
    FinDimAffineModule,
    antispherical_apply,
    antispherical_generator,
    bz_derivative,
    bz_dimension,
    central_block,
    generic_guard,
    induce,
    leibniz_check,
    module_from_json,
    module_to_json,
    one_dimensional_module,
    principal_series,
    verify_relations,
)
from hecke_bz.combinatorics import Permutation, length, sym_group
from hecke_bz.linalg import (
    column_space,
    identity,
    intersect_kernels,
    mat_eq,
    mat_mul,
    rref,
    transpose,
)
from hecke_bz.module_core import tail_kernel
from hecke_bz.scalars import QRational

q = QRational.gen()
MISSING = object()
a, b = QRational(Fraction(3, 2)), QRational(Fraction(5, 7))


def generic_char(n, seed):
    """Pairwise-distinct positive rationals, reproducible from the seed."""
    rng = random.Random(seed)
    out = []
    seen = set()
    while len(out) < n:
        v = Fraction(rng.randint(2, 40), rng.randint(1, 9))
        if v not in seen:
            seen.add(v)
            out.append(QRational(v))
    return tuple(out)


def random_element(n, rng):
    out = AffineElement.zero(n)
    for _ in range(3):
        x = tuple(rng.randint(-1, 1) for _ in range(n))
        w = Permutation(tuple(rng.sample(range(1, n + 1), n)))
        c = QRational(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
        out = out + AffineElement.theta(n, x) * AffineElement.t(n, w) * c
    return out


def theta_traces(M):
    return [sum(M.x[k][i][i] for i in range(M.dim)) for k in range(M.n)]


class TestRelations:
    """verify_relations is exact-zero on the built-in module families."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_principal_series(self, n):
        M = principal_series(n, generic_char(n, 100 + n))
        report = verify_relations(M)
        assert report["pass"], report
        assert report["worst"] == 0

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["index", "sign"])
    def test_one_dimensional(self, n, kind):
        D = one_dimensional_module(n, Fraction(5, 3), kind)
        assert D.dim == 1
        assert verify_relations(D)["pass"]

    def test_report_families(self):
        report = verify_relations(principal_series(2, generic_char(2, 7)))
        for family in ("quadratic", "cross_near", "theta_commute"):
            assert family in report["families"]

    def test_act_is_an_algebra_map(self):
        M = principal_series(3, generic_char(3, 11))
        rng = random.Random(3)
        for trial in range(6):
            a, b = random_element(3, rng), random_element(3, rng)
            assert mat_eq(M.act(a * b), mat_mul(M.act(a), M.act(b))), trial


class TestDerivatives:
    """Tail sign-isotypic restriction on principal series."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_generic_dimension_drop(self, n):
        t = generic_char(n, 200 + n)
        generic_guard(t)
        M = principal_series(n, t)
        for i in range(n + 1):
            d = bz_dimension(M, i)
            assert d == factorial(n) // factorial(i), (n, i, d)
            D = bz_derivative(M, i)
            assert D.dim == d and D.n == n - i

    def test_derived_module_satisfies_relations(self):
        M = principal_series(4, generic_char(4, 203))
        for i in (1, 2, 3):
            assert verify_relations(bz_derivative(M, i))["pass"], i

    def test_zeroth_derivative_is_identity(self):
        M = principal_series(2, generic_char(2, 205))
        D = bz_derivative(M, 0)
        assert D.dim == M.dim
        assert all(mat_eq(a, b) for a, b in zip(M.x, D.x))

    def test_full_derivative_is_a_line(self):
        M = principal_series(3, generic_char(3, 207))
        D = bz_derivative(M, 3)
        assert D.n == 0 and D.dim == 1

    @pytest.mark.parametrize("build", [
        lambda: principal_series(1, generic_char(1, 211)),
        lambda: principal_series(2, generic_char(2, 212)),
        lambda: principal_series(3, generic_char(3, 213)),
        lambda: induce(principal_series(2, generic_char(2, 214)),
                       one_dimensional_module(2, Fraction(5), "index")),
    ], ids=["principal1", "principal2", "principal3", "induced"])
    def test_tail_kernel_is_the_sign_projector_image(self, build):
        # second route: the column space of the tail sign projector
        M = build()
        for i in range(M.n + 1):
            V = tail_kernel(M, i)
            A = M.act(sign_projector_tail(M.n, i))
            C, pivots = column_space(A)
            assert len(pivots) == V.dim, i
            assert span_rank(V.basis, C) == V.dim, i

    def test_numeric_rank_cut_is_the_derivative_one(self):
        # T_1 + 1 has singular values 4 and 1e-10: below the relative cut,
        # so the tail kernel is a line for the dimension and the derivative
        eye = [[1.0, 0.0], [0.0, 1.0]]
        M = FinDimAffineModule(2, 2, [[[-1 + 1e-10, 0.0], [0.0, 3.0]]],
                               [eye, eye], 3.0)
        assert bz_dimension(M, 2) == bz_derivative(M, 2).dim == 1

    def test_numerically_singular_theta_is_not_invertible(self):
        M = FinDimAffineModule(1, 2, [], [[[1.0, 0.0], [0.0, 1e-12]]], 3.0)
        report = verify_relations(M)
        assert report["families"]["theta_invertible"] == {"ok": False}
        assert not report["pass"]

    def test_one_dimensional_derivative_dims(self):
        # order 1 is plain restriction, so it never drops dimension;
        # past that only the sign module survives the tail condition
        sign = one_dimensional_module(3, Fraction(2), "sign")
        index = one_dimensional_module(3, Fraction(2), "index")
        assert [bz_dimension(sign, i) for i in range(4)] == [1, 1, 1, 1]
        assert [bz_dimension(index, i) for i in range(4)] == [1, 1, 0, 0]


class TestInduction:
    def test_rank_one_times_rank_one(self):
        a, b = generic_char(1, 31), generic_char(1, 32)
        P = induce(principal_series(1, a), principal_series(1, b))
        R = principal_series(2, a + b)
        assert P.dim == R.dim == 2
        assert verify_relations(P)["pass"]
        assert theta_traces(P) == theta_traces(R)

    def test_two_plus_one_matches_full_principal_series(self):
        c2, c1 = generic_char(2, 33), generic_char(1, 34)
        M = induce(principal_series(2, c2), principal_series(1, c1))
        assert M.n == 3 and M.dim == 6
        assert verify_relations(M)["pass"]
        assert theta_traces(M) == theta_traces(principal_series(3, c2 + c1))

    def test_one_dimensional_factors(self):
        D1 = one_dimensional_module(2, Fraction(7, 2), "sign")
        D2 = one_dimensional_module(2, Fraction(3), "index")
        M = induce(D1, D2)
        assert M.dim == 6
        assert verify_relations(M)["pass"]

    def test_rank_zero_factor(self):
        # A full derivative leaves a module over the rank-zero algebra;
        # inducing with it must reproduce the other factor.
        point = bz_derivative(principal_series(1, generic_char(1, 35)), 1)
        assert point.n == 0 and point.dim == 1
        M2 = principal_series(2, generic_char(2, 36))
        M = induce(point, M2)
        assert M.n == 2 and M.dim == M2.dim
        assert theta_traces(M) == theta_traces(M2)

    def test_lengths_add_in_coset_factorization(self):
        c2, c1 = generic_char(2, 37), generic_char(1, 38)
        M = induce(principal_series(2, c2), principal_series(1, c1))
        assert verify_relations(M)["pass"]
        assert M.meta["t"] == c2 + c1


def point_block(M, points):
    """Reference route for central blocks, independent of the centre:
    sum over the points of the joint generalized theta-eigenspaces
    cap_k ker (Theta_k - pt_k)^dim, as a column basis."""
    cols = []
    for pt in points:
        mats = []
        for th, lam in zip(M.x, pt):
            D = [[v - lam if r == c else v for c, v in enumerate(row)]
                 for r, row in enumerate(th)]
            P = identity(M.dim)
            for _ in range(M.dim):
                P = mat_mul(P, D)
            mats.append(P)
        V = intersect_kernels(mats, M.dim)
        cols.extend(transpose(V.basis))
    return column_space(transpose(exact(cols)))[0] if cols else []


def exact(A):
    """Entries as QRational, so that no int / int division happens."""
    return [[QRational(v) for v in row] for row in A]


def orbit_points(values):
    return sorted(set(itertools.permutations(values)), key=str)


def span_rank(*bases):
    """Rank of the columns of the given dim x k matrices together."""
    cols = [col for B in bases for col in transpose(B)]
    return len(rref(exact(cols))[1]) if cols else 0


def assert_blocks_match(M, pool):
    """central_block against the point reference at every orbit of
    M.n-subsets of the pool, by dimension and by subspace; returns the
    total dimension of the blocks of the distinct orbits."""
    seen = {}
    for sub in itertools.combinations(pool, M.n):
        seen.setdefault(tuple(sorted(sub, key=str)), sub)
    total = 0
    for vals in seen.values():
        got = central_block(M, vals)
        ref = point_block(M, orbit_points(vals))
        assert got.dim == span_rank(ref), (vals, got.dim)
        assert span_rank(got.basis, ref) == got.dim, vals
        total += got.dim
    return total


class TestCentralBlocks:
    def test_full_orbit_recovers_everything(self):
        t = generic_char(3, 41)
        M = principal_series(3, t)
        assert central_block(M, t).dim == 6
        assert central_block(M, t[::-1]).dim == 6
        assert span_rank(point_block(M, orbit_points(t))) == 6

    def test_off_orbit_point_gives_zero(self):
        t = generic_char(3, 41)
        M = principal_series(3, t)
        wrong = tuple(v * 7 for v in t)
        assert span_rank(point_block(M, [wrong])) == 0
        assert central_block(M, wrong).dim == 0

    def test_single_generic_point_gives_a_line(self):
        t = generic_char(3, 41)
        generic_guard(t)
        M = principal_series(3, t)
        assert span_rank(point_block(M, [t])) == 1

    def test_rejects_wrong_length(self):
        M = principal_series(2, generic_char(2, 42))
        with pytest.raises(ValueError):
            central_block(M, generic_char(3, 42))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_principal_series_matches_points(self, n):
        t = generic_char(n, 300 + n)
        pool = t + (t[0] * 5,)
        assert assert_blocks_match(principal_series(n, t), pool) == factorial(n)

    def test_orbits_sharing_a_symmetric_value_are_told_apart(self):
        # (2, 3) shares e_1 with (1, 4) and e_2 with (1, 6)
        pool = tuple(QRational(v) for v in (2, 3, 1, 4, 6))
        M = principal_series(2, pool[:2])
        assert assert_blocks_match(M, pool) == 2
        assert central_block(M, pool[2:4]).dim == 0
        assert central_block(M, pool[2::2]).dim == 0

    @pytest.mark.parametrize("t", [
        (a, a), (a, a * q), (a, a, b), (a, a * q, a * q * q), (a, a, a),
        (a, b, a * q),
    ], ids=["aa", "a-aq", "aab", "a-aq-aq2", "aaa", "a-b-aq"])
    def test_non_generic_principal_series_matches_points(self, t):
        M = principal_series(len(t), t)
        assert assert_blocks_match(M, t + (b * 7,)) == M.dim

    @pytest.mark.parametrize("i", [0, 1, 2, 3])
    def test_induced_and_derived_modules_match_points(self, i):
        pairs = [
            (principal_series(2, (a, b)), principal_series(1, (a * q,))),
            (principal_series(2, (a, a)), principal_series(1, (b,))),
            (one_dimensional_module(2, a, "index"),
             one_dimensional_module(1, a * q * q, "sign")),
            (principal_series(1, (a,)), principal_series(2, (a * q, b))),
        ]
        for M1, M2 in pairs:
            full = M1.meta["t"] + M2.meta["t"]
            D = bz_derivative(induce(M1, M2), i)
            assert assert_blocks_match(D, full) == D.dim, (full, i)


class TestAntispherical:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_sign_character_on_the_generator(self, n):
        gen = antispherical_generator(n)
        for w in sym_group(n):
            got = antispherical_apply(AffineElement.t(n, w), gen)
            want = {(0,) * n: QRational((-1) ** length(w))}
            assert got == want, (n, w, got)

    def test_action_is_associative(self):
        rng = random.Random(9)
        v = {(0, 1, -1): QRational(2), (0, 0, 0): QRational(1)}
        for trial in range(5):
            a, b = random_element(3, rng), random_element(3, rng)
            lhs = antispherical_apply(a, antispherical_apply(b, v))
            rhs = antispherical_apply(a * b, v)
            assert lhs == rhs, trial


class TestLeibniz:
    """Derivative-of-an-induced-module bookkeeping on fast cases.

    The full grid at the acceptance bound lives in the acceptance tests.
    """

    def test_rank_one_pair(self):
        M1 = principal_series(1, generic_char(1, 51))
        M2 = principal_series(1, generic_char(1, 52))
        for i in range(3):
            report = leibniz_check(M1, M2, i)
            assert report["pass"], (i, report)
            assert report["blocks_cover"]

    def test_mixed_ranks(self):
        M1 = principal_series(2, generic_char(2, 53))
        M2 = principal_series(1, generic_char(1, 54))
        for i in range(4):
            assert leibniz_check(M1, M2, i)["pass"], i

    def test_one_dimensional_pair(self):
        M1 = one_dimensional_module(2, Fraction(4, 3), "index")
        M2 = one_dimensional_module(2, Fraction(9, 5), "sign")
        for i in range(5):
            report = leibniz_check(M1, M2, i)
            assert report["pass"], (i, report)

    @pytest.mark.parametrize("factors", [
        lambda: (principal_series(2, (a, a)), principal_series(1, (b,))),
        lambda: (principal_series(1, (a,)), principal_series(1, (q * a,))),
        lambda: (one_dimensional_module(2, a, "index"),
                 one_dimensional_module(1, a * q * q, "sign")),
    ], ids=["repeated", "ratio-q", "index-sign-q2"])
    def test_non_generic_characters(self, factors):
        # the sum rule compares central blocks, which need no genericity
        M1, M2 = factors()
        with pytest.raises(ValueError):
            generic_guard(M1.meta["t"] + M2.meta["t"])
        for i in range(M1.n + M2.n + 1):
            report = leibniz_check(M1, M2, i)
            assert report["pass"] and report["blocks_cover"], (i, report)

    def test_report_shape(self):
        M1 = principal_series(1, generic_char(1, 55))
        M2 = principal_series(1, generic_char(1, 56))
        report = leibniz_check(M1, M2, 1)
        assert report["n"] == 2 and report["i"] == 1
        assert all(o["left"] == o["right"] for o in report["orbits"])
        assert report["left_dim"] == sum(o["left"] for o in report["orbits"])

    def test_factor_without_a_character_is_named(self):
        # a derivative records its parent, not a character
        D = bz_derivative(principal_series(3, (2, 3, 5)), 1)
        M = principal_series(1, (7,))
        for args, name in (((D, M), "M1"), ((M, D), "M2")):
            with pytest.raises(ValueError,
                               match=name + r' records no character in meta'):
                leibniz_check(*args, 1)


class TestSerializationAndGuard:
    def test_json_round_trip(self):
        M = principal_series(2, generic_char(2, 61))
        M2 = module_from_json(module_to_json(M))
        assert M2.n == M.n and M2.dim == M.dim
        assert all(mat_eq(a, b) for a, b in zip(M.s, M2.s))
        assert all(mat_eq(a, b) for a, b in zip(M.x, M2.x))

    def test_json_round_trip_one_dimensional(self):
        D = one_dimensional_module(3, Fraction(2), "sign")
        D2 = module_from_json(module_to_json(D))
        assert all(mat_eq(a, b) for a, b in zip(D.x, D2.x))

    def test_guard_rejects_degenerate_characters(self):
        with pytest.raises(ValueError):
            generic_guard((QRational(0), QRational(2)))
        with pytest.raises(ValueError):
            generic_guard((QRational(2), QRational(2)))
        with pytest.raises(ValueError):
            generic_guard((QRational(2), QRational(2) * q))

    @pytest.mark.parametrize("field, value, message", [
        ("scalar_mode", "Exact", "scalar_mode"),
        ("q0", None, "q0"),
        ("theta", [[["1", "0"]], [["1"]]], "Theta_1 is not 1 x 1"),
        ("n", MISSING, "missing 'n'"),
        ("dim", MISSING, "missing 'dim'"),
        ("tee", MISSING, "missing 'tee'"),
        ("theta", MISSING, "missing 'theta'"),
    ])
    def test_malformed_json_names_the_field(self, field, value, message):
        data = module_to_json(one_dimensional_module(2, Fraction(2), "sign"))
        if field == "q0":
            data["scalar_mode"] = "numeric"
        elif value is MISSING:
            del data[field]
        else:
            data[field] = value
        with pytest.raises(ValueError, match=message):
            module_from_json(data)

    def test_numeric_json_round_trip(self):
        M = FinDimAffineModule(1, 1, [], [[[2.5]]], 3.0)
        data = module_to_json(M)
        assert data["scalar_mode"] == "numeric" and data["q0"] == 3.0
        assert module_from_json(data).param == 3.0

    def test_guard_checks_numeric_ratio(self):
        with pytest.raises(ValueError):
            generic_guard((QRational(2), QRational(6)), q0=3)
        generic_guard((QRational(2), QRational(7)), q0=3)
