"""Finite-dimensional module layer: relations, derivatives, induction."""

import hashlib
import itertools
import json
import random
from fractions import Fraction
from math import factorial

import pytest

from hecke_bz.affine import AffineElement
from hecke_bz.affine.modules import (
    FinDimAffineModule,
    antispherical_apply,
    antispherical_generator,
    bz_derivative,
    bz_dimension,
    central_block,
    induce,
    leibniz_check,
    one_dimensional_module,
    principal_series,
    verify_relations,
)
from hecke_bz.combinatorics import Permutation, length, sym_group
from hecke_bz.graded import GradedModule
from hecke_bz.linalg import (
    column_space,
    identity,
    intersect_kernels,
    mat_eq,
    mat_mul,
    rref,
    transpose,
)
from hecke_bz.module_core import check_relations, tail_kernel
from hecke_bz.scalars import QRational

from routes import act, generic_guard, sign_projector_tail

q = QRational.gen()
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


# the character of the pinned principal series and inductions
PIN_CHAR = (Fraction(2), Fraction(3, 2), Fraction(5), Fraction(7, 3),
            Fraction(11))


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


def pair_traces(M):
    """trace(x_k x_l) for k <= l: basis-free, like `theta_traces`."""
    return [sum(mat_mul(M.x[k], M.x[l])[i][i] for i in range(M.dim))
            for k in range(M.n) for l in range(k, M.n)]


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
            assert mat_eq(act(M, a * b),
                          mat_mul(act(M, a), act(M, b))), trial


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

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_linked_character_keeps_the_free_rank(self, n):
        # t = (1, q, ..., q^{n-1}) is linked: the principal series is
        # reducible, but still free of rank n! over the finite part
        t = tuple(q ** k for k in range(n))
        if n > 1:
            with pytest.raises(ValueError, match="differ by q"):
                generic_guard(t)
        M = principal_series(n, t)
        assert verify_relations(M)["pass"]
        for i in range(n + 1):
            assert bz_dimension(M, i) == factorial(n) // factorial(i), i

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
            A = act(M, sign_projector_tail(M.n, i))
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

    @pytest.mark.parametrize("empty, rank", [
        (lambda: bz_derivative(
            one_dimensional_module(3, Fraction(2), "index"), 2), 1),
        (lambda: FinDimAffineModule(0, 0, [], []), 0),
    ], ids=["rank1-dim0", "rank0-dim0"])
    @pytest.mark.parametrize("first", [True, False], ids=["first", "last"])
    def test_zero_dimensional_factor(self, empty, rank, first):
        # a zero-dimensional derivative induces to the zero module
        E = empty()
        assert E.n == rank and E.dim == 0
        P2 = principal_series(2, generic_char(2, 39))
        M = induce(E, P2) if first else induce(P2, E)
        assert M.n == rank + 2 and M.dim == 0
        assert verify_relations(M)["pass"]

    def test_lengths_add_in_coset_factorization(self):
        c2, c1 = generic_char(2, 37), generic_char(1, 38)
        M = induce(principal_series(2, c2), principal_series(1, c1))
        assert verify_relations(M)["pass"]
        assert M.meta["t"] == c2 + c1

    @pytest.mark.parametrize("make, digest", [
        (lambda: principal_series(1, PIN_CHAR[:1]),
         "6b23abde563cd62e27ed3aab4253d8b3bea29c7ce46c0c87a59c036753eab44b"),
        (lambda: principal_series(2, PIN_CHAR[:2]),
         "0cc1665b84f5a5e398471b835719dfcc83b37151bad6b46ea232919298b13780"),
        (lambda: principal_series(3, PIN_CHAR[:3]),
         "564a9f29b9ee1e2550ede5d1eb65f2e39ffbc5ef5c175a1e020fbffb309a7052"),
        (lambda: principal_series(4, PIN_CHAR[:4]),
         "72a48c6cdb40cc5f6dd8c88365de11bca1c23e69f5d565fcdf0354ee035b4ee4"),
        (lambda: principal_series(5, PIN_CHAR),
         "5d1cb219662b54878e81178fe565939d1d057f8f890b25258a0db13606873dfc"),
        (lambda: principal_series(3, (Fraction(2), Fraction(2), Fraction(3))),
         "a66d9fd42cdac7cb1d6d9bfc957819d82476fd6347326ae864021e64db7aeedd"),
        (lambda: principal_series(3, (QRational(2), 2 * q, QRational(2))),
         "aa06cbadc29dc183318d2c05c0a480d0b2f031ee947b42c7570779d64a3d1af7"),
        (lambda: induce(principal_series(2, PIN_CHAR[:2]),
                        principal_series(1, PIN_CHAR[2:3])),
         "8b7caa68326ecefe59bd193166a1647ecba7446d834c9988afa01c2e693f5688"),
        (lambda: induce(one_dimensional_module(2, Fraction(7, 2), "sign"),
                        one_dimensional_module(2, Fraction(3), "index")),
         "951ab7afbad92f1411e8bdd71910b0f972ae366aeedad77660db1275c5ac5bc0"),
        (lambda: induce(FinDimAffineModule(0, 2, [], []),
                        principal_series(2, PIN_CHAR[:2])),
         "c58a199d9e3fefa9ba7e257cd60b870c11e12d66aded16d747f3b339e7a80019"),
        (lambda: induce(principal_series(2, PIN_CHAR[:2]),
                        FinDimAffineModule(0, 2, [], [])),
         "c58a199d9e3fefa9ba7e257cd60b870c11e12d66aded16d747f3b339e7a80019"),
    ], ids=["P1", "P2", "P3", "P4", "P5", "P3-repeated", "P3-ratio-q",
            "P2xP1", "sign2xindex2", "rank0xP2", "P2xrank0"])
    def test_matrices_are_pinned(self, make, digest):
        # every entry of every generator, so a reordered basis fails too
        M = make()
        mats = [[[str(v) for v in row] for row in g] for g in M.s + M.x]
        text = json.dumps([M.n, M.dim, mats])
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "algebra, pos",
        [(alg, pos) for alg in ("affine", "graded") for pos in (0, 1, 2)],
        ids=["0", "1", "2", "graded-0", "graded-1", "graded-2"])
    def test_three_factors_match_nested_inductions(self, algebra, pos):
        if algebra == "affine":
            pool = (a, b, a * q, b * 7)
            factors = [principal_series(2, pool[:2]),
                       principal_series(1, pool[2:3])]
            factors.insert(pos, FinDimAffineModule(0, 2, [], []))
            check = verify_relations
        else:
            pool = (Fraction(3, 2), Fraction(5, 7), Fraction(-2))
            char = [GradedModule(1, 1, [], [[[v]]]) for v in pool]
            factors = [induce(*char[:2]), char[2]]
            factors.insert(pos, GradedModule(0, 2, [], []))
            check = check_relations
        A, B, C = factors
        routes = [induce(A, B, C), induce(induce(A, B), C),
                  induce(A, induce(B, C))]
        first = routes[0]
        for M in routes:
            assert type(M) is type(first)
            assert M.n == 3 and M.dim == 12
            assert check(M)["pass"]
            assert theta_traces(M) == theta_traces(first)
            assert pair_traces(M) == pair_traces(first)
        if algebra == "graded":
            return
        orbits = {tuple(sorted(sub, key=str))
                  for sub in itertools.combinations(pool, 3)}
        for M in routes:
            for vals in orbits:
                assert (central_block(M, vals).dim
                        == central_block(first, vals).dim), vals
        assert central_block(first, pool[:3]).dim == 12


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

    def test_weight_of_the_wrong_rank_is_rejected(self):
        with pytest.raises(ValueError, match=r"not in Z\^3"):
            antispherical_apply(AffineElement.one(3), {(0, 0): QRational(1)})


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
    def test_guard_rejects_degenerate_characters(self):
        with pytest.raises(ValueError):
            generic_guard((QRational(0), QRational(2)))
        with pytest.raises(ValueError):
            generic_guard((QRational(2), QRational(2)))
        with pytest.raises(ValueError):
            generic_guard((QRational(2), QRational(2) * q))

    def test_guard_checks_numeric_ratio(self):
        with pytest.raises(ValueError):
            generic_guard((QRational(2), QRational(6)), q0=3)
        generic_guard((QRational(2), QRational(7)), q0=3)
