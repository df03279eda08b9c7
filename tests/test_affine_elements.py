import random
import time
from fractions import Fraction

import pytest

from hecke_bz.affine import (
    AffineElement,
    oracle_apply,
    parse_affine,
    render_affine,
)
from hecke_bz.combinatorics import Permutation
from hecke_bz.scalars import QRational

from routes import sign_projector_tail

q = QRational.gen()


def rand_element(n, rng, terms=3):
    out = AffineElement.zero(n)
    for _ in range(terms):
        x = tuple(rng.randint(-2, 2) for _ in range(n))
        w = Permutation(tuple(rng.sample(range(1, n + 1), n)))
        c = QRational(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        out = out + AffineElement.theta(n, x) * AffineElement.t(n, w) * c
    return out


def rand_poly(n, rng, terms=2):
    out = {}
    for _ in range(terms):
        y = tuple(rng.randint(-2, 2) for _ in range(n))
        out[y] = QRational(rng.randint(1, 4))
    return out


def oracle_agree(a, b, probes):
    prod = a * b
    return all(
        oracle_apply(prod, f) == oracle_apply(a, oracle_apply(b, f))
        for f in probes)


class TestOracleOperators:
    def test_quadratic_on_polynomials(self):
        rng = random.Random(3)
        for n in (2, 3):
            t = AffineElement.t_gen(n, 1)
            lhs = t * t
            rhs = t * (q - 1) + AffineElement.one(n) * q
            for _ in range(5):
                f = rand_poly(n, rng)
                assert oracle_apply(lhs, f) == oracle_apply(rhs, f)

    def test_braid_on_polynomials(self):
        rng = random.Random(4)
        n = 3
        t1, t2 = AffineElement.t_gen(n, 1), AffineElement.t_gen(n, 2)
        for _ in range(5):
            f = rand_poly(n, rng)
            assert oracle_apply(t1 * t2 * t1, f) \
                == oracle_apply(t2 * t1 * t2, f)


    def test_sum_of_single_terms(self):
        # shared T_w prefixes must not mix the terms' theta parts up
        rng = random.Random(8)
        for n in (3, 4):
            perms = [Permutation(tuple(rng.sample(range(1, n + 1), n)))
                     for _ in range(4)]
            perms.append(Permutation.identity(n))
            el = AffineElement.zero(n)
            for w in perms:
                for _ in range(3):
                    x = tuple(rng.randint(-2, 2) for _ in range(n))
                    c = QRational(rng.randint(1, 5)) - q
                    el = el + (AffineElement.theta(n, x)
                               * AffineElement.t(n, w) * c)
            assert len(el.terms) > len(set(w for _, w in el.terms)) + 2
            f = rand_poly(n, rng, terms=3)
            want = {}
            for key, c in el.terms.items():
                for y, d in oracle_apply(AffineElement(n, {key: c}),
                                         f).items():
                    want[y] = want.get(y, 0) + d
            assert oracle_apply(el, f) == {y: d for y, d in want.items()
                                           if d}

    def test_weight_of_the_wrong_rank_is_rejected(self):
        t = AffineElement.t_gen(3, 1)
        assert oracle_apply(t, {(1, 0, 0): QRational(1)}) \
            == {(0, 1, 0): q, (1, 0, 0): q - 1}
        for y in [(1, 0, 0, 2), (1, 0)]:
            with pytest.raises(ValueError, match=r"not in Z\^3"):
                oracle_apply(t, {y: QRational(1)})

    def test_non_scalar_coefficient_is_rejected(self):
        with pytest.raises(TypeError, match="not a scalar"):
            oracle_apply(AffineElement.t_gen(2, 1), {(1, 0): 0.5})


class TestMultiplicationAgainstOracle:
    def test_generator_pairs(self):
        rng = random.Random(5)
        for n in (2, 3):
            gens = [AffineElement.t_gen(n, a) for a in range(1, n)]
            gens += [AffineElement.theta(
                n, tuple(1 if i == k else 0 for i in range(n)))
                for k in range(n)]
            gens.append(AffineElement.theta(
                n, tuple(-1 if i == 0 else 0 for i in range(n))))
            probes = [rand_poly(n, rng) for _ in range(3)]
            probes.append({(0,) * n: QRational(1)})
            for a in gens:
                for b in gens:
                    assert oracle_agree(a, b, probes)

    def test_random_pairs(self):
        rng = random.Random(6)
        for n in (2, 3):
            probes = [rand_poly(n, rng) for _ in range(3)]
            for _ in range(30):
                a, b = rand_element(n, rng), rand_element(n, rng)
                assert oracle_agree(a, b, probes)

    def test_associativity(self):
        rng = random.Random(7)
        for _ in range(20):
            a = rand_element(3, rng)
            b = rand_element(3, rng)
            c = rand_element(3, rng)
            assert (a * b) * c == a * (b * c)


class TestCrossRelation:
    def test_closed_form(self):
        for n in (2, 3):
            for j in range(1, n):
                tj = AffineElement.t_gen(n, j)
                for x in _small_weights(n):
                    th = AffineElement.theta(n, x)
                    sx = list(x)
                    sx[j - 1], sx[j] = sx[j], sx[j - 1]
                    ths = AffineElement.theta(n, tuple(sx))
                    lhs = th * tj - tj * ths
                    m = x[j - 1] - x[j]
                    rhs = AffineElement.zero(n)
                    if m >= 0:
                        w = list(x)
                        for _ in range(m):
                            rhs = rhs + AffineElement.theta(n, tuple(w))
                            w[j - 1] -= 1
                            w[j] += 1
                    else:
                        w = list(x)
                        for _ in range(-m):
                            w[j - 1] += 1
                            w[j] -= 1
                            rhs = rhs - AffineElement.theta(n, tuple(w))
                    assert lhs == rhs * (q - 1), (n, j, x)


def _small_weights(n):
    if n == 2:
        rng = range(-2, 3)
        return [(a, b) for a in rng for b in rng]
    rng = range(-1, 2)
    return [(a, b, c) for a in rng for b in rng for c in rng]


class TestEmbeddingsAndTail:
    def test_tail_projector_eigenproperty(self):
        n, i = 4, 3
        e = sign_projector_tail(n, i)
        for a in range(n - i + 1, n):
            t = AffineElement.t_gen(n, a)
            assert t * e == e * (-1)
            assert e * t == e * (-1)

    def test_tail_trivial(self):
        assert sign_projector_tail(3, 1) == AffineElement.one(3)
        assert sign_projector_tail(3, 0) == AffineElement.one(3)


class TestGrammar:
    def test_documented_round_trip(self):
        text = "th[(1,0,-1)] * T[2 1 3] * ((q - 1)/q)"
        el = parse_affine(text, 3)
        assert render_affine(el) == text

    def test_round_trip_random(self):
        rng = random.Random(9)
        for _ in range(40):
            el = rand_element(3, rng)
            assert parse_affine(render_affine(el), 3) == el

    def test_weights_are_bounded(self):
        # a coordinate is an exponent of theta_x and is bounded as one
        assert parse_affine("th[(100,-100)]", 2) \
            == AffineElement.theta(2, (100, -100))
        for text in ("T[2 1]*th[(100000,0)]", "th[(0,-101)]",
                     "T[2 1]*th[(100000000,0)]"):
            with pytest.raises(ValueError, match=r"\|coordinate\| <= 100"):
                parse_affine(text, 2)
        # and theta_x theta_y = theta_{x+y}: products and powers of theta
        # atoms add the exponents, as products of scalars add degrees
        for text, message in (
                ("T[2 1]*(th[(100,0)]^100)^100", "power of degree 10000 "),
                ("th[(60,0)]*th[(0,-41)]", "product of degree 101 "),
                ("th[(1,0)]^101", r"\|exponent\| <= 100")):
            with pytest.raises(ValueError, match=message):
                parse_affine(text, 2)
        assert parse_affine("th[(1,0)]^100", 2) \
            == AffineElement.theta(2, (100, 0))

    def test_expansions_are_bounded(self):
        # T_v theta_y with v != 1 rewrites into theta_z T_u, z in a box of
        # (max y - min y + 1)^(n-1) weights, u <= v: at most
        # min(n!, 2^l(v)) of them.  A product is refused before it runs
        # when that count, summed over its pairs of terms, passes 30000
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"up to 862488 terms .* "
                                             r"terms <= 30000"):
            parse_affine("T[4 3 2 1]*th[(16,-16,16,-16)]", 4)
        assert time.perf_counter() - start < 0.05
        for text, n in (("T[3 2 1]*th[(35,-35,0)]", 3),
                        ("T[6 5 4 3 2 1]*th[(1,-1,0,0,0,0)]", 6),
                        ("T[3 2 1]*th[(9,-9,0)]*th[(9,-9,0)]", 3),
                        ("(T[3 2 1]*th[(1,-1,0)])^7", 3)):
            with pytest.raises(ValueError, match=r"terms <= 30000"):
                parse_affine(text, n)
        # a theta-first product rewrites nothing, and a smaller box passes
        assert parse_affine("th[(35,-35,0)]*T[3 2 1]", 3) == \
            AffineElement.theta(3, (35, -35, 0)) * \
            AffineElement.t(3, Permutation((3, 2, 1)))
        assert len(parse_affine("(T[3 2 1]*th[(1,-1,0)])^4", 3).terms) == 108

    def test_short_left_terms_pass_at_high_rank(self):
        # T_v theta_y reaches only the u <= v, at most 2^l(v) of them, and
        # an invariant theta_y rewrites nothing: these stay cheap at ranks
        # where n! alone is over the bound
        s1 = AffineElement.t(8, Permutation.adjacent(8, 1))
        q = QRational.gen()
        square = (q - 1) * s1 + q * AffineElement.one(8)
        for text in ("T[2 1 3 4 5 6 7 8]*T[2 1 3 4 5 6 7 8]",
                     "T[2 1 3 4 5 6 7 8]^2",
                     "T[8 7 6 5 4 3 2 1]*th[(3,3,3,3,3,3,3,3)]"):
            assert len(parse_affine(text, 8).terms) <= 2
        assert parse_affine("T[2 1 3 4 5 6 7 8]^2", 8) == square
        assert s1 ** 2 == square
        got = parse_affine("T[2 1 3 4 5 6 7]*th[(1,0,0,0,0,0,0)]", 7)
        assert len(got.terms) == 2
        # a left term of length 6 next to a box of 2^8 weights at rank 9:
        # 64 * 256 terms at most
        assert parse_affine("T[2 3 4 5 6 7 1 8 9]*th[(1,0,1,0,1,0,1,0,0)]",
                            9).terms
        with pytest.raises(ValueError, match=r"terms <= 30000"):
            parse_affine("T[2 3 4 5 6 7 8 1 9]*th[(1,0,1,0,1,0,1,0,0)]", 9)

    def test_identity_renders(self):
        assert render_affine(AffineElement.one(2)) == "T[1 2]"
