"""The Hecke-word loops carry each coefficient p in Z[q] as the int
p(2^B) at the width B of `scalars._width`.  The packing round-trips at
the edge of its digit range, the width's growth factor is needed, and
all four loops agree with their int-tuple second routes (`routes`) on
large numerators, non-monomial denominators and wide weights."""

import random

import pytest

from hecke_bz.affine import AffineElement, oracle_apply
from hecke_bz.affine.modules import antispherical_apply
from hecke_bz.combinatorics import Permutation
from hecke_bz.finite_hecke import FiniteHeckeElement
from hecke_bz.scalars import QRational, _lift, _pack, _padd, _unpack, _width
from routes import (
    poly_antispherical_apply,
    poly_finite_product,
    poly_multiply,
    poly_oracle_apply,
)

q = QRational.gen()
DENOMINATORS = [QRational(1), QRational(3), q * q, q + 1,
                (q + 1) * (q * q + q + 1)]


class TestPacking:
    @pytest.mark.parametrize("B", [2, 3, 8, 31, 64, 100])
    def test_round_trip_at_the_digit_range(self, B):
        M = (1 << (B - 1)) - 1
        polys = [(), (M,), (-M,), (0, 0, M), (M, 0, 0, -M), (-M, M, 0, -M),
                 (0, -M, 0, 0, M), (1, 0, -1), (-1, 0, 0, 0, 1)]
        rng = random.Random(B)
        polys += [tuple(rng.choice((-M, 0, M)) for _ in range(5)) + (M,)
                  for _ in range(20)]
        for p in polys:
            v = _pack(p, B)
            assert _unpack(v, B) == p
            assert (v == 0) == (p == ())
            assert _unpack(-v, B) == tuple(-c for c in p)

    def test_sums_decode_within_the_range(self):
        B = 10
        rng = random.Random(7)
        for _ in range(50):
            a = tuple(rng.randint(-255, 255) for _ in range(6)) + (1,)
            b = tuple(rng.randint(-255, 255) for _ in range(4)) + (-1,)
            assert _unpack(_pack(a, B) + _pack(b, B), B) == _padd(a, b)

    def test_growth_factor_is_load_bearing(self):
        # T[4 3 2 1] on x^(5,0,0,-5): both norms are 1, but the walk's six
        # generators grow a coefficient to 110, which the width of the norms
        # alone (growth 1) cannot hold; that of the spread-10 growth 21 can
        el = AffineElement.t(4, Permutation((4, 3, 2, 1)))
        probe = {(5, 0, 0, -5): 1}
        out = oracle_apply(el, probe)
        assert out == poly_oracle_apply(el, probe)
        assert all(v.den == (1,) for v in out.values())
        biggest = max(abs(c) for v in out.values() for c in v.num)
        assert biggest == 110
        left, _ = _lift(el.terms)
        right, _ = _lift(probe)
        assert biggest >= 1 << (_width(left, right, 4, 1) - 1)
        assert biggest < 1 << (_width(left, right, 4, 1, right) - 2)


def coefficient(rng):
    """(a q^k + b)/D with |a|, |b| up to 10^30 and D one of DENOMINATORS."""
    big = 10 ** 30
    return ((q ** rng.randint(0, 3) * rng.randint(-big, big)
             + rng.randint(-big, big)) / rng.choice(DENOMINATORS))


def weight(n, rng, spread):
    lo = rng.randint(-spread, 0)
    return tuple(rng.randint(lo, lo + spread) for _ in range(n))


def rand_perm(n, rng):
    return Permutation(tuple(rng.sample(range(1, n + 1), n)))


def rand_affine(n, rng, terms, spread):
    return AffineElement(n, {(weight(n, rng, spread), rand_perm(n, rng)):
                             coefficient(rng) for _ in range(terms)})


def rand_probe(n, rng, terms, spread):
    return {weight(n, rng, spread): coefficient(rng) for _ in range(terms)}


class TestSecondRoutes:
    """Each loop against its int-tuple route, at weight spreads up to 12."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_finite_product(self, n):
        rng = random.Random(100 + n)
        for _ in range(6):
            a, b = (FiniteHeckeElement(n, {rand_perm(n, rng): coefficient(rng)
                                           for _ in range(3)})
                    for _ in range(2))
            assert (a * b).terms == poly_finite_product(a, b).terms

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_affine_product(self, n):
        rng = random.Random(200 + n)
        for _ in range(6):
            a = rand_affine(n, rng, 2, rng.randint(0, 12))
            b = rand_affine(n, rng, 2, rng.randint(0, 12))
            assert (a * b).terms == poly_multiply(a, b).terms

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("apply, route", [
        (oracle_apply, poly_oracle_apply),
        (antispherical_apply, poly_antispherical_apply),
    ], ids=["oracle", "antispherical"])
    def test_actions(self, apply, route, n):
        rng = random.Random(300 + n)
        for _ in range(6):
            el = rand_affine(n, rng, 2, rng.randint(0, 4))
            f = rand_probe(n, rng, 2, rng.randint(0, 12))
            got = apply(el, f)
            assert got == route(el, f)
            assert all(isinstance(v, QRational) for v in got.values())
