"""The Hecke-word product loops over one common denominator, with
coefficients whose denominators are not constants or monomials.  Every
coefficient a product or an action returns is checked canonical, and at
rational points against the Fraction sum over pairs of basis terms of the
operands' coefficients times the product or action of those basis terms,
whose coefficients lie in Z[q]."""

import random
from fractions import Fraction

import pytest

from hecke_bz.affine import AffineElement, oracle_apply
from hecke_bz.affine.modules import antispherical_apply, antispherical_generator
from hecke_bz.combinatorics import Permutation
from hecke_bz.finite_hecke import FiniteHeckeElement
from hecke_bz.scalars import (
    QRational,
    _lift,
    _lower,
    _pack,
    _width,
    specialize,
)
from routes import POINTS, assert_canonical, at

q = QRational.gen()
DENOMINATORS = [q + 1, q * q + q + 1, 2 * q - 3, q * q, (q + 1) * (q - 2)]


def rational(rng):
    """A coefficient (c q + d)/D with D one of DENOMINATORS."""
    return ((q * rng.randint(1, 3) + rng.randint(-2, 2))
            / rng.choice(DENOMINATORS))


def rand_affine(n, rng, terms=2):
    out = AffineElement.zero(n)
    for _ in range(terms):
        x = tuple(rng.randint(-1, 1) for _ in range(n))
        w = Permutation(tuple(rng.sample(range(1, n + 1), n)))
        out = out + (AffineElement.theta(n, x) * AffineElement.t(n, w)
                     * rational(rng))
    return out


def rand_finite(n, rng, terms=3):
    out = FiniteHeckeElement.zero(n)
    for _ in range(terms):
        w = Permutation(tuple(rng.sample(range(1, n + 1), n)))
        out = out + FiniteHeckeElement.t(n, w) * rational(rng)
    return out


def rand_probe(n, rng, terms=2):
    return {tuple(rng.randint(-1, 1) for _ in range(n)): rational(rng)
            for _ in range(terms)}


def check_bilinear(got, basis_op, left, right):
    """got is op(left, right) for a bilinear op on coefficient dicts, and
    basis_op(k, l) is op on the basis keys k and l with coefficient 1."""
    table = {(k, m): basis_op(k, m) for k in left for m in right}
    for z in set(got).union(*table.values()):
        def value(t):
            return sum(specialize(left[k], t) * specialize(right[m], t)
                       * specialize(r[z], t)
                       for (k, m), r in table.items() if z in r)
        if z in got:
            assert_canonical(got[z], value)
        else:
            assert all(value(t) == 0 for t in POINTS)


def product(a, b):
    """a * b, every coefficient checked."""
    prod = a * b
    E, n = type(a), a.n
    check_bilinear(prod.terms,
                   lambda k, m: (E(n, {k: 1}) * E(n, {m: 1})).terms,
                   a.terms, b.terms)
    return prod


def action(apply, el, f):
    """apply(el, f) for oracle_apply or antispherical_apply, every
    coefficient checked."""
    out = apply(el, f)
    check_bilinear(out, lambda k, y: apply(type(el)(el.n, {k: 1}), {y: 1}),
                   el.terms, f)
    return out


class TestLiftAndLower:
    @pytest.mark.parametrize("values", [
        {"a": QRational(3), "b": QRational(1) / 2, "c": QRational(-5) / 6},
        {"a": 1 / q, "b": q * 2, "c": QRational(3) / (q * q * 4)},
        {k: (q * k - 1) / d for k, d in enumerate(DENOMINATORS)},
        {"a": 1 / (q + 1), "b": 1 / (2 * q + 2), "c": q / 3},
    ], ids=["constant", "monomial", "general", "shared-factor"])
    def test_round_trip(self, values):
        polys, D = _lift(values)
        assert D[-1] > 0
        for k, p in polys.items():
            assert all(isinstance(c, int) for c in p)
            assert QRational._raw(p, D) == values[k]
        # at the width of one walk of no generators over polys, times 1
        B = _width(polys, {None: (1,)}, 1, 1)
        lowered = _lower({k: _pack(p, B) for k, p in polys.items()}, D, B)
        assert lowered == values
        for k, v in lowered.items():
            assert_canonical(v, at(values[k]))

    def test_denominator_is_the_lcm(self):
        assert _lift({0: QRational(1) / 4, 1: QRational(1) / 6})[1] == (12,)
        got = _lift({0: 1 / (q + 1), 1: 1 / (q * q - 1), 2: 1 / (2 * q + 2)})
        assert got[1] == (-2, 0, 2)

    def test_zeros_are_dropped(self):
        assert _lift({}) == ({}, (1,))
        assert _lift({"z": QRational(0), "i": 2}) == ({"i": (2,)}, (1,))
        lowered = _lower({"z": _pack((), 4), "i": _pack((2,), 4)}, (4,), 4)
        assert lowered == {"i": QRational(1) / 2}
        assert_canonical(lowered["i"], lambda t: Fraction(1, 2))

    def test_non_scalars_are_refused(self):
        with pytest.raises(TypeError, match="not a scalar"):
            _lift({(0, 0): 0.5})


class TestRationalCoefficients:
    @pytest.mark.parametrize("n", [2, 3])
    def test_product_against_oracle(self, n):
        rng = random.Random(31 + n)
        for _ in range(4):
            a, b = rand_affine(n, rng), rand_affine(n, rng)
            prod = product(a, b)
            for _ in range(2):
                f = rand_probe(n, rng)
                assert action(oracle_apply, prod, f) == action(
                    oracle_apply, a, action(oracle_apply, b, f))

    def test_affine_associativity(self):
        rng = random.Random(41)
        for _ in range(3):
            a, b, c = (rand_affine(3, rng) for _ in range(3))
            assert product(product(a, b), c) == product(a, product(b, c))

    @pytest.mark.parametrize("n", [3, 4])
    def test_finite_associativity(self, n):
        rng = random.Random(43 + n)
        for _ in range(4):
            a, b, c = (rand_finite(n, rng) for _ in range(3))
            assert product(product(a, b), c) == product(a, product(b, c))

    def test_antispherical_associativity(self):
        rng = random.Random(47)
        for _ in range(4):
            a, b = rand_affine(3, rng), rand_affine(3, rng)
            v = rand_probe(3, rng)
            assert action(antispherical_apply, a,
                          action(antispherical_apply, b, v)) \
                == action(antispherical_apply, product(a, b), v)

    def test_cancellation_to_zero(self):
        n = 3
        fin = FiniteHeckeElement.t_gen(n, 1)
        aff = AffineElement.t_gen(n, 2)
        # (T - q)/(q + 1) times (T + 1)/(2q - 3) vanishes in both algebras
        for t, zero in ((fin, FiniteHeckeElement.zero(n)),
                        (aff, AffineElement.zero(n))):
            prod = product((t - q) / (q + 1), (t + 1) / (2 * q - 3))
            assert prod == zero and prod.terms == {}
        f = {(1, 0, -1): 1 / (q * q + q + 1), (0, 2, 0): q / (q + 1)}
        quad = aff * aff - aff * (q - 1) - q
        assert action(oracle_apply, quad, f) == {}
        plus = (aff + 1) / ((q + 1) * (q - 2))
        assert action(antispherical_apply, plus,
                      antispherical_generator(n)) == {}

    def test_empty_element_and_probe(self):
        rng = random.Random(53)
        a = rand_affine(3, rng)
        zero = AffineElement.zero(3)
        f = rand_probe(3, rng)
        assert product(zero, a) == zero and product(a, zero) == zero
        assert action(oracle_apply, zero, f) == {}
        assert action(oracle_apply, a, {}) == {}
        assert action(antispherical_apply, zero, f) == {}
        assert action(antispherical_apply, a, {}) == {}
        fin = rand_finite(3, rng)
        assert product(fin, FiniteHeckeElement.zero(3)) \
            == FiniteHeckeElement.zero(3)
