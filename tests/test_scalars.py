import random
from fractions import Fraction

import pytest

from hecke_bz import scalars
from hecke_bz.scalars import (
    KAPPA_SYM,
    P_SYM,
    PKPoly,
    QRational,
    parse_qrational,
    specialize,
)

q = QRational.gen()


def rand_scalar(rng, depth=3):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return QRational(Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
        return q ** rng.randint(0, 2) * rng.randint(-3, 3)
    a = rand_scalar(rng, depth - 1)
    b = rand_scalar(rng, depth - 1)
    op = rng.randint(0, 3)
    if op == 0:
        return a + b
    if op == 1:
        return a - b
    if op == 2:
        return a * b
    return a / b if b else a


class TestQRational:
    def test_constants_behave_like_fractions(self):
        assert QRational(2) + QRational(Fraction(1, 2)) == QRational(Fraction(5, 2))
        assert QRational(Fraction(3, 4)) == Fraction(3, 4)
        assert hash(QRational(Fraction(3, 4))) == hash(Fraction(3, 4))
        assert QRational(0) == 0 and not QRational(0)

    def test_generator_algebra(self):
        assert (q - 1) * (q + 1) == q ** 2 - 1
        assert (q ** 2 - 1) / (q - 1) == q + 1
        assert q ** -2 == 1 / q ** 2
        assert (q + 1) ** -2 == 1 / (q + 1) ** 2

    def test_canonical_equality_is_syntactic(self):
        a = (q ** 2 + 2 * q + 1) / (q + 1)
        assert a == q + 1
        assert hash(a) == hash(q + 1)
        b = (q ** 3 - q) / (2 * q ** 2)
        c = (q ** 2 - 1) / (2 * q)
        assert b == c and str(b) == str(c)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            (q + 1) / QRational(0)

    def test_specialize(self):
        a = (q ** 2 - 1) / (q + 2)
        assert specialize(a, Fraction(3)) == Fraction(8, 5)
        with pytest.raises(ZeroDivisionError):
            specialize(1 / (q - 1), Fraction(1))

    def test_field_axioms_against_specialization(self):
        rng = random.Random(5)
        points = [Fraction(2), Fraction(3), Fraction(5, 2), Fraction(-7, 3)]
        for _ in range(80):
            a = rand_scalar(rng)
            b = rand_scalar(rng)
            c = rand_scalar(rng)
            lhs = a * (b + c)
            rhs = a * b + a * c
            assert lhs == rhs
            for pt in points:
                try:
                    la = specialize(lhs, pt)
                except ZeroDivisionError:
                    continue
                assert la == specialize(a, pt) * (specialize(b, pt)
                                                  + specialize(c, pt))

    def test_render_parse_round_trip(self):
        rng = random.Random(11)
        for _ in range(300):
            a = rand_scalar(rng)
            assert parse_qrational(str(a)) == a

    def test_denominator_parenthesization(self):
        a = (q ** 3 - q) / (2 * q ** 2)
        assert parse_qrational(str(a)) == a
        assert str(a) == "(q^2 - 1)/(2*q)"

    def test_parse_errors(self):
        for text in ("q +", "q ** 2", "T[1 2]", "th[(1,0)]"):
            with pytest.raises(ValueError):
                parse_qrational(text)

    def test_unary_minus_binds_looser_than_power(self):
        assert parse_qrational("2*-q^2") == -2 * q ** 2
        assert parse_qrational("3/-q^2") == -3 / q ** 2
        assert parse_qrational("-q^2 + 1") == 1 - q ** 2
        assert parse_qrational("q^-2") == q ** -2

    def test_parenthesized_exponent(self):
        assert parse_qrational("q^(2)") == q ** 2
        assert parse_qrational("q^(1-3)") == q ** -2


# the constants of the canonical-form checks, as int and as Fraction
CONSTANTS = [0, 1, -1, 10 ** 30, Fraction(0), Fraction(1), Fraction(-1),
             Fraction(7, 3), Fraction(-7, 3), Fraction(10 ** 30)]


def general(num, den) -> QRational:
    """The tuple route: Fraction coefficients through the full reduction."""
    return QRational(tuple(Fraction(c) for c in num), tuple(den))


def poly_add(a, b) -> list:
    out = [Fraction(0)] * max(len(a), len(b))
    for i, v in enumerate(a):
        out[i] += v
    for i, v in enumerate(b):
        out[i] += v
    return out


def poly_mul(a, b) -> list:
    out = [Fraction(0)] * (len(a) + len(b) - 1) if a and b else []
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] += u * v
    return out


def canonical_samples() -> list:
    """Seeded values with negative coefficients and monomial and
    non-monomial denominators, plus zero."""
    rng = random.Random(23)
    out = [QRational(0), -1 / (q + 1), (q - 3) / (2 * q ** 2),
           -(7 * q ** 2 - 2) / (3 * q + 6)]
    while len(out) < 40:
        out.append(rand_scalar(rng))
    assert any(x.den != (1,) and sum(1 for v in x.den if v) > 1 for x in out)
    assert any(len(x.den) > 1 and sum(1 for v in x.den if v) == 1
               for x in out)
    return out


class TestCanonicalForm:
    """Constants enter in canonical form without the general reduction;
    every result must still be the one the tuple route gives."""

    @staticmethod
    def same(a, b):
        assert isinstance(a, QRational)
        assert (a.num, a.den) == (b.num, b.den)
        assert hash(a) == hash(b)

    def test_constant_construction(self):
        for c in CONSTANTS:
            self.same(QRational(c), general((c,), (1,)))
        assert hash(QRational(Fraction(-7, 3))) == hash(Fraction(-7, 3))

    def test_mixed_arithmetic(self):
        for x in canonical_samples():
            for c in CONSTANTS:
                C = general((c,), (1,))
                cden = [c * v for v in x.den]
                plus = general(poly_add(x.num, cden), x.den)
                minus = general(poly_add(x.num, [-v for v in cden]), x.den)
                rminus = general(poly_add([-v for v in x.num], cden), x.den)
                times = general([c * v for v in x.num], x.den)
                for got, want in ((x + c, plus), (c + x, plus),
                                  (x - c, minus), (c - x, rminus),
                                  (x * c, times), (c * x, times),
                                  (x + C, plus), (x - C, minus),
                                  (x * C, times)):
                    self.same(got, want)
                assert (x == c) == ((x.num, x.den) == (C.num, C.den))

    def test_products_of_samples(self):
        xs = canonical_samples()
        for x in xs:
            for y in xs[:10]:
                want = general(poly_mul(x.num, y.num),
                               poly_mul(x.den, y.den))
                self.same(x * y, want)

    def test_no_gcd_or_reduction_for_constants_and_zero(self, monkeypatch):
        x = 1 / (q + 1)

        def boom(*args):
            raise AssertionError("general reduction reached")

        monkeypatch.setattr(scalars, "_pgcd", boom)
        monkeypatch.setattr(QRational, "_reduce", staticmethod(boom))
        assert 0 + x is x and x + 0 is x and x - 0 is x
        assert str(QRational(5)) == "5"
        assert str(QRational(Fraction(-7, 3))) == "-7/3"
        assert not x == 1
        assert str(x * Fraction(-7, 3)) == "-7/(3*q + 3)"

    def test_inexact_coefficients_are_rejected(self):
        for num, den in (((0.1,), None), ((1, 0.5), None),
                         ((1,), (2.0,)), ((Fraction(1, 2), "q"), None)):
            with pytest.raises(TypeError):
                QRational(num, den)


class TestPKPoly:
    def test_ring_ops(self):
        assert P_SYM * 2 + KAPPA_SYM == PKPoly({(1, 0): 2, (0, 1): 1})
        assert (KAPPA_SYM - P_SYM) * (KAPPA_SYM + P_SYM) \
            == KAPPA_SYM * KAPPA_SYM - P_SYM * P_SYM
        assert PKPoly(Fraction(1, 2)) * 2 == 1

    def test_constant_detection(self):
        assert (P_SYM - P_SYM + 3).is_constant()
        assert not KAPPA_SYM.is_constant()
        assert (PKPoly(Fraction(7, 2))).constant_value() == Fraction(7, 2)

    def test_evaluate(self):
        a = KAPPA_SYM * KAPPA_SYM - 2 * P_SYM
        assert a.evaluate(Fraction(1, 2), Fraction(3)) == Fraction(8)
        assert abs(a.evaluate(0.5, 3.0) - 8.0) < 1e-12

    def test_str(self):
        assert str(KAPPA_SYM - P_SYM * P_SYM) == "-p^2 + kappa"
        assert str(PKPoly(0)) == "0"

    def test_constants_hash_like_their_value(self):
        for c in (0, 2, -5, Fraction(7, 2)):
            assert PKPoly(c) == c and hash(PKPoly(c)) == hash(c)
        assert len({PKPoly(2), 2}) == 1
        assert (P_SYM - P_SYM + 3) in {3}
