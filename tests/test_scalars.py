import random
from fractions import Fraction

import pytest

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
