import random
from fractions import Fraction
from math import lcm

import pytest

from hecke_bz import scalars
from hecke_bz.scalars import QRational, parse_qrational, specialize

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
        for text in ("q +", "q ** 2", "T[1 2]", "th[(1,0)]", "1e3", "+1",
                     "1_000", ".", "q^0.5"):
            with pytest.raises(ValueError):
                parse_qrational(text)

    def test_decimals_are_exact_fractions(self):
        assert parse_qrational("0.5") == Fraction(1, 2)
        assert parse_qrational("2.50") == Fraction(5, 2)
        assert parse_qrational("1.") == 1
        assert parse_qrational(".25*q") == q / 4
        assert parse_qrational("q^2.0") == q ** 2

    def test_unary_minus_binds_looser_than_power(self):
        assert parse_qrational("2*-q^2") == -2 * q ** 2
        assert parse_qrational("3/-q^2") == -3 / q ** 2
        assert parse_qrational("-q^2 + 1") == 1 - q ** 2
        assert parse_qrational("q^-2") == q ** -2

    def test_parenthesized_exponent(self):
        assert parse_qrational("q^(2)") == q ** 2
        assert parse_qrational("q^(1-3)") == q ** -2

    def test_exponent_is_bounded(self):
        assert parse_qrational("q^100") == q ** 100
        assert parse_qrational("q^-100") == q ** -100
        for text in ("q^101", "q^-101", "(q+1)^3000"):
            with pytest.raises(ValueError, match=r"\|exponent\| <= 100"):
                parse_qrational(text)

    def test_degree_is_bounded(self, monkeypatch):
        assert parse_qrational("(q+1)^100") == (q + 1) ** 100
        assert parse_qrational("(q^2)^50") == q ** 100
        assert parse_qrational("(1/(q+1))^-100") == (q + 1) ** 100
        powers = []
        real_pow = QRational.__pow__

        def recorded(self, k):
            powers.append(k)
            return real_pow(self, k)

        monkeypatch.setattr(QRational, "__pow__", recorded)
        for text, deg in (("((q+1)^100)^30", 3000), ("(q^2)^51", 102),
                          ("(q/(q^2+1))^-60", 120)):
            powers.clear()
            with pytest.raises(ValueError,
                               match=rf"degree {deg} .* degree <= 100"):
                parse_qrational(text)
            # rejected before the outer power runs
            assert len(powers) == text.count("^") - 1

    def test_coefficient_size_is_bounded(self, monkeypatch):
        assert parse_qrational("9^100") == 9 ** 100
        assert parse_qrational("(2^100)^40") == 2 ** 4000
        assert parse_qrational("0.001^-100") == 1000 ** 100
        powers = []
        real_pow = QRational.__pow__

        def recorded(self, k):
            powers.append(k)
            return real_pow(self, k)

        monkeypatch.setattr(QRational, "__pow__", recorded)
        # degree 0 does not exempt a constant: the nested power would be
        # 9^(10^8), an integer of about 317 million bits
        for text, bits in (("((((9^100)^100)^100)^100)", 31700),
                           ("(2^100)^41", 4141),
                           ("(10^12*q+1)^100", 4100)):
            powers.clear()
            with pytest.raises(ValueError,
                               match=rf"{bits}-bit .* bits <= 4096"):
                parse_qrational(text)
            assert len(powers) == 1

    def test_binary_operations_are_bounded(self, monkeypatch):
        a, b = (q + 2) ** 50 / (q + 3) ** 50, (q + 5) ** 50 / (q + 7) ** 50
        assert parse_qrational(
            "(q+2)^50/(q+3)^50 + (q+5)^50/(q+7)^50") == a + b
        assert parse_qrational("q^100 - 1") == q ** 100 - 1
        assert parse_qrational("(2^100)^20*(2^100)^20") == 2 ** 4000

        def boom(*args):
            raise AssertionError("polynomial gcd reached")

        # the first quotient of this sum would not finish its gcd: it is
        # refused before it runs
        monkeypatch.setattr(scalars, "_pgcd", boom)
        for text, message in (
                ("(3*q+1)^100/(q+3)^100 + (5*q+1)^100/(q+5)^100",
                 r"quotient of degree 200 .* degree <= 100"),
                ("q^60*q^60", r"product of degree 120 .* degree <= 100"),
                ("q^100 - q^-1", r"difference of degree 101 "),
                ("(2^100)^20*(2^100)^20*2^100",
                 r"product with 4103-bit .* bits <= 4096"),
                ("(3^100)^20 + (3^100)^20",
                 r"sum with 6341-bit coefficients .* bits <= 4096")):
            with pytest.raises(ValueError, match=message):
                parse_qrational(text)


# the constants of the canonical-form checks, as int and as Fraction
CONSTANTS = [0, 1, -1, 10 ** 30, Fraction(0), Fraction(1), Fraction(-1),
             Fraction(7, 3), Fraction(-7, 3), Fraction(10 ** 30)]


def general(num, den) -> QRational:
    """The reference route: Fraction coefficients scaled to integers by
    their common denominator, then the full reduction."""
    num = [Fraction(c) for c in num]
    den = [Fraction(c) for c in den]
    scale = lcm(*(c.denominator for c in num + den))
    return QRational._raw(scalars._ptrim([int(c * scale) for c in num]),
                          scalars._ptrim([int(c * scale) for c in den]))


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
    every result must still be the one the reference route gives."""

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
                if c:
                    over = general(x.num, [c * v for v in x.den])
                    self.same(x / c, over)
                    self.same(x / C, over)
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
        assert str(x / Fraction(-7, 3)) == "-3/(7*q + 7)"
        assert str(x / -2) == "-1/(2*q + 2)" and x / 1 == x

    def test_polynomials_over_constants(self, monkeypatch):
        """Sums and products of polynomials over constant denominators
        against the generic formulas through _reduce, without the general
        reduction or a product of denominators."""
        rng = random.Random(41)
        dens = (1, 2, 3, 4, 6, 12)

        def poly():
            num = [rng.randint(-6, 6) for _ in range(rng.randint(2, 5))]
            num[-1] = num[-1] or 1
            content = rng.choice((1, -1, 2, -3, 6))
            return QRational._raw(tuple(v * content for v in num),
                                  (rng.choice(dens),))

        # (q+1)/2 + (q-1)/6 = (2q+1)/3: the cross-scaled sum has content
        pairs = [((q + 1) / 2, (q - 1) / 6)]
        for _ in range(60):
            a, b = poly(), poly()
            pairs.append((a, b))
            pairs.append((a, -a))                   # cancels to zero
            pairs.append((a, 2 * q - a))            # cancels but for 2q
            pairs.append((a, QRational._canonical(b.num, a.den)))
        want = []
        for a, b in pairs:
            assert len(a.den) == 1 and len(b.den) == 1
            den = scalars._pmul(a.den, b.den)
            want.append((
                QRational._raw(scalars._pmul(a.num, b.num), den),
                QRational._raw(scalars._padd(scalars._pmul(a.num, b.den),
                                             scalars._pmul(b.num, a.den)),
                               den)))

        def boom(*args):
            raise AssertionError("general reduction reached")

        monkeypatch.setattr(QRational, "_reduce", staticmethod(boom))
        assert any(not (a + b) for a, b in pairs)
        assert any(a.den == b.den != (1,) for a, b in pairs)
        assert any(len(a.num) > 1 and a.num[-1] < 0 for a, _ in pairs)
        for (a, b), (times, plus) in zip(pairs, want):
            for got, ref in ((a * b, times), (b * a, times),
                             (a + b, plus), (b + a, plus)):
                self.same(got, ref)
                if got.den == (1,):
                    assert got.den is scalars._IONE

    def test_inexact_coefficients_are_rejected(self):
        for value in (0.1, 2.0, "q", (1, 2), (Fraction(1, 2),), None):
            with pytest.raises(TypeError):
                QRational(value)

