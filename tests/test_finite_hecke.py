import random
from fractions import Fraction

import pytest

from hecke_bz.affine import AffineElement, parse_affine
from hecke_bz.combinatorics import Permutation, length, sym_group
from hecke_bz.finite_hecke import (
    FiniteHeckeElement,
    parse_element,
    poincare_value,
    render_element,
    sign_character,
    sign_idempotent,
    sign_projector,
)
from hecke_bz import scalars
from hecke_bz.reports import _finite_case
from hecke_bz.scalars import QRational, parse_qrational

q = QRational.gen()


def rand_element(n, rng, terms=3):
    out = FiniteHeckeElement.zero(n)
    for _ in range(terms):
        w = Permutation(tuple(rng.sample(range(1, n + 1), n)))
        c = QRational(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        out = out + FiniteHeckeElement.t(n, w) * c
    return out


class TestAlgebraRelations:
    def test_quadratic(self):
        for n in range(2, 5):
            for a in range(1, n):
                t = FiniteHeckeElement.t_gen(n, a)
                assert (t - q) * (t + 1) == FiniteHeckeElement.zero(n)

    def test_braid_and_commutation(self):
        n = 4
        t1 = FiniteHeckeElement.t_gen(n, 1)
        t2 = FiniteHeckeElement.t_gen(n, 2)
        t3 = FiniteHeckeElement.t_gen(n, 3)
        assert t1 * t2 * t1 == t2 * t1 * t2
        assert t2 * t3 * t2 == t3 * t2 * t3
        assert t1 * t3 == t3 * t1

    def test_length_additivity(self):
        n = 4
        for v in sym_group(n):
            for w in sym_group(n):
                if length(v * w) == length(v) + length(w):
                    prod = FiniteHeckeElement.t(n, v) \
                        * FiniteHeckeElement.t(n, w)
                    assert prod == FiniteHeckeElement.t(n, v * w)

    def test_associativity_random(self):
        rng = random.Random(13)
        for _ in range(60):
            a = rand_element(4, rng)
            b = rand_element(4, rng)
            c = rand_element(4, rng)
            assert (a * b) * c == a * (b * c)

    def test_inverse_of_generator(self):
        n = 3
        t = FiniteHeckeElement.t_gen(n, 1)
        tinv = (t - (q - 1)) / q
        assert t * tinv == FiniteHeckeElement.one(n)


class TestSignProjector:
    def test_square_identity(self):
        for n in range(2, 5):
            S = sign_projector(n)
            P = poincare_value(n, 1 / q)
            assert S * S == S * P

    def test_eigenvector_property(self):
        for n in range(2, 5):
            S = sign_projector(n)
            for a in range(1, n):
                t = FiniteHeckeElement.t_gen(n, a)
                assert t * S == S * (-1)
                assert S * t == S * (-1)

    def test_idempotent(self):
        for n in range(2, 5):
            E = sign_idempotent(n)
            assert E * E == E

    def test_sign_character(self):
        n = 3
        S = sign_projector(n)
        assert sign_character(S) == poincare_value(n, 1 / q)
        t = FiniteHeckeElement.t_gen(n, 1)
        assert sign_character(t) == QRational(-1)

    def test_poincare_value(self):
        assert poincare_value(2, QRational(1)) == 2
        assert poincare_value(3, QRational(1)) == 6
        assert poincare_value(3, q) == (1 + q) * (1 + q + q ** 2)


class TestGrammar:
    def test_documented_forms(self):
        el = parse_element("T[2 1 3] * (q - 1) + 1", 3)
        assert render_element(el) == "T[1 2 3] + T[2 1 3] * (q - 1)"

    def test_round_trip_random(self):
        rng = random.Random(17)
        for _ in range(40):
            el = rand_element(3, rng)
            assert parse_element(render_element(el), 3) == el

    def test_scalar_promotion(self):
        el = parse_element("2", 2)
        assert el == FiniteHeckeElement.one(2) * 2

    def test_power(self):
        el = parse_element("T[2 1]^2", 2)
        t = FiniteHeckeElement.t_gen(2, 1)
        assert el == t * t

    def test_theta_rejected(self):
        with pytest.raises(ValueError):
            parse_element("th[(1,0)]", 2)

    @pytest.mark.parametrize("text", ["2*-q^2", "3/-q^2", "q^-2", "(q-1)/q",
                                      "-q^2 + 1", "q^(2)", "7"])
    def test_scalars_match_parse_qrational(self, text):
        assert parse_element(text, 3) == (
            FiniteHeckeElement.one(3) * parse_qrational(text))


# Both algebras share one element core; each builds a sample element with
# a non-identity basis term and a constant term.
ALGEBRAS = {
    "finite": (FiniteHeckeElement,
               lambda: parse_element("T[2 1] * (q-1)/q + 3", 2)),
    "affine": (AffineElement,
               lambda: parse_affine("th[(1,-1)] * T[2 1] * (q-1)/q + 3", 2)),
}


@pytest.mark.parametrize("cls, make", ALGEBRAS.values(), ids=ALGEBRAS)
class TestElementCore:
    def test_scalar_arithmetic(self, cls, make):
        a = make()
        assert 2 - a == -(a - 2)
        assert a / 2 * 2 == a

    def test_powers(self, cls, make):
        a = make()
        assert a ** 0 == cls.one(2)
        assert a ** 2 == a * a
        with pytest.raises(ValueError):
            a ** -1

    def test_rank_mismatch(self, cls, make):
        a = make()
        with pytest.raises(ValueError):
            a + cls.one(3)
        with pytest.raises(ValueError):
            a * cls.one(3)

    def test_unhashable(self, cls, make):
        with pytest.raises(TypeError):
            hash(make())

    def test_own_product(self, cls, make):
        # the benchmark's layer tracer patches __mul__ on each class itself
        assert "__mul__" in vars(cls)


@pytest.mark.parametrize("parse", [parse_element, parse_affine],
                         ids=["finite", "affine"])
def test_element_operations_are_bounded(parse, monkeypatch):
    # an element operand has the size of its largest coefficient, so the
    # scalar bounds hold for + - * / with elements as well
    t = parse("T[2 1]", 2)
    assert parse("T[2 1]*(q+2)^50/(q+3)^50 + T[1 2]*(q+5)^50/(q+7)^50", 2) \
        == t * (q + 2) ** 50 / (q + 3) ** 50 + (q + 5) ** 50 / (q + 7) ** 50
    assert parse("(T[2 1] - q)^2", 2) == (t - q) * (t - q)

    def boom(*args):
        raise AssertionError("polynomial gcd reached")

    monkeypatch.setattr(scalars, "_pgcd", boom)
    for text, message in (
            ("T[1 2]*(3*q+1)^100/(q+3)^100 + T[1 2]*(5*q+1)^100/(q+5)^100",
             r"quotient of degree 200 .* degree <= 100"),
            ("T[1 2]*(3*q+1)^60/(q+3)^60 + T[1 2]*(5*q+1)^60/(q+5)^60",
             r"quotient of degree 120 "),
            ("(T[2 1]*q^60)*q^60", r"product of degree 120 "),
            ("T[2 1]*q^60 - T[1 2]*q^41", r"difference of degree 101 "),
            ("(T[2 1]*q^20)^6", r"power of degree 120 "),
            ("T[2 1]*(2^100)^20*(2^100)^20*2^100",
             r"product with 4103-bit "),
            ("(T[2 1]*(3^100)^20) + (3^100)^20",
             r"sum with 6341-bit coefficients .* bits <= 4096")):
        with pytest.raises(ValueError, match=message):
            parse(text, 2)


def test_finite_terms_pass_the_bounds(monkeypatch):
    # a finite key is a Permutation, itself a tuple: the bounds tell it
    # from an affine (weight, w) key by its type
    counts = []
    check = scalars._check_expansion

    def spy(v, w):
        counts.append(check(v, w))
        return counts[-1]

    monkeypatch.setattr(scalars, "_check_expansion", spy)
    t = FiniteHeckeElement.t(3, Permutation((2, 1, 3)))
    assert parse_element("(T[2 1 3] + 1)^3 * (q+1)", 3) \
        == (t + 1) ** 3 * (q + 1)
    assert counts and set(counts) == {0}
    assert scalars._size(t * q ** 2) == (2, 1)


def test_t_refuses_a_permutation_of_another_rank():
    for cls in (FiniteHeckeElement, AffineElement):
        with pytest.raises(ValueError, match=r"T\[2 1\] is not in S_3"):
            cls.t(3, Permutation((2, 1)))


def test_t_keys_a_checked_word_as_a_permutation():
    # a plain tuple key would compare equal, so the key type is checked
    el = FiniteHeckeElement.t(3, (2, 1, 3)) + 1
    assert el == parse_element("T[2 1 3] + 1", 3)
    assert all(type(w) is Permutation for w in el.terms)
    with pytest.raises(ValueError, match="not a permutation"):
        FiniteHeckeElement.t(3, (2, 2, 1))


def test_affine_t_of_a_word_multiplies():
    t = AffineElement.t(3, (3, 1, 2))
    assert t * t == parse_affine("T[3 1 2] * T[3 1 2]", 3)
    assert all(type(w) is Permutation for _, w in t.terms)


def test_finite_never_equals_affine():
    f = parse_element("T[2 1] * q + 1", 2)
    assert f != parse_affine("T[2 1] * q + 1", 2)
    assert FiniteHeckeElement.one(2) != AffineElement.one(2)
    assert FiniteHeckeElement.zero(2) != AffineElement.zero(2)


@pytest.mark.parametrize("n, gen, failures", [
    # -T_a squares to (q - 1) T_a + q, not to (q - 1)(-T_a) + q, and
    # turns the sign projector's eigenvalue to +1; the braids still hold
    (3, lambda t, n, j: t(n, j) * (-1),
     ["quadratic s_1", "quadratic s_2",
      "projector eigen s_1", "projector eigen s_2"]),
    # s_2 -> T_3: T_1 T_3 T_1 != T_3 T_1 T_3, and nothing else fails
    (4, lambda t, n, j: t(n, 3 if j == 2 else j), ["braid s_1"]),
    # s_3 -> T_2 T_1 T_2^-1, a conjugate of T_1: quadratic, in braid with
    # T_2 and unmoved on the sign projector, but not commuting with T_1
    (4, lambda t, n, j: (t(n, 2) * t(n, 1) * (t(n, 2) - (q - 1)) / q
                         if j == 3 else t(n, j)), ["commute s_1 s_3"]),
])
def test_finite_case_names_each_failing_relation(monkeypatch, n, gen,
                                                 failures):
    checks = _finite_case(n)["checks"]
    original = FiniteHeckeElement.t_gen
    monkeypatch.setattr(FiniteHeckeElement, "t_gen",
                        classmethod(lambda cls, n, j: gen(original, n, j)))
    assert _finite_case(n) == {"n": n, "checks": checks,
                               "failures": failures}
