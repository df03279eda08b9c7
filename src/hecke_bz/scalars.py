"""Exact coefficient arithmetic for the Hecke parameter q.

Everything exact in this package is linear algebra over one of two fields:

* ``Fraction`` -- plain rationals with arbitrary-precision integers:
  the standard ``fractions.Fraction`` (reduced, positive denominator),
  used as is.

* ``QRational`` -- rational functions in a single formal parameter q with
  rational coefficients.  Internally both numerator and denominator are
  integer-coefficient polynomials, coprime, with no joint integer content
  and positive denominator lead; that form is unique, so equality is
  syntactic, and it keeps every coefficient operation in machine-integer
  arithmetic (Fraction appears only at the boundary):

  >>> q = QRational.gen()
  >>> (q - 1) / (q * q - 1)
  QRational('1/(q + 1)')
  >>> 1 / (q + 1) + q / (q + 1) == 1
  True

  An int or Fraction constant enters straight in that form, as (v,)/(1,)
  or (numerator,)/(denominator,), without Fraction arithmetic or a
  reduction.  Adding zero returns the other operand, and multiplying or
  dividing by a constant only divides out integer content, so neither the
  accumulators that start at 0 nor scalings by constants reach the
  reduction.  Every other result is reduced by one rule, ``_reduce``: over
  a constant denominator it divides out the integer content, over c*q^k it
  first shifts out the power of q, and only over any other denominator
  does it take a polynomial gcd.

  The Hecke-word product loops (the finite and affine products, the
  Demazure-Lusztig oracle and the antispherical action) make no QRational
  arithmetic at all: ``_lift`` puts a whole coefficient dict over one
  common denominator D, the lcm of its denominators (``math.lcm`` when
  they are constants, one polynomial gcd per distinct denominator
  otherwise), as integer polynomials; the loop multiplies and adds those
  and the denominators multiply; ``_lower`` reduces each value of the
  result once.  Over the seed-1 hecke-words pass that leaves 157
  QRational sums and 1,936 products, from 42,831 and 107,489 when the
  loops added and multiplied QRationals.

q is a single formal transcendental: nothing in the exact path ever
specializes it, and ``specialize`` refuses poles, so root-of-unity
degeneracies cannot arise silently.

The package's one expression grammar lives here as well: ``parse_qrational``
reads its scalar language ("(q-1)/q", "q^-2", "0.5"), and the Hecke
element layers evaluate the same grammar with their T[..] and th[(..)]
atoms.  The command line's ``principal --t`` parses each character
coordinate with ``parse_qrational``, so "1,q,q^2" is a character there.
Every power and every + - * / is bounded before it runs, at degree 100
and 4096-bit coefficients, an element operand by its largest coefficient
and a theta atom's coordinates as exponents, so no input of a few dozen
characters can make the parser hang.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import factorial, gcd as _gcd_int, lcm

from .combinatorics import length

__all__ = [
    "QRational",
    "specialize",
    "parse_qrational",
]

_ZERO = Fraction(0)


# ---------------------------------------------------------------------------
# dense univariate polynomials with integer coefficients, lowest degree
# first; the primitive Euclidean algorithm keeps every reduction in
# machine-integer arithmetic, which is the hottest loop in the package
# after matrix products
# ---------------------------------------------------------------------------

def _ptrim(c: list) -> tuple:
    while c and not c[-1]:
        c.pop()
    return tuple(c)


def _padd(a, b):
    n = max(len(a), len(b))
    out = [0] * n
    for i, x in enumerate(a):
        out[i] = x
    for i, x in enumerate(b):
        out[i] += x
    return _ptrim(out)


def _pneg(a):
    return tuple(-x for x in a)


def _pmul(a, b):
    if not a or not b:
        return ()
    # a constant factor scales the other, whose lead stays nonzero, so
    # there is nothing to trim
    if len(a) == 1:
        x = a[0]
        return (x * b[0],) if len(b) == 1 else tuple([x * y for y in b])
    if len(b) == 1:
        y = b[0]
        return tuple([x * y for x in a])
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return _ptrim(out)


def _pgcd(a, b):
    """Primitive gcd (positive lead) of integer polynomials, by pseudo-
    remainders with content stripped after every step."""
    A = _int_primitive(a)
    B = _int_primitive(b)
    while B:
        A, B = B, _int_primitive(_prem(A, B))
    return A


def _int_primitive(a) -> tuple:
    """Divide out the integer content and normalize the lead positive."""
    if not a:
        return ()
    g = _gcd_int(*a)
    if a[-1] < 0:
        g = -g
    if g == 1:
        return tuple(a)
    return tuple(v // g for v in a)


def _prem(a, b) -> tuple:
    """Pseudo-remainder of integer polynomials (lowest degree first)."""
    r = list(a)
    db = len(b) - 1
    lb = b[-1]
    while len(r) - 1 >= db:
        lr = r[-1]
        shift = len(r) - 1 - db
        for i in range(len(r)):
            r[i] *= lb
        for i, c in enumerate(b):
            r[shift + i] -= lr * c
        while r and not r[-1]:
            r.pop()
    return tuple(r)


def _pdiv_exact(a, b) -> tuple:
    """Quotient of integer polynomials when b divides a exactly."""
    rem = list(a)
    quo = [0] * max(len(a) - len(b) + 1, 0)
    lb = b[-1]
    for shift in range(len(rem) - len(b), -1, -1):
        c = rem[shift + len(b) - 1]
        if c % lb:
            raise ArithmeticError("inexact polynomial division")
        c //= lb
        if c:
            quo[shift] = c
            for j, y in enumerate(b):
                rem[shift + j] -= c * y
    if any(rem):
        raise ArithmeticError("inexact polynomial division")
    return tuple(quo)


def _peval(a, x0: Fraction) -> Fraction:
    acc = _ZERO
    for c in reversed(a):
        acc = acc * x0 + c
    return acc


def _pstr(a, var: str = "q") -> str:
    """Render with integer coefficients assumed (see QRational.__str__)."""
    return _signed_sum(
        (a[k], "" if k == 0 else var if k == 1 else f"{var}^{k}")
        for k in range(len(a) - 1, -1, -1) if a[k]
    )


def _signed_sum(terms) -> str:
    """Join nonzero (coefficient, monomial) pairs as "-2*q^2 + q - 1": a
    unit coefficient is dropped before a monomial, and "0" is the empty
    sum."""
    out = ""
    for c, mono in terms:
        mag = abs(c)
        if mag == 1 and mono:
            body = mono
        elif mono:
            body = f"{mag}*{mono}"
        else:
            body = str(mag)
        if not out:
            out = "-" + body if c < 0 else body
        else:
            out += f" {'-' if c < 0 else '+'} {body}"
    return out or "0"


_IONE = (1,)


def _const_parts(v) -> tuple[tuple, tuple]:
    """Canonical (num, den) of an int or Fraction constant.  A Fraction is
    already reduced with a positive denominator, so nothing is divided;
    an int is a Fraction over 1."""
    if not v:
        return (), _IONE
    d = v.denominator
    return (int(v.numerator),), (_IONE if d == 1 else (d,))


class QRational:
    """A rational function in q, always in canonical reduced form.

    Numerator and denominator are coprime integer polynomials with no
    joint content and positive denominator lead, so ``==`` is exact
    identity in Q(q).  A QRational is built from an int, a Fraction or
    another QRational, and q itself is ``gen()``; every other value comes
    from arithmetic, where an int or Fraction operand is coerced.

    >>> q = QRational.gen()
    >>> (q ** 2 + q) * (1 / q)
    QRational('q + 1')
    >>> q ** -2
    QRational('1/q^2')
    """

    __slots__ = ("num", "den", "_hash")

    def __init__(self, value=0):
        if isinstance(value, QRational):
            self.num, self.den = value.num, value.den
            self._hash = value._hash
        elif isinstance(value, (int, Fraction)):
            self.num, self.den = _const_parts(value)
            self._hash = None
        else:
            raise TypeError(
                f"cannot build QRational from {type(value).__name__}")

    @staticmethod
    def _reduce(num, den):
        """The canonical form of num/den.  A constant den needs only the
        integer content divided out and its sign made positive; a monomial
        c*q^k (common in Hecke-basis work) first shifts out the power of q
        that num shares; only any other den takes a polynomial gcd."""
        if not den:
            raise ZeroDivisionError("zero denominator in Q(q)")
        if not num:
            return (), _IONE
        if len(den) > 1:
            if any(den[:-1]):
                g = _pgcd(num, den)
                if len(g) > 1:
                    num = _pdiv_exact(num, g)
                    den = _pdiv_exact(den, g)
            else:
                k, t = len(den) - 1, 0
                while t < k and not num[t]:
                    t += 1
                if t:
                    num, den = num[t:], den[t:]
        g = _gcd_int(*num, *den)
        if den[-1] < 0:
            g = -g
        if g != 1:
            num = tuple(v // g for v in num)
            den = tuple(v // g for v in den)
        return num, (_IONE if den == _IONE else den)

    @classmethod
    def _canonical(cls, num, den):
        """Wrap a (num, den) pair that is already in canonical form."""
        out = object.__new__(cls)
        out.num, out.den, out._hash = num, den, None
        return out

    @classmethod
    def _raw(cls, num, den):
        """num/den in canonical form.  Built in place rather than through
        _canonical, which would add a call to every value the Hecke-word
        loops lower."""
        out = object.__new__(cls)
        out.num, out.den = cls._reduce(num, den)
        out._hash = None
        return out

    @classmethod
    def gen(cls) -> "QRational":
        """The generator q."""
        return cls._raw((0, 1), _IONE)

    # -- arithmetic ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, QRational):
            return other
        if isinstance(other, (int, Fraction)):
            return QRational._canonical(*_const_parts(other))
        return None

    def __add__(self, other):
        # zero is the start of every accumulator: adding it returns the
        # other operand as it stands (QRational is immutable)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o.num:
            return self
        if not self.num:
            return o
        if self.den == o.den:
            return QRational._raw(_padd(self.num, o.num), self.den)
        num = _padd(_pmul(self.num, o.den), _pmul(o.num, self.den))
        return QRational._raw(num, _pmul(self.den, o.den))

    __radd__ = __add__

    def __neg__(self):
        return QRational._canonical(_pneg(self.num), self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self.num:
            return self
        if not o.num:
            return o
        if len(o.num) == 1 and len(o.den) == 1:
            return self._scaled(o.num[0], o.den[0])
        if len(self.num) == 1 and len(self.den) == 1:
            return o._scaled(self.num[0], self.den[0])
        return QRational._raw(_pmul(self.num, o.num), _pmul(self.den, o.den))

    __rmul__ = __mul__

    def _scaled(self, n: int, d: int) -> "QRational":
        """self * (n/d) for a nonzero constant in canonical form (n, d
        coprime, d > 0).  The product (n*num, d*den) is still in canonical
        form but for its joint integer content: a nonzero constant changes
        neither the polynomial gcd of num and den (1) nor the sign of den's
        lead, nor which powers of q divide num.  Dividing out the content is
        therefore all of _reduce that applies, with no _pmul or _pgcd."""
        if n == d:
            # a new object on the same tuples: returning self would let
            # container comparisons skip __eq__ by identity, and the
            # benchmark's traced operation count with them
            return QRational._canonical(self.num, self.den)
        num = tuple(v * n for v in self.num)
        den = tuple(v * d for v in self.den)
        g = _gcd_int(*num, *den)
        if g != 1:
            num = tuple(v // g for v in num)
            den = tuple(v // g for v in den)
        return QRational._canonical(num, _IONE if den == _IONE else den)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o.num:
            raise ZeroDivisionError("division by zero in Q(q)")
        if len(o.num) == 1 and len(o.den) == 1:
            # a constant n/d: scale by d/n with the sign on the numerator
            n, d = o.num[0], o.den[0]
            return self._scaled(d, n) if n > 0 else self._scaled(-d, -n)
        return QRational._raw(_pmul(self.num, o.den), _pmul(self.den, o.num))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            if not self.num:
                raise ZeroDivisionError("0 ** negative in Q(q)")
            base, k = 1 / self, -k
        else:
            base = self
        out = QRational(1)
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- structure ----------------------------------------------------

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        if self._hash is None:
            if len(self.num) <= 1 and len(self.den) == 1:
                # match the hash of the embedded rational constant
                self._hash = hash(
                    Fraction(self.num[0], self.den[0]) if self.num else _ZERO
                )
            else:
                self._hash = hash((self.num, self.den))
        return self._hash

    def is_constant(self) -> bool:
        return len(self.num) <= 1 and len(self.den) == 1

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return Fraction(self.num[0], self.den[0]) if self.num else _ZERO

    def __str__(self):
        ns = _pstr(self.num)
        if self.den == _IONE:
            return ns
        ds = _pstr(self.den)
        if len([c for c in self.num if c]) > 1:
            ns = f"({ns})"
        # a denominator like 2*q must parenthesize or it reparses as
        # (num/2)*q under left association
        if len([c for c in self.den if c]) > 1 or "*" in ds:
            ds = f"({ds})"
        return f"{ns}/{ds}"

    def __repr__(self):
        return f"QRational('{self}')"


def _coerce(c) -> QRational:
    """c as a QRational: an int or Fraction is promoted, anything else is
    refused."""
    if isinstance(c, QRational):
        return c
    if isinstance(c, (int, Fraction)):
        return QRational(c)
    raise TypeError(f"not a scalar: {c!r}")


# ---------------------------------------------------------------------------
# scalars over one common denominator: the Hecke-word product loops lift
# their coefficients to integer polynomials over one D, compute in Z[q], and
# lower the result once
# ---------------------------------------------------------------------------

_QM1 = (-1, 1)      # q - 1
_1MQ = (1, -1)      # 1 - q


def _plcm(a: tuple, b: tuple) -> tuple:
    """Least common multiple in Z[q] of two polynomials with positive lead:
    a*b over their primitive gcd and over the gcd of their contents."""
    if a == b:
        return a
    g = _pgcd(a, b)
    c = _gcd_int(_gcd_int(*a), _gcd_int(*b))
    return tuple(v // c for v in _pmul(_pdiv_exact(a, g), b))


def _lift(values: dict) -> tuple[dict, tuple]:
    """({key: integer polynomial}, D) with values[key] = poly/D for every
    nonzero value (zeros are dropped), D the lcm of the denominators with
    positive lead.  Constant denominators take math.lcm; any other costs
    one _pgcd per distinct denominator, where a sum of QRationals pays one
    per addition.  Values are coerced first, so a non-scalar raises
    TypeError here."""
    vals = {}
    for k, v in values.items():
        v = _coerce(v)
        if v.num:
            vals[k] = v
    dens = {v.den for v in vals.values()}
    if all(len(d) == 1 for d in dens):
        L = lcm(*(d[0] for d in dens))
        return ({k: v.num if v.den[0] == L
                 else tuple(c * (L // v.den[0]) for c in v.num)
                 for k, v in vals.items()}, (L,))
    it = iter(dens)
    D = next(it)
    for d in it:
        D = _plcm(D, d)
    scale = {d: _pdiv_exact(D, d) for d in dens}
    return {k: _pmul(v.num, scale[v.den]) for k, v in vals.items()}, D


def _lower(polys: dict, D: tuple) -> dict:
    """{key: poly/D} in canonical QRationals, zeros dropped."""
    return {k: QRational._raw(p, D) for k, p in polys.items() if p}


def _pbump(acc: dict, key, p: tuple) -> None:
    """acc[key] += p for a nonzero integer polynomial p; a sum that cancels
    leaves the dict."""
    if key in acc:
        p = _padd(acc[key], p)
        if not p:
            del acc[key]
            return
    acc[key] = p


def specialize(a: QRational, q0: Fraction) -> Fraction:
    """Evaluate a at q = q0, exactly.

    >>> q = QRational.gen()
    >>> specialize(1 / (q + 1), Fraction(2))
    Fraction(1, 3)
    """
    q0 = Fraction(q0)
    dv = _peval(a.den, q0)
    if not dv:
        raise ZeroDivisionError(f"pole of {a} at q = {q0}")
    return _peval(a.num, q0) / dv


# ---------------------------------------------------------------------------
# the expression grammar, shared with the Hecke element layers:
#
#   expr  := term (('+'|'-') term)*
#   term  := unary (('*'|'/') unary)*
#   unary := '-' unary | power
#   power := atom ('^' unary)?
#   atom  := '(' expr ')' | T[..] | th[(..)] | q | number
#
# A number is an integer or a decimal ("2", "0.5", "1.", ".25"), read as
# the exact fraction it names.
# Scalars and algebra elements mix freely; the algebra layers build the
# T[..] and th[(..)] atoms, and a bare scalar result is promoted into the
# algebra at the end.  The scalar language is the grammar without them.
# ---------------------------------------------------------------------------

_SCALARS = (QRational, Fraction, int)

# The largest |exponent| the grammar accepts, and the largest degree of a
# scalar power, sum, difference, product or quotient it builds.
_MAX_EXPONENT = 100
# The largest bit length the coefficients of such a result may reach.
_MAX_BITS = 4096
# The most terms theta_z T_u that a product of affine elements may
# rewrite its pairs of terms into (`_check_expansion`).
_MAX_EXPANSION = 30_000

_TOKEN_RE = re.compile(
    r"(?P<tee>T\[[^\]]*\])"
    r"|(?P<theta>th\[[^\]]*\])"
    r"|(?P<num>\d+(?:\.\d*)?|\.\d+)"
    r"|(?P<q>q)"
    r"|(?P<op>[-+*/^()])"
    r"|(?P<ws>\s+)"
)


def _tokenize(text: str) -> list[tuple[str, str]]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ValueError(f"bad expression syntax at {text[pos:pos+12]!r}")
        pos = m.end()
        kind = m.lastgroup
        if kind != "ws":
            out.append((kind, m.group()))
    return out


_OPERATIONS = {"+": "sum", "-": "difference", "*": "product",
               "/": "quotient"}


def _size(v) -> tuple[int, int]:
    """Degree and largest coefficient bit length of a scalar's num and
    den.  An element has the largest degree and the largest bit length
    among its coefficients; an affine term theta_x T_w, keyed (x, w),
    also has degree max |x_k|, since theta_x theta_y = theta_{x+y} adds
    exponents as a product adds degrees."""
    if isinstance(v, QRational):
        return (max(len(v.num), len(v.den)) - 1,
                max(c.bit_length() for c in v.num + v.den))
    deg = bits = 0
    for key, c in v.terms.items():
        d, b = _size(c)
        if isinstance(key, tuple):
            d = max(d, max(map(abs, key[0]), default=0))
        deg, bits = max(deg, d), max(bits, b)
    return deg, bits


def _check_size(what: str, deg: int, bits: int) -> None:
    if deg > _MAX_EXPONENT:
        raise ValueError(f"{what} of degree {deg} is out of range: "
                         f"degree <= {_MAX_EXPONENT}")
    if bits > _MAX_BITS:
        raise ValueError(f"{what} with {bits}-bit coefficients is out of "
                         f"range: bits <= {_MAX_BITS}")


def _check_operands(op: str, v, w) -> None:
    """Bound v op w before it runs, as the powers are bounded:
    "(3*q+1)^100/(q+3)^100 + (5*q+1)^100/(q+5)^100" has every power in
    range but does not finish.  Each of + - * / forms products of a num
    or den of v with one of w, so the result's degree is at most the sum
    of the operands' degrees; a coefficient of such a product is a sum of
    at most n terms, n the longest operand polynomial, and + and - add
    two of them: one more bit, allowed for on all four.  An element
    operand is sized by `_size` too, so an element expression meets the
    same bounds."""
    (dv, bv), (dw, bw) = _size(v), _size(w)
    _check_size(_OPERATIONS[op], dv + dw,
                bv + bw + max(dv, dw).bit_length() + 1)
    if op == "*":
        _check_expansion(v, w)


def _check_expansion(v, w) -> None:
    """Bound the affine product v * w before it runs.  It rewrites
    T_v theta_y, for each term of v with v != 1 and each weight y of w,
    into terms theta_z T_u with u <= v in the Bruhat order (u a subword
    of a reduced word of v: at most min(n!, 2^l(v)) of them) and z in
    the box of Z^n between min y and max y with the coordinate sum of y:
    at most min(n!, 2^l(v)) (max y - min y + 1)^(n-1) terms.  A y with
    all coordinates equal is left out: theta_y commutes with every T_v,
    and nothing is rewritten.  Bounding each coordinate does not bound
    that count, and T[4 3 2 1]*th[(16,-16,16,-16)] would run for
    minutes."""
    if isinstance(v, _SCALARS) or isinstance(w, _SCALARS):
        return
    reach = sum(min(factorial(v.n), 2 ** length(key[1])) for key in v.terms
                if isinstance(key, tuple) and not key[1].is_identity())
    boxes = (max(key[0]) - min(key[0]) + 1 for key in w.terms
             if isinstance(key, tuple))
    terms = reach * sum(b ** (v.n - 1) for b in boxes if b > 1)
    if terms > _MAX_EXPANSION:
        raise ValueError(f"product of up to {terms} terms is out of "
                         f"range: terms <= {_MAX_EXPANSION}")


class _Parser:
    """Recursive-descent evaluator over mixed scalar/element values.

    atom_fn(kind, text) builds the algebra atoms (kind "tee" or
    "theta").  A sum of a scalar and an element is the element's: a
    scalar returns NotImplemented for an element, whose reflected
    operation promotes the scalar.
    """

    def __init__(self, tokens, atom_fn):
        self.toks = tokens
        self.pos = 0
        self.atom_fn = atom_fn

    def peek_op(self):
        if self.pos < len(self.toks) and self.toks[self.pos][0] == "op":
            return self.toks[self.pos][1]
        return None

    def next(self):
        if self.pos >= len(self.toks):
            raise ValueError("unexpected end of expression")
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expr(self):
        v = self.term()
        while self.peek_op() in ("+", "-"):
            op = self.next()[1]
            w = self.term()
            _check_operands(op, v, w)
            v = v + w if op == "+" else v - w
        return v

    def term(self):
        v = self.unary()
        while self.peek_op() in ("*", "/"):
            op = self.next()[1]
            w = self.unary()
            _check_operands(op, v, w)
            if op == "*":
                v = v * w
            else:
                if not isinstance(w, _SCALARS):
                    raise ValueError("division only by scalars")
                v = v / w
        return v

    def unary(self):
        if self.peek_op() == "-":
            self.next()
            return -self.unary()
        return self.power()

    def power(self):
        v = self.atom()
        if self.peek_op() == "^":
            self.next()
            e = _as_int(self.unary())
            # checked before the power: q^(10^7) would not finish
            if abs(e) > _MAX_EXPONENT:
                raise ValueError(f"exponent {e} is out of range: "
                                 f"|exponent| <= {_MAX_EXPONENT}")
            # and so is the size of the result: ((q+1)^100)^100 has every
            # exponent in range but degree 10^4, and ((9^100)^100)^100 has
            # degree 0 but a numerator of 3*10^6 bits.  A coefficient of
            # p^e is at most (n * max|c|)^e for n terms, which bounds its
            # bits.
            deg, bits = _size(v)
            _check_size("power", abs(e) * deg,
                        abs(e) * (bits + deg.bit_length()))
            if isinstance(v, _SCALARS) or e < 0:
                v = v ** e
            else:
                # an element's power is its chain of products, and each
                # meets the bounds of `*`
                out = v.one(v.n)
                for _ in range(e):
                    _check_operands("*", out, v)
                    out = out * v
                v = out
        return v

    def atom(self):
        kind, text = self.next()
        if kind == "op" and text == "(":
            v = self.expr()
            kind, text = self.next()
            if text != ")":
                raise ValueError("unbalanced parentheses")
            return v
        if kind == "num":
            return QRational(Fraction(text))
        if kind == "q":
            return QRational.gen()
        if kind in ("tee", "theta"):
            return self.atom_fn(kind, text)
        raise ValueError(f"unexpected token {text!r}")


def _as_int(e) -> int:
    if isinstance(e, int):
        return e
    if isinstance(e, Fraction) and e.denominator == 1:
        return int(e)
    if isinstance(e, QRational) and e.is_constant():
        c = e.constant_value()
        if c.denominator == 1:
            return int(c)
    raise ValueError("exponent must be an integer")


def _parse(text: str, atom_fn, promote_fn):
    """Evaluate the whole of text; a bare scalar result goes through
    promote_fn."""
    parser = _Parser(_tokenize(text), atom_fn)
    v = parser.expr()
    if parser.pos != len(parser.toks):
        raise ValueError(f"trailing tokens: {parser.toks[parser.pos:]}")
    if isinstance(v, _SCALARS):
        v = promote_fn(v)
    return v


def _no_atom(kind: str, text: str):
    raise ValueError(f"{text} is not a scalar")


def parse_qrational(text: str) -> QRational:
    """Parse the expression grammar without algebra atoms.

    >>> parse_qrational("(q-1)/q") == (QRational.gen() - 1) / QRational.gen()
    True
    >>> parse_qrational("2*-q^2")
    QRational('-2*q^2')
    >>> parse_qrational("0.25*q")
    QRational('q/4')
    """
    return _parse(text, _no_atom, QRational)


class PKPoly:
    """Placeholder for the retired ring Q[p, kappa]; nothing builds one.

    ``perfbench/layertrace.py`` still names this class in its ``SCALARS``
    table as the ``scalars.pkpoly`` layer, and the name goes with that
    entry when the benchmark's layer list is next revised.
    """
