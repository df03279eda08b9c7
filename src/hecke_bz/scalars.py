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
  polynomial gcd.  The same holds for two polynomials over constant
  denominators: their product is one _pmul of the numerators over d1*d2,
  their sum cross-scales the numerators to lcm(d1, d2), and both only
  divide out integer content, with no _pmul of the denominators and no
  _reduce.  Over one pass of the benchmark's seed-1 hecke-words sample that
  path takes 99% of the QRational sums and 57% of the products (most other
  products are scalings by a constant); over affine-blocks, 52% and 14%.

q is a single formal transcendental: nothing in the exact path ever
specializes it, and ``specialize`` refuses poles, so root-of-unity
degeneracies cannot arise silently.

``PKPoly``, the polynomial ring Q[p, kappa], has no caller in the
package: an exact graded module is a module over Q at (p, kappa) = (1, 0)
(see ``hecke_bz.graded``).  The class stays only while
``perfbench/layertrace.py`` traces it as the ``scalars.pkpoly`` layer.

The package's one expression grammar lives here as well: ``parse_qrational``
reads its scalar language ("(q-1)/q", "q^-2", "0.5"), and the Hecke
element layers evaluate the same grammar with their T[..] and th[(..)]
atoms.  The command line's ``principal --t`` parses each character
coordinate with ``parse_qrational``, so "1,q,q^2" is a character there.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd as _gcd_int, lcm

__all__ = [
    "QRational",
    "PKPoly",
    "P_SYM",
    "KAPPA_SYM",
    "specialize",
    "parse_qrational",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)


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
    already reduced with a positive denominator, so nothing is divided."""
    if isinstance(v, int):
        return ((int(v),) if v else ()), _IONE
    if not v:
        return (), _IONE
    return (v.numerator,), (v.denominator,)


class QRational:
    """A rational function in q, always in canonical reduced form.

    Numerator and denominator are coprime integer polynomials with no
    joint content and positive denominator lead, so ``==`` is exact
    identity in Q(q).  Mixed arithmetic with int and Fraction coerces
    the scalar.

    >>> q = QRational.gen()
    >>> (q ** 2 + q) * (1 / q)
    QRational('q + 1')
    >>> q ** -2
    QRational('1/q^2')
    """

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num=0, den=None):
        if den is None:
            if isinstance(num, QRational):
                self.num, self.den = num.num, num.den
                self._hash = num._hash
                return
            if isinstance(num, (int, Fraction)):
                self.num, self.den = _const_parts(num)
                self._hash = None
                return
        nc = self._coerce_poly(num)
        dc = (_ONE,) if den is None else self._coerce_poly(den)
        scale = lcm(*(c.denominator for c in nc + dc))
        self.num, self.den = self._reduce(
            tuple(int(c * scale) for c in nc),
            tuple(int(c * scale) for c in dc),
        )
        self._hash = None

    @staticmethod
    def _coerce_poly(v) -> tuple[Fraction, ...]:
        if isinstance(v, tuple):
            for c in v:
                if not isinstance(c, (int, Fraction)):
                    raise TypeError(
                        f"coefficient {c!r} is not an int or Fraction")
            return _ptrim([Fraction(c) for c in v])
        if isinstance(v, (int, Fraction)):
            f = Fraction(v)
            return (f,) if f else ()
        if isinstance(v, QRational):
            if len(v.den) != 1:
                raise ValueError("not a polynomial")
            d = v.den[0]
            return tuple(Fraction(c, d) for c in v.num)
        raise TypeError(f"cannot build polynomial from {type(v).__name__}")

    @staticmethod
    def _reduce(num, den):
        if not den:
            raise ZeroDivisionError("zero denominator in Q(q)")
        if not num:
            return (), _IONE
        # Monomial denominators (c * q^k) dominate in Hecke-basis work;
        # for them reduction is a power shift, no polynomial gcd.
        nz = sum(1 for x in den if x)
        if nz == 1:
            k = len(den) - 1
            t = 0
            while t < k and not num[t]:
                t += 1
            if t:
                num = num[t:]
            c = den[-1]
            g = _gcd_int(c, *num)
            if c < 0:
                g = -g
            if g != 1:
                num = tuple(v // g for v in num)
                c //= g
            m = k - t
            den = _IONE if m == 0 and c == 1 else (0,) * m + (c,)
            return num, den
        g = _pgcd(num, den)
        if len(g) > 1:
            num = _pdiv_exact(num, g)
            den = _pdiv_exact(den, g)
        g = _gcd_int(*num, *den)
        if den[-1] < 0:
            g = -g
        if g != 1:
            num = tuple(v // g for v in num)
            den = tuple(v // g for v in den)
        return num, den

    @classmethod
    def _canonical(cls, num, den):
        """Wrap a (num, den) pair that is already in canonical form."""
        out = object.__new__(cls)
        out.num, out.den, out._hash = num, den, None
        return out

    @classmethod
    def _raw(cls, num, den):
        return cls._canonical(*cls._reduce(num, den))

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
        if len(self.den) == 1 and len(o.den) == 1:
            # two polynomials over constants: over their lcm L, the sum
            # is canonical up to its integer content
            d1, d2 = self.den[0], o.den[0]
            if d1 == d2:
                # nine in ten of these sums in the Hecke-word checks: no
                # scaling by 1, and the result shares the operands' den
                return _content_free(_padd(self.num, o.num), self.den)
            L = lcm(d1, d2)
            num = _padd(tuple(v * (L // d1) for v in self.num),
                        tuple(v * (L // d2) for v in o.num))
            return _content_free(num, (L,))
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
        if len(self.den) == 1 and len(o.den) == 1:
            # two polynomials over constants: a product of nonzero
            # integer polynomials over d1*d2 > 0, canonical up to content
            return _content_free(_pmul(self.num, o.num),
                                 (self.den[0] * o.den[0],))
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
        return _content_free(tuple(v * n for v in self.num),
                             tuple(v * d for v in self.den))

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


def _content_free(num: tuple, den: tuple) -> QRational:
    """Wrap a (num, den) pair that is canonical but for its joint integer
    content: divide that out, and share _IONE for a unit denominator.  An
    empty num over a constant den comes out as the canonical zero."""
    g = _gcd_int(*num, *den)
    if g != 1:
        num = tuple(v // g for v in num)
        den = tuple(v // g for v in den)
    return QRational._canonical(num, _IONE if den == _IONE else den)


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
# scalar power it builds.
_MAX_EXPONENT = 100
# The largest bit length a scalar power's coefficients may reach.
_MAX_BITS = 4096

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
            v = v + w if op == "+" else v - w
        return v

    def term(self):
        v = self.unary()
        while self.peek_op() in ("*", "/"):
            op = self.next()[1]
            w = self.unary()
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
            # and so is the degree: ((q+1)^100)^100 has every exponent
            # in range but degree 10^4
            if isinstance(v, QRational):
                n = max(len(v.num), len(v.den))
                deg = abs(e) * (n - 1)
                if deg > _MAX_EXPONENT:
                    raise ValueError(f"power of degree {deg} is out of "
                                     f"range: degree <= {_MAX_EXPONENT}")
                # and the size of its coefficients: ((9^100)^100)^100 has
                # degree 0 but a numerator of 3*10^6 bits.  A coefficient
                # of p^e is at most (n * max|c|)^e, so this bounds its bits.
                bits = abs(e) * (max(c.bit_length() for c in v.num + v.den)
                                 + (n - 1).bit_length())
                if bits > _MAX_BITS:
                    raise ValueError(f"power with {bits}-bit coefficients is "
                                     f"out of range: bits <= {_MAX_BITS}")
            v = v ** e
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


# ---------------------------------------------------------------------------
# bivariate polynomials in (p, kappa) over Q
# ---------------------------------------------------------------------------

class PKPoly:
    """Element of Q[p, kappa]; sparse map (deg_p, deg_kappa) -> Fraction.

    >>> P_SYM * 2 + KAPPA_SYM
    PKPoly('kappa + 2*p')
    >>> (KAPPA_SYM - P_SYM) * (KAPPA_SYM + P_SYM)
    PKPoly('kappa^2 - p^2')
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=0):
        if isinstance(coeffs, PKPoly):
            self.coeffs = coeffs.coeffs
        elif isinstance(coeffs, dict):
            self.coeffs = {k: Fraction(v) for k, v in coeffs.items() if v}
        else:
            f = Fraction(coeffs)
            self.coeffs = {(0, 0): f} if f else {}

    @staticmethod
    def _coerce(other):
        if isinstance(other, PKPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return PKPoly(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self.coeffs)
        for k, v in o.coeffs.items():
            s = out.get(k, _ZERO) + v
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return PKPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return PKPoly({k: -v for k, v in self.coeffs.items()})

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
        out: dict[tuple[int, int], Fraction] = {}
        for (i1, j1), v1 in self.coeffs.items():
            for (i2, j2), v2 in o.coeffs.items():
                k = (i1 + i2, j1 + j2)
                s = out.get(k, _ZERO) + v1 * v2
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
        return PKPoly(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        # only exact division by a rational constant is meaningful here
        if isinstance(other, (int, Fraction)):
            inv = 1 / Fraction(other)
            return PKPoly({k: v * inv for k, v in self.coeffs.items()})
        if isinstance(other, PKPoly) and other.is_constant():
            return self / other.constant_value()
        return NotImplemented

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        # a constant equals its Fraction, so it must hash like one
        if self.is_constant():
            return hash(self.constant_value())
        return hash(frozenset(self.coeffs.items()))

    def is_constant(self) -> bool:
        return all(k == (0, 0) for k in self.coeffs)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return self.coeffs.get((0, 0), _ZERO)

    def evaluate(self, p0, kappa0):
        """Value at (p, kappa) = (p0, kappa0); exact for Fraction inputs,
        float for float inputs.

        >>> (KAPPA_SYM * 2 - P_SYM).evaluate(Fraction(1, 2), Fraction(3))
        Fraction(11, 2)
        """
        out = 0 * p0
        for (dp, dk), c in self.coeffs.items():
            out = out + c * p0 ** dp * kappa0 ** dk
        return out

    def __str__(self):
        def key(k):
            return (-(k[0] + k[1]), -k[1], -k[0])
        terms = []
        for (dp, dk) in sorted(self.coeffs, key=key):
            names = []
            if dk:
                names.append("kappa" if dk == 1 else f"kappa^{dk}")
            if dp:
                names.append("p" if dp == 1 else f"p^{dp}")
            terms.append((self.coeffs[(dp, dk)], "*".join(names)))
        return _signed_sum(terms)

    def __repr__(self):
        return f"PKPoly('{self}')"


P_SYM = PKPoly({(1, 0): _ONE})
KAPPA_SYM = PKPoly({(0, 1): _ONE})
