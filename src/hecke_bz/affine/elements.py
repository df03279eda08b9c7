"""The affine Hecke algebra of GL_n in its Bernstein presentation.

An element is a finite sum of basis terms theta_x T_w with x in Z^n and w
in S_n, coefficients in Q(q).  The finite subalgebra is spanned by the
T_w; the theta_x form a commutative Laurent subalgebra on which S_n acts
by permuting coordinates, and the two halves braid through the cross
relation for the simple root alpha_a = e_a - e_{a+1}:

    T_a theta_y = theta_{s_a y} T_a + (q-1) G(y, alpha_a),

where G(y, alpha) = (theta_y - theta_{s y}) / (1 - theta_{-alpha})
telescopes into an honest sum of m = <y, alpha^vee> monomials (negated
and shifted when m < 0).  Products are normalized to the theta-first
form.  Modules form no such product: `module_core.induce` builds its
matrices from the constants both algebras share.

Every Hecke-word loop is one walk: T_v = T_a T_{s_a v} is applied one
generator at a time, once per distinct reduced-word prefix
(`finite_hecke._prefix_memo`), with one of three rules for T_a:

* the finite regular action on T_w (`finite_hecke._t_left`), which the
  finite product walks over its right factor;
* the affine regular action on theta_y T_w: theta_{s_a y} (T_a T_w) plus
  the (q-1) G(y, alpha_a) T_w terms, which `multiply` walks over its
  right factor;
* the action on theta_y (x) 1 in the module H (x)_{finite} chi induced
  from a character chi of the finite part: chi(T_a) theta_{s_a y} plus
  the same (q-1) G(y, alpha_a) terms.

At chi(T_a) = q that module is the polynomial representation by
Demazure-Lusztig operators on Laurent polynomials, `oracle_apply`:

    T_a . x^y = q x^{s_a y} + (q-1) G(y, alpha_a),    theta_x . f = x^x f.

It composes operators on monomial dicts and never forms a product in the
algebra, so agreement of `multiply` with composed oracle actions checks
the regular representation against the polynomial one.  At
chi(T_a) = -1 it is the antispherical module of `affine.modules`.

These loops compute in Z[q] by Kronecker substitution: each factor or
probe is lifted over one common denominator (`scalars._lift`), each p in
Z[q] is the int p(2^B) at a width fixed before the walk (`scalars._width`),
and the result is lowered to canonical QRationals once (`scalars._lower`).
"""

from __future__ import annotations

import operator

from ..combinatorics import (
    Permutation,
    length,
    parse_permutation,
    render_permutation,
)
from ..finite_hecke import (
    _bump,
    _coeff_suffix,
    _HeckeElement,
    _in_sn,
    _prefix_memo,
    _t_left,
)
from ..scalars import (
    _MAX_EXPONENT,
    _SCALARS,
    QRational,
    _lift,
    _lower,
    _pack,
    _parse,
    _pmul,
    _width,
)

__all__ = [
    "AffineElement",
    "multiply",
    "oracle_apply",
    "parse_affine",
    "render_affine",
]

_ONE = QRational(1)


def _swap(x: tuple, a: int) -> tuple:
    """s_a on a weight: exchange coordinates a, a+1 (1-indexed)."""
    y = list(x)
    y[a - 1], y[a] = y[a], y[a - 1]
    return tuple(y)


def _telescope(y: tuple, a: int):
    """The weights of (q-1) G(y, alpha_a), m = y_a - y_{a+1}: y - k alpha_a,
    0 <= k < m, each times q - 1, or y + k alpha_a, 0 < k <= -m, by 1 - q."""
    m = y[a - 1] - y[a]
    for k in (range(m) if m >= 0 else range(-1, m - 1, -1)):
        yield y[:a - 1] + (y[a - 1] - k, y[a] + k) + y[a + 1:]


def _weight(x, n: int) -> tuple:
    """x as a weight in Z^n, each coordinate an int (`operator.index`)."""
    try:
        y = tuple(map(operator.index, x))
    except TypeError:
        y = None
    if y is None or len(y) != n:
        raise ValueError(f"weight {x} is not in Z^{n}")
    return y


class AffineElement(_HeckeElement):
    """Finite sum of theta_x T_w terms; keys are (weight, Permutation)."""

    __slots__ = ()

    @staticmethod
    def _unit(n: int) -> tuple:
        return ((0,) * n, Permutation.identity(n))

    @classmethod
    def theta(cls, n: int, x) -> "AffineElement":
        return cls(n, {(_weight(x, n), Permutation.identity(n)): _ONE})

    @classmethod
    def t(cls, n: int, w) -> "AffineElement":
        return cls(n, {((0,) * n, _in_sn(w, n)): _ONE})

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            return self._scale(other)
        if isinstance(other, AffineElement):
            return multiply(self, other)
        return NotImplemented

    def __repr__(self):
        return render_affine(self)


def _affine_generator(a: int, terms: dict, B: int) -> dict:
    """T_a on {(y, w): packed integer polynomial} meaning sum theta_y T_w,
    the left regular action: T_a theta_y T_w = theta_{s_a y} (T_a T_w)
    + (q-1) G(y, alpha_a) T_w."""
    out: dict = {}
    for (y, w), c in terms.items():
        z = _swap(y, a)
        for u, e in _t_left(a, w, c, B):
            _bump(out, (z, u), e)
        e = (c << B) - c if y[a - 1] > y[a] else c - (c << B)
        for yy in _telescope(y, a):
            _bump(out, (yy, w), e)
    return out


def multiply(A: AffineElement, B: AffineElement) -> AffineElement:
    """Product in the Bernstein presentation, normalized theta-first."""
    if A.n != B.n:
        raise ValueError("rank mismatch")
    n = A.n
    left, d1 = _lift(A.terms)
    right, d2 = _lift(B.terms)
    width = _width(left, right, n, 3, (y for y, _ in right))
    # theta_x T_v B: T_v walks over B once per distinct prefix of the v's
    t_apply = _prefix_memo(n, right, _affine_generator, width)
    acc: dict = {}
    for (x, v), a in left.items():
        a = _pack(a, width)
        for (y, w), c in t_apply(v).items():
            xy = tuple(map(operator.add, x, y))
            _bump(acc, (xy, w), a * c)
    return AffineElement(n, _lower(acc, _pmul(d1, d2), width))


# --- modules induced from a character of the finite part -------------------

def _dl_generator(a: int, poly: dict, tee, B: int) -> dict:
    """T_a on {weight: packed integer polynomial} meaning sum theta_y (x) 1
    in H (x)_{finite} chi, with tee(c, B) = chi(T_a) c: T_a theta_y (x) 1
    = chi(T_a) theta_{s_a y} (x) 1 + (q-1) G(y, alpha_a) (x) 1."""
    out: dict = {}
    for y, c in poly.items():
        _bump(out, _swap(y, a), tee(c, B))
        e = (c << B) - c if y[a - 1] > y[a] else c - (c << B)
        for z in _telescope(y, a):
            _bump(out, z, e)
    return out


def _induced_apply(el: AffineElement, vec: dict, tee) -> dict:
    """el acting on sum c_y theta_y (x) 1 in H (x)_{finite} chi, where
    tee(c, B) = chi(T_a) c, a shift or a negation of a packed c; vectors
    are {weight tuple: coeff} dicts, each weight in Z^n."""
    n = el.n
    vec = {_weight(y, n): c for y, c in vec.items()}
    terms, d1 = _lift(el.terms)
    probe, d2 = _lift(vec)
    B = _width(terms, probe, n, 1, probe)
    # the terms share their T_w prefixes: one generator application per
    # distinct prefix
    t_apply = _prefix_memo(
        n, probe, lambda a, poly, B: _dl_generator(a, poly, tee, B), B)
    out: dict = {}
    for (x, w), c in terms.items():
        c = _pack(c, B)
        for y, d in t_apply(w).items():
            xy = tuple(map(operator.add, x, y))
            _bump(out, xy, c * d)
    return _lower(out, _pmul(d1, d2), B)


def oracle_apply(el: AffineElement, poly: dict) -> dict:
    """el acting on a Laurent polynomial through the Demazure-Lusztig
    realization, the module induced from T_a -> q, where q c is a shift;
    polynomials are {weight tuple: coeff} dicts, each weight in Z^n."""
    return _induced_apply(el, poly, lambda c, B: c << B)


# --- grammar ----------------------------------------------------------------

def parse_affine(text: str, n: int) -> AffineElement:
    """The element grammar with theta atoms.

    >>> e = parse_affine("th[(1,0,-1)] * T[2 1 3] * (q-1)/q", 3)
    >>> render_affine(e)
    'th[(1,0,-1)] * T[2 1 3] * ((q - 1)/q)'
    """

    def atom_fn(kind, tok):
        if kind == "tee":
            return AffineElement.t(n, parse_permutation(tok[2:-1]))
        inner = tok[3:-1].strip()
        if not (inner.startswith("(") and inner.endswith(")")):
            raise ValueError(f"malformed weight in {tok}")
        parts = [p.strip() for p in inner[1:-1].split(",") if p.strip()]
        x = tuple(int(p) for p in parts)
        # theta_x is the Laurent monomial with exponents x: each is bounded
        # as an exponent is, or T[2 1]*th[(100000,0)] builds 10^5 terms
        if any(abs(v) > _MAX_EXPONENT for v in x):
            raise ValueError(f"weight {tok} is out of range: "
                             f"|coordinate| <= {_MAX_EXPONENT}")
        return AffineElement.theta(n, x)

    return _parse(text, atom_fn, lambda s: AffineElement.one(n) * s)


def render_affine(el: AffineElement) -> str:
    """Deterministic inverse of parse_affine: terms sorted by weight then
    by (length, word); identity factors are dropped."""
    if not el.terms:
        return "0"
    zero = (0,) * el.n
    bits = []
    for x, w in sorted(el.terms, key=lambda k: (k[0], length(k[1]), k[1])):
        parts = []
        if x != zero:
            parts.append("th[(" + ",".join(str(v) for v in x) + ")]")
        if w != Permutation.identity(el.n) or x == zero:
            parts.append(f"T[{render_permutation(w)}]")
        bits.append(" * ".join(parts) + _coeff_suffix(el.terms[(x, w)]))
    return " + ".join(bits)
