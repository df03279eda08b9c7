"""The affine Hecke algebra of GL_n in its Bernstein presentation.

An element is a finite sum of basis terms theta_x T_w with x in Z^n and w
in S_n, coefficients in Q(q).  The finite subalgebra is spanned by the
T_w; the theta_x form a commutative Laurent subalgebra on which S_n acts
by permuting coordinates, and the two halves braid through the cross
relation for the simple root alpha_j = e_j - e_{j+1}:

    theta_x T_j = T_j theta_{s_j x} + (q-1) G(x, alpha_j),

where G(x, alpha) = (theta_x - theta_{s x}) / (1 - theta_{-alpha})
telescopes into an honest sum of m = <x, alpha^vee> monomials (negated
and shifted when m < 0).  Products are normalized to the theta-first form
by memoized rewriting.  Modules consume the T-first form instead, which
`module_core.induce` rewrites from the constants both algebras share.

As an independent check on the presentation, `oracle_apply` realizes the
algebra by Demazure-Lusztig operators on Laurent polynomials:

    T_j . x^y = q x^{s_j y} + (q-1) G(y, alpha_j),    theta_x . f = x^x f.

That realization never touches the rewrite rules (it is pure operator
composition on monomial dicts), so agreement of `multiply` with composed
oracle actions is a genuine two-route test.
"""

from __future__ import annotations

from functools import cache

from ..combinatorics import (
    Permutation,
    length,
    reduced_word,
    render_permutation,
)
from ..finite_hecke import (
    FiniteHeckeElement,
    _bump,
    _coeff_suffix,
    _HeckeElement,
    _tee_atom,
)
from ..scalars import _SCALARS, QRational, _parse

__all__ = [
    "AffineElement",
    "multiply",
    "oracle_apply",
    "parse_affine",
    "render_affine",
]

_Q = QRational.gen()
_ONE = QRational(1)


def _swap(x: tuple, a: int) -> tuple:
    """s_a on a weight: exchange coordinates a, a+1 (1-indexed)."""
    y = list(x)
    y[a - 1], y[a] = y[a], y[a - 1]
    return tuple(y)


def _telescope(y: tuple, a: int) -> list[tuple[tuple, int]]:
    """G(y, alpha_a) as [(weight, +-1)]: m = y_a - y_{a+1} terms."""
    m = y[a - 1] - y[a]
    out = []
    if m >= 0:
        w = list(y)
        for _ in range(m):
            out.append((tuple(w), 1))
            w[a - 1] -= 1
            w[a] += 1
    else:
        w = list(y)
        for _ in range(-m):
            w[a - 1] += 1
            w[a] -= 1
            out.append((tuple(w), -1))
    return out


@cache
def _t_product(n: int, u: Permutation, w: Permutation):
    """T_u T_w in the finite algebra, as a tuple of (perm, coeff)."""
    prod = FiniteHeckeElement.t(n, u) * FiniteHeckeElement.t(n, w)
    return tuple(prod.terms.items())


@cache
def _left_rewrite(n: int, v: Permutation, y: tuple):
    """T_v theta_y as a tuple of ((z, u), coeff) meaning sum theta_z T_u.

    Recursion peels the last letter of a reduced word for v through the
    cross relation, so the cache is shared across all products.
    """
    if v.is_identity():
        return (((y, v), _ONE),)
    word = reduced_word(v)
    a = word[-1]
    s = Permutation.adjacent(n, a)
    vp = v * s
    acc: dict = {}
    for (z, u), c in _left_rewrite(n, vp, _swap(y, a)):
        for r, e in _t_product(n, u, s):
            _bump(acc, (z, r), c * e)
    qm1 = _Q - 1
    for yy, sgn in _telescope(y, a):
        for (z, u), c in _left_rewrite(n, vp, yy):
            _bump(acc, (z, u), qm1 * c if sgn > 0 else -(qm1 * c))
    return tuple(acc.items())


class AffineElement(_HeckeElement):
    """Finite sum of theta_x T_w terms; keys are (weight, Permutation)."""

    __slots__ = ()

    @staticmethod
    def _unit(n: int) -> tuple:
        return ((0,) * n, Permutation.identity(n))

    @classmethod
    def theta(cls, n: int, x) -> "AffineElement":
        x = tuple(x)
        if len(x) != n:
            raise ValueError(f"weight {x} is not in Z^{n}")
        return cls(n, {(x, Permutation.identity(n)): _ONE})

    @classmethod
    def t(cls, n: int, w: Permutation) -> "AffineElement":
        return cls(n, {((0,) * n, w): _ONE})

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            return self._scale(other)
        if isinstance(other, AffineElement):
            return multiply(self, other)
        return NotImplemented

    def __repr__(self):
        return render_affine(self)


def multiply(A: AffineElement, B: AffineElement) -> AffineElement:
    """Product in the Bernstein presentation, normalized theta-first."""
    if A.n != B.n:
        raise ValueError("rank mismatch")
    n = A.n
    acc: dict = {}
    for (x, v), a in A.terms.items():
        for (y, w), b in B.terms.items():
            ab = a * b
            for (z, u), c in _left_rewrite(n, v, y):
                xz = tuple(p + r for p, r in zip(x, z))
                for r, e in _t_product(n, u, w):
                    _bump(acc, (xz, r), ab * c * e)
    return AffineElement(n, acc)


# --- Demazure-Lusztig oracle ----------------------------------------------

def _dl_generator(a: int, poly: dict) -> dict:
    """T_a on a Laurent polynomial {weight: coeff}."""
    out: dict = {}
    qm1 = _Q - 1
    for y, c in poly.items():
        _bump(out, _swap(y, a), _Q * c)
        for z, sgn in _telescope(y, a):
            _bump(out, z, qm1 * c if sgn > 0 else -(qm1 * c))
    return out


def oracle_apply(el: AffineElement, poly: dict) -> dict:
    """el acting on a Laurent polynomial through the Demazure-Lusztig
    realization; polynomials are {weight tuple: coeff} dicts."""
    out: dict = {}
    for (x, w), c in el.terms.items():
        cur = poly
        for a in reversed(reduced_word(w)):
            cur = _dl_generator(a, cur)
        for y, d in cur.items():
            xy = tuple(p + r for p, r in zip(x, y))
            _bump(out, xy, c * d)
    return out


# --- grammar ----------------------------------------------------------------

def parse_affine(text: str, n: int) -> AffineElement:
    """The element grammar with theta atoms.

    >>> e = parse_affine("th[(1,0,-1)] * T[2 1 3] * (q-1)/q", 3)
    >>> render_affine(e)
    'th[(1,0,-1)] * T[2 1 3] * ((q - 1)/q)'
    """

    def atom_fn(kind, tok):
        if kind == "tee":
            return AffineElement.t(n, _tee_atom(tok, n))
        inner = tok[3:-1].strip()
        if not (inner.startswith("(") and inner.endswith(")")):
            raise ValueError(f"malformed weight in {tok}")
        parts = [p.strip() for p in inner[1:-1].split(",") if p.strip()]
        x = tuple(int(p) for p in parts)
        return AffineElement.theta(n, x)

    return _parse(text, atom_fn, lambda s: AffineElement.one(n) * s)


def render_affine(el: AffineElement) -> str:
    """Deterministic inverse of parse_affine: terms sorted by weight then
    by (length, word); identity factors are dropped."""
    if not el.terms:
        return "0"
    zero = (0,) * el.n
    bits = []
    for x, w in sorted(el.terms, key=lambda k: (k[0], length(k[1]), k[1].word)):
        parts = []
        if x != zero:
            parts.append("th[(" + ",".join(str(v) for v in x) + ")]")
        if w != Permutation.identity(el.n) or x == zero:
            parts.append(f"T[{render_permutation(w)}]")
        bits.append(" * ".join(parts) + _coeff_suffix(el.terms[(x, w)]))
    return " + ".join(bits)
