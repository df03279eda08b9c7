"""The finite Hecke algebra of S_n over the rational function field Q(q).

Elements are finite linear combinations of the standard basis T_w, w in
S_n, with the quadratic convention (T_s - q)(T_s + 1) = 0 for adjacent
transpositions, so

    T_s T_w = T_{sw}                  if l(sw) > l(w),
    T_s T_w = (q-1) T_w + q T_{sw}    otherwise,

and lengths add along reduced words.  Which case applies is one test,
`_s_left`: l(s_a w) > l(w) exactly when a comes before a + 1 in the
one-line word of w.  The product's step `_t_left` takes it.

Products are computed by peeling the reduced word of the left factor one
letter at a time onto the whole right element (`_prefix_memo`, which the
affine product and modules walk too), in Z[q]: both factors are lifted
over one common denominator each (`scalars._lift`), each p in Z[q] is the
int p(2^B) (`scalars._width`), so T_s takes c to c << B or (c << B) - c,
and the product is lowered once, over the product of the denominators.
No coefficient sum pays a polynomial gcd, so E_n E_n = E_n for the sign
idempotent, whose every coefficient has the non-monomial denominator
P_n(1/q), costs about what S_n S_n does: 0.04 s each at n = 5, 1.5-1.8
and 1.9-2.0 s at n = 6, two runs each on a 2-vCPU VM.

The central object downstream is the sign projector

    S_n = sum_w (-1/q)^{l(w)} T_w,

which satisfies T_s S_n = S_n T_s = -S_n and S_n^2 = P_n(1/q) S_n with
P_n(z) = prod_{k<=n} (1 + z + ... + z^{k-1}); its image in any module is
the simultaneous (-1)-eigenspace of all the T_s.

The vector-space structure of an element -- a sparse Q(q)-combination of
basis terms, with scalar coercion and promotion -- lives in one core class
that the affine algebra shares, keying its terms by (weight, permutation);
each algebra keeps its own product.  The element grammar
("T[2 1 3] * (q-1)/q + T[1 2 3]") is the expression grammar of `scalars`
with T[..] atoms; the affine layer adds theta atoms.
"""

from __future__ import annotations

from .combinatorics import (
    Permutation,
    length,
    parse_permutation,
    reduced_word,
    render_permutation,
    sym_group,
)
from .scalars import (
    _SCALARS,
    QRational,
    _coerce,
    _lift,
    _lower,
    _pack,
    _parse,
    _pmul,
    _width,
)

__all__ = [
    "FiniteHeckeElement",
    "sign_projector",
    "sign_idempotent",
    "poincare_value",
    "sign_character",
    "parse_element",
    "render_element",
]

_Q = QRational.gen()
_ONE = QRational(1)


class _HeckeElement:
    """A sparse Q(q)-combination of basis terms; zero coefficients are
    never stored.  A subclass names the key of the identity (`_unit`),
    builds its basis elements (`t`) and defines its own product."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: dict | None = None):
        self.n = n
        self.terms = {}
        if terms:
            for k, c in terms.items():
                c = _coerce(c)
                if c:
                    self.terms[k] = c

    @classmethod
    def zero(cls, n: int):
        return cls(n)

    @classmethod
    def one(cls, n: int):
        return cls(n, {cls._unit(n): _ONE})

    @classmethod
    def t_gen(cls, n: int, j: int):
        return cls.t(n, Permutation.adjacent(n, j))

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    __hash__ = None

    def __add__(self, other):
        other = self._promote(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for k, c in other.terms.items():
            _bump(out, k, c)
        return type(self)(self.n, out)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._promote(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return type(self)(self.n, {k: -c for k, c in self.terms.items()})

    def __rmul__(self, other):
        if isinstance(other, _SCALARS):
            return self._scale(other)
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, _SCALARS):
            return self._scale(_ONE / _coerce(other))
        return NotImplemented

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("element powers take a nonnegative integer")
        out = self.one(self.n)
        for _ in range(k):
            out = out * self
        return out

    def _scale(self, c):
        c = _coerce(c)
        if not c:
            return type(self)(self.n)
        return type(self)(self.n, {k: c * v for k, v in self.terms.items()})

    def _promote(self, other):
        if type(other) is type(self):
            if other.n != self.n:
                raise ValueError("rank mismatch")
            return other
        if isinstance(other, _SCALARS):
            return self.one(self.n) * other
        return NotImplemented


class FiniteHeckeElement(_HeckeElement):
    """A linear combination of T_w basis elements with QRational
    coefficients."""

    __slots__ = ()

    @staticmethod
    def _unit(n: int) -> Permutation:
        return Permutation.identity(n)

    @classmethod
    def t(cls, n: int, w) -> "FiniteHeckeElement":
        return cls(n, {_in_sn(w, n): _ONE})

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            return self._scale(other)
        if isinstance(other, FiniteHeckeElement):
            if other.n != self.n:
                raise ValueError("rank mismatch")
            n = self.n
            left, d1 = _lift(self.terms)
            right, d2 = _lift(other.terms)
            B = _width(left, right, n, 3)
            # a dense left factor (the sign projector) costs one generator
            # application per group element
            t_apply = _prefix_memo(n, right, _finite_generator, B)
            acc: dict = {}
            for v, a in left.items():
                a = _pack(a, B)
                for w, c in t_apply(v).items():
                    _bump(acc, w, a * c)
            return FiniteHeckeElement(n, _lower(acc, _pmul(d1, d2), B))
        return NotImplemented

    def __repr__(self):
        return render_element(self)


def _prefix_memo(n: int, start: dict, gen_apply, B: int):
    """v -> T_v applied to start, packed at width B, memoized by prefix:
    T_v = T_a T_{s_a v} for the first letter a of a reduced word of v, so
    each distinct prefix costs one gen_apply(a, value, B) call."""
    packed = {k: _pack(c, B) for k, c in start.items()}
    memo = {Permutation.identity(n): packed}

    def t_apply(v):
        got = memo.get(v)
        if got is None:
            a = reduced_word(v)[0]
            got = gen_apply(a, t_apply(Permutation.adjacent(n, a) * v), B)
            memo[v] = got
        return got

    return t_apply


def _bump(acc: dict, key, c) -> None:
    s = acc[key] + c if key in acc else c
    if s:
        acc[key] = s
    else:
        acc.pop(key, None)


def _s_left(a: int, w: Permutation) -> tuple[Permutation, bool]:
    """s_a w, and whether it is the longer: l(s_a w) > l(w) exactly when
    a comes before a + 1 in the one-line word of w."""
    i, k = w.index(a), w.index(a + 1)
    sw = list(w)
    sw[i], sw[k] = a + 1, a
    return tuple.__new__(Permutation, sw), i < k


def _t_left(a: int, w: Permutation, c: int, B: int) -> tuple:
    """c T_a T_w for an integer polynomial c packed at width B, as
    ((u, coeff), ...): T_{s_a w} when s_a w is the longer, otherwise
    (q-1) T_w + q T_{s_a w}, where q c is c << B."""
    sw, longer = _s_left(a, w)
    if longer:
        return ((sw, c),)
    return ((w, (c << B) - c), (sw, c << B))


def _finite_generator(a: int, polys: dict, B: int) -> dict:
    """T_a on {w: packed integer polynomial}, the left regular action."""
    out: dict = {}
    for w, c in polys.items():
        for u, e in _t_left(a, w, c, B):
            _bump(out, u, e)
    return out


def sign_projector(n: int) -> FiniteHeckeElement:
    """sum_w (-1/q)^{l(w)} T_w.

    >>> S = sign_projector(2)
    >>> render_element(S)
    'T[1 2] + T[2 1] * (-1/q)'
    """
    z = -(_ONE / _Q)
    terms = {w: z ** length(w) for w in sym_group(n)}
    return FiniteHeckeElement(n, terms)


def poincare_value(n: int, z) -> QRational:
    """prod_{k<=n} (1 + z + ... + z^{k-1}); at z = 1/q this is the
    eigenvalue in S_n^2 = P_n(1/q) S_n."""
    z = _coerce(z)
    out = _ONE
    for k in range(1, n + 1):
        term = QRational(0)
        power = _ONE
        for _ in range(k):
            term = term + power
            power = power * z
        out = out * term
    return out


def sign_idempotent(n: int) -> FiniteHeckeElement:
    """The sign projector normalized to an idempotent."""
    return sign_projector(n) / poincare_value(n, _ONE / _Q)


def sign_character(el: FiniteHeckeElement) -> QRational:
    """The algebra character T_w -> (-1)^{l(w)} applied to el."""
    out = QRational(0)
    for w, c in el.terms.items():
        out = out + (c if length(w) % 2 == 0 else -c)
    return out


def parse_element(text: str, n: int) -> FiniteHeckeElement:
    """Evaluate the element grammar over the finite algebra of S_n.

    >>> e = parse_element("T[2 1 3] * (q-1)/q + T[1 2 3]", 3)
    >>> render_element(e)
    'T[1 2 3] + T[2 1 3] * ((q - 1)/q)'
    """

    def atom_fn(kind, tok):
        if kind == "theta":
            raise ValueError("theta atoms belong to the affine algebra")
        return FiniteHeckeElement.t(n, parse_permutation(tok[2:-1]))

    return _parse(text, atom_fn, lambda s: FiniteHeckeElement.one(n) * s)


def _in_sn(w, n: int) -> Permutation:
    """The key of T_w: w as a `Permutation`, so that a word is checked as
    one, which must lie in S_n."""
    w = Permutation(w)
    if len(w) != n:
        raise ValueError(
            f"permutation T[{render_permutation(w)}] is not in S_{n}")
    return w


def render_element(el: FiniteHeckeElement) -> str:
    """Deterministic inverse of parse_element: terms sorted by
    (length, one-line word), scalar factors trailing."""
    if not el.terms:
        return "0"
    bits = []
    for w in sorted(el.terms, key=lambda u: (length(u), u)):
        bits.append(f"T[{render_permutation(w)}]" + _coeff_suffix(el.terms[w]))
    return " + ".join(bits)


def _coeff_suffix(c: QRational) -> str:
    """The trailing " * c" of a rendered term, parenthesized unless c is a
    bare monomial; empty for c = 1."""
    if c == _ONE:
        return ""
    s = str(c)
    if " " in s or s.startswith("-"):
        s = f"({s})"
    return f" * {s}"
