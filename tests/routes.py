"""Second routes that only the tests use.

Each function here rebuilds an object the package computes another way,
so that a test can compare the two:

* `sign_projector_tail` is the tail sign projector as an affine element;
  its image is the derivative's tail kernel (`module_core.tail_kernel`).
* `generic_guard` rejects characters outside the generic regime; the
  sweeps that assume generic characters assert it on their inputs.
* `cycle_type` reads a permutation's conjugacy class directly; it is the
  reference for `combinatorics.class_word`.
* `act` is the matrix of an affine element on an exact module, built
  from `theta_weight` (Theta powers, inverses by `mat_inverse`) and the
  module's T_w; it puts `sign_projector_tail` on a module, and its
  products check the module against the element product.
* `assert_canonical` checks a `QRational`'s canonical form on its tuples,
  not through the `QRational._reduce` that builds it, and its value at
  rational points against Fraction arithmetic on the operands.
* `graded_char` is the rank-1 graded character, built as a bare
  `GradedModule`; induced from several, it gives graded principal series
  that are not Speh modules.
"""

from fractions import Fraction
from math import gcd

from hecke_bz.affine import AffineElement
from hecke_bz.combinatorics import Permutation
from hecke_bz.finite_hecke import _coerce, sign_projector
from hecke_bz.graded import GradedModule
from hecke_bz.linalg import identity, mat_add, mat_mul, mat_scale, rref, zeros
from hecke_bz.scalars import _IONE, QRational, _pgcd, specialize

_Q = QRational.gen()

# where assert_canonical compares values; no test scalar has a pole here
POINTS = (Fraction(101, 7), Fraction(-37, 11), Fraction(53, 97))


def at(x):
    """x as a function of the point q = t, in Fraction arithmetic."""
    return lambda t: specialize(x, t)


def assert_canonical(x, value=None) -> None:
    """x is a QRational in canonical form: trimmed int tuples, a den with
    positive lead, num and den coprime in Q[q] (`_pgcd` is 1) and with
    integer content 1, and den 1 the shared `_IONE` tuple.  value, if
    given, maps a Fraction t to the value x must take at q = t, computed
    in Fraction arithmetic on the operands; it is compared at POINTS."""
    assert isinstance(x, QRational)
    num, den = x.num, x.den
    assert all(type(c) is int for c in num + den)
    assert den and den[-1] > 0 and (not num or num[-1])
    assert _pgcd(num, den) == (1,)
    assert gcd(*num, *den) == 1
    if den == (1,):
        assert den is _IONE
    if value is not None:
        for t in POINTS:
            assert specialize(x, t) == value(t)


def graded_char(a) -> GradedModule:
    """The rank-1 graded character E_1 = a (a p, read at p = 1)."""
    return GradedModule(1, 1, [], [[[Fraction(a)]]])


def sign_projector_tail(n: int, i: int) -> AffineElement:
    """sum (-1/q)^{l(w)} T_w over the copy of S_i permuting the last i
    letters; for i <= 1 this is the identity."""
    if not 0 <= i <= n:
        raise ValueError(f"tail size {i} out of range")
    if i <= 1:
        return AffineElement.one(n)
    head = Permutation.identity(n - i)
    out: dict = {}
    zero = (0,) * n
    for w, c in sign_projector(i).terms.items():
        word = tuple(head.word) + tuple(a + (n - i) for a in w.word)
        out[(zero, Permutation(word))] = c
    return AffineElement(n, out)


def generic_guard(t, q0=None) -> None:
    """Reject characters outside the generic regime: a zero coordinate, a
    repeated coordinate, or a coordinate ratio equal to q^{+-1} (checked
    formally, and at q0 when a numeric value is supplied)."""
    t = tuple(_coerce(v) for v in t)
    for k, v in enumerate(t):
        if not v:
            raise ValueError(f"character coordinate {k + 1} is zero")
    qv = None
    if q0 is not None:
        qv = QRational(Fraction(q0))
    for a in range(len(t)):
        for b in range(len(t)):
            if a == b:
                continue
            r = t[a] / t[b]
            if r == 1:
                raise ValueError(
                    f"coordinates {a + 1}, {b + 1} coincide")
            if r == _Q:
                raise ValueError(
                    f"coordinates {a + 1}, {b + 1} differ by q")
            if qv is not None and r == qv:
                raise ValueError(
                    f"coordinates {a + 1}, {b + 1} differ by q0")


def cycle_type(w: Permutation) -> tuple[int, ...]:
    """The partition of cycle lengths of w."""
    seen = [False] * w.n
    lengths = []
    for start in range(1, w.n + 1):
        if seen[start - 1]:
            continue
        size, i = 0, start
        while not seen[i - 1]:
            seen[i - 1] = True
            i = w(i)
            size += 1
        lengths.append(size)
    return tuple(sorted(lengths, reverse=True))


def mat_inverse(A: list[list]) -> list[list]:
    """Exact inverse by row reduction of the augmented matrix."""
    n = len(A)
    aug = [list(row) + [1 if i == j else 0 for j in range(n)]
           for i, row in enumerate(A)]
    R, pivots = rref(aug)
    if list(pivots) != list(range(n)):
        raise ArithmeticError("matrix is singular")
    return [row[n:] for row in R[:n]]


def theta_weight(M, x) -> list[list]:
    """theta_x = prod Theta_k^{x_k} on the module M, inverses included;
    kept in M's memo under ("theta", x)."""
    x = tuple(x)

    def build():
        out = identity(M.dim)
        for k, e in enumerate(x):
            if not e:
                continue
            base = M.x[k] if e > 0 else M._memoized(
                ("theta_inv", k), lambda: mat_inverse(M.x[k]))
            for _ in range(abs(e)):
                out = mat_mul(base, out)
        return out

    return M._memoized(("theta", x), build)


def act(M, el: AffineElement) -> list[list]:
    """Matrix of an algebra element on an exact module M."""
    if M.param is not None:
        raise ValueError("act is defined for exact modules")
    if el.n != M.n:
        raise ValueError("rank mismatch")
    out = zeros(M.dim, M.dim)
    for (x, w), c in el.terms.items():
        m = mat_mul(theta_weight(M, x), M.perm_matrix(w))
        out = mat_add(out, mat_scale(c, m))
    return out
