"""Second routes that only the tests use.

Each function here rebuilds an object the package computes another way,
so that a test can compare the two:

* `sign_projector_tail` is the tail sign projector as an affine element;
  its image is the derivative's tail kernel (`module_core.tail_kernel`).
* `generic_guard` rejects characters outside the generic regime; the
  sweeps that assume generic characters assert it on their inputs.
* `cycle_type` reads a permutation's conjugacy class directly; it is the
  reference for `combinatorics.class_word`.
"""

from fractions import Fraction

from hecke_bz.affine import AffineElement
from hecke_bz.combinatorics import Permutation
from hecke_bz.finite_hecke import _coerce, sign_projector
from hecke_bz.scalars import QRational

_Q = QRational.gen()


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
