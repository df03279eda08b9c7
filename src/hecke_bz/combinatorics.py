"""Partitions, permutations, standard tableaux, and character combinatorics.

This is the combinatorial backbone for everything else: length and reduced
words for S_n, minimal coset representatives for Young subgroups, vertical
strips (the Pieri shapes), Murnaghan-Nakayama character values, and the
standard tableaux that index seminormal bases.

Conventions, fixed once:

* Permutations are bijections of {1..n}; a `Permutation` w is the tuple
  of its one-line word (w(1), ..., w(n)), equal and hash-equal to that
  tuple, and products compose as functions, (v*w)(i) = v(w(i)).
* s_j is the adjacent transposition (j, j+1), 1 <= j <= n-1.
* Partitions are weakly decreasing tuples of positive integers; lists of
  partitions are always returned in descending lexicographic order.
* A standard tableau is its content vector (c_1, ..., c_n), c_k the
  content column - row (0-indexed) of the box of the letter k; the
  vector determines the tableau.  The tableaux of a fixed shape are kept
  in last-letter order: sort by the row index of n, then recursively on
  the tableau with n removed.

>>> length(Permutation((2, 1, 4, 3)))
2
>>> vertical_strips((2, 2), 1)
[(2, 1)]
>>> mn_character((2, 1), (3,))
-1
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import permutations as _itertools_permutations
from math import factorial
from operator import mul

__all__ = [
    "Permutation",
    "length",
    "reduced_word",
    "min_coset_reps",
    "vertical_strips",
    "mn_character",
    "hook_dimension",
    "partitions",
    "is_partition",
    "conjugate_partition",
    "standard_tableaux",
    "sym_group",
    "class_size",
    "centralizer_order",
    "class_word",
    "parse_partition",
    "parse_permutation",
    "render_permutation",
]


# ---------------------------------------------------------------------------
# permutations
# ---------------------------------------------------------------------------

class Permutation(tuple):
    """A permutation of {1..n}: the tuple of its one-line word, checked
    on construction.  Builders that can only yield permutations (identity,
    adjacent, products, inverses, `finite_hecke._s_left`) skip the check.

    >>> s1 = Permutation.adjacent(3, 1)
    >>> s2 = Permutation.adjacent(3, 2)
    >>> s1 * s2
    Permutation((2, 3, 1))
    >>> s1 * s2 == (2, 3, 1)
    True
    >>> (s1 * s2)(3)
    1
    """

    __slots__ = ()

    def __new__(cls, word):
        word = tuple(word)
        if sorted(word) != list(range(1, len(word) + 1)):
            raise ValueError(f"not a permutation one-line word: {word}")
        return tuple.__new__(cls, word)

    @property
    def n(self) -> int:
        return len(self)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return tuple.__new__(cls, range(1, n + 1))

    @classmethod
    def adjacent(cls, n: int, j: int) -> "Permutation":
        """The generator s_j in S_n."""
        if not 1 <= j <= n - 1:
            raise ValueError(f"s_{j} is not a generator of S_{n}")
        word = list(range(1, n + 1))
        word[j - 1], word[j] = word[j], word[j - 1]
        return tuple.__new__(cls, word)

    def __call__(self, i: int) -> int:
        return self[i - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if not isinstance(other, Permutation):
            return NotImplemented
        if len(self) != len(other):
            raise ValueError("rank mismatch")
        return tuple.__new__(Permutation, [self[v - 1] for v in other])

    def inverse(self) -> "Permutation":
        out = [0] * len(self)
        for i, v in enumerate(self):
            out[v - 1] = i + 1
        return tuple.__new__(Permutation, out)

    def is_identity(self) -> bool:
        return all(v == i + 1 for i, v in enumerate(self))

    def __repr__(self):
        return f"Permutation({tuple.__repr__(self)})"


def length(w: Permutation) -> int:
    """Coxeter length = inversion count of the one-line word."""
    return sum(a > b for i, a in enumerate(w) for b in w[i + 1:])


def reduced_word(w: Permutation) -> list[int]:
    """A reduced word [a_1, ..., a_l] with w = s_{a_1} * ... * s_{a_l}.

    Deterministic: peels the smallest descent from the right.

    >>> reduced_word(Permutation((3, 2, 1)))
    [1, 2, 1]
    """
    word = list(w)
    letters: list[int] = []
    while True:
        j = next((k for k in range(len(word) - 1) if word[k] > word[k + 1]), None)
        if j is None:
            break
        word[j], word[j + 1] = word[j + 1], word[j]
        letters.append(j + 1)
    letters.reverse()
    return letters


@cache
def sym_group(n: int) -> tuple[Permutation, ...]:
    """All of S_n, sorted by (length, one-line word)."""
    if n < 0:
        raise ValueError("negative size")
    elems = [Permutation(p) for p in _itertools_permutations(range(1, n + 1))]
    elems.sort(key=lambda w: (length(w), w))
    return tuple(elems)


def min_coset_reps(n: int, composition) -> list[Permutation]:
    """Minimal-length representatives of the left cosets w*S_c of the
    Young subgroup of the composition, i.e. the w that increase on every
    block.  Sorted by (length, word).

    >>> min_coset_reps(3, (2, 1))
    [Permutation((1, 2, 3)), Permutation((1, 3, 2)), Permutation((2, 3, 1))]
    """
    composition = tuple(composition)
    if any(c <= 0 for c in composition) or sum(composition) != n:
        raise ValueError(f"invalid composition {composition} of {n}")
    blocks = []
    start = 1
    for c in composition:
        blocks.append(range(start, start + c - 1))
        start += c
    inner = [j for block in blocks for j in block]
    reps = [
        w
        for w in sym_group(n)
        if all(w(j) < w(j + 1) for j in inner)
    ]
    expected = factorial(n)
    for c in composition:
        expected //= factorial(c)
    assert len(reps) == expected
    return reps


def class_word(mu) -> list[int]:
    """A reduced word of a permutation of cycle type mu: the product of
    the block Coxeter elements s_start ... s_{start+part-2}, the cycles
    laid out in blocks.

    >>> class_word((4, 2))
    [1, 2, 3, 5]
    """
    word: list[int] = []
    start = 1
    for part in mu:
        word.extend(range(start, start + part - 1))
        start += part
    return word


def centralizer_order(mu) -> int:
    """z_mu = prod k^{m_k} m_k! over the multiplicities of mu."""
    out = 1
    for part in set(mu):
        m = list(mu).count(part)
        out *= part ** m * factorial(m)
    return out


def class_size(mu) -> int:
    return factorial(sum(mu)) // centralizer_order(mu)


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------

def is_partition(parts) -> bool:
    parts = tuple(parts)
    return all(isinstance(p, int) and p >= 1 for p in parts) and all(
        parts[i] >= parts[i + 1] for i in range(len(parts) - 1)
    )


@cache
def partitions(n: int) -> tuple[tuple[int, ...], ...]:
    """All partitions of n in descending lexicographic order.

    >>> partitions(4)
    ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    """
    if n < 0:
        raise ValueError("negative size")

    def gen(rest: int, max_part: int):
        if rest == 0:
            yield ()
            return
        for first in range(min(rest, max_part), 0, -1):
            for tail in gen(rest - first, first):
                yield (first,) + tail

    return tuple(gen(n, n))


def conjugate_partition(parts) -> tuple[int, ...]:
    parts = tuple(parts)
    if not parts:
        return ()
    return tuple(
        sum(1 for p in parts if p > r) for r in range(parts[0])
    )


def vertical_strips(shape, i: int) -> list[tuple[int, ...]]:
    """All partitions obtained by removing i boxes from shape with at
    most one box per row, in descending lexicographic order.

    >>> vertical_strips((2, 2), 2)
    [(1, 1)]
    >>> vertical_strips((3,), 2)
    []
    """
    shape = tuple(shape)
    if not is_partition(shape) and shape != ():
        raise ValueError(f"not a partition: {shape}")
    if not 0 <= i <= sum(shape):
        raise ValueError(f"cannot remove {i} boxes from {shape}")
    out = []

    def gen(row: int, todo: int, prev: int, acc: tuple[int, ...]):
        if row == len(shape):
            if todo == 0:
                out.append(tuple(p for p in acc if p > 0))
            return
        for remove in (0, 1):
            if remove > todo:
                continue
            new = shape[row] - remove
            if new < 0 or new > prev:
                continue
            gen(row + 1, todo - remove, new, acc + (new,))

    gen(0, i, shape[0] if shape else 0, ())
    return sorted(set(out), reverse=True)


def parse_partition(text: str) -> tuple[int, ...]:
    """Parse "3,2,2"; the empty partition is "∅" or "-" (or "")."""
    text = text.strip()
    if text in ("∅", "-", ""):
        return ()
    try:
        parts = tuple(int(p) for p in text.split(","))
    except ValueError:
        parts = None
    if parts is None or not is_partition(parts):
        raise ValueError(f"not a partition: {text!r}")
    return parts


def parse_permutation(text: str) -> Permutation:
    """Parse one-line notation "2 1 4 3"."""
    return Permutation(int(v) for v in text.split())


def render_permutation(w: Permutation) -> str:
    return " ".join(str(v) for v in w)


# ---------------------------------------------------------------------------
# standard tableaux
# ---------------------------------------------------------------------------

def standard_tableaux(shape) -> tuple[tuple[int, ...], ...]:
    """All standard tableaux of the shape, in last-letter order, each as
    its content vector: entry k-1 is the content of the letter k.

    >>> standard_tableaux((2, 1))
    ((0, -1, 1), (0, 1, -1))
    """
    return _standard_tableaux(tuple(shape))


@cache
def _standard_tableaux(shape: tuple) -> tuple[tuple[int, ...], ...]:
    if shape == ():
        return ((),)
    if not is_partition(shape):
        raise ValueError(f"not a partition: {shape}")
    out = []
    # the letter n in the corner of row r has content shape[r] - 1 - r;
    # taking the corner rows in ascending order, then recursing, yields
    # exactly the last-letter order
    for r in range(len(shape)):
        if r + 1 < len(shape) and shape[r] == shape[r + 1]:
            continue
        sub = shape[:r] + (shape[r] - 1,) + shape[r + 1:]
        sub = tuple(p for p in sub if p > 0)
        out.extend(t + (shape[r] - 1 - r,) for t in _standard_tableaux(sub))
    return tuple(out)


def hook_dimension(shape) -> int:
    """Number of standard tableaux (hook-length formula).

    >>> hook_dimension((2, 2))
    2
    """
    shape = tuple(shape)
    if shape == ():
        return 1
    if not is_partition(shape):
        raise ValueError(f"not a partition: {shape}")
    conj = conjugate_partition(shape)
    hooks = 1
    for r, row_len in enumerate(shape):
        for c in range(row_len):
            hooks *= (row_len - c) + (conj[c] - r) - 1
    return factorial(sum(shape)) // hooks


# ---------------------------------------------------------------------------
# Murnaghan-Nakayama characters
# ---------------------------------------------------------------------------

def mn_character(lam, mu) -> int:
    """Irreducible character value chi_lambda on the class of cycle type
    mu, by the Murnaghan-Nakayama border-strip recursion on beta-numbers.
    Always an integer, returned as int; mu may list its parts in any order.

    >>> mn_character((1, 1, 1), (2, 1))
    -1
    """
    lam, mu = tuple(lam), tuple(mu)
    if not is_partition(lam):
        raise ValueError(f"not a partition: {lam}")
    if not all(isinstance(k, int) and k >= 1 for k in mu):
        raise ValueError(f"not a cycle type: {mu}")
    return _mn_character(lam, mu)


@cache
def _mn_character(lam: tuple, mu: tuple) -> int:
    if sum(lam) != sum(mu):
        raise ValueError(f"size mismatch: {lam} vs {mu}")
    if not mu:
        return 1
    k, rest = mu[0], mu[1:]
    r = len(lam)
    beta = [lam[i] + (r - 1 - i) for i in range(r)]
    bset = set(beta)
    total = 0
    for b in beta:
        nb = b - k
        if nb < 0 or nb in bset:
            continue
        height = sum(1 for x in beta if nb < x < b)
        nbeta = sorted((bset - {b}) | {nb}, reverse=True)
        nlam = tuple(
            x - (r - 1 - i) for i, x in enumerate(nbeta)
        )
        nlam = tuple(x for x in nlam if x > 0)
        total += (-1) ** height * _mn_character(nlam, rest)
    return total


def sn_multiplicities(trace_fn, m: int) -> dict[tuple[int, ...], Fraction]:
    """Multiplicity of each irreducible in a representation of S_m given
    only by its class traces: (1/m!) * sum |class| * trace * character,
    against the table `_weighted_characters(m)`.  trace_fn maps a
    cycle-type partition to the trace on that class."""
    traces = [trace_fn(mu) for mu in partitions(m)]
    total = factorial(m)
    return {lam: Fraction(sum(map(mul, row, traces)), total)
            for lam, row in zip(partitions(m), _weighted_characters(m))}


@cache
def _weighted_characters(m: int) -> tuple[tuple[int, ...], ...]:
    """|class mu| * chi_lambda(mu), a row for each lambda and a column
    for each mu, both in `partitions(m)` order."""
    return tuple(tuple(class_size(mu) * _mn_character(lam, mu)
                       for mu in partitions(m)) for lam in partitions(m))
