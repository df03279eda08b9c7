"""Exact irreducible S_n-modules in Young's seminormal form.

The seminormal (rational) model is chosen over the orthogonal one because
its matrix entries are plain rationals: for adjacent letters k, k+1 lying
in different rows and columns of a standard tableau T, with T' = T with k
and k+1 swapped and d = content(k+1) - content(k) computed in the earlier
tableau of the pair, the generator acts on the ordered pair (v_T, v_T')
by [[1/d, 1 - 1/d^2], [1, -1/d]]; letters in one row give +1, in one
column -1.  In this basis every Jucys-Murphy operator
X_k = sum_{j<k} (j k) is diagonal with content eigenvalues, which is what
makes the Speh-module construction downstream a pullback along a diagonal
map.

Tableaux are kept in last-letter order (combinatorics.standard_tableaux),
so all matrices here are deterministic golden data.

This module also houses the package's master brute-force oracle:
`decompose_sn` reads off isotypic multiplicities from class traces and
Murnaghan-Nakayama characters.  It runs on small integers: with L the
lcm of the entry denominators, it checks the Coxeter relations on the
int matrices L * s_j (s_j^2 = L^2 I, one shared product for each braid),
and takes the trace of each class on its block-Coxeter word, a word of
length k tracing to L^k times the character value.  The words are walked
as a prefix trie, so each prefix product is formed once, and the last
letter enters as the trace of a product, not a full one.
`sign_idempotent_matrix` is the tail sign idempotent, whose image is the
derivative's tail kernel.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .combinatorics import (
    Permutation,
    class_word,
    hook_dimension,
    partitions,
    reduced_word,
    sn_multiplicities,
    standard_tableaux,
)
from .linalg import (
    identity,
    mat_add,
    mat_eq,
    mat_mul,
    mat_scale,
    mat_sub,
)

__all__ = [
    "SeminormalModule",
    "specht_module",
    "perm_matrix",
    "decompose_sn",
    "sign_idempotent_matrix",
]


class SeminormalModule:
    """Irreducible S_n-module in the seminormal basis of standard tableaux.

    gens[j-1] is the matrix of s_j acting on column vectors; tableaux
    orders the basis.
    """

    __slots__ = ("shape", "n", "dim", "tableaux", "gens")

    def __init__(self, shape, n, dim, tableaux, gens):
        self.shape = shape
        self.n = n
        self.dim = dim
        self.tableaux = tableaux
        self.gens = gens

    def jm_diagonal(self, k: int) -> list[int]:
        """Contents of the box of k across the tableau basis: the
        eigenvalues of X_k = sum_{j<k} (j k), in basis order."""
        if not 1 <= k <= self.n:
            raise ValueError(f"letter {k} out of range")
        return [t.content(k) for t in self.tableaux]

    def jm_matrix_sum(self, k: int) -> list[list[Fraction]]:
        """X_k computed the slow way, as an actual sum of transposition
        matrices; the diagonality test compares this with jm_diagonal."""
        acc = [[0] * self.dim for _ in range(self.dim)]
        for j in range(1, k):
            t = perm_matrix(self.gens, Permutation.transposition(self.n, j, k))
            for r in range(self.dim):
                for c in range(self.dim):
                    acc[r][c] = acc[r][c] + t[r][c]
        return acc


def specht_module(shape) -> SeminormalModule:
    """The irreducible module of the given shape, seminormal basis.

    >>> specht_module((1, 1)).gens[0]
    [[Fraction(-1, 1)]]
    >>> specht_module((2, 1)).dim
    2
    """
    shape = tuple(shape)
    tabs = standard_tableaux(shape)
    n = sum(shape)
    dim = len(tabs)
    # a standard tableau is its row-index word; swapping the letters j and
    # j + 1 swaps two entries of the word
    words = [tuple(t.position(k)[0] for k in range(1, n + 1)) for t in tabs]
    index = {w: i for i, w in enumerate(words)}
    gens = []
    for j in range(1, n):
        mat = [[0] * dim for _ in range(dim)]
        for col, t in enumerate(tabs):
            rj, cj = t.position(j)
            rk, ck = t.position(j + 1)
            if rj == rk:
                mat[col][col] = Fraction(1)
            elif cj == ck:
                mat[col][col] = Fraction(-1)
            else:
                w = words[col]
                other = index[w[:j - 1] + (w[j], w[j - 1]) + w[j + 1:]]
                if col < other:
                    d = Fraction(t.content(j + 1) - t.content(j))
                    mat[col][col] = 1 / d
                    mat[other][col] = Fraction(1)
                else:
                    first = tabs[other]
                    d = Fraction(first.content(j + 1) - first.content(j))
                    mat[col][col] = -1 / d
                    mat[other][col] = 1 - 1 / d ** 2
        gens.append(mat)
    return SeminormalModule(shape, n, dim, tabs, gens)


def perm_matrix(gens: list, w: Permutation) -> list[list]:
    """Matrix of w as the product of generator matrices along a reduced
    word."""
    dim = len(gens[0]) if gens else 1
    out = identity(dim)
    for a in reduced_word(w):
        out = mat_mul(out, gens[a - 1])
    return out


def _scaled(gens: list) -> tuple[int, list]:
    """The lcm L of the entry denominators and the int matrices L * g;
    entries must be int or Fraction."""
    scale = 1
    for g in gens:
        for row in g:
            for v in row:
                if not isinstance(v, (int, Fraction)):
                    raise ValueError(
                        f"decompose_sn needs int or Fraction entries, not "
                        f"{type(v).__name__}")
                scale = lcm(scale, v.denominator)
    return scale, [[[v.numerator * (scale // v.denominator) for v in row]
                    for row in g] for g in gens]


def _check_coxeter(gens: list, scale: int, dim: int) -> None:
    """The Coxeter relations on L-scaled generators: g^2 = L^2 I,
    aba = bab for neighbours (one shared ab) and ab = ba otherwise."""
    square = mat_scale(scale * scale, identity(dim))
    for j, g in enumerate(gens):
        if not mat_eq(mat_mul(g, g), square):
            raise ValueError(f"input is not an S_m-module: s_{j+1}^2 != 1")
    for j in range(len(gens) - 1):
        a, b = gens[j], gens[j + 1]
        ab = mat_mul(a, b)
        if not mat_eq(mat_mul(ab, a), mat_mul(b, ab)):
            raise ValueError(
                f"input is not an S_m-module: braid failure at {j+1}"
            )
    for j in range(len(gens)):
        for k in range(j + 2, len(gens)):
            if not mat_eq(mat_mul(gens[j], gens[k]),
                          mat_mul(gens[k], gens[j])):
                raise ValueError(
                    f"input is not an S_m-module: s_{j+1}, s_{k+1} do not commute"
                )


def _class_traces(gens: list, scale: int, dim: int, m: int
                  ) -> dict[tuple[int, ...], int]:
    """The trace of each class of S_m on its block-Coxeter word
    (`class_word`), from L-scaled generators.  The words are walked in
    sorted order, as a prefix trie, so each prefix product is formed once;
    the last letter enters as the trace of a product.  A word of length k
    traces to L^k times a character value, an integer."""
    out = {}
    stack: list = []  # (letter, L-scaled product of the prefix through it)
    for word, mu in sorted((class_word(mu), mu) for mu in partitions(m)):
        if not word:
            out[mu] = dim
            continue
        head = word[:-1]
        k = 0
        while k < min(len(stack), len(head)) and stack[k][0] == head[k]:
            k += 1
        del stack[k:]
        for a in head[k:]:
            g = gens[a - 1]
            stack.append((a, mat_mul(stack[-1][1], g) if stack else g))
        g = gens[word[-1] - 1]
        if stack:
            P = stack[-1][1]
            t = sum(P[r][c] * v for c, row in enumerate(g)
                    for r, v in enumerate(row) if v)
        else:
            t = sum(g[r][r] for r in range(dim))
        out[mu] = t // scale ** len(word)
    return out


def decompose_sn(gens: list, dim: int | None = None, m: int | None = None
                 ) -> dict[tuple[int, ...], int]:
    """Isotypic multiplicities of an S_m-module given by generator
    matrices with int or Fraction entries, via class traces against the
    Murnaghan-Nakayama characters; the Coxeter relations are checked
    first.  Both run on the int matrices L * g, L the lcm of the entry
    denominators.

    m defaults to len(gens) + 1; pass it (with dim) to disambiguate the
    generator-free ranks m = 0 and m = 1.

    >>> decompose_sn(specht_module((2, 2)).gens)
    {(2, 2): 1}
    """
    if m is None:
        m = len(gens) + 1
    elif gens and m != len(gens) + 1:
        raise ValueError("m does not match the generator count")
    if dim is None:
        if not gens:
            raise ValueError("dim is required when there are no generators")
        dim = len(gens[0])
    if m == 0:
        return {(): dim} if dim else {}
    scale, scaled = _scaled(gens)
    _check_coxeter(scaled, scale, dim)
    mult = sn_multiplicities(
        _class_traces(scaled, scale, dim, m).__getitem__, m)
    out: dict[tuple[int, ...], int] = {}
    total = 0
    for lam in partitions(m):
        c = mult[lam]
        if c == 0:
            continue
        if c.denominator != 1 or c < 0:
            raise ValueError(
                f"input is not an S_m-module: multiplicity of {lam} is {c}"
            )
        out[lam] = int(c)
        total += int(c) * hook_dimension(lam)
    if total != dim:
        raise ValueError(
            f"input is not an S_m-module: dimensions {total} != {dim}"
        )
    return out


def sign_idempotent_matrix(gens: list, m: int, i: int) -> list[list]:
    """Matrix of the normalized sign idempotent (1/i!) sum sgn(w) w over
    the tail letters {m-i+1..m}, built from the coset factorization
    a_k = c_k * a_{k-1} with c_k = (1/k) sum_t (-1)^t s_{b+t-1}...s_b
    over left-coset representatives (b = m-k+1).  Exact equality with the
    naive i!-term sum is asserted in the test suite for small i."""
    dim = len(gens[0]) if gens else 1
    out = identity(dim)
    for k in range(2, i + 1):
        b = m - k + 1
        term = identity(dim)
        acc = identity(dim)
        sign = 1
        for t in range(1, k):
            term = mat_mul(gens[b + t - 2], term)
            sign = -sign
            if sign > 0:
                acc = mat_add(acc, term)
            else:
                acc = mat_sub(acc, term)
        acc = mat_scale(Fraction(1, k), acc)
        out = mat_mul(acc, out)
    return out
