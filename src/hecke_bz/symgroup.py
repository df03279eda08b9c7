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
Murnaghan-Nakayama characters.  `sign_idempotent_matrix` is the tail
sign idempotent, whose image is the derivative's tail kernel.
"""

from __future__ import annotations

from fractions import Fraction

from .combinatorics import (
    Permutation,
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
    index = {t: i for i, t in enumerate(tabs)}
    gens = []
    for j in range(1, n):
        mat = [[Fraction(0)] * dim for _ in range(dim)]
        for col, t in enumerate(tabs):
            rj, cj = t.position(j)
            rk, ck = t.position(j + 1)
            if rj == rk:
                mat[col][col] = Fraction(1)
            elif cj == ck:
                mat[col][col] = Fraction(-1)
            else:
                swapped = _swap_letters(t, j)
                other = index[swapped]
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


def _swap_letters(t, j: int):
    from .combinatorics import StandardTableau

    rows = [list(row) for row in t.rows]
    for r, row in enumerate(rows):
        for c, v in enumerate(row):
            if v == j:
                rows[r][c] = j + 1
            elif v == j + 1:
                rows[r][c] = j
    return StandardTableau(rows)


def perm_matrix(gens: list, w: Permutation) -> list[list]:
    """Matrix of w as the product of generator matrices along a reduced
    word."""
    dim = len(gens[0]) if gens else 1
    out = identity(dim)
    for a in reduced_word(w):
        out = mat_mul(out, gens[a - 1])
    return out


def _check_coxeter(gens: list, dim: int) -> None:
    ident = identity(dim)
    for j, g in enumerate(gens):
        if not mat_eq(mat_mul(g, g), ident):
            raise ValueError(f"input is not an S_m-module: s_{j+1}^2 != 1")
    for j in range(len(gens) - 1):
        a, b = gens[j], gens[j + 1]
        if not mat_eq(mat_mul(a, mat_mul(b, a)), mat_mul(b, mat_mul(a, b))):
            raise ValueError(
                f"input is not an S_m-module: braid failure at {j+1}"
            )
    for j in range(len(gens)):
        for k in range(j + 2, len(gens)):
            ab = mat_mul(gens[j], gens[k])
            ba = mat_mul(gens[k], gens[j])
            if not mat_eq(ab, ba):
                raise ValueError(
                    f"input is not an S_m-module: s_{j+1}, s_{k+1} do not commute"
                )


def decompose_sn(gens: list, dim: int | None = None, m: int | None = None
                 ) -> dict[tuple[int, ...], int]:
    """Isotypic multiplicities of an S_m-module given by generator
    matrices, via class traces against the Murnaghan-Nakayama characters;
    the Coxeter relations are checked first.

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
    if gens:
        _check_coxeter(gens, dim)

    def trace_fn(mu):
        from .combinatorics import class_representative

        mat = perm_matrix(gens, class_representative(mu)) if gens else \
            identity(dim)
        return sum(mat[i][i] for i in range(dim))

    mult = sn_multiplicities(trace_fn, m)
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
