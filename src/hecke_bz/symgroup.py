"""The exact symmetric-group oracle: what an S_m-module given by the
matrices of s_1..s_{m-1} decomposes into.

`decompose_sn` reads off isotypic multiplicities from class traces and
Murnaghan-Nakayama characters.  It runs on small integers: with L the
lcm of the entry denominators, it checks the Coxeter relations, the s
rows of `module_core`'s relation table at (a, b) = (0, L^2), on the int
matrices L * s_j (one shared product for each braid), and takes the
trace of each class on its block-Coxeter word, a word of length k
tracing to L^k times the character value.  The words are walked
as a prefix trie, so each prefix product is formed once, and the last
letter enters as the trace of a product, not a full one, read off its
nonzero entries.  The lift to integers (`_scaled`) reads each matrix
once and touches only its nonzero entries after that, one lcm over
their distinct denominators; `graded.decompose_as_speh` lifts the t's
and E's with it too, for its own second route.
`sign_idempotent_matrix` is the tail sign idempotent, whose image is the
derivative's tail kernel.

The irreducible modules themselves, in Young's seminormal form, are the
Speh modules of `hecke_bz.graded` with their E's forgotten.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, compress
from math import lcm

from .combinatorics import (
    class_word,
    hook_dimension,
    partitions,
    sn_multiplicities,
)
from .linalg import identity, mat_add, mat_mul, mat_scale, mat_sub
from .module_core import _coxeter_rows, _failing_rows

__all__ = [
    "decompose_sn",
    "sign_idempotent_matrix",
]


def _scaled(gens: list) -> tuple[int, list]:
    """The lcm L of the entry denominators and the int matrices L * g,
    for rectangular g; every entry must be int or Fraction, zero or not.
    Each g is read once, as the flat list of its entries, for their types
    (in C) and its nonzero entries; L is one lcm over the distinct
    denominators of those, and only they are scaled, into int zeros."""
    nonzero = []    # per generator: flat indices and values of its nonzeros
    for g in gens:
        flat = [*chain.from_iterable(g)]
        if not {*map(type, flat)} <= {int, Fraction}:
            for v in flat:      # a subclass of int or Fraction passes
                if not isinstance(v, (int, Fraction)):
                    raise ValueError(f"decompose_sn needs int or Fraction "
                                     f"entries, not {type(v).__name__}")
        at = [*compress(range(len(flat)), flat)]
        nonzero.append((at, [*map(flat.__getitem__, at)]))
    scale = lcm(*{v.denominator for _, values in nonzero for v in values})
    out = []
    for g, (at, values) in zip(gens, nonzero):
        d = len(g[0]) if g else 0
        flat = [0] * (len(g) * d)
        for i, v in zip(at, values):
            flat[i] = v.numerator * (scale // v.denominator)
        out.append([flat[r * d:r * d + d] for r in range(len(g))])
    return scale, out


def _check_coxeter(gens: list, scale: int) -> None:
    """The Coxeter relations on L-scaled generators, the rows of
    `module_core._coxeter_rows` at (a, b) = (0, L^2): the first that
    fails, in table order (squares, braids, distant commutes), raises."""
    for family, left, _, _ in _failing_rows(gens, (0, scale * scale),
                                            _coxeter_rows(len(gens) + 1)):
        raise ValueError("input is not an S_m-module: " + (
            "s_{0}^2 != 1", "braid failure at {0}",
            "s_{0}, s_{1} do not commute")[family].format(
                *(i + 1 for i in left)))


def _class_traces(gens: list, scale: int, dim: int, m: int
                  ) -> dict[tuple[int, ...], int]:
    """The trace of each class of S_m on its block-Coxeter word
    (`class_word`), from L-scaled generators.  The words are walked in
    sorted order, as a prefix trie, so each prefix product is formed once;
    the last letter g enters as trace(P g) = sum P[c][r] v over the
    nonzero entries v = g[r][c], each generator's read once.  A word of
    length k traces to L^k times a character value, an integer."""
    nonzeros = [[(r, c, row[c]) for r, row in enumerate(g)
                 for c in compress(range(dim), row)] for g in gens]
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
        entries = nonzeros[word[-1] - 1]
        if stack:
            P = stack[-1][1]
            t = sum(P[c][r] * v for r, c, v in entries)
        else:
            t = sum(v for r, c, v in entries if r == c)
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

    >>> decompose_sn([[[-1]], [[-1]]])
    {(1, 1, 1): 1}
    """
    if m is None:
        m = len(gens) + 1
    elif m != len(gens) + 1 and (gens or m):
        raise ValueError("m does not match the generator count")
    if dim is None:
        if not gens:
            raise ValueError("dim is required when there are no generators")
        dim = len(gens[0])
    if any(len(g) != dim or not {*map(len, g)} <= {dim} for g in gens):
        raise ValueError(f"every generator must be a {dim} x {dim} matrix")
    if m == 0:
        return {(): dim} if dim else {}
    scale, scaled = _scaled(gens)
    _check_coxeter(scaled, scale)
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
