"""Finite-dimensional modules over the affine Hecke algebra.

A module is the matrix data of the generators: T_1..T_{n-1} for the
finite part and the commuting invertible Theta_1..Theta_n for the
Bernstein torus.  It is the `hecke_bz.module_core` module at the
constants (a, b, gamma, delta) = (q-1, q, q-1, 0), so c_j = (q-1) Theta_j;
`verify_relations` checks its relations, and Theta invertibility, exactly
in the symbolic mode and to a tolerance in the numeric one.

Constructions: one-dimensional characters, principal series (the
induction of n rank-one characters by `module_core.induce`, free of rank
n! over the finite part) and the derivative `module_core.derivative`,

    bz(M, i) = joint (-1)-eigenspace of the tail generators
               T_{n-i+1}..T_{n-1}, as a module over H_{n-i}.

Since (T_j - q)(T_j + 1) = 0 with q != -1, the eigenspace is also the
image of the tail sign projector, the sum of (-1/q)^{l(w)} T_w over the
copy of S_i on the last i letters; the tests build that projector as the
second route.  `bz_dimension` counts its dimension without restricting
to it.

Central blocks are cut by the Bernstein centre, the symmetric Laurent
polynomials in the thetas: the block of an S_m-orbit of theta eigenvalues
is the joint generalized eigenspace of e_1(Theta), ..., e_m(Theta) at the
orbit's elementary symmetric values, so one point names the whole orbit;
each e_j(Theta) is split only inside the block the earlier ones left.
The additivity check for derivatives of induced modules, which compares
dimensions one orbit block at a time, lives here too, and so does the
antispherical module H (x)_{finite} sign, spanned by the theta_x (x) 1.
It is the induced module of the Demazure-Lusztig oracle
(`affine.elements`) at the sign character T_a -> -1 in place of
T_a -> q, and is computed by the same walk.
"""

from __future__ import annotations

import itertools
import operator

import numpy as np

from ..linalg import (
    Subspace,
    full_space,
    mat_add,
    mat_mul,
    rref,
)
from ..module_core import (
    Module,
    check_relations,
    derivative,
    induce,
    split,
    svd_rank,
    tail_kernel,
)
from ..scalars import QRational, _coerce
from .elements import AffineElement, _induced_apply

__all__ = [
    "FinDimAffineModule",
    "verify_relations",
    "principal_series",
    "one_dimensional_module",
    "induce",
    "bz_derivative",
    "bz_dimension",
    "central_block",
    "antispherical_apply",
    "antispherical_generator",
    "leibniz_check",
]

_Q = QRational.gen()
_ONE = QRational(1)


class FinDimAffineModule(Module):
    """A finite-dimensional module over the affine Hecke algebra.

    s[j-1] is T_j (j = 1..n-1), x[k-1] is Theta_k (k = 1..n).  param is
    None for entries in Q(q), q formal, and the float q0 for float
    entries.  meta carries construction provenance (the character t of a
    principal series, the parent of a derivative).  The central elements
    E_j are kept in the module's memo.
    """

    __slots__ = ()

    names = ("T", "Theta")
    families = ("quadratic", "braid", "tee_commute", "theta_commute",
                "cross_far", "cross_near")

    def constants(self) -> tuple:
        q = _Q if self.param is None else self.param
        return q - 1, q, q - 1, 0


def verify_relations(M: FinDimAffineModule, tol: float = 1e-8) -> dict:
    """Check every defining relation; exact modules must vanish exactly,
    numeric ones up to tol in max-abs, relative to the generators'
    largest entry when that is above 1 (`check_relations`).  Also checks
    theta invertibility by rank: exactly by `rref`, numerically by the
    rank cut of `svd_rank` on each theta's singular values, from one SVD
    of their stack.
    Returns {"pass": bool, "worst": float, "families": {name: residual}}.
    """
    report = check_relations(M, tol)
    if M.param is None:
        inv_ok = all(len(rref(X)[1]) == M.dim for X in M.x)
    elif M.n and M.dim:
        X = np.array(M.x, dtype=float)
        # a non-finite theta is not certified invertible (nor sent to SVD)
        inv_ok = bool(np.isfinite(X).all()) and all(
            svd_rank(v) == M.dim
            for v in np.linalg.svd(X, compute_uv=False))
    else:
        inv_ok = True
    report["families"]["theta_invertible"] = {"ok": inv_ok}
    report["pass"] = bool(report["pass"] and inv_ok)
    return report


# --- constructions ----------------------------------------------------------

def principal_series(n: int, t) -> FinDimAffineModule:
    """H tensored over the theta subalgebra with the character
    theta_x -> t^x: the induction of the n rank-one characters t_k from
    the torus, with basis T_w for w in S_n sorted by (length, word).  At
    n = 0 it is the rank-0 one-dimensional module."""
    t = tuple(_coerce(v) for v in t)
    if len(t) != n:
        raise ValueError("character length must equal the rank")
    if not all(t):
        raise ValueError("principal series characters must be invertible")
    if not n:
        return one_dimensional_module(0, 1, "index")
    return induce(*(one_dimensional_module(1, v, "index") for v in t))


def one_dimensional_module(n: int, t0, kind: str) -> FinDimAffineModule:
    """The two families of characters of H_n: kind "index" has every
    T_j = q and theta spectrum (t, t/q, ..., t/q^{n-1}); kind "sign" has
    every T_j = -1 and theta spectrum (t, qt, ..., q^{n-1} t)."""
    t0 = _coerce(t0)
    if not t0:
        raise ValueError("character value must be invertible")
    if kind == "index":
        tval, step = _Q, 1 / _Q
    elif kind == "sign":
        tval, step = QRational(-1), _Q
    else:
        raise ValueError(f"unknown kind {kind!r}")
    tee = [[[tval]] for _ in range(n - 1)]
    cur = t0
    t = []
    for _ in range(n):
        t.append(cur)
        cur = cur * step
    theta = [[[v]] for v in t]
    return FinDimAffineModule(n, 1, tee, theta, meta={"t": tuple(t)})


# --- the derivative functor -------------------------------------------------

def bz_derivative(M: FinDimAffineModule, i: int) -> FinDimAffineModule:
    """The i-th derivative: the joint (-1)-eigenspace of T_{n-i+1}..T_{n-1}
    as a module over H_{n-i} (front T's and the first n-i thetas), by
    `module_core.derivative`."""
    return derivative(M, i)


def bz_dimension(M: FinDimAffineModule, i: int) -> int:
    """dim bz_derivative(M, i) from its tail kernel alone, without the
    restriction, which is what the larger sweeps use; a numeric module's
    is cut as its derivative's is."""
    if not 0 <= i <= M.n:
        raise ValueError(f"derivative order {i} out of range")
    return M.dim if i <= 1 else tail_kernel(M, i).dim


# --- central blocks ---------------------------------------------------------

def _esym(values, mul, add) -> list:
    """[e_1, ..., e_m] of commuting values, read off prod_k (1 + t v_k)
    under the product mul and the sum add."""
    e: list = []
    for v in values:
        prods = [v] + [mul(x, v) for x in e]
        e = [add(x, p) for x, p in zip(e, prods)] + prods[len(e):]
    return e


def central_block(M: FinDimAffineModule, values) -> Subspace:
    """The block of M on which the centre acts through the S_m-orbit of
    `values` (one theta eigenvalue tuple, any point of the orbit): the sum
    of the joint generalized theta-eigenspaces over the orbit's points.

    The centre is generated by the elementary symmetric E_j = e_j(Theta)
    (Bernstein), and on the generalized eigenspace of a point pt each E_j
    has the single eigenvalue e_j(pt); the e-values fix the multiset, so
    the block is the joint generalized eigenspace of the E_j at e_j(values),
    for non-semisimple modules and non-generic values alike, with no
    permutation enumerated.  Each E_j is `split` only inside the block the
    earlier ones left, until one is empty.

    A principal series is one block, of dimension n!:

    >>> from hecke_bz.affine.modules import principal_series, central_block
    >>> M = principal_series(3, (2, 3, 5))
    >>> central_block(M, (5, 2, 3)).dim
    6
    >>> central_block(M, (5, 2, 7)).dim
    0
    """
    if M.param is not None:
        raise ValueError("central blocks are defined for exact modules")
    if len(values) != M.n:
        raise ValueError("one value per theta is needed")
    V = full_space(M.dim)
    # the module keeps the E_j = e_j(Theta_1, ..., Theta_m)
    E_mats = M._memoized("esym", lambda: _esym(M.x, mat_mul, mat_add))
    e_values = _esym((_coerce(v) for v in values), operator.mul,
                     operator.add)
    for E, e in zip(E_mats, e_values):
        if not V.dim:
            break
        V = split(V, E, e)
    return V


# --- antispherical module ---------------------------------------------------

def antispherical_generator(n: int) -> dict:
    """The cyclic vector theta_0 (x) 1 of H (x)_{finite} sign."""
    return {(0,) * n: _ONE}


def antispherical_apply(el: AffineElement, vec: dict) -> dict:
    """el acting on sum c_x theta_x (x) 1 in H (x)_{finite} sign: the
    oracle's induced action at the other character of the finite part,
    T_a -> -1 in place of T_a -> q."""
    return _induced_apply(el, vec, lambda c, B: -c)


# --- the additivity check --------------------------------------------------

def _orbit_key(values) -> tuple:
    return tuple(sorted((str(v) for v in values)))


def leibniz_check(M1: FinDimAffineModule, M2: FinDimAffineModule,
                  i: int) -> dict:
    """Derivatives of an induced module against the derivative sum rule.

    The candidate orbits are the S_{n-i}-orbits of the (n-i)-subsets of
    the concatenated character, each keyed by its sorted values; both
    sides are cut into the central blocks of H_{n-i} at these orbits,
    one `central_block` call per orbit and side, and compared by
    dimension: left = bz(induce(M1, M2), i), right = sum over a + b = i
    of induce(bz(M1, a), bz(M2, b)).  "blocks_cover" says the left
    blocks exhaust the left module.  Block dimensions are additive in
    any filtration and the blocks need no semisimplicity, so no
    genericity is needed (repeated values and ratios q, q^2 included).
    Both factors need their character in meta["t"], as principal series
    and inductions of them record it.
    """
    for name, M in (("M1", M1), ("M2", M2)):
        if "t" not in M.meta:
            raise ValueError(f'{name} records no character in meta["t"]')
    full = tuple(M1.meta["t"]) + tuple(M2.meta["t"])
    n = M1.n + M2.n
    m = n - i
    left = bz_derivative(induce(M1, M2), i)
    cands = {}
    for sub in itertools.combinations(range(n), m):
        vals = tuple(full[s] for s in sub)
        cands[_orbit_key(vals)] = vals
    left_dims = {key: central_block(left, vals).dim
                 for key, vals in cands.items()}
    right_dims = {key: 0 for key in cands}
    for a in range(i + 1):
        b = i - a
        if a > M1.n or b > M2.n:
            continue
        Da = bz_derivative(M1, a)
        Db = bz_derivative(M2, b)
        if Da.dim == 0 or Db.dim == 0:
            continue
        piece = induce(Da, Db)
        for key, vals in cands.items():
            right_dims[key] += central_block(piece, vals).dim
    orbits = []
    ok = True
    for key in sorted(cands):
        l, r = left_dims[key], right_dims[key]
        orbits.append({"orbit": list(key), "left": l, "right": r,
                       "pass": l == r})
        ok = ok and l == r
    covered = sum(left_dims.values())
    exhaustive = covered == left.dim
    return {
        "n": n, "i": i, "orbits": orbits,
        "blocks_cover": exhaustive,
        "left_dim": left.dim,
        "pass": bool(ok and exhaustive),
    }

