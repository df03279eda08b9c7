"""Modules over the degenerate (graded) algebra: the symmetric group
together with commuting first-order generators E_1..E_n obeying

    E_k t_j - t_j E_{s_j(k)} = p (delta_{k,j} - delta_{k,j+1}) I,

with t_j the adjacent transpositions.  The relations are those of the
affine algebra with the constants (a, b, gamma, delta) = (0, 1, 0, p) in
place of (q-1, q, q-1, 0); the module class, the relation check,
parabolic induction and the frame of the derivative are the ones
`hecke_bz.module_core` shares with the affine algebra.

An exact module lives over Q at (p, kappa) = (1, 0).  Floats enter at
one place: `pin` takes an exact module to (p0, kappa0), with float t_j
and E_k -> kappa0 I + p0 E_k.  Nothing is lost: every exact module the
package builds (Speh modules, their direct sums, and their derivatives,
as restriction is linear and keeps kappa I) has rational t_j and
E_k = kappa I - p N_k, stored as E_k = -N_k, and its pin is t_j with
kappa0 I + p0 E_k.  As kappa I is central, each relation residual is a
power of p times a rational matrix (the relations are homogeneous in p;
Lusztig, J. AMS 2, 1989), so it vanishes in Q[p, kappa] exactly when it
vanishes at (1, 0).  Induction keeps this form, so the argument covers
induced modules: a rational E value a at (1, 0), as in a rank-1
character, stands for kappa + a p, induction moves factor E's by
transpositions and adds p (delta = p) times rational matrices, and
shifting every E by a common kappa preserves the relations.

The basic family is the Speh module on a partition, built straight from
the content vectors of its standard tableaux (Okounkov-Vershik): E_k acts
diagonally as kappa - p c_k, and every seminormal entry of t_j is a
function of c_{j+1} - c_j.  The commutation relation follows from the
recursion E_{k+1} = t_k E_k t_k - p t_k, which also pins every E_k once
E_1 = kappa holds; `decompose_as_speh` exploits exactly that to certify
a module as a sum of Spehs by its symmetric group content alone, with a
class-trace cross-check on the E traces.
At (1, 0) they read E_1 = 0 and E_{k+1} = t_k E_k t_k - t_k; the kappa
parts dropped, kappa (1 - t_k^2) and kappa (dim - sum m_mu dim mu) in the
traces, vanish as `decompose_sn` checks both.

The derivative is the affine one with t_j in place of T_j
(`module_core.derivative`): the joint (-1)-eigenspace of the tail
transpositions t_{n-i+1}..t_{n-1}, under the front transpositions and
the front E's.  As t_j^2 = 1, that eigenspace is the sign-isotypic part
of the tail S_i, the image of its sign idempotent.  `pieri_verify`
compares its Speh decomposition with the vertical-strip prediction.  On
the Speh module on (2, 1), removing a vertical strip of size
i = 0, 1, 2, 3 leaves (2, 1); (2) or (1, 1); (1); nothing:

>>> M = speh_module((2, 1))
>>> [g_bz_derivative(M, i).dim for i in range(4)]
[2, 2, 1, 0]
>>> pieri_verify((2, 1), 1)["computed"]
[[2], [1, 1]]
"""

from __future__ import annotations

from fractions import Fraction
from math import isfinite

from .combinatorics import standard_tableaux, vertical_strips
from .linalg import mat_eq, mat_mul, mat_sub, zeros
from .module_core import Module, derivative
from .symgroup import decompose_sn

__all__ = [
    "GradedModule",
    "speh_module",
    "pin",
    "g_bz_derivative",
    "decompose_as_speh",
    "pieri_verify",
]


class GradedModule(Module):
    """A module over the graded algebra: s[j-1] is the transposition t_j,
    x[k-1] is E_k.  param is None for rational entries at (p, kappa) =
    (1, 0), and the float p0 for the float entries that `pin` makes."""

    __slots__ = ()

    names = ("t", "E")
    families = ("square", "braid", "distant_commute", "jm_commute",
                "cross_far", "cross_near")

    def constants(self) -> tuple:
        return 0, 1, 0, 1 if self.param is None else self.param


def speh_module(shape, scalar_mode="exact", p0=None, kappa0=None
                ) -> GradedModule:
    """The exact Speh module on a partition, on the basis of its standard
    tableaux, each a content vector c (`standard_tableaux`).  With
    d = c_{j+1} - c_j, t_j fixes the tableau if d = 1 (j, j+1 in one row)
    and negates it if d = -1 (one column); otherwise |d| >= 2, the partner
    is c with c_j and c_{j+1} swapped, the diagonal entry is 1/d and the
    off-diagonal one is 1 in the earlier tableau of the pair and
    1 - 1/d^2 in the later.  E_k = kappa - p c_k diagonally, at
    (p, kappa) = (1, 0).  The numeric scalar mode is `pin` at
    (p0, kappa0), kept for the benchmark harness's call.

    >>> speh_module((1, 1)).s
    [[[Fraction(-1, 1)]]]
    """
    if scalar_mode not in ("exact", "numeric"):
        raise ValueError(f"unknown scalar mode {scalar_mode!r}")
    shape = tuple(shape)
    tabs = standard_tableaux(shape)
    n, dim = sum(shape), len(tabs)
    index = {c: r for r, c in enumerate(tabs)}
    gens = []
    for j in range(1, n):
        mat = [[0] * dim for _ in range(dim)]
        for col, c in enumerate(tabs):
            d = c[j] - c[j - 1]
            if d in (1, -1):
                mat[col][col] = Fraction(d)
                continue
            other = index[c[:j - 1] + (c[j], c[j - 1]) + c[j + 1:]]
            mat[col][col] = Fraction(1, d)
            mat[other][col] = (Fraction(1) if col < other
                               else 1 - Fraction(1, d * d))
        gens.append(mat)
    jm = []
    for k in range(n):
        mat = zeros(dim, dim)
        for r, c in enumerate(tabs):
            mat[r][r] = -c[k]
        jm.append(mat)
    M = GradedModule(n, dim, gens, jm, meta={"shape": shape})
    return M if scalar_mode == "exact" else pin(M, p0, kappa0)


def pin(M: GradedModule, p0: float, kappa0: float) -> GradedModule:
    """The exact graded module M, stored at (p, kappa) = (1, 0), at the
    float point (p0, kappa0): t_j -> float(t_j) and
    E_k -> kappa0 I + p0 E_k.  This is the one way to a float graded
    module; off-diagonal zeros of the E's stay the int 0.

    >>> G = pin(speh_module((2,)), 0.5, 2.0)
    >>> G.param, G.s, G.x
    (0.5, [[[1.0]]], [[[2.0]], [[1.5]]])
    """
    if M.param is not None:
        raise ValueError(f"the module is already pinned at p0 = {M.param}")
    for name, v in (("p0", p0), ("kappa0", kappa0)):
        if v is None or not isfinite(v):
            raise ValueError(f"a pin needs finite {name}, not {v}")
    p, kappa = float(p0), float(kappa0)
    t = [[[float(v) for v in row] for row in g] for g in M.s]
    E = [[[kappa + p * float(v) if r == c else (p * float(v) if v else 0)
           for c, v in enumerate(row)] for r, row in enumerate(e)]
         for e in M.x]
    return GradedModule(M.n, M.dim, t, E, param=p)


def g_bz_derivative(M: GradedModule, i: int) -> GradedModule:
    """The i-th derivative: the joint (-1)-eigenspace of t_{n-i+1}..t_{n-1}
    as a module of rank n - i (front transpositions and the first n - i
    E's), by `module_core.derivative`."""
    return derivative(M, i)


def _content_trace(shape, k: int) -> int:
    """Sum over standard tableaux of the content of the letter k."""
    return sum(c[k - 1] for c in standard_tableaux(shape))


def decompose_as_speh(M: GradedModule) -> dict:
    """Certify an exact module as a direct sum of Speh modules and return
    the multiplicities.

    Route one: symmetric-group class traces give candidate
    multiplicities.  Route two: E_1 = 0 and the recursion
    E_{k+1} = t_k E_k t_k - t_k pin the whole E action to the Speh one,
    and the E traces are cross-checked against tableau content sums.
    """
    if M.param is not None:
        raise ValueError("decomposition runs on exact modules")
    m, dim = M.n, M.dim
    report: dict = {"multiplicities": {}, "pass": True}
    if dim == 0:
        return report
    mults = decompose_sn(M.s, dim=dim, m=m)
    report["multiplicities"] = mults
    if m == 0:
        return report
    e1_ok = mat_eq(M.x[0], zeros(dim, dim))
    rec_ok = True
    for k in range(m - 1):
        g = M.s[k]
        want = mat_sub(mat_mul(g, mat_mul(M.x[k], g)), g)
        rec_ok = rec_ok and mat_eq(M.x[k + 1], want)
    trace_ok = True
    for k in range(1, m + 1):
        got = sum(M.x[k - 1][r][r] for r in range(dim))
        want = -sum(c * _content_trace(mu, k) for mu, c in mults.items())
        trace_ok = trace_ok and got == want
    report["jm_start"] = e1_ok
    report["jm_recursion"] = rec_ok
    report["trace_match"] = trace_ok
    report["pass"] = bool(e1_ok and rec_ok and trace_ok)
    return report


def pieri_verify(shape, i: int) -> dict:
    """Speh decomposition of the i-th derivative of a Speh module against
    the vertical-strip prediction; exact over Q."""
    return _pieri_report(speh_module(shape), i)


def _pieri_report(M: GradedModule, i: int) -> dict:
    """`pieri_verify` on the exact Speh module M, so that a caller that
    goes on with M (a sweep over the orders, or `derive-speh` pinning
    it) builds M once."""
    shape = M.meta["shape"]
    D = g_bz_derivative(M, i)
    predicted = sorted(vertical_strips(shape, i), reverse=True)
    rep = decompose_as_speh(D)
    computed = sorted(
        (mu for mu, c in rep["multiplicities"].items() for _ in range(c)),
        reverse=True)
    ok = rep["pass"] and computed == predicted
    return {
        "shape": list(shape),
        "i": i,
        "dim": D.dim,
        "predicted": [list(mu) for mu in predicted],
        "computed": [list(mu) for mu in computed],
        "pass": bool(ok),
    }
