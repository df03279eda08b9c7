"""The presentation shared by the affine Hecke algebra and its graded
version, the one module class both use, and what follows from them alone.

Both algebras of rank n are generated by s_1..s_{n-1} and a commuting
family x_1..x_n subject to

    s_j^2 = a s_j + b,
    s_j s_{j+1} s_j = s_{j+1} s_j s_{j+1},   s_j s_k = s_k s_j (|j-k| > 1),
    x_k x_l = x_l x_k,
    x_k s_j = s_j x_k                        (k not in {j, j+1}),
    x_j s_j - s_j x_{j+1} = c_j,
    x_{j+1} s_j - s_j x_j = -c_j,          c_j = gamma x_j + delta,

and differ only in the four scalars (a, b, gamma, delta) (Lusztig, J. AMS
2, 1989), which `Module.constants` holds: the affine algebra has
(s, x) = (T, Theta) and (q-1, q, q-1, 0), the graded one (s, x) = (t, E)
and (0, 1, 0, p).

A module is the matrices of these generators, a `Module`.  Its `param`
is None for an exact module (q formal, or rational at (p, kappa) =
(1, 0), see `hecke_bz.graded`) and the float (q0 or p0) at which a
numeric one is pinned.  Floats enter a graded module only through
`graded.pin`, and an affine one only through the transport
(`bridge.lambda_functor`); derivatives keep their parent's param.  The
subclasses `FinDimAffineModule` and `GradedModule` supply the family
names and the constants at `param`.
`check_relations` checks the relation families exactly or to a
tolerance.

Parabolic induction (`induce`) reads the constants too: s_j s_u is
s_{s_j u}, a s_u + b s_{s_j u} (by s_j^2 = a s_j + b) or s_u s_l with
s_l in the Levi (Deodhar's lemma), and the x_k column at u = s_j u'
follows from the x_{s_j(k)} column at u' by the cross relations.

The derivative of order i is one functor for both algebras: the joint
(-1)-eigenspace of the tail generators s_{n-i+1}..s_{n-1}, that is the
joint kernel of s_j + 1 (`tail_kernel`), as a module of rank n - i under
the front generators s_1..s_{n-i-1} and x_1..x_{n-i}, which commute
with the tail and so preserve it (`derivative`).  Each tail generator is
semisimple with eigenvalues in {-1, b} (t_j^2 = 1 graded,
(T_j - q)(T_j + 1) = 0 affine, and b != -1), so this kernel is also the
image of the tail sign projector.  An exact kernel is a `Subspace`, a
numeric one the span of an orthonormal basis, and both `restrict` the
front generators.  At order 1 the tail is empty and the derivative is
M's front generators on M's space (Bernstein-Zelevinsky, Ann. Sci. ENS
10, 1977).

The sign character of the graded algebra of rank 2, at E = (2, 2 + p):

>>> from hecke_bz.graded import GradedModule
>>> M = GradedModule(2, 1, [[[-1.0]]], [[[2.0]], [[2.5]]], param=0.5)
>>> check_relations(M, tol=1e-12)["pass"]
True
>>> GradedModule(2, 1, [[[-1.0, 0.0]]], [[[2.0]], [[2.5]]])
Traceback (most recent call last):
...
ValueError: t_1 is not 1 x 1
"""

from __future__ import annotations

from math import isfinite

import numpy as np

from .combinatorics import min_coset_reps
from .linalg import (
    identity,
    intersect_kernels,
    is_zero_matrix,
    mat_add,
    mat_mul,
    mat_scale,
    mat_sub,
    zeros,
)

__all__ = [
    "NUMERIC_TOL",
    "Module",
    "relation_residuals",
    "check_relations",
    "induce",
    "tail_kernel",
    "derivative",
    "svd_rank",
]

# Relative cut for numeric ranks and invariance residuals.
NUMERIC_TOL = 1e-8


class Module:
    """A finite-dimensional module of rank n: s[j-1] is the dim x dim
    matrix of s_j (j = 1..n-1), x[k-1] that of x_k (k = 1..n).  param is
    None for an exact module and the float of a numeric one (for the
    graded algebra, `graded.pin` or a derivative of its result); meta
    carries construction provenance.  No relation check reads it;
    `leibniz_check` reads the character meta["t"] to choose its orbits.

    A module is a value: nothing mutates its generators after
    construction, so what is derived from them is kept in the
    per-instance `_memo` through `_memoized`.  Each owner of an entry
    keys it by a str tag of its own or a tuple that starts with one, so
    that no two owners' keys collide.

    A subclass names its generators (`names`, for messages) and relation
    families (`families`, in the order of `relation_residuals`) and gives
    the constants at param (`constants`).
    """

    __slots__ = ("n", "dim", "s", "x", "param", "meta", "_memo")

    names = ("s", "x")
    families: tuple = ()

    def __init__(self, n, dim, s, x, param=None, meta=None):
        if len(s) != max(n - 1, 0) or len(x) != n:
            raise ValueError("generator count does not match the rank")
        for name, mats in zip(self.names, (s, x)):
            for k, g in enumerate(mats, 1):
                if len(g) != dim or any(len(row) != dim for row in g):
                    raise ValueError(f"{name}_{k} is not {dim} x {dim}")
        self.n = n
        self.dim = dim
        self.s = s
        self.x = x
        self.param = param
        self.meta = meta or {}
        self._memo = {}

    def constants(self) -> tuple:
        """(a, b, gamma, delta) at param: all that the relation check and
        induction read of the algebra."""
        raise NotImplementedError

    def _memoized(self, key, build):
        """The memo entry at key, made by build() on first use."""
        got = self._memo.get(key)
        if got is None:
            got = self._memo[key] = build()
        return got


def relation_residuals(M: Module) -> dict[str, list]:
    """Residual matrices of the six relation families on M, keyed by
    M.families in the order: quadratic, braid, distant commutation,
    x commutation, far cross relation, near cross relations."""
    s, x, n = M.s, M.x, M.n
    a, b, gamma, delta = M.constants()
    quadratic, braid, s_commute, x_commute, cross_far, cross_near = \
        M.families
    res: dict[str, list] = {name: [] for name in M.families}
    ident = identity(M.dim) if s else []
    for g in s:
        res[quadratic].append(
            mat_sub(mat_mul(g, g),
                    mat_add(mat_scale(a, g), mat_scale(b, ident))))
    for j in range(n - 2):
        g, h = s[j], s[j + 1]
        res[braid].append(
            mat_sub(mat_mul(g, mat_mul(h, g)), mat_mul(h, mat_mul(g, h))))
    for j in range(n - 1):
        for k in range(j + 2, n - 1):
            res[s_commute].append(
                mat_sub(mat_mul(s[j], s[k]), mat_mul(s[k], s[j])))
    for k in range(n):
        for l in range(k + 1, n):
            res[x_commute].append(
                mat_sub(mat_mul(x[k], x[l]), mat_mul(x[l], x[k])))
    for j in range(1, n):
        g = s[j - 1]
        for k in range(1, n + 1):
            if k not in (j, j + 1):
                res[cross_far].append(
                    mat_sub(mat_mul(x[k - 1], g), mat_mul(g, x[k - 1])))
        c = mat_add(mat_scale(gamma, x[j - 1]), mat_scale(delta, ident))
        lhs = mat_sub(mat_mul(x[j - 1], g), mat_mul(g, x[j]))
        res[cross_near].append(mat_sub(lhs, c))
        lhs = mat_sub(mat_mul(x[j], g), mat_mul(g, x[j - 1]))
        res[cross_near].append(mat_add(lhs, c))
    return res


def induce(*factors: Module) -> Module:
    """Parabolic induction of exact modules of one algebra from the Levi
    of their ranks: basis s_u (x) b_1 (x) ... (x) b_k over the minimal
    coset representatives u of S_n / (S_{n_1} x ... x S_{n_k}), taken in
    their (length, word) order.

    s_j acts by Deodhar's lemma: s_j s_u is s_{s_j u} when s_j u is a
    representative and the longer, a s_u + b s_{s_j u} when it is one and
    the shorter, and otherwise s_j u = u s_l with s_l in the Levi, which
    acts on its own factor.  x_k acts at u = 1 through the factor that
    holds k; at u = s_j u' the cross relation
    x_k s_j = s_j x_{k+e} + e c_j (e = 1 at k = j, -1 at k = j + 1,
    0 otherwise, so that k + e = s_j(k)) makes its column s_j applied to
    the x_{k+e} column at u', plus e (gamma x_j + delta) at u'.

    A rank-0 factor is an empty block that acts by 1, a multiplicity
    space whose index leads the basis order; the positive-rank factors'
    indices follow u's, first factor most significant.
    """
    if not factors:
        raise ValueError("induction needs a factor to fix the algebra")
    cls = type(factors[0])
    for M in factors:
        if type(M) is not cls:
            raise ValueError(f"cannot induce a {cls.__name__} together "
                             f"with a {type(M).__name__}")
    if any(M.param is not None for M in factors):
        raise ValueError("induction is implemented for exact modules")
    a, b, gamma, delta = factors[0].constants()
    ranks = [M.n for M in factors]
    n = sum(ranks)
    reps = min_coset_reps(n, [r for r in ranks if r])
    rep_index = {u: i for i, u in enumerate(reps)}
    order = ([f for f, r in enumerate(ranks) if not r] + [None]
             + [f for f, r in enumerate(ranks) if r])
    stride, dim = {}, 1
    for f in reversed(order):
        stride[f] = dim
        dim *= len(reps) if f is None else factors[f].dim
    u_stride = stride[None]
    # (factor, offset of its letters) for each letter 1..n, 0-indexed
    holder = [(f, sum(ranks[:f])) for f, r in enumerate(ranks)
              for _ in range(r)]

    def on_factor(f, G, col):
        """Column col of the matrix G acting on factor f's index."""
        st, d = stride[f], factors[f].dim
        i = col // st % d
        rest = col - i * st
        return {rest + r * st: G[r][i] for r in range(d) if G[r][i]}

    s_cols = [[None] * dim for _ in range(n - 1)]
    down = {}   # col at u != 1 -> (j, col at s_j u) for its least descent j
    for col in range(dim):
        ui = col // u_stride % len(reps)
        u, rest = reps[ui], col - ui * u_stride
        for j in range(1, n):
            p, p1 = u.index(j), u.index(j + 1)
            f, lo = holder[p]
            if holder[p1][0] == f:
                s_cols[j - 1][col] = on_factor(f, factors[f].s[p - lo], col)
                continue
            v = list(u)
            v[p], v[p1] = j + 1, j
            other = rest + rep_index[tuple(v)] * u_stride
            if p < p1:
                s_cols[j - 1][col] = {other: 1}
                continue
            s_cols[j - 1][col] = {other: b, col: a} if a else {other: b}
            down.setdefault(col, (j, other))

    x_cols = [[None] * dim for _ in range(n)]
    for col in sorted(range(dim), key=lambda c: c // u_stride % len(reps)):
        if col not in down:
            for k in range(1, n + 1):
                f, lo = holder[k - 1]
                x_cols[k - 1][col] = on_factor(f, factors[f].x[k - 1 - lo],
                                               col)
            continue
        j, prev = down[col]
        for k in range(1, n + 1):
            e = (k == j) - (k == j + 1)
            terms = [(r2, v * w) for r, v in x_cols[k + e - 1][prev].items()
                     for r2, w in s_cols[j - 1][r].items()]
            if e and gamma:
                terms += [(r, e * gamma * v)
                          for r, v in x_cols[j - 1][prev].items()]
            if e and delta:
                terms.append((prev, e * delta))
            column: dict = {}
            for r, v in terms:
                column[r] = column[r] + v if r in column else v
            x_cols[k - 1][col] = {r: v for r, v in column.items() if v}
    meta = {}
    if all("t" in M.meta for M in factors):
        meta["t"] = tuple(v for M in factors for v in M.meta["t"])
    return cls(n, dim, [_dense(cols) for cols in s_cols],
               [_dense(cols) for cols in x_cols], meta=meta)


def _dense(cols: list) -> list[list]:
    """The matrix whose column c has the entries {row: value} cols[c]."""
    mat = zeros(len(cols), len(cols))
    for c, column in enumerate(cols):
        for r, v in column.items():
            mat[r][c] = v
    return mat


def check_relations(M: Module, tol: float = 1e-8) -> dict:
    """Every relation family on M: an exact module's residuals must
    vanish (nonzero matrices are counted per family), a numeric one's
    must stay within tol times the scale of its generators, their
    largest entry in max-abs or 1 if that is smaller, as a residual's
    rounding grows with its operands; a NaN residual or a non-finite
    scale fails.  "worst" is the largest residual itself.
    Returns {"families": {name: ...}, "pass": bool, "worst": float}."""
    exact = M.param is None
    report: dict = {"families": {}}
    worst = 0.0
    ok = True
    for name, mats in relation_residuals(M).items():
        if exact:
            bad = sum(0 if is_zero_matrix(r) else 1 for r in mats)
            report["families"][name] = {"nonzero": bad}
            ok = ok and bad == 0
        else:
            r = _max_abs(v for m in mats for row in m for v in row)
            report["families"][name] = {"residual": r}
            worst = _max_abs((worst, r))
    if not exact:
        scale = _max_abs(v for g in M.s + M.x for row in g for v in row)
        ok = isfinite(scale) and worst <= tol * max(1.0, scale)
    report["pass"] = bool(ok)
    report["worst"] = worst
    return report


def _max_abs(values) -> float:
    """The largest |v| (0.0 for none), or NaN if any v is NaN: Python's
    max keeps or drops a NaN depending on where it sits."""
    worst = 0.0
    for v in values:
        a = abs(v)
        if a > worst:
            worst = a
        elif a != a:
            return a
    return worst


class _OrthonormalSpan:
    """The span of the orthonormal columns of basis, with the interface
    of `linalg.Subspace`: `dim`, and `restrict(A)` = B^T A B, which must
    leave the span invariant up to NUMERIC_TOL relative to A's largest
    entry; a non-finite residual or entry raises."""

    __slots__ = ("basis", "dim")

    def __init__(self, basis):
        self.basis = basis
        self.dim = basis.shape[1]

    def restrict(self, A) -> list[list]:
        B = self.basis
        A = np.array(A, dtype=float)
        AB = A @ B
        X = B.T @ AB
        resid = float(np.abs(AB - B @ X).max()) if self.dim else 0.0
        # not <=: a NaN residual or scale fails too
        if not resid <= NUMERIC_TOL * max(1.0, float(np.abs(A).max())):
            raise ArithmeticError(
                f"subspace is not numerically invariant ({resid:.3e})")
        return X.tolist()


def tail_kernel(M: Module, i: int):
    """Joint kernel of s_j + 1 over the tail j = n-i+1..n-1: a `Subspace`
    for an exact module, intersected one generator at a time and with no
    s_j + 1 built once it is 0 (`intersect_kernels`); for a numeric one
    the `_OrthonormalSpan` of the SVD of the stacked matrices, cut by
    `svd_rank`."""
    tail = M.s[M.n - i:]
    d = M.dim
    if M.param is None:
        return intersect_kernels(map(_plus_one, tail), d)
    if not tail:
        return _OrthonormalSpan(np.eye(d))
    _, sv, vt = np.linalg.svd(
        np.vstack([np.array(g, dtype=float) + np.eye(d) for g in tail]))
    return _OrthonormalSpan(vt[svd_rank(sv):].T)


def _plus_one(g: list[list]) -> list[list]:
    """g + 1, a copy of g with 1 added on the diagonal only."""
    h = [list(row) for row in g]
    for r, row in enumerate(h):
        row[r] += 1
    return h


def derivative(M: Module, i: int) -> Module:
    """The i-th derivative: `tail_kernel(M, i)` as a module of rank n - i
    under s_1..s_{n-i-1} and x_1..x_{n-i}, with M's param; restriction
    verifies invariance.  Order 0 is M itself, and order 1, whose tail
    is empty, is M's front generators on M's space."""
    n = M.n
    if not 0 <= i <= n:
        raise ValueError(f"derivative order {i} out of range")
    if i == 0:
        return M
    m = n - i
    s, x = M.s[:max(m - 1, 0)], M.x[:m]
    meta = {"parent": M, "tail": i}
    if i == 1:
        return type(M)(m, M.dim, s, x, M.param, meta)
    V = tail_kernel(M, i)
    return type(M)(m, V.dim, [V.restrict(g) for g in s],
                   [V.restrict(g) for g in x], M.param, meta)


def svd_rank(sv) -> int:
    """Numeric rank from singular values in decreasing order: those above
    NUMERIC_TOL times the largest one (or 1, if that is larger)."""
    scale = max(float(sv[0]) if len(sv) else 1.0, 1.0)
    return int(sum(1 for v in sv if v > NUMERIC_TOL * scale))
