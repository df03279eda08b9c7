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

The relations are one table for each rank (`_relation_table`): a row
holds its family, a left and a right word in the stack
[s_1..s_{n-1}, x_1..x_n] and a linear term, a s_j + b for the quadratic
relation and +-(gamma x_j + delta) for the near cross relations.
It is the only statement of the relations, read in one of two ways.  A
numeric module's residuals left - right - linear come from a float
stack of its generators in a few batched numpy steps, each product
summed over the inner index in `linalg.mat_mul`'s order, so that they
are the residuals of that product bit for bit.  Exact readers stream
rows one at a time through `_failing_rows`, keeping nothing after a row:
it reads the generators once as sparse rows, {column: value} of their
nonzero entries, forms each word and linear term on them with every zero
dropped, and compares left against right plus linear as sparse rows,
which are equal exactly when the matrices are.  Its readers are
`check_relations` on an exact module, on `_coxeter_rows` the S_m oracle
at (a, b) = (0, L^2) and the finite-relations report (on
`FiniteHeckeElement`s, with their own product), on `_recursion_rows` the
Speh certificate.  The induced generators have a few nonzeros k a row,
so a product takes about d k^2 steps, where a dense one scanned a row of
d entries for each nonzero, d^2 k: the rank-6 principal series check
(d = 720) takes 5-8 s, nearly all of it `QRational` products, where
dense products took 16-21 s, on two cores.

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

import functools
from itertools import compress
from math import isfinite

import numpy as np

from .combinatorics import min_coset_reps
from .linalg import _nested, intersect_kernels, kernel_subspace, mat_mul, zeros

__all__ = [
    "NUMERIC_TOL",
    "Module",
    "check_relations",
    "induce",
    "tail_kernel",
    "derivative",
    "split",
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
    families (`families`, in the order of `_relation_table`) and gives
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
                if len(g) != dim or not {*map(len, g)} <= {dim}:
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


def _relation_table(n: int) -> tuple:
    """The relations of rank n as data, one row (family, left, right,
    linear) per relation, family by family: family indexes
    `Module.families`; left and right are words in the stack
    [s_1..s_{n-1}, x_1..x_n] of the generators, tuples of stack indices
    (the empty word is 0); linear is None or (i, sign, pair), the term
    sign (c g_i + c' 1) with (c, c') = (a, b) at pair 0 and
    (gamma, delta) at pair 1.  A row holds when left = right + linear."""
    def s(j):
        return j - 1

    def x(k):
        return n - 2 + k

    rows = [(0, (s(j), s(j)), (), (s(j), 1, 0)) for j in range(1, n)]
    rows += [(1, (s(j), s(j + 1), s(j)), (s(j + 1), s(j), s(j + 1)), None)
             for j in range(1, n - 1)]
    rows += [(2, (s(j), s(k)), (s(k), s(j)), None)
             for j in range(1, n) for k in range(j + 2, n)]
    rows += [(3, (x(k), x(l)), (x(l), x(k)), None)
             for k in range(1, n + 1) for l in range(k + 1, n + 1)]
    rows += [(4, (x(k), s(j)), (s(j), x(k)), None)
             for j in range(1, n) for k in range(1, n + 1)
             if k not in (j, j + 1)]
    for j in range(1, n):
        rows += [(5, (x(j), s(j)), (s(j), x(j + 1)), (x(j), 1, 1)),
                 (5, (x(j + 1), s(j)), (s(j), x(j)), (x(j), -1, 1))]
    return tuple(rows)


@functools.cache
def _coxeter_rows(n: int) -> tuple:
    """The rows of `_relation_table(n)` in s alone: its first three
    families, the quadratic relations, braids and distant commutes."""
    return tuple(row for row in _relation_table(n) if row[0] < 3)


@functools.cache
def _recursion_rows(n: int) -> tuple:
    """The rows x_{j+1} s_j = s_j x_j - c_j of `_relation_table(n)`."""
    return tuple(r for r in _relation_table(n) if r[0] == 5 and r[3][1] < 0)


def check_relations(M: Module, tol: float = 1e-8) -> dict:
    """Every relation family on M, read off `_relation_table(M.n)`: an
    exact module's relations must hold exactly (the rows that fail are
    counted per family), a numeric one's residuals left - right - linear
    must stay within tol times the scale of its generators, their
    largest entry in max-abs or 1 if that is smaller, as a residual's
    rounding grows with its operands; a NaN residual or a non-finite
    scale fails.  "worst" is the largest residual itself.
    Returns {"families": {name: ...}, "pass": bool, "worst": float}."""
    if M.param is None:
        bad = [0] * len(M.families)
        for row in _failing_rows(M.s + M.x, M.constants(),
                                 _relation_table(M.n)):
            bad[row[0]] += 1
        families = {name: {"nonzero": k} for name, k in zip(M.families, bad)}
        return {"families": families, "pass": not any(bad), "worst": 0.0}
    residuals, scale = _residuals(M)
    # np.max, unlike max, keeps a NaN wherever it sits
    worst = float(np.max(residuals))
    return {"families": {name: {"residual": r}
                         for name, r in zip(M.families, residuals)},
            "pass": bool(isfinite(scale) and worst <= tol * max(1.0, scale)),
            "worst": worst}


def _failing_rows(gens: list, consts: tuple, rows, mul=None, plus=None):
    """Yield each of rows, rows of `_relation_table`, that fails on the
    exact generator stack gens at consts, (a, b, gamma, delta) or (a, b)
    for rows in s alone, one row at a time.  Left and right are `_word`
    products, plus(R, g, c, c') adds the linear term c g + c' 1 to right
    (R is None for the empty word), and a row holds when the two sides
    are equal.  The stack is read once as sparse rows (`_sparse`), each
    product is `_sparse_mul` and the linear term `_sparse_plus`, all of
    them with every zero entry dropped, so that equal rows mean equal
    matrices; other ring elements, such as `FiniteHeckeElement`, bring
    their own mul and plus."""
    if mul is None:
        gens, mul, plus = list(map(_sparse, gens)), _sparse_mul, _sparse_plus
    for row in rows:
        _, left, right, linear = row
        memo: dict = {}
        R = _word(gens, right, mul, memo) if right else None
        if linear:
            i, sign, pair = linear
            R = plus(R, gens[i], sign * consts[2 * pair],
                     sign * consts[2 * pair + 1])
        if _word(gens, left, mul, memo) != R:
            yield row


def _sparse(g: list[list]) -> list[dict]:
    """The rows of the square matrix g as {column: value} of their
    nonzero entries."""
    cols = range(len(g))
    return [{c: row[c] for c in compress(cols, row)} for row in g]


def _sparse_mul(A: list[dict], B: list[dict]) -> list[dict]:
    """A*B on sparse rows, a new value with no zero entry: the first
    product that lands on a column is stored as it is, and an entry that
    cancels to 0 is dropped (a row is filtered only if `all` finds one)."""
    out = []
    for Ai in A:
        acc: dict = {}
        for k, a in Ai.items():
            for j, b in B[k].items():
                acc[j] = acc[j] + a * b if j in acc else a * b
        out.append(acc if all(acc.values())
                   else {j: v for j, v in acc.items() if v})
    return out


def _sparse_plus(R, g: list[dict], c, c1) -> list[dict]:
    """R + c g + c1 1 on sparse rows (R None for 0), a new value with no
    zero entry."""
    out = []
    for r, row in enumerate(g):
        acc = {} if R is None else dict(R[r])
        if c:
            for j, v in row.items():
                acc[j] = acc[j] + c * v if j in acc else c * v
        if c1:
            acc[r] = acc[r] + c1 if r in acc else c1
        out.append(acc if all(acc.values())
                   else {j: v for j, v in acc.items() if v})
    return out


def _word(gens: list, word: tuple, mul, memo: dict):
    """The product of a nonempty word: its prefix times its last letter
    if memo holds the prefix, else its first letter times its suffix,
    which memo then holds, so that a braid's sides h (g h) and (g h) g
    share g h.  A word of two or more letters gives a new value."""
    if len(word) == 1:
        return gens[word[0]]
    if word[:-1] in memo:
        return mul(memo[word[:-1]], gens[word[-1]])
    memo[word[1:]] = tail = _word(gens, word[1:], mul, memo)
    return mul(gens[word[0]], tail)


@functools.cache
def _stacked_table(n: int) -> tuple:
    """`_relation_table(n)` as index arrays for `_residuals`: for each
    letter t = 0, 1, ... from the right, the letters there of the
    distinct nonempty words that long, longest words first; each row's
    left and right word (the empty word indexes the zero block past the
    last word); the rows with a linear term, with its generator, sign
    and pair; and the families that have rows, with the first row of
    each."""
    rows = _relation_table(n)
    words = sorted(dict.fromkeys(w for row in rows for w in row[1:3] if w),
                   key=len, reverse=True)
    index = {w: i for i, w in enumerate(words)}
    index[()] = len(words)
    letters = [np.array([w[-1 - t] for w in words if len(w) > t], int)
               for t in range(max(map(len, words), default=0))]
    linear = np.array([(r, *row[3]) for r, row in enumerate(rows) if row[3]],
                      int).reshape(-1, 4)
    families, starts = np.unique([row[0] for row in rows], return_index=True)
    return (letters, np.array([index[row[1]] for row in rows], int),
            np.array([index[row[2]] for row in rows], int),
            tuple(linear.T), families.tolist(), starts)


def _residuals(M: Module) -> tuple[list[float], float]:
    """Each family's largest |entry| of left - right - linear over its
    rows (0.0 for none), from one float stack of the generators, and the
    scale, the stack's largest |entry| (0.0 for none); NaN wherever a
    NaN enters.  Every product is `_product`, so that each residual is
    the one `linalg.mat_mul` on the floats gives, bit for bit."""
    letters, left, right, linear, families, starts = _stacked_table(M.n)
    d = M.dim
    G = np.array(M.s + M.x, dtype=float)
    scale = float(np.abs(G).max()) if G.size else 0.0
    residuals = [0.0] * len(M.families)
    if not (d and families):
        return residuals, scale
    G = G.reshape(-1, d, d)
    rows, gen, sign, pair = linear
    # sign (c, c') for each linear row, (c, c') = (a, b) or (gamma, delta)
    coef = sign[:, None] * np.array(M.constants(), float).reshape(2, 2)[pair]
    P = np.zeros((len(letters[0]) + 1, d, d))
    P[:-1] = G[letters[0]]
    # an inf or NaN entry gives NaN or inf residuals, and no warning
    with np.errstate(invalid="ignore", over="ignore"):
        for at in letters[1:]:
            P[:len(at)] = _product(G[at], P[:len(at)])
        R = P[left] - P[right]
        R[rows] -= (coef[:, 0, None, None] * G[gen]
                    + coef[:, 1, None, None] * np.eye(d))
    row_max = np.abs(R).max(axis=(1, 2))
    for f, r in zip(families, np.maximum.reduceat(row_max, starts).tolist()):
        residuals[f] = r
    return residuals, scale


def _product(A, B):
    """The products of two stacks of d x d matrices, summed over the
    inner index one step at a time in `linalg.mat_mul`'s order, with no
    fused multiply-add or blocked sum (as `@` and einsum may use) to
    move the last bits."""
    out = np.zeros(A.shape)
    for k in range(A.shape[-1]):
        out += A[:, :, k, None] * B[:, k, None, :]
    return out


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
        return intersect_kernels((_shift(g, 1) for g in tail), d)
    if not tail:
        return _OrthonormalSpan(np.eye(d))
    _, sv, vt = np.linalg.svd(
        np.vstack([np.array(g, dtype=float) + np.eye(d) for g in tail]))
    return _OrthonormalSpan(vt[svd_rank(sv):].T)


def _shift(g: list[list], c) -> list[list]:
    """g + c, a copy of g with c added on the diagonal only."""
    h = [list(row) for row in g]
    for r, row in enumerate(h):
        row[r] += c
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


def split(V, A: list[list], lam):
    """The generalized lam-eigenspace of the exact A inside the A-invariant
    `Subspace` V, in canonical form (`linalg._nested`): the kernel of
    (A - lam)^s, s grown until one more factor leaves it unchanged, on the
    verified `V.restrict(A)`, as the rule holds only where A preserves V."""
    D = _shift(A if V.dim == len(A) else V.restrict(A), -lam)
    P, K, last = D, kernel_subspace(D, ncols=V.dim), 0
    while last < K.dim < V.dim:
        P, last = mat_mul(P, D), K.dim
        K = kernel_subspace(P, ncols=V.dim)
    return _nested(V, K)


def svd_rank(sv) -> int:
    """Numeric rank from singular values in decreasing order: those above
    NUMERIC_TOL times the largest one (or 1, if that is larger)."""
    scale = max(float(sv[0]) if len(sv) else 1.0, 1.0)
    return int(sum(1 for v in sv if v > NUMERIC_TOL * scale))
