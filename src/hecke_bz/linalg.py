"""Exact dense linear algebra over any of the package's scalar fields.

Matrices are lists of row lists whose entries are exact field scalars
(int and Fraction, or QRational).  The integer 0 is a valid zero entry: every
scalar type coerces ints on the left and right, and truth-testing is the
zero test.  Two kernels, `mat_mul` and `rref`, carry every exact
computation in the package; everything else here is derived from them.

Subspaces are always carried as a `Subspace`: a dim x k basis matrix in
reduced column echelon form together with its pivot rows, so that
B[pivot_rows, :] is the k x k identity.  Restricting an operator that
preserves the subspace is then a sparse application plus a row selection,
never a dense solve.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress

__all__ = [
    "mat_mul",
    "rref",
    "identity",
    "zeros",
    "transpose",
    "mat_add",
    "mat_sub",
    "mat_scale",
    "mat_eq",
    "kernel_subspace",
    "column_space",
    "Subspace",
    "full_space",
    "intersect_kernels",
    "restrict_operator",
]

# One pure-Python implementation; `perfbench/worker.py` still prints this.
BACKEND = "py"


def mat_mul(A, B):
    """Dense product A*B on the nonzero entries only (seminormal and Hecke
    generator matrices are very sparse, so the skip is load-bearing):
    each row of B that a nonzero entry of A reaches is read once per
    call, as the (column, value) pairs of its nonzero entries, and each
    row of A walks its nonzero entries only.  Each entry sums its
    products in increasing inner index; the first to land on an entry
    that is the int 0 is stored as it is, as 0 + v would give the same
    value and type at the cost of a full addition (a float -0.0 stays
    -0.0, equal to the 0.0 of 0 + -0.0).  An entry that cancelled to a
    zero of another type, Fraction(0) or a zero QRational, takes the
    addition: Fraction(0) + 3 is a Fraction."""
    n = len(A)
    inner = len(B)
    m = len(B[0]) if inner else 0
    if not ({*map(len, A)} <= {inner} and {*map(len, B)} <= {m}):
        raise ValueError(f"cannot multiply a {_shape(A)} matrix "
                         f"by a {_shape(B)} matrix")
    zero = 0    # the int 0 the entries start as; `is` finds it in one step
    out = [[0] * m for _ in range(n)]
    ks, cols = range(inner), range(m)
    rows: list = [None] * inner     # B[k]'s nonzero (j, b), once read
    for i in range(n):
        Ai = A[i]
        Oi = out[i]
        for k in compress(ks, Ai):
            a = Ai[k]
            Bk = rows[k]
            if Bk is None:
                js = [*compress(cols, B[k])]
                Bk = rows[k] = [*zip(js, map(B[k].__getitem__, js))]
            for j, b in Bk:
                c = Oi[j]
                Oi[j] = a * b if c is zero else c + a * b
    return out


def rref(A):
    """Reduced row echelon form with leftmost-pivot tie-breaking.

    Returns (R, pivots) where pivots lists the pivot column of each
    nonzero row of R in order.  A is not modified.  An int pivot is
    divided out as a Fraction, so int matrices stay exact.  Eliminating
    into an entry that is the int 0 negates the product, the value and
    type 0 - v would give, without the subtraction.
    """
    R = [list(row) for row in A]
    nrows = len(R)
    ncols = len(R[0]) if nrows else 0
    pivots = []
    zero = 0
    r = 0
    for c in range(ncols):
        pr = -1
        for i in range(r, nrows):
            if R[i][c]:
                pr = i
                break
        if pr < 0:
            continue
        if pr != r:
            R[r], R[pr] = R[pr], R[r]
        lead = R[r][c]
        if lead != 1:
            if type(lead) is int:
                lead = Fraction(lead)
            Rr = R[r]
            for j in range(c, ncols):
                if Rr[j]:
                    Rr[j] = Rr[j] / lead
        Rr = R[r]
        for i in range(nrows):
            if i != r:
                f = R[i][c]
                if f:
                    Ri = R[i]
                    for j in range(c, ncols):
                        v = Rr[j]
                        if v:
                            e = Ri[j]
                            Ri[j] = -(f * v) if e is zero else e - f * v
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return R, pivots


def identity(n: int) -> list[list]:
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        out[i][i] = 1
    return out


def zeros(nrows: int, ncols: int) -> list[list]:
    return [[0] * ncols for _ in range(nrows)]


def transpose(A: list[list]) -> list[list]:
    return [list(col) for col in zip(*A)] if A else []


def _shape(A) -> str:
    """"rows x columns" of A for messages; a ragged A lists its row
    lengths ("2 x 2/1")."""
    return f"{len(A)} x " + "/".join(map(str, sorted({*map(len, A)}) or [0]))


def _check_same_shape(A, B, verb: str) -> None:
    if [*map(len, A)] != [*map(len, B)]:
        raise ValueError(f"cannot {verb} a {_shape(A)} matrix and a "
                         f"{_shape(B)} matrix")


def mat_add(A, B):
    _check_same_shape(A, B, "add")
    return [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_sub(A, B):
    _check_same_shape(A, B, "subtract")
    return [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_scale(c, A):
    return [[c * a for a in row] for row in A]


def mat_eq(A, B) -> bool:
    """A == B entry by entry; matrices of different shapes are unequal.
    Rows are compared as lists, in C, which checks each row's length
    before its entries and does not ask an entry that is its partner
    (no exact scalar differs from itself)."""
    return len(A) == len(B) and all(ra == rb for ra, rb in zip(A, B))


def kernel_subspace(A: list[list], ncols: int | None = None) -> "Subspace":
    """{v : A v = 0} as a Subspace (canonical rref kernel basis; the unit
    rows are the free columns of A, in increasing order)."""
    if ncols is None:
        ncols = len(A[0]) if A else 0
    R, pivots = rref(A)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = zeros(ncols, len(free))
    for j, fc in enumerate(free):
        basis[fc][j] = 1
        for i, pc in enumerate(pivots):
            v = R[i][fc]
            if v:
                basis[pc][j] = -v
    return Subspace(basis, free)


def column_space(A: list[list]) -> tuple[list[list], list[int]]:
    """Basis of the column space of A, as (B, pivot_rows) with B a
    (nrows x rank) matrix in reduced column echelon form and
    B[pivot_rows, :] the identity.  Leftmost-pivot tie-breaking."""
    R, pivots = rref(transpose(A))
    rank = len(pivots)
    B = [[R[i][r] for i in range(rank)] for r in range(len(A))]
    return B, list(pivots)


class Subspace:
    """An embedded subspace: basis matrix in reduced column echelon form.

    dim is the dimension of the subspace.  The pivot rows identify the
    coordinates in which the basis is the identity, so the subspace
    coordinates of a vector known to lie in the subspace are a row
    selection, which is how `restrict` reads off an operator.
    """

    __slots__ = ("basis", "pivot_rows", "dim")

    def __init__(self, basis: list[list], pivot_rows: list[int]):
        self.basis = basis
        self.pivot_rows = pivot_rows
        self.dim = len(pivot_rows)

    def restrict(self, M: list[list]) -> list[list]:
        """Matrix of the operator M on the subspace, verifying that M maps
        the subspace into itself."""
        return restrict_operator(M, self)


def full_space(n: int) -> Subspace:
    return Subspace(identity(n), list(range(n)))


def intersect_kernels(mats, dim: int) -> Subspace:
    """Subspace {v : M v = 0 for all M in mats} of Q^dim (or Q(q)^dim),
    in canonical form; no matrices give the full space.

    The kernels are intersected one matrix at a time: V starts as the
    kernel of the first matrix, and each further M cuts V down to
    `_nested(V, K)`, V.basis * K, with K the kernel of M * V.basis in
    V's coordinates.  mats may be an iterator; none is read once V is 0.
    The result is the one `kernel_subspace` gives for all the matrices
    stacked, entry for entry (of int matrices, an entry the stacked rref
    kept as an int may come out as the equal Fraction)."""
    V = None
    for M in mats:
        if V is None:
            V = kernel_subspace(M, ncols=dim)
        else:
            V = _nested(V, kernel_subspace(mat_mul(M, V.basis), ncols=V.dim))
        if not V.dim:
            break
    return full_space(dim) if V is None else V


def _nested(V: Subspace, K: Subspace) -> Subspace:
    """V.basis * K in canonical form, for K canonical in V's coordinates
    (V if K is all of them, K if V is the whole space).  A canonical
    basis is the identity at its pivot rows, and each column's last
    nonzero entry sits at its pivot row, the pivot rows increasing with
    the column; so has V.basis * K, at the rows V.pivot_rows[K.pivot_rows]:
    the identity rows of V.basis pick out K's rows there, and V's
    columns, taken with K's coefficients, end where the last one with a
    nonzero coefficient does.  A subspace has only one basis of this
    form, and a zero that cancels in the product is stored as the int 0,
    as `kernel_subspace` stores its zeros."""
    if K.dim == V.dim:
        return V
    if V.dim == len(V.basis):
        return K
    return Subspace([[v if v else 0 for v in row]
                     for row in mat_mul(V.basis, K.basis)],
                    [V.pivot_rows[r] for r in K.pivot_rows])


def restrict_operator(M: list[list], V: Subspace) -> list[list]:
    image = mat_mul(M, V.basis)
    X = [image[r] for r in V.pivot_rows]
    if not mat_eq(mat_mul(V.basis, X), image):
        raise ArithmeticError("subspace is not invariant under the operator")
    return X
