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
    "is_zero_matrix",
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
    """Dense product A*B, skipping zero entries (seminormal and Hecke
    generator matrices are very sparse, so the skip is load-bearing)."""
    n = len(A)
    inner = len(B)
    m = len(B[0]) if inner else 0
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        Ai = A[i]
        Oi = out[i]
        for k in range(inner):
            a = Ai[k]
            if a:
                Bk = B[k]
                for j in range(m):
                    b = Bk[j]
                    if b:
                        Oi[j] = Oi[j] + a * b
    return out


def rref(A):
    """Reduced row echelon form with leftmost-pivot tie-breaking.

    Returns (R, pivots) where pivots lists the pivot column of each
    nonzero row of R in order.  A is not modified.  An int pivot is
    divided out as a Fraction, so int matrices stay exact.
    """
    R = [list(row) for row in A]
    nrows = len(R)
    ncols = len(R[0]) if nrows else 0
    pivots = []
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
                            Ri[j] = Ri[j] - f * v
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


def mat_add(A, B):
    return [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_sub(A, B):
    return [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_scale(c, A):
    return [[c * a for a in row] for row in A]


def mat_eq(A, B) -> bool:
    if len(A) != len(B):
        return False
    for ra, rb in zip(A, B):
        if len(ra) != len(rb):
            return False
        for a, b in zip(ra, rb):
            if a != b:
                return False
    return True


def is_zero_matrix(A) -> bool:
    return all(not a for row in A for a in row)


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


def intersect_kernels(mats: list[list[list]], dim: int) -> Subspace:
    """Subspace {v : M v = 0 for all M}, returned in canonical form."""
    stacked = [row for M in mats for row in M]
    if not stacked:
        return full_space(dim)
    return kernel_subspace(stacked, ncols=dim)


def restrict_operator(M: list[list], V: Subspace) -> list[list]:
    image = mat_mul(M, V.basis)
    X = [image[r] for r in V.pivot_rows]
    if not mat_eq(mat_mul(V.basis, X), image):
        raise ArithmeticError("subspace is not invariant under the operator")
    return X
