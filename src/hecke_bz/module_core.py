"""The presentation shared by the affine Hecke algebra and its graded
version, and what follows from it alone.

Both algebras of rank n are generated by s_1..s_{n-1} and a commuting
family x_1..x_n subject to

    s_j^2 = a s_j + b,
    s_j s_{j+1} s_j = s_{j+1} s_j s_{j+1},   s_j s_k = s_k s_j (|j-k| > 1),
    x_k x_l = x_l x_k,
    x_k s_j = s_j x_k                        (k not in {j, j+1}),
    x_j s_j - s_j x_{j+1} = c_j,
    x_{j+1} s_j - s_j x_j = -c_j,

and differ only in the constants (Lusztig, J. AMS 2, 1989): the affine
algebra has (s, x) = (T, Theta) and (a, b, c_j) = (q-1, q, (q-1) Theta_j),
the graded one (s, x) = (t, E) and (a, b, c_j) = (0, 1, p).  A module is
the matrices of these generators; its relation families are checked
exactly or to a tolerance, and a derivative restricts the front
generators to a subspace, numerically through an orthonormal basis.
"""

from __future__ import annotations

import numpy as np

from .linalg import (
    identity,
    is_zero_matrix,
    mat_add,
    mat_mul,
    mat_scale,
    mat_sub,
)

__all__ = [
    "NUMERIC_TOL",
    "relation_residuals",
    "check_relations",
    "numeric_restriction",
    "svd_rank",
]

# Relative cut for numeric ranks and invariance residuals.
NUMERIC_TOL = 1e-8


def relation_residuals(s, x, a, b, c, names) -> dict[str, list]:
    """Residual matrices of the six relation families, keyed by `names`
    in the order: quadratic, braid, distant commutation, x commutation,
    far cross relation, near cross relations.  s and x are the generator
    matrices, a and b the quadratic scalars, c[j-1] the matrix c_j."""
    n = len(x)
    quadratic, braid, s_commute, x_commute, cross_far, cross_near = names
    res: dict[str, list] = {name: [] for name in names}
    ident = identity(len(x[0])) if s else []
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
        lhs = mat_sub(mat_mul(x[j - 1], g), mat_mul(g, x[j]))
        res[cross_near].append(mat_sub(lhs, c[j - 1]))
        lhs = mat_sub(mat_mul(x[j], g), mat_mul(g, x[j - 1]))
        res[cross_near].append(mat_add(lhs, c[j - 1]))
    return res


def check_relations(families: dict, exact: bool, tol: float) -> dict:
    """Exact residuals must vanish (nonzero matrices are counted per
    family), numeric ones must stay within tol in max-abs.
    Returns {"families": {name: ...}, "pass": bool, "worst": float}."""
    report: dict = {"families": {}}
    worst = 0.0
    ok = True
    for name, mats in families.items():
        if exact:
            bad = sum(0 if is_zero_matrix(r) else 1 for r in mats)
            report["families"][name] = {"nonzero": bad}
            ok = ok and bad == 0
        else:
            r = max((abs(v) for m in mats for row in m for v in row),
                    default=0.0)
            report["families"][name] = {"residual": r}
            worst = max(worst, r)
    if not exact:
        ok = worst <= tol
    report["pass"] = bool(ok)
    report["worst"] = worst
    return report


def numeric_restriction(B, s, x, m: int) -> tuple[list, list]:
    """The front generators s_1..s_{m-1} and x_1..x_m on the span of the
    orthonormal columns of B, as B^T A B; each must leave the span
    invariant up to NUMERIC_TOL relative to its largest entry."""
    width = B.shape[1]

    def restrict(A):
        A = np.array(A, dtype=float)
        X = B.T @ (A @ B)
        resid = float(np.abs(A @ B - B @ X).max()) if width else 0.0
        if resid > NUMERIC_TOL * max(1.0, float(np.abs(A).max())):
            raise ArithmeticError(
                f"subspace is not numerically invariant ({resid:.3e})")
        return X.tolist()

    return ([restrict(s[j]) for j in range(m - 1)],
            [restrict(x[l]) for l in range(m)])


def svd_rank(sv) -> int:
    """Numeric rank from singular values in decreasing order: those above
    NUMERIC_TOL times the largest one (or 1, if that is larger)."""
    scale = max(float(sv[0]) if len(sv) else 1.0, 1.0)
    return int(sum(1 for v in sv if v > NUMERIC_TOL * scale))
