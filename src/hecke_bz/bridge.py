"""Numeric correspondence between graded and affine modules.

A graded module at parameter p with q0 = e^p maps to an affine module by

    Theta_k  = exp(E_k),
    T_j + 1  = (t_j + 1) * Fc(E_j - E_{j+1}),

with Fc(x) = [x / (e^x - 1)] * [(q0 e^x - 1) / (x + p)] = E(x + p) / E(x),
where E(y) = (e^y - 1)/y is entire and positive on the real line: the
apparent poles at 0 and -p are no special points.  Matrix functions are
evaluated on a numerically real spectrum by clustering it and summing
the Taylor series of the scalar function around each cluster's mean.

`bridge_bz_compare` runs the two routes around the square: derivative of
the transported module against transport of the derivative, compared
through conjugation invariants (dimensions, generator spectra,
characteristic polynomials, both from one eigendecomposition per
generator), plus the exp-compatibility of the theta spectra with the E
spectra.

A transport is computed once per (module, cluster_tol) and shared: the
module keeps it (`module_core.Module`), so a sweep of
`bridge_bz_compare` over every order transports the module itself once.
"""

from __future__ import annotations

from math import exp, expm1, factorial

import numpy as np

from .affine.modules import FinDimAffineModule, bz_derivative
from .graded import GradedModule, g_bz_derivative

__all__ = [
    "fc_series",
    "fc_value",
    "matrix_function",
    "exp_series",
    "lambda_functor",
    "theta_spectrum_check",
    "bridge_bz_compare",
]


def exp_series(center: float, order: int) -> list[float]:
    e = exp(center)
    return [e / factorial(t) for t in range(order + 1)]


def _expm1_over_x_series(c: float, order: int) -> list[float]:
    """Taylor coefficients a_0..a_order of E(y) = (e^y - 1)/y around the
    real centre c; a_t = (1/t!) int_0^1 s^t e^{sc} ds > 0."""
    if abs(c) < 1.0:
        # a_t = sum_k C(k+t, t) c^k / (k+t+1)!
        out = []
        for t in range(order + 1):
            term, acc, k = 1.0 / factorial(t + 1), 0.0, 0
            while acc + term != acc:
                acc += term
                k += 1
                term *= c * (k + t) / (k * (k + t + 1))
            out.append(acc)
        return out
    # y E(y) = e^y - 1 gives c a_t = e^c / t! - a_{t-1}
    e = exp(c)
    out = [expm1(c) / c]
    for t in range(1, order + 1):
        out.append((e / factorial(t) - out[-1]) / c)
    return out


def fc_series(center: float, order: int, p0: float) -> list[float]:
    """Taylor coefficients of Fc around any real center: the series
    quotient of E's at center + p0 by E's at center, whose a_0 > 0."""
    a = _expm1_over_x_series(center + p0, order)
    b = _expm1_over_x_series(center, order)
    out: list[float] = []
    for t in range(order + 1):
        acc = a[t]
        for s in range(1, t + 1):
            acc -= b[s] * out[t - s]
        out.append(acc / b[0])
    return out


def fc_value(x: float, p0: float) -> float:
    """Fc(x) at q0 = e^p0, finite at the apparent poles 0 and -p0.

    >>> from math import isclose, log
    >>> p = log(3.0)
    >>> (isclose(fc_value(0.0, p), 2 / p), isclose(fc_value(-p, p), 3 * p / 2),
    ...  isclose(fc_value(p, p), 2.0))
    (True, True, True)
    """
    return fc_series(x, 0, p0)[0]


def _norm1(M) -> float:
    """The 1-norm (largest absolute column sum), by the ufunc reductions
    themselves: on the small matrices of the transport, ndarray.sum and
    .max cost more than the arithmetic."""
    return float(np.maximum.reduce(np.add.reduce(np.abs(M))))


def _check_cluster_tol(cluster_tol: float) -> None:
    # not >=: NaN fails too
    if not 0.0 <= cluster_tol < float("inf"):
        raise ValueError(f"cluster_tol must be finite and >= 0, "
                         f"not {cluster_tol!r}")


def matrix_function(A, series_fn, cluster_tol: float = 1e-9) -> np.ndarray:
    """f(A) for a diagonalizable A with a real spectrum: cluster the
    eigenvalues at relative cluster_tol and sum the Taylor series
    series_fn(center, order) around each cluster's mean, to order
    cluster size + 2.

    An eigenvalue off the real line (`_real_part`) raises
    ArithmeticError, as does an eigenvector matrix S too ill-conditioned
    to tell from a non-diagonalizable one (1-norm condition estimate
    times cluster_tol above 1, a Jordan block for instance).
    cluster_tol = 0 turns that guard off (and clusters only equal
    eigenvalues); a NaN, negative or infinite one raises ValueError."""
    _check_cluster_tol(cluster_tol)
    A = np.asarray(A, dtype=float)
    if A.size == 0:
        return A.copy()
    w, S = np.linalg.eig(A)
    w = _real_part(w)
    S_inv = np.linalg.inv(S)
    # a 1 x 1 eigenvector matrix is [[1.0]], so only larger ones are checked
    if len(w) > 1:
        cond = _norm1(S) * _norm1(S_inv)
        if cond * cluster_tol > 1.0:
            raise ArithmeticError(
                f"matrix is not safely diagonalizable (eigenvector "
                f"condition estimate {cond:.3e} at cluster_tol "
                f"{cluster_tol:g})")
    tol = cluster_tol * max(1.0, float(np.abs(w).max()))
    clusters: list[list[int]] = []
    for pos in np.argsort(w, kind="stable"):
        if clusters and w[pos] - w[clusters[-1][-1]] <= tol:
            clusters[-1].append(int(pos))
        else:
            clusters.append([int(pos)])
    fw = np.zeros(len(w))
    for cluster in clusters:
        c = float(np.mean(w[cluster]))
        coeffs = series_fn(c, len(cluster) + 2)
        for pos in cluster:
            u = float(w[pos]) - c
            acc, upow = 0.0, 1.0
            for a in coeffs:
                acc += a * upow
                upow *= u
            fw[pos] = acc
    # near-real conjugate eigenvalues share a cluster: F is real up to rounding
    F = S @ np.diag(fw) @ S_inv
    resid = float(np.abs(F.imag).max())
    if resid > 1e-8 * max(1.0, float(np.abs(F.real).max())):
        raise ArithmeticError(
            f"matrix function came out non-real ({resid:.3e})")
    return F.real


def lambda_functor(G: GradedModule, cluster_tol: float = 1e-9
                   ) -> FinDimAffineModule:
    """Transport a numeric graded module to an affine one: exp on the
    E's, the Fc twist on the transpositions.  q0 = e^{p0}.

    The transport is computed once per (G, cluster_tol): G keeps it,
    and later calls return that same module."""
    if G.param is None:
        raise ValueError("the transport is numeric; build the module "
                         "at pinned (p0, kappa0)")
    # checked here as well: a rank-0 transport calls no matrix_function,
    # and a bad cluster_tol must not be accepted or stored as a key
    _check_cluster_tol(cluster_tol)
    return G._memoized(("lambda", cluster_tol),
                       lambda: _transport(G, cluster_tol))


def _transport(G: GradedModule, cluster_tol: float) -> FinDimAffineModule:
    p0 = float(G.param)
    n, dim = G.n, G.dim
    eye = np.eye(dim)
    jm = [np.asarray(E, dtype=float) for E in G.x]
    theta = [matrix_function(E, exp_series, cluster_tol) for E in jm]

    def fc_fn(center, order):
        return fc_series(center, order, p0)

    tee = []
    for j in range(n - 1):
        g = np.asarray(G.s[j], dtype=float)
        twist = matrix_function(jm[j] - jm[j + 1], fc_fn, cluster_tol)
        tee.append((g + eye) @ twist - eye)
    # no meta["parent"] back to G: G holds the transport, and a cycle
    # would leave every transported derivative to the cyclic collector
    return FinDimAffineModule(
        n, dim,
        [m.tolist() for m in tee],
        [m.tolist() for m in theta],
        exp(p0))


def _eigvals(mat) -> np.ndarray:
    arr = np.asarray(mat, dtype=float)
    return np.linalg.eigvals(arr) if arr.size else np.zeros(0)


def _real_part(w, tol: float = 1e-8) -> np.ndarray:
    """w.real, where the eigenvalues w must be real up to relative tol."""
    if w.size and float(np.abs(w.imag).max()) > \
            tol * max(1.0, float(np.abs(w).max())):
        raise ArithmeticError("spectrum is not numerically real")
    return w.real


def _real_spectrum(w) -> list[float]:
    """The eigenvalues w sorted, which must be real (`_real_part`)."""
    return sorted(float(v) for v in _real_part(w))


def theta_spectrum_check(G: GradedModule, A: FinDimAffineModule,
                         tol: float = 1e-10) -> dict:
    """Spectra of the transported thetas against exp of the E spectra."""
    worst = 0.0
    for k in range(G.n):
        got = _real_spectrum(_eigvals(A.x[k]))
        want = sorted(exp(v) for v in _real_spectrum(_eigvals(G.x[k])))
        for a, b in zip(got, want):
            worst = max(worst, abs(a - b) / max(1.0, abs(b)))
    return {"worst": worst, "pass": bool(worst <= tol)}


def bridge_bz_compare(G: GradedModule, i: int, tol: float = 1e-6,
                      cluster_tol: float = 1e-9) -> dict:
    """Both routes around the square: bz(transport(G), i) against
    transport(g_bz(G, i)), compared by dimension and by conjugation
    invariants of every generator: its sorted spectrum and its
    characteristic polynomial, np.poly of those same eigenvalues (what
    np.poly of the matrix computes, without a second eigvals)."""
    A = lambda_functor(G, cluster_tol)
    left = bz_derivative(A, i)
    Dg = g_bz_derivative(G, i)
    report: dict = {"i": i, "left_dim": left.dim, "right_dim": Dg.dim}
    if left.dim != Dg.dim:
        report["pass"] = False
        return report
    if Dg.dim == 0:
        report["pass"] = True
        report["worst"] = 0.0
        return report
    right = lambda_functor(Dg, cluster_tol)
    worst = 0.0
    for gl, gr in zip(left.s + left.x, right.s + right.x):
        wl, wr = _eigvals(gl), _eigvals(gr)
        for a, b in zip(_real_spectrum(wl), _real_spectrum(wr)):
            worst = max(worst, abs(a - b) / max(1.0, abs(b)))
        for a, b in zip(map(float, np.poly(wl)), map(float, np.poly(wr))):
            worst = max(worst, abs(a - b) / max(1.0, abs(b)))
    report["worst"] = worst
    report["pass"] = bool(worst <= tol)
    return report
