"""Numeric correspondence between graded and affine modules.

A graded module at parameter p with q0 = e^p maps to an affine module by

    Theta_k  = exp(E_k),
    T_j + 1  = (t_j + 1) * Fc(E_j - E_{j+1}),

with the scalar function

    Fc(x) = [x / (e^x - 1)] * [(q0 e^x - 1) / (x + p)].

Both apparent singularities are removable when q0 = e^p:
Fc(0) = (q0 - 1)/p and Fc(-p) = p q0 / (q0 - 1); at the regular point p
the value is (q0 + 1)/2.  Matrix functions are evaluated by clustering
the spectrum, snapping clusters onto the declared singular centers, and
summing the Taylor series of the scalar function around each center (the
series around a removable singularity is taken in closed form, never by
dividing by a vanishing constant term).

`bridge_bz_compare` runs the two routes around the square: derivative of
the transported module against transport of the derivative, compared
through conjugation invariants (dimensions, generator spectra,
characteristic polynomials), plus the exp-compatibility of the theta
spectra with the E spectra.
"""

from __future__ import annotations

from fractions import Fraction
from math import exp, factorial

import numpy as np

from .affine.modules import FinDimAffineModule, bz_derivative
from .graded import GradedModule, g_bz_derivative

__all__ = [
    "bernoulli_numbers",
    "fc_series",
    "fc_value",
    "matrix_function",
    "exp_series",
    "lambda_functor",
    "theta_spectrum_check",
    "bridge_bz_compare",
]


def bernoulli_numbers(m: int) -> list[Fraction]:
    """B_0..B_m with B_1 = -1/2, so x/(e^x - 1) = sum B_t x^t / t!."""
    out = [Fraction(1)]
    for k in range(1, m + 1):
        s = Fraction(0)
        binom = 1
        for j in range(k):
            s += binom * out[j]
            binom = binom * (k + 1 - j) // (j + 1)
        out.append(-s / (k + 1))
    return out


def _series_mul(a: list[float], b: list[float], order: int) -> list[float]:
    out = [0.0] * (order + 1)
    for s, av in enumerate(a[:order + 1]):
        if av:
            for t, bv in enumerate(b[:order + 1 - s]):
                out[s + t] += av * bv
    return out


def _series_div(a: list[float], b: list[float], order: int) -> list[float]:
    if not b[0]:
        raise ZeroDivisionError("series division by a vanishing constant term")
    out = [0.0] * (order + 1)
    for t in range(order + 1):
        acc = a[t] if t < len(a) else 0.0
        for s in range(1, t + 1):
            if s < len(b):
                acc -= b[s] * out[t - s]
        out[t] = acc / b[0]
    return out


def exp_series(center: float, order: int) -> list[float]:
    e = exp(center)
    return [e / factorial(t) for t in range(order + 1)]


def _x_over_expm1_series(order: int) -> list[float]:
    bern = bernoulli_numbers(order)
    return [float(bern[t]) / factorial(t) for t in range(order + 1)]


def _expm1_over_x_series(order: int) -> list[float]:
    return [1.0 / factorial(t + 1) for t in range(order + 1)]


def fc_series(center: float, order: int, p0: float) -> list[float]:
    """Taylor coefficients of Fc around the given center.  The removable
    centers must be passed exactly (0.0 and -p0): those branches use the
    closed-form series instead of dividing by a vanishing term."""
    q0 = exp(p0)
    if center == 0.0:
        g = _x_over_expm1_series(order)
    else:
        num = [center, 1.0] + [0.0] * max(order - 1, 0)
        den = exp_series(center, order)
        den[0] -= 1.0
        g = _series_div(num, den, order)
    if center == -p0:
        h = _expm1_over_x_series(order)
    else:
        num = [q0 * v for v in exp_series(center, order)]
        num[0] -= 1.0
        den = [center + p0, 1.0] + [0.0] * max(order - 1, 0)
        h = _series_div(num, den, order)
    return _series_mul(g, h, order)


def fc_value(x: float, p0: float) -> float:
    return fc_series(x, 0, p0)[0]


def _norm1(M) -> float:
    """The 1-norm (largest absolute column sum), by the ufunc reductions
    themselves: on the small matrices of the transport, ndarray.sum and
    .max cost more than the arithmetic."""
    return float(np.maximum.reduce(np.add.reduce(np.abs(M))))


def matrix_function(A, series_fn, cluster_tol: float = 1e-9,
                    centers: tuple[float, ...] = ()) -> np.ndarray:
    """f(A) for a diagonalizable A: cluster the spectrum at relative
    cluster_tol, snap cluster centers onto any declared center within the
    same tolerance, and evaluate the Taylor series of f around each
    center (order = cluster size + 2) on the eigenvalues.

    A whose eigenvector matrix S is too ill-conditioned to tell from a
    non-diagonalizable one (1-norm condition estimate times cluster_tol
    above 1, a Jordan block for instance) raises ArithmeticError: the
    eigenvalues alone do not determine f(A) there."""
    A = np.asarray(A, dtype=float)
    if A.size == 0:
        return A.copy()
    w, S = np.linalg.eig(A)
    S_inv = np.linalg.inv(S)
    # a 1 x 1 eigenvector matrix is [[1.0]], so only larger ones are checked
    if len(w) > 1:
        cond = _norm1(S) * _norm1(S_inv)
        if cond * cluster_tol > 1.0:
            raise ArithmeticError(
                f"matrix is not safely diagonalizable (eigenvector "
                f"condition estimate {cond:.3e} at cluster_tol "
                f"{cluster_tol:g})")
    scale = max(1.0, float(np.abs(w).max()))
    tol = cluster_tol * scale
    order_idx = np.argsort(w.real, kind="stable")
    clusters: list[list[int]] = []
    for pos in order_idx:
        if clusters and abs(w[pos] - w[clusters[-1][-1]]) <= tol:
            clusters[-1].append(int(pos))
        else:
            clusters.append([int(pos)])
    fw = np.zeros(len(w), dtype=complex)
    for cluster in clusters:
        c = complex(np.mean(w[cluster]))
        if abs(c.imag) <= tol:
            c = complex(c.real)
        for c0 in centers:
            if abs(c - c0) <= tol:
                c = complex(c0)
                break
        coeffs = series_fn(c.real, len(cluster) + 2)
        for pos in cluster:
            u = w[pos] - c
            acc = 0.0 + 0.0j
            upow = 1.0 + 0.0j
            for a in coeffs:
                acc += a * upow
                upow *= u
            fw[pos] = acc
    F = S @ np.diag(fw) @ S_inv
    resid = float(np.abs(F.imag).max())
    if resid > 1e-8 * max(1.0, float(np.abs(F.real).max())):
        raise ArithmeticError(
            f"matrix function came out non-real ({resid:.3e})")
    return F.real


def lambda_functor(G: GradedModule, cluster_tol: float = 1e-9
                   ) -> FinDimAffineModule:
    """Transport a numeric graded module to an affine one: exp on the
    E's, the Fc twist on the transpositions.  q0 = e^{p0}."""
    if G.param is None:
        raise ValueError("the transport is numeric; build the module "
                         "at pinned (p0, kappa0)")
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
        twist = matrix_function(jm[j] - jm[j + 1], fc_fn, cluster_tol,
                                centers=(0.0, -p0))
        tee.append((g + eye) @ twist - eye)
    return FinDimAffineModule(
        n, dim,
        [m.tolist() for m in tee],
        [m.tolist() for m in theta],
        exp(p0), {"parent": G})


def _real_spectrum(mat, tol: float = 1e-8) -> list[float]:
    arr = np.asarray(mat, dtype=float)
    if arr.size == 0:
        return []
    w = np.linalg.eigvals(arr)
    if float(np.abs(w.imag).max()) > tol * max(1.0, float(np.abs(w).max())):
        raise ArithmeticError("spectrum is not numerically real")
    return sorted(float(v) for v in w.real)


def theta_spectrum_check(G: GradedModule, A: FinDimAffineModule,
                         tol: float = 1e-10) -> dict:
    """Spectra of the transported thetas against exp of the E spectra."""
    worst = 0.0
    for k in range(G.n):
        got = _real_spectrum(A.x[k])
        want = sorted(exp(v) for v in _real_spectrum(G.x[k]))
        for a, b in zip(got, want):
            worst = max(worst, abs(a - b) / max(1.0, abs(b)))
    return {"worst": worst, "pass": bool(worst <= tol)}


def _charpoly(mat) -> list[float]:
    arr = np.asarray(mat, dtype=float)
    if arr.size == 0:
        return [1.0]
    return [float(v) for v in np.poly(arr)]


def bridge_bz_compare(G: GradedModule, i: int, tol: float = 1e-6,
                      cluster_tol: float = 1e-9) -> dict:
    """Both routes around the square: bz(transport(G), i) against
    transport(g_bz(G, i)), compared by dimension and by conjugation
    invariants of every generator (sorted spectra and characteristic
    polynomials)."""
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
        sl, sr = _real_spectrum(gl), _real_spectrum(gr)
        for a, b in zip(sl, sr):
            worst = max(worst, abs(a - b) / max(1.0, abs(b)))
        for a, b in zip(_charpoly(gl), _charpoly(gr)):
            worst = max(worst, abs(a - b) / max(1.0, abs(b)))
    report["worst"] = worst
    report["pass"] = bool(worst <= tol)
    return report
