"""Numeric correspondence between graded and affine modules.

A graded module at parameter p with q0 = e^p maps to an affine module by

    Theta_k  = exp(E_k),
    T_j + 1  = (t_j + 1) * Fc(E_j - E_{j+1}),

with Fc(x) = [x / (e^x - 1)] * [(q0 e^x - 1) / (x + p)] = E(x + p) / E(x),
where E(y) = (e^y - 1)/y is entire and positive on the real line: the
apparent poles at 0 and -p are no special points.  A matrix function is
S diag(f(w)) S^-1 over the eigendecomposition A = S diag(w) S^-1 of a
diagonalizable A with a numerically real spectrum; an eigenvector
matrix too ill-conditioned for cluster_tol is refused as possibly
defective.  A diagonal A is its own eigendecomposition (S = I), so its
f(A) is diag(f(a_kk)) in closed form.

`bridge_bz_compare` runs the two routes around the square: derivative of
the transported module against transport of the derivative, compared
through conjugation invariants (dimensions, generator spectra,
characteristic polynomials, all from one stacked eigendecomposition of
the generators of both routes), plus the exp-compatibility of the theta
spectra with the E spectra (`theta_spectrum_check`).  At orders 0 and 1
both routes hold the same matrices (below), so there the compare checks
a module against itself and reports every pair as `shared`; the
independent checks at those orders are the affine relations of the
transport (`affine.modules.verify_relations`) and
`theta_spectrum_check`.

A transport is computed once per (module, cluster_tol) and shared: the
module keeps it (`module_core.Module`), so a sweep of
`bridge_bz_compare` over every order transports the module itself once.
An order-1 derivative, its parent's front on the parent's space, takes
the front of the parent's transport: the same floats, computed once.
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
    "lambda_functor",
    "theta_spectrum_check",
    "bridge_bz_compare",
]

_REAL_TOL = 1e-8


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


def _check_condition(cond: float, cluster_tol: float) -> None:
    if cond * cluster_tol > 1.0:
        raise ArithmeticError(
            f"matrix is not safely diagonalizable (eigenvector "
            f"condition estimate {cond:.3e} at cluster_tol "
            f"{cluster_tol:g})")


def _finite_diagonal(A: np.ndarray):
    """The diagonal of a square A whose off-diagonal entries are all
    exactly 0 and whose diagonal entries are all finite, else None."""
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        return None
    d = A.diagonal()
    if np.count_nonzero(A) != np.count_nonzero(d) or \
            not np.isfinite(d).all():
        return None
    return d


def matrix_function(A, f, cluster_tol: float = 1e-9) -> np.ndarray:
    """f(A) = S diag(f(w)) S^-1 for a diagonalizable A = S diag(w) S^-1
    with a real spectrum, f a scalar function of one real eigenvalue.

    An eigenvalue off the real line (`_real_part`) raises
    ArithmeticError, as does an eigenvector matrix S too ill-conditioned
    to tell from a non-diagonalizable one (1-norm condition estimate
    times cluster_tol above 1, a Jordan block for instance).
    cluster_tol = 0 turns that guard off; a NaN, negative or infinite
    one raises ValueError.

    A diagonal A with finite entries has S = I, condition estimate 1 and
    a real spectrum, so f(A) = diag(f(a_kk)) is computed as such, with
    no eig or inv: the same floats as the eigendecomposition's."""
    _check_cluster_tol(cluster_tol)
    A = np.asarray(A, dtype=float)
    if A.size == 0:
        return A.copy()
    d = _finite_diagonal(A)
    if d is not None:
        if len(d) > 1:
            _check_condition(1.0, cluster_tol)
        return np.diag([f(float(v)) for v in d])
    w, S = np.linalg.eig(A)
    w = _real_part(w)
    S_inv = np.linalg.inv(S)
    # a 1 x 1 eigenvector matrix is [[1.0]], so only larger ones are checked
    if len(w) > 1:
        _check_condition(_norm1(S) * _norm1(S_inv), cluster_tol)
    # near-real conjugate eigenvalues share their real part, so f gives
    # them one value: F is real up to rounding
    F = S @ np.diag([f(float(v)) for v in w]) @ S_inv
    resid = float(np.abs(F.imag).max())
    if resid > 1e-8 * max(1.0, float(np.abs(F.real).max())):
        raise ArithmeticError(
            f"matrix function came out non-real ({resid:.3e})")
    return F.real


def lambda_functor(G: GradedModule, cluster_tol: float = 1e-9
                   ) -> FinDimAffineModule:
    """Transport a pinned graded module (`graded.pin`) to an affine one:
    exp on the E's, the Fc twist on the transpositions.  q0 = e^{p0}.

    The transport is computed once per (G, cluster_tol): G keeps it,
    and later calls return that same module.  An order-1 derivative
    takes its parent's transport's front."""
    if G.param is None:
        raise ValueError("the transport is numeric; pin the module "
                         "first (graded.pin)")
    # checked here as well: a rank-0 transport calls no matrix_function,
    # and a bad cluster_tol must not be accepted or stored as a key
    _check_cluster_tol(cluster_tol)
    return G._memoized(("lambda", cluster_tol),
                       lambda: _transport(G, cluster_tol))


def _transport(G: GradedModule, cluster_tol: float) -> FinDimAffineModule:
    if G.meta.get("tail") == 1:
        # G is its parent's front: Theta_k reads E_k alone and T_j reads
        # t_j, E_j and E_{j+1}, so G's transport is the parent's front
        return bz_derivative(lambda_functor(G.meta["parent"], cluster_tol),
                             1)
    p0 = float(G.param)
    n, dim = G.n, G.dim
    eye = np.eye(dim)
    jm = [np.asarray(E, dtype=float) for E in G.x]
    theta = [matrix_function(E, exp, cluster_tol) for E in jm]
    tee = []
    for j in range(n - 1):
        g = np.asarray(G.s[j], dtype=float)
        twist = matrix_function(jm[j] - jm[j + 1],
                                lambda x: fc_value(x, p0), cluster_tol)
        tee.append((g + eye) @ twist - eye)
    # no meta["parent"] back to G: G holds the transport, and a cycle
    # would leave every transported derivative to the cyclic collector
    return FinDimAffineModule(
        n, dim,
        [m.tolist() for m in tee],
        [m.tolist() for m in theta],
        exp(p0))


def _real_part(w) -> np.ndarray:
    """w.real, where each spectrum in w (the last axis: one matrix's
    eigenvalues) must be real up to _REAL_TOL relative to its own largest
    eigenvalue."""
    if w.size and np.any(np.abs(w.imag).max(axis=-1) > _REAL_TOL
                         * np.maximum(1.0, np.abs(w).max(axis=-1))):
        raise ArithmeticError("spectrum is not numerically real")
    return w.real


def _spectra(mats, dim: int) -> list[np.ndarray]:
    """The eigenvalues of each dim x dim matrix in mats, from one
    np.linalg.eigvals on their stack, each spectrum checked real on its
    own (`_real_part`)."""
    if not mats:
        return []
    W = np.linalg.eigvals(np.array(mats, dtype=float).reshape(
        len(mats), dim, dim))
    _real_part(W)
    return list(W)


def _sorted_real(w) -> list[float]:
    return sorted(float(v) for v in w.real)


def theta_spectrum_check(G: GradedModule, A: FinDimAffineModule,
                         tol: float = 1e-10) -> dict:
    """Spectra of the transported thetas against exp of the E spectra,
    generator by generator, for a pinned G and a numeric A of its shape."""
    if G.param is None or A.param is None:
        raise ValueError("the check is numeric: G must be pinned and A "
                         "have float entries")
    if (G.n, G.dim) != (A.n, A.dim):
        raise ValueError(f"G has rank and dimension {G.n, G.dim}, "
                         f"A has {A.n, A.dim}")
    worst = 0.0
    for wa, wg in zip(_spectra(A.x, A.dim), _spectra(G.x, G.dim)):
        want = sorted(exp(v) for v in _sorted_real(wg))
        for a, b in zip(_sorted_real(wa), want):
            worst = max(worst, abs(a - b) / max(1.0, abs(b)))
    return {"worst": worst, "pass": bool(worst <= tol)}


def bridge_bz_compare(G: GradedModule, i: int, tol: float = 1e-6,
                      cluster_tol: float = 1e-9) -> dict:
    """Both routes around the square: bz(transport(G), i) against
    transport(g_bz(G, i)), compared by dimension and by conjugation
    invariants of every generator: its sorted spectrum and its
    characteristic polynomial, np.poly of those same eigenvalues (what
    np.poly of the matrix computes, without a second eigvals).

    `shared` counts the generator pairs that both routes hold as one
    matrix, every pair at orders 0 and 1: such a pair adds 0 to `worst`
    and its spectrum is only checked real."""
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
        report["shared"] = 0
        return report
    right = lambda_functor(Dg, cluster_tol)
    gens, others = left.s + left.x, right.s + right.x
    unshared = [k for k, (gl, gr) in enumerate(zip(gens, others))
                if gl is not gr]
    spectra = _spectra(gens + [others[k] for k in unshared], Dg.dim)
    worst = 0.0
    for k, wr in zip(unshared, spectra[len(gens):]):
        wl = spectra[k]
        for a, b in zip(_sorted_real(wl), _sorted_real(wr)):
            worst = max(worst, abs(a - b) / max(1.0, abs(b)))
        for a, b in zip(map(float, np.poly(wl)), map(float, np.poly(wr))):
            worst = max(worst, abs(a - b) / max(1.0, abs(b)))
    report["worst"] = worst
    report["shared"] = len(gens) - len(unshared)
    report["pass"] = bool(worst <= tol)
    return report
