"""Second routes that only the tests use.

Each function here rebuilds an object the package computes another way,
so that a test can compare the two:

* `sign_projector_tail` is the tail sign projector as an affine element;
  its image is the derivative's tail kernel (`module_core.tail_kernel`).
* `generic_guard` rejects characters outside the generic regime; the
  sweeps that assume generic characters assert it on their inputs.
* `cycle_type` reads a permutation's conjugacy class directly; it is the
  reference for `combinatorics.class_word`.
* `perm_matrix` is s_w on a module, the product of its s matrices
  along a reduced word of w.
* `act` is the matrix of an affine element on an exact module, built
  from `theta_weight` (Theta powers, inverses by `mat_inverse`) and
  `perm_matrix`; it puts `sign_projector_tail` on a module, and its
  products check the module against the element product.
* `assert_canonical` checks a `QRational`'s canonical form on its tuples,
  not through the `QRational._reduce` that builds it, and its value at
  rational points against Fraction arithmetic on the operands.
* `graded_char` is the rank-1 graded character, built as a bare
  `GradedModule`; induced from several, it gives graded principal series
  that are not Speh modules.
* `stacked_kernel` is the joint kernel of several matrices by one row
  reduction of all of them stacked; `linalg.intersect_kernels` reaches
  the same canonical basis one matrix at a time.
* `central_block_powers` is a central block as the joint kernel, over
  the whole space, of the stabilized powers (E_j - e_j)^s of the
  E_j = e_j(Theta); `affine.modules.central_block` splits each E_j only
  inside the block the earlier ones left.
* `is_zero_matrix` tests a residual matrix for all-zero entries, and
  `assert_same_subspace` two subspaces for the same canonical basis.
* `textbook_mat_mul` and `textbook_rref` are the two exact kernels with
  every step the full operation: each entry of a product is the int 0
  plus its products in increasing inner index, and each elimination
  step into an entry is e - f v; `linalg.mat_mul` and `linalg.rref`
  store or negate the product where e is the int 0.
* `entrywise_lift` is the lift of rational matrices to integers entry
  by entry, the lcm L of every entry's denominator, zeros included, and
  every entry scaled to an int; `symgroup._scaled` reads only the
  nonzero entries after one pass over each matrix.
* `relation_residuals` writes each relation family out by hand as
  dense residual matrices, left - right - linear; `check_relations`
  reads the same relations off one table, by stacked float products or
  one exact row at a time.
* `poly_finite_product`, `poly_multiply`, `poly_oracle_apply` and
  `poly_antispherical_apply` are the four Hecke-word loops with every
  coefficient an integer polynomial held as an int tuple and added and
  multiplied coefficient by coefficient; the package carries the same
  polynomials Kronecker-packed into single ints (`scalars._width`).
"""

import functools
import itertools
import operator
from fractions import Fraction
from math import gcd, lcm

from hecke_bz.affine import AffineElement
from hecke_bz.affine.elements import _swap
from hecke_bz.combinatorics import Permutation, reduced_word
from hecke_bz.finite_hecke import (
    FiniteHeckeElement,
    _coerce,
    _s_left,
    sign_projector,
)
from hecke_bz.graded import GradedModule
from hecke_bz.linalg import (
    full_space,
    identity,
    kernel_subspace,
    mat_add,
    mat_mul,
    mat_scale,
    mat_sub,
    rref,
    zeros,
)
from hecke_bz.scalars import (
    _IONE,
    QRational,
    _lift,
    _padd,
    _pgcd,
    _pmul,
    _pneg,
    specialize,
)

_Q = QRational.gen()

# where assert_canonical compares values; no test scalar has a pole here
POINTS = (Fraction(101, 7), Fraction(-37, 11), Fraction(53, 97))


def at(x):
    """x as a function of the point q = t, in Fraction arithmetic."""
    return lambda t: specialize(x, t)


def assert_canonical(x, value=None) -> None:
    """x is a QRational in canonical form: trimmed int tuples, a den with
    positive lead, num and den coprime in Q[q] (`_pgcd` is 1) and with
    integer content 1, and den 1 the shared `_IONE` tuple.  value, if
    given, maps a Fraction t to the value x must take at q = t, computed
    in Fraction arithmetic on the operands; it is compared at POINTS."""
    assert isinstance(x, QRational)
    num, den = x.num, x.den
    assert all(type(c) is int for c in num + den)
    assert den and den[-1] > 0 and (not num or num[-1])
    assert _pgcd(num, den) == (1,)
    assert gcd(*num, *den) == 1
    if den == (1,):
        assert den is _IONE
    if value is not None:
        for t in POINTS:
            assert specialize(x, t) == value(t)


def graded_char(a) -> GradedModule:
    """The rank-1 graded character E_1 = a (a p, read at p = 1)."""
    return GradedModule(1, 1, [], [[[Fraction(a)]]])


def stacked_kernel(mats, dim: int):
    """{v : M v = 0 for all M in mats} as the canonical `Subspace` of
    one `kernel_subspace` of the matrices' rows stacked."""
    stacked = [row for M in mats for row in M]
    if not stacked:
        return full_space(dim)
    return kernel_subspace(stacked, ncols=dim)


def central_block_powers(M, values):
    """The block of the exact affine module M at the S_m-orbit of
    `values`: the joint kernel of the (E_j - e_j(values))^s, j = 1..m,
    with E_j the sum of the products of the Theta_k over the j-subsets
    and s grown until one more factor leaves the rank unchanged."""
    d = M.dim
    values = [_coerce(v) for v in values]
    mats = []
    for j in range(1, M.n + 1):
        D = zeros(d, d)
        e = 0
        for sub in itertools.combinations(range(M.n), j):
            D = mat_add(D, functools.reduce(mat_mul, (M.x[k] for k in sub)))
            e = e + functools.reduce(operator.mul, (values[k] for k in sub))
        D = mat_sub(D, mat_scale(e, identity(d)))
        P, rank = D, len(rref(D)[1])
        while 0 < rank < d:
            P2 = mat_mul(P, D)
            rank2 = len(rref(P2)[1])
            if rank2 == rank:
                break
            P, rank = P2, rank2
        mats.append(P)
    return stacked_kernel(mats, d)


def sign_projector_tail(n: int, i: int) -> AffineElement:
    """sum (-1/q)^{l(w)} T_w over the copy of S_i permuting the last i
    letters; for i <= 1 this is the identity."""
    if not 0 <= i <= n:
        raise ValueError(f"tail size {i} out of range")
    if i <= 1:
        return AffineElement.one(n)
    head = Permutation.identity(n - i)
    out: dict = {}
    zero = (0,) * n
    for w, c in sign_projector(i).terms.items():
        word = head + tuple(a + (n - i) for a in w)
        out[(zero, Permutation(word))] = c
    return AffineElement(n, out)


def generic_guard(t, q0=None) -> None:
    """Reject characters outside the generic regime: a zero coordinate, a
    repeated coordinate, or a coordinate ratio equal to q^{+-1} (checked
    formally, and at q0 when a numeric value is supplied)."""
    t = tuple(_coerce(v) for v in t)
    for k, v in enumerate(t):
        if not v:
            raise ValueError(f"character coordinate {k + 1} is zero")
    qv = None
    if q0 is not None:
        qv = QRational(Fraction(q0))
    for a in range(len(t)):
        for b in range(len(t)):
            if a == b:
                continue
            r = t[a] / t[b]
            if r == 1:
                raise ValueError(
                    f"coordinates {a + 1}, {b + 1} coincide")
            if r == _Q:
                raise ValueError(
                    f"coordinates {a + 1}, {b + 1} differ by q")
            if qv is not None and r == qv:
                raise ValueError(
                    f"coordinates {a + 1}, {b + 1} differ by q0")


def cycle_type(w: Permutation) -> tuple[int, ...]:
    """The partition of cycle lengths of w."""
    seen = [False] * w.n
    lengths = []
    for start in range(1, w.n + 1):
        if seen[start - 1]:
            continue
        size, i = 0, start
        while not seen[i - 1]:
            seen[i - 1] = True
            i = w(i)
            size += 1
        lengths.append(size)
    return tuple(sorted(lengths, reverse=True))


def assert_same_subspace(V, W):
    """V and W have the same pivot rows and the same basis, entry for
    entry and of the same type."""
    assert V.pivot_rows == W.pivot_rows and V.dim == W.dim
    assert len(V.basis) == len(W.basis)
    for rv, rw in zip(V.basis, W.basis):
        assert len(rv) == len(rw) == V.dim
        for a, b in zip(rv, rw):
            assert type(a) is type(b) and a == b, (a, b)


def is_zero_matrix(A) -> bool:
    return all(not a for row in A for a in row)


def textbook_mat_mul(A, B) -> list[list]:
    """A*B by the triple loop over rows, columns and the inner index:
    entry (i, j) is the int 0 plus A[i][k] B[k][j], k increasing, for
    each k at which both factors are nonzero."""
    cols = list(zip(*B))
    return [[functools.reduce(operator.add, (
        a * b for a, b in zip(row, col, strict=True) if a and b), 0)
        for col in cols] for row in A]


def textbook_rref(A) -> tuple[list[list], list[int]]:
    """Gauss-Jordan elimination with leftmost pivots, as `linalg.rref`
    states it: the pivot row divided by its lead (an int lead as a
    Fraction) where it is nonzero, and every other row i with f = R[i][c]
    nonzero replaced, at each column where the pivot row has v nonzero,
    by e - f v."""
    R = [list(row) for row in A]
    pivots: list[int] = []
    for c in range(len(R[0]) if R else 0):
        r = len(pivots)
        pr = next((i for i in range(r, len(R)) if R[i][c]), None)
        if pr is None:
            continue
        R[r], R[pr] = R[pr], R[r]
        lead = R[r][c]
        if lead != 1:
            lead = Fraction(lead) if type(lead) is int else lead
            R[r] = [v / lead if v else v for v in R[r]]
        for i, row in enumerate(R):
            f = row[c]
            if i != r and f:
                R[i] = [e - f * v if v else e for e, v in zip(row, R[r])]
        pivots.append(c)
    return R, pivots


def entrywise_lift(gens: list) -> tuple[int, list]:
    """(L, the int matrices L g) over every entry of every g in gens."""
    scale = 1
    for g in gens:
        for row in g:
            for v in row:
                scale = lcm(scale, v.denominator)
    return scale, [[[v.numerator * (scale // v.denominator) for v in row]
                    for row in g] for g in gens]


def mat_inverse(A: list[list]) -> list[list]:
    """Exact inverse by row reduction of the augmented matrix."""
    n = len(A)
    aug = [list(row) + [1 if i == j else 0 for j in range(n)]
           for i, row in enumerate(A)]
    R, pivots = rref(aug)
    if list(pivots) != list(range(n)):
        raise ArithmeticError("matrix is singular")
    return [row[n:] for row in R[:n]]


def theta_weight(M, x) -> list[list]:
    """theta_x = prod Theta_k^{x_k} on the module M, inverses included;
    kept in M's memo under ("theta", x)."""
    x = tuple(x)

    def build():
        out = identity(M.dim)
        for k, e in enumerate(x):
            if not e:
                continue
            base = M.x[k] if e > 0 else M._memoized(
                ("theta_inv", k), lambda: mat_inverse(M.x[k]))
            for _ in range(abs(e)):
                out = mat_mul(base, out)
        return out

    return M._memoized(("theta", x), build)


def perm_matrix(M, w) -> list[list]:
    """s_w on the module M, the product of its s matrices along a reduced
    word of w; kept in M's memo under ("perm", w)."""
    return M._memoized(("perm", w), lambda: functools.reduce(
        mat_mul, (M.s[a - 1] for a in reduced_word(w)), identity(M.dim)))


def act(M, el: AffineElement) -> list[list]:
    """Matrix of an algebra element on an exact module M."""
    if M.param is not None:
        raise ValueError("act is defined for exact modules")
    if el.n != M.n:
        raise ValueError("rank mismatch")
    out = zeros(M.dim, M.dim)
    for (x, w), c in el.terms.items():
        m = mat_mul(theta_weight(M, x), perm_matrix(M, w))
        out = mat_add(out, mat_scale(c, m))
    return out


def relation_residuals(M) -> dict[str, list]:
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


# --- the Hecke-word loops on int-tuple polynomials ---------------------------

_QM1 = (-1, 1)      # q - 1
_1MQ = (1, -1)      # 1 - q


def _prefix_memo(n: int, start, gen_apply):
    """v -> T_v applied to start, memoized across reduced-word prefixes:
    T_v = T_a T_{s_a v} for the first letter a of a reduced word of v, so
    each distinct prefix costs one gen_apply(a, value) call."""
    memo = {Permutation.identity(n): start}

    def t_apply(v):
        got = memo.get(v)
        if got is None:
            a = reduced_word(v)[0]
            got = gen_apply(a, t_apply(Permutation.adjacent(n, a) * v))
            memo[v] = got
        return got

    return t_apply


def _pbump(acc: dict, key, p: tuple) -> None:
    """acc[key] += p for a nonzero integer polynomial p; a sum that cancels
    leaves the dict."""
    if key in acc:
        p = _padd(acc[key], p)
        if not p:
            del acc[key]
            return
    acc[key] = p


def _lower(polys: dict, D: tuple) -> dict:
    """{key: poly/D} in canonical QRationals, zeros dropped."""
    return {k: QRational._raw(p, D) for k, p in polys.items() if p}


def _t_left(a: int, w: Permutation, c: tuple) -> tuple:
    """c T_a T_w for an integer polynomial c, as ((u, coeff), ...):
    T_{s_a w} when s_a w is the longer, otherwise (q-1) T_w + q T_{s_a w},
    where q c is a shift."""
    sw, longer = _s_left(a, w)
    if longer:
        return ((sw, c),)
    return ((w, _pmul(_QM1, c)), (sw, (0,) + c))


def _finite_generator(a: int, polys: dict) -> dict:
    """T_a on {w: integer polynomial}, the left regular action."""
    out: dict = {}
    for w, c in polys.items():
        for u, e in _t_left(a, w, c):
            _pbump(out, u, e)
    return out


def poly_finite_product(A: FiniteHeckeElement,
                        B: FiniteHeckeElement) -> FiniteHeckeElement:
    """A * B in the finite Hecke algebra."""
    n = A.n
    left, d1 = _lift(A.terms)
    right, d2 = _lift(B.terms)
    t_apply = _prefix_memo(n, right, _finite_generator)
    acc: dict = {}
    for v, a in left.items():
        for w, c in t_apply(v).items():
            _pbump(acc, w, _pmul(a, c))
    return FiniteHeckeElement(n, _lower(acc, _pmul(d1, d2)))


def _telescope(y: tuple, a: int) -> list[tuple[tuple, tuple]]:
    """(q-1) G(y, alpha_a) as [(weight, integer polynomial)]: for
    m = y_a - y_{a+1} >= 0 the weights y - k alpha_a, k = 0..m-1, each
    with q - 1; for m < 0 the weights y + k alpha_a, k = 1..-m, each with
    1 - q."""
    m = y[a - 1] - y[a]
    ks, c = (range(m), _QM1) if m >= 0 else (range(-1, m - 1, -1), _1MQ)
    return [(y[:a - 1] + (y[a - 1] - k, y[a] + k) + y[a + 1:], c)
            for k in ks]


def _affine_generator(a: int, terms: dict) -> dict:
    """T_a on {(y, w): integer polynomial} meaning sum theta_y T_w, the left
    regular action: T_a theta_y T_w = theta_{s_a y} (T_a T_w)
    + (q-1) G(y, alpha_a) T_w."""
    out: dict = {}
    for (y, w), c in terms.items():
        z = _swap(y, a)
        for u, e in _t_left(a, w, c):
            _pbump(out, (z, u), e)
        for yy, e in _telescope(y, a):
            _pbump(out, (yy, w), _pmul(e, c))
    return out


def poly_multiply(A: AffineElement, B: AffineElement) -> AffineElement:
    """A * B in the Bernstein presentation, normalized theta-first."""
    n = A.n
    left, d1 = _lift(A.terms)
    right, d2 = _lift(B.terms)
    t_apply = _prefix_memo(n, right, _affine_generator)
    acc: dict = {}
    for (x, v), a in left.items():
        for (y, w), c in t_apply(v).items():
            xy = tuple(p + r for p, r in zip(x, y))
            _pbump(acc, (xy, w), _pmul(a, c))
    return AffineElement(n, _lower(acc, _pmul(d1, d2)))


def _dl_generator(a: int, poly: dict, tee) -> dict:
    """T_a on {weight: integer polynomial} meaning sum theta_y (x) 1 in
    H (x)_{finite} chi, with tee(c) = chi(T_a) c: T_a theta_y (x) 1 =
    chi(T_a) theta_{s_a y} (x) 1 + (q-1) G(y, alpha_a) (x) 1."""
    out: dict = {}
    for y, c in poly.items():
        _pbump(out, _swap(y, a), tee(c))
        for z, e in _telescope(y, a):
            _pbump(out, z, _pmul(e, c))
    return out


def _induced_apply(el: AffineElement, vec: dict, tee) -> dict:
    """el acting on sum c_y theta_y (x) 1 in H (x)_{finite} chi, where
    tee(c) = chi(T_a) c for an integer polynomial c."""
    n = el.n
    terms, d1 = _lift(el.terms)
    probe, d2 = _lift(vec)
    t_apply = _prefix_memo(n, probe,
                           lambda a, poly: _dl_generator(a, poly, tee))
    out: dict = {}
    for (x, w), c in terms.items():
        for y, d in t_apply(w).items():
            xy = tuple(p + r for p, r in zip(x, y))
            _pbump(out, xy, _pmul(c, d))
    return _lower(out, _pmul(d1, d2))


def poly_oracle_apply(el: AffineElement, poly: dict) -> dict:
    """el on a Laurent polynomial, the module induced from T_a -> q."""
    return _induced_apply(el, poly, lambda c: (0,) + c)


def poly_antispherical_apply(el: AffineElement, vec: dict) -> dict:
    """el on H (x)_{finite} sign, the module induced from T_a -> -1."""
    return _induced_apply(el, vec, _pneg)
