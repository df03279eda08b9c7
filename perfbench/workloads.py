"""Case spaces of the four benchmark workloads and the code that runs one case.

A case is a JSON list naming a fully specified input; `run_case` drives it
through the same public function the matching verify suite calls and
returns a plain, JSON-able result whose sha256 is compared with the one
recorded in `expected.json`.  A run measures a seeded, cost-stratified
sample of a case space (`sample`), so every seed gives a pass with the
same mix of cheap and expensive cases.

Floating-point residuals of the transport workload are checked against
their tolerances but kept out of the result: they may differ in the last
digits between BLAS builds, while everything that is digested is exact.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from math import factorial, log

from hecke_bz.affine import AffineElement, oracle_apply
from hecke_bz.affine.modules import (
    antispherical_apply,
    antispherical_generator,
    bz_dimension,
    leibniz_check,
    one_dimensional_module,
    principal_series,
    verify_relations,
)
from hecke_bz.bridge import bridge_bz_compare, lambda_functor, theta_spectrum_check
from hecke_bz.combinatorics import Permutation, length, partitions, sym_group
from hecke_bz.finite_hecke import (
    FiniteHeckeElement,
    poincare_value,
    sign_character,
    sign_idempotent,
    sign_projector,
)
from hecke_bz.graded import g_bz_derivative, pieri_verify, speh_module
from hecke_bz.reports import resolve_config
from hecke_bz.scalars import QRational

WORKLOADS = ("affine-blocks", "speh-pieri", "transport", "hecke-words")

# How a pass samples a case space, from the recorded cost of each case:
# cases costing more than `max_ms` are left out, every case costing at least
# `always` of the rest's total is taken, and one case is drawn out of every
# `stride` consecutive cases of the others in cost order.  Every seed thus
# gets the same mix of cheap and costly cases, in a pass of a few seconds;
# short passes let a run repeat its sample several times.
SAMPLING = {
    "affine-blocks": (4, 1.0, 400.0),
    "speh-pieri": (4, 1.0, 150.0),
    "transport": (2, 1.0, None),
    "hecke-words": (3, 0.05, 500.0),
}

# affine-blocks runs every Leibniz case at one of four generic characters;
# the four variants of a case cost about the same, so they share a stratum.
CHARACTER_VARIANTS = 4

# affine-blocks leaves out the Leibniz cases whose central blocks walk the
# 4! points of an S_4 orbit on a 24-dimensional module: each takes about
# ten seconds, longer than a whole pass may.
AFFINE_BLOCKS_MAX_DIM = 12


# --- case spaces --------------------------------------------------------------

def _leibniz_cases() -> list:
    kinds = ["principal", "index", "sign"]
    cases = []
    seed = 40
    for n in range(2, 5):
        for n1 in range(1, n):
            n2 = n - n1
            for k1 in kinds:
                for k2 in kinds:
                    if kinds.index(k2) < kinds.index(k1):
                        continue
                    seed += 2
                    for i in range(n + 1):
                        cases.append([k1, n1, k2, n2, i, seed])
    return cases


def _induced_dim(case) -> int:
    k1, n1, k2, n2 = case[:4]
    d1 = factorial(n1) if k1 == "principal" else 1
    d2 = factorial(n2) if k2 == "principal" else 1
    return d1 * d2 * factorial(n1 + n2) // (factorial(n1) * factorial(n2))


def _finite_checks(n: int) -> list:
    out = [["finite", n, "quadratic", a] for a in range(1, n)]
    for a in range(1, n - 1):
        out.append(["finite", n, "braid", a])
        out += [["finite", n, "commute", a, b] for b in range(a + 2, n)]
    out.append(["finite", n, "square"])
    out += [["finite", n, "eigen", a] for a in range(1, n)]
    out.append(["finite", n, "idempotent"])
    out.append(["finite", n, "character"])
    return out


def case_space(workload: str) -> list:
    """Every case of a workload, in a fixed order."""
    if workload == "affine-blocks":
        return [c[:5] + [c[5] + 1002 * v]
                for v in range(CHARACTER_VARIANTS) for c in _leibniz_cases()
                if _induced_dim(c) <= AFFINE_BLOCKS_MAX_DIM]
    if workload == "speh-pieri":
        return [[list(lam), i] for n in range(1, 9)
                for lam in partitions(n) for i in range(n + 1)]
    if workload == "transport":
        return [[list(lam), q0, ratio] for n in range(1, 6)
                for lam in partitions(n)
                for q0 in (2.0, 3.0, 4.0)
                for ratio in (0.0, 0.5, -0.5, 1.0, -1.0, 1.5)]
    if workload == "hecke-words":
        cases = [c for n in range(2, 6) for c in _finite_checks(n)]
        cases += [["oracle", n, k] for n in (2, 3)
                  for k in range((2 * n - 1) ** 2 + 100)]
        cases += [["sign", n, w] for n in (2, 3, 4)
                  for w in range(factorial(n))]
        cases += [["assoc", n, k] for n in (2, 3, 4) for k in range(34)]
        # E*E == E at n = 5 alone takes about nine seconds
        cases.remove(["finite", 5, "idempotent"])
        return cases
    raise ValueError(f"unknown workload {workload!r}")


def case_key(case) -> str:
    return json.dumps(case, separators=(",", ":"))


def sample(workload: str, seed: int, cost_ms: dict, order: int = 0) -> list:
    """The seed's pass over a workload, drawn by SAMPLING from the recorded
    cost of each case (by case key), in the seed's shuffled order number
    `order`: the passes of a run take the same cases in different orders,
    so that no one order's cache and collector effects set the figures."""
    rng = random.Random(f"{workload}:{seed}")
    stride, always, max_ms = SAMPLING[workload]
    by_cost = sorted((key for key, ms in cost_ms.items()
                      if max_ms is None or ms <= max_ms),
                     key=lambda key: (cost_ms[key], key))
    cut = always * sum(cost_ms[key] for key in by_cost)
    picked = [key for key in by_cost if cost_ms[key] >= cut]
    rest = [key for key in by_cost if cost_ms[key] < cut]
    picked += [rng.choice(rest[k:k + stride])
               for k in range(0, len(rest), stride)]
    random.Random(f"{workload}:{seed}:{order}").shuffle(picked)
    return [json.loads(key) for key in picked]


# --- running one case ---------------------------------------------------------

def run_case(workload: str, case) -> dict:
    if workload == "affine-blocks":
        return _leibniz_case(*case)
    if workload == "speh-pieri":
        return pieri_verify(tuple(case[0]), case[1])
    if workload == "transport":
        return _transport_case(*case)
    if workload == "hecke-words":
        kind = case[0]
        if kind == "finite":
            return _finite_case(*case[1:])
        if kind == "oracle":
            return _oracle_case(*case[1:])
        if kind == "sign":
            return _sign_case(*case[1:])
        return _assoc_case(*case[1:])
    raise ValueError(f"unknown workload {workload!r}")


def result_digest(result: dict) -> str:
    text = json.dumps(result, sort_keys=True, separators=(",", ":"),
                      default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def _generic_char(n: int, seed: int) -> tuple:
    rng = random.Random(seed)
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    rng.shuffle(primes)
    return tuple(QRational(Fraction(p, 1 + (s % 3)))
                 for s, p in enumerate(primes[:n]))


def _levi_factor(kind: str, n: int, seed: int):
    if kind == "principal":
        return principal_series(n, _generic_char(n, seed))
    return one_dimensional_module(n, Fraction([3, 5, 7, 11][seed % 4], 2),
                                  kind)


def _leibniz_case(kind1, n1, kind2, n2, i, seed) -> dict:
    M1 = _levi_factor(kind1, n1, seed)
    M2 = _levi_factor(kind2, n2, seed + 1)
    rep = leibniz_check(M1, M2, i)
    return {"orbits": rep["orbits"], "blocks_cover": rep["blocks_cover"],
            "left_dim": rep["left_dim"], "pass": rep["pass"]}


_CONFIG = resolve_config(threads=1)


def _transport_case(shape, q0, ratio) -> dict:
    p0 = log(q0)
    n = sum(shape)
    G = speh_module(tuple(shape), "numeric", p0=p0, kappa0=ratio * p0)
    A = lambda_functor(G, _CONFIG["cluster_tol"])
    rel = verify_relations(A, tol=_CONFIG["tol"])
    spec = theta_spectrum_check(G, A, tol=1e-10)
    sign_dims = [bz_dimension(A, n), g_bz_derivative(G, n).dim]
    compares = [bridge_bz_compare(G, i, tol=1e-6,
                                  cluster_tol=_CONFIG["cluster_tol"])
                for i in range(n + 1)]
    ok = (rel["pass"] and spec["pass"] and sign_dims[0] == sign_dims[1]
          and all(c["pass"] for c in compares))
    return {"sign_dim": sign_dims,
            "compare_dims": [[c["left_dim"], c["right_dim"]]
                             for c in compares],
            "pass": bool(ok)}


def _finite_case(n, check, a=None, b=None) -> dict:
    q = QRational.gen()
    zero = FiniteHeckeElement.zero(n)
    if check == "quadratic":
        t = FiniteHeckeElement.t_gen(n, a)
        ok = (t - q) * (t + 1) == zero
    elif check == "braid":
        x = FiniteHeckeElement.t_gen(n, a)
        y = FiniteHeckeElement.t_gen(n, a + 1)
        ok = x * y * x == y * x * y
    elif check == "commute":
        x = FiniteHeckeElement.t_gen(n, a)
        z = FiniteHeckeElement.t_gen(n, b)
        ok = x * z == z * x
    elif check == "square":
        S = sign_projector(n)
        ok = S * S == S * poincare_value(n, 1 / q)
    elif check == "eigen":
        S = sign_projector(n)
        t = FiniteHeckeElement.t_gen(n, a)
        ok = t * S == S * (-1) and S * t == S * (-1)
    elif check == "idempotent":
        E = sign_idempotent(n)
        ok = E * E == E
    else:
        value = sign_character(sign_projector(n))
        return {"value": str(value),
                "pass": value == poincare_value(n, 1 / q)}
    return {"pass": bool(ok)}


def _random_affine(n: int, rng: random.Random) -> AffineElement:
    out = AffineElement.zero(n)
    for _ in range(rng.randint(1, 3)):
        x = tuple(rng.randint(-2, 2) for _ in range(n))
        w = Permutation(tuple(rng.sample(range(1, n + 1), n)))
        c = QRational(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        out = out + AffineElement.theta(n, x) * AffineElement.t(n, w) * c
    return out


def _canonical(poly: dict) -> list:
    return sorted([list(k), str(v)] for k, v in poly.items())


def _oracle_case(n, k) -> dict:
    rng = random.Random(1000 * n + k)
    gens = [AffineElement.t_gen(n, a) for a in range(1, n)]
    gens += [AffineElement.theta(n, tuple(int(i == j) for i in range(n)))
             for j in range(n)]
    if k < len(gens) ** 2:
        a, b = gens[k // len(gens)], gens[k % len(gens)]
    else:
        a, b = _random_affine(n, rng), _random_affine(n, rng)
    probes = [{tuple(rng.randint(-2, 2) for _ in range(n)):
               QRational(rng.randint(1, 3)) for _ in range(2)}
              for _ in range(3)]
    probes.append({(0,) * n: QRational(1)})
    prod = a * b
    images = []
    ok = True
    for poly in probes:
        got = oracle_apply(prod, poly)
        ok = ok and got == oracle_apply(a, oracle_apply(b, poly))
        images.append(_canonical(got))
    return {"terms": len(prod.terms), "images": images, "pass": ok}


def _sign_case(n, w_index) -> dict:
    w = sym_group(n)[w_index]
    got = antispherical_apply(AffineElement.t(n, w),
                              antispherical_generator(n))
    return {"pass": got == {(0,) * n: QRational((-1) ** length(w))}}


def _assoc_case(n, k) -> dict:
    rng = random.Random(5000 * n + k)
    h1, h2 = _random_affine(n, rng), _random_affine(n, rng)
    v = {tuple(rng.randint(-1, 1) for _ in range(n)): QRational(1),
         (0,) * n: QRational(rng.randint(1, 3))}
    lhs = antispherical_apply(h1, antispherical_apply(h2, v))
    rhs = antispherical_apply(h1 * h2, v)
    return {"image": _canonical(lhs), "pass": lhs == rhs}
