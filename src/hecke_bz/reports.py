"""Report assembly and the named verification suites.

A report is a plain dict with fixed key order: command, inputs, results,
pass, and (only when requested) timings.  JSON is the canonical format;
the table renderer is a flattening of the same dict.  Suites with random
sampling run from fixed recorded seeds, so default reports are
byte-stable run to run; timings are opt-in for that reason.

Numeric defaults live in DEFAULTS; `resolve_config` overrides them
with the values its caller passes, and with nothing else.  Suites whose
cases are independent fan out over a process pool when threads on the
resolved configuration exceed one; results are always assembled in
case order, so the worker count never changes the output.
"""

from __future__ import annotations

import json
import os
import random
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from math import isfinite, log

from .affine import AffineElement, oracle_apply
from .affine.modules import (
    bz_derivative,
    induce,
    leibniz_check,
    one_dimensional_module,
    principal_series,
    verify_relations,
)
from .bridge import (
    bridge_bz_compare,
    lambda_functor,
    theta_spectrum_check,
)
from .combinatorics import (
    Permutation,
    length,
    partitions,
    sym_group,
)
from .finite_hecke import (
    FiniteHeckeElement,
    poincare_value,
    sign_character,
    sign_idempotent,
    sign_projector,
)
from .graded import (
    _pieri_report,
    pin,
    speh_module,
)
from .module_core import check_relations
from .scalars import QRational

__all__ = [
    "DEFAULTS",
    "resolve_config",
    "make_report",
    "render",
    "render_json",
    "render_table",
    "run_cases",
    "SUITES",
    "MIN_RANK",
]

DEFAULTS = {
    "q0": 4.0,
    "tol": 1e-8,
    "cluster_tol": 1e-9,
    "threads": 1,
}


def resolve_config(q0=None, tol=None, cluster_tol=None, threads=None) -> dict:
    """DEFAULTS, overridden by the arguments that are not None."""
    out = dict(DEFAULTS)
    for key, val in (("q0", q0), ("tol", tol),
                     ("cluster_tol", cluster_tol), ("threads", threads)):
        if val is not None:
            out[key] = val
    if not (isfinite(out["q0"]) and out["q0"] > 0):
        raise ValueError(f"q0 must be positive and finite, got {out['q0']}")
    for key in ("tol", "cluster_tol"):
        if not (isfinite(out[key]) and out[key] >= 0):
            raise ValueError(
                f"{key} must be non-negative and finite, got {out[key]}")
    if out["threads"] < 1:
        raise ValueError("threads must be at least 1")
    return out


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (QRational, Fraction)):
        return str(obj)
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, (int, float, str)):
        return obj
    return str(obj)


def make_report(command: str, inputs: dict, results: dict, passed: bool,
                timings: dict | None = None) -> dict:
    report = {
        "command": command,
        "inputs": _jsonable(inputs),
        "results": _jsonable(results),
        "pass": bool(passed),
    }
    if timings is not None:
        report["timings"] = _jsonable(timings)
    return report


def render_json(report: dict) -> str:
    return json.dumps(report, indent=2)


def _flatten(obj, path: str, rows: list[tuple[str, str]]) -> None:
    if isinstance(obj, dict):
        if not obj:
            rows.append((path, "{}"))
        for k, v in obj.items():
            _flatten(v, f"{path}.{k}" if path else str(k), rows)
    elif isinstance(obj, list):
        if obj and all(not isinstance(v, (dict, list)) for v in obj):
            rows.append((path, "[" + ", ".join(str(v) for v in obj) + "]"))
        elif not obj:
            rows.append((path, "[]"))
        else:
            for idx, v in enumerate(obj):
                _flatten(v, f"{path}[{idx}]", rows)
    else:
        rows.append((path, str(obj)))


def render_table(report: dict) -> str:
    rows: list[tuple[str, str]] = []
    _flatten(report, "", rows)
    width = max(len(k) for k, _ in rows)
    return "\n".join(f"{k.ljust(width)}  {v}" for k, v in rows)


def render(report: dict, fmt: str) -> str:
    if fmt == "json":
        return render_json(report)
    if fmt == "table":
        return render_table(report)
    raise ValueError(f"unknown format {fmt!r}")


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_cases(worker, cases: list, threads: int) -> list:
    """worker over cases, in order; a process pool above one thread,
    with no more workers than cases or usable CPUs."""
    cases = list(cases)
    workers = min(threads, len(cases), _usable_cpus())
    if workers <= 1:
        return [worker(c) for c in cases]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, cases, chunksize=1))


# --- suite: pieri -----------------------------------------------------------

def _pieri_case(shape) -> list[dict]:
    """`pieri_verify` at every order, on one Speh module."""
    M = speh_module(shape)
    return [_pieri_report(M, i) for i in range(sum(shape) + 1)]


def suite_pieri(bound: int | None, config: dict):
    max_n = bound if bound is not None else 8
    shapes = [lam for n in range(1, max_n + 1) for lam in partitions(n)]
    outs = [r for rs in run_cases(_pieri_case, shapes, config["threads"])
            for r in rs]
    failures = [r for r in outs if not r["pass"]]
    inputs = {"max_n": max_n}
    results = {"cases": len(outs), "failures": failures}
    return inputs, results, not failures


# --- suite: finite-relations ------------------------------------------------

def _finite_case(n: int) -> dict:
    q = QRational.gen()
    checks = 0
    bad = []
    for a in range(1, n):
        t = FiniteHeckeElement.t_gen(n, a)
        if (t - q) * (t + 1) != FiniteHeckeElement.zero(n):
            bad.append(f"quadratic s_{a}")
        checks += 1
    for a in range(1, n - 1):
        x = FiniteHeckeElement.t_gen(n, a)
        y = FiniteHeckeElement.t_gen(n, a + 1)
        if x * y * x != y * x * y:
            bad.append(f"braid s_{a}")
        checks += 1
        for b in range(a + 2, n):
            z = FiniteHeckeElement.t_gen(n, b)
            if x * z != z * x:
                bad.append(f"commute s_{a} s_{b}")
            checks += 1
    S = sign_projector(n)
    P = poincare_value(n, 1 / q)
    if S * S != S * P:
        bad.append("projector square")
    checks += 1
    for a in range(1, n):
        t = FiniteHeckeElement.t_gen(n, a)
        if t * S != S * (-1) or S * t != S * (-1):
            bad.append(f"projector eigen s_{a}")
        checks += 1
    E = sign_idempotent(n)
    if E * E != E:
        bad.append("idempotent square")
    checks += 1
    if sign_character(S) != P:
        bad.append("sign character")
    checks += 1
    return {"n": n, "checks": checks, "failures": bad}


def suite_finite_relations(bound: int | None, config: dict):
    max_n = bound if bound is not None else 5
    outs = run_cases(_finite_case, list(range(2, max_n + 1)),
                     config["threads"])
    failures = [r for r in outs if r["failures"]]
    inputs = {"max_n": max_n}
    results = {"cases": outs, "failed": len(failures)}
    return inputs, results, not failures


# --- suite: affine-oracle ---------------------------------------------------

def _random_affine(n: int, rng: random.Random) -> AffineElement:
    out = AffineElement.zero(n)
    for _ in range(rng.randint(1, 3)):
        x = tuple(rng.randint(-2, 2) for _ in range(n))
        w = Permutation(tuple(rng.sample(range(1, n + 1), n)))
        c = QRational(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        out = out + AffineElement.theta(n, x) * AffineElement.t(n, w) * c
    return out


def _poly_probe(n: int, rng: random.Random) -> dict:
    out = {}
    for _ in range(2):
        y = tuple(rng.randint(-2, 2) for _ in range(n))
        out[y] = QRational(rng.randint(1, 3))
    return out


def _oracle_agree(a: AffineElement, b: AffineElement, probes) -> bool:
    prod = a * b
    for poly in probes:
        if oracle_apply(prod, poly) != oracle_apply(a, oracle_apply(b, poly)):
            return False
    return True


def _affine_oracle_case(args) -> dict:
    n, samples, seed = args
    rng = random.Random(seed)
    gens = [AffineElement.t_gen(n, a) for a in range(1, n)]
    gens += [AffineElement.theta(n, tuple(1 if i == k else 0
                                          for i in range(n)))
             for k in range(n)]
    probes = [_poly_probe(n, rng) for _ in range(3)]
    probes.append({(0,) * n: QRational(1)})
    bad = 0
    pairs = 0
    for a in gens:
        for b in gens:
            pairs += 1
            if not _oracle_agree(a, b, probes):
                bad += 1
    for _ in range(samples):
        a, b = _random_affine(n, rng), _random_affine(n, rng)
        pairs += 1
        if not _oracle_agree(a, b, probes):
            bad += 1
    return {"n": n, "pairs": pairs, "disagreements": bad, "seed": seed}


def suite_affine_oracle(bound: int | None, config: dict):
    max_n = bound if bound is not None else 3
    seed = 20260819
    cases = [(n, 100, seed + n) for n in range(2, max_n + 1)]
    outs = run_cases(_affine_oracle_case, cases, config["threads"])
    ok = all(r["disagreements"] == 0 for r in outs)

    modules = []
    for n in range(1, 5):
        t = _generic_char(n, 17 + n)
        mods = [("principal", principal_series(n, t)),
                ("index", one_dimensional_module(n, Fraction(7, 3), "index")),
                ("sign", one_dimensional_module(n, Fraction(7, 3), "sign"))]
        if 2 <= n <= 4:
            n1 = n // 2
            mods.append(("induced", induce(
                principal_series(n1, t[:n1]),
                one_dimensional_module(n - n1, Fraction(5, 2), "sign"))))
        if n >= 2:
            mods.append(("derivative",
                         bz_derivative(principal_series(n, t), 1)))
        for name, M in mods:
            rep = verify_relations(M)
            modules.append({"n": n, "module": name, "dim": M.dim,
                            "pass": rep["pass"]})
            ok = ok and rep["pass"]
    inputs = {"max_n": max_n, "samples_per_n": 100, "seed": seed,
              "module_bound": 4}
    results = {"products": outs, "modules": modules}
    return inputs, results, ok


def _generic_char(n: int, seed: int) -> tuple:
    rng = random.Random(seed)
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    rng.shuffle(primes)
    return tuple(QRational(Fraction(p, 1 + (s % 3)))
                 for s, p in enumerate(primes[:n]))


# --- suite: graded-relations ------------------------------------------------

def _graded_case(shape) -> dict:
    M = speh_module(shape)
    rep = check_relations(M)
    return {"shape": list(shape), "dim": M.dim, "pass": rep["pass"]}


def suite_graded_relations(bound: int | None, config: dict):
    max_n = bound if bound is not None else 7
    cases = [lam for n in range(1, max_n + 1) for lam in partitions(n)]
    outs = run_cases(_graded_case, cases, config["threads"])
    failures = [r for r in outs if not r["pass"]]
    inputs = {"max_n": max_n}
    results = {"cases": len(outs), "failures": failures}
    return inputs, results, not failures


# --- suite: leibniz ---------------------------------------------------------

def _levi_factor(kind: str, n: int, seed: int):
    if kind == "principal":
        return principal_series(n, _generic_char(n, seed))
    return one_dimensional_module(
        n, Fraction([3, 5, 7, 11][seed % 4], 2), kind)


def _leibniz_case(args) -> dict:
    kind1, n1, kind2, n2, i, seed = args
    M1 = _levi_factor(kind1, n1, seed)
    M2 = _levi_factor(kind2, n2, seed + 1)
    rep = leibniz_check(M1, M2, i)
    return {
        "factors": [f"{kind1}({n1})", f"{kind2}({n2})"],
        "i": i,
        "orbits": rep["orbits"],
        "blocks_cover": rep["blocks_cover"],
        "pass": rep["pass"],
    }


def suite_leibniz(bound: int | None, config: dict):
    max_n = bound if bound is not None else 4
    kinds = ["principal", "index", "sign"]
    cases = []
    seed = 40
    for n in range(2, max_n + 1):
        for n1 in range(1, n):
            n2 = n - n1
            for k1 in kinds:
                for k2 in kinds:
                    if kinds.index(k2) < kinds.index(k1):
                        continue
                    seed += 2
                    for i in range(n + 1):
                        cases.append((k1, n1, k2, n2, i, seed))
    outs = run_cases(_leibniz_case, cases, config["threads"])
    failures = [r for r in outs if not r["pass"]]
    inputs = {"max_n": max_n, "factor_kinds": kinds}
    results = {"cases": len(outs), "failures": failures}
    return inputs, results, not failures


# --- suite: bridge ----------------------------------------------------------

_BRIDGE_RATIOS = (0.0, 0.5, -0.5, 1.0, -1.0, 1.5)
_BRIDGE_Q0S = (2.0, 3.0, 4.0)


def _bridge_case(args) -> dict:
    shape, q0, ratio, tol, spec_tol, cmp_tol, cluster_tol = args
    p0 = log(q0)
    n = sum(shape)
    G = pin(speh_module(shape), p0, ratio * p0)
    A = lambda_functor(G, cluster_tol)
    rel = verify_relations(A, tol=tol)
    spec = theta_spectrum_check(G, A, tol=spec_tol)
    worst_cmp = 0.0
    cmp_ok = True
    for i in range(n + 1):
        rep = bridge_bz_compare(G, i, tol=cmp_tol, cluster_tol=cluster_tol)
        cmp_ok = cmp_ok and rep["pass"]
        worst_cmp = max(worst_cmp, rep.get("worst", 0.0))
    # the order-n compare has compared the sign dimensions (a mismatch
    # fails it), so they are read off its report
    sign_dim = [rep["left_dim"], rep["right_dim"]]
    ok = rel["pass"] and spec["pass"] and cmp_ok
    return {
        "shape": list(shape), "q0": q0, "kappa_over_p": ratio,
        "relation_residual": rel["worst"],
        "spectrum_residual": spec["worst"],
        "compare_residual": worst_cmp,
        "sign_dim": sign_dim,
        "pass": ok,
    }


def suite_bridge(bound: int | None, config: dict):
    max_n = bound if bound is not None else 5
    cases = [(lam, q0, ratio, config["tol"], 1e-10, 1e-6,
              config["cluster_tol"])
             for n in range(1, max_n + 1)
             for lam in partitions(n)
             for q0 in _BRIDGE_Q0S
             for ratio in _BRIDGE_RATIOS]
    outs = run_cases(_bridge_case, cases, config["threads"])
    failures = [r for r in outs if not r["pass"]]
    worst = {
        "relation": max((r["relation_residual"] for r in outs), default=0.0),
        "spectrum": max((r["spectrum_residual"] for r in outs), default=0.0),
        "compare": max((r["compare_residual"] for r in outs), default=0.0),
    }
    inputs = {"max_n": max_n, "q0_grid": list(_BRIDGE_Q0S),
              "kappa_over_p_grid": list(_BRIDGE_RATIOS),
              "tol": config["tol"], "spectrum_tol": 1e-10,
              "compare_tol": 1e-6, "cluster_tol": config["cluster_tol"]}
    results = {"cases": len(outs), "worst_residuals": worst,
               "failures": failures}
    return inputs, results, not failures


# --- suite: antispherical ---------------------------------------------------

def _antispherical_case(args) -> dict:
    n, triples, seed = args
    from .affine.modules import antispherical_apply, antispherical_generator

    rng = random.Random(seed)
    gen = antispherical_generator(n)
    bad = []
    for w in sym_group(n):
        got = antispherical_apply(AffineElement.t(n, w), gen)
        want = {(0,) * n: QRational((-1) ** length(w))}
        if got != want:
            bad.append(f"T_{list(w.word)}")
    assoc_bad = 0
    for _ in range(triples):
        h1, h2 = _random_affine(n, rng), _random_affine(n, rng)
        v = {tuple(rng.randint(-1, 1) for _ in range(n)): QRational(1),
             (0,) * n: QRational(rng.randint(1, 3))}
        lhs = antispherical_apply(h1, antispherical_apply(h2, v))
        rhs = antispherical_apply(h1 * h2, v)
        if lhs != rhs:
            assoc_bad += 1
    return {"n": n, "sign_failures": bad, "triples": triples,
            "assoc_failures": assoc_bad, "seed": seed}


def suite_antispherical(bound: int | None, config: dict):
    max_n = bound if bound is not None else 4
    seed = 20260819
    cases = [(n, 34, seed + n) for n in range(2, max_n + 1)]
    outs = run_cases(_antispherical_case, cases, config["threads"])
    ok = all(not r["sign_failures"] and r["assoc_failures"] == 0
             for r in outs)
    inputs = {"max_n": max_n, "triples_per_n": 34, "seed": seed}
    results = {"cases": outs}
    return inputs, results, ok


SUITES = {
    "pieri": suite_pieri,
    "finite-relations": suite_finite_relations,
    "affine-oracle": suite_affine_oracle,
    "graded-relations": suite_graded_relations,
    "leibniz": suite_leibniz,
    "bridge": suite_bridge,
    "antispherical": suite_antispherical,
}

# The smallest rank each suite sweeps: a lower bound leaves it no case.
MIN_RANK = {"pieri": 1, "finite-relations": 2, "affine-oracle": 2,
            "graded-relations": 1, "leibniz": 2, "bridge": 1,
            "antispherical": 2}
