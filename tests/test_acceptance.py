"""Acceptance gate: the eight headline guarantees, one test each.

Every test prints a single ACCEPTANCE line (visible with `pytest -v -s`
or on failure) and asserts the full result, at the advertised bounds and
tolerances.  These are the slow, exhaustive sweeps; the unit-test files
cover the same machinery at small sizes.
"""

import time
from math import factorial

from hecke_bz.affine.modules import bz_dimension, principal_series
from hecke_bz.reports import (
    resolve_config,
    suite_affine_oracle,
    suite_antispherical,
    suite_bridge,
    suite_finite_relations,
    suite_graded_relations,
    suite_leibniz,
    suite_pieri,
)
from hecke_bz.scalars import QRational

from routes import generic_guard


def announce(number: int, name: str, ok: bool) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} {name}: {verdict}", flush=True)


def config():
    return resolve_config()


def test_criterion_1_speh_derivative_vertical_strips():
    # every partition of n <= 8, every order, exact, under five minutes
    started = time.perf_counter()
    inputs, results, passed = suite_pieri(8, config())
    elapsed = time.perf_counter() - started
    ok = passed and elapsed < 300.0
    announce(1, "speh derivative vertical strips", ok)
    assert passed, results["failures"][:3]
    assert elapsed < 300.0, f"sweep took {elapsed:.1f}s"
    assert inputs["max_n"] == 8


def test_criterion_2_sign_projector_algebra():
    inputs, results, passed = suite_finite_relations(5, config())
    announce(2, "sign projector algebra", passed)
    assert passed, results
    assert inputs["max_n"] == 5


def test_criterion_3_bernstein_multiplication_oracle():
    inputs, results, passed = suite_affine_oracle(3, config())
    random_pairs = sum(
        r["pairs"] for r in results["products"]) - sum(
        (2 * r["n"] - 1) ** 2 for r in results["products"])
    ok = passed and random_pairs >= 200
    announce(3, "bernstein multiplication oracle", ok)
    assert passed, results
    assert random_pairs >= 200
    assert all(m["pass"] for m in results["modules"])
    assert max(m["n"] for m in results["modules"]) == 4


def test_criterion_4_antispherical_sign_action():
    inputs, results, passed = suite_antispherical(4, config())
    triples = sum(r["triples"] for r in results["cases"])
    ok = passed and triples >= 100
    announce(4, "antispherical sign action", ok)
    assert passed, results
    assert triples >= 100
    assert inputs["max_n"] == 4


def test_criterion_5_graded_relations_symbolic():
    inputs, results, passed = suite_graded_relations(7, config())
    announce(5, "graded relations symbolic", passed)
    assert passed, results["failures"][:3]
    assert inputs["max_n"] == 7


def test_criterion_6_derivative_of_induced_modules():
    inputs, results, passed = suite_leibniz(4, config())
    announce(6, "derivative of induced modules", passed)
    assert passed, results["failures"][:3]
    assert inputs["max_n"] == 4


def test_criterion_7_graded_to_affine_transport():
    started = time.perf_counter()
    inputs, results, passed = suite_bridge(5, config())
    elapsed = time.perf_counter() - started
    worst = results["worst_residuals"]
    ok = passed and elapsed < 600.0
    announce(7, "graded to affine transport", ok)
    assert passed, results["failures"][:3]
    assert elapsed < 600.0, f"grid took {elapsed:.1f}s"
    assert worst["relation"] < 1e-8
    assert worst["spectrum"] < 1e-10
    assert worst["compare"] < 1e-6
    assert inputs["q0_grid"] == [2.0, 3.0, 4.0]
    assert sorted(inputs["kappa_over_p_grid"]) == [
        -1.0, -0.5, 0.0, 0.5, 1.0, 1.5]


def test_criterion_8_principal_series_derivative_dimension():
    primes = [2, 3, 5, 7, 11]
    ok = True
    for n in range(1, 6):
        t = tuple(QRational(p) for p in primes[:n])
        generic_guard(t)
        M = principal_series(n, t)
        for i in range(n + 1):
            got = bz_dimension(M, i)
            if got != factorial(n) // factorial(i):
                ok = False
    announce(8, "principal series derivative dimension", ok)
    assert ok
