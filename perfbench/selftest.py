"""Self-test of the benchmark's tracer, run from the root of a checkout:

    python3 perfbench/selftest.py

On a tiny case list of each workload, through the same worker a measured
pass uses, it checks that
  1. every layer the workload is meant to exercise reports calls;
  2. every count (calls, ops, cells, mults and the ratios built from them)
     repeats exactly across two traced runs;
  3. an untraced run never imports the tracer, and every case passes its
     verdict and digest check.
Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import os
import sys

import run
import speed

TINY = {
    "affine-blocks": [["principal", 1, "principal", 1, 1, 42],
                      ["principal", 2, "sign", 1, 1, 70]],
    "speh-pieri": [[[2, 1], 1], [[3, 2], 2]],
    "transport": [[[2, 1], 2.0, 0.5]],
    "hecke-words": [["finite", 3, "square"], ["oracle", 2, 0],
                    ["oracle", 2, 20], ["sign", 3, 3], ["assoc", 2, 0]],
}

# The layers each workload exercises; the others may read 0 there.
LAYERS = {
    "affine-blocks": ["scalars.qrational.ops", "linalg.rref.calls",
                      "linalg.kernel_subspace.calls",
                      "linalg.column_space.calls", "linalg.mat_mul.calls",
                      "linalg.restrict_operator.calls",
                      "affine.central_block.calls", "affine.induce.calls",
                      "affine.bz_derivative.calls",
                      "affine.principal_series.calls",
                      "affine.leibniz_check.calls"],
    "speh-pieri": ["scalars.pkpoly.ops", "linalg.mat_mul.calls",
                   "graded.speh_module.calls", "graded.g_bz_derivative.calls",
                   "graded.decompose_as_speh.calls",
                   "graded.pieri_verify.calls", "symgroup.decompose_sn.calls",
                   "symgroup.sign_idempotent_matrix.calls",
                   "combinatorics.vertical_strips.calls",
                   "combinatorics.sn_multiplicities.calls",
                   "combinatorics.standard_tableaux.calls"],
    "transport": ["bridge.matrix_function.calls", "bridge.lambda_functor.calls",
                  "bridge.theta_spectrum_check.calls",
                  "bridge.bridge_bz_compare.calls",
                  "affine.verify_relations.calls", "graded.speh_module.calls",
                  "graded.g_bz_derivative.calls"],
    "hecke-words": ["scalars.qrational.ops", "affine.elements.mul.calls",
                    "affine.oracle_apply.calls",
                    "affine.antispherical_apply.calls",
                    "finite_hecke.mul.calls",
                    "finite_hecke.sign_projector.calls"],
}


def _counts(layers: dict) -> dict:
    return {k: v for k, v in layers.items()
            if not (k.endswith("self_s") or k.endswith("total_s"))}


def main() -> int:
    env = run.pinned_env(os.environ)
    problems = []
    for workload, cases in TINY.items():
        first, second, plain = (run.run_pass(env, workload, 0, mode,
                                             speed.Reference(), cases=cases)
                                for mode in ("1", "1", "0"))
        if None in (first, second, plain):
            problems.append(f"{workload}: a worker failed")
            continue
        idle = [k for k in LAYERS[workload] if not first["layers"][k]]
        if idle:
            problems.append(f"{workload}: no calls recorded for {idle}")
        a, b = _counts(first["layers"]), _counts(second["layers"])
        moved = sorted(k for k in a if a[k] != b[k])
        if moved:
            problems.append(f"{workload}: counts differ between two traced "
                            f"runs: {moved}")
        if plain["tracer_imported"]:
            problems.append(f"{workload}: an untraced run imported the "
                            "tracer")
        for p in (first, second, plain):
            if not all(p["case_ok"]):
                problems.append(f"{workload}: a case failed its check")
                break
        print(f"{workload}: {len(LAYERS[workload]) - len(idle)}/"
              f"{len(LAYERS[workload])} layers seen, {len(a)} counts "
              f"compared")
    for problem in problems:
        print("FAIL " + problem)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
