"""Record the expected result digest and the cost order of every case.

    python3 perfbench/record.py [workload ...]

Run from the root of a source checkout whose results are known to be
right; it rewrites those workloads' entries in perfbench/expected.json.
Each case runs once, in case-space order, in this interpreter with the
same pinned environment as a measured pass.  The measured costs order
the cases into the strata that `workloads.sample` draws from.
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(names) -> int:
    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
    import run

    env = run.pinned_env(os.environ)
    if dict(os.environ) != env:
        # numpy is already loaded, so restart under the pinned environment
        os.execve(sys.executable, [sys.executable, __file__, *names], env)
    import workloads

    path = os.path.join(HERE, "expected.json")
    expected = {}
    if os.path.exists(path):
        with open(path) as fh:
            expected = json.load(fh)
    for workload in names or workloads.WORKLOADS:
        digests, cost = {}, {}
        for case in workloads.case_space(workload):
            key = workloads.case_key(case)
            start = time.perf_counter()
            result = workloads.run_case(workload, case)
            cost[key] = time.perf_counter() - start
            if result.get("pass") is not True:
                raise SystemExit(f"{workload} {key} does not pass: {result}")
            digests[key] = workloads.result_digest(result)
        expected[workload] = {
            "cost_ms": {k: round(1000 * v, 3) for k, v in cost.items()},
            "digests": digests,
        }
        print(f"{workload}: {len(digests)} cases, "
              f"{sum(cost.values()):.1f} s", flush=True)
    with open(path, "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
