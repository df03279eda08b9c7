"""One pass of one workload, in a fresh interpreter started by run.py.

    python3 perfbench/worker.py <workload> <seed> <order> <spawned>
        <trace 0|1> <spans file> <ask fd> <done fd> [cases]

`spawned` is the parent's time.monotonic() just before it started this
process, so set-up time counts the interpreter start, `import hecke_bz`
and case generation.  The pass runs the seed's sample of cases in its
shuffled order number `order`; `cases`, a JSON list, replaces the sample
(the self-test uses it).  With `setup` in place of the trace flag the
worker stops once its cases are ready.

Every SAMPLE_EVERY_S, between two cases, the worker writes a byte to the
`ask` pipe and blocks until the parent, having timed its reference
snippet, writes one back on `done`.  `run_s` runs from the first case's
start to the last verdict, less those waits: the sum of the `stretches`
between them.  All times are raw wall times, reported with their
time.monotonic() windows for the parent to scale.  The pass's result is
one JSON object on stdout.  Untraced passes never import the tracer.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SAMPLE_EVERY_S = 0.1


def main(argv) -> int:
    workload, seed, order, spawned, trace, spans_path = argv[:6]
    ask, done = int(argv[6]), int(argv[7])
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import hecke_bz
    from hecke_bz.linalg import BACKEND

    import workloads

    if not os.path.abspath(hecke_bz.__file__).startswith(ROOT + os.sep):
        raise RuntimeError(f"hecke_bz imported from {hecke_bz.__file__}")
    with open(os.path.join(ROOT, "perfbench", "expected.json")) as fh:
        expected = json.load(fh)[workload]
    if len(argv) > 8:
        cases = json.loads(argv[8])
    else:
        cases = workloads.sample(workload, int(seed), expected["cost_ms"],
                                 int(order))
    setup_s = time.monotonic() - float(spawned)
    if trace == "setup":
        json.dump({"setup_s": setup_s}, sys.stdout)
        return 0

    tracer = None
    if trace == "1":
        import layertrace

        tracer = layertrace.Tracer()
        tracer.install(extra_modules=[workloads])

    windows, results, errors = [], [], []
    stretches = []
    sampled = stretch = time.monotonic()
    for case in cases:
        if time.monotonic() - sampled >= SAMPLE_EVERY_S:
            stretches.append((stretch, time.monotonic()))
            os.write(ask, b"s")
            os.read(done, 1)
            sampled = stretch = time.monotonic()
        start = time.monotonic()
        try:
            result = workloads.run_case(workload, case)
        except Exception:
            result = None
            errors.append([case, traceback.format_exc(limit=3)])
        windows.append((start, time.monotonic()))
        results.append(result)

    want = expected["digests"]
    case_ok = []
    for case, result in zip(cases, results):
        got = None if result is None else workloads.result_digest(result)
        case_ok.append(result is not None and result.get("pass") is True
                       and got == want.get(workloads.case_key(case)))
    stretches.append((stretch, time.monotonic()))

    if tracer is not None:
        tracer.uninstall()
        if spans_path:
            with open(spans_path, "w") as fh:
                for span in tracer.spans:
                    fh.write(json.dumps(span) + "\n")
    out = {
        "setup_s": setup_s,
        "run_s": sum(end - start for start, end in stretches),
        "stretches": stretches,
        "case_windows": windows,
        "case_ok": case_ok,
        "errors": errors,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "tracer_imported": "layertrace" in sys.modules,
        "layers": None if tracer is None else tracer.metrics(),
        "env": {
            "python": sys.version.split()[0],
            "numpy": sys.modules["numpy"].__version__,
            "backend": BACKEND,
            "hash_seed": os.environ.get("PYTHONHASHSEED"),
            "openblas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        },
    }
    json.dump(out, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
