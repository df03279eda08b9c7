"""The hecke-bz benchmark: one workload, measured end to end or traced by layer.

    python3 perfbench/run.py --workload speh-pieri --seed 1 --seconds 25 --trace 0

Run it from the root of a source checkout.  Each pass starts a fresh,
single-threaded interpreter (perfbench/worker.py) that imports the package
from `src/`, draws the seed's sample of the workload's cases and drives
each through the package's public functions, the way `hecke-bz verify`
does.  Passes repeat until `--seconds` have gone by, with set-up probes
between them.  Every case's verdict and the sha256 of its result are
checked against `expected.json`.  Times are scaled by a machine-speed
reference timed in this process (speed.py).

The last line of stdout is one JSON object: `correct`, `attempted`,
`failed` and `metrics`.  With `--trace 0` the metrics are the end-to-end
ones of BENCHMARK.json; with `--trace 1` they are the per-layer ones, from
traced passes that alternate with untraced ones.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import select
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import speed  # noqa: E402

WORKLOADS = ("affine-blocks", "speh-pieri", "transport", "hecke-words")
SETUP_EVERY_S = 1.0
MIN_SETUP_PROBES = 5
DEADLINE_S = 170.0
OUT_DIR = os.path.join(".bench_build", "perfbench")

# Settings that `hecke_bz.reports.resolve_config` and `hecke_bz.linalg`
# read from the environment; a stray one would change what is measured.
_PACKAGE_ENV = ("HECKEBZ_Q0", "HECKEBZ_TOL", "HECKEBZ_CLUSTER_TOL",
                "HECKEBZ_THREADS", "HECKEBZ_LINALG")


def pinned_env(base: dict) -> dict:
    """The measured interpreter's environment: no package settings, one
    BLAS thread, a fixed hash seed and no bytecode written (run.py
    compiles `src/` and `perfbench/` first, so nothing is written outside
    the checkout)."""
    env = {k: v for k, v in base.items()
           if k not in _PACKAGE_ENV and k != "PYTHONPATH"}
    env.update({
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "PYTHONHASHSEED": "0",
        "PYTHONDONTWRITEBYTECODE": "1",
    })
    return env


def percentile(values: list, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def git_sha(root: str) -> str:
    try:
        out = subprocess.run(["git", "--git-dir", os.path.join(root, ".git"),
                              "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_pass(env, workload, seed, mode, ref, spans_path="",
             timeout=DEADLINE_S, cases=None, order=0):
    """One fresh worker interpreter, running the seed's cases in their
    order number `order`; mode is "0" (untraced), "1" (traced) or "setup"
    (stop once the cases are ready).  `ref`, a speed.Reference,
    is sampled before the worker starts, whenever it asks, and after it
    ends.  Returns the worker's result with the time it was `spawned`, or
    None if it failed or timed out."""
    os.makedirs(OUT_DIR, exist_ok=True)
    out_path = os.path.join(OUT_DIR, "pass.json")
    err_path = os.path.join(OUT_DIR, "pass.err")
    ask_r, ask_w = os.pipe()
    done_r, done_w = os.pipe()
    ref.sample()
    spawned = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload,
           str(seed), str(order), repr(spawned), mode, spans_path,
           str(ask_w), str(done_r)]
    if cases is not None:
        cmd.append(json.dumps(cases))
    with open(out_path, "w") as out, open(err_path, "w") as err:
        proc = subprocess.Popen(cmd, env=env, stdout=out, stderr=err,
                                pass_fds=(ask_w, done_r))
    os.close(ask_w)
    os.close(done_r)
    deadline = spawned + max(timeout, 1.0)
    try:
        while True:
            left = deadline - time.monotonic()
            ready, _, _ = select.select([ask_r], [], [], max(left, 0.0))
            if not ready or not os.read(ask_r, 1):
                break
            ref.sample()
            os.write(done_w, b"d")
        proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
    except (OSError, subprocess.TimeoutExpired):
        pass
    finally:
        os.close(ask_r)
        os.close(done_w)
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    ref.sample()
    if time.monotonic() > deadline:
        print(f"pass timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        with open(err_path) as fh:
            print(fh.read(), file=sys.stderr)
        return None
    with open(out_path) as fh:
        result = json.load(fh)
    result["spawned"] = spawned
    return result


def measure(workload, seed, seconds, trace, root):
    """Passes until `seconds` have gone by, with a set-up probe every
    SETUP_EVERY_S between them; with tracing, untraced and traced passes
    alternate and set-up is not probed.  Returns the probes, the passes,
    how many workers failed and the run's reference samples."""
    env = pinned_env(os.environ)
    # the reference snippet and the workers share one CPU, so a sample
    # measures the speed of the CPU the cases run on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    subprocess.run([sys.executable, "-m", "compileall", "-q",
                    os.path.join(root, "src"), HERE],
                   env=env, check=True, capture_output=True, timeout=120)
    spans_path = os.path.join(root, OUT_DIR, f"spans-{workload}.jsonl")
    ref = speed.Reference()
    setups, plain, traced = [], [], []
    started = time.monotonic()
    while True:
        elapsed = time.monotonic() - started
        if not trace and len(setups) < max(1.0, elapsed / SETUP_EVERY_S):
            mode = "setup"
        elif plain and (traced or not trace) and (
                elapsed * (1.0 + 1.0 / (len(plain) + len(traced))) > seconds
                or elapsed > DEADLINE_S / 2):
            break
        else:
            mode = "1" if trace and len(traced) < len(plain) else "0"
        out = run_pass(env, workload, seed, mode, ref,
                       spans_path if mode == "1" else "", DEADLINE_S - elapsed,
                       order=len(plain) + len(traced))
        if out is None:
            return setups, plain, traced, 1, ref
        {"setup": setups, "0": plain, "1": traced}[mode].append(out)
    while not trace and len(setups) < MIN_SETUP_PROBES:
        out = run_pass(env, workload, seed, "setup", ref)
        if out is None:
            return setups, plain, traced, 1, ref
        setups.append(out)
    return setups, plain, traced, 0, ref


def summarize(setups, plain, traced, crashed, ref, trace):
    """The result's verdict, counts, metrics and notes; every time is
    scaled by the reference samples around it."""
    passes = plain + traced
    attempted = sum(len(p["case_ok"]) for p in passes) + crashed
    failed = sum(p["case_ok"].count(False) for p in passes) + crashed
    tracer_leak = any(p["tracer_imported"] for p in plain)
    for p in passes:
        for case, tb in p["errors"]:
            print(f"case {case} raised:\n{tb}", file=sys.stderr)
    if tracer_leak:
        print("an untraced pass imported the tracer", file=sys.stderr)
    correct = failed == 0 and not tracer_leak

    for p in passes:
        scaled = sum((end - start) * ref.scale(start, end)
                     for start, end in p["stretches"])
        p["scale"] = scaled / p["run_s"]
    run_s = statistics.median(p["run_s"] * p["scale"] for p in plain)
    if not trace:
        case_ms = [1000.0 * (end - start) * ref.scale(start, end)
                   for p in plain for start, end in p["case_windows"]]
        setup_s = [p["setup_s"] * ref.scale(p["spawned"],
                                            p["spawned"] + p["setup_s"])
                   for p in setups]
        metrics = {
            "setup_s": (statistics.median(setup_s), "s"),
            "run_s": (run_s, "s"),
            "case_ms_p50": (percentile(case_ms, 50), "ms"),
            "case_ms_p90": (percentile(case_ms, 90), "ms"),
            "peak_rss_mb": (statistics.median(p["peak_rss_mb"]
                                              for p in plain), "MB"),
        }
        notes = [
            f"passes {len(plain)}, set-up probes {len(setups)}, case samples "
            f"{len(case_ms)} ({len(case_ms) // 10} beyond p90)",
            "raw wall times: run_s {:.3f} s, setup_s {:.3f} s; reference "
            "snippet {:.2f} ms (scaled to {:.2f} ms)".format(
                statistics.median(p["run_s"] for p in plain),
                statistics.median(p["setup_s"] for p in setups),
                1000.0 * statistics.median(ref.durations),
                1000.0 * speed.REFERENCE_S),
        ]
    else:
        import layertrace

        metrics = {}
        for name in layertrace.metric_names():
            timed = name.endswith("_s")
            values = [p["layers"][name] * (p["scale"] if timed else 1.0)
                      for p in traced]
            unit = "s" if timed else (
                "ratio" if name.endswith("_ratio") else "count")
            metrics[name] = (statistics.median(values), unit)
        traced_run_s = statistics.median(p["run_s"] * p["scale"]
                                         for p in traced)
        metrics["trace.overhead_ratio"] = (traced_run_s / run_s, "ratio")
        notes = [f"passes {len(plain)} untraced, {len(traced)} traced; "
                 f"traced run_s {traced_run_s:.3f} s, untraced "
                 f"{run_s:.3f} s"]
    return correct, attempted, failed, metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "hecke_bz",
                                       "__init__.py")):
        print("run from the root of a hecke-bz source checkout "
              "(src/hecke_bz is missing)", file=sys.stderr)
        return 2

    setups, plain, traced, crashed, ref = measure(
        args.workload, args.seed, args.seconds, bool(args.trace), root)
    if not plain or (args.trace and not traced):
        print("no pass completed; nothing was measured", file=sys.stderr)
        return 1
    correct, attempted, failed, metrics, notes = summarize(
        setups, plain, traced, crashed, ref, bool(args.trace))

    env = dict(plain[0]["env"])
    env.update({"nproc": os.cpu_count(),
                "affinity": len(os.sched_getaffinity(0)),
                "git_sha": git_sha(root), "workload": args.workload,
                "seed": args.seed, "seconds": args.seconds,
                "trace": args.trace})
    print("env " + json.dumps(env, sort_keys=True))
    for note in notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:16.6f} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
