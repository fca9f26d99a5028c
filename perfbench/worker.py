"""One workload process: set up, run timed operations, check every output.

Run by run.py, never by hand:

    python3 perfbench/worker.py setup|run --workload NAME --seed N
        --seconds S --trace 0|1 --root DIR --workdir DIR

`setup` imports gmacsec.cli, generates the inputs and prints the moment it
was ready. `run` does the same and then measures: tracing off, it repeats
the operation for S seconds; tracing on, it alternates untraced and traced
operations. It prints one JSON document on stdout. The host-speed probe
(probe.py) samples from before the import until the inputs are ready, and
during every untraced operation.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import resource
import statistics
import sys
import time
import traceback

from probe import SpeedProbe


def machine() -> dict:
    """The host and library versions a result was measured with."""
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        # assemble_region's default pool size
        "jobs_default": os.cpu_count(),
        "platform": platform.platform(),
    }


def _import_program(root: pathlib.Path):
    sys.path.insert(0, str(root / "src"))
    import gmacsec.cli  # noqa: F401  (set-up includes this import)
    import gmacsec

    where = pathlib.Path(gmacsec.__file__).resolve()
    if root.resolve() not in where.parents:
        raise SystemExit(f"gmacsec was imported from {where}, outside {root}")


def _timed(workload, state, instrumentation=None, probe=None):
    """Time one operation, with tracing when instrumentation is given, then
    check its output with tracing off. With a probe, also returns the host's
    slowdown during the operation and the seconds the probe took in it."""
    error = None
    if instrumentation is not None:
        instrumentation.install()
    if probe is not None:
        probe.start()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        output = workload.op(state)
    except Exception as exc:  # an operation that raises is a counted failure
        output, error = None, f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    slowdown, spent = probe.stop() if probe is not None else (None, 0.0)
    if instrumentation is not None:
        instrumentation.remove()
    if error is None:
        try:
            problems = workload.check(state, output)
        except Exception:
            problems = ["check raised: " + traceback.format_exc(limit=3)]
    else:
        problems = [error]
    return (wall, cpu, slowdown, spent), problems


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--root", required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()

    probe = SpeedProbe()
    probe.start()
    root = pathlib.Path(args.root)
    _import_program(root)
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    workdir = pathlib.Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    state = workload.prepare(args.seed, workdir)
    ready = time.monotonic()
    setup_probe = probe.stop()
    if args.mode == "setup":
        print(json.dumps({"ready": ready, "setup_probe": setup_probe}))
        return 0

    plain, traced, failures = [], [], []
    tracer = None
    modes = [(plain, {"probe": probe})]
    if args.trace:
        from spans import Instrumentation, Tracer

        tracer = Tracer()
        modes.append((traced, {"instrumentation": Instrumentation(tracer)}))
    failed = 0
    start = time.perf_counter()
    while True:
        for record, how in modes:
            times, problems = _timed(workload, state, **how)
            record.append(times)
            failed += bool(problems)
            failures.extend(problems)
        if time.perf_counter() - start >= args.seconds:
            break

    doc = {
        "ready": ready,
        "setup_probe": setup_probe,
        "plain": plain,
        "traced": traced,
        "failed": failed,
        "failures": failures[:20],
        # the probe's fixed loops: context for readers, not gated
        "calibration_s": probe.loop_means(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "machine": machine(),
    }
    if tracer is not None:
        traced_wall = sum(t[0] for t in traced)
        doc["self_check"] = tracer.self_check(
            traced_wall, workload.expected_schemes(tracer, len(traced)))
        doc["seconds"] = dict(tracer.seconds)
        doc["counts"] = dict(tracer.counts)
        doc["threads"] = len(tracer.threads)
        doc["overhead_ratio"] = (statistics.median(t[0] for t in traced)
                                 / statistics.median(t[0] - t[3] for t in plain))
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
