"""gmacsec benchmark: end-to-end and per-layer metrics for four workloads.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

With --trace 0 the last line of stdout is a JSON object whose metrics are
the end-to-end metrics of BENCHMARK.json; with --trace 1 they are its
per-layer metrics, read from that file. The line before it is a JSON record with the machine,
the host-speed probe, every operation's times and any failed check.
`--workload all` runs every workload in turn with the same seed.
See perfbench/README.md for what each metric and workload means.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
# Fresh interpreters timed for setup_s before the measuring process, and
# as many after it, so that the samples span the run's host drift.
SETUP_SAMPLES = 3
WORKER_TIMEOUT = 160.0

def _program_env() -> dict:
    """The environment users get: no state-guard override."""
    env = dict(os.environ)
    env.pop("GMAC_MAX_STATES", None)
    return env


def _worker(mode, args, workload, workdir):
    cmd = [sys.executable, str(WORKER), mode, "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--root", str(ROOT),
           "--workdir", str(workdir)]
    started = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                          env=_program_env(), timeout=WORKER_TIMEOUT, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} worker for {workload} exited {proc.returncode}")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    doc["raw_setup_s"] = doc["ready"] - started
    doc["setup_s"] = _scaled(doc["raw_setup_s"], *doc["setup_probe"])
    return doc


def _scaled(seconds, slowdown, probe_s):
    """Seconds at the probe's reference host speed (see probe.py); raw
    seconds when the probe did not run."""
    if slowdown is None:
        return seconds
    return (seconds - probe_s) / slowdown


def _metric(value, unit):
    return {"value": value, "unit": unit}


def run_workload(args, workload) -> dict:
    workdir = ROOT / ".perfbench_work" / f"{workload}-{os.getpid()}"
    # per-layer metrics hold no setup_s, so a traced run skips the samples
    samples = 0 if args.trace else SETUP_SAMPLES
    try:
        setups = [_worker("setup", args, workload, workdir)
                  for _ in range(samples)]
        doc = _worker("run", args, workload, workdir)
        setups += [_worker("setup", args, workload, workdir)
                   for _ in range(samples)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run is still using it
    setups.append(doc)
    plain = doc["plain"]
    attempted = len(plain) + len(doc["traced"])
    failed = doc["failed"]
    problems = list(doc["failures"])
    if args.trace:
        problems += doc["self_check"]
        ops = len(doc["traced"])
        # counters and self times are per traced operation
        source = {"count": doc["counts"], "s": doc["seconds"]}
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        metrics = {}
        for m in spec["per_layer"]:
            if m["name"] == "trace.overhead_ratio":
                value = doc["overhead_ratio"]
            else:
                value = source[m["unit"]].get(m["name"], 0) / ops
            metrics[m["name"]] = _metric(value, m["unit"])
    else:
        slowdowns = [t[2] for t in plain if t[2] is not None]
        if not slowdowns:
            raise ValueError("the host-speed probe took no sample")
        fallback = statistics.median(slowdowns)
        op_wall = [_scaled(w, s or fallback, p) for w, _, s, p in plain]
        op_cpu = [_scaled(c, s or fallback, p) for _, c, s, p in plain]
        metrics = {
            "wall_s": _metric(statistics.fmean(op_wall), "s"),
            "cpu_s": _metric(statistics.fmean(op_cpu), "s"),
            "setup_s": _metric(statistics.median(d["setup_s"] for d in setups), "s"),
            "peak_rss_mb": _metric(doc["peak_rss_mb"], "MB"),
            "ok_ratio": _metric((attempted - failed) / attempted, "ratio"),
        }
    record = {
        "workload": workload,
        "seed": args.seed,
        "trace": args.trace,
        "operations": {"untraced": len(plain), "traced": len(doc["traced"])},
        "error_ratio": failed / attempted,
        "problems": problems,
        "machine": {**doc["machine"], "traced_threads": doc.get("threads")},
        "calibration_s": doc["calibration_s"],
        # measured seconds, before scaling to the reference host speed
        "raw_setup_s": [d["raw_setup_s"] for d in setups],
        "raw_op_wall_s": [t[0] for t in plain],
        "raw_op_cpu_s": [t[1] for t in plain],
        "op_slowdown": [t[2] for t in plain],
        "op_probe_s": [t[3] for t in plain],
        "setup_slowdown": [d["setup_probe"][0] for d in setups],
        "traced_wall_s": [t[0] for t in doc["traced"]],
    }
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics, "record": record}


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "gmacsec" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no gmacsec sources under {ROOT / 'src'}\n")
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        try:
            results[name] = run_workload(args, name)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
            sys.stderr.write(f"perfbench: {name}: {type(exc).__name__}: {exc}\n")
            return 1
        print(json.dumps(results[name]["record"]))
        for problem in results[name]["record"]["problems"]:
            sys.stderr.write(f"perfbench: {name}: {problem}\n")
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}/{k}": v for n, r in results.items()
                   for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
