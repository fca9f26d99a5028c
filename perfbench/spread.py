"""Run-to-run spread of the end-to-end metrics over seeds 1 to 10.

    python3 perfbench/spread.py

Runs the benchmark command of BENCHMARK.json once per seed and workload,
interleaving the workloads so that slow drift of the host's speed spreads
over all of them. Prints every run's record and result lines, then, for
every workload and metric, the median and the distance between the first
and third quartiles as a share of the median, next to the metric's bound.
Exits 1 if any spread exceeds its bound or a run was not correct.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    values = {w: {} for w in workloads}
    ok = True
    for seed in SEEDS:
        for w in workloads:
            proc = subprocess.run(
                spec["command"] + ["--workload", w, "--seed", str(seed),
                                   "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=180)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[-2:]), flush=True)
            result = json.loads(lines[-1])
            ok &= proc.returncode == 0 and result["correct"]
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for w in workloads:
        for name, vals in values[w].items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            flag = ""
            if spread > bounds[name]:
                flag, ok = "  OVER BOUND", False
            elif spread > bounds[name] / 3:
                flag = "  over a third of the bound"
            print(f"{w:15s} {name:12s} median {med:.5g} spread {spread:.4f} "
                  f"bound {bounds[name]}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
