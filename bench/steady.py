"""Run-to-run spread of the end-to-end metrics against BENCHMARK.json.

    python3 bench/steady.py --runs 10 [--workload kron-deep ...] [--out FILE]

Runs the benchmark command once per seed 1..runs for each workload, one
run at a time, for BENCHMARK.json's run_seconds, and records how long each
run took.  For each metric it prints
the median and the spread: the distance between the first and third quartiles
(statistics.quantiles, n=4) as a share of the median, next to the metric's
bound.  A spread of a third of the bound or more marks the metric as
unsteady: a comparison against its median is unresolved.  Runs that report
failed requests still count toward the spread; their seeds are listed.
--out writes every value with its summary as JSON.
"""
from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summarize(values, bound: float) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med
    return {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "steady": spread < bound / 3, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append", default=None)
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args(argv)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = list(range(1, args.runs + 1))
    seconds = spec["run_seconds"]
    summary = {"python": platform.python_version(), "seconds": seconds,
               "seeds": seeds, "workloads": {}}
    unsteady = 0
    for workload in workloads:
        values = {name: [] for name in bounds}
        incorrect, elapsed = [], []
        for seed in seeds:
            t0 = time.monotonic()
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
            elapsed.append(time.monotonic() - t0)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                incorrect.append(seed)
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        summary["workloads"][workload] = {
            name: summarize(xs, bounds[name]) for name, xs in values.items()}
        summary["workloads"][workload]["incorrect_seeds"] = incorrect
        summary["workloads"][workload]["run_elapsed_s"] = elapsed
        print(f"{workload:12s} runs took {min(elapsed):.1f} to {max(elapsed):.1f} s")
        if incorrect:
            print(f"{workload:12s} failed requests at seeds {incorrect}")
        for name in bounds:
            s = summary["workloads"][workload][name]
            flag = "" if s["steady"] else "  UNSTEADY"
            if flag and name != "setup_s":
                unsteady += 1
            print(f"{workload:12s} {name:16s} median {s['median']:<12.6g} "
                  f"spread {s['spread']:6.3f} bound {s['bound']:.2f}{flag}")
        sys.stdout.flush()
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 1 if unsteady else 0


if __name__ == "__main__":
    sys.exit(main())
