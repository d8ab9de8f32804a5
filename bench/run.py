"""kronmesh benchmark: run one workload (or all) and report its metrics.

    python3 bench/run.py --workload kron-sweep --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --all --seed 1 --out all.json

Run from the root of a checkout.  A run executes the seed's request list
again and again, each pass in a fresh worker interpreter (bench/worker.py),
until --seconds have passed; it starts one process at a time and waits for
it, so at most two processes are alive.  --trace 0 reports the end-to-end
metrics, with set-up spawns between the passes; --trace 1 runs each pass
untraced and traced, reports the per-layer metrics and the tracing
overhead, and fails unless both print identical outputs.  The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics; the lines before it say the same for people.  See bench/README.md
for the metrics and workloads.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from tracer import PER_LAYER  # noqa: E402
from worker import nominal, nominal_latencies, reference_s  # noqa: E402
from workloads import WORKLOADS, requests  # noqa: E402

# timings are in nominal seconds: measured seconds scaled by the reference
# loop timed next to them (worker.nominal); README.md says why
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("latency_p50_s", "s"),
    ("latency_tail_s", "s"),
    ("peak_rss_mb", "MB"),
)
# every untraced run makes at least this many passes, whatever --seconds
# says, so that latency_tail_s has its samples; a traced run makes two, one
# in each order
MIN_PASSES = 5
MIN_TRACED_PASSES = 2
# set-up spawns before each untraced pass
SETUP_PER_PASS = 2
TAIL_LADDER = (50, 75, 80, 90, 95, 98, 99, 99.5, 99.9)
# a run must end within this many seconds of starting
RUN_DEADLINE_S = 170
SETUP_CODE = "import kronmesh.cli as c; c.build_parser()"


class BenchError(Exception):
    pass


def _env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "kronmesh").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": nproc(),
        "commit": _git_commit(),
        "src_sha256": _src_digest(),
        "seed": seed,
        "loadavg_before": list(os.getloadavg()),
    }


def _remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 1:
        raise BenchError("run deadline reached")
    return left


def measure_setup(count: int, deadline: float) -> List[Tuple[float, float]]:
    """(seconds, nominal seconds) from spawn to exit of `count` fresh
    interpreters importing kronmesh.cli and building the parser; three
    reference timings before and three after each spawn give its scale."""
    cmd = [sys.executable, "-c", SETUP_CODE]
    samples = []
    for _ in range(count):
        refs = [reference_s() for _ in range(3)]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=_env(), capture_output=True,
                              timeout=_remaining(deadline))
        dt = time.perf_counter() - t0
        refs += [reference_s() for _ in range(3)]
        if proc.returncode != 0:
            raise BenchError(f"set-up spawn failed: {proc.stderr.decode()[-500:]}")
        samples.append((dt, nominal(dt, refs)))
    return samples


def run_worker(workload: str, seed: int, trace: int, check: bool, traced_first: bool,
               deadline: float) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace), "--check", str(int(check)),
           "--traced-first", str(int(traced_first))]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_env(), capture_output=True,
                              timeout=_remaining(deadline))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker for {workload} passed the run deadline")
    if proc.returncode != 0:
        raise BenchError(f"worker for {workload} exited {proc.returncode}: "
                         f"{proc.stderr.decode()[-2000:]}")
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def tail_percentile(workload: str, seed: int) -> float:
    """Highest ladder percentile with at least ten samples beyond it in the
    shortest run allowed (MIN_PASSES passes).  Fixed per workload so a
    faster program does not move the percentile it is judged at."""
    n = MIN_PASSES * len(requests(workload, seed))
    return max(p for p in TAIL_LADDER if n * (100 - p) / 100 >= 10)


def percentile(values: List[float], p: float) -> float:
    """Nearest-rank percentile."""
    xs = sorted(values)
    return xs[max(0, math.ceil(p / 100 * len(xs)) - 1)]


def end_to_end(passes: List[dict], setup: List[Tuple[float, float]], tail_p: float) -> dict:
    lat = [nominal_latencies(p["plain"]["latencies"], p["plain"]["references"])
           for p in passes]
    flat = [x for xs in lat for x in xs]
    return {
        "setup_s": statistics.median(nom for _, nom in setup),
        "wall_s": statistics.median(sum(xs) for xs in lat),
        "latency_p50_s": statistics.median(flat),
        "latency_tail_s": percentile(flat, tail_p),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def measured(passes: List[dict], setup: List[Tuple[float, float]], tail_p: float) -> dict:
    """The same timings in measured seconds, for people; they move with
    the machine's speed."""
    lat = [x for p in passes for x in p["plain"]["latencies"]]
    return {
        "setup_s": statistics.median(dt for dt, _ in setup),
        "wall_s": statistics.median(p["plain"]["wall_s"] for p in passes),
        "cpu_s": statistics.median(p["plain"]["cpu_s"] for p in passes),
        "latency_p50_s": statistics.median(lat),
        "latency_tail_s": percentile(lat, tail_p),
        "reference_s": statistics.median(r for p in passes for r in p["plain"]["references"]),
    }


def per_layer(passes: List[dict]) -> dict:
    """Median over the passes of each per-layer metric, per request list."""
    values = {name: statistics.median(p["layers"][name] for p in passes)
              for name in passes[0]["layers"]}
    values["trace.overhead_s"] = statistics.median(
        sum(nominal_latencies(p["traced"]["latencies"], p["traced"]["references"]))
        - sum(nominal_latencies(p["plain"]["latencies"], p["plain"]["references"]))
        for p in passes)
    return values


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Everything one run measures, as a record."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    record = {"workload": workload, "trace": trace, "seconds": seconds,
              "env": environment(seed)}
    tail_p = tail_percentile(workload, seed)
    min_passes = MIN_TRACED_PASSES if trace else MIN_PASSES
    passes, setup = [], []
    if not trace:
        measure_setup(1, deadline)  # warms the bytecode cache; not counted
    start = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - start < seconds:
        if not trace:
            setup += measure_setup(SETUP_PER_PASS, deadline)
        # the first pass also runs the oracle checks, after its timed part
        passes.append(run_worker(workload, seed, trace, not passes,
                                 len(passes) % 2 == 1, deadline))
    measured_s = time.perf_counter() - start

    failures = [f for p in passes for f in p["failures"]]
    first = passes[0]["plain"]["digests"]
    for k, p in enumerate(passes[1:], start=1):
        failures += [f"pass {k} request {i}: output differs from pass 0"
                     for i, (a, b) in enumerate(zip(first, p["plain"]["digests"])) if a != b]
    if trace:
        values = per_layer(passes)
        units = dict(PER_LAYER)
        record["metrics"] = {k: {"value": values[k], "unit": units[k]} for k, _ in PER_LAYER}
        record["absent"] = sorted({name for p in passes for name in p["absent"]})
        record["untraced_wall_s"] = statistics.median(p["plain"]["wall_s"] for p in passes)
        record["traced_wall_s"] = statistics.median(p["traced"]["wall_s"] for p in passes)
        record["traced_outputs_identical"] = not any(
            "traced output differs" in f for f in failures)
    else:
        values = end_to_end(passes, setup, tail_p)
        units = dict(END_TO_END)
        record["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
        record["measured"] = measured(passes, setup, tail_p)
        record["setup_samples_s"] = [dt for dt, _ in setup]
    oracle_failures = passes[0]["oracle_failures"]
    attempted = sum(p["attempted"] for p in passes)
    failed = len(failures) + len(oracle_failures)
    lat = [x for p in passes for x in p["plain"]["latencies"]]
    record.update({
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "failures": failures[:20],
        "oracle_checked": passes[0]["oracle_checked"],
        "oracle_failures": oracle_failures,
        "passes": len(passes),
        "requests_per_list": len(requests(workload, seed)),
        "measured_s": measured_s,
        "latency_tail_percentile": tail_p,
        "latency_samples": len(lat),
        "latency_beyond_tail": sum(1 for x in lat if x > percentile(lat, tail_p)),
        "pass_wall_s": [p["plain"]["wall_s"] for p in passes],
        "outputs_sha256": hashlib.sha256("".join(first).encode()).hexdigest(),
        "package": passes[0]["package"],
    })
    record["env"]["loadavg_after"] = list(os.getloadavg())
    return record


def report(record: dict, out=sys.stdout) -> None:
    env = record["env"]
    print(f"workload {record['workload']}  seed {env['seed']}  trace {record['trace']}  "
          f"{record['passes']} passes x {record['requests_per_list']} requests "
          f"in {record['measured_s']:.1f} s", file=out)
    print(f"  python {env['python']}  nproc {env['nproc']}  commit {env['commit']}  "
          f"load {env['loadavg_before'][0]:.2f} -> {env['loadavg_after'][0]:.2f}",
          file=out)
    for name, m in record["metrics"].items():
        note = ""
        if name == "latency_tail_s":
            note = (f"  p{record['latency_tail_percentile']:g} of "
                    f"{record['latency_samples']} requests, "
                    f"{record['latency_beyond_tail']} beyond")
        if name in record.get("absent", ()):
            note = "  absent: the function no longer exists"
        print(f"  {name:42s} {m['value']:.6g} {m['unit']}{note}", file=out)
    if "measured" in record:
        print("  measured seconds, which move with the machine's speed:", file=out)
        for name, value in record["measured"].items():
            print(f"    {name:40s} {value:.6g} s", file=out)
    if record["trace"]:
        print(f"  tracing overhead {record['metrics']['trace.overhead_s']['value']:.4f} s "
              f"per request list (median over passes; traced wall_s "
              f"{record['traced_wall_s']:.4f} s, untraced {record['untraced_wall_s']:.4f} s); "
              f"outputs identical: {record['traced_outputs_identical']}", file=out)
    print(f"  failed_frac {record['failed_frac']:g} ({record['failed']} of "
          f"{record['attempted']}); oracle-checked kinds: "
          f"{', '.join(record['oracle_checked'])}", file=out)
    print(f"  outputs sha256: {record['outputs_sha256']}", file=out)
    for line in record["failures"] + record["oracle_failures"]:
        print(f"  FAILED {line}", file=out)


def warn_load(record: dict) -> None:
    env = record["env"]
    worst = max(env["loadavg_before"][0], env["loadavg_after"][0])
    if worst > env["nproc"]:
        print(f"warning: load average {worst:.2f} exceeds nproc {env['nproc']}; "
              f"timings are unreliable", file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--all", action="store_true",
                    help="run every workload untraced and traced, print a table")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, default=None,
                    help="also write the full record(s) as JSON here")
    args = ap.parse_args(argv)
    if not args.all and not args.workload:
        ap.error("give --workload NAME or --all")

    missing = [p for p in ("src/kronmesh/cli.py", "tests/oracles.py")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a kronmesh checkout, missing {', '.join(missing)} "
              f"under {ROOT}", file=sys.stderr)
        return 2

    jobs = ([(w, t) for w in WORKLOADS for t in (0, 1)] if args.all
            else [(args.workload, args.trace)])
    records = []
    for workload, trace in jobs:
        try:
            record = run_workload(workload, args.seed, args.seconds, trace)
        except (BenchError, subprocess.SubprocessError, ValueError, KeyError) as e:
            print(f"error: {workload}: {e}", file=sys.stderr)
            return 1
        records.append(record)
        report(record)
        warn_load(record)
    if args.out:
        args.out.write_text(json.dumps(records if args.all else records[0], indent=1) + "\n")
    if args.all:
        return 0 if all(r["failed"] == 0 for r in records) else 1
    record = records[0]
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
