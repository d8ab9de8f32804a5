"""One pass over a workload's request list in a fresh interpreter: run.py
starts one worker at a time, reads the JSON line it prints last, and waits
for it to end.

The worker runs the seed's request list once with one in-process client:
each request calls kronmesh.cli.main(argv) with stdout and stderr captured
in memory.  Only the call itself is timed; output checks, digests and
bookkeeping happen between timed calls.  Before each request and after the
last, the worker also times a fixed pure-Python loop, the reference, so
that run.py can scale each latency to nominal seconds and the machine's
speed, which on a shared host drifts by half or more, cancels.  With
--trace 1 it runs the list twice, untraced and traced (in the order
--traced-first gives), and reports the per-layer totals of the traced pass.  With --check 1 it then runs one
request of each kind again and compares it with the oracles.

    python3 bench/worker.py --workload kron-deep --seed 1 --trace 0 --check 1
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import List

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
from workloads import WORKLOADS, requests  # noqa: E402

# iterations of the reference loop: 1.2 to 1.9 ms with CPython 3.11 on the
# 2-vCPU Xeon host the benchmark was defined on
REFERENCE_ITERATIONS = 20000
# the reference time that nominal seconds assume
NOMINAL_REFERENCE_S = 0.0015


def reference_s() -> float:
    """Seconds for the fixed reference loop: pure Python with no kronmesh,
    so a change to the program cannot move it."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(REFERENCE_ITERATIONS):
        acc += i * i % 7
    return time.perf_counter() - t0


def nominal(seconds: float, refs: List[float]) -> float:
    """`seconds` on a machine whose reference loop takes NOMINAL_REFERENCE_S,
    given reference times measured next to them."""
    return seconds * NOMINAL_REFERENCE_S / statistics.median(refs)


def nominal_latencies(latencies: List[float], refs: List[float]) -> List[float]:
    """Each request's latency in nominal seconds, scaled by the two
    reference timings before it and the two after it (refs[i] is timed
    just before request i, refs[-1] after the last)."""
    return [nominal(x, refs[max(0, i - 1):i + 3]) for i, x in enumerate(latencies)]


def _call(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            code = cli.main(list(argv))
        except Exception as e:  # a traceback is a failed request, not a crash
            code = f"raised {type(e).__name__}: {e}"
        wall1, cpu1 = time.perf_counter(), time.process_time()
    return code, out.getvalue(), wall1 - wall0, cpu1 - cpu0


def _digest(code, out: str) -> str:
    return hashlib.sha256(f"{code}\0{out}".encode()).hexdigest()


def run_list(workload: str, seed: int, trace: bool = False, check: bool = False,
             traced_first: bool = False) -> dict:
    """Run the request list once (untraced and traced with `trace`) and
    return the worker's record.

    A request fails on a wrong exit code or output shape (untraced pass),
    on a traced output that differs from its untraced twin, or on an oracle
    check, so each request run counts at most once in `failures`."""
    import kronmesh.cli as cli

    reqs = requests(workload, seed)
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
    # kind -> (request, output digest); the output itself is made again
    # after the timed region, so it does not inflate peak_rss_mb
    sampled = {}
    failures = []

    def run_pass(traced: bool) -> dict:
        digests, latencies, cpu, refs = [], [], [], []
        for i, req in enumerate(reqs):
            refs.append(reference_s())
            if traced:
                tracer.begin_request(i)
            code, out, dt, dcpu = _call(cli, req.argv)
            if traced:
                tracer.end_request()
            latencies.append(dt)
            cpu.append(dcpu)
            digests.append(_digest(code, out))
            if traced:
                continue
            reason = checks.shape_check(req, code, out) if isinstance(code, int) else code
            if reason:
                failures.append(f"request {i} ({' '.join(req.argv)}): {reason}")
            elif req.kind not in sampled:
                sampled[req.kind] = (req, digests[-1])
        refs.append(reference_s())
        return {"wall_s": sum(latencies), "cpu_s": sum(cpu), "latencies": latencies,
                "references": refs, "digests": digests}

    if tracer is None:
        plain = run_pass(False)
    else:
        for traced in ((True, False) if traced_first else (False, True)):
            if traced:
                tracer.install()
                try:
                    traced_pass = run_pass(True)
                finally:
                    tracer.uninstall()
            else:
                plain = run_pass(False)
        pairs = zip(plain["digests"], traced_pass["digests"])
        failures += [f"request {i}: traced output differs"
                     for i, (u, t) in enumerate(pairs) if u != t]
    # the high-water mark of the timed region, before the oracles load mpmath
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    oracle_failures = []
    if check:
        check_rng = random.Random(f"check/{workload}/{seed}")
        for kind, (req, digest) in sorted(sampled.items()):
            code, out, _, _ = _call(cli, req.argv)
            if _digest(code, out) != digest:
                oracle_failures.append(f"{' '.join(req.argv)}: output differs when run again")
                continue
            try:
                errs = checks.oracle_check(req, out, check_rng)
            except Exception as e:  # a check that cannot parse the output fails it
                errs = [f"oracle check raised {type(e).__name__}: {e}"]
            if errs:
                oracle_failures.append(f"{' '.join(req.argv)}: {'; '.join(errs[:3])}")

    result = {
        "package": str(Path(cli.__file__).resolve().parent),
        "plain": plain,
        "attempted": len(reqs) * (2 if tracer else 1),
        "failures": failures,
        "oracle_checked": sorted(sampled) if check else [],
        "oracle_failures": oracle_failures,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer:
        values, absent = tracer.layer_metrics(1)
        result.update(traced=traced_pass, layers=values, absent=absent)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--traced-first", type=int, choices=(0, 1), default=0)
    ap.add_argument("--check", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import kronmesh.cli as cli
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"kronmesh imported from {cli.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    print(json.dumps(run_list(args.workload, args.seed, bool(args.trace),
                              bool(args.check), bool(args.traced_first))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
