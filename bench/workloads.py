"""Seeded request lists for the four benchmark workloads.

The request list of workload W at seed s is built from
random.Random(f"{W}/{s}"), so the same seed always yields the same argv
lists.  A run executes this one list several times, each time in a fresh
interpreter.  Every list of a workload has the same shape (the same request
kinds in the same numbers) and the same sizes, the midpoints of equal strata
of each size range; the seed picks the alphas, bases and rational p/q, which
size goes with which alpha, and the order, so the cost of a list barely
depends on the seed.

This module is standard library only and never imports kronmesh: the
program under test sees nothing but the generated argv lists.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

# Input envelope for random quadratic surds.  The surd's continued
# fraction is expanded here, exactly, and a surd is kept only when its
# period and digits stay under these caps.  Long periods are excluded on
# purpose: `classify` walks the whole period, and a period in the
# thousands (e.g. sqrt:99999999977) runs for minutes.  See README.md.
SURD_MAX_D = 300
SURD_MAX_PERIOD = 16
SURD_MAX_DIGIT = 40
# periodic cf: specs use digits 1..CF_MAX_DIGIT
CF_MAX_DIGIT = 9
# rows of one n_m sweep in kron-deep
NM_ROWS = 24
# van der Corput bases, given out by size rank
VDC_BASES = (2, 3, 5, 10)


@dataclass(frozen=True)
class Request:
    """One CLI invocation and what the benchmark expects of it."""

    kind: str                 # request family, used to pick checks
    argv: Tuple[str, ...]
    expect_code: int = 0
    fmt: str = "json"         # stdout format: "csv" or "json"


# ---------------------------------------------------------------------------
# exact continued fractions of (P + sqrt(D)) / Q, independent of kronmesh


def _floor_surd(P: int, D: int, Q: int) -> int:
    """floor((P + sqrt(D)) / Q) for nonsquare D > 0 and Q != 0."""
    r = math.isqrt(D)
    if Q > 0:
        return (P + r) // Q
    return (-P - r - 1) // (-Q)


def surd_cf(P: int, D: int, Q: int) -> Tuple[List[int], int]:
    """(digits, period_start) of (P + sqrt(D)) / Q: digits holds the
    preperiod followed by one full period, which repeats from
    digits[period_start:]."""
    if (D - P * P) % Q:
        P, D, Q = P * abs(Q), D * Q * Q, Q * abs(Q)
    seen: Dict[Tuple[int, int], int] = {}
    digits: List[int] = []
    while (P, Q) not in seen:
        seen[(P, Q)] = len(digits)
        a = _floor_surd(P, D, Q)
        digits.append(a)
        P = a * Q - P
        Q = (D - P * P) // Q
    return digits, seen[(P, Q)]


def _nonsquare(D: int) -> bool:
    r = math.isqrt(D)
    return r * r != D


def _surd_ok(P: int, D: int, Q: int) -> bool:
    digits, start = surd_cf(P, D, Q)
    period = len(digits) - start
    return period <= SURD_MAX_PERIOD and max(digits[1:] or [1]) <= SURD_MAX_DIGIT


def _random_surd(rng: random.Random) -> str:
    while True:
        D = rng.randint(2, SURD_MAX_D)
        if not _nonsquare(D):
            continue
        if rng.random() < 0.5:
            if _surd_ok(0, D, 1):
                return f"sqrt:{D}"
            continue
        Q = rng.randint(2, 12)
        P = rng.randint(-math.isqrt(D), 20)
        if _surd_ok(P, D, Q):
            return f"quad:{P},{D},{Q}"


def _random_periodic_cf(rng: random.Random) -> str:
    a0 = rng.randint(0, 2)
    pre = [rng.randint(1, CF_MAX_DIGIT) for _ in range(rng.randint(0, 2))]
    per = [rng.randint(1, CF_MAX_DIGIT) for _ in range(rng.randint(1, 4))]
    return f"cf:{a0};{','.join(map(str, pre))}({','.join(map(str, per))})"


def random_irrational(rng: random.Random) -> str:
    """golden, a capped quadratic surd, or a periodic cf: spec."""
    u = rng.random()
    if u < 0.1:
        return "golden"
    if u < 0.55:
        return _random_surd(rng)
    return _random_periodic_cf(rng)


def prefix_cf(rng: random.Random, length: int) -> str:
    """A prefix-only cf: spec of `length` digits after a_0: either the
    unbounded a_j = j or random digits in 1..CF_MAX_DIGIT."""
    if rng.random() < 0.5:
        digits = range(1, length + 1)
    else:
        digits = [rng.randint(1, CF_MAX_DIGIT) for _ in range(length)]
    return f"cf:0;{','.join(map(str, digits))}"


def cf_parts(spec: str) -> Tuple[List[int], List[int]]:
    """(preperiod a_0.., period) of an alpha spec; the period is empty for a
    prefix-only cf: spec.  Surds are expanded exactly by surd_cf."""
    if spec == "golden":
        spec = "quad:-1,5,2"
    if spec.startswith(("sqrt:", "quad:")):
        if spec.startswith("sqrt:"):
            P, D, Q = 0, int(spec[5:]), 1
        else:
            P, D, Q = (int(t) for t in spec[5:].split(","))
        digits, start = surd_cf(P, D, Q)
        return digits[:start], digits[start:]
    head, _, period = spec[3:].partition("(")
    a0, _, rest = head.partition(";")
    pre = [int(a0)] + [int(t) for t in rest.split(",") if t]
    return pre, [int(t) for t in period.rstrip(")").split(",") if t]


def spec_digits(spec: str, count: int) -> Tuple[List[int], bool]:
    """(a_0..a_count, periodic); a bare prefix gives only its own digits
    and periodic = False."""
    pre, per = cf_parts(spec)
    if not per:
        return pre[:count + 1], False
    out = list(pre)
    while len(out) <= count:
        out.extend(per)
    return out[:count + 1], True


def nm_values(digits: List[int]) -> List[int]:
    """n_m = q_m + q_{m-1} for m = 0, 1, ... from the digits a_0, a_1, ..."""
    q_prev, q = 1, digits[1]
    nm = [1, q + 1]
    for a in digits[2:]:
        q_prev, q = q, a * q + q_prev
        nm.append(q + q_prev)
    return nm


def nm_bits(n: int) -> int:
    """--bits for structure-exact rows up to n: the gap forms u*alpha + v
    have u up to n and the gaps are about 1/n, so the printed values lose
    about 2*log2(n) bits; this leaves 160 bits (48 digits) for the 40
    printed digits.  At the default 192 bits they are wrong past n of about
    1e10 (see README.md, known defect)."""
    return max(192, -(-(2 * n.bit_length() + 160) // 64) * 64)


def grid(rng: random.Random, k: int, lo: int, hi: int) -> List[int]:
    """The midpoints of k equal strata of [lo, hi], shuffled."""
    span = hi - lo
    out = [lo + int(span * (i + 0.5) / k) for i in range(k)]
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# the workloads


def _kron_sweep(rng: random.Random) -> List[Request]:
    reqs = []
    # bounded sweeps: every row also evaluates kronecker_bounds
    spans = grid(rng, 8, 100, 300)
    starts = grid(rng, 8, 2, 29700)
    for i, (a, span) in enumerate(zip(starts, spans)):
        fmt = "json" if i % 3 == 2 else "csv"
        argv = ["sweep", "--alpha", random_irrational(rng),
                "--n", f"{a}..{a + span}", "--format", fmt]
        reqs.append(Request("kron-sweep", tuple(argv), 0, fmt))
    # bound-free sweeps: points, incremental mesh and serialization only
    spans = grid(rng, 6, 500, 2000)
    starts = grid(rng, 6, 2, 28000)
    for i, (a, span) in enumerate(zip(starts, spans)):
        fmt = "json" if i % 2 else "csv"
        argv = ["sweep", "--alpha", random_irrational(rng),
                "--n", f"{a}..{a + span}", "--no-bounds", "--format", fmt]
        reqs.append(Request("kron-sweep", tuple(argv), 0, fmt))
    for n in grid(rng, 6, 2000, 20000):
        argv = ["analyze", "--alpha", random_irrational(rng), "--n", str(n)]
        reqs.append(Request("kron-analyze", tuple(argv)))
    rng.shuffle(reqs)
    return reqs


def _nm_sweep(spec: str, n_digits: int, fmt: str, last_m: int = 10 ** 9) -> Request:
    """NM_ROWS consecutive n_m rows ending at the last n_m below
    10**n_digits (and at m <= last_m), at the precision nm_bits gives."""
    # each digit multiplies q_m by at least the golden ratio
    digits, _ = spec_digits(spec, 5 * n_digits + 8)
    nm = nm_values(digits)
    hi = min(last_m, max(m for m, n in enumerate(nm) if n < 10 ** n_digits))
    lo = max(1, hi - NM_ROWS + 1)
    argv = ["sweep", "--alpha", spec, "--n-at", "nm", "--m", f"{lo}..{hi}",
            "--bits", str(nm_bits(nm[hi])), "--format", fmt]
    return Request("kron-nm", tuple(argv), 0, fmt)


def _kron_deep(rng: random.Random) -> List[Request]:
    reqs = []
    # n_m sweeps: structure only, ending at n_m of 20 to 60 digits, so m
    # reaches the hundreds for small digits.  Surds and cf: specs alternate
    for i, n_digits in enumerate(grid(rng, 11, 20, 60)):
        alpha = _random_surd(rng) if i % 2 else _random_periodic_cf(rng)
        reqs.append(_nm_sweep(alpha, n_digits, "json" if i % 2 else "csv"))
    # prefix-only specs stop well before the end of the known digits, where
    # the tail enclosure is too wide to sign the bound denominators
    length = rng.randint(40, 60)
    reqs.append(_nm_sweep(prefix_cf(rng, length), 40, "csv", length - 12))
    for digits in grid(rng, 36, 30, 41):
        n = rng.randrange(10 ** (digits - 1), 10 ** digits)
        argv = ["gaps", "--alpha", random_irrational(rng), "--n", str(n)]
        reqs.append(Request("kron-gaps", tuple(argv)))
    for i in range(8):
        spec = prefix_cf(rng, rng.randint(20, 80)) if i == 0 else random_irrational(rng)
        reqs.append(Request("kron-classify", ("classify", "--alpha", spec)))
    rng.shuffle(reqs)
    return reqs


def _coprime(rng: random.Random, q: int) -> int:
    p = rng.randrange(1, q)
    while math.gcd(p, q) != 1:
        p = rng.randrange(1, q)
    return p


def _exact_gens(rng: random.Random) -> List[Request]:
    # the cost of these requests follows their sizes and bases, so those go
    # by rank; the seed picks p and the order
    reqs = []
    spans = sorted(grid(rng, 4, 300, 900))
    ends = sorted(grid(rng, 4, 1500, 5000))
    for i, (b, span) in enumerate(zip(ends, spans)):
        fmt = "json" if i % 2 else "csv"
        argv = ["sweep", "--gen", "vdc", "--base", str(VDC_BASES[i % len(VDC_BASES)]),
                "--n", f"{b - span}..{b}", "--format", fmt]
        reqs.append(Request("vdc-sweep", tuple(argv), 0, fmt))
    for i, n in enumerate(sorted(grid(rng, 6, 60, 180))):
        tie = "leftmost" if i % 2 else "rightmost"
        argv = ["analyze", "--gen", "greedy", "--n", str(n), "--tie-break", tie]
        reqs.append(Request("greedy-analyze", tuple(argv)))
    for i, n in enumerate(sorted(grid(rng, 7, 1500, 12000))):
        if i % 3 == 0:
            # n > q repeats a point: infinite mesh ratio, exit code 4
            q, code = n - 250, 4
        else:
            q, code = n + 2500, 0
        argv = ["analyze", "--alpha", f"rat:{_coprime(rng, q)}/{q}", "--n", str(n)]
        reqs.append(Request("rat-analyze", tuple(argv), code))
    for q in grid(rng, 4, 1000, 4000):
        lo = q // 3
        argv = ["sweep", "--alpha", f"rat:{_coprime(rng, q)}/{q}", "--n", f"{lo}..{lo + 400}"]
        reqs.append(Request("rat-sweep", tuple(argv), 0, "csv"))
    rng.shuffle(reqs)
    return reqs


def _points_dump(rng: random.Random) -> List[Request]:
    reqs = []
    # formats, digit counts and bases follow the size rank, so the cost of a
    # list and its largest dump (which sets peak_rss_mb) do not vary by seed
    for i, n in enumerate(sorted(grid(rng, 8, 5000, 50000))):
        fmt = "json" if i % 2 else "csv"
        digits = (20, 40, 60)[i % 3]
        argv = ["points", "--alpha", random_irrational(rng), "--n", str(n),
                "--format", fmt, "--digits", str(digits)]
        reqs.append(Request("kron-points", tuple(argv), 0, fmt))
    for i, n in enumerate(sorted(grid(rng, 8, 5000, 50000))):
        fmt = "json" if i % 2 else "csv"
        argv = ["points", "--gen", "vdc", "--base", str(VDC_BASES[i % len(VDC_BASES)]),
                "--n", str(n), "--format", fmt]
        reqs.append(Request("vdc-points", tuple(argv), 0, fmt))
    for i, n in enumerate(sorted(grid(rng, 4, 80, 200))):
        fmt = "json" if i % 2 else "csv"
        tie = "leftmost" if i % 2 else "rightmost"
        argv = ["points", "--gen", "greedy", "--n", str(n), "--tie-break", tie,
                "--format", fmt]
        reqs.append(Request("greedy-points", tuple(argv), 0, fmt))
    rng.shuffle(reqs)
    return reqs


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[random.Random], List[Request]]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "kron-sweep",
            "contiguous Kronecker sweeps and one-shot analyze: points, "
            "incremental mesh, sorted gaps, per-row bounds, row output",
            _kron_sweep,
        ),
        Workload(
            "kron-deep",
            "structure only: n_m sweeps, gaps at 30-40 digit n, classify; "
            "contfrac and threegap do the work, no point is built",
            _kron_deep,
        ),
        Workload(
            "exact-gens",
            "exact rationals only: vdc sweeps, O(n^2) greedy, rat:p/q incl. "
            "exit 4; contfrac and threegap are idle",
            _exact_gens,
        ),
        Workload(
            "points-dump",
            "point dumps for Kronecker, vdc and greedy up to 5e4 points; "
            "fraction_to_decimal dominates",
            _points_dump,
        ),
    )
}


def requests(workload: str, seed: int) -> List[Request]:
    """The request list of a workload at a seed; deterministic."""
    rng = random.Random(f"{workload}/{seed}")
    return WORKLOADS[workload].build(rng)

