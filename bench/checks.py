"""Output checks for benchmark requests.

shape_check runs on every request: exit code, parseable output, row and
point counts, the infinite-mesh marker on exit 4.  It is cheap and stdlib
only.

oracle_check runs on a seeded sample of requests, outside the timed region.
It recomputes the printed numbers with the independent references in
tests/oracles.py (imported unmodified) and mpmath: scaled_prefix_metrics for
Kronecker point paths, brute_metrics over radical_inverse_reference,
greedy_reference and exact rational points, eta_product_interval for the
metrics of n_m rows at every size, and big-float continued fraction tails
for bounds and gap lengths.
"""
from __future__ import annotations

import csv
import io
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import List, Optional, Tuple

from workloads import Request, cf_parts, spec_digits

# n up to which the scaled-point oracle recomputes Kronecker metrics
SCALED_MAX_N = 20000
# digits past a_m used to enclose eta_m; golden (the slowest to converge)
# then gives a relative width of about 1e-49
ETA_EXTRA_DIGITS = 120

def opt(argv, flag: str, default=None):
    """Value following `flag` in an argv list."""
    argv = list(argv)
    return argv[argv.index(flag) + 1] if flag in argv else default


def _range(text: str) -> Tuple[int, int]:
    lo, _, hi = text.partition("..")
    return int(lo), int(hi)


# ---------------------------------------------------------------------------
# parsing the CLI output


def sweep_rows(req: Request, out: str) -> List[dict]:
    """Rows of a sweep as dicts with keys n, fill, sep, rho, upper, lower and
    global_upper; numbers stay the printed strings."""
    rows = []
    if req.fmt == "csv":
        reader = csv.reader(io.StringIO(out))
        next(reader)  # header
        for cells in reader:
            n, fill, sep, rho, up_lo, up_hi, lo_lo, lo_hi, glob = cells
            rows.append({
                "n": int(n), "fill": fill, "sep": sep, "rho": rho,
                "upper": (up_lo, up_hi) if up_lo else None,
                "lower": (lo_lo, lo_hi) if lo_lo else None,
                "global_upper": int(glob) if glob else None,
            })
        return rows
    for row in json.loads(out)["rows"]:
        b = row.get("bounds")
        rows.append({
            "n": row["n"], "fill": row["fill"], "sep": row["separation"],
            "rho": row["mesh_ratio"],
            "upper": tuple(b["upper"]) if b else None,
            "lower": tuple(b["lower_at_nm"]) if b and b["lower_at_nm"] else None,
            "global_upper": b["global_upper"] if b else None,
        })
    return rows


def point_values(req: Request, out: str) -> List[str]:
    if req.fmt == "csv":
        lines = out.splitlines()[1:]
        return [line.split(",", 1)[1] for line in lines]
    return json.loads(out)["points"]


# ---------------------------------------------------------------------------
# shape checks (every request)


def shape_check(req: Request, code: int, out: str) -> Optional[str]:
    """None when the request behaved, else a one-line reason."""
    if code != req.expect_code:
        return f"exit code {code}, expected {req.expect_code}"
    try:
        return _shape(req, out)
    except (ValueError, KeyError, IndexError, TypeError) as e:
        return f"unparseable output: {type(e).__name__}: {e}"


def _shape(req: Request, out: str) -> Optional[str]:
    cmd = req.argv[0]
    if cmd == "sweep":
        if opt(req.argv, "--n-at"):
            lo, hi = _range(opt(req.argv, "--m"))
            want = hi - lo + 1
        else:
            lo, hi = _range(opt(req.argv, "--n"))
            want = hi - lo + 1
        rows = sweep_rows(req, out)
        if len(rows) != want:
            return f"{len(rows)} rows, expected {want}"
        if not opt(req.argv, "--n-at") and [r["n"] for r in rows] != list(range(lo, hi + 1)):
            return "row n column is not the requested range"
        return None
    if cmd == "points":
        n = int(opt(req.argv, "--n"))
        got = len(point_values(req, out))
        return None if got == n else f"{got} points, expected {n}"
    payload = json.loads(out)
    if cmd == "analyze":
        if payload["n"] != int(opt(req.argv, "--n")):
            return "analyze reports another n"
        if (payload["mesh_ratio"] == "inf") != (req.expect_code == 4):
            return f"mesh_ratio {payload['mesh_ratio']} with exit {req.expect_code}"
        return None
    if cmd == "gaps":
        if not payload["all_passed"]:
            return "gap identity checks failed"
        total = sum(e["multiplicity"] for e in payload["entries"])
        return None if total == int(opt(req.argv, "--n")) else "multiplicities do not sum to n"
    if cmd == "classify":
        return None if payload["verdict"] in ("yes", "no", "unknown") else "bad verdict"
    return f"unknown command {cmd}"


# ---------------------------------------------------------------------------
# independent references


def _oracles():
    """tests/oracles.py, imported as is (it needs mpmath)."""
    tests_dir = str(Path(__file__).resolve().parent.parent / "tests")
    if tests_dir not in sys.path:
        sys.path.append(tests_dir)
    import oracles
    return oracles


class Alpha:
    """Big-float view of an irrational alpha spec, from its exact digits."""

    def __init__(self, spec: str, prec: int):
        import mpmath
        self.mp = mpmath
        self.spec = spec
        self.prec = prec
        # each digit >= 1 adds at least log2(golden) ~ 0.69 bits to q_m
        self.digits, self.periodic = spec_digits(spec, 2 * prec + 64)

    def tail(self, m: int):
        """alpha_m = [0; a_{m+1}, a_{m+2}, ...] (periodic specs)."""
        mp = self.mp
        with mp.workprec(self.prec):
            x = mp.mpf(0)
            for a in reversed(self.digits[m + 1:]):
                x = 1 / (a + x)
            return x

    def tail_bracket(self, m: int) -> Tuple[Fraction, Fraction]:
        """Exact enclosure of alpha_m from the known digits (any spec)."""
        return _oracles().tail_interval_from_digits(self.digits, m)

    def alpha0(self):
        if self.spec.startswith(("golden", "sqrt:", "quad:")):
            mp = self.mp
            with mp.workprec(self.prec):
                return mp.frac(_oracles().mp_value(self.spec, self.prec))
        return self.tail(0)

    def structure(self, n: int) -> Tuple[int, int, int, List[int]]:
        """(m, h, k, n_list) with n = n_m + h s_m + k, from the digits."""
        d = self.digits
        s = [1, d[1]]
        nm = [1, d[1] + 1]
        while nm[-1] <= n:
            j = len(s)
            s.append(d[j] * s[-1] + s[-2])
            nm.append(s[-1] + s[-2])
        m = len(nm) - 1
        while nm[m] > n:
            m -= 1
        h, k = divmod(n - nm[m], s[m])
        return m, h, k, nm


def _close(printed: str, ref, digits: int) -> bool:
    """printed (rounded to `digits` significant digits) agrees with ref."""
    if ref == float("inf") or printed == "inf":
        return printed == "inf" and ref == float("inf")
    x = Fraction(printed)
    r = Fraction(ref)
    return abs(x - r) <= abs(r) * Fraction(1, 10 ** (digits - 2)) + Fraction(1, 1 << 400)


def _contains(iv, value, digits: int) -> bool:
    lo, hi = Fraction(iv[0]), Fraction(iv[1])
    v = Fraction(value)
    slack = abs(v) * Fraction(1, 10 ** (digits + 20))
    return lo - slack <= v <= hi + slack


def _mp_fraction(mp, x, bits: int = 300) -> Fraction:
    with mp.workprec(bits + 80):
        return Fraction(int(mp.floor(x * (1 << bits))), 1 << bits)


def _scaled_metrics(alpha: "Alpha", n: int):
    """(fill, sep, rho) of the first n points i*alpha mod 1 at scale 2**B."""
    mp = alpha.mp
    bits = 256 + n.bit_length()
    M = 1 << bits
    with mp.workprec(bits + 64):
        A = int(mp.floor(alpha.alpha0() * M))
    xs = [(i * A) % M for i in range(n)]
    return _oracles().scaled_prefix_metrics(xs, M, 2)


def _check_metric_row(row: dict, ref, digits: int, where: str) -> List[str]:
    fill, sep, rho = ref
    errs = []
    for key, want in (("fill", fill), ("sep", sep), ("rho", rho)):
        if not _close(row[key], want, digits):
            errs.append(f"{where}: {key} {row[key]} vs oracle {float(want):.17g}")
    return errs


def _nm_metrics(alpha: Alpha, m: int) -> Tuple[Tuple[Fraction, Fraction], ...]:
    """Exact enclosures of (fill, sep, rho) at n = n_m = q_m + q_{m-1}.

    The circle then has q_m gaps eta_{m-1} and q_{m-1} gaps eta_m, where
    eta_j = |q_j alpha - p_j| = alpha_0 alpha_1 ... alpha_j.  The point
    nearest 1 is q_j for the odd j in {m-1, m}, so the gap between it and 1
    is eta_j; it enters the fill distance unhalved, the interior gaps halved.
    """
    o = _oracles()
    digits = alpha.digits[:m + ETA_EXTRA_DIGITS]
    prev = o.eta_product_interval(digits, m - 1)
    tlo, thi = o.tail_interval_from_digits(digits, m)
    cur = (prev[0] * tlo, prev[1] * thi)
    q = [1, alpha.digits[1]]
    while len(q) <= m:
        q.append(alpha.digits[len(q)] * q[-1] + q[-2])
    counts = {m - 1: q[m], m: q[m - 1]}
    eta = {m - 1: prev, m: cur}
    last = m if m % 2 else m - 1
    counts[last] -= 1
    interior = [eta[j] for j in (m - 1, m) if counts[j]]
    fill = (max(max(iv[0] for iv in interior) / 2, eta[last][0]),
            max(max(iv[1] for iv in interior) / 2, eta[last][1]))
    sep = (min(iv[0] for iv in interior) / 2, min(iv[1] for iv in interior) / 2)
    return fill, sep, (fill[0] / sep[1], fill[1] / sep[0])


def _check_enclosed(row: dict, ref, digits: int, where: str) -> List[str]:
    """The printed fill, sep and rho lie in their exact enclosures, widened
    by the rounding to `digits` significant digits."""
    errs = []
    tol = Fraction(1, 10 ** (digits - 2))
    for key, (lo, hi) in zip(("fill", "sep", "rho"), ref):
        x = Fraction(row[key])
        if not lo * (1 - tol) <= x <= hi * (1 + tol):
            errs.append(f"{where}: {key} {row[key]} outside the oracle enclosure "
                        f"[{float(lo):.17g}, {float(hi):.17g}], width {float(hi - lo):.3g}")
    return errs


def _check_bounds(alpha: Alpha, row: dict, where: str, digits: int) -> List[str]:
    """Upper bound at (m, h), lower bound at n_m and global_upper, and that
    the printed rho does not exceed the upper bound."""
    errs = []
    if row["upper"] is None:
        return errs
    m, h, k, _ = alpha.structure(row["n"])
    if alpha.periodic:
        am = alpha.tail(m)
        with alpha.mp.workprec(alpha.prec):
            upper = 2 * (1 - h * am) / min(am, 1 - (h + 1) * am)
            inv = 1 / am
        upper_f = _mp_fraction(alpha.mp, upper)
        if not _contains(row["upper"], upper_f, digits):
            errs.append(f"{where}: upper bound {row['upper']} misses {float(upper_f):.17g}")
        slack = 1 + Fraction(1, 10 ** 30)
        if row["rho"] != "inf" and \
                Fraction(row["rho"]) > Fraction(row["upper"][1]) * slack:
            errs.append(f"{where}: rho {row['rho']} above the upper bound")
        want_lower = m >= 3 and h == 0 and k == 0
        if want_lower != (row["lower"] is not None):
            errs.append(f"{where}: lower bound present={row['lower'] is not None}, "
                        f"expected {want_lower} at (m,h,k)=({m},{h},{k})")
        elif want_lower and not _contains(row["lower"], _mp_fraction(alpha.mp, inv), digits):
            errs.append(f"{where}: lower bound {row['lower']} misses 1/alpha_{m}")
        sup = max(alpha.digits[1:])
        if row["global_upper"] != 2 + 2 * sup:
            errs.append(f"{where}: global_upper {row['global_upper']}, expected {2 + 2 * sup}")
    elif row["lower"] is not None:
        # prefix-only: 1/alpha_m is only bracketed by the known digits
        lo, hi = alpha.tail_bracket(m)
        plo, phi = Fraction(row["lower"][0]), Fraction(row["lower"][1])
        if phi < 1 / hi or plo > 1 / lo:
            errs.append(f"{where}: lower bound {row['lower']} outside the digit bracket")
    return errs


def oracle_check(req: Request, out: str, rng) -> List[str]:
    """Reasons the sampled request's output disagrees with the oracles."""
    return _HANDLERS[req.kind](req, out, rng)


def _sample_rows(rows: List[dict], rng, count: int, max_n: int) -> List[dict]:
    small = [r for r in rows if r["n"] <= max_n]
    return rng.sample(small, min(count, len(small)))


def _kron_sweep(req: Request, out: str, rng) -> List[str]:
    spec = opt(req.argv, "--alpha")
    digits = int(opt(req.argv, "--digits", 40))
    alpha = Alpha(spec, 1400)
    errs = []
    for row in _sample_rows(sweep_rows(req, out), rng, 4, 10 ** 9):
        where = f"n={row['n']}"
        errs += _check_metric_row(row, _scaled_metrics(alpha, row["n"]), digits, where)
        errs += _check_bounds(alpha, row, where, digits)
    return errs


def _kron_analyze(req: Request, out: str, rng) -> List[str]:
    spec = opt(req.argv, "--alpha")
    payload = json.loads(out)
    alpha = Alpha(spec, 1400)
    n = payload["n"]
    row = {"n": n, "fill": payload["fill"], "sep": payload["separation"],
           "rho": payload["mesh_ratio"]}
    errs = _check_metric_row(row, _scaled_metrics(alpha, n), 40, f"n={n}")
    b = payload["bounds"]
    row.update(upper=tuple(b["upper"]),
               lower=tuple(b["lower_at_nm"]) if b["lower_at_nm"] else None,
               global_upper=b["global_upper"])
    return errs + _check_bounds(alpha, row, f"n={n}", 40)


def _kron_nm(req: Request, out: str, rng) -> List[str]:
    spec = opt(req.argv, "--alpha")
    alpha = Alpha(spec, 2400)
    rows = sweep_rows(req, out)
    lo, _ = _range(opt(req.argv, "--m"))
    errs = []
    _, _, _, nm = alpha.structure(rows[-1]["n"])
    for m, row in enumerate(rows, start=lo):
        if row["n"] != nm[m]:
            return [f"row m={m}: n={row['n']}, expected n_m={nm[m]}"]
    for row in _sample_rows(rows, rng, 3, SCALED_MAX_N):
        if alpha.periodic:
            errs += _check_metric_row(row, _scaled_metrics(alpha, row["n"]), 40, f"n={row['n']}")
    # rows at any m, most of them far beyond the reach of the point oracle
    for m in rng.sample(range(lo, lo + len(rows)), min(3, len(rows))):
        errs += _check_enclosed(rows[m - lo], _nm_metrics(alpha, m), 40, f"n_m={nm[m]}")
    for row in rng.sample(rows, min(8, len(rows))):
        errs += _check_bounds(alpha, row, f"n_m={row['n']}", 40)
    return errs


def _kron_gaps(req: Request, out: str, rng) -> List[str]:
    spec = opt(req.argv, "--alpha")
    n = int(opt(req.argv, "--n"))
    payload = json.loads(out)
    alpha = Alpha(spec, 4 * n.bit_length() + 600)
    m, h, k, _ = alpha.structure(n)
    errs = []
    if (payload["m"], payload["h"], payload["k"]) != (m, h, k):
        errs.append(f"decomposition {(payload['m'], payload['h'], payload['k'])}, "
                    f"expected {(m, h, k)}")
    a0 = alpha.alpha0()
    mp = alpha.mp
    for e in payload["entries"]:
        with mp.workprec(alpha.prec):
            value = e["u"] * a0 + e["v"]
        if not _contains(e["interval"], _mp_fraction(mp, value, alpha.prec - 100), 40):
            errs.append(f"gap ({e['u']},{e['v']}) interval {e['interval']} misses its value")
    return errs


def _kron_classify(req: Request, out: str, rng) -> List[str]:
    payload = json.loads(out)
    pre, per = cf_parts(opt(req.argv, "--alpha"))
    if per:
        sup = max(pre[1:] + per)
        want = {"verdict": "yes", "digit_sup": sup, "certainty": "exact",
                "c_bound": 2 + 2 * sup}
    else:
        # default --probe 64
        sup = max(pre[1:65])
        want = {"verdict": "unknown", "digit_sup": sup, "certainty": "prefix-only",
                "c_bound": None}
    return [] if payload == want else [f"classify {payload}, expected {want}"]


def _exact_points(req: Request) -> List[Fraction]:
    """The exact points an exact-generator request describes."""
    o = _oracles()
    # the top of a sweep range a..b, or the n of analyze and points
    n = int(opt(req.argv, "--n").partition("..")[2] or opt(req.argv, "--n"))
    gen = opt(req.argv, "--gen")
    if gen == "vdc":
        base = int(opt(req.argv, "--base"))
        return [o.radical_inverse_reference(i, base) for i in range(n)]
    if gen == "greedy":
        return o.greedy_reference(n, opt(req.argv, "--tie-break", "leftmost"))
    p, q = (int(t) for t in opt(req.argv, "--alpha")[4:].split("/"))
    return [Fraction((i * p) % q, q) for i in range(n)]


def _exact_sweep(req: Request, out: str, rng) -> List[str]:
    pts = _exact_points(req)
    digits = int(opt(req.argv, "--digits", 40))
    errs = []
    for row in _sample_rows(sweep_rows(req, out), rng, 4, 10 ** 9):
        ref = _oracles().brute_metrics(pts[:row["n"]])
        errs += _check_metric_row(row, ref, digits, f"n={row['n']}")
    return errs


def _exact_analyze(req: Request, out: str, rng) -> List[str]:
    payload = json.loads(out)
    ref = _oracles().brute_metrics(_exact_points(req))
    row = {"fill": payload["fill"], "sep": payload["separation"], "rho": payload["mesh_ratio"]}
    return _check_metric_row(row, ref, 40, f"n={payload['n']}")


def _points(req: Request, out: str, rng) -> List[str]:
    values = point_values(req, out)
    digits = int(opt(req.argv, "--digits", 40))
    n = len(values)
    # the first points, the last one and 200 more at random
    idx = sorted(set(rng.sample(range(n), min(200, n))) | set(range(min(n, 16))) | {n - 1})
    if req.kind == "kron-points":
        alpha = Alpha(opt(req.argv, "--alpha"), 600)
        a0 = alpha.alpha0()
        mp = alpha.mp
        with mp.workprec(alpha.prec):
            ref = {i: _mp_fraction(mp, mp.frac(i * a0), 400) for i in idx}
    else:
        pts = _exact_points(req)
        ref = {i: pts[i] for i in idx}
    bad = [i for i in idx if not _close(values[i], ref[i], digits)]
    return [f"{len(bad)} of {len(idx)} sampled points disagree, first index {bad[0]}"] if bad else []


_HANDLERS = {
    "kron-sweep": _kron_sweep,
    "kron-analyze": _kron_analyze,
    "kron-nm": _kron_nm,
    "kron-gaps": _kron_gaps,
    "kron-classify": _kron_classify,
    "vdc-sweep": _exact_sweep,
    "rat-sweep": _exact_sweep,
    "greedy-analyze": _exact_analyze,
    "rat-analyze": _exact_analyze,
    "kron-points": _points,
    "vdc-points": _points,
    "greedy-points": _points,
}
