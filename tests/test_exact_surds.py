"""Exact surd output against mpmath: every digit that `sweep --n-at nm`,
contiguous sweeps, `analyze` and `gaps` print for a quadratic surd alpha
(golden, sqrt:, quad:, periodic cf:) at the default --bits, and the count
of precision ladders those paths climb, which is none."""
import contextlib
import importlib
import io
import json
import math
from decimal import Decimal

import mpmath
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import kronmesh as km
from kronmesh.cli import main
from kronmesh.metrics import _role_indices
from kronmesh.threegap import _gap_structure
import oracles


def _value(spec: str, prec: int) -> mpmath.mpf:
    """alpha from its spec at prec bits: (P + sqrt(D)) / Q, or a periodic
    cf: from the fixed point x = [c_1; ..., c_L, x] of its period, a root
    of q x^2 + (q' - p) x - p' = 0 with the period's convergent matrix,
    then the preperiod folded on."""
    with mpmath.workprec(prec):
        if not spec.startswith("cf:"):
            P, D, Q = km.parse_alpha(spec)
            return (P + mpmath.sqrt(D)) / Q
        head, _, period = spec[3:].partition("(")
        a0, _, rest = head.partition(";")
        pre = [int(a0)] + [int(t) for t in rest.split(",") if t]
        per = [int(t) for t in period.rstrip(")").split(",")]
        (p, q), (pp, qp) = oracles.convergents_from_digits(per)[-1], (
            oracles.convergents_from_digits(per)[-2] if len(per) > 1 else (1, 0))
        x = (p - qp + mpmath.sqrt((p - qp) ** 2 + 4 * q * pp)) / (2 * q)
        for b in reversed(pre[1:]):
            x = b + 1 / x
        return pre[0] + 1 / x


def _digits(spec: str, depth: int):
    """a_0..a_depth, exactly: the Gauss map of a surd, a cf: spec's own."""
    if not spec.startswith("cf:"):
        return oracles.gauss_map_digits(*km.parse_alpha(spec), depth)[0]
    head, _, period = spec[3:].partition("(")
    a0, _, rest = head.partition(";")
    digits = [int(a0)] + [int(t) for t in rest.split(",") if t]
    per = [int(t) for t in period.rstrip(")").split(",")]
    while len(digits) <= depth:
        digits += per
    return digits[:depth + 1]


def _text(v: mpmath.mpf, digits: int, mode: str) -> str:
    """v > 0 at `digits` significant digits, rounded by mode, as the text
    of a Decimal: the coefficient D and exponent -k of floor or ceil of v *
    10**k, or of the nearest with ties to even."""
    k = digits - 1 - int(mpmath.floor(mpmath.log10(v)))
    y = v * mpmath.mpf(10) ** k
    k, y = (k - 1, y / 10) if y >= 10 ** digits else (k + 1, y * 10) if y < 10 ** (
        digits - 1) else (k, y)
    N = int(mpmath.floor(y))
    frac = y - N
    if mode == "ceil":
        N += frac > 0
    elif mode == "nearest":
        N += frac > 0.5 or (frac == 0.5 and N % 2 == 1)
    if N == 10 ** digits:
        N, k = N // 10, k - 1
    return str(Decimal(f"{N}E{-k}"))


def _cell(v: mpmath.mpf, digits: int) -> str:
    """A printed metric cell of value v: to nearest at `digits` digits, but
    a rho of exactly 1 or 2 (v within the working precision's square root
    of it) by decimal division, as "1" or "2"."""
    r = mpmath.nint(v)
    if r in (1, 2) and abs(v - r) < mpmath.mpf(2) ** (-mpmath.mp.prec // 2):
        return str(int(r))
    return _text(v, digits, "nearest")


def _nm_truth(spec: str, m: int, prec: int):
    """fill, separation, rho, the upper bound and 1 / alpha_m at n_m, from
    eta_j = |q_j alpha - p_j| at prec bits: q_m gaps eta_{m-1} and q_{m-1}
    gaps eta_m, the one touching 1 (eta_m for odd m, else eta_{m-1}) entering
    the fill unhalved; alpha_m = eta_m / eta_{m-1}."""
    cv = oracles.convergents_from_digits(_digits(spec, m + 2))
    with mpmath.workprec(prec):
        alpha = _value(spec, prec)
        eta = [1 if j < 0 else abs(cv[j][1] * alpha - cv[j][0]) for j in (m - 1, m)]
        counts = [cv[m][1], cv[m - 1][1] if m else 0]  # of eta_{m-1}, eta_m
        last = 1 if m % 2 else 0
        counts[last] -= 1
        interior = [e for e, c in zip(eta, counts) if c > 0]
        fill = max(max(interior) / 2, eta[last])
        sep = min(interior) / 2
        am = eta[1] / eta[0]
        return fill, sep, fill / sep, 2 / min(am, 1 - am), 1 / am


def _run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


@st.composite
def surds(draw):
    """A quad: surd of D <= 10**4, a third of them reduced (their period
    starts at a_0), or a periodic cf: spec, with or without a preperiod."""
    kind = draw(st.sampled_from(["quad", "reduced", "cf"]))
    if kind == "cf":
        pre = draw(st.lists(st.integers(1, 20), max_size=3))
        per = draw(st.lists(st.integers(1, 20), min_size=1, max_size=5))
        return (f"cf:{draw(st.integers(0, 3))};{','.join(map(str, pre))}"
                f"({','.join(map(str, per))})")
    D = draw(st.integers(2, 10 ** 4).filter(lambda d: math.isqrt(d) ** 2 != d))
    r = math.isqrt(D)
    if kind == "reduced":  # 0 < P <= r, r - P < Q <= r + P, Q | D - P^2
        P = draw(st.integers(1, r))
        Q = draw(st.sampled_from([q for q in range(r - P + 1, r + P + 1) if (D - P * P) % q == 0]
                                 or [1]))
        return f"quad:{P},{D},{Q}"
    P = draw(st.integers(-40, 40))
    Q = draw(st.integers(-40, 40).filter(bool))
    return f"quad:{P},{D},{Q}"


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(surds(), st.integers(1, 200), st.integers(0, 4), st.integers(1, 120),
       st.sampled_from(["csv", "json"]))
@example("quad:2,31,7", 5, 4, 40, "csv")        # a period from a_0
@example("golden", 196, 4, 120, "json")
@example("cf:1;7(2)", 46, 4, 40, "csv")          # a period after a preperiod
@example("sqrt:213", 189, 4, 40, "json")
@example("quad:-3,11,-4", 1, 4, 3, "csv")
def test_nm_rows_print_every_digit_right(spec, m_hi, span, digits, fmt):
    # fill, separation and rho to nearest, both bound pairs floor and ceil
    code, out = _run("sweep", "--alpha", spec, "--n-at", "nm", "--m",
                     f"{max(1, m_hi - span)}..{m_hi}", "--digits", str(digits), "--format", fmt)
    assert code == 0
    if fmt == "csv":
        rows = [line.split(",") for line in out.splitlines()[1:]]
        rows = [(r[1:4], r[4:6], r[6:8] if r[6] else None) for r in rows]
    else:
        rows = [((r["fill"], r["separation"], r["mesh_ratio"]), r["bounds"]["upper"],
                 r["bounds"]["lower_at_nm"]) for r in json.loads(out)["rows"]]
    for m, (cells, upper, lower) in enumerate(rows, start=max(1, m_hi - span)):
        q_m = oracles.convergents_from_digits(_digits(spec, m))[m][1]
        prec = 8 * q_m.bit_length() + 8 * digits + 400  # past eta_m's cancellation
        fill, sep, rho, up, inv = _nm_truth(spec, m, prec)
        with mpmath.workprec(prec):
            want = [_cell(v, digits) for v in (fill, sep, rho)]
            assert list(cells) == want, (spec, m, digits)
            assert list(upper) == [_text(up, digits, mode) for mode in ("floor", "ceil")]
            if m >= 3:
                assert list(lower) == [_text(inv, digits, mode) for mode in ("floor", "ceil")]
            else:
                assert lower is None


def _truth(spec: str, n: int, prec: int):
    """fill, separation and rho of the first n points from the three gap
    forms u alpha0 + v of _gap_structure, evaluated at alpha in mpmath: half
    the largest interior gap or the gap touching 1, whichever is larger,
    half the smallest interior gap, and their ratio."""
    exp = km.CFExpansion(km.parse_alpha(spec))
    gs = _gap_structure(exp, n, km.decompose(exp, n))
    last, present = _role_indices(gs)
    with mpmath.workprec(prec):
        alpha0 = mpmath.frac(_value(spec, prec))
        gaps = [form.u * alpha0 + form.v for form, _ in gs.entries]
        fill = max(max(gaps[i] for i in present) / 2, gaps[last])
        sep = min(gaps[i] for i in present) / 2
        return fill, sep, fill / sep


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(surds(), st.integers(2, 10 ** 60), st.integers(0, 3), st.integers(1, 120),
       st.sampled_from(["analyze", "csv", "json"]), st.booleans())
@example("golden", 10 ** 30 + 7, 0, 40, "analyze", True)  # a lattice drifted here
@example("golden", 1000, 0, 120, "analyze", True)         # a lattice's 61st digit
@example("golden", 2, 3, 40, "csv", True)                 # rho = 1 and 2 print "1", "2"
@example("sqrt:213", 10 ** 60 - 2, 3, 120, "json", False)
@example("cf:0;20000(1)", 19998, 3, 90, "csv", False)
@example("quad:-3,11,-4", 10 ** 40 + 7, 2, 7, "json", True)
def test_contiguous_rows_print_every_digit_right(spec, n, span, digits, how, bounds):
    # analyze, and contiguous sweeps with and without bounds, print fill,
    # separation and rho of every n exactly, to nearest
    last = n if how == "analyze" else n + span
    if how == "analyze":
        code, out = _run("analyze", "--alpha", spec, "--n", str(n), "--digits", str(digits))
        payload = json.loads(out)
        rows = [(n, (payload["fill"], payload["separation"], payload["mesh_ratio"]))]
    else:
        code, out = _run("sweep", "--alpha", spec, "--n", f"{n}..{last}",
                         "--digits", str(digits), "--format", how,
                         *(() if bounds else ("--no-bounds",)))
        if how == "csv":
            rows = [(int(r[0]), tuple(r[1:4])) for r in
                    (line.split(",") for line in out.splitlines()[1:])]
        else:
            rows = [(r["n"], (r["fill"], r["separation"], r["mesh_ratio"]))
                    for r in json.loads(out)["rows"]]
    assert code == 0
    assert [i for i, _ in rows] == list(range(n, last + 1))
    for i, cells in rows:
        prec = 3 * i.bit_length() + 8 * digits + 400  # past the forms' cancellation
        with mpmath.workprec(prec):
            assert list(cells) == [_cell(v, digits) for v in _truth(spec, i, prec)], (
                spec, i, digits)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(surds(), st.integers(3, 10 ** 40), st.integers(1, 120))
@example("cf:0;1,3(2,5,1)", 27182818284590452353602874713526624977, 40)
@example("golden", 10 ** 35 + 7, 120)
@example("quad:2,31,7", 10 ** 20, 7)
def test_gaps_ends_are_floor_and_ceil(spec, n, digits):
    # every gap length u alpha0 + v prints as its floor and its ceiling, one
    # unit in the last place apart
    code, out = _run("gaps", "--alpha", spec, "--n", str(n), "--digits", str(digits))
    assert code == 0
    prec = 3 * n.bit_length() + 8 * digits + 400
    with mpmath.workprec(prec):
        alpha0 = mpmath.frac(_value(spec, prec))
        for e in json.loads(out)["entries"]:
            value = e["u"] * alpha0 + e["v"]
            assert e["interval"] == [_text(value, digits, mode) for mode in ("floor", "ceil")], (
                spec, n, e)


@pytest.mark.parametrize("argv", [
    ("sweep", "--alpha", "sqrt:103", "--n-at", "nm", "--m", "46..69"),
    ("sweep", "--alpha", "cf:1;7(2)", "--n-at", "nm", "--m", "1..60", "--format", "json"),
    ("gaps", "--alpha", "golden", "--n", str(10 ** 35 + 7)),
    ("gaps", "--alpha", "quad:2,31,7", "--n", "123456789012345678901234567890"),
    ("analyze", "--alpha", "cf:0;9(9)", "--n", "1000"),
    ("analyze", "--alpha", "golden", "--n", str(10 ** 30 + 7), "--bits", "64",
     "--max-bits", "128"),
    ("sweep", "--alpha", "sqrt:213", "--n", "2..3000"),
    ("sweep", "--alpha", "golden", "--n", "2..3000", "--no-bounds"),
    ("sweep", "--alpha", "quad:2,31,7", "--n", f"{10 ** 50}..{10 ** 50 + 900}", "--bits", "64"),
])
def test_surd_paths_climb_no_ladder(monkeypatch, argv):
    # n_m rows, bound columns, gaps, analyze and contiguous sweeps (with
    # bounds or without) of a surd run no precision ladder and build no
    # lattice of points
    contfrac = importlib.import_module("kronmesh.contfrac")
    metrics = importlib.import_module("kronmesh.metrics")
    original, ladders = contfrac.PrecisionContext.escalate, []

    def counting(self, attempt, start_bits, what):
        ladders.append(contfrac._text(what))
        return original(self, attempt, start_bits, what)

    def no_lattice(*args):
        raise AssertionError("a surd built a lattice of points")

    monkeypatch.setattr(contfrac.PrecisionContext, "escalate", counting)
    monkeypatch.setattr(metrics, "_kronecker_lattice", no_lattice)
    assert _run(*argv)[0] == 0
    assert ladders == []
