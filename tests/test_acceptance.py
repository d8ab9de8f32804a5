"""Acceptance gate: nine end-to-end criteria, one printed verdict line each.

Each test prints `criterion N: PASS/FAIL - detail` through capsys.disabled()
so the verdict survives output capture, then asserts.  Oracles live in
oracles.py and are implemented independently of the library code paths they
check.
"""

import bisect
import math
import random
import time
from collections import Counter
from fractions import Fraction

import mpmath
import pytest

import kronmesh as km
from kronmesh import (
    CFExpansion,
    KroneckerGen,
    PrecisionContext,
    Rational,
    VdcGen,
    GreedyGen,
)
from kronmesh.sequences import kronecker_scaled, working_scale_bits
from conftest import ALPHA_SPECS, PREFIX_SPEC, mp_scaled_points
import oracles

CTX = PrecisionContext(192)


def _report(num: int, ok: bool, detail: str) -> str:
    return f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"


def test_criterion_1_gap_multiset_oracle(capsys):
    t0 = time.time()
    n_max = 2000
    scale_bits = working_scale_bits(CTX, n_max)
    checked = 0
    for spec in ALPHA_SPECS:
        exp = CFExpansion(km.parse_alpha(spec))
        xs, M, unit = mp_scaled_points(spec, n_max, scale_bits)
        srt = []
        for i, x in enumerate(xs):
            bisect.insort(srt, x)
            n = i + 1
            gaps = Counter()
            for a, b in zip(srt, srt[1:]):
                gaps[b - a] += 1
            gaps[M - srt[-1] + srt[0]] += 1
            gs = km.gap_structure(exp, n)
            want = [
                (oracles.form_rung_interval(exp, form, CTX), count)
                for form, count in gs.entries if count
            ]
            drift = 2 * max(i, 1) * unit
            got = [0] * len(want)
            for g, c in gaps.items():
                glo, ghi = Fraction(g - drift, M), Fraction(g + drift, M)
                hits = [
                    j for j, (iv, _) in enumerate(want)
                    if ghi >= iv.lo and glo <= iv.hi
                ]
                assert len(hits) == 1, (spec, n, g)
                got[hits[0]] += c
            assert got == [c for _, c in want], (spec, n)
            checked += 1
    dt = time.time() - t0
    with capsys.disabled():
        print(_report(1, True, f"{checked} gap multisets matched the "
                               f"brute-force oracle for {len(ALPHA_SPECS)} "
                               f"alphas, n <= {n_max} ({dt:.1f}s)"))


def test_criterion_2_exact_identities(capsys):
    t0 = time.time()
    failures = 0
    total = 0
    for spec in ALPHA_SPECS:
        exp = CFExpansion(km.parse_alpha(spec))
        for n in range(1, 2001):
            rep = km.lengths_check(km.gap_structure(exp, n))
            total += 1
            if not rep.all_passed:
                failures += 1
    dt = time.time() - t0
    ok = failures == 0
    with capsys.disabled():
        print(_report(2, ok, f"{total} length-identity checks, "
                             f"{failures} failures ({dt:.1f}s)"))
    assert ok


def test_criterion_3_bounded_digit_sweeps(capsys):
    t0 = time.time()
    results = []
    for spec, cap in (("golden", 4), ("quad:-1,2,1", 6)):
        rows = oracles.segment_rows(KroneckerGen(km.parse_alpha(spec)), 2, 10 ** 5,
                        CTX, with_bounds=False)
        assert all(row.metrics.provenance == "oracle-exact" for row in rows)
        # each distinct exact rho is decided against 1 and the cap exactly
        distinct = {row.metrics.rho_nd: row.metrics for row in rows}.values()
        within = all(oracles.exact_in(qm.rho_nd, 1, cap) for qm in distinct)
        ivs = [oracles.rho_interval(qm) for qm in distinct]
        results.append((spec, cap, within, max(iv.hi for iv in ivs), min(iv.lo for iv in ivs)))
    dt = time.time() - t0
    ok = all(within for _, _, within, _, _ in results)
    detail = "; ".join(
        f"{spec}: max rho {float(mx):.4f} <= {cap}, min {float(mn):.4f}"
        for spec, cap, _, mx, mn in results
    )
    with capsys.disabled():
        print(_report(3, ok, f"{detail} over n in [2, 1e5] ({dt:.1f}s)"))
    assert ok


def test_criterion_4_unbounded_digit_divergence(capsys):
    t0 = time.time()
    alpha = "cf:0;" + ",".join(str(j) for j in range(1, 21))
    exp = CFExpansion(km.parse_alpha(alpha))
    rows = []
    for m in range(3, 13):
        exp.ensure(m)
        n = exp.n_at(m)
        st = km.mesh_ratio_structural(exp, n, CTX)
        if m <= 10:
            bits = working_scale_bits(CTX, n)
            while True:
                try:
                    xs, M, unit = kronecker_scaled(exp, n, bits)
                    fill, sep, rho = oracles.scaled_prefix_metrics(xs, M, unit)
                    break
                except (km.PrecisionUnresolvedError, ArithmeticError):
                    bits *= 2
            del xs
            assert abs(rho - st.mesh_ratio) <= Fraction(1, 10 ** 9) + st.error_bound, m
            # each point is off by at most (n - 1) * unit / M, so fill and
            # separation are each off by at most that much
            e = Fraction((n - 1) * unit, M)
            err = (fill + e) / (sep - e) - rho
            rows.append((m, n, rho, err, "oracle-exact"))
        else:
            rows.append((m, n, st.mesh_ratio, st.error_bound, "structure-exact"))

    eps = Fraction(1, 10 ** 6)
    stated = {m: Fraction(m + 1) + Fraction(1, m + 2) for m, *_ in rows}
    for m, n, rho, err, _ in rows:
        br = km.kronecker_bounds(exp, n, CTX)
        assert (br.m, br.h, br.k) == (m, 0, 0), (m, n)
        # digits a_j = j, so the digit form is a_(m+1) + 1/(a_(m+2) + 1)
        assert br.lower_digit_form == Fraction(m + 1) + Fraction(1, m + 3), m
        assert br.lower_digit_form <= br.lower_at_nm[0], m
        assert rho >= br.lower_at_nm[0] - err, (m, float(rho))
        assert rho >= br.lower_digit_form, (m, float(rho))
    even_ok = all(rho >= stated[m] - eps for m, _, rho, _, _ in rows if m % 2 == 0)
    odd_below = [m for m, _, rho, _, _ in rows if m % 2 == 1 and rho < stated[m]]
    rhos = [rho for _, _, rho, _, _ in rows]
    passes_constants = all(
        any(all(r > c for r in rhos[i:]) for i in range(len(rhos)))
        for c in range(1, 13)
    )
    ok = even_ok and passes_constants
    dt = time.time() - t0
    with capsys.disabled():
        print(_report(4, ok,
                      f"rho at n_m for m=3..12 >= 1/alpha_m >= "
                      f"a_(m+1) + 1/(a_(m+2)+1) ({dt:.1f}s)"))
        for m, n, rho, _, prov in rows:
            print(f"    m={m:<2d} n={n:<11d} rho={float(rho):<12.6f} "
                  f"a_(m+1) + 1/a_(m+2)={float(stated[m]):<10.6f} [{prov}]")
        print(f"    sub-check exceeds every constant c <= 12 eventually: "
              f"{'PASS' if passes_constants else 'FAIL'}")
        print(f"    sub-check a_(m+1) + 1/a_(m+2) - 1e-6 at even m: "
              f"{'PASS' if even_ok else 'FAIL'}")
        print(f"    odd m below a_(m+1) + 1/a_(m+2): {odd_below} (there rho "
              f"= 1/alpha_m = a_(m+1) + alpha_(m+1), and alpha_(m+1) < "
              f"1/a_(m+2))")
    assert even_ok
    assert passes_constants


def test_criterion_5_bound_sandwich_random_alphas(capsys):
    t0 = time.time()
    specs = oracles.random_periodic_alpha_specs(50, seed=20260814)
    rng = random.Random(99)
    upper_checks = 0
    lower_checks = 0
    for spec in specs:
        exp = CFExpansion(km.parse_alpha(spec))
        rows = oracles.segment_rows(KroneckerGen(exp), 2, 2500, CTX, with_bounds=False)
        by_n = {row.metrics.n: row.metrics for row in rows}
        ns = {rng.randint(2, 2500) for _ in range(200)}
        for n in sorted(ns):
            qm = by_n[n]
            riv = oracles.rho_interval(qm)
            br = km.kronecker_bounds(exp, n, CTX)
            upper = oracles.enclose(br.upper)  # exact for a periodic alpha
            assert riv.lo <= upper.hi, (spec, n, float(riv.lo), float(upper.hi))
            upper_checks += 1
        m = 3
        while exp.ensure(m) and exp.n_at(m) <= 2500:
            n = exp.n_at(m)
            qm = by_n[n]
            riv = oracles.rho_interval(qm)
            br = km.kronecker_bounds(exp, n, CTX)
            assert br.lower_at_nm is not None, (spec, n)
            lower = oracles.enclose(br.lower_at_nm)
            assert riv.hi >= lower.lo, (spec, n)
            assert br.lower_digit_form <= lower.hi, (spec, n)
            assert br.lower_digit_form <= riv.hi, (spec, n)
            lower_checks += 1
            m += 1
    assert lower_checks >= 100
    dt = time.time() - t0
    with capsys.disabled():
        print(_report(5, True,
                      f"{upper_checks} upper-bound and {lower_checks} "
                      f"lower-bound interval checks over 50 random periodic "
                      f"alphas ({dt:.1f}s)"))


def test_criterion_6_rational_degeneration(capsys):
    rng = random.Random(61)
    cases = []
    for _ in range(10):
        q = rng.randint(2, 50)
        p = rng.randint(1, q - 1)
        n = q + rng.randint(1, 60)
        cases.append((p, q, n))
    for p, q, n in cases:
        qm = km.mesh_ratio(km.kronecker(Rational(p, q), n))
        assert qm.separation == 0, (p, q, n)
        assert qm.mesh_ratio == math.inf, (p, q, n)
        assert qm.is_infinite
        assert km.metrics_to_json(qm, None)["mesh_ratio"] == "inf"
    with capsys.disabled():
        print(_report(6, True,
                      "10 random rationals p/q with n > q all gave "
                      "separation 0 and the infinite-mesh-ratio marker"))


def test_criterion_7_gap_length_product_identity(capsys):
    t0 = time.time()
    ctx256 = PrecisionContext(256)
    tol = Fraction(1, 1 << 128)
    width_cap = Fraction(1, 1 << 129)
    checked = 0
    cap_note = ""
    for spec in ALPHA_SPECS:
        exp = CFExpansion(km.parse_alpha(spec))
        if spec == PREFIX_SPEC:
            exp.ensure(40)
            digits = list(exp.digits)
        else:
            exp.ensure(40 + 320)
            digits = list(exp.digits[:40 + 321])

        tails = [oracles.tail_interval_from_digits(digits, j) for j in range(41)]
        with mpmath.workprec(300):
            mp_tails = []
            for j in range(41):
                x = mpmath.mpf(0)
                for d in reversed(digits[j + 1:]):
                    x = 1 / (d + x)
                mp_tails.append(x)

        plo, phi = Fraction(1), Fraction(1)
        mp_prod = mpmath.mpf(1)
        for m in range(41):
            plo *= tails[m][0]
            phi *= tails[m][1]
            with mpmath.workprec(300):
                mp_prod = mp_prod * mp_tails[m]
            if m > exp.depth - 1 and spec == PREFIX_SPEC:
                break
            iv = oracles.form_rung_interval(exp, km.eta(exp, m), ctx256, require_positive=True)
            if spec == PREFIX_SPEC and (iv.width > width_cap or phi - plo > width_cap):
                cap_note = f"; prefix alpha certified through m={m - 1}"
                assert m - 1 >= 20, (spec, m)
                break
            # interval agreement, both directions
            assert phi - iv.lo <= tol and iv.hi - plo <= tol, (spec, m)
            assert iv.hi >= plo and phi >= iv.lo, (spec, m)
            # and the 256-bit big-float product itself
            from conftest import mpf_to_fraction
            p = mpf_to_fraction(mp_prod, 280)
            assert iv.lo - tol <= p <= iv.hi + tol, (spec, m)
            checked += 1
    dt = time.time() - t0
    with capsys.disabled():
        print(_report(7, True,
                      f"{checked} gap-length forms matched the tail-product "
                      f"oracle within 2^-128{cap_note} ({dt:.1f}s)"))


def _circle_max_rescan(points):
    """Largest max-arc/min-arc ratio over the prefixes of at least two
    points, rescanning every arc of the circle after each insertion."""
    circle_max = Fraction(0)
    srt = []
    for i, x in enumerate(points):
        bisect.insort(srt, x)
        if i == 0:
            continue
        arcs = [b - a for a, b in zip(srt, srt[1:])]
        arcs.append(1 - srt[-1] + srt[0])
        circle_max = max(circle_max, max(arcs) / min(arcs))
    return circle_max


def _circle_max_split(points):
    """_circle_max_rescan, updating only the arc each new point splits: the
    arcs are kept as a multiset of exact lengths."""
    circle_max = Fraction(0)
    srt = [points[0]]
    arcs = Counter({Fraction(1): 1})
    for x in points[1:]:
        j = bisect.bisect(srt, x)
        a = srt[j - 1] if j else srt[-1] - 1
        b = srt[j] if j < len(srt) else srt[0] + 1
        arcs[b - a] -= 1
        if not arcs[b - a]:
            del arcs[b - a]
        arcs[x - a] += 1
        arcs[b - x] += 1
        srt.insert(j, x)
        circle_max = max(circle_max, max(arcs) / min(arcs))
    return circle_max


def test_criterion_8_vdc_and_greedy(capsys):
    t0 = time.time()
    # With unhalved boundary distances, a base-2 prefix with
    # 2^k < n < 2^(k+1) still lacks 1 - 2^-(k+1): the right boundary gap is
    # 2^-k while the smallest gap is 2^-(k+1), so rho_n = 4.  At n = 2^k the
    # prefix is the grid j / 2^k and rho_n = 2.
    vdc_rows = oracles.segment_rows(VdcGen(base=2), 2, 4096)
    vdc_off_law = [
        row.metrics.n for row in vdc_rows
        if row.metrics.mesh_ratio != (2 if row.metrics.n & (row.metrics.n - 1) == 0 else 4)
    ]

    # circle reading: widest arc over narrowest arc, no boundary terms
    points = km.van_der_corput(2, 4096).points
    assert _circle_max_split(points[:512]) == _circle_max_rescan(points[:512])
    circle_max = _circle_max_split(points)

    greedy_rows = oracles.segment_rows(GreedyGen(tie_break="leftmost"), 2, 1024)
    greedy_max = max(row.metrics.mesh_ratio for row in greedy_rows)

    findings = []
    for k in range(0, 9):
        n = 1 << k
        gset = set(km.greedy_packing(n).points)
        vset = set(km.van_der_corput(2, n).points)
        if gset != vset:
            findings.append((n, sorted(gset - vset), sorted(vset - gset)))

    vdc_ok = not vdc_off_law
    circle_ok = circle_max <= 2
    greedy_ok = greedy_max <= 2
    ok = vdc_ok and circle_ok and greedy_ok and bool(findings)
    dt = time.time() - t0
    with capsys.disabled():
        print(_report(8, ok,
                      f"vdc base-2 rho = 2 at n = 2^k and 4 elsewhere on "
                      f"[2, 4096]: {'holds' if vdc_ok else 'fails'}; "
                      f"circular max-arc/min-arc max {float(circle_max):g}; "
                      f"greedy rho <= 2 on [2, 1024]: max {float(greedy_max):g} "
                      f"({dt:.1f}s)"))
        if findings:
            print("    documented finding: greedy and van der Corput base-2 "
                  "prefixes are NOT equal as sets")
            for n, extra, missing in findings[:3]:
                print(f"    n={n}: greedy-only {[str(x) for x in extra]}, "
                      f"vdc-only {[str(x) for x in missing]}")
            print(f"    (sets differ at {len(findings)} of 9 tested sizes; "
                  f"greedy places the endpoints 0 and 1, vdc never "
                  f"contains 1)")
    assert not vdc_off_law, (
        f"vdc base-2 rho breaks the 2-at-2^k / 4-elsewhere law at "
        f"{len(vdc_off_law)} sizes, first at n={vdc_off_law[0]}"
    )
    assert circle_ok, float(circle_max)
    assert greedy_ok
    assert findings, "sets unexpectedly equal; finding text is stale"


def test_criterion_9_rational_metrics_oracle(capsys):
    t0 = time.time()
    rng = random.Random(1234)
    delta = 2.0 ** -16
    for _ in range(100):
        n = rng.randint(2, 200)
        pts = oracles.random_rational_points(rng, n)
        ps = km.PointSet(tuple(pts), n, None, "external")
        qm = km.mesh_ratio(ps)
        assert qm.separation == oracles.pairwise_separation(pts), n
        assert abs(float(qm.fill) - oracles.grid_fill(pts, 16)) <= delta, n
    dt = time.time() - t0
    with capsys.disabled():
        print(_report(9, True,
                      f"100 random rational point sets: separation equals "
                      f"the pairwise oracle exactly, fill within 2^-16 of "
                      f"the grid oracle ({dt:.1f}s)"))
