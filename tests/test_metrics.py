import importlib
import math
import random
from fractions import Fraction

import pytest

import kronmesh as km
from kronmesh import (
    KroneckerGen,
    GreedyGen,
    PrecisionContext,
    PrecisionUnresolvedError,
    QUMetrics,
    Rational,
    UnsupportedAlphaError,
    VdcGen,
)
from kronmesh import metrics
from kronmesh.metrics import SWEEP_COLUMNS, Segment
from kronmesh.sequences import kronecker_scaled, working_scale_bits
from conftest import ALPHA_SPECS, PREFIX_60_DIGITS
import oracles
from oracles import record_values as V


@pytest.fixture(scope="module")
def golden():
    exp = km.CFExpansion(km.parse_alpha("golden"))
    exp.ensure(40)
    return exp


def test_vdc4_metrics_exact():
    qm = km.mesh_ratio(km.van_der_corput(2, 4))
    assert qm.fill == Fraction(1, 4)
    assert qm.separation == Fraction(1, 8)
    assert qm.mesh_ratio == 2
    assert qm.error_bound == 0


def test_golden_n5_rho_exactly_two(golden):
    # the scaled integers satisfy x_1 - x_4 = M - x_3 exactly, so the ratio
    # cancels to 2 despite the points being approximations
    qm = km.mesh_ratio(km.kronecker(golden, 5))
    assert qm.mesh_ratio == 2
    assert qm.provenance == "oracle-exact"


def test_sqrt2_n3_rho_exactly_one():
    qm = km.mesh_ratio(km.kronecker(km.parse_alpha("quad:-1,2,1"), 3))
    assert qm.mesh_ratio == 1


def test_rational_duplicates_infinite():
    qm = km.mesh_ratio(km.kronecker(Rational(1, 3), 4))
    assert qm.separation == 0
    assert qm.is_infinite
    assert qm.mesh_ratio == math.inf
    assert oracles.rho_interval(qm) is None


def test_rho_interval_unresolved_separation():
    qm = QUMetrics(2, (1, 2), (1, 100), (50, 1), "oracle-exact", (1, 50))
    with pytest.raises(PrecisionUnresolvedError):
        oracles.rho_interval(qm)


def test_small_n_validation():
    with pytest.raises(ValueError):
        km.mesh_ratio(km.van_der_corput(2, 1))
    with pytest.raises(ValueError):
        km.mesh_ratio(km.greedy_packing(1))


def test_sorted_gaps_regenerates_coarse_points(golden):
    # at scale 2**14 the 120-point golden prefix generates cleanly but its
    # sorted order is not certified, so mesh_ratio climbs the ladder to a
    # finer lattice (without rebuilding the points)
    coarse = km.kronecker(golden, 120, scale_bits=14)
    assert any(g <= 2 * coarse.error_bound
               for g in sorted_gaps_raw(coarse))
    got = km.mesh_ratio(coarse)
    assert got.separation > got.error_bound
    assert got.error_bound < coarse.error_bound
    fine = km.mesh_ratio(km.kronecker(golden, 120))
    giv, fiv = oracles.rho_interval(got), oracles.rho_interval(fine)
    assert giv.lo <= fiv.hi and fiv.lo <= giv.hi


def sorted_gaps_raw(ps):
    pts = sorted(ps.points)
    return [b - a for a, b in zip(pts, pts[1:])]


def test_sorted_gaps_unresolvable_without_config():
    ps = km.PointSet((Fraction(0), Fraction(1, 2), Fraction(1, 2)), 3, 10,
                     "kronecker", Fraction(1, 4), None)
    with pytest.raises(PrecisionUnresolvedError):
        km.mesh_ratio(ps)


def test_kronecker_bounds_golden_n5(golden):
    br = km.kronecker_bounds(golden, 5)
    assert (br.m, br.h, br.k) == (3, 0, 0)
    assert br.global_upper == 4
    # a_4 + 1/(a_5 + 1) <= 1/alpha_3 <= rho_5: 3/2 <= phi = 1.618 <= 2
    assert br.lower_digit_form == Fraction(3, 2)
    assert br.lower_at_nm is not None
    # exact for a surd alpha: 1/alpha_3 = phi and 2 / min(alpha_3, 1 - alpha_3) = 2 phi^2
    assert br.lower_at_nm == km.QuadraticSurd(1, 5, 2)
    assert oracles._lowest(*br.upper) == oracles._lowest(3, 5, 1)  # 3 + sqrt(5) = 2 phi^2
    assert abs(float(oracles.enclose(br.lower_at_nm).mid) - 1.6180339887) < 1e-9
    assert float(oracles.enclose(br.upper).mid) == pytest.approx(2 / (1 - 0.61803398875),
                                                                 rel=1e-9)


def test_kronecker_bounds_rejects_rational():
    with pytest.raises(UnsupportedAlphaError):
        km.kronecker_bounds(km.CFExpansion(Rational(1, 3)), 5)


def test_bounds_contain_true_rho_golden():
    rows = oracles.segment_rows(KroneckerGen(km.parse_alpha("golden")), 2, 500)
    assert len(rows) == 499
    for row in rows:
        rho_iv = oracles.rho_interval(row.metrics)
        br = row.bounds
        assert br is not None
        # not certified above the upper bound
        assert rho_iv.lo <= oracles.enclose(br.upper).hi, row.metrics.n
        if br.lower_at_nm is not None:
            assert rho_iv.hi >= oracles.enclose(br.lower_at_nm).lo, row.metrics.n
        assert br.global_upper == 4
        assert rho_iv.lo <= br.global_upper


def test_structural_matches_points(expansions):
    ctx = PrecisionContext(160)
    for spec, exp in expansions.items():
        rows = oracles.segment_rows(KroneckerGen(exp), 2, 400, ctx, with_bounds=False)
        for row in rows:
            n = row.metrics.n
            st = km.mesh_ratio_structural(exp, n, ctx)
            a = oracles.rho_interval(row.metrics)
            b = oracles.rho_interval(st)
            assert a.lo <= b.hi and b.lo <= a.hi, (spec, n)
            assert st.provenance == "structure-exact"


def test_sweep_matches_oneshot_exact_generators():
    for gen, make in ((VdcGen(base=3), lambda n: km.van_der_corput(3, n)),
                      (GreedyGen(), lambda n: km.greedy_packing(n))):
        rows = oracles.segment_rows(gen, 2, 80)
        for row in rows:
            n = row.metrics.n
            qm = km.mesh_ratio(make(n))
            assert row.metrics.fill == qm.fill, (gen, n)
            assert row.metrics.separation == qm.separation, (gen, n)
            assert row.metrics.mesh_ratio == qm.mesh_ratio, (gen, n)
            assert row.bounds is None


def test_sweep_matches_oneshot_kronecker(golden):
    # the sweep's exact rho lies in the enclosure of the one-shot lattice's
    rows = oracles.segment_rows(KroneckerGen(golden), 2, 60, with_bounds=False)
    for row in rows:
        qm = km.mesh_ratio(km.kronecker(golden, row.metrics.n))
        assert oracles.exact_in(row.metrics.rho_nd, *oracles.rho_interval(qm)), row.metrics.n


def test_fill_sep_monotone_rho_at_least_one():
    for gen in (VdcGen(base=2), GreedyGen(),
                KroneckerGen(km.parse_alpha("sqrt:3"))):
        rows = oracles.segment_rows(gen, 2, 300, with_bounds=False)
        prev = None
        for row in rows:
            m = row.metrics
            if not m.is_infinite:
                assert oracles.value_sign(m.rho_nd, (1, 1)) >= 0, (gen, m.n)
            if prev is not None:
                assert oracles.value_sign(m.fill_nd, prev.fill_nd) <= 0, (gen, m.n)
                assert oracles.value_sign(m.separation_nd, prev.separation_nd) <= 0, (gen, m.n)
            prev = m


def test_sweep_validation():
    with pytest.raises(ValueError):
        oracles.segment_rows(GreedyGen(), 1, 10)
    with pytest.raises(ValueError):
        oracles.segment_rows(GreedyGen(), 5, 4)


def test_random_rationals_match_brute():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(2, 60)
        pts = oracles.random_rational_points(rng, n)
        ps = km.PointSet(tuple(pts), n, None, "vdc")
        qm = km.mesh_ratio(ps)
        fill, sep, rho = oracles.brute_metrics(pts)
        assert qm.fill == fill
        if sep is None:
            assert qm.is_infinite
        else:
            assert qm.separation == sep
            assert qm.mesh_ratio == rho


def test_rational_kronecker_sweep_hits_inf():
    gen = KroneckerGen(Rational(1, 3))
    rows = oracles.segment_rows(gen, 2, 6)
    by_n = {row.metrics.n: row.metrics for row in rows}
    assert not by_n[3].is_infinite
    assert by_n[4].is_infinite
    assert all(row.bounds is None for row in rows)
    csv = km.sweep_to_csv(km.sweep_segments(gen, 2, 6))
    assert ",inf," in csv


def test_sweep_to_csv_shape(golden):
    segs = km.sweep_segments(KroneckerGen(golden), 2, 12)
    csv = km.sweep_to_csv(segs)
    lines = csv.strip().splitlines()
    assert lines[0] == SWEEP_COLUMNS
    assert len(lines) == 1 + 11
    ncols = len(SWEEP_COLUMNS.split(","))
    for line in lines[1:]:
        assert len(line.split(",")) == ncols
    # lower bound empty off the n_m grid, populated at n = 5 (= n_3)
    grid = {line.split(",")[0]: line.split(",") for line in lines[1:]}
    assert grid["5"][6] != "" and grid["6"][6] == ""
    assert csv == km.sweep_to_csv(segs)


def test_output_rounds_a_repeated_value_per_mode():
    # one value printed rounded to nearest, down and up in the same output
    qm = QUMetrics(2, (1, 3), (1, 3), (1, 1), "oracle-exact")
    br = km.BoundReport(2, 1, 0, 0, (1, 3, 1, 3), None, None, None)
    cells = km.sweep_to_csv([Segment(2, 2, qm, br)], digits=5).splitlines()[1].split(",")
    assert cells[1:6] == ["0.33333", "0.33333", "1", "0.33333", "0.33334"]
    assert km.metrics_to_json(qm, br, 5)["bounds"]["upper"] == ["0.33333", "0.33334"]


def test_metrics_json_roundtrip(golden):
    qm = km.mesh_ratio(km.kronecker(golden, 7))
    br = km.kronecker_bounds(golden, 7)
    payload = km.metrics_to_json(qm, br)
    assert payload["n"] == 7
    assert set(payload) >= {"n", "fill", "separation", "mesh_ratio", "provenance"}
    assert payload["bounds"]["m"] == br.m
    assert payload["bounds"]["global_upper"] == 4
    inf_payload = km.metrics_to_json(km.mesh_ratio(km.kronecker(Rational(1, 3), 4)), None)
    assert inf_payload["mesh_ratio"] == "inf"
    assert "bounds" not in inf_payload


# -- the integer-lattice kernel against the oracles ---------------------------

KERNEL_SPECS = ("golden", "sqrt:2", "cf:0;(1,2)", "cf:0;2,1(3,1,4)")


def _scaled_oracle_row(xs, M, U, n):
    fill, sep, rho = oracles.scaled_prefix_metrics(xs[:n], M, U)
    return fill, sep, rho, Fraction((n - 1) * U, M)


def _as_tuple(qm):
    return qm.fill, qm.separation, qm.mesh_ratio, qm.error_bound


def _assert_encloses(exact, fill, sep, e, where):
    """A surd's exact QUMetrics lies in a lattice's enclosures: fill and
    separation within its error e of the lattice's, and rho in [(fill - e) /
    (sep + e), (fill + e) / (sep - e)]."""
    assert exact.error_bound == 0, where
    assert oracles.exact_in(exact.fill_nd, fill - e, fill + e), where
    assert oracles.exact_in(exact.separation_nd, sep - e, sep + e), where
    assert oracles.exact_in(exact.rho_nd, (fill - e) / (sep + e), (fill + e) / (sep - e)), where


@pytest.mark.parametrize("spec", KERNEL_SPECS)
def test_kronecker_kernel_matches_scaled_oracle(spec):
    # a one-shot mesh_ratio on the lattice equals the independent
    # sort-and-scan oracle exactly, error bound included, and every exact
    # sweep row lies in that oracle's enclosure
    exp = km.CFExpansion(km.parse_alpha(spec))
    ctx = PrecisionContext(96)
    n_hi = 400
    bits = working_scale_bits(ctx, n_hi)
    xs, M, U = kronecker_scaled(exp, n_hi, bits)
    rows = oracles.segment_rows(KroneckerGen(exp), 2, n_hi, ctx)
    assert [row.metrics.n for row in rows] == list(range(2, n_hi + 1))
    for row in rows:
        n = row.metrics.n
        want = _scaled_oracle_row(xs, M, U, n)
        _assert_encloses(row.metrics, *want[:2], want[3], (spec, n))
        oneshot = km.mesh_ratio(km.kronecker(exp, n, ctx, scale_bits=bits))
        assert _as_tuple(oneshot) == want, (spec, n)
    # the one-shot default scale gives the oracle on its own lattice too
    ps = km.kronecker(exp, n_hi, ctx)
    unit = ps.error_units // (n_hi - 1)
    assert _as_tuple(km.mesh_ratio(ps)) == _scaled_oracle_row(
        list(ps.xs), ps.modulus, unit, n_hi)


@pytest.mark.parametrize("spec", ("golden", "sqrt:2"))
def test_sweep_edges_match_full_sweep(spec):
    exp = km.CFExpansion(km.parse_alpha(spec))
    gen = KroneckerGen(exp)
    n_hi = 300
    full = {row.metrics.n: row for row in oracles.segment_rows(gen, 2, n_hi)}
    nm = next(exp.n_at(m) for m in range(1, 40) if exp.n_at(m) > 20)
    for n_lo in (2, nm, nm + 1, n_hi):
        rows = oracles.segment_rows(gen, n_lo, n_hi)
        assert [row.metrics.n for row in rows] == list(range(n_lo, n_hi + 1))
        for row in rows:
            assert V(row) == V(full[row.metrics.n]), (spec, n_lo, row.metrics.n)
    # a one-row sweep of n_m gives the structure path's exact values
    one = oracles.segment_rows(gen, nm, nm)
    assert len(one) == 1
    structural = km.mesh_ratio_structural(exp, nm)._replace(provenance="oracle-exact")
    assert V(one[0].metrics) == V(structural)
    assert one[0].bounds == km.kronecker_bounds(exp, nm)
    assert one[0].bounds.lower_at_nm is not None


@pytest.mark.parametrize("spec", KERNEL_SPECS)
def test_memoized_bounds_equal_fresh_reports(spec):
    exp = km.CFExpansion(km.parse_alpha(spec))
    rows = oracles.segment_rows(KroneckerGen(exp), 2, 250)
    for row in rows:
        assert row.bounds == km.kronecker_bounds(exp, row.metrics.n), (spec, row.metrics.n)


EXACT_CASES = [
    pytest.param(KroneckerGen(Rational(5, 13)),
                 lambda n: [Fraction(i * 5 % 13, 13) for i in range(n)], id="rat:5/13"),
] + [
    pytest.param(VdcGen(base),
                 lambda n, b=base: [oracles.radical_inverse_reference(i, b) for i in range(n)],
                 id=f"vdc{base}")
    for base in (2, 10)
]


@pytest.mark.parametrize("gen,points", EXACT_CASES)
def test_exact_kernel_matches_brute(gen, points):
    n_hi = 140
    rows = oracles.segment_rows(gen, 2, n_hi)
    for row in rows:
        n = row.metrics.n
        fill, sep, rho = oracles.brute_metrics(points(n))
        assert (row.metrics.fill, row.metrics.separation, row.metrics.mesh_ratio) \
            == (fill, sep, rho), (gen, n)
        assert row.metrics.error_bound == 0
        assert V(km.mesh_ratio(km.generate(gen, n))) == V(row.metrics), (gen, n)
    if isinstance(gen, KroneckerGen):
        # past q the rotation repeats a point: rho is infinite (CLI exit 4)
        assert rows[-1].metrics.is_infinite and rho == math.inf
        assert not km.mesh_ratio(km.generate(gen, 13)).is_infinite


def test_pointset_fraction_and_lattice_forms_agree():
    ps = km.van_der_corput(3, 20)
    assert ps.modulus == 27 and ps.error_units == 0
    again = km.PointSet(ps.points, ps.n, None, "vdc")
    assert again.points == ps.points
    assert km.mesh_ratio(again) == km.mesh_ratio(ps)
    assert km.greedy_packing(9).modulus == 16


def test_prefix_bounds_use_every_known_digit():
    # the tails of a 60-digit prefix are too short for 576 bits, so the
    # bounds take the bracket of every known digit (a 42-digit window once
    # gave widths of 2**-181 at n_2 and 2**-190 at n_10)
    exp = km.CFExpansion(km.parse_alpha(PREFIX_60_DIGITS))
    ctx = PrecisionContext(576)
    upper = km.kronecker_bounds(exp, exp.n_at(2), ctx).upper
    assert oracles.enclose(upper).width <= Fraction(1, 2 ** 250)
    br = km.kronecker_bounds(exp, exp.n_at(10), ctx)
    assert oracles.enclose(br.upper).width <= Fraction(1, 2 ** 215)
    lo, hi = oracles.tail_interval_from_digits(exp.digits, 10)
    assert br.lower_at_nm == (1 / hi, 1 / lo)


def test_prefix_bound_denominator_stops_after_two_rungs(monkeypatch):
    metrics = importlib.import_module("kronmesh.metrics")
    tried = []
    original = metrics._tail_ends

    def recording(exp, m, bits):
        tried.append(bits)
        return original(exp, m, bits)

    monkeypatch.setattr(metrics, "_tail_ends", recording)
    exp = km.CFExpansion(km.parse_alpha("cf:0;1,2,3,4,5"))
    with pytest.raises(PrecisionUnresolvedError, match="bound denominator sign.*cannot reduce"):
        km.kronecker_bounds(exp, 225)
    assert tried == [192, 384]


def _outcome(f):
    try:
        return f()
    except km.KronmeshError as e:
        return type(e)


_RNG = random.Random(3)
DIFF_PREFIXES = (
    "cf:0;1,2,3",
    "cf:0;1,2,3,4,5",
    "cf:0;" + ",".join(["1"] * 12),
    "cf:0;" + ",".join(["2"] * 9),
    "cf:1;7,2,2,2,2,2,2",
    "cf:0;3,1,4,1,5,9,2,6",
    ALPHA_SPECS[-1],
) + tuple("cf:0;" + ",".join(str(_RNG.randint(1, 9)) for _ in range(_RNG.randint(5, 14)))
          for _ in range(3))
DIFF_SPECS = ("golden", "sqrt:2", "sqrt:7", "quad:1,13,6") + tuple(
    oracles.random_periodic_alpha_specs(6, 11)) + DIFF_PREFIXES


def _block_edges(exp, n_max):
    """n = n_m + h*s_m + k for h in {0, a_{m+1} - 1} and k in {0, 1, 2, 3},
    for every n_m <= n_max the expansion reaches."""
    edges, m = set(), 1
    while exp.ensure(m + 1) and exp.n_at(m) <= n_max:
        a, s = exp.digit(m + 1), exp.s_at(m)
        edges.update(exp.n_at(m) + h * s + k for h in (0, a - 1) for k in range(min(4, s)))
        m += 1
    return sorted(edges)


@pytest.mark.parametrize("spec", DIFF_SPECS)
def test_kronecker_forms_match_sorted_points(spec):
    # the three-gap forms of a digit prefix, on its lattice, give what
    # sorting the points gave: the same QUMetrics, error bound included, or
    # the same error class (prefixes run out of digits or of certified order
    # part way); a surd's exact values lie in every enclosure the sorted
    # points certify, at any --bits
    exp = km.CFExpansion(km.parse_alpha(spec))
    gen = KroneckerGen(exp)
    ns = sorted(set(range(2, 401)) | set(_block_edges(exp, 4000)))
    for bits in (64, 192):
        ctx = PrecisionContext(bits)
        for n in ns:
            want = _outcome(lambda: oracles.kronecker_point_metrics(exp, n, ctx))
            got = _outcome(lambda: oracles.segment_rows(gen, n, n, ctx, False)[0].metrics)
            if exp._alpha0_surd is None:
                assert V(got) == V(want), (spec, bits, n)
            elif not isinstance(want, type):
                _assert_encloses(got, want.fill, want.separation, want.error_bound,
                                 (spec, bits, n))
    # a coarse start climbs the ladder on both paths
    ctx = PrecisionContext(64)
    for n in range(2, 121):
        want = _outcome(lambda: oracles.kronecker_point_metrics(exp, n, ctx, 12))
        got = _outcome(lambda: km.mesh_ratio(km.kronecker(exp, n, ctx, scale_bits=12)))
        assert V(got) == V(want), (spec, n)


@pytest.mark.parametrize("spec", DIFF_SPECS)
def test_sweep_rows_across_memo_keys_match_oneshot(spec):
    # windows over block edges change the (m, h, min(k, 2)) key between
    # rows; every row of a digit prefix equals the sorted-point row on the
    # sweep's lattice, and every row of a surd equals its one-shot structure
    # evaluation and lies in the sorted points' enclosure
    exp = km.CFExpansion(km.parse_alpha(spec))
    gen = KroneckerGen(exp)
    ctx = PrecisionContext(64)
    surd = exp._alpha0_surd is not None
    for edge in _block_edges(exp, 3000):
        lo, hi = max(2, edge - 2), edge + 3
        rows = _outcome(lambda: oracles.segment_rows(gen, lo, hi, ctx))
        lattice = _outcome(lambda: oracles.kronecker_point_lattice(exp, hi, ctx))
        if isinstance(lattice, type) and not surd:
            assert rows == lattice, (spec, lo, hi)
            continue
        assert [row.metrics.n for row in rows] == list(range(lo, hi + 1))
        for row in rows:
            n = row.metrics.n
            assert V(row.bounds) == V(km.kronecker_bounds(exp, n, ctx)), (spec, n)
            if surd:
                structural = km.mesh_ratio_structural(exp, n, ctx)
                assert V(row.metrics) == V(structural._replace(provenance="oracle-exact"))
                if isinstance(lattice, type):
                    continue
            xs, M, U = lattice
            want = _scaled_oracle_row(xs, M, U, n)
            oneshot = km.mesh_ratio(km.kronecker(exp, n, ctx, scale_bits=M.bit_length() - 1))
            assert _as_tuple(oneshot) == want, (spec, n)
            if surd:
                _assert_encloses(row.metrics, *want[:2], want[3], (spec, n))
            else:
                assert V(oneshot) == V(row.metrics), (spec, n)


@pytest.mark.parametrize("spec, bits, n", [
    ("quad:1,13,6", 9, 14), ("cf:0;(8)", 8, 9), ("cf:0;8,3(8)", 17, 209)])
def test_lattice_climbs_past_a_straddle_at_the_point_nearest_1(spec, bits, n):
    # at these scales the smallest gap is certified but the point nearest 1
    # straddles 1: the sorted-point path rebuilds at a finer scale, and the
    # lattice must climb to the same rung
    exp = km.CFExpansion(km.parse_alpha(spec))
    ctx = PrecisionContext(64)
    xs, M, U = oracles.kronecker_point_lattice(exp, n, ctx, bits)
    assert M > 1 << bits
    assert metrics._kronecker_lattice(exp, n, ctx, bits)[1:] == (U, M)


# -- closed forms of the exact generators against the sorted-point kernel -----

def _brute_qm(points):
    fill, sep, rho = oracles.brute_metrics(points)
    return oracles.qumetrics(len(points), fill, sep, rho, "oracle-exact")


def _runs_edges(steps, n_max):
    """Every n in 2..n_max within 1 of c*G, for c = 1..20 and G in steps."""
    return sorted({c * G + d for G in steps for c in range(1, 21) for d in (-1, 0, 1)
                   if 2 <= c * G + d <= n_max})


@pytest.mark.parametrize("base", range(2, 11))
def test_vdc_closed_form_matches_kernel(base):
    # every row, error bound included, equals the sorted-point kernel, and
    # brute force at every n <= 150 and at the edges of the runs c*b**K
    gen = VdcGen(base)
    rows = oracles.segment_rows(gen, 2, 3000)
    assert V([row.metrics for row in rows]) == V(oracles.exact_sweep_metrics(gen, 2, 3000))
    assert all(row.bounds is None for row in rows)
    pts = [oracles.radical_inverse_reference(i, base) for i in range(3000)]
    powers = [base ** k for k in range(8) if base ** k <= 3000]
    for n in sorted(set(range(2, 151)) | set(_runs_edges(powers, 1200))):
        assert V(rows[n - 2].metrics) == V(_brute_qm(pts[:n])), (base, n)
    # a sweep may start inside a run
    for lo in (3, base ** 2 + 1, 2 * base ** 3 - 1):
        assert V(oracles.segment_rows(gen, lo, 3000)) == V(rows[lo - 2:])


@pytest.mark.parametrize("tie_break", ["leftmost", "rightmost"])
def test_greedy_closed_form_matches_kernel(tie_break):
    gen = GreedyGen(tie_break)
    rows = oracles.segment_rows(gen, 2, 4100)
    assert V([row.metrics for row in rows]) == V(oracles.exact_sweep_metrics(gen, 2, 4100))
    # rho is 1 at n = 2**k + 1 and 2 everywhere else
    assert [row.metrics.n for row in rows if row.metrics.mesh_ratio == 1] \
        == [2 ** k + 1 for k in range(1, 13)]
    assert all(row.metrics.mesh_ratio in (1, 2) for row in rows)
    pts = km.greedy_packing(1100, tie_break).points
    assert pts[:300] == tuple(oracles.greedy_reference(300, tie_break))
    for n in sorted(set(range(2, 101)) | set(_runs_edges([2 ** k for k in range(11)], 1100))):
        assert V(rows[n - 2].metrics) == V(_brute_qm(pts[:n])), (tie_break, n)
    for lo in (3, 4, 1000):
        assert V(oracles.segment_rows(gen, lo, 4100)) == V(rows[lo - 2:])


def _rational_specs(q_max):
    """Every coprime p/q with 0 <= p < q <= q_max, and per q a p above q
    and a negative p."""
    for q in range(1, q_max + 1):
        ps = [p for p in range(q) if math.gcd(p, q) == 1]
        yield from ((p, q) for p in ps)
        yield ps[-1] + 3 * q, q
        yield ps[0] - q, q


def test_rational_forms_match_kernel():
    # the three-gap forms at (p mod q)/q for n <= q and the repeat row past
    # q equal the sorted-point kernel at every n <= q + 3, and brute force
    # at every n for q <= 20
    for p, q in _rational_specs(120):
        gen = KroneckerGen(Rational(p, q))
        rows = oracles.segment_rows(gen, 2, q + 3)
        assert V([row.metrics for row in rows]) == V(oracles.exact_sweep_metrics(gen, 2, q + 3)), \
            (p, q)
        assert all(row.bounds is None for row in rows)
        assert [row.metrics.is_infinite for row in rows] == [n > q for n in range(2, q + 4)]
        if q <= 20:
            pts = [Fraction(i * p % q, q) for i in range(q + 3)]
            for row in rows:
                assert V(row.metrics) == V(_brute_qm(pts[:row.metrics.n])), (p, q, row.metrics.n)
        for lo in (q - 1, q + 1):
            if lo >= 2:
                assert V(oracles.segment_rows(gen, lo, q + 3)) == V(rows[lo - 2:]), (p, q, lo)
