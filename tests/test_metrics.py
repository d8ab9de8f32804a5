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
from kronmesh.metrics import SWEEP_COLUMNS
from kronmesh.sequences import kronecker_scaled, working_scale_bits
from conftest import ALPHA_SPECS, assert_rho_close
import oracles


@pytest.fixture(scope="module")
def golden():
    return km.expand(km.parse_alpha("golden"), 40)


def test_sorted_gaps_vdc4():
    sg = km.sorted_gaps(km.van_der_corput(2, 4))
    assert sg.points == (0, Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
    assert sg.gaps == (Fraction(1, 4),) * 3
    assert sg.left == 0 and sg.right == Fraction(1, 4)
    assert sg.error_bound == 0


def test_vdc4_metrics_exact():
    qm = km.mesh_ratio(km.van_der_corput(2, 4))
    assert qm.fill == Fraction(1, 4)
    assert qm.separation == Fraction(1, 8)
    assert qm.mesh_ratio == 2


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
    assert qm.rho_interval() is None


def test_rho_interval_unresolved_separation():
    qm = QUMetrics(2, Fraction(1, 2), Fraction(1, 100), Fraction(50),
                   "oracle-exact", Fraction(1, 50))
    with pytest.raises(PrecisionUnresolvedError):
        qm.rho_interval()


def test_small_n_validation():
    with pytest.raises(ValueError):
        km.mesh_ratio(km.van_der_corput(2, 1))
    with pytest.raises(ValueError):
        km.separation_radius(km.greedy_packing(1))
    assert km.fill_distance(km.greedy_packing(1)) == Fraction(1, 2)


def test_sorted_gaps_regenerates_coarse_points(golden):
    # at scale 2**14 the 120-point golden prefix generates cleanly but its
    # sorted order is not certified, forcing the doubling path
    coarse = km.kronecker(golden, 120, scale_bits=14)
    assert any(g <= 2 * coarse.error_bound
               for g in sorted_gaps_raw(coarse))
    sg = km.sorted_gaps(coarse)
    assert all(g > 2 * sg.error_bound for g in sg.gaps)
    assert sg.error_bound < coarse.error_bound
    fine = km.mesh_ratio(km.kronecker(golden, 120))
    got = km.mesh_ratio(coarse)
    giv, fiv = got.rho_interval(), fine.rho_interval()
    assert giv.lo <= fiv.hi and fiv.lo <= giv.hi


def sorted_gaps_raw(ps):
    pts = sorted(ps.points)
    return [b - a for a, b in zip(pts, pts[1:])]


def test_sorted_gaps_unresolvable_without_config():
    ps = km.PointSet((Fraction(0), Fraction(1, 2), Fraction(1, 2)), 3, 10,
                     "kronecker", Fraction(1, 4), None)
    with pytest.raises(PrecisionUnresolvedError):
        km.sorted_gaps(ps)


def test_kronecker_bounds_golden_n5(golden):
    br = km.kronecker_bounds(golden, 5)
    assert (br.m, br.h, br.k) == (3, 0, 0)
    assert br.global_upper == 4
    # a_4 + 1/(a_5 + 1) <= 1/alpha_3 <= rho_5: 3/2 <= phi = 1.618 <= 2
    assert br.lower_digit_form == Fraction(3, 2)
    assert br.lower_at_nm is not None
    assert abs(float(br.lower_at_nm.mid) - 1.6180339887) < 1e-9
    assert float(br.upper.mid) == pytest.approx(2 / (1 - 0.61803398875), rel=1e-9)


def test_kronecker_bounds_rejects_rational():
    with pytest.raises(UnsupportedAlphaError):
        km.kronecker_bounds(km.CFExpansion(Rational(1, 3)), 5)


def test_bounds_contain_true_rho_golden():
    rows = km.sweep(KroneckerGen(km.parse_alpha("golden")), 2, 500)
    assert len(rows) == 499
    for row in rows:
        rho_iv = row.metrics.rho_interval()
        br = row.bounds
        assert br is not None
        # not certified above the upper bound
        assert rho_iv.lo <= br.upper.hi, row.metrics.n
        if br.lower_at_nm is not None:
            assert rho_iv.hi >= br.lower_at_nm.lo, row.metrics.n
        assert br.global_upper == 4
        assert rho_iv.lo <= br.global_upper


def test_structural_matches_points(expansions):
    ctx = PrecisionContext(160)
    for spec, exp in expansions.items():
        rows = km.sweep(KroneckerGen(exp), 2, 400, ctx, with_bounds=False)
        for row in rows:
            n = row.metrics.n
            st = km.mesh_ratio_structural(exp, n, ctx)
            a = row.metrics.rho_interval()
            b = st.rho_interval()
            assert a.lo <= b.hi and b.lo <= a.hi, (spec, n)
            assert st.provenance == "structure-exact"


def test_sweep_matches_oneshot_exact_generators():
    for gen, make in ((VdcGen(base=3), lambda n: km.van_der_corput(3, n)),
                      (GreedyGen(), lambda n: km.greedy_packing(n))):
        rows = km.sweep(gen, 2, 80)
        for row in rows:
            n = row.metrics.n
            qm = km.mesh_ratio(make(n))
            assert row.metrics.fill == qm.fill, (gen, n)
            assert row.metrics.separation == qm.separation, (gen, n)
            assert row.metrics.mesh_ratio == qm.mesh_ratio, (gen, n)
            assert row.bounds is None


def test_sweep_matches_oneshot_kronecker(golden):
    rows = km.sweep(KroneckerGen(golden), 2, 60, with_bounds=False)
    for row in rows:
        qm = km.mesh_ratio(km.kronecker(golden, row.metrics.n))
        assert_rho_close(row.metrics.mesh_ratio, qm.mesh_ratio,
                         Fraction(1, 10 ** 12))


def test_fill_sep_monotone_rho_at_least_one():
    for gen in (VdcGen(base=2), GreedyGen(),
                KroneckerGen(km.parse_alpha("sqrt:3"))):
        rows = km.sweep(gen, 2, 300, with_bounds=False)
        prev = None
        for row in rows:
            m = row.metrics
            if not m.is_infinite:
                assert m.mesh_ratio >= 1, (gen, m.n)
            if prev is not None:
                assert m.fill <= prev.fill, (gen, m.n)
                assert m.separation <= prev.separation, (gen, m.n)
            prev = m


def test_sweep_validation():
    with pytest.raises(ValueError):
        km.sweep(GreedyGen(), 1, 10)
    with pytest.raises(ValueError):
        km.sweep(GreedyGen(), 5, 4)


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
    rows = km.sweep(KroneckerGen(Rational(1, 3)), 2, 6)
    by_n = {row.metrics.n: row.metrics for row in rows}
    assert not by_n[3].is_infinite
    assert by_n[4].is_infinite
    assert all(row.bounds is None for row in rows)
    csv = km.sweep_to_csv(rows)
    assert ",inf," in csv


def test_sweep_to_csv_shape(golden):
    rows = km.sweep(KroneckerGen(golden), 2, 12)
    csv = km.sweep_to_csv(rows)
    lines = csv.strip().splitlines()
    assert lines[0] == SWEEP_COLUMNS
    assert len(lines) == 1 + len(rows)
    ncols = len(SWEEP_COLUMNS.split(","))
    for line in lines[1:]:
        assert len(line.split(",")) == ncols
    # lower bound empty off the n_m grid, populated at n = 5 (= n_3)
    grid = {line.split(",")[0]: line.split(",") for line in lines[1:]}
    assert grid["5"][6] != "" and grid["6"][6] == ""
    assert csv == km.sweep_to_csv(rows)


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


@pytest.mark.parametrize("spec", KERNEL_SPECS)
def test_kronecker_kernel_matches_scaled_oracle(spec):
    # every sweep row, and a one-shot mesh_ratio on the same lattice, equal
    # the independent sort-and-scan oracle exactly, error bound included
    exp = km.CFExpansion(km.parse_alpha(spec))
    ctx = PrecisionContext(96)
    n_hi = 400
    bits = working_scale_bits(ctx, n_hi)
    xs, M, U = kronecker_scaled(exp, n_hi, bits)
    rows = km.sweep(KroneckerGen(exp), 2, n_hi, ctx)
    assert [row.metrics.n for row in rows] == list(range(2, n_hi + 1))
    for row in rows:
        n = row.metrics.n
        want = _scaled_oracle_row(xs, M, U, n)
        assert _as_tuple(row.metrics) == want, (spec, n)
        oneshot = km.mesh_ratio(km.kronecker(exp, n, ctx, scale_bits=bits))
        assert oneshot == row.metrics, (spec, n)
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
    full = {row.metrics.n: row for row in km.sweep(gen, 2, n_hi)}
    nm = next(exp.n_at(m) for m in range(1, 40) if exp.n_at(m) > 20)
    for n_lo in (2, nm, nm + 1, n_hi):
        rows = km.sweep(gen, n_lo, n_hi)
        assert [row.metrics.n for row in rows] == list(range(n_lo, n_hi + 1))
        for row in rows:
            assert row == full[row.metrics.n], (spec, n_lo, row.metrics.n)
    # a one-row sweep works at the scale a one-shot analysis of n_m uses
    one = km.sweep(gen, nm, nm)
    assert len(one) == 1
    assert one[0].metrics == km.mesh_ratio(km.kronecker(exp, nm))
    assert one[0].bounds == km.kronecker_bounds(exp, nm)
    assert one[0].bounds.lower_at_nm is not None


@pytest.mark.parametrize("spec", KERNEL_SPECS)
def test_memoized_bounds_equal_fresh_reports(spec):
    exp = km.CFExpansion(km.parse_alpha(spec))
    rows = km.sweep(KroneckerGen(exp), 2, 250)
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
    rows = km.sweep(gen, 2, n_hi)
    for row in rows:
        n = row.metrics.n
        fill, sep, rho = oracles.brute_metrics(points(n))
        assert (row.metrics.fill, row.metrics.separation, row.metrics.mesh_ratio) \
            == (fill, sep, rho), (gen, n)
        assert row.metrics.error_bound == 0
        assert km.mesh_ratio(km.generate(gen, n)) == row.metrics, (gen, n)
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
