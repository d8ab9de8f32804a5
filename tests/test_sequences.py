import json
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import kronmesh as km
from kronmesh import (
    CFExpansion,
    GreedyGen,
    KroneckerGen,
    PrecisionContext,
    Rational,
    VdcGen,
)
from kronmesh.sequences import kronecker_scaled, working_scale_bits
from conftest import ALPHA_SPECS, mp_alpha, mpf_to_fraction
import oracles


def test_kronecker_starts_at_zero():
    ps = km.kronecker(km.parse_alpha("golden"), 8)
    assert ps.points[0] == 0
    assert ps.n == 8


def test_kronecker_matches_bigfloat():
    import mpmath
    for spec in ALPHA_SPECS:
        ps = km.kronecker(km.parse_alpha(spec), 50)
        a = mp_alpha(spec, 300)
        for i, x in enumerate(ps.points):
            with mpmath.workprec(300):
                true = mpf_to_fraction((i * a) % 1, 280)
            assert abs(x - true) <= ps.error_bound + Fraction(1, 2**270), (spec, i)


def test_kronecker_error_bound_honest():
    ps = km.kronecker(km.parse_alpha("sqrt:2"), 100, PrecisionContext(128))
    assert ps.error_bound <= Fraction(1, 2**ps.precision_bits)
    assert ps.precision_bits >= 128


def test_kronecker_rational_exact():
    ps = km.kronecker(Rational(1, 3), 7)
    assert ps.error_bound == 0
    assert list(ps.points) == [Fraction(0), Fraction(1, 3), Fraction(2, 3),
                               Fraction(0), Fraction(1, 3), Fraction(2, 3),
                               Fraction(0)]
    # improper rationals reduce mod 1
    ps2 = km.kronecker(Rational(7, 3), 4)
    assert list(ps2.points) == [Fraction(0), Fraction(1, 3), Fraction(2, 3),
                                Fraction(0)]
    # wrapped in an expansion, still exact
    ps3 = km.kronecker(CFExpansion(Rational(3, 8)), 9)
    assert ps3.error_bound == 0
    assert ps3.points[8] == Fraction(0)


def test_kronecker_scaled_straddle_free():
    exp = CFExpansion(km.parse_alpha("golden"))
    xs, M, U = kronecker_scaled(exp, 1000, 120)
    for i, x in enumerate(xs):
        assert 0 <= x and x + i * U < M, i


def test_working_scale_bits_margin():
    assert working_scale_bits(PrecisionContext(192), 1000) >= 192 + 10 + 16


def test_vdc_hand_values_base2():
    ps = km.van_der_corput(2, 8)
    want = [Fraction(0), Fraction(1, 2), Fraction(1, 4), Fraction(3, 4),
            Fraction(1, 8), Fraction(5, 8), Fraction(3, 8), Fraction(7, 8)]
    assert list(ps.points) == want
    assert ps.error_bound == 0


def test_vdc_hand_values_base3():
    ps = km.van_der_corput(3, 6)
    want = [Fraction(0), Fraction(1, 3), Fraction(2, 3),
            Fraction(1, 9), Fraction(4, 9), Fraction(7, 9)]
    assert list(ps.points) == want


def test_vdc_powers_fill_dyadic_grid():
    for k in range(0, 13):
        n = 1 << k
        ps = km.van_der_corput(2, n)
        assert set(ps.points) == {Fraction(i, n) for i in range(n)}, k


def test_vdc_matches_reference():
    for base in (2, 3, 4, 5):
        ps = km.van_der_corput(base, 500)
        for i, x in enumerate(ps.points):
            assert x == oracles.radical_inverse_reference(i, base), (base, i)


def test_vdc_blocks_match_digit_reversal():
    # every n <= 3000 and the sizes around each power up to 10**5; sizes of
    # one lattice come largest first, so one oracle run serves them all
    for base in range(2, 17):
        sizes = set(range(1, 3001))
        p = base
        while p <= 10 ** 5:
            sizes.update((p - 1, p, p + 1))
            p *= base
        ref, M = (), 0
        for n in sorted(sizes, reverse=True):
            if not ref or n <= M // base:  # below the oracle's lattice
                xs, M = oracles.vdc_digit_reversal(base, n)
                ref = tuple(xs)
            ps = km.van_der_corput(base, n)
            assert ps.modulus == M, (base, n)
            assert len(ps.xs) == n, (base, n)
            assert ps.xs == ref[:n], (base, n)


def test_vdc_huge_base_stays_linear_in_n():
    # a block once ran all base - 1 digit offsets, so the work grew with the
    # base, not with n; only the digits that reach below n may be visited
    for base in (1001, 10 ** 7, 10 ** 12):
        for n in (1, 2, 1000):
            start = time.perf_counter()
            ps = km.van_der_corput(base, n)
            assert time.perf_counter() - start < 1, (base, n)
            xs, M = oracles.vdc_digit_reversal(base, n)
            assert ps.modulus == M and ps.xs == tuple(xs), (base, n)


def test_vdc_rejects_bad_base():
    with pytest.raises(ValueError):
        km.van_der_corput(1, 4)
    with pytest.raises(ValueError):
        VdcGen(base=0)


def test_greedy_hand_prefix():
    ps = km.greedy_packing(7)
    want = [Fraction(1, 2), Fraction(0), Fraction(1),
            Fraction(1, 4), Fraction(3, 4), Fraction(1, 8), Fraction(3, 8)]
    assert list(ps.points) == want
    assert ps.error_bound == 0


def test_greedy_matches_reference_both_tiebreaks():
    for tb in ("leftmost", "rightmost"):
        ps = km.greedy_packing(64, tie_break=tb)
        want = oracles.greedy_reference(64, tb)
        assert list(ps.points) == want, tb


@pytest.mark.parametrize("tie_break", ["leftmost", "rightmost"])
def test_greedy_closed_form_matches_the_search(tie_break):
    # the search is one sequence; greedy_packing(n) must be its first n
    # points on the lattice 2**bit_length(n), past the full levels at 1025
    # and 2049 points
    small, _ = oracles.greedy_lattice_reference(200, tie_break)
    assert [Fraction(x, 256) for x in small] == oracles.greedy_reference(200, tie_break)
    xs, M = oracles.greedy_lattice_reference(2100, tie_break)
    for n in range(1, 2101):
        ps = km.greedy_packing(n, tie_break)
        assert ps.modulus == 1 << n.bit_length() and ps.error_units == 0
        scale = M // ps.modulus
        assert [x * scale for x in ps.xs] == xs[:n], n


def test_greedy_tiebreak_mirror():
    left = km.greedy_packing(40, tie_break="leftmost").points
    right = km.greedy_packing(40, tie_break="rightmost").points
    assert [1 - x for x in right] == list(left)


def test_greedy_min_distance_nonincreasing():
    ps = km.greedy_packing(80)
    chosen = []
    prev = None
    for x in ps.points:
        if chosen:
            d = min(abs(x - y) for y in chosen)
            if prev is not None:
                assert d <= prev
            prev = d
        chosen.append(x)


def test_greedy_rejects_bad_tiebreak():
    with pytest.raises(ValueError):
        GreedyGen(tie_break="middle")


def test_generate_dispatch():
    ctx = PrecisionContext(80)
    ps = km.generate(KroneckerGen(km.parse_alpha("sqrt:3")), 12, ctx)
    assert ps.n == 12
    ps2 = km.generate(VdcGen(base=2), 5, ctx)
    assert ps2.points[4] == Fraction(1, 8)
    ps3 = km.generate(GreedyGen(), 3, ctx)
    assert ps3.points[2] == 1


def test_pointset_regenerate_at_a_scale():
    golden = km.parse_alpha("golden")
    ctx = PrecisionContext(64)
    ps = km.kronecker(golden, 30, ctx)
    # at the set's scale the first 10 points are the set's first 10
    same_scale = km.kronecker(golden, 10, ctx, scale_bits=ps.modulus.bit_length() - 1)
    assert same_scale.n == 10 and list(same_scale.points) == list(ps.points[:10])
    finer = km.kronecker(golden, 10, ctx, scale_bits=256)
    assert finer.n == 10
    assert finer.error_bound < same_scale.error_bound
    import mpmath
    a = mp_alpha("golden", 300)
    for i, x in enumerate(finer.points):
        with mpmath.workprec(300):
            true = mpf_to_fraction((i * a) % 1, 280)
        assert abs(x - true) <= finer.error_bound + Fraction(1, 2**270)


def test_points_csv_json_deterministic():
    ps = km.van_der_corput(2, 4)
    csv1 = km.points_to_csv(ps)
    assert csv1.splitlines()[0] == "index,value"
    assert csv1 == km.points_to_csv(ps)
    payload = km.points_to_json(ps, digits=20)
    assert payload["n"] == 4
    assert payload["generator"] == ps.generator_tag
    assert len(payload["points"]) == 4
    assert json.dumps(payload) == json.dumps(km.points_to_json(ps, digits=20))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 200), st.integers(2, 6))
def test_vdc_in_unit_interval(n, base):
    ps = km.van_der_corput(base, n)
    assert all(0 <= x < 1 for x in ps.points)
    assert len(set(ps.points)) == n


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 60))
def test_greedy_points_distinct_in_closed_interval(n):
    ps = km.greedy_packing(n)
    assert all(0 <= x <= 1 for x in ps.points)
    assert len(set(ps.points)) == n
