import decimal
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
from kronmesh.errors import PrecisionUnresolvedError
from kronmesh.sequences import _point_strings, kronecker_scaled, working_scale_bits
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


def _scaled_or_error(f, exp, n, bits):
    try:
        return f(exp, n, bits)
    except PrecisionUnresolvedError as e:
        return str(e)


# bare cf: prefixes have a bracket, so U > 1 at scales above their depth
_STRADDLE_SPECS = ("golden", "sqrt:2", "cf:0;(1,2)", "cf:0;1,2,3", "cf:0;1,2,3,4,5",
                   "cf:0;7,1,9", "cf:0;2,3,1,1,4,2,6")


def test_kronecker_scaled_matches_the_point_loop_on_a_grid():
    # every scale from 8 to 40 bits: the same points, or the same first
    # straddle; the grid reaches all three outcomes of the bulk bound
    outcomes = set()
    for spec in _STRADDLE_SPECS:
        exp = CFExpansion(km.parse_alpha(spec))
        for bits in range(8, 41):
            for n in (*range(1, 65), 100, 300):
                want = _scaled_or_error(oracles.kronecker_scaled_loop, exp, n, bits)
                assert _scaled_or_error(kronecker_scaled, exp, n, bits) == want, (spec, bits, n)
                if isinstance(want, str):
                    outcomes.add("straddle")
                else:
                    xs, M, U = want
                    outcomes.add("bound reaches M" if max(xs) + (n - 1) * U >= M else "clear")
    assert outcomes == {"straddle", "bound reaches M", "clear"}


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(1, 40), min_size=1, max_size=8),
       st.integers(8, 40), st.integers(1, 500))
def test_kronecker_scaled_matches_the_point_loop_on_prefixes(digits, bits, n):
    exp = CFExpansion(km.parse_alpha("cf:0;" + ",".join(map(str, digits))))
    want = _scaled_or_error(oracles.kronecker_scaled_loop, exp, n, bits)
    assert _scaled_or_error(kronecker_scaled, exp, n, bits) == want


_RENDER_DIGITS = (1, 2, 3, 17, 40, 60, 1000)


@st.composite
def _render_cases(draw):
    """(xs, M, digits): a modulus of each kind the renderer tells apart and
    the x in [0, M] where its integer paths end: 0, M, M//10 and M//10**6,
    ties and exact d-digit values, and the values that carry to 1."""
    d = draw(st.sampled_from(_RENDER_DIGITS))
    kind = draw(st.sampled_from(("2**B", "2**a * 5**b", "3**k", "q")))
    if kind == "2**B":
        M = 1 << draw(st.one_of(st.integers(max(0, d - 3), d + 4), st.integers(0, 300)))
    elif kind == "2**a * 5**b":
        M = 2 ** draw(st.integers(0, 70)) * 5 ** draw(st.integers(0, 70))
    elif kind == "3**k":
        M = 3 ** draw(st.integers(0, 150))
    else:
        M = draw(st.integers(1, 10 ** 90))
    P = 10 ** d
    t = 2 * draw(st.integers(0, P - 1)) + 1
    tie = M * t // (2 * P)  # x/M at or just below the tie t/(2*10**d), t odd
    exact = M * (t + 1) // (2 * P)  # x/M at or just below a d-digit decimal
    # on 2**B the odd multiples of 2**(B-1-d) are ties, the even ones exact
    shift = M.bit_length() - 2 - d
    on_grid = draw(st.integers(1, 2 ** (d + 1))) << shift if shift >= 0 else 0
    carry = M - -(-M // (2 * P))
    edges = [0, M, M // 10, M // 10 ** 6, tie, exact, on_grid, carry, M - 1]
    xs = [min(M, max(0, x + draw(st.integers(-2, 2)))) for x in edges]
    xs += draw(st.lists(st.integers(0, M), max_size=12))
    return xs, M, d


@settings(max_examples=400, deadline=None)
@given(_render_cases())
def test_point_strings_match_decimal_division(case):
    xs, M, digits = case
    with decimal.localcontext(decimal.Context(prec=digits, rounding=decimal.ROUND_HALF_EVEN)):
        want = [str(decimal.Decimal(x) / decimal.Decimal(M)) for x in xs]
    assert _point_strings(xs, M, digits) == want


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


BLOCK = km.sequences.BLOCK


@pytest.mark.parametrize("gen", [KroneckerGen(km.parse_alpha("golden")), VdcGen(3),
                                 GreedyGen("rightmost")], ids=str)
@pytest.mark.parametrize("n", [BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK - 1, 3 * BLOCK,
                               3 * BLOCK + 1])
def test_point_writers_at_block_edges(gen, n):
    # the writers render BLOCK points per chunk; their text is the one the
    # whole dump rendered at once gave
    ps = km.generate(gen, n)
    digits = 17
    with decimal.localcontext(decimal.Context(prec=digits, rounding=decimal.ROUND_HALF_EVEN)):
        values = [str(decimal.Decimal(x) / decimal.Decimal(ps.modulus)) for x in ps.xs]
    chunks = list(km.sequences._csv_point_chunks(ps, digits))
    assert "".join(chunks) == "index,value\n" + "".join(
        f"{i},{v}\n" for i, v in enumerate(values))
    assert km.points_to_csv(ps, digits) == "".join(chunks)
    assert len(chunks) == 1 + -(-n // BLOCK)
    assert max(chunk.count("\n") for chunk in chunks) <= BLOCK
    payload = km.points_to_json(ps, digits)
    assert payload["points"] == values
    chunks = list(km.sequences._json_point_chunks(ps, digits))
    assert "".join(chunks) == json.dumps(payload, indent=2) + "\n"
    assert max(chunk.count("\n") for chunk in chunks) <= BLOCK
