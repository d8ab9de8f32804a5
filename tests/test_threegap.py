import bisect
import json
import random
from fractions import Fraction

import pytest

import kronmesh as km
from kronmesh import (
    CFExpansion,
    GapStructure,
    LinearForm,
    OutOfRangeError,
    PrecisionContext,
    PrecisionUnresolvedError,
    Rational,
    UnsupportedAlphaError,
)
from conftest import ALPHA_SPECS, PREFIX_60_DIGITS, PREFIX_SPEC, mp_scaled_points
import oracles


@pytest.fixture(scope="module")
def golden():
    exp = CFExpansion(km.parse_alpha("golden"))
    exp.ensure(20)
    return exp


def test_eta_examples_golden(golden):
    assert km.eta(golden, -1) == LinearForm(0, 1)
    assert km.eta(golden, 0) == LinearForm(1, 0)
    assert km.eta(golden, 1) == LinearForm(-1, 1)
    assert km.eta(golden, 2) == LinearForm(2, -1)
    assert km.eta(golden, 3) == LinearForm(-3, 2)


def test_eta_example_sqrt2():
    exp = CFExpansion(km.parse_alpha("sqrt:2"))
    assert km.eta(exp, 1) == LinearForm(-2, 1)     # 1 - 2(sqrt2 - 1) = 3 - 2*sqrt2


def test_eta_out_of_range():
    exp = CFExpansion(km.parse_alpha("cf:0;1,2,3"))
    with pytest.raises(OutOfRangeError):
        km.eta(exp, 4)
    with pytest.raises(OutOfRangeError):
        km.eta(exp, -2)


@pytest.mark.parametrize("spec,hi", [
    ("golden", 500),
    ("sqrt:2", 500),
    ("cf:0;2,1(3,1,2)", 500),
    (PREFIX_SPEC, 30),
])
def test_eta_equals_recurrence_oracle(spec, hi):
    exp = CFExpansion(km.parse_alpha(spec))
    exp.ensure(hi)
    assert exp.depth >= hi
    for m in range(-1, hi + 1):
        assert km.eta(exp, m) == oracles.eta_recurrence(exp, m), (spec, m)
    if spec == PREFIX_SPEC:
        with pytest.raises(OutOfRangeError):
            km.eta(exp, hi + 1)


def test_eta_matches_convergents(expansions):
    # eta_m = (-1)^m (s_m * alpha0 - (p_m - a_0 s_m)) as a linear form
    for spec, exp in expansions.items():
        hi = 12 if spec != PREFIX_SPEC else 12
        exp.ensure(hi)
        a0 = exp.digits[0]
        for m in range(hi + 1):
            form = km.eta(exp, m)
            pm, qm = exp.convergents[m]
            sign = 1 if m % 2 == 0 else -1
            assert form.u == sign * exp.s_at(m), (spec, m)
            assert form.v == -sign * (pm - a0 * qm), (spec, m)


def test_eta_positive_decreasing(expansions):
    ctx = PrecisionContext(128)
    for spec, exp in expansions.items():
        prev = None
        for m in range(0, 13):
            iv = oracles.form_rung_interval(exp, km.eta(exp, m), ctx, require_positive=True)
            assert iv.lo > 0, (spec, m)
            if prev is not None:
                assert iv.hi < prev.lo, (spec, m)
            prev = iv


def test_eta_recurrence_identity(expansions):
    # eta_{m+1} = eta_{m-1} - a_{m+1} * eta_m, exactly on coefficients
    for spec, exp in expansions.items():
        exp.ensure(13)
        for m in range(0, 12):
            lhs = km.eta(exp, m + 1)
            rhs = km.eta(exp, m - 1) - km.eta(exp, m).scale(exp.digit(m + 1))
            assert lhs == rhs, (spec, m)


def test_decompose_examples(golden):
    assert km.decompose(golden, 1) == km.Decomposition(0, 0, 0)
    assert km.decompose(golden, 5) == km.Decomposition(3, 0, 0)
    assert km.decompose(golden, 6) == km.Decomposition(3, 0, 1)
    with pytest.raises(ValueError):
        km.decompose(golden, 0)


def test_decompose_reconstructs(expansions):
    for spec, exp in expansions.items():
        for n in range(1, 600):
            d = km.decompose(exp, n)
            sm, nm = exp.s_at(d.m), exp.n_at(d.m)
            assert nm <= n < exp.n_at(d.m + 1)
            assert n == nm + d.h * sm + d.k
            assert 0 <= d.h <= exp.digit(d.m + 1) - 1
            assert 0 <= d.k <= sm - 1


def test_decompose_rational_range():
    exp = CFExpansion(Rational(3, 8))
    # s = (1, 2, 3, 8), n = (1, 3, 5, 11); the lattice regime starts at 11
    assert km.decompose(exp, 10) == km.Decomposition(2, 1, 2)
    with pytest.raises(UnsupportedAlphaError):
        km.decompose(exp, 11)


def test_decompose_prefix_exhaustion():
    exp = CFExpansion(km.parse_alpha("cf:0;1,2,3"))
    with pytest.raises(PrecisionUnresolvedError):
        km.decompose(exp, 200)


DECOMPOSE_SPECS = ("golden", "sqrt:213", "cf:0;20000(1)", *oracles.random_periodic_alpha_specs(
    4, seed=23, digit_hi=40), "rat:3/8", "rat:355/113", "rat:-7/30", "rat:1/20000", "rat:5/1",
    "rat:" + "/".join(str(v) for v in oracles.convergents_from_digits([0] + [1, 2, 3] * 40)[-1]),
    PREFIX_SPEC, PREFIX_60_DIGITS, "cf:0;1,2,3")


@pytest.mark.parametrize("spec", DECOMPOSE_SPECS)
def test_decompose_equals_convergent_oracle(spec):
    # s_m = q_m and n_m = q_m + q_{m-1} from oracles.convergents_from_digits
    # (q_{-1} = 0); probes n_m - 1, n_m, n_m + 1 and the block edges
    # n_m + h s_m + k at h in {0, 1, a_{m+1} - 1}, k in {0, s_m - 1}, m <= 200
    ref = CFExpansion(km.parse_alpha(spec))
    ends = not ref.ensure(201)  # a rational or a prefix ends before a_201
    digits = ref.digits
    s = [qm for _, qm in oracles.convergents_from_digits(digits)]
    nm = [s[m] + (s[m - 1] if m else 0) for m in range(len(s))]
    top = len(digits) - 1  # n < n_top decomposes within these digits
    probes = set()
    for m in range(min(top + 1, 201)):
        probes |= {nm[m] - 1, nm[m], nm[m] + 1}
        if m < top:
            a = digits[m + 1]
            probes |= {nm[m] + h * s[m] + k for h in {0, 1, a - 1} for k in (0, s[m] - 1)}
    probes = sorted(n for n in probes if n >= 1)
    random.Random(spec).shuffle(probes)  # extend from any depth
    exp = CFExpansion(km.parse_alpha(spec))
    corrected = 0
    for n in probes:
        if n >= nm[top]:
            if not ends:
                continue
            if ref.finite:
                with pytest.raises(UnsupportedAlphaError) as info:
                    km.decompose(exp, n)
                assert str(info.value) == (
                    f"n = {n} reaches the periodic regime of a rational alpha "
                    f"(expansion ends at n_{top} = {nm[top]})")
            else:
                with pytest.raises(PrecisionUnresolvedError) as info:
                    km.decompose(exp, n)
                assert str(info.value) == (
                    f"digit prefix through a_{top} only brackets n < {nm[top]}; "
                    f"cannot decompose n = {n}")
            continue
        m = bisect.bisect_right(nm, n) - 1
        h, k = divmod(n - nm[m], s[m])
        assert km.decompose(exp, n) == km.Decomposition(m, h, k), (spec, n)
        assert 0 <= h < digits[m + 1] and 0 <= k < s[m]
        # the package bisects on q: the last q_j <= n is at j = m + 1 when
        # q_{m+1} <= n < n_{m+1}, and it steps back to m
        corrected += bisect.bisect_right(s, n) - 1 == m + 1
    if top > 1:
        assert corrected > 0, spec


def test_gap_structure_examples(golden):
    gs = km.gap_structure(golden, 5)
    assert [c for _, c in gs.entries] == [2, 3, 0]
    assert [((f.u, f.v)) for f, _ in gs.entries] == [(-3, 2), (2, -1), (5, -3)]

    gs1 = km.gap_structure(golden, 1)
    assert [c for _, c in gs1.entries] == [0, 1, 0]
    assert gs1.entries[1][0] == LinearForm(0, 1)

    r2 = CFExpansion(km.parse_alpha("quad:-1,2,1"))
    gs4 = km.gap_structure(r2, 4)
    assert [c for _, c in gs4.entries] == [2, 1, 1]


def test_gap_structure_rejects_rational():
    with pytest.raises(UnsupportedAlphaError):
        km.gap_structure(CFExpansion(Rational(1, 3)), 4)


def test_lengths_check_all_alphas(expansions):
    for spec, exp in expansions.items():
        for n in range(1, 300):
            rep = km.lengths_check(km.gap_structure(exp, n))
            assert rep.all_passed, (spec, n)


def test_lengths_check_catches_corruption(golden):
    gs = km.gap_structure(golden, 5)
    e = list(gs.entries)
    bad1 = GapStructure(gs.n, gs.decomposition,
                        ((e[0][0], e[0][1] + 1), e[1], e[2]))
    rep = km.lengths_check(bad1)
    assert not rep.all_passed
    bad2 = GapStructure(gs.n, gs.decomposition,
                        ((e[0][0] + LinearForm(1, 0), e[0][1]), e[1], e[2]))
    rep2 = km.lengths_check(bad2)
    assert not rep2.all_passed


def test_third_length_is_next_eta_at_top_h(expansions):
    # when h = a_{m+1} - 1, the short length coincides with eta_{m+1}
    for spec, exp in expansions.items():
        hits = 0
        for n in range(2, 400):
            d = km.decompose(exp, n)
            if d.h == exp.digit(d.m + 1) - 1:
                gs = km.gap_structure(exp, n)
                assert gs.entries[2][0] == km.eta(exp, d.m + 1), (spec, n)
                hits += 1
        assert hits > 0, spec


def test_multiset_against_brute_force(expansions):
    # small-n version of the acceptance oracle, kept here so unit runs
    # exercise the comparison machinery on every alpha
    for spec, exp in expansions.items():
        xs, M, unit = mp_scaled_points(spec, 64, 160)
        srt = []
        for i, x in enumerate(xs):
            srt.append(x)
            srt.sort()
            n = i + 1
            gaps = oracles.circle_gap_multiset(srt, M)
            gs = km.gap_structure(exp, n)
            want = [
                (oracles.form_rung_interval(exp, form, PrecisionContext(160)), count)
                for form, count in gs.entries if count
            ]
            drift = 2 * max(i, 1) * unit
            got = [0] * len(want)
            for g, c in gaps.items():
                glo = Fraction(g - drift, M)
                ghi = Fraction(g + drift, M)
                hits = [
                    j for j, (iv, _) in enumerate(want)
                    if ghi >= iv.lo and glo <= iv.hi
                ]
                assert len(hits) == 1, (spec, n, g)
                got[hits[0]] += c
            assert got == [c for _, c in want], (spec, n)


def test_gap_structure_json_schema(golden):
    payload = km.gap_structure_json(km.gap_structure(golden, 5), golden,
                                    km.DEFAULT_CONTEXT, digits=30)
    assert set(payload) == {"n", "m", "h", "k", "entries"}
    assert payload["n"] == 5 and payload["m"] == 3
    assert len(payload["entries"]) == 3
    for entry in payload["entries"]:
        assert set(entry) == {"u", "v", "multiplicity", "interval"}
        lo, hi = entry["interval"]
        assert float(lo) <= float(hi)
    # deterministic
    again = km.gap_structure_json(km.gap_structure(golden, 5), golden,
                                  km.DEFAULT_CONTEXT, digits=30)
    assert json.dumps(payload) == json.dumps(again)


def test_form_interval_escalates_sign():
    exp = CFExpansion(km.parse_alpha("golden"))
    # eta_30 is ~ phi^-31 ~ 6e-7; still strictly positive at high m
    iv = oracles.form_rung_interval(exp, km.eta(exp, 30), PrecisionContext(64),
                                    require_positive=True)
    assert iv.lo > 0
