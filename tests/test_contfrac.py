import gc
import importlib
import math
import operator
import random
import sys
import threading
import tracemalloc
import weakref
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

import kronmesh as km
from kronmesh import (
    AlphaSpecError,
    CFExpansion,
    ExplicitCF,
    PrecisionContext,
    PrecisionUnresolvedError,
    QuadraticSurd,
    Rational,
)
from kronmesh.contfrac import (GUARD, _periodic_tail_surd, _surd_period, _tail_ends,
                               _window_bracket)
from conftest import ALPHA_SPECS, PREFIX_SPEC, mpf_to_fraction
import oracles


def expansion(spec: str, depth: int) -> CFExpansion:
    exp = CFExpansion(km.parse_alpha(spec))
    exp.ensure(depth)
    return exp


def tail(exp: CFExpansion, m: int, bits: int = 192):
    """The ends of _tail_ends as Fractions."""
    x1, y1, x2, y2 = _tail_ends(exp, m, bits)
    return Fraction(x1, y1), Fraction(x2, y2)


def test_expand_golden():
    exp = expansion("golden", 10)
    assert exp.digits == [0] + [1] * 10
    assert [exp.s_at(m) for m in range(6)] == [1, 1, 2, 3, 5, 8]
    assert [exp.n_at(m) for m in range(6)] == [1, 2, 3, 5, 8, 13]


def test_expansion_stores_only_digits_and_convergents():
    # s_m = q_m and n_m = q_m + q_{m-1} are read off the convergents: two
    # lists of big integers per expansion, not four
    # lists of big integers per expansion, not four; the third list holds
    # the small complete-quotient states (P_j, Q_j), one period of them
    exp = CFExpansion(km.parse_alpha("golden"))
    exp.ensure(500)
    assert sorted(k for k, v in vars(exp).items() if isinstance(v, list)) == [
        "_states", "convergents", "digits"]
    assert len(exp.convergents) == len(exp.digits) == 501
    assert exp.n_at(500) == exp.s_at(500) + exp.s_at(499) == exp.s_at(501)
    assert exp._states == []  # drawing digits walks no complete quotient
    assert exp.quotient(500) == (1, 2) and exp._states == [(1, 2)]  # x_j = phi


def test_expand_sqrt2():
    exp = expansion("sqrt:2", 8)
    assert exp.digits == [1] + [2] * 8
    assert exp.periodic is not None


def test_expand_rational_3_8():
    exp = expansion("rat:3/8", 10)
    assert exp.digits == [0, 2, 1, 2]
    assert exp.finite


def test_sqrt3_minus_1_periodic_digits():
    exp = expansion("quad:-1,3,1", 9)
    assert exp.digits == [0, 1, 2, 1, 2, 1, 2, 1, 2, 1]


def test_s_and_n_examples():
    golden = expansion("golden", 6)
    assert [(golden.s_at(m), golden.n_at(m)) for m in range(4)] == [
        (1, 1), (1, 2), (2, 3), (3, 5)
    ]
    r2 = expansion("quad:-1,2,1", 6)
    assert [r2.s_at(m) for m in range(5)] == [1, 2, 5, 12, 29]
    assert r2.n_at(1) == 3
    assert r2.n_at(2) == 7
    # m = 0 base case is generator-independent
    for spec in ALPHA_SPECS:
        exp = CFExpansion(km.parse_alpha(spec))
        assert (exp.s_at(0), exp.n_at(0)) == (1, 1)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=80), min_size=1, max_size=50))
def test_s_equals_convergent_denominator(digits):
    exp = CFExpansion(ExplicitCF((0, *digits), ()))
    exp.ensure(len(digits))
    qs = [q for _, q in oracles.convergents_from_digits([0] + digits)]
    assert [exp.s_at(m) for m in range(len(digits) + 1)] == qs


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=10 ** 6),
       st.integers(min_value=1, max_value=10 ** 6))
def test_rational_terminates_at_its_value(p, q):
    exp = CFExpansion(Rational(p, q))
    exp.ensure(10 ** 9)
    pm, qm = exp.convergents[exp.depth]
    assert Fraction(pm, qm) == Fraction(p, q)
    # canonical form: last digit >= 2 whenever there is a fractional part
    if exp.depth >= 1:
        assert exp.digits[-1] >= 2 or exp.depth == 0
    assert exp.digits == oracles.cf_digits_euclid(p, q)


def test_rational_digit_uniqueness():
    a = CFExpansion(Rational(4, 6))
    b = CFExpansion(Rational(2, 3))
    a.ensure(99)
    b.ensure(99)
    assert a.digits == b.digits == [0, 1, 2]


def test_quadratic_surd_validation():
    with pytest.raises(AlphaSpecError):
        QuadraticSurd(0, 4, 1)      # square D
    with pytest.raises(AlphaSpecError):
        QuadraticSurd(0, 2, 0)      # zero denominator
    with pytest.raises(AlphaSpecError):
        QuadraticSurd(0, -2, 1)     # negative D


def test_surd_digits_match_bigfloat():
    for spec in ("golden", "quad:-1,2,1", "quad:-1,3,1", "sqrt:13", "quad:3,7,2"):
        exp = expansion(spec, 25)
        want = oracles.mp_cf_digits(oracles.mp_value(spec, 420), 25, 420)
        assert exp.digits[:20] == want[:20], spec


def test_surd_convergents_alternate_and_sharpen():
    # q_m*alpha - p_m alternates in sign and shrinks in magnitude; checked
    # exactly through the integer sign of a + b*sqrt(D)
    surd = km.parse_alpha("quad:3,7,2")   # (3 + sqrt 7)/2
    exp = CFExpansion(surd)
    exp.ensure(18)
    P, D, Q = surd.P, surd.D, surd.Q
    prev_sign = None
    for m in range(1, 18):
        pm, qm = exp.convergents[m]
        # sign of qm*(P + sqrt D)/Q - pm  ==  sign of (qm*P - pm*Q) + qm*sqrt D
        s = oracles.surd_sign(qm * P - pm * Q, qm, D)
        assert s != 0
        if prev_sign is not None:
            assert s == -prev_sign
        prev_sign = s


def test_periodic_detection():
    r2 = expansion("sqrt:2", 12)
    pre, per = r2.periodic
    assert per == 1
    r3 = expansion("quad:-1,3,1", 12)
    assert r3.periodic[1] == 2


def test_tail_ends_golden_self_similar():
    exp = expansion("golden", 8)
    lo, hi = tail(exp, 3, 64)
    assert hi - lo <= Fraction(1, 1 << 56)
    with mpmath.workprec(400):
        phi = mpf_to_fraction((mpmath.sqrt(5) - 1) / 2)
    eps = Fraction(1, 1 << 200)
    assert lo - eps <= phi <= hi + eps


def test_tail_ends_sqrt2_m0():
    exp = expansion("sqrt:2", 6)
    lo, hi = tail(exp, 0)
    with mpmath.workprec(400):
        v = mpf_to_fraction(mpmath.sqrt(2) - 1)
    eps = Fraction(1, 1 << 200)
    assert lo - eps < v < hi + eps


def test_tail_ends_width_contract():
    target = Fraction(1, 1 << (128 - GUARD))
    for spec in ALPHA_SPECS[:4]:
        exp = km.CFExpansion(km.parse_alpha(spec))
        for m in range(0, 12):
            lo, hi = tail(exp, m, 128)
            assert hi - lo <= target


def test_tail_ends_prefix_exhaustion_raises():
    exp = CFExpansion(ExplicitCF((0, 1, 2, 3), ()))
    # alpha_2 = [0; 3 + x] for x in [0, 1]: every digit there is, too wide
    # for the width target, but still a bracket
    assert tail(exp, 2) == (Fraction(1, 4), Fraction(1, 3))
    with pytest.raises(PrecisionUnresolvedError, match="prefix is too short"):
        tail(exp, 3)
    with pytest.raises(km.OutOfRangeError):
        tail(exp, -1)


def test_ensure_stops_where_the_digits_end():
    for spec in (Rational(3, 8), ExplicitCF((0, 2, 1, 2), ())):
        exp = CFExpansion(spec)
        assert exp.ensure(3) and not exp.ensure(4)
        assert exp.depth == 3 and exp.digits == [0, 2, 1, 2]
    # a prefix with no digit beyond a_0 leaves alpha mod 1 unconstrained
    with pytest.raises(PrecisionUnresolvedError, match="no digits beyond a_0"):
        CFExpansion(ExplicitCF((2,), ())).alpha0_scaled(64)


def test_escalate_doubles_to_the_ceiling_and_stops_on_a_stall():
    ctx = PrecisionContext(192, 1000)

    def ladder(start, decide_at, error):
        tried = []

        def attempt(bits):
            tried.append(bits)
            return ("done" if bits >= decide_at else None), error(bits)

        try:
            return ctx.escalate(attempt, start, "test"), tried
        except PrecisionUnresolvedError as exc:
            return str(exc), tried

    def halving(bits):
        return 1, 1 << bits

    assert ladder(192, 768, halving) == ("done", [192, 384, 768])
    assert ladder(192, 4000, halving) == (
        "test unresolved at the ceiling of 1000 bits", [192, 384, 768, 1000])
    # a start above the ceiling still gets its one attempt
    assert ladder(2000, 4000, halving) == (
        "test unresolved at the ceiling of 2000 bits", [2000])
    # an error that does not halve stops the ladder at its second rung,
    # even where a later rung would have decided
    msg, tried = ladder(192, 768, lambda bits: (1, 3))
    assert tried == [192, 384]
    assert "384 bits; doubling the precision cannot reduce the error" in msg


def test_escalate_compares_unreduced_errors_by_value():
    # an error is the ratio num / den, not reduced: (2, 8) after (1, 2) is
    # exactly half of it and the ladder climbs on, although its numerator
    # grew; (3, 8) and (5, 10) after (1, 2) fail to halve and stop it
    ctx = PrecisionContext(192, 1000)

    def ladder(errors, decide_at=768):
        tried = []

        def attempt(bits):
            tried.append(bits)
            return ("done" if bits >= decide_at else None), errors[len(tried) - 1]

        try:
            return ctx.escalate(attempt, 192, "test"), tried
        except PrecisionUnresolvedError as exc:
            return str(exc), tried

    assert ladder([(1, 2), (2, 8), (4, 32)]) == ("done", [192, 384, 768])
    for stalled in ((3, 8), (5, 10)):
        msg, tried = ladder([(1, 2), stalled, (0, 1)])
        assert tried == [192, 384], stalled
        assert msg == ("test unresolved at 384 bits; doubling the precision cannot "
                       "reduce the error (digit prefix exhausted?)")


def test_tail_ends_sandwich():
    # alpha_m = 1/(a_{m+1} + alpha_{m+1}) pinches between the digit bounds:
    #   1/(a_{m+1} + 1/a_{m+2})  <  alpha_m  <  1/(a_{m+1} + 1/(a_{m+2}+1))
    # and in particular 1/(a_{m+1}+1) < alpha_m < 1/a_{m+1}
    for spec in ALPHA_SPECS:
        exp = km.CFExpansion(km.parse_alpha(spec))
        hi_m = 10 if spec != PREFIX_SPEC else 8
        for m in range(hi_m):
            t_lo, t_hi = tail(exp, m, 96)
            a1 = exp.digit(m + 1)
            a2 = exp.digit(m + 2)
            lo = Fraction(1) / (a1 + Fraction(1, a2))
            hi = Fraction(1) / (a1 + Fraction(1, a2 + 1))
            assert lo < t_lo and t_hi < hi, (spec, m)
            assert Fraction(1, a1 + 1) < t_lo and t_hi < Fraction(1, a1)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_tail_bracket_equals_backward_recurrence(data):
    # the forward convergent/mediant bracket of a digit window is exactly
    # what the backward recurrence gives from the seeds 0 and 1
    digits = data.draw(st.lists(st.integers(min_value=1, max_value=50),
                                min_size=1, max_size=60))
    digits = [data.draw(st.integers(min_value=0, max_value=3))] + digits
    m = data.draw(st.integers(min_value=0, max_value=len(digits) - 2))
    lo, hi = oracles.tail_interval_from_digits(digits, m)
    iv = oracles.tail_bracket(digits[m + 1:])
    assert (iv.lo, iv.hi) == (lo, hi)
    # and so is the bracket the package reads off the convergents
    prefix = CFExpansion(ExplicitCF(tuple(digits)))
    prefix.ensure(len(digits) - 1)
    x1, y1, x2, y2 = _window_bracket(prefix, m, len(digits) - 1)
    assert (Fraction(x1, y1), Fraction(x2, y2)) == (lo, hi)
    # the tail of the rational with these digits is exact: the convergent end
    exp = CFExpansion(Rational(*oracles.convergents_from_digits(digits)[-1]))
    exp.ensure(10 ** 6)
    if exp.digits == digits:  # the Euclidean digits end in a_M >= 2
        x1, y1, _, _ = _window_bracket(exp, m, exp.depth)
        point = Fraction(0)
        for a in reversed(digits[m + 1:]):
            point = 1 / (a + point)
        assert Fraction(x1, y1) == point and point in (lo, hi)


@pytest.mark.parametrize("spec", [PREFIX_SPEC, "cf:1;3,1,4,1,5,9,2,6,5,3,5,8,9,7,9,3,2,3,8,4,6,2,6,4"])
def test_tail_ends_prefix_equals_oracle(spec):
    exp = CFExpansion(km.parse_alpha(spec))
    exp.ensure(10 ** 6)
    too_wide = 0
    for m in range(exp.depth):
        lo, hi = tail(exp, m)
        too_wide += hi - lo > Fraction(1, 1 << (192 - GUARD))
        iv = oracles.alpha_tail_best_window(exp, m, PrecisionContext(192))
        assert (lo, hi) == (iv.lo, iv.hi), (spec, m)
    assert too_wide > 0  # the bracket of every known digit, short of the target
    with pytest.raises(PrecisionUnresolvedError):
        tail(exp, exp.depth)


@pytest.mark.parametrize("spec", [PREFIX_SPEC, "cf:2;7", "cf:0;1,1,1,1,1,1,1,1,1,1,1,1,1"])
def test_prefix_bracket_equals_oracle(spec):
    exp = CFExpansion(km.parse_alpha(spec))
    x1, y1, x2, y2 = exp._prefix_bracket
    assert y1 > 0 and y2 > 0
    assert (Fraction(x1, y1), Fraction(x2, y2)) == oracles.tail_interval_from_digits(exp.digits, 0)


def test_digit_supremum_examples():
    assert km.digit_supremum(expansion("golden", 3)) == (1, "exact")
    assert km.digit_supremum(CFExpansion(Rational(3, 8))) == (2, "exact")
    assert km.digit_supremum(expansion("sqrt:2", 3)) == (2, "exact")
    assert km.digit_supremum(CFExpansion(ExplicitCF((0,), (1, 2)))) == (2, "exact")
    rule = CFExpansion(ExplicitCF(tuple([0] + list(range(1, 51))), ()))
    assert km.digit_supremum(rule, probe_depth=50) == (50, "prefix-only")


def test_digit_supremum_is_memoized_per_expansion_and_probe(monkeypatch):
    # kronecker_bounds asks once per bound key; the walk and the max run once
    contfrac = importlib.import_module("kronmesh.contfrac")
    walks, walk = [], contfrac._surd_period
    monkeypatch.setattr(contfrac, "_surd_period", lambda spec: walks.append(spec) or walk(spec))
    exp = CFExpansion(km.parse_alpha("sqrt:94"))
    first = km.digit_supremum(exp)
    assert km.digit_supremum(exp) is first == (18, "exact")
    assert km.digit_supremum(exp, probe_depth=5) == first and exp.periodic == (1, 16)
    assert walks == [exp.spec] and exp.depth == 0
    rule = CFExpansion(ExplicitCF(tuple([0] + list(range(1, 51))), ()))
    assert km.digit_supremum(rule, probe_depth=20) == (20, "prefix-only")
    assert km.digit_supremum(rule, probe_depth=30) == (30, "prefix-only")
    assert km.digit_supremum(rule, probe_depth=20) == (20, "prefix-only")


@pytest.mark.parametrize("spec, period", [
    ("golden", (1, 1)), ("sqrt:143", (1, 2)), ("quad:-10,275,5", (1, 2)),
    ("quad:2,31,7", (0, 6)), ("sqrt:211", (1, 26)), ("quad:0,181039,29", (1, 11244)),
    ("cf:0;1,2(3,4)", (3, 2)), ("cf:5;(1,2,3)", (1, 3)),
])
def test_digit_supremum_and_classify_draw_no_digit(monkeypatch, spec, period):
    # a periodic alpha's sup and verdict come from its period walk or its
    # spec: the expansion keeps a_0 alone, however far its period closes
    contfrac = importlib.import_module("kronmesh.contfrac")
    exp = CFExpansion(km.parse_alpha(spec))
    sup = km.digit_supremum(exp)
    assert (exp.periodic, exp.depth, sup[1]) == (period, 0, "exact")
    made = []

    class Recorded(CFExpansion):
        def __init__(self, alpha):
            super().__init__(alpha)
            made.append(self)

    monkeypatch.setattr(contfrac, "CFExpansion", Recorded)
    v = km.is_badly_approximable(km.parse_alpha(spec))
    assert (v.verdict, v.digit_sup) == ("yes", sup[0])
    assert [e.depth for e in made] == [0]


def _sqrt_period(D: int) -> tuple:
    """(period length, largest digit) of sqrt(D) by the integer recurrence."""
    a0 = math.isqrt(D)
    m, d, a, length, top = 0, 1, a0, 0, 0
    while a != 2 * a0:
        m = d * a - m
        d = (D - m * m) // d
        a = (a0 + m) // d
        length, top = length + 1, max(top, a)
    return length, top


@pytest.mark.parametrize("spec", ["sqrt:94", "sqrt:213", "quad:3,37,5", "golden"])
def test_period_walk_cap_is_exact(monkeypatch, spec):
    # a surd whose preperiod and period fill the cap answers; one digit
    # less exits with PrecisionUnresolvedError naming the cap
    contfrac = importlib.import_module("kronmesh.contfrac")
    exp = CFExpansion(km.parse_alpha(spec))
    expected = km.digit_supremum(exp)
    pre, per = exp.periodic
    monkeypatch.setattr(contfrac, "MAX_PERIOD_WALK", pre + per)
    assert km.digit_supremum(CFExpansion(km.parse_alpha(spec))) == expected
    monkeypatch.setattr(contfrac, "MAX_PERIOD_WALK", pre + per - 1)
    with pytest.raises(PrecisionUnresolvedError, match=f"walk cap of {pre + per - 1} digits"):
        km.digit_supremum(CFExpansion(km.parse_alpha(spec)))


def test_surd_just_inside_the_walk_cap_answers():
    # sqrt(20001019) has period 9714 (preperiod a_0): 9715 digits, just
    # inside the cap of 10**4 that an expansion-driven walk once had
    length, top = _sqrt_period(20001019)
    assert length == 9714 and 1 + length <= km.contfrac.MAX_PERIOD_WALK
    v = km.is_badly_approximable(km.parse_alpha("sqrt:20001019"))
    assert (v.verdict, v.digit_sup, v.certainty, v.c_bound) == ("yes", top, "exact", 2 + 2 * top)


def test_surds_in_use_lie_far_inside_the_walk_cap():
    assert km.contfrac.MAX_PERIOD_WALK >= 100 * 100
    for D in (2, 3, 5, 7, 11, 13, 94, 213) + tuple(range(2, 301)):
        if math.isqrt(D) ** 2 != D:
            assert 1 + _sqrt_period(D)[0] <= 100


def test_is_badly_approximable():
    v = km.is_badly_approximable(km.parse_alpha("golden"))
    assert (v.verdict, v.digit_sup, v.c_bound) == ("yes", 1, 4)
    v = km.is_badly_approximable(km.parse_alpha("rat:3/8"))
    assert v.verdict == "no"
    v = km.is_badly_approximable(km.parse_alpha("cf:0;1,2,3"), probe_depth=3)
    assert (v.verdict, v.digit_sup, v.certainty) == ("unknown", 3, "prefix-only")
    v = km.is_badly_approximable(km.parse_alpha("sqrt:2"))
    assert (v.verdict, v.c_bound) == ("yes", 6)


def test_parse_alpha_round_trips():
    for spec in ("golden", "sqrt:2", "sqrt:13", "quad:-1,3,1", "rat:3/8",
                 "rat:7/3", "cf:0;1,2,3", "cf:0;(1,2)", "cf:1;2,2(3,4)"):
        alpha = km.parse_alpha(spec)
        again = km.parse_alpha(km.alpha_to_string(alpha))
        assert km.alpha_to_string(again) == km.alpha_to_string(alpha), spec


def test_parse_alpha_rejects_garbage():
    bad = ["", "golden2", "rat:1/0", "rat:x/2", "sqrt:4", "sqrt:-1",
           "quad:1,5", "quad:1,5,0", "0.5", "cf:", "cf:0", "cf:0;0,1",
           "cf:-1;2", "cf:0;1,(0)", "pi"]
    for spec in bad:
        with pytest.raises(AlphaSpecError):
            km.parse_alpha(spec)


def test_explicit_cf_validation():
    with pytest.raises(AlphaSpecError):
        ExplicitCF((0, 0, 1), ())
    with pytest.raises(AlphaSpecError):
        ExplicitCF((0,), (0,))
    with pytest.raises(AlphaSpecError):
        ExplicitCF((-1, 2), ())
    with pytest.raises(AlphaSpecError):
        ExplicitCF((), ())


def test_prefix_only_scaled_value_is_bracketed():
    exp = CFExpansion(ExplicitCF((0, 1, 2, 3), ()))
    A, U = exp.alpha0_scaled(64)
    # the convergent bracket of [0;1,2,3,...]: between 7/10 and (7+2)/(10+3)
    lo, hi = Fraction(9, 13), Fraction(7, 10)
    assert Fraction(A, 1 << 64) <= lo <= hi <= Fraction(A + U, 1 << 64)
    assert U > 1


@pytest.mark.parametrize("p, q", [(3, 8), (-7, 30), (355, 113), (5, 1), (0, 1), (1, 1024),
                                  (-3, 4)])
def test_rational_scaled_value_is_exact(p, q):
    # the bracket of every digit of a rational is exact: A = floor(x * 2**bits)
    # for x = alpha mod 1, and U = 0 for a dyadic x, else 1
    x = Fraction(p, q) % 1
    for bits in (64, 65, 200):
        scaled = x * (1 << bits)
        assert CFExpansion(Rational(p, q)).alpha0_scaled(bits) == (
            math.floor(scaled), 0 if scaled.denominator == 1 else 1), (p, q, bits)


def _fibonacci_ratio(k: int) -> str:
    # F_{k+1}/F_k = [1; 1, ..., 1, 2]: a rational of k - 1 digits
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return f"rat:{b}/{a}"


def test_concurrent_extension_is_consistent():
    # a surd, a rational of 3998 digits and a periodic digit list, each
    # extended by eight threads at once
    for spec, want in (("sqrt:2", [1] + [2] * 3000),
                       (_fibonacci_ratio(3999), [1] * 3001),
                       ("cf:0;1,2,3(4,5,6)", [0, 1, 2, 3] + [4, 5, 6] * 999)):
        exp = CFExpansion(km.parse_alpha(spec))
        errors = []

        def work():
            try:
                assert exp.ensure(3000)
                assert exp.digits[:3001] == want
                assert exp.convergents[:3001] == oracles.convergents_from_digits(want)
            except Exception as e:          # pragma: no cover
                errors.append(e)

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, spec
        fresh = expansion(spec, 3000)
        assert exp.digits == fresh.digits and exp.convergents == fresh.convergents, spec


def _surd_triple(spec: str):
    # (a, b, c, d) with alpha = (a + b sqrt(d)) / c, read off the spec text
    if spec == "golden":
        return -1, 1, 2, 5
    if spec.startswith("sqrt:"):
        return 0, 1, 1, int(spec[5:])
    p, d, q = (int(t) for t in spec[5:].split(","))
    return p, 1, q, d


SURD_SPECS = (["golden", "quad:1,5,-3", "quad:2,7,-5", "quad:-3,11,-4", "quad:0,2,-1",
               "quad:5,13,7", "quad:3,7,2"]
              + [f"sqrt:{D}" for D in range(2, 301) if math.isqrt(D) ** 2 != D])


def test_surd_digit_source_matches_period_walk():
    # digits, convergents and the digit period against an independent walk
    # over reduced triples (a + b sqrt(d)) / c, and the digits against
    # mpmath; the period is known before its closing digit a_j is drawn
    for spec in SURD_SPECS:
        want, period = oracles.surd_period_walk(*_surd_triple(spec))
        j = len(want) - 1           # the digit at which the period closes
        exp = CFExpansion(km.parse_alpha(spec))
        assert (exp.periodic, exp.depth) == (period, 0), spec
        assert exp.ensure(j) and exp.digits == want and not exp.finite, spec
        exp.ensure(j + 40)
        assert exp.periodic == period, spec
        mp = oracles.mp_cf_digits(oracles.mp_value(spec, 1200), 40, 1200)
        assert exp.digits[:41] == mp, spec
        assert exp.convergents == oracles.convergents_from_digits(exp.digits), spec


def _gauss_surds():
    """Surds periodic from a_0 (r + sqrt(D) with r = isqrt(D), the golden
    ratio) and with preperiods (sqrt(D), cf: tails, random triples)."""
    rng = random.Random(22)
    surds = [QuadraticSurd(1, 5, 2)]
    for _ in range(12):
        D = rng.randint(2, 10 ** 6)
        if math.isqrt(D) ** 2 != D:
            surds += [QuadraticSurd(math.isqrt(D), D, 1), QuadraticSurd(0, D, 1)]
    for _ in range(12):
        pre = tuple(rng.randint(1, 9) for _ in range(rng.randint(0, 3)))
        per = tuple(rng.randint(1, 30) for _ in range(rng.randint(1, 5)))
        surds.append(_periodic_tail_surd(pre, per))
    while len(surds) < 60:
        D = rng.randint(2, 10 ** 7)
        if math.isqrt(D) ** 2 != D:
            Q = rng.choice((1, -1)) * rng.randint(1, 500)
            surds.append(QuadraticSurd(rng.randint(-10 ** 4, 10 ** 4), D, Q))
    return surds


def test_surd_digits_equal_plain_gauss_map():
    # the digit source cycles the recorded period once the Gauss map state
    # recurs; a plain walk that never cycles gives the same digits to depth
    # 2000, and the period, which the expansion knows before a_1 is drawn
    starts = set()
    for surd in _gauss_surds():
        want, period = oracles.gauss_map_digits(*surd, 2000)
        # a period that closes past a_2000, from the reduced-triple walk
        period = period or oracles.surd_period_walk(surd.P, 1, surd.Q, surd.D, 10 ** 6)[1]
        fresh = CFExpansion(surd)
        assert (fresh.periodic, fresh.depth) == (period, 0), surd
        exp = CFExpansion(surd)
        assert exp.ensure(2000) and exp.digits == want, surd
        assert exp.periodic == period, surd
        assert exp.convergents == oracles.convergents_from_digits(want), surd
        stepped = CFExpansion(surd)
        for m in range(0, 2001, 7):
            stepped.ensure(m)
        assert stepped.digits[:1996] == want[:1996], surd
        assert stepped.convergents == exp.convergents[:len(stepped.convergents)], surd
        starts.add(min(period[0], 1))
    assert starts == {0, 1}  # with and without a preperiod


def test_surd_period_equals_reduced_triple_walk():
    # (start, length, sup) of the Galois walk and digit_supremum against the
    # independent walk over reduced triples, whose digits end with a_start
    # repeated (so a period from a_0 counts a_0 in the sup): the specs in
    # use, periods from a_0 and after a preperiod (some past 10**5 digits),
    # and random quad: surds with periods up to about 10**4
    rng = random.Random(26)
    surds = [km.parse_alpha(spec) for spec in SURD_SPECS] + _gauss_surds()
    quads = []
    while len(quads) < 40:
        D = rng.randint(2, 10 ** 6)
        if math.isqrt(D) ** 2 != D:
            quads.append(QuadraticSurd(rng.randint(-100, 100), D,
                                       rng.choice((1, -1)) * rng.randint(1, 40)))
    starts, longest = set(), 0
    for surd in surds + quads:
        P, D, Q = surd
        digits, period = oracles.surd_period_walk(P, 1, Q, D, 10 ** 6)
        assert period is not None, surd
        assert _surd_period(surd) == (*period, max(digits[1:])), surd
        assert km.digit_supremum(CFExpansion(surd)) == (max(digits[1:]), "exact"), surd
        starts.add(min(period[0], 1))
        longest = max(longest, period[1])
    assert starts == {0, 1} and longest > 1000


def test_period_walk_memory_is_constant():
    # sqrt(99999999977) has period 138121: the walk keeps one state, no digit
    tracemalloc.start()
    try:
        assert km.digit_supremum(CFExpansion(km.parse_alpha("sqrt:99999999977"))) == (
            632454, "exact")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_rational_digit_source_matches_euclid():
    rng = random.Random(14)
    pairs = [(rng.randint(-10 ** 6, 10 ** 6), 1) for _ in range(20)]
    pairs += [(rng.randint(-2 ** 40, 2 ** 40), 2 ** rng.randint(1, 40)) for _ in range(40)]
    pairs += [(rng.randint(-10 ** 30, 10 ** 30), rng.randint(1, 10 ** 30)) for _ in range(140)]
    for p, q in pairs:
        want = oracles.cf_digits_euclid(p, q)
        exp = CFExpansion(km.parse_alpha(f"rat:{p}/{q}"))
        assert exp.finite and exp.periodic is None
        assert exp.ensure(len(want) - 1), (p, q)
        assert not exp.ensure(len(want)) and not exp.ensure(10 ** 9), (p, q)
        assert exp.digits == want, (p, q)
        assert exp.convergents == oracles.convergents_from_digits(want), (p, q)
        assert Fraction(*exp.convergents[-1]) == Fraction(p, q)


def _cf_digits(spec: str, count: int):
    # the first count digits of a cf: spec, read off its text, and its period
    head, _, per = spec[3:].partition("(")
    a0, _, rest = head.partition(";")
    pre = [int(a0)] + [int(t) for t in rest.split(",") if t]
    per = [int(t) for t in per.rstrip(")").split(",") if t]
    digits = (pre + per * count)[:count] if per else pre[:count]
    return digits, (len(pre), len(per)) if per else None


def test_digit_list_source_matches_spec():
    specs = ["cf:0;", "cf:3;", "cf:0;1,2,3", "cf:2;7,1,1,5", "cf:0;(1)", "cf:1;(2)",
             "cf:0;2(1,3)", "cf:1;2,3(4,5)"] + oracles.random_periodic_alpha_specs(40, 14)
    for spec in specs:
        want, period = _cf_digits(spec, 60)
        exp = CFExpansion(km.parse_alpha(spec))
        assert exp.periodic == period and not exp.finite, spec
        # a prefix ends: asking past its end, twice, extends nothing
        assert exp.ensure(len(want) - 1), spec
        for _ in range(2):
            assert exp.ensure(70) == bool(period), spec
        assert len(exp.digits) == (71 if period else len(want)), spec
        assert exp.digits[:60] == want, spec
        assert exp.convergents == oracles.convergents_from_digits(exp.digits), spec


def test_quadratic_surd_values_do_not_order():
    # the tuple order of (P, D, Q) is not the order of the values: 3 +
    # sqrt(2) = 4.414 < sqrt(50) = 7.071 although (3, 2, 1) > (0, 50, 1), so
    # <, <=, > and >= raise TypeError, as they do against a Fraction or int
    a, b = QuadraticSurd(3, 2, 1), QuadraticSurd(0, 50, 1)
    for op in (operator.lt, operator.le, operator.gt, operator.ge):
        for x, y in ((a, b), (b, a), (a, a), (a, Fraction(1)), (Fraction(1), a), (a, 1), (1, a)):
            with pytest.raises(TypeError):
                op(x, y)
    for pick in (max, min, sorted):
        with pytest.raises(TypeError):
            pick([a, b])
    # equality and hashing stay those of the tuple
    assert a == QuadraticSurd(3, 2, 1) == (3, 2, 1) and a != b and len({a, b, a}) == 2
    # floors at a common scale compare the values exactly (README, Library)
    assert a.floor_scaled(8) < b.floor_scaled(8)


def test_quadratic_surd_value_semantics():
    s = QuadraticSurd(-1, 5, 2)
    assert repr(s) == "QuadraticSurd(P=-1, D=5, Q=2)"
    assert s == QuadraticSurd(-1, 5, 2) == km.parse_alpha("golden")
    # a record is a NamedTuple: it equals the plain tuple of its fields
    assert s != QuadraticSurd(1, 5, 2) and s == (-1, 5, 2)
    assert hash(s) == hash((-1, 5, 2)) and len({s, QuadraticSurd(-1, 5, 2)}) == 1
    # the normal form Q | D - P*P scales numerator and denominator by |Q|
    t = QuadraticSurd(1, 5, -3)
    assert (t.P, t.D, t.Q) == (3, 45, -9) and repr(t) == "QuadraticSurd(P=3, D=45, Q=-9)"
    assert t == QuadraticSurd(3, 45, -9) and hash(t) == hash((3, 45, -9))
    for name in "PDQ":
        with pytest.raises(AttributeError):
            setattr(s, name, 1)
    assert (s.P, s.D, s.Q) == (-1, 5, 2)
    for args, message in (((True, 5, 2), "QuadraticSurd.P must be an integer, got True"),
                          ((0, 2.0, 0), "QuadraticSurd.D must be an integer, got 2.0"),
                          ((0, 4, 0), "QuadraticSurd.Q must be nonzero"),
                          ((0, -2, 1), "QuadraticSurd.D must be positive"),
                          ((0, 4, 1), "QuadraticSurd.D = 4 is a perfect square; use rat: instead")):
        with pytest.raises(AlphaSpecError) as info:
            QuadraticSurd(*args)
        assert str(info.value) == message


def test_expansion_is_freed_without_the_cycle_collector():
    # the digit source holds the spec, never the expansion: an expansion
    # that has extended is freed as soon as its last reference goes
    enabled = gc.isenabled()
    gc.disable()
    try:
        for spec in ("sqrt:7", _fibonacci_ratio(150), "cf:0;1,2(3,4)"):
            exp = CFExpansion(km.parse_alpha(spec))
            assert exp.ensure(100)
            ref = weakref.ref(exp)
            del exp
            assert ref() is None, spec
    finally:
        if enabled:
            gc.enable()


def _cf_text(a0: int, pre, per) -> str:
    body = f"cf:{a0};" + ",".join(map(str, pre))
    return body + ("(" + ",".join(map(str, per)) + ")" if per else "")


def _nonsquare(D: int) -> bool:
    return math.isqrt(D) ** 2 != D


_DIGIT = st.integers(min_value=1, max_value=10 ** 4)
# one alpha of each digit source: surds, periodic cf:, bare prefixes, rat:
_EXTENSION_SPECS = st.one_of(
    st.sampled_from(["golden", "sqrt:2", "sqrt:103", "quad:5,13,7", "quad:-3,11,-4"]),
    st.integers(2, 10 ** 7).filter(_nonsquare).map(lambda D: f"sqrt:{D}"),
    st.builds(_cf_text, st.integers(0, 10 ** 4), st.lists(_DIGIT, max_size=4),
              st.lists(_DIGIT, min_size=1, max_size=4)),
    st.builds(_cf_text, st.integers(0, 10 ** 4), st.lists(_DIGIT, max_size=40), st.just(())),
    st.builds(lambda p, q: f"rat:{p}/{q}", st.integers(-10 ** 40, 10 ** 40),
              st.integers(1, 10 ** 40)),
)
_EXTENSION_CALLS = st.lists(st.one_of(
    st.tuples(st.just("ensure"), st.integers(0, 150)),
    st.tuples(st.just("ensure_q"),
              st.integers(1, 500).flatmap(lambda b: st.integers(1 << (b - 1), 1 << b)),
              st.integers(0, 150) | st.just(10 ** 9)),
), min_size=1, max_size=8)
# q_j grows at least like the Fibonacci numbers, so q_j > 2**500 by j = 720
_ONE_SHOT_DEPTH = 800


def _one_shot_oracle(spec: str):
    """(digits, period) of a spec to _ONE_SHOT_DEPTH, from a plain Gauss map
    walk for a surd (its period from the reduced-triple walk when it closes
    past that depth), Euclid for a rational and the spec's text for a cf:
    (whose period is the declared one, from a_0 on)."""
    alpha = km.parse_alpha(spec)
    if isinstance(alpha, QuadraticSurd):
        digits, period = oracles.gauss_map_digits(*alpha, _ONE_SHOT_DEPTH)
        P, D, Q = alpha
        return digits, period or oracles.surd_period_walk(P, 1, Q, D, 10 ** 5)[1]
    if isinstance(alpha, Rational):
        return oracles.cf_digits_euclid(alpha.num, alpha.den), None
    pre, per = alpha
    digits = list(pre) + list(per) * (_ONE_SHOT_DEPTH // len(per) + 1) if per else list(pre)
    return digits[:_ONE_SHOT_DEPTH + 1], (len(pre), len(per)) if per else None


@settings(max_examples=300, deadline=None)
@given(_EXTENSION_SPECS, _EXTENSION_CALLS)
def test_extension_is_exact(spec, calls):
    # each call draws exactly the digits its target needs: ensure(m) stops
    # at a_m, ensure_q(q_min, m_max) at the first q_j >= q_min, never past
    # a_{m_max} or the end of the expansion, and says whether q_min was met
    want, period = _one_shot_oracle(spec)
    one_shot = expansion(spec, _ONE_SHOT_DEPTH)
    assert one_shot.digits == want
    qs = [q for _, q in one_shot.convergents]
    end = len(want) - 1 if len(want) <= _ONE_SHOT_DEPTH else 10 ** 9
    exp = CFExpansion(km.parse_alpha(spec))
    for call in calls:
        before = exp.depth
        if call[0] == "ensure":
            m = call[1]
            got, depth, met = exp.ensure(m), max(before, min(m, end)), m <= end
        else:
            q_min, m_max = call[1:]
            got = exp.ensure_q(q_min, m_max)
            j = next((j for j, q in enumerate(qs) if q >= q_min), None)
            assert j is not None or end < _ONE_SHOT_DEPTH  # only an ending expansion misses
            met = j is not None and j <= max(before, m_max)
            depth = max(before, min(end if j is None else j, m_max))
        assert (got, exp.depth) == (met, depth), (call, before)
        assert exp.digits == want[:exp.depth + 1]
        assert exp.convergents == one_shot.convergents[:exp.depth + 1]
        assert exp.periodic == period
    # no digit was drawn and dropped: the rest still follows in order
    exp.ensure(_ONE_SHOT_DEPTH)
    assert exp.digits == want and exp.convergents == one_shot.convergents


def test_extension_many_threads_agree():
    # threads extend one fresh expansion to different depths and q targets
    # at once, switching often, while a reader checks that every digit it
    # sees already has its convergent
    # the Gauss map runs to a_459, where the period closes; q_j reaches
    # 2**300, 2**900 and 2**2000 at j = 173, 493 and 1111, so every call
    # returns the same in any order
    spec = "sqrt:1000003"
    targets = [("ensure", 40), ("ensure_q", 1 << 900, 10 ** 9), ("ensure", 700),
               ("ensure_q", 1 << 300, 200), ("ensure", 1500), ("ensure_q", 1 << 2000, 1300),
               ("ensure_q", 1 << 5000, 50)]
    exp = CFExpansion(km.parse_alpha(spec))
    barrier = threading.Barrier(len(targets) + 1)
    results, torn, done = [None] * len(targets), [], threading.Event()

    class Digits(list):
        # a thread switch seldom lands between the two stores, so check
        # the order at every store too
        def append(self, a):
            if len(exp.convergents) <= len(self):
                torn.append(len(self))
            super().append(a)

    exp.digits = Digits(exp.digits)

    def extend(slot):
        barrier.wait()
        name, *args = targets[slot]
        results[slot] = getattr(exp, name)(*args)

    def read():
        barrier.wait()
        while not done.is_set():
            j = len(exp.digits) - 1
            if j >= len(exp.convergents):
                torn.append(j)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        reader = threading.Thread(target=read)
        threads = [threading.Thread(target=extend, args=(i,)) for i in range(len(targets))]
        for t in [reader] + threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        done.set()
        reader.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads + [reader])
    assert torn == []
    serial = CFExpansion(km.parse_alpha(spec))
    want = [getattr(serial, name)(*args) for name, *args in targets]
    assert results == want == [True] * 6 + [False]
    assert (exp.digits, exp.convergents, exp.periodic) == (
        serial.digits, serial.convergents, serial.periodic)
