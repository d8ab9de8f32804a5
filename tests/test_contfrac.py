import gc
import importlib
import math
import random
import threading
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
    UnsupportedAlphaError,
)
from kronmesh.contfrac import _window_bracket
from conftest import ALPHA_SPECS, PREFIX_SPEC, mpf_to_fraction
import oracles


def test_expand_golden():
    exp = km.expand(km.parse_alpha("golden"), 10)
    assert exp.digits == [0] + [1] * 10
    assert [exp.s_at(m) for m in range(6)] == [1, 1, 2, 3, 5, 8]
    assert [exp.n_at(m) for m in range(6)] == [1, 2, 3, 5, 8, 13]


def test_expansion_stores_only_digits_and_convergents():
    # s_m = q_m and n_m = q_m + q_{m-1} are read off the convergents: two
    # lists of big integers per expansion, not four
    exp = CFExpansion(km.parse_alpha("golden"))
    exp.ensure(500)
    assert sorted(k for k, v in vars(exp).items() if isinstance(v, list)) == [
        "convergents", "digits"]
    assert len(exp.convergents) == len(exp.digits) == 501
    assert exp.n_at(500) == exp.s_at(500) + exp.s_at(499) == exp.s_at(501)


def test_expand_sqrt2():
    exp = km.expand(km.parse_alpha("sqrt:2"), 8)
    assert exp.digits == [1] + [2] * 8
    assert exp.periodic is not None


def test_expand_rational_3_8():
    exp = km.expand(km.parse_alpha("rat:3/8"), 10)
    assert exp.digits == [0, 2, 1, 2]
    assert exp.finite


def test_expand_m_max_validation():
    with pytest.raises(ValueError):
        km.expand(km.parse_alpha("golden"), 0)


def test_sqrt3_minus_1_periodic_digits():
    exp = km.expand(km.parse_alpha("quad:-1,3,1"), 9)
    assert exp.digits == [0, 1, 2, 1, 2, 1, 2, 1, 2, 1]


def test_s_and_n_examples():
    golden = km.expand(km.parse_alpha("golden"), 6)
    assert [km.s_and_n(golden, m) for m in range(4)] == [
        (1, 1), (1, 2), (2, 3), (3, 5)
    ]
    r2 = km.expand(km.parse_alpha("quad:-1,2,1"), 6)
    assert [r2.s_at(m) for m in range(5)] == [1, 2, 5, 12, 29]
    assert km.s_and_n(r2, 1)[1] == 3
    assert km.s_and_n(r2, 2)[1] == 7
    # m = 0 base case is generator-independent
    for spec in ALPHA_SPECS:
        assert km.s_and_n(km.CFExpansion(km.parse_alpha(spec)), 0) == (1, 1)


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
    pm, qm = exp.convergent(exp.depth)
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
        exp = km.expand(km.parse_alpha(spec), 25)
        want = oracles.mp_cf_digits(oracles.mp_value(spec, 420), 25, 420)
        assert exp.digits[:20] == want[:20], spec


def test_surd_convergents_alternate_and_sharpen():
    # q_m*alpha - p_m alternates in sign and shrinks in magnitude; checked
    # exactly through the integer sign of a + b*sqrt(D)
    surd = km.parse_alpha("quad:3,7,2")   # (3 + sqrt 7)/2
    exp = km.expand(surd, 18)
    P, D, Q = surd.P, surd.D, surd.Q
    prev_sign = None
    for m in range(1, 18):
        pm, qm = exp.convergent(m)
        # sign of qm*(P + sqrt D)/Q - pm  ==  sign of (qm*P - pm*Q) + qm*sqrt D
        s = oracles.surd_sign(qm * P - pm * Q, qm, D)
        assert s != 0
        if prev_sign is not None:
            assert s == -prev_sign
        prev_sign = s


def test_periodic_detection():
    r2 = km.expand(km.parse_alpha("sqrt:2"), 12)
    pre, per = r2.periodic
    assert per == 1
    r3 = km.expand(km.parse_alpha("quad:-1,3,1"), 12)
    assert r3.periodic[1] == 2


def test_alpha_tail_golden_self_similar():
    exp = km.expand(km.parse_alpha("golden"), 8)
    iv = km.alpha_tail(exp, 3, PrecisionContext(64))
    assert iv.width <= Fraction(1, 1 << 56)
    with mpmath.workprec(400):
        phi = mpf_to_fraction((mpmath.sqrt(5) - 1) / 2)
    eps = Fraction(1, 1 << 200)
    assert iv.lo - eps <= phi <= iv.hi + eps


def test_alpha_tail_terminating_exact():
    exp = CFExpansion(Rational(3, 8))
    assert km.alpha_tail(exp, 2).width == 0
    assert km.alpha_tail(exp, 2).lo == Fraction(1, 2)
    # alpha_1 of [0;2,1,2] is [0;1,2] = 2/3
    assert km.alpha_tail(exp, 1).lo == Fraction(2, 3)
    with pytest.raises(UnsupportedAlphaError):
        km.alpha_tail(exp, 3)


def test_alpha_tail_sqrt2_m0():
    exp = km.expand(km.parse_alpha("sqrt:2"), 6)
    iv = km.alpha_tail(exp, 0)
    with mpmath.workprec(400):
        v = mpf_to_fraction(mpmath.sqrt(2) - 1)
    eps = Fraction(1, 1 << 200)
    assert iv.lo - eps < v < iv.hi + eps


def test_alpha_tail_width_contract():
    ctx = PrecisionContext(128)
    target = Fraction(1, 1 << 120)
    for spec in ALPHA_SPECS[:4]:
        exp = km.CFExpansion(km.parse_alpha(spec))
        for m in range(0, 12):
            assert km.alpha_tail(exp, m, ctx).width <= target


def test_alpha_tail_prefix_exhaustion_raises():
    exp = CFExpansion(ExplicitCF((0, 1, 2, 3), ()))
    with pytest.raises(PrecisionUnresolvedError):
        km.alpha_tail(exp, 0, PrecisionContext(192))


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
        return Fraction(1, 1 << bits)

    assert ladder(192, 768, halving) == ("done", [192, 384, 768])
    assert ladder(192, 4000, halving) == (
        "test unresolved at the ceiling of 1000 bits", [192, 384, 768, 1000])
    # a start above the ceiling still gets its one attempt
    assert ladder(2000, 4000, halving) == (
        "test unresolved at the ceiling of 2000 bits", [2000])
    # an error that does not halve stops the ladder at its second rung,
    # even where a later rung would have decided
    msg, tried = ladder(192, 768, lambda bits: Fraction(1, 3))
    assert tried == [192, 384]
    assert "384 bits; doubling the precision cannot reduce the error" in msg


def test_alpha_tail_sandwich():
    # alpha_m = 1/(a_{m+1} + alpha_{m+1}) pinches between the digit bounds:
    #   1/(a_{m+1} + 1/a_{m+2})  <  alpha_m  <  1/(a_{m+1} + 1/(a_{m+2}+1))
    # and in particular 1/(a_{m+1}+1) < alpha_m < 1/a_{m+1}
    for spec in ALPHA_SPECS:
        exp = km.CFExpansion(km.parse_alpha(spec))
        hi_m = 10 if spec != PREFIX_SPEC else 8
        for m in range(hi_m):
            iv = km.alpha_tail(exp, m, PrecisionContext(96))
            a1 = exp.digit(m + 1)
            a2 = exp.digit(m + 2)
            lo = Fraction(1) / (a1 + Fraction(1, a2))
            hi = Fraction(1) / (a1 + Fraction(1, a2 + 1))
            assert lo < iv.lo and iv.hi < hi, (spec, m)
            assert Fraction(1, a1 + 1) < iv.lo and iv.hi < Fraction(1, a1)


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
    # the tail of the rational with these digits is exact: one of the ends
    exp = CFExpansion(Rational(*oracles.convergents_from_digits(digits)[-1]))
    exp.ensure(10 ** 6)
    if exp.digits == digits:  # the Euclidean digits end in a_M >= 2
        point = km.alpha_tail(exp, m)
        assert point.width == 0 and point.lo in (lo, hi)


@pytest.mark.parametrize("spec", [PREFIX_SPEC, "cf:1;3,1,4,1,5,9,2,6,5,3,5,8,9,7,9,3,2,3,8,4,6,2,6,4"])
def test_alpha_tail_best_prefix_equals_oracle(spec):
    exp = CFExpansion(km.parse_alpha(spec))
    exp.ensure(10 ** 6)
    ctx = PrecisionContext(192)
    fallbacks = 0
    for m in range(exp.depth):
        try:
            km.alpha_tail(exp, m, ctx)
        except PrecisionUnresolvedError:
            fallbacks += 1
        iv = km.alpha_tail_best(exp, m, ctx)
        assert (iv.lo, iv.hi) == oracles.tail_interval_from_digits(exp.digits, m), (spec, m)
    assert fallbacks > 0
    with pytest.raises(PrecisionUnresolvedError):
        km.alpha_tail_best(exp, exp.depth, ctx)


@pytest.mark.parametrize("spec", [PREFIX_SPEC, "cf:2;7", "cf:0;1,1,1,1,1,1,1,1,1,1,1,1,1"])
def test_prefix_bracket_equals_oracle(spec):
    exp = CFExpansion(km.parse_alpha(spec))
    x1, y1, x2, y2 = exp._prefix_bracket
    assert y1 > 0 and y2 > 0
    assert (Fraction(x1, y1), Fraction(x2, y2)) == oracles.tail_interval_from_digits(exp.digits, 0)


def test_digit_supremum_examples():
    assert km.digit_supremum(km.expand(km.parse_alpha("golden"), 3)) == (1, "exact")
    assert km.digit_supremum(CFExpansion(Rational(3, 8))) == (2, "exact")
    assert km.digit_supremum(km.expand(km.parse_alpha("sqrt:2"), 3)) == (2, "exact")
    assert km.digit_supremum(CFExpansion(ExplicitCF((0,), (1, 2)))) == (2, "exact")
    rule = CFExpansion(ExplicitCF(tuple([0] + list(range(1, 51))), ()))
    assert km.digit_supremum(rule, probe_depth=50) == (50, "prefix-only")


def test_digit_supremum_is_memoized_per_expansion_and_probe():
    # kronecker_bounds asks once per bound key; the walk and the max run once
    exp = CFExpansion(km.parse_alpha("sqrt:94"))
    first = km.digit_supremum(exp)
    depth = exp.depth
    exp.digits[1] = 10 ** 9  # a re-walk would see it
    assert km.digit_supremum(exp) is first and exp.depth == depth
    rule = CFExpansion(ExplicitCF(tuple([0] + list(range(1, 51))), ()))
    assert km.digit_supremum(rule, probe_depth=20) == (20, "prefix-only")
    assert km.digit_supremum(rule, probe_depth=30) == (30, "prefix-only")
    assert km.digit_supremum(rule, probe_depth=20) == (20, "prefix-only")


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
    # sqrt(20001019) has period 9714 (preperiod a_0): 9715 of the 10**4 digits
    length, top = _sqrt_period(20001019)
    assert length == 9714 and 1 + length <= km.contfrac.MAX_PERIOD_WALK
    v = km.is_badly_approximable(km.parse_alpha("sqrt:20001019"))
    assert (v.verdict, v.digit_sup, v.certainty, v.c_bound) == ("yes", top, "exact", 2 + 2 * top)


def test_surds_in_use_lie_far_inside_the_walk_cap():
    for D in (2, 3, 5, 7, 11, 13, 94, 213) + tuple(range(2, 301)):
        if math.isqrt(D) ** 2 != D:
            assert 1 + _sqrt_period(D)[0] <= km.contfrac.MAX_PERIOD_WALK // 100


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
        fresh = km.expand(km.parse_alpha(spec), 3000)
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
    # over reduced triples (a + b sqrt(d)) / c, and the digits against mpmath
    for spec in SURD_SPECS:
        want, period = oracles.surd_period_walk(*_surd_triple(spec))
        j = len(want) - 1           # the digit at which the period closes
        exp = CFExpansion(km.parse_alpha(spec))
        assert exp.ensure(j - 1) and exp.periodic is None, spec
        assert exp.ensure(j) and exp.periodic == period, spec
        assert exp.digits == want and not exp.finite, spec
        exp.ensure(j + 40)
        assert exp.periodic == period, spec
        mp = oracles.mp_cf_digits(oracles.mp_value(spec, 1200), 40, 1200)
        assert exp.digits[:41] == mp, spec
        assert exp.convergents == oracles.convergents_from_digits(exp.digits), spec


def test_rational_digit_source_matches_euclid():
    rng = random.Random(14)
    pairs = [(rng.randint(-10 ** 6, 10 ** 6), 1) for _ in range(20)]
    pairs += [(rng.randint(-2 ** 40, 2 ** 40), 2 ** rng.randint(1, 40)) for _ in range(40)]
    pairs += [(rng.randint(-10 ** 30, 10 ** 30), rng.randint(1, 10 ** 30)) for _ in range(140)]
    for p, q in pairs:
        want = oracles.cf_digits_euclid(p, q)
        exp = CFExpansion(km.parse_alpha(f"rat:{p}/{q}"))
        assert exp.finite and exp.is_rational and exp.periodic is None
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
        assert exp.periodic == period and not exp.finite and not exp.is_rational, spec
        # a prefix ends: asking past its end, twice, extends nothing
        assert exp.ensure(len(want) - 1), spec
        for _ in range(2):
            assert exp.ensure(70) == bool(period), spec
        assert len(exp.digits) == (71 if period else len(want)), spec
        assert exp.digits[:60] == want, spec
        assert exp.convergents == oracles.convergents_from_digits(exp.digits), spec


def test_quadratic_surd_value_semantics():
    s = QuadraticSurd(-1, 5, 2)
    assert repr(s) == "QuadraticSurd(P=-1, D=5, Q=2)"
    assert s == QuadraticSurd(-1, 5, 2) == km.parse_alpha("golden")
    assert s != QuadraticSurd(1, 5, 2) and s != (-1, 5, 2)
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
