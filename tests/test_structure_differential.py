"""The structure path on the integer lattice against the window loops and
Interval arithmetic it replaced (kept in tests/oracles.py): the same tail
brackets, enclosures, metrics, bound reports and errors, and the same CLI
output."""
import hashlib
import importlib
import random
import re
import sys
import threading
from fractions import Fraction

import pytest

import kronmesh as km
from kronmesh import CFExpansion, PrecisionContext
from kronmesh.cli import main
from kronmesh.contfrac import GUARD, _tail_ends, _window_bracket
from kronmesh.metrics import _gap_roles, _structural
from kronmesh.threegap import Decomposition, _gap_structure, decompose
from conftest import ALPHA_SPECS, PREFIX_60_DIGITS, PREFIX_SPEC
import oracles
from oracles import Interval, record_values as V

SURDS = ("golden", "sqrt:2", "sqrt:13", "quad:3,7,2", "sqrt:94")
PERIODIC = ("cf:0;(1,2)", "cf:1;9,3(9)", "cf:0;5,1(2,7,1,1)", "cf:2;(50)")
PREFIXES = (PREFIX_SPEC, "cf:0;1,1,1,1,1,1", "cf:1;3,1,4,1,5,9,2,6,5,3,5,8,9,7,9,3",
            "cf:0;" + ",".join(str(1 + j % 7) for j in range(320)))
RATIONALS = ("rat:3/8", "rat:355/113", "rat:-7/30", "rat:" + "/".join(
    str(n) for n in oracles.convergents_from_digits([0] + [1, 2, 3] * 40)[-1]))


def outcome(f):
    """(result, None) or (None, (type, message)) of a call."""
    try:
        return f(), None
    except km.KronmeshError as e:
        return None, (type(e), str(e))


def bracket(ends):
    """The Interval of bracket ends (x1, y1, x2, y2), y > 0."""
    x1, y1, x2, y2 = ends
    assert y1 > 0 and y2 > 0
    return Interval(Fraction(x1, y1), Fraction(x2, y2))


def expansion(spec, depth):
    exp = CFExpansion(km.parse_alpha(spec))
    exp.ensure(depth)
    return exp


@pytest.mark.parametrize("spec", SURDS + PERIODIC + PREFIXES)
def test_window_bracket_equals_window_oracle(spec):
    # m <= 300 and windows of 1..500 digits, sampled, plus their corners
    exp = expansion(spec, 800)
    rng = random.Random(spec)
    pairs = {(0, 1), (0, 500), (300, 1), (300, 500)}
    pairs |= {(rng.randint(0, 300), rng.randint(1, 500)) for _ in range(60)}
    checked = 0
    for m, w in sorted(pairs):
        if m + w > exp.depth:
            continue
        iv = bracket(_window_bracket(exp, m, m + w))
        assert iv == oracles.tail_bracket(exp.digits[m + 1:m + w + 1]), (spec, m, w)
        checked += 1
    # a prefix ends at a_depth: every tail's bracket of all known digits
    if exp.depth < 800:
        for m in range(exp.depth):
            assert bracket(_window_bracket(exp, m, exp.depth)) == oracles.tail_bracket(
                exp.digits[m + 1:]), (spec, m)
        assert bracket(exp._prefix_bracket) == oracles.tail_bracket(exp.digits[1:])
        checked += 1
    assert checked > 0


@pytest.mark.parametrize("spec", SURDS[:3] + PERIODIC + PREFIXES + RATIONALS)
@pytest.mark.parametrize("bits", [64, 192, 576])
def test_tail_ends_equal_window_loop(spec, bits):
    # digits through a_400, or to the end of a prefix or a rational
    exp = expansion(spec, 400)
    ctx = PrecisionContext(bits)
    for m in list(range(0, 301, 13)) + [exp.depth - 1, exp.depth, exp.depth + 1]:
        if m < 0:
            continue
        assert outcome(lambda: bracket(_tail_ends(exp, m, bits))) == outcome(
            lambda: oracles.alpha_tail_best_window(exp, m, ctx)), (spec, m)


def _tail_surd(exp, m):
    """(P, D, Q) with alpha_m = (P + sqrt(D)) / Q, from the exact surd of
    alpha mod 1 by alpha_j = 1/alpha_{j-1} - a_j; each alpha_j is checked
    to lie in (0, 1), which pins the digit a_j subtracted."""
    P, D, Q = exp._alpha0_surd
    for j in range(m + 1):
        if j:  # 1/alpha = (-P + sqrt(D)) / ((D - P*P) / Q), still in normal form
            P, Q = -P, (D - P * P) // Q
            P -= exp.digit(j) * Q
        sign = 1 if Q > 0 else -1
        assert oracles.surd_sign(P, 1, D) == sign and oracles.surd_sign(P - Q, 1, D) == -sign
    return P, D, Q


def _window_length(exp, m, iv):
    """The w whose window bracket (a_{m+1}, ..., a_{m+w}) has iv's mediant
    end, the end with the larger denominator, q_w + q_{w-1} (which grows
    with w even where q_1 = q_0 = 1, unlike the convergent end's q_w).  It
    draws the digits it reads: a bracket computed at m's phase leaves a
    shallower expansion than m's window."""
    q_prev, q, w = 0, 1, 0
    while q + q_prev < max(iv.lo.denominator, iv.hi.denominator):
        q_prev, q, w = q, exp.digit(m + 1 + w) * q + q_prev, w + 1
    return w


@pytest.mark.parametrize("spec", SURDS + PERIODIC + PREFIXES + (PREFIX_60_DIGITS,) + RATIONALS
                         + ("cf:0;20000(1)",))
@pytest.mark.parametrize("bits", [64, 192, 576])
def test_tail_ends_shortest_window_encloses_alpha_m(spec, bits):
    # the shortest window meeting 2**-(bits - GUARD), per the brute-force
    # oracle; its bracket holds alpha_m; the window one digit shorter
    # misses.  Every m <= 40 and a sample to 300: the step back reads each
    # window's width off the continuants alone, so every bracket of an
    # infinite expansion or a prefix must have x2*y1 - x1*y2 = 1
    exp = expansion(spec, 0)
    ctx, target = PrecisionContext(bits), Fraction(1, 1 << (bits - GUARD))
    rng = random.Random(f"{spec} {bits}")
    ms = sorted(set(range(41)) | {299, 300} | {rng.randint(0, 300) for _ in range(12)})
    met = 0
    for m in ms:
        new = outcome(lambda: bracket(_tail_ends(exp, m, bits)))
        assert new == outcome(lambda: oracles.alpha_tail_best_window(exp, m, ctx)), (spec, m)
        iv = new[0]
        if iv is None:
            assert not exp.ensure(m + 1), (spec, m)  # only where the digits end
            continue
        if iv.lo == iv.hi:  # a rational's window reached a_M: its exact tail
            x = Fraction(0)
            for a in reversed(exp.digits[m + 1:]):
                x = 1 / (a + x)
            assert exp.finite and iv.lo == x, (spec, m)
            continue
        x1, y1, x2, y2 = _tail_ends(exp, m, bits)
        assert x2 * y1 - x1 * y2 == 1, (spec, m)
        if exp._alpha0_surd is not None:
            P, D, Q = _tail_surd(exp, m)
            sign = 1 if Q > 0 else -1
            for end, side in ((iv.lo, 1), (iv.hi, -1)):
                y, x = end.denominator, end.numerator
                assert oracles.surd_sign(y * P - x * Q, y, D) == side * sign, (spec, m)
        else:  # a prefix or a rational: every continuation of its digits lies in the bracket
            exp.ensure(10 ** 6)
            lo, hi = oracles.tail_interval_from_digits(exp.digits, m)
            assert iv.lo <= lo and hi <= iv.hi, (spec, m)
        w = _window_length(exp, m, iv)
        shorter = oracles.tail_bracket(exp.digits[m + 1:m + w]) if w > 1 else Interval(0, 1)
        assert shorter.width > target, (spec, m, w)
        met += iv.width <= target
        assert iv.width <= target or m + w == exp.depth, (spec, m, w)
    if exp._alpha0_surd is not None:
        assert met == len(ms)  # an infinite expansion always meets the target
    if spec == PREFIXES[-1] and bits > 64:
        assert 0 < met < len(ms)  # the 320-digit prefix meets it at some m only


def _decompose_sizes(spec):
    """n_depth - 1, n_depth and n_depth + 1 where a prefix or a rational
    ends (with q_depth +- 1 and n past it), else n_m - 1, n_m and n_m + 1
    at sampled m <= 300 and n of up to 400 digits."""
    full, rng = expansion(spec, 400), random.Random(spec)
    if full.depth < 400:
        n, q = full.n_at(full.depth), full.s_at(full.depth)
        return sorted({2, q - 1, q, q + 1, n - 1, n, n + 1, 2 * n, 10 ** 40} - {0})
    sizes = {rng.randrange(1, 10 ** rng.randint(1, 400)) for _ in range(20)}
    for m in {1, 2, 300} | {rng.randint(1, 300) for _ in range(10)}:
        sizes |= {full.n_at(m) - 1, full.n_at(m), full.n_at(m) + 1}
    return sorted(sizes)


@pytest.mark.parametrize("spec", SURDS[:3] + PERIODIC + PREFIXES + RATIONALS)
def test_decompose_in_bulk_equals_stepwise(spec):
    # the same (m, h, k), or the same error and message, as one ensure per
    # digit, on fresh expansions, extending at most about twice the digits
    extended = expansion(spec, 400)
    for n in _decompose_sizes(spec):
        new, old = expansion(spec, 0), expansion(spec, 0)
        got = outcome(lambda: km.decompose(new, n))
        assert got == outcome(lambda: oracles.decompose_stepwise(old, n)), (spec, n)
        assert got == outcome(lambda: km.decompose(extended, n)), (spec, n)
        assert new.depth <= 2 * old.depth + 1, (spec, n, new.depth, old.depth)


@pytest.mark.parametrize("spec", ("golden", "cf:0;9(9)", "sqrt:94", "cf:0;20000(1)",
                                  PREFIXES[-1], PREFIX_SPEC))
def test_check_nm_in_bulk_equals_stepwise(spec):
    # the same refusal and message as one ensure per digit from m = depth,
    # extending at most about twice the digits
    cli = importlib.import_module("kronmesh.cli")

    def refusal(f):
        try:
            return f()
        except cli._UsageError as e:
            return str(e)

    probe, first = expansion(spec, 0), 1
    while probe.ensure(first) and probe.n_at(first).bit_length() <= cli.MAX_NM_BITS:
        first += 1
    for m_hi in sorted({1, 2, 30, 319, 320, 321, first - 1, first, first + 1, 10 ** 6}):
        new, old = expansion(spec, 0), expansion(spec, 0)
        got = refusal(lambda: cli._check_nm(new, m_hi))
        assert got == refusal(lambda: oracles.check_nm_stepwise(old, m_hi)), (spec, m_hi)
        assert (got is None) == (m_hi < first or not probe.ensure(first)), (spec, m_hi)
        # never past a_{m_hi}; at most about twice the digits to a refusal
        assert new.depth <= (m_hi if got is None else 2 * old.depth + 1), (spec, m_hi)
        deep, deep_old = expansion(spec, 400), expansion(spec, 400)
        assert refusal(lambda: cli._check_nm(deep, m_hi)) == refusal(
            lambda: oracles.check_nm_stepwise(deep_old, m_hi)), (spec, m_hi)


def _sample_sizes(exp, m_max, rng):
    """n_m and a few n = n_m + h s_m + k inside each block, m <= m_max."""
    sizes = set()
    for m in range(1, m_max + 1):
        if not exp.ensure(m + 1):
            break
        n, s = exp.n_at(m), exp.s_at(m)
        sizes.add(n)
        if m % 5 == 0:
            h = rng.randrange(exp.digits[m + 1])
            sizes.add(n + h * s + rng.randrange(s))
    return sorted(s for s in sizes if s >= 2)


def assert_exact_within(new, old, where):
    """The exact QUMetrics of a surd alpha lies in the Interval path's: each
    of fill, separation and rho within the old midpoint -+ the old error.
    Fill and separation are surd triples; rho is one too, or the ratio of
    exactly 1 or 2."""
    assert new.provenance == old.provenance == "structure-exact" and new.error_nd == (0, 1)
    assert len(new.fill_nd) == len(new.separation_nd) == 3, where
    assert len(new.rho_nd) == 3 or new.rho_nd in ((1, 1), (2, 1)), where
    e = old.error_bound
    for got, mid in ((new.fill_nd, old.fill), (new.separation_nd, old.separation),
                     (new.rho_nd, old.mesh_ratio)):
        assert oracles.exact_in(got, mid - e, mid + e), where


@pytest.mark.parametrize("bits", [64, 192, 576])
def test_mesh_ratio_structural_equals_interval_path(bits):
    # a prefix: exact Fractions, field for field, or the same exception and
    # message; a surd: the exact values lie in the Interval path's enclosures
    rng = random.Random(bits)
    specs = oracles.random_periodic_alpha_specs(4, seed=bits) + ["golden", "sqrt:7"]
    ctx = PrecisionContext(bits)
    for spec in specs + list(PREFIXES[:2]):
        exp = expansion(spec, 0)
        for n in _sample_sizes(exp, 200, rng):
            new = outcome(lambda: km.mesh_ratio_structural(exp, n, ctx))
            old = outcome(lambda: oracles.mesh_ratio_structural_interval(exp, n, ctx))
            if exp._alpha0_surd is None:
                assert V(new) == V(old), (spec, n)
            else:
                assert_exact_within(new[0], old[0], (spec, n))


@pytest.mark.parametrize("spec,n", [("cf:0;1,1,1,1,1,1", 13), ("cf:0;1,1,1,1,1,1", 14),
                                    ("cf:0;2,2,2,2,2,2,2,2,2,2,2,2", 19602)])
def test_stalling_prefix_raises_the_same_error(spec, n):
    for bits in (64, 192):
        ctx = PrecisionContext(bits)
        new = outcome(lambda: km.mesh_ratio_structural(expansion(spec, 0), n, ctx))
        old = outcome(lambda: oracles.mesh_ratio_structural_interval(expansion(spec, 0), n, ctx))
        assert new[1] is not None and new[1][0] is km.PrecisionUnresolvedError
        assert "cannot reduce" in new[1][1]
        assert new == old


def _first_rung_leaves(exp, gs, bits):
    """What one rung at bits leaves undecided for the structure path, by
    Interval arithmetic: "order" (two present forms overlap), "sign" (a role
    form straddles 0) or nothing ("decided")."""
    last, present = _gap_roles(gs)
    ivs = sorted((oracles.form_enclosure_interval(exp, f, bits) for f in present),
                 key=lambda iv: iv.lo)
    if any(a.hi >= b.lo for a, b in zip(ivs, ivs[1:])):
        return "order"
    roles = (ivs[-1], oracles.form_enclosure_interval(exp, last.scale(2), bits), ivs[0])
    return "decided" if all(iv.lo > 0 or iv.hi < 0 for iv in roles) else "sign"


@pytest.mark.parametrize("bits", [64, 128, 192])
def test_structural_nm_rows_equal_interval_path(bits):
    # every n_m row, m <= 200, as the --n-at nm loop builds it: the rows the
    # first rung decides and the rows whose order or a sign it leaves open,
    # for the ladders to climb, give the same values or the same error
    ctx, leaves = PrecisionContext(bits), set()
    for spec in SURDS + PERIODIC + PREFIXES[:3]:
        exp = expansion(spec, 0)
        for m in range(1, 201):
            if not exp.ensure(m + 1):
                break
            n = exp.n_at(m)
            gs = _gap_structure(exp, n, Decomposition(m, 0, 0))
            left = _first_rung_leaves(exp, gs, bits)
            leaves.add(left)
            new = outcome(lambda: _structural(exp, gs, ctx))
            old = outcome(lambda: oracles.mesh_ratio_structural_interval(exp, n, ctx))
            if exp._alpha0_surd is None:
                assert V(new) == V(old), (spec, m)
            else:  # exact, whatever the rung leaves
                assert_exact_within(new[0], old[0], (spec, m))
    assert leaves == {"decided", "order", "sign"}


@pytest.mark.parametrize("spec", SURDS + PERIODIC + PREFIXES)
def test_nm_decomposes_as_m_0_0(spec):
    # the --n-at nm loop reads n_m's decomposition off m once a_{m+1} is known
    exp, checked = expansion(spec, 0), 0
    for m in range(1, 301):
        if not exp.ensure(m + 1):
            break
        assert decompose(exp, exp.n_at(m)) == Decomposition(m, 0, 0), (spec, m)
        checked += 1
    assert checked >= min(300, exp.depth - 1)


# the stderr of exit-3 commands as the separate ladders printed it before
# the shared first rung: the ordering before the signs, and the signs in
# role order
EXIT_3_STDERR = [
    (("gaps", "--alpha", "cf:0;1,2,3,4,5", "--n", "226"),
     "error: sign of -225*alpha+157 unresolved at 384 bits; doubling the precision "
     "cannot reduce the error (digit prefix exhausted?)\n"),
    (("sweep", "--alpha", "cf:0;1,1,1,1,1,1", "--n-at", "nm", "--m", "5..5"),
     "error: gap-length ordering unresolved at 384 bits; doubling the precision "
     "cannot reduce the error (digit prefix exhausted?)\n"),
    (("analyze", "--alpha", "cf:0;1,2,3,4,5", "--n", "114"),
     "error: point order at n=114 unresolved at 430 bits; doubling the precision "
     "cannot reduce the error (digit prefix exhausted?)\n"),
    # 300 and 40 digits of golden and cf:2;(50), whose exact rows now answer
    # at this ceiling (test_surd_nm_sweep_answers_at_any_ceiling)
    (("sweep", "--alpha", "cf:0;" + ",".join(["1"] * 300), "--n-at", "nm", "--m", "90..92",
      "--bits", "64", "--max-bits", "128"),
     "error: gap-length ordering unresolved at the ceiling of 128 bits\n"),
    (("sweep", "--alpha", "cf:2;" + ",".join(["50"] * 40), "--n-at", "nm", "--m", "9..11",
      "--bits", "64", "--max-bits", "128"),
     "error: sign of -9804743785008750600*alpha+196016500437575002 unresolved at the "
     "ceiling of 128 bits\n"),
    # a prefix ending at a_m: n_m is not read off m
    (("sweep", "--alpha", "cf:0;1", "--n-at", "nm", "--m", "1..1"),
     "error: digit prefix through a_1 only brackets n < 2; cannot decompose n = 2\n"),
    (("sweep", "--alpha", "cf:0;2", "--n-at", "nm", "--m", "1..1", "--no-bounds"),
     "error: digit prefix through a_1 only brackets n < 3; cannot decompose n = 3\n"),
]


@pytest.mark.parametrize("argv, err", EXIT_3_STDERR)
def test_exit_3_stderr_is_unchanged(capsys, argv, err):
    assert main(list(argv)) == 3
    assert capsys.readouterr() == ("", err)


@pytest.mark.parametrize("spec, m", [("golden", "90..92"), ("cf:2;(50)", "9..11")])
def test_surd_nm_sweep_answers_at_any_ceiling(capsys, spec, m):
    # these exited 3 at --bits 64 --max-bits 128 on the ladder; the exact
    # rows print the same bytes at every --bits and --max-bits
    outs = []
    for flags in (("--bits", "64", "--max-bits", "128"), (), ("--bits", "8192")):
        assert main(["sweep", "--alpha", spec, "--n-at", "nm", "--m", m, *flags]) == 0
        out, err = capsys.readouterr()
        assert err == "" and out.count("\n") == 4
        outs.append(out)
    assert outs[0] == outs[1] == outs[2]


BOUND_SPECS = ("golden", "sqrt:2", "sqrt:213", "quad:3,37,5", "cf:1;7(2)", "cf:0;20000(1)",
               "cf:0;1,2,3,4,5", PREFIX_60_DIGITS) + tuple(
                   oracles.random_periodic_alpha_specs(4, seed=11))


def _bound_sizes(exp, m_max=60):
    """n in 2..400 plus, for m <= m_max, n_m and the edges of its blocks
    n_m + h s_m + k at h in {0, 1, a_{m+1} - 1} and k in {0, s_m - 1}."""
    sizes = set(range(2, 401))
    for m in range(1, m_max + 1):
        if not exp.ensure(m + 1):
            break
        n, s, a = exp.n_at(m), exp.s_at(m), exp.digits[m + 1]
        sizes |= {n + h * s + k for h in {0, 1, a - 1} if h < a for k in (0, s - 1)}
    return sorted(sizes)


def _bounds_against_interval_path(spec, monkeypatch):
    """Hold kronecker_bounds to the Interval path at bits 64, 192 and 576
    over _bound_sizes: for a digit prefix the same BoundReport field for
    field (exact Fractions), or the same exception and message; for a surd
    the exact upper and lower bounds inside the Interval path's, and every
    other field equal.  Returns the ends each min took on the deciding
    bracket and the count of stalled ladders."""
    metrics = importlib.import_module("kronmesh.metrics")
    original, brackets = metrics._tail_ends, []

    def recording(exp, m, bits):
        ends = original(exp, m, bits)
        brackets.append(bracket(ends))
        return ends

    monkeypatch.setattr(metrics, "_tail_ends", recording)
    branches, stalls = set(), 0
    for bits in (64, 192, 576):
        ctx = PrecisionContext(bits)
        exp = expansion(spec, 0)
        for n in _bound_sizes(exp):
            new = outcome(lambda: km.kronecker_bounds(exp, n, ctx))
            old = outcome(lambda: oracles.kronecker_bounds_interval(exp, n, ctx))
            if exp._alpha0_surd is not None:
                (new, _), (old, _) = new, old
                fields, old_fields = V(new), V(old)  # all but the two bounds
                assert fields[:4] + fields[6:] == old_fields[:4] + old_fields[6:], (spec, bits, n)
                assert oracles.exact_in(new.upper_ends, *old.upper), (spec, bits, n)
                assert (new.lower_ends is None) == (old.lower_at_nm is None), (spec, bits, n)
                assert new.lower_ends is None or oracles.exact_in(
                    new.lower_ends, *old.lower_at_nm), (spec, bits, n)
                continue
            assert V(new) == V(old), (spec, bits, n)
            if new[1] is not None:
                stalls += "cannot reduce" in new[1][1]
                continue
            am, h = brackets[-1], new[0].h
            branches.add(("den_lo", am.lo <= 1 - (h + 1) * am.hi))
            branches.add(("den_hi", am.hi <= 1 - (h + 1) * am.lo))
    return branches, stalls


@pytest.mark.parametrize("spec", BOUND_SPECS)
def test_kronecker_bounds_equal_interval_path(spec, monkeypatch):
    _, stalls = _bounds_against_interval_path(spec, monkeypatch)
    if spec == "cf:0;1,2,3,4,5":
        assert stalls > 0


def _prefix_of(spec, digits=160):
    """The cf: digit prefix of a periodic alpha's first `digits` digits."""
    exp = expansion(spec, digits)
    return f"cf:{exp.digits[0]};" + ",".join(map(str, exp.digits[1:]))


def test_kronecker_bounds_take_both_ends_of_each_min():
    # the alpha_m end at small h, the 1 - (h+1) alpha_m end at h = a_{m+1} - 1,
    # on the brackets of digit prefixes of sqrt:2, sqrt:213 and cf:1;7(2)
    # (their own bounds are exact)
    branches = set()
    for spec in map(_prefix_of, ("sqrt:2", "sqrt:213", "cf:1;7(2)")):
        with pytest.MonkeyPatch.context() as mp:
            branches |= _bounds_against_interval_path(spec, mp)[0]
    assert branches == {(which, end) for which in ("den_lo", "den_hi")
                        for end in (True, False)}


@pytest.mark.parametrize("spec", ALPHA_SPECS + ("sqrt:94", "cf:1;9,3(9)"))
def test_form_interval_equals_interval_path(spec):
    exp = expansion(spec, 0)
    for bits in (64, 192):
        ctx = PrecisionContext(bits)
        for m in range(-1, 201, 3):
            new = outcome(lambda: oracles.form_rung_interval(exp, km.eta(exp, m), ctx, True))
            old = outcome(lambda: oracles.form_interval_interval(exp, km.eta(exp, m), ctx, True))
            assert new == old, (spec, m)
        for n in (2, 7, 100, 12345, 10 ** 12 + 39):
            gs = outcome(lambda: km.gap_structure(exp, n))[0]
            for form, _ in gs.entries if gs else ():
                for positive in (False, True):
                    new = outcome(lambda: oracles.form_rung_interval(exp, form, ctx, positive))
                    old = outcome(lambda: oracles.form_interval_interval(exp, form, ctx, positive))
                    assert new == old, (spec, n, form, positive)


CLI_COMMANDS = [
    ("gaps", "--alpha", "golden", "--n", str(10 ** 35 + 7)),
    ("gaps", "--alpha", "sqrt:94", "--n", "123456789012345678901234567890", "--bits", "64"),
    ("gaps", "--alpha", PREFIX_SPEC, "--n", "10000000000000"),
    ("gaps", "--alpha", "cf:0;1,1,1,1,1,1", "--n", "13"),
    ("sweep", "--alpha", "cf:1;7(2)", "--n-at", "nm", "--m", "40..60"),
    ("sweep", "--alpha", "golden", "--n-at", "nm", "--m", "1..90", "--bits", "64"),
    ("sweep", "--alpha", "quad:3,7,2", "--n-at", "nm", "--m", "100..120", "--bits", "576",
     "--format", "json"),
    ("sweep", "--alpha", PREFIX_SPEC, "--n-at", "nm", "--m", "3..29"),
    ("sweep", "--alpha", "cf:0;1,1,1,1,1,1", "--n-at", "nm", "--m", "1..6"),
    ("analyze", "--alpha", "golden", "--n", str(10 ** 30)),
    ("analyze", "--alpha", "cf:0;2,2,2,2,2,2,2,2,2,2,2,2", "--n", "19602"),
    ("analyze", "--alpha", PREFIX_SPEC, "--n", "123456789"),
    ("analyze", "--alpha", "sqrt:13", "--n", "987654321", "--bits", "64", "--digits", "60"),
]


def _window_loop_ends(exp, m, bits):
    """metrics._tail_ends by the brute-force window search: the ends of
    oracles.alpha_tail_best_window at bits."""
    iv = oracles.alpha_tail_best_window(exp, m, PrecisionContext(bits, max(bits, 65536)))
    return (iv.lo.numerator, iv.lo.denominator, iv.hi.numerator, iv.hi.denominator)


def _exact_at(argv, bits):
    """argv at --bits `bits` when it evaluates a surd's gap forms (gaps,
    analyze, an --n-at nm sweep), which are exact now: the Interval path
    prints the same digits, and the same one-unit gaps intervals, from 8192
    bits on."""
    if CFExpansion(km.parse_alpha(argv[2]))._alpha0_surd is None:
        return argv
    i = argv.index("--bits") if "--bits" in argv else len(argv)
    return (*argv[:i], "--bits", str(bits), *argv[i + 2:])


def test_cli_output_equals_interval_path(capsys, monkeypatch):
    def run_all(bits=None):
        runs = []
        for argv in CLI_COMMANDS:
            code = main(list(argv if bits is None else _exact_at(argv, bits)))
            cap = capsys.readouterr()
            runs.append((code, cap.out, cap.err))
        return runs

    new = run_all()
    assert run_all(8192) == new  # --bits steers no surd row, bound or gaps end
    # the old code: no alpha0 memo, window loops for the tails and a
    # prefix's alpha0, Interval arithmetic for the forms and the metrics,
    # and the gaps entries rendered from Fraction intervals
    metrics = importlib.import_module("kronmesh.metrics")
    cli = importlib.import_module("kronmesh.cli")
    monkeypatch.setattr(CFExpansion, "alpha0_scaled", oracles.alpha0_scaled_window)
    monkeypatch.setattr(metrics, "_tail_ends", _window_loop_ends)
    monkeypatch.setattr(cli, "gap_structure_json", oracles.gap_structure_json_interval)
    monkeypatch.setattr(cli, "_structural", lambda exp, gs, ctx:
                        oracles.mesh_ratio_structural_interval(exp, gs.n, ctx))
    old = run_all(8192)
    assert [code for code, _, _ in new] == [0, 0, 0, 3, 0, 0, 0, 0, 3, 0, 0, 0, 0]
    for argv, a, (code, out, err) in zip(CLI_COMMANDS, new, old):
        if CFExpansion(km.parse_alpha(argv[2]))._alpha0_surd is not None:
            out = _RATIONAL_CELL.sub(r"\1", out)
        assert a == (code, out, err), argv


# a cell the Interval path prints as 1 or 2 to 40 digits, for a surd's
# exact rho of 1 or 2, which the exact path prints by decimal division
_RATIONAL_CELL = re.compile(r'(?<=[,"])([12])\.0{39}(?=[,"])')


def _ladder_workout(exp):
    """Climb the ladders of the structure and lattice paths on exp."""
    ctx = PrecisionContext(64)
    for m in (5, 40, 120):
        if exp.ensure(m + 1):
            outcome(lambda: km.mesh_ratio_structural(exp, exp.n_at(m), ctx))
            outcome(lambda: oracles.form_rung_interval(exp, km.eta(exp, m), ctx, True))
    outcome(lambda: oracles.segment_rows(km.KroneckerGen(exp), 2, 300, ctx))
    outcome(lambda: km.kronecker(exp, 50, ctx))


@pytest.mark.parametrize("spec", SURDS[:2] + PERIODIC[:2] + PREFIXES[:2] + ("cf:2;7",))
def test_alpha0_memo_equals_fresh_computation(spec):
    exp = CFExpansion(km.parse_alpha(spec))
    _ladder_workout(exp)
    visited = dict(exp._scaled)
    if spec != "cf:2;7":  # a one-digit prefix fails before any rung
        assert len(visited) >= 3
    for bits, value in visited.items():
        assert value == CFExpansion(km.parse_alpha(spec)).alpha0_scaled(bits), (spec, bits)
        assert value == oracles.alpha0_scaled_window(exp, bits), (spec, bits)


def test_alpha0_memo_two_threads_agree():
    exp = CFExpansion(km.parse_alpha("sqrt:94"))
    exp.ensure(200)
    barrier = threading.Barrier(2)
    results = [None, None]

    def read(slot):
        barrier.wait()
        out = [exp.alpha0_scaled(bits) for bits in range(64, 1200, 7)]
        out.append(km.mesh_ratio_structural(exp, exp.n_at(150), PrecisionContext(64)))
        results[slot] = out

    threads = [threading.Thread(target=read, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert results[0] == results[1]
    fresh = CFExpansion(km.parse_alpha("sqrt:94"))
    assert results[0][:-1] == [fresh.alpha0_scaled(bits) for bits in range(64, 1200, 7)]


def _tail_workout(exp):
    """Fill the _tail_ends memo as the CLI does: the bound columns of a
    bounded sweep (one bracket per m, read by every key of that m) and of
    rows at n_m; a surd's bound columns are exact and read none."""
    ctx = PrecisionContext(64)
    outcome(lambda: km.sweep_segments(km.KroneckerGen(exp), 2, 3000, ctx))
    for m in (3, 20, 60):
        if exp.ensure(m + 1):
            outcome(lambda: km.kronecker_bounds(exp, exp.n_at(m), ctx))


@pytest.mark.parametrize("spec", ("cf:0;20000(1)",) + SURDS[:2] + PERIODIC[:2] + PREFIXES[:2])
def test_tail_memo_equals_fresh_computation(spec):
    exp = CFExpansion(km.parse_alpha(spec))
    _tail_workout(exp)
    if exp._alpha0_surd is not None:
        assert exp._tails == {}  # exact bounds: no bracket was read
        for m, bits in ((3, 64), (20, 192), (60, 576)):
            _tail_ends(exp, m, bits)
    memo = dict(exp._tails)
    assert memo  # the six-digit prefix reaches one bound column, at m = 3
    for (m, bits), ends in memo.items():
        assert _tail_ends(exp, m, bits) is ends  # a hit returns the stored ends
        assert ends == _tail_ends(CFExpansion(km.parse_alpha(spec)), m, bits), (spec, m, bits)
        assert ends == _window_loop_ends(exp, m, bits), (spec, m, bits)


def test_tail_memo_many_threads_agree():
    # the memo takes no lock: threads racing on a miss store equal ends.
    # More threads than cores, switching often, all start at one barrier
    exp = CFExpansion(km.parse_alpha("cf:0;20000(1)"))
    keys = [(m, bits) for m in range(0, 60, 3) for bits in (64, 128, 192, 384)]
    workers = 6
    barrier = threading.Barrier(workers)
    results = [None] * workers

    def read(slot):
        barrier.wait()
        results[slot] = [_tail_ends(exp, m, bits) for m, bits in keys]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=read, args=(i,)) for i in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    fresh = CFExpansion(km.parse_alpha("cf:0;20000(1)"))
    want = [_tail_ends(fresh, m, bits) for m, bits in keys]
    assert all(got == want for got in results)
    assert set(exp._tails) == set(keys)  # one bracket per m and bits


# a period from a_0, from a_1 and after a preperiod; a prefix and a rational
# have no period, so their phase is m
PHASED = ("quad:2,31,7", "golden", "sqrt:103", "quad:5,13,7", "quad:-3,11,-4",
          "cf:1;9,3(9)", "cf:0;5,1(2,7,1,1)", PREFIX_SPEC, "rat:355/113")


@pytest.mark.parametrize("spec", PHASED)
@pytest.mark.parametrize("bits", [64, 192, 576])
def test_tail_ends_at_every_phase_equal_best_window(spec, bits):
    # at every m through three periods past the preperiod (or through the
    # end of a prefix or a rational, and one past) alpha_m's bracket is the
    # brute-force shortest window of m's own digits, once memoized per m.
    # Once on an expansion whose sup is read first, once on a fresh one
    ctx = PrecisionContext(bits)
    closed, fresh = (CFExpansion(km.parse_alpha(spec)) for _ in range(2))
    km.digit_supremum(closed)
    if closed.periodic:
        start, length = closed.periodic
        ms, brackets = range(start + 3 * length + 1), start + 3 * length + 1
    else:
        closed.ensure(10 ** 6)
        ms, brackets = range(closed.depth + 2), closed.depth
    for exp in (closed, fresh):
        for m in ms:
            assert outcome(lambda: bracket(_tail_ends(exp, m, bits))) == outcome(
                lambda: oracles.alpha_tail_best_window(exp, m, ctx)), (spec, m)
    assert len(closed._tails) == brackets  # one bracket per m that has one


def test_nm_sweep_from_a_period_at_a0_prints_the_same_bytes(capsys):
    # quad:2,31,7 = [1; (12, 3, 25, 1, 1, 1)] repeats from a_0, so alpha_m
    # = alpha_{m mod 6} from m = 0; a mapping from start - 1 = -1 would read
    # alpha_{-1} at m = 5.  The sha256 of the exit code and stdout are
    # those of the exact rows, which the ladder printed at --bits 8192 but
    # for its rho cells of exactly 1 or 2, printed "1" and "2" here
    for argv, rows, want in [
        (("--m", "1..40", "--bits", "64"), 41,
         "4df20a853da661478e195b316caa22bc24ae09895ed1fa8755c7b07acb881cbd"),
        (("--m", "3..20", "--bits", "576", "--format", "json"), 418,
         "ddf24e9fec955b6c9ba289843a9a1cdde52a876548b806b19083c826696804f7"),
    ]:
        code = main(["sweep", "--alpha", "quad:2,31,7", "--n-at", "nm", *argv])
        out, err = capsys.readouterr()
        assert (code, err, out.count("\n")) == (0, "", rows), argv
        assert hashlib.sha256(f"{code}\n{out}".encode()).hexdigest() == want, argv
