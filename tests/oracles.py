"""Independent reference implementations used to check the library.

Everything here is deliberately written from scratch against the
definitions, not by calling back into the code under test: brute-force
sorted-prefix gap multisets, O(n^2) pairwise metrics, grid fill oracles,
digit-reversal radical inverses, an exact sign test for a + b*sqrt(D), the
defining recurrence of the three-gap lengths eta_m, backward-recurrence
tail enclosures, and big-float continued-fraction machinery via mpmath.
The structure path the package once ran is kept as well: tail brackets by
a loop over the digit window, and gap-form enclosures, their order, the
structure-exact mesh ratio and the closed-form bounds by arithmetic on
the Interval type defined here (the package reads the brackets off its
convergents, evaluates the forms and bounds on integers and has no
interval type).  rho_interval, a record's certified mesh-ratio enclosure,
is here as well, because only the tests read it.
The sorted-point Kronecker metrics reuse the package's point generator
and precision ladder; they differ from the package in reading the metrics
off sorted points instead of the three-gap forms.  The point generator is
kept as the point-by-point loop it was, the reference for the package's
bulk products and one straddle bound.  Likewise the sorted-point
kernel (LatticeMesh, exact_sweep_metrics) grows the package's van der
Corput, greedy and rational points one insert at a time, where the package
reads closed forms.  The per-row sweep (sweep_rows, its CSV and JSON
writers and the sweep command) builds and prints one row per n, where the
package evaluates and formats each run of n once; segment_rows expands the
package's segments to those rows.  A surd alpha's rows come from
surd_gap_metrics, which orders the exact gap values by sign tests
(value_sign) where the package ranks the forms by the digit a_{m+1}.
"""
import bisect
import functools
import heapq
import math
import operator
import random
from collections import Counter
from fractions import Fraction
from itertools import count, takewhile
from typing import NamedTuple

import mpmath


# -- closed intervals with Fraction ends ----------------------------------------

class Interval(NamedTuple("Interval", [("lo", Fraction), ("hi", Fraction)])):
    """A closed interval [lo, hi] with Fraction ends: the container the
    oracles' interval arithmetic works in.  It equals the plain pair (lo,
    hi), which is how the package's records hand out bracket ends."""
    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))

    def __new__(cls, lo, hi):
        lo, hi = Fraction(lo), Fraction(hi)
        if lo > hi:
            raise ValueError(f"interval endpoints out of order: [{lo}, {hi}]")
        return tuple.__new__(cls, (lo, hi))

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2


def nd(x) -> tuple:
    """A rational as the (num, den) error PrecisionContext.escalate takes."""
    x = Fraction(x)
    return x.numerator, x.denominator


def rho_interval(qm):
    """Certified enclosure of a QUMetrics' true mesh ratio, None when
    infinite: from fill and separation widened by the error bound, and an
    exact surd's between multiples of 2**-128."""
    from kronmesh.errors import PrecisionUnresolvedError

    if qm.is_infinite:
        return None
    rho, e = qm.mesh_ratio, qm.error_bound
    if not isinstance(rho, Fraction):
        lo = Fraction(rho.floor_scaled(128), 1 << 128)
        return Interval(lo, lo + Fraction(1, 1 << 128))
    if not e:  # exact, as a surd's rho of exactly 1 or 2 is
        return Interval(rho, rho)
    fill, sep = qm.fill, qm.separation
    lo_num = max(fill - e, Fraction(0))
    den_lo = sep - e
    if den_lo <= 0:
        raise PrecisionUnresolvedError(f"separation {sep} not resolved beyond error {e}")
    return Interval(lo_num / (sep + e), (fill + e) / den_lo)


# -- exact quadratic-surd sign ----------------------------------------------

def surd_sign(a: int, b: int, d: int) -> int:
    """Sign of a + b*sqrt(d) for integers a, b and nonsquare d > 0."""
    if b == 0:
        return (a > 0) - (a < 0)
    if a == 0:
        return 1 if b > 0 else -1
    if a > 0 and b > 0:
        return 1
    if a < 0 and b < 0:
        return -1
    # opposite signs: compare a^2 with b^2 d, sign decided by the larger
    lhs, rhs = a * a, b * b * d
    if lhs == rhs:
        raise ValueError("sqrt(d) rational; d must be nonsquare")
    big_is_a = lhs > rhs
    return (1 if a > 0 else -1) if big_is_a else (1 if b > 0 else -1)


def exact_in(stored, lo, hi) -> bool:
    """lo <= x <= hi for a record's exact value x, stored as a triple (P, N,
    Q) of (P + sqrt(N)) / Q (N = 0 for the rational P / Q), a QuadraticSurd
    or a ratio (num, den), decided by surd_sign on x - r = (P b - a Q + b
    sqrt(N)) / (Q b) for r = a / b."""
    P, N, Q = stored if len(stored) == 3 else (stored[0], 0, stored[1])
    if not N:
        return lo <= Fraction(P, Q) <= hi

    def sign_above(r):
        r = Fraction(r)
        a, b = r.numerator, r.denominator
        return surd_sign(P * b - a * Q, b, N) * (1 if Q > 0 else -1)

    return sign_above(lo) >= 0 >= sign_above(hi)


def value_sign(x, y) -> int:
    """The sign of x - y for two stored values of one quadratic field, each
    a ratio (num, den) or a triple (P, N, Q) of (P + sqrt(N)) / Q.  With
    K = sqrt(N1 N2), an integer in one field, sqrt(N2) = K sqrt(N1) / N1, so
    N1 (x - y) Q1 Q2 = (P1 Q2 - P2 Q1) N1 + (Q2 N1 - Q1 K) sqrt(N1)."""
    (a, n1, c), (e, n2, g) = [v if len(v) == 3 else (v[0], 0, v[1]) for v in (x, y)]
    if not n1:
        if not n2:
            return surd_sign(a * g - e * c, 0, 1) * (1 if c * g > 0 else -1)
        return -value_sign(y, x)
    K = math.isqrt(n1 * n2)
    if K * K != n1 * n2:
        raise ValueError(f"sqrt({n1}) and sqrt({n2}) lie in different fields")
    return surd_sign((a * g - e * c) * n1, g * n1 - c * K, n1) * (1 if c * g > 0 else -1)


def surd_gap_metrics(exp, gs, provenance: str = "oracle-exact"):
    """The exact QUMetrics of the first gs.n points of a surd alpha, from
    the values of their gap forms u alpha0 + v = (u P + v Q + u sqrt(D)) / Q:
    the largest and smallest interior gap found by exact sign tests, fill
    the larger of half the largest and the gap touching 1, separation half
    the smallest and rho F / S through the conjugate of S.  A rho without
    a root part is stored as a ratio."""
    from kronmesh import QUMetrics
    from kronmesh.metrics import _role_indices

    P, D, Q = exp._alpha0_surd
    last, present = _role_indices(gs)
    forms = [(f.u * P + f.v * Q, f.u, Q) for f, _ in gs.entries]  # (a + b sqrt(D)) / c

    def stored(a, b, c):
        return (a, b * b * D, c) if b >= 0 else (-a, b * b * D, -c)

    def below(x, y):
        return value_sign(stored(*x), stored(*y)) < 0

    big = small = forms[present[0]]
    for i in present[1:]:
        big = forms[i] if below(big, forms[i]) else big
        small = forms[i] if below(forms[i], small) else small
    a, b, c = forms[last]
    F = (2 * a, 2 * b, c) if below(big, (2 * a, 2 * b, c)) else big
    (a, b, c), (x, y, z) = F, small
    num, root, den = z * (a * x - b * y * D), z * (b * x - a * y), c * (x * x - y * y * D)
    rho = stored(num, root, den) if root else ((num, den) if den > 0 else (-num, -den))
    return QUMetrics(gs.n, stored(a, b, 2 * c), stored(x, y, 2 * z), rho, provenance)


# -- continued fractions, the long way --------------------------------------

def cf_digits_euclid(p: int, q: int):
    """Canonical CF digits of p/q > 0 by the Euclidean algorithm."""
    digits = []
    while q:
        a, r = divmod(p, q)
        digits.append(a)
        p, q = q, r
    if len(digits) > 1 and digits[-1] == 1:
        digits.pop()
        digits[-1] += 1
    return digits


def convergents_from_digits(digits):
    """[(p_m, q_m)] for m = 0..len-1 from [a_0; a_1, ...]."""
    out = []
    p2, q2 = 1, 0   # p_{-1}, q_{-1}
    p1, q1 = digits[0], 1
    out.append((p1, q1))
    for a in digits[1:]:
        p1, p2 = a * p1 + p2, p1
        q1, q2 = a * q1 + q2, q1
        out.append((p1, q1))
    return out


def surd_period_walk(a: int, b: int, c: int, d: int, limit: int = 10 ** 4):
    """(digits, (start, length)) of x = (a + b*sqrt(d)) / c, nonsquare d,
    b and c nonzero: the digits a_0..a_j of x and the period read at the
    first j whose complete quotient x_j equals an earlier x_i.  Each x_j is
    kept as the unique triple with c > 0 and gcd(a, b, c) = 1, its floor
    found by exact sign tests; None for the period past limit digits."""
    seen, digits = {}, []
    for j in range(limit):
        if c < 0:
            a, b, c = -a, -b, -c
        g = math.gcd(a, b, c)
        a, b, c = a // g, b // g, c // g
        if (a, b, c) in seen:
            i = seen[(a, b, c)]
            return digits + [digits[i]], (i, j - i)
        seen[(a, b, c)] = j
        # floor(x) = t with a - t c + b sqrt(d) >= 0 > a - (t + 1) c + b sqrt(d)
        root = math.isqrt(b * b * d)
        t = (a + (root if b > 0 else -root)) // c
        while surd_sign(a - t * c, b, d) < 0:
            t -= 1
        while surd_sign(a - (t + 1) * c, b, d) >= 0:
            t += 1
        digits.append(t)
        # 1 / (x - t) = c (a' - b sqrt(d)) / (a'^2 - b^2 d), a' = a - t c
        a1 = a - t * c
        a, b, c = c * a1, -c * b, a1 * a1 - b * b * d
    return digits, None


def gauss_map_digits(P: int, D: int, Q: int, depth: int):
    """(digits a_0..a_depth, period) of (P + sqrt(D)) / Q, D not a square,
    in the normal form Q | D - P*P, by the Gauss map on (P, Q) run for every
    digit, never cycled: period is (i, j - i) for the first j whose state
    equals that at an earlier i, or None when none does by depth."""
    r, digits, seen, period = math.isqrt(D), [], {}, None
    for j in range(depth + 1):
        if period is None:
            i = seen.setdefault((P, Q), j)
            if i < j:
                period = (i, j - i)
        # floor(P + sqrt(D)) = P + r, and sqrt(D) is irrational
        a = (P + r) // Q if Q > 0 else -((P + r) // -Q) - 1
        digits.append(a)
        P = a * Q - P
        Q = (D - P * P) // Q
    return digits, period


def mp_value(spec: str, prec: int = 400) -> mpmath.mpf:
    """Big-float value of an alpha spec string (test-side parser)."""
    with mpmath.workprec(prec):
        if spec == "golden":
            return (mpmath.sqrt(5) - 1) / 2
        if spec.startswith("sqrt:"):
            return mpmath.sqrt(int(spec[5:]))
        if spec.startswith("quad:"):
            p, d, q = (int(t) for t in spec[5:].split(","))
            return (p + mpmath.sqrt(d)) / q
        if spec.startswith("rat:"):
            a, b = spec[4:].split("/")
            return mpmath.mpf(int(a)) / int(b)
        raise ValueError(spec)


def enclose(x, bits: int = 256):
    """An Interval holding a record's value x: a pair of ends (a bound) as
    that Interval, a rational as a point, and a QuadraticSurd (P + sqrt(D))
    / Q between consecutive multiples of 2**-bits, from an mpmath floor at
    a precision past the cancellation of P and sqrt(D)."""
    from kronmesh import QuadraticSurd

    if isinstance(x, tuple) and len(x) == 2:
        return Interval(*x)
    if not isinstance(x, QuadraticSurd):
        return Interval(x, x)
    P, D, Q = x
    with mpmath.workprec(2 * bits + 2 * D.bit_length() + abs(P).bit_length() + 64):
        lo = int(mpmath.floor((P + mpmath.sqrt(D)) / Q * 2 ** bits))
    return Interval(Fraction(lo, 1 << bits), Fraction(lo + 1, 1 << bits))


def mp_cf_digits(x: mpmath.mpf, depth: int, prec: int = 400):
    """CF digits of a big-float by the naive floor loop."""
    digits = []
    with mpmath.workprec(prec):
        y = mpmath.mpf(x)
        for _ in range(depth + 1):
            a = int(mpmath.floor(y))
            digits.append(a)
            frac = y - a
            if frac == 0:
                break
            y = 1 / frac
    return digits


def tail_interval_from_digits(digits, m: int):
    """Exact Fraction enclosure of [0; a_{m+1}, a_{m+2}, ...] using every
    digit the list provides, seeding the unknown remainder with [0, 1]."""
    lo, hi = Fraction(0), Fraction(1)
    for j in range(len(digits) - 1, m, -1):
        a = digits[j]
        lo, hi = 1 / (a + hi), 1 / (a + lo)
    return lo, hi


def eta_recurrence(exp, m: int):
    """eta_m by the defining recurrence eta_{j+1} = eta_{j-1} - a_{j+1} eta_j
    from eta_{-1} = 1 and eta_0 = alpha0, in O(m) integer steps over
    exp.digits; returned as a kronmesh LinearForm (u, v) = u*alpha0 + v."""
    from kronmesh.threegap import LinearForm

    prev, cur = (0, 1), (1, 0)
    if m == -1:
        return LinearForm(*prev)
    exp.ensure(m)
    for a in exp.digits[1:m + 1]:
        prev, cur = cur, (prev[0] - a * cur[0], prev[1] - a * cur[1])
    return LinearForm(*cur)


def eta_product_interval(digits, m: int):
    """Exact enclosure of prod_{j=0}^m alpha_j from a digit prefix.

    digits is the full [a_0; a_1, ...] prefix; alpha_0 uses the fractional
    expansion [0; a_1, ...].
    """
    lo, hi = Fraction(1), Fraction(1)
    for j in range(m + 1):
        tlo, thi = tail_interval_from_digits(digits, j)
        lo, hi = lo * tlo, hi * thi
    return lo, hi


# -- the package's records, to and from Fractions ----------------------------
# QUMetrics and BoundReport store unreduced integer ratios, and exact surd
# values as triples (P, N, Q) standing for (P + sqrt(N)) / Q.  The oracles
# build them from Fractions and QuadraticSurds, and tests compare records by
# their values in a canonical form, so that equal values built from
# different integers compare equal.

def ratio(x):
    """A rational as the (num, den) pair the records store; a QuadraticSurd
    as its triple."""
    from kronmesh import QuadraticSurd

    if isinstance(x, QuadraticSurd):
        return tuple(x)
    if type(x) is not Fraction:
        x = Fraction(x)
    return x.numerator, x.denominator


def interval_ends(iv):
    """An Interval or a pair of ends as the ends (x1, y1, x2, y2) the
    records store; an exact QuadraticSurd as its triple."""
    from kronmesh import QuadraticSurd

    if isinstance(iv, QuadraticSurd):
        return tuple(iv)
    lo, hi = iv
    return (*ratio(lo), *ratio(hi))


def qumetrics(n, fill, sep, rho, provenance, err=0):
    """QUMetrics from Fractions; rho math.inf marks duplicate points."""
    from kronmesh import QUMetrics

    return QUMetrics(n, ratio(fill), ratio(sep), None if rho == math.inf else ratio(rho),
                     provenance, ratio(err))


def bound_report(n, m, h, k, upper, lower, digit_form, global_upper):
    """BoundReport from an Interval upper bound, an Interval or None lower
    bound at n_m and a Fraction or None digit form."""
    from kronmesh import BoundReport

    return BoundReport(n, m, h, k, interval_ends(upper),
                       None if lower is None else interval_ends(lower),
                       None if digit_form is None else ratio(digit_form), global_upper)


def _lowest(num, den, *rest):
    """A stored value in a canonical form: a ratio in lowest terms, and a
    triple (P, N, Q) as (P / Q, N / Q^2, Q > 0), which a value r + s sqrt(t)
    with rational r and t and s = +-1 determines."""
    if rest:
        return Fraction(num, rest[0]), Fraction(den, rest[0] ** 2), rest[0] > 0
    g = math.gcd(num, den)
    return num // g, den // g


def record_values(x):
    """A record, a Row or Segment, or a list of them, with every
    stored value canonical (_lowest): records of equal values compare equal."""
    from kronmesh import BoundReport, QUMetrics

    def one(r):
        if isinstance(r, QUMetrics):
            return (r.n, _lowest(*r.fill_nd), _lowest(*r.separation_nd),
                    r.rho_nd and _lowest(*r.rho_nd), r.provenance, _lowest(*r.error_nd))
        if isinstance(r, BoundReport):
            ends = [e and (_lowest(*e) if len(e) == 3 else (_lowest(*e[:2]), _lowest(*e[2:])))
                    for e in (r.upper_ends, r.lower_ends)]
            return (r.n, r.m, r.h, r.k, *ends, r.digit_form_nd and _lowest(*r.digit_form_nd),
                    r.global_upper)
        if isinstance(r, tuple):  # Row, Segment, an (outcome, error) pair
            return tuple(map(one, r))
        return r

    return list(map(one, x)) if isinstance(x, list) else one(x)


# -- the window loops and Interval arithmetic the structure path replaced ----

def tail_brackets(digits):
    """The enclosure of [0; d_1, ..., d_W + x] over x in [0, 1] for each
    leading window (d_1, ..., d_W), W = 1, 2, ..., of an iterable of digits,
    by the forward convergent loop: the value (p + x p') / (q + x q') runs
    from the convergent p/q to the mediant (p + p') / (q + q'), the ends the
    backward recurrence x -> 1/(d_j + x) gives from the seeds 0 and 1."""
    p_prev, p, q_prev, q = 1, 0, 0, 1
    for a in digits:
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev
        end, mediant = Fraction(p, q), Fraction(p + p_prev, q + q_prev)
        yield Interval(end, mediant) if end < mediant else Interval(mediant, end)


def tail_bracket(window):
    """The enclosure of tail_brackets for the whole (nonempty) window."""
    *_, last = tail_brackets(window)
    return last


def alpha0_scaled_window(exp, bits: int):
    """exp.alpha0_scaled(bits) without the memo, a digit prefix bracketed
    by tail_bracket over a_1..a_M."""
    if exp.finite or exp._alpha0_surd is not None or exp.depth < 1:
        return exp._alpha0_scaled(bits)
    exp.ensure(len(exp.spec.preperiod) - 1)
    iv = tail_bracket(exp.digits[1:exp.depth + 1])
    A = (iv.lo.numerator << bits) // iv.lo.denominator
    U = -((-(iv.hi.numerator << bits)) // iv.hi.denominator) - A
    return (A, max(U, 1))


def alpha_tail_best_window(exp, m: int, ctx):
    """contfrac._tail_ends by brute force: the bracket of the shortest digit
    window a_{m+1}..a_{m+w}, w = 1, 2, ..., whose width is at most
    2**-(bits - GUARD), or of every known digit when a prefix runs out
    first; the exact value when the window reaches the last digit of a
    terminating expansion; the same error when no digit follows a_m.
    Memoized per (alpha, m, bits), on which alone the bracket depends."""
    return _best_window(exp.spec, m, ctx.bits)


@functools.lru_cache(maxsize=4096)
def _best_window(spec, m: int, bits: int):
    from kronmesh import CFExpansion
    from kronmesh.contfrac import GUARD
    from kronmesh.errors import OutOfRangeError, PrecisionUnresolvedError

    exp = CFExpansion(spec)
    if m < 0:
        raise OutOfRangeError("alpha_m defined for m >= 0")
    target = Fraction(1, 1 << (bits - GUARD))
    iv = None
    digits = (exp.digits[j] for j in takewhile(exp.ensure, count(m + 1)))
    for w, iv in enumerate(tail_brackets(digits)):
        if exp.finite and not exp.ensure(m + w + 2):
            x = Fraction(0)  # [0; a_{m+1}, ..., a_M], evaluated backwards
            for a in reversed(exp.digits[m + 1:]):
                x = 1 / (a + x)
            return Interval(x, x)
        if iv.width <= target:
            return iv
    if iv is None:
        raise PrecisionUnresolvedError(
            f"alpha_{m} needs digits beyond a_{exp.depth}; the known prefix is too short"
        )
    return iv


def decompose_stepwise(exp, n: int):
    """threegap.decompose by one ensure per digit until n_{m+1} > n, as the
    package once extended: the same (m, h, k), or the same error."""
    import bisect
    from kronmesh.errors import KronmeshError, PrecisionUnresolvedError
    from kronmesh.errors import UnsupportedAlphaError
    from kronmesh.threegap import Decomposition

    if n < 1:
        raise ValueError("n must be >= 1")
    cv = exp.convergents
    while cv[-1][1] <= n and cv[-1][1] + (cv[-2][1] if len(cv) > 1 else 0) <= n:
        if not exp.ensure(len(cv)):
            if exp.finite:
                raise UnsupportedAlphaError(
                    f"n = {n} reaches the periodic regime of a rational alpha "
                    f"(expansion ends at n_{exp.depth} = {exp.n_at(exp.depth)})"
                )
            raise PrecisionUnresolvedError(
                f"digit prefix through a_{exp.depth} only brackets n < {exp.n_at(exp.depth)}; "
                f"cannot decompose n = {n}"
            )
    m = bisect.bisect_right(cv, n, key=operator.itemgetter(1)) - 1
    s, prev = cv[m][1], cv[m - 1][1] if m else 0
    if s + prev > n:
        m, s, prev = m - 1, prev, cv[m - 2][1] if m > 1 else 0
    h, k = divmod(n - s - prev, s)
    if not 0 <= h < exp.digit(m + 1):
        raise KronmeshError(
            f"decomposition out of range at n={n}: (m, h, k) = ({m}, {h}, {k}) "
            f"with a_{m + 1} = {exp.digit(m + 1)}"
        )
    return Decomposition(m, h, k)


def check_nm_stepwise(exp, m_hi: int) -> None:
    """cli._check_nm by one ensure per digit from n_{min(depth, m_hi)}
    until n_m passes the cap, m_hi is reached or the expansion ends."""
    from kronmesh import cli

    m = min(exp.depth, m_hi)
    while exp.n_at(m).bit_length() <= cli.MAX_NM_BITS:
        if m == m_hi or not exp.ensure(m + 1):
            return
        m += 1
    raise cli._UsageError(f"--m reaches n_{m} of {exp.n_at(m).bit_length()} bits, "
                          f"above the n_m cap of {cli.MAX_NM_BITS} bits")


def iv_scale(iv, c):
    """c * [lo, hi] for a rational c."""
    return Interval(iv.lo * c, iv.hi * c) if c >= 0 else Interval(iv.hi * c, iv.lo * c)


def iv_shift(iv, c):
    """[lo, hi] + c for a rational c."""
    return Interval(iv.lo + c, iv.hi + c)


def iv_min(a, b):
    """The enclosure of min(x, y) for x in a and y in b."""
    return Interval(min(a.lo, b.lo), min(a.hi, b.hi))


def iv_reciprocal(iv):
    """1 / [lo, hi] for an interval bounded away from zero."""
    if iv.lo <= 0 <= iv.hi:
        raise ZeroDivisionError(f"reciprocal of interval containing 0: [{iv.lo}, {iv.hi}]")
    return Interval(1 / iv.hi, 1 / iv.lo)


def iv_divide(a, b):
    """a / b for b bounded away from zero: the extremes of the four end
    products with 1 / b."""
    r = iv_reciprocal(b)
    cands = (a.lo * r.lo, a.lo * r.hi, a.hi * r.lo, a.hi * r.hi)
    return Interval(min(cands), max(cands))


def form_enclosure_interval(exp, form, bits: int):
    """The form u*alpha0 + v by Interval arithmetic: the enclosure of alpha0
    at 2**-bits, scaled by u and shifted by v."""
    A, U = alpha0_scaled_window(exp, bits)
    unit = Fraction(1, 1 << bits)
    return iv_shift(iv_scale(Interval(A * unit, (A + U) * unit), form.u), form.v)


def form_interval_interval(exp, form, ctx, require_positive: bool = False):
    """form_interval on form_enclosure_interval, the same ladder site."""
    if not require_positive or (form.u, form.v) == (0, 0):
        return form_enclosure_interval(exp, form, ctx.bits)

    def attempt(bits):
        iv = form_enclosure_interval(exp, form, bits)
        return (iv, None) if iv.lo > 0 or iv.hi < 0 else (None, nd(iv.width))

    return ctx.escalate(attempt, ctx.bits, f"sign of {form.u}*alpha+{form.v}")


def form_rung_interval(exp, form, ctx, require_positive: bool = False):
    """The package's enclosure of a form as an Interval: its rung from
    threegap._form_rung when require_positive, else form.units at ctx.bits."""
    from kronmesh.threegap import _form_rung

    if require_positive:
        *ends, bits = _form_rung(exp, form, ctx)
    else:
        ends, bits = form.units(exp, ctx.bits), ctx.bits
    return Interval(*(Fraction(x, 1 << bits) for x in ends))


def fraction_text(x, digits: int, mode: str = "nearest") -> str:
    """A rational as the package prints a ratio: decimal_renderer on its
    numerator and denominator."""
    from kronmesh.intervals import decimal_renderer

    x = Fraction(x)
    return decimal_renderer(digits)(x.numerator, x.denominator, mode)


def gap_structure_json_interval(gs, exp, ctx, digits: int = 40) -> dict:
    """gap_structure_json from form_interval_interval, each enclosure
    rendered outward by fraction_text."""
    entries = []
    for form, count in gs.entries:
        iv = form_interval_interval(exp, form, ctx, True)
        lo, hi = fraction_text(iv.lo, digits, "floor"), fraction_text(iv.hi, digits, "ceil")
        entries.append({"u": form.u, "v": form.v, "multiplicity": count, "interval": [lo, hi]})
    d = gs.decomposition
    return {"n": gs.n, "m": d.m, "h": d.h, "k": d.k, "entries": entries}


def mesh_ratio_structural_interval(exp, n: int, ctx):
    """mesh_ratio_structural by Interval arithmetic: the gap forms ordered on
    their enclosures, then fill = max(largest interior, twice the gap
    touching 1) / 2, separation = smallest interior / 2 and rho = fill /
    separation as intervals, each reported by its midpoint, with half the
    largest width as the error."""
    from kronmesh.metrics import _gap_roles
    from kronmesh.threegap import gap_structure

    if n < 2:
        raise ValueError("mesh ratio needs n >= 2")
    last_form, present = _gap_roles(gap_structure(exp, n))

    def order(bits):
        ivs = {form: form_enclosure_interval(exp, form, bits) for form in present}
        ordered = sorted(ivs, key=lambda form: ivs[form].lo)
        if all(ivs[a].hi < ivs[b].lo for a, b in zip(ordered, ordered[1:])):
            return ordered, None
        return None, nd(max(iv.width for iv in ivs.values()))

    ordered = ctx.escalate(order, ctx.bits, "gap-length ordering")
    big = form_interval_interval(exp, ordered[-1], ctx, True)
    last = form_interval_interval(exp, last_form.scale(2), ctx, True)
    fill_iv = iv_scale(Interval(max(big.lo, last.lo), max(big.hi, last.hi)), Fraction(1, 2))
    sep_iv = iv_scale(form_interval_interval(exp, ordered[0], ctx, True), Fraction(1, 2))
    rho_iv = iv_divide(fill_iv, sep_iv)
    err = max(fill_iv.width, sep_iv.width, rho_iv.width) / 2
    return qumetrics(n, fill_iv.mid, sep_iv.mid, rho_iv.mid, "structure-exact", err)


def kronecker_bounds_interval(exp, n: int, ctx=None):
    """kronecker_bounds by Interval arithmetic on the alpha_m bracket: the
    denominator min(alpha_m, 1 - (h+1) alpha_m), the numerator
    2 (1 - h alpha_m), their quotient, and 1 / alpha_m at n_m."""
    from kronmesh.contfrac import DEFAULT_CONTEXT, digit_supremum
    from kronmesh.errors import UnsupportedAlphaError
    from kronmesh.metrics import _as_expansion
    from kronmesh.threegap import decompose

    ctx = DEFAULT_CONTEXT if ctx is None else ctx
    exp = _as_expansion(exp)
    if exp.finite:
        raise UnsupportedAlphaError("mesh-ratio bounds need irrational alpha")
    d = decompose(exp, n)

    def attempt(bits):
        # a digit prefix too short for the width target still yields the
        # bracket of every known digit
        am = alpha_tail_best_window(exp, d.m, ctx._replace(bits=bits))
        den = iv_min(am, iv_shift(iv_scale(am, -(d.h + 1)), 1))
        return ((am, den), None) if den.lo > 0 else (None, nd(am.width))

    am, den = ctx.escalate(attempt, ctx.bits, f"bound denominator sign (n={n})")
    num = iv_scale(iv_shift(iv_scale(am, -d.h), 1), 2)
    upper = iv_divide(num, den)

    lower = None
    digit_form = None
    if d.m >= 3 and d.h == 0 and d.k == 0:
        lower = iv_reciprocal(am)
        # a prefix may end before a_{m+2}; lower_at_nm does not need it
        if exp.ensure(d.m + 2):
            digit_form = Fraction(exp.digit(d.m + 1)) + Fraction(1, exp.digit(d.m + 2) + 1)

    sup, certainty = digit_supremum(exp)
    global_upper = 2 + 2 * sup if certainty == "exact" else None
    return bound_report(n, d.m, d.h, d.k, upper, lower, digit_form, global_upper)


# -- brute-force prefix machinery -------------------------------------------

def circle_gap_multiset(sorted_scaled: list, modulus: int) -> Counter:
    """Multiset of the n circle-arc lengths cut by n sorted scaled points."""
    gaps = Counter()
    for a, b in zip(sorted_scaled, sorted_scaled[1:]):
        gaps[b - a] += 1
    gaps[modulus - sorted_scaled[-1] + sorted_scaled[0]] += 1
    return gaps


def brute_metrics(points):
    """(fill, separation, rho) of exact points in [0, 1]; rho is math.inf
    on duplicates, separation is None for n = 1."""
    pts = sorted(points)
    diffs = [b - a for a, b in zip(pts, pts[1:])]
    fill = max(pts[0], 1 - pts[-1])
    if diffs:
        fill = max(fill, max(diffs) / 2)
    if not diffs:
        return fill, None, None
    sep = min(diffs) / 2
    rho = math.inf if sep == 0 else fill / sep
    return fill, sep, rho


def pairwise_separation(points):
    """Half the min pairwise distance, O(n^2), no sorting tricks."""
    best = None
    pts = list(points)
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            d = abs(pts[i] - pts[j])
            if best is None or d < best:
                best = d
    return best / 2 if best is not None else None


def grid_fill(points, log2_grid: int = 16) -> float:
    """Max over a 2^-log2_grid grid of the distance to the nearest point;
    a lower bound for the true fill distance within half a grid step."""
    import numpy as np

    pts = np.sort(np.array([float(x) for x in points]))
    step = 2.0 ** -log2_grid
    grid = np.arange(0.0, 1.0 + step / 2, step)
    idx = np.searchsorted(pts, grid)
    left = np.where(idx > 0, grid - pts[np.maximum(idx - 1, 0)], np.inf)
    right = np.where(idx < len(pts), pts[np.minimum(idx, len(pts) - 1)] - grid, np.inf)
    return float(np.max(np.minimum(left, right)))


def radical_inverse_reference(i: int, base: int) -> Fraction:
    """van der Corput value by explicit digit reversal."""
    if i == 0:
        return Fraction(0)
    digs = []
    v = i
    while v:
        v, d = divmod(v, base)
        digs.append(d)
    num = 0
    for d in digs:          # digs is little-endian, i.e. already reversed
        num = num * base + d
    return Fraction(num, base ** len(digs))


def vdc_digit_reversal(base: int, n: int):
    """(xs, M): van der Corput points 0..n-1 on the lattice M = base**k, k
    the digit count of n - 1, one reversal step per point: the digits of
    i = q*base + d put d at the top place and shift q's down."""
    M = 1
    while M < n:
        M *= base
    top = M // base
    xs = [0] * n
    for i in range(1, n):
        q, d = divmod(i, base)
        xs[i] = d * top + xs[q] // base
    return xs, M


def greedy_reference(n: int, tie_break: str = "leftmost"):
    """Farthest-point packing reference: rescans every candidate each step."""
    pts = [Fraction(1, 2)]
    for _ in range(1, n):
        srt = sorted(pts)
        best = None
        cands = [(srt[0], Fraction(0)), (1 - srt[-1], Fraction(1))]
        for a, b in zip(srt, srt[1:]):
            cands.append(((b - a) / 2, (a + b) / 2))
        for dist, pos in cands:
            if best is None or dist > best[0]:
                best = (dist, pos)
            elif dist == best[0]:
                if tie_break == "leftmost" and pos < best[1]:
                    best = (dist, pos)
                if tie_break == "rightmost" and pos > best[1]:
                    best = (dist, pos)
        pts.append(best[1])
    return pts


def greedy_lattice_reference(n: int, tie_break: str = "leftmost"):
    """greedy_reference on the integers of the lattice M = 2**bit_length(n):
    the same rescan of every candidate per step, quadratic but fast enough
    for n in the thousands.  Returns (xs, M)."""
    M = 1 << n.bit_length()
    xs = [M // 2]
    placed = [M // 2]  # kept sorted
    # candidates are (2 * distance, sign * 2 * position): max() then breaks
    # ties at the leftmost (sign -1) or rightmost (sign +1) position
    sign = -1 if tie_break == "leftmost" else 1
    for _ in range(1, n):
        cands = [(2 * placed[0], 0), (2 * (M - placed[-1]), sign * 2 * M)]
        cands += [(b - a, sign * (a + b)) for a, b in zip(placed, placed[1:])]
        pos2 = sign * max(cands)[1]
        if pos2 % 2:
            raise ValueError(f"greedy point {len(xs)} falls off the lattice 1/{M}")
        xs.append(pos2 // 2)
        bisect.insort(placed, pos2 // 2)
    return xs, M


# -- scaled-integer Kronecker metrics for large n ----------------------------

def kronecker_scaled_loop(exp, n: int, scale_bits: int):
    """(X, M, U) as sequences.kronecker_scaled once built them: X[i] = i*A mod
    M by adding A and wrapping, checking each point for a straddle
    X[i] + i*U >= M as it is made, so the error names the first such i."""
    from kronmesh.errors import PrecisionUnresolvedError

    A, U = exp.alpha0_scaled(scale_bits)
    M = 1 << scale_bits
    xs = [0] * n
    x = 0
    for i in range(1, n):
        x += A
        if x >= M:
            x -= M
        if x + i * U >= M:
            raise PrecisionUnresolvedError(
                f"point {i} straddles an integer at scale 2**{scale_bits}"
            )
        xs[i] = x
    return xs, M, U


def scaled_prefix_metrics(xs: list, modulus: int, unit_error: int):
    """(fill, separation, rho) as exact Fractions from scaled points.

    xs are the first n values of i*A mod modulus with per-point error
    <= i*unit_error; raises if the minimum gap cannot be certified against
    the accumulated drift.
    """
    n = len(xs)
    srt = sorted(xs)
    ming = None
    maxg = None
    prev = srt[0]
    for x in srt[1:]:
        g = x - prev
        if ming is None or g < ming:
            ming = g
        if maxg is None or g > maxg:
            maxg = g
        prev = x
    drift = (n - 1) * unit_error
    if ming is not None and ming <= 2 * drift:
        raise ArithmeticError(f"uncertified: min gap {ming} <= drift {2 * drift}")
    left, right = srt[0], modulus - srt[-1]
    fill_num = max(2 * left, 2 * right, maxg if maxg is not None else 0)
    fill = Fraction(fill_num, 2 * modulus)
    if ming is None:
        return fill, None, None
    sep = Fraction(ming, 2 * modulus)
    return fill, sep, Fraction(fill_num, ming)


def kronecker_point_lattice(exp, n: int, ctx, start_bits=None):
    """(xs, M, U) for the first n Kronecker points the way the package once
    certified them: build the points at the working scale (doubling it while
    some point straddles an integer), sort them, and regenerate at doubled
    scales while the smallest gap is not above twice the drift (n - 1)*U.
    Both loops climb ctx's ladder; the result certifies every prefix."""
    from kronmesh.errors import PrecisionUnresolvedError
    from kronmesh.sequences import kronecker_scaled, working_scale_bits

    def points(bits):
        def attempt(b):
            try:
                return kronecker_scaled(exp, n, b), None
            except PrecisionUnresolvedError:
                return None, (exp.alpha0_scaled(b)[1], 1 << b)

        return ctx.escalate(attempt, bits, f"integer straddles of the first {n} points")

    first = points(working_scale_bits(ctx, n) if start_bits is None else start_bits)
    first_bits = first[1].bit_length() - 1

    def attempt(bits):
        xs, M, U = first if bits == first_bits else points(bits)
        try:
            scaled_prefix_metrics(xs, M, U)
        except ArithmeticError:
            return None, ((n - 1) * U, M)
        return (xs, M, U), None

    return ctx.escalate(attempt, first_bits, f"point order at n={n}")


def kronecker_point_metrics(exp, n: int, ctx, start_bits=None):
    """QUMetrics of the first n >= 2 Kronecker points from their sorted
    lattice values (kronecker_point_lattice), error bound (n - 1)*U / M."""
    xs, M, U = kronecker_point_lattice(exp, n, ctx, start_bits)
    fill, sep, rho = scaled_prefix_metrics(xs, M, U)
    return qumetrics(n, fill, sep, rho, "oracle-exact", Fraction((n - 1) * U, M))


# -- the incremental sorted-point kernel ---------------------------------------

class LatticeMesh:
    """Sorted lattice points in [0, modulus] and the multiset of their
    interior gaps.  It is built in bulk from a prefix (one sort, one count,
    a heapify over the distinct gaps) and then grown a point at a time; lazy
    min/max heaps answer the extreme gaps.
    """

    def __init__(self, xs, modulus: int):
        self.modulus = modulus
        self.pts = sorted(xs)
        self.gapcount = Counter(map(operator.sub, self.pts[1:], self.pts))
        self._maxheap = [-g for g in self.gapcount]
        self._minheap = list(self.gapcount)
        heapq.heapify(self._maxheap)
        heapq.heapify(self._minheap)

    def insert(self, x: int) -> None:
        pts = self.pts
        i = bisect.bisect_left(pts, x)
        if 0 < i < len(pts):
            self._count(pts[i] - pts[i - 1], -1)
        if i > 0:
            self._count(x - pts[i - 1], 1)
        if i < len(pts):
            self._count(pts[i] - x, 1)
        pts.insert(i, x)

    def _count(self, g: int, step: int) -> None:
        c = self.gapcount.pop(g, 0) + step
        if c:
            self.gapcount[g] = c
        if c == step == 1:  # a new distinct gap
            heapq.heappush(self._maxheap, -g)
            heapq.heappush(self._minheap, g)

    def max_gap(self) -> int:
        """Largest interior gap, 0 for a single point."""
        h = self._maxheap
        while h and not self.gapcount.get(-h[0]):
            heapq.heappop(h)
        return -h[0] if h else 0

    def min_gap(self):
        """Smallest interior gap, None for a single point."""
        h = self._minheap
        while h and not self.gapcount.get(h[0]):
            heapq.heappop(h)
        return h[0] if h else None

    def units(self):
        """Twice the fill and the smallest interior gap in units of
        1 / modulus: boundary distances enter unhalved, interior gaps
        halved."""
        fill = max(2 * self.pts[0], 2 * (self.modulus - self.pts[-1]), self.max_gap())
        return fill, self.min_gap()


def exact_sweep_metrics(gen, n_lo: int, n_hi: int):
    """QUMetrics for every n in [n_lo, n_hi] of an exact generator (van der
    Corput, greedy or a rational Kronecker alpha), by sorting its points:
    the first n_lo - 1 enter the mesh in bulk, then one insert per row."""
    from kronmesh import generate

    ps = generate(gen, n_hi)
    scale = 2 * ps.modulus
    mesh = LatticeMesh(ps.xs[:n_lo - 1], ps.modulus)
    rows, values = [], {}
    for x in ps.xs[n_lo - 1:]:
        mesh.insert(x)
        fill, ming = key = mesh.units()
        if key not in values:
            rho = math.inf if ming == 0 else Fraction(fill, ming)
            values[key] = qumetrics(0, Fraction(fill, scale), Fraction(ming, scale), rho,
                                    "oracle-exact")
        rows.append(values[key]._replace(n=len(mesh.pts)))
    return rows


# -- the per-row sweep -----------------------------------------------------------
# The package once built one row per n (memoizing the forms per key) and
# formatted every cell of every row; a JSON sweep went through json.dumps.
# It now evaluates and formats each run of n once.  These are the old rows,
# writers and sweep command.

class Row(NamedTuple):
    """One n of a sweep: its metrics and its bound report (or None)."""
    metrics: object
    bounds: object


def segment_rows(gen, n_lo: int, n_hi: int, ctx=None, with_bounds: bool = True):
    """sweep_segments as one Row per n, with its own n, bounds k and error:
    a lattice's drift (n - 1) * U / M, or 0 where the segment is exact."""
    from kronmesh import QUMetrics, sweep_segments
    from kronmesh.contfrac import DEFAULT_CONTEXT

    rows = []
    for lo, hi, qm, br in sweep_segments(gen, n_lo, n_hi, ctx or DEFAULT_CONTEXT, with_bounds):
        num, den = qm.error_nd
        den *= lo - 1  # the drift is linear in n - 1
        rows += [Row(QUMetrics(n, qm.fill_nd, qm.separation_nd, qm.rho_nd, qm.provenance,
                               (num * (n - 1), den)),
                     None if br is None else br._replace(n=n, k=br.k + n - lo))
                 for n in range(lo, hi + 1)]
    return rows


def sweep_rows(gen, n_lo: int, n_hi: int, ctx=None, with_bounds: bool = True):
    """The Row of every n in [n_lo, n_hi], one n at a time."""
    from functools import partial
    from kronmesh import GreedyGen, KroneckerGen, VdcGen
    from kronmesh.contfrac import DEFAULT_CONTEXT
    from kronmesh.metrics import (_as_expansion, _greedy_run, _kronecker_lattice,
                                  _kronecker_metrics, _vdc_run)
    from kronmesh.sequences import working_scale_bits

    ctx = ctx or DEFAULT_CONTEXT
    if n_lo < 2:
        raise ValueError("sweep needs n_lo >= 2 (mesh ratio undefined at n = 1)")
    if n_hi < n_lo:
        raise ValueError("empty sweep range")
    if isinstance(gen, VdcGen):
        return run_rows(partial(_vdc_run, gen.base), n_lo, n_hi)
    if isinstance(gen, GreedyGen):
        return run_rows(_greedy_run, n_lo, n_hi)
    if not isinstance(gen, KroneckerGen):
        raise ValueError(f"unknown generator spec {gen!r}")
    exp = _as_expansion(gen.alpha)
    if exp._alpha0_surd is not None:
        return form_rows(exp, n_lo, n_hi, partial(surd_gap_metrics, exp), ctx, with_bounds)
    if not exp.finite:
        lattice = _kronecker_lattice(exp, n_hi, ctx, working_scale_bits(ctx, n_hi))
        return form_rows(exp, n_lo, n_hi, partial(_kronecker_metrics, lattice), ctx, with_bounds)
    q = exp.spec.den
    lattice = (exp.spec.num % q, 0, q)
    rows = form_rows(exp, n_lo, min(n_hi, q), partial(_kronecker_metrics, lattice), ctx, False)
    repeat = qumetrics(q + 1, Fraction(1, q), Fraction(0), math.inf, "oracle-exact")
    return rows + run_rows(lambda n: (n_hi, repeat), max(n_lo, q + 1), n_hi)


def form_rows(exp, n_lo: int, n_hi: int, evaluate, ctx, with_bounds: bool):
    """Rows of a Kronecker sweep, the metrics evaluate(gap structure) of
    each n and the bounds once per (m, h, k == 0)."""
    from kronmesh import decompose, kronecker_bounds
    from kronmesh.threegap import _gap_structure

    rows, bounds_memo = [], {}
    for n in range(n_lo, n_hi + 1):
        d = decompose(exp, n)
        qm = evaluate(_gap_structure(exp, n, d))
        br = None
        if with_bounds:
            key = (d.m, d.h, d.k == 0)
            if key not in bounds_memo:
                bounds_memo[key] = kronecker_bounds(exp, n, ctx)
            b = bounds_memo[key]
            br = bound_report(n, b.m, b.h, d.k, b.upper, b.lower_at_nm,
                              b.lower_digit_form, b.global_upper)
        rows.append(Row(qm, br))
    return rows


def run_rows(run, n_lo: int, n_hi: int):
    """Rows of an exact generator: run(n) gives the last n' >= n whose
    prefix shares the metrics of the first n points, and those metrics."""
    rows, n = [], n_lo
    while n <= n_hi:
        last, qm = run(n)
        rows += [Row(qumetrics(i, qm.fill, qm.separation, qm.mesh_ratio,
                                    qm.provenance), None)
                 for i in range(n, min(last, n_hi) + 1)]
        n = last + 1
    return rows


def _row_cells(row, digits: int):
    """(fill, separation, rho, bounds or None) of a row as printed, each
    value rounded from scratch: nearest, and intervals outward; an exact
    surd value (a stored triple) by the package's surd renderer, a ratio
    (a surd's exact rho 1 or 2 too) by decimal division."""
    from kronmesh import QuadraticSurd
    from kronmesh.intervals import surd_digits, surd_text

    def text(stored, mode="nearest"):
        if len(stored) == 3:
            return surd_text(*surd_digits(*stored, digits), digits, mode)
        return fraction_text(Fraction(*stored), digits, mode)

    def iv(x):
        if isinstance(x, QuadraticSurd):
            return [text(x, "floor"), text(x, "ceil")]
        lo, hi = x
        return [fraction_text(lo, digits, "floor"), fraction_text(hi, digits, "ceil")]

    qm, br = row.metrics, row.bounds
    cells = [text(qm.fill_nd), text(qm.separation_nd)]
    cells.append("inf" if qm.is_infinite else text(qm.rho_nd))
    if br is None:
        return cells, None
    return cells, {
        "n": br.n, "m": br.m, "h": br.h, "k": br.k, "upper": iv(br.upper),
        "lower_at_nm": None if br.lower_at_nm is None else iv(br.lower_at_nm),
        "lower_digit_form": None if br.lower_digit_form is None
        else fraction_text(br.lower_digit_form, digits),
        "global_upper": br.global_upper,
    }


def sweep_rows_csv(rows, digits: int) -> str:
    """The old CSV writer: every cell of every row."""
    lines = ["n,h_n,q_n,rho_n,upper_bound_lo,upper_bound_hi,"
             "lower_bound_lo,lower_bound_hi,global_upper"]
    for row in rows:
        cells, b = _row_cells(row, digits)
        if b is None:
            cells += ["", "", "", "", ""]
        else:
            cells += b["upper"] + (b["lower_at_nm"] or ["", ""])
            cells.append("" if b["global_upper"] is None else str(b["global_upper"]))
        lines.append(",".join([str(row.metrics.n)] + cells))
    return "\n".join(lines) + "\n"


def sweep_rows_json(rows, digits: int) -> dict:
    """The old JSON payload: one dict per row."""
    out = []
    for row in rows:
        (fill, sep, rho), b = _row_cells(row, digits)
        out.append({"n": row.metrics.n, "fill": fill, "separation": sep,
                    "mesh_ratio": rho, "provenance": row.metrics.provenance})
        if b is not None:
            out[-1]["bounds"] = b
    return {"rows": out}


def sweep_command_rows(args):
    """The old `kronmesh sweep`: rows one n (or one m) at a time, written by
    sweep_rows_csv or by json.dumps(sweep_rows_json(...), indent=2)."""
    import json
    from kronmesh import (CFExpansion, KroneckerGen, UnsupportedAlphaError,
                          kronecker_bounds, mesh_ratio_structural)
    from kronmesh import cli

    ctx = cli._context(args)
    gen = cli._generator(args)
    if args.n_at is not None:
        if args.m is None:
            raise cli._UsageError("--n-at nm needs --m a..b")
        if not isinstance(gen, KroneckerGen):
            raise cli._UsageError("--n-at nm applies to Kronecker sequences only")
        exp = CFExpansion(gen.alpha)
        if exp.finite:
            raise UnsupportedAlphaError("n_m sweep needs irrational alpha")
        m_lo, m_hi = cli._parse_range(args.m, "--m")
        if m_lo < 1:
            raise cli._UsageError("--m range must start at m >= 1")
        cli._check_rows(m_lo, m_hi, "--m")
        cli._check_nm(exp, m_hi)
        rows = []
        for m in range(m_lo, m_hi + 1):
            if not exp.ensure(m):
                raise cli._UsageError(
                    f"--m reaches m={m} but the expansion ends at a_{exp.depth}")
            n = exp.n_at(m)
            rows.append(Row(mesh_ratio_structural(exp, n, ctx),
                            None if args.no_bounds else kronecker_bounds(exp, n, ctx)))
    else:
        spec = args.n if args.n is not None else args.n_range
        if spec is None:
            raise cli._UsageError("sweep needs --n a..b (or --n-at nm --m a..b)")
        lo, hi = cli._parse_range(spec, "--n")
        cli._check_rows(lo, hi, "--n")
        try:
            rows = sweep_rows(gen, lo, hi, ctx, with_bounds=not args.no_bounds)
        except ValueError as e:
            raise cli._UsageError(str(e))
    if args.format == "csv":
        return [sweep_rows_csv(rows, args.digits)], 0
    return [json.dumps(sweep_rows_json(rows, args.digits), indent=2) + "\n"], 0


# -- random generators for property-style suites -----------------------------

def random_periodic_alpha_specs(count: int, seed: int, digit_hi: int = 9):
    """Periodic-CF alpha spec strings with digits in [1, digit_hi]."""
    rng = random.Random(seed)
    specs = []
    while len(specs) < count:
        pre = [0] + [rng.randint(1, digit_hi) for _ in range(rng.randint(0, 2))]
        per = [rng.randint(1, digit_hi) for _ in range(rng.randint(1, 4))]
        body = ",".join(str(d) for d in pre[1:])
        period = ",".join(str(d) for d in per)
        spec = f"cf:0;{body}({period})" if body else f"cf:0;({period})"
        specs.append(spec)
    return specs


def random_rational_points(rng: random.Random, n: int, max_den: int = 10 ** 6):
    """n exact rationals in [0, 1] (duplicates possible)."""
    return [
        Fraction(rng.randint(0, max_den), max_den)
        for _ in range(n)
    ]
