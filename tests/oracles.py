"""Independent reference implementations used to check the library.

Everything here is deliberately written from scratch against the
definitions, not by calling back into the code under test: brute-force
sorted-prefix gap multisets, O(n^2) pairwise metrics, grid fill oracles,
digit-reversal radical inverses, an exact sign test for a + b*sqrt(D), the
defining recurrence of the three-gap lengths eta_m, backward-recurrence
tail enclosures, and big-float continued-fraction machinery via mpmath.
The structure path the package once ran is kept as well: tail brackets by
a loop over the digit window, and gap-form enclosures, their order, the
structure-exact mesh ratio and the closed-form bounds by Interval
arithmetic (the package reads the brackets off its convergents and
evaluates the forms and bounds on integers; Interval does no arithmetic).
The sorted-point Kronecker metrics reuse the package's point generator
and precision ladder; they differ from the package in reading the metrics
off sorted points instead of the three-gap forms.  Likewise the sorted-point
kernel (LatticeMesh, exact_sweep_metrics) grows the package's van der
Corput, greedy and rational points one insert at a time, where the package
reads closed forms.  The per-row sweep (sweep_rows, its CSV and JSON
writers and the sweep command) builds and prints one row per n, where the
package evaluates and formats each run of n once.
"""
import bisect
import heapq
import math
import operator
import random
from collections import Counter
from fractions import Fraction

import mpmath


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


# -- the window loops and Interval arithmetic the structure path replaced ----

def tail_bracket(window):
    """Enclosure of [0; d_1, ..., d_W + x] over x in [0, 1] for the window
    (d_1, ..., d_W), by the forward convergent loop over the window: the
    value (p + x p') / (q + x q') runs from the convergent p/q to the
    mediant (p + p') / (q + q'), the ends the backward recurrence
    x -> 1/(d_j + x) gives from the seeds 0 and 1."""
    from kronmesh.intervals import Interval

    p_prev, p, q_prev, q = 1, 0, 0, 1
    for a in window:
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev
    end, mediant = Fraction(p, q), Fraction(p + p_prev, q + q_prev)
    return Interval(end, mediant) if end < mediant else Interval(mediant, end)


def alpha0_scaled_window(exp, bits: int):
    """exp.alpha0_scaled(bits) without the memo, a digit prefix bracketed
    by tail_bracket over a_1..a_M."""
    if exp.is_rational or exp._alpha0_surd is not None or exp.depth < 1:
        return exp._alpha0_scaled(bits)
    exp.ensure(len(exp.spec.preperiod) - 1)
    iv = tail_bracket(exp.digits[1:exp.depth + 1])
    A = (iv.lo.numerator << bits) // iv.lo.denominator
    U = -((-(iv.hi.numerator << bits)) // iv.hi.denominator) - A
    return (A, max(U, 1))


def alpha_tail_window(exp, m: int, ctx):
    """alpha_tail by brackets of the digit window a_{m+1}..a_{m+w}, w from
    max(16, 3 (bits - GUARD) / 4) doubling until the width target is met;
    the same errors for a short prefix or a terminating expansion."""
    from kronmesh.contfrac import GUARD
    from kronmesh.errors import OutOfRangeError, PrecisionUnresolvedError
    from kronmesh.errors import UnsupportedAlphaError
    from kronmesh.intervals import Interval

    if m < 0:
        raise OutOfRangeError("alpha_m defined for m >= 0")
    target = Fraction(1, 1 << (ctx.bits - GUARD))
    if exp.finite:
        exp.ensure(10 ** 9)
        M = exp.depth
        if m >= M:
            raise UnsupportedAlphaError(
                f"alpha_{m} needs digits beyond a_{M}, but the expansion terminates"
            )
        x = Fraction(0)  # [0; a_{m+1}, ..., a_M], evaluated backwards
        for a in reversed(exp.digits[m + 1:]):
            x = 1 / (a + x)
        return Interval(x, x)
    w = max(16, (3 * (ctx.bits - GUARD)) // 4)
    while True:
        if not exp.ensure(m + w):
            M = exp.depth
            if M <= m:
                raise PrecisionUnresolvedError(
                    f"alpha_{m} needs digits beyond a_{M}; the known prefix is too short"
                )
            iv = tail_bracket(exp.digits[m + 1:])
            if iv.width <= target:
                return iv
            raise PrecisionUnresolvedError(
                f"alpha_{m} certified only to width {float(iv.width):.3e} from digits "
                f"through a_{M}; need roughly depth {m + w} for width 2**-{ctx.bits - GUARD}"
            )
        iv = tail_bracket(exp.digits[m + 1:m + w + 1])
        if iv.width <= target:
            return iv
        w *= 2


def alpha_tail_best_window(exp, m: int, ctx):
    """alpha_tail_best over alpha_tail_window: the bracket of every known
    digit when the prefix is too short for the width target."""
    from kronmesh.errors import PrecisionUnresolvedError

    try:
        return alpha_tail_window(exp, m, ctx)
    except PrecisionUnresolvedError:
        if exp.depth <= m:
            raise
        return tail_bracket(exp.digits[m + 1:])


def iv_scale(iv, c):
    """c * [lo, hi] for a rational c."""
    from kronmesh.intervals import Interval

    return Interval(iv.lo * c, iv.hi * c) if c >= 0 else Interval(iv.hi * c, iv.lo * c)


def iv_shift(iv, c):
    """[lo, hi] + c for a rational c."""
    from kronmesh.intervals import Interval

    return Interval(iv.lo + c, iv.hi + c)


def iv_min(a, b):
    """The enclosure of min(x, y) for x in a and y in b."""
    from kronmesh.intervals import Interval

    return Interval(min(a.lo, b.lo), min(a.hi, b.hi))


def iv_reciprocal(iv):
    """1 / [lo, hi] for an interval bounded away from zero."""
    from kronmesh.intervals import Interval

    if iv.lo <= 0 <= iv.hi:
        raise ZeroDivisionError(f"reciprocal of interval containing 0: [{iv.lo}, {iv.hi}]")
    return Interval(1 / iv.hi, 1 / iv.lo)


def iv_divide(a, b):
    """a / b for b bounded away from zero: the extremes of the four end
    products with 1 / b."""
    from kronmesh.intervals import Interval

    r = iv_reciprocal(b)
    cands = (a.lo * r.lo, a.lo * r.hi, a.hi * r.lo, a.hi * r.hi)
    return Interval(min(cands), max(cands))


def form_enclosure_interval(exp, form, bits: int):
    """The form u*alpha0 + v by Interval arithmetic: the enclosure of alpha0
    at 2**-bits, scaled by u and shifted by v."""
    from kronmesh.intervals import Interval

    A, U = alpha0_scaled_window(exp, bits)
    unit = Fraction(1, 1 << bits)
    return iv_shift(iv_scale(Interval(A * unit, (A + U) * unit), form.u), form.v)


def form_interval_interval(exp, form, ctx, require_positive: bool = False):
    """form_interval on form_enclosure_interval, the same ladder site."""
    if not require_positive or (form.u, form.v) == (0, 0):
        return form_enclosure_interval(exp, form, ctx.bits)

    def attempt(bits):
        iv = form_enclosure_interval(exp, form, bits)
        return (iv, None) if iv.lo > 0 or iv.hi < 0 else (None, iv.width)

    return ctx.escalate(attempt, ctx.bits, f"sign of {form.u}*alpha+{form.v}")


def mesh_ratio_structural_interval(exp, n: int, ctx):
    """mesh_ratio_structural by Interval arithmetic: the gap forms ordered on
    their enclosures, then fill = max(largest interior, twice the gap
    touching 1) / 2, separation = smallest interior / 2 and rho = fill /
    separation as intervals, each reported by its midpoint, with half the
    largest width as the error."""
    from kronmesh import QUMetrics
    from kronmesh.intervals import Interval
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
        return None, max(iv.width for iv in ivs.values())

    ordered = ctx.escalate(order, ctx.bits, "gap-length ordering")
    big = form_interval_interval(exp, ordered[-1], ctx, True)
    last = form_interval_interval(exp, last_form.scale(2), ctx, True)
    fill_iv = iv_scale(Interval(max(big.lo, last.lo), max(big.hi, last.hi)), Fraction(1, 2))
    sep_iv = iv_scale(form_interval_interval(exp, ordered[0], ctx, True), Fraction(1, 2))
    rho_iv = iv_divide(fill_iv, sep_iv)
    err = max(fill_iv.width, sep_iv.width, rho_iv.width) / 2
    return QUMetrics(n, fill_iv.mid, sep_iv.mid, rho_iv.mid, "structure-exact", err)


def kronecker_bounds_interval(exp, n: int, ctx=None):
    """kronecker_bounds by Interval arithmetic on the alpha_m bracket: the
    denominator min(alpha_m, 1 - (h+1) alpha_m), the numerator
    2 (1 - h alpha_m), their quotient, and 1 / alpha_m at n_m."""
    from dataclasses import replace

    from kronmesh.contfrac import DEFAULT_CONTEXT, alpha_tail_best, digit_supremum
    from kronmesh.errors import UnsupportedAlphaError
    from kronmesh.metrics import BoundReport, _as_expansion
    from kronmesh.threegap import decompose

    ctx = DEFAULT_CONTEXT if ctx is None else ctx
    exp = _as_expansion(exp)
    if exp.is_rational:
        raise UnsupportedAlphaError("mesh-ratio bounds need irrational alpha")
    d = decompose(exp, n)

    def attempt(bits):
        # a digit prefix too short for the width target still yields the
        # bracket of every known digit
        am = alpha_tail_best(exp, d.m, replace(ctx, bits=bits))
        den = iv_min(am, iv_shift(iv_scale(am, -(d.h + 1)), 1))
        return ((am, den), None) if den.lo > 0 else (None, am.width)

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
    return BoundReport(n, d.m, d.h, d.k, upper, lower, digit_form, global_upper)


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
                return None, Fraction(exp.alpha0_scaled(b)[1], 1 << b)

        return ctx.escalate(attempt, bits, f"integer straddles of the first {n} points")

    first = points(working_scale_bits(ctx, n) if start_bits is None else start_bits)
    first_bits = first[1].bit_length() - 1

    def attempt(bits):
        xs, M, U = first if bits == first_bits else points(bits)
        try:
            scaled_prefix_metrics(xs, M, U)
        except ArithmeticError:
            return None, Fraction((n - 1) * U, M)
        return (xs, M, U), None

    return ctx.escalate(attempt, first_bits, f"point order at n={n}")


def kronecker_point_metrics(exp, n: int, ctx, start_bits=None):
    """QUMetrics of the first n >= 2 Kronecker points from their sorted
    lattice values (kronecker_point_lattice), error bound (n - 1)*U / M."""
    from kronmesh import QUMetrics

    xs, M, U = kronecker_point_lattice(exp, n, ctx, start_bits)
    fill, sep, rho = scaled_prefix_metrics(xs, M, U)
    return QUMetrics(n, fill, sep, rho, "oracle-exact", Fraction((n - 1) * U, M))


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
    from kronmesh import QUMetrics, generate

    ps = generate(gen, n_hi)
    scale = 2 * ps.modulus
    mesh = LatticeMesh(ps.xs[:n_lo - 1], ps.modulus)
    rows, values = [], {}
    for x in ps.xs[n_lo - 1:]:
        mesh.insert(x)
        fill, ming = key = mesh.units()
        if key not in values:
            rho = math.inf if ming == 0 else Fraction(fill, ming)
            values[key] = Fraction(fill, scale), Fraction(ming, scale), rho
        rows.append(QUMetrics(len(mesh.pts), *values[key], "oracle-exact", Fraction(0)))
    return rows


# -- the per-row sweep -----------------------------------------------------------
# The package once built one SweepRow per n (memoizing the forms per key) and
# formatted every cell of every row; a JSON sweep went through json.dumps.
# It now evaluates and formats each run of n once.  These are the old rows,
# writers and sweep command.

def sweep_rows(gen, n_lo: int, n_hi: int, ctx=None, with_bounds: bool = True):
    """The SweepRow of every n in [n_lo, n_hi], one n at a time."""
    from functools import partial
    from kronmesh import GreedyGen, KroneckerGen, QUMetrics, VdcGen
    from kronmesh.contfrac import DEFAULT_CONTEXT
    from kronmesh.metrics import _as_expansion, _greedy_run, _kronecker_lattice, _vdc_run
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
    if not exp.is_rational:
        lattice = _kronecker_lattice(exp, n_hi, ctx, working_scale_bits(ctx, n_hi))
        return form_rows(exp, n_lo, n_hi, *lattice, ctx, with_bounds)
    q = exp.spec.den
    rows = form_rows(exp, n_lo, min(n_hi, q), exp.spec.num % q, 0, q, ctx, False)
    repeat = QUMetrics(q + 1, Fraction(1, q), Fraction(0), math.inf, "oracle-exact")
    return rows + run_rows(lambda n: (n_hi, repeat), max(n_lo, q + 1), n_hi)


def form_rows(exp, n_lo: int, n_hi: int, A: int, U: int, M: int, ctx, with_bounds: bool):
    """Rows of a Kronecker sweep on the lattice (A, U, M), one evaluation of
    the forms per key (m, h, min(k, 2)) and of the bounds per (m, h, k == 0)."""
    from kronmesh import BoundReport, QUMetrics, SweepRow, decompose, kronecker_bounds
    from kronmesh.metrics import _kronecker_metrics

    rows, memo, bounds_memo = [], {}, {}
    for n in range(n_lo, n_hi + 1):
        d = decompose(exp, n)
        key = (d.m, d.h, min(d.k, 2))
        if key not in memo:
            memo[key] = _kronecker_metrics(exp, n, A, U, M)
        qm = memo[key]
        qm = QUMetrics(n, qm.fill, qm.separation, qm.mesh_ratio, qm.provenance,
                       Fraction((n - 1) * U, M))
        br = None
        if with_bounds:
            key = (d.m, d.h, d.k == 0)
            if key not in bounds_memo:
                bounds_memo[key] = kronecker_bounds(exp, n, ctx)
            b = bounds_memo[key]
            br = BoundReport(n, b.m, b.h, d.k, b.upper, b.lower_at_nm,
                             b.lower_digit_form, b.global_upper)
        rows.append(SweepRow(qm, br))
    return rows


def run_rows(run, n_lo: int, n_hi: int):
    """Rows of an exact generator: run(n) gives the last n' >= n whose
    prefix shares the metrics of the first n points, and those metrics."""
    from kronmesh import QUMetrics, SweepRow

    rows, n = [], n_lo
    while n <= n_hi:
        last, qm = run(n)
        rows += [SweepRow(QUMetrics(i, qm.fill, qm.separation, qm.mesh_ratio,
                                    qm.provenance), None)
                 for i in range(n, min(last, n_hi) + 1)]
        n = last + 1
    return rows


def _row_cells(row, digits: int):
    """(fill, separation, rho, bounds or None) of a row as printed, each
    value rounded from scratch: nearest, and intervals outward."""
    from kronmesh import fraction_to_decimal

    def iv(x):
        return [fraction_to_decimal(x.lo, digits, "floor"),
                fraction_to_decimal(x.hi, digits, "ceil")]

    qm, br = row.metrics, row.bounds
    cells = [fraction_to_decimal(v, digits) for v in (qm.fill, qm.separation)]
    cells.append("inf" if qm.is_infinite else fraction_to_decimal(qm.mesh_ratio, digits))
    if br is None:
        return cells, None
    return cells, {
        "n": br.n, "m": br.m, "h": br.h, "k": br.k, "upper": iv(br.upper),
        "lower_at_nm": None if br.lower_at_nm is None else iv(br.lower_at_nm),
        "lower_digit_form": None if br.lower_digit_form is None
        else fraction_to_decimal(br.lower_digit_form, digits),
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
    from kronmesh import (CFExpansion, KroneckerGen, SweepRow, UnsupportedAlphaError,
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
        if exp.is_rational:
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
            rows.append(SweepRow(mesh_ratio_structural(exp, n, ctx),
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
        return sweep_rows_csv(rows, args.digits), 0
    return json.dumps(sweep_rows_json(rows, args.digits), indent=2) + "\n", 0


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
