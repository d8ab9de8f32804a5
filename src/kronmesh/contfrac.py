"""Exact continued-fraction engine.

Alpha is described exactly (quadratic surd, rational, or explicit digit
list), never as a float.  Each kind has one digit source, chosen when its
expansion is built: the Gauss map on integer triples for a surd, a lazy
Euclid for a rational, the preperiod then the cycled period for a digit
list.  From the digits a_0; a_1, a_2, ... we derive the convergents
p_m/q_m of alpha, whose denominators are those of the reduced tail
[0; a_1, a_2, ...].  The point counts are read off q:

    s_m = q_m   (s_{-1} = q_{-1} = 0),     n_m = q_m + q_{m-1},

and the tail values alpha_m = [0; a_{m+1}, ...] are bracketed by integer
ends x1/y1 <= x2/y2.  All arithmetic is integer arithmetic; a Fraction is
built only for a public Interval, and big-float never enters.
"""
from __future__ import annotations

import math
import re
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, count, cycle, islice
from typing import Callable, Iterator, Optional, Tuple, Union

from .errors import (
    AlphaSpecError,
    OutOfRangeError,
    PrecisionUnresolvedError,
    UnsupportedAlphaError,
)
from .intervals import Interval


# ---------------------------------------------------------------------------
# precision bookkeeping


@dataclass(frozen=True)
class PrecisionContext:
    """Working precision for certified enclosures.

    bits is the width target exponent (less GUARD), max_bits the escalation
    ceiling for comparisons that start ambiguous.
    """

    bits: int = 192
    max_bits: int = 65536

    def __post_init__(self):
        if self.bits < 64:
            raise ValueError("PrecisionContext.bits must be >= 64")
        if self.max_bits < self.bits:
            raise ValueError("PrecisionContext.max_bits must be >= bits")

    def escalate(self, attempt: Callable[[int], tuple], start_bits: int, what: str):
        """The precision ladder shared by every certified comparison.

        Calls attempt(bits) at start_bits, then at doubled bits up to
        max_bits, until it returns (result, error) with a result that is not
        None; an undecided attempt returns (None, error), where error
        measures what kept it from deciding (an enclosure width, a per-point
        error).  Raises PrecisionUnresolvedError at the ceiling (a start
        above max_bits still gets its one attempt), or as soon as a doubling
        fails to halve the error: a digit prefix, not the precision, then
        limits the enclosure, and more bits cannot decide the comparison.
        """
        bits, last = start_bits, None
        while True:
            result, error = attempt(bits)
            if result is not None:
                return result
            if last is not None and 2 * error > last:
                raise PrecisionUnresolvedError(
                    f"{what} unresolved at {bits} bits; doubling the precision "
                    "cannot reduce the error (digit prefix exhausted?)"
                )
            if bits >= self.max_bits:
                raise PrecisionUnresolvedError(
                    f"{what} unresolved at the ceiling of {bits} bits"
                )
            bits, last = min(2 * bits, self.max_bits), error


DEFAULT_CONTEXT = PrecisionContext()
GUARD = 8  # the slack of the tail enclosures: alpha_tail meets width 2**-(bits - GUARD)


# ---------------------------------------------------------------------------
# alpha descriptions


def _floor_surd(A: int, N: int, Q: int) -> int:
    """floor((A + sqrt(N)) / Q) in exact integer arithmetic; N >= 0, Q != 0."""
    r = math.isqrt(N)
    if r * r == N:
        return (A + r) // Q
    if Q > 0:
        t = (A + r) // Q
        while True:
            u = (t + 1) * Q - A
            if u <= 0 or u * u <= N:
                t += 1
            else:
                return t
    # N not a square, so (A + sqrt(N))/|Q| is irrational: floor(-x) = -floor(x) - 1
    return -_floor_surd(A, N, -Q) - 1


@dataclass(frozen=True)
class QuadraticSurd:
    """The real number (P + sqrt(D)) / Q with integer P, Q != 0 and D > 0
    not a perfect square.

    Kept in the normal form Q | D - P*P so the Gauss map x -> 1/(x - floor x)
    stays inside integer triples.
    """

    P: int
    D: int
    Q: int

    def __post_init__(self):
        P, D, Q = self.P, self.D, self.Q
        for name, v in (("P", P), ("D", D), ("Q", Q)):
            if not isinstance(v, int) or isinstance(v, bool):
                raise AlphaSpecError(f"QuadraticSurd.{name} must be an integer, got {v!r}")
        if Q == 0:
            raise AlphaSpecError("QuadraticSurd.Q must be nonzero")
        if D <= 0:
            raise AlphaSpecError("QuadraticSurd.D must be positive")
        r = math.isqrt(D)
        if r * r == D:
            raise AlphaSpecError(f"QuadraticSurd.D = {D} is a perfect square; use rat: instead")
        if (D - P * P) % Q != 0:
            # scale numerator and denominator by |Q| to restore divisibility
            for name, v in (("P", P * abs(Q)), ("D", D * Q * Q), ("Q", Q * abs(Q))):
                object.__setattr__(self, name, v)

    def floor_scaled(self, bits: int) -> int:
        """Exact floor(value * 2**bits)."""
        return _floor_surd(self.P << bits, self.D << (2 * bits), self.Q)


@dataclass(frozen=True)
class Rational:
    """Exact rational alpha = num / den."""

    num: int
    den: int

    def __post_init__(self):
        if not isinstance(self.num, int) or not isinstance(self.den, int):
            raise AlphaSpecError("Rational takes integers")
        if self.den <= 0:
            raise AlphaSpecError("Rational.den must be positive")
        fr = Fraction(self.num, self.den)
        object.__setattr__(self, "num", fr.numerator)
        object.__setattr__(self, "den", fr.denominator)

    def as_fraction(self) -> Fraction:
        return Fraction(self.num, self.den)


@dataclass(frozen=True)
class ExplicitCF:
    """Alpha given by continued-fraction digits.

    preperiod = (a_0, a_1, ..., a_k); period repeats forever after the
    preperiod.  An empty period means only the prefix is known: the value is
    then pinned down only to the interval of all possible continuations, and
    operations that need more certainty fail loudly instead of guessing.
    """

    preperiod: Tuple[int, ...]
    period: Tuple[int, ...] = ()

    def __post_init__(self):
        pre = tuple(self.preperiod)
        per = tuple(self.period)
        object.__setattr__(self, "preperiod", pre)
        object.__setattr__(self, "period", per)
        if len(pre) < 1:
            raise AlphaSpecError("ExplicitCF needs at least a_0")
        for j, a in enumerate(pre):
            if not isinstance(a, int) or isinstance(a, bool):
                raise AlphaSpecError(f"digit a_{j} must be an integer")
            if j == 0 and a < 0:
                raise AlphaSpecError("a_0 must be >= 0")
            if j >= 1 and a < 1:
                raise AlphaSpecError(f"digit a_{j} must be >= 1, got {a}")
        for a in per:
            if not isinstance(a, int) or isinstance(a, bool) or a < 1:
                raise AlphaSpecError(f"period digits must be integers >= 1, got {a!r}")


AlphaSpec = Union[QuadraticSurd, Rational, ExplicitCF]


def _convergent_pair(digits: Tuple[int, ...]) -> Tuple[int, int, int, int]:
    """(p_M, p_{M-1}, q_M, q_{M-1}) for the finite CF [d_0; d_1, ..., d_M]."""
    p_prev, p = 1, digits[0]
    q_prev, q = 0, 1
    for a in digits[1:]:
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev
    return p, p_prev, q, q_prev


def _periodic_tail_surd(preperiod_tail: Tuple[int, ...], period: Tuple[int, ...]) -> QuadraticSurd:
    """Exact value of [0; b_1, ..., b_k, (c_1, ..., c_L) repeating] as a surd.

    preperiod_tail is (b_1, ..., b_k), possibly empty; period is nonempty.
    """
    # X = [c_1; c_2, ..., c_L, X] is the purely periodic complete quotient
    p, pp, q, qp = _convergent_pair(period)
    a = p - qp
    disc = a * a + 4 * q * pp
    # X = (a + sqrt(disc)) / (2 q); fold the preperiod Moebius map onto X
    pb, pbb, qb, qbb = _convergent_pair((0,) + preperiod_tail)
    A = pb * a + 2 * q * pbb
    B = pb
    C = qb * a + 2 * q * qbb
    E = qb
    g = B * C - A * E
    if g == 0:
        raise AlphaSpecError("periodic continued fraction collapsed to a rational")
    P0 = A * C - B * E * disc
    R = C * C - E * E * disc
    if g < 0:
        P0, g, R = -P0, -g, -R
    return QuadraticSurd(P0, g * g * disc, R)


# ---------------------------------------------------------------------------
# expansion


Period = Tuple[int, int]  # (start, length) of the digit period


def _digit_source(spec: AlphaSpec) -> Iterator[Tuple[int, Optional[Period]]]:
    """The digits a_0, a_1, ... of alpha, each paired with the digit period
    when it first becomes known (else None); it ends where the expansion
    does.  A rational runs Euclid, an ExplicitCF cycles its period after
    the preperiod (an empty period ends it), and a surd runs the Gauss map
    on (P, Q), reporting (start, length) at the first j whose state recurs.
    It holds the spec alone, never the expansion that draws on it, so an
    expansion is freed by reference counting, without a cycle."""
    if isinstance(spec, Rational):
        num, den = spec.num, spec.den
        while den:
            a, rem = divmod(num, den)
            yield a, None
            num, den = den, rem
    elif isinstance(spec, ExplicitCF):
        pre, per = spec.preperiod, spec.period
        yield pre[0], (len(pre), len(per)) if per else None
        for a in chain(pre[1:], cycle(per)):
            yield a, None
    else:
        P, D, Q, seen = spec.P, spec.D, spec.Q, {}
        for j in count():
            period = None
            if seen is not None:
                i = seen.setdefault((P, Q), j)
                if i < j:
                    period, seen = (i, j - i), None
            a = _floor_surd(P, D, Q)
            yield a, period
            P = a * Q - P
            Q = (D - P * P) // Q


Ends = Tuple[int, int, int, int]  # bracket ends (x1, y1, x2, y2): [x1/y1, x2/y2], y > 0


class CFExpansion:
    """Lazily extended continued-fraction data for one alpha.

    digits[j] holds a_j and convergents[j] = (p_j, q_j) of alpha; s_m and
    n_m are read off q.  A convergent is stored before its digit, so reads
    after ensure(m) are safe from any thread; extension is serialized on an
    internal lock, and the values are deterministic regardless of threads.
    """

    def __init__(self, spec: AlphaSpec):
        if not isinstance(spec, (QuadraticSurd, Rational, ExplicitCF)):
            raise AlphaSpecError(f"not an alpha description: {spec!r}")
        self.spec = spec
        self._lock = threading.RLock()
        self.digits: list = []
        self.convergents: list = []
        self.finite = isinstance(spec, Rational)
        self.periodic: Optional[Period] = None
        self._source = _digit_source(spec)
        self._scaled: dict = {}  # bits -> alpha0_scaled(bits)
        self._sup: dict = {}  # probe_depth -> digit_supremum(self, probe_depth)
        self._extend_locked(0)

    def _extend_locked(self, m_target: int) -> bool:
        with self._lock:
            cv, digits = self.convergents, self.digits
            # a thread that lost the race to extend finds nothing left to take
            for a, period in islice(self._source, max(0, m_target + 1 - len(digits))):
                if period:
                    self.periodic = period
                if cv:  # (p_{-1}, q_{-1}) = (1, 0)
                    (p1, q1), (p2, q2) = cv[-1], cv[-2] if len(cv) > 1 else (1, 0)
                    cv.append((a * p1 + p2, a * q1 + q2))
                else:
                    cv.append((a, 1))
                digits.append(a)
            return len(digits) > m_target

    # -- accessors ---------------------------------------------------------

    def ensure(self, m: int) -> bool:
        """Try to make digits a_0..a_m available; False if the expansion
        ends (rational) or the known prefix runs out first."""
        if m < len(self.digits):
            return True
        return self._extend_locked(m)

    @property
    def depth(self) -> int:
        """Largest digit index currently available."""
        return len(self.digits) - 1

    def digit(self, j: int) -> int:
        if j < 0:
            raise OutOfRangeError("digit index must be >= 0")
        if not self.ensure(j):
            raise OutOfRangeError(
                f"digit a_{j} unavailable: expansion ends at a_{self.depth}"
            )
        return self.digits[j]

    def s_at(self, m: int) -> int:
        if m == -1:
            return 0
        if m < -1:
            raise OutOfRangeError("s_m defined for m >= -1")
        if not self.ensure(m):
            raise OutOfRangeError(f"s_{m} needs digit a_{m}; expansion ends at a_{self.depth}")
        return self.convergents[m][1]

    def n_at(self, m: int) -> int:
        if m < 0:
            raise OutOfRangeError("n_m defined for m >= 0")
        if not self.ensure(m):
            raise OutOfRangeError(f"n_{m} needs digit a_{m}; expansion ends at a_{self.depth}")
        return self.s_at(m) + self.s_at(m - 1)

    def convergent(self, m: int) -> Tuple[int, int]:
        if m < 0:
            raise OutOfRangeError("convergent index must be >= 0")
        if not self.ensure(m):
            raise OutOfRangeError(f"p_{m}/q_{m} needs digit a_{m}; expansion ends at a_{self.depth}")
        return self.convergents[m]

    @property
    def is_rational(self) -> bool:
        return self.finite

    # -- certified value enclosures -----------------------------------------

    @cached_property
    def _alpha0_surd(self) -> Optional[QuadraticSurd]:
        """Exact surd equal to alpha mod 1, when one exists (computed once
        per expansion)."""
        spec = self.spec
        if isinstance(spec, QuadraticSurd):
            a0 = self.digit(0)
            if a0 == 0:
                return spec
            return QuadraticSurd(spec.P - a0 * spec.Q, spec.D, spec.Q)
        if isinstance(spec, ExplicitCF) and spec.period:
            return _periodic_tail_surd(spec.preperiod[1:], spec.period)
        return None

    @cached_property
    def _prefix_bracket(self) -> Ends:
        """Bracket ends of alpha mod 1 from every digit there is, when no surd
        gives it: exact for a terminating expansion, else the bracket of a
        prefix with unknown continuation (computed once; the digits are fixed)."""
        self.ensure(10 ** 9 if self.finite else len(self.spec.preperiod) - 1)
        if self.depth < 1 and not self.finite:
            raise PrecisionUnresolvedError(
                "no digits beyond a_0; alpha mod 1 is unconstrained in [0, 1]"
            )
        return _window_bracket(self, 0, self.depth)

    def alpha0_scaled(self, bits: int) -> Tuple[int, int]:
        """(A, U) with (alpha mod 1) * 2**bits in [A, A + U]: U = 1 for a
        surd, else the ceiling less the floor of the bracket ends (0 for an
        exact dyadic).  Memoized per bits without a lock: the value depends
        only on (spec, bits), so threads racing on a miss store equal
        tuples, and one dict read or write is atomic."""
        hit = self._scaled.get(bits)
        if hit is None:
            hit = self._scaled[bits] = self._alpha0_scaled(bits)
        return hit

    def _alpha0_scaled(self, bits: int) -> Tuple[int, int]:
        surd = self._alpha0_surd
        if surd is not None:
            return (surd.floor_scaled(bits), 1)
        x1, y1, x2, y2 = self._prefix_bracket
        A = (x1 << bits) // y1
        return (A, -((-x2 << bits) // y2) - A)


def _window_bracket(exp: CFExpansion, m: int, e: int) -> Ends:
    """Unreduced ends of the enclosure of alpha_m = [0; a_{m+1}, ..., a_e +
    x] over x in [0, 1] for known digits m < e: the window's convergent
    (x = 0) and mediant (x = 1), exact when a terminating expansion ends at
    a_e.  With P_j = p_j - a_0 q_j and Q_j = q_j read off the stored
    convergents ((p_-1, q_-1) = (1, 0)), alpha0 = (P_e + x P_{e-1}) / (Q_e +
    x Q_{e-1}) and alpha_m is its unimodular image (Q_m P - P_m Q) /
    (P_{m-1} Q - Q_{m-1} P), O(1) in the window; the pole P_{m-1} / Q_{m-1}
    is outside the alpha0 bracket, so both denominators share one sign."""
    a0 = exp.digits[0]
    (Pl, Ql), (Pm, Qm), (Pf, Qf), (Pe, Qe) = (
        (p - a0 * q, q) for p, q in (exp.convergents[j] if j >= 0 else (1, 0)
                                     for j in (m - 1, m, e - 1, e)))
    (x1, y1), (x2, y2) = ((Qm * P - Pm * Q, Pl * Q - Ql * P)
                          for P, Q in ((Pe, Qe), (Pe + Pf, Qe + Qf)))
    if y1 < 0:
        x1, y1, x2, y2 = -x1, -y1, -x2, -y2
    if exp.finite and e == exp.depth:
        return (x1, y1, x1, y1)
    return (x1, y1, x2, y2) if x1 * y2 < x2 * y1 else (x2, y2, x1, y1)


def _tail_ends(exp: CFExpansion, m: int, bits: int) -> Tuple[Ends, int]:
    """The alpha_m bracket for the width target 2**(GUARD - bits), and its
    window w: the bracket of a_{m+1}..a_{m+w}, w from max(16, 3 (bits -
    GUARD) / 4) doubling until the target is met, or of every digit there
    is when they run out first (exact for a terminating expansion, perhaps
    too wide for a prefix).  Raises when no digit beyond a_m exists."""
    if m < 0:
        raise OutOfRangeError("alpha_m defined for m >= 0")
    if exp.finite:
        exp.ensure(10 ** 9)  # rational digits are finite; materialize all
    width_bits = bits - GUARD
    w = max(16, (3 * width_bits) // 4)
    while not exp.finite and exp.ensure(m + w):
        x1, y1, x2, y2 = ends = _window_bracket(exp, m, m + w)
        if (x2 * y1 - x1 * y2) << width_bits <= y1 * y2:
            return ends, w
        w *= 2
    M = exp.depth
    if M <= m and exp.finite:
        raise UnsupportedAlphaError(
            f"alpha_{m} needs digits beyond a_{M}, but the expansion terminates"
        )
    if M <= m:
        raise PrecisionUnresolvedError(
            f"alpha_{m} needs digits beyond a_{M}; the known prefix is too short"
        )
    return _window_bracket(exp, m, M), w


def _interval(ends: Ends) -> Interval:
    x1, y1, x2, y2 = ends
    return Interval(Fraction(x1, y1), Fraction(x2, y2))


def expand(alpha: AlphaSpec, m_max: int) -> CFExpansion:
    """Digits a_0..a_{m_max} (or to termination) with their convergents."""
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    exp = CFExpansion(alpha)
    exp.ensure(m_max)
    return exp


def s_and_n(exp: CFExpansion, m: int) -> Tuple[int, int]:
    """Exact (s_m, n_m) = (q_m, q_m + q_{m-1}); m >= 0."""
    return (exp.s_at(m), exp.n_at(m))


def alpha_tail(exp: CFExpansion, m: int, ctx: PrecisionContext = DEFAULT_CONTEXT) -> Interval:
    """Certified enclosure of alpha_m = [0; a_{m+1}, a_{m+2}, ...].

    The enclosure is the bracket of the digit window a_{m+1}..a_{m+w}
    between its convergent and its mediant (the unknown remainder ranges
    over [0, 1]), read off the stored convergents in O(1).  The window
    starts at w = max(16, 3 (bits - GUARD) / 4) digits and doubles until
    the width target 2**(GUARD - bits) is met.
    Terminating tails come out exact.
    """
    ends, w = _tail_ends(exp, m, ctx.bits)
    iv, bits = _interval(ends), ctx.bits - GUARD
    if iv.width * (1 << bits) > 1:
        raise PrecisionUnresolvedError(
            f"alpha_{m} certified only to width {float(iv.width):.3e} from digits "
            f"through a_{exp.depth}; need roughly depth {m + w} for width 2**-{bits}"
        )
    return iv


def alpha_tail_best(exp: CFExpansion, m: int, ctx: PrecisionContext = DEFAULT_CONTEXT) -> Interval:
    """alpha_tail without the width guarantee.

    When only a digit prefix constrains the tail, returns the tightest
    enclosure that prefix supports (the bracket of a_{m+1}..a_M) instead of
    raising.  Still raises when no digit beyond a_m is known (the enclosure
    would be all of [0, 1]).
    """
    return _interval(_tail_ends(exp, m, ctx.bits)[0])


# the most digits digit_supremum walks for a surd's period (60 MB RSS, 0.1 s)
MAX_PERIOD_WALK = 10 ** 4


def digit_supremum(exp: CFExpansion, probe_depth: int = 64) -> Tuple[int, str]:
    """sup over the digits a_j, j >= 1, memoized per expansion and probe_depth.

    Exact for terminating and periodic expansions; otherwise the max over
    the first probe_depth digits, flagged prefix-only.  Raises
    PrecisionUnresolvedError for a surd whose preperiod and period do not
    fit in the first MAX_PERIOD_WALK digits.
    """
    if probe_depth < 1:
        raise ValueError("probe_depth must be >= 1")
    if probe_depth in exp._sup:
        return exp._sup[probe_depth]
    if exp.finite:
        exp.ensure(10 ** 9)
    # a surd: extend until the Gauss map revisits a state (Lagrange guarantees it)
    while exp.periodic is None and isinstance(exp.spec, QuadraticSurd):
        if exp.depth >= MAX_PERIOD_WALK:
            raise PrecisionUnresolvedError(
                f"the digit period of {alpha_to_string(exp.spec)} does not close "
                f"within the walk cap of {MAX_PERIOD_WALK} digits")
        exp.ensure(min(exp.depth + 64, MAX_PERIOD_WALK))
    hi, certainty = exp.depth, "exact"
    if exp.periodic is not None:
        hi = max(1, exp.periodic[0]) + exp.periodic[1] - 1
        exp.ensure(hi)
    elif not exp.finite:
        exp.ensure(probe_depth)
        hi, certainty = min(probe_depth, exp.depth), "prefix-only"
    exp._sup[probe_depth] = (max(exp.digits[1:hi + 1], default=0), certainty)
    return exp._sup[probe_depth]


@dataclass(frozen=True)
class Classification:
    verdict: str          # "yes" | "no" | "unknown"
    digit_sup: int
    certainty: str        # "exact" | "prefix-only"
    c_bound: Optional[int]


def is_badly_approximable(alpha: AlphaSpec, probe_depth: int = 64) -> Classification:
    """Bounded partial quotients?  yes / no (terminating CF) / unknown
    (only a digit prefix is known)."""
    exp = CFExpansion(alpha)
    sup, certainty = digit_supremum(exp, probe_depth)
    if exp.finite:
        return Classification("no", sup, certainty, None)
    if certainty == "exact":
        return Classification("yes", sup, "exact", 2 + 2 * sup)
    return Classification("unknown", sup, "prefix-only", None)


# ---------------------------------------------------------------------------
# the shared alpha grammar


_CF_RE = re.compile(r"^(\-?\d+);([0-9,]*)(?:\(([0-9,]+)\))?$")


def _parse_int(tok: str, what: str) -> int:
    tok = tok.strip()
    if not re.fullmatch(r"-?\d+", tok):
        raise AlphaSpecError(f"{what}: expected an integer, got {tok!r}")
    return int(tok)


def _parse_digit_list(body: str, what: str) -> Tuple[int, ...]:
    if body.strip() == "":
        return ()
    return tuple(_parse_int(t, what) for t in body.split(",") if t.strip() != "")


def parse_alpha(text: str) -> AlphaSpec:
    """Parse the alpha grammar shared with the CLI:

        golden | sqrt:D | quad:P,D,Q | rat:p/q | cf:a0;a1,a2,...[(period)]
    """
    s = text.strip()
    if s == "golden":
        return QuadraticSurd(-1, 5, 2)
    if s.startswith("sqrt:"):
        return QuadraticSurd(0, _parse_int(s[5:], "sqrt:D"), 1)
    if s.startswith("quad:"):
        parts = s[5:].split(",")
        if len(parts) != 3:
            raise AlphaSpecError(f"quad: needs P,D,Q, got {s!r}")
        P, D, Q = (_parse_int(t, "quad:P,D,Q") for t in parts)
        return QuadraticSurd(P, D, Q)
    if s.startswith("rat:"):
        body = s[4:]
        if "/" not in body:
            raise AlphaSpecError(f"rat: needs p/q, got {s!r}")
        p_str, q_str = body.split("/", 1)
        return Rational(_parse_int(p_str, "rat:p"), _parse_int(q_str, "rat:q"))
    if s.startswith("cf:"):
        m = _CF_RE.match(s[3:].replace(" ", ""))
        if not m:
            raise AlphaSpecError(f"cf: expected a0;a1,a2,...[(period)], got {s!r}")
        a0 = _parse_int(m.group(1), "cf:a0")
        pre = _parse_digit_list(m.group(2) or "", "cf digit")
        per = _parse_digit_list(m.group(3) or "", "cf period digit")
        return ExplicitCF((a0,) + pre, per)
    raise AlphaSpecError(f"unrecognized alpha spec {text!r}")


def alpha_to_string(spec: AlphaSpec) -> str:
    """Canonical grammar string for an alpha description (round-trips
    through parse_alpha)."""
    if isinstance(spec, QuadraticSurd):
        if (spec.P, spec.D, spec.Q) == (-1, 5, 2):
            return "golden"
        if spec.P == 0 and spec.Q == 1:
            return f"sqrt:{spec.D}"
        return f"quad:{spec.P},{spec.D},{spec.Q}"
    if isinstance(spec, Rational):
        return f"rat:{spec.num}/{spec.den}"
    body = ";".join([str(spec.preperiod[0]), ",".join(str(d) for d in spec.preperiod[1:])])
    if spec.period:
        body += "(" + ",".join(str(d) for d in spec.period) + ")"
    return "cf:" + body
