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
ends x1/y1 <= x2/y2.  All arithmetic is integer arithmetic, and big-float
never enters.
"""
from __future__ import annotations

import bisect
import math
import re
import sys
import threading
from functools import cached_property
from itertools import chain, cycle, islice
from operator import itemgetter
from typing import Callable, Iterator, NamedTuple, Optional, Tuple, Union

from .errors import (
    AlphaSpecError,
    OutOfRangeError,
    PrecisionUnresolvedError,
)


# ---------------------------------------------------------------------------
# precision bookkeeping


class PrecisionContext(NamedTuple("PrecisionContext", [("bits", int), ("max_bits", int)])):
    """Working precision for certified enclosures.

    bits is the width target exponent (less GUARD), max_bits the escalation
    ceiling for comparisons that start ambiguous.
    """

    __slots__ = ()
    # _replace builds through _make: validate there too, as the constructor does
    _make = classmethod(lambda cls, values: cls(*values))

    def __new__(cls, bits: int = 192, max_bits: int = 65536):
        if bits < 64:
            raise ValueError("PrecisionContext.bits must be >= 64")
        if max_bits < bits:
            raise ValueError("PrecisionContext.max_bits must be >= bits")
        return tuple.__new__(cls, (bits, max_bits))

    def escalate(self, attempt: Callable[[int], tuple], start_bits: int,
                 what: Union[str, Callable[[], str]]):
        """The precision ladder shared by every certified comparison.

        Calls attempt(bits) at start_bits, then at doubled bits up to
        max_bits, until it returns (result, error) with a result that is not
        None; an undecided attempt returns (None, (num, den)), the error
        num / den (den > 0, not reduced) that kept it from deciding (an
        enclosure width, a per-point error).  Raises
        PrecisionUnresolvedError at the ceiling (a start above max_bits
        still gets its one attempt), or as soon as a doubling fails to halve
        the error, a test on cross-multiplied integers: a digit prefix, not
        the precision, then limits the enclosure, and more bits cannot
        decide the comparison.
        what names the comparison in that error: a str, or a callable that
        builds it, called only when raising.
        """
        bits, last = start_bits, None
        while True:
            result, error = attempt(bits)
            if result is not None:
                return result
            num, den = error
            if last is not None and 2 * num * last[1] > last[0] * den:
                raise PrecisionUnresolvedError(
                    f"{_text(what)} unresolved at {bits} bits; doubling the precision "
                    "cannot reduce the error (digit prefix exhausted?)"
                )
            if bits >= self.max_bits:
                raise PrecisionUnresolvedError(
                    f"{_text(what)} unresolved at the ceiling of {bits} bits"
                )
            bits, last = min(2 * bits, self.max_bits), error


def _text(what: Union[str, Callable[[], str]]) -> str:
    return what if isinstance(what, str) else what()


DEFAULT_CONTEXT = PrecisionContext()
# the slack of the tail enclosures: _tail_ends takes the shortest window of
# width at most 2**-(bits - GUARD), so their tightness depends on bits alone
GUARD = 8


# ---------------------------------------------------------------------------
# alpha descriptions


def _floor_surd(A: int, r: int, Q: int) -> int:
    """floor((A + sqrt(N)) / Q) for Q != 0 and a nonsquare N with isqrt(N) =
    r: A + sqrt(N) lies strictly between the integers A + r and A + r + 1,
    and so does no multiple of Q."""
    return (A + r) // Q if Q > 0 else -((A + r) // -Q) - 1


# exact values (a + b sqrt(D)) / c over the D of one surd


def _qmul(s: Tuple[int, int, int], t: Tuple[int, int, int], D: int) -> Tuple[int, int, int]:
    (a, b, c), (x, y, z) = s, t
    return a * x + b * y * D, a * y + b * x, c * z


def _qtriple(s: Tuple[int, int, int], D: int) -> Tuple[int, int, int]:
    """s as the record triple (P, N, Q) of (P + sqrt(N)) / Q, the fields of
    a QuadraticSurd; N = 0 for a rational."""
    a, b, c = s
    return (a, b * b * D, c) if b >= 0 else (-a, b * b * D, -c)


class QuadraticSurd(NamedTuple("QuadraticSurd", [("P", int), ("D", int), ("Q", int)])):
    """The real number (P + sqrt(D)) / Q with integer P, Q != 0 and D > 0
    not a perfect square.

    Kept in the normal form Q | D - P*P so the Gauss map x -> 1/(x - floor x)
    stays inside integer triples.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))

    def __new__(cls, P: int, D: int, Q: int):
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
            P, D, Q = P * abs(Q), D * Q * Q, Q * abs(Q)
        return tuple.__new__(cls, (P, D, Q))

    # the tuple order of (P, D, Q) is not the order of the values: refuse it
    __lt__ = __le__ = __gt__ = __ge__ = lambda self, other: NotImplemented

    def floor_scaled(self, bits: int) -> int:
        """Exact floor(value * 2**bits)."""
        return _floor_surd(self.P << bits, math.isqrt(self.D << (2 * bits)), self.Q)


class Rational(NamedTuple("Rational", [("num", int), ("den", int)])):
    """Exact rational alpha = num / den."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))

    def __new__(cls, num: int, den: int):
        if not isinstance(num, int) or not isinstance(den, int):
            raise AlphaSpecError("Rational takes integers")
        if den <= 0:
            raise AlphaSpecError("Rational.den must be positive")
        g = math.gcd(num, den)
        return tuple.__new__(cls, (num // g, den // g))


class ExplicitCF(NamedTuple("ExplicitCF", [("preperiod", Tuple[int, ...]),
                                           ("period", Tuple[int, ...])])):
    """Alpha given by continued-fraction digits.

    preperiod = (a_0, a_1, ..., a_k); period repeats forever after the
    preperiod.  An empty period means only the prefix is known: the value is
    then pinned down only to the interval of all possible continuations, and
    operations that need more certainty fail loudly instead of guessing.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))

    def __new__(cls, preperiod: Tuple[int, ...], period: Tuple[int, ...] = ()):
        pre = tuple(preperiod)
        per = tuple(period)
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
        return tuple.__new__(cls, (pre, per))


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


def _surd_period(spec: QuadraticSurd) -> Optional[Tuple[int, int, int]]:
    """(start, length, sup of a_j over j >= 1) of a surd's digit period, by
    the Gauss map on (P, Q) in O(1) memory; None past MAX_PERIOD_WALK
    digits.  By Galois' theorem (P + sqrt(D)) / Q is purely periodic iff
    reduced, 1 <= P <= r and r - P < Q <= r + P with r = isqrt(D), so the
    period runs from the first reduced state to its recurrence.  One from
    a_0 repeats it as a_L, so its sup counts a_0."""
    P, D, Q, r = spec.P, spec.D, spec.Q, math.isqrt(spec.D)
    start, state, top = None, None, 0
    for j in range(MAX_PERIOD_WALK + 1):
        if (P, Q) == state:
            return start, j - start, top
        if state is None and 0 < P <= r and r - P < Q <= r + P:
            start, state = j, (P, Q)
        a = _floor_surd(P, r, Q)
        if a > top and (j or start == 0):
            top = a
        P = a * Q - P
        Q = (D - P * P) // Q
    return None


def _digit_source(spec: AlphaSpec) -> Iterator[int]:
    """The digits a_0, a_1, ... of alpha; it ends where the expansion does.
    A rational runs Euclid, an ExplicitCF cycles its period after the
    preperiod (an empty period ends it), and a surd runs the Gauss map on
    (P, Q), recording the digits from its first reduced state (where its
    period starts, see _surd_period) and cycling them once that state
    recurs.  It holds the spec alone, never the expansion that draws on it,
    so an expansion is freed by reference counting, without a cycle."""
    if isinstance(spec, Rational):
        num, den = spec.num, spec.den
        while den:
            a, rem = divmod(num, den)
            yield a
            num, den = den, rem
    elif isinstance(spec, ExplicitCF):
        yield from chain(spec.preperiod, cycle(spec.period))
    else:
        P, D, Q, r = spec.P, spec.D, spec.Q, math.isqrt(spec.D)
        state, period = None, []
        while (P, Q) != state:
            if state is None and 0 < P <= r and r - P < Q <= r + P:
                state = (P, Q)
            a = _floor_surd(P, r, Q)
            if state:
                period.append(a)
            yield a
            P = a * Q - P
            Q = (D - P * P) // Q
        yield from cycle(period)


Ends = Tuple[int, int, int, int]  # bracket ends (x1, y1, x2, y2): [x1/y1, x2/y2], y > 0
_Q = itemgetter(1)  # q of a convergent (p, q)


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
        self._source = _digit_source(spec)
        self._scaled: dict = {}  # bits -> alpha0_scaled(bits)
        self._tails: dict = {}  # (m, bits) -> _tail_ends(self, m, bits)
        self._sup: dict = {}  # probe_depth -> digit_supremum(self, probe_depth)
        # quotient(j) at j - 1, the index of its first reduced state, and
        # whether that state has recurred
        self._states, self._reduced, self._closed = [], None, False
        self._extend(0)

    def _extend(self, m: int, q_min: Optional[int] = None) -> bool:
        """The one extension loop: draw digits under the lock until a_m
        exists or, given q_min, q_depth >= q_min (never past a_m); True when
        the target is met, which a thread that lost the race finds at once."""
        with self._lock:
            cv, digits = self.convergents, self.digits
            # the last two convergents, after (p_{-2}, q_{-2}) = (0, 1), (p_{-1}, q_{-1}) = (1, 0)
            (p2, q2), (p1, q1) = ([(0, 1), (1, 0)] + cv[-2:])[-2:]
            if q_min is None or q1 < q_min:
                for a in islice(self._source, max(0, m + 1 - len(digits))):
                    p1, p2, q1, q2 = a * p1 + p2, p1, a * q1 + q2, q1
                    cv.append((p1, q1))
                    digits.append(a)
                    if q_min is not None and q1 >= q_min:
                        break
            return len(digits) > m if q_min is None else q1 >= q_min

    # -- accessors ---------------------------------------------------------

    def ensure(self, m: int) -> bool:
        """Try to make digits a_0..a_m available; False if the expansion
        ends (rational) or the known prefix runs out first."""
        return m < len(self.digits) or self._extend(m)

    def ensure_q(self, q_min: int, m_max: int = 10 ** 9) -> bool:
        """Extend to the first depth j with q_j >= q_min and no further, but
        not past a_{m_max}; False if the expansion or m_max comes first."""
        return self.convergents[-1][1] >= q_min or self._extend(m_max, q_min)

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

    @cached_property
    def _period_walk(self) -> Optional[Tuple[int, int, int]]:
        """(start, length, sup of a_j over j >= 1) of the digit period: a
        surd's from _surd_period, an ExplicitCF's from its spec; None for a
        rational, a prefix and a surd past the walk cap."""
        if isinstance(self.spec, QuadraticSurd):
            return _surd_period(self.spec)
        pre, per = self.spec if isinstance(self.spec, ExplicitCF) else ((), ())
        return (len(pre), len(per), max(pre[1:] + per)) if per else None

    @cached_property
    def periodic(self) -> Optional[Period]:
        """(start, length) of _period_walk; a plain attribute once read."""
        return self._period_walk and self._period_walk[:2]

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

    def quotient(self, j: int) -> Tuple[int, int]:
        """(P_j, Q_j) of the complete quotient x_j = (P_j + sqrt(D)) / Q_j, j
        >= 1, over the D of _alpha0_surd: the Gauss map from alpha mod 1,
        walked once under the lock to x_j or to the recurrence of its first
        reduced state (Galois, see _surd_period), after which j is read at
        its phase: it holds at most the preperiod and one period."""
        states = self._states
        if j > len(states) and not self._closed:
            with self._lock:
                P, D, Q = self._alpha0_surd
                P, Q, r = *(states[-1] if states else (P, Q)), math.isqrt(D)
                while len(states) < j and not self._closed:
                    P = _floor_surd(P, r, Q) * Q - P
                    Q = (D - P * P) // Q
                    if self._reduced is None and 0 < P <= r and r - P < Q <= r + P:
                        self._reduced = len(states)
                    elif self._reduced is not None and (P, Q) == states[self._reduced]:
                        self._closed = True
                        break
                    states.append((P, Q))
        if j > len(states):
            j = self._reduced + 1 + (j - 1 - self._reduced) % (len(states) - self._reduced)
        return states[j - 1]

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
    a_e.  alpha = (p_e + x p_{e-1}) / (q_e + x q_{e-1}) with (p_-1, q_-1) =
    (1, 0), and alpha_m is its unimodular image (q_m p - p_m q) / (p_{m-1} q
    - q_{m-1} p), O(1) in the window; the pole p_{m-1} / q_{m-1} is outside
    the bracket, so both denominators share one sign."""
    cv = exp.convergents
    (pl, ql), (pm, qm) = cv[m - 1] if m else (1, 0), cv[m]
    (pf, qf), (pe, qe) = cv[e - 1] if e else (1, 0), cv[e]
    x1, y1 = qm * pe - pm * qe, pl * qe - ql * pe
    x2, y2 = x1 + qm * pf - pm * qf, y1 + pl * qf - ql * pf
    if y1 < 0:
        x1, y1, x2, y2 = -x1, -y1, -x2, -y2
    if exp.finite and e == exp.depth:
        return (x1, y1, x1, y1)
    return (x1, y1, x2, y2) if x1 * y2 < x2 * y1 else (x2, y2, x1, y1)


def _window_q(exp: CFExpansion, m: int, bits: int) -> int:
    """The q_e that ends alpha_m's window at bits (see _tail_ends); a_m known."""
    return 1 << (exp.convergents[m][1].bit_length() + (bits - GUARD) // 2 + 2)


def _tail_ends(exp: CFExpansion, m: int, bits: int) -> Ends:
    """The alpha_m bracket for the width target 2**(GUARD - bits): that of
    the shortest window a_{m+1}..a_e whose width meets the target, or of
    every digit there is when no window does (perhaps too wide for a digit
    prefix, the only expansion that comes here).  The window's ends have
    denominators y in [q_e / (2 q_m), 2 q_e / q_m] and its width is
    1 / (y1 y2), so the first e with q_e of bit_length(q_m) + (bits -
    GUARD) // 2 + 3 bits (_window_q) meets the target; the brackets are
    nested, so the shortest window is found by stepping back from there
    while the next shorter one still meets it.  A step needs no bracket:
    with Y_j = p_{m-1} q_j - q_{m-1} p_j (of one sign for j >= m, and
    Y_{m-1} = 0), window j has ends over |Y_j| and |Y_j| + |Y_{j-1}| whose
    cross difference is 1, so its width is 1 / (|Y_j| (|Y_j| + |Y_{j-1}|)),
    and |Y_{j-2}| = |Y_j| - a_j |Y_{j-1}|.  Raises when no digit beyond a_m
    exists.  Memoized per m and bits without a lock, as alpha0_scaled is:
    threads racing on a miss store equal ends, and every key of one m reads
    them.  A surd's bound columns are exact (metrics._bounds) and never
    come here."""
    if m < 0:
        raise OutOfRangeError("alpha_m defined for m >= 0")
    hit = exp._tails.get((m, bits))
    if hit is not None:
        return hit
    cv, e = exp.convergents, None
    if exp.ensure(m):
        q_min = _window_q(exp, m, bits)
        if exp.ensure_q(q_min):
            e = bisect.bisect_left(cv, q_min, m + 1, key=_Q)
    M = exp.depth
    if M <= m:
        raise PrecisionUnresolvedError(
            f"alpha_{m} needs digits beyond a_{M}; the known prefix is too short")
    e = M if e is None else e
    digits, target = exp.digits, 1 << (bits - GUARD)
    (pl, ql), (p, q), (pf, qf) = cv[m - 1] if m else (1, 0), cv[e], cv[e - 1]
    y, y_prev = abs(pl * q - ql * p), abs(pl * qf - ql * pf)
    while e > m + 1:
        y_pp = y - digits[e] * y_prev
        if y_prev * (y_prev + y_pp) < target:  # window e - 1 is too wide
            break
        y, y_prev, e = y_prev, y_pp, e - 1
    ends = exp._tails[m, bits] = _window_bracket(exp, m, e)
    return ends


# the most digits _surd_period walks for a surd's period (O(1) memory, 0.3 s)
MAX_PERIOD_WALK = 10 ** 6


def digit_supremum(exp: CFExpansion, probe_depth: int = 64) -> Tuple[int, str]:
    """sup over the digits a_j, j >= 1, memoized per expansion and probe_depth.

    Exact for terminating and periodic expansions; otherwise the max over
    the first probe_depth digits, flagged prefix-only; a periodic one's
    comes from exp._period_walk and draws no digit.  Raises
    PrecisionUnresolvedError for a surd whose preperiod and period do not
    fit in the first MAX_PERIOD_WALK digits.
    """
    if probe_depth < 1:
        raise ValueError("probe_depth must be >= 1")
    if probe_depth in exp._sup:
        return exp._sup[probe_depth]
    walk = exp._period_walk
    if walk is not None:
        sup = (walk[2], "exact")
    elif isinstance(exp.spec, QuadraticSurd):
        raise PrecisionUnresolvedError(
            f"the digit period of {alpha_to_string(exp.spec)} does not close "
            f"within the walk cap of {MAX_PERIOD_WALK} digits")
    elif exp.finite:
        exp.ensure(10 ** 9)
        sup = (max(exp.digits[1:], default=0), "exact")
    else:
        exp.ensure(probe_depth)
        sup = (max(exp.digits[1:probe_depth + 1], default=0), "prefix-only")
    exp._sup[probe_depth] = sup
    return sup


class Classification(NamedTuple):
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
_INT_TEXT = re.compile(r"\s*[+-]?\d+(?:_\d+)*\s*")  # the integer text int() reads


def _too_long(text: str, what: str) -> Optional[str]:
    """For integer text that int() refuses for its length alone, past
    sys.get_int_max_str_digits(), the error naming what, the digit count and
    the limit, not the text; None for any other text."""
    digits, limit = sum(map(str.isdigit, text)), sys.get_int_max_str_digits()
    if 0 < limit < digits and _INT_TEXT.fullmatch(text):
        return f"{what} has {digits} digits, above the limit of {limit} digits for an integer"


def _parse_int(tok: str, what: str) -> int:
    tok = tok.strip()
    if not re.fullmatch(r"-?\d+", tok):
        raise AlphaSpecError(f"{what}: expected an integer, got {tok!r}")
    if 0 < sys.get_int_max_str_digits() < len(tok.lstrip("-")):
        raise AlphaSpecError(_too_long(tok, what))
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
