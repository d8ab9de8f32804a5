"""Exact continued-fraction engine.

Alpha is described exactly (quadratic surd, rational, or explicit digit
list), never as a float.  From the digits a_0; a_1, a_2, ... we derive
convergents p_m/q_m of the reduced tail [0; a_1, a_2, ...], the point
counts

    s_0 = 1,  s_1 = a_1,  s_{m+2} = a_{m+2} s_{m+1} + s_m,   s_{-1} := 0,
    n_0 = 1,  n_m = s_m + s_{m-1},

and certified enclosures of the tail values alpha_m = [0; a_{m+1}, ...].
All arithmetic is integer or Fraction arithmetic; big-float never enters.
"""
from __future__ import annotations

import math
import re
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Tuple, Union

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

    bits is the width target exponent, max_bits the escalation ceiling for
    comparisons that start ambiguous, guard the slack allowed per contract.
    """

    bits: int = 192
    max_bits: int = 65536
    guard: int = 8

    def __post_init__(self):
        if self.bits < 64:
            raise ValueError("PrecisionContext.bits must be >= 64")
        if self.max_bits < self.bits:
            raise ValueError("PrecisionContext.max_bits must be >= bits")
        if self.guard < 0:
            raise ValueError("PrecisionContext.guard must be >= 0")


DEFAULT_CONTEXT = PrecisionContext()


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


class QuadraticSurd:
    """The real number (P + sqrt(D)) / Q with integer P, Q != 0 and D > 0
    not a perfect square.

    Kept in the normal form Q | D - P*P so the Gauss map x -> 1/(x - floor x)
    stays inside integer triples.
    """

    __slots__ = ("P", "D", "Q")

    def __init__(self, P: int, D: int, Q: int):
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
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "D", D)
        object.__setattr__(self, "Q", Q)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("QuadraticSurd is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, QuadraticSurd)
            and (self.P, self.D, self.Q) == (other.P, other.D, other.Q)
        )

    def __hash__(self):
        return hash((self.P, self.D, self.Q))

    def __repr__(self):
        return f"QuadraticSurd(P={self.P}, D={self.D}, Q={self.Q})"

    def floor_scaled(self, bits: int) -> int:
        """Exact floor(value * 2**bits)."""
        return _floor_surd(self.P << bits, self.D << (2 * bits), self.Q)

    def floor(self) -> int:
        return self.floor_scaled(0)

    def enclosure(self, bits: int) -> Interval:
        f = self.floor_scaled(bits)
        unit = Fraction(1, 1 << bits)
        return Interval(f * unit, (f + 1) * unit)


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


@lru_cache(maxsize=None)
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


def _euclid_digits(fr: Fraction) -> list:
    digs = []
    num, den = fr.numerator, fr.denominator
    while True:
        a, rem = divmod(num, den)
        digs.append(a)
        if rem == 0:
            return digs
        num, den = den, rem


class CFExpansion:
    """Lazily extended continued-fraction data for one alpha.

    digits[j] holds a_j.  convergents[m] = (p_m, q_m) of [0; a_1, a_2, ...],
    and s[m], n[m] follow the recurrences in the module docstring.  Reads are
    safe from any thread; extension is serialized on an internal lock, and
    the produced values are deterministic regardless of thread count.
    """

    def __init__(self, spec: AlphaSpec):
        if not isinstance(spec, (QuadraticSurd, Rational, ExplicitCF)):
            raise AlphaSpecError(f"not an alpha description: {spec!r}")
        self.spec = spec
        self._lock = threading.RLock()
        self.digits: list = []
        self.convergents: list = []
        self.s: list = []
        self.n: list = []
        self.finite = False
        self.periodic: Optional[Tuple[int, int]] = None
        self._tail_cache: dict = {}

        if isinstance(spec, Rational):
            self._rational_digits = _euclid_digits(spec.as_fraction())
            self.finite = True
        elif isinstance(spec, QuadraticSurd):
            self._gauss_state = (spec.P, spec.Q)
            self._seen: dict = {}
        else:
            if spec.period:
                self.periodic = (len(spec.preperiod), len(spec.period))
        self._extend_locked(0)

    # -- digit production -------------------------------------------------

    def _next_digit(self, j: int) -> Optional[int]:
        spec = self.spec
        if isinstance(spec, Rational):
            if j < len(self._rational_digits):
                return self._rational_digits[j]
            return None
        if isinstance(spec, QuadraticSurd):
            P, Q = self._gauss_state
            if self.periodic is None:
                key = (P, Q)
                if key in self._seen:
                    self.periodic = (self._seen[key], j - self._seen[key])
                else:
                    self._seen[key] = j
            a = _floor_surd(P, spec.D, Q)
            P1 = a * Q - P
            self._gauss_state = (P1, (spec.D - P1 * P1) // Q)
            return a
        pre, per = spec.preperiod, spec.period
        if j < len(pre):
            return pre[j]
        if per:
            return per[(j - len(pre)) % len(per)]
        return None

    def _extend_locked(self, m_target: int) -> bool:
        with self._lock:
            while len(self.digits) <= m_target:
                j = len(self.digits)
                a = self._next_digit(j)
                if a is None:
                    return False
                self.digits.append(a)
                if j == 0:
                    # p_0/q_0 = a_0/1; s and n track the fractional
                    # expansion [0; a_1, ...] so their bases ignore a_0
                    self.convergents.append((a, 1))
                    self.s.append(1)
                    self.n.append(1)
                elif j == 1:
                    a0 = self.digits[0]
                    self.convergents.append((a * a0 + 1, a))
                    self.s.append(a)
                    self.n.append(a + 1)
                else:
                    p1, q1 = self.convergents[-1]
                    p2, q2 = self.convergents[-2]
                    self.convergents.append((a * p1 + p2, a * q1 + q2))
                    self.s.append(a * self.s[-1] + self.s[-2])
                    self.n.append(self.s[-1] + self.s[-2])
            return True

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
        return self.s[m]

    def n_at(self, m: int) -> int:
        if m < 0:
            raise OutOfRangeError("n_m defined for m >= 0")
        if not self.ensure(m):
            raise OutOfRangeError(f"n_{m} needs digit a_{m}; expansion ends at a_{self.depth}")
        return self.n[m]

    def convergent(self, m: int) -> Tuple[int, int]:
        if m < 0:
            raise OutOfRangeError("convergent index must be >= 0")
        if not self.ensure(m):
            raise OutOfRangeError(f"p_{m}/q_{m} needs digit a_{m}; expansion ends at a_{self.depth}")
        return self.convergents[m]

    @property
    def is_rational(self) -> bool:
        return isinstance(self.spec, Rational)

    # -- certified value enclosures -----------------------------------------

    def _alpha0_surd(self) -> Optional[QuadraticSurd]:
        """Exact surd equal to alpha mod 1, when one exists."""
        spec = self.spec
        if isinstance(spec, QuadraticSurd):
            a0 = self.digit(0)
            if a0 == 0:
                return spec
            return QuadraticSurd(spec.P - a0 * spec.Q, spec.D, spec.Q)
        if isinstance(spec, ExplicitCF) and spec.period:
            return _periodic_tail_surd(spec.preperiod[1:], spec.period)
        return None

    def _prefix_bracket(self) -> Interval:
        """Enclosure of alpha mod 1 for a digit prefix with unknown
        continuation: between the last convergent and the next mediant."""
        self.ensure(len(self.spec.preperiod) - 1)
        M = self.depth
        if M < 1:
            raise PrecisionUnresolvedError(
                "no digits beyond a_0; alpha mod 1 is unconstrained in [0, 1]"
            )
        a0 = self.digits[0]
        pM, qM = self.convergents[M]
        pP, qP = self.convergents[M - 1]
        end = Fraction(pM - a0 * qM, qM)
        mediant = Fraction((pM + pP) - a0 * (qM + qP), qM + qP)
        return Interval(min(end, mediant), max(end, mediant))

    def alpha0_scaled(self, bits: int) -> Tuple[int, int]:
        """(A, U) with (alpha mod 1) * 2**bits in [A, A + U]; U = 1 whenever
        the value is exactly known."""
        spec = self.spec
        if isinstance(spec, Rational):
            x = spec.as_fraction()
            x -= math.floor(x)
            num = x.numerator << bits
            A, rem = divmod(num, x.denominator)
            return (A, 1 if rem else 0)
        surd = self._alpha0_surd()
        if surd is not None:
            return (surd.floor_scaled(bits), 1)
        iv = self._prefix_bracket()
        A = (iv.lo.numerator << bits) // iv.lo.denominator
        hi_num = iv.hi.numerator << bits
        U = -((-hi_num) // iv.hi.denominator) - A
        return (A, max(U, 1))

    def alpha0_best_enclosure(self, bits: int) -> Interval:
        """Valid enclosure of alpha mod 1 at scale 2**-bits; the width may
        exceed 2**-bits when only a digit prefix constrains the value."""
        A, U = self.alpha0_scaled(bits)
        unit = Fraction(1, 1 << bits)
        return Interval(A * unit, (A + U) * unit)


def expand(alpha: AlphaSpec, m_max: int) -> CFExpansion:
    """Digits a_0..a_{m_max} (or to termination) with convergents, s, n."""
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    exp = CFExpansion(alpha)
    exp.ensure(m_max)
    return exp


def s_and_n(exp: CFExpansion, m: int) -> Tuple[int, int]:
    """Exact (s_m, n_m) per the recurrences; m >= 0."""
    return (exp.s_at(m), exp.n_at(m))


def alpha_tail(exp: CFExpansion, m: int, ctx: PrecisionContext = DEFAULT_CONTEXT) -> Interval:
    """Certified enclosure of alpha_m = [0; a_{m+1}, a_{m+2}, ...].

    Evaluated by the backward recurrence x -> 1/(a_j + x) over a digit
    window, seeding the unknown remainder with [0, 1] and growing the window
    until the width target 2**(guard - bits) is met.  Terminating tails come
    out exact.
    """
    if m < 0:
        raise OutOfRangeError("alpha_m defined for m >= 0")
    key = (m, ctx.bits, ctx.guard)
    cached = exp._tail_cache.get(key)
    if cached is not None:
        return cached
    target = Fraction(1, 1 << (ctx.bits - ctx.guard))

    if exp.finite:
        exp.ensure(10 ** 9)  # rational digits are finite; materialize all
        M = exp.depth
        if m >= M:
            raise UnsupportedAlphaError(
                f"alpha_{m} needs digits beyond a_{M}, but the expansion terminates"
            )
        x = Fraction(0)
        for j in range(M, m, -1):
            x = 1 / (exp.digits[j] + x)
        iv = Interval.point(x)
        exp._tail_cache[key] = iv
        return iv

    def backward(window_end: int, seed: Interval) -> Interval:
        x = seed
        for j in range(window_end, m, -1):
            a = exp.digits[j]
            x = Interval(1 / (a + x.hi), 1 / (a + x.lo))
        return x

    w = max(16, (3 * (ctx.bits - ctx.guard)) // 4)
    while True:
        if not exp.ensure(m + w):
            M = exp.depth
            if M <= m:
                raise PrecisionUnresolvedError(
                    f"alpha_{m} needs digits beyond a_{M}; the known prefix is too short"
                )
            iv = backward(M, Interval(Fraction(0), Fraction(1)))
            if iv.width <= target:
                break
            raise PrecisionUnresolvedError(
                f"alpha_{m} certified only to width {float(iv.width):.3e} from digits "
                f"through a_{M}; need roughly depth {m + w} for width 2**-{ctx.bits - ctx.guard}"
            )
        iv = backward(m + w, Interval(Fraction(0), Fraction(1)))
        if iv.width <= target:
            break
        w *= 2
    exp._tail_cache[key] = iv
    return iv


def alpha_tail_best(exp: CFExpansion, m: int, ctx: PrecisionContext = DEFAULT_CONTEXT) -> Interval:
    """alpha_tail without the width guarantee.

    When only a digit prefix constrains the tail, returns the tightest
    enclosure that prefix supports instead of raising.  Still raises when no
    digit beyond a_m is known (the enclosure would be all of [0, 1]).
    """
    try:
        return alpha_tail(exp, m, ctx)
    except PrecisionUnresolvedError:
        M = exp.depth
        if M <= m:
            raise
        x = Interval(Fraction(0), Fraction(1))
        for j in range(M, m, -1):
            a = exp.digits[j]
            x = Interval(1 / (a + x.hi), 1 / (a + x.lo))
        return x


def digit_supremum(exp: CFExpansion, probe_depth: int = 64) -> Tuple[int, str]:
    """sup over the digits a_j, j >= 1.

    Exact for terminating and periodic expansions; otherwise the max over
    the first probe_depth digits, flagged prefix-only.
    """
    if probe_depth < 1:
        raise ValueError("probe_depth must be >= 1")
    if exp.finite:
        exp.ensure(10 ** 9)
        return (max(exp.digits[1:], default=0), "exact")
    if isinstance(exp.spec, QuadraticSurd):
        # extend until the Gauss map revisits a state (Lagrange guarantees it)
        while exp.periodic is None:
            exp.ensure(exp.depth + 64)
    if exp.periodic is not None:
        pre_len, per_len = exp.periodic
        start = max(1, pre_len)
        exp.ensure(start + per_len - 1)
        return (max(exp.digits[1:start + per_len]), "exact")
    exp.ensure(probe_depth)
    hi = min(probe_depth, exp.depth)
    return (max(exp.digits[1:hi + 1], default=0), "prefix-only")


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
