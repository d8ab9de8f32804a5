"""Closed-form three-gap structure of Kronecker prefixes.

For irrational alpha, the first n points of i*alpha mod 1 cut [0, 1] into
gaps taking at most three distinct lengths.  With n decomposed as

    n = n_m + h s_m + k,     n_m <= n < n_{m+1},
    0 <= h <= a_{m+1} - 1,   0 <= k <= s_m - 1,

the lengths are eta_m, eta_{m-1} - h eta_m, eta_{m-1} - (h+1) eta_m with
multiplicities s_{m-1} + h s_m + k, s_m - k, k (zero counts retained so the
shape is always three entries).  Here eta_{-1} = 1, eta_0 = alpha mod 1 and
eta_{m+1} = eta_{m-1} - a_{m+1} eta_m.

Every length is carried as an exact integer pair (u, v) standing for
u*alpha0 + v; floats never appear, so the structural identities below are
exact integer assertions.
"""
from __future__ import annotations

import bisect
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import List, NamedTuple, Optional, Tuple

from .contfrac import CFExpansion, DEFAULT_CONTEXT, PrecisionContext
from .errors import KronmeshError, OutOfRangeError
from .errors import PrecisionUnresolvedError, UnsupportedAlphaError
from .intervals import Interval, interval_to_decimal

_Q = itemgetter(1)  # q of a convergent (p, q)


@dataclass(frozen=True)
class LinearForm:
    """The real number u*alpha0 + v for integers u, v (alpha0 = alpha mod 1)."""

    u: int
    v: int

    def __add__(self, other: "LinearForm") -> "LinearForm":
        return LinearForm(self.u + other.u, self.v + other.v)

    def __sub__(self, other: "LinearForm") -> "LinearForm":
        return LinearForm(self.u - other.u, self.v - other.v)

    def scale(self, c: int) -> "LinearForm":
        return LinearForm(self.u * c, self.v * c)

    def units(self, exp: CFExpansion, bits: int) -> Tuple[int, int]:
        """(lo, hi), the form in [lo, hi] / 2**bits: u*A + v*2**bits and that
        plus u*U for alpha0 * 2**bits in [A, A + U] (always valid; callers
        needing a width promise check it themselves)."""
        A, U = exp.alpha0_scaled(bits)
        lo = self.u * A + (self.v << bits)
        return (lo + self.u * U, lo) if self.u < 0 else (lo, lo + self.u * U)


ONE = LinearForm(0, 1)
ZERO = LinearForm(0, 0)


def eta(exp: CFExpansion, m: int) -> LinearForm:
    """eta_m as an exact linear form; m >= -1.

    Read in O(1) from the convergent p_m/q_m of alpha (stored with a_0):
    eta_m = (-1)^m (q_m alpha0 - p'_m) with p'_m = p_m - a_0 q_m, the
    numerator of the convergent of alpha0 = [0; a_1, a_2, ...].
    """
    if m < -1:
        raise OutOfRangeError("eta_m defined for m >= -1")
    if m == -1:
        return LinearForm(0, 1)
    if not exp.ensure(m):
        raise OutOfRangeError(
            f"eta_{m} needs digit a_{m}; expansion ends at a_{exp.depth}"
        )
    p, q = exp.convergents[m]
    u, v = q, exp.digits[0] * q - p
    return LinearForm(-u, -v) if m % 2 else LinearForm(u, v)


def eta_interval(
    exp: CFExpansion, m: int, ctx: PrecisionContext = DEFAULT_CONTEXT
) -> Interval:
    """Certified enclosure of eta_m, escalated until strictly positive."""
    form = eta(exp, m)
    return form_interval(exp, form, ctx, require_positive=True)


def form_interval(
    exp: CFExpansion,
    form: LinearForm,
    ctx: PrecisionContext = DEFAULT_CONTEXT,
    require_positive: bool = False,
) -> Interval:
    """Evaluate a linear form, escalating precision until the enclosure is
    strictly signed when asked to."""
    *ends, bits = _form_rung(exp, form, ctx, require_positive)
    return Interval(*(Fraction(x, 1 << bits) for x in ends))


def _form_rung(exp: CFExpansion, form: LinearForm, ctx: PrecisionContext,
               require_positive: bool) -> Tuple[int, int, int]:
    """form_interval as (lo, hi, bits): the enclosure [lo, hi] / 2**bits at
    the rung that decides it."""
    if not require_positive or form == ZERO:
        return (*form.units(exp, ctx.bits), ctx.bits)

    def attempt(bits):
        lo, hi = form.units(exp, bits)
        signed = lo > 0 or hi < 0
        return ((lo, hi, bits), None) if signed else (None, Fraction(hi - lo, 1 << bits))

    return ctx.escalate(attempt, ctx.bits, f"sign of {form.u}*alpha+{form.v}")


Decomposition = NamedTuple("Decomposition", [("m", int), ("h", int), ("k", int)])


@dataclass(frozen=True)
class GapStructure:
    n: int
    decomposition: Decomposition
    entries: Tuple[Tuple[LinearForm, int], ...]  # exactly three (length, count)


def decompose(exp: CFExpansion, n: int) -> Decomposition:
    """The unique (m, h, k) with n = n_m + h s_m + k in the ranges above."""
    if n < 1:
        raise ValueError("n must be >= 1")
    cv = exp.convergents  # s_m = q_m, n_m = q_m + q_{m-1}
    # extend until n_{m+1} > n (q_{m+1} > n settles it at one lookup),
    # minding finite and prefix-only expansions
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
    # q_m <= n_m <= q_{m+1}: the last q_j <= n has j = m or j = m + 1
    m = bisect.bisect_right(cv, n, key=_Q) - 1
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


def gap_structure(exp: CFExpansion, n: int) -> GapStructure:
    """The three (length, multiplicity) entries for the first n points."""
    if exp.is_rational:
        raise UnsupportedAlphaError(
            "gap structure needs irrational alpha; rational rotations "
            "degenerate (duplicate points) and are handled by the metrics path"
        )
    return _gap_structure(exp, n)


def _gap_structure(exp: CFExpansion, n: int) -> GapStructure:
    """gap_structure for any alpha: p/q has these gaps while n <= q."""
    d = decompose(exp, n)
    m, h, k = d.m, d.h, d.k
    e_m = eta(exp, m)
    e_prev = eta(exp, m - 1)
    lengths = (e_m, e_prev - e_m.scale(h), e_prev - e_m.scale(h + 1))
    counts = (exp.s_at(m - 1) + h * exp.s_at(m) + k, exp.s_at(m) - k, k)
    return GapStructure(n, d, tuple(zip(lengths, counts)))


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class LengthsReport:
    checks: Tuple[IdentityCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def lengths_check(gs: GapStructure) -> LengthsReport:
    """Exact integer verification of the structural identities."""
    (l1, c1), (l2, c2), (l3, c3) = gs.entries
    middle = l1 + l3
    total = l1.scale(c1) + l2.scale(c2) + l3.scale(c3)
    count = c1 + c2 + c3
    return LengthsReport((
        IdentityCheck("middle equals first plus third", middle == l2,
                      f"({l1.u},{l1.v}) + ({l3.u},{l3.v}) = ({middle.u},{middle.v}) "
                      f"vs ({l2.u},{l2.v})"),
        IdentityCheck("gaps tile the unit interval", total == ONE,
                      f"sum of count*length = ({total.u},{total.v}), expected (0,1)"),
        IdentityCheck("multiplicities sum to n", count == gs.n and min(c1, c2, c3) >= 0,
                      f"{c1} + {c2} + {c3} = {count}, expected {gs.n}"),
    ))


def gap_structure_json(
    gs: GapStructure,
    exp: CFExpansion,
    ctx: PrecisionContext = DEFAULT_CONTEXT,
    digits: int = 40,
) -> dict:
    """JSON-ready dict with decimal interval strings for each length."""
    entries = []
    for form, count in gs.entries:
        iv = form_interval(exp, form, ctx, require_positive=True)
        lo, hi = interval_to_decimal(iv, digits)
        entries.append(
            {"u": form.u, "v": form.v, "multiplicity": count, "interval": [lo, hi]}
        )
    d = gs.decomposition
    return {"n": gs.n, "m": d.m, "h": d.h, "k": d.k, "entries": entries}
