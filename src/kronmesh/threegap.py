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
exact integer assertions.  For a quadratic surd alpha0 = (P + sqrt(D)) / Q
a length is the exact (u P + v Q + u sqrt(D)) / Q, printed as its floor
and ceiling; a digit prefix's is an enclosure from the precision ladder.
"""
from __future__ import annotations

import bisect
from typing import NamedTuple, Tuple

from .contfrac import _Q, CFExpansion, DEFAULT_CONTEXT, PrecisionContext, _qtriple
from .errors import KronmeshError, OutOfRangeError
from .errors import PrecisionUnresolvedError, UnsupportedAlphaError
from .intervals import _formatter


class LinearForm(NamedTuple):
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


def eta(exp: CFExpansion, m: int) -> LinearForm:
    """eta_m as an exact linear form; m >= -1."""
    if m < -1:
        raise OutOfRangeError("eta_m defined for m >= -1")
    return ONE if m == -1 else LinearForm(*_etas(exp, m)[:2])


def _etas(exp: CFExpansion, m: int) -> Tuple[int, int, int, int]:
    """(u, v, u', v'): eta_m = u alpha0 + v and eta_{m-1} = u' alpha0 + v',
    m >= 0, in O(1) off the stored convergents p_j/q_j of alpha: eta_j =
    (-1)^j (q_j alpha0 - p'_j) with p'_j = p_j - a_0 q_j, the numerator of
    the convergent of alpha0, and (p_-1, q_-1) = (1, 0) gives eta_-1 = 1."""
    if not exp.ensure(m):
        raise OutOfRangeError(f"eta_{m} needs digit a_{m}; expansion ends at a_{exp.depth}")
    a0, cv = exp.digits[0], exp.convergents
    p, q = cv[m]
    pl, ql = cv[m - 1] if m else (1, 0)
    if m % 2:
        return -q, p - a0 * q, ql, a0 * ql - pl
    return q, a0 * q - p, -ql, pl - a0 * ql


def _form_rung(exp: CFExpansion, form: LinearForm, ctx: PrecisionContext) -> Tuple[int, int, int]:
    """The form's enclosure [lo, hi] / 2**bits as (lo, hi, bits), at the
    first rung from ctx.bits where it is strictly signed."""
    def attempt(bits):
        lo, hi = form.units(exp, bits)
        signed = lo > 0 or hi < 0
        return ((lo, hi, bits), None) if signed else (None, (hi - lo, 1 << bits))

    return ctx.escalate(attempt, ctx.bits, lambda: f"sign of {form.u}*alpha+{form.v}")


Decomposition = NamedTuple("Decomposition", [("m", int), ("h", int), ("k", int)])


class GapStructure(NamedTuple):
    n: int
    decomposition: Decomposition
    entries: Tuple[Tuple[LinearForm, int], ...]  # exactly three (length, count)


def decompose(exp: CFExpansion, n: int) -> Decomposition:
    """The unique (m, h, k) with n = n_m + h s_m + k in the ranges above."""
    if n < 1:
        raise ValueError("n must be >= 1")
    cv = exp.convergents  # s_m = q_m, n_m = q_m + q_{m-1}
    # extend to the first q_{m+1} > n (so n_{m+1} > n), minding finite and
    # prefix-only expansions, whose n_{m+1} may pass n at their last digit
    if not exp.ensure_q(n + 1) and cv[-1][1] + (cv[-2][1] if len(cv) > 1 else 0) <= n:
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
    if exp.finite:
        raise UnsupportedAlphaError(
            "gap structure needs irrational alpha; rational rotations "
            "degenerate (duplicate points) and are handled by the metrics path"
        )
    return _gap_structure(exp, n, decompose(exp, n))


def _gap_structure(exp: CFExpansion, n: int, d: Decomposition) -> GapStructure:
    """gap_structure for any alpha, from n's decomposition d: p/q has these
    gaps while n <= q."""
    m, h, k = d
    u, v, ul, vl = _etas(exp, m)
    s, sl = abs(u), abs(ul)  # s_m = q_m and s_{m-1} = q_{m-1}
    ul, vl = ul - h * u, vl - h * v  # eta_{m-1} - h eta_m
    return GapStructure(n, d, ((LinearForm(u, v), sl + h * s + k), (LinearForm(ul, vl), s - k),
                               (LinearForm(ul - u, vl - v), k)))


class IdentityCheck(NamedTuple):
    name: str
    passed: bool
    detail: str


class LengthsReport(NamedTuple):
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
    """JSON-ready dict with decimal interval strings for each length: for a
    surd alpha the floor and ceiling of its exact value at `digits`, one
    unit in the last place apart; else its enclosure rounded outward."""
    fmt, surd, entries = _formatter(digits), exp._alpha0_surd, []
    for form, count in gs.entries:
        if surd is None:
            lo, hi, bits = _form_rung(exp, form, ctx)
            value = (lo, 1 << bits, hi, 1 << bits)
        elif not form.u:  # the integer v, which a ladder rung renders as itself
            value = (form.v, 1, form.v, 1)
        else:
            P, D, Q = surd
            value = _qtriple((form.u * P + form.v * Q, form.u, Q), D)
        entries.append({"u": form.u, "v": form.v, "multiplicity": count,
                        "interval": list(fmt(value, "interval"))})
    d = gs.decomposition
    return {"n": gs.n, "m": d.m, "h": d.h, "k": d.k, "entries": entries}
