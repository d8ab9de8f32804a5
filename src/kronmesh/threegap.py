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

from dataclasses import dataclass
from typing import List, Optional, Tuple

from .contfrac import CFExpansion, DEFAULT_CONTEXT, PrecisionContext
from .errors import KronmeshError, OutOfRangeError
from .errors import PrecisionUnresolvedError, UnsupportedAlphaError
from .intervals import Interval, interval_to_decimal


@dataclass(frozen=True)
class LinearForm:
    """The real number u*alpha0 + v for integers u, v (alpha0 = alpha mod 1)."""

    u: int
    v: int

    def __add__(self, other: "LinearForm") -> "LinearForm":
        return LinearForm(self.u + other.u, self.v + other.v)

    def __sub__(self, other: "LinearForm") -> "LinearForm":
        return LinearForm(self.u - other.u, self.v - other.v)

    def __neg__(self) -> "LinearForm":
        return LinearForm(-self.u, -self.v)

    def scale(self, c: int) -> "LinearForm":
        return LinearForm(self.u * c, self.v * c)

    def enclosure(self, exp: CFExpansion, bits: int) -> Interval:
        # best-effort base enclosure: always valid, and for digit-prefix
        # alphas it stays usable past the prefix resolution instead of
        # failing; callers needing a width promise check it themselves
        return exp.alpha0_best_enclosure(bits).scale(self.u).shift(self.v)


ONE = LinearForm(0, 1)
ZERO = LinearForm(0, 0)


def eta(exp: CFExpansion, m: int) -> LinearForm:
    """eta_m as an exact linear form; m >= -1."""
    if m < -1:
        raise OutOfRangeError("eta_m defined for m >= -1")
    if m == -1:
        return LinearForm(0, 1)
    if not exp.ensure(m):
        raise OutOfRangeError(
            f"eta_{m} needs digit a_{m}; expansion ends at a_{exp.depth}"
        )
    prev, cur = LinearForm(0, 1), LinearForm(1, 0)
    for j in range(1, m + 1):
        prev, cur = cur, prev - cur.scale(exp.digits[j])
    return cur


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
    bits = ctx.bits
    while True:
        iv = form.enclosure(exp, bits)
        if not require_positive or iv.lo > 0 or iv.hi < 0:
            return iv
        if form.u == 0 and form.v == 0:
            return iv
        if bits >= ctx.max_bits:
            raise PrecisionUnresolvedError(
                f"sign of {form.u}*alpha+{form.v} unresolved at {bits} bits"
            )
        bits = min(2 * bits, ctx.max_bits)


@dataclass(frozen=True)
class Decomposition:
    m: int
    h: int
    k: int


@dataclass(frozen=True)
class GapStructure:
    n: int
    decomposition: Decomposition
    entries: Tuple[Tuple[LinearForm, int], ...]  # exactly three (length, count)


def decompose(exp: CFExpansion, n: int) -> Decomposition:
    """The unique (m, h, k) with n = n_m + h s_m + k in the ranges above."""
    if n < 1:
        raise ValueError("n must be >= 1")
    # extend until n_{m+1} > n, minding finite and prefix-only expansions
    while exp.n[-1] <= n:
        if not exp.ensure(exp.depth + 1):
            if exp.finite:
                raise UnsupportedAlphaError(
                    f"n = {n} reaches the periodic regime of a rational alpha "
                    f"(expansion ends at n_{exp.depth} = {exp.n[-1]})"
                )
            raise PrecisionUnresolvedError(
                f"digit prefix through a_{exp.depth} only brackets n < {exp.n[-1]}; "
                f"cannot decompose n = {n}"
            )
    m = len(exp.n) - 1
    while exp.n[m] > n:
        m -= 1
    h, k = divmod(n - exp.n[m], exp.s[m])
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
    checks = []

    middle = l1 + l3
    checks.append(
        IdentityCheck(
            "middle equals first plus third",
            middle == l2,
            f"({l1.u},{l1.v}) + ({l3.u},{l3.v}) = ({middle.u},{middle.v}) "
            f"vs ({l2.u},{l2.v})",
        )
    )

    total = l1.scale(c1) + l2.scale(c2) + l3.scale(c3)
    checks.append(
        IdentityCheck(
            "gaps tile the unit interval",
            total == ONE,
            f"sum of count*length = ({total.u},{total.v}), expected (0,1)",
        )
    )

    count = c1 + c2 + c3
    checks.append(
        IdentityCheck(
            "multiplicities sum to n",
            count == gs.n and min(c1, c2, c3) >= 0,
            f"{c1} + {c2} + {c3} = {count}, expected {gs.n}",
        )
    )
    return LengthsReport(tuple(checks))


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
