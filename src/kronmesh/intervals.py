"""Closed intervals with Fraction endpoints.

All certified real comparisons in this package reduce to exact rational
arithmetic on enclosures [lo, hi].  An interval produced by the library
always contains the mathematical value it stands for, so a comparison
that succeeds on intervals is a proof, and an overlap means "escalate
precision and retry".
"""
from __future__ import annotations

from dataclasses import dataclass
from decimal import ROUND_CEILING, ROUND_FLOOR, ROUND_HALF_EVEN
from decimal import Decimal, getcontext, localcontext
from fractions import Fraction
from typing import Union

Rat = Union[int, Fraction]


@dataclass(frozen=True)
class Interval:
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", Fraction(self.lo))
        object.__setattr__(self, "hi", Fraction(self.hi))
        if self.lo > self.hi:
            raise ValueError(f"interval endpoints out of order: [{self.lo}, {self.hi}]")

    @staticmethod
    def point(x: Rat) -> "Interval":
        x = Fraction(x)
        return Interval(x, x)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def __add__(self, other: "Interval") -> "Interval":
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other: "Interval") -> "Interval":
        return Interval(self.lo - other.hi, self.hi - other.lo)

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def scale(self, c: Rat) -> "Interval":
        if c >= 0:
            return Interval(self.lo * c, self.hi * c)
        return Interval(self.hi * c, self.lo * c)

    def shift(self, c: Rat) -> "Interval":
        return Interval(self.lo + c, self.hi + c)

    def reciprocal(self) -> "Interval":
        # only for intervals bounded away from zero
        if self.lo <= 0 <= self.hi:
            raise ZeroDivisionError(f"reciprocal of interval containing 0: [{self.lo}, {self.hi}]")
        return Interval(1 / self.hi, 1 / self.lo)

    def __truediv__(self, other: "Interval") -> "Interval":
        r = other.reciprocal()
        cands = (self.lo * r.lo, self.lo * r.hi, self.hi * r.lo, self.hi * r.hi)
        return Interval(min(cands), max(cands))

    def min_with(self, other: "Interval") -> "Interval":
        return Interval(min(self.lo, other.lo), min(self.hi, other.hi))

    def max_with(self, other: "Interval") -> "Interval":
        return Interval(max(self.lo, other.lo), max(self.hi, other.hi))


_ROUNDING = {
    "floor": ROUND_FLOOR,
    "ceil": ROUND_CEILING,
    "nearest": ROUND_HALF_EVEN,
}


def decimal_context(digits: int, mode: str = "nearest"):
    """A local decimal context in which a division rounds to `digits`
    significant digits in the requested direction.  Decimal(a) / Decimal(b)
    then renders a / b the same whether or not the ratio is reduced."""
    if digits < 1:
        raise ValueError("digits must be >= 1")
    dctx = getcontext().copy()
    dctx.prec = digits
    dctx.rounding = _ROUNDING[mode]
    return localcontext(dctx)


def fraction_to_decimal(x: Rat, digits: int, mode: str = "nearest") -> str:
    """Render an exact rational as a decimal string with `digits` significant
    digits, rounded in the requested direction."""
    x = Fraction(x)
    with decimal_context(digits, mode):
        return str(Decimal(x.numerator) / Decimal(x.denominator))


def interval_to_decimal(iv: Interval, digits: int) -> tuple:
    """Outward-rounded decimal endpoints, so the printed pair still encloses
    the true value."""
    return (
        fraction_to_decimal(iv.lo, digits, "floor"),
        fraction_to_decimal(iv.hi, digits, "ceil"),
    )
