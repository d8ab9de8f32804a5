"""Closed intervals with Fraction endpoints, and decimal rendering.

An Interval is an enclosure container: one produced by the library always
contains the mathematical value it stands for.  It does no arithmetic.
Certified comparisons are integer work on scaled enclosure ends (u*A + v*2**B,
a bracket's numerators and denominators), so a comparison they decide is a
proof, and an overlap means "escalate precision and retry".

Every printed value is an integer ratio num / den rendered by one decimal
division (decimal_renderer); fraction_to_decimal renders a Fraction by its
numerator and denominator.
"""
from __future__ import annotations

from decimal import ROUND_CEILING, ROUND_FLOOR, ROUND_HALF_EVEN
from decimal import Context, Decimal, getcontext, localcontext
from fractions import Fraction
from typing import Callable, NamedTuple, Union

Rat = Union[int, Fraction]


class Interval(NamedTuple("Interval", [("lo", Fraction), ("hi", Fraction)])):
    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))

    def __new__(cls, lo: Rat, hi: Rat):
        # Fraction(x) of a Fraction costs a constructor call and an ABC check
        if type(lo) is not Fraction:
            lo = Fraction(lo)
        if type(hi) is not Fraction:
            hi = Fraction(hi)
        if lo > hi:
            raise ValueError(f"interval endpoints out of order: [{lo}, {hi}]")
        return tuple.__new__(cls, (lo, hi))

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2


_ROUNDING = {
    "floor": ROUND_FLOOR,
    "ceil": ROUND_CEILING,
    "nearest": ROUND_HALF_EVEN,
}


def _context(digits: int, mode: str) -> Context:
    """A copy of the current decimal context rounding to `digits`
    significant digits in the requested direction."""
    if digits < 1:
        raise ValueError("digits must be >= 1")
    dctx = getcontext().copy()
    dctx.prec = digits
    dctx.rounding = _ROUNDING[mode]
    return dctx


def decimal_context(digits: int, mode: str = "nearest"):
    """A local decimal context in which a division rounds to `digits`
    significant digits in the requested direction.  Decimal(a) / Decimal(b)
    then renders a / b the same whether or not the ratio is reduced."""
    return localcontext(_context(digits, mode))


def decimal_renderer(digits: int) -> Callable[..., str]:
    """render(num, den, mode="nearest"): num / den (den > 0) as a decimal
    string of `digits` significant digits, rounded in the requested
    direction.  The text depends on the value alone, not on whether the
    ratio is reduced: both operands are integers, so an exact quotient
    takes exponent 0 and drops its trailing zeros either way.  Each mode's
    context is made once, on its first use, so a bad `digits` raises there."""
    contexts = {}

    def render(num: int, den: int, mode: str = "nearest") -> str:
        ctx = contexts.get(mode)
        if ctx is None:
            ctx = contexts[mode] = _context(digits, mode)
        return str(ctx.divide(Decimal(num), Decimal(den)))

    return render


def fraction_to_decimal(x: Rat, digits: int, mode: str = "nearest") -> str:
    """Render an exact rational as a decimal string with `digits` significant
    digits, rounded in the requested direction."""
    if type(x) is not Fraction:
        x = Fraction(x)
    return decimal_renderer(digits)(x.numerator, x.denominator, mode)


def interval_to_decimal(iv: Interval, digits: int) -> tuple:
    """Outward-rounded decimal endpoints, so the printed pair still encloses
    the true value."""
    return (
        fraction_to_decimal(iv.lo, digits, "floor"),
        fraction_to_decimal(iv.hi, digits, "ceil"),
    )
