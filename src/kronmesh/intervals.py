"""Decimal rendering of the values the package prints.

Every printed value is an integer ratio num / den rendered by one decimal
division (decimal_renderer), or an irrational surd (P + sqrt(N)) / Q from
one integer floor (surd_digits, surd_text).  An enclosure is printed as
its two ends rounded outward, so the printed interval still contains the
value.  _formatter is the one cell formatter over all of them.
"""
from __future__ import annotations

from decimal import ROUND_CEILING, ROUND_FLOOR, ROUND_HALF_EVEN
from decimal import Context, Decimal, getcontext, localcontext
from functools import lru_cache
from math import isqrt
from typing import Callable, Tuple

from .contfrac import _floor_surd


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


def _formatter(digits: int):
    """fmt(value, mode): a value at `digits`, once per distinct (value,
    mode), as the rows of a sweep repeat few distinct values: a ratio (num,
    den) by decimal_renderer, a surd triple (P, N, Q) by surd_digits and
    surd_text.  Mode "interval" gives the floor and ceiling of a triple, or
    of ends (x1, y1, x2, y2) of [x1/y1, x2/y2] the ends rounded outward."""
    render, done = decimal_renderer(digits), {}

    def fmt(value, mode: str = "nearest"):
        key = (value, mode)
        text = done.get(key)
        if text is None:
            if len(value) == 4:
                text = (render(*value[:2], "floor"), render(*value[2:], "ceil"))
            elif len(value) == 2:
                text = render(*value, mode)
            else:
                F = surd_digits(*value, digits)
                text = (surd_text(*F, digits, "floor"), surd_text(*F, digits, "ceil")) if (
                    mode == "interval") else surd_text(*F, digits, mode)
            done[key] = text
        return text

    return fmt


def surd_digits(P: int, N: int, Q: int, digits: int) -> Tuple[int, int]:
    """(F, k): F = floor(x * 10**(k + 1)) has digits + 1 digits, for x = (P
    + sqrt(N)) / Q > 0 and N nonsquare, so x is irrational and F cuts off a
    fraction.  The bit lengths bound log2 x from below, which puts the
    floor's exponent K at most a few digits too fine.
    Where P < 0 cancels sqrt(N), x = T / (|Q| (sqrt(N) + p)) for T = |N -
    P^2| and p = -P, with p (sqrt(N) + p) within T of W = 2 p^2: the floors
    of T p 10**K / (|Q| (W -+ T)) agree, and are x's, unless x * 10**K is
    within about T / p^2 of an integer; else sqrt(N * 100**K) gives it."""
    if digits < 1:
        raise ValueError("digits must be >= 1")
    if P < 0:
        T, W, Q_abs = abs(N - P * P), 2 * P * P, abs(Q)
        lo2 = T.bit_length() - Q.bit_length() - max((N.bit_length() + 1) >> 1, P.bit_length()) - 2
    else:
        W = T = 0
        lo2 = max(P.bit_length() - 1, (N.bit_length() - 1) >> 1) - Q.bit_length()
    # x * 10**K >= 10**(digits + 1 - lo2 (0.30103 - log10 2)) > 10**digits
    K = digits + 1 - lo2 * 30103 // 100000
    num, den = (_ten(K), 1) if K >= 0 else (1, _ten(-K))
    F = None
    if W > T:  # the floor of the upper end, if it is that of the lower end
        F, part = divmod(-P * T * num, (W - T) * Q_abs * den)
        F = F if part >= 2 * F * T * Q_abs * den else None
    if F is None:
        F = _floor_surd(P * num, isqrt(N * num * num), Q * den)
    cut = len(str(F)) - digits - 1
    return F // _ten(cut), K - cut - 1


def surd_text(F: int, k: int, digits: int, mode: str = "nearest") -> str:
    """surd_digits' value rounded by mode to `digits` digits, F // 10 or one
    more, at exponent -k: the text a Decimal division at that precision
    gives an inexact quotient."""
    D, last = divmod(F, 10)
    if mode == "nearest":
        D += last >= 5
    elif mode == "ceil":
        D += 1
    elif mode != "floor":
        raise KeyError(mode)
    if D == _ten(digits):  # rounded up to the next power of ten
        D, k = D // 10, k - 1
    return str(Decimal(f"{D}E{-k}"))


@lru_cache(maxsize=4096)
def _ten(k: int) -> int:
    return 10 ** k
