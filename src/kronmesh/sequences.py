"""Point-prefix generators: Kronecker, van der Corput, greedy packing.

Every generator lives on an integer lattice, and a PointSet stores its
points as integers xs over one modulus M: Kronecker of an irrational alpha
on 2**B, a rational p/q on q, van der Corput on b**k and greedy on 2**k.
Kronecker points of an irrational alpha are dyadic approximations carrying
a certificate: each stored value differs from the true point by at most
error_units / M < 2**-precision_bits, and the resolution is escalated until
no i*alpha straddles an integer at the working scale.  The other points are
exact rationals (precision_bits = None, error_units = 0).
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from typing import Iterable, Optional, Tuple, Union

from .contfrac import (
    AlphaSpec,
    CFExpansion,
    DEFAULT_CONTEXT,
    PrecisionContext,
    Rational,
    alpha_to_string,
)
from .errors import KronmeshError, PrecisionUnresolvedError
from .intervals import decimal_context


@dataclass(frozen=True)
class KroneckerGen:
    alpha: AlphaSpec

    def describe(self) -> str:
        return f"kronecker alpha={alpha_to_string(self.alpha)}"


@dataclass(frozen=True)
class VdcGen:
    base: int

    def __post_init__(self):
        if not isinstance(self.base, int) or self.base < 2:
            raise ValueError(f"van der Corput base must be an integer >= 2, got {self.base!r}")

    def describe(self) -> str:
        return f"vdc base={self.base}"


@dataclass(frozen=True)
class GreedyGen:
    tie_break: str = "leftmost"

    def __post_init__(self):
        if self.tie_break not in ("leftmost", "rightmost"):
            raise ValueError(f"tie_break must be leftmost or rightmost, got {self.tie_break!r}")

    def describe(self) -> str:
        return f"greedy tie_break={self.tie_break}"


GeneratorSpec = Union[KroneckerGen, VdcGen, GreedyGen]


@dataclass(frozen=True, init=False)
class PointSet:
    """An index-ordered prefix of a sequence in [0, 1], stored on a lattice.

    Point i is xs[i] / modulus, within error_units / modulus of the true
    point (0 for exact rationals); precision_bits is None when points are
    exact.  PointSet(points, n, ...) puts Fractions on the lattice of their
    common denominator; the generators build with PointSet.lattice.
    """

    xs: Tuple[int, ...]
    modulus: int
    error_units: int
    n: int
    precision_bits: Optional[int]
    generator_tag: str
    config: Optional[object] = field(default=None, compare=False)

    def __init__(self, points: Iterable, n: int, precision_bits: Optional[int],
                 generator_tag: str, error_bound=Fraction(0), config=None):
        pts = [Fraction(x) for x in points] + [Fraction(error_bound)]
        M = math.lcm(*(x.denominator for x in pts))
        *xs, err = (x.numerator * (M // x.denominator) for x in pts)
        self._set(tuple(xs), M, err, n, precision_bits, generator_tag, config)

    @classmethod
    def lattice(cls, xs: Tuple[int, ...], modulus: int, error_units: int,
                precision_bits: Optional[int], generator_tag: str, config=None):
        ps = cls.__new__(cls)
        ps._set(xs, modulus, error_units, len(xs), precision_bits, generator_tag, config)
        return ps

    def _set(self, *values) -> None:
        for name, value in zip(self.__dataclass_fields__, values):
            object.__setattr__(self, name, value)

    @property
    def points(self) -> Tuple[Fraction, ...]:
        """The points as Fractions, built on each access."""
        M = self.modulus
        return tuple(Fraction(x, M) for x in self.xs)

    @property
    def error_bound(self) -> Fraction:
        """Certified per-point absolute error."""
        return Fraction(self.error_units, self.modulus)

    def prefix(self, k: int) -> "PointSet":
        if not 1 <= k <= self.n:
            raise ValueError(f"prefix length {k} outside [1, {self.n}]")
        return PointSet.lattice(
            self.xs[:k], self.modulus, self.error_units, self.precision_bits,
            self.generator_tag, self.config,
        )

    def regenerate(self, bits: int) -> "PointSet":
        """Same prefix at a higher working precision (Kronecker only)."""
        if not isinstance(self.config, _KroneckerRun):
            return self
        cfg = self.config
        return _kronecker_at_scale(cfg.exp, self.n, cfg.ctx, bits)


@dataclass(frozen=True)
class _KroneckerRun:
    exp: CFExpansion
    ctx: PrecisionContext
    scale_bits: int


def working_scale_bits(ctx: PrecisionContext, n: int) -> int:
    """Scale exponent B used for i*alpha mod 1 at prefix length n: leaves
    room for the per-point drift i*U and a wrap-detection margin."""
    return ctx.bits + max(n - 1, 1).bit_length() + 16


def kronecker_scaled(
    exp: CFExpansion, n: int, scale_bits: int
) -> Tuple[list, int, int]:
    """(X, M, U) with X[i] = i*A mod M, M = 2**scale_bits, such that the true
    i*alpha mod 1 lies in [X[i]/M, (X[i] + i*U)/M] with no integer straddle.

    Raises PrecisionUnresolvedError when some multiple straddles an integer
    at this scale (caller escalates), or when a digit prefix cannot support
    the scale at all.
    """
    A, U = exp.alpha0_scaled(scale_bits)
    M = 1 << scale_bits
    xs = [0] * n
    x = 0
    for i in range(1, n):
        x += A
        if x >= M:
            x -= M
        if x + i * U >= M:
            raise PrecisionUnresolvedError(
                f"point {i} straddles an integer at scale 2**{scale_bits}"
            )
        xs[i] = x
    return xs, M, U


def kronecker(
    alpha: AlphaSpec, n: int, ctx: PrecisionContext = DEFAULT_CONTEXT,
    scale_bits: Optional[int] = None,
) -> PointSet:
    """x_i = i*alpha mod 1 for i = 0..n-1; x_0 = 0 exactly."""
    if n < 1:
        raise ValueError("n must be >= 1")
    spec = alpha.spec if isinstance(alpha, CFExpansion) else alpha
    if isinstance(spec, Rational):
        fr = spec.as_fraction()
        p, q = fr.numerator, fr.denominator
        return PointSet.lattice(tuple((i * p) % q for i in range(n)), q, 0,
                                None, "kronecker")
    exp = alpha if isinstance(alpha, CFExpansion) else CFExpansion(alpha)
    bits = scale_bits if scale_bits is not None else working_scale_bits(ctx, n)
    return _kronecker_at_scale(exp, n, ctx, bits)


def _kronecker_at_scale(
    exp: CFExpansion, n: int, ctx: PrecisionContext, scale_bits: int
) -> PointSet:
    bits = scale_bits
    while True:
        try:
            xs, M, U = kronecker_scaled(exp, n, bits)
            break
        except PrecisionUnresolvedError:
            if bits >= ctx.max_bits:
                raise
            bits = min(2 * bits, ctx.max_bits)
    err_units = max(n - 1, 1) * U
    err = Fraction(err_units, M)
    if err <= Fraction(1, 1 << ctx.bits):
        prec = ctx.bits
    else:
        # widest honest tag: 2**-prec still bounds err from above
        prec = max(1, (err.denominator // err.numerator).bit_length() - 1)
    return PointSet.lattice(
        tuple(xs), M, err_units, prec, "kronecker", _KroneckerRun(exp, ctx, bits)
    )


def van_der_corput(base: int, n: int) -> PointSet:
    """Digit-reversal radical inverse of 0..n-1 in the given base."""
    VdcGen(base)  # validates
    if n < 1:
        raise ValueError("n must be >= 1")
    # on the lattice base**k, k the digit count of n - 1, reversing the
    # digits of i = q*base + d puts d at the top place and shifts q's down
    M = 1
    while M < n:
        M *= base
    top = M // base
    xs = [0] * n
    for i in range(1, n):
        q, d = divmod(i, base)
        xs[i] = d * top + xs[q] // base
    return PointSet.lattice(tuple(xs), M, 0, None, "vdc")


def greedy_packing(n: int, tie_break: str = "leftmost") -> PointSet:
    """Farthest-point packing of [0, 1] starting from 1/2.

    Each new point maximizes the distance to the nearest placed point over
    the whole closed interval; candidates are the endpoints 0 and 1 (at
    their full distance to the nearest point) and midpoints of empty
    intervals (at half the interval length).  Ties go to the leftmost or
    rightmost candidate position.
    """
    GreedyGen(tie_break)  # validates
    if n < 1:
        raise ValueError("n must be >= 1")
    # after 1/2, 0 and 1 each point halves a longest interval, so the first
    # n points lie on the lattice 2**-k once 2**k + 1 >= n
    M = 1 << n.bit_length()
    chosen = [M // 2]
    placed = [M // 2]  # kept sorted
    # candidates are (2 * distance, sign * 2 * position): max() then breaks
    # ties at the leftmost (sign -1) or rightmost (sign +1) position
    sign = -1 if tie_break == "leftmost" else 1
    for _ in range(1, n):
        cands = [(2 * placed[0], 0), (2 * (M - placed[-1]), sign * 2 * M)]
        cands += [(b - a, sign * (a + b)) for a, b in zip(placed, placed[1:])]
        pos2 = sign * max(cands)[1]
        if pos2 % 2:
            raise KronmeshError(
                f"greedy point {len(chosen)} falls off the lattice 1/{M}"
            )
        chosen.append(pos2 // 2)
        bisect.insort(placed, pos2 // 2)
    return PointSet.lattice(tuple(chosen), M, 0, None, "greedy")


def generate(gen: GeneratorSpec, n: int, ctx: PrecisionContext = DEFAULT_CONTEXT) -> PointSet:
    if isinstance(gen, KroneckerGen):
        return kronecker(gen.alpha, n, ctx)
    if isinstance(gen, VdcGen):
        return van_der_corput(gen.base, n)
    if isinstance(gen, GreedyGen):
        return greedy_packing(n, gen.tie_break)
    raise ValueError(f"unknown generator spec {gen!r}")


def points_to_csv(ps: PointSet, digits: int = 40) -> str:
    lines = ["index,value"]
    with decimal_context(digits):
        M = Decimal(ps.modulus)
        lines.extend(f"{i},{Decimal(x) / M!s}" for i, x in enumerate(ps.xs))
    return "\n".join(lines) + "\n"


def points_to_json(ps: PointSet, digits: int = 40) -> dict:
    with decimal_context(digits):
        M = Decimal(ps.modulus)
        points = [str(Decimal(x) / M) for x in ps.xs]
    return {
        "generator": ps.generator_tag,
        "n": ps.n,
        "precision_bits": ps.precision_bits,
        "points": points,
    }
