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

import math
from decimal import Decimal
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Iterable, NamedTuple, Optional, Tuple, Union

from .contfrac import (
    AlphaSpec,
    CFExpansion,
    DEFAULT_CONTEXT,
    PrecisionContext,
    Rational,
)
from .errors import PrecisionUnresolvedError
from .intervals import decimal_context

# the most points one chunk of a dump renders and holds as text
BLOCK = 1024


class KroneckerGen(NamedTuple):
    alpha: AlphaSpec


class VdcGen(NamedTuple("VdcGen", [("base", int)])):
    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))

    def __new__(cls, base: int):
        if not isinstance(base, int) or base < 2:
            raise ValueError(f"van der Corput base must be an integer >= 2, got {base!r}")
        return tuple.__new__(cls, (base,))


class GreedyGen(NamedTuple("GreedyGen", [("tie_break", str)])):
    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))

    def __new__(cls, tie_break: str = "leftmost"):
        if tie_break not in ("leftmost", "rightmost"):
            raise ValueError(f"tie_break must be leftmost or rightmost, got {tie_break!r}")
        return tuple.__new__(cls, (tie_break,))


GeneratorSpec = Union[KroneckerGen, VdcGen, GreedyGen]


class PointSet(NamedTuple("PointSet", [
        ("xs", Tuple[int, ...]), ("modulus", int), ("error_units", int), ("n", int),
        ("precision_bits", Optional[int]), ("generator_tag", str)])):
    """An index-ordered prefix of a sequence in [0, 1], stored on a lattice.

    Point i is xs[i] / modulus, within error_units / modulus of the true
    point (0 for exact rationals); precision_bits is None when points are
    exact.  PointSet(points, n, ...) puts Fractions on the lattice of their
    common denominator; the generators build with PointSet.lattice.  config
    (the generator's state) is not a field, so == and hash ignore it.
    """

    config = property(lambda self: self.__dict__.get("config"))

    def __new__(cls, points: Iterable, n: int, precision_bits: Optional[int],
                generator_tag: str, error_bound=Fraction(0), config=None):
        pts = [Fraction(x) for x in points] + [Fraction(error_bound)]
        M = math.lcm(*(x.denominator for x in pts))
        *xs, err = (x.numerator * (M // x.denominator) for x in pts)
        return cls._with((tuple(xs), M, err, n, precision_bits, generator_tag), config)

    @classmethod
    def lattice(cls, xs: Tuple[int, ...], modulus: int, error_units: int,
                precision_bits: Optional[int], generator_tag: str, config=None):
        return cls._with((xs, modulus, error_units, len(xs), precision_bits, generator_tag),
                         config)

    @classmethod
    def _with(cls, fields: tuple, config) -> "PointSet":
        ps = tuple.__new__(cls, fields)
        ps.__dict__["config"] = config
        return ps

    def __reduce__(self):  # copy and pickle: the fields are not __new__'s arguments
        return PointSet._with, (tuple(self), self.config)

    @property
    def points(self) -> Tuple[Fraction, ...]:
        """The points as Fractions, built on each access."""
        M = self.modulus
        return tuple(Fraction(x, M) for x in self.xs)

    @property
    def error_bound(self) -> Fraction:
        """Certified per-point absolute error."""
        return Fraction(self.error_units, self.modulus)


class _KroneckerRun(NamedTuple):
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

    Every X[i] + i*U is at most max(X) + (n - 1)*U, so one comparison clears
    the whole prefix; only when that bound reaches M are the points scanned
    for the first straddle.  Raises PrecisionUnresolvedError when some
    multiple straddles an integer at this scale (caller escalates), or when
    a digit prefix cannot support the scale at all.
    """
    A, U = exp.alpha0_scaled(scale_bits)
    M = 1 << scale_bits
    mask = M - 1  # 0 <= A < M, so i*A mod M is a mask of the product
    xs = [(i * A) & mask for i in range(n)]
    if max(xs, default=0) + (n - 1) * U >= M:
        for i, x in enumerate(xs):
            if x + i * U >= M:
                raise PrecisionUnresolvedError(
                    f"point {i} straddles an integer at scale 2**{scale_bits}"
                )
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
        p, q = spec.num, spec.den
        return PointSet.lattice(tuple((i * p) % q for i in range(n)), q, 0,
                                None, "kronecker")
    exp = alpha if isinstance(alpha, CFExpansion) else CFExpansion(alpha)

    def attempt(bits):
        try:
            return kronecker_scaled(exp, n, bits), None
        except PrecisionUnresolvedError:
            # the per-point error U / 2**bits: a digit prefix bounds alpha
            # only to its bracket, so there it stops halving
            return None, (exp.alpha0_scaled(bits)[1], 1 << bits)

    start = scale_bits if scale_bits is not None else working_scale_bits(ctx, n)
    xs, M, U = ctx.escalate(attempt, start,
                            lambda: f"integer straddles of the first {n} points")
    bits = M.bit_length() - 1
    err_units = max(n - 1, 1) * U
    if err_units << ctx.bits <= M:  # err_units / M <= 2**-ctx.bits
        prec = ctx.bits
    else:
        # widest honest tag: 2**-prec still bounds err_units / M from above
        prec = max(1, (M // err_units).bit_length() - 1)
    return PointSet.lattice(
        tuple(xs), M, err_units, prec, "kronecker", _KroneckerRun(exp, ctx, bits)
    )


def van_der_corput(base: int, n: int) -> PointSet:
    """Digit-reversal radical inverse of 0..n-1 in the given base."""
    VdcGen(base)  # validates
    if n < 1:
        raise ValueError("n must be >= 1")
    # on the lattice base**k, k the digit count of n - 1, reversing the
    # digits of i = d*base**j + r (r < base**j) puts d at place j + 1 below
    # the point: x_i = x_r + d*M/base**(j+1), so each block shifts the
    # prefix built so far, cut at n; only the first ceil(n / size) digits d
    # reach below n, so the work stays O(n) however large the base
    M = 1
    while M < n:
        M *= base
    xs = [0]
    step = M
    while len(xs) < n:
        size = len(xs)
        step //= base
        for off in range(step, min(base, -(-n // size)) * step, step):
            xs += [x + off for x in xs[:min(size, n - len(xs))]]
    return PointSet.lattice(tuple(xs), M, 0, None, "vdc")


def greedy_packing(n: int, tie_break: str = "leftmost") -> PointSet:
    """Farthest-point packing of [0, 1] starting from 1/2.

    Each new point maximizes the distance to the nearest placed point over
    the whole closed interval; candidates are the endpoints 0 and 1 (at
    their full distance to the nearest point) and midpoints of empty
    intervals (at half the interval length).  Ties go to the leftmost or
    rightmost candidate position.  The search has a closed form: after
    1/2, 0 and 1 (1 and 0 for rightmost) every point halves one of the
    equal longest intervals, so level k places the odd multiples of 2**-k,
    in increasing order for leftmost and decreasing for rightmost.
    """
    GreedyGen(tie_break)  # validates
    if n < 1:
        raise ValueError("n must be >= 1")
    # the first 2**k + 1 points fill levels 1..k, so 2**k > n holds them all
    M = 1 << n.bit_length()
    leftmost = tie_break == "leftmost"
    xs = [M // 2, 0, M] if leftmost else [M // 2, M, 0]
    step = M // 2
    while len(xs) < n:
        level = range(step // 2, M, step)
        xs.extend(level if leftmost else reversed(level))
        step //= 2
    return PointSet.lattice(tuple(xs[:n]), M, 0, None, "greedy")


def generate(gen: GeneratorSpec, n: int, ctx: PrecisionContext = DEFAULT_CONTEXT) -> PointSet:
    if isinstance(gen, KroneckerGen):
        return kronecker(gen.alpha, n, ctx)
    if isinstance(gen, VdcGen):
        return van_der_corput(gen.base, n)
    if isinstance(gen, GreedyGen):
        return greedy_packing(n, gen.tie_break)
    raise ValueError(f"unknown generator spec {gen!r}")


def _point_strings(xs, M: int, digits: int) -> list:
    """str(Decimal(x) / Decimal(M)) at d = digits significant digits,
    rounded half even, for each x in xs (0 <= x <= M).  Three kinds of
    modulus render in integers where cheap tests on x prove the Decimal text:

    - M = 2**B with B > d + 1 (irrational Kronecker).  For x in
      (M//10, M - ceil(M/2 / 10**d)) with a set bit below bit B-1-d, x/M
      lies in [0.1, 1), is neither a d-digit decimal nor a tie, and does
      not round up to 1, so its text is d digits of round(x * 10**d / M).
    - M = 2**a * 5**b with K = max(a, b) <= d (van der Corput in bases 2, 5
      and 10, greedy).  Every x/M is exact in K places, and for
      M//10**6 < x < M it prints without an exponent and without the
      trailing zeros an exact quotient drops.

    - M prime to 10 (van der Corput in base 3, rat:p/q with such a q).  No
      x/M in (0, 1) terminates or is a tie, so for x in (M//10, M -
      ceil(M/2 / 10**d)) its text is d digits of round(x * 10**d / M).

    Every other x (0, M, values below 0.1 on the first and third paths and
    below 1e-6 on the second, other moduli, d too wide for the modulus) is
    a Decimal division.
    """
    a = (M & -M).bit_length() - 1
    b, odd = 0, M >> a
    while odd % 5 == 0:
        b, odd = b + 1, odd // 5
    with decimal_context(digits):
        DM = Decimal(M)
        if odd == 1 and b == 0 and a > digits + 1:
            P, H, mask = 10 ** digits, M >> 1, (1 << (a - 1 - digits)) - 1
            lo, hi = M // 10, M + (-H // P)
            return ["0." + str((x * P + H) >> a) if lo < x < hi and x & mask
                    else str(Decimal(x) / DM) for x in xs]
        if odd == M:  # a = b = 0
            P, lo, hi = 2 * 10 ** digits, M // 10, M + (-M // (2 * 10 ** digits))
            return ["0." + str((x * P + M) // (2 * M)) if lo < x < hi
                    else str(Decimal(x) / DM) for x in xs]
        K = max(a, b)
        if odd == 1 and K <= digits:
            F, lo = 10 ** K // M, M // 10 ** 6
            return ["0." + str(x * F).rjust(K, "0").rstrip("0") if lo < x < M
                    else str(Decimal(x) / DM) for x in xs]
        return [str(Decimal(x) / DM) for x in xs]


def _point_blocks(ps: PointSet, digits: int):
    """(i, _point_strings of xs[i:i + BLOCK]) for i = 0, BLOCK, 2*BLOCK, ..."""
    for i in range(0, len(ps.xs), BLOCK):
        yield i, _point_strings(ps.xs[i:i + BLOCK], ps.modulus, digits)


def points_to_csv(ps: PointSet, digits: int = 40) -> str:
    return "".join(_csv_point_chunks(ps, digits))


def _csv_point_chunks(ps: PointSet, digits: int):
    """points_to_csv in chunks of at most BLOCK lines."""
    yield "index,value\n"
    for i, values in _point_blocks(ps, digits):
        yield "".join([f"{j},{v}\n" for j, v in enumerate(values, i)])


def points_to_json(ps: PointSet, digits: int = 40) -> dict:
    return {**_json_point_fields(ps), "points": _point_strings(ps.xs, ps.modulus, digits)}


def _json_point_fields(ps: PointSet) -> dict:
    return {"generator": ps.generator_tag, "n": ps.n, "precision_bits": ps.precision_bits}


def _json_point_chunks(ps: PointSet, digits: int):
    """json.dumps(points_to_json(ps, digits), indent=2) + "\\n" in chunks of
    at most BLOCK points, written from a template of its shape: the header
    fields, then the array joined here, as a point string has digits, ".",
    "E" and "-" only (nothing to escape), the list is never empty (n >= 1),
    and it is the last key."""
    head = _json_point_fields(ps)
    bits = head["precision_bits"]
    sep = (f'{{\n  "generator": {encode_basestring_ascii(head["generator"])},\n'
           f'  "n": {head["n"]},\n  "precision_bits": {"null" if bits is None else bits},\n'
           '  "points": [\n    "')
    for _, values in _point_blocks(ps, digits):
        yield sep
        yield '",\n    "'.join(values)
        sep = '",\n    "'
    yield '"\n  ]\n}\n'
