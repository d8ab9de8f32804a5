"""Quasi-uniformity metrics: fill distance, separation radius, mesh ratio.

For a prefix x_0..x_{n-1} in [0, 1] sorted ascending,

    h_n = max(left boundary, right boundary, max interior gap / 2)
    q_n = min interior gap / 2          (0 when points repeat)
    rho_n = h_n / q_n                   (+inf marker when q_n = 0)

h_n here is the sup over the whole closed domain of the distance to the
nearest point, so boundary distances enter unhalved.  Sweeps and analyses
build no points.  A Kronecker prefix reads its gaps off the three-gap forms
u*alpha0 + v: exactly for a quadratic surd (below) and at (p mod q)/q for
alpha = p/q, n <= q (past q a point repeats), and at alpha0 ~ A / 2**B for
a digit prefix and a stored Kronecker run (the gaps of the sorted lattice
points i*A mod 2**B).  van der Corput and greedy prefixes have closed-form
gaps.  Only a stored PointSet that is not a Kronecker run is sorted, once.
For Kronecker prefixes the module also evaluates the closed-form bounds

    upper:  2 (1 - h alpha_m) / min(alpha_m, 1 - (h+1) alpha_m)
    lower:  1 / alpha_m   at n = n_m, m >= 3
            a_{m+1} + 1/(a_{m+2} + 1) <= 1 / alpha_m   (digit form)

and rho_n at huge n = n_m from the gap forms (provenance
"structure-exact"), certified intervals for a digit prefix.  A quadratic
surd's forms are eta_m * {1, x - h, x - h - 1} at every n, x = x_{m+1} =
1 / alpha_m, so every path evaluates its metrics exactly (_surd_structural).

Every value is born as integers (lattice units over 2 M, rung ends over
2**B, bracket ends, surds), and the records keep it so, as unreduced
ratios (num, den) with den > 0, rendered by one decimal division each, or
as triples (P, N, Q) of (P + sqrt(N)) / Q; a Fraction or QuadraticSurd is
built only when a record's property is read.
"""
from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache, partial
from itertools import islice
from json.encoder import encode_basestring_ascii
from typing import Callable, List, NamedTuple, Optional, Tuple, Union

from .contfrac import (
    CFExpansion,
    DEFAULT_CONTEXT,
    PrecisionContext,
    QuadraticSurd,
    _qmul,
    _qtriple,
    _tail_ends,
    digit_supremum,
)
from .errors import KronmeshError, PrecisionUnresolvedError, UnsupportedAlphaError
from .intervals import _formatter
from .sequences import (
    GeneratorSpec,
    GreedyGen,
    KroneckerGen,
    PointSet,
    VdcGen,
    _KroneckerRun,
    working_scale_bits,
)
from .threegap import (Decomposition, GapStructure, LinearForm, _form_rung,
                       _gap_structure, decompose, gap_structure)

INF = math.inf


Ratio = Tuple[int, int]  # the value num / den, den > 0, not reduced
Value = Tuple[int, ...]  # a Ratio, or (P, N, Q) for the irrational (P + sqrt(N)) / Q


def _value(v: Value) -> Union[Fraction, QuadraticSurd]:
    return QuadraticSurd(*v) if len(v) == 3 else Fraction(*v)


class QUMetrics(NamedTuple):
    """Fill h_n, separation q_n, mesh ratio rho_n and an error bound on
    them, each an unreduced integer ratio (num, den), or a surd's exact
    triple; the properties build the Fraction or QuadraticSurd on access."""
    n: int
    fill_nd: Value
    separation_nd: Value
    rho_nd: Optional[Value]             # None marks duplicate points (mesh_ratio inf)
    provenance: str                     # oracle-exact | structure-exact
    error_nd: Ratio = (0, 1)

    fill = property(lambda self: _value(self.fill_nd))
    separation = property(lambda self: _value(self.separation_nd))
    mesh_ratio = property(lambda self: INF if self.rho_nd is None else _value(self.rho_nd))
    error_bound = property(lambda self: Fraction(*self.error_nd))
    is_infinite = property(lambda self: self.rho_nd is None)


def _bound_pair(ends) -> Union[Tuple[Fraction, Fraction], QuadraticSurd]:
    if len(ends) == 3:
        return QuadraticSurd(*ends)
    x1, y1, x2, y2 = ends
    return Fraction(x1, y1), Fraction(x2, y2)


class BoundReport(NamedTuple):
    """The bounds of one n: the upper bound and the lower bound at n_m as
    unreduced ends (x1, y1, x2, y2) of [x1/y1, x2/y2] with y > 0, or a
    surd's exact triple, and the digit form as a ratio; upper and
    lower_at_nm build the pair (x1/y1, x2/y2) of Fractions or the
    QuadraticSurd, and lower_digit_form the Fraction."""
    n: int
    m: int
    h: int
    k: int
    upper_ends: Value
    lower_ends: Optional[Value]
    digit_form_nd: Optional[Ratio]  # a lower bound on lower_at_nm, from two digits
    global_upper: Optional[int]

    upper = property(lambda self: _bound_pair(self.upper_ends))
    lower_at_nm = property(lambda self: _bound_pair(self.lower_ends) if self.lower_ends else None)
    lower_digit_form = property(lambda self: Fraction(*self.digit_form_nd)
                                if self.digit_form_nd else None)


def _lattice_metrics(n: int, fill: int, ming: int, modulus: int,
                     err: Ratio = (0, 1)) -> QUMetrics:
    """QUMetrics from twice the fill and the smallest interior gap, both in
    units of 1 / modulus."""
    scale = 2 * modulus
    return QUMetrics(n, (fill, scale), (ming, scale), None if ming == 0 else (fill, ming),
                     "oracle-exact", err)


def _stored_units(ps: PointSet) -> Tuple[int, Optional[int]]:
    """Twice the fill and the smallest interior gap (None for one point) of
    the stored points, sorted once, in units of 1 / modulus.  The stored
    error bound must certify the sorted order: the smallest gap exceeds
    twice the error."""
    if ps.n < 1:
        raise ValueError("empty point set")
    pts = sorted(ps.xs)
    gaps = list(map(operator.sub, pts[1:], pts))
    ming = min(gaps, default=None)
    if ps.error_units and ming is not None and ming <= 2 * ps.error_units:
        raise PrecisionUnresolvedError(
            "point order ambiguous within the stored error bound"
        )
    return max(2 * pts[0], 2 * (ps.modulus - pts[-1]), max(gaps, default=0)), ming


# ---------------------------------------------------------------------------
# Kronecker prefixes: the three-gap forms on a lattice


def _gap_roles(gs: GapStructure) -> Tuple[LinearForm, List[LinearForm]]:
    """_role_indices as linear forms."""
    last, present = _role_indices(gs)
    return gs.entries[last][0], [gs.entries[i][0] for i in present]


def _role_indices(gs: GapStructure) -> Tuple[int, List[int]]:
    """The indices in gs.entries of the gap touching 1 and of the interior
    gap lengths present among the points.  The gap touching 1 follows from
    the parity of m: for odd m it is eta_m; for even m it is eta_{m-1} -
    j*eta_m with j = h when k = 0 and j = h + 1 otherwise."""
    d = gs.decomposition
    last = 0 if d.m % 2 else (1 if d.k == 0 else 2)
    present = [i for i, (_, count) in enumerate(gs.entries) if count > (i == last)]
    if gs.entries[last][1] <= 0 or not present:
        raise KronmeshError(
            f"gap structure lacks the gap touching 1 or an interior gap at "
            f"n={gs.n}, (m, h, k) = ({d.m}, {d.h}, {d.k})"
        )
    return last, present


def _lattice_gaps(gs: GapStructure, A: int, M: int) -> Tuple[int, int, int, int]:
    """The gap forms of the first gs.n points evaluated at alpha0 = A / M,
    in units of 1 / M: (largest interior, smallest interior, gap touching 1,
    index of the point nearest 1)."""
    last, present = _gap_roles(gs)
    units = [f.u * A + f.v * M for f in present]
    return max(units), min(units), last.u * A + last.v * M, -last.u


def _kronecker_lattice(exp: CFExpansion, n: int, ctx: PrecisionContext,
                       start_bits: int) -> Tuple[int, int, int]:
    """(A, U, M) with M = 2**B and alpha0 * M in [A, A + U] at the first
    rung from B = start_bits where the forms at A are the gaps of the sorted
    X_i = i*A mod M: no X_i straddles an integer (X_i + i*U < M) and the
    smallest gap exceeds twice the drift (n - 1)*U.  Only the point nearest
    1 can straddle before the smallest gap fails, and gaps only shrink as
    points arrive, so the lattice serves every shorter prefix too.
    """
    try:
        gs = _gap_structure(exp, n, decompose(exp, n))
    except PrecisionUnresolvedError:
        gs = None  # a digit prefix too short to decompose n

    def attempt(bits):
        A, U = exp.alpha0_scaled(bits)
        M = 1 << bits
        if gs is None:  # the prefix's bracket, not the scale, limits the error
            return None, (U, M)
        _, ming, last, i = _lattice_gaps(gs, A, M)
        if ming > 2 * (n - 1) * U and last > i * U:
            return (A, U, M), None
        return None, ((n - 1) * U, M)

    return ctx.escalate(attempt, start_bits, lambda: f"point order at n={n}")


def _kronecker_metrics(lattice: Tuple[int, int, int], gs: GapStructure) -> QUMetrics:
    """Metrics of the first n = gs.n points on a lattice (A, U, M) from
    _kronecker_lattice (or p mod q, 0, q for alpha = p/q); each point is
    within (n - 1)*U / M of the true one."""
    (A, U, M), n = lattice, gs.n
    maxg, ming, last, _ = _lattice_gaps(gs, A, M)
    return _lattice_metrics(n, max(2 * last, maxg), ming, M, ((n - 1) * U, M))


def mesh_ratio(ps: PointSet) -> QUMetrics:
    """rho_n = h_n / q_n of the point set (provenance oracle-exact).  An
    irrational Kronecker prefix is read off its three-gap forms on the set's
    lattice, not off its points."""
    if ps.n < 2:
        raise ValueError("mesh ratio needs n >= 2")
    cfg = ps.config
    if isinstance(cfg, _KroneckerRun):
        lattice = _kronecker_lattice(cfg.exp, ps.n, cfg.ctx, cfg.scale_bits)
        return _kronecker_metrics(lattice, _gap_structure(cfg.exp, ps.n, decompose(cfg.exp, ps.n)))
    return _lattice_metrics(len(ps.xs), *_stored_units(ps), ps.modulus,
                            (ps.error_units, ps.modulus))


# ---------------------------------------------------------------------------
# closed-form bounds for Kronecker prefixes


def _as_expansion(alpha) -> CFExpansion:
    return alpha if isinstance(alpha, CFExpansion) else CFExpansion(alpha)


def kronecker_bounds(
    exp, n: int, ctx: PrecisionContext = DEFAULT_CONTEXT
) -> BoundReport:
    """Mesh-ratio bounds for the first n Kronecker points: for a surd exact,
    2 (x - h) / min(1, x - h - 1) and x at n_m, x = x_{m+1} = 1 / alpha_m;
    else certified, from the alpha_m bracket x1/y1 <= x2/y2 (y > 0) in integers: with c_i =
    y_i - (h+1) x_i, min(alpha_m, 1 - (h+1) alpha_m) is in [den_lo, den_hi]
    = [min(x1/y1, c2/y2), min(x2/y2, c1/y1)], decided when den_lo > 0, and
    the upper bound is [2 (y2 - h x2) / (y2 den_hi), 2 (y1 - h x1) / (y1
    den_lo)], as 2 (1 - h alpha_m) > 0: h < a_{m+1} and every bracket keeps
    alpha_m <= 1/a_{m+1}.  The lower bound at n_m is [y2/x2, y1/x1]."""
    exp = _as_expansion(exp)
    if exp.finite:
        raise UnsupportedAlphaError("mesh-ratio bounds need irrational alpha")
    return _bounds(exp, n, decompose(exp, n), ctx)


def _bounds(exp: CFExpansion, n: int, d: Decomposition, ctx: PrecisionContext) -> BoundReport:
    """kronecker_bounds of an irrational expansion, from n's decomposition d."""
    h, surd = d.h, exp._alpha0_surd
    if surd is not None:  # x = (P + sqrt(D)) / Q, x - h = (A + sqrt(D)) / Q and
        # x - h - 1 = (B + sqrt(D)) / Q, which is below 1 just when a_{m+1} = h + 1
        D, (P, Q) = surd.D, exp.quotient(d.m + 1)
        A = P - h * Q
        B = A - Q
        upper = ((2 * A, 4 * D, Q) if exp.digits[d.m + 1] > h + 1 else
                 _qtriple((2 * (A * B - D), -2 * Q, B * B - D), D))  # 2 (x - h) / (x - h - 1)
        inverse = (P, D, Q)
    else:
        def attempt(bits):
            # _tail_ends: a digit prefix too short for the width
            # target still yields the bracket of every known digit
            x1, y1, x2, y2 = ends = _tail_ends(exp, d.m, bits)
            c1, c2 = y1 - (h + 1) * x1, y2 - (h + 1) * x2
            lo = (x1, y1) if x1 * y2 <= c2 * y1 else (c2, y2)
            hi = (x2, y2) if x2 * y1 <= c1 * y2 else (c1, y1)
            if lo[0] > 0:
                return (ends, lo, hi), None
            return None, (x2 * y1 - x1 * y2, y1 * y2)  # the bracket width

        (x1, y1, x2, y2), (p_lo, q_lo), (p_hi, q_hi) = ctx.escalate(
            attempt, ctx.bits, lambda: f"bound denominator sign (n={n})")
        upper = (2 * (y2 - h * x2) * q_hi, y2 * p_hi, 2 * (y1 - h * x1) * q_lo, y1 * p_lo)
        inverse = (y2, x2, y1, x1)

    lower = None
    digit_form = None
    if d.m >= 3 and h == 0 and d.k == 0:
        lower = inverse
        # a prefix may end before a_{m+2}; lower_at_nm does not need it
        if exp.ensure(d.m + 2):
            b = exp.digits[d.m + 2] + 1
            digit_form = (exp.digits[d.m + 1] * b + 1, b)  # a_{m+1} + 1 / (a_{m+2} + 1)

    sup, certainty = digit_supremum(exp)
    global_upper = 2 + 2 * sup if certainty == "exact" else None
    return BoundReport(n, d.m, d.h, d.k, upper, lower, digit_form, global_upper)


# ---------------------------------------------------------------------------
# structure-exact metrics (no points materialized)


def mesh_ratio_structural(
    exp, n: int, ctx: PrecisionContext = DEFAULT_CONTEXT
) -> QUMetrics:
    """Mesh ratio of a Kronecker prefix from enclosures of its gap forms:
    the largest interior gap, twice the gap touching 1 and the smallest
    interior gap, each on its own ladder, shifted to the finest rung 2**-B.
    Fill and separation are [F_lo, F_hi] and [S_lo, S_hi] / 2**(B + 1) and
    rho is [F_lo / S_hi, F_hi / S_lo] (gap lengths are positive), each
    reported by its midpoint, with half the largest width as the error."""
    if n < 2:
        raise ValueError("mesh ratio needs n >= 2")
    exp = _as_expansion(exp)
    return _structural(exp, gap_structure(exp, n), ctx)


def _structural(exp: CFExpansion, gs: GapStructure, ctx: PrecisionContext) -> QUMetrics:
    """mesh_ratio_structural of the first gs.n points, from their gap
    structure: exact for a surd alpha (_surd_structural)."""
    if exp._alpha0_surd is not None:
        return _surd_structural(exp, gs)
    n = gs.n
    last_form, present = _gap_roles(gs)
    ordered = _order_forms(exp, present, ctx)
    rungs = [_form_rung(exp, form, ctx) for form in (ordered[-1], last_form.scale(2), ordered[0])]
    B = max(bits for _, _, bits in rungs)  # shift each to the finest rung
    rungs = [(lo << (B - bits), hi << (B - bits), B) for lo, hi, bits in rungs]
    (maxlo, maxhi, B), (lastlo, lasthi, _), (S_lo, S_hi, _) = rungs
    F_lo, F_hi = max(maxlo, lastlo), max(maxhi, lasthi)
    quarter, den = 1 << (B + 2), 2 * S_lo * S_hi
    # the larger half width: of fill or separation, or of rho
    width, rho_width = max(F_hi - F_lo, S_hi - S_lo), F_hi * S_hi - F_lo * S_lo
    err = (width, quarter) if width * den >= rho_width * quarter else (rho_width, den)
    return QUMetrics(n, (F_lo + F_hi, quarter), (S_lo + S_hi, quarter),
                     (F_lo * S_lo + F_hi * S_hi, den), "structure-exact", err)


def _surd_structural(exp: CFExpansion, gs: GapStructure,
                     provenance: str = "structure-exact") -> QUMetrics:
    """The exact metrics of a surd alpha's first gs.n points: fill eta_m *
    F / 2, separation eta_m * S / 2 and rho F / S (_surd_cells)."""
    (P, D, Q), (m, h, _) = exp._alpha0_surd, gs.decomposition
    last, present = _role_indices(gs)
    fill, small, rho = _surd_cells(*exp.quotient(m + 1), D, exp.digits[m + 1] - h, h, last,
                                   tuple(present))
    u, v = gs.entries[0][0]  # eta_m = u alpha0 + v, halved
    half = (u * P + v * Q, u, 2 * Q) if Q > 0 else (-u * P - v * Q, -u, -2 * Q)
    return QUMetrics(gs.n, _qtriple(_qmul(half, fill, D), D), _qtriple(_qmul(half, small, D), D),
                     rho, provenance)


@lru_cache(maxsize=4096)
def _surd_cells(a: int, c: int, D: int, t: int, h: int, last: int, present: Tuple[int, ...]):
    """F, S and F / S for gap forms eta_m * c, c = 1, x - h and x - h - 1,
    x = (a + sqrt(D)) / c in (h + t, h + t + 1): ranks order the c, S is the
    smallest present one and F the larger of the largest and twice the gap
    touching 1 (index last).  F / S is a triple, or the ratio (r, 1) when F
    and S are one form (r = 1 or 2).  Memoized per phase, in effect."""
    a, b, c = (a - h * c, 1, c) if c > 0 else (h * c - a, -1, -c)
    cs, rank = ((1, 0, 1), (a, b, c), (a - c, b, c)), (2, 2 * t + 1, 2 * t - 1).__getitem__
    big, small = max(present, key=rank), cs[min(present, key=rank)]
    # 2 > x - h just when t = 1; 2 (x - h - 1) > x - h, the largest, when t >= 2
    if last == 1 or last == 0 and rank(big) < 4 or last == 2 and t >= 2:
        a, b, c = cs[last]
        big = (2 * a, 2 * b, c)
    else:
        big = cs[big]
    (a, b, c), (x, y, z) = big, small  # F / S through the conjugate of S
    rho = _qtriple((z * (a * x - b * y * D), z * (b * x - a * y), c * (x * x - y * y * D)), D)
    return big, small, rho if rho[1] else (rho[0] // rho[2], 1)


def _order_forms(exp, forms, ctx) -> List[LinearForm]:
    """The distinct forms sorted by true value, escalating precision until
    they separate."""
    def attempt(bits):
        units = {form: form.units(exp, bits) for form in forms}
        ordered = sorted(units, key=lambda form: units[form][0])
        if all(units[a][1] < units[b][0] for a, b in zip(ordered, ordered[1:])):
            return ordered, None
        return None, (max(hi - lo for lo, hi in units.values()), 1 << bits)

    return ctx.escalate(attempt, ctx.bits, "gap-length ordering")


# ---------------------------------------------------------------------------
# sweeps


# sweep rows n_lo..n_hi, which print the cells of n_lo's metrics and bounds
Segment = NamedTuple("Segment", [("n_lo", int), ("n_hi", int), ("metrics", QUMetrics),
                                 ("bounds", Optional[BoundReport])])


def sweep_segments(gen: GeneratorSpec, n_lo: int, n_hi: int, ctx: PrecisionContext = DEFAULT_CONTEXT,
                   with_bounds: bool = True) -> List[Segment]:
    """[n_lo, n_hi] as runs of n that print the same cells; no point is built.
    An irrational Kronecker alpha's metrics (exact for a surd, on the lattice
    of n_hi for a digit prefix but for the unprinted drift) depend on n only
    through (m, h, min(k, 2)), and its bound report (with_bounds) through
    (m, h, k == 0): a segment is k = 0, 1 or 2..s_m - 1 of one (m, h).  p/q,
    vdc and greedy runs have no bounds."""
    if n_lo < 2:
        raise ValueError("sweep needs n_lo >= 2 (mesh ratio undefined at n = 1)")
    if n_hi < n_lo:
        raise ValueError("empty sweep range")
    if isinstance(gen, VdcGen):
        return _run_segments(partial(_vdc_run, gen.base), n_lo, n_hi)
    if isinstance(gen, GreedyGen):
        return _run_segments(_greedy_run, n_lo, n_hi)
    if not isinstance(gen, KroneckerGen):
        raise ValueError(f"unknown generator spec {gen!r}")
    exp = _as_expansion(gen.alpha)
    if exp._alpha0_surd is not None:
        evaluate = partial(_surd_structural, exp, provenance="oracle-exact")
        return _form_segments(exp, n_lo, n_hi, evaluate, ctx, with_bounds)
    if not exp.finite:
        lattice = _kronecker_lattice(exp, n_hi, ctx, working_scale_bits(ctx, n_hi))
        return _form_segments(exp, n_lo, n_hi, partial(_kronecker_metrics, lattice), ctx,
                              with_bounds)
    # alpha = p/q: the forms are exact at (p mod q)/q while n <= q; past q
    # every multiple of 1/q is a point and one repeats
    q = exp.spec.den
    evaluate = partial(_kronecker_metrics, (exp.spec.num % q, 0, q))
    segs = _form_segments(exp, n_lo, min(n_hi, q), evaluate, ctx, False)
    repeat = partial(QUMetrics, fill_nd=(1, q), separation_nd=(0, 1), rho_nd=None,
                     provenance="oracle-exact")
    return segs + _run_segments(lambda n: (n_hi, repeat(n)), max(n_lo, q + 1), n_hi)


def _form_segments(exp: CFExpansion, n_lo: int, n_hi: int,
                   evaluate: Callable[[GapStructure], QUMetrics],
                   ctx: PrecisionContext, with_bounds: bool) -> List[Segment]:
    """Kronecker segments, each evaluated once from its gap structure;
    bounds once per key."""
    segs, key, n = [], None, n_lo
    while n <= n_hi:
        d = decompose(exp, n)
        qm, br = evaluate(_gap_structure(exp, n, d)), None
        if with_bounds:
            if key != (d.m, d.h, d.k == 0):
                key, b = (d.m, d.h, d.k == 0), _bounds(exp, n, d, ctx)
            br = b._replace(n=n, k=d.k)
        hi = n if d.k < 2 else min(n + exp.s_at(d.m) - 1 - d.k, n_hi)
        segs.append(Segment(n, hi, qm, br))
        n = hi + 1
    return segs


def _run_segments(run, n_lo: int, n_hi: int) -> List[Segment]:
    """Segments of an exact generator: run(n) gives the last n' >= n whose
    prefix shares the metrics of the first n points, and those metrics."""
    segs, n = [], n_lo
    while n <= n_hi:
        last, qm = run(n)
        segs.append(Segment(n, min(last, n_hi), qm, None))
        n = last + 1
    return segs


def _vdc_run(b: int, n: int) -> Tuple[int, QUMetrics]:
    """A run of van der Corput prefixes in base b.  With G = b**K <= n < b*G
    and n = c*G + r, every multiple of 1/G is a point, and the grid interval
    starting at radinv_K(t) holds c more points at steps of 1/(b*G) when
    t < r, else c - 1 (the last one, t = G - 1, holds c - 1).  So the gap
    touching 1, (b - c + 1)/(b*G), is the largest and 1/(b*G) the smallest;
    at n = G every gap is 1/G."""
    G = 1
    while G * b <= n:
        G *= b
    if n == G:
        return n, _lattice_metrics(n, 2, 1, G)
    c = n // G
    return (c + 1) * G - 1, _lattice_metrics(n, 2 * (b - c + 1), 1, b * G)


def _greedy_run(n: int) -> Tuple[int, QUMetrics]:
    """A run of greedy prefixes, either tie rule.  Two points are 1/2 and an
    end, 1/2 from the other end.  For 2**j <= n - 1 < 2**(j+1) the points
    are the grid of step 2**-j, ends included, and t = n - 1 - 2**j odd
    multiples of 2**-(j+1): the largest gap is 2**-j, the smallest 2**-j at
    t = 0 and 2**-(j+1) after."""
    if n == 2:
        return 2, _lattice_metrics(2, 2, 1, 2)
    j = (n - 1).bit_length() - 1
    if n - 1 == 1 << j:
        return n, _lattice_metrics(n, 2, 2, 2 << j)
    return 2 << j, _lattice_metrics(n, 2, 1, 2 << j)


# ---------------------------------------------------------------------------
# serialization


# the most rows in one chunk of sweep text, and the most segments that one
# formatter memo serves: the writers hold this much text at a time, however
# many rows they write
CHUNK = 1024

SWEEP_COLUMNS = (
    "n,h_n,q_n,rho_n,upper_bound_lo,upper_bound_hi,"
    "lower_bound_lo,lower_bound_hi,global_upper"
)


def _rho_str(qm: QUMetrics, fmt) -> str:
    return "inf" if qm.is_infinite else fmt(qm.rho_nd)


def sweep_to_csv(segments, digits: int = 40) -> str:
    """CSV of sweep segments: cells formatted once, a line per n."""
    return "".join(_csv_chunks(segments, digits))


def sweep_to_json(segments, digits: int = 40) -> str:
    """json.dumps({"rows": rows}, indent=2) + "\\n" of sweep segments, each
    segment's row written once from a template of its shape."""
    return "".join(_json_chunks(segments, digits))


def _csv_chunks(segments, digits: int):
    """sweep_to_csv in chunks of at most CHUNK lines."""
    yield SWEEP_COLUMNS + "\n"
    for block in _row_blocks(segments, _csv_templates, digits):
        yield "".join(block)


def _json_chunks(segments, digits: int):
    """sweep_to_json in chunks of at most CHUNK rows."""
    head = _row_head("    ")
    sep = '{\n  "rows": [\n' + head
    for block in _row_blocks(segments, _json_templates, digits):
        yield sep
        yield (",\n" + head).join(block)
        sep = ",\n" + head
    yield "\n  ]\n}\n" if sep[0] == "," else '{\n  "rows": []\n}\n'


def _row_blocks(segments, templates, digits: int):
    """The rows of the segments (a JSON row from its n on), in lists of at
    most CHUNK rows.  templates renders a batch of at most CHUNK segments,
    with one formatter at `digits`, into each segment's row: a str (a one-n
    row, whole), or the row after its n split where it repeats n: [after n],
    or [after n, after bounds.n, after bounds.k] with bounds.k = n +
    bounds.k - n_lo."""
    segs, block = iter(segments), []
    while batch := list(islice(segs, CHUNK)):
        for seg, parts in zip(batch, templates(batch, _formatter(digits))):
            if isinstance(parts, str):
                block.append(parts)
                if len(block) == CHUNK:
                    yield block
                    block = []
                continue
            n = seg.n_lo
            while n <= seg.n_hi:
                stop = min(seg.n_hi + 1, n + CHUNK - len(block))
                if len(parts) == 1:
                    b, = parts
                    block += [f"{i}{b}" for i in range(n, stop)]
                else:
                    b, c, d = parts
                    dk = seg.bounds.k - seg.n_lo
                    block += [f"{i}{b}{i}{c}{i + dk}{d}" for i in range(n, stop)]
                n = stop
                if len(block) == CHUNK:
                    yield block
                    block = []
    if block:
        yield block


def _csv_templates(segs: List[Segment], fmt) -> List[Union[str, Tuple[str]]]:
    """Each segment's CSV line: whole for one n, else the part after n."""
    out = []
    for seg in segs:
        qm, br = seg.metrics, seg.bounds
        cells = ["", fmt(qm.fill_nd), fmt(qm.separation_nd), _rho_str(qm, fmt)]
        if br is None:
            cells += [""] * 5
        else:
            lower = br.lower_ends
            cells += fmt(br.upper_ends, "interval")
            cells += ("", "") if lower is None else fmt(lower, "interval")
            cells.append("" if br.global_upper is None else str(br.global_upper))
        tail = ",".join(cells) + "\n"
        out.append(f"{seg.n_lo}{tail}" if seg.n_hi == seg.n_lo else (tail,))
    return out


def _json_templates(segs: List[Segment], fmt) -> List[Union[str, List[str]]]:
    """Each segment's JSON row from n on (after _row_head("    ")): whole
    for one n, else the pieces of _row_pieces that follow n, bounds.n and
    bounds.k."""
    out = []
    for seg in segs:
        row = _metrics_json(seg.metrics, seg.bounds, fmt)
        parts = _row_pieces(row, "    ")
        out.append(_splice(row, parts) if seg.n_hi == seg.n_lo else parts)
    return out


def _row_head(pad: str) -> str:
    """How json.dumps(row, indent=2), indented by pad, opens a row: "n" is
    its first key."""
    return f'{pad}{{\n{pad}  "n": '


def _row_pieces(row: dict, pad: str) -> List[str]:
    """The text of json.dumps(row, indent=2), indented by pad, after its n,
    split where the rows of a segment differ: [after n], or [after n,
    after bounds.n, after bounds.k] when the row has bounds."""
    s = encode_basestring_ascii
    head = (f',\n{pad}  "fill": {s(row["fill"])},\n{pad}  "separation": {s(row["separation"])}'
            f',\n{pad}  "mesh_ratio": {s(row["mesh_ratio"])}'
            f',\n{pad}  "provenance": {s(row["provenance"])}')
    b = row.get("bounds")
    if b is None:
        return [f"{head}\n{pad}}}"]
    bp = pad + "    "
    lower, digit_form, top = b["lower_at_nm"], b["lower_digit_form"], b["global_upper"]
    return [
        f'{head},\n{pad}  "bounds": {{\n{bp}"n": ',
        f',\n{bp}"m": {b["m"]},\n{bp}"h": {b["h"]},\n{bp}"k": ',
        f',\n{bp}"upper": {_pair_json(b["upper"], bp)}'
        f',\n{bp}"lower_at_nm": {"null" if lower is None else _pair_json(lower, bp)}'
        f',\n{bp}"lower_digit_form": {"null" if digit_form is None else s(digit_form)}'
        f',\n{bp}"global_upper": {"null" if top is None else top}\n{pad}  }}\n{pad}}}',
    ]


def _pair_json(pair: List[str], pad: str) -> str:
    """json.dumps of a list of two strings at indent pad."""
    lo, hi = map(encode_basestring_ascii, pair)
    return f"[\n{pad}  {lo},\n{pad}  {hi}\n{pad}]"


def _splice(row: dict, parts: List[str]) -> str:
    """A row's text from n on: its n, bounds.n and bounds.k before the pieces."""
    b = row.get("bounds")
    ns = (row["n"],) if b is None else (row["n"], b["n"], b["k"])
    return "".join([f"{n}{part}" for n, part in zip(ns, parts)])


def _row_document(row: dict) -> str:
    """json.dumps(row, indent=2) + "\\n" of a row dict: what analyze prints."""
    return _row_head("") + _splice(row, _row_pieces(row, "")) + "\n"


def metrics_to_json(qm: QUMetrics, br: Optional[BoundReport], digits: int = 40) -> dict:
    return _metrics_json(qm, br, _formatter(digits))


def _metrics_json(qm: QUMetrics, br: Optional[BoundReport], fmt) -> dict:
    out = {
        "n": qm.n,
        "fill": fmt(qm.fill_nd),
        "separation": fmt(qm.separation_nd),
        "mesh_ratio": _rho_str(qm, fmt),
        "provenance": qm.provenance,
    }
    if br is not None:
        out["bounds"] = _bounds_json(br, fmt)
    return out


def _bounds_json(br: BoundReport, fmt) -> dict:
    return {
        "n": br.n,
        "m": br.m,
        "h": br.h,
        "k": br.k,
        "upper": list(fmt(br.upper_ends, "interval")),
        "lower_at_nm": None if br.lower_ends is None else list(fmt(br.lower_ends, "interval")),
        "lower_digit_form": None if br.digit_form_nd is None else fmt(br.digit_form_nd),
        "global_upper": br.global_upper,
    }
