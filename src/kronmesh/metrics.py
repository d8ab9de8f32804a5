"""Quasi-uniformity metrics: fill distance, separation radius, mesh ratio.

For a prefix x_0..x_{n-1} in [0, 1] sorted ascending,

    h_n = max(left boundary, right boundary, max interior gap / 2)
    q_n = min interior gap / 2          (0 when points repeat)
    rho_n = h_n / q_n                   (+inf marker when q_n = 0)

h_n here is the sup over the whole closed domain of the distance to the
nearest point, so boundary distances enter unhalved.  For Kronecker
prefixes the module also evaluates the closed-form mesh-ratio bounds

    upper:  2 (1 - h alpha_m) / min(alpha_m, 1 - (h+1) alpha_m)
    lower:  1 / alpha_m   at n = n_m, m >= 3
            a_{m+1} + 1/(a_{m+2} + 1) <= 1 / alpha_m   (digit form)

as certified intervals, and can compute rho_n for astronomically large
n = n_m straight from the three-gap structure (provenance
"structure-exact") instead of from points.
"""
from __future__ import annotations

import bisect
import heapq
import math
import operator
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import List, Optional, Tuple, Union

from .contfrac import (
    CFExpansion,
    DEFAULT_CONTEXT,
    PrecisionContext,
    alpha_tail_best,
    digit_supremum,
)
from .errors import KronmeshError, PrecisionUnresolvedError, UnsupportedAlphaError
from .intervals import Interval, fraction_to_decimal, interval_to_decimal
from .sequences import GeneratorSpec, KroneckerGen, PointSet, generate, kronecker
from .threegap import decompose, form_interval, gap_structure

INF = math.inf


@dataclass(frozen=True)
class QUMetrics:
    n: int
    fill: Fraction
    separation: Fraction
    mesh_ratio: Union[Fraction, float]  # math.inf marks duplicate points
    provenance: str                     # oracle-exact | formula-bound | structure-exact
    error_bound: Fraction = Fraction(0)

    @property
    def is_infinite(self) -> bool:
        return self.mesh_ratio == INF

    def rho_interval(self) -> Optional[Interval]:
        """Certified enclosure of the true mesh ratio, None when infinite."""
        if self.is_infinite:
            return None
        e = self.error_bound
        lo_num = max(self.fill - e, Fraction(0))
        den_hi = self.separation + e
        den_lo = self.separation - e
        if den_lo <= 0:
            raise PrecisionUnresolvedError(
                f"separation {self.separation} not resolved beyond error {e}"
            )
        return Interval(lo_num / den_hi, (self.fill + e) / den_lo)


@dataclass(frozen=True)
class BoundReport:
    n: int
    m: int
    h: int
    k: int
    upper: Interval
    lower_at_nm: Optional[Interval]
    lower_digit_form: Optional[Fraction]  # a lower bound on lower_at_nm, from two digits
    global_upper: Optional[int]


@dataclass(frozen=True)
class SortedGaps:
    points: Tuple[Fraction, ...]
    gaps: Tuple[Fraction, ...]
    left: Fraction
    right: Fraction
    error_bound: Fraction
    source: PointSet


class _LatticeMesh:
    """Sorted lattice points in [0, modulus] and the multiset of their
    interior gaps: the one metrics kernel.  It is built in bulk from a
    prefix (one sort, one count, a heapify over the distinct gaps) and then
    grown a point at a time; lazy min/max heaps answer the extreme gaps.
    """

    def __init__(self, xs, modulus: int):
        self.modulus = modulus
        self.pts = sorted(xs)
        self.gapcount = Counter(map(operator.sub, self.pts[1:], self.pts))
        self._maxheap = [-g for g in self.gapcount]
        self._minheap = list(self.gapcount)
        heapq.heapify(self._maxheap)
        heapq.heapify(self._minheap)

    def insert(self, x: int) -> None:
        pts = self.pts
        i = bisect.bisect_left(pts, x)
        if 0 < i < len(pts):
            self._count(pts[i] - pts[i - 1], -1)
        if i > 0:
            self._count(x - pts[i - 1], 1)
        if i < len(pts):
            self._count(pts[i] - x, 1)
        pts.insert(i, x)

    def _count(self, g: int, step: int) -> None:
        c = self.gapcount.pop(g, 0) + step
        if c:
            self.gapcount[g] = c
        if c == step == 1:  # a new distinct gap
            heapq.heappush(self._maxheap, -g)
            heapq.heappush(self._minheap, g)

    def max_gap(self) -> int:
        """Largest interior gap, 0 for a single point."""
        h = self._maxheap
        while h and not self.gapcount.get(-h[0]):
            heapq.heappop(h)
        return -h[0] if h else 0

    def min_gap(self) -> Optional[int]:
        """Smallest interior gap, None for a single point."""
        h = self._minheap
        while h and not self.gapcount.get(h[0]):
            heapq.heappop(h)
        return h[0] if h else None

    def fill_units(self) -> int:
        """Twice the fill distance in lattice units: boundary distances
        enter unhalved, interior gaps halved."""
        return max(2 * self.pts[0], 2 * (self.modulus - self.pts[-1]), self.max_gap())

    def metrics(self, err: Fraction) -> QUMetrics:
        fill, ming, scale = self.fill_units(), self.min_gap(), 2 * self.modulus
        rho = INF if ming == 0 else Fraction(fill, ming)
        return QUMetrics(len(self.pts), Fraction(fill, scale), Fraction(ming, scale),
                         rho, "oracle-exact", err)


def _certified(ps: PointSet, build):
    """build(point set) up the precision ladder until its order is certified.

    build returns a result and the smallest interior gap of the whole set in
    lattice units (None for one point).  For approximate (Kronecker) points
    the scale climbs the context's precision ladder until that gap exceeds
    twice the per-point error, so the sorted order of the stored values is
    the true order; gaps only shrink as points arrive, so the order of every
    prefix is certified too.  Returns the result and the set it came from.
    """
    if ps.n < 1:
        raise ValueError("empty point set")

    def attempt(cur):
        result, ming = build(cur)
        if cur.error_units == 0 or ming is None or ming > 2 * cur.error_units:
            return (result, cur), None
        return None, cur.error_bound

    cfg = ps.config
    if cfg is None:
        done, _ = attempt(ps)
        if done is None:
            raise PrecisionUnresolvedError(
                "point order ambiguous within the stored error bound and the "
                "set carries no generator to regenerate from"
            )
        return done
    return cfg.ctx.escalate(
        lambda bits: attempt(ps if bits == cfg.scale_bits else ps.regenerate(bits)),
        cfg.scale_bits, f"point order at n={ps.n}",
    )


def _certified_mesh(ps: PointSet) -> Tuple[_LatticeMesh, PointSet]:
    def build(cur):
        mesh = _LatticeMesh(cur.xs, cur.modulus)
        return mesh, mesh.min_gap()

    return _certified(ps, build)


def _sweep_rows(ps: PointSet, n_lo: int) -> List[QUMetrics]:
    """Metrics of the first n points of ps for n = n_lo..ps.n: the points
    before n_lo enter the mesh in bulk, then one insert per row.  Kronecker
    error grows linearly with the index, so row n carries (n - 1) / (N - 1)
    of the error bound of all N points (exact sets carry 0)."""
    def build(cur):
        mesh = _LatticeMesh(cur.xs[:n_lo - 1], cur.modulus)
        err_den = (cur.n - 1) * cur.modulus
        rows = []
        for n in range(n_lo, cur.n + 1):
            mesh.insert(cur.xs[n - 1])
            rows.append(mesh.metrics(Fraction((n - 1) * cur.error_units, err_den)))
        return rows, mesh.min_gap()

    return _certified(ps, build)[0]


def sorted_gaps(ps: PointSet) -> SortedGaps:
    """The certified sorted prefix as Fractions: interior gaps plus boundary
    distances (a view of the lattice kernel; the metrics do not build it)."""
    mesh, cur = _certified_mesh(ps)
    M = cur.modulus
    pts = tuple(Fraction(x, M) for x in mesh.pts)
    gaps = tuple(b - a for a, b in zip(pts, pts[1:]))
    return SortedGaps(pts, gaps, pts[0], 1 - pts[-1], cur.error_bound, cur)


def fill_distance(ps: PointSet) -> Fraction:
    mesh, cur = _certified_mesh(ps)
    return Fraction(mesh.fill_units(), 2 * cur.modulus)


def separation_radius(ps: PointSet) -> Fraction:
    if ps.n < 2:
        raise ValueError("separation radius needs n >= 2")
    return mesh_ratio(ps).separation


def mesh_ratio(ps: PointSet) -> QUMetrics:
    """rho_n = h_n / q_n from the actual points (provenance oracle-exact)."""
    if ps.n < 2:
        raise ValueError("mesh ratio needs n >= 2")
    mesh, cur = _certified_mesh(ps)
    return mesh.metrics(cur.error_bound)


# ---------------------------------------------------------------------------
# closed-form bounds for Kronecker prefixes


def _as_expansion(alpha) -> CFExpansion:
    if isinstance(alpha, CFExpansion):
        return alpha
    return CFExpansion(alpha)


def kronecker_bounds(
    exp, n: int, ctx: PrecisionContext = DEFAULT_CONTEXT
) -> BoundReport:
    """Certified mesh-ratio bounds for the first n Kronecker points."""
    exp = _as_expansion(exp)
    if exp.is_rational:
        raise UnsupportedAlphaError("mesh-ratio bounds need irrational alpha")
    d = decompose(exp, n)

    def attempt(bits):
        # a digit prefix too short for the width target still yields the
        # bracket of every known digit
        am = alpha_tail_best(exp, d.m, replace(ctx, bits=bits))
        den = am.min_with(am.scale(-(d.h + 1)).shift(1))
        return ((am, den), None) if den.lo > 0 else (None, am.width)

    am, den = ctx.escalate(attempt, ctx.bits, f"bound denominator sign (n={n})")
    num = am.scale(-d.h).shift(1).scale(2)
    upper = num / den

    lower = None
    digit_form = None
    if d.m >= 3 and d.h == 0 and d.k == 0:
        lower = am.reciprocal()
        # a prefix may end before a_{m+2}; lower_at_nm does not need it
        if exp.ensure(d.m + 2):
            digit_form = Fraction(exp.digit(d.m + 1)) + Fraction(1, exp.digit(d.m + 2) + 1)

    sup, certainty = digit_supremum(exp)
    global_upper = 2 + 2 * sup if certainty == "exact" else None
    return BoundReport(n, d.m, d.h, d.k, upper, lower, digit_form, global_upper)


# ---------------------------------------------------------------------------
# structure-exact metrics (no points materialized)


def mesh_ratio_structural(
    exp, n: int, ctx: PrecisionContext = DEFAULT_CONTEXT
) -> QUMetrics:
    """Mesh ratio of a Kronecker prefix straight from the gap structure.

    The gap multiset determines everything except which gap is the one
    touching 1 (it enters the fill distance unhalved while interior gaps are
    halved).  That gap follows from the parity of m: for odd m the last gap
    is eta_m; for even m it is eta_{m-1} - j*eta_m with j = h when k = 0 and
    j = h + 1 otherwise.  The rule is cross-checked against point-based
    metrics in the test suite over every feasible n.
    """
    if n < 2:
        raise ValueError("mesh ratio needs n >= 2")
    exp = _as_expansion(exp)
    gs = gap_structure(exp, n)
    d = gs.decomposition
    entries = list(gs.entries)
    if d.m % 2 == 1:
        last_idx = 0
    else:
        last_idx = 1 if d.k == 0 else 2
    last_form, last_count = entries[last_idx]
    interior = [
        (form, count - (i == last_idx))
        for i, (form, count) in enumerate(entries)
    ]
    present = [form for form, count in interior if count > 0]
    if last_count <= 0 or not present:
        raise KronmeshError(
            f"gap structure lacks the gap touching 1 or an interior gap at "
            f"n={n}, (m, h, k) = ({d.m}, {d.h}, {d.k})"
        )

    order = _order_forms(exp, present, ctx)
    maxint = _pick_extreme(present, order, largest=True)
    minint = _pick_extreme(present, order, largest=False)

    # fill = max(max interior gap, 2 * last gap) / 2; left boundary is a point
    fill_iv = form_interval(exp, maxint, ctx, require_positive=True).max_with(
        form_interval(exp, last_form.scale(2), ctx, require_positive=True)
    ).scale(Fraction(1, 2))
    sep_iv = form_interval(exp, minint, ctx, require_positive=True).scale(Fraction(1, 2))
    rho_iv = fill_iv / sep_iv
    err = max(fill_iv.width, sep_iv.width, rho_iv.width) / 2
    return QUMetrics(
        n, fill_iv.mid, sep_iv.mid, rho_iv.mid, "structure-exact", err
    )


def _order_forms(exp, forms, ctx) -> dict:
    """Map each distinct (u, v) to its rank among the forms' true values,
    escalating precision until distinct forms separate."""
    uniq = {(f.u, f.v): f for f in forms}

    def attempt(bits):
        ivs = {key: form.enclosure(exp, bits) for key, form in uniq.items()}
        ordered = sorted(ivs, key=lambda key: ivs[key].lo)
        if all(ivs[a].hi < ivs[b].lo for a, b in zip(ordered, ordered[1:])):
            return {key: rank for rank, key in enumerate(ordered)}, None
        return None, max(iv.width for iv in ivs.values())

    return ctx.escalate(attempt, ctx.bits, "gap-length ordering")


def _pick_extreme(forms, order, largest: bool):
    ranked = sorted(forms, key=lambda f: order[(f.u, f.v)])
    return ranked[-1] if largest else ranked[0]


# ---------------------------------------------------------------------------
# incremental sweeps


@dataclass(frozen=True)
class SweepRow:
    metrics: QUMetrics
    bounds: Optional[BoundReport]


def sweep(
    gen: GeneratorSpec,
    n_lo: int,
    n_hi: int,
    ctx: PrecisionContext = DEFAULT_CONTEXT,
    with_bounds: bool = True,
) -> List[SweepRow]:
    """Metrics for every n in [n_lo, n_hi], maintained incrementally.

    Kronecker sweeps over an irrational alpha also carry the closed-form
    bound report per n when with_bounds is set.
    """
    if n_lo < 2:
        raise ValueError("sweep needs n_lo >= 2 (mesh ratio undefined at n = 1)")
    if n_hi < n_lo:
        raise ValueError("empty sweep range")
    exp = _as_expansion(gen.alpha) if isinstance(gen, KroneckerGen) else None
    ps = generate(gen, n_hi, ctx) if exp is None else kronecker(exp, n_hi, ctx)
    rows = _sweep_rows(ps, n_lo)
    if exp is None or exp.is_rational or not with_bounds:
        return [SweepRow(qm, None) for qm in rows]
    memo = {}

    def bounds(n: int) -> BoundReport:
        # the report depends on n only through (m, h) and whether k == 0
        d = decompose(exp, n)
        key = (d.m, d.h, d.k == 0)
        if key not in memo:
            memo[key] = kronecker_bounds(exp, n, ctx)
        return replace(memo[key], n=n, k=d.k)

    return [SweepRow(qm, bounds(qm.n)) for qm in rows]


# ---------------------------------------------------------------------------
# serialization


SWEEP_COLUMNS = (
    "n,h_n,q_n,rho_n,upper_bound_lo,upper_bound_hi,"
    "lower_bound_lo,lower_bound_hi,global_upper"
)


def _rho_str(qm: QUMetrics, digits: int) -> str:
    if qm.is_infinite:
        return "inf"
    return fraction_to_decimal(qm.mesh_ratio, digits)


def sweep_to_csv(rows: List[SweepRow], digits: int = 40) -> str:
    lines = [SWEEP_COLUMNS]
    for row in rows:
        qm = row.metrics
        cells = [
            str(qm.n),
            fraction_to_decimal(qm.fill, digits),
            fraction_to_decimal(qm.separation, digits),
            _rho_str(qm, digits),
        ]
        br = row.bounds
        if br is not None:
            up_lo, up_hi = interval_to_decimal(br.upper, digits)
            cells += [up_lo, up_hi]
            if br.lower_at_nm is not None:
                lo_lo, lo_hi = interval_to_decimal(br.lower_at_nm, digits)
                cells += [lo_lo, lo_hi]
            else:
                cells += ["", ""]
            cells.append("" if br.global_upper is None else str(br.global_upper))
        else:
            cells += ["", "", "", "", ""]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def metrics_to_json(qm: QUMetrics, br: Optional[BoundReport], digits: int = 40) -> dict:
    out = {
        "n": qm.n,
        "fill": fraction_to_decimal(qm.fill, digits),
        "separation": fraction_to_decimal(qm.separation, digits),
        "mesh_ratio": _rho_str(qm, digits),
        "provenance": qm.provenance,
    }
    if br is not None:
        out["bounds"] = bound_report_to_json(br, digits)
    return out


def bound_report_to_json(br: BoundReport, digits: int = 40) -> dict:
    up = interval_to_decimal(br.upper, digits)
    out = {
        "n": br.n,
        "m": br.m,
        "h": br.h,
        "k": br.k,
        "upper": [up[0], up[1]],
    }
    if br.lower_at_nm is not None:
        lo = interval_to_decimal(br.lower_at_nm, digits)
        out["lower_at_nm"] = [lo[0], lo[1]]
    else:
        out["lower_at_nm"] = None
    if br.lower_digit_form is not None:
        out["lower_digit_form"] = fraction_to_decimal(br.lower_digit_form, digits)
    else:
        out["lower_digit_form"] = None
    out["global_upper"] = br.global_upper
    return out
