from fractions import Fraction

import mpmath
import pytest

import kronmesh as km

# the alpha set exercised throughout: two classic quadratics, a purely
# periodic two-digit rotation, and a 30-digit explicit prefix with
# unbounded-looking digits a_j = j
ALPHA_SPECS = (
    "golden",
    "quad:-1,2,1",          # sqrt(2) - 1
    "quad:-1,3,1",          # sqrt(3) - 1
    "cf:0;(1,2)",
    "cf:0;" + ",".join(str(j) for j in range(1, 31)),
)

PREFIX_SPEC = ALPHA_SPECS[-1]

# a 60-digit prefix whose tails are too short for 576-bit brackets
PREFIX_60_DIGITS = ("cf:0;4,9,3,6,8,2,1,8,5,9,4,4,8,9,9,8,7,3,4,3,9,7,1,2,3,1,5,1,5,8,"
                    "7,7,7,8,3,6,2,1,3,8,4,5,7,5,7,9,7,6,9,7,4,6,1,5,3,6,9,2,4,5")


@pytest.fixture(scope="session")
def expansions():
    return {spec: km.CFExpansion(km.parse_alpha(spec)) for spec in ALPHA_SPECS}


def mp_alpha(spec: str, prec: int = 400) -> mpmath.mpf:
    """Big-float alpha mod 1 for any spec in ALPHA_SPECS."""
    with mpmath.workprec(prec):
        if spec == "golden":
            return (mpmath.sqrt(5) - 1) / 2
        if spec.startswith("sqrt:"):
            return mpmath.frac(mpmath.sqrt(int(spec[5:])))
        if spec.startswith("quad:"):
            p, d, q = (int(t) for t in spec[5:].split(","))
            return mpmath.frac((p + mpmath.sqrt(d)) / q)
        if spec.startswith("cf:"):
            body = spec[3:]
            head, _, period = body.partition("(")
            a0, _, rest = head.partition(";")
            digits = [int(a0)] + [int(t) for t in rest.split(",") if t]
            per = [int(t) for t in period.rstrip(")").split(",") if t]
            # evaluate backward over many period turns (or the bare prefix
            # with a midpoint seed half a bracket wide)
            seq = digits[1:] + per * (600 // max(1, len(per)) if per else 0)
            x = mpmath.mpf(1) / 2
            for a in reversed(seq):
                x = 1 / (a + x)
            return x
        raise ValueError(spec)


def alpha0_width_bound(spec: str) -> Fraction:
    """Exact upper bound on the value uncertainty of a spec's alpha mod 1
    (0 for the periodic/quadratic specs, the convergent bracket width for
    the bare prefix)."""
    if not spec.startswith("cf:") or "(" in spec:
        return Fraction(0)
    exp = km.CFExpansion(km.parse_alpha(spec))
    exp.ensure(10 ** 6)
    m = exp.depth
    p1, q1 = exp.convergents[m]
    p0, q0 = exp.convergents[m - 1]
    return abs(Fraction(p1, q1) - Fraction(p1 + p0, q1 + q0))


def mp_scaled_points(spec: str, n: int, scale_bits: int):
    """Independent scaled Kronecker points: x_i = floor(frac(i*alpha)*2^B)
    from a 500-bit big float, plus a certified per-point unit error."""
    M = 1 << scale_bits
    a = mp_alpha(spec, prec=500)
    width = alpha0_width_bound(spec)
    # floor slop: one unit for the big-float rounding, plus the spec's own
    # value uncertainty scaled up
    unit = 2 + (width.numerator * M + width.denominator - 1) // width.denominator \
        if width else 2
    xs = []
    with mpmath.workprec(500 + scale_bits):
        for i in range(n):
            xs.append(int(mpmath.floor(mpmath.frac(i * a) * M)) % M)
    return xs, M, unit


def mpf_to_fraction(x, bits: int = 220) -> Fraction:
    """Dyadic rational within 2^-bits below the big float."""
    # floor rounds at the ambient precision, so pin it above the shift
    with mpmath.workprec(bits + 80):
        return Fraction(int(mpmath.floor(x * (1 << bits))), 1 << bits)
