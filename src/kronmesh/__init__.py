"""Exact three-gap structure and quasi-uniformity metrics for 1-D
low-discrepancy sequences (Kronecker, van der Corput, greedy packing).

All arithmetic is exact or certified-interval; no floats enter any
computation that feeds a verdict.
"""
from .contfrac import (
    CFExpansion,
    Classification,
    DEFAULT_CONTEXT,
    ExplicitCF,
    PrecisionContext,
    QuadraticSurd,
    Rational,
    alpha_to_string,
    digit_supremum,
    is_badly_approximable,
    parse_alpha,
)
from .errors import (
    AlphaSpecError,
    KronmeshError,
    OutOfRangeError,
    PrecisionUnresolvedError,
    UnsupportedAlphaError,
)
from .metrics import (
    BoundReport,
    QUMetrics,
    kronecker_bounds,
    mesh_ratio,
    mesh_ratio_structural,
    metrics_to_json,
    sweep_segments,
    sweep_to_csv,
    sweep_to_json,
)
from .sequences import (
    GreedyGen,
    KroneckerGen,
    PointSet,
    VdcGen,
    generate,
    greedy_packing,
    kronecker,
    points_to_csv,
    points_to_json,
    van_der_corput,
)
from .threegap import (
    Decomposition,
    GapStructure,
    LinearForm,
    decompose,
    eta,
    gap_structure,
    gap_structure_json,
    lengths_check,
)

__version__ = "0.1.0"
