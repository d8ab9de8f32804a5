"""The package's records are NamedTuples: each keeps the repr, keyword
construction, defaults, validation, immutability, equality and hash it had
as a frozen dataclass, and a validating record validates on _replace too."""
import copy
import math
import pickle
from fractions import Fraction

import pytest

import kronmesh as km
from kronmesh import (
    AlphaSpecError,
    BoundReport,
    Classification,
    Decomposition,
    ExplicitCF,
    GapStructure,
    GreedyGen,
    KroneckerGen,
    LinearForm,
    PointSet,
    PrecisionContext,
    QUMetrics,
    QuadraticSurd,
    Rational,
    VdcGen,
)
from kronmesh.metrics import Segment
from kronmesh.sequences import _KroneckerRun
from kronmesh.threegap import IdentityCheck, LengthsReport


def _qumetrics():
    return QUMetrics(n=5, fill_nd=(1, 4), separation_nd=(1, 16), rho_nd=(4, 1),
                     provenance="oracle-exact")


_QUM = ("QUMetrics(n=5, fill_nd=(1, 4), separation_nd=(1, 16), rho_nd=(4, 1), "
        "provenance='oracle-exact', error_nd=(0, 1))")
_CHECK = "IdentityCheck(name='tiles', passed=True, detail='(0,1)')"

# one fixed example of each of the 17 records, with its repr as a frozen
# dataclass printed it (PointSet no longer prints its config); Segment, the
# one sweep record, takes the place of the per-n row it replaced
RECORDS = [
    (lambda: PrecisionContext(bits=256, max_bits=1024),
     "PrecisionContext(bits=256, max_bits=1024)"),
    (lambda: QuadraticSurd(P=1, D=3, Q=3), "QuadraticSurd(P=3, D=27, Q=9)"),
    (lambda: Rational(num=6, den=4), "Rational(num=3, den=2)"),
    (lambda: ExplicitCF(preperiod=[0, 1, 2], period=[3]),
     "ExplicitCF(preperiod=(0, 1, 2), period=(3,))"),
    (lambda: Classification(verdict="yes", digit_sup=1, certainty="exact", c_bound=4),
     "Classification(verdict='yes', digit_sup=1, certainty='exact', c_bound=4)"),
    (_qumetrics, _QUM),
    (lambda: BoundReport(n=10, m=4, h=0, k=2, upper_ends=(5, 1, 6, 1), lower_ends=None,
                         digit_form_nd=(3, 2), global_upper=4),
     "BoundReport(n=10, m=4, h=0, k=2, upper_ends=(5, 1, 6, 1), lower_ends=None, "
     "digit_form_nd=(3, 2), global_upper=4)"),
    (lambda: Segment(n_lo=5, n_hi=7, metrics=_qumetrics(), bounds=None),
     f"Segment(n_lo=5, n_hi=7, metrics={_QUM}, bounds=None)"),
    (lambda: KroneckerGen(alpha=Rational(1, 3)), "KroneckerGen(alpha=Rational(num=1, den=3))"),
    (lambda: VdcGen(base=3), "VdcGen(base=3)"),
    (lambda: GreedyGen(tie_break="rightmost"), "GreedyGen(tie_break='rightmost')"),
    (lambda: km.van_der_corput(3, 4),
     "PointSet(xs=(0, 3, 6, 1), modulus=9, error_units=0, n=4, precision_bits=None, "
     "generator_tag='vdc')"),
    (lambda: _KroneckerRun(exp=None, ctx=PrecisionContext(), scale_bits=200),
     "_KroneckerRun(exp=None, ctx=PrecisionContext(bits=192, max_bits=65536), scale_bits=200)"),
    (lambda: LinearForm(u=2, v=-1), "LinearForm(u=2, v=-1)"),
    (lambda: GapStructure(n=3, decomposition=Decomposition(1, 0, 0),
                          entries=((LinearForm(1, 0), 1), (LinearForm(-1, 1), 2))),
     "GapStructure(n=3, decomposition=Decomposition(m=1, h=0, k=0), "
     "entries=((LinearForm(u=1, v=0), 1), (LinearForm(u=-1, v=1), 2)))"),
    (lambda: IdentityCheck(name="tiles", passed=True, detail="(0,1)"), _CHECK),
    (lambda: LengthsReport(checks=(IdentityCheck("tiles", True, "(0,1)"),)),
     f"LengthsReport(checks=({_CHECK},))"),
]


@pytest.mark.parametrize("make, text", RECORDS, ids=[t.partition("(")[0] for _, t in RECORDS])
def test_record_repr_equality_and_immutability(make, text):
    a, b = make(), make()
    assert repr(a) == text
    assert a == b and hash(a) == hash(b)
    for name in a._fields:
        with pytest.raises(AttributeError):
            setattr(a, name, None)
    assert repr(a) == text


def test_record_defaults():
    assert (PrecisionContext().bits, PrecisionContext().max_bits) == (192, 65536)
    assert PrecisionContext(bits=256).max_bits == 65536
    assert ExplicitCF((1,)).period == ()
    assert GreedyGen().tie_break == "leftmost"
    assert _qumetrics().error_nd == (0, 1) and _qumetrics().error_bound == 0
    assert hash(QuadraticSurd(-1, 5, 2)) == hash((-1, 5, 2))


@pytest.mark.parametrize("make, error, message", [
    (lambda: PrecisionContext(63, 10), ValueError, "PrecisionContext.bits must be >= 64"),
    (lambda: PrecisionContext(256, 255), ValueError,
     "PrecisionContext.max_bits must be >= bits"),
    (lambda: Rational(1.5, 0), AlphaSpecError, "Rational takes integers"),
    (lambda: Rational(1, 0), AlphaSpecError, "Rational.den must be positive"),
    (lambda: ExplicitCF((), (0,)), AlphaSpecError, "ExplicitCF needs at least a_0"),
    (lambda: ExplicitCF((-1, True)), AlphaSpecError, "a_0 must be >= 0"),
    (lambda: ExplicitCF((0, True)), AlphaSpecError, "digit a_1 must be an integer"),
    (lambda: ExplicitCF((0, 0), (0,)), AlphaSpecError, "digit a_1 must be >= 1, got 0"),
    (lambda: ExplicitCF((0,), (2, 0)), AlphaSpecError,
     "period digits must be integers >= 1, got 0"),
    (lambda: QuadraticSurd(0, 4, 0), AlphaSpecError, "QuadraticSurd.Q must be nonzero"),
    (lambda: QuadraticSurd(0, 0, 1), AlphaSpecError, "QuadraticSurd.D must be positive"),
    (lambda: VdcGen(1), ValueError, "van der Corput base must be an integer >= 2, got 1"),
    (lambda: GreedyGen("middle"), ValueError,
     "tie_break must be leftmost or rightmost, got 'middle'"),
    # _replace builds through the same checks
    (lambda: PrecisionContext()._replace(bits=32), ValueError,
     "PrecisionContext.bits must be >= 64"),
    (lambda: Rational(1, 2)._replace(den=0), AlphaSpecError, "Rational.den must be positive"),
    (lambda: VdcGen(2)._replace(base=0), ValueError,
     "van der Corput base must be an integer >= 2, got 0"),
])
def test_record_validation(make, error, message):
    with pytest.raises(error) as info:
        make()
    assert type(info.value) is error and str(info.value) == message


def test_metric_records_build_fractions_on_access():
    # the stored ratios are not reduced; each property is the reduced value
    qm = QUMetrics(7, (2, 8), (6, 96), (8, 2), "structure-exact", (10, 40))
    assert (qm.fill, qm.separation, qm.mesh_ratio, qm.error_bound) == (
        Fraction(1, 4), Fraction(1, 16), Fraction(4), Fraction(1, 4))
    assert all(type(v) is Fraction for v in (qm.fill, qm.mesh_ratio, qm.error_bound))
    assert not qm.is_infinite
    repeat = QUMetrics(4, (1, 3), (0, 1), None, "oracle-exact")
    assert repeat.is_infinite and repeat.mesh_ratio == math.inf and repeat.separation == 0
    br = BoundReport(53, 4, 0, 0, (10, 2, 12, 2), (3, 2, 9, 4), (4, 3), None)
    # bracket ends come out as a plain pair of Fractions
    assert br.upper == (5, 6) and type(br.upper) is tuple
    assert all(type(end) is Fraction for end in br.upper)
    assert br.lower_at_nm == (Fraction(3, 2), Fraction(9, 4))
    assert br.lower_digit_form == Fraction(4, 3)
    bare = br._replace(lower_ends=None, digit_form_nd=None)
    assert bare.lower_at_nm is None and bare.lower_digit_form is None


def test_replace_keeps_the_normal_form():
    r = Rational(1, 2)._replace(num=2)
    assert type(r) is Rational and r == (1, 1)
    s = QuadraticSurd(-1, 5, 2)._replace(Q=3)
    assert type(s) is QuadraticSurd and s == (-3, 45, 9)
    assert ExplicitCF((0, 1))._replace(period=[2]).period == (2,)


def test_point_sets_compare_without_their_config():
    golden = km.parse_alpha("golden")
    a, b = km.kronecker(golden, 50), km.kronecker(golden, 50)
    assert a.config is not b.config and a.config.exp is not b.config.exp
    assert a == b and hash(a) == hash(b)
    with pytest.raises(AttributeError):
        a.config = None
    assert copy.copy(a) == a and copy.copy(a).config is a.config
    vdc = km.van_der_corput(3, 4)
    assert pickle.loads(pickle.dumps(vdc)) == vdc
    assert PointSet((0, Fraction(1, 3)), 2, None, "x") == PointSet.lattice((0, 1), 3, 0, None, "x")
