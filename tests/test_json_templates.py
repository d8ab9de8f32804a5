"""Every JSON document the CLI prints is written from a template of its
fixed shape; each must equal json.dumps(payload, indent=2) + "\\n" of the
dict the library builds for it, for any values those dicts hold."""
import json
import math

from hypothesis import example, given, settings, strategies as st

import kronmesh as km
from kronmesh import cli
from kronmesh.contfrac import PrecisionContext
from kronmesh.threegap import gap_structure_json, lengths_check
from conftest import PREFIX_60_DIGITS
import oracles

CTX = PrecisionContext()
PERIODIC = oracles.random_periodic_alpha_specs(12, seed=22)
PREFIXES = ("cf:0;1,2,3,4,5", "cf:2;7,1,1,30", PREFIX_60_DIGITS)


def _dumps(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _run(*argv):
    """(text, exit code) of a command, as main would write it."""
    args = cli._walk([str(a) for a in argv])
    chunks, code = cli._COMMANDS[args.command](args)
    return "".join(chunks), code


@st.composite
def surds(draw, d_max=10 ** 6):
    """quad:P,D,Q specs with D not a square."""
    d = draw(st.integers(2, d_max).filter(lambda d: math.isqrt(d) ** 2 != d))
    q = draw(st.integers(1, 40)) * draw(st.sampled_from((1, -1)))
    return f"quad:{draw(st.integers(-100, 100))},{d},{q}"


IRRATIONALS = st.one_of(surds(), st.sampled_from(["golden", "sqrt:2", "sqrt:213", *PERIODIC]))
DIGITS = st.integers(1, 120)


@settings(max_examples=60, deadline=None)
@given(IRRATIONALS, st.integers(1, 10 ** 40), DIGITS)
@example("golden", 5, 8)
@example("cf:1;7(2)", 10 ** 40, 1)
def test_gaps_document_equals_dumps(spec, n, digits):
    exp = km.CFExpansion(km.parse_alpha(spec))
    gs = km.gap_structure(exp, n)
    report = lengths_check(gs)
    payload = gap_structure_json(gs, exp, CTX, digits)
    payload["checks"] = [c._asdict() for c in report.checks]
    payload["all_passed"] = report.all_passed
    assert _run("gaps", "--alpha", spec, "--n", n, "--digits", digits) == (_dumps(payload), 0)


GENERATORS = st.one_of(
    IRRATIONALS.map(lambda spec: ("--alpha", spec)),
    st.integers(1, 300).flatmap(lambda q: st.integers(-q, 2 * q).map(
        lambda p: ("--alpha", f"rat:{p}/{q}"))),
    st.integers(2, 12).map(lambda b: ("--gen", "vdc", "--base", b)),
    st.sampled_from(["leftmost", "rightmost"]).map(lambda t: ("--gen", "greedy", "--tie-break", t)),
)


@settings(max_examples=80, deadline=None)
@given(GENERATORS, st.integers(2, 5000), DIGITS)
@example(("--alpha", "rat:3/7"), 9, 7)  # n > q: rho inf, exit 4
@example(("--alpha", "golden"), 34, 41)  # n = n_8: a lower bound at n_m
@example(("--alpha", "cf:0;1,2,3,4,5"), 60, 3)  # prefix-only: global_upper null
@example(("--alpha", "quad:0,181039,29"), 2, 1)  # period (1, 11244), past a 10**4 walk cap
def test_analyze_document_equals_dumps(generator, n, digits):
    args = cli._walk(["analyze", *map(str, generator), "--n", str(n)])
    (row,) = oracles.segment_rows(cli._generator(args), n, n, CTX)
    payload = km.metrics_to_json(row.metrics, row.bounds, digits)
    code = 4 if row.metrics.is_infinite else 0
    assert _run("analyze", *generator, "--n", n, "--digits", digits) == (_dumps(payload), code)


@settings(max_examples=60, deadline=None)
@given(st.one_of(surds(d_max=10 ** 4), st.sampled_from(
    ["golden", "rat:5/17", "rat:-3/1", *PERIODIC, *PREFIXES])), st.integers(1, 80))
@example("cf:0;1,2,3,4,5", 3)
def test_classify_document_equals_dumps(spec, probe):
    payload = km.is_badly_approximable(km.parse_alpha(spec), probe)._asdict()
    assert _run("classify", "--alpha", spec, "--probe", probe) == (_dumps(payload), 0)


def _sweep_payload(gen, lo, hi, with_bounds, digits, ctx=CTX):
    return {"rows": [km.metrics_to_json(r.metrics, r.bounds, digits)
                     for r in oracles.segment_rows(gen, lo, hi, ctx, with_bounds)]}


# contiguous sweeps and --n-at nm sweeps whose rows hold every optional cell
# both present and null: bounds, lower_at_nm, lower_digit_form and global_upper
SWEEPS = [
    ("--alpha", "golden", "--n", "2..300"),
    ("--alpha", "golden", "--n", "2..300", "--no-bounds"),
    ("--alpha", "cf:0;1,2,3,4,5", "--n", "40..60"),
    ("--alpha", "cf:0;20000(1)", "--n", "19990..20010"),
    ("--alpha", "rat:7/40", "--n", "2..60"),
    ("--gen", "vdc", "--base", "3", "--n", "2..100"),
    ("--alpha", "golden", "--n-at", "nm", "--m", "1..24"),
    ("--alpha", "sqrt:7", "--n-at", "nm", "--m", "1..9", "--no-bounds"),
    ("--alpha", PREFIX_60_DIGITS, "--n-at", "nm", "--m", "40..59", "--bits", "576"),
]


def _expected_sweep(argv, digits):
    args = cli._walk(["sweep", *argv])
    gen = cli._generator(args)
    if args.n_at is None:
        lo, hi = cli._parse_range(args.n, "--n")
        return _sweep_payload(gen, lo, hi, not args.no_bounds, digits, cli._context(args))
    ctx, exp = cli._context(args), km.CFExpansion(gen.alpha)
    m_lo, m_hi = cli._parse_range(args.m, "--m")
    return {"rows": [km.metrics_to_json(km.mesh_ratio_structural(exp, exp.n_at(m), ctx),
                                        None if args.no_bounds else
                                        km.kronecker_bounds(exp, exp.n_at(m), ctx), digits)
                     for m in range(m_lo, m_hi + 1)]}


def test_sweep_cases_hold_each_cell_present_and_null():
    seen = set()
    for argv in SWEEPS:
        for row in _expected_sweep(argv, 5)["rows"]:
            b = row.get("bounds")
            seen.add(("bounds", b is None))
            if b is not None:
                for key in ("lower_at_nm", "lower_digit_form", "global_upper"):
                    seen.add((key, b[key] is None))
    assert seen == {(key, null) for key in ("bounds", "lower_at_nm", "lower_digit_form",
                                            "global_upper") for null in (False, True)}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SWEEPS), DIGITS)
def test_sweep_document_equals_dumps(argv, digits):
    payload = _expected_sweep(argv, digits)
    assert _run("sweep", *argv, "--format", "json", "--digits", digits) == (_dumps(payload), 0)


@settings(max_examples=60, deadline=None)
@given(IRRATIONALS, st.integers(2, 3000), st.integers(0, 400), st.booleans(), DIGITS)
def test_random_sweep_rows_equal_dumps(spec, lo, length, with_bounds, digits):
    # one-n and multi-n segments, with and without bounds
    gen = km.KroneckerGen(km.parse_alpha(spec))
    segs = km.sweep_segments(gen, lo, lo + length, CTX, with_bounds)
    payload = _sweep_payload(gen, lo, lo + length, with_bounds, digits)
    assert km.sweep_to_json(segs, digits) == _dumps(payload)


# the templates hold for any value of their shapes, not just the ones the
# library builds: escaped strings, negative and huge ints, false and null
TEXT, INT = st.text(max_size=12), st.integers(-10 ** 30, 10 ** 30)
PAIR = st.lists(TEXT, min_size=2, max_size=2)


def _record(**fields):
    """Dicts with these keys in this order, each value drawn from its strategy."""
    return st.tuples(*fields.values()).map(lambda values: dict(zip(fields, values)))


BOUNDS = _record(n=INT, m=INT, h=INT, k=INT, upper=PAIR, lower_at_nm=st.none() | PAIR,
                 lower_digit_form=st.none() | TEXT, global_upper=st.none() | INT)
ROW = st.tuples(_record(n=INT, fill=TEXT, separation=TEXT, mesh_ratio=TEXT, provenance=TEXT),
                st.none() | BOUNDS).map(
    lambda rb: rb[0] if rb[1] is None else {**rb[0], "bounds": rb[1]})
GAPS = _record(
    n=INT, m=INT, h=INT, k=INT,
    entries=st.lists(_record(u=INT, v=INT, multiplicity=INT, interval=PAIR),
                     min_size=3, max_size=3),
    checks=st.lists(_record(name=TEXT, passed=st.booleans(), detail=TEXT),
                    min_size=3, max_size=3),
    all_passed=st.booleans())
VERDICT = _record(verdict=TEXT, digit_sup=INT, certainty=TEXT, c_bound=st.none() | INT)


@settings(max_examples=150, deadline=None)
@given(ROW, st.lists(ROW, max_size=3), GAPS, VERDICT)
def test_templates_equal_dumps_for_any_value(row, rows, gaps, verdict):
    metrics = km.metrics
    assert metrics._row_document(row) == _dumps(row)
    head = metrics._row_head("    ")
    text = ",\n".join([head + metrics._splice(r, metrics._row_pieces(r, "    ")) for r in rows])
    assert ('{\n  "rows": [\n' + text + "\n  ]\n}\n" if rows else '{\n  "rows": []\n}\n'
            ) == _dumps({"rows": rows})
    assert cli._gaps_document(gaps) == _dumps(gaps)
    assert cli._classify_document(verdict) == _dumps(verdict)


@settings(max_examples=60, deadline=None)
@given(TEXT, st.none() | st.integers(1, 10 ** 6), st.integers(1, 40), DIGITS)
def test_point_header_equals_dumps(tag, bits, n, digits):
    ps = km.PointSet.lattice(tuple(range(n)), 7 * n, 0, bits, tag)
    text = "".join(km.sequences._json_point_chunks(ps, digits))
    assert text == _dumps(km.points_to_json(ps, digits))
