"""Sweeps as segments against the per-row pipeline they replaced (kept in
tests/oracles.py): `kronmesh sweep` prints the same bytes, exit code and
error line as the old command, which built one row per n and formatted
every cell of every row, and the segments expand to the same rows."""
import json
import math
import random

import pytest

import kronmesh as km
from kronmesh import cli
from kronmesh.cli import main
from conftest import PREFIX_60_DIGITS
import oracles

RANDOM_PERIODIC = tuple(oracles.random_periodic_alpha_specs(4, seed=12))
IRRATIONALS = ("golden", "sqrt:213", "cf:1;7(2)") + RANDOM_PERIODIC


def _rationals():
    rng = random.Random(120)
    out = ["rat:1/2", "rat:1/120", "rat:119/120", "rat:-7/30"]
    while len(out) < 10:
        q = rng.randint(3, 120)
        p = rng.randint(1, q - 1)
        if math.gcd(p, q) == 1:
            out.append(f"rat:{p}/{q}")
    return out


def _cases():
    """argv tails of `kronmesh sweep`, each with a format and --digits."""
    rng = random.Random(2024)
    fmts = [("csv", "40"), ("json", "40"), ("csv", "5"), ("json", "90"), ("csv", "90"),
            ("json", "5")]
    cases = []

    def add(*argv):
        fmt, digits = fmts[len(cases) % len(fmts)]
        cases.append((*argv, "--format", fmt, "--digits", digits))

    for base in range(2, 11):
        # from a run's middle to another run's middle, and a lone n = b**K
        add("--gen", "vdc", "--base", str(base), "--n", f"2..{base ** 3 + 3}")
        add("--gen", "vdc", "--base", str(base), "--n",
            f"{base * base + 1}..{3 * base ** 3 - 2}")
        add("--gen", "vdc", "--base", str(base), "--n", f"{base ** 2}..{base ** 2}")
    for tie in ("leftmost", "rightmost"):
        add("--gen", "greedy", "--tie-break", tie, "--n", "2..130")
        add("--gen", "greedy", "--tie-break", tie, "--n", "7..67")
    for spec in _rationals():
        q = int(spec.split("/")[1])
        add("--alpha", spec, "--n", f"2..{q + 5}")
        add("--alpha", spec, "--n", f"{max(2, q // 2)}..{q}")
        add("--alpha", spec, "--n", f"{q + 1}..{q + 9}")
    for spec in IRRATIONALS:
        for _ in range(3):
            lo = rng.randint(2, 3000)
            add("--alpha", spec, "--n", f"{lo}..{lo + rng.randint(0, 600)}")
        add("--alpha", spec, "--n", "2..400", "--no-bounds")
    add("--alpha", "golden", "--n", "2..1000")
    # every n its own key (a_1 = 20000), then into m = 1 at n_1 = 20001
    add("--alpha", "cf:0;20000(1)", "--n", "2..160")
    add("--alpha", "cf:0;20000(1)", "--n", "19950..20060")
    add("--alpha", "cf:0;20000(1)", "--n", "19950..20060", "--no-bounds")
    # digit prefixes up to where their bracket still orders the points
    add("--alpha", "cf:0;1,2,3,4,5", "--n", "40..60")
    add("--alpha", "cf:0;1,2,3,4,5", "--n", "50..113", "--no-bounds")
    add("--alpha", PREFIX_60_DIGITS, "--n", "2..900")
    add("--alpha", PREFIX_60_DIGITS, "--n-at", "nm", "--m", "40..59", "--bits", "576")
    add("--alpha", "golden", "--n-at", "nm", "--m", "3..30")
    add("--alpha", "sqrt:7", "--n-at", "nm", "--m", "1..25", "--no-bounds")
    add("--alpha", "cf:1;7(2)", "--n-at", "nm", "--m", "2..20")
    add("--alpha", "sqrt:213", "--n-at", "nm", "--m", "5..5")
    return cases


# stalling prefixes, usage errors and refusals: the same exit code and line
ERROR_CASES = [
    ("--alpha", "cf:0;1,2,3,4,5", "--n", "100..130"),
    ("--alpha", "cf:0;1,2,3,4,5,6", "--n", "900..1000", "--format", "json"),
    ("--alpha", PREFIX_60_DIGITS, "--n-at", "nm", "--m", "55..60", "--bits", "576"),
    ("--alpha", "cf:0;1,2,3", "--n-at", "nm", "--m", "1..10"),
    ("--alpha", "rat:1/3", "--n-at", "nm", "--m", "1..3"),
    ("--gen", "vdc", "--n", "1..5"),
    ("--gen", "vdc", "--n", "7..3"),
    ("--gen", "greedy", "--n-at", "nm", "--m", "1..3"),
    ("--alpha", "golden", "--n", f"2..{cli.MAX_ROWS + 2}"),
]


def _run(capsys, argv):
    code = main(["sweep", *argv])
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def _compare(capsys, monkeypatch, argv):
    new = _run(capsys, argv)
    calls = []

    def old_command(args):
        calls.append(args)
        return oracles.sweep_command_rows(args)

    with monkeypatch.context() as mp:
        mp.setitem(cli._COMMANDS, "sweep", old_command)
        old = _run(capsys, argv)
    assert calls, "the per-row command did not run"
    assert new == old, argv
    return new


@pytest.mark.parametrize("argv", _cases(), ids=" ".join)
def test_cli_sweep_equals_per_row_writers(capsys, monkeypatch, argv):
    code, out, err = _compare(capsys, monkeypatch, argv)
    assert code == 0 and err == "" and out


@pytest.mark.parametrize("argv", ERROR_CASES, ids=" ".join)
def test_cli_sweep_errors_equal_per_row_command(capsys, monkeypatch, argv):
    code, out, err = _compare(capsys, monkeypatch, argv)
    assert code != 0 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_cases_start_and_end_mid_segment():
    # some Kronecker ranges start and end strictly inside a k >= 2 run
    starts = ends = 0
    for argv in _cases():
        if "--n" not in argv or "--alpha" not in argv or "rat:" in argv[1]:
            continue
        lo, hi = map(int, argv[argv.index("--n") + 1].split(".."))
        exp = km.CFExpansion(km.parse_alpha(argv[1]))
        d_lo, d_hi = km.decompose(exp, lo), km.decompose(exp, hi)
        starts += 2 < d_lo.k
        ends += 2 <= d_hi.k < exp.s_at(d_hi.m) - 1
    assert starts >= 5 and ends >= 5


ROW_SWEEPS = [
    (km.VdcGen(b), lo, hi) for b, lo, hi in ((2, 2, 1100), (3, 5, 250), (10, 95, 1234))
] + [
    (km.GreedyGen(t), 2, 300) for t in ("leftmost", "rightmost")
] + [
    (km.KroneckerGen(km.parse_alpha(s)), lo, hi)
    for s, lo, hi in (("rat:5/13", 2, 30), ("rat:1/120", 100, 130), ("golden", 2, 700),
                      ("sqrt:213", 150, 900), ("cf:1;7(2)", 33, 500),
                      ("cf:0;20000(1)", 19990, 20010), (RANDOM_PERIODIC[0], 2, 400))
]


@pytest.mark.parametrize("with_bounds", (True, False))
@pytest.mark.parametrize("gen,lo,hi", ROW_SWEEPS, ids=lambda v: str(v))
def test_sweep_rows_equal_per_row_oracle(gen, lo, hi, with_bounds):
    # field for field: n, metrics, the drift error_bound and each bound report
    for bits in (64, 192):
        ctx = km.PrecisionContext(bits)
        rows = oracles.segment_rows(gen, lo, hi, ctx, with_bounds)
        assert oracles.record_values(rows) == oracles.record_values(
            oracles.sweep_rows(gen, lo, hi, ctx, with_bounds))
        assert [row.metrics.n for row in rows] == list(range(lo, hi + 1))


def test_segments_cover_the_range_once():
    for gen, lo, hi in ROW_SWEEPS:
        segs = km.sweep_segments(gen, lo, hi)
        assert segs[0].n_lo == lo and segs[-1].n_hi == hi
        assert all(a.n_hi + 1 == b.n_lo for a, b in zip(segs, segs[1:]))
        assert all(s.n_lo <= s.n_hi and s.metrics.n == s.n_lo for s in segs)


def test_golden_sweep_evaluates_each_segment_once(monkeypatch):
    # three segments per (m, h) at most: k = 0, k = 1 and k = 2..s_m - 1.
    # decompose and the exact evaluation run once per segment, no lattice
    # is built, and the bounds run once per key (m, h, k == 0)
    metrics = km.metrics
    calls = {"decompose": [], "_surd_structural": [], "_bounds": [],
             "_kronecker_lattice": [], "_kronecker_metrics": []}

    def counting(name, n_of):
        original = getattr(metrics, name)

        def call(*args, **kw):
            calls[name].append(n_of(*args))
            return original(*args, **kw)
        monkeypatch.setattr(metrics, name, call)

    counting("decompose", lambda exp, n: n)
    counting("_surd_structural", lambda exp, gs: gs.n)
    counting("_bounds", lambda exp, n, d, ctx: n)
    counting("_kronecker_lattice", lambda exp, n, *rest: n)
    counting("_kronecker_metrics", lambda lattice, gs: gs.n)
    segs = km.sweep_segments(km.KroneckerGen(km.parse_alpha("golden")), 2, 20000)
    assert calls["decompose"] == calls["_surd_structural"] == [s.n_lo for s in segs]
    assert calls["_kronecker_lattice"] == calls["_kronecker_metrics"] == []
    keys = [None] + [(s.bounds.m, s.bounds.h, s.bounds.k == 0) for s in segs]
    assert calls["_bounds"] == [s.n_lo for s, prev, key in zip(segs, keys, keys[1:])
                                if key != prev]
    assert len(segs) < 3 * 22


def test_writers_print_the_rows_of_their_segments():
    gen = km.KroneckerGen(km.parse_alpha("cf:0;(1,2)"))
    segs = km.sweep_segments(gen, 50, 400)
    rows = oracles.segment_rows(gen, 50, 400)
    assert len(segs) < len(rows)
    for digits in (5, 40):
        assert km.sweep_to_csv(segs, digits) == oracles.sweep_rows_csv(rows, digits)
        assert km.sweep_to_json(segs, digits) == json.dumps(
            oracles.sweep_rows_json(rows, digits), indent=2) + "\n"
    assert km.sweep_to_json([]) == '{\n  "rows": []\n}\n'


# -- the chunked writers against the per-row text, at the chunk edges ---------

CHUNK = km.metrics.CHUNK


def _long_golden_segment():
    """The first golden k >= 2 segment of more than CHUNK + 1 rows."""
    gen = km.KroneckerGen(km.parse_alpha("golden"))
    seg = next(s for s in km.sweep_segments(gen, 2, 5000) if s.n_hi - s.n_lo > CHUNK + 1)
    return gen, seg.n_lo


def _edge_sweeps():
    """(gen, n_lo, n_hi, with_bounds, digits): together they hold segments
    of CHUNK - 1, CHUNK and CHUNK + 1 rows, and sweeps longer than a chunk
    in every generator."""
    golden, start = _long_golden_segment()
    alpha = lambda spec: km.KroneckerGen(km.parse_alpha(spec))  # noqa: E731
    return [
        (km.VdcGen(2), 2, 3073, False, 40),  # 1025..2047 and 2049..3071
        (km.VdcGen(3), 2, 2200, False, 5),
        (km.VdcGen(5), 2, 3200, False, 40),
        (km.VdcGen(10), 95, 2100, False, 1000),
        (km.GreedyGen("leftmost"), 2, 2100, False, 40),  # 1026..2048
        (km.GreedyGen("rightmost"), 1000, 3000, False, 5),
        (alpha("rat:1/3"), 2, CHUNK + 3, False, 40),  # 4..CHUNK + 3 repeats
        (alpha("rat:2/5"), 2, CHUNK + 5, False, 5),  # 6..CHUNK + 5 repeats
        (alpha("rat:7/200"), 150, 1400, False, 40),
        (golden, start, start + CHUNK - 2, True, 40),
        (golden, start, start + CHUNK - 1, True, 5),
        (golden, start, start + CHUNK, True, 1000),
        (golden, start - 3, start + CHUNK, False, 40),
        (golden, 2, 3000, False, 1000),
        (golden, 2, 5000, True, 40),  # k >= 2 segments of 1595 and 2582 rows
        (alpha("sqrt:150"), 25666, 27291, False, 40),
        (alpha("cf:1;6(2,5,9,5)"), 5570, 5857, True, 40),
        (alpha("cf:0;2000(1)"), 2, 2300, True, 40),  # a segment per n below 2001
        (alpha(RANDOM_PERIODIC[1]), 2, 2500, True, 5),
    ]


def test_edge_sweeps_hit_the_chunk_edges():
    lengths = {s.n_hi - s.n_lo + 1 for gen, lo, hi, _, _ in _edge_sweeps()
               for s in km.sweep_segments(gen, lo, hi)}
    assert {CHUNK - 1, CHUNK, CHUNK + 1} <= lengths


@pytest.mark.parametrize("gen,lo,hi,with_bounds,digits", _edge_sweeps(),
                         ids=lambda v: str(v))
def test_chunked_writers_equal_per_row_text(gen, lo, hi, with_bounds, digits):
    segs = km.sweep_segments(gen, lo, hi, with_bounds=with_bounds)
    rows = oracles.segment_rows(gen, lo, hi, with_bounds=with_bounds)
    csv = list(km.metrics._csv_chunks(segs, digits))
    assert "".join(csv) == oracles.sweep_rows_csv(rows, digits)
    assert km.sweep_to_csv(segs, digits) == "".join(csv)
    assert csv[0] == km.metrics.SWEEP_COLUMNS + "\n"
    assert [chunk.count("\n") for chunk in csv[1:]] == _block_sizes(len(rows))
    payload = {"rows": [km.metrics_to_json(r.metrics, r.bounds, digits) for r in rows]}
    chunks = list(km.metrics._json_chunks(segs, digits))
    assert "".join(chunks) == json.dumps(payload, indent=2) + "\n"
    assert km.sweep_to_json(segs, digits) == "".join(chunks)
    blocks = km.metrics._row_blocks(segs, km.metrics._json_templates, digits)
    assert [len(block) for block in blocks] == _block_sizes(len(rows))


def _block_sizes(rows):
    """CHUNK rows to a chunk, the rest in the last."""
    return [CHUNK] * (rows // CHUNK) + [rows % CHUNK] * (rows % CHUNK > 0)
