import ast
import hashlib
import importlib
import json
import os
import re
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import kronmesh
from kronmesh import cli
from kronmesh.cli import main

# run subprocesses against the kronmesh package under test, whatever the
# caller's working directory or PYTHONPATH
PACKAGE_ROOT = str(Path(kronmesh.__file__).resolve().parent.parent)
SUBPROCESS_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(
        p for p in (PACKAGE_ROOT, os.environ.get("PYTHONPATH")) if p
    ),
}


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


def test_gaps_golden_n5(capsys):
    code, payload, _ = run_json(capsys, "gaps", "--alpha", "golden", "--n", "5")
    assert code == 0
    assert [e["multiplicity"] for e in payload["entries"]] == [2, 3, 0]
    assert payload["all_passed"] is True
    names = {c["name"] for c in payload["checks"]}
    assert names == {"middle equals first plus third",
                     "gaps tile the unit interval",
                     "multiplicities sum to n"}


def test_gaps_golden_n1(capsys):
    code, payload, _ = run_json(capsys, "gaps", "--alpha", "golden", "--n", "1")
    assert code == 0
    assert [e["multiplicity"] for e in payload["entries"]] == [0, 1, 0]
    mid = payload["entries"][1]
    assert (mid["u"], mid["v"]) == (0, 1)


def test_gaps_rational_exit2(capsys):
    code, out, err = run(capsys, "gaps", "--alpha", "rat:1/3", "--n", "4")
    assert code == 2
    assert out == ""
    assert "error" in err


def test_gaps_prefix_exhaustion_exit3(capsys):
    code, _, err = run(capsys, "gaps", "--alpha", "cf:0;1,2,3", "--n", "100")
    assert code == 3
    assert "error" in err


def test_analyze_golden_n5(capsys):
    code, payload, _ = run_json(capsys, "analyze", "--alpha", "golden", "--n", "5")
    assert code == 0
    assert float(payload["mesh_ratio"]) == 2
    assert payload["bounds"]["global_upper"] == 4
    assert payload["bounds"]["lower_digit_form"] is not None


def test_analyze_at_nm_where_prefix_ends(capsys):
    # n = 53 = n_4 needs a_5 for lower_at_nm; the digit form would need the
    # unknown a_6, so it is null instead of failing the whole report
    code, payload, _ = run_json(capsys, "analyze", "--alpha", "cf:0;1,2,3,4,5",
                                "--n", "53")
    assert code == 0
    bounds = payload["bounds"]
    assert (bounds["m"], bounds["h"], bounds["k"]) == (4, 0, 0)
    assert [float(x) for x in bounds["lower_at_nm"]] == [5, 6]
    assert bounds["lower_digit_form"] is None


def test_analyze_vdc_n4(capsys):
    code, payload, _ = run_json(capsys, "analyze", "--gen", "vdc", "--base", "2",
                                "--n", "4")
    assert code == 0
    assert float(payload["mesh_ratio"]) == 2
    assert "bounds" not in payload


def test_analyze_rational_infinite_exit4(capsys):
    code, payload, _ = run_json(capsys, "analyze", "--alpha", "rat:1/3", "--n", "4")
    assert code == 4
    assert payload["mesh_ratio"] == "inf"


def test_analyze_greedy(capsys):
    code, payload, _ = run_json(capsys, "analyze", "--gen", "greedy", "--n", "16")
    assert code == 0
    assert float(payload["mesh_ratio"]) <= 2


def test_sweep_golden_csv(capsys):
    code, out, _ = run(capsys, "sweep", "--alpha", "golden", "--n", "2..100",
                       "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 100
    assert lines[0].startswith("n,h_n,q_n,rho_n,")
    rhos = [float(line.split(",")[3]) for line in lines[1:]]
    assert max(rhos) <= 4 and min(rhos) >= 1


def test_sweep_greedy_rho_le_2(capsys):
    code, out, _ = run(capsys, "sweep", "--gen", "greedy", "--n", "2..64")
    assert code == 0
    lines = out.strip().splitlines()[1:]
    assert len(lines) == 63
    assert all(float(line.split(",")[3]) <= 2 for line in lines)


def test_sweep_nm_grid_growing_lower_bounds(capsys):
    code, out, _ = run(capsys, "sweep", "--alpha",
                       "cf:0;1,2,3,4,5,6,7,8,9,10,11,12",
                       "--n-at", "nm", "--m", "3..10")
    assert code == 0
    lines = out.strip().splitlines()[1:]
    assert len(lines) == 8
    lows = [float(line.split(",")[6]) for line in lines]
    assert all(b > a for a, b in zip(lows, lows[1:]))
    assert lows[-1] > 10


def test_sweep_json_rows(capsys):
    code, payload, _ = run_json(capsys, "sweep", "--alpha", "sqrt:2",
                                "--n", "2..6", "--format", "json")
    assert code == 0
    assert [row["n"] for row in payload["rows"]] == [2, 3, 4, 5, 6]
    assert all("bounds" in row for row in payload["rows"])


def test_sweep_rows_to_the_end_of_a_prefix(capsys):
    code, out, _ = run(capsys, "sweep", "--alpha", "cf:0;1,2,3,4,5", "--n", "50..53")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert [row[0] for row in rows] == ["50", "51", "52", "53"]
    assert [float(x) for x in rows[-1][6:8]] == [5, 6]
    assert rows[0][6:8] == ["", ""]


@pytest.mark.parametrize("argv", [
    ("sweep", "--alpha", "cf:0;1,2,3", "--n", "2..100"),
    ("analyze", "--alpha", "cf:0;1,2,3,4,5,6", "--n", "1000"),
    ("sweep", "--alpha", "cf:0;1,2,3,4,5,6", "--n", "900..1000"),
])
def test_prefix_order_unresolved_exit3(capsys, argv):
    # a digit prefix bounds alpha only to a bracket, so a finer scale cannot
    # certify the point order: the run must end with exit 3 (the sweep's
    # message once overflowed int-to-str and exited 1; the one-shot analysis
    # kept doubling its scale without end)
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert "cannot reduce" in err or "straddles" in err


def test_prefix_straddle_stops_when_the_error_stalls(capsys, monkeypatch):
    # a finer scale cannot shrink the bracket of a digit prefix, so the
    # point straddle must not be retried at 2**430, 2**860, ... 2**65536
    # (analyze builds no points; a points dump climbs the straddle ladder)
    seq = importlib.import_module("kronmesh.sequences")
    scales = []
    original = seq.kronecker_scaled

    def counting(exp, n, scale_bits):
        scales.append(scale_bits)
        return original(exp, n, scale_bits)

    monkeypatch.setattr(seq, "kronecker_scaled", counting)
    for command in ("analyze", "points"):
        scales.clear()
        code, out, err = run(capsys, command, "--alpha", "cf:0;1,2,3", "--n", "100")
        assert code == 3, command
        assert out == ""
        assert "cannot reduce" in err
        assert len(scales) <= 2, (command, scales)


def test_kronecker_metrics_build_no_points(capsys, monkeypatch):
    # an irrational alpha's metrics come from the three-gap forms, and those
    # of vdc, greedy and rat:p/q from closed forms: no point generator runs,
    # and neither does the one-shot sort of a stored point set
    seq = importlib.import_module("kronmesh.sequences")
    metrics = importlib.import_module("kronmesh.metrics")
    calls = []
    original = seq.kronecker_scaled

    def counting(*args):
        calls.append(args[1])
        return original(*args)

    def fail(*args, **kwargs):
        raise AssertionError("points generated or sorted")

    monkeypatch.setattr(seq, "kronecker_scaled", counting)
    coarse = kronmesh.kronecker(kronmesh.parse_alpha("golden"), 120, scale_bits=14)
    calls.clear()
    monkeypatch.setattr(metrics, "_stored_units", fail)
    for module in (kronmesh, seq, metrics, importlib.import_module("kronmesh.cli")):
        for name in ("generate", "kronecker", "van_der_corput", "greedy_packing"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, fail)
    for argv, want in ((("analyze", "--alpha", "sqrt:2", "--n", "5000"), 0),
                       (("sweep", "--alpha", "golden", "--n", "2..3000"), 0),
                       (("analyze", "--gen", "vdc", "--base", "3", "--n", "5000"), 0),
                       (("sweep", "--gen", "vdc", "--n", "2..3000", "--format", "json"), 0),
                       (("analyze", "--gen", "greedy", "--n", "5000"), 0),
                       (("sweep", "--gen", "greedy", "--tie-break", "rightmost",
                         "--n", "2..3000"), 0),
                       (("analyze", "--alpha", "rat:355/113", "--n", "100"), 0),
                       (("analyze", "--alpha", "rat:3/7", "--n", "8"), 4),
                       (("sweep", "--alpha", "rat:3/1000", "--n", "900..1100"), 0)):
        code, out, err = run(capsys, *argv)
        assert code == want and out and err == "", argv
    qm = kronmesh.mesh_ratio(coarse)
    assert qm.separation > qm.error_bound
    assert calls == []


@pytest.mark.parametrize("argv", [
    ("sweep", "--alpha", "sqrt:103", "--n-at", "nm", "--m", "46..69", "--bits", "384"),
    ("sweep", "--alpha", "golden", "--n", "2..2000"),
    ("analyze", "--alpha", "golden", "--n", "1000"),
], ids=["nm-sweep", "bounded-sweep", "analyze"])
def test_irrational_rows_build_no_fraction(capsys, monkeypatch, argv):
    # an irrational alpha's rows are integers from the ladder to the text:
    # no Fraction is constructed, nor made by Fraction arithmetic (which
    # builds its results through _from_coprime_ints where it exists)
    built = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    if "_from_coprime_ints" in vars(Fraction):
        coprime = Fraction._from_coprime_ints.__func__
        monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(
            lambda cls, num, den: built.append((num, den)) or coprime(cls, num, den)))
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "") and out
    assert built == []
    # the counter sees a Fraction that is built
    Fraction(1, 3) + 1
    assert built


@pytest.mark.parametrize("argv, want, rho", [
    (("analyze", "--gen", "vdc", "--n", str(10 ** 30)), 0, "4"),
    (("analyze", "--gen", "greedy", "--n", str(10 ** 30)), 0, "2"),
    (("analyze", "--alpha", "rat:3/7", "--n", str(10 ** 30)), 4, "inf"),
])
def test_exact_generators_analyze_huge_n(capsys, argv, want, rho):
    # closed forms cost O(log n) (a vdc point list once overflowed and a
    # greedy one grew without bound)
    start = time.perf_counter()
    code, payload, err = run_json(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == want and err == ""
    assert (payload["n"], payload["mesh_ratio"]) == (10 ** 30, rho)


def test_sweep_no_bounds(capsys):
    code, out, _ = run(capsys, "sweep", "--alpha", "golden", "--n", "2..5",
                       "--no-bounds")
    assert code == 0
    for line in out.strip().splitlines()[1:]:
        assert line.split(",")[4] == ""


def test_classify_golden(capsys):
    code, payload, _ = run_json(capsys, "classify", "--alpha", "golden")
    assert code == 0
    assert payload["verdict"] == "yes"
    assert payload["digit_sup"] == 1
    assert payload["c_bound"] == 4


def test_classify_rational(capsys):
    code, payload, _ = run_json(capsys, "classify", "--alpha", "rat:3/8")
    assert code == 0
    assert payload["verdict"] == "no"
    assert payload["c_bound"] is None


def test_classify_prefix_unknown(capsys):
    code, payload, _ = run_json(capsys, "classify", "--alpha", "cf:0;1,2,3",
                                "--probe", "3")
    assert code == 0
    assert payload["verdict"] == "unknown"
    assert payload["digit_sup"] == 3
    assert payload["certainty"] == "prefix-only"


def test_points_csv(capsys):
    code, out, _ = run(capsys, "points", "--gen", "vdc", "--base", "2", "--n", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "index,value"
    assert len(lines) == 5
    assert lines[1].startswith("0,0")


def test_points_json_greedy(capsys):
    code, payload, _ = run_json(capsys, "points", "--gen", "greedy", "--n", "3",
                                "--format", "json")
    assert code == 0
    assert payload["n"] == 3
    assert len(payload["points"]) == 3


@pytest.mark.parametrize("n", [10 ** 30, cli.MAX_POINTS + 1])
@pytest.mark.parametrize("gen", [("--gen", "vdc"), ("--gen", "greedy"),
                                 ("--alpha", "golden")])
def test_points_cap_refuses_before_generating(capsys, monkeypatch, gen, n):
    # a vdc or Kronecker list of 10**30 points once overflowed and a greedy
    # one grew without bound; the cap is checked before any generator runs
    def fail(*args, **kwargs):
        raise AssertionError("points generated")

    seq = importlib.import_module("kronmesh.sequences")
    for module in (cli, seq):
        for name in ("generate", "kronecker", "van_der_corput", "greedy_packing"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, fail)
    start = time.perf_counter()
    code, out, err = run(capsys, "points", *gen, "--n", str(n))
    assert time.perf_counter() - start < 1
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_points_vdc_huge_base_is_quick(capsys):
    # the work of a vdc dump is bounded by --n, however large --base is
    start = time.perf_counter()
    code, out, err = run(capsys, "points", "--gen", "vdc", "--base",
                         str(10 ** 12), "--n", "2", "--format", "csv")
    assert time.perf_counter() - start < 1
    assert code == 0 and err == ""
    assert out == "index,value\n0,0\n1,1E-12\n"


@pytest.mark.parametrize("argv", [
    ("--gen", "vdc", "--n", f"2..{10 ** 30}"),
    ("--alpha", "golden", "--n", f"2..{cli.MAX_ROWS + 2}"),
    ("--gen", "greedy", "--n-range", f"3..{cli.MAX_ROWS + 3}", "--format", "json"),
    ("--alpha", "golden", "--n-at", "nm", "--m", f"1..{10 ** 9}"),
    ("--alpha", "sqrt:2", "--n-at", "nm", "--m", f"5..{cli.MAX_ROWS + 5}"),
    # within the row cap, but n_m passes MAX_NM_BITS near m = 2950
    ("--alpha", "golden", "--n-at", "nm", "--m", f"1..{cli.MAX_ROWS}"),
])
def test_sweep_cap_refuses_before_evaluating(capsys, monkeypatch, argv):
    # a vdc sweep over 2..10**30 once built one row per n until memory ran
    # out; the row cap is checked on the parsed range before any row, and
    # the n_m cap after extending digits only until n_m passes it
    def fail(*args, **kwargs):
        raise AssertionError("rows evaluated")

    metrics = importlib.import_module("kronmesh.metrics")
    for module in (cli, metrics):
        for name in ("sweep_segments", "_structural", "_bounds"):
            monkeypatch.setattr(module, name, fail)
    start = time.perf_counter()
    code, out, err = run(capsys, "sweep", *argv)
    assert time.perf_counter() - start < 1
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "cap" in err and "Traceback" not in err


def test_sweep_cap_admits_exactly_the_cap(capsys, monkeypatch):
    class Evaluated(Exception):
        pass

    def stop(*args, **kwargs):
        raise Evaluated

    monkeypatch.setattr(cli, "sweep_segments", stop)
    with pytest.raises(Evaluated):
        main(["sweep", "--gen", "vdc", "--n", f"2..{cli.MAX_ROWS + 1}"])


@pytest.mark.parametrize("spec", ["golden", "cf:0;9(9)", "sqrt:94"])
def test_nm_cap_admits_the_largest_fitting_m(capsys, monkeypatch, spec):
    class Evaluated(Exception):
        pass

    def stop(*args, **kwargs):
        raise Evaluated

    exp = kronmesh.CFExpansion(kronmesh.parse_alpha(spec))
    m = 1
    while exp.n_at(m + 1).bit_length() <= cli.MAX_NM_BITS:
        m += 1
    monkeypatch.setattr(cli, "_structural", stop)
    with pytest.raises(Evaluated):
        main(["sweep", "--alpha", spec, "--n-at", "nm", "--m", f"1..{m}"])
    code, out, err = run(capsys, "sweep", "--alpha", spec, "--n-at", "nm",
                         "--m", f"{m}..{m + 1}")
    assert code == 1 and out == ""
    assert err == (f"error: --m reaches n_{m + 1} of {exp.n_at(m + 1).bit_length()} "
                   f"bits, above the n_m cap of {cli.MAX_NM_BITS} bits\n")


def test_nm_sweep_extends_only_the_digits_its_windows_need(capsys, monkeypatch):
    # a surd's rows are exact: each reads a_{m+1} and, for its digit form,
    # a_{m+2}, so the sweep draws digits to a_71 at any --bits (an alpha_m
    # window per phase drew 132 at --bits 384, one window per m 191)
    made = []

    class Recorded(cli.CFExpansion):
        def __init__(self, spec):
            super().__init__(spec)
            made.append(self)

    monkeypatch.setattr(cli, "CFExpansion", Recorded)
    for bits in ("64", "384", "4096"):
        code, out, err = run(capsys, "sweep", "--alpha", "sqrt:103", "--n-at", "nm",
                             "--m", "46..69", "--bits", bits)
        assert (code, err, out.count("\n")) == (0, "", 25)
    assert [exp.depth for exp in made] == [71, 71, 71]


def _record_passes(monkeypatch):
    """The (depth before, depth after) of every call of the extension loop
    that draws a digit, on the expansions the CLI builds; the first is the
    constructor's, which draws a_0."""
    passes = []

    class Recorded(cli.CFExpansion):
        def _extend(self, m, q_min=None):
            before = len(self.digits) - 1
            met = super()._extend(m, q_min)
            if self.depth > before:
                passes.append((before, self.depth))
            return met

    monkeypatch.setattr(cli, "CFExpansion", Recorded)
    return passes


def test_gaps_extends_in_one_pass(capsys, monkeypatch):
    # decompose draws digits up to the first q_j > n and no further, in one
    # pass: the chunked extension took about 9 here
    passes = _record_passes(monkeypatch)
    n = 10 ** 39 + 12345
    code, out, err = run(capsys, "gaps", "--alpha", "golden", "--n", str(n))
    assert (code, err) == (0, "")
    exp = kronmesh.CFExpansion(kronmesh.parse_alpha("golden"))
    exp.ensure(300)
    j = next(j for j, (_, q) in enumerate(exp.convergents) if q > n)
    assert passes == [(-1, 0), (0, j)]


def test_bounded_nm_sweep_extends_in_two_passes(capsys, monkeypatch):
    # the n_m cap check draws digits to a_69, and one pass before the rows
    # draws a_70 and a_71, the last row's a_{m+1} and a_{m+2} (a_70 alone
    # without bounds); no alpha_m window is drawn
    passes = _record_passes(monkeypatch)
    code, out, err = run(capsys, "sweep", "--alpha", "sqrt:103", "--n-at", "nm",
                         "--m", "46..69", "--bits", "384")
    assert (code, err, out.count("\n")) == (0, "", 25)
    assert passes == [(-1, 0), (0, 69), (69, 71)]
    passes.clear()
    code, out, err = run(capsys, "sweep", "--alpha", "sqrt:103", "--n-at", "nm",
                         "--m", "46..69", "--no-bounds")
    assert (code, err, out.count("\n")) == (0, "", 25)
    assert passes == [(-1, 0), (0, 69), (69, 70)]


def test_nm_sweep_reads_each_row_off_one_rung(capsys, monkeypatch):
    # n_m decomposes as (m, 0, 0) without decompose, and a surd's rows and
    # bounds are exact: no ladder runs (the bounds climbed one per row)
    threegap = importlib.import_module("kronmesh.threegap")
    contfrac = importlib.import_module("kronmesh.contfrac")
    decompose, escalate = threegap.decompose, contfrac.PrecisionContext.escalate
    decomposed, ladders = [], []

    def counting(*args):
        decomposed.append(args)
        return decompose(*args)

    def recording(self, attempt, start_bits, what):
        ladders.append(contfrac._text(what))
        return escalate(self, attempt, start_bits, what)

    for module in [m for name, m in sys.modules.items() if name.startswith("kronmesh")]:
        if getattr(module, "decompose", None) is decompose:
            monkeypatch.setattr(module, "decompose", counting)
    monkeypatch.setattr(contfrac.PrecisionContext, "escalate", recording)
    code, out, err = run(capsys, "sweep", "--alpha", "sqrt:103", "--n-at", "nm",
                         "--m", "46..69", "--bits", "384")
    assert (code, err, out.count("\n")) == (0, "", 25)
    assert decomposed == []
    assert ladders == []


@pytest.mark.parametrize("n", ["0", "-1", "1"])
@pytest.mark.parametrize("gen", [("--gen", "greedy"), ("--alpha", "golden")])
def test_analyze_refuses_n_below_2_naming_its_flag(capsys, gen, n):
    code, out, err = run(capsys, "analyze", *gen, "--n", n)
    assert (code, out) == (1, "")
    assert err == f"error: analyze needs --n >= 2 (a mesh ratio needs two points), got {n}\n"


@pytest.mark.parametrize("argv", [
    ("analyze", "--alpha", "golden", "--n", "1000"),
    ("sweep", "--alpha", "golden", "--n", "2..100"),
    ("sweep", "--alpha", "golden", "--n-at", "nm", "--m", "1..10"),
    ("gaps", "--alpha", "golden", "--n", "1000"),
    ("points", "--alpha", "golden", "--n", "10"),
])
@pytest.mark.parametrize("flags", [("--bits", "65537"), ("--max-bits", "65537"),
                                   ("--bits", "3000000000", "--max-bits", "3000000000")])
def test_bits_cap_refuses_before_any_work(capsys, monkeypatch, argv, flags):
    # at --bits 1048576 an analyze once ran out of memory building its
    # alpha_m window; the cap is checked on the parsed flags before any work
    def fail(*args, **kwargs):
        raise AssertionError("work done")

    metrics = importlib.import_module("kronmesh.metrics")
    for module in (cli, metrics):
        for name in ("sweep_segments", "_structural", "_bounds"):
            monkeypatch.setattr(module, name, fail)
    for name in ("CFExpansion", "gap_structure", "generate"):
        monkeypatch.setattr(cli, name, fail)
    start = time.perf_counter()
    code, out, err = run(capsys, *argv, *flags)
    assert time.perf_counter() - start < 1
    assert code == 1 and out == ""
    assert err == f"error: {flags[0]} {flags[1]} exceeds the precision cap of 65536 bits\n"


def test_bits_cap_admits_exactly_the_cap(monkeypatch):
    class Evaluated(Exception):
        pass

    seen = []

    def stop(gen, lo, hi, ctx, **kwargs):
        seen.append(ctx)
        raise Evaluated

    monkeypatch.setattr(cli, "sweep_segments", stop)
    with pytest.raises(Evaluated):
        main(["analyze", "--alpha", "golden", "--n", "1000",
              "--bits", "65536", "--max-bits", "65536"])
    assert cli.MAX_BITS == 65536
    assert seen == [kronmesh.PrecisionContext(65536, 65536)]


DIGITS_COMMANDS = [
    ("analyze", "--alpha", "golden", "--n", "10"),
    ("sweep", "--gen", "vdc", "--base", "3", "--n", "2..4", "--format", "json"),
    ("points", "--gen", "vdc", "--base", "3", "--n", "3"),
]


@pytest.mark.parametrize("argv", DIGITS_COMMANDS + [
    ("gaps", "--alpha", "golden", "--n", "10"),
    ("classify", "--alpha", "golden"),
])
@pytest.mark.parametrize("digits", [1001, 2000000000])
def test_digits_cap_refuses_before_any_work(capsys, monkeypatch, argv, digits):
    # --digits 2000000000 once ended an analyze in a MemoryError traceback,
    # and --digits 10**8 made a 3-point dump write 200 MB
    def fail(*args, **kwargs):
        raise AssertionError("work done")

    for name in ("sweep_segments", "CFExpansion", "generate", "parse_alpha"):
        monkeypatch.setattr(cli, name, fail)
    start = time.perf_counter()
    code, out, err = run(capsys, *argv, "--digits", str(digits))
    assert time.perf_counter() - start < 1
    assert code == 1 and out == ""
    assert err == f"error: --digits {digits} exceeds the output cap of 1000\n"


@pytest.mark.parametrize("argv", DIGITS_COMMANDS)
def test_digits_cap_admits_exactly_the_cap(capsys, argv):
    assert cli.MAX_DIGITS == 1000
    code, out, err = run(capsys, *argv, "--digits", "1000")
    assert code == 0 and err == ""
    if argv[0] == "analyze":
        digits = json.loads(out)["mesh_ratio"].replace(".", "")
        assert len(digits) == 1000 and digits.isdigit()
    else:  # a vdc base 3 point, and the fill of 3 of them, is 1/3
        assert "0." + "3" * 1000 in out and "3" * 1001 not in out


@pytest.mark.parametrize("argv", [
    ("classify", "--alpha", "sqrt:10000000000039"),
    ("analyze", "--alpha", "sqrt:10000000000039", "--n", "100"),
    ("sweep", "--alpha", "sqrt:10000000000039", "--n", "2..50", "--format", "json"),
])
def test_period_walk_cap_exits_3(capsys, argv):
    # the walk once ran until MemoryError; this period does not close within
    # contfrac.MAX_PERIOD_WALK digits
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 3 and out == ""
    assert err == ("error: the digit period of sqrt:10000000000039 does not close within "
                   "the walk cap of 1000000 digits\n")


def test_period_walk_cap_spares_bound_free_sweeps(capsys, monkeypatch):
    walks = []
    monkeypatch.setattr(importlib.import_module("kronmesh.contfrac"), "_surd_period",
                        walks.append)
    code, out, err = run(capsys, "sweep", "--alpha", "sqrt:10000000000039", "--n", "2..50",
                         "--no-bounds")
    assert code == 0 and err == "" and len(out.splitlines()) == 50
    assert walks == []  # no bound column, so no period walk


def test_period_of_138121_digits_answers(capsys):
    # sqrt(99999999977) has period (1, 138121), past the cap of 10**4 digits
    # that an expansion-driven walk once had (exit 3), inside today's 10**6
    code, payload, err = run_json(capsys, "classify", "--alpha", "sqrt:99999999977")
    assert (code, err) == (0, "")
    assert payload == {"verdict": "yes", "digit_sup": 632454, "certainty": "exact",
                       "c_bound": 1264910}


def test_nm_cap_lies_far_above_the_sizes_in_use():
    # the fixture sweeps m <= 80 and kron-deep's n_m stay below 10**60; a
    # cap near them would refuse sweeps the benchmark and users run
    assert cli.MAX_NM_BITS >= 8 * (10 ** 60).bit_length()


def test_bare_kronmesh_error_exits1(capsys, monkeypatch):
    # decompose raises a bare KronmeshError for a broken invariant
    def broken(exp, n):
        raise kronmesh.KronmeshError(f"decomposition out of range at n={n}")

    monkeypatch.setattr(importlib.import_module("kronmesh.threegap"),
                        "decompose", broken)
    code, out, err = run(capsys, "gaps", "--alpha", "golden", "--n", "5")
    assert code == 1 and out == ""
    assert err == "error: decomposition out of range at n=5\n"


_DUMP_GENERATORS = (
    [(("--gen", "vdc", "--base", str(b)), kronmesh.VdcGen(b)) for b in range(2, 17)]
    + [(("--gen", "greedy", "--tie-break", t), kronmesh.GreedyGen(t))
       for t in ("leftmost", "rightmost")]
    + [(("--alpha", a), kronmesh.KroneckerGen(kronmesh.parse_alpha(a)))
       for a in ("golden", "sqrt:7", "cf:0;5,4(6,8,6)",
                 "cf:0;1,2,3,4,5,6,7,8", "rat:3/7")]
)


@pytest.mark.parametrize("argv,gen", _DUMP_GENERATORS,
                         ids=[" ".join(a) for a, _ in _DUMP_GENERATORS])
def test_points_json_is_json_dumps(capsys, argv, gen):
    # the points writer joins the array itself; its text must stay the
    # one json.dumps(indent=2) gives
    for n in (1, 2, 1000):
        ps = kronmesh.generate(gen, n)
        for digits in (1, 2, 17, 40, 90, 120):
            code, out, err = run(capsys, "points", *argv, "--n", str(n),
                                 "--digits", str(digits), "--format", "json")
            payload = kronmesh.points_to_json(ps, digits)
            assert (code, err) == (0, ""), (n, digits)
            assert out == json.dumps(payload, indent=2) + "\n", (n, digits)
            assert json.loads(out) == payload, (n, digits)


# sha256 of the stdout of `kronmesh [<command>] --help` at 80 columns: the
# help text argparse prints is part of the interface, however the parser is
# declared
_HELP_SHA256 = {
    (): "3e7915fb5c367de4d032621f1feed31968a2767515ef51180a4b0e3e6925382c",
    ("gaps",): "19846e7f0679479332948abe41bd27ccb1a913d8e9d32ddadc791b33b9955141",
    ("analyze",): "11a1601fa416760b0c2b28784443c1d8e0f647884b888912dd85f7adf39a5f7f",
    ("sweep",): "c80f7c57a185004a0db351692c1782a8b8bc5da1df4a8bf0a4df37f43b7f69b8",
    ("classify",): "cd4a7658c1f67cb6eaabd4ba984287b0c1b1f49da062b0971fe58f891feb7b63",
    ("points",): "2ba7a7a5fbefc808d733d29710149dc3da0cb7e72660893f01cb98881151f099",
}


@pytest.mark.parametrize("command", list(_HELP_SHA256), ids=lambda c: " ".join(c) or "top")
def test_help_text_is_pinned(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([*command, "--help"])
    assert exc.value.code == 0
    cap = capsys.readouterr()
    assert cap.err == ""
    assert hashlib.sha256(cap.out.encode()).hexdigest() == _HELP_SHA256[command], cap.out


def test_main_builds_one_parser(capsys, monkeypatch):
    # a well-formed argv is read off the option table; argparse is built on
    # the first argv that needs it, and that one parser serves every later one
    builds = []
    original = cli.build_parser

    def counting():
        builds.append(1)
        return original()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    assert main(["analyze", "--gen", "vdc", "--n", "9"]) == 0
    assert main(["classify", "--alpha", "golden"]) == 0
    assert builds == []
    assert main(["analyze", "--gen", "vdc", "--n", "9", "--format", "xml"]) == 1
    assert len(builds) == 1
    assert main(["classify", "--alpha", "golden", "--probe", "x"]) == 1
    assert main(["analyze", "--gen", "vdc", "--n", "9"]) == 0
    assert main(["sweep", "--gen", "vdc", "--n", "2..5", "--dig", "5"]) == 0
    capsys.readouterr()
    assert len(builds) == 1
    assert original() is not original()


def _fresh_run(capsys, *argv):
    cli._parser.cache_clear()
    return run(capsys, *argv)


@pytest.mark.parametrize("with_flag, code, without", [
    (("sweep", "--alpha", "golden", "--n", "2..6", "--no-bounds"), 0,
     ("sweep", "--alpha", "golden", "--n", "2..6")),
    (("analyze", "--alpha", "sqrt:2", "--n", "7", "--digits", "8"), 0,
     ("analyze", "--alpha", "sqrt:2", "--n", "7")),
    (("sweep", "--gen", "vdc", "--n", "2..9", "--out", "{tmp}"), 0,
     ("sweep", "--gen", "vdc", "--n", "2..9")),
    (("sweep", "--gen", "vdc", "--n", "2..9", "--format", "json"), 0,
     ("sweep", "--gen", "vdc", "--n", "2..9")),
    (("sweep", "--alpha", "golden", "--n-at", "nm", "--m", "1..3"), 0,
     ("sweep", "--alpha", "golden", "--n", "2..9")),
    (("points", "--gen", "greedy", "--n", "9", "--tie-break", "rightmost"), 0,
     ("points", "--gen", "greedy", "--n", "9")),
    (("points", "--gen", "vdc", "--n", "9", "--base", "3"), 0,
     ("points", "--gen", "vdc", "--n", "9")),
    # an argparse failure, then an exit-3 run, before a valid call
    (("analyze", "--alpha", "golden", "--n", "5", "--format", "xml"), 1,
     ("analyze", "--alpha", "golden", "--n", "5")),
    (("gaps", "--alpha", "cf:0;1,2,3", "--n", "100"), 3,
     ("gaps", "--alpha", "golden", "--n", "5")),
])
def test_reused_parser_keeps_no_state(capsys, tmp_path, with_flag, code, without):
    # main reads every call off one option table, or one cached parser: a
    # flag given in one call must not carry into the next
    target = tmp_path / "out.txt"
    with_flag = [a.format(tmp=target) for a in with_flag]
    want = _fresh_run(capsys, *without)
    assert run(capsys, *with_flag)[0] == code
    assert run(capsys, *without) == want
    assert vars(cli._parser().parse_args(without)) == \
        vars(cli.build_parser().parse_args(without))
    assert want[0] == 0 and want[1] and want[2] == ""


def test_usage_errors_exit1(capsys):
    cases = [
        ["analyze", "--alpha", "not-a-spec", "--n", "5"],
        ["analyze", "--alpha", "golden", "--n", "zero"],
        ["analyze", "--n", "5"],
        ["sweep", "--alpha", "golden", "--n", "9..2"],
        ["sweep", "--alpha", "golden"],
        ["sweep", "--gen", "greedy", "--n-at", "nm", "--m", "3..5"],
        ["points", "--gen", "vdc", "--alpha", "golden", "--n", "4"],
        ["analyze", "--alpha", "golden", "--n", "5", "--bits", "-3"],
        ["gaps", "--alpha", "golden", "--n", "0"],
        ["classify", "--alpha", "golden", "--probe", "0"],
        # two range flags: neither is silently ignored
        ["sweep", "--alpha", "golden", "--n", "2..5", "--n-range", "7..9"],
        ["sweep", "--alpha", "golden", "--n-at", "nm", "--m", "1..3", "--n", "2..5"],
        ["sweep", "--alpha", "golden", "--n", "2..4", "--m", "1..3"],
    ]
    for argv in cases:
        code, out, err = run(capsys, *argv)
        assert code == 1, argv
        assert "error" in err, argv


@pytest.mark.parametrize("argv, what, digits", [
    (("gaps", "--alpha", "golden", "--n", "1" + "0" * 5000), "--n", 5001),
    (("analyze", "--alpha", "golden", "--n", " -" + "7" * 4301 + " "), "--n", 4301),
    (("sweep", "--alpha", "golden", "--n-at", "nm", "--m", "1.." + "9" * 4400), "--m", 4400),
    (("classify", "--alpha", "sqrt:" + "1" * 4501), "sqrt:D", 4501),
    (("classify", "--alpha", "rat:1/" + "3" * 4302), "rat:q", 4302),
    (("gaps", "--alpha", "cf:0;1,2," + "2" * 4400, "--n", "5"), "cf digit", 4400),
    # the flags argparse reads as integers
    (("analyze", "--alpha", "golden", "--n", "5", "--bits", "1" * 4400), "--bits", 4400),
    (("analyze", "--alpha", "golden", "--n", "5", "--max-bits=" + "1" * 4401), "--max-bits", 4401),
    (("gaps", "--alpha", "golden", "--n", "5", "--digits", "-" + "4" * 4402), "--digits", 4402),
    (("points", "--gen", "vdc", "--n", "5", "--base", "3" * 4403), "--base", 4403),
    (("classify", "--alpha", "golden", "--probe", "6" * 4404), "--probe", 4404),
])
def test_integers_past_the_parsing_limit_are_named_not_echoed(capsys, argv, what, digits):
    # int() refuses more than sys.get_int_max_str_digits() digits; every
    # integer reader says which value, how many digits and the limit
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == (f"error: {what} has {digits} digits, above the limit of {limit} "
                   "digits for an integer\n")


def test_integers_within_the_parsing_limit_still_parse(capsys):
    # the limit counts leading zeros too, as int() does
    code, out, err = run(capsys, "sweep", "--alpha", "golden", "--n-at", "nm",
                         "--m", "1.." + "0" * 4298 + "12", "--no-bounds")
    assert (code, err, out.count("\n")) == (0, "", 13)
    code, out, err = run(capsys, "gaps", "--alpha", "golden", "--n", "1" * 4301 + "x")
    assert (code, out) == (1, "") and err.startswith("error: --n must be an integer, got '111")


@pytest.mark.parametrize("argv", [
    ("--n", "2..5", "--n-range", "7..9"),
    ("--n-at", "nm", "--m", "1..3", "--n", "2..5"),
    ("--n-at", "nm", "--m", "1..3", "--n-range", "2..5"),
    ("--n", "2..4", "--m", "1..3"),
    ("--m", "1..3"),
])
def test_conflicting_range_flags_refuse_before_evaluating(capsys, monkeypatch, argv):
    def fail(*args, **kwargs):
        raise AssertionError("rows evaluated")

    for name in ("sweep_segments", "gap_structure", "_structural", "_bounds"):
        monkeypatch.setattr(cli, name, fail)
    code, out, err = run(capsys, "sweep", "--alpha", "golden", *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_argparse_failures_exit1(capsys):
    assert main(["no-such-command"]) == 1
    capsys.readouterr()
    assert main(["analyze", "--alpha", "golden", "--n", "5", "--format", "xml"]) == 1
    capsys.readouterr()
    assert main([]) == 1
    capsys.readouterr()


def test_byte_determinism(capsys):
    argv = ["sweep", "--alpha", "sqrt:5", "--n", "2..40", "--format", "csv"]
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2
    argv = ["gaps", "--alpha", "cf:0;(2,1)", "--n", "17"]
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "rows.csv"
    code, out, _ = run(capsys, "sweep", "--alpha", "golden", "--n", "2..5",
                       "--out", str(target))
    assert code == 0
    assert out == ""
    text = target.read_text()
    assert text.startswith("n,h_n,")
    assert len(text.strip().splitlines()) == 5


@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_unwritable_out_exits_1_with_one_error_line(tmp_path, capsys, where):
    target = tmp_path / "no" / "such" / "x.csv" if where == "missing directory" else tmp_path
    code, out, err = run(capsys, "points", "--gen", "vdc", "--n", "3", "--out", str(target))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("argv", [
    ("points", "--alpha", "golden", "--n", "50000"),
    ("points", "--gen", "vdc", "--base", "3", "--n", "50000", "--format", "json"),
    ("sweep", "--alpha", "golden", "--n", "2..20000"),
    ("sweep", "--gen", "greedy", "--n", "2..20000", "--format", "json"),
])
def test_out_write_failing_after_the_first_chunk_exits_1(capsys, argv):
    # the output is written a chunk at a time, so a full disk surfaces after
    # some chunks have gone out (a partial file), still as one error line
    code, out, err = run(capsys, *argv, "--out", "/dev/full")
    assert (code, out) == (1, "")
    assert err == "error: [Errno 28] No space left on device\n"


@pytest.mark.parametrize("argv,lines", [
    (("points", "--alpha", "golden", "--n", "200000"), 1),
    (("sweep", "--alpha", "golden", "--n", "2..200000", "--format", "json"), 1),
    (("points", "--gen", "vdc", "--n", "100"), 0),
])
def test_closed_stdout_pipe_exits_1_with_one_error_line(argv, lines):
    # a reader that stops early (`| head -1`) closes the pipe while chunks
    # are still being written, or before a short output leaves the stdout
    # buffer: then the final flush must fail inside main, and must not fail
    # again at interpreter exit ("Exception ignored", exit 120)
    env = {k: v for k, v in SUBPROCESS_ENV.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.Popen([sys.executable, "-m", "kronmesh", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        for _ in range(lines):
            assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 1
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    assert err == "error: [Errno 32] Broken pipe\n"


@pytest.mark.parametrize("argv", [
    ("points", "--gen", "vdc", "--n", "3"),
    ("points", "--alpha", "golden", "--n", "3", "--format", "json"),
    ("sweep", "--gen", "vdc", "--n", "2..5"),
    ("sweep", "--alpha", "golden", "--n", "2..5", "--format", "json"),
    ("analyze", "--gen", "vdc", "--n", "3"),
    ("gaps", "--alpha", "golden", "--n", "30"),
])
def test_digits_below_one_exit_1_before_any_output(capsys, argv):
    # the renderers refuse --digits 0; the chunk writers render after the
    # first byte could go out, so sweep and points refuse it first
    code, out, err = run(capsys, *argv, "--digits", "0")
    assert (code, out, err) == (1, "", "error: digits must be >= 1\n")


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="no /proc")
def test_sweep_memory_does_not_grow_with_rows():
    # a 1000-digit golden sweep writes about 3.5 kB a row; streamed, its
    # peak RSS stays flat from 2*10**4 to 2*10**5 rows (whole, 2..20000
    # peaked at 149 MB).  The peak is VmHWM, the child's own since exec:
    # ru_maxrss also counts the forking test process
    code = ("import os, sys; from kronmesh import cli; "
            "code = cli.main(['sweep', '--alpha', 'golden', '--n', sys.argv[1], "
            "'--digits', '1000', '--out', os.devnull]); "
            "hwm = [l for l in open('/proc/self/status') if l.startswith('VmHWM:')]; "
            "print(code, hwm[0].split()[1])")
    peaks = []
    for rows in ("2..20000", "2..200000"):
        proc = subprocess.run([sys.executable, "-c", code, rows], capture_output=True,
                              text=True, env=SUBPROCESS_ENV, timeout=120)
        exit_code, kb = map(int, proc.stdout.split())
        assert exit_code == 0, proc.stderr
        peaks.append(kb / 1024)
    assert abs(peaks[1] - peaks[0]) < 10, peaks
    assert max(peaks) < 75, peaks


def test_digits_flag_truncates(capsys):
    _, p1, _ = run_json(capsys, "analyze", "--alpha", "sqrt:2", "--n", "7",
                        "--digits", "8")
    _, p2, _ = run_json(capsys, "analyze", "--alpha", "sqrt:2", "--n", "7",
                        "--digits", "30")
    assert len(p2["fill"]) > len(p1["fill"])
    assert p2["fill"].startswith(p1["fill"][:6])


def test_module_entrypoint_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "kronmesh", "analyze", "--alpha", "golden",
         "--n", "5"],
        capture_output=True, text=True, env=SUBPROCESS_ENV,
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert float(payload["mesh_ratio"]) == 2


@pytest.mark.skipif(shutil.which("kronmesh") is None,
                    reason="no kronmesh console script on PATH (package not installed)")
def test_console_script_subprocess():
    console = subprocess.run(
        ["kronmesh", "classify", "--alpha", "sqrt:2"],
        capture_output=True, text=True, env=SUBPROCESS_ENV,
    )
    assert console.returncode == 0
    assert json.loads(console.stdout)["verdict"] == "yes"


def test_console_script_entry_point_declared():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with pyproject.open("rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"kronmesh": "kronmesh.cli:main"}
    module, _, attr = scripts["kronmesh"].partition(":")
    assert getattr(importlib.import_module(module), attr) is main


def test_package_has_no_assert_statements():
    # python -O strips assert, so every invariant must be an explicit raise
    package = Path(kronmesh.__file__).resolve().parent
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_cli_start_up_loads_no_dataclasses_machinery():
    # the records are NamedTuples, so a one-shot CLI run pays for none of the
    # modules dataclasses pulls in (-S: count the package's imports only)
    heavy = ("dataclasses", "inspect", "ast", "dis", "tokenize")
    code = ("import sys, kronmesh.cli; kronmesh.cli.build_parser(); "
            f"print([m for m in {heavy!r} if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                          text=True, env=SUBPROCESS_ENV, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_well_formed_cli_call_loads_no_argparse():
    # a well-formed argv is read off the option table, so a one-shot call
    # imports neither argparse nor the gettext and locale it pulls in
    heavy = ("argparse", "gettext", "locale")
    code = ("import sys, kronmesh.cli; "
            "code = kronmesh.cli.main(['classify', '--alpha', 'golden']); "
            f"print(code, [m for m in {heavy!r} if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                          text=True, env=SUBPROCESS_ENV, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"


def test_no_package_module_imports_dataclasses():
    package = Path(kronmesh.__file__).resolve().parent
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                names = [node.module] if isinstance(node, ast.ImportFrom) else []
            if any(name and name.partition(".")[0] == "dataclasses" for name in names):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def _package_trees():
    package = Path(kronmesh.__file__).resolve().parent
    return {path.name: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(package.glob("*.py"))}


def test_every_export_has_a_package_caller_or_is_documented():
    # README's `## Library` text before its first subsection is the contract
    readme = Path(__file__).resolve().parent.parent / "README.md"
    section = re.split(r"\n##+ ", readme.read_text().split("\n## Library\n", 1)[1], 1)[0]
    # a fenced block and an inline span both show names; reading a fence
    # as three backticks would pair every later span the wrong way round
    spans = re.findall(r"```(.*?)```|`([^`]+)`", section, re.S)
    documented = {name for span in spans for name in re.findall(r"[A-Za-z_]\w*", "".join(span))}
    trees = _package_trees()
    exported = {alias.asname or alias.name for node in trees.pop("__init__.py").body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    called = {node.id for tree in trees.values() for node in ast.walk(tree)
              if isinstance(node, ast.Name)}
    assert sorted(exported - called - documented) == []


def test_every_module_function_and_class_is_referenced_or_exported():
    # a definition that only the tests need belongs in tests/oracles.py
    trees = _package_trees()
    exported = {alias.asname or alias.name for node in trees["__init__.py"].body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    referenced = {node.id for tree in trees.values() for node in ast.walk(tree)
                  if isinstance(node, ast.Name)}
    found = [f"{name}:{node.lineno} {node.name}" for name, tree in trees.items()
             for node in tree.body
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
             and node.name not in referenced | exported]
    assert found == []


# the views that hand a value to a library user as a Fraction, by module
# and owner (a module-level def, or "Class.member" in a class body)
FRACTION_VIEWS = {("metrics.py", "_value"), ("metrics.py", "_bound_pair"),
                  ("metrics.py", "QUMetrics.error_bound"),
                  ("metrics.py", "BoundReport.lower_digit_form"),
                  ("sequences.py", "PointSet.__new__"), ("sequences.py", "PointSet.points"),
                  ("sequences.py", "PointSet.error_bound")}


def _owned_nodes(tree):
    """(owner, node) for every node below a module's top-level statements:
    the def, class or assignment target that holds it, "Class.member" for
    a member of a class body."""
    def label(stmt):
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return stmt.name
        targets = getattr(stmt, "targets", None) or [getattr(stmt, "target", None)]
        return ",".join(t.id for t in targets if isinstance(t, ast.Name)) or type(stmt).__name__

    for top in tree.body:
        if not isinstance(top, ast.ClassDef):
            yield from ((label(top), node) for node in ast.walk(top))
            continue
        for part in top.bases + top.keywords + top.decorator_list:
            yield from ((top.name, node) for node in ast.walk(part))
        for member in top.body:
            yield from ((f"{top.name}.{label(member)}", node) for node in ast.walk(member))


def test_decisions_build_no_fraction_and_no_module_names_interval():
    # every comparison the package decides is integer arithmetic; a
    # Fraction is built only by a view, and Interval is gone
    found, trees = [], _package_trees()
    for name, tree in trees.items():
        for owner, node in _owned_nodes(tree):
            ident = (getattr(node, "id", None) or getattr(node, "attr", None)
                     or getattr(node, "name", None))
            if ident == "Interval" or getattr(node, "asname", None) == "Interval":
                found.append(f"{name}:{node.lineno} names Interval")
            if (ident == "Fraction" and not isinstance(node, ast.alias)
                    and (name, owner) not in FRACTION_VIEWS):
                found.append(f"{name}:{node.lineno} {owner} names Fraction")
    assert found == []
    assert {name for name, tree in trees.items()
            if any(isinstance(node, ast.ImportFrom) and node.module == "fractions"
                   for node in ast.walk(tree))} == {"metrics.py", "sequences.py"}


# names the package no longer defines; tests/oracles.py holds their stand-ins
REMOVED_NAMES = {"sweep", "SweepRow", "fraction_to_decimal", "interval_to_decimal",
                 "form_interval", "Interval", "rho_interval"}


def test_benchmark_oracle_calls_are_defined_in_tests_oracles():
    # bench/checks.py imports tests/oracles.py as it is and calls functions
    # on _oracles() or on a name bound to it; a missing one would fail the
    # benchmark's oracle check, so every such call must resolve
    root = Path(__file__).resolve().parent.parent
    checks = ast.parse((root / "bench" / "checks.py").read_text())
    handles = {target.id for node in ast.walk(checks) if isinstance(node, ast.Assign)
               and isinstance(node.value, ast.Call)
               and getattr(node.value.func, "id", None) == "_oracles"
               for target in node.targets if isinstance(target, ast.Name)}

    def is_oracles(expr):
        return (isinstance(expr, ast.Call) and getattr(expr.func, "id", None) == "_oracles"
                or isinstance(expr, ast.Name) and expr.id in handles)

    called = {node.func.attr for node in ast.walk(checks)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and is_oracles(node.func.value)}
    assert {"tail_interval_from_digits", "mp_value", "scaled_prefix_metrics",
            "brute_metrics"} <= called
    oracles_tree = ast.parse((root / "tests" / "oracles.py").read_text())
    defined = {node.name for node in oracles_tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert sorted(called - defined) == []
    imported = {alias.asname or alias.name for node in ast.walk(oracles_tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    assert sorted(imported & REMOVED_NAMES) == []
    oracles = importlib.import_module("oracles")
    assert all(callable(getattr(oracles, name)) for name in called)
    assert not any(hasattr(kronmesh, name) for name in REMOVED_NAMES)


def test_no_package_module_keeps_an_unused_import():
    found = []
    for name, tree in _package_trees().items():
        if name == "__init__.py":  # its imports are the exports
            continue
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                found += [f"{name}:{node.lineno} {alias.asname or alias.name}"
                          for alias in node.names
                          if (alias.asname or alias.name).partition(".")[0] not in used]
    assert found == []


def test_no_package_module_dumps_json_with_indent():
    # with indent set, json.dumps runs its pure-Python encoder on every key;
    # the documents are written from templates of their shapes instead
    found = [f"{name}:{node.lineno}" for name, tree in _package_trees().items()
             for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and getattr(node.func, "attr", getattr(node.func, "id", None)) == "dumps"
             and any(kw.arg in ("indent", None) for kw in node.keywords)]
    assert found == []


def test_metrics_sort_no_points():
    # the incremental sorted-point kernel lives in tests/oracles.py: the
    # metrics module imports no heap or bisection and calls no generator
    path = Path(kronmesh.__file__).resolve().parent / "metrics.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module)
    assert imported.isdisjoint({"heapq", "bisect"}), imported
    called = {getattr(node.func, "id", None) or getattr(node.func, "attr", None)
              for node in ast.walk(tree) if isinstance(node, ast.Call)}
    assert called.isdisjoint({"generate", "kronecker", "van_der_corput", "greedy_packing"})


def _names_bits(node) -> bool:
    name = getattr(node, "id", None) or getattr(node, "attr", None) or ""
    return "bits" in name


def _doubles_bits(node) -> bool:
    def is_const(expr, value):
        return isinstance(expr, ast.Constant) and expr.value == value

    if isinstance(node, ast.BinOp):
        if isinstance(node.op, ast.Mult):
            return ((is_const(node.left, 2) and _names_bits(node.right))
                    or (is_const(node.right, 2) and _names_bits(node.left)))
        if isinstance(node.op, ast.LShift):
            return is_const(node.right, 1) and _names_bits(node.left)
    if isinstance(node, ast.AugAssign) and _names_bits(node.target):
        return ((isinstance(node.op, ast.Mult) and is_const(node.value, 2))
                or (isinstance(node.op, ast.LShift) and is_const(node.value, 1)))
    return False


def test_only_the_ladder_escalates_precision():
    # every certified comparison climbs PrecisionContext.escalate: no module
    # but contfrac reads the ceiling or doubles a bits value (the CLI only
    # passes --max-bits on)
    package = Path(kronmesh.__file__).resolve().parent
    found = []
    for path in sorted(package.glob("*.py")):
        if path.name == "contfrac.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.Attribute) and node.attr == "max_bits"
                    and not (path.name == "cli.py" and isinstance(node.value, ast.Name)
                             and node.value.id == "args")):
                found.append(f"{path.name}:{node.lineno} reads .max_bits")
            if _doubles_bits(node):
                found.append(f"{path.name}:{node.lineno} doubles bits")
    assert found == []


def test_only_the_extension_loop_draws_digits():
    # CFExpansion._extend is the one loop that advances the digit source:
    # the constructor builds the source and no other code touches it
    package = Path(kronmesh.__file__).resolve().parent
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        # the innermost def holding each node (ast.walk visits outer defs first)
        owner = {id(node): func.name for func in ast.walk(tree)
                 if isinstance(func, ast.FunctionDef) for node in ast.walk(func)}
        for node in ast.walk(tree):
            site = (path.name, owner.get(id(node)))
            if isinstance(node, ast.Attribute) and node.attr == "_source":
                found.append((*site, type(node.ctx).__name__))
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_digit_source":
                found.append((*site, "call"))
    assert sorted(found) == [("contfrac.py", "__init__", "Store"),
                             ("contfrac.py", "__init__", "call"),
                             ("contfrac.py", "_extend", "Load")]


def test_ladder_rungs_pass_bits_not_contexts():
    # a PrecisionContext is built only from the CLI flags (cli._context) and
    # as contfrac.DEFAULT_CONTEXT; no module rebuilds one per rung with
    # replace(ctx, ...) or its NamedTuple spelling ctx._replace(...)
    package = Path(kronmesh.__file__).resolve().parent
    found = []
    for path in sorted(package.glob("*.py")):
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            owner = getattr(top, "name", None) or ",".join(
                t.id for t in getattr(top, "targets", ()) if isinstance(t, ast.Name))
            for node in ast.walk(top):
                if not isinstance(node, ast.Call):
                    continue
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name == "PrecisionContext" and (path.name, owner) not in {
                        ("cli.py", "_context"), ("contfrac.py", "DEFAULT_CONTEXT")}:
                    found.append(f"{path.name}:{node.lineno} builds a PrecisionContext")
                if (name == "replace" and node.args and isinstance(node.args[0], ast.Name)
                        and "ctx" in node.args[0].id):
                    found.append(f"{path.name}:{node.lineno} calls replace(ctx, ...)")
                if (name == "_replace" and isinstance(node.func.value, ast.Name)
                        and "ctx" in node.func.value.id):
                    found.append(f"{path.name}:{node.lineno} calls ctx._replace(...)")
    assert found == []


@pytest.mark.parametrize("argv, site, start_bits", [
    (("gaps", "--alpha", "cf:0;1,2,3,4,5", "--n", "226"), "sign of", 192),
    (("sweep", "--alpha", "cf:0;1,1,1,1,1,1", "--n-at", "nm", "--m", "5..5"),
     "gap-length ordering", 192),
    (("analyze", "--alpha", "cf:0;1,2,3,4,5", "--n", "114"), "point order",
     192 + (113).bit_length() + 16),
])
def test_prefix_ladder_stops_after_two_rungs(capsys, monkeypatch, argv, site, start_bits):
    # a digit prefix bounds alpha only to its bracket, so once a doubling
    # leaves the error unhalved the run ends (the sign and the order of gap
    # lengths used to climb to 2**65536)
    contfrac = importlib.import_module("kronmesh.contfrac")
    scales = []
    original = contfrac.CFExpansion.alpha0_scaled

    def recording(self, bits):
        scales.append(bits)
        return original(self, bits)

    monkeypatch.setattr(contfrac.CFExpansion, "alpha0_scaled", recording)
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert site in err and "cannot reduce" in err
    assert max(scales) <= 2 * start_bits, sorted(set(scales))


def test_ladder_deciding_at_its_first_rung_builds_no_message(capsys, monkeypatch):
    # the sites that run once per gap form or per row name their comparison
    # by a callable, which the ladder calls only when it raises
    contfrac = importlib.import_module("kronmesh.contfrac")
    original = contfrac.PrecisionContext.escalate
    passed, built = [], []

    def recording(self, attempt, start_bits, what):
        if isinstance(what, str):
            return original(self, attempt, start_bits, what)
        passed.append(what)
        return original(self, attempt, start_bits, lambda: built.append(what) or what())

    monkeypatch.setattr(contfrac.PrecisionContext, "escalate", recording)
    # a surd's gap forms and bounds are exact: the sign and bound ladders
    # run on a digit prefix (of sqrt:7 and of cf:1;7(2))
    for argv in (("gaps", "--alpha", "cf:2;" + "1,1,1,4," * 20, "--n", str(10 ** 20)),
                 ("sweep", "--alpha", "cf:2;" + "1,1,1,4," * 20, "--n-at", "nm", "--m", "3..12"),
                 ("analyze", "--alpha", "cf:1;7" + ",2" * 40, "--n", "1000"),
                 ("points", "--alpha", "golden", "--n", "20")):
        assert run(capsys, *argv)[0] == 0
    assert built == []
    # each of the four sites: "sign of ...", "bound denominator sign (n=...)",
    # "point order at n=...", "integer straddles of the first ... points"
    assert {what().split()[0] for what in passed} == {"sign", "bound", "point", "integer"}
