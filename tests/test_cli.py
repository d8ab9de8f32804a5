import ast
import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import kronmesh
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
    ]
    for argv in cases:
        code, out, err = run(capsys, *argv)
        assert code == 1, argv
        assert "error" in err, argv


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
