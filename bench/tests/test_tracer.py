"""Hygiene of the benchmark's tracer and worker, and of its n_m oracle.

    python3 -m pytest -q bench/tests
"""
import contextlib
import functools
import inspect
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
for path in (str(BENCH), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import kronmesh  # noqa: E402
import kronmesh.cli  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from tracer import PER_LAYER, Tracer  # noqa: E402

GAPS = ["gaps", "--alpha", "golden", "--n", "1000000"]


def _bindings():
    """(module name, attribute) -> object for every kronmesh binding."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "kronmesh" or name.startswith("kronmesh."):
            for attr, val in vars(mod).items():
                out[(name, attr)] = val
    out[("CFExpansion", "__init__")] = vars(kronmesh.CFExpansion)["__init__"]
    return out


def _traced_request(tracer, argv):
    tracer.begin_request(0)
    with contextlib.redirect_stdout(io.StringIO()):
        code = kronmesh.cli.main(argv)
    tracer.end_request()
    return code


def test_traced_run_restores_every_binding():
    before = _bindings()
    tracer = Tracer().install()
    try:
        patched = [key for key, val in _bindings().items() if before[key] is not val]
        # `from .x import y` copies are patched too: fraction_to_decimal is
        # bound in intervals, sequences, metrics and the package itself
        owners = {mod for mod, attr in patched if attr == "fraction_to_decimal"}
        assert {"kronmesh", "kronmesh.intervals", "kronmesh.sequences",
                "kronmesh.metrics"} <= owners
        assert _traced_request(tracer, GAPS) == 0
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert tracer.calls["threegap.gap_structure"] == 1


def test_untraced_run_installs_no_wrapper(monkeypatch):
    before = _bindings()
    seen = []
    shape_check = checks.shape_check

    def spy(req, code, out):
        now = _bindings()
        seen.append([key for key in before if now[key] is not before[key]])
        return shape_check(req, code, out)

    monkeypatch.setattr(checks, "shape_check", spy)
    result = worker.run_list("kron-deep", 3)
    assert result["attempted"] == len(seen) > 0
    assert all(changed == [] for changed in seen)


@pytest.mark.parametrize("workload", ["kron-deep", "exact-gens"])
def test_traced_and_untraced_outputs_are_identical(workload):
    plain = worker.run_list(workload, 5)
    traced = worker.run_list(workload, 5, trace=True, traced_first=True)
    assert plain["failures"] == traced["failures"] == []
    assert plain["plain"]["digests"] == traced["plain"]["digests"] == \
        traced["traced"]["digests"]
    # a traced pass runs every request twice, once untraced and once traced
    assert traced["layers"]["cli.requests"] == plain["attempted"]
    assert traced["attempted"] == 2 * plain["attempted"]


def test_missing_public_function_is_reported_absent(monkeypatch):
    from kronmesh import metrics, threegap
    # sorted_gaps disappears outright; eta stays callable (gap_structure
    # still needs it) but is no longer a public function of threegap
    monkeypatch.delattr(metrics, "sorted_gaps")
    monkeypatch.delattr(kronmesh, "sorted_gaps")
    monkeypatch.setattr(threegap, "eta", functools.partial(threegap.eta))
    assert not inspect.isfunction(threegap.eta)
    with Tracer() as tracer:
        assert _traced_request(tracer, GAPS) == 0
    values, absent = tracer.layer_metrics(1)
    assert {"metrics.sorted_gaps.calls", "metrics.sorted_gaps.self_s",
            "threegap.eta.calls", "threegap.eta.self_s"} <= set(absent)
    assert values["metrics.sorted_gaps.calls"] == 0
    assert values["threegap.form_interval.calls"] > 0
    assert "threegap.form_interval.calls" not in absent


def test_benchmark_json_names_match_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("spec", ["golden", "sqrt:7", "cf:1;7(2)", "quad:-1,13,3"])
def test_nm_oracle_agrees_with_point_oracle(spec):
    # the n_m enclosures judge rows far past n = 2e4; below it they must
    # agree with the scaled-point oracle (itself exact to about 2**-256)
    alpha = checks.Alpha(spec, 1400)
    nm = alpha.structure(checks.SCALED_MAX_N)[3]
    tol = Fraction(1, 10 ** 60)
    for m in range(1, len(nm)):
        for ref, (lo, hi) in zip(checks._scaled_metrics(alpha, nm[m]),
                                 checks._nm_metrics(alpha, m)):
            assert lo * (1 - tol) <= ref <= hi * (1 + tol), (spec, m)


@pytest.mark.parametrize("spec", ["golden", "sqrt:213", "quad:16,10,4", "cf:0;3,1(4,1,5)"])
def test_nm_values_match_the_oracle_structure(spec):
    # kron-deep sizes its n_m sweeps and their --bits from nm_values
    from workloads import nm_values, spec_digits
    alpha = checks.Alpha(spec, 64)
    want = alpha.structure(10 ** 6)[3]
    got = nm_values(spec_digits(spec, len(want))[0])
    assert got[:len(want)] == want
