"""Tests of the benchmark itself: tracing changes no result, self times add
up, and a checkout without the package is refused.

Run with:  python3 -m pytest -q perfbench
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import bootstrap  # noqa: E402

bootstrap.add_src()

import numpy as np  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _traced_run(wl, inputs, out_dir):
    tracer = tracing.Tracer()
    tracer.install()
    tracer.begin(0)
    try:
        outcome = wl.run(inputs, out_dir)
    finally:
        wall, spans = tracer.end()
        tracer.uninstall()
    return outcome, wall, spans


@pytest.mark.parametrize("name", ["schrodinger_long", "pauli_wide"])
def test_traced_run_writes_the_same_files(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    inputs = wl.make_inputs(np.random.default_rng(11))
    plain = wl.run(inputs, tmp_path / "plain")
    traced, wall, spans = _traced_run(wl, inputs, tmp_path / "traced")

    assert plain.ok and traced.ok
    assert plain.ratios == traced.ratios
    names = sorted(p.name for p in (tmp_path / "plain").iterdir())
    assert {"report.json", "fields.csv"} <= set(names)
    assert names == sorted(p.name for p in (tmp_path / "traced").iterdir())
    for fname in names:
        assert (tmp_path / "plain" / fname).read_bytes() == \
            (tmp_path / "traced" / fname).read_bytes(), fname

    # the spans reached every layer the pipeline goes through
    seen = {s[tracing.NAME] for s in spans}
    assert {"harness.run_to_files", "dynamics.evolve", "observables.compute_observables",
            "spinors.g_from_wavefunction" if name == "schrodinger_long"
            else "spinors.g_from_components", "grids.export_csv"} <= seen


@pytest.mark.parametrize("name", ["schrodinger_long", "algebra_points"])
def test_layer_self_times_add_up_to_traced_wall(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    _, wall, spans = _traced_run(wl, wl.make_inputs(np.random.default_rng(5)), tmp_path)
    metrics = tracing.rep_metrics(spans, getattr(wl, "points", 0))
    layers = sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert math.isclose(layers, wall, rel_tol=1e-9)
    assert all(tracing.self_time(s) >= 0.0 for s in spans)
    assert set(metrics) | {"trace.wall_s", "trace.overhead_ratio", "check.failed_ratio"} \
        == {name for name, _ in tracing.PER_LAYER}


def test_reported_layer_self_times_add_up_to_reported_wall(tmp_path):
    wl = workloads.WORKLOADS["schrodinger_long"]
    loop = run.run_loop(wl, 3, 0.0, tmp_path, tracing.Tracer())
    assert len(loop["traced_scaled"]) >= 3 and loop["failed"] == 0
    metrics = run.per_layer_metrics(loop)
    layers = sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert math.isclose(layers, metrics["trace.wall_s"], rel_tol=1e-9)
    assert metrics["trace.wall_s"] in loop["traced_scaled"]


def test_nan_identity_error_fails_the_repetition(tmp_path):
    wl = workloads.WORKLOADS["algebra_points"]
    inputs = {k: v[:4].copy() for k, v in wl.make_inputs(np.random.default_rng(2)).items()}
    assert wl.run(inputs, tmp_path).ok
    inputs[workloads.alg.PAULI][2, 0, 3] = np.nan
    outcome = wl.run(inputs, tmp_path)
    assert not outcome.ok
    assert any(p.startswith("rep_pauli") for p in outcome.problems)
    assert math.isnan(outcome.worst_ratio)


def test_uninstall_restores_every_function():
    from cliffordqm import algebra, observables

    before = (algebra.gp_coeffs, observables.gp_coeffs, observables.compute_observables)
    tracer = tracing.Tracer()
    tracer.install()
    assert algebra.gp_coeffs is not before[0]
    tracer.uninstall()
    assert (algebra.gp_coeffs, observables.gp_coeffs, observables.compute_observables) \
        == before


def test_checkout_without_package_is_refused(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    bench = json.loads((tmp_path / "BENCHMARK.json").read_text())
    cmd = bench["command"] + ["--workload", bench["workloads"][0]["name"], "--seed", "1",
                              "--seconds", "1", "--trace", "0"]
    proc = subprocess.run([sys.executable if c == "python3" else c for c in cmd],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert "no cliffordqm package" in proc.stderr
    assert proc.stdout == ""


def test_benchmark_json_lists_every_metric_and_workload():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(tracing.PER_LAYER)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
