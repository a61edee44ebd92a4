"""Scenario harness and command line contract: exit codes, files, determinism."""

import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from cliffordqm import cli, harness

SMALL_SCHRODINGER = """\
schema_version: 1
name: small_gaussian
description: small deterministic run for tests
particle: schrodinger
grid: {lo: -10.0, hi: 10.0, n: 128, boundary: clamped}
initial_state: {kind: gaussian, sigma: 1.0, x0: 0.0, k: 0.5, m: 1.0}
potential: {kind: none}
evolution: {m: 1.0, dt: 0.002, steps: 40, scheme: crank-nicolson}
trajectories:
  seeds: [-1.0, 0.0, 1.0]
  stride: 10
tolerances: {C: 1.0, support_rel: 1.0e-8}
checks: [qhj, continuity, triple_agreement]
"""

SMALL_PAULI = """\
schema_version: 1
name: small_pauli
particle: pauli
grid: {lo: 0.0, hi: 12.566370614359172, n: 96, boundary: periodic}
initial_state: {kind: pauli-superposition, k1: 1.0, k2: -1.0, m: 1.0}
evolution: {m: 1.0, dt: 0.002, steps: 40, scheme: split-step}
tolerances: {C: 2.0}
"""

PLANE_WAVE = """\
schema_version: 1
name: plane_wave
particle: schrodinger
grid: {lo: 0.0, hi: 12.566370614359172, n: 256, boundary: periodic}
initial_state: {kind: plane-wave, k: 1.0, m: 1.0}
evolution: {m: 1.0, dt: 0.002, steps: 40, scheme: split-step}
"""


def test_parse_validates_margin():
    bad = SMALL_SCHRODINGER.replace("sigma: 1.0", "sigma: 3.0")
    with pytest.raises(harness.ConfigError):
        harness.parse_config(bad)


def test_parse_rejects_unknown_check():
    bad = SMALL_SCHRODINGER.replace("qhj", "telepathy")
    with pytest.raises(harness.ConfigError):
        harness.parse_config(bad)


def test_parse_rejects_wrong_schema():
    bad = SMALL_SCHRODINGER.replace("schema_version: 1", "schema_version: 99")
    with pytest.raises(harness.ConfigError):
        harness.parse_config(bad)


def test_parse_rejects_scalar_state_for_pauli():
    bad = SMALL_PAULI.replace("kind: pauli-superposition, k1: 1.0, k2: -1.0, m: 1.0",
                              "kind: gaussian, sigma: 1.0")
    with pytest.raises(harness.ConfigError):
        harness.parse_config(bad)


def test_parse_reports_yaml_line():
    with pytest.raises(harness.ConfigError, match="line"):
        harness.parse_config("schema_version: 1\nname: [unclosed\n  bad")


def test_run_scenario_passes():
    sc = harness.parse_config(SMALL_SCHRODINGER)
    report = harness.run_scenario(sc)
    assert report["passed"]
    assert set(report["residuals"]) >= {"qhj", "continuity", "p_alg_vs_oracle"}
    for stats in report["residuals"].values():
        assert stats["passed"]
        assert 0.0 <= stats["masked_fraction"] <= 1.0


def test_plane_wave_that_fits_the_periodic_grid_passes_every_check():
    """k (hi - lo) / 2 pi = 2 whole periods on [0, 4 pi)."""
    report = harness.run_scenario(harness.parse_config(PLANE_WAVE))
    assert set(report["residuals"]) == {"qhj", "continuity", "p_alg_vs_weighted",
                                        "p_alg_vs_oracle", "e_alg_vs_weighted",
                                        "e_alg_vs_oracle"}
    assert all(stats["passed"] for stats in report["residuals"].values())
    assert report["passed"]


def test_run_to_files_outputs(tmp_path):
    sc = harness.parse_config(SMALL_SCHRODINGER)
    report = harness.run_to_files(sc, tmp_path / "out")
    assert (tmp_path / "out" / "fields.csv").is_file()
    assert (tmp_path / "out" / "trajectories.csv").is_file()
    loaded = json.loads((tmp_path / "out" / "report.json").read_text())
    assert loaded["passed"] == report["passed"]
    assert loaded["trajectories"]["ordering_preserved"]


def test_run_is_deterministic(tmp_path):
    sc = harness.parse_config(SMALL_SCHRODINGER)
    harness.run_to_files(sc, tmp_path / "a")
    harness.run_to_files(sc, tmp_path / "b")
    for name in ("fields.csv", "trajectories.csv", "report.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


@pytest.mark.parametrize("seeds, stride", [([], 20), ([4.0, 6.0, 8.0], 30)],
                         ids=["no_seeds", "seeds_stride_30"])
def test_free_split_step_run_transforms_back_only_the_frames_its_sink_reads(
        seeds, stride, monkeypatch):
    """Without a potential a split step is one kinetic phase; frame j is
    transformed back only for the run's norms (j = 0, last), its window
    k-1..k+1 and its trajectory stride, and frame 0 is psi0 itself.  The
    stride frames not built for the others are built in one transform."""
    calls = []
    ifft = np.fft.ifft

    def counting(x, *args, **kwargs):
        calls.append(x[0].size // 2)  # the frames of a (points[, frames], 2) block
        return ifft(x, *args, **kwargs)

    config = harness.load_bundled("pauli_superposition").config
    sc = harness._scenario(dict(config, trajectories={"seeds": seeds, "stride": stride}),
                           "pauli_superposition")
    monkeypatch.setattr(np.fft, "ifft", counting)
    report, _, traj = harness._run(sc)
    steps, k = sc.evolution.steps, report["frame"]
    assert (steps, k) == (400, 200)
    read = {k - 1, k, k + 1, steps}
    if seeds:
        index = range(0, steps + 1, stride)
        assert traj.times.tolist() == [sc.evolution.dt * j for j in index]
        read |= set(index)
    else:
        assert traj is None
        assert len(calls) == 4
    assert len(calls) == 4 + bool(seeds)
    assert sum(calls) == len(read - {0})


def test_run_to_files_computes_observables_once(tmp_path, monkeypatch):
    calls = []
    compute = harness.ob.compute_observables

    def counting(*args, **kwargs):
        calls.append(args[1])
        return compute(*args, **kwargs)

    monkeypatch.setattr(harness.ob, "compute_observables", counting)
    report = harness.run_to_files(harness.parse_config(SMALL_SCHRODINGER), tmp_path / "out")
    assert calls == [report["frame"]]


@pytest.mark.parametrize("config", [SMALL_SCHRODINGER, SMALL_PAULI], ids=["schrodinger", "pauli"])
def test_streamed_run_equals_the_full_series(config, tmp_path, monkeypatch):
    sc = harness.parse_config(config)
    windows = []
    compute = harness.ob.compute_observables

    def recording(series, k, *args):
        windows.append((len(series), series.dt.hex()))
        return compute(series, k, *args)

    monkeypatch.setattr(harness.ob, "compute_observables", recording)
    full = harness.dy.evolve(harness._initial_field(sc), sc.grid, sc.evolution)
    norms = [harness.dy.norm(frame, sc.grid) for frame in (full.frames[0], full.frames[-1])]
    expected = harness._check(sc, full, len(full) // 2, abs(norms[1] - norms[0]))[0]
    report = harness.run_scenario(sc)
    assert report == harness.run_to_files(sc, tmp_path / "out")
    assert "trajectories" in report if sc.seeds else "trajectories" not in report
    report.pop("trajectories", None)
    assert report == expected
    # the runs that keep a few frames check frame k of the run's series at its dt, bit for bit
    steps, dt = sc.evolution.steps, sc.evolution.dt.hex()
    assert windows == [(steps + 1, dt)] * 3
    if sc.seeds:
        stride = sc.trajectory_stride
        velocities, masks = harness.ob.velocity_series(
            sc.grid, np.stack(full.frames[::stride], axis=sc.grid.dim), full.times[::stride],
            sc.evolution.m)
        traj = harness.dy.integrate_trajectories(velocities, np.reshape(sc.seeds, (-1, 1)),
                                                 masks)
        traj.to_csv(tmp_path / "full.csv")
        assert (tmp_path / "out" / "trajectories.csv").read_bytes() == \
            (tmp_path / "full.csv").read_bytes()


def test_run_to_files_memory_does_not_grow_with_steps(tmp_path):
    steps = 4000
    sc = harness.parse_config(SMALL_SCHRODINGER.replace("n: 128", "n: 64")
                              .replace("dt: 0.002, steps: 40", f"dt: 0.0005, steps: {steps}")
                              .replace("stride: 10", "stride: 400"))
    every_frame = (steps + 1) * sc.grid.n_points * 16
    tracemalloc.start()
    try:
        harness.run_to_files(sc, tmp_path / "out")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < every_frame / 8, (peak, every_frame)


def test_a_free_run_does_no_work_per_step():
    """10^7 free Crank-Nicolson steps on 16 points: the run builds only the
    frames it keeps, in well under a second, and holds nothing per step, not
    even an array of its steps' times."""
    config = harness.load_bundled("schrodinger_gaussian").config
    sc = harness._scenario(dict(config, grid={**config["grid"], "n": 16},
                                evolution={**config["evolution"], "dt": 1e-7, "steps": 10 ** 7},
                                trajectories={"seeds": []}), "schrodinger_gaussian")
    start = time.perf_counter()
    report = harness.run_scenario(sc)
    elapsed = time.perf_counter() - start
    assert report["frame"] == 5 * 10 ** 6
    assert elapsed < 1.0
    tracemalloc.start()
    try:
        harness.run_scenario(sc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_memory_guard_prices_a_run_not_a_frame(monkeypatch):
    """96 Pauli points take 32 B a point as one frame but about 840 B in a run,
    so a memory of 100 B a point refuses the config, in one line."""
    n = harness.parse_config(SMALL_PAULI).grid.n_points
    monkeypatch.setattr(harness, "_memory_bytes", lambda: 100 * n)
    with pytest.raises(harness.ConfigError, match="grid.n: a run on 96 points takes") as exc:
        harness.parse_config(SMALL_PAULI)
    assert len(str(exc.value).splitlines()) == 1


@pytest.mark.parametrize("name, seeds", [
    *(pytest.param(name, "[]", id=name)
      for name in ("schrodinger_gaussian", "pauli_superposition", "pauli_texture")),
    pytest.param("schrodinger_gaussian", "[-1.5, 0.0, 1.5]", id="schrodinger_gaussian-seeded"),
    pytest.param("pauli_texture", "[3.0, 6.0, 9.0]", id="pauli_texture-seeded"),
])
def test_a_warmed_run_stays_within_its_price_per_point(name, seeds):
    """A run without seeds on 2 steps; a seeded one keeps all 41 frames of 40
    steps for its trajectories, each priced on top of the run."""
    text = (harness.bundled_dir() / f"{name}.cfg").read_text()
    steps = 40 if seeds != "[]" else 2
    text = re.sub(r"steps: \d+", f"steps: {steps}", text)
    text = re.sub(r"seeds: \[.*\]", f"seeds: {seeds}", re.sub(r"stride: \d+", "stride: 1", text))
    sc = harness.parse_config(re.sub(r"\n  n: \d+", "\n  n: 4096", text))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # dt is past h^2 m at this n
        harness.run_scenario(sc)
        tracemalloc.start()
        try:
            harness.run_scenario(sc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    price = harness.RUN_BYTES_PER_POINT[sc.particle]
    if sc.seeds:
        price += (steps + 1) * harness.STRIDE_FRAME_BYTES_PER_POINT[sc.particle]
    assert peak / sc.grid.n_points < price


@pytest.mark.parametrize("name, seeds", [("schrodinger_gaussian", "[-1.5, 0.0, 1.5]"),
                                         ("pauli_texture", "[3.0, 6.0, 9.0]")])
def test_block_built_stride_frames_stay_within_their_price(name, seeds, monkeypatch):
    """1600 steps on 384 points keep 81 stride frames, as the long benchmark
    run does.  Their stack, built in one block after the check, peaks below a
    stride frame's price a point, and the warmed run below the guard's price."""
    text = (harness.bundled_dir() / f"{name}.cfg").read_text()
    text = re.sub(r"seeds: \[.*\]", f"seeds: {seeds}", re.sub(r"stride: \d+", "stride: 20", text))
    text = re.sub(r"\n  n: \d+", "\n  n: 384", re.sub(r"steps: \d+", "steps: 1600", text))
    sc = harness.parse_config(text)
    n, frames = sc.grid.n_points, 81
    fill, fills = harness.dy._Frames.fill, []

    def measured(series_frames, out, steps):
        """fill, recording the frames written and the peak over what was
        held before the stack was made."""
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0] - out.nbytes
        fill(series_frames, out, steps)
        fills.append((len(out), tracemalloc.get_traced_memory()[1] - before))

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # dt is past h^2 m at this n
        harness.run_scenario(sc)
        tracemalloc.start()
        try:
            with monkeypatch.context() as patch:
                patch.setattr(harness.dy._Frames, "fill", measured)
                harness.run_scenario(sc)
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            harness.run_scenario(sc)
            run_peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
    [(stacked, stack_peak)] = fills
    assert stacked == frames
    assert stack_peak / (n * frames) < harness.STRIDE_FRAME_BYTES_PER_POINT[sc.particle]
    price = harness.RUN_BYTES_PER_POINT[sc.particle] + \
        frames * harness.STRIDE_FRAME_BYTES_PER_POINT[sc.particle]
    assert run_peak / n < price


def test_default_checks_are_those_of_the_particle():
    pauli = harness.parse_config(SMALL_PAULI)
    assert pauli.checks == ["qhj", "continuity", "triple_agreement", "spin_transport",
                            "q_split", "current_decomposition"]
    scalar = harness.parse_config(SMALL_SCHRODINGER.replace(
        "checks: [qhj, continuity, triple_agreement]\n", ""))
    assert scalar.checks == ["qhj", "continuity", "triple_agreement"]


MALFORMED = [
    # (id, config, (text in the config, replacement), text the one-line message must contain)
    ("n_not_a_number", SMALL_SCHRODINGER, ("n: 128", "n: abc"), "grid.n"),
    ("grid_not_a_mapping", SMALL_SCHRODINGER,
     ("grid: {lo: -10.0, hi: 10.0, n: 128, boundary: clamped}", "grid: 5"), "grid:"),
    ("n_too_small", SMALL_SCHRODINGER, ("n: 128", "n: 3"), "grid: n must be"),
    ("m_negative", SMALL_SCHRODINGER, ("evolution: {m: 1.0", "evolution: {m: -1.0"),
     "evolution: m must be"),
    ("evolution_m_inf", SMALL_SCHRODINGER, ("evolution: {m: 1.0", "evolution: {m: .inf"),
     "evolution: m must be"),
    ("dt_inf", SMALL_SCHRODINGER, ("dt: 0.002", "dt: .inf"), "evolution: dt must be"),
    ("evolution_m_subnormal", SMALL_SCHRODINGER,
     ("evolution: {m: 1.0", "evolution: {m: 1.0e-320"), "evolution.m"),
    ("split_step_m_subnormal", SMALL_PAULI,
     ("evolution: {m: 1.0", "evolution: {m: 1.0e-320"), "evolution.m"),
    ("m_not_a_number", SMALL_SCHRODINGER, ("evolution: {m: 1.0", "evolution: {m: [1.0]"),
     "evolution.m"),
    ("stride_zero", SMALL_SCHRODINGER, ("stride: 10", "stride: 0"), "trajectories.stride"),
    ("seed_not_a_number", SMALL_SCHRODINGER, ("seeds: [-1.0, 0.0, 1.0]", "seeds: [-1.0, zero]"),
     "trajectories.seeds[1]"),
    ("tolerance_not_a_number", SMALL_SCHRODINGER, ("tolerances: {C: 1.0,", "tolerances: {C: one,"),
     "tolerances.C"),
    ("tolerance_negative", SMALL_SCHRODINGER, ("tolerances: {C: 1.0,", "tolerances: {C: -1,"),
     "tolerances.C"),
    ("tolerance_zero", SMALL_SCHRODINGER, ("tolerances: {C: 1.0,", "tolerances: {C: 0,"),
     "tolerances.C"),
    ("tolerance_inf", SMALL_SCHRODINGER, ("tolerances: {C: 1.0,", "tolerances: {C: .inf,"),
     "tolerances.C"),
    # a support_rel >= 1 empties the support and every residual would pass
    ("support_rel_above_one", SMALL_SCHRODINGER, ("support_rel: 1.0e-8", "support_rel: 2.0"),
     "tolerances.support_rel"),
    ("support_rel_one", SMALL_SCHRODINGER, ("support_rel: 1.0e-8", "support_rel: 1.0"),
     "tolerances.support_rel"),
    ("support_rel_zero", SMALL_SCHRODINGER, ("support_rel: 1.0e-8", "support_rel: 0.0"),
     "tolerances.support_rel"),
    ("support_rel_nan", SMALL_SCHRODINGER, ("support_rel: 1.0e-8", "support_rel: .nan"),
     "tolerances.support_rel"),
    ("name_not_a_string", SMALL_SCHRODINGER, ("name: small_gaussian", "name: 123"), "name:"),
    ("name_empty", SMALL_SCHRODINGER, ("name: small_gaussian", "name: ''"), "name:"),
    ("name_leaves_the_output_root", SMALL_SCHRODINGER,
     ("name: small_gaussian", "name: ../escaped"), "name:"),
    ("scheme_not_a_string", SMALL_SCHRODINGER,
     ("scheme: crank-nicolson", "scheme: [a]"), "evolution.scheme"),
    ("scheme_unknown", SMALL_SCHRODINGER,
     ("scheme: crank-nicolson", "scheme: leapfrog"), "evolution.scheme"),
    ("state_kind_missing", SMALL_SCHRODINGER, ("{kind: gaussian, ", "{"),
     "initial_state.kind: missing"),
    ("schrodinger_spin_transport", SMALL_SCHRODINGER,
     ("checks: [qhj, continuity, triple_agreement]", "checks: [spin_transport]"),
     "checks: spin_transport"),
    ("schrodinger_current_decomposition", SMALL_SCHRODINGER,
     ("checks: [qhj, continuity, triple_agreement]", "checks: [current_decomposition]"),
     "checks: current_decomposition"),
    ("sigma_zero", SMALL_SCHRODINGER, ("sigma: 1.0", "sigma: 0.0"), "initial_state.sigma"),
    ("sigma_negative", SMALL_SCHRODINGER, ("sigma: 1.0", "sigma: -1.0"), "initial_state.sigma"),
    ("state_m_negative", SMALL_SCHRODINGER, ("k: 0.5, m: 1.0", "k: 0.5, m: -1.0"),
     "initial_state.m"),
    ("state_m_inf", SMALL_SCHRODINGER, ("k: 0.5, m: 1.0", "k: 0.5, m: .inf"),
     "initial_state.m"),
    ("potential_m_negative", SMALL_SCHRODINGER,
     ("potential: {kind: none}", "potential: {kind: harmonic, m: -1.0}"), "potential.m"),
    ("weights_zero", SMALL_PAULI, ("k2: -1.0,", "k2: -1.0, weights: [0.0, 0.0],"),
     "initial_state"),
    ("weights_nan", SMALL_PAULI, ("k2: -1.0,", "k2: -1.0, weights: [.nan, 1.0],"),
     "initial_state.weights"),
    ("split_step_on_clamped_grid", SMALL_SCHRODINGER,
     ("scheme: crank-nicolson", "scheme: split-step"), "evolution.scheme"),
    ("crank_nicolson_on_periodic_grid", SMALL_PAULI,
     ("scheme: split-step", "scheme: crank-nicolson"), "evolution.scheme"),
    # the checked frame (steps+1)//2 needs a frame on each side
    ("steps_one", SMALL_SCHRODINGER, ("steps: 40", "steps: 1"), "evolution.steps"),
    # grid points x steps past harness.MAX_POINT_STEPS; the refusal's figures stay finite
    ("steps_near_float_max", SMALL_SCHRODINGER, ("steps: 40", "steps: 1.0e+308"),
     "evolution.steps"),
    ("harmonic_omega_nan", SMALL_SCHRODINGER,
     ("potential: {kind: none}", "potential: {kind: harmonic, omega: .nan}"), "potential.omega"),
    ("table_value_inf", SMALL_SCHRODINGER,
     ("potential: {kind: none}", "potential: {kind: table, values: [" + ", ".join(["0.0"] * 127)
      + ", .inf]}"), "potential.values"),
    ("table_length_wrong", SMALL_SCHRODINGER,
     ("potential: {kind: none}", "potential: {kind: table, values: [0.0, 0.0]}"),
     "potential.values"),
    ("potential_kind_unknown", SMALL_SCHRODINGER,
     ("potential: {kind: none}", "potential: {kind: square}"), "potential.kind"),
    ("seed_outside_grid", SMALL_SCHRODINGER, ("seeds: [-1.0, 0.0, 1.0]", "seeds: [-1.0, 0.0, 11.0]"),
     "trajectories.seeds[2]"),
    ("pauli_state_for_schrodinger", SMALL_SCHRODINGER,
     ("{kind: gaussian, sigma: 1.0, x0: 0.0, k: 0.5, m: 1.0}", "{kind: pauli-superposition}"),
     "initial_state.kind"),
    ("scalar_state_for_pauli", SMALL_PAULI,
     ("kind: pauli-superposition, k1: 1.0, k2: -1.0, m: 1.0", "kind: plane-wave, k: 1.0"),
     "initial_state.kind"),
    ("packet_margin", SMALL_SCHRODINGER, ("sigma: 1.0", "sigma: 3.0"), "initial_state.x0"),
    ("boundary_unknown", SMALL_SCHRODINGER, ("boundary: clamped", "boundary: open"),
     "grid.boundary"),
    ("particle_unknown", SMALL_SCHRODINGER, ("particle: schrodinger", "particle: dirac"),
     "particle:"),
    ("schema_version_unknown", SMALL_SCHRODINGER, ("schema_version: 1", "schema_version: 2"),
     "schema_version:"),
    # True == 1 and 1.0 == 1, but neither is the integer version
    ("schema_version_bool", SMALL_SCHRODINGER, ("schema_version: 1", "schema_version: true"),
     "schema_version:"),
    ("schema_version_float", SMALL_SCHRODINGER, ("schema_version: 1", "schema_version: 1.0"),
     "schema_version:"),
    ("grid_hi_inf", SMALL_SCHRODINGER, ("hi: 10.0", "hi: .inf"), "grid.hi"),
    ("grid_lo_inf", SMALL_SCHRODINGER, ("lo: -10.0", "lo: -.inf"), "grid.lo"),
    # a run on 10^15 points exceeds any machine's memory: refused before any allocation
    ("n_exceeds_memory", SMALL_SCHRODINGER, ("n: 128", "n: 1.0e+15"), "grid.n"),
    # the refusal's figures stay finite next to the float maximum
    ("n_near_float_max", SMALL_SCHRODINGER, ("n: 128", "n: 1.0e+308"), "grid.n"),
    # h^2 or (pi/h)^2 past the float range
    ("grid_hi_spacing_squared_overflows", SMALL_SCHRODINGER, ("hi: 10.0", "hi: 1.2e+301"),
     "grid.hi"),
    # the packets divide by sigma^2, which underflows or overflows
    ("sigma_squared_underflows", SMALL_SCHRODINGER, ("sigma: 1.0", "sigma: 1.0e-300"),
     "initial_state.sigma"),
    ("texture_sigma_squared_overflows", SMALL_PAULI,
     ("kind: pauli-superposition, k1: 1.0, k2: -1.0, m: 1.0",
      "kind: euler-texture, sigma: 1.0e+200"), "initial_state.sigma"),
    # integer literals that float() cannot hold
    ("n_beyond_float_range", SMALL_SCHRODINGER, ("n: 128", "n: 1" + "0" * 400), "grid.n"),
    ("dt_beyond_float_range", SMALL_SCHRODINGER, ("dt: 0.002", "dt: 1" + "0" * 400),
     "evolution.dt"),
    # literals that int() or str() refuse past 4300 decimal digits
    ("n_beyond_int_digits", SMALL_SCHRODINGER, ("n: 128", "n: 1" + "0" * 5000), "grid.n"),
    ("n_hex_beyond_int_digits", SMALL_SCHRODINGER, ("n: 128", "n: 0x" + "f" * 4000), "grid.n"),
    ("n_tagged_int_text", SMALL_SCHRODINGER, ("n: 128", "n: !!int abc"), "grid.n"),
    # a non-finite state number is refused at parse, not when the state is sampled
    ("state_k_nan", SMALL_SCHRODINGER, ("k: 0.5, m: 1.0", "k: .nan, m: 1.0"), "initial_state.k"),
    ("state_x0_nan", SMALL_SCHRODINGER, ("x0: 0.0", "x0: .nan"), "initial_state.x0"),
    ("state_k1_nan", SMALL_PAULI, ("k1: 1.0", "k1: .nan"), "initial_state.k1"),
    # omega^2 overflows to inf, so V does too
    ("harmonic_omega_overflows", SMALL_SCHRODINGER,
     ("potential: {kind: none}", "potential: {kind: harmonic, omega: 1.0e+200}"),
     "potential.omega"),
    # a plane wave needs a periodic grid holding a whole number of its periods
    ("plane_wave_on_clamped_grid", SMALL_SCHRODINGER,
     ("{kind: gaussian, sigma: 1.0, x0: 0.0, k: 0.5, m: 1.0}", "{kind: plane-wave, k: 1.0}"),
     "initial_state.k"),
    ("superposition_k1_misfit", SMALL_PAULI, ("k1: 1.0", "k1: 1.3"), "initial_state.k1"),
    # a periodic texture turns theta, phi and chi a whole number of times, of even sum
    ("texture_theta_k_misfit", SMALL_PAULI,
     ("kind: pauli-superposition, k1: 1.0, k2: -1.0, m: 1.0", "kind: euler-texture, theta_k: 0.6"),
     "initial_state.theta_k"),
    ("texture_phi_k_misfit", SMALL_PAULI,
     ("kind: pauli-superposition, k1: 1.0, k2: -1.0, m: 1.0", "kind: euler-texture, phi_k: 0.6"),
     "initial_state.phi_k"),
    ("texture_chi_k_misfit", SMALL_PAULI,
     ("kind: pauli-superposition, k1: 1.0, k2: -1.0, m: 1.0", "kind: euler-texture, chi_k: 1.3"),
     "initial_state.chi_k"),
    ("texture_turns_of_odd_sum", SMALL_PAULI,
     ("kind: pauli-superposition, k1: 1.0, k2: -1.0, m: 1.0",
      "kind: euler-texture, theta_k: 0.5, phi_k: 0.5, chi_k: 0.5"), "initial_state.chi_k"),
    # a key that nothing reads would leave its default in force
    ("tolerances_key_unknown", SMALL_SCHRODINGER, ("tolerances: {C: 1.0,", "tolerances: {c: 5.0,"),
     "tolerances.c: unknown key"),
    ("state_key_unknown", SMALL_SCHRODINGER, ("k: 0.5, m: 1.0", "kk: 3.0, m: 1.0"),
     "initial_state.kk: unknown key"),
    ("top_level_key_unknown", SMALL_SCHRODINGER, ("trajectories:\n", "trajectorys:\n"),
     "trajectorys: unknown key"),
    ("potential_key_unknown", SMALL_SCHRODINGER,
     ("potential: {kind: none}", "potential: {kind: none, omega: 2.0}"),
     "potential.omega: unknown key"),
    # a key written twice would silently take its last value
    ("top_level_key_twice", SMALL_SCHRODINGER,
     ("particle: schrodinger\n", "particle: schrodinger\nparticle: pauli\n"),
     "line 5: found duplicate key 'particle'"),
    ("section_key_twice", SMALL_SCHRODINGER, ("steps: 40,", "steps: 40, dt: 0.05,"),
     "line 8: found duplicate key 'dt'"),
    # 2^21 + 1 stride frames of 128 points take about 69 GB: refused on any
    # smaller host, though the run's 2^28 point-steps are within the bound
    ("stride_frames_exceed_memory", SMALL_SCHRODINGER,
     ("steps: 40, scheme: crank-nicolson}\ntrajectories:\n  seeds: [-1.0, 0.0, 1.0]\n  stride: 10",
      "steps: 2097152, scheme: crank-nicolson}\ntrajectories:\n  seeds: [-1.0, 0.0, 1.0]\n"
      "  stride: 1"), "trajectories.stride: a run on 128 points that keeps"),
]


@pytest.mark.filterwarnings("error")  # a warning would be a second stderr line
@pytest.mark.parametrize("command, config, change, key", [
    pytest.param(command, *row[1:], id=row[0] if command == "run" else f"sweep-{row[0]}")
    for command in ("run", "sweep") for row in MALFORMED])
def test_cli_malformed_config_names_the_key(command, config, change, key, tmp_path,
                                           monkeypatch, capsys):
    """run and sweep build their scenarios through the same refusals."""
    def never(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(harness, "_run", never)
    old, new = change
    assert config.count(old) == 1
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(config.replace(old, new))
    out = tmp_path / "never"
    options = ["--out", str(out)] if command == "run" else ["--levels", "3"]
    assert cli.main([command, str(cfg), *options]) == 2
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert key in err
    assert str(cfg) in err


def test_potential_is_sampled_after_the_point_step_bound(monkeypatch):
    """A harmonic V holds one float per grid point; a run the bound refuses never samples it."""
    def never(*args, **kwargs):
        raise AssertionError("the potential was sampled")

    monkeypatch.setattr(harness, "_parse_potential", never)
    # a 1 TB host, so that the memory guard, which a run on 3e7 points trips
    # on a host of under 16 GB, admits the config and the point-step bound sees it
    monkeypatch.setattr(harness, "_memory_bytes", lambda: 2 ** 40)
    big = SMALL_SCHRODINGER.replace("n: 128", "n: 3.0e+7").replace(
        "potential: {kind: none}", "potential: {kind: harmonic}")
    with pytest.raises(harness.ConfigError, match="evolution.steps"):
        harness.parse_config(big)


def test_scientific_notation_reads_as_a_number():
    """YAML 1.1 alone would read 5e-4 as a string; the config reader takes it as 5.0e-4."""
    dotted = harness.parse_config(SMALL_SCHRODINGER.replace("dt: 0.002", "dt: 5.0e-4"))
    short = harness.parse_config(SMALL_SCHRODINGER.replace("dt: 0.002", "dt: 5e-4"))
    assert short.evolution.dt == dotted.evolution.dt == 5e-4
    with pytest.raises(harness.ConfigError, match="grid.n: a run on"):
        harness.parse_config(SMALL_SCHRODINGER.replace("n: 128", "n: 1e15"))
    with pytest.raises(harness.ConfigError, match=r"on 1e\+308 points takes 5.12e\+301 GB, more"):
        harness.parse_config(SMALL_SCHRODINGER.replace("n: 128", "n: 1.0e+308"))
    with pytest.raises(harness.ConfigError, match="name: expected a directory name, got 1000.0"):
        harness.parse_config(SMALL_SCHRODINGER.replace("name: small_gaussian", "name: 1e3"))


TABLE_POTENTIAL = ("potential: {kind: none}",
                   "potential: {kind: table, values: [" + ", ".join(["0.0"] * 128) + "]}")


@pytest.mark.parametrize("change, levels, text", [
    (None, "2", "--levels 2:"),
    (TABLE_POTENTIAL, "3", "small_gaussian: potential.kind:"),
], ids=["levels_below_three", "table_potential"])
def test_cli_sweep_refusals_name_what_they_refuse(change, levels, text, tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SMALL_SCHRODINGER.replace(*change) if change else SMALL_SCHRODINGER)
    assert cli.main(["sweep", str(cfg), "--levels", levels]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1
    assert text in captured.err


def test_cli_yaml_error_is_one_line(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("schema_version: 1\nname: [unclosed\n  bad")
    assert cli.main(["run", str(cfg), "--out", str(tmp_path / "never")]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert str(cfg) in err
    assert "line 3" in err


# texts that no YAML parser reads, each failing at a different stage
BROKEN_YAML = ["schema_version: 1\nname: [unclosed\n  bad", "a: [1, 2", "a: 'unclosed", "\ta: 1",
               "a: 1\n b: 2", "a: &x 1\nb: *y", "a: !!python/object:os.system x",
               "key: value\n- item", "%YAML 2.0\n---\na: 1", "a: 1\x07", "a: 1\n---\nb: 2",
               'a: "\\q"', "a: b: c"]


def _tree(value):
    """value as nested lists of (type, bits) leaves, so that a NaN equals
    itself and an int of any length compares by its hex digits."""
    if isinstance(value, dict):
        return [(_tree(k), _tree(v)) for k, v in value.items()]
    if isinstance(value, list):
        return [_tree(v) for v in value]
    if type(value) in (int, float):
        return type(value).__name__, value.hex() if type(value) is float else hex(value)
    return type(value).__name__, value


def _load(loader, text: str):
    """The mapping a loader reads from text, as a _tree, or the name of the
    YAML error it raises."""
    try:
        return _tree(harness.yaml.load(text, Loader=loader))
    except harness.yaml.YAMLError as exc:
        return type(exc).__name__


def test_libyaml_and_pure_python_loaders_agree():
    """On every bundled config, MALFORMED row and broken text, libyaml's
    loader and the pure-Python one read equal mappings or both refuse."""
    texts = [(harness.bundled_dir() / f"{name}.cfg").read_text()
             for name, _ in harness.list_scenarios()]
    texts += [config.replace(*change) for _, config, change, _ in MALFORMED]
    texts += BROKEN_YAML
    for text in texts:
        assert _load(harness._Loader, text) == _load(harness._PyLoader, text)
    assert all(isinstance(_load(harness._PyLoader, text), str) for text in BROKEN_YAML)
    c_loader = getattr(harness.yaml, "CSafeLoader", ())  # absent without libyaml
    assert harness.yaml.__with_libyaml__ == issubclass(harness._Loader, c_loader)


@pytest.mark.parametrize("text", BROKEN_YAML)
def test_a_yaml_refusal_reads_as_the_pure_python_parser_has_it(text, tmp_path, monkeypatch,
                                                               capsys):
    """The CLI's one refusal line is byte for byte the one a run on the
    pure-Python loader alone prints, line number included."""
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    lines = []
    for loader in (harness._Loader, harness._PyLoader):
        monkeypatch.setattr(harness, "_Loader", loader)
        assert cli.main(["run", str(cfg), "--out", str(tmp_path / "never")]) == 2
        lines.append(capsys.readouterr().err)
    assert lines[0] == lines[1]
    assert len(lines[0].strip().splitlines()) == 1 and "YAML parse error" in lines[0]


def test_without_libyaml_every_bundled_scenario_reads_the_same_config():
    """A fresh interpreter whose yaml cannot import its C extension loads
    every bundled scenario on the pure-Python loader to the same mapping."""
    code = ("import sys; sys.modules['yaml._yaml'] = None\n"
            "import yaml; from cliffordqm import harness\n"
            "assert not yaml.__with_libyaml__ and harness._Loader.__bases__ == (yaml.SafeLoader,)\n"
            "print(repr([harness.load_bundled(name).config "
            "for name, _ in harness.list_scenarios()]))")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                         check=True).stdout.strip()
    names = [name for name, _ in harness.list_scenarios()]
    assert len(names) == 3
    assert out == repr([harness.load_bundled(name).config for name in names])


def test_cli_non_string_name_is_refused_without_out(tmp_path, monkeypatch, capsys):
    """Without --out the name is a directory under the output root."""
    monkeypatch.setenv(harness.ENV_OUT_ROOT, str(tmp_path / "runs"))
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(SMALL_SCHRODINGER.replace("name: small_gaussian", "name: 123"))
    assert cli.main(["run", str(cfg)]) == 2
    assert not (tmp_path / "runs").exists()
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert f"{cfg}: name:" in err


def test_cli_sweep_refuses_a_non_string_scheme(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(SMALL_SCHRODINGER.replace("scheme: crank-nicolson", "scheme: [a]"))
    assert cli.main(["sweep", str(cfg), "--levels", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1
    assert f"{cfg}: evolution.scheme:" in captured.err


def test_nan_norm_drift_aborts():
    sc = harness.parse_config(SMALL_SCHRODINGER)
    series = harness.dy.evolve(harness._initial_field(sc), sc.grid, sc.evolution)
    frames = list(series.frames)
    frames[-1] = np.full_like(frames[-1], np.nan)
    series = harness.gd.SnapshotSeries(series.times, frames, series.grid, series.dt)
    norms = [harness.dy.norm(frame, sc.grid) for frame in (series.frames[0], series.frames[-1])]
    with pytest.raises(harness.RunAborted, match="nan"):
        harness._check(sc, series, len(series) // 2, abs(norms[1] - norms[0]))


def test_aborted_run_leaves_no_directory(tmp_path, monkeypatch):
    """A run whose frames' norms read NaN aborts on its drift."""
    sc = harness.parse_config(SMALL_SCHRODINGER)
    psi0 = harness._initial_field(sc)
    monkeypatch.setattr(harness, "_initial_field", lambda sc: psi0)
    monkeypatch.setattr(harness.dy, "norm", lambda psi, grid: float("nan"))
    with pytest.raises(harness.RunAborted, match="nan"):
        harness.run_to_files(sc, tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_sweep_requires_three_levels():
    sc = harness.parse_config(SMALL_PAULI)
    with pytest.raises(harness.ConfigError):
        harness.sweep(sc, 1)


@pytest.mark.parametrize("name, steps, levels, key", [
    # level 5 of 8 takes 4.2e8 to 6.3e8 point-steps, past harness.MAX_POINT_STEPS
    ("schrodinger_gaussian", None, "8", "--levels"),
    ("pauli_superposition", None, "8", "--levels"),
    ("pauli_texture", None, "8", "--levels"),
    # the config itself is refused, before any level is built
    ("pauli_superposition", "1.0e+308", "3", "evolution.steps"),
], ids=["schrodinger_gaussian", "pauli_superposition", "pauli_texture",
        "pauli_superposition-steps_1e308"])
def test_sweep_refuses_levels_past_the_point_step_bound(name, steps, levels, key, tmp_path,
                                                        monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("a level ran")

    monkeypatch.setattr(harness, "run_scenario", never)
    config = name
    if steps is not None:
        config = tmp_path / "steps.cfg"
        text = (harness.bundled_dir() / f"{name}.cfg").read_text()
        assert text.count("steps: 400") == 1
        config.write_text(text.replace("steps: 400", f"steps: {steps}"))
    assert cli.main(["sweep", str(config), "--levels", levels]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert len(captured.err.strip().splitlines()) == 1
    assert key in captured.err
    assert "inf" not in captured.err
    assert len(captured.err) < 200  # no long integer


def test_sweep_slopes_second_order():
    sc = harness.parse_config(SMALL_PAULI)
    result = harness.sweep(sc, 3)
    slopes = result["residual_slopes"]["qhj"]["log2_ratios"]
    assert all(1.8 <= s <= 2.2 for s in slopes)


def _texture_q_split() -> dict:
    """The bundled periodic Euler texture, which has no envelope, checking
    only q_split; theta = 1 + x/2 passes the spin poles at x = 2 pi - 2 and
    4 pi - 2, and Q is regular there."""
    return dict(harness.load_bundled("pauli_texture").config, checks=["q_split"])


def test_texture_q_split_converges_through_the_spin_poles():
    """Q2 = |grad s|^2/2m has no 1/sin^2 theta, so the node nearest a pole
    does not set the error: q_split falls by 4x per halving of h."""
    sc = harness._scenario(_texture_q_split(), "pauli_texture")
    errs = harness.sweep(sc, 3)["residual_slopes"]["q_split"]["max_abs"]
    assert all(a >= 3.0 * b > 0.0 for a, b in zip(errs, errs[1:])), errs


def test_texture_torque_balance_converges_at_second_order():
    """dP_B/dt + grad Q + torque falls at order 2 over n = 256, 512, 1024 and
    dt = 5e-4, 1.25e-4, 3.125e-5, poles included."""
    errs = []
    for level in harness._levels(harness._scenario(_texture_q_split(), "pauli_texture"), 3):
        _, obs, _ = harness._run(level)
        state = obs.window.cur
        balance = np.sqrt((harness.ob.quantum_torque(obs.window, 1.0).residual ** 2).sum(axis=-1))
        errs.append(balance[state.mask & harness.ob.support_mask(state.rho)].max())
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders >= 1.8), (errs, orders)


def test_texture_oracle_momentum_wraps_at_the_periodic_edges():
    """The oracle's stencil wraps at the first and last nodes of a periodic
    grid, as the algebra's does, so the edges differ no more than the interior."""
    sc = harness.load_bundled("pauli_texture")
    _, obs, _ = harness._run(sc)
    res = {name: f for name, f, _ in harness._triple_agreement(sc, obs)}["p_alg_vs_oracle"]
    edge, inside = max(res[0], res[-1]), res[1:-1].max()
    assert edge <= 2.0 * inside, (edge, inside)


def test_list_scenarios_bundled():
    names = [n for n, _ in harness.list_scenarios()]
    assert "schrodinger_gaussian" in names
    assert "pauli_superposition" in names
    assert "pauli_texture" in names


def test_cli_run_exit_codes(tmp_path):
    cfg = tmp_path / "small.cfg"
    cfg.write_text(SMALL_SCHRODINGER)
    assert cli.main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0

    # impossible tolerance makes the same run fail with exit code 1
    strict = SMALL_SCHRODINGER.replace("C: 1.0", "C: 1.0e-12")
    cfg2 = tmp_path / "strict.cfg"
    cfg2.write_text(strict)
    assert cli.main(["run", str(cfg2), "--out", str(tmp_path / "out2")]) == 1


@pytest.mark.parametrize("name", ["schrodinger_gaussian", "pauli_superposition",
                                  "pauli_texture"])
def test_run_scenario_returns_the_report_run_to_files_writes(name, tmp_path):
    sc = harness.load_bundled(name)
    report = harness.run_scenario(sc)
    assert report == harness.run_to_files(sc, tmp_path / "out")
    assert report == json.loads((tmp_path / "out" / "report.json").read_text())
    assert ("trajectories" in report) == bool(sc.seeds)


def test_crossed_trajectories_fail_the_run(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(harness.dy, "ordering_preserved", lambda paths: False)
    sc = harness.parse_config(SMALL_SCHRODINGER)
    report = harness.run_to_files(sc, tmp_path / "out")
    assert report["trajectories"]["ordering_preserved"] is False
    assert all(stats["passed"] for stats in report["residuals"].values())
    assert report["passed"] is False
    assert json.loads((tmp_path / "out" / "report.json").read_text())["passed"] is False
    assert harness.run_scenario(sc) == report

    cfg = tmp_path / "small.cfg"
    cfg.write_text(SMALL_SCHRODINGER)
    assert cli.main(["run", str(cfg), "--out", str(tmp_path / "cli")]) == 1
    assert "small_gaussian: FAIL" in capsys.readouterr().out


def test_cli_malformed_config_exit_2(tmp_path, capsys):
    cfg = tmp_path / "broken.cfg"
    cfg.write_text("schema_version: 1\n")
    out = tmp_path / "never"
    assert cli.main(["run", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["run"], ["sweep", "--levels", "3"]])
def test_cli_config_that_is_not_utf8_exits_2(command, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"\xff\xfe")
    assert cli.main([command[0], str(cfg), *command[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1
    assert f"{cfg}: not UTF-8" in captured.err


@pytest.mark.parametrize("under", [(), ("sub",)], ids=["file", "under-file"])
def test_cli_run_refuses_an_out_path_at_or_under_a_file_before_the_run(
        under, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(harness, "_run", lambda sc: pytest.fail("the run started"))
    cfg = tmp_path / "small.cfg"
    cfg.write_text(SMALL_SCHRODINGER)
    blocker = tmp_path / "file"
    blocker.write_text("kept")
    out = blocker.joinpath(*under)
    assert cli.main(["run", str(cfg), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1
    assert f"{blocker} is not a directory" in captured.err
    assert blocker.read_text() == "kept"


def test_cli_unknown_subcommand_exit_2(capsys):
    assert cli.main(["frobnicate"]) == 2


def test_cli_list_json(capsys):
    assert cli.main(["list", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert any(d["name"] == "schrodinger_gaussian" for d in data)


def test_cli_sweep_level_guard(tmp_path, capsys):
    cfg = tmp_path / "small.cfg"
    cfg.write_text(SMALL_PAULI)
    assert cli.main(["sweep", str(cfg), "--levels", "1"]) == 2


def test_bundled_scenarios_parse():
    for name in ("schrodinger_gaussian", "pauli_superposition", "pauli_texture"):
        sc = harness.load_bundled(name)
        assert sc.name == name


def test_report_floats_have_full_precision(tmp_path):
    sc = harness.parse_config(SMALL_SCHRODINGER)
    harness.run_to_files(sc, tmp_path / "out")
    text = (tmp_path / "out" / "fields.csv").read_text().splitlines()
    # a density value cell should carry well over standard %.6g precision
    cell = text[len(text) // 2].split(",")[1]
    assert len(cell.replace("-", "").replace(".", "").replace("e", "")) >= 10
