"""Scenario harness and command line contract: exit codes, files, determinism."""

import json

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


def test_run_to_files_computes_observables_once(tmp_path, monkeypatch):
    calls = []
    compute = harness.ob.compute_observables

    def counting(*args, **kwargs):
        calls.append(args[1])
        return compute(*args, **kwargs)

    monkeypatch.setattr(harness.ob, "compute_observables", counting)
    report = harness.run_to_files(harness.parse_config(SMALL_SCHRODINGER), tmp_path / "out")
    assert calls == [report["frame"]]


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
]


@pytest.mark.filterwarnings("error")  # a warning would be a second stderr line
@pytest.mark.parametrize("config, change, key", [row[1:] for row in MALFORMED],
                         ids=[row[0] for row in MALFORMED])
def test_cli_malformed_config_names_the_key(config, change, key, tmp_path, capsys):
    old, new = change
    assert config.count(old) == 1
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(config.replace(old, new))
    out = tmp_path / "never"
    assert cli.main(["run", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert key in err


def test_nan_norm_drift_aborts():
    sc = harness.parse_config(SMALL_SCHRODINGER)
    series = harness.dy.evolve(harness._initial_field(sc), sc.grid, sc.evolution)
    series.frames[-1] = np.full_like(series.frames[-1], np.nan)
    with pytest.raises(harness.RunAborted, match="nan"):
        harness.run_scenario(sc, series)


def test_sweep_requires_three_levels():
    sc = harness.parse_config(SMALL_PAULI)
    with pytest.raises(harness.ConfigError):
        harness.sweep(sc, 1)


@pytest.mark.parametrize("name", ["schrodinger_gaussian", "pauli_superposition"])
def test_sweep_refuses_levels_whose_frames_exceed_memory(name, monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("a level ran")

    monkeypatch.setattr(harness, "run_scenario", never)
    # 8 levels would store about 5 TB of frames at the last level
    assert cli.main(["sweep", name, "--levels", "8"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert len(captured.err.strip().splitlines()) == 1
    assert "--levels" in captured.err


def test_sweep_slopes_second_order():
    sc = harness.parse_config(SMALL_PAULI)
    result = harness.sweep(sc, 3)
    slopes = result["residual_slopes"]["qhj"]["log2_ratios"]
    assert all(1.8 <= s <= 2.2 for s in slopes)


def test_list_scenarios_bundled():
    names = [n for n, _ in harness.list_scenarios()]
    assert "schrodinger_gaussian" in names
    assert "pauli_superposition" in names


def test_cli_run_exit_codes(tmp_path):
    cfg = tmp_path / "small.cfg"
    cfg.write_text(SMALL_SCHRODINGER)
    assert cli.main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0

    # impossible tolerance makes the same run fail with exit code 1
    strict = SMALL_SCHRODINGER.replace("C: 1.0", "C: 1.0e-12")
    cfg2 = tmp_path / "strict.cfg"
    cfg2.write_text(strict)
    assert cli.main(["run", str(cfg2), "--out", str(tmp_path / "out2")]) == 1


def test_cli_malformed_config_exit_2(tmp_path, capsys):
    cfg = tmp_path / "broken.cfg"
    cfg.write_text("schema_version: 1\n")
    out = tmp_path / "never"
    assert cli.main(["run", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()
    assert "error" in capsys.readouterr().err


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
    for name in ("schrodinger_gaussian", "pauli_superposition"):
        sc = harness.load_bundled(name)
        assert sc.name == name


def test_report_floats_have_full_precision(tmp_path):
    sc = harness.parse_config(SMALL_SCHRODINGER)
    harness.run_to_files(sc, tmp_path / "out")
    text = (tmp_path / "out" / "fields.csv").read_text().splitlines()
    # a density value cell should carry well over standard %.6g precision
    cell = text[len(text) // 2].split(",")[1]
    assert len(cell.replace("-", "").replace(".", "").replace("e", "")) >= 10
