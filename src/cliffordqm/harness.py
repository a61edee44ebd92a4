"""Scenario-driven runs: configure, evolve, check, export.

Configs are YAML documents with a schema_version field; see the bundled
files under cliffordqm/scenarios for the dialect.  A run produces a fields
CSV, a trajectories CSV, and a report JSON whose pass/fail flags drive the
CLI exit code.
"""

from __future__ import annotations

import importlib.resources
import json
import math
import os
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import yaml

from . import dynamics as dy
from . import grids as gd
from . import observables as ob
from . import oracle as orc

SCHEMA_VERSION = 1
ENV_OUT_ROOT = "CLIFFORDQM_OUT_ROOT"


class ConfigError(ValueError):
    pass


class RunAborted(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# config parsing

_STATE_KINDS = ("plane-wave", "gaussian", "pauli-superposition", "euler-texture")
_REQUIRED = object()


def _require(cfg: dict, key: str, ctx: str):
    if key not in cfg:
        raise ConfigError(f"missing key {key!r} in {ctx}")
    return cfg[key]


def _section(raw: dict, key: str, source: str, default=_REQUIRED) -> dict:
    spec = _require(raw, key, source) if default is _REQUIRED else raw.get(key, default)
    if not isinstance(spec, dict):
        raise ConfigError(f"{source}: {key}: expected a mapping, got {spec!r}")
    return spec


def _as_number(value, where: str, source: str, kind=float):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{source}: {where}: expected a number, got {value!r}")
    if kind is int and not float(value).is_integer():
        raise ConfigError(f"{source}: {where}: expected an integer, got {value!r}")
    return kind(value)


def _number(spec: dict, key: str, section: str, source: str, kind=float, default=_REQUIRED):
    """spec[key] as a float (or int); a missing or null key takes the default."""
    if spec.get(key) is None:
        if default is _REQUIRED:
            raise ConfigError(f"{source}: {section}.{key}: missing")
        return default
    return _as_number(spec[key], f"{section}.{key}", source, kind)


def _positive(spec: dict, key: str, section: str, source: str, default):
    """A finite number > 0 when given; a missing key takes the default."""
    value = _number(spec, key, section, source, default=default)
    if value is not None and not (value > 0 and math.isfinite(value)):
        raise ConfigError(f"{source}: {section}.{key}: must be positive and finite, "
                          f"got {value}")
    return value


def _numbers(spec: dict, key: str, section: str, source: str, default) -> list:
    values = spec.get(key, default)
    if not isinstance(values, (list, tuple)):
        raise ConfigError(f"{source}: {section}.{key}: expected a list, got {values!r}")
    return [_as_number(v, f"{section}.{key}[{i}]", source) for i, v in enumerate(values)]


@dataclass
class Scenario:
    name: str
    description: str
    particle: str
    grid: gd.Grid
    descriptor: object
    potential_spec: dict
    evolution: dy.EvolutionConfig
    seeds: list
    trajectory_stride: int
    tol_C: float
    support_rel: float
    checks: list


def parse_config(text: str, source: str = "<config>") -> Scenario:
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        line = f" at line {mark.line + 1}" if mark else ""
        raise ConfigError(f"{source}: YAML parse error{line}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{source}: config must be a mapping")
    version = _require(raw, "schema_version", source)
    if version != SCHEMA_VERSION:
        raise ConfigError(f"{source}: unsupported schema_version {version}")

    name = _require(raw, "name", source)
    particle = _require(raw, "particle", source)
    if particle not in ("schrodinger", "pauli"):
        raise ConfigError(f"{source}: particle must be schrodinger or pauli")

    gspec = _section(raw, "grid", source)
    lo, hi = _number(gspec, "lo", "grid", source), _number(gspec, "hi", "grid", source)
    n = _number(gspec, "n", "grid", source, int)
    try:
        grid = gd.Grid.line(lo, hi, n, gspec.get("boundary", "clamped"))
    except ValueError as exc:
        raise ConfigError(f"{source}: grid: {exc}") from exc

    descriptor = _parse_state(_section(raw, "initial_state", source), particle, source)

    vspec = _section(raw, "potential", source, {"kind": "none"})
    potential = _parse_potential(vspec, grid, source)

    espec = _section(raw, "evolution", source)
    m, dt = _number(espec, "m", "evolution", source), _number(espec, "dt", "evolution", source)
    steps = _number(espec, "steps", "evolution", source, int)
    try:
        evolution = dy.EvolutionConfig(m, dt, steps, potential,
                                       espec.get("scheme", "crank-nicolson"))
    except ValueError as exc:
        raise ConfigError(f"{source}: evolution: {exc}") from exc
    if grid.boundary != dy.SCHEME_BOUNDARY[evolution.scheme]:
        raise ConfigError(f"{source}: evolution.scheme: {evolution.scheme} needs a "
                          f"{dy.SCHEME_BOUNDARY[evolution.scheme]} grid, got {grid.boundary}")
    # the largest kinetic phase of a step, (pi/h)^2 dt/2m, bounds both schemes' matrices
    k_max = math.pi / min(grid.spacing)
    if not math.isfinite(k_max * k_max * dt / (2.0 * m)):
        raise ConfigError(f"{source}: evolution.m: too small for dt and h, "
                          f"dt/(m h^2) overflows, got {m}")

    tspec = _section(raw, "trajectories", source, {})
    seeds = _numbers(tspec, "seeds", "trajectories", source, [])
    stride = _number(tspec, "stride", "trajectories", source, int, 10)
    if stride < 1:
        raise ConfigError(f"{source}: trajectories.stride: must be at least 1, got {stride}")

    tol = _section(raw, "tolerances", source, {})
    tol_C = _number(tol, "C", "tolerances", source, default=1.0)
    support_rel = _number(tol, "support_rel", "tolerances", source, default=1e-8)

    checks = raw.get("checks")
    if checks is None:
        checks = [c for c, (_, particles) in _CHECKS.items() if particle in particles]
    if not isinstance(checks, list):
        raise ConfigError(f"{source}: checks: expected a list of check names, got {checks!r}")
    for c in checks:
        if not isinstance(c, str) or c not in _CHECKS:
            raise ConfigError(f"{source}: checks: unknown check {c!r}")
        if particle not in _CHECKS[c][1]:
            raise ConfigError(f"{source}: checks: {c} does not apply to particle: {particle}")

    scenario = Scenario(name, raw.get("description", ""), particle, grid,
                        descriptor, dict(vspec), evolution, seeds,
                        stride, tol_C, support_rel, list(checks))
    _validate(scenario, source)
    return scenario


def _parse_state(spec: dict, particle: str, source: str):
    kind = _require(spec, "kind", "initial_state")
    if kind not in _STATE_KINDS:
        raise ConfigError(f"{source}: unknown initial_state kind {kind!r}")

    def num(key, default):
        return _number(spec, key, "initial_state", source, default=default)

    def positive(key, default):
        return _positive(spec, key, "initial_state", source, default)

    def vec(key, default):
        return (num(key, default), 0.0, 0.0)

    if kind == "plane-wave":
        return gd.PlaneWave(k=vec("k", 1.0), m=positive("m", 1.0))
    if kind == "gaussian":
        return gd.GaussianPacket(sigma=positive("sigma", 1.0), x0=vec("x0", 0.0),
                                 k=vec("k", 0.0), m=positive("m", 1.0))
    if kind == "pauli-superposition":
        if particle != "pauli":
            raise ConfigError(f"{source}: pauli-superposition needs particle: pauli")
        w = _numbers(spec, "weights", "initial_state", source, [1.0, 1.0])
        if len(w) != 2:
            raise ConfigError(f"{source}: initial_state.weights: expected two numbers, got {w}")
        try:
            return gd.PauliSuperposition(k1=vec("k1", 1.0), k2=vec("k2", -1.0),
                                         weights=(w[0], w[1]), m=positive("m", 1.0))
        except gd.GridError as exc:
            raise ConfigError(f"{source}: initial_state.{exc}") from exc
    if particle != "pauli":
        raise ConfigError(f"{source}: euler-texture needs particle: pauli")
    return gd.EulerTexture(
        theta0=num("theta", np.pi / 2),
        theta_k=vec("theta_k", 0.0),
        phi0=num("phi", 0.0),
        phi_k=vec("phi_k", 0.0),
        chi_k=vec("chi_k", 0.0),
        sigma=positive("sigma", None),
        x0=vec("x0", 0.0),
    )


def _parse_potential(spec: dict, grid: gd.Grid, source: str):
    kind = spec.get("kind", "none")
    if kind == "none":
        return None
    if kind == "harmonic":
        omega = _number(spec, "omega", "potential", source, default=1.0)
        m = _positive(spec, "m", "potential", source, default=1.0)
        x = grid.coords(0)
        return 0.5 * m * omega ** 2 * x ** 2
    if kind == "table":
        values = _numbers(spec, "values", "potential", source, [])
        if len(values) != grid.shape[0]:
            raise ConfigError(f"{source}: potential table must list one value per grid point")
        return np.asarray(values, dtype=float)
    raise ConfigError(f"{source}: unknown potential kind {kind!r}")


def _validate(sc: Scenario, source: str):
    if isinstance(sc.descriptor, gd.GaussianPacket):
        margin = 6.0 * sc.descriptor.sigma
        lo, hi = sc.grid.axes[0].lo, sc.grid.axes[0].hi
        x0 = sc.descriptor.x0[0]
        if x0 - margin < lo or x0 + margin > hi:
            raise ConfigError(f"{source}: packet needs >=6 sigma of margin to each edge")
    if sc.particle == "pauli" and isinstance(sc.descriptor, (gd.PlaneWave, gd.GaussianPacket)):
        raise ConfigError(f"{source}: scalar initial state with particle: pauli")
    for s in sc.seeds:
        if not sc.grid.axes[0].lo <= s <= sc.grid.axes[0].hi:
            raise ConfigError(f"{source}: trajectory seed {s} outside grid")


# ---------------------------------------------------------------------------
# running

NORM_DRIFT_ABORT = 1e-4


def _initial_field(sc: Scenario) -> np.ndarray:
    # a state that cannot be normalised samples as 0 or NaN; the norm test
    # below reports it in one line instead of numpy's warnings
    with np.errstate(divide="ignore", invalid="ignore"):
        psi0 = gd.sample(sc.descriptor, sc.grid)
        n = dy.norm(psi0, sc.grid)
    if not (np.isfinite(n) and n > 0):
        raise ConfigError(f"{sc.name}: initial_state: sampled state has norm {n:g}, "
                          "which cannot be normalised")
    return psi0 / n


def run_scenario(sc: Scenario, series: gd.SnapshotSeries = None) -> dict:
    """Evolve (unless a series is supplied), check, assemble the report."""
    if series is None:
        series = dy.evolve(_initial_field(sc), sc.grid, sc.evolution)
    return _check(sc, series)[0]


def _check(sc: Scenario, series: gd.SnapshotSeries):
    """Report on the middle frame of an evolved series.

    Returns the report and the frame's BohmObservables, whose window holds
    the frame and its neighbours.
    """
    drift = abs(dy.norm(series.frames[-1], sc.grid)
                - dy.norm(series.frames[0], sc.grid))
    if not drift <= NORM_DRIFT_ABORT:  # a NaN drift aborts too
        raise RunAborted(f"norm drift {drift:g} exceeds {NORM_DRIFT_ABORT:g}")

    k = len(series) // 2
    obs = ob.compute_observables(series, k, sc.evolution.m, sc.evolution.V)
    state = obs.window.cur
    support = state.mask & ob.support_mask(state.rho, sc.support_rel)

    h = sc.grid.spacing[0]
    dt = sc.evolution.dt
    tolerance = {"time": 5.0 * sc.tol_C * (h * h + dt * dt),
                 "space": 5.0 * sc.tol_C * h * h}

    report = {
        "schema_version": SCHEMA_VERSION,
        "name": sc.name,
        "particle": sc.particle,
        "grid": {"h": h, "dt": dt, "n": sc.grid.shape[0],
                 "boundary": sc.grid.boundary},
        "norm_drift": drift,
        "frame": k,
        "residuals": {},
        "passed": True,
    }
    for check in sc.checks:
        residuals = _CHECKS[check][0]
        for name, res_field, bound in residuals(sc, obs):
            stats = ob.residual_stats(res_field, support)
            stats["grid"] = {"h": h, "dt": dt}
            stats["tolerance"] = tolerance[bound]
            stats["passed"] = stats["max_abs"] <= tolerance[bound]
            report["residuals"][name] = stats
            if not stats["passed"]:
                report["passed"] = False
    return report, obs


# ---------------------------------------------------------------------------
# checks: each yields (residual name, residual field, "time" or "space" bound)
# from the observables of a frame and the window around it

def _observable_residual(name: str):
    def residuals(sc, obs):
        yield name, obs.residuals[name], "time"
    return residuals


def _triple_agreement(sc, obs):
    state = obs.window.cur
    yield "p_alg_vs_weighted", _vec_mag(obs.P - ob.bohm_momentum_weighted(state)), "space"
    p_oracle = ob.masked_divide(orc.momentum_density(state.psi, sc.grid), state.rho, state.mask)
    yield "p_alg_vs_oracle", _vec_mag(obs.P - p_oracle), "space"
    yield "e_alg_vs_weighted", np.abs(obs.E - ob.bohm_energy_weighted(obs.window)), "time"
    yield "e_alg_vs_oracle", np.abs(obs.E - ob_energy_oracle(obs.window)), "time"


def _q_split(sc, obs):
    yield "q_split", np.abs(obs.Q - obs.Q1 - obs.Q2), "space"


def _current_decomposition(sc, obs):
    total = orc.messiah_current(obs.window.cur.psi, sc.grid, sc.evolution.m)
    yield "current_decomposition", _vec_mag(total - (obs.J_conv + obs.J_rot)), "space"


_BOTH, _PAULI = ("schrodinger", "pauli"), ("pauli",)

# check name -> (residuals, particles it applies to); a config without a
# checks list runs every check that applies to its particle, in this order
_CHECKS = {
    "qhj": (_observable_residual("qhj"), _BOTH),
    "continuity": (_observable_residual("continuity"), _BOTH),
    "triple_agreement": (_triple_agreement, _BOTH),
    "spin_transport": (_observable_residual("spin_transport"), _PAULI),
    "q_split": (_q_split, _PAULI),
    "current_decomposition": (_current_decomposition, _PAULI),
}


def _vec_mag(v: np.ndarray) -> np.ndarray:
    return np.sqrt((v ** 2).sum(axis=-1))


def ob_energy_oracle(win: ob.Window) -> np.ndarray:
    dens = orc.energy_density((win.prev.psi, win.cur.psi, win.next.psi), win.dt)
    return ob.masked_divide(dens, win.cur.rho, win.cur.mask)


def run_trajectories(sc: Scenario, series: gd.SnapshotSeries) -> dy.TrajectorySet:
    m = sc.evolution.m
    stride = sc.trajectory_stride
    if len(series) <= stride:
        stride = max(1, len(series) - 1)
    frames, times, masks = [], [], []
    for f in range(0, len(series), stride):
        state = ob.SpinorField(sc.grid, series.frames[f])
        frames.append(ob.pauli_current(state, m).v)
        masks.append(state.mask)
        times.append(series.times[f])
    vser = gd.SnapshotSeries(np.asarray(times), frames, sc.grid)
    seeds = np.asarray(sc.seeds, dtype=float).reshape(-1, 1)
    return dy.integrate_trajectories(vser, seeds, masks)


def run_to_files(sc: Scenario, out_dir) -> dict:
    """Full pipeline: run, export fields/trajectories CSV and report JSON."""
    psi0 = _initial_field(sc)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    series = dy.evolve(psi0, sc.grid, sc.evolution)
    report, obs = _check(sc, series)
    columns = {
        "rho": obs.window.cur.rho,
        "P": obs.P[..., : sc.grid.dim],
        "E": obs.E,
        "Q": obs.Q,
        "Q1": obs.Q1,
        "Q2": obs.Q2,
        "v": obs.v[..., : sc.grid.dim],
    }
    if obs.s is not None:
        columns["s"] = obs.s
    gd.export_csv(out / "fields.csv", sc.grid, columns)

    if sc.seeds:
        traj = run_trajectories(sc, series)
        traj.to_csv(out / "trajectories.csv")
        report["trajectories"] = {
            "n_seeds": len(sc.seeds),
            "n_truncated": int(traj.truncated.sum()),
            "ordering_preserved": dy.ordering_preserved(traj.paths),
        }
        if not report["trajectories"]["ordering_preserved"]:
            report["passed"] = False

    with open(out / "report.json", "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return report


# ---------------------------------------------------------------------------
# convergence sweep

def sweep(sc: Scenario, levels: int) -> dict:
    """Refine h by 2 per level (dt by 4), report per-residual error slopes."""
    if levels < 3:
        raise ConfigError("sweep needs at least 3 refinement levels")
    if sc.potential_spec.get("kind", "none") == "table":
        raise ConfigError("table potentials cannot be refined for a sweep")
    rows = []
    base_n = sc.grid.shape[0]
    base_steps = sc.evolution.steps
    # every level stores all its frames; refuse, before running any, a level
    # whose frames alone exceed the machine's memory (levels grow 8x in 1-D)
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    components = 2 if sc.particle == "pauli" else 1
    for lvl in range(levels):
        frame_bytes = (base_steps * 4 ** lvl + 1) * base_n * 2 ** lvl * 16 * components
        if frame_bytes > memory:
            raise ConfigError(f"--levels {levels}: level {lvl + 1} would store "
                              f"{frame_bytes / 1e9:.1f} GB of frames, more than the "
                              f"{memory / 1e9:.1f} GB of memory")
    for lvl in range(levels):
        factor = 2 ** lvl
        grid = gd.Grid.line(sc.grid.axes[0].lo, sc.grid.axes[0].hi,
                            base_n * factor, sc.grid.boundary)
        dt = sc.evolution.dt / factor ** 2
        steps = base_steps * factor ** 2
        pot = _parse_potential(sc.potential_spec, grid, sc.name)
        evolution = dy.EvolutionConfig(sc.evolution.m, dt, steps, pot, sc.evolution.scheme)
        rows.append(run_scenario(replace(sc, grid=grid, evolution=evolution, seeds=[])))

    slopes = {}
    for name in rows[0]["residuals"]:
        errs = [r["residuals"][name]["max_abs"] for r in rows]
        pair_slopes = []
        for a, b in zip(errs, errs[1:]):
            if b > 0:
                pair_slopes.append(float(np.log2(a / b)))
        slopes[name] = {
            "max_abs": errs,
            "log2_ratios": pair_slopes,
        }
    return {
        "schema_version": SCHEMA_VERSION,
        "name": sc.name,
        "levels": levels,
        "h": [r["grid"]["h"] for r in rows],
        "dt": [r["grid"]["dt"] for r in rows],
        "residual_slopes": slopes,
    }


# ---------------------------------------------------------------------------
# bundled scenarios

def bundled_dir():
    return importlib.resources.files("cliffordqm") / "scenarios"


def list_scenarios() -> list:
    """(name, description) pairs for the bundled scenario configs."""
    out = []
    root = bundled_dir()
    if not root.is_dir():
        return out
    for entry in sorted(root.iterdir()):
        if entry.name.endswith(".cfg"):
            try:
                raw = yaml.safe_load(entry.read_text())
                out.append((raw.get("name", entry.name), raw.get("description", "")))
            except yaml.YAMLError:
                out.append((entry.name, "<unparseable>"))
    return out


def load_bundled(name: str) -> Scenario:
    path = bundled_dir() / f"{name}.cfg"
    if not path.is_file():
        raise ConfigError(f"no bundled scenario named {name!r}")
    return parse_config(path.read_text(), str(path))


def default_out_root() -> Path:
    return Path(os.environ.get(ENV_OUT_ROOT, "runs"))
