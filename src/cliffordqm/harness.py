"""Scenario-driven runs: configure, evolve, check, export.

Configs are YAML documents with a schema_version field; see the bundled
files under cliffordqm/scenarios for the dialect.  They are read on
libyaml when PyYAML has it, and a refusal's text always comes from the
pure-Python parser.  A run produces a fields CSV, a trajectories CSV, and
a report JSON whose pass/fail flags drive the CLI exit code.

A run evolves keeping the frames of a few steps: 0 and steps, whose norms
give the drift check, k-1, k and k+1 around the checked frame
k = (steps+1)//2, and, when the scenario has trajectory seeds, every
stride-th frame.  After the check the stride frames are written into one
stack, a free run's unbuilt ones built in one block transform; the run
derives every stride frame's velocity in one stacked pass and integrates
the seeds' Bohm paths through them, and paths that cross fail it.  It
reads no other frame, so a free run of either scheme transforms back only
those and does no work per step.  run_scenario and run_to_files return the
same report.  The memory guard prices the run per grid point and, with
seeds, each stride frame on top.
"""

from __future__ import annotations

import importlib.resources
import json
import math
import os
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from . import dynamics as dy
from . import grids as gd
from . import observables as ob
from . import oracle as orc

SCHEMA_VERSION = 1
ENV_OUT_ROOT = "CLIFFORDQM_OUT_ROOT"
# the most grid points x steps one run (or sweep level) may take.  It
# prices every step as array work, which only a run with a potential does:
# a free run builds only the frames it keeps, whatever its steps.  The
# bundled 4-level sweeps peak at 3072 x 25600 = 7.9e7 point-steps; a fifth
# level takes 4.2e8 to 6.3e8, and steps: 1e9 on 128 points 1.3e11, so both
# are refused before they run.
MAX_POINT_STEPS = 2 ** 28
# bytes per grid point a run holds at its peak, without trajectory seeds:
# frames 0 and steps, a free run's psi0 spectrum, the three-frame window
# and the observables derived from it.  A warmed run_scenario at n = 4096
# and 40 steps traced 414 B a point on schrodinger_gaussian and 942 B on
# pauli_superposition and pauli_texture.
RUN_BYTES_PER_POINT = {"schrodinger": 512, "pauli": 1024}
# bytes per grid point each trajectory stride frame adds to a run with seeds:
# the raw frame, its velocity and node mask, and the temporaries of the one
# stacked pass that derives them.  A warmed seeded run_scenario at n = 4096
# and stride 1 traced 142 and 144 B a point per frame over the run without
# seeds on schrodinger_gaussian, and 333 and 336 B on pauli_texture, at 41
# and 201 frames.  The block that builds a free run's stride frames before
# that pass, stack included, peaks at 77-78 B a point-frame on
# schrodinger_gaussian (its sine passes transform each odd extension in
# place) and 93-95 B on pauli_texture, and the RK4
# interpolator's flat velocity copy, 8 B a point per grid axis, comes after
# the pass has freed its temporaries: neither raises the peak.
STRIDE_FRAME_BYTES_PER_POINT = {"schrodinger": 256, "pauli": 512}


class ConfigError(ValueError):
    pass


class RunAborted(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# config parsing

# each initial-state kind and the particle it describes
_STATE_KINDS = {"plane-wave": "schrodinger", "gaussian": "schrodinger",
                "pauli-superposition": "pauli", "euler-texture": "pauli"}
_REQUIRED = object()


class _PyLoader(yaml.SafeLoader):
    """YAML 1.1 reads 5e-4 and 1.0e308 as strings: it wants a dot and a signed
    exponent.  This loader reads every decimal with an exponent as a float.
    An integer that int() will not read stays text, for _Spec to refuse."""


class _Loader(yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader):
    """_PyLoader on libyaml's parser when PyYAML has it, which takes a
    benchmark config's parse_config from 1.15 to 0.18 ms; the same resolvers
    and constructors build the same mapping."""


class _LongInt(str):
    """A decimal integer literal of more digits than int() reads from a string
    (sys.get_int_max_str_digits()), kept as its text.  It lies past 1.8e308,
    so float() refuses it as it refuses any integer past the float range."""

    def __float__(self):
        raise OverflowError("integer literal too long to convert to float")


def _construct_int(loader, node):
    try:
        return loader.construct_yaml_int(node)
    except ValueError:  # a decimal past int()'s digit limit, or text tagged !!int
        text = loader.construct_scalar(node)
        return _LongInt(text) if re.fullmatch(r"[-+]?[\d_]+", text) else text


def _construct_map(loader, node):
    """A mapping that refuses a key written twice in it, whose last value
    YAML would silently keep; a merge key's entries may still be overridden."""
    own = [key for key, _ in node.value if key.tag != "tag:yaml.org,2002:merge"]
    mapping = loader.construct_mapping(node)  # refuses an unhashable key
    seen = set()
    for key_node in own:
        key = loader.construct_object(key_node)
        if key in seen:
            raise yaml.constructor.ConstructorError(None, None, f"found duplicate key {key!r}",
                                                    key_node.start_mark)
        seen.add(key)
    return mapping


for _loader in (_PyLoader, _Loader):
    _loader.add_implicit_resolver("tag:yaml.org,2002:float",
                                  re.compile(r"^[-+]?(\d+\.?\d*|\.\d+)[eE][-+]?\d+$"),
                                  list("-+0123456789."))
    _loader.add_constructor("tag:yaml.org,2002:int", _construct_int)
    _loader.add_constructor("tag:yaml.org,2002:map", _construct_map)


class _Spec:
    """A config mapping at a key path.  Every config value is read through one,
    and every refusal it raises reads <source>: <path>.<key>: <problem>."""

    def __init__(self, mapping, path: str, source: str):
        self.mapping, self.path, self.source = mapping, path, source
        self.read = set()  # the keys asked for, which done() holds the mapping to

    def error(self, problem: str, key: str = "") -> ConfigError:
        where = ".".join(part for part in (self.path, key) if part)
        return ConfigError(f"{self.source}: {where + ': ' if where else ''}{problem}")

    def get(self, key: str, default=_REQUIRED):
        self.read.add(key)
        if key not in self.mapping and default is _REQUIRED:
            raise self.error("missing", key)
        return self.mapping.get(key, default)

    def done(self):
        """Refuse the first key that nothing has read: a misspelled key would
        leave its default in force."""
        for key in self.mapping:
            if key not in self.read:
                raise self.error("unknown key", str(key))

    def section(self, key: str, default=_REQUIRED) -> _Spec:
        spec = self.get(key, default)
        if not isinstance(spec, dict):
            raise self.error(f"expected a mapping, got {spec!r}", key)
        return _Spec(spec, key, self.source)  # sections sit at the top level

    def number(self, key: str, default=_REQUIRED, kind=float):
        """The value as a float (or int); a missing or null key takes the default."""
        value = self.get(key, None)
        if value is None and default is _REQUIRED:
            raise self.error("missing", key)
        return default if value is None else self._coerce(value, key, kind)

    def finite(self, key: str, default=_REQUIRED):
        """A finite number when given; a missing or null key takes the default."""
        value = self.number(key, default)
        if value is not None and not math.isfinite(value):
            raise self.error(f"must be finite, got {value}", key)
        return value

    def positive(self, key: str, default):
        """A finite number > 0 when given; a missing key takes the default."""
        value = self.finite(key, default)
        if value is not None and not value > 0:
            raise self.error(f"must be positive and finite, got {value}", key)
        return value

    def numbers(self, key: str, default) -> list:
        values = self.get(key, default)
        if not isinstance(values, (list, tuple)):
            raise self.error(f"expected a list, got {values!r}", key)
        return [self._coerce(v, f"{key}[{i}]") for i, v in enumerate(values)]

    def _coerce(self, value, key: str, kind=float):
        if isinstance(value, bool) or not isinstance(value, (int, float, _LongInt)):
            raise self.error(f"expected a number, got {value!r}", key)
        try:
            number = float(value)
        except OverflowError:  # an integer literal past 1.8e308
            raise self.error("must lie within the float range, got an integer beyond it",
                             key) from None
        if kind is int and not number.is_integer():
            raise self.error(f"expected an integer, got {value!r}", key)
        return kind(value)


@dataclass
class Scenario:
    name: str
    description: str
    particle: str
    grid: gd.Grid
    descriptor: object
    config: dict  # the parsed YAML mapping, which a sweep refines level by level
    evolution: dy.EvolutionConfig
    seeds: list
    trajectory_stride: int
    tol_C: float
    support_rel: float
    checks: list


def parse_config(text: str, source: str = "<config>") -> Scenario:
    try:
        raw = yaml.load(text, Loader=_Loader)
    except yaml.YAMLError:  # parsed again: a refusal reads as the pure-Python parser's
        try:
            raw = yaml.load(text, Loader=_PyLoader)
        except yaml.YAMLError as exc:
            mark = getattr(exc, "problem_mark", None)
            line = f" at line {mark.line + 1}" if mark else ""
            problem = getattr(exc, "problem", None) or " ".join(str(exc).split())
            raise ConfigError(f"{source}: YAML parse error{line}: {problem}") from exc
    return _scenario(raw, source)


def _memory_bytes() -> int:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _scenario(raw, source: str) -> Scenario:
    root = _Spec(raw, "", source)
    if not isinstance(raw, dict):
        raise root.error("config must be a mapping")
    version = root.get("schema_version")
    if type(version) is not int or version != SCHEMA_VERSION:  # not True, not 1.0
        raise root.error(f"expected {SCHEMA_VERSION}, got {version!r}", "schema_version")

    name = root.get("name")
    # without --out the run writes to <output root>/<name>
    if not isinstance(name, str) or name in ("", ".", "..") or Path(name).name != name:
        raise root.error(f"expected a directory name, got {name!r}", "name")
    particle = root.get("particle")
    if particle not in ("schrodinger", "pauli"):
        raise root.error(f"expected schrodinger or pauli, got {particle!r}", "particle")

    gspec = root.section("grid")
    lo, hi = gspec.finite("lo"), gspec.finite("hi")
    n = gspec.number("n", kind=int)
    # a run's working set in GB, as a float
    gb, memory = n * (RUN_BYTES_PER_POINT[particle] * 1e-9), _memory_bytes() / 1e9
    if gb > memory:  # n lies within the float range, so both figures are finite
        raise gspec.error(f"a run on {n:.3g} points takes {gb:.3g} GB, more than the "
                          f"{memory:.1f} GB of memory", "n")
    boundary = gspec.get("boundary", "clamped")
    if boundary not in ("clamped", "periodic"):
        raise gspec.error(f"expected clamped or periodic, got {boundary!r}", "boundary")
    gspec.done()
    try:
        grid = gd.Grid.line(lo, hi, n, boundary)
    except ValueError as exc:
        raise gspec.error(str(exc)) from exc
    h = min(grid.spacing)
    k_max = math.pi / h  # the largest wavenumber
    if not math.isfinite(h * h + k_max * k_max):
        raise gspec.error(f"the spacing {h:.3g} puts h^2 or (pi/h)^2 past the float range", "hi")

    sspec = root.section("initial_state")
    descriptor = _parse_state(sspec, particle, grid)
    sspec.done()

    espec = root.section("evolution")
    m, dt = espec.number("m"), espec.number("dt")
    steps = espec.number("steps", kind=int)
    if steps < 2:  # the checked frame (steps+1)//2 needs a frame on each side
        raise espec.error(f"must be at least 2, got {steps}", "steps")
    if grid.n_points * steps > MAX_POINT_STEPS:  # ints: the product neither overflows nor rounds
        raise espec.error(f"{grid.n_points} points x {steps:.3g} steps exceed the "
                          f"{MAX_POINT_STEPS:.3g} point-steps of one run", "steps")

    tspec = root.section("trajectories", {})
    seeds = tspec.numbers("seeds", [])
    for i, s in enumerate(seeds):
        if not lo <= s <= hi:
            raise tspec.error(f"seed {s} lies outside the grid [{lo}, {hi}]", f"seeds[{i}]")
    stride = tspec.number("stride", 10, int)
    if stride < 1:
        raise tspec.error(f"must be at least 1, got {stride}", "stride")
    if seeds:
        frames = _stride_frames(steps, stride)[1]
        gb += n * frames * (STRIDE_FRAME_BYTES_PER_POINT[particle] * 1e-9)
        if gb > memory:
            raise tspec.error(f"a run on {n:.3g} points that keeps {frames:.3g} stride frames "
                              f"takes {gb:.3g} GB, more than the {memory:.1f} GB of memory",
                              "stride")
    tspec.done()

    # sampled after the size refusals: a harmonic V holds one float per grid point
    pspec = root.section("potential", {"kind": "none"})
    potential = _parse_potential(pspec, grid)
    pspec.done()
    scheme = espec.get("scheme", "crank-nicolson")
    if not isinstance(scheme, str) or scheme not in dy.SCHEME_BOUNDARY:
        raise espec.error(f"expected one of {', '.join(dy.SCHEME_BOUNDARY)}, got {scheme!r}",
                          "scheme")
    espec.done()
    try:
        evolution = dy.EvolutionConfig(m, dt, steps, potential, scheme)
    except ValueError as exc:
        raise espec.error(str(exc)) from exc
    if grid.boundary != dy.SCHEME_BOUNDARY[scheme]:
        raise espec.error(f"{scheme} needs a {dy.SCHEME_BOUNDARY[scheme]} grid, "
                          f"got {grid.boundary}", "scheme")
    # the largest kinetic phase of a step, (pi/h)^2 dt/2m, bounds both schemes' matrices
    if not math.isfinite(k_max * k_max * dt / (2.0 * m)):
        raise espec.error(f"too small for dt and h, dt/(m h^2) overflows, got {m}", "m")

    tol = root.section("tolerances", {})
    tol_C = tol.positive("C", 1.0)
    # a support_rel >= 1 leaves at most the density's peak: every residual would pass
    support_rel = tol.number("support_rel", 1e-8)
    if not 0.0 < support_rel < 1.0:
        raise tol.error(f"must lie in (0, 1), got {support_rel}", "support_rel")
    tol.done()

    checks = root.get("checks", None)
    if checks is None:
        checks = [c for c, (_, particles) in _CHECKS.items() if particle in particles]
    if not isinstance(checks, list):
        raise root.error(f"expected a list of check names, got {checks!r}", "checks")
    for c in checks:
        if not isinstance(c, str) or c not in _CHECKS:
            raise root.error(f"unknown check {c!r}", "checks")
        if particle not in _CHECKS[c][1]:
            raise root.error(f"{c} does not apply to particle: {particle}", "checks")
    description = root.get("description", "")
    root.done()

    return Scenario(name, description, particle, grid, descriptor, raw,
                    evolution, seeds, stride, tol_C, support_rel, list(checks))


def _parse_state(spec: _Spec, particle: str, grid: gd.Grid):
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in _STATE_KINDS:
        raise spec.error(f"expected one of {', '.join(_STATE_KINDS)}, got {kind!r}", "kind")
    if _STATE_KINDS[kind] != particle:
        raise spec.error(f"{kind} needs particle: {_STATE_KINDS[kind]}, got {particle}", "kind")

    lo, hi = grid.axes[0].lo, grid.axes[0].hi  # a config's grid is a line

    def vec(key, default):
        return (spec.finite(key, default), 0.0, 0.0)

    def width(default):  # both packets divide by sigma^2
        sigma = spec.positive("sigma", default)
        if sigma is not None and not 0.0 < sigma * sigma < math.inf:
            raise spec.error(f"sigma^2 must be a positive finite float, got {sigma}", "sigma")
        return sigma

    def turns(key, k, what):  # k (hi - lo) / 2 pi as an int, refused unless a whole number
        q = k * (hi - lo) / (2.0 * math.pi)
        if not (math.isfinite(q) and abs(q - round(q)) <= 1e-9 * max(1.0, abs(q))):
            raise spec.error(f"the grid [{lo}, {hi}] holds {q:.6g} {what}, not a whole number",
                             key)
        return round(q)

    def wave(key, default):  # a whole number of periods of a periodic grid
        k = vec(key, default)
        if grid.boundary != "periodic":
            raise spec.error(f"a plane wave needs a periodic grid, got {grid.boundary}", key)
        turns(key, k[0], "periods of the wave")
        return k

    if kind == "plane-wave":
        return gd.PlaneWave(k=wave("k", 1.0), m=spec.positive("m", 1.0))
    if kind == "gaussian":
        sigma, x0 = width(1.0), vec("x0", 0.0)
        if x0[0] - 6.0 * sigma < lo or x0[0] + 6.0 * sigma > hi:
            raise spec.error(f"the packet needs 6 sigma = {6.0 * sigma} of margin to each "
                             f"edge of the grid [{lo}, {hi}], got x0 = {x0[0]}", "x0")
        return gd.GaussianPacket(sigma=sigma, x0=x0, k=vec("k", 0.0), m=spec.positive("m", 1.0))
    if kind == "pauli-superposition":
        w = spec.numbers("weights", [1.0, 1.0])
        if len(w) != 2:
            raise spec.error(f"expected two numbers, got {w}", "weights")
        try:
            return gd.PauliSuperposition(k1=wave("k1", 1.0), k2=wave("k2", -1.0),
                                         weights=(w[0], w[1]), m=spec.positive("m", 1.0))
        except gd.GridError as exc:  # its only refusal: "weights: <problem>"
            raise spec.error(str(exc).removeprefix("weights: "), "weights") from exc
    texture = gd.EulerTexture(
        theta0=spec.finite("theta", np.pi / 2),
        theta_k=vec("theta_k", 0.0),
        phi0=spec.finite("phi", 0.0),
        phi_k=vec("phi_k", 0.0),
        chi_k=vec("chi_k", 0.0),
        sigma=width(None),
        x0=vec("x0", 0.0),
    )
    if texture.sigma is None and grid.boundary == "periodic":
        # over one period psi_1 gains (-1)^a e^(i pi (p + c)) and psi_2 (-1)^a e^(i pi (c - p))
        # for a, p, c the turns of theta, phi, chi: 1 for both only for whole a, p, c of even sum
        a, p, c = (turns(f"{angle}_k", getattr(texture, f"{angle}_k")[0], f"turns of {angle}")
                   for angle in ("theta", "phi", "chi"))
        if (a + p + c) % 2:
            raise spec.error(f"theta, phi and chi turn {a}, {p} and {c} times over the grid "
                             f"[{lo}, {hi}], and psi is periodic only when the sum is even",
                             "chi_k")
    return texture


def _parse_potential(spec: _Spec, grid: gd.Grid):
    kind = spec.get("kind", "none")
    if kind == "none":
        return None
    if kind == "harmonic":
        omega = spec.number("omega", 1.0)
        m = spec.positive("m", 1.0)
        key = "omega"
        with np.errstate(all="ignore"):  # omega^2 may overflow: a non-finite V is refused below
            V = 0.5 * m * np.float64(omega) ** 2 * grid.coords(0) ** 2
    elif kind == "table":
        values = spec.numbers("values", [])
        if len(values) != grid.shape[0]:
            raise spec.error(f"expected {grid.shape[0]} values, got {len(values)}", "values")
        V, key = np.asarray(values, dtype=float), "values"
    else:
        raise spec.error(f"expected none, harmonic or table, got {kind!r}", "kind")
    if not np.all(np.isfinite(V)):
        raise spec.error("the sampled potential is not finite", key)
    return V


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


def _stride_frames(steps: int, stride: int) -> tuple[int, int]:
    """A seeded run's trajectory stride, at most steps, and the number of
    frames it keeps: frames 0, stride, 2 stride, ... up to steps."""
    stride = min(stride, steps)
    return stride, steps // stride + 1


def _run(sc: Scenario):
    """Sample, evolve, check frame k and integrate the seeds, whose crossing
    fails the run: (report, BohmObservables, TrajectorySet or None)."""
    steps = sc.evolution.steps
    k = (steps + 1) // 2
    stride, n_frames = _stride_frames(steps, sc.trajectory_stride)
    strided = range(0, steps + 1, stride) if sc.seeds else range(0)
    series = dy.evolve(_initial_field(sc), sc.grid, sc.evolution,
                       keep={0, k - 1, k, k + 1, steps, *strided})
    drift = abs(dy.norm(series.frames[steps], sc.grid) - dy.norm(series.frames[0], sc.grid))
    report, obs = _check(sc, series, k, drift)
    if not sc.seeds:
        return report, obs, None
    spin = (2,) if sc.particle == "pauli" else ()
    stack = np.empty(sc.grid.shape + (n_frames,) + spin, complex)
    series.frames.fill(np.moveaxis(stack, sc.grid.dim, 0), strided)
    del series  # the stack holds the stride frames: the others and psi0's spectrum go
    times = sc.evolution.dt * (stride * np.arange(n_frames))
    velocities, masks = ob.velocity_series(sc.grid, stack, times, sc.evolution.m)
    traj = dy.integrate_trajectories(velocities, np.reshape(sc.seeds, (-1, 1)), masks)
    ordered = dy.ordering_preserved(traj.paths)
    report["trajectories"] = {"n_seeds": len(sc.seeds), "n_truncated": int(traj.truncated.sum()),
                              "ordering_preserved": ordered}
    report["passed"] = report["passed"] and ordered
    return report, obs, traj


def run_scenario(sc: Scenario) -> dict:
    """Evolve, check, integrate the trajectories: the report run_to_files writes."""
    return _run(sc)[0]


def _check(sc: Scenario, series: gd.SnapshotSeries, k: int, drift: float):
    """Report on frame k of a run from its series, which holds frames k-1..k+1,
    and from the run's norm drift: (report, BohmObservables of frame k, whose
    window holds the frame and its neighbours)."""
    if not drift <= NORM_DRIFT_ABORT:  # a NaN drift aborts too
        raise RunAborted(f"norm drift {drift:g} exceeds {NORM_DRIFT_ABORT:g}")

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
    yield "e_alg_vs_oracle", np.abs(obs.E - _energy_oracle(obs.window)), "time"


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


def _energy_oracle(win: ob.Window) -> np.ndarray:
    dens = orc.energy_density((win.prev.psi, win.cur.psi, win.next.psi), win.dt)
    return ob.masked_divide(dens, win.cur.rho, win.cur.mask)


def run_to_files(sc: Scenario, out_dir) -> dict:
    """Run, then write fields.csv, trajectories.csv (with seeds) and report.json."""
    report, obs, traj = _run(sc)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
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
    if traj is not None:
        traj.to_csv(out / "trajectories.csv")
    with open(out / "report.json", "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return report


# ---------------------------------------------------------------------------
# convergence sweep

def _levels(sc: Scenario, levels: int) -> list[Scenario]:
    """The scenario at n 2^l, dt 4^-l and steps 4^l for l < levels, without
    trajectories, each parsed before any runs: a refusal names its level."""
    grid, evolution = sc.config["grid"], sc.config["evolution"]
    out = []
    for lvl in range(levels):
        f = 2 ** lvl
        level = dict(sc.config, grid={**grid, "n": grid["n"] * f}, evolution={
            **evolution, "dt": evolution["dt"] / f ** 2, "steps": evolution["steps"] * f ** 2})
        level.pop("trajectories", None)
        try:
            out.append(_scenario(level, sc.name))
        except ConfigError as exc:
            raise ConfigError(f"--levels {levels}: level {lvl + 1}: {exc}") from None
    return out


def sweep(sc: Scenario, levels: int) -> dict:
    """Refine h by 2 per level (dt by 4), report per-residual error slopes."""
    if levels < 3:
        raise ConfigError(f"--levels {levels}: sweep needs at least 3 refinement levels")
    if sc.config.get("potential", {}).get("kind") == "table":
        raise ConfigError(f"{sc.name}: potential.kind: table potentials cannot be refined "
                          "for a sweep")
    rows = [run_scenario(level) for level in _levels(sc, levels)]

    slopes = {}
    for name in rows[0]["residuals"]:
        errs = [r["residuals"][name]["max_abs"] for r in rows]
        slopes[name] = {"max_abs": errs, "log2_ratios": [
            float(np.log2(a / b)) for a, b in zip(errs, errs[1:]) if b > 0]}
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
                sc = parse_config(entry.read_text(), str(entry))
                out.append((sc.name, sc.description))
            except ConfigError:
                out.append((entry.name, "<unparseable>"))
    return out


def load_bundled(name: str) -> Scenario:
    path = bundled_dir() / f"{name}.cfg"
    if not path.is_file():
        raise ConfigError(f"no bundled scenario named {name!r}")
    return parse_config(path.read_text(), str(path))


def default_out_root() -> Path:
    return Path(os.environ.get(ENV_OUT_ROOT, "runs"))
