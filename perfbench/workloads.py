"""The four benchmark workloads: seeded input generation, pipeline, checks.

Every workload turns a ``numpy.random.Generator`` into one repetition's
inputs (a config text, a texture descriptor or arrays of random points),
runs the package on them through module attributes only, so that a traced
run sees every call, and checks the output.  A repetition fails when any
check fails; the benchmark counts failures and never draws again.

Import this module only after ``bootstrap.prepare()``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import yaml

from cliffordqm import algebra as alg
from cliffordqm import dynamics as dy
from cliffordqm import grids as gd
from cliffordqm import harness
from cliffordqm import observables as ob
from cliffordqm import oracle as orc
from cliffordqm import spinors as sp

IDENTITY_TOL = 1e-12


@dataclass
class Outcome:
    """Checked result of one repetition.

    ratios maps each check to max_abs / tolerance; problems lists every
    condition that failed.
    """

    ratios: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    @property
    def worst_ratio(self) -> float:
        return float(np.max(list(self.ratios.values())))  # NaN if any is NaN

    def record(self, name: str, max_abs: float, tol: float) -> None:
        self.ratios[name] = max_abs / tol
        if not max_abs <= tol:
            self.problems.append(f"{name}: max_abs {max_abs:.3e} > tolerance {tol:.3e}")


# ---------------------------------------------------------------------------
# scenario workloads driven through the YAML harness

def _check_report(report: dict, want_trajectories: bool) -> Outcome:
    out = Outcome()
    for name, stats in report["residuals"].items():
        out.record(name, stats["max_abs"], stats["tolerance"])
    if not report["passed"]:
        out.problems.append("report.passed is false")
    if not report["norm_drift"] <= harness.NORM_DRIFT_ABORT:
        out.problems.append(f"norm drift {report['norm_drift']:.3e}")
    traj = report.get("trajectories")
    if want_trajectories and (traj is None or not traj["ordering_preserved"]):
        out.problems.append("trajectory ordering not preserved")
    return out


class ScenarioWorkload:
    """A bundled scenario at a stated size, with seeded initial-state inputs."""

    name = ""
    n = steps = 0
    trajectories = False

    def config(self, rng: np.random.Generator) -> dict:
        raise NotImplementedError

    def make_inputs(self, rng: np.random.Generator) -> str:
        return yaml.safe_dump(self.config(rng), sort_keys=False)

    def prepare(self, text: str):
        """What a user pays before any work: parse the config, sample psi0."""
        sc = harness.parse_config(text, self.name)
        return gd.sample(sc.descriptor, sc.grid)

    def run(self, text: str, out_dir) -> Outcome:
        sc = harness.parse_config(text, self.name)
        try:
            report = harness.run_to_files(sc, out_dir)
        except harness.RunAborted as exc:
            return Outcome(problems=[f"run aborted: {exc}"])
        return _check_report(report, self.trajectories)

    def work(self) -> float:
        return float(self.n * self.steps)


class SchrodingerLong(ScenarioWorkload):
    """Bundled schrodinger_gaussian, 4x the steps at a quarter of dt.

    The final time equals the bundled run.  k stays at the bundled 1.0: at
    k=1.2 p_alg_vs_weighted exceeds its bound, since the error grows as
    k^2 h^2.
    """

    name = "schrodinger_long"
    n, steps, dt = 384, 1600, 1.25e-4
    trajectories = True

    def config(self, rng):
        x0 = float(rng.uniform(-1.0, 1.0))
        offsets = np.array([-1.5, -0.75, 0.0, 0.75, 1.5]) + rng.uniform(-0.3, 0.3, 5)
        return {
            "schema_version": 1,
            "name": self.name,
            "particle": "schrodinger",
            "grid": {"lo": -12.0, "hi": 12.0, "n": self.n, "boundary": "clamped"},
            "initial_state": {"kind": "gaussian", "sigma": 1.0, "x0": x0,
                              "k": 1.0, "m": 1.0},
            "potential": {"kind": "none"},
            "evolution": {"m": 1.0, "dt": self.dt, "steps": self.steps,
                          "scheme": "crank-nicolson"},
            "trajectories": {"seeds": [float(x0 + o) for o in offsets], "stride": 20},
            "tolerances": {"C": 1.0, "support_rel": 1e-8},
            "checks": ["qhj", "continuity", "triple_agreement"],
        }


class PauliWide(ScenarioWorkload):
    """Bundled pauli_superposition on 16x the points, dt=5e-6 (< h^2 m)."""

    name = "pauli_wide"
    n, steps, dt = 4096, 400, 5e-6

    def config(self, rng):
        w1, w2 = (float(w) for w in rng.uniform(0.5, 1.5, 2))
        return {
            "schema_version": 1,
            "name": self.name,
            "particle": "pauli",
            "grid": {"lo": 0.0, "hi": 4.0 * math.pi, "n": self.n, "boundary": "periodic"},
            "initial_state": {"kind": "pauli-superposition", "k1": 1.0, "k2": -1.0,
                              "weights": [w1, w2], "m": 1.0},
            "potential": {"kind": "none"},
            "evolution": {"m": 1.0, "dt": self.dt, "steps": self.steps,
                          "scheme": "split-step"},
            "trajectories": {"seeds": [], "stride": 20},
            "tolerances": {"C": 2.0, "support_rel": 1e-8},
            "checks": ["qhj", "continuity", "spin_transport", "q_split",
                       "current_decomposition", "triple_agreement"],
        }


# ---------------------------------------------------------------------------
# 3-D periodic spin texture, driven through the library directly (the
# harness builds 1-D grids only)

class PauliTexture3D:
    """Euler texture on 40^3 periodic points over [0, 4 pi)^3.

    Over a period L = 4 pi the spinor is periodic when theta_k = n/2,
    phi_k = p/2 and chi_k + (n + p)/2 is an integer, per axis.  theta_k is
    never zero, so every axis carries a real gradient and curl.
    """

    name = "pauli_texture_3d"
    n, steps, m, C = 40, 20, 1.0, 2.0
    length = 4.0 * math.pi

    def __init__(self):
        self.grid = gd.Grid((gd.Axis(0.0, self.length, self.n),) * 3, "periodic")
        h = self.grid.spacing[0]
        self.dt = 0.5 * h * h  # Bao, Jin & Markowich regime: dt <= h^2 m
        self.tol_time = 5.0 * self.C * (h * h + self.dt ** 2)
        self.tol_space = 5.0 * self.C * h * h

    def make_inputs(self, rng: np.random.Generator) -> gd.EulerTexture:
        theta_k, phi_k, chi_k = [], [], []
        for _ in range(3):
            n = int(rng.choice((-1, 1)))
            p = int(rng.integers(-1, 2))
            chi = float(rng.choice((-0.5, 0.5))) if (n + p) % 2 else 0.0
            theta_k.append(n / 2.0)
            phi_k.append(p / 2.0)
            chi_k.append(chi)
        return gd.EulerTexture(
            theta0=float(rng.uniform(0.4, math.pi - 0.4)),
            theta_k=tuple(theta_k),
            phi0=float(rng.uniform(-math.pi, math.pi)),
            phi_k=tuple(phi_k),
            chi0=float(rng.uniform(-math.pi, math.pi)),
            chi_k=tuple(chi_k),
            sigma=None,
        )

    def prepare(self, texture: gd.EulerTexture):
        return gd.sample(texture, self.grid)

    def run(self, texture: gd.EulerTexture, out_dir) -> Outcome:
        grid, m = self.grid, self.m
        psi0 = gd.sample(texture, grid)
        psi0 = psi0 / dy.norm(psi0, grid)
        cfg = dy.EvolutionConfig(m=m, dt=self.dt, steps=self.steps, scheme="split-step")
        series = dy.evolve(psi0, grid, cfg)
        out = Outcome()
        drift = abs(dy.norm(series.frames[-1], grid) - dy.norm(series.frames[0], grid))
        if not drift <= harness.NORM_DRIFT_ABORT:
            out.problems.append(f"norm drift {drift:.3e}")

        k = len(series) // 2
        state = ob.state_at(series, k)
        obs = ob.compute_observables(series, k, m)
        support = state.mask & ob.support_mask(state.rho, 1e-8)

        def record(name, res, tol):
            out.record(name, ob.residual_stats(res, support)["max_abs"], tol)

        for name, res in obs.residuals.items():
            record(name, res, self.tol_time)
        safe = np.where(state.mask, state.rho, 1.0)[..., None]
        p_oracle = np.where(state.mask[..., None],
                            orc.momentum_density(state.psi, grid) / safe, 0.0)
        record("p_alg_vs_oracle", _vec_mag(obs.P - p_oracle), self.tol_time)
        total = orc.messiah_current(state.psi, grid, m)
        record("current_decomposition", _vec_mag(total - (obs.J_conv + obs.J_rot)),
               self.tol_space)
        return out

    def work(self) -> float:
        return float(self.grid.n_points * self.steps)


def _vec_mag(v: np.ndarray) -> np.ndarray:
    return np.sqrt((v ** 2).sum(axis=-1))


# ---------------------------------------------------------------------------
# single-element path

class AlgebraPoints:
    """Random Pauli points through the single-point spinor and algebra API.

    Per point: the spinor bridge (components, Euler angles, density element,
    expectation values) against the matrix oracle, and one random product
    per algebra checked for the matrix homomorphism and for conjugation
    reversing products.  Every identity must hold to 1e-12.
    """

    name = "algebra_points"
    points = 300
    _blades = ("e1", "e2", "e3")

    def make_inputs(self, rng: np.random.Generator) -> dict:
        return {
            "psi": rng.standard_normal((self.points, 4)),
            alg.SCHRODINGER: rng.standard_normal((self.points, 2, alg.SCHRODINGER.dim)),
            alg.PAULI: rng.standard_normal((self.points, 2, alg.PAULI.dim)),
        }

    def prepare(self, inputs: dict):
        return inputs

    def run(self, inputs: dict, out_dir) -> Outcome:
        # np.max, unlike max, lets a NaN error through to the check
        errors = {name: [] for name in ("components", "euler", "density", "expectation",
                                        "rep_schrodinger", "conj_schrodinger",
                                        "rep_pauli", "conj_pauli")}
        ops = [alg.Multivector.blade(alg.PAULI, b) for b in self._blades]
        for i, v in enumerate(inputs["psi"]):
            psi1, psi2 = complex(v[0], v[1]), complex(v[2], v[3])
            phi = sp.from_components(psi1, psi2)
            q1, q2 = sp.to_components(phi)
            errors["components"] += [abs(q1 - psi1), abs(q2 - psi2)]
            b1, b2 = sp.to_components(sp.from_euler(sp.to_euler(phi)))
            errors["euler"] += [abs(b1 - psi1), abs(b2 - psi2)]
            rho_c = sp.cde(phi)
            dm = orc.density_matrix(psi1, psi2)
            errors["density"].append(np.max(np.abs(orc.matrix_rep(rho_c.body) - dm)))
            for op, sigma in zip(ops, orc.SIGMA):
                want = np.trace(sigma @ dm).real
                errors["expectation"].append(abs(ob.expectation(op, rho_c) - want))
            for sig, tag in ((alg.SCHRODINGER, "schrodinger"), (alg.PAULI, "pauli")):
                a = alg.Multivector(sig, inputs[sig][i, 0])
                b = alg.Multivector(sig, inputs[sig][i, 1])
                ab = alg.geometric_product(a, b)
                lhs = np.asarray(orc.matrix_rep(ab))
                rhs = np.asarray(orc.matrix_rep(a)) @ np.asarray(orc.matrix_rep(b)) \
                    if sig == alg.PAULI else orc.matrix_rep(a) * orc.matrix_rep(b)
                errors["rep_" + tag].append(np.max(np.abs(lhs - rhs)))
                conj = alg.geometric_product(alg.clifford_conjugate(b), alg.clifford_conjugate(a))
                errors["conj_" + tag].append((alg.clifford_conjugate(ab) - conj).norm_inf())
        out = Outcome()
        for name, errs in errors.items():
            out.record(name, float(np.max(errs)), IDENTITY_TOL)
        return out

    def work(self) -> float:
        return float(self.points)


WORKLOADS = {w.name: w for w in (SchrodingerLong(), PauliWide(), PauliTexture3D(),
                                 AlgebraPoints())}
