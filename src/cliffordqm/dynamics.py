"""Unitary time evolution and Bohm trajectory integration.

Evolution runs in the standard column representation (complex arrays) so
that the algebraic identities checked by the observables module are tested
against an independent generator of the fields, not against themselves.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import RegularGridInterpolator
from scipy.linalg import solve_banded

from .grids import Grid, GridError, SnapshotSeries


@dataclass
class EvolutionConfig:
    """Evolution parameters in natural units (hbar = 1)."""

    m: float
    dt: float
    steps: int
    V: np.ndarray = None  # scalar potential sampled on the grid, or None
    scheme: str = "crank-nicolson"  # or "split-step"

    def __post_init__(self):
        if not self.m > 0:
            raise ValueError(f"m must be positive, got {self.m}")
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.scheme not in ("crank-nicolson", "split-step"):
            raise ValueError(f"unknown scheme {self.scheme!r}")


def norm(psi: np.ndarray, grid: Grid) -> float:
    """L2 norm of a (possibly two-component) field, trapezoid-free sum."""
    cell = float(np.prod(grid.spacing))
    return float(np.sqrt(np.sum(np.abs(psi) ** 2) * cell))


def _check_accuracy(grid: Grid, cfg: EvolutionConfig):
    h_min = min(grid.spacing)
    if cfg.dt > h_min ** 2 * cfg.m:
        warnings.warn(
            f"dt={cfg.dt:g} exceeds h^2*m={h_min ** 2 * cfg.m:g}; "
            "evolution stays unitary but accuracy degrades",
            stacklevel=3,
        )


def _cn_banded(n: int, h: float, dt: float, m: float):
    """Banded forms of A = I + i dt/2 K and B = I - i dt/2 K, K = -D2/2m."""
    gamma = 1j * dt / (4.0 * m * h * h)
    ab = np.zeros((3, n), dtype=complex)
    ab[0, 1:] = -gamma  # superdiagonal
    ab[1, :] = 1.0 + 2.0 * gamma
    ab[2, :-1] = -gamma  # subdiagonal
    diag_b = 1.0 - 2.0 * gamma
    off_b = gamma
    return ab, diag_b, off_b


def _cn_axis_step(psi: np.ndarray, axis: int, ab, diag_b, off_b) -> np.ndarray:
    v = np.moveaxis(psi, axis, 0)
    shape = v.shape
    v = v.reshape(shape[0], -1)
    rhs = diag_b * v
    rhs[:-1] += off_b * v[1:]
    rhs[1:] += off_b * v[:-1]
    out = solve_banded((1, 1), ab, rhs)
    return np.moveaxis(out.reshape(shape), 0, axis)


def _kinetic_phase(grid: Grid, dt: float, m: float) -> np.ndarray:
    ks = []
    for ax in range(grid.dim):
        n = grid.shape[ax]
        ks.append(2.0 * np.pi * np.fft.fftfreq(n, d=grid.spacing[ax]))
    k2 = np.zeros(grid.shape)
    mesh = np.meshgrid(*ks, indexing="ij")
    for km in mesh:
        k2 += km ** 2
    return np.exp(-1j * k2 * dt / (2.0 * m))


def evolve(psi0: np.ndarray, grid: Grid, cfg: EvolutionConfig,
           t0: float = 0.0) -> SnapshotSeries:
    """Evolve a complex field (trailing 2-component axis allowed).

    Strang splitting: half potential phase, full kinetic step (per-axis
    Crank-Nicolson solves, or one FFT step on periodic grids), half
    potential phase.  Returns steps+1 frames including the initial one.
    """
    psi0 = np.asarray(psi0, dtype=complex)
    pauli = psi0.shape == grid.shape + (2,)
    if not pauli and psi0.shape != grid.shape:
        raise GridError(f"psi0 shape {psi0.shape} does not fit grid {grid.shape}")
    if cfg.scheme == "split-step" and grid.boundary != "periodic":
        raise GridError("split-step evolution needs a periodic grid")
    if cfg.scheme == "crank-nicolson" and grid.boundary != "clamped":
        raise GridError("Crank-Nicolson evolution needs a clamped grid")
    _check_accuracy(grid, cfg)

    half_v = None
    if cfg.V is not None:
        V = np.asarray(cfg.V, dtype=float)
        if V.shape != grid.shape:
            raise GridError("potential must be sampled on the grid")
        half_v = np.exp(-0.5j * cfg.dt * V)
        if pauli:
            half_v = half_v[..., None]

    if cfg.scheme == "crank-nicolson":
        banded = [_cn_banded(grid.shape[ax], grid.spacing[ax], cfg.dt, cfg.m)
                  for ax in range(grid.dim)]
    else:
        kin = _kinetic_phase(grid, cfg.dt, cfg.m)
        if pauli:
            kin = kin[..., None]
        fft_axes = tuple(range(grid.dim))

    # one copy keeps the caller's psi0 out of the frames; every step below
    # binds psi to a new array, which the frames keep as it is
    psi = psi0.copy()
    frames = [psi]
    for _ in range(cfg.steps):
        if half_v is not None:
            psi = psi * half_v
        if cfg.scheme == "crank-nicolson":
            for ax in range(grid.dim):
                ab, diag_b, off_b = banded[ax]
                psi = _cn_axis_step(psi, ax, ab, diag_b, off_b)
        else:
            psi = np.fft.ifftn(np.fft.fftn(psi, axes=fft_axes) * kin, axes=fft_axes)
        if half_v is not None:
            psi = psi * half_v
        frames.append(psi)
    times = t0 + cfg.dt * np.arange(cfg.steps + 1)
    return SnapshotSeries(times, frames, grid)


def evolve_schrodinger(psi0: np.ndarray, grid: Grid, cfg: EvolutionConfig,
                       t0: float = 0.0, norm_tol: float = 1e-8) -> SnapshotSeries:
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != grid.shape:
        raise GridError("evolve_schrodinger expects a single-component field")
    if abs(norm(psi0, grid) - 1.0) > norm_tol:
        raise ValueError("initial state is not normalized")
    return evolve(psi0, grid, cfg, t0)


def evolve_pauli(Psi0: np.ndarray, grid: Grid, cfg: EvolutionConfig,
                 t0: float = 0.0, norm_tol: float = 1e-8) -> SnapshotSeries:
    Psi0 = np.asarray(Psi0, dtype=complex)
    if Psi0.shape != grid.shape + (2,):
        raise GridError("evolve_pauli expects a two-component field")
    if abs(norm(Psi0, grid) - 1.0) > norm_tol:
        raise ValueError("initial state is not normalized")
    return evolve(Psi0, grid, cfg, t0)


# ---------------------------------------------------------------------------
# Bohm trajectories

@dataclass
class TrajectorySet:
    seeds: np.ndarray  # (n_seeds, dim)
    times: np.ndarray  # (n_frames,)
    paths: np.ndarray  # (n_frames, n_seeds, dim)
    truncated: np.ndarray  # (n_seeds,) bool

    def to_csv(self, path) -> None:
        dim = self.paths.shape[2]
        cols = ["seed_id", "t"] + ["x", "y", "z"][:dim] + ["truncated_flag"]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(cols)
            for s in range(self.paths.shape[1]):
                for f, t in enumerate(self.times):
                    row = [s, f"{t:.17g}"]
                    row += [f"{v:.17g}" for v in self.paths[f, s]]
                    row.append(int(self.truncated[s]))
                    writer.writerow(row)


def _interp(grid: Grid, field: np.ndarray):
    pts = [grid.coords(ax) for ax in range(grid.dim)]
    return RegularGridInterpolator(pts, field, method="linear",
                                   bounds_error=False, fill_value=None)


def integrate_trajectories(velocity_series: SnapshotSeries, seeds,
                           masks: list = None) -> TrajectorySet:
    """Integrate seed points through time-indexed velocity fields.

    Classic 4th-order one-step integration per frame interval; velocity is
    multilinear in space and linear in time.  Paths leaving the grid are
    clamped and flagged; paths entering a masked node region are frozen and
    flagged.
    """
    grid = velocity_series.grid
    dim = grid.dim
    seeds = np.atleast_2d(np.asarray(seeds, dtype=float))
    if seeds.shape[1] != dim:
        raise GridError(f"seeds must have {dim} coordinates")
    lo = np.array([ax.lo for ax in grid.axes])
    hi = np.array([ax.hi for ax in grid.axes])
    if np.any(seeds < lo) or np.any(seeds > hi):
        raise GridError("seed outside grid")

    interps = [[_interp(grid, frame[..., ax]) for ax in range(dim)]
               for frame in velocity_series.frames]

    def vel(frame_a: int, w: float, x: np.ndarray) -> np.ndarray:
        va = np.column_stack([interps[frame_a][ax](x) for ax in range(dim)])
        if w == 0.0:
            return va
        vb = np.column_stack([interps[frame_a + 1][ax](x) for ax in range(dim)])
        return (1.0 - w) * va + w * vb

    n_frames = len(velocity_series)
    dt = velocity_series.dt
    n_seeds = seeds.shape[0]
    paths = np.empty((n_frames, n_seeds, dim))
    paths[0] = seeds
    truncated = np.zeros(n_seeds, dtype=bool)
    active = ~truncated

    def masked_out(x: np.ndarray, frame: int) -> np.ndarray:
        if masks is None:
            return np.zeros(x.shape[0], dtype=bool)
        idx = tuple(
            np.clip(np.rint((x[:, ax] - lo[ax]) / grid.spacing[ax]).astype(int),
                    0, grid.shape[ax] - 1)
            for ax in range(dim)
        )
        return ~masks[frame][idx]

    x = seeds.copy()
    for f in range(n_frames - 1):
        xa = x[active]
        if xa.size:
            k1 = vel(f, 0.0, xa)
            k2 = vel(f, 0.5, xa + 0.5 * dt * k1)
            k3 = vel(f, 0.5, xa + 0.5 * dt * k2)
            k4 = vel(f, 1.0, xa + dt * k3)
            xa = xa + dt * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
            out = np.any((xa < lo) | (xa > hi), axis=1)
            xa = np.clip(xa, lo, hi)
            dead = out | masked_out(xa, f + 1)
            x_active_idx = np.flatnonzero(active)
            x[active] = xa
            truncated[x_active_idx[dead]] = True
            active = ~truncated
        paths[f + 1] = x
    return TrajectorySet(seeds, velocity_series.times.copy(), paths, truncated)


def ordering_preserved(paths: np.ndarray) -> bool:
    """True if 1D trajectory ordering never changes between any two frames."""
    order0 = np.argsort(paths[0, :, 0], kind="stable")
    ranked = paths[:, order0, 0]
    return bool(np.all(np.diff(ranked, axis=1) >= 0.0))
