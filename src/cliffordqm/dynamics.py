"""Unitary time evolution and Bohm trajectory integration.

Evolution runs in the standard column representation (complex arrays) so
that the algebraic identities checked by the observables module are tested
against an independent generator of the fields, not against themselves.

Crank-Nicolson factors each axis's tridiagonal matrix once per run
(LAPACK ``zgttrf``) and solves every step against those factors
(``zgttrs``).  Trajectories read the velocity through a multilinear
interpolator that extrapolates linearly past the grid's edges, since an
RK4 stage may step outside the grid before the path is clamped.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import zgttrf, zgttrs

from .grids import Grid, GridError, SnapshotSeries

SCHEME_BOUNDARY = {"crank-nicolson": "clamped", "split-step": "periodic"}


@dataclass
class EvolutionConfig:
    """Evolution parameters in natural units (hbar = 1)."""

    m: float
    dt: float
    steps: int
    V: np.ndarray = None  # scalar potential sampled on the grid, or None
    scheme: str = "crank-nicolson"  # or "split-step"

    def __post_init__(self):
        if not (self.m > 0 and math.isfinite(self.m)):
            raise ValueError(f"m must be positive and finite, got {self.m}")
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.scheme not in SCHEME_BOUNDARY:
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
    """A = I + i dt/2 K factored by zgttrf, and the diagonal and off-diagonal
    of B = I - i dt/2 K, for K = -D2/2m on n clamped nodes."""
    gamma = 1j * dt / (4.0 * m * h * h)
    if not np.isfinite(gamma):  # a subnormal m, say
        raise GridError("Crank-Nicolson matrix is not finite: dt/(m h^2) overflows")
    off = np.full(n - 1, -gamma)
    *lu, _ = zgttrf(off, np.full(n, 1.0 + 2.0 * gamma), off)  # A is diagonally dominant
    return lu, 1.0 - 2.0 * gamma, gamma


def _cn_axis_step(psi: np.ndarray, axis: int, lu, diag_b, off_b) -> np.ndarray:
    """Solve A psi' = B psi along one axis; psi' is a new C-ordered array."""
    v = np.moveaxis(psi, axis, 0)
    shape = v.shape
    v = v.reshape(shape[0], -1)
    rhs = np.multiply(diag_b, v, order="F")  # zgttrs solves in place in F order
    rhs[:-1] += off_b * v[1:]
    rhs[1:] += off_b * v[:-1]
    x, _ = zgttrs(*lu, rhs, overwrite_b=True)
    out = np.empty(psi.shape, dtype=complex)
    np.moveaxis(out, axis, 0)[...] = x.reshape(shape)
    return out


def _kinetic_phase(grid: Grid, dt: float, m: float) -> np.ndarray:
    ks = []
    for ax in range(grid.dim):
        n = grid.shape[ax]
        ks.append(2.0 * np.pi * np.fft.fftfreq(n, d=grid.spacing[ax]))
    k2 = np.zeros(grid.shape)
    mesh = np.meshgrid(*ks, indexing="ij")
    for km in mesh:
        k2 += km ** 2
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        phase = np.exp(-1j * k2 * dt / (2.0 * m))
    if not np.all(np.isfinite(phase)):  # a subnormal m, say
        raise GridError("split-step kinetic phase is not finite: dt/(m h^2) overflows")
    return phase


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
    if grid.boundary != SCHEME_BOUNDARY[cfg.scheme]:
        raise GridError(f"{cfg.scheme} evolution needs a {SCHEME_BOUNDARY[cfg.scheme]} grid")
    # checked once: a unitary step keeps finite data finite
    if not np.all(np.isfinite(psi0)):
        raise GridError("psi0 is not finite")
    _check_accuracy(grid, cfg)

    half_v = None
    if cfg.V is not None:
        V = np.asarray(cfg.V, dtype=float)
        if V.shape != grid.shape:
            raise GridError("potential must be sampled on the grid")
        if not np.all(np.isfinite(V)):
            raise GridError("potential is not finite")
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
                psi = _cn_axis_step(psi, ax, *banded[ax])
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
        """One row per seed and frame, seed-major: seed_id,t,x[,y,z],truncated_flag."""
        n_frames, n_seeds, dim = self.paths.shape
        rows = np.column_stack([np.repeat(np.arange(n_seeds), n_frames),
                                np.tile(self.times, n_seeds),
                                self.paths.transpose(1, 0, 2).reshape(-1, dim),
                                np.repeat(self.truncated, n_frames)])
        header = ",".join(["seed_id", "t", *("x", "y", "z")[:dim], "truncated_flag"])
        with open(path, "w", newline="") as fh:
            np.savetxt(fh, rows, fmt=["%d"] + ["%.17g"] * (dim + 1) + ["%d"], delimiter=",",
                       newline="\r\n", header=header, comments="")


def _cell_weights(coords: list, x: np.ndarray) -> list:
    """Corners and weights of multilinear interpolation at points x (n, dim).

    Along each axis a point's cell starts at the last node at or below it,
    clipped to the first and last cells, so a point past an edge
    extrapolates linearly from the edge cell.  Returns (index tuple, weight)
    per cell corner, in itertools.product((0, 1), repeat=dim) order.
    """
    lower, frac = [], []
    for ax, c in enumerate(coords):
        i = np.clip(np.searchsorted(c, x[:, ax], side="right") - 1, 0, c.size - 2)
        lower.append(i)
        frac.append((x[:, ax] - c[i]) / (c[i + 1] - c[i]))
    corners = []
    for bits in itertools.product((0, 1), repeat=len(coords)):
        weight = math.prod(y if b else 1 - y for y, b in zip(frac, bits))
        corners.append((tuple(i + b for i, b in zip(lower, bits)), weight[:, None]))
    return corners


def _interpolate(field: np.ndarray, corners: list) -> np.ndarray:
    """Sum of corner values times weights; field is (*grid.shape, k)."""
    value = 0.0  # so that a sum of zeros is +0.0, whatever the signs of its terms
    for idx, weight in corners:
        value = value + field[idx] * weight
    return value


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

    coords = [grid.coords(ax) for ax in range(dim)]
    frames = [frame[..., :dim] for frame in velocity_series.frames]

    def vel(frame_a: int, w: float, x: np.ndarray) -> np.ndarray:
        corners = _cell_weights(coords, x)
        va = _interpolate(frames[frame_a], corners)
        if w == 0.0:
            return va
        vb = _interpolate(frames[frame_a + 1], corners)
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
