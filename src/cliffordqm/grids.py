"""Uniform grids, sampled fields, and second-order finite differences.

All stencils are second order: central in the interior, one-sided
second-order at clamped boundaries, wrap-around for periodic grids.
Derivative helpers work directly on ndarrays whose leading axes are the
grid axes; trailing axes (vector components, multivector coefficients)
ride along in the input's memory order.  Derived fields keep that shape but
are stored component-first (``component_first``), one contiguous block per
component; a vector field's gradient, [..., component, axis], is stored as
(axis, component, *grid).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

MIN_POINTS = 5


class GridError(ValueError):
    pass


@dataclass(frozen=True)
class Axis:
    lo: float
    hi: float
    n: int

    def __post_init__(self):
        if self.n < MIN_POINTS:
            raise GridError(f"n must be at least {MIN_POINTS} points per axis, got {self.n}")
        if not self.hi > self.lo:
            raise GridError(f"hi must exceed lo, got lo={self.lo} hi={self.hi}")


@dataclass(frozen=True)
class Grid:
    """Uniform 1-3D grid; periodic axes omit the duplicate endpoint."""

    axes: tuple
    boundary: str = "clamped"  # 'clamped' | 'periodic'

    def __post_init__(self):
        if self.boundary not in ("clamped", "periodic"):
            raise GridError(f"unknown boundary {self.boundary!r}")
        if not 1 <= len(self.axes) <= 3:
            raise GridError("grid must be 1-3 dimensional")

    @staticmethod
    def line(lo: float, hi: float, n: int, boundary: str = "clamped") -> "Grid":
        return Grid((Axis(lo, hi, n),), boundary)

    @property
    def dim(self) -> int:
        return len(self.axes)

    @property
    def shape(self) -> tuple:
        return tuple(ax.n for ax in self.axes)

    @property
    def spacing(self) -> tuple:
        if self.boundary == "periodic":
            return tuple((ax.hi - ax.lo) / ax.n for ax in self.axes)
        return tuple((ax.hi - ax.lo) / (ax.n - 1) for ax in self.axes)

    def coords(self, axis: int) -> np.ndarray:
        ax = self.axes[axis]
        h = self.spacing[axis]
        return ax.lo + h * np.arange(ax.n)

    def meshgrid(self) -> list:
        return list(np.meshgrid(*[self.coords(i) for i in range(self.dim)], indexing="ij"))

    def points(self) -> np.ndarray:
        """Node coordinates, one (x[, y, z]) row per point in C order."""
        return np.column_stack([x.ravel() for x in self.meshgrid()])

    @property
    def n_points(self) -> int:
        return int(np.prod(self.shape))


class StepTimes(Sequence):
    """The times j dt of steps j = 0..n-1, each computed when it is read: an
    index gives a float, a slice an array.  Nothing is held per step."""

    def __init__(self, dt: float, n: int):
        self.dt, self.n = float(dt), n

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, i):
        j = range(self.n)[i]  # an int, or a range for a slice
        return self.dt * (np.arange(j.start, j.stop, j.step) if isinstance(j, range) else j)


@dataclass
class SnapshotSeries:
    """Uniformly spaced time snapshots of a field, frames[j] at times[j].

    dt defaults to times[1] - times[0], checked uniform.  A run's series
    (``dynamics.evolve``) holds StepTimes, frame j at j dt, which need no
    check and take their dt, the run's step: t[k] - t[k-1] may differ from
    it by a few ulp.
    """

    times: np.ndarray  # or StepTimes
    frames: list  # ndarrays sharing one shape, or a read-only sequence of them
    grid: Grid = None
    dt: float = None

    def __post_init__(self):
        if not isinstance(self.times, StepTimes):
            self.times = np.asarray(self.times, dtype=float)
        if len(self.times) != len(self.frames):
            raise GridError("times and frames length mismatch")
        if isinstance(self.times, StepTimes):
            self.dt = self.times.dt
        elif len(self.times) >= 2:
            steps = np.diff(self.times)
            if np.any(steps <= 0) or np.max(np.abs(steps - steps[0])) > 1e-9 * abs(steps[0]):
                raise GridError("times must be strictly increasing with uniform step")
            if self.dt is None:
                self.dt = steps[0]
            if not abs(self.dt - steps[0]) <= 1e-9 * steps[0]:
                raise GridError(f"dt {self.dt!r} does not match the step of times {steps[0]!r}")
        if self.dt is not None:
            self.dt = float(self.dt)

    def __len__(self):
        return len(self.frames)


# ---------------------------------------------------------------------------
# stencils

def component_first(shape: tuple, grid_ndim: int, dtype=float) -> np.ndarray:
    """Zeros of shape, its value axes (past the first grid_ndim) stored outermost,
    the last one first: np.moveaxis(out, -1, 0) of a (..., n) field is C-ordered."""
    order = tuple(range(len(shape) - 1, grid_ndim - 1, -1)) + tuple(range(grid_ndim))
    return np.zeros([shape[i] for i in order], dtype).transpose(np.argsort(order))


def deriv(values: np.ndarray, grid: Grid, axis: int, out: np.ndarray = None) -> np.ndarray:
    """First derivative along one grid axis, written into out (values' shape)
    when given, else into a new array in values' memory order."""
    if out is None:
        out = np.empty_like(values, dtype=np.result_type(values, float))
    v, o = np.moveaxis(values, axis, 0), np.moveaxis(out, axis, 0)
    np.subtract(v[2:], v[:-2], out=o[1:-1])
    if grid.boundary == "periodic":
        o[0] = v[1] - v[-1]
        o[-1] = v[0] - v[-2]
    else:
        o[0] = -3.0 * v[0] + 4.0 * v[1] - v[2]
        o[-1] = 3.0 * v[-1] - 4.0 * v[-2] + v[-3]
    o /= 2.0 * grid.spacing[axis]  # one rounding per point, as dividing each difference
    return out


def gradient(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Spatial gradient; returns shape grid.shape + value shape + (3,).

    Components along axes the grid does not have are zero.
    """
    out = component_first(values.shape + (3,), grid.dim, np.result_type(values, float))
    for ax in range(grid.dim):
        deriv(values, grid, ax, out[..., ax])
    return out


def laplacian(values: np.ndarray, grid: Grid) -> np.ndarray:
    out = np.zeros_like(values, dtype=np.result_type(values, float))
    term = np.empty_like(out)
    for ax, h in enumerate(grid.spacing):
        v, t = np.moveaxis(values, ax, 0), np.moveaxis(term, ax, 0)
        np.multiply(v[1:-1], 2.0, out=t[1:-1])
        np.subtract(v[2:], t[1:-1], out=t[1:-1])
        t[1:-1] += v[:-2]
        if grid.boundary == "periodic":
            t[0] = v[1] - 2.0 * v[0] + v[-1]
            t[-1] = v[0] - 2.0 * v[-1] + v[-2]
        else:
            t[0] = 2.0 * v[0] - 5.0 * v[1] + 4.0 * v[2] - v[3]
            t[-1] = 2.0 * v[-1] - 5.0 * v[-2] + 4.0 * v[-3] - v[-4]
        t /= h * h
        out += term
    return out


def divergence(v: np.ndarray, grid: Grid) -> np.ndarray:
    """Divergence of a 3-component vector field (trailing axis)."""
    out = np.zeros(v.shape[:-1], dtype=np.result_type(v, float))
    for ax in range(grid.dim):
        out += deriv(v[..., ax], grid, ax)
    return out


def curl(v: np.ndarray, grid: Grid) -> np.ndarray:
    """Curl of a 3-component vector field, stored component-first; missing-axis terms are 0."""
    d = gradient(v, grid)  # [..., component, axis]
    out = component_first(v.shape, grid.dim, np.result_type(v, float))
    for k, i, j in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        out[..., k] = d[..., j, i] - d[..., i, j]
    return out


def time_derivative(prev: np.ndarray, next: np.ndarray, dt: float) -> np.ndarray:
    """Central time difference at a frame from the frames dt before and after it."""
    out = next - prev
    out /= 2.0 * dt
    return out


# ---------------------------------------------------------------------------
# scenario sampling: closed-form initial/exact states

@dataclass(frozen=True)
class PlaneWave:
    """psi = exp(i(k.x - E t)), E = |k|^2/2m."""

    k: tuple = (1.0, 0.0, 0.0)
    m: float = 1.0


@dataclass(frozen=True)
class GaussianPacket:
    """Free Gaussian, exact spreading solution.

    At t=0: psi = (2 pi sigma^2)^(-d/4) exp(-(x-x0)^2/(4 sigma^2) + i k.x).
    """

    sigma: float = 1.0
    x0: tuple = (0.0, 0.0, 0.0)
    k: tuple = (0.0, 0.0, 0.0)
    m: float = 1.0


@dataclass(frozen=True)
class HarmonicGroundState:
    """psi = (m w/pi)^(d/4) exp(-m w x^2/2) exp(-i E t), E = d*w/2."""

    omega: float = 1.0
    m: float = 1.0


@dataclass(frozen=True)
class PauliSuperposition:
    """Psi = (w1 psi_a, w2 psi_b) built from two plane waves."""

    k1: tuple = (1.0, 0.0, 0.0)
    k2: tuple = (-1.0, 0.0, 0.0)
    weights: tuple = (1.0, 1.0)
    m: float = 1.0

    def __post_init__(self):
        # sample divides by this norm; NaN fails the comparison too
        if not 0.0 < np.hypot(*self.weights) < np.inf:
            raise GridError(f"weights: need a finite, nonzero norm, got {self.weights}")


@dataclass(frozen=True)
class EulerTexture:
    """Pauli field from slowly varying Euler angles.

    theta = theta0 + theta_k . x, phi = phi0 + phi_k . x, chi = chi0 + chi_k . x,
    amplitude R = exp(-(x-x0)^2/(4 sigma^2)) or 1 when sigma is None.
    """

    theta0: float = np.pi / 2
    theta_k: tuple = (0.0, 0.0, 0.0)
    phi0: float = 0.0
    phi_k: tuple = (0.0, 0.0, 0.0)
    chi0: float = 0.0
    chi_k: tuple = (0.0, 0.0, 0.0)
    sigma: float = None
    x0: tuple = (0.0, 0.0, 0.0)
    omega_t: float = 0.0  # chi advances at -omega_t * t


def _dot_x(grid: Grid, k) -> np.ndarray:
    out = np.zeros(grid.shape)
    for ax, x in enumerate(grid.meshgrid()):
        out += k[ax] * x
    return out


def _r2(grid: Grid, x0) -> np.ndarray:
    out = np.zeros(grid.shape)
    for ax, x in enumerate(grid.meshgrid()):
        out += (x - x0[ax]) ** 2
    return out


def sample(descriptor, grid: Grid, t: float = 0.0) -> np.ndarray:
    """Evaluate a closed-form scenario on the grid at time t.

    Returns a complex array: grid.shape for scalar states, grid.shape+(2,)
    for Pauli states.
    """
    if isinstance(descriptor, PlaneWave):
        k = descriptor.k
        energy = sum(ki * ki for ki in k) / (2.0 * descriptor.m)
        return np.exp(1j * (_dot_x(grid, k) - energy * t))
    if isinstance(descriptor, GaussianPacket):
        return _gaussian_packet(descriptor, grid, t)
    if isinstance(descriptor, HarmonicGroundState):
        m, w = descriptor.m, descriptor.omega
        d = grid.dim
        energy = d * w / 2.0
        norm = (m * w / np.pi) ** (d / 4.0)
        return norm * np.exp(-m * w * _r2(grid, (0.0, 0.0, 0.0)) / 2.0) * np.exp(-1j * energy * t)
    if isinstance(descriptor, PauliSuperposition):
        w1, w2 = descriptor.weights
        norm = np.hypot(w1, w2)
        c1 = sample(PlaneWave(descriptor.k1, descriptor.m), grid, t) * (w1 / norm)
        c2 = sample(PlaneWave(descriptor.k2, descriptor.m), grid, t) * (w2 / norm)
        return np.stack([c1, c2], axis=-1)
    if isinstance(descriptor, EulerTexture):
        return _euler_texture(descriptor, grid, t)
    raise GridError(f"unknown scenario descriptor {type(descriptor).__name__}")


def _gaussian_packet(d: GaussianPacket, grid: Grid, t: float) -> np.ndarray:
    # exact free evolution: sigma_t^2 = sigma^2 (1 + i t / (2 m sigma^2))
    sig2 = d.sigma ** 2
    m = d.m
    tau = 1.0 + 1j * t / (2.0 * m * sig2)
    dim = grid.dim
    k2 = sum(ki * ki for ki in d.k)
    out = np.ones(grid.shape, dtype=complex)
    out *= (2.0 * np.pi * sig2) ** (-dim / 4.0) * tau ** (-dim / 2.0)
    xs = grid.meshgrid()
    phase_free = np.zeros(grid.shape)
    quad = np.zeros(grid.shape, dtype=complex)
    for ax in range(dim):
        xc = xs[ax] - d.x0[ax] - d.k[ax] * t / m
        quad += xc ** 2
        phase_free += d.k[ax] * (xs[ax] - d.x0[ax])
    out *= np.exp(-quad / (4.0 * sig2 * tau))
    out *= np.exp(1j * (phase_free - k2 * t / (2.0 * m)))
    return out


def _euler_texture(d: EulerTexture, grid: Grid, t: float) -> np.ndarray:
    theta = d.theta0 + _dot_x(grid, d.theta_k)
    phi = d.phi0 + _dot_x(grid, d.phi_k)
    chi = d.chi0 + _dot_x(grid, d.chi_k) - d.omega_t * t
    if d.sigma is None:
        R = np.ones(grid.shape)
    else:
        R = np.exp(-_r2(grid, d.x0) / (4.0 * d.sigma ** 2))
    psi1 = R * np.cos(theta / 2.0) * np.exp(1j * (phi + chi) / 2.0)
    psi2 = 1j * R * np.sin(theta / 2.0) * np.exp(1j * (chi - phi) / 2.0)
    return np.stack([psi1, psi2], axis=-1)


# ---------------------------------------------------------------------------
# CSV export

def export_csv(path, grid: Grid, columns: dict) -> None:
    """Write one row per grid point: coordinates then named values.

    Floats are printed with 17 significant digits for bit-stable dumps;
    lines end in CRLF.
    """
    names = list(("x", "y", "z")[: grid.dim])
    cols = [grid.points()]
    for name, arr in columns.items():
        flat = np.asarray(arr).reshape(grid.n_points, -1)
        if flat.shape[1] == 1:
            names.append(name)
        else:
            names.extend(f"{name}_{i}" for i in range(flat.shape[1]))
        cols.append(flat)
    write_csv(path, names, np.hstack(cols), ["%.17g"] * len(names))


def write_csv(path, names: list, table: np.ndarray, formats: list) -> None:
    """Write a header line of names, then one line per row of a 2-D table, each
    value printed by its column's % format: commas between values, CRLF line
    ends, the bytes numpy.savetxt writes with the same formats."""
    row = ",".join(formats)
    lines = [",".join(names)] + [row % tuple(values) for values in table.tolist()]
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join(lines) + "\r\n")
