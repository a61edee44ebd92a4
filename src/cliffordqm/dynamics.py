"""Unitary time evolution and Bohm trajectory integration.

Evolution runs in the standard column representation (complex arrays) so
that the algebraic identities checked by the observables module are tested
against an independent generator of the fields, not against themselves.

``evolve`` runs one of two loops.  A run without a potential, of either
scheme, is diagonal in its spectrum, where a step turns each mode by the
angle theta of its scheme: frame j is psi0's spectrum times exp(-i j theta),
transformed back when it is read, so the run does no work per step.  A
run with a potential takes Strang steps (Strang, SIAM J. Numer. Anal. 5
(1968) 506): half the potential phase, the scheme's kinetic step, half the
potential phase, each kept frame held as made.
One phase expression, exp(-i j theta) per axis, makes a free frame, a block
of them and split-step's one-step kinetic phase.

Crank-Nicolson's spectrum is the type-I discrete sine (DST-I) one, which
diagonalises the clamped second difference on every axis, and each mode's
Cayley factor is a phase.  The DST-I is the odd extension of each axis
through ``numpy.fft``, so a free run loads neither ``scipy.linalg`` nor
``scipy.fft``.  Its kinetic step solves each axis's tridiagonal matrix,
factored once per run (LAPACK ``zgttrf``), every step (``zgttrs``), about
twice as fast as a transform pair.  Both come from ``scipy.linalg``, which
is imported on the first such run, not with this module: it costs about
0.2 s and loads ``numpy.f2py``, which other runs do not need.

Split-step's spectrum is the Fourier one and its symbol the kinetic phase;
its kinetic step is a transform pair around that phase, so with a potential
every frame is bit-identical to an ``fftn``/``ifftn`` loop's.  A line uses
``numpy.fft``; 2-D and 3-D grids run ``scipy.fft`` one axis at a time, last
axis first, which rounds as ``numpy.fft.fftn`` does and is about 40 %
faster at 40^3.  ``scipy.fft`` is imported on the first such step, not
with this module: the import loads ``scipy.special`` and costs about 0.1 s
and 3-7 MB of peak memory, which Crank-Nicolson runs and lines, where
``numpy.fft.fft`` is about as fast, do not pay.

``evolve`` returns a run's frames by step number, frame j at time j dt
(``StepTimes`` over range(steps + 1)), and holds only the frames of the
steps in ``keep`` (every step without it).  So a caller that needs a few
frames of steps it knows in advance holds O(N) memory rather than
O(steps N), and a free run of either scheme transforms back only the
frames its caller reads.  The series' ``frames.fill`` writes
a list of frames into one block: it copies the frames held and builds a
free run's others in one inverse transform over their stacked phased
spectra, which numpy rounds as it rounds each frame alone; there is one
path, whatever the scheme.

Trajectories read the velocity through a multilinear interpolator that
extrapolates linearly past a clamped grid's edges, since an RK4 stage may
step outside the grid before the path is clamped, and wraps around a
periodic grid, whose paths are never clamped.  It holds the frames as one
flat array, a periodic grid's padded once with node 0 at the end of every
axis, and finds a point's cell among each axis's interior nodes, so an RK4
stage makes the same few numpy calls whatever the grid's boundary.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .grids import Grid, GridError, SnapshotSeries, StepTimes, write_csv

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


def _cn_gamma(h: float, dt: float, m: float) -> complex:
    """gamma = i dt/(4 m h^2), so that A = I + gamma T and B = I - gamma T for
    T = tridiag(-1, 2, -1), whose eigenvalues reach 4."""
    gamma = 1j * dt / (4.0 * m * h * h)
    if not np.isfinite(4.0 * gamma):  # a subnormal m, say
        raise GridError("Crank-Nicolson matrix is not finite: dt/(m h^2) overflows")
    return gamma


def _cn_kinetic(grid: Grid, dt: float, m: float):
    """The Crank-Nicolson kinetic step: A psi' = B psi along each axis, A =
    I + gamma T factored once (zgttrf) and solved every step (zgttrs), into
    a new C-ordered array; B = I - gamma T.  Its argument is never written."""
    from scipy.linalg.lapack import zgttrf, zgttrs  # here, not at the top: see the module docstring

    factors = []
    for n, h in zip(grid.shape, grid.spacing):
        gamma = _cn_gamma(h, dt, m)
        off = np.full(n - 1, -gamma)
        *lu, _ = zgttrf(off, np.full(n, 1.0 + 2.0 * gamma), off)  # A is diagonally dominant
        factors.append((functools.partial(zgttrs, *lu), 1.0 - 2.0 * gamma, gamma))

    def kinetic(psi: np.ndarray) -> np.ndarray:
        for axis, (solve, diag_b, off_b) in enumerate(factors):
            v = psi.swapaxes(0, axis)
            shape = v.shape
            v = v.reshape(shape[0], -1)
            rhs = np.multiply(diag_b, v, order="F")  # zgttrs solves in place in F order
            rhs[:-1] += off_b * v[1:]
            rhs[1:] += off_b * v[:-1]
            x, _ = solve(rhs, overwrite_b=True)
            psi = np.empty(psi.shape, dtype=complex)
            psi.swapaxes(0, axis)[...] = x.reshape(shape)
        return psi

    return kinetic


def _free_angles(grid: Grid, cfg: EvolutionConfig, steps: int) -> list:
    """Each axis's angles theta: a free step multiplies spectral mode k by
    exp(-i theta_k) per axis.  Split-step's are k^2 dt/2m; a clamped axis's
    DST-I mode k has T's eigenvalue lam = 4 sin^2(pi k / 2(n+1)) and Cayley
    factor (1 - i b lam)/(1 + i b lam) = exp(-2i arctan(b lam)), b = dt/(4 m h^2).
    Refuses, naming the scheme, angles whose steps-th multiple is not finite."""
    angles = []
    with np.errstate(over="ignore"):  # reported below
        for n, h in zip(grid.shape, grid.spacing):
            if cfg.scheme == "split-step":
                angles.append((2.0 * np.pi * np.fft.fftfreq(n, d=h)) ** 2 * cfg.dt / (2.0 * cfg.m))
            else:
                lam = 4.0 * np.sin(np.pi * np.arange(1, n + 1) / (2 * (n + 1))) ** 2
                angles.append(2.0 * np.arctan(_cn_gamma(h, cfg.dt, cfg.m).imag * lam))
        try:
            finite = all(np.isfinite(steps * np.max(theta)) for theta in angles)  # a subnormal m
        except OverflowError:  # steps past the float range
            finite = False
    if not finite:
        span = "one step" if steps == 1 else "the run's steps"
        raise GridError(f"{cfg.scheme} kinetic phase over {span} is not finite: "
                        "its angle overflows")
    return angles


def _fft_passes(transform, x: np.ndarray, axes: tuple) -> np.ndarray:
    """transform along each of axes in turn, into a new array: x is never written."""
    x = transform(x, axis=axes[0])
    for ax in axes[1:]:
        x = transform(x, axis=ax, overwrite_x=True)
    return x


def _sine_passes(transform, x: np.ndarray, axes: tuple) -> np.ndarray:
    """The type-I sine transform (DST-I) along each of axes, into a new
    C-ordered array that owns its data: x is never written.

    Along an n-node axis, x is extended to the odd sequence
    [0, x, 0, -x reversed] of length 2(n+1), whose discrete Fourier
    transform is odd too, and entries 1..n of that transform, taken in
    place in the extension's own memory, are kept.  So
    numpy.fft.fft maps x to -2i S x, for S the sine matrix
    sin(pi j k/(n+1)), and numpy.fft.ifft maps that back to x."""
    for ax in axes:
        n = x.shape[ax]
        v = x.swapaxes(0, ax)
        odd = np.zeros((2 * n + 2,) + v.shape[1:], complex)
        odd[1:n + 1] = v
        np.negative(v[::-1], out=odd[n + 2:])
        transform(odd, axis=0, out=odd)
        x = odd[1:n + 1].swapaxes(0, ax)
    return x.copy()


class _Frames(Sequence):
    """Frames 0..steps of a run, a read-only sequence.  held maps steps to
    their frames.  A free run builds any other frame j with build(j) when
    it is read and holds it only if j is in keep, dropping build once it
    holds every frame; a run with a potential has no build and refuses any
    other frame.  A slice is a list of frames."""

    def __init__(self, steps: int, held: dict, keep, build):
        self._n, self._held, self._keep, self._build = steps + 1, held, keep, build

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i):
        j = range(self._n)[i]  # an int, or a range for a slice
        if isinstance(j, range):
            return [self[s] for s in j]
        frame = self._held.get(j)
        if frame is None:
            frame = self._built(j)
            if j in self._keep:
                self._held[j] = frame
                if len(self._held) == self._n:
                    self._build = None  # every frame held: psi0's spectrum goes
        return frame

    def _built(self, j):
        """build(j) for a step j or a 1-D array of them; a run with a potential refuses."""
        if self._build is None:
            raise GridError(f"the run did not keep frame {np.ravel(j)[0]}")
        return self._build(j)

    def fill(self, out: np.ndarray, steps) -> None:
        """Write frame steps[i] into out[i] for every i, holding no frame
        it builds: a held frame is copied, and a free run builds the others
        together, one inverse transform over the block of their phased
        spectra, which rounds as building each alone does."""
        rows = []
        for i, j in enumerate(steps):
            if j in self._held:
                out[i] = self._held[j]
            else:
                rows.append(i)
        if rows:
            out[rows] = self._built(np.array([steps[i] for i in rows]))


def evolve(psi0: np.ndarray, grid: Grid, cfg: EvolutionConfig, keep=None) -> SnapshotSeries:
    """Evolve a complex field (trailing 2-component axis allowed): a series
    of the run's steps+1 frames, frame j at time j dt.

    Runs one of the module's two loops: without a potential, each frame
    built from psi0's spectrum in closed form when it is read, so free
    frames differ from a step-by-step solve at roundoff; with a potential,
    Strang steps around the scheme's kinetic step, whose split-step frames
    equal a numpy.fft.fftn loop's bit for bit.
    keep is the collection of steps whose frames the series holds, every
    step when None.  A free run holds frame 0, which is psi0's bits, and
    builds any other frame when it is read, holding it if its step is kept;
    a run with a potential holds its kept frames and refuses any other read
    with GridError.  A frame is C-ordered, owns its data and is never
    written afterwards.  The series' frames are a read-only sequence (an
    index, a slice or an iteration), whose fill(out, steps) writes frames
    into one block.
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

    def phase(j) -> np.ndarray:
        """S_j, the outer product over axes of exp(-i j theta), for steps j of
        any shape on the axes after the grid's (and before a spin axis)."""
        j = np.asarray(j)
        s_j = np.ones(())
        for ax, theta in enumerate(angles):
            shape = [1] * (grid.dim + j.ndim)
            shape[ax] = -1
            s_j = np.multiply(s_j, np.exp(-1j * j * theta.reshape(shape)))
        return s_j[..., None] if pauli else s_j

    def build(j) -> np.ndarray:
        """Free frame j, phi0 times S_j transformed back; for a 1-D array j,
        those frames stacked on a first axis."""
        j = np.asarray(j)
        spectrum = phi0.reshape(grid.shape + (1,) * j.ndim + phi0.shape[grid.dim:])
        # np.multiply, not *: numpy may take a * b as b * a, written into a
        # temporary b of 256 KiB or more, and a complex product's rounding
        # depends on its operands' order
        frames = back(np.multiply(spectrum, phase(j)))
        return np.moveaxis(frames, grid.dim, 0) if j.ndim else frames

    # a free run builds frame j from psi0's spectrum phi0 and j times each
    # axis's angles; a run with a potential takes Strang steps around the
    # scheme's kinetic step, split-step's the phase of one step
    if cfg.scheme == "crank-nicolson" and half_v is not None:
        kinetic = _cn_kinetic(grid, cfg.dt, cfg.m)
    else:
        axes = tuple(reversed(range(grid.dim)))  # numpy.fft.fftn's order
        fft, passes = np.fft, (_fft_passes if cfg.scheme == "split-step" else _sine_passes)
        if cfg.scheme == "split-step" and grid.dim > 1:
            import scipy.fft as fft  # here, not at the top: see the module docstring
        forward, back = (functools.partial(passes, t, axes=axes) for t in (fft.fft, fft.ifft))
        angles = _free_angles(grid, cfg, 1 if half_v is not None else cfg.steps)
        if half_v is None:
            phi0 = forward(psi0)
        else:
            kin = phase(1).reshape(half_v.shape)

        def kinetic(psi: np.ndarray) -> np.ndarray:
            phi = forward(psi)
            phi *= kin
            return back(phi)

    keep = range(cfg.steps + 1) if keep is None else frozenset(keep)
    # one copy keeps the caller's psi0 out of the frames; every Strang step
    # below makes a new array, which the run holds as it is.  A free run's
    # frame 0 is psi0's bits whatever keep holds: building it would round
    psi = psi0.copy()
    held = {0: psi} if half_v is None or 0 in keep else {}
    if half_v is not None:
        for j in range(1, cfg.steps + 1):
            psi = kinetic(psi * half_v)
            psi *= half_v  # a new array, not yet held
            if j in keep:
                held[j] = psi
    frames = _Frames(cfg.steps, held, keep, build if half_v is None else None)
    return SnapshotSeries(StepTimes(cfg.dt, range(cfg.steps + 1)), frames, grid)


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
        write_csv(path, ["seed_id", "t", *("x", "y", "z")[:dim], "truncated_flag"], rows)


def _clamp(a: np.ndarray, lo, hi) -> np.ndarray:
    """np.clip(a, lo, hi) for non-NaN a, without np.clip's few microseconds a call."""
    return np.minimum(np.maximum(a, lo), hi)


class _Interpolator:
    """Multilinear interpolation in fields of one grid stacked in time.

    The first grid.dim components of every frame are held once as one
    C-contiguous (n_frames * rows, dim) array, so a stage finds its corners
    by flat row.  A periodic grid's frames are padded on every axis with
    node 0 once more, one period on, and its coords end with hi, so the last
    cell joins the last node to node 0 and no corner takes a modulo.  Along
    each axis a point's cell starts at the last node at or below it, clipped
    to the first and last cells, which is its place among the interior
    nodes c[1:-1]: a point past a clamped grid's edge extrapolates linearly
    from the edge cell, and a point on a periodic grid is read at its image
    in the period [lo, hi).
    """

    def __init__(self, grid: Grid, frames):
        dim = grid.dim
        self.periodic = grid.boundary == "periodic"
        self.lo = np.array([ax.lo for ax in grid.axes])
        self.period = np.array([ax.hi for ax in grid.axes]) - self.lo
        coords = [grid.coords(ax) for ax in range(dim)]
        v = np.empty((len(frames),) + tuple(n + self.periodic for n in grid.shape) + (dim,))
        for f, frame in enumerate(frames):
            v[(f, *map(slice, grid.shape))] = frame[..., :dim]
        if self.periodic:  # node 0 once more at the end of every axis, in place
            coords = [np.append(c, ax.hi) for c, ax in zip(coords, grid.axes)]
            for ax in range(1, dim + 1):
                v[(slice(None),) * ax + (-1,)] = v[(slice(None),) * ax + (0,)]
        self.coords = coords
        self.inner = [c[1:-1] for c in coords]
        self.widths = [np.diff(c) for c in coords]  # the bits of c[i + 1] - c[i]
        self.steps = [s // v.strides[-2] for s in v.strides[1:-1]]  # rows per node, per axis
        self.flat = v.reshape(-1, dim)
        # bases[f]: the rows of the corners of frame f's cell at node 0, in
        # itertools.product order
        corners = np.array(list(itertools.product((0, 1), repeat=dim))) @ self.steps
        first_rows = v.shape[1] * self.steps[0] * np.arange(len(v))
        self.bases = first_rows[:, None, None] + corners[:, None]

    def locate(self, base: np.ndarray, x: np.ndarray):
        """The rows of the corners of the cells of points x (n, dim), from
        bases (..., 2^dim, 1) of ``self.bases``, and their weights (2^dim, n, 1),
        corners in itertools.product((0, 1), repeat=dim) order."""
        if self.periodic:
            x = self.lo + np.mod(x - self.lo, self.period)
        rows, weight = base, None
        for ax, (inner, c, widths, step) in enumerate(
                zip(self.inner, self.coords, self.widths, self.steps)):
            xa = x[:, ax]
            i = inner.searchsorted(xa, "right")
            y = (xa - c[i]) / widths[i]
            rows = rows + i * step
            w = np.array((1 - y, y))
            weight = w if weight is None else (weight[:, None] * w).reshape(-1, len(x))
        return rows, weight[..., None]

    def __call__(self, base: np.ndarray, x: np.ndarray) -> np.ndarray:
        """The values at points x (n, dim) of frame f, (n, dim), for base
        ``self.bases[f]``, or of frames f..g, (g + 1 - f, n, dim), for
        ``self.bases[f:g + 1]``."""
        rows, weights = self.locate(base, x)
        terms = self.flat.take(rows, axis=0) * weights
        value = 0.0  # so that a sum of zeros is +0.0, whatever the signs of its terms
        for k in range(len(weights)):
            value = value + terms[..., k, :, :]
        return value


def integrate_trajectories(velocity_series: SnapshotSeries, seeds, masks: list) -> TrajectorySet:
    """Integrate seed points through time-indexed velocity fields.

    Classic 4th-order one-step integration per frame interval; velocity is
    multilinear in space and linear in time, so the last stage reads the
    interval's end frame alone.  Each stage locates its points once, by
    their places among each axis's interior nodes, and gathers every
    corner's velocity by flat row, of frames f and f + 1 at once in the two
    midpoint stages (``_Interpolator``).  On a clamped grid, paths leaving
    the grid are clamped and flagged; on a periodic grid, padded once with
    node 0 at the end of every axis, the velocity is read at the position
    modulo the period, interpolated across the wrap between the last node
    and node 0, and paths are kept unwrapped, never clamped.  Paths that
    reach a node where masks[frame] is False (a density node, as in
    ``SpinorField.mask``) are frozen and flagged.  Every seed takes every
    step, and a frozen seed keeps its position in place of its step's
    result, so a moving seed's path does not depend on the others.  A series
    with no frames, a seed that is not finite and within [lo, hi] on every
    axis, or a number of masks other than one per frame, raises GridError.
    """
    grid = velocity_series.grid
    dim = grid.dim
    if len(velocity_series) == 0:
        raise GridError("the velocity series has no frames")
    seeds = np.atleast_2d(np.asarray(seeds, dtype=float))
    if seeds.shape[1] != dim:
        raise GridError(f"seeds must have {dim} coordinates")
    if len(masks) != len(velocity_series):
        raise GridError(f"{len(masks)} masks for {len(velocity_series)} frames")
    lo = np.array([ax.lo for ax in grid.axes])
    hi = np.array([ax.hi for ax in grid.axes])
    if not np.all((seeds >= lo) & (seeds <= hi)):  # a NaN seed fails both
        raise GridError("seed outside grid")

    periodic = grid.boundary == "periodic"
    n, h = np.array(grid.shape), np.array(grid.spacing)
    vel = _Interpolator(grid, velocity_series.frames)

    flat_masks = np.reshape(masks, (len(masks), -1))
    node_rows = np.cumprod((1,) + grid.shape[:0:-1])[::-1]  # a node's flat row, C order

    def masked_out(x: np.ndarray, frame: int) -> np.ndarray:
        node = np.rint((x - lo) / h).astype(int)
        node = np.mod(node, n) if periodic else _clamp(node, 0, n - 1)
        return ~flat_masks[frame][node @ node_rows]

    n_frames = len(velocity_series)
    dt = velocity_series.dt
    paths = np.empty((n_frames,) + seeds.shape)
    paths[0] = x = seeds
    truncated = np.zeros(seeds.shape[0], dtype=bool)
    half_dt = 0.5 * dt
    for f in range(n_frames - 1):
        k1 = vel(vel.bases[f], x)
        k2 = vel(vel.bases[f:f + 2], x + half_dt * k1)
        k2 = 0.5 * k2[0] + 0.5 * k2[1]
        k3 = vel(vel.bases[f:f + 2], x + half_dt * k2)
        k3 = 0.5 * k3[0] + 0.5 * k3[1]
        k4 = vel(vel.bases[f + 1], x + dt * k3)
        step = x + dt * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
        out = False if periodic else np.any((step < lo) | (step > hi), axis=1)
        if not periodic:
            step = _clamp(step, lo, hi)
        paths[f + 1] = x = np.where(truncated[:, None], x, step)
        truncated |= out | masked_out(step, f + 1)
    return TrajectorySet(seeds, np.asarray(velocity_series.times), paths, truncated)


def ordering_preserved(paths: np.ndarray) -> bool:
    """True if 1D trajectory ordering never changes between any two frames."""
    order0 = np.argsort(paths[0, :, 0], kind="stable")
    ranked = paths[:, order0, 0]
    return bool(np.all(np.diff(ranked, axis=1) >= 0.0))
