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

import functools
import math
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
    """The times dt j of the step numbers j in a range, each computed when it
    is read: an index gives a float, a slice the StepTimes of the sliced
    range, and np.asarray the array dt * j.  Nothing is held per step, and
    the times can only increase, in equal steps of dt * steps.step."""

    def __init__(self, dt: float, steps: range):
        if not (dt > 0 and math.isfinite(dt) and steps.step > 0):
            raise GridError(f"need a positive finite dt and an increasing range, got {dt}, {steps}")
        self.dt, self.steps = float(dt), steps

    def __len__(self) -> int:
        return len(self.steps)

    def __getitem__(self, i):
        j = self.steps[i]  # an int, or a range for a slice
        return StepTimes(self.dt, j) if isinstance(j, range) else self.dt * j

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        # the integers j first, then one product each: dt * (stride * k) for a stride
        return self.dt * np.arange(self.steps.start, self.steps.stop, self.steps.step)


@dataclass
class SnapshotSeries:
    """Time snapshots of a field on a grid, frames[j] at times[j], dt apart."""

    times: StepTimes
    frames: list  # ndarrays sharing one shape, or a read-only sequence of them
    grid: Grid

    def __post_init__(self):
        if not isinstance(self.times, StepTimes):
            raise GridError(f"times must be StepTimes, got {type(self.times).__name__}")
        if len(self.times) != len(self.frames):
            raise GridError("times and frames length mismatch")

    @property
    def dt(self) -> float:
        return self.times.dt * self.times.steps.step

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
    """Curl of a 3-component vector field, stored component-first.

    Only the six derivatives d_i v_j with i != j are formed; a term along an
    axis the grid does not have is the scalar 0.0, which gives the bits of a
    zero derivative.
    """
    def d(comp: int, ax: int):
        return deriv(v[..., comp], grid, ax) if ax < grid.dim else 0.0

    out = component_first(v.shape, grid.dim, np.result_type(v, float))
    for k, i, j in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        np.subtract(d(j, i), d(i, j), out=out[..., k])
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

    k1: tuple
    k2: tuple
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

    theta0: float
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
    """psi1 = R cos(theta/2) e^(i(phi + chi)/2), psi2 = i R sin(theta/2) e^(i(chi - phi)/2).

    The angles are affine in x and R is a product over axes, so
    cos(theta/2) + i sin(theta/2), both phase factors and R are outer
    products of one factor per axis, and no transcendental runs per grid
    point.  Axis 0 carries the constants and -omega_t t, in the per-point
    expressions, so on a line this is that formula bit for bit; in 2-D and
    3-D the products round differently, by a few ulp.
    """
    x = grid.coords(0)
    # axis 0 adds the constants to each angle's sum over axes from zero, as the per-point formula
    theta = d.theta0 + (0.0 + d.theta_k[0] * x)
    phi = d.phi0 + (0.0 + d.phi_k[0] * x)
    chi = d.chi0 + (0.0 + d.chi_k[0] * x) - d.omega_t * t
    cos, sin = np.cos(theta / 2.0), np.sin(theta / 2.0)
    turn, plus, minus, amp = [cos + 1j * sin], [], [], []
    for ax in range(grid.dim):
        if ax:
            x = grid.coords(ax)
            theta, phi, chi = d.theta_k[ax] * x, d.phi_k[ax] * x, d.chi_k[ax] * x
            turn.append(np.exp(1j * theta / 2.0))
        plus.append(np.exp(1j * (phi + chi) / 2.0))
        minus.append(np.exp(1j * (chi - phi) / 2.0))
        if d.sigma is not None:
            amp.append(np.exp(-((x - d.x0[ax]) ** 2) / (4.0 * d.sigma ** 2)))
    if grid.dim > 1:
        turn = _outer(turn)
        cos, sin = turn.real, turn.imag
    # without an envelope R enters as the scalar 1.0: 1 x and 1j 1 are exact
    R = _outer(amp) if amp else 1.0
    psi1 = R * cos * _outer(plus)
    psi2 = 1j * R * sin * _outer(minus)
    return np.stack([psi1, psi2], axis=-1)


def _outer(factors: list) -> np.ndarray:
    """The outer product over axes of one 1-D factor per axis, in axis order."""
    out = factors[0]
    for f in factors[1:]:
        out = out[..., None] * f
    return out


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
    write_csv(path, names, np.hstack(cols))


def write_csv(path, names: list, table: np.ndarray) -> None:
    """Write a header line of names, then one line per row of a 2-D table:
    each value as ``'%.17g' % value`` prints it, commas between values, CRLF
    line ends.  An integer-valued float below 10^17 in magnitude prints as
    ``%d`` prints it.

    The digits come from array arithmetic (``_format_block``), a block of
    rows at a time, so the text is never held whole.  Non-finite values,
    values whose decimal exponent exceeds 280 in magnitude and the rare
    value whose 17th digit lies too near a tie to be told apart go through
    ``%``, which is right for every value.
    """
    table = np.asarray(table, dtype=float)
    rows = max(1, _BLOCK_CELLS // table.shape[1])
    with open(path, "wb") as fh:
        fh.write((",".join(names) + "\r\n").encode())
        for r in range(0, len(table), rows):
            fh.write(_format_block(table[r:r + rows]))


_BLOCK_CELLS = 4096
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitting constant for 53-bit doubles
_MAX_EXP = 280  # decimal exponents past this go through %, clear of overflow in the split
# a cell's character slots: 0 the sign; 1-5 the "0.000" of fixed style
# below 1; 6 the leading digit and 7-22 digits 1-16; 23 a point and 24-39
# digits 1-16 again, for those after a point; 40-44 the exponent "e+XYZ";
# 45-46 "," or CRLF.  Runs of 16 slots are copied as one 16-byte item.
_SLOTS = np.frombuffer(b"-0.000" + b"0" * 17 + b"." + b"0" * 16 + b"e+000,\n", np.uint8)
_RUN = np.dtype((np.void, 16))


def _run(a: np.ndarray, start: int) -> np.ndarray:
    """Slots start..start + 15 of every cell of a (cells, slots) array, one 16-byte item a cell."""
    return a[:, start:start + 16].view(_RUN)[:, 0]


@functools.cache
def _text_tables():
    """The lookup tables of _format_block, built on first use.

    quads: the 4-digit groups '0000'..'9999', each a uint32 word of ASCII
    bytes.  last[j]: for the group in place j = 0..3 after the leading
    digit, the count of the 17 digits up to its last nonzero one (0 for
    '0000').  runs: 16-slot keep masks over digits 1-16, row n keeping the
    first n and row 17 + 18 p + n those i with p < i < n.
    """
    i = np.arange(10000)
    places = np.stack([i // 1000, i // 100 % 10, i // 10 % 10, i % 10], axis=1)
    quads = (places + ord("0")).astype(np.uint8).view(np.uint32)[:, 0]
    significant = ((places != 0) * np.arange(1, 5)).max(axis=1)
    last = [np.where(significant > 0, 1 + 4 * j + significant, 0).astype(np.int8) for j in range(4)]
    digit = np.arange(1, 17)
    first = digit <= np.arange(17)[:, None]
    p, n = np.divmod(np.arange(17 * 18), 18)
    between = (p[:, None] < digit) & (digit < n[:, None])
    runs = np.ascontiguousarray(np.concatenate([first, between])).view(_RUN)[:, 0]
    for table in (quads, *last, runs):
        table.flags.writeable = False
    return quads, last, runs


@functools.cache
def _pow10() -> np.ndarray:
    """10^k for k = 16 - X, |X| <= _MAX_EXP + 1, as double-doubles, built on
    first use from Python ints, whose true division rounds correctly: rows
    hi, correctly rounded, hi's two halves of Veltkamp's split, and lo,
    10^k - hi rounded (0.0 where 10^k is a double)."""
    hi, lo = [], []
    for k in range(15 - _MAX_EXP, 18 + _MAX_EXP):
        num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
        h = num / den
        a, b = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * b - a * den) / (den * b))
    hi, lo = np.array(hi), np.array(lo)
    c = _SPLIT * hi
    hi_hi = c - (c - hi)
    table = np.stack([hi, hi_hi, hi - hi_hi, lo])
    table.flags.writeable = False
    return table


def _digits(a: np.ndarray, X: np.ndarray):
    """d = q rounded half to even, as int64, for q = a 10^(16 - X), a >= 0,
    and decimal exponents X; where q < d; and where the rounding is unsure.

    hi a is the exact Dekker product p + e (Numer. Math. 18 (1971) 224),
    so when 10^(16 - X) is a double, lo = 0 and d is exact, ties included:
    p >= 10^16 > 2^53 is even.  Else lo a adds a term, and q - d is known
    to 2^-47 for q < 2^57: a fraction within 2^-30 of 1/2 is unsure.  Near
    d = 10^16 either answer to q < d prints the same: for q just below
    10^16, 10 q rounds to 10^17 at exponent X - 1, which %g prints as d at
    X; for q just above, X - 1 gives d >= 10^17, which _decimal leaves to %.
    """
    hi, hi_hi, hi_lo, lo = _pow10().take(_MAX_EXP + 1 - X, axis=1)  # k = 16 - X
    p = a * hi
    c = _SPLIT * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    e = ((a_hi * hi_hi - p) + a_hi * hi_lo + a_lo * hi_hi) + a_lo * hi_lo
    r = e + lo * a
    n = np.rint(r)
    d = p.astype(np.int64) + n.astype(np.int64)
    f = np.abs(r - n)
    unsure = (lo != 0.0) & (np.abs(f - 0.5) < 2.0 ** -30)
    return d, r < n, unsure


def _misplaced(d: np.ndarray, below: np.ndarray) -> np.ndarray:
    """Where q = a 10^(16 - X) is not in [10^16, 10^17), from _digits' d and q < d."""
    return (d < 10 ** 16) | ((d == 10 ** 16) & below) | (d >= 10 ** 17)


def _format_block(block: np.ndarray) -> np.ndarray:
    """The CSV text of the rows of a 2-D block, as write_csv writes it, as uint8."""
    v = block.ravel()
    d, X, by_percent = _decimal(v)
    text, n_sig = _characters(d, X)
    keep = _kept(v, X, n_sig)
    ends = (slice(None), -1)  # a row's last cell ends in CRLF, not ","
    text.reshape(block.shape + (-1,))[ends + (45,)] = ord("\r")
    keep.reshape(block.shape + (-1,))[ends + (46,)] = True
    for i in by_percent.tolist():
        cell = ("%.17g" % v[i]).encode()
        text[i, :len(cell)] = np.frombuffer(cell, np.uint8)
        keep[i, :45] = False
        keep[i, :len(cell)] = True
    return text.ravel()[keep.ravel()]


def _decimal(v: np.ndarray):
    """Each value's 17 digits d and decimal exponent X, |v| = d 10^(X - 16)
    rounded half to even (0 and 0 for zeros), and the cells left to %."""
    a = np.abs(v)
    finite = (a > 0.0) & (a < np.inf)  # NaN fails both
    X = np.floor(np.log10(np.where(finite, a, 1.0))).astype(np.intp)
    regular = finite & (np.abs(X) <= _MAX_EXP)
    X[~regular] = 0
    by_percent = ~regular & (a != 0.0)
    a = np.where(regular, a, 0.0)  # a cell printed by % reads as zero here
    d, below, unsure = _digits(a, X)
    # log10 can miss X by one next to a power of ten
    off = np.flatnonzero(regular & _misplaced(d, below))
    if len(off):
        X[off] += np.where(d[off] < 10 ** 16 + 1, -1, 1)
        d[off], below[off], unsure[off] = _digits(a[off], X[off])
        unsure[off] |= _misplaced(d[off], below[off]) | (np.abs(X[off]) > _MAX_EXP)
    return d, X, np.flatnonzero(by_percent | unsure)


def _characters(d: np.ndarray, X: np.ndarray):
    """Every cell's slots filled in, (cells, slots) uint8, and the count of
    its digits up to the last nonzero one (0 for d = 0)."""
    quads, last, _ = _text_tables()
    lead = d // 10 ** 16
    rest = d - lead * 10 ** 16
    high = rest // 10 ** 8
    low = rest - high * 10 ** 8
    groups = np.empty((len(d), 4), np.int32)  # the four groups of four after the leading digit
    groups[:, 0], groups[:, 1] = np.divmod(high, 10000)
    groups[:, 2], groups[:, 3] = np.divmod(low, 10000)
    text = np.tile(_SLOTS, (len(d), 1))
    text[:, 6] += lead.astype(np.uint8)
    _run(text, 7)[:] = _run(quads.take(groups).view(np.uint8), 0)
    _run(text, 24)[:] = _run(text, 7)
    text[:, 41:45].view(np.uint32)[:, 0] = quads[np.abs(X)]
    text[:, 41] = np.where(X < 0, ord("-"), ord("+"))
    n_sig = (lead != 0).astype(np.int8)
    for j in range(4):
        np.maximum(n_sig, last[j].take(groups[:, j]), out=n_sig)
    return text, n_sig


def _kept(v: np.ndarray, X: np.ndarray, n_sig: np.ndarray) -> np.ndarray:
    """Which slots of each cell %g prints, (cells, slots) bool, each cell ending in ","."""
    runs = _text_tables()[2]
    keep = np.empty((len(v), len(_SLOTS)), bool)
    keep[:, 0] = np.signbit(v)
    fixed = (X >= -4) & (X < 17)  # %g's fixed style, else its exponent style
    small = fixed & (X < 0)
    keep[:, 1] = keep[:, 2] = small
    keep[:, 3], keep[:, 4], keep[:, 5] = small & (X <= -2), small & (X <= -3), small & (X == -4)
    keep[:, 6] = True
    # below 1 every digit follows the prefix; else a point follows digit X or 0
    point = np.where(fixed, X, 0)
    _run(keep, 7)[:] = runs.take(np.where(small, n_sig - 1, point))
    keep[:, 23] = (n_sig > point + 1) & ~small
    _run(keep, 24)[:] = runs.take(np.where(small, 0, 17 + 18 * point + n_sig))
    expo = ~fixed
    keep[:, 40] = keep[:, 41] = keep[:, 43] = keep[:, 44] = expo
    keep[:, 42] = expo & (np.abs(X) >= 100)
    keep[:, 45] = True
    keep[:, 46] = False
    return keep
