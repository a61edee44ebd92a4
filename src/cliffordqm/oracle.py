"""Independent standard-formalism oracle.

Everything here is computed with ordinary complex/matrix arithmetic (Pauli
matrices, column spinors, its own central differences) and never routes
through the Clifford arithmetic or the ``grids`` stencils, so agreement
between the two sides is a genuine check.  Its vector fields keep the shape
grid.shape + (3,) and are stored component-first, as the algebraic side's
are, so a comparison of the two reads each component as one block.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .algebra import Multivector, Signature

SIGMA = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)
IDENTITY2 = np.eye(2, dtype=complex)


@lru_cache(maxsize=None)
def _blade_matrices(sig: Signature) -> np.ndarray:
    """Representation of each blade, stacked in blade order: (dim, 2, 2), or
    (2,) for Cl(0,1); read-only, one per signature."""
    if (sig.p, sig.q) == (0, 1):
        mats = np.array([1.0 + 0j, 1j])
    else:
        mats = []
        for blade in ((), (1,), (2,), (3,), (2, 3), (1, 3), (1, 2), (1, 2, 3)):
            m = IDENTITY2
            for idx in blade:
                m = m @ SIGMA[idx - 1]
            mats.append(m)
        mats = np.array(mats)
    mats.flags.writeable = False
    return mats


def matrix_rep(a: Multivector):
    """Algebra homomorphism into C (for Cl(0,1)) or 2x2 complex matrices."""
    mats = _blade_matrices(a.signature)
    # np.add.reduce is what ndarray.sum runs, without its Python layer
    if mats.ndim == 1:
        return complex(np.add.reduce(a.coeffs * mats))
    return np.add.reduce(a.coeffs[:, None, None] * mats)


def rep_trace(m) -> complex:
    """Trace in the representation (the number itself for Cl(0,1))."""
    if np.isscalar(m) or np.asarray(m).ndim == 0:
        return complex(m)
    return complex(np.trace(m))


def density_matrix(psi1: complex, psi2: complex) -> np.ndarray:
    """Outer product Psi Psi^dagger."""
    col = np.array([psi1, psi2], dtype=complex)
    return col[:, None] * col.conjugate()


# ---------------------------------------------------------------------------
# field-level densities (standard wavefunction formalism)

def _grad(values: np.ndarray, grid) -> list[np.ndarray]:
    """Per-axis derivative, second order (``_deriv`` along each axis)."""
    return [_deriv(values, grid, ax) for ax in range(grid.dim)]


def _deriv(values: np.ndarray, grid, ax: int) -> np.ndarray:
    """Derivative along one axis, second order: a central difference that
    wraps on periodic grids, np.gradient with one-sided edges on clamped ones."""
    h = grid.spacing[ax]
    if grid.boundary != "periodic":
        return np.gradient(values, h, axis=ax, edge_order=2)
    d = np.empty(values.shape, np.result_type(values, float))
    v, dv = np.moveaxis(values, ax, 0), np.moveaxis(d, ax, 0)
    # f[i+1] - f[i-1] from slices, the wrap rows by hand: no rolled copies
    np.subtract(v[2:], v[:-2], out=dv[1:-1])
    dv[0] = v[1] - v[-1]
    dv[-1] = v[0] - v[-2]
    d /= 2.0 * h
    return d


def momentum_density(psi, grid) -> np.ndarray:
    """T^0j = Im(psi^* d_j psi), summed over spinor components.

    psi: complex array of shape grid.shape (Schrodinger) or grid.shape+(2,).
    Returns shape grid.shape + (3,), unused axes zero, stored component-first.
    """
    psi = np.asarray(psi, dtype=complex)
    components = [psi] if psi.shape == grid.shape else [psi[..., 0], psi[..., 1]]
    out = np.zeros((3,) + grid.shape)
    for comp in components:
        for ax, d in enumerate(_grad(comp, grid)):
            out[ax] += (comp.conjugate() * d).imag
    return np.moveaxis(out, 0, -1)


def energy_density(frames, dt: float) -> np.ndarray:
    """T^00 = -Im(psi^* d_t psi) via the central stencil on three frames.

    frames: (prev, cur, next) complex arrays; summed over spinor components.
    """
    prev, cur, nxt = (np.asarray(f, dtype=complex) for f in frames)
    dpsi_dt = (nxt - prev) / (2.0 * dt)
    per_comp = -(cur.conjugate() * dpsi_dt).imag
    if per_comp.ndim and prev.shape[-1] == 2 and per_comp.shape[-1] == 2:
        # a reduction, not per_comp[..., 0] + per_comp[..., 1]: a per-component
        # value can be -0.0, and the reduction turns (-0.0, -0.0) into +0.0
        return per_comp.sum(axis=-1)
    return per_comp


def probability_density(psi) -> np.ndarray:
    """|psi|^2, summed over spinor components as one add: a trailing-axis
    reduction of length 2 costs some 20 times as much, for the same bits."""
    psi = np.asarray(psi, dtype=complex)
    dens = np.abs(psi) ** 2
    if psi.ndim and psi.shape[-1] == 2:
        return dens[..., 0] + dens[..., 1]
    return dens


def spin_direction(psi) -> np.ndarray:
    """Unit spin direction a = (Psi^dagger sigma Psi) / (Psi^dagger Psi),
    stored component-first."""
    psi = np.asarray(psi, dtype=complex)
    p1, p2 = psi[..., 0], psi[..., 1]
    n1, n2, cross = np.abs(p1) ** 2, np.abs(p2) ** 2, p1 * p2.conjugate()
    norm = n1 + n2
    safe = np.where(norm > 0.0, norm, 1.0)
    return np.moveaxis(np.stack([2.0 * cross.real, -2.0 * cross.imag, n1 - n2]) / safe, 0, -1)


def messiah_current(psi, grid, m: float) -> np.ndarray:
    """Total Pauli current: m J = Im(Psi^dagger grad Psi) + curl(rho s).

    The spin vector s has magnitude 1/2, so rho*s = rho*a/2 with a the unit
    direction.  Returns J (already divided by m), shape grid.shape + (3,).
    """
    psi = np.asarray(psi, dtype=complex)
    conv = momentum_density(psi, grid)
    rho = probability_density(psi)
    s = 0.5 * rho[..., None] * spin_direction(psi)
    rot = _curl(s, grid)
    return (conv + rot) / m


def _curl(v: np.ndarray, grid) -> np.ndarray:
    """curl of a (..., 3) field, stored component-first, from the six
    derivatives d_ax v_comp with ax != comp that it reads; a term along an
    axis the grid does not have is the scalar 0.0."""
    def d(comp: int, ax: int):
        return _deriv(v[..., comp], grid, ax) if ax < grid.dim else 0.0

    out = np.zeros((3,) + grid.shape)
    out[0] = d(2, 1) - d(1, 2)
    out[1] = d(0, 2) - d(2, 0)
    out[2] = d(1, 0) - d(0, 1)
    return np.moveaxis(out, 0, -1)
