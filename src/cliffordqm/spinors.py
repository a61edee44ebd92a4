"""Minimal-left-ideal spinors and Clifford density elements.

A spinor is stored in polar-split form: amplitude R, a unit even element U,
and the primitive idempotent (1 for Cl(0,1), (1+e3)/2 for Cl(3,0)).  The
same state can be read out as a column spinor (complex components) or, for
Cl(3,0), as Euler angles; both maps are exact round trips away from the
degenerate points.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .algebra import (
    DEFAULT_TOL,
    PAULI,
    SCHRODINGER,
    Multivector,
    Signature,
    central_unit,
    gp_coeffs,
    idempotent,
)

# index of each even-blade coefficient in the canonical Cl(3,0) layout
_G_SLOTS_PAULI = (0, 4, 5, 6)  # 1, e23, e13, e12


class UnsupportedAlgebraError(ValueError):
    """Raised when an operation needs the other algebra (e.g. spin in Cl(0,1))."""


def _unit_even(sig: Signature, g: np.ndarray) -> Multivector:
    c = np.zeros(sig.dim)
    if (sig.p, sig.q) == (0, 1):
        c[0], c[1] = g[0], g[1]
    else:
        for slot, gi in zip(_G_SLOTS_PAULI, g):
            c[slot] = gi
    return Multivector(sig, c)


def even_coeffs(U: Multivector) -> np.ndarray:
    """Extract the g-coefficients of an even element (g0[,g1,g2,g3])."""
    if (U.signature.p, U.signature.q) == (0, 1):
        return np.array([U.coeffs[0], U.coeffs[1]])
    return U.coeffs[list(_G_SLOTS_PAULI)].copy()


@dataclass(frozen=True)
class IdealSpinor:
    """Phi_L = R * U * epsilon with U a unit even element."""

    signature: Signature
    R: float
    U: Multivector
    epsilon: Multivector
    degenerate: bool = False

    def __post_init__(self):
        if self.R < 0:
            raise ValueError("amplitude R must be non-negative")

    @property
    def g(self) -> np.ndarray:
        return even_coeffs(self.U)

    def element(self) -> Multivector:
        """The full algebra element R * U * epsilon."""
        return self.R * (self.U * self.epsilon)


@dataclass(frozen=True)
class CliffordDensityElement:
    """rho_c = Phi_L * ~Phi_L; rho is the probability density R^2."""

    signature: Signature
    rho: float
    body: Multivector


@dataclass(frozen=True)
class EulerAngles:
    """Half-angle parametrization (theta, phi, chi); chi is the overall phase."""

    theta: float
    phi: float
    chi: float
    R: float = 1.0


# ---------------------------------------------------------------------------
# constructors

def from_wavefunction(psi: complex) -> IdealSpinor:
    """Cl(0,1) spinor from an ordinary complex wavefunction value."""
    sig = SCHRODINGER
    R = abs(psi)
    if R == 0.0:
        return IdealSpinor(sig, 0.0, Multivector.scalar(sig, 1.0), idempotent(sig), degenerate=True)
    g = np.array([psi.real / R, psi.imag / R])
    return IdealSpinor(sig, R, _unit_even(sig, g), idempotent(sig))


def from_components(psi1: complex, psi2: complex) -> IdealSpinor:
    """Cl(3,0) spinor from the two complex Pauli components."""
    sig = PAULI
    R = math.hypot(abs(psi1), abs(psi2))
    if R == 0.0:
        return IdealSpinor(sig, 0.0, Multivector.scalar(sig, 1.0), idempotent(sig), degenerate=True)
    # g0 = Re psi1, g3 = Im psi1, g2 = Re psi2, g1 = Im psi2 (unit-R convention);
    # signs fixed by requiring rep(Phi_L) to carry (psi1, psi2) in its first column.
    g = np.array([psi1.real, psi2.imag, psi2.real, psi1.imag]) / R
    return IdealSpinor(sig, R, _unit_even(sig, g), idempotent(sig))


def to_wavefunction(phi: IdealSpinor) -> complex:
    if phi.signature != SCHRODINGER:
        raise UnsupportedAlgebraError("to_wavefunction needs a Cl(0,1) spinor")
    g = phi.g
    return phi.R * complex(g[0], g[1])


def to_components(phi: IdealSpinor) -> tuple[complex, complex]:
    if phi.signature != PAULI:
        raise UnsupportedAlgebraError("to_components needs a Cl(3,0) spinor")
    g0, g1, g2, g3 = phi.g
    return phi.R * complex(g0, g3), phi.R * complex(g2, g1)


def from_euler(angles: EulerAngles) -> IdealSpinor:
    """Cl(3,0) spinor from Euler angles via the half-angle column."""
    half_t = angles.theta / 2.0
    psi1 = math.cos(half_t) * cmath.exp(1j * (angles.phi + angles.chi) / 2.0)
    psi2 = 1j * math.sin(half_t) * cmath.exp(1j * (angles.chi - angles.phi) / 2.0)
    return from_components(angles.R * psi1, angles.R * psi2)


def to_euler(phi: IdealSpinor) -> EulerAngles:
    """Invert from_euler; at the poles (theta in {0, pi}) the gauge phi=0 is returned."""
    psi1, psi2 = to_components(phi)
    R = phi.R
    if R == 0.0:
        return EulerAngles(0.0, 0.0, 0.0, 0.0)
    c = abs(psi1) / R
    s = abs(psi2) / R
    theta = 2.0 * math.atan2(s, c)
    if s < 1e-15 or c < 1e-15:
        # pole: only the total phase is identifiable
        if c >= s:
            chi = 2.0 * cmath.phase(psi1) if c > 0 else 0.0
        else:
            chi = 2.0 * cmath.phase(psi2 / 1j) if s > 0 else 0.0
        chi = _wrap_angle(chi)
        return EulerAngles(_clip_theta(theta), 0.0, chi, R)
    a1 = cmath.phase(psi1)  # (phi + chi)/2
    a2 = cmath.phase(psi2 / 1j)  # (chi - phi)/2
    phi_angle = _wrap_angle(a1 - a2)
    chi = a1 + a2
    if phi_angle != a1 - a2:
        # wrapping phi by 2 pi shifts chi by the same amount mod 4 pi
        chi += phi_angle - (a1 - a2)
    return EulerAngles(_clip_theta(theta), phi_angle, _wrap_chi(chi), R)


def _wrap_angle(a: float) -> float:
    w = math.fmod(a + math.pi, 2.0 * math.pi)
    if w <= 0.0:
        w += 2.0 * math.pi
    return w - math.pi


def _wrap_chi(a: float) -> float:
    """The overall phase chi is a half-angle: it lives mod 4 pi, not 2 pi."""
    w = math.fmod(a + 2.0 * math.pi, 4.0 * math.pi)
    if w <= 0.0:
        w += 4.0 * math.pi
    return w - 2.0 * math.pi


def _clip_theta(t: float) -> float:
    return min(max(t, 0.0), math.pi)


# ---------------------------------------------------------------------------
# state descriptors

def spinor_conjugate(phi: IdealSpinor) -> Multivector:
    """The right-ideal dual R * epsilon * ~U.

    The idempotent is self-conjugate under reversion; only the even part U
    picks up the conjugation, on which Clifford conjugation and reversion
    coincide.
    """
    return phi.R * (phi.epsilon * phi.U.conjugate())


def cde(phi: IdealSpinor) -> CliffordDensityElement:
    """Clifford density element rho_c = Phi_L * ~Phi_L = rho * U * epsilon * ~U."""
    body = phi.element() * spinor_conjugate(phi)
    return CliffordDensityElement(phi.signature, phi.R ** 2, body)


def spin_vector(phi: IdealSpinor) -> tuple[np.ndarray, Multivector]:
    """Unit spin direction a and the spin vector s = U e3 ~U / 2 (Cl(3,0) only)."""
    if phi.signature != PAULI:
        raise UnsupportedAlgebraError("spin_vector needs a Cl(3,0) spinor")
    e3 = Multivector.blade(PAULI, "e3")
    rotated = phi.U * e3 * phi.U.conjugate()
    a = rotated.grade(1).coeffs[1:4].copy()
    return a, rotated / 2.0


def spin_vector_from_g(g: np.ndarray) -> np.ndarray:
    """Closed form for the unit spin direction in terms of the g-coefficients.

    Equivalent to the grade-1 part of U e3 ~U; the quaternion-rotation
    identity gives
        a1 = 2(g1 g3 + g0 g2)
        a2 = 2(g0 g1 - g2 g3)
        a3 = g0^2 - g1^2 - g2^2 + g3^2
    """
    g0, g1, g2, g3 = g
    return np.array([
        2.0 * (g1 * g3 + g0 * g2),
        2.0 * (g0 * g1 - g2 * g3),
        g0 * g0 - g1 * g1 - g2 * g2 + g3 * g3,
    ])


def spin_vector_from_components(psi1: complex, psi2: complex) -> np.ndarray:
    """Standard column-spinor form of the unit spin direction."""
    norm = abs(psi1) ** 2 + abs(psi2) ** 2
    a1 = (psi1 * psi2.conjugate() + psi2 * psi1.conjugate()).real
    a2 = (1j * (psi1 * psi2.conjugate() - psi2 * psi1.conjugate())).real
    a3 = abs(psi1) ** 2 - abs(psi2) ** 2
    return np.array([a1, a2, a3]) / norm


def phase_rotate(phi: IdealSpinor, lam: float) -> IdealSpinor:
    """Right-multiply by the phase generator: exp(e*lam) or exp(e12*lam)."""
    sig = phi.signature
    if (sig.p, sig.q) == (0, 1):
        gen = Multivector.blade(sig, "e")
    else:
        gen = Multivector.blade(sig, "e12")
    rot = math.cos(lam) * Multivector.scalar(sig, 1.0) + math.sin(lam) * gen
    return IdealSpinor(sig, phi.R, phi.U * rot, phi.epsilon, phi.degenerate)


def unit_defect(phi: IdealSpinor) -> float:
    """Max-norm deviation of U ~U from 1."""
    one = Multivector.scalar(phi.signature, 1.0)
    return (phi.U * phi.U.conjugate() - one).norm_inf()


def check_spinor(phi: IdealSpinor, tol: float = DEFAULT_TOL) -> None:
    if not phi.degenerate and unit_defect(phi) > tol:
        raise ValueError("U is not unit-normalized")


# ---------------------------------------------------------------------------
# vectorized g-coefficient maps for whole grids

def g_from_components(psi1: np.ndarray, psi2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map arrays of Pauli components to (R, g) with g normalized pointwise.

    Zero points get g = (1,0,0,0); callers mask them through the node mask.
    """
    R = np.sqrt(np.abs(psi1) ** 2 + np.abs(psi2) ** 2)
    safe = np.where(R > 0.0, R, 1.0)
    g = np.stack([psi1.real, psi2.imag, psi2.real, psi1.imag], axis=-1) / safe[..., None]
    g[R == 0.0] = (1.0, 0.0, 0.0, 0.0)
    return R, g


def components_from_g(R: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    psi1 = R * (g[..., 0] + 1j * g[..., 3])
    psi2 = R * (g[..., 2] + 1j * g[..., 1])
    return psi1, psi2


def g_from_wavefunction(psi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map a complex Cl(0,1) field to (R, g) with g normalized pointwise."""
    R = np.abs(psi)
    safe = np.where(R > 0.0, R, 1.0)
    g = np.stack([psi.real, psi.imag], axis=-1) / safe[..., None]
    g[R == 0.0] = (1.0, 0.0)
    return R, g


def spin_field_from_g(g: np.ndarray) -> np.ndarray:
    """Unit spin direction field a(x) from a g-coefficient field."""
    g0, g1, g2, g3 = (g[..., i] for i in range(4))
    return np.stack([
        2.0 * (g1 * g3 + g0 * g2),
        2.0 * (g0 * g1 - g2 * g3),
        g0 * g0 - g1 * g1 - g2 * g2 + g3 * g3,
    ], axis=-1)


def even_field_coeffs(sig: Signature, g: np.ndarray) -> np.ndarray:
    """Embed a g-coefficient field into full multivector coefficient arrays."""
    out = np.zeros(g.shape[:-1] + (sig.dim,))
    if (sig.p, sig.q) == (0, 1):
        out[..., 0] = g[..., 0]
        out[..., 1] = g[..., 1]
    else:
        for slot, k in zip(_G_SLOTS_PAULI, range(4)):
            out[..., slot] = g[..., k]
    return out


def pseudoscalar_times(sig: Signature, coeffs: np.ndarray) -> np.ndarray:
    """Left-multiply a coefficient field by the central unit (e or e123)."""
    return gp_coeffs(sig, central_unit(sig).coeffs, coeffs)
