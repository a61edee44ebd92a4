"""Minimal-left-ideal spinors and Clifford density elements.

A spinor is stored in polar-split form: amplitude R, a unit even element U,
and the primitive idempotent (1 for Cl(0,1), (1+e3)/2 for Cl(3,0)).  The
same state can be read out as a column spinor (complex components) or, for
Cl(3,0), as Euler angles; both maps are exact round trips away from the
degenerate points.

U is kept through its g-coefficients, which are the subalgebra layout of
``algebra``; ``algebra._G_SLOTS`` is the one table of their blade slots.
The field maps below produce g and the spin direction stored component-first
(see ``grids``), and the observables compute in that layout directly.  A
single point is the zero-dimensional field, shape (n_g,): the constructors
embed U into the full layout with ``even_field_coeffs``.  They keep their own
normalisation (``math.hypot`` on Python complex numbers): for one point it is
faster than ``g_from_components``/``g_from_wavefunction``, and it stays exact
where the field's sqrt(|psi1|^2 + |psi2|^2) loses precision (|psi| below
about 1e-154) and underflows to 0 (below about 1e-162).

``from_components`` and ``from_wavefunction`` (and ``from_euler``, through
``from_components``) take ownership of the coefficient array they have just
built for U (``algebra._owned``): it becomes read-only and is not copied.
Every other element here is a ``Multivector`` operator result, which owns
its array in the same way.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .algebra import (
    _G_SLOTS,
    PAULI,
    SCHRODINGER,
    Multivector,
    Signature,
    _owned,
    idempotent,
)
from .grids import component_first

# the generator of the ideal's phase rotations, exp(gamma lam) acting on the right
_PHASE_GENERATOR = {SCHRODINGER: "e", PAULI: "e12"}


class UnsupportedAlgebraError(ValueError):
    """Raised when an operation needs the other algebra (e.g. spin in Cl(0,1))."""


def phase_generator(sig: Signature) -> Multivector:
    """The ideal's phase generator gamma: e for Cl(0,1), e12 for Cl(3,0)."""
    return Multivector.blade(sig, _PHASE_GENERATOR[sig])


@dataclass(frozen=True)
class IdealSpinor:
    """Phi_L = R * U * epsilon with U a unit even element (U = 1 where R = 0)."""

    R: float
    U: Multivector

    def __post_init__(self):
        if self.R < 0:
            raise ValueError("amplitude R must be non-negative")

    @property
    def signature(self) -> Signature:
        return self.U.signature

    @property
    def epsilon(self) -> Multivector:
        return idempotent(self.signature)

    @property
    def degenerate(self) -> bool:
        return self.R == 0.0

    @property
    def g(self) -> np.ndarray:
        """The g-coefficients of U (g0[,g1,g2,g3])."""
        return self.U.coeffs[_G_SLOTS[self.signature]]

    def element(self) -> Multivector:
        """The full algebra element R * U * epsilon."""
        return self.R * (self.U * self.epsilon)


@dataclass(frozen=True)
class CliffordDensityElement:
    """rho_c = Phi_L * ~Phi_L; rho is the probability density R^2."""

    rho: float
    body: Multivector

    @property
    def signature(self) -> Signature:
        return self.body.signature


@dataclass(frozen=True)
class EulerAngles:
    """Half-angle parametrization (theta, phi, chi); chi is the overall phase."""

    theta: float
    phi: float
    chi: float
    R: float = 1.0


# ---------------------------------------------------------------------------
# constructors

def _polar(sig: Signature, R: float, g) -> IdealSpinor:
    """R U epsilon, U embedded from the g-coefficients g of R U (zero R: U = 1)."""
    if R == 0.0:
        return IdealSpinor(0.0, Multivector.scalar(sig, 1.0))
    return IdealSpinor(R, _owned(sig, even_field_coeffs(sig, np.array(g) / R)))


def from_wavefunction(psi: complex) -> IdealSpinor:
    """Cl(0,1) spinor from an ordinary complex wavefunction value."""
    return _polar(SCHRODINGER, abs(psi), (psi.real, psi.imag))


def from_components(psi1: complex, psi2: complex) -> IdealSpinor:
    """Cl(3,0) spinor from the two complex Pauli components."""
    # g0 = Re psi1, g3 = Im psi1, g2 = Re psi2, g1 = Im psi2 (unit-R convention);
    # signs fixed by requiring rep(Phi_L) to carry (psi1, psi2) in its first column.
    return _polar(PAULI, math.hypot(abs(psi1), abs(psi2)),
                  (psi1.real, psi2.imag, psi2.real, psi1.imag))


def to_wavefunction(phi: IdealSpinor) -> complex:
    if phi.signature is not SCHRODINGER and phi.signature != SCHRODINGER:
        raise UnsupportedAlgebraError("to_wavefunction needs a Cl(0,1) spinor")
    g0, g1 = phi.g.tolist()
    return phi.R * complex(g0, g1)


def to_components(phi: IdealSpinor) -> tuple[complex, complex]:
    if phi.signature is not PAULI and phi.signature != PAULI:
        raise UnsupportedAlgebraError("to_components needs a Cl(3,0) spinor")
    g0, g1, g2, g3 = phi.g.tolist()
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
    theta = 2.0 * math.atan2(s, c)  # in [0, pi]: s, c >= 0
    if s < 1e-15 or c < 1e-15:
        # pole: only the total phase is identifiable
        if c >= s:
            chi = 2.0 * cmath.phase(psi1) if c > 0 else 0.0
        else:
            chi = 2.0 * cmath.phase(psi2 / 1j) if s > 0 else 0.0
        return EulerAngles(theta, 0.0, _wrap_angle(chi, 4.0 * math.pi), R)
    a1 = cmath.phase(psi1)  # (phi + chi)/2
    a2 = cmath.phase(psi2 / 1j)  # (chi - phi)/2
    phi_angle = _wrap_angle(a1 - a2, 2.0 * math.pi)
    chi = a1 + a2
    if phi_angle != a1 - a2:
        # wrapping phi by 2 pi shifts chi by the same amount mod 4 pi
        chi += phi_angle - (a1 - a2)
    return EulerAngles(theta, phi_angle, _wrap_angle(chi, 4.0 * math.pi), R)


def _wrap_angle(a: float, period: float) -> float:
    """a into (-period/2, period/2]; the overall phase chi is a half-angle, of period 4 pi."""
    w = math.fmod(a + period / 2.0, period)
    if w <= 0.0:
        w += period
    return w - period / 2.0


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
    return CliffordDensityElement(phi.R ** 2, body)


def spin_vector(phi: IdealSpinor) -> tuple[np.ndarray, Multivector]:
    """Unit spin direction a and the spin vector s = U e3 ~U / 2 (Cl(3,0) only)."""
    if phi.signature is not PAULI and phi.signature != PAULI:
        raise UnsupportedAlgebraError("spin_vector needs a Cl(3,0) spinor")
    e3 = Multivector.blade(PAULI, "e3")
    rotated = phi.U * e3 * phi.U.conjugate()
    a = rotated.grade(1).coeffs[1:4].copy()
    return a, rotated / 2.0


def phase_rotate(phi: IdealSpinor, lam: float) -> IdealSpinor:
    """Right-multiply by the phase generator: exp(e*lam) or exp(e12*lam)."""
    sig = phi.signature
    gen = phase_generator(sig)
    rot = math.cos(lam) * Multivector.scalar(sig, 1.0) + math.sin(lam) * gen
    return IdealSpinor(phi.R, phi.U * rot)


# ---------------------------------------------------------------------------
# vectorized g-coefficient maps for whole grids

def g_from_components(psi1: np.ndarray, psi2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map arrays of Pauli components to (R, g) with g normalized pointwise.

    Zero points get g = (1,0,0,0); callers mask them through the node mask.
    """
    R = np.sqrt(np.abs(psi1) ** 2 + np.abs(psi2) ** 2)
    return R, _unit_g(R, [psi1.real, psi2.imag, psi2.real, psi1.imag])


def components_from_g(R: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    psi1 = R * (g[..., 0] + 1j * g[..., 3])
    psi2 = R * (g[..., 2] + 1j * g[..., 1])
    return psi1, psi2


def g_from_wavefunction(psi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map a complex Cl(0,1) field to (R, g) with g normalized pointwise."""
    R = np.abs(psi)
    return R, _unit_g(R, [psi.real, psi.imag])


def _unit_g(R: np.ndarray, parts: list) -> np.ndarray:
    """The g-coefficients of R U (parts) over R, U = 1 where R = 0.  Each map
    keeps its own R: np.abs and the sqrt of the summed squares differ in the last ulp."""
    safe = np.where(R > 0.0, R, 1.0)
    g = component_first(R.shape + (len(parts),), R.ndim)
    for i, part in enumerate(parts):
        np.divide(part, safe, out=g[..., i])
    g[R == 0.0] = np.eye(len(parts))[0]
    return g


def spin_field_from_g(g: np.ndarray) -> np.ndarray:
    """Unit spin direction field a(x) from a g-coefficient field.

    Equivalent to the grade-1 part of U e3 ~U; the quaternion-rotation
    identity gives
        a1 = 2(g1 g3 + g0 g2)
        a2 = 2(g0 g1 - g2 g3)
        a3 = g0^2 - g1^2 - g2^2 + g3^2
    """
    g0, g1, g2, g3 = (g[..., i] for i in range(4))
    return np.moveaxis(np.stack([
        2.0 * (g1 * g3 + g0 * g2),
        2.0 * (g0 * g1 - g2 * g3),
        g0 * g0 - g1 * g1 - g2 * g2 + g3 * g3,
    ]), 0, -1)


def even_field_coeffs(sig: Signature, g: np.ndarray) -> np.ndarray:
    """Embed a g-coefficient field into full multivector coefficient arrays."""
    out = np.zeros(g.shape[:-1] + (sig.dim,))
    out[..., _G_SLOTS[sig]] = g
    return out
