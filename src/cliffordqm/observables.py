"""Bilinear invariants and Bohm-theoretic fields.

Every quantity here is computed on the algebraic side (g-coefficients,
geometric products, the Omega fields), with alternative standard-formalism
routes provided where the theory gives more than one expression for the
same field (weighted means, Euler-angle forms).  The oracle module holds
the fully independent wavefunction versions used for cross checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .algebra import (
    PAULI,
    SCHRODINGER,
    Multivector,
    Signature,
    _signed_permutation,
    algebra_trace,
    central_unit,
    conj_coeffs,
    gp_coeffs,
)
from .grids import (
    Grid,
    SnapshotSeries,
    curl,
    deriv,
    divergence,
    gradient,
    laplacian,
    node_mask,
    time_derivative,
)
from .spinors import (
    CliffordDensityElement,
    UnsupportedAlgebraError,
    even_field_coeffs,
    g_from_components,
    g_from_wavefunction,
    pseudoscalar_times,
    spin_field_from_g,
)

POLE_EPS = 1e-10


@dataclass(eq=False)
class SpinorField:
    """A sampled spinor state: complex psi of shape grid.shape (Schrodinger)
    or grid.shape + (2,) (Pauli)."""

    grid: Grid
    psi: np.ndarray

    def __post_init__(self):
        self.psi = np.asarray(self.psi, dtype=complex)
        if self.psi.shape == self.grid.shape:
            self.signature = SCHRODINGER
        elif self.psi.shape == self.grid.shape + (2,):
            self.signature = PAULI
        else:
            raise ValueError(f"psi shape {self.psi.shape} does not fit grid {self.grid.shape}")

    @property
    def is_pauli(self) -> bool:
        return self.signature == PAULI

    @cached_property
    def rho(self) -> np.ndarray:
        dens = np.abs(self.psi) ** 2
        return dens.sum(axis=-1) if self.is_pauli else dens

    @cached_property
    def R(self) -> np.ndarray:
        return np.sqrt(self.rho)

    @cached_property
    def mask(self) -> np.ndarray:
        return node_mask(self.rho)

    @cached_property
    def g(self) -> np.ndarray:
        if self.is_pauli:
            return g_from_components(self.psi[..., 0], self.psi[..., 1])[1]
        return g_from_wavefunction(self.psi)[1]

    @cached_property
    def u_coeffs(self) -> np.ndarray:
        return even_field_coeffs(self.signature, self.g)

    @cached_property
    def spin(self) -> np.ndarray:
        """Spin vector field s (magnitude 1/2), Pauli only."""
        if not self.is_pauli:
            raise UnsupportedAlgebraError("spin needs a Pauli field")
        return 0.5 * spin_field_from_g(self.g)

    @cached_property
    def spin_direction(self) -> np.ndarray:
        """Unit spin direction a, Pauli only."""
        return 2.0 * self.spin

    @cached_property
    def spin_bivector_coeffs(self) -> np.ndarray:
        """S = i s as full multivector coefficient arrays."""
        v = np.zeros(self.grid.shape + (8,))
        v[..., 1:4] = self.spin
        return pseudoscalar_times(PAULI, v)


def state_at(series: SnapshotSeries, k: int) -> SpinorField:
    return SpinorField(series.grid, series.frames[k])


def _time_diff(series: SnapshotSeries, k: int, quantity) -> np.ndarray:
    """Central time difference at frame k of quantity(SpinorField).

    Only frames k-1 and k+1 become SpinorFields; time_derivative rejects a
    boundary k and takes dt from series.dt, as it would for the whole
    derived series.
    """
    derived = [None] * len(series)
    for j in (k - 1, k + 1):
        if 0 <= j < len(series):
            derived[j] = quantity(state_at(series, j))
    return time_derivative(SnapshotSeries(series.times, derived, series.grid), k)


def masked_divide(num: np.ndarray, den: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """num / den where mask holds, zero elsewhere.

    den and mask have the grid shape; num may carry trailing value axes.
    """
    safe = np.where(mask, den, 1.0)
    out = num / safe.reshape(safe.shape + (1,) * (num.ndim - safe.ndim))
    out[~mask] = 0.0
    return out


# ---------------------------------------------------------------------------
# Omega fields

@dataclass
class OmegaField:
    """Omega^j = 2 (d_j U) ~U per axis; Omega_t when a time stencil exists."""

    spatial: list  # per grid axis, coeff arrays of shape grid.shape + (dim,)
    temporal: np.ndarray = None


def omega_fields(state: SpinorField, series: SnapshotSeries = None, k: int = None) -> OmegaField:
    sig = state.signature
    u = state.u_coeffs
    u_conj = conj_coeffs(sig, u)
    spatial = []
    for ax in range(state.grid.dim):
        du = deriv(u, state.grid, ax)
        spatial.append(2.0 * gp_coeffs(sig, du, u_conj))
    temporal = None
    if series is not None:
        if k is None:
            raise ValueError("omega_fields needs the frame index k with a series")
        du_dt = _time_diff(series, k, lambda st: st.u_coeffs)
        temporal = 2.0 * gp_coeffs(sig, du_dt, u_conj)
    return OmegaField(spatial, temporal)


def _scalar_of_product(sig: Signature, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Scalar part of the geometric product a*b without forming all grades."""
    inv, sign, _ = _signed_permutation(sig)
    out = np.zeros(np.broadcast_shapes(a.shape, b.shape)[:-1])
    for i in range(sig.dim):
        out += sign[i, 0] * a[..., i] * b[..., inv[i, 0]]
    return out


# ---------------------------------------------------------------------------
# Bohm momentum and energy: algebraic route

def bohm_momentum(state: SpinorField, omega: OmegaField = None) -> np.ndarray:
    """P_B per unit rho; shape grid.shape + (3,), masked at density nodes."""
    if omega is None:
        omega = omega_fields(state)
    sig = state.signature
    out = np.zeros(state.grid.shape + (3,))
    if state.is_pauli:
        S = state.spin_bivector_coeffs
        for ax, om in enumerate(omega.spatial):
            out[..., ax] = -_scalar_of_product(sig, om, S)
    else:
        e = central_unit(sig).coeffs
        for ax, om in enumerate(omega.spatial):
            out[..., ax] = -0.5 * _scalar_of_product(sig, np.broadcast_to(e, om.shape), om)
    out[~state.mask] = 0.0
    return out


def bohm_momentum_vector_part(state: SpinorField, omega: OmegaField = None) -> np.ndarray:
    """Diagnostic non-scalar term -i Omega^j / 2 of the Pauli momentum.

    Returned as the grade-1 coefficients per axis, shape grid.shape + (3, 3):
    [..., axis, component].
    """
    if not state.is_pauli:
        raise UnsupportedAlgebraError("vector part is a Pauli diagnostic")
    if omega is None:
        omega = omega_fields(state)
    out = np.zeros(state.grid.shape + (3, 3))
    for ax, om in enumerate(omega.spatial):
        term = -0.5 * pseudoscalar_times(PAULI, om)
        out[..., ax, :] = term[..., 1:4]
    return out


def bohm_energy(series: SnapshotSeries, k: int) -> np.ndarray:
    """E_B per unit rho at frame k via the central time stencil."""
    state = state_at(series, k)
    omega = omega_fields(state, series, k)
    sig = state.signature
    if state.is_pauli:
        out = _scalar_of_product(sig, omega.temporal, state.spin_bivector_coeffs)
    else:
        e = central_unit(sig).coeffs
        out = 0.5 * _scalar_of_product(sig, np.broadcast_to(e, omega.temporal.shape), omega.temporal)
    out[~state.mask] = 0.0
    return out


# ---------------------------------------------------------------------------
# weighted-mean route (component polar data, branch-free)

def _phase_density_gradient(comp: np.ndarray, grid: Grid) -> np.ndarray:
    """rho_i * grad(S_i) = Re psi_i D Im psi_i - Im psi_i D Re psi_i."""
    out = np.zeros(comp.shape + (3,))
    for ax in range(grid.dim):
        out[..., ax] = comp.real * deriv(comp.imag, grid, ax) - comp.imag * deriv(comp.real, grid, ax)
    return out


def bohm_momentum_weighted(state: SpinorField) -> np.ndarray:
    """P_B as the per-component weighted mean of grad(S_i)."""
    comps = [state.psi[..., 0], state.psi[..., 1]] if state.is_pauli else [state.psi]
    num = np.zeros(state.grid.shape + (3,))
    for comp in comps:
        num += _phase_density_gradient(comp, state.grid)
    return masked_divide(num, state.rho, state.mask)


def bohm_energy_weighted(series: SnapshotSeries, k: int) -> np.ndarray:
    """E_B as the per-component weighted mean of -d_t S_i."""
    state = state_at(series, k)
    dpsi_dt = time_derivative(series, k)
    comps = [(state.psi[..., i], dpsi_dt[..., i]) for i in range(2)] if state.is_pauli \
        else [(state.psi, dpsi_dt)]
    num = np.zeros(state.grid.shape)
    for comp, dcomp in comps:
        num -= comp.real * dcomp.imag - comp.imag * dcomp.real
    return masked_divide(num, state.rho, state.mask)


# ---------------------------------------------------------------------------
# quantum potential

@dataclass
class QuantumPotential:
    Q: np.ndarray
    Q1: np.ndarray
    Q2: np.ndarray


def quantum_potential(state: SpinorField, m: float) -> QuantumPotential:
    """Q (with the Q1/Q2 split) per grid point, masked at nodes.

    Schrodinger: Q = Q1 = -lap(R)/(2 m R), Q2 = 0.
    Pauli: Q from the density/spin closed form
        Q = -[ (2 lap(ln rho) + |grad ln rho|^2)/4 + s . lap(s) ] / (2 m),
    Q1 from the amplitude Laplacian, Q2 from the Euler-angle gradients.
    """
    grid = state.grid
    q1 = masked_divide(-laplacian(state.R, grid), 2.0 * m * state.R, state.mask)
    if not state.is_pauli:
        return QuantumPotential(q1.copy(), q1, np.zeros_like(q1))

    safe_rho = np.where(state.mask, state.rho, 1.0)
    ln_rho = np.log(safe_rho)
    grad_ln = gradient(ln_rho, grid)
    s = state.spin
    s_lap = np.zeros(grid.shape)
    for comp in range(3):
        s_lap += s[..., comp] * laplacian(s[..., comp], grid)
    q = -((2.0 * laplacian(ln_rho, grid) + (grad_ln ** 2).sum(axis=-1)) / 4.0 + s_lap) / (2.0 * m)
    q[~state.mask] = 0.0

    q2 = euler_q2(state, m)
    return QuantumPotential(q, q1, q2)


def euler_q2(state: SpinorField, m: float) -> np.ndarray:
    """Spin part Q2 = [(grad theta)^2 + sin^2 theta (grad phi)^2] / 8m.

    Evaluated branch-free from the unit spin direction a:
    sin^2 theta (grad phi)^2 = (a1 grad a2 - a2 grad a1)^2 / sin^2 theta,
    (grad theta)^2 = (grad a3)^2 / sin^2 theta; poles (sin theta ~ 0) fall
    back to the rotation-invariant form sum_j |d_j a|^2.
    """
    grid = state.grid
    a = state.spin_direction
    da = np.stack([gradient(a[..., c], grid) for c in range(3)], axis=-2)  # [..., comp, axis]
    sin2 = a[..., 0] ** 2 + a[..., 1] ** 2
    grad_theta2 = (da[..., 2, :] ** 2).sum(axis=-1)
    cross = a[..., 0, None] * da[..., 1, :] - a[..., 1, None] * da[..., 0, :]
    sin2_grad_phi2 = (cross ** 2).sum(axis=-1)
    safe = np.where(sin2 > POLE_EPS, sin2, 1.0)
    q2 = (grad_theta2 + sin2_grad_phi2) / safe / (8.0 * m)
    # at the poles the full |grad a|^2 is the well-defined limit
    full = (da ** 2).sum(axis=(-2, -1)) / (8.0 * m)
    q2 = np.where(sin2 > POLE_EPS, q2, full)
    q2[~state.mask] = 0.0
    return q2


# ---------------------------------------------------------------------------
# currents

@dataclass
class CurrentSplit:
    J_conv: np.ndarray
    J_rot: np.ndarray
    v: np.ndarray


def pauli_current(state: SpinorField, m: float, P: np.ndarray = None) -> CurrentSplit:
    """Convective and rotational currents and the trajectory velocity.

    m J_conv = rho P_B; m J_rot = curl(rho s); v = (J_conv + J_rot)/rho.
    Schrodinger states have no rotational part.
    """
    if P is None:
        P = bohm_momentum(state)
    j_conv = state.rho[..., None] * P / m
    if state.is_pauli:
        j_rot = curl(state.rho[..., None] * state.spin, state.grid) / m
    else:
        j_rot = np.zeros_like(j_conv)
    return CurrentSplit(j_conv, j_rot, masked_divide(j_conv + j_rot, state.rho, state.mask))


# ---------------------------------------------------------------------------
# expectation values

def expectation(B: Multivector, rho_c: CliffordDensityElement) -> float:
    """<B> = tr(B rho_c) with the representation-matched trace weight."""
    if B.signature != rho_c.signature:
        raise UnsupportedAlgebraError("operator and state live in different algebras")
    return algebra_trace(B * rho_c.body)


# ---------------------------------------------------------------------------
# residual instruments

def qhj_residual(E: np.ndarray, P: np.ndarray, Q: np.ndarray, V: np.ndarray,
                 m: float, mask: np.ndarray) -> np.ndarray:
    """Pointwise E_B - P_B^2/2m - Q - V; near zero for true evolutions."""
    res = E - (P ** 2).sum(axis=-1) / (2.0 * m) - Q - (V if V is not None else 0.0)
    res[~mask] = 0.0
    return res


def continuity_residual(series: SnapshotSeries, k: int, m: float,
                        P: np.ndarray = None) -> np.ndarray:
    """d_t rho + div(rho P_B / m) at frame k."""
    state = state_at(series, k)
    if P is None:
        P = bohm_momentum(state)
    drho_dt = _time_diff(series, k, lambda st: st.rho)
    res = drho_dt + divergence(state.rho[..., None] * P / m, series.grid)
    res[~state.mask] = 0.0
    return res


def spin_transport_residual(series: SnapshotSeries, k: int, m: float,
                            P: np.ndarray = None) -> np.ndarray:
    """LHS - RHS of  ds/dt = (s/m) x [lap(s) + (grad ln rho . grad) s].

    ds/dt is the convective derivative d_t s + (P_B . grad) s / m.
    Returns shape grid.shape + (3,).
    """
    state = state_at(series, k)
    if not state.is_pauli:
        raise UnsupportedAlgebraError("spin transport needs a Pauli field")
    grid = series.grid
    if P is None:
        P = bohm_momentum(state)
    ds_dt = _time_diff(series, k, lambda st: st.spin)
    s = state.spin
    conv = np.zeros_like(s)
    for ax in range(grid.dim):
        conv += P[..., ax, None] * deriv(s, grid, ax)
    lhs = ds_dt + conv / m

    safe_rho = np.where(state.mask, state.rho, 1.0)
    grad_ln = gradient(np.log(safe_rho), grid)
    term = laplacian(s, grid)
    for ax in range(grid.dim):
        term += grad_ln[..., ax, None] * deriv(s, grid, ax)
    rhs = np.cross(s, term) / m
    res = lhs - rhs
    res[~state.mask] = 0.0
    return res


@dataclass
class TorqueBalance:
    dP_dt: np.ndarray
    neg_grad_Q: np.ndarray
    torque: np.ndarray
    residual: np.ndarray


def quantum_torque(series: SnapshotSeries, k: int, m: float) -> TorqueBalance:
    """Momentum balance dP_B/dt = -grad Q - torque for the free Pauli particle.

    dP_B/dt is d_t P_B + grad(P_B^2)/2m; the torque term is
    -[d_t(cos theta) grad phi - grad(cos theta) d_t phi]/2 with the angles
    read off branch-free from the spinor components.  Points near the spin
    poles (either component's density ~ 0) are masked.
    """
    state = state_at(series, k)
    if not state.is_pauli:
        raise UnsupportedAlgebraError("quantum torque needs a Pauli field")
    grid = series.grid
    P = bohm_momentum(state)
    dP_dt = _time_diff(series, k, bohm_momentum) + gradient((P ** 2).sum(axis=-1), grid) / (2.0 * m)

    qp = quantum_potential(state, m)
    neg_grad_Q = -gradient(qp.Q, grid)

    cos_theta = state.spin_direction[..., 2]
    rho1 = np.abs(state.psi[..., 0]) ** 2
    rho2 = np.abs(state.psi[..., 1]) ** 2
    pole_ok = state.mask & (rho1 > POLE_EPS * np.max(state.rho)) \
        & (rho2 > POLE_EPS * np.max(state.rho))

    grad_phi = _grad_phi(state)
    dphi_dt = _dphi_dt(series, k)
    dcos_dt = _time_diff(series, k, lambda st: st.spin_direction[..., 2])
    torque = -0.5 * (dcos_dt[..., None] * grad_phi - gradient(cos_theta, grid) * dphi_dt[..., None])

    residual = dP_dt + (-neg_grad_Q) + torque
    for arr in (dP_dt, neg_grad_Q, torque, residual):
        arr[~pole_ok] = 0.0
    return TorqueBalance(dP_dt, neg_grad_Q, torque, residual)


def _grad_phi(state: SpinorField) -> np.ndarray:
    """grad(phi) = grad(S1) - grad(S2), branch-free per component."""
    rho1 = np.abs(state.psi[..., 0]) ** 2
    rho2 = np.abs(state.psi[..., 1]) ** 2
    safe1 = np.where(rho1 > 0, rho1, 1.0)
    safe2 = np.where(rho2 > 0, rho2, 1.0)
    g1 = _phase_density_gradient(state.psi[..., 0], state.grid) / safe1[..., None]
    g2 = _phase_density_gradient(state.psi[..., 1], state.grid) / safe2[..., None]
    return g1 - g2


def _dphi_dt(series: SnapshotSeries, k: int) -> np.ndarray:
    state = state_at(series, k)
    dpsi_dt = time_derivative(series, k)
    out = np.zeros(series.grid.shape)
    for i, sign in ((0, 1.0), (1, -1.0)):
        comp, dcomp = state.psi[..., i], dpsi_dt[..., i]
        rho_i = np.abs(comp) ** 2
        safe = np.where(rho_i > 0, rho_i, 1.0)
        out += sign * (comp.real * dcomp.imag - comp.imag * dcomp.real) / safe
    return out


# ---------------------------------------------------------------------------
# summary container and statistics

@dataclass
class BohmObservables:
    grid: Grid
    mask: np.ndarray
    P: np.ndarray
    E: np.ndarray
    Q: np.ndarray
    Q1: np.ndarray
    Q2: np.ndarray
    s: np.ndarray  # None for Schrodinger
    J_conv: np.ndarray
    J_rot: np.ndarray
    v: np.ndarray
    residuals: dict = field(default_factory=dict)


def compute_observables(series: SnapshotSeries, k: int, m: float,
                        V: np.ndarray = None) -> BohmObservables:
    """All Bohm fields and the standard residuals at frame k of a series."""
    state = state_at(series, k)
    P = bohm_momentum(state)
    E = bohm_energy(series, k)
    qp = quantum_potential(state, m)
    cur = pauli_current(state, m, P)
    res = {
        "qhj": qhj_residual(E, P, qp.Q, V, m, state.mask),
        "continuity": continuity_residual(series, k, m, P),
    }
    s = None
    if state.is_pauli:
        s = state.spin
        spin_res = spin_transport_residual(series, k, m, P)
        res["spin_transport"] = np.sqrt((spin_res ** 2).sum(axis=-1))
    return BohmObservables(series.grid, state.mask, P, E, qp.Q, qp.Q1, qp.Q2,
                           s, cur.J_conv, cur.J_rot, cur.v, res)


def support_mask(rho: np.ndarray, rel: float = 1e-8) -> np.ndarray:
    """Region carrying non-negligible density, for residual statistics.

    In the far tails the density underflows and relative stencil noise
    dominates any residual built from ln(rho) or 1/rho; statistics are
    therefore taken where rho >= rel * max(rho), and the discarded fraction
    is reported alongside.
    """
    return rho >= rel * float(np.max(rho))


def residual_stats(res: np.ndarray, mask: np.ndarray) -> dict:
    vals = np.abs(res[mask]) if res.shape == mask.shape else \
        np.abs(res[mask]).reshape(-1)
    n_total = mask.size
    return {
        "max_abs": float(vals.max()) if vals.size else 0.0,
        "l2": float(np.sqrt((vals ** 2).mean())) if vals.size else 0.0,
        "masked_fraction": float(1.0 - mask.sum() / n_total),
    }
