"""Bilinear invariants and Bohm-theoretic fields.

Every quantity here is computed on the algebraic side (g-coefficients,
geometric products, the Omega fields), with alternative standard-formalism
routes provided where the theory gives more than one expression for the
same field (weighted means, Euler-angle forms).  The oracle module holds
the fully independent wavefunction versions used for cross checks.

The Bohm momentum and energy are one bilinear for both particles: with
Omega = 2 (dU) ~U and S = U gamma ~U / 2 for the ideal's phase generator
gamma, P^j = -<Omega^j S>_0 and E = <Omega_t S>_0.  In Cl(3,0) S = i s; in
Cl(0,1) gamma = e is central and S = e/2.  U, Omega and S all lie in U's
subalgebra (C, or the even part of Cl(3,0)), so these products run in the
subalgebra layout of ``algebra``, on the 2 or 4 g-coefficients.

A quantity at frame k that needs a time derivative reads frames k-1, k and
k+1 through one ``Window``: ``window(series, k)`` turns each of the three
frames into a SpinorField once, and ``Window.d_dt`` differences whatever the
two neighbours derive and cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .algebra import (
    PAULI,
    SCHRODINGER,
    Multivector,
    algebra_trace,
    conj_coeffs,
    gp_coeffs,
)
from .grids import (
    Grid,
    GridError,
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
    g_from_components,
    g_from_wavefunction,
    phase_generator,
    spin_field_from_g,
)

POLE_EPS = 1e-10

# i e1 = e23, i e2 = -e13, i e3 = e12 in Cl(3,0): the signs that take a
# vector's components to its dual bivector's (e23, e13, e12) and back
_DUAL = np.array([1.0, -1.0, 1.0])


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
    def ln_rho(self) -> np.ndarray:
        """ln(rho), 0 at density nodes."""
        return np.log(np.where(self.mask, self.rho, 1.0))

    @cached_property
    def grad_ln_rho(self) -> np.ndarray:
        return gradient(self.ln_rho, self.grid)

    @cached_property
    def g(self) -> np.ndarray:
        if self.is_pauli:
            return g_from_components(self.psi[..., 0], self.psi[..., 1])[1]
        return g_from_wavefunction(self.psi)[1]

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
        """S = U gamma ~U / 2 in the subalgebra layout.

        Cl(3,0): gamma = e12 = i e3, so S = i s, a bivector.  Cl(0,1): gamma =
        e commutes with U and U ~U = 1, so S = e/2 at every point (a read-only
        view).
        """
        if not self.is_pauli:
            half_e = 0.5 * phase_generator(SCHRODINGER).coeffs
            return np.broadcast_to(half_e, self.grid.shape + (2,))
        S = np.zeros(self.grid.shape + (4,))
        S[..., 1:] = _DUAL * self.spin
        return S

    @cached_property
    def omega(self) -> list:
        """Omega^j = 2 (d_j U) ~U per grid axis, in the subalgebra layout."""
        g_conj = conj_coeffs(self.signature, self.g)
        return [2.0 * gp_coeffs(self.signature, deriv(self.g, self.grid, ax), g_conj)
                for ax in range(self.grid.dim)]

    @cached_property
    def P(self) -> np.ndarray:
        """P_B^j = -<Omega^j S>_0 per unit rho; shape grid.shape + (3,), masked at density nodes."""
        out = np.zeros(self.grid.shape + (3,))
        for ax, om in enumerate(self.omega):
            out[..., ax] = -gp_coeffs(self.signature, om, self.spin_bivector_coeffs)[..., 0]
        out[~self.mask] = 0.0
        return _read_only(out)

    @cached_property
    def grad_spin(self) -> np.ndarray:
        """grad(s), laid out as [..., component, axis]; Pauli only."""
        return _read_only(gradient(self.spin, self.grid))

    @cached_property
    def lap_spin(self) -> np.ndarray:
        """lap(s) per component; Pauli only."""
        return _read_only(laplacian(self.spin, self.grid))


def _read_only(arr: np.ndarray) -> np.ndarray:
    """Freeze a field every consumer of the frame shares; an in-place update starts from a copy."""
    arr.flags.writeable = False
    return arr


def state_at(series: SnapshotSeries, k: int) -> SpinorField:
    return SpinorField(series.grid, series.frames[k])


@dataclass(eq=False)
class Window:
    """Frames k-1, k and k+1 of a series as SpinorFields, dt apart."""

    prev: SpinorField
    cur: SpinorField
    next: SpinorField
    dt: float

    def d_dt(self, quantity) -> np.ndarray:
        """Central time difference at the middle frame of quantity(SpinorField)."""
        return time_derivative(quantity(self.prev), quantity(self.next), self.dt)


def window(series: SnapshotSeries, k: int) -> Window:
    """The window around frame k, with dt = series.dt; boundary frames are rejected."""
    if not 1 <= k <= len(series) - 2:
        raise GridError(f"frame {k} has no central-stencil neighbours (len {len(series)})")
    return Window(*(state_at(series, j) for j in (k - 1, k, k + 1)), series.dt)


def masked_divide(num: np.ndarray, den: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """num / den where mask holds, zero elsewhere.

    den and mask have the grid shape; num may carry trailing value axes.
    """
    safe = np.where(mask, den, 1.0)
    out = num / safe.reshape(safe.shape + (1,) * (num.ndim - safe.ndim))
    out[~mask] = 0.0
    return out


# ---------------------------------------------------------------------------
# Bohm momentum and energy: algebraic route

def bohm_momentum(state: SpinorField) -> np.ndarray:
    """The frame's read-only P_B, ``state.P``."""
    return state.P


def bohm_momentum_vector_part(state: SpinorField) -> np.ndarray:
    """Diagnostic non-scalar term -i Omega^j / 2 of the Pauli momentum.

    Returned as the grade-1 coefficients per axis, shape grid.shape + (3, 3):
    [..., axis, component].  The bivector w1 e23 + w2 e13 + w3 e12 of Omega^j
    gives -i Omega^j / 2 = (w1 e1 - w2 e2 + w3 e3) / 2.
    """
    if not state.is_pauli:
        raise UnsupportedAlgebraError("vector part is a Pauli diagnostic")
    out = np.zeros(state.grid.shape + (3, 3))
    for ax, om in enumerate(state.omega):
        out[..., ax, :] = 0.5 * om[..., 1:] * _DUAL
    return out


def bohm_energy(win: Window) -> np.ndarray:
    """E_B = <Omega_t S>_0 per unit rho at the window's middle frame, Omega_t = 2 (d_t U) ~U."""
    state = win.cur
    sig = state.signature
    omega_t = 2.0 * gp_coeffs(sig, win.d_dt(lambda st: st.g), conj_coeffs(sig, state.g))
    out = gp_coeffs(sig, omega_t, state.spin_bivector_coeffs)[..., 0]
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


def _im_conj_product(comp: np.ndarray, dcomp: np.ndarray) -> np.ndarray:
    """Im(conj(psi_i) d psi_i) = rho_i d S_i for a component and its derivative."""
    return comp.real * dcomp.imag - comp.imag * dcomp.real


def bohm_momentum_weighted(state: SpinorField) -> np.ndarray:
    """P_B as the per-component weighted mean of grad(S_i)."""
    comps = [state.psi[..., 0], state.psi[..., 1]] if state.is_pauli else [state.psi]
    num = np.zeros(state.grid.shape + (3,))
    for comp in comps:
        num += _phase_density_gradient(comp, state.grid)
    return masked_divide(num, state.rho, state.mask)


def bohm_energy_weighted(win: Window) -> np.ndarray:
    """E_B as the per-component weighted mean of -d_t S_i."""
    state = win.cur
    dpsi_dt = win.d_dt(lambda st: st.psi)
    comps = [(state.psi[..., i], dpsi_dt[..., i]) for i in range(2)] if state.is_pauli \
        else [(state.psi, dpsi_dt)]
    num = np.zeros(state.grid.shape)
    for comp, dcomp in comps:
        num -= _im_conj_product(comp, dcomp)
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

    ln_rho, grad_ln = state.ln_rho, state.grad_ln_rho
    s = state.spin
    s_lap = np.zeros(grid.shape)
    for comp in range(3):
        s_lap += s[..., comp] * state.lap_spin[..., comp]
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
    a = state.spin_direction
    da = 2.0 * state.grad_spin  # [..., comp, axis]
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


def pauli_current(state: SpinorField, m: float) -> CurrentSplit:
    """Convective and rotational currents and the trajectory velocity.

    m J_conv = rho P_B; m J_rot = curl(rho s); v = (J_conv + J_rot)/rho.
    Schrodinger states have no rotational part.
    """
    j_conv = state.rho[..., None] * state.P / m
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


def continuity_residual(win: Window, m: float) -> np.ndarray:
    """d_t rho + div(rho P_B / m) at the window's middle frame."""
    state = win.cur
    drho_dt = win.d_dt(lambda st: st.rho)
    res = drho_dt + divergence(state.rho[..., None] * state.P / m, state.grid)
    res[~state.mask] = 0.0
    return res


def spin_transport_residual(win: Window, m: float) -> np.ndarray:
    """LHS - RHS of  ds/dt = (s/m) x [lap(s) + (grad ln rho . grad) s].

    ds/dt is the convective derivative d_t s + (P_B . grad) s / m.
    Returns shape grid.shape + (3,).
    """
    state = win.cur
    if not state.is_pauli:
        raise UnsupportedAlgebraError("spin transport needs a Pauli field")
    ds_dt = win.d_dt(lambda st: st.spin)
    s, ds = state.spin, state.grad_spin
    conv = np.zeros_like(s)
    term = state.lap_spin.copy()
    for ax in range(state.grid.dim):
        conv += state.P[..., ax, None] * ds[..., ax]
        term += state.grad_ln_rho[..., ax, None] * ds[..., ax]
    lhs = ds_dt + conv / m
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


def quantum_torque(win: Window, m: float) -> TorqueBalance:
    """Momentum balance dP_B/dt = -grad Q - torque for the free Pauli particle.

    dP_B/dt is d_t P_B + grad(P_B^2)/2m; the torque term is
    -[d_t(cos theta) grad phi - grad(cos theta) d_t phi]/2 with the angles
    read off branch-free from the spinor components.  Points near the spin
    poles (either component's density ~ 0) are masked.
    """
    state = win.cur
    if not state.is_pauli:
        raise UnsupportedAlgebraError("quantum torque needs a Pauli field")
    grid = state.grid
    dP_dt = win.d_dt(bohm_momentum) + gradient((state.P ** 2).sum(axis=-1), grid) / (2.0 * m)

    qp = quantum_potential(state, m)
    neg_grad_Q = -gradient(qp.Q, grid)

    grad_cos = 2.0 * state.grad_spin[..., 2, :]  # cos theta = a3 = 2 s3
    comp_rho = np.abs(state.psi) ** 2
    pole_ok = state.mask & np.all(comp_rho > POLE_EPS * np.max(state.rho), axis=-1)

    grad_phi = _grad_phi(state)
    dphi_dt = _dphi_dt(state, win.d_dt(lambda st: st.psi))
    dcos_dt = win.d_dt(lambda st: st.spin_direction[..., 2])
    torque = -0.5 * (dcos_dt[..., None] * grad_phi - grad_cos * dphi_dt[..., None])

    residual = dP_dt + (-neg_grad_Q) + torque
    for arr in (dP_dt, neg_grad_Q, torque, residual):
        arr[~pole_ok] = 0.0
    return TorqueBalance(dP_dt, neg_grad_Q, torque, residual)


def _grad_phi(state: SpinorField) -> np.ndarray:
    """grad(phi) = grad(S1) - grad(S2), branch-free per component."""
    grads = []
    for i in range(2):
        comp = state.psi[..., i]
        rho_i = np.abs(comp) ** 2
        grads.append(masked_divide(_phase_density_gradient(comp, state.grid), rho_i, rho_i > 0))
    return grads[0] - grads[1]


def _dphi_dt(state: SpinorField, dpsi_dt: np.ndarray) -> np.ndarray:
    """d_t phi = d_t S1 - d_t S2 from the frame's state and d_t psi."""
    out = np.zeros(state.grid.shape)
    for i, sign in ((0, 1.0), (1, -1.0)):
        comp, dcomp = state.psi[..., i], dpsi_dt[..., i]
        rho_i = np.abs(comp) ** 2
        out += sign * masked_divide(_im_conj_product(comp, dcomp), rho_i, rho_i > 0)
    return out


# ---------------------------------------------------------------------------
# summary container and statistics

@dataclass
class BohmObservables:
    window: Window  # the frames the fields were computed from
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
    win = window(series, k)
    state = win.cur
    E = bohm_energy(win)
    qp = quantum_potential(state, m)
    cur = pauli_current(state, m)
    res = {
        "qhj": qhj_residual(E, state.P, qp.Q, V, m, state.mask),
        "continuity": continuity_residual(win, m),
    }
    s = None
    if state.is_pauli:
        s = state.spin
        spin_res = spin_transport_residual(win, m)
        res["spin_transport"] = np.sqrt((spin_res ** 2).sum(axis=-1))
    return BohmObservables(win, state.P, E, qp.Q, qp.Q1, qp.Q2, s, cur.J_conv, cur.J_rot, cur.v,
                           res)


def support_mask(rho: np.ndarray, rel: float = 1e-8) -> np.ndarray:
    """Region carrying non-negligible density, for residual statistics.

    In the far tails the density underflows and relative stencil noise
    dominates any residual built from ln(rho) or 1/rho; statistics are
    therefore taken where rho >= rel * max(rho), and the discarded fraction
    is reported alongside.
    """
    return rho >= rel * float(np.max(rho))


def residual_stats(res: np.ndarray, mask: np.ndarray) -> dict:
    vals = np.abs(res[mask]).reshape(-1)
    n_total = mask.size
    return {
        "max_abs": float(vals.max()) if vals.size else 0.0,
        "l2": float(np.sqrt((vals ** 2).mean())) if vals.size else 0.0,
        "masked_fraction": float(1.0 - mask.sum() / n_total),
    }
