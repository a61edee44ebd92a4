"""Bilinear invariants and Bohm-theoretic fields.

Every quantity here is computed on the algebraic side (g-coefficients and
geometric products), with alternative standard-formalism
routes provided where the theory gives more than one expression for the
same field (weighted means).  The oracle module holds
the fully independent wavefunction versions used for cross checks.

The Bohm momentum and energy are one bilinear for both particles, with
gamma the ideal's phase generator: P^j = -<(d_j U) gamma ~U>_0 and
E = <(d_t U) gamma ~U>_0.  With Omega = 2 (dU) ~U and S = U gamma ~U / 2
these are the paper's -<Omega^j S>_0 and <Omega_t S>_0, since ~U U = 1; the
shorter association forms no Omega and no S.  A frame forms W = gamma ~U
once, and each bilinear is the scalar row of one product with W.  U and W
lie in U's subalgebra (C, or the even part of Cl(3,0)), so these products
run in the subalgebra layout of ``algebra``, on the 2 or 4 g-coefficients.
Like every derived field here, they are stored component-first (see
``grids``), so products and component loops read one contiguous block per
component.

A quantity at frame k that needs a time derivative reads frames k-1, k and
k+1 through one ``Window``: ``window(series, k)`` turns each of the three
frames into a SpinorField once, and ``Window.d_dt`` differences whatever the
two neighbours derive and cache.  The trajectory velocities of many frames
come from one SpinorField that stacks them (``velocity_series``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .algebra import (
    _G_SLOTS,
    PAULI,
    SCHRODINGER,
    Multivector,
    algebra_trace,
    conj_coeffs,
    gp_coeffs,
    gp_scalar,
)
from .grids import (
    Grid,
    GridError,
    SnapshotSeries,
    StepTimes,
    component_first,
    curl,
    deriv,
    divergence,
    gradient,
    laplacian,
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

# the phase generator gamma in the subalgebra layout: e in Cl(0,1), e12 in Cl(3,0)
_GAMMA = {sig: phase_generator(sig).coeffs[_G_SLOTS[sig]] for sig in (SCHRODINGER, PAULI)}


@dataclass(eq=False)
class SpinorField:
    """A sampled spinor state: complex psi of shape grid.shape (Schrodinger)
    or grid.shape + (2,) (Pauli).

    A stacked field holds n frames of one grid on an axis right after the
    grid axes, psi of shape grid.shape + (n,) or grid.shape + (n, 2), and
    every field it derives carries that axis there too.  The stack is
    declared, not read off the shape: a stack of two Schrodinger frames has
    the shape of one Pauli frame.  The point-by-point fields and the spatial
    stencils ride along the stack axis, so a stacked field's rho, mask, g,
    spin, W and P, and ``pauli_current`` of it, equal each frame's own
    bit for bit; its node mask takes each frame's own peak density.  The
    other functions below take single frames.
    """

    grid: Grid
    psi: np.ndarray
    stacked: bool = False

    def __post_init__(self):
        self.psi = np.asarray(self.psi, dtype=complex)
        dim = self.grid.dim
        points = self.grid.shape + (self.psi.shape[dim:dim + 1] if self.stacked else ())
        if self.psi.shape == points:
            self.signature = SCHRODINGER
        elif self.psi.shape == points + (2,):
            self.signature = PAULI
        else:
            raise ValueError(f"psi shape {self.psi.shape} does not fit grid {self.grid.shape}")

    @property
    def is_pauli(self) -> bool:
        return self.signature == PAULI

    @cached_property
    def rho(self) -> np.ndarray:
        dens = np.abs(self.psi) ** 2
        # one add: a reduction over the trailing component axis costs ~20x, for the same bits
        return dens[..., 0] + dens[..., 1] if self.is_pauli else dens

    @cached_property
    def mask(self) -> np.ndarray:
        """True where the density is large enough for per-rho fields to be valid."""
        return support_mask(self.rho, NODE_EPS, tuple(range(self.grid.dim)))

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
    def gamma_u_conj(self) -> np.ndarray:
        """W = gamma ~U in the subalgebra layout, the right factor of P and E.

        One product of the field kernel, and exact: gamma is one blade, so
        each blade of W is one signed g-coefficient plus products with
        gamma's zeros.
        """
        sig = self.signature
        return gp_coeffs(sig, _GAMMA[sig], conj_coeffs(sig, self.g))

    @cached_property
    def P(self) -> np.ndarray:
        """P_B^j = -<(d_j U) gamma ~U>_0 per unit rho; shape rho.shape + (3,), masked at density nodes."""
        out = component_first(self.rho.shape + (3,), self.rho.ndim)
        for ax in range(self.grid.dim):
            du = deriv(self.g, self.grid, ax)
            np.negative(gp_scalar(self.signature, du, self.gamma_u_conj), out=out[..., ax])
        out[~self.mask] = 0.0
        return _read_only(out)

    @cached_property
    def grad_spin(self) -> np.ndarray:
        """grad(s), laid out as [..., component, axis] and stored axis-first; Pauli only."""
        return _read_only(gradient(self.spin, self.grid))

    @cached_property
    def lap_spin(self) -> np.ndarray:
        """lap(s) per component; Pauli only."""
        return _read_only(laplacian(self.spin, self.grid))

    @cached_property
    def components(self) -> np.ndarray:
        """psi's components along the first axis, as views: [component, ...]."""
        return np.moveaxis(self.psi, -1, 0) if self.is_pauli else self.psi[None]


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
        raise GridError(f"frame {k} has no central-stencil neighbours in frames "
                        f"0..{len(series) - 1}")
    return Window(*(state_at(series, j) for j in (k - 1, k, k + 1)), series.dt)


def masked_divide(num: np.ndarray, den: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """num / den where mask holds, zero elsewhere.

    den and mask have one shape; num may carry trailing value axes.
    """
    safe = np.where(mask, den, 1.0)
    out = num / safe.reshape(safe.shape + (1,) * (num.ndim - safe.ndim))
    out[~mask] = 0.0
    return out


# ---------------------------------------------------------------------------
# Bohm momentum and energy: algebraic route

def bohm_energy(win: Window) -> np.ndarray:
    """E_B = <(d_t U) gamma ~U>_0 per unit rho at the window's middle frame."""
    state = win.cur
    out = gp_scalar(state.signature, win.d_dt(lambda st: st.g), state.gamma_u_conj)
    out[~state.mask] = 0.0
    return out


# ---------------------------------------------------------------------------
# weighted-mean route (component polar data, branch-free)

def bohm_momentum_weighted(state: SpinorField) -> np.ndarray:
    """P_B as the per-component weighted mean of grad(S_i).

    rho_i grad(S_i) = Re psi_i D Im psi_i - Im psi_i D Re psi_i, summed over i.
    """
    grid = state.grid
    num = component_first(grid.shape + (3,), grid.dim)
    for comp in state.components:
        for ax in range(grid.dim):
            num[..., ax] += (comp.real * deriv(comp.imag, grid, ax)
                             - comp.imag * deriv(comp.real, grid, ax))
    return masked_divide(num, state.rho, state.mask)


def bohm_energy_weighted(win: Window) -> np.ndarray:
    """E_B as the per-component weighted mean of -d_t S_i."""
    state = win.cur
    comp, dcomp = state.components, win.d_dt(lambda st: st.components)
    num = sum(-(comp.real * dcomp.imag - comp.imag * dcomp.real))  # -rho_i d_t S_i
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
    Q1 from the amplitude Laplacian, and the spin part
        Q2 = [(grad theta)^2 + sin^2 theta (grad phi)^2] / 8m = |grad s|^2 / 2m:
    for the unit spin direction a = 2s = (sin theta sin phi, sin theta cos phi,
    cos theta), |grad a|^2 = (grad theta)^2 + sin^2 theta (grad phi)^2 exactly,
    so Q2 is the sum of grad(s) squared over components and axes, regular at
    the poles, where the angles are not.
    """
    grid = state.grid
    R = np.sqrt(state.rho)
    q1 = masked_divide(-laplacian(R, grid), 2.0 * m * R, state.mask)
    if not state.is_pauli:
        return QuantumPotential(q1.copy(), q1, np.zeros_like(q1))

    ln_rho, grad_ln = state.ln_rho, state.grad_ln_rho
    s = state.spin
    s_lap = np.zeros(grid.shape)
    for comp in range(3):
        s_lap += s[..., comp] * state.lap_spin[..., comp]
    q = -((2.0 * laplacian(ln_rho, grid) + (grad_ln ** 2).sum(axis=-1)) / 4.0 + s_lap) / (2.0 * m)
    q[~state.mask] = 0.0

    q2 = (state.grad_spin ** 2).sum(axis=(-2, -1)) / (2.0 * m)
    q2[~state.mask] = 0.0
    return QuantumPotential(q, q1, q2)


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
    Schrodinger states have no rotational part: their J_rot is a read-only
    zero view, and v divides J_conv alone.
    """
    j_conv = state.rho[..., None] * state.P / m
    if not state.is_pauli:
        v = masked_divide(j_conv, state.rho, state.mask)
        v += 0.0  # a -0.0 reads +0.0, as in a sum with zeros
        return CurrentSplit(j_conv, np.broadcast_to(0.0, j_conv.shape), v)
    j_rot = curl(state.rho[..., None] * state.spin, state.grid) / m
    return CurrentSplit(j_conv, j_rot, masked_divide(j_conv + j_rot, state.rho, state.mask))


def velocity_series(grid: Grid, stack: np.ndarray, times: StepTimes, m: float):
    """The Bohm velocities and node masks of raw frames at times, stacked on
    the axis after the grid axes (grid.shape + (n,), with a trailing (2,) for
    Pauli frames), as ``dynamics.integrate_trajectories`` takes them:
    (SnapshotSeries on times, masks), both indexed by frame first.  One
    stacked SpinorField derives every frame's in one pass, so the number of
    conversions does not grow with the number of frames, and a Schrodinger
    stack builds no rotational current."""
    state = SpinorField(grid, stack, stacked=True)
    v = np.moveaxis(pauli_current(state, m).v, grid.dim, 0)
    return SnapshotSeries(times, v, grid), np.moveaxis(state.mask, grid.dim, 0)


# ---------------------------------------------------------------------------
# expectation values

def expectation(B: Multivector, rho_c: CliffordDensityElement) -> float:
    """<B> = tr(B rho_c) with the representation-matched trace weight."""
    if B.signature is not rho_c.signature and B.signature != rho_c.signature:
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


def continuity_residual(win: Window, j_conv: np.ndarray) -> np.ndarray:
    """d_t rho + div(J_conv) at the window's middle frame, for its convective
    current J_conv = rho P_B / m (``pauli_current``)."""
    state = win.cur
    drho_dt = win.d_dt(lambda st: st.rho)
    res = drho_dt + divergence(j_conv, state.grid)
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
    term = state.lap_spin.copy(order="K")
    for ax in range(state.grid.dim):
        conv += state.P[..., ax, None] * ds[..., ax]
        term += state.grad_ln_rho[..., ax, None] * ds[..., ax]
    res = ds_dt + conv / m
    for k, i, j in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):  # minus s x term / m, as np.cross forms it
        res[..., k] -= (s[..., i] * term[..., j] - s[..., j] * term[..., i]) / m
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

    dP_B/dt is d_t P_B + grad(P_B^2)/2m.  The torque term
    -[d_t(cos theta) d_j phi - d_j(cos theta) d_t phi]/2 is the triple product
    -a . (d_t a x d_j a)/2 = -4 s . (d_t s x d_j s) for the package's
    a = 2s = (sin theta sin phi, sin theta cos phi, cos theta), so it needs
    no angles and is regular at the poles.
    """
    state = win.cur
    if not state.is_pauli:
        raise UnsupportedAlgebraError("quantum torque needs a Pauli field")
    grid = state.grid
    dP_dt = win.d_dt(lambda st: st.P) + gradient((state.P ** 2).sum(axis=-1), grid) / (2.0 * m)

    qp = quantum_potential(state, m)
    neg_grad_Q = -gradient(qp.Q, grid)

    s, ds_dt = state.spin, win.d_dt(lambda st: st.spin)
    torque = np.zeros_like(dP_dt)
    for ax in range(grid.dim):
        ds = state.grad_spin[..., ax]
        for k, i, j in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            torque[..., ax] -= 4.0 * s[..., k] * (ds_dt[..., i] * ds[..., j]
                                                  - ds_dt[..., j] * ds[..., i])

    residual = dP_dt + (-neg_grad_Q) + torque
    for arr in (dP_dt, neg_grad_Q, torque, residual):
        arr[~state.mask] = 0.0
    return TorqueBalance(dP_dt, neg_grad_Q, torque, residual)


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
        "continuity": continuity_residual(win, cur.J_conv),
    }
    s = None
    if state.is_pauli:
        s = state.spin
        spin_res = spin_transport_residual(win, m)
        res["spin_transport"] = np.sqrt((spin_res ** 2).sum(axis=-1))
    return BohmObservables(win, state.P, E, qp.Q, qp.Q1, qp.Q2, s, cur.J_conv, cur.J_rot, cur.v,
                           res)


NODE_EPS = 1e-12


def support_mask(rho: np.ndarray, rel: float = 1e-8, axes: tuple = None) -> np.ndarray:
    """Region carrying non-negligible density: rho >= rel * max(rho).

    The maximum is taken over axes, every axis by default; over the leading
    grid axes it is each stacked frame's own.  At rel = NODE_EPS this is the
    density-node test, ``SpinorField.mask``.
    Residual statistics take a larger rel: in the far tails relative stencil
    noise dominates any residual built from ln(rho) or 1/rho, so they are
    taken on the support, and the discarded fraction is reported alongside.
    """
    return rho >= rel * np.max(rho, axis=axes)


def residual_stats(res: np.ndarray, mask: np.ndarray) -> dict:
    vals = np.abs(res[mask]).reshape(-1)
    n_total = mask.size
    return {
        "max_abs": float(vals.max()) if vals.size else 0.0,
        "l2": float(np.sqrt((vals ** 2).mean())) if vals.size else 0.0,
        "masked_fraction": float(1.0 - mask.sum() / n_total),
    }
