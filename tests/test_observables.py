"""Bohm fields from the algebraic pipeline against closed forms and oracles."""

import numpy as np
import pytest

from cliffordqm import algebra as alg
from cliffordqm import grids as gd
from cliffordqm import observables as ob
from cliffordqm import oracle
from cliffordqm import spinors as sp

RNG = np.random.default_rng(90210)


def schrodinger_series(descriptor, grid, dt=1e-3, n=3, t0=0.0):
    times = t0 + dt * np.arange(n)
    frames = [gd.sample(descriptor, grid, t) for t in times]
    return gd.SnapshotSeries(times, frames, grid)


def random_texture(grid, rng):
    return gd.EulerTexture(
        theta0=float(rng.uniform(0.4, np.pi - 0.4)),
        theta_k=(float(rng.uniform(-0.3, 0.3)), 0.0, 0.0),
        phi0=float(rng.uniform(-1.0, 1.0)),
        phi_k=(float(rng.uniform(-0.3, 0.3)), 0.0, 0.0),
        chi_k=(float(rng.uniform(-0.3, 0.3)), 0.0, 0.0),
        sigma=float(rng.uniform(1.0, 2.0)),
    )


def test_plane_wave_momentum_and_energy():
    grid = gd.Grid.line(0.0, 2.0 * np.pi, 128, "periodic")
    k, m = 2.0, 1.0
    series = schrodinger_series(gd.PlaneWave(k=(k, 0.0, 0.0), m=m), grid)
    state = ob.state_at(series, 1)
    P = ob.bohm_momentum(state)
    h = grid.spacing[0]
    # periodic central stencil: P = k (1 - (k h)^2 / 6 + ...)
    assert np.max(np.abs(P[..., 0] - k)) < k ** 3 * h ** 2 / 6.0 * 1.1
    E = ob.bohm_energy(ob.window(series, 1))
    dt = series.dt
    assert np.max(np.abs(E - k ** 2 / (2 * m))) < (k ** 2 / 2) ** 3 * dt ** 2


def test_gaussian_quantum_potential_closed_form():
    """Q(x) = 1/(4 sigma^2) - x^2/(8 sigma^4) for the t=0 Gaussian at m=1."""
    sigma = 1.3
    grid = gd.Grid.line(-6.0 * sigma, 6.0 * sigma, 401)
    psi = gd.sample(gd.GaussianPacket(sigma=sigma), grid)
    state = ob.SpinorField(grid, psi)
    qp = ob.quantum_potential(state, m=1.0)
    x = grid.coords(0)
    exact = 1.0 / (4.0 * sigma ** 2) - x ** 2 / (8.0 * sigma ** 4)
    h = grid.spacing[0]
    inner = np.abs(x) < 4.0 * sigma
    assert np.max(np.abs(qp.Q - exact)[inner]) < 5.0 * h ** 2
    assert np.array_equal(qp.Q, qp.Q1)
    assert np.max(np.abs(qp.Q2)) == 0.0


def test_schrodinger_qhj_on_exact_packet():
    grid = gd.Grid.line(-10.0, 10.0, 501)
    m = 1.0
    series = schrodinger_series(gd.GaussianPacket(sigma=1.0, k=(1.0, 0, 0), m=m),
                                grid, dt=5e-4, t0=0.3)
    state = ob.state_at(series, 1)
    P = ob.bohm_momentum(state)
    E = ob.bohm_energy(ob.window(series, 1))
    Q = ob.quantum_potential(state, m).Q
    res = ob.qhj_residual(E, P, Q, None, m, state.mask)
    support = state.mask & ob.support_mask(state.rho)
    stats = ob.residual_stats(res, support)
    h = grid.spacing[0]
    assert stats["max_abs"] < 5.0 * h ** 2


def test_weighted_and_algebraic_momentum_agree():
    grid = gd.Grid.line(-8.0, 8.0, 257)
    rng = np.random.default_rng(7)
    for _ in range(10):
        psi = gd.sample(random_texture(grid, rng), grid)
        state = ob.SpinorField(grid, psi)
        P_alg = ob.bohm_momentum(state)
        P_w = ob.bohm_momentum_weighted(state)
        mask = state.mask & ob.support_mask(state.rho)
        diff = np.abs(P_alg - P_w)[mask]
        assert np.max(diff) < 20.0 * grid.spacing[0] ** 2


def test_momentum_vector_part_contracts_to_momentum():
    """-i Omega^j/2 is the vector omega^j/2; omega^j . a recovers P^j."""
    grid = gd.Grid.line(-6.0, 6.0, 129)
    psi = gd.sample(gd.EulerTexture(theta0=1.1, chi_k=(0.4, 0, 0), sigma=2.0), grid)
    state = ob.SpinorField(grid, psi)
    P = ob.bohm_momentum(state)
    vec = ob.bohm_momentum_vector_part(state)
    a = state.spin_direction
    contracted = (vec[..., 0, :] * a).sum(axis=-1)
    contracted[~state.mask] = 0.0
    assert np.max(np.abs(contracted - P[..., 0])) < 1e-10


def test_spin_norm_is_half():
    grid = gd.Grid.line(-5.0, 5.0, 101)
    psi = gd.sample(gd.EulerTexture(theta_k=(0.5, 0, 0), sigma=1.5), grid)
    state = ob.SpinorField(grid, psi)
    norms = np.linalg.norm(state.spin, axis=-1)
    assert np.max(np.abs(norms[state.mask] - 0.5)) < 1e-12


def test_q_split_plane_phase_texture():
    """Uniform theta gradient, unit amplitude: Q = Q2 = theta_k^2 / 8m."""
    grid = gd.Grid.line(0.0, 8.0 * np.pi, 256, "periodic")
    tk = 0.25
    psi = gd.sample(gd.EulerTexture(theta0=0.0, theta_k=(tk, 0, 0)), grid)
    state = ob.SpinorField(grid, psi)
    qp = ob.quantum_potential(state, m=1.0)
    expect = tk ** 2 / 8.0
    assert np.max(np.abs(qp.Q - expect)) < 1e-3
    assert np.max(np.abs(qp.Q2 - expect)) < 1e-3
    assert np.max(np.abs(qp.Q1)) < 1e-10


def test_q_equals_q1_plus_q2_randomized():
    grid = gd.Grid.line(-8.0, 8.0, 257)
    rng = np.random.default_rng(21)
    h = grid.spacing[0]
    for _ in range(10):
        psi = gd.sample(random_texture(grid, rng), grid)
        state = ob.SpinorField(grid, psi)
        qp = ob.quantum_potential(state, m=1.0)
        mask = state.mask & ob.support_mask(state.rho)
        assert np.max(np.abs(qp.Q - qp.Q1 - qp.Q2)[mask]) < 25.0 * h ** 2


def test_current_split_matches_oracle():
    grid = gd.Grid.line(-8.0, 8.0, 401)
    m = 1.0
    rng = np.random.default_rng(33)
    for _ in range(5):
        psi = gd.sample(random_texture(grid, rng), grid)
        state = ob.SpinorField(grid, psi)
        cur = ob.pauli_current(state, m)
        total = oracle.messiah_current(psi, grid, m)
        mask = state.mask & ob.support_mask(state.rho)
        diff = np.abs(total - (cur.J_conv + cur.J_rot))
        assert np.max(diff[mask]) < 20.0 * grid.spacing[0] ** 2


def test_expectation_of_spin_operator():
    psi1, psi2 = 0.6 + 0.2j, -0.3 + 0.7j
    phi = sp.from_components(psi1, psi2)
    rho_c = sp.cde(phi)
    col = np.array([psi1, psi2])
    for k, name in enumerate(("e1", "e2", "e3")):
        B = alg.Multivector.blade(alg.PAULI, name)
        expect = float(np.vdot(col, oracle.SIGMA[k] @ col).real)
        assert ob.expectation(B, rho_c) == pytest.approx(expect, abs=1e-12)


def test_phase_blindness_of_field_observables():
    """Right phase rotation leaves rho, P, Q, s unchanged to machine precision."""
    grid = gd.Grid.line(-6.0, 6.0, 129)
    psi = gd.sample(gd.EulerTexture(theta0=1.0, chi_k=(0.3, 0, 0), sigma=1.5), grid)
    lam = 0.83
    psi_rot = psi * np.exp(1j * lam)
    s0 = ob.SpinorField(grid, psi)
    s1 = ob.SpinorField(grid, psi_rot)
    assert np.max(np.abs(s0.rho - s1.rho)) < 1e-14
    assert np.max(np.abs(s0.spin - s1.spin)) < 1e-13
    assert np.max(np.abs(ob.bohm_momentum(s0) - ob.bohm_momentum(s1))) < 1e-12
    q0 = ob.quantum_potential(s0, 1.0)
    q1 = ob.quantum_potential(s1, 1.0)
    assert np.max(np.abs(q0.Q - q1.Q)) < 1e-12


def test_continuity_residual_on_exact_evolution():
    grid = gd.Grid.line(-10.0, 10.0, 401)
    series = schrodinger_series(gd.GaussianPacket(sigma=1.0, k=(0.5, 0, 0)),
                                grid, dt=1e-3, n=5, t0=0.5)
    res = ob.continuity_residual(ob.window(series, 2), 1.0)
    state = ob.state_at(series, 2)
    support = state.mask & ob.support_mask(state.rho)
    assert np.max(np.abs(res[support])) < 5.0 * grid.spacing[0] ** 2


def test_spin_transport_needs_pauli():
    grid = gd.Grid.line(-5.0, 5.0, 65)
    series = schrodinger_series(gd.GaussianPacket(), grid)
    with pytest.raises(sp.UnsupportedAlgebraError):
        ob.spin_transport_residual(ob.window(series, 1), 1.0)


def test_quantum_torque_balance_on_exact_solution():
    """dP/dt + grad Q + torque vanishes on an exact Pauli plane-wave pair."""
    grid = gd.Grid.line(0.0, 4.0 * np.pi, 256, "periodic")
    d = gd.PauliSuperposition(k1=(1.0, 0, 0), k2=(-1.0, 0, 0))
    dt = 1e-3
    times = dt * np.arange(3)
    frames = [gd.sample(d, grid, t) for t in times]
    series = gd.SnapshotSeries(times, frames, grid)
    tb = ob.quantum_torque(ob.window(series, 1), 1.0)
    state = ob.state_at(series, 1)
    bal = np.sqrt((tb.residual ** 2).sum(axis=-1))
    assert ob.residual_stats(bal, state.mask)["max_abs"] < \
        30.0 * (grid.spacing[0] ** 2 + dt ** 2)


def test_residual_stats_reports_masked_fraction():
    res = np.array([1.0, 2.0, 3.0, 4.0])
    mask = np.array([True, True, False, False])
    stats = ob.residual_stats(res, mask)
    assert stats["max_abs"] == 2.0
    assert stats["masked_fraction"] == 0.5


class RecordingFrames(list):
    """A frames list that records every index it hands out."""

    def __init__(self, frames):
        super().__init__(frames)
        self.read = set()

    def __getitem__(self, j):
        idx = range(len(self))[j]
        self.read.update(idx if isinstance(idx, range) else [idx])
        return super().__getitem__(j)

    def __iter__(self):
        return (self[j] for j in range(len(self)))


TIME_STENCIL_FUNCTIONS = {
    "compute_observables": lambda series, k: ob.compute_observables(series, k, 1.0),
    "bohm_energy": lambda series, k: ob.bohm_energy(ob.window(series, k)),
    "bohm_energy_weighted": lambda series, k: ob.bohm_energy_weighted(ob.window(series, k)),
    "continuity_residual": lambda series, k: ob.continuity_residual(ob.window(series, k), 1.0),
    "spin_transport_residual":
        lambda series, k: ob.spin_transport_residual(ob.window(series, k), 1.0),
    "quantum_torque": lambda series, k: ob.quantum_torque(ob.window(series, k), 1.0),
}


def recording_pauli_series(n_frames):
    grid = gd.Grid.line(-6.0, 6.0, 65)
    d = gd.EulerTexture(theta0=1.0, theta_k=(0.2, 0, 0), chi_k=(0.3, 0, 0), sigma=1.5,
                        omega_t=0.4)
    times = 1e-3 * np.arange(n_frames)
    return gd.SnapshotSeries(times, RecordingFrames(gd.sample(d, grid, t) for t in times), grid)


@pytest.mark.parametrize("name", sorted(TIME_STENCIL_FUNCTIONS))
def test_time_stencil_reads_only_neighbour_frames(name):
    series = recording_pauli_series(9)
    k = 4
    TIME_STENCIL_FUNCTIONS[name](series, k)
    assert series.frames.read == {k - 1, k, k + 1}


@pytest.mark.parametrize("name", sorted(TIME_STENCIL_FUNCTIONS))
def test_time_stencil_rejects_boundary_frames(name):
    series = recording_pauli_series(3)
    for k in (0, 2):
        with pytest.raises(gd.GridError):
            TIME_STENCIL_FUNCTIONS[name](series, k)


def test_compute_observables_converts_each_frame_once(monkeypatch):
    series = recording_pauli_series(9)
    frames = list(series.frames)
    k = 4
    converted, spins = [], []
    g_from_components, spin_field_from_g = ob.g_from_components, ob.spin_field_from_g

    def counting_g(psi1, psi2):
        converted.extend(j for j, f in enumerate(frames) if np.shares_memory(psi1, f))
        return g_from_components(psi1, psi2)

    def counting_spin(g):
        spins.append(g)
        return spin_field_from_g(g)

    monkeypatch.setattr(ob, "g_from_components", counting_g)
    monkeypatch.setattr(ob, "spin_field_from_g", counting_spin)
    obs = ob.compute_observables(series, k, 1.0)
    assert sorted(converted) == [k - 1, k, k + 1]
    assert len(spins) == 3
    assert obs.window.cur.psi is frames[k]


def test_compute_observables_bundle():
    grid = gd.Grid.line(-8.0, 8.0, 201)
    series = schrodinger_series(gd.GaussianPacket(sigma=1.0), grid, n=3, t0=0.2)
    obs = ob.compute_observables(series, 1, 1.0)
    assert obs.s is None
    assert set(obs.residuals) == {"qhj", "continuity"}
    assert obs.P.shape == grid.shape + (3,)
    assert obs.v.shape == grid.shape + (3,)


def schrodinger_packet_series():
    grid = gd.Grid.line(-8.0, 8.0, 128)
    return schrodinger_series(gd.GaussianPacket(sigma=1.0, x0=(0.5, 0.0, 0.0), k=(1.3, 0.0, 0.0)),
                              grid, t0=0.2)


def test_schrodinger_spin_bivector_is_half_e():
    """S = U e ~U / 2 = e/2 at every point: e is central and U ~U = 1."""
    state = ob.state_at(schrodinger_packet_series(), 1)
    S = state.spin_bivector_coeffs
    assert S.shape == state.grid.shape + (2,)
    assert np.array_equal(S, np.broadcast_to([0.0, 0.5], S.shape))


def test_schrodinger_bohm_bilinear_matches_e_omega_reference():
    """-<Omega S>_0 and <Omega_t S>_0 equal -<e Omega>_0/2 and <e Omega_t>_0/2 bit for bit."""
    win = ob.window(schrodinger_packet_series(), 1)
    state = win.cur
    e = alg.central_unit(alg.SCHRODINGER).coeffs
    omega_t = 2.0 * alg.gp_coeffs(alg.SCHRODINGER, win.d_dt(lambda st: st.g),
                                  alg.conj_coeffs(alg.SCHRODINGER, state.g))
    P_ref = np.zeros(state.grid.shape + (3,))
    P_ref[..., 0] = -0.5 * alg.gp_coeffs(alg.SCHRODINGER, e, state.omega[0])[..., 0]
    P_ref[~state.mask] = 0.0
    E_ref = 0.5 * alg.gp_coeffs(alg.SCHRODINGER, e, omega_t)[..., 0]
    E_ref[~state.mask] = 0.0
    assert np.array_equal(ob.bohm_momentum(state), P_ref)
    assert np.array_equal(ob.bohm_energy(win), E_ref)


def full_algebra_bilinears(win):
    """P, E and the Pauli vector part with U embedded in every blade of the
    algebra and each product taken over the whole Cayley table."""
    state = win.cur
    sig, grid = state.signature, state.grid
    i = alg.central_unit(sig).coeffs
    u = sp.even_field_coeffs(sig, state.g)
    u_conj = alg.conj_coeffs(sig, u)
    if state.is_pauli:
        v = np.zeros(grid.shape + (8,))
        v[..., 1:4] = state.spin
        S = alg.gp_coeffs(sig, i, v)
    else:
        S = np.broadcast_to(0.5 * i, grid.shape + (2,))
    P = np.zeros(grid.shape + (3,))
    vec = np.zeros(grid.shape + (3, 3))
    for ax in range(grid.dim):
        omega = 2.0 * alg.gp_coeffs(sig, gd.deriv(u, grid, ax), u_conj)
        P[..., ax] = -alg.gp_coeffs(sig, omega, S)[..., 0]
        vec[..., ax, :] = -0.5 * alg.gp_coeffs(sig, i, omega)[..., 1:4]
    P[~state.mask] = 0.0
    du_dt = (sp.even_field_coeffs(sig, win.next.g) - sp.even_field_coeffs(sig, win.prev.g)) \
        / (2.0 * win.dt)
    E = alg.gp_coeffs(sig, 2.0 * alg.gp_coeffs(sig, du_dt, u_conj), S)[..., 0]
    E[~state.mask] = 0.0
    return P, E, vec


def pauli_texture_3d_series():
    grid = gd.Grid((gd.Axis(0.0, 4.0 * np.pi, 12),) * 3, "periodic")
    d = gd.EulerTexture(theta0=1.2, theta_k=(0.5, -0.5, 0.5), phi0=0.3, phi_k=(0.5, 0.0, -0.5),
                        chi0=-0.7, chi_k=(0.0, 0.5, 0.0), omega_t=0.4)
    times = 0.3 + 1e-3 * np.arange(3)
    return gd.SnapshotSeries(times, [gd.sample(d, grid, t) for t in times], grid)


@pytest.mark.parametrize("make_series", [schrodinger_packet_series, pauli_texture_3d_series],
                         ids=("schrodinger_1d", "pauli_3d"))
def test_subalgebra_bilinears_equal_the_full_algebra_route(make_series):
    win = ob.window(make_series(), 1)
    P_ref, E_ref, vec_ref = full_algebra_bilinears(win)
    assert np.array_equal(ob.bohm_momentum(win.cur), P_ref)
    assert np.array_equal(ob.bohm_energy(win), E_ref)
    assert np.any(E_ref != 0.0) and np.any(P_ref != 0.0)
    if win.cur.is_pauli:
        assert np.array_equal(ob.bohm_momentum_vector_part(win.cur), vec_ref)


STENCILS = ("deriv", "gradient", "laplacian", "divergence", "curl", "time_derivative")


def test_compute_observables_applies_each_stencil_to_each_input_once(monkeypatch):
    """P, grad s and lap s are derived once per frame and shared by every consumer."""
    calls = []

    def data_key(arg):
        if isinstance(arg, np.ndarray):
            return arg.shape, arg.dtype.str, arg.tobytes()
        return arg

    for name in STENCILS:
        def recording(*args, _name=name, _stencil=getattr(ob, name)):
            calls.append((_name,) + tuple(data_key(a) for a in args))
            return _stencil(*args)
        monkeypatch.setattr(ob, name, recording)
    ob.compute_observables(pauli_texture_3d_series(), 1, 1.0)
    assert {c[0] for c in calls} == set(STENCILS)
    assert len(set(calls)) == len(calls)


def test_bohm_momentum_is_the_frames_read_only_P():
    state = ob.state_at(pauli_texture_3d_series(), 1)
    P = ob.bohm_momentum(state)
    assert P is state.P
    for shared in (P, state.grad_spin, state.lap_spin):
        with pytest.raises(ValueError):
            shared[0, 0, 0, 0] = 1.0
