"""Acceptance gate: ten criteria, one printed pass/fail line each.

Tolerance constants of the form C were calibrated once against the observed
stencil error on the committed grids and are fixed here; every bound is a
multiple of h^2 (or h^2 + dt^2) as appropriate for the second order
discretization.
"""

import time

import numpy as np
import pytest

from cliffordqm import algebra as alg
from cliffordqm import dynamics as dy
from cliffordqm import grids as gd
from cliffordqm import observables as ob
from cliffordqm import oracle
from cliffordqm import spinors as sp

RNG = np.random.default_rng(624)


def report(num, title, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {num:02d}] {title}: {status} ({detail})")
    assert passed, f"criterion {num} failed: {detail}"


def random_pauli_pair(rng):
    vals = rng.standard_normal(4)
    return complex(vals[0], vals[1]), complex(vals[2], vals[3])


def random_texture(rng):
    return gd.EulerTexture(
        theta0=float(rng.uniform(0.4, np.pi - 0.4)),
        theta_k=(float(rng.uniform(-0.3, 0.3)), 0.0, 0.0),
        phi0=float(rng.uniform(-1.0, 1.0)),
        phi_k=(float(rng.uniform(-0.3, 0.3)), 0.0, 0.0),
        chi_k=(float(rng.uniform(-0.3, 0.3)), 0.0, 0.0),
        sigma=float(rng.uniform(1.2, 2.0)),
        omega_t=float(rng.uniform(-0.5, 0.5)),
    )


def test_criterion_01_algebra_kernel():
    t0 = time.perf_counter()
    worst = 0.0
    for sig in (alg.SCHRODINGER, alg.PAULI):
        unit = alg.central_unit(sig)
        for _ in range(200):
            a = alg.Multivector(sig, RNG.standard_normal(sig.dim))
            b = alg.Multivector(sig, RNG.standard_normal(sig.dim))
            c = alg.Multivector(sig, RNG.standard_normal(sig.dim))
            worst = max(worst, ((a * b) * c - a * (b * c)).norm_inf())
            worst = max(worst, ((a * b).conjugate() - b.conjugate() * a.conjugate()).norm_inf())
            worst = max(worst, (unit * a - a * unit).norm_inf())
            lhs = np.asarray(oracle.matrix_rep(a * b))
            rhs = np.asarray(oracle.matrix_rep(a)) @ np.asarray(oracle.matrix_rep(b)) \
                if sig == alg.PAULI \
                else np.asarray(oracle.matrix_rep(a) * oracle.matrix_rep(b))
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    report(1, "algebra kernel", ok, f"max_err={worst:.2e} limit=1e-12 t={elapsed:.2f}s")


def test_criterion_02_spinor_bridge():
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        psi1, psi2 = random_pauli_pair(RNG)
        phi = sp.from_components(psi1, psi2)
        q1, q2 = sp.to_components(phi)
        worst = max(worst, abs(q1 - psi1), abs(q2 - psi2))
        ang = sp.to_euler(phi)
        back = sp.from_euler(ang)
        b1, b2 = sp.to_components(back)
        # Euler round trip restores the components up to numerical error
        worst = max(worst, abs(b1 - psi1), abs(b2 - psi2))
        rho_c = sp.cde(phi)
        gap = np.max(np.abs(oracle.matrix_rep(rho_c.body)
                            - oracle.density_matrix(psi1, psi2)))
        worst = max(worst, float(gap))
        a_def, _ = sp.spin_vector(phi)
        a_g = sp.spin_field_from_g(phi.g)
        a_psi = oracle.spin_direction(np.array([psi1, psi2]))
        worst = max(worst, float(np.max(np.abs(a_g - a_psi))),
                    float(np.max(np.abs(a_def - a_psi))))
        rho = abs(psi1) ** 2 + abs(psi2) ** 2
        worst = max(worst, abs(a_psi[2] - (abs(psi1) ** 2 - abs(psi2) ** 2) / rho))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    report(2, "spinor bridge", ok, f"max_err={worst:.2e} limit=1e-12 t={elapsed:.2f}s")


def test_criterion_03_phase_blindness():
    worst = 0.0
    # pointwise invariants under the right phase rotation
    for _ in range(50):
        psi1, psi2 = random_pauli_pair(RNG)
        phi = sp.from_components(psi1, psi2)
        lam = float(RNG.uniform(-np.pi, np.pi))
        rot = sp.phase_rotate(phi, lam)
        worst = max(worst, (sp.cde(phi).body - sp.cde(rot).body).norm_inf())
        a0, _ = sp.spin_vector(phi)
        a1, _ = sp.spin_vector(rot)
        worst = max(worst, float(np.max(np.abs(a0 - a1))))
        for name in ("e1", "e2", "e3", "e123"):
            B = alg.Multivector.blade(alg.PAULI, name)
            worst = max(worst, abs(ob.expectation(B, sp.cde(phi))
                                   - ob.expectation(B, sp.cde(rot))))
    # field-level Bohm observables under the same rotation (a global phase)
    grid = gd.Grid.line(-8.0, 8.0, 193)
    d = random_texture(RNG)
    dt = 1e-3
    times = gd.StepTimes(dt, range(3))
    frames = [gd.sample(d, grid, t) for t in times]
    lam = 0.9
    frames_rot = [f * np.exp(1j * lam) for f in frames]
    s_a = gd.SnapshotSeries(times, frames, grid)
    s_b = gd.SnapshotSeries(times, frames_rot, grid)
    oa = ob.compute_observables(s_a, 1, 1.0)
    obs_b = ob.compute_observables(s_b, 1, 1.0)
    for x, y in ((oa.P, obs_b.P), (oa.E, obs_b.E), (oa.Q, obs_b.Q),
                 (oa.s, obs_b.s), (oa.v, obs_b.v)):
        worst = max(worst, float(np.max(np.abs(x - y))))
    ok = worst <= 1e-12
    report(3, "phase blindness", ok, f"max_err={worst:.2e} limit=1e-12")


def test_criterion_04_schrodinger_identities():
    t0 = time.perf_counter()
    m = 1.0
    C = 1.0

    def harmonic_run(n, dt, steps):
        grid = gd.Grid.line(-8.0, 8.0, n)
        x = grid.coords(0)
        V = 0.5 * x ** 2
        psi0 = gd.sample(gd.HarmonicGroundState(), grid)
        psi0 /= dy.norm(psi0, grid)
        cfg = dy.EvolutionConfig(m=m, dt=dt, steps=steps, V=V)
        series = dy.evolve(psi0, grid, cfg)
        k = steps // 2
        obs = ob.compute_observables(series, k, m, V)
        state = ob.state_at(series, k)
        support = state.mask & ob.support_mask(state.rho)
        qhj = ob.residual_stats(obs.residuals["qhj"], support)
        cont = ob.residual_stats(obs.residuals["continuity"], support)
        return grid.spacing[0], qhj["max_abs"], cont["max_abs"]

    h, qhj_err, cont_err = harmonic_run(512, 5e-4, 1000)
    bound = 5.0 * C * h ** 2
    ok_resid = qhj_err <= bound and cont_err <= bound

    # three-level refinement on exactly sampled stationary frames with dt
    # scaled as h^2; evolved frames share the discrete operators with the
    # residual instruments and converge faster than the stencils themselves,
    # so the slope is measured where the stencil error dominates
    def sampled_residual(n, dt):
        grid = gd.Grid.line(-8.0, 8.0, n)
        x = grid.coords(0)
        V = 0.5 * x ** 2
        times = gd.StepTimes(dt, range(3))
        frames = [gd.sample(gd.HarmonicGroundState(), grid, t) for t in times]
        series = gd.SnapshotSeries(times, frames, grid)
        obs = ob.compute_observables(series, 1, m, V)
        state = ob.state_at(series, 1)
        support = state.mask & ob.support_mask(state.rho)
        return ob.residual_stats(obs.residuals["qhj"], support)["max_abs"]

    errs = [sampled_residual(512 * 2 ** l, 4e-4 / 4 ** l) for l in range(3)]
    slopes = [float(np.log2(a / b)) for a, b in zip(errs, errs[1:])]
    ok_slope = all(1.8 <= s <= 2.2 for s in slopes)

    elapsed = time.perf_counter() - t0
    ok = ok_resid and ok_slope and elapsed < 30.0
    report(4, "Schrodinger identities", ok,
           f"qhj={qhj_err:.2e} cont={cont_err:.2e} bound={bound:.2e} "
           f"slopes={[f'{s:.2f}' for s in slopes]} t={elapsed:.1f}s")


def test_criterion_05_pauli_triple_agreement():
    t0 = time.perf_counter()
    m = 1.0
    C = 25.0
    grid = gd.Grid.line(-8.0, 8.0, 257)
    h = grid.spacing[0]
    bound = C * h ** 2
    dt = 1e-3
    worst_p, worst_e = 0.0, 0.0
    for _ in range(50):
        d = random_texture(RNG)
        times = gd.StepTimes(dt, range(3))
        series = gd.SnapshotSeries(times, [gd.sample(d, grid, t) for t in times], grid)
        state = ob.state_at(series, 1)
        support = state.mask & ob.support_mask(state.rho)
        P_alg = state.P
        P_w = ob.bohm_momentum_weighted(state)
        P_orc = oracle.momentum_density(state.psi, grid) \
            / np.where(support, state.rho, 1.0)[..., None]
        for diff in (P_alg - P_w, P_alg - P_orc):
            worst_p = max(worst_p, float(np.max(np.abs(diff)[support])))
        win = ob.window(series, 1)
        E_alg = ob.bohm_energy(win)
        E_w = ob.bohm_energy_weighted(win)
        E_orc = oracle.energy_density(tuple(series.frames), dt) \
            / np.where(support, state.rho, 1.0)
        for diff in (E_alg - E_w, E_alg - E_orc):
            worst_e = max(worst_e, float(np.max(np.abs(diff)[support])))

    # evolved two-momentum superposition
    pg = gd.Grid.line(0.0, 4.0 * np.pi, 256, "periodic")
    psi0 = gd.sample(gd.PauliSuperposition(k1=(1.0, 0.0, 0.0), k2=(-1.0, 0.0, 0.0)), pg)
    psi0 /= dy.norm(psi0, pg)
    cfg = dy.EvolutionConfig(m=m, dt=1e-3, steps=100, scheme="split-step")
    series = dy.evolve(psi0, pg, cfg)
    k = 50
    state = ob.state_at(series, k)
    P_alg = state.P
    P_w = ob.bohm_momentum_weighted(state)
    P_orc = oracle.momentum_density(state.psi, pg) / state.rho[..., None]
    worst_p = max(worst_p, float(np.max(np.abs(P_alg - P_w))),
                  float(np.max(np.abs(P_alg - P_orc))))
    win = ob.window(series, k)
    E_alg = ob.bohm_energy(win)
    E_w = ob.bohm_energy_weighted(win)
    E_orc = oracle.energy_density(
        (series.frames[k - 1], series.frames[k], series.frames[k + 1]),
        series.dt) / state.rho
    worst_e = max(worst_e, float(np.max(np.abs(E_alg - E_w))),
                  float(np.max(np.abs(E_alg - E_orc))))

    elapsed = time.perf_counter() - t0
    ok = worst_p <= bound and worst_e <= bound and elapsed < 60.0
    report(5, "Pauli triple agreement", ok,
           f"P_gap={worst_p:.2e} E_gap={worst_e:.2e} bound={bound:.2e} t={elapsed:.1f}s")


def test_criterion_06_quantum_potential_split():
    C = 25.0
    grid = gd.Grid.line(-8.0, 8.0, 257)
    h = grid.spacing[0]
    bound = C * h ** 2
    worst_split = 0.0
    for _ in range(25):
        psi = gd.sample(random_texture(RNG), grid)
        state = ob.SpinorField(grid, psi)
        qp = ob.quantum_potential(state, m=1.0)
        support = state.mask & ob.support_mask(state.rho)
        worst_split = max(worst_split,
                          float(np.max(np.abs(qp.Q - qp.Q1 - qp.Q2)[support])))

    sigma = 1.0
    gg = gd.Grid.line(-8.0, 8.0, 401)
    psi = gd.sample(gd.GaussianPacket(sigma=sigma), gg)
    state = ob.SpinorField(gg, psi)
    qp = ob.quantum_potential(state, m=1.0)
    x = gg.coords(0)
    exact = 1.0 / (4.0 * sigma ** 2) - x ** 2 / (8.0 * sigma ** 4)
    support = state.mask & ob.support_mask(state.rho)
    gauss_err = float(np.max(np.abs(qp.Q - exact)[support]))
    gauss_bound = C * gg.spacing[0] ** 2

    ok = worst_split <= bound and gauss_err <= gauss_bound
    report(6, "quantum potential split", ok,
           f"split_gap={worst_split:.2e} bound={bound:.2e} "
           f"gaussian_err={gauss_err:.2e} gaussian_bound={gauss_bound:.2e}")


def test_criterion_07_conservation():
    C = 1.0
    m = 1.0
    grid = gd.Grid.line(-12.0, 12.0, 384)
    d = gd.EulerTexture(theta0=1.1, theta_k=(0.25, 0, 0), phi_k=(0.2, 0, 0),
                        chi_k=(0.5, 0, 0), sigma=1.5)
    psi0 = gd.sample(d, grid)
    psi0 /= dy.norm(psi0, grid)
    dt = 5e-4
    cfg = dy.EvolutionConfig(m=m, dt=dt, steps=200)
    series = dy.evolve(psi0, grid, cfg)
    k = 100
    state = ob.state_at(series, k)
    support = state.mask & ob.support_mask(state.rho)
    h = grid.spacing[0]
    bound = 5.0 * C * (h ** 2 + dt ** 2)

    win = ob.window(series, k)
    cont = ob.residual_stats(ob.continuity_residual(win, ob.pauli_current(win.cur, m).J_conv),
                             support)
    spin_res = ob.spin_transport_residual(win, m)
    spin = ob.residual_stats(np.sqrt((spin_res ** 2).sum(axis=-1)), support)

    norms = np.linalg.norm(state.spin, axis=-1)
    drift = float(np.max(np.abs(norms - 0.5)[support]))

    ok = cont["max_abs"] <= bound and spin["max_abs"] <= bound and drift <= bound
    report(7, "conservation laws", ok,
           f"continuity={cont['max_abs']:.2e} spin_transport={spin['max_abs']:.2e} "
           f"spin_norm_drift={drift:.2e} bound={bound:.2e}")


def test_criterion_08_current_decomposition():
    C = 25.0
    m = 1.0
    grid = gd.Grid.line(-8.0, 8.0, 257)
    h = grid.spacing[0]
    bound = C * h ** 2
    worst = 0.0
    for _ in range(10):
        psi = gd.sample(random_texture(RNG), grid)
        state = ob.SpinorField(grid, psi)
        cur = ob.pauli_current(state, m)
        total = oracle.messiah_current(psi, grid, m)
        support = state.mask & ob.support_mask(state.rho)
        gap = np.sqrt(((total - cur.J_conv - cur.J_rot) ** 2).sum(axis=-1))
        worst = max(worst, float(np.max(gap[support])))
        # m rho v = rho P_B + curl(rho s), verified as stated
        P = state.P
        lhs = m * state.rho[..., None] * cur.v
        rhs = state.rho[..., None] * P + gd.curl(state.rho[..., None] * state.spin, grid)
        worst = max(worst, float(np.max(np.abs(lhs - rhs)[support])))
    ok = worst <= bound
    report(8, "current decomposition", ok, f"max_gap={worst:.2e} bound={bound:.2e}")


def test_criterion_09_bohm_trajectories():
    t0 = time.perf_counter()
    m, sigma = 1.0, 1.0
    grid = gd.Grid.line(-16.0, 16.0, 512)
    psi0 = gd.sample(gd.GaussianPacket(sigma=sigma), grid)
    psi0 /= dy.norm(psi0, grid)
    t_final = 2.0 * m * sigma ** 2
    dt = 1e-3
    steps = int(round(t_final / dt))
    cfg = dy.EvolutionConfig(m=m, dt=dt, steps=steps)
    series = dy.evolve(psi0, grid, cfg)

    stride = 10
    stack = np.stack(series.frames[::stride], axis=grid.dim)
    v_series, masks = ob.velocity_series(grid, stack, series.times[::stride], m)

    seeds = np.linspace(-2.0, 2.0, 32).reshape(-1, 1)
    traj = dy.integrate_trajectories(v_series, seeds, masks)
    factor = np.sqrt(1.0 + (t_final / (2.0 * m * sigma ** 2)) ** 2)
    finals = traj.paths[-1, :, 0]
    expect = seeds[:, 0] * factor
    nonzero = np.abs(seeds[:, 0]) > 0.1
    rel = float(np.max(np.abs(finals - expect)[nonzero] / np.abs(expect)[nonzero]))
    crossing_ok = dy.ordering_preserved(traj.paths)
    elapsed = time.perf_counter() - t0
    ok = rel <= 0.02 and crossing_ok and not traj.truncated.any() and elapsed < 60.0
    report(9, "Bohm trajectories", ok,
           f"scaling_rel_err={rel:.2e} limit=2e-2 non_crossing={crossing_ok} "
           f"t={elapsed:.1f}s")


def test_criterion_10_schrodinger_in_pauli_nesting():
    m = 1.0
    grid = gd.Grid.line(-10.0, 10.0, 257)
    d = gd.GaussianPacket(sigma=1.0, k=(0.7, 0, 0), m=m)
    dt = 1e-3
    times = gd.StepTimes(dt, range(400, 403))  # t = 0.4, 0.401, 0.402
    frames_s = [gd.sample(d, grid, t) for t in times]
    frames_p = [np.stack([f, np.zeros_like(f)], axis=-1) for f in frames_s]
    ser_s = gd.SnapshotSeries(times, frames_s, grid)
    ser_p = gd.SnapshotSeries(times, frames_p, grid)

    st_s = ob.state_at(ser_s, 1)
    st_p = ob.state_at(ser_p, 1)
    P_gap = float(np.max(np.abs(st_s.P - st_p.P)))
    E_gap = float(np.max(np.abs(ob.bohm_energy(ob.window(ser_s, 1))
                                - ob.bohm_energy(ob.window(ser_p, 1)))))
    qp_s = ob.quantum_potential(st_s, m)
    qp_p = ob.quantum_potential(st_p, m)
    # the Pauli Q is compared through its Q1 + Q2 split, evaluated with the
    # same stencils as the Schrodinger amplitude form
    Q_gap = float(np.max(np.abs(qp_s.Q - (qp_p.Q1 + qp_p.Q2))))
    Q2_max = float(np.max(np.abs(qp_p.Q2)))
    worst = max(P_gap, E_gap, Q_gap, Q2_max)
    ok = worst <= 1e-10
    report(10, "Schrodinger-in-Pauli nesting", ok,
           f"P_gap={P_gap:.2e} E_gap={E_gap:.2e} Q_gap={Q_gap:.2e} "
           f"Q2_max={Q2_max:.2e} limit=1e-10")
