"""Time evolution schemes and Bohm trajectory integration."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.interpolate import RegularGridInterpolator
from scipy.linalg import solve_banded

from cliffordqm import dynamics as dy
from cliffordqm import grids as gd
from cliffordqm import observables as ob


def test_config_validation():
    with pytest.raises(ValueError):
        dy.EvolutionConfig(m=1.0, dt=-0.1, steps=10)
    with pytest.raises(ValueError):
        dy.EvolutionConfig(m=1.0, dt=0.1, steps=0)
    with pytest.raises(ValueError):
        dy.EvolutionConfig(m=1.0, dt=0.1, steps=10, scheme="leapfrog")
    with pytest.raises(ValueError):
        dy.EvolutionConfig(m=1.0, dt=np.inf, steps=10)
    with pytest.raises(ValueError):
        dy.EvolutionConfig(m=np.inf, dt=0.1, steps=10)


@pytest.mark.parametrize("scheme, boundary", [("crank-nicolson", "clamped"),
                                              ("split-step", "periodic")])
def test_evolve_rejects_non_finite_input(scheme, boundary):
    grid = gd.Grid.line(-6.0, 6.0, 32, boundary)
    psi = gd.sample(gd.GaussianPacket(), grid)
    cfg = dy.EvolutionConfig(m=1.0, dt=1e-3, steps=2, scheme=scheme)
    bad_psi = psi.copy()
    bad_psi[5] = np.nan
    with pytest.raises(gd.GridError, match="psi0"):
        dy.evolve(bad_psi, grid, cfg)
    V = np.zeros(grid.shape)
    V[7] = np.inf
    cfg_v = dy.EvolutionConfig(m=1.0, dt=1e-3, steps=2, V=V, scheme=scheme)
    with pytest.raises(gd.GridError, match="potential"):
        dy.evolve(psi, grid, cfg_v)


def test_crank_nicolson_rejects_an_overflowing_matrix():
    grid = gd.Grid.line(-6.0, 6.0, 32)
    psi = gd.sample(gd.GaussianPacket(), grid)
    cfg = dy.EvolutionConfig(m=1e-320, dt=1e-3, steps=2)
    with pytest.warns(UserWarning), pytest.raises(gd.GridError, match="not finite"):
        dy.evolve(psi, grid, cfg)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_split_step_rejects_an_overflowing_kinetic_phase():
    grid = gd.Grid.line(-6.0, 6.0, 64, "periodic")
    psi = gd.sample(gd.GaussianPacket(), grid)
    cfg = dy.EvolutionConfig(m=1e-320, dt=1e-3, steps=2, scheme="split-step")
    with pytest.warns(UserWarning), pytest.raises(gd.GridError, match="not finite"):
        dy.evolve(psi, grid, cfg)


def test_scheme_boundary_pairing():
    cfg = dy.EvolutionConfig(m=1.0, dt=1e-3, steps=1)
    periodic = gd.Grid.line(0.0, 1.0, 16, "periodic")
    clamped = gd.Grid.line(0.0, 1.0, 16)
    psi = np.ones(16, dtype=complex)
    with pytest.raises(gd.GridError):
        dy.evolve(psi, periodic, cfg)  # crank-nicolson needs clamped
    cfg_ss = dy.EvolutionConfig(m=1.0, dt=1e-3, steps=1, scheme="split-step")
    with pytest.raises(gd.GridError):
        dy.evolve(psi, clamped, cfg_ss)


def test_crank_nicolson_unitarity():
    grid = gd.Grid.line(-10.0, 10.0, 256)
    psi0 = gd.sample(gd.GaussianPacket(sigma=1.0, k=(2.0, 0, 0)), grid)
    psi0 /= dy.norm(psi0, grid)
    x = grid.coords(0)
    cfg = dy.EvolutionConfig(m=1.0, dt=2e-3, steps=200, V=0.5 * x ** 2)
    series = dy.evolve_schrodinger(psi0, grid, cfg)
    norms = [dy.norm(f, grid) for f in series.frames]
    assert np.max(np.abs(np.array(norms) - 1.0)) < 1e-12
    assert len(series) == 201


def test_harmonic_ground_state_phase():
    """1000 steps leave the ground state invariant up to exp(-i t/2)."""
    grid = gd.Grid.line(-8.0, 8.0, 512)
    psi0 = gd.sample(gd.HarmonicGroundState(), grid)
    psi0 /= dy.norm(psi0, grid)
    x = grid.coords(0)
    cfg = dy.EvolutionConfig(m=1.0, dt=5e-4, steps=1000, V=0.5 * x ** 2)
    series = dy.evolve_schrodinger(psi0, grid, cfg)
    t = series.times[-1]
    expect = psi0 * np.exp(-0.5j * t)
    # density stays put to high accuracy; phase picks up the O(h^2, dt^2) bias
    drho = np.abs(np.abs(series.frames[-1]) ** 2 - np.abs(psi0) ** 2)
    assert np.max(drho) < 1e-4
    overlap = np.vdot(expect, series.frames[-1]) * grid.spacing[0]
    assert abs(abs(overlap) - 1.0) < 1e-8


def test_split_step_plane_wave_exact():
    grid = gd.Grid.line(0.0, 2.0 * np.pi, 64, "periodic")
    k, m = 3.0, 1.0
    psi0 = gd.sample(gd.PlaneWave(k=(k, 0, 0), m=m), grid)
    cfg = dy.EvolutionConfig(m=m, dt=5e-3, steps=100, scheme="split-step")
    series = dy.evolve(psi0, grid, cfg)
    exact = gd.sample(gd.PlaneWave(k=(k, 0, 0), m=m), grid, series.times[-1])
    # plane waves are eigenmodes of the FFT kinetic step: exact propagation
    assert np.max(np.abs(series.frames[-1] - exact)) < 1e-10


def test_free_gaussian_matches_closed_form():
    grid = gd.Grid.line(-16.0, 16.0, 512)
    psi0 = gd.sample(gd.GaussianPacket(sigma=1.0), grid)
    psi0 /= dy.norm(psi0, grid)
    cfg = dy.EvolutionConfig(m=1.0, dt=5e-4, steps=800)
    series = dy.evolve_schrodinger(psi0, grid, cfg)
    exact = gd.sample(gd.GaussianPacket(sigma=1.0), grid, series.times[-1])
    exact /= dy.norm(exact, grid)
    err = np.max(np.abs(np.abs(series.frames[-1]) ** 2 - np.abs(exact) ** 2))
    assert err < 5e-4


def test_pauli_evolution_keeps_spin_norm():
    grid = gd.Grid.line(-12.0, 12.0, 256)
    psi0 = gd.sample(gd.EulerTexture(theta0=1.0, theta_k=(0.2, 0, 0), sigma=1.5), grid)
    psi0 /= dy.norm(psi0, grid)
    cfg = dy.EvolutionConfig(m=1.0, dt=1e-3, steps=100)
    series = dy.evolve_pauli(psi0, grid, cfg)
    state = ob.SpinorField(grid, series.frames[-1])
    norms = np.linalg.norm(state.spin, axis=-1)
    assert np.max(np.abs(norms[state.mask] - 0.5)) < 1e-12


def test_normalization_guard():
    grid = gd.Grid.line(-8.0, 8.0, 64)
    psi0 = 2.0 * gd.sample(gd.GaussianPacket(), grid)
    cfg = dy.EvolutionConfig(m=1.0, dt=1e-3, steps=1)
    with pytest.raises(ValueError):
        dy.evolve_schrodinger(psi0, grid, cfg)


def test_accuracy_warning():
    grid = gd.Grid.line(-8.0, 8.0, 512)
    psi0 = gd.sample(gd.GaussianPacket(), grid)
    psi0 /= dy.norm(psi0, grid)
    cfg = dy.EvolutionConfig(m=1.0, dt=0.1, steps=1)
    with pytest.warns(UserWarning):
        dy.evolve_schrodinger(psi0, grid, cfg)


def test_trajectories_uniform_flow():
    grid = gd.Grid.line(0.0, 10.0, 51)
    v = np.ones(grid.shape + (1,))
    times = np.linspace(0.0, 2.0, 21)
    series = gd.SnapshotSeries(times, [v] * 21, grid)
    traj = dy.integrate_trajectories(series, [[1.0], [2.0], [3.0]])
    assert np.allclose(traj.paths[-1, :, 0], [3.0, 4.0, 5.0], atol=1e-12)
    assert not traj.truncated.any()


def test_trajectories_linear_velocity_exact_growth():
    """v(x) = x integrates to x0 exp(t) with 4th order accuracy."""
    grid = gd.Grid.line(0.1, 40.0, 400)
    x = grid.coords(0)
    v = x[:, None].copy()
    times = np.linspace(0.0, 1.0, 101)
    series = gd.SnapshotSeries(times, [v] * 101, grid)
    traj = dy.integrate_trajectories(series, [[1.0], [2.0]])
    expect = np.array([np.exp(1.0), 2.0 * np.exp(1.0)])
    assert np.max(np.abs(traj.paths[-1, :, 0] - expect)) < 1e-6


def test_trajectory_truncation_at_edge():
    grid = gd.Grid.line(0.0, 1.0, 11)
    v = np.ones(grid.shape + (1,))
    times = np.linspace(0.0, 2.0, 21)
    series = gd.SnapshotSeries(times, [v] * 21, grid)
    traj = dy.integrate_trajectories(series, [[0.5]])
    assert traj.truncated[0]
    # once clamped the path stays at the boundary
    assert traj.paths[-1, 0, 0] == pytest.approx(1.0)


def test_ordering_preserved_helper():
    good = np.zeros((3, 4, 1))
    good[:, :, 0] = [[0, 1, 2, 3], [0.1, 1.1, 2.1, 3.1], [0.2, 1.2, 2.2, 3.2]]
    assert dy.ordering_preserved(good)
    bad = good.copy()
    bad[2, 0, 0] = 5.0
    assert not dy.ordering_preserved(bad)


def test_trajectory_csv(tmp_path):
    grid = gd.Grid.line(0.0, 10.0, 11)
    v = np.ones(grid.shape + (1,))
    times = np.linspace(0.0, 1.0, 3)
    series = gd.SnapshotSeries(times, [v] * 3, grid)
    traj = dy.integrate_trajectories(series, [[1.0]])
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "seed_id,t,x,truncated_flag"
    assert len(lines) == 4
    special = dy.TrajectorySet(
        seeds=np.array([[0.0, 1.0], [2.0, 3.0]]),
        times=np.array([-0.0, 0.1, 1e-300]),
        paths=np.array([[[0.0, 1.0], [2.0, 3.0]],
                        [[-0.0, np.nan], [np.inf, 1 / 3]],
                        [[1e-300, -np.inf], [2.5, 1e16]]]),
        truncated=np.array([False, True]))
    special.to_csv(path)
    assert path.read_bytes() == (
        b"seed_id,t,x,y,truncated_flag\r\n"
        b"0,-0,0,1,0\r\n"
        b"0,0.10000000000000001,-0,nan,0\r\n"
        b"0,1e-300,1e-300,-inf,0\r\n"
        b"1,-0,2,3,1\r\n"
        b"1,0.10000000000000001,inf,0.33333333333333331,1\r\n"
        b"1,1e-300,2.5,10000000000000000,1\r\n")


@pytest.mark.parametrize("scheme, boundary, pauli", [
    ("crank-nicolson", "clamped", False),
    ("crank-nicolson", "clamped", True),
    ("split-step", "periodic", True),
])
def test_evolve_frames_alias_neither_psi0_nor_each_other(scheme, boundary, pauli):
    grid = gd.Grid.line(-6.0, 6.0, 64, boundary)
    psi0 = gd.sample(gd.GaussianPacket(sigma=1.0, k=(1.0, 0, 0)), grid)
    if pauli:
        psi0 = np.stack([psi0, 0.5j * psi0], axis=-1)
    cfg = dy.EvolutionConfig(m=1.0, dt=1e-3, steps=4, V=0.1 * grid.coords(0) ** 2,
                             scheme=scheme)
    series = dy.evolve(psi0, grid, cfg)
    kept = psi0.copy()
    psi0[...] = 0.0
    assert np.array_equal(series.frames[0], kept)
    for i, a in enumerate(series.frames):
        for b in series.frames[i + 1:]:
            assert not np.shares_memory(a, b)
    if scheme == "crank-nicolson":
        for frame in series.frames:
            assert frame.flags.c_contiguous and frame.flags.owndata
    # the frame bytes the benchmark reports: one psi0-sized array per frame
    assert sum(f.nbytes for f in series.frames) == (cfg.steps + 1) * psi0.nbytes


# ---------------------------------------------------------------------------
# equivalence with the scipy routines the factored solver and the
# interpolator replace; scipy serves only as the reference here

def _solve_banded_step(psi, axis, h, dt, m):
    n = psi.shape[axis]
    gamma = 1j * dt / (4.0 * m * h * h)
    ab = np.zeros((3, n), dtype=complex)
    ab[0, 1:] = -gamma
    ab[1, :] = 1.0 + 2.0 * gamma
    ab[2, :-1] = -gamma
    v = np.moveaxis(psi, axis, 0)
    shape = v.shape
    v = v.reshape(n, -1)
    rhs = (1.0 - 2.0 * gamma) * v
    rhs[:-1] += gamma * v[1:]
    rhs[1:] += gamma * v[:-1]
    return np.moveaxis(solve_banded((1, 1), ab, rhs).reshape(shape), 0, axis)


@pytest.mark.parametrize("shape", [(37,), (9, 11), (5, 6, 7)])
@pytest.mark.parametrize("components", [(), (2,)])
def test_cn_step_equals_solve_banded(shape, components):
    rng = np.random.default_rng(len(shape) + len(components))
    psi = rng.normal(size=shape + components) + 1j * rng.normal(size=shape + components)
    spacing = (0.1, 0.07, 0.13)
    for ax in range(len(shape)):
        step = dy._cn_banded(shape[ax], spacing[ax], 1e-3, 1.3)
        got = dy._cn_axis_step(psi, ax, *step)
        assert np.array_equal(got, _solve_banded_step(psi, ax, spacing[ax], 1e-3, 1.3))
        assert got.flags.c_contiguous


@pytest.mark.parametrize("dim, tol", [(1, 0.0), (2, 1e-14), (3, 0.0)])
def test_interpolator_equals_regular_grid_interpolator(dim, tol):
    """Bitwise in 1-D and 3-D; scipy's 2-D fast path rounds differently."""
    rng = np.random.default_rng(dim)
    shape = (7, 5, 6)[:dim]
    coords = [np.linspace(-1.0, 2.0 + ax, n) for ax, n in enumerate(shape)]
    field = rng.normal(size=shape + (dim,))
    columns = []
    for c in coords:
        h = c[1] - c[0]
        # nodes, both edges, random interior points and up to one cell outside
        col = np.concatenate([c, [c[0], c[-1], c[0] - h, c[-1] + h],
                              rng.uniform(c[0] - h, c[-1] + h, 60)])
        columns.append(np.concatenate([col, rng.permutation(col)])[:120])
    x = np.stack(columns, axis=1)
    got = dy._interpolate(field, dy._cell_weights(coords, x))
    ref = np.column_stack([
        RegularGridInterpolator(coords, field[..., ax], bounds_error=False,
                                fill_value=None)(x)
        for ax in range(dim)])
    if tol == 0.0:
        assert np.array_equal(got, ref)
    else:
        assert np.max(np.abs(got - ref)) <= tol


def test_import_leaves_scipy_interpolate_unloaded():
    code = "import sys, cliffordqm; print('scipy.interpolate' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "False"
