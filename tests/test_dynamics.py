"""Time evolution schemes and Bohm trajectory integration."""

import dataclasses
import itertools
import math
import os
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.interpolate import RegularGridInterpolator
from scipy.linalg import solve_banded

from cliffordqm import dynamics as dy
from cliffordqm import grids as gd
from cliffordqm import harness
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
    series = dy.evolve(psi0, grid, cfg)
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
    series = dy.evolve(psi0, grid, cfg)
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
    series = dy.evolve(psi0, grid, cfg)
    exact = gd.sample(gd.GaussianPacket(sigma=1.0), grid, series.times[-1])
    exact /= dy.norm(exact, grid)
    err = np.max(np.abs(np.abs(series.frames[-1]) ** 2 - np.abs(exact) ** 2))
    assert err < 5e-4


def test_pauli_evolution_keeps_spin_norm():
    grid = gd.Grid.line(-12.0, 12.0, 256)
    psi0 = gd.sample(gd.EulerTexture(theta0=1.0, theta_k=(0.2, 0, 0), sigma=1.5), grid)
    psi0 /= dy.norm(psi0, grid)
    cfg = dy.EvolutionConfig(m=1.0, dt=1e-3, steps=100)
    series = dy.evolve(psi0, grid, cfg)
    state = ob.SpinorField(grid, series.frames[-1])
    norms = np.linalg.norm(state.spin, axis=-1)
    assert np.max(np.abs(norms[state.mask] - 0.5)) < 1e-12


def test_accuracy_warning():
    grid = gd.Grid.line(-8.0, 8.0, 512)
    psi0 = gd.sample(gd.GaussianPacket(), grid)
    psi0 /= dy.norm(psi0, grid)
    cfg = dy.EvolutionConfig(m=1.0, dt=0.1, steps=1)
    with pytest.warns(UserWarning) as record:
        dy.evolve(psi0, grid, cfg)
    # attributed to the caller of evolve, not to a line inside the package
    assert [w.filename for w in record] == [__file__]


def no_nodes(series):
    """One all-True node mask per frame, so no path is frozen at a node."""
    return [np.ones(series.grid.shape, bool)] * len(series)


def test_trajectories_uniform_flow():
    grid = gd.Grid.line(0.0, 10.0, 51)
    v = np.ones(grid.shape + (1,))
    times = np.linspace(0.0, 2.0, 21)
    series = gd.SnapshotSeries(times, [v] * 21, grid)
    traj = dy.integrate_trajectories(series, [[1.0], [2.0], [3.0]], no_nodes(series))
    assert np.allclose(traj.paths[-1, :, 0], [3.0, 4.0, 5.0], atol=1e-12)
    assert not traj.truncated.any()


def test_trajectories_linear_velocity_exact_growth():
    """v(x) = x integrates to x0 exp(t) with 4th order accuracy."""
    grid = gd.Grid.line(0.1, 40.0, 400)
    x = grid.coords(0)
    v = x[:, None].copy()
    times = np.linspace(0.0, 1.0, 101)
    series = gd.SnapshotSeries(times, [v] * 101, grid)
    traj = dy.integrate_trajectories(series, [[1.0], [2.0]], no_nodes(series))
    expect = np.array([np.exp(1.0), 2.0 * np.exp(1.0)])
    assert np.max(np.abs(traj.paths[-1, :, 0] - expect)) < 1e-6


def test_trajectory_truncation_at_edge():
    grid = gd.Grid.line(0.0, 1.0, 11)
    v = np.ones(grid.shape + (1,))
    times = np.linspace(0.0, 2.0, 21)
    series = gd.SnapshotSeries(times, [v] * 21, grid)
    traj = dy.integrate_trajectories(series, [[0.5]], no_nodes(series))
    assert traj.truncated[0]
    # once clamped the path stays at the boundary
    assert traj.paths[-1, 0, 0] == pytest.approx(1.0)


@pytest.mark.parametrize("boundary", ["clamped", "periodic"])
@pytest.mark.parametrize("seed", [np.nan, np.inf, -np.inf, -0.5, 1.5])
def test_a_seed_not_finite_and_inside_the_grid_is_refused(seed, boundary):
    """A NaN seed fails both seed < lo and seed > hi, so it is refused by
    asking that every seed lie in [lo, hi], not that none lie outside."""
    grid = gd.Grid(tuple(gd.Axis(0.0, 1.0, 10) for _ in range(2)), boundary)
    series = gd.SnapshotSeries([0.0, 0.1], [np.ones(grid.shape + (2,))] * 2, grid)
    with pytest.raises(gd.GridError, match="seed outside grid"):
        dy.integrate_trajectories(series, [[0.5, 0.5], [0.5, seed]], no_nodes(series))


def test_a_series_with_no_frames_is_refused():
    grid = gd.Grid.line(0.0, 1.0, 8)
    empty = gd.SnapshotSeries(np.zeros(0), [], grid)
    with pytest.raises(gd.GridError, match="no frames"):
        dy.integrate_trajectories(empty, [[0.5]], [])


def test_one_mask_per_frame_is_required():
    grid = gd.Grid.line(0.0, 1.0, 10)
    series = gd.SnapshotSeries([0.0, 0.1, 0.2], [np.ones(grid.shape + (1,))] * 3, grid)
    for masks in (no_nodes(series)[:2], no_nodes(series) * 2):
        with pytest.raises(gd.GridError, match="masks for 3 frames"):
            dy.integrate_trajectories(series, [[0.5]], masks)


def test_periodic_paths_wrap_across_the_period_edge():
    """On a periodic line a path crosses the period edge unclamped and
    unflagged, and between the last node and hi it reads the velocity
    interpolated towards node 0: the same path as on a clamped line two
    periods long that holds the velocity twice."""
    grid = gd.Grid.line(0.0, 1.0, 10, "periodic")
    times = np.linspace(0.0, 0.5, 11)
    uniform = gd.SnapshotSeries(times, [np.ones(grid.shape + (1,))] * 11, grid)
    traj = dy.integrate_trajectories(uniform, [[0.5], [0.95]], no_nodes(uniform))
    assert not traj.truncated.any()
    assert np.allclose(traj.paths[-1, :, 0], [1.0, 1.45], rtol=0.0, atol=1e-12)
    assert dy.ordering_preserved(traj.paths)

    def flow(x):
        return (1.0 + 0.5 * np.sin(2.0 * np.pi * x))[:, None]

    twice = gd.Grid.line(0.0, 2.0, 21)
    periodic = gd.SnapshotSeries(times, [flow(grid.coords(0))] * 11, grid)
    clamped = gd.SnapshotSeries(times, [flow(twice.coords(0))] * 11, twice)
    seeds = [[0.5], [0.85], [0.95]]
    got = dy.integrate_trajectories(periodic, seeds, no_nodes(periodic))
    want = dy.integrate_trajectories(clamped, seeds, no_nodes(clamped))
    assert not got.truncated.any() and not want.truncated.any()
    assert np.all(got.paths[-1, 1:, 0] > 1.0)  # the seeds that start past 0.8
    assert np.max(np.abs(got.paths - want.paths)) <= 1e-13


def test_frozen_seeds_leave_the_moving_paths_bit_for_bit_as_they_run_alone():
    """A slowly varying flow v = 0.6 + 0.02 x + 0.05 t: the seed at 9.0 leaves
    the grid, the one at 5.0 reaches the node at x = 6.0, whose mask is False,
    and the two behind them never reach either."""
    grid = gd.Grid.line(0.0, 10.0, 101)
    x = grid.coords(0)
    times = np.linspace(0.0, 3.0, 61)
    series = gd.SnapshotSeries(times, [(0.6 + 0.02 * x + 0.05 * t)[:, None] for t in times],
                               grid)
    node = np.ones(grid.shape, bool)
    node[60] = False
    masks = [node] * len(series)
    traj = dy.integrate_trajectories(series, [[0.5], [9.0], [2.0], [5.0]], masks)
    assert traj.truncated.tolist() == [False, True, False, True]
    edge, at_node = traj.paths[:, 1, 0], traj.paths[:, 3, 0]
    first = np.flatnonzero(edge == 10.0)[0]
    assert 1 < first < len(series) - 10 and np.all(edge[first:] == 10.0)
    first = np.flatnonzero(np.abs(at_node - 6.0) <= 0.05)[0]
    assert 1 < first < len(series) - 10 and np.all(at_node[first:] == at_node[first])
    for i, seed in ((0, 0.5), (2, 2.0)):
        alone = dy.integrate_trajectories(series, [[seed]], masks)
        assert not alone.truncated[0]
        assert traj.paths[:, i].tobytes() == alone.paths[:, 0].tobytes()


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
    traj = dy.integrate_trajectories(series, [[1.0]], no_nodes(series))
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


@pytest.mark.parametrize("scheme", ["crank-nicolson", "split-step"])
@pytest.mark.parametrize("shape", [(64,), (7, 11, 13)])
@pytest.mark.parametrize("harmonic", [False, True])
def test_evolve_never_writes_a_frame_after_keep_sees_it(scheme, shape, harmonic):
    """Each frame, as the run makes it (the last frame of a run that stops
    there) and as it is first read, equals the frame once every frame has
    been read: without a potential every frame is built from psi0's spectrum,
    so a transform that wrote its input would rewrite it or frame 0."""
    grid = gd.Grid(tuple(gd.Axis(-6.0, 6.0, n) for n in shape), dy.SCHEME_BOUNDARY[scheme])
    rng = np.random.default_rng(len(shape))
    psi0 = rng.normal(size=shape + (2,)) + 1j * rng.normal(size=shape + (2,))
    V = 0.05 * sum(x ** 2 for x in grid.meshgrid()) if harmonic else None
    cfg = dy.EvolutionConfig(m=1.0, dt=1e-3, steps=4, V=V, scheme=scheme)
    made = [psi0.tobytes()] + [
        dy.evolve(psi0, grid, dataclasses.replace(cfg, steps=j)).frames[j].tobytes()
        for j in range(1, cfg.steps + 1)]
    series = dy.evolve(psi0, grid, cfg, keep=range(cfg.steps + 1))
    seen = [series.frames[j].tobytes() for j in range(cfg.steps + 1)]
    assert len(series.frames) == len(seen) == cfg.steps + 1
    assert seen == made
    for frame, copy in zip(series.frames, seen):
        assert frame.tobytes() == copy
        assert frame.flags.c_contiguous


@pytest.mark.parametrize("scheme, boundary, pauli, harmonic", [
    pytest.param("crank-nicolson", "clamped", False, True, id="crank-nicolson-clamped-False"),
    pytest.param("split-step", "periodic", True, True, id="split-step-periodic-True"),
    # a free split-step run builds only the frames that are read
    pytest.param("split-step", "periodic", True, False, id="split-step-periodic-True-free"),
])
def test_evolve_keep_stores_the_accepted_frames(scheme, boundary, pauli, harmonic):
    """A run keeps the frames of the steps in keep, each equal to that step of
    a run that keeps every frame, at its time: a kept frame is held once read,
    so every read returns one array."""
    grid = gd.Grid.line(-6.0, 6.0, 48, boundary)
    psi0 = gd.sample(gd.GaussianPacket(sigma=1.0, k=(1.0, 0, 0)), grid)
    if pauli:
        psi0 = np.stack([psi0, 0.5j * psi0], axis=-1)
    V = 0.1 * grid.coords(0) ** 2 if harmonic else None
    cfg = dy.EvolutionConfig(m=1.0, dt=1e-3, steps=12, V=V, scheme=scheme)
    full = dy.evolve(psi0, grid, cfg)
    for wanted in ([5, 6, 7], [0, 4, 8, 12], [3], list(range(13))):
        series = dy.evolve(psi0, grid, cfg, keep=wanted)
        assert len(series) == cfg.steps + 1
        for j in wanted:
            assert series.frames[j] is series.frames[j]
            assert np.array_equal(series.frames[j], full.frames[j])
            assert series.times[j] == full.times[j] == j * cfg.dt
    # the series keeps the run's step, bit for bit, which t[k] - t[k-1] need not be
    window = dy.evolve(psi0, grid, cfg, keep={9, 10, 11})
    assert window.times[10] - window.times[9] != cfg.dt
    assert window.dt == full.dt == cfg.dt


@pytest.mark.parametrize("scheme, boundary, pauli, harmonic", [
    pytest.param("crank-nicolson", "clamped", False, False, id="crank-nicolson-clamped-False"),
    pytest.param("split-step", "periodic", True, False, id="split-step-periodic-True"),
    pytest.param("split-step", "periodic", True, True, id="split-step-periodic-True-harmonic"),
])
def test_evolve_numbers_the_frames_it_keeps(scheme, boundary, pauli, harmonic):
    """Frames are numbered by step, whatever a run keeps: the observables of
    frame 10 of a run that keeps frames 9..11 are those of a run that keeps
    every frame, field by field, and a run that keeps every 4th frame reads
    them at steps 4, 8 and 12, at the run's dt."""
    grid = gd.Grid.line(-6.0, 6.0, 48, boundary)
    psi0 = gd.sample(gd.GaussianPacket(sigma=1.0, k=(1.0, 0, 0)), grid)
    if pauli:
        psi0 = np.stack([psi0, 0.5j * psi0], axis=-1)
    V = 0.1 * grid.coords(0) ** 2 if harmonic else None
    cfg = dy.EvolutionConfig(m=1.0, dt=1e-3, steps=12, V=V, scheme=scheme)
    full = dy.evolve(psi0, grid, cfg)
    window = dy.evolve(psi0, grid, cfg, keep={9, 10, 11})
    assert len(full) == len(window) == cfg.steps + 1
    expected = ob.compute_observables(full, 10, cfg.m, V)
    got = ob.compute_observables(window, 10, cfg.m, V)
    for name in ("P", "E", "Q", "Q1", "Q2", "s", "J_conv", "J_rot", "v"):
        a, b = getattr(got, name), getattr(expected, name)
        assert (a is None and b is None) or a.tobytes() == b.tobytes(), name
    assert got.residuals.keys() == expected.residuals.keys()
    for name in expected.residuals:
        assert got.residuals[name].tobytes() == expected.residuals[name].tobytes(), name
    strided = dy.evolve(psi0, grid, cfg, keep={4, 8, 12})
    assert strided.dt == cfg.dt
    for j in (4, 8, 12):
        assert strided.frames[j].tobytes() == full.frames[j].tobytes()
        assert strided.times[j] == full.times[j]


@pytest.mark.parametrize("scheme, boundary, pauli, harmonic", [
    ("crank-nicolson", "clamped", False, True),
    ("split-step", "periodic", True, True),
    ("split-step", "periodic", True, False),
])
def test_evolve_frame_builds_each_frame_once(scheme, boundary, pauli, harmonic):
    """A kept frame read twice, as a run reads frame 0 for its norm and for
    its first trajectory frame, is one array; the frames every other step
    keeps equal a run's that keeps all."""
    grid = gd.Grid.line(-6.0, 6.0, 48, boundary)
    psi0 = gd.sample(gd.GaussianPacket(sigma=1.0, k=(1.0, 0, 0)), grid)
    if pauli:
        psi0 = np.stack([psi0, 0.5j * psi0], axis=-1)
    V = 0.1 * grid.coords(0) ** 2 if harmonic else None
    cfg = dy.EvolutionConfig(m=1.0, dt=1e-3, steps=6, V=V, scheme=scheme)
    series = dy.evolve(psi0, grid, cfg, keep=range(0, cfg.steps + 1, 2))
    seen = []
    for j in range(0, cfg.steps + 1, 2):
        first = series.frames[j]
        assert series.frames[j] is first
        seen.append(first)
    assert all(a is b for a, b in zip(series.frames[::2], seen))
    full = dy.evolve(psi0, grid, cfg).frames
    assert [f.tobytes() for f in seen] == [f.tobytes() for f in full[::2]]


def _free_split_step_run(shape, harmonic=False):
    grid = gd.Grid(tuple(gd.Axis(-3.0, 3.0 + ax, n) for ax, n in enumerate(shape)), "periodic")
    rng = np.random.default_rng(len(shape))
    psi0 = rng.normal(size=shape + (2,)) + 1j * rng.normal(size=shape + (2,))
    V = 0.5 * sum(x ** 2 for x in grid.meshgrid()) if harmonic else None
    return psi0, grid, dy.EvolutionConfig(m=1.3, dt=1e-3, steps=12, V=V, scheme="split-step")


@pytest.mark.parametrize("shape", [(64,), (6, 7, 8)])
def test_free_split_step_transforms_back_only_the_frames_read(shape, monkeypatch):
    """Without a sink a free run stores its frames unbuilt: reading frames 0,
    k-1, k, k+1 and the last, twice, costs four inverse transforms, since
    frame 0 is psi0.  A line transforms with numpy.fft, a cube with one
    scipy.fft pass per axis."""
    import scipy.fft

    passes = []
    for module in (np.fft, scipy.fft):
        def counting(*args, _ifft=module.ifft, **kwargs):
            passes.append(1)
            return _ifft(*args, **kwargs)

        monkeypatch.setattr(module, "ifft", counting)
    psi0, grid, cfg = _free_split_step_run(shape)
    series = dy.evolve(psi0, grid, cfg)
    k = len(series) // 2
    read = (0, k - 1, k, k + 1, cfg.steps)
    for _ in range(2):
        got = [series.frames[j] for j in read[:-1]] + [series.frames[-1]]
    assert len(passes) == 4 * grid.dim
    monkeypatch.undo()
    want = _numpy_split_step_frames(psi0, grid, cfg)
    assert [f.tobytes() for f in got] == [want[j].tobytes() for j in read]
    chained = _chained_free_split_step_frames(psi0, grid, cfg)
    for frame, j in zip(got, read):
        assert np.max(np.abs(frame - chained[j])) <= 1e-13


@pytest.mark.parametrize("shape", [(64,), (6, 7, 8)])
@pytest.mark.parametrize("harmonic", [False, True])
def test_frames_read_last_to_first_equal_frames_read_in_order(shape, harmonic):
    """A free frame is built from psi0's spectrum and its own step alone, so
    the order of the reads does not matter, and a frame that the run does
    not keep is built again, equal, on every read."""
    psi0, grid, cfg = _free_split_step_run(shape, harmonic)
    in_order = [frame.tobytes() for frame in dy.evolve(psi0, grid, cfg).frames]
    series = dy.evolve(psi0, grid, cfg)
    assert [series.frames[j].tobytes() for j in range(-1, -len(series) - 1, -1)] \
        == in_order[::-1]
    if not harmonic:
        unkept = dy.evolve(psi0, grid, cfg, keep=())
        for _ in range(2):
            assert [unkept.frames[j].tobytes() for j in reversed(range(len(unkept)))] \
                == in_order[::-1]
    assert [f.tobytes() for f in series.frames[::4]] == in_order[::4]


def test_a_read_frame_drops_its_spectrum():
    """Before any read a free run holds frame 0 and psi0's spectrum, whatever
    its steps, and nothing per step.  Once every frame has been read, the
    series holds the steps + 1 frames and no spectrum beside them."""
    for steps in (12, 100):
        psi0, grid, cfg = _free_split_step_run((16, 16, 16))
        cfg.steps = steps
        dy.evolve(psi0, grid, cfg)  # imports scipy.fft and plans its transforms
        tracemalloc.start()
        try:
            series = dy.evolve(psi0, grid, cfg)
            unread = tracemalloc.get_traced_memory()[0]
            for frame in series.frames:
                assert frame.nbytes == psi0.nbytes
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert unread <= 2 * psi0.nbytes + psi0.nbytes // 8, unread / psi0.nbytes
        assert held <= (steps + 1) * psi0.nbytes + psi0.nbytes // 8 + 1024 * steps, \
            held / psi0.nbytes


@pytest.mark.parametrize("scheme, components", [("crank-nicolson", ()), ("split-step", (2,))])
def test_a_run_with_a_potential_holds_exactly_its_kept_frames(scheme, components):
    """A Strang run holds the frames of its kept steps, frame 0 included only
    when kept, each equal byte for byte to that step of a run that keeps
    every frame, and refuses to read any other."""
    grid = _axes_grid((64,), dy.SCHEME_BOUNDARY[scheme])
    psi0 = _random_field((64,), components)
    cfg = dy.EvolutionConfig(m=1.3, dt=1e-3, steps=12, V=0.5 * grid.coords(0) ** 2,
                             scheme=scheme)
    full = dy.evolve(psi0, grid, cfg)
    for keep in ({3, 7, 12}, {0, 1}, set()):
        series = dy.evolve(psi0, grid, cfg, keep=keep)
        assert len(series) == cfg.steps + 1
        for j in range(cfg.steps + 1):
            if j in keep:
                assert series.frames[j].tobytes() == full.frames[j].tobytes()
            else:
                with pytest.raises(gd.GridError, match=f"did not keep frame {j}$"):
                    series.frames[j]
                with pytest.raises(gd.GridError, match=f"did not keep frame {j}$"):
                    series.frames.fill(np.empty((1,) + psi0.shape, complex), [j])


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


def _axes_grid(shape, boundary="clamped"):
    """A grid whose axes differ in length and spacing."""
    return gd.Grid(tuple(gd.Axis(-3.0, 3.0 + ax, n) for ax, n in enumerate(shape)), boundary)


def _random_field(shape, components):
    rng = np.random.default_rng(len(shape) + len(components))
    return rng.normal(size=shape + components) + 1j * rng.normal(size=shape + components)


@pytest.mark.parametrize("shape", [(37,), (9, 11), (5, 6, 7)])
@pytest.mark.parametrize("components", [(), (2,)])
def test_cn_step_equals_solve_banded(shape, components):
    grid = _axes_grid(shape)
    psi = _random_field(shape, components)
    want = psi
    for ax, h in enumerate(grid.spacing):
        want = _solve_banded_step(want, ax, h, 1e-3, 1.3)
    got = dy._cn_kinetic(grid, 1e-3, 1.3)(psi)
    assert np.array_equal(got, want)
    assert got.flags.c_contiguous


def _banded_frames(psi0, grid, cfg):
    """Every frame of a free Crank-Nicolson run, one zgttrs solve per axis and step."""
    kinetic = dy._cn_kinetic(grid, cfg.dt, cfg.m)
    frames = [psi0]
    for _ in range(cfg.steps):
        frames.append(kinetic(frames[-1]))
    return frames


def _strang_solve_banded_frames(psi0, grid, cfg):
    """Every frame of a Crank-Nicolson run with a potential: half potential
    phase, one solve_banded step per axis, half potential phase."""
    half_v = np.exp(-0.5j * cfg.dt * cfg.V)
    if psi0.ndim > grid.dim:
        half_v = half_v[..., None]
    frames = [psi0]
    for _ in range(cfg.steps):
        psi = frames[-1] * half_v
        for ax, h in enumerate(grid.spacing):
            psi = _solve_banded_step(psi, ax, h, cfg.dt, cfg.m)
        frames.append(psi * half_v)
    return frames


@pytest.mark.parametrize("shape", [(37,), (9, 11), (5, 6, 7)])
@pytest.mark.parametrize("components", [(), (2,)])
def test_crank_nicolson_with_a_potential_equals_strang_steps_bit_for_bit(shape, components):
    grid = _axes_grid(shape)
    psi0 = _random_field(shape, components)
    V = 0.5 * sum(x ** 2 for x in grid.meshgrid())
    cfg = dy.EvolutionConfig(m=1.3, dt=1e-3, steps=5, V=V)
    got = dy.evolve(psi0, grid, cfg).frames
    want = _strang_solve_banded_frames(psi0, grid, cfg)
    assert len(got) == len(want) == cfg.steps + 1
    assert [f.tobytes() for f in got] == [f.tobytes() for f in want]


def _free_crank_nicolson_run(shape, steps):
    """A moving Gaussian on a clamped grid, its support well inside, with a
    Pauli spinor past one axis."""
    grid = gd.Grid(tuple(gd.Axis(-6.0, 6.0 + ax, n) for ax, n in enumerate(shape)))
    mesh = grid.meshgrid()
    packet = np.exp(-0.5 * sum(x ** 2 for x in mesh) + 1j * mesh[0])
    psi0 = packet if len(shape) == 1 else np.stack([packet, 0.5j * packet], axis=-1)
    return psi0, grid, dy.EvolutionConfig(m=1.3, dt=1e-3, steps=steps)


@pytest.mark.parametrize("shape, steps", [((384,), 1600), ((24, 20), 200)])
def test_free_crank_nicolson_equals_the_banded_loop(shape, steps):
    """Without a potential the run carries the sine spectrum: each frame is
    one inverse transform of the symbol-weighted spectrum, within roundoff
    of stepping the factored matrices frame by frame."""
    psi0, grid, cfg = _free_crank_nicolson_run(shape, steps)
    got = dy.evolve(psi0, grid, cfg).frames
    want = _banded_frames(psi0, grid, cfg)
    assert len(got) == len(want) == steps + 1
    for frame, ref in zip(got, want):
        assert frame.shape == ref.shape
        assert frame.flags.c_contiguous and frame.flags.owndata
        assert np.max(np.abs(frame - ref)) <= 1e-12


@pytest.mark.parametrize("shape", [(64,), (6, 7, 8)])
def test_free_crank_nicolson_transforms_back_only_the_frames_read(shape, monkeypatch):
    """A free run transforms psi0 once per axis and, reading frames 0, k-1,
    k, k+1 and the last, twice, transforms back four frames, one numpy.fft
    pass per axis each, since frame 0 is psi0."""
    passes = {"fft": 0, "ifft": 0}
    for name in passes:
        def counting(*args, _name=name, _transform=getattr(np.fft, name), **kwargs):
            passes[_name] += 1
            return _transform(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counting)
    psi0, grid, cfg = _free_crank_nicolson_run(shape, 12)
    series = dy.evolve(psi0, grid, cfg)
    k = len(series) // 2
    read = (0, k - 1, k, k + 1, cfg.steps)
    for _ in range(2):
        got = [series.frames[j] for j in read[:-1]] + [series.frames[-1]]
    assert passes == {"fft": grid.dim, "ifft": 4 * grid.dim}
    monkeypatch.undo()
    want = _banded_frames(psi0, grid, cfg)
    assert got[0].tobytes() == psi0.tobytes()
    for frame, j in zip(got, read):
        assert np.max(np.abs(frame - want[j])) <= 1e-13


@given(st.integers(2, 64), st.integers(0, 2), st.integers(0, 2 ** 32 - 1))
def test_sine_passes_equal_the_sine_matrix(n, axis, seed):
    """The odd extension through numpy.fft is the DST-I along any axis:
    fft gives -2i S x and ifft takes that back to x, for S = sin(pi j k/(n+1))."""
    rng = np.random.default_rng(seed)
    shape = [3, 2, 4]
    shape[axis] = n
    x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    j = np.arange(1, n + 1)
    sine = np.sin(np.pi * np.outer(j, j) / (n + 1))
    want = np.moveaxis(np.tensordot(-2j * sine, np.moveaxis(x, axis, 0), axes=1), 0, axis)
    got = dy._sine_passes(np.fft.fft, x, (axis,))
    assert got.flags.c_contiguous and got.flags.owndata
    assert np.max(np.abs(got - want)) <= 1e-13 * n * np.max(np.abs(x))
    back = dy._sine_passes(np.fft.ifft, got, (axis,))
    assert np.max(np.abs(back - x)) <= 1e-14 * n * np.max(np.abs(x))


def _kinetic_phase(grid, dt, m):
    """One split step's kinetic phase as a run with a potential takes it: the
    outer product over axes of exp(-i theta), theta dynamics' angles."""
    cfg = dy.EvolutionConfig(m=m, dt=dt, steps=1, scheme="split-step")
    phase = np.ones(())
    for theta in dy._free_angles(grid, cfg, 1):
        phase = np.multiply.outer(phase, np.exp(-1j * theta))
    return phase


def _chained_free_split_step_frames(psi0, grid, cfg):
    """Every frame of a free split-step run with the spectrum carried: one
    fftn, then per frame one more kinetic factor and one ifftn."""
    axes = tuple(range(grid.dim))
    kin = _kinetic_phase(grid, cfg.dt, cfg.m)
    kin = kin[..., None] if psi0.ndim > grid.dim else kin
    phi = np.fft.fftn(psi0, axes=axes)
    frames = [psi0.copy()]
    for _ in range(cfg.steps):
        phi = phi * kin
        frames.append(np.fft.ifftn(phi, axes=axes))
    return frames


def _numpy_split_step_frames(psi0, grid, cfg):
    """Every frame of a split-step run on numpy's multi-axis FFT.

    Without a potential frame j is in closed form: ifftn of fftn(psi0) times
    S_j, the outer product over axes of exp(-i j k^2 dt/2m)."""
    axes = tuple(range(grid.dim))
    half_v = None if cfg.V is None else np.exp(-0.5j * cfg.dt * cfg.V)
    if psi0.ndim > grid.dim:
        half_v = None if half_v is None else half_v[..., None]
    psi = psi0.copy()
    frames = [psi]
    if half_v is None:
        phi0 = np.fft.fftn(psi0, axes=axes)
        thetas = [(2.0 * np.pi * np.fft.fftfreq(n, d=h)) ** 2 * cfg.dt / (2.0 * cfg.m)
                  for n, h in zip(grid.shape, grid.spacing)]
        for j in range(1, cfg.steps + 1):
            s_j = np.ones(())
            for theta in thetas:
                s_j = np.multiply.outer(s_j, np.exp(-1j * j * theta))
            s_j = s_j[..., None] if psi0.ndim > grid.dim else s_j
            frames.append(np.fft.ifftn(phi0 * s_j, axes=axes))
        return frames
    kin = _kinetic_phase(grid, cfg.dt, cfg.m)
    kin = kin[..., None] if psi0.ndim > grid.dim else kin
    for _ in range(cfg.steps):
        if half_v is not None:
            psi = psi * half_v
        psi = np.fft.ifftn(np.fft.fftn(psi, axes=axes) * kin, axes=axes)
        if half_v is not None:
            psi = psi * half_v
        frames.append(psi)
    return frames


@pytest.mark.parametrize("shape", [(64,), (30, 20), (7, 11, 13), (40, 40, 40)])
def test_kinetic_phase_equals_a_meshgrid_reference(shape):
    grid = _axes_grid(shape, "periodic")
    ks = [2.0 * np.pi * np.fft.fftfreq(n, d=h) for n, h in zip(grid.shape, grid.spacing)]
    want = np.ones(grid.shape)
    for k in np.meshgrid(*ks, indexing="ij"):
        want = np.multiply(want, np.exp(-1j * (k ** 2 * 1e-3 / (2.0 * 1.3))))  # in this order
    assert _kinetic_phase(grid, 1e-3, 1.3).tobytes() == want.tobytes()


@pytest.mark.parametrize("shape", [(64,), (30, 20), (7, 11, 13)])
@pytest.mark.parametrize("components", [(), (2,)])
@pytest.mark.parametrize("harmonic", [False, True])
def test_split_step_equals_numpy_fftn_bit_for_bit(shape, components, harmonic):
    """One FFT pass per axis, last axis first, rounds exactly as numpy.fft.fftn."""
    grid = gd.Grid(tuple(gd.Axis(-3.0, 3.0 + ax, n) for ax, n in enumerate(shape)), "periodic")
    rng = np.random.default_rng(len(shape) + len(components))
    psi0 = rng.normal(size=shape + components) + 1j * rng.normal(size=shape + components)
    V = 0.5 * sum(x ** 2 for x in grid.meshgrid()) if harmonic else None
    cfg = dy.EvolutionConfig(m=1.3, dt=1e-3, steps=3, V=V, scheme="split-step")
    got = dy.evolve(psi0, grid, cfg).frames
    want = _numpy_split_step_frames(psi0, grid, cfg)
    assert [f.tobytes() for f in got] == [f.tobytes() for f in want]
    if not harmonic:  # within roundoff of carrying the spectrum step by step
        for frame, ref in zip(got, _chained_free_split_step_frames(psi0, grid, cfg)):
            assert np.max(np.abs(frame - ref)) <= 1e-13


@pytest.mark.parametrize("shape, steps", [((4096,), 400), ((24, 24, 24), 40)])
def test_free_split_step_keeps_the_norm(shape, steps):
    """Without a potential each frame is one inverse transform of psi0's
    exactly phased Fourier data, not a chain of them."""
    grid = gd.Grid(tuple(gd.Axis(-4.0, 4.0, n) for n in shape), "periodic")
    rng = np.random.default_rng(7)
    psi0 = rng.normal(size=shape + (2,)) + 1j * rng.normal(size=shape + (2,))
    m, dt = 1.0, min(grid.spacing) ** 2 / 2
    series = dy.evolve(psi0, grid, dy.EvolutionConfig(m=m, dt=dt, steps=steps,
                                                      scheme="split-step"), keep={steps})
    norms = [dy.norm(frame, grid) for frame in series.frames]
    last = series.frames[steps]
    assert len(norms) == steps + 1
    assert np.max(np.abs(np.array(norms) - norms[0])) / norms[0] <= 4e-15
    axes = tuple(range(grid.dim))
    exact = np.fft.ifftn(np.fft.fftn(psi0, axes=axes)
                         * _kinetic_phase(grid, steps * dt, m)[..., None], axes=axes)
    assert np.max(np.abs(last - exact)) <= 1e-12


@pytest.mark.parametrize("scheme", ["crank-nicolson", "split-step"])
def test_free_norm_drift_does_not_grow_with_steps(scheme):
    """Each free frame is one inverse transform of psi0's spectrum times
    unit phases, so its norm drifts by roundoff of one transform pair, not
    by the steps' accumulated roundoff: 1600 Crank-Nicolson steps on 384
    points and 400 split steps of a Pauli superposition on 4096 points."""
    if scheme == "crank-nicolson":
        psi0, grid, cfg = _free_crank_nicolson_run((384,), 1600)
    else:
        grid = gd.Grid.line(0.0, 4.0 * np.pi, 4096, "periodic")
        psi0 = gd.sample(gd.PauliSuperposition(), grid)
        cfg = dy.EvolutionConfig(m=1.0, dt=5e-6, steps=400, scheme=scheme)
    norms = [dy.norm(frame, grid) for frame in dy.evolve(psi0, grid, cfg, keep=()).frames]
    assert len(norms) == cfg.steps + 1
    assert np.max(np.abs(np.array(norms) - norms[0])) / norms[0] <= 1e-15


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_split_step_rejects_a_kinetic_phase_that_overflows_over_the_run():
    """A subnormal m whose one-step angles are finite, so that a one-step run
    is accepted, but twice the largest of them overflows."""
    grid = gd.Grid.line(-6.0, 6.0, 64, "periodic")
    psi = gd.sample(gd.GaussianPacket(), grid)
    k_max = np.pi / grid.spacing[0]
    m = k_max ** 2 * 1e-3 / 1.5 / np.finfo(float).max  # theta = k^2 dt/2m reaches 0.75 max
    assert 0.0 < m < np.finfo(float).tiny
    with pytest.warns(UserWarning):
        frame = dy.evolve(psi, grid, dy.EvolutionConfig(m=m, dt=1e-3, steps=1,
                                                         scheme="split-step")).frames[1]
    assert np.all(np.isfinite(frame))
    cfg = dy.EvolutionConfig(m=m, dt=1e-3, steps=2, scheme="split-step")
    with pytest.warns(UserWarning), pytest.raises(gd.GridError, match="not finite"):
        dy.evolve(psi, grid, cfg, keep=())


def test_split_step_with_a_potential_takes_a_finite_kinetic_phase_at_a_subnormal_m():
    """The Strang step's kinetic phase is exp(-i theta) of each axis's real
    angle theta = k^2 dt/2m, which is finite at this subnormal m, so a run
    with a potential takes its one step; a complex division -i k^2 dt/2m
    would overflow here."""
    grid = gd.Grid.line(-6.0, 6.0, 64, "periodic")
    psi = gd.sample(gd.GaussianPacket(), grid)
    k_max = np.pi / grid.spacing[0]
    m = k_max ** 2 * 1e-3 / 1.5 / np.finfo(float).max  # theta = k^2 dt/2m reaches 0.75 max
    assert 0.0 < m < np.finfo(float).tiny
    cfg = dy.EvolutionConfig(m=m, dt=1e-3, steps=1, V=0.5 * grid.coords(0) ** 2,
                             scheme="split-step")
    with pytest.warns(UserWarning):
        frames = dy.evolve(psi, grid, cfg).frames
    assert np.all(np.isfinite(frames[1]))
    assert abs(dy.norm(frames[1], grid) - dy.norm(psi, grid)) <= 1e-13 * dy.norm(psi, grid)


@pytest.mark.filterwarnings("ignore:dt=0.5 exceeds")
@pytest.mark.parametrize("scheme, boundary", [("crank-nicolson", "clamped"),
                                              ("split-step", "periodic")])
def test_free_angles_refuse_a_run_in_the_name_of_its_scheme(scheme, boundary):
    """Steps past the float range make no float, and 1e308 steps of a
    largest angle over 2 (dt 0.5) no finite angle: each run is refused in
    one GridError naming its scheme, before evolve returns."""
    grid = gd.Grid.line(-6.0, 6.0, 32, boundary)
    psi = gd.sample(gd.GaussianPacket(), grid)
    for steps, dt in ((10 ** 309, 1e-3), (10 ** 308, 0.5)):
        cfg = dy.EvolutionConfig(m=1.0, dt=dt, steps=steps, scheme=scheme)
        with pytest.raises(gd.GridError, match=f"^{scheme} kinetic phase over the run's steps "
                                               "is not finite"):
            dy.evolve(psi, grid, cfg, keep=())


def _stride_frames_two_ways(psi0, grid, cfg, stride):
    """A run's stride frames 0, stride, ... read two ways: each frame built
    alone, and written into one block by frames.fill after a run that keeps
    them, frames 0 and steps and its window k-1..k+1, and that reads the
    last frame for its norm and the window before the fill, as a harness
    run does.  Returns both, and the run's series after the fill."""
    steps, k = cfg.steps, (cfg.steps + 1) // 2
    alone = dy.evolve(psi0, grid, cfg).frames
    strided = range(0, steps + 1, stride)
    series = dy.evolve(psi0, grid, cfg, keep={0, k - 1, k, k + 1, steps, *strided})
    series.frames[steps]
    series.frames[k - 1:k + 2]
    block = np.empty((len(strided),) + psi0.shape, complex)
    series.frames.fill(block, strided)
    return [alone[j] for j in strided], block, series


@pytest.mark.parametrize("shape, axes, bound", [((4096, 41), (0,), 3.1),
                                                ((40, 40, 40), (0, 1, 2), 5.2)],
                         ids=("one-axis", "three-axes"))
def test_a_sine_pass_transforms_its_odd_extension_in_place(shape, axes, bound):
    """A pass holds the (2n+2)-row odd extension, transformed in its own
    memory, and the copy of the n rows it keeps: about three blocks' worth
    over one axis, where a separate transform output made it five."""
    x = np.random.default_rng(11).standard_normal(shape) + 0j
    tracemalloc.start()
    try:
        dy._sine_passes(np.fft.ifft, x, axes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / x.nbytes < bound


@pytest.mark.filterwarnings("ignore:dt=0.001 exceeds")  # on 4096 points
@pytest.mark.parametrize("scheme, shape, components, steps, stride", [
    ("crank-nicolson", (384,), (), 1600, 20),  # the 81 stride frames of a long 1-D run
    ("crank-nicolson", (64,), (2,), 40, 4),
    ("crank-nicolson", (7, 11, 13), (), 12, 2),
    ("crank-nicolson", (5, 6, 7), (2,), 12, 3),
    ("split-step", (4096,), (), 40, 1),
    ("split-step", (64,), (2,), 40, 5),
    ("split-step", (24, 24, 24), (), 12, 2),
    ("split-step", (32, 32, 32), (), 8, 2),  # 512 KiB a frame: numpy may elide a temporary
    ("split-step", (7, 11, 13), (2,), 12, 3),
])
def test_block_built_stride_frames_equal_frames_built_alone(scheme, shape, components, steps,
                                                            stride):
    """A free run's unbuilt stride frames, built in one block transform, equal
    frames built one at a time byte for byte; frame 0 (psi0), the last frame
    and window frames k-1..k+1 that are stride frames are copied, and the
    fill leaves every unbuilt frame unbuilt."""
    boundary = dy.SCHEME_BOUNDARY[scheme]
    grid = _axes_grid(shape, boundary)
    psi0 = _random_field(shape, components)
    cfg = dy.EvolutionConfig(m=1.3, dt=1e-3, steps=steps, scheme=scheme)
    alone, block, series = _stride_frames_two_ways(psi0, grid, cfg, stride)
    k = (steps + 1) // 2
    copied = {0, steps} | {j for j in (k - 1, k, k + 1) if j % stride == 0}
    assert len(copied) >= 3  # a window frame is a stride frame
    # the fill holds none of the frames it builds
    assert set(series.frames._held) & set(range(0, steps + 1, stride)) == copied
    assert block[0].tobytes() == psi0.astype(complex).tobytes()
    assert [f.tobytes() for f in block] == [f.tobytes() for f in alone]


@pytest.mark.parametrize("scheme, components", [("crank-nicolson", ()),
                                                ("split-step", (2,))])
def test_a_run_with_a_potential_has_its_stride_frames_copied(scheme, components):
    """A Strang run holds every frame it keeps, so the fill copies them all."""
    grid = _axes_grid((64,), dy.SCHEME_BOUNDARY[scheme])
    psi0 = _random_field((64,), components)
    cfg = dy.EvolutionConfig(m=1.3, dt=1e-3, steps=20, V=0.5 * grid.coords(0) ** 2,
                             scheme=scheme)
    alone, block, series = _stride_frames_two_ways(psi0, grid, cfg, 3)
    k = (cfg.steps + 1) // 2
    assert set(series.frames._held) == {0, k - 1, k, k + 1, cfg.steps, *range(0, 21, 3)}
    assert [f.tobytes() for f in block] == [f.tobytes() for f in alone]


@pytest.mark.parametrize("dim, tol", [(1, 0.0), (2, 1e-14), (3, 0.0)])
def test_interpolator_equals_regular_grid_interpolator(dim, tol):
    """Bitwise in 1-D and 3-D; scipy's 2-D fast path rounds differently."""
    rng = np.random.default_rng(dim)
    grid = gd.Grid(tuple(gd.Axis(-1.0, 2.0 + ax, n) for ax, n in enumerate((7, 5, 6)[:dim])))
    coords = [grid.coords(ax) for ax in range(dim)]
    field = rng.normal(size=grid.shape + (dim,))
    columns = []
    for c in coords:
        h = c[1] - c[0]
        # nodes, both edges, random interior points and up to one cell outside
        col = np.concatenate([c, [c[0], c[-1], c[0] - h, c[-1] + h],
                              rng.uniform(c[0] - h, c[-1] + h, 60)])
        columns.append(np.concatenate([col, rng.permutation(col)])[:120])
    x = np.stack(columns, axis=1)
    interp = dy._Interpolator(grid, [field])
    got = interp(interp.bases[0], x)
    ref = np.column_stack([
        RegularGridInterpolator(coords, field[..., ax], bounds_error=False,
                                fill_value=None)(x)
        for ax in range(dim)])
    if tol == 0.0:
        assert np.array_equal(got, ref)
    else:
        assert np.max(np.abs(got - ref)) <= tol


@st.composite
def _line_and_points(draw):
    """A clamped or periodic line and points on its nodes, at lo and hi, and
    anywhere from one cell below lo to one cell above hi."""
    n = draw(st.integers(gd.MIN_POINTS, 40))
    lo = draw(st.floats(-50.0, 50.0))
    hi = lo + draw(st.floats(1e-3, 100.0))
    grid = gd.Grid.line(lo, hi, n, draw(st.sampled_from(["clamped", "periodic"])))
    c, h = grid.coords(0), grid.spacing[0]
    point = st.one_of(st.sampled_from(list(c) + [lo, hi]), st.floats(lo - h, hi + h))
    return grid, np.array(draw(st.lists(point, min_size=1, max_size=20)))


@given(_line_and_points())
def test_a_cell_is_found_among_the_interior_nodes(case):
    """The lower corner of a point's cell is its place among the interior
    nodes c[1:-1], which is searchsorted(c, x, "right") - 1 clipped to the
    cells [0, n - 2]; c ends with hi on a periodic line, whose points are
    read in the period [lo, hi)."""
    grid, x = case
    interp = dy._Interpolator(grid, [np.zeros(grid.shape + (1,))])
    c, image = interp.coords[0], x
    if grid.boundary == "periodic":
        assert c[-1] == grid.axes[0].hi and c.size == grid.shape[0] + 1
        image = grid.axes[0].lo + np.mod(x - grid.axes[0].lo, interp.period[0])
    want = np.clip(np.searchsorted(c, image, "right") - 1, 0, c.size - 2)
    rows, weights = interp.locate(interp.bases[0], x[:, None])
    assert np.array_equal(rows[0], want)
    assert np.array_equal(rows[1], want + 1)
    assert weights.sum(axis=0) == pytest.approx(1.0)


def _reference_trajectories(series, seeds, masks):
    """The RK4 loop as it interpolated before the flat gather: per stage and
    axis a search among all nodes, clipped, and each corner's index taken
    modulo the period on a periodic grid."""
    def cell_weights(coords, x, wrap):
        lower, frac = [], []
        for ax, c in enumerate(coords):
            i = np.clip(np.searchsorted(c, x[:, ax], side="right") - 1, 0, c.size - 2)
            lower.append(i)
            frac.append((x[:, ax] - c[i]) / (c[i + 1] - c[i]))
        corners = []
        for bits in itertools.product((0, 1), repeat=len(coords)):
            weight = math.prod(y if b else 1 - y for y, b in zip(frac, bits))
            index = tuple(i + b for i, b in zip(lower, bits))
            if wrap:
                index = tuple(i % (c.size - 1) for i, c in zip(index, coords))
            corners.append((index, weight[:, None]))
        return corners

    def interpolate(field, corners):
        value = 0.0
        for idx, weight in corners:
            value = value + field[idx] * weight
        return value

    grid = series.grid
    dim = grid.dim
    seeds = np.atleast_2d(np.asarray(seeds, dtype=float))
    lo = np.array([ax.lo for ax in grid.axes])
    hi = np.array([ax.hi for ax in grid.axes])
    periodic = grid.boundary == "periodic"
    n, h = np.array(grid.shape), np.array(grid.spacing)
    coords = [grid.coords(ax) if not periodic else
              np.append(grid.coords(ax), hi[ax]) for ax in range(dim)]
    frames = [frame[..., :dim] for frame in series.frames]

    def within(x):
        return lo + np.mod(x - lo, hi - lo) if periodic else x

    def vel(f, x):
        return interpolate(frames[f], cell_weights(coords, within(x), periodic))

    def vel_mid(f, x):
        corners = cell_weights(coords, within(x), periodic)
        return 0.5 * interpolate(frames[f], corners) + 0.5 * interpolate(frames[f + 1], corners)

    def masked_out(x, frame):
        node = np.rint((x - lo) / h).astype(int)
        node = np.mod(node, n) if periodic else np.clip(node, 0, n - 1)
        return ~masks[frame][tuple(node.T)]

    dt = series.dt
    paths = np.empty((len(series),) + seeds.shape)
    paths[0] = x = seeds
    truncated = np.zeros(seeds.shape[0], dtype=bool)
    for f in range(len(series) - 1):
        k1 = vel(f, x)
        k2 = vel_mid(f, x + 0.5 * dt * k1)
        k3 = vel_mid(f, x + 0.5 * dt * k2)
        k4 = vel(f + 1, x + dt * k3)
        step = x + dt * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
        out = False if periodic else np.any((step < lo) | (step > hi), axis=1)
        if not periodic:
            step = np.clip(step, lo, hi)
        paths[f + 1] = x = np.where(truncated[:, None], x, step)
        truncated |= out | masked_out(step, f + 1)
    return paths, truncated


@pytest.mark.parametrize("boundary", ["clamped", "periodic"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_flat_gather_paths_equal_the_per_corner_loop_bit_for_bit(dim, boundary):
    """A drifting flow with noise, on axes of different lengths and sizes, and
    a third velocity component that the paths must not read.  Seeds sit on
    nodes, at lo and at hi, inside cells, and on a node whose mask is False;
    the drift carries paths over hi, where they leave a clamped grid mid-run
    and cross the period edge of a periodic one."""
    rng = np.random.default_rng(10 * dim + (boundary == "periodic"))
    grid = gd.Grid(tuple(gd.Axis(-1.0, 2.0 + ax, n) for ax, n in enumerate((9, 7, 6)[:dim])),
                   boundary)
    times = np.linspace(0.0, 2.0, 21)
    frames = [0.9 + 0.3 * t + 0.2 * rng.normal(size=grid.shape + (3,)) for t in times]
    series = gd.SnapshotSeries(times, frames, grid)
    c = [grid.coords(ax) for ax in range(dim)]
    lo = [ax.lo for ax in grid.axes]
    hi = [ax.hi for ax in grid.axes]
    masked = tuple(size // 2 for size in grid.shape)
    node = np.ones(grid.shape, bool)
    node[masked] = False  # in frames 1 and 2, before the drift carries other seeds there
    seeds = np.array([[ca[2] for ca in c], lo, hi,
                      [ca[-2] for ca in c],  # near hi: leaves or wraps within a few steps
                      [ca[1] + 0.37 * (ca[2] - ca[1]) for ca in c],
                      [ca[i] for ca, i in zip(c, masked)]])
    seeds = np.vstack([seeds, rng.uniform(lo, hi, (6, dim))])
    masks = [np.ones(grid.shape, bool), node, node] + [np.ones(grid.shape, bool)] * 18
    want_paths, want_truncated = _reference_trajectories(series, seeds, masks)
    stacked = np.stack([frame[..., :dim] for frame in frames])
    if boundary == "periodic":
        stacked = np.pad(stacked, [(0, 0)] + [(0, 1)] * dim + [(0, 0)], mode="wrap")
    assert dy._Interpolator(grid, frames).flat.tobytes() == stacked.tobytes()
    traj = dy.integrate_trajectories(series, seeds, masks)
    assert traj.paths.tobytes() == want_paths.tobytes()
    assert traj.truncated.tobytes() == want_truncated.tobytes()
    frozen = traj.paths[:, 5]
    assert traj.truncated[5] and np.all(frozen[1:] == frozen[1])  # held at the masked node
    if boundary == "clamped":
        assert traj.truncated[2] and traj.truncated[3]
        assert np.any(traj.paths[-1] == hi)
    else:
        assert np.any(traj.paths[-1] > hi)  # unwrapped past the period edge
        assert not traj.truncated[[0, 1, 2, 3, 4]].any()


@pytest.mark.parametrize("boundary", ["clamped", "periodic"])
def test_the_interpolator_holds_8_bytes_a_point_frame(boundary):
    """The velocity of 201 frames on pauli_texture's line at 4096 points: one
    float per node and frame, a periodic grid's wrap slabs written into the
    same array, with no stacked copy beside it."""
    axis = harness.load_bundled("pauli_texture").grid.axes[0]
    grid = gd.Grid.line(axis.lo, axis.hi, 4096, boundary)
    frames = [np.full(grid.shape + (3,), 0.1 * f) for f in range(201)]
    tracemalloc.start()
    try:
        dy._Interpolator(grid, frames)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (len(frames) * grid.shape[0]) <= 8.25


def _fresh_python(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    return out.stdout.strip()


def test_import_leaves_scipy_interpolate_unloaded():
    imports = ", ".join(f"cliffordqm.{name}" for name in (
        "algebra", "cli", "dynamics", "grids", "harness", "observables", "oracle", "spinors"))
    code = f"import sys, {imports}; print('scipy.interpolate' in sys.modules)"
    assert _fresh_python(code) == "False"


def _loaded_after(module: str) -> set:
    """The modules a fresh interpreter holds after importing module."""
    return set(_fresh_python(f"import sys, {module}; print(*sys.modules)").split())


def test_a_module_import_loads_only_what_the_module_imports():
    def package(loaded):
        return {name for name in loaded if name.startswith("cliffordqm.")}

    top = _loaded_after("cliffordqm")
    assert not {name for name in top if name.startswith(("cliffordqm.", "scipy", "yaml"))}
    assert package(_loaded_after("cliffordqm.algebra")) == {"cliffordqm.algebra"}
    oracle = _loaded_after("cliffordqm.oracle")
    assert package(oracle) == {"cliffordqm.algebra", "cliffordqm.oracle"}
    assert not oracle & {"scipy.linalg", "yaml"}


def _glibc() -> bool:
    try:
        return os.confstr("CS_GNU_LIBC_VERSION").startswith("glibc")
    except (ValueError, OSError, AttributeError):
        return False


FREE_AND_REALLOCATE = """
import resource
import cliffordqm
import numpy as np
counts = []
for _ in range(4):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    arrays = [np.ones(1 << 18) for _ in range(24)]
    del arrays
    counts.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(*counts)
"""


@pytest.mark.skipif(not _glibc(), reason="the allocator policy is set under glibc only")
def test_freed_field_memory_is_reused_without_faulting_it_in_again():
    """24 arrays of 2 MiB, held together and freed, four times over: the first
    round faults their pages in, and the heap keeps them for the later ones,
    which glibc's default thresholds would trim and fault in every round."""
    pages = 24 * (1 << 21) // resource.getpagesize()
    counts = [int(c) for c in _fresh_python(FREE_AND_REALLOCATE).split()]
    assert counts[0] >= pages // 2
    assert all(c < 0.01 * pages for c in counts[1:]), counts


def _raise_value_error(name):
    raise ValueError(f"unrecognized configuration name: {name}")


@pytest.mark.parametrize("confstr", [_raise_value_error, lambda name: None,
                                     lambda name: "musl 1.2.4"],
                         ids=("no-confstr-name", "no-value", "other-libc"))
def test_without_glibc_the_allocator_is_left_as_it_is(monkeypatch, confstr):
    import ctypes

    import cliffordqm

    opened = []
    monkeypatch.setattr(os, "confstr", confstr)
    monkeypatch.setattr(ctypes, "CDLL", lambda *args: opened.append(args))
    cliffordqm._keep_freed_memory()
    assert opened == []


def test_a_refused_mmap_threshold_leaves_the_trim_threshold_as_it_is(monkeypatch):
    import ctypes

    import cliffordqm

    calls = []

    class Libc:
        @staticmethod
        def mallopt(param, value):
            calls.append((param, value))
            return 0

    monkeypatch.setattr(os, "confstr", lambda name: "glibc 2.36")
    monkeypatch.setattr(ctypes, "CDLL", lambda *args: Libc)
    cliffordqm._keep_freed_memory()
    assert calls == [(-3, 32 << 20)]


def test_scipy_fft_loads_on_the_first_split_step_past_one_axis():
    code = """
import sys, numpy as np, cliffordqm
from cliffordqm import dynamics as dy, grids as gd
for scheme, shape in (("crank-nicolson", (32,)), ("crank-nicolson", (8, 8)),
                      ("split-step", (32,)), ("split-step", (8, 8))):
    grid = gd.Grid(tuple(gd.Axis(-6.0, 6.0, n) for n in shape), dy.SCHEME_BOUNDARY[scheme])
    cfg = dy.EvolutionConfig(m=1.0, dt=1e-3, steps=2, scheme=scheme)
    dy.evolve(np.ones(shape, dtype=complex), grid, cfg)
    print("scipy.fft" in sys.modules)
"""
    assert _fresh_python(code).split() == ["False", "False", "False", "True"]


def test_scipy_linalg_loads_on_the_first_crank_nicolson_run():
    """A free Crank-Nicolson run builds its frames from psi0's sine spectrum
    on numpy.fft, so the bundled schrodinger_gaussian run loads neither
    scipy.linalg nor scipy.fft; a run with a potential solves with LAPACK."""
    code = """
import sys, numpy as np
from cliffordqm import dynamics as dy, grids as gd, harness
harness.run_scenario(harness.load_bundled("pauli_superposition"))
print("scipy.linalg" in sys.modules)
harness.run_scenario(harness.load_bundled("schrodinger_gaussian"))
print("scipy.linalg" in sys.modules, "scipy.fft" in sys.modules)
grid = gd.Grid.line(-6.0, 6.0, 32)
cfg = dy.EvolutionConfig(m=1.0, dt=1e-3, steps=2, V=0.5 * grid.coords(0) ** 2)
dy.evolve(np.ones(32, dtype=complex), grid, cfg)
print("scipy.linalg" in sys.modules)
"""
    first, gaussian, harmonic = _fresh_python(code).split("\n")
    assert gaussian.split() == ["False", "False"]
    assert [first, harmonic] == ["False", "True"]
