"""Grid construction, stencil accuracy, scenario sampling, and file formats."""

import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cliffordqm import grids as gd
from cliffordqm import observables as ob


def test_axis_and_grid_validation():
    with pytest.raises(gd.GridError):
        gd.Grid.line(0.0, 1.0, 3)  # below minimum point count
    with pytest.raises(gd.GridError):
        gd.Grid.line(1.0, 0.0, 16)
    with pytest.raises(gd.GridError):
        gd.Grid.line(0.0, 1.0, 16, "reflecting")


def test_spacing_conventions():
    clamped = gd.Grid.line(0.0, 1.0, 11)
    assert clamped.spacing[0] == pytest.approx(0.1)
    assert clamped.coords(0)[-1] == pytest.approx(1.0)
    periodic = gd.Grid.line(0.0, 1.0, 10, "periodic")
    assert periodic.spacing[0] == pytest.approx(0.1)
    # periodic grids omit the duplicate endpoint
    assert periodic.coords(0)[-1] == pytest.approx(0.9)


def test_deriv_second_order_clamped():
    errs = []
    for n in (65, 129, 257):
        grid = gd.Grid.line(0.0, 1.0, n)
        x = grid.coords(0)
        d = gd.deriv(np.sin(3.0 * x), grid, 0)
        errs.append(np.max(np.abs(d - 3.0 * np.cos(3.0 * x))))
    # halving h divides the error by about 4, edges included
    assert errs[0] / errs[1] > 3.4
    assert errs[1] / errs[2] > 3.4


def test_deriv_periodic_wraps():
    grid = gd.Grid.line(0.0, 2.0 * np.pi, 128, "periodic")
    x = grid.coords(0)
    d = gd.deriv(np.sin(x), grid, 0)
    assert np.max(np.abs(d - np.cos(x))) < 1e-3


def test_laplacian_matches_second_derivative():
    grid = gd.Grid.line(-1.0, 1.0, 201)
    x = grid.coords(0)
    lap = gd.laplacian(np.exp(-x ** 2), grid)
    exact = (4.0 * x ** 2 - 2.0) * np.exp(-x ** 2)
    assert np.max(np.abs(lap - exact)) < 2e-3


def test_gradient_divergence_curl_3d():
    ax = gd.Axis(0.0, 2.0 * np.pi, 24)
    grid = gd.Grid((ax, ax, ax), "periodic")
    xs = grid.meshgrid()
    f = np.sin(xs[0]) * np.cos(xs[1])
    g = gd.gradient(f, grid)
    assert g.shape == grid.shape + (3,)
    assert np.max(np.abs(g[..., 2])) < 1e-12
    # div(curl v) = 0 to stencil accuracy
    v = np.stack([np.sin(xs[1]), np.sin(xs[2]), np.sin(xs[0])], axis=-1)
    c = gd.curl(v, grid)
    dc = gd.divergence(c, grid)
    assert np.max(np.abs(dc)) < 1e-10
    # bit for bit the curl of per-component derivatives, on either boundary
    rng = np.random.default_rng(11)
    for boundary in ("clamped", "periodic"):
        grid = gd.Grid((gd.Axis(0.0, 1.0, 7), gd.Axis(-1.0, 2.0, 6), gd.Axis(0.5, 1.5, 5)), boundary)
        w = rng.standard_normal(grid.shape + (3,))
        assert gd.curl(w, grid).tobytes() == curl_reference(w, grid).tobytes()


def curl_reference(v, grid):
    def d(comp, ax):
        return gd.deriv(v[..., comp], grid, ax)
    return np.stack([d(2, 1) - d(1, 2), d(0, 2) - d(2, 0), d(1, 0) - d(0, 1)], axis=-1)


def test_time_derivative_central():
    grid = gd.Grid.line(0.0, 1.0, 8)
    times = np.linspace(0.0, 1.0, 11)
    frames = [np.full(grid.shape, np.sin(t)) for t in times]
    d = gd.time_derivative(frames[4], frames[6], times[1] - times[0])
    assert np.max(np.abs(d - np.cos(times[5]))) < 2e-3


def test_snapshot_series_requires_uniform_times():
    """A series' times are StepTimes, which can only increase uniformly: an
    array of times, uniform or not, is refused, and so is a StepTimes over a
    range that does not increase or with a dt that is not positive and finite."""
    grid = gd.Grid.line(0.0, 1.0, 8)
    frames = [np.zeros(grid.shape)] * 3
    for times in (np.array([0.0, 0.1, 0.3]), np.array([0.0, 0.1, 0.2]), [0.0, 0.1, 0.2]):
        with pytest.raises(gd.GridError, match="StepTimes"):
            gd.SnapshotSeries(times, frames, grid)
    for dt, steps in ((0.1, range(2, -1, -1)), (0.0, range(3)), (-0.1, range(3)),
                      (np.inf, range(3)), (np.nan, range(3))):
        with pytest.raises(gd.GridError, match="positive finite dt and an increasing range"):
            gd.StepTimes(dt, steps)
    with pytest.raises(gd.GridError, match="length"):
        gd.SnapshotSeries(gd.StepTimes(0.1, range(2)), frames, grid)
    with pytest.raises(TypeError, match="dt"):  # a series' dt is its times', never given
        gd.SnapshotSeries(gd.StepTimes(0.1, range(3)), frames, grid, dt=0.11)
    assert gd.SnapshotSeries(gd.StepTimes(0.1, range(3)), frames, grid).dt == 0.1
    assert gd.SnapshotSeries(gd.StepTimes(0.1, range(4, 11, 3)), frames, grid).dt == 0.1 * 3


def test_node_mask():
    rho = np.array([1.0, 1e-6, 1e-14, 0.0])
    mask = ob.support_mask(rho, ob.NODE_EPS)
    assert mask.tolist() == [True, True, False, False]


def test_plane_wave_sample():
    grid = gd.Grid.line(0.0, 2.0 * np.pi, 32, "periodic")
    psi = gd.sample(gd.PlaneWave(k=(2.0, 0.0, 0.0), m=1.0), grid, t=0.5)
    x = grid.coords(0)
    expect = np.exp(1j * (2.0 * x - 2.0 * 0.5))
    assert np.max(np.abs(psi - expect)) < 1e-12


def test_gaussian_packet_normalization_and_spreading():
    grid = gd.Grid.line(-20.0, 20.0, 1001)
    h = grid.spacing[0]
    x = grid.coords(0)
    # at rest at the defaults, and moving: x0, k and m of neither default
    for sigma, x0, k, m in ((1.0, 0.0, 0.0, 1.0), (0.8, 1.5, 0.7, 2.0)):
        d = gd.GaussianPacket(sigma=sigma, x0=(x0, 0.0, 0.0), k=(k, 0.0, 0.0), m=m)
        for t in (0.0, 1.0, 3.0):
            rho = np.abs(gd.sample(d, grid, t)) ** 2
            norm = np.sum(rho) * h
            assert norm == pytest.approx(1.0, abs=1e-8)
            # the density stays Gaussian, about x0 + k t/m with
            # sigma_t^2 = sigma^2 (1 + (t/2 m sigma^2)^2)
            mean = np.sum(x * rho) * h
            assert mean == pytest.approx(x0 + k * t / m, abs=1e-8)
            sig_t2 = sigma ** 2 * (1.0 + (t / (2.0 * m * sigma ** 2)) ** 2)
            var = np.sum((x - mean) ** 2 * rho) * h
            assert var == pytest.approx(sig_t2, rel=1e-6)


def test_harmonic_ground_state_is_stationary_density():
    grid = gd.Grid.line(-8.0, 8.0, 257)
    h = grid.spacing[0]
    for omega, m in ((1.0, 1.0), (2.0, 0.75)):  # the defaults, and omega != m, m omega != 1
        d = gd.HarmonicGroundState(omega=omega, m=m)
        p0 = gd.sample(d, grid, 0.0)
        p1 = gd.sample(d, grid, 0.7)
        assert np.max(np.abs(np.abs(p1) ** 2 - np.abs(p0) ** 2)) < 1e-14
        # and the time dependence is the pure phase exp(-i E t), E = omega/2
        assert np.max(np.abs(p1 - p0 * np.exp(-0.5j * omega * 0.7))) < 1e-14
        # a normalised density of variance 1/(2 m omega)
        rho = np.abs(p0) ** 2
        assert np.sum(rho) * h == pytest.approx(1.0, abs=1e-12)
        variance = np.sum(grid.coords(0) ** 2 * rho) * h
        assert variance == pytest.approx(1.0 / (2.0 * m * omega), rel=1e-10)


@pytest.mark.parametrize("m", [0.5, 2.0])
def test_samples_at_mass_m_and_time_m_t_are_those_at_mass_one(m):
    """A free state of mass m at time m t is the mass-1 state at t, bit for
    bit for m a power of two: t enters the closed forms only as t/m."""
    grid = gd.Grid.line(-10.0, 10.0, 129)
    periodic = gd.Grid.line(0.0, 2.0 * np.pi, 64, "periodic")
    for t in (0.3, 1.7):
        for descriptor, on in ((gd.GaussianPacket(sigma=1.2, x0=(0.5, 0.0, 0.0),
                                                  k=(1.3, 0.0, 0.0), m=1.0), grid),
                               (gd.PlaneWave(k=(2.0, 0.0, 0.0), m=1.0), periodic)):
            heavy = gd.sample(dataclasses.replace(descriptor, m=m), on, m * t)
            assert np.array_equal(heavy, gd.sample(descriptor, on, t)), descriptor


def test_pauli_superposition_shape_and_norm():
    grid = gd.Grid.line(0.0, 4.0 * np.pi, 64, "periodic")
    psi = gd.sample(gd.PauliSuperposition(k1=(1.0, 0.0, 0.0), k2=(-1.0, 0.0, 0.0)), grid)
    assert psi.shape == grid.shape + (2,)
    rho = (np.abs(psi) ** 2).sum(axis=-1)
    assert np.max(np.abs(rho - 1.0)) < 1e-12


def test_euler_texture_components():
    grid = gd.Grid.line(-2.0, 2.0, 33)
    d = gd.EulerTexture(theta0=np.pi / 3, phi_k=(0.5, 0.0, 0.0))
    psi = gd.sample(d, grid)
    rho = (np.abs(psi) ** 2).sum(axis=-1)
    assert np.max(np.abs(rho - 1.0)) < 1e-12
    assert np.max(np.abs(np.abs(psi[..., 0]) - np.cos(np.pi / 6))) < 1e-12


def euler_texture_per_point(d, grid, t):
    """The texture's formula evaluated at every point over whole-grid angles."""
    xs = grid.meshgrid()

    def affine(c, k):
        out = np.zeros(grid.shape)
        for ax, x in enumerate(xs):
            out += k[ax] * x
        return c + out

    theta, phi = affine(d.theta0, d.theta_k), affine(d.phi0, d.phi_k)
    chi = affine(d.chi0, d.chi_k) - d.omega_t * t
    r2 = np.zeros(grid.shape)
    for ax, x in enumerate(xs):
        r2 += (x - d.x0[ax]) ** 2
    R = np.ones(grid.shape) if d.sigma is None else np.exp(-r2 / (4.0 * d.sigma ** 2))
    psi1 = R * np.cos(theta / 2.0) * np.exp(1j * (phi + chi) / 2.0)
    psi2 = 1j * R * np.sin(theta / 2.0) * np.exp(1j * (chi - phi) / 2.0)
    return np.stack([psi1, psi2], axis=-1)


# the per-axis sampler against the per-point formula in 2-D and 3-D, in ulp of
# |psi| <= 1 per unit of the largest half angle or envelope exponent, to which
# the per-point formula's own rounding of the angle sums grows; measured <= 1.1
TEXTURE_ULPS = 4.0


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("boundary", ["clamped", "periodic"])
def test_euler_texture_is_the_per_point_formula(dim, boundary):
    """Bit for bit on a line, and to TEXTURE_ULPS in 2-D and 3-D, with an
    envelope, an offset x0, a phase rate and t > 0."""
    rng = np.random.default_rng(dim * 10 + len(boundary))
    grid = gd.Grid(tuple(gd.Axis(-3.0 - ax, 4.0 + ax, 7 + 2 * ax) for ax in range(dim)), boundary)
    eps = np.finfo(float).eps
    for trial in range(12):
        vec = lambda: tuple(float(v) for v in rng.uniform(-1.0, 1.0, 3))  # noqa: E731
        d = gd.EulerTexture(theta0=float(rng.uniform(-3.0, 3.0)), theta_k=vec(),
                            phi0=float(rng.uniform(-3.0, 3.0)), phi_k=vec(),
                            chi0=float(rng.uniform(-3.0, 3.0)), chi_k=vec(),
                            sigma=None if trial % 3 == 0 else float(rng.uniform(0.5, 3.0)),
                            x0=vec(), omega_t=float(rng.uniform(0.1, 2.0)))
        t = float(rng.uniform(0.1, 3.0))
        got, want = gd.sample(d, grid, t), euler_texture_per_point(d, grid, t)
        if dim == 1:
            assert got.tobytes() == want.tobytes(), trial
            continue
        x = grid.meshgrid()
        size = [abs(c) + sum(abs(k[ax] * x[ax]) for ax in range(dim)).max()
                for c, k in ((d.theta0, d.theta_k), (d.phi0, d.phi_k),
                             (d.chi0 + d.omega_t * t, d.chi_k))]
        scale = max(1.0, (size[0] + size[1] + size[2]) / 2.0)
        if d.sigma is not None:
            r2 = sum((x[ax] - d.x0[ax]) ** 2 for ax in range(dim))
            scale = max(scale, r2.max() / (4.0 * d.sigma ** 2))
        assert np.abs(got - want).max() <= TEXTURE_ULPS * eps * scale, trial


def test_export_csv_deterministic(tmp_path):
    grid = gd.Grid.line(0.0, 1.0, 6)
    x = grid.coords(0)
    cols = {"rho": x ** 2, "P": np.stack([x, -x, 0 * x], axis=-1)}
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    gd.export_csv(p1, grid, cols)
    gd.export_csv(p2, grid, cols)
    assert p1.read_bytes() == p2.read_bytes()
    header = p1.read_text().splitlines()[0]
    assert header == "x,rho,P_0,P_1,P_2"
    tiny = gd.Grid.line(0.0, 1.0, 5)
    special = {"rho": np.array([-0.0, np.nan, np.inf, -np.inf, 1e-300]),
               "P": np.array([[0.1, -0.0], [1 / 3, 2.0], [-1e-300, np.nan],
                              [1e16, -np.inf], [0.5, 1e300]]),
               "n": np.arange(5)}
    gd.export_csv(p1, tiny, special)
    assert p1.read_bytes() == (
        b"x,rho,P_0,P_1,n\r\n"
        b"0,-0,0.10000000000000001,-0,0\r\n"
        b"0.25,nan,0.33333333333333331,2,1\r\n"
        b"0.5,inf,-1e-300,nan,2\r\n"
        b"0.75,-inf,10000000000000000,-inf,3\r\n"
        b"1,1e-300,0.5,1.0000000000000001e+300,4\r\n")


def test_write_csv_writes_the_bytes_of_savetxt(tmp_path):
    """numpy.savetxt, which both CSV outputs used, is the reference, with its
    integer columns printed by %d: %.17g prints an integer-valued float below
    10^17 as %d does."""
    rng = np.random.default_rng(11)
    table = rng.normal(size=(200, 4)) * 10.0 ** rng.integers(-320, 300, size=(200, 4))
    table[:, 0] = np.arange(200)
    table[:, 3] = rng.integers(0, 2, size=200)
    table[:4, 1:3] = [[-0.0, np.nan], [np.inf, -np.inf], [5e-324, -1.7976931348623157e308],
                      [1e16, 0.1]]
    formats, names = ["%d", "%.17g", "%.17g", "%d"], ["i", "a", "b", "flag"]
    gd.write_csv(tmp_path / "got.csv", names, table)
    with open(tmp_path / "want.csv", "w", newline="") as fh:
        np.savetxt(fh, table, fmt=formats, delimiter=",", newline="\r\n",
                   header=",".join(names), comments="")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def _percent_rows(names: list, table: np.ndarray) -> bytes:
    """What write_csv printed with one % per row: '%.17g' % value, every cell."""
    row = ",".join(["%.17g"] * table.shape[1])
    lines = [",".join(names)] + [row % tuple(values) for values in table.tolist()]
    return ("\r\n".join(lines) + "\r\n").encode()


def _assert_prints_as_percent(directory, table: np.ndarray) -> None:
    names = [f"c{j}" for j in range(table.shape[1])]
    gd.write_csv(directory / "table.csv", names, table)
    assert (directory / "table.csv").read_bytes() == _percent_rows(names, table)


_BIT_PATTERNS = st.integers(0, 2 ** 64 - 1).map(lambda b: float(np.uint64(b).view(np.float64)))


@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=12),
                  elements=st.one_of(_BIT_PATTERNS, st.floats(allow_subnormal=True))))
def test_write_csv_prints_what_percent_prints(tmp_path_factory, table):
    _assert_prints_as_percent(tmp_path_factory.mktemp("csv"), table)


def _first_in_window(a: int, n: int, lo: int, hi: int):
    """The least x >= 0 with lo <= a x mod n <= hi, for 0 <= lo <= hi < n, or None."""
    a %= n
    if lo == 0:
        return 0
    if a == 0:
        return None
    x = -(-lo // a)
    if a * x <= hi:
        return x
    # a x - n y in [lo, hi] for the least y: n y mod a in [-hi mod a, -lo mod a]
    y = _first_in_window(n % a, a, (-hi) % a, (-lo) % a)
    if y is None:
        return None
    x = -(-(lo + n * y) // a)
    return x if a * x - n * y <= hi else None


def _near_ties(count: int, seed: int, bits: int = 60) -> list:
    """Doubles v of decimal exponent X, with 10^(16 - X) not a double, whose
    q = v 10^(16 - X) lies within 2^-bits of a half-integer but not on one:
    the first significand m of a binade with m A mod N in the window about
    N / 2, for q = m A / N in integers."""
    rng = np.random.default_rng(seed)
    found = []
    while len(found) < count:
        X = int(rng.choice([x for x in range(-280, 281) if not -6 <= x <= 16]))
        E = math.frexp(10.0 ** X)[1] - 53 + int(rng.integers(0, 4))  # v = m 2^E
        k = 16 - X
        A, N = 10 ** max(k, 0) * 2 ** max(E, 0), 10 ** max(-k, 0) * 2 ** max(-E, 0)
        lo, hi = (N // 2 - (N >> bits) - A * 2 ** 52) % N, (N // 2 + (N >> bits) - A * 2 ** 52) % N
        xs = [_first_in_window(A, N, lo, hi)] if lo <= hi else [
            _first_in_window(A, N, lo, N - 1), _first_in_window(A, N, 0, hi)]
        xs = [x for x in xs if x is not None and x < 2 ** 52]
        if not xs:
            continue
        m = 2 ** 52 + min(xs)
        v = math.ldexp(m, E)
        if 10.0 ** X <= v < 10.0 ** (X + 1) and 2 * (m * A % N) != N:
            found.append(v)
    return found


def test_write_csv_prints_what_percent_prints_on_hard_families(tmp_path):
    """Every power of two, every power of ten and its two neighbours (1e17 to
    1e22 scale to q = 10^16 exactly by an inexact power), the doubles next to
    the 17-digit ties (d + 1/2) 10^k, and doubles within 2^-60 of such a tie,
    which only % can round; then the same in blocks."""
    rng = np.random.default_rng(5)
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    ties = np.array([float(f"{d}5e{k}") for d, k in zip(rng.integers(10 ** 16, 10 ** 17, 600),
                                                        rng.integers(-330, 292, 600))])
    values = np.concatenate([
        np.ldexp(1.0, np.arange(-1074, 1024)), 3.0 * np.ldexp(1.0, np.arange(-1074, 1023)),
        powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
        ties, np.nextafter(ties, 0.0), np.nextafter(ties, np.inf), _near_ties(64, 7)])
    values = np.concatenate([values, -values])
    _assert_prints_as_percent(tmp_path, np.resize(values, (-(-len(values) // 7), 7)))
    _assert_prints_as_percent(
        tmp_path, rng.normal(size=(3000, 7)) * 10.0 ** rng.integers(-9, 20, size=(3000, 7)))


def test_write_csv_holds_a_block_not_the_text(tmp_path):
    """A (40000, 11) table is written a block of rows at a time: the peak of
    what is allocated stays a few bytes a cell, where the text alone is about
    20 and the %-row writer held some 66."""
    table = np.random.default_rng(3).normal(size=(40000, 11))
    names = [f"c{j}" for j in range(11)]
    gd.write_csv(tmp_path / "warm.csv", names, table[:8])  # the lookup tables, once
    tracemalloc.start()
    try:
        gd.write_csv(tmp_path / "table.csv", names, table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / table.size <= 8.0


def test_writing_a_csv_loads_neither_fractions_nor_decimal(tmp_path):
    code = ("import sys, numpy as np; from cliffordqm import cli, grids, harness; "
            f"grids.write_csv({str(tmp_path / 't.csv')!r}, ['a'], np.ones((3, 1))); "
            "print('fractions' in sys.modules, 'decimal' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                         check=True)
    assert out.stdout.split() == ["False", "False"]


@pytest.mark.parametrize("weights", [(0.0, 0.0), (float("nan"), 1.0), (float("inf"), 1.0)],
                         ids=["zero", "nan", "inf"])
def test_pauli_superposition_rejects_weights_without_finite_norm(weights):
    with pytest.raises(gd.GridError, match="weights"):
        gd.PauliSuperposition(k1=(1.0, 0.0, 0.0), k2=(-1.0, 0.0, 0.0), weights=weights)
