"""Grid construction, stencil accuracy, scenario sampling, and file formats."""

import numpy as np
import pytest

from cliffordqm import grids as gd


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
    grid = gd.Grid.line(0.0, 1.0, 8)
    frames = [np.zeros(grid.shape)] * 3
    with pytest.raises(gd.GridError):
        gd.SnapshotSeries(np.array([0.0, 0.1, 0.3]), frames, grid)
    with pytest.raises(gd.GridError):
        gd.SnapshotSeries(np.array([0.0, 0.1]), frames, grid)


def test_node_mask():
    rho = np.array([1.0, 1e-6, 1e-14, 0.0])
    mask = gd.node_mask(rho)
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
    d = gd.GaussianPacket(sigma=1.0, m=1.0)
    for t in (0.0, 1.0, 3.0):
        psi = gd.sample(d, grid, t)
        norm = np.sum(np.abs(psi) ** 2) * h
        assert norm == pytest.approx(1.0, abs=1e-8)
        # the density stays Gaussian with sigma_t^2 = sigma^2 (1 + (t/2 m sigma^2)^2)
        sig_t2 = 1.0 + (t / 2.0) ** 2
        x = grid.coords(0)
        var = np.sum(x ** 2 * np.abs(psi) ** 2) * h
        assert var == pytest.approx(sig_t2, rel=1e-6)


def test_harmonic_ground_state_is_stationary_density():
    grid = gd.Grid.line(-8.0, 8.0, 257)
    d = gd.HarmonicGroundState(omega=1.0, m=1.0)
    p0 = gd.sample(d, grid, 0.0)
    p1 = gd.sample(d, grid, 0.7)
    assert np.max(np.abs(np.abs(p1) ** 2 - np.abs(p0) ** 2)) < 1e-14
    # and the time dependence is the pure phase exp(-i E t), E = 1/2
    assert np.max(np.abs(p1 - p0 * np.exp(-0.5j * 0.7))) < 1e-14


def test_pauli_superposition_shape_and_norm():
    grid = gd.Grid.line(0.0, 4.0 * np.pi, 64, "periodic")
    psi = gd.sample(gd.PauliSuperposition(), grid)
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


# values that re + 1j * im would not rebuild: the sign of a zero real part, and
# an infinite imaginary part (0 * inf is nan)
UNREBUILDABLE = [complex(-0.0, 1.0), complex(1.0, np.inf)]


@pytest.mark.filterwarnings("error")
def test_spinor_file_round_trip_scalar(tmp_path):
    grid = gd.Grid.line(-1.0, 1.0, 17)
    rng = np.random.default_rng(3)
    psi = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    psi[:2] = UNREBUILDABLE
    path = tmp_path / "field.dat"
    gd.write_spinor_field(path, grid, psi)
    back = gd.read_spinor_field(path, grid)
    assert back.shape == psi.shape
    assert back.tobytes() == psi.tobytes()


@pytest.mark.filterwarnings("error")
def test_spinor_file_round_trip_pauli(tmp_path):
    grid = gd.Grid.line(-1.0, 1.0, 9)
    rng = np.random.default_rng(4)
    psi = rng.standard_normal(grid.shape + (2,)) + 1j * rng.standard_normal(grid.shape + (2,))
    psi[0] = UNREBUILDABLE
    psi[1] = UNREBUILDABLE[::-1]
    path = tmp_path / "field.dat"
    gd.write_spinor_field(path, grid, psi)
    back = gd.read_spinor_field(path, grid)
    assert back.shape == psi.shape
    assert back.tobytes() == psi.tobytes()
    # format: x then four real values per line
    line = path.read_text().splitlines()[0].split()
    assert len(line) == 5
    tiny = gd.Grid.line(0.0, 1.0, 5)
    special = np.array([[complex(-0.0, 1.0), complex(np.nan, -0.0)],
                        [complex(np.inf, 0.0), complex(0.0, 1e-300)],
                        [complex(-np.inf, -0.0), complex(1 / 3, 0.0)],
                        [0.1, 2j],
                        [1e16, complex(0.5, np.nan)]])
    gd.write_spinor_field(path, tiny, special)
    assert path.read_bytes() == (
        b"0 -0 1 nan -0\n"
        b"0.25 inf 0 0 1e-300\n"
        b"0.5 -inf -0 0.33333333333333331 0\n"
        b"0.75 0.10000000000000001 0 0 2\n"
        b"1 10000000000000000 0 0.5 nan\n")
    assert gd.read_spinor_field(path, tiny).tobytes() == special.tobytes()


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


@pytest.mark.parametrize("weights", [(0.0, 0.0), (float("nan"), 1.0), (float("inf"), 1.0)],
                         ids=["zero", "nan", "inf"])
def test_pauli_superposition_rejects_weights_without_finite_norm(weights):
    with pytest.raises(gd.GridError, match="weights"):
        gd.PauliSuperposition(weights=weights)
