"""Storage order of derived fields: component-first memory behind trailing-axis shapes.

A derived field keeps its public shape, grid.shape + value axes, and is stored
with its value axes outermost.  The kernels must give the same bits whatever
the memory order of their operands, and a single point must still equal the
point of a field.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cliffordqm import algebra as alg
from cliffordqm import grids as gd
from cliffordqm import observables as ob
from cliffordqm import oracle as orc

finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
# signed zeros and infinities too: inf * 0 and inf - inf make NaNs, whose bits
# must agree as well
signed = st.one_of(finite, st.sampled_from((0.0, -0.0, np.inf, -np.inf)))
small_complex = st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False)


def component_first_view(trailing: np.ndarray) -> np.ndarray:
    """The same values as trailing, stored with the last axis outermost."""
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(trailing, -1, 0)), 0, -1)


def same_bits(x: np.ndarray, y: np.ndarray) -> bool:
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


@st.composite
def grid_and_field(draw, n_values: int, elements=finite):
    dim = draw(st.integers(1, 3))
    sizes = draw(st.lists(st.integers(gd.MIN_POINTS, 7), min_size=dim, max_size=dim))
    boundary = draw(st.sampled_from(("clamped", "periodic")))
    grid = gd.Grid(tuple(gd.Axis(0.0, 1.0 + ax, n) for ax, n in enumerate(sizes)), boundary)
    values = draw(hnp.arrays(float, grid.shape + (n_values,), elements=elements))
    return grid, values


@settings(max_examples=50)
@given(grid_and_field(3))
def test_property_stencils_give_the_same_bits_in_either_memory_order(case):
    grid, field = case
    view = component_first_view(field)
    for stencil in (gd.gradient, gd.laplacian, gd.divergence, gd.curl):
        assert same_bits(stencil(view, grid), stencil(field, grid))
    assert same_bits(gd.gradient(view[..., :1], grid), gd.gradient(field[..., :1], grid))


def _curl_of_gradient(v, grid):
    """The curl from all nine derivatives, zero along the axes the grid lacks."""
    d = gd.gradient(v, grid)  # [..., component, axis]
    out = gd.component_first(v.shape, grid.dim)
    for k, i, j in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        out[..., k] = d[..., j, i] - d[..., i, j]
    return out


@settings(max_examples=50)
@given(grid_and_field(3, st.one_of(finite, st.sampled_from((0.0, -0.0)))))
def test_property_curl_gives_the_bits_of_the_nine_derivative_form(case):
    """Six derivatives and a scalar 0.0 for each missing axis: the same bytes,
    signed zeros included, in either memory order."""
    grid, field = case
    want = _curl_of_gradient(field, grid)
    assert same_bits(gd.curl(field, grid), want)
    assert same_bits(gd.curl(component_first_view(field), grid), want)
    assert np.moveaxis(gd.curl(field, grid), -1, 0).flags.c_contiguous


@st.composite
def sig_and_pair(draw):
    """Two operands of one layout, of one field shape (zero-dimensional included)."""
    sig = draw(st.sampled_from((alg.SCHRODINGER, alg.PAULI)))
    n = draw(st.sampled_from((sig.dim, len(alg._G_SLOTS[sig]))))
    shape = draw(hnp.array_shapes(min_dims=0, max_dims=3, max_side=4)) + (n,)
    a, b = (draw(hnp.arrays(float, shape, elements=signed)) for _ in range(2))
    return sig, a, b


@settings(max_examples=50)
@given(sig_and_pair())
def test_property_products_give_the_same_bits_in_either_memory_order(case):
    sig, a, b = case
    with np.errstate(invalid="ignore"):
        field = alg.gp_coeffs(sig, a, b)
        # the scalar row alone is the product's scalar part, in either order
        assert same_bits(alg.gp_scalar(sig, a, b), field[..., 0])
        if a.ndim > 1:
            views = component_first_view(a), component_first_view(b)
            assert same_bits(alg.gp_coeffs(sig, *views), field)
            assert same_bits(alg.gp_scalar(sig, *views), field[..., 0])
        # each point of a field is the single-element product of its operands' points
        for idx in np.ndindex(a.shape[:-1]):
            assert same_bits(alg.gp_coeffs(sig, a[idx], b[idx]), field[idx])
            assert same_bits(alg.gp_scalar(sig, a[idx], b[idx]), field[idx][0])


def test_derived_fields_are_stored_component_first():
    """np.moveaxis(x, -1, 0) is C-ordered: each component is one contiguous block."""
    grid = gd.Grid((gd.Axis(0.0, 4.0 * np.pi, 8),) * 3, "periodic")
    texture = gd.EulerTexture(theta0=1.2, theta_k=(0.5, -0.5, 0.5), phi_k=(0.5, 0.0, -0.5))
    state = ob.SpinorField(grid, gd.sample(texture, grid))
    current = ob.pauli_current(state, 1.0)
    fields = {"g": state.g, "spin": state.spin, "P": state.P, "W": state.gamma_u_conj,
              "lap_spin": state.lap_spin, "grad_ln_rho": state.grad_ln_rho,
              "J_rot": current.J_rot, "v": current.v,
              "oracle.momentum_density": orc.momentum_density(state.psi, grid),
              "oracle.spin_direction": orc.spin_direction(state.psi),
              "oracle.messiah_current": orc.messiah_current(state.psi, grid, 1.0)}
    for name, x in fields.items():
        assert np.moveaxis(x, -1, 0).flags.c_contiguous, name
    # a gradient keeps its derivative axis outermost: (axis, component, *grid)
    assert np.moveaxis(state.grad_spin, (-1, -2), (0, 1)).flags.c_contiguous


# The oracle's expressions as they were written component-last, with rolled
# copies and trailing-axis sums: its component-first code must give their bits.

def _grad_rolled(values, grid):
    if grid.boundary == "periodic":
        return [(np.roll(values, -1, ax) - np.roll(values, 1, ax)) / (2.0 * h)
                for ax, h in enumerate(grid.spacing)]
    return [np.gradient(values, h, axis=ax, edge_order=2) for ax, h in enumerate(grid.spacing)]


def _momentum_density_rolled(psi, grid):
    components = [psi] if psi.shape == grid.shape else [psi[..., 0], psi[..., 1]]
    out = np.zeros(grid.shape + (3,))
    for comp in components:
        for ax, d in enumerate(_grad_rolled(comp, grid)):
            out[..., ax] += (comp.conjugate() * d).imag
    return out


def _probability_density_summed(psi):
    dens = np.abs(psi) ** 2
    return dens.sum(axis=-1) if psi.ndim and psi.shape[-1] == 2 else dens


def _spin_direction_stacked(psi):
    p1, p2 = psi[..., 0], psi[..., 1]
    norm = np.abs(p1) ** 2 + np.abs(p2) ** 2
    safe = np.where(norm > 0.0, norm, 1.0)
    a1 = 2.0 * (p1 * p2.conjugate()).real
    a2 = -2.0 * (p1 * p2.conjugate()).imag
    a3 = np.abs(p1) ** 2 - np.abs(p2) ** 2
    return np.stack([a1, a2, a3], axis=-1) / safe[..., None]


def _curl_rolled(v, grid):
    derivs = np.zeros(grid.shape + (3, 3))
    for comp in range(3):
        for ax, d in enumerate(_grad_rolled(v[..., comp], grid)):
            derivs[..., comp, ax] = d
    out = np.zeros_like(v)
    out[..., 0] = derivs[..., 2, 1] - derivs[..., 1, 2]
    out[..., 1] = derivs[..., 0, 2] - derivs[..., 2, 0]
    out[..., 2] = derivs[..., 1, 0] - derivs[..., 0, 1]
    return out


def _messiah_current_rolled(psi, grid, m):
    s = 0.5 * _probability_density_summed(psi)[..., None] * _spin_direction_stacked(psi)
    return (_momentum_density_rolled(psi, grid) + _curl_rolled(s, grid)) / m


@st.composite
def grid_and_psi(draw):
    dim = draw(st.integers(1, 3))
    sizes = draw(st.lists(st.integers(gd.MIN_POINTS, 7), min_size=dim, max_size=dim))
    boundary = draw(st.sampled_from(("clamped", "periodic")))
    grid = gd.Grid(tuple(gd.Axis(0.0, 1.0 + ax, n) for ax, n in enumerate(sizes)), boundary)
    spin = draw(st.sampled_from(((), (2,))))
    psi = draw(hnp.arrays(complex, grid.shape + spin, elements=small_complex))
    return grid, psi, draw(st.sampled_from((0.5, 1.0, 2.0)))


@settings(max_examples=50)
@given(grid_and_psi())
def test_property_oracle_fields_give_the_bits_of_the_rolled_component_last_forms(case):
    grid, psi, m = case
    for got, want in zip(orc._grad(psi, grid), _grad_rolled(psi, grid)):
        assert same_bits(got, want)
    assert same_bits(orc.momentum_density(psi, grid), _momentum_density_rolled(psi, grid))
    assert same_bits(orc.probability_density(psi), _probability_density_summed(psi))
    if psi.shape != grid.shape:
        assert same_bits(orc.spin_direction(psi), _spin_direction_stacked(psi))
        assert same_bits(orc.messiah_current(psi, grid, m), _messiah_current_rolled(psi, grid, m))
        assert same_bits(orc._curl(psi.real[..., [0, 1, 0]], grid),
                         _curl_rolled(psi.real[..., [0, 1, 0]], grid))


@settings(max_examples=50)
@given(grid_and_psi(), st.integers(1, 3))
def test_property_rho_is_the_summed_density_bit_for_bit(case, n_stack):
    """rho adds a Pauli field's two component densities in one pass; the bits
    are those of the trailing-axis sum, for single and stacked fields."""
    grid, psi, _ = case
    spin = psi.shape[grid.dim:]
    stack = np.stack([psi * (j + 1) for j in range(n_stack)], axis=grid.dim)
    for state, field in ((ob.SpinorField(grid, psi), psi),
                         (ob.SpinorField(grid, stack, stacked=True), stack)):
        dens = np.abs(field) ** 2
        assert same_bits(state.rho, dens.sum(axis=-1) if spin else dens)
