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

finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


def component_first_view(trailing: np.ndarray) -> np.ndarray:
    """The same values as trailing, stored with the last axis outermost."""
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(trailing, -1, 0)), 0, -1)


def same_bits(x: np.ndarray, y: np.ndarray) -> bool:
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


@st.composite
def grid_and_field(draw, n_values: int):
    dim = draw(st.integers(1, 3))
    sizes = draw(st.lists(st.integers(gd.MIN_POINTS, 7), min_size=dim, max_size=dim))
    boundary = draw(st.sampled_from(("clamped", "periodic")))
    grid = gd.Grid(tuple(gd.Axis(0.0, 1.0 + ax, n) for ax, n in enumerate(sizes)), boundary)
    values = draw(hnp.arrays(float, grid.shape + (n_values,), elements=finite))
    return grid, values


@settings(max_examples=50)
@given(grid_and_field(3))
def test_property_stencils_give_the_same_bits_in_either_memory_order(case):
    grid, field = case
    view = component_first_view(field)
    for stencil in (gd.gradient, gd.laplacian, gd.divergence, gd.curl):
        assert same_bits(stencil(view, grid), stencil(field, grid))
    assert same_bits(gd.gradient(view[..., :1], grid), gd.gradient(field[..., :1], grid))


@st.composite
def sig_and_pair(draw):
    """Two operands of one layout, of one field shape (zero-dimensional included)."""
    sig = draw(st.sampled_from((alg.SCHRODINGER, alg.PAULI)))
    n = draw(st.sampled_from((sig.dim, len(alg._G_SLOTS[sig]))))
    shape = draw(hnp.array_shapes(min_dims=0, max_dims=3, max_side=4)) + (n,)
    a, b = (draw(hnp.arrays(float, shape, elements=finite)) for _ in range(2))
    return sig, a, b


@settings(max_examples=50)
@given(sig_and_pair())
def test_property_products_give_the_same_bits_in_either_memory_order(case):
    sig, a, b = case
    field = alg.gp_coeffs(sig, a, b)
    if a.ndim > 1:
        assert same_bits(alg.gp_coeffs(sig, component_first_view(a), component_first_view(b)),
                         field)
    # each point of a field is the single-element product of its operands' points
    for idx in np.ndindex(a.shape[:-1]):
        assert same_bits(alg.gp_coeffs(sig, a[idx], b[idx]), field[idx])


def test_derived_fields_are_stored_component_first():
    """np.moveaxis(x, -1, 0) is C-ordered: each component is one contiguous block."""
    grid = gd.Grid((gd.Axis(0.0, 4.0 * np.pi, 8),) * 3, "periodic")
    texture = gd.EulerTexture(theta0=1.2, theta_k=(0.5, -0.5, 0.5), phi_k=(0.5, 0.0, -0.5))
    state = ob.SpinorField(grid, gd.sample(texture, grid))
    current = ob.pauli_current(state, 1.0)
    fields = {"g": state.g, "spin": state.spin, "P": state.P, "S": state.spin_bivector_coeffs,
              "lap_spin": state.lap_spin, "grad_ln_rho": state.grad_ln_rho,
              "omega": state.omega[0], "J_rot": current.J_rot, "v": current.v}
    for name, x in fields.items():
        assert np.moveaxis(x, -1, 0).flags.c_contiguous, name
    # a gradient keeps its derivative axis outermost: (axis, component, *grid)
    assert np.moveaxis(state.grad_spin, (-1, -2), (0, 1)).flags.c_contiguous
