"""Sanity checks on the standard-formalism reference implementations.

The oracle must be trustworthy on closed forms before it can referee the
algebraic pipeline, so everything here compares against hand-computable
expressions only.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from cliffordqm import algebra as alg
from cliffordqm import grids as gd
from cliffordqm import oracle


def test_oracle_imports_only_the_element_types():
    """The oracle is an independent referee: from the package it takes the
    element and signature types, never the Clifford products, the Cayley
    table, the stencils or the algebraic observables."""
    tree = ast.parse(Path(oracle.__file__).read_text())
    package = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level or node.module.startswith("cliffordqm"):
                package.append((node.level, node.module, sorted(a.name for a in node.names)))
        elif isinstance(node, ast.Import):
            assert not any(a.name.startswith("cliffordqm") for a in node.names)
    assert package == [(1, "algebra", ["Multivector", "Signature"])]


def test_sigma_algebra():
    s1, s2, s3 = oracle.SIGMA
    ident = np.eye(2)
    for s in (s1, s2, s3):
        assert np.allclose(s @ s, ident)
        assert np.allclose(s, s.conj().T)
    assert np.allclose(s1 @ s2, 1j * s3)


def test_matrix_rep_generators():
    for k, name in enumerate(("e1", "e2", "e3")):
        m = oracle.matrix_rep(alg.Multivector.blade(alg.PAULI, name))
        assert np.allclose(m, oracle.SIGMA[k])
    z = oracle.matrix_rep(alg.Multivector.blade(alg.SCHRODINGER, "e"))
    assert z == 1j


def test_density_matrix_properties():
    rho = oracle.density_matrix(0.6, 0.8j)
    assert np.allclose(rho, rho.conj().T)
    assert np.trace(rho).real == pytest.approx(1.0)
    assert np.allclose(rho @ rho, rho)


def test_momentum_density_plane_wave():
    grid = gd.Grid.line(0.0, 2.0 * np.pi, 64, "periodic")
    psi = gd.sample(gd.PlaneWave(k=(3.0, 0.0, 0.0)), grid)
    p = oracle.momentum_density(psi, grid)
    # T^0x = rho * k with rho = 1; interior bias k^3 h^2 / 6, one-sided
    # edge stencils roughly double it
    h = grid.spacing[0]
    assert np.max(np.abs(p[..., 0] - 3.0)) < 27.0 * h ** 2 / 6.0 * 2.5
    assert np.max(np.abs(p[..., 1])) < 1e-12


def test_momentum_density_sums_components():
    grid = gd.Grid.line(0.0, 2.0 * np.pi, 64, "periodic")
    c1 = gd.sample(gd.PlaneWave(k=(1.0, 0.0, 0.0)), grid) / np.sqrt(2.0)
    c2 = gd.sample(gd.PlaneWave(k=(-1.0, 0.0, 0.0)), grid) / np.sqrt(2.0)
    psi = np.stack([c1, c2], axis=-1)
    p = oracle.momentum_density(psi, grid)
    # equal and opposite currents cancel
    assert np.max(np.abs(p[..., 0])) < 1e-12


def test_energy_density_stationary_phase():
    grid = gd.Grid.line(-6.0, 6.0, 129)
    d = gd.HarmonicGroundState()
    dt = 1e-3
    frames = tuple(gd.sample(d, grid, t) for t in (-dt, 0.0, dt))
    e = oracle.energy_density(frames, dt)
    rho = oracle.probability_density(frames[1])
    # E = omega/2 everywhere, density-weighted; the central stencil bias
    # is (E dt)^2 / 6 relative
    assert np.max(np.abs(e - 0.5 * rho)) < 1e-7


def test_spin_direction_basis_states():
    up = oracle.spin_direction(np.array([1.0 + 0j, 0j]))
    assert np.allclose(up, [0.0, 0.0, 1.0])
    plus = oracle.spin_direction(np.array([1.0 + 0j, 1.0 + 0j]) / np.sqrt(2))
    assert np.allclose(plus, [1.0, 0.0, 0.0], atol=1e-12)


def test_messiah_current_uniform_spin():
    """For a spatially constant spin direction the curl term vanishes."""
    grid = gd.Grid.line(0.0, 2.0 * np.pi, 128, "periodic")
    base = gd.sample(gd.PlaneWave(k=(2.0, 0.0, 0.0)), grid)
    psi = np.stack([base, np.zeros_like(base)], axis=-1)
    j = oracle.messiah_current(psi, grid, m=2.0)
    h = grid.spacing[0]
    assert np.max(np.abs(j[..., 0] - 1.0)) < 8.0 * h ** 2 / 6.0 * 1.2
    assert np.max(np.abs(j[..., 1])) < 1e-10
    assert np.max(np.abs(j[..., 2])) < 1e-10


def test_messiah_current_includes_spin_rotation():
    """A spin texture with uniform phase carries only the curl current."""
    grid = gd.Grid.line(-4.0, 4.0, 257)
    d = gd.EulerTexture(theta0=np.pi / 2, theta_k=(0.3, 0.0, 0.0), sigma=1.0)
    psi = gd.sample(d, grid)
    j = oracle.messiah_current(psi, grid, m=1.0)
    rho = oracle.probability_density(psi)
    a = oracle.spin_direction(psi)
    curl_term = oracle._curl(rho[..., None] * a / 2.0, grid)
    assert np.max(np.abs(j - curl_term)) < 1e-10
