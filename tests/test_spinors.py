"""Ideal spinor constructions, the density element, and the matrix bridge."""

import cmath

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cliffordqm import algebra as alg
from cliffordqm import oracle
from cliffordqm import spinors as sp

RNG = np.random.default_rng(811)


def random_pauli_components(rng=RNG):
    vals = rng.standard_normal(4)
    psi1 = complex(vals[0], vals[1])
    psi2 = complex(vals[2], vals[3])
    if abs(psi1) + abs(psi2) < 1e-6:
        psi1 = 1.0 + 0j
    return psi1, psi2


def test_schrodinger_round_trip():
    for _ in range(100):
        z = complex(*RNG.standard_normal(2))
        phi = sp.from_wavefunction(z)
        assert (phi.U * phi.U.conjugate() - 1.0).norm_inf() <= alg.DEFAULT_TOL
        assert abs(sp.to_wavefunction(phi) - z) <= 1e-12


def test_pauli_round_trip():
    for _ in range(100):
        psi1, psi2 = random_pauli_components()
        phi = sp.from_components(psi1, psi2)
        assert (phi.U * phi.U.conjugate() - 1.0).norm_inf() <= alg.DEFAULT_TOL
        q1, q2 = sp.to_components(phi)
        assert abs(q1 - psi1) <= 1e-12
        assert abs(q2 - psi2) <= 1e-12


def test_rep_of_spinor_carries_column():
    """rep(Phi_L) must hold (psi1, psi2) in its first column, zeros in the second."""
    for _ in range(50):
        psi1, psi2 = random_pauli_components()
        phi = sp.from_components(psi1, psi2)
        m = oracle.matrix_rep(phi.element())
        assert abs(m[0, 0] - psi1) <= 1e-12
        assert abs(m[1, 0] - psi2) <= 1e-12
        assert abs(m[0, 1]) <= 1e-12
        assert abs(m[1, 1]) <= 1e-12


def test_cde_matches_density_matrix():
    for _ in range(100):
        psi1, psi2 = random_pauli_components()
        phi = sp.from_components(psi1, psi2)
        rho_c = sp.cde(phi)
        lhs = oracle.matrix_rep(rho_c.body)
        rhs = oracle.density_matrix(psi1, psi2)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12
        assert rho_c.rho == pytest.approx(abs(psi1) ** 2 + abs(psi2) ** 2)


def test_cde_idempotency_and_trace():
    psi1, psi2 = 0.3 + 0.4j, -0.7 + 0.1j
    phi = sp.from_components(psi1, psi2)
    rho_c = sp.cde(phi)
    body = rho_c.body
    # a pure-state density element squares to rho * itself
    sq = body * body
    assert (sq - rho_c.rho * body).norm_inf() <= 1e-12
    assert alg.algebra_trace(body) == pytest.approx(rho_c.rho)


def test_spin_vector_three_forms_agree():
    for _ in range(100):
        psi1, psi2 = random_pauli_components()
        phi = sp.from_components(psi1, psi2)
        a_def, s_mv = sp.spin_vector(phi)
        a_g = sp.spin_field_from_g(phi.g)
        a_psi = oracle.spin_direction(np.array([psi1, psi2]))
        assert np.max(np.abs(a_def - a_g)) <= 1e-12
        assert np.max(np.abs(a_def - a_psi)) <= 1e-12
        # a3 = (|psi1|^2 - |psi2|^2)/rho in the column form
        rho = abs(psi1) ** 2 + abs(psi2) ** 2
        assert a_def[2] == pytest.approx((abs(psi1) ** 2 - abs(psi2) ** 2) / rho)
        # the spin vector is grade 1 with |s| = 1/2
        assert np.linalg.norm(a_def) == pytest.approx(1.0)
        assert (s_mv - s_mv.grade(1)).norm_inf() <= 1e-12


def test_spin_vector_matches_sigma_expectation():
    for _ in range(50):
        psi1, psi2 = random_pauli_components()
        phi = sp.from_components(psi1, psi2)
        a, _ = sp.spin_vector(phi)
        col = np.array([psi1, psi2])
        rho = float(np.vdot(col, col).real)
        for k in range(3):
            exp_k = float(np.vdot(col, oracle.SIGMA[k] @ col).real) / rho
            assert a[k] == pytest.approx(exp_k, abs=1e-12)


def test_euler_round_trip():
    for _ in range(100):
        theta = float(RNG.uniform(0.05, np.pi - 0.05))
        phi_a = float(RNG.uniform(-np.pi + 0.05, np.pi - 0.05))
        chi = float(RNG.uniform(-2.0 * np.pi + 0.05, 2.0 * np.pi - 0.05))  # a half-angle
        R = float(RNG.uniform(0.2, 2.0))
        ang = sp.EulerAngles(theta, phi_a, chi, R)
        back = sp.to_euler(sp.from_euler(ang))
        assert back.theta == pytest.approx(theta, abs=1e-12)
        assert back.phi == pytest.approx(phi_a, abs=1e-12)
        assert back.chi == pytest.approx(chi, abs=1e-12)
        assert back.R == pytest.approx(R, abs=1e-12)
    # at the poles the returned gauge is phi = 0, and chi keeps its 4 pi period
    for theta in (0.0, np.pi):
        for chi in (-1.9 * np.pi, -1.5 * np.pi, 0.5 * np.pi, 1.5 * np.pi, 1.9 * np.pi):
            back = sp.to_euler(sp.from_euler(sp.EulerAngles(theta, 0.0, chi, 1.0)))
            assert (back.theta, back.phi, back.chi) == pytest.approx((theta, 0.0, chi), abs=1e-12)


def test_euler_pole_gauge():
    up = sp.to_euler(sp.from_components(1.0 + 0j, 0j))
    assert up.theta == pytest.approx(0.0, abs=1e-12)
    assert up.phi == 0.0
    down = sp.to_euler(sp.from_components(0j, 1j))
    assert down.theta == pytest.approx(np.pi, abs=1e-12)
    assert down.phi == 0.0


def test_euler_spin_direction():
    """With the half-angle forms used here, a = (sin t sin p, sin t cos p, cos t)."""
    for _ in range(50):
        theta = float(RNG.uniform(0.05, np.pi - 0.05))
        phi_a = float(RNG.uniform(-np.pi, np.pi))
        phi = sp.from_euler(sp.EulerAngles(theta, phi_a, 0.4))
        a, _ = sp.spin_vector(phi)
        expect = np.array([np.sin(theta) * np.sin(phi_a),
                           np.sin(theta) * np.cos(phi_a),
                           np.cos(theta)])
        assert np.max(np.abs(a - expect)) <= 1e-12


def test_phase_rotation_is_exact_symmetry():
    for _ in range(50):
        psi1, psi2 = random_pauli_components()
        phi = sp.from_components(psi1, psi2)
        lam = float(RNG.uniform(-np.pi, np.pi))
        rotated = sp.phase_rotate(phi, lam)
        # the CDE and the spin direction are first-kind data: exactly blind
        d = (sp.cde(phi).body - sp.cde(rotated).body).norm_inf()
        assert d <= 1e-12
        a0, _ = sp.spin_vector(phi)
        a1, _ = sp.spin_vector(rotated)
        assert np.max(np.abs(a0 - a1)) <= 1e-12


def test_phase_rotation_matches_global_phase():
    psi1, psi2 = 0.8 + 0.1j, 0.2 - 0.5j
    lam = 0.7
    rotated = sp.phase_rotate(sp.from_components(psi1, psi2), lam)
    q1, q2 = sp.to_components(rotated)
    # right multiplication by exp(e12 lam) is the global phase exp(+i lam):
    # rep(exp(e12 lam)) = diag(exp(i lam), exp(-i lam)) acts on the first column
    ph = cmath.exp(1j * lam)
    assert abs(q1 - psi1 * ph) <= 1e-12
    assert abs(q2 - psi2 * ph) <= 1e-12


def test_schrodinger_phase_rotation():
    z = 0.6 - 0.3j
    lam = 1.1
    rotated = sp.phase_rotate(sp.from_wavefunction(z), lam)
    assert abs(sp.to_wavefunction(rotated) - z * cmath.exp(1j * lam)) <= 1e-12


def test_degenerate_zero_spinor():
    phi = sp.from_components(0j, 0j)
    assert phi.degenerate
    assert phi.R == 0.0
    q1, q2 = sp.to_components(phi)
    assert q1 == 0 and q2 == 0


def test_vectorized_g_round_trip():
    psi1 = RNG.standard_normal(64) + 1j * RNG.standard_normal(64)
    psi2 = RNG.standard_normal(64) + 1j * RNG.standard_normal(64)
    R, g = sp.g_from_components(psi1, psi2)
    b1, b2 = sp.components_from_g(R, g)
    assert np.max(np.abs(b1 - psi1)) <= 1e-12
    assert np.max(np.abs(b2 - psi2)) <= 1e-12
    # field closed form agrees with the scalar one point by point
    a_field = sp.spin_field_from_g(g)
    for idx in (0, 17, 63):
        a_one = oracle.spin_direction(np.array([psi1[idx], psi2[idx]]))
        assert np.max(np.abs(a_field[idx] - a_one)) <= 1e-12


def test_wrong_algebra_rejected():
    phi = sp.from_wavefunction(1.0 + 1j)
    with pytest.raises(sp.UnsupportedAlgebraError):
        sp.spin_vector(phi)
    with pytest.raises(sp.UnsupportedAlgebraError):
        sp.to_components(phi)


# |psi| in [1e-6, 1e6] or exactly 0: below about 1e-154 the field's
# R = sqrt(|psi1|^2 + |psi2|^2) loses precision, and below about 1e-162 it
# underflows to 0, where math.hypot does neither
amplitudes = st.one_of(st.just(0.0), st.floats(1e-6, 1e6))
values = st.builds(cmath.rect, amplitudes, st.floats(-np.pi, np.pi))


@given(values, values)
def test_property_pauli_point_is_the_zero_dimensional_field(psi1, psi2):
    phi = sp.from_components(psi1, psi2)
    R, g = sp.g_from_components(np.array([psi1]), np.array([psi2]))
    assert np.max(np.abs(phi.U.coeffs - sp.even_field_coeffs(alg.PAULI, g)[0])) <= 1e-15
    a, _ = sp.spin_vector(phi)
    assert np.max(np.abs(sp.spin_field_from_g(phi.g) - a)) <= 1e-12
    assert phi.degenerate == (R[0] == 0.0)


@given(values)
def test_property_schrodinger_point_is_the_zero_dimensional_field(psi):
    phi = sp.from_wavefunction(psi)
    R, g = sp.g_from_wavefunction(np.array([psi]))
    assert np.max(np.abs(phi.U.coeffs - sp.even_field_coeffs(alg.SCHRODINGER, g)[0])) <= 1e-15
    assert phi.degenerate == (R[0] == 0.0)
