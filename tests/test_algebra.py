"""Algebra kernel checks: products, involutions, traces, matrix bridge."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cliffordqm import algebra as alg
from cliffordqm import oracle
from cliffordqm import spinors

RNG = np.random.default_rng(20260824)

SIGS = (alg.SCHRODINGER, alg.PAULI)


def random_mv(sig, rng=RNG):
    return alg.Multivector(sig, rng.standard_normal(sig.dim))


def test_signature_basics():
    assert alg.SCHRODINGER.dim == 2
    assert alg.PAULI.dim == 8
    assert alg.SCHRODINGER.trace_weight == 1
    assert alg.PAULI.trace_weight == 2
    with pytest.raises(ValueError):
        alg.Signature(1, 1)


def test_blade_names_canonical_order():
    assert alg.cayley_table(alg.SCHRODINGER).names == ("1", "e")
    assert alg.cayley_table(alg.PAULI).names == (
        "1", "e1", "e2", "e3", "e23", "e13", "e12", "e123")


def test_generator_squares():
    e = alg.Multivector.blade(alg.SCHRODINGER, "e")
    assert (e * e).approx_eq(alg.Multivector.scalar(alg.SCHRODINGER, -1.0))
    for name in ("e1", "e2", "e3"):
        ek = alg.Multivector.blade(alg.PAULI, name)
        assert (ek * ek).approx_eq(alg.Multivector.scalar(alg.PAULI, 1.0))


def test_pauli_anticommutation():
    e1 = alg.Multivector.blade(alg.PAULI, "e1")
    e2 = alg.Multivector.blade(alg.PAULI, "e2")
    anti = alg.commutator_pm(e1, e2, "+")
    assert anti.norm_inf() < 1e-15
    comm = alg.commutator_pm(e1, e2, "-")
    e12 = alg.Multivector.blade(alg.PAULI, "e12")
    assert comm.approx_eq(2.0 * e12)


@pytest.mark.parametrize("sig", SIGS, ids=("cl01", "cl30"))
def test_associativity_randomized(sig):
    for _ in range(200):
        a, b, c = (random_mv(sig) for _ in range(3))
        lhs = (a * b) * c
        rhs = a * (b * c)
        assert (lhs - rhs).norm_inf() <= 1e-12


@pytest.mark.parametrize("sig", SIGS, ids=("cl01", "cl30"))
def test_conjugation_anti_involution(sig):
    for _ in range(200):
        a, b = random_mv(sig), random_mv(sig)
        lhs = (a * b).conjugate()
        rhs = b.conjugate() * a.conjugate()
        assert (lhs - rhs).norm_inf() <= 1e-12
        assert (a.conjugate().conjugate() - a).norm_inf() <= 1e-12


def test_conjugation_grade_signs():
    # S - V - B + P
    for sig in SIGS:
        a = random_mv(sig)
        c = a.conjugate()
        for k in range(sig.n_generators + 1):
            sign = (-1.0) ** (k * (k + 1) // 2)
            part = a.grade(k)
            assert (c.grade(k) - sign * part).norm_inf() <= 1e-14


@pytest.mark.parametrize("sig", SIGS, ids=("cl01", "cl30"))
def test_central_unit(sig):
    i = alg.central_unit(sig)
    assert (i * i).approx_eq(alg.Multivector.scalar(sig, -1.0))
    for _ in range(200):
        a = random_mv(sig)
        assert (i * a - a * i).norm_inf() <= 1e-12


@pytest.mark.parametrize("sig", SIGS, ids=("cl01", "cl30"))
def test_matrix_rep_homomorphism(sig):
    for _ in range(200):
        a, b = random_mv(sig), random_mv(sig)
        lhs = oracle.matrix_rep(a * b)
        rhs = np.dot(oracle.matrix_rep(a), oracle.matrix_rep(b)) \
            if sig == alg.PAULI else oracle.matrix_rep(a) * oracle.matrix_rep(b)
        assert np.max(np.abs(np.asarray(lhs) - np.asarray(rhs))) <= 1e-12


@pytest.mark.parametrize("sig", SIGS, ids=("cl01", "cl30"))
def test_cayley_table_matches_the_matrix_representation(sig):
    """e_i e_j = sign[i,j] e_index[i,j] for every blade pair, in the oracle's matrices."""
    tab = alg.cayley_table(sig)
    rep = [oracle.matrix_rep(alg.Multivector.blade(sig, name)) for name in tab.names]
    for i, j in np.ndindex(tab.index.shape):
        assert np.array_equal(np.dot(rep[i], rep[j]), tab.sign[i, j] * rep[tab.index[i, j]])


@pytest.mark.parametrize("sig", SIGS, ids=("cl01", "cl30"))
def test_trace_matches_representation(sig):
    for _ in range(100):
        a = random_mv(sig)
        t_alg = alg.algebra_trace(a)
        t_rep = oracle.rep_trace(oracle.matrix_rep(a))
        # the central unit contributes the imaginary part; the algebra trace
        # is the real part of the representation trace
        assert abs(t_alg - t_rep.real) <= 1e-12


def test_trace_is_weighted_scalar_part():
    a = random_mv(alg.PAULI)
    assert alg.algebra_trace(a) == pytest.approx(2.0 * a.scalar_part)
    b = random_mv(alg.SCHRODINGER)
    assert alg.algebra_trace(b) == pytest.approx(b.scalar_part)


def test_grade_projection_partition():
    for sig in SIGS:
        a = random_mv(sig)
        total = alg.Multivector(sig, np.zeros(sig.dim))
        for k in range(sig.n_generators + 1):
            total = total + a.grade(k)
        assert (total - a).norm_inf() <= 1e-15


def test_idempotents():
    eps01 = alg.idempotent(alg.SCHRODINGER)
    assert alg.is_idempotent(eps01)
    assert eps01.approx_eq(alg.Multivector.scalar(alg.SCHRODINGER, 1.0))
    eps30 = alg.idempotent(alg.PAULI)
    assert alg.is_idempotent(eps30)
    e3 = alg.Multivector.blade(alg.PAULI, "e3")
    one = alg.Multivector.scalar(alg.PAULI, 1.0)
    assert eps30.approx_eq(0.5 * (one + e3))
    assert not alg.is_idempotent(e3)


def test_commutator_jacobi():
    a, b, c = (random_mv(alg.PAULI) for _ in range(3))

    def comm(x, y):
        return alg.commutator_pm(x, y, "-")

    jac = comm(a, comm(b, c)) + comm(b, comm(c, a)) + comm(c, comm(a, b))
    assert jac.norm_inf() <= 1e-12


def test_mixed_signature_rejected():
    a = random_mv(alg.SCHRODINGER)
    b = random_mv(alg.PAULI)
    with pytest.raises(alg.AlgebraMismatchError):
        a * b
    with pytest.raises(alg.AlgebraMismatchError):
        a + b


def test_multivector_is_immutable():
    a = random_mv(alg.PAULI)
    with pytest.raises(AttributeError):
        a.coeffs = np.zeros(8)
    assert not a.coeffs.flags.writeable


def test_scalar_and_blade_constructors():
    s = alg.Multivector.scalar(alg.PAULI, 3.5)
    assert s.scalar_part == 3.5
    with pytest.raises(ValueError):
        alg.Multivector.blade(alg.PAULI, "e4")


# ---------------------------------------------------------------------------
# the product kernel against a reference sum over the Cayley table

def reference_gp(sig, a, b):
    """Every (i, j) blade pair in order, added into a zeroed output."""
    tab = alg.cayley_table(sig)
    out = np.zeros(np.broadcast_shapes(a.shape, b.shape))
    for i in range(sig.dim):
        for j in range(sig.dim):
            out[..., tab.index[i, j]] += tab.sign[i, j] * a[..., i] * b[..., j]
    return out


def assert_bitwise_equal(x, y):
    assert x.shape == y.shape
    bits = [np.ascontiguousarray(v, dtype=float).view(np.uint64) for v in (x, y)]
    assert np.array_equal(*bits)


def coefficients(shape, rng=RNG):
    """Random coefficients with exact zeros of both signs mixed in."""
    c = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape)
    c[rng.random(shape) < 0.15] = 0.0
    c[rng.random(shape) < 0.15] = -0.0
    return c


@pytest.mark.parametrize("sig", SIGS, ids=("cl01", "cl30"))
@pytest.mark.parametrize("shapes", [
    ((), ()),                    # single elements
    ((257,), (257,)),            # (N, dim) fields
    ((7, 6, 5), (7, 6, 5)),      # 3-D (n, n, n, dim) fields
    ((), (5, 4, 3)),             # a single element times a field
    ((5, 4, 3), ()),
    ((6, 1), (1, 5)),            # fields that broadcast against each other
], ids=("single", "line", "cube", "single_field", "field_single", "broadcast"))
def test_gp_coeffs_equals_reference_sum_bitwise(sig, shapes):
    for _ in range(20):
        a = coefficients(shapes[0] + (sig.dim,))
        b = coefficients(shapes[1] + (sig.dim,))
        assert_bitwise_equal(alg.gp_coeffs(sig, a, b), reference_gp(sig, a, b))


def test_gp_coeffs_rejects_mixed_layouts():
    full = coefficients((5, alg.PAULI.dim))
    sub = coefficients((5, len(alg._G_SLOTS[alg.PAULI])))
    for a, b in ((full, sub), (sub, full), (full[0], sub[0])):
        with pytest.raises(ValueError, match="mix layouts"):
            alg.gp_coeffs(alg.PAULI, a, b)
    with pytest.raises(ValueError, match="no layout"):
        alg.gp_coeffs(alg.PAULI, full[..., :3], sub[..., :3])


# ---------------------------------------------------------------------------
# algebraic identities as properties of both signatures

finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
signatures = st.sampled_from(SIGS)


def element(sig):
    return hnp.arrays(float, sig.dim, elements=finite)


def sig_and(count):
    """A signature and `count` elements of its algebra."""
    return signatures.flatmap(lambda sig: st.tuples(
        st.just(sig), st.lists(element(sig), min_size=count, max_size=count)))


def sig_field_and_element(sig):
    shapes = hnp.array_shapes(min_dims=1, max_dims=3, max_side=4).map(lambda s: s + (sig.dim,))
    return st.tuples(st.just(sig), hnp.arrays(float, shapes, elements=finite), element(sig))


def tolerance(*factors):
    """Rounding bound for a sum of dim^2 products of the factors' sizes."""
    size = np.prod([1.0 + np.max(np.abs(f)) for f in factors])
    return 64 * 8 * np.finfo(float).eps * size


@given(sig_and(3))
def test_property_associative(case):
    sig, (a, b, c) = case
    lhs = alg.gp_coeffs(sig, alg.gp_coeffs(sig, a, b), c)
    rhs = alg.gp_coeffs(sig, a, alg.gp_coeffs(sig, b, c))
    assert np.max(np.abs(lhs - rhs)) <= tolerance(a, b, c)


@given(sig_and(2))
def test_property_conjugation_anti_involution(case):
    sig, (a, b) = case
    lhs = alg.conj_coeffs(sig, alg.gp_coeffs(sig, a, b))
    rhs = alg.gp_coeffs(sig, alg.conj_coeffs(sig, b), alg.conj_coeffs(sig, a))
    assert np.max(np.abs(lhs - rhs)) <= tolerance(a, b)
    assert np.array_equal(alg.conj_coeffs(sig, alg.conj_coeffs(sig, a)), a)


@given(sig_and(1))
def test_property_central_unit_commutes(case):
    sig, (a,) = case
    i = alg.central_unit(sig).coeffs
    # each output blade is one signed coefficient of a: the products agree exactly
    assert np.array_equal(alg.gp_coeffs(sig, i, a), alg.gp_coeffs(sig, a, i))


@given(sig_and(2))
def test_property_matrix_rep_is_a_homomorphism(case):
    sig, (a, b) = case
    A, B = alg.Multivector(sig, a), alg.Multivector(sig, b)
    lhs = np.asarray(oracle.matrix_rep(A * B))
    rhs = np.asarray(np.dot(oracle.matrix_rep(A), oracle.matrix_rep(B)))
    assert np.max(np.abs(lhs - rhs)) <= tolerance(a, b)


@given(signatures.flatmap(sig_field_and_element))
def test_property_field_rows_are_single_products(case):
    sig, field, b = case
    stacked = alg.gp_coeffs(sig, field, np.broadcast_to(b, field.shape))
    rows = field.reshape(-1, sig.dim)
    singles = np.array([alg.gp_coeffs(sig, row, b) for row in rows])
    assert_bitwise_equal(stacked.reshape(-1, sig.dim), singles)


def sig_and_subalgebra_pair(sig):
    """A signature and two subalgebra-layout operands of one shape."""
    n = len(alg._G_SLOTS[sig])
    arrays = hnp.array_shapes(min_dims=0, max_dims=2, max_side=4).flatmap(
        lambda shape: st.tuples(*[hnp.arrays(float, shape + (n,), elements=finite)] * 2))
    return st.tuples(st.just(sig), arrays)


@given(signatures.flatmap(sig_and_subalgebra_pair))
def test_property_subalgebra_layout_is_the_embedded_full_algebra(case):
    sig, (a, b) = case
    slots = alg._G_SLOTS[sig]
    a_full, b_full = (spinors.even_field_coeffs(sig, x) for x in (a, b))
    full = alg.gp_coeffs(sig, a_full, b_full)
    assert_bitwise_equal(alg.gp_coeffs(sig, a, b), full[..., slots])
    assert np.all(np.delete(full, slots, axis=-1) == 0.0)
    assert_bitwise_equal(alg.conj_coeffs(sig, a), alg.conj_coeffs(sig, a_full)[..., slots])
