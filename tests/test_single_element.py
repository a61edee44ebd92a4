"""The single-element path: its results pinned bit for bit, who owns their
arrays, signature identity and hashing, pickling and copying, and real
scalars as operands.

The digest covers every call the ``algebra_points`` benchmark makes through
the public API, on seeded points with signed zeros and zero spinors mixed
in.  A change that reorders one product or sum moves it.  The bits depend on
numpy's einsum and on CPython's math and cmath, so the digest test skips
under other versions than the ones it was recorded with.
"""

import copy
import fractions
import hashlib
import pickle
import sys

import numpy as np
import pytest

from cliffordqm import algebra as alg
from cliffordqm import observables as ob
from cliffordqm import oracle
from cliffordqm import spinors as sp

SIGS = (alg.SCHRODINGER, alg.PAULI)
POINTS = 300

RECORDED = {"numpy": "2.4.6", "python": "3.11"}
RUNNING = {"numpy": np.__version__, "python": f"{sys.version_info[0]}.{sys.version_info[1]}"}
DIGEST = "aadd07964f5f16359daccd184056ad3c0521a2ced8fa4f5f5c8ee4cfe38aab70"


def _signed_zeros(rng, values):
    """values with about a fifth of the entries set to +0.0 and a fifth to -0.0."""
    values[rng.random(values.shape) < 0.2] = 0.0
    values[rng.random(values.shape) < 0.2] = -0.0
    return values


def _points(seed=20261020):
    """(psi1, psi2) pairs, zero spinors every 25th point, and two elements
    and a scalar per algebra and point."""
    rng = np.random.default_rng(seed)
    psi = _signed_zeros(rng, rng.standard_normal((POINTS, 4)))
    psi[::25] = rng.choice([0.0, -0.0], size=psi[::25].shape)
    pairs = {sig: _signed_zeros(rng, rng.standard_normal((POINTS, 2, sig.dim)))
             for sig in SIGS}
    scalars = _signed_zeros(rng, rng.standard_normal(POINTS))
    return psi, pairs, scalars


def _bytes(x) -> bytes:
    if isinstance(x, alg.Multivector):
        return x.coeffs.tobytes()
    if isinstance(x, sp.IdealSpinor):
        return np.float64(x.R).tobytes() + _bytes(x.U)
    if isinstance(x, sp.CliffordDensityElement):
        return np.float64(x.rho).tobytes() + _bytes(x.body)
    if isinstance(x, sp.EulerAngles):
        return np.array([x.theta, x.phi, x.chi, x.R]).tobytes()
    if isinstance(x, tuple):
        return b"".join(_bytes(v) for v in x)
    if isinstance(x, complex):
        return np.complex128(x).tobytes()
    if isinstance(x, float):
        return np.float64(x).tobytes()
    return np.ascontiguousarray(x).tobytes()


def _single_element_results():
    """Every result of the single-element calls, in a fixed order."""
    psi, pairs, scalars = _points()
    ops = [alg.Multivector.blade(alg.PAULI, b) for b in ("e1", "e2", "e3")]
    for i, v in enumerate(psi):
        psi1, psi2 = complex(v[0], v[1]), complex(v[2], v[3])
        phi = sp.from_components(psi1, psi2)
        yield phi
        yield sp.to_components(phi)
        angles = sp.to_euler(phi)
        yield angles
        yield sp.from_euler(angles)
        rho_c = sp.cde(phi)
        yield rho_c
        yield sp.spinor_conjugate(phi)
        yield sp.spin_vector(phi)
        yield sp.phase_rotate(phi, float(scalars[i]))
        yield oracle.matrix_rep(rho_c.body)
        yield oracle.density_matrix(psi1, psi2)
        for op in ops:
            yield ob.expectation(op, rho_c)
        z = sp.from_wavefunction(psi1)
        yield z
        yield sp.to_wavefunction(z)
        yield sp.cde(z)
        for sig in SIGS:
            a, b = (alg.Multivector(sig, c) for c in pairs[sig][i])
            s = float(scalars[i])
            ab = a * b
            yield ab
            yield oracle.matrix_rep(a)
            yield oracle.matrix_rep(ab)
            yield a.conjugate(), b.conjugate(), ab.conjugate()
            yield alg.clifford_conjugate(b) * alg.clifford_conjugate(a)
            yield a + b, a - b, -a, a * s, s * a, a / (s or 1.0)
            yield s + a, a + s, a - s, alg.Multivector.scalar(sig, s) - a
            yield tuple(a.grade(k) for k in range(sig.n_generators + 1))
            yield a.norm_inf()


def test_single_element_results_are_pinned():
    if RUNNING != RECORDED:
        pytest.skip(f"digest recorded with {RECORDED}, running {RUNNING}")
    digest = hashlib.sha256()
    for result in _single_element_results():
        digest.update(_bytes(result))
    assert digest.hexdigest() == DIGEST


# ---------------------------------------------------------------------------
# who owns an element's coefficients

def _element(sig, seed=5):
    return alg.Multivector(sig, np.random.default_rng(seed).standard_normal(sig.dim))


def _assert_owned(result, *operands):
    assert not result.coeffs.flags.writeable
    for op in operands:
        assert not np.shares_memory(result.coeffs, op.coeffs)


@pytest.mark.parametrize("sig", SIGS, ids=("cl01", "cl30"))
def test_operator_results_own_their_data(sig):
    a, b = _element(sig, 1), _element(sig, 2)
    for result in (a * b, a * 2.0, 2.0 * a, a + b, a - b, a + 1.5, 1.5 - a, -a, a / 3.0,
                   a.conjugate(), a.grade(1)):
        assert isinstance(result, alg.Multivector)
        _assert_owned(result, a, b)


def test_spinor_constructors_own_their_data():
    """Each result holds its own array: none is shared with another result,
    with the spinor it was built from, or with the cached idempotents."""
    phi = sp.from_components(0.3 - 0.4j, -1.2 + 0.5j)
    psi = sp.from_wavefunction(0.7 - 0.2j)
    zero = sp.from_components(0j, -0j)
    results = [sp.from_components(0.3 - 0.4j, -1.2 + 0.5j).U, sp.from_wavefunction(-0.7j).U,
               zero.U, sp.from_euler(sp.to_euler(phi)).U, sp.phase_rotate(phi, 0.4).U,
               sp.phase_rotate(psi, 0.4).U, sp.cde(phi).body, sp.cde(psi).body,
               sp.spinor_conjugate(phi), phi.element(), sp.spin_vector(phi)[1]]
    assert zero.degenerate
    for k, result in enumerate(results):
        _assert_owned(result, phi.U, psi.U, alg.idempotent(alg.PAULI),
                      alg.idempotent(alg.SCHRODINGER), *results[k + 1:])


def test_public_constructor_copies_its_input():
    arr = np.arange(8.0)
    a = alg.Multivector(alg.PAULI, arr)
    arr[0] = 99.0
    assert a.coeffs[0] == 0.0
    assert not np.shares_memory(a.coeffs, arr)
    assert arr.flags.writeable
    with pytest.raises(ValueError, match="expected 8 coefficients"):
        alg.Multivector(alg.PAULI, np.arange(4.0))


# ---------------------------------------------------------------------------
# equality and hashing

def test_equal_elements_hash_equally():
    zeros = np.zeros(alg.PAULI.dim)
    plus, minus = alg.Multivector(alg.PAULI, zeros), alg.Multivector(alg.PAULI, -zeros)
    assert plus == minus
    assert hash(plus) == hash(minus)
    assert len({plus, minus}) == 1
    a = _element(alg.PAULI)
    assert len({a, a * 1.0, a + 0.0, plus}) == 2


def test_signatures_compare_by_value_and_hash_once():
    built = alg.Signature(3, 0)
    assert built == alg.PAULI and built is not alg.PAULI
    assert hash(built) == hash(alg.PAULI)
    assert built != alg.SCHRODINGER
    assert (built.dim, built.trace_weight, built.n_generators) == (8, 2, 3)
    assert repr(alg.SCHRODINGER) == "Signature(p=0, q=1)"
    with pytest.raises(AttributeError):
        built.p = 0
    with pytest.raises(ValueError):
        alg.Signature(1, 1)


@pytest.mark.parametrize("sig", SIGS, ids=("cl01", "cl30"))
def test_pickled_signature_is_an_equal_key(sig):
    copy = pickle.loads(pickle.dumps(sig))
    assert copy == sig and copy is not sig and hash(copy) == hash(sig)
    assert alg._G_SLOTS[copy] is alg._G_SLOTS[sig]
    assert alg._signed_permutation(copy, sig.dim) is alg._signed_permutation(sig, sig.dim)
    a, b = _element(sig, 1), _element(sig, 2)
    mixed = alg.Multivector(copy, a.coeffs) * b
    assert mixed == a * b
    assert ob.expectation(alg.Multivector(copy, b.coeffs), sp.CliffordDensityElement(1.0, a)) \
        == ob.expectation(b, sp.CliffordDensityElement(1.0, a))


def _copies(x):
    return pickle.loads(pickle.dumps(x)), copy.deepcopy(x), copy.copy(x)


@pytest.mark.parametrize("sig", SIGS, ids=("cl01", "cl30"))
def test_elements_pickle_and_copy_to_equal_read_only_elements(sig):
    a = alg.Multivector(sig, _signed_zeros(np.random.default_rng(6),
                                           np.random.default_rng(7).standard_normal(sig.dim)))
    for b in _copies(a):
        assert type(b) is alg.Multivector
        assert b == a and hash(b) == hash(a)
        assert b.coeffs.tobytes() == a.coeffs.tobytes()
        assert not b.coeffs.flags.writeable
        assert b * a == a * a


def test_spinors_and_density_elements_pickle_and_copy():
    phi = sp.from_components(0.3 - 0.4j, -1.2 + 0.5j)
    psi = sp.from_wavefunction(0.7 - 0.2j)
    for x in (phi, psi, sp.cde(phi), sp.cde(psi)):
        element = x.U if isinstance(x, sp.IdealSpinor) else x.body
        for y in _copies(x):
            assert type(y) is type(x)
            assert y == x and hash(y) == hash(x)
            copied = y.U if isinstance(y, sp.IdealSpinor) else y.body
            assert copied.coeffs.tobytes() == element.coeffs.tobytes()
            assert not copied.coeffs.flags.writeable


def test_slot_tables_are_read_only_index_arrays():
    for sig, slots in alg._G_SLOTS.items():
        assert slots.dtype == np.intp and not slots.flags.writeable
    assert alg._G_SLOTS[alg.PAULI].tolist() == [0, 4, 5, 6]
    assert alg._G_SLOTS[alg.SCHRODINGER].tolist() == [0, 1]


# ---------------------------------------------------------------------------
# real scalars as operands

REALS = (np.int64(2), np.int32(-3), np.float32(0.5), np.float64(-1.25), np.float64(2.0),
         np.uint8(7), fractions.Fraction(1, 3), True, 2, -0.0)


def _same_bits(x, y):
    assert isinstance(x, alg.Multivector) and isinstance(y, alg.Multivector)
    assert x.signature == y.signature
    assert x.coeffs.tobytes() == y.coeffs.tobytes()


@pytest.mark.parametrize("sig", SIGS, ids=("cl01", "cl30"))
@pytest.mark.parametrize("s", REALS, ids=lambda s: type(s).__name__ + repr(s))
def test_real_scalars_act_as_python_floats(sig, s):
    a = alg.Multivector(sig, _signed_zeros(np.random.default_rng(3),
                                           np.random.default_rng(4).standard_normal(sig.dim)))
    f = float(s)
    _same_bits(a * s, a * f)
    _same_bits(s * a, f * a)
    _same_bits(a + s, a + f)
    _same_bits(s + a, f + a)
    _same_bits(a - s, a - f)
    _same_bits(s - a, f - a)
    if f:
        _same_bits(a / s, a / f)
    _same_bits(f - a, alg.Multivector.scalar(sig, f) - a)
    _same_bits(a - f, a - alg.Multivector.scalar(sig, f))


@pytest.mark.parametrize("other", ("x", 1j, None, [1.0], np.ones(8)),
                         ids=("str", "complex", "None", "list", "array"))
def test_non_real_operands_are_refused(other):
    a = _element(alg.PAULI)
    ops = [lambda: a * other, lambda: a + other, lambda: a - other, lambda: a / other,
           lambda: other * a, lambda: other + a, lambda: other - a]
    for op in ops:  # numpy defers to the element's refusal for an array on either side
        with pytest.raises(TypeError, match="expected Multivector or real scalar"):
            op()

