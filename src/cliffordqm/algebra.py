"""Real Clifford algebra arithmetic for Cl(0,1) and Cl(3,0).

Elements are kept as dense real coefficient arrays over a fixed canonical
blade order (scalar, vectors, bivectors e23/e13/e12, pseudoscalar).

Every product runs through ``gp_coeffs`` and one table per signature.  Each
row of a Clifford Cayley table is a signed permutation: for a left blade e_i
and an output blade e_k there is exactly one right blade e_j = e_inv[i,k]
with e_i e_j = s[i,k] e_k.  ``gp_coeffs`` picks its layout from the
operands' broadcast shape:

- a single element, shape (dim,): one contraction a_i (b[inv] s)[i,k];
- a field, shape (..., dim): the blade axis is moved first so that each
  blade is one contiguous array, and each output blade accumulates its dim
  products over i = 0 .. dim-1 in preallocated buffers; the result is a
  (..., dim) view of that blade-first buffer.

Both layouts add the same products in the same order of i, starting from
zero, and a sign of +-1 is exact, so a field product equals, bit for bit,
the single-element products of its points.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

DEFAULT_TOL = 1e-10


class AlgebraMismatchError(ValueError):
    """Raised when operands belong to different Clifford algebras."""


@dataclass(frozen=True)
class Signature:
    """Metric signature (p, q): p generators square to +1, q to -1."""

    p: int
    q: int

    def __post_init__(self):
        if (self.p, self.q) not in ((0, 1), (3, 0)):
            raise ValueError(f"unsupported signature Cl({self.p},{self.q})")

    @property
    def n_generators(self) -> int:
        return self.p + self.q

    @property
    def dim(self) -> int:
        return 2 ** (self.p + self.q)

    @property
    def trace_weight(self) -> int:
        # scalar-part weight that reproduces the matrix-representation trace
        return 1 if (self.p, self.q) == (0, 1) else 2


SCHRODINGER = Signature(0, 1)
PAULI = Signature(3, 0)

# Canonical blade order (as ascending generator-index tuples).
_BLADES = {
    (0, 1): ((), (1,)),
    (3, 0): ((), (1,), (2,), (3,), (2, 3), (1, 3), (1, 2), (1, 2, 3)),
}

_BLADE_NAMES = {
    (0, 1): ("1", "e"),
    (3, 0): ("1", "e1", "e2", "e3", "e23", "e13", "e12", "e123"),
}


def _generator_square(sig: Signature, idx: int) -> int:
    # generators 1..p square to +1, the rest to -1
    return 1 if idx <= sig.p else -1


def _blade_product(sig: Signature, a: tuple, b: tuple) -> tuple:
    """Multiply two ascending blades, returning (resulting blade, sign)."""
    factors = list(a) + list(b)
    sign = 1
    # bubble sort, counting transpositions of distinct generators
    changed = True
    while changed:
        changed = False
        for i in range(len(factors) - 1):
            if factors[i] > factors[i + 1]:
                factors[i], factors[i + 1] = factors[i + 1], factors[i]
                sign = -sign
                changed = True
    # contract equal adjacent generators using the metric
    out = []
    i = 0
    while i < len(factors):
        if i + 1 < len(factors) and factors[i] == factors[i + 1]:
            sign *= _generator_square(sig, factors[i])
            i += 2
        else:
            out.append(factors[i])
            i += 1
    return tuple(out), sign


@dataclass(frozen=True)
class CayleyTable:
    signature: Signature
    index: np.ndarray  # (dim, dim) int, canonical index of blade product
    sign: np.ndarray  # (dim, dim) float, sign of blade product
    grades: np.ndarray  # (dim,) int
    names: tuple


@lru_cache(maxsize=None)
def cayley_table(sig: Signature) -> CayleyTable:
    blades = _BLADES[(sig.p, sig.q)]
    pos = {b: i for i, b in enumerate(blades)}
    n = len(blades)
    index = np.zeros((n, n), dtype=np.intp)
    sign = np.zeros((n, n))
    for i, a in enumerate(blades):
        for j, b in enumerate(blades):
            blade, s = _blade_product(sig, a, b)
            index[i, j] = pos[blade]
            sign[i, j] = s
    grades = np.array([len(b) for b in blades], dtype=np.intp)
    index.flags.writeable = False
    sign.flags.writeable = False
    grades.flags.writeable = False
    return CayleyTable(sig, index, sign, grades, _BLADE_NAMES[(sig.p, sig.q)])


@lru_cache(maxsize=None)
def _signed_permutation(sig: Signature) -> tuple:
    """(inv, sign, terms) with e_i e_inv[i,k] = sign[i,k] e_k, from the Cayley table.

    terms[k] lists (i, inv[i,k], np.add or np.subtract) in increasing i: the
    products that make output blade k, with the sign as the choice of ufunc.
    """
    tab = cayley_table(sig)
    inv = np.argsort(tab.index, axis=1)
    sign = np.take_along_axis(tab.sign, inv, axis=1)
    inv.flags.writeable = False
    sign.flags.writeable = False
    terms = tuple(tuple((i, int(inv[i, k]), np.add if sign[i, k] > 0 else np.subtract)
                        for i in range(sig.dim)) for k in range(sig.dim))
    return inv, sign, terms


# ---------------------------------------------------------------------------
# vectorized kernels: operate on coefficient arrays of shape (..., dim)

def gp_coeffs(sig: Signature, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Geometric product on stacked coefficient arrays."""
    inv, sign, terms = _signed_permutation(sig)
    if a.ndim == 1 and b.ndim == 1:
        return np.einsum("i,ik->k", a, b[inv] * sign)
    # blade axis first, both operands at the full rank, each blade contiguous
    shape = np.broadcast_shapes(a.shape, b.shape)
    nd = len(shape)
    first = (nd - 1,) + tuple(range(nd - 1))
    left, right = (list(np.ascontiguousarray(x.reshape((1,) * (nd - x.ndim) + x.shape)
                                             .transpose(first))) for x in (a, b))
    out = np.zeros((sig.dim,) + shape[:-1], dtype=np.result_type(a, b))
    term = np.empty_like(out[0])
    for blade, row in zip(out, terms):
        for i, j, accumulate in row:
            np.multiply(left[i], right[j], out=term)
            # x - y is x + (-y) exactly, so a sign of -1 costs no pass of its own
            accumulate(blade, term, out=blade)
    return out.transpose(tuple(range(1, nd)) + (0,))


def conj_coeffs(sig: Signature, a: np.ndarray) -> np.ndarray:
    """Clifford conjugation on stacked coefficient arrays (S - V - B + P)."""
    tab = cayley_table(sig)
    signs = np.where((tab.grades == 1) | (tab.grades == 2), -1.0, 1.0)
    return a * signs


def grade_mask(sig: Signature, k: int) -> np.ndarray:
    tab = cayley_table(sig)
    return tab.grades == k


# ---------------------------------------------------------------------------

class Multivector:
    """Immutable element of Cl(0,1) or Cl(3,0) with dense real coefficients."""

    __slots__ = ("signature", "coeffs")

    def __init__(self, signature: Signature, coeffs):
        coeffs = np.asarray(coeffs, dtype=float).copy()
        if coeffs.shape != (signature.dim,):
            raise ValueError(
                f"expected {signature.dim} coefficients for Cl({signature.p},{signature.q}), "
                f"got shape {coeffs.shape}"
            )
        coeffs.flags.writeable = False
        object.__setattr__(self, "signature", signature)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("Multivector is immutable")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def scalar(sig: Signature, value: float) -> "Multivector":
        c = np.zeros(sig.dim)
        c[0] = value
        return Multivector(sig, c)

    @staticmethod
    def blade(sig: Signature, name: str, value: float = 1.0) -> "Multivector":
        names = cayley_table(sig).names
        if name not in names:
            raise ValueError(f"unknown blade {name!r} in Cl({sig.p},{sig.q})")
        c = np.zeros(sig.dim)
        c[names.index(name)] = value
        return Multivector(sig, c)

    # -- helpers ------------------------------------------------------------

    def _check(self, other: "Multivector"):
        if not isinstance(other, Multivector):
            raise TypeError(f"expected Multivector, got {type(other).__name__}")
        if other.signature != self.signature:
            raise AlgebraMismatchError(
                f"cannot combine Cl({self.signature.p},{self.signature.q}) with "
                f"Cl({other.signature.p},{other.signature.q})"
            )

    # -- arithmetic ---------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, (int, float, np.floating)):
            return Multivector(self.signature, self.coeffs * other)
        self._check(other)
        return Multivector(self.signature, gp_coeffs(self.signature, self.coeffs, other.coeffs))

    def __rmul__(self, other):
        if isinstance(other, (int, float, np.floating)):
            return Multivector(self.signature, self.coeffs * other)
        return NotImplemented

    def __add__(self, other):
        if isinstance(other, (int, float, np.floating)):
            other = Multivector.scalar(self.signature, other)
        self._check(other)
        return Multivector(self.signature, self.coeffs + other.coeffs)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, float, np.floating)):
            other = Multivector.scalar(self.signature, other)
        self._check(other)
        return Multivector(self.signature, self.coeffs - other.coeffs)

    def __neg__(self):
        return Multivector(self.signature, -self.coeffs)

    def __truediv__(self, other):
        if isinstance(other, (int, float, np.floating)):
            return Multivector(self.signature, self.coeffs / other)
        return NotImplemented

    # -- structure ----------------------------------------------------------

    def conjugate(self) -> "Multivector":
        return Multivector(self.signature, conj_coeffs(self.signature, self.coeffs))

    def grade(self, k: int) -> "Multivector":
        if not 0 <= k <= self.signature.n_generators:
            raise ValueError(f"grade {k} out of range for Cl({self.signature.p},{self.signature.q})")
        return Multivector(self.signature, np.where(grade_mask(self.signature, k), self.coeffs, 0.0))

    @property
    def scalar_part(self) -> float:
        return float(self.coeffs[0])

    def norm_inf(self) -> float:
        return float(np.max(np.abs(self.coeffs)))

    def approx_eq(self, other: "Multivector", tol: float = DEFAULT_TOL) -> bool:
        self._check(other)
        return bool(np.max(np.abs(self.coeffs - other.coeffs)) <= tol)

    def __eq__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        return self.signature == other.signature and np.array_equal(self.coeffs, other.coeffs)

    def __hash__(self):
        return hash((self.signature, self.coeffs.tobytes()))

    def __repr__(self):
        names = cayley_table(self.signature).names
        terms = [f"{c:g}*{n}" if n != "1" else f"{c:g}"
                 for n, c in zip(names, self.coeffs) if c != 0.0]
        body = " + ".join(terms) if terms else "0"
        return f"Multivector[Cl({self.signature.p},{self.signature.q})]({body})"

    def dump(self) -> str:
        """Debug dump: one line per blade, `<blade-name> <coefficient>`."""
        names = cayley_table(self.signature).names
        return "\n".join(f"{n} {c:.17g}" for n, c in zip(names, self.coeffs))


# ---------------------------------------------------------------------------
# module-level operations (the functional surface used by the other modules)

def geometric_product(a: Multivector, b: Multivector) -> Multivector:
    return a * b


def clifford_conjugate(a: Multivector) -> Multivector:
    return a.conjugate()


def grade_project(a: Multivector, k: int) -> Multivector:
    return a.grade(k)


def scalar_part(a: Multivector) -> float:
    return a.scalar_part


def commutator_pm(a: Multivector, b: Multivector, sign: str) -> Multivector:
    """[a,b]- = ab - ba  or  [a,b]+ = ab + ba, selected by sign '-'/'+'."""
    if sign not in ("+", "-"):
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")
    ab = a * b
    ba = b * a
    return ab + ba if sign == "+" else ab - ba


def is_idempotent(a: Multivector, tol: float = DEFAULT_TOL) -> bool:
    if tol <= 0:
        raise ValueError("tol must be positive")
    return (a * a - a).norm_inf() <= tol


def central_unit(sig: Signature) -> Multivector:
    """The algebra's symbol i: e for Cl(0,1), e123 for Cl(3,0)."""
    name = "e" if (sig.p, sig.q) == (0, 1) else "e123"
    return Multivector.blade(sig, name)


def algebra_trace(a: Multivector) -> float:
    """Trace matching the matrix representation: d * scalar part."""
    return a.signature.trace_weight * a.scalar_part


def idempotent(sig: Signature) -> Multivector:
    """The primitive idempotent used throughout: 1, or (1 + e3)/2."""
    if (sig.p, sig.q) == (0, 1):
        return Multivector.scalar(sig, 1.0)
    return (Multivector.scalar(sig, 1.0) + Multivector.blade(sig, "e3")) / 2.0
