"""Real Clifford algebra arithmetic for Cl(0,1) and Cl(3,0).

Elements are kept as dense real coefficient arrays over a fixed canonical
blade order (scalar, vectors, bivectors e23/e13/e12, pseudoscalar).  The
trailing axis names the layout: sig.dim coefficients for the whole algebra,
or one per ``_G_SLOTS`` blade for the subalgebra of the unit even element U
(all of Cl(0,1), and the even part of Cl(3,0)).

Every product runs through ``gp_coeffs`` and one table per signature and
layout.  Each row of a Clifford Cayley table is a signed permutation: for a
left blade e_i and an output blade e_k there is exactly one right blade
e_j = e_inv[i,k] with e_i e_j = s[i,k] e_k; the subalgebra is closed, so its
table is the full one restricted to its slots.  ``gp_coeffs`` picks its code
path from the operands' broadcast shape:

- a single element, shape (n,): one contraction a_i (b[inv] s)[i,k];
- a field, shape (..., n): each output blade accumulates its n products
  over i = 0 .. n-1 in preallocated buffers, one contiguous array per
  blade, and the result is a (..., n) view of that blade-first buffer.
  The operands' blade axis is moved first too, which copies nothing for
  the component-first fields of ``grids``.

``gp_scalar`` is the scalar part of a field product: the same kernel body
(``_accumulate_rows``) runs the table's row 0 alone, so its bits are those of
``gp_coeffs(...)[..., 0]`` and no other blade is formed.

Both paths add the same products in the same order of i, starting from
zero, and a sign of +-1 is exact, so a field product equals, bit for bit,
the single-element products of its points.  A subalgebra product equals the
full product of the embedded operands at the slots, bit for bit: the terms
it leaves out are products with an exact zero.

A ``Multivector`` owns its coefficients: a read-only array that no other
object holds.  The public constructor copies its input and checks its shape.
Every operator result, and every array ``spinors`` has just built for a
point, goes through ``_owned`` instead, which marks the fresh array
read-only and takes it without a copy.  A ``Signature`` computes its dim,
trace weight and hash once, when it is built; operand checks compare
signatures by identity first and by (p, q) after, so a signature rebuilt by
unpickling still combines with ``PAULI`` and ``SCHRODINGER``.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

DEFAULT_TOL = 1e-10


class AlgebraMismatchError(ValueError):
    """Raised when operands belong to different Clifford algebras."""


class Signature:
    """Metric signature (p, q): p generators square to +1, q to -1.

    Immutable; dim, trace_weight and the hash are computed once, when the
    signature is built.  Two signatures are equal when their (p, q) are, so a
    pickled PAULI is equal to PAULI without being the same object.
    """

    __slots__ = ("p", "q", "dim", "trace_weight", "_hash")

    def __init__(self, p: int, q: int):
        if (p, q) not in ((0, 1), (3, 0)):
            raise ValueError(f"unsupported signature Cl({p},{q})")
        # trace_weight: the scalar-part weight that reproduces the matrix-representation trace
        for name, value in (("p", p), ("q", q), ("dim", 2 ** (p + q)),
                            ("trace_weight", 1 if (p, q) == (0, 1) else 2),
                            ("_hash", hash((p, q)))):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("Signature is immutable")

    def __reduce__(self):
        return Signature, (self.p, self.q)

    @property
    def n_generators(self) -> int:
        return self.p + self.q

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Signature):
            return NotImplemented
        return self.p == other.p and self.q == other.q

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Signature(p={self.p}, q={self.q})"


SCHRODINGER = Signature(0, 1)
PAULI = Signature(3, 0)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


# blade slots of the subalgebra layout (the g-coefficients of U) per signature
_G_SLOTS = {SCHRODINGER: _read_only(np.array([0, 1])),  # 1, e
            PAULI: _read_only(np.array([0, 4, 5, 6]))}  # 1, e23, e13, e12

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
    """Multiply two ascending blades, returning (resulting blade, sign).

    Sorting a's and b's generators into one ascending word swaps each pair
    x in a, y in b with x > y once; each generator they share then squares
    to its metric sign.
    """
    sign = (-1) ** sum(x > y for x in a for y in b)
    for shared in set(a) & set(b):
        sign *= _generator_square(sig, shared)
    return tuple(sorted(set(a) ^ set(b))), sign


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
    return CayleyTable(sig, _read_only(index), _read_only(sign), _read_only(grades),
                       _BLADE_NAMES[(sig.p, sig.q)])


@lru_cache(maxsize=None)
def _signed_permutation(sig: Signature, n: int) -> tuple:
    """(inv, sign, terms, conj) of the layout of n blades, from the Cayley table.

    n = sig.dim is the whole algebra, n = len(_G_SLOTS[sig]) the subalgebra;
    blades are numbered by position in the layout.  e_i e_inv[i,k] =
    sign[i,k] e_k; terms[k] lists (i, inv[i,k], np.add or np.subtract) in
    increasing i: the products that make output blade k, with the sign as the
    choice of ufunc.  conj holds the Clifford conjugation sign of each blade.
    """
    if n not in (sig.dim, len(_G_SLOTS[sig])):
        raise ValueError(f"{n} coefficients fit no layout of Cl({sig.p},{sig.q})")
    slots = np.arange(n) if n == sig.dim else _G_SLOTS[sig]
    tab = cayley_table(sig)
    block = np.ix_(slots, slots)
    inv = np.argsort(np.searchsorted(slots, tab.index[block]), axis=1)
    sign = np.take_along_axis(tab.sign[block], inv, axis=1)
    grades = tab.grades[slots]
    conj = np.where((grades == 1) | (grades == 2), -1.0, 1.0)
    terms = tuple(tuple((i, int(inv[i, k]), np.add if sign[i, k] > 0 else np.subtract)
                        for i in range(n)) for k in range(n))
    return _read_only(inv), _read_only(sign), terms, _read_only(conj)


# ---------------------------------------------------------------------------
# vectorized kernels: operate on coefficient arrays of shape (..., n)

def _layout_terms(sig: Signature, a: np.ndarray, b: np.ndarray) -> tuple:
    n = a.shape[-1]
    if b.shape[-1] != n:
        raise ValueError(f"operands mix layouts of {n} and {b.shape[-1]} coefficients")
    return _signed_permutation(sig, n)


def _accumulate_rows(a: np.ndarray, b: np.ndarray, rows: tuple) -> np.ndarray:
    """The output blades of rows (rows of ``terms``) of the product a b, blade
    axis first: (len(rows),) + the operands' broadcast point shape."""
    # blade axis first, both operands at the full rank, each blade contiguous
    shape = np.broadcast_shapes(a.shape, b.shape)
    nd = len(shape)
    first = (nd - 1,) + tuple(range(nd - 1))
    left, right = (list(np.ascontiguousarray(x.reshape((1,) * (nd - x.ndim) + x.shape)
                                             .transpose(first))) for x in (a, b))
    out = np.zeros((len(rows),) + shape[:-1], dtype=np.result_type(a, b))
    term = np.empty_like(out[0])
    for k, row in enumerate(rows):
        blade = out[k, ...]  # a view, also where the points are zero-dimensional
        for i, j, accumulate in row:
            np.multiply(left[i], right[j], out=term)
            # x - y is x + (-y) exactly, so a sign of -1 costs no pass of its own
            accumulate(blade, term, out=blade)
    return out


def gp_coeffs(sig: Signature, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Geometric product on stacked coefficient arrays of one layout."""
    inv, sign, terms, _ = _layout_terms(sig, a, b)
    if a.ndim == 1 and b.ndim == 1:
        return np.einsum("i,ik->k", a, b[inv] * sign)
    out = _accumulate_rows(a, b, terms)
    return out.transpose(tuple(range(1, out.ndim)) + (0,))


def gp_scalar(sig: Signature, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """<a b>_0, the bits of gp_coeffs(sig, a, b)[..., 0]: row 0 of the same
    table alone, so no other blade is formed.  A fresh, writable array."""
    return _accumulate_rows(a, b, _layout_terms(sig, a, b)[2][:1])[0]


def conj_coeffs(sig: Signature, a: np.ndarray) -> np.ndarray:
    """Clifford conjugation on stacked coefficient arrays (S - V - B + P)."""
    return a * _signed_permutation(sig, a.shape[-1])[3]


def grade_mask(sig: Signature, k: int) -> np.ndarray:
    tab = cayley_table(sig)
    return tab.grades == k


# ---------------------------------------------------------------------------

class Multivector:
    """Immutable element of Cl(0,1) or Cl(3,0) with dense real coefficients."""

    __slots__ = ("signature", "coeffs")
    # numpy defers every operator with an ndarray to the element's own, which
    # refuse it, instead of broadcasting the element over the array
    __array_ufunc__ = None

    def __init__(self, signature: Signature, coeffs):
        coeffs = np.array(coeffs, dtype=float)
        if coeffs.shape != (signature.dim,):
            raise ValueError(
                f"expected {signature.dim} coefficients for Cl({signature.p},{signature.q}), "
                f"got shape {coeffs.shape}"
            )
        _init(self, signature, coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("Multivector is immutable")

    def __reduce__(self):
        return Multivector, (self.signature, self.coeffs)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def scalar(sig: Signature, value: float) -> "Multivector":
        c = np.zeros(sig.dim)
        c[0] = value
        return _owned(sig, c)

    @staticmethod
    def blade(sig: Signature, name: str, value: float = 1.0) -> "Multivector":
        names = cayley_table(sig).names
        if name not in names:
            raise ValueError(f"unknown blade {name!r} in Cl({sig.p},{sig.q})")
        c = np.zeros(sig.dim)
        c[names.index(name)] = value
        return _owned(sig, c)

    # -- helpers ------------------------------------------------------------

    def _check(self, other: "Multivector"):
        if not isinstance(other, Multivector):
            raise TypeError(f"expected Multivector, got {type(other).__name__}")
        if other.signature is not self.signature and other.signature != self.signature:
            raise AlgebraMismatchError(
                f"cannot combine Cl({self.signature.p},{self.signature.q}) with "
                f"Cl({other.signature.p},{other.signature.q})"
            )

    def _with_real(self, ufunc, other, embed: bool = False, reflected: bool = False):
        """ufunc of the coefficients and a real scalar of any type
        (``numbers.Real``, numpy's included), which enters as float(other):
        as the scalar element's coefficients if embed, as the left operand
        if reflected.  Any other operand is refused with TypeError."""
        # a float passes the first test, without the slower ABC check
        if not isinstance(other, float) and not isinstance(other, numbers.Real):
            raise TypeError(f"expected Multivector or real scalar, got {type(other).__name__}")
        s = float(other)
        if embed:
            s = Multivector.scalar(self.signature, s).coeffs
        return _owned(self.signature, ufunc(s, self.coeffs) if reflected else ufunc(self.coeffs, s))

    # -- arithmetic ---------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, Multivector):
            self._check(other)
            return _owned(self.signature, gp_coeffs(self.signature, self.coeffs, other.coeffs))
        return self._with_real(np.multiply, other)

    def __rmul__(self, other):
        return self._with_real(np.multiply, other)

    def __add__(self, other):
        if isinstance(other, Multivector):
            self._check(other)
            return _owned(self.signature, self.coeffs + other.coeffs)
        return self._with_real(np.add, other, embed=True)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Multivector):
            self._check(other)
            return _owned(self.signature, self.coeffs - other.coeffs)
        return self._with_real(np.subtract, other, embed=True)

    def __rsub__(self, other):
        return self._with_real(np.subtract, other, embed=True, reflected=True)

    def __neg__(self):
        return _owned(self.signature, -self.coeffs)

    def __truediv__(self, other):
        return self._with_real(np.divide, other)

    # -- structure ----------------------------------------------------------

    def conjugate(self) -> "Multivector":
        return _owned(self.signature, conj_coeffs(self.signature, self.coeffs))

    def grade(self, k: int) -> "Multivector":
        if not 0 <= k <= self.signature.n_generators:
            raise ValueError(f"grade {k} out of range for Cl({self.signature.p},{self.signature.q})")
        return _owned(self.signature, np.where(grade_mask(self.signature, k), self.coeffs, 0.0))

    @property
    def scalar_part(self) -> float:
        return float(self.coeffs[0])

    def norm_inf(self) -> float:
        return float(np.abs(self.coeffs).max())

    def approx_eq(self, other: "Multivector", tol: float = DEFAULT_TOL) -> bool:
        self._check(other)
        return bool(np.abs(self.coeffs - other.coeffs).max() <= tol)

    def __eq__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        return self.signature == other.signature and np.array_equal(self.coeffs, other.coeffs)

    def __hash__(self):
        # + 0.0 turns -0.0 into 0.0: elements that compare equal hash equally
        return hash((self.signature, (self.coeffs + 0.0).tobytes()))

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


def _init(element: Multivector, signature: Signature, coeffs: np.ndarray) -> None:
    coeffs.setflags(write=False)
    object.__setattr__(element, "signature", signature)
    object.__setattr__(element, "coeffs", coeffs)


def _owned(signature: Signature, coeffs: np.ndarray) -> Multivector:
    """The element of coeffs, a fresh float array of shape (signature.dim,)
    that nothing else holds: it is marked read-only and taken, not copied."""
    element = object.__new__(Multivector)
    _init(element, signature, coeffs)
    return element


# ---------------------------------------------------------------------------
# module-level operations (the functional surface used by the other modules)

def geometric_product(a: Multivector, b: Multivector) -> Multivector:
    return a * b


def clifford_conjugate(a: Multivector) -> Multivector:
    return a.conjugate()


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


@lru_cache(maxsize=None)
def central_unit(sig: Signature) -> Multivector:
    """The algebra's symbol i: e for Cl(0,1), e123 for Cl(3,0)."""
    name = "e" if (sig.p, sig.q) == (0, 1) else "e123"
    return Multivector.blade(sig, name)


def algebra_trace(a: Multivector) -> float:
    """Trace matching the matrix representation: d * scalar part."""
    return a.signature.trace_weight * a.scalar_part


@lru_cache(maxsize=None)
def idempotent(sig: Signature) -> Multivector:
    """The primitive idempotent used throughout: 1, or (1 + e3)/2."""
    if (sig.p, sig.q) == (0, 1):
        return Multivector.scalar(sig, 1.0)
    return (Multivector.scalar(sig, 1.0) + Multivector.blade(sig, "e3")) / 2.0
