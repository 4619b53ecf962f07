"""Finite-dimensional Hilbert spaces and complex operators.

A :class:`HilbertSpace` is an ordered tensor product of labeled factors,
each either a Fock space truncated at a cutoff occupation number or a
generic d-dimensional space.  :class:`Operator` is a complex matrix
tagged with the space it acts on.  All values are immutable after
construction and every operation is pure.

This module owns the storage rule of every matrix of the algebra, the
matrix of an :class:`Operator` and each coefficient of an
``OpPolynomial``: it is decided by the dimension d of the space alone.
Below ``SPARSE_MIN_DIM`` a matrix is a dense, C-ordered complex array.
From there on it is a canonical ``scipy.sparse.csr_array``: sorted
column indices, no duplicate entry and no explicit zero.  The ladder
operators of a netlist have at most one nonzero per row, and the
products a reduction makes have a few, while one dense matrix takes
256 MiB at d = 4096.  The primitives at the end of this module (storage,
identity, conjugate transpose, the zero test, exact equality, the
largest entry, the real/imaginary assembly of a product) and the
Kronecker :func:`embed` take either form, so the algebra is written
once.  scipy.sparse is imported only where a CSR matrix is made
or read, so a space below the bound never loads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

DEFAULT_TOL = 1e-10

# Smallest dimension stored as CSR, and the smallest at which a run may
# compile to CSR (dynamics._compile), read off the per-stage crossover
# table in CHANGES.md: on the two-cavity cascade, CSR overtakes dense BLAS
# products at d ≈ 50 for the master equation and between d = 64 and 100
# for the Schrödinger equation.  With one bound for both, a model below it
# is dense end to end, and one at or past it is densified for a run only
# when its pattern fills more than dynamics.SPARSE_MAX_FILL.
SPARSE_MIN_DIM = 100

FOCK = "fock"
GENERIC = "generic"


@dataclass(frozen=True)
class Factor:
    """One tensor factor of a Hilbert space."""

    label: str
    dim: int
    kind: str = GENERIC

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"factor {self.label!r}: dim must be positive, got {self.dim}")
        if self.kind not in (FOCK, GENERIC):
            raise ValueError(f"factor {self.label!r}: unknown kind {self.kind!r}")

    @property
    def cutoff(self) -> int:
        """Highest occupation number kept (Fock factors only)."""
        if self.kind != FOCK:
            raise ValueError(f"factor {self.label!r} is not a Fock factor")
        return self.dim - 1


def fock_factor(label: str, cutoff: int) -> Factor:
    if cutoff < 0:
        raise ValueError(f"cutoff must be >= 0, got {cutoff}")
    return Factor(label, cutoff + 1, FOCK)


def generic_factor(label: str, dim: int) -> Factor:
    return Factor(label, dim, GENERIC)


class HilbertSpace:
    """Ordered tensor product of labeled finite-dimensional factors.

    Factor order is the declaration order; all embeddings respect it.
    """

    __slots__ = ("factors", "total_dim", "_index")

    def __init__(self, factors: Iterable[Factor]):
        factors = tuple(factors)
        if not factors:
            raise ValueError("a HilbertSpace needs at least one factor")
        labels = [f.label for f in factors]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate factor labels in {labels}")
        self.factors = factors
        self.total_dim = math.prod(f.dim for f in factors)
        self._index = {f.label: i for i, f in enumerate(factors)}

    @classmethod
    def fock(cls, label: str, cutoff: int) -> "HilbertSpace":
        return cls([fock_factor(label, cutoff)])

    @classmethod
    def generic(cls, label: str, dim: int) -> "HilbertSpace":
        return cls([generic_factor(label, dim)])

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(f.dim for f in self.factors)

    def factor(self, label: str) -> Factor:
        try:
            return self.factors[self._index[label]]
        except KeyError:
            raise KeyError(f"no factor labeled {label!r} in {self}") from None

    def factor_position(self, label: str) -> int:
        if label not in self._index:
            raise KeyError(f"no factor labeled {label!r} in {self}")
        return self._index[label]

    def sole_fock_label(self) -> str | None:
        """The label of the space's one Fock factor, which a mode argument
        may then omit; None when it has none or several."""
        labels = [f.label for f in self.factors if f.kind == FOCK]
        return labels[0] if len(labels) == 1 else None

    def __contains__(self, label: str) -> bool:
        return label in self._index

    def __eq__(self, other) -> bool:
        return self is other or (isinstance(other, HilbertSpace) and self.factors == other.factors)

    def __hash__(self) -> int:
        return hash(self.factors)

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{f.label}:fock({f.cutoff})" if f.kind == FOCK else f"{f.label}:dim{f.dim}"
            for f in self.factors
        )
        return f"HilbertSpace({parts})"


class Operator:
    """Complex square matrix acting on a :class:`HilbertSpace`, stored by
    the rule of this module: dense below ``SPARSE_MIN_DIM``, canonical CSR
    from there on.

    The operator owns its matrix, which is read-only (a CSR matrix's
    data, indices and index pointer are).  The constructor copies the
    dense or scipy sparse matrix a caller hands in, so changing it
    afterwards leaves the operator unchanged; the algebra and the
    constructors below adopt the matrix they have just computed, and a
    result may share a frozen matrix with its operand.
    """

    __slots__ = ("space", "matrix")

    def __init__(self, space: HilbertSpace, matrix):
        self._own(space, _stored(matrix, space.total_dim))

    @classmethod
    def _adopt(cls, space: HilbertSpace, matrix) -> "Operator":
        """An operator on a matrix in the space's storage form that nothing
        else writes: a result just computed, or a frozen matrix.  It is
        frozen, not copied."""
        op = cls.__new__(cls)
        op._own(space, matrix)
        return op

    def _own(self, space: HilbertSpace, matrix):
        if matrix.shape != (space.total_dim, space.total_dim):
            raise ValueError(
                f"matrix shape {matrix.shape} does not match space dim {space.total_dim}"
            )
        _freeze(_canonical(matrix))
        self.space = space
        self.matrix = matrix

    # -- algebra ----------------------------------------------------------

    def dagger(self) -> "Operator":
        return Operator._adopt(self.space, _conj_transpose(self.matrix))

    def __add__(self, other: "Operator") -> "Operator":
        self._check_space(other)
        return Operator._adopt(self.space, self.matrix + other.matrix)

    def __sub__(self, other: "Operator") -> "Operator":
        self._check_space(other)
        return Operator._adopt(self.space, self.matrix - other.matrix)

    def __neg__(self) -> "Operator":
        return Operator._adopt(self.space, -self.matrix)

    def __mul__(self, c) -> "Operator":
        return Operator._adopt(self.space, self.matrix * complex(c))

    __rmul__ = __mul__

    def __matmul__(self, other: "Operator") -> "Operator":
        self._check_space(other)
        return Operator._adopt(self.space, self.matrix @ other.matrix)

    def _check_space(self, other: "Operator"):
        if self.space != other.space:
            raise ValueError(f"space mismatch: {self.space} vs {other.space}")

    def __repr__(self) -> str:
        return f"Operator(dim={self.space.total_dim})"


# -- constructors ---------------------------------------------------------


def identity(space: HilbertSpace) -> Operator:
    return Operator._adopt(space, _identity_matrix(space.total_dim))


def annihilator(space: HilbertSpace, factor_label: str) -> Operator:
    """Truncated annihilation operator of the named Fock factor, embedded
    into the full space with identities on the other factors.

    On the factor itself the matrix is a[m, m+1] = sqrt(m+1); the top
    level simply has no raising partner.
    """
    f = space.factor(factor_label)
    if f.kind != FOCK:
        raise ValueError(f"factor {factor_label!r} is not a Fock factor")
    m = np.arange(f.dim - 1)
    a = _matrix(m, m + 1, np.sqrt(m + 1.0), f.dim)
    return embed(Operator._adopt(HilbertSpace([f]), a), space)


def creator(space: HilbertSpace, factor_label: str) -> Operator:
    return annihilator(space, factor_label).dagger()


def number_op(space: HilbertSpace, factor_label: str) -> Operator:
    """a†a, built on its factor and then embedded."""
    a = annihilator(HilbertSpace([space.factor(factor_label)]), factor_label)
    return embed(a.dagger() @ a, space)


#: The mode operators of a Fock factor by name, as netlists and the
#: ``--observable`` flag write them.
MODE_OPERATORS = {"a": annihilator, "adag": creator, "n": number_op}


def embed(op: Operator, big_space: HilbertSpace) -> Operator:
    """Kronecker-extend ``op`` to ``big_space`` as ``I_before ⊗ op ⊗ I_after``.

    The factors of ``op.space`` must be a contiguous run of the factors of
    ``big_space``, in the same order (no permutation is performed).  The
    result shares ``op``'s matrix when there is nothing to extend.
    Otherwise it is one :func:`_matrix` call, in the storage form of
    ``big_space``, on op's nonzero entries moved by index arithmetic: entry
    (r, c) of op, of dimension m, lands at ((i·m + r)·after + j,
    (i·m + c)·after + j) for each i < before and j < after.  Each value is
    multiplied by 1.0 once per identity factor, as a Kronecker product
    multiplies it by the identity's entries, so a CSR matrix has the
    arrays of ``scipy.sparse.kron``'s products, bit for bit, and a dense
    one equals the dense Kronecker products by value (its zeros are +0).
    """
    positions = []
    for f in op.space.factors:
        if f.label not in big_space:
            raise ValueError(f"factor {f.label!r} missing from target space")
        if big_space.factor(f.label) != f:
            raise ValueError(f"factor {f.label!r} differs between spaces")
        positions.append(big_space.factor_position(f.label))
    if positions != sorted(positions):
        raise ValueError("factor order differs between spaces; embedding permutes nothing")
    first, last = positions[0], positions[-1]
    if last - first + 1 != len(positions):
        raise ValueError("factors are not adjacent in the target space; "
                         "embedding is a Kronecker product over a contiguous run")
    matrix = op.matrix
    before, after = math.prod(big_space.dims[:first]), math.prod(big_space.dims[last + 1:])
    if before > 1 or after > 1:
        rows, cols, vals = _entries(matrix)
        m = op.space.total_dim
        # (before, nnz, after) positions, row-major, so each row's columns
        # ascend; int32, the index type scipy's kron picks below d = 2**31
        shift = (np.arange(before) * (m * after))[:, None, None] + np.arange(after)
        rows = (rows[:, None] * after + shift).reshape(-1).astype(np.int32)
        cols = (cols[:, None] * after + shift).reshape(-1).astype(np.int32)
        # a Kronecker product multiplies each value by the identity's 1.0, once per factor
        for _ in range((before > 1) + (after > 1)):
            vals = vals * 1.0
        vals = np.broadcast_to(vals[:, None], shift.shape[:1] + vals.shape + (after,))
        matrix = _matrix(rows, cols, vals.reshape(-1), big_space.total_dim)
    return Operator._adopt(big_space, matrix)


# -- storage --------------------------------------------------------------
#
# The primitives below take a matrix in either storage form; each one
# that makes a matrix makes it in the form of its dimension.


def _is_dense(m) -> bool:
    return isinstance(m, np.ndarray)


def _stored(matrix, d: int):
    """A new matrix holding a caller's dense or scipy sparse ``matrix``,
    of any shape, in the storage form of dimension d."""
    if hasattr(matrix, "tocsr"):  # scipy sparse
        if d < SPARSE_MIN_DIM:
            return np.array(matrix.toarray(), dtype=complex, order="C")
        from scipy import sparse

        return _canonical(sparse.csr_array(matrix, dtype=complex, copy=True))
    matrix = np.array(matrix, dtype=complex, order="C")
    if d < SPARSE_MIN_DIM or matrix.ndim != 2:
        return matrix
    from scipy import sparse

    return _canonical(sparse.csr_array(matrix))


def _matrix(rows, cols, vals, d: int):
    """The d×d matrix with the entries ``vals`` at (``rows``, ``cols``),
    each position once, and zeros elsewhere, in the storage form of d."""
    if d < SPARSE_MIN_DIM:
        m = np.zeros((d, d), dtype=complex)
        m[rows, cols] = vals
        return m
    from scipy import sparse

    return _canonical(sparse.csr_array((np.asarray(vals, dtype=complex), (rows, cols)),
                                       shape=(d, d)))


def _identity_matrix(d: int):
    i = np.arange(d)
    return _matrix(i, i, np.ones(d), d)


def _dense(m) -> np.ndarray:
    """m as a dense array: itself, or a new array for a CSR matrix."""
    return m if _is_dense(m) else m.toarray()


def _values(m) -> np.ndarray:
    """The stored entries of m: a dense array itself, or a CSR matrix's
    data, so a test over every entry that is not a stored zero reads them."""
    return m if _is_dense(m) else m.data


def _entries(m) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, cols, values) of the nonzero entries of m, a matrix of the
    algebra (so a CSR one is canonical), in row-major order."""
    if _is_dense(m):
        rows, cols = np.nonzero(m)
        return rows, cols, m[rows, cols]
    return np.repeat(np.arange(m.shape[0]), np.diff(m.indptr)), m.indices, m.data


def _canonical(m):
    """m, with a CSR matrix that nothing else holds put in canonical form
    in place: its indices sorted, its duplicates summed and its explicit
    zeros dropped.  A canonical one, frozen or not, is not written."""
    if not _is_dense(m):
        if not m.has_canonical_format:
            m.sum_duplicates()
        if not m.data.all():
            m.eliminate_zeros()
    return m


def _freeze(m) -> None:
    for a in (m,) if _is_dense(m) else (m.data, m.indices, m.indptr):
        a.setflags(write=False)


def _nonzero(m) -> bool:
    """Whether m has a nonzero entry; a CSR matrix is made canonical
    first (:func:`_canonical`), so an entry that cancelled to exactly zero
    is dropped, and a matrix with none has nnz = 0."""
    return bool(_values(_canonical(m)).any())


def _equal(a, b) -> bool:
    """Exact entrywise equality of two matrices of one storage form (a
    NaN entry is unequal)."""
    if _is_dense(a):
        return np.array_equal(a, b)
    return (a.shape == b.shape and np.array_equal(a.indptr, b.indptr)
            and np.array_equal(a.indices, b.indices) and np.array_equal(a.data, b.data))


def _max_abs(m) -> float:
    """The largest |entry| of m, 0 for the zero matrix, NaN if any is NaN."""
    return float(np.maximum.reduce(np.abs(_values(m)), axis=None, initial=0.0))


def _complex(re, im):
    """re + i·im from two real matrices of one form that only the caller
    holds, each part exact (no product with i, which would make a NaN of
    an infinite part)."""
    if _is_dense(re):
        out = re.astype(complex)
        out.imag = im
        return out
    im = _canonical(im)
    i_im = np.zeros(im.nnz, dtype=complex)
    i_im.imag = im.data
    return _canonical(re).astype(complex) + type(im)((i_im, im.indices, im.indptr),
                                                     shape=im.shape)


def _conj_transpose(m):
    """m† as a new matrix of m's form; a dense one is C-ordered, whatever
    m's shape."""
    if _is_dense(m):
        return np.conjugate(m.T, out=np.empty(m.shape[::-1], dtype=complex))
    return _canonical(m.conj().T.tocsr())
