"""Finite-dimensional Hilbert spaces and dense complex operators.

A :class:`HilbertSpace` is an ordered tensor product of labeled factors,
each either a Fock space truncated at a cutoff occupation number or a
generic d-dimensional space.  :class:`Operator` is a dense complex matrix
tagged with the space it acts on.  All values are immutable after
construction and every operation is pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

DEFAULT_TOL = 1e-10

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

    def __contains__(self, label: str) -> bool:
        return label in self._index

    def __eq__(self, other) -> bool:
        return isinstance(other, HilbertSpace) and self.factors == other.factors

    def __hash__(self) -> int:
        return hash(self.factors)

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{f.label}:fock({f.cutoff})" if f.kind == FOCK else f"{f.label}:dim{f.dim}"
            for f in self.factors
        )
        return f"HilbertSpace({parts})"


class Operator:
    """Dense complex square matrix acting on a :class:`HilbertSpace`."""

    __slots__ = ("space", "matrix")

    def __init__(self, space: HilbertSpace, matrix):
        matrix = np.array(matrix, dtype=complex)
        if matrix.shape != (space.total_dim, space.total_dim):
            raise ValueError(
                f"matrix shape {matrix.shape} does not match space dim {space.total_dim}"
            )
        matrix.setflags(write=False)
        self.space = space
        self.matrix = matrix

    # -- algebra ----------------------------------------------------------

    def dagger(self) -> "Operator":
        return Operator(self.space, self.matrix.conj().T)

    def __add__(self, other: "Operator") -> "Operator":
        self._check_space(other)
        return Operator(self.space, self.matrix + other.matrix)

    def __sub__(self, other: "Operator") -> "Operator":
        self._check_space(other)
        return Operator(self.space, self.matrix - other.matrix)

    def __neg__(self) -> "Operator":
        return Operator(self.space, -self.matrix)

    def __mul__(self, c) -> "Operator":
        return Operator(self.space, self.matrix * complex(c))

    __rmul__ = __mul__

    def __matmul__(self, other: "Operator") -> "Operator":
        self._check_space(other)
        return Operator(self.space, self.matrix @ other.matrix)

    def _check_space(self, other: "Operator"):
        if self.space != other.space:
            raise ValueError(f"space mismatch: {self.space} vs {other.space}")

    # -- predicates -------------------------------------------------------

    def is_zero(self) -> bool:
        return not np.any(self.matrix)

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.matrix))) if self.matrix.size else 0.0

    def approx_equal(self, other: "Operator", tol: float = DEFAULT_TOL) -> bool:
        self._check_space(other)
        return float(np.max(np.abs(self.matrix - other.matrix))) <= tol

    def is_hermitian(self, tol: float = DEFAULT_TOL) -> bool:
        return float(np.max(np.abs(self.matrix - self.matrix.conj().T))) <= tol

    def __repr__(self) -> str:
        return f"Operator(dim={self.space.total_dim})"


# -- constructors ---------------------------------------------------------


def identity(space: HilbertSpace) -> Operator:
    return Operator(space, np.eye(space.total_dim))


def zero(space: HilbertSpace) -> Operator:
    return Operator(space, np.zeros((space.total_dim, space.total_dim)))


def annihilator(space: HilbertSpace, factor_label: str) -> Operator:
    """Truncated annihilation operator of the named Fock factor, embedded
    into the full space with identities on the other factors.

    On the factor itself the matrix is a[m, m+1] = sqrt(m+1); the top
    level simply has no raising partner.
    """
    f = space.factor(factor_label)
    if f.kind != FOCK:
        raise ValueError(f"factor {factor_label!r} is not a Fock factor")
    a = np.zeros((f.dim, f.dim), dtype=complex)
    for m in range(f.dim - 1):
        a[m, m + 1] = math.sqrt(m + 1)
    small = HilbertSpace([f])
    return embed(Operator(small, a), space)


def creator(space: HilbertSpace, factor_label: str) -> Operator:
    return annihilator(space, factor_label).dagger()


def number_op(space: HilbertSpace, factor_label: str) -> Operator:
    a = annihilator(space, factor_label)
    return a.dagger() @ a


def embed(op: Operator, big_space: HilbertSpace) -> Operator:
    """Kronecker-extend ``op`` with identities on the factors of
    ``big_space`` that its own space lacks, respecting factor order.

    The factors of ``op.space`` must appear in ``big_space`` in the same
    relative order (no permutation is performed).
    """
    small = op.space
    if small == big_space:
        return Operator(big_space, op.matrix)
    positions = []
    for f in small.factors:
        if f.label not in big_space:
            raise ValueError(f"factor {f.label!r} missing from target space")
        if big_space.factor(f.label) != f:
            raise ValueError(f"factor {f.label!r} differs between spaces")
        positions.append(big_space.factor_position(f.label))
    if positions != sorted(positions):
        raise ValueError("factor order differs between spaces; embedding permutes nothing")

    n_big = len(big_space.factors)
    dims = big_space.dims
    small_dims = small.dims
    # einsum: operand tensor carries row/col axes for the small factors,
    # identity deltas supply the remaining axes.
    t = op.matrix.reshape(small_dims + small_dims)
    row = [chr(ord("a") + i) for i in range(n_big)]
    col = [chr(ord("A") + i) for i in range(n_big)]
    op_idx = "".join(row[p] for p in positions) + "".join(col[p] for p in positions)
    operands = [t]
    terms = [op_idx]
    for i in range(n_big):
        if i not in positions:
            operands.append(np.eye(dims[i], dtype=complex))
            terms.append(row[i] + col[i])
    out = "".join(row) + "".join(col)
    big = np.einsum(",".join(terms) + "->" + out, *operands)
    return Operator(big_space, big.reshape(big_space.total_dim, big_space.total_dim))


# -- operator calculus ----------------------------------------------------


def commutator(a: Operator, b: Operator) -> Operator:
    return a @ b - b @ a


def op_imag(x: Operator) -> Operator:
    """Operator imaginary part (x - x†)/(2i); always self-adjoint."""
    return Operator(x.space, (x.matrix - x.matrix.conj().T) * (-0.5j))


def op_real(x: Operator) -> Operator:
    """Operator real part (x + x†)/2."""
    return Operator(x.space, (x.matrix + x.matrix.conj().T) * 0.5)


def is_unitary_channel_matrix(
    S: Sequence[Sequence[Operator]], tol: float = DEFAULT_TOL
) -> bool:
    """Check the two-sided unitarity conditions for a channel matrix with
    operator entries: sum_k S_ik S_jk† = delta_ij = sum_k S_ki† S_kj.
    """
    n = len(S)
    if any(len(row) != n for row in S):
        raise ValueError("channel matrix is ragged")
    space = S[0][0].space
    for row in S:
        for entry in row:
            if entry.space != space:
                raise ValueError("channel matrix entries live on different spaces")
    eye = np.eye(space.total_dim)
    for i in range(n):
        for j in range(n):
            target = eye if i == j else 0.0
            left = sum(S[i][k].matrix @ S[j][k].matrix.conj().T for k in range(n))
            right = sum(S[k][i].matrix.conj().T @ S[k][j].matrix for k in range(n))
            # written so that a NaN entry fails
            if not (np.max(np.abs(left - target)) <= tol
                    and np.max(np.abs(right - target)) <= tol):
                return False
    return True
