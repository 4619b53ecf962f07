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
from typing import Iterable

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

    def sole_fock_label(self) -> str | None:
        """The label of the space's one Fock factor, which a mode argument
        may then omit; None when it has none or several."""
        labels = [f.label for f in self.factors if f.kind == FOCK]
        return labels[0] if len(labels) == 1 else None

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
    """Dense complex square matrix acting on a :class:`HilbertSpace`.

    The matrix is a read-only, C-ordered complex array that the operator
    owns.  The constructor copies the array a caller hands in, so changing
    it afterwards leaves the operator unchanged; the algebra and the
    constructors below adopt the array they have just computed, and a
    result may share a frozen matrix with its operand.
    """

    __slots__ = ("space", "matrix")

    def __init__(self, space: HilbertSpace, matrix):
        self._own(space, np.array(matrix, dtype=complex, order="C"))

    @classmethod
    def _adopt(cls, space: HilbertSpace, matrix: np.ndarray) -> "Operator":
        """An operator on a C-ordered complex array that nothing else
        writes: a result just computed, or a frozen matrix.  It is frozen,
        not copied."""
        op = cls.__new__(cls)
        op._own(space, matrix)
        return op

    def _own(self, space: HilbertSpace, matrix: np.ndarray):
        if matrix.shape != (space.total_dim, space.total_dim):
            raise ValueError(
                f"matrix shape {matrix.shape} does not match space dim {space.total_dim}"
            )
        matrix.setflags(write=False)
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

    # -- predicates -------------------------------------------------------

    def approx_equal(self, other: "Operator", tol: float = DEFAULT_TOL) -> bool:
        self._check_space(other)
        return float(np.max(np.abs(self.matrix - other.matrix))) <= tol

    def __repr__(self) -> str:
        return f"Operator(dim={self.space.total_dim})"


# -- constructors ---------------------------------------------------------


def identity(space: HilbertSpace) -> Operator:
    return Operator._adopt(space, np.eye(space.total_dim, dtype=complex))


def annihilator(space: HilbertSpace, factor_label: str) -> Operator:
    """Truncated annihilation operator of the named Fock factor, embedded
    into the full space with identities on the other factors.

    On the factor itself the matrix is a[m, m+1] = sqrt(m+1); the top
    level simply has no raising partner.
    """
    f = space.factor(factor_label)
    if f.kind != FOCK:
        raise ValueError(f"factor {factor_label!r} is not a Fock factor")
    a = np.diag(np.sqrt(np.arange(1, f.dim)), 1)
    return embed(Operator._adopt(HilbertSpace([f]), a.astype(complex)), space)


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
    result adopts the last Kronecker product's array, or shares ``op``'s
    matrix when there is nothing to extend.
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
    if before > 1:
        matrix = np.kron(np.eye(before), matrix)
    if after > 1:
        matrix = np.kron(matrix, np.eye(after))
    return Operator._adopt(big_space, matrix)


def _conj_transpose(m: np.ndarray) -> np.ndarray:
    """m† as a new C-ordered array, whatever m's shape."""
    return np.conjugate(m.T, out=np.empty(m.shape[::-1], dtype=complex))
