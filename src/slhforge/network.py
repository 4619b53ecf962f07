"""Markovian input-output components and their series composition.

A component is an :class:`SLHTriple` (S, L, H): an n-by-n channel
scattering matrix, an n-vector of coupling operators, and a Hamiltonian.
Scattering is static: S = T ⊗ I for a unitary c-number matrix T, so the
triple holds T, and L and H are :class:`OpPolynomial` so signal-dependent
entries stay symbolic.  Two components connected output-to-input with
zero time delay reduce to the single effective triple

    (T2, L2, H2) <| (T1, L1, H1)
        = (T2 T1, L2 + T2 L1, H1 + H2 + Im(L2† T2 L1))

which is associative but not commutative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .hilbert import (
    DEFAULT_TOL,
    HilbertSpace,
    Operator,
    annihilator,
    number_op,
)
from .signals import DEGREE_CAP, OpPolynomial


class ChannelMismatchError(ValueError):
    """Series composition of triples with different channel counts."""


@dataclass(frozen=True, eq=False)
class SLHTriple:
    """Effective model (S, L, H) of a Markovian input-output component,
    with S = T ⊗ I for the read-only (n, n) complex matrix T."""

    T: np.ndarray
    L: tuple[OpPolynomial, ...]
    H: OpPolynomial

    def __post_init__(self):
        T = np.array(self.T, dtype=complex)
        if T.ndim != 2 or T.shape[0] != T.shape[1]:
            raise ValueError("T must be square")
        if len(self.L) != T.shape[0]:
            raise ValueError(f"L has {len(self.L)} entries for {T.shape[0]} channels")
        T.setflags(write=False)
        object.__setattr__(self, "T", T)
        space = self.H.space
        for entry in self.L:
            if entry.space != space:
                raise ValueError("all triple entries must share one space")

    @property
    def S(self) -> tuple[tuple[OpPolynomial, ...], ...]:
        """S = T ⊗ I as polynomial entries T_ij·I, built on each read (an
        entry T_ij = 0 has no terms).  Reductions and runs read T."""
        return tuple(tuple(OpPolynomial.scalar(self.space, t) for t in row) for row in self.T)

    @property
    def channels(self) -> int:
        return len(self.L)

    @property
    def space(self) -> HilbertSpace:
        return self.H.space

    def __eq__(self, other) -> bool:
        """Exact comparison of T, L and H."""
        if not isinstance(other, SLHTriple):
            return NotImplemented
        return np.array_equal(self.T, other.T) and self.L == other.L and self.H == other.H

    def __repr__(self) -> str:
        return f"SLHTriple(channels={self.channels}, dim={self.space.total_dim})"


class InvalidTripleError(ValueError):
    """A triple that fails :func:`validate_triple`."""


def validate_triple(g: SLHTriple, tol: float = DEFAULT_TOL) -> None:
    """Check the triple invariants: H formally self-adjoint, then S = T ⊗ I
    unitary (:func:`is_unitary`), each within tol, then each coupling Lᵢ
    of degree at most ``DEGREE_CAP`` / 2, since the master equation holds
    Lᵢ†Lᵢ; the first that fails raises InvalidTripleError.  The command
    line integrates no triple that this rejects.
    """
    if not g.H.adjoint_gap() <= tol:  # NaN fails
        raise InvalidTripleError("H is not self-adjoint")
    if not is_unitary(g.T, tol):
        raise InvalidTripleError("S fails the unitarity conditions")
    for i, entry in enumerate(g.L):
        degree = max((m.degree for m in entry.terms), default=0)
        if 2 * degree > DEGREE_CAP:
            raise InvalidTripleError(f"L[{i}] has degree {degree}, so L†L exceeds "
                                     f"degree cap {DEGREE_CAP}")


def is_unitary(T: np.ndarray, tol: float) -> bool:
    """Whether both TT† and T†T are within tol of the identity (max-abs
    norm); a NaN entry fails at any tol."""
    Td, eye = T.conj().T, np.eye(T.shape[0])
    # written so that a NaN entry fails
    return bool(np.max(np.abs(T @ Td - eye)) <= tol and np.max(np.abs(Td @ T - eye)) <= tol)


# -- component constructors ----------------------------------------------


def _as_poly(x, space: HilbertSpace) -> OpPolynomial:
    if isinstance(x, OpPolynomial):
        if x.space != space:
            raise ValueError("entry space mismatch")
        return x
    if isinstance(x, Operator):
        if x.space != space:
            raise ValueError("entry space mismatch")
        return OpPolynomial.constant(x)
    return OpPolynomial.scalar(space, complex(x))


def pure_hamiltonian(H, space: HilbertSpace | None = None, channels: int = 1) -> SLHTriple:
    """HAM(H): the closed system (I, 0, H); no field interaction."""
    if channels < 1:
        raise ValueError("HAM needs at least one channel")
    if space is None:
        space = H.space
    h = _as_poly(H, space)
    if not h.adjoint_gap() <= DEFAULT_TOL:  # NaN fails
        raise ValueError("HAM requires a self-adjoint Hamiltonian")
    zero = OpPolynomial.zero(space)
    return SLHTriple(np.eye(channels), (zero,) * channels, h)


def beam_splitter(T, space: HilbertSpace) -> SLHTriple:
    """BS(T): static channel scattering by a c-number matrix T, unitary
    within DEFAULT_TOL."""
    T = np.atleast_2d(np.asarray(T, dtype=complex))
    n = T.shape[0]
    if T.shape != (n, n):
        raise ValueError("T must be square")
    if not is_unitary(T, DEFAULT_TOL):
        raise ValueError("T is not unitary")
    zero = OpPolynomial.zero(space)
    return SLHTriple(T, (zero,) * n, zero)


def signal_adder(entries: Iterable, space: HilbertSpace) -> SLHTriple:
    """ADD(u): displaces each channel's field by a scalar signal.

    Each entry may be an OpPolynomial, a signal name, or a (name, scale)
    pair; names become u * I couplings on the declared space.
    """
    polys = []
    for e in entries:
        if isinstance(e, OpPolynomial):
            polys.append(_as_poly(e, space))
        elif isinstance(e, str):
            polys.append(OpPolynomial.of_signal(space, e))
        else:
            name, scale = e
            polys.append(OpPolynomial.of_signal(space, name, complex(scale)))
    n = len(polys)
    if n == 0:
        raise ValueError("ADD needs at least one channel")
    zero = OpPolynomial.zero(space)
    return SLHTriple(np.eye(n), tuple(polys), zero)


def system_coupling(L: Iterable, space: HilbertSpace | None = None) -> SLHTriple:
    """SYS(L): trivial scattering and Hamiltonian, couplings L."""
    L = list(L)
    if not L:
        raise ValueError("SYS needs at least one coupling operator")
    if space is None:
        first = L[0]
        space = first.space
    polys = tuple(_as_poly(x, space) for x in L)
    return SLHTriple(np.eye(len(polys)), polys, OpPolynomial.zero(space))


def cavity(space: HilbertSpace, mode: str, gamma: float, omega: float) -> SLHTriple:
    """Damped cavity mode: (I, sqrt(gamma) a, omega a†a) on one channel."""
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    a = annihilator(space, mode)
    L = OpPolynomial.constant(np.sqrt(gamma) * a)
    H = OpPolynomial.constant(omega * number_op(space, mode))
    return SLHTriple(np.eye(1), (L,), H)


# -- composition ----------------------------------------------------------


def series(g2: SLHTriple, g1: SLHTriple) -> SLHTriple:
    """Series product g2 <| g1: g1's output feeds g2's input.

    Both operands must already live on a common space (embed first); the
    feedback constructions route the same physical system through the
    chain twice, so a shared space is the norm, and the product remains
    valid when the two operands' observables do not commute.

    A zero polynomial takes no part in a sum (``OpPolynomial._sum``) or
    a product, which are exact with it, so the result keeps its bits: a
    step whose L2 is zero, a scattering or a Hamiltonian step, forms no
    cross product L2†T2L1 and no Im of it.
    """
    if g1.channels != g2.channels:
        raise ChannelMismatchError(
            f"channel-count mismatch: {g2.channels} vs {g1.channels}"
        )
    space = g1.space
    if space != g2.space:
        raise ValueError("operands live on different spaces; embed before composing")
    # (T2 L1)_i = Σ_j T2_ij L1_j: a coefficient 1 takes L1_j as it is,
    # and 0 adds nothing; the leading zero is the sum of an empty row
    zero = OpPolynomial.zero(space)
    routed = [OpPolynomial._sum([zero] + [p if t == 1 else p.scale(t)
                                          for t, p in zip(row, g1.L) if t != 0])
              for row in g2.T]
    L = tuple(l2 + r for l2, r in zip(g2.L, routed))
    # Im(L2† T2 L1) alone outlives the cross polynomial, and H is summed in
    # place on the arrays the sum allocates
    cross = [l2.dagger() * r for l2, r in zip(g2.L, routed)
             if not (l2.is_zero() or r.is_zero())]
    H = OpPolynomial._sum([g1.H, g2.H] + ([OpPolynomial._sum(cross).imag()] if cross else []))
    return SLHTriple(g2.T @ g1.T, L, H)


def _is_pure_hamiltonian(g: SLHTriple) -> bool:
    """True for (T = I, L = 0) triples, whatever their channel count."""
    return all(entry.is_zero() for entry in g.L) and np.array_equal(g.T, np.eye(g.channels))


def series_steps(components: Sequence[SLHTriple]) -> Iterator[SLHTriple]:
    """Running reduction of a chain listed downstream-first (leftmost
    receives the rightmost component's output, mirroring `a <| b <| c`):
    yields the rightmost component, then each product with the next
    component to its left.

    A pure Hamiltonian (T = I, L = 0) carries no field, so when the
    channel counts of a step differ it takes its neighbour's count;
    any other mismatch raises ChannelMismatchError.
    """
    if not components:
        raise ValueError("empty chain")
    acc = components[-1]
    yield acc
    for g in reversed(components[:-1]):
        if g.channels != acc.channels:
            if _is_pure_hamiltonian(g):
                g = pure_hamiltonian(g.H, g.space, acc.channels)
            elif _is_pure_hamiltonian(acc):
                acc = pure_hamiltonian(acc.H, acc.space, g.channels)
        acc = series(g, acc)
        yield acc


def series_chain(components: Sequence[SLHTriple]) -> SLHTriple:
    """Reduce a chain listed downstream-first to its effective triple."""
    for acc in series_steps(components):
        pass
    return acc


# -- flagship constructions ----------------------------------------------


def cancellation_chain_components(
    L: Sequence, H0, signals: Sequence[str], space: HilbertSpace | None = None
) -> list[SLHTriple]:
    """The seven-component noise-cancellation chain, downstream-first:

        HAM(H0) <| ADD(u) <| BS(-I) <| SYS(L) <| BS(-I) <| ADD(-u) <| SYS(L)

    The input noise passes through the system, the signal -u is added,
    the BS(-I) pair flips the coupling sign for the second pass, and u
    is added back at the end.
    """
    sys_g = system_coupling(L, space)
    space = sys_g.space
    n = sys_g.channels
    if len(signals) != n:
        raise ValueError(f"need {n} signals, got {len(signals)}")
    bs = beam_splitter(-np.eye(n), space)
    add_minus = signal_adder([(name, -1.0) for name in signals], space)
    add_plus = signal_adder(list(signals), space)
    ham = pure_hamiltonian(H0, space, channels=n)
    return [ham, add_plus, bs, sys_g, bs, add_minus, sys_g]


def build_cancellation_chain(
    L: Sequence, H0, signals: Sequence[str], space: HilbertSpace | None = None
) -> SLHTriple:
    """Compose the noise-cancellation chain into its effective triple.

    The couplings cancel exactly (S = I, L = 0) and the composed system
    is closed, evolving under the bilinear Hamiltonian
    H0 + 2 Im(L† u); each of the two passes through the coupling
    contributes one Im(L† u) cross term.
    """
    return series_chain(cancellation_chain_components(L, H0, signals, space))


def build_noisy_construction(
    T, L: Sequence, H0, signals: Sequence[str], space: HilbertSpace | None = None
) -> SLHTriple:
    """Signal injection with the coupling retained:

        (I, -u, 0) <| (T, L, H0) <| (I, T^-1 u, 0) = (T, L, H0 + 2 Im(L†u))

    The system stays coupled to the field through L; only the
    Hamiltonian picks up the bilinear signal term.
    """
    sys_g = system_coupling(L, space)
    space = sys_g.space
    n = sys_g.channels
    if len(signals) != n:
        raise ValueError(f"need {n} signals, got {len(signals)}")
    T = np.atleast_2d(np.asarray(T, dtype=complex))
    if T.shape != (n, n):
        raise ValueError(f"T must be {n}x{n}")
    Tinv = T.conj().T
    middle = SLHTriple(beam_splitter(T, space).T, sys_g.L, _as_poly(H0, space))
    entries_in = []
    for i in range(n):
        p = OpPolynomial.zero(space)
        for j in range(n):
            p = p + OpPolynomial.of_signal(space, signals[j], Tinv[i, j])
        entries_in.append(p)
    add_in = signal_adder(entries_in, space)
    add_out = signal_adder([(name, -1.0) for name in signals], space)
    return series_chain([add_out, middle, add_in])

