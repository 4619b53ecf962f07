"""Markovian input-output components and their series composition.

A component is an :class:`SLHTriple` (S, L, H): an n-by-n channel
scattering matrix, an n-vector of coupling operators, and a Hamiltonian,
all carried as :class:`OpPolynomial` so signal-dependent entries stay
symbolic.  Two components connected output-to-input with zero time delay
reduce to the single effective triple

    (S2, L2, H2) <| (S1, L1, H1)
        = (S2 S1, L2 + S2 L1, H1 + H2 + Im(L2† S2 L1))

which is associative but not commutative.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .hilbert import (
    DEFAULT_TOL,
    HilbertSpace,
    Operator,
    annihilator,
    identity,
    is_unitary_channel_matrix,
    number_op,
)
from .signals import Bindings, OpPolynomial


class ChannelMismatchError(ValueError):
    """Series composition of triples with different channel counts."""


@dataclass(frozen=True)
class SLHTriple:
    """Effective model (S, L, H) of a Markovian input-output component."""

    S: tuple[tuple[OpPolynomial, ...], ...]
    L: tuple[OpPolynomial, ...]
    H: OpPolynomial

    def __post_init__(self):
        n = len(self.S)
        if any(len(row) != n for row in self.S):
            raise ValueError("S must be square")
        if len(self.L) != n:
            raise ValueError(f"L has {len(self.L)} entries for {n} channels")
        space = self.H.space
        for row in self.S:
            for entry in row:
                if entry.space != space:
                    raise ValueError("all triple entries must share one space")
        for entry in self.L:
            if entry.space != space:
                raise ValueError("all triple entries must share one space")

    @property
    def channels(self) -> int:
        return len(self.S)

    @property
    def space(self) -> HilbertSpace:
        return self.H.space

    def __repr__(self) -> str:
        return f"SLHTriple(channels={self.channels}, dim={self.space.total_dim})"


def validate_triple(
    g: SLHTriple,
    probe_times: Sequence[float] = (0.0,),
    bindings: Bindings | None = None,
    tol: float = DEFAULT_TOL,
) -> None:
    """Check the triple invariants: H formally self-adjoint, S unitary at
    the probe times.  Warns if S has acquired signal dependence (no
    construction in scope produces one).
    """
    if not g.H.dagger().approx_equal(g.H, tol):
        raise ValueError("H is not self-adjoint")
    s_signals = set()
    for row in g.S:
        for entry in row:
            s_signals |= entry.signals()
    if s_signals:
        warnings.warn(f"S depends on signals {sorted(s_signals)}; this is unusual")
    for t in probe_times:
        S_num = [[entry.evaluate(t, bindings) for entry in row] for row in g.S]
        if not is_unitary_channel_matrix(S_num, tol):
            raise ValueError(f"S fails the unitarity conditions at t={t}")


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


def _identity_S(space: HilbertSpace, n: int) -> tuple[tuple[OpPolynomial, ...], ...]:
    one = OpPolynomial.constant(identity(space))
    zero = OpPolynomial.zero(space)
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def pure_hamiltonian(H, space: HilbertSpace | None = None, channels: int = 1) -> SLHTriple:
    """HAM(H): the closed system (I, 0, H); no field interaction."""
    if space is None:
        space = H.space
    h = _as_poly(H, space)
    if not h.dagger().approx_equal(h, DEFAULT_TOL):
        raise ValueError("HAM requires a self-adjoint Hamiltonian")
    zero = OpPolynomial.zero(space)
    return SLHTriple(_identity_S(space, channels), (zero,) * channels, h)


def beam_splitter(T, space: HilbertSpace, tol: float = DEFAULT_TOL) -> SLHTriple:
    """BS(T): static channel scattering by a unitary c-number matrix T."""
    T = np.atleast_2d(np.asarray(T, dtype=complex))
    n = T.shape[0]
    if T.shape != (n, n):
        raise ValueError("T must be square")
    if not np.max(np.abs(T @ T.conj().T - np.eye(n))) <= tol:  # NaN fails
        raise ValueError("T is not unitary")
    eye = identity(space)
    S = tuple(
        tuple(OpPolynomial.constant(T[i, j] * eye) for j in range(n)) for i in range(n)
    )
    zero = OpPolynomial.zero(space)
    return SLHTriple(S, (zero,) * n, zero)


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
    return SLHTriple(_identity_S(space, n), tuple(polys), zero)


def system_coupling(L: Iterable, space: HilbertSpace | None = None) -> SLHTriple:
    """SYS(L): trivial scattering and Hamiltonian, couplings L."""
    L = list(L)
    if not L:
        raise ValueError("SYS needs at least one coupling operator")
    if space is None:
        first = L[0]
        space = first.space
    polys = tuple(_as_poly(x, space) for x in L)
    return SLHTriple(_identity_S(space, len(polys)), polys, OpPolynomial.zero(space))


def cavity(space: HilbertSpace, mode: str, gamma: float, omega: float) -> SLHTriple:
    """Damped cavity mode: (I, sqrt(gamma) a, omega a†a) on one channel."""
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    a = annihilator(space, mode)
    L = OpPolynomial.constant(np.sqrt(gamma) * a)
    H = OpPolynomial.constant(omega * number_op(space, mode))
    return SLHTriple(_identity_S(space, 1), (L,), H)


# -- composition ----------------------------------------------------------


def series(g2: SLHTriple, g1: SLHTriple) -> SLHTriple:
    """Series product g2 <| g1: g1's output feeds g2's input.

    Both operands must already live on a common space (embed first); the
    feedback constructions route the same physical system through the
    chain twice, so a shared space is the norm, and the product remains
    valid when the two operands' observables do not commute.
    """
    if g1.channels != g2.channels:
        raise ChannelMismatchError(
            f"channel-count mismatch: {g2.channels} vs {g1.channels}"
        )
    if g1.space != g2.space:
        raise ValueError("operands live on different spaces; embed before composing")
    n = g1.channels
    S = tuple(
        tuple(
            _poly_sum(g2.S[i][k] * g1.S[k][j] for k in range(n)) for j in range(n)
        )
        for i in range(n)
    )
    L = tuple(
        g2.L[i] + _poly_sum(g2.S[i][j] * g1.L[j] for j in range(n)) for i in range(n)
    )
    cross = _poly_sum(
        g2.L[i].dagger() * g2.S[i][j] * g1.L[j] for i in range(n) for j in range(n)
    )
    H = g1.H + g2.H + cross.imag()
    return SLHTriple(S, L, H)


def _poly_sum(polys) -> OpPolynomial:
    it = iter(polys)
    total = next(it)
    for p in it:
        total = total + p
    return total


def _is_pure_hamiltonian(g: SLHTriple) -> bool:
    """True for (S = I, L = 0) triples, whatever their channel count."""
    return all(entry.is_zero() for entry in g.L) and g.S == _identity_S(g.space, g.channels)


def series_steps(components: Sequence[SLHTriple]) -> Iterator[SLHTriple]:
    """Running reduction of a chain listed downstream-first (leftmost
    receives the rightmost component's output, mirroring `a <| b <| c`):
    yields the rightmost component, then each product with the next
    component to its left.

    A pure Hamiltonian (S = I, L = 0) carries no field, so when the
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


def splitter_conjugate(g: SLHTriple, T, tol: float = DEFAULT_TOL) -> SLHTriple:
    """Sandwich g between BS(T) upstream and BS(T^-1) downstream:

        (T^-1, 0, 0) <| (S, L, H) <| (T, 0, 0) = (T^-1 S T, T^-1 L, H)

    assuming zero travel delay.  Computed via the two series products,
    which is the defining identity.
    """
    T = np.atleast_2d(np.asarray(T, dtype=complex))
    n = g.channels
    if T.shape != (n, n):
        raise ValueError(f"T must be {n}x{n}")
    if not np.max(np.abs(T @ T.conj().T - np.eye(n))) <= tol:  # NaN fails
        raise ValueError("T is not unitary")
    pre = beam_splitter(T, g.space, tol)
    post = beam_splitter(T.conj().T, g.space, tol)
    return series(post, series(g, pre))


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
    middle = SLHTriple(
        beam_splitter(T, space).S, sys_g.L, _as_poly(H0, space)
    )
    entries_in = []
    for i in range(n):
        p = OpPolynomial.zero(space)
        for j in range(n):
            p = p + OpPolynomial.of_signal(space, signals[j], Tinv[i, j])
        entries_in.append(p)
    add_in = signal_adder(entries_in, space)
    add_out = signal_adder([(name, -1.0) for name in signals], space)
    return series(add_out, series(middle, add_in))


# -- comparison -----------------------------------------------------------


def triples_approx_equal(
    g1: SLHTriple,
    g2: SLHTriple,
    tol: float = DEFAULT_TOL,
    probe_times: Sequence[float] = (0.0,),
    probe_bindings: Bindings | None = None,
) -> tuple[bool, str]:
    """Compare two triples: exact canonical comparison first, then (for
    entries that differ symbolically) numerically at the probe times.
    Returns (equal, report); the report names the first differing entry.
    """
    if g1.channels != g2.channels:
        return False, f"channel counts differ: {g1.channels} vs {g2.channels}"
    if g1.space != g2.space:
        return False, "spaces differ"
    n = g1.channels
    entries = []
    for i in range(n):
        for j in range(n):
            entries.append((f"S[{i}][{j}]", g1.S[i][j], g2.S[i][j]))
    for i in range(n):
        entries.append((f"L[{i}]", g1.L[i], g2.L[i]))
    entries.append(("H", g1.H, g2.H))

    for name, p, q in entries:
        if p == q:
            continue
        for t in probe_times:
            try:
                a = p.evaluate(t, probe_bindings)
                b = q.evaluate(t, probe_bindings)
            except KeyError as exc:
                return False, f"{name} differs symbolically and {exc.args[0]}"
            diff = float(np.max(np.abs(a.matrix - b.matrix)))
            if not diff <= tol:  # NaN fails
                return False, f"{name} differs by {diff:.3e} at t={t}"
    return True, "equal"
