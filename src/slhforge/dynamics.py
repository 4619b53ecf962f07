"""Time evolution of composed triples and the supporting observables.

Master-equation integration assumes vacuum input; coherent drives enter
structurally through signal-adding components inside the network, never
through a separate input-state parameter, so the integrator has a single
code path.  Integration is fixed-step classical RK4 and neither trace
nor norm is renormalized: drift is reported as a diagnostic so that
integrator bugs cannot hide.

Each run compiles its generator once on its distinct RK4 stage times,
the grid points and step midpoints: every signal is sampled on all of
them in one call (``Signal.sample``), and each polynomial it needs has
its coefficients stacked on the union of their nonzero patterns, so a
polynomial's value at a stage time is a single contraction of that
time's monomial values with its stack.  Every stack of a run is CSR,
multiplied into a dense state, or every one is dense, by the rule of
:func:`_compile`; scipy.sparse is imported only by a CSR run or a CSR
model (scipy.integrate only by the analytic oracle), so a small run
loads neither.  The model arrives in the storage form of its space
(``hilbert``'s rule: CSR coefficients from ``SPARSE_MIN_DIM`` on), and
the sum of K, the compile and the observables read it in that form;
only the states, ρ and ψ, are dense at every size.
:func:`lindblad_rhs` evaluates the polynomials directly and
is kept as the reference the compiled master generator is tested
against.  Each observable is compiled too, onto its nonzero pattern, so
reading it at a grid point costs O(nnz).

The workspace belongs to the run, and the model does not: an
integrator lets go of the triple (or H), K and the dense observables once
they are compiled, before it allocates the workspace, so a caller that
hands over its only references, as the command line does, holds no dense
model array during the run.  Each compiled polynomial keeps one
matrix whose entries the RK4 driver rewrites in place once per stage
time, in order; the state and the RK4 slopes (the rows of one buffer),
the stage input, a ring of the last states (at most 256 KiB, and only
the stage input itself for a density matrix past d = 90) and the
generator's scratch matrices are allocated once; each step writes its
update into the ring and copies it into the state, once; and every
product writes into one of these buffers (:func:`_product` in the
Schrödinger stage, and one stage closure per matrix format in the
master equation's, :func:`_compiled_lindblad`).  Once the loop starts,
no state-sized array is allocated, so its cost does not depend on
whether the allocator has returned freed memory to the kernel.  The
diagnostics of a full ring are computed at once and checked in grid
order, so an abort names the first failing grid point.  Each RK4 linear
combination is one real contraction over the stacked state and slopes
(:func:`_rk4`), which BLAS sums in its own order, so a step agrees with
the written-out combination to rounding.  Each product and each
diagnostic keep the order of the expressions written out per state,
bit for bit, and so does the dense master stage, Kρ + ρK† + Σᵢ Lᵢ(ρLᵢ†)
on the compiled values.  Both master stages have one shape: every value
M keeps its conjugate in one flat buffer, and each right product ρM† is
formed from it in turn, into one buffer that the next M reuses.  The CSR
master stage accumulates Kρ and each Lᵢ(ρLᵢ†) onto ρK† entry by entry,
which agrees with the reference to rounding, not bit for bit.

At d = 16 a product costs a few µs, of which numpy's dispatch is a
large part.  So a BLAS product or contraction that writes at most
8 KiB, as much as one state in a full ring, goes through ``np.dot``'s
C function, which makes the same BLAS call as ``np.matmul`` with less
dispatch; larger ones, batched or strided operands and one-monomial
rewrites stay on ``np.matmul`` (:func:`_blas_entry`).  The Schrödinger
stage's matrix-vector product takes ``np.dot`` at any size
(:func:`_product`).  Either entry point writes the same bits, so the
choice moves no output.  For the same reason the step loop has nothing
between its BLAS calls that a run can do once: it writes the RK4
coefficients only when the step changes, and each run binds its
callables, its ring slots and one stage-value rewrite closure
(:meth:`_Compiled.rewriter`) before the loop.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Mapping, Sequence

import numpy as np

from .hilbert import (DEFAULT_TOL, FOCK, SPARSE_MIN_DIM, HilbertSpace, Operator, _dense,
                      _entries, _nonzero, _values)
from .network import SLHTriple
from .signals import Bindings, OpPolynomial

DEFAULT_TRACE_TOL = 1e-6
DEFAULT_LEAK_THRESHOLD = 1e-6

# Format of each compiled run (see _compile): CSR needs a space stored as
# CSR (hilbert.SPARSE_MIN_DIM) and a sparse enough pattern.  At d =
# 100…400 the fill at which dense wins again measured 7–12% of the matrix
# across runs (CHANGES.md); SPARSE_MAX_FILL stays below it.
SPARSE_MAX_FILL = 1 / 16

# np.dot's and np.copyto's own C functions, without the Python dispatcher
# of ``__array_function__`` in front of each (0.15–0.5 µs a call): the
# same BLAS call and copy, on the plain ndarrays a run passes them
_dot = getattr(np.dot, "_implementation", np.dot)
_copyto = getattr(np.copyto, "_implementation", np.copyto)


class IntegrationError(RuntimeError):
    """Aborted integration; carries the offending time and diagnostic."""

    def __init__(self, message: str, t: float, value: float):
        super().__init__(f"{message} at t={t:.6g} (value {value:.3e})")
        self.t = t
        self.value = value


# -- states ---------------------------------------------------------------


class QuantumState:
    """A pure state on a space: a finite unit vector, checked once.  A
    mixed start is a density matrix handed to :func:`integrate_master`."""

    __slots__ = ("space", "vector")

    def __init__(self, space: HilbertSpace, vector=None):
        if vector is None:
            raise ValueError("a QuantumState needs a state vector")
        self.space = space
        vector = np.asarray(vector, dtype=complex)
        if vector.shape != (space.total_dim,):
            raise ValueError("pure state shape mismatch")
        if not np.isfinite(vector).all():
            raise ValueError("pure state has a non-finite entry")
        norm = np.linalg.norm(vector)
        if abs(norm - 1.0) > 1e-10:
            raise ValueError(f"pure state norm {norm} is not 1 within 1e-10")
        self.vector = vector

    def density(self) -> np.ndarray:
        return np.outer(self.vector, self.vector.conj())

    @classmethod
    def vacuum(cls, space: HilbertSpace) -> "QuantumState":
        v = np.zeros(space.total_dim, dtype=complex)
        v[0] = 1.0
        return cls(space, vector=v)

    @classmethod
    def fock(cls, space: HilbertSpace, occupations: Mapping[str, int] | int) -> "QuantumState":
        """Product Fock state; a bare occupation addresses a single-factor
        space.  Occupations are Python or numpy integers (``operator.index``);
        anything else is a ValueError naming its factor."""
        if not isinstance(occupations, Mapping):
            if len(space.factors) != 1:
                raise ValueError("bare occupation number needs a single-factor space")
            occupations = {space.factors[0].label: occupations}
        for label in occupations:
            if label not in space:
                raise ValueError(f"no factor labeled {label!r} in {space}")
        index = 0
        for f in space.factors:
            n = occupations.get(f.label, 0)
            try:
                n = operator.index(n)
            except TypeError:
                raise ValueError(f"occupation {n!r} for factor {f.label!r} "
                                 "is not an integer") from None
            if not 0 <= n < f.dim:
                raise ValueError(f"occupation {n} out of range for factor {f.label!r}")
            index = index * f.dim + n
        v = np.zeros(space.total_dim, dtype=complex)
        v[index] = 1.0
        return cls(space, vector=v)

    @classmethod
    def coherent(cls, space: HilbertSpace, alpha: complex, mode: str | None = None) -> "QuantumState":
        return cls(space, vector=coherent_vector(space, alpha, mode))


def coherent_vector(space: HilbertSpace, alpha: complex, mode: str | None = None) -> np.ndarray:
    """Truncated coherent state |alpha> on the named Fock factor,
    renormalized after truncation; other factors stay in their ground level.
    """
    if mode is None:
        mode = space.sole_fock_label()
        if mode is None:
            raise ValueError("mode label required when the space has != 1 Fock factor")
    f = space.factor(mode)
    if f.kind != FOCK:
        raise ValueError(f"factor {mode!r} is not a Fock factor")
    alpha = complex(alpha)
    if not cmath.isfinite(alpha):
        raise ValueError(f"coherent amplitude {alpha} is not finite")
    amps = np.zeros(f.dim, dtype=complex)
    term = 1.0 + 0.0j
    amps[0] = term
    for n in range(1, f.dim):
        term = term * alpha / math.sqrt(n)
        amps[n] = term
    with np.errstate(over="ignore", invalid="ignore"):
        norm = np.linalg.norm(amps)
    if not math.isfinite(norm):
        raise ValueError(f"coherent amplitude {alpha} overflows: the truncated state's "
                         "norm is not finite")
    amps /= norm
    v = np.zeros(space.dims, dtype=complex)
    at = [0] * len(space.factors)
    at[space.factor_position(mode)] = slice(None)
    v[tuple(at)] = amps
    return v.reshape(-1)


# -- observables ----------------------------------------------------------


def coherent_fidelity(state: QuantumState, alpha: complex, mode: str | None = None) -> float:
    """|<alpha|psi>|² with the truncated, renormalized coherent state."""
    v = coherent_vector(state.space, alpha, mode)
    return float(abs(v.conj() @ state.vector) ** 2)


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    eigs = np.linalg.eigvalsh(rho - sigma)
    return 0.5 * float(np.sum(np.abs(eigs)))


# -- generators -----------------------------------------------------------


def lindblad_rhs(rho: np.ndarray, g: SLHTriple, t: float,
                 bindings: Bindings | None = None) -> np.ndarray:
    """State-picture generator: -i[H, rho] + sum_i (L rho L† - ½{L†L, rho}).

    This is the reference generator: it evaluates the polynomials at t on
    every call, and the integrators use the compiled form of the same map
    (see :func:`integrate_master`).  Scalar signal parts of L enter as
    multiples of the identity and are never special-cased; a c-number
    shift of L is dynamically equivalent to a Hamiltonian shift, which is
    exactly how signal-adding components act on the composed model.
    """
    H = g.H.evaluate(t, bindings).matrix
    out = -1j * (H @ rho - rho @ H)
    for Lp in g.L:
        L = Lp.evaluate(t, bindings).matrix
        if not _nonzero(L):
            continue
        Ld = L.conj().T
        LdL = Ld @ L
        out = out + L @ rho @ Ld - 0.5 * (LdL @ rho + rho @ LdL)
    return out


# -- simulation -----------------------------------------------------------


@dataclass
class SimulationResult:
    """Trajectory on a time grid with per-step diagnostics.

    ``drift`` is |trace(rho) - 1| for master runs and the norm deviation
    for pure-state runs; ``leak`` is the summed population of the top
    two levels of the worst Fock factor.  ``final`` is the state at the
    last grid point; ``states``, when stored, holds every one.
    """

    times: np.ndarray
    expectations: dict[str, np.ndarray] = field(default_factory=dict)
    drift: np.ndarray | None = None
    purity: np.ndarray | None = None
    leak: np.ndarray | None = None
    states: list | None = None
    final: np.ndarray | None = None

    def to_csv(self) -> str:
        """Render as `t,<observables>,trace_drift,purity,leak` text."""
        names = []
        columns = []
        for name in self.expectations:
            vals = self.expectations[name]
            if np.max(np.abs(vals.imag)) > 1e-12:
                names.extend([f"{name}_re", f"{name}_im"])
                columns.extend([vals.real, vals.imag])
            else:
                names.append(name)
                columns.append(vals.real)
        header = ",".join(["t"] + names + ["trace_drift", "purity", "leak"])
        lines = [header]
        for k, t in enumerate(self.times):
            row = [f"{t:.12e}"]
            row += [f"{c[k]:.12e}" for c in columns]
            row += [
                f"{self.drift[k]:.12e}",
                f"{self.purity[k]:.12e}",
                f"{self.leak[k]:.12e}",
            ]
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"


def _leak_masks(space: HilbertSpace) -> list[np.ndarray]:
    """Per Fock factor with at least three levels, the basis states whose
    level in that factor is one of its top two.

    Factors with fewer than three levels carry no meaningful truncation
    signal and get no mask.
    """
    masks = []
    for i, f in enumerate(space.factors):
        if f.kind == FOCK and f.dim >= 3:
            mask = np.zeros(space.dims, dtype=bool)
            mask[(slice(None),) * i + (slice(f.dim - 2, None),)] = True
            masks.append(mask.reshape(-1))
    return masks


def _diagnose(masks: Sequence[np.ndarray], block: np.ndarray):
    """(drift, purity, leak) arrays of a block of state vectors or density
    matrices, bit for bit the formulas on each state alone: drift |‖ψ‖ − 1|
    (``np.linalg.norm``) or |Re tr ρ − 1|, purity 1 or Re tr(ρρ), and leak
    the max over Fock factors of the top-two-level marginal population (0
    without a mask), keeping a NaN marginal."""
    if block.ndim == 2:
        # np.linalg.norm's re·re + im·im: a batched matmul of the strided
        # views adds in its order (einsum and .sum do not)
        re, im = block.real, block.imag
        norm = np.sqrt(np.matmul(re[:, None, :], re[:, :, None])
                       + np.matmul(im[:, None, :], im[:, :, None])).reshape(-1)
        drift, pur, probs = np.abs(norm - 1.0), np.ones(len(block)), np.abs(block) ** 2
    else:
        drift = np.abs(block.trace(0, 1, 2).real - 1.0)
        # tr(ρρ) without the product; equal for any ρ, Hermitian or not
        pur = np.einsum("kij,kji->k", block, block).real
        probs = block.diagonal(0, 1, 2).real
    leak = np.zeros(len(block))
    for mask in masks:
        # summed along C-ordered rows, as the 1-d sum adds (probs[:, mask] is not)
        value = probs.compress(mask, axis=1).sum(axis=1)
        leak = np.where(np.isnan(value) | (value > leak), value, leak)
    return drift, pur, leak


class _Compiled:
    """Polynomials compiled on a time array (see :func:`_compile`).

    ``values`` holds one matrix per polynomial for the whole run, and
    ``rewriter()(i)`` rewrites the entries of every non-constant one, in
    place, with its value at the i-th time.  The caller decides when: it
    rewrites before it reads values at a new time, and never twice at one.
    """

    __slots__ = ("values", "_updates")

    def __init__(self, values: list, updates: list):
        self.values = values
        # (value index, contraction, monomial values, stack, entries, conjugate)
        self._updates = updates

    def conjugate_into(self, buffers: list) -> None:
        """Write each value's conjugate entries into its buffer, now and at each rewrite."""
        for value, buffer in zip(self.values, buffers):
            np.conjugate(value.reshape(-1) if isinstance(value, np.ndarray) else value.data,
                         out=buffer)
        self._updates = [(i, contract, vals, stack, entries, buffers[i])
                         for i, contract, vals, stack, entries, _ in self._updates]

    def rewriter(self) -> Callable[[int], None]:
        """The rewrite, one closure over the updates as they are now, so
        after :meth:`conjugate_into`, with nothing looked up at a call: in
        order, each update's contraction, then its conjugate's
        ``np.conjugate`` when it has one.  A run takes it once and calls it
        at every stage time; one update is called without a loop."""
        updates = tuple(self._updates)
        conj = np.conjugate
        if len(updates) != 1:
            def rewrite(i):
                for _, contract, vals, stack, entries, conjugate in updates:
                    contract(vals[i], stack, out=entries)
                    if conjugate is not None:
                        conj(entries, out=conjugate)
            return rewrite
        (_, contract, vals, stack, entries, conjugate), = updates
        if conjugate is None:
            def rewrite_one(i):
                contract(vals[i], stack, out=entries)
            return rewrite_one

        def rewrite_both(i):
            contract(vals[i], stack, out=entries)
            conj(entries, out=conjugate)
        return rewrite_both


def _compile(polys: Sequence[OpPolynomial], bindings: Bindings | None,
             times: np.ndarray) -> _Compiled:
    """``polys`` on the 1-d array ``times``: their values, rewritten at the
    i-th time by ``rewriter()(i)``.

    The format is decided once per call, for all of ``polys``: every value
    is a ``scipy.sparse.csr_array`` when d >= ``SPARSE_MIN_DIM`` and each
    polynomial's union pattern holds at most ``SPARSE_MAX_FILL``·d²
    entries, and every value is a dense (d, d) array otherwise.  So one
    polynomial past the fill bound makes the whole run dense.  scipy.sparse
    is imported only by a CSR run.

    Each polynomial's k coefficients are stacked into one (k, nnz) array
    on the union of their nonzero patterns: the row-major CSR pattern with
    sorted column indices, shared by every row, or nnz = d·d when dense.
    The union is read from the coefficients' entries, the CSR indices of a
    space stored as CSR, so no dense mask is made.  A coefficient that
    misses part of the union holds explicit zeros there, and the zero
    polynomial stacks one zero row.  Each signal is
    sampled once, on all of ``times`` (``Signal.sample``), and each
    monomial's scalar values are written straight into the polynomial's
    (m, k) table for the m times, so a polynomial's value at a time is
    one contraction of its k monomial values with its stack, over a
    fixed pattern.  Each polynomial has one
    matrix for the whole run, and a rewrite writes its entries (the CSR
    ``data``) in place, so the caller reads a value before it rewrites the
    next.  A constant one is never rewritten.
    """
    d = polys[0].space.total_dim
    bindings = bindings or {}
    samples = {}
    for name in sorted(set().union(*(p.signals() for p in polys))):
        if name not in bindings:
            raise KeyError(f"unbound signal {name!r}")
        samples[name] = bindings[name].sample(times)

    csr = False
    if d >= SPARSE_MIN_DIM:
        # each polynomial's union pattern, as sorted row-major keys r·d + c
        keys = [np.unique(np.concatenate([np.empty(0, dtype=np.int64)] + [
            r * d + c for r, c, _ in map(_entries, p.terms.values())])) for p in polys]
        csr = all(k.size <= SPARSE_MAX_FILL * d * d for k in keys)
    if csr:
        from scipy import sparse
    values, updates = [], []
    for i, poly in enumerate(polys):
        coeffs = list(poly.terms.values())
        # the entries a rewrite writes: the CSR data, or a dense matrix's flat view
        if csr:
            stack = np.zeros((max(1, len(coeffs)), keys[i].size), dtype=complex)
            for row, (r, c, v) in zip(stack, map(_entries, coeffs)):
                row[np.searchsorted(keys[i], r * d + c)] = v
            rows, cols = np.divmod(keys[i], d)
            indptr = np.searchsorted(rows, np.arange(d + 1)).astype(np.int32)
            value = sparse.csr_array((stack[0].copy(), cols.astype(np.int32), indptr),
                                     shape=(d, d))
            entries = value.data
        else:
            coeffs = [_dense(c) for c in coeffs] or [np.zeros((d, d), dtype=complex)]
            stack = np.array(coeffs).reshape(len(coeffs), d * d)
            value = stack[0].reshape(d, d).copy()
            entries = value.reshape(-1)
        values.append(value)
        if not poly.is_constant():
            table = np.ones((times.size, len(stack)), dtype=complex)
            for m, mono in enumerate(poly.terms):
                v = table[:, m]
                for name, p, q in mono.entries:
                    if p:
                        v *= samples[name] ** p
                    if q:
                        v *= samples[name].conj() ** q
            # np.dot rounds a (1,)·(1, nnz) product differently from matmul
            contract = _blas_entry(entries.nbytes) if len(stack) > 1 else np.matmul
            updates.append((i, contract, table, stack, entries, None))
    return _Compiled(values, updates)


def _ring_size(nbytes: int) -> int:
    """How many states of ``nbytes`` each :func:`_rk4` diagnoses as one
    block: as many as 256 KiB holds, from 1 to 32."""
    return min(32, max(1, 262144 // nbytes))


def _blas_entry(nbytes: int) -> Callable:
    """The numpy entry point of a BLAS product that writes ``nbytes``:
    ``np.dot``'s C function (``_dot``) when that is no more than a state
    that fills the whole ring (:func:`_ring_size`; 8 KiB, a density matrix
    up to d = 22), else ``np.matmul``.

    On C-ordered operands, and on a transposed one, both make the same BLAS
    call and write the same bits.  np.dot skips the gufunc's dispatch,
    0.3–0.4 µs a call, which is most of a product at d = 16, but it measured
    slower on larger operands: 15% on a complex product at d = 64, 5–10% on
    a stage-value rewrite of 4096 entries and on an RK4 contraction of a
    state that size.  It also copies a strided operand, so callers pass
    it only C-ordered and transposed arrays.
    """
    return _dot if _ring_size(nbytes) == 32 else np.matmul


def _product(m) -> Callable[[np.ndarray, np.ndarray], None]:
    """The product with a dense or CSR matrix m (a value of
    :func:`_compile`), chosen once per matrix: a callable ``(x, out)``
    writing m @ x, bitwise, for a dense C-ordered vector or matrix x into
    the C-ordered buffer out.

    A dense m is ``np.dot`` (``_dot``) with m bound, whatever its size: on the
    Schrödinger stage's matrix-vector product it makes matmul's BLAS call,
    and it measured no slower than ``np.matmul`` from d = 16 to 1024.  A
    CSR m calls the kernel that ``csr_array.__matmul__`` itself calls
    (:func:`_csr_accumulator`), which accumulates into out, so out is
    zeroed first.
    """
    if isinstance(m, np.ndarray):
        return partial(_dot, m)
    accumulate = _csr_accumulator(m)

    def product(x, out):
        out.fill(0)
        accumulate(x, out)
    return product


def _csr_accumulator(m, data=None) -> Callable[[np.ndarray, np.ndarray], None]:
    """A callable ``(x, out)`` doing out += m @ x, for a C-ordered vector or
    matrix x and a C-ordered out, with scipy's own ``csr_matvec`` or
    ``csr_matvecs``, bound here once.  ``data`` stands in for m's values
    on m's pattern when given; the callable reads m's arrays, or data, as
    they are at each call."""
    from scipy.sparse._sparsetools import csr_matvec, csr_matvecs

    n_row, n_col = m.shape
    pattern = (m.indptr, m.indices, m.data if data is None else data)

    def accumulate(x, out):
        if x.ndim == 1:
            csr_matvec(n_row, n_col, *pattern, x, out)
        else:
            csr_matvecs(n_row, n_col, x.shape[1], *pattern, x.ravel(), out.ravel())
    return accumulate


def _readers(observables: Mapping[str, Operator] | None, pure: bool) -> dict[str, Callable]:
    """Each observable's reader (:func:`_observable`), by name."""
    return {name: _observable(op.matrix, pure) for name, op in (observables or {}).items()}


def _observable(matrix, pure: bool) -> Callable[[np.ndarray], complex]:
    """A reader of the observable A = ``matrix``, dense or CSR, on its
    nonzero pattern: ψ†Aψ of a state vector when ``pure``, else Tr(ρA) of
    a C-ordered density matrix, each one gather and one dot over the
    nnz(A) entries.  The gather buffers are allocated here, once."""
    rows, cols, vals = _entries(matrix)
    taken = np.empty(vals.size, dtype=complex)
    if pure:
        left = np.empty_like(taken)

        def read(psi):
            np.take(psi, rows, out=left)
            np.multiply(vals, np.take(psi, cols, out=taken), out=taken)
            return np.vdot(left, taken)
    else:
        # Tr(ρA) pairs A[r, c] with ρ[c, r]
        flat = cols * matrix.shape[0] + rows

        def read(rho):
            return np.dot(vals, np.take(rho.reshape(-1), flat, out=taken))
    return read


def _rk4(
    rhs: Callable[[np.ndarray], tuple[Callable, Callable]],
    y: np.ndarray,
    times: Sequence[float],
    space: HilbertSpace,
    readers: Mapping[str, Callable[[np.ndarray], complex]] | None,
    store_states: bool,
    drift_tol: float,
    leak_threshold: float | None,
) -> SimulationResult:
    """Fixed-step classical RK4 for a state vector (norm drift) or a
    density matrix (trace drift), recording the diagnostics and
    observables at every grid point.

    ``times`` must be a 1-d grid of finite, strictly increasing times,
    else a ValueError.  Its steps hₖ are one subtraction, which the check
    reads and the run reuses; a NaN step fails the check, and so does an
    infinite time, whose steps may all be positive.

    ``rhs(half)`` compiles the generator on the 2n − 1 stage times
    ``half`` = [t₀, t₀ + 0.5·h₀, t₁, …, tₙ₋₁] and returns ``(rewrite, f)``:
    ``rewrite(i)`` moves it to ``half[i]``, and ``f(y, out)`` writes dy/dt
    there into out, which is never y.  Step k computes k1 at 2k, rewrites
    at 2k + 1 for k2 and k3 and at 2k + 2 for k4 and the next k1, so each
    stage time is sampled and rewritten once.  The integrators' ``rhs``
    returns :meth:`_Compiled.rewriter`, one closure over the compiled
    updates, so a rewrite makes its contractions and conjugates with no
    lookup or loop around them.  ``readers`` maps each
    observable's name to its reader on its nonzero pattern
    (:func:`_readers`), which the integrators build, so no dense
    observable reaches the run.

    The compile comes first, before anything state-sized is allocated
    here: an integrator's ``rhs`` takes the run's only reference to its
    model and lets it go once it is compiled, so the RK4 workspace is
    allocated beside the compiled values and the stage's buffers alone.

    The run's state and its four slopes are the rows (y, k1, k2, k3, k4)
    of one (5, …) buffer, allocated once with the stage input and a ring
    of the last B states: :func:`_ring_size` (y.nbytes), min(32, max(1,
    256 KiB // y.nbytes)), or the grid's point count when that is less;
    the caller's y is copied into row 0 and never written, and this frame
    drops it there.  Every RK4 linear combination
    is one real contraction over the float view of some of those rows:
    (1, c) over rows (0, j) for the stage inputs y + (h/2)·k1,
    y + (h/2)·k2 and y + h·k3, and (1, h/6, h/3, h/3, h/6) over all five
    for the update, three views of one buffer of nine.  The coefficients
    are written from hₖ only at a step
    whose hₖ differs from the last one written; an equal hₖ would write
    the same bits.  The update is written straight into the ring's next
    slot and copied from there into row 0; at B = 1 the ring is a view of
    the stage input.  The
    contiguous contractions, over rows (0, 1) and over all five, go
    through ``np.dot`` when :func:`_ring_size` is 32 (:func:`_blas_entry`)
    and through ``np.matmul`` otherwise; rows (0, 2) and (0, 3) are strided, which
    np.dot would copy, so they always take ``np.matmul``.  Both make one
    BLAS call with the same bits, which sums each contraction in its own
    order, so a state agrees with the written-out combination to
    rounding, not bit for bit.  The entry points, the ring's slots (each
    as a state and as the floats the update writes) and the last step's
    index are bound before the loop, and grid point 0 goes into the ring
    there, so the loop makes its calls in order with little else.  Each
    full ring, and the last part of one, is diagnosed and read as one
    block (:func:`_diagnose`).  Stored states are copies.  The result's
    ``final`` is the stage-input buffer, which the last state is copied
    into once the last block has passed its check, when the stage input,
    and at B = 1 the ring, are dead; so a kept result holds one state,
    not the slopes, and the run allocates no state for it.

    The first grid point of a block with a non-finite diagnostic, drift
    beyond ``drift_tol`` or leak beyond ``leak_threshold`` (None only
    records the leak) aborts with IntegrationError, checked in that order,
    with that point's time and value; the steps after it are discarded.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 1:
        raise ValueError("times must be a strictly increasing 1-d grid")
    h = times[1:] - times[:-1]  # np.diff's subtraction
    # a NaN step fails h > 0; an infinite time, whose steps may all be positive, fails isfinite
    if not (np.isfinite(times).all() and (h > 0).all()):
        raise ValueError("times must be a strictly increasing 1-d grid")
    pure = y.ndim == 1
    drift_message = "norm drift exceeds tolerance" if pure else "trace drift exceeds tolerance"
    leak_limit = math.inf if leak_threshold is None else leak_threshold
    readers = readers or {}
    masks = _leak_masks(space)

    n_steps = times.size
    drift = np.empty(n_steps)
    pur = np.empty(n_steps)
    leak = np.empty(n_steps)
    expect = {name: np.empty(n_steps, dtype=complex) for name in readers}
    states = [] if store_states else None

    def check(k, block):  # record grid points k, k + 1, …; raise at the first failure
        end = k + len(block)
        d, p, lk = _diagnose(masks, block)
        drift[k:end], pur[k:end], leak[k:end] = d, p, lk
        for name, read in readers.items():
            expect[name][k:end] = [read(state) for state in block]
        if states is not None:
            states.extend(block.copy())
        # written so that NaN fails every comparison
        bad = ~(np.isfinite(p) & np.isfinite(lk) & (d <= drift_tol) & (lk <= leak_limit))
        if bad.any():
            i = int(bad.argmax())
            d, p, lk, t = float(d[i]), float(p[i]), float(lk[i]), times[k + i]
            for value in (d, p, lk):
                if not math.isfinite(value):
                    raise IntegrationError("non-finite state", t, value)
            if not d <= drift_tol:
                raise IntegrationError(drift_message, t, d)
            raise IntegrationError("truncation leak exceeds threshold", t, lk)

    half = np.empty(2 * n_steps - 1)
    half[0::2], half[1::2] = times, times[:-1] + 0.5 * h
    # an overflow surfaces as a non-finite diagnostic, which check reports
    with np.errstate(over="ignore", invalid="ignore"):
        rewrite, f = rhs(half)
        rewrite(0)
        # y and k1…k4 are the rows of one buffer, allocated once the
        # compile's temporaries are freed; each RK4 combination is a real
        # contraction of some of its rows, viewed as floats, into the stage
        # input ys
        stacked = np.empty((5,) + y.shape, dtype=complex)
        stacked[0] = y
        y, (k1, k2, k3, k4) = stacked[0], stacked[1:]
        rows = stacked.reshape(5, -1).view(float)
        y_k1, y_k2, y_k3 = rows[0:2], rows[0:3:2], rows[0:4:3]
        ys = np.empty_like(y)
        ys_flat = ys.reshape(-1).view(float)
        coefficients = np.ones(9)
        c_half, c_full, c_step = coefficients[:2], coefficients[2:4], coefficients[4:]
        # the last B states, diagnosed together; each step's update is
        # written into its slot and copied into row 0.  At B = 1 the ring is
        # a view of the stage input, which the update overwrites anyway.  A
        # grid shorter than the ring fills only its first slots
        B = min(_ring_size(y.nbytes), n_steps)
        ring = np.empty((B,) + y.shape, dtype=complex) if B > 1 else ys[None]
        # each slot as the state it holds and as the floats the update writes
        slots = list(zip(ring, ring.reshape(B, -1).view(float)))
        # rows (0, 2) and (0, 3) are strided, which np.dot would copy
        contract, matmul, copyto = _blas_entry(y.nbytes), np.matmul, _copyto
        ring[0] = y
        last = n_steps - 2
        if B == 1 or last < 0:
            check(0, ring[:1])
        h_written = None
        for k in range(n_steps - 1):  # step k takes y to grid point k + 1
            hk = h[k]
            if hk != h_written:  # the same hₖ writes the same coefficients
                h_written = hk
                c_half[1], c_full[1] = 0.5 * hk, hk
                c_step[1] = c_step[4] = hk / 6.0
                c_step[2] = c_step[3] = hk / 3.0
            f(y, k1)
            contract(c_half, y_k1, out=ys_flat)
            rewrite(2 * k + 1)
            f(ys, k2)
            matmul(c_half, y_k2, out=ys_flat)
            f(ys, k3)
            matmul(c_full, y_k3, out=ys_flat)
            rewrite(2 * k + 2)
            f(ys, k4)
            slot = (k + 1) % B
            state, update = slots[slot]
            contract(c_step, rows, out=update)
            copyto(y, state)
            if slot == B - 1 or k == last:
                check(k + 1 - slot, ring[:slot + 1])

    # the stage input, and at B = 1 the ring, are dead once the last check
    # has passed, so the final state is copied into that buffer
    np.copyto(ys, y)
    return SimulationResult(times, expect, drift, pur, leak, states, ys)


def _lindblad_polys(g: SLHTriple) -> list[OpPolynomial]:
    """[K, L₁, …, L_c]: K = -iH - ½Σᵢ Lᵢ†Lᵢ by the polynomial algebra
    over the couplings that are not identically zero, then those."""
    live = [Lp for Lp in g.L if not Lp.is_zero()]
    K = OpPolynomial._sum([g.H.scale(-1j)] + [(Lp.dagger() * Lp).scale(-0.5) for Lp in live])
    return [K] + live


def _compiled_lindblad(
    g: SLHTriple, bindings: Bindings | None,
) -> Callable[[np.ndarray], tuple[Callable, Callable]]:
    """The generator of :func:`lindblad_rhs` in the compiled form that
    :func:`_rk4` takes: K = -iH - ½ΣL†L is summed once, over the couplings
    that are not identically zero (:func:`_lindblad_polys`), and each stage
    computes Kρ + ρK† + Σᵢ Lᵢ(ρLᵢ†) with no Hermiticity shortcut, so the
    map is the reference's for any matrix ρ.

    ``rhs(half)`` compiles K and each L once on the stage times ``half``,
    all dense or all CSR (:func:`_compile`), and returns the values'
    ``rewrite`` beside the stage ``(ρ, out)`` of that format, which never
    checks it again.  It is called once: it takes g and lets go of the
    triple, K and the couplings once they are compiled, so when the
    caller has handed over its only reference to g, the compiled values
    are all that is left of the model.  Each value M (M = K, L₁…L_c)
    rewrites its conjugate entries M̄ into one flat buffer of its own, the
    size of its stored entries (:meth:`_Compiled.conjugate_into`), so each
    right product ρM† of a stage is read from a product with M̄.  out is
    never zeroed.

    - Dense: each right product ρM̄ᵀ, with M̄ᵀ a transposed view of M̄'s
      buffer that BLAS reads without a copy, is one 2-D product into the
      ``right`` buffer, which every M reuses in turn.  out ← Kρ, then out
      += ρK†, so a closed triple rounds only the two products and their
      sum; each Lᵢ(ρLᵢ†) then goes through the scratch matrix.  Every
      product takes the entry point of :func:`_blas_entry`, ``np.dot`` up
      to d = 22.  So the stage holds two d×d buffers beside the
      conjugates, whatever the number of couplings.
    - CSR: each M̄ holds its conjugate entries on M's pattern, and each
      product is the kernel of :func:`_csr_accumulator`, which multiplies
      only into the rows of a C-ordered operand.  So ρᵀ is copied to the
      scratch matrix, and each M̄ρᵀ, whose transpose is ρM†, is formed in
      turn in one block buffer from zero.  out ← ρK†, and the kernel
      accumulates Kρ onto it, then each Lᵢ(ρLᵢ†), entry by entry; ρLᵢ† is
      copied out of the block into a third buffer, except for the last
      coupling's, which overwrites ρᵀ.  So the stage holds two d×d buffers,
      and three from two live couplings on.

    The stage's buffers are allocated once per run, after the model is
    let go, so a stage allocates nothing and they never sit beside the
    dense triple or K.
    """

    model = [g]  # the triple's one reference here, which rhs takes

    def rhs(half):
        # K and the couplings go with the list once they are compiled, so
        # the model is gone before the buffers below are allocated
        compiled = _compile(_lindblad_polys(model.pop()), bindings, half)
        Km, *Ls = compiled.values
        d = Km.shape[0]
        conjugates = [np.empty(_values(m).size, dtype=complex) for m in compiled.values]
        compiled.conjugate_into(conjugates)
        scratch = np.empty((d, d), dtype=complex)
        if isinstance(Km, np.ndarray):
            dot = _blas_entry(scratch.nbytes)
            right = np.empty((d, d), dtype=complex)
            K_bar, *L_bars = (c.reshape(d, d).T for c in conjugates)
            couplings = list(zip(L_bars, Ls))

            def dense(rho, out):
                dot(rho, K_bar, out=right)
                dot(Km, rho, out=out)
                out += right
                for L_bar, L in couplings:
                    dot(rho, L_bar, out=right)
                    dot(L, right, out=scratch)
                    out += scratch
            return compiled.rewriter(), dense

        K_bar, *L_bars = map(_csr_accumulator, compiled.values, conjugates)
        K_times, *L_times = map(_csr_accumulator, compiled.values)
        block = np.empty((d, d), dtype=complex)
        # each ρLᵢ† is written to a third buffer, but the last coupling's
        # overwrites ρᵀ, which nothing reads after it
        spare = np.empty((d, d), dtype=complex) if len(Ls) > 1 else None
        couplings = list(zip(L_bars, L_times, [spare] * (len(Ls) - 1) + [scratch]))

        def csr(rho, out):
            np.copyto(scratch, rho.T)
            block.fill(0)
            K_bar(scratch, block)
            np.copyto(out, block.T)
            K_times(rho, out)
            for L_bar, L, right in couplings:
                block.fill(0)
                L_bar(scratch, block)
                np.copyto(right, block.T)
                L(right, out)
        return compiled.rewriter(), csr

    return rhs


def _initial(state: QuantumState | np.ndarray, space: HilbertSpace, pure: bool) -> np.ndarray:
    """The initial state of a run on ``space``: a QuantumState's vector
    (``pure``) or its density matrix, or an array of that shape, (d,) or
    (d, d), with finite entries.  Anything else is a ValueError that names
    the shape."""
    d = space.total_dim
    if pure:
        shape, need = (d,), "Schrodinger integration needs a pure state"
    else:
        shape, need = (d, d), "master-equation integration needs a density matrix"
    if isinstance(state, QuantumState):
        y = state.vector if pure else state.density()
    else:
        y = np.asarray(state, dtype=complex)
        if y.shape == shape and not np.isfinite(y).all():
            raise ValueError("initial state has a non-finite entry")
    if y.shape != shape:
        raise ValueError(f"{need} of shape {shape}, got one of shape {y.shape}")
    return y


def integrate_master(
    g: SLHTriple,
    rho0: QuantumState | np.ndarray,
    times: Sequence[float],
    bindings: Bindings | None = None,
    observables: Mapping[str, Operator] | None = None,
    store_states: bool = False,
    drift_tol: float = DEFAULT_TRACE_TOL,
    leak_threshold: float | None = DEFAULT_LEAK_THRESHOLD,
) -> SimulationResult:
    """Fixed-step RK4 on the vacuum-input master equation.

    The generator is compiled once per run (:func:`_compiled_lindblad`):
    K = -iH - ½ΣL†L and the couplings that are not identically zero are
    stacked once, each on its union nonzero pattern, all CSR or all dense
    by the rule of :func:`_compile`, and the stage of that format computes
    Kρ + ρK† + Σᵢ Lᵢ(ρLᵢ†), the map of :func:`lindblad_rhs`, with every
    right product ρM† taken, one M at a time, from a product with the
    conjugate M̄.  ρ is always dense.
    ``rho0`` is a QuantumState, whose density matrix starts the run, or a
    (d, d) array with finite entries, which may be mixed; any other shape
    is a ValueError (:func:`_initial`).  The run aborts (IntegrationError)
    when a diagnostic is not finite, the trace drifts beyond ``drift_tol``
    or the truncation leak exceeds ``leak_threshold``; pass
    ``leak_threshold=None`` to only record the leak.

    This frame keeps none of its model: each observable becomes its
    reader at once, the triple goes to the generator, which lets it go
    once it is compiled, and ρ₀ is made from ``rho0`` and copied into the
    run's own state, which drops it.  So when the caller hands over its
    only references, as the command line does, the dense triple, K, the
    observables and ρ₀ are freed before the RK4 workspace is allocated;
    a caller that keeps g keeps its arrays, and the run does not change.
    """
    space, readers = g.space, _readers(observables, pure=False)
    rhs = _compiled_lindblad(g, bindings)
    del g, observables  # rhs holds the triple until it has compiled it
    return _rk4(rhs, _initial(rho0, space, pure=False), times, space, readers,
                store_states, drift_tol, leak_threshold)


def integrate_schrodinger(
    H: OpPolynomial,
    psi0: QuantumState | np.ndarray,
    times: Sequence[float],
    bindings: Bindings | None = None,
    observables: Mapping[str, Operator] | None = None,
    store_states: bool = False,
    drift_tol: float = DEFAULT_TRACE_TOL,
    leak_threshold: float | None = DEFAULT_LEAK_THRESHOLD,
) -> SimulationResult:
    """Fixed-step RK4 on dpsi/dt = -i H(t) psi; norm drift is reported,
    never corrected.  ``psi0`` is a QuantumState or a (d,) array with
    finite entries; a density matrix or a vector of another length is a
    ValueError that says the equation needs a pure state (:func:`_initial`).
    An H that is not formally self-adjoint within ``DEFAULT_TOL`` is a
    ValueError too, for a library caller; the command line refuses such a
    triple earlier, with ``network.validate_triple``.

    -iH is compiled once per run on the stage times, dense or CSR by the
    rule of :func:`_compile`, and the stage is its :func:`_product`, one
    matrix-vector product.  As in :func:`integrate_master`, H and the
    observables are let go once they are compiled, so an H whose only
    reference the caller handed over is freed before -iH is stacked.
    """
    if not H.adjoint_gap() <= DEFAULT_TOL:  # NaN fails
        raise ValueError("H is not formally self-adjoint")
    space, psi = H.space, _initial(psi0, H.space, pure=True)
    readers = _readers(observables, pure=True)
    model = [H]  # H's one reference here, which rhs takes
    del H, observables

    def rhs(half):
        # H goes once -iH is formed, and -iH with the list once it is compiled
        compiled = _compile([model.pop().scale(-1j)], bindings, half)
        return compiled.rewriter(), _product(compiled.values[0])

    return _rk4(rhs, psi, times, space, readers, store_states, drift_tol, leak_threshold)


def output_expectation(
    g: SLHTriple,
    result: SimulationResult,
    t: float,
    bindings: Bindings | None = None,
) -> np.ndarray:
    """Vacuum-input output-field expectations <b_out,i(t)> = <L_i(t)>.

    Scalar signal parts of L contribute additively; a pure signal adder
    therefore returns the signal itself.  The stored states and the grid
    point are checked first; then a coupling that is identically zero, as
    every one of a cancelled chain is, reads exactly 0j with nothing
    evaluated, and any other reads Tr(ρ L(t)) from its value at t.
    """
    if result.states is None:
        raise ValueError("simulation result has no stored states")
    k = int(np.abs(result.times - t).argmin())
    if abs(result.times[k] - t) > 1e-9:
        raise ValueError(f"t={t} is not on the simulation grid")
    state = result.states[k]
    out = np.zeros(g.channels, dtype=complex)
    live = [(i, Lp) for i, Lp in enumerate(g.L) if not Lp.is_zero()]
    if live:
        rho = np.outer(state, state.conj()) if state.ndim == 1 else state
        for i, Lp in live:
            out[i] = np.trace(rho @ Lp.evaluate(t, bindings).matrix)
    return out


# -- analytic oracle ------------------------------------------------------


def analytic_driven_cavity(
    omega0: complex,
    gamma: float,
    u: Callable[[float], complex],
    t: float,
) -> complex:
    """Coherent amplitude reached from vacuum by the driven oscillator

        alpha(t) = -(sqrt(gamma)/2) * integral_0^t exp(-i omega0 (t-s)) u(s) ds

    evaluated by adaptive quadrature to absolute and relative tolerance
    1e-10; an error estimate above 1e-7 raises RuntimeError.  A complex
    ``omega0 = w0 - i*gamma/2`` gives the damped cavity.
    """
    tol = 1e-10
    if t == 0.0:
        return 0.0

    def integrand_re(s):
        return (np.exp(-1j * omega0 * (t - s)) * complex(u(s))).real

    def integrand_im(s):
        return (np.exp(-1j * omega0 * (t - s)) * complex(u(s))).imag

    from scipy.integrate import quad

    re, err_re = quad(integrand_re, 0.0, t, epsabs=tol, epsrel=tol, limit=500)
    im, err_im = quad(integrand_im, 0.0, t, epsabs=tol, epsrel=tol, limit=500)
    if max(err_re, err_im) > 1e3 * tol:
        raise RuntimeError(f"quadrature did not converge (err {max(err_re, err_im):.2e})")
    return -0.5 * math.sqrt(gamma) * complex(re, im)
