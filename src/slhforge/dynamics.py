"""Time evolution of composed triples and the supporting observables.

Master-equation integration assumes vacuum input; coherent drives enter
structurally through signal-adding components inside the network, never
through a separate input-state parameter, so the integrator has a single
code path.  Integration is fixed-step classical RK4 and neither trace
nor norm is renormalized: drift is reported as a diagnostic so that
integrator bugs cannot hide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np
from scipy.integrate import quad

from .hilbert import FOCK, HilbertSpace, Operator
from .network import SLHTriple
from .signals import Bindings, OpPolynomial

DEFAULT_TRACE_TOL = 1e-6
DEFAULT_LEAK_THRESHOLD = 1e-6


class IntegrationError(RuntimeError):
    """Aborted integration; carries the offending time and diagnostic."""

    def __init__(self, message: str, t: float, value: float):
        super().__init__(f"{message} at t={t:.6g} (value {value:.3e})")
        self.t = t
        self.value = value


# -- states ---------------------------------------------------------------


class QuantumState:
    """Pure (unit vector) or mixed (density matrix) state on a space."""

    __slots__ = ("space", "vector", "rho")

    def __init__(self, space: HilbertSpace, vector=None, rho=None):
        if (vector is None) == (rho is None):
            raise ValueError("give exactly one of vector or rho")
        self.space = space
        d = space.total_dim
        if vector is not None:
            vector = np.asarray(vector, dtype=complex).reshape(d)
            norm = np.linalg.norm(vector)
            if abs(norm - 1.0) > 1e-10:
                raise ValueError(f"pure state norm {norm} is not 1 within 1e-10")
            self.vector = vector
            self.rho = None
        else:
            rho = np.asarray(rho, dtype=complex)
            if rho.shape != (d, d):
                raise ValueError("density matrix shape mismatch")
            if abs(np.trace(rho) - 1.0) > 1e-10:
                raise ValueError("density matrix trace is not 1 within 1e-10")
            if np.max(np.abs(rho - rho.conj().T)) > 1e-10:
                raise ValueError("density matrix is not Hermitian within 1e-10")
            if np.min(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))) < -1e-8:
                raise ValueError("density matrix has eigenvalue below -1e-8")
            self.vector = None
            self.rho = rho

    @property
    def is_pure(self) -> bool:
        return self.vector is not None

    def density(self) -> np.ndarray:
        if self.is_pure:
            return np.outer(self.vector, self.vector.conj())
        return self.rho

    @classmethod
    def vacuum(cls, space: HilbertSpace) -> "QuantumState":
        v = np.zeros(space.total_dim, dtype=complex)
        v[0] = 1.0
        return cls(space, vector=v)

    @classmethod
    def fock(cls, space: HilbertSpace, occupations: Mapping[str, int] | int) -> "QuantumState":
        """Product Fock state; a bare int addresses a single-factor space."""
        if isinstance(occupations, int):
            if len(space.factors) != 1:
                raise ValueError("bare occupation number needs a single-factor space")
            occupations = {space.factors[0].label: occupations}
        index = 0
        for f in space.factors:
            n = occupations.get(f.label, 0)
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
        fock_labels = [f.label for f in space.factors if f.kind == FOCK]
        if len(fock_labels) != 1:
            raise ValueError("mode label required when the space has != 1 Fock factor")
        mode = fock_labels[0]
    f = space.factor(mode)
    if f.kind != FOCK:
        raise ValueError(f"factor {mode!r} is not a Fock factor")
    alpha = complex(alpha)
    amps = np.zeros(f.dim, dtype=complex)
    term = 1.0 + 0.0j
    amps[0] = term
    for n in range(1, f.dim):
        term = term * alpha / math.sqrt(n)
        amps[n] = term
    amps /= np.linalg.norm(amps)
    if len(space.factors) == 1:
        return amps
    v = np.zeros(space.total_dim, dtype=complex)
    pos = space.factor_position(mode)
    stride = math.prod(fd.dim for fd in space.factors[pos + 1 :])
    for n in range(f.dim):
        v[n * stride] = amps[n]
    return v


# -- observables ----------------------------------------------------------


def expectation(op: Operator, state: QuantumState | np.ndarray) -> complex:
    if isinstance(state, QuantumState):
        if state.is_pure:
            return complex(state.vector.conj() @ op.matrix @ state.vector)
        state = state.rho
    return complex(np.trace(state @ op.matrix))


def purity(state: QuantumState | np.ndarray) -> float:
    if isinstance(state, QuantumState):
        if state.is_pure:
            return 1.0
        state = state.rho
    return float(np.real(np.trace(state @ state)))


def coherent_fidelity(state: QuantumState | np.ndarray, alpha: complex,
                      space: HilbertSpace | None = None, mode: str | None = None) -> float:
    """<alpha| rho |alpha> with the truncated, renormalized coherent state."""
    if isinstance(state, QuantumState):
        space = state.space
        if state.is_pure:
            v = coherent_vector(space, alpha, mode)
            return float(abs(v.conj() @ state.vector) ** 2)
        rho = state.rho
    else:
        if space is None:
            raise ValueError("space required for a bare density matrix")
        rho = state
    v = coherent_vector(space, alpha, mode)
    return float(np.real(v.conj() @ rho @ v))


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    eigs = np.linalg.eigvalsh(rho - sigma)
    return 0.5 * float(np.sum(np.abs(eigs)))


# -- generators -----------------------------------------------------------


def lindblad_rhs(rho: np.ndarray, g: SLHTriple, t: float,
                 bindings: Bindings | None = None) -> np.ndarray:
    """State-picture generator: -i[H, rho] + sum_i (L rho L† - ½{L†L, rho}).

    Scalar signal parts of L enter as multiples of the identity and are
    never special-cased; a c-number shift of L is dynamically equivalent
    to a Hamiltonian shift, which is exactly how signal-adding components
    act on the composed model.
    """
    H = g.H.evaluate(t, bindings).matrix
    out = -1j * (H @ rho - rho @ H)
    for Lp in g.L:
        L = Lp.evaluate(t, bindings).matrix
        if not np.any(L):
            continue
        Ld = L.conj().T
        LdL = Ld @ L
        out = out + L @ rho @ Ld - 0.5 * (LdL @ rho + rho @ LdL)
    return out


def heisenberg_generator(X: np.ndarray, H: np.ndarray, Ls: Sequence[np.ndarray]) -> np.ndarray:
    """Heisenberg-picture Lindbladian ½ΣL†[X,L] + ½Σ[L†,X]L - i[X,H].

    Kept textually independent of :func:`lindblad_rhs`; the two are
    related by trace duality and tested against each other.
    """
    out = -1j * (X @ H - H @ X)
    for L in Ls:
        Ld = L.conj().T
        out = out + 0.5 * (Ld @ (X @ L - L @ X)) + 0.5 * ((Ld @ X - X @ Ld) @ L)
    return out


# -- simulation -----------------------------------------------------------


@dataclass
class SimulationResult:
    """Trajectory on a time grid with per-step diagnostics.

    ``drift`` is |trace(rho) - 1| for master runs and the norm deviation
    for pure-state runs; ``leak`` is the summed population of the top
    two levels of the worst Fock factor.
    """

    times: np.ndarray
    expectations: dict[str, np.ndarray] = field(default_factory=dict)
    drift: np.ndarray | None = None
    purity: np.ndarray | None = None
    leak: np.ndarray | None = None
    states: list | None = None

    def index_of(self, t: float) -> int:
        idx = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[idx] - t) > 1e-9:
            raise ValueError(f"t={t} is not on the simulation grid")
        return idx

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


def _fock_leak(space: HilbertSpace, probs: np.ndarray) -> float:
    """Max over Fock factors of the top-two-level marginal population.

    Factors with fewer than three levels carry no meaningful truncation
    signal and contribute zero.  A NaN marginal is kept, not dropped.
    """
    dims = space.dims
    grid = probs.reshape(dims)
    leak = 0.0
    for i, f in enumerate(space.factors):
        if f.kind != FOCK or f.dim < 3:
            continue
        marginal = grid.sum(axis=tuple(j for j in range(len(dims)) if j != i))
        value = float(marginal[-1] + marginal[-2])
        if math.isnan(value) or value > leak:
            leak = value
    return leak


def _diagnose(space: HilbertSpace, y: np.ndarray) -> tuple[float, float, float]:
    """(drift, purity, leak) of a state vector or a density matrix."""
    if y.ndim == 1:
        return abs(float(np.linalg.norm(y)) - 1.0), 1.0, _fock_leak(space, np.abs(y) ** 2)
    drift = abs(float(np.real(np.trace(y))) - 1.0)
    pur = float(np.real(np.trace(y @ y)))
    return drift, pur, _fock_leak(space, np.real(np.diag(y)))


def _rk4(
    rhs: Callable[[np.ndarray, float], np.ndarray],
    y: np.ndarray,
    times: Sequence[float],
    space: HilbertSpace,
    observables: Mapping[str, Operator] | None,
    store_states: bool,
    drift_tol: float,
    leak_threshold: float | None,
) -> SimulationResult:
    """Fixed-step classical RK4 of dy/dt = rhs(y, t) for a state vector
    (norm drift) or a density matrix (trace drift), recording the
    diagnostics and observables at every grid point.

    Aborts with IntegrationError on a non-finite diagnostic, on drift
    beyond ``drift_tol``, or on leak beyond ``leak_threshold`` (None
    only records the leak).
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 1 or np.any(np.diff(times) <= 0):
        raise ValueError("times must be a strictly increasing 1-d grid")
    pure = y.ndim == 1
    drift_message = "norm drift exceeds tolerance" if pure else "trace drift exceeds tolerance"
    observables = observables or {}

    n_steps = times.size
    drift = np.empty(n_steps)
    pur = np.empty(n_steps)
    leak = np.empty(n_steps)
    expect = {name: np.empty(n_steps, dtype=complex) for name in observables}
    states = [] if store_states else None

    def record(k, y):
        d, p, lk = _diagnose(space, y)
        drift[k], pur[k], leak[k] = d, p, lk
        for name, op in observables.items():
            expect[name][k] = y.conj() @ op.matrix @ y if pure else np.trace(y @ op.matrix)
        if states is not None:
            states.append(y.copy())
        t = times[k]
        for value in (d, p, lk):
            if not math.isfinite(value):
                raise IntegrationError("non-finite state", t, value)
        # written so that NaN fails the comparison
        if not d <= drift_tol:
            raise IntegrationError(drift_message, t, d)
        if leak_threshold is not None and not lk <= leak_threshold:
            raise IntegrationError("truncation leak exceeds threshold", t, lk)

    record(0, y)
    for k in range(n_steps - 1):
        t = times[k]
        h = times[k + 1] - t
        k1 = rhs(y, t)
        k2 = rhs(y + 0.5 * h * k1, t + 0.5 * h)
        k3 = rhs(y + 0.5 * h * k2, t + 0.5 * h)
        k4 = rhs(y + h * k3, t + h)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        record(k + 1, y)

    return SimulationResult(times, expect, drift, pur, leak, states)


def integrate_master(
    g: SLHTriple,
    rho0: QuantumState | np.ndarray,
    times: Sequence[float],
    bindings: Bindings | None = None,
    observables: Mapping[str, Operator] | None = None,
    store_states: bool = False,
    trace_tol: float = DEFAULT_TRACE_TOL,
    leak_threshold: float | None = DEFAULT_LEAK_THRESHOLD,
) -> SimulationResult:
    """Fixed-step RK4 on the vacuum-input master equation.

    H and the L entries are evaluated at every internal stage time.  The
    run aborts (IntegrationError) when a diagnostic is not finite, the
    trace drifts beyond ``trace_tol`` or the truncation leak exceeds
    ``leak_threshold``; pass ``leak_threshold=None`` to only record the
    leak.
    """
    if isinstance(rho0, QuantumState):
        rho = rho0.density().copy()
    else:
        rho = np.asarray(rho0, dtype=complex).copy()

    def rhs(rho, t):
        return lindblad_rhs(rho, g, t, bindings)

    return _rk4(rhs, rho, times, g.space, observables, store_states,
                trace_tol, leak_threshold)


def integrate_schrodinger(
    H: OpPolynomial,
    psi0: QuantumState | np.ndarray,
    times: Sequence[float],
    bindings: Bindings | None = None,
    observables: Mapping[str, Operator] | None = None,
    store_states: bool = False,
    norm_tol: float = DEFAULT_TRACE_TOL,
    leak_threshold: float | None = DEFAULT_LEAK_THRESHOLD,
) -> SimulationResult:
    """Fixed-step RK4 on dpsi/dt = -i H(t) psi; norm drift is reported,
    never corrected.
    """
    if not H.dagger().approx_equal(H, 1e-10):
        raise ValueError("H is not formally self-adjoint")
    if isinstance(psi0, QuantumState):
        if not psi0.is_pure:
            raise ValueError("Schrodinger integration needs a pure state")
        psi = psi0.vector.copy()
    else:
        psi = np.asarray(psi0, dtype=complex).copy()

    has_signals = bool(H.signals())
    H0_mat = None if has_signals else H.evaluate(0.0, bindings).matrix

    def rhs(psi, t):
        mat = H0_mat if H0_mat is not None else H.evaluate(t, bindings).matrix
        return -1j * (mat @ psi)

    return _rk4(rhs, psi, times, H.space, observables, store_states,
                norm_tol, leak_threshold)


def output_expectation(
    g: SLHTriple,
    result: SimulationResult,
    t: float,
    bindings: Bindings | None = None,
) -> np.ndarray:
    """Vacuum-input output-field expectations <b_out,i(t)> = <L_i(t)>.

    Scalar signal parts of L contribute additively; a pure signal adder
    therefore returns the signal itself.
    """
    if result.states is None:
        raise ValueError("simulation result has no stored states")
    idx = result.index_of(t)
    state = result.states[idx]
    if state.ndim == 1:
        rho = np.outer(state, state.conj())
    else:
        rho = state
    out = np.empty(g.channels, dtype=complex)
    for i, Lp in enumerate(g.L):
        out[i] = np.trace(rho @ Lp.evaluate(t, bindings).matrix)
    return out


# -- analytic oracle ------------------------------------------------------


def analytic_driven_cavity(
    omega0: float,
    gamma: float,
    u: Callable[[float], complex],
    t: float,
    tol: float = 1e-10,
) -> complex:
    """Coherent amplitude reached from vacuum by the driven oscillator

        alpha(t) = -(sqrt(gamma)/2) * integral_0^t exp(-i omega0 (t-s)) u(s) ds

    evaluated by adaptive quadrature (absolute tolerance ``tol``).
    """
    if t == 0.0:
        return 0.0

    def integrand_re(s):
        return (np.exp(-1j * omega0 * (t - s)) * complex(u(s))).real

    def integrand_im(s):
        return (np.exp(-1j * omega0 * (t - s)) * complex(u(s))).imag

    re, err_re = quad(integrand_re, 0.0, t, epsabs=tol, epsrel=tol, limit=500)
    im, err_im = quad(integrand_im, 0.0, t, epsabs=tol, epsrel=tol, limit=500)
    if max(err_re, err_im) > 1e3 * tol:
        raise RuntimeError(f"quadrature did not converge (err {max(err_re, err_im):.2e})")
    return -0.5 * math.sqrt(gamma) * complex(re, im)
