"""Reference oracles for the test suite.

These are written against the public ``slhforge`` names only, and share
no code with the compiled generator or the reduction they check, so a
fault in the library cannot hide in the oracle too.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from slhforge import DEFAULT_TOL, Bindings, Operator, OpPolynomial, SLHTriple


def dense(m) -> np.ndarray:
    """A matrix of the library as a dense array: a dense one itself, and a
    CSR one, the storage form from ``SPARSE_MIN_DIM`` on, by its toarray()."""
    return m.toarray() if hasattr(m, "toarray") else m


# -- generators -----------------------------------------------------------


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


# -- comparison -----------------------------------------------------------


def approx_equal(a, b, tol: float = DEFAULT_TOL) -> bool:
    """Whether two Operators, or two OpPolynomials, agree coefficient by
    coefficient within tol (max-abs norm); a NaN entry fails, and two
    spaces that differ raise ValueError."""
    if isinstance(a, Operator):
        a, b = OpPolynomial.constant(a), OpPolynomial.constant(b)
    return a.max_coeff_diff(b) <= tol


def triples_approx_equal(
    g1: SLHTriple,
    g2: SLHTriple,
    tol: float = DEFAULT_TOL,
    probe_times: Sequence[float] = (0.0,),
    probe_bindings: Bindings | None = None,
) -> tuple[bool, str]:
    """Compare two triples: T entrywise within tol, then L and H by exact
    canonical comparison first and (for entries that differ symbolically)
    numerically at the probe times.
    Returns (equal, report); the report names the first differing entry.
    """
    if g1.channels != g2.channels:
        return False, f"channel counts differ: {g1.channels} vs {g2.channels}"
    if g1.space != g2.space:
        return False, "spaces differ"
    n = g1.channels
    for i in range(n):
        for j in range(n):
            diff = abs(g1.T[i, j] - g2.T[i, j])
            if not diff <= tol:  # NaN fails
                return False, f"S[{i}][{j}] differs by {diff:.3e}"
    entries = [(f"L[{i}]", g1.L[i], g2.L[i]) for i in range(n)]
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
