"""Shared helpers for the test suite: random-object builders and a reader
for the constant term of a polynomial.

Every builder takes an explicit numpy Generator so failures reproduce
from the seed printed by pytest.
"""

import numpy as np
import pytest

from slhforge import (
    HilbertSpace,
    Operator,
    OpPolynomial,
    SLHTriple,
    ConstantSignal,
    SignalMonomial,
)


def random_matrix(rng, dim, scale=1.0):
    return scale * (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))


def random_operator(rng, space, scale=1.0):
    return Operator(space, random_matrix(rng, space.total_dim, scale))


def random_hermitian(rng, space, scale=1.0):
    m = random_matrix(rng, space.total_dim, scale)
    return Operator(space, 0.5 * (m + m.conj().T))


def random_unitary(rng, n):
    """Haar-ish unitary from the QR decomposition of a Ginibre matrix."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_poly(rng, space, signals=(), scale=1.0):
    """Random polynomial: constant term plus one term per signal name."""
    p = OpPolynomial.constant(random_operator(rng, space, scale))
    for name in signals:
        p = p + OpPolynomial.of_signal(space, name, random_operator(rng, space, scale))
    return p


def random_triple(rng, dim, channels, signals=(), label="q"):
    """Random component: c-number unitary scattering, random couplings,
    random self-adjoint Hamiltonian; signal terms mixed in when asked."""
    space = HilbertSpace.generic(label, dim)
    T = random_unitary(rng, channels)
    L = tuple(random_poly(rng, space, signals, scale=0.7) for _ in range(channels))
    h = random_poly(rng, space, signals, scale=0.7)
    H = h.imag() + OpPolynomial.constant(random_hermitian(rng, space, 0.7))
    return SLHTriple(T, L, H)


def constant_term(p):
    """The signal-free coefficient of p as an Operator; zero when p has none."""
    m = p.terms.get(SignalMonomial())
    d = p.space.total_dim
    return Operator(p.space, m if m is not None else np.zeros((d, d)))


def random_bindings(rng, names):
    return {
        name: ConstantSignal(name, complex(rng.standard_normal(), rng.standard_normal()))
        for name in names
    }


def random_density(rng, dim):
    m = random_matrix(rng, dim)
    rho = m @ m.conj().T
    return rho / np.trace(rho)


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)
