"""Quantum noise cancellation by feedback.

Routing the field through the system twice with a sign-flipped coupling
and a pair of opposite displacements cancels the stochastic coupling
entirely: the seven-component chain reduces to a closed system whose
Hamiltonian gains the bilinear control term 2 Im(L†u).

    python3 demos/02_noise_cancellation.py
"""

import numpy as np

from slhforge import (
    GaussianPulseSignal,
    HilbertSpace,
    OpPolynomial,
    QuantumState,
    annihilator,
    build_cancellation_chain,
    cancellation_chain_components,
    integrate_master,
    number_op,
    triple_summary,
)

gamma, omega0, cutoff = 0.4, 1.0, 12
space = HilbertSpace.fock("c", cutoff)
a = annihilator(space, "c")
L = np.sqrt(gamma) * a
H0 = omega0 * number_op(space, "c")

print("chain, downstream-first:")
for g in cancellation_chain_components([L], H0, ["u"], space):
    print("   ", triple_summary(g))

chain = build_cancellation_chain([L], H0, ["u"], space)
print("\nreduced:", triple_summary(chain))
print("couplings exactly zero:", all(entry.is_zero() for entry in chain.L))

expected_H = OpPolynomial.constant(H0) + 2.0 * (
    OpPolynomial.constant(L.dagger()) * OpPolynomial.of_signal(space, "u")
).imag()
print("H == H0 + 2 Im(L^dag u):", chain.H.max_coeff_diff(expected_H) < 1e-13)

# dynamics: driven from vacuum, the chain stays pure and emits nothing
u = GaussianPulseSignal("u", amplitude=0.6, center=1.0, width=0.3)
times = np.linspace(0.0, 2.0, 2001)
res = integrate_master(chain, QuantumState.vacuum(space), times, {"u": u},
                       observables={"n": number_op(space, "c")})
print("\nafter the pulse:")
print("  <n>(T)      =", float(res.expectations["n"][-1].real))
print("  purity drift =", float(np.max(np.abs(res.purity - 1.0))))
print("  trace drift  =", float(np.max(res.drift)))
