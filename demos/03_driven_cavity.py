"""Steering a cavity from vacuum with a classical drive.

Under H(t) = omega0 n + Im(L^dag u(t)) with L = sqrt(gamma) a, vacuum is
displaced along the coherent amplitude

    alpha(t) = -(sqrt(gamma)/2) * int_0^t exp(-i omega0 (t-s)) u(s) ds

and can only ever reach coherent states.  The run compares the
integrated trajectory against that quadrature oracle.

    python3 demos/03_driven_cavity.py
"""

import numpy as np

from slhforge import (
    GaussianPulseSignal,
    HilbertSpace,
    OpPolynomial,
    QuantumState,
    analytic_driven_cavity,
    annihilator,
    coherent_vector,
    integrate_schrodinger,
    number_op,
)

gamma, omega0, cutoff = 0.4, 1.0, 40
space = HilbertSpace.fock("c", cutoff)
a = annihilator(space, "c")
u = GaussianPulseSignal("u", amplitude=4.0, center=3.0, width=0.5)

L = OpPolynomial.constant(np.sqrt(gamma) * a)
H = OpPolynomial.constant(omega0 * number_op(space, "c")) + (
    L.dagger() * OpPolynomial.of_signal(space, "u")
).imag()

times = np.linspace(0.0, 10.0, 10001)
res = integrate_schrodinger(H, QuantumState.vacuum(space), times, {"u": u},
                            observables={"a": a})

print(" t     |<a>|     |alpha|   deviation")
for t in np.arange(0.0, 10.5, 1.0):
    alpha = analytic_driven_cavity(omega0, gamma, u, float(t))
    got = res.expectations["a"][int(np.abs(times - t).argmin())]
    print(f"{t:4.1f}   {abs(got):7.4f}   {abs(alpha):7.4f}   {abs(got - alpha):.2e}")

alpha_T = analytic_driven_cavity(omega0, gamma, u, 10.0)
fid = abs(np.vdot(coherent_vector(space, alpha_T), res.final)) ** 2
print(f"\nfidelity with |alpha(10)> : 1 - {1.0 - fid:.2e}")
print(f"norm drift                : {float(np.max(res.drift)):.2e}")
