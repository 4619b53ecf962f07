"""States, generators, integrators, and the analytic driven-cavity oracle."""

import math
import re
import warnings

import numpy as np
import pytest

from slhforge import (
    ComplexExponentialSignal,
    ConstantSignal,
    GaussianPulseSignal,
    HilbertSpace,
    IntegrationError,
    Operator,
    OpPolynomial,
    QuantumState,
    SLHTriple,
    SampledSignal,
    analytic_driven_cavity,
    annihilator,
    cavity,
    coherent_fidelity,
    coherent_vector,
    expectation,
    heisenberg_generator,
    integrate_master,
    integrate_schrodinger,
    lindblad_rhs,
    number_op,
    output_expectation,
    purity,
    series,
    signal_adder,
    system_coupling,
    trace_distance,
)
from slhforge.dynamics import _compiled_lindblad
from conftest import (
    random_bindings,
    random_density,
    random_hermitian,
    random_matrix,
    random_triple,
)


# -- states ----------------------------------------------------------------


def test_state_validation():
    sp = HilbertSpace.generic("q", 2)
    with pytest.raises(ValueError):
        QuantumState(sp)
    with pytest.raises(ValueError):
        QuantumState(sp, vector=[1.0, 1.0])
    with pytest.raises(ValueError):
        QuantumState(sp, rho=np.eye(2))  # trace 2
    with pytest.raises(ValueError):
        QuantumState(sp, rho=np.array([[1.0, 1.0], [0.0, 0.0]]))  # not Hermitian
    with pytest.raises(ValueError):
        QuantumState(sp, rho=np.diag([1.5, -0.5]))  # negative eigenvalue


def test_vacuum_and_fock_states():
    sp = HilbertSpace([HilbertSpace.fock("a", 2).factors[0], HilbertSpace.fock("b", 1).factors[0]])
    vac = QuantumState.vacuum(sp)
    assert vac.is_pure and vac.vector[0] == 1.0
    st = QuantumState.fock(sp, {"a": 1, "b": 1})
    n_a = number_op(sp, "a")
    n_b = number_op(sp, "b")
    assert expectation(n_a, st) == pytest.approx(1.0)
    assert expectation(n_b, st) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        QuantumState.fock(sp, {"a": 5})
    with pytest.raises(ValueError):
        QuantumState.fock(sp, 1)  # bare int needs a single factor


def test_coherent_amplitudes_match_the_poisson_form():
    cutoff = 25
    sp = HilbertSpace.fock("c", cutoff)
    alpha = 0.8 - 0.3j
    v = coherent_vector(sp, alpha)
    want = np.array(
        [alpha**n / math.sqrt(math.factorial(n)) for n in range(cutoff + 1)]
    )
    want = want / np.linalg.norm(want)
    assert np.allclose(v, want, atol=1e-12)
    st = QuantumState.coherent(sp, alpha)
    a = annihilator(sp, "c")
    assert expectation(a, st) == pytest.approx(alpha, abs=1e-10)


def test_coherent_vector_needs_a_unique_fock_factor():
    sp = HilbertSpace.generic("q", 3)
    with pytest.raises(ValueError):
        coherent_vector(sp, 1.0)


def test_density_and_purity(rng):
    sp = HilbertSpace.generic("q", 3)
    rho = random_density(rng, 3)
    st = QuantumState(sp, rho=rho)
    assert not st.is_pure
    assert purity(st) == pytest.approx(float(np.real(np.trace(rho @ rho))))
    x = Operator(sp, random_matrix(rng, 3))
    assert expectation(x, st) == pytest.approx(complex(np.trace(rho @ x.matrix)))


def test_trace_distance_extremes():
    rho = np.diag([1.0, 0.0])
    sigma = np.diag([0.0, 1.0])
    assert trace_distance(rho, sigma) == pytest.approx(1.0)
    assert trace_distance(rho, rho) == pytest.approx(0.0)


def test_coherent_fidelity_of_itself():
    sp = HilbertSpace.fock("c", 20)
    st = QuantumState.coherent(sp, 0.7 + 0.2j)
    assert coherent_fidelity(st, 0.7 + 0.2j) == pytest.approx(1.0)
    assert coherent_fidelity(st.density(), 0.7 + 0.2j, space=sp) == pytest.approx(1.0)


# -- generators ------------------------------------------------------------


def test_qubit_decay_matches_the_exponential_law():
    """SYS(sqrt(gamma) sigma-) relaxes the excited population as exp(-gamma t)."""
    gamma = 0.7
    sp = HilbertSpace.fock("q", 1)
    sm = annihilator(sp, "q")
    g = system_coupling([np.sqrt(gamma) * sm], sp)
    times = np.linspace(0.0, 2.0, 201)
    excited = QuantumState.fock(sp, 1)
    res = integrate_master(g, excited, times, observables={"n": number_op(sp, "q")},
                           leak_threshold=None)
    assert np.allclose(res.expectations["n"].real, np.exp(-gamma * times), atol=1e-8)


def test_generator_duality_single_instance(rng):
    g = random_triple(rng, 3, 2, signals=["u"])
    binds = random_bindings(rng, ["u"])
    rho = random_density(rng, 3)
    X = random_matrix(rng, 3)
    t = 0.4
    H = g.H.evaluate(t, binds).matrix
    Ls = [e.evaluate(t, binds).matrix for e in g.L]
    lhs = np.trace(lindblad_rhs(rho, g, t, binds) @ X)
    rhs = np.trace(rho @ heisenberg_generator(X, H, Ls))
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_c_number_coupling_acts_as_a_drive():
    """A pure signal coupling u*I shifts dynamics exactly like the
    Hamiltonian Im(conj(u) I ...) would: on a 1-dim check, rhs is zero."""
    sp = HilbertSpace.fock("c", 2)
    g = signal_adder(["u"], sp)
    rho = QuantumState.vacuum(sp).density()
    out = lindblad_rhs(rho, g, 0.0, {"u": ConstantSignal("u", 2.0)})
    # L = u I: L rho L† - ½{L†L, rho} = |u|² (rho - rho) = 0
    assert np.max(np.abs(out)) < 1e-14


# -- integrators -----------------------------------------------------------


def test_schrodinger_phase_evolution():
    sp = HilbertSpace.fock("c", 3)
    omega = 1.3
    H = OpPolynomial.constant(omega * number_op(sp, "c"))
    psi0 = np.zeros(4, dtype=complex)
    psi0[0] = psi0[1] = 1.0 / np.sqrt(2.0)
    times = np.linspace(0.0, 2.0, 2001)
    res = integrate_schrodinger(H, QuantumState(sp, vector=psi0), times,
                                observables={"a": annihilator(sp, "c")})
    want = 0.5 * np.exp(-1j * omega * times)
    assert np.max(np.abs(res.expectations["a"] - want)) < 1e-9
    assert np.max(res.drift) < 1e-10


def test_schrodinger_rejects_bad_input(rng):
    sp = HilbertSpace.generic("q", 2)
    H = OpPolynomial.constant(Operator(sp, random_matrix(rng, 2)))
    vac = QuantumState.vacuum(sp)
    with pytest.raises(ValueError, match="self-adjoint"):
        integrate_schrodinger(H, vac, [0.0, 0.1])
    good = OpPolynomial.constant(Operator(sp, np.diag([0.0, 1.0])))
    mixed = QuantumState(sp, rho=np.diag([0.5, 0.5]))
    with pytest.raises(ValueError, match="pure"):
        integrate_schrodinger(good, mixed, [0.0, 0.1])
    with pytest.raises(ValueError, match="increasing"):
        integrate_schrodinger(good, vac, [0.1, 0.0])


def test_master_reports_trace_and_purity():
    sp = HilbertSpace.fock("q", 1)
    g = system_coupling([annihilator(sp, "q")], sp)
    times = np.linspace(0.0, 5.0, 501)
    res = integrate_master(g, QuantumState.fock(sp, 1), times)
    assert np.max(res.drift) < 1e-10
    # decay through the mixed regime and back toward the pure ground state
    assert np.min(res.purity) < 0.6 and res.purity[-1] > 0.9


def test_leak_abort_fires():
    sp = HilbertSpace.fock("c", 2)
    g = cavity(sp, "c", gamma=0.0, omega=1.0)
    # a coherent state at this tiny cutoff already has sizable top-level
    # population, so the leak guard trips immediately
    st = QuantumState.coherent(sp, 1.0)
    with pytest.raises(IntegrationError, match="leak"):
        integrate_master(g, st, np.linspace(0.0, 1.0, 11))
    res = integrate_master(g, st, np.linspace(0.0, 1.0, 11), leak_threshold=None)
    assert np.max(res.leak) > 0.1


def test_non_finite_state_aborts_even_without_leak_threshold():
    # a 1e200 drive on a damped mode overflows within the first steps;
    # NaN compares false against every tolerance, so it needs its own check
    sp = HilbertSpace.fock("c", 4)
    g = series(system_coupling([annihilator(sp, "c")], sp), signal_adder(["u"], sp))
    binds = {"u": ConstantSignal("u", 1e200)}
    times = np.linspace(0.0, 0.003, 4)
    # |u|^2 already overflows in the compiled generator; the abort, not a
    # numpy warning, reports it, at the end of the first step
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegrationError, match="non-finite") as exc:
            integrate_master(g, QuantumState.vacuum(sp), times, binds, leak_threshold=None)
        assert exc.value.t == times[1]
        with pytest.raises(IntegrationError, match="non-finite") as exc:
            integrate_schrodinger(OpPolynomial.constant(1e200 * number_op(sp, "c")),
                                  QuantumState.fock(sp, 1), times, leak_threshold=None)
        assert exc.value.t == times[1]


def test_stored_states_and_output_expectation():
    sp = HilbertSpace.fock("c", 2)
    u = ConstantSignal("u", 0.3 - 0.1j)
    g = signal_adder(["u"], sp)
    times = np.linspace(0.0, 1.0, 11)
    res = integrate_master(g, QuantumState.vacuum(sp), times, {"u": u},
                           store_states=True)
    out = output_expectation(g, res, 0.5, {"u": u})
    # a bare signal adder's output is the signal itself
    assert out[0] == pytest.approx(0.3 - 0.1j)
    with pytest.raises(ValueError):
        output_expectation(g, res, 0.123, {"u": u})  # off the grid
    res2 = integrate_master(g, QuantumState.vacuum(sp), times, {"u": u})
    with pytest.raises(ValueError, match="stored"):
        output_expectation(g, res2, 0.5, {"u": u})


def test_result_csv_format():
    sp = HilbertSpace.fock("c", 3)
    H = OpPolynomial.constant(number_op(sp, "c"))
    res = integrate_schrodinger(H, QuantumState.vacuum(sp), [0.0, 0.5, 1.0],
                                observables={"n": number_op(sp, "c")})
    text = res.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "t,n,trace_drift,purity,leak"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "0.000000000000e+00"
    assert all(len(cell.split("e")) == 2 for cell in first)


def test_result_csv_splits_complex_observables():
    sp = HilbertSpace.fock("c", 3)
    H = OpPolynomial.constant(number_op(sp, "c"))
    psi0 = np.zeros(4, dtype=complex)
    psi0[0] = psi0[1] = 1.0 / np.sqrt(2.0)
    res = integrate_schrodinger(H, QuantumState(sp, vector=psi0),
                                np.linspace(0.0, 1.0, 101),
                                observables={"a": annihilator(sp, "c")})
    header = res.to_csv().split("\n", 1)[0]
    assert header == "t,a_re,a_im,trace_drift,purity,leak"


# -- compiled generators against the reference -----------------------------


def _stage_times(times):
    """RK4 stage times in the order a classic driver visits them."""
    for t, t_next in zip(times[:-1], times[1:]):
        h = t_next - t
        yield from (t, t + 0.5 * h, t + 0.5 * h, t + h)


def _classic_rk4(f, y, times):
    """Textbook RK4 of dy/dt = f(y, t), returning every state on the grid."""
    states = [y]
    for t, t_next in zip(times[:-1], times[1:]):
        h = t_next - t
        k1 = f(y, t)
        k2 = f(y + 0.5 * h * k1, t + 0.5 * h)
        k3 = f(y + 0.5 * h * k2, t + 0.5 * h)
        k4 = f(y + h * k3, t + h)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states.append(y)
    return states


def _reference_case(rng, case):
    """A random three-level triple and its bindings: signal parts in L and
    a u·conj(u) term in H, unless the case says otherwise."""
    if case == "constant":
        return random_triple(rng, 3, 2), {}
    g = random_triple(rng, 3, 3 if case == "signals_3ch" else 2, signals=["u"])
    sp = g.space
    u = OpPolynomial.of_signal(sp, "u")
    H = g.H + u * u.dagger() * OpPolynomial.constant(random_hermitian(rng, sp, 0.7))
    L = (OpPolynomial.zero(sp),) + g.L[1:] if case == "zero_L" else g.L
    g = SLHTriple(g.S, L, H)
    if case == "sampled":
        values = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        return g, {"u": SampledSignal("u", np.linspace(0.0, 0.2, 7), values)}
    return g, {"u": ComplexExponentialSignal("u", 0.8 - 0.3j, 2.1, 0.4)}


@pytest.mark.parametrize("case", ["signals_2ch", "signals_3ch", "constant", "zero_L", "sampled"])
def test_compiled_integrators_match_the_reference(rng, case):
    g, binds = _reference_case(rng, case)
    times = np.linspace(0.0, 0.2, 21)
    rho0 = random_density(rng, 3)
    # drift is checked elsewhere; here only agreement with the reference counts
    res = integrate_master(g, rho0, times, binds, store_states=True, trace_tol=1.0)
    want = _classic_rk4(lambda rho, t: lindblad_rhs(rho, g, t, binds), rho0, times)
    assert max(np.max(np.abs(a - b)) for a, b in zip(res.states, want)) < 1e-12

    psi0 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    psi0 /= np.linalg.norm(psi0)
    res = integrate_schrodinger(g.H, psi0, times, binds, store_states=True, norm_tol=1.0)
    want = _classic_rk4(lambda psi, t: -1j * g.H.evaluate(t, binds).matrix @ psi, psi0, times)
    assert max(np.max(np.abs(a - b)) for a, b in zip(res.states, want)) < 1e-12


def test_compiled_lindblad_matches_the_reference_on_any_matrix(rng):
    g, binds = _reference_case(rng, "signals_2ch")
    X = random_matrix(rng, 3)  # neither Hermitian nor of unit trace
    t = 0.37
    f = _compiled_lindblad(g, binds)(np.full((1, 3), t))
    assert np.max(np.abs(f(X, 0, 1) - lindblad_rhs(X, g, t, binds))) < 1e-12


def test_compiled_generators_need_every_signal_bound(rng):
    g, _ = _reference_case(rng, "signals_2ch")
    times = np.linspace(0.0, 0.1, 11)
    with pytest.raises(KeyError, match="unbound signal 'u'"):
        integrate_master(g, random_density(rng, 3), times)
    with pytest.raises(KeyError, match="unbound signal 'u'"):
        integrate_schrodinger(g.H, QuantumState.vacuum(g.space), times)


def test_grid_past_a_sampled_table_fails_before_the_first_step(rng):
    g, _ = _reference_case(rng, "signals_2ch")
    binds = {"u": SampledSignal("u", [0.0, 0.1], [1.0, 2.0])}
    times = np.linspace(0.0, 0.2, 21)
    first_outside = next(t for t in _stage_times(times) if t > 0.1)
    message = f"signal 'u': t={first_outside} outside sampled horizon [0.0, 0.1]"
    # a negative trace tolerance would abort the run at t=0, on its first
    # record, so only a check made before that can raise the table's error
    with pytest.raises(ValueError, match=re.escape(message)):
        integrate_master(g, random_density(rng, 3), times, binds, trace_tol=-1.0)


# -- analytic oracle -------------------------------------------------------


def test_oracle_constant_drive_without_detuning():
    # omega0 = 0, constant u: alpha(t) = -(sqrt(gamma)/2) u t
    gamma, u0, t = 0.4, 0.7 - 0.2j, 2.5
    alpha = analytic_driven_cavity(0.0, gamma, lambda s: u0, t)
    assert alpha == pytest.approx(-0.5 * np.sqrt(gamma) * u0 * t, abs=1e-9)


def test_oracle_resonant_drive():
    # u(s) = exp(-i omega0 s) makes the integrand constant:
    # alpha(t) = -(sqrt(gamma)/2) t exp(-i omega0 t)
    gamma, omega0, t = 0.9, 1.7, 3.0
    alpha = analytic_driven_cavity(omega0, gamma, lambda s: np.exp(-1j * omega0 * s), t)
    want = -0.5 * np.sqrt(gamma) * t * np.exp(-1j * omega0 * t)
    assert alpha == pytest.approx(want, abs=1e-9)


def test_oracle_at_time_zero():
    assert analytic_driven_cavity(1.0, 1.0, lambda s: 1.0, 0.0) == 0.0


def test_oracle_matches_schrodinger_on_a_short_run():
    """Cross-check the two independent routes on a small driven cavity."""
    gamma, omega0, cutoff = 0.4, 1.0, 12
    sp = HilbertSpace.fock("c", cutoff)
    a = annihilator(sp, "c")
    u = GaussianPulseSignal("u", amplitude=1.0, center=1.0, width=0.3)
    L = OpPolynomial.constant(np.sqrt(gamma) * a)
    H = OpPolynomial.constant(omega0 * number_op(sp, "c")) + (
        L.dagger() * OpPolynomial.of_signal(sp, "u")
    ).imag()
    times = np.linspace(0.0, 2.0, 2001)
    res = integrate_schrodinger(H, QuantumState.vacuum(sp), times, {"u": u},
                                observables={"a": a})
    alpha = analytic_driven_cavity(omega0, gamma, u, 2.0)
    assert abs(res.expectations["a"][-1] - alpha) < 1e-6
