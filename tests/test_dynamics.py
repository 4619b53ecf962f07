"""States, generators, integrators, and the analytic driven-cavity oracle."""

import json
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import sparse
from scipy.integrate import solve_ivp

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
    Signal,
    analytic_driven_cavity,
    annihilator,
    build_cancellation_chain,
    cavity,
    coherent_fidelity,
    coherent_vector,
    identity,
    integrate_master,
    integrate_schrodinger,
    lindblad_rhs,
    number_op,
    output_expectation,
    pure_hamiltonian,
    series,
    signal_adder,
    system_coupling,
    trace_distance,
)
from slhforge import cli, dynamics
from slhforge.dynamics import _compile, _compiled_lindblad
from slhforge.hilbert import DEFAULT_TOL
from slhforge.network import InvalidTripleError, validate_triple
from slhforge.signals import ONE
from slhforge.netlist import compile_netlist, parse_netlist
from conftest import (
    random_bindings,
    random_density,
    random_hermitian,
    random_matrix,
    random_triple,
)
from reference import dense, heisenberg_generator


# -- states ----------------------------------------------------------------


def test_state_validation():
    sp = HilbertSpace.generic("q", 2)
    with pytest.raises(ValueError):
        QuantumState(sp)
    with pytest.raises(ValueError):
        QuantumState(sp, vector=[1.0, 1.0])


def _nan_diagonal():
    rho = np.diag([0.5, 0.5, 0.0]).astype(complex)
    rho[2, 2] = np.nan
    return {"rho": rho}


def _inf_pair():
    rho = np.diag([0.5, 0.25, 0.25]).astype(complex)
    rho[0, 1] = rho[1, 0] = np.inf
    return {"rho": rho}


@pytest.mark.parametrize("state", [
    {"vector": [1.0, np.nan, 0.0]},
    {"vector": [1.0, 0.0, np.inf]},
    _nan_diagonal(),
    _inf_pair(),
    {"rho": np.full((3, 3), np.nan)},
], ids=["nan_vector", "inf_vector", "nan_diagonal", "inf_off_diagonal_pair", "all_nan_rho"])
def test_state_rejects_a_non_finite_entry(state):
    # a pure state is a QuantumState; a mixed one is an array that
    # integrate_master checks before it integrates
    sp = HilbertSpace.generic("q", 3)
    with pytest.raises(ValueError, match="non-finite entry"):
        if "vector" in state:
            QuantumState(sp, **state)
        else:
            integrate_master(pure_hamiltonian(OpPolynomial.zero(sp), sp), state["rho"],
                             [0.0, 0.1])


@pytest.mark.parametrize("vector", [[[1.0, 0.0, 0.0]], [1.0, 0.0], [[1.0], [0.0], [0.0]],
                                    1.0, [1.0, 0.0, 0.0, 0.0]],
                         ids=["row", "short", "column", "scalar", "long"])
def test_pure_state_of_the_wrong_shape_is_rejected_not_reshaped(vector):
    with pytest.raises(ValueError, match="^pure state shape mismatch$"):
        QuantumState(HilbertSpace.fock("c", 2), vector=vector)


def test_vacuum_and_fock_states():
    sp = HilbertSpace([HilbertSpace.fock("a", 2).factors[0], HilbertSpace.fock("b", 1).factors[0]])
    vac = QuantumState.vacuum(sp)
    assert vac.vector[0] == 1.0
    st = QuantumState.fock(sp, {"a": 1, "b": 1})
    n_a = number_op(sp, "a").matrix
    n_b = number_op(sp, "b").matrix
    assert np.vdot(st.vector, n_a @ st.vector) == pytest.approx(1.0)
    assert np.vdot(st.vector, n_b @ st.vector) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        QuantumState.fock(sp, {"a": 5})
    with pytest.raises(ValueError):
        QuantumState.fock(sp, 1)  # bare int needs a single factor
    with pytest.raises(ValueError, match="no factor labeled 'typo' in"):
        QuantumState.fock(sp, {"typo": 1})
    with pytest.raises(ValueError, match="no factor labeled 'typo' in"):
        QuantumState.fock(sp, {"a": 1, "typo": 0})  # even at occupation 0
    assert QuantumState.fock(sp, {"b": 1}).vector[1] == 1.0  # a factor left out is at 0


def test_fock_takes_python_and_numpy_integers():
    sp = HilbertSpace.fock("c", 2)
    want = QuantumState.fock(sp, 1).vector
    for n in (np.int64(1), np.int32(1), np.uint8(1)):
        assert np.array_equal(QuantumState.fock(sp, n).vector, want)
        assert np.array_equal(QuantumState.fock(sp, {"c": n}).vector, want)


@pytest.mark.parametrize("occupations", [{"c": 1.5}, {"c": 1.0}, 1.0, np.float64(1.0), "1"],
                         ids=["float_in_map", "integral_float_in_map", "bare_float",
                              "bare_numpy_float", "bare_string"])
def test_fock_rejects_a_non_integer_occupation_naming_its_factor(occupations):
    sp = HilbertSpace.fock("c", 2)
    with pytest.raises(ValueError, match=r"^occupation .* for factor 'c' is not an integer$"):
        QuantumState.fock(sp, occupations)


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
    a = annihilator(sp, "c").matrix
    assert np.vdot(st.vector, a @ st.vector) == pytest.approx(alpha, abs=1e-10)


def test_coherent_vector_needs_a_unique_fock_factor():
    sp = HilbertSpace.generic("q", 3)
    with pytest.raises(ValueError):
        coherent_vector(sp, 1.0)


@pytest.mark.parametrize("alpha, message", [
    (complex("nan"), "is not finite"),
    (complex(0.0, float("inf")), "is not finite"),
    (1e200, "norm is not finite"),
], ids=["nan", "infinite", "norm_overflows"])
def test_coherent_vector_rejects_a_non_finite_state(alpha, message):
    sp = HilbertSpace.fock("c", 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            coherent_vector(sp, alpha)


def test_density_and_purity(rng):
    # a run reads its initial state's purity and observables by the trace formulas
    sp = HilbertSpace.generic("q", 3)
    rho = random_density(rng, 3)
    x = Operator(sp, random_matrix(rng, 3))
    still = pure_hamiltonian(OpPolynomial.zero(sp), sp)
    res = integrate_master(still, rho, [0.0, 0.1], observables={"x": x})
    assert res.purity[0] == pytest.approx(float(np.real(np.trace(rho @ rho))))
    assert res.expectations["x"][0] == pytest.approx(complex(np.trace(rho @ x.matrix)))


def test_trace_distance_extremes():
    rho = np.diag([1.0, 0.0])
    sigma = np.diag([0.0, 1.0])
    assert trace_distance(rho, sigma) == pytest.approx(1.0)
    assert trace_distance(rho, rho) == pytest.approx(0.0)


def test_coherent_fidelity_of_itself():
    sp = HilbertSpace.fock("c", 20)
    st = QuantumState.coherent(sp, 0.7 + 0.2j)
    assert coherent_fidelity(st, 0.7 + 0.2j) == pytest.approx(1.0)


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
    mixed = np.diag([0.5, 0.5])
    with pytest.raises(ValueError, match="pure"):
        integrate_schrodinger(good, mixed, [0.0, 0.1])
    with pytest.raises(ValueError, match="increasing"):
        integrate_schrodinger(good, vac, [0.1, 0.0])


@pytest.mark.parametrize("two_mode", [False, True], ids=["dense", "d121_csr"])
def test_the_self_adjointness_check_reads_the_distance_to_the_dagger(rng, two_mode):
    # OpPolynomial.adjoint_gap reads H's distance to H† without building
    # H†; it is max_coeff_diff's value on H's monomials paired or not, and NaN
    g, _ = _reference_case(rng, "signals_2ch", two_mode)
    sp, d = g.space, g.space.total_dim
    u = OpPolynomial.of_signal(sp, "u")
    X = OpPolynomial.constant(Operator(sp, random_matrix(rng, d)))
    nan = np.zeros((d, d), dtype=complex)
    nan[0, 1] = np.nan
    polys = [g.H, g.H + (u * X).scale(1e-3), g.L[0], X, OpPolynomial.zero(sp),
             g.H + OpPolynomial.constant(Operator(sp, nan))]
    gaps = [H.adjoint_gap() for H in polys]
    want = [H.dagger().max_coeff_diff(H) for H in polys]
    assert np.array(gaps).tobytes() == np.array(want).tobytes()
    assert gaps[0] == 0.0 and all(gap > 0.0 for gap in gaps[1:4]) and math.isnan(gaps[-1])


# two HAMs, each within DEFAULT_TOL = 1e-10 of self-adjoint; their sum is
# 1.6e-10 from it
TWO_HAMS = """\
space fock(cutoff={cutoff}) as c1
space fock(cutoff={cutoff}) as c2
component H1 = HAM(n(c1) + 4e-11i * I)
component H2 = HAM(n(c2) + 4e-11i * I)
network m = H1 <| H2
"""


@pytest.mark.parametrize("two_mode", [False, True], ids=["dense", "d121_csr"])
@pytest.mark.parametrize("gate", ["validate_triple", "reduce", "pure_hamiltonian",
                                  "integrate_schrodinger"])
def test_every_self_adjointness_gate_reads_the_adjoint_gap(tmp_path, gate, two_mode):
    # validate_triple and reduce --tol pass at tol = the gap and refuse at
    # the float below it; pure_hamiltonian and integrate_schrodinger, at
    # DEFAULT_TOL, refuse an H past it and an H with a NaN entry
    text = TWO_HAMS.format(cutoff=10 if two_mode else 2)
    H = compile_netlist(parse_netlist(text)).triple.H
    sp, gap = H.space, H.adjoint_gap()
    assert gap == H.dagger().max_coeff_diff(H) > DEFAULT_TOL
    below = np.nextafter(gap, 0.0)
    nan = np.zeros((sp.total_dim,) * 2, dtype=complex)
    nan[0, 1] = np.nan
    nan_H = H + OpPolynomial.constant(Operator(sp, nan))
    if gate == "validate_triple":
        def closed(H):
            return SLHTriple(np.eye(1), (OpPolynomial.zero(sp),), H)
        validate_triple(closed(H), tol=gap)
        for bad, tol in ((H, below), (nan_H, math.inf)):
            with pytest.raises(InvalidTripleError, match="^H is not self-adjoint$"):
                validate_triple(closed(bad), tol=tol)
    elif gate == "reduce":
        path, out = tmp_path / "hams.slh", tmp_path / "report.json"
        path.write_text(text)
        for tol, code in ((gap, 0), (below, cli.EXIT_VALIDATE)):
            assert cli.main(["reduce", str(path), "--tol", repr(float(tol)),
                             "-o", str(out)]) == code
            assert json.loads(out.read_text())["validation"]["h_self_adjoint"] is (code == 0)
    else:
        for bad in (H, nan_H):
            with pytest.raises(ValueError, match="self-adjoint"):
                if gate == "pure_hamiltonian":
                    pure_hamiltonian(bad, sp)
                else:
                    integrate_schrodinger(bad, QuantumState.vacuum(sp), [0.0, 0.1])


@pytest.mark.parametrize("integrate, state, message", [
    (integrate_schrodinger, np.diag([1.0, 0, 0, 0, 0]),
     r"^Schrodinger integration needs a pure state of shape \(5,\), got one of shape \(5, 5\)$"),
    (integrate_schrodinger, [1.0, 0.0],
     r"^Schrodinger integration needs a pure state of shape \(5,\), got one of shape \(2,\)$"),
    (integrate_master, np.eye(5)[0],
     r"^master-equation integration needs a density matrix of shape \(5, 5\), "
     r"got one of shape \(5,\)$"),
], ids=["schrodinger_density_matrix", "schrodinger_wrong_length", "master_vector"])
def test_an_initial_state_of_the_wrong_shape_is_refused(integrate, state, message):
    # each integrator takes the one shape of its equation; a density matrix
    # in the Schrodinger equation would integrate d(rho)/dt = -iH rho
    sp = HilbertSpace.fock("c", 4)
    n = OpPolynomial.constant(number_op(sp, "c"))
    generator = n if integrate is integrate_schrodinger else pure_hamiltonian(n, sp)
    with pytest.raises(ValueError, match=message):
        integrate(generator, state, [0.0, 0.1])


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


@pytest.mark.parametrize("pure", [False, True], ids=["master", "schrodinger"])
def test_a_zero_coupling_reads_exactly_zero_without_evaluating(monkeypatch, pure):
    # a cancelled chain's output reads 0j with nothing evaluated, after the
    # stored-state and the on-grid checks, for a density matrix or a vector
    sp = HilbertSpace.fock("c", 3)
    u = GaussianPulseSignal("u", amplitude=0.5, center=0.1, width=0.05)
    g = build_cancellation_chain([np.sqrt(0.4) * annihilator(sp, "c")], number_op(sp, "c"),
                                 ["u"], sp)
    assert all(entry.is_zero() for entry in g.L)
    times = np.linspace(0.0, 0.2, 21)
    run = integrate_schrodinger if pure else integrate_master
    model = g.H if pure else g
    res = run(model, QuantumState.vacuum(sp), times, {"u": u}, store_states=True,
              leak_threshold=None)
    bare = run(model, QuantumState.vacuum(sp), times, {"u": u}, leak_threshold=None)

    def evaluate(*args, **kwargs):
        raise AssertionError("a zero coupling was evaluated")

    monkeypatch.setattr(OpPolynomial, "evaluate", evaluate)
    for t in times[::5]:
        out = output_expectation(g, res, t, {"u": u})
        assert out.dtype == complex and out.tobytes() == np.zeros(1, dtype=complex).tobytes()
    with pytest.raises(ValueError, match="no stored states"):
        output_expectation(g, bare, 0.1, {"u": u})
    with pytest.raises(ValueError, match="not on the simulation grid"):
        output_expectation(g, res, 0.105, {"u": u})


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("at", [0, 1, 2], ids=["first", "middle", "last"])
@pytest.mark.parametrize("pure", [False, True], ids=["master", "schrodinger"])
def test_a_non_finite_time_is_refused_before_the_run(bad, at, pure):
    # a NaN step fails no comparison, and an infinite last time is a
    # positive step, yet neither is a grid point
    sp = HilbertSpace.fock("c", 2)
    H = OpPolynomial.constant(number_op(sp, "c"))
    times = [0.0, 0.1, 0.2]
    times[at] = bad if at or math.isnan(bad) else -bad
    run = integrate_schrodinger if pure else integrate_master
    model = H if pure else SLHTriple(np.eye(1), (OpPolynomial.zero(sp),), H)
    with pytest.raises(ValueError, match="^times must be a strictly increasing 1-d grid$"):
        run(model, QuantumState.vacuum(sp), times)


@pytest.mark.parametrize("two_mode", [False, True], ids=["dense", "d121_csr"])
def test_stored_states_are_copies_of_the_state_updated_in_place(rng, two_mode):
    g, binds = _reference_case(rng, "signals_2ch", two_mode)
    d = g.space.total_dim
    times = np.linspace(0.0, 0.05, 6)
    rho0 = random_density(rng, d)
    kept = rho0.copy()
    psi0 = coherent_vector(g.space, 0.3, "a") if two_mode else np.eye(d)[0].astype(complex)
    runs = [
        (rho0, integrate_master(g, rho0, times, binds, store_states=True, trace_tol=1.0,
                                leak_threshold=None)),
        (psi0, integrate_schrodinger(g.H, psi0, times, binds, store_states=True,
                                     norm_tol=1.0, leak_threshold=None)),
    ]
    assert np.array_equal(rho0, kept)  # the caller's state is not the run's
    for y0, res in runs:
        assert len(res.states) == len(times)
        assert np.array_equal(res.states[0], y0)
        for k, state in enumerate(res.states):
            assert not any(np.shares_memory(state, other) for other in res.states[k + 1:])
            if k:
                assert not np.array_equal(state, res.states[k - 1])
        # the final state is the run's own buffer: the last stored state,
        # bit for bit, in memory the caller does not hold
        assert res.final.tobytes() == res.states[-1].tobytes()
        assert not np.shares_memory(res.final, y0)


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


def _two_mode_triple(rng, channels, signals):
    """A random banded triple on two Fock modes, d = 121, whose H and L
    compile to CSR.  L₁ has a c-number signal part, and H's
    monomials have different nonzero patterns (number operators on the
    diagonal, a†b off it), so each union pattern holds explicit zeros."""
    sp = HilbertSpace([HilbertSpace.fock("a", 10).factors[0],
                       HilbertSpace.fock("b", 10).factors[0]])
    a, b = annihilator(sp, "a"), annihilator(sp, "b")
    hop = a.dagger() @ b

    def c():
        return 0.3 * complex(rng.standard_normal(), rng.standard_normal())

    def const(op):
        return OpPolynomial.constant(op)

    ladders = [a, b, hop]
    L = [const(c() * ladders[i % 3] + c() * ladders[(i + 1) % 3]) for i in range(channels)]
    x = c() * hop
    H = const(0.7 * number_op(sp, "a") + 1.3 * number_op(sp, "b") + x + x.dagger())
    for name in signals:
        u = OpPolynomial.of_signal(sp, name)
        L[0] = L[0] + u.scale(c())
        H = H + (u * const(c() * hop)).imag()
    return SLHTriple(system_coupling(L, sp).T, tuple(L), H)


def _reference_case(rng, case, two_mode=False):
    """A random triple and its bindings: three levels, or two Fock modes
    above the sparse crossover; signal parts in L and a u·conj(u) term in
    H, unless the case says otherwise."""
    channels = 3 if case == "signals_3ch" else 2
    signals = [] if case == "constant" else ["u"]
    g = (_two_mode_triple(rng, channels, signals) if two_mode
         else random_triple(rng, 3, channels, signals=signals))
    if case == "constant":
        return g, {}
    sp = g.space
    u = OpPolynomial.of_signal(sp, "u")
    H = g.H + u * u.dagger() * OpPolynomial.constant(
        number_op(sp, "b") if two_mode else random_hermitian(rng, sp, 0.7))
    L = (OpPolynomial.zero(sp),) + g.L[1:] if case == "zero_L" else g.L
    g = SLHTriple(g.T, L, H)
    if case == "sampled":
        values = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        return g, {"u": SampledSignal("u", np.linspace(0.0, 0.2, 7), values)}
    return g, {"u": ComplexExponentialSignal("u", 0.8 - 0.3j, 2.1, 0.4)}


# -- block diagnostics ---------------------------------------------------------


def _scalar_diagnostics(masks, y):
    """(drift, purity, leak) of one state by the per-state formulas the
    block diagnostics must reproduce bit for bit."""
    if y.ndim == 1:
        drift, pur, probs = abs(float(np.linalg.norm(y)) - 1.0), 1.0, np.abs(y) ** 2
    else:
        drift = abs(float(np.real(np.trace(y))) - 1.0)
        pur = float(np.real(np.einsum("ij,ji->", y, y)))
        probs = np.real(np.diag(y))
    leak = 0.0
    for mask in masks:
        value = float(probs[mask].sum())
        if math.isnan(value) or value > leak:
            leak = value
    return drift, pur, leak


def _fock_space(cutoffs):
    return HilbertSpace([HilbertSpace.fock(f"m{i}", c).factors[0] for i, c in enumerate(cutoffs)])


@pytest.mark.parametrize("space", [HilbertSpace.generic("q", 3), _fock_space([15]),
                                   _fock_space([10, 10])], ids=["d3", "d16", "d121"])
def test_block_diagnostics_match_the_per_state_formulas_bitwise(rng, space):
    d = space.total_dim
    masks = dynamics._leak_masks(space)
    assert bool(masks) == (d > 3)  # a generic factor has no leak mask
    specials = [np.nan, np.inf, -np.inf, complex(np.nan, 1.0), complex(2.0, -np.inf)]
    with np.errstate(invalid="ignore", over="ignore"):
        for draw in range(60):
            n = int(rng.integers(1, 33))
            for shape in ((n, d), (n, d, d)):
                block = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                block *= 10.0 ** rng.uniform(-3.0, 1.0)
                if len(shape) == 3 and draw % 2:
                    block += np.conj(np.swapaxes(block, 1, 2))  # Hermitian
                if len(shape) == 3 and draw % 3 == 0:  # negative populations
                    block[:, range(d), range(d)] = -np.abs(block[:, range(d), range(d)].real)
                if draw % 4 == 0:
                    at = tuple(int(rng.integers(0, s)) for s in shape)
                    block[at] = specials[draw // 4 % len(specials)]
                got = dynamics._diagnose(masks, block)
                want = np.array([_scalar_diagnostics(masks, y) for y in block]).T
                assert np.array(got).tobytes() == want.tobytes(), (shape, draw)


B16 = 32  # the ring of a d=16 state: min(32, 256 KiB // nbytes) for ψ and ρ alike
N_GRID = 2 * B16 + 6  # two full blocks and a partial one
EDGES = [0, 1, B16 - 1, B16, B16 + 1, 2 * B16 - 1, 2 * B16, N_GRID - 1]


def _edge_run(pure, drift_tol, leak_threshold, nan_at=None, store_states=False):
    """An RK4 run on one mode at d=16 whose norm or trace grows and whose
    top level fills, both strictly, so each crosses any threshold set
    between two grid points.  The generator is NaN at stage times
    2·``nan_at`` and the midpoint after it (``i // 2`` of the last
    rewrite i is ``nan_at``); the first is the last stage of the step into
    grid point ``nan_at``, so that step turns the state into NaN (at 0 the
    initial state holds a NaN)."""
    space = _fock_space([15])
    d = space.total_dim
    A = np.zeros((d, d), dtype=complex)
    A[0, -1] = A[-1, 0] = 1.0  # rotates |0> into the top level
    G = 2.0 * np.eye(d) - 1j * A

    def rhs(half):
        at = [None]  # the stage-time index of the last rewrite

        def rewrite(i):
            at[0] = i

        def f(y, out):
            if pure:
                np.matmul(G, y, out=out)
            else:
                np.copyto(out, G @ y + y @ G.conj().T)
            if nan_at is not None and at[0] // 2 == nan_at:
                out.fill(np.nan)
        return rewrite, f

    psi = np.zeros(d, dtype=complex)
    psi[0], psi[-1] = 1.001 * math.cos(0.05), 1.001 * math.sin(0.05)  # drift from t=0
    if nan_at == 0:
        psi[3] = np.nan
    y = psi if pure else np.outer(psi, psi.conj())
    times = np.linspace(0.0, 0.01 * (N_GRID - 1), N_GRID)
    return dynamics._rk4(rhs, y.copy(), times, space, None, store_states, drift_tol,
                         leak_threshold)


def _first_failure(states, times, masks, drift_message, drift_tol, leak_threshold):
    """The IntegrationError the per-step check raises on these states."""
    for t, y in zip(times, states):
        d, p, lk = _scalar_diagnostics(masks, y)
        for value in (d, p, lk):
            if not math.isfinite(value):
                return IntegrationError("non-finite state", t, value)
        if not d <= drift_tol:
            return IntegrationError(drift_message, t, d)
        if leak_threshold is not None and not lk <= leak_threshold:
            return IntegrationError("truncation leak exceeds threshold", t, lk)
    return None


def _between(values, cross):
    return values[0] / 2 if cross == 0 else 0.5 * (values[cross - 1] + values[cross])


@pytest.mark.parametrize("pure", [True, False], ids=["psi", "rho"])
@pytest.mark.parametrize("kind", ["drift", "leak", "both", "nan"])
@pytest.mark.parametrize("cross", EDGES)
def test_block_abort_names_the_first_failing_grid_point(pure, kind, cross):
    free = _edge_run(pure, math.inf, None, store_states=True)
    assert len(free.states) == N_GRID and np.all(np.diff(free.drift) > 0)
    assert np.all(np.diff(free.leak) > 0) and free.drift[0] > 0.0
    drift_tol = _between(free.drift, cross) if kind in ("drift", "both") else math.inf
    leak_threshold = _between(free.leak, cross) if kind in ("leak", "both") else None
    states = free.states
    if kind == "nan":  # every later state stays NaN
        states = states[:cross] + [np.full_like(states[0], np.nan)] * (N_GRID - cross)
    masks = dynamics._leak_masks(_fock_space([15]))
    message = "norm drift exceeds tolerance" if pure else "trace drift exceeds tolerance"
    want = _first_failure(states, free.times, masks, message, drift_tol, leak_threshold)
    assert want is not None and want.t == free.times[cross]
    with pytest.raises(IntegrationError) as exc:
        _edge_run(pure, drift_tol, leak_threshold, nan_at=cross if kind == "nan" else None)
    got = exc.value
    assert str(got) == str(want)
    assert got.t == want.t and type(got.t) is type(want.t)
    assert np.array(got.value).tobytes() == np.array(want.value).tobytes()
    if kind == "both":  # drift is checked before leak at one grid point
        assert "drift" in str(got)


def test_a_leak_before_a_drift_in_one_block_is_reported_first():
    free = _edge_run(False, math.inf, None)
    with pytest.raises(IntegrationError, match="leak") as exc:
        _edge_run(False, _between(free.drift, 5), _between(free.leak, 3))
    assert exc.value.t == free.times[3]


def test_ring_memory_does_not_grow_with_the_run():
    # per step, the run keeps its diagnostics and the stage tables of its
    # signals (a few hundred bytes); a state kept per step would add 4 KiB
    sp = HilbertSpace.fock("c", 15)
    g = build_cancellation_chain([0.6 * annihilator(sp, "c")], number_op(sp, "c"), ["u"], sp)
    binds = {"u": GaussianPulseSignal("u", amplitude=0.4, center=0.05, width=0.02)}
    vacuum = QuantumState.vacuum(sp)
    peaks = []
    for n in (100, 1000):
        times = np.linspace(0.0, 1e-4 * n, n + 1)
        integrate_master(g, vacuum, times, binds)  # warm every cache first
        tracemalloc.start()
        integrate_master(g, vacuum, times, binds)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    state = sp.total_dim ** 2 * 16
    assert peaks[1] - peaks[0] < 900 * state // 4, peaks


def test_a_kept_result_holds_one_state_not_the_slopes(rng):
    # the run's state and slopes are the rows of one buffer; the result's
    # final state is copied out of it into the stage input, so the rows are
    # freed with the run.  On the CSR run at d = 121 a ring holds one state,
    # so it is a view of that stage input, and it must not keep it as a base
    sp = HilbertSpace.fock("c", 15)
    g = build_cancellation_chain([0.6 * annihilator(sp, "c")], number_op(sp, "c"), ["u"], sp)
    binds = {"u": GaussianPulseSignal("u", amplitude=0.4, center=0.05, width=0.02)}
    vacuum = QuantumState.vacuum(sp)
    times = np.linspace(0.0, 1e-3, 11)
    assert integrate_schrodinger(g.H, vacuum, times, binds).final.base is None
    g121, binds121 = _reference_case(rng, "signals_2ch", two_mode=True)
    assert g121.space.total_dim == 121
    assert dynamics._ring_size(16 * 121 * 121) == 1
    for g, binds in [(g, binds), (g121, binds121)]:
        vacuum = QuantumState.vacuum(g.space)
        integrate_master(g, vacuum, times, binds)  # warm every cache first
        tracemalloc.start()
        result = integrate_master(g, vacuum, times, binds)
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.stop()
        assert result.final.base is None
        assert held < 2 * result.final.nbytes, held  # the five rows would be 5 states


def test_stage_tables_grow_by_their_rows_only():
    # per step: the grid and its step, two stage times, the diagnostics, the
    # signal's two samples and K's 2×3 monomial values (240 B measured); a
    # Python complex per sample, a second copy of a table or a third stage
    # time per step would add ≥ 48 B
    sp = HilbertSpace.fock("c", 15)
    g = build_cancellation_chain([0.6 * annihilator(sp, "c")], number_op(sp, "c"), ["u"], sp)
    binds = {"u": GaussianPulseSignal("u", amplitude=0.4, center=0.05, width=0.02)}
    vacuum = QuantumState.vacuum(sp)
    for run in (lambda times: integrate_master(g, vacuum, times, binds),
                lambda times: integrate_schrodinger(g.H, vacuum, times, binds)):
        peaks = []
        for n in (200, 2000):
            times = np.linspace(0.0, 1e-5 * n, n + 1)
            run(times)  # warm every cache first
            tracemalloc.start()
            run(times)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert (peaks[1] - peaks[0]) / 1800 < 250, peaks


CASES = ["signals_2ch", "signals_3ch", "constant", "zero_L", "sampled"]


# a bare case runs on three levels (dense); "d121_" runs it on two modes (CSR)
@pytest.mark.parametrize("case", CASES + [f"d121_{case}" for case in CASES])
def test_compiled_integrators_match_the_reference(rng, case):
    two_mode = case.startswith("d121_")
    g, binds = _reference_case(rng, case.removeprefix("d121_"), two_mode)
    d = g.space.total_dim
    times = np.linspace(0.0, 0.05, 11) if two_mode else np.linspace(0.0, 0.2, 21)
    assert sparse.issparse(_values_at([g.H], binds, times[0])[0]) == two_mode
    rho0 = random_density(rng, d)
    psi0 = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    psi0 /= np.linalg.norm(psi0)
    # a grid whose steps differ, cumulative sums of h·U(0.5, 1.5) inside the
    # same horizon (a sampled table ends there), so the RK4 coefficients
    # change at every step, as they do not on a linspace grid
    n = times.size - 1
    h = times[-1] / (1.5 * n)
    unequal = np.concatenate([[0.0], np.cumsum(h * rng.uniform(0.5, 1.5, n))])
    assert np.ptp(np.diff(unequal)) > 0.1 * h
    for grid in (times, unequal):
        # drift is checked elsewhere; here only agreement with the reference counts
        res = integrate_master(g, rho0, grid, binds, store_states=True, trace_tol=1.0,
                               leak_threshold=None)
        want = _classic_rk4(lambda rho, t: lindblad_rhs(rho, g, t, binds), rho0, grid)
        assert max(np.max(np.abs(a - b)) for a, b in zip(res.states, want)) < 1e-12

        res = integrate_schrodinger(g.H, psi0, grid, binds, store_states=True, norm_tol=1.0,
                                    leak_threshold=None)
        want = _classic_rk4(lambda psi, t: -1j * g.H.evaluate(t, binds).matrix @ psi, psi0,
                            grid)
        assert max(np.max(np.abs(a - b)) for a, b in zip(res.states, want)) < 1e-12


def _K_by_the_algebra(g):
    """-iH - ½ΣL†L by the polynomial sum, one coupling at a time."""
    K = g.H.scale(-1j)
    for Lp in g.L:
        if Lp.is_zero():
            continue
        LdL = {m: c * complex(-0.5) for m, c in Lp.dagger()._product_terms(Lp).items()}
        K = K + OpPolynomial._shared(g.space, LdL)
    return K


def _cancelling_triple(rng):
    """-iH cancels -½L₁†L₁ exactly, so K loses its constant monomial, and
    L₂ adds it back after H's signal monomials; a zero coupling between
    them is skipped."""
    sp = HilbertSpace.fock("c", 4)
    L1, X = (OpPolynomial.constant(Operator(sp, random_matrix(rng, 5))) for _ in range(2))
    u = OpPolynomial.of_signal(sp, "u")
    H = (L1.dagger() * L1).scale(0.5j) + u * X + (u * X).dagger()
    return SLHTriple(np.eye(3), (L1, OpPolynomial.zero(sp), X + u.scale(0.3)), H)


@pytest.mark.parametrize("case", ["cascade_d196", "d121_signals_3ch", "cancelling"])
def test_the_folded_K_is_the_algebra_s_bit_for_bit(rng, case):
    if case == "cascade_d196":
        g = compile_netlist(parse_netlist(CASCADE.format(cutoff=13))).triple
    elif case == "cancelling":
        g = _cancelling_triple(rng)
    else:
        g = _reference_case(rng, "signals_3ch", two_mode=True)[0]
    want = _K_by_the_algebra(g)
    K, *live = dynamics._lindblad_polys(g)
    assert live == [Lp for Lp in g.L if not Lp.is_zero()]
    # the same monomials in the same order, so _compile stacks them alike
    assert list(K.terms) == list(want.terms)
    for mono, c in K.terms.items():
        assert dense(c).view(float).tobytes() == dense(want.terms[mono]).view(float).tobytes(), \
            mono
    if case == "cancelling":
        assert list(g.H.terms).index(ONE) == 0 and list(K.terms).index(ONE) == 2


def _values_at(polys, binds, t):
    """The compiled values of ``polys`` at the one time t."""
    compiled = _compile(polys, binds, np.array([t]))
    compiled.rewriter()(0)
    return compiled.values


def _master_stage_at(g, binds, t):
    """The compiled master stage of g, rewritten at the one time t."""
    rewrite, f = _compiled_lindblad(g, binds)(np.array([t]))
    rewrite(0)
    return f


def _stage_peak(f, X, out):
    """Peak bytes allocated by one master stage."""
    tracemalloc.start()
    f(X, out)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return peak


def test_compiled_lindblad_matches_the_reference_on_any_matrix(rng):
    # dense at d=3; CSR at d=121, except signals_3ch, whose K fills past
    # SPARSE_MAX_FILL, so that run is dense throughout
    for case in CASES:
        for two_mode in (False, True):
            g, binds = _reference_case(rng, case, two_mode)
            X = random_matrix(rng, g.space.total_dim)  # neither Hermitian nor of unit trace
            t = 0.17  # inside the sampled table's horizon
            f = _master_stage_at(g, binds, t)
            out = np.full_like(X, np.nan)  # the stage must not read what out held
            f(X, out)
            assert np.max(np.abs(out - lindblad_rhs(X, g, t, binds))) < 1e-12, (case, two_mode)
            if two_mode:  # a stage allocates no state-sized array
                assert _stage_peak(f, X, out) < X.nbytes // 4, case
    # nor does a dense stage with couplings: an open cavity at d=16 and d=64
    for cutoff in (15, 63):
        g = cavity(HilbertSpace.fock("c", cutoff), "c", 0.4, 1.0)
        X = random_matrix(rng, g.space.total_dim)
        f = _master_stage_at(g, {}, 0.17)
        out = np.empty_like(X)
        f(X, out)
        assert np.max(np.abs(out - lindblad_rhs(X, g, 0.17))) < 1e-12, cutoff
        assert _stage_peak(f, X, out) < X.nbytes // 4, cutoff


@pytest.mark.parametrize("live", [0, 1, 2])
@pytest.mark.parametrize("d", [3, 16, 49, 64, 99])
def test_dense_master_stage_is_the_written_out_sum_bitwise(rng, d, live):
    # below SPARSE_MIN_DIM every run is dense, and its stage is
    # Kρ + ρK† + Σᵢ Lᵢ(ρLᵢ†) on the compiled values, rounded in that order
    g = random_triple(rng, d, 2, signals=["u"])
    g = SLHTriple(g.T, g.L[:live] + (OpPolynomial.zero(g.space),) * (2 - live), g.H)
    binds = random_bindings(rng, ["u"])
    K = g.H.scale(-1j)
    for Lp in g.L[:live]:
        K = K + (Lp.dagger() * Lp).scale(-0.5)
    Km, *Ls = _values_at([K, *g.L[:live]], binds, 0.2)
    assert isinstance(Km, np.ndarray) and len(Ls) == live
    X = random_matrix(rng, d)
    want = Km @ X + X @ Km.conj().T
    for Lm in Ls:
        want = want + Lm @ (X @ Lm.conj().T)
    out = np.full_like(X, np.nan)
    _master_stage_at(g, binds, 0.2)(X, out)
    assert _bits(out) == _bits(want)


CASCADE = """\
space fock(cutoff={cutoff}) as c1
space fock(cutoff={cutoff}) as c2
signal u = gaussian_pulse(amplitude=(0.35 + -0.2i), center=0.4, width=0.25)
component D = ADD(u=[u])
component A = CAVITY(gamma=0.6, omega=1.1, mode=c1)
component B = CAVITY(gamma=0.45, omega=0.7, mode=c2)
network cascade = B <| A <| D
"""


def test_backend_follows_dimension_and_fill(rng):
    def compiled(polys, binds=None):
        return _values_at(polys, binds, 0.3)

    # one mode at d=16, the size of the chain_pulse workload, stays dense
    sp = HilbertSpace.fock("c", 15)
    chain = cavity(sp, "c", 0.4, 1.0)
    assert all(isinstance(v, np.ndarray) for v in compiled([chain.H, *chain.L]))

    # the banded two-cavity cascade at d=196 compiles to CSR
    net = compile_netlist(parse_netlist(CASCADE.format(cutoff=13)))
    g = net.triple
    assert g.space.total_dim == 196
    values = compiled([g.H, *g.L], net.signals)
    assert all(sparse.issparse(v) for v in values)
    for poly, value in zip([g.H, *g.L], values):
        # one pattern, the union of the monomials' patterns, at every stage
        assert value.nnz == np.count_nonzero(sum(np.abs(dense(c)) for c in poly.terms.values()))
        assert np.max(np.abs(value.toarray() - dense(poly.evaluate(0.3, net.signals).matrix))) \
            < 1e-13

    # a dense random coupling at the same d stays dense, and so does every
    # polynomial compiled beside it: the format belongs to the run
    filled = OpPolynomial.constant(Operator(g.space, random_matrix(rng, 196)))
    assert isinstance(compiled([filled])[0], np.ndarray)
    values = compiled([g.H, *g.L, filled], net.signals)
    assert all(isinstance(v, np.ndarray) for v in values)
    for poly, value in zip([g.H, *g.L], values):
        assert np.max(np.abs(value - dense(poly.evaluate(0.3, net.signals).matrix))) < 1e-13


@pytest.mark.parametrize("two_mode", [False, True], ids=["dense", "d121_csr"])
def test_compile_rewrites_one_value_per_polynomial(rng, two_mode):
    g, binds = _reference_case(rng, "signals_2ch", two_mode)
    polys = [g.H, *g.L, OpPolynomial.constant(identity(g.space))]
    compiled = _compile(polys, binds, np.array([0.1, 0.15, 0.2]))
    first = compiled.values
    compiled.rewriter()(0)
    before = [v.copy() for v in first]
    compiled.rewriter()(1)
    second = compiled.values
    assert second is first
    for poly, value, old in zip(polys, second, before):
        want = poly.evaluate(0.15, binds).matrix
        got = value if isinstance(value, np.ndarray) else value.toarray()
        assert np.max(np.abs(got - want)) < 1e-13
        old = old if isinstance(old, np.ndarray) else old.toarray()
        assert np.array_equal(got, old) == poly.is_constant()

    # only a rewrite writes the values, and it writes every non-constant one
    def entries(value):
        return value.reshape(-1) if isinstance(value, np.ndarray) else value.data

    for value in second:
        entries(value)[:] = np.nan
    assert all(np.isnan(entries(v)).all() for v in compiled.values)
    compiled.rewriter()(0)
    for poly, value in zip(polys, compiled.values):
        assert np.isnan(entries(value)).all() == poly.is_constant()

    # conjugates follow their value's rewrites only: a constant value's
    # conjugate is written once, by conjugate_into
    compiled = _compile(polys, binds, np.array([0.1, 0.15, 0.2, 0.25, 0.3]))
    conjugates = [np.full(entries(v).shape, np.nan, dtype=complex) for v in compiled.values]
    compiled.conjugate_into(conjugates)  # written at once, constant values included
    assert all(np.array_equal(c, entries(v).conj())
               for v, c in zip(compiled.values, conjugates))
    compiled.rewriter()(2)
    for value, conjugate in zip(compiled.values, conjugates):
        assert np.array_equal(conjugate, entries(value).conj())
        entries(value)[:] = np.nan
        conjugate[:] = np.nan
    compiled.rewriter()(3)
    for poly, value, conjugate in zip(polys, compiled.values, conjugates):
        assert np.isnan(entries(value)).all() == poly.is_constant()
        assert np.isnan(conjugate).all() == poly.is_constant()
        if not poly.is_constant():
            got = value if isinstance(value, np.ndarray) else value.toarray()
            assert np.max(np.abs(got - poly.evaluate(0.25, binds).matrix)) < 1e-13
            assert np.array_equal(conjugate, entries(value).conj())

    # the driver owns the schedule: a run of n grid points compiles once on
    # the 2n − 1 stage times [t₀, t₀ + h₀/2, t₁, …], rewrites at each once,
    # in order, and step k reads its four slopes at 2k, 2k+1, 2k+1 and 2k+2
    times = np.linspace(0.0, 0.3, 31)
    n = times.size
    half = np.empty(2 * n - 1)
    half[0::2], half[1::2] = times, times[:-1] + 0.5 * np.diff(times)
    rewrites, reads = [], []

    def rhs(stages):
        assert _bits(stages) == _bits(half)
        rewrite, f = _compiled_lindblad(g, binds)(stages)

        def logged_rewrite(i):
            rewrites.append(i)
            rewrite(i)

        def logged_f(y, out):
            reads.append(rewrites[-1])
            f(y, out)
        return logged_rewrite, logged_f

    rho0 = random_density(rng, g.space.total_dim)
    res = dynamics._rk4(rhs, rho0.copy(), times, g.space, None, False, 1.0, None)
    assert rewrites == list(range(2 * (n - 1) + 1))
    assert reads == [i for k in range(n - 1) for i in (2 * k, 2 * k + 1, 2 * k + 1, 2 * k + 2)]
    plain = integrate_master(g, rho0, times, binds, trace_tol=1.0, leak_threshold=None)
    assert _bits(res.final) == _bits(plain.final)

    # on a linspace grid t_k + h_k is t_{k+1} exactly, and the value that
    # step k rewrites at 2k+2 for k4, and step k+1 reads for k1, has the
    # bits of a fresh rewrite there and of one at t_k + h_k on the table of
    # every step's three stage times
    t0, h = times[:-1], np.diff(times)
    assert _bits(t0 + h) == _bits(times[1:])
    kept, fresh = _compile(polys, binds, half), _compile(polys, binds, half)
    steps = _compile(polys, binds, np.stack([t0, t0 + 0.5 * h, t0 + h], axis=1).ravel())
    for k in range(n - 1):
        kept.rewriter()(2 * k + 1)
        kept.rewriter()(2 * k + 2)
        fresh.rewriter()(2 * k + 2)
        steps.rewriter()(3 * k + 2)
        for a, b, c in zip(kept.values, fresh.values, steps.values):
            assert _bits(entries(a)) == _bits(entries(b)) == _bits(entries(c))


@pytest.mark.parametrize("two_mode", [False, True], ids=["d16_dense", "d121_csr"])
def test_rewrite_writes_the_bits_of_matmul(rng, two_mode):
    # a small rewrite may go through np.dot, which makes matmul's BLAS call
    # on two or more monomials but rounds a (1,)·(1, nnz) product differently
    if two_mode:
        sp = HilbertSpace([HilbertSpace.fock("a", 10).factors[0],
                           HilbertSpace.fock("b", 10).factors[0]])
        a, b = annihilator(sp, "a"), annihilator(sp, "b")
        ops = [a, number_op(sp, "b"), a.dagger() @ b]
    else:
        sp = HilbertSpace.fock("c", 15)
        ops = [Operator(sp, random_matrix(rng, 16)) for _ in range(3)]
    u = OpPolynomial.of_signal(sp, "u")
    monomials = [u, u.dagger(), u * u.dagger()]
    polys = []
    for k in (1, 2, 3):
        p = OpPolynomial.zero(sp)
        for mono, op in zip(monomials[:k], ops):
            p = p + mono * OpPolynomial.constant(complex(*rng.standard_normal(2)) * op)
        polys.append(p)
    assert [len(p.terms) for p in polys] == [1, 2, 3]
    binds = {"u": ComplexExponentialSignal("u", 0.8 - 0.3j, 2.1, 0.4)}
    compiled = _compile(polys, binds, np.linspace(0.0, 0.2, 9))
    assert all(sparse.issparse(v) == two_mode for v in compiled.values)
    assert len(compiled._updates) == 3
    for i in range(9):
        compiled.rewriter()(i)
        for _, _, table, stack, entries, _ in compiled._updates:
            assert _bits(entries) == _bits(np.matmul(table[i], stack)), i


def test_observable_read_matches_the_trace_and_the_quadratic_form(rng):
    sp = HilbertSpace([HilbertSpace.fock("a", 10).factors[0],
                       HilbertSpace.fock("b", 10).factors[0]])
    a = annihilator(sp, "a")
    cases = [(a.matrix, 121), (a.dagger().matrix, 121), (number_op(sp, "b").matrix, 121),
             (random_matrix(rng, 3), 3)]
    for A, d in cases:
        X = random_matrix(rng, d)  # not Hermitian; unit Frobenius norm, as ψ has
        X /= np.linalg.norm(X)
        psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        psi /= np.linalg.norm(psi)
        read_rho, read_psi = dynamics._observable(A, pure=False), dynamics._observable(A, pure=True)
        assert abs(read_rho(X) - np.einsum("ij,ji->", X, dense(A))) < 1e-13
        assert abs(read_psi(psi) - psi.conj() @ dense(A) @ psi) < 1e-13


def _bits(x):
    return x.dtype, x.shape, x.tobytes()


def test_product_matches_matmul_bitwise(rng):
    g, binds = _reference_case(rng, "signals_2ch", two_mode=True)
    d = g.space.total_dim
    values = _values_at([g.H, *g.L], binds, 0.2)
    assert all(sparse.issparse(m) for m in values)
    X = random_matrix(rng, d)
    v = X[:, 0].copy()
    cases = [(m, x) for m in [*values, random_matrix(rng, d)] for x in (X, v)]
    # and a dense matrix at d=16, the chain's size
    m, X = random_matrix(rng, 16), random_matrix(rng, 16)
    cases += [(m, X), (m, X[:, 0].copy())]
    for m, x in cases:
        out = np.full_like(x, np.nan)  # the kernel must not read what out held
        dynamics._product(m)(x, out)
        assert _bits(out) == _bits(m @ x)


def test_compiled_generators_need_every_signal_bound(rng):
    g, _ = _reference_case(rng, "signals_2ch")
    times = np.linspace(0.0, 0.1, 11)
    with pytest.raises(KeyError, match="unbound signal 'u'"):
        integrate_master(g, random_density(rng, 3), times)
    with pytest.raises(KeyError, match="unbound signal 'u'"):
        integrate_schrodinger(g.H, QuantumState.vacuum(g.space), times)


def test_a_signal_defining_only_call_compiles_and_integrates():
    pulse = GaussianPulseSignal("u", amplitude=0.4, center=0.05, width=0.02)

    class Pulse(Signal):  # the same pulse, sampled one call per time
        def __call__(self, t):
            return pulse(t)

    sp = HilbertSpace.fock("c", 5)
    g = build_cancellation_chain([0.6 * annihilator(sp, "c")], number_op(sp, "c"), ["u"], sp)
    times = np.linspace(0.0, 0.1, 51)
    vacuum = QuantumState.vacuum(sp)
    for run in (lambda binds: integrate_master(g, vacuum, times, binds),
                lambda binds: integrate_schrodinger(g.H, vacuum, times, binds)):
        got, want = run({"u": Pulse("u")}).final, run({"u": pulse}).final
        assert np.max(np.abs(got - want)) < 1e-14
        assert not np.array_equal(got, run({"u": ConstantSignal("u", 0)}).final)


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


# -- analytic oracles ------------------------------------------------------


@pytest.mark.parametrize("cutoff", [6, 9], ids=["d49_dense", "d100_sparse"])
def test_simulate_matches_the_cascade_ode(cutoff, tmp_path):
    """``simulate`` on B <| A <| ADD(u) against the coherent amplitudes of
    the reduced cascade, written down by hand (no series product):

        α̇₁ = -(iω₁ + γ₁/2) α₁ - √γ₁ u
        α̇₂ = -(iω₂ + γ₂/2) α₂ - √(γ₁γ₂) α₁ - √γ₂ u

    from vacuum, solved by ``solve_ivp``; one cutoff on each side of the
    sparse crossover."""
    text = CASCADE.format(cutoff=cutoff)
    net = compile_netlist(parse_netlist(text))
    d = net.triple.space.total_dim
    assert sparse.issparse(_values_at([net.triple.H], net.signals, 0.0)[0]) \
        == (d >= dynamics.SPARSE_MIN_DIM)
    path = tmp_path / "cascade.slh"
    path.write_text(text)
    csv = tmp_path / "run.csv"
    assert cli.main(["simulate", str(path), "--horizon", "1", "--step", "0.02",
                     "--observable", "a:c1", "--observable", "a:c2", "-o", str(csv)]) == 0
    rows = np.loadtxt(csv, delimiter=",", skiprows=1)
    t = rows[:, 0]
    got = rows[:, 1:5:2] + 1j * rows[:, 2:5:2]

    u = net.signals["u"]
    (g1, w1), (g2, w2) = (0.6, 1.1), (0.45, 0.7)

    def rhs(s, y):
        a1, a2 = y[0] + 1j * y[1], y[2] + 1j * y[3]
        da1 = -(1j * w1 + g1 / 2) * a1 - math.sqrt(g1) * u(s)
        da2 = -(1j * w2 + g2 / 2) * a2 - math.sqrt(g1 * g2) * a1 - math.sqrt(g2) * u(s)
        return [da1.real, da1.imag, da2.real, da2.imag]

    sol = solve_ivp(rhs, (0.0, 1.0), [0.0] * 4, t_eval=t, rtol=1e-11, atol=1e-13)
    want = (sol.y[0::2] + 1j * sol.y[1::2]).T
    assert np.max(np.abs(want)) > 0.1  # the pulse has driven both cavities
    assert np.max(np.abs(got - want)) < 1e-7




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
