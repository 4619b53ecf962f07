"""Acceptance gate: one test per release criterion, each printing a
single pass/fail line (run with -s to see them on success).

Criterion 3 asserts the seven-component feedback chain in its correct
form, (I, 0, H0 + 2 Im(L†u)): the bilinear Hamiltonian term has
coefficient 2, one Im(L†u) per pass through the coupling.  The same test
pins the coefficient-1 form as false, and checks the factor 2 against
vacuum-driven dynamics without the series product; its docstring holds
the derivation.  The companion tests pin the corrected identity
bit-exactly and cross-check it against an independently derived cascade
generator.
"""

import json
import pathlib
import time

import numpy as np
import pytest

from slhforge import (
    ConstantSignal,
    GaussianPulseSignal,
    coherent_vector,
    HilbertSpace,
    Operator,
    OpPolynomial,
    QuantumState,
    SLHTriple,
    analytic_driven_cavity,
    annihilator,
    beam_splitter,
    build_cancellation_chain,
    build_noisy_construction,
    integrate_master,
    integrate_schrodinger,
    lindblad_rhs,
    number_op,
    output_expectation,
    parse_netlist,
    print_netlist,
    pure_hamiltonian,
    series,
    signal_adder,
    system_coupling,
    trace_distance,
)
from slhforge.cli import main as cli_main
from reference import approx_equal, heisenberg_generator, triples_approx_equal
from conftest import (
    constant_term,
    random_bindings,
    random_density,
    random_hermitian,
    random_matrix,
    random_operator,
    random_triple,
    random_unitary,
)

HERE = pathlib.Path(__file__).parent
NETLISTS = HERE / "netlists"
GOLDEN = HERE / "golden"


def report(number, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number} ({label}): {status}" + (f" — {detail}" if detail else ""))
    return ok


# -- criterion 1: series-product algebra ----------------------------------


def test_criterion_1_series_algebra():
    rng = np.random.default_rng(101)
    start = time.monotonic()
    count = 0
    for k in range(70):
        dim = int(rng.integers(2, 5))
        channels = int(rng.integers(1, 3))
        signals = ["u"] if k % 2 else []
        a = random_triple(rng, dim, channels, signals)
        b = random_triple(rng, dim, channels, signals)
        c = random_triple(rng, dim, channels)
        count += 3
        binds = random_bindings(rng, ["u"])
        probes = [0.0, 0.7]

        # identity element
        ident = pure_hamiltonian(OpPolynomial.zero(a.space), a.space, channels)
        for g in (series(a, ident), series(ident, a)):
            eq, rep = triples_approx_equal(g, a, 1e-10, probes, binds)
            assert eq, f"identity law broke: {rep}"

        # a closed Hamiltonian factor composes the same from either side
        ham = pure_hamiltonian(random_hermitian(rng, a.space), a.space, channels)
        eq, rep = triples_approx_equal(series(ham, a), series(a, ham), 1e-10, probes, binds)
        assert eq, f"HAM commutation broke: {rep}"

        # associativity
        lhs = series(series(a, b), c)
        rhs = series(a, series(b, c))
        eq, rep = triples_approx_equal(lhs, rhs, 1e-10, probes, binds)
        assert eq, f"associativity broke: {rep}"

    # non-commutativity witness: opposite ladder couplings
    sp = HilbertSpace.fock("c", 3)
    lower = system_coupling([annihilator(sp, "c")], sp)
    raise_ = system_coupling([annihilator(sp, "c").dagger()], sp)
    eq, _ = triples_approx_equal(series(raise_, lower), series(lower, raise_), 1e-10)
    assert not eq, "series product unexpectedly commuted"

    elapsed = time.monotonic() - start
    ok = count >= 200 and elapsed < 10.0
    assert report(1, "series algebra", ok, f"{count} triples in {elapsed:.1f}s")


# -- criterion 2: conjugation and reversal --------------------------------


def test_criterion_2_conjugation_and_reversal():
    rng = np.random.default_rng(202)
    start = time.monotonic()
    for k in range(100):
        dim = int(rng.integers(2, 5))
        channels = int(rng.integers(1, 3))
        g = random_triple(rng, dim, channels, ["u"] if k % 2 else [])
        T = random_unitary(rng, channels)
        Tinv = T.conj().T
        got = series(beam_splitter(Tinv, g.space), series(g, beam_splitter(T, g.space)))

        # direct formula, written out by hand: (T^-1 S T, T^-1 L, H)
        eye = np.eye(dim)

        def cpoly(c):
            return OpPolynomial.constant(Operator(g.space, c * eye))

        n = channels
        S = [[sum(Tinv[i, k2] * g.T[k2, l] * T[l, j] for k2 in range(n) for l in range(n))
              for j in range(n)]
             for i in range(n)]
        L = tuple(
            sum((cpoly(Tinv[i, k2]) * g.L[k2] for k2 in range(n)),
                OpPolynomial.zero(g.space))
            for i in range(n)
        )
        want = SLHTriple(S, L, g.H)
        eq, rep = triples_approx_equal(got, want, 1e-10, [0.0, 0.5],
                                       random_bindings(rng, ["u"]))
        assert eq, f"instance {k}: {rep}"

    # reversal identity, exact: BS(-I) <| SYS(L) <| BS(-I) = SYS(-L)
    sp = HilbertSpace.generic("q", 3)
    Lop = random_operator(rng, sp)
    bs = beam_splitter(-np.eye(1), sp)
    sandwich = series(bs, series(system_coupling([Lop], sp), bs))
    flipped = system_coupling([-Lop], sp)
    assert np.array_equal(sandwich.T, flipped.T)
    assert sandwich.L == flipped.L and sandwich.H == flipped.H

    elapsed = time.monotonic() - start
    ok = elapsed < 5.0
    assert report(2, "conjugation and reversal", ok, f"100 instances in {elapsed:.1f}s")


# -- criterion 3: cancellation chain --------------------------------------


def _chain_instances(seed, count):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        dim = int(rng.integers(2, 9))
        sp = HilbertSpace.generic("q", dim)
        L = random_operator(rng, sp, 0.7)
        H0 = random_hermitian(rng, sp, 0.7)
        yield sp, L, H0


def test_criterion_3_cancellation_reduction_as_stated():
    """The reduced chain equals (I, 0, H0 + 2 Im(L†u)), not the
    coefficient-1 form (I, 0, H0 + Im(L†u)) the criterion first stated.

    With (S2,L2,H2) <| (S1,L1,H1) = (S2S1, L2+S2L1, H1+H2+Im(L2†S2L1))
    and Im X = (X - X†)/2i, composing upstream-first:

        1. ADD(-u) <| SYS(L) = (I, L-u, Im(-ū L)) = (I, L-u, Im(L†u))
        2. BS(-I) <| .       = (-I, u-L, Im(L†u))
        3. SYS(L) <| .       = (-I, u, Im(L†u) + Im(L†u) - Im(L†L))
                             = (-I, u, 2 Im(L†u))
        4. BS(-I) <| .       = (I, -u, 2 Im(L†u))
        5. ADD(u) <| .       = (I, 0, 2 Im(L†u) + Im(-|u|²)) = (I, 0, 2 Im(L†u))
        6. HAM(H0) <| .      = (I, 0, H0 + 2 Im(L†u))

    Each pass through the coupling contributes one Im(L†u).  The
    coefficient-1 triple is rejected on every instance, and the
    mismatch is exactly one Im(L†u).  The factor 2 is also seen in the
    dynamics, without the series product: driven from vacuum, the chain
    reaches the coherent amplitude of a cavity driven by 2u.
    """
    binds = random_bindings(np.random.default_rng(7), ["u"])
    rejected = 0
    residual_gap = 0.0
    for sp, L, H0 in _chain_instances(303, 50):
        g = build_cancellation_chain([L], H0, ["u"], sp)
        single = (
            OpPolynomial.constant(L.dagger()) * OpPolynomial.of_signal(sp, "u")
        ).imag()
        want = pure_hamiltonian(OpPolynomial.constant(H0) + 2.0 * single, sp)
        eq, rep = triples_approx_equal(g, want, 1e-10, [0.0], binds)
        assert eq, f"chain deviates from (I, 0, H0 + 2 Im L†u): {rep}"
        # the coefficient-1 form is false, short by exactly one Im(L†u)
        h_single = OpPolynomial.constant(H0) + single
        eq, _ = triples_approx_equal(
            g, pure_hamiltonian(h_single, sp), 1e-10, [0.0], binds
        )
        rejected += not eq
        residual_gap = max(residual_gap, (g.H - h_single).max_coeff_diff(single))
    assert rejected == 50, (
        f"the coefficient-1 triple matched {50 - rejected}/50 instances"
    )
    assert residual_gap <= 1e-13, (
        "the chain differs from (I, 0, H0 + Im L†u) by more than one "
        f"Im(L†u) term: max deviation {residual_gap:.3e}"
    )

    # dynamics: a Fock instance driven from vacuum reaches the coherent
    # amplitude of a cavity driven by 2u, not by u
    gamma, omega0 = 0.4, 1.0
    sp = HilbertSpace.fock("c", 16)
    a = annihilator(sp, "c")
    g = build_cancellation_chain([np.sqrt(gamma) * a], omega0 * number_op(sp, "c"),
                                 ["u"], sp)
    u = GaussianPulseSignal("u", amplitude=0.6, center=1.0, width=0.3)
    T = 2.0
    res = integrate_schrodinger(g.H, QuantumState.vacuum(sp),
                                np.linspace(0.0, T, 2001), {"u": u},
                                observables={"a": a})
    alpha_T = res.expectations["a"][-1]
    miss_double = abs(alpha_T - analytic_driven_cavity(
        omega0, gamma, lambda s: 2.0 * u(s), T))
    miss_single = abs(alpha_T - analytic_driven_cavity(omega0, gamma, u, T))
    ok = miss_double < 1e-6 and miss_single > 1e-2
    assert report(
        3, "cancellation chain, H0 + 2 Im(L†u)", ok,
        f"50/50 instances match, coefficient 1 rejected on {rejected}/50; "
        f"<a>(T) misses drive 2u by {miss_double:.1e}, drive u by {miss_single:.2f}",
    ), (
        f"<a>(T) = {alpha_T:.6f} misses the 2u-driven cavity by "
        f"{miss_double:.3e} (want < 1e-6) and the u-driven one by "
        f"{miss_single:.3e} (want > 1e-2)"
    )


def test_criterion_3_chain_dynamics_are_closed():
    """Dynamical half of the criterion: the composed chain from vacuum is
    closed — it matches Schrödinger evolution under its own bilinear
    Hamiltonian, stays pure, and emits nothing."""
    start = time.monotonic()
    times = np.linspace(0.0, 1.0, 1001)
    worst_dist = worst_purity = worst_out = 0.0
    rng = np.random.default_rng(31)
    for sp, L, H0 in _chain_instances(304, 50):
        g = build_cancellation_chain([L], H0, ["u"], sp)
        assert all(entry.is_zero() for entry in g.L)
        u = GaussianPulseSignal("u", amplitude=complex(rng.standard_normal(),
                                                       rng.standard_normal()),
                                center=0.5, width=0.2)
        binds = {"u": u}
        vac = QuantumState.vacuum(sp)
        master = integrate_master(g, vac, times, binds, store_states=True,
                                  leak_threshold=None)
        schro = integrate_schrodinger(g.H, vac, times, binds, store_states=True,
                                      leak_threshold=None)
        psi = schro.states[-1]
        worst_dist = max(worst_dist,
                         trace_distance(master.states[-1], np.outer(psi, psi.conj())))
        worst_purity = max(worst_purity, float(np.max(np.abs(master.purity - 1.0))))
        for t in (0.0, 0.5, 1.0):
            worst_out = max(worst_out,
                            float(np.max(np.abs(output_expectation(g, master, t, binds)))))
    elapsed = time.monotonic() - start
    ok = worst_dist < 1e-6 and worst_purity < 1e-8 and worst_out < 1e-8 and elapsed < 120.0
    assert report(
        3, "cancellation chain, closed dynamics", ok,
        f"trace distance {worst_dist:.2e}, purity drift {worst_purity:.2e}, "
        f"output {worst_out:.2e}, {elapsed:.0f}s",
    )


def test_criterion_3_corrected_reduction_with_independent_cross_check():
    """The chain actually reduces to (I, 0, H0 + 2 Im L†u): couplings and
    bilinear terms bit-exact, constant term to roundoff.  The factor 2 is
    confirmed by a cascade generator derived without the series product."""
    for sp, L, H0 in _chain_instances(305, 50):
        g = build_cancellation_chain([L], H0, ["u"], sp)
        assert all(entry.is_zero() for entry in g.L)
        want = OpPolynomial.constant(H0) + 2.0 * (
            OpPolynomial.constant(L.dagger()) * OpPolynomial.of_signal(sp, "u")
        ).imag()
        for mono in set(g.H.terms) | set(want.terms):
            if mono.degree == 0:
                continue
            assert np.array_equal(g.H.terms.get(mono, 0), want.terms.get(mono, 0))
        assert approx_equal(constant_term(g.H), H0, 1e-13)

    # independent route: eliminate the field between the displaced passes
    # by writing the two-pass cross terms of the averaged generator
    # directly; no series product involved.
    rng = np.random.default_rng(306)
    worst = 0.0
    for _ in range(10):
        dim = int(rng.integers(2, 6))
        sp = HilbertSpace.generic("q", dim)
        L = random_operator(rng, sp, 0.8)
        u = complex(rng.standard_normal(), rng.standard_normal())
        sandwich = series(
            signal_adder(["u"], sp),
            series(system_coupling([-1.0 * L], sp), signal_adder([("u", -1.0)], sp)),
        )
        binds = {"u": ConstantSignal("u", u)}
        Hs = sandwich.H.evaluate(0.0, binds).matrix
        Ls = [e.evaluate(0.0, binds).matrix for e in sandwich.L]
        X = random_matrix(rng, dim)
        got = heisenberg_generator(X, Hs, Ls)
        # cross terms of the cascade: displacement -u enters the system
        # coupling -L upstream, so the eliminated field contributes
        # conj(-u) [X, -L] + (-u) [(-L)†, X] on top of the -L dissipator
        L2 = -L.matrix
        comm = lambda A, B: A @ B - B @ A
        want_gen = (
            0.5 * (L2.conj().T @ comm(X, L2))
            + 0.5 * (comm(L2.conj().T, X) @ L2)
            + np.conj(-u) * comm(X, L2)
            + (-u) * comm(L2.conj().T, X)
        )
        worst = max(worst, float(np.max(np.abs(got - want_gen))))
    assert worst < 1e-12
    assert report(3, "cancellation chain, corrected factor 2", True,
                  f"bit-exact bilinear term; cascade generator agrees to {worst:.1e}")


# -- criterion 4: noisy construction --------------------------------------


def test_criterion_4_noisy_construction():
    rng = np.random.default_rng(404)
    # exact-arithmetic unitaries: identity, signed swap, phase diagonal
    exact_ts = [
        np.eye(1),
        np.array([[0.0, 1.0], [-1.0, 0.0]]),
        np.diag([1j, -1.0]),
    ]
    for T in exact_ts:
        n = T.shape[0]
        dim = int(rng.integers(2, 5))
        sp = HilbertSpace.generic("q", dim)
        Ls = [random_operator(rng, sp, 0.7) for _ in range(n)]
        H0 = random_hermitian(rng, sp, 0.7)
        names = [f"u{i}" for i in range(n)]
        g = build_noisy_construction(T, Ls, H0, names, sp)
        bilinear = OpPolynomial.zero(sp)
        for name, L in zip(names, Ls):
            bilinear = bilinear + (
                OpPolynomial.constant(L.dagger()) * OpPolynomial.of_signal(sp, name)
            ).imag()
        want = SLHTriple(
            beam_splitter(T, sp).T,
            tuple(OpPolynomial.constant(L) for L in Ls),
            OpPolynomial.constant(H0) + 2.0 * bilinear,
        )
        assert np.array_equal(g.T, want.T) and g.L == want.L and g.H == want.H, \
            "exact-unitary instance deviated"

    # random unitaries: the H term is numerically twice the single
    # bilinear term at probe times, tol 1e-12
    worst = 0.0
    for _ in range(30):
        n = int(rng.integers(1, 3))
        dim = int(rng.integers(2, 5))
        sp = HilbertSpace.generic("q", dim)
        T = random_unitary(rng, n)
        Ls = [random_operator(rng, sp, 0.7) for _ in range(n)]
        H0 = random_hermitian(rng, sp, 0.7)
        names = [f"u{i}" for i in range(n)]
        g = build_noisy_construction(T, Ls, H0, names, sp)
        binds = random_bindings(rng, names)
        single = OpPolynomial.zero(sp)
        for name, L in zip(names, Ls):
            single = single + (
                OpPolynomial.constant(L.dagger()) * OpPolynomial.of_signal(sp, name)
            ).imag()
        for t in (0.0, 0.3, 1.1):
            got = g.H.evaluate(t, binds) - Operator(sp, H0.matrix)
            want = 2.0 * single.evaluate(t, binds)
            worst = max(worst, float(np.max(np.abs(got.matrix - want.matrix))))
    ok = worst < 1e-12
    assert report(4, "noisy construction factor 2", ok,
                  f"max H-term deviation from twice the bilinear term: {worst:.2e}")


# -- criterion 5: driven cavity -------------------------------------------


CAVITY_CUTOFF = 40
CAVITY_GAMMA = 0.4
CAVITY_OMEGA0 = 1.0
CAVITY_PULSE = dict(amplitude=4.0, center=3.0, width=0.5)


def _driven_cavity_run(step):
    sp = HilbertSpace.fock("c", CAVITY_CUTOFF)
    a = annihilator(sp, "c")
    u = GaussianPulseSignal("u", **CAVITY_PULSE)
    L = OpPolynomial.constant(np.sqrt(CAVITY_GAMMA) * a)
    H = OpPolynomial.constant(CAVITY_OMEGA0 * number_op(sp, "c")) + (
        L.dagger() * OpPolynomial.of_signal(sp, "u")
    ).imag()
    n = int(round(10.0 / step))
    times = np.linspace(0.0, n * step, n + 1)
    res = integrate_schrodinger(H, QuantumState.vacuum(sp), times, {"u": u},
                                observables={"a": a}, store_states=True)
    return sp, u, times, res


def test_criterion_5_driven_cavity_reaches_a_coherent_state():
    start = time.monotonic()
    sp, u, times, res = _driven_cavity_run(1e-3)
    worst = 0.0
    alpha_T = None
    for t in np.arange(0.0, 10.5, 0.5):
        alpha = analytic_driven_cavity(CAVITY_OMEGA0, CAVITY_GAMMA, u, float(t))
        k = int(np.abs(times - t).argmin())
        assert abs(times[k] - t) <= 1e-9, f"t={t} is not on the simulation grid"
        got = res.expectations["a"][k]
        worst = max(worst, abs(got - alpha))
        if t == 10.0:
            alpha_T = alpha
    assert abs(alpha_T) <= 2.0
    psi_T = res.states[-1]
    fid = float(np.abs(np.vdot(coherent_vector(sp, alpha_T), psi_T)) ** 2)
    elapsed = time.monotonic() - start
    ok = worst < 1e-4 and fid > 1.0 - 1e-6 and elapsed < 30.0
    assert report(5, "driven cavity", ok,
                  f"max |<a>-alpha| {worst:.2e}, fidelity 1-{1.0 - fid:.1e}, {elapsed:.0f}s")


# -- criterion 6: generator duality ---------------------------------------


def test_criterion_6_generator_duality():
    rng = np.random.default_rng(606)
    worst = 0.0
    for k in range(100):
        dim = int(rng.integers(2, 5))
        channels = int(rng.integers(1, 3))
        g = random_triple(rng, dim, channels, ["u"] if k % 2 else [])
        binds = random_bindings(rng, ["u"])
        t = float(rng.uniform(0.0, 2.0))
        rho = random_density(rng, dim)
        X = random_matrix(rng, dim)
        H = g.H.evaluate(t, binds).matrix
        Ls = [e.evaluate(t, binds).matrix for e in g.L]
        lhs = complex(np.trace(lindblad_rhs(rho, g, t, binds) @ X))
        rhs = complex(np.trace(rho @ heisenberg_generator(X, H, Ls)))
        rel = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-30)
        worst = max(worst, rel)
    ok = worst < 1e-8
    assert report(6, "generator duality", ok, f"max relative error {worst:.2e}")


# -- criterion 7: integrator order ----------------------------------------


def test_criterion_7_rk4_step_halving():
    u = GaussianPulseSignal("u", **CAVITY_PULSE)
    alpha_T = analytic_driven_cavity(CAVITY_OMEGA0, CAVITY_GAMMA, u, 10.0)
    errors = []
    for step in (0.02, 0.01):
        _, _, times, res = _driven_cavity_run(step)
        errors.append(abs(res.expectations["a"][-1] - alpha_T))
    ratio = errors[0] / errors[1]
    ok = 12.0 <= ratio <= 20.0
    assert report(7, "RK4 step halving", ok,
                  f"errors {errors[0]:.2e} -> {errors[1]:.2e}, ratio {ratio:.1f}")


# -- criterion 8: netlist corpus ------------------------------------------


def test_criterion_8_golden_netlist_corpus(capsys, tmp_path):
    files = sorted(NETLISTS.glob("*.slh"))
    assert len(files) >= 15
    checked = 0
    for f in files:
        stem = f.name[:-4]
        if stem.startswith("err_"):
            golden = (GOLDEN / f"{stem}.err").read_text()
            want_rc = int(golden.split("\n", 1)[0].split()[1])
            want_err = golden.split("\n", 1)[1]
            rc = cli_main(["reduce", str(f), "-o", str(tmp_path / "out.json")])
            err = capsys.readouterr().err
            assert rc == want_rc, f"{stem}: exit {rc}, wanted {want_rc}"
            assert err == want_err, f"{stem}: error text drifted"
        else:
            golden = (GOLDEN / f"{stem}.json").read_bytes()
            out = tmp_path / f"{stem}.json"
            rc = cli_main(["reduce", str(f), "-o", str(out)])
            capsys.readouterr()
            assert rc == 0, stem
            assert out.read_bytes() == golden, f"{stem}: report drifted"
            # determinism: a second run is byte-identical
            out2 = tmp_path / f"{stem}-2.json"
            assert cli_main(["reduce", str(f), "-o", str(out2)]) == 0
            capsys.readouterr()
            assert out2.read_bytes() == golden
            # parse -> print -> parse fixpoint
            ast = parse_netlist(f.read_text())
            text = print_netlist(ast)
            again = parse_netlist(text)
            assert again == ast, f"{stem}: printer is not a parser fixpoint"
            assert print_netlist(again) == text
            # the printed canonical form reduces to the same bytes
            canon = tmp_path / f"{stem}.slh"
            canon.write_text(text)
            if "sampled" not in text:
                out3 = tmp_path / f"{stem}-3.json"
                assert cli_main(["reduce", str(canon), "-o", str(out3)]) == 0
                capsys.readouterr()
                assert out3.read_bytes() == golden
        checked += 1
    assert report(8, "netlist corpus", checked >= 15, f"{checked} golden files")


# -- json goldens stay loadable -------------------------------------------


def test_golden_reports_are_valid_json():
    for f in GOLDEN.glob("*.json"):
        json.loads(f.read_text())
