"""Component constructors, the series product, and the feedback chains."""

import warnings

import numpy as np
import pytest

from slhforge import (
    ChannelMismatchError,
    HilbertSpace,
    Operator,
    OpPolynomial,
    SLHTriple,
    annihilator,
    beam_splitter,
    build_cancellation_chain,
    build_noisy_construction,
    cancellation_chain_components,
    cavity,
    creator,
    identity,
    number_op,
    pure_hamiltonian,
    series,
    series_chain,
    signal_adder,
    splitter_conjugate,
    system_coupling,
    triples_approx_equal,
    validate_triple,
)
from conftest import (
    random_bindings,
    random_hermitian,
    random_operator,
    random_triple,
    random_unitary,
)


SP = HilbertSpace.generic("q", 3)


# -- constructors ----------------------------------------------------------


def test_pure_hamiltonian_shape(rng):
    h = random_hermitian(rng, SP)
    g = pure_hamiltonian(h, SP, channels=2)
    assert g.channels == 2
    assert all(entry.is_zero() for entry in g.L)
    assert g.H.constant_part().approx_equal(h)


def test_pure_hamiltonian_rejects_non_self_adjoint(rng):
    x = random_operator(rng, SP)
    x = x + 2.0 * x.dagger()  # generically not Hermitian
    with pytest.raises(ValueError, match="self-adjoint"):
        pure_hamiltonian(x, SP)


def test_beam_splitter_rejects_non_unitary():
    with pytest.raises(ValueError, match="unitary"):
        beam_splitter([[2.0]], SP)
    with pytest.raises(ValueError, match="unitary"):
        beam_splitter([[np.nan]], SP)


def test_beam_splitter_entries(rng):
    T = random_unitary(rng, 2)
    g = beam_splitter(T, SP)
    assert g.channels == 2
    for i in range(2):
        for j in range(2):
            want = Operator(SP, T[i, j] * np.eye(3))
            assert g.S[i][j].constant_part().approx_equal(want)
    assert g.H.is_zero()


def test_signal_adder_entry_forms():
    g = signal_adder(["u", ("v", -2.0), OpPolynomial.of_signal(SP, "w", 3.0)], SP)
    assert g.channels == 3
    assert g.L[0] == OpPolynomial.of_signal(SP, "u")
    assert g.L[1] == OpPolynomial.of_signal(SP, "v", -2.0)
    assert g.L[2] == OpPolynomial.of_signal(SP, "w", 3.0)
    with pytest.raises(ValueError):
        signal_adder([], SP)


def test_system_coupling_infers_space(rng):
    L = random_operator(rng, SP)
    g = system_coupling([L])
    assert g.space == SP
    assert g.L[0].constant_part().approx_equal(L)
    with pytest.raises(ValueError):
        system_coupling([])


def test_cavity_component():
    sp = HilbertSpace.fock("c", 4)
    g = cavity(sp, "c", gamma=0.4, omega=1.5)
    a = annihilator(sp, "c")
    assert g.L[0].constant_part().approx_equal(np.sqrt(0.4) * a)
    assert g.H.constant_part().approx_equal(1.5 * number_op(sp, "c"))
    with pytest.raises(ValueError):
        cavity(sp, "c", gamma=-1.0, omega=0.0)


def test_component_constructors(rng):
    h = random_hermitian(rng, SP)
    assert pure_hamiltonian(h).H.constant_part().approx_equal(h)
    assert beam_splitter(np.eye(2), SP).channels == 2
    assert signal_adder(["u"], SP).channels == 1
    assert system_coupling([h]).channels == 1
    sp = HilbertSpace.fock("c", 2)
    assert cavity(sp, "c", gamma=1.0, omega=0.0).channels == 1


def test_triple_invariants():
    zero = OpPolynomial.zero(SP)
    one = OpPolynomial.constant(identity(SP))
    with pytest.raises(ValueError, match="square"):
        SLHTriple(((one, zero),), (zero,), zero)
    with pytest.raises(ValueError, match="entries"):
        SLHTriple(((one,),), (zero, zero), zero)


# -- series product --------------------------------------------------------


def manual_series_numeric(g2, g1, t, binds):
    """Independent numeric evaluation of the composition formula."""
    n = g2.channels
    S2 = np.array([[e.evaluate(t, binds).matrix for e in row] for row in g2.S])
    S1 = np.array([[e.evaluate(t, binds).matrix for e in row] for row in g1.S])
    L2 = [e.evaluate(t, binds).matrix for e in g2.L]
    L1 = [e.evaluate(t, binds).matrix for e in g1.L]
    H = g1.H.evaluate(t, binds).matrix + g2.H.evaluate(t, binds).matrix
    S = [[sum(S2[i][k] @ S1[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    L = [L2[i] + sum(S2[i][j] @ L1[j] for j in range(n)) for i in range(n)]
    cross = sum(
        L2[i].conj().T @ S2[i][j] @ L1[j] for i in range(n) for j in range(n)
    )
    H = H + (cross - cross.conj().T) * (-0.5j)
    return S, L, H


def test_series_matches_manual_formula(rng):
    for channels in (1, 2):
        g2 = random_triple(rng, 3, channels, signals=["u"])
        g1 = random_triple(rng, 3, channels, signals=["u", "v"])
        g = series(g2, g1)
        binds = random_bindings(rng, ["u", "v"])
        t = 0.3
        S, L, H = manual_series_numeric(g2, g1, t, binds)
        for i in range(channels):
            for j in range(channels):
                assert np.allclose(g.S[i][j].evaluate(t, binds).matrix, S[i][j], atol=1e-12)
            assert np.allclose(g.L[i].evaluate(t, binds).matrix, L[i], atol=1e-12)
        assert np.allclose(g.H.evaluate(t, binds).matrix, H, atol=1e-12)


def test_series_checks_channels_and_space(rng):
    g1 = random_triple(rng, 3, 1)
    g2 = random_triple(rng, 3, 2)
    with pytest.raises(ChannelMismatchError):
        series(g2, g1)
    other = random_triple(rng, 4, 1)
    with pytest.raises(ValueError, match="spaces"):
        series(g1, other)


def test_series_identity_element(rng):
    g = random_triple(rng, 3, 2, signals=["u"])
    ident = pure_hamiltonian(OpPolynomial.zero(g.space), g.space, channels=2)
    eq, rep = triples_approx_equal(series(g, ident), g, probe_bindings=random_bindings(rng, ["u"]))
    assert eq, rep
    eq, rep = triples_approx_equal(series(ident, g), g, probe_bindings=random_bindings(rng, ["u"]))
    assert eq, rep


def test_hamiltonian_components_commute_through(rng):
    g = random_triple(rng, 3, 1, signals=["u"])
    h = pure_hamiltonian(random_hermitian(rng, g.space), g.space)
    binds = random_bindings(rng, ["u"])
    eq, rep = triples_approx_equal(series(h, g), series(g, h), probe_bindings=binds)
    assert eq, rep


def test_series_chain_is_downstream_first(rng):
    a = random_triple(rng, 3, 1, signals=["u"])
    b = random_triple(rng, 3, 1)
    c = random_triple(rng, 3, 1, signals=["v"])
    binds = random_bindings(rng, ["u", "v"])
    eq, rep = triples_approx_equal(
        series_chain([a, b, c]), series(a, series(b, c)), probe_bindings=binds
    )
    assert eq, rep
    with pytest.raises(ValueError):
        series_chain([])


def test_series_chain_broadcasts_pure_hamiltonians(rng):
    h = random_hermitian(rng, SP)
    g = random_triple(rng, 3, 2, signals=["u"])
    ham2 = pure_hamiltonian(h, SP, channels=2)
    # a one-channel HAM takes its neighbour's channel count on either side
    assert series_chain([pure_hamiltonian(h, SP), g]) == series(ham2, g)
    assert series_chain([g, pure_hamiltonian(h, SP)]) == series(g, ham2)
    with pytest.raises(ChannelMismatchError, match="channel-count mismatch"):
        series_chain([random_triple(rng, 3, 1), g])


def test_series_is_not_commutative(rng):
    sp = HilbertSpace.fock("c", 3)
    a = annihilator(sp, "c")
    g1 = system_coupling([a], sp)
    g2 = system_coupling([a.dagger()], sp)
    eq, _ = triples_approx_equal(series(g2, g1), series(g1, g2))
    assert not eq
    # the two orders differ exactly by the sign of the cross term
    assert series(g2, g1).H.constant_part().approx_equal(
        -series(g1, g2).H.constant_part(), 1e-12
    )


# -- conjugation and reversal ---------------------------------------------


def test_splitter_conjugate_matches_direct_formula(rng):
    g = random_triple(rng, 3, 2, signals=["u"])
    T = random_unitary(rng, 2)
    got = splitter_conjugate(g, T)
    Tinv = T.conj().T
    eye = np.eye(3)

    def cnum(row):
        return tuple(OpPolynomial.constant(Operator(g.space, c * eye)) for c in row)

    S = tuple(
        tuple(
            sum(
                (
                    OpPolynomial.constant(Operator(g.space, Tinv[i, k] * eye)) * g.S[k][l]
                    * OpPolynomial.constant(Operator(g.space, T[l, j] * eye))
                    for k in range(2)
                    for l in range(2)
                ),
                OpPolynomial.zero(g.space),
            )
            for j in range(2)
        )
        for i in range(2)
    )
    L = tuple(
        sum(
            (OpPolynomial.constant(Operator(g.space, Tinv[i, k] * eye)) * g.L[k] for k in range(2)),
            OpPolynomial.zero(g.space),
        )
        for i in range(2)
    )
    want = SLHTriple(S, L, g.H)
    eq, rep = triples_approx_equal(got, want, tol=1e-10,
                                   probe_bindings=random_bindings(rng, ["u"]))
    assert eq, rep


def test_splitter_conjugate_validates_T(rng):
    g = random_triple(rng, 3, 2)
    with pytest.raises(ValueError):
        splitter_conjugate(g, np.eye(3))
    with pytest.raises(ValueError):
        splitter_conjugate(g, 2.0 * np.eye(2))


def test_reversal_identity_is_exact(rng):
    L = random_operator(rng, SP)
    g = system_coupling([L], SP)
    bs = beam_splitter(-np.eye(1), SP)
    sandwich = series(bs, series(g, bs))
    flipped = system_coupling([-L], SP)
    assert sandwich.S == flipped.S
    assert sandwich.L == flipped.L
    assert sandwich.H == flipped.H


# -- feedback constructions ------------------------------------------------


def test_cancellation_chain_component_list(rng):
    L = random_operator(rng, SP)
    H0 = random_hermitian(rng, SP)
    comps = cancellation_chain_components([L], H0, ["u"], SP)
    assert len(comps) == 7
    assert all(c.channels == 1 for c in comps)
    # downstream-first: the pure-Hamiltonian piece leads, SYS closes
    assert comps[0].H.constant_part().approx_equal(H0)
    assert comps[-1].L[0].constant_part().approx_equal(L)
    with pytest.raises(ValueError):
        cancellation_chain_components([L], H0, ["u", "v"], SP)


def test_cancellation_chain_is_closed_and_bilinear(rng):
    L = random_operator(rng, SP)
    H0 = random_hermitian(rng, SP)
    g = build_cancellation_chain([L], H0, ["u"], SP)
    # couplings cancel to the exact zero polynomial, S is exactly I
    assert all(entry.is_zero() for entry in g.L)
    assert g.S == (((OpPolynomial.constant(identity(SP))),),)
    # the effective Hamiltonian gains the bilinear term twice over; its
    # signal terms come out bit-exact, the constant term only to roundoff
    Ldag_u = OpPolynomial.constant(L.dagger()) * OpPolynomial.of_signal(SP, "u")
    want = OpPolynomial.constant(H0) + 2.0 * Ldag_u.imag()
    assert g.H - want == OpPolynomial.constant(g.H.constant_part() - H0)
    assert g.H.max_coeff_diff(want) < 1e-13


def test_noisy_construction_keeps_the_coupling(rng):
    L = random_operator(rng, SP)
    H0 = random_hermitian(rng, SP)
    g = build_noisy_construction(np.eye(1), [L], H0, ["u"], SP)
    assert g.L[0] == OpPolynomial.constant(L)
    Ldag_u = OpPolynomial.constant(L.dagger()) * OpPolynomial.of_signal(SP, "u")
    assert g.H == OpPolynomial.constant(H0) + 2.0 * Ldag_u.imag()
    with pytest.raises(ValueError):
        build_noisy_construction(np.eye(2), [L], H0, ["u"], SP)


def test_noisy_and_cancellation_share_the_hamiltonian_term(rng):
    L = random_operator(rng, SP)
    H0 = random_hermitian(rng, SP)
    chain = build_cancellation_chain([L], H0, ["u"], SP)
    noisy = build_noisy_construction(np.eye(1), [L], H0, ["u"], SP)
    assert chain.H.approx_equal(noisy.H, 1e-13)


# -- validation and comparison --------------------------------------------


def test_validate_triple_accepts_good_triples(rng):
    g = random_triple(rng, 3, 2, signals=["u"])
    validate_triple(g, probe_times=[0.0, 1.0], bindings=random_bindings(rng, ["u"]))


def test_validate_triple_rejects_bad_hamiltonian(rng):
    g = random_triple(rng, 3, 1)
    bad = SLHTriple(g.S, g.L, OpPolynomial.constant(random_operator(rng, SP)))
    with pytest.raises(ValueError, match="self-adjoint"):
        validate_triple(bad)


def test_validate_triple_warns_on_signal_dependent_S(rng):
    g = random_triple(rng, 3, 1)
    # the tiny coefficient keeps S unitary within tol but flags the signal
    S = ((g.S[0][0] + OpPolynomial.of_signal(SP, "u", 1e-14),),)
    odd = SLHTriple(S, g.L, g.H)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        validate_triple(odd, bindings=random_bindings(rng, ["u"]), tol=1e-10)
    assert any("signals" in str(w.message) for w in caught)


def test_triples_approx_equal_reports_differences(rng):
    g = random_triple(rng, 3, 1)
    other = SLHTriple(g.S, g.L, g.H + OpPolynomial.constant(identity(SP)))
    eq, rep = triples_approx_equal(g, other)
    assert not eq and rep.startswith("H differs")
    eq, rep = triples_approx_equal(g, random_triple(rng, 3, 2))
    assert not eq and "channel" in rep


def test_triples_approx_equal_rejects_nan(rng):
    g = random_triple(rng, 3, 1)
    bad = np.zeros((3, 3))
    bad[2, 2] = np.nan
    nan_h = SLHTriple(g.S, g.L, g.H + OpPolynomial.constant(Operator(SP, bad)))
    eq, rep = triples_approx_equal(g, nan_h, tol=1e300)
    assert not eq and rep == "H differs by nan at t=0.0"
    eq, _ = triples_approx_equal(nan_h, nan_h, tol=1e300)
    assert not eq


def test_triples_approx_equal_handles_unbound_signals(rng):
    g = random_triple(rng, 3, 1)
    other = SLHTriple(g.S, g.L, g.H + OpPolynomial.of_signal(SP, "u"))
    eq, rep = triples_approx_equal(g, other)
    assert not eq and "u" in rep
