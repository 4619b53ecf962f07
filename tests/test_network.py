"""Component constructors, the series product, and the feedback chains."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    fock_factor,
    identity,
    number_op,
    pure_hamiltonian,
    series,
    series_chain,
    signal_adder,
    system_coupling,
    validate_triple,
)
from slhforge.hilbert import SPARSE_MIN_DIM
from reference import dense, triples_approx_equal
from conftest import (
    constant_term,
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
    assert constant_term(g.H).approx_equal(h)


def test_pure_hamiltonian_needs_a_channel():
    with pytest.raises(ValueError, match="^HAM needs at least one channel$"):
        pure_hamiltonian(number_op(HilbertSpace.fock("c", 2), "c"), channels=0)


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
            assert abs(g.T[i, j] - T[i, j]) <= 1e-10
            # the S view: T_ij·I as a polynomial
            want = Operator(SP, T[i, j] * np.eye(3))
            assert constant_term(g.S[i][j]).approx_equal(want)
    assert g.H.is_zero()

def test_signal_adder_entry_forms():
    g = signal_adder(["u", ("v", -2.0), OpPolynomial.of_signal(SP, "w", 3.0)], SP)
    assert g.channels == 3
    assert g.L[0] == OpPolynomial.of_signal(SP, "u")
    assert g.L[1] == OpPolynomial.of_signal(SP, "v", -2.0)
    assert g.L[2] == OpPolynomial.of_signal(SP, "w", 3.0)
    with pytest.raises(ValueError):
        signal_adder([], SP)


@pytest.mark.parametrize("s", [0.3 + 0.4j, 0.1 + 0.7j, 1 / 3 + 1j / 7])
@pytest.mark.parametrize("cutoffs", [(1,), (10, 10)], ids=["d2", "d121"])
def test_adders_of_opposite_complex_scale_cancel_exactly(s, cutoffs):
    # the c·I coefficients multiply as scalars at either dimension
    sp = HilbertSpace([fock_factor(f"c{i}", c) for i, c in enumerate(cutoffs)])
    g = series(signal_adder([("u", -s)], sp), signal_adder([("u", s)], sp))
    assert g.L[0].is_zero()
    assert g.H.is_zero()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(s=st.complex_numbers(min_magnitude=0.1, max_magnitude=10.0,
                            allow_nan=False, allow_infinity=False),
       dim=st.sampled_from([2, 3, 4, 5, SPARSE_MIN_DIM]), seed=st.integers(0, 2**32 - 1))
@example(s=0.3 + 0.4j, dim=SPARSE_MIN_DIM, seed=0)
def test_couplings_of_opposite_complex_scale_cancel_exactly(s, dim, seed):
    # Im((-s X)† (s X)) = -|s|² Im(X†X) = 0: the constant monomial's
    # product takes separate real products, so it rounds to a Hermitian
    # matrix and H cancels exactly, as for the adders above.  At d = 100 X
    # is CSR, and the sparse product sums (XᵀX)ᵢⱼ and (XᵀX)ⱼᵢ in the one
    # order of k, so it is bit-symmetric there too
    sp = HilbertSpace.generic("q", dim)
    X = random_operator(np.random.default_rng(seed), sp)
    g = series(system_coupling([-s * X]), system_coupling([s * X]))
    assert all(entry.is_zero() for entry in g.L)
    assert g.H.is_zero()


def test_system_coupling_infers_space(rng):
    L = random_operator(rng, SP)
    g = system_coupling([L])
    assert g.space == SP
    assert constant_term(g.L[0]).approx_equal(L)
    with pytest.raises(ValueError):
        system_coupling([])


def test_cavity_component():
    sp = HilbertSpace.fock("c", 4)
    g = cavity(sp, "c", gamma=0.4, omega=1.5)
    a = annihilator(sp, "c")
    assert constant_term(g.L[0]).approx_equal(np.sqrt(0.4) * a)
    assert constant_term(g.H).approx_equal(1.5 * number_op(sp, "c"))
    with pytest.raises(ValueError):
        cavity(sp, "c", gamma=-1.0, omega=0.0)


def test_component_constructors(rng):
    h = random_hermitian(rng, SP)
    assert constant_term(pure_hamiltonian(h).H).approx_equal(h)
    assert beam_splitter(np.eye(2), SP).channels == 2
    assert signal_adder(["u"], SP).channels == 1
    assert system_coupling([h]).channels == 1
    sp = HilbertSpace.fock("c", 2)
    assert cavity(sp, "c", gamma=1.0, omega=0.0).channels == 1


def test_triple_invariants():
    zero = OpPolynomial.zero(SP)
    with pytest.raises(ValueError, match="square"):
        SLHTriple([[1, 0]], (zero,), zero)
    with pytest.raises(ValueError, match="entries"):
        SLHTriple([[1]], (zero, zero), zero)


# -- series product --------------------------------------------------------


def manual_series_numeric(g2, g1, t, binds):
    """Independent numeric evaluation of the composition formula."""
    n = g2.channels
    T2, T1 = g2.T, g1.T
    L2 = [e.evaluate(t, binds).matrix for e in g2.L]
    L1 = [e.evaluate(t, binds).matrix for e in g1.L]
    H = g1.H.evaluate(t, binds).matrix + g2.H.evaluate(t, binds).matrix
    S = [[sum(T2[i, k] * T1[k, j] for k in range(n)) for j in range(n)] for i in range(n)]
    L = [L2[i] + sum(T2[i, j] * L1[j] for j in range(n)) for i in range(n)]
    cross = sum(
        T2[i, j] * (L2[i].conj().T @ L1[j]) for i in range(n) for j in range(n)
    )
    H = H + (cross - cross.conj().T) * (-0.5j)
    return S, L, H


def test_series_matches_manual_formula(rng):
    for channels in (1, 2, 3):
        g2 = random_triple(rng, 3, channels, signals=["u"])
        g1 = random_triple(rng, 3, channels, signals=["u", "v"])
        g = series(g2, g1)
        binds = random_bindings(rng, ["u", "v"])
        t = 0.3
        S, L, H = manual_series_numeric(g2, g1, t, binds)
        for i in range(channels):
            for j in range(channels):
                assert np.allclose(g.T[i, j], S[i][j], atol=1e-12)
            assert np.allclose(g.L[i].evaluate(t, binds).matrix, L[i], atol=1e-12)
        assert np.allclose(g.H.evaluate(t, binds).matrix, H, atol=1e-12)


def _series_of_every_operand(g2, g1):
    """The series product summing and multiplying every operand, zero ones
    included: the reference for series, which leaves zero operands out."""
    zero = OpPolynomial.zero(g1.space)
    routed = [OpPolynomial._sum((zero, *(p if t == 1 else p.scale(t)
                                         for t, p in zip(row, g1.L) if t != 0)))
              for row in g2.T]
    L = tuple(l2 + r for l2, r in zip(g2.L, routed))
    cross = OpPolynomial._sum(l2.dagger() * r for l2, r in zip(g2.L, routed)).imag()
    return SLHTriple(g2.T @ g1.T, L, OpPolynomial._sum((g1.H, g2.H, cross)))


def _bits(g):
    """Every bit of a triple: T, then each polynomial's monomials and the
    bytes of their dense coefficients."""
    polys = [*g.L, g.H]
    return (g.T.tobytes(), [[(m, np.asarray(dense(c)).tobytes()) for m, c in p.terms.items()]
                            for p in polys])


@pytest.mark.parametrize("cutoff", [15, 9], ids=["d16", "d100_csr"])
def test_zero_operands_take_no_part_in_the_series_product(rng, monkeypatch, cutoff):
    # the chain's BS(-I) and HAM steps have L2 = 0: they form no cross
    # product, and every step keeps the bits of the product that sums and
    # multiplies every operand
    sp = HilbertSpace([fock_factor("c", cutoff), fock_factor("d", 9)] if cutoff == 9
                      else [fock_factor("c", cutoff)])
    L = 0.6 * annihilator(sp, "c") + (0.1 - 0.2j) * number_op(sp, "c")
    H0 = number_op(sp, "c") + 0.3 * (creator(sp, "c") + annihilator(sp, "c"))
    comps = cancellation_chain_components([L], H0, ["u"], sp)
    acc = comps[-1]
    for g in reversed(comps[:-1]):
        step, want = series(g, acc), _series_of_every_operand(g, acc)
        assert _bits(step) == _bits(want)
        acc = step
    g2 = random_triple(rng, 4, 2, signals=["u"])
    zero_l = SLHTriple(random_unitary(rng, 2), (OpPolynomial.zero(g2.space), g2.L[1]), g2.H)
    for pair in ((zero_l, g2), (g2, zero_l), (zero_l, zero_l)):
        assert _bits(series(*pair)) == _bits(_series_of_every_operand(*pair))

    products = []
    mul = OpPolynomial.__mul__
    monkeypatch.setattr(OpPolynomial, "__mul__",
                        lambda p, q: products.append(1) or mul(p, q))
    g = build_cancellation_chain([L], H0, ["u"], sp)
    assert len(products) == 3 and all(entry.is_zero() for entry in g.L)


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
    assert constant_term(series(g2, g1).H).approx_equal(
        -constant_term(series(g1, g2).H), 1e-12
    )


# -- conjugation and reversal ---------------------------------------------


def test_splitter_conjugate_matches_direct_formula(rng):
    g = random_triple(rng, 3, 2, signals=["u"])
    T = random_unitary(rng, 2)
    Tinv = T.conj().T
    # the defining identity: (T^-1, 0, 0) <| g <| (T, 0, 0)
    got = series(beam_splitter(Tinv, g.space), series(g, beam_splitter(T, g.space)))
    eye = np.eye(3)
    S = [[sum(Tinv[i, k] * g.T[k, l] * T[l, j] for k in range(2) for l in range(2))
          for j in range(2)]
         for i in range(2)]
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

    def conjugate(T):
        return series(beam_splitter(T.conj().T, g.space), series(g, beam_splitter(T, g.space)))

    with pytest.raises(ValueError, match="channel-count mismatch"):
        conjugate(np.eye(3))
    with pytest.raises(ValueError, match="unitary"):
        conjugate(2.0 * np.eye(2))


def test_reversal_identity_is_exact(rng):
    L = random_operator(rng, SP)
    g = system_coupling([L], SP)
    bs = beam_splitter(-np.eye(1), SP)
    sandwich = series(bs, series(g, bs))
    flipped = system_coupling([-L], SP)
    assert np.array_equal(sandwich.T, flipped.T)
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
    assert constant_term(comps[0].H).approx_equal(H0)
    assert constant_term(comps[-1].L[0]).approx_equal(L)
    with pytest.raises(ValueError):
        cancellation_chain_components([L], H0, ["u", "v"], SP)


def test_cancellation_chain_is_closed_and_bilinear(rng):
    L = random_operator(rng, SP)
    H0 = random_hermitian(rng, SP)
    g = build_cancellation_chain([L], H0, ["u"], SP)
    # couplings cancel to the exact zero polynomial, S is exactly I
    assert all(entry.is_zero() for entry in g.L)
    assert np.array_equal(g.T, np.eye(1))
    # the effective Hamiltonian gains the bilinear term twice over; its
    # signal terms come out bit-exact, the constant term only to roundoff
    Ldag_u = OpPolynomial.constant(L.dagger()) * OpPolynomial.of_signal(SP, "u")
    want = OpPolynomial.constant(H0) + 2.0 * Ldag_u.imag()
    assert g.H - want == OpPolynomial.constant(constant_term(g.H) - H0)
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
    validate_triple(g)


def test_validate_triple_rejects_bad_hamiltonian(rng):
    g = random_triple(rng, 3, 1)
    bad = SLHTriple(g.T, g.L, OpPolynomial.constant(random_operator(rng, SP)))
    with pytest.raises(ValueError, match="self-adjoint"):
        validate_triple(bad)


def test_validate_triple_checks_S_as_one_block_operator(rng):
    sp = HilbertSpace.generic("q", 2)
    zero = OpPolynomial.zero(sp)

    def closed(T):
        """(T, 0, 0): H = 0, so only the S rule can fail."""
        return SLHTriple(T, (zero,) * len(T), zero)

    T = random_unitary(rng, 2)
    validate_triple(closed(T), tol=1e-10)
    T[0, 0] = 2.0
    with pytest.raises(ValueError, match="unitarity"):
        validate_triple(closed(T), tol=1e-10)
    # NaN fails at any tolerance
    T[0, 0] = np.nan
    with pytest.raises(ValueError, match="unitarity"):
        validate_triple(closed(T), tol=1e300)
    with pytest.raises(ValueError, match="unitarity"):
        validate_triple(closed([[np.nan]]), tol=1e300)
    # each diagonal entry is unitary; the whole of T is not
    with pytest.raises(ValueError, match="unitarity"):
        validate_triple(closed([[1, 1], [0, 1]]), tol=1e-10)


def test_triples_approx_equal_reports_differences(rng):
    g = random_triple(rng, 3, 1)
    other = SLHTriple(g.T, g.L, g.H + OpPolynomial.constant(identity(SP)))
    eq, rep = triples_approx_equal(g, other)
    assert not eq and rep.startswith("H differs")
    eq, rep = triples_approx_equal(g, random_triple(rng, 3, 2))
    assert not eq and "channel" in rep


def test_triples_approx_equal_rejects_nan(rng):
    g = random_triple(rng, 3, 1)
    bad = np.zeros((3, 3))
    bad[2, 2] = np.nan
    nan_h = SLHTriple(g.T, g.L, g.H + OpPolynomial.constant(Operator(SP, bad)))
    eq, rep = triples_approx_equal(g, nan_h, tol=1e300)
    assert not eq and rep == "H differs by nan at t=0.0"
    eq, _ = triples_approx_equal(nan_h, nan_h, tol=1e300)
    assert not eq


def test_triples_approx_equal_handles_unbound_signals(rng):
    g = random_triple(rng, 3, 1)
    other = SLHTriple(g.T, g.L, g.H + OpPolynomial.of_signal(SP, "u"))
    eq, rep = triples_approx_equal(g, other)
    assert not eq and "u" in rep
