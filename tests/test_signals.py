"""Scalar signals, signal monomials, and operator-coefficient polynomials."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slhforge import (
    ComplexExponentialSignal,
    ConstantSignal,
    GaussianPulseSignal,
    HilbertSpace,
    Operator,
    OpPolynomial,
    SampledSignal,
    Signal,
    SignalMonomial,
    identity,
)
from slhforge.hilbert import SPARSE_MIN_DIM
from conftest import constant_term, random_bindings, random_matrix, random_operator, random_poly
from reference import approx_equal


SP = HilbertSpace.generic("q", 3)


# -- signals ---------------------------------------------------------------


def test_constant_signal():
    u = ConstantSignal("u", 2.0 - 1.0j)
    assert u(0.0) == 2.0 - 1.0j
    assert u(17.3) == 2.0 - 1.0j
    assert u.horizon is None


def test_complex_exponential_values():
    u = ComplexExponentialSignal("u", amplitude=2.0, frequency=3.0, phase=0.5)
    t = 0.7
    assert u(t) == pytest.approx(2.0 * np.exp(1j * (3.0 * t + 0.5)))


def test_gaussian_pulse_peak_and_symmetry():
    u = GaussianPulseSignal("u", amplitude=1.5, center=2.0, width=0.4)
    assert u(2.0) == pytest.approx(1.5)
    assert u(1.5) == pytest.approx(u(2.5))
    assert abs(u(10.0)) < 1e-80


def test_gaussian_pulse_rejects_bad_width():
    with pytest.raises(ValueError):
        GaussianPulseSignal("u", 1.0, 0.0, 0.0)


def test_sampled_signal_interpolates_linearly():
    u = SampledSignal("u", [0.0, 1.0, 2.0], [0.0, 2.0 + 2.0j, 0.0])
    assert u(0.5) == pytest.approx(1.0 + 1.0j)
    assert u(1.0) == pytest.approx(2.0 + 2.0j)
    assert u.horizon == (0.0, 2.0)


def test_sampled_signal_rejects_extrapolation():
    u = SampledSignal("u", [0.0, 1.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        u(-0.1)
    with pytest.raises(ValueError):
        u(1.1)


def test_sampled_signal_input_validation():
    with pytest.raises(ValueError):
        SampledSignal("u", [0.0], [1.0])
    with pytest.raises(ValueError):
        SampledSignal("u", [0.0, 0.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        SampledSignal("u", [0.0, 1.0], [1.0])
    for times, values in [([0.0, np.nan], [1.0, 1.0]), ([0.0, np.inf], [1.0, 1.0]),
                          ([-np.inf, 0.0], [1.0, 1.0]), ([0.0, 1.0], [1.0, np.nan]),
                          ([0.0, 1.0], [complex(1.0, -np.inf), 1.0])]:
        with pytest.raises(ValueError, match="^sample times and values must be finite$"):
            SampledSignal("u", times, values)


def test_sampled_signal_round_trips_through_csv(tmp_path):
    path = tmp_path / "drive.csv"
    path.write_text("t,re,im\n0.0,1.0,0.5\n1.0,2.0,-0.5\n")
    u = SampledSignal.from_csv("u", path)
    assert u(0.0) == 1.0 + 0.5j
    assert u(1.0) == 2.0 - 0.5j


def test_sampled_signal_csv_header_is_checked(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,real,imag\n0.0,1.0,0.0\n")
    with pytest.raises(ValueError, match="t,re,im"):
        SampledSignal.from_csv("u", path)


@pytest.mark.parametrize("rows, line, message", [
    ("0.0,1.0,0.5\n0.5,1.0\n", 3, "expected 3 fields t,re,im, got 2"),
    ("0.0,1.0,0.5\n\n0.5,1.0,0.5,0.0\n", 4, "expected 3 fields t,re,im, got 4"),
    ("0.0,1.0,0.5\n0.5,x,0.5\n", 3, "could not convert string to float: 'x'"),
], ids=["two_fields", "four_fields_after_a_blank_line", "non_numeric"])
def test_malformed_csv_row_names_its_line(tmp_path, rows, line, message):
    path = tmp_path / "drive.csv"
    path.write_text("t,re,im\n" + rows)
    with pytest.raises(ValueError) as exc:
        SampledSignal.from_csv("u", path)
    assert str(exc.value) == f"{path}: line {line}: {message}"


def test_non_finite_csv_row_keeps_the_constructor_message(tmp_path):
    path = tmp_path / "drive.csv"
    path.write_text("t,re,im\n0.0,1.0,0.5\n0.5,nan,0.5\n")
    with pytest.raises(ValueError, match="^sample times and values must be finite$"):
        SampledSignal.from_csv("u", path)


# every built-in kind, on a grid that crosses zero and the pulse's wings
GRID = np.linspace(-0.3, 1.7, 401)
KINDS = {
    "constant": ConstantSignal("u", 2.0 - 1.0j),
    "exponential": ComplexExponentialSignal("u", 0.8 - 0.3j, 2.1, 0.4),
    "gaussian": GaussianPulseSignal("u", 0.35 - 0.2j, 0.4, 0.25),
    "sampled": SampledSignal("u", np.linspace(-0.3, 1.7, 9),
                             np.cos(np.arange(9)) - 1j * np.sin(2.0 * np.arange(9))),
}


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_sample_matches_call_on_a_grid(kind):
    u = KINDS[kind]
    got = u.sample(GRID)
    want = np.array([u(t) for t in GRID], dtype=complex)
    assert got.dtype == complex and got.shape == GRID.shape
    if kind == "gaussian":  # np.exp over the array, not math.exp per time
        assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want))
    else:
        assert got.tobytes() == want.tobytes()


def test_sampled_signal_sample_outside_horizon_raises_the_call_message():
    u = SampledSignal("u", [0.0, 1.0, 2.0], [0.0, 2.0 + 2.0j, 0.0])
    with pytest.raises(ValueError) as want:
        u(2.5)
    with pytest.raises(ValueError) as got:
        u.sample(np.array([0.0, 0.5, 2.5, -1.0]))
    assert str(got.value) == str(want.value)
    assert "t=2.5" in str(got.value)


def test_base_sample_calls_the_signal_once_per_time():
    calls = []

    class Ramp(Signal):  # defines only __call__
        def __call__(self, t):
            calls.append(t)
            return complex(t, -2.0 * t)

    got = Ramp("u").sample(GRID)
    assert calls == list(GRID)
    assert got.tobytes() == np.array([complex(t, -2.0 * t) for t in GRID]).tobytes()


# -- monomials -------------------------------------------------------------


def test_monomial_canonical_order_is_enforced():
    with pytest.raises(ValueError):
        SignalMonomial((("v", 1, 0), ("u", 1, 0)))
    with pytest.raises(ValueError):
        SignalMonomial((("u", 0, 0),))


def test_monomial_product_merges_exponents():
    m = SignalMonomial.of("u") * SignalMonomial.of("u", 0, 1) * SignalMonomial.of("v")
    assert m.entries == (("u", 1, 1), ("v", 1, 0))
    assert m.degree == 3
    assert str(m) == "u*conj(u)*v"


def test_monomial_dagger_swaps_powers():
    m = SignalMonomial.of("u", 2, 1)
    assert m.dagger().entries == (("u", 1, 2),)
    assert m.dagger().dagger() == m


def test_monomial_evaluate(rng):
    m = SignalMonomial.of("u", 1, 2)
    binds = random_bindings(rng, ["u"])
    v = binds["u"](0.0)
    assert m.evaluate(0.0, binds) == pytest.approx(v * v.conjugate() ** 2)
    with pytest.raises(KeyError):
        m.evaluate(0.0, {})


# -- polynomials -----------------------------------------------------------


def test_zero_coefficients_are_pruned(rng):
    p = random_poly(rng, SP, ["u"])
    assert (p - p).is_zero()
    assert p + (-p) == OpPolynomial.zero(SP)


def test_equality_is_canonical(rng):
    p = random_poly(rng, SP, ["u"])
    q = random_poly(rng, SP, ["u", "v"])
    r = random_poly(rng, SP)
    # commutativity of + is bit-exact; associativity only up to roundoff
    assert p + q == q + p
    assert approx_equal((p + q) + r, p + (q + r), 1e-12)
    assert p != p + q or q.is_zero()


def test_coefficients_are_copied_in_and_shared_read_only(rng):
    m = random_operator(rng, SP).matrix.copy()
    p = OpPolynomial(SP, {SignalMonomial(): m})
    m[0, 0] += 1.0
    assert not np.array_equal(p.terms[SignalMonomial()], m)
    coeff = p.terms[SignalMonomial()]
    assert not coeff.flags.writeable
    with pytest.raises(ValueError):
        coeff[0, 0] = 0.0
    # the algebra shares a coefficient it does not change, and freezes what it computes
    q = p + OpPolynomial.of_signal(SP, "u")
    assert q.terms[SignalMonomial()] is coeff
    r = p.scale(2.0) * q
    assert all(not c.flags.writeable and c.flags.c_contiguous for c in r.terms.values())
    d = (p * q).dagger()
    assert all(not c.flags.writeable and c.flags.c_contiguous for c in d.terms.values())


def test_dagger_and_imag_on_a_one_state_space():
    sp = HilbertSpace.generic("q", 1)
    p = OpPolynomial.constant(Operator(sp, [[1 + 2j]]))
    assert np.array_equal(p.dagger().terms[SignalMonomial()], [[1 - 2j]])
    assert np.array_equal(p.imag().terms[SignalMonomial()], [[2.0]])
    assert np.array_equal(p.terms[SignalMonomial()], [[1 + 2j]])  # the operand is unchanged


def _bits(p: OpPolynomial) -> list:
    """Each monomial in order, with its coefficient's bytes (a CSR one's
    index arrays too): signed zeros count."""
    return [(m, c.tobytes()) if isinstance(c, np.ndarray)
            else (m, c.indptr.tobytes(), c.indices.tobytes(), c.data.tobytes())
            for m, c in p.terms.items()]


def _poly(rng, sp, signals):
    """random_poly; on a space stored as CSR, each coefficient keeps about
    one entry in twenty, as a reduction's coefficients are sparse."""
    d = sp.total_dim
    if d < SPARSE_MIN_DIM:
        return random_poly(rng, sp, signals)
    monos = [SignalMonomial()] + [SignalMonomial.of(name) for name in signals]
    return OpPolynomial(sp, {m: random_matrix(rng, d) * (rng.random((d, d)) < 0.05)
                             for m in monos})


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_imag_and_sum_write_the_bits_of_their_written_out_forms(seed):
    rng = np.random.default_rng(seed)
    for sp in (SP, HilbertSpace.generic("q", SPARSE_MIN_DIM)):  # dense, then CSR
        p = _poly(rng, sp, ["u", "v"])
        q = _poly(rng, sp, ["u"])
        # imag() writes each coefficient as (c - c'†)·s, the bits and the
        # monomial order of (p - p†)/(2i)
        for x in (p, p * p.dagger(), p.dagger() * q):
            assert _bits(x.imag()) == _bits((x - x.dagger()).scale(-0.5j))
        # a coefficient that cancels in a many-term sum is dropped at its
        # step and comes back at the end of the order, as + drops it
        polys = [p, q, -p, p, q.scale(0.5)]
        operands = [_bits(x) for x in polys]
        pairwise = polys[0]
        for x in polys[1:]:
            pairwise = pairwise + x
        assert _bits(OpPolynomial._sum(polys)) == _bits(pairwise)
        assert [_bits(x) for x in polys] == operands  # the operands are unchanged
        # a zero operand, first, between or last, takes no part: the sum
        # keeps its bytes, and the sum of one nonzero operand among zeros
        # is that operand
        zero = OpPolynomial.zero(sp)
        mixed = [zero, p, zero, q, -p, zero, p, q.scale(0.5), zero]
        assert _bits(OpPolynomial._sum(mixed)) == _bits(pairwise)
        assert [_bits(x) for x in polys] == operands
        for sole in ([p], [zero, p], [p, zero], [zero, zero, p, zero]):
            assert OpPolynomial._sum(sole) is p
        assert OpPolynomial._sum([zero, OpPolynomial.zero(sp)]).is_zero()


def test_polynomials_are_not_hashable():
    with pytest.raises(TypeError):
        hash(OpPolynomial.constant(identity(SP)))


def test_degree_cap_guards_against_blowup():
    u = OpPolynomial.of_signal(SP, "u")
    p = u
    for _ in range(7):
        p = p * u
    with pytest.raises(ValueError, match="degree cap"):
        p * u


def test_constant_part_and_signal_set(rng):
    x = random_operator(rng, SP)
    p = OpPolynomial.constant(x) + OpPolynomial.of_signal(SP, "u")
    assert approx_equal(constant_term(p), x)
    assert p.signals() == {"u"}
    assert not p.is_constant()
    assert OpPolynomial.constant(x).is_constant()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_evaluation_is_a_homomorphism(seed):
    rng = np.random.default_rng(seed)
    p = random_poly(rng, SP, ["u"])
    q = random_poly(rng, SP, ["u", "v"])
    binds = random_bindings(rng, ["u", "v"])
    t = float(rng.standard_normal())
    sum_eval = (p + q).evaluate(t, binds)
    mul_eval = (p * q).evaluate(t, binds)
    assert approx_equal(sum_eval, p.evaluate(t, binds) + q.evaluate(t, binds), 1e-9)
    assert approx_equal(mul_eval, p.evaluate(t, binds) @ q.evaluate(t, binds), 1e-8)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_dagger_and_imag_structure(seed):
    rng = np.random.default_rng(seed)
    p = random_poly(rng, SP, ["u"])
    q = random_poly(rng, SP, ["u"])
    # antihomomorphism on the polynomial level
    assert (p * q).dagger() == q.dagger() * p.dagger() \
        or approx_equal((p * q).dagger(), q.dagger() * p.dagger(), 1e-10)
    # the formal imaginary part is exactly self-adjoint
    im = p.imag()
    assert im.dagger() == im


def test_scalar_and_scale(rng):
    p = OpPolynomial.scalar(SP, 2.0 + 1.0j)
    assert approx_equal(constant_term(p), (2.0 + 1.0j) * identity(SP))
    q = random_poly(rng, SP, ["u"])
    assert approx_equal(2.0 * q, q + q, 1e-12)
    assert approx_equal(q * 2.0, q.scale(2.0))


@pytest.mark.parametrize("dim", [3, SPARSE_MIN_DIM])
def test_products_with_identity_multiples_match_matmul(rng, dim):
    sp = HilbertSpace.generic("q", dim)
    eye = np.eye(dim)
    near = [eye.copy() for _ in range(3)]  # one entry off c·I each
    near[0][dim - 1, dim - 1] = 2.0
    near[1][0, dim - 1] = 0.5
    near[2][0, 0] = 0.0
    perm = eye[[0, 2, 1, *range(3, dim)]]  # d nonzeros with [0, 0] = 1, not diagonal
    shift = np.roll(eye, 1, axis=1)  # d nonzeros and a zero diagonal
    coeffs = [(0.3 - 1.7j) * eye, -eye, *near, perm, shift,
              random_operator(rng, sp).matrix]
    monos = [SignalMonomial.of(name, p, q) for name in ("u", "v") for p, q in ((1, 0), (0, 1))]
    monos += [SignalMonomial(), SignalMonomial.of("u", 1, 1), SignalMonomial.of("v", 2, 0),
              SignalMonomial.of("v", 1, 1)]
    left = OpPolynomial(sp, dict(zip(monos, coeffs)))
    right = OpPolynomial(sp, dict(zip(monos[::-1], coeffs)))
    # the operands take the storage form of their dimension: CSR from d = 100
    assert all(getattr(c, "format", "dense") == ("csr" if dim >= SPARSE_MIN_DIM else "dense")
               for c in left.terms.values())
    for a, b in ((left, right), (right, left), (left, left)):
        want: dict = {}
        for m1, c1 in a.terms.items():
            for m2, c2 in b.terms.items():
                want[m1 * m2] = want.get(m1 * m2, 0) + c1 @ c2
        assert (a * b).max_coeff_diff(OpPolynomial(sp, want)) < 1e-12


def test_mismatched_spaces_are_rejected(rng):
    other = HilbertSpace.generic("r", 3)
    p = random_poly(rng, SP)
    q = random_poly(rng, other)
    with pytest.raises(ValueError):
        p + q
    with pytest.raises(ValueError):
        p * q
    with pytest.raises(ValueError):
        approx_equal(p, q)


def test_nan_coefficients_fail_the_comparisons(rng):
    p = random_poly(rng, SP, signals=["u"])
    bad = np.zeros((3, 3))
    bad[0, 1] = np.nan
    q = p + OpPolynomial.constant(Operator(SP, bad))
    # the u coefficients differ by 1, the constant ones by NaN
    r = q + OpPolynomial.of_signal(SP, "u")
    assert np.isnan(q.max_coeff_diff(p)) and np.isnan(r.max_coeff_diff(p))
    assert np.isnan(q.max_coeff_diff(q))
    assert not approx_equal(q, q, 1e300)
    assert not approx_equal(r, p, 1e300)
    assert p.max_coeff_diff(p) == 0.0 and approx_equal(p, p, 0.0)


def test_str_lists_monomials():
    p = OpPolynomial.of_signal(SP, "u") + OpPolynomial.constant(identity(SP))
    assert str(p) == "[1] + [u]"
    assert str(OpPolynomial.zero(SP)) == "0"


def test_evaluate_requires_bindings_for_signals():
    p = OpPolynomial.of_signal(SP, "u")
    with pytest.raises(KeyError):
        p.evaluate(0.0)
    c = OpPolynomial.constant(identity(SP))
    assert approx_equal(c.evaluate(0.0), identity(SP))
