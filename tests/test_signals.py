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
    SignalMonomial,
    identity,
)
from conftest import random_operator, random_poly, random_bindings


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
    assert ((p + q) + r).approx_equal(p + (q + r), 1e-12)
    assert p != p + q or q.is_zero()


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
    assert p.constant_part().approx_equal(x)
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
    assert sum_eval.approx_equal(p.evaluate(t, binds) + q.evaluate(t, binds), 1e-9)
    assert mul_eval.approx_equal(p.evaluate(t, binds) @ q.evaluate(t, binds), 1e-8)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_dagger_and_imag_structure(seed):
    rng = np.random.default_rng(seed)
    p = random_poly(rng, SP, ["u"])
    q = random_poly(rng, SP, ["u"])
    # antihomomorphism on the polynomial level
    assert (p * q).dagger() == q.dagger() * p.dagger() \
        or (p * q).dagger().approx_equal(q.dagger() * p.dagger(), 1e-10)
    # the formal imaginary part is exactly self-adjoint
    im = p.imag()
    assert im.dagger() == im


def test_scalar_and_scale(rng):
    p = OpPolynomial.scalar(SP, 2.0 + 1.0j)
    assert p.constant_part().approx_equal((2.0 + 1.0j) * identity(SP))
    q = random_poly(rng, SP, ["u"])
    assert (2.0 * q).approx_equal(q + q, 1e-12)
    assert (q * 2.0).approx_equal(q.scale(2.0))


def test_mismatched_spaces_are_rejected(rng):
    other = HilbertSpace.generic("r", 3)
    p = random_poly(rng, SP)
    q = random_poly(rng, other)
    with pytest.raises(ValueError):
        p + q
    with pytest.raises(ValueError):
        p * q
    with pytest.raises(ValueError):
        p.approx_equal(q)


def test_nan_coefficients_fail_the_comparisons(rng):
    p = random_poly(rng, SP, signals=["u"])
    bad = np.zeros((3, 3))
    bad[0, 1] = np.nan
    q = p + OpPolynomial.constant(Operator(SP, bad))
    # the u coefficients differ by 1, the constant ones by NaN
    r = q + OpPolynomial.of_signal(SP, "u")
    assert np.isnan(q.max_coeff_diff(p)) and np.isnan(r.max_coeff_diff(p))
    assert np.isnan(q.max_coeff_diff(q))
    assert not q.approx_equal(q, 1e300)
    assert not r.approx_equal(p, 1e300)
    assert p.max_coeff_diff(p) == 0.0 and p.approx_equal(p, 0.0)


def test_str_lists_monomials():
    p = OpPolynomial.of_signal(SP, "u") + OpPolynomial.constant(identity(SP))
    assert str(p) == "[1] + [u]"
    assert str(OpPolynomial.zero(SP)) == "0"


def test_evaluate_requires_bindings_for_signals():
    p = OpPolynomial.of_signal(SP, "u")
    with pytest.raises(KeyError):
        p.evaluate(0.0)
    c = OpPolynomial.constant(identity(SP))
    assert c.evaluate(0.0).approx_equal(identity(SP))
