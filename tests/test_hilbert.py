"""Spaces, operators, embeddings, and the small operator calculus."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slhforge import (
    Factor,
    HilbertSpace,
    Operator,
    annihilator,
    commutator,
    creator,
    embed,
    fock_factor,
    generic_factor,
    identity,
    is_unitary_channel_matrix,
    number_op,
    op_imag,
    op_real,
    zero,
)
from conftest import random_operator, random_unitary


# -- factors and spaces ----------------------------------------------------


def test_fock_factor_dimension():
    f = fock_factor("c", 3)
    assert f.dim == 4
    assert f.cutoff == 3


def test_generic_factor_has_no_cutoff():
    with pytest.raises(ValueError):
        generic_factor("q", 2).cutoff


def test_factor_rejects_bad_dim():
    with pytest.raises(ValueError):
        Factor("q", 0)


def test_space_total_dim_is_product():
    sp = HilbertSpace([fock_factor("a", 2), generic_factor("b", 2)])
    assert sp.total_dim == 6
    assert sp.dims == (3, 2)


def test_space_rejects_duplicate_labels():
    with pytest.raises(ValueError):
        HilbertSpace([generic_factor("x", 2), generic_factor("x", 3)])


def test_space_rejects_empty():
    with pytest.raises(ValueError):
        HilbertSpace([])


def test_space_equality_and_hash():
    s1 = HilbertSpace.fock("c", 2)
    s2 = HilbertSpace.fock("c", 2)
    s3 = HilbertSpace.fock("c", 3)
    assert s1 == s2 and hash(s1) == hash(s2)
    assert s1 != s3
    assert "c" in s1 and "d" not in s1
    assert s1.factor_position("c") == 0
    with pytest.raises(KeyError):
        s1.factor_position("d")


# -- operators -------------------------------------------------------------


def test_operator_shape_check():
    sp = HilbertSpace.generic("q", 2)
    with pytest.raises(ValueError):
        Operator(sp, np.zeros((3, 3)))


def test_operator_matrix_is_read_only():
    sp = HilbertSpace.generic("q", 2)
    x = identity(sp)
    with pytest.raises(ValueError):
        x.matrix[0, 0] = 5.0


def test_operator_space_mismatch():
    x = identity(HilbertSpace.generic("q", 2))
    y = identity(HilbertSpace.generic("r", 2))
    with pytest.raises(ValueError):
        x + y
    with pytest.raises(ValueError):
        x @ y


def test_operator_algebra_matches_numpy(rng):
    sp = HilbertSpace.generic("q", 3)
    x, y = random_operator(rng, sp), random_operator(rng, sp)
    assert np.array_equal((x + y).matrix, x.matrix + y.matrix)
    assert np.array_equal((x - y).matrix, x.matrix - y.matrix)
    assert np.array_equal((x @ y).matrix, x.matrix @ y.matrix)
    assert np.array_equal((2.5 * x).matrix, 2.5 * x.matrix)
    assert np.array_equal((-x).matrix, -x.matrix)
    assert np.array_equal(x.dagger().matrix, x.matrix.conj().T)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 5))
def test_dagger_is_an_antihomomorphism(seed, dim):
    rng = np.random.default_rng(seed)
    sp = HilbertSpace.generic("q", dim)
    x, y = random_operator(rng, sp), random_operator(rng, sp)
    lhs = (x @ y).dagger()
    rhs = y.dagger() @ x.dagger()
    assert lhs.approx_equal(rhs, 1e-12)


def test_zero_and_predicates(rng):
    sp = HilbertSpace.generic("q", 2)
    assert zero(sp).is_zero()
    assert not identity(sp).is_zero()
    assert identity(sp).max_abs() == 1.0
    h = random_operator(rng, sp)
    assert (h + h.dagger()).is_hermitian()


# -- mode operators --------------------------------------------------------


def test_annihilator_entries():
    sp = HilbertSpace.fock("c", 3)
    a = annihilator(sp, "c").matrix
    assert a[0, 1] == 1.0
    assert a[1, 2] == pytest.approx(np.sqrt(2.0))
    assert a[2, 3] == pytest.approx(np.sqrt(3.0))
    assert np.count_nonzero(a) == 3


def test_number_operator_is_diagonal_count():
    sp = HilbertSpace.fock("c", 4)
    n = number_op(sp, "c").matrix
    # entries arise as squared square roots, hence allclose, not equality
    assert np.allclose(n, np.diag([0.0, 1.0, 2.0, 3.0, 4.0]), atol=1e-12)


def test_ccr_holds_below_the_cutoff():
    # [a, adag] = 1 except in the top truncated level, where the
    # commutator matrix reads -cutoff.
    cutoff = 5
    sp = HilbertSpace.fock("c", cutoff)
    a = annihilator(sp, "c")
    c = commutator(a, creator(sp, "c")).matrix
    expected = np.eye(cutoff + 1)
    expected[-1, -1] = -cutoff
    assert np.allclose(c, expected, atol=1e-12)


def test_annihilator_requires_fock_factor():
    sp = HilbertSpace.generic("q", 3)
    with pytest.raises(ValueError):
        annihilator(sp, "q")


# -- embeddings ------------------------------------------------------------


def two_factor_space():
    return HilbertSpace([fock_factor("a", 2), fock_factor("b", 1)])


def test_embed_matches_kron():
    big = two_factor_space()
    small_a = HilbertSpace([big.factors[0]])
    small_b = HilbertSpace([big.factors[1]])
    xa = annihilator(small_a, "a")
    xb = annihilator(small_b, "b")
    assert np.allclose(embed(xa, big).matrix, np.kron(xa.matrix, np.eye(2)))
    assert np.allclose(embed(xb, big).matrix, np.kron(np.eye(3), xb.matrix))


def test_embedded_factors_commute():
    big = two_factor_space()
    xa = annihilator(big, "a")
    xb = creator(big, "b")
    assert commutator(xa, xb).max_abs() < 1e-12


def test_embed_is_a_star_homomorphism(rng):
    big = two_factor_space()
    small = HilbertSpace([big.factors[0]])
    x, y = random_operator(rng, small), random_operator(rng, small)
    assert embed(x @ y, big).approx_equal(embed(x, big) @ embed(y, big), 1e-12)
    assert embed(x.dagger(), big).approx_equal(embed(x, big).dagger(), 1e-12)
    assert embed(identity(small), big).approx_equal(identity(big))


def test_embed_rejects_unknown_or_mismatched_factors():
    big = two_factor_space()
    other = HilbertSpace.fock("z", 1)
    with pytest.raises(ValueError):
        embed(identity(other), big)
    resized = HilbertSpace.fock("a", 7)
    with pytest.raises(ValueError):
        embed(identity(resized), big)


def test_embed_refuses_to_permute():
    big = two_factor_space()
    flipped = HilbertSpace([big.factors[1], big.factors[0]])
    with pytest.raises(ValueError):
        embed(identity(flipped), big)


# -- calculus --------------------------------------------------------------


def test_imag_real_decomposition(rng):
    sp = HilbertSpace.generic("q", 4)
    x = random_operator(rng, sp)
    re, im = op_real(x), op_imag(x)
    assert re.is_hermitian(1e-12) and im.is_hermitian(1e-12)
    assert (re + 1j * im).approx_equal(x, 1e-12)


def test_unitary_channel_matrix_checks(rng):
    sp = HilbertSpace.generic("q", 2)
    eye = identity(sp)
    T = random_unitary(rng, 2)
    S = [[Operator(sp, T[i, j] * np.eye(2)) for j in range(2)] for i in range(2)]
    assert is_unitary_channel_matrix(S, 1e-10)
    S[0][0] = 2.0 * eye
    assert not is_unitary_channel_matrix(S, 1e-10)
    S[0][0] = Operator(sp, np.full((2, 2), np.nan))
    assert not is_unitary_channel_matrix(S, 1e300)
    assert not is_unitary_channel_matrix([[Operator(sp, np.diag([1.0, np.nan]))]], 1e300)


def test_unitary_channel_matrix_rejects_ragged():
    sp = HilbertSpace.generic("q", 2)
    with pytest.raises(ValueError):
        is_unitary_channel_matrix([[identity(sp)], [identity(sp), identity(sp)]])
