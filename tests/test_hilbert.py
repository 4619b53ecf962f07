"""Spaces, operators, mode operators and embeddings."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slhforge import (
    Factor,
    HilbertSpace,
    Operator,
    OpPolynomial,
    SignalMonomial,
    annihilator,
    creator,
    embed,
    fock_factor,
    generic_factor,
    identity,
    number_op,
)
from slhforge.hilbert import SPARSE_MIN_DIM
from conftest import random_operator
from reference import dense


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


def test_operator_owns_a_read_only_c_ordered_matrix(rng):
    sp = HilbertSpace.generic("q", 3)
    given = np.asfortranarray(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    x = Operator(sp, given)
    given[0, 0] += 1.0  # the caller's array was copied
    assert x.matrix[0, 0] != given[0, 0]
    y = random_operator(rng, sp)
    a = annihilator(HilbertSpace([fock_factor("c", 2), fock_factor("d", 1)]), "c")
    for op in (x, x.dagger(), x + y, x - y, -x, 2j * x, x @ y, identity(sp), a, a.dagger(),
               embed(x, sp)):
        assert op.matrix.flags.c_contiguous and not op.matrix.flags.writeable
        assert op.matrix.dtype == complex
    assert np.array_equal(x.dagger().matrix, x.matrix.conj().T)
    # a polynomial shares the operator's matrix rather than copying it
    assert OpPolynomial.constant(x).terms[SignalMonomial()] is x.matrix


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
    assert OpPolynomial.zero(sp).is_zero()
    assert not OpPolynomial.constant(identity(sp)).is_zero()
    assert np.max(np.abs(identity(sp).matrix)) == 1.0
    h = random_operator(rng, sp)
    assert (h + h.dagger()).dagger().approx_equal(h + h.dagger())


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
    a, adag = annihilator(sp, "c").matrix, creator(sp, "c").matrix
    c = a @ adag - adag @ a
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


@pytest.mark.parametrize("label", ["a", "q", "b"], ids=["first", "middle", "last"])
@pytest.mark.parametrize("kind", ["a", "adag", "n", "signed_zeros"])
def test_a_csr_embedding_is_the_kronecker_products_array_for_array(label, kind):
    # from SPARSE_MIN_DIM on, I ⊗ op ⊗ I is built from op's entries; it is
    # the CSR matrix of scipy's two Kronecker products, down to the bits
    # and the index type.  Their products with the identity's 1.0 take the
    # sign off a zero part of -0 - 1i and 2 - 0i
    from scipy import sparse

    big = HilbertSpace([fock_factor("a", 4), fock_factor("q", 4), fock_factor("b", 6)])
    assert big.total_dim >= SPARSE_MIN_DIM
    at = big.factor_position(label)
    before, after = int(np.prod(big.dims[:at])), int(np.prod(big.dims[at + 1:]))
    small = HilbertSpace([big.factor(label)])
    if kind == "signed_zeros":
        m = np.zeros((small.total_dim,) * 2, dtype=complex)
        m[0, 1], m[1, 0], m[-1, -1] = complex(-0.0, -1.0), complex(2.0, -0.0), 0.5
        op = Operator(small, m)
    else:
        op = {"a": annihilator, "adag": creator, "n": number_op}[kind](small, label)
    want = op.matrix
    if before > 1:
        want = sparse.kron(sparse.eye_array(before), want, format="csr")
    if after > 1:
        want = sparse.kron(want, sparse.eye_array(after), format="csr")
    got = embed(op, big).matrix
    assert got.format == "csr" and got.has_canonical_format
    for name in ("indptr", "indices", "data"):
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), name


def test_embedded_factors_commute():
    big = two_factor_space()
    xa = annihilator(big, "a").matrix
    xb = creator(big, "b").matrix
    assert np.max(np.abs(xa @ xb - xb @ xa)) < 1e-12


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


def test_embed_refuses_factors_that_are_not_adjacent():
    # a Kronecker product over a contiguous run cannot put an identity
    # between the operand's own factors
    big = HilbertSpace([fock_factor("a", 1), generic_factor("q", 2), fock_factor("b", 1)])
    apart = HilbertSpace([big.factors[0], big.factors[2]])
    with pytest.raises(ValueError, match="factors are not adjacent in the target space"):
        embed(identity(apart), big)



# -- calculus --------------------------------------------------------------


def test_imag_real_decomposition(rng):
    # Im(p) = (p - p†)/(2i), the part the series product's cross term keeps
    sp = HilbertSpace.generic("q", 4)
    p = OpPolynomial.constant(random_operator(rng, sp))
    re, im = (p + p.dagger()).scale(0.5), p.imag()
    assert re.dagger().approx_equal(re, 1e-12) and im.dagger().approx_equal(im, 1e-12)
    assert (re + im.scale(1j)).approx_equal(p, 1e-12)


# -- storage rule ----------------------------------------------------------


def _is_canonical_csr(m):
    # the CSR form: sorted indices, no duplicate, no explicit zero, frozen
    return (getattr(m, "format", None) == "csr" and m.has_canonical_format
            and m.data.all() and not m.data.flags.writeable)


@pytest.mark.parametrize("d", [SPARSE_MIN_DIM - 1, SPARSE_MIN_DIM])
def test_the_storage_form_follows_the_dimension_alone(d):
    # d = 99 = 11·9 is dense and d = 100 = 10·10 is CSR, for operators, their
    # embeddings and every polynomial operation; the entries are the same
    cutoff = 10 if d % 2 else 9
    sp = HilbertSpace([fock_factor("c", cutoff), generic_factor("q", d // (cutoff + 1))])
    assert sp.total_dim == d
    mode = HilbertSpace([sp.factors[0]])
    levels = np.diag(np.sqrt(np.arange(1.0, cutoff + 1)), 1)
    a = annihilator(sp, "c")
    u = OpPolynomial.of_signal(sp, "u", a)
    product = OpPolynomial.constant(a.dagger()) * u
    made = {
        "annihilator": (a.matrix, np.kron(levels, np.eye(d // (cutoff + 1)))),
        "identity": (identity(sp).matrix, np.eye(d)),
        "embed": (embed(annihilator(mode, "c"), sp).matrix, dense(a.matrix)),
        "dagger": (a.dagger().matrix, dense(a.matrix).T),
        "product": (product.terms[SignalMonomial.of("u")], dense(a.matrix).T @ dense(a.matrix)),
        "imag": (u.imag().terms[SignalMonomial.of("u")], -0.5j * dense(a.matrix)),
    }
    for name, (m, want) in made.items():
        if d < SPARSE_MIN_DIM:
            assert isinstance(m, np.ndarray) and not m.flags.writeable, name
        else:
            assert _is_canonical_csr(m), name
        assert np.array_equal(dense(m), want), name


def test_a_csr_coefficient_that_cancels_exactly_is_pruned():
    sp = HilbertSpace.fock("c", SPARSE_MIN_DIM - 1)
    a, n = annihilator(sp, "c"), number_op(sp, "c")
    p = OpPolynomial.constant(a) + OpPolynomial.of_signal(sp, "u", n)
    assert (p - p).is_zero()
    # entries that cancel leave the pattern; the others keep their bits
    q = OpPolynomial.constant(a + n) - OpPolynomial.constant(n)
    (c,) = q.terms.values()
    assert _is_canonical_csr(c) and c.nnz == a.matrix.nnz
    assert np.array_equal(dense(c), dense(a.matrix))
    # a scale whose entries underflow to zero leaves no coefficient
    assert p.scale(1e-200).scale(1e-200).is_zero()
    assert (a * 1e-200 * 1e-200).matrix.nnz == 0

