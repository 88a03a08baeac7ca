import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from silt import exactmat as em


def test_prime_validation():
    em.check_field_prime(3)
    em.check_field_prime(32003)
    for bad in (0, 1, 2, 4, 9, 32001):
        with pytest.raises(ValueError):
            em.check_field_prime(bad)


def test_prime_bound():
    # the primes on either side of 2**26: int64 products stay exact below it
    assert em.check_field_prime(67108859) == 67108859
    with pytest.raises(ValueError, match="inner dimension 2048"):
        em.check_field_prime(67108879)


def test_rref_empty_and_identity():
    r, piv = em.rref(em.zeros(0, 0), 5)
    assert r.shape == (0, 0) and piv == []
    r, piv = em.rref(em.identity(3), 5)
    assert np.array_equal(r, em.identity(3)) and piv == [0, 1, 2]


def test_rref_hand_example_mod5():
    m = em.asmat([[2, 4], [1, 2]], 5)
    r, piv = em.rref(m, 5)
    assert np.array_equal(r, em.asmat([[1, 2], [0, 0]], 5))
    assert piv == [0]
    assert em.rank(m, 5) == 1


def test_rank_trivial():
    assert em.rank(em.zeros(4, 4), 7) == 0
    assert em.rank(em.identity(5), 7) == 5


def test_solve_right_identity_and_zero():
    b = em.asmat([[1, 2], [3, 4]], 7)
    x = em.solve_right(em.identity(2), b, 7)
    assert np.array_equal(x, b)
    x = em.solve_right(em.zeros(2, 2), em.zeros(2, 1), 7)
    assert np.array_equal(x, em.zeros(2, 1))


def test_solve_right_inconsistent():
    a = em.asmat([[1, 1], [0, 0]], 5)
    b = em.asmat([[1], [1]], 5)
    assert em.solve_right(a, b, 5) is None


def test_solve_right_shape_mismatch():
    with pytest.raises(ValueError):
        em.solve_right(em.zeros(2, 2), em.zeros(3, 1), 5)


def test_kernel_basis_examples():
    assert em.kernel_basis(em.identity(4), 5).shape == (4, 0)
    k = em.kernel_basis(em.zeros(3, 2), 5)
    assert np.array_equal(k, em.identity(2))
    k = em.kernel_basis(em.asmat([[1, 2]], 5), 5)
    assert np.array_equal(k, em.asmat([[3], [1]], 5))


def test_quotient_projection():
    span = em.asmat([[1], [1]], 5)
    proj = em.quotient_projection(span, 5)
    assert proj.shape == (1, 2)
    assert np.array_equal(em.matmul(proj, span, 5), em.zeros(1, 1))


def test_invert():
    m = em.asmat([[2, 1], [1, 1]], 7)
    inv = em.invert(m, 7)
    assert np.array_equal(em.matmul(m, inv, 7), em.identity(2))
    with pytest.raises(ValueError):
        em.invert(em.zeros(2, 2), 7)


def test_int_det():
    assert em.int_det([]) == 1
    assert em.int_det([[5]]) == 5
    assert em.int_det([[1, 2], [3, 4]]) == -2
    assert em.int_det([[0, 1], [1, 0]]) == -1
    assert em.int_det([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == 0



@settings(deadline=None, max_examples=200)
@given(st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                       min_size=n, max_size=n)))
def test_unimodular_inverse_matches_determinant(m):
    inv = em.unimodular_inverse(m)
    assert (inv is not None) == (abs(em.int_det(m)) == 1)
    if inv is not None:
        assert np.array_equal(np.array(m) @ inv, em.identity(len(m)))


_primes = st.sampled_from([3, 5, 7, 11, 32003])


@st.composite
def _matrices(draw, max_dim=5):
    p = draw(_primes)
    r = draw(st.integers(0, max_dim))
    c = draw(st.integers(0, max_dim))
    entries = draw(st.lists(st.lists(st.integers(0, p - 1), min_size=c, max_size=c),
                            min_size=r, max_size=r))
    m = np.array(entries, dtype=np.int64).reshape(r, c)
    return m, p


@settings(deadline=None)
@given(_matrices())
def test_rank_plus_nullity(mp):
    m, p = mp
    assert em.rank(m, p) + em.kernel_basis(m, p).shape[1] == m.shape[1]


@settings(deadline=None)
@given(_matrices())
def test_rref_idempotent(mp):
    m, p = mp
    r, piv = em.rref(m, p)
    r2, piv2 = em.rref(r, p)
    assert np.array_equal(r, r2) and piv == piv2


@settings(deadline=None)
@given(_matrices())
def test_kernel_vectors_annihilate(mp):
    m, p = mp
    k = em.kernel_basis(m, p)
    assert not np.any(em.matmul(m, k, p))


@settings(deadline=None)
@given(_matrices(max_dim=4), st.data())
def test_solve_right_exact(mp, data):
    a, p = mp
    cols = data.draw(st.integers(0, 3))
    x_true = np.array(
        data.draw(st.lists(st.lists(st.integers(0, p - 1), min_size=cols, max_size=cols),
                           min_size=a.shape[1], max_size=a.shape[1])),
        dtype=np.int64).reshape(a.shape[1], cols)
    b = em.matmul(a, x_true, p)
    x = em.solve_right(a, b, p)
    assert x is not None
    assert np.array_equal(em.matmul(a, x, p), b)
