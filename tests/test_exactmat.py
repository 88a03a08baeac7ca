from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from silt import exactmat as em

from oracles import fraction_free_inverse, int_det, rational_inverse


def asmat(data, p: int) -> np.ndarray:
    a = np.asarray(data, dtype=np.int64)
    if a.ndim != 2:
        raise ValueError("expected a two-dimensional array")
    return a % p


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


def test_prime_check_against_a_sieve():
    # trial division below the bound: exactly the odd primes pass
    top = 20000
    sieve = [True] * (top + 1)
    sieve[0] = sieve[1] = False
    for q in range(2, int(top ** 0.5) + 1):
        if sieve[q]:
            sieve[q * q::q] = [False] * len(sieve[q * q::q])

    def admitted(p):
        try:
            return em.check_field_prime(p) == p
        except ValueError:
            return False

    assert [p for p in range(3, top + 1) if admitted(p)] == [
        p for p in range(3, top + 1) if sieve[p] and p % 2]
    # the three largest primes below 2**26, and the composites next to them
    for p in (67108819, 67108837, 67108859):
        assert em.check_field_prime(p) == p
    for bad in (67108857, 67108861):    # 3 * 22369619 and 37 * 1813753
        with pytest.raises(ValueError, match="odd prime"):
            em.check_field_prime(bad)
    with pytest.raises(ValueError, match="below 2\\*\\*26"):
        em.check_field_prime(2**40)


@settings(deadline=None, max_examples=40)
@given(st.integers(2049, 5000), st.integers(1, 3), st.integers(1, 3),
       st.booleans(), st.integers(0, 2**32 - 1))
@example(2049, 1, 1, False, 0)
def test_matmul_exact_past_one_chunk(k, r, c, stacked, seed):
    # at the largest admitted prime one int64 chunk holds 2048 terms; past
    # it every product must still equal the Python-int one.  Entries near
    # p - 1 are what overflow an unchunked sum, so most are drawn there
    p = 67108859
    rng = np.random.default_rng(seed)
    shape_a = (2, r, k) if stacked else (r, k)

    def entries(shape):
        big = p - 1 - rng.integers(0, 8, size=shape, dtype=np.int64)
        return np.where(rng.random(shape) < 0.9, big,
                        rng.integers(0, p, size=shape, dtype=np.int64))

    a, b = entries(shape_a), entries((k, c))
    if seed == 0:   # the worst case: every term is (p - 1)**2
        a[...], b[...] = p - 1, p - 1
    want = [[[sum(int(x) * int(y) for x, y in zip(row, col)) % p for col in b.T]
             for row in mat] for mat in a.reshape(-1, r, k)]
    assert em.matmul(a, b, p).reshape(-1, r, c).tolist() == want


def test_rref_empty_and_identity():
    r, piv = em.rref(em.zeros(0, 0), 5)
    assert r.shape == (0, 0) and piv == []
    r, piv = em.rref(em.identity(3), 5)
    assert np.array_equal(r, em.identity(3)) and piv == [0, 1, 2]


def test_rref_hand_example_mod5():
    m = asmat([[2, 4], [1, 2]], 5)
    r, piv = em.rref(m, 5)
    assert np.array_equal(r, asmat([[1, 2], [0, 0]], 5))
    assert piv == [0]
    assert em.rank(m, 5) == 1


def test_rank_trivial():
    assert em.rank(em.zeros(4, 4), 7) == 0
    assert em.rank(em.identity(5), 7) == 5


def test_solve_right_identity_and_zero():
    b = asmat([[1, 2], [3, 4]], 7)
    x = em.solve_right(em.identity(2), b, 7)
    assert np.array_equal(x, b)
    x = em.solve_right(em.zeros(2, 2), em.zeros(2, 1), 7)
    assert np.array_equal(x, em.zeros(2, 1))


def test_solve_right_inconsistent():
    a = asmat([[1, 1], [0, 0]], 5)
    b = asmat([[1], [1]], 5)
    assert em.solve_right(a, b, 5) is None


def test_solve_right_shape_mismatch():
    with pytest.raises(ValueError):
        em.solve_right(em.zeros(2, 2), em.zeros(3, 1), 5)


def test_kernel_basis_examples():
    assert em.kernel_basis(em.identity(4), 5).shape == (4, 0)
    k = em.kernel_basis(em.zeros(3, 2), 5)
    assert np.array_equal(k, em.identity(2))
    k = em.kernel_basis(asmat([[1, 2]], 5), 5)
    assert np.array_equal(k, asmat([[3], [1]], 5))


def test_quotient_projection():
    span = asmat([[1], [1]], 5)
    proj = em.quotient_projection(span, 5)
    assert proj.shape == (1, 2)
    assert np.array_equal(em.matmul(proj, span, 5), em.zeros(1, 1))


def test_invert():
    m = asmat([[2, 1], [1, 1]], 7)
    inv = em.invert(m, 7)
    assert np.array_equal(em.matmul(m, inv, 7), em.identity(2))
    with pytest.raises(ValueError):
        em.invert(em.zeros(2, 2), 7)


def test_int_det():
    assert int_det([]) == 1
    assert int_det([[5]]) == 5
    assert int_det([[1, 2], [3, 4]]) == -2
    assert int_det([[0, 1], [1, 0]]) == -1
    assert int_det([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == 0



@settings(deadline=None, max_examples=200)
@given(st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                       min_size=n, max_size=n)))
def test_unimodular_inverse_matches_determinant(m):
    inv = em.unimodular_inverse(m)
    assert (inv is not None) == (abs(int_det(m)) == 1)
    if inv is not None:
        assert np.array_equal(np.array(m) @ inv, em.identity(len(m)))


@settings(deadline=None, max_examples=200)
@given(st.integers(1, 5).flatmap(
    lambda n: st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                       min_size=n, max_size=n)))
@example([[0, 1], [1, 0]])
@example([[2, 0], [0, 3]])
@example([[1, 2], [2, 4]])
def test_fraction_free_inverse_matches_rational_inverse(cols):
    # the g-vector fan check inverts in integers; the Fraction route is the reference
    got, want = fraction_free_inverse(cols), rational_inverse(cols)
    assert (got is None) == (want is None)
    if got is not None:
        d, scaled = got
        assert abs(d) == abs(int_det(cols)) > 0
        assert [[Fraction(e, d) for e in row] for row in scaled] == want


# 67108859 is the largest prime check_field_prime admits
_primes = st.sampled_from([3, 5, 7, 11, 32003, 67108859])


@st.composite
def _matrices(draw):
    # entries come from a drawn seed, so a 30 x 60 matrix costs hypothesis
    # one draw; ``density`` is the share of entries left nonzero.  Of eight
    # draws of the shape ranges, five are at least 15 x 30 and two are tall
    # or square with at least 15 rows; the eighth, where shrinking starts,
    # may take any shape up to 30 x 60, the zero shapes among them
    p = draw(_primes)
    rows, cols = draw(st.sampled_from([((0, 30), (0, 60))] + [((15, 30), (10, 29))] * 2
                                      + [((15, 30), (30, 60))] * 5))
    r, c = draw(st.integers(*rows)), draw(st.integers(*cols))
    density = draw(st.sampled_from([0.05, 0.25, 0.5, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = rng.integers(1, p, size=(r, c), dtype=np.int64)
    return m * (rng.random((r, c)) < density), p


def _reference_rref(m, p):
    # the elimination on numpy rows that exactmat.rref replaced: every row
    # is rewritten in full for every pivot
    a = m % p
    nr, nc = a.shape
    pivots = []
    r = 0
    for c in range(nc):
        if r == nr:
            break
        piv = None
        for i in range(r, nr):
            if a[i, c]:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        a[r] = a[r] * pow(int(a[r, c]), p - 2, p) % p
        for i in range(nr):
            if i != r and a[i, c]:
                a[i] = (a[i] - a[i, c] * a[r]) % p
        pivots.append(c)
        r += 1
    return a, pivots


def _reference_kernel(m, p):
    r, pivots = _reference_rref(m, p)
    nc = m.shape[1]
    free = [c for c in range(nc) if c not in pivots]
    out = em.zeros(nc, len(free))
    for k, f in enumerate(free):
        out[f, k] = 1
        for row, c in enumerate(pivots):
            out[c, k] = (-r[row, f]) % p
    return out


def _reference_solve(a, b, p):
    n = a.shape[1]
    r, pivots = _reference_rref(np.concatenate([a % p, b % p], axis=1), p)
    if any(c >= n for c in pivots):
        return None
    x = em.zeros(n, b.shape[1])
    for row, c in enumerate(pivots):
        x[c] = r[row, n:]
    return x


def _same(x, y):
    return x.dtype == y.dtype and x.shape == y.shape and np.array_equal(x, y)


@settings(deadline=None, max_examples=300)
@given(_matrices(), st.integers(0, 60))
@example((em.zeros(0, 7), 5), 3)
@example((em.zeros(7, 0), 5), 0)
def test_elimination_matches_reference(mp, split):
    m, p = mp
    want, want_piv = _reference_rref(m, p)
    got, piv = em.rref(m, p)
    assert _same(got, want) and piv == want_piv
    assert em.rank(m, p) == len(want_piv)
    assert _same(em.kernel_basis(m, p), _reference_kernel(m, p))
    # the columns from ``split`` on as right-hand sides: consistent and
    # inconsistent systems both occur
    a, b = m[:, :split], m[:, split:]
    x, want_x = em.solve_right(a, b, p), _reference_solve(a, b, p)
    assert (x is None) == (want_x is None)
    assert x is None or _same(x, want_x)


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
@given(_matrices(), st.data())
def test_solve_right_exact(mp, data):
    a, p = mp
    cols = data.draw(st.integers(0, 3))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    x_true = rng.integers(0, p, size=(a.shape[1], cols), dtype=np.int64)
    b = em.matmul(a, x_true, p)
    x = em.solve_right(a, b, p)
    assert x is not None
    assert np.array_equal(em.matmul(a, x, p), b)


@settings(deadline=None)
@given(_matrices(), st.integers(0, 3), st.integers(0, 2**32 - 1))
@example((em.zeros(0, 0), 5), 1, 0)
@example((em.identity(3), 7), 2, 0)
@example((em.zeros(2, 4), 5), 0, 0)
def test_kernel_coordinates_equal_solve_right(mp, cols, seed):
    # the coordinates read off the free rows of a kernel basis are the unique
    # solution, so they equal solve_right's, and a column outside the span
    # gives None from both
    m, p = mp
    basis = em.kernel_basis(m, p)
    n, k = basis.shape
    x_true = np.random.default_rng(seed).integers(0, p, size=(k, cols), dtype=np.int64)
    b = em.matmul(basis, x_true, p)
    x = em.kernel_coordinates(basis, b, p)
    assert x is not None and _same(x, em.solve_right(basis, b, p)) and _same(x, x_true)
    # every kernel vector with a nonzero entry at a pivot column of m has a
    # nonzero free entry too, so the unit vector there lies outside the span
    _, piv = em.rref(m, p)
    if piv:
        out = np.concatenate([b, em.identity(n)[:, piv[:1]]], axis=1)
        assert em.solve_right(basis, out, p) is None
        assert em.kernel_coordinates(basis, out, p) is None
    with pytest.raises(ValueError, match="row mismatch"):
        em.kernel_coordinates(basis, em.zeros(n + 1, 1), p)
