import sys

import numpy as np
import pytest

from silt import exactmat as em
from silt import explorer as ex
from silt import orders
from silt import repmod as rm
from silt.algebra import projective_module, simple_module

import test_acceptance as acceptance
from oracles import _kron, checked_repmap, complex_repmap, fac_contains, zero_rep
from test_algebra import a2_algebra, cyclic_2_algebra, double_a2_algebra


@pytest.fixture(scope="module")
def a2():
    return a2_algebra()


@pytest.fixture(scope="module")
def cyc2():
    return cyclic_2_algebra()


def test_rep_rejects_broken_relation(cyc2):
    # a1*a2 must act as zero: identity maps on a (1,1) rep violate it
    with pytest.raises(ValueError, match="vanish"):
        rm.Rep(cyc2, (1, 1), (np.ones((1, 1)), np.ones((1, 1))))


def test_repmap_rejects_noncommuting(a2):
    p1 = projective_module(a2, "1")
    s1 = simple_module(a2, "1")
    with pytest.raises(ValueError, match="commute"):
        rm.RepMap(s1, p1, [np.ones((1, 1)), np.zeros((1, 0))])


def test_hom_dimensions(a2):
    p1 = projective_module(a2, "1")
    p2 = projective_module(a2, "2")
    s1 = simple_module(a2, "1")
    assert len(rm.hom_basis(p1, s1)) == 1
    assert len(rm.hom_basis(s1, p1)) == 0
    assert len(rm.hom_basis(p1, p2)) == 0
    assert len(rm.hom_basis(p2, p1)) == 1
    assert rm.hom_basis(p1, zero_rep(a2)) == []


def test_hom_contains_identity(a2):
    p1 = projective_module(a2, "1")
    basis = rm.hom_basis(p1, p1)
    assert len(basis) == 1
    assert all(rm_.comps[v].shape == (p1.dims[v], p1.dims[v]) for rm_ in basis
               for v in range(2))


def test_kron_blocks_equal_numpy_kron():
    # the reference commuting-square blocks are Kronecker products of an
    # arrow matrix and an identity, in either order; every shape, zero sides
    # included
    rng = np.random.default_rng(7)
    shapes = [(0, 0), (0, 3), (2, 0), (1, 1), (2, 3), (4, 2)]
    for sa in shapes:
        a = rng.integers(0, 32003, size=sa)
        others = [rng.integers(0, 32003, size=sb) for sb in shapes]
        others += [np.eye(n, dtype=np.int64) for n in range(4)]
        for b in others:
            for x, y in ((a, b), (b, a.T)):
                want = np.kron(x, y)
                got = _kron(x, y)
                assert got.shape == want.shape and np.array_equal(got, want)


def test_hom_basis_checks_every_square(a2, monkeypatch):
    # hom_basis builds its maps unchecked; the batched square check must
    # catch a kernel column that solves no commuting square.  The system
    # reaches the elimination as lists, through kernel_basis_of_rows
    p1 = projective_module(a2, "1")
    kernel_basis_of_rows = em.kernel_basis_of_rows

    def with_bad_column(rows, ncols, p):
        bad = [c for c in range(ncols) if any(row[c] for row in rows)]
        assert bad
        extra = np.zeros((ncols, 1), dtype=np.int64)
        extra[bad[0]] = 1
        return np.concatenate([kernel_basis_of_rows(rows, ncols, p), extra], axis=1)

    assert len(rm.hom_basis(p1, p1)) == 1
    monkeypatch.setattr(em, "kernel_basis_of_rows", with_bad_column)
    with pytest.raises(AssertionError, match="square at arrow 0"):
        rm.hom_basis(p1, p1)


def _read_in(name: str) -> bool:
    # whether the caller of the patched read is ``name``, or a comprehension in it
    frame = sys._getframe(2)
    return name in (frame.f_code.co_name, frame.f_back.f_code.co_name)


def test_kernel_and_cokernel_raise_outside_the_span(a2, monkeypatch):
    # kernel and cokernel read their induced arrow matrices off free rows
    # with no check: the kernel and the image of a homomorphism are
    # arrow-stable.  Each map below kills one vertex of P1, so its kernel
    # or its image is not.  RepMap's square check refuses it, and built
    # unchecked, its kernel's inclusion or its cokernel's projection fails
    # that same check, which test_maps_built_unchecked_commute applies to
    # every kernel and cokernel an exploration builds
    p1 = projective_module(a2, "1")
    h = rm.hom_basis(p1, simple_module(a2, "1"))[0]
    assert rm.kernel(h)[0].dims == (0, 1) and rm.cokernel(h)[0].dims == (0, 0)
    one, zero = em.identity(1), em.zeros(1, 1)
    for comps, route in (([zero, one], rm.kernel), ([one, zero], rm.cokernel)):
        with pytest.raises(ValueError, match="commute"):
            rm.RepMap(p1, p1, comps)
        _, induced = route(rm.RepMap(p1, p1, comps, check=False))
        with pytest.raises(ValueError, match="commute"):
            checked_repmap(induced)
    # a wrong induced arrow matrix in kernel alone, or in cokernel alone,
    # fails the oracle on an exploration
    eq = ex.explore(orders.hereditary_reduction(3))
    acceptance.test_maps_built_unchecked_commute([eq])
    read, p = em.free_row_read, eq.algebra.p
    for name in ("kernel", "cokernel"):
        def wrong(basis, b, name=name):
            x = read(basis, b)
            return (x + 1) % p if _read_in(name) else x

        with monkeypatch.context() as patched:
            patched.setattr(em, "free_row_read", wrong)
            with pytest.raises(ValueError, match="commute"):
                acceptance.test_maps_built_unchecked_commute([eq])


def test_is_isomorphic(a2):
    p1 = projective_module(a2, "1")
    p2 = projective_module(a2, "2")
    s1 = simple_module(a2, "1")
    s2 = simple_module(a2, "2")
    assert rm.is_isomorphic(p1, p1)
    assert not rm.is_isomorphic(s1, s2)
    assert rm.is_isomorphic(p2, s2)  # both concentrated at vertex 2
    assert rm.is_isomorphic(zero_rep(a2), zero_rep(a2))
    assert not rm.is_isomorphic(p1, s1)


def _lifts_top_basis(m, mult, sections):
    # each vertex's lifts are independent modulo the images of the arrows
    # into it, and together with those images they span the vertex
    q = m.algebra.quiver
    for v in range(q.n_vertices):
        incoming = [m.arrow_maps[k] for k in range(q.n_arrows) if q.arrow_target(k) == v]
        rad = em.rank(np.concatenate([em.zeros(m.dims[v], 0)] + incoming, axis=1), m.algebra.p)
        sec = sections.get(v, em.zeros(m.dims[v], 0))
        assert sec.shape == (m.dims[v], mult[v])
        both = np.concatenate([sec] + incoming, axis=1) if incoming else sec
        assert rad + mult[v] == em.rank(both, m.algebra.p) == m.dims[v]


def test_top(a2, cyc2):
    # the top of a module is read off its arrow matrices: multiplicities and
    # lifts of a basis, no quotient module
    for alg in (a2, cyc2):
        for v in range(alg.quiver.n_vertices):
            p = projective_module(alg, v)
            mult, sections = rm._top_sections(p)
            assert mult == simple_module(alg, v).dims
            _lifts_top_basis(p, mult, sections)
    assert rm._top_sections(zero_rep(a2)) == ((0, 0), {})
    s1 = simple_module(a2, "1")
    mult, sections = rm._top_sections(s1)
    assert mult == s1.dims
    _lifts_top_basis(s1, mult, sections)
    big, _ = rm.rep_direct_sum(a2, [projective_module(a2, "1"), s1, s1])
    mult, sections = rm._top_sections(big)
    assert mult == (3, 0)
    _lifts_top_basis(big, mult, sections)


def test_projective_cover(a2):
    p1 = projective_module(a2, "1")
    mult, cover, epi = rm.projective_cover(p1)
    assert mult == (1, 0)
    assert rm.is_isomorphic(cover, p1)
    s1 = simple_module(a2, "1")
    mult, cover, epi = rm.projective_cover(s1)
    assert mult == (1, 0)
    ker, _ = rm.kernel(epi)
    assert ker.total_dim + s1.total_dim == cover.total_dim
    mult, cover, epi = rm.projective_cover(zero_rep(a2))
    assert mult == (0, 0) and cover.is_zero() and epi.is_zero()


def test_kernel_cokernel(a2):
    p1 = projective_module(a2, "1")
    p2 = projective_module(a2, "2")
    incl = rm.hom_basis(p2, p1)[0]
    cok, proj = rm.cokernel(incl)
    assert rm.is_isomorphic(cok, simple_module(a2, "1"))
    ker, _ = rm.kernel(incl)
    assert ker.is_zero()
    cok, _ = rm.cokernel(rm.RepMap(p1, p1, [em.identity(d) for d in p1.dims]))
    assert cok.is_zero()
    zero = rm.RepMap(p2, p1, [em.zeros(d1, d2) for d1, d2 in zip(p1.dims, p2.dims)])
    cok, _ = rm.cokernel(zero)
    assert rm.is_isomorphic(cok, p1)


def test_min_projective_presentation(a2):
    s1 = simple_module(a2, "1")
    pres = rm.min_projective_presentation(s1)
    assert pres.rows == (0,) and pres.cols == (1,)
    assert not pres.d[0][0].is_zero()
    p1 = projective_module(a2, "1")
    pres = rm.min_projective_presentation(p1)
    assert pres.rows == (0,) and pres.cols == ()
    pres = rm.min_projective_presentation(zero_rep(a2))
    assert pres.rows == () and pres.cols == ()


def test_presentation_cokernel_recovers_module(a2, cyc2):
    for alg in (a2, cyc2):
        for v in range(alg.quiver.n_vertices):
            s = simple_module(alg, v)
            pres = rm.min_projective_presentation(s)
            _, _, dmap = complex_repmap(pres)
            cok, _ = rm.cokernel(dmap)
            assert rm.is_isomorphic(cok, s)


def test_cover_kernel_dimension_identity(cyc2):
    for v in range(2):
        m = projective_module(cyc2, v)
        mult, cover, epi = rm.projective_cover(m)
        ker, _ = rm.kernel(epi)
        assert ker.total_dim + m.total_dim == cover.total_dim


def test_fac_contains(a2):
    p1 = projective_module(a2, "1")
    s1 = simple_module(a2, "1")
    assert fac_contains(p1, p1)
    assert fac_contains(p1, zero_rep(a2))
    assert not fac_contains(s1, p1)
    assert fac_contains(p1, s1)  # S1 is the top of P1


def test_direct_summand_split(a2):
    p1 = projective_module(a2, "1")
    s1 = simple_module(a2, "1")
    big, _ = rm.rep_direct_sum(a2, [p1, s1])
    got = rm.direct_summand_split(big, s1)
    assert got is not None
    rho, phi = got
    assert all(np.array_equal(c, np.eye(d, dtype=np.int64))
               for c, d in zip(rm.compose(rho, phi).comps, s1.dims))
    assert rm.direct_summand_split(big, projective_module(a2, "2")) is None


def test_algebra_mismatch_raises(a2, cyc2):
    with pytest.raises(ValueError):
        rm.hom_basis(projective_module(a2, 0), projective_module(cyc2, 0))
