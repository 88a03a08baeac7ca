"""Randomised invariants: modules are sampled as cokernels of random maps
between projective sums, which reaches every finitely generated module."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from silt import repmod as rm
from silt import twoterm as tt
from silt.algebra import build_algebra, presentation, Quiver
from silt.orders import auslander_bass_v_reduction, cyclic_nakayama, \
    triangular_example_reduction

from oracles import h0, hom_onto, presilting_by_h0


@pytest.fixture(scope="module")
def algebras():
    return [
        triangular_example_reduction(),
        cyclic_nakayama(2, 2),
        cyclic_nakayama(2, 4),
        auslander_bass_v_reduction(2),
    ]


@st.composite
def _random_module_data(draw):
    alg_idx = draw(st.integers(0, 3))
    n_tgt = draw(st.integers(1, 3))
    n_src = draw(st.integers(0, 3))
    seed = draw(st.integers(0, 2**32 - 1))
    return alg_idx, n_tgt, n_src, seed


def _random_module(alg, n_tgt, n_src, seed):
    rng = np.random.default_rng(seed)
    nv = alg.quiver.n_vertices
    tgt_verts = [int(rng.integers(0, nv)) for _ in range(n_tgt)]
    src_verts = [int(rng.integers(0, nv)) for _ in range(n_src)]
    tgt, _ = rm.rep_direct_sum(alg, [alg.projective(v) for v in tgt_verts])
    src, _ = rm.rep_direct_sum(alg, [alg.projective(v) for v in src_verts])
    # a random morphism: random coefficients on a Hom basis
    basis = rm.hom_basis(src, tgt)
    comps = [np.zeros((tgt.dims[v], src.dims[v]), dtype=np.int64)
             for v in range(nv)]
    for h in basis:
        c = int(rng.integers(0, alg.p))
        for v in range(nv):
            comps[v] = (comps[v] + c * h.comps[v]) % alg.p
    hmap = rm.RepMap(src, tgt, comps)
    cok, _ = rm.cokernel(hmap)
    return cok


@settings(deadline=None, max_examples=40)
@given(_random_module_data())
def test_cover_kernel_dimensions(algebras, data):
    alg_idx, n_tgt, n_src, seed = data
    m = _random_module(algebras[alg_idx], n_tgt, n_src, seed)
    mult, cover, epi = rm.projective_cover(m)
    ker, _ = rm.kernel(epi)
    assert ker.total_dim + m.total_dim == cover.total_dim
    # the cover changes nothing at the top
    assert rm._top_sections(m)[0] == rm._top_sections(cover)[0] == mult


@settings(deadline=None, max_examples=40)
@given(_random_module_data())
def test_presentation_cokernel_dims(algebras, data):
    alg_idx, n_tgt, n_src, seed = data
    m = _random_module(algebras[alg_idx], n_tgt, n_src, seed)
    pres = rm.min_projective_presentation(m)
    cok = h0(pres)
    assert cok.dims == m.dims
    # minimality: no block of the differential has a unit part
    for r, rv in enumerate(pres.rows):
        for c, cv in enumerate(pres.cols):
            assert pres.d[r][c].unit_coefficient() == 0


@settings(deadline=None, max_examples=30)
@given(_random_module_data())
def test_rigidity_matches_complex_level(algebras, data):
    alg_idx, n_tgt, n_src, seed = data
    alg = algebras[alg_idx]
    m = _random_module(alg, n_tgt, n_src, seed)
    pres = rm.min_projective_presentation(m)
    # the module itself, H^0 of its presentation, and the shifted-Hom matrix
    assert hom_onto(pres, m) == presilting_by_h0(pres) == tt.is_presilting(pres)


@settings(deadline=None, max_examples=30)
@given(_random_module_data())
def test_kernel_cokernel_index(algebras, data):
    alg_idx, n_tgt, n_src, seed = data
    alg = algebras[alg_idx]
    rng = np.random.default_rng(seed ^ 0x5EED)
    nv = alg.quiver.n_vertices
    a, _ = rm.rep_direct_sum(alg, [alg.projective(int(rng.integers(0, nv)))
                                   for _ in range(n_src + 1)])
    b, _ = rm.rep_direct_sum(alg, [alg.projective(int(rng.integers(0, nv)))
                                   for _ in range(n_tgt)])
    basis = rm.hom_basis(a, b)
    comps = [np.zeros((b.dims[v], a.dims[v]), dtype=np.int64) for v in range(nv)]
    for h in basis:
        c = int(rng.integers(0, alg.p))
        for v in range(nv):
            comps[v] = (comps[v] + c * h.comps[v]) % alg.p
    hmap = rm.RepMap(a, b, comps)
    ker, _ = rm.kernel(hmap)
    cok, _ = rm.cokernel(hmap)
    assert ker.total_dim - cok.total_dim == a.total_dim - b.total_dim


def test_non_presilting_complex_rejected():
    from silt.silting import Registry
    alg = cyclic_nakayama(1, 2)  # dual numbers
    reg = Registry(alg)
    pres = rm.min_projective_presentation(alg.simple(0))
    assert not tt.is_presilting(pres)
    assert not tt.is_silting(pres, reg)


def test_decompose_counts_stalk_multiplicity():
    from silt.silting import Registry
    alg = triangular_example_reduction()
    dbl = tt.direct_sum(tt.shifted_stalk(alg, 1), tt.shifted_stalk(alg, 1))
    assert Registry(alg).decompose(dbl) == ((1, 1), ())


def test_mixed_coefficient_relation():
    # two parallel arrows glued by a signed relation: dimension drops by one
    q = Quiver(("1", "2"), (("a", "1", "2"), ("b", "1", "2")))
    alg = build_algebra(presentation(q, [[(1, ("a",)), (-1, ("b",))]], 2))
    assert alg.dimension == 3
    assert alg.projective(0).dims == (1, 1)


@pytest.fixture(scope="module")
def explored_ws():
    # 4 registered modules with Hom spaces of dimension up to 3
    from silt.explorer import explore
    return explore(cyclic_nakayama(2, 6)).workspace


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_composition_rebuilds_composites(explored_ws, data):
    ws = explored_ws
    ids = st.integers(0, len(ws.registry) - 1)
    x, k, t = data.draw(ids), data.draw(ids), data.draw(ids)
    coords = ws.composition(x, k, t)
    basis = ws.hom(x, t)
    assert coords.shape == (len(basis), len(ws.hom(x, k)), len(ws.hom(k, t)))
    for b, h in enumerate(ws.hom(x, k)):
        for e, psi in enumerate(ws.hom(k, t)):
            want = rm.compose(psi, h)
            for v, want_v in enumerate(want.comps):
                got = sum((int(coords[c, b, e]) * f.comps[v] for c, f in enumerate(basis)),
                          np.zeros_like(want_v)) % ws.algebra.p
                assert np.array_equal(got, want_v)
