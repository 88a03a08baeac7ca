"""Representations of a built algebra and their module-level linear algebra.

Everything here reduces to exact eliminations over the prime field: Hom
spaces are kernels of commuting-square systems, cokernels are quotient
projections, and projective covers lift bases of the top: the unit vectors
off the pivots of one forward elimination of the arrow columns into each
vertex, with no quotient module built.  Maps out of a projective ``P_v``
need no elimination: each is fixed by the image of ``e_v``, any vector of
``m_v`` (Yoneda), and ``yoneda_comps`` builds them by acting with each
basis path as its last arrow's matrix times its prefix's action, computed
once per prefix.  A cover is such a map, and so is every basis map of
``Hom(P_v, M)`` in ``SiltingWorkspace.hom``.  The induced arrow matrices of a kernel or a cokernel are
coordinates in a ``kernel_basis`` output, read off its free rows and
checked by one product (``exactmat.kernel_coordinates``).  A map whose
squares commute by construction (a Yoneda map, a kernel's inclusion, a
cokernel's projection) is built without ``RepMap``'s square check; the
tier-1 oracles rebuild each one with it.  All values are immutable after
construction and all operations are pure, so any number of registries and
workspaces may share them.

The zero module (all dimensions zero) is a first-class citizen; every
operation accepts it.
"""

from __future__ import annotations

import numpy as np

from . import exactmat as em
from .algebra import AlgebraElement, FiniteDimAlgebra
from .twoterm import TwoTermComplex


class Rep:
    """A module as a quiver representation.

    ``dims[v]`` is the dimension at vertex ``v`` and ``arrow_maps[k]`` the
    matrix of arrow ``k: i -> j`` with shape ``dims[j] x dims[i]``.  On
    construction every relation of the algebra is checked to act as zero.
    """

    __slots__ = ("algebra", "dims", "arrow_maps", "total_dim")

    def __init__(self, algebra: FiniteDimAlgebra, dims, arrow_maps, check: bool = True):
        q = algebra.quiver
        self.algebra = algebra
        self.dims = tuple(int(d) for d in dims)
        if len(self.dims) != q.n_vertices or any(d < 0 for d in self.dims):
            raise ValueError("bad dimension vector")
        maps = []
        for k in range(q.n_arrows):
            m = np.asarray(arrow_maps[k], dtype=np.int64) % algebra.p
            want = (self.dims[q.arrow_target(k)], self.dims[q.arrow_source(k)])
            if m.shape != want:
                raise ValueError(f"arrow {k} matrix has shape {m.shape}, expected {want}")
            maps.append(m)
        self.arrow_maps = tuple(maps)
        self.total_dim = sum(self.dims)
        if check:
            self._check_relations()

    def _check_relations(self):
        for idx, rel in enumerate(self.algebra.presentation.relations):
            acc = None
            for coeff, word in rel:
                if coeff % self.algebra.p == 0:
                    continue
                src = self.algebra.quiver.arrow_source(word[0])
                m = (path_matrix(self, src, word) * coeff) % self.algebra.p
                acc = m if acc is None else (acc + m) % self.algebra.p
            if acc is not None and np.any(acc):
                raise ValueError(f"relation {idx} does not vanish on the representation")

    def is_zero(self) -> bool:
        return self.total_dim == 0

    def __repr__(self):
        return f"Rep(dims={self.dims})"


def path_matrix(rep: Rep, src: int, path: tuple[int, ...]) -> np.ndarray:
    """Action of a path on the representation (walking order)."""
    m = em.identity(rep.dims[src])
    for a in path:
        m = em.matmul(rep.arrow_maps[a], m, rep.algebra.p)
    return m


class RepMap:
    """A homomorphism of representations; vertex components commute with arrows."""

    __slots__ = ("source", "target", "comps")

    def __init__(self, source: Rep, target: Rep, comps, check: bool = True):
        if source.algebra is not target.algebra:
            raise ValueError("source and target live over different algebras")
        alg = source.algebra
        q = alg.quiver
        self.source = source
        self.target = target
        cs = []
        for v in range(q.n_vertices):
            m = np.asarray(comps[v], dtype=np.int64) % alg.p
            want = (target.dims[v], source.dims[v])
            if m.shape != want:
                raise ValueError(f"component {v} has shape {m.shape}, expected {want}")
            cs.append(m)
        self.comps = tuple(cs)
        if check:
            for k in range(q.n_arrows):
                i, j = q.arrow_source(k), q.arrow_target(k)
                lhs = em.matmul(target.arrow_maps[k], self.comps[i], alg.p)
                rhs = em.matmul(self.comps[j], source.arrow_maps[k], alg.p)
                if not np.array_equal(lhs, rhs):
                    raise ValueError(f"square at arrow {k} does not commute")

    def is_zero(self) -> bool:
        return not any(np.any(c) for c in self.comps)

    def __repr__(self):
        return f"RepMap({self.source.dims} -> {self.target.dims})"


def compose(g: RepMap, f: RepMap) -> RepMap:
    """``g after f``."""
    if f.target is not g.source and f.target.dims != g.source.dims:
        raise ValueError("maps do not compose")
    p = f.source.algebra.p
    comps = [em.matmul(g.comps[v], f.comps[v], p) for v in range(len(f.comps))]
    return RepMap(f.source, g.target, comps)


def rep_direct_sum(algebra: FiniteDimAlgebra, parts: list[Rep]) -> tuple[Rep, list[tuple[int, ...]]]:
    """Direct sum plus, per part, the offset of its block at each vertex."""
    q = algebra.quiver
    nv = q.n_vertices
    offsets = []
    run = [0] * nv
    for part in parts:
        offsets.append(tuple(run))
        run = [run[v] + part.dims[v] for v in range(nv)]
    dims = tuple(run)
    maps = []
    for k in range(q.n_arrows):
        i, j = q.arrow_source(k), q.arrow_target(k)
        m = em.zeros(dims[j], dims[i])
        for part, off in zip(parts, offsets):
            m[off[j]:off[j] + part.dims[j], off[i]:off[i] + part.dims[i]] = part.arrow_maps[k]
        maps.append(m)
    return Rep(algebra, dims, maps, check=False), offsets


def hom_basis(m: Rep, n: Rep) -> list[RepMap]:
    """Deterministic basis of ``Hom(m, n)``.

    Unknowns are the vertex components flattened row-major and concatenated
    in vertex order; each arrow contributes one commuting-square block, set
    from the nonzeros of its two arrow matrices.  The squares of all basis
    maps are then checked at once, one stacked product per arrow, so the
    maps skip ``RepMap``'s own check; a failure raises ``AssertionError``,
    under ``python -O`` too.
    """
    if m.algebra is not n.algebra:
        raise ValueError("modules live over different algebras")
    alg, p = m.algebra, m.algebra.p
    q = alg.quiver
    nv = q.n_vertices
    offs = [0]
    for v in range(nv):
        offs.append(offs[-1] + n.dims[v] * m.dims[v])
    total = offs[-1]
    if total == 0:
        return []
    rows: list[list[int]] = []
    for k in range(q.n_arrows):
        i, j = q.arrow_source(k), q.arrow_target(k)
        mi, mj, nj = m.dims[i], m.dims[j], n.dims[j]
        block = [[0] * total for _ in range(nj * mi)]
        # entry (a, c) of N_k @ phi_i is sum_b N_k[a, b] phi_i[b, c]: the
        # coefficient of unknown (b, c) in row (a, c) is N_k[a, b]
        for a, row in enumerate(n.arrow_maps[k].tolist()):
            for b, x in enumerate(row):
                if x:
                    for c in range(mi):
                        block[a * mi + c][offs[i] + b * mi + c] = x
        # entry (a, c) of phi_j @ M_k is sum_d phi_j[a, d] M_k[d, c]: the
        # coefficient of unknown (a, d) in row (a, c) is M_k[d, c], subtracted
        # mod p, which keeps every entry in [0, p) for the elimination
        for d, row in enumerate(m.arrow_maps[k].tolist()):
            for c, x in enumerate(row):
                if x:
                    for a in range(nj):
                        r, col = block[a * mi + c], offs[j] + a * mj + d
                        r[col] = (r[col] - x) % p
        rows += block
    basis = em.kernel_basis_of_rows(rows, total, p)
    nb = basis.shape[1]
    phis = [basis[offs[v]:offs[v + 1]].T.reshape(nb, n.dims[v], m.dims[v])
            for v in range(nv)]
    for k in range(q.n_arrows):
        i, j = q.arrow_source(k), q.arrow_target(k)
        if not np.array_equal(em.matmul(n.arrow_maps[k], phis[i], p),
                              em.matmul(phis[j], m.arrow_maps[k], p)):
            raise AssertionError(f"a Hom basis map fails the square at arrow {k}")
    return [RepMap(m, n, [phi[b] for phi in phis], check=False) for b in range(nb)]


def is_isomorphic(m: Rep, n: Rep) -> bool:
    """Isomorphism test, complete for indecomposables.

    When ``m`` and ``n`` are indecomposable and isomorphic, the
    non-isomorphisms form a proper subspace of ``Hom(m, n)``, so some basis
    vector must be invertible; for decomposable inputs the test is only
    conservative (no false positives).
    """
    if m.algebra is not n.algebra:
        raise ValueError("modules live over different algebras")
    if m.dims != n.dims:
        return False
    if m.total_dim == 0:
        return True
    p = m.algebra.p
    for h in hom_basis(m, n):
        if all(em.is_invertible(c, p) for c in h.comps):
            return True
    return False


def _top_sections(m: Rep) -> tuple[tuple[int, ...], dict[int, np.ndarray]]:
    """Top multiplicities of ``m`` and, per vertex ``v`` of the top, lifts of
    a basis of ``m_v`` modulo ``(rad m)_v``, the span of the columns of the
    arrow matrices into ``v``.  One forward elimination of those columns
    leaves their pivot coordinates; the unit vectors at the other coordinates
    span a complement, so they are the lifts."""
    q = m.algebra.quiver
    mult, sections = [], {}
    for v, d in enumerate(m.dims):
        rad = [col for k in range(q.n_arrows) if q.arrow_target(k) == v
               for col in m.arrow_maps[k].T.tolist()]
        pivots = set(em._eliminate(rad, d, m.algebra.p, False))
        free = [c for c in range(d) if c not in pivots]
        mult.append(len(free))
        if free:
            sections[v] = em.identity(d)[:, free]
    return tuple(mult), sections


def projective_cover(m: Rep) -> tuple[tuple[int, ...], Rep, RepMap]:
    """``P -> m`` lifted from a basis of the top; returns (multiplicities, P, epi).

    Copy ``k`` of ``P_v`` sends its generator ``e_v`` to the ``k``-th lift at
    ``v``; ``yoneda_comps`` builds all the copies of ``P_v`` at once,
    writing them straight into the columns of ``epi``'s components.  By
    Nakayama's lemma ``epi`` is onto; ``min_projective_presentation`` checks
    that against the kernel's dimensions.
    """
    alg = m.algebra
    mult, sections = _top_sections(m)
    psum, _ = rep_direct_sum(alg, [alg.projective(v) for v, k in enumerate(mult)
                                   for _ in range(k)])
    comps = [em.zeros(d, psum.dims[w]) for w, d in enumerate(m.dims)]
    first = [0] * len(m.dims)
    for v, sec in sections.items():
        # the copies of P_v are adjacent, in the order of the lifts: each
        # block is a view of their columns, split per copy
        out = []
        for w, d in enumerate(m.dims):
            shape = (d, sec.shape[1], alg.pair_dim(v, w))
            out.append(comps[w][:, first[w]:first[w] + shape[1] * shape[2]].reshape(shape))
            first[w] += shape[1] * shape[2]
        yoneda_comps(m, v, sec, out)
    return mult, psum, RepMap(psum, m, comps, check=False)


def yoneda_comps(m: Rep, v: int, gens: np.ndarray, out=None) -> list[np.ndarray]:
    """Components of the maps ``P_v -> m`` that send ``e_v`` to the columns of ``gens``.

    A map out of ``P_v`` is fixed by the image of ``e_v``, and every vector
    of ``m_v`` is one (Yoneda), so these maps commute by construction.
    Entry ``[:, k, c]`` of the array at ``w`` is the image under map ``k``
    of basis path ``c`` of ``alg.pair_basis(v, w)``: the path's action on
    ``gens[:, k]``, its last arrow's matrix times its prefix's action,
    computed once per prefix for all the columns at once.  The arrays are
    ``out`` when given, of those shapes, which are then written in place.
    """
    alg = m.algebra
    acts = {(): gens}
    if out is None:
        out = [np.zeros((d, gens.shape[1], alg.pair_dim(v, w)), dtype=np.int64)
               for w, d in enumerate(m.dims)]
    for w, block in enumerate(out):
        for col, gid in enumerate(alg.pair_basis(v, w)):
            block[:, :, col] = _path_action(m, alg.basis[gid].path, acts)
    return out


def _path_action(m: Rep, path: tuple[int, ...], acts: dict) -> np.ndarray:
    """The action of ``path`` on the vectors in ``acts[()]``: its last arrow's
    matrix times its prefix's action, each stored in ``acts``."""
    got = acts.get(path)
    if got is None:
        got = acts[path] = em.matmul(m.arrow_maps[path[-1]],
                                     _path_action(m, path[:-1], acts), m.algebra.p)
    return got


def kernel(h: RepMap) -> tuple[Rep, RepMap]:
    """Vertex-wise kernel with the induced arrow maps and its inclusion."""
    alg = h.source.algebra
    q = alg.quiver
    nv = q.n_vertices
    bases = [em.kernel_basis(h.comps[v], alg.p) for v in range(nv)]
    dims = tuple(b.shape[1] for b in bases)
    maps = []
    for k in range(q.n_arrows):
        i, j = q.arrow_source(k), q.arrow_target(k)
        img = em.matmul(h.source.arrow_maps[k], bases[i], alg.p)
        sol = em.kernel_coordinates(bases[j], img, alg.p)
        if sol is None:
            raise AssertionError("kernel is not arrow-stable")
        maps.append(sol)
    ker = Rep(alg, dims, maps, check=False)
    # the arrow matrices solve exactly the squares of the inclusion
    return ker, RepMap(ker, h.source, bases, check=False)


def cokernel(h: RepMap) -> tuple[Rep, RepMap]:
    """Vertex-wise cokernel with the induced arrow maps and its projection."""
    alg = h.source.algebra
    q = alg.quiver
    nv = q.n_vertices
    projs = [em.quotient_projection(h.comps[v], alg.p) for v in range(nv)]
    dims = tuple(pr.shape[0] for pr in projs)
    maps = []
    for k in range(q.n_arrows):
        i, j = q.arrow_source(k), q.arrow_target(k)
        rhs = em.matmul(projs[j], h.target.arrow_maps[k], alg.p)
        solT = em.kernel_coordinates(projs[i].T, rhs.T, alg.p)
        if solT is None:
            raise AssertionError("image is not arrow-stable")
        maps.append(solT.T)
    cok = Rep(alg, dims, maps, check=False)
    # the arrow matrices solve exactly the squares of the projection
    return cok, RepMap(h.target, cok, projs, check=False)


def min_projective_presentation(m: Rep):
    """Minimal two-term presentation ``P_{-1} -> P_0`` with cokernel ``m``.

    ``P_0`` covers ``m``; copy ``k`` of ``P_v`` in ``P_{-1}`` sends its
    generator to the ``k``-th lift of a basis of the top of the kernel at
    ``v``.  A map out of ``P_v`` is fixed by that image, and by Nakayama's
    lemma the lifts generate the kernel.  The differential has entries in
    the algebra, one block per pair of indecomposable summands.
    """
    alg = m.algebra
    nv = alg.quiver.n_vertices
    mult0, p0, epi = projective_cover(m)
    ker, incl = kernel(epi)
    if any(k + d != c for k, d, c in zip(ker.dims, m.dims, p0.dims)):
        raise AssertionError("cover is not surjective")
    mult1, sections = _top_sections(ker)
    rows = tuple(v for v in range(nv) for _ in range(mult0[v]))
    cols = tuple(v for v in range(nv) for _ in range(mult1[v]))
    # the image of the generator e_v of each copy of P_v in P_{-1}, read at v
    gens = [vec for v, sec in sections.items()
            for vec in em.matmul(incl.comps[v], sec, alg.p).T.tolist()]
    blocks = [[None] * len(cols) for _ in rows]
    for c, (v, vec) in enumerate(zip(cols, gens)):
        pos = 0     # the coordinates run through the copies of P_0 in row order
        for r, w in enumerate(rows):
            basis = alg.pair_basis(w, v)
            coeffs = {gid: x for gid, x in zip(basis, vec[pos:pos + len(basis)]) if x}
            blocks[r][c] = AlgebraElement(alg, w, v, coeffs)
            pos += len(basis)
    return TwoTermComplex(alg, rows, cols, tuple(tuple(row) for row in blocks))


def images_span(maps: list[RepMap], x: Rep) -> bool:
    """Whether the images of ``maps``, all into ``x``, together span ``x``."""
    for v, d in enumerate(x.dims):
        stacked = np.concatenate([em.zeros(d, 0)] + [h.comps[v] for h in maps], axis=1)
        if d and em.rank(stacked, x.algebra.p) < d:
            return False
    return True


def direct_summand_split(big: Rep, small: Rep) -> tuple[RepMap, RepMap] | None:
    """Find ``(rho, phi)`` with ``rho . phi == id_small``, or ``None``.

    Scans pairs of Hom-basis elements for an invertible composite; this is
    exhaustive whenever ``End(small)`` has scalar residue field, which holds
    for every module the mutation machinery produces here.  Only reference
    code calls this: ``Registry.split`` and the tier-1 oracles.  The split
    relies on it, since its single pass never retries an id that once
    failed, which is sound only because ``None`` here means that ``small``
    is not a summand of ``big``.
    """
    if small.total_dim == 0 or any(s > b for s, b in zip(small.dims, big.dims)):
        return None
    alg = big.algebra
    into = hom_basis(small, big)
    back = hom_basis(big, small)
    for phi in into:
        for psi in back:
            comp = compose(psi, phi)
            if all(em.is_invertible(c, alg.p) for c in comp.comps):
                inv = RepMap(small, small,
                             [em.invert(c, alg.p) for c in comp.comps])
                rho = compose(inv, psi)
                return rho, phi
    return None
