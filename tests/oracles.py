"""Reference routines that only the tests call: slow, direct and exact."""

from fractions import Fraction

import numpy as np

from silt import exactmat as em
from silt import repmod as rm
from silt import twoterm as tt
from silt.algebra import AlgebraElement, FiniteDimAlgebra


def int_det(m) -> int:
    """Exact integer determinant (fraction-free Bareiss elimination)."""
    a = [[int(x) for x in row] for row in m]
    n = len(a)
    if n == 0:
        return 1
    if any(len(row) != n for row in a):
        raise ValueError("determinant needs a square matrix")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def rational_inverse(cols) -> list[list[Fraction]] | None:
    """Inverse of the square matrix with columns ``cols`` over the rationals.

    Gauss-Jordan on ``Fraction`` rows; ``None`` when the matrix is singular.
    """
    n = len(cols)
    a = [[Fraction(col[i]) for col in cols] + [Fraction(int(i == k)) for k in range(n)]
         for i in range(n)]
    for c in range(n):
        r = next((r for r in range(c, n) if a[r][c]), None)
        if r is None:
            return None
        a[c], a[r] = a[r], a[c]
        a[c] = [e / a[c][c] for e in a[c]]
        for r in range(n):
            if r != c and a[r][c]:
                f = a[r][c]
                a[r] = [e - f * d for e, d in zip(a[r], a[c])]
    return [row[n:] for row in a]


def fraction_free_inverse(cols) -> tuple[int, list[list[int]]] | None:
    """``(d, B)`` with ``B / d`` the inverse of the square integer matrix with
    columns ``cols``; ``None`` when the matrix is singular.

    Fraction-free Gauss-Jordan (Bareiss) on ``[A | I]``: each step
    cross-multiplies by the pivot and divides exactly by the previous one,
    so every entry stays an integer.  The left block ends as ``d . I`` with
    ``d = +-det A``, and the right block is then ``d . A^-1``.  A matrix is
    unimodular exactly when ``abs(d) == 1``.  ``rational_inverse`` is the
    reference it is tested against.
    """
    n = len(cols)
    a = [[int(col[i]) for col in cols] + [int(i == k) for k in range(n)]
         for i in range(n)]
    prev = 1
    for c in range(n):
        r = next((r for r in range(c, n) if a[r][c]), None)
        if r is None:
            return None
        a[c], a[r] = a[r], a[c]
        prow, piv = a[c], a[c][c]
        for i in range(n):
            if i != c:
                row, f = a[i], a[i][c]
                a[i] = [(x * piv - f * y) // prev for x, y in zip(row, prow)]
        prev = piv
    return prev, [row[n:] for row in a]


def zero_rep(algebra: FiniteDimAlgebra) -> rm.Rep:
    q = algebra.quiver
    maps = tuple(em.zeros(0, 0) for _ in range(q.n_arrows))
    return rm.Rep(algebra, (0,) * q.n_vertices, maps, check=False)


def path_elem(alg: FiniteDimAlgebra, src: int, path) -> AlgebraElement:
    """The element of ``alg`` given by a path of arrow labels out of ``src``."""
    path = tuple(alg.quiver.arrow_index(a) for a in path)
    tgt = alg.quiver.path_target(src, path)
    return AlgebraElement(alg, src, tgt, alg.expand_path(src, path))


def fac_contains(generators: rm.Rep, x: rm.Rep) -> bool:
    """Whether ``x`` is a factor of a finite direct sum of the generators."""
    return rm.images_span(rm.hom_basis(generators, x), x)


def shift_hom_basis_by_products(p, q) -> list[tuple[int, int, int]]:
    """``twoterm.shift_hom_basis(p, q)`` with its image built from products.

    Every image entry comes from one ``AlgebraElement`` product of a basis
    element with a block of a differential, so the structure constants are
    read through the element arithmetic, not summed by hand.
    """
    if p.algebra is not q.algebra:
        raise ValueError("complexes live over different algebras")
    alg = p.algebra
    cod = tt._hom_entries(alg, q.rows, p.cols)
    if not cod:
        return []
    cod_pos = {key: n for n, key in enumerate(cod)}
    dom_f = tt._hom_entries(alg, q.cols, p.cols)   # f : P_-1 -> Q_-1
    dom_g = tt._hom_entries(alg, q.rows, p.rows)   # g : P_0  -> Q_0
    image = [[0] * len(cod) for _ in range(len(dom_f) + len(dom_g))]
    for n, (i, j, gid) in enumerate(dom_f):
        # beta . f lands in block (k, j) as d_q[k][i] * elem
        elem = alg.basis_elem(gid)
        for k in range(len(q.rows)):
            prod = q.d[k][i] * elem
            for g2, c in prod.coeffs.items():
                image[n][cod_pos[(k, j, g2)]] = (-c) % alg.p
    off = len(dom_f)
    for n, (i, j, gid) in enumerate(dom_g):
        # g . alpha lands in block (i, m) as elem * d_p[j][m]
        elem = alg.basis_elem(gid)
        for m in range(len(p.cols)):
            prod = elem * p.d[j][m]
            for g2, c in prod.coeffs.items():
                image[off + n][cod_pos[(i, m, g2)]] = c % alg.p
    pivots = set(em._eliminate(image, len(cod), alg.p, False))
    return [key for n, key in enumerate(cod) if n not in pivots]


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron`` of two matrices as one broadcast product."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(
        a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


def hom_basis_by_kron(m: rm.Rep, n: rm.Rep) -> list[rm.RepMap]:
    """``repmod.hom_basis(m, n)`` with each commuting-square block assembled
    as two Kronecker products, one per side of the square, and every map
    built with ``RepMap``'s own square check."""
    alg = m.algebra
    q = alg.quiver
    nv = q.n_vertices
    offs = np.concatenate([[0], np.cumsum([n.dims[v] * m.dims[v] for v in range(nv)])])
    total = int(offs[-1])
    if total == 0:
        return []
    blocks = []
    for k in range(q.n_arrows):
        i, j = q.arrow_source(k), q.arrow_target(k)
        rows = n.dims[j] * m.dims[i]
        if rows == 0:
            continue
        block = em.zeros(rows, total)
        # entry (a, c) of N_k @ phi_i is sum_b N_k[a, b] phi_i[b, c]: the
        # coefficient of unknown (b, d) in row (a, c) is N_k[a, b] I[c, d]
        block[:, offs[i]:offs[i + 1]] = _kron(n.arrow_maps[k], em.identity(m.dims[i]))
        # entry (a, c) of phi_j @ M_k is sum_d phi_j[a, d] M_k[d, c]: the
        # coefficient of unknown (b, d) is I[a, b] M_k[d, c], subtracted
        block[:, offs[j]:offs[j + 1]] = (block[:, offs[j]:offs[j + 1]]
                                         - _kron(em.identity(n.dims[j]),
                                                 m.arrow_maps[k].T)) % alg.p
        blocks.append(block)
    system = np.concatenate(blocks, axis=0) if blocks else em.zeros(0, total)
    basis = em.kernel_basis(system, alg.p)
    return [rm.RepMap(m, n, [basis[offs[v]:offs[v + 1], b].reshape(n.dims[v], m.dims[v])
                             for v in range(nv)])
            for b in range(basis.shape[1])]


def top_sections_by_quotient(m: rm.Rep) -> tuple[tuple[int, ...], dict[int, np.ndarray]]:
    """``repmod._top_sections(m)`` through the quotient module: per vertex
    ``v``, the projection of ``m_v`` modulo the images of the arrows into
    ``v``, and lifts that solve it for the identity, free variables zero."""
    alg = m.algebra
    q = alg.quiver
    mult, sections = [], {}
    for v in range(q.n_vertices):
        incoming = [m.arrow_maps[k] for k in range(q.n_arrows) if q.arrow_target(k) == v]
        proj = em.quotient_projection(
            np.concatenate([em.zeros(m.dims[v], 0)] + incoming, axis=1), alg.p)
        mult.append(proj.shape[0])
        if mult[v]:
            sec = em.solve_right(proj, em.identity(mult[v]), alg.p)
            if sec is None:
                raise AssertionError("top projection must be surjective")
            sections[v] = sec
    return tuple(mult), sections


def projective_cover_by_paths(m: rm.Rep) -> tuple[tuple[int, ...], rm.Rep, rm.RepMap]:
    """``repmod.projective_cover(m)`` with the action of each basis path on
    the lifts computed afresh from the identity (``path_matrix``), and the
    epimorphism built with ``RepMap``'s own square check."""
    alg = m.algebra
    nv = alg.quiver.n_vertices
    mult, sections = rm._top_sections(m)
    verts = [v for v in range(nv) for _ in range(mult[v])]
    psum, offsets = rm.rep_direct_sum(alg, [alg.projective(v) for v in verts])
    comps = [em.zeros(m.dims[w], psum.dims[w]) for w in range(nv)]
    for v, sec in sections.items():
        first = offsets[verts.index(v)]
        for w in range(nv):
            d = alg.pair_dim(v, w)
            for col, gid in enumerate(alg.pair_basis(v, w)):
                img = em.matmul(rm.path_matrix(m, v, alg.basis[gid].path), sec, alg.p)
                comps[w][:, first[w] + col:first[w] + mult[v] * d:d] = img
    return mult, psum, rm.RepMap(psum, m, comps)


def min_projective_presentation_by_covers(m: rm.Rep) -> tt.TwoTermComplex:
    """``repmod.min_projective_presentation(m)`` from two full covers.

    The kernel of the cover of ``m`` gets a projective cover of its own, and
    the differential is the composite of that cover with the kernel's
    inclusion.  ``repmod`` builds both epimorphisms and the inclusion
    unchecked, since their squares hold by construction; here each is rebuilt
    as a square-checked map, and each cover is checked to be onto.
    """
    alg = m.algebra
    nv = alg.quiver.n_vertices
    mult0, _, epi = rm.projective_cover(m)
    epi = checked_repmap(epi)
    ker, incl = rm.kernel(epi)
    incl = checked_repmap(incl)
    mult1, _, epi2 = rm.projective_cover(ker)
    epi2 = checked_repmap(epi2)
    for cover in (epi, epi2):
        if not rm.images_span([cover], cover.target):
            raise AssertionError("a projective cover is not onto")
    d = rm.compose(incl, epi2)
    rows = tuple(v for v in range(nv) for _ in range(mult0[v]))
    cols = tuple(v for v in range(nv) for _ in range(mult1[v]))
    _, row_offsets = rm.rep_direct_sum(alg, [alg.projective(v) for v in rows])
    _, col_offsets = rm.rep_direct_sum(alg, [alg.projective(v) for v in cols])
    blocks = []
    for r, w in enumerate(rows):
        row = []
        for c, v in enumerate(cols):
            # image of the generator e_v of column copy c, read at vertex v
            vec = d.comps[v][:, col_offsets[c][v] + alg.pair_pos(alg.unit_gid(v))]
            coeffs = {gid: int(vec[row_offsets[r][v] + pos])
                      for pos, gid in enumerate(alg.pair_basis(w, v))}
            row.append(AlgebraElement(alg, w, v, coeffs))
        blocks.append(tuple(row))
    return tt.TwoTermComplex(alg, rows, cols, tuple(blocks))


def checked_repmap(h: rm.RepMap) -> rm.RepMap:
    """``h`` rebuilt with ``RepMap``'s own square check, which raises
    ``ValueError`` at the first square that does not commute."""
    return rm.RepMap(h.source, h.target, h.comps)


# ---- the H^0 reference of the shifted-Hom rigidity test ---------------------------
#
# For 2-term complexes of projectives P and Q, Hom(P, Q[1]) in the homotopy
# category is the cokernel of Hom(d_P, H^0 Q) (Adachi-Iyama-Reiten,
# arXiv:1210.1036, Section 3).  The routines below decide it on the module
# side, through representations, and share no code with shift_hom_basis.


def elem_matrix(rep: rm.Rep, elem: AlgebraElement) -> np.ndarray:
    """Action ``M_src -> M_tgt`` of an algebra element on the representation."""
    alg = rep.algebra
    out = em.zeros(rep.dims[elem.tgt], rep.dims[elem.src])
    for gid, c in elem.coeffs.items():
        b = alg.basis[gid]
        out = (out + c * rm.path_matrix(rep, b.src, b.path)) % alg.p
    return out


def left_mult_matrix(alg: FiniteDimAlgebra, u: AlgebraElement, w: int) -> np.ndarray:
    """Matrix of ``q -> u * q`` from ``(P_{u.tgt})_w`` to ``(P_{u.src})_w``."""
    src_basis = alg.pair_basis(u.tgt, w)
    tgt_basis = alg.pair_basis(u.src, w)
    out = em.zeros(len(tgt_basis), len(src_basis))
    for col, q in enumerate(src_basis):
        acc: dict[int, int] = {}
        for g, cu in u.coeffs.items():
            for g2, c in alg.mult_basis(g, q).items():
                acc[g2] = acc.get(g2, 0) + cu * c
        for g2, c in acc.items():
            out[alg.pair_pos(g2), col] = c % alg.p
    return out


def complex_repmap(t: tt.TwoTermComplex) -> tuple[rm.Rep, rm.Rep, rm.RepMap]:
    """Evaluate the differential as a map of representations."""
    alg = t.algebra
    nv = alg.quiver.n_vertices
    neg1, col_offs = rm.rep_direct_sum(alg, [alg.projective(v) for v in t.cols])
    deg0, row_offs = rm.rep_direct_sum(alg, [alg.projective(v) for v in t.rows])
    comps = [em.zeros(deg0.dims[w], neg1.dims[w]) for w in range(nv)]
    for r in range(len(t.rows)):
        for c in range(len(t.cols)):
            entry = t.d[r][c]
            if entry.is_zero():
                continue
            for w in range(nv):
                block = left_mult_matrix(alg, entry, w)
                if block.size:
                    ro, co = row_offs[r][w], col_offs[c][w]
                    comps[w][ro:ro + block.shape[0], co:co + block.shape[1]] = block
    return neg1, deg0, rm.RepMap(neg1, deg0, comps)


def h0(t: tt.TwoTermComplex) -> rm.Rep:
    """Cokernel of the (reduced) differential as a representation."""
    _, _, dmap = complex_repmap(tt.minimality_reduce(t))
    cok, _ = rm.cokernel(dmap)
    return cok


def hom_onto(pres: tt.TwoTermComplex, m: rm.Rep) -> bool:
    """Whether ``Hom(d, m)`` is onto, for the differential ``d`` of ``pres``.

    Its cokernel is ``Hom(pres, Q[1])`` for every 2-term complex of
    projectives ``Q`` with ``H^0(Q) = m``.  The matrix has one block per
    entry of ``d``, acting on ``m``.
    """
    dom = sum(m.dims[v] for v in pres.rows)
    cod = sum(m.dims[v] for v in pres.cols)
    if cod == 0:
        return True
    mat = em.zeros(cod, dom)
    roff = np.concatenate([[0], np.cumsum([m.dims[v] for v in pres.rows])]).astype(int)
    coff = np.concatenate([[0], np.cumsum([m.dims[v] for v in pres.cols])]).astype(int)
    for r in range(len(pres.rows)):
        for c in range(len(pres.cols)):
            mat[coff[c]:coff[c + 1], roff[r]:roff[r + 1]] = elem_matrix(m, pres.d[r][c])
    return em.rank(mat, m.algebra.p) == cod


def presilting_by_h0(t: tt.TwoTermComplex) -> bool:
    """The whole-complex verdict ``hom_onto(t, h0(t))``: ``Hom(t, t[1]) = 0``."""
    return hom_onto(t, h0(t))


# ---- per-entry references of the rigidity rows ----------------------------------
# ``SiltingWorkspace`` reads validation and the silting order off the registry's
# rigidity rows and support masks; these compute every entry afresh from the
# registered presentations and dimension vectors instead.


def summand_dims(ws, ids) -> tuple[int, ...]:
    """The dimension vector of the direct sum of the registered modules ``ids``."""
    out = [0] * ws.algebra.quiver.n_vertices
    for i in ids:
        for v, d in enumerate(ws.registry.dims(i)):
            out[v] += d
    return tuple(out)


def rigid_entry(reg, i: int, j: int) -> bool:
    """``Hom(P_i, P_j[1]) = 0`` for the registered presentations, with no
    support test and no memo."""
    return tt.hom_shift_vanishes(reg.presentation(i), reg.presentation(j))


def validation_by_entries(ws, pair) -> str:
    """The reason ``validate_silting_pair(pair)`` fails with, ``""`` if it passes.

    The count of non-isomorphic summands, so a repeated id or vertex fails
    it, exact support read off the summed dimension vector, then every
    ordered pair of summands, in the order of the definition (AIR Def. 0.3).
    """
    nv = ws.algebra.quiver.n_vertices
    if len(set(pair.summands)) + len(set(pair.proj_part)) != nv \
            or len(pair.summands) + len(pair.proj_part) != nv:
        return "count"
    dims = summand_dims(ws, pair.summands)
    if any((dims[v] == 0) != (v in pair.proj_part) for v in range(nv)) \
            or not set(pair.proj_part) <= set(range(nv)):
        return "support"
    if not all(rigid_entry(ws.registry, i, j) for i in pair.summands for j in pair.summands):
        return "rigidity"
    return ""


def pair_leq_by_entries(ws, a, b) -> bool:
    """``a <= b``: no summand of ``a`` lives at a shifted vertex of ``b``, and
    ``Hom(P_i, P_j[1]) = 0`` for ``i`` in ``b`` and ``j`` in ``a`` (AIR Section 2)."""
    reg = ws.registry
    if any(reg.dims(i)[v] for v in b.proj_part for i in a.summands):
        return False
    return all(rigid_entry(reg, i, j) for i in b.summands for j in a.summands)
