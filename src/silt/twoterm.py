"""Two-term complexes of projectives and the rigidity machinery on them.

A complex ``P_{-1} -> P_0`` is stored as the lists of indecomposable
projective summand vertices in each degree together with a block matrix of
algebra elements: the ``(r, c)`` block lies in ``e_{rows[r]} . A . e_{cols[c]}``
and acts on ``P_{cols[c]} -> P_{rows[r]}`` by left multiplication.  Keeping
the differential at the algebra level is what makes block cancellation and
the mapping-cone constructions exact and cheap.  Every rigidity question,
the presilting verdict, the silting order and the registry's rigidity table,
is read off one shifted-Hom matrix (``shift_hom_basis``), and no
representation of a complex is built here.  The Bongartz and co-Bongartz
completions ask the registry's verdict of their input once and read all
their approximation copies off one shifted-Hom matrix; their glued cone is
then presilting by theorem and filed so, with no pair of its components
tested.  The constructor checks every block; ``_glue``,
``minimality_reduce`` and ``components`` assemble their complexes from
checked parts with no check (``_assemble``).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import exactmat as em
from .algebra import AlgebraElement, FiniteDimAlgebra


@dataclass(frozen=True)
class TwoTermComplex:
    algebra: FiniteDimAlgebra
    rows: tuple[int, ...]   # degree-0 summand vertices
    cols: tuple[int, ...]   # degree -1 summand vertices
    d: tuple[tuple[AlgebraElement, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        object.__setattr__(self, "cols", tuple(self.cols))
        object.__setattr__(self, "d", tuple(tuple(row) for row in self.d))
        nv = self.algebra.quiver.n_vertices
        if stray := [v for v in self.rows + self.cols if not 0 <= v < nv]:
            raise ValueError(f"summand vertices {stray} are not vertices 0..{nv - 1}")
        if len(self.d) != len(self.rows):
            raise ValueError("differential has wrong number of block rows")
        for r, row in enumerate(self.d):
            if len(row) != len(self.cols):
                raise ValueError("differential has wrong number of block columns")
            for c, entry in enumerate(row):
                if entry.algebra is not self.algebra:
                    raise ValueError(f"block ({r},{c}) lies over another algebra")
                if (entry.src, entry.tgt) != (self.rows[r], self.cols[c]):
                    raise ValueError(f"block ({r},{c}) has endpoints "
                                     f"{(entry.src, entry.tgt)}, expected "
                                     f"{(self.rows[r], self.cols[c])}")

    def __hash__(self):
        # computed once: the registry memos and ``pair_of`` key on the same
        # completion several times, and each hash walks every block
        try:
            return self._hash
        except AttributeError:
            h = hash((id(self.algebra), self.rows, self.cols, self.d))
            object.__setattr__(self, "_hash", h)
            return h

    def __repr__(self):
        return f"TwoTermComplex(rows={self.rows}, cols={self.cols})"


def _assemble(alg: FiniteDimAlgebra, rows: tuple, cols: tuple, d: tuple) -> TwoTermComplex:
    """A complex from parts valid by construction, with no check.

    ``rows`` and ``cols`` are tuples of vertices and ``d`` a tuple of tuples
    of elements over ``alg`` with the endpoints of their place.  Only
    ``_glue``, ``minimality_reduce`` and ``components`` call it
    (``tests/test_lint.py`` pins them).  Their blocks are blocks of
    complexes that passed the constructor, zeros and basis paths built for
    their place, or Schur updates of those, whose endpoints
    ``AlgebraElement._combine`` checks.  The public constructor keeps every
    check.
    """
    t = object.__new__(TwoTermComplex)
    t.__dict__.update(algebra=alg, rows=rows, cols=cols, d=d)
    return t


def g_vector(t: TwoTermComplex) -> tuple[int, ...]:
    """Class of the complex in the projective Grothendieck group."""
    return tuple(t.rows.count(v) - t.cols.count(v)
                 for v in range(t.algebra.quiver.n_vertices))


# ---- constructors -------------------------------------------------------------


def _stalk_complex(alg: FiniteDimAlgebra, rows: tuple, cols: tuple) -> TwoTermComplex:
    """Zero differential on ``rows`` and ``cols``: one shared object per
    algebra and summands, as a complex never changes once built."""
    t = alg._stalks.get((rows, cols))
    if t is None:
        t = alg._stalks[(rows, cols)] = TwoTermComplex(
            alg, rows, cols, tuple(() for _ in rows))
    return t


def stalk(alg: FiniteDimAlgebra, v: int) -> TwoTermComplex:
    """``0 -> P_v``."""
    return _stalk_complex(alg, (v,), ())


def shifted_stalk(alg: FiniteDimAlgebra, v: int) -> TwoTermComplex:
    """``P_v -> 0``."""
    return _stalk_complex(alg, (), (v,))


def zero_complex(alg: FiniteDimAlgebra) -> TwoTermComplex:
    return TwoTermComplex(alg, (), (), ())


def lambda_stalk(alg: FiniteDimAlgebra) -> TwoTermComplex:
    return _stalk_complex(alg, tuple(range(alg.quiver.n_vertices)), ())


def lambda_shift(alg: FiniteDimAlgebra) -> TwoTermComplex:
    return _stalk_complex(alg, (), tuple(range(alg.quiver.n_vertices)))


def direct_sum(*parts: TwoTermComplex) -> TwoTermComplex:
    return _glue(parts, {})


def _glue(parts: tuple[TwoTermComplex, ...],
          links: dict[tuple[int, int], AlgebraElement]) -> TwoTermComplex:
    """Direct sum of ``parts`` in order, plus the blocks ``links[(r, c)]``.

    ``links`` places extra blocks at global block coordinates, off the
    diagonal summands; the completions put their approximation maps there,
    which makes the sum their mapping cone.  The sum is assembled with no
    check: the parts passed the constructor, and must lie over one algebra
    (``ValueError`` otherwise); the zeros are ``zero_elem`` of their place;
    and each completion's link at ``(r, c)`` is the basis path of a
    ``_hom_entries`` triple from the vertex of row ``r`` to that of column
    ``c``.
    """
    if not parts:
        raise AssertionError("need at least one summand")
    alg = parts[0].algebra
    if any(t.algebra is not alg for t in parts):
        raise ValueError("summands live over different algebras")
    rows = tuple(v for t in parts for v in t.rows)
    cols = tuple(v for t in parts for v in t.cols)
    zero_rows = {rv: [alg.zero_elem(rv, cv) for cv in cols] for rv in set(rows)}
    blocks = [zero_rows[rv].copy() for rv in rows]
    r0 = c0 = 0
    for t in parts:
        for r, row in enumerate(t.d):
            blocks[r0 + r][c0:c0 + len(row)] = row
        r0, c0 = r0 + len(t.rows), c0 + len(t.cols)
    for (r, c), elem in links.items():
        blocks[r][c] = elem
    return _assemble(alg, rows, cols, tuple(map(tuple, blocks)))


# ---- rigidity ------------------------------------------------------------------


def _hom_entries(alg: FiniteDimAlgebra, tverts: tuple, sverts: tuple):
    """Basis of block morphisms ``(+)P_s -> (+)P_t`` as (row, col, gid) triples:
    one shared tuple per algebra and vertex tuples, built on first use."""
    got = alg._blocks.get((tverts, sverts))
    if got is None:
        got = alg._blocks[tverts, sverts] = tuple(
            (i, j, gid) for i, tv in enumerate(tverts) for j, sv in enumerate(sverts)
            for gid in alg.pair_basis(tv, sv))
    return got


def shift_hom_basis(p: TwoTermComplex, q: TwoTermComplex) -> list[tuple[int, int, int]]:
    """Block entries ``(row, col, gid)`` of ``Hom(P_-1, Q_0)`` that descend to
    a basis of ``Hom(p, q[1])`` in the homotopy category.

    ``Hom(p, q[1])`` is the cokernel of ``(f, g) -> g . d_p - d_q . f``
    landing in ``Hom(P_-1, Q_0)``.  The coordinates outside the pivots of
    that image span a complement of it, so their unit vectors are the basis
    returned.  This is the one place the shifted-Hom matrix is built: the
    silting order and the registry's presilting verdict per component pair
    read its emptiness, and each completion reads all its approximation
    copies off one call, against ``Lambda`` or ``Lambda[1]``
    (Adachi-Iyama-Reiten, arXiv:1210.1036, Sections 2-3).  When ``q`` has
    zero differential the image splits by the summands of ``Q_0``, and when
    ``p`` has, by those of ``P_-1``; the pivots of a block-diagonal image
    are those of its blocks, so the basis is the union of the per-summand
    bases.
    """
    if p.algebra is not q.algebra:
        raise ValueError("complexes live over different algebras")
    alg = p.algebra
    cod = _hom_entries(alg, q.rows, p.cols)
    if not cod:
        return []
    cod_pos = {key: n for n, key in enumerate(cod)}
    dom_f = _hom_entries(alg, q.cols, p.cols)   # f : P_-1 -> Q_-1
    dom_g = _hom_entries(alg, q.rows, p.rows)   # g : P_0  -> Q_0
    # the image matrix transposed: one row per domain basis element, summed
    # from the structure constants of the basis paths
    mult, mod = alg.mult_basis, alg.p
    image = [[0] * len(cod) for _ in range(len(dom_f) + len(dom_g))]
    for row, (i, j, gid) in zip(image, dom_f):
        # beta . f lands in block (k, j) as -d_q[k][i] * e_gid
        for k, d_row in enumerate(q.d):
            for g1, c1 in d_row[i].coeffs.items():
                for g, c in mult(g1, gid).items():
                    pos = cod_pos[(k, j, g)]
                    row[pos] = (row[pos] - c1 * c) % mod
    for row, (i, j, gid) in zip(image[len(dom_f):], dom_g):
        # g . alpha lands in block (i, m) as e_gid * d_p[j][m]
        for m, entry in enumerate(p.d[j]):
            for g2, c2 in entry.coeffs.items():
                for g, c in mult(gid, g2).items():
                    pos = cod_pos[(i, m, g)]
                    row[pos] = (row[pos] + c * c2) % mod
    pivots = set(em._eliminate(image, len(cod), alg.p, False))
    return [key for n, key in enumerate(cod) if n not in pivots]


def hom_shift_vanishes(p: TwoTermComplex, q: TwoTermComplex) -> bool:
    """Whether every degree-1 morphism ``p -> q[1]`` is null-homotopic.

    That is, ``shift_hom_basis(p, q)`` is empty; for silting ``p`` and
    ``q`` it says ``p >= q`` in the silting order.  It is the one rigidity
    test: ``is_presilting``, ``Registry.is_presilting`` (per ordered pair
    of components) and ``SiltingWorkspace.rigid`` (per ordered pair of
    registered presentations) all ask it.
    """
    return not shift_hom_basis(p, q)


def is_presilting(p: TwoTermComplex) -> bool:
    """Self-rigidity, as ``hom_shift_vanishes(p, p)``.

    For two-term complexes only the first shift can obstruct.  With ``p``
    the minimal presentation of ``M`` plus ``Q[1]``, ``Hom(p, p[1])`` is the
    cokernel of ``Hom(d_p, M)``, so the test is that ``M`` is tau-rigid and
    ``Hom(Q, M) = 0`` at once (Adachi-Iyama-Reiten, arXiv:1210.1036,
    Section 3).  ``Registry.is_presilting`` gives the same verdict one
    ordered pair of ``components`` at a time, memoised.
    """
    return hom_shift_vanishes(p, p)


def components(t: TwoTermComplex) -> list[TwoTermComplex]:
    """The distinct direct-sum components of ``t``, in first-appearance order.

    Block rows and columns joined by nonzero blocks form one component, so
    a zero row or column is a stalk of its own.  Components equal by value
    are kept once; the order is that of each component's first row, or of
    its column for a shifted stalk.
    """
    nr = len(t.rows)
    root = list(range(nr + len(t.cols)))

    def find(x):
        while root[x] != x:
            root[x] = x = root[root[x]]
        return x

    for r, row in enumerate(t.d):
        for c, entry in enumerate(row):
            if not entry.is_zero():
                root[find(nr + c)] = find(r)
    members: dict[int, tuple[list[int], list[int]]] = {}
    for x in range(len(root)):
        rs, cs = members.setdefault(find(x), ([], []))
        if x < nr:
            rs.append(x)
        else:
            cs.append(x - nr)
    parts = {}
    for rs, cs in members.values():
        rows, cols = tuple(t.rows[r] for r in rs), tuple(t.cols[c] for c in cs)
        part = (_stalk_complex(t.algebra, rows, cols) if not (rs and cs) else
                _assemble(t.algebra, rows, cols,
                          tuple(tuple(t.d[r][c] for c in cs) for r in rs)))
        parts[part] = None
    return list(parts)


# ---- minimality ----------------------------------------------------------------


def minimality_reduce(t: TwoTermComplex) -> TwoTermComplex:
    """Cancel invertible blocks until the differential is radical.

    A block ``P_v -> P_v`` whose trivial-path coefficient is nonzero is an
    isomorphism up to radical; one Schur-complement step removes the pair and
    strictly drops the total multiplicity, so the loop terminates.  A step
    updates only the rows with a nonzero entry in the pivot column, and in
    them only the entries under a nonzero pivot-row entry; every other block
    is kept as it is, since subtracting zero changes nothing.  A complex
    whose differential is already radical is returned itself.  The pivot
    is the first unit block in row-major order, looked for only among the
    columns at each row's vertex.
    """
    rows, cols, d = t.rows, t.cols, t.d
    while True:
        at = {}
        for c, cv in enumerate(cols):
            at.setdefault(cv, []).append(c)
        pivot = next(((r, c) for r, rv in enumerate(rows) for c in at.get(rv, ())
                      if d[r][c].unit_coefficient()), None)
        if pivot is None:
            break
        r, c = pivot
        u_inv = d[r][c].local_inverse()
        pivot_row = d[r]
        hit = [j for j, entry in enumerate(pivot_row) if j != c and not entry.is_zero()]
        new_d = []
        for i, row in enumerate(d):
            if i == r:
                continue
            if hit and not row[c].is_zero():
                left = row[c] * u_inv
                row = list(row)
                for j in hit:
                    row[j] = row[j] - left * pivot_row[j]
            new_d.append((*row[:c], *row[c + 1:]))
        rows, cols, d = rows[:r] + rows[r + 1:], cols[:c] + cols[c + 1:], tuple(new_d)
    if len(rows) == len(t.rows):   # no step taken
        return t
    return _assemble(t.algebra, rows, cols, d)


# ---- completions ---------------------------------------------------------------


def bongartz_completion(t: TwoTermComplex, registry) -> TwoTermComplex:
    """Maximal completion: add the co-cone of a right approximation of ``L[1]``.

    Each basis entry ``(v, j, gid)`` of ``shift_hom_basis(t, Lambda)`` is
    one map ``t -> P_v[1]``; the approximation sums them.  One shifted-Hom
    matrix serves all ``v``: ``Lambda`` has zero differential, so the image
    is block-diagonal by vertex, and the basis is the union of the bases of
    ``Hom(t, P_v[1])``, in vertex order.  Its shifted cone is
    ``t + t^m + Lambda`` with the entry glued from the ``k``-th copy of ``t``
    to ``P_v``, reduced and checked by ``_silting_or_raise``.  An input that
    is not presilting raises ``ValueError`` before any copy is computed.
    """
    if not registry.is_presilting(t):
        raise ValueError(f"Bongartz completion needs a presilting complex, got {t!r}")
    alg = t.algebra
    copies = shift_hom_basis(t, lambda_stalk(alg))
    m, nr, nc = len(copies), len(t.rows), len(t.cols)
    links = {((m + 1) * nr + v, (k + 1) * nc + j): alg.basis_elem(gid)
             for k, (v, j, gid) in enumerate(copies)}
    return _silting_or_raise(_glue((t,) * (m + 1) + (lambda_stalk(alg),), links),
                             registry, "Bongartz")


def co_bongartz_completion(t: TwoTermComplex, registry) -> TwoTermComplex:
    """Minimal completion: add the cone of a left approximation of ``L``.

    Each basis entry ``(i, v, gid)`` of ``shift_hom_basis(Lambda[1], t)`` is
    one map ``P_v -> t``; the approximation sums them.  As for the Bongartz
    completion, one matrix is block-diagonal by vertex; the entries come in
    row order and are sorted by vertex, stably, so the copies are those of
    ``Hom(P_v[1], t[1])`` one vertex after another.  Its cone is
    ``t + Lambda[1] + t^m`` with the entry glued from ``P_v`` to the ``k``-th
    copy of ``t``.  All of ``Lambda`` sits in degree -1, so vertices that get
    no copy survive as shifted stalks.  An input that is not presilting
    raises ``ValueError`` before any copy is computed.
    """
    if not registry.is_presilting(t):
        raise ValueError(f"co-Bongartz completion needs a presilting complex, got {t!r}")
    alg = t.algebra
    copies = sorted(shift_hom_basis(lambda_shift(alg), t), key=lambda e: e[1])
    m, nr, nc = len(copies), len(t.rows), len(t.cols)
    links = {((k + 1) * nr + i, nc + v): alg.basis_elem(gid)
             for k, (i, v, gid) in enumerate(copies)}
    return _silting_or_raise(_glue((t, lambda_shift(alg)) + (t,) * m, links),
                             registry, "co-Bongartz")


def _silting_or_raise(glued: TwoTermComplex, registry, name: str) -> TwoTermComplex:
    """The reduced glued cone, filed as presilting by theorem; it must be
    silting, or the completion raises.

    Both completions check their input with ``Registry.is_presilting`` and
    glue approximation copies that span ``Hom(t, Lambda[1])``, or
    ``Hom(Lambda, t)``, read off ``shift_hom_basis``.  That is the premise of
    the Bongartz completion (Aihara, arXiv:1012.3265, Prop. 2.16; AIR,
    arXiv:1210.1036, Thm 2.10 with Thm 3.2) and of its dual, so the cone is
    presilting and ``Registry._trust_presilting`` files it so, with no
    component pair tested.  ``is_silting`` then reads that verdict and
    ``decompose``: a result in no recorded cone raises ``ValueError``, one
    without ``n`` distinct summands ``RuntimeError``.
    """
    result = minimality_reduce(glued)
    registry._trust_presilting(result)
    if not is_silting(result, registry):
        raise RuntimeError(f"{name} completion failed silting validation")
    return result


# ---- the silting test ----------------------------------------------------------


def is_silting(t: TwoTermComplex, registry) -> bool:
    """Presilting, with as many distinct indecomposable summands as vertices.

    A 2-term presilting complex is silting exactly when it has ``n``
    pairwise non-isomorphic indecomposable summands (Adachi-Iyama-Reiten,
    arXiv:1210.1036, Section 3).  The presilting verdict comes from the
    registry's memo (``is_presilting``), which holds a completion's verdict
    as ``_silting_or_raise`` filed it, by theorem; the summands come from
    ``registry.decompose``, which raises ``ValueError`` when the complex lies
    in no recorded cone.
    """
    if not registry.is_presilting(t):
        return False
    shifted, pieces = registry.decompose(t)
    return len(set(shifted)) + len(set(pieces)) == t.algebra.quiver.n_vertices
