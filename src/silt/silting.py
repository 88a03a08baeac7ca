"""Module-level silting theory: pairs, mutation, and the silting order.

A silting pair is a basic set of indecomposable module summands plus a set
of vertices whose shifted projectives make up the complex's degree -1 stalk
part.  The summands live in a shared registry which hands out stable ids,
keyed by (dimension vector, g-vector) with isomorphism confirmation, so
deduplication never trusts the numeric key alone.  ``mutate_left`` registers
a module only when a mutation exists and its partner is not registered yet,
so a registry that ``explore`` filled holds only summands of the pairs it
produced.  Past one gate, which sorts an input that is no recorded cone with
``make_pair``, it inserts the partner into the canonical rest, by key.

A ``SiltingWorkspace`` keeps two caches, plain dicts filled without locks,
so a workspace belongs to one thread.  Each fills on first use, is never
invalidated, and is keyed by registry ids, which are stable because the
registry only grows:

- ``hom(i, j)``: the Hom-space basis, per ordered id pair, empty with no
  elimination when the top of ``M_i`` misses the support of ``M_j``.  Out
  of a projective, an id below ``n``, the basis maps are Yoneda maps, one
  per unit vector of ``(M_j)_i``, with no elimination either.
  ``mutate_left`` reads ``Hom(U, X)`` only for an ``X`` without a
  registered partner whose top lies in the tops of ``U``, the one case in
  which the ``Fac`` test needs it.
- ``composition(x, k, t)``: the coordinates of every composite
  ``Hom(k, t) . Hom(x, k)`` in the basis of ``Hom(x, t)``, per id triple;
  out of a projective ``x`` they are the components of ``Hom(k, t)`` at
  ``x``, read with no product, since both bases are Yoneda maps.
  ``_strip_copies`` reads it instead of composing maps: dropping a copy
  ``(t, b)`` from an approximation of ``x`` is one rank test, whether the
  composites of the other copies into ``t`` span ``Hom(x, t)``.

The ``Registry`` stores, per module id, its ``(dims, g-vector)`` key, its
vertex support, the degree -1 and degree 0 vertices of its minimal
presentation (the latter its top), and its row of the rigidity table, the
last four as bitsets:

- ``rigid_row(i)``: the ids ``j`` with ``Hom(P_i, P_j[1]) = 0``, ``P_i``
  and ``P_j`` the minimal presentations; no module is read.
  ``twoterm.is_presilting`` asks the same of whole complexes.  The table
  is always whole: filing a module fills its row, its column and its
  diagonal against every registered id.  An entry is a quotient of
  ``Hom(P_i^{-1}, M_j)`` (AIR Section 3), so it vanishes when ``M_j`` is
  zero at every degree -1 vertex of ``P_i``, one mask test.  Its dimension
  is ``dim Hom(M_i, M_j) - <g_i, dim M_j>``, so a negative Euler form
  proves it nonzero, one dot product; only the other entries run
  ``twoterm.hom_shift_vanishes``.  The partial order on discovered pairs,
  the rigidity step of validation and the partner scan reduce to one mask
  test per row plus a support condition, and ``order_rows`` ANDs the rows
  as they are.  ``registered_partner`` reads the mutation partner off
  them alone: the AND of the rows of the rest of a pair leaves a few
  candidates, each tested on its own row and support mask.

It keeps one more memo, one entry per two-term complex ``t``, keyed by
``minimality_reduce(t)``; cancelling contractible summands changes no Hom
in the homotopy category.  ``minimality_reduce`` hands an already reduced
complex back as it is, and a complex computes its hash once, on first use.
Every key is reduced, so ``t`` is looked up as it is first and reduced only
on a miss: a completion is filed under its reduced cone when it is built,
so neither the ``is_silting`` gate nor ``pair_of`` reduces or tests it
again.  A complex over another algebra raises ``ValueError``.  The entry
holds:

- ``is_presilting(t)``: the verdict of ``twoterm.is_presilting``.  A miss
  tests every ordered pair ``(A, B)`` of ``twoterm.components`` through
  ``_onto``, memoised per pair: ``twoterm.hom_shift_vanishes(A, B)``.  Hom
  is additive, so the pairs give the verdict of the whole complex (AIR,
  arXiv:1210.1036, Section 3).  The completions ask it of their input
  only: their reduced cone is presilting by the Bongartz theorem and its
  dual, and ``_trust_presilting`` files it so, unchecked.  That writer
  keeps a verdict already in the memo and raises on a computed ``False``.
- ``decompose(t)``: the shifted-projective vertices and the H^0 summand
  ids, the one route from a complex to its pair.  A presilting complex is
  determined by its g-vector (AIR Thm 5.5), so it is read off a table of
  g-vector cones, one per support tau-tilting pair the registry has seen:
  Lambda and Lambda[1] from construction, then every pair ``mutate_left``
  returns, each with its exact integer inverse.  A complex that is not
  presilting, or lies in no recorded cone, raises ``ValueError`` and gets
  no decomposition, so a later call, with more cones, reads afresh.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterator
from dataclasses import dataclass
from functools import reduce
from operator import mul, or_

import numpy as np

from . import exactmat as em
from . import repmod as rm
from . import twoterm as tt
from .algebra import FiniteDimAlgebra


@dataclass(frozen=True, order=True)
class SiltingPair:
    """(module summand registry ids, shifted-projective vertices), canonical."""

    summands: tuple[int, ...]
    proj_part: tuple[int, ...]


@dataclass(frozen=True)
class Validation:
    ok: bool
    reason: str = ""

    def __bool__(self):
        return self.ok


VALID = Validation(True)
MUTATION_OUTCOMES = ("attempted", "fac_rejected", "shifted_projective",
                     "registry_lookup", "cokernel_built")


class Registry:
    """Shared store of discovered indecomposable modules with stable ids.

    Projectives are registered first, in vertex order, so the ids
    ``0..n_vertices-1`` always denote them.  Each is filed with its stalk
    ``0 -> P_v`` (``twoterm.stalk``), which is its minimal presentation, so
    ``min_projective_presentation`` runs only for the modules that
    ``get_or_insert`` registers.  Isomorphic modules receive the same id.
    Every id is filed with its row and column of the rigidity table, so
    each ordered pair of registered ids has its entry.  A
    registry, like the ``SiltingWorkspace`` over it, is not safe to share
    between threads.
    """

    def __init__(self, algebra: FiniteDimAlgebra):
        self.algebra = algebra
        self._reps: list[rm.Rep] = []
        self._pres: list[tt.TwoTermComplex] = []
        self._keys: list[tuple] = []
        self._support: list[int] = []
        self._cols: list[int] = []
        self._tops: list[int] = []
        self._rigid: list[int] = []
        self._by_key: dict[tuple, list[int]] = {}
        self._complexes: dict[tt.TwoTermComplex, list] = {}
        self._pair_onto: dict[tuple[tt.TwoTermComplex, tt.TwoTermComplex], bool] = {}
        nv = algebra.quiver.n_vertices
        self._cones: dict[tuple[tuple[int, ...], tuple[int, ...]], None] = {}
        self._cone_keys: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
        self._cone_inv = np.zeros((0, nv, nv), dtype=np.int64)
        for v in range(nv):
            pres = tt.stalk(algebra, v)
            self._insert(algebra.projective(v), pres, tt.g_vector(pres))
        self._record_cone(sorted(range(nv), key=self._keys.__getitem__), ())
        self._record_cone((), range(nv))

    def __len__(self):
        return len(self._reps)

    def rep(self, i: int) -> rm.Rep:
        return self._reps[i]

    def presentation(self, i: int) -> tt.TwoTermComplex:
        return self._pres[i]

    def gvector(self, i: int) -> tuple[int, ...]:
        return self._keys[i][1]

    def dims(self, i: int) -> tuple[int, ...]:
        return self._reps[i].dims

    def key(self, i: int) -> tuple:
        return self._keys[i]

    def support(self, i: int) -> int:
        """The vertices where module ``i`` is nonzero, as a bitset."""
        return self._support[i]

    def rigid_row(self, i: int) -> int:
        """The ids ``j`` with ``Hom(P_i, P_j[1]) = 0``, as a bitset."""
        return self._rigid[i]

    def get_or_insert(self, rep: rm.Rep) -> int:
        if rep.is_zero():
            raise ValueError("the zero module is not registrable")
        pres = rm.min_projective_presentation(rep)
        gvec = tt.g_vector(pres)
        for i in self._by_key.get((rep.dims, gvec), []):
            if rm.is_isomorphic(self._reps[i], rep):
                return i
        return self._insert(rep, pres, gvec)

    def _insert(self, rep: rm.Rep, pres: tt.TwoTermComplex, gvec: tuple[int, ...]) -> int:
        """File ``rep`` under a new id, with its minimal presentation ``pres``."""
        key = (rep.dims, gvec)
        i = len(self._reps)
        self._reps.append(rep)
        self._pres.append(pres)
        self._keys.append(key)
        self._support.append(_bits(v for v, d in enumerate(rep.dims) if d))
        self._cols.append(_bits(pres.cols))
        self._tops.append(_bits(pres.rows))
        self._by_key.setdefault(key, []).append(i)
        row = 0
        for j in range(i):
            row |= self._vanishes(i, j) << j
            self._rigid[j] |= self._vanishes(j, i) << i
        self._rigid.append(row | self._vanishes(i, i) << i)
        return i

    def _vanishes(self, i: int, j: int) -> bool:
        """``Hom(P_i, P_j[1]) = 0`` for the presentations of modules ``i`` and ``j``.

        It is the cokernel of ``Hom(d_i, M_j)`` (AIR Section 3), a quotient
        of ``Hom(P_i^{-1}, M_j)``; so it vanishes when ``M_j`` is zero at
        every degree -1 vertex of ``P_i``.  The exact sequence
        ``0 -> Hom(M_i, M_j) -> Hom(P_i^0, M_j) -> Hom(P_i^{-1}, M_j) -> Hom(P_i, P_j[1]) -> 0``
        gives its dimension as ``dim Hom(M_i, M_j) - <g_i, dim M_j>``, so a
        negative Euler form ``<g_i, dim M_j>`` proves it nonzero.  The
        shifted-Hom matrix decides the rest.
        """
        return not self._cols[i] & self._support[j] or (
            sum(map(mul, self._keys[i][1], self._keys[j][0])) >= 0
            and tt.hom_shift_vanishes(self._pres[i], self._pres[j]))

    def split(self, rep: rm.Rep) -> list[int] | None:
        """Peel registered indecomposables off ``rep``; ids with multiplicity.

        Nothing in the package calls this: it is the tier-1 reference that
        ``decompose``'s cone reading is checked against.  One ascending pass
        over the registry ids: each id is peeled off for as long as it
        splits, then the scan moves to the next id.  Every peel
        replaces the module by ``kernel(rho)``, a complement of the peeled
        summand, and ``direct_summand_split`` is exhaustive, so an id that
        fails on a module fails on each of its summands (Krull-Schmidt).
        The pieces therefore come out sorted, and equal to what a scan that
        restarts at the lowest id after every peel would find.  ``None``
        means a nonzero remainder has no registered summand.
        """
        pieces: list[int] = []
        current = rep
        for i in range(len(self._reps)):
            while not current.is_zero():
                got = rm.direct_summand_split(current, self._reps[i])
                if got is None:
                    break
                pieces.append(i)
                current, _ = rm.kernel(got[0])
        return pieces if current.is_zero() else None

    def _record_cone(self, summands, proj_part) -> None:
        """Record the g-vector cone of a support tau-tilting pair.

        ``summands`` are registry ids and ``proj_part`` ascending vertices,
        filed in ``make_pair``'s order: Lambda, Lambda[1] and the results of
        ``mutate_left``, which trusts a recorded cone as its input.  So the
        writer is private and checks nothing: a result built around a new
        module has passed ``validate_silting_pair``, the others are support
        tau-tilting by theorem, and checking here would validate every
        accepted mutation again.  The cone joins
        ``decompose``'s table, which sorts the ids it reads, and its g-matrix
        is checked for unimodularity when the table is next built.
        """
        self._cones.setdefault((tuple(summands), tuple(proj_part)))

    def decompose(self, t: tt.TwoTermComplex
                  ) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Shifted-projective vertices and H^0 summand ids of ``t``.

        Both come with multiplicity, ids and vertices ascending.  A memo miss
        reads the reduced complex off the cone table: the cones of Lambda and
        Lambda[1], seeded at construction, and of every pair that
        ``mutate_left`` returned.  For a presilting complex whose g-vector
        has non-negative coordinates in a cone, the coordinates are the
        multiplicities, since ``(+) S_i^{c_i}`` is presilting with the same
        g-vector (Adachi-Iyama-Reiten, arXiv:1210.1036, Thm 5.5).  A complex
        that is not presilting, or lies in no recorded cone, raises
        ``ValueError`` and is not stored, since a later cone can hold it.
        """
        red, entry = self._entry(t)
        if entry[1] is None:
            if not entry[0]:
                raise ValueError("the complex is not presilting")
            coords = self._cone_coordinates(tt.g_vector(red))
            hits = np.flatnonzero((coords >= 0).all(axis=1))
            if not hits.size:
                raise ValueError("the g-vector lies in no recorded cone")
            ids, verts = self._cone_keys[hits[0]]
            c = coords[hits[0]].tolist()
            entry[1] = (
                tuple(v for v, m in zip(verts, c[len(ids):]) for _ in range(m)),
                tuple(sorted(i for i, m in zip(ids, c) for _ in range(m))))
        return entry[1]

    def _cone_coordinates(self, g: tuple[int, ...]) -> np.ndarray:
        """Coordinates of ``g`` in every recorded cone, one row per cone.

        Each cone's g-matrix has the summands' g-vectors, then ``-e_v`` per
        shifted vertex, as columns.  Its exact integer inverse is built once,
        on the first call after the cone was recorded; one that is not
        unimodular raises ``AssertionError``.
        """
        if len(self._cones) > len(self._cone_keys):
            new = list(self._cones)[len(self._cone_keys):]
            invs = np.stack([self._cone_inverse(ids, verts) for ids, verts in new])
            self._cone_inv = np.concatenate([self._cone_inv, invs])
            self._cone_keys += new
        return self._cone_inv @ np.array(g, dtype=np.int64)

    def _cone_inverse(self, ids, verts) -> np.ndarray:
        nv = self.algebra.quiver.n_vertices
        cols = [self.gvector(i) for i in ids]
        cols += [tuple(-int(w == v) for w in range(nv)) for v in verts]
        g = np.array(cols, dtype=np.int64).reshape(len(cols), nv).T
        inv = em.unimodular_inverse(g) if len(cols) == nv else None
        if inv is None or not (g @ inv == em.identity(nv)).all():
            raise AssertionError(f"the cone of {ids} | {verts} is not unimodular")
        return inv

    def is_presilting(self, t: tt.TwoTermComplex) -> bool:
        """``twoterm.is_presilting(t)``, memoised per reduced complex; a
        completion's entry holds the verdict filed by theorem."""
        return self._entry(t)[1][0]

    def _trust_presilting(self, t: tt.TwoTermComplex) -> None:
        """File the reduced complex ``t`` as presilting, unchecked.

        ``twoterm._silting_or_raise`` is the one caller: a completion of a
        presilting complex is presilting by theorem, so its components are
        not tested.  A verdict already in the memo is kept, and a computed
        ``False`` raises ``RuntimeError``.
        """
        if not self._complexes.setdefault(t, [True, None])[0]:
            raise RuntimeError("the memo holds a computed verdict: not presilting")

    def _entry(self, t: tt.TwoTermComplex) -> tuple[tt.TwoTermComplex, list]:
        """``t`` reduced (a key already is) and its entry ``[verdict, decomposition or None]``."""
        if t.algebra is not self.algebra:
            raise ValueError("the complex lives over another algebra than the registry")
        entry = self._complexes.get(t)
        if entry is not None:
            return t, entry     # every key is a reduced complex
        red = tt.minimality_reduce(t)
        entry = self._complexes.get(red)
        if entry is None:
            parts = tt.components(red)
            entry = self._complexes[red] = [
                all(self._onto(a, b) for a in parts for b in parts), None]
        return red, entry

    def _onto(self, a: tt.TwoTermComplex, b: tt.TwoTermComplex) -> bool:
        """``Hom(a, b[1]) = 0``, memoised per ordered component pair."""
        got = self._pair_onto.get((a, b))
        if got is None:
            got = self._pair_onto[a, b] = tt.hom_shift_vanishes(a, b)
        return got


class SiltingWorkspace:
    """An algebra, its registry over that algebra, and all mutation-level operations."""

    def __init__(self, algebra: FiniteDimAlgebra, registry: Registry | None = None):
        if registry is not None and registry.algebra is not algebra:
            raise ValueError("the registry lives over another algebra than the workspace")
        self.algebra = algebra
        self.registry = registry if registry is not None else Registry(algebra)
        self._hom: dict[tuple[int, int], list[rm.RepMap]] = {}
        self._comp: dict[tuple[int, int, int], np.ndarray] = {}
        self.mutation_counts = dict.fromkeys(MUTATION_OUTCOMES, 0)

    # ---- cached primitives -----------------------------------------------

    def hom(self, i: int, j: int) -> list[rm.RepMap]:
        """Basis of ``Hom(M_i, M_j)``; a miss checks both ids.  It embeds in
        ``Hom(P_i^0, M_j)``, ``M_j`` summed over the top of ``M_i``, so a top
        that misses the support of ``M_j`` gives ``[]`` with no ``hom_basis``.
        The ids ``0..n-1`` are the projectives, and a map out of ``P_i`` is
        fixed by the image of ``e_i``, any vector of ``(M_j)_i`` (Yoneda): so
        for those ids the basis maps send ``e_i`` to the unit vectors of
        ``(M_j)_i``, with no elimination; other ids run ``hom_basis``."""
        got = self._hom.get((i, j))
        if got is None:
            self._check_ids((i, j))
            reg = self.registry
            m, n = reg.rep(i), reg.rep(j)
            if not reg._tops[i] & reg._support[j]:
                got = []
            elif i < self.algebra.quiver.n_vertices:
                blocks = rm.yoneda_comps(n, i, em.identity(n.dims[i]))
                got = [rm.RepMap(m, n, [b[:, e] for b in blocks], check=False)
                       for e in range(n.dims[i])]
            else:
                got = rm.hom_basis(m, n)
            self._hom[i, j] = got
        return got

    def rigid(self, i: int, j: int) -> bool:
        """Whether ``Hom(P_i, P_j[1])`` vanishes, ``P_i`` and ``P_j`` the
        minimal presentations of modules ``i`` and ``j``.

        That is ``Hom(M_j, tau M_i) = 0`` (Adachi-Iyama-Reiten,
        arXiv:1210.1036, Lemma 3.4): bit ``j`` of the registry's row of ``i``,
        filled when the later of the two was registered.  An id outside the
        registry raises ``ValueError``.
        """
        rows = self.registry._rigid
        if not (0 <= i < len(rows) and 0 <= j < len(rows)):
            self._check_ids((i, j))     # raises
        return bool(rows[i] >> j & 1)

    def _rows_rigid(self, sources, need: int) -> bool:
        """``rigid(i, j)`` for every ``i`` of ``sources`` and bit ``j`` of ``need``."""
        rows, common = self.registry._rigid, need
        for i in sources:
            common &= rows[i]
        return common == need

    def composition(self, x: int, k: int, t: int) -> np.ndarray:
        """Coordinates of the composites ``psi . h`` in the basis of ``Hom(x, t)``.

        Entry ``[c, b, e]`` is the ``c``-th coordinate of the ``e``-th basis
        map of ``Hom(k, t)`` after the ``b``-th basis map of ``Hom(x, k)``.
        For a projective ``x`` both bases are Yoneda maps, which send ``e_x``
        to unit vectors, so the entry is ``(psi_e)_x[c, b]``, read off with
        no product.  A miss checks the three ids.
        """
        got = self._comp.get((x, k, t))
        if got is None:
            self._check_ids((x, k, t))
            got = self._comp[x, k, t] = self._composition_compute(x, k, t)
        return got

    def _composition_compute(self, x: int, k: int, t: int) -> np.ndarray:
        hxk, hkt, hxt = self.hom(x, k), self.hom(k, t), self.hom(x, t)
        if not hxk or not hkt:
            return np.zeros((len(hxt), len(hxk), len(hkt)), dtype=np.int64)
        if x < self.algebra.quiver.n_vertices:
            # psi_e . h_b sends e_x to column b of (psi_e)_x
            return np.stack([g.comps[x] for g in hkt], axis=2)
        p = self.algebra.p
        blocks = []
        for v in range(self.algebra.quiver.n_vertices):
            h = np.stack([f.comps[v] for f in hxk])[:, None]
            psi = np.stack([g.comps[v] for g in hkt])[None]
            blocks.append(em.matmul(psi, h, p).reshape(len(hxk) * len(hkt), -1))
        composites = np.concatenate(blocks, axis=1).T
        basis = np.array([_vec_map(f) for f in hxt], dtype=np.int64)
        basis = basis.reshape(len(hxt), composites.shape[0]).T
        # The columns of ``basis`` are the kernel_basis columns that hom_basis
        # reshaped into maps.  A solution proves that each composite is a
        # homomorphism x -> t, so this check stands in for RepMap's commuting
        # squares and must not vanish under ``python -O``.
        coords = em.kernel_coordinates(basis, composites, p)
        if coords is None:
            raise AssertionError("composite escaped the Hom space")
        return coords.reshape(len(hxt), len(hxk), len(hkt))

    def cache_sizes(self) -> dict[str, int]:
        """Entry counts of the two memos, ``hom`` and ``composition``."""
        return {"hom": len(self._hom), "composition": len(self._comp)}

    # ---- pair plumbing ------------------------------------------------------

    def make_pair(self, summands, proj_part) -> SiltingPair:
        """The canonical pair of registry ids ``summands`` and vertices ``proj_part``.

        An id outside the registry or a vertex outside the quiver raises
        ``ValueError``, as do repeated summands.  The ids sort by
        ``Registry.key``, and neighbours with one key raise ``RuntimeError``.
        """
        ids = list(summands)
        verts = sorted(set(int(v) for v in proj_part))
        self._check_ids(ids)
        self._shifted(verts)
        if len(set(ids)) != len(ids):
            raise ValueError("pair summands must be pairwise distinct")
        key = self.registry.key
        ids.sort(key=key)
        if any(key(i) == key(j) for i, j in zip(ids, ids[1:])):
            raise RuntimeError("two summands share dimension and g-vector; "
                               "registry corruption?")
        return SiltingPair(tuple(ids), tuple(verts))

    def lambda_pair(self) -> SiltingPair:
        return self.make_pair(range(self.algebra.quiver.n_vertices), ())

    def _check_ids(self, ids) -> None:
        """Raise ``ValueError`` unless every id of ``ids`` is a registry id."""
        if ids and not 0 <= min(ids) <= max(ids) < len(self.registry):
            raise ValueError(f"summand ids {list(ids)} are not all registry ids "
                             f"0..{len(self.registry) - 1}")

    def _shifted(self, proj_part) -> int:
        """The bitset of the shifted vertices ``proj_part``; one outside ``0..n-1`` raises."""
        nv = self.algebra.quiver.n_vertices
        if proj_part and (stray := [v for v in proj_part if not 0 <= v < nv]):
            raise ValueError(f"shifted vertices {stray} are not vertices 0..{nv - 1}")
        return _bits(proj_part)

    def _support_of(self, ids) -> int:
        """The vertices where some module of ``ids`` is nonzero, as a bitset."""
        support, mask = self.registry._support, 0
        for i in ids:
            mask |= support[i]
        return mask

    # ---- predicates ----------------------------------------------------------

    def validate_silting_pair(self, pair: SiltingPair) -> Validation:
        """Whether ``pair`` is a support tau-tilting pair, by the definition.

        A pair ``(M, P)`` is support tau-tilting when ``M`` is tau-rigid,
        ``Hom(P, M) = 0`` and ``|M| + |P| = n``, counting non-isomorphic
        summands (Adachi-Iyama-Reiten, arXiv:1210.1036, Def. 0.3).  So the
        checks are the count, which a repeated id or vertex fails, exact
        support (``v`` is in ``P`` iff ``M`` vanishes at ``v``: one way is
        ``Hom(P, M) = 0``, the other holds since such an ``M`` is sincere over
        the quotient by ``P``) and rigidity through the ``rigid`` table; a
        failure names the first that fails.  Support is one test of the
        summands' support masks against the shifted vertices: a vertex at or
        above ``n`` sets a bit outside the full mask, and a negative one fails
        first.  Rigidity is one row test per summand.  An id outside the
        registry raises ``ValueError``, and nothing is registered.  That each
        ``P_v`` has an ``add M``-approximation with cokernel in ``add M`` is
        then a theorem, checked by a tier-1 oracle and not at run time.
        """
        ids, verts = pair.summands, pair.proj_part
        self._check_ids(ids)
        nv, need = self.algebra.quiver.n_vertices, _bits(ids)
        if len(ids) + len(verts) != nv or need.bit_count() + len(set(verts)) != nv:
            return Validation(False, "count")
        if min(verts, default=0) < 0 or \
                self._support_of(ids) ^ _bits(pair.proj_part) != (1 << nv) - 1:
            return Validation(False, "support")
        if not self._rows_rigid(ids, need):
            return Validation(False, "rigidity")
        return VALID

    def is_sincere_silting(self, pair: SiltingPair) -> bool:
        return len(pair.summands) == self.algebra.quiver.n_vertices

    # ---- approximations -------------------------------------------------------

    def left_minimal_approximation(self, x: int, target_ids):
        """Left minimal approximation of module ``x`` by sums of the targets.

        One copy per Hom-basis element is an approximation; ``_strip_copies``
        drops the copies it can spare, testing each at its own target only.
        The map stacks the kept copies into its ``target``, their direct sum,
        the zero module when none is kept.  Returns (copy list, map).  An id
        outside the registry raises ``ValueError``.
        """
        targets = sorted(target_ids)
        self._check_ids([x] + targets)
        copies = [(t, b) for t in targets for b in range(len(self.hom(x, t)))]
        copies = self._strip_copies(x, copies)
        source = self.registry.rep(x)
        target, _ = rm.rep_direct_sum(self.algebra, [self.registry.rep(t) for t, _ in copies])
        maps = [self.hom(x, t)[b] for t, b in copies]
        comps = [np.concatenate([em.zeros(0, d)] + [f.comps[v] for f in maps])
                 for v, d in enumerate(source.dims)]
        # the blocks are Yoneda maps, which commute by construction, or
        # hom_basis maps, whose squares hom_basis checks in bulk
        return copies, rm.RepMap(source, target, comps, check=False)

    def _strip_copies(self, x: int, copies):
        """Drop, in one pass, each copy the approximation property can spare.

        ``copies`` starts as an approximation and each removal keeps it one.
        So dropping ``(t, b)`` keeps the property iff its own map ``x -> t``
        factors through the other copies, one ``_spans`` test at ``t``: any
        map that factored through ``(t, b)`` then factors through the rest.
        Adding copies only strengthens the property, so a copy that has to
        stay once stays for good: after a removal the pass goes on from the
        same position, and keeps what a scan restarting at 0 would keep.
        """
        copies = list(copies)
        i = 0
        while i < len(copies):
            trial = copies[:i] + copies[i + 1:]
            if self._spans(x, copies[i][0], trial):
                copies = trial
            else:
                i += 1
        return copies

    def _spans(self, x: int, t: int, copies) -> bool:
        """Whether the composites of ``copies`` into ``t`` span ``Hom(x, t)``."""
        dim = len(self.hom(x, t))
        blocks = [self.composition(x, k, t)[:, b] for k, b in copies]
        return em.rank(np.concatenate([em.zeros(dim, 0)] + blocks, axis=1),
                       self.algebra.p) == dim

    # ---- mutation ---------------------------------------------------------------

    def mutate_left(self, pair: SiltingPair, at: int) -> SiltingPair | None:
        """Irreducible left mutation at the ``at``-th module summand, or ``None``.

        With ``X`` that summand and ``U`` the rest, the mutation exists iff
        ``X`` is not in ``Fac U`` (Adachi-Iyama-Reiten, arXiv:1210.1036,
        Def.-Prop. 2.28), and it is then the completion of ``(U, P)`` other
        than ``X``.  There are exactly two completions, one above the other
        (AIR Thm 2.18), so the other one, where it is known, also says whether
        the mutation exists.

        One gate at entry: a recorded cone of the registry, as every
        ``explore`` node is, is trusted, as ``decompose`` trusts it.  Any
        other input goes through ``make_pair``, with its refusals, and is
        validated once as given: an invalid one raises ``ValueError`` with
        ``validate_silting_pair``'s reason.  Past the gate the pair is
        canonical and support tau-tilting, and the routes are:
        - A vertex outside ``P`` that ``U`` leaves unsupported gives the
          shifted projective there.  ``(U, P + v)`` is support tau-tilting,
          since ``U_v = 0`` (AIR Def. 0.3), and strictly below the input,
          since ``X_v != 0``; nothing is checked at run time.
        - Else the one registered module ``Y`` that completes the pair,
          found by the partner scan on the rigidity table, whose conditions
          are AIR Def. 0.3.  ``U + Y <= X + U`` comes down to the single
          entry ``rigid(X, Y)`` (Def.-Prop. 2.28); when it fails, ``X`` is
          in ``Fac U`` and the result is ``None``.  Nothing else is checked.
        - Only with neither is ``X`` tested for ``Fac U``, first by tops: a
          surjection ``U^m -> X`` induces one on tops, so a top vertex of
          ``X`` that is in no top of ``U`` puts ``X`` outside ``Fac U``.
          Only otherwise are the images of the cached ``Hom(U, X)`` tested.
          Outside ``Fac U`` the partner is built as the cokernel of the
          minimal left approximation of ``X`` by ``U``, and registered.  A
          new module is no theorem's output, so this result must pass
          ``validate_silting_pair`` and lie strictly below the input by
          ``pair_leq``, or ``RuntimeError`` is raised.
        ``mutation_counts`` records which way each call went.  ``Y`` goes
        into ``U`` at its ``bisect`` position by ``Registry.key``, where a
        neighbour with its key raises ``make_pair``'s ``RuntimeError``, and a
        new vertex into ``P`` likewise.  Every result is recorded as a cone.
        """
        ids, verts = pair.summands, pair.proj_part
        if not 0 <= at < len(ids):
            raise IndexError(f"summand index {at} out of range")
        reg, key = self.registry, self.registry._keys
        x = ids[at]
        if (ids, verts) not in reg._cones:
            canon = self.make_pair(ids, verts)
            if not (valid := self.validate_silting_pair(pair)):
                raise ValueError(f"{pair} is not a support tau-tilting pair: {valid.reason}")
            ids, verts = canon.summands, canon.proj_part
        k = ids.index(x)
        rest = ids[:k] + ids[k + 1:]
        shifted, others = self._shifted(verts), _bits(rest)
        counts = self.mutation_counts
        counts["attempted"] += 1
        rest_mask = self._support_of(rest)
        bare = (1 << self.algebra.quiver.n_vertices) - 1 & ~(rest_mask | shifted)
        built = False
        if bare:
            # |U| = n - 1 - |P| for a valid input, and U is tau-rigid over the
            # algebra mod P and the bare vertices: only one is bare (AIR Prop. 1.3)
            counts["shifted_projective"] += 1
            v = bare.bit_length() - 1
            k = bisect_left(verts, v)
            summands, proj_part = rest, verts[:k] + (v,) + verts[k:]
        else:
            y = self._partner(x, rest, others, shifted)
            if y is not None:
                if not self.rigid(x, y):
                    counts["fac_rejected"] += 1
                    return None
                counts["registry_lookup"] += 1
            elif not reg._tops[x] & ~reduce(or_, map(reg._tops.__getitem__, rest), 0) \
                    and rm.images_span([f for i in rest for f in self.hom(i, x)], reg.rep(x)):
                counts["fac_rejected"] += 1
                return None
            else:
                counts["cokernel_built"] += 1
                _, h = self.left_minimal_approximation(x, rest)
                cok, _ = rm.cokernel(h)
                if cok.is_zero():
                    raise RuntimeError("the approximation is onto but no vertex "
                                       "loses support; the input is not a silting pair")
                y, built = reg.get_or_insert(cok), True
            k = bisect_left(rest, key[y], key=key.__getitem__)
            # in an ascending ``rest`` only ``rest[k]`` can share y's key
            if k < len(rest) and key[rest[k]] == key[y]:
                raise RuntimeError("two summands share dimension and g-vector; "
                                   "registry corruption?")
            summands, proj_part = rest[:k] + (y,) + rest[k:], verts
        candidate = SiltingPair(summands, proj_part)
        if built:
            if not (valid := self.validate_silting_pair(candidate)):
                raise RuntimeError(f"left mutation of {pair} at {at} failed "
                                   f"validation: {valid.reason}")
            if not self.pair_leq(candidate, pair) or self.pair_leq(pair, candidate):
                raise RuntimeError(f"left mutation of {pair} at {at} is not strictly below it")
        reg._record_cone(candidate.summands, candidate.proj_part)
        return candidate

    def registered_partner(self, x: int, rest, proj_part) -> int | None:
        """The registered ``y`` other than ``x`` that completes ``(rest, proj_part)``.

        The registry is scanned for a ``y`` outside ``rest``, with no support
        on ``proj_part``, rigid with itself and both ways with every summand
        of ``rest``: the pair is then tau-rigid with as many summands as
        vertices, hence support tau-tilting (Adachi-Iyama-Reiten,
        arXiv:1210.1036, Def. 0.3 and Section 2).  ``None`` means ``y`` is
        not registered yet.  ``x`` and ``rest`` are refused as ``make_pair``
        refuses a pair; the scan itself is ``_partner``, which
        ``mutate_left`` calls on the masks it already holds.
        """
        self.make_pair((x, *rest), proj_part)
        return self._partner(x, rest, _bits(rest), self._shifted(proj_part))

    def _partner(self, x: int, rest, others: int, shifted: int) -> int | None:
        """``registered_partner``'s scan on the trusted bitsets of ``rest`` and ``P``.

        The AND of the rows of ``rest`` leaves the ``y`` with ``rigid(u, y)``
        for every ``u``; the scan visits only those, in ascending order, and
        tests each on its own row, for ``rigid(y, y)`` and ``rigid(y, u)``,
        and on its support mask.  An almost-complete pair has exactly two
        completions (AIR Thm 2.18), so a second ``y`` raises ``RuntimeError``.
        """
        rows, support = self.registry._rigid, self.registry._support
        left = (1 << len(rows)) - 1 & ~(others | 1 << x)
        for u in rest:
            left &= rows[u]
        found = []
        while left:
            y = (left & -left).bit_length() - 1
            left &= left - 1
            need = others | 1 << y
            if rows[y] & need == need and not support[y] & shifted:
                found.append(y)
        if len(found) > 1:
            raise RuntimeError(f"registered modules {found} all complete the pair; "
                               "one is decomposable or two are isomorphic")
        return found[0] if found else None

    # ---- order --------------------------------------------------------------------

    def pair_leq(self, a: SiltingPair, b: SiltingPair) -> bool:
        """``a <= b`` in the silting order: the factor class of a sits inside b's.

        Two violation counts must vanish (Adachi-Iyama-Reiten, arXiv:1210.1036,
        Section 2): summands of ``a`` supported at a shifted vertex of ``b``,
        and pairs (``i`` in ``b``, ``j`` in ``a``) where ``rigid(i, j)`` fails.
        Over many pairs ``order_rows`` reads them as one packed column per
        summand of ``a``.  Here the first is one test of support masks, the
        second one row test per summand of ``b``.  A shifted vertex or an id
        out of range raises ``ValueError``.
        """
        self._check_ids(a.summands + b.summands)
        self._shifted(a.proj_part)
        return not self._support_of(a.summands) & self._shifted(b.proj_part) \
            and self._rows_rigid(b.summands, _bits(a.summands))

    def order_rows(self, pairs) -> Iterator[int]:
        """Row ``a``, yielded in turn: the bitset of the ``b`` with
        ``pair_leq(pairs[a], pairs[b])``.

        ``pair_leq(a, b)`` asks, of each summand ``j`` of ``a``, that the
        rigidity rows of ``b``'s summands all hold ``j`` and that ``j``'s
        support misses ``b``'s shifted vertices.  So row ``a`` is the AND,
        over the summands ``j`` of ``a``, of one packed column ``C_j``: the
        ``b`` that pass both tests for ``j``.  Per pair ``b`` the ids that
        pass are one AND of its summands' rows, masked by the ids supported
        at a shifted vertex; one bit transpose turns those into the columns.
        Stray shifted vertices and ids raise, as in ``pair_leq``, before the
        first row.
        """
        reg = self.registry
        support, rows = reg._support, reg._rigid
        ids = sorted({i for pair in pairs for i in pair.summands})
        self._check_ids(ids)
        every_id = (1 << len(reg)) - 1
        unblocked: dict[int, int] = {}    # shifted vertices -> ids supported off them
        passing = []
        for pair in pairs:
            shifted = self._shifted(pair.proj_part)
            ok = unblocked.get(shifted)
            if ok is None:
                ok = unblocked[shifted] = every_id & ~_bits(
                    j for j in range(len(reg)) if support[j] & shifted)
            for i in pair.summands:
                ok &= rows[i]
            passing.append(ok)
        cols = np.packbits(bit_matrix(passing, len(reg))[:, ids].T, axis=1,
                           bitorder="little")
        column = {j: int.from_bytes(c.tobytes(), "little") for j, c in zip(ids, cols)}
        return _and_columns(pairs, column, (1 << len(pairs)) - 1)

    # ---- pair <-> complex bridges ---------------------------------------------------

    def complex_of(self, pair: SiltingPair) -> tt.TwoTermComplex:
        self._check_ids(pair.summands)
        self._shifted(pair.proj_part)
        parts = [self.registry.presentation(i) for i in pair.summands]
        parts += [tt.shifted_stalk(self.algebra, v) for v in pair.proj_part]
        if not parts:
            return tt.zero_complex(self.algebra)
        return tt.direct_sum(*parts)

    def pair_of(self, t: tt.TwoTermComplex) -> SiltingPair:
        """The pair of the additive equivalence class: summands deduplicated."""
        shifted, pieces = self.registry.decompose(t)
        return self.make_pair(set(pieces), shifted)


def _bits(items) -> int:
    """The bitset of the non-negative integers ``items``."""
    mask = 0
    for k in items:
        mask |= 1 << k
    return mask


def _and_columns(pairs, column: dict[int, int], every: int) -> Iterator[int]:
    """Per pair, the AND of ``every`` and the ``column`` of each of its summands."""
    for pair in pairs:
        row = every
        for j in pair.summands:
            row &= column[j]
        yield row


def bit_matrix(bitsets, width: int) -> np.ndarray:
    """Row ``a``, column ``b`` is bit ``b`` of ``bitsets[a]``, for ``b`` below ``width``."""
    nbytes = (width + 7) // 8
    packed = np.frombuffer(b"".join(m.to_bytes(nbytes, "little") for m in bitsets),
                           dtype=np.uint8).reshape(len(bitsets), nbytes)
    return np.unpackbits(packed, axis=1, count=width, bitorder="little").view(bool)


def _vec_map(h: rm.RepMap) -> np.ndarray:
    if not h.comps:
        return np.zeros(0, dtype=np.int64)
    return np.concatenate([c.reshape(-1) for c in h.comps])
