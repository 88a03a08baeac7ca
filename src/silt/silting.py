"""Module-level silting theory: pairs, mutation, and the silting order.

A silting pair is a basic set of indecomposable module summands plus a set
of vertices whose shifted projectives make up the complex's degree -1 stalk
part.  The summands live in a shared registry which hands out stable ids,
keyed by (dimension vector, g-vector) with isomorphism confirmation, so
deduplication never trusts the numeric key alone.  ``mutate_left`` registers
a module only when a mutation exists and its partner is not registered yet,
so a registry that ``explore`` filled holds only summands of the pairs it
produced.

A ``SiltingWorkspace`` keeps two caches, plain dicts filled without locks,
so a workspace belongs to one thread.  Each fills on first use, is never
invalidated, and is keyed by registry ids, which are stable because the
registry only grows:

- ``hom(i, j)``: the Hom-space basis, per ordered id pair.  ``mutate_left``
  reads ``Hom(U, X)`` only for an ``X`` without a registered partner, the
  one case in which it may build a module.
- ``composition(x, k, t)``: the coordinates of every composite
  ``Hom(k, t) . Hom(x, k)`` in the basis of ``Hom(x, t)``, per id triple.
  ``_strip_copies`` reads it instead of composing maps: dropping a copy
  ``(t, b)`` from an approximation of ``x`` is one rank test, whether the
  composites of the other copies into ``t`` span ``Hom(x, t)``.

The ``Registry`` stores, per module id, its ``(dims, g-vector)`` key, its
vertex support, the degree -1 vertices of its minimal presentation, and
its row of the rigidity table, the last three as bitsets:

- ``rigid_row(i)``: the ids ``j`` with ``Hom(P_i, P_j[1]) = 0``, ``P_i``
  and ``P_j`` the minimal presentations; no module is read.
  ``twoterm.is_presilting`` asks the same of whole complexes.  The table
  is always whole: filing a module fills its row, its column and its
  diagonal against every registered id.  An entry is a quotient of
  ``Hom(P_i^{-1}, M_j)`` (AIR Section 3), so it vanishes when ``M_j`` is
  zero at every degree -1 vertex of ``P_i``, one mask test; only the other
  entries run ``twoterm.hom_shift_vanishes``.  The partial order on
  discovered pairs, the rigidity step of validation and the partner scan
  reduce to one mask test per row plus a support condition, and
  ``order_matrix`` reads the rows as they are.  ``registered_partner``
  reads the mutation partner off them alone: the AND of the rows of the
  rest of a pair leaves a few candidates, each tested on its own row and
  support mask.

It keeps two more caches, both per two-term complex ``t`` and keyed by
``minimality_reduce(t)``; cancelling contractible summands changes no Hom
in the homotopy category.  ``minimality_reduce`` hands an already reduced
complex back as it is, and a complex computes its hash once, on first use.
So a completion is reduced
once, when it is built: the ``is_silting`` gate and ``pair_of`` find
nothing left to cancel and key on the same object, which is hashed once and
matches its memo key by identity:

- ``decompose(t)``: the shifted-projective vertices and the H^0 summand
  ids, the one route from a complex to its pair.  A presilting complex is
  determined by its g-vector (Adachi-Iyama-Reiten, arXiv:1210.1036, Thm
  5.5), so a miss is read off a table of g-vector cones, one per support
  tau-tilting pair the registry has seen: Lambda and Lambda[1] from
  construction, then every pair ``mutate_left`` returns.  The coordinates
  come from each cone's exact integer inverse, built once.  A complex that
  is not presilting, or lies in no recorded cone, raises ``ValueError``;
  nothing is stored, so the next call, when more cones may be recorded,
  computes afresh.
- ``is_presilting(t)``: the verdict of ``twoterm.is_presilting``.  A miss
  tests every ordered pair ``(A, B)`` of ``twoterm.components`` through one
  more memo, keyed by the pair: ``twoterm.hom_shift_vanishes(A, B)``.  Hom
  is additive, so the pairs give the verdict of the whole complex (AIR,
  arXiv:1210.1036, Section 3), and the completions share most pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

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


MUTATION_OUTCOMES = ("attempted", "fac_rejected", "shifted_projective",
                     "registry_lookup", "cokernel_built")
ORDER_ROWS = 256


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
        self._gvec: list[tuple[int, ...]] = []
        self._keys: list[tuple] = []
        self._support: list[int] = []
        self._cols: list[int] = []
        self._rigid: list[int] = []
        self._by_key: dict[tuple, list[int]] = {}
        self._decomp: dict[tt.TwoTermComplex,
                           tuple[tuple[int, ...], tuple[int, ...]]] = {}
        self._presilting: dict[tt.TwoTermComplex, bool] = {}
        self._pair_onto: dict[tuple[tt.TwoTermComplex, tt.TwoTermComplex], bool] = {}
        nv = algebra.quiver.n_vertices
        self._cones: dict[tuple[tuple[int, ...], tuple[int, ...]], None] = {}
        self._cone_keys: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
        self._cone_inv = np.zeros((0, nv, nv), dtype=np.int64)
        for v in range(nv):
            pres = tt.stalk(algebra, v)
            self._insert(algebra.projective(v), pres, tt.g_vector(pres))
        self.record_cone(range(nv), ())
        self.record_cone((), range(nv))

    def __len__(self):
        return len(self._reps)

    def rep(self, i: int) -> rm.Rep:
        return self._reps[i]

    def presentation(self, i: int) -> tt.TwoTermComplex:
        return self._pres[i]

    def gvector(self, i: int) -> tuple[int, ...]:
        return self._gvec[i]

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
        self._gvec.append(gvec)
        self._keys.append(key)
        self._support.append(_bits(v for v, d in enumerate(rep.dims) if d))
        self._cols.append(_bits(pres.cols))
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
        every degree -1 vertex of ``P_i``, and the shifted-Hom matrix
        decides the rest.
        """
        return not self._cols[i] & self._support[j] or tt.hom_shift_vanishes(
            self._pres[i], self._pres[j])

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

    def record_cone(self, summands, proj_part) -> None:
        """Record the g-vector cone of a support tau-tilting pair.

        ``summands`` are registry ids and ``proj_part`` vertices.  The callers
        record Lambda, Lambda[1] and results of ``mutate_left`` that passed
        ``validate_silting_pair``.  The cone joins ``decompose``'s table, and
        its g-matrix is checked for unimodularity when the table is next
        built.
        """
        self._cones.setdefault((tuple(sorted(summands)), tuple(sorted(proj_part))))

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
        red = tt.minimality_reduce(t)
        got = self._decomp.get(red)
        if got is None:
            if not self.is_presilting(red):
                raise ValueError("the complex is not presilting")
            coords = self._cone_coordinates(tt.g_vector(red))
            hits = np.flatnonzero((coords >= 0).all(axis=1))
            if not hits.size:
                raise ValueError("the g-vector lies in no recorded cone")
            ids, verts = self._cone_keys[hits[0]]
            c = coords[hits[0]].tolist()
            got = self._decomp[red] = (
                tuple(v for v, m in zip(verts, c[len(ids):]) for _ in range(m)),
                tuple(i for i, m in zip(ids, c) for _ in range(m)))
        return got

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
        cols = [self._gvec[i] for i in ids]
        cols += [tuple(-int(w == v) for w in range(nv)) for v in verts]
        g = np.array(cols, dtype=np.int64).reshape(len(cols), nv).T
        inv = em.unimodular_inverse(g) if len(cols) == nv else None
        if inv is None or not (g @ inv == em.identity(nv)).all():
            raise AssertionError(f"the cone of {ids} | {verts} is not unimodular")
        return inv

    def is_presilting(self, t: tt.TwoTermComplex) -> bool:
        """``twoterm.is_presilting(t)``, memoised per reduced complex.

        A contractible summand changes no Hom in the homotopy category, so
        the reduced complex has the verdict of ``t``.  A miss asks whether
        ``Hom(A, B[1])`` vanishes for every ordered pair of its components
        through ``_onto``, memoised across complexes.
        """
        red = tt.minimality_reduce(t)
        got = self._presilting.get(red)
        if got is None:
            parts = tt.components(red)
            got = self._presilting[red] = all(self._onto(a, b) for a in parts for b in parts)
        return got

    def _onto(self, a: tt.TwoTermComplex, b: tt.TwoTermComplex) -> bool:
        """``Hom(a, b[1]) = 0``, memoised per ordered component pair."""
        got = self._pair_onto.get((a, b))
        if got is None:
            got = self._pair_onto[a, b] = tt.hom_shift_vanishes(a, b)
        return got


class SiltingWorkspace:
    """An algebra, its registry, and all mutation-level operations."""

    def __init__(self, algebra: FiniteDimAlgebra, registry: Registry | None = None):
        self.algebra = algebra
        self.registry = registry if registry is not None else Registry(algebra)
        self._hom: dict[tuple[int, int], list[rm.RepMap]] = {}
        self._comp: dict[tuple[int, int, int], np.ndarray] = {}
        self.mutation_counts = dict.fromkeys(MUTATION_OUTCOMES, 0)

    # ---- cached primitives -----------------------------------------------

    def module(self, i: int) -> rm.Rep:
        return self.registry.rep(i)

    def hom(self, i: int, j: int) -> list[rm.RepMap]:
        got = self._hom.get((i, j))
        if got is None:
            got = self._hom[i, j] = rm.hom_basis(self.module(i), self.module(j))
        return got

    def rigid(self, i: int, j: int) -> bool:
        """Whether ``Hom(P_i, P_j[1])`` vanishes, ``P_i`` and ``P_j`` the
        minimal presentations of modules ``i`` and ``j``.

        That is ``Hom(M_j, tau M_i) = 0`` (Adachi-Iyama-Reiten,
        arXiv:1210.1036, Lemma 3.4): bit ``j`` of the registry's row of ``i``,
        filled when the later of the two was registered.
        """
        return bool(self.registry.rigid_row(i) >> j & 1)

    def _rows_rigid(self, sources, targets) -> bool:
        """``all(rigid(i, j) for i in sources for j in targets)``: one mask test per row."""
        need = _bits(targets)
        return all(self.registry.rigid_row(i) & need == need for i in sources)

    def composition(self, x: int, k: int, t: int) -> np.ndarray:
        """Coordinates of the composites ``psi . h`` in the basis of ``Hom(x, t)``.

        Entry ``[c, b, e]`` is the ``c``-th coordinate of the ``e``-th basis
        map of ``Hom(k, t)`` after the ``b``-th basis map of ``Hom(x, k)``.
        """
        got = self._comp.get((x, k, t))
        if got is None:
            got = self._comp[x, k, t] = self._composition_compute(x, k, t)
        return got

    def _composition_compute(self, x: int, k: int, t: int) -> np.ndarray:
        hxk, hkt, hxt = self.hom(x, k), self.hom(k, t), self.hom(x, t)
        if not hxk or not hkt:
            return np.zeros((len(hxt), len(hxk), len(hkt)), dtype=np.int64)
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
        """Entry counts of the three caches; the ``rigid`` table is always whole."""
        return {"hom": len(self._hom), "rigid": len(self.registry) ** 2,
                "composition": len(self._comp)}

    # ---- pair plumbing ------------------------------------------------------

    def make_pair(self, summands, proj_part) -> SiltingPair:
        """The canonical pair of registry ids ``summands`` and vertices ``proj_part``.

        An id outside the registry or a vertex outside the quiver raises
        ``ValueError``, as do repeated summands.
        """
        ids = list(summands)
        verts = sorted(set(int(v) for v in proj_part))
        if ids and not 0 <= min(ids) <= max(ids) < len(self.registry):
            raise ValueError(f"summand ids {ids} are not all registry ids "
                             f"0..{len(self.registry) - 1}")
        if verts and not 0 <= verts[0] <= verts[-1] < self.algebra.quiver.n_vertices:
            raise ValueError(f"shifted vertices {verts} are not all vertices "
                             f"0..{self.algebra.quiver.n_vertices - 1}")
        if len(set(ids)) != len(ids):
            raise ValueError("pair summands must be pairwise distinct")
        keys = [self.registry.key(i) for i in ids]
        if len(set(keys)) != len(keys):
            raise RuntimeError("two summands share dimension and g-vector; "
                               "registry corruption?")
        order = sorted(range(len(ids)), key=lambda k: keys[k])
        return SiltingPair(tuple(ids[k] for k in order), tuple(verts))

    def lambda_pair(self) -> SiltingPair:
        return self.make_pair(range(self.algebra.quiver.n_vertices), ())

    def _support_of(self, ids) -> int:
        """The vertices where some module of ``ids`` is nonzero, as a bitset."""
        mask = 0
        for i in ids:
            mask |= self.registry.support(i)
        return mask

    # ---- predicates ----------------------------------------------------------

    def validate_silting_pair(self, pair: SiltingPair) -> Validation:
        """Whether ``pair`` is a support tau-tilting pair, by the definition.

        A pair ``(M, P)`` is support tau-tilting when ``M`` is tau-rigid,
        ``Hom(P, M) = 0`` and ``|M| + |P| = n`` (Adachi-Iyama-Reiten,
        arXiv:1210.1036, Def. 0.3).  So the checks are the count, exact
        support (``v`` is in ``P`` iff ``M`` vanishes at ``v``: one way is
        ``Hom(P, M) = 0``, the other holds since such an ``M`` is sincere over
        the quotient by ``P``) and rigidity through the ``rigid`` table; a
        failure names the first that fails.  Support is one test of the
        summands' support masks against the shifted vertices, and fails for
        a shifted vertex outside the quiver; rigidity is one row test per
        summand.  Nothing is registered.  That each ``P_v`` has
        an ``add M``-approximation with cokernel in ``add M`` is then a
        theorem, checked by a tier-1 oracle and not at run time.
        """
        nv = self.algebra.quiver.n_vertices
        if len(pair.summands) + len(pair.proj_part) != nv:
            return Validation(False, "count")
        if not all(0 <= v < nv for v in pair.proj_part) or \
                self._support_of(pair.summands) ^ _bits(pair.proj_part) != (1 << nv) - 1:
            return Validation(False, "support")
        if not self._rows_rigid(pair.summands, pair.summands):
            return Validation(False, "rigidity")
        return Validation(True)

    def is_sincere_silting(self, pair: SiltingPair) -> bool:
        return len(pair.summands) == self.algebra.quiver.n_vertices

    # ---- approximations -------------------------------------------------------

    def left_minimal_approximation(self, x: int, target_ids):
        """Left minimal approximation of module ``x`` by sums of the targets.

        One copy per Hom-basis element is an approximation; ``_strip_copies``
        drops the copies it can spare, testing each at its own target only.
        The map stacks the kept copies into their direct sum, the zero module
        when none is kept.  Returns (copy list, map, target).
        """
        copies = [(t, b) for t in sorted(target_ids) for b in range(len(self.hom(x, t)))]
        copies = self._strip_copies(x, copies)
        source = self.registry.rep(x)
        target, _ = rm.rep_direct_sum(self.algebra, [self.registry.rep(t) for t, _ in copies])
        maps = [self.hom(x, t)[b] for t, b in copies]
        comps = [np.concatenate([em.zeros(0, d)] + [f.comps[v] for f in maps])
                 for v, d in enumerate(source.dims)]
        # the blocks are hom_basis maps, whose squares hom_basis checks in bulk
        return copies, rm.RepMap(source, target, comps, check=False), target

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
        the mutation exists:
        - A vertex outside ``P`` that ``U`` leaves unsupported gives the
          shifted projective there.  ``X`` is supported at that vertex and
          ``U`` is not, so ``X`` is not in ``Fac U``.
        - Else the one registered module ``Y`` that completes the pair,
          found by ``registered_partner`` on the rigidity table.
          ``U + Y <= X + U`` comes down to the
          single entry ``rigid(X, Y)``, since the other entries of
          ``pair_leq`` hold for two completions; when it fails, ``X`` is in
          ``Fac U`` and the result is ``None``.
        - Only with neither are the images of the cached ``Hom(U, X)``
          tested for ``X`` in ``Fac U``; if not, the partner is built as
          the cokernel of the minimal left approximation of ``X`` by ``U``,
          and registered.
        ``mutation_counts`` records which way each call went.  An invalid
        input raises: the result must pass ``validate_silting_pair`` (count,
        exact support, rigidity) and lie strictly below ``pair``.
        """
        if not 0 <= at < len(pair.summands):
            raise IndexError(f"summand index {at} out of range")
        x = pair.summands[at]
        rest = tuple(i for k, i in enumerate(pair.summands) if k != at)
        counts = self.mutation_counts
        counts["attempted"] += 1
        nv = self.algebra.quiver.n_vertices
        bare = ~(self._support_of(rest) | _bits(pair.proj_part))
        vacant = [v for v in range(nv) if bare >> v & 1]
        if len(vacant) > 1:
            raise RuntimeError(f"vertices {vacant} all lose support; "
                               "the input is not a silting pair")
        if vacant:
            counts["shifted_projective"] += 1
            candidate = self.make_pair(rest, pair.proj_part + (vacant[0],))
        else:
            y = self.registered_partner(x, rest, pair.proj_part)
            if y is not None:
                if not self.rigid(x, y):
                    counts["fac_rejected"] += 1
                    return None
                counts["registry_lookup"] += 1
            elif rm.images_span([f for i in rest for f in self.hom(i, x)],
                                self.module(x)):
                counts["fac_rejected"] += 1
                return None
            else:
                counts["cokernel_built"] += 1
                _, h, _ = self.left_minimal_approximation(x, rest)
                cok, _ = rm.cokernel(h)
                if cok.is_zero():
                    raise RuntimeError("the approximation is onto but no vertex "
                                       "loses support; the input is not a silting pair")
                y = self.registry.get_or_insert(cok)
            candidate = self.make_pair(rest + (y,), pair.proj_part)
        valid = self.validate_silting_pair(candidate)
        if not valid:
            raise RuntimeError(f"left mutation of {pair} at {at} failed "
                               f"validation: {valid.reason}")
        if not (self.pair_leq(candidate, pair) and not self.pair_leq(pair, candidate)):
            raise RuntimeError(f"left mutation of {pair} at {at} is not strictly below it")
        self.registry.record_cone(candidate.summands, candidate.proj_part)
        return candidate

    def registered_partner(self, x: int, rest, proj_part) -> int | None:
        """The registered ``y`` other than ``x`` that completes ``(rest, proj_part)``.

        The registry is scanned for a ``y`` outside ``rest``, with no support
        on ``proj_part``, rigid with itself and both ways with every summand
        of ``rest``: the pair is then tau-rigid with as many summands as
        vertices, hence support tau-tilting (Adachi-Iyama-Reiten,
        arXiv:1210.1036, Def. 0.3 and Section 2).  The AND of the rows of
        ``rest`` leaves the ``y`` with ``rigid(u, y)`` for every ``u``; the
        scan visits only those, in ascending order, and tests each on its
        own row, for ``rigid(y, y)`` and ``rigid(y, u)``, and on its support
        mask.  ``None`` means ``y`` is not registered yet.  An almost-complete pair
        has exactly two completions (AIR Thm 2.18), so a second ``y`` raises.
        """
        reg = self.registry
        shifted = _bits(proj_part)
        others = _bits(rest)
        left = (1 << len(reg)) - 1 & ~(others | 1 << x)
        for u in rest:
            left &= reg.rigid_row(u)
        found = []
        while left:
            y = (left & -left).bit_length() - 1
            left &= left - 1
            need = others | 1 << y
            if reg.rigid_row(y) & need == need and not reg.support(y) & shifted:
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
        Over many pairs, with ``S`` the pair x module incidence, ``D`` the
        module supports, ``P`` the pair x shifted-vertex incidence and ``R``
        the ``rigid`` table, they are the matrices ``S D P^T`` and
        ``S (1 - R)^T S^T``; ``order_matrix`` computes them.  Here the first
        is one test of support masks, the second one row test per summand
        of ``b``.
        """
        if self._support_of(a.summands) & _bits(b.proj_part):
            return False
        return self._rows_rigid(b.summands, a.summands)

    def order_matrix(self, pairs) -> np.ndarray:
        """``leq[a, b] == pair_leq(pairs[a], pairs[b])`` for every ordered pair.

        Both counts of ``pair_leq`` are non-negative, so ``leq`` is where
        ``S (D P^T + (1 - R)^T S^T)`` vanishes, with ``R`` read off the
        registry's rows of the modules that occur.  Every entry is an
        integer below (modules + vertices)^2, so the float64 products, which
        numpy hands to BLAS, are exact.  The last one runs ``ORDER_ROWS``
        rows at a time, which keeps its float64 block small next to ``leq``.
        """
        nv = self.algebra.quiver.n_vertices
        ids = sorted({i for pair in pairs for i in pair.summands})
        col = {i: k for k, i in enumerate(ids)}
        s = np.zeros((len(pairs), len(ids)))
        p = np.zeros((len(pairs), nv))
        for a, pair in enumerate(pairs):
            s[a, [col[i] for i in pair.summands]] = 1
            p[a, list(pair.proj_part)] = 1
        d = np.array([self.registry.dims(i) for i in ids]).reshape(len(ids), nv) > 0
        rows = [self.registry.rigid_row(i) for i in ids]
        unrigid = np.array([[not ok >> j & 1 for j in ids] for ok in rows],
                           dtype=float).reshape(len(ids), len(ids))
        right = d @ p.T + unrigid.T @ s.T
        leq = np.empty((len(pairs), len(pairs)), dtype=bool)
        for k in range(0, len(pairs), ORDER_ROWS):
            leq[k:k + ORDER_ROWS] = s[k:k + ORDER_ROWS] @ right == 0
        return leq

    # ---- pair <-> complex bridges ---------------------------------------------------

    def complex_of(self, pair: SiltingPair) -> tt.TwoTermComplex:
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


def _vec_map(h: rm.RepMap) -> np.ndarray:
    if not h.comps:
        return np.zeros(0, dtype=np.int64)
    return np.concatenate([c.reshape(-1) for c in h.comps])
