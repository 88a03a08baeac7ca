"""Finite-dimensional quotients of path algebras, built degree by degree.

Conventions, fixed here once and used throughout the package:

* Path words are written in traversal order: the word ``(a, b)`` means
  "walk ``a``, then ``b``", and a product ``x * y`` is nonzero only when
  ``target(x) == source(y)``.
* Modules are left modules presented as quiver representations: a space
  ``M_i`` per vertex and a matrix ``M_b : M_i -> M_j`` per arrow
  ``b: i -> j`` (shape ``dims[j] x dims[i]``, acting on column vectors).
  A path acts by composing its arrow matrices in walking order.
* The projective at ``v`` is spanned by the surviving paths out of ``v``;
  an arrow acts by appending itself to the end of a path.  ``Hom(P_v, M)``
  is identified with ``M_v`` by evaluating a morphism at ``e_v``.
* A morphism ``P_c -> P_r`` is left multiplication by an element of
  ``e_r . A . e_c`` (a combination of paths from ``r`` to ``c``).

Relations must be length homogeneous: each one is a linear combination of
parallel paths of a single common length.  The two-sided ideal they
generate is then graded, and ideal membership splits into one reduced row
echelon form per (source, target, length) triple.  Its non-pivot paths
form the algebra basis, and its rows give each path's expansion over that
basis, kept once in the table ``(source, path) -> {gid: coeff}`` that every
product reads; the dicts in it are shared and never written.  The
nilpotency bound ``N`` declares that every path of length ``N`` already
lies in the relation ideal; the builder verifies this and refuses
presentations where the basis is still growing at length ``N``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import exactmat as em
from .exactmat import DEFAULT_PRIME


class AlgebraBuildError(ValueError):
    """Raised when a presentation fails validation."""


@dataclass(frozen=True)
class Quiver:
    """A finite quiver with labelled vertices and arrows.

    ``arrows`` entries are ``(label, source_label, target_label)``.
    """

    vertices: tuple[str, ...]
    arrows: tuple[tuple[str, str, str], ...]

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(str(v) for v in self.vertices))
        object.__setattr__(self, "arrows",
                           tuple((str(l), str(s), str(t)) for l, s, t in self.arrows))
        if len(set(self.vertices)) != len(self.vertices):
            raise AlgebraBuildError("duplicate vertex labels")
        labels = [a[0] for a in self.arrows]
        if len(set(labels)) != len(labels):
            raise AlgebraBuildError("duplicate arrow labels")
        vindex = {v: i for i, v in enumerate(self.vertices)}
        for label, s, t in self.arrows:
            if s not in vindex or t not in vindex:
                raise AlgebraBuildError(f"arrow {label!r} has undeclared endpoint")
        object.__setattr__(self, "_vindex", vindex)
        object.__setattr__(self, "_aindex", {a[0]: k for k, a in enumerate(self.arrows)})
        object.__setattr__(self, "_src", tuple(vindex[a[1]] for a in self.arrows))
        object.__setattr__(self, "_tgt", tuple(vindex[a[2]] for a in self.arrows))

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_arrows(self) -> int:
        return len(self.arrows)

    def vertex_index(self, v) -> int:
        if isinstance(v, int):
            if not 0 <= v < len(self.vertices):
                raise AlgebraBuildError(f"vertex index {v} out of range")
            return v
        try:
            return self._vindex[str(v)]
        except KeyError:
            raise AlgebraBuildError(f"unknown vertex {v!r}") from None

    def arrow_index(self, a) -> int:
        if isinstance(a, int):
            if not 0 <= a < len(self.arrows):
                raise AlgebraBuildError(f"arrow index {a} out of range")
            return a
        try:
            return self._aindex[str(a)]
        except KeyError:
            raise AlgebraBuildError(f"unknown arrow {a!r}") from None

    def arrow_source(self, k: int) -> int:
        return self._src[k]

    def arrow_target(self, k: int) -> int:
        return self._tgt[k]

    def path_target(self, src: int, path: tuple[int, ...]) -> int:
        v = src
        for a in path:
            if self._src[a] != v:
                raise AlgebraBuildError(f"non-composable path {path} from {src}")
            v = self._tgt[a]
        return v


# a relation is a tuple of (coefficient, arrow-index word) terms
Relation = tuple[tuple[int, tuple[int, ...]], ...]


@dataclass(frozen=True)
class AlgebraPresentation:
    quiver: Quiver
    relations: tuple[Relation, ...]
    nilpotency_bound: int

    def __post_init__(self):
        if self.nilpotency_bound < 1:
            raise AlgebraBuildError("nilpotency bound must be at least 1")


def presentation(quiver: Quiver, relations, nilpotency_bound: int) -> AlgebraPresentation:
    """Build a presentation from relations given by arrow labels or indices."""
    rels = []
    for rel in relations:
        terms = []
        for coeff, word in rel:
            terms.append((int(coeff), tuple(quiver.arrow_index(a) for a in word)))
        rels.append(tuple(terms))
    return AlgebraPresentation(quiver, tuple(rels), int(nilpotency_bound))


class AlgebraElement:
    """An element of ``e_src . A . e_tgt``: coefficients on basis paths.

    ``coeffs`` never changes after construction (``tests/test_lint.py``
    checks the sources for writes into it), so the hash is computed once,
    on first use, and kept in ``_hash``.
    """

    __slots__ = ("algebra", "src", "tgt", "coeffs", "_hash")

    def __init__(self, algebra: "FiniteDimAlgebra", src: int, tgt: int, coeffs: dict):
        self.algebra = algebra
        self.src = src
        self.tgt = tgt
        p = algebra.p
        self.coeffs = {g: r for g, c in coeffs.items() if (r := c % p)}
        self._hash = None

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self._combine(other, 1)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self._combine(other, -1)

    def _combine(self, other: "AlgebraElement", sign: int) -> "AlgebraElement":
        """``self + sign * other`` in one pass."""
        if (self.src, self.tgt) != (other.src, other.tgt):
            raise AssertionError("summands must share source and target")
        out = dict(self.coeffs)
        for g, c in other.coeffs.items():
            out[g] = out.get(g, 0) + sign * c
        return AlgebraElement(self.algebra, self.src, self.tgt, out)

    def scale(self, c: int) -> "AlgebraElement":
        return AlgebraElement(self.algebra, self.src, self.tgt,
                              {g: v * c for g, v in self.coeffs.items()})

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        """Compose in traversal order; zero when endpoints do not chain."""
        alg = self.algebra
        if self.tgt != other.src:
            return alg.zero_elem(self.src, other.tgt)
        out: dict[int, int] = {}
        for g1, c1 in self.coeffs.items():
            for g2, c2 in other.coeffs.items():
                for g, c in alg.mult_basis(g1, g2).items():
                    out[g] = out.get(g, 0) + c1 * c2 * c
        return AlgebraElement(alg, self.src, other.tgt, out)

    def unit_coefficient(self) -> int:
        """Coefficient on the trivial path (zero unless src == tgt)."""
        if self.src != self.tgt:
            return 0
        return self.coeffs.get(self.algebra.unit_gid(self.src), 0)

    def local_inverse(self) -> "AlgebraElement":
        """Inverse in the local algebra ``e_v A e_v``; needs a nonzero unit part.

        A scalar unit ``c . e_v`` has the inverse ``c^-1 . e_v``, since
        ``e_v`` is idempotent, and is returned with no series.  Any other
        unit ``c . (e_v - x)`` with ``x`` radical, hence nilpotent, is
        inverted by the geometric series ``c^-1 . (e_v + x + x^2 + ...)``,
        which the nilpotency bound ends; that result is checked.
        """
        alg = self.algebra
        if self.src != self.tgt:
            raise ValueError("only loop-shaped elements can be inverted")
        c0 = self.unit_coefficient()
        if c0 == 0:
            raise ValueError("element lies in the radical, not invertible")
        p = alg.p
        inv0 = pow(c0, p - 2, p)
        if len(self.coeffs) == 1:
            return AlgebraElement(alg, self.src, self.src, {alg.unit_gid(self.src): inv0})
        one = alg.unit_elem(self.src)
        nil = one - self.scale(inv0)  # radical part, nilpotent
        total = one
        power = one
        for _ in range(alg.nilpotency_bound):
            power = power * nil
            if power.is_zero():
                break
            total = total + power
        result = total.scale(inv0)
        if not (self * result - one).is_zero():
            raise AssertionError("the series inverse is not an inverse")
        return result

    def __eq__(self, other) -> bool:
        return (isinstance(other, AlgebraElement)
                and self.algebra is other.algebra
                and (self.src, self.tgt) == (other.src, other.tgt)
                and self.coeffs == other.coeffs)

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash((id(self.algebra), self.src, self.tgt,
                                   tuple(sorted(self.coeffs.items()))))
        return h

    def __repr__(self):
        if self.is_zero():
            return f"<0: {self.src}->{self.tgt}>"
        parts = []
        for g in sorted(self.coeffs):
            c = self.coeffs[g]
            parts.append(f"{c}*{self.algebra.basis_name(g)}")
        return "<" + " + ".join(parts) + f": {self.src}->{self.tgt}>"


# the expansion of a path past the nilpotency bound, and of a product of
# basis paths that do not chain; shared and never written
_DEAD: dict[int, int] = {}


@dataclass(frozen=True)
class BasisPath:
    src: int
    tgt: int
    path: tuple[int, ...]


class FiniteDimAlgebra:
    """``kQ/I`` with a chosen path basis and structure constants.

    ``expansions``, the one structure-constant table, maps ``(source
    vertex, path)`` for every path up to the nilpotency bound to its
    coefficients ``{gid: coeff}`` over the basis, empty when it dies.
    ``expand_path`` and ``mult_basis`` read it and hand out its dicts
    themselves, shared, and no code writes into them.  Instances are
    immutable after construction; the lazy caches only ever grow with
    values that are functions of their keys, so any number of registries
    and workspaces may share one algebra.
    """

    def __init__(self, presentation: AlgebraPresentation, p: int,
                 basis: list[BasisPath], expansions: dict):
        self.presentation = presentation
        self.quiver = presentation.quiver
        self.p = p
        self.nilpotency_bound = presentation.nilpotency_bound
        self.basis = tuple(basis)
        self.dimension = len(basis)
        self._expand = expansions          # (src, path) -> {gid: coeff}
        pair: dict[tuple[int, int], list[int]] = {}
        for g, b in enumerate(self.basis):
            pair.setdefault((b.src, b.tgt), []).append(g)
        self._pair_basis = {k: tuple(v) for k, v in pair.items()}
        self._pair_pos = {g: pos for gids in self._pair_basis.values()
                          for pos, g in enumerate(gids)}
        self._zeros: dict[tuple[int, int], AlgebraElement] = {}
        self._basis_elems: dict[int, AlgebraElement] = {}
        self._projectives: dict[int, object] = {}
        self._simples: dict[int, object] = {}
        self._stalks: dict[tuple, object] = {}   # silt.twoterm._stalk_complex
        self._blocks: dict[tuple, tuple] = {}    # silt.twoterm._hom_entries

    # ---- basis bookkeeping -------------------------------------------------

    def pair_basis(self, i: int, j: int) -> tuple[int, ...]:
        """Basis path ids from vertex ``i`` to vertex ``j`` (length, then lex)."""
        return self._pair_basis.get((i, j), ())

    def pair_dim(self, i: int, j: int) -> int:
        return len(self.pair_basis(i, j))

    def pair_pos(self, gid: int) -> int:
        return self._pair_pos[gid]

    def unit_gid(self, v: int) -> int:
        """``e_v``: length 0 is reduced first, so it is the first basis path ``v -> v``."""
        return self._pair_basis[v, v][0]

    def basis_name(self, gid: int) -> str:
        b = self.basis[gid]
        if not b.path:
            return f"e{self.quiver.vertices[b.src]}"
        return "".join(self.quiver.arrows[a][0] for a in b.path)

    # ---- products ----------------------------------------------------------

    def expand_path(self, src: int, path: tuple[int, ...]) -> dict[int, int]:
        """Coefficients of a raw path over the basis (empty if it dies).

        The dict is the table's own, shared and never written.
        """
        if len(path) > self.nilpotency_bound:
            return _DEAD
        try:
            return self._expand[src, path]
        except KeyError:
            raise AlgebraBuildError(f"non-composable path {path} from {src}") from None

    def mult_basis(self, g1: int, g2: int) -> dict[int, int]:
        """The product of two basis paths: a lookup in the table."""
        b1, b2 = self.basis[g1], self.basis[g2]
        return self.expand_path(b1.src, b1.path + b2.path) if b1.tgt == b2.src else _DEAD

    # ---- element constructors ----------------------------------------------

    def zero_elem(self, src: int, tgt: int) -> AlgebraElement:
        """The zero of ``e_src . A . e_tgt``, one shared object per pair.

        Sharing is safe because no code assigns into an element's
        ``coeffs``; ``tests/test_lint.py`` checks the sources for it.
        """
        z = self._zeros.get((src, tgt))
        if z is None:
            z = self._zeros[(src, tgt)] = AlgebraElement(self, src, tgt, {})
        return z

    def unit_elem(self, v: int) -> AlgebraElement:
        return AlgebraElement(self, v, v, {self.unit_gid(v): 1})

    def basis_elem(self, gid: int) -> AlgebraElement:
        """The basis path ``gid`` as an element, one shared object per gid.

        Sharing is safe for the reason ``zero_elem`` gives.
        """
        x = self._basis_elems.get(gid)
        if x is None:
            b = self.basis[gid]
            x = self._basis_elems[gid] = AlgebraElement(self, b.src, b.tgt, {gid: 1})
        return x

    # ---- canonical modules ---------------------------------------------------

    def projective(self, v) -> "Rep":  # noqa: F821 - deferred import below
        """Indecomposable projective at ``v``: surviving paths out of ``v``."""
        v = self.quiver.vertex_index(v)
        rep = self._projectives.get(v)
        if rep is None:
            rep = _projective_rep(self, v)
            self._projectives[v] = rep
        return rep

    def simple(self, v) -> "Rep":  # noqa: F821
        v = self.quiver.vertex_index(v)
        rep = self._simples.get(v)
        if rep is None:
            from .repmod import Rep
            dims = tuple(1 if w == v else 0 for w in range(self.quiver.n_vertices))
            maps = tuple(em.zeros(dims[self.quiver.arrow_target(k)],
                                  dims[self.quiver.arrow_source(k)])
                         for k in range(self.quiver.n_arrows))
            rep = Rep(self, dims, maps)
            self._simples[v] = rep
        return rep

    def to_json_dict(self) -> dict:
        return presentation_to_dict(self.presentation, self.p)

    def __repr__(self):
        return (f"FiniteDimAlgebra(dim={self.dimension}, "
                f"vertices={len(self.quiver.vertices)}, p={self.p})")


def _projective_rep(alg: FiniteDimAlgebra, v: int):
    from .repmod import Rep
    q = alg.quiver
    nv = q.n_vertices
    dims = tuple(alg.pair_dim(v, w) for w in range(nv))
    maps = []
    for k in range(q.n_arrows):
        w, w2 = q.arrow_source(k), q.arrow_target(k)
        m = em.zeros(dims[w2], dims[w])
        for col, gid in enumerate(alg.pair_basis(v, w)):
            for g2, c in alg.expand_path(v, alg.basis[gid].path + (k,)).items():
                m[alg.pair_pos(g2), col] = c
        maps.append(m)
    return Rep(alg, dims, tuple(maps))


# ---- the builder -------------------------------------------------------------


def build_algebra(pres: AlgebraPresentation, p: int = DEFAULT_PRIME) -> FiniteDimAlgebra:
    """Compute a path basis and the expansion of every path over it.

    Degree by degree, the length-``l`` component of the relation ideal is
    spanned by all products ``u * r * v`` with ``r`` a relation and ``u, v``
    paths.  Each ``(source, target, length)`` block of those rows is put in
    reduced row echelon form; its non-pivot paths join the basis, and each
    pivot path's expansion is read off its row.  The form is unique, so the
    basis and the expansions depend only on the presentation and ``p``.
    """
    em.check_field_prime(p)
    q = pres.quiver
    N = pres.nilpotency_bound
    rel_info = _validate_relations(pres, p)

    # paths[l][(src, tgt)]: the raw paths of length l, sorted
    paths: list[dict[tuple[int, int], list[tuple[int, ...]]]] = [
        {(v, v): [()] for v in range(q.n_vertices)}]
    for l in range(1, N + 1):
        level: dict[tuple[int, int], list[tuple[int, ...]]] = {}
        for (i, t), words in paths[-1].items():
            for k in range(q.n_arrows):
                if q.arrow_source(k) == t:
                    level.setdefault((i, q.arrow_target(k)), []).extend(w + (k,) for w in words)
        paths.append({key: sorted(words) for key, words in level.items()})

    basis: list[BasisPath] = []
    expansions: dict[tuple[int, tuple[int, ...]], dict[int, int]] = {}
    for l, level in enumerate(paths):
        for (i, j), plist in sorted(level.items()):
            pos = {w: c for c, w in enumerate(plist)}
            rows = []
            for (sr, tr, m, terms) in rel_info:
                for a in range(l - m + 1):
                    for u in paths[a].get((i, sr), []):
                        for w in paths[l - m - a].get((tr, j), []):
                            row = [0] * len(plist)
                            for coeff, word in terms:
                                row[pos[u + word + w]] += coeff
                            rows.append(row)
            mat = np.array(rows, dtype=np.int64).reshape(len(rows), len(plist))
            r, pivots = em.rref(mat, p)
            free = sorted(set(range(len(plist))) - set(pivots))
            gids = {c: len(basis) + k for k, c in enumerate(free)}
            for c, g in gids.items():
                basis.append(BasisPath(i, j, plist[c]))
                expansions[i, plist[c]] = {g: 1}
            for row, c in zip(r.tolist(), pivots):
                expansions[i, plist[c]] = {g: -row[f] % p for f, g in gids.items() if row[f]}

    growing = Counter((b.src, b.tgt) for b in basis if len(b.path) == N)
    if growing:
        detail = ", ".join(f"{q.vertices[i]}->{q.vertices[j]} ({n} paths)"
                           for (i, j), n in growing.items())
        raise AlgebraBuildError(
            f"basis still growing at length {N}: {detail}; "
            "the relation ideal does not contain that arrow power")

    return FiniteDimAlgebra(pres, p, basis, expansions)


def _validate_relations(pres: AlgebraPresentation, p: int):
    q = pres.quiver
    info = []
    for idx, rel in enumerate(pres.relations):
        terms = [(c % p, tuple(word)) for c, word in rel if c % p]
        if not terms:
            continue
        shapes = set()
        for _, word in terms:
            if not word:
                raise AlgebraBuildError(f"relation {idx} contains a length-0 term")
            src = q.arrow_source(word[0])
            tgt = q.path_target(src, word)
            shapes.add((src, tgt, len(word)))
        if len(shapes) != 1:
            raise AlgebraBuildError(
                f"relation {idx} is not parallel and length-homogeneous: {sorted(shapes)}")
        (src, tgt, length), = shapes
        if length > pres.nilpotency_bound:
            raise AlgebraBuildError(
                f"relation {idx} has length {length} above the nilpotency bound")
        info.append((src, tgt, length, tuple(terms)))
    return info


# ---- canonical module wrappers (operation surface) ---------------------------


def projective_module(algebra: FiniteDimAlgebra, v):
    """Projective representation ``P_v``; see the class method for details."""
    return algebra.projective(v)


def simple_module(algebra: FiniteDimAlgebra, v):
    """One-dimensional representation concentrated at ``v``."""
    return algebra.simple(v)


# ---- JSON interchange ---------------------------------------------------------


def presentation_to_dict(pres: AlgebraPresentation, p: int) -> dict:
    q = pres.quiver
    return {
        "field": {"p": p},
        "quiver": {
            "vertices": list(q.vertices),
            "arrows": [[l, s, t] for l, s, t in q.arrows],
        },
        "relations": [
            [[c, [q.arrows[a][0] for a in word]] for c, word in rel]
            for rel in pres.relations
        ],
        "nilpotency_bound": pres.nilpotency_bound,
    }


def presentation_from_dict(d: dict) -> tuple[AlgebraPresentation, int]:
    try:
        p = int(d.get("field", {}).get("p", DEFAULT_PRIME))
        qd = d["quiver"]
        quiver = Quiver(tuple(qd["vertices"]),
                        tuple((a[0], a[1], a[2]) for a in qd["arrows"]))
        rels = d.get("relations", [])
        pres = presentation(quiver, [[(t[0], t[1]) for t in rel] for rel in rels],
                            d["nilpotency_bound"])
    except (KeyError, IndexError, TypeError) as exc:
        raise AlgebraBuildError(f"malformed algebra description: {exc}") from exc
    return pres, p


def algebra_from_dict(d: dict, p: int | None = None) -> FiniteDimAlgebra:
    pres, file_p = presentation_from_dict(d)
    return build_algebra(pres, p if p is not None else file_p)
