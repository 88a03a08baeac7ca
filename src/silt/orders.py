"""Built-in reductions of the one-dimensional order families, torsion-class
assembly, and the symmetric-group weak-order oracle.

Each lattice order over a complete discrete valuation ring is represented
here by its finite-dimensional reduction modulo the maximal ideal; the
silting posets of the order and of the reduction agree, and that invariance
is itself exercised by a computational check (same quiver, squared bound).

The torsion Hasse assembly is restricted to families where "finite length"
is known to mean "non-sincere" and the generic fibre is Morita-local: the
cyclic hereditary family.  Callers asking for other families are refused
rather than given a guess.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .algebra import FiniteDimAlgebra, Quiver, build_algebra, presentation
from .exactmat import DEFAULT_PRIME
from .explorer import ExchangeQuiver, adjacency, kahn_order, node_label


# ---- built-in reductions -----------------------------------------------------


def cyclic_nakayama(n: int, ell: int, p: int = DEFAULT_PRIME) -> FiniteDimAlgebra:
    """Cyclic quiver on ``n`` vertices with all paths of length ``ell`` zero."""
    if n < 1 or ell < 1:
        raise ValueError("need at least one vertex and a positive bound")
    verts = tuple(str(i + 1) for i in range(n))
    arrows = tuple((f"a{i + 1}", verts[i], verts[(i + 1) % n]) for i in range(n))
    rels = []
    for i in range(n):
        word = tuple(f"a{(i + k) % n + 1}" for k in range(ell))
        rels.append([(1, word)])
    return build_algebra(presentation(Quiver(verts, arrows), rels, ell), p)


def hereditary_reduction(n: int, p: int = DEFAULT_PRIME) -> FiniteDimAlgebra:
    """Reduction of the cyclic hereditary order on ``n`` points.

    For ``n == 1`` this is the one-loop quiver with the loop set to zero,
    i.e. the ground field.
    """
    return cyclic_nakayama(n, n, p)


def auslander_bass_v_reduction(n: int, p: int = DEFAULT_PRIME) -> FiniteDimAlgebra:
    """Double quiver of a line on ``n + 1`` vertices modulo all 2-cycles."""
    if n < 0:
        raise ValueError("parameter must be non-negative")
    verts = tuple(str(i) for i in range(n + 1))
    arrows = []
    for i in range(n):
        arrows.append((f"alpha{i}", verts[i], verts[i + 1]))
        arrows.append((f"beta{i}", verts[i + 1], verts[i]))
    rels = []
    for i in range(n):
        rels.append([(1, (f"alpha{i}", f"beta{i}"))])
        rels.append([(1, (f"beta{i}", f"alpha{i}"))])
    return build_algebra(presentation(Quiver(verts, tuple(arrows)), rels, n + 2), p)


def bass_v_reduction(p: int = DEFAULT_PRIME) -> FiniteDimAlgebra:
    return auslander_bass_v_reduction(1, p)


def triangular_example_reduction(p: int = DEFAULT_PRIME) -> FiniteDimAlgebra:
    """Linear two-vertex quiver, no relations: the lower-triangular example."""
    q = Quiver(("1", "2"), (("a", "1", "2"),))
    return build_algebra(presentation(q, [], 2), p)


BUILTIN_FAMILIES = ("hereditary", "bass_v", "auslander_bass_v", "triangular_a2")


def builtin_algebra(name: str, n: int | None = None, p: int = DEFAULT_PRIME) -> FiniteDimAlgebra:
    if name == "hereditary":
        if n is None:
            raise ValueError("family 'hereditary' needs a parameter n >= 1")
        return hereditary_reduction(n, p)
    if name == "auslander_bass_v":
        if n is None:
            raise ValueError("family 'auslander_bass_v' needs a parameter n >= 0")
        return auslander_bass_v_reduction(n, p)
    if name in ("bass_v", "triangular_a2") and n is not None:
        raise ValueError(f"family {name!r} takes no parameter n, got {n}")
    if name == "bass_v":
        return bass_v_reduction(p)
    if name == "triangular_a2":
        return triangular_example_reduction(p)
    raise ValueError(f"unknown builtin family {name!r}; "
                     f"choose one of {', '.join(BUILTIN_FAMILIES)}")


# ---- sincerity and torsion-class assembly --------------------------------------


def classify_sincere(eq: ExchangeQuiver) -> list[bool]:
    """Per-node flag: does the module part span every vertex?"""
    if not eq.complete:
        raise ValueError("sincerity classification needs a complete exploration")
    ws = eq.workspace
    return [ws.is_sincere_silting(node) for node in eq.nodes]


@dataclass
class TorsHasse:
    """Hasse diagram of all torsion classes, assembled from the exchange quiver.

    ``nodes`` entries are ``(kind, exchange node id)`` where kind "Fac" is a
    full factor class and "FacFl" its finite-length part; sincere exchange
    nodes appear twice (their factor class is not finite length), all others
    once.
    """

    nodes: list[tuple[str, int]]
    edges: list[tuple[int, int]]


def assemble_tors_hasse(eq: ExchangeQuiver, sincere: list[bool]) -> TorsHasse:
    """Glue the finite-length Hasse diagram with a copy of its sincere part.

    The output keeps every exchange node (finite-length torsion classes),
    adds one extra node per sincere position (the full factor class), copies
    the exchange edges, copies the edges between sincere nodes, and drops
    one edge from each added node onto its finite-length shadow.
    """
    if not eq.complete:
        raise ValueError("assembly needs a complete exploration")
    if len(sincere) != len(eq.nodes):
        raise ValueError("flag vector does not match the exploration")
    base = len(eq.nodes)
    nodes = [("FacFl" if sincere[i] else "Fac", i) for i in range(base)]
    gamma_index: dict[int, int] = {}
    for i in range(base):
        if sincere[i]:
            gamma_index[i] = len(nodes)
            nodes.append(("Fac", i))
    edges = [(u, v) for (u, v, _) in eq.edges]
    for (u, v, _) in eq.edges:
        if sincere[u] and sincere[v]:
            edges.append((gamma_index[u], gamma_index[v]))
    for i in range(base):
        if sincere[i]:
            edges.append((gamma_index[i], i))
    _check_unique_ends(*adjacency(len(nodes), edges))
    return TorsHasse(nodes, edges)


def _check_unique_ends(succ: list[set[int]], pred: list[set[int]]):
    sources = [i for i, p in enumerate(pred) if not p]
    sinks = [i for i, s in enumerate(succ) if not s]
    if len(sources) != 1 or len(sinks) != 1:
        raise AssertionError(f"expected unique ends, got sources={sources}, sinks={sinks}")
    if len(kahn_order(succ, pred)) != len(pred):
        raise AssertionError("directed cycle found; not a Hasse diagram")


def tors_hasse_json_doc(th: TorsHasse) -> dict:
    return {
        "nodes": [{"id": i, "kind": kind, "pair": ref}
                  for i, (kind, ref) in enumerate(th.nodes)],
        "edges": [[u, v] for (u, v) in th.edges],
    }


def tors_hasse_dot(th: TorsHasse, eq: ExchangeQuiver) -> str:
    lines = ["digraph tors {"]
    for i, (kind, ref) in enumerate(th.nodes):
        label = f"{kind}({node_label(eq, ref)})".replace('"', "'")
        lines.append(f'  n{i} [label="{label}"];')
    for (u, v) in th.edges:
        lines.append(f"  n{u} -> n{v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---- weak order oracle -----------------------------------------------------------


@dataclass
class WeakOrderPoset:
    degree: int
    elements: list[tuple[int, ...]]
    covers: list[tuple[int, int]]   # (longer, shorter) index pairs


def _inversions(w: tuple[int, ...]) -> int:
    return sum(1 for i in range(len(w)) for j in range(i + 1, len(w))
               if w[i] > w[j])


WEAK_ORDER_CAP = 7


def weak_order_hasse(m: int) -> WeakOrderPoset:
    """All permutations of degree ``m`` with descending weak-order covers.

    Pure enumeration, independent of everything silting-related: an arrow
    runs from ``w`` to ``w s_i`` whenever the swap removes an inversion.
    Degrees above ``WEAK_ORDER_CAP`` are refused.
    """
    if m < 1:
        raise ValueError("degree must be at least 1")
    if m > WEAK_ORDER_CAP:
        raise ValueError(f"degree {m} exceeds the enumeration cap {WEAK_ORDER_CAP}")
    elements = list(itertools.permutations(range(1, m + 1)))
    index = {w: i for i, w in enumerate(elements)}
    covers = []
    for w in elements:
        for i in range(m - 1):
            if w[i] > w[i + 1]:
                shorter = w[:i] + (w[i + 1], w[i]) + w[i + 2:]
                covers.append((index[w], index[shorter]))
    # grading sanity: every cover drops the inversion count by exactly one
    for u, v in covers:
        if _inversions(elements[u]) != _inversions(elements[v]) + 1:
            raise AssertionError("a cover must drop the inversion count by one")
    # each of the m - 1 adjacent positions is a descent in half the permutations
    if 2 * len(covers) != len(elements) * (m - 1):
        raise AssertionError("the covers must number m! (m - 1) / 2")
    return WeakOrderPoset(m, elements, covers)


# ---- digraph isomorphism -----------------------------------------------------------


def as_cover_graph(x) -> tuple[int, list[tuple[int, int]]]:
    """Normalise the supported poset carriers to (node count, edge list)."""
    if isinstance(x, ExchangeQuiver):
        return len(x.nodes), [(u, v) for (u, v, _) in x.edges]
    if isinstance(x, WeakOrderPoset):
        return len(x.elements), list(x.covers)
    if isinstance(x, TorsHasse):
        return len(x.nodes), list(x.edges)
    n, edges = x
    return int(n), [(int(u), int(v)) for (u, v) in edges]


def _refine_colors(n: int, succ, pred) -> list[int]:
    colors = [(len(succ[i]), len(pred[i])) for i in range(n)]
    canon = {c: k for k, c in enumerate(sorted(set(colors)))}
    cur = [canon[c] for c in colors]
    while True:
        sigs = []
        for i in range(n):
            sigs.append((cur[i],
                         tuple(sorted(cur[j] for j in succ[i])),
                         tuple(sorted(cur[j] for j in pred[i]))))
        canon = {s: k for k, s in enumerate(sorted(set(sigs)))}
        nxt = [canon[s] for s in sigs]
        if nxt == cur:
            return cur
        cur = nxt


def poset_isomorphic(a, b) -> bool:
    """Digraph isomorphism of two Hasse diagrams, by refinement + backtracking.

    Nodes of ``a`` are placed breadth-first over the cover graph (connected:
    it has one source) from one of the rarest colour; each later node draws
    its candidates from the same-colour neighbours of its BFS parent's image.
    """
    na, ea = as_cover_graph(a)
    nb, eb = as_cover_graph(b)
    succ_a, pred_a = adjacency(na, ea)
    succ_b, pred_b = adjacency(nb, eb)
    _check_unique_ends(succ_a, pred_a)
    _check_unique_ends(succ_b, pred_b)
    if na != nb or len(ea) != len(eb):
        return False
    n = na
    col_a = _refine_colors(n, succ_a, pred_a)
    col_b = _refine_colors(n, succ_b, pred_b)
    if sorted(col_a) != sorted(col_b):
        return False
    by_color_b: dict[int, list[int]] = {}
    for j in range(n):
        by_color_b.setdefault(col_b[j], []).append(j)
    root = min(range(n), key=lambda i: (len(by_color_b[col_a[i]]), col_a[i], i))
    order, parent = [root], {root: root}
    for i in order:   # breadth-first, appending to the list it reads
        for x in sorted(succ_a[i] | pred_a[i]):
            if x not in parent:
                parent[x] = i
                order.append(x)
    mapping = [-1] * n   # a -> b
    inverse = [-1] * n   # b -> a

    def fits(i: int, j: int) -> bool:
        # every mapped neighbour of i maps to a neighbour of j, and back
        return all(to[x] == -1 or to[x] in there
                   for to, here, there in ((mapping, succ_a[i], succ_b[j]),
                                           (mapping, pred_a[i], pred_b[j]),
                                           (inverse, succ_b[j], succ_a[i]),
                                           (inverse, pred_b[j], pred_a[i]))
                   for x in here)

    # depth-first search without recursion, one level per node: ``tried[k]``
    # counts the candidates already tried for ``order[k]``, so the depth is
    # not bounded by the interpreter's recursion limit
    tried = [0] * n
    k = 0
    while 0 <= k < n:
        i = order[k]
        if mapping[i] != -1:   # back from a dead end below: undo and go on
            inverse[mapping[i]] = -1
            mapping[i] = -1
        up = mapping[parent[i]]   # the BFS parent's image; -1 at the root
        cands = ([y for y in sorted(succ_b[up] | pred_b[up]) if col_b[y] == col_a[i]]
                 if k else by_color_b[col_a[i]])
        while tried[k] < len(cands):
            j = cands[tried[k]]
            tried[k] += 1
            if inverse[j] == -1 and fits(i, j):
                mapping[i], inverse[j] = j, i
                k += 1
                break
        else:
            tried[k] = 0
            k -= 1
    return k == n
