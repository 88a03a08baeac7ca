"""Breadth-first enumeration of the exchange quiver of silting pairs.

The walk starts at the projective pair and mutates every module summand of
every frontier node; shifted-projective summands are never mutated, since a
left mutation there would leave the two-term range — every downward edge is
realised at a module summand.  Each wave mutates in a fixed order (source
index, then canonical summand position), so node and edge numbering is
independent of registry id assignment.

Running out of the node or depth budget is a value, not an error: the
quiver comes back with ``complete = False`` and downstream consumers that
need completeness check the flag.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .algebra import FiniteDimAlgebra
from .silting import SiltingPair, SiltingWorkspace, bit_matrix

DEFAULT_MAX_NODES = 1_000_000
DEFAULT_MAX_DEPTH = 1_000_000


@dataclass(frozen=True)
class ExploreLimits:
    max_nodes: int = DEFAULT_MAX_NODES
    max_depth: int = DEFAULT_MAX_DEPTH

    def __post_init__(self):
        for name, least in (("max_nodes", 1), ("max_depth", 0)):
            value = getattr(self, name)
            if value < least:
                raise ValueError(f"{name} must be at least {least}, got {value}")


@dataclass
class ExchangeQuiver:
    """Nodes are canonical silting pairs; edges are labelled left mutations."""

    workspace: SiltingWorkspace
    nodes: list[SiltingPair]
    edges: list[tuple[int, int, int]]   # (from, to, mutated summand position)
    complete: bool
    stats: dict = field(default_factory=dict)

    @property
    def algebra(self) -> FiniteDimAlgebra:
        return self.workspace.algebra


def explore(algebra: FiniteDimAlgebra, limits: ExploreLimits | None = None,
            workspace: SiltingWorkspace | None = None) -> ExchangeQuiver:
    """The exchange quiver below the projective pair, in breadth-first waves.

    ``workspace`` defaults to a fresh one over ``algebra``; passing a warm
    one reuses its registry and caches, and one over another algebra raises
    ``ValueError``.  ``stats`` holds ``nodes``, ``edges``, ``max_depth``
    (the waves run), ``cache_entries`` (the sizes of the workspace's two
    memos, ``hom`` and ``composition``, at the end) and ``mutations``, the
    ``mutate_left`` outcomes of this call, with ``attempted = fac_rejected
    + shifted_projective + registry_lookup + cokernel_built``.  None of
    these keys reaches ``to_json``.
    """
    limits = limits or ExploreLimits()
    if workspace is not None and workspace.algebra is not algebra:
        raise ValueError("the workspace lives over another algebra than the exploration")
    ws = workspace if workspace is not None else SiltingWorkspace(algebra)
    counts_before = dict(ws.mutation_counts)
    start = ws.lambda_pair()
    nodes: list[SiltingPair] = [start]
    index: dict[SiltingPair, int] = {start: 0}
    edges: list[tuple[int, int, int]] = []
    frontier = [0]
    complete = True
    depth = 0
    while frontier:
        if depth >= limits.max_depth:
            complete = False
            break
        new_frontier = []
        overflowed = False
        for src in frontier:
            for at in range(len(nodes[src].summands)):
                cand = ws.mutate_left(nodes[src], at)
                if cand is None:
                    continue
                tgt = index.get(cand)
                if tgt is None:
                    if len(nodes) >= limits.max_nodes:
                        overflowed = True
                        continue
                    tgt = len(nodes)
                    nodes.append(cand)
                    index[cand] = tgt
                    new_frontier.append(tgt)
                edges.append((src, tgt, at))
        if overflowed:
            complete = False
            break
        frontier = new_frontier
        depth += 1
    stats = {"nodes": len(nodes), "edges": len(edges), "max_depth": depth,
             "cache_entries": ws.cache_sizes(),
             "mutations": {k: n - counts_before[k]
                           for k, n in ws.mutation_counts.items()}}
    return ExchangeQuiver(ws, nodes, edges, complete, stats)


def poset_relations(eq: ExchangeQuiver) -> np.ndarray:
    """Full boolean matrix ``leq[i, j] == (node_i <= node_j)``.

    The rows of ``SiltingWorkspace.order_rows``, unpacked: ``pair_leq`` of
    every ordered node pair (Adachi-Iyama-Reiten, arXiv:1210.1036,
    Section 2).  ``cover_relations`` checks it is an order.
    """
    return bit_matrix(list(eq.workspace.order_rows(eq.nodes)), len(eq.nodes))


def cover_relations(leq: np.ndarray) -> set[tuple[int, int]]:
    """Edges (u, v) with node_v strictly below node_u and nothing between.

    Raises ``AssertionError`` unless ``leq`` is a partial order.  A reflexive,
    antisymmetric relation is transitive iff its strict part ``S`` has
    ``S∘S ⊆ S`` (``a < b < c = a`` contradicts antisymmetry), so one
    composition, the OR of the bitset rows each row selects, both checks the
    order and gives the covers ``S ∖ S∘S``.
    """
    n = leq.shape[0]
    if not leq.diagonal().all():
        raise AssertionError("order is not reflexive")
    strict = np.asarray(leq, dtype=bool) & ~np.eye(n, dtype=bool)
    both = strict & strict.T
    if both.any():
        i, j = np.argwhere(both)[0].tolist()
        raise AssertionError(f"order is not antisymmetric at {i}, {j}")
    packed = np.packbits(strict, axis=1)
    two = np.zeros_like(packed)
    for i in range(n):
        two[i] = np.bitwise_or.reduce(packed[strict[i]], axis=0)
    if (two & ~packed).any():
        raise AssertionError("order is not transitive")
    covers = np.unpackbits(packed & ~two, axis=1, count=n)
    return {(u, v) for v, u in np.argwhere(covers).tolist()}


def adjacency(n: int, edges) -> tuple[list[set[int]], list[set[int]]]:
    """Successor and predecessor sets of nodes ``0..n-1``; repeated edges count once."""
    succ, pred = [set() for _ in range(n)], [set() for _ in range(n)]
    for u, v in edges:
        succ[u].add(v)
        pred[v].add(u)
    return succ, pred


def kahn_order(succ: list[set[int]], pred: list[set[int]]) -> list[int]:
    """Kahn's source peel: each node after all its predecessors.

    It appends to the list it reads; the graph is acyclic iff every node
    gets peeled, so a shorter list means a directed cycle.
    """
    order = [v for v, p in enumerate(pred) if not p]
    indeg = [len(p) for p in pred]
    for u in order:
        for v in succ[u]:
            indeg[v] -= 1
            if not indeg[v]:
                order.append(v)
    return order


def hasse_check(eq: ExchangeQuiver) -> bool:
    """Whether the mutation edges are the covers of the silting order, as
    Adachi-Iyama-Reiten (arXiv:1210.1036, Thm 2.33) prove they are.

    A finite order is the reflexive-transitive closure of its covers, so
    the edges, read as a set, are its covers iff (a) they form a DAG,
    (b) the up-set of every node, its own bit OR the up-sets of the sources
    of its edges, equals its row of ``SiltingWorkspace.order_rows``, and
    (c) the sources of the edges into each node are pairwise incomparable.
    One Kahn pass reads all three, with every bitset over the nodes in its
    peel order; an up-set is dropped once the last edge out of its node is
    read.  Cyclic edges, and rows that are no partial order, give ``False``:
    (b) makes the rows the closure of a DAG.  No ``N x N`` matrix is built.
    """
    if not eq.complete:
        raise ValueError("Hasse comparison needs a complete exploration")
    succ, pred = adjacency(len(eq.nodes), ((u, v) for (u, v, _) in eq.edges))
    order = kahn_order(succ, pred)
    if len(order) != len(eq.nodes):    # (a)
        return False
    place = [0] * len(order)
    for k, v in enumerate(order):
        place[v] = k
    up: dict[int, int] = {}
    left = [len(s) for s in succ]
    rows = eq.workspace.order_rows([eq.nodes[v] for v in order])
    for k, (v, row) in enumerate(zip(order, rows)):
        sources = 0
        for u in pred[v]:
            sources |= 1 << place[u]
        mine = 1 << k
        for u in pred[v]:
            if up[u] & sources != 1 << place[u]:    # (c)
                return False
            mine |= up[u]
            left[u] -= 1
            if not left[u]:
                del up[u]
        if mine != row:    # (b)
            return False
        if left[v]:
            up[v] = mine
    return True


# ---- serialization --------------------------------------------------------------


def to_json(eq: ExchangeQuiver) -> str:
    """The exploration as one line of compact JSON with sorted keys: the
    ``algebra``, ``complete``, the ``edges`` (``at``, ``from``, ``to``) and
    the ``nodes`` (``id``, ``proj_part`` as vertex names, ``summands`` as
    ``dims`` and ``gvec``).  It is joined from strings in that key order, each
    summand id and vertex name encoded once, with no dict per node."""
    reg = eq.workspace.registry
    enc = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
    names = [enc(v) for v in eq.algebra.quiver.vertices]
    summand: dict[int, str] = {}
    nodes = []
    for i, pair in enumerate(eq.nodes):
        for s in pair.summands:
            if s not in summand:
                summand[s] = (f'{{"dims":{enc(list(reg.dims(s)))},'
                              f'"gvec":{enc(list(reg.gvector(s)))}}}')
        nodes.append(f'{{"id":{i},"proj_part":[{",".join(names[v] for v in pair.proj_part)}],'
                     f'"summands":[{",".join(summand[s] for s in pair.summands)}]}}')
    edges = ",".join(f'{{"at":{at},"from":{u},"to":{v}}}' for u, v, at in eq.edges)
    return (f'{{"algebra":{enc(eq.algebra.to_json_dict())},"complete":{enc(eq.complete)},'
            f'"edges":[{edges}],"nodes":[{",".join(nodes)}]}}\n')


def payload_label(payload: dict) -> str:
    """Summand dimension vectors, then the shifted-projective vertex names."""
    if not payload["summands"] and not payload["proj_part"]:
        return "0"
    dims = "+".join(str(s["dims"]) for s in payload["summands"]) or "0"
    if payload["proj_part"]:
        return f"{dims} | {{{','.join(payload['proj_part'])}}}"
    return dims


def node_label(eq: ExchangeQuiver, i: int) -> str:
    pair = eq.nodes[i]
    return payload_label({
        "summands": [{"dims": list(eq.workspace.registry.dims(s))} for s in pair.summands],
        "proj_part": [eq.algebra.quiver.vertices[v] for v in pair.proj_part]})


def doc_to_dot(doc: dict) -> str:
    """DOT of an exploration document, the parsed ``to_json`` text."""
    lines = ["digraph exchange {"]
    for nd in doc["nodes"]:
        label = payload_label(nd).replace('"', "'")
        lines.append(f'  n{nd["id"]} [label="{label}" tooltip="{label}"];')
    for e in doc["edges"]:
        lines.append(f'  n{e["from"]} -> n{e["to"]} [label="{e["at"]}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_dot(eq: ExchangeQuiver) -> str:
    return doc_to_dot(json.loads(to_json(eq)))
