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
from .silting import SiltingPair, SiltingWorkspace

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
    one reuses its registry and caches.  ``stats`` holds ``nodes``,
    ``edges``, ``max_depth`` (the waves run), ``cache_entries`` (the
    workspace's ``cache_sizes`` at the end) and ``mutations``, the
    ``mutate_left`` outcomes of this call, with ``attempted = fac_rejected
    + shifted_projective + registry_lookup + cokernel_built``.  None of
    these keys reaches ``to_json``.
    """
    limits = limits or ExploreLimits()
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

    ``pair_leq`` of every ordered node pair, read at once from two matrix
    products (``SiltingWorkspace.order_matrix``):
    ``leq = (S D P^T == 0) & (S (1 - R)^T S^T == 0)``, with ``S`` the node x
    module incidence, ``D`` the module supports, ``P`` the node x
    shifted-vertex incidence and ``R`` the ``rigid`` table (Adachi-Iyama-Reiten,
    arXiv:1210.1036, Section 2); ``cover_relations`` checks it is an order.
    """
    return eq.workspace.order_matrix(eq.nodes)


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


def hasse_check(eq: ExchangeQuiver) -> bool:
    """Whether the mutation edges are the covers of the order (checked by ``cover_relations``)."""
    if not eq.complete:
        raise ValueError("Hasse comparison needs a complete exploration")
    got = {(u, v) for (u, v, _) in eq.edges}
    return got == cover_relations(poset_relations(eq))


# ---- serialization --------------------------------------------------------------


def node_payload(eq: ExchangeQuiver, i: int) -> dict:
    ws = eq.workspace
    pair = eq.nodes[i]
    return {
        "id": i,
        "summands": [
            {"dims": list(ws.registry.dims(s)), "gvec": list(ws.registry.gvector(s))}
            for s in pair.summands
        ],
        "proj_part": [eq.algebra.quiver.vertices[v] for v in pair.proj_part],
    }


def json_doc(eq: ExchangeQuiver) -> dict:
    """The exploration as a JSON-ready document; ``to_json`` serialises it."""
    return {
        "algebra": eq.algebra.to_json_dict(),
        "complete": eq.complete,
        "nodes": [node_payload(eq, i) for i in range(len(eq.nodes))],
        "edges": [{"from": u, "to": v, "at": at} for (u, v, at) in eq.edges],
    }


def to_json(eq: ExchangeQuiver) -> str:
    return json.dumps(json_doc(eq), sort_keys=True, separators=(",", ":")) + "\n"


def payload_label(payload: dict) -> str:
    """Summand dimension vectors, then the shifted-projective vertex names."""
    if not payload["summands"] and not payload["proj_part"]:
        return "0"
    dims = "+".join(str(s["dims"]) for s in payload["summands"]) or "0"
    if payload["proj_part"]:
        return f"{dims} | {{{','.join(payload['proj_part'])}}}"
    return dims


def node_label(eq: ExchangeQuiver, i: int) -> str:
    return payload_label(node_payload(eq, i))


def doc_to_dot(doc: dict) -> str:
    """DOT of an exploration document, as built by ``json_doc`` or read back."""
    lines = ["digraph exchange {"]
    for nd in doc["nodes"]:
        label = payload_label(nd).replace('"', "'")
        lines.append(f'  n{nd["id"]} [label="{label}" tooltip="{label}"];')
    for e in doc["edges"]:
        lines.append(f'  n{e["from"]} -> n{e["to"]} [label="{e["at"]}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_dot(eq: ExchangeQuiver) -> str:
    return doc_to_dot(json_doc(eq))
