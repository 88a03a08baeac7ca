import hashlib
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from silt import explorer as ex
from silt import orders
from silt.silting import MUTATION_OUTCOMES, SiltingWorkspace


@pytest.fixture(scope="module")
def a2_eq():
    return ex.explore(orders.triangular_example_reduction())


@pytest.fixture(scope="module")
def bass_eq():
    return ex.explore(orders.bass_v_reduction())


def labelled_nodes(eq):
    """Map (sorted dim vectors of summands, proj labels) -> node index."""
    ws = eq.workspace
    out = {}
    for i, node in enumerate(eq.nodes):
        dims = tuple(sorted(ws.registry.dims(s) for s in node.summands))
        proj = tuple(eq.algebra.quiver.vertices[v] for v in node.proj_part)
        out[(dims, proj)] = i
    return out


def test_single_vertex_exploration():
    eq = ex.explore(orders.hereditary_reduction(1))
    assert eq.complete
    assert len(eq.nodes) == 2
    assert len(eq.edges) == 1
    assert ex.hasse_check(eq)


def test_a2_matches_figure(a2_eq):
    eq = a2_eq
    assert eq.complete
    assert len(eq.nodes) == 5
    assert len(eq.edges) == 5
    at = labelled_nodes(eq)
    lam = at[(((0, 1), (1, 1)), ())]
    p1m1 = at[(((1, 0), (1, 1)), ())]
    p2 = at[(((0, 1),), ("1",))]
    m1 = at[(((1, 0),), ("2",))]
    zero = at[((), ("1", "2"))]
    assert {(u, v) for (u, v, _) in eq.edges} == {
        (lam, p1m1), (lam, p2), (p1m1, m1), (p2, zero), (m1, zero)}


def test_a2_out_degree_of_top(a2_eq):
    lam_out = sum(1 for (u, _, _) in a2_eq.edges if u == 0)
    assert lam_out == a2_eq.algebra.quiver.n_vertices


def test_bass_v_matches_figure(bass_eq):
    eq = bass_eq
    assert eq.complete
    assert len(eq.nodes) == 6
    assert len(eq.edges) == 6
    at = labelled_nodes(eq)
    lam = at[(((1, 1), (1, 1)), ())]
    m2p2 = at[(((0, 1), (1, 1)), ())]
    p1m1 = at[(((1, 0), (1, 1)), ())]
    m2 = at[(((0, 1),), ("0",))]
    m1 = at[(((1, 0),), ("1",))]
    zero = at[((), ("0", "1"))]
    assert {(u, v) for (u, v, _) in eq.edges} == {
        (lam, m2p2), (lam, p1m1), (m2p2, m2), (p1m1, m1), (m2, zero), (m1, zero)}


def test_hasse_check(a2_eq, bass_eq):
    assert ex.hasse_check(a2_eq)
    assert ex.hasse_check(bass_eq)


@pytest.fixture(scope="module")
def broken_edge_runs():
    return {"hereditary4": ex.explore(orders.hereditary_reduction(4)),
            "auslander3": ex.explore(orders.auslander_bass_v_reduction(3)),
            "nakayama3-5": ex.explore(orders.cyclic_nakayama(3, 5))}


def _doctored_edges(eq):
    """Edge lists with one fault each, named, and whether they are the covers."""
    edges = eq.edges
    top = 0
    bottom = next(i for i, nd in enumerate(eq.nodes) if not nd.summands)
    u, w, at = edges[0]
    x = next(v for (s, v, _) in edges if s == w)     # u -> w -> x
    return [("dropped", edges[1:], False),
            ("transitive", edges + [(top, bottom, 0)], False),
            ("shortcut", edges + [(u, x, at)], False),
            ("upward", edges + [(bottom, top, 0)], False),
            ("self-loop", edges + [(w, w, 0)], False),
            ("2-cycle", edges + [(w, u, 0)], False),
            ("duplicated", edges + [edges[-1]], True)]


def test_hasse_check_rejects_transitive_edge(broken_edge_runs):
    # and every other broken edge set: the transitive and the shortcut edges
    # make two sources of one node comparable, the dropped edge shrinks an
    # up-set, the others close a directed cycle; the edges are read as a
    # set, so a repeat is no fault.  The reference route, cover_relations of
    # the unpacked order, agrees on each.
    for key, eq in broken_edge_runs.items():
        covers = ex.cover_relations(ex.poset_relations(eq))
        assert ex.hasse_check(eq), key
        for name, edges, want in _doctored_edges(eq):
            doctored = ex.ExchangeQuiver(eq.workspace, eq.nodes, edges, eq.complete)
            assert ex.hasse_check(doctored) is want, (key, name)
            assert ({(u, v) for (u, v, _) in edges} == covers) is want, (key, name)


def test_poset_relations_a2(a2_eq):
    leq = ex.poset_relations(a2_eq)
    assert int(leq.sum()) == 13  # 5 reflexive + 8 strict


def _order(n, pairs):
    """Reflexive relation on range(n) plus the given (below, above) pairs."""
    leq = np.eye(n, dtype=bool)
    for a, b in pairs:
        leq[a, b] = True
    return leq


@pytest.mark.parametrize("rel, message", [
    (np.zeros((3, 3), dtype=bool), "not reflexive"),
    (_order(3, [(0, 1), (1, 0)]), "not antisymmetric at 0, 1"),
    (_order(3, [(0, 1), (1, 2)]), "not transitive"),
])
def test_poset_relations_rejects_broken_orders(rel, message):
    with pytest.raises(AssertionError, match=message):
        ex.cover_relations(rel)


def test_hasse_check_makes_no_pair_leq_calls(monkeypatch):
    # the order comes from packed rows, one AND per summand, not from one
    # pair_leq per node pair
    eq = ex.explore(orders.hereditary_reduction(4))
    calls = []
    pair_leq = SiltingWorkspace.pair_leq

    def counting(self, a, b):
        calls.append((a, b))
        return pair_leq(self, a, b)

    monkeypatch.setattr(SiltingWorkspace, "pair_leq", counting)
    assert ex.hasse_check(eq)
    assert calls == []
    # the wrapper is live: a direct call is counted
    assert eq.workspace.pair_leq(eq.nodes[-1], eq.nodes[0])
    assert len(calls) == 1


def test_hasse_check_allocates_no_square_array():
    # the order is read as packed rows and up-sets of at most N bits each,
    # never as an N x N array: a bool one alone would take N^2 bytes
    eq = ex.explore(orders.hereditary_reduction(7))
    n = len(eq.nodes)
    tracemalloc.start()
    try:
        assert ex.hasse_check(eq)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n // 2


def test_cover_relations_chain_and_diamond():
    chain = np.triu(np.ones((4, 4), dtype=bool))   # leq[i, j] iff i <= j
    assert ex.cover_relations(chain) == {(1, 0), (2, 1), (3, 2)}
    diamond = _order(4, [(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)])
    assert ex.cover_relations(diamond) == {(1, 0), (2, 0), (3, 1), (3, 2)}
    assert ex.cover_relations(np.zeros((0, 0), dtype=bool)) == set()


def _covers_by_loops(leq):
    """The cover relation straight from its definition, as a reference."""
    n = leq.shape[0]
    return {(u, v) for u in range(n) for v in range(n)
            if u != v and leq[v, u]
            and not any(k not in (u, v) and leq[v, k] and leq[k, u] for k in range(n))}


def _is_order_by_loops(leq):
    """Reflexive, antisymmetric and transitive, straight from the definitions."""
    r = range(leq.shape[0])
    return (all(leq[i, i] for i in r)
            and not any(leq[i, j] and leq[j, i] for i in r for j in r if i != j)
            and all(leq[i, k] for i in r for j in r for k in r if leq[i, j] and leq[j, k]))


@st.composite
def _partial_orders(draw):
    """The reflexive-transitive closure of a random DAG, randomly relabelled."""
    n = draw(st.integers(0, 12))
    leq = np.eye(n, dtype=bool) | np.triu(draw(arrays(bool, (n, n))), 1)
    for k in range(n):   # Warshall: i <= k <= j gives i <= j
        leq |= leq[:, [k]] & leq[[k], :]
    perm = np.array(draw(st.permutations(range(n))), dtype=int)
    return leq[np.ix_(perm, perm)]


@settings(deadline=None, max_examples=100)
@given(st.one_of(_partial_orders(),
                 st.integers(0, 12).flatmap(lambda n: arrays(bool, (n, n)))))
def test_cover_relations_matches_loops(leq):
    # an order gets the covers of the reference; anything else is refused
    if _is_order_by_loops(leq):
        assert ex.cover_relations(leq) == _covers_by_loops(leq)
    else:
        with pytest.raises(AssertionError, match="^order is not"):
            ex.cover_relations(leq)


class _RelationWorkspace:
    """``order_rows`` of a given boolean relation on nodes ``0..n-1``."""

    def __init__(self, leq):
        self.leq = leq

    def order_rows(self, pairs):
        return (sum(1 << k for k, b in enumerate(pairs) if self.leq[a, b]) for a in pairs)


@st.composite
def _relations_with_edges(draw):
    """A relation, and its covers less some, plus some downward and some
    random edges."""
    leq = draw(st.one_of(_partial_orders(),
                         st.integers(0, 12).flatmap(lambda n: arrays(bool, (n, n)))))
    n = leq.shape[0]
    covers = sorted(_covers_by_loops(leq))
    below = [(u, v) for u in range(n) for v in range(n) if u != v and leq[v, u]]
    dropped = draw(st.sets(st.sampled_from(covers))) if covers and draw(st.booleans()) else set()
    extra = draw(st.lists(st.sampled_from(below), max_size=2)) \
        if below and draw(st.booleans()) else []
    extra += draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                           max_size=2)) if n and draw(st.booleans()) else []
    return leq, [e for e in covers if e not in dropped] + extra


@settings(deadline=None, max_examples=200)
@given(_relations_with_edges())
def test_hasse_check_matches_loops(case):
    # True iff the relation is an order and the edges, as a set, its covers;
    # a relation that is no order gives False, where cover_relations raises
    leq, edges = case
    eq = ex.ExchangeQuiver(_RelationWorkspace(leq), list(range(leq.shape[0])),
                           [(u, v, 0) for (u, v) in edges], True)
    want = _is_order_by_loops(leq) and set(edges) == _covers_by_loops(leq)
    assert ex.hasse_check(eq) == want


def test_stats_count_cache_entries(a2_eq):
    sizes = a2_eq.stats["cache_entries"]
    assert set(sizes) == {"hom", "composition"}
    assert "cache_entries" not in ex.to_json(a2_eq)
    # A2's one built approximation has a single copy, so no composite is read;
    # hereditary n=3 strips copies and fills both memos
    assert sizes["hom"] > 0
    her3 = ex.explore(orders.hereditary_reduction(3)).stats["cache_entries"]
    assert set(her3) == set(sizes) and all(n > 0 for n in her3.values())


@pytest.mark.parametrize("build", [
    orders.triangular_example_reduction, orders.bass_v_reduction,
    lambda: orders.hereditary_reduction(4),
    lambda: orders.auslander_bass_v_reduction(2),
    lambda: orders.cyclic_nakayama(3, 5),
], ids=["triangular", "bass_v", "hereditary4", "auslander2", "nakayama3-5"])
def test_stats_count_mutations(build):
    eq = ex.explore(build())
    counts = eq.stats["mutations"]
    assert counts["attempted"] == sum(len(node.summands) for node in eq.nodes)
    assert counts["attempted"] == counts["fac_rejected"] + counts["shifted_projective"] \
        + counts["registry_lookup"] + counts["cokernel_built"]
    assert counts["attempted"] - counts["fac_rejected"] == len(eq.edges)
    # each built cokernel registers one new module, and only those do
    nv = eq.algebra.quiver.n_vertices
    assert counts["cokernel_built"] == len(eq.workspace.registry) - nv
    assert "mutations" not in ex.to_json(eq)
    assert set(eq.stats) == {"nodes", "edges", "max_depth", "cache_entries", "mutations"}
    # a second exploration over the warm workspace builds nothing
    again = ex.explore(eq.algebra, workspace=eq.workspace)
    assert again.stats["mutations"]["cokernel_built"] == 0
    assert again.stats["mutations"]["attempted"] == counts["attempted"]


def test_unique_source_and_sink(a2_eq, bass_eq):
    for eq in (a2_eq, bass_eq):
        indeg = {i: 0 for i in range(len(eq.nodes))}
        outdeg = {i: 0 for i in range(len(eq.nodes))}
        for (u, v, _) in eq.edges:
            outdeg[u] += 1
            indeg[v] += 1
        assert [i for i in indeg if indeg[i] == 0] == [0]
        sinks = [i for i in outdeg if outdeg[i] == 0]
        assert len(sinks) == 1
        assert not eq.nodes[sinks[0]].summands


def test_limits_return_partial():
    eq = ex.explore(orders.hereditary_reduction(2), ex.ExploreLimits(max_nodes=3))
    assert not eq.complete
    assert len(eq.nodes) <= 3
    eq = ex.explore(orders.hereditary_reduction(2), ex.ExploreLimits(max_depth=1))
    assert not eq.complete
    with pytest.raises(ValueError):
        ex.hasse_check(eq)
    with pytest.raises(ValueError, match="max_nodes must be at least 1, got 0"):
        ex.ExploreLimits(max_nodes=0)
    with pytest.raises(ValueError, match="max_depth must be at least 0, got -1"):
        ex.ExploreLimits(max_depth=-1)


def test_to_json_roundtrip(a2_eq):
    doc = json.loads(ex.to_json(a2_eq))
    assert doc["complete"] is True
    assert len(doc["nodes"]) == 5
    assert len(doc["edges"]) == 5
    assert doc["algebra"]["nilpotency_bound"] == 2
    assert json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n" \
        == ex.to_json(a2_eq)


# SHA-256 of the to_json text at p = 32003, and the mutate_left outcomes of
# the exploration, in the order of MUTATION_OUTCOMES
JSON_DIGESTS = [
    ("hereditary", 5, "e606639ecd0e93eafdf5b025572f984a366980386dc0178ac2a4c8a5039826e8",
     (1050, 420, 210, 400, 20)),
    ("hereditary", 6, "11e4e42b6c3a66976b4d9b7d9088cfcf28b2556466c6b57345342a6609192a0b",
     (4752, 1980, 792, 1950, 30)),
    ("auslander_bass_v", 4, "daf2fd37748a5b395994e461792a630734591d1a19602156d43f01f1350fd092",
     (3228, 1428, 372, 1376, 52)),
    pytest.param("hereditary", 7,
                 "d54ac9d4440db1aa7b191756b8fc01d9c66c32ab2029718df0b6de88a2b37472",
                 (21021, 9009, 3003, 8967, 42), marks=pytest.mark.slow),
]


@pytest.mark.parametrize("family, n, digest, mutations", JSON_DIGESTS)
def test_json_digest_is_pinned(family, n, digest, mutations):
    # the exact bytes of the exploration JSON and the route each mutation
    # took, as first recorded; the module layer and the serialiser may
    # change how they get there, not what they give
    eq = ex.explore(orders.builtin_algebra(family, n, 32003))
    assert hashlib.sha256(ex.to_json(eq).encode()).hexdigest() == digest
    assert eq.stats["mutations"] == dict(zip(MUTATION_OUTCOMES, mutations))


def test_to_dot(a2_eq):
    dot = ex.to_dot(a2_eq)
    assert dot.startswith("digraph")
    assert dot.count("->") == 5
    assert "n0" in dot


def test_hereditary_2_counts():
    eq = ex.explore(orders.hereditary_reduction(2))
    assert eq.complete
    assert len(eq.nodes) == 6
    assert len(eq.edges) == 6
    assert ex.hasse_check(eq)


def test_every_node_sits_between_extremes(a2_eq, bass_eq):
    from silt import twoterm as tt
    for eq in (a2_eq, bass_eq):
        ws = eq.workspace
        lam = tt.lambda_stalk(eq.algebra)
        shift = tt.lambda_shift(eq.algebra)
        for node in eq.nodes:
            cx = ws.complex_of(node)
            assert tt.hom_shift_vanishes(lam, cx)
            assert tt.hom_shift_vanishes(cx, shift)


def test_edges_are_bongartz_to_co_bongartz(a2_eq, bass_eq):
    # deleting the mutated summand from an edge's source must complete
    # upward to the source and downward to the target
    from silt import twoterm as tt
    for eq in (a2_eq, bass_eq):
        ws = eq.workspace
        for (u, v, at) in eq.edges:
            src = eq.nodes[u]
            sub = ws.make_pair(src.summands[:at] + src.summands[at + 1:],
                               src.proj_part)
            p_cx = ws.complex_of(sub)
            top = tt.bongartz_completion(p_cx, ws.registry)
            bot = tt.co_bongartz_completion(p_cx, ws.registry)
            src_cx = ws.complex_of(src)
            tgt_cx = ws.complex_of(eq.nodes[v])
            assert tt.hom_shift_vanishes(top, src_cx) and tt.hom_shift_vanishes(src_cx, top)
            assert tt.hom_shift_vanishes(bot, tgt_cx) and tt.hom_shift_vanishes(tgt_cx, bot)


def test_registry_iso_reflexive_symmetric(a2_eq):
    from silt import repmod as rm
    reg = a2_eq.workspace.registry
    for i in range(len(reg)):
        assert rm.is_isomorphic(reg.rep(i), reg.rep(i))
        for j in range(len(reg)):
            assert rm.is_isomorphic(reg.rep(i), reg.rep(j)) == \
                rm.is_isomorphic(reg.rep(j), reg.rep(i))
