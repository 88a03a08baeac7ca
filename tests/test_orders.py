import math
import time

import pytest

from silt import explorer as ex
from silt import orders


def brute_force_surviving_paths(n: int) -> int:
    """Oracle: paths in the doubled line quiver with no 2-cycle factor.

    Arrows are (i, +1) for i -> i+1 and (i+1, -1) for i+1 -> i; a 2-cycle is
    a step immediately undone.  Counts all paths of every length by DFS.
    """
    arrows = []
    for i in range(n):
        arrows.append((i, i + 1))
        arrows.append((i + 1, i))
    total = n + 1  # trivial paths
    stack = [[a] for a in arrows]
    while stack:
        path = stack.pop()
        total += 1
        last = path[-1]
        for a in arrows:
            if a[0] != last[1]:
                continue
            if a == (last[1], last[0]):
                continue  # immediately undone step
            stack.append(path + [a])
    return total


@pytest.mark.parametrize("n,expected", [(0, 1), (1, 4), (2, 9), (3, 16)])
def test_auslander_dimension_matches_oracle(n, expected):
    assert brute_force_surviving_paths(n) == expected
    assert orders.auslander_bass_v_reduction(n).dimension == expected


@pytest.mark.parametrize("n", [1, 2, 3])
def test_hereditary_dimension(n):
    assert orders.hereditary_reduction(n).dimension == n * n


def test_cyclic_nakayama_dimension_is_n_times_ell():
    for n, ell in [(1, 2), (2, 4), (3, 2)]:
        assert orders.cyclic_nakayama(n, ell).dimension == n * ell


def test_builtin_dispatch():
    assert orders.builtin_algebra("triangular_a2").dimension == 3
    assert orders.builtin_algebra("bass_v").dimension == 4
    assert orders.builtin_algebra("hereditary", 2).dimension == 4
    assert orders.builtin_algebra("auslander_bass_v", 1).dimension == 4
    with pytest.raises(ValueError):
        orders.builtin_algebra("nope")
    with pytest.raises(ValueError):
        orders.builtin_algebra("hereditary")
    with pytest.raises(ValueError):
        orders.hereditary_reduction(0)
    with pytest.raises(ValueError):
        orders.auslander_bass_v_reduction(-1)


@pytest.mark.parametrize("name", ["bass_v", "triangular_a2"])
def test_builtin_refuses_n_where_it_does_not_apply(name):
    # these two algebras have no parameter, so an n would be dropped unread
    with pytest.raises(ValueError, match="takes no parameter n"):
        orders.builtin_algebra(name, 7)
    assert orders.builtin_algebra(name, None).dimension == \
        orders.builtin_algebra(name).dimension


def test_classify_sincere_hereditary_2():
    eq = ex.explore(orders.hereditary_reduction(2))
    flags = orders.classify_sincere(eq)
    assert flags[0] is True             # the projective pair
    zero = next(i for i, nd in enumerate(eq.nodes) if not nd.summands)
    assert flags[zero] is False
    assert sum(flags) == 3


def test_classify_sincere_needs_complete():
    eq = ex.explore(orders.hereditary_reduction(2), ex.ExploreLimits(max_nodes=2))
    with pytest.raises(ValueError):
        orders.classify_sincere(eq)


def test_assemble_hereditary_1():
    eq = ex.explore(orders.hereditary_reduction(1))
    th = orders.assemble_tors_hasse(eq, orders.classify_sincere(eq))
    assert len(th.nodes) == 3
    assert len(th.edges) == 2
    kinds = sorted(k for k, _ in th.nodes)
    assert kinds == ["Fac", "Fac", "FacFl"]


def test_assemble_hereditary_2():
    eq = ex.explore(orders.hereditary_reduction(2))
    th = orders.assemble_tors_hasse(eq, orders.classify_sincere(eq))
    assert len(th.nodes) == 9
    # 6 exchange edges + 2 sincere-subquiver edges + 3 drop edges
    assert len(th.edges) == 11
    doc = orders.tors_hasse_json_doc(th)
    assert len(doc["nodes"]) == 9 and len(doc["edges"]) == 11
    dot = orders.tors_hasse_dot(th, eq)
    assert dot.count("->") == 11


def test_weak_order_small():
    w1 = orders.weak_order_hasse(1)
    assert len(w1.elements) == 1 and w1.covers == []
    w2 = orders.weak_order_hasse(2)
    assert len(w2.elements) == 2 and len(w2.covers) == 1
    w3 = orders.weak_order_hasse(3)
    assert len(w3.elements) == 6 and len(w3.covers) == 6


def test_weak_order_counts_and_ends():
    for m in (2, 3, 4):
        w = orders.weak_order_hasse(m)
        assert len(w.elements) == math.factorial(m)
        n, edges = orders.as_cover_graph(w)
        indeg = [0] * n
        outdeg = [0] * n
        for u, v in edges:
            outdeg[u] += 1
            indeg[v] += 1
        assert indeg.count(0) == 1 and outdeg.count(0) == 1
        top = indeg.index(0)
        assert w.elements[top] == tuple(range(m, 0, -1))


def test_weak_order_cap():
    with pytest.raises(ValueError):
        orders.weak_order_hasse(8)
    with pytest.raises(ValueError):
        orders.weak_order_hasse(0)


def test_poset_isomorphic_reflexive():
    w = orders.weak_order_hasse(3)
    assert orders.poset_isomorphic(w, w)
    eq = ex.explore(orders.hereditary_reduction(2))
    assert orders.poset_isomorphic(eq, eq)


def test_poset_isomorphic_rejects_chain():
    chain = (6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
    assert not orders.poset_isomorphic(orders.weak_order_hasse(3), chain)


def test_poset_isomorphic_precondition():
    with pytest.raises(AssertionError):
        orders.poset_isomorphic((2, []), (2, []))  # two sources, two sinks


def test_bass_v_is_s3():
    eq = ex.explore(orders.bass_v_reduction())
    assert orders.poset_isomorphic(eq, orders.weak_order_hasse(3))


def test_auslander_0_is_s2():
    eq = ex.explore(orders.auslander_bass_v_reduction(0))
    assert len(eq.nodes) == 2
    assert orders.poset_isomorphic(eq, orders.weak_order_hasse(2))


def test_reduction_invariance_n1():
    base = ex.explore(orders.cyclic_nakayama(1, 1))
    doubled = ex.explore(orders.cyclic_nakayama(1, 2))
    assert len(doubled.nodes) == 2
    assert orders.poset_isomorphic(base, doubled)


def _fan(middle, extra=()):
    # source 0 -> each of 1..middle -> sink middle + 1, plus ``extra`` edges
    edges = [(0, i) for i in range(1, middle + 1)]
    edges += [(i, middle + 1) for i in range(1, middle + 1)]
    return middle + 2, edges + list(extra)


def test_poset_isomorphic_deeper_than_the_recursion_limit():
    # the search places one node per level: 1500 levels
    fan = _fan(1498)
    assert orders.poset_isomorphic(fan, fan)
    n, edges = _fan(1498, [(1, 2)])
    relabel = {0: 0, n - 1: n - 1, **{i: n - 1 - i for i in range(1, n - 1)}}
    moved = (n, [(relabel[u], relabel[v]) for u, v in reversed(edges)])
    assert orders.poset_isomorphic((n, edges), moved)
    assert not orders.poset_isomorphic(fan, (n, edges))


def test_unique_ends_rejects_a_directed_cycle():
    # one source (0) and one sink (3), but 1 -> 2 -> 1 is a cycle
    looped = (4, [(0, 1), (1, 2), (2, 1), (2, 3)])
    with pytest.raises(AssertionError, match="directed cycle found"):
        orders.poset_isomorphic(looped, looped)


def _move_one_edge(n, edges):
    """Re-aim the first edge ``u -> v`` whose target keeps a predecessor at
    a successor ``w`` of ``v``: still acyclic, same ends and edge count."""
    succ = [set() for _ in range(n)]
    indeg = [0] * n
    for u, v in edges:
        succ[u].add(v)
        indeg[v] += 1
    for k, (u, v) in enumerate(edges):
        fresh = sorted(succ[v] - succ[u])
        if indeg[v] > 1 and fresh:
            return n, edges[:k] + [(u, fresh[0])] + edges[k + 1:]
    raise AssertionError("no edge can be moved")


def test_auslander4_is_s6_and_a_moved_edge_is_not():
    # the search places nodes by adjacency, so 720 nodes take well under the bound
    bound_s = 5.0
    n, edges = orders.as_cover_graph(ex.explore(orders.auslander_bass_v_reduction(4)))
    weak = orders.weak_order_hasse(6)
    moved = _move_one_edge(n, edges)
    for graph, expected in (((n, edges), True), (moved, False)):
        start = time.perf_counter()
        assert orders.poset_isomorphic(graph, weak) is expected
        assert time.perf_counter() - start < bound_s


def _crown(cycles):
    # source 0 -> a_i -> b_j -> sink; each a_i covers b_i and the next b of
    # its block, so the a-b layer is one cycle of length 2c per block size c
    k = sum(cycles)
    edges = [(0, 1 + i) for i in range(k)] + [(1 + k + i, 2 * k + 1) for i in range(k)]
    start = 0
    for c in cycles:
        for i in range(c):
            edges += [(1 + start + i, 1 + k + start + i),
                      (1 + start + i, 1 + k + start + (i + 1) % c)]
        start += c
    return 2 * k + 2, edges


def test_poset_isomorphic_refutes_what_refinement_cannot():
    # one 12-cycle and two 6-cycles get the same colours, so the search decides
    one, two = _crown([6]), _crown([3, 3])
    assert orders.poset_isomorphic(one, one)
    assert orders.poset_isomorphic(two, two)
    assert not orders.poset_isomorphic(one, two)
    assert not orders.poset_isomorphic(two, one)
