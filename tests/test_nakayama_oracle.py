"""Closed-form oracle for the support tau-tilting quivers of cyclic Nakayama algebras.

Nothing here touches silt's linear algebra: the modules, Hom dimensions, tau,
compatibility and mutation directions of ``cyclic_nakayama(n, ell)`` are
combinatorics of uniserials, and the resulting quiver is compared with what
``explore`` computes.

Conventions follow ``silt.algebra``: the arrow out of vertex ``i`` goes to
``i + 1`` (mod ``n``), so ``M(i, l)``, the uniserial with top ``S_i`` and
length ``l``, has composition factors ``S_i, S_{i+1}, ..., S_{i+l-1}`` from
top to socle, and ``P_i = M(i, ell)``.  The almost split sequences
``0 -> M(i+1, l) -> M(i, l+1) (+) M(i+1, l-1) -> M(i, l) -> 0`` give
``tau M(i, l) = M(i+1, l)`` for ``l < ell``.
"""

import itertools
import math

import pytest

from silt import explorer as ex
from silt import orders


def hom_dim(n, x, y):
    """``dim Hom(M(i, l), M(j, m))``: one map per image ``M(i, k)`` that is a
    submodule of ``M(j, m)``, i.e. whose top ``i`` is ``j + m - k`` mod n."""
    (i, l), (j, m) = x, y
    return sum(1 for k in range(1, min(l, m) + 1) if (j + m - k - i) % n == 0)


def tau(n, ell, x):
    i, l = x
    return None if l == ell else ((i + 1) % n, l)


def hom_to_tau(n, ell, x, y):
    """``dim Hom(x, tau y)``."""
    ty = tau(n, ell, y)
    return 0 if ty is None else hom_dim(n, x, ty)


def supported_at(n, x, v):
    """Whether ``v`` is a composition factor of ``x``, i.e. ``Hom(P_v, x) != 0``."""
    i, l = x
    return any((i + k) % n == v for k in range(l))


def compatible(n, ell, a, b):
    """Whether two summands, modules ``("M", i, l)`` or shifted projectives
    ``("P", v)``, can sit in one support tau-tilting pair."""
    if a[0] == "P" and b[0] == "P":
        return True
    if a[0] == "P":
        a, b = b, a
    if b[0] == "P":
        return not supported_at(n, a[1:], b[1])
    return hom_to_tau(n, ell, a[1:], b[1:]) == 0 == hom_to_tau(n, ell, b[1:], a[1:])


def in_fac(x, modules):
    """``x in Fac U``: a uniserial is a quotient of a sum only through one
    summand with its top and at least its length."""
    return any(u[1] == x[1] and u[2] >= x[2] for u in modules)


def label(n, pair):
    """Sorted dimension vectors of the module summands, and the shifted vertices."""
    dims = sorted(tuple(sum(1 for k in range(u[2]) if (u[1] + k) % n == v)
                        for v in range(n)) for u in pair if u[0] == "M")
    return dims, sorted(u[1] for u in pair if u[0] == "P")


def nakayama_quiver(n, ell):
    """Support tau-tilting pairs as maximal compatible sets (Adachi,
    arXiv:1309.2216), and their left mutations as index pairs."""
    pieces = [("M", i, l) for i in range(n) for l in range(1, ell + 1)
              if hom_to_tau(n, ell, (i, l), (i, l)) == 0]
    pieces += [("P", v) for v in range(n)]
    ok = {(a, b): compatible(n, ell, a, b) for a in pieces for b in pieces}

    maximal = []

    def extend(chosen, start):
        grown = False
        for k in range(len(pieces)):
            c = pieces[k]
            if c not in chosen and all(ok[c, d] for d in chosen):
                grown = True
                if k >= start:
                    extend(chosen + [c], k + 1)
        if not grown:
            maximal.append(frozenset(chosen))

    extend([], 0)
    # AIR Thm 2.18 via Adachi: every maximal compatible set has n members
    assert all(len(t) == n for t in maximal)
    edges = []
    for a, b in itertools.combinations(range(len(maximal)), 2):
        if len(maximal[a] & maximal[b]) != n - 1:
            continue
        (x,), (y,) = maximal[a] - maximal[b], maximal[b] - maximal[a]
        rest = [u for u in maximal[a] & maximal[b] if u[0] == "M"]
        down_a = x[0] == "M" and not in_fac(x, rest)
        down_b = y[0] == "M" and not in_fac(y, rest)
        # exactly one of the two is the left mutation of the other (AIR 2.28)
        assert down_a != down_b, (maximal[a], maximal[b])
        edges.append((a, b) if down_a else (b, a))
    return maximal, edges


CASES = [(n, ell) for n in range(1, 5) for ell in range(1, 2 * n + 1)]


@pytest.mark.parametrize("n,ell", CASES, ids=[f"{n}-{ell}" for n, ell in CASES])
def test_explore_matches_nakayama_closed_form(n, ell):
    eq = ex.explore(orders.cyclic_nakayama(n, ell))
    assert eq.complete
    pairs, edges = nakayama_quiver(n, ell)
    assert len(eq.nodes) == len(pairs)
    assert orders.poset_isomorphic(eq, (len(pairs), edges))
    reg = eq.workspace.registry
    got = sorted((sorted(reg.dims(i) for i in node.summands), list(node.proj_part))
                 for node in eq.nodes)
    assert got == sorted(label(n, pair) for pair in pairs)


def test_nakayama_closed_form_counts():
    # ell = 1 is semisimple, with 2^n pairs; ell >= n gives C(2n, n)
    for n in range(1, 5):
        assert len(nakayama_quiver(n, 1)[0]) == 2 ** n
        assert len(nakayama_quiver(n, 2 * n)[0]) == math.comb(2 * n, n)


def _labelled(eq):
    """The node set and the edge set of ``eq``, each node labelled by its
    summand g-vectors and its shifted vertices."""
    reg = eq.workspace.registry
    labels = [(frozenset(reg.gvector(i) for i in node.summands), node.proj_part)
              for node in eq.nodes]
    assert len(set(labels)) == len(labels)
    return set(labels), {(labels[u], labels[v]) for u, v, _ in eq.edges}


@pytest.mark.parametrize("n", [2, 3, 4])
def test_reduction_keeps_labelled_quiver(n):
    # the source paper's reduction theorem (arXiv:2006.01677; for modules,
    # Eisele-Janssens-Raedschelders, arXiv:1603.04293): for an ideal I
    # generated by central elements in the radical, - (x) Lambda/I is an
    # isomorphism of 2-term silting posets that keeps g-vectors.  In
    # N(n, ell), ell >= n, the sum of the length-n cycles is such an element
    # and the quotient is N(n, n); so the labelled node and edge sets agree,
    # which says more than poset_isomorphic of criterion 7
    base = ex.explore(orders.cyclic_nakayama(n, n))
    assert base.complete
    want = _labelled(base)
    assert len(want[1]) == len(base.edges)
    for ell in range(n, 3 * n + 1):
        eq = ex.explore(orders.cyclic_nakayama(n, ell))
        assert eq.complete
        assert _labelled(eq) == want, ell
