import itertools

import pytest

from silt.algebra import (
    AlgebraBuildError,
    Quiver,
    build_algebra,
    presentation,
    presentation_from_dict,
    presentation_to_dict,
    projective_module,
    simple_module,
)

from oracles import path_elem


def a2_algebra(p=32003):
    q = Quiver(("1", "2"), (("a", "1", "2"),))
    return build_algebra(presentation(q, [], 2), p)


def cyclic_2_algebra(p=32003):
    q = Quiver(("1", "2"), (("a1", "1", "2"), ("a2", "2", "1")))
    rels = [[(1, ("a1", "a2"))], [(1, ("a2", "a1"))]]
    return build_algebra(presentation(q, rels, 2), p)


def double_a2_algebra(p=32003):
    q = Quiver(("1", "2"), (("alpha", "1", "2"), ("beta", "2", "1")))
    rels = [[(1, ("alpha", "beta"))], [(1, ("beta", "alpha"))]]
    return build_algebra(presentation(q, rels, 2), p)


def one_vertex_algebra(p=32003):
    q = Quiver(("1",), ())
    return build_algebra(presentation(q, [], 1), p)


def test_quiver_validation():
    with pytest.raises(AlgebraBuildError):
        Quiver(("1", "1"), ())
    with pytest.raises(AlgebraBuildError):
        Quiver(("1",), (("a", "1", "2"),))
    with pytest.raises(AlgebraBuildError):
        Quiver(("1", "2"), (("a", "1", "2"), ("a", "2", "1")))


def test_dimensions():
    assert one_vertex_algebra().dimension == 1
    assert a2_algebra().dimension == 3
    assert cyclic_2_algebra().dimension == 4
    assert double_a2_algebra().dimension == 4


def test_cyclic_basis_names():
    alg = cyclic_2_algebra()
    names = {alg.basis_name(g) for g in range(alg.dimension)}
    assert names == {"e1", "e2", "a1", "a2"}


def test_basis_growing_error():
    q = Quiver(("1", "2"), (("a1", "1", "2"), ("a2", "2", "1")))
    with pytest.raises(AlgebraBuildError, match="still growing"):
        build_algebra(presentation(q, [[(1, ("a1", "a2"))]], 2))


def test_expand_path_reads_the_table():
    # a path comes back as the table's own dict, the same object each time;
    # paths of length N or more die, and a non-composable path raises
    alg = cyclic_2_algebra()
    a1, a2 = alg.quiver.arrow_index("a1"), alg.quiver.arrow_index("a2")
    got = alg.expand_path(0, (a1,))
    assert got == {alg.pair_basis(0, 1)[0]: 1} and alg.expand_path(0, (a1,)) is got
    assert alg.expand_path(0, (a1, a2)) == {} == alg.expand_path(0, (a1, a2, a1))
    with pytest.raises(AlgebraBuildError, match="non-composable"):
        alg.expand_path(0, (a2,))


def test_relation_validation():
    q = Quiver(("1", "2"), (("a", "1", "2"), ("b", "1", "2")))
    # parallel, homogeneous: fine
    build_algebra(presentation(q, [[(1, ("a",)), (-1, ("b",))]], 2))
    with pytest.raises(AlgebraBuildError, match="homogeneous"):
        bad = Quiver(("1", "2", "3"), (("a", "1", "2"), ("b", "2", "3")))
        build_algebra(presentation(bad, [[(1, ("a",)), (1, ("b",))]], 2))
    with pytest.raises(AlgebraBuildError, match="bound"):
        build_algebra(presentation(q, [[(1, ("a",))]], 0))


def test_associativity_exhaustive():
    for alg in (a2_algebra(), cyclic_2_algebra(), double_a2_algebra()):
        elems = [alg.basis_elem(g) for g in range(alg.dimension)]
        for x, y, z in itertools.product(elems, repeat=3):
            assert ((x * y) * z) == (x * (y * z))


def test_idempotents():
    alg = cyclic_2_algebra()
    units = [alg.unit_elem(v) for v in range(2)]
    for i, ei in enumerate(units):
        for j, ej in enumerate(units):
            prod = ei * ej
            assert prod == (ei if i == j else alg.zero_elem(i, j))


def test_unit_sum_acts_as_identity():
    alg = cyclic_2_algebra()
    for g in range(alg.dimension):
        x = alg.basis_elem(g)
        left = alg.unit_elem(x.src) * x
        right = x * alg.unit_elem(x.tgt)
        assert left == x and right == x


def _series_inverse(x):
    """``c^-1 . (e_v + r + r^2 + ...)`` for ``x = c . (e_v - r)``, summed
    until the power dies; the reference for ``local_inverse``."""
    alg = x.algebra
    one = alg.unit_elem(x.src)
    inv0 = pow(x.unit_coefficient(), alg.p - 2, alg.p)
    nil = one - x.scale(inv0)
    total = power = one
    while not (power := power * nil).is_zero():
        total = total + power
    return total.scale(inv0)


def test_local_inverse():
    alg = cyclic_2_algebra()
    u = alg.unit_elem(0) + path_elem(alg, 0, ("a1", "a2"))  # = e1, since a1a2 = 0
    inv = u.local_inverse()
    assert (u * inv) == alg.unit_elem(0)
    with pytest.raises(ValueError):
        path_elem(alg, 0, ("a1",)).local_inverse()  # wrong shape
    q = Quiver(("1",), (("x", "1", "1"),))
    loop = build_algebra(presentation(q, [[(1, ("x", "x", "x"))]], 3))
    v = loop.unit_elem(0) + path_elem(loop, 0, ("x",))
    assert (v * v.local_inverse()) == loop.unit_elem(0)
    w = loop.unit_elem(0).scale(3) - path_elem(loop, 0, ("x", "x")) + path_elem(loop, 0, ("x",))
    assert v.local_inverse() == _series_inverse(v) and w.local_inverse() == _series_inverse(w)
    # a scalar unit c . e_v is inverted with no series, as c^-1 . e_v
    for a in (alg, loop):
        for vertex in range(a.quiver.n_vertices):
            e = a.unit_elem(vertex)
            for c in (1, 2, a.p - 1):
                x = e.scale(c)
                inv = x.local_inverse()
                assert x * inv == e == inv * x
                assert inv == _series_inverse(x)


def test_zero_elem_is_shared_and_left_unchanged():
    # one zero per (src, tgt) is handed out to every caller, so arithmetic
    # must build new elements and never write into an operand
    alg = cyclic_2_algebra()
    z = alg.zero_elem(0, 1)
    assert z is alg.zero_elem(0, 1)
    assert z is not alg.zero_elem(1, 0)
    x = path_elem(alg, 0, ("a1",))
    y = path_elem(alg, 1, ("a2",))
    assert z + x == x and (x - x).is_zero() and (z * y).is_zero()
    assert (x - x) is not z and (x * x) is alg.zero_elem(0, 1)
    assert x - alg.unit_elem(0) * x.scale(3) == x.scale(-2)
    assert z.coeffs == {}


def test_element_hash_is_computed_once():
    # the cached hash is the formula of the element's value, so equal
    # elements built apart still hash alike, and a shared zero keeps its hash
    alg = cyclic_2_algebra()
    elems = [alg.basis_elem(g) for g in range(alg.dimension)]
    elems += [x + y.scale(5) for x in elems for y in elems if x.src == y.src
              and x.tgt == y.tgt]
    for x in elems:
        want = hash((id(alg), x.src, x.tgt, tuple(sorted(x.coeffs.items()))))
        assert hash(x) == want == hash(x)
    x = path_elem(alg, 0, ("a1",))
    assert hash(x.scale(2) - x) == hash(x)
    z = alg.zero_elem(0, 1)
    seen = {hash(alg.zero_elem(0, 1)) for _ in range(3)}
    assert seen == {hash(z)} and hash(x - x) == hash(z)


def test_projective_dimension_vectors():
    alg = a2_algebra()
    assert projective_module(alg, "1").dims == (1, 1)
    assert projective_module(alg, "2").dims == (0, 1)
    alg = cyclic_2_algebra()
    assert projective_module(alg, "1").dims == (1, 1)
    assert projective_module(alg, "2").dims == (1, 1)
    one = one_vertex_algebra()
    assert projective_module(one, "1").dims == (1,)


def test_dimension_is_sum_of_projectives():
    for alg in (a2_algebra(), cyclic_2_algebra(), double_a2_algebra()):
        total = sum(projective_module(alg, v).total_dim
                    for v in range(alg.quiver.n_vertices))
        assert total == alg.dimension


def test_simple_module():
    alg = a2_algebra()
    s1 = simple_module(alg, "1")
    assert s1.dims == (1, 0)
    with pytest.raises(AlgebraBuildError):
        simple_module(alg, "3")


def test_presentation_json_roundtrip():
    alg = double_a2_algebra()
    d = presentation_to_dict(alg.presentation, alg.p)
    pres, p = presentation_from_dict(d)
    assert p == alg.p
    rebuilt = build_algebra(pres, p)
    assert rebuilt.dimension == alg.dimension
    with pytest.raises(AlgebraBuildError):
        presentation_from_dict({"quiver": {"vertices": []}})
