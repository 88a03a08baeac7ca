import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from silt import exactmat as em
from silt import explorer as ex
from silt import orders
from silt import repmod as rm
from silt import twoterm as tt
from silt.algebra import Quiver, build_algebra, presentation
from silt.silting import Registry, SiltingPair, SiltingWorkspace, Validation, _bits

from oracles import (fac_contains, hom_onto, pair_leq_by_entries, validation_by_entries,
                     zero_rep)
from test_algebra import a2_algebra, cyclic_2_algebra, double_a2_algebra


@pytest.fixture(scope="module")
def a2():
    """The workspace of an A2 exploration: S1 registered, all five cones recorded."""
    return ex.explore(a2_algebra()).workspace


@pytest.fixture(scope="module")
def cyc2():
    return SiltingWorkspace(cyclic_2_algebra())


def dual_numbers_ws():
    q = Quiver(("1",), (("a", "1", "1"),))
    return SiltingWorkspace(build_algebra(presentation(q, [[(1, ("a", "a"))]], 2)))


def s1_id(ws):
    return ws.registry.get_or_insert(ws.algebra.simple(0))


def zero_pair(ws):
    """The pair ``(0, Lambda)``: no module summand, every vertex shifted."""
    return ws.make_pair((), range(ws.algebra.quiver.n_vertices))


def module_rep(ws, pair):
    """The direct sum of the pair's module summands."""
    rep, _ = rm.rep_direct_sum(ws.algebra, [ws.registry.rep(i) for i in pair.summands])
    return rep


def test_registry_seeding(a2):
    # ids 0, 1 are the projectives, in vertex order
    assert a2.registry.dims(0) == (1, 1)
    assert a2.registry.dims(1) == (0, 1)
    assert a2.registry.gvector(0) == (1, 0)
    assert a2.registry.gvector(1) == (0, 1)


def test_registry_dedup(a2):
    i = a2.registry.get_or_insert(a2.algebra.simple(0))
    j = a2.registry.get_or_insert(a2.algebra.simple(0))
    assert i == j
    with pytest.raises(ValueError):
        a2.registry.get_or_insert(zero_rep(a2.algebra))


def module_presilting(m):
    # tau-rigidity on the module side: Hom(d, M) is onto for the minimal
    # presentation d of M, with no shifted-Hom matrix built
    return hom_onto(rm.min_projective_presentation(m), m)


def test_presilting_projective_and_zero(a2):
    assert module_presilting(a2.algebra.projective(0))
    assert module_presilting(zero_rep(a2.algebra))


def test_presilting_simple_over_dual_numbers():
    ws = dual_numbers_ws()
    # the simple has presentation P -> P; Hom(d, S) is the zero map onto k
    assert not module_presilting(ws.algebra.simple(0))


def test_presilting_simples_over_selfinjective_nakayama(cyc2):
    # radical-square-zero cyclic Nakayama: every simple is a silting summand
    assert module_presilting(cyc2.algebra.simple(0))
    assert module_presilting(cyc2.algebra.simple(1))


def test_presilting_matches_complex_level(a2, cyc2):
    for ws in (a2, cyc2):
        for v in range(2):
            for m in (ws.algebra.simple(v), ws.algebra.projective(v)):
                pres = rm.min_projective_presentation(m)
                assert module_presilting(m) == tt.hom_shift_vanishes(pres, pres)


def kronecker_algebra(p=32003):
    q = Quiver(("1", "2"), (("a", "1", "2"), ("b", "1", "2")))
    return build_algebra(presentation(q, [], 2), p)


def uniserial(alg, top, length):
    """``M(top, length)`` over a cyclic Nakayama algebra: composition factors
    ``S_top, S_{top+1}, ...`` from top to socle, each arrow moving one step down."""
    n = alg.quiver.n_vertices
    verts = [(top + k) % n for k in range(length)]
    local = [verts[:k].count(v) for k, v in enumerate(verts)]
    dims = [verts.count(v) for v in range(n)]
    maps = [np.zeros((dims[(a + 1) % n], dims[a]), dtype=np.int64) for a in range(n)]
    for k in range(length - 1):
        maps[verts[k]][local[k + 1], local[k]] = 1
    return rm.Rep(alg, dims, maps)


def _grown_by_hand(case):
    """An algebra and the modules to register over it one by one: every
    simple, and modules that are not tau-rigid, which no exploration
    registers."""
    if case == "a2":
        # tau S1 = S2, so S1 + S2 is not tau-rigid
        alg = a2_algebra()
        both, _ = rm.rep_direct_sum(alg, [alg.simple(0), alg.simple(1)])
        return alg, [alg.simple(0), alg.simple(1), both]
    if case == "nakayama35":
        alg = orders.cyclic_nakayama(3, 5)
        return alg, ([alg.simple(v) for v in range(3)]
                     + [uniserial(alg, v, length) for length in (2, 3, 4) for v in range(3)])
    if case == "nakayama46":
        # every uniserial, the projectives of length 6 included
        alg = orders.cyclic_nakayama(4, 6)
        return alg, [uniserial(alg, v, length) for length in range(1, 7) for v in range(4)]
    if case == "auslander2":
        # the modules an exploration registers, the simples, and the sums of
        # neighbouring registered modules, some of which are not tau-rigid
        alg = orders.auslander_bass_v_reduction(2)
        reg = ex.explore(alg).workspace.registry
        mods = [reg.rep(i) for i in range(len(reg))]
        return alg, (mods + [alg.simple(v) for v in range(alg.quiver.n_vertices)]
                     + [rm.rep_direct_sum(alg, pair)[0] for pair in zip(mods, mods[1:])])
    if case == "auslander3":
        # outside the Nakayama family, entries that vanish although the
        # swapped Euler form <g_j, dim M_i> is negative; the table entry of
        # ids 4 and 3 is nonzero, so M_3 + M_4 is not tau-rigid
        alg = orders.auslander_bass_v_reduction(3)
        reg = ex.explore(alg).workspace.registry
        mods = [reg.rep(i) for i in range(len(reg))]
        return alg, (mods + [alg.simple(v) for v in range(alg.quiver.n_vertices)]
                     + [rm.rep_direct_sum(alg, mods[3:5])[0]])
    # regular Kronecker modules lie in tubes, where tau M = M
    alg = kronecker_algebra()
    regular = [rm.Rep(alg, (1, 1), [[[a]], [[b]]]) for a, b in ((1, 0), (0, 1), (1, 1), (1, 5))]
    regular.append(rm.Rep(alg, (2, 2), [np.eye(2, dtype=np.int64), [[0, 1], [0, 0]]]))
    return alg, [alg.simple(0), alg.simple(1)] + regular


@pytest.mark.parametrize("case", ["a2", "nakayama35", "nakayama46", "auslander2",
                                  "auslander3", "kronecker"])
def test_rigid_table_whole_after_each_insert(case):
    # Registry._insert fills the new module's row, column and diagonal, and
    # decides an entry by support where M_j vanishes at every degree -1
    # vertex of P_i.  After every insertion each ordered pair of ids has its
    # entry, equal to the module-side Hom(d_i, M_j) onto, and no row has a
    # bit beyond the registry.
    alg, modules = _grown_by_hand(case)
    reg = Registry(alg)
    for m in modules:
        reg.get_or_insert(m)
        ids = range(len(reg))
        assert [i for i in ids if reg.rigid_row(i) >> len(reg)] == []
        assert [(i, j) for i in ids for j in ids if bool(reg.rigid_row(i) >> j & 1)
                != hom_onto(reg.presentation(i), reg.rep(j))] == []
    # the support test settles entries of non-projective rows, and some
    # diagonal entries fail
    ids = range(len(reg))
    by_support = sum(1 for i in ids for j in ids if reg.presentation(i).cols
                     and not any(reg.dims(j)[v] for v in reg.presentation(i).cols))
    not_rigid = sum(1 for i in ids if not reg.rigid_row(i) >> i & 1)
    assert by_support > 0 and not_rigid > 0


def test_validate_lambda_and_zero(a2):
    assert a2.validate_silting_pair(a2.lambda_pair())
    assert a2.validate_silting_pair(zero_pair(a2))


def test_validate_a2_examples(a2):
    s1 = s1_id(a2)
    good = a2.make_pair((0, s1), ())
    assert a2.validate_silting_pair(good)
    bad = a2.make_pair((s1,), ())
    v = a2.validate_silting_pair(bad)
    assert not v and v.reason == "count"
    # support must be exact: P2 vanishes at vertex 0 but 0 not in proj part
    v = a2.validate_silting_pair(a2.make_pair((1,), (1,)))
    assert not v and v.reason == "support"
    # the row and mask reads give the per-entry reference's verdicts
    for pair in (good, bad, a2.make_pair((1,), (1,)), a2.make_pair((s1,), (0,)),
                 a2.make_pair((0,), (1,))):
        assert a2.validate_silting_pair(pair).reason == validation_by_entries(a2, pair)


def test_validate_refuses_shifted_vertices_outside_the_quiver():
    # SiltingPair is built without make_pair's range checks, so validation
    # itself must fail a shifted vertex that names no projective
    ws = SiltingWorkspace(orders.triangular_example_reduction())
    assert ws.validate_silting_pair(SiltingPair((1,), (0,)))
    for proj_part in ((5,), (-1,)):
        pair = SiltingPair((0,), proj_part)
        assert ws.validate_silting_pair(pair) == Validation(False, "support")
        assert validation_by_entries(ws, pair) == "support"


def test_validate_counts_each_summand_once():
    # AIR Def. 0.3 counts non-isomorphic summands: a repeated id or shifted
    # vertex leaves fewer than n of them, however long the tuples are.  Over
    # hereditary 3 and Auslander 2, copying one summand of a node over
    # another gives pairs, many of which pass support and rigidity, so only
    # the count refuses them.
    ws = ex.explore(orders.hereditary_reduction(3)).workspace
    for pair in (SiltingPair((2, 1, 2), ()), SiltingPair((0, 0, 1), ()),
                 SiltingPair((0,), (1, 1)), SiltingPair((), (0, 0, 1))):
        assert ws.validate_silting_pair(pair) == Validation(False, "count")
        assert validation_by_entries(ws, pair) == "count"
    for build, passing in ((lambda: orders.hereditary_reduction(3), 33),
                           (lambda: orders.auslander_bass_v_reduction(2), 50)):
        eq = ex.explore(build())
        ws = eq.workspace
        copies = {SiltingPair(tuple(pair.summands[b] if k == a else i
                                    for k, i in enumerate(pair.summands)), pair.proj_part)
                  for pair in eq.nodes for a in range(len(pair.summands))
                  for b in range(len(pair.summands)) if a != b}
        support_and_rigid = [pair for pair in copies
                             if ws._support_of(pair.summands) ^ ws._shifted(pair.proj_part)
                             == (1 << eq.algebra.quiver.n_vertices) - 1
                             and ws._rows_rigid(pair.summands, _bits(pair.summands))]
        assert len(support_and_rigid) == passing
        for pair in copies:
            assert ws.validate_silting_pair(pair) == Validation(False, "count"), pair
            assert validation_by_entries(ws, pair) == "count"


def test_order_mutation_and_complex_refuse_shifted_vertices_outside_the_quiver():
    # a vertex that names no projective must not read as an empty support
    # condition, nor as a vertex that loses support, nor build a stalk that
    # pair_of then reads back without it
    ws = SiltingWorkspace(orders.triangular_example_reduction())
    lam = ws.lambda_pair()
    for v in (5, -1):
        pair = SiltingPair((0,), (v,))
        for a, b in ((pair, lam), (lam, pair)):
            with pytest.raises(ValueError,
                               match=rf"shifted vertices \[{v}\] are not vertices 0..1"):
                ws.pair_leq(a, b)
        with pytest.raises(ValueError, match=rf"shifted vertices \[{v}\]"):
            ws.order_rows([lam, pair])
        with pytest.raises(ValueError, match=rf"shifted vertices \[{v}\]"):
            ws.mutate_left(pair, 0)
        with pytest.raises(ValueError, match=rf"shifted vertices \[{v}\]"):
            ws.complex_of(pair)


def test_make_pair_refuses_ids_and_vertices_out_of_range():
    # over A2 the registry holds the projectives 0, 1 and nothing else: a
    # vertex outside 0..1 is no shifted projective, and an id outside the
    # registry, negative ones included, names no module
    ws = SiltingWorkspace(a2_algebra())
    assert ws.make_pair((0,), (1,)) == SiltingPair((0,), (1,))
    for proj_part in ((7,), (-1,), (2,), (0, 2)):
        with pytest.raises(ValueError, match="shifted vertices"):
            ws.make_pair((0,), proj_part)
    for summands in ((-1,), (2,), (0, 5), (-2, 1)):
        with pytest.raises(ValueError, match="summand ids"):
            ws.make_pair(summands, ())
    with pytest.raises(ValueError, match="pairwise distinct"):
        ws.make_pair((0, 0), ())


def test_make_pair_refuses_a_module_filed_twice():
    # one key sort puts equal ids, and ids of one module filed under two ids,
    # next to each other, however far apart the caller put them.  Over A2
    # the keys sort P2 < S1 < P1, so (y, 0, z) sorts to (y, z, 0).
    ws = SiltingWorkspace(a2_algebra())
    reg = ws.registry
    y = s1_id(ws)
    with pytest.raises(ValueError, match="pairwise distinct"):
        ws.make_pair((y, 0, y), ())
    assert ws.make_pair((y, 0), ()) == SiltingPair((y, 0), ())
    z = reg._insert(reg.rep(y), reg.presentation(y), reg.gvector(y))
    with pytest.raises(RuntimeError, match="registry corruption"):
        ws.make_pair((y, 0, z), ())
    with pytest.raises(RuntimeError, match="registry corruption"):
        ws.make_pair((z, 1, 0, y), ())


def test_pair_readers_refuse_ids_outside_the_registry():
    # a negative id must not index the registry's lists from the end, nor an
    # id past the end raise a bare IndexError: every reader of a pair's ids
    # refuses it as make_pair does
    ws = ex.explore(orders.hereditary_reduction(3)).workspace
    n = len(ws.registry)
    assert n == 9
    lam = ws.lambda_pair()
    for bad in (SiltingPair((-1, 1, 2), ()), SiltingPair((0, 1, n), ())):
        refusal = rf"summand ids \[.*\] are not all registry ids 0..{n - 1}"
        for a, b in ((lam, bad), (bad, lam), (bad, bad)):
            with pytest.raises(ValueError, match=refusal):
                ws.pair_leq(a, b)
        with pytest.raises(ValueError, match=refusal):
            ws.complex_of(bad)
        with pytest.raises(ValueError, match=refusal):
            ws.validate_silting_pair(bad)
        with pytest.raises(ValueError, match=refusal):
            ws.order_rows([lam, bad])
        for at in range(3):
            with pytest.raises(ValueError, match=refusal):
                ws.mutate_left(bad, at)


def test_id_readers_refuse_ids_outside_the_registry():
    # hom, rigid, composition and the approximation index the registry's
    # lists by id: a negative id must not wrap to the last module, nor an id
    # past the end read as a vanishing entry, nor either file a memo entry
    ws = SiltingWorkspace(orders.hereditary_reduction(3))
    assert len(ws.registry) == 3
    refusal = r"summand ids \[.*\] are not all registry ids 0..2"
    reads = [lambda: ws.hom(-1, 0), lambda: ws.hom(0, 3),
             lambda: ws.rigid(0, 7), lambda: ws.rigid(-1, 0), lambda: ws.rigid(0, -1),
             lambda: ws.composition(-1, 0, 1), lambda: ws.composition(0, 1, 3),
             lambda: ws.left_minimal_approximation(-1, (0,)),
             lambda: ws.left_minimal_approximation(0, (1, 3)),
             lambda: ws.left_minimal_approximation(5, ())]
    for read in reads:
        with pytest.raises(ValueError, match=refusal):
            read()
    assert ws.cache_sizes() == {"hom": 0, "composition": 0}
    assert ws.rigid(2, 0) and len(ws.hom(2, 0)) == 1


def test_composition_raises_outside_the_hom_space(monkeypatch):
    # out of a module that is not projective, the composites' coordinates
    # are read off the free rows of the Hom basis; a column outside its span
    # raises under ``python -O`` too.  S1 is no projective, so its Hom
    # spaces are hom_basis kernels, not Yoneda maps
    ws, fresh = SiltingWorkspace(a2_algebra()), SiltingWorkspace(a2_algebra())
    s1 = s1_id(ws)
    assert s1 == s1_id(fresh) >= ws.algebra.quiver.n_vertices
    assert ws.composition(s1, s1, s1).shape == (1, 1, 1)
    monkeypatch.setattr(em, "kernel_coordinates", lambda basis, b, p: None)
    with pytest.raises(AssertionError, match="escaped the Hom space"):
        fresh.composition(s1, s1, s1)


def test_rejection_reason_is_stable():
    # S2 + S1 over A2 has the right count and support but is not rigid
    ws = SiltingWorkspace(a2_algebra())
    first = ws.validate_silting_pair(ws.make_pair((1, s1_id(ws)), ()))
    again = ws.validate_silting_pair(ws.make_pair((s1_id(ws), 1), ()))
    assert not first and first.reason == again.reason == "rigidity"
    assert validation_by_entries(ws, ws.make_pair((1, s1_id(ws)), ())) == "rigidity"


def test_left_minimal_approximation(a2):
    s1 = s1_id(a2)
    copies, h = a2.left_minimal_approximation(0, [])
    assert copies == [] and h.target.is_zero()
    # x in add(targets): the approximation is a single identity-like copy
    copies, h = a2.left_minimal_approximation(0, [0])
    assert [t for t, _ in copies] == [0]
    cok, _ = rm.cokernel(h)
    assert cok.is_zero()
    # P1 -> S1: one copy, the canonical quotient
    copies, h = a2.left_minimal_approximation(0, [s1])
    assert [t for t, _ in copies] == [s1]
    cok, _ = rm.cokernel(h)
    assert cok.is_zero()


def test_mutate_left_a2_figure(a2):
    s1 = s1_id(a2)
    lam = a2.lambda_pair()
    # position of P2 within the canonical ordering of the Lambda pair
    at_p2 = lam.summands.index(1)
    got = a2.mutate_left(lam, at_p2)
    assert got == a2.make_pair((0, s1), ())
    at_p1 = lam.summands.index(0)
    got = a2.mutate_left(lam, at_p1)
    assert got == a2.make_pair((1,), (0,))
    mid = a2.make_pair((0, s1), ())
    got = a2.mutate_left(mid, mid.summands.index(s1))
    assert got is None  # S1 is in Fac P1, so there is no left mutation
    got = a2.mutate_left(mid, mid.summands.index(0))
    assert got == a2.make_pair((s1,), (1,))
    low = a2.make_pair((s1,), (1,))
    got = a2.mutate_left(low, 0)
    assert got == zero_pair(a2)
    with pytest.raises(IndexError):
        a2.mutate_left(lam, 5)


@pytest.mark.parametrize("build", [
    orders.triangular_example_reduction, orders.bass_v_reduction,
    lambda: orders.hereditary_reduction(3),
    lambda: orders.auslander_bass_v_reduction(2),
], ids=["triangular", "bass_v", "hereditary3", "auslander2"])
def test_no_left_mutation_iff_minimal_completion(build):
    # oracle: T has no left mutation at X exactly when T is the minimal
    # (co-Bongartz) completion of the rest; computed on complexes, without Fac
    eq = ex.explore(build())
    ws = eq.workspace
    for pair in eq.nodes:
        t = ws.complex_of(pair)
        for at, x in enumerate(pair.summands):
            rest = SiltingPair(tuple(i for i in pair.summands if i != x),
                               pair.proj_part)
            low = tt.co_bongartz_completion(ws.complex_of(rest), ws.registry)
            minimal = tt.hom_shift_vanishes(t, low) and tt.hom_shift_vanishes(low, t)
            assert (ws.mutate_left(pair, at) is None) == minimal, (pair, at)


@pytest.mark.parametrize("build", [
    lambda: orders.auslander_bass_v_reduction(2),
    lambda: orders.auslander_bass_v_reduction(3),
    lambda: orders.cyclic_nakayama(3, 5),
    lambda: orders.cyclic_nakayama(4, 6),
], ids=["auslander2", "auslander3", "nakayama3-5", "nakayama4-6"])
def test_explore_registers_only_node_summands(build):
    eq = ex.explore(build())
    used = {i for pair in eq.nodes for i in pair.summands}
    nv = eq.algebra.quiver.n_vertices
    assert set(range(nv, len(eq.workspace.registry))) - used == set()


def test_mutate_left_raises_on_invalid_candidate(monkeypatch):
    ws = SiltingWorkspace(a2_algebra())
    monkeypatch.setattr(ws, "validate_silting_pair",
                        lambda pair: Validation(False, "rigidity"))
    with pytest.raises(RuntimeError, match="rigidity"):
        ws.mutate_left(ws.lambda_pair(), 0)


def test_mutate_left_raises_on_a_result_not_strictly_below(monkeypatch):
    # over A2, the tops send P2 of Lambda = P2 + P1 to the cokernel route;
    # a registry that files the cokernel as P2 itself hands back Lambda,
    # which passes validation but is not strictly below the input
    ws = SiltingWorkspace(a2_algebra())
    lam = ws.lambda_pair()
    monkeypatch.setattr(ws.registry, "get_or_insert", lambda rep: 1)
    with pytest.raises(RuntimeError, match="is not strictly below it"):
        ws.mutate_left(lam, lam.summands.index(1))
    assert ws.mutation_counts["cokernel_built"] == 1


def test_mutate_left_fac_rejection_builds_nothing(monkeypatch):
    ws = SiltingWorkspace(a2_algebra())
    s1 = s1_id(ws)
    mid = ws.make_pair((0, s1), ())
    size = len(ws.registry)

    def refuse(*args, **kwargs):
        raise AssertionError("no cokernel or registration without a mutation")

    monkeypatch.setattr(rm, "cokernel", refuse)
    monkeypatch.setattr(ws.registry, "get_or_insert", refuse)
    assert ws.mutate_left(mid, mid.summands.index(s1)) is None
    assert len(ws.registry) == size


def test_partner_scan_refuses_a_duplicate_module():
    # AIR Thm 2.18 allows two completions; one module filed under two ids
    # makes the scan find a second partner, which is registry corruption.
    # Over A2, P1 + P2 and P1 + S1 are the two completions of P1.
    ws = SiltingWorkspace(a2_algebra())
    reg = ws.registry
    y = s1_id(ws)
    assert ws.registered_partner(1, (0,), ()) == y
    z = reg._insert(reg.rep(y), reg.presentation(y), reg.gvector(y))
    with pytest.raises(RuntimeError,
                       match=rf"registered modules \[{y}, {z}\] all complete the pair"):
        ws.registered_partner(1, (0,), ())


def test_registered_partner_refuses_ids_outside_the_registry():
    # a negative id must not read as a shift count, nor one past the end
    # index the rows: the scan refuses them as make_pair does
    ws = SiltingWorkspace(orders.triangular_example_reduction())
    assert ws.registered_partner(0, (1,), ()) is None
    for x, rest in ((-1, (0,)), (0, (-1,)), (0, (5,)), (5, (0,))):
        with pytest.raises(ValueError, match=r"summand ids \[.*\] are not all registry ids 0..1"):
            ws.registered_partner(x, rest, ())


def test_registered_partner_refuses_a_malformed_rest():
    # x inside rest, or an id twice in rest, is no almost-complete pair: it
    # is refused by name, as make_pair does, and not read as two partners
    # that blame the registry
    ws = ex.explore(orders.hereditary_reduction(3)).workspace
    for x, rest in ((1, (1, 2)), (1, (2, 2)), (0, (2, 0)), (3, (3,))):
        with pytest.raises(ValueError, match="pairwise distinct"):
            ws.registered_partner(x, rest, ())


def test_mutate_left_refuses_an_invalid_pair_at_entry():
    # an input that is no recorded cone is validated once, at entry: an
    # invalid one raises ValueError with validate_silting_pair's reason
    # before any route runs, and is not blamed on the registry
    ws = ex.explore(orders.hereditary_reduction(3)).workspace
    counts, size = dict(ws.mutation_counts), len(ws.registry)
    for pair, reason in ((SiltingPair((0, 1), (2,)), "support"),
                         (SiltingPair((0, 1), ()), "count"),
                         (SiltingPair((0, 1, 4), ()), "rigidity")):
        assert ws.validate_silting_pair(pair).reason == reason
        for at in range(len(pair.summands)):
            with pytest.raises(ValueError, match=f"not a support tau-tilting pair: {reason}"):
                ws.mutate_left(pair, at)
    assert ws.mutation_counts == counts and len(ws.registry) == size


def test_mutate_left_refuses_a_repeated_summand():
    # a repeated id is no silting pair; it is refused by name, not by the
    # partner scan finding the rest completed twice
    ws = ex.explore(orders.hereditary_reduction(3)).workspace
    for summands in ((0, 0, 1), (2, 1, 2), (1, 2, 1)):
        for at in range(3):
            with pytest.raises(ValueError, match="pairwise distinct"):
                ws.mutate_left(SiltingPair(summands, ()), at)


@pytest.mark.parametrize("build", [
    lambda: orders.hereditary_reduction(3),
    lambda: orders.auslander_bass_v_reduction(2),
], ids=["hereditary3", "auslander2"])
def test_mutate_left_any_order_gives_the_canonical_result(build):
    # explore hands mutate_left canonical pairs, whose partner or vacant
    # vertex goes in at its bisect position; reversed summands or reversed
    # shifted vertices go through make_pair.  Each must give the canonical
    # node's result by the same route.
    eq = ex.explore(build())
    ws = eq.workspace

    def outcome(pair, at):
        before = dict(ws.mutation_counts)
        got = ws.mutate_left(pair, at)
        return got, {k: n - before[k] for k, n in ws.mutation_counts.items()}

    reordered = 0
    for pair in eq.nodes:
        for at, x in enumerate(pair.summands):
            want = outcome(pair, at)
            for other in (SiltingPair(pair.summands[::-1], pair.proj_part),
                          SiltingPair(pair.summands, pair.proj_part[::-1])):
                assert outcome(other, other.summands.index(x)) == want, (other, at)
                reordered += other != pair
    assert reordered > 0
    assert any(len(pair.proj_part) > 1 for pair in eq.nodes)


def test_mutate_left_refuses_a_partner_filed_twice():
    # Over A2 the keys sort P2 < P1.  With P1 filed again as z, the scan
    # finds z as the other completion of the rest P1, before S1 is ever
    # built; its key equals its neighbour's, which is registry corruption,
    # whether the input is canonical or not.
    ws = SiltingWorkspace(a2_algebra())
    reg = ws.registry
    lam = ws.lambda_pair()
    assert lam == SiltingPair((1, 0), ())
    z = reg._insert(reg.rep(0), reg.presentation(0), reg.gvector(0))
    assert ws.registered_partner(1, (0,), ()) == z
    for pair, at in ((lam, 0), (SiltingPair((0, 1), ()), 1)):
        with pytest.raises(RuntimeError, match="registry corruption"):
            ws.mutate_left(pair, at)


def test_mutation_strictly_descends(a2):
    lam = a2.lambda_pair()
    for at in range(2):
        got = a2.mutate_left(lam, at)
        assert got is not None
        assert a2.pair_leq(got, lam) and not a2.pair_leq(lam, got)


def test_pair_leq_examples(a2):
    s1 = s1_id(a2)
    lam = a2.lambda_pair()
    zero = zero_pair(a2)
    mid = a2.make_pair((0, s1), ())
    p2_pair = a2.make_pair((1,), (0,))
    s1_pair = a2.make_pair((s1,), (1,))
    for x in (lam, zero, mid, p2_pair, s1_pair):
        assert a2.pair_leq(x, lam)
        assert a2.pair_leq(zero, x)
    assert not a2.pair_leq(p2_pair, mid)
    assert a2.pair_leq(s1_pair, mid)
    pairs = (lam, zero, mid, p2_pair, s1_pair)
    for x in pairs:
        for y in pairs:
            assert a2.pair_leq(x, y) == pair_leq_by_entries(a2, x, y), (x, y)


def test_pair_leq_matches_fac_inclusion(a2):
    s1 = s1_id(a2)
    pairs = [a2.lambda_pair(), zero_pair(a2), a2.make_pair((0, s1), ()),
             a2.make_pair((1,), (0,)), a2.make_pair((s1,), (1,))]
    for x in pairs:
        for y in pairs:
            expected = fac_contains(module_rep(a2, y), module_rep(a2, x))
            assert a2.pair_leq(x, y) == expected


def test_is_sincere(a2):
    s1 = s1_id(a2)
    assert a2.is_sincere_silting(a2.lambda_pair())
    assert not a2.is_sincere_silting(zero_pair(a2))
    assert a2.is_sincere_silting(a2.make_pair((0, s1), ()))
    assert not a2.is_sincere_silting(a2.make_pair((1,), (0,)))


def test_complex_pair_roundtrip(a2):
    s1 = s1_id(a2)
    pairs = [a2.lambda_pair(), zero_pair(a2), a2.make_pair((0, s1), ()),
             a2.make_pair((1,), (0,)), a2.make_pair((s1,), (1,))]
    for pair in pairs:
        assert a2.pair_of(a2.complex_of(pair)) == pair


def test_complex_of_extremes(a2):
    lam = a2.complex_of(a2.lambda_pair())
    assert lam.cols == () and sorted(lam.rows) == [0, 1]
    shift = a2.complex_of(zero_pair(a2))
    assert shift.rows == () and sorted(shift.cols) == [0, 1]


def test_pair_leq_iff_complex_rigidity(a2):
    s1 = s1_id(a2)
    pairs = [a2.lambda_pair(), zero_pair(a2), a2.make_pair((0, s1), ()),
             a2.make_pair((1,), (0,)), a2.make_pair((s1,), (1,))]
    for x in pairs:
        for y in pairs:
            lhs = a2.pair_leq(x, y)
            rhs = tt.hom_shift_vanishes(a2.complex_of(y), a2.complex_of(x))
            assert lhs == rhs


# ---- H^0 decomposition ---------------------------------------------------------


@pytest.fixture(scope="module")
def her3_ws():
    """The workspace of an exploration of the hereditary n=3 reduction."""
    return ex.explore(orders.hereditary_reduction(3)).workspace


@pytest.fixture(scope="module")
def her3_registry(her3_ws):
    """The nine modules that exploring the hereditary n=3 reduction registers."""
    return her3_ws.registry


def _split_by_restarts(registry, rep):
    """The scan that restarts at the lowest id after every peel, as a reference."""
    pieces = []
    current = rep
    while not current.is_zero():
        for i in range(len(registry)):
            got = rm.direct_summand_split(current, registry.rep(i))
            if got is not None:
                pieces.append(i)
                current, _ = rm.kernel(got[0])
                break
        else:
            return None
    return pieces


def _change_basis(rep, seed):
    """``rep`` under a random change of basis at every vertex."""
    alg = rep.algebra
    p, q = alg.p, alg.quiver
    rng = np.random.default_rng(seed)
    bases = []
    for d in rep.dims:
        b = rng.integers(0, p, (d, d))
        while not em.is_invertible(b, p):
            b = rng.integers(0, p, (d, d))
        bases.append(b)
    maps = [em.matmul(em.matmul(bases[q.arrow_target(k)], rep.arrow_maps[k], p),
                      em.invert(bases[q.arrow_source(k)], p), p)
            for k in range(q.n_arrows)]
    return rm.Rep(alg, rep.dims, maps)


@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_split_matches_restart_scan(her3_registry, data):
    reg = her3_registry
    n = len(reg)
    mults = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    parts = data.draw(st.permutations([reg.rep(i) for i, m in enumerate(mults)
                                       for _ in range(m)]))
    if parts:
        rep, _ = rm.rep_direct_sum(reg.algebra, parts)
        rep = _change_basis(rep, data.draw(st.integers(0, 2**32 - 1)))
    else:
        rep = zero_rep(reg.algebra)
    got = reg.split(rep)
    assert got == _split_by_restarts(reg, rep)
    assert got == [i for i, m in enumerate(mults) for _ in range(m)]


def test_pair_of_refuses_unregistered_h0():
    ws = SiltingWorkspace(a2_algebra())
    pres = rm.min_projective_presentation(ws.algebra.simple(0))
    with pytest.raises(ValueError, match="in no recorded cone"):
        ws.pair_of(pres)
    # the failure was not memoised: once an exploration has recorded the cone
    # of (P1 + S1, -), the same call succeeds
    ex.explore(ws.algebra, workspace=ws)
    s1 = s1_id(ws)
    assert ws.pair_of(pres) == ws.make_pair((s1,), ())


def test_decompose_memo_hit_equals_fresh():
    ws = ex.explore(a2_algebra()).workspace
    alg, reg = ws.algebra, ws.registry
    s1 = s1_id(ws)
    pairs = [ws.lambda_pair(), zero_pair(ws), ws.make_pair((0, s1), ()),
             ws.make_pair((1,), (0,)), ws.make_pair((s1,), (1,))]
    complexes = [ws.complex_of(pair) for pair in pairs]
    # a contractible summand P_1 -> P_1 cancels, so the reduced key is shared
    cone = tt.TwoTermComplex(alg, (0,), (0,), ((alg.unit_elem(0),),))
    complexes.append(tt.direct_sum(complexes[2], cone, complexes[2]))
    first = [reg.decompose(t) for t in complexes]
    hits = [reg.decompose(t) for t in complexes]
    assert all(a is b for a, b in zip(first, hits))
    # an equal complex built again hashes alike and finds the same entry
    again = [ws.complex_of(pair) for pair in pairs]
    assert [hash(t) for t in again] == [hash(t) for t in complexes[:-1]]
    assert all(reg.decompose(t) is f for t, f in zip(again, first))
    assert reg.decompose(tt.direct_sum(complexes[2], cone)) is first[2]
    reg._complexes.clear()
    assert [reg.decompose(t) for t in complexes] == hits
    assert hits[2] == ((), (0, s1))
    assert hits[-1] == ((), (0, 0, s1, s1))


def test_decompose_returns_ids_ascending_from_a_cone_in_key_order():
    # mutating Lambda at P2 over A2 gives P1 + S1, whose canonical order
    # (by dimension vector) puts S1 = id 2 before P1 = id 0; the cone is
    # recorded in that order, and the decomposition still lists ids ascending
    ws = SiltingWorkspace(a2_algebra())
    lam = ws.lambda_pair()
    mid = ws.mutate_left(lam, lam.summands.index(1))
    s1 = s1_id(ws)
    assert mid.summands == (s1, 0) and s1 > 0
    t = ws.complex_of(mid)
    assert ws.registry.decompose(tt.direct_sum(t, t)) == ((), (0, 0, s1, s1))
    assert ws.pair_of(t) == mid


def test_registry_refuses_a_complex_of_another_algebra(her3_ws):
    # the Auslander algebra of n = 2 has 3 vertices, as hereditary n = 3
    # has, so its g-vectors lie in the hereditary cones; its complexes are
    # still not the hereditary registry's to read
    eq = ex.explore(orders.auslander_bass_v_reduction(2))
    reg = her3_ws.registry
    assert len(eq.nodes) == 24
    for node in eq.nodes:
        t = eq.workspace.complex_of(node)
        for read in (reg.is_presilting, reg.decompose, her3_ws.pair_of,
                     lambda t: tt.is_silting(t, reg),
                     lambda t: tt.bongartz_completion(t, reg),
                     lambda t: tt.co_bongartz_completion(t, reg)):
            with pytest.raises(ValueError, match="another algebra"):
                read(t)


def test_workspace_and_explore_refuse_another_algebra():
    her3, aus2 = orders.hereditary_reduction(3), orders.auslander_bass_v_reduction(2)
    with pytest.raises(ValueError, match="another algebra"):
        ex.explore(her3, workspace=SiltingWorkspace(aus2))
    with pytest.raises(ValueError, match="another algebra"):
        SiltingWorkspace(her3, Registry(aus2))
    # the same algebra, built twice, is two algebras to the registry
    with pytest.raises(ValueError, match="another algebra"):
        SiltingWorkspace(her3, Registry(orders.hereditary_reduction(3)))


def test_cone_reading_needs_a_presilting_complex():
    # over A2, P1 + P1[1] has g-vector 0, which lies in every cone, but
    # End(P1) = Hom(P1[1], P1[1]) obstructs presilting: no cone may read it
    alg = a2_algebra()
    reg = ex.explore(alg).workspace.registry
    t = tt.direct_sum(tt.stalk(alg, 0), tt.shifted_stalk(alg, 0))
    assert tt.g_vector(t) == (0, 0)
    with pytest.raises(ValueError, match="not presilting"):
        reg.decompose(t)
    assert not tt.is_silting(t, reg)


def test_cone_table_refuses_a_singular_cone():
    # P1 and P1[1] have g-vectors e1 and -e1: no basis, so no coordinates
    alg = a2_algebra()
    reg = Registry(alg)
    reg._record_cone((0,), (0,))
    with pytest.raises(AssertionError, match="not unimodular"):
        reg.decompose(tt.stalk(alg, 1))


# ---- approximation copies ------------------------------------------------------


def _strip_by_restarts(ws, x, targets, copies):
    """The scan that restarts at the first copy after every removal, as a reference.

    Each trial checks the full definition: the composites span ``Hom(x, t)``
    at every target, not only at the removed copy's own.
    """
    copies = list(copies)
    i = 0
    while i < len(copies):
        trial = copies[:i] + copies[i + 1:]
        if all(ws._spans(x, t, trial) for t in targets):
            copies = trial
            i = 0
        else:
            i += 1
    return copies


@settings(deadline=None, max_examples=150)
@given(data=st.data())
def test_strip_copies_matches_restart_scan(her3_ws, data):
    ws = her3_ws
    n = len(ws.registry)
    x = data.draw(st.integers(0, n - 1))
    targets = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=2, max_size=4)))
    copies = [(t, b) for t in targets for b in range(len(ws.hom(x, t)))]
    copies = data.draw(st.permutations(copies))
    kept = ws._strip_copies(x, copies)
    assert kept == _strip_by_restarts(ws, x, targets, copies)
    # left-minimal: an approximation at every target, and no kept copy spare
    assert all(ws._spans(x, t, kept) for t in targets)
    for i in range(len(kept)):
        trial = kept[:i] + kept[i + 1:]
        assert not all(ws._spans(x, t, trial) for t in targets), (x, kept[i])
