import hashlib

import pytest
from hypothesis import find, given, settings, strategies as st

from silt import explorer as ex
from silt import orders
from silt import repmod as rm
from silt import twoterm as tt
from silt.algebra import AlgebraElement
from silt.silting import Registry, SiltingWorkspace

from oracles import (complex_repmap, h0, hom_onto, path_elem, presilting_by_h0,
                     shift_hom_basis_by_products)
from test_algebra import a2_algebra, cyclic_2_algebra


@pytest.fixture(scope="module")
def a2():
    return a2_algebra()


@pytest.fixture(scope="module")
def reg(a2):
    """The registry of an A2 exploration: P1, P2, S1 and the cones of all five pairs."""
    return ex.explore(a2).workspace.registry


def pres_s1(a2):
    return rm.min_projective_presentation(a2.simple(0))


def additively_equivalent(s, t):
    # for silting complexes mutual dominance is additive equivalence
    return tt.hom_shift_vanishes(s, t) and tt.hom_shift_vanishes(t, s)


def test_g_vector(a2):
    assert tt.g_vector(tt.lambda_stalk(a2)) == (1, 1)
    assert tt.g_vector(tt.lambda_shift(a2)) == (-1, -1)
    assert tt.g_vector(pres_s1(a2)) == (1, -1)


def test_stalks_are_shared(a2):
    # one stalk complex per algebra and summands: the completions ask for
    # the same stalks on every request
    assert tt.stalk(a2, 0) is tt.stalk(a2, 0)
    assert tt.stalk(a2, 0) is not tt.stalk(a2, 1)
    assert tt.shifted_stalk(a2, 1) is tt.shifted_stalk(a2, 1)
    assert tt.lambda_stalk(a2) is tt.lambda_stalk(a2)
    assert tt.lambda_shift(a2) is tt.lambda_shift(a2)
    assert tt.stalk(a2, 0) is not tt.stalk(a2_algebra(), 0)
    s = tt.shifted_stalk(a2, 1)
    assert (s.rows, s.cols, s.d) == ((), (1,), ())


def test_complexes_refuse_vertices_outside_the_quiver():
    # P_9 names no projective over a two-vertex quiver: a stalk there must not
    # reach the registry as a complex with g-vector (1, 0) read as presilting
    alg = orders.triangular_example_reduction()
    for v in (9, 2, -1):
        with pytest.raises(ValueError, match=rf"summand vertices \[{v}\] are not vertices 0..1"):
            tt.stalk(alg, v)
        with pytest.raises(ValueError, match=rf"summand vertices \[{v}\]"):
            tt.shifted_stalk(alg, v)
    with pytest.raises(ValueError, match=r"summand vertices \[9, -1\]"):
        tt.TwoTermComplex(alg, (0, 9), (-1,), ((), ()))
    assert ((9,), ()) not in alg._stalks and ((), (9,)) not in alg._stalks
    assert tt.direct_sum(tt.stalk(alg, 0), tt.stalk(alg, 1)).rows == (0, 1)


def test_hom_shift_vanishes_trivial(a2):
    p = pres_s1(a2)
    assert tt.hom_shift_vanishes(p, tt.zero_complex(a2))
    s = tt.stalk(a2, 0)
    assert tt.hom_shift_vanishes(s, s)


def test_hom_shift_vanishes_a2_counterexample(a2):
    assert not tt.hom_shift_vanishes(pres_s1(a2), tt.stalk(a2, 1))


def test_is_presilting(a2):
    assert tt.is_presilting(tt.stalk(a2, 0))
    assert tt.is_presilting(pres_s1(a2))
    cyc = cyclic_2_algebra()
    assert tt.is_presilting(rm.min_projective_presentation(cyc.projective(0)))


def test_silting_order_extremes(a2):
    # hom_shift_vanishes(p, q) is p >= q: A is the top, A[1] the bottom
    lam = tt.lambda_stalk(a2)
    shift = tt.lambda_shift(a2)
    assert tt.hom_shift_vanishes(lam, shift)
    assert not tt.hom_shift_vanishes(shift, lam)
    assert tt.hom_shift_vanishes(lam, pres_s1(a2))
    assert tt.hom_shift_vanishes(pres_s1(a2), pres_s1(a2))


def test_minimality_reduce_fixpoint(a2, families):
    # a minimal presentation has a radical differential: nothing to cancel,
    # and the reduction hands back the object it was given
    presentations = [pres_s1(a2)]
    presentations += [reg.presentation(i) for reg in families.values()
                      for i in range(len(reg))]
    for p in presentations:
        assert tt.minimality_reduce(p) is p


def test_minimality_reduce_cancels_identity(a2):
    c = tt.TwoTermComplex(a2, (0,), (0,), ((a2.unit_elem(0),),))
    red = tt.minimality_reduce(c)
    assert red.rows == () and red.cols == ()


def test_minimality_reduce_block_example(a2):
    # (P2 + P2) -> (P1 + P2) with [inclusion, identity on the second copy]
    arrow = path_elem(a2, 0, ("a",))
    d = ((arrow, a2.zero_elem(0, 1)),
         (a2.zero_elem(1, 1), a2.unit_elem(1)))
    c = tt.TwoTermComplex(a2, (0, 1), (1, 1), d)
    red = tt.minimality_reduce(c)
    assert red.rows == (0,) and red.cols == (1,)
    assert red.d[0][0] == arrow


def test_h0_and_decompose(a2, reg):
    s1 = reg.get_or_insert(a2.simple(0))
    assert rm.is_isomorphic(h0(tt.stalk(a2, 0)), a2.projective(0))
    assert reg.decompose(tt.stalk(a2, 0)) == ((), (0,))
    sh = tt.shifted_stalk(a2, 1)
    assert h0(sh).is_zero()
    assert reg.decompose(sh) == ((1,), ())
    assert rm.is_isomorphic(h0(pres_s1(a2)), a2.simple(0))
    assert reg.decompose(pres_s1(a2)) == ((), (s1,))


def test_stalk_behind_a_nonzero_column(a2, reg):
    # (P2 + P2 -[a a]-> P1) is (P2 -> P1) + P2[1]: no column of the reduced
    # differential is zero, yet one P2 is a shifted stalk
    arrow = path_elem(a2, 0, ("a",))
    t = tt.TwoTermComplex(a2, (0,), (1, 1), ((arrow, arrow),))
    assert tt.minimality_reduce(t) == t
    s1 = reg.get_or_insert(a2.simple(0))
    assert reg.decompose(t) == ((1,), (s1,))
    assert tt.is_silting(t, reg)
    ws = SiltingWorkspace(a2, reg)
    assert ws.pair_of(t) == ws.make_pair((s1,), (1,))


def test_is_silting(a2, reg):
    assert tt.is_silting(tt.lambda_stalk(a2), reg)
    assert tt.is_silting(tt.lambda_shift(a2), reg)
    assert not tt.is_silting(tt.stalk(a2, 0), reg)  # one summand, two vertices
    assert tt.is_silting(tt.direct_sum(pres_s1(a2), tt.stalk(a2, 0)), reg)


def test_is_silting_refuses_an_unregistered_h0_summand():
    # two non-projective summands of a hereditary n=3 node; a fresh registry
    # knows neither, nor the node's cone, so the count cannot be read and
    # nothing is registered
    eq = ex.explore(orders.hereditary_reduction(3))
    ws, nv = eq.workspace, eq.algebra.quiver.n_vertices
    node = next(node for node in eq.nodes
                if sum(i >= nv for i in node.summands) == 2)
    fresh = Registry(eq.algebra)
    with pytest.raises(ValueError, match="in no recorded cone"):
        tt.is_silting(ws.complex_of(node), fresh)
    assert len(fresh) == nv


def test_bongartz_of_zero_is_lambda(a2, reg):
    got = tt.bongartz_completion(tt.zero_complex(a2), reg)
    assert additively_equivalent(got, tt.lambda_stalk(a2))


def test_bongartz_of_lambda(a2, reg):
    got = tt.bongartz_completion(tt.lambda_stalk(a2), reg)
    assert additively_equivalent(got, tt.lambda_stalk(a2))


def test_bongartz_a2_example(a2, reg):
    got = tt.bongartz_completion(pres_s1(a2), reg)
    want = tt.direct_sum(pres_s1(a2), tt.stalk(a2, 0))
    assert additively_equivalent(got, want)


def test_co_bongartz_of_zero_is_shift(a2, reg):
    got = tt.co_bongartz_completion(tt.zero_complex(a2), reg)
    assert additively_equivalent(got, tt.lambda_shift(a2))


def test_co_bongartz_of_lambda(a2, reg):
    got = tt.co_bongartz_completion(tt.lambda_stalk(a2), reg)
    assert additively_equivalent(got, tt.lambda_stalk(a2))


def test_co_bongartz_a2_example(a2, reg):
    # completing the P1 stalk from below lands at (P1 + S1, -)
    got = tt.co_bongartz_completion(tt.stalk(a2, 0), reg)
    want = tt.direct_sum(pres_s1(a2), tt.stalk(a2, 0))
    assert additively_equivalent(got, want)


def test_completion_order_sandwich(a2, reg):
    p = tt.stalk(a2, 0)
    top = tt.bongartz_completion(p, reg)
    bot = tt.co_bongartz_completion(p, reg)
    assert tt.hom_shift_vanishes(top, bot)
    assert not tt.hom_shift_vanishes(bot, top)


def test_pair_of_roundtrip_on_completion(a2):
    ws = ex.explore(a2).workspace
    s1 = ws.registry.get_or_insert(a2.simple(0))
    got = tt.bongartz_completion(pres_s1(a2), ws.registry)
    assert ws.pair_of(got) == ws.make_pair((0, s1), ())


def _almost_complete(eq):
    """Complexes of every pair one summand short of a node of ``eq``."""
    ws = eq.workspace
    for node in eq.nodes:
        for k in range(len(node.summands)):
            yield ws.complex_of(ws.make_pair(
                node.summands[:k] + node.summands[k + 1:], node.proj_part))
        for k in range(len(node.proj_part)):
            yield ws.complex_of(ws.make_pair(
                node.summands, node.proj_part[:k] + node.proj_part[k + 1:]))


def test_complex_repmap_validates(a2):
    # the evaluated differential is a genuine homomorphism of representations
    neg1, deg0, dmap = complex_repmap(pres_s1(a2))
    assert neg1.dims == a2.projective(1).dims
    assert deg0.dims == a2.projective(0).dims
    assert not dmap.is_zero()


def test_presilting_memo_matches_fresh_verdict(monkeypatch):
    eq = ex.explore(orders.auslander_bass_v_reduction(2))
    ws = eq.workspace
    reg = ws.registry
    checked, pairs = [], []
    real, real_vanishes = tt.components, tt.hom_shift_vanishes

    def counted(t):
        checked.append(t)
        return real(t)

    def counted_vanishes(a, b):
        pairs.append((a, b))
        return real_vanishes(a, b)

    def no_h0(h):
        raise AssertionError("the registry's verdict builds no H^0 module")

    monkeypatch.setattr(tt, "components", counted)
    monkeypatch.setattr(tt, "hom_shift_vanishes", counted_vanishes)
    monkeypatch.setattr(rm, "cokernel", no_h0)
    inputs = list(_almost_complete(eq))
    completions = [f(t, reg) for t in inputs
                   for f in (tt.bongartz_completion, tt.co_bongartz_completion)]
    assert len(completions) == 144
    # one check per distinct reduced input, none per completion: a completion
    # of a presilting complex is filed presilting by theorem, not split
    assert len(checked) == len({tt.minimality_reduce(t) for t in inputs}) < len(
        {tt.minimality_reduce(t) for t in completions}) < 144
    # each distinct ordered pair of components is computed once, over all checks
    assert len(pairs) == len(set(pairs)) == len(
        {(a, b) for t in checked for a in real(t) for b in real(t)})
    # a contractible summand P_0 -> P_0 leaves the reduced key, and the verdict
    alg = eq.algebra
    cone = tt.TwoTermComplex(alg, (0,), (0,), ((alg.unit_elem(0),),))
    before = len(checked)
    assert all(reg.is_presilting(tt.direct_sum(t, cone)) for t in completions)
    assert len(checked) == before
    monkeypatch.undo()
    # the whole-complex H^0 route is the reference
    for t in completions:
        assert reg.is_presilting(t) is presilting_by_h0(t) is True
    # non-presilting sums of neighbouring nodes get the reference verdict too
    sums = [tt.direct_sum(ws.complex_of(a), ws.complex_of(b))
            for a, b in zip(eq.nodes, eq.nodes[1:])]
    verdicts = [reg.is_presilting(t) for t in sums]
    assert verdicts == [presilting_by_h0(t) for t in sums]
    assert not all(verdicts)


def test_completion_requests_reduce_once_per_read(monkeypatch):
    # the 72 requests of Auslander 2 as the benchmark makes them: both
    # completions, each read back by pair_of.  Each of the 144 completions
    # is reduced when it is glued.  Each asks is_presilting of its input,
    # which the memo reduces on its first miss only: 36 distinct inputs.
    # The glued cone is filed presilting by theorem under its reduced key, so
    # the is_silting gate, its decomposition and pair_of look it up and
    # reduce it no more; is_presilting is asked of each input and by the gate
    eq = ex.explore(orders.auslander_bass_v_reduction(2))
    ws = eq.workspace
    calls = {"minimality_reduce": 0, "is_presilting": 0}
    real_reduce, real_presilting = tt.minimality_reduce, Registry.is_presilting

    def reduce(t):
        calls["minimality_reduce"] += 1
        return real_reduce(t)

    def presilting(self, t):
        calls["is_presilting"] += 1
        return real_presilting(self, t)

    monkeypatch.setattr(tt, "minimality_reduce", reduce)
    monkeypatch.setattr(Registry, "is_presilting", presilting)
    requests = list(_almost_complete(eq))
    assert len(requests) == 72
    memo, new_inputs, new_results = ws.registry._complexes, 0, 0
    for cx in requests:
        for complete in (tt.bongartz_completion, tt.co_bongartz_completion):
            new_input = cx not in memo
            before = calls["minimality_reduce"], len(memo)
            ws.pair_of(complete(cx, ws.registry))
            new_result = len(memo) - before[1] - new_input
            assert new_result in (0, 1)
            assert calls["minimality_reduce"] == before[0] + 1 + new_input
            new_inputs, new_results = new_inputs + new_input, new_results + new_result
    assert (new_inputs, new_results) == (36, 72)
    assert calls == {"minimality_reduce": 144 + 36, "is_presilting": 144 + 144}


def test_completions_refuse_a_non_presilting_input(monkeypatch):
    # over A2, P1 + P1[1] is not presilting (End(P1) obstructs it).  Both
    # completions refuse it at entry, glue nothing and compute no copy, and
    # no result enters the registry's memo
    alg = a2_algebra()
    reg = ex.explore(alg).workspace.registry
    t = tt.direct_sum(tt.stalk(alg, 0), tt.shifted_stalk(alg, 0))
    assert not reg.is_presilting(t)
    memo = dict(reg._complexes)

    def no_copies(*args):
        raise AssertionError("a refused input computes no approximation copy")

    monkeypatch.setattr(tt, "shift_hom_basis", no_copies)
    monkeypatch.setattr(tt, "_glue", no_copies)
    for complete, name in ((tt.bongartz_completion, "Bongartz"),
                           (tt.co_bongartz_completion, "co-Bongartz")):
        with pytest.raises(ValueError, match=f"^{name} completion needs a presilting"):
            complete(t, reg)
    assert reg._complexes == memo and t in memo


# ---- the presilting verdict against the shifted-Hom reference ------------------


@pytest.fixture(scope="module")
def explorations():
    builds = {"hereditary3": orders.hereditary_reduction(3),
              "auslander2": orders.auslander_bass_v_reduction(2),
              "nakayama3-5": orders.cyclic_nakayama(3, 5)}
    return {name: ex.explore(alg) for name, alg in builds.items()}


@pytest.fixture(scope="module")
def families(explorations):
    """Registries of three explorations, each holding every node summand."""
    return {name: eq.workspace.registry for name, eq in explorations.items()}


def test_completions_match_parent_digest(explorations):
    # both completions of all 192 almost-complete pairs, block for block;
    # the digest was recorded before the completions read their copies off
    # shift_hom_basis and glued their cones through one direct sum
    h, count = hashlib.sha256(), 0
    for eq in explorations.values():
        for t in _almost_complete(eq):
            for f in (tt.bongartz_completion, tt.co_bongartz_completion):
                got = f(t, eq.workspace.registry)
                h.update(repr((got.rows, got.cols,
                               tuple(tuple(sorted(e.coeffs.items()))
                                     for row in got.d for e in row))).encode())
                count += 1
    assert count == 384
    assert h.hexdigest() == \
        "1edf8e4eca05ea4e3339f09ddfa07572dd7c0723d5d42dc33834b4de77bdf669"


def test_shift_hom_basis_against_h0_and_hom_onto(explorations):
    # Hom(P_v[1], t[1]) = Hom(P_v, H^0 t) has dimension dim H^0(t)_v, and
    # Hom(t, P_v[1]) is the cokernel of Hom(d_t, P_v); neither reference
    # builds the homotopy quotient
    checks = 0
    for eq in explorations.values():
        alg = eq.algebra
        for t in _almost_complete(eq):
            dims = h0(t).dims
            for v in range(alg.quiver.n_vertices):
                assert len(tt.shift_hom_basis(tt.shifted_stalk(alg, v), t)) == dims[v]
                assert bool(tt.shift_hom_basis(t, tt.stalk(alg, v))) == \
                    (not hom_onto(t, alg.projective(v)))
                checks += 2
    assert checks == 1152


def _reference_components(t):
    """Per block row, then per block column: the complex on its connected
    part of the block pattern, found by a breadth-first walk."""
    nr = len(t.rows)
    links = {x: set() for x in range(nr + len(t.cols))}
    for r, row in enumerate(t.d):
        for c, entry in enumerate(row):
            if not entry.is_zero():
                links[r].add(nr + c)
                links[nr + c].add(r)
    out = []
    for x in links:
        seen, todo = {x}, [x]
        while todo:
            for y in links[todo.pop()] - seen:
                seen.add(y)
                todo.append(y)
        rs = sorted(y for y in seen if y < nr)
        cs = sorted(y - nr for y in seen if y >= nr)
        out.append(tt.TwoTermComplex(t.algebra, [t.rows[r] for r in rs],
                                     [t.cols[c] for c in cs],
                                     [[t.d[r][c] for c in cs] for r in rs]))
    return out


def test_components_partition_every_completion(explorations):
    # every block row and column lands in exactly one returned component,
    # and every returned component is the part of some row or column
    checked = 0
    for eq in explorations.values():
        for t in _almost_complete(eq):
            for f in (tt.bongartz_completion, tt.co_bongartz_completion):
                got = f(t, eq.workspace.registry)
                parts = tt.components(got)
                assert len(parts) == len(set(parts))
                want = _reference_components(got)
                assert [parts.count(part) for part in want] == [1] * len(want)
                assert set(parts) == set(want)
                assert list(dict.fromkeys(want)) == parts
                checked += len(got.rows) + len(got.cols)
    assert checked > 384


def test_components_keep_one_copy(reg, a2):
    p = reg.presentation(reg.get_or_insert(a2.simple(0)))
    q = reg.presentation(0)
    assert len(p.rows) == len(p.cols) == 1 and not p.d[0][0].is_zero()
    assert tt.components(tt.direct_sum(p, p, q)) == [p, q]
    assert tt.components(tt.direct_sum(q, p, q, p)) == [q, p]


def test_components_of_zero_rows_and_columns_are_stalks(a2):
    t = tt.TwoTermComplex(a2, (0, 1, 0), (1, 0), [[a2.zero_elem(0, 1), a2.zero_elem(0, 0)],
                                                  [a2.zero_elem(1, 1), a2.zero_elem(1, 0)],
                                                  [a2.zero_elem(0, 1), a2.zero_elem(0, 0)]])
    got = tt.components(t)
    want = [tt.stalk(a2, 0), tt.stalk(a2, 1), tt.shifted_stalk(a2, 1),
            tt.shifted_stalk(a2, 0)]
    assert len(got) == len(want) and all(g is w for g, w in zip(got, want))
    assert tt.components(tt.zero_complex(a2)) == []
    # a nonzero block joins its row and column, the zero ones stay stalks
    s1 = pres_s1(a2)
    got = tt.components(tt.direct_sum(tt.shifted_stalk(a2, 0), s1, tt.stalk(a2, 1)))
    assert got == [s1, tt.stalk(a2, 1), tt.shifted_stalk(a2, 0)]


@st.composite
def summed_complexes(draw, reg):
    """Direct sums of registered presentations, shifted stalks and maybe a
    contractible ``P_v -> P_v``, in a drawn order."""
    alg = reg.algebra
    nv = alg.quiver.n_vertices
    ids = draw(st.lists(st.integers(0, len(reg) - 1), max_size=3))
    shifted = draw(st.lists(st.integers(0, nv - 1), max_size=2))
    parts = [reg.presentation(i) for i in ids]
    parts += [tt.shifted_stalk(alg, v) for v in shifted]
    if draw(st.booleans()):
        v = draw(st.integers(0, nv - 1))
        parts.append(tt.TwoTermComplex(alg, (v,), (v,), ((alg.unit_elem(v),),)))
    parts = draw(st.permutations(parts))
    return tt.direct_sum(*parts) if parts else tt.zero_complex(alg)


@settings(deadline=None, max_examples=80)
@given(data=st.data())
def test_presilting_verdict_equals_shifted_hom(families, data):
    # Hom(T, T[1]) is the cokernel of Hom(d_T, H^0 T), since both terms of T
    # are projective; is_presilting builds the homotopy quotient itself, the
    # reference builds H^0 and no shifted-Hom matrix
    reg = families[data.draw(st.sampled_from(sorted(families)))]
    t = data.draw(summed_complexes(reg))
    assert presilting_by_h0(t) == tt.is_presilting(t)


@settings(deadline=None, max_examples=80)
@given(data=st.data())
def test_shift_hom_basis_equals_product_build(families, data):
    # the image rows summed from structure constants equal the ones read off
    # one AlgebraElement product per entry, so the same entries survive
    reg = families[data.draw(st.sampled_from(sorted(families)))]
    draws = st.one_of(summed_complexes(reg), block_complexes(reg.algebra))
    t, u = data.draw(draws), data.draw(draws)
    for p, q in ((t, t), (t, u), (u, t)):
        assert tt.shift_hom_basis(p, q) == shift_hom_basis_by_products(p, q)


def _h0_tau_rigid(t):
    pres = rm.min_projective_presentation(h0(t))
    return tt.hom_shift_vanishes(pres, pres)


@pytest.mark.parametrize("name", ["hereditary3", "auslander2", "nakayama3-5"])
def test_summed_complexes_reach_both_obstructions(families, name):
    # the draws above fail to be presilting both through H^0 = M, which is
    # not tau-rigid, and through Hom(Q, M) != 0 for the shifted part Q[1]
    quiet = settings(deadline=None, database=None, max_examples=500)
    draws = summed_complexes(families[name])
    for h0_rigid in (False, True):
        t = find(draws, lambda t: not tt.hom_shift_vanishes(t, t)
                 and _h0_tau_rigid(t) == h0_rigid, settings=quiet)
        assert not presilting_by_h0(t)


# ---- minimality_reduce against the full Schur update ----------------------------


def _full_schur_reduce(t):
    """Reference: every Schur step rebuilds every remaining entry."""
    rows, cols = list(t.rows), list(t.cols)
    d = [list(row) for row in t.d]
    while True:
        pivot = next(((r, c) for r in range(len(rows)) for c in range(len(cols))
                      if rows[r] == cols[c] and d[r][c].unit_coefficient()), None)
        if pivot is None:
            return tt.TwoTermComplex(t.algebra, rows, cols, d)
        r, c = pivot
        u_inv = d[r][c].local_inverse()
        d = [[d[i][j] - d[i][c] * u_inv * d[r][j] for j in range(len(cols)) if j != c]
             for i in range(len(rows)) if i != r]
        del rows[r], cols[c]


def _same_fields(a, b):
    return (a.rows, a.cols, a.d) == (b.rows, b.cols, b.d)


@st.composite
def block_complexes(draw, alg):
    """Arbitrary block differentials with at most four summands a degree.

    Unlike the summed presentations, these have units off the diagonal of a
    direct sum, so Schur steps meet nonzero entries in the pivot row and
    column."""
    nv = alg.quiver.n_vertices
    rows = draw(st.lists(st.integers(0, nv - 1), max_size=4))
    cols = draw(st.lists(st.integers(0, nv - 1), max_size=4))
    coeff = st.sampled_from([0, 0, 1, 2, alg.p - 1])
    d = [[AlgebraElement(alg, rv, cv, {g: draw(coeff) for g in alg.pair_basis(rv, cv)})
          for cv in cols] for rv in rows]
    return tt.TwoTermComplex(alg, rows, cols, d)


@settings(deadline=None, max_examples=150)
@given(data=st.data())
def test_reduce_equals_full_schur_update(families, data):
    reg = families[data.draw(st.sampled_from(sorted(families)))]
    t = data.draw(st.one_of(summed_complexes(reg), block_complexes(reg.algebra)))
    assert _same_fields(tt.minimality_reduce(t), _full_schur_reduce(t))


@pytest.mark.parametrize("name", ["hereditary3", "auslander2"])
def test_reduce_equals_full_schur_update_on_glued_completions(explorations, name,
                                                              monkeypatch):
    # the complexes both completions glue before reducing: the approximation
    # copies put nonzero blocks in the pivot rows and columns
    eq = explorations[name]
    ws = eq.workspace
    seen = {}
    real = tt.minimality_reduce

    def recorded(t):
        seen.setdefault(id(t), t)
        return real(t)

    monkeypatch.setattr(tt, "minimality_reduce", recorded)
    for rest in _almost_complete(eq):
        tt.bongartz_completion(rest, ws.registry)
        tt.co_bongartz_completion(rest, ws.registry)
    monkeypatch.undo()
    steps = 0
    for t in seen.values():
        got = real(t)
        assert _same_fields(got, _full_schur_reduce(t))
        steps += len(t.rows) - len(got.rows)
    assert steps > 0

