"""Source checks: the package's own files, and the names perfbench wraps."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "silt").glob("*.py"))


def test_no_bare_assert():
    # ``python -O`` strips assert statements; a correctness check raises instead
    assert len(SOURCES) > 5
    found = [f"{path.name}:{node.lineno}" for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


DICT_MUTATORS = {"update", "pop", "popitem", "clear", "setdefault"}


def _coeffs_writes(tree):
    # ``x.coeffs[k] = ...``, ``del x.coeffs[k]`` and ``x.coeffs.update(...)``
    # or another in-place dict method, for any expression ``x``
    for node in ast.walk(tree):
        if (isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del))
                and isinstance(node.value, ast.Attribute) and node.value.attr == "coeffs"):
            yield node.lineno
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in DICT_MUTATORS
              and isinstance(node.func.value, ast.Attribute)
              and node.func.value.attr == "coeffs"):
            yield node.lineno


def test_no_write_into_element_coeffs():
    # FiniteDimAlgebra.zero_elem hands one shared zero to every caller, so an
    # AlgebraElement's coefficients never change after construction
    probe = ("x.coeffs[g] = 1\nf(x).coeffs[g] += 1\ndel x.coeffs[g]\n"
             "x.coeffs.pop(g)\ncoeffs[g] = 1\ny = x.coeffs[g]\n")
    assert list(_coeffs_writes(ast.parse(probe))) == [1, 2, 3, 4]
    found = [f"{path.name}:{line}" for path in SOURCES
             for line in _coeffs_writes(ast.parse(path.read_text(), filename=str(path)))]
    assert found == []


def test_traced_names_exist():
    # perfbench/tracing.py wraps each TARGETS entry by name, a method through
    # its class's own __dict__; a missing name breaks ``run.py --trace 1``
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert len(tracing.TARGETS) > 30
    missing = []
    for prefix, modname, attr in tracing.TARGETS:
        module = importlib.import_module(f"silt.{modname}")
        owner_name, _, leaf = attr.rpartition(".")
        namespace = vars(getattr(module, owner_name)) if owner_name else vars(module)
        if leaf not in namespace:
            missing.append(prefix)
    assert missing == []


def _called(node, name):
    # ``name(...)`` or ``<expr>.name(...)``
    func = node.func
    return (isinstance(func, ast.Name) and func.id == name) or \
        (isinstance(func, ast.Attribute) and func.attr == name)


def _scoped_nodes(node, scope=()):
    # (enclosing class and function names, node) for every node under ``node``
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = scope + (child.name,)
        yield inner, child
        yield from _scoped_nodes(child, inner)


def _scoped_calls(node, scope=()):
    # (enclosing class and function names, call) for every call under ``node``
    return ((s, n) for s, n in _scoped_nodes(node, scope) if isinstance(n, ast.Call))


def _def_of(tree, scope):
    # the class or function definition that the names of ``scope`` lead to
    node = tree
    for name in scope:
        node = next(c for c in ast.iter_child_nodes(node) if getattr(c, "name", None) == name)
    return node


def _ungated_record_cone_calls(tree):
    # a recorded cone answers later ``decompose`` calls by its g-vectors, and
    # ``mutate_left`` trusts an input that is one; so ``_record_cone`` runs in
    # ``Registry.__init__`` (Lambda, Lambda[1]) and in
    # ``SiltingWorkspace.mutate_left`` only after its gate, a membership test
    # against ``_cones`` and ``validate_silting_pair`` of its input, and
    # after ``validate_silting_pair`` of the pair it records, which the
    # cokernel route runs
    for scope, call in _scoped_calls(tree):
        if not _called(call, "_record_cone") or scope == ("Registry", "__init__"):
            continue
        if scope == ("SiltingWorkspace", "mutate_left"):
            fn = _def_of(tree, scope)
            before = [n for n in ast.walk(fn) if getattr(n, "lineno", call.lineno) < call.lineno]
            gated = any(isinstance(n, ast.Compare)
                        and {type(op) for op in n.ops} & {ast.In, ast.NotIn}
                        and any(isinstance(c, ast.Attribute) and c.attr == "_cones"
                                for c in n.comparators) for n in before)
            validated = {n.args[0].id for n in before if isinstance(n, ast.Call)
                         and _called(n, "validate_silting_pair")
                         and n.args and isinstance(n.args[0], ast.Name)}
            recorded = {n.value.id for arg in call.args for n in ast.walk(arg)
                        if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)}
            if gated and recorded and {fn.args.args[1].arg} | recorded <= validated:
                continue
        yield ".".join(scope), call.lineno


GATED_PROBE = ("class Registry:\n"
               "    def __init__(self):\n"
               "        self._record_cone((), ())\n"
               "class SiltingWorkspace:\n"
               "    def mutate_left(self, pair, at):\n"
               "        if (pair.summands, pair.proj_part) not in self.registry._cones:\n"
               "            self.validate_silting_pair(pair)\n"
               "        candidate = self.step(pair, at)\n"
               "        if candidate.built:\n"
               "            self.validate_silting_pair(candidate)\n"
               "        self.registry._record_cone(candidate.summands, candidate.proj_part)\n")


def test_record_cone_callers():
    assert list(_ungated_record_cone_calls(ast.parse(GATED_PROBE))) == []
    # no gate, no validation of the input, or none of the recorded pair
    for good, bad in (("not in self.registry._cones", "not in self.seen"),
                      ("self.validate_silting_pair(pair)", "self.check(pair)"),
                      ("self.validate_silting_pair(candidate)", "self.check(candidate)")):
        probe = GATED_PROBE.replace(good, bad)
        assert list(_ungated_record_cone_calls(ast.parse(probe))) == [
            ("SiltingWorkspace.mutate_left", 11)], bad
    # a record before the validation it needs, and records elsewhere
    probe = GATED_PROBE.replace("        if candidate.built",
                                "        self.registry._record_cone(candidate.summands, ())\n"
                                "        if candidate.built")
    probe += ("    def mutate_right(self, pair):\n"
              "        self.registry._record_cone(pair, ())\n"
              "def free(reg):\n"
              "    _record_cone(reg)\n")
    assert list(_ungated_record_cone_calls(ast.parse(probe))) == [
        ("SiltingWorkspace.mutate_left", 9), ("SiltingWorkspace.mutate_right", 14),
        ("free", 16)]
    found, allowed = [], 0
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{line} in {where}"
                  for where, line in _ungated_record_cone_calls(tree)]
        allowed += sum(_called(call, "_record_cone") for _, call in _scoped_calls(tree))
    assert found == []
    assert allowed == 3     # Lambda and Lambda[1], then each mutation result


def _is_cones(node):
    # ``<expr>._cones``
    return isinstance(node, ast.Attribute) and node.attr == "_cones"


def _attr_writes(tree, attr):
    # (scope, line) of every write to ``<expr>.<attr>``: binding or deleting
    # the attribute or one of its items, or an in-place dict method
    def is_attr(node):
        return isinstance(node, ast.Attribute) and node.attr == attr

    for scope, node in _scoped_nodes(tree):
        stored = isinstance(getattr(node, "ctx", None), (ast.Store, ast.Del))
        if stored and (is_attr(node) or isinstance(node, ast.Subscript)
                       and is_attr(node.value)) \
                or isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr in DICT_MUTATORS and is_attr(node.func.value):
            yield scope, node.lineno


def _cones_writes(tree):
    return _attr_writes(tree, "_cones")


def _public_writes(tree, attr):
    # writes to ``<expr>.<attr>`` outside Registry's constructor and its
    # private methods
    for scope, line in _attr_writes(tree, attr):
        if not (len(scope) == 2 and scope[0] == "Registry" and scope[1].startswith("_")):
            yield ".".join(scope), line


def _public_cone_writes(tree):
    # mutate_left trusts a recorded cone as its input and validates nothing,
    # so the table has no public writer: only Registry's constructor and its
    # private methods write it, and test_record_cone_callers pins who calls
    # the private writer
    return _public_writes(tree, "_cones")


def test_cone_table_has_no_public_writer():
    probe = ("class Registry:\n"
             "    def __init__(self):\n"
             "        self._cones = {}\n"
             "    def _record_cone(self, ids, verts):\n"
             "        self._cones.setdefault((ids, verts))\n"
             "    def record_cone(self, ids, verts):\n"
             "        self._cones[ids, verts] = None\n"
             "    def forget(self):\n"
             "        del self._cones[()]\n"
             "        self._cones.clear()\n"
             "class SiltingWorkspace:\n"
             "    def mutate_left(self, pair, at):\n"
             "        self.registry._cones.update({pair: None})\n"
             "        return (pair, at) in self.registry._cones\n")
    assert list(_public_cone_writes(ast.parse(probe))) == [
        ("Registry.record_cone", 7), ("Registry.forget", 9), ("Registry.forget", 10),
        ("SiltingWorkspace.mutate_left", 13)]
    found, writers = [], set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{line} in {where}" for where, line in _public_cone_writes(tree)]
        writers |= {scope for scope, _ in _cones_writes(tree)}
    assert found == []
    # the rule is not vacuous: the constructor and the private writer write it
    assert writers == {("Registry", "__init__"), ("Registry", "_record_cone")}


def test_presilting_memo_has_no_public_writer():
    # the completions file their results presilting by theorem, unchecked,
    # through Registry._trust_presilting; so the memo of verdicts has no
    # public writer, and test_trusted_verdict_callers pins who calls it
    probe = ("class Registry:\n"
             "    def __init__(self):\n"
             "        self._complexes = {}\n"
             "    def _trust_presilting(self, t):\n"
             "        self._complexes.setdefault(t, [True, None])\n"
             "    def trust(self, t):\n"
             "        self._complexes[t] = [True, None]\n"
             "def _silting_or_raise(t, registry):\n"
             "    registry._complexes.update({t: [True, None]})\n"
             "    return t in registry._complexes\n")
    assert list(_public_writes(ast.parse(probe), "_complexes")) == [
        ("Registry.trust", 7), ("_silting_or_raise", 9)]
    found, writers = [], set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{line} in {where}"
                  for where, line in _public_writes(tree, "_complexes")]
        writers |= {scope for scope, _ in _attr_writes(tree, "_complexes")}
    assert found == []
    # the rule is not vacuous: a computed verdict and a trusted one are written
    assert writers == {("Registry", "__init__"), ("Registry", "_entry"),
                       ("Registry", "_trust_presilting")}


def _trust_calls(tree):
    # (scope, line) of every call of ``_trust_presilting``
    return [(".".join(scope), call.lineno) for scope, call in _scoped_calls(tree)
            if _called(call, "_trust_presilting")]


def test_trusted_verdict_callers():
    # a trusted verdict is sound only for the reduced cone of a completion
    # whose input passed is_presilting; _silting_or_raise alone files one
    probe = ("def _silting_or_raise(glued, registry, name):\n"
             "    registry._trust_presilting(glued)\n"
             "def helper(registry, t):\n"
             "    def inner():\n"
             "        registry._trust_presilting(t)\n"
             "class Registry:\n"
             "    def is_presilting(self, t):\n"
             "        self._trust_presilting(t)\n")
    assert _trust_calls(ast.parse(probe)) == [
        ("_silting_or_raise", 2), ("helper.inner", 5), ("Registry.is_presilting", 8)]
    found = [(path.name, where) for path in SOURCES
             for where, _ in _trust_calls(ast.parse(path.read_text(), filename=str(path)))]
    assert found == [("twoterm.py", "_silting_or_raise")]


COMPLETIONS = ("bongartz_completion", "co_bongartz_completion")


def _completions_not_checked_first(tree):
    # each completion's first statement after its docstring is
    # ``if not <expr>.is_presilting(<input>): raise ...``, so no copy is
    # computed and nothing is glued for an input that is not presilting;
    # yields the completions that do otherwise
    for node in ast.iter_child_nodes(tree):
        if not (isinstance(node, ast.FunctionDef) and node.name in COMPLETIONS):
            continue
        body = node.body[1:] if ast.get_docstring(node) is not None else node.body
        first = body[0] if body else None
        test = getattr(first, "test", None)
        checked = isinstance(first, ast.If) and isinstance(test, ast.UnaryOp) \
            and isinstance(test.op, ast.Not) and isinstance(test.operand, ast.Call) \
            and _called(test.operand, "is_presilting") \
            and [ast.dump(a) for a in test.operand.args] == [
                ast.dump(ast.Name(node.args.args[0].arg, ast.Load()))] \
            and [type(n) for n in first.body] == [ast.Raise]
        if not checked:
            yield node.name, node.lineno


def test_completions_check_their_input_first():
    probe = ("def bongartz_completion(t, registry):\n"
             "    \"\"\"doc\"\"\"\n"
             "    if not registry.is_presilting(t):\n"
             "        raise ValueError(t)\n"
             "    return _glue((t,), {})\n"
             "def co_bongartz_completion(t, registry):\n"
             "    if not registry.is_presilting(t):\n"
             "        raise ValueError(t)\n"
             "    return _glue((t,), {})\n")
    assert list(_completions_not_checked_first(ast.parse(probe))) == []
    # gluing first, another complex checked, the verdict not acted on
    for good, bad in (("    if not registry.is_presilting(t):\n        raise ValueError(t)\n"
                       "    return _glue((t,), {})\n",
                       "    s = _glue((t,), {})\n    if not registry.is_presilting(t):\n"
                       "        raise ValueError(t)\n    return s\n"),
                      ("is_presilting(t)", "is_presilting(registry)"),
                      ("        raise ValueError(t)\n", "        print(t)\n")):
        got = _completions_not_checked_first(ast.parse(probe.replace(good, bad)))
        assert [name for name, _ in got] == list(COMPLETIONS), bad
    path = ROOT / "src" / "silt" / "twoterm.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    assert list(_completions_not_checked_first(tree)) == []
    # the rule is not vacuous: both completions are module-level functions
    assert {n.name for n in ast.iter_child_nodes(tree)
            if isinstance(n, ast.FunctionDef)} >= set(COMPLETIONS)


def _gated_calls(node, gated=False):
    # (inside the body of a ``<expr> not in <expr>._cones`` test, call) for
    # every call under ``node``; the test itself and an ``else`` are outside
    for field, value in ast.iter_fields(node):
        inner = gated or field == "body" and isinstance(node, ast.If) \
            and isinstance(node.test, ast.Compare) \
            and [type(op) for op in node.test.ops] == [ast.NotIn] \
            and _is_cones(node.test.comparators[0])
        for child in value if isinstance(value, list) else [value]:
            if isinstance(child, ast.AST):
                if isinstance(child, ast.Call):
                    yield inner, child
                yield from _gated_calls(child, inner)


def _make_pair_past_the_gate(tree):
    # a recorded cone is canonical, and mutate_left sorts any other input
    # with make_pair inside its gate; every route past the gate keeps the
    # order, so a make_pair call there would be a second path
    fn = _def_of(tree, ("SiltingWorkspace", "mutate_left"))
    for gated, call in _gated_calls(fn):
        if _called(call, "make_pair") and not gated:
            yield call.lineno


def test_mutate_left_sorts_only_at_its_gate():
    probe = ("class SiltingWorkspace:\n"
             "    def mutate_left(self, pair, at):\n"
             "        if (pair.summands, pair.proj_part) not in self.registry._cones:\n"
             "            canon = self.make_pair(pair.summands, pair.proj_part)\n"
             "        else:\n"
             "            canon = self.make_pair(pair.summands, ())\n"
             "        if pair not in self.seen:\n"
             "            self.make_pair((), ())\n"
             "        return self.make_pair(canon.summands, canon.proj_part)\n")
    assert list(_make_pair_past_the_gate(ast.parse(probe))) == [6, 8, 9]
    path = ROOT / "src" / "silt" / "silting.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    assert list(_make_pair_past_the_gate(tree)) == []
    # the rule is not vacuous: the gate makes the one call
    fn = _def_of(tree, ("SiltingWorkspace", "mutate_left"))
    assert [gated for gated, call in _gated_calls(fn) if _called(call, "make_pair")] == [True]


ROWS_RIGID_SCOPES = (("SiltingWorkspace", "validate_silting_pair"),
                     ("SiltingWorkspace", "pair_leq"))


def _rows_rigid_off_the_order(tree):
    # several rigidity rows are read at once by the rigidity step of
    # validation and by the silting order alone; mutate_left decides
    # "strictly below" through pair_leq, with no inline copy of its tests
    for scope, call in _scoped_calls(tree):
        if _called(call, "_rows_rigid") and scope not in ROWS_RIGID_SCOPES:
            yield ".".join(scope), call.lineno


def test_rows_rigid_only_in_validation_and_the_order():
    probe = ("class SiltingWorkspace:\n"
             "    def validate_silting_pair(self, pair):\n"
             "        return self._rows_rigid(pair.summands, 0)\n"
             "    def pair_leq(self, a, b):\n"
             "        return self._rows_rigid(b.summands, 0)\n"
             "    def mutate_left(self, pair, at):\n"
             "        return self._rows_rigid(pair.summands, 1)\n"
             "def helper(ws):\n"
             "    return ws._rows_rigid((), 0)\n")
    assert list(_rows_rigid_off_the_order(ast.parse(probe))) == [
        ("SiltingWorkspace.mutate_left", 7), ("helper", 9)]
    path = ROOT / "src" / "silt" / "silting.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    assert list(_rows_rigid_off_the_order(tree)) == []
    # the rule is not vacuous: both scopes make the call
    assert {scope for scope, call in _scoped_calls(tree)
            if _called(call, "_rows_rigid")} == set(ROWS_RIGID_SCOPES)


def _loop_calls(node, scope=(), loops=()):
    # (enclosing class and function names, kinds of the enclosing loops of
    # that function, outermost first, call) for every call under ``node``;
    # a loop's header counts as inside it
    for child in ast.iter_child_nodes(node):
        inner, around = scope, loops
        if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            inner, around = scope + (child.name,), ()
        elif isinstance(child, (ast.For, ast.While)):
            around = loops + (type(child).__name__,)
        if isinstance(child, ast.Call):
            yield inner, around, child
        yield from _loop_calls(child, inner, around)


def _mutations_off_the_wave_loop(tree):
    # perfbench times each request by wrapping ``SiltingWorkspace.mutate_left``,
    # so ``explore`` makes one call per attempt, in the loop over summand
    # positions of the loop over the wave's nodes of the loop over waves;
    # a second call there, or one anywhere else, is off the rule
    seen = 0
    for scope, loops, call in _loop_calls(tree):
        if not _called(call, "mutate_left"):
            continue
        at_attempt = scope == ("explore",) and loops == ("While", "For", "For")
        seen += at_attempt
        if not at_attempt or seen > 1:
            yield ".".join(scope), loops, call.lineno


def test_explore_mutates_once_per_attempt():
    probe = ("def explore(ws, nodes, frontier):\n"
             "    ws.mutate_left(nodes[0], 0)\n"
             "    while frontier:\n"
             "        for src in frontier:\n"
             "            for at in range(3):\n"
             "                cand = ws.mutate_left(nodes[src], at)\n"
             "                again = ws.mutate_left(cand, at)\n"
             "            ws.mutate_left(nodes[src], 0)\n"
             "def warm(ws, pair):\n"
             "    for at in range(3):\n"
             "        ws.mutate_left(pair, at)\n")
    assert list(_mutations_off_the_wave_loop(ast.parse(probe))) == [
        ("explore", (), 2), ("explore", ("While", "For", "For"), 7),
        ("explore", ("While", "For"), 8), ("warm", ("For",), 11)]
    found, calls = [], 0
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{line} in {where}"
                  for where, _, line in _mutations_off_the_wave_loop(tree)]
        calls += sum(_called(call, "mutate_left") for _, call in _scoped_calls(tree))
    assert found == []
    assert calls == 1       # the rule is not vacuous: explore makes the call


def _hom_entries_outside_shift_hom_basis(tree):
    # the shifted-Hom matrix is built in ``shift_hom_basis`` alone; the
    # silting order and both completions read it from there
    for scope, call in _scoped_calls(tree):
        if _called(call, "_hom_entries") and scope != ("shift_hom_basis",):
            yield ".".join(scope), call.lineno


def test_shift_hom_matrix_built_once():
    probe = ("def shift_hom_basis(p, q):\n"
             "    return _hom_entries(a, q.rows, p.cols)\n"
             "def bongartz_completion(t):\n"
             "    return _hom_entries(a, (0,), t.cols)\n"
             "def helper():\n"
             "    def inner():\n"
             "        return tt._hom_entries(a, (), ())\n")
    assert list(_hom_entries_outside_shift_hom_basis(ast.parse(probe))) == [
        ("bongartz_completion", 4), ("helper.inner", 7)]
    path = ROOT / "src" / "silt" / "twoterm.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    assert list(_hom_entries_outside_shift_hom_basis(tree)) == []
    assert sum(_called(call, "_hom_entries") for _, call in _scoped_calls(tree)) == 3


def _shift_hom_outside_the_table(tree):
    # the registry fills each module's rigidity row and column when it files
    # the module, and the presilting gate memoises its component pairs; no
    # other path in silting.py decides a shifted Hom, so no lazy per-entry
    # route comes back
    for scope, call in _scoped_calls(tree):
        if _called(call, "hom_shift_vanishes") and scope not in (
                ("Registry", "_vanishes"), ("Registry", "_onto")):
            yield ".".join(scope), call.lineno


def test_shift_hom_only_in_the_registry_table():
    probe = ("class Registry:\n"
             "    def _vanishes(self, i, j):\n"
             "        return tt.hom_shift_vanishes(p, q)\n"
             "    def _onto(self, a, b):\n"
             "        return tt.hom_shift_vanishes(a, b)\n"
             "class SiltingWorkspace:\n"
             "    def rigid(self, i, j):\n"
             "        return tt.hom_shift_vanishes(p, q)\n"
             "def _vanishes(i, j):\n"
             "    return hom_shift_vanishes(i, j)\n")
    assert list(_shift_hom_outside_the_table(ast.parse(probe))) == [
        ("SiltingWorkspace.rigid", 8), ("_vanishes", 10)]
    path = ROOT / "src" / "silt" / "silting.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    assert list(_shift_hom_outside_the_table(tree)) == []
    assert sum(_called(call, "hom_shift_vanishes") for _, call in _scoped_calls(tree)) == 2


HOM_SPACE_ROUTES = {"hom_basis": ("SiltingWorkspace", "hom"),
                    "yoneda_comps": ("SiltingWorkspace", "hom"),
                    "images_span": ("SiltingWorkspace", "mutate_left")}


def _hom_space_outside_its_route(tree):
    # silting.py reads every Hom space through SiltingWorkspace.hom, which
    # reads a zero space off the tops first and only then builds the Yoneda
    # maps out of a projective or runs hom_basis, and runs the Fac test in
    # mutate_left alone, after the tops test; no Hom space skips the tops
    for scope, call in _scoped_calls(tree):
        for name, route in HOM_SPACE_ROUTES.items():
            if _called(call, name) and scope != route:
                yield f"{name} in {'.'.join(scope)}", call.lineno


def test_hom_spaces_read_through_the_tops():
    probe = ("class SiltingWorkspace:\n"
             "    def hom(self, i, j):\n"
             "        return rm.hom_basis(a, b)\n"
             "    def mutate_left(self, pair, at):\n"
             "        return rm.images_span(self.hom(0, 1), x)\n"
             "    def left_minimal_approximation(self, x, targets):\n"
             "        return rm.hom_basis(a, b)\n"
             "def fac(u, x):\n"
             "    return images_span(hom_basis(u, x), x)\n"
             "def out_of_projective(v, m):\n"
             "    return rm.yoneda_comps(m, v, em.identity(m.dims[v]))\n")
    assert sorted(_hom_space_outside_its_route(ast.parse(probe))) == [
        ("hom_basis in SiltingWorkspace.left_minimal_approximation", 7),
        ("hom_basis in fac", 9), ("images_span in fac", 9),
        ("yoneda_comps in out_of_projective", 11)]
    path = ROOT / "src" / "silt" / "silting.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    assert list(_hom_space_outside_its_route(tree)) == []
    # the rule is not vacuous: each route makes its call once
    assert [sum(_called(call, name) for _, call in _scoped_calls(tree))
            for name in HOM_SPACE_ROUTES] == [1, 1, 1]


VERTEX_MASK_SCOPES = (("SiltingWorkspace", "_shifted"),
                      ("SiltingWorkspace", "validate_silting_pair"))
GONE_VERTEX_HELPERS = ("_check_vertices", "_stray_vertices")


def _reads_proj_part(call):
    # ``proj_part`` or ``<expr>.proj_part`` anywhere in the arguments
    return any(isinstance(n, ast.Name) and n.id == "proj_part"
               or isinstance(n, ast.Attribute) and n.attr == "proj_part"
               for arg in call.args for n in ast.walk(arg))


def _unchecked_vertex_masks(tree):
    # a shifted vertex at or above n sets a bit that no support meets, and a
    # negative one raises a bare "negative shift count"; so the bitset of a
    # ``proj_part`` is built in ``_shifted``, which refuses both by name, or
    # in ``validate_silting_pair``, which returns a "support" verdict
    # instead; the two helpers that checked apart from the bitset stay gone
    for scope, call in _scoped_calls(tree):
        where = ".".join(scope)
        if _called(call, "_bits") and _reads_proj_part(call) \
                and scope not in VERTEX_MASK_SCOPES:
            yield f"_bits in {where}", call.lineno
        name = next((n for n in GONE_VERTEX_HELPERS if _called(call, n)), None)
        if name:
            yield f"call {name} in {where}", call.lineno
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.name in GONE_VERTEX_HELPERS:
            yield f"def {node.name}", node.lineno


def test_shifted_vertex_masks_are_checked():
    probe = ("class SiltingWorkspace:\n"
             "    def _shifted(self, proj_part):\n"
             "        return _bits(proj_part)\n"
             "    def validate_silting_pair(self, pair):\n"
             "        return _bits(pair.proj_part)\n"
             "    def pair_leq(self, a, b):\n"
             "        return _bits(b.proj_part) & _bits(a.summands)\n"
             "    def mutate_left(self, pair, at):\n"
             "        self._check_vertices(pair.proj_part)\n"
             "        return _bits(tuple(pair.proj_part) + (at,))\n"
             "    def _stray_vertices(self, proj_part):\n"
             "        return _stray_vertices(proj_part)\n")
    assert sorted(_unchecked_vertex_masks(ast.parse(probe))) == [
        ("_bits in SiltingWorkspace.mutate_left", 10),
        ("_bits in SiltingWorkspace.pair_leq", 7),
        ("call _check_vertices in SiltingWorkspace.mutate_left", 9),
        ("call _stray_vertices in SiltingWorkspace._stray_vertices", 12),
        ("def _stray_vertices", 11)]
    path = ROOT / "src" / "silt" / "silting.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    assert list(_unchecked_vertex_masks(tree)) == []
    # the rule is not vacuous: both allowed scopes do build such a bitset
    assert {scope for scope, call in _scoped_calls(tree)
            if _called(call, "_bits") and _reads_proj_part(call)} == set(VERTEX_MASK_SCOPES)


MODULE_SIDE_RIGIDITY = ("hom_onto", "h0", "complex_repmap", "left_mult_matrix",
                        "elem_matrix")


def _module_side_rigidity(tree):
    # the rigidity table, the presilting gate, the silting order and both
    # completions read Hom(A, B[1]) off shift_hom_basis; the H^0 route that
    # decides the same space on the module side lives in tests/oracles.py
    for scope, call in _scoped_calls(tree):
        name = next((n for n in MODULE_SIDE_RIGIDITY if _called(call, n)), None)
        if name:
            yield f"call {name} in {'.'.join(scope)}", call.lineno
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.name in MODULE_SIDE_RIGIDITY:
            yield f"def {node.name}", node.lineno


def test_h0_callers():
    probe = ("def is_presilting(p):\n"
             "    return hom_onto(p, h0(p))\n"
             "class Registry:\n"
             "    def _onto(self, a, b):\n"
             "        return tt.h0(b)\n"
             "def hom_onto(pres, m):\n"
             "    return rm.elem_matrix(m, pres.d[0][0])\n"
             "def shift_hom_basis(p, q):\n"
             "    return _hom_entries(a, q.rows, p.cols)\n")
    assert sorted(_module_side_rigidity(ast.parse(probe))) == [
        ("call elem_matrix in hom_onto", 7), ("call h0 in Registry._onto", 5),
        ("call h0 in is_presilting", 2), ("call hom_onto in is_presilting", 2),
        ("def hom_onto", 6)]
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{line} {what}" for what, line in _module_side_rigidity(tree)]
    assert found == []


def _imported_modules(tree):
    # the last dotted part of each imported module, and the names taken
    # from a package (``from . import repmod``)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module:
                yield node.module.rpartition(".")[2]
            if node.module in (None, "silt"):
                yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from (alias.name.rpartition(".")[2] for alias in node.names)


def test_twoterm_imports_no_repmod():
    # complexes decide rigidity without representations, so repmod may
    # import twoterm at module level with no cycle
    probe = ("from . import exactmat as em\nfrom . import repmod as rm\n"
             "from .repmod import Rep\nimport silt.repmod\nfrom .algebra import Quiver\n")
    assert list(_imported_modules(ast.parse(probe))) == [
        "exactmat", "repmod", "repmod", "repmod", "algebra"]
    path = ROOT / "src" / "silt" / "twoterm.py"
    assert "repmod" not in set(_imported_modules(ast.parse(path.read_text())))


REFERENCE_ONLY = ("identity_map", "zero_rep", "module_rep", "zero_pair", "path_elem",
                  "asmat", "top", "left_kernel_basis", "summand_dims", "_kron")


def _reference_only(tree):
    # names only tests use live in tests/, a presentation reads the tops it
    # needs off arrow matrices, with no quotient module, and hom_basis sets
    # its commuting squares from nonzeros, with no Kronecker product
    for scope, call in _scoped_calls(tree):
        name = next((n for n in REFERENCE_ONLY if _called(call, n)), None)
        if name:
            yield f"call {name} in {'.'.join(scope)}", call.lineno
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.name in REFERENCE_ONLY:
            yield f"def {node.name}", node.lineno


def test_reference_only_code_out_of_src():
    probe = ("def top(m):\n"
             "    return m\n"
             "class SiltingWorkspace:\n"
             "    def zero_pair(self):\n"
             "        return self.make_pair((), ())\n"
             "def cover(m):\n"
             "    t, pi = top(m)\n"
             "    return em.asmat(alg.path_elem(0, ()), 5)\n"
             "def _top_sections(m):\n"
             "    return rm.top_of(m)\n")
    assert sorted(_reference_only(ast.parse(probe))) == [
        ("call asmat in cover", 8), ("call path_elem in cover", 8), ("call top in cover", 7),
        ("def top", 1), ("def zero_pair", 4)]
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{line} {what}" for what, line in _reference_only(tree)]
    assert found == []


def test_every_file_parses_as_python_3_10():
    # the package supports Python 3.10, and the only 3.10 run is a CI job;
    # syntax newer than 3.10, such as ``except*``, fails here on any host
    probe = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    with pytest.raises(SyntaxError):
        ast.parse(probe, feature_version=(3, 10))
    paths = sorted(path for top in ("src", "tests", "perfbench")
                   for path in (ROOT / top).rglob("*.py"))
    assert len(paths) > 25
    for path in paths:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
