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


def _coeffs_writes(tree):
    # ``x.coeffs[k] = ...``, ``del x.coeffs[k]`` and ``x.coeffs.update(...)``
    # or another in-place dict method, for any expression ``x``
    mutators = {"update", "pop", "popitem", "clear", "setdefault"}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del))
                and isinstance(node.value, ast.Attribute) and node.value.attr == "coeffs"):
            yield node.lineno
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in mutators
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


def _scoped_calls(node, scope=()):
    # (enclosing class and function names, call) for every call under ``node``
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = scope + (child.name,)
        if isinstance(child, ast.Call):
            yield inner, child
        yield from _scoped_calls(child, inner)


def _unvalidated_record_cone_calls(tree):
    # a recorded cone answers later ``decompose`` calls by its g-vectors, so
    # ``record_cone`` runs only in ``Registry.__init__`` (Lambda, Lambda[1])
    # and in ``SiltingWorkspace.mutate_left`` after ``validate_silting_pair``
    calls = list(_scoped_calls(tree))
    for scope, call in calls:
        if not _called(call, "record_cone"):
            continue
        where = ".".join(scope)
        if where == "Registry.__init__":
            continue
        if where == "SiltingWorkspace.mutate_left" and any(
                s == scope and _called(c, "validate_silting_pair") and c.lineno < call.lineno
                for s, c in calls):
            continue
        yield where, call.lineno


def test_record_cone_callers():
    probe = ("class Registry:\n"
             "    def __init__(self):\n"
             "        self.record_cone((), ())\n"
             "class SiltingWorkspace:\n"
             "    def mutate_left(self, pair):\n"
             "        self.registry.record_cone(pair, ())\n"
             "        valid = self.validate_silting_pair(pair)\n"
             "        self.registry.record_cone(pair, ())\n"
             "    def mutate_right(self, pair):\n"
             "        self.registry.record_cone(pair, ())\n"
             "def free(reg):\n"
             "    record_cone(reg)\n")
    assert list(_unvalidated_record_cone_calls(ast.parse(probe))) == [
        ("SiltingWorkspace.mutate_left", 6), ("SiltingWorkspace.mutate_right", 10),
        ("free", 12)]
    found, allowed = [], 0
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{line} in {where}"
                  for where, line in _unvalidated_record_cone_calls(tree)]
        allowed += sum(_called(call, "record_cone") for _, call in _scoped_calls(tree))
    assert found == []
    assert allowed == 3     # Lambda and Lambda[1], then each mutation result


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
