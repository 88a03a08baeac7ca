"""Source checks: the package's own files, and the names perfbench wraps."""

import ast
import importlib
import importlib.util
from pathlib import Path

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
