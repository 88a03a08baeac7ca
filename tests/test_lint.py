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
