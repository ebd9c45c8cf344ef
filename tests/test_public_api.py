"""No public API that only tests call.

Every public top-level function or class of ``src/nlcsim`` (``__init__.py``
aside) must be referenced somewhere other than the tests: as a name or an
attribute in the package, or as a name, an attribute or an exact string
constant in ``bench/`` (``bench/tracer.py`` binds the names it wraps by
string).  A helper that only tests call belongs in ``tests/oracle.py``;
the check has no exceptions.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _trees(pattern: str) -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text()) for p in sorted(ROOT.glob(pattern)) if p.name != "__init__.py"}


def _references(trees, strings: bool) -> set[str]:
    out = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
                out.add(node.value)
    return out


def _public_definitions() -> dict[str, str]:
    """Public top-level function or class name -> its module."""
    return {
        node.name: module
        for module, tree in _trees("src/nlcsim/*.py").items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }


def _used() -> set[str]:
    return _references(_trees("src/nlcsim/*.py").values(), False) | _references(_trees("bench/*.py").values(), True)


def test_every_public_definition_is_used_outside_the_tests():
    used = _used()
    unused = sorted(f"{module}.{name}" for name, module in _public_definitions().items() if name not in used)
    assert unused == []
