"""The package carries no unused names.

AST walks stand in for a linter.  Every name a module of the package
imports is read somewhere in that module; ``__future__`` imports, the
package's re-exports in ``__init__`` and names listed in ``__all__`` are
exempt.  And every private module-level function, class or constant is
referenced somewhere in the package beyond its own definition; dunders
are exempt.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "logschro"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}  # bound name -> line
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"), ids=lambda p: p.name
)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_checker_flags_an_unused_import():
    source = "import json\nimport math\nfrom os import path, sep\n__all__ = ['sep']\nmath.pi\n"
    assert unused_imports(source) == ["json (line 1)", "path (line 3)"]


def _references(node: ast.AST) -> Counter:
    """How often each name is read under ``node``: loaded names, attribute
    names and names imported from a module."""
    refs = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            refs[n.id] += 1
        elif isinstance(n, ast.Attribute):
            refs[n.attr] += 1
        elif isinstance(n, ast.ImportFrom):
            refs.update(alias.name for alias in n.names)
    return refs


def unreferenced_privates(sources: dict[str, str]) -> list[str]:
    """Private module-level names of ``{module: source}`` read nowhere but
    in their own definition."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    refs = sum((_references(tree) for tree in trees.values()), Counter())
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            own = _references(node)
            for name in names:
                dunder = name.startswith("__") and name.endswith("__")
                if name.startswith("_") and not dunder and refs[name] == own[name]:
                    unused.append(f"{module}: {name} (line {node.lineno})")
    return sorted(unused)


def test_every_private_name_is_referenced():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert unreferenced_privates(sources) == []


def test_checker_flags_an_unreferenced_private_name():
    sources = {
        "a.py": (
            "__version__ = '1'\n"
            "_LIMIT = 3\n"
            "_UNUSED: int = 4\n"
            "def _helper(x):\n    return _helper(x - 1) if x else _LIMIT\n"
            "class _Kept:\n    pass\n"
            "def public():\n    return _Kept()\n"
        ),
        "b.py": "from .a import _imported\nimport a\na._attr\n",
        "c.py": "def _imported():\n    pass\n_attr = 1\n_a, _b = 1, 2\nprint(_b)\n",
    }
    assert unreferenced_privates(sources) == [
        "a.py: _UNUSED (line 3)",
        "a.py: _helper (line 4)",
        "c.py: _a (line 4)",
    ]
