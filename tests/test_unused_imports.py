"""Every name imported in ``src/`` and ``tests/`` is used or re-exported;
every private module-level definition, every method of a module-level
private class with no base class, and every public module-level
``UPPER_CASE`` constant in ``src/`` is referenced somewhere; and every
public module-level function in ``src/`` that its module's ``__all__`` does
not list is read in ``src/`` itself."""

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    exported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return [
        f"{path.relative_to(REPO)}:{line}: {name}"
        for name, line in imported.items()
        if name not in used and name not in exported
    ]


def test_no_unused_imports():
    files = sorted((REPO / "src").rglob("*.py")) + sorted((REPO / "tests").rglob("*.py"))
    assert files
    unused = [entry for path in files for entry in _unused_imports(path)]
    assert unused == []


def _private_definitions(path: Path) -> list[tuple[str, int]]:
    """Module-level ``_``-prefixed functions, classes and constants of ``path``,
    its public ``UPPER_CASE`` constants, and the methods (dunders aside) of
    its ``_``-prefixed classes with no base class, which override nothing."""
    found = []
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        found += [(name, node.lineno) for name in names
                  if name.startswith("_") and not name.startswith("__")
                  or not isinstance(node, (ast.FunctionDef, ast.ClassDef)) and name.isupper()]
        if isinstance(node, ast.ClassDef) and node.name.startswith("_") and not node.bases:
            found += [(f.name, f.lineno) for f in node.body
                      if isinstance(f, ast.FunctionDef) and not f.name.startswith("__")]
    return found


def _unexported_functions(path: Path) -> list[tuple[str, int]]:
    """Public module-level functions of ``path`` that its ``__all__`` does not list."""
    body = ast.parse(path.read_text(), filename=str(path)).body
    exported = {e.value for node in body if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                for e in node.value.elts}
    return [(node.name, node.lineno) for node in body if isinstance(node, ast.FunctionDef)
            and not node.name.startswith("_") and node.name not in exported]


def _referenced_names(path: Path) -> set[str]:
    """Names ``path`` reads, as a bare name, an attribute or an imported name."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_no_dead_private_definitions():
    sources = sorted((REPO / "src").rglob("*.py"))
    readers = [path for top in ("src", "tests", "perfbench") for path in sorted((REPO / top).rglob("*.py"))]
    referenced = set().union(*(_referenced_names(path) for path in readers))
    in_src = set().union(*(_referenced_names(path) for path in sources))
    dead = [
        f"{path.relative_to(REPO)}:{line}: {name}"
        for path in sources
        for names, seen in ((_private_definitions(path), referenced), (_unexported_functions(path), in_src))
        for name, line in names
        if name not in seen
    ]
    assert dead == []
