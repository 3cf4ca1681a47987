"""Every name imported in ``src/`` and ``tests/`` is used or re-exported."""

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
