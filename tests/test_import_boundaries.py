"""Which modules load what at import time: numpy only where a grid or a
sample is made, and the CLI only what every command shares."""

import ast
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "gbcbound"


def _module_level_imports(path: Path) -> list[tuple[str, int]]:
    """(module, line) of each import statement in the body of ``path``,
    outside any function or class; a relative import keeps its leading dots,
    and ``from . import x`` reads as ``.x``."""
    found = []
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, ast.Import):
            found += [(alias.name, node.lineno) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            names = [base + alias.name for alias in node.names] if node.module is None else [base]
            found += [(name, node.lineno) for name in names]
    return found


def test_numpy_is_imported_at_module_level_only_by_the_grid_and_sample_modules():
    importers = sorted(path.name for path in SRC.rglob("*.py")
                       if any(name.split(".")[0] == "numpy" for name, _ in _module_level_imports(path)))
    assert importers == ["_search.py", "simulate.py"]


def test_cli_imports_only_what_every_command_shares():
    """``cli`` loads the standard library, ``bound``, ``core``, ``errors`` and
    the version at import; each command's own module loads in its handler."""
    allowed = {".bound", ".core", ".errors", ".__version__"}
    extra = [f"cli.py:{line}: {name}" for name, line in _module_level_imports(SRC / "cli.py")
             if name not in allowed and name.split(".")[0] not in sys.stdlib_module_names]
    assert extra == []


def test_no_module_imports_the_search_at_module_level():
    """``_search`` loads numpy, so a module that searches imports it inside
    the function that does: the K = 2 and b <= 1 paths never load it, even
    where they share code with the search."""
    found = [f"{path.name}:{line}: {name}" for path in SRC.rglob("*.py")
             for name, line in _module_level_imports(path) if name in ("._search", "gbcbound._search")]
    assert found == []
