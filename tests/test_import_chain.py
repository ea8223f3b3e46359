"""The package's modules import one another along one chain, never back up it."""

import ast
from pathlib import Path

import roi_auction

#: each module's place; a module imports only from modules at a lower place, and
#: allocation and distributions share one, since neither imports the other
CHAIN = {
    "errors": 0,
    "numerics": 1,
    "allocation": 2,
    "distributions": 2,
    "payments": 3,
    "revenue": 4,
    "optimal": 5,
    "audit": 6,
    "cli": 7,
    "__init__": 8,
}


def _module_level_imports(path: Path) -> list[str]:
    """Modules named by the file's top-level ``from .x import`` statements.

    Imports inside functions are not counted: ``revenue.compare`` imports
    ``optimal`` when it is called, and stays there because callers find
    ``compare`` on ``revenue`` by name. Such an import makes no cycle at load time.
    """
    names = []
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names += [node.module] if node.module else [a.name for a in node.names]
    return names


def test_module_level_imports_follow_the_chain():
    files = sorted(Path(roi_auction.__file__).parent.glob("*.py"))
    assert sorted(f.stem for f in files) == sorted(CHAIN)
    backwards = [
        f"{f.stem} imports {name}"
        for f in files
        for name in _module_level_imports(f)
        if CHAIN[name] >= CHAIN[f.stem]
    ]
    assert backwards == []
