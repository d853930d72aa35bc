"""Every module-level import in src/ and tests/ is read somewhere in its file.

No linter ships with the test extra, so this stands in for the one rule
that has needed mending by hand: an import left behind after the code
that used it moved.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").glob("*.py")])


def unread_imports(source: str) -> list[str]:
    """Names bound by the module's top-level imports that nothing loads.

    A name listed in ``__all__`` counts as read: it is a re-export.
    """
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in bound.items() if name not in read]


@pytest.mark.parametrize("path", FILES, ids=[str(p.relative_to(ROOT)) for p in FILES])
def test_no_unread_module_imports(path):
    assert unread_imports(path.read_text()) == []


def test_an_unread_import_is_found():
    source = "import os\nimport numpy as np\nfrom math import pi, tau\n__all__ = ['tau']\nnp.zeros(pi)\n"
    assert unread_imports(source) == ["line 1: os"]
