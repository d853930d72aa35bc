"""Every module-level import in src/ and tests/ is read somewhere in its file,
no module in src/ imports another's private names, and every arrayshadow
name the benchmark imports or reads still resolves.

No linter ships with the test extra, so this stands in for the one rule
that has needed mending by hand: an import left behind after the code
that used it moved. The benchmark check fails here, before a library
move fails every benchmark operation.
"""

import ast
import importlib
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


SRC_FILES = sorted((ROOT / "src").rglob("*.py"))


def private_imports(source: str) -> list[str]:
    """Underscore names that ``source`` imports from arrayshadow modules; dunders are public."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").partition(".")[0] == "arrayshadow"
        ):
            found += [f"line {node.lineno}: {alias.name}" for alias in node.names
                      if alias.name.startswith("_") and not alias.name.endswith("__")]
    return found


@pytest.mark.parametrize("path", SRC_FILES, ids=[str(p.relative_to(ROOT)) for p in SRC_FILES])
def test_no_module_imports_another_modules_private_names(path):
    assert private_imports(path.read_text()) == []


def test_a_private_import_is_found():
    source = ("from . import __version__\nfrom .em_model import _BLOCK, DEFAULT_REL_TOL\n"
              "from arrayshadow.geometry import _count\nfrom os import _exit\n"
              "def f():\n    from .runner import _quoted\n")
    assert private_imports(source) == ["line 2: _BLOCK", "line 3: _count", "line 6: _quoted"]


BENCH_FILES = sorted((ROOT / "benchmarks").glob("*.py"))


def arrayshadow_names(source: str) -> list[str]:
    """Dotted arrayshadow names that ``source`` imports, or reads from what it imported.

    Code in a string constant, such as a script handed to a child
    interpreter, counts too.
    """
    trees = [ast.parse(source)]
    trees += [
        ast.parse(node.value) for node in ast.walk(trees[0])
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and "arrayshadow" in node.value and _parses(node.value)
    ]
    names = []
    for tree in trees:
        bound = {}  # local name -> the dotted name it stands for
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.partition(".")[0] == "arrayshadow":
                        names.append(alias.name)
                        local = alias.asname or "arrayshadow"
                        bound[local] = alias.name if alias.asname else "arrayshadow"
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("arrayshadow"):
                for alias in node.names:
                    names.append(f"{node.module}.{alias.name}")
                    bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        for node in ast.walk(tree):
            attrs = []
            while isinstance(node, ast.Attribute):
                attrs.insert(0, node.attr)
                node = node.value
            if attrs and isinstance(node, ast.Name) and node.id in bound:
                names.append(".".join([bound[node.id], *attrs]))
    return names


def _parses(text: str) -> bool:
    try:
        ast.parse(text)
    except SyntaxError:
        return False
    return True


def resolves(dotted: str) -> bool:
    """Whether every part of ``dotted`` is a module or an attribute of the part before."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], start=2):
        if not hasattr(obj, part):
            try:
                importlib.import_module(".".join(parts[:i]))
            except ModuleNotFoundError:
                return False
        obj = getattr(obj, part)
    return True


@pytest.mark.parametrize("path", BENCH_FILES, ids=[p.name for p in BENCH_FILES])
def test_benchmark_reads_only_names_that_resolve(path):
    assert [n for n in arrayshadow_names(path.read_text()) if not resolves(n)] == []


def test_benchmark_names_are_found():
    names = set()
    for path in BENCH_FILES:
        names.update(arrayshadow_names(path.read_text()))
    assert {
        "arrayshadow.array_model.array_factor_closed_form",
        "arrayshadow.runner.export",
        "arrayshadow.cli.main",
        "arrayshadow.runner.load_scenario",  # in a script string
    } <= names


def test_an_unresolved_name_is_found():
    source = (
        "import arrayshadow.cli\nfrom arrayshadow import array_model as am\n"
        "arrayshadow.cli.main\nam.array_factor\nam.gone\n"
        "'from arrayshadow.runner import missing'\n"
    )
    names = arrayshadow_names(source)
    assert [n for n in names if not resolves(n)] == [
        "arrayshadow.array_model.gone", "arrayshadow.runner.missing",
    ]
