"""Static checks of the package source, with the standard library only.

No linter is a dependency, so ``ast`` makes the two checks that catch what a
refactor leaves behind: an import that nothing in its module uses, and a
private module-level name that nothing in the package refers to.  An import
kept on purpose carries ``# noqa: F401`` on its line.
"""

import ast
from pathlib import Path

import pytest

import mvcreg

SOURCES = sorted(Path(mvcreg.__file__).parent.glob("*.py"))


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _references(tree: ast.Module) -> set[str]:
    """Every name the module reads, attribute it reads, or name it imports from elsewhere."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
    return found


def _unused_imports(path: Path) -> list[str]:
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    lines = source.splitlines()
    loaded = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if "# noqa: F401" in lines[node.end_lineno - 1]:
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in loaded:
                unused.append(f"{path.name}:{node.lineno}: {bound}")
    return unused


def _private_definitions(tree: ast.Module) -> list[tuple[int, str]]:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append((node.lineno, node.name))
        elif isinstance(node, ast.Assign):
            names += [(node.lineno, t.id) for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append((node.lineno, node.target.id))
    return [
        (line, name)
        for line, name in names
        if name.startswith("_") and not (name.startswith("__") and name.endswith("__"))
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_unused_import(path):
    assert _unused_imports(path) == []


def test_every_private_name_is_referenced():
    trees = {path.name: _parse(path) for path in SOURCES}
    referenced = set().union(*map(_references, trees.values()))
    unreferenced = [
        f"{name}:{line}: {private}"
        for name, tree in trees.items()
        for line, private in _private_definitions(tree)
        if private not in referenced
    ]
    assert unreferenced == []


def test_checks_find_what_they_look_for(tmp_path):
    # the checks themselves: an unused import, an honoured noqa, and a
    # private helper nothing calls
    source = tmp_path / "sample.py"
    source.write_text(
        "import os\n"
        "import sys  # noqa: F401\n"
        "from json import dumps, loads\n"
        "_LIMIT = 3\n"
        "def _helper():\n"
        "    return loads\n"
        "def _unused():\n"
        "    return _LIMIT\n"
    )
    assert _unused_imports(source) == ["sample.py:1: os", "sample.py:3: dumps"]
    tree = _parse(source)
    private = [name for _, name in _private_definitions(tree)]
    assert [name for name in private if name not in _references(tree)] == [
        "_helper",
        "_unused",
    ]
