"""Static checks of the package source, with the standard library only.

No linter is a dependency, so ``ast`` makes the three checks that catch what
a refactor leaves behind: an import that nothing in its module uses, a
private module-level name that nothing in the package refers to, and a
public function that no other code in the package refers to, which only
tests would call; the few allowed are the benchmark's layers, which its
runner names.  An import kept on purpose carries ``# noqa: F401`` on its
line, and is no reference to what it imports.  A fourth parses every module
with the grammar of the oldest Python that ``pyproject.toml`` declares, as
the suite itself runs on one version only, a fifth bounds the length of
every line, and a sixth finds the function, class or module that each
``:func:``, ``:class:`` or ``:mod:`` cross-reference names, as a deleted
function leaves stale references behind.  A seventh finds a ``print`` call
or a ``sys.stdout`` or ``sys.stderr`` outside ``cli``: the other modules
compose, and only the command line writes to the process's streams.  An
eighth finds an import of ``mmap`` or a use of ``os.fork`` outside
``_pool``, which alone starts processes and makes the memory they share.
"""

import ast
import re
from pathlib import Path

import pytest

import mvcreg

SOURCES = sorted(Path(mvcreg.__file__).parent.glob("*.py"))
PYPROJECT = Path(mvcreg.__file__).parents[2] / "pyproject.toml"
BENCHMARK_RUNNER = Path(mvcreg.__file__).parents[2] / "perfbench" / "run.py"

#: public functions that nothing in the package calls, kept for the benchmark
UNCALLED_PUBLIC = {
    "dataio.parse_csv_text",  # in perfbench/run.py LAYER_FUNCTIONS until ROADMAP item 1
    "dataio.render_csv",  # in perfbench/run.py LAYER_FUNCTIONS until ROADMAP item 1
    "simgen.generate",  # in perfbench/run.py LAYER_FUNCTIONS until ROADMAP item 1
    "moments.weighted_fourth_moment",  # in perfbench/run.py LAYER_FUNCTIONS until ROADMAP item 1
}

#: the one module that writes to the process's streams
STREAM_WRITER = "cli.py"

#: the one module that forks and makes shared mappings
PROCESS_MAKER = "_pool.py"

#: the most characters a source line may hold
MAX_LINE = 99

#: a cross-reference: its role and its target, less a leading ``~``
REFERENCE = re.compile(r":(func|class|mod):`~?([\w.]+)`")


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _references(tree: ast.AST) -> set[str]:
    """Every name the code reads, attribute it reads, or name it imports from elsewhere."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
    return found


def _references_elsewhere(path: Path) -> set[str]:
    """``_references`` of the module at ``path``, less a module-level
    function's calls of itself and the imports marked ``# noqa: F401``."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    found = set()
    for top in ast.parse(source, filename=str(path)).body:
        if isinstance(top, ast.ImportFrom) and "# noqa: F401" in lines[top.end_lineno - 1]:
            continue
        names = _references(top)
        if isinstance(top, ast.FunctionDef):
            names.discard(top.name)
        found |= names
    return found


def _unreferenced_public_functions(paths: list[Path]) -> list[str]:
    referenced = set().union(*map(_references_elsewhere, paths))
    return [
        f"{path.stem}.{node.name}"
        for path in paths
        for node in _parse(path).body
        if isinstance(node, ast.FunctionDef)
        and not node.name.startswith("_")
        and node.name not in referenced
    ]


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


def _long_lines(path: Path) -> list[str]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return [
        f"{path.name}:{number}: {len(line)} characters"
        for number, line in enumerate(lines, 1)
        if len(line) > MAX_LINE
    ]


def _unresolved_references(paths: list[Path]) -> list[str]:
    """Each cross-reference whose target is no module-level function or class
    of the modules at ``paths`` (its own module when unqualified, else
    ``mvcreg.<module>.<name>``), nor, under ``:mod:``, ``mvcreg.<module>``."""
    defined = {
        (path.stem, node.name, "class" if isinstance(node, ast.ClassDef) else "func")
        for path in paths
        for node in _parse(path).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    modules = {path.stem for path in paths}
    unresolved = []
    for path in paths:
        text = path.read_text(encoding="utf-8")
        for match in REFERENCE.finditer(text):
            role, target = match.groups()
            prefix, _, name = target.rpartition(".")
            if role == "mod":
                found = prefix == "mvcreg" and name in modules
            else:
                module = prefix.removeprefix("mvcreg.") if prefix else path.stem
                found = prefix in ("", f"mvcreg.{module}") and (module, name, role) in defined
            if not found:
                line = text.count("\n", 0, match.start()) + 1
                unresolved.append(f"{path.name}:{line}: {match[0]}")
    return unresolved


def _stream_writes(path: Path) -> list[str]:
    """Each ``print`` call, and each ``stdout`` or ``stderr`` of ``sys`` that
    the module at ``path`` names, as an attribute or an import."""
    found = []
    for node in ast.walk(_parse(path)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            names = [node.func.id] if node.func.id == "print" else []
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            names = [f"sys.{node.attr}"] if node.value.id == "sys" else []
        elif isinstance(node, ast.ImportFrom) and node.module == "sys":
            names = [f"sys.{alias.name}" for alias in node.names]
        else:
            continue
        found += [
            f"{path.name}:{node.lineno}: {name}"
            for name in names
            if name in ("print", "sys.stdout", "sys.stderr")
        ]
    return found


def _process_calls(path: Path) -> list[str]:
    """Each import of ``mmap``, and each ``fork`` of ``os`` that the module at
    ``path`` names, as an attribute or an import."""
    found = []
    for node in ast.walk(_parse(path)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names if alias.name == "mmap"]
        elif isinstance(node, ast.ImportFrom):
            if node.module == "mmap":
                names = ["mmap"]
            else:
                fork = node.module == "os" and any(a.name == "fork" for a in node.names)
                names = ["os.fork"] if fork else []
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            names = ["os.fork"] if (node.value.id, node.attr) == ("os", "fork") else []
        else:
            continue
        found += [f"{path.name}:{node.lineno}: {name}" for name in names]
    return found


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


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_line_over_the_limit(path):
    assert _long_lines(path) == []


def test_every_cross_reference_resolves():
    assert _unresolved_references(SOURCES) == []


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


def test_only_the_cli_writes_to_the_streams():
    assert STREAM_WRITER in {path.name for path in SOURCES}
    writes = [line for path in SOURCES if path.name != STREAM_WRITER for line in _stream_writes(path)]
    assert writes == []


def test_only_the_pool_forks_and_maps_memory():
    assert _process_calls(Path(mvcreg.__file__).parent / PROCESS_MAKER) != []
    calls = [line for path in SOURCES if path.name != PROCESS_MAKER for line in _process_calls(path)]
    assert calls == []


def test_every_public_function_is_referenced():
    assert sorted(_unreferenced_public_functions(SOURCES)) == sorted(UNCALLED_PUBLIC)


def test_uncalled_public_functions_are_benchmark_layers():
    # the allowlist's one reason: the benchmark reports these layers by name
    (layers,) = [
        ast.literal_eval(node.value)
        for node in _parse(BENCHMARK_RUNNER).body
        if isinstance(node, ast.Assign)
        and [target.id for target in node.targets if isinstance(target, ast.Name)]
        == ["LAYER_FUNCTIONS"]
    ]
    assert UNCALLED_PUBLIC <= set(layers)


def test_sources_parse_on_the_declared_python_minimum():
    # ast takes an older grammar when asked: 3.10 has no except*
    with pytest.raises(SyntaxError, match="3.11"):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
    text = PYPROJECT.read_text(encoding="utf-8")
    match = re.search(r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)', text, re.MULTILINE)
    assert match, "pyproject.toml declares no requires-python minimum"
    minimum = int(match[1]), int(match[2])
    assert SOURCES
    for path in SOURCES:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=minimum)


def test_checks_find_what_they_look_for(tmp_path):
    # the checks themselves: an unused import, an honoured noqa, a private
    # helper nothing calls, and public functions that only call themselves
    # or are imported under noqa
    source, other = tmp_path / "sample.py", tmp_path / "other.py"
    source.write_text(
        "import os\n"
        "import sys  # noqa: F401\n"
        "from json import dumps, loads\n"
        "_LIMIT = 3\n"
        "def _helper():\n"
        "    return loads\n"
        "def _unused():\n"
        "    return _LIMIT\n"
        "def recursive(n):\n"
        "    return recursive(n - 1)\n"
        "def imported():\n"
        "    return None\n"
        "def called():\n"
        "    return None\n"
    )
    other.write_text("from sample import imported  # noqa: F401\nfrom sample import called\n")
    assert _unreferenced_public_functions([other, source]) == [
        "sample.recursive",
        "sample.imported",
    ]
    assert _unused_imports(source) == ["sample.py:1: os", "sample.py:3: dumps"]
    tree = _parse(source)
    private = [name for _, name in _private_definitions(tree)]
    assert [name for name in private if name not in _references(tree)] == [
        "_helper",
        "_unused",
    ]
    assert _long_lines(source) == []
    source.write_text("x = 1\n" + "#" * MAX_LINE + "\n" + "#" * (MAX_LINE + 1) + "\n")
    assert _long_lines(source) == [f"sample.py:3: {MAX_LINE + 1} characters"]
    # an unqualified target names its own module's function or class, a
    # qualified one that of the module it names
    source.write_text(
        '"""Uses :func:`helper`, :func:`~mvcreg.other.gone`, :mod:`mvcreg.other`\n'
        'and :class:`Thing`."""\n'
        "def helper():\n"
        "    return None\n"
    )
    other.write_text(
        '"""See :func:`mvcreg.sample.helper`, :mod:`mvcreg.gone` and :func:`helper`."""\n'
        "class Thing:\n"
        "    pass\n"
    )
    assert _unresolved_references([source, other]) == [
        "sample.py:1: :func:`~mvcreg.other.gone`",
        "sample.py:2: :class:`Thing`",
        "other.py:1: :mod:`mvcreg.gone`",
        "other.py:1: :func:`helper`",
    ]
    # a print, the streams by attribute and by import; not sys.argv, a
    # method named print, or a stream someone passes in
    source.write_text(
        "import sys\n"
        "from sys import argv, stderr\n"
        "def report(fh, log):\n"
        "    print('done')\n"
        "    sys.stdout.write(sys.argv[0])\n"
        "    log.print(stderr)\n"
        "    fh.write('ok')\n"
    )
    assert _stream_writes(source) == [
        "sample.py:2: sys.stderr",
        "sample.py:4: print",
        "sample.py:5: sys.stdout",
    ]
    # mmap imported either way, os.fork by attribute and by import; not
    # another name of os, or a fork method of something else
    source.write_text(
        "import os, mmap\n"
        "from mmap import mmap as shared\n"
        "from os import fork, getpid\n"
        "def start(pool):\n"
        "    pool.fork(os.getpid())\n"
        "    return os.fork()\n"
    )
    assert _process_calls(source) == [
        "sample.py:1: mmap",
        "sample.py:2: mmap",
        "sample.py:3: os.fork",
        "sample.py:6: os.fork",
    ]
