"""Import hygiene of the package, checked with the standard library's `ast`:
every imported name is used, every `__all__` entry resolves, every defined
name is used somewhere, and the runtime needs nothing beyond the standard
library and numpy; fresh interpreters confirm that scipy is neither loaded
nor needed."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import smlbayes

MODULES = sorted(Path(smlbayes.__file__).parent.glob("*.py"))


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name a module binds by import, with the line it is imported on."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used(tree: ast.Module) -> set[str]:
    """Names a module reads, in code (annotations included) and in `__all__`."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used(tree)
    dead = [f"line {line}: {name}" for name, line in _imported(tree).items() if name not in used]
    assert not dead, f"{path.name} imports names it never uses: {dead}"


def test_every_export_resolves():
    assert len(set(smlbayes.__all__)) == len(smlbayes.__all__)
    missing = [name for name in smlbayes.__all__ if not hasattr(smlbayes, name)]
    assert not missing


def _top_level_imports(tree: ast.Module) -> dict[str, int]:
    """The top-level package of every absolute import, anywhere in the module."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names[node.module.partition(".")[0]] = node.lineno
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_runtime_imports_only_stdlib_and_numpy(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    allowed = sys.stdlib_module_names | {"numpy", "smlbayes"}
    foreign = [f"line {line}: {name}" for name, line in _top_level_imports(tree).items()
               if name not in allowed]
    assert not foreign, f"{path.name} imports outside the standard library and numpy: {foreign}"


SRC = Path(smlbayes.__file__).parent.parent
# where a definition under src/smlbayes may be used
REPO = Path(__file__).resolve().parent.parent
USE_ROOTS = (REPO / "src", REPO / "tests", REPO / "perfbench")


def _docstrings(tree: ast.Module) -> set[int]:
    """ids of the docstring nodes of a module and of its classes and functions."""
    ids = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                ids.add(id(first.value))
    return ids


def _mentions(tree: ast.Module) -> set[str]:
    """Every identifier a module mentions outside a definition's own name:
    read or bound names, attributes, imported names, keyword arguments, and
    the words of string constants other than docstrings (the benchmark's
    tracer names its targets in strings)."""
    skip = _docstrings(tree)
    words = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            words.add(node.id)
        elif isinstance(node, ast.Attribute):
            words.add(node.attr)
        elif isinstance(node, ast.alias):
            words.update(node.name.split("."))
        elif isinstance(node, ast.keyword) and node.arg:
            words.add(node.arg)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if id(node) not in skip:
                words.update(re.findall(r"\w+", node.value))
    return words


def test_every_definition_is_used():
    """Each function, class and method defined under src/smlbayes is named
    somewhere other than its own definition, in src/, tests/ or perfbench/.

    The match is by name only: a use of one class's `from_json_dict` keeps
    every `from_json_dict` alive, and a function that only calls itself
    counts as used. A test or benchmark module that defines a name itself
    (an oracle kept from an older version, say) does not use the package's
    definition of it. Dunder methods are called by Python itself and are
    exempt.
    """
    mentioned = set()
    for root in USE_ROOTS:
        for path in root.rglob("*.py"):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            words = _mentions(tree)
            if root != USE_ROOTS[0]:
                # a test or benchmark module's own top-level functions and
                # classes (the oracles, say) shadow the package's names
                words -= {
                    node.name for node in tree.body
                    if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                }
            mentioned |= words
    dead = []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                name = node.name
                if not (name.startswith("__") and name.endswith("__")) and name not in mentioned:
                    dead.append(f"{path.name} line {node.lineno}: {name}")
    assert not dead, f"definitions never used: {dead}"


def _fresh_python(code: str, cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        timeout=120,
    )


def test_cli_import_loads_no_scipy(tmp_path):
    code = (
        "import sys, smlbayes.cli\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n"
    )
    proc = _fresh_python(code, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_every_command_runs_with_scipy_blocked(tmp_path):
    lines = ["temp,color,label"] + [
        f"{i},{'red' if i % 3 else 'blue'},{'hot' if i > 10 else 'cold'}" for i in range(1, 21)
    ]
    (tmp_path / "data.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    (tmp_path / "new.csv").write_text("temp,color\n2,red\n18,blue\n", encoding="utf-8")
    data = ["--data", "data.csv", "--class-col", "label"]
    search = ["--restarts", "2", "--patience", "20"]
    commands = [
        ["eval", *data, "--classifiers", "nb,om1,pm,anb", "--trials", "2", *search, "--out", "e.json"],
        ["search", *data, *search, "--out", "s.json"],
        ["train", *data, "--classifier", "pm", *search, "--out", "m.json"],
        ["predict", "--model", "m.json", "--input", "new.csv", "--out", "p.csv"],
    ]
    # a None entry makes every `import scipy` (and scipy.*) raise ImportError
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from smlbayes.cli import main\n"
        f"print([main(argv) for argv in {commands!r}])\n"
    )
    proc = _fresh_python(code, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[0, 0, 0, 0]\n", proc.stderr
    for name in ("e.json", "s.json", "m.json", "p.csv"):
        assert (tmp_path / name).stat().st_size > 0
