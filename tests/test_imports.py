"""Import hygiene of the package, checked with the standard library's `ast`:
every imported name is used, and every `__all__` entry resolves."""

import ast
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
