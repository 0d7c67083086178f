"""Every module-level import in the package and its tests is read, and every export is bound."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _all_names(tree: ast.Module) -> list[str]:
    """The names a module-level ``__all__ = [...]`` of ``tree`` lists."""
    return [name for node in tree.body if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            for name in ast.literal_eval(node.value)]


def _dead_imports(path: Path) -> list[str]:
    """Names a module-level import of ``path`` binds that the module never reads.

    A name listed in ``__all__`` counts as read; ``from __future__`` binds nothing.
    """
    tree = ast.parse(path.read_text())
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
            and not isinstance(node.ctx, ast.Store)}
    read |= set(_all_names(tree))
    return [f"{path.relative_to(ROOT)}: {name}" for name in bound if name not in read]


def _unbound_exports(path: Path) -> list[str]:
    """Names in the ``__all__`` of ``path`` that no module-level def, class,
    assignment or import binds.

    ``_dead_imports`` counts every ``__all__`` name as read, so a stale
    entry could hide a dead import.
    """
    tree = ast.parse(path.read_text())
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return [f"{path.relative_to(ROOT)}: {name}" for name in _all_names(tree) if name not in bound]


def test_no_module_level_import_is_unused():
    files = sorted([*ROOT.glob("src/josephus/*.py"), *ROOT.glob("tests/*.py")])
    assert files
    assert [dead for path in files for dead in _dead_imports(path)] == []


def test_every_exported_name_is_bound():
    files = sorted(ROOT.glob("src/josephus/*.py"))
    assert any(_all_names(ast.parse(path.read_text())) for path in files)
    assert [stale for path in files for stale in _unbound_exports(path)] == []
