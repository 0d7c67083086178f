"""Every module-level import in the package and its tests is read."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


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
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    return [f"{path.relative_to(ROOT)}: {name}" for name in bound if name not in read]


def test_no_module_level_import_is_unused():
    files = sorted([*ROOT.glob("src/josephus/*.py"), *ROOT.glob("tests/*.py")])
    assert files
    assert [dead for path in files for dead in _dead_imports(path)] == []
