"""Source checks that stand in for a linter: every imported name is used."""

import ast
from pathlib import Path

import pointmeta

MODULES = sorted(Path(pointmeta.__file__).parent.glob("*.py"))


def test_every_imported_name_is_read():
    unused = []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                names = [(alias.asname or alias.name).split(".")[0] for alias in node.names]
                unused += [f"{path.name}:{node.lineno} {name}" for name in names if name not in read]
    assert MODULES
    assert not unused, unused
