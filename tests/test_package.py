"""Package hygiene: every public name resolves, and no module imports a name
it never uses."""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

import llnsim

MODULES = sorted(Path(llnsim.__file__).resolve().parent.rglob("*.py"))


def test_every_public_name_resolves():
    assert [name for name in llnsim.__all__ if not hasattr(llnsim, name)] == []


def _unused_imports(source: str) -> list[str]:
    """Names a module imports at module level but never reads or exports."""
    tree = ast.parse(source)
    imported = []
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Import):
            # `import a.b` binds a
            imported += [alias.asname or alias.name.split(".")[0]
                         for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


def test_the_import_check_sees_an_unused_name():
    assert _unused_imports(
        "from __future__ import annotations\n"
        "import os.path\nfrom dataclasses import dataclass, field\n"
        "from typing import NamedTuple\n__all__ = ['NamedTuple']\n"
        "x = field()\n") == ["os", "dataclass"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_a_name_it_never_uses(path):
    assert _unused_imports(path.read_text()) == []
