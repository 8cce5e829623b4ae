"""Every name a module under src/ucamimo imports is used in that module."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ucamimo"


def unused_imports(source: str) -> set[str]:
    """Names bound by the module's imports that no expression reads; `__future__` imports are skipped."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


def test_detector_finds_unused_names():
    source = "from __future__ import annotations\nimport os, os.path as osp\nimport numpy as np\nfrom x import a, b\nnp.ones(a)\n"
    assert unused_imports(source) == {"os", "osp", "b"}


# __init__.py imports only to re-export
@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py"))
def test_no_unused_imports(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == set()
