"""numpy is the only runtime dependency: the package imports nothing else
outside the standard library, at module level or inside a function."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "clonecat"
ALLOWED = frozenset(sys.stdlib_module_names) | {"numpy", "clonecat"}


def imported_roots(tree):
    """(line, top-level package) for every absolute import in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name.split(".")[0]) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_imports_only_stdlib_and_numpy(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    outside = [f"{path.name}:{line} {root}" for line, root in imported_roots(tree)
               if root not in ALLOWED]
    assert outside == []


def test_the_check_sees_a_third_party_import():
    tree = ast.parse("import numpy\nfrom scipy import linalg\ndef f():\n    import torch\n")
    assert [root for _, root in imported_roots(tree) if root not in ALLOWED] == ["scipy", "torch"]
