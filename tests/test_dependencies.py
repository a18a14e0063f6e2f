"""numpy is the only runtime dependency: the package imports nothing else
outside the standard library, at module level or inside a function. And
importing one package module loads only the package modules that its own
import statements reach: the package has no re-exporting ``__init__``."""

import ast
import json
import subprocess
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


MODULES = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")
# the lexer and the pair-dataset readers sit below every numeric layer
NUMPY_FREE = ("errors", "lexcat", "data")


def module_level_imports(name):
    """The package modules and top-level packages that module-level import
    statements of package module ``name`` name, as ``(modules, roots)``."""
    tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
    modules, roots = set(), set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["clonecat" if node.level else "", node.module]))
            targets = [base] + [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        roots |= {target.split(".")[0] for target in targets}
        modules |= {target.split(".")[1] for target in targets
                    if target.startswith("clonecat.")} & set(MODULES)
    return modules, roots


def import_closure(name):
    """``(modules, loads_numpy)``: every package module that importing ``name`` reaches
    through module-level imports, ``name`` included, and whether one of them imports numpy."""
    seen, todo, roots = set(), [name], set()
    while todo:
        module = todo.pop()
        if module not in seen:
            seen.add(module)
            named, module_roots = module_level_imports(module)
            roots |= module_roots
            todo += named
    return seen, "numpy" in roots


@pytest.mark.parametrize("name", MODULES)
def test_a_module_loads_only_what_its_imports_reach(name):
    """Import ``clonecat.NAME`` alone in a fresh interpreter: the package modules it loads
    are those its import statements reach, and numpy loads only if one of them imports it."""
    probe = (f"import importlib, json, sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); "
             f"importlib.import_module('clonecat.{name}'); "
             "print(json.dumps([sorted(m[len('clonecat.'):] for m in sys.modules "
             "if m.startswith('clonecat.')), 'numpy' in sys.modules]))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True).stdout
    loaded, loads_numpy = json.loads(out)
    modules, imports_numpy = import_closure(name)
    assert (loaded, loads_numpy) == (sorted(modules), imports_numpy)
    if name in NUMPY_FREE:
        assert not loads_numpy
