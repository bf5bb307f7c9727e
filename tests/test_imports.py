"""Every name a package module imports is used there or listed in its
``__all__``, every ``__all__`` name is bound, README's package table lists
exactly the package's modules, float tensors have one storage order, and
importing the package loads no thread pool."""

import ast
import dataclasses
import importlib
import re
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "bnnkit"
README = PACKAGE.parent.parent / "README.md"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_detects_an_unused_import():
    source = "import os\nfrom sys import argv, path\n__all__ = ['path']\nprint(argv)\n"
    assert unused_imports(source) == ["line 1: os"]


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.stem != "__main__"], ids=lambda p: p.name
)
def test_all_names_are_bound(path):
    module = importlib.import_module(f"bnnkit.{path.stem}")
    names = getattr(module, "__all__", [])
    assert [name for name in names if not hasattr(module, name)] == []


def test_readme_lists_every_module():
    section = README.read_text(encoding="utf-8").split("## Package layout")[1]
    section = section.split("\n## ")[0]
    listed = re.findall(r"^\| `bnnkit\.(\w+)` \|", section, re.MULTILINE)
    modules = {p.stem for p in MODULES} - {"__main__"}
    assert sorted(listed) == sorted(modules)


def test_float_tensor_has_one_storage_order():
    """``FloatTensor`` is dims over NHWC data, with no storage-order field,
    and ``Layout`` (``from_array``'s axis order) is not a package export."""
    bnnkit = importlib.import_module("bnnkit")
    fields = dataclasses.fields(bnnkit.FloatTensor)
    assert tuple(f.name for f in fields) == ("dims", "data")
    assert not hasattr(bnnkit, "Layout")


def test_import_loads_no_thread_pool():
    """``import bnnkit`` leaves ``concurrent.futures`` and the ``logging`` it
    pulls in unloaded, in a fresh interpreter."""
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import bnnkit; "
        "print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(PACKAGE.parent)],
        capture_output=True, text=True, check=True,
    )
    assert done.stdout.strip() == "[]"
