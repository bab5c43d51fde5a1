"""sepkit's modules form one chain, each importing only the modules before it."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "sepkit"
# classify runs the pair criterion, the closed forms and the search, so
# criterion sits above decompose and search; the package's __init__
# re-exports them all and is not part of the chain.
ORDER = ("states", "linalg", "pairs", "products", "decompose", "search", "criterion",
         "cli")


def sepkit_imports(node: ast.AST) -> set[str]:
    """The sepkit modules one import statement names."""
    if isinstance(node, ast.Import):
        return {alias.name.split(".")[1] for alias in node.names
                if alias.name.startswith("sepkit.")}
    if not isinstance(node, ast.ImportFrom):
        return set()
    if node.level == 0:
        if node.module is None or not node.module.startswith("sepkit"):
            return set()
        parts = node.module.split(".")[1:]
    else:
        parts = node.module.split(".") if node.module else []
    # `from . import search` (or `from sepkit import search`) names modules.
    return {parts[0]} if parts else {alias.name for alias in node.names}


def parse(name: str) -> ast.Module:
    return ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8"))


def test_every_module_is_in_the_order():
    assert {p.stem for p in SRC.glob("*.py")} == {*ORDER, "__init__"}


@pytest.mark.parametrize("name", ORDER)
def test_module_imports_only_modules_before_it(name):
    imported = set().union(*(sepkit_imports(node) for node in ast.walk(parse(name))))
    assert imported <= set(ORDER[:ORDER.index(name)]), imported


@pytest.mark.parametrize("name", (*ORDER, "__init__"))
def test_no_function_imports_a_sepkit_module(name):
    for fn in ast.walk(parse(name)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            lazy = set().union(*(sepkit_imports(node) for node in ast.walk(fn)))
            assert not lazy, (fn.name, lazy)
