"""No module of the package imports a name it never uses.

No linter ships with the project, so this is its unused-import check. An
import statement marked `# noqa` is skipped (an import kept for its side
effect), and a name listed in the module's __all__ counts as used.
"""

import ast
import pathlib

import pytest

import surflat

PACKAGE = pathlib.Path(surflat.__file__).parent


def _annotation_names(tree):
    # names inside quoted annotations, such as -> "Jet"
    for node in ast.walk(tree):
        notes = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            notes = [a.annotation for a in (*args.posonlyargs, *args.args,
                                            *args.kwonlyargs, args.vararg,
                                            args.kwarg) if a is not None]
            notes.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            notes = [node.annotation]
        for note in notes:
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                yield from (n.id for n in ast.walk(ast.parse(note.value))
                            if isinstance(n, ast.Name))


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports and never read, in order."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", None) == "__future__" or any(
                "# noqa" in line
                for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        imported += [alias.asname or alias.name.split(".")[0]
                     for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used.update(_annotation_names(tree))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


def test_the_check_finds_unused_names():
    source = ("from __future__ import annotations\n"
              "import os\n"
              "import numpy.fft  # noqa: F401\n"
              "from math import pi, tau\n"
              "from typing import Sequence\n"
              "from .space import Window\n"
              "__all__ = ['tau']\n"
              "def f(x: 'Sequence[Window]') -> float:\n"
              "    return x\n")
    assert unused_imports(source) == ["os", "pi"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda path: path.name)
def test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text()) == []
