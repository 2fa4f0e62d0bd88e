"""The Green's kind names are spelled only in linear.py.

linear's SCALAR_GREENS and WAVE_STEPS tables are the one list of Green's
kinds; every other module reads the names from them or from GreensChoice.
This check fails when a module of the package other than linear.py holds a
kind name as a string constant. Docstrings are prose and are skipped.
"""

import ast
import pathlib

import pytest

import surflat
from surflat.linear import SCALAR_GREENS, WAVE_STEPS

PACKAGE = pathlib.Path(surflat.__file__).parent
KIND_NAMES = {*SCALAR_GREENS, *WAVE_STEPS}


def kind_constants(source: str) -> list[str]:
    """Kind names held as string constants outside docstrings, in order."""
    tree = ast.parse(source)
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value,
                                                          ast.Constant):
                docstrings.add(id(first.value))
    return [node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and node.value in KIND_NAMES
            and id(node) not in docstrings]


def test_the_kind_names_are_the_tables():
    assert KIND_NAMES == {"retarded", "advanced", "banded_solve", "frequency"}


def test_the_check_finds_kind_names():
    source = ('"""A module on the retarded kind."""\n'
              'KINDS = ("banded_solve", "dense")\n'
              'def f(kind=\'advanced\'):\n'
              '    """Run the frequency backend."""\n'
              '    return f"{kind}" == "frequency "\n')
    assert kind_constants(source) == ["banded_solve", "advanced"]


@pytest.mark.parametrize("path", sorted(set(PACKAGE.glob("*.py"))
                                        - {PACKAGE / "linear.py"}),
                         ids=lambda path: path.name)
def test_only_linear_spells_a_kind_name(path):
    assert kind_constants(path.read_text()) == []
