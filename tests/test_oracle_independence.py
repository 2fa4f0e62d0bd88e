"""The series oracle shares no code with the engine it checks.

taylor_oracle_I checks family_taylor_I, which runs on the D-series engine
of jets and on the Green's operators of linear. The oracle is an
independent route only while it reaches none of that: polyseries, its
polynomial arithmetic, imports nothing from the package, and the oracle's
functions in perturb name none of the engine's entry points, neither as a
name nor as an attribute.
"""

import ast
import pathlib

import pytest

import surflat

PACKAGE = pathlib.Path(surflat.__file__).parent
ORACLE_FUNCTIONS = ("taylor_oracle_I", "_gather", "_oracle_volume")
ENGINE_NAMES = {"delta_ell_field", "stencil_contraction", "slot_factor_maps",
                "pair_product_sum", "live_pairs", "greens_apply"}


def package_imports(source: str) -> list[str]:
    """Modules of the package that the source imports, in order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if node.level or (node.module or "").split(".")[0] == "surflat":
                found.append("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            found += [alias.name for alias in node.names
                      if alias.name.split(".")[0] == "surflat"]
    return found


def named_in(source: str, functions) -> dict[str, set]:
    """Per function defined at the top level, the names and attributes its
    body spells."""
    named = {}
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and node.name in functions:
            named[node.name] = {
                sub.id if isinstance(sub, ast.Name) else sub.attr
                for sub in ast.walk(node)
                if isinstance(sub, (ast.Name, ast.Attribute))}
    return named


def test_the_checks_find_what_they_look_for():
    source = ("import numpy as np\n"
              "import surflat.jets\n"
              "from . import linear\n"
              "from .jets import Jet\n"
              "from surflat.space import Region\n"
              "def _gather(hier):\n"
              "    return jets.pair_product_sum(hier) + live_pairs\n"
              "def other():\n"
              "    return greens_apply\n")
    assert package_imports(source) == ["surflat.jets", ".", ".jets",
                                       "surflat.space"]
    named = named_in(source, ORACLE_FUNCTIONS)
    assert set(named) == {"_gather"}
    assert named["_gather"] & ENGINE_NAMES == {"pair_product_sum",
                                               "live_pairs"}


def test_polyseries_imports_nothing_from_the_package():
    assert package_imports((PACKAGE / "polyseries.py").read_text()) == []


@pytest.mark.parametrize("function", ORACLE_FUNCTIONS)
def test_the_oracle_names_no_engine_entry_point(function):
    named = named_in((PACKAGE / "perturb.py").read_text(), ORACLE_FUNCTIONS)
    assert set(named) == set(ORACLE_FUNCTIONS)
    assert named[function] & ENGINE_NAMES == set()
