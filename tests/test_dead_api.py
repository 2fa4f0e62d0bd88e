"""Every public name of the package has a caller in the package.

For each name in surflat.__all__, and each public method of the classes
among them, some module of src/surflat other than __init__ must spell it:
as a name it reads, an attribute, or a name it imports. A name that only
tests use is dead API unless ALLOWED gives the reason it stays. Methods are
matched by name, so one that shares its name with another attribute counts
as used: the check finds names that no module spells, not every dead one.

Record fields get the same check, read only: each annotated field of a
class that src/surflat defines (its dataclasses and NamedTuples) must be
read as an attribute by some module of src/surflat. A field that is only
built, or read by tests alone, is dead unless ALLOWED_FIELDS gives the
reason it stays.
"""

import ast
import inspect
import pathlib

import surflat

PACKAGE = pathlib.Path(surflat.__file__).parent

# public names that no module of the package spells, each with its reason
ALLOWED = {
    "delta_ell": "pointwise oracle of delta_ell_field",
    "stencil_pairs": "pointwise oracle of the interface pairs",
    "greens_residual": "entry point that bench/tracer.py wraps",
    "i_m": "entry point that bench/tracer.py wraps",
    "Region.from_box": "constructor of the tests' box regions",
}


# Class.field entries that no module of the package reads, with reasons
ALLOWED_FIELDS = {}


def spelled(source: str) -> set[str]:
    """Names the source reads, attributes it names and names it imports."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
    return found


def public_methods(cls) -> list[str]:
    """Methods, properties and class methods the class body defines."""
    [node] = ast.parse(inspect.getsource(cls)).body
    return [item.name for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not item.name.startswith("_")]


def unreferenced(names, namespace, used: set[str]) -> list[str]:
    """Public names, and Class.method for their classes' public methods,
    that used does not hold, in order."""
    missing = []
    for name in names:
        if name not in used:
            missing.append(name)
        obj = namespace[name]
        if inspect.isclass(obj) and obj.__module__.startswith("surflat"):
            missing += [f"{name}.{method}" for method in public_methods(obj)
                        if method not in used]
    return missing


def test_the_check_finds_unreferenced_names():
    # Window is imported and its shape read; interior_mask is only assigned
    used = spelled("from .space import Window\n"
                   "x = Window(0, 1, 0, 1).shape\n"
                   "interior_mask = 3\n")
    methods = public_methods(surflat.Window)
    assert {"shape", "interior_mask", "cut_row"} <= set(methods)
    assert unreferenced(["Window", "MAX_ORDER"], vars(surflat), used) == [
        f"Window.{m}" for m in methods if m != "shape"] + ["MAX_ORDER"]


def test_every_public_name_has_a_caller():
    used = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":
            used |= spelled(path.read_text())
    missing = unreferenced(surflat.__all__, vars(surflat), used)
    assert [name for name in missing if name not in ALLOWED] == []
    # an entry whose name gained a caller, or left the package, goes
    assert sorted(missing) == sorted(ALLOWED)


def record_fields(source: str) -> list[tuple[str, str]]:
    """(class, field) for each annotated field of the classes the source
    defines, in order."""
    return [(node.name, item.target.id)
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ClassDef)
            for item in node.body
            if isinstance(item, ast.AnnAssign)
            and isinstance(item.target, ast.Name)]


def attributes_read(source: str) -> set[str]:
    """Attribute names the source reads (ast.Attribute in a load)."""
    return {node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}


def unread_fields(sources) -> list[str]:
    """Class.field for each record field that no source reads, in order."""
    read = set().union(*map(attributes_read, sources))
    return [f"{cls}.{name}" for source in sources
            for cls, name in record_fields(source) if name not in read]


def test_the_field_check_finds_unread_fields():
    # kept is read, built is only passed to the constructor, and spelled
    # is a local name and an assignment target but never read
    source = ("class Rec(NamedTuple):\n"
              "    kept: int\n"
              "    built: int\n"
              "    spelled: int\n"
              "    limit = 3\n"
              "spelled = Rec(1, built=2, spelled=3)\n"
              "spelled.spelled = spelled.kept\n")
    assert record_fields(source) == [("Rec", "kept"), ("Rec", "built"),
                                     ("Rec", "spelled")]
    assert unread_fields([source]) == ["Rec.built", "Rec.spelled"]


def test_every_record_field_is_read():
    sources = [path.read_text() for path in sorted(PACKAGE.glob("*.py"))]
    assert sum(len(record_fields(source)) for source in sources) > 50
    # an entry whose field gained a reader, or left the package, goes
    assert sorted(unread_fields(sources)) == sorted(ALLOWED_FIELDS)
