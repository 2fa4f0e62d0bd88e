"""Every public name of the package has a caller in the package.

For each name in surflat.__all__, and each public method of the classes
among them, some module of src/surflat other than __init__ must spell it:
as a name it reads, an attribute, or a name it imports. A name that only
tests use is dead API unless ALLOWED gives the reason it stays. Methods are
matched by name, so one that shares its name with another attribute counts
as used: the check finds names that no module spells, not every dead one.

The package's modules get the same check for what they define outside
__all__: each public function and class a module of src/surflat defines at
its top level must be spelled somewhere in src/surflat outside its own
definition, so a helper that only tests call is dead unless
ALLOWED_DEFINITIONS gives the reason it stays.

Record fields get the same check, read only: each annotated field of a
class that src/surflat defines (its dataclasses and NamedTuples) must be
read as an attribute by some module of src/surflat. A field that is only
built, or read by tests alone, is dead unless ALLOWED_FIELDS gives the
reason it stays.

Parameters with a default are switches, and a switch that only tests turn
is dead too: each such parameter of a function or method that src/surflat
defines must be passed, by position or by name, by some call in
src/surflat to a function of that name. A call inside the function's own
body counts only when it passes something other than the parameter itself,
so a recursion that hands a switch on unchanged does not turn it.
ALLOWED_DEFAULTS gives the reasons for the ones that stay.
"""

import ast
import collections
import dataclasses
import inspect
import pathlib

import surflat
from surflat import cli
from surflat.linear import GreensChoice

PACKAGE = pathlib.Path(surflat.__file__).parent

# public names that no module of the package spells, each with its reason
ALLOWED = {
    "delta_ell": "pointwise oracle of delta_ell_field",
    "stencil_pairs": "pointwise oracle of the interface pairs",
    "greens_residual": "entry point that bench/tracer.py wraps",
    "i_m": "entry point that bench/tracer.py wraps",
    "Region.from_box": "constructor of the tests' box regions",
}

# module.name of the definitions outside __all__ that no module of the
# package spells, each with its reason
ALLOWED_DEFINITIONS = {
    "jets.nabla_L": "pointwise oracle of the D-series engine",
}

# Class.field entries that no module of the package reads, with reasons
ALLOWED_FIELDS = {}

# function.parameter defaults that no call in the package passes, with
# reasons
ALLOWED_DEFAULTS = {
    "main.argv": "the entry point; tests and the bench pass argv",
    "el_check.phi_samples": "the pointwise-oracle test samples angles "
                            "outside the defaults",
    "symm_bilinear.edge_check": "a safety switch that tests turn off on "
                                "windows too small to clear the frame",
}


def spellings(nodes) -> collections.Counter:
    """How often the nodes read each name, name it as an attribute or
    import it."""
    found = collections.Counter()
    for node in nodes:
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
    return found


def spelled(source: str) -> set[str]:
    """Names the source reads, attributes it names and names it imports."""
    return set(spellings(ast.walk(ast.parse(source))))


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


def unspelled_definitions(sources: dict[str, str], exported) -> list[str]:
    """module.name for each public function and class that a module
    defines at its top level, outside exported, and that no source spells
    outside that definition, in order."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    total = sum((spellings(ast.walk(tree)) for tree in trees.values()),
                collections.Counter())
    return [f"{module}.{node.name}" for module, tree in trees.items()
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_") and node.name not in exported
            and total[node.name] == spellings(ast.walk(node))[node.name]]


def test_the_definition_check_finds_unspelled_definitions():
    # Kept is read by called, called is imported by the other module and
    # exported is in __all__; recursive only calls itself, alone is never
    # named, and _private is not public
    sources = {"one": "class Kept:\n    pass\n"
                      "def called():\n    return Kept()\n"
                      "def recursive(n):\n    return recursive(n - 1)\n"
                      "def exported():\n    pass\n"
                      "def _private():\n    pass\n",
               "two": "from .one import called\n"
                      "def alone():\n    return called()\n"}
    assert unspelled_definitions(sources, ["exported"]) == [
        "one.recursive", "two.alone"]


def test_every_definition_outside_all_has_a_caller():
    sources = {path.stem: path.read_text()
               for path in sorted(PACKAGE.glob("*.py"))
               if path.name != "__init__.py"}
    missing = unspelled_definitions(sources, surflat.__all__)
    # an entry whose name gained a caller, or left the package, goes
    assert sorted(missing) == sorted(ALLOWED_DEFINITIONS)


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


def defaulted_parameters(tree):
    """(def node, qualified name, parameter, position) for each parameter
    with a default of the functions and methods the tree defines, in order.
    position is the index of a positional argument in a call, self or cls
    not counted, and None for a keyword-only parameter. A method's name is
    qualified by its class, and __init__ takes the class's name."""
    owner = {id(item): node.name for node in ast.walk(tree)
             if isinstance(node, ast.ClassDef) for item in node.body}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        cls = owner.get(id(node))
        name = node.name if cls is None else f"{cls}.{node.name}"
        if node.name == "__init__":
            name = cls
        args = node.args
        positional = args.posonlyargs + args.args
        skip = cls is not None
        first = len(positional) - len(args.defaults)
        found += [(node, name, arg.arg, index - skip)
                  for index, arg in enumerate(positional) if index >= first]
        found += [(node, name, arg.arg, None)
                  for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                  if default is not None]
    return found


def called_name(call):
    """The name a call reaches its function by: a name or an attribute."""
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    return func.attr if isinstance(func, ast.Attribute) else None


def argument_for(call, parameter, position):
    """The expression a call passes for the parameter, or None; a starred
    or double-starred argument may pass any parameter it reaches."""
    for keyword in call.keywords:
        if keyword.arg in (parameter, None):
            return keyword.value
    if position is not None:
        for index, arg in enumerate(call.args):
            if isinstance(arg, ast.Starred) or index == position:
                return arg
    return None


def unpassed_defaults(sources) -> list[str]:
    """function.parameter for each parameter with a default that no call
    in the sources passes, in order."""
    trees = [ast.parse(source) for source in sources]
    calls = [node for tree in trees for node in ast.walk(tree)
             if isinstance(node, ast.Call)]
    missing = []
    for tree in trees:
        for node, name, parameter, position in defaulted_parameters(tree):
            own = {id(call) for call in ast.walk(node)}
            short = name.rsplit(".", 1)[-1]
            for call in calls:
                if called_name(call) != short:
                    continue
                arg = argument_for(call, parameter, position)
                if arg is None or (id(call) in own and isinstance(arg, ast.Name)
                                   and arg.id == parameter):
                    continue
                break
            else:
                missing.append(f"{name}.{parameter}")
    return missing


def test_the_default_check_finds_switches_no_call_turns():
    # walk's path accumulates, so its recursion turns it; depth is only
    # handed on; scale is passed by position, mode by name, flag and
    # strict by no call, and self does not count as a position
    source = ("def walk(node, path=(), depth=0):\n"
              "    walk(node, path + (1,), depth)\n"
              "    walk(node, path, depth=depth)\n"
              "def show(x, scale=1.0, *, mode='a', flag=False):\n"
              "    return x\n"
              "class Box:\n"
              "    def __init__(self, size=1):\n"
              "        self.size = size\n"
              "    def grow(self, by=1, strict=False):\n"
              "        return Box(self.size + by)\n"
              "show(1, 2.0, mode='b')\n"
              "Box(3).grow(2)\n")
    assert unpassed_defaults([source]) == [
        "walk.depth", "show.flag", "Box.grow.strict"]


def test_every_default_is_passed_by_some_call():
    sources = [path.read_text() for path in sorted(PACKAGE.glob("*.py"))]
    assert sum(len(defaulted_parameters(ast.parse(source)))
               for source in sources) > 15
    # an entry whose parameter gained a caller, or left the package, goes
    assert sorted(unpassed_defaults(sources)) == sorted(ALLOWED_DEFAULTS)


def test_greens_choice_is_the_config_greens_section():
    # GreensChoice carries what a config can choose, and nothing else
    fields = [field.name for field in dataclasses.fields(GreensChoice)]
    assert fields == list(cli.SCHEMA["greens"])
