"""The benchmark's tracer still finds every name it wraps in the package.

bench/tracer.py patches layer functions by module and attribute name, and
Tracer.install raises AttributeError when one is gone, which would stop
every traced benchmark run. Installing and uninstalling it here catches a
rename or removal in the package before the benchmark does.
"""

import importlib.util
import pathlib
import sys

import surflat
import surflat.cli
import surflat.polyseries

TRACER = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def package_bindings():
    return {(name, attr): value
            for name, mod in sys.modules.items()
            if name == "surflat" or name.startswith("surflat.")
            for attr, value in vars(mod).items() if callable(value)}


def test_tracer_installs_and_uninstalls_on_the_package():
    before = package_bindings()
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        assert surflat.linear.greens_apply is not before[
            ("surflat.linear", "greens_apply")]
        assert surflat.cli.main is not before[("surflat.cli", "main")]
    finally:
        tracer.uninstall()
    assert package_bindings() == before
