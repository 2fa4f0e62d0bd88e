"""The benchmark's tracer still finds every name it wraps in the package.

bench/tracer.py patches layer functions by module and attribute name, and
Tracer.install raises AttributeError when one is gone, which would stop
every traced benchmark run. Installing and uninstalling it here catches a
rename or removal in the package before the benchmark does. Some wrappers
also read arguments by name or position (the order of delta_ell_field, the
choice of greens_apply, the inputs of greens_apply and build_hierarchy), so
one traced pass of the six suites checks that those reads still work.
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


SUITES = ("check-el", "solve-linear", "greens-verify", "slayer-sweep",
          "perturb-verify", "greens-dependence")


def test_traced_battery_pass_records_the_wrapped_layers(tmp_path):
    tracer = load_tracer().Tracer()
    codes = []
    tracer.install()
    try:
        tracer.run_pass(0, lambda: codes.extend(
            surflat.cli.main([suite, "--out", str(tmp_path / suite)])
            for suite in SUITES))
    finally:
        tracer.uninstall()
    assert codes == [0] * len(SUITES)
    names = {span[0] for span in tracer.spans}
    assert {f"cli.main.{suite}" for suite in SUITES} <= names
    assert {"jets.delta_ell_field.o1", "jets.delta_ell_field.o2",
            "jets.delta_ell_field.o3", "linear.greens_apply.banded_solve",
            "perturb.build_hierarchy"} <= names
    # the order-3 build solves its sources (1, 1), (0, 2) and (1, 2);
    # greens-dependence one and slayer-sweep one more
    assert len(tracer.keys[(0, "linear.greens_apply")]) == 5
    assert len(tracer.keys[(0, "perturb.build_hierarchy")]) == 2
