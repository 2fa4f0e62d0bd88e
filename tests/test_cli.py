import collections
import csv
import ctypes
import itertools
import json
import math
import pathlib
import platform
import resource
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surflat import MAX_ORDER, DualJet, Region, cli, jets, linear, space
from surflat.cli import (CSV_COLUMNS, DEFAULT_CONFIG, Row, _apply_override,
                         _parse_jet_spec, load_config, main, write_report)
from surflat.errors import ConfigError
from surflat.perturb import build_hierarchy
from surflat.polyseries import PolyRing
from surflat.space import STENCIL_OFFSETS


def run_cli(tmp_path, *argv):
    out = tmp_path / "out"
    code = main([*argv, "--out", str(out)])
    return code, out


ALL_SUITES = ["check-el", "solve-linear", "greens-verify", "slayer-sweep",
              "perturb-verify", "greens-dependence"]


def read_report(out):
    with open(out / "report.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    with open(out / "summary.json") as fh:
        summary = json.load(fh)
    return rows, summary


# --- happy paths, one per suite ---

@pytest.mark.parametrize("suite", ["check-el", "solve-linear",
                                   "greens-verify", "slayer-sweep",
                                   "perturb-verify", "greens-dependence"])
def test_suite_passes_with_defaults(tmp_path, capsys, suite):
    argv = [suite]
    if suite == "greens-verify":
        argv += ["--override", "draws=4"]
    if suite == "greens-dependence":
        argv += ["--override", "modifiers=2"]
    code, out = run_cli(tmp_path, *argv)
    assert code == 0
    rows, summary = read_report(out)
    assert rows[0] == list(CSV_COLUMNS)
    assert len(rows) == summary["pass_count"] + 1
    assert summary["fail_count"] == 0
    assert summary["suite"] == suite
    assert all(r[-1] == "true" for r in rows[1:])
    assert suite in capsys.readouterr().out


def test_csv_rows_are_well_formed(tmp_path):
    code, out = run_cli(tmp_path, "slayer-sweep")
    assert code == 0
    rows, _ = read_report(out)
    for row in rows[1:]:
        assert len(row) == len(CSV_COLUMNS)
        # value, reference, residual, tolerance parse back as floats
        for cell in row[3:7]:
            float(cell)
        assert row[-1] in ("true", "false")
    slice_ts = {row[1] for row in rows[1:]}
    assert "" in slice_ts  # the spread row is not tied to a cut
    assert {str(t) for t in range(-5, 6)} <= slice_ts


# --- exit code 1: numerical failure ---

def test_impossible_tolerance_fails_numerically(tmp_path, capsys):
    code, out = run_cli(tmp_path, "greens-verify",
                        "--override", "draws=2",
                        "--override", "tolerances.greens=1e-18")
    assert code == 1
    _, summary = read_report(out)
    assert summary["fail_count"] > 0
    assert "failed" in capsys.readouterr().out


def test_check_el_reports_unbalanced_nu_as_failure(tmp_path):
    # check-el is the diagnostic suite, so an unbalanced nu is allowed in
    # and shows up as a nonzero field equation value, not as a config error
    code, out = run_cli(tmp_path, "check-el",
                        "--override", "model.nu=0",
                        "--override", "window.t_min=-12",
                        "--override", "window.t_max=12",
                        "--override", "window.x_min=-12",
                        "--override", "window.x_max=12")
    assert code == 1
    _, summary = read_report(out)
    assert summary["max_residual"] == pytest.approx(9.0)


# --- exit code 2: invalid configuration ---

def test_nu_override_guard(tmp_path, capsys):
    code = main(["slayer-sweep", "--out", str(tmp_path / "x"),
                 "--override", "model.nu=0"])
    assert code == 2
    err = capsys.readouterr().err
    assert "force_nu" in err
    assert not (tmp_path / "x").exists()


def test_nu_override_forced_runs_and_fails(tmp_path):
    code, out = run_cli(tmp_path, "slayer-sweep",
                        "--override", "model.nu=0",
                        "--override", "force_nu=true")
    assert code == 1
    _, summary = read_report(out)
    assert summary["fail_count"] > 0


@pytest.mark.parametrize("scalar_kind", ["banded_solve", "frequency"])
@pytest.mark.parametrize("suite", ["greens-verify", "slayer-sweep",
                                   "perturb-verify", "greens-dependence"])
def test_vanishing_scalar_symbol_rejected(tmp_path, capsys, suite,
                                          scalar_kind):
    # nu = 28 zeroes the scalar diagonal lambda_a + (balanced_nu - nu) / 2,
    # so the symbol vanishes at frequency pi / 2 and no Green's operator
    # exists; that is a config error, not a LinAlgError traceback
    code = main([suite, "--out", str(tmp_path / "x"),
                 "--override", "model.nu=28",
                 "--override", "force_nu=true",
                 "--override", f"greens.scalar_kind={scalar_kind}"])
    assert code == 2
    err = capsys.readouterr().err
    assert "scalar symbol" in err
    assert "Traceback" not in err
    assert not (tmp_path / "x").exists()


def test_balanced_nu_spelled_out_is_not_an_override(tmp_path):
    code, _ = run_cli(tmp_path, "perturb-verify",
                      "--override", "model.nu=18")
    assert code == 0


@pytest.mark.parametrize("override, fragment", [
    ("window.t_max=4", "margin"),
    ("order=5", "order"),
    ("jets.u.kind=spiral", "kind"),
    ("jets.u.width=0", "width"),
    ("slices.stop=40", "slice range"),
    ("greens.vector_kind=sideways", "vector_kind"),
    ("tolerances.el=0", "positive"),
    ("draws=0", ">= 1"),
    ("seed=-3", "seed"),
    ("model.epsilon=0.7", "epsilon"),
])
def test_invalid_config_values(tmp_path, capsys, override, fragment):
    code = main(["check-el", "--out", str(tmp_path / "x"),
                 "--override", override])
    assert code == 2
    assert fragment in capsys.readouterr().err


def _window_overrides(t_min, t_max, x_min, x_max):
    return [f"window.t_min={t_min}", f"window.t_max={t_max}",
            f"window.x_min={x_min}", f"window.x_max={x_max}"]


# u and v one site wide at the origin leave the margin rule satisfied on a
# +-2 window at order 1, but greens-verify's +-3 support box does not fit
SUPPORT_BOX_MISSES = ["jets.probe=null", "jets.u.width=1", "jets.u.center=0",
                      "jets.v.width=1", "jets.v.center=0", "order=1",
                      *_window_overrides(-2, 2, -2, 2), "slices.start=-1",
                      "slices.stop=1", "draws=2"]


@pytest.mark.parametrize("suite, overrides, fragment", [
    ("check-el", ["force_nu=1"], "force_nu must be true or false"),
    ("check-el", ['model.nu="x"'], "model.nu must be a number"),
    ("check-el", ["jets.v.center=1.5"], "jets.v.center must be an integer"),
    ("check-el", ["jets.u.decay=future"], "jets.u has unknown fields"),
    ("greens-verify", ["greens.scalar_kind=fft"], "scalar_kind"),
    ("greens-dependence", ["modifiers=0"], "modifiers"),
    ("check-el", ['window={"t_min": -5}'], "window is missing fields"),
    ("check-el", ["jets.u=null"], "jets.u must be an object"),
    ("greens-verify", SUPPORT_BOX_MISSES, "support box"),
], ids=["force_nu=1", "nu=x", "center=1.5", "decay-on-mover", "fft",
        "modifiers=0", "partial-window", "u=null", "support-box"])
def test_invalid_field_exits_2(tmp_path, capsys, suite, overrides,
                               fragment):
    argv = [suite, "--out", str(tmp_path / "x")]
    for item in overrides:
        argv += ["--override", item]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert fragment in err
    assert "Traceback" not in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("profile, first, second", [
    ('{"0": 0.1, "-0": 0.2}', "'0'", "'-0'"),
    ('{"1": 0.1, "+1": 0.2, "01": 0.3}', "'1'", "'+1'"),
], ids=["0,-0", "1,+1,01"])
def test_profile_keys_naming_one_site_rejected(tmp_path, capsys, profile,
                                               first, second):
    code = main(["solve-linear", "--out", str(tmp_path / "x"),
                 "--override", f"jets.u.profile={profile}"])
    assert code == 2
    err = capsys.readouterr().err
    assert f"{first} and {second}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("overrides", [
    ["window.t_min=5", "window.t_max=-5"],
    ["greens.vector_kind=sideways"],
    ['jets.u.profile={"60": 0.1}'],
    # a bump's time extent follows its width, not its profile's span
    ["jets.u.kind=bump", 'jets.u.profile={"0": 0.1}', "jets.u.width=201"],
], ids=["empty-window", "greens-kind", "site-outside", "bump-too-tall"])
def test_load_config_raises_only_config_error(overrides):
    with pytest.raises(ValueError) as info:
        load_config(None, overrides, None, "check-el")
    assert info.type is ConfigError


@pytest.mark.parametrize("overrides", [
    ["window.t_max=1000000000000"],
    # one column of sites more than the largest square window allowed
    _window_overrides(-500, 500, -500, 501),
], ids=["t_max=1e12", "1001x1002"])
def test_window_above_site_limit_rejected(tmp_path, capsys, overrides):
    argv = ["check-el", "--out", str(tmp_path / "x")]
    for item in overrides:
        argv += ["--override", item]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"limit of {cli.MAX_WINDOW_SITES}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "x").exists()


def test_window_at_site_limit_accepted():
    parsed = load_config(None, _window_overrides(-500, 500, -500, 500), None,
                         "check-el")
    assert parsed.window.shape == (1001, 1001)
    assert math.prod(parsed.window.shape) == cli.MAX_WINDOW_SITES


def test_bump_jet_rejected_for_hierarchy_suites(tmp_path, capsys):
    code = main(["perturb-verify", "--out", str(tmp_path / "x"),
                 "--override", "jets.u.kind=bump"])
    assert code == 2
    assert "solve" in capsys.readouterr().err


def test_scalar_seed_rejected_for_sweep(tmp_path, capsys):
    code = main(["slayer-sweep", "--out", str(tmp_path / "x"),
                 "--override", "jets.v.kind=scalar_mode"])
    assert code == 2
    assert "wave" in capsys.readouterr().err


def test_bump_jet_fails_solve_linear_honestly(tmp_path):
    # bump is not a solution; solve-linear runs it and reports the failure
    code, out = run_cli(tmp_path, "solve-linear",
                        "--override", "jets.u.kind=bump")
    assert code == 1
    rows, _ = read_report(out)
    by_name = {r[2]: r[-1] for r in rows[1:]}
    assert by_name["u_interior_residual"] == "false"
    assert by_name["v_interior_residual"] == "true"


def test_config_file_must_be_json(tmp_path, capsys):
    bad = tmp_path / "cfg.json"
    bad.write_text("not json {")
    code = main(["check-el", "--config", str(bad),
                 "--out", str(tmp_path / "x")])
    assert code == 2
    assert "JSON" in capsys.readouterr().err


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"windw": {"t_min": -8}}))
    code = main(["check-el", "--config", str(cfg),
                 "--out", str(tmp_path / "x")])
    assert code == 2
    assert "windw" in capsys.readouterr().err


def test_malformed_override(tmp_path, capsys):
    code = main(["check-el", "--out", str(tmp_path / "x"),
                 "--override", "model.nu"])
    assert code == 2
    assert "key=value" in capsys.readouterr().err


@pytest.mark.parametrize("suite, override", [
    ("slayer-sweep", "model.delta=NaN"),
    ("perturb-verify", "model.delta=NaN"),
    ("perturb-verify", "jets.u.amplitude=NaN"),
    ("slayer-sweep", "jets.u.amplitude=-Infinity"),
    ("check-el", "tolerances.el=NaN"),
    ("check-el", "model.nu=Infinity"),
    ("greens-verify", "model.lambda_a=1" + "0" * 400),
    ("solve-linear", 'jets.u.profile={"0": NaN}'),
    ("check-el", "model.lambda_a=1.3407807929942597e+154"),
    ("greens-dependence", "jets.v.amplitude=1e300"),
])
def test_non_finite_numbers_rejected(tmp_path, capsys, suite, override):
    # JSON parsing lets NaN and Infinity through; they used to reach the
    # solvers (a traceback) or make every row fail (exit 1). Finite numbers
    # large enough to overflow a product (lambda_a squared in the scalar
    # roots, amplitude squared in the hierarchy) tracebacked too.
    code = main([suite, "--out", str(tmp_path / "x"),
                 "--override", override])
    assert code == 2
    err = capsys.readouterr().err
    assert "finite" in err
    assert "Traceback" not in err
    assert not (tmp_path / "x").exists()


def test_non_finite_number_in_config_file_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"model": {"delta": NaN}}')
    code = main(["slayer-sweep", "--config", str(cfg),
                 "--out", str(tmp_path / "x")])
    assert code == 2
    err = capsys.readouterr().err
    assert "model.delta must be a finite number" in err
    assert "Traceback" not in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("where", ["override", "file"])
def test_overlong_integer_rejected(tmp_path, capsys, where):
    # an integer literal past the interpreter's digit limit makes json
    # raise a plain ValueError
    huge = "1" + "0" * 5000
    if where == "override":
        argv = ["--override", f"seed={huge}"]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(f'{{"seed": {huge}}}')
        argv = ["--config", str(cfg)]
    code = main(["check-el", *argv, "--out", str(tmp_path / "x")])
    assert code == 2
    err = capsys.readouterr().err
    assert "digits" in err
    assert "Traceback" not in err
    assert not (tmp_path / "x").exists()


def test_undecodable_config_file_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(b"\xff\xfe{")
    code = main(["check-el", "--config", str(cfg),
                 "--out", str(tmp_path / "x")])
    assert code == 2
    assert "cannot read config file" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


# --- property: every override reaches the exit-code contract ---

def _config_paths(node, prefix=""):
    for key, val in node.items():
        yield prefix + key
        if isinstance(val, dict):
            yield from _config_paths(val, prefix + key + ".")


OVERRIDE_PATHS = sorted(_config_paths(DEFAULT_CONFIG)) + [
    "jets.u.profile", "bogus", "model.bogus", "jets.u.bogus", "jets.w.kind",
    "window.t_min.deep"]


def _field_at(path):
    """The SCHEMA entry at path, or None; a jet spec holds JET_FIELDS."""
    node = cli.SCHEMA
    for part in path.split("."):
        if isinstance(node, cli.Field):
            node = cli.JET_FIELDS if node.type is dict else None
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


def _fields(schema):
    for field in schema.values():
        if isinstance(field, dict):
            yield from _fields(field)
        else:
            yield field


ENUM_STRINGS = sorted({choice for schema in (cli.SCHEMA, cli.JET_FIELDS)
                       for field in _fields(schema)
                       for choice in field.choices})


def _int_bounds(path):
    # keeps every example within a W=60 window and a few draws
    if path.startswith("window."):
        return -60, 60
    if path in ("draws", "modifiers"):
        return -1, 3
    if path.endswith(".width"):
        return -1, 21
    return -70, 70


ANY_FLOAT = st.one_of(st.floats(-30.0, 30.0), st.floats(),
                      st.sampled_from([math.nan, math.inf, -math.inf, 1e300]))
SMALL_OBJECTS = st.dictionaries(
    st.sampled_from(["kind", "center", "width", "amplitude", "0", "-2", "x"]),
    st.one_of(st.none(), st.integers(-21, 21), ANY_FLOAT,
              st.sampled_from(["left_mover", "bump"])),
    max_size=3)


def _override_values(path):
    """Values of the type SCHEMA gives the field at path, and a share of
    junk; a path outside the table gets the enum strings."""
    lo, hi = _int_bounds(path)
    field = _field_at(path)
    if (path.endswith(".profile") or isinstance(field, dict)
            or isinstance(field, cli.Field) and field.type is dict):
        typed = SMALL_OBJECTS
    elif field is None:
        typed = st.sampled_from(ENUM_STRINGS)
    elif field.choices:
        typed = st.sampled_from(field.choices)
    else:
        typed = {bool: st.booleans(), int: st.integers(lo, hi),
                 float: ANY_FLOAT}[field.type]
    junk = st.one_of(st.none(), st.booleans(), st.integers(lo, hi),
                     st.floats(), st.text(max_size=6),
                     st.sampled_from(ENUM_STRINGS), SMALL_OBJECTS)
    return st.one_of(typed, typed, typed, junk)


overrides = st.lists(
    st.sampled_from(OVERRIDE_PATHS).flatmap(
        lambda path: _override_values(path).map(
            lambda value: f"{path}={json.dumps(value)}")),
    min_size=1, max_size=2)
RUN_IDS = itertools.count()


@given(suite=st.sampled_from(ALL_SUITES), extra=overrides)
@settings(max_examples=300, deadline=None)
def test_random_overrides_reach_exit_contract(tmp_path_factory, suite,
                                              extra):
    out = tmp_path_factory.getbasetemp() / f"prop{next(RUN_IDS)}"
    argv = [suite, "--out", str(out), "--override", "draws=2",
            "--override", "modifiers=2"]
    for text in extra:
        argv += ["--override", text]
    code = main(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert not out.exists()
    else:
        assert sorted(p.name for p in out.iterdir()) == ["report.csv",
                                                        "summary.json"]


# --- exit code 2: unusable output location ---

def _suite_must_not_run(cfg):
    raise AssertionError("the suite ran before --out was checked")


def test_out_that_is_a_file_rejected(tmp_path, capsys, monkeypatch):
    monkeypatch.setitem(cli.SUITES, "solve-linear", _suite_must_not_run)
    target = tmp_path / "taken"
    target.write_text("keep me")
    for out in (target, target / "sub"):
        code = main(["solve-linear", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "invalid configuration" in err
        assert "not a directory" in err
        assert "Traceback" not in err
    assert target.read_text() == "keep me"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]


@pytest.mark.parametrize("name", ["report.csv", "summary.json"])
def test_report_file_that_is_a_directory_rejected(tmp_path, capsys,
                                                  monkeypatch, name):
    monkeypatch.setitem(cli.SUITES, "solve-linear", _suite_must_not_run)
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    code = main(["solve-linear", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "invalid configuration" in err
    assert "not a regular file" in err
    assert "Traceback" not in err
    assert [p.name for p in out.iterdir()] == [name]
    assert not any((out / name).iterdir())


# --- report writing ---

REPORT_ROWS = [Row("demo", None, "a", 1e-12, 0.0, 1e-10),
               Row("demo", 3, "b", 2.0, 2.0 + 1e-12, 1e-10),
               Row("demo", -1, "c", 1.0, 0.0, 1e-10)]


def test_write_report_replaces_longer_old_files(tmp_path):
    fresh = tmp_path / "fresh"
    write_report(fresh, "demo", REPORT_ROWS)
    stale = tmp_path / "stale"
    stale.mkdir()
    for name in ("report.csv", "summary.json"):
        old = (fresh / name).read_bytes()
        (stale / name).write_bytes(old + b"stale tail\n" * 500)
    summary = write_report(stale, "demo", REPORT_ROWS)
    assert summary == {"suite": "demo", "pass_count": 2, "fail_count": 1,
                       "max_residual": 1.0}
    assert sorted(p.name for p in stale.iterdir()) == ["report.csv",
                                                      "summary.json"]
    for name in ("report.csv", "summary.json"):
        assert (stale / name).read_bytes() == (fresh / name).read_bytes()


def test_write_report_twice_is_byte_identical(tmp_path):
    out = tmp_path / "out"
    write_report(out, "demo", REPORT_ROWS)
    first = {n: (out / n).read_bytes() for n in ("report.csv",
                                                 "summary.json")}
    write_report(out, "demo", REPORT_ROWS)
    assert {n: (out / n).read_bytes() for n in first} == first
    assert sorted(p.name for p in out.iterdir()) == sorted(first)
    assert first["report.csv"].startswith(b"suite,slice_t,")
    assert first["summary.json"].endswith(b"}\n")


def test_nan_residual_is_the_max_residual(tmp_path, capsys, monkeypatch):
    # the v residual row reads NaN after a passing u row, and Python's max
    # would report that earlier number instead; no valid config overflows
    # (see the scalar-mode test below), so the NaN is planted
    real, calls = cli.linear_residual, []

    def nan_after_first(*args):
        calls.append(args)
        return real(*args) if len(calls) == 1 else math.nan

    monkeypatch.setattr(cli, "linear_residual", nan_after_first)
    code, out = run_cli(tmp_path, "solve-linear")
    assert code == 1
    rows, summary = read_report(out)
    assert [r[2] for r in rows[1:]] == ["u_interior_residual",
                                        "v_interior_residual"]
    assert rows[1][-1] == "true" and rows[2][5] == "nan"
    assert summary["fail_count"] == 1
    assert math.isnan(summary["max_residual"])
    assert "max residual nan" in capsys.readouterr().out


def test_unrepresentable_scalar_mode_exits_2(tmp_path, capsys):
    # a past-decaying scalar mode with lambda_a = 1e6 would reach about
    # 1e570 over 201 rows; it is rejected before any field is built, so
    # nothing overflows and nothing is written
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["solve-linear", "--out", str(out), "--override",
                     'jets.v={"kind": "scalar_mode", "decay": "past"}',
                     "--override", "model.lambda_a=1000000",
                     "--override", "window.t_min=-100",
                     "--override", "window.t_max=100"])
    assert code == 2
    err = capsys.readouterr().err
    assert "jets.v is a scalar mode" in err
    assert f"limit of {cli.SCALAR_MODE_LIMIT:g}" in err
    assert "Traceback" not in err
    assert not out.exists()


# --- all six suites on windows larger than the default ---

def window_overrides(half):
    return [arg for side in ("t", "x")
            for arg in ("--override", f"window.{side}_min={-half}",
                        "--override", f"window.{side}_max={half}")]


WIDE_WINDOWS = [80, 160]
# the symplectic spread has no floor: among exact zeros one cut rounds to
# 2.8e-17 at W=80 and W=160 and the spread reads 1.0 (ROADMAP item 2)
KNOWN_WIDE_FAILURES = {("slayer-sweep", "sympl_relative_spread")}


@pytest.fixture(scope="module")
def wide_reports(tmp_path_factory):
    """Reports of all six suites per window half-width, run once each."""
    cache = {}

    def run(half):
        if half not in cache:
            root = tmp_path_factory.mktemp(f"w{half}")
            cache[half] = {}
            for suite in ALL_SUITES:
                code = main([suite, "--out", str(root / suite),
                             *window_overrides(half)])
                rows, summary = read_report(root / suite)
                cache[half][suite] = (code, rows, summary)
        return cache[half]
    return run


def check_wide_report(code, rows, summary):
    assert rows[0] == list(CSV_COLUMNS)
    assert len(rows) > 1
    failed = {(r[0], r[2]) for r in rows[1:] if r[-1] != "true"}
    assert failed <= KNOWN_WIDE_FAILURES
    assert summary["fail_count"] == len(failed)
    assert code == (0 if not failed else 1)


@pytest.mark.parametrize("suite", ALL_SUITES)
def test_all_suites_at_w80(wide_reports, suite):
    check_wide_report(*wide_reports(80)[suite])


@pytest.mark.parametrize("suite", ALL_SUITES)
def test_all_suites_at_w160(wide_reports, suite):
    check_wide_report(*wide_reports(160)[suite])


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: the symplectic "
                   "spread has no floor and reads 1.0 at W=80 and W=160")
@pytest.mark.parametrize("half", WIDE_WINDOWS)
def test_sympl_relative_spread_at_wide_window(wide_reports, half):
    _, rows, _ = wide_reports(half)["slayer-sweep"]
    (row,) = [r for r in rows[1:] if r[2] == "sympl_relative_spread"]
    assert row[-1] == "true"


# --- the top truncation order through the CLI ---

@pytest.mark.parametrize("half", [40, 80, 160])
def test_perturb_verify_at_top_order(tmp_path, half):
    code, out = run_cli(tmp_path, "perturb-verify",
                        "--override", f"order={MAX_ORDER}",
                        *window_overrides(half))
    assert code == 0
    rows, _ = read_report(out)
    values = {r[2]: float(r[3]) for r in rows[1:]}
    m = MAX_ORDER
    # by the grading, only p = m admits terms: both routes give exact zeros
    for q in range(1, m):
        for route in ("family", "oracle"):
            assert values[f"{route}[m={m},p={q}]"] == 0.0
    family = values[f"family[m={m},p={m}]"]
    oracle = values[f"oracle[m={m},p={m}]"]
    assert abs(family - oracle) <= DEFAULT_CONFIG["tolerances"]["family"]
    assert all(r[-1] == "true" for r in rows[1:])


@pytest.mark.parametrize("order", range(1, MAX_ORDER + 1))
def test_perturb_verify_builds_the_series_once(tmp_path, monkeypatch, order):
    # one oracle call reads every order off one set of generating
    # polynomials: one ring of each size, one volume exponential and one
    # pair exponential for the single interface offset of the past cut
    counts = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cli, "taylor_oracle_I",
                        counted("oracle", cli.taylor_oracle_I))
    monkeypatch.setattr(PolyRing, "exp", counted("exp", PolyRing.exp))
    monkeypatch.setattr(PolyRing, "create", classmethod(
        counted("create", PolyRing.create.__func__)))
    code, _ = run_cli(tmp_path, "perturb-verify", "--override",
                      f"order={order}")
    assert code == 0
    assert counts == {"oracle": 1, "exp": 2, "create": 2}


def test_order_above_the_top_order_rejected(tmp_path, capsys):
    code = main(["perturb-verify", "--out", str(tmp_path / "x"),
                 "--override", f"order={MAX_ORDER + 1}"])
    assert code == 2
    assert f"1..{MAX_ORDER}" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


# --- config assembly ---

def test_config_file_merges_over_defaults(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "jets": {"u": {"amplitude": 0.1},
                 "probe": None},
        "slices": {"start": -2, "stop": 2},
    }))
    parsed = load_config(cfg, [], None, "slayer-sweep")
    assert parsed.specs["u"]["amplitude"] == 0.1
    assert parsed.specs["u"]["kind"] == "right_mover"  # inherited
    assert parsed.probe is None
    assert parsed.slices == range(-2, 3)


def test_flag_beats_file_beats_default(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 7, "draws": 3}))
    parsed = load_config(cfg, ["draws=5"], 11, "greens-verify")
    assert parsed.seed == 11
    assert parsed.draws == 5


def test_tabulated_profile(tmp_path):
    code, _ = run_cli(tmp_path, "solve-linear",
                      "--override", 'jets.u.profile={"0": 0.1, "-2": 0.05}')
    assert code == 0


def test_override_parses_json_values():
    data = {"a": {"b": 1}, "c": True}
    _apply_override(data, "a.b=2.5")
    _apply_override(data, "c=false")
    _apply_override(data, "a.name=plain text")
    assert data == {"a": {"b": 2.5, "name": "plain text"}, "c": False}
    with pytest.raises(ConfigError):
        _apply_override(data, "a.b.c=1")


def test_jet_spec_span():
    spec = _parse_jet_spec({"kind": "left_mover", "center": -4, "width": 5,
                            "amplitude": 0.1}, "jets.v")
    assert spec["span"] == 6
    spec = _parse_jet_spec({"kind": "right_mover",
                            "profile": {"-7": 0.1, "2": 0.3}}, "jets.u")
    assert spec["span"] == 7


def test_default_config_is_self_consistent():
    parsed = load_config(None, [], None, "slayer-sweep")
    assert parsed.params.nu == parsed.params.balanced_nu
    assert parsed.window.shape == (81, 81)


# --- determinism ---

def test_reports_are_byte_identical_across_runs(tmp_path):
    args = ["greens-verify", "--override", "draws=3", "--seed", "4"]
    code1, out1 = run_cli(tmp_path / "a", *args)
    code2, out2 = run_cli(tmp_path / "b", *args)
    assert code1 == code2 == 0
    assert (out1 / "report.csv").read_bytes() == \
        (out2 / "report.csv").read_bytes()
    assert (out1 / "summary.json").read_bytes() == \
        (out2 / "summary.json").read_bytes()


def test_seed_changes_the_draws(tmp_path):
    _, out1 = run_cli(tmp_path / "a", "greens-verify",
                      "--override", "draws=2", "--seed", "0")
    _, out2 = run_cli(tmp_path / "b", "greens-verify",
                      "--override", "draws=2", "--seed", "1")
    assert (out1 / "report.csv").read_bytes() != \
        (out2 / "report.csv").read_bytes()


# --- greens-verify: two Green's applications per draw ---

def greens_verify_four_applications(cfg):
    """greens-verify as it was built before: each draw applies all four
    choices, each with its own greens_residual."""
    p, window = cfg.params, cfg.window
    box = Region.from_box(window, -3, 3, -3, 3)
    rng = np.random.default_rng(cfg.seed)
    rows = []
    for draw in range(cfg.draws):
        b = window.zeros()
        w_phi = window.zeros()
        b[box.mask] = 0.05 * rng.standard_normal(box.site_count())
        w_phi[box.mask] = 0.05 * rng.standard_normal(box.site_count())
        w = DualJet(window, b, w_phi)
        outs = {}
        for vk in ("retarded", "advanced"):
            for sk in ("banded_solve", "frequency"):
                choice = linear.GreensChoice(vector_kind=vk, scalar_kind=sk)
                outs[(vk, sk)] = linear.greens_apply(choice, w, p, window,
                                                     edge_check=False)
                res = linear.greens_residual(outs[(vk, sk)], w, p, window)
                rows.append(Row("greens-verify", None,
                                f"defect[{vk},{sk},draw={draw:02d}]",
                                res, 0.0, cfg.tolerances["greens"]))
        for vk in ("retarded", "advanced"):
            lo = outs[(vk, "banded_solve")]
            hi = outs[(vk, "frequency")]
            gap = max(float(np.abs(lo.a - hi.a).max()),
                      float(np.abs(lo.u_phi - hi.u_phi).max()))
            rows.append(Row("greens-verify", None,
                            f"backend_agreement[{vk},draw={draw:02d}]",
                            gap, 0.0, cfg.tolerances["backend_agreement"]))
    return rows


@pytest.mark.parametrize("window", [[], _window_overrides(-20, 30, -14, 18)],
                         ids=["81x81", "51x33"])
@pytest.mark.parametrize("seed", [5, 77])
def test_greens_verify_rows_equal_four_applications(seed, window):
    cfg = load_config(None, ["draws=3", *window], seed,
                      "greens-verify")
    got = cli.SUITES["greens-verify"](cfg)
    assert len(got) == 3 * 6
    assert got == greens_verify_four_applications(cfg)


def test_greens_verify_applies_two_choices_per_draw(monkeypatch):
    calls = {"greens_apply": 0, "delta_op_field": 0}

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counted(cli, "greens_apply")
    counted(linear, "delta_op_field")
    cfg = load_config(None, ["draws=3"], None, "greens-verify")
    cli.SUITES["greens-verify"](cfg)
    assert calls == {"greens_apply": 6, "delta_op_field": 6}


def test_greens_verify_solves_the_support_columns_only(monkeypatch):
    # the sources sit on the centred support box: each scalar backend gets
    # its columns plus one all-zero column standing in for the other 314
    widths = collections.defaultdict(list)

    def recorded(name):
        real = getattr(linear, name)

        def wrapper(b, p):
            widths[name].append(b.shape[1])
            return real(b, p)
        monkeypatch.setattr(linear, name, wrapper)

    recorded("_scalar_green_banded")
    recorded("_scalar_green_frequency")
    cfg = load_config(None, ["draws=3", *_window_overrides(-160, 160, -160,
                                                           160)],
                      None, "greens-verify")
    cli.SUITES["greens-verify"](cfg)
    assert widths == {"_scalar_green_banded": [2 * cli.SUPPORT_HALF + 2] * 3,
                      "_scalar_green_frequency":
                          [2 * cli.SUPPORT_HALF + 2] * 3}


def record_engine_calls(monkeypatch):
    """Per stencil_contraction call: (window, [(gathered, sites)]).

    Each slot_factor_maps call made inside it adds whether its sites were
    gathered index arrays or a block, and how many sites it evaluated.
    """
    calls = []
    inside = []
    real_contraction = jets.stencil_contraction
    real_maps = jets.slot_factor_maps

    def contraction(p, window, factors):
        calls.append((window, []))
        inside.append(True)
        try:
            return real_contraction(p, window, factors)
        finally:
            inside.pop()

    def maps(factors, x_sites, y_sites, rows):
        if inside:
            calls[-1][1].append((isinstance(x_sites, np.ndarray),
                                 rows[0].size))
        return real_maps(factors, x_sites, y_sites, rows)

    monkeypatch.setattr(jets, "stencil_contraction", contraction)
    monkeypatch.setattr(jets, "slot_factor_maps", maps)
    return calls


def window_pairs(window):
    # the (site, offset) pairs of a window: the five shift blocks
    n_t, n_x = window.shape
    return sum((n_t - abs(dt)) * (n_x - abs(dx)) for dt, dx in STENCIL_OFFSETS)


def test_hierarchy_w160_takes_the_live_pairs(monkeypatch):
    # the default seeds are wave bands on 2.2% of the W=160 window and every
    # order-3 variation has a seed factor: each call of the build gathers
    # its live pairs, at most 3% of the window's pairs
    calls = record_engine_calls(monkeypatch)
    cfg = load_config(None, _window_overrides(-160, 160, -160, 160), None,
                      "perturb-verify")
    build_hierarchy(cfg.u, cfg.v, 3, cfg.greens, cfg.params, cfg.window)
    assert len(calls) == 2 + 13  # the two seed residuals, 13 variations
    total = window_pairs(cfg.window)
    for window, maps in calls:
        assert window == cfg.window
        assert maps and all(gathered for gathered, _ in maps)
        assert sum(sites for _, sites in maps) <= 0.03 * total


@pytest.mark.parametrize("suites, window", [
    (list(cli.SUITES), []),
    (["greens-verify"], _window_overrides(-160, 160, -160, 160))],
    ids=["all-w40", "greens-verify-w160"])
def test_dense_and_small_calls_keep_the_blocks(monkeypatch, suites, window):
    # every call of the W=40 suites, and greens-verify's defect calls on
    # the Green's images, 28% live at W=160, evaluate whole blocks
    calls = record_engine_calls(monkeypatch)
    for suite in suites:
        cli.SUITES[suite](load_config(None, window, None, suite))
    assert calls
    for _, maps in calls:
        assert maps and not any(gathered for gathered, _ in maps)


def has_mallopt():
    try:
        ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    return True


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc" or not has_mallopt(),
                    reason="the C library is not glibc or has no mallopt")
def test_second_w160_call_recycles_freed_fields(tmp_path):
    # the first call pins glibc's thresholds and grows the heap; the second
    # reuses the freed fields. A second perturb-verify at W=160 took about
    # 12,000 minor faults with the default thresholds, which hand each
    # freed 824 KB field back to the kernel, and 0 to about 520 pinned
    # (2-vCPU x86-64, glibc 2.36)
    argv = ["perturb-verify", *window_overrides(160)]
    assert main([*argv, "--out", str(tmp_path / "first")]) == 0
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    assert main([*argv, "--out", str(tmp_path / "second")]) == 0
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 1000, faults


def test_slayer_sweep_finds_interface_sites_once_per_cut(monkeypatch):
    # six interface sums per cut share one set of interface sites
    regions = []
    real = space.pair_masks

    def counted(omega):
        regions.append(omega)
        return real(omega)
    monkeypatch.setattr(space, "pair_masks", counted)
    cfg = load_config(None, [], None, "slayer-sweep")
    cli.SUITES["slayer-sweep"](cfg)
    # the list keeps every region alive, so their ids are distinct
    assert len(regions) == len(cfg.slices)
    assert len({id(omega) for omega in regions}) == len(regions)


def test_row_judgement():
    row = Row("s", None, "q", 1.0, 1.0 + 5e-11, 1e-10)
    assert row.passed
    assert row.residual == pytest.approx(5e-11)
    assert not Row("s", 3, "q", 1.0, 2.0, 1e-10).passed


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "surflat.cli", "solve-linear",
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "solve-linear" in proc.stdout


def test_readme_config_block_is_the_default_config():
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text().split("### Config schema", 1)[1]
    block = section.split("```json\n", 1)[1].split("```", 1)[0]
    assert json.loads(block) == DEFAULT_CONFIG


def test_default_config_covers_all_documented_keys():
    assert set(DEFAULT_CONFIG) == {"model", "force_nu", "window", "jets",
                                   "greens", "slices", "order", "draws",
                                   "modifiers", "seed", "tolerances"}
