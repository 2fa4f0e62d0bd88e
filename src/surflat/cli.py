"""Experiment harness: run the verification suites from a JSON config.

Each subcommand builds the configured couplings, window, and jets, runs one
suite, and writes <out>/report.csv plus <out>/summary.json. Every CSV row
carries the tolerance it was judged against. The process exits 0 when all
rows pass, 1 on a numerical failure, and 2 when the configuration itself is
invalid. Runs are deterministic: the same config produces byte-identical
reports.

SCHEMA is the one table of config fields: each field's default (from which
DEFAULT_CONFIG is derived) and the check its value must pass. _validate
keeps only the rules that relate fields to each other.
"""

from __future__ import annotations

import argparse
import copy
import csv
import ctypes
import dataclasses
import functools
import json
import math
import pathlib
import sys

import numpy as np
# numpy 2 loads numpy.random on first use; load it with the package instead
import numpy.random  # noqa: F401

from .errors import (ConfigError, InvalidJetError, RangeError,
                     TruncationError, UnsupportedOrderError)
from .jets import GATHER_MIN_SITES, DualJet, Jet
from .lagrangian import MAX_ORDER, ModelParams, el_check
from .linear import (SCALAR_GREENS, WAVE_STEPS, GreensChoice,
                     RankOneModifier, ScalarStack, box_defect,
                     check_scalar_symbol, cone_defect, greens_defects,
                     linear_residual, scalar_roots,
                     scalar_solution, wave_green, wave_solution)
from .perturb import build_hierarchy, family_taylor_I, taylor_oracle_I
from .slayer import greens_dependence_check, slayer_sweep
from .space import Window, past_region

JET_KINDS = ("right_mover", "left_mover", "scalar_mode", "bump")
SOLUTION_KINDS = ("right_mover", "left_mover", "scalar_mode")
WAVE_KINDS = ("right_mover", "left_mover")

# suites whose identities assume the balanced volume coupling
NU_SENSITIVE = ("slayer-sweep", "perturb-verify", "greens-dependence")
# suites that apply a scalar Green's operator
GREENS_SUITES = ("greens-verify", "slayer-sweep", "perturb-verify",
                 "greens-dependence")

# magnitude bound on every real-valued config number (see Field.check)
NUMBER_LIMIT = 1e6
# largest window, in sites: 1001 x 1001, about ten times the 321 x 321
# windows of the benchmark; checked before any field is allocated
MAX_WINDOW_SITES = 1001 * 1001
# largest |value| a scalar mode may take on the window, so that the product
# of two such values stays finite; the default probe reaches 3.3e148 on the
# largest window
SCALAR_MODE_LIMIT = 1e150
# greens-verify draws its sources on the centered box of this half-width
SUPPORT_HALF = 3
# greens-verify holds every draw and solves their scalar parts in one stack
# of 2 * SUPPORT_HALF + 1 columns per draw and one more, over the window's
# rows: at most this many draws, so that on a 1001 x 1001 window
# (MAX_WINDOW_SITES) the stack holds 1001 x 7001 doubles, about 56 MB
MAX_DRAWS = 1000

# glibc's malloc parameters (mallopt(3)) and the values main pins them to:
# the largest its own dynamic threshold rule reaches on 64-bit hosts
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
HEAP_MMAP_THRESHOLD = 32 << 20
HEAP_TRIM_THRESHOLD = 64 << 20

CSV_COLUMNS = ("suite", "slice_t", "quantity", "value", "reference",
               "residual", "tolerance", "pass")


@dataclasses.dataclass(frozen=True)
class Field:
    """One config field: its default and the check its value must pass.

    type is bool, int (within lo..hi), float (finite, at most NUMBER_LIMIT
    in magnitude, above zero if positive), str (one of choices) or dict (a
    jet spec, see JET_FIELDS). A nullable field may be null or absent.
    """

    default: object
    type: type
    lo: float = -math.inf
    hi: float = math.inf
    choices: tuple = ()
    positive: bool = False
    nullable: bool = False

    def check(self, value, where: str):
        if value is None and self.nullable:
            return None
        if self.type is dict:
            return _parse_jet_spec(value, where)
        if self.choices:
            if value not in self.choices:
                raise ConfigError(f"{where} must be one of "
                                  f"{', '.join(self.choices)}, got {value!r}")
            return value
        # Python counts true and false as integers; the config does not
        types = (int, float) if self.type is float else self.type
        if not isinstance(value, types) or (isinstance(value, bool)
                                            and self.type is not bool):
            raise ConfigError(
                f"{where} must be {TYPE_NOUNS[self.type]}, got {value!r}")
        if self.type is int and not self.lo <= value <= self.hi:
            bound = (f"lie in {self.lo}..{self.hi}" if self.hi < math.inf
                     else f"be >= {self.lo}")
            raise ConfigError(f"{where} must {bound}, got {value}")
        if self.type is not float:
            return value
        # JSON parsing lets NaN, Infinity and integers too large for a float
        # through. The suites multiply up to MAX_ORDER + 1 configured numbers
        # (jet amplitudes in the hierarchy, couplings in the scalar symbol),
        # so a bound far above any meaningful setting keeps every such
        # product finite.
        if not abs(value) <= NUMBER_LIMIT:  # also false for NaN
            raise ConfigError(f"{where} must be a finite number of magnitude "
                              f"at most {NUMBER_LIMIT:g}, got {value!r}")
        if self.positive and value <= 0:
            raise ConfigError(f"{where} must be positive, got {value!r}")
        return float(value)


TYPE_NOUNS = {bool: "true or false", int: "an integer", float: "a number"}

SCHEMA = {
    "model": {"lambda_a": Field(5.0, float), "lambda_i": Field(2.0, float),
              "delta": Field(1.0, float), "epsilon": Field(0.2, float),
              "nu": Field(None, float, nullable=True)},
    "force_nu": Field(False, bool),
    "window": {"t_min": Field(-40, int), "t_max": Field(40, int),
               "x_min": Field(-40, int), "x_max": Field(40, int)},
    "jets": {"u": Field({"kind": "right_mover", "center": 3, "width": 7,
                         "amplitude": 0.2}, dict),
             "v": Field({"kind": "left_mover", "center": -3, "width": 7,
                         "amplitude": 0.25}, dict),
             "probe": Field({"kind": "scalar_mode", "center": 0, "width": 7,
                             "amplitude": 0.01, "decay": "past"}, dict,
                            nullable=True)},
    "greens": {"vector_kind": Field(GreensChoice.vector_kind, str,
                                    choices=tuple(WAVE_STEPS)),
               "scalar_kind": Field(GreensChoice.scalar_kind, str,
                                    choices=tuple(SCALAR_GREENS))},
    "slices": {"start": Field(-5, int), "stop": Field(5, int)},
    "order": Field(3, int, lo=1, hi=MAX_ORDER),
    "draws": Field(20, int, lo=1, hi=MAX_DRAWS),
    "modifiers": Field(5, int, lo=1),
    "seed": Field(0, int, lo=0),
    "tolerances": {name: Field(tol, float, positive=True) for name, tol in (
        ("el", 1e-12), ("solution_residual", 1e-10), ("greens", 1e-10),
        ("backend_agreement", 1e-9), ("closed_form", 1e-12),
        ("conservation", 1e-10), ("family", 1e-9), ("dependence", 1e-10))},
}

# the fields of a jet spec, with the value an omitted field takes; decay
# belongs to scalar_mode only, and _parse_jet_spec reads an optional profile
# whose values are checked like amplitudes
JET_FIELDS = {"kind": Field(None, str, choices=JET_KINDS),
              "center": Field(0, int), "width": Field(1, int, lo=1),
              "amplitude": Field(1.0, float),
              "decay": Field("past", str, choices=("past", "future"))}


def _defaults(schema: dict) -> dict:
    return {key: _defaults(field) if isinstance(field, dict)
            else copy.deepcopy(field.default)
            for key, field in schema.items()}


DEFAULT_CONFIG = _defaults(SCHEMA)


@dataclasses.dataclass(frozen=True)
class Row:
    """One judged quantity of a suite run."""

    suite: str
    slice_t: int | None
    quantity: str
    value: float
    reference: float
    tolerance: float

    @property
    def residual(self) -> float:
        return abs(self.value - self.reference)

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    params: ModelParams
    window: Window
    u: Jet
    v: Jet
    probe: Jet | None
    greens: GreensChoice
    slices: range
    order: int
    draws: int
    modifiers: int
    seed: int
    tolerances: dict


def _expect_keys(section: dict, where: str, allowed, required=()):
    unknown = set(section) - set(allowed)
    if unknown:
        raise ConfigError(f"{where} has unknown fields {sorted(unknown)}")
    missing = set(required) - set(section)
    if missing:
        raise ConfigError(f"{where} is missing fields {sorted(missing)}")


def _walk(schema: dict, data, path: str = "") -> dict:
    """Check one config section against its schema; return parsed values."""
    where = path or "config"
    if not isinstance(data, dict):
        raise ConfigError(f"{where} must be an object, got {data!r}")
    _expect_keys(data, where, schema, [
        key for key, field in schema.items()
        if isinstance(field, dict) or not field.nullable])
    out = {}
    for key, field in schema.items():
        inner = f"{path}.{key}" if path else key
        out[key] = (_walk(field, data[key], inner) if isinstance(field, dict)
                    else field.check(data.get(key), inner))
    return out


def _bump_values(center: int, width: int, amplitude: float) -> dict:
    half = (width + 1) / 2.0
    reach = (width - 1) // 2
    return {center + k: amplitude * (1.0 - (k / half) ** 2) ** 2
            for k in range(-reach, reach + 1)}


def _parse_jet_spec(spec, where: str) -> dict:
    if not isinstance(spec, dict):
        raise ConfigError(f"{where} must be an object, got {spec!r}")
    out = {key: field.check(spec.get(key, field.default), f"{where}.{key}")
           for key, field in JET_FIELDS.items()}
    allowed = {*JET_FIELDS, "profile"}
    if out["kind"] != "scalar_mode":
        allowed.remove("decay")
    _expect_keys(spec, where, allowed)
    profile = spec.get("profile")
    if profile is None:
        out["profile"] = None
        out["span"] = abs(out["center"]) + (out["width"] - 1) // 2
        return out
    if not isinstance(profile, dict) or not profile:
        raise ConfigError(
            f"{where}.profile must be a non-empty object of site -> value")
    parsed, keys = {}, {}
    for key, val in profile.items():
        try:
            site = int(key)
        except (TypeError, ValueError):
            raise ConfigError(
                f"{where}.profile key {key!r} is not an integer site"
            ) from None
        if site in keys:
            raise ConfigError(f"{where}.profile keys {keys[site]!r} and "
                              f"{key!r} both name site {site}")
        keys[site] = key
        parsed[site] = JET_FIELDS["amplitude"].check(
            val, f"{where}.profile[{key}]")
    out["profile"] = parsed
    out["span"] = max(abs(site) for site in parsed)
    return out


def _build_jet(spec: dict, params: ModelParams, window: Window) -> Jet:
    """Realize a jet spec on the window.

    Movers synthesize a quartic bump over the diagonal coordinate from
    center/width/amplitude unless an explicit tabulated profile is given
    (then its values are taken literally). scalar_mode uses the profile as
    spatial weights scaled by amplitude at t = 0. bump is a localized
    non-solution scalar hump, useful for exercising failure paths.
    """
    kind = spec["kind"]
    if spec["profile"] is not None:
        profile = dict(spec["profile"])
    elif kind == "scalar_mode":
        profile = _bump_values(spec["center"], spec["width"], 1.0)
    else:
        profile = _bump_values(spec["center"], spec["width"],
                               spec["amplitude"])
    if kind == "right_mover":
        return wave_solution({}, profile, window)
    if kind == "left_mover":
        return wave_solution(profile, {}, window)
    if kind == "scalar_mode":
        return scalar_solution(spec["amplitude"], params, window,
                               decay=spec["decay"], profile=profile)
    a = window.zeros()
    for t, tv in _bump_values(0, spec["width"], 1.0).items():
        for x, xv in profile.items():
            a[window.index(t, x)] = tv * xv
    return Jet(window, a, window.zeros())


def _merge(base: dict, incoming: dict):
    for key, val in incoming.items():
        if key in base and isinstance(base[key], dict) and isinstance(val,
                                                                      dict):
            _merge(base[key], val)
        else:
            base[key] = val


def _apply_override(data: dict, text: str):
    key, sep, raw = text.partition("=")
    if not sep or not key:
        raise ConfigError(f"override {text!r} is not of the form key=value")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    except ValueError as exc:
        # an integer literal beyond the interpreter's digit limit
        raise ConfigError(f"override {key!r}: {exc}") from None
    node = data
    parts = key.split(".")
    for part in parts[:-1]:
        if not isinstance(node.get(part), dict):
            raise ConfigError(
                f"override path {key!r} does not reach a config section")
        node = node[part]
    node[parts[-1]] = value


def load_config(path, overrides, seed, suite: str) -> ExperimentConfig:
    """Assemble the effective config: defaults, then file, then overrides."""
    data = copy.deepcopy(DEFAULT_CONFIG)
    if path is not None:
        try:
            text = pathlib.Path(path).read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file: {exc}") from None
        try:
            incoming = json.loads(text)
        except ValueError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") \
                from None
        if not isinstance(incoming, dict):
            raise ConfigError("config top level must be a JSON object")
        _merge(data, incoming)
    for text in overrides:
        _apply_override(data, text)
    if seed is not None:
        data["seed"] = seed
    return _validate(data, suite)


def _construct(make, *args, **kwargs):
    """Call a domain constructor or check, which raises ValueError."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:  # RangeError and InvalidJetError included
        raise ConfigError(str(exc)) from None


def _validate(data: dict, suite: str) -> ExperimentConfig:
    """Check each field against SCHEMA, then the rules that relate them."""
    fields = _walk(SCHEMA, data)
    params = _construct(ModelParams, **fields["model"])
    if (suite in NU_SENSITIVE and not fields["force_nu"]
            and params.nu != params.balanced_nu):
        raise ConfigError(
            f"nu={params.nu} breaks the volume balance that {suite} relies "
            f"on (balanced value {params.balanced_nu}); set force_nu to run "
            f"anyway")
    if suite in GREENS_SUITES:
        _construct(check_scalar_symbol, params)

    window = _construct(Window, **fields["window"])
    if window.shape[0] < 3 or window.shape[1] < 3:
        raise ConfigError(
            f"window {window} has no interior site on some axis")
    if window.shape[0] * window.shape[1] > MAX_WINDOW_SITES:
        raise ConfigError(
            f"window {window} has {window.shape[0] * window.shape[1]} sites, "
            f"more than the limit of {MAX_WINDOW_SITES}")

    specs = {name: spec for name, spec in fields["jets"].items()
             if spec is not None}
    for name in ("u", "v"):
        kind = specs[name]["kind"]
        if suite == "slayer-sweep" and kind not in WAVE_KINDS:
            raise ConfigError(
                f"jets.{name} must be a wave kind for {suite} (the bilinear "
                f"forms take vanishing-scalar jets), got {kind!r}")
        if (suite in ("perturb-verify", "greens-dependence")
                and kind not in SOLUTION_KINDS):
            raise ConfigError(
                f"jets.{name} must solve the linearized equation for "
                f"{suite}, got kind {kind!r}")

    order = fields["order"]
    span = max(spec["span"] for spec in specs.values())
    margin = min(window.t_max, -window.t_min, window.x_max, -window.x_min)
    if margin < order + span:
        raise ConfigError(
            f"window margin {margin} is smaller than truncation order "
            f"{order} plus jet span {span}; enlarge the window or shrink "
            f"the jets")
    if suite == "greens-verify" and not (
            window.contains(-SUPPORT_HALF, -SUPPORT_HALF)
            and window.contains(SUPPORT_HALF, SUPPORT_HALF)):
        raise ConfigError(
            f"window {window} cannot hold the centered support box of "
            f"half-width {SUPPORT_HALF}")
    # greens-verify's scalar stack, rows x (a box width per draw and one),
    # holds at most what MAX_DRAWS draws hold on the largest square window
    width = 2 * SUPPORT_HALF + 1
    stack = window.shape[0] * (width * fields["draws"] + 1)
    limit = math.isqrt(MAX_WINDOW_SITES) * (width * MAX_DRAWS + 1)
    if suite == "greens-verify" and stack > limit:
        raise ConfigError(
            f"greens-verify's scalar stack of {fields['draws']} draws on "
            f"{window.shape[0]} rows, {stack} doubles, is above the limit "
            f"of {limit}")

    start, stop = fields["slices"]["start"], fields["slices"]["stop"]
    try:
        if window.cut_row(start) > window.cut_row(stop):
            raise RangeError(f"start {start} above stop {stop}")
    except RangeError as exc:
        raise ConfigError(f"slice range [{start}, {stop}]: {exc}") from None

    # a scalar mode amplitude * beta(x) * z^t is largest on the first or the
    # last row (beta is the profile, else a bump peaking at 1); compared in
    # logarithms, since z^t itself may overflow
    roots = dict(zip(("future", "past"), scalar_roots(params)))
    for name, spec in specs.items():
        weights = spec["profile"].values() if spec["profile"] else [1.0]
        peak = abs(spec["amplitude"]) * max(map(abs, weights))
        if spec["kind"] != "scalar_mode" or peak == 0.0:
            continue
        log_z = math.log(abs(roots[spec["decay"]]))
        log_peak = math.log(peak) + max(window.t_min * log_z,
                                        window.t_max * log_z)
        if log_peak > math.log(SCALAR_MODE_LIMIT):
            raise ConfigError(
                f"jets.{name} is a scalar mode reaching about "
                f"1e{log_peak / math.log(10):.0f} on the window rows, above "
                f"the limit of {SCALAR_MODE_LIMIT:g}")

    jets = {name: _construct(_build_jet, spec, params, window)
            for name, spec in specs.items()}
    return ExperimentConfig(
        params=params, window=window, u=jets["u"], v=jets["v"],
        probe=jets.get("probe"),
        greens=_construct(GreensChoice, **fields["greens"]),
        slices=range(start, stop + 1), order=order, draws=fields["draws"],
        modifiers=fields["modifiers"], seed=fields["seed"],
        tolerances=fields["tolerances"])


def _run_check_el(cfg: ExperimentConfig) -> list:
    tol = cfg.tolerances["el"]
    rep = el_check(cfg.params, cfg.window)
    rows = [Row("check-el", None, "interior_max_abs", rep.max_abs_base,
                0.0, tol)]
    for phi in rep.sampled:
        rows.append(Row("check-el", None, f"fiber_min[phi={phi:+.4f}]",
                        rep.sampled[phi], rep.reference[phi], tol))
    # the functional must stay nonnegative over the sampled fiber angles
    rows.append(Row("check-el", None, "fiber_negative_part",
                    min(0.0, rep.min_sampled), 0.0, tol))
    return rows


def _run_solve_linear(cfg: ExperimentConfig) -> list:
    tol = cfg.tolerances["solution_residual"]
    rows = []
    for name in ("u", "v"):
        res = linear_residual(getattr(cfg, name), cfg.params)
        rows.append(Row("solve-linear", None, f"{name}_interior_residual",
                        res, 0.0, tol))
    return rows


def _run_greens_verify(cfg: ExperimentConfig) -> list:
    """Defining-property residuals for randomized dual jets.

    Each draw is checked against every combination of vector kind and scalar
    backend; the two scalar backends are also compared against each other.
    The edge check is off: this suite judges the interior property only.
    Scalar backend and wave kind never mix (greens_defects), so two
    applications run every backend, and a combination's defect, the larger
    of its backend's scalar and its wave kind's angular defect, is bitwise
    its own greens_residual. The box values of every draw are drawn first;
    each backend then solves the scalar parts of all draws in one stack
    (ScalarStack), and the draws are checked one at a time, each draw's
    full-window fields built only while it is checked. The backend gap is
    read off the two scalar outputs the check already holds: the largest
    |banded - frequency| over them, 0.0 when the draw has no live column.

    On a window under jets.GATHER_MIN_SITES sites each check is one
    greens_defects call. On a larger one each component is checked where
    the draw lives, with no scan of the window (linear.box_defect): the
    scalar output on the stack's live columns of the draw framed by one
    stand-in column on each side (ScalarStack.framed), and the angle on the
    light cone of the source box (linear.cone_defect), three row bands from
    the row before the box in stepping order, each as wide as the cone at
    its widest row plus one column on each side. The operator runs on these
    boxes only, and the jets it builds there know their zero component, so
    only the D-series coefficients that can be nonzero are computed
    (jets' "Dead coefficients").
    """
    p, window = cfg.params, cfg.window
    n_t, n_x = window.shape
    (t0, x0), (t1, x1) = (window.index(-SUPPORT_HALF, -SUPPORT_HALF),
                          window.index(SUPPORT_HALF, SUPPORT_HALF))
    box_rows, box_cols = slice(t0, t1 + 1), slice(x0, x1 + 1)
    shape = (t1 - t0 + 1, x1 - x0 + 1)
    rng = np.random.default_rng(cfg.seed)
    values = [(0.05 * rng.standard_normal(shape),
               0.05 * rng.standard_normal(shape)) for _ in range(cfg.draws)]

    def field(vals, cols=slice(0, n_x)):
        # the box values as a field over every row and the window's columns
        # cols; box columns outside cols must hold no set bit, as outside
        # the stack's live columns
        out = np.zeros((n_t, cols.stop - cols.start))
        lo, hi = max(x0, cols.start), min(x1 + 1, cols.stop)
        out[box_rows, lo - cols.start:hi - cols.start] = \
            vals[:, lo - x0:hi - x0]
        return out

    stacks = {sk: ScalarStack(sk, (field(b) for b, _ in values), p)
              for sk in SCALAR_GREENS}

    # two applications pair each wave kind with one backend
    def whole_window(draw, b, w_phi):
        w = DualJet(window, field(b), field(w_phi))
        scalar, angular, outs = {}, {}, []
        for vk, sk in zip(WAVE_STEPS, SCALAR_GREENS):
            outs.append(stacks[sk].field(draw))
            out = Jet(window, outs[-1], wave_green(w.w_phi, vk))
            scalar[sk], angular[vk] = greens_defects(out, w, p)
        return scalar, angular, outs

    def on_support(draw, b, w_phi):
        phi = field(w_phi)
        scalar, angular, outs = {}, {}, []
        for vk, sk in zip(WAVE_STEPS, SCALAR_GREENS):
            framed = stacks[sk].framed(draw)
            if framed is None:
                scalar[sk] = 0.0
            else:
                # the stacks share their columns
                cols, out = framed
                if not outs:
                    b_strip = field(b, cols)
                outs.append(out)
                scalar[sk] = box_defect(window, 0, out, b_strip,
                                        (slice(0, n_t), cols), p)
            angular[vk] = cone_defect(window, wave_green(phi, vk), phi, vk,
                                      (box_rows, box_cols), p)
        return scalar, angular, outs

    check = whole_window if n_t * n_x < GATHER_MIN_SITES else on_support
    rows = []
    for draw, (b, w_phi) in enumerate(values):
        scalar, angular, outs = check(draw, b, w_phi)
        for vk in WAVE_STEPS:
            for sk in SCALAR_GREENS:
                rows.append(Row("greens-verify", None,
                                f"defect[{vk},{sk},draw={draw:02d}]",
                                float(np.maximum(scalar[sk],
                                                 angular[vk])), 0.0,
                                cfg.tolerances["greens"]))
        # outputs of one wave kind share their angle field, and off the
        # draw's live columns both scalar outputs are +-0
        gap = float(np.abs(outs[0] - outs[1]).max()) if outs else 0.0
        for vk in WAVE_STEPS:
            rows.append(Row("greens-verify", None,
                            f"backend_agreement[{vk},draw={draw:02d}]",
                            gap, 0.0, cfg.tolerances["backend_agreement"]))
    return rows


def _run_slayer_sweep(cfg: ExperimentConfig) -> list:
    tol = cfg.tolerances
    report = slayer_sweep(cfg.u, cfg.v, cfg.slices, cfg.greens, cfg.params,
                          scalar_probe=cfg.probe)
    rows = []
    for s in report.slices:
        rows.append(Row("slayer-sweep", s.slice_t, "i1_balance",
                        s.i1_surface, s.i1_volume, tol["conservation"]))
        rows.append(Row("slayer-sweep", s.slice_t, "sympl_closed_form",
                        s.sympl, s.sympl_closed, tol["closed_form"]))
        rows.append(Row("slayer-sweep", s.slice_t, "symm_closed_form",
                        s.symm_surface, s.symm_surface_closed,
                        tol["closed_form"]))
        rows.append(Row("slayer-sweep", s.slice_t, "symm_volume_identity",
                        s.symm_surface, s.symm_volume, tol["conservation"]))
    rows.append(Row("slayer-sweep", None, "sympl_relative_spread",
                    report.relative_spread("sympl"), 0.0,
                    tol["conservation"]))
    return rows


def _run_perturb_verify(cfg: ExperimentConfig) -> list:
    tol = cfg.tolerances["family"]
    hier = build_hierarchy(cfg.u, cfg.v, cfg.order, cfg.greens, cfg.params)
    omega = past_region(cfg.window, 0)
    oracle = taylor_oracle_I(hier, omega)
    rows = []
    for m in range(1, cfg.order + 1):
        for q in range(1, m + 1):
            fam = family_taylor_I(hier, omega, m, q)
            # by the grading the oracle vanishes off q = m
            orc = oracle[m - 1] if q == m else 0.0
            rows.append(Row("perturb-verify", None,
                            f"family[m={m},p={q}]", fam, 0.0, tol))
            rows.append(Row("perturb-verify", None,
                            f"oracle[m={m},p={q}]", orc, 0.0, tol))
            rows.append(Row("perturb-verify", None,
                            f"cross[m={m},p={q}]", fam, orc, tol))
    return rows


def _run_greens_dependence(cfg: ExperimentConfig) -> list:
    """Second-order dependence on the Green's choice, one row per kernel.

    The rank-one directions ride the future-decay scalar root, whose
    windowed first-order balance is the conserved boundary layer at the
    bottom frame; a wave direction would shift nothing. The mode is built
    on the window shifted to start at t = 0 and laid on the real one, so
    its bottom row is 1 for every root (the scalar equation does not see
    a shift in t) and no power of the root or of t_min overflows.

    The identity reads a probe only through its pairing with the source,
    so each probe component is a separable field 0.05 r (x) c, with r and
    c standard normal of lengths n_t and n_x: dense, with no zero site,
    and paired nonzero with any nonzero source with probability one. Per
    kernel the draws are, in order, b's r, b's c, w_phi's r and w_phi's c.
    """
    p, window = cfg.params, cfg.window
    n_t, n_x = window.shape
    rng = np.random.default_rng(cfg.seed)
    mode = scalar_solution(1.0, p, dataclasses.replace(
        window, t_min=0, t_max=n_t - 1), decay="future")
    direction = Jet(window, mode.a, mode.u_phi)
    omega = past_region(window, 0)

    def separable():
        return np.outer(0.05 * rng.standard_normal(n_t),
                        rng.standard_normal(n_x))

    # each probe is drawn when its kernel is used, so one is held at a time
    kernels = (RankOneModifier(DualJet(window, separable(), separable()),
                               direction)
               for _ in range(cfg.modifiers))
    pairs = greens_dependence_check(cfg.u, cfg.v, omega, kernels, p,
                                    choices=cfg.greens)
    return [Row("greens-dependence", None, f"identity[k={k}]", lhs, rhs,
                cfg.tolerances["dependence"])
            for k, (lhs, rhs) in enumerate(pairs)]


SUITES = {
    "check-el": _run_check_el,
    "solve-linear": _run_solve_linear,
    "greens-verify": _run_greens_verify,
    "slayer-sweep": _run_slayer_sweep,
    "perturb-verify": _run_perturb_verify,
    "greens-dependence": _run_greens_dependence,
}

SUITE_HELP = {
    "check-el": "field equation residuals and fiber nonnegativity",
    "solve-linear": "residuals of the configured solution jets",
    "greens-verify": "defining property of the Green's operators",
    "slayer-sweep": "surface-layer quantities over a range of cuts",
    "perturb-verify": "family derivatives against the series oracle",
    "greens-dependence": "second-order shift under a Green's kernel change",
}


def _open_new(path: pathlib.Path, newline=None):
    # Opening a file that already holds data with "w" truncates it in place,
    # and on some filesystems (ext4 mounted with online discard, for one)
    # that open alone stalls for tens of milliseconds; removing the old file
    # and creating a new one does not.
    path.unlink(missing_ok=True)
    return open(path, "w", newline=newline)


def _check_out_dir(out_dir):
    """Reject an output location that cannot take the two report files.

    Runs before the suite, so a bad --out costs nothing and writes nothing.
    """
    out_dir = pathlib.Path(out_dir)
    for node in (out_dir, *out_dir.parents):
        if node.exists():
            if not node.is_dir():
                raise ConfigError(f"--out {out_dir}: {node} is not a "
                                  f"directory")
            break
    for name in ("report.csv", "summary.json"):
        target = out_dir / name
        if (target.exists() and not target.is_symlink()
                and not target.is_file()):
            raise ConfigError(f"--out {out_dir}: {target} exists and is "
                              f"not a regular file")


def write_report(out_dir, suite: str, rows) -> dict:
    out_dir = pathlib.Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with _open_new(out_dir / "report.csv", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for r in rows:
            writer.writerow([
                r.suite,
                "" if r.slice_t is None else r.slice_t,
                r.quantity,
                repr(r.value),
                repr(r.reference),
                repr(r.residual),
                repr(r.tolerance),
                "true" if r.passed else "false",
            ])
    summary = {
        "suite": suite,
        "pass_count": sum(r.passed for r in rows),
        "fail_count": sum(not r.passed for r in rows),
        # numpy's max is NaN if any residual is; Python's keeps whichever
        # number came first
        "max_residual": float(np.max([r.residual for r in rows])),
    }
    with _open_new(out_dir / "summary.json") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return summary


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="surflat",
        description="verification suites for the lattice surface-layer "
                    "model")
    sub = parser.add_subparsers(dest="suite", required=True)
    for name, help_text in SUITE_HELP.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", default=None,
                        help="JSON config file merged over the defaults")
        sp.add_argument("--out", default="report",
                        help="directory for report.csv and summary.json")
        sp.add_argument("--override", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="set one config field, e.g. model.nu=18 or "
                             "jets.u.amplitude=0.1 (repeatable)")
        sp.add_argument("--seed", type=int, default=None,
                        help="seed for the randomized draws")
    return parser


@functools.cache
def _pin_heap():
    """Let the C allocator recycle freed fields instead of unmapping them.

    By default glibc serves blocks above its mmap threshold (128 KiB at
    start) from fresh mappings and gives them back on free, so every new
    824 KB field of a W=160 window is faulted in page by page; it raises the
    threshold only after freeing a larger such block. Pinning the threshold
    and the heap's trim threshold at the top of that rule keeps freed fields
    in the heap for reuse. Runs once, from main, so importing the package
    leaves the allocator alone; does nothing where the C library has no
    mallopt.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, HEAP_MMAP_THRESHOLD)
    mallopt(M_TRIM_THRESHOLD, HEAP_TRIM_THRESHOLD)


def main(argv=None) -> int:
    _pin_heap()
    args = build_parser().parse_args(argv)
    try:
        _check_out_dir(args.out)
        cfg = load_config(args.config, args.override, args.seed, args.suite)
        rows = SUITES[args.suite](cfg)
    except (ConfigError, InvalidJetError, RangeError, TruncationError,
            UnsupportedOrderError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2
    try:
        summary = write_report(args.out, args.suite, rows)
    except OSError as exc:
        print(f"invalid configuration: cannot write the report: {exc}",
              file=sys.stderr)
        return 2
    print(f"{args.suite}: {summary['pass_count']} passed, "
          f"{summary['fail_count']} failed, "
          f"max residual {summary['max_residual']:.3e}")
    return 0 if summary["fail_count"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
