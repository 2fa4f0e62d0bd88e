"""In-memory span tracer installed around surflat's layer functions.

The tracer replaces each traced function at every module binding that holds
it (``surflat.jets.delta_ell_field`` and ``surflat.perturb.delta_ell_field``
alike), so calls made inside the package are seen, and restores the
originals on ``uninstall``. Nothing in ``src/`` is modified.

A span is ``[name, start, end, parent, pass_id, excluded]``: ``parent`` is
the index of the enclosing span (-1 for a root) and ``excluded`` the
tracer's own bookkeeping time (input hashing, mask counting) that fell
inside the span, which every duration below subtracts.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import hashlib
import inspect
import json
import statistics
import sys
import time

import numpy as np

perf = time.perf_counter

# Plain spans: (owner, attribute, span name). The owner is a module, or
# "module:Class" for a method; a module-level function is replaced in every
# surflat module that binds it.
SPANS = (
    ("surflat.cli", "load_config", "cli.load_config"),
    ("surflat.cli", "write_report", "cli.write_report"),
    ("surflat.lagrangian", "el_check", "lagrangian.el_check"),
    ("surflat.lagrangian", "stencil_deriv_table",
     "lagrangian.stencil_deriv_table"),
    ("surflat.jets", "stencil_contraction", "jets.stencil_contraction"),
    ("surflat.jets", "slot_factor_maps", "jets.slot_factor_maps"),
    ("surflat.space", "past_region", "space.past_region"),
    ("surflat.linear", "greens_residual", "linear.greens_residual"),
    ("surflat.linear", "linear_residual", "linear.linear_residual"),
    ("surflat.perturb", "family_taylor_I", "perturb.family_taylor_I"),
    ("surflat.perturb", "taylor_oracle_I", "perturb.taylor_oracle_I"),
    ("surflat.slayer", "slayer_sweep", "slayer.slayer_sweep"),
    ("surflat.slayer", "symm_bilinear", "slayer.symm_bilinear"),
    ("surflat.slayer", "sigma", "slayer.sigma"),
    ("surflat.slayer", "i1", "slayer.i1"),
    ("surflat.slayer", "i_m", "slayer.i_m"),
    ("surflat.slayer", "greens_dependence_check",
     "slayer.greens_dependence_check"),
    ("surflat.polyseries:PolyRing", "mul", "polyseries.PolyRing.mul"),
    ("surflat.polyseries:PolyRing", "exp", "polyseries.PolyRing.exp"),
    ("surflat.polyseries:PolyRing", "create", "polyseries.PolyRing.create"),
)

# Functions too hot for a span (tens of thousands of calls per pass): only
# their calls are counted.
COUNTED = (("surflat.lagrangian", "ell", "lagrangian.ell"),)

MAIN = "cli.main"
PASS = "pass"


def value_key(obj):
    """Hashable key of an argument, comparing arrays and dataclasses by value."""
    if isinstance(obj, np.ndarray):
        arr = np.ascontiguousarray(obj)
        digest = hashlib.blake2b(arr.data, digest_size=16).hexdigest()
        return ("ndarray", arr.shape, arr.dtype.str, digest)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return (type(obj).__name__,) + tuple(
            value_key(getattr(obj, f.name)) for f in dataclasses.fields(obj))
    if isinstance(obj, (tuple, list)):
        return tuple(value_key(item) for item in obj)
    if isinstance(obj, dict):
        return tuple(sorted((k, value_key(v)) for k, v in obj.items()))
    return obj


class Tracer:
    """Spans and counters for one benchmark run.

    ``install`` patches the package, ``uninstall`` restores it; passes run
    between them record spans tagged with the current pass id.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: collections.Counter = collections.Counter()  # (pass, name)
        # per pass: input keys of greens_apply / build_hierarchy calls and
        # (useful, computed) site counts of pair_product_sum calls
        self.keys: dict = collections.defaultdict(list)
        self.sites: dict = collections.defaultdict(lambda: [0, 0])
        self.pass_id = -1
        self._stack: list[int] = []
        self._excluded = 0.0
        self._patched: list[tuple] = []
        self._last_masks = None

    # --- spans ---

    def _open(self, name: str) -> tuple[int, float]:
        parent = self._stack[-1] if self._stack else -1
        sid = len(self.spans)
        self.spans.append([name, 0.0, 0.0, parent, self.pass_id, 0.0])
        self._stack.append(sid)
        excluded = self._excluded
        self.spans[sid][1] = perf()
        return sid, excluded

    def _close(self, sid: int, excluded_at_open: float):
        end = perf()
        self._stack.pop()
        span = self.spans[sid]
        span[2] = end
        span[5] = self._excluded - excluded_at_open

    def run_pass(self, pass_id: int, body):
        """Run body() as one traced pass under a root span."""
        self.pass_id = pass_id
        sid, ex = self._open(PASS)
        try:
            body()
        finally:
            self._close(sid, ex)
        return self.spans[sid][2] - self.spans[sid][1]

    def _span_wrapper(self, fn, name_of):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid, ex = tracer._open(name_of(args, kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(sid, ex)
        return wrapper

    def _bookkeeping(self, work):
        t0 = perf()
        work()
        self._excluded += perf() - t0

    # --- special wrappers ---

    def _keyed_wrapper(self, fn, kind: str, name_of):
        """Span wrapper that also records a by-value key of the inputs."""
        sig = inspect.signature(fn)
        inner = self._span_wrapper(fn, name_of)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            def record():
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                tracer.keys[(tracer.pass_id, kind)].append(
                    value_key(dict(bound.arguments)))
            tracer._bookkeeping(record)
            return inner(*args, **kwargs)
        return wrapper

    def _pair_masks_wrapper(self, fn):
        inner = self._span_wrapper(fn, lambda a, k: "space.pair_masks")
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            masks = inner(*args, **kwargs)
            tracer._last_masks = masks
            return masks
        return wrapper

    def _pair_product_wrapper(self, fn):
        name = "jets.pair_product_sum"
        tracer = self

        @functools.wraps(fn)
        def wrapper(p, omega, factors):
            tracer._last_masks = None
            sid, ex = tracer._open(name)
            try:
                return fn(p, omega, factors)
            finally:
                tracer._close(sid, ex)

                def count():
                    # useful: interface pair sites; computed: one full-window
                    # field per slot_factor_maps call made inside this span
                    masks = tracer._last_masks or {}
                    useful = sum(int(np.count_nonzero(m))
                                 for m in masks.values())
                    maps = sum(1 for s in tracer.spans[sid + 1:]
                               if s[3] == sid
                               and s[0] == "jets.slot_factor_maps")
                    acc = tracer.sites[tracer.pass_id]
                    acc[0] += useful
                    acc[1] += maps * omega.mask.size
                    tracer._last_masks = None
                tracer._bookkeeping(count)
        return wrapper

    def _count_wrapper(self, fn, name):
        tracer = self
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[(tracer.pass_id, name)] += 1
            return fn(*args, **kwargs)
        return wrapper

    # --- patching ---

    def _targets(self):
        """(owner path, attribute, replacement factory) for every traced name."""
        def fixed(name):
            return lambda fn: self._span_wrapper(fn, lambda a, k: name)

        def first_arg(a, k, key):
            return a[0] if a else k[key]

        out = [(owner, attr, fixed(name)) for owner, attr, name in SPANS]
        out += [(owner, attr,
                 lambda fn, name=name: self._count_wrapper(fn, name))
                for owner, attr, name in COUNTED]
        out += [
            ("surflat.cli", "main",
             lambda fn: self._span_wrapper(
                 fn, lambda a, k: f"{MAIN}.{first_arg(a, k, 'argv')[0]}")),
            ("surflat.jets", "delta_ell_field",
             lambda fn: self._span_wrapper(
                 fn, lambda a, k: "jets.delta_ell_field.o"
                 f"{first_arg(a, k, 'ell_order')}")),
            ("surflat.linear", "greens_apply",
             lambda fn: self._keyed_wrapper(
                 fn, "linear.greens_apply", lambda a, k: "linear.greens_apply."
                 f"{first_arg(a, k, 'choice').scalar_kind}")),
            ("surflat.perturb", "build_hierarchy",
             lambda fn: self._keyed_wrapper(
                 fn, "perturb.build_hierarchy",
                 lambda a, k: "perturb.build_hierarchy")),
            ("surflat.space", "pair_masks", self._pair_masks_wrapper),
            ("surflat.jets", "pair_product_sum", self._pair_product_wrapper),
        ]
        return out

    def install(self):
        modules = [m for n, m in sys.modules.items()
                   if n == "surflat" or n.startswith("surflat.")]
        for owner, attr, make in self._targets():
            mod_name, _, cls_name = owner.partition(":")
            if cls_name:
                cls = getattr(sys.modules[mod_name], cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(make(raw.__func__))
                else:
                    new = make(raw)
                self._patched.append((cls, attr, raw))
                setattr(cls, attr, new)
                continue
            orig = getattr(sys.modules[owner], attr)
            new = make(orig)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        self._patched.append((mod, name, orig))
                        setattr(mod, name, new)

    def uninstall(self):
        for owner, name, orig in reversed(self._patched):
            setattr(owner, name, orig)
        self._patched.clear()

    # --- results ---

    def durations(self):
        """Per span: duration without bookkeeping, and self time."""
        dur = [s[2] - s[1] - s[5] for s in self.spans]
        child = [0.0] * len(self.spans)
        for i, s in enumerate(self.spans):
            if s[3] >= 0:
                child[s[3]] += dur[i]
        return dur, [d - c for d, c in zip(dur, child)]

    def per_pass(self, pass_ids):
        """Per-layer totals of each traced pass, keyed by metric name."""
        dur, self_t = self.durations()
        rows = {pid: collections.defaultdict(float) for pid in pass_ids}
        active = collections.Counter()
        stack: list[int] = []
        for i, s in enumerate(self.spans):
            while stack and stack[-1] != s[3]:
                active[self.spans[stack.pop()][0]] -= 1
            row = rows.get(s[4])
            if row is not None and s[0] != PASS:
                row[f"{s[0]}.calls"] += 1
                row[f"{s[0]}.self_s"] += self_t[i]
                # inclusive time counts the outermost span of a name only
                if not active[s[0]]:
                    row[f"{s[0]}.s"] += dur[i]
            stack.append(i)
            active[s[0]] += 1
        for (pid, name), calls in self.counts.items():
            if pid in rows:
                rows[pid][f"{name}.calls"] = calls
        for (pid, kind), keys in self.keys.items():
            if pid in rows:
                rows[pid][f"{kind}.repeat_frac"] = \
                    1.0 - len(set(keys)) / len(keys)
        for pid, (useful, computed) in self.sites.items():
            if pid in rows and computed:
                rows[pid]["jets.pair_product_sum.useful_site_frac"] = \
                    useful / computed
        for pid, row in rows.items():
            main = sum(dur[i] for i, s in enumerate(self.spans)
                       if s[4] == pid and s[0].startswith(MAIN + "."))
            root = next(i for i, s in enumerate(self.spans)
                        if s[4] == pid and s[0] == PASS)
            row["trace.main_cover_frac"] = main / dur[root] if dur[root] \
                else 0.0
        return rows

    def write(self, path, meta: dict):
        """Write the run metadata and every span as JSON lines."""
        with open(path, "w") as fh:
            counts = [{"pass": pid, "name": name, "calls": n}
                      for (pid, name), n in sorted(self.counts.items())]
            fh.write(json.dumps({"meta": meta, "counts": counts}) + "\n")
            for s in self.spans:
                fh.write(json.dumps({"name": s[0], "start": s[1], "end": s[2],
                                     "parent": s[3], "pass": s[4],
                                     "excluded": s[5]}) + "\n")


def median_rows(rows: list[dict], names) -> dict:
    """Median over passes of each named per-pass value (0 when absent)."""
    return {name: statistics.median(r.get(name, 0.0) for r in rows)
            for name in names}
