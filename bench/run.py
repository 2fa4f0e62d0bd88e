"""Benchmark of the surflat verification suites, run in-process.

    python3 bench/run.py --workload battery-w40 --seed 1 --seconds 20 --trace 0

Run from the repository root. The package is imported from ``src/`` of the
same checkout; without it the script exits 2. Each workload is a fixed list
of ``surflat`` suite calls, and one pass runs the list once through
``surflat.cli.main``, writing reports under ``.bench_out/``. A run times its
own first (cold) pass, then measures for ``--seconds`` seconds: warm passes,
and between them, at evenly spaced times, fresh interpreters that time
set-up and, some of them, a cold pass. With
``--trace 1`` warm passes alternate between untraced and traced, and the
per-layer metrics come from the traced ones (see ``tracer.py``). Outputs are
checked on every pass: each report row must pass unless it is a known
failure, and every call must write the same reports as on the first pass.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os

# one math-library thread; must be set before numpy is imported
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

MIN_PASSES = 3
# Fresh interpreters per run, spread evenly over the measured window so
# that their samples do not all fall into one stretch of host contention.
# All time set-up; each also times a cold pass while the cold passes of the
# children stay within COLD_SHARE of the window.
SETUP_REPEATS = 9
COLD_SHARE = 1 / 3
CHILD_TIMEOUT_S = 150

SUITES = ("check-el", "solve-linear", "greens-verify", "slayer-sweep",
          "perturb-verify", "greens-dependence")
W160 = ["--override", "window.t_min=-160", "--override", "window.t_max=160",
        "--override", "window.x_min=-160", "--override", "window.x_max=160"]
# Why each workload exists is in README.md next to this file.
WORKLOADS = {
    "battery-w40": [[suite] for suite in SUITES],
    "greens-sweep-w160": [
        ["greens-verify", *W160],
        # the probe's i1 values grow like 2^t; beyond |t| = 20 one ulp of
        # them exceeds the 1e-10 tolerance, so do not widen the cut range
        ["slayer-sweep", *W160, "--override", "slices.start=-20",
         "--override", "slices.stop=20"],
    ],
    "hierarchy-w160": [["perturb-verify", *W160],
                       ["greens-dependence", *W160]],
}

# Rows that fail on unmodified code: the symplectic spread has no floor, so
# a cut rounding to 2.8e-17 among exact zeros reads 1.0 (ROADMAP item 4).
# They count in `failed`; they do not make a run incorrect.
KNOWN_FAILURES = {("slayer-sweep", "sympl_relative_spread")}

END_TO_END = {"setup_s": "s", "cold_pass_s": "s", "pass_s.p50": "s",
              "peak_rss_mb": "MB"}


def _layer(name, *kinds):
    units = {"calls": "count/pass", "s": "s/pass", "self_s": "s/pass",
             "repeat_frac": "ratio", "useful_site_frac": "ratio"}
    return {f"{name}.{k}": units[k] for k in kinds}


PER_LAYER = {
    **{f"cli.main.{suite}.s": "s/pass" for suite in SUITES},
    **_layer("cli.load_config", "s"),
    **_layer("cli.write_report", "s"),
    **_layer("lagrangian.el_check", "s"),
    **_layer("lagrangian.ell", "calls"),
    **_layer("lagrangian.stencil_deriv_table", "calls", "s"),
    **_layer("jets.stencil_contraction", "calls", "s", "self_s"),
    **_layer("jets.slot_factor_maps", "calls", "s"),
    **_layer("jets.delta_ell_field.o1", "calls", "s"),
    **_layer("jets.delta_ell_field.o2", "calls", "s"),
    **_layer("jets.delta_ell_field.o3", "calls", "s"),
    **_layer("jets.pair_product_sum", "calls", "s", "self_s",
             "useful_site_frac"),
    **_layer("space.pair_masks", "calls", "s"),
    **_layer("space.past_region", "calls"),
    **_layer("linear.greens_apply.banded_solve", "calls", "s", "self_s"),
    **_layer("linear.greens_apply.frequency", "calls", "s", "self_s"),
    **_layer("linear.greens_apply", "repeat_frac"),
    **_layer("linear.greens_residual", "calls", "s", "self_s"),
    **_layer("linear.linear_residual", "calls", "s"),
    **_layer("perturb.build_hierarchy", "calls", "s", "self_s",
             "repeat_frac"),
    **_layer("perturb.family_taylor_I", "calls", "s", "self_s"),
    **_layer("perturb.taylor_oracle_I", "calls", "s", "self_s"),
    **_layer("polyseries.PolyRing.mul", "calls", "s"),
    **_layer("polyseries.PolyRing.exp", "calls", "s"),
    **_layer("polyseries.PolyRing.create", "calls", "s"),
    **_layer("slayer.slayer_sweep", "calls", "s", "self_s"),
    **_layer("slayer.symm_bilinear", "calls", "s"),
    **_layer("slayer.sigma", "calls", "s"),
    **_layer("slayer.i1", "calls", "s"),
    **_layer("slayer.i_m", "calls"),
    **_layer("slayer.greens_dependence_check", "s"),
    "trace.main_cover_frac": "ratio",
    "trace.overhead_frac": "ratio",
}


class Checker:
    """Operation accounting over all passes of a run.

    An operation is a report row or a suite call. A row fails when its pass
    field is false; a call fails when it raises, exits 2, or writes reports
    that differ from those of the first pass.
    """

    def __init__(self, n_calls: int):
        self.reference = [None] * n_calls
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []

    def check(self, call_dirs, outcomes):
        for i, (out, (suite, rc, error)) in enumerate(zip(call_dirs,
                                                         outcomes)):
            self.attempted += 1
            if error is not None or rc == 2:
                self.failed += 1
                self.unexpected.append(f"{suite}: {error or 'exit 2'}")
                continue
            reports = tuple((out / name).read_bytes()
                            for name in ("report.csv", "summary.json"))
            if self.reference[i] is None:
                self.reference[i] = reports
            elif reports != self.reference[i]:
                self.failed += 1
                self.unexpected.append(f"{suite}: reports changed")
                continue
            rows = list(csv.DictReader(io.StringIO(reports[0].decode())))
            bad = [r for r in rows if r["pass"] != "true"]
            self.attempted += len(rows)
            self.failed += len(bad)
            self.unexpected += [f"{suite}: {r['quantity']} failed"
                                for r in bad
                                if (suite, r["quantity"]) not in
                                KNOWN_FAILURES]
            if rc != (1 if bad else 0):
                self.unexpected.append(f"{suite}: exit {rc}")


def run_calls(cli, calls):
    """One pass: every call of the workload, in order."""
    outcomes = []
    for argv in calls:
        sink = io.StringIO()
        error = None
        rc = None
        try:
            with contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(sink):
                rc = cli.main(argv)
        except Exception as exc:  # a crash is a failed call, not a crash here
            error = f"{type(exc).__name__}: {exc}"
        outcomes.append((argv[0], rc, error))
    return outcomes


CHILD_CODE = """
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from surflat import cli
calls = json.loads(sys.argv[3])
for argv in calls:
    args = cli.build_parser().parse_args(argv)
    cli.load_config(args.config, args.override, args.seed, args.suite)
result = {"setup": time.perf_counter() - t0}
if sys.argv[4] == "1":
    sys.path.insert(0, sys.argv[2])
    from run import run_calls
    t0 = time.perf_counter()
    result["outcomes"] = run_calls(cli, calls)
    result["cold"] = time.perf_counter() - t0
print(json.dumps(result))
"""


def fresh_process(calls, cold: bool) -> dict:
    """Time import plus load_config for every call in a new interpreter.

    With cold set, the interpreter then runs one pass and also returns its
    time and the outcome of each call.
    """
    done = subprocess.run(
        [sys.executable, "-c", CHILD_CODE, str(SRC), str(BENCH),
         json.dumps(calls), "1" if cold else "0"],
        capture_output=True, text=True, check=True, timeout=CHILD_TIMEOUT_S)
    return json.loads(done.stdout.strip().splitlines()[-1])


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def cpu_caches():
    """Cache sizes of cpu0 from sysfs, e.g. {"L1d": "48K", "L2": "2048K"}."""
    caches = {}
    base = pathlib.Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        suffix = {"Data": "d", "Instruction": "i"}.get(kind, "")
        caches[f"L{level}{suffix}"] = size
    return caches


def metadata(args) -> dict:
    import numpy
    import scipy
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "caches": cpu_caches(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "git_commit": git_commit(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not (SRC / "surflat" / "__init__.py").is_file():
        print(f"no surflat package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from surflat import cli
    if pathlib.Path(cli.__file__).resolve().parent != SRC / "surflat":
        print(f"imported surflat from {cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import tracer as tracing

    base = [argv + ["--seed", str(args.seed)]
            for argv in WORKLOADS[args.workload]]
    meta = metadata(args)

    OUT.mkdir(exist_ok=True)
    tmp = pathlib.Path(tempfile.mkdtemp(prefix="reports-", dir=OUT))
    try:
        dirs = [tmp / str(i) for i in range(len(base))]
        calls = [argv + ["--out", str(d)] for argv, d in zip(base, dirs)]
        checker = Checker(len(calls))
        tracer = tracing.Tracer()

        def timed_pass():
            t0 = time.perf_counter()
            outcomes = run_calls(cli, calls)
            elapsed = time.perf_counter() - t0
            checker.check(dirs, outcomes)
            return elapsed

        def traced_pass(pass_id):
            outcomes = []
            tracer.install()
            try:
                elapsed = tracer.run_pass(
                    pass_id, lambda: outcomes.extend(run_calls(cli, calls)))
            finally:
                tracer.uninstall()
            checker.check(dirs, outcomes)
            return elapsed

        # the run's own first pass is a cold pass, and the warm-up
        cold = [timed_pass()]
        setup, warm, traced = [], [], []
        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            k = len(setup)
            if k < SETUP_REPEATS and elapsed >= k * args.seconds / \
                    SETUP_REPEATS:
                spent = sum(cold[1:]) + statistics.median(cold)
                child = fresh_process(
                    calls, cold=spent <= COLD_SHARE * args.seconds)
                setup.append(child["setup"])
                if "cold" in child:
                    cold.append(child["cold"])
                    checker.check(dirs, child["outcomes"])
            elif (k < SETUP_REPEATS or len(warm) < MIN_PASSES
                  or elapsed < args.seconds):
                warm.append(timed_pass())
                if args.trace:
                    traced.append(traced_pass(len(traced)))
            else:
                break
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        if args.trace:
            tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl",
                         meta)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    q1, p50, q3 = statistics.quantiles(warm, n=4)
    fail_frac = checker.failed / checker.attempted
    print(f"meta {json.dumps(meta, sort_keys=True)}")
    print(f"setup_s {statistics.median(setup):.4f} s "
          f"(median of {len(setup)} fresh interpreters)")
    print(f"cold_pass_s {statistics.median(cold):.4f} s "
          f"(median of {len(cold)} fresh interpreters)")
    print(f"pass_s.p50 {p50:.4f} s (n={len(warm)}, q1 {q1:.4f} s, "
          f"q3 {q3:.4f} s; untraced)")
    print(f"peak_rss_mb {rss_mb:.1f} MB")
    print(f"fail_frac {fail_frac:.6f} ({checker.failed} of "
          f"{checker.attempted} operations failed)")
    for line in sorted(set(checker.unexpected)):
        print(f"unexpected failure: {line}")

    if args.trace:
        rows = tracer.per_pass(range(len(traced)))
        values = tracing.median_rows(list(rows.values()), PER_LAYER)
        values["trace.main_cover_frac"] = min(
            r["trace.main_cover_frac"] for r in rows.values())
        values["trace.overhead_frac"] = (statistics.median(traced)
                                         / statistics.median(warm) - 1.0)
        units = PER_LAYER
        for name in PER_LAYER:
            print(f"{name} {values[name]:.6g} {units[name]}")
    else:
        values = {"setup_s": statistics.median(setup),
                  "cold_pass_s": statistics.median(cold),
                  "pass_s.p50": p50, "peak_rss_mb": rss_mb}
        units = END_TO_END
    print(json.dumps({
        "correct": not checker.unexpected,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
