"""Checks of the benchmark itself; not part of the tier-1 suite.

    python3 -m pytest -q bench/test_counts.py

Two traced runs of the same workload must report identical counts, so that
counts can back a later count-based claim. The printed metric names must be
the ones BENCHMARK.json declares. A traced run of a W=160 workload takes
about 40 s on a 2-core x86-64 machine.
"""

import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# timing ratios; every other ratio and every count is exact
TIMED_RATIOS = ("trace.overhead_frac", "trace.main_cover_frac")


def bench(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=600)
    return json.loads(done.stdout.strip().splitlines()[-1])


def exact(metrics: dict) -> dict:
    return {name: m["value"] for name, m in metrics.items()
            if m["unit"] in ("count/pass", "ratio")
            and name not in TIMED_RATIOS}


def test_untraced_names_match_spec():
    result = bench(WORKLOADS[0], 0)
    assert result["correct"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["end_to_end"]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload):
    first = bench(workload, 1)
    second = bench(workload, 1)
    assert first["correct"] and second["correct"]
    assert {name: m["unit"] for name, m in first["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    counts = exact(first["metrics"])
    assert counts["jets.pair_product_sum.calls"] > 0
    assert counts == exact(second["metrics"])
    # the suite calls account for nearly all of a traced pass
    assert first["metrics"]["trace.main_cover_frac"]["value"] >= 0.95
