#!/usr/bin/env python3
"""Tiny-scale self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json for one second at a tiny scale,
untraced and traced, and asserts that each run exits 0, checks out
correct, prints exactly the metrics BENCHMARK.json names for its mode
with their units, that every value is finite, and that the traced run's
layers add up to its wall time.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TINY_SCALE = "0.01"
# Mirrors CONSERVATION_EPS and MAX_UNATTRIBUTED_SHARE in src/record.rs.
EPS = 0.01
MAX_UNATTRIBUTED = 0.25


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--scale", TINY_SCALE],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600,
    )
    assert proc.returncode == 0, f"{workload} trace={trace}: exit {proc.returncode}"
    lines = [l for l in proc.stdout.splitlines() if l.startswith("{")]
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def check(spec, workload, trace):
    record, result = run(workload, trace)
    tag = f"{workload} trace={trace}"
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, tag
    assert result["correct"] is True and result["failed"] == 0, f"{tag}: {result}"
    assert result["attempted"] >= 1, tag
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = result["metrics"]
    assert set(got) == set(want), f"{tag}: {sorted(set(got) ^ set(want))}"
    for name, m in got.items():
        assert set(m) == {"value", "unit"}, f"{tag}: {name}"
        assert m["unit"] == want[name], f"{tag}: {name} unit {m['unit']}"
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), f"{tag}: {name}"
    for k in ("seed", "scale", "host", "nproc", "git_commit"):
        assert k in record["provenance"], f"{tag}: provenance lacks {k}"
    if trace:
        notes = record["notes"]
        wall = float(notes["traced_wall_s"])
        layers = notes["conservation_layers"].split(",")
        rest = record["metrics"]["unattributed_s"]["value"]
        total = sum(record["metrics"][n]["value"] for n in layers if n in record["metrics"])
        assert abs(total + rest - wall) <= EPS * wall, f"{tag}: {total} + {rest} != {wall}"
        assert -EPS * wall <= rest <= MAX_UNATTRIBUTED * wall, f"{tag}: unattributed {rest} of {wall}"
    else:
        assert got["setup_s"]["value"] > 0 and got["cpu_s"]["value"] > 0, tag
    print(f"ok  {tag}: {len(got)} metrics")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for w in spec["workloads"]:
        for trace in (0, 1):
            check(spec, w["name"], trace)
    print("selftest passed")


if __name__ == "__main__":
    main()
