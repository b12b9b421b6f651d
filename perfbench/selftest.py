"""Smoke test of the benchmark: a tiny run of every workload, both modes.

    python3 perfbench/selftest.py

Checks that ``BENCHMARK.json`` parses and names this command, that each
run exits 0 with a correct result line of exactly the contract's keys,
and that every metric named in ``BENCHMARK.json`` is present with its
unit (end-to-end metrics untraced, per-layer metrics traced).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
#: Runnable by name but not listed in BENCHMARK.json (see README.md).
UNLISTED = ("serve_cold_process2",)


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}, sorted(spec)
    assert spec["command"][:2] == ["python3", "perfbench/run.py"]
    assert "perfbench" in spec["paths"]
    for metric in spec["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25, metric
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])
    return spec


def run_once(spec: dict, workload: str, trace: int) -> dict:
    command = spec["command"] + ["--workload", workload, "--seed", "1",
                                 "--seconds", "1", "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=180)
    assert done.returncode == 0, (workload, trace, done.stderr[-3000:])
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == RESULT_KEYS, sorted(result)
    assert result["correct"] is True and result["failed"] == 0, result
    assert result["attempted"] >= 1
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in expected}, \
        sorted(set(metrics) ^ {m["name"] for m in expected})
    for metric in expected:
        got = metrics[metric["name"]]
        assert got["unit"] == metric["unit"], (metric["name"], got)
        assert isinstance(got["value"], (int, float)), (metric["name"], got)
    return result


def main() -> int:
    spec = load_benchmark()
    names = [workload["name"] for workload in spec["workloads"]]
    for name in names + list(UNLISTED):
        for trace in (0, 1):
            result = run_once(spec, name, trace)
            print(f"ok  {name:22s} trace={trace} "
                  f"attempted={result['attempted']}", flush=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
