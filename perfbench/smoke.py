"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs one untraced op per workload and one untraced/traced pair of `select`
ops, each twice with the same seed. Asserts that the result line has
exactly the keys correct, attempted, failed and metrics, that every metric
named in BENCHMARK.json is present with its unit, that no op failed and
that the count metrics repeat exactly. Also checks that the benchmark
refuses to run, without printing a result, in a directory holding only
BENCHMARK.json and perfbench/. Exits non-zero on the first failed
assertion.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from tracer import COUNT_METRICS

ROOT = Path(__file__).resolve().parent.parent
SEED = 3
E2E_COUNTS = ("accuracy", "cost")


def run(workload: str, trace: int, ops: int, cwd: Path = ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
           "--ops", str(ops)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300, check=False)


def result_of(workload: str, trace: int, ops: int, expected: dict) -> dict:
    proc = run(workload, trace, ops)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] == ops, result
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == expected, f"{workload}: metrics {units} != {expected}"
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), (name, metric)
    return {name: m["value"] for name, m in result["metrics"].items()}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}

    for workload in (w["name"] for w in bench["workloads"]):
        first, second = (result_of(workload, 0, 1, end_to_end) for _ in range(2))
        for name in E2E_COUNTS:
            assert first[name] == second[name], (workload, name, first, second)
        print(f"ok {workload}: {', '.join(sorted(first))}")

    first, second = (result_of("select", 1, 2, per_layer) for _ in range(2))
    for name in COUNT_METRICS:
        assert first[name] == second[name], (name, first[name], second[name])
    assert first["selector.fitness_calls"] > 0 and first["fuzzy.defuzz_s"] > 0
    print(f"ok select traced: {len(first)} per-layer metrics, counts repeat")

    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", Path(bare) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run("select", 0, 1, cwd=Path(bare))
        assert proc.returncode != 0, proc.stdout
        assert not proc.stdout.strip(), proc.stdout
    with contextlib.suppress(OSError):
        scratch.rmdir()
    print("ok refuses to run without the package")
    return 0


if __name__ == "__main__":
    sys.exit(main())
