"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py [--workloads select,oracle] [--seeds 1-10]
        [--trace 0|1] [--out FILE]

Runs `perfbench/run.py` once per (workload, seed), one run at a time, with
the run length from BENCHMARK.json. For every metric it prints the median
of the runs and the spread: the distance between the first and third
quartiles (`statistics.quantiles(values, n=4)`) as a share of the median.
An end-to-end metric whose spread exceeds its bound is flagged. --out
writes the medians, quartiles, every run's value and the environment of
the first run as JSON (the form of perfbench/baseline.json).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=300, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stderr}")
    env = next(
        (json.loads(line[len("# env "):]) for line in lines if line.startswith("# env ")),
        {},
    )
    return json.loads(lines[-1]), env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    summary = {"run_seconds": bench["run_seconds"], "trace": args.trace,
               "workloads": {}}
    ok = True
    for workload in workloads:
        runs = []
        for seed in _seeds(args.seeds):
            result, env = run_once(workload, seed, bench["run_seconds"], args.trace)
            summary.setdefault("environment", env)
            print(f"{workload} seed {seed}: attempted {result['attempted']} "
                  f"failed {result['failed']} correct {result['correct']}",
                  flush=True)
            ok &= result["correct"] and result["failed"] == 0
            runs.append(result)
        metrics = {}
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                         else (values[0],) * 3)
            spread = (q3 - q1) / median if median else 0.0
            bound = bounds.get(name) if not args.trace else None
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound:
                flag, ok = "  OVER BOUND", False
            print(f"  {name:<34} median {median:14.6f} {first['unit']:<6} "
                  f"spread {spread:7.4f}"
                  + (f" (bound {bound})" if bound is not None else "") + flag,
                  flush=True)
            metrics[name] = {"unit": first["unit"], "median": median,
                             "q1": q1, "q3": q3, "spread": spread,
                             "values": values}
        summary["workloads"][workload] = {
            "seeds": _seeds(args.seeds),
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "metrics": metrics,
        }
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
