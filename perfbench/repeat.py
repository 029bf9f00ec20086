"""Run the benchmark over several seeds and summarize each metric.

Usage, from the root of a checkout:

    python3 perfbench/repeat.py --seeds 1-10 [--workload NAME ...] [--trace 1] [--out FILE]

Each run is a fresh ``perfbench/run.py`` process with the settings of
BENCHMARK.json.  For every workload and metric the summary gives the
median, the quartiles from ``statistics.quantiles(values, n=4)`` and
the spread, (q3 - q1) / median, next to the metric's bound.  With
``--out`` the summary, every run's result and its provenance are
written as JSON; perfbench/baseline/ holds two such files for the
seed commit.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One benchmark process; returns (result, provenance)."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=False)
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit code {done.returncode}")
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["provenance"]


def summarize(values: list[float], bound: float | None) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, 0, median)
    row = {"median": median, "q1": q1, "q3": q3,
           "spread": (q3 - q1) / median if median else 0.0}
    if bound is not None:
        row["bound"] = bound
    return row


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,7")
    parser.add_argument("--workload", action="append",
                        help="repeatable; default every workload of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="write the summary and every run as JSON")
    args = parser.parse_args(argv)

    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"seconds": spec["run_seconds"], "trace": args.trace, "workloads": {}}
    for workload in workloads:
        runs = []
        for seed in _seeds(args.seeds):
            result, prov = run_once(workload, seed, spec["run_seconds"], args.trace)
            runs.append({"seed": seed, "result": result, "provenance": prov})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        names = runs[0]["result"]["metrics"]
        summary = {name: summarize([r["result"]["metrics"][name]["value"] for r in runs],
                                   bounds.get(name)) for name in names}
        report["workloads"][workload] = {
            "all_correct": all(r["result"]["correct"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
            "summary": summary,
            "runs": runs,
        }
        for name, row in summary.items():
            if not args.trace:
                print(f"  {name:24s} median {row['median']:.6g}  spread {row['spread']:.4f}"
                      f"  bound {row.get('bound', '-')}", flush=True)
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
