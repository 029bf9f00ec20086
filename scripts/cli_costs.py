"""Median time of each design-scan subcommand, in this process.

Runs the operations of the design-scan benchmark workload (the argv and
configuration file of perfbench/workloads.py) serially through
``fluxsense.cli.main``, with one BLAS thread unless the environment sets
another count, and prints each subcommand's median wall time over
``--repeats`` passes, and the median pass.

    PYTHONPATH=src python3 scripts/cli_costs.py --repeats 20

Run it on two checkouts to compare them subcommand by subcommand.
"""

from __future__ import annotations

import argparse
import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import contextlib  # noqa: E402
import io  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from workloads import WORKLOADS  # noqa: E402

from fluxsense.cli import main as cli_main  # noqa: E402


def subcommand_times(seed: int, repeats: int) -> dict[str, list[float]]:
    """Seconds of each design-scan subcommand in each of ``repeats`` passes."""
    workload = WORKLOADS["design-scan"](seed)
    times: dict[str, list[float]] = defaultdict(list)
    with tempfile.TemporaryDirectory() as outdir:
        config = Path(outdir) / "workload.cfg"
        config.write_text(workload.config, encoding="utf-8")
        for pass_index in range(repeats):
            for op in workload.ops(pass_index):
                argv = [*op.argv, "--config", str(config), "--outdir", outdir]
                start = time.perf_counter()
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli_main(argv)
                times[op.command].append(time.perf_counter() - start)
                if code != 0:
                    raise SystemExit(f"{' '.join(op.argv)} exited with {code}")
    return times


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=20, help="passes over the workload")
    parser.add_argument("--seed", type=int, default=1, help="workload seed (draws rates' biases)")
    args = parser.parse_args()
    times = subcommand_times(args.seed, args.repeats)
    passes = [sum(pass_times) for pass_times in zip(*times.values())]
    print(f"{'subcommand':<14} {'median ms':>10}")
    for command, seconds in [*times.items(), ("pass", passes)]:
        print(f"{command:<14} {1e3 * statistics.median(seconds):>10.2f}")


if __name__ == "__main__":
    main()
