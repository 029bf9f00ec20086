"""Where PEA campaigns spend their time, by step.

Runs campaigns serially in this process, with one BLAS thread unless
the environment sets another count (``OPENBLAS_NUM_THREADS=2`` for the
command line's default on two cores), and times every chunk step: a
campaign steps its runs in chunks of 8, each chunk's runs together
through ``pea._step_chunk``, one call per step.  Each campaign's header
line gives the BLAS thread count.  For each campaign and step it prints
the number of cells the step runs on (the first steps of a run on a
wide grid run on cells of several grid points, so several steps can
share a cell count), the seconds of the step's chunk calls and their
share of the campaigns' wall time, the measurements of the step summed
over every run, and the microseconds per measurement.  By default it
runs the campaigns of the two PEA benchmark workloads
(perfbench/workloads.py); ``--desk`` adds the desk campaigns of the
command line (32 targets x 8 repetitions).

    PYTHONPATH=src python3 scripts/step_costs.py --repeats 4

Each campaign runs ``--repeats`` times, at master seeds 1, 2, ...; the
figures sum over them.  The table shows where a campaign's time goes.
Run as separate processes, rows whose code two variants share read
0.86-1.13x of each other, so two variants compare only on effects
wider than that.
"""

from __future__ import annotations

import argparse
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import time  # noqa: E402
from collections import defaultdict  # noqa: E402

from fluxsense import DESK_PRESET, FluxBias, PeaConfig, pea, parse_config  # noqa: E402

BENCHMARK = {
    "pea-coherent": dict(n_qubits=1, decoherence_enabled=False,
                         n_flux_targets=2, n_repetitions=8),
    "pea-decohered": dict(n_qubits=3, n_flux_targets=2, n_repetitions=2),
}
DESK = {
    "desk N=3 coherent": dict(n_qubits=3, decoherence_enabled=False, **DESK_PRESET),
    "desk N=3 decohered": dict(n_qubits=3, **DESK_PRESET),
    "desk N=1 decohered": dict(n_qubits=1, **DESK_PRESET),
}


def step_costs(settings: dict, repeats: int) -> tuple[float, dict[int, list]]:
    """Campaign seconds, and per step its seconds, measurements and cell count.

    The campaigns use the default configuration's sensor and bias, as the
    benchmark's do."""
    default = parse_config("")
    design, bias = default.design, FluxBias(default.bias_phi)
    by_step: dict[int, list] = defaultdict(lambda: [0.0, 0, 0])
    step = pea._step_chunk
    calls = 0

    def timed_step(candidates, *args, **kwargs):
        nonlocal calls
        start = time.perf_counter()
        record = step(candidates, *args, **kwargs)
        # a chunk calls the kernel once per step, in order, and chunks are serial
        cost = by_step[calls % config.n_steps + 1]
        calls += 1
        cost[0] += time.perf_counter() - start
        cost[1] += int(record.n_measurements.sum())
        cost[2] = len(candidates)
        return record

    wall = 0.0
    pea._step_chunk = timed_step
    try:
        for seed in range(1, repeats + 1):
            config = PeaConfig(master_seed=seed, **settings)
            start = time.perf_counter()
            pea.run_campaign(design, bias, config)
            wall += time.perf_counter() - start
    finally:
        pea._step_chunk = step
    return wall, dict(by_step)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=4,
                        help="campaigns of each kind, at master seeds 1..repeats")
    parser.add_argument("--desk", action="store_true", help="also run the desk campaigns")
    args = parser.parse_args()
    campaigns = {**BENCHMARK, **(DESK if args.desk else {})}
    for name, settings in campaigns.items():
        wall, by_step = step_costs(settings, args.repeats)
        print(f"{name}: {wall:.3f} s in {args.repeats} campaigns, "
              f"BLAS threads: {os.environ['OPENBLAS_NUM_THREADS']}")
        print(f"{'step':>4} {'cells':>6} {'seconds':>8} {'share':>7} {'measurements':>13} "
              f"{'us/meas':>8}")
        for i in sorted(by_step):
            seconds, count, cells = by_step[i]
            print(f"{i:>4} {cells:>6} {seconds:>8.4f} {seconds / wall:>7.1%} {count:>13} "
                  f"{1e6 * seconds / count:>8.3f}")


if __name__ == "__main__":
    main()
