"""Where PEA campaigns spend their time, by grid size.

Runs campaigns serially in this process, with one BLAS thread unless
the environment sets another count (``OPENBLAS_NUM_THREADS=2`` for the
command line's default on two cores), and times every ``run_step``.
Each campaign's header line gives the BLAS thread count.  For each
campaign and grid size m it prints the share of the campaigns' wall time
spent in steps over m candidates, their measurements, and the
microseconds per measurement.  By default it runs the campaigns of the
two PEA benchmark workloads (perfbench/workloads.py); ``--desk`` adds
the desk campaigns of the command line (32 targets x 8 repetitions).
``--exact`` turns the window screen off, so the exact window test runs
on every block row.

    PYTHONPATH=src python3 scripts/step_costs.py --repeats 4

Each campaign runs ``--repeats`` times, at master seeds 1, 2, ...; the
figures sum over them.  This is the table that chooses the grids the
window screen of ``run_step`` runs on, and at what block width.
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


def step_costs(settings: dict, repeats: int) -> tuple[float, dict[int, list[float]]]:
    """Campaign seconds, and per grid size its step seconds and measurements.

    The campaigns use the default configuration's sensor and bias, as the
    benchmark's do."""
    default = parse_config("")
    design, bias = default.design, FluxBias(default.bias_phi)
    by_size: dict[int, list[float]] = defaultdict(lambda: [0.0, 0])
    step = pea.run_step

    def timed_step(candidates, *args, **kwargs):
        start = time.perf_counter()
        record = step(candidates, *args, **kwargs)
        cost = by_size[len(candidates)]
        cost[0] += time.perf_counter() - start
        cost[1] += record.n_measurements
        return record

    wall = 0.0
    pea.run_step = timed_step
    try:
        for seed in range(1, repeats + 1):
            config = PeaConfig(master_seed=seed, **settings)
            start = time.perf_counter()
            pea.run_campaign(design, bias, config)
            wall += time.perf_counter() - start
    finally:
        pea.run_step = step
    return wall, dict(by_size)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=4,
                        help="campaigns of each kind, at master seeds 1..repeats")
    parser.add_argument("--desk", action="store_true", help="also run the desk campaigns")
    parser.add_argument("--exact", action="store_true",
                        help="no window screen: the exact window test on every row")
    args = parser.parse_args()
    if args.exact:
        pea._screen_blocks = lambda m: 0
    campaigns = {**BENCHMARK, **(DESK if args.desk else {})}
    for name, settings in campaigns.items():
        wall, by_size = step_costs(settings, args.repeats)
        print(f"{name}: {wall:.3f} s in {args.repeats} campaigns, "
              f"BLAS threads: {os.environ['OPENBLAS_NUM_THREADS']}")
        print(f"{'m':>6} {'share':>7} {'measurements':>13} {'us/meas':>8}")
        for m in sorted(by_size, reverse=True):
            seconds, count = by_size[m]
            print(f"{m:>6} {seconds / wall:>7.1%} {count:>13} {1e6 * seconds / count:>8.3f}")


if __name__ == "__main__":
    main()
