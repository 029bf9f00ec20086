"""Workloads of the fluxsense benchmark and the checks on their outputs.

A workload is a sequence of CLI invocations (operations), run in passes
in one process through ``fluxsense.cli.main`` by a single caller that
starts each invocation when the previous one has returned (a closed
loop).  Each invocation reads the workload's configuration file.

pea-coherent   one campaign a pass, 2 targets x 8 repetitions (the desk
               preset's repetitions) of the 1-qubit sensor without
               decoherence: wide grids, few measurements per step and,
               by design, no cap hits, so it exposes per-run and
               wide-grid cost and bypasses cap-burning.
pea-decohered  one campaign a pass, 2 targets x 2 repetitions of the
               decohered 3-qubit sensor: most time goes to capped loops
               of scalar Bayes updates on small grids.
design-scan    rates, optimal-point, ridge over three temperatures,
               calibration and inductance, the same every pass: the
               design layers, and no PEA.

The PEA campaigns are small so that a run holds many of them; each pass
draws its campaign's master seed from the workload seed and the pass
index, and the workload seed reaches the program only through
``--seed``.  In design-scan the workload seed draws seven of the ten
flux biases of the rates table.

Each check returns a list of problems; an empty list means the output
is correct.  Reference values come from the acceptance criteria, never
from earlier outputs of the program.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

N_STEPS = 9
SATURATED_FROM = 5  # first saturated step index (0-based) of the 3-qubit sensor


@dataclass(frozen=True)
class Op:
    """One CLI invocation and the check on what it wrote."""

    command: str
    argv: tuple[str, ...]
    check: Callable[[Path], list[str]]
    runs: int = 0  # PEA estimation runs (target x repetition) it performs


@dataclass(frozen=True)
class Workload:
    """Configuration file text and the operations of each pass."""

    config: str
    ops: Callable[[int], list[Op]]  # pass index -> that pass's operations


def _rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def _near(value: float, want: float, rel: float) -> bool:
    return abs(value - want) <= rel * abs(want)


# Acceptance criterion 2: optimal point of the reference sensor.
def check_optimal_point(outdir: Path) -> list[str]:
    point = json.loads((outdir / "optimal_point.json").read_text(encoding="utf-8"))
    problems = []
    if not abs(point["phi_star"] - 0.442) <= 0.003:
        problems.append(f"phi* = {point['phi_star']} outside 0.442 +/- 0.003")
    if not _near(point["t2"], 4.625e-6, 0.02):
        problems.append(f"T2 = {point['t2']} not within 2% of 4.625 us")
    if not _near(point["tau_opt"], 3.292e-6, 0.02):
        problems.append(f"tau_opt = {point['tau_opt']} not within 2% of 3.292 us")
    if point["n_steps"] != 6:
        problems.append(f"step budget {point['n_steps']} != 6")
    return problems


# Acceptance criterion 3: bias-line inductances.
def check_inductance(outdir: Path) -> list[str]:
    report = json.loads((outdir / "inductance.json").read_text(encoding="utf-8"))
    problems = []
    if not _near(report["M_pH"], 2.08, 0.05):
        problems.append(f"M = {report['M_pH']} pH not within 5% of 2.08")
    if not _near(report["M_parasitic_pH"], 0.22, 0.15):
        problems.append(f"M' = {report['M_parasitic_pH']} pH not within 15% of 0.22")
    if not 0.99 <= report["periodicity_mA"] <= 1.01:
        problems.append(f"periodicity {report['periodicity_mA']} mA outside 0.99-1.01")
    return problems


# Acceptance criterion 1: reference rates (kHz) and their tolerances.
REFERENCE_RATES_KHZ = {
    0.0: {"gamma1_ind_khz": 71.9, "gammaphi_curr_khz": 29.1,
          "gammaphi_flux_exp_khz": 2.8e-3, "gammaphi_flux_gauss_khz": 0.0,
          "gamma1_cap_khz": 99.3},
    0.2: {"gamma1_ind_khz": 46.8, "gammaphi_curr_khz": 26.1,
          "gammaphi_flux_exp_khz": 3.2e-3, "gammaphi_flux_gauss_khz": 59.7,
          "gamma1_cap_khz": 79.8},
    0.4: {"gamma1_ind_khz": 6.6, "gammaphi_curr_khz": 16.2,
          "gammaphi_flux_exp_khz": 9.0e-3, "gammaphi_flux_gauss_khz": 156.3,
          "gamma1_cap_khz": 29.3},
}


def check_rates(phis: list[float], outdir: Path) -> list[str]:
    rows = _rows(outdir / "rates.csv")
    if len(rows) != len(phis):
        return [f"rates table has {len(rows)} rows, want {len(phis)}"]
    problems = []
    for phi, row in zip(phis, rows):
        values = {key: float(text) for key, text in row.items()}
        if not abs(values["phi"] - phi) <= 1e-9:
            problems.append(f"rates row for phi={values['phi']}, want {phi}")
        if not all(math.isfinite(v) and v >= 0 for v in values.values()):
            problems.append(f"rates at phi={phi} not finite and non-negative")
        for column, want in REFERENCE_RATES_KHZ.get(phi, {}).items():
            rel = 0.2 if column == "gamma1_cap_khz" else 0.02
            if not _near(values[column], want, rel):
                problems.append(f"{column} = {values[column]} at phi={phi}, want {want}")
    return problems


def check_ridge(n_frequencies: int, n_temperatures: int, outdir: Path) -> list[str]:
    rows = _rows(outdir / "ridge_maxima.csv")
    if len(rows) != n_frequencies * n_temperatures:
        return [f"ridge maxima has {len(rows)} rows, want {n_frequencies * n_temperatures}"]
    problems = []
    for row in rows:
        value, phi = float(row["ridge_sensitivity_per_phi0"]), float(row["ridge_phi"])
        if not (math.isfinite(value) and value > 0 and 0.0 <= phi < 0.5):
            problems.append(f"ridge maximum {value} at phi={phi} out of range")
    return problems


def check_calibration(points: int, outdir: Path) -> list[str]:
    rows = _rows(outdir / "calibration_pattern.csv")
    if len(rows) != points:
        return [f"calibration pattern has {len(rows)} rows, want {points}"]
    bad = [r for r in rows if not 0.0 <= float(r["probability"]) <= 1.0]
    return [f"{len(bad)} calibration probabilities outside [0, 1]"] if bad else []


def check_pea(runs: int, no_caps: bool, saturated_delay: float | None,
              outdir: Path) -> list[str]:
    """Per-step summary shape, monotone tau_bar, caps and delay saturation."""
    steps = _rows(outdir / "pea_steps.csv")
    if len(steps) != N_STEPS:
        return [f"pea_steps.csv has {len(steps)} rows, want {N_STEPS}"]
    problems = []
    tau_bar = [float(r["tau_bar_s"]) for r in steps]
    if not all(b > a for a, b in zip(tau_bar, tau_bar[1:])):
        problems.append("tau_bar does not strictly increase")
    if not all(math.isfinite(float(r["accuracy_phi0"])) for r in steps):
        problems.append("non-finite accuracy")
    detail = _rows(outdir / "pea_runs.csv")
    if len(detail) != runs * N_STEPS:
        problems.append(f"pea_runs.csv has {len(detail)} rows, want {runs * N_STEPS}")
    if no_caps and any(r["cap_hit"] != "0" for r in detail):
        problems.append("measurement cap hit without decoherence")
    if saturated_delay is not None:
        delays = [float(r["mean_delay_s"]) for r in steps]
        if not all(_near(d, saturated_delay, 1e-7) for d in delays[SATURATED_FROM:]):
            problems.append(f"mean delays {delays} do not saturate at {saturated_delay}")
        if not delays[SATURATED_FROM - 1] < 0.999 * saturated_delay:
            problems.append("mean delays saturate earlier than expected")
    return problems


def ridge_op(temps_mk: tuple[str, ...], n_frequencies: int = 50, phi_points: int = 200) -> Op:
    argv = ("ridge", "--fq-points", str(n_frequencies), "--phi-points", str(phi_points),
            "--temps", ",".join(temps_mk))
    return Op("ridge", argv, functools.partial(check_ridge, n_frequencies, len(temps_mk)))


def pea_op(argv: tuple[str, ...], runs: int, no_caps: bool,
           saturated_delay: float | None = None) -> Op:
    check = functools.partial(check_pea, runs, no_caps, saturated_delay)
    return Op("pea", ("pea", *argv, "--jobs", "1"), check, runs=runs)


def _pass_seed(seed: int, pass_index: int) -> str:
    """Master seed of one pass's campaign, drawn from the workload seed."""
    return str(random.Random(f"{seed}/{pass_index}").randrange(2**32))


def pea_coherent(seed: int) -> Workload:
    def ops(pass_index: int) -> list[Op]:
        return [pea_op(("--n-qubits", "1", "--no-decoherence",
                        "--seed", _pass_seed(seed, pass_index)), runs=2 * 8, no_caps=True)]
    return Workload("n_flux_targets = 2\nn_repetitions = 8\n", ops)


def pea_decohered(seed: int) -> Workload:
    from fluxsense import FluxBias, FringeEvaluator, optimal_delay, parse_config

    config = parse_config("")
    evaluator = FringeEvaluator(config.design, FluxBias(config.bias_phi), n_qubits=3)
    saturated = optimal_delay(*evaluator.envelope_rates, 3)

    def ops(pass_index: int) -> list[Op]:
        return [pea_op(("--n-qubits", "3", "--seed", _pass_seed(seed, pass_index)),
                       runs=2 * 2, no_caps=False, saturated_delay=saturated)]
    return Workload("n_flux_targets = 2\nn_repetitions = 2\n", ops)


def design_scan(seed: int) -> Workload:
    draw = random.Random(seed)
    phis = [0.0, 0.2, 0.4] + [round(draw.uniform(0.0, 0.49), 6) for _ in range(7)]
    phi_arg = ",".join(f"{p:.6f}" for p in phis)
    sequence = [
        Op("rates", ("rates", "--phi", phi_arg), functools.partial(check_rates, phis)),
        Op("optimal-point", ("optimal-point",), check_optimal_point),
        ridge_op(("20", "40", "75")),
        Op("calibration", ("calibration", "--n-qubits", "3", "--points", "4096"),
           functools.partial(check_calibration, 4096)),
        Op("inductance", ("inductance",), check_inductance),
    ]
    return Workload("# reference sensor\n", lambda pass_index: sequence)


WORKLOADS = {
    "pea-coherent": pea_coherent,
    "pea-decohered": pea_decohered,
    "design-scan": design_scan,
}
