"""Command-line entry point: subcommand dispatch and artifact emission.

Subcommands
-----------
rates          per-channel decoherence rates at a list of flux biases
optimal-point  flux/delay optimum of the configured sensor
ridge          sensitivity surface and per-frequency ridge maxima
calibration    fringe pattern over the sensor's unambiguous flux range
pea            phase-estimation campaign (per-step and per-run CSVs)
inductance     bias-line mutual and parasitic inductances

All data outputs are CSV (one header row, 9-significant-digit floats)
or JSON.  A run manifest capturing the resolved configuration is
written when ``--manifest`` is passed; ``pea`` always writes one.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 I/O failure.  Errors are reported as one JSON object on stderr.
Output directory: ``--outdir`` flag, else the FLUXSENSE_OUTDIR
environment variable, else the working directory.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .config import (
    ConfigError,
    ToolConfig,
    config_from_dict,
    load_config,
    parse_config,
)
from .decoherence import rates_table
from .fringes import FringeEvaluator, pattern_grid
from .magnetostatics import mutual_inductances
from .optimizer import dynamic_range, find_optimal_flux, ridge_scan
from .pea import DESK_PRESET, FULL_PRESET, aggregate_report, run_campaign, runs_report
from .qubit import OPERATIONAL_PHI_MAX, FluxBias

OUTPUT_DIR_ENV = "FLUXSENSE_OUTDIR"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


class _UsageError(Exception):
    """Command-line arguments failed to parse."""


class _Parser(argparse.ArgumentParser):
    # Raise instead of exiting so usage errors share the JSON error path.
    def error(self, message):
        raise _UsageError(message)


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to reproduce one invocation."""

    subcommand: str
    tool_version: str
    master_seed: int
    config: ToolConfig
    output_files: tuple[str, ...]
    wall_seconds: float


def manifest_to_json(manifest: RunManifest) -> str:
    return json.dumps(asdict(manifest), indent=2, sort_keys=True)


def manifest_from_json(text: str) -> RunManifest:
    payload = json.loads(text)
    return RunManifest(**{**payload, "config": config_from_dict(payload["config"]),
                          "output_files": tuple(payload["output_files"])})


def _emit_error(kind: str, message: str, exit_code: int) -> None:
    print(json.dumps({"error": {"type": kind, "message": message, "exit_code": exit_code}}),
          file=sys.stderr)


def _write_text(path: Path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


def _comma_floats(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise _UsageError(f"expected comma-separated numbers, got {text!r}") from None


def _count(text: str) -> int:
    """A point count: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _json_float(value: float) -> float:
    return float(f"{value:.9g}")


# Subcommand handlers: (args, config, outdir) -> list of written paths.

def _cmd_rates(args, config: ToolConfig, outdir: Path) -> list[Path]:
    phis = _comma_floats(args.phi)
    path = outdir / "rates.csv"
    _write_text(path, rates_table(config.design, phis))
    return [path]


def _cmd_optimal_point(args, config: ToolConfig, outdir: Path) -> list[Path]:
    point = find_optimal_flux(config.design, tau_min=config.pea.tau_min)
    payload = {
        "phi_star": _json_float(point.phi_star),
        "tau_opt": _json_float(point.tau_opt),
        "sensitivity": _json_float(point.sensitivity),
        "t2": _json_float(point.t2),
        "n_steps": point.n_steps,
        "dynamic_range": _json_float(point.dynamic_range),
        "at_search_boundary": point.at_search_boundary,
    }
    path = outdir / "optimal_point.json"
    _write_text(path, json.dumps(payload, indent=2) + "\n")
    return [path]


def _cmd_ridge(args, config: ToolConfig, outdir: Path) -> list[Path]:
    f_values = np.linspace(args.fq_min_ghz, args.fq_max_ghz, args.fq_points) * 1e9
    phi_values = np.linspace(0.0, OPERATIONAL_PHI_MAX, args.phi_points, endpoint=False)
    if args.temps is None:
        temps_mk = [config.design.temperature * 1e3]
    else:
        temps_mk = _comma_floats(args.temps)
    scan = ridge_scan(config.design, f_values, phi_values,
                      np.asarray(temps_mk) * 1e-3)

    # Each frequency and flux is formatted once; each cell formats its value.
    f_text = [f"{f / 1e9:.9g}," for f in f_values.tolist()]
    phi_text = [f"{phi:.9g}," for phi in phi_values.tolist()]
    paths = []
    maxima = ["temperature_mk,fq_max_ghz,ridge_phi,ridge_sensitivity_per_phi0"]
    for t_index, t_mk in enumerate(temps_mk):
        surface = scan.surface[t_index]
        rows, cols = np.nonzero(~np.isnan(surface))
        cells = zip(rows.tolist(), cols.tolist(), surface[rows, cols].tolist())
        lines = ["fq_max_ghz,phi,sensitivity_per_phi0"]
        lines += [f"{f_text[i]}{phi_text[j]}{value:.9g}" for i, j, value in cells]
        path = outdir / f"ridge_surface_{t_mk:g}mk.csv"
        _write_text(path, "\r\n".join(lines) + "\r\n")
        paths.append(path)
        ridge = zip(f_text, scan.ridge_phi[t_index].tolist(), scan.ridge_value[t_index].tolist())
        maxima += [f"{t_mk:.9g},{f}{phi:.9g},{value:.9g}" for f, phi, value in ridge]

    path = outdir / "ridge_maxima.csv"
    _write_text(path, "\r\n".join(maxima) + "\r\n")
    paths.append(path)
    return paths


def _cmd_calibration(args, config: ToolConfig, outdir: Path) -> list[Path]:
    n_qubits = args.n_qubits if args.n_qubits is not None else config.pea.n_qubits
    bias = FluxBias(config.bias_phi)
    tau = args.tau_ns * 1e-9 if args.tau_ns is not None else config.pea.tau_min
    span = dynamic_range(config.design, bias, config.pea.tau_min, n_qubits)
    phi_values = (span / args.points) * np.arange(args.points)
    evaluator = FringeEvaluator(config.design, bias, n_qubits=n_qubits,
                                decoherence_enabled=config.pea.decoherence_enabled)
    path = outdir / "calibration_pattern.csv"
    _write_text(path, pattern_grid(evaluator, phi_values, tau, theta=args.theta))
    return [path]


def _cmd_pea(args, config: ToolConfig, outdir: Path) -> list[Path]:
    result = run_campaign(config.design, FluxBias(config.bias_phi), config.pea, n_jobs=args.jobs)
    steps_path = outdir / "pea_steps.csv"
    runs_path = outdir / "pea_runs.csv"
    _write_text(steps_path, aggregate_report(result))
    _write_text(runs_path, runs_report(result))
    return [steps_path, runs_path]


def _cmd_inductance(args, config: ToolConfig, outdir: Path) -> list[Path]:
    report = mutual_inductances(config.geometry)
    payload = {
        "M_pH": _json_float(report.m_squid * 1e12),
        "M_parasitic_pH": _json_float(report.m_parasitic * 1e12),
        "periodicity_mA": _json_float(report.periodicity_current * 1e3),
    }
    path = outdir / "inductance.json"
    _write_text(path, json.dumps(payload, indent=2) + "\n")
    return [path]


_HANDLERS = {
    "rates": _cmd_rates,
    "optimal-point": _cmd_optimal_point,
    "ridge": _cmd_ridge,
    "calibration": _cmd_calibration,
    "pea": _cmd_pea,
    "inductance": _cmd_inductance,
}


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--config", metavar="FILE", help="configuration file (key = value lines)")
    common.add_argument("--outdir", metavar="DIR", help="output directory")
    common.add_argument("--seed", type=int, help="override the master seed")
    common.add_argument("--manifest", action="store_true", help="also write a run manifest JSON")

    parser = _Parser(prog="fluxsense",
                     description="Simulation and design tools for flux sensing "
                                 "with tunable superconducting qubits.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    p = sub.add_parser("rates", parents=[common], help="decoherence rates table")
    p.add_argument("--phi", default="0,0.2,0.4", help="comma-separated flux biases (Phi_0 units)")

    sub.add_parser("optimal-point", parents=[common], help="optimal flux and delay")

    p = sub.add_parser("ridge", parents=[common], help="sensitivity surface and ridge maxima")
    p.add_argument("--fq-min-ghz", type=float, default=2.0)
    p.add_argument("--fq-max-ghz", type=float, default=20.0)
    p.add_argument("--fq-points", type=_count, default=50)
    p.add_argument("--phi-points", type=_count, default=200)
    p.add_argument("--temps", help="comma-separated temperatures in mK")

    p = sub.add_parser("calibration", parents=[common], help="fringe pattern CSV")
    p.add_argument("--n-qubits", type=int, choices=(1, 2, 3))
    p.add_argument("--tau-ns", type=float, help="delay in ns (default: tau_min)")
    p.add_argument("--theta", type=float, default=0.0, help="measurement phase, rad")
    p.add_argument("--points", type=_count, default=512)

    p = sub.add_parser("pea", parents=[common], help="phase-estimation campaign")
    p.add_argument("--n-qubits", type=int, choices=(1, 2, 3))
    p.add_argument("--preset", choices=("desk", "full"),
                   help="campaign scale (desk: 32 targets x 8 runs; full: 256 x 24)")
    p.add_argument("--no-decoherence", action="store_true")
    p.add_argument("--jobs", type=int, default=1, help="worker processes")

    sub.add_parser("inductance", parents=[common], help="bias-line inductances JSON")
    return parser


def _run(args) -> int:
    started = time.perf_counter()
    config = load_config(args.config) if args.config else parse_config("")
    # Every flag that sets a PeaConfig field; calibration's --n-qubits is its own.
    overrides = {} if args.seed is None else {"master_seed": args.seed}
    if args.subcommand == "pea":
        if args.preset is not None:
            overrides.update(DESK_PRESET if args.preset == "desk" else FULL_PRESET)
        if args.n_qubits is not None:
            overrides["n_qubits"] = args.n_qubits
        if args.no_decoherence:
            overrides["decoherence_enabled"] = False
    try:
        config = replace(config, pea=replace(config.pea, **overrides))
    except ValueError as exc:
        raise ConfigError(f"invalid options for this configuration: {exc}") from exc

    outdir = Path(args.outdir or os.environ.get(OUTPUT_DIR_ENV) or ".")
    outdir.mkdir(parents=True, exist_ok=True)

    outputs = _HANDLERS[args.subcommand](args, config, outdir)
    for path in outputs:
        print(path)

    if args.manifest or args.subcommand == "pea":
        manifest = RunManifest(
            subcommand=args.subcommand,
            tool_version=__version__,
            master_seed=config.pea.master_seed,
            config=config,
            output_files=tuple(str(p) for p in outputs),
            wall_seconds=time.perf_counter() - started,
        )
        manifest_path = outdir / f"{args.subcommand.replace('-', '_')}_manifest.json"
        _write_text(manifest_path, manifest_to_json(manifest) + "\n")
        print(manifest_path)
    return EXIT_OK


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except _UsageError as exc:
        _emit_error("usage", str(exc), EXIT_CONFIG)
        return EXIT_CONFIG
    try:
        return _run(args)
    except _UsageError as exc:
        _emit_error("usage", str(exc), EXIT_CONFIG)
        return EXIT_CONFIG
    except ConfigError as exc:
        _emit_error("config", str(exc), EXIT_CONFIG)
        return EXIT_CONFIG
    except (ValueError, ArithmeticError) as exc:
        _emit_error("numerical", str(exc), EXIT_NUMERICAL)
        return EXIT_NUMERICAL
    except OSError as exc:
        _emit_error("io", str(exc), EXIT_IO)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
