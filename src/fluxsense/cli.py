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
or JSON.  A run manifest capturing the arguments and the resolved
configuration is written when ``--manifest`` is passed; ``pea`` always
writes one.  Its ``config`` is ``config_to_text`` text, so saved to a
file it is a ``--config`` file that repeats the run.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 I/O failure.  Errors are reported as one JSON object on stderr.
Output directory: ``--outdir`` flag, else the FLUXSENSE_OUTDIR
environment variable, else the working directory.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__, _csvtext
from .config import ConfigError, ToolConfig, config_to_text, load_config, parse_config
from .decoherence import rates_table
from .fringes import FringeEvaluator, pattern_grid
from .magnetostatics import mutual_inductances
from .optimizer import dynamic_range, find_optimal_flux, ridge_scan
from .pea import DESK_PRESET, FULL_PRESET, GRID_SIZES, aggregate_report, run_campaign, runs_report
from .qubit import OPERATIONAL_PHI_MAX, FluxBias

OUTPUT_DIR_ENV = "FLUXSENSE_OUTDIR"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

_PRESETS = {"desk": DESK_PRESET, "full": FULL_PRESET}
_SURFACE_NAME = "ridge_surface_{:.9g}mk.csv"  # the digits ridge_maxima.csv prints


class _UsageError(Exception):
    """Command-line arguments failed to parse."""


class _Parser(argparse.ArgumentParser):
    # Raise instead of exiting so usage errors share the JSON error path.
    def error(self, message):
        raise _UsageError(message)


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to reproduce one invocation: its arguments and
    the configuration they resolved to, as ``config_to_text`` text."""

    subcommand: str
    argv: tuple[str, ...]
    tool_version: str
    config: str
    output_files: tuple[str, ...]
    wall_seconds: float


def manifest_to_json(manifest: RunManifest) -> str:
    return json.dumps(asdict(manifest), indent=2, sort_keys=True)


def _emit_error(kind: str, message: str, exit_code: int) -> None:
    print(json.dumps({"error": {"type": kind, "message": message, "exit_code": exit_code}}),
          file=sys.stderr)


def _write_text(path: Path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


def _comma_floats(text: str) -> list[float]:
    """At least one number, comma-separated."""
    try:
        values = [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        values = []
    if not values:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")
    return values


def _temperatures(text: str) -> list[float]:
    """Temperatures in mK (see _comma_floats), each with its own surface file."""
    temps = _comma_floats(text)
    if len({_SURFACE_NAME.format(t) for t in temps}) < len(temps):
        raise argparse.ArgumentTypeError(f"temperatures {text!r} repeat a surface file name")
    return temps


def _count(text: str) -> int:
    """A count (points, worker processes): an integer of at least 1."""
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
    path = outdir / "rates.csv"
    _write_text(path, rates_table(config.design, args.phi))
    return [path]


def _cmd_optimal_point(args, config: ToolConfig, outdir: Path) -> list[Path]:
    point = find_optimal_flux(config.design, tau_min=config.pea.tau_min)
    payload = {name: _json_float(value) if isinstance(value, float) else value
               for name, value in asdict(point).items()}
    path = outdir / "optimal_point.json"
    _write_text(path, json.dumps(payload, indent=2) + "\n")
    return [path]


def _cmd_ridge(args, config: ToolConfig, outdir: Path) -> list[Path]:
    f_values = np.linspace(args.fq_min_ghz, args.fq_max_ghz, args.fq_points) * 1e9
    phi_values = np.linspace(0.0, OPERATIONAL_PHI_MAX, args.phi_points, endpoint=False)
    temps_mk = args.temps or [config.design.temperature * 1e3]
    scan = ridge_scan(config.design, f_values, phi_values,
                      np.asarray(temps_mk) * 1e-3)

    # Each frequency and flux is formatted once, into the row template of every
    # cell; each NaN mask keeps its cells' rows as one template.
    f_ghz = f_values / 1e9
    f_text = [f"{f:.9g}," for f in f_ghz.tolist()]
    phi_rows = [f"{phi:.9g},%.9g\r\n" for phi in phi_values.tolist()]
    cells = [f + row for f in f_text for row in phi_rows]
    paths, valid = [], None
    for t_mk, surface in zip(temps_mk, scan.surface):
        mask = ~np.isnan(surface)
        if valid is None or not np.array_equal(mask, valid):
            valid = mask
            body = "".join(itertools.compress(cells, valid.ravel().tolist()))
        path = outdir / _SURFACE_NAME.format(t_mk)
        _write_text(path, _csvtext.fill("fq_max_ghz,phi,sensitivity_per_phi0", body,
                                        surface[valid].tolist()))
        paths.append(path)

    columns = [np.repeat(temps_mk, len(f_ghz)).tolist(), np.tile(f_ghz, len(temps_mk)).tolist(),
               scan.ridge_phi.ravel().tolist(), scan.ridge_value.ravel().tolist()]
    path = outdir / "ridge_maxima.csv"
    _write_text(path, _csvtext.table(
        "temperature_mk,fq_max_ghz,ridge_phi,ridge_sensitivity_per_phi0",
        "%.9g,%.9g,%.9g,%.9g", columns))
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
    common.add_argument("--manifest", action="store_true", help="also write a run manifest JSON")

    parser = _Parser(prog="fluxsense",
                     description="Simulation and design tools for flux sensing "
                                 "with tunable superconducting qubits.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    p = sub.add_parser("rates", parents=[common], help="decoherence rates table")
    p.add_argument("--phi", type=_comma_floats, default="0,0.2,0.4",
                   help="comma-separated flux biases (Phi_0 units)")

    sub.add_parser("optimal-point", parents=[common], help="optimal flux and delay")

    p = sub.add_parser("ridge", parents=[common], help="sensitivity surface and ridge maxima")
    p.add_argument("--fq-min-ghz", type=float, default=2.0)
    p.add_argument("--fq-max-ghz", type=float, default=20.0)
    p.add_argument("--fq-points", type=_count, default=50)
    p.add_argument("--phi-points", type=_count, default=200)
    p.add_argument("--temps", type=_temperatures, help="comma-separated temperatures in mK")

    p = sub.add_parser("calibration", parents=[common], help="fringe pattern CSV")
    p.add_argument("--n-qubits", type=int, choices=tuple(GRID_SIZES))
    p.add_argument("--tau-ns", type=float, help="delay in ns (default: tau_min)")
    p.add_argument("--theta", type=float, default=0.0, help="measurement phase, rad")
    p.add_argument("--points", type=_count, default=512)

    p = sub.add_parser("pea", parents=[common], help="phase-estimation campaign")
    p.add_argument("--seed", type=int, help="override the master seed")
    p.add_argument("--n-qubits", type=int, choices=tuple(GRID_SIZES))
    p.add_argument("--preset", choices=_PRESETS, help="campaign scale (" + "; ".join(
        f"{name}: {preset['n_flux_targets']} targets x {preset['n_repetitions']} runs"
        for name, preset in _PRESETS.items()) + ")")
    p.add_argument("--no-decoherence", action="store_true")
    p.add_argument("--jobs", type=_count, default=1, help="worker processes")

    sub.add_parser("inductance", parents=[common], help="bias-line inductances JSON")
    return parser


def _run(args, argv: tuple[str, ...]) -> int:
    started = time.perf_counter()
    config = load_config(args.config) if args.config else parse_config("")
    # pea's flags set PeaConfig fields; calibration's --n-qubits is its own.
    if args.subcommand == "pea":
        overrides = dict(_PRESETS.get(args.preset, {}))
        if args.seed is not None:
            overrides["master_seed"] = args.seed
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
            argv=argv,
            tool_version=__version__,
            config=config_to_text(config),
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
    argv = tuple(sys.argv[1:] if argv is None else argv)
    try:
        args = _parser().parse_args(argv)
    except _UsageError as exc:
        _emit_error("usage", str(exc), EXIT_CONFIG)
        return EXIT_CONFIG
    try:
        return _run(args, argv)
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
