import csv
import dataclasses
import io
import json
import math
import random
import sys

import numpy as np
import pytest

from fluxsense import (
    BiasLineGeometry,
    ConfigError,
    FluxBias,
    FluxPatch,
    FringeEvaluator,
    OPERATIONAL_PHI_MAX,
    PeaConfig,
    SensorDesign,
    ToolConfig,
    config_to_text,
    dynamic_range,
    load_config,
    parse_config,
    rates_table,
    ridge_scan,
)
from fluxsense import GRID_SIZES, cli
from fluxsense.cli import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_NUMERICAL,
    EXIT_OK,
    RunManifest,
    main,
    manifest_to_json,
)
from fluxsense.pea import TARGET_GRID_SIZE


def _stderr_error(capsys):
    err = capsys.readouterr().err
    return json.loads(err)["error"]


def test_empty_config_is_reference_sensor():
    config = parse_config("")
    assert config.design == SensorDesign()
    assert config.pea == PeaConfig()
    assert config.geometry == BiasLineGeometry()
    assert config.bias_phi == 0.442


def test_comments_and_blank_lines_ignored():
    text = "\n# a comment\n  \nz0 = 25  # trailing note\n"
    assert parse_config(text).design.z0 == 25.0


def test_unit_suffixed_aliases():
    config = parse_config(
        "f_q_max_ghz = 9\n"
        "kappa_mhz = 0.5\n"
        "delta_ghz = 2\n"
        "c_c_ff = 0.2\n"
        "temperature_mk = 40\n"
        "tau_min_ns = 50\n"
        "m_ind_ph = 2.08\n"
        "x_a_um = 24\n"
    )
    design = config.design
    assert design.f_q_max == 9e9
    assert design.kappa == pytest.approx(2 * math.pi * 0.5e6, rel=1e-12)
    assert design.delta == pytest.approx(2 * math.pi * 2e9, rel=1e-12)
    assert design.c_c == pytest.approx(0.2e-15, rel=1e-12)
    assert design.temperature == pytest.approx(0.040, rel=1e-12)
    assert design.m_ind == pytest.approx(2.08e-12, rel=1e-12)
    assert config.pea.tau_min == pytest.approx(50e-9, rel=1e-12)
    assert config.geometry.x_a == pytest.approx(24e-6, rel=1e-12)


def test_pea_and_bias_keys():
    config = parse_config(
        "n_qubits = 2\n"
        "epsilon = 1e-3\n"
        "decoherence_enabled = off\n"
        "master_seed = 7\n"
        "bias_phi = 0.3\n"
    )
    assert config.pea.n_qubits == 2
    assert config.pea.epsilon == 1e-3
    assert config.pea.decoherence_enabled is False
    assert config.pea.master_seed == 7
    assert config.bias_phi == 0.3


@pytest.mark.parametrize("text,fragment", [
    ("f_q_max = 9e9\nf_q_max_ghz = 9\n", "both set the same parameter"),
    ("frobnicate = 1\n", "line 1: unknown key"),
    ("z0 = 50\nz0 = 60\n", "line 2: duplicate key"),
    ("z0\n", "expected 'key = value'"),
    ("z0 =\n", "expected 'key = value'"),
    ("temperature_mk = -1\n", "temperature_mk"),
    ("f_q_max_ghz = 30\n", "between 1 and 25 GHz"),
    ("epsilon = 0.6\n", "epsilon"),
    ("n_qubits = 4\n", "n_qubits"),
    ("kappa_mhz = abc\n", "line 1"),
    ("grid_size = 100\nn_steps = 9\n", "n_steps"),
    ("squid_patches = 5, 1, 0, 2\n", "squid_patches: rectangle"),
    ("squid_patches = 1, 2, 3\n", "squid_patches: expected"),
    ("squid_patches = 1, 2, 3, 4; 1, 2\n", "line 1: squid_patches: expected"),
    ("gap_patches_um = 1, 2, 3, 4;\n", "line 1: gap_patches_um: expected"),
    ("gap_patches = 1, 2, 3, 4, 0\n", "line 1: gap_patches: orientation"),
    ("squid_patches_um = 1, 2, 8, 9; 3, 4, 8, 9; 5, 6, 8, 9, 0\n",
     "line 1: squid_patches_um: orientation must be +1 or -1 (rectangle 3)"),
    ("gap_patches = 1, 2, 3, 4\ngap_patches_um = 1, 2, 3, 4\n", "both set the same"),
    ("squid_rect1 = 1, 2, 3, 4\n", "line 1: unknown key 'squid_rect1'"),
    ("z0 = 50\ntemperature_mk = -1\n", "line 2: temperature_mk"),
    ("master_seed = -3\n", "line 1: master_seed"),
    ("feed_width_um = -5\n", "line 1: unknown key"),
    ("bias_phi = 0.7\n", "line 1: bias_phi"),
    ("bias_phi = 0.4999\n", "line 1: bias_phi"),
    ("squid_patches = 0, inf, 8, 9\n", "line 1: squid_patches"),
    ("kappa_mhz = 1e308\n", "line 1: kappa_mhz"),  # finite, but inf in rad/s
])
def test_config_errors(text, fragment):
    with pytest.raises(ConfigError) as excinfo:
        parse_config(text)
    assert fragment in str(excinfo.value)


# The four tests below keep the names they had when a JSON reader fed these checks, so their
# ids stay stable; they now build the types directly, as library callers do.
def _replaced(section, field, value):
    """The default configuration's section (or the ToolConfig itself) with one field set."""
    config = parse_config("")
    return dataclasses.replace(getattr(config, section) if section else config, **{field: value})


@pytest.mark.parametrize("section,field,value", [
    ("pea", "master_seed", -3),
    ("geometry", "x_a", -1.0),
    (None, "bias_phi", 0.7),
])
def test_config_from_dict_validates(section, field, value):
    with pytest.raises(ValueError):
        _replaced(section, field, value)


def _float_leaves():
    """(section, field) of every scalar float of the default configuration."""
    config = parse_config("")
    for spec in dataclasses.fields(config):
        value = getattr(config, spec.name)
        if isinstance(value, float):
            yield None, spec.name
        elif dataclasses.is_dataclass(value):
            yield from ((spec.name, leaf.name) for leaf in dataclasses.fields(value)
                        if isinstance(getattr(value, leaf.name), float))


# Each of these has a lower bound and is closed at infinity: NaN, +inf and -inf all fail.
@pytest.mark.parametrize("section,field", [*_float_leaves(), ("pea", "measurement_cap")])
def test_config_from_dict_rejects_nan(section, field):
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=field if section else "flux bias"):
            _replaced(section, field, value)


def _pea_int_leaves():
    """Every integer field of the default configuration's pea section."""
    pea = parse_config("").pea
    return [spec.name for spec in dataclasses.fields(pea)
            if isinstance(getattr(pea, spec.name), int)
            and not isinstance(getattr(pea, spec.name), bool)]


@pytest.mark.parametrize("field", [*_pea_int_leaves(), "grid_size"])
def test_config_from_dict_rejects_non_integers(field):
    for value in (math.inf, 2.5, True):
        with pytest.raises(ValueError, match=field):
            _replaced("pea", field, value)


def test_config_from_dict_rejects_non_bools():
    for value in ("false", 2.5, 0, None):
        with pytest.raises(ValueError, match="decoherence_enabled"):
            _replaced("pea", "decoherence_enabled", value)


def test_every_dataclass_field_is_a_config_key():
    from fluxsense.config import _KEYS

    for cls in (SensorDesign, PeaConfig, BiasLineGeometry):
        for field in dataclasses.fields(cls):
            if field.init:
                assert field.name in _KEYS, f"{cls.__name__}.{field.name}"


@pytest.mark.parametrize("text", [
    "grid_size = 16\nn_steps = 4\n",
    "n_steps = 4\ngrid_size = 16\n",
])
def test_cross_field_values_checked_together(text):
    pea = parse_config(text).pea
    assert (pea.grid_size, pea.n_steps) == (16, 4)


def test_cross_field_conflict_has_no_line():
    # each line passes alone over the defaults; only together do they conflict
    with pytest.raises(ConfigError, match=r"^n_steps must satisfy"):
        parse_config("n_qubits = 2\nn_steps = 11\n")


def test_rectangle_overrides_replace_group():
    config = parse_config(
        "squid_patches_um = -10, 10, 5, 15\n"
        "gap_patches_um = 30, 50, 20, 120, 1; -12, 8, 20, 120, -1\n"
    )
    assert len(config.geometry.squid_patches) == 1
    patch = config.geometry.squid_patches[0]
    assert (patch.x1, patch.x2, patch.y1, patch.y2) == pytest.approx(
        (-10e-6, 10e-6, 5e-6, 15e-6), rel=1e-12)
    assert len(config.geometry.gap_patches) == 2
    assert [p.orientation for p in config.geometry.gap_patches] == [1.0, -1.0]
    assert config.geometry.gap_patches[1].x1 == pytest.approx(-12e-6, rel=1e-12)


def _float17(rng, low, high):
    """A float in [low, high) whose repr needs all 17 significant digits."""
    while True:
        value = rng.uniform(low, high)
        if len(repr(value).split("e")[0].lstrip("-0.").replace(".", "")) == 17:
            return value


def _patches(rng):
    """One to four valid rectangles with 17-digit corners and random orientations."""
    patches = []
    for _ in range(rng.randint(1, 4)):
        x1, y1 = _float17(rng, -1e-4, 1e-4), _float17(rng, -1e-4, 1e-4)
        patches.append(FluxPatch(x1, _float17(rng, x1 + 1e-6, x1 + 1e-4),
                                 y1, _float17(rng, y1 + 1e-6, y1 + 1e-4), rng.choice((1.0, -1.0))))
    return tuple(patches)


def _random_config(rng):
    """A valid configuration: every float a 17-digit draw, from half to twice its
    default, or over the operational range for the bias."""
    default = parse_config("")
    sections = {}
    for name in ("design", "pea", "geometry"):
        section = getattr(default, name)
        sections[name] = {spec.name: _float17(rng, 0.5 * value, 2.0 * value)
                          for spec in dataclasses.fields(section)
                          if isinstance(value := getattr(section, spec.name), float)}
    n_qubits = rng.choice((1, 2, 3))
    grid_size = rng.choice((None, 2 ** rng.randint(1, 12) * rng.choice((1, 3))))
    size = GRID_SIZES[n_qubits] if grid_size is None else grid_size
    max_steps = (size & -size).bit_length() - 1  # largest k with 2^k | size
    sections["pea"].update(
        n_qubits=n_qubits, grid_size=grid_size, n_steps=rng.randint(1, max_steps),
        n_flux_targets=rng.choice([d for d in range(1, TARGET_GRID_SIZE + 1)
                                   if TARGET_GRID_SIZE % d == 0]),
        n_repetitions=rng.randint(2, 100), master_seed=rng.randrange(2 ** 64),
        decoherence_enabled=rng.choice((True, False)), measurement_cap=rng.randint(1, 10 ** 6))
    sections["geometry"].update(squid_patches=_patches(rng), gap_patches=_patches(rng))
    return ToolConfig(SensorDesign(**sections["design"]), PeaConfig(**sections["pea"]),
                      BiasLineGeometry(**sections["geometry"]),
                      _float17(rng, 0.0, OPERATIONAL_PHI_MAX))


_RANDOM_CONFIGS = [_random_config(random.Random(seed)) for seed in range(60)]
# a group may hold any number of rectangles (nine here)
_NINE = "; ".join(f"{2 * i}, {2 * i + 1}, 8, 9, {(-1) ** i}" for i in range(-4, 5))


@pytest.mark.parametrize("config", [
    parse_config(""),
    parse_config("f_q_max_ghz = 7\n"
                 "n_qubits = 3\n"
                 "bias_phi = 0.41\n"
                 "squid_patches_um = -10, 10, 5, 15\n"),
    parse_config(f"squid_patches_um = {_NINE}\n"),
    parse_config("temperature = 0\n"),
    parse_config("decoherence_enabled = false\n"),
    parse_config("decoherence_enabled = true\n"),
    parse_config("grid_size = 64\nn_steps = 6\n"),
    *_RANDOM_CONFIGS,
])
def test_config_text_round_trip(config):
    text = config_to_text(config)
    assert parse_config(text) == config
    assert config_to_text(parse_config(text)) == text
    # an unset grid size is left out, so it keeps its default
    assert ("grid_size = " in text) == (config.pea.grid_size is not None)


@pytest.mark.parametrize("group", ["squid_patches", "gap_patches"])
def test_config_text_round_trip_has_no_empty_group(group):
    # the text format cannot spell an empty rectangle group, so no valid
    # configuration holds one: the geometry rejects it where it is made
    geometry = parse_config("").geometry
    with pytest.raises(ValueError, match="at least one"):
        dataclasses.replace(geometry, **{group: ()})
    with pytest.raises(ConfigError, match="line 1"):
        parse_config(f"{group} = \n")


def test_random_configs_vary():
    assert len(parse_config(f"squid_patches_um = {_NINE}\n").geometry.squid_patches) == 9
    assert len(set(_RANDOM_CONFIGS)) == len(_RANDOM_CONFIGS)
    assert {c.pea.grid_size is None for c in _RANDOM_CONFIGS} == {True, False}
    assert {c.pea.decoherence_enabled for c in _RANDOM_CONFIGS} == {True, False}


def test_load_config(tmp_path):
    path = tmp_path / "sensor.cfg"
    path.write_text("z0 = 30\n", encoding="utf-8")
    assert load_config(path).design.z0 == 30.0


def test_manifest_round_trip():
    config = parse_config("n_qubits = 2\nmaster_seed = 42\n")
    manifest = RunManifest(
        subcommand="rates",
        argv=("rates", "--phi", "0.1,0.3", "--manifest"),
        tool_version="0.1.0",
        config=config_to_text(config),
        output_files=("a.csv", "b.json"),
        wall_seconds=1.25,
    )
    text = manifest_to_json(manifest)
    payload = json.loads(text)
    restored = RunManifest(**{**payload, "argv": tuple(payload["argv"]),
                              "output_files": tuple(payload["output_files"])})
    assert restored == manifest
    assert parse_config(payload["config"]) == config
    assert parse_config(payload["config"]).pea.master_seed == 42
    assert text == _manifest_oracle(
        "rates", ["rates", "--phi", "0.1,0.3", "--manifest"], "0.1.0",
        parse_config("n_qubits = 2\nmaster_seed = 42\n"), ["a.csv", "b.json"], 1.25)


def _manifest_oracle(subcommand, argv, tool_version, config, output_files, wall_seconds):
    """Manifest text rendered field by field."""
    payload = {
        "subcommand": subcommand,
        "argv": list(argv),
        "tool_version": tool_version,
        "config": config_to_text(config),
        "output_files": list(output_files),
        "wall_seconds": wall_seconds,
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def test_cli_rates_matches_library_table(tmp_path, capsys):
    assert main(["rates", "--outdir", str(tmp_path)]) == EXIT_OK
    out = capsys.readouterr().out.strip().splitlines()
    assert out == [str(tmp_path / "rates.csv")]
    with open(tmp_path / "rates.csv", "r", encoding="utf-8", newline="") as handle:
        assert handle.read() == rates_table(SensorDesign(), [0.0, 0.2, 0.4])


def test_cli_rates_manifest(tmp_path, capsys):
    argv = ["rates", "--manifest", "--outdir", str(tmp_path)]
    assert main(argv) == EXIT_OK
    out = capsys.readouterr().out.strip().splitlines()
    assert out[-1] == str(tmp_path / "rates_manifest.json")
    text = (tmp_path / "rates_manifest.json").read_text()
    manifest = json.loads(text)
    assert manifest["subcommand"] == "rates"
    assert manifest["argv"] == argv
    assert parse_config(manifest["config"]).pea.master_seed == 20240917
    assert parse_config(manifest["config"]) == parse_config("")
    assert manifest["output_files"] == [str(tmp_path / "rates.csv")]
    assert manifest["wall_seconds"] >= 0.0
    assert text == _manifest_oracle("rates", argv, cli.__version__, parse_config(""),
                                    [str(tmp_path / "rates.csv")],
                                    manifest["wall_seconds"]) + "\n"


def test_cli_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("frobnicate = 1\n", encoding="utf-8")
    rc = main(["rates", "--config", str(bad), "--outdir", str(tmp_path)])
    assert rc == EXIT_CONFIG
    assert _stderr_error(capsys)["type"] == "config"
    # a non-finite rectangle corner, and a flag value the configuration rejects
    rect = tmp_path / "rect.cfg"
    rect.write_text("squid_patches = 1e-6, inf, 8e-6, 9e-6\n", encoding="utf-8")
    for argv, fragment, written in (
        (["inductance", "--config", str(rect)], "line 1: squid_patches", "inductance.json"),
        (["pea", "--seed", "-1"], "master_seed", "pea_steps.csv"),
    ):
        assert main([*argv, "--outdir", str(tmp_path)]) == EXIT_CONFIG
        error = _stderr_error(capsys)
        assert error["type"] == "config"
        assert fragment in error["message"]
        assert not (tmp_path / written).exists()
    # a bias past the operational range is rejected where it is read
    edge = tmp_path / "edge.cfg"
    edge.write_text("bias_phi = 0.4999\n", encoding="utf-8")
    for subcommand in ("calibration", "pea"):
        rc = main([subcommand, "--config", str(edge), "--outdir", str(tmp_path)])
        assert rc == EXIT_CONFIG
        error = _stderr_error(capsys)
        assert error["type"] == "config"
        assert "line 1: bias_phi" in error["message"]


def test_cli_usage_errors(tmp_path, capsys):
    rc = main(["frobnicate"])
    assert rc == EXIT_CONFIG
    assert _stderr_error(capsys)["type"] == "usage"
    # a count below 1 or an empty or malformed number list is a usage error
    # that names the flag and writes nothing
    for command, flag, value in (("ridge", "--fq-points", "0"), ("ridge", "--phi-points", "0"),
                                 ("ridge", "--fq-points", "-3"), ("calibration", "--points", "0"),
                                 ("calibration", "--points", "-1"), ("pea", "--jobs", "0"),
                                 ("pea", "--jobs", "-2"), ("rates", "--phi", "abc"),
                                 ("rates", "--phi", ","), ("rates", "--phi", ""),
                                 ("ridge", "--temps", ","), ("ridge", "--temps", "20,x"),
                                 ("ridge", "--temps", "20,20.00000001"),
                                 ("ridge", "--temps", "20,20"), ("rates", "--seed", "5")):
        outdir = tmp_path / f"{command}{flag}{value}"
        rc = main([command, flag, value, "--outdir", str(outdir)])
        assert rc == EXIT_CONFIG
        error = _stderr_error(capsys)
        assert error["type"] == "usage" and flag in error["message"]
        assert not outdir.exists()
    # surfaces are named by the nine digits ridge_maxima.csv prints, so
    # temperatures that differ within them get a surface each
    for temps, names in (("20,20.0000001", ("20", "20.0000001")),
                         ("20.00001,20.00002", ("20.00001", "20.00002"))):
        outdir = tmp_path / f"ridge{temps}"
        rc = main(["ridge", "--temps", temps, "--fq-points", "2", "--phi-points", "3",
                   "--outdir", str(outdir)])
        assert rc == EXIT_OK
        assert capsys.readouterr().out.splitlines() == [
            *(str(outdir / f"ridge_surface_{name}mk.csv") for name in names),
            str(outdir / "ridge_maxima.csv")]


def test_cli_parser_is_built_once_and_reused(tmp_path, capsys, monkeypatch):
    commands = (["frobnicate"], ["rates", "--outdir", str(tmp_path)],
                ["inductance", "--outdir", str(tmp_path)])
    outputs = {"rates": "rates.csv", "inductance": "inductance.json"}

    def invoke(argv):
        rc = main(argv)
        captured = capsys.readouterr()
        path = tmp_path / outputs.get(argv[0], "none")
        return rc, captured.out, captured.err, path.read_bytes() if path.exists() else None

    first = []
    for argv in commands:
        cli._parser.cache_clear()
        first.append(invoke(argv))
    assert [result[0] for result in first] == [EXIT_CONFIG, EXIT_OK, EXIT_OK]

    builds = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
    cli._parser.cache_clear()
    assert [invoke(argv) for argv in commands] == first
    assert len(builds) == 1


@pytest.mark.parametrize("phi", ["0.6", "nan", "0.2,nan"])
def test_cli_rates_flux_outside_range_is_numerical_error(tmp_path, capsys, phi):
    assert main(["rates", "--phi", phi, "--outdir", str(tmp_path)]) == EXIT_NUMERICAL
    assert _stderr_error(capsys)["type"] == "numerical"
    assert not (tmp_path / "rates.csv").exists()


def test_cli_numerical_error(tmp_path, capsys):
    cfg = tmp_path / "sweet.cfg"
    cfg.write_text("bias_phi = 0\n", encoding="utf-8")  # no flux slope there
    rc = main(["calibration", "--config", str(cfg), "--outdir", str(tmp_path)])
    assert rc == EXIT_NUMERICAL
    assert _stderr_error(capsys)["type"] == "numerical"
    # non-finite flag values: nothing is written
    for argv in (["ridge", "--temps", "inf"], ["calibration", "--tau-ns", "inf"],
                 ["calibration", "--theta", "inf"]):
        assert main([*argv, "--outdir", str(tmp_path)]) == EXIT_NUMERICAL
        assert _stderr_error(capsys)["type"] == "numerical"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["sweet.cfg"]


def test_cli_pea_option_conflict_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "steps.cfg"
    cfg.write_text("n_steps = 11\n", encoding="utf-8")  # fits 6144 = 3 * 2^11, not 3072
    rc = main(["pea", "--n-qubits", "2", "--config", str(cfg), "--outdir", str(tmp_path)])
    assert rc == EXIT_CONFIG
    error = _stderr_error(capsys)
    assert error["type"] == "config"
    assert "n_steps" in error["message"]
    assert not (tmp_path / "pea_steps.csv").exists()


def test_cli_io_error(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("", encoding="utf-8")
    rc = main(["rates", "--outdir", str(blocker / "sub")])
    assert rc == EXIT_IO
    assert _stderr_error(capsys)["type"] == "io"


def test_cli_optimal_point(tmp_path, capsys):
    assert main(["optimal-point", "--outdir", str(tmp_path)]) == EXIT_OK
    capsys.readouterr()
    payload = json.loads((tmp_path / "optimal_point.json").read_text())
    assert 0.439 <= payload["phi_star"] <= 0.445
    assert payload["tau_opt"] == pytest.approx(3.292e-6, rel=2e-2)
    assert payload["t2"] == pytest.approx(4.625e-6, rel=2e-2)
    assert payload["n_steps"] == 6
    assert payload["at_search_boundary"] is False
    assert payload["sensitivity"] == pytest.approx(203174.7, rel=1e-4)
    assert payload["dynamic_range"] == pytest.approx(1.50779100e-4, rel=1e-6)


def test_cli_calibration(tmp_path, capsys):
    assert main(["calibration", "--outdir", str(tmp_path)]) == EXIT_OK
    capsys.readouterr()
    written = (tmp_path / "calibration_pattern.csv").read_bytes()
    lines = written.decode().splitlines()
    assert lines[0] == "phi_ext,probability"
    assert len(lines) == 1 + 512
    probs = [float(line.split(",")[1]) for line in lines[1:]]
    assert all(0.0 <= p <= 1.0 for p in probs)
    assert float(lines[1].split(",")[0]) == 0.0

    # Format oracle: the same pattern rendered one csv.writer row per point
    config = parse_config("")
    bias = FluxBias(config.bias_phi)
    span = dynamic_range(config.design, bias, config.pea.tau_min, config.pea.n_qubits)
    phi_values = (span / 512) * np.arange(512)
    evaluator = FringeEvaluator(config.design, bias, n_qubits=config.pea.n_qubits,
                                decoherence_enabled=config.pea.decoherence_enabled)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(("phi_ext", "probability"))
    for phi, p in zip(phi_values, evaluator.probability_excited(phi_values, config.pea.tau_min)):
        writer.writerow((f"{phi:.9g}", f"{p:.9g}"))
    assert written == buf.getvalue().encode()


def test_cli_calibration_manifest_replays_its_flags(tmp_path, capsys, monkeypatch):
    # the resolved configuration does not hold calibration's flags; argv does,
    # and replaying it writes the same pattern
    flags = ["calibration", "--n-qubits", "3", "--tau-ns", "250", "--points", "64",
             "--theta", "0.5", "--manifest"]
    monkeypatch.setattr(sys, "argv", ["fluxsense", *flags, "--outdir", str(tmp_path / "a")])
    assert main() == EXIT_OK
    manifest = json.loads((tmp_path / "a" / "calibration_manifest.json").read_text())
    assert manifest["argv"] == [*flags, "--outdir", str(tmp_path / "a")]
    # no flag reaches the configuration
    assert parse_config(manifest["config"]) == parse_config("")
    assert main([*manifest["argv"][:-1], str(tmp_path / "b")]) == EXIT_OK
    assert main(["calibration", "--outdir", str(tmp_path / "default")]) == EXIT_OK
    capsys.readouterr()
    pattern = (tmp_path / "a" / "calibration_pattern.csv").read_bytes()
    assert (tmp_path / "b" / "calibration_pattern.csv").read_bytes() == pattern
    assert (tmp_path / "default" / "calibration_pattern.csv").read_bytes() != pattern
    assert len(pattern.splitlines()) == 1 + 64


def test_cli_inductance(tmp_path, capsys):
    assert main(["inductance", "--outdir", str(tmp_path)]) == EXIT_OK
    capsys.readouterr()
    payload = json.loads((tmp_path / "inductance.json").read_text())
    assert payload["M_pH"] == pytest.approx(2.07547300, rel=1e-6)
    assert payload["M_parasitic_pH"] == pytest.approx(0.231783175, rel=1e-6)
    assert 0.99 <= payload["periodicity_mA"] <= 1.01


def test_cli_ridge(tmp_path, capsys):
    rc = main(["ridge", "--fq-points", "3", "--phi-points", "40",
               "--temps", "20,40,75", "--outdir", str(tmp_path)])
    assert rc == EXIT_OK
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 4
    for t in (20, 40, 75):
        lines = (tmp_path / f"ridge_surface_{t}mk.csv").read_text().splitlines()
        assert lines[0] == "fq_max_ghz,phi,sensitivity_per_phi0"
        assert len(lines) > 1
    maxima = (tmp_path / "ridge_maxima.csv").read_text().splitlines()
    assert maxima[0] == "temperature_mk,fq_max_ghz,ridge_phi,ridge_sensitivity_per_phi0"
    assert len(maxima) == 1 + 3 * 3
    for line in maxima[1:]:
        ridge_phi = float(line.split(",")[2])
        assert 0.0 <= ridge_phi < 0.5

    # Format oracle: each surface and the maxima rendered one csv.writer row
    # per line, also on a grid whose labels need all nine digits
    _check_ridge_surfaces(tmp_path, 2.0, 20.0, 3, 40, (20, 40, 75))
    grid_dir = tmp_path / "grid"
    rc = main(["ridge", "--fq-min-ghz", "1", "--fq-max-ghz", "25", "--fq-points", "8",
               "--phi-points", "33", "--temps", "0,40,12.3456789", "--outdir", str(grid_dir)])
    assert rc == EXIT_OK
    capsys.readouterr()
    _check_ridge_surfaces(grid_dir, 1.0, 25.0, 8, 33, (0, 40, 12.3456789))


def _check_ridge_surfaces(outdir, fq_min_ghz, fq_max_ghz, fq_points, phi_points, temps_mk):
    f_values = np.linspace(fq_min_ghz, fq_max_ghz, fq_points) * 1e9
    phi_values = np.linspace(0.0, 0.4999, phi_points, endpoint=False)
    scan = ridge_scan(SensorDesign(), f_values, phi_values, np.array(temps_mk) * 1e-3)
    for t, surface in zip(temps_mk, scan.surface):
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(("fq_max_ghz", "phi", "sensitivity_per_phi0"))
        for (i, j), value in np.ndenumerate(surface):
            if not np.isnan(value):
                writer.writerow((f"{f_values[i] / 1e9:.9g}", f"{phi_values[j]:.9g}",
                                 f"{value:.9g}"))
        path = outdir / f"ridge_surface_{float(t):.9g}mk.csv"
        assert path.read_bytes() == buf.getvalue().encode()
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(("temperature_mk", "fq_max_ghz", "ridge_phi", "ridge_sensitivity_per_phi0"))
    for t_index, t in enumerate(temps_mk):
        for i, f in enumerate(f_values):
            writer.writerow((f"{float(t):.9g}", f"{f / 1e9:.9g}",
                             f"{scan.ridge_phi[t_index, i]:.9g}",
                             f"{scan.ridge_value[t_index, i]:.9g}"))
    assert (outdir / "ridge_maxima.csv").read_bytes() == buf.getvalue().encode()


def test_cli_ridge_surface_drops_the_nan_cells(tmp_path, capsys, monkeypatch):
    # Surfaces with more NaN cells, the same at every temperature as
    # ridge_scan's (test_ridge_scan_masks_unreachable_flux): each file keeps
    # exactly the non-NaN cells, in the csv.writer oracle's bytes
    scans = []

    def scan_with_holes(*args):
        scan = ridge_scan(*args)
        scan.surface[:, 0, :5] = np.nan
        scan.surface[:, 1, 3] = np.nan
        scans.append(scan)
        return scan

    monkeypatch.setattr(cli, "ridge_scan", scan_with_holes)
    temps = (20, 40, 75, 90)
    rc = main(["ridge", "--fq-points", "3", "--phi-points", "10",
               "--temps", ",".join(map(str, temps)), "--outdir", str(tmp_path)])
    assert rc == EXIT_OK
    capsys.readouterr()
    (scan,) = scans
    for t, surface in zip(temps, scan.surface):
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(("fq_max_ghz", "phi", "sensitivity_per_phi0"))
        for (i, j), value in np.ndenumerate(surface):
            if not np.isnan(value):
                writer.writerow((f"{scan.f_q_max_values[i] / 1e9:.9g}",
                                 f"{scan.phi_values[j]:.9g}", f"{value:.9g}"))
        assert (tmp_path / f"ridge_surface_{t}mk.csv").read_bytes() == buf.getvalue().encode()


TINY_PEA_CFG = (
    "n_qubits = 3\n"
    "grid_size = 64\n"
    "n_steps = 6\n"
    "n_flux_targets = 4\n"
    "n_repetitions = 2\n"
    "decoherence_enabled = false\n"
)


def test_cli_pea_reproducible(tmp_path, capsys):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY_PEA_CFG, encoding="utf-8")
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    for outdir in (dir_a, dir_b):
        rc = main(["pea", "--config", str(cfg), "--outdir", str(outdir)])
        assert rc == EXIT_OK
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 6  # steps, runs, manifest per invocation
    for name in ("pea_steps.csv", "pea_runs.csv"):
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()
    manifest = json.loads((dir_a / "pea_manifest.json").read_text())
    assert manifest["subcommand"] == "pea"
    config = parse_config(manifest["config"])
    assert config == parse_config(TINY_PEA_CFG)
    assert config.pea.master_seed == 20240917
    assert config.pea.grid_size == 64
    assert config.pea.decoherence_enabled is False
    steps = (dir_a / "pea_steps.csv").read_text().splitlines()
    assert len(steps) == 1 + 6


def test_cli_pea_seed_override(tmp_path, capsys):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY_PEA_CFG, encoding="utf-8")
    rc = main(["pea", "--config", str(cfg), "--seed", "99",
               "--outdir", str(tmp_path)])
    assert rc == EXIT_OK
    capsys.readouterr()
    manifest = json.loads((tmp_path / "pea_manifest.json").read_text())
    config = parse_config(manifest["config"])
    assert config.pea.master_seed == 99
    assert config == parse_config(TINY_PEA_CFG + "master_seed = 99\n")


@pytest.mark.parametrize("cfg,flags,outputs", [
    (TINY_PEA_CFG, ["pea", "--seed", "99", "--no-decoherence"], ["pea_steps.csv", "pea_runs.csv"]),
    ("z0 = 30\n", ["rates", "--phi", "0.1,0.3", "--manifest"], ["rates.csv"]),
])
def test_cli_run_repeats_from_its_manifest_alone(tmp_path, capsys, monkeypatch, cfg, flags,
                                                 outputs):
    # the first run's config file is gone; the manifest's argv and config
    # text repeat the run, since argparse keeps the last --config and --outdir
    monkeypatch.chdir(tmp_path)
    (tmp_path / "first.cfg").write_text(cfg, encoding="utf-8")
    command, *options = flags
    assert main([command, "--config", "first.cfg", *options, "--outdir", "a"]) == EXIT_OK
    (tmp_path / "first.cfg").unlink()
    manifest = json.loads((tmp_path / "a" / f"{command}_manifest.json").read_text())
    (tmp_path / "replay.cfg").write_text(manifest["config"], encoding="utf-8")
    assert parse_config(manifest["config"]) != parse_config("")  # the file mattered
    assert main([*manifest["argv"], "--config", "replay.cfg", "--outdir", "b"]) == EXIT_OK
    capsys.readouterr()
    for name in outputs:
        assert (tmp_path / "b" / name).read_bytes() == (tmp_path / "a" / name).read_bytes()


def test_cli_outdir_environment(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("FLUXSENSE_OUTDIR", str(tmp_path))
    assert main(["inductance"]) == EXIT_OK
    capsys.readouterr()
    assert (tmp_path / "inductance.json").exists()
