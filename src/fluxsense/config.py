"""Flat ``key = value`` configuration for the whole toolkit.

Format rules: one ``key = value`` assignment per line, ``#`` starts a
comment, blank lines are ignored, keys are case-sensitive.  Unknown,
malformed and out-of-range values are rejected with their line number.
Keys left out fall back to the reference-sensor defaults, so an empty
file is a complete, valid configuration.

The canonical keys are the fields of ``SensorDesign``, ``PeaConfig`` and
``BiasLineGeometry`` plus ``bias_phi``, in SI units, each parsed by its
field's type.  The unit-suffixed aliases in ``_ALIASES`` (``f_q_max_ghz``,
``kappa_mhz``, ``temperature_mk``, ``tau_min_ns``, ``x_a_um``, ...) are
scaled into SI; setting both spellings of one field is an error.
``kappa_mhz`` and ``delta_ghz`` take plain linewidth/detuning
frequencies and are converted to angular rates.

The bias-line patch groups ``squid_patches`` and ``gap_patches`` (meters,
or the ``_um`` aliases) take ``;``-separated rectangles, each
``x1, x2, y1, y2`` with an optional fifth entry ``orientation`` (+1 or
-1; a unit alias scales the corners only).  Setting a group replaces
its whole default rectangle set.

``config_to_text`` writes a resolved configuration back as canonical
text, floats exactly; run manifests store it, and ``parse_config`` is
the one reader of both.

Only the dataclasses check ranges, finiteness included, so a value
meets the same rules however it arrives.  A rejected configuration is
reported at the first line whose value fails on its own over the
defaults; a conflict between lines that pass alone has no line number.
"""

from __future__ import annotations

import functools
import math
from dataclasses import astuple, dataclass, field, fields, is_dataclass
from typing import get_type_hints

from .magnetostatics import BiasLineGeometry, FluxPatch
from .pea import PeaConfig
from .qubit import FluxBias, SensorDesign

DEFAULT_BIAS_PHI = 0.442  # operating point of the reference sensor


class ConfigError(ValueError):
    """Malformed, unknown, or out-of-range configuration input."""


@dataclass(frozen=True)
class ToolConfig:
    """Fully resolved configuration: sensor, campaign, and layout."""

    design: SensorDesign = field(default_factory=SensorDesign)
    pea: PeaConfig = field(default_factory=PeaConfig)
    geometry: BiasLineGeometry = field(default_factory=BiasLineGeometry)
    bias_phi: float = DEFAULT_BIAS_PHI

    def __post_init__(self) -> None:
        FluxBias(self.bias_phi)


def _parse_int(text: str) -> int:
    try:
        return int(text, 10)
    except ValueError:
        raise ValueError(f"expected an integer, got {text!r}") from None


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected a boolean (true/false), got {text!r}")


def _parse_float(text: str, scale: float = 1.0) -> float:
    return float(text) * scale


def _parse_patches(text: str, scale: float = 1.0) -> tuple[FluxPatch, ...]:
    patches = []
    for number, rect in enumerate(text.split(";"), start=1):
        parts = rect.split(",")
        try:
            if len(parts) not in (4, 5):
                raise ValueError(
                    "expected ';'-separated 'x1, x2, y1, y2[, orientation]' rectangles")
            values = [float(part) for part in parts]
            patches.append(FluxPatch(*(v * scale for v in values[:4]), *values[4:]))
        except ValueError as exc:
            raise ValueError(f"{exc} (rectangle {number})") from exc
    return tuple(patches)


_PATCHES = tuple[FluxPatch, ...]
_PARSERS = {float: _parse_float, int: _parse_int, int | None: _parse_int, bool: _parse_bool,
            _PATCHES: _parse_patches}

# Unit-suffixed alias -> (canonical key, factor into SI units).
_ANGULAR_MHZ = 2 * math.pi * 1e6
_ANGULAR_GHZ = 2 * math.pi * 1e9
_ALIASES = {
    "f_q_max_ghz": ("f_q_max", 1e9),
    "e_c_over_h_ghz": ("e_c_over_h", 1e9),
    "kappa_mhz": ("kappa", _ANGULAR_MHZ),
    "delta_ghz": ("delta", _ANGULAR_GHZ),
    "z0_ohm": ("z0", 1.0),
    "c_c_ff": ("c_c", 1e-15),
    "c_qg_ff": ("c_qg", 1e-15),
    "m_ind_ph": ("m_ind", 1e-12),
    "m_parasitic_ph": ("m_parasitic", 1e-12),
    "temperature_mk": ("temperature", 1e-3),
    "tau_min_ns": ("tau_min", 1e-9),
    "x_a_um": ("x_a", 1e-6),
    "squid_patches_um": ("squid_patches", 1e-6),
    "gap_patches_um": ("gap_patches", 1e-6),
}


def _derive_keys() -> tuple[dict[str, type], dict[str, tuple[tuple[str, ...], object]]]:
    """ToolConfig's dataclass sections, and key -> (path in nested section form, parser)."""
    sections: dict[str, type] = {}
    keys: dict[str, tuple[tuple[str, ...], object]] = {}
    for outer, outer_type in get_type_hints(ToolConfig).items():
        if not is_dataclass(outer_type):
            keys[outer] = ((outer,), _PARSERS[outer_type])
            continue
        sections[outer] = outer_type
        hints = get_type_hints(outer_type)
        for spec in fields(outer_type):
            keys[spec.name] = ((outer, spec.name), _PARSERS[hints[spec.name]])
    for alias, (canonical, scale) in _ALIASES.items():
        path, parser = keys[canonical]
        keys[alias] = (path, functools.partial(parser, scale=scale))
    return sections, keys


_SECTIONS, _KEYS = _derive_keys()


def _scan_lines(text: str) -> dict[str, tuple[int, str]]:
    """key -> (line number, raw value), rejecting malformed lines."""
    assignments: dict[str, tuple[int, str]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key or not value:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in assignments:
            raise ConfigError(
                f"line {lineno}: duplicate key {key!r} (first set on line {assignments[key][0]})"
            )
        assignments[key] = (lineno, value)
    return assignments


def _assign(data: dict, path: tuple[str, ...], value) -> dict:
    *outer, name = path
    inner = data
    for part in outer:
        inner = inner.setdefault(part, {})
    inner[name] = value
    return data


def _build(data: dict) -> ToolConfig:
    """ToolConfig from nested section form; omitted fields take their defaults."""
    sections = {name: cls(**data.get(name, {})) for name, cls in _SECTIONS.items()}
    return ToolConfig(**sections, **{k: v for k, v in data.items() if k not in _SECTIONS})


def parse_config(text: str) -> ToolConfig:
    """Parse configuration text into a fully resolved ToolConfig."""
    first_key: dict[tuple[str, ...], str] = {}
    data: dict = {}
    settings = []  # (path, value, key, line number), in line order
    for key, (lineno, raw) in _scan_lines(text).items():
        path, parser = _KEYS[key]
        other = first_key.setdefault(path, key)
        if other != key:
            raise ConfigError(f"keys {other!r} and {key!r} both set the same parameter")
        try:
            value = parser(raw)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: {key}: {exc}") from exc
        _assign(data, path, value)
        settings.append((path, value, key, lineno))
    try:
        return _build(data)
    except ValueError as exc:
        for path, value, key, lineno in settings:
            try:
                _build(_assign({}, path, value))
            except ValueError as alone:
                raise ConfigError(f"line {lineno}: {key}: {alone}") from alone
        raise ConfigError(str(exc)) from exc


def load_config(path) -> ToolConfig:
    """Read and parse a configuration file."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_config(handle.read())


def _value_text(value) -> str:
    """``value`` as config text; ``str`` of a float is its round-tripping ``repr``."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):  # a rectangle group, every FluxPatch value written
        return "; ".join(", ".join(map(_value_text, astuple(patch))) for patch in value)
    return str(value)


def config_to_text(config: ToolConfig) -> str:
    """Inverse of parse_config: every field under its canonical key, in
    ToolConfig field order.  A field that is None is left out, so it keeps
    its default."""
    lines = []
    for key, (path, _) in _KEYS.items():
        value = functools.reduce(getattr, path, config)
        if key not in _ALIASES and value is not None:
            lines.append(f"{key} = {_value_text(value)}\n")
    return "".join(lines)
