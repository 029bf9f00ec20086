"""Flux-tunable transmon sensor: device parameters and spectrum.

The qubit transition frequency follows the split-junction transmon
dispersion on the rising half of the flux period,

    f_q(phi) = (f_q_max + E_C/h) sqrt(cos(pi phi)) - E_C/h,

with phi the external flux in units of the flux quantum.  Everything
downstream (decoherence rates, fringe patterns, sensitivity) is driven
by this dispersion and its flux derivatives.

Unit conventions used throughout the package: plain frequencies in Hz,
angular frequencies and rates in rad/s and 1/s, flux in units of Phi_0,
temperatures in K.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import constants as _const


class FluxDomainError(ValueError):
    """Flux bias outside the usable part of the half-period."""


@dataclass(frozen=True)
class PhysicalConstants:
    """CODATA constants used by the model, bundled for traceability."""

    h: float = _const.h
    hbar: float = _const.hbar
    e: float = _const.e
    k_B: float = _const.k
    mu_0: float = _const.mu_0
    Phi_0: float = _const.physical_constants["mag. flux quantum"][0]


CONSTANTS = PhysicalConstants()

# Operations stay clear of the cos(pi phi) -> 0 divergence at half flux.
OPERATIONAL_PHI_MAX = 0.4999


@dataclass(frozen=True)
class SensorDesign:
    """Fabrication and operation parameters of one tunable-qubit sensor.

    Defaults describe the reference design: a 9 GHz x-mon style qubit
    read out through a resonator, operated at 40 mK.

    Parameters
    ----------
    f_q_max:
        Zero-bias (sweet spot) transition frequency, Hz.
    e_c_over_h:
        Charging energy divided by h, Hz.
    kappa:
        Total readout-resonator decay rate, rad/s.
    delta:
        Qubit-resonator detuning, rad/s.
    z0:
        Characteristic line impedance, Ohm.
    beta:
        Capacitive participation ratio of the readout coupling.
    c_c:
        Coupling capacitance to the drive line, F.
    c_qg:
        Qubit capacitance to ground, F.
    m_ind:
        Mutual inductance between bias line and SQUID loop, H.
    m_parasitic:
        Parasitic mutual inductance into the qubit gap, H.
    alpha_flux:
        1/f flux-noise amplitude, in units of Phi_0.
    gamma_ic:
        Critical-current noise amplitude, as a fraction of I_c.
    temperature:
        Operating temperature, K.
    """

    f_q_max: float = 9e9
    e_c_over_h: float = 0.254e9
    kappa: float = 2 * math.pi * 0.5e6
    delta: float = 2 * math.pi * 2e9
    z0: float = 50.0
    beta: float = 0.03
    c_c: float = 0.2e-15
    c_qg: float = 76e-15
    m_ind: float = 2.08e-12
    m_parasitic: float = 0.22e-12
    alpha_flux: float = 1e-6
    gamma_ic: float = 1e-6
    temperature: float = 0.04

    def __post_init__(self) -> None:
        if not 1e9 <= self.f_q_max <= 25e9:
            raise ValueError(f"f_q_max must lie in [1, 25] GHz, got {self.f_q_max}")
        for name in ("e_c_over_h", "kappa", "delta", "z0", "c_c", "c_qg"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("beta", "m_ind", "m_parasitic", "alpha_flux", "gamma_ic", "temperature"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


@dataclass(frozen=True)
class FluxBias:
    """External flux bias in units of Phi_0, on the rising half-period."""

    phi: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.phi < 0.5:
            raise FluxDomainError(f"flux bias must lie in [0, 0.5), got {self.phi}")


def _require_operational(phi) -> None:
    if np.any(np.asarray(phi) < 0.0) or np.any(np.asarray(phi) >= OPERATIONAL_PHI_MAX):
        raise FluxDomainError(
            f"flux must lie in [0, {OPERATIONAL_PHI_MAX}) for spectrum evaluation"
        )


# Array-capable cores shared by the other modules.  phi is raw flux in
# Phi_0 units, already validated by the public wrappers.

def _f_q(design: SensorDesign, phi):
    return (design.f_q_max + design.e_c_over_h) * np.sqrt(np.cos(np.pi * phi)) - design.e_c_over_h


def _omega_q(design: SensorDesign, phi):
    return 2 * np.pi * _f_q(design, phi)


def _d_omega_d_phi(design: SensorDesign, phi):
    c = np.cos(np.pi * phi)
    return -np.pi**2 * (design.f_q_max + design.e_c_over_h) * np.sin(np.pi * phi) / np.sqrt(c)


def _d2_omega_d_phi2(design: SensorDesign, phi):
    c = np.cos(np.pi * phi)
    return -np.pi**3 * (design.f_q_max + design.e_c_over_h) * (1 + c * c) / (2 * c**1.5)


def _d_omega_d_ln_ic(design: SensorDesign, phi):
    # I_c * domega/dI_c: fractional critical-current derivative, rad/s
    return np.pi * (design.f_q_max + design.e_c_over_h) * np.sqrt(np.cos(np.pi * phi))


def _l_j(design: SensorDesign, phi):
    e_c = CONSTANTS.h * design.e_c_over_h
    omega_max_plus = 2 * np.pi * (design.f_q_max + design.e_c_over_h)
    return 2 * e_c / (CONSTANTS.e**2 * omega_max_plus**2 * np.cos(np.pi * phi))


def _g01_squared(design: SensorDesign, phi):
    ratio = (design.f_q_max + design.e_c_over_h) / design.e_c_over_h
    return (
        design.beta**2
        * CONSTANTS.e**2
        * (design.z0 / CONSTANTS.h)
        * (_omega_q(design, phi) + design.delta) ** 2
        * ratio
        * np.sqrt(np.cos(np.pi * phi))
    )


def _visibility(f_q, temperature: float):
    if temperature == 0:
        return 1.0
    return np.tanh(CONSTANTS.h * f_q / (2 * CONSTANTS.k_B * temperature))


class SpectrumDerivatives(NamedTuple):
    """Flux and critical-current derivatives of the angular frequency."""

    d_omega_d_phi: float        # rad/s per Phi_0
    d2_omega_d_phi2: float      # rad/s per Phi_0^2
    d_omega_d_ln_ic: float      # I_c * domega/dI_c, rad/s


def transition_frequency(design: SensorDesign, bias: FluxBias) -> float:
    """Qubit transition frequency at the given bias, Hz."""
    _require_operational(bias.phi)
    return float(_f_q(design, bias.phi))


def spectrum_derivatives(design: SensorDesign, bias: FluxBias) -> SpectrumDerivatives:
    """First and second flux derivatives plus the fractional I_c derivative."""
    _require_operational(bias.phi)
    return SpectrumDerivatives(
        float(_d_omega_d_phi(design, bias.phi)),
        float(_d2_omega_d_phi2(design, bias.phi)),
        float(_d_omega_d_ln_ic(design, bias.phi)),
    )


def josephson_inductance(design: SensorDesign, bias: FluxBias) -> float:
    """Effective Josephson inductance of the SQUID at the bias point, H."""
    _require_operational(bias.phi)
    return float(_l_j(design, bias.phi))


def coupling_g01(design: SensorDesign, bias: FluxBias) -> float:
    """Qubit-resonator coupling rate g01 at the bias point, rad/s."""
    _require_operational(bias.phi)
    return float(np.sqrt(_g01_squared(design, bias.phi)))


def thermal_visibility(f_q: float, temperature: float) -> float:
    """Fringe visibility from thermal initialization, tanh(h f / 2 k T).

    Returns 1.0 at zero temperature.
    """
    if f_q <= 0:
        raise ValueError(f"transition frequency must be positive, got {f_q}")
    if temperature < 0:
        raise ValueError("temperature must be non-negative")
    return float(_visibility(f_q, temperature))
