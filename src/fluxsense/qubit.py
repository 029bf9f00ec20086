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
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


class FluxDomainError(ValueError):
    """Flux bias outside the usable part of the half-period."""


_H = 6.62607015e-34     # J s
_E = 1.602176634e-19    # C


@dataclass(frozen=True)
class PhysicalConstants:
    """Physical constants used by the model, bundled for traceability.

    h, e and k_B are exact in the SI since 2019; mu_0 is the CODATA 2022
    value; hbar = h / 2 pi and Phi_0 = h / 2e follow from them.
    """

    h: float = _H
    hbar: float = _H / (2 * math.pi)
    e: float = _E
    k_B: float = 1.380649e-23   # J/K
    mu_0: float = 1.25663706127e-06   # N/A^2
    Phi_0: float = _H / (2 * _E)


CONSTANTS = PhysicalConstants()

# Operations stay clear of the cos(pi phi) -> 0 divergence at half flux.
OPERATIONAL_PHI_MAX = 0.4999


def _operational(phi):
    """Whether phi lies in [0, OPERATIONAL_PHI_MAX), elementwise; NaN does not."""
    return (phi >= 0.0) & (phi < OPERATIONAL_PHI_MAX)


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
            raise ValueError(f"f_q_max must lie between 1 and 25 GHz, got {self.f_q_max} Hz")
        # Written so that NaN and +-inf fail every check.
        for name in ("e_c_over_h", "kappa", "delta", "z0", "c_c", "c_qg"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")
        for name in ("beta", "m_ind", "m_parasitic", "alpha_flux", "gamma_ic", "temperature"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(
                    f"{name} must be non-negative and finite, got {getattr(self, name)}")


@dataclass(frozen=True)
class FluxBias:
    """External flux bias in units of Phi_0, in the operational range."""

    phi: float

    def __post_init__(self) -> None:
        if not _operational(self.phi):
            raise FluxDomainError(
                f"flux bias must lie in [0, {OPERATIONAL_PHI_MAX}), got {self.phi}"
            )


def _require_operational(phi) -> None:
    if not np.all(_operational(np.asarray(phi))):
        raise FluxDomainError(
            f"flux must lie in [0, {OPERATIONAL_PHI_MAX}) for spectrum evaluation"
        )


def _is_integer(value) -> bool:
    """Whether ``value`` is an integer (a numpy one too) and not a bool."""
    if isinstance(value, bool):
        return False
    try:
        operator.index(value)
    except TypeError:
        return False
    return True


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


def _visibility(f_q, temperature):
    # Scalar or array temperature, broadcast against f_q; 1 where T = 0,
    # where the tanh argument is a division by zero.
    t = np.asarray(temperature, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        v = np.tanh(CONSTANTS.h * f_q / (2 * CONSTANTS.k_B * t))
    return np.where(t == 0, 1.0, v)


class SpectrumDerivatives(NamedTuple):
    """Flux and critical-current derivatives of the angular frequency."""

    d_omega_d_phi: float        # rad/s per Phi_0
    d2_omega_d_phi2: float      # rad/s per Phi_0^2
    d_omega_d_ln_ic: float      # I_c * domega/dI_c, rad/s


def transition_frequency(design: SensorDesign, bias: FluxBias) -> float:
    """Qubit transition frequency at the given bias, Hz."""
    return float(_f_q(design, bias.phi))


def spectrum_derivatives(design: SensorDesign, bias: FluxBias) -> SpectrumDerivatives:
    """First and second flux derivatives plus the fractional I_c derivative."""
    return SpectrumDerivatives(
        float(_d_omega_d_phi(design, bias.phi)),
        float(_d2_omega_d_phi2(design, bias.phi)),
        float(_d_omega_d_ln_ic(design, bias.phi)),
    )


def josephson_inductance(design: SensorDesign, bias: FluxBias) -> float:
    """Effective Josephson inductance of the SQUID at the bias point, H."""
    return float(_l_j(design, bias.phi))


def coupling_g01(design: SensorDesign, bias: FluxBias) -> float:
    """Qubit-resonator coupling rate g01 at the bias point, rad/s."""
    return float(np.sqrt(_g01_squared(design, bias.phi)))


def thermal_visibility(f_q: float, temperature: float) -> float:
    """Fringe visibility from thermal initialization, tanh(h f / 2 k T).

    Returns 1.0 at zero temperature.
    """
    if not f_q > 0:
        raise ValueError(f"transition frequency must be positive, got {f_q}")
    if not temperature >= 0:
        raise ValueError("temperature must be non-negative")
    return float(_visibility(f_q, temperature))
