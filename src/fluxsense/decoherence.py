"""Decoherence channels of the flux sensor.

Energy relaxation is dominated by photon loss through the readout
resonator and by inductive / capacitive coupling into the control
wiring.  Pure dephasing comes from 1/f flux noise (a Gaussian decay
from the first flux derivative and a time-linear decay from the second)
and from 1/f critical-current noise.  Quasiparticle and dielectric
contributions are negligible for this design and left out.

Every rate is returned in 1/s.  Tabulated output converts to kHz by
dividing by 1000 (no 2 pi).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _csvtext
from .qubit import (
    FluxBias,
    SensorDesign,
    _d2_omega_d_phi2,
    _d_omega_d_ln_ic,
    _d_omega_d_phi,
    _g01_squared,
    _l_j,
    _omega_q,
    _require_operational,
)

RATES_TABLE_HEADER = (
    "phi",
    "gamma1_cav_khz",
    "gamma1_ind_khz",
    "gamma1_cap_khz",
    "gammaphi_flux_exp_khz",
    "gammaphi_flux_gauss_khz",
    "gammaphi_curr_khz",
)


@dataclass(frozen=True)
class DecayRates:
    """All decoherence channels at one bias point, in 1/s.

    ``envelope_a`` multiplies t and ``envelope_b`` squares with t in the
    fringe decay exp(-(A t + B^2 t^2)).
    """

    gamma1_cav: float
    gamma1_ind: float
    gamma1_cap: float
    gamma_phi_flux_exp: float
    gamma_phi_flux_gauss: float
    gamma_phi_curr_gauss: float
    envelope_a: float
    envelope_b: float


def channel_rates(design: SensorDesign, phi) -> tuple:
    """Every channel and the envelope rates over an array of flux, 1/s.

    Returns arrays in ``DecayRates`` field order: cavity, inductive and
    capacitive relaxation, exponential and Gaussian flux dephasing,
    critical-current dephasing, then envelope A and B.  ``phi`` must lie
    in the operational range.
    """
    omega_q = _omega_q(design, phi)
    cav = design.kappa * _g01_squared(design, phi) / design.delta**2
    ind = (design.m_ind**2 + design.m_parasitic**2) * omega_q**2 / (_l_j(design, phi) * design.z0)
    cap = omega_q**2 * design.z0 * design.c_c**2 / design.c_qg
    fl_exp = np.pi**2 * design.alpha_flux**2 * np.abs(_d2_omega_d_phi2(design, phi))
    fl_gauss = design.alpha_flux * np.abs(_d_omega_d_phi(design, phi))
    curr = design.gamma_ic * np.abs(_d_omega_d_ln_ic(design, phi))
    a = (cav + ind + cap) / 2.0 + fl_exp
    b = np.hypot(fl_gauss, curr)
    return cav, ind, cap, fl_exp, fl_gauss, curr, a, b


def _envelope(a, b, tau, n_qubits):
    """Fringe decay exp(-N (A tau + B^2 tau^2)), elementwise."""
    return np.exp(-n_qubits * (a * tau + b * b * tau * tau))


def composite_rates(design: SensorDesign, bias: FluxBias) -> DecayRates:
    """Evaluate every channel and fold them into the fringe envelope.

    envelope_a = (sum of relaxation rates)/2 + exponential flux dephasing
    envelope_b = quadrature sum of the Gaussian dephasing rates
    """
    return DecayRates(*(float(v) for v in channel_rates(design, bias.phi)))


def rates_table(design: SensorDesign, phi_values) -> str:
    """Render the per-channel rates at each flux point as CSV text (kHz)."""
    phis = np.asarray(phi_values, dtype=float)
    _require_operational(phis)
    channels = channel_rates(design, phis)[:6]
    return _csvtext.table(",".join(RATES_TABLE_HEADER), ",".join(["%.9g"] * 7),
                          [phis.tolist(), *((c / 1e3).tolist() for c in channels)])
