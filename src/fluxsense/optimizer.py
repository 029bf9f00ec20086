"""Operating-point optimization for the flux sensor.

The figure of merit is the flux sensitivity of the fringe pattern,

    S = (N tau / 2) V exp(-N (A tau + B^2 tau^2)) |domega/dPhi|,

evaluated at the delay that maximizes it.  Moving the bias away from
the sweet spot trades a steeper dispersion against faster dephasing;
the optimizer locates the ridge of that trade-off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np

from . import decoherence
from .qubit import (
    OPERATIONAL_PHI_MAX,
    FluxBias,
    SensorDesign,
    _d_omega_d_phi,
    _f_q,
    _operational,
    _visibility,
    spectrum_derivatives,
)

DEFAULT_TAU_MIN = 100e-9
_COARSE_STEP = 1e-3
_REFINE_POINTS = 65
_REFINE_XTOL = 1e-6


@dataclass(frozen=True)
class OptimalPoint:
    """Best single-qubit operating point of a sensor design."""

    phi_star: float          # bias, Phi_0 units
    tau_opt: float           # optimal delay, s
    sensitivity: float       # 1/Phi_0
    t2: float                # coherence time, s
    n_steps: int             # feasible halving steps for tau_min
    dynamic_range: float     # unambiguous flux span, Phi_0 units
    at_search_boundary: bool = False


def _optimal_delay(a, b, n_qubits):
    # Elementwise positive root; 1/(N A) where B = 0, inf where A = B = 0.
    n = n_qubits
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        disc = np.sqrt(n * n * a**2 + 8 * b**2 * n)
        return np.where(b == 0, 1.0 / (n * a), (-n * a + disc) / (4 * b**2 * n))


def _require_decay(envelope_a: float, envelope_b: float, what: str) -> None:
    if not (envelope_a >= 0 and envelope_b >= 0):  # NaN fails too
        raise ValueError("envelope rates must be non-negative")
    if envelope_a == 0 and envelope_b == 0:
        raise ValueError(f"{what} is unbounded without decoherence")


def optimal_delay(envelope_a: float, envelope_b: float, n_qubits: int = 1) -> float:
    """Delay maximizing tau * exp(-N (A tau + B^2 tau^2)).

    Solves 2 N B^2 tau^2 + N A tau - 1 = 0 for the positive root; with
    B = 0 this reduces to 1/(N A).
    """
    _require_decay(envelope_a, envelope_b, "optimal delay")
    return float(_optimal_delay(envelope_a, envelope_b, n_qubits))


def coherence_time(envelope_a: float, envelope_b: float) -> float:
    """Time at which the envelope has decayed to 1/e.

    Positive root of A t + B^2 t^2 = 1.
    """
    _require_decay(envelope_a, envelope_b, "coherence time")
    if envelope_b == 0:
        return 1.0 / envelope_a
    return (-envelope_a + math.sqrt(envelope_a**2 + 4 * envelope_b**2)) / (2 * envelope_b**2)


def sensitivity_array(design: SensorDesign, phi, n_qubits: int = 1, tau=None) -> np.ndarray:
    """Flux sensitivity over an array of biases, 1/Phi_0.

    Uses the optimal delay of each bias when ``tau`` is not given.  The
    result is NaN where the bias lies outside [0, OPERATIONAL_PHI_MAX),
    where the qubit frequency is not positive, and where the optimal
    delay is unbounded (no decoherence at all).
    """
    phi = np.asarray(phi, dtype=float)
    inside = _operational(phi)
    phi = np.where(inside, phi, 0.0)
    f_q = _f_q(design, phi)
    a, b = decoherence.channel_rates(design, phi)[-2:]
    if tau is None:
        tau = _optimal_delay(a, b, n_qubits)
    vis = _visibility(f_q, design.temperature)
    slope = np.abs(_d_omega_d_phi(design, phi))
    n = n_qubits
    with np.errstate(invalid="ignore"):  # inf * 0 where the delay is unbounded
        s = 0.5 * n * tau * vis * decoherence._envelope(a, b, tau, n) * slope
    return np.where(inside & (f_q > 0), s, np.nan)


def sensitivity(design: SensorDesign, bias: FluxBias, n_qubits: int = 1,
                tau: float | None = None) -> float:
    """Flux sensitivity at the bias point, 1/Phi_0.

    Uses the optimal delay when ``tau`` is not given.  Raises
    ValueError where ``sensitivity_array`` is NaN.
    """
    value = float(sensitivity_array(design, bias.phi, n_qubits, tau))
    if math.isnan(value):
        raise ValueError(f"sensitivity is undefined at phi = {bias.phi}: "
                         "qubit frequency not positive or delay unbounded")
    return value


def step_budget(tau_opt: float, tau_min: float = DEFAULT_TAU_MIN) -> int:
    """Number of delay doublings that fit between tau_min and tau_opt.

    floor(log2(2 tau_opt / tau_min)), clamped to zero.  frexp keeps the
    integer log exact when the ratio is a power of two.
    """
    if not (0 < tau_opt < math.inf and 0 < tau_min < math.inf):
        raise ValueError(f"delays must be positive and finite, got {tau_opt} and {tau_min}")
    ratio = 2 * tau_opt / tau_min
    if ratio < 1:
        return 0
    # frexp yields ratio = m * 2**e with m in [0.5, 1), so floor(log2) = e - 1
    _, exponent = math.frexp(ratio)
    return exponent - 1


def dynamic_range(design: SensorDesign, bias: FluxBias, tau_min: float = DEFAULT_TAU_MIN,
                  n_qubits: int = 1) -> float:
    """Unambiguous flux span of the fastest fringe, pi/(tau_min |slope| N)."""
    if not 0 < tau_min < math.inf:
        raise ValueError(f"tau_min must be positive and finite, got {tau_min}")
    slope = abs(spectrum_derivatives(design, bias).d_omega_d_phi)
    if slope == 0:
        raise ValueError("dynamic range diverges at the sweet spot")
    return math.pi / (tau_min * slope * n_qubits)


def find_optimal_flux(design: SensorDesign, tau_min: float = DEFAULT_TAU_MIN) -> OptimalPoint:
    """Locate the bias maximizing the single-qubit sensitivity.

    Coarse scan at 1e-3 resolution over the biases where the
    sensitivity is defined, then 65-point rescans of the bracket around
    the best point until the bracket is narrower than 1e-6.  If the
    maximizer sits at the end of the defined range (monotone objective),
    the boundary point is returned with ``at_search_boundary`` set.
    """
    # The scan closes on the edge of the operational range itself.
    grid = np.append(np.arange(0.0, OPERATIONAL_PHI_MAX, _COARSE_STEP),
                     OPERATIONAL_PHI_MAX - 1e-12)
    values = sensitivity_array(design, grid)
    defined = np.flatnonzero(~np.isnan(values))
    if defined.size == 0:
        raise ValueError("sensitivity is undefined on the whole search range")
    i_max = int(np.nanargmax(values))

    boundary = i_max == int(defined[-1])
    if boundary or i_max == 0:
        phi_star = float(grid[i_max])
    else:
        lo, hi = grid[i_max - 1], grid[i_max + 1]
        while hi - lo >= _REFINE_XTOL:
            fine = np.linspace(lo, hi, _REFINE_POINTS)
            j = int(np.nanargmax(sensitivity_array(design, fine)))
            lo, hi = fine[max(j - 1, 0)], fine[min(j + 1, _REFINE_POINTS - 1)]
        phi_star = float(fine[j])

    bias = FluxBias(phi_star)
    rates = decoherence.composite_rates(design, bias)
    a, b = rates.envelope_a, rates.envelope_b
    tau_opt = optimal_delay(a, b)
    return OptimalPoint(
        phi_star=phi_star,
        tau_opt=tau_opt,
        sensitivity=sensitivity(design, bias, tau=tau_opt),
        t2=coherence_time(a, b),
        n_steps=step_budget(tau_opt, tau_min),
        dynamic_range=dynamic_range(design, bias, tau_min),
        at_search_boundary=boundary,
    )


@dataclass(frozen=True)
class RidgeScan:
    """Sensitivity surface over (f_q_max, phi) for several temperatures.

    ``surface[t, i, j]`` is S at temperature t, zero-bias frequency i,
    flux j; entries where ``sensitivity_array`` is undefined (qubit
    frequency not positive, flux outside the operational range) are NaN.
    ``ridge_value``/``ridge_phi`` hold the per-frequency maxima.
    """

    f_q_max_values: np.ndarray
    phi_values: np.ndarray
    temperatures: np.ndarray
    surface: np.ndarray
    ridge_value: np.ndarray
    ridge_phi: np.ndarray


def ridge_scan(design: SensorDesign, f_q_max_values, phi_values, temperatures) -> RidgeScan:
    """Map the sensitivity ridge over design frequency and temperature.

    All other design parameters are taken from ``design``.  Each
    f_q_max and temperature is validated as a ``SensorDesign``; then one
    ``sensitivity_array`` call evaluates the whole [T, F, Phi] grid,
    with temperature broadcast as [T, 1, 1] and f_q_max as [F, 1].
    """
    f_vals = np.asarray(f_q_max_values, dtype=float)
    phis = np.asarray(phi_values, dtype=float)
    temps = np.asarray(temperatures, dtype=float)
    for f_max in f_vals.flat:
        replace(design, f_q_max=float(f_max))
    for temp in temps.flat:
        replace(design, temperature=float(temp))

    # SensorDesign rejects arrays, so the kernels get a namespace copy.
    grid = SimpleNamespace(**vars(design))
    grid.f_q_max = f_vals.reshape(-1, 1)
    grid.temperature = temps.reshape(-1, 1, 1)
    surface = sensitivity_array(grid, phis)

    best = np.argmax(np.where(np.isnan(surface), -np.inf, surface), axis=2)
    ridge_value = np.take_along_axis(surface, best[..., None], axis=2)[..., 0]
    ridge_phi = phis[best]
    return RidgeScan(
        f_q_max_values=f_vals,
        phi_values=phis,
        temperatures=temps,
        surface=surface,
        ridge_value=ridge_value,
        ridge_phi=ridge_phi,
    )
