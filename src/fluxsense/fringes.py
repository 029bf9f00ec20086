"""Ramsey-style interference fringes of the flux sensor.

A fringe experiment prepares a superposition (of one qubit, or of N
qubits in a GHZ state), lets it accumulate phase for a delay tau at
detuning delta_omega(phi) from the drive, and projects back.  The
excited-state probability follows

    P = 1/2 + (1/2) V exp(-N (A tau + B^2 tau^2)) cos(N delta_omega tau + theta)

with V the thermal visibility of the initial state (a single factor,
independent of N), A and B the envelope rates of one qubit, and theta
an optional measurement phase.

For N = 2 the module also provides the explicit gate-level simulation
of the entangle / accumulate / project cycle used to derive the fringe,
as products of 4 x 4 unitaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _csvtext, decoherence
from .qubit import (
    FluxBias,
    SensorDesign,
    _f_q,
    _is_integer,
    _omega_q,
    _require_operational,
    thermal_visibility,
)

_NORM_TOL = 1e-12


@dataclass(frozen=True)
class FringeEvaluator:
    """Fringe pattern of a sensor held at a fixed bias point.

    The drive is resonant with the qubit at the bias point.  External
    flux offsets are measured relative to the bias point.  With
    ``decoherence_enabled`` false the envelope rates are forced to zero
    (thermal visibility still applies).
    """

    design: SensorDesign
    bias_point: FluxBias
    n_qubits: int = 1
    decoherence_enabled: bool = True

    def __post_init__(self) -> None:
        if not (_is_integer(self.n_qubits) and self.n_qubits >= 1):
            raise ValueError(f"n_qubits must be an integer of at least 1, got {self.n_qubits!r}")

    @cached_property
    def omega_d(self) -> float:
        return float(_omega_q(self.design, self.bias_point.phi))

    @cached_property
    def visibility(self) -> float:
        f_q = float(_f_q(self.design, self.bias_point.phi))
        return thermal_visibility(f_q, self.design.temperature)

    @cached_property
    def envelope_rates(self) -> tuple[float, float]:
        if not self.decoherence_enabled:
            return 0.0, 0.0
        r = decoherence.composite_rates(self.design, self.bias_point)
        return r.envelope_a, r.envelope_b

    def detuning(self, phi_ext):
        """delta_omega = omega_q(bias + phi_ext) - omega_d, rad/s."""
        phi = self.bias_point.phi + np.asarray(phi_ext, dtype=float)
        _require_operational(phi)
        return _omega_q(self.design, phi) - self.omega_d

    def envelope(self, tau):
        """Decay envelope exp(-N (A tau + B^2 tau^2)) at delay tau, a float
        or an array of delays."""
        env = decoherence._envelope(*self.envelope_rates, tau, self.n_qubits)
        return float(env) if np.ndim(env) == 0 else env

    def probability_at(self, delta, tau, theta=0.0):
        """Excited-state probability after one fringe cycle at detuning ``delta``.

        ``delta`` is what ``detuning`` returns, rad/s, for one flux or
        an array of them; a caller that evaluates the same fluxes at many
        delays computes it once.  ``tau`` is the accumulation delay in
        seconds, ``theta`` an extra measurement phase inside the cosine.
        Each may be an array that broadcasts with the others (a delay and
        phase per row of detunings), and every element must be finite,
        with no delay negative.
        """
        if not (np.all((0 <= tau) & (tau < math.inf)) and np.all(np.abs(theta) < math.inf)):
            raise ValueError(f"need finite delays >= 0 and finite phases, got {tau} and {theta}")
        osc = np.cos(self.n_qubits * delta * tau + theta)
        return 0.5 + 0.5 * self.visibility * self.envelope(tau) * osc

    def probability_excited(self, phi_ext, tau: float, theta: float = 0.0):
        """``probability_at`` the detuning of ``phi_ext``, a scalar or an
        array of external flux offsets (Phi_0 units)."""
        p = self.probability_at(self.detuning(phi_ext), tau, theta)
        if np.ndim(phi_ext) == 0:
            return float(p)
        return p


@dataclass(frozen=True)
class GateSequenceState:
    """Two-qubit state vector in the {|00>,|01>,|10>,|11>} basis."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (4,):
            raise ValueError("two-qubit state needs exactly 4 amplitudes")
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > _NORM_TOL:
            raise ValueError(f"state norm deviates from 1 by {abs(norm - 1.0):.2e}")
        object.__setattr__(self, "amplitudes", amps)

    def probability(self, basis_index: int) -> float:
        return float(np.abs(self.amplitudes[basis_index]) ** 2)


# Single-qubit blocks.  R is a pi/2 rotation about y, H the Hadamard.
_R = np.array([[1, -1], [1, 1]], dtype=complex) / np.sqrt(2)
_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_I2 = np.eye(2, dtype=complex)


def _cphase(target_state: int) -> np.ndarray:
    """Conditional phase flip of one computational basis state."""
    u = np.eye(4, dtype=complex)
    u[target_state, target_state] = -1
    return u


def entangler() -> np.ndarray:
    """Unitary taking |00> to the Bell state (|00> + |11>)/sqrt(2)."""
    return np.kron(_I2, _R.conj().T) @ _cphase(2) @ np.kron(_R, _R)


def projector() -> np.ndarray:
    """Unitary mapping the phase-tagged Bell state onto qubit 1."""
    return np.kron(_H, _R.conj().T) @ _cphase(0) @ np.kron(_I2, _R.conj().T)


def phase_accumulator(phase: float) -> np.ndarray:
    """Free evolution tagging |11> with exp(i phase)."""
    u = np.eye(4, dtype=complex)
    u[3, 3] = np.exp(1j * phase)
    return u


def simulate_projection_sequence(phase: float) -> GateSequenceState:
    """Run entangle, accumulate, project on |00> and return the state.

    The resulting excited-state probability of qubit 1 is
    cos^2(phase/2), with qubit 2 returned to its ground state.
    """
    state = np.zeros(4, dtype=complex)
    state[0] = 1.0
    state = projector() @ phase_accumulator(phase) @ entangler() @ state
    return GateSequenceState(state)


def pattern_grid(evaluator: FringeEvaluator, phi_values, tau: float,
                 theta: float = 0.0) -> str:
    """Fringe pattern over a flux grid as CSV text: phi_ext,probability."""
    phis = np.asarray(phi_values, dtype=float)
    probs = np.atleast_1d(evaluator.probability_excited(phis, tau, theta))
    return _csvtext.table("phi_ext,probability", "%.9g,%.9g", [phis.tolist(), probs.tolist()])
