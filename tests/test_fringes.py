import dataclasses
import math

import numpy as np
import pytest

from fluxsense import FluxBias, FluxDomainError, SensorDesign, transition_frequency
from fluxsense.decoherence import composite_rates
from fluxsense.fringes import (
    FringeEvaluator,
    GateSequenceState,
    entangler,
    pattern_grid,
    phase_accumulator,
    projector,
    simulate_projection_sequence,
)
from fluxsense.qubit import thermal_visibility

DESIGN = SensorDesign()
BIAS = FluxBias(0.442)


def _manual_probability(evaluator, phi_ext, tau, theta=0.0):
    omega = 2 * math.pi * transition_frequency(DESIGN, FluxBias(BIAS.phi + phi_ext))
    delta = omega - evaluator.omega_d
    vis = thermal_visibility(transition_frequency(DESIGN, BIAS), DESIGN.temperature)
    if evaluator.decoherence_enabled:
        r = composite_rates(DESIGN, BIAS)
        env = math.exp(-evaluator.n_qubits * (r.envelope_a * tau + r.envelope_b**2 * tau**2))
    else:
        env = 1.0
    return 0.5 + 0.5 * vis * env * math.cos(evaluator.n_qubits * delta * tau + theta)


@pytest.mark.parametrize("n_qubits", [1, 2, 3])
@pytest.mark.parametrize("decohere", [True, False])
def test_probability_matches_closed_form(n_qubits, decohere):
    ev = FringeEvaluator(DESIGN, BIAS, n_qubits=n_qubits, decoherence_enabled=decohere)
    rng = np.random.default_rng(5)
    for _ in range(20):
        phi_ext = float(rng.uniform(-1e-4, 5e-5))
        tau = float(rng.uniform(0.0, 5e-6))
        theta = float(rng.uniform(-math.pi, math.pi))
        got = ev.probability_excited(phi_ext, tau, theta)
        assert got == pytest.approx(_manual_probability(ev, phi_ext, tau, theta), rel=1e-12)
        assert 0.0 <= got <= 1.0


def test_probability_limits():
    cold = dataclasses.replace(DESIGN, temperature=0.0)
    ev = FringeEvaluator(cold, BIAS, n_qubits=1, decoherence_enabled=False)
    # resonant drive, full visibility: unit probability at any delay
    assert ev.probability_excited(0.0, 3e-6) == pytest.approx(1.0, abs=1e-15)
    # decoherence washes the fringe out to 1/2
    ev = FringeEvaluator(DESIGN, BIAS, n_qubits=1, decoherence_enabled=True)
    assert ev.probability_excited(2e-5, 1.0) == pytest.approx(0.5, abs=1e-15)


@pytest.mark.parametrize("n_qubits", [1, 2, 3])
def test_half_probability_at_quarter_period(n_qubits):
    # cosine argument pi/2 gives exactly 1/2, at a delay shrinking as 1/N
    ev = FringeEvaluator(DESIGN, BIAS, n_qubits=n_qubits, decoherence_enabled=True)
    phi_ext = 2e-5
    delta = float(ev.detuning(phi_ext))
    tau_zero = math.pi / (2 * n_qubits * abs(delta))
    assert ev.probability_excited(phi_ext, tau_zero) == pytest.approx(0.5, abs=1e-12)


def test_fringe_frequency_doubles_with_two_qubits():
    ev1 = FringeEvaluator(DESIGN, BIAS, n_qubits=1, decoherence_enabled=False)
    ev2 = FringeEvaluator(DESIGN, BIAS, n_qubits=2, decoherence_enabled=False)
    phi_ext = 2e-5
    delta = abs(float(ev1.detuning(phi_ext)))
    first_zero_1 = math.pi / (2 * delta)
    assert ev1.probability_excited(phi_ext, first_zero_1) == pytest.approx(0.5, abs=1e-12)
    assert ev2.probability_excited(phi_ext, first_zero_1 / 2) == pytest.approx(0.5, abs=1e-12)


def test_envelope_monotone_and_n_scaling():
    ev1 = FringeEvaluator(DESIGN, BIAS, n_qubits=1)
    ev3 = FringeEvaluator(DESIGN, BIAS, n_qubits=3)
    taus = np.linspace(0.0, 8e-6, 60)
    env = [ev1.envelope(float(t)) for t in taus]
    assert all(a >= b for a, b in zip(env, env[1:]))
    for t in taus[1:]:
        assert ev3.envelope(float(t)) == pytest.approx(ev1.envelope(float(t)) ** 3, rel=1e-12)


def test_detuning_zero_at_bias_point():
    ev = FringeEvaluator(DESIGN, BIAS, n_qubits=1)
    assert float(ev.detuning(0.0)) == 0.0


def test_domain_errors():
    ev = FringeEvaluator(DESIGN, BIAS, n_qubits=1)
    for phi_ext in (float("nan"), [0.0, float("nan")]):
        with pytest.raises(FluxDomainError):
            ev.detuning(phi_ext)
    with pytest.raises(FluxDomainError):
        ev.probability_excited(0.06, 1e-7)  # total flux beyond the operational range
    with pytest.raises(ValueError):
        ev.probability_excited(0.0, -1e-9)
    for tau, theta in ((math.nan, 0.0), (math.inf, 0.0), (1e-7, math.inf)):
        with pytest.raises(ValueError):
            ev.probability_excited(0.0, tau, theta)


@pytest.mark.parametrize("n_qubits", [0, -1, 2.5, 2.0, True, False, None, "2"])
def test_n_qubits_must_be_a_positive_integer(n_qubits):
    with pytest.raises(ValueError, match="n_qubits must be an integer of at least 1"):
        FringeEvaluator(DESIGN, BIAS, n_qubits=n_qubits)


def test_n_qubits_accepts_numpy_integers():
    assert FringeEvaluator(DESIGN, BIAS, n_qubits=np.int64(2)).probability_excited(
        0.0, 1e-7) == FringeEvaluator(DESIGN, BIAS, n_qubits=2).probability_excited(0.0, 1e-7)


def _is_unitary(u):
    return np.allclose(u.conj().T @ u, np.eye(u.shape[0]), atol=1e-12)


def test_gate_blocks_are_unitary():
    assert _is_unitary(entangler())
    assert _is_unitary(projector())
    assert _is_unitary(phase_accumulator(0.7))


def test_entangler_prepares_bell_state():
    state = entangler() @ np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    probs = np.abs(state) ** 2
    assert probs[0] == pytest.approx(0.5, abs=1e-12)
    assert probs[3] == pytest.approx(0.5, abs=1e-12)
    assert probs[1] == pytest.approx(0.0, abs=1e-12)
    assert probs[2] == pytest.approx(0.0, abs=1e-12)


def test_projection_sequence_endpoints():
    assert simulate_projection_sequence(0.0).probability(2) == pytest.approx(1.0, abs=1e-12)
    assert simulate_projection_sequence(math.pi).probability(2) == pytest.approx(0.0, abs=1e-12)


def test_projection_sequence_cosine_identity():
    rng = np.random.default_rng(99)
    for phase in rng.uniform(-2 * math.pi, 2 * math.pi, 100):
        state = simulate_projection_sequence(float(phase))
        expected = math.cos(phase / 2) ** 2
        assert state.probability(2) == pytest.approx(expected, abs=1e-10)
        # second qubit ends in its ground state
        assert state.probability(1) + state.probability(3) < 1e-12


def test_state_normalization_enforced():
    with pytest.raises(ValueError):
        GateSequenceState(np.array([1.0, 1.0, 0.0, 0.0], dtype=complex))
    with pytest.raises(ValueError):
        GateSequenceState(np.zeros(3, dtype=complex))


def test_pattern_grid_matches_pointwise():
    ev = FringeEvaluator(DESIGN, BIAS, n_qubits=2)
    tau = 1e-7
    text = pattern_grid(ev, [1.3e-5], tau)
    lines = text.splitlines()
    assert lines[0] == "phi_ext,probability"
    assert len(lines) == 2
    assert float(lines[1].split(",")[1]) == pytest.approx(
        ev.probability_excited(1.3e-5, tau), rel=1e-8)


def test_pattern_range_grows_with_qubit_number():
    # over the 3-qubit flux interval, the 3-qubit pattern sweeps a wider
    # probability range than the single-qubit one at the same delay
    fluxes = np.linspace(0.0, 4.9e-5, 257)
    tau = 1e-7
    p1 = FringeEvaluator(DESIGN, BIAS, n_qubits=1).probability_excited(fluxes, tau)
    p3 = FringeEvaluator(DESIGN, BIAS, n_qubits=3).probability_excited(fluxes, tau)
    assert p3.max() - p3.min() > p1.max() - p1.min()


def test_pattern_subset_property():
    # the same evaluator gives identical values on a grid and on any
    # prefix of a finer grid sharing the same points
    ev = FringeEvaluator(DESIGN, BIAS, n_qubits=2)
    spacing = 2.4232892824522416e-08
    fine = spacing * np.arange(6144)
    coarse = fine[:3072]
    tau = 2e-7
    assert np.array_equal(ev.probability_excited(coarse, tau),
                          ev.probability_excited(fine, tau)[:3072])


@pytest.mark.parametrize("n_qubits", [1, 2, 3])
@pytest.mark.parametrize("decohere", [True, False])
def test_array_delays_match_scalar_calls_bit_for_bit(n_qubits, decohere):
    # a delay and phase per row of detunings, as a chunk of runs steps:
    # every element equals the call with that row's scalar delay and phase
    ev = FringeEvaluator(DESIGN, BIAS, n_qubits=n_qubits, decoherence_enabled=decohere)
    rng = np.random.default_rng(10 * n_qubits + decohere)
    fluxes = rng.uniform(-1e-4, 5e-5, (8, 48))
    delta = ev.detuning(fluxes)
    tau = rng.uniform(0.0, 5e-6, 8)
    theta = rng.uniform(-50.0, 50.0, 8)
    probs = ev.probability_at(delta, tau[:, None], theta[:, None])
    envelopes = ev.envelope(tau)
    for i in range(8):
        assert np.array_equal(probs[i], ev.probability_at(delta[i], float(tau[i]),
                                                          float(theta[i])))
        assert envelopes[i] == ev.envelope(float(tau[i]))
        for j in range(0, 48, 7):
            assert delta[i, j] == ev.detuning(float(fluxes[i, j]))
            assert probs[i, j] == ev.probability_excited(float(fluxes[i, j]), float(tau[i]),
                                                         float(theta[i]))


@pytest.mark.parametrize("tau, theta", [([1e-7, math.nan], 0.0), ([1e-7, -1e-9], 0.0),
                                        ([1e-7, math.inf], 0.0), (1e-7, [0.0, math.inf]),
                                        ([1e-7, 2e-7], [math.nan, 0.0])])
def test_every_delay_and_phase_is_range_checked(tau, theta):
    ev = FringeEvaluator(DESIGN, BIAS, n_qubits=1)
    with pytest.raises(ValueError, match="finite delays"):
        ev.probability_at(np.zeros(2), np.array(tau), np.array(theta))
