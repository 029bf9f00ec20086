import dataclasses
import math

import numpy as np
import pytest

from fluxsense import FluxBias, SensorDesign, thermal_visibility, transition_frequency
from fluxsense.decoherence import composite_rates
from fluxsense.fringes import FringeEvaluator
from fluxsense.optimizer import (
    coherence_time,
    dynamic_range,
    find_optimal_flux,
    optimal_delay,
    ridge_scan,
    sensitivity,
    sensitivity_array,
    step_budget,
)
from fluxsense.qubit import OPERATIONAL_PHI_MAX, spectrum_derivatives

DESIGN = SensorDesign()
BIAS = FluxBias(0.442)
RATES = composite_rates(DESIGN, BIAS)
A_STAR, B_STAR = RATES.envelope_a, RATES.envelope_b


def test_optimal_delay_closed_forms():
    assert optimal_delay(0.0, 2e5, 1) == pytest.approx(1 / (math.sqrt(2) * 2e5), rel=1e-12)
    assert optimal_delay(5e4, 0.0, 1) == pytest.approx(1 / 5e4, rel=1e-12)
    assert optimal_delay(5e4, 0.0, 3) == pytest.approx(1 / 1.5e5, rel=1e-12)
    assert optimal_delay(A_STAR, B_STAR, 1) == pytest.approx(3.2980869568608624e-06, rel=1e-12)
    assert optimal_delay(A_STAR, B_STAR, 1) == pytest.approx(3.292e-6, rel=2e-2)
    assert optimal_delay(A_STAR, B_STAR, 2) == pytest.approx(2.3183872464144416e-06, rel=1e-12)
    assert optimal_delay(A_STAR, B_STAR, 3) == pytest.approx(1.8844096977603893e-06, rel=1e-12)


def test_optimal_delay_stationarity():
    rng = np.random.default_rng(3)
    for _ in range(100):
        a = float(rng.uniform(1e2, 1e6))
        b = float(rng.uniform(1e2, 1e6))
        n = int(rng.integers(1, 4))
        tau = optimal_delay(a, b, n)
        residual = 2 * n * b * b * tau * tau + n * a * tau - 1.0
        assert abs(residual) < 1e-10


def test_optimal_delay_is_the_maximum():
    rng = np.random.default_rng(4)
    for _ in range(5):
        a = float(rng.uniform(1e3, 1e5))
        b = float(rng.uniform(1e4, 1e6))
        n = int(rng.integers(1, 4))
        tau_opt = optimal_delay(a, b, n)
        taus = tau_opt * np.linspace(0.2, 3.0, 801)
        merit = taus * np.exp(-n * (a * taus + b * b * taus * taus))
        best = taus[int(np.argmax(merit))]
        assert best == pytest.approx(tau_opt, rel=5e-3)


def test_optimal_delay_rejects_degenerate_input():
    with pytest.raises(ValueError):
        optimal_delay(0.0, 0.0, 1)
    with pytest.raises(ValueError):
        optimal_delay(-1.0, 1e4, 1)


def test_coherence_time():
    assert coherence_time(0.0, 2e5) == pytest.approx(1 / 2e5, rel=1e-12)
    assert coherence_time(5e4, 0.0) == pytest.approx(1 / 5e4, rel=1e-12)
    assert coherence_time(A_STAR, B_STAR) == pytest.approx(4.636774492828883e-06, rel=1e-12)
    assert coherence_time(A_STAR, B_STAR) == pytest.approx(4.625e-6, rel=2e-2)
    with pytest.raises(ValueError):
        coherence_time(0.0, 0.0)


def test_coherence_time_root_identity_and_ordering():
    rng = np.random.default_rng(8)
    for _ in range(50):
        a = float(rng.uniform(1e2, 1e6))
        b = float(rng.uniform(1e2, 1e6))
        t2 = coherence_time(a, b)
        assert a * t2 + b * b * t2 * t2 == pytest.approx(1.0, rel=1e-12)
        assert optimal_delay(a, b, 1) < t2


def test_sensitivity_values():
    assert sensitivity(DESIGN, BIAS, tau=0.0) == 0.0
    assert sensitivity(DESIGN, FluxBias(0.0)) == 0.0
    assert sensitivity(DESIGN, BIAS) == pytest.approx(203163.33360206828, rel=1e-12)


def test_sensitivity_matches_fringe_slope():
    # finite difference of the fringe pattern at a zero crossing
    # (theta = pi/2 puts the crossing at zero external flux)
    for n in (1, 2, 3):
        ev = FringeEvaluator(DESIGN, BIAS, n_qubits=n, decoherence_enabled=True)
        tau = optimal_delay(A_STAR, B_STAR, n)
        h = 1e-9
        slope = (ev.probability_excited(h, tau, math.pi / 2)
                 - ev.probability_excited(-h, tau, math.pi / 2)) / (2 * h)
        assert abs(slope) == pytest.approx(sensitivity(DESIGN, BIAS, n_qubits=n, tau=tau),
                                           rel=1e-6)


def test_sensitivity_zero_temperature():
    cold = dataclasses.replace(DESIGN, temperature=0.0)
    warm = sensitivity(DESIGN, BIAS)
    assert sensitivity(cold, BIAS) > warm


def _sensitivity_oracle(design, phi, n):
    # per-point composition of the scalar layers; NaN where S is undefined
    if not 0.0 <= phi < OPERATIONAL_PHI_MAX:
        return math.nan
    bias = FluxBias(phi)
    f_q = transition_frequency(design, bias)
    if f_q <= 0:
        return math.nan
    r = composite_rates(design, bias)
    a, b = r.envelope_a, r.envelope_b
    tau = optimal_delay(a, b, n)
    vis = thermal_visibility(f_q, design.temperature)
    slope = abs(spectrum_derivatives(design, bias).d_omega_d_phi)
    return 0.5 * n * tau * vis * math.exp(-n * (a * tau + b * b * tau * tau)) * slope


def _zero_crossing(design):
    c_min = (design.e_c_over_h / (design.f_q_max + design.e_c_over_h)) ** 2
    return math.acos(c_min) / math.pi


def test_sensitivity_array_matches_scalar_oracle():
    rng = np.random.default_rng(20240917)
    designs = [
        dataclasses.replace(DESIGN, temperature=0.0),
        dataclasses.replace(DESIGN, alpha_flux=0.0, gamma_ic=0.0),  # B = 0 branch
        dataclasses.replace(DESIGN, f_q_max=1e9, e_c_over_h=0.5e9, temperature=0.0),
    ]
    for _ in range(20):
        designs.append(dataclasses.replace(
            DESIGN,
            f_q_max=float(rng.uniform(1e9, 25e9)),
            e_c_over_h=float(rng.uniform(0.1e9, 0.6e9)),
            alpha_flux=float(10 ** rng.uniform(-7, -5)),
            gamma_ic=float(10 ** rng.uniform(-7, -5)),
            temperature=float(rng.choice([0.0, rng.uniform(0.01, 0.3)])),
        ))
    for design in designs:
        edge = _zero_crossing(design)
        phis = np.concatenate([
            [0.0, -0.1, OPERATIONAL_PHI_MAX, 0.6],
            rng.uniform(0.0, OPERATIONAL_PHI_MAX, 40),
            edge + np.linspace(-1e-3, 1e-3, 9),  # f_q crosses zero here
        ])
        for n in (1, 2, 3):
            got = sensitivity_array(design, phis, n_qubits=n)
            want = np.array([_sensitivity_oracle(design, float(p), n) for p in phis])
            np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
            assert got[0] == 0.0  # no flux slope at the sweet spot
        assert np.isnan(sensitivity_array(design, edge + 1e-4))


def test_zero_temperature_optimum_keeps_positive_frequency():
    cold = dataclasses.replace(DESIGN, f_q_max=1e9, e_c_over_h=0.5e9, temperature=0.0)
    point = find_optimal_flux(cold)
    assert transition_frequency(cold, FluxBias(point.phi_star)) > 0
    assert point.phi_star < _zero_crossing(cold)
    with pytest.raises(ValueError):
        sensitivity(cold, FluxBias(0.48))  # f_q < 0 there


def test_find_optimal_flux_reference_design():
    point = find_optimal_flux(DESIGN)
    assert point.phi_star == pytest.approx(0.4405979339951417, rel=1e-6)
    assert abs(point.phi_star - 0.442) <= 0.003
    assert point.tau_opt == pytest.approx(3.292e-6, rel=2e-2)
    assert point.t2 == pytest.approx(4.625e-6, rel=2e-2)
    assert point.n_steps == 6
    assert point.sensitivity == pytest.approx(203174.73957402117, rel=1e-6)
    assert point.dynamic_range == pytest.approx(1.5077910025977298e-04, rel=1e-6)
    assert not point.at_search_boundary


def test_find_optimal_flux_is_local_maximum():
    point = find_optimal_flux(DESIGN)
    s_star = sensitivity(DESIGN, FluxBias(point.phi_star))
    assert sensitivity(DESIGN, FluxBias(point.phi_star - 1e-4)) < s_star
    assert sensitivity(DESIGN, FluxBias(point.phi_star + 1e-4)) < s_star


def test_find_optimal_flux_boundary_case():
    # without Gaussian dephasing the sensitivity keeps rising towards
    # the half-period and the search reports its boundary
    quiet = dataclasses.replace(DESIGN, alpha_flux=0.0, gamma_ic=0.0)
    point = find_optimal_flux(quiet)
    assert point.at_search_boundary
    assert point.phi_star < 0.5


def test_step_budget():
    assert step_budget(3.292e-6, 100e-9) == 6
    assert step_budget(3.2980869568608624e-06, 100e-9) == 6
    assert step_budget(5e-8, 1e-7) == 0
    # exact powers of two stay on the integer boundary
    for k in range(1, 9):
        assert step_budget((1 << k) * 0.5e-7, 1e-7) == k
    assert step_budget(3.9999e-7, 1e-7) == 2
    with pytest.raises(ValueError):
        step_budget(0.0, 1e-7)


def test_dynamic_range():
    assert dynamic_range(DESIGN, BIAS, 100e-9, 1) == pytest.approx(
        0.00014888689351386572, rel=1e-12)
    assert dynamic_range(DESIGN, BIAS, 100e-9, 1) == pytest.approx(1.488e-4, rel=1e-3)
    one = dynamic_range(DESIGN, BIAS, 100e-9, 1)
    assert dynamic_range(DESIGN, BIAS, 100e-9, 3) == pytest.approx(one / 3, rel=1e-12)
    assert dynamic_range(DESIGN, BIAS, 200e-9, 1) == pytest.approx(one / 2, rel=1e-12)
    with pytest.raises(ValueError):
        dynamic_range(DESIGN, FluxBias(0.0), 100e-9, 1)


def test_ridge_scan_single_cell():
    scan = ridge_scan(DESIGN, [9e9], [0.442], [DESIGN.temperature])
    assert scan.surface.shape == (1, 1, 1)
    assert scan.surface[0, 0, 0] == pytest.approx(sensitivity(DESIGN, BIAS), rel=1e-12)
    assert scan.ridge_phi[0, 0] == 0.442


def test_ridge_scan_monotonicity():
    f_values = np.linspace(2e9, 20e9, 50)
    phi_values = np.linspace(0.0, 0.4999, 200, endpoint=False)
    scan = ridge_scan(DESIGN, f_values, phi_values, [0.02, 0.04, 0.075])
    # ridge maxima grow with the zero-bias frequency at 40 mK
    ridge_40 = scan.ridge_value[1]
    assert np.all(np.diff(ridge_40) > 0)
    # colder is never worse, warmer never better
    assert np.all(scan.ridge_value[0] >= ridge_40)
    assert np.all(scan.ridge_value[2] <= ridge_40)


def test_ridge_scan_masks_unreachable_flux():
    phi_values = np.linspace(0.0, 0.4999, 400, endpoint=False)
    scan = ridge_scan(DESIGN, [2e9], phi_values, [0.04])
    assert np.isnan(scan.surface[0, 0, -1])      # qubit frequency crossed zero
    assert np.isfinite(scan.surface[0, 0, 1:300]).all()

    # one validity mask at every temperature, zero included
    f_values = np.array([1e9, 1.5e9, 2e9, 9e9])
    phis = np.linspace(0.0, OPERATIONAL_PHI_MAX, 400)
    scan = ridge_scan(DESIGN, f_values, phis, [0.0, 0.04])
    e_c = DESIGN.e_c_over_h
    f_q = (f_values[:, None] + e_c) * np.sqrt(np.cos(np.pi * phis)) - e_c
    unreachable = (f_q <= 0) | (phis >= OPERATIONAL_PHI_MAX)
    for surface in scan.surface:
        np.testing.assert_array_equal(np.isnan(surface), unreachable)
