"""End-to-end acceptance checks, one test per shipped capability.

Each test prints exactly one [criterion N] PASS/FAIL line (run pytest
with -s, the default for this project) and enforces a wall-time budget.
"""

import contextlib
import dataclasses
import io
import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from fluxsense import (
    DESK_PRESET,
    BiasLineGeometry,
    CONSTANTS,
    FluxBias,
    FringeEvaluator,
    PeaConfig,
    SensorDesign,
    build_flux_grid,
    composite_rates,
    field_components,
    find_optimal_flux,
    mutual_inductances,
    optimal_delay,
    posterior_update,
    run_campaign,
    run_single,
    simulate_projection_sequence,
    spectrum_derivatives,
    thermal_visibility,
)
from fluxsense.cli import EXIT_OK, main

DESIGN = SensorDesign()
BIAS = FluxBias(0.442)


@contextlib.contextmanager
def _criterion(number, budget_s, summary):
    started = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - started
        assert elapsed < budget_s, f"runtime {elapsed:.1f}s over the {budget_s}s budget"
    except AssertionError as exc:
        print(f"\n[criterion {number}] FAIL: {exc}")
        raise
    print(f"\n[criterion {number}] PASS: {summary} ({elapsed:.2f}s)")


# Reference per-channel rates (kHz) for the standard sensor design.
REFERENCE_RATES_KHZ = {
    0.0: dict(cavity=5.0, inductive=71.9, capacitive=99.3,
              flux_exp=2.8e-3, flux_gauss=0.0, critical_current=29.1),
    0.2: dict(cavity=3.4, inductive=46.8, capacitive=79.8,
              flux_exp=3.2e-3, flux_gauss=59.7, critical_current=26.1),
    0.4: dict(cavity=0.6, inductive=6.6, capacitive=29.3,
              flux_exp=9.0e-3, flux_gauss=156.3, critical_current=16.2),
}


def test_criterion_1_decoherence_rates():
    with _criterion(1, 1.0, "per-channel rates match the reference table"):
        cap_base = composite_rates(DESIGN, FluxBias(0.0)).gamma1_cap / 1e3
        for phi, want in REFERENCE_RATES_KHZ.items():
            r = composite_rates(DESIGN, FluxBias(phi))
            gauss, exp_rate = r.gamma_phi_flux_gauss, r.gamma_phi_flux_exp
            ind = r.gamma1_ind / 1e3
            cap = r.gamma1_cap / 1e3
            curr = r.gamma_phi_curr_gauss / 1e3
            cav = r.gamma1_cav / 1e3

            assert ind == pytest.approx(want["inductive"], rel=2e-2), \
                f"inductive rate at phi={phi}"
            assert curr == pytest.approx(want["critical_current"], rel=2e-2), \
                f"critical-current rate at phi={phi}"
            assert exp_rate / 1e3 == pytest.approx(want["flux_exp"], rel=2e-2), \
                f"exponential flux dephasing at phi={phi}"
            if want["flux_gauss"] == 0.0:
                assert gauss == 0.0, "Gaussian flux dephasing at the sweet spot"
            else:
                assert gauss / 1e3 == pytest.approx(want["flux_gauss"], rel=2e-2), \
                    f"Gaussian flux dephasing at phi={phi}"
            assert cap == pytest.approx(want["capacitive"], rel=0.2), \
                f"capacitive rate at phi={phi}"
            assert cap / cap_base == pytest.approx(
                want["capacitive"] / REFERENCE_RATES_KHZ[0.0]["capacitive"],
                rel=2e-2), f"capacitive flux dependence at phi={phi}"
            assert 0.1 < cav / want["cavity"] < 10.0, \
                f"cavity decay order of magnitude at phi={phi}"
        cav_sweep = [composite_rates(DESIGN, FluxBias(float(p))).gamma1_cav
                     for p in np.linspace(0.0, 0.4998, 100)]
        assert all(a > b for a, b in zip(cav_sweep, cav_sweep[1:])), \
            "cavity decay must fall monotonically with flux"


def test_criterion_2_optimal_point():
    with _criterion(2, 5.0, "optimal bias, coherence time, delay, and step budget"):
        point = find_optimal_flux(DESIGN)
        assert 0.442 - 0.003 <= point.phi_star <= 0.442 + 0.003, \
            f"phi* = {point.phi_star:.6f} outside 0.442 +/- 0.003"
        assert point.t2 == pytest.approx(4.625e-6, rel=2e-2), \
            f"T2 = {point.t2:.4e}"
        assert point.tau_opt == pytest.approx(3.292e-6, rel=2e-2), \
            f"tau_opt = {point.tau_opt:.4e}"
        assert point.n_steps == 6, f"step budget {point.n_steps} != 6"


def test_criterion_3_bias_line_inductances():
    with _criterion(3, 30.0, "mutual inductances and field closed forms"):
        report = mutual_inductances(BiasLineGeometry())
        m_ph = report.m_squid * 1e12
        mp_ph = report.m_parasitic * 1e12
        period_ma = report.periodicity_current * 1e3
        assert m_ph == pytest.approx(2.08, rel=5e-2), f"M = {m_ph:.4f} pH"
        assert mp_ph == pytest.approx(0.22, rel=15e-2), f"M' = {mp_ph:.4f} pH"
        assert 0.99 <= period_ma <= 1.01, f"periodicity {period_ma:.4f} mA"

        geometry = BiasLineGeometry()
        k = CONSTANTS.mu_0 / (4 * math.pi)
        rng = np.random.default_rng(31)
        worst = 0.0
        for _ in range(100):
            x = float(rng.uniform(-60e-6, 60e-6))
            y = float(rng.uniform(2e-6, 60e-6))
            feed, _ = quad(lambda yp: x / (x * x + (y - yp) ** 2) ** 1.5,
                           -1.0, 0.0, epsabs=0.0, epsrel=1e-10, limit=400,
                           points=(-5e-4, -5e-5))
            right, _ = quad(lambda xp: y / ((x - xp) ** 2 + y * y) ** 1.5,
                            0.0, geometry.x_a, epsabs=0.0, epsrel=1e-10, limit=400)
            left, _ = quad(lambda xp: y / ((x - xp) ** 2 + y * y) ** 1.5,
                           -geometry.x_a, 0.0, epsabs=0.0, epsrel=1e-10, limit=400)
            oracle = (k * feed, k * right / 2, k * left / 2)
            closed = field_components(geometry, x, y)
            for got, want in zip(closed, oracle):
                scale = max(abs(want), 1e-18)
                worst = max(worst, abs(got - want) / scale)
        assert worst < 1e-6, f"field closed form off by {worst:.2e} relative"


def test_criterion_4_projection_sequence():
    with _criterion(4, 1.0, "projected two-qubit population follows cos^2(phi/2)"):
        rng = np.random.default_rng(424)
        for phase in rng.uniform(-2 * math.pi, 2 * math.pi, 100):
            state = simulate_projection_sequence(float(phase))
            expected = math.cos(phase / 2.0) ** 2
            assert state.probability(2) == pytest.approx(expected, abs=1e-10), \
                f"population mismatch at phase {phase:.4f}"


def _interp_log(tau_bar, accuracy, t):
    # log-log interpolation; None outside the sampled range
    if t < tau_bar[0] or t > tau_bar[-1]:
        return None
    return float(np.exp(np.interp(np.log(t), np.log(tau_bar), np.log(accuracy))))


def _desk_campaign(n_qubits, decohere):
    config = PeaConfig(n_qubits=n_qubits, decoherence_enabled=decohere,
                       **DESK_PRESET)
    return run_campaign(DESIGN, BIAS, config)


def test_criterion_5_estimation_campaigns():
    with _criterion(5, 600.0, "Heisenberg scaling, sensor ordering, delay saturation"):
        nodec3 = _desk_campaign(3, decohere=False)
        assert nodec3.accuracy[-1] <= 3e-8, \
            f"final accuracy {nodec3.accuracy[-1]:.3e} above 3e-8"
        slope = np.polyfit(np.log(nodec3.tau_bar[1:6]),
                           np.log(nodec3.accuracy[1:6]), 1)[0]
        assert -1.15 <= slope <= -0.85, f"accuracy-time slope {slope:.3f}"
        assert not nodec3.cap_hits.any(), "measurement cap hit without decoherence"

        dec = {n: _desk_campaign(n, decohere=True) for n in (1, 2, 3)}
        for n, result in dec.items():
            assert np.all(np.diff(result.tau_bar) > 0), \
                f"cumulative time not monotone for {n}-qubit sensor"

        compared = 0
        for i in range(1, dec[1].config.n_steps):
            t = dec[1].tau_bar[i]
            a1 = float(dec[1].accuracy[i])
            a2 = _interp_log(dec[2].tau_bar, dec[2].accuracy, t)
            a3 = _interp_log(dec[3].tau_bar, dec[3].accuracy, t)
            if a2 is not None:
                assert a2 < a1, \
                    f"2-qubit accuracy {a2:.3e} not below 1-qubit {a1:.3e}"
                compared += 1
            if a3 is not None:
                best = a2 if a2 is not None else a1
                assert a3 < best, f"3-qubit accuracy {a3:.3e} not the best"
                compared += 1
        assert compared >= 4, "too few matched-time comparisons"

        # delays saturate at the per-sensor optimum; larger sensors sooner
        for n, saturated_from in ((1, 6), (2, 5), (3, 5)):
            evaluator = FringeEvaluator(DESIGN, BIAS, n_qubits=n,
                                        decoherence_enabled=True)
            a, b = evaluator.envelope_rates
            opt = optimal_delay(a, b, n)
            delays = dec[n].mean_delays
            assert delays[saturated_from:] == pytest.approx(opt, rel=1e-12), \
                f"{n}-qubit delays do not saturate at the optimum"
            assert delays[saturated_from - 1] < 0.999 * opt, \
                f"{n}-qubit delays saturate earlier than expected"


def _angular_frequency(f_q_max, e_c, phi, ic_scale=1.0):
    return 2 * math.pi * ((f_q_max + e_c)
                          * math.sqrt(ic_scale * math.cos(math.pi * phi)) - e_c)


def test_criterion_6_numerical_hygiene(tmp_path):
    with _criterion(6, 120.0, "derivatives, posterior, halving, reproducibility"):
        # analytic spectrum derivatives against finite differences
        rng = np.random.default_rng(20240917)
        h = 1e-5
        for _ in range(50):
            f_max = float(rng.uniform(2e9, 20e9))
            phi = float(rng.uniform(0.01, 0.49))
            design = dataclasses.replace(DESIGN, f_q_max=f_max)
            got = spectrum_derivatives(design, FluxBias(phi))
            e_c = design.e_c_over_h
            d1 = (_angular_frequency(f_max, e_c, phi + h)
                  - _angular_frequency(f_max, e_c, phi - h)) / (2 * h)
            d2 = (_angular_frequency(f_max, e_c, phi + h)
                  - 2 * _angular_frequency(f_max, e_c, phi)
                  + _angular_frequency(f_max, e_c, phi - h)) / (h * h)
            dic = (_angular_frequency(f_max, e_c, phi, math.exp(h))
                   - _angular_frequency(f_max, e_c, phi, math.exp(-h))) / (2 * h)
            assert got.d_omega_d_phi == pytest.approx(d1, rel=1e-6)
            assert got.d2_omega_d_phi2 == pytest.approx(d2, rel=1e-6)
            assert got.d_omega_d_ln_ic == pytest.approx(dic, rel=1e-6)

        # posterior stays a distribution through long update chains
        config = PeaConfig()
        rng = np.random.default_rng(6)
        for _ in range(20):
            weights = rng.random(32)
            weights /= weights.sum()
            probs = rng.random(32)
            for _ in range(50):
                weights = posterior_update(weights, probs,
                                           0.5 + rng.standard_normal(), config)
                assert abs(weights.sum() - 1.0) <= 1e-9, "posterior drifted"

        # every step keeps exactly half of the candidate interval
        small = PeaConfig(n_qubits=1, grid_size=64, n_steps=6,
                          decoherence_enabled=False)
        grid = build_flux_grid(DESIGN, BIAS, small)
        evaluator = FringeEvaluator(DESIGN, BIAS, n_qubits=1,
                                    decoherence_enabled=False)
        trace = run_single(float(grid.fluxes[11]), evaluator, small,
                           np.random.default_rng(13), record_steps=True)
        for i, rec in enumerate(trace.steps):
            assert len(rec.survivors) == 64 >> (i + 1), "halving cardinality broken"

        # CLI reruns with one seed are byte-identical
        dirs = (tmp_path / "a", tmp_path / "b")
        for outdir in dirs:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = main(["pea", "--preset", "desk", "--n-qubits", "3",
                           "--no-decoherence", "--seed", "7",
                           "--outdir", str(outdir)])
            assert rc == EXIT_OK, "campaign CLI failed"
        for name in ("pea_steps.csv", "pea_runs.csv"):
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes(), \
                f"{name} differs between identically seeded runs"

        # thermal visibility is a proper contrast factor
        rng = np.random.default_rng(8)
        for _ in range(200):
            f_q = float(rng.uniform(1e9, 25e9))
            temp = float(rng.uniform(1e-3, 0.3))
            v = thermal_visibility(f_q, temp)
            assert 0.0 < v <= 1.0, "visibility out of bounds"
        assert thermal_visibility(5e9, 0.0) == 1.0, "zero-temperature visibility"


def test_criterion_7_posterior_oracle():
    with _criterion(7, 60.0, "halving matches the brute-force grid posterior"):
        config = PeaConfig(n_qubits=1, grid_size=16, n_steps=4, sigma0=0.05,
                           sigma1=0.05, epsilon=1e-6, decoherence_enabled=False)
        evaluator = FringeEvaluator(DESIGN, BIAS, n_qubits=1,
                                    decoherence_enabled=False)
        grid = build_flux_grid(DESIGN, BIAS, config)
        matches = recovered = 0
        trials = 1000
        for trial, child in enumerate(np.random.SeedSequence(424242).spawn(trials)):
            true_idx = 2 * (trial % 8) + 1  # odd: never an interval centre
            result = run_single(float(grid.fluxes[true_idx]), evaluator, config,
                                np.random.default_rng(child), record_steps=True)
            weights = np.full(16, 1.0 / 16.0)
            for rec in result.steps:
                probs = evaluator.probability_excited(grid.fluxes, rec.tau, rec.theta)
                for x in rec.readouts:
                    weights = posterior_update(weights, probs, x, config)
            est_idx = int(np.rint(result.estimates[-1] / grid.spacing))
            matches += int(np.argmax(weights)) == est_idx
            recovered += est_idx == true_idx
        assert matches >= 990, f"only {matches}/{trials} runs match the oracle"
        assert recovered >= 990, f"only {recovered}/{trials} runs recover the target"
