import concurrent.futures
import csv
import dataclasses
import io
import itertools
import tracemalloc

import numpy as np
import pytest

from fluxsense import (
    DESK_PRESET,
    GRID_SIZES,
    CandidateSet,
    DegenerateLikelihoodError,
    FluxBias,
    FringeEvaluator,
    PeaConfig,
    SensorDesign,
    aggregate_report,
    build_flux_grid,
    campaign_targets,
    choose_delay,
    dynamic_range,
    optimal_delay,
    posterior_update,
    run_campaign,
    run_single,
    run_step,
    runs_report,
    sample_measurements,
)
from fluxsense import pea

DESIGN = SensorDesign()
BIAS = FluxBias(0.442)

TINY_CAMPAIGN = PeaConfig(n_qubits=3, grid_size=64, n_steps=6, n_flux_targets=4,
                          n_repetitions=2, decoherence_enabled=False)
# Decohered, with a cap low enough that some runs hit it at some steps.
CAPPED_CAMPAIGN = PeaConfig(n_qubits=3, grid_size=64, n_steps=6, n_flux_targets=4,
                            n_repetitions=3, measurement_cap=200)


def _evaluator(n_qubits, decohere=False):
    return FringeEvaluator(DESIGN, BIAS, n_qubits=n_qubits, decoherence_enabled=decohere)


@pytest.mark.parametrize("kwargs", [
    dict(n_qubits=4),
    dict(n_qubits=0),
    dict(epsilon=0.0),
    dict(epsilon=0.6),
    dict(sigma0=0.0),
    dict(sigma1=-1.0),
    dict(tau_min=0.0),
    dict(measurement_cap=0),
    dict(grid_size=1),
    dict(n_steps=0),
    dict(grid_size=64, n_steps=7),   # 2^7 does not divide 64
    dict(n_flux_targets=3),          # does not divide the target grid
    dict(n_flux_targets=0),
    dict(n_repetitions=1),
])
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        PeaConfig(**kwargs)


def test_config_resolved_grid_size():
    assert PeaConfig(n_qubits=1).resolved_grid_size == 6144
    assert PeaConfig(n_qubits=2).resolved_grid_size == 3072
    assert PeaConfig(n_qubits=3).resolved_grid_size == 2048
    assert PeaConfig(n_qubits=3, grid_size=64, n_steps=6).resolved_grid_size == 64


def test_candidate_set_validation():
    with pytest.raises(ValueError):
        CandidateSet(np.arange(3.0), np.array([0.5, 0.5]), 1.0)
    with pytest.raises(ValueError):
        CandidateSet(np.arange(2.0), np.array([0.6, 0.6]), 1.0)
    with pytest.raises(ValueError):
        CandidateSet(np.arange(2.0), np.array([1.2, -0.2]), 1.0)
    with pytest.raises(ValueError):
        CandidateSet(np.arange(2.0), np.array([np.nan, np.nan]), 1.0)


def test_candidate_set_interval_and_mean():
    grid = CandidateSet.uniform(np.array([0.0, 1.0, 2.0, 3.0]), 1.0)
    assert len(grid) == 4
    assert grid.interval == (-0.5, 3.5)
    assert np.all(grid.weights == 0.25)
    skewed = CandidateSet(np.array([0.0, 1.0]), np.array([0.25, 0.75]), 1.0)
    assert skewed.posterior_mean() == pytest.approx(0.75, rel=1e-15)


def test_grid_spacing_and_sizes():
    for n, size in GRID_SIZES.items():
        grid = build_flux_grid(DESIGN, BIAS, PeaConfig(n_qubits=n))
        assert len(grid) == size
        assert grid.spacing == pytest.approx(2.4232892824522416e-08, rel=1e-12)
        assert grid.fluxes[0] == 0.0
    shared = dynamic_range(DESIGN, BIAS, PeaConfig().tau_min, 1) / 6144
    assert grid.spacing == pytest.approx(shared, rel=1e-15)


def test_standard_grids_nest():
    g1 = build_flux_grid(DESIGN, BIAS, PeaConfig(n_qubits=1))
    g2 = build_flux_grid(DESIGN, BIAS, PeaConfig(n_qubits=2))
    g3 = build_flux_grid(DESIGN, BIAS, PeaConfig(n_qubits=3))
    assert np.array_equal(g2.fluxes, g1.fluxes[:3072])
    assert np.array_equal(g3.fluxes, g1.fluxes[:2048])


def test_grid_span_matches_unambiguous_range():
    for n in (1, 2, 3):
        config = PeaConfig(n_qubits=n)
        grid = build_flux_grid(DESIGN, BIAS, config)
        span = dynamic_range(DESIGN, BIAS, config.tau_min, n)
        lo, hi = grid.interval
        assert hi - lo == pytest.approx(span, rel=1e-12)


def test_custom_grid_size():
    config = PeaConfig(n_qubits=3, grid_size=64, n_steps=6)
    grid = build_flux_grid(DESIGN, BIAS, config)
    assert len(grid) == 64
    span = dynamic_range(DESIGN, BIAS, config.tau_min, 3)
    assert grid.spacing == pytest.approx(span / 64, rel=1e-15)


def test_sample_measurement_limits():
    config = PeaConfig(sigma0=1e-12, sigma1=1e-12)
    rng = np.random.default_rng(3)
    assert sample_measurements(1.0, 100, config, rng) == pytest.approx(np.ones(100), abs=1e-9)
    assert sample_measurements(0.0, 100, config, rng) == pytest.approx(np.zeros(100), abs=1e-9)
    assert sample_measurements(0.5, 0, config, rng).shape == (0,)


def test_sample_measurement_mean():
    config = PeaConfig()
    draws = sample_measurements(0.5, 200_000, config, np.random.default_rng(77))
    # E[x] = p: the noise is centered on the outcome levels 0 and 1
    assert abs(draws.mean() - 0.5) < 0.01


def test_posterior_update_uninformative_cases():
    config = PeaConfig()
    weights = np.array([0.1, 0.2, 0.3, 0.4])
    # identical fringe probabilities: the readout cannot discriminate
    updated = posterior_update(weights, np.full(4, 0.37), 1.3, config)
    assert updated == pytest.approx(weights, rel=1e-12)
    # symmetric readout between the two levels with equal widths
    updated = posterior_update(weights, np.array([0.0, 0.3, 0.8, 1.0]), 0.5, config)
    assert updated == pytest.approx(weights, rel=1e-12)


def test_posterior_update_discriminates():
    config = PeaConfig(sigma0=0.1, sigma1=0.1)
    weights = np.array([0.5, 0.5])
    updated = posterior_update(weights, np.array([0.0, 1.0]), 0.95, config)
    assert updated[1] > 0.999
    assert updated.sum() == pytest.approx(1.0, abs=1e-12)


def test_posterior_update_stays_normalized():
    config = PeaConfig()
    rng = np.random.default_rng(11)
    for _ in range(30):
        m = int(rng.integers(2, 64))
        weights = rng.random(m)
        weights /= weights.sum()
        probs = rng.random(m)
        for _ in range(100):
            x = 0.5 + rng.standard_normal()
            weights = posterior_update(weights, probs, x, config)
            assert abs(weights.sum() - 1.0) <= 1e-9
            assert np.all(weights >= 0)


def test_posterior_update_degenerate():
    config = PeaConfig(sigma0=1e-3, sigma1=1e-3)
    with pytest.raises(DegenerateLikelihoodError):
        posterior_update(np.array([0.5, 0.5]), np.array([0.2, 0.8]), 5.0, config)


def test_first_delay_matches_shortest_fringe():
    # the full grid spans one fringe period at tau_min, so the first
    # half-period delay lands on tau_min itself
    for n in (1, 2, 3):
        config = PeaConfig(n_qubits=n)
        grid = build_flux_grid(DESIGN, BIAS, config)
        tau, _ = choose_delay(grid, _evaluator(n))
        assert abs(tau / config.tau_min - 1.0) < 2e-3


def test_delay_doubles_each_step():
    config = PeaConfig(n_qubits=1, decoherence_enabled=False)
    grid = build_flux_grid(DESIGN, BIAS, config)
    result = run_single(float(grid.fluxes[137]), _evaluator(1), config,
                        np.random.default_rng(5))
    ratios = result.delays[1:] / result.delays[:-1]
    assert np.all((ratios > 1.998) & (ratios < 2.002))


def test_phase_centres_fringe_on_interval():
    for n, decohere in [(1, False), (2, False), (3, False), (1, True)]:
        config = PeaConfig(n_qubits=n)
        grid = build_flux_grid(DESIGN, BIAS, config)
        evaluator = _evaluator(n, decohere)
        tau, theta = choose_delay(grid, evaluator)
        lo, hi = grid.interval
        p_mid = evaluator.probability_excited(0.5 * (lo + hi), tau, theta)
        assert p_mid == pytest.approx(0.5, abs=1e-9)


def test_choose_delay_zero_span():
    config = PeaConfig()
    degenerate = CandidateSet.uniform(np.zeros(2), 0.0)
    with pytest.raises(ArithmeticError):
        choose_delay(degenerate, _evaluator(1))


@pytest.mark.parametrize("n_qubits, decohere", [(1, False), (3, True)])
def test_choose_delay_takes_a_chunk_of_intervals(n_qubits, decohere):
    # one interval per run: each run's delay and phase, bit for bit
    evaluator = _evaluator(n_qubits, decohere)
    grid = build_flux_grid(DESIGN, BIAS, PeaConfig(n_qubits=n_qubits))
    sets = [CandidateSet.uniform(grid.fluxes[s:s + w], grid.spacing)
            for s, w in [(0, 96), (5, 96), (700, 96), (1900, 96), (33, 96)]]
    chunk = CandidateSet(np.array([c.fluxes for c in sets]), np.array([c.weights for c in sets]),
                         grid.spacing)
    tau, theta = choose_delay(chunk, evaluator)
    assert [(float(t), float(p)) for t, p in zip(tau, theta)] == [
        choose_delay(c, evaluator) for c in sets]
    for i, candidates in enumerate(sets):
        assert chunk.run(i).interval == candidates.interval


def test_delay_caps_at_optimum_under_decoherence():
    config = PeaConfig(n_qubits=2)
    grid = build_flux_grid(DESIGN, BIAS, config)
    evaluator = _evaluator(2, decohere=True)
    narrow = CandidateSet.uniform(grid.fluxes[:2], grid.spacing)
    tau, _ = choose_delay(narrow, evaluator)
    a, b = evaluator.envelope_rates
    assert tau == optimal_delay(a, b, 2)


def test_run_step_halves_candidates():
    config = PeaConfig(n_qubits=1, grid_size=16, n_steps=4, decoherence_enabled=False)
    grid = build_flux_grid(DESIGN, BIAS, config)
    rec = run_step(grid, float(grid.fluxes[4]), _evaluator(1), config,
                   np.random.default_rng(8))
    assert len(rec.survivors) == 8
    assert rec.survivors.spacing == grid.spacing
    assert rec.survivors.weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert not rec.cap_hit


def test_run_step_rejects_bad_cardinality():
    config = PeaConfig()
    evaluator = _evaluator(1)
    rng = np.random.default_rng(0)
    odd = CandidateSet.uniform(np.arange(3.0) * 1e-8, 1e-8)
    with pytest.raises(ValueError):
        run_step(odd, 0.0, evaluator, config, rng)
    single = CandidateSet.uniform(np.array([0.0]), 1e-8)
    with pytest.raises(ValueError):
        run_step(single, 0.0, evaluator, config, rng)


def test_run_step_keeps_true_flux():
    # the kept window loses the true flux with probability <= epsilon
    config = PeaConfig(n_qubits=1, grid_size=16, n_steps=4, decoherence_enabled=False)
    grid = build_flux_grid(DESIGN, BIAS, config)
    evaluator = _evaluator(1)
    true_flux = float(grid.fluxes[4])
    lost = 0
    for child in np.random.SeedSequence(901).spawn(2000):
        rec = run_step(grid, true_flux, evaluator, config,
                       np.random.default_rng(child))
        assert len(rec.survivors) == 8
        if true_flux not in rec.survivors.fluxes:
            lost += 1
    assert lost <= 1  # epsilon * 2000 trials = 0.2 expected losses


def test_target_at_interval_centre_never_caps():
    # p = 1/2 at the target for every candidate interval centred on it: a
    # lower-or-upper-half rule stalls there, the heaviest window does not.
    # The first interval's centre lies between grid points, 31.5 spacings
    # in, so the truth is no candidate and only interval membership keeps it.
    config = PeaConfig(n_qubits=1, grid_size=64, n_steps=6, decoherence_enabled=False)
    grid = build_flux_grid(DESIGN, BIAS, config)
    evaluator = _evaluator(1)
    centre = 31.5 * grid.spacing
    assert centre == pytest.approx(sum(grid.interval) / 2, rel=1e-12)
    tau, theta = choose_delay(grid, evaluator)
    assert evaluator.probability_excited(centre, tau, theta) == pytest.approx(0.5, abs=1e-9)
    for child in np.random.SeedSequence(3232).spawn(200):
        result = run_single(centre, evaluator, config, np.random.default_rng(child))
        assert not result.cap_hits.any()
        assert result.retained.all()


def test_brute_force_posterior_oracle_at_every_grid_index():
    # criterion 7's check at all 16 indices, even ones too: every candidate
    # is the centre of its cell, so no grid point sits at an interval centre
    # on the grid-point steps, and odd and even targets are alike to it
    config = PeaConfig(n_qubits=1, grid_size=16, n_steps=4, sigma0=0.05, sigma1=0.05,
                       epsilon=1e-6, decoherence_enabled=False)
    evaluator = _evaluator(1)
    grid = build_flux_grid(DESIGN, BIAS, config)
    matches, recovered = np.zeros(16, dtype=int), np.zeros(16, dtype=int)
    for trial, child in enumerate(np.random.SeedSequence(1616).spawn(400)):
        true_idx = trial % 16
        result = run_single(float(grid.fluxes[true_idx]), evaluator, config,
                            np.random.default_rng(child), record_steps=True)
        weights = np.full(16, 1.0 / 16.0)
        for rec in result.steps:
            probs = evaluator.probability_excited(grid.fluxes, rec.tau, rec.theta)
            for x in rec.readouts:
                weights = posterior_update(weights, probs, x, config)
        est_idx = int(np.rint(result.estimates[-1] / grid.spacing))
        matches[true_idx] += int(np.argmax(weights)) == est_idx
        recovered[true_idx] += est_idx == true_idx
    assert matches.sum() >= 396 and matches[::2].sum() >= 198, matches
    assert recovered.sum() >= 396 and recovered[::2].sum() >= 198, recovered


def _window_test(weights, half, epsilon):
    """Whether the heaviest window of ``half`` candidates holds 1 - epsilon, and its start."""
    below = np.concatenate(([0.0], np.cumsum(weights)))
    above = np.concatenate(([0.0], np.cumsum(weights[::-1])))
    outside = below[:half + 1] + above[half::-1]
    start = int(np.argmin(outside))
    return bool(outside[start] <= epsilon * below[-1]), start


def _replay_step(candidates, rec, evaluator, config):
    """Survivors of one recorded step, one readout at a time through posterior_update.

    The fringe is evaluated at the candidates' fluxes, each the centre of
    its cell (a grid point's own flux).
    """
    probs = evaluator.probability_excited(candidates.fluxes, rec.tau, rec.theta)
    half = len(candidates) // 2
    weights = candidates.weights
    for count, x in enumerate(rec.readouts, start=1):
        weights = posterior_update(weights, probs, x, config)
        decided, start = _window_test(weights, half, config.epsilon)
        if decided:
            break
    assert count == rec.n_measurements, "the step stopped at another readout"
    assert decided != rec.cap_hit
    if rec.cap_hit:
        assert count == config.measurement_cap
    kept = weights[start:start + half]
    return CandidateSet(candidates.fluxes[start:start + half], kept / kept.sum(),
                        candidates.spacing)


def _assert_same_survivors(survivors, rec):
    assert np.array_equal(survivors.fluxes, rec.survivors.fluxes), "another window kept"
    heavy = survivors.weights > 1e-200
    assert rec.survivors.weights[heavy] == pytest.approx(
        survivors.weights[heavy], rel=1e-9, abs=0)


def _level_span_nats(readouts, config):
    x = np.asarray(readouts)
    ll1 = -0.5 * ((x - 1.0) / config.sigma1) ** 2 - np.log(config.sigma1)
    ll0 = -0.5 * (x / config.sigma0) ** 2 - np.log(config.sigma0)
    return float(np.abs(ll1 - ll0).sum())


_ORACLE_STEPS = {None: 9, 16: 4, 64: 6, 3000: 3, 1152: 7}


def _oracle_case(n_qubits, decohere, sigma, grid_size, cap, seed):
    """Config, evaluator, grid and true flux of one sequential-oracle case."""
    config = PeaConfig(n_qubits=n_qubits, sigma0=sigma, sigma1=sigma, grid_size=grid_size,
                       n_steps=_ORACLE_STEPS[grid_size], measurement_cap=cap,
                       decoherence_enabled=decohere)
    grid = build_flux_grid(DESIGN, BIAS, config)
    return config, _evaluator(n_qubits, decohere), grid, float(grid.fluxes[(37 * seed) % len(grid)])


@pytest.mark.parametrize("n_qubits, decohere, sigma, grid_size, cap, seed", [
    (1, False, 1.0, None, 10_000, 1),
    (2, True, 1.0, None, 10_000, 2),
    (3, True, 0.05, None, 10_000, 3),
    (1, True, 0.05, 16, 10_000, 4),
    (2, False, 0.05, 64, 10_000, 5),
    (3, True, 1.0, 64, 10_000, 6),
    (3, False, 1.0, 16, 10_000, 7),
    (2, True, 1.0, 64, 100, 8),      # the cap ends the second block early
    (1, False, 1.0, None, 40, 9),    # capped steps: 6144 to 48 exact, 24 screened
    (1, False, 1.0, 3000, 10_000, 10),  # 3000, 1500 and 750: the exact test on every row
    (3, True, 0.5, None, 300, 11),   # the cap ends the third block of the m <= 32 steps
    (1, True, 1.0, 1152, 10_000, 12),  # 1152 to 36 exact, 18 screened: windows over 9
])
def test_run_step_matches_sequential_oracle(n_qubits, decohere, sigma, grid_size, cap, seed):
    # Grids a run steps on point by point go through run_single.  A run
    # steps on the wide grids in cells, so run_step halves them here, grid
    # point by grid point: the exact window test on every row of sets
    # wider than a run steps on stays under the oracle.
    config, evaluator, grid, true_flux = _oracle_case(n_qubits, decohere, sigma, grid_size,
                                                      cap, seed)
    rng = np.random.default_rng(seed)
    if pea._first_width(config) == 1:
        steps = run_single(true_flux, evaluator, config, rng, record_steps=True).steps
    else:
        steps, candidates = [], grid
        for _ in range(config.n_steps):
            steps.append(run_step(candidates, true_flux, evaluator, config, rng,
                                  record_readouts=True))
            candidates = steps[-1].survivors
    candidates = grid
    for rec in steps:
        survivors = _replay_step(candidates, rec, evaluator, config)
        _assert_same_survivors(survivors, rec)
        candidates = survivors
    if cap < 10_000:
        assert any(rec.cap_hit for rec in steps)
    if decohere and sigma == 1.0 and grid_size is None:
        # a capped step spans far more than one block may: the decay cut ran
        spans = [_level_span_nats(rec.readouts, config) for rec in steps]
        assert max(spans) > 10 * 600


def _fed_candidates(monkeypatch):
    """The candidate sets the step kernel is fed from now on, in call
    order: the set of the first run of each chunk step."""
    fed, step = [], pea._step_chunk

    def recording_step(candidates, *args, **kwargs):
        fed.append(candidates.run(0))
        return step(candidates, *args, **kwargs)

    monkeypatch.setattr(pea, "_step_chunk", recording_step)
    return fed


@pytest.mark.parametrize("n_qubits, decohere, sigma, grid_size, cap, seed", [
    (1, False, 1.0, None, 10_000, 13),
    (2, True, 1.0, None, 10_000, 14),
    (3, True, 0.05, None, 10_000, 15),
    (1, False, 1.0, None, 40, 16),      # capped steps on cells
    (3, True, 0.5, None, 300, 17),
    (1, False, 1.0, 3000, 10_000, 18),  # 750 cells of 4 points: j0 capped at n_steps - 1
    (1, True, 1.0, 1152, 10_000, 19),   # 36 cells of 32 points
])
def test_coarse_run_matches_sequential_oracle(monkeypatch, n_qubits, decohere, sigma,
                                              grid_size, cap, seed):
    # A run on cells, replayed step by step from the candidates it fed
    # run_step; the candidates of each next step are the step's survivors
    # split by the run's own refine helper.
    config, evaluator, grid, true_flux = _oracle_case(n_qubits, decohere, sigma, grid_size,
                                                      cap, seed)
    width = pea._first_width(config)
    assert width > 1
    fed = _fed_candidates(monkeypatch)
    result = run_single(true_flux, evaluator, config, np.random.default_rng(seed),
                        record_steps=True)
    assert len(fed) == config.n_steps
    first = fed[0]
    assert first.fluxes == pytest.approx(
        grid.fluxes.reshape(-1, width).mean(axis=1), rel=1e-12, abs=0)
    assert first.spacing == width * grid.spacing
    assert np.all(first.weights == 1.0 / len(first))
    for i, (candidates, rec) in enumerate(zip(fed, result.steps)):
        survivors = _replay_step(candidates, rec, evaluator, config)
        _assert_same_survivors(survivors, rec)
        if i + 1 < len(fed):
            kept = rec.survivors
            expected = pea._refine(kept, grid.spacing) if kept.spacing > grid.spacing else kept
            following = fed[i + 1]
            assert following.spacing == expected.spacing == max(width >> (i + 1), 1) * grid.spacing
            for field in ("fluxes", "weights"):
                assert np.array_equal(getattr(following, field), getattr(expected, field)), field
    assert fed[-1].spacing == grid.spacing
    if cap < 10_000:
        assert result.cap_hits.any()


def _same_record(rec, ref):
    """Whether two StepRecords of one run agree bit for bit."""
    return ((rec.tau, rec.theta, rec.n_measurements, rec.cap_hit, rec.readouts)
            == (ref.tau, ref.theta, ref.n_measurements, ref.cap_hit, ref.readouts)
            and rec.survivors.spacing == ref.survivors.spacing
            and all(np.array_equal(getattr(rec.survivors, field), getattr(ref.survivors, field))
                    for field in ("fluxes", "weights")))


@pytest.mark.parametrize("n_qubits, decohere, sigma, n_steps, grid_size, cap", [
    (1, False, 1.0, 9, None, 10_000),   # 48 cells, then 24 grid points (window screen)
    (3, True, 1.0, 9, None, 10_000),    # 64 cells, then capped steps on 32, 16 and 8
    (3, True, 0.05, 9, None, 10_000),
    (2, True, 1.0, 6, 64, 200),         # 64 grid points, then m <= 32, some runs capped
    (1, False, 1.0, 9, None, 40),       # the cap ends the first block
    (3, True, 0.5, 9, None, 300),
    (1, False, 1.0, 3, None, 10_000),   # 1536 cells: the exact test on every row
    (1, True, 0.05, 3, None, 20),       # blocks of 21 readouts: the cap ends the first
    (1, True, 1.0, 3, 3000, 10_000),    # 750 cells: the exact test on every row
])
def test_chunk_steps_each_run_as_alone(n_qubits, decohere, sigma, n_steps, grid_size, cap):
    # runs stepped together in one chunk, whose companions decide in other
    # blocks or hit the cap, against the same runs stepped alone: every
    # trace field and step record, bit for bit
    config = PeaConfig(n_qubits=n_qubits, sigma0=sigma, sigma1=sigma, n_steps=n_steps,
                       grid_size=grid_size, measurement_cap=cap, decoherence_enabled=decohere)
    evaluator = _evaluator(n_qubits, decohere)
    grid = build_flux_grid(DESIGN, BIAS, config)
    fluxes = [float(grid.fluxes[(911 * i + 17) % len(grid)]) for i in range(6)]
    seeds = [np.random.SeedSequence((77, i)) for i in range(6)]
    trace, records = pea._run_chunk(fluxes, evaluator, config,
                                    [np.random.default_rng(s) for s in seeds], record_steps=True)
    for i, (flux, seed) in enumerate(zip(fluxes, seeds)):
        alone = run_single(flux, evaluator, config, np.random.default_rng(seed),
                           record_steps=True)
        assert trace[i].tobytes() == alone.trace.tobytes()
        assert all(_same_record(rec.run(i), ref) for rec, ref in zip(records, alone.steps))
    counts = trace["counts"]
    assert any(len(set(step)) > 1 for step in counts.T), "every run stopped together"
    if cap < 10_000:
        capped = trace["cap_hits"]
        assert any(0 < step.sum() < len(step) for step in capped.T), "no step capped some runs"


def test_run_step_degenerate_readout(monkeypatch):
    # a readout about 40 sigma from both levels underflows every likelihood,
    # in the blocked update as in the sequential one
    config = PeaConfig(n_qubits=1, grid_size=16, n_steps=4, decoherence_enabled=False)
    grid = build_flux_grid(DESIGN, BIAS, config)
    with pytest.raises(DegenerateLikelihoodError):
        posterior_update(grid.weights, np.full(16, 0.5), 40.0, config)
    stream = iter([0.3, 0.8, 40.0] + [0.5] * 61)  # third readout of the first block
    monkeypatch.setattr("fluxsense.pea.sample_measurements",
                        lambda p, k, config, rng: np.fromiter(stream, float, k))
    with pytest.raises(DegenerateLikelihoodError):
        run_step(grid, float(grid.fluxes[4]), _evaluator(1), config,
                 np.random.default_rng(0))
    # in a chunk, the one run whose readout underflows raises, in its second
    # block, after a companion has decided and while another still measures
    rngs = [np.random.default_rng(run) for run in range(3)]
    streams = {id(rngs[0]): iter([0.5] * 64 + [0.3, 40.0] + [0.5] * 126),
               id(rngs[1]): iter([1.0] * 64),  # decides at the 34th readout
               id(rngs[2]): iter([0.5] * 192)}  # no information: never decides
    drawn = []

    def sample(p, k, config, rng):
        drawn.append(rng)
        return np.fromiter(streams[id(rng)], float, k)

    monkeypatch.setattr("fluxsense.pea.sample_measurements", sample)
    chunk = CandidateSet(np.tile(grid.fluxes, (3, 1)), np.tile(grid.weights, (3, 1)),
                         grid.spacing)
    with pytest.raises(DegenerateLikelihoodError):
        pea._step_chunk(chunk, np.zeros(3), _evaluator(1), config, rngs,
                        pea._workspace(3, len(grid)))
    assert [drawn.count(rng) for rng in rngs] == [2, 1, 2]


def test_run_step_degenerate_readout_on_screened_grid(monkeypatch):
    # the window product decides these rows without the prefix sums, and
    # the degeneracy check still sees them: the readout that underflows in
    # the sequential update raises
    config = PeaConfig(n_qubits=1, grid_size=32, n_steps=5, decoherence_enabled=False)
    grid = build_flux_grid(DESIGN, BIAS, config)
    assert len(grid) <= pea._DIRECT_MAX
    evaluator = _evaluator(1)
    # 0.5 is as likely from either level: it leaves the posterior as it is
    values = [0.3, 0.8, 0.1, 0.9, 0.2, 0.7, 0.6] + [0.5] * 60 + [40.0] + [0.5] * 124
    bad = values.index(40.0)
    probs = evaluator.probability_excited(grid.fluxes, *choose_delay(grid, evaluator))
    weights = grid.weights
    for x in values[:bad]:
        weights = posterior_update(weights, probs, x, config)
        assert not _window_test(weights, len(grid) // 2, config.epsilon)[0]
    with pytest.raises(DegenerateLikelihoodError):
        posterior_update(weights, probs, values[bad], config)
    stream = iter(values)
    drawn = []

    def sample(p, k, config, rng):
        drawn.extend(itertools.islice(stream, k))
        return np.array(drawn[-k:])

    monkeypatch.setattr("fluxsense.pea.sample_measurements", sample)
    with pytest.raises(DegenerateLikelihoodError):
        run_step(grid, float(grid.fluxes[4]), evaluator, config, np.random.default_rng(0))
    # blocks of 64 and 128 readouts at 32 candidates: it raised in the second
    assert len(drawn) == 192


# Every size the standard sensors step on directly, and m = 2, 4 and 6,
# which they do not reach (windows of one to three candidates).
@pytest.mark.parametrize("m", [2, 4, 6, 8, 12, 16, 24, 32])
@pytest.mark.parametrize("epsilon", [1e-4, 0.25])
def test_window_screen_never_rejects_a_deciding_row(m, epsilon):
    # the window product, the one-pass test of the narrow sets, decides as
    # the prefix sums do on every row not within rounding of the threshold
    assert m <= pea._DIRECT_MAX, "not a size that decides by the product"
    rng = np.random.default_rng(m)
    half = m // 2
    cells = np.arange(m)
    rows = []

    def add(s, profiles, rests):
        window = (cells >= s) & (cells < s + half)
        ends = np.zeros(m)
        ends[[s, s + half - 1]] = 1.0
        for profile in profiles(window, ends):
            for rest in rests(window):
                if rest.sum() > 0:
                    # the rest just below, at and just above epsilon of the row's mass
                    for share in epsilon * np.array([0.5, 1 - 1e-6, 1.0, 1 + 1e-6, 2.0]):
                        rows.append((1 - share) * profile / profile.sum()
                                    + share * rest / rest.sum())

    # heaviest windows at and next to the ends, and one at random
    for s in sorted({0, 1, half - 1, half, int(rng.integers(half + 1))}):
        add(s, lambda window, ends: (ends, window * 1.0, window * rng.random(m)),
            lambda window: (~window * 1.0, ~window * rng.random(m)))
    # every window, which only its own row of the product holds
    for s in range(half + 1):
        add(s, lambda window, ends: (ends,), lambda window: (~window * 1.0,))
    centres = rng.uniform(0, m, 24)[:, None]
    widths = rng.choice([m / 60, m / 30, m / 12, m / 6], 24)[:, None]
    bumps = np.exp(-0.5 * ((cells - centres) / widths) ** 2)
    spiky = rng.random((24, m)) ** rng.integers(1, 400, (24, 1))
    rows = np.vstack([rows, bumps, spiky, np.ones((1, m))])
    below = np.zeros((len(rows), half + 1))
    (decided,), (total,) = pea._product_decisions(rows[None], [len(rows)], epsilon, below)
    mass = rows.sum(axis=1)
    assert total == pytest.approx(mass, rel=1e-12)
    prefix = np.array([_window_test(row, half, epsilon)[0] for row in rows])
    outside = np.array([[np.delete(row, np.arange(s, s + half)).sum() for s in range(half + 1)]
                        for row in rows]).min(axis=1)
    clear = np.abs(outside - epsilon * mass) > 1e-12 * mass
    assert np.array_equal(decided[clear], prefix[clear]), "the product and the prefix sums differ"
    assert prefix[clear].sum() > 10 and (~prefix[clear]).sum() > 10
    assert not decided[-1], "a flat row decided"


def _step_alone(candidates, true_flux, evaluator, config, rng, workspace, **options):
    """run_step's chunk of one run, stepped in ``workspace`` with _step_chunk's ``options``."""
    chunk = CandidateSet(candidates.fluxes[None], candidates.weights[None], candidates.spacing)
    return pea._step_chunk(chunk, np.array([true_flux]), evaluator, config, [rng], workspace,
                           **options).run(0)


def test_reused_workspace_matches_fresh_buffers():
    # one NaN-filled workspace through every step of runs of different
    # layouts against zeroed buffers made fresh for every step: a read of a
    # cell the step did not write, or survivors that share the workspace,
    # change a record.  The records are compared once all runs are done.
    configs = [
        PeaConfig(n_qubits=1, decoherence_enabled=False),
        PeaConfig(n_qubits=3),
        PeaConfig(n_qubits=1, grid_size=3000, n_steps=3, decoherence_enabled=False),
        PeaConfig(n_qubits=1, measurement_cap=40, decoherence_enabled=False),
    ]
    workspace = np.full(pea._workspace(1, 6144).shape, np.nan)  # the widest grid, stepped whole
    pairs = []
    for seed, config in enumerate(configs):
        evaluator = _evaluator(config.n_qubits, config.decoherence_enabled)
        grid = build_flux_grid(DESIGN, BIAS, config)
        true_flux = float(grid.fluxes[(901 * seed) % len(grid)])
        reused_rng, fresh_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        reused = fresh = grid
        for _ in range(config.n_steps):
            rec = _step_alone(reused, true_flux, evaluator, config, reused_rng, workspace,
                              record_readouts=True)
            ref = _step_alone(fresh, true_flux, evaluator, config, fresh_rng,
                              np.zeros(workspace.shape), record_readouts=True)
            pairs.append((rec, ref))
            reused, fresh = rec.survivors, ref.survivors
    for rec, ref in pairs:
        assert (rec.tau, rec.theta, rec.n_measurements, rec.cap_hit, rec.readouts) == \
            (ref.tau, ref.theta, ref.n_measurements, ref.cap_hit, ref.readouts)
        assert np.array_equal(rec.survivors.fluxes, ref.survivors.fluxes)
        assert np.array_equal(rec.survivors.weights, ref.survivors.weights)
    assert any(rec.cap_hit for rec, _ in pairs), "no capped step"
    assert not np.isnan(workspace).all(axis=1).any(), "the steps left a buffer unused"


# Peak traced memory of one warm step of a run with its workspace, on the
# grid as in a run, over the steps of the standard decohered runs (m = 6144
# down to 8): 226 KiB at the first N = 1 step (m = 6144), 127-182 KiB at
# every other step of N = 1, 2 and 3, so the bound has 1.6x headroom at
# that step and 2x at the others.  Block buffers taken from the heap on
# every step would exceed it: they peaked at 594-734 KiB.
_STEP_PEAK_BYTES = 2 * 181 * 1024
# The same of one warm chunk step over 8 runs with the chunk's workspace,
# on the cells a chunk steps on: 159-249 KiB on the steps that end within
# a few blocks, rising with the block length on the capped steps to
# 772-788 KiB at the last (805 KiB at other seeds), where the readouts and
# likelihoods of 8 blocks of up to 4096 readouts take 256 KiB an array.
# The bound has 2x headroom; one [runs, readouts, candidates] temporary at
# m = 64 or m = 8 takes 2 MiB.
_CHUNK_STEP_PEAK_BYTES = 2 * 805 * 1024


@pytest.mark.parametrize("n_qubits", [1, 2, 3])
def test_run_step_allocates_no_block_buffers(n_qubits):
    config = PeaConfig(n_qubits=n_qubits)
    evaluator = _evaluator(n_qubits, decohere=True)
    grid = build_flux_grid(DESIGN, BIAS, config)
    true_flux = float(grid.fluxes[901 % len(grid)])
    workspace = pea._workspace(1, len(grid))
    rng = np.random.default_rng(n_qubits)
    _step_alone(grid, true_flux, evaluator, config, rng, workspace)  # warm
    candidates, peaks = grid, {}
    for _ in range(config.n_steps):
        tracemalloc.start()
        try:
            rec = _step_alone(candidates, true_flux, evaluator, config, rng, workspace)
            peaks[len(candidates)] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        candidates = rec.survivors
    assert max(peaks.values()) <= _STEP_PEAK_BYTES, peaks
    # a chunk of 8 runs steps the cells of a chunk with its own workspace
    runs, width = 8, pea._first_width(config)
    count = len(grid) // width
    candidates = pea._cells(grid.spacing, np.zeros((runs, 1)), width,
                            np.full((runs, count), 1.0 / count))
    true_fluxes = grid.fluxes[(901 + 311 * np.arange(runs)) % len(grid)]
    rngs = [np.random.default_rng((n_qubits, run)) for run in range(runs)]
    workspace = pea._workspace(runs, count)
    pea._step_chunk(candidates, true_fluxes, evaluator, config, rngs, workspace)  # warm
    peaks = {}
    for step in range(1, config.n_steps + 1):
        tracemalloc.start()
        try:
            rec = pea._step_chunk(candidates, true_fluxes, evaluator, config, rngs, workspace)
            peaks[step] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kept = rec.survivors
        candidates = pea._refine(kept, grid.spacing) if kept.spacing > grid.spacing else kept
    assert max(peaks.values()) <= _CHUNK_STEP_PEAK_BYTES, peaks


@pytest.mark.parametrize("n_qubits, decohere, cells", [(1, False, 48), (2, True, 48),
                                                       (3, True, 64)])
def test_steps_run_on_cells_until_the_grid_is_that_fine(monkeypatch, n_qubits, decohere, cells):
    config = PeaConfig(n_qubits=n_qubits, decoherence_enabled=decohere)
    evaluator = _evaluator(n_qubits, decohere)
    grid = build_flux_grid(DESIGN, BIAS, config)
    size = len(grid)
    fed = _fed_candidates(monkeypatch)
    result = run_single(float(grid.fluxes[1717 % size]), evaluator, config,
                        np.random.default_rng(n_qubits), record_steps=True)
    for i, (candidates, rec) in enumerate(zip(fed, result.steps)):
        points = size >> i  # grid points in the step's interval
        width = round(candidates.spacing / grid.spacing)
        # at most 64 cells where the grid allows, grid points after that
        assert len(candidates) == min(cells, points) <= pea._MAX_CELLS
        assert len(candidates) * width == points
        assert candidates.spacing == width * grid.spacing
        # each cell's flux is its centre, the mean of its grid points
        start = int(np.rint(candidates.fluxes[0] / grid.spacing - (width - 1) / 2))
        assert candidates.fluxes == pytest.approx(
            grid.fluxes[start:start + points].reshape(-1, width).mean(axis=1), rel=1e-12, abs=0)
        if i:
            kept = result.steps[i - 1].survivors
            split = kept.spacing > grid.spacing
            assert np.array_equal(candidates.weights,
                                  np.repeat(0.5 * kept.weights, 2) if split else kept.weights)
        # the delay and phase of the grid points over the same interval
        fine = CandidateSet.uniform(grid.fluxes[start:start + points], grid.spacing)
        assert (rec.tau, rec.theta) == choose_delay(fine, evaluator)
    assert fed[-1].spacing == grid.spacing, "the last step is not on grid points"
    assert pea._first_width(config) == size // cells


def test_cell_schedule(monkeypatch):
    fed = _fed_candidates(monkeypatch)

    def widths(**kwargs):
        """Grid points per cell of the sets a run of PeaConfig(**kwargs) steps on."""
        config = PeaConfig(**kwargs)
        grid = build_flux_grid(DESIGN, BIAS, config)
        fed.clear()
        run_single(float(grid.fluxes[len(grid) // 3]),
                   _evaluator(config.n_qubits, config.decoherence_enabled), config,
                   np.random.default_rng(0))
        return [round(candidates.spacing / grid.spacing) for candidates in fed]

    # grids of at most 64 points run on grid points throughout (j0 = 0)
    for grid_size, n_steps in [(16, 4), (64, 6)]:
        assert widths(n_qubits=3, grid_size=grid_size, n_steps=n_steps) == [1] * n_steps
    assert widths(n_qubits=1, grid_size=128, n_steps=7) == [2] + [1] * 6
    # j0 is capped at n_steps - 1, so the last step runs on grid points
    assert widths(n_qubits=1, n_steps=3) == [4, 2, 1]
    assert widths(n_qubits=3, n_steps=1) == [1]
    assert widths(n_qubits=2) == [64, 32, 16, 8, 4, 2, 1, 1, 1]


@pytest.mark.parametrize("cap", [1, 100, 10_000])
def test_workspace_rows_hold_every_block(cap):
    # a block over m candidates holds min(max(1, _BLOCK_CELLS // m), cap)
    # readouts a run: its posterior (m cells a readout) and the window
    # test's below (m/2 + 1) each fit one row of the workspace
    sizes = [*range(2, 65, 2), 1536, 2048, 3072, 6144, 2 * pea._BLOCK_CELLS + 2]
    for m in sizes:
        rows = min(max(1, pea._BLOCK_CELLS // m), cap)
        workspace = pea._workspace(1, m)
        assert workspace.shape[0] == 3
        assert rows * m <= workspace.shape[1] and rows * (m // 2 + 1) <= workspace.shape[1], m


def test_run_on_more_cells_than_a_block_matches_sequential_oracle():
    # a first step over more than _BLOCK_CELLS grid points: blocks of one
    # readout, whose posterior fills more than _BLOCK_CELLS cells of its row
    config = PeaConfig(n_qubits=1, grid_size=65536, n_steps=1, decoherence_enabled=False)
    evaluator = _evaluator(1)
    grid = build_flux_grid(DESIGN, BIAS, config)
    assert len(grid) > pea._BLOCK_CELLS and pea._first_width(config) == 1
    result = run_single(float(grid.fluxes[40_503]), evaluator, config,
                        np.random.default_rng(6553), record_steps=True)
    (rec,) = result.steps
    _assert_same_survivors(_replay_step(grid, rec, evaluator, config), rec)
    assert result.retained.all()


def test_run_step_two_candidates():
    config = PeaConfig(n_qubits=1, grid_size=16, n_steps=4, decoherence_enabled=False)
    grid = build_flux_grid(DESIGN, BIAS, config)
    pair = CandidateSet.uniform(grid.fluxes[:2], grid.spacing)
    rec = run_step(pair, float(grid.fluxes[0]), _evaluator(1), config,
                   np.random.default_rng(12))
    assert len(rec.survivors) == 1
    assert rec.survivors.fluxes[0] == grid.fluxes[0]


def test_run_step_measurement_cap():
    config = PeaConfig(n_qubits=1, grid_size=16, n_steps=4, sigma0=50.0,
                       sigma1=50.0, measurement_cap=3, decoherence_enabled=False)
    grid = build_flux_grid(DESIGN, BIAS, config)
    rec = run_step(grid, float(grid.fluxes[4]), _evaluator(1), config,
                   np.random.default_rng(0))
    assert rec.cap_hit
    assert rec.n_measurements == 3


def test_run_single_traces():
    config = PeaConfig(n_qubits=1, decoherence_enabled=False)
    grid = build_flux_grid(DESIGN, BIAS, config)
    true_flux = float(grid.fluxes[901])
    result = run_single(true_flux, _evaluator(1), config,
                        np.random.default_rng(21), record_steps=True)
    assert result.delays.shape == (9,)
    assert result.counts.dtype.kind == "i"
    assert result.cumulative_time == pytest.approx(
        np.cumsum(result.delays * result.counts), rel=1e-12)
    assert len(result.steps) == 9
    for i, rec in enumerate(result.steps):
        kept = rec.survivors
        width = round(kept.spacing / grid.spacing)
        assert len(rec.readouts) == result.counts[i]
        # the kept interval is 6144 >> (i + 1) grid points, in whole cells
        assert len(kept) * width == 6144 >> (i + 1)
        assert result.estimates[i] == kept.posterior_mean()
        # grid index of each cell's first point
        first = np.rint(kept.fluxes / grid.spacing - (width - 1) / 2).astype(int)
        assert result.retained[i] == np.any((first <= 901) & (901 < first + width))
    assert round(result.steps[0].survivors.spacing / grid.spacing) == 128
    # the final interval is 12 grid spacings wide and contains the target
    assert abs(result.estimates[-1] - true_flux) < 12 * grid.spacing


def test_campaign_deterministic():
    first = run_campaign(DESIGN, BIAS, TINY_CAMPAIGN)
    second = run_campaign(DESIGN, BIAS, TINY_CAMPAIGN)
    assert np.array_equal(first.estimates, second.estimates)
    assert np.array_equal(first.counts, second.counts)
    assert np.array_equal(first.delays, second.delays)
    assert np.array_equal(first.tau_bar, second.tau_bar)
    assert np.array_equal(first.accuracy, second.accuracy)


def test_campaign_parallel_matches_serial():
    two_chunks = dataclasses.replace(TINY_CAMPAIGN, n_repetitions=4)  # 16 runs, 8 a chunk
    serial = run_campaign(DESIGN, BIAS, two_chunks, n_jobs=1)
    parallel = run_campaign(DESIGN, BIAS, two_chunks, n_jobs=2)
    assert np.array_equal(serial.estimates, parallel.estimates)
    assert np.array_equal(serial.counts, parallel.counts)
    assert np.array_equal(serial.cumulative_time, parallel.cumulative_time)


def test_campaign_pool_bounded_by_chunks(monkeypatch):
    # An in-process stand-in for the pool: it records the worker count it
    # is asked for and maps serially, so no process is started.
    requested = []

    class SerialPool:
        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs, chunksize):
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    runs = CAPPED_CAMPAIGN.n_flux_targets * CAPPED_CAMPAIGN.n_repetitions
    pooled = run_campaign(DESIGN, BIAS, CAPPED_CAMPAIGN, n_jobs=10_000)
    assert requested == [-(-runs // 8)]
    serial = run_campaign(DESIGN, BIAS, CAPPED_CAMPAIGN, n_jobs=1)
    assert len(requested) == 1
    assert np.array_equal(serial.estimates, pooled.estimates)
    assert np.array_equal(serial.counts, pooled.counts)
    # a campaign of one chunk (8 runs) runs serially at any n_jobs
    run_campaign(DESIGN, BIAS, TINY_CAMPAIGN, n_jobs=2)
    assert len(requested) == 1


def test_campaign_accuracy_definition():
    result = run_campaign(DESIGN, BIAS, TINY_CAMPAIGN)
    errors = result.estimates - result.targets[:, None, None]
    expected = np.sqrt(((errors**2).sum(axis=1) / 1).mean(axis=0))
    assert result.accuracy == pytest.approx(expected, rel=1e-12)
    assert result.tau_bar == pytest.approx(
        result.cumulative_time.mean(axis=(0, 1)), rel=1e-12)


def test_desk_targets_live_on_shared_grid():
    config = PeaConfig(n_qubits=3, **DESK_PRESET)
    targets = campaign_targets(DESIGN, BIAS, config)
    grid = build_flux_grid(DESIGN, BIAS, PeaConfig(n_qubits=3))
    assert targets.shape == (32,)
    assert np.all(np.diff(targets) > 0)
    indices = np.rint(targets / grid.spacing).astype(int)
    assert np.allclose(indices * grid.spacing, targets, rtol=0,
                       atol=1e-9 * grid.spacing)
    assert indices[0] >= 0 and indices[-1] <= 2047
    assert indices[-1] - indices[0] > 1500  # spread over the full range
    again = campaign_targets(DESIGN, BIAS, config)
    assert np.array_equal(targets, again)


def test_full_targets_take_every_eighth_point():
    config = PeaConfig(n_qubits=3)  # defaults are the full-scale campaign
    targets = campaign_targets(DESIGN, BIAS, config)
    grid = build_flux_grid(DESIGN, BIAS, PeaConfig(n_qubits=3))
    assert np.array_equal(targets, grid.fluxes[4::8])


def test_targets_for_every_valid_campaign_shape():
    # Each target count PeaConfig accepts gets that many targets on the
    # shared grid, each at the middle of its share of the grid, the same
    # for every sensor and step count
    spacing = build_flux_grid(DESIGN, BIAS, PeaConfig(n_qubits=3)).spacing
    shapes = itertools.product(GRID_SIZES, [1 << p for p in range(12)], range(1, 13))
    checked, seen = 0, {}
    for n_qubits, n_targets, n_steps in shapes:
        try:
            config = PeaConfig(n_qubits=n_qubits, n_flux_targets=n_targets, n_steps=n_steps)
        except ValueError:
            continue
        targets = campaign_targets(DESIGN, BIAS, config)
        assert targets.shape == (n_targets,)
        indices = np.rint(targets / spacing)
        assert np.allclose(indices * spacing, targets, rtol=0, atol=1e-9 * spacing)
        stride = 2048 // n_targets
        assert np.array_equal(indices, stride * np.arange(n_targets) + stride // 2)
        assert np.array_equal(targets, seen.setdefault(n_targets, targets))
        checked += 1
    assert checked == 12 * (11 + 10 + 11)


def _csv_writer_text(header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def test_campaign_stacks_runs_by_target_and_repetition():
    config = CAPPED_CAMPAIGN
    result = run_campaign(DESIGN, BIAS, config)
    evaluator = _evaluator(3, decohere=True)
    for j, k in np.ndindex(result.delays.shape[:2]):
        rng = np.random.default_rng(np.random.SeedSequence((config.master_seed, j, k)))
        run = run_single(float(result.targets[j]), evaluator, config, rng)
        for name in result.trace.dtype.names:
            assert np.array_equal(getattr(result, name)[j, k], getattr(run, name)), name


def test_reports_match_csv_writer_oracle():
    # Byte oracle: one csv.writer row of .9g fields per step and per run
    result = run_campaign(DESIGN, BIAS, CAPPED_CAMPAIGN)
    cap_frac = result.cap_hits.mean(axis=(0, 1))
    retained_frac = result.retained.mean(axis=(0, 1))
    assert np.any((cap_frac > 0) & (cap_frac < 1)) and not result.cap_hits.all()
    steps = [
        (i + 1, *(f"{column[i]:.9g}" for column in (
            result.tau_bar, result.accuracy, result.mean_counts, result.mean_delays,
            cap_frac, retained_frac)))
        for i in range(CAPPED_CAMPAIGN.n_steps)
    ]
    assert aggregate_report(result) == _csv_writer_text(
        ("step", "tau_bar_s", "accuracy_phi0", "mean_measurements", "mean_delay_s",
         "cap_hit_frac", "truth_retained_frac"), steps)
    runs = [
        (j, k, i + 1, f"{result.delays[j, k, i]:.9g}", int(result.counts[j, k, i]),
         f"{result.estimates[j, k, i]:.9g}", f"{result.cumulative_time[j, k, i]:.9g}",
         int(result.cap_hits[j, k, i]))
        for j, k, i in np.ndindex(result.delays.shape)
    ]
    assert runs_report(result) == _csv_writer_text(
        ("target_index", "repetition", "step", "tau_s", "n_measurements",
         "estimate_phi0", "cumulative_time_s", "cap_hit"), runs)


def test_report_formats():
    result = run_campaign(DESIGN, BIAS, TINY_CAMPAIGN)
    agg = aggregate_report(result).splitlines()
    assert agg[0] == ("step,tau_bar_s,accuracy_phi0,mean_measurements,mean_delay_s,"
                      "cap_hit_frac,truth_retained_frac")
    assert len(agg) == 1 + 6
    assert agg[1].startswith("1,")
    for i, line in enumerate(agg[1:]):
        cap_frac, retained_frac = map(float, line.split(",")[-2:])
        assert cap_frac == pytest.approx(result.cap_hits[:, :, i].mean(), rel=1e-8)
        assert retained_frac == pytest.approx(result.retained[:, :, i].mean(), rel=1e-8)
    runs = runs_report(result).splitlines()
    assert runs[0] == ("target_index,repetition,step,tau_s,n_measurements,"
                       "estimate_phi0,cumulative_time_s,cap_hit")
    assert len(runs) == 1 + 4 * 2 * 6
    first = runs[1].split(",")
    assert first[0] == "0" and first[1] == "0" and first[2] == "1"


def test_single_step_error_scales_with_sensor_size():
    # one halving leaves half the unambiguous range, which shrinks as 1/N
    def one_step_accuracy(n):
        config = PeaConfig(n_qubits=n, n_steps=1, decoherence_enabled=False,
                           **DESK_PRESET)
        return run_campaign(DESIGN, BIAS, config).accuracy[0]

    acc1 = one_step_accuracy(1)
    assert abs(acc1 / one_step_accuracy(2) / 2 - 1.0) <= 0.25
    assert abs(acc1 / one_step_accuracy(3) / 3 - 1.0) <= 0.25
