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
    assert grid.interval == (0.0, 4.0)
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
        assert grid.interval[1] == pytest.approx(span, rel=1e-12)


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
    # lower-or-upper-half rule stalls there, the heaviest window does not
    config = PeaConfig(n_qubits=1, grid_size=64, n_steps=6, decoherence_enabled=False)
    grid = build_flux_grid(DESIGN, BIAS, config)
    evaluator = _evaluator(1)
    centre = float(grid.fluxes[32])
    tau, theta = choose_delay(grid, evaluator)
    assert evaluator.probability_excited(centre, tau, theta) == pytest.approx(0.5, abs=1e-9)
    for child in np.random.SeedSequence(3232).spawn(200):
        result = run_single(centre, evaluator, config, np.random.default_rng(child))
        assert not result.cap_hits.any()
        assert result.retained.all()


def _window_test(weights, half, epsilon):
    """Whether the heaviest window of ``half`` candidates holds 1 - epsilon, and its start."""
    below = np.concatenate(([0.0], np.cumsum(weights)))
    above = np.concatenate(([0.0], np.cumsum(weights[::-1])))
    outside = below[:half + 1] + above[half::-1]
    start = int(np.argmin(outside))
    return bool(outside[start] <= epsilon * below[-1]), start


def _replay_step(candidates, rec, evaluator, config):
    """Survivors of one recorded step, one readout at a time through posterior_update."""
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


def _level_span_nats(readouts, config):
    x = np.asarray(readouts)
    ll1 = -0.5 * ((x - 1.0) / config.sigma1) ** 2 - np.log(config.sigma1)
    ll0 = -0.5 * (x / config.sigma0) ** 2 - np.log(config.sigma0)
    return float(np.abs(ll1 - ll0).sum())


@pytest.mark.parametrize("n_qubits, decohere, sigma, grid_size, cap, seed", [
    (1, False, 1.0, None, 10_000, 1),
    (2, True, 1.0, None, 10_000, 2),
    (3, True, 0.05, None, 10_000, 3),
    (1, True, 0.05, 16, 10_000, 4),
    (2, False, 0.05, 64, 10_000, 5),
    (3, True, 1.0, 64, 10_000, 6),
    (3, False, 1.0, 16, 10_000, 7),
    (2, True, 1.0, 64, 100, 8),      # the cap ends the second block early
    (1, False, 1.0, None, 40, 9),    # screened grids: a block ends at the cap on an untested row
    (1, False, 1.0, 3000, 10_000, 10),  # wide but not in 64 blocks: the exact test on every row
    (3, True, 0.5, None, 300, 11),   # the cap ends the third block of the m <= 32 steps
    (1, True, 1.0, 1152, 10_000, 12),  # 64 blocks of 18 candidates, last windows over 18
])
def test_run_step_matches_sequential_oracle(n_qubits, decohere, sigma, grid_size, cap, seed):
    n_steps = {None: 9, 16: 4, 64: 6, 3000: 3, 1152: 7}[grid_size]
    config = PeaConfig(n_qubits=n_qubits, sigma0=sigma, sigma1=sigma, grid_size=grid_size,
                       n_steps=n_steps, measurement_cap=cap, decoherence_enabled=decohere)
    evaluator = _evaluator(n_qubits, decohere)
    grid = build_flux_grid(DESIGN, BIAS, config)
    true_flux = float(grid.fluxes[(37 * seed) % len(grid)])
    result = run_single(true_flux, evaluator, config, np.random.default_rng(seed),
                        record_steps=True)
    candidates = grid
    for rec in result.steps:
        survivors = _replay_step(candidates, rec, evaluator, config)
        assert np.array_equal(survivors.fluxes, rec.survivors.fluxes), "another window kept"
        heavy = survivors.weights > 1e-200
        assert rec.survivors.weights[heavy] == pytest.approx(
            survivors.weights[heavy], rel=1e-9, abs=0)
        candidates = survivors
    if cap < 10_000:
        assert result.cap_hits.any()
    if decohere and sigma == 1.0 and grid_size is None:
        # a capped step spans far more than one block may: the decay cut ran
        spans = [_level_span_nats(rec.readouts, config) for rec in result.steps]
        assert max(spans) > 10 * 600


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


def test_run_step_degenerate_readout_on_screened_grid(monkeypatch):
    # the screen spares most rows the window test, never the degeneracy
    # check: the readout that underflows in the sequential update raises
    config = PeaConfig(n_qubits=1, decoherence_enabled=False)
    grid = build_flux_grid(DESIGN, BIAS, config)
    assert len(grid) >= pea._SCREEN_MIN and len(grid) % pea._SCREEN_BLOCKS == 0
    evaluator = _evaluator(1)
    values = [0.3, 0.8, 0.1, 0.9, 0.2, 0.7, 0.6, 40.0] + [0.5] * 60
    probs = evaluator.probability_excited(grid.fluxes, *choose_delay(grid, evaluator))
    weights = grid.weights
    for x in values[:7]:
        weights = posterior_update(weights, probs, x, config)
        assert not _window_test(weights, len(grid) // 2, config.epsilon)[0]
    with pytest.raises(DegenerateLikelihoodError):
        posterior_update(weights, probs, values[7], config)
    stream = iter(values)
    drawn = []

    def sample(p, k, config, rng):
        drawn.extend(itertools.islice(stream, k))
        return np.array(drawn[-k:])

    monkeypatch.setattr("fluxsense.pea.sample_measurements", sample)
    with pytest.raises(DegenerateLikelihoodError):
        run_step(grid, float(grid.fluxes[4]), evaluator, config, np.random.default_rng(0))
    # blocks of 5 readouts at 6144 candidates: it raised in the second
    assert len(drawn) == 10


def _screen_and_exact(rows, epsilon):
    """The screen's verdict and the exact window test's, for each row."""
    k, half = rows.shape[0], rows.shape[1] // 2
    below, above = np.zeros((k, half + 1)), np.zeros((k, half + 1))
    passed, total = pea._window_screen(rows, epsilon, below, above)
    decided, _, exact_total = pea._window_test(rows, epsilon, below, above)
    assert total == pytest.approx(exact_total, rel=1e-12)
    return passed, decided


def _deciding_at_threshold(inside, outside, epsilon):
    """inside + c * outside with the largest c that the exact window test accepts.

    ``inside`` holds each row's heaviest window, ``outside`` the rest, both
    normalised; the rows decide at 1 - epsilon to the last bit.
    """
    lo = np.zeros((len(inside), 1))
    hi = np.full_like(lo, 2.0 * epsilon / (1.0 - epsilon))
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        _, decided = _screen_and_exact(inside + mid * outside, epsilon)
        lo = np.where(decided[:, None], mid, lo)
        hi = np.where(decided[:, None], hi, mid)
    return inside + lo * outside


# Every size the standard sensors screen, and sizes they do not reach:
# blocks of an odd width (576 = 64 x 9, 1088 = 64 x 17), windows over 6
# candidates.
@pytest.mark.parametrize("m", [2, 4, 6, 8, 16, 24, 32, 256, 384, 512, 576, 768, 1024, 1088,
                               1536, 2048, 3072, 6144])
@pytest.mark.parametrize("epsilon", [1e-4, 0.25])
def test_window_screen_never_rejects_a_deciding_row(m, epsilon):
    assert pea._screen_blocks(m), "not a screened size"
    rng = np.random.default_rng(m)
    half, width = m // 2, m // pea._screen_blocks(m)
    cells = np.arange(m)
    edges = (cells % width == 0) | (cells % width == width - 1)
    inside, outside = [], []

    def add(s, profiles, rests):
        window = (cells >= s) & (cells < s + half)
        # outside mass more than a block from the window: a window on block
        # edges then holds all of its heaviest run of blocks
        far = (cells < s - width) | (cells >= s + half + width)
        ends = np.zeros(m)
        ends[[s, s + half - 1]] = 1.0
        for profile in profiles(window, ends):
            for rest in rests(window, far):
                if rest.sum() > 0:
                    inside.append(profile / profile.sum())
                    outside.append(rest / rest.sum())

    # heaviest windows on, next to and between block edges, and at the ends
    starts = {0, 1, width - 1, width, width + 1, width // 2, half - 1, half,
              int(rng.integers(half + 1))}
    for s in sorted(starts & set(range(half + 1))):
        add(s, lambda window, ends: (ends, window * 1.0, window * edges,
                                     window * rng.random(m)),
            lambda window, far: (~window * 1.0, ~window * edges, ~window * rng.random(m),
                                 far * 1.0))
    # a window that only one column of the screen holds, for every column:
    # window s itself, or the run of blocks from the block of s
    for s in range(min(1, width - 1), half + 1, width):
        add(s, lambda window, ends: (ends,), lambda window, far: (~window * 1.0, far * 1.0))
    at_threshold = _deciding_at_threshold(np.array(inside), np.array(outside), epsilon)
    centres = rng.uniform(0, m, 24)[:, None]
    widths = rng.choice([m / 60, m / 30, m / 12, m / 6], 24)[:, None]
    bumps = np.exp(-0.5 * ((cells - centres) / widths) ** 2)
    spiky = rng.random((24, m)) ** rng.integers(1, 400, (24, 1))
    rows = np.vstack([at_threshold, bumps, spiky, np.ones((1, m))])
    passed, decided = _screen_and_exact(rows, epsilon)
    assert decided[:len(at_threshold)].all()
    assert not passed[-1], "a flat row passed the screen"
    assert passed[decided].all(), "the screen rejected a deciding row"


def _assert_same_run(result, fresh):
    for name in ("delays", "counts", "estimates", "cumulative_time", "cap_hits", "retained"):
        assert np.array_equal(getattr(result, name), getattr(fresh, name)), name
    for rec, ref in zip(result.steps, fresh.steps, strict=True):
        assert (rec.tau, rec.theta, rec.n_measurements, rec.cap_hit, rec.readouts) == \
            (ref.tau, ref.theta, ref.n_measurements, ref.cap_hit, ref.readouts)
        assert np.array_equal(rec.survivors.fluxes, ref.survivors.fluxes)
        assert np.array_equal(rec.survivors.weights, ref.survivors.weights)


def test_reused_workspace_matches_fresh_buffers(monkeypatch):
    # one NaN-filled workspace through runs of different layouts against
    # zeroed buffers made fresh for every step: a read of a cell the step
    # did not write, or survivors that share the workspace, change a record
    step = pea.run_step

    def fresh_step(*args, workspace, **kwargs):
        return step(*args, workspace=np.zeros(workspace.size), **kwargs)

    configs = [
        PeaConfig(n_qubits=1, decoherence_enabled=False),
        PeaConfig(n_qubits=3),
        PeaConfig(n_qubits=1, grid_size=3000, n_steps=3, decoherence_enabled=False),
        PeaConfig(n_qubits=1, measurement_cap=40, decoherence_enabled=False),
    ]
    workspace = np.full(max(pea._workspace_cells(c) for c in configs), np.nan)
    for seed, config in enumerate(configs):
        evaluator = _evaluator(config.n_qubits, config.decoherence_enabled)
        grid = build_flux_grid(DESIGN, BIAS, config)
        true_flux = float(grid.fluxes[(901 * seed) % len(grid)])
        reused = run_single(true_flux, evaluator, config, np.random.default_rng(seed),
                            record_steps=True, workspace=workspace)
        with monkeypatch.context() as patch:
            patch.setattr(pea, "run_step", fresh_step)
            fresh = run_single(true_flux, evaluator, config, np.random.default_rng(seed),
                               record_steps=True)
        _assert_same_run(reused, fresh)
    assert not np.isnan(workspace).all(), "the runs did not use the workspace"
    with pytest.raises(ValueError, match="workspace"):
        run_step(grid, true_flux, evaluator, config, np.random.default_rng(0),
                 workspace=np.empty(10))


# Peak traced memory of one warm run_step with a run's workspace: 204 KiB
# at most on every step of the standard decohered runs (m = 6144 down to
# 8), so the bound has 2x headroom.  A step that allocates its own block
# buffers peaks at 590-998 KiB.
_STEP_PEAK_BYTES = 2 * 204 * 1024


@pytest.mark.parametrize("n_qubits", [1, 2, 3])
def test_run_step_allocates_no_block_buffers(n_qubits):
    config = PeaConfig(n_qubits=n_qubits)
    evaluator = _evaluator(n_qubits, decohere=True)
    grid = build_flux_grid(DESIGN, BIAS, config)
    true_flux = float(grid.fluxes[901 % len(grid)])
    workspace = np.empty(pea._workspace_cells(config))
    rng = np.random.default_rng(n_qubits)
    run_step(grid, true_flux, evaluator, config, rng, workspace=workspace)  # warm
    candidates, peaks = grid, {}
    for _ in range(config.n_steps):
        tracemalloc.start()
        try:
            rec = run_step(candidates, true_flux, evaluator, config, rng, workspace=workspace)
            peaks[len(candidates)] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        candidates = rec.survivors
    assert max(peaks.values()) <= _STEP_PEAK_BYTES, peaks


@pytest.mark.parametrize("n_qubits, decohere", [(1, False), (3, True)])
def test_survivors_carry_their_slice_of_the_grid_detunings(n_qubits, decohere):
    # run_single computes the detuning of every grid flux once; the fringe
    # at each survivor set's slice of them is the fringe at its fluxes, bit
    # for bit, at the delay and phase of every step
    config = PeaConfig(n_qubits=n_qubits, decoherence_enabled=decohere)
    evaluator = _evaluator(n_qubits, decohere)
    grid = build_flux_grid(DESIGN, BIAS, config)
    result = run_single(float(grid.fluxes[1234 % len(grid)]), evaluator, config,
                        np.random.default_rng(n_qubits), record_steps=True)
    for survivors in (rec.survivors for rec in result.steps):
        for step in result.steps:
            fringe = step.tau, step.theta
            assert np.array_equal(evaluator.probability_at(survivors.detunings, *fringe),
                                  evaluator.probability_excited(survivors.fluxes, *fringe))


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
        assert len(rec.readouts) == result.counts[i]
        assert len(rec.survivors) == 6144 >> (i + 1)
        assert result.estimates[i] == rec.survivors.posterior_mean()
        assert result.retained[i] == (true_flux in rec.survivors.fluxes)
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
    assert np.array_equal(targets, grid.fluxes[5::8])


def test_targets_for_every_valid_campaign_shape():
    # Each target count PeaConfig accepts gets that many targets on the
    # shared grid, also where fewer indices clear every interval centre
    spacing = build_flux_grid(DESIGN, BIAS, PeaConfig(n_qubits=3)).spacing
    shapes = itertools.product(GRID_SIZES, [1 << p for p in range(12)], range(1, 13))
    checked = 0
    for n_qubits, n_targets, n_steps in shapes:
        try:
            config = PeaConfig(n_qubits=n_qubits, n_flux_targets=n_targets, n_steps=n_steps)
        except ValueError:
            continue
        targets = campaign_targets(DESIGN, BIAS, config)
        assert targets.shape == (n_targets,)
        assert np.all(np.diff(targets) > 0)
        indices = np.rint(targets / spacing)
        assert np.allclose(indices * spacing, targets, rtol=0, atol=1e-9 * spacing)
        assert indices[0] >= 0 and indices[-1] <= 2047
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
