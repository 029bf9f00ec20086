"""Iterative (Kitaev-style) phase estimation of an unknown flux.

The unknown flux is known to lie on a uniform grid spanning the
sensor's unambiguous range.  Each step interrogates the fringe at a
delay matched to the current candidate interval, accumulates noisy
analog readouts into a Bayesian posterior over the candidates, and
keeps the contiguous window of half the candidates that holds the most
posterior mass once that window holds 1 - epsilon of it (the
overlapping intervals of robust phase estimation, so a true flux at an
interval centre costs no more shots than any other).  Halving the
interval doubles the delay of the next step, so the error shrinks
inversely with the total phase-accumulation time (Heisenberg-like
scaling) until decoherence caps the useful delay.

Early steps need no fine grid, so a step whose interval holds more than
_MAX_CELLS grid points runs on cells of 2^j adjacent grid points
(_first_width), a candidate set that refines as it halves.  Every
candidate, a grid point or a cell, is the centre of the flux range it
covers, and its spacing is the width of that range, so one flux serves
the interval, the delay and phase, the fringe, the estimate and the
truth's retention.  The kept window is half the cells.  Before the
next step each kept cell splits into its two halves, each with half its
weight, so j drops by one a step and the last steps run on single grid
points.  The standard sensors run steps 1-8 (N = 1) and 1-7 (N = 2) on
48 cells and steps 1-6 (N = 3) on 64.

A step draws its readouts in blocks and updates the posterior after
every readout of a block at once, as a [readouts, candidates] array.
A row decides when some window of half the candidates leaves at most
epsilon of its mass outside.  On sets of at most _DIRECT_MAX candidates
that outside mass is one matrix product, whose rows mark the
candidates outside each window: the same sums of non-negative weights
as the prefix sums of the window test, added in another order.  Wider
sets take the prefix sums on every row.  Either way the kept window
comes from the prefix sums of a run's last row.

Measurements are simulated as a two-stage process: a Bernoulli draw of
the projective outcome with the true-flux fringe probability, followed
by Gaussian readout noise around the outcome level (sigma1 around 1,
sigma0 around 0).

Campaigns run many repetitions over many target fluxes.  Every
(target, repetition) pair owns an RNG stream derived from the master
seed and the pair indices, so results are reproducible bit-for-bit and
independent of execution order or worker count.

The runs of a campaign step in chunks of 8, in lockstep (_run_chunk,
_step_chunk): every run of a chunk has the same number of candidates at
every step, so one [runs, readouts, candidates] array holds a block of
each run still measuring, and one set of numpy calls serves them all.
Each run draws its own blocks from its own stream, and its arithmetic is
that of the run alone, so its records do not depend on its companions
(see _product_decisions).  Every step takes its block buffers from the
rows of one workspace (_workspace), at the same offsets on every step.
run_step and run_single are the chunk of one run.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import _csvtext
from .fringes import FringeEvaluator
from .optimizer import DEFAULT_TAU_MIN, dynamic_range, optimal_delay
from .qubit import FluxBias, SensorDesign, _is_integer

# Candidate grid sizes for the standard sensors: the N-qubit range is the
# N=1 range over N, so all three grids share one spacing (the N=1 range
# divided 6144-fold) and the N=2, N=3 grids are prefixes of the N=1 grid.
GRID_SIZES = {n: 6144 // n for n in (1, 2, 3)}
TARGET_GRID_SIZE = GRID_SIZES[3]  # campaign targets live on the N=3 grid

DESK_PRESET = {"n_flux_targets": 32, "n_repetitions": 8}
FULL_PRESET = {"n_flux_targets": 256, "n_repetitions": 24}

DEFAULT_MASTER_SEED = 20240917


_INT_FIELDS = ("n_qubits", "n_steps", "n_flux_targets", "n_repetitions", "master_seed",
               "measurement_cap", "grid_size")


class DegenerateLikelihoodError(ArithmeticError):
    """Posterior update lost all probability mass to underflow."""


@dataclass(frozen=True)
class PeaConfig:
    """Parameters of one phase-estimation run or campaign."""

    n_qubits: int = 1
    tau_min: float = DEFAULT_TAU_MIN
    sigma0: float = 1.0
    sigma1: float = 1.0
    epsilon: float = 1e-4
    n_steps: int = 9
    n_flux_targets: int = FULL_PRESET["n_flux_targets"]
    n_repetitions: int = FULL_PRESET["n_repetitions"]
    master_seed: int = DEFAULT_MASTER_SEED
    decoherence_enabled: bool = True
    measurement_cap: int = 10_000
    grid_size: int | None = None  # None selects the standard size for n_qubits

    def __post_init__(self) -> None:
        for name in _INT_FIELDS:
            value = getattr(self, name)
            if not (_is_integer(value) or name == "grid_size" and value is None):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if not isinstance(self.decoherence_enabled, bool):
            raise ValueError(f"decoherence_enabled must be true or false, "
                             f"got {self.decoherence_enabled!r}")
        # The float checks are written so that NaN and +-inf fail them.
        if self.n_qubits not in GRID_SIZES:
            raise ValueError(f"n_qubits must be one of {sorted(GRID_SIZES)}")
        if not 0.0 < self.epsilon < 0.5:
            raise ValueError("epsilon must lie in (0, 0.5)")
        if not (0 < self.sigma0 < math.inf and 0 < self.sigma1 < math.inf):
            raise ValueError(f"readout widths sigma0 and sigma1 must be positive and finite, "
                             f"got {self.sigma0} and {self.sigma1}")
        if not 0 < self.tau_min < math.inf:
            raise ValueError(f"tau_min must be positive and finite, got {self.tau_min}")
        if self.measurement_cap < 1:
            raise ValueError(f"measurement_cap must be at least 1, got {self.measurement_cap}")
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
        if not self.n_repetitions >= 2:
            raise ValueError("need at least two repetitions for the spread estimate")
        if not self.master_seed >= 0:
            raise ValueError(f"master_seed must be non-negative, got {self.master_seed}")

    @property
    def resolved_grid_size(self) -> int:
        return GRID_SIZES[self.n_qubits] if self.grid_size is None else self.grid_size


@dataclass(eq=False)
class CandidateSet:
    """Contiguous block of equally spaced flux candidates with weights:
    grid points, or cells of adjacent grid points (see _run_chunk).

    Fluxes are external offsets from the bias point in Phi_0 units, each
    the centre of the flux range its candidate covers, and ``spacing`` is
    a candidate's width.  The spacing never changes as the set is halved,
    so the candidate interval is [fluxes[0] - spacing/2, fluxes[-1] +
    spacing/2).

    The runs of a chunk (see _step_chunk) hold one set each, as one
    CandidateSet whose arrays have a row per run, of one length and one
    spacing; ``run`` gives one run's set.
    """

    fluxes: np.ndarray
    weights: np.ndarray
    spacing: float

    def __post_init__(self) -> None:
        self.fluxes = np.asarray(self.fluxes, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        if self.fluxes.shape != self.weights.shape or self.fluxes.ndim not in (1, 2):
            raise ValueError("fluxes and weights must be matching 1-D arrays, or 2-D for a chunk")
        if np.any(self.weights < 0) or not np.all(abs(self.weights.sum(axis=-1) - 1.0) <= 1e-9):
            raise ValueError("weights must be a normalized distribution")

    def __len__(self) -> int:
        """Candidates in the set, or in each run's set of a chunk."""
        return self.fluxes.shape[-1]

    @classmethod
    def uniform(cls, fluxes: np.ndarray, spacing: float) -> "CandidateSet":
        n = len(fluxes)
        return cls(fluxes, np.full(n, 1.0 / n), spacing)

    @property
    def interval(self):
        """(lo, hi) of the set, floats; of each run's set of a chunk, arrays."""
        lo = self.fluxes[..., 0] - 0.5 * self.spacing
        hi = self.fluxes[..., -1] + 0.5 * self.spacing
        return (float(lo), float(hi)) if self.fluxes.ndim == 1 else (lo, hi)

    def posterior_mean(self):
        """Posterior-mean flux of the set, a float; of each run's set of a chunk, an array."""
        mean = np.matmul(self.weights[..., None, :], self.fluxes[..., :, None])[..., 0, 0]
        return float(mean) if self.fluxes.ndim == 1 else mean

    def run(self, i: int) -> "CandidateSet":
        """Run i's set of a chunk's."""
        return CandidateSet(self.fluxes[i], self.weights[i], self.spacing)


def _grid_spacing(design: SensorDesign, bias: FluxBias, config: PeaConfig) -> float:
    return dynamic_range(design, bias, config.tau_min) / (config.resolved_grid_size
                                                          * config.n_qubits)


def _cells(spacing: float, start, width: int, weights: np.ndarray) -> CandidateSet:
    """Adjacent cells of ``width`` grid points, one per weight, from grid index ``start`` on.

    A cell's flux is its centre, the mean of its grid points' fluxes
    spacing * index, so a single grid point's is its own; its spacing is
    its width.  For a chunk, ``weights`` has a row per run and ``start``
    is a column of indices.
    """
    index = start + width * np.arange(weights.shape[-1]) + (width - 1) / 2
    return CandidateSet(spacing * index, weights, width * spacing)


def _refine(cells: CandidateSet, spacing: float) -> CandidateSet:
    """Each of the adjacent ``cells`` (of one run, or of each run of a chunk)
    split into its two halves, each with half its weight, on a grid of
    ``spacing``."""
    width = round(cells.spacing / spacing)
    return _cells(spacing, np.rint(cells.fluxes[..., :1] / spacing - (width - 1) / 2), width // 2,
                  np.repeat(0.5 * cells.weights, 2, axis=-1))


def build_flux_grid(design: SensorDesign, bias: FluxBias, config: PeaConfig) -> CandidateSet:
    """Uniform candidate grid over the sensor's unambiguous flux range.

    The N-qubit range is the N=1 range over N.  Every standard grid has
    size * N = 6144, so all three share one spacing and the N=2 and N=3
    grids are exact subsets of the N=1 grid.
    """
    size = config.resolved_grid_size
    return _cells(_grid_spacing(design, bias, config), 0, 1, np.full(size, 1.0 / size))


def choose_delay(candidates: CandidateSet, evaluator: FringeEvaluator):
    """Delay and measurement phase for the current candidate interval.

    The delay stretches one fringe half-period across the interval,
    capped at the optimal delay when decoherence is on; the phase
    centers the fringe zero crossing on the interval midpoint.  Floats
    for one candidate set; for a chunk's (one interval per run), arrays
    over the runs.
    """
    lo, hi = candidates.interval
    n = evaluator.n_qubits
    d_lo, d_hi, d_mid = evaluator.detuning(np.stack([lo, hi, 0.5 * (lo + hi)]))
    span = abs(d_hi - d_lo)
    if np.any(span == 0):
        raise ArithmeticError("candidate interval has no detuning span")
    tau = np.pi / (n * span)
    if evaluator.decoherence_enabled:
        a, b = evaluator.envelope_rates
        tau = np.minimum(tau, optimal_delay(a, b, n))
    theta = np.pi / 2 - n * d_mid * tau
    if np.ndim(tau) == 0:
        return float(tau), float(theta)
    return tau, theta


def sample_measurements(p_excited: float, k: int, config: PeaConfig,
                        rng: np.random.Generator) -> np.ndarray:
    """k analog readouts: Bernoulli outcomes plus Gaussian noise."""
    excited = rng.random(k) < p_excited
    noise = rng.standard_normal(k)
    return np.where(excited, 1.0 + config.sigma1 * noise, config.sigma0 * noise)


def posterior_update(weights: np.ndarray, probs: np.ndarray, x: float,
                     config: PeaConfig) -> np.ndarray:
    """Bayes update of candidate weights for one readout value.

    The sequential reference for the blocked update of ``_step_chunk``.
    """
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
    """Outcome of one halving step: of one run, or of a chunk of runs (see
    _step_chunk), whose fields then hold an array over the runs, a
    CandidateSet with a row per run and a tuple of readouts per run."""

    tau: float
    theta: float
    n_measurements: int
    cap_hit: bool
    survivors: CandidateSet
    readouts: tuple[float, ...] | None = None

    def run(self, i: int) -> "StepRecord":
        """Run i's record of a chunk's."""
        return StepRecord(float(self.tau[i]), float(self.theta[i]), int(self.n_measurements[i]),
                          bool(self.cap_hit[i]), self.survivors.run(i),
                          None if self.readouts is None else self.readouts[i])


# Readouts x candidates in one block, so that the block's [k, m] arrays
# stay in cache on every grid.  A step's first block draws _FIRST_BLOCK
# readouts, each later one twice as many as the last one kept.
_BLOCK_CELLS = 1 << 15
_FIRST_BLOCK = 64
# A block ends before its readouts span more than this many nats between
# the two level log-likelihoods, so no product of scaled likelihoods
# (each in [exp(-span), 1]) can underflow.  When one readout spans more
# (~5e5 nats at sigma0 = sigma1 = 1e-3), each block keeps one readout and
# discards the rest: still exact, but one set of numpy calls a readout.
_BLOCK_NATS = 600.0
# Sets of at most _DIRECT_MAX candidates decide by one product a run (see
# _product_decisions), wider ones by the prefix sums of _window_test.  At
# m = 48 the product cost as much as it spared, and from m = 64 on OpenBLAS
# splits it over threads, slower on two cores.
_DIRECT_MAX = 32


@functools.lru_cache(maxsize=64)
def _outside_matrix(m: int) -> tuple[np.ndarray, np.ndarray]:
    """A row per window of half of m candidates and a column of m ones.

    Row s is the indicator of the candidates outside the window [s, s + m/2).
    """
    half = m // 2
    start, cell = np.arange(half + 1)[:, None], np.arange(m)
    matrix = ((cell < start) | (cell >= start + half)) * 1.0
    ones = np.ones(m)
    matrix.flags.writeable = ones.flags.writeable = False
    return matrix, ones


def _level_likelihoods(draws: list[np.ndarray], config: PeaConfig):
    """How many readouts of each run's ``draws`` a block keeps (see
    _BLOCK_NATS) and, per kept readout, both level likelihoods over the
    larger one and the larger one unscaled: [runs, the most kept]
    arrays, which hold 1 past a run's kept readouts."""
    x = np.zeros((len(draws), max(map(len, draws))))
    for row, drawn in zip(x, draws):
        row[:len(drawn)] = drawn
    ll1 = -0.5 * ((x - 1.0) / config.sigma1) ** 2 - np.log(config.sigma1)
    ll0 = -0.5 * (x / config.sigma0) ** 2 - np.log(config.sigma0)
    kept = (np.cumsum(np.abs(ll1 - ll0), axis=1) <= _BLOCK_NATS).sum(axis=1)
    k = np.maximum(1, np.minimum(kept, [len(drawn) for drawn in draws]))
    ll1, ll0 = ll1[:, :k.max()], ll0[:, :k.max()]
    beyond = np.arange(ll1.shape[1]) >= k[:, None]
    ll1[beyond] = ll0[beyond] = 0.0
    top = np.maximum(ll1, ll0)
    return k, np.exp(ll1 - top), np.exp(ll0 - top), np.exp(top)


def _window_test(posterior: np.ndarray, epsilon: float, below: np.ndarray,
                 above: np.ndarray):
    """The prefix-sum window test of each row of ``posterior`` (each [..., m] row).

    Returns whether the heaviest window of half the candidates holds
    1 - epsilon of the row's mass, the mass outside each window
    [s, s + half) for s = 0..half, and the row's mass.  ``below`` and
    ``above`` are [rows, half + 1] buffers (of the shape of ``posterior``
    but the last axis); the mass outside the windows is written over
    ``below``.
    """
    k, half = len(posterior), posterior.shape[-1] // 2
    # Mass below the window from the lower half of the candidates, mass
    # above it from the upper half.
    below, above = below[:k], above[:k]
    below[..., 0] = above[..., 0] = 0.0
    np.cumsum(posterior[..., :half], axis=-1, out=below[..., 1:])
    np.cumsum(posterior[..., :half - 1:-1], axis=-1, out=above[..., 1:])
    total = below[..., half] + above[..., half]
    outside = np.add(below, above[..., ::-1], out=below)
    return outside.min(axis=-1) <= epsilon * total, outside, total


# A run's steps hold at most this many cells while the grid allows it
# (see _first_width).
_MAX_CELLS = 64


def _first_width(config: PeaConfig) -> int:
    """Grid points per cell of a run's first step: 2^j0, j0 the smallest j
    at which the grid splits into at most _MAX_CELLS cells, capped at
    n_steps - 1 (2^n_steps divides the grid, so 2^j0 does too).  The
    width halves each step down to one grid point."""
    size = config.resolved_grid_size
    return 1 << next((j for j in range(config.n_steps) if size >> j <= _MAX_CELLS),
                     config.n_steps - 1)


def _workspace(runs: int, m: int) -> np.ndarray:
    """Block buffers for steps of ``runs`` runs over at most m candidates:
    the rows of a [3, runs * max(_BLOCK_CELLS, m)] float64 array hold the
    block posterior and the window test's ``below`` and ``above``.  A
    block over m candidates draws at most max(1, _BLOCK_CELLS // m)
    readouts a run, of m cells each in the posterior and m/2 + 1 in the
    others, so each fits its row.

    The array is mapped anonymously on its own: a step touches the head
    of each row, so the pages no block writes never become resident, and
    freeing it unmaps it.  From the heap, freeing it would raise malloc's
    mmap threshold past its size, so the next chunk's workspace and the
    temporaries below that size would come from a heap that keeps every
    page once written resident.
    """
    import mmap  # only PEA steps need it, so `import fluxsense` does not load it

    cells = runs * max(_BLOCK_CELLS, m)
    return np.frombuffer(mmap.mmap(-1, 8 * 3 * cells), dtype=float).reshape(3, cells)


def run_step(candidates: CandidateSet, true_flux: float, evaluator: FringeEvaluator,
             config: PeaConfig, rng: np.random.Generator,
             record_readouts: bool = False) -> StepRecord:
    """Measure until a window of half the candidates holds 1 - epsilon of the mass.

    The contiguous window of m/2 candidates with the most posterior mass
    (ties to the lowest) survives with its weights renormalized; the
    step ends after the first readout at which it holds 1 - epsilon.
    Hitting the measurement cap is recorded, not fatal.  This is
    _step_chunk for a chunk of one run.
    """
    chunk = CandidateSet(candidates.fluxes[None], candidates.weights[None], candidates.spacing)
    return _step_chunk(chunk, np.array([true_flux]), evaluator, config, [rng],
                       _workspace(1, len(candidates)), record_readouts).run(0)


def _product_decisions(posterior: np.ndarray, k: np.ndarray, epsilon: float,
                       below: np.ndarray):
    """Deciding rows and row masses of a block of at most _DIRECT_MAX
    candidates, run by run: [runs, rows] arrays, the masses 1 past a
    run's ``k`` rows.

    A row decides when the least mass outside a window, the minimum of
    its column of the product of _outside_matrix with the block's
    transpose, is at most epsilon of its mass.  The product, a row per
    window, is written over the window test's buffer ``below`` ([rows,
    half + 1]), which it fits, and its minimum per readout row is
    elementwise across a few long rows: a reduction along each of many
    short rows costs far more.  The masses
    are a BLAS product with a column of ones too: a numpy sum along rows
    a few dozen cells wide costs twice as much or more.  Each run is
    multiplied over its own k rows, as if stepped alone: BLAS sums a row
    in an order that depends on the height of the matrix, so a product
    over the chunk would move the last bits of a run's masses with its
    companions.
    """
    matrix, ones = _outside_matrix(posterior.shape[-1])
    decided = np.zeros(posterior.shape[:2], dtype=bool)
    total = np.ones(posterior.shape[:2])
    for run, rows in enumerate(k):
        block = posterior[run, :rows]
        outside = below.reshape(-1)[:len(matrix) * rows].reshape(-1, rows)
        np.matmul(matrix, block.T, out=outside)
        total[run, :rows] = block @ ones
        decided[run, :rows] = outside.min(axis=0) <= epsilon * total[run, :rows]
    return decided, total


def _step_chunk(candidates: CandidateSet, true_fluxes: np.ndarray,
                evaluator: FringeEvaluator, config: PeaConfig, rngs: list[np.random.Generator],
                workspace: np.ndarray, record_readouts: bool = False) -> StepRecord:
    """One step of each run of a chunk, in lockstep: run_step's rule for
    every row of ``candidates`` (a chunk's CandidateSet, see there),
    ``true_fluxes`` each run's true flux and ``rngs`` its generator.
    Returns the chunk's StepRecord.

    Each run draws blocks of readouts from its own generator, of the
    sizes it would draw alone, and one [runs, readouts, candidates]
    array holds the posterior after every readout of the block of every
    run still measuring, trimmed to the most readouts a run keeps; a
    run's rows past its own are ignored.  The arithmetic of each run is
    that of the run alone, so its readouts, decisions and survivors do
    not depend on its companions: the window test and the products act
    row by row, and the window products sum each run's rows on its own
    (see _product_decisions).  A run that decides or hits the cap leaves
    the blocks.

    On at most _DIRECT_MAX candidates a row decides by its product with
    _outside_matrix alone, in one pass; on more by the prefix sums of
    _window_test.  The kept window comes from the prefix sums of a run's
    last row.

    The block buffers are views of the three rows of ``workspace``, a
    _workspace for the runs and at least m candidates, which the step
    writes before it reads.
    """
    runs, m = candidates.fluxes.shape
    if m < 2 or m % 2 != 0:
        raise ValueError("halving needs an even number of candidates, at least 2")
    tau, theta = choose_delay(candidates, evaluator)
    probs = evaluator.probability_at(evaluator.detuning(candidates.fluxes), tau[:, None],
                                     theta[:, None])
    p_true = evaluator.probability_at(evaluator.detuning(true_fluxes), tau, theta)

    half = m // 2
    cap = config.measurement_cap
    epsilon = config.epsilon
    rows = min(max(1, _BLOCK_CELLS // m), cap)
    # Block buffers, sliced to [runs, k] rows per block.  They live as
    # long as the workspace, a whole chunk in _run_chunk: fresh buffers
    # on every step or block cost heap trimming and page faults.
    posterior_buf, below_buf, above_buf = workspace
    direct = m <= _DIRECT_MAX
    # Per run, in run order: what the step returns.
    counts = np.zeros(runs, dtype=int)
    cap_hits = np.zeros(runs, dtype=bool)
    starts = np.zeros(runs, dtype=int)
    kept = np.empty((runs, half))
    readouts = [[] for _ in range(runs)]
    # Per run still measuring: its index, and what its next block reads.
    active = np.arange(runs)
    weights = candidates.weights
    size = np.full(runs, min(_FIRST_BLOCK, rows))
    while active.size:
        draws = [sample_measurements(p_true[run], min(size[lane], cap - counts[run]), config,
                                     rngs[run]) for lane, run in enumerate(active)]
        k, a1, a0, scale = _level_likelihoods(draws, config)
        lanes, depth = np.arange(len(active)), a1.shape[1]
        size = np.minimum(2 * k, rows)
        # posterior[i, r] = weights[i] * prod over readouts 0..r of run i's scaled likelihoods
        posterior = posterior_buf[:a1.size * m].reshape(*a1.shape, m)
        np.multiply((a1 - a0)[:, :, None], probs[:, None], out=posterior)
        posterior += a0[:, :, None]
        posterior[:, 0] *= weights
        np.cumprod(posterior, axis=1, out=posterior)
        below = below_buf[:a1.size * (half + 1)].reshape(-1, half + 1)
        above = above_buf[:a1.size * (half + 1)].reshape(-1, half + 1)
        if direct:
            decided, total = _product_decisions(posterior, k, epsilon, below)
        else:
            decided, _, total = _window_test(posterior, epsilon, below.reshape(*a1.shape, -1),
                                             above.reshape(*a1.shape, -1))
        # The unscaled evidence of each readout, as posterior_update sums
        # it; weights enter normalized, so the first row divides by 1.
        with np.errstate(divide="ignore", invalid="ignore"):
            evidence = scale * total / np.concatenate((np.ones((len(lanes), 1)), total[:, :-1]),
                                                      axis=1)
        degenerate = ~(np.isfinite(evidence) & (evidence > 0.0))
        stops = (decided | degenerate) & (np.arange(depth) < k[:, None])
        r = np.where(stops.any(axis=1), stops.argmax(axis=1), k - 1)
        if degenerate[lanes, r].any():
            raise DegenerateLikelihoodError(
                "posterior mass underflowed; readout is inconsistent with every candidate"
            )
        counts[active] += r + 1
        if record_readouts:
            for lane, run in enumerate(active):
                readouts[run].extend(draws[lane][:r[lane] + 1].tolist())
        ends = decided[lanes, r] | (counts[active] >= cap)
        if ends.any():
            # The kept window of each run that ends, from the prefix sums of its last row.
            done, final = active[ends], posterior[lanes[ends], r[ends]]
            start = _window_test(final, epsilon, below, above)[1].argmin(axis=1)
            window = np.take_along_axis(final, start[:, None] + np.arange(half), axis=1)
            starts[done] = start
            kept[done] = window / window.sum(axis=1, keepdims=True)
            cap_hits[done] = ~decided[lanes, r][ends]
        going = ~ends
        weights = posterior[lanes[going], r[going]] / total[lanes, r][going, None]
        active, probs, size = active[going], probs[going], size[going]

    window = starts[:, None] + np.arange(half)
    survivors = CandidateSet(np.take_along_axis(candidates.fluxes, window, axis=1), kept,
                             candidates.spacing)
    return StepRecord(
        tau=tau,
        theta=theta,
        n_measurements=counts,
        cap_hit=cap_hits,
        survivors=survivors,
        readouts=tuple(map(tuple, readouts)) if record_readouts else None,
    )


# A run's per-step columns, defined once: field of its trace, dtype and
# pea_runs.csv header (None: not written there), in pea_runs.csv order;
# floats are written with %.9g, the other fields with %d.
TRACE_COLUMNS = (
    ("delays", float, "tau_s"),
    ("counts", int, "n_measurements"),
    ("estimates", float, "estimate_phi0"),  # posterior-mean flux after the step, Phi_0
    ("cumulative_time", float, "cumulative_time_s"),  # sum of tau_i n_i up to the step, s
    ("cap_hits", bool, "cap_hit"),
    ("retained", bool, None),  # the truth lies in the kept interval, lo <= truth < hi
)
TRACE = np.dtype([column[:2] for column in TRACE_COLUMNS])
# pea_steps.csv after its step column: each header and the attribute it writes.
STEP_SUMMARY = (("tau_bar_s", "tau_bar"), ("accuracy_phi0", "accuracy"),
                ("mean_measurements", "mean_counts"), ("mean_delay_s", "mean_delays"),
                ("cap_hit_frac", "mean_cap_hits"), ("truth_retained_frac", "mean_retained"))


@dataclass(frozen=True)
class _Traced:
    """Reads each field of ``trace`` (TRACE records, the step last) as an attribute,
    and ``mean_<field>`` as the field's mean over the runs at each step."""

    trace: np.ndarray

    def __getattr__(self, name: str):
        field = name.removeprefix("mean_")
        if field not in TRACE.names:
            raise AttributeError(name)
        values = self.trace[field]
        return values if field == name else values.mean(axis=tuple(range(values.ndim - 1)))

    @property
    def tau_bar(self) -> np.ndarray:
        """Mean cumulative phase-accumulation time at each step, s."""
        return self.mean_cumulative_time


@dataclass(frozen=True)
class RunResult(_Traced):
    """One estimation run: ``trace`` holds the TRACE record of each step."""

    true_flux: float
    steps: tuple[StepRecord, ...] | None = None


def run_single(true_flux: float, evaluator: FringeEvaluator, config: PeaConfig,
               rng: np.random.Generator, record_steps: bool = False) -> RunResult:
    """One full estimation of one target flux: _run_chunk for a chunk of one run."""
    trace, records = _run_chunk([true_flux], evaluator, config, [rng], record_steps)
    return RunResult(trace[0], true_flux,
                     tuple(rec.run(0) for rec in records) if record_steps else None)


def _run_chunk(true_fluxes, evaluator: FringeEvaluator, config: PeaConfig,
               rngs: list[np.random.Generator], record_steps: bool = False):
    """Full estimations of a chunk of runs, one per true flux and
    generator, stepped in lockstep (_step_chunk).  Returns their TRACE
    records [run, step] and each step's StepRecord of the chunk, or
    None without ``record_steps``.

    The first step runs on cells of _first_width grid points of the grid
    of build_flux_grid, and before the next step each kept cell of more
    than one grid point (2^j of them, so its spacing exceeds the grid's
    exactly) splits into its two halves (_refine).  A step's
    estimate is the posterior mean of the kept candidates, and the truth
    is retained when it lies in their interval.

    No step holds more candidates than the first, so every step takes its
    block buffers from one workspace mapped here for the first.
    """
    width = _first_width(config)
    spacing = _grid_spacing(evaluator.design, evaluator.bias_point, config)
    runs, count = len(rngs), config.resolved_grid_size // width
    candidates = _cells(spacing, np.zeros((runs, 1)), width, np.full((runs, count), 1.0 / count))
    true_fluxes = np.asarray(true_fluxes, dtype=float)
    workspace = _workspace(runs, count)
    trace, records, elapsed = np.empty((runs, config.n_steps), TRACE), [], 0.0
    for i in range(config.n_steps):
        rec = _step_chunk(candidates, true_fluxes, evaluator, config, rngs, workspace,
                          record_readouts=record_steps)
        kept = rec.survivors
        lo, hi = kept.interval
        elapsed = elapsed + rec.tau * rec.n_measurements
        for name, values in zip(TRACE.names, (rec.tau, rec.n_measurements, kept.posterior_mean(),
                                              elapsed, rec.cap_hit,
                                              (lo <= true_fluxes) & (true_fluxes < hi))):
            trace[name][:, i] = values
        records.append(rec)
        candidates = _refine(kept, spacing) if kept.spacing > spacing else kept
    return trace, records if record_steps else None


def _pair_rng(master_seed: int, target_index: int, repetition: int) -> np.random.Generator:
    # Streams keyed on (seed, j, k): reproducible and order-independent.
    return np.random.default_rng(np.random.SeedSequence((master_seed, target_index, repetition)))


def campaign_targets(design: SensorDesign, bias: FluxBias, config: PeaConfig) -> np.ndarray:
    """Target fluxes: one grid point of the N=3 grid at the middle of each
    target's equal share of it.

    With stride = TARGET_GRID_SIZE // n_flux_targets, target j lies at
    grid index stride * j + stride // 2, whatever n_qubits and n_steps.
    The three standard grids share their spacing, so every standard
    sensor can represent these targets exactly; a custom grid_size
    (16, say) has another spacing, and they need not be its grid points.
    """
    stride = TARGET_GRID_SIZE // config.n_flux_targets
    indices = stride * np.arange(config.n_flux_targets) + stride // 2
    spacing = dynamic_range(design, bias, config.tau_min) / GRID_SIZES[1]
    return spacing * indices


def _campaign_worker(args) -> np.ndarray:
    """TRACE records [run, step] of one chunk of (target, repetition) pairs."""
    design, bias, config, pairs = args
    evaluator = FringeEvaluator(design, bias, n_qubits=config.n_qubits,
                                decoherence_enabled=config.decoherence_enabled)
    rngs = [_pair_rng(config.master_seed, j, k) for _, j, k in pairs]
    return _run_chunk([target for target, _, _ in pairs], evaluator, config, rngs)[0]


@dataclass(frozen=True)
class CampaignResult(_Traced):
    """A campaign: ``trace`` holds its runs' TRACE records as [target, repetition, step]."""

    config: PeaConfig
    targets: np.ndarray

    @property
    def accuracy(self) -> np.ndarray:
        """Rms error at each step, Phi_0: unbiased across repetitions, averaged over targets."""
        errors = self.estimates - self.targets[:, None, None]
        return np.sqrt(((errors**2).sum(axis=1) / (self.config.n_repetitions - 1)).mean(axis=0))


def run_campaign(design: SensorDesign, bias: FluxBias, config: PeaConfig,
                 n_jobs: int = 1) -> CampaignResult:
    """Estimate every target n_repetitions times and aggregate.

    The (target, repetition) pairs run in chunks of 8, each stepped in
    lockstep (_run_chunk).  ``n_jobs`` > 1 distributes the chunks over
    worker processes, no more than there are chunks, and runs serially
    when that is one; results are identical to the serial path.
    """
    targets = campaign_targets(design, bias, config)
    f, m = config.n_flux_targets, config.n_repetitions
    pairs = [(float(targets[j]), j, k) for j in range(f) for k in range(m)]
    # Both maps keep chunk order, which is [target, repetition] order.
    chunk = 8  # runs stepped together, and a worker's share at a time
    chunks = [(design, bias, config, pairs[i:i + chunk]) for i in range(0, len(pairs), chunk)]
    workers = min(n_jobs, len(chunks))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # only a pool needs it
        with ProcessPoolExecutor(max_workers=workers) as pool:
            traces = list(pool.map(_campaign_worker, chunks, chunksize=1))
    else:
        traces = list(map(_campaign_worker, chunks))
    return CampaignResult(np.concatenate(traces).reshape(f, m, -1), config, targets)


def aggregate_report(result: CampaignResult) -> str:
    """Per-step campaign summary as CSV text."""
    headers, names = zip(*STEP_SUMMARY)
    return _csvtext.table(",".join(("step", *headers)), "%d" + ",%.9g" * len(names),
                          [range(1, result.config.n_steps + 1),
                           *(getattr(result, name).tolist() for name in names)])


def runs_report(result: CampaignResult) -> str:
    """Per-run, per-step detail as CSV text."""
    index = np.indices(result.trace.shape).reshape(3, -1)
    index[2] += 1  # steps count from 1
    columns = [column for column in TRACE_COLUMNS if column[2]]
    return _csvtext.table(
        ",".join(["target_index,repetition,step", *(header for _, _, header in columns)]),
        "%d,%d,%d" + "".join(",%.9g" if dtype is float else ",%d" for _, dtype, _ in columns),
        [*index.tolist(), *(result.trace[name].ravel().tolist() for name, _, _ in columns)])
