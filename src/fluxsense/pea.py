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
(_cell_widths), a candidate set that refines as it halves.  A cell's
flux is its first grid point and its spacing its width, so the
interval, and with it the delay and phase, is that of the grid points
it covers; the fringe is evaluated at the cell's centre.  The kept
window is half the cells.  Before the next step each kept cell splits
into its two halves, each with half its weight, so j drops by one a
step and the last steps run on single grid points.  The standard
sensors run steps 1-8 (N = 1) and 1-7 (N = 2) on 48 cells and steps 1-6
(N = 3) on 64.

A step draws its readouts in blocks and updates the posterior after
every readout of a block at once, as a [readouts, candidates] array.
On sets of at most _DIRECT_MAX candidates a screen of one matrix
product, whose columns are the windows of half the candidates, picks
the rows of a block that may decide: no weight is negative, so a row
none of whose windows holds 1 - epsilon of its mass cannot decide.  The
exact window test runs only on the rows that pass, and its result on
the deciding row gives the kept window, so the deciding readout and the
kept window are the same as without the screen.  Wider sets run the
exact test on every row.  The candidates carry their detunings, computed
once for each set of cells, and the survivors of a step their slice of
them.

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
(see _screened_decisions).  run_step and run_single are the chunk of one
run.
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

    Fluxes are external offsets from the bias point in Phi_0 units, a
    cell's its first grid point, and ``spacing`` is a candidate's width.
    The spacing never changes as the set is halved, so the candidate
    interval is [fluxes[0], fluxes[-1] + spacing).  ``detunings`` holds
    FringeEvaluator.detuning of each candidate's centre (a grid point's
    flux), rad/s: computed once when the set is made, and sliced by
    a step with the fluxes.

    The runs of a chunk (see _step_chunk) hold one set each, as one
    CandidateSet whose arrays have a row per run, of one length and one
    spacing; ``run`` gives one run's set.
    """

    fluxes: np.ndarray
    weights: np.ndarray
    spacing: float
    detunings: np.ndarray

    def __post_init__(self) -> None:
        self.fluxes = np.asarray(self.fluxes, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        self.detunings = np.asarray(self.detunings, dtype=float)
        if self.fluxes.shape != self.weights.shape or self.fluxes.ndim not in (1, 2):
            raise ValueError("fluxes and weights must be matching 1-D arrays, or 2-D for a chunk")
        if self.detunings.shape != self.fluxes.shape:
            raise ValueError("detunings must match fluxes")
        if np.any(self.weights < 0) or not np.all(abs(self.weights.sum(axis=-1) - 1.0) <= 1e-9):
            raise ValueError("weights must be a normalized distribution")

    def __len__(self) -> int:
        """Candidates in the set, or in each run's set of a chunk."""
        return self.fluxes.shape[-1]

    @classmethod
    def uniform(cls, fluxes: np.ndarray, spacing: float, detunings: np.ndarray) -> "CandidateSet":
        n = len(fluxes)
        return cls(fluxes, np.full(n, 1.0 / n), spacing, detunings)

    @property
    def interval(self):
        """(lo, hi) of the set, floats; of each run's set of a chunk, arrays."""
        lo, hi = self.fluxes[..., 0], self.fluxes[..., -1] + self.spacing
        return (float(lo), float(hi)) if self.fluxes.ndim == 1 else (lo, hi)

    def posterior_mean(self) -> float:
        return float(np.dot(self.weights, self.fluxes))

    def run(self, i: int) -> "CandidateSet":
        """Run i's set of a chunk's."""
        return CandidateSet(self.fluxes[i], self.weights[i], self.spacing, self.detunings[i])


def _grid_spacing(design: SensorDesign, bias: FluxBias, config: PeaConfig) -> float:
    return dynamic_range(design, bias, config.tau_min) / (config.resolved_grid_size
                                                          * config.n_qubits)


def _centres(fluxes: np.ndarray, width: float, spacing: float) -> np.ndarray:
    """Centres of cells of ``width`` (in flux) that start at ``fluxes``: the
    mean of their grid points, on a grid of ``spacing``."""
    return fluxes + 0.5 * (width - spacing)


def _cells(spacing: float, start, width: int, weights: np.ndarray, detuning) -> CandidateSet:
    """Adjacent cells of ``width`` grid points, one per weight, from grid index ``start`` on.

    A cell's flux is its first grid point, spacing * index, its spacing
    is its width and its detuning (``detuning`` is
    FringeEvaluator.detuning) is that of its centre.  For a chunk,
    ``weights`` has a row per run and ``start`` is a column of indices.
    """
    fluxes = spacing * (start + width * np.arange(weights.shape[-1]))
    return CandidateSet(fluxes, weights, width * spacing,
                        detuning(_centres(fluxes, width * spacing, spacing)))


def _refine(cells: CandidateSet, spacing: float, detuning) -> CandidateSet:
    """Each of the adjacent ``cells`` (of one run, or of each run of a chunk)
    split into its two halves, each with half its weight, on a grid of
    ``spacing``."""
    return _cells(spacing, np.rint(cells.fluxes[..., :1] / spacing),
                  round(cells.spacing / spacing) // 2,
                  np.repeat(0.5 * cells.weights, 2, axis=-1), detuning)


def build_flux_grid(design: SensorDesign, bias: FluxBias, config: PeaConfig) -> CandidateSet:
    """Uniform candidate grid over the sensor's unambiguous flux range.

    The N-qubit range is the N=1 range over N.  Every standard grid has
    size * N = 6144, so all three share one spacing and the N=2 and N=3
    grids are exact subsets of the N=1 grid.  Each candidate carries its
    detuning, which does not depend on N.
    """
    size = config.resolved_grid_size
    return _cells(_grid_spacing(design, bias, config), 0, 1, np.full(size, 1.0 / size),
                  FringeEvaluator(design, bias).detuning)


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
# Window screen (see _step_chunk): sets of at most _DIRECT_MAX candidates
# are screened window by window, wider ones not at all.  At m = 48 the
# screen cost as much as it spared, and from m = 64 on OpenBLAS splits the
# window product over threads, slower on two cores.  The relative slack is
# far above the rounding of the products (~m * 2^-53 of the row's mass).
_DIRECT_MAX = 32
_SCREEN_SLACK = 1e-9


@functools.lru_cache(maxsize=64)
def _screen_matrix(m: int, epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    """The screen's matrix over m candidates and a column of m ones.

    Column s of the matrix is the indicator of the window [s, s + m/2),
    less (1 - _SCREEN_SLACK)(1 - epsilon).
    """
    half = m // 2
    cell, start = np.arange(m)[:, None], np.arange(half + 1)
    matrix = ((cell >= start) & (cell < start + half)) - (1.0 - _SCREEN_SLACK) * (1.0 - epsilon)
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
    """The exact window test of each row of ``posterior`` (each [..., m] row).

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


def _window_screen(posterior: np.ndarray, epsilon: float, below: np.ndarray):
    """Rows of ``posterior`` that the exact window test may accept, and their mass.

    A row passes when some column of its product with _screen_matrix is
    not negative.  The product is written transposed, a row per window,
    so that its maximum per readout row is elementwise across a few long
    rows: a reduction along each of many short rows costs far more.  It
    is written over the window test's buffer ``below``, which it fits.
    The masses are a BLAS product with a column of ones too: a numpy sum
    along rows a few dozen cells wide costs twice as much or more.
    """
    k, m = posterior.shape
    matrix, ones = _screen_matrix(m, epsilon)
    margin = below.reshape(-1)[:matrix.shape[1] * k].reshape(-1, k)
    np.matmul(matrix.T, posterior.T, out=margin)
    return margin.max(axis=0) >= 0.0, posterior @ ones


def _block_layout(m: int, cap: int) -> tuple[int, tuple[int, ...]]:
    """Rows and columns of a step's block buffers over m candidates:
    the posterior and the window test's ``below`` and ``above``."""
    rows = min(max(1, _BLOCK_CELLS // m), cap)
    return rows, (m, m // 2 + 1, m // 2 + 1)


# A run's steps hold at most this many cells while the grid allows it
# (see _cell_widths).
_MAX_CELLS = 64


def _cell_widths(config: PeaConfig) -> list[int]:
    """Grid points per cell at each step of a run.

    The first step's cells are 2^j0 points wide, j0 the smallest j at
    which the grid splits into at most _MAX_CELLS cells, capped at
    n_steps - 1 (2^n_steps divides the grid, so 2^j0 does too).  The
    width halves each step down to one grid point, so the step over
    size >> i grid points holds (size >> i) // width cells: size >> j0
    until the width reaches one, then size >> i.
    """
    size = config.resolved_grid_size
    j0 = next((j for j in range(config.n_steps) if size >> j <= _MAX_CELLS), config.n_steps - 1)
    return [1 << max(j0 - i, 0) for i in range(config.n_steps)]


def _workspace_cells(config: PeaConfig) -> int:
    """Size of a workspace that holds the block buffers of every step of a run."""
    size, cap = config.resolved_grid_size, config.measurement_cap
    layouts = [_block_layout((size >> i) // width, cap)
               for i, width in enumerate(_cell_widths(config))]
    return max(rows * sum(columns) for rows, columns in layouts)


def _workspace(cells: int) -> np.ndarray:
    """A float64 array of ``cells`` in an anonymous memory mapping of its own.

    A chunk's workspace spans megabytes, of which a step touches the head
    of each buffer.  Mapped on its own, the pages no block writes never
    become resident, and freeing it unmaps it.  From the heap, freeing it
    would raise malloc's mmap threshold past its size, so the next
    chunk's workspace and the temporaries below that size would come
    from a heap that keeps every page once written resident.
    """
    import mmap  # only campaigns need it, so `import fluxsense` does not load it

    return np.frombuffer(mmap.mmap(-1, 8 * cells), dtype=float)


def run_step(candidates: CandidateSet, true_flux: float, evaluator: FringeEvaluator,
             config: PeaConfig, rng: np.random.Generator,
             record_readouts: bool = False, workspace: np.ndarray | None = None) -> StepRecord:
    """Measure until a window of half the candidates holds 1 - epsilon of the mass.

    The contiguous window of m/2 candidates with the most posterior mass
    (ties to the lowest) survives with its weights renormalized; the
    step ends after the first readout at which it holds 1 - epsilon.
    Hitting the measurement cap is recorded, not fatal.  This is
    _step_chunk for a chunk of one run.

    The block buffers are views of ``workspace``, a 1-D float64 array
    of at least _workspace_cells cells that the step writes before it
    reads; without one the step allocates its own.
    """
    chunk = CandidateSet(candidates.fluxes[None], candidates.weights[None], candidates.spacing,
                         candidates.detunings[None])
    return _step_chunk(chunk, evaluator.detuning([true_flux]), evaluator, config, [rng],
                       record_readouts, workspace).run(0)


def _screened_decisions(posterior: np.ndarray, k: np.ndarray, epsilon: float,
                        below: np.ndarray, above: np.ndarray):
    """Deciding rows and row masses of a block of at most _DIRECT_MAX
    candidates, run by run: [runs, rows] arrays, the masses 1 past a
    run's ``k`` rows.

    The exact test sees the rows from the first to the last that the
    screen passes; only passed rows may decide.  Each run is screened
    over its own k rows, as if stepped alone: BLAS sums a row in an order
    that depends on the height of the matrix, so a product over the
    chunk would move the last bits of a run's masses with its companions.
    ``below`` and ``above`` are [rows, half + 1] buffers.
    """
    decided = np.zeros(posterior.shape[:2], dtype=bool)
    total = np.ones(posterior.shape[:2])
    for run, rows in enumerate(k):
        block = posterior[run, :rows]
        passed, total[run, :rows] = _window_screen(block, epsilon, below)
        tested = np.flatnonzero(passed)
        if tested.size:
            first, last = tested[0], tested[-1] + 1
            exact = _window_test(block[first:last], epsilon, below, above)[0]
            decided[run, first:last] = exact & passed[first:last]
    return decided, total


def _step_chunk(candidates: CandidateSet, true_detunings: np.ndarray,
                evaluator: FringeEvaluator, config: PeaConfig, rngs: list[np.random.Generator],
                record_readouts: bool = False,
                workspace: np.ndarray | None = None) -> StepRecord:
    """One step of each run of a chunk, in lockstep: run_step's rule for
    every row of ``candidates`` (a chunk's CandidateSet, see there),
    ``true_detunings`` the detuning of each run's true flux and ``rngs``
    its generator.  Returns the chunk's StepRecord.

    Each run draws blocks of readouts from its own generator, of the
    sizes it would draw alone, and one [runs, readouts, candidates]
    array holds the posterior after every readout of the block of every
    run still measuring, trimmed to the most readouts a run keeps; a
    run's rows past its own are ignored.  The arithmetic of each run is
    that of the run alone, so its readouts, decisions and survivors do
    not depend on its companions: the window test and the products act
    row by row, and the screen sums each run's rows on its own (see
    _screened_decisions).  A run that decides or hits the cap leaves the
    blocks.

    On at most _DIRECT_MAX candidates the exact window test sees only
    the rows that pass _window_screen, which cannot turn away a row that
    decides (see the module docstring); on more it sees every row.  The
    kept window comes from the exact test of a run's last row.

    The block buffers are views of ``workspace``, a 1-D float64 array of
    at least runs * _workspace_cells cells that the step writes before it
    reads; without one the step allocates its own.
    """
    runs, m = candidates.fluxes.shape
    if m < 2 or m % 2 != 0:
        raise ValueError("halving needs an even number of candidates, at least 2")
    tau, theta = choose_delay(candidates, evaluator)
    probs = evaluator.probability_at(candidates.detunings, tau[:, None], theta[:, None])
    p_true = evaluator.probability_at(true_detunings, tau, theta)

    half = m // 2
    cap = config.measurement_cap
    epsilon = config.epsilon
    # Block buffers, sliced to [runs, k] rows per block.  They live as
    # long as the workspace, a whole chunk in _run_chunk: fresh buffers
    # on every step or block cost heap trimming and page faults.
    rows, columns = _block_layout(m, cap)
    sizes = [runs * rows * width for width in columns]
    if workspace is None:
        workspace = np.empty(sum(sizes))
    elif workspace.size < sum(sizes):
        raise ValueError(f"workspace holds {workspace.size} cells, a step of {runs} runs "
                         f"over {m} candidates needs {sum(sizes)}")
    posterior_buf, below_buf, above_buf = np.split(workspace[:sum(sizes)], np.cumsum(sizes)[:2])
    screened = m <= _DIRECT_MAX
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
        if screened:
            decided, total = _screened_decisions(posterior, k, epsilon, below, above)
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
            # The kept window of each run that ends, from the exact test of its last row.
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
                             candidates.spacing,
                             np.take_along_axis(candidates.detunings, window, axis=1))
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
    ("retained", bool, None),  # the truth's grid point lies in a kept cell
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

    Steps run on cells of the grid of build_flux_grid, as wide as
    _cell_widths says, and before the next step each kept cell of more
    than one grid point splits into its two halves (_refine).  A step's
    estimate is the posterior mean over the kept cells' centres, and the
    truth is retained when it lies within half a cell of a kept cell's
    centre, that is, when its grid point lies in a kept cell.  On single
    grid points both are the rules of the grid itself.

    Every step takes its block buffers from one workspace allocated here.
    """
    widths = _cell_widths(config)
    spacing = _grid_spacing(evaluator.design, evaluator.bias_point, config)
    runs, count = len(rngs), config.resolved_grid_size // widths[0]
    candidates = _cells(spacing, np.zeros((runs, 1)), widths[0],
                        np.full((runs, count), 1.0 / count), evaluator.detuning)
    true_fluxes = np.asarray(true_fluxes, dtype=float)
    true_detunings = evaluator.detuning(true_fluxes)
    workspace = _workspace(runs * _workspace_cells(config))
    trace, records, elapsed = np.empty((runs, config.n_steps), TRACE), [], 0.0
    for i, width in enumerate(widths):
        rec = _step_chunk(candidates, true_detunings, evaluator, config, rngs,
                          record_readouts=record_steps, workspace=workspace)
        kept = rec.survivors
        centres = _centres(kept.fluxes, kept.spacing, spacing)
        elapsed = elapsed + rec.tau * rec.n_measurements
        estimates = np.matmul(kept.weights[:, None], centres[:, :, None])[:, 0, 0]
        retained = np.abs(centres - true_fluxes[:, None]).min(axis=1) <= 0.5 * kept.spacing
        for name, values in zip(TRACE.names, (rec.tau, rec.n_measurements, estimates, elapsed,
                                              rec.cap_hit, retained)):
            trace[name][:, i] = values
        records.append(rec)
        candidates = _refine(kept, spacing, evaluator.detuning) if width > 1 else kept
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
