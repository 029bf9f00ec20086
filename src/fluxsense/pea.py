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

A step draws its readouts in blocks and updates the posterior after
every readout of a block at once, as a [readouts, candidates] array.
A screen of one matrix product picks the rows of a block that may
decide.  On narrow grids its columns are the windows of half the
candidates; on wide grids (256 candidates and more, in 64 equal blocks)
they are the runs of 33 of the 64 blocks, and any window lies inside
one.  No weight is negative, so a row none of whose columns holds
1 - epsilon of its mass cannot decide.  The exact window test runs only
on the rows that pass, and its result on the deciding row gives the kept
window, so the deciding readout and the kept window are the same as
without the screen.  The detuning of every candidate is computed once a
run, since each step's candidates are a slice of the run's grid.

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

import functools
import math
import operator
from dataclasses import dataclass, replace

import numpy as np

from . import _csvtext
from .fringes import FringeEvaluator
from .optimizer import DEFAULT_TAU_MIN, dynamic_range, optimal_delay
from .qubit import FluxBias, SensorDesign

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


def _is_integer(value) -> bool:
    """Whether ``value`` is an integer (a numpy one too) and not a bool."""
    if isinstance(value, bool):
        return False
    try:
        operator.index(value)
    except TypeError:
        return False
    return True


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
    """Contiguous block of equally spaced flux candidates with weights.

    Fluxes are external offsets from the bias point in Phi_0 units.
    The spacing never changes as the set is halved, so the candidate
    interval is [fluxes[0], fluxes[-1] + spacing).  ``detunings``, when
    set, holds FringeEvaluator.detuning of each flux, computed once for
    a run's grid and sliced with the fluxes (see run_single).
    """

    fluxes: np.ndarray
    weights: np.ndarray
    spacing: float
    detunings: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.fluxes = np.asarray(self.fluxes, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        if self.fluxes.shape != self.weights.shape or self.fluxes.ndim != 1:
            raise ValueError("fluxes and weights must be matching 1-D arrays")
        if self.detunings is not None and np.shape(self.detunings) != self.fluxes.shape:
            raise ValueError("detunings must match fluxes")
        if np.any(self.weights < 0) or not abs(self.weights.sum() - 1.0) <= 1e-9:
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

    The N-qubit range is the N=1 range over N.  Every standard grid has
    size * N = 6144, so all three share one spacing and the N=2 and N=3
    grids are exact subsets of the N=1 grid.
    """
    size = config.resolved_grid_size
    spacing = dynamic_range(design, bias, config.tau_min) / (size * config.n_qubits)
    return CandidateSet.uniform(spacing * np.arange(size), spacing)


def choose_delay(candidates: CandidateSet, evaluator: FringeEvaluator) -> tuple[float, float]:
    """Delay and measurement phase for the current candidate interval.

    The delay stretches one fringe half-period across the interval,
    capped at the optimal delay when decoherence is on; the phase
    centers the fringe zero crossing on the interval midpoint.
    """
    lo, hi = candidates.interval
    n = evaluator.n_qubits
    d_lo, d_hi, d_mid = evaluator.detuning([lo, hi, 0.5 * (lo + hi)])
    span = abs(d_hi - d_lo)
    if span == 0:
        raise ArithmeticError("candidate interval has no detuning span")
    tau = np.pi / (n * span)
    if evaluator.decoherence_enabled:
        a, b = evaluator.envelope_rates
        tau = min(tau, optimal_delay(a, b, n))
    theta = np.pi / 2 - n * float(d_mid) * tau
    return float(tau), float(theta)


def sample_measurements(p_excited: float, k: int, config: PeaConfig,
                        rng: np.random.Generator) -> np.ndarray:
    """k analog readouts: Bernoulli outcomes plus Gaussian noise."""
    excited = rng.random(k) < p_excited
    noise = rng.standard_normal(k)
    return np.where(excited, 1.0 + config.sigma1 * noise, config.sigma0 * noise)


def posterior_update(weights: np.ndarray, probs: np.ndarray, x: float,
                     config: PeaConfig) -> np.ndarray:
    """Bayes update of candidate weights for one readout value.

    The sequential reference for the blocked update of ``run_step``.
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
    """Outcome of one halving step."""

    tau: float
    theta: float
    n_measurements: int
    cap_hit: bool
    survivors: CandidateSet
    readouts: tuple[float, ...] | None = None


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
# From this many candidates on, one numpy product per readout row beats
# numpy's running product down the rows, which costs ~6 ns a cell.
_ROW_PRODUCT_MIN = 256
# Window screen (see run_step).  Grids of at most _DIRECT_MAX candidates
# are screened window by window, grids of at least _SCREEN_MIN that split
# into _SCREEN_BLOCKS equal blocks by runs of blocks, and the grids
# between not at all.  In the benchmark campaigns, replayed step by step
# with and without the screen at one and at two BLAS threads, the block
# screen made a step 14 % faster at m = 768, 6-8 % at 384 and 512 and
# 2.5 % at 256, but 0-2 % slower at 192; window by window it cost m = 48
# as much as it spared, and from m = 64 on OpenBLAS splits the window
# product over threads, slower on two cores.  The relative slack is far
# above the rounding of the products (~m * 2^-53 of the row's mass).
_DIRECT_MAX = 32
_SCREEN_MIN = 256
_SCREEN_BLOCKS = 64
_SCREEN_SLACK = 1e-9


def _screen_blocks(m: int) -> int:
    """Blocks the window screen sums m candidates into: m, _SCREEN_BLOCKS or 0 (no screen)."""
    if m <= _DIRECT_MAX:
        return m
    if m >= _SCREEN_MIN and m % _SCREEN_BLOCKS == 0:
        return _SCREEN_BLOCKS
    return 0


@functools.lru_cache(maxsize=64)
def _screen_matrix(m: int, epsilon: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The screen's matrix over m candidates, a column of ones over its
    blocks and one over the cells of a block.

    Column j of the matrix is the indicator of the j-th window of m/2
    candidates (on grids screened window by window) or of the j-th run
    of _SCREEN_BLOCKS/2 + 1 blocks, less (1 - _SCREEN_SLACK)(1 - epsilon).
    """
    blocks = _screen_blocks(m)
    run = blocks // 2 + (blocks < m)
    cell, start = np.arange(blocks)[:, None], np.arange(blocks - run + 1)
    matrix = ((cell >= start) & (cell < start + run)) - (1.0 - _SCREEN_SLACK) * (1.0 - epsilon)
    block_ones, cell_ones = np.ones(blocks), np.ones(m // blocks)
    matrix.flags.writeable = block_ones.flags.writeable = cell_ones.flags.writeable = False
    return matrix, block_ones, cell_ones


def _level_likelihoods(x: np.ndarray, config: PeaConfig):
    """How many readouts of ``x`` a block keeps (see _BLOCK_NATS) and, per
    kept readout, both level likelihoods over the larger one and the
    larger one unscaled."""
    ll1 = -0.5 * ((x - 1.0) / config.sigma1) ** 2 - np.log(config.sigma1)
    ll0 = -0.5 * (x / config.sigma0) ** 2 - np.log(config.sigma0)
    k = max(1, int(np.searchsorted(np.cumsum(np.abs(ll1 - ll0)), _BLOCK_NATS, side="right")))
    ll1, ll0 = ll1[:k], ll0[:k]
    top = np.maximum(ll1, ll0)
    return k, np.exp(ll1 - top), np.exp(ll0 - top), np.exp(top)


def _window_test(posterior: np.ndarray, epsilon: float, below: np.ndarray,
                 above: np.ndarray):
    """The exact window test of each row of ``posterior``.

    Returns whether the heaviest window of half the candidates holds
    1 - epsilon of the row's mass, the mass outside each window
    [s, s + half) for s = 0..half, and the row's mass.  ``below`` and
    ``above`` are [rows, half + 1] buffers; the mass outside the windows
    is written over ``below``.
    """
    k, half = len(posterior), posterior.shape[1] // 2
    # Mass below the window from the lower half of the candidates, mass
    # above it from the upper half.
    below, above = below[:k], above[:k]
    below[:, 0] = above[:, 0] = 0.0
    np.cumsum(posterior[:, :half], axis=1, out=below[:, 1:])
    np.cumsum(posterior[:, :half - 1:-1], axis=1, out=above[:, 1:])
    total = below[:, half] + above[:, half]
    outside = np.add(below, above[:, ::-1], out=below)
    return outside.min(axis=1) <= epsilon * total, outside, total


def _window_screen(posterior: np.ndarray, epsilon: float, below: np.ndarray,
                   above: np.ndarray):
    """Rows of ``posterior`` that the exact window test may accept, and their mass.

    A row passes when some column of its product with _screen_matrix is
    not negative.  The product is written transposed, a row per column
    of the matrix, so that its maximum per block row is elementwise
    across a few long rows: a reduction along each of many short rows
    costs far more.  The block sums are one BLAS product too, of the
    [k * blocks, block width] view by a column of ones: a numpy sum over
    an axis a few dozen cells wide costs twice as much or more.  The
    window test's buffers ``below`` and ``above`` hold the product and
    the block sums; both fit, as neither is wider than half the
    candidates plus one.
    """
    k, m = posterior.shape
    matrix, block_ones, cell_ones = _screen_matrix(m, epsilon)
    blocks = posterior
    if len(block_ones) < m:
        sums = above.reshape(-1)[:k * len(block_ones)]
        blocks = np.matmul(posterior.reshape(-1, len(cell_ones)), cell_ones, out=sums)
        blocks = blocks.reshape(k, -1)
    margin = below.reshape(-1)[:matrix.shape[1] * k].reshape(-1, k)
    np.matmul(matrix.T, blocks.T, out=margin)
    return margin.max(axis=0) >= 0.0, blocks @ block_ones


def _block_layout(m: int, cap: int) -> tuple[int, tuple[int, ...]]:
    """Rows and columns of a step's block buffers over m candidates:
    the posterior and the window test's ``below`` and ``above``."""
    rows = min(max(1, _BLOCK_CELLS // m), cap)
    return rows, (m, m // 2 + 1, m // 2 + 1)


def _workspace_cells(config: PeaConfig) -> int:
    """Size of a workspace that holds the block buffers of every step of a run."""
    m, cap = config.resolved_grid_size, config.measurement_cap
    layouts = [_block_layout(m >> i, cap) for i in range(config.n_steps)]
    return max(rows * sum(columns) for rows, columns in layouts)


def run_step(candidates: CandidateSet, true_flux: float, evaluator: FringeEvaluator,
             config: PeaConfig, rng: np.random.Generator,
             record_readouts: bool = False, workspace: np.ndarray | None = None) -> StepRecord:
    """Measure until a window of half the candidates holds 1 - epsilon of the mass.

    The contiguous window of m/2 candidates with the most posterior mass
    (ties to the lowest) survives with its weights renormalized; the
    step ends after the first readout at which it holds 1 - epsilon.
    Readouts come in blocks of k, and one [k, m] array holds the
    posterior after every readout of the block.  Hitting the measurement
    cap is recorded, not fatal.

    On the grids _screen_blocks picks, the exact window test sees only
    the rows that pass _window_screen, which cannot turn away a row that
    decides (see the module docstring).  The kept window comes from the
    exact test of the step's last row, run again only when that row is a
    capped one the test never saw.

    The fringe over the candidates uses ``candidates.detunings`` when set
    (run_single sets them), else their detunings computed here, and the
    survivors carry their slice.

    The block buffers are views of ``workspace``, a 1-D float64 array
    (run_single sizes one with _workspace_cells) that the step writes
    before it reads; without one the step allocates its own.
    """
    m = len(candidates)
    if m < 2 or m % 2 != 0:
        raise ValueError("halving needs an even number of candidates, at least 2")
    tau, theta = choose_delay(candidates, evaluator)
    detunings = candidates.detunings
    if detunings is None:
        detunings = evaluator.detuning(candidates.fluxes)
    probs = evaluator.probability_at(detunings, tau, theta)
    p_true = float(evaluator.probability_excited(true_flux, tau, theta))

    half = m // 2
    cap = config.measurement_cap
    epsilon = config.epsilon
    # Block buffers, sliced to k rows per block.  They live as long as
    # the workspace, a whole run in run_single: fresh buffers on every
    # step or block cost heap trimming and page faults.
    rows, columns = _block_layout(m, cap)
    cells = rows * sum(columns)
    if workspace is None:
        workspace = np.empty(cells)
    elif workspace.size < cells:
        raise ValueError(f"workspace holds {workspace.size} cells, "
                         f"a step over {m} candidates needs {cells}")
    buffers, offset = [], 0
    for width in columns:
        buffers.append(workspace[offset:offset + rows * width].reshape(rows, width))
        offset += rows * width
    posterior_buf, below_buf, above_buf = buffers
    screened = _screen_blocks(m) > 0
    size = min(_FIRST_BLOCK, rows)
    weights = candidates.weights
    readouts: list[float] = []
    n = 0
    while True:
        x = sample_measurements(p_true, min(size, cap - n), config, rng)
        k, a1, a0, scale = _level_likelihoods(x, config)
        size = min(2 * k, rows)
        # posterior[r] = weights * prod over readouts 0..r of the scaled likelihoods
        posterior = np.multiply.outer(a1 - a0, probs, out=posterior_buf[:k])
        posterior += a0[:, None]
        posterior[0] *= weights
        if m >= _ROW_PRODUCT_MIN:
            for row in range(1, k):
                np.multiply(posterior[row], posterior[row - 1], out=posterior[row])
        else:
            np.cumprod(posterior, axis=0, out=posterior)
        # The exact test runs on rows first..last - 1, a view, and
        # outside[i] is the mass outside each window of row first + i.
        if screened:
            # Those are the rows from the first to the last that the
            # screen passes; only passed rows may decide.
            decided = np.zeros(k, dtype=bool)
            passed, total = _window_screen(posterior, epsilon, below_buf, above_buf)
            tested = np.flatnonzero(passed)
            first = last = 0
            if tested.size:
                first, last = tested[0], tested[-1] + 1
                exact, outside, _ = _window_test(posterior[first:last], epsilon,
                                                 below_buf, above_buf)
                decided[first:last] = exact & passed[first:last]
        else:
            first, last = 0, k
            decided, outside, total = _window_test(posterior, epsilon, below_buf, above_buf)
        # The unscaled evidence of each readout, as posterior_update sums
        # it; weights enter normalized, so the first row divides by 1.
        evidence = scale * total / np.concatenate(([1.0], total[:-1]))
        degenerate = ~(np.isfinite(evidence) & (evidence > 0.0))
        stops = np.flatnonzero(decided | degenerate)
        r = int(stops[0]) if stops.size else k - 1
        if degenerate[r]:
            raise DegenerateLikelihoodError(
                "posterior mass underflowed; readout is inconsistent with every candidate"
            )
        n += r + 1
        if record_readouts:
            readouts.extend(x[:r + 1].tolist())
        if decided[r] or n >= cap:
            break
        weights = posterior[r] / total[r]

    # A deciding row had the exact test; a capped row past the last row the
    # screen passed did not.
    if not first <= r < last:
        first, outside = r, _window_test(posterior[r:r + 1], epsilon, below_buf, above_buf)[1]
    start = int(np.argmin(outside[r - first]))
    window = slice(start, start + half)
    kept = posterior[r, window]
    survivors = CandidateSet(candidates.fluxes[window], kept / kept.sum(), candidates.spacing,
                             detunings[window])
    return StepRecord(
        tau=tau,
        theta=theta,
        n_measurements=n,
        cap_hit=not decided[r],
        survivors=survivors,
        readouts=tuple(readouts) if record_readouts else None,
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
    ("retained", bool, None),  # a survivor lies within half a spacing of the truth
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
               rng: np.random.Generator, record_steps: bool = False,
               workspace: np.ndarray | None = None) -> RunResult:
    """One full estimation of one target flux.

    Every step takes its block buffers from one ``workspace`` (see
    run_step), allocated here unless given, and the detunings of its
    candidates from one evaluation over the grid.
    """
    grid = build_flux_grid(evaluator.design, evaluator.bias_point, config)
    # Every step's candidates are a slice of the grid, so their detunings are too.
    candidates = replace(grid, detunings=evaluator.detuning(grid.fluxes))
    if workspace is None:
        workspace = np.empty(_workspace_cells(config))
    trace, records, elapsed = np.empty(config.n_steps, TRACE), [], 0.0
    for i in range(config.n_steps):
        rec = run_step(candidates, true_flux, evaluator, config, rng,
                       record_readouts=record_steps, workspace=workspace)
        candidates = rec.survivors
        elapsed += rec.tau * rec.n_measurements
        trace[i] = (rec.tau, rec.n_measurements, candidates.posterior_mean(), elapsed, rec.cap_hit,
                    np.abs(candidates.fluxes - true_flux).min() <= 0.5 * candidates.spacing)
        records.append(rec)
    return RunResult(trace, true_flux, tuple(records) if record_steps else None)


def _pair_rng(master_seed: int, target_index: int, repetition: int) -> np.random.Generator:
    # Streams keyed on (seed, j, k): reproducible and order-independent.
    return np.random.default_rng(np.random.SeedSequence((master_seed, target_index, repetition)))


# Target placement. Targets sit a minimum fraction of the interval width
# away from the centre of every dyadic interval they can occupy, on all
# three sensor grids (a larger relative margin on small intervals).  A
# lower-or-upper-half rule stalled on targets at a centre; the window
# rule of run_step does not, and these targets are kept only so that
# campaigns stay comparable until they become a plain stride.
_FULL_CAMPAIGN_STRIDE = 8
_FULL_CAMPAIGN_OFFSET = 5  # best centre clearance of the 8 possible phases
_MARGIN_WIDE = 1.0 / 24.0
_MARGIN_TIGHT = 1.0 / 12.0
_MARGIN_KNEE = 256


def _centre_clear_indices(n_steps: int) -> np.ndarray:
    """Target-grid indices at least a margin away from every interval centre."""
    index = np.arange(TARGET_GRID_SIZE)
    clear = np.ones(TARGET_GRID_SIZE, dtype=bool)
    for size in GRID_SIZES.values():
        for level in range(n_steps):
            interval = size >> level
            if interval < 2:
                break
            margin = _MARGIN_WIDE if interval >= _MARGIN_KNEE else _MARGIN_TIGHT
            clear &= np.abs(index % interval - interval / 2.0) >= interval * margin
    return np.flatnonzero(clear)


def campaign_targets(design: SensorDesign, bias: FluxBias, config: PeaConfig) -> np.ndarray:
    """Target fluxes: a thinning of the N=3 candidate grid.

    Every sensor can represent these targets exactly because the three
    standard grids share their spacing.  Campaigns with a target on at
    least every 8th grid point, or with more targets than centre-clear
    indices, take every stride-th grid point; the others thin the
    centre-clear index set evenly (see _centre_clear_indices).
    """
    n = config.n_flux_targets
    stride = TARGET_GRID_SIZE // n
    clear = _centre_clear_indices(config.n_steps)
    if stride > _FULL_CAMPAIGN_STRIDE and clear.size >= n:
        indices = clear[((2 * np.arange(n) + 1) * clear.size) // (2 * n)]
    else:
        indices = np.arange(min(_FULL_CAMPAIGN_OFFSET, stride - 1), TARGET_GRID_SIZE, stride)
    spacing = dynamic_range(design, bias, config.tau_min) / GRID_SIZES[1]
    return spacing * indices


def _campaign_worker(args) -> RunResult:
    design, bias, config, target, j, k = args
    evaluator = FringeEvaluator(design, bias, n_qubits=config.n_qubits,
                                decoherence_enabled=config.decoherence_enabled)
    return run_single(target, evaluator, config, _pair_rng(config.master_seed, j, k))


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

    ``n_jobs`` > 1 distributes (target, repetition) pairs over worker
    processes, no more than there are chunks of pairs, and runs serially
    when that is one; results are identical to the serial path.
    """
    targets = campaign_targets(design, bias, config)
    f, m = config.n_flux_targets, config.n_repetitions
    jobs = [(design, bias, config, float(targets[j]), j, k)
            for j in range(f) for k in range(m)]
    # Both maps keep job order, which is [target, repetition] order.
    chunk = 8  # pairs a worker takes at a time
    workers = min(n_jobs, -(-len(jobs) // chunk))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # only a pool needs it
        with ProcessPoolExecutor(max_workers=workers) as pool:
            runs = list(pool.map(_campaign_worker, jobs, chunksize=chunk))
    else:
        runs = list(map(_campaign_worker, jobs))
    return CampaignResult(np.array([run.trace for run in runs]).reshape(f, m, -1), config, targets)


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
