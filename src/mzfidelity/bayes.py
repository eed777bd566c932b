"""Bayesian phase inference: posteriors, peak structure, simulated records.

A uniform prior over (-pi, pi] turns each likelihood row P(m|phi) into a
posterior density p(phi|m) by normalization.  Posteriors here are
generally multimodal, so alongside the density we report the peak list
and circular summary statistics.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import UndefinedCircularMeanError, ZeroProbabilityOutcomeError
from .grid import DEFAULT_GRID_SIZE, PhaseGrid, _integer
from .optics import (DEFAULT_GEOMETRY, InterferometerGeometry, LikelihoodTable,
                     Outcome, StateCoefficients, likelihood_table,
                     outcome_distribution, _check_scalar_phase, _roots_of_unity, _LOG_ZERO)

# relative height below which a strict local maximum is discarded as
# quadrature ripple; genuine secondary modes in scope sit above 1e-4
PEAK_REL_THRESHOLD = 1e-9
RESULTANT_TOL = 1e-12


@dataclass(eq=False)
class PhasePosterior:
    """Normalized posterior density p(phi_k | m), one value per point of a
    phase grid (else ValueError); :func:`count_peaks` fills ``peaks`` with
    (location, height) pairs sorted by location.
    """

    grid: PhaseGrid
    density: np.ndarray
    peaks: list = field(default_factory=list)

    def __post_init__(self):
        if np.shape(self.density) != (self.grid.size,):
            raise ValueError(f"posterior density of shape {np.shape(self.density)} on {self.grid}")


@dataclass(eq=False)
class MeasurementRecord:
    """The outcomes drawn, one per shot, in the order drawn."""

    outcomes: list


@dataclass(eq=False)
class SimulationResult:
    record: MeasurementRecord
    final_posterior: PhasePosterior


def posterior_density(likelihood_row, grid: PhaseGrid) -> PhasePosterior:
    """Posterior from one likelihood row under the uniform prior.

    p(phi_k|m) = P(m|phi_k) / sum_j P(m|phi_j) * weight.  A row that is
    zero everywhere has no posterior (the outcome cannot occur at any
    phase) and raises :class:`ZeroProbabilityOutcomeError`; a negative or
    non-finite value, or not one per grid point, raises ValueError.
    """
    row = np.asarray(likelihood_row, dtype=np.float64)
    if np.any(row < 0) or not np.all(np.isfinite(row)):
        raise ValueError("likelihood values must be finite and non-negative")
    norm = grid.integrate(row)
    if norm <= 0.0:
        raise ZeroProbabilityOutcomeError(
            "outcome has zero probability at every phase; posterior undefined")
    return PhasePosterior(grid=grid, density=row / norm)


def posterior_for_outcome(table: LikelihoodTable, outcome: Outcome) -> PhasePosterior:
    """Posterior of one tabulated outcome."""
    return posterior_density(table.row_for(outcome), table.grid)


def _wrap_angle(x: float) -> float:
    # map x > -pi (count_peaks passes a grid point plus a non-negative
    # offset) to (-pi, pi]: fmod of x + pi > 0 is never negative
    y = math.fmod(x + math.pi, 2.0 * math.pi)
    y -= math.pi
    return math.pi if y == -math.pi else y


def count_peaks(posterior: PhasePosterior) -> int:
    """Count local maxima of the posterior on the periodic grid.

    The plateaus are the cyclic segments between the points where the
    density steps by more than ``PEAK_REL_THRESHOLD`` times its maximum, so
    round-off ripple on flat stretches registers no structure.  A plateau
    counts once, at its midpoint with its maximum as height, and is a peak
    when strictly above both neighbour plateaus and the same threshold.
    With fewer than two such steps the whole circle is one plateau and one
    peak, starting at the step, else at the first exact change (else 0).
    The peak list (location, height), sorted by location, is stored on
    the posterior.
    """
    density = posterior.density
    grid = posterior.grid
    top = float(density.max())
    tol = PEAK_REL_THRESHOLD * top
    step = np.abs(density - np.roll(density, 1))
    bounds = np.flatnonzero(step > tol)

    def midpoint(start, length):
        return _wrap_angle(grid.points[start] + 0.5 * (length - 1) * grid.weight)

    if bounds.size < 2:
        starts = bounds if bounds.size else np.flatnonzero(step)
        start = int(starts[0]) if starts.size else 0
        peaks = [(midpoint(start, grid.size), top)]
    else:
        # plateau maxima, from the density rolled to start at a boundary
        heights = np.maximum.reduceat(np.roll(density, -bounds[0]), bounds - bounds[0])
        lengths = np.diff(bounds, append=bounds[0] + grid.size)
        is_peak = ((heights > np.roll(heights, 1)) & (heights > np.roll(heights, -1))
                   & (heights > tol))
        peaks = sorted((midpoint(int(bounds[i]), int(lengths[i])), float(heights[i]))
                       for i in np.flatnonzero(is_peak))
    posterior.peaks = peaks
    return len(peaks)


def circular_summary(posterior: PhasePosterior):
    """Circular mean and circular standard deviation of the posterior.

    Uses the resultant z = weight sum_k p_k e^{i phi_k} = -weight sum_k p_k
    w^(k mod M), w = e^(2 pi i / M), from the grid's cached roots: mean =
    arg z in (-pi, pi], std = sqrt(-2 ln |z|).  A zero-length resultant
    (e.g. a uniform posterior) has no mean: :class:`UndefinedCircularMeanError`.
    """
    density, grid = posterior.density, posterior.grid
    roots = _roots_of_unity(grid.size).view(np.float64).reshape(-1, 2)
    real, imag = -grid.weight * (density[:-1] @ roots[1:] + (density[-1], 0.0))
    resultant = math.hypot(real, imag)
    if resultant < RESULTANT_TOL:
        raise UndefinedCircularMeanError(
            f"circular resultant length {resultant} is numerically zero; "
            "the circular mean is undefined")
    mean = math.atan2(imag, real)  # on (-pi, pi]: -pi, the same angle, is pi
    std = math.sqrt(-2.0 * math.log(min(resultant, 1.0))) + 0.0  # a point mass: not -0.0
    return (math.pi if mean == -math.pi else mean), std


def _posterior_from_log(log_likelihood: np.ndarray, grid: PhaseGrid) -> PhasePosterior:
    peak = log_likelihood.max()
    if not peak > _LOG_ZERO:  # every cell counts an outcome with P = 0
        raise ZeroProbabilityOutcomeError(
            "recorded outcomes have zero joint probability on the whole grid")
    density = np.exp(log_likelihood - peak)
    return posterior_density(density, grid)


def simulate_sequence(state: StateCoefficients,
                      geometry: InterferometerGeometry = DEFAULT_GEOMETRY,
                      true_phase: float = 0.0,
                      shots: int = 1,
                      seed: int = 0,
                      grid_size: int = DEFAULT_GRID_SIZE) -> SimulationResult:
    """Draw i.i.d. outcomes at a fixed phase and the posterior they give.

    Outcomes are sampled from P(m | true_phase) with a generator seeded by
    ``seed``, an integer >= 0, so a fixed seed reproduces the record
    bit-for-bit.  The posterior is exp(sum_m M_m ln P(m|phi)) over the
    outcome counts M_m of all shots (:meth:`LikelihoodTable.log_likelihood`,
    which makes it exactly 0 where a counted outcome has P = 0), normalized.

    Returns
    -------
    SimulationResult
        ``record`` holds the drawn outcomes, ``final_posterior`` the
        posterior given all of them.
    """
    shots = _integer(shots, "shots", minimum=1)
    seed = _integer(seed, "seed", minimum=0)
    grid = PhaseGrid(grid_size)
    true_phase = _check_scalar_phase(true_phase)

    pmf = outcome_distribution(state, true_phase, geometry)
    rng = np.random.default_rng(seed)
    draws = rng.choice(state.n + 1, size=shots, p=pmf / pmf.sum())

    table = likelihood_table(state, geometry, grid.size)
    labels = [Outcome(n_c, state.n - n_c) for n_c in range(state.n + 1)]
    counts = np.bincount(draws, minlength=state.n + 1)
    posterior = _posterior_from_log(table.log_likelihood(counts[None, :])[0], table.grid)
    record = MeasurementRecord(outcomes=[labels[n_c] for n_c in draws.tolist()])
    return SimulationResult(record=record, final_posterior=posterior)
