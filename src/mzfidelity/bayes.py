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
from .grid import DEFAULT_GRID_SIZE, PhaseGrid
from .optics import (DEFAULT_GEOMETRY, InterferometerGeometry, LikelihoodTable,
                     Outcome, StateCoefficients, likelihood_table,
                     outcome_distribution, _check_phase)

# relative height below which a strict local maximum is discarded as
# quadrature ripple; genuine secondary modes in scope sit above 1e-4
PEAK_REL_THRESHOLD = 1e-9
RESULTANT_TOL = 1e-12


@dataclass(eq=False)
class PhasePosterior:
    """Normalized posterior density p(phi_k | m) on a phase grid.

    ``peaks`` is filled in by :func:`count_peaks` as a list of
    (location, height) pairs sorted by location.
    """

    grid: PhaseGrid
    density: np.ndarray
    outcome: Outcome = None
    peaks: list = field(default_factory=list)


@dataclass(eq=False)
class MeasurementRecord:
    """Seeded sequence of outcomes drawn at a fixed true phase."""

    true_phase: float
    seed: int
    outcomes: list


@dataclass(eq=False)
class SimulationResult:
    record: MeasurementRecord
    posteriors: list

    @property
    def final_posterior(self) -> PhasePosterior:
        return self.posteriors[-1]


def posterior_density(likelihood_row, grid: PhaseGrid,
                      outcome: Outcome = None) -> PhasePosterior:
    """Posterior from one likelihood row under the uniform prior.

    p(phi_k|m) = P(m|phi_k) / sum_j P(m|phi_j) * weight.  A row that is
    zero everywhere has no posterior (the outcome cannot occur at any
    phase) and raises :class:`ZeroProbabilityOutcomeError`.
    """
    row = np.asarray(likelihood_row, dtype=np.float64)
    if row.shape != (grid.size,):
        raise ValueError(f"likelihood row has shape {row.shape}, expected "
                         f"({grid.size},)")
    if np.any(row < 0) or not np.all(np.isfinite(row)):
        raise ValueError("likelihood values must be finite and non-negative")
    norm = grid.integrate(row)
    if norm <= 0.0:
        raise ZeroProbabilityOutcomeError(
            "outcome has zero probability at every phase; posterior undefined")
    return PhasePosterior(grid=grid, density=row / norm, outcome=outcome)


def posterior_for_outcome(table: LikelihoodTable, outcome: Outcome) -> PhasePosterior:
    """Posterior of one tabulated outcome."""
    return posterior_density(table.row_for(outcome), table.grid, outcome=outcome)


def _wrap_angle(x: float) -> float:
    # map to (-pi, pi]
    y = math.fmod(x + math.pi, 2.0 * math.pi)
    if y < 0:
        y += 2.0 * math.pi
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

    Uses the resultant z = sum_k p_k e^{i phi_k} weight: mean = arg z,
    std = sqrt(-2 ln |z|).  A resultant of zero length (e.g. a uniform
    posterior) has no mean and raises
    :class:`UndefinedCircularMeanError`.
    """
    z = posterior.grid.integrate(posterior.density * np.exp(1j * posterior.grid.points))
    resultant = float(np.abs(z))
    if resultant < RESULTANT_TOL:
        raise UndefinedCircularMeanError(
            f"circular resultant length {resultant} is numerically zero; "
            "the circular mean is undefined")
    mean = float(np.angle(z))
    std = math.sqrt(-2.0 * math.log(min(resultant, 1.0)))
    return mean, std


def _posterior_from_log(log_likelihood: np.ndarray, grid: PhaseGrid,
                        outcome: Outcome) -> PhasePosterior:
    peak = log_likelihood.max()
    if not np.isfinite(peak):
        raise ZeroProbabilityOutcomeError(
            "recorded outcomes have zero joint probability on the whole grid")
    density = np.exp(log_likelihood - peak)
    return posterior_density(density, grid, outcome=outcome)


def simulate_sequence(state: StateCoefficients,
                      geometry: InterferometerGeometry = DEFAULT_GEOMETRY,
                      true_phase: float = 0.0,
                      shots: int = 1,
                      seed: int = 0,
                      grid_size: int = DEFAULT_GRID_SIZE,
                      keep_history: bool = False) -> SimulationResult:
    """Draw i.i.d. outcomes at a fixed phase and track the running posterior.

    Outcomes are sampled from P(m | true_phase) with a seeded generator,
    so a fixed seed reproduces the record bit-for-bit.  Each posterior is
    exp(sum_m M_m log P(m|phi)) over the outcome counts M_m of its shots
    (:meth:`LikelihoodTable.log_likelihood`), normalized.  By default only
    the final posterior is returned; ``keep_history=True`` keeps one per
    shot prefix.

    Returns
    -------
    SimulationResult
        ``record`` holds the drawn outcomes, ``posteriors`` the posterior
        sequence (length ``shots`` with history, else 1).
    """
    if int(shots) != shots or shots < 1:
        raise ValueError(f"shots must be a positive integer, got {shots!r}")
    shots = int(shots)
    true_phase = float(_check_phase(true_phase))

    pmf = outcome_distribution(state, true_phase, geometry)
    pmf = pmf / pmf.sum()
    rng = np.random.default_rng(seed)
    draws = rng.choice(state.n + 1, size=shots, p=pmf)

    table = likelihood_table(state, geometry, grid_size)
    outcomes = [table.outcomes[n_c] for n_c in draws.tolist()]
    # one row of counts per returned posterior: every prefix, or all shots
    counts = (np.cumsum(np.eye(state.n + 1)[draws], axis=0) if keep_history
              else np.bincount(draws, minlength=state.n + 1)[None, :])
    posteriors = [_posterior_from_log(log_likelihood, table.grid, outcome)
                  for log_likelihood, outcome
                  in zip(table.log_likelihood(counts), outcomes[-len(counts):])]
    record = MeasurementRecord(true_phase=true_phase, seed=int(seed),
                               outcomes=outcomes)
    return SimulationResult(record=record, posteriors=posteriors)
