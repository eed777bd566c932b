"""Information-theoretic sensitivity of the interferometer.

The figure of merit is the Shannon mutual information, in bits, between
a uniformly distributed phase and the measurement outcome:

    H = (1/2pi) sum_m integral P(m|phi) log2[ 2pi P(m|phi) / I_m ] dphi,
    I_m = integral P(m|phi') dphi',

evaluated with the periodic trapezoid rule (spectrally accurate for the
smooth periodic likelihoods here).  Terms with P = 0 contribute 0.  The
classical error-propagation sensitivity delta_phi = delta_m / |dm/dphi|
is provided for comparison against the 1/sqrt(N) and 1/N reference
scalings.
"""

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import ResourceLimitError, StationaryPointError
from .grid import DEFAULT_GRID_SIZE
from .optics import (DEFAULT_GEOMETRY, InterferometerGeometry, LikelihoodTable,
                     StateCoefficients, fock_state, likelihood_table, noon_state,
                     outcome_distribution, _check_phase, _clamp_probs)

TWO_PI = 2.0 * math.pi
COLUMN_SUM_TOL = 1e-8
SLOPE_TOL = 1e-12
FD_STEP = 1e-5
DEFAULT_COUNT_VECTOR_CAP = 1_000_000


@dataclass(eq=False)
class FidelityReport:
    """Mutual information result with its provenance."""

    h_bits: float
    state_label: str
    n_photons: int
    grid_size: int
    outcome_count: int


@dataclass(eq=False)
class SensitivityEstimate:
    """Error-propagation phase sensitivity delta_phi = delta_m / |slope|."""

    delta_phi: float
    delta_m: float
    slope: float
    working_point: float


def standard_limit(n: int) -> float:
    """Classical 1/sqrt(N) phase-sensitivity scaling."""
    return 1.0 / math.sqrt(n)


def heisenberg_limit(n: int) -> float:
    """Quantum 1/N phase-sensitivity scaling."""
    return 1.0 / n


def _information_terms(probs: np.ndarray, weight: float, out: np.ndarray = None):
    """Unclamped H and the log ratio L = log2(2pi P_mk / I_m) it is built from.

    H = (w/2pi) sum_mk P_mk L_mk, and dH/dP_mk = (w/2pi) L_mk because the
    terms from differentiating I_m cancel.  L is 0 where P = 0.  ``out``,
    if given, receives L (the optimizer reuses one buffer across calls).
    """
    totals = weight * probs.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_ratio = np.multiply((TWO_PI / totals)[:, None], probs, out=out)
        np.log2(log_ratio, out=log_ratio)
    log_ratio[~(probs > 0.0)] = 0.0
    h = (weight / TWO_PI) * float(np.vdot(probs, log_ratio))
    return h, log_ratio


def _mutual_information_bits(probs: np.ndarray, weight: float) -> float:
    # tiny negative round-off on flat tables
    return max(_information_terms(probs, weight)[0], 0.0)


def mutual_information(table: LikelihoodTable) -> FidelityReport:
    """Mutual information, in bits, carried by one use of the device.

    The table columns must each sum to 1 (complete outcome set); a table
    violating that is rejected rather than silently renormalized.
    """
    column_defect = float(np.abs(table.probs.sum(axis=0) - 1.0).max())
    if column_defect > COLUMN_SUM_TOL:
        raise ValueError(f"likelihood columns must sum to 1 (max defect "
                         f"{column_defect:.3e} exceeds {COLUMN_SUM_TOL})")
    h = _mutual_information_bits(table.probs, table.grid.weight)
    return FidelityReport(h_bits=h, state_label=table.state_label,
                          n_photons=table.n_total, grid_size=table.grid.size,
                          outcome_count=table.outcome_count)


_FAMILY_BUILDERS = {"fock": fock_state, "noon": noon_state}


def fidelity_sweep(state_family, n_max: int = None,
                   grid_size: int = DEFAULT_GRID_SIZE,
                   geometry: InterferometerGeometry = DEFAULT_GEOMETRY):
    """Mutual information versus photon number.

    ``state_family`` is "fock", "noon", or an explicit list of
    :class:`StateCoefficients`.  For a named family one report per N from
    1 to ``n_max`` is returned, in N order (CSV-ready).
    """
    if isinstance(state_family, str):
        try:
            builder = _FAMILY_BUILDERS[state_family]
        except KeyError:
            raise ValueError(f"unknown state family {state_family!r}; "
                             "expected 'fock' or 'noon'") from None
        if n_max is None or int(n_max) != n_max or n_max < 1:
            raise ValueError(f"n_max must be a positive integer, got {n_max!r}")
        states = [builder(n) for n in range(1, int(n_max) + 1)]
    else:
        states = list(state_family)
        if not states:
            raise ValueError("state list is empty")
    return [mutual_information(likelihood_table(state, geometry, grid_size))
            for state in states]


def _count_vectors(total: int, bins: int):
    """All length-``bins`` tuples of non-negative ints summing to ``total``,
    in lexicographic order."""
    if bins == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _count_vectors(total - first, bins - 1):
            yield (first,) + rest


def repeated_mutual_information(table: LikelihoodTable, repeats: int,
                                max_count_vectors: int = DEFAULT_COUNT_VECTOR_CAP
                                ) -> FidelityReport:
    """Mutual information of ``repeats`` independent uses of the device.

    The compound outcome is the unordered vector of per-outcome counts
    {M_m} with sum M_m = repeats (counts are a sufficient statistic for
    i.i.d. draws), distributed multinomially:

        P({M_m}|phi) = repeats!/(prod_m M_m!) prod_m P(m|phi)^{M_m}.

    Enumeration is exact; the number of count vectors is capped by
    ``max_count_vectors`` (a :class:`ResourceLimitError` beyond that).
    """
    if int(repeats) != repeats or repeats < 1:
        raise ValueError(f"repeats must be a positive integer, got {repeats!r}")
    repeats = int(repeats)
    n_outcomes = table.outcome_count
    n_vectors = math.comb(repeats + n_outcomes - 1, n_outcomes - 1)
    if n_vectors > max_count_vectors:
        raise ResourceLimitError(
            f"{n_vectors} compound count vectors exceed the cap of "
            f"{max_count_vectors}")

    with np.errstate(divide="ignore"):
        log_rows = np.log(table.probs)
    log_repeats = math.lgamma(repeats + 1)

    compound = np.empty((n_vectors, table.grid.size))
    labels = []
    for i, counts in enumerate(_count_vectors(repeats, n_outcomes)):
        log_p = np.full(table.grid.size, log_repeats)
        for m, count in enumerate(counts):
            if count:
                log_p -= math.lgamma(count + 1)
                log_p = log_p + count * log_rows[m]
        compound[i] = np.exp(log_p)
        labels.append(counts)
    compound = _clamp_probs(compound)

    compound_table = LikelihoodTable(
        grid=table.grid, probs=compound, outcomes=labels,
        state_label=f"{table.state_label} x{repeats}",
        n_total=table.n_total * repeats)
    return mutual_information(compound_table)


_OBSERVABLES = {"n_c": 1, "n_d": 2, "n_c-n_d": 3}


def _observable_values(name: str, n_total: int) -> np.ndarray:
    key = name.replace(" ", "").replace("−", "-")
    if key not in _OBSERVABLES:
        raise ValueError(f"unknown observable {name!r}; expected 'n_c', 'n_d' "
                         "or 'n_c - n_d'")
    n_c = np.arange(n_total + 1, dtype=np.float64)
    if key == "n_c":
        return n_c
    if key == "n_d":
        return n_total - n_c
    return 2.0 * n_c - n_total


def error_propagation_sensitivity(state: StateCoefficients,
                                  geometry: InterferometerGeometry = DEFAULT_GEOMETRY,
                                  observable: str = "n_c",
                                  working_point: float = 0.5 * math.pi,
                                  fd_step: float = FD_STEP) -> SensitivityEstimate:
    """Classical single-peak sensitivity estimate at a working point.

    delta_phi = delta_m / |d mean(m) / d phi|, with the mean and variance
    of the observable computed exactly from the outcome probabilities and
    the slope by a central finite difference of step ``fd_step``.  A
    vanishing slope (|slope| < 1e-12) means the estimate is undefined and
    raises :class:`StationaryPointError`.
    """
    working_point = float(_check_phase(working_point))
    values = _observable_values(observable, state.n)

    def mean_at(phi):
        return float(values @ outcome_distribution(state, phi, geometry))

    pmf = outcome_distribution(state, working_point, geometry)
    mean = float(values @ pmf)
    variance = float((values ** 2) @ pmf) - mean ** 2
    slope = (mean_at(working_point + fd_step)
             - mean_at(working_point - fd_step)) / (2.0 * fd_step)
    if abs(slope) < SLOPE_TOL:
        raise StationaryPointError(
            f"mean observable is stationary at phi={working_point!r}; "
            "error propagation does not apply")
    delta_m = math.sqrt(max(variance, 0.0))
    return SensitivityEstimate(delta_phi=delta_m / abs(slope), delta_m=delta_m,
                               slope=slope, working_point=working_point)
