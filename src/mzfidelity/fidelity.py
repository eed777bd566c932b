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

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .exceptions import ResourceLimitError, StationaryPointError
from .grid import DEFAULT_GRID_SIZE
from .optics import (DEFAULT_GEOMETRY, PROB_FLOOR, STATE_FAMILIES,
                     InterferometerGeometry, LikelihoodTable, StateCoefficients,
                     likelihood_table, _check_phase, _clamp_probs, _outcome_amplitudes,
                     _phase_factors)

TWO_PI = 2.0 * math.pi
LOG2_E = 1.0 / math.log(2.0)
COLUMN_SUM_TOL = 1e-8
SLOPE_TOL = 1e-12
# count vectors of a compound table, over all outcomes
MAX_COUNT_VECTORS = 1_000_000
# cells (count vectors x grid points) in one block of the streamed compound
# table: 1 MiB of float64, so a block and its temporaries stay in cache
_COMPOUND_BLOCK_CELLS = 1 << 17
# exp of a log below this is a normal float under PROB_FLOOR, which the
# clamp zeroes anyway; raising lower logs to it skips exp's slow underflow
_LOG_FLOOR = math.log(PROB_FLOOR) - 1.0


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


def _information_terms(probs: np.ndarray, weight: float,
                       log_probs: np.ndarray = None, out: np.ndarray = None):
    """Row terms of H and the log ratio L = log2(2pi P_mk / I_m) they use.

    H = (w/2pi) sum_mk P_mk L_mk is the ``math.fsum`` of the row terms (row
    sums, whose order no BLAS thread count changes), and dH/dP_mk =
    (w/2pi) L_mk because the terms from differentiating I_m cancel.  L is
    0 where P = 0.  ``log_probs`` (ln P where P > 0) gives L without a log2
    of P.  ``out`` (which may be ``log_probs``), if given, receives L.
    """
    totals = weight * probs.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):  # rows with I_m = 0
        if log_probs is None:
            log_ratio = np.multiply((TWO_PI / totals)[:, None], probs, out=out)
            np.log2(log_ratio, out=log_ratio)
        else:
            log_ratio = np.multiply(log_probs, LOG2_E, out=out)
            log_ratio += np.log2(TWO_PI / totals)[:, None]
    log_ratio[~(probs > 0.0)] = 0.0
    rows = (weight / TWO_PI) * np.einsum("mk,mk->m", probs, log_ratio)
    return rows, log_ratio


def _check_columns(column_sums: np.ndarray) -> None:
    column_defect = float(np.abs(column_sums - 1.0).max())
    # a NaN or infinite entry makes its column's defect NaN or infinite
    if not column_defect <= COLUMN_SUM_TOL:
        raise ValueError(f"likelihood columns must be finite and sum to 1 (max "
                         f"defect {column_defect:.3e}, tolerance {COLUMN_SUM_TOL})")


def mutual_information(table: LikelihoodTable) -> FidelityReport:
    """Mutual information, in bits, carried by one use of the device.

    The table columns must each sum to 1 (complete outcome set); a table
    violating that is rejected rather than silently renormalized.
    """
    _check_columns(table.probs.sum(axis=0))
    # tiny negative round-off on flat tables
    h = max(math.fsum(_information_terms(table.probs, table.grid.weight)[0]), 0.0)
    return FidelityReport(h_bits=h, state_label=table.state_label,
                          n_photons=table.n_total, grid_size=table.grid.size,
                          outcome_count=table.outcome_count)


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
            builder = STATE_FAMILIES[state_family]
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


def _count_vectors(total: int, bins: int) -> np.ndarray:
    """All length-``bins`` rows of non-negative ints summing to ``total``, in
    lexicographic order: the gaps between ``bins - 1`` bars placed, in
    lexicographic order, among ``total + bins - 1`` slots."""
    places = itertools.combinations(range(total + bins - 1), bins - 1)
    bars = np.fromiter(itertools.chain.from_iterable(places), dtype=np.int64)
    bars = bars.reshape(math.comb(total + bins - 1, bins - 1), bins - 1)
    return np.diff(bars, axis=1, prepend=-1, append=total + bins - 1) - 1


def repeated_mutual_information(table: LikelihoodTable, repeats: int) -> FidelityReport:
    """Mutual information of ``repeats`` independent uses of the device.

    The compound outcome is the unordered vector of per-outcome counts
    {M_m} with sum M_m = repeats (counts are a sufficient statistic for
    i.i.d. draws), distributed multinomially:

        P({M_m}|phi) = repeats!/(prod_m M_m!) prod_m P(m|phi)^{M_m}.

    Enumeration is exact.  A vector that counts an outcome with P = 0 at
    every phase has probability 0 everywhere and adds exactly 0 to H and
    to the column sums, so only vectors over the possible outcomes are
    enumerated.  The compound table is streamed in blocks of about 1 MiB:
    each takes L = log P from the counts
    (:meth:`LikelihoodTable.log_likelihood_blocks`) and the multinomial
    coefficient, then P = exp(L), one term of H per vector (its log ratio
    built from L) and the column sums for the completeness check.  Memory
    is one block plus the count vectors; more than ``MAX_COUNT_VECTORS``
    vectors over all outcomes raise :class:`ResourceLimitError` up front.
    """
    if int(repeats) != repeats or repeats < 1:
        raise ValueError(f"repeats must be a positive integer, got {repeats!r}")
    repeats = int(repeats)
    n_outcomes = table.outcome_count
    n_vectors = math.comb(repeats + n_outcomes - 1, n_outcomes - 1)
    if n_vectors > MAX_COUNT_VECTORS:
        raise ResourceLimitError(
            f"{n_vectors} compound count vectors exceed the cap of "
            f"{MAX_COUNT_VECTORS}")

    _check_columns(table.probs.sum(axis=0))  # also rejects all-zero tables
    possible = table.probs.any(axis=1)
    table = replace(
        table, probs=table.probs[possible],
        outcomes=[o for o, keep in zip(table.outcomes, possible) if keep])
    counts = _count_vectors(repeats, table.outcome_count)
    log_factorials = np.array([math.lgamma(k + 1) for k in range(repeats + 1)])
    log_coefficients = math.lgamma(repeats + 1) - log_factorials[counts].sum(axis=1)
    block = max(1, _COMPOUND_BLOCK_CELLS // table.grid.size)
    starts = range(0, len(counts), block)
    column_sums = np.zeros(table.grid.size)
    terms = np.empty(len(counts))
    log_blocks = table.log_likelihood_blocks(counts[start:start + block]
                                             for start in starts)
    for start, log_probs in zip(starts, log_blocks):
        log_probs += log_coefficients[start:start + block, None]
        np.maximum(log_probs, _LOG_FLOOR, out=log_probs)
        probs = _clamp_probs(np.exp(log_probs))
        column_sums += probs.sum(axis=0)
        terms[start:start + block] = _information_terms(
            probs, table.grid.weight, log_probs, out=log_probs)[0]
    _check_columns(column_sums)
    return FidelityReport(h_bits=max(math.fsum(terms), 0.0),
                          state_label=f"{table.state_label} x{repeats}",
                          n_photons=table.n_total * repeats,
                          grid_size=table.grid.size, outcome_count=n_vectors)


def _observable_values(name: str, n_total: int) -> np.ndarray:
    n_c = np.arange(n_total + 1, dtype=np.float64)
    values = {"n_c": n_c, "n_d": n_total - n_c, "n_c-n_d": 2.0 * n_c - n_total}
    try:
        return values[name.replace(" ", "").replace("−", "-")]
    except KeyError:
        raise ValueError(f"unknown observable {name!r}; expected 'n_c', 'n_d' "
                         "or 'n_c - n_d'") from None


def error_propagation_sensitivity(state: StateCoefficients,
                                  geometry: InterferometerGeometry = DEFAULT_GEOMETRY,
                                  observable: str = "n_c",
                                  working_point: float = 0.5 * math.pi
                                  ) -> SensitivityEstimate:
    """Classical single-peak sensitivity estimate at a working point.

    delta_phi = delta_m / |d mean(m) / d phi|, with the mean and variance
    of the observable and its exact slope (no difference step) from one
    engine call on the phase stages E and i n E, which give the amplitudes
    A_m and dA_m/dphi, with dP_m/dphi = 2 Re(conj(A_m) dA_m/dphi).  A
    vanishing slope (|slope| < 1e-12) means the estimate is undefined and
    raises :class:`StationaryPointError`.
    """
    working_point = float(_check_phase(working_point))
    values = _observable_values(observable, state.n)
    stage = _phase_factors(state.n, np.array([working_point]), geometry)
    stage = np.hstack([stage, 1j * np.arange(state.n + 1)[:, None] * stage])
    amps, slopes = _outcome_amplitudes(state.coeffs, stage).T
    pmf = _clamp_probs(np.abs(amps) ** 2)
    mean = float(values @ pmf)
    variance = float((values ** 2) @ pmf) - mean ** 2
    slope = float(values @ (2.0 * (amps.conj() * slopes).real))
    if abs(slope) < SLOPE_TOL:
        raise StationaryPointError(
            f"mean observable is stationary at phi={working_point!r}; "
            "error propagation does not apply")
    delta_m = math.sqrt(max(variance, 0.0))
    return SensitivityEstimate(delta_phi=delta_m / abs(slope), delta_m=delta_m,
                               slope=slope, working_point=working_point)
