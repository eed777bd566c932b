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
from dataclasses import dataclass

import numpy as np

from .exceptions import ResourceLimitError, StationaryPointError
from .grid import DEFAULT_GRID_SIZE, PhaseGrid, _integer
from .optics import (DEFAULT_GEOMETRY, PROB_FLOOR, STATE_FAMILIES, InterferometerGeometry,
                     LikelihoodTable, StateCoefficients, likelihood_table, _check_columns,
                     _check_scalar_phase, _clamp_probs, _half_grid_basis, _log_probs,
                     _mirrors_by_half_period, _outcome_amplitudes, _phase_factors, _LOG_ZERO)

TWO_PI = 2.0 * math.pi
LOG2_E = 1.0 / math.log(2.0)
SLOPE_TOL = 1e-12
# count vectors of a compound table, over all outcomes: a time cap, since
# they are enumerated a block at a time
MAX_COUNT_VECTORS = 1_000_000
# cells in a block of the streamed compound table, count vectors times the
# longer of outcomes and grid points: 1 MiB of float64, kept in cache
_COMPOUND_BLOCK_CELLS = 1 << 17
# exp of a log below this is a normal float under PROB_FLOOR, zeroed anyway;
# raising lower logs (_LOG_ZERO too) to it skips exp's slow underflow
_LOG_FLOOR = math.log(PROB_FLOOR) - 1.0
# harmonics above degree N of a table's rows, relative to the grid size,
# below which the rows count as band-limited: roundoff leaves under 1e-16
# on every likelihood_table (N <= 200), a random table built by hand ~1e-2
_BAND_TOL = 1e-14


@dataclass(eq=False)
class FidelityReport:
    """Mutual information result with its provenance."""

    h_bits: float
    n_photons: int
    grid_size: int
    outcome_count: int


@dataclass(eq=False)
class SensitivityEstimate:
    """Error-propagation phase sensitivity delta_phi = delta_m / |slope|."""

    delta_phi: float
    delta_m: float
    slope: float


def standard_limit(n: int) -> float:
    """Classical 1/sqrt(N) phase-sensitivity scaling."""
    return 1.0 / math.sqrt(n)


def heisenberg_limit(n: int) -> float:
    """Quantum 1/N phase-sensitivity scaling."""
    return 1.0 / n


def _information_terms(probs: np.ndarray, weight: float):
    """Row terms of H and the log ratio L = log2(2pi P_mk / I_m) they use.

    H = (w/2pi) sum_mk P_mk L_mk is the ``math.fsum`` of the row terms (row
    sums, whose order no BLAS thread count changes), and dH/dP_mk =
    (w/2pi) L_mk because the terms from differentiating I_m cancel.  L is
    0 where P = 0.
    """
    totals = weight * probs.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):  # rows with I_m = 0
        log_ratio = np.log2((TWO_PI / totals)[:, None] * probs)
    log_ratio[~(probs > 0.0)] = 0.0
    rows = (weight / TWO_PI) * np.einsum("mk,mk->m", probs, log_ratio)
    return rows, log_ratio


def _count_mirrors(outcomes: int, *arrays: np.ndarray) -> None:
    """Count, in place, rows m < N/2 twice in arrays of the rows m <= N/2 of a
    table of ``outcomes`` rows whose row N-m mirrors m; the middle row once."""
    for array in arrays:
        array[:outcomes - len(array)] *= 2.0


def mutual_information(table: LikelihoodTable) -> FidelityReport:
    """Mutual information, in bits, carried by one use of the device.

    The table checked its columns when it was built (:class:`LikelihoodTable`).
    Rows that mirror by half a period (every even-grid table) are summed over
    m <= N/2, each m < N/2 twice and the middle row of an even N once.
    """
    rows = (table.outcome_count + 1) // 2 if _mirrors_by_half_period(table.probs) else None
    terms = _information_terms(table.probs[:rows], table.grid.weight)[0]
    _count_mirrors(table.outcome_count, terms)
    h = max(math.fsum(terms), 0.0)  # tiny negative round-off on flat tables
    return FidelityReport(h_bits=h, n_photons=table.n_total,
                          grid_size=table.grid.size, outcome_count=table.outcome_count)


def fidelity_sweep(state_family: str, n_max: int,
                   grid_size: int = DEFAULT_GRID_SIZE,
                   geometry: InterferometerGeometry = DEFAULT_GEOMETRY):
    """Mutual information versus photon number.

    ``state_family`` is "fock" or "noon".  One report per N from 1 to
    ``n_max`` is returned, in N order (CSV-ready).
    """
    try:
        builder = STATE_FAMILIES[state_family]
    except (KeyError, TypeError):  # TypeError: an unhashable family, such as a list
        raise ValueError(f"unknown state family {state_family!r}; "
                         "expected 'fock' or 'noon'") from None
    n_max = _integer(n_max, "n_max", minimum=1)
    # built once for the sweep: the table of each N takes its first N+1 rows
    _half_grid_basis(n_max, PhaseGrid(grid_size).size)
    return [mutual_information(likelihood_table(builder(n), geometry, grid_size))
            for n in range(1, n_max + 1)]


def _count_vectors(total: int, bins: int, block: int):
    """Yield all length-``bins`` rows of non-negative ints summing to
    ``total``, in lexicographic order, ``block`` rows at a time as int32:
    the gaps between ``bins - 1`` bars placed, in lexicographic order,
    among ``total + bins - 1`` slots, and bars before and after them."""
    slots = total + bins - 1
    places = itertools.combinations(range(slots), bins - 1)
    vectors = math.comb(slots, bins - 1)
    for start in range(0, vectors, block):
        rows = min(block, vectors - start)
        bars = np.full((rows, bins + 1), slots, dtype=np.int32)
        bars[:, 0] = -1
        bars[:, 1:-1] = np.fromiter(itertools.chain.from_iterable(itertools.islice(places, rows)),
                                    dtype=np.int32, count=rows * (bins - 1)).reshape(rows, -1)
        yield bars[:, 1:] - bars[:, :-1] - 1


def _mirror_pairs(counts: np.ndarray):
    """Rows of ``counts`` that are no greater, lexicographically, than
    their reverse, and the multiplicity of each: 2 for a vector that
    stands for itself and its reverse, 1 for a palindrome."""
    # sign of v - reverse(v) at the first place they differ, 0 if nowhere
    order = np.zeros(len(counts), dtype=np.int64)
    bins = counts.shape[1]
    for j in range(bins // 2):
        np.copyto(order, np.sign(counts[:, j] - counts[:, bins - 1 - j]),
                  where=order == 0)
    keep = order <= 0
    return counts[keep], np.where(order[keep] < 0, 2.0, 1.0)


def _exact_subgrid(probs: np.ndarray, n_total: int, repeats: int) -> int:
    """Size M' of the subgrid (every (M/M')-th column) on which the
    trapezoid rule sums a compound likelihood, a product of ``repeats``
    rows of ``probs``, to what the full grid of M points gives.

    If the rows are trigonometric polynomials of degree N = ``n_total``,
    the product is one of degree N R, summed exactly on any M' > N R
    points.  M' is the smallest divisor of M above N R, even on an even
    grid (so a half period is M'/2 columns), if the rows are band-limited
    to degree N: every harmonic above N of every row under ``_BAND_TOL``
    times M.  Otherwise, or with no such divisor, it is M.
    """
    size = probs.shape[1]
    divisors = {d for i in range(1, math.isqrt(size) + 1) if size % i == 0
                for d in (i, size // i)}
    subgrid = min((d for d in divisors if d > n_total * repeats and d % 2 == size % 2),
                  default=size)
    if subgrid < size:  # so N < M/2, and harmonic N + 1 exists
        harmonics = np.fft.rfft(probs, axis=1)[:, n_total + 1:]
        if not np.abs(harmonics).max() <= _BAND_TOL * size:
            return size
    return subgrid


def _log_factorials(total: int) -> np.ndarray:
    """ln k! for k = 0..``total`` in ``np.longdouble``, as running sums of
    ln k: within 5e-15 nats of the exact value for k <= 1200, where a
    double's last place is 9e-13."""
    logs = np.log(np.arange(1, total + 1, dtype=np.longdouble))
    return np.concatenate([np.zeros(1, dtype=np.longdouble), np.cumsum(logs)])


def _stream_compound(probs: np.ndarray, repeats: int, mirrored: bool):
    """Yield the compound likelihoods P_v(phi_k) of ``repeats`` uses of the
    rows ``probs`` in blocks of about 1 MiB, count vectors v in
    lexicographic order, as (mu_v, L = ln P_v, P_v): L is ``counts @ ln P``
    (:func:`optics._log_probs`) plus the log multinomial coefficient,
    clipped to [``_LOG_FLOOR``, 0], and P_v = exp(L), zeroed under
    ``PROB_FLOOR``, is in a buffer the next block reuses.  If ``mirrored``,
    a block holds the vectors :func:`_mirror_pairs` keeps, else all (mu_v =
    1), and the enumeration stops where v_0 > R/2.
    """
    # rounded to double once, not term by term: ln R! alone, rounded, would
    # scale every P_v alike (2.5e-13 nats at R = 1200)
    log_factorials = _log_factorials(repeats)
    log_probs = _log_probs(probs)
    block = max(1, _COMPOUND_BLOCK_CELLS // max(probs.shape))
    buffer = np.empty((block, probs.shape[1]))
    for counts in _count_vectors(repeats, len(probs), block):
        if mirrored and len(probs) > 1 and 2 * counts[0, 0] > repeats:
            break  # from here on v_0 > R/2 > v_last: each v mirrors one kept earlier
        counts, multiplicity = _mirror_pairs(counts) if mirrored else (counts, np.ones(len(counts)))
        if not len(counts):  # the slice holds only mirrors of vectors kept earlier
            continue
        log_compound = counts @ log_probs
        log_compound += (log_factorials[-1]
                         - log_factorials[counts].sum(axis=1)).astype(float)[:, None]
        np.clip(log_compound, _LOG_FLOOR, 0.0, out=log_compound)
        compound = np.exp(log_compound, out=buffer[:len(counts)])
        np.copyto(compound, 0.0, where=compound < PROB_FLOOR)
        yield multiplicity, log_compound, compound


def _mean_compound_p_log_p(probs: np.ndarray, repeats: int, mirrored: bool) -> float:
    """Mean over the grid of sum_v P_v ln P_v, the compound likelihoods of
    ``repeats`` uses, from the binomial marginals of the multinomial.

    With p = P(.|phi_k) normalised by its column sum s and M_m ~
    Binomial(R, p_m), sum_v P~_v ln P~_v = ln R! + R sum_m p_m ln p_m -
    sum_m E[ln M_m!], and sum_v P_v ln P_v = s^R (that + R ln s), since
    P_v = s^R P~_v.  Each binomial pmf is exp of its log and is divided by
    its own sum.  ln R! and the sums over columns are in ``np.longdouble``
    (in double they move H by 1.7e-14 bits on fock 2 x 50, 2.4e-13 on
    fock 2 x 600).  If the rows mirror by half a period, columns k and
    k + M/2 give the same value and only the first half is evaluated.
    """
    columns = probs[:, :probs.shape[1] // 2] if mirrored else probs
    draws = np.arange(repeats + 1, dtype=np.float64)
    log_factorials = _log_factorials(repeats)
    weights = log_factorials.astype(np.float64)  # ln j! in E[ln M!]
    log_binomials = (log_factorials[-1] - log_factorials - log_factorials[::-1]).astype(np.float64)
    block = max(1, _COMPOUND_BLOCK_CELLS // (len(probs) * (repeats + 1)))
    total = np.longdouble(0.0)
    for start in range(0, columns.shape[1], block):
        column = columns[:, start:start + block]
        sums = column.sum(axis=0)
        p = column / sums
        # a finite ln 0 (p = 0 or p = 1), so that 0 ln 0 = 0 below
        log_p = _log_probs(p)
        with np.errstate(divide="ignore"):
            log_q = np.maximum(np.log1p(-p), _LOG_ZERO)
        # ln pmf_j = j (ln p - ln q) + R ln q + ln C(R, j), with j last
        pmf = np.multiply.outer(log_p - log_q, draws)
        pmf += repeats * log_q[..., None]
        pmf += log_binomials
        np.exp(pmf, out=pmf)
        expected = np.einsum("mkj,j->mk", pmf, weights) / pmf.sum(axis=2)
        p_log_p = np.einsum("mk,mk->k", p, log_p)
        terms = log_factorials[-1] + repeats * p_log_p - expected.sum(axis=0)
        total += np.sum(sums ** repeats * (terms + repeats * np.log(sums)))
    return float(total / columns.shape[1])


def repeated_mutual_information(table: LikelihoodTable, repeats: int) -> FidelityReport:
    """Mutual information of ``repeats`` independent uses of the device.

    The compound outcome is the unordered vector of per-outcome counts
    {M_m} with sum M_m = repeats (counts are a sufficient statistic for
    i.i.d. draws), distributed multinomially:

        P({M_m}|phi) = repeats!/(prod_m M_m!) prod_m P(m|phi)^{M_m}.

    Enumeration is exact.  A vector that counts an outcome with P = 0 at
    every phase has probability 0 everywhere and adds exactly 0 to H and
    to the column sums, so only vectors over the possible outcomes are
    enumerated.  H = H(V) - H(V|phi), split exactly:

    * H(V) = -sum_v mu_v Q_v log2 Q_v, Q_v = S_v / M', S_v = sum_k P_vk
      over M' of the M points (0 if S_v = 0).  With at most two possible
      outcomes M' = M.  With three or more it is a subgrid
      (:func:`_exact_subgrid`): P_v is a trigonometric polynomial of
      degree N R if the table's rows are band-limited to degree N, and
      then the trapezoid rule on any M' > N R points gives the same Q_v as
      the full grid, up to roundoff.
    * H(V|phi) = -(1/M) sum_k sum_v P_vk ln P_vk / ln 2 has two sources.
      With at most two possible outcomes it is summed from the same
      vectors, on the full grid.  With three or more it comes from the
      binomial marginals at each grid point, with no count vector at all
      (:func:`_mean_compound_p_log_p`).

    H is the ``math.fsum`` of the terms.  If the table's rows, reversed,
    equal its rows rolled by half a period entry for entry
    (:func:`optics._mirrors_by_half_period`, true of every even-grid
    :func:`likelihood_table`, where P(N-m|phi) = P(m|phi+pi)), the reverse
    of a vector v has likelihood L_v(phi_k+M/2): the same mass and term,
    and column sums half a period apart.  Then only the lexicographically
    smaller vector of each pair is evaluated, and every palindrome, with
    multiplicity mu_v = 2 (pair) or 1 (palindrome); the column sums are
    h + h rolled by M/2 (M'/2 on a subgrid, which is even), h = sum_v
    (mu_v/2) P_v.  Otherwise (an odd grid, a table built by hand that does
    not mirror) every vector has mu_v = 1.  Blocks of about 1 MiB of
    vectors are enumerated, evaluated (:func:`_stream_compound`) and
    reduced to their terms (of H(V|phi) too with at most two outcomes), so
    at most two doubles per evaluated vector outlive its block.
    More than ``MAX_COUNT_VECTORS`` vectors (over all outcomes) raise
    ResourceLimitError before anything is enumerated.  The table's column
    sums are checked when it is built, the compound table's here.
    """
    repeats = _integer(repeats, "repeats", minimum=1)
    n_vectors = math.comb(repeats + table.outcome_count - 1, repeats)
    if n_vectors > MAX_COUNT_VECTORS:
        raise ResourceLimitError(f"{n_vectors} compound count vectors exceed the "
                                 f"cap of {MAX_COUNT_VECTORS}")

    probs = table.probs[table.probs.any(axis=1)]
    binomial = len(probs) <= 2
    subgrid = table.grid.size if binomial else _exact_subgrid(probs, table.n_total, repeats)
    stride = table.grid.size // subgrid
    mirrored = _mirrors_by_half_period(probs)
    column_sums, terms = np.zeros(subgrid), []
    for multiplicity, log_compound, compound in _stream_compound(
            probs[:, stride - 1::stride], repeats, mirrored):
        column_sums += np.einsum("v,vk->k", multiplicity, compound)
        mass = compound.sum(axis=1)
        mass /= subgrid  # Q_v = S_v / M'
        with np.errstate(divide="ignore", invalid="ignore"):  # vectors with Q_v = 0
            terms.append(np.where(mass > 0.0, -multiplicity * mass * np.log2(mass), 0.0))
        if binomial:  # -H(V|phi) from the same vectors, M' = M
            terms.append((LOG2_E / subgrid) * multiplicity
                         * np.einsum("vk,vk->v", compound, log_compound))
    del log_compound, compound  # free the last block before H(V|phi) allocates
    if mirrored:  # h + h rolled by half a period, h = (1/2) sum_v mu_v P_v
        column_sums = 0.5 * (column_sums + np.roll(column_sums, subgrid // 2))
    _check_columns(column_sums)
    if not binomial:
        terms.append([LOG2_E * _mean_compound_p_log_p(probs, repeats, mirrored)])
    return FidelityReport(h_bits=max(math.fsum(np.concatenate(terms)), 0.0),
                          n_photons=table.n_total * repeats,
                          grid_size=table.grid.size, outcome_count=n_vectors)


def error_propagation_sensitivity(state: StateCoefficients,
                                  geometry: InterferometerGeometry = DEFAULT_GEOMETRY,
                                  working_point: float = 0.5 * math.pi
                                  ) -> SensitivityEstimate:
    """Classical single-peak sensitivity estimate at a working point.

    delta_phi = delta_m / |d mean(m) / d phi| for the count m = n_c (n_d =
    N - n_c and n_c - n_d are affine in it and give the same delta_phi),
    with its mean, its variance and the mean's exact slope (no difference
    step) from one engine call on the phase stages E and i n E, which give
    the amplitudes A_m and dA_m/dphi, with dP_m/dphi = 2 Re(conj(A_m)
    dA_m/dphi).  A vanishing slope (|slope| < 1e-12) means the estimate is
    undefined and raises :class:`StationaryPointError`.
    """
    working_point = _check_scalar_phase(working_point)
    values = np.arange(state.n + 1, dtype=np.float64)
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
    return SensitivityEstimate(delta_phi=delta_m / abs(slope), delta_m=delta_m, slope=slope)
