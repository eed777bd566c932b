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
from .grid import DEFAULT_GRID_SIZE, PhaseGrid
from .optics import (DEFAULT_GEOMETRY, PROB_FLOOR, STATE_FAMILIES,
                     InterferometerGeometry, LikelihoodTable, StateCoefficients,
                     likelihood_table, _check_phase, _clamp_probs,
                     _mirrors_by_half_period, _outcome_amplitudes, _phase_factors)

TWO_PI = 2.0 * math.pi
LOG2_E = 1.0 / math.log(2.0)
COLUMN_SUM_TOL = 1e-8
SLOPE_TOL = 1e-12
# count vectors of a compound table, over all outcomes
MAX_COUNT_VECTORS = 1_000_000
# count vectors times outcomes: enumerating them peaks at about 24 B a cell
# (``_count_vectors`` holds three integer arrays of that shape), so 2^23
# cells is about 200 MiB
MAX_COUNT_CELLS = 1 << 23
# cells (count vectors x grid points) in one block of the streamed compound
# table: 1 MiB of float64, so a block and its temporaries stay in cache
_COMPOUND_BLOCK_CELLS = 1 << 17
# exp of a log below this is a normal float under PROB_FLOOR, zeroed anyway;
# raising lower logs (-inf too) to it skips exp's slow underflow and 0 * -inf
_LOG_FLOOR = math.log(PROB_FLOOR) - 1.0
# harmonics above degree N of a table's rows, relative to the grid size,
# below which the rows count as band-limited: roundoff leaves under 1e-16
# on every likelihood_table (N <= 200), a random table built by hand ~1e-2
_BAND_TOL = 1e-14
# stands for ln 0 in a binomial ln pmf_j = j ln p + (R - j) ln q + ln C(R, j):
# finite, so 0 times it is 0, and any count from 1 to 1e8 times it is far
# below -745, so exp gives the exact pmf of p = 0 or p = 1
_LOG_ZERO = -1e300


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
    """Row terms of H and the log ratio L = log2(2pi P_mk / I_m) they use.

    H = (w/2pi) sum_mk P_mk L_mk is the ``math.fsum`` of the row terms (row
    sums, whose order no BLAS thread count changes), and dH/dP_mk =
    (w/2pi) L_mk because the terms from differentiating I_m cancel.  L is
    0 where P = 0.  ``out``, if given, receives L.
    """
    totals = weight * probs.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):  # rows with I_m = 0
        log_ratio = np.multiply((TWO_PI / totals)[:, None], probs, out=out)
        np.log2(log_ratio, out=log_ratio)
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


def _exact_subgrid(table: LikelihoodTable, degree: int) -> int:
    """Size M' of the subgrid (every (M/M')-th column) on which the
    trapezoid rule sums a compound likelihood, a product of R table rows,
    to what the full grid of M points gives.

    If the rows are trigonometric polynomials of degree N, the product is
    one of degree ``degree`` = N R, summed exactly on any M' > N R points.
    M' is the smallest divisor of M above ``degree``, even on an even grid
    (so a half period is M'/2 columns), if the table's rows are
    band-limited to degree N: every harmonic above N of every row under
    ``_BAND_TOL`` times M.  Otherwise, or with no such divisor, it is M.
    """
    size = table.grid.size
    divisors = {d for i in range(1, math.isqrt(size) + 1) if size % i == 0
                for d in (i, size // i)}
    subgrid = min((d for d in divisors if d > degree and d % 2 == size % 2),
                  default=size)
    if subgrid < size:  # so N < M/2, and harmonic N + 1 exists
        harmonics = np.fft.rfft(table.probs, axis=1)[:, table.n_total + 1:]
        if not np.abs(harmonics).max() <= _BAND_TOL * size:
            return size
    return subgrid


def _log_factorials(total: int) -> np.ndarray:
    """ln k! for k = 0..``total`` in ``np.longdouble``, as running sums of
    ln k: within 5e-15 nats of the exact value for k <= 1200, where a
    double's last place is 9e-13."""
    logs = np.log(np.arange(1, total + 1, dtype=np.longdouble))
    return np.concatenate([np.zeros(1, dtype=np.longdouble), np.cumsum(logs)])


def _stream_compound(table: LikelihoodTable, repeats: int, counts: np.ndarray,
                     column_weights: np.ndarray):
    """Stream the compound table P_v(phi_k) of the rows of ``counts`` in
    blocks of about 1 MiB and reduce it: the masses S_v = sum_k P_vk, the
    sums sum_k P_vk ln P_vk, and the column sums sum_v weight_v P_vk."""
    # rounded to double once, not term by term: ln R! alone, rounded, would
    # scale every P_v alike (2.5e-13 nats at R = 1200)
    log_factorials = _log_factorials(repeats)
    log_coefficients = (log_factorials[-1] - log_factorials[counts].sum(axis=1)).astype(float)
    block = max(1, _COMPOUND_BLOCK_CELLS // table.grid.size)
    starts = range(0, len(counts), block)
    column_sums = np.zeros(table.grid.size)
    mass, p_log_p = np.empty(len(counts)), np.empty(len(counts))
    buffer = np.empty((min(block, len(counts)), table.grid.size))
    log_blocks = table.log_likelihood_blocks(counts[start:start + block]
                                             for start in starts)
    for start, log_probs in zip(starts, log_blocks):
        log_probs += log_coefficients[start:start + block, None]
        np.clip(log_probs, _LOG_FLOOR, 0.0, out=log_probs)
        probs = np.exp(log_probs, out=buffer[:len(log_probs)])
        np.copyto(probs, 0.0, where=probs < PROB_FLOOR)
        column_sums += np.einsum("v,vk->k", column_weights[start:start + block], probs)
        mass[start:start + block] = probs.sum(axis=1)
        p_log_p[start:start + block] = np.einsum("vk,vk->v", probs, log_probs)
    return mass, p_log_p, column_sums


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
        with np.errstate(divide="ignore"):  # p = 0 or p = 1
            # a finite floor for log 0, so that 0 log 0 = 0 below
            log_p = np.maximum(np.log(p), _LOG_ZERO)
            log_q = np.maximum(np.log1p(-p), _LOG_ZERO)
        # ln pmf_j = j (ln p - ln q) + R ln q + ln C(R, j), with j last
        pmf = np.multiply.outer(log_p - log_q, draws)
        pmf += repeats * log_q[..., None]
        pmf += log_binomials
        np.exp(pmf, out=pmf)
        expected = np.einsum("mkj,j->mk", pmf, weights) / pmf.sum(axis=2)
        p_log_p = np.einsum("mk,mk->k", p, np.where(p > 0.0, log_p, 0.0))
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
    enumerated.  With at most two possible outcomes the compound
    distribution is itself binomial, and vector v adds the term
    (mu_v w/2pi) [log2(e) sum_k P_vk L_vk + S_v log2(2pi / (w S_v))],
    S_v = sum_k P_vk (0 if S_v = 0), summed on the full grid.  With three
    or more, H = H(V) - H(V|phi), split exactly:

    * H(V) = -sum_v mu_v Q_v log2 Q_v, Q_v = S_v / M', on a subgrid of M'
      of the M points (:func:`_exact_subgrid`).  P_v is a trigonometric
      polynomial of degree N R if the table's rows are band-limited to
      degree N, and then the trapezoid rule on any M' > N R points gives
      the same Q_v as the full grid, up to roundoff.
    * H(V|phi) = -(1/M) sum_k sum_v P_v ln P_v / ln 2, from the binomial
      marginals at each grid point, with no count vector at all
      (:func:`_mean_compound_p_log_p`).

    H is the ``math.fsum`` of the terms.  The count vectors: if the
    table's rows, reversed, equal its rows rolled by half a period entry
    for entry (:func:`optics._mirrors_by_half_period`, true of every
    even-grid :func:`likelihood_table`, where P(N-m|phi) = P(m|phi+pi)),
    the reverse of a vector v has likelihood L_v(phi_k+M/2): the same
    mass and term, and column sums half a period apart.  Then only the
    lexicographically smaller vector of each pair is evaluated, and every
    palindrome; it counts with multiplicity mu_v = 2 (pair) or 1
    (palindrome), and the column sums are h + h rolled by M/2 (M'/2 on a
    subgrid, which is even), with h = sum_v (mu_v/2) P_v.  Otherwise (an
    odd grid, a table built by hand that does not mirror) every vector has
    mu_v = 1.  The compound table is streamed in blocks of about 1 MiB:
    L = ln P from the counts (:meth:`LikelihoodTable.log_likelihood_blocks`)
    and the multinomial coefficient (from ln k! summed in long double,
    rounded to double once), clipped to at most 0, and P = exp(L), zeroed
    under ``PROB_FLOOR``.  Memory is one block plus the count
    vectors; more than ``MAX_COUNT_VECTORS`` vectors, or more than
    ``MAX_COUNT_CELLS`` vectors times outcomes (over all outcomes), raise
    ResourceLimitError before anything is enumerated.
    """
    if int(repeats) != repeats or repeats < 1:
        raise ValueError(f"repeats must be a positive integer, got {repeats!r}")
    repeats = int(repeats)
    n_outcomes = table.outcome_count
    n_vectors = math.comb(repeats + n_outcomes - 1, n_outcomes - 1)
    if n_vectors > MAX_COUNT_VECTORS:
        raise ResourceLimitError(f"{n_vectors} compound count vectors exceed the "
                                 f"cap of {MAX_COUNT_VECTORS}")
    if n_vectors * n_outcomes > MAX_COUNT_CELLS:
        raise ResourceLimitError(f"{n_vectors} compound count vectors of {n_outcomes} "
                                 f"outcomes exceed the cap of {MAX_COUNT_CELLS} cells")

    _check_columns(table.probs.sum(axis=0))  # also rejects all-zero tables
    possible = table.probs.any(axis=1)
    table = replace(
        table, probs=table.probs[possible],
        outcomes=[o for o, keep in zip(table.outcomes, possible) if keep])
    binomial = table.outcome_count <= 2
    subgrid = table.grid.size if binomial else _exact_subgrid(table, table.n_total * repeats)
    stride = table.grid.size // subgrid
    compound = replace(table, grid=PhaseGrid(subgrid),
                       probs=np.ascontiguousarray(table.probs[:, stride - 1::stride]))
    counts = _count_vectors(repeats, table.outcome_count)
    mirrored = _mirrors_by_half_period(table.probs)
    if mirrored:
        counts, multiplicity = _mirror_pairs(counts)
        column_weights = 0.5 * multiplicity
    else:
        multiplicity = column_weights = np.ones(len(counts))
    mass, p_log_p, column_sums = _stream_compound(compound, repeats, counts, column_weights)
    if mirrored:
        column_sums += np.roll(column_sums, subgrid // 2)
    _check_columns(column_sums)
    if binomial:
        with np.errstate(divide="ignore", invalid="ignore"):  # vectors with S_v = 0
            terms = np.where(mass > 0.0, LOG2_E * p_log_p
                             + mass * np.log2(TWO_PI / (table.grid.weight * mass)), 0.0)
        terms *= multiplicity
        terms *= table.grid.weight / TWO_PI
    else:
        mass /= subgrid
        with np.errstate(divide="ignore", invalid="ignore"):  # vectors with Q_v = 0
            terms = np.where(mass > 0.0, -multiplicity * mass * np.log2(mass), 0.0)
        terms = np.append(terms, LOG2_E * _mean_compound_p_log_p(table.probs, repeats,
                                                                 mirrored))
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
