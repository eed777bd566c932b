"""Two-port interferometer optics: states, outcomes and outcome probabilities.

The device maps the two input ports (a, b) onto the two output ports
(c, d) through a phase-dependent 2x2 unitary.  Input states are
coefficient vectors over the photon-number basis |n_a, (N-n)_b> with
fixed total photon number N; measurement outcomes are the photon counts
(n_c, n_d) at the outputs.

The amplitude engine uses the factorization of the device unitary into
two fixed balanced beam splitters around a diagonal phase stage (the
SU(2) picture of Yurke, McCall & Klauder, PRA 33, 4033 (1986) and
Campos, Saleh & Teich, PRA 40, 1371 (1989)):

    S(phi) = L diag(e^{i(phi+kl1)}, e^{i kl2}) R,
    L = [[1, 1], [-i, i]]/sqrt(2),  R = [[1, -i], [-1, -i]]/sqrt(2).

Photon-number representations multiply like the 2x2 matrices, so the
outcome amplitudes of a coefficient vector c on a phase grid are
W_L (E * (W_R c)), with E the diagonal stage's phase factors (i n E gives
the exact dA/dphi).  Both splitter matrices are one real symmetric
involution K between exact phases, W_L = diag(i^(N-m)) K diag((-1)^n) and
W_R = K diag(i^(3n-N)), so K is built once per photon number
(:func:`_beam_splitter`) and the row phases i^(N-m), which no probability
sees, are never applied.

On the uniform grid phi_k = -pi + 2 pi k / M a table needs no stage E.  Row
m of A is sum_n a_mn e^(i n phi), with a = K diag(s K p c) times the
geometry's phases, so with X and Y the products of [Re a; Im a] with
cos n phi_k and sin n phi_k, A_m(+-phi_k) = X +- iY: one real product with
a cached basis over half the grid (:func:`_half_grid_basis`, from M roots
of unity and independent of the geometry) gives every column.

Swapping the output ports is a phase shift of pi: K[N-m] = s K[m] and
s_n E[n](phi) = E[n](phi + pi), so P(N-m | phi) = P(m | phi + pi) for every
input state and geometry.  On a grid of even size M, phi_k + pi is the grid
point k + M/2, so only the rows m <= N/2 are computed
(:func:`_distinct_rows`) and row N-m is row m rolled by half a period.  When
a table's rows mirror that way (:func:`_mirrors_by_half_period`), its
information sums the rows m <= N/2 only, and in the compound information a
count vector and its reverse have the same likelihood half a period apart,
so only one of each such pair is evaluated.
"""

import math
import threading
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .grid import DEFAULT_GRID_SIZE, PhaseGrid, _integer

# probabilities below this are treated as exact zeros (keeps logs clean
# of subnormal noise downstream)
PROB_FLOOR = 1e-300
NORM_TOL = 1e-12
COLUMN_SUM_TOL = 1e-8
# stands for ln 0: finite, so 0 times it is 0 (0 ln 0 = 0), and any count
# from 1 to 1e8 times it is far below -745, so exp gives an exact 0
_LOG_ZERO = -1e300


@dataclass(frozen=True)
class InterferometerGeometry:
    """Dimensionless optical path phases k*L of the two interferometer arms."""

    kl1: float = 0.0
    kl2: float = 0.0

    def __post_init__(self):
        for name in ("kl1", "kl2"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"geometry phase {name} must be finite, got {value}")
            object.__setattr__(self, name, value)


DEFAULT_GEOMETRY = InterferometerGeometry()


@dataclass(frozen=True)
class Outcome:
    """Photon counts (n_c, n_d) registered at the two output ports."""

    n_c: int
    n_d: int

    def __post_init__(self):
        for name in ("n_c", "n_d"):
            object.__setattr__(self, name, _integer(getattr(self, name), name, minimum=0))

    @property
    def total(self) -> int:
        return self.n_c + self.n_d


@dataclass(eq=False)
class StateCoefficients:
    """Unit-norm complex amplitudes c_0..c_N over the basis |n_a, (N-n)_b>."""

    coeffs: np.ndarray

    def __post_init__(self):
        coeffs = np.atleast_1d(np.asarray(self.coeffs, dtype=np.complex128))
        if coeffs.ndim != 1 or coeffs.size < 1:
            raise ValueError("coefficients must be a non-empty 1-D array")
        norm_sq = float(np.sum(np.abs(coeffs) ** 2))
        if not math.isfinite(norm_sq) or abs(norm_sq - 1.0) > NORM_TOL:
            raise ValueError(f"coefficients must have unit norm within {NORM_TOL}; "
                             f"got sum |c_n|^2 = {norm_sq!r}")
        self.coeffs = coeffs

    @property
    def n(self) -> int:
        """Total photon number N."""
        return self.coeffs.size - 1


def fock_state(n: int) -> StateCoefficients:
    """All N photons in port a: c_N = 1."""
    n = _integer(n, "photon number", minimum=0)
    coeffs = np.zeros(n + 1, dtype=np.complex128)
    coeffs[n] = 1.0
    return StateCoefficients(coeffs)


def noon_state(n: int) -> StateCoefficients:
    """Equal superposition of all photons in a and all in b: c_0 = c_N = 1/sqrt(2).

    Under photon counting this input is blind to some phase shifts: at
    N = 2 every outcome probability is independent of phi, and for every
    even N every outcome probability has period pi in phi (see
    :func:`noon_outcome_prob`).
    """
    n = _integer(n, "photon number", minimum=1)
    coeffs = np.zeros(n + 1, dtype=np.complex128)
    coeffs[0] = coeffs[n] = 1.0 / math.sqrt(2.0)
    return StateCoefficients(coeffs)


STATE_FAMILIES = {"fock": fock_state, "noon": noon_state}


def _check_phase(phi) -> np.ndarray:
    phi = np.asarray(phi, dtype=np.float64)
    if not np.all(np.isfinite(phi)):
        raise ValueError("phase values must be finite")
    return phi


def _check_scalar_phase(phi) -> float:
    """One phase as a float, checked as :func:`_check_phase` checks arrays."""
    if not math.isfinite(phi := float(phi)):
        raise ValueError("phase values must be finite")
    return phi


def _log_probs(probs: np.ndarray) -> np.ndarray:
    """ln P, with ``_LOG_ZERO`` for ln 0."""
    with np.errstate(divide="ignore"):
        return np.maximum(np.log(probs), _LOG_ZERO)


def _clamp_probs(p: np.ndarray) -> np.ndarray:
    p[p < PROB_FLOOR] = 0.0
    # nothing is negative any more: one-sided is the same clip, and faster
    np.minimum(p, 1.0, out=p)
    return p


def _closed_form(n_total, minimum: int, outcome: Outcome, phi, formula):
    """P(outcome | phi) = ``formula(C(N, n_c), sin(phi/2), cos(phi/2))`` for an
    outcome of N >= ``minimum`` photons, else 0; clamped, a float for scalar phi."""
    n_total = _integer(n_total, "photon number", minimum=minimum)
    phi = _check_phase(phi)
    if outcome.total != n_total:
        return np.zeros_like(phi) if phi.ndim else 0.0
    p = formula(float(math.comb(n_total, outcome.n_c)), np.sin(0.5 * phi), np.cos(0.5 * phi))
    p = _clamp_probs(np.atleast_1d(np.asarray(p, dtype=np.float64)))
    return p if phi.ndim else float(p[0])


def fock_outcome_prob(n_total: int, outcome: Outcome, phi):
    """Outcome probability for the all-photons-in-port-a input, closed form.

    P(n_c, n_d | phi) = [N!/(n_c! n_d!)] sin^{2 n_c}(phi/2) cos^{2 n_d}(phi/2)
    when n_c + n_d = N, else 0.  Accepts scalar or array phi.
    """
    n_c, n_d = outcome.n_c, outcome.n_d
    return _closed_form(n_total, 0, outcome, phi,
                        lambda binomial, s, c: binomial * s ** (2 * n_c) * c ** (2 * n_d))


def noon_outcome_prob(n_total: int, outcome: Outcome, phi):
    """Outcome probability for the two-sided superposition input, closed form.

    P(n_c, n_d | phi) = (1/2) [N!/(n_c! n_d!)] *
        [sin^{n_c}(phi/2) cos^{n_d}(phi/2)
         + (-1)^{n_c} sin^{n_d}(phi/2) cos^{n_c}(phi/2)]^2
    when n_c + n_d = N, else 0.  Accepts scalar or array phi.

    At N = 2 every outcome is phase-independent: the coincidence bracket
    sin*cos - sin*cos vanishes identically and each bunched outcome has
    probability 1/2.  For even N, phi -> phi + pi maps (sin, cos)(phi/2)
    to (cos, -sin)(phi/2), which leaves the bracket unchanged, so every
    outcome probability has period pi.
    """
    n_c, n_d = outcome.n_c, outcome.n_d
    return _closed_form(n_total, 1, outcome, phi, lambda binomial, s, c: 0.5 * binomial
                        * (s ** n_c * c ** n_d + (-1) ** n_c * s ** n_d * c ** n_c) ** 2)


# ---------------------------------------------------------------------------
# factorized amplitude engine
# ---------------------------------------------------------------------------

def _sqrt_ratio(num: int, den: int) -> float:
    """sqrt(num / den) of non-negative integers, correctly rounded to a float."""
    # scale so the integer root carries >= 64 bits, past the 53 a double
    # keeps; a sticky bit for what the floor divisions dropped makes the one
    # int -> float conversion round as the exact root would
    shift = max(0, 128 - num.bit_length() + den.bit_length())
    shift += shift % 2
    quotient, remainder = divmod(num << shift, den)
    root = math.isqrt(quotient)
    sticky = root * root != quotient or remainder != 0
    return math.ldexp(2 * root + sticky, -(shift // 2) - 1)


@lru_cache(maxsize=None)
def _beam_splitter(n_total: int):
    """K, p = i^(3n-N) and s = (-1)^n, with which the fixed beam splitters'
    matrices are W_L = diag(i^(N-m)) K diag(s) and W_R = K diag(p).

    Entry [m, n] is the amplitude from |n, N-n> to |m, N-m>.  K is real,
    symmetric and its own inverse; K[m, n] is an exact integer Krawtchouk
    number k times sqrt(C(N, n) / (C(N, m) 2^N)), rounded once.  Column n
    of k holds the coefficients of (1-x)^n (1+x)^(N-n), so
    (1-x) k_{n-1} = (1+x) k_n gives all of k in O(N^2) integer additions
    (MacWilliams & Sloane, The Theory of Error-Correcting Codes, ch. 5).
    K = K^T, K[m, N-n] = (-1)^m K[m, n] and K[N-m] = s K[m] hold exactly,
    so only the entries with m <= n <= N/2 take a root.  The arrays are
    shared, hence read-only.
    """
    size = n_total + 1
    binomials = [math.comb(n_total, n) for n in range(size)]
    k = np.zeros((size, size))
    column = [(-1) ** j * binomial for j, binomial in enumerate(binomials)]
    for n in range(n_total, -1, -1):
        for m, krawtchouk in enumerate(column[:n + 1] if 2 * n <= n_total else ()):
            if krawtchouk:
                k[m, n] = math.copysign(_sqrt_ratio(
                    krawtchouk ** 2 * binomials[n], binomials[m] << n_total), krawtchouk)
        # dividing (1+x) k_n by (1-x) is a running sum of its coefficients
        column = list(accumulate(a + b for a, b in zip(column, [0] + column)))
    signs = np.resize([1.0, -1.0], size)
    k += np.triu(k, 1).T
    # + 0.0 keeps K's zeros +0.0 where a sign flips them, so K = K^T bit for bit
    k[:, ::-1][:, :size // 2] = k[:, :size // 2] * signs[:, None] + 0.0
    k[::-1][:size // 2] = k[:size // 2] * signs + 0.0
    phases = np.array([1, 1j, -1, -1j])[(3 * np.arange(size) - n_total) % 4]
    for array in (k, phases, signs):
        array.flags.writeable = False
    return k, phases, signs


def _phase_factors(n_total: int, phi: np.ndarray,
                   geometry: InterferometerGeometry) -> np.ndarray:
    """Diagonal stage E[n, k] = exp(i (n (phi_k + kl1) + (N - n) kl2))."""
    n = np.arange(n_total + 1)
    angles = (np.multiply.outer(n, phi + geometry.kl1)
              + ((n_total - n) * geometry.kl2)[:, None])
    return np.exp(1j * angles)


@lru_cache(maxsize=4)
def _roots_of_unity(size: int) -> np.ndarray:
    """w^j = e^(2 pi i j / size) for j = 0..size-1, shared, hence read-only."""
    roots = np.exp((2j * np.pi / size) * np.arange(size))
    roots.flags.writeable = False
    return roots


# grid size -> the basis of the most photons asked for at it, most recent last
_half_grid_bases = {}
_half_grid_lock = threading.Lock()


def _half_grid_basis(n_total: int, size: int) -> np.ndarray:
    """[cos n phi_k | sin n phi_k] for n = 0..N and k = 0..M/2 (rounded down)
    on the grid of M = ``size`` points, phi_k = -pi + 2 pi k / M.

    Entry [n, k] is e^(i n phi_k) = (-1)^n w^(n k mod M), w = e^(2 pi i / M),
    from the cached roots of unity; at k = 0 its sine is an exact 0.  No
    geometry enters it, and rows 0..N of any basis are the basis of N, so
    each of the 4 most recent grid sizes keeps the basis of the most photons
    asked for there and hands out its rows.  Shared, hence read-only.
    """
    with _half_grid_lock:
        basis = _half_grid_bases.pop(size, None)
        if basis is None or len(basis) <= n_total:
            # gathered over the whole grid, though only k <= M/2 is kept:
            # freeing this grid-sized complex array makes glibc's malloc raise
            # its mmap threshold to it, so the table-sized arrays of later
            # calls reuse heap pages instead of faulting in fresh ones
            # (perfbench `tables`: about 170 minor faults in a pass's table
            # builds, against 1,600 with a gather over half the grid)
            n = np.arange(n_total + 1)
            stage = _roots_of_unity(size)[np.multiply.outer(n, np.arange(size)) % size]
            stage = stage[:, :size // 2 + 1]
            np.negative(stage[1::2], out=stage[1::2])
            basis = np.concatenate([stage.real, stage.imag], axis=1)
            basis.flags.writeable = False
        _half_grid_bases[size] = basis
        if len(_half_grid_bases) > 4:
            del _half_grid_bases[next(iter(_half_grid_bases))]
    return basis[:n_total + 1]


def _distinct_rows(n_total: int, grid_size: int) -> int:
    """Outcome rows a grid table computes: m <= N/2 on an even grid, where
    row N-m is row m shifted by pi, that is by M/2 points; all N+1 on an
    odd grid, where phi + pi is not a grid point."""
    return n_total // 2 + 1 if grid_size % 2 == 0 else n_total + 1


def _mirrors_by_half_period(probs: np.ndarray) -> bool:
    """Whether the rows of ``probs`` in reverse order equal its rows rolled
    by half a period, entry for entry: true of every grid table on an even
    grid, whose row N-m is row m shifted by pi (the middle row of an even N
    too: only its even-n terms, equal at phi and phi + pi, enter it, and
    the table copies its second half from its first).  On an odd grid
    phi + pi is not a grid point, so this is False."""
    size = probs.shape[1]
    if size % 2:
        return False
    half, mirrored = size // 2, probs[::-1]
    return bool(np.array_equal(mirrored[:, :half], probs[:, half:])
                and np.array_equal(mirrored[:, half:], probs[:, :half]))


def _stage_vector(coeffs: np.ndarray) -> np.ndarray:
    """The phase-stage vector s K (p c) of the coefficients c."""
    k, phases, signs = _beam_splitter(coeffs.size - 1)
    return signs * (k @ (phases * coeffs))


def _outcome_amplitudes(coeffs: np.ndarray, stage: np.ndarray) -> np.ndarray:
    """Amplitudes A = (K diag(s K p c)) stage of all N+1 outcomes, with
    N+1 = len(stage).

    A is W_L (stage * (W_R c)) without the row phases i^(N-m), which change
    neither |A|^2 nor conj(A) dA/dphi.  A stage E (:func:`_phase_factors`)
    gives A at its phases, i n E dA/dphi there.  Outcomes that vanish
    identically come out as exact zeros: each of their Fourier coefficients
    K[m, n] (s K p c)[n] has an exactly zero factor (an integer Krawtchouk
    zero, or equal-magnitude terms of opposite sign).
    """
    return (_beam_splitter(stage.shape[0] - 1)[0] * _stage_vector(coeffs)) @ stage


def outcome_distribution(state: StateCoefficients, phi: float,
                         geometry: InterferometerGeometry = DEFAULT_GEOMETRY
                         ) -> np.ndarray:
    """Probabilities of all N+1 outcomes at one phase, ordered by n_c."""
    phi = _check_scalar_phase(phi)
    amps = _outcome_amplitudes(state.coeffs,
                               _phase_factors(state.n, np.array([phi]), geometry))
    return _clamp_probs(np.abs(amps[:, 0]) ** 2)


def _check_columns(column_sums: np.ndarray) -> None:
    column_defect = float(np.abs(column_sums - 1.0).max())
    # a NaN or infinite entry makes its column's defect NaN or infinite
    if not column_defect <= COLUMN_SUM_TOL:
        raise ValueError(f"likelihood columns must be finite and sum to 1 (max "
                         f"defect {column_defect:.3e}, tolerance {COLUMN_SUM_TOL})")


@dataclass(eq=False)
class LikelihoodTable:
    """P(m | phi_k) on a phase grid; row m is the outcome (m, N-m).  ValueError when built
    unless probs is 2-D with one column per grid point, each finite and summing to 1."""

    grid: PhaseGrid
    probs: np.ndarray
    n_total: int

    def __post_init__(self):
        if np.ndim(self.probs) != 2 or np.shape(self.probs)[1] != self.grid.size:
            raise ValueError(f"a likelihood table on {self.grid} needs 2-D probs "
                             f"with {self.grid.size} columns, got {np.shape(self.probs)}")
        _check_columns(self.probs.sum(axis=0))

    @property
    def outcome_count(self) -> int:
        return self.probs.shape[0]

    def row_for(self, outcome: Outcome) -> np.ndarray:
        if outcome.total != self.n_total:
            raise ValueError(f"outcome counts {outcome.n_c}+{outcome.n_d} do not "
                             f"match the table photon number {self.n_total}")
        return self.probs[outcome.n_c]

    def log_likelihood(self, counts) -> np.ndarray:
        """L[v, k] = sum_m counts[v, m] ln P(m | phi_k) for each count vector.

        ``counts`` has one row per count vector and one column per outcome
        row.  ln 0 is ``_LOG_ZERO`` (:func:`_log_probs`), so 0 ln 0 is 0 and
        exp(L) is exactly 0 on a cell where a counted outcome has P = 0.
        """
        return np.asarray(counts, dtype=np.float64) @ _log_probs(self.probs)


def likelihood_table(state: StateCoefficients,
                     geometry: InterferometerGeometry = DEFAULT_GEOMETRY,
                     grid_size: int = DEFAULT_GRID_SIZE) -> LikelihoodTable:
    """Tabulate P(m | phi_k) for every outcome on a uniform phase grid.

    Rows are ordered by n_c = 0..N; columns follow the grid points.  Every
    column sums to 1 (photon-number projectors are complete and the device
    unitary).  On an even grid the rows m > N/2 are the rows N-m rolled by
    half a period, bit for bit.
    """
    grid = PhaseGrid(grid_size)
    n, size = state.n, grid.size
    rows, half = _distinct_rows(n, size), size // 2
    # A_m(phi) = sum_n a_mn e^(i n phi) with a = K diag(s b g), b = K p c and
    # g_n = e^(i(n kl1 + (N-n) kl2)) the geometry.  With X and Y the products
    # of [Re a; Im a] with the basis' cos and sin halves, A_m(+-phi_k) = X +- iY
    vector = _stage_vector(state.coeffs) * _phase_factors(n, np.zeros(1), geometry)[:, 0]
    re_im = vector.view(np.float64).reshape(-1, 2).T[:, None]
    parts = (_beam_splitter(n)[0][:rows] * re_im).reshape(2 * rows, n + 1)
    xy = parts @ _half_grid_basis(n, size)
    x_re, y_re = xy[:rows, :half + 1], xy[:rows, half + 1:]
    x_im, y_im = xy[rows:, :half + 1], xy[rows:, half + 1:]
    probs = np.empty((n + 1, size))
    # P(m | phi_k) = (Xr - Yi)^2 + (Xi + Yr)^2 goes to column k - 1, or M - 1
    # for k = 0 (phi = -pi is the grid point pi, and Y = 0 there), and
    # P(m | -phi_k) = (Xr + Yi)^2 + (Xi - Yr)^2 to column M - k - 1, 0 < k < M/2
    ahead, behind = probs[:rows, :half], probs[:rows, half:-1][:, ::-1]
    back = slice(1, behind.shape[1] + 1)
    probs[:rows, -1] = np.square(x_re[:, 0]) + np.square(x_im[:, 0])
    np.square(np.subtract(x_re[:, 1:], y_im[:, 1:], out=ahead), out=ahead)
    np.square(np.add(x_re[:, back], y_im[:, back], out=behind), out=behind)
    # the second squares go where the first terms' parts were
    np.square(np.add(x_im, y_re, out=x_re), out=x_re)
    np.square(np.subtract(x_im, y_re, out=y_im), out=y_im)
    ahead += x_re[:, 1:]
    behind += y_im[:, back]
    _clamp_probs(probs[:rows])
    left_out = n + 1 - rows
    if left_out:
        if n % 2 == 0:
            # the middle row has period pi; its halves come from different
            # products, so one is copied to keep the mirror exact
            probs[n // 2, half:] = probs[n // 2, :half]
        # rows N, N-1, .. are rows 0, 1, .. rolled by M/2 points
        mirrored, sources = probs[:rows - 1:-1], probs[:left_out]
        mirrored[:, :half] = sources[:, half:]
        mirrored[:, half:] = sources[:, :half]
    return LikelihoodTable(grid=grid, probs=probs, n_total=n)
