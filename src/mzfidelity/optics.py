"""Two-port interferometer optics: scattering matrix and outcome probabilities.

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
W_L (E * (W_R c)), with W_L and W_R built once per photon number and E
the diagonal stage's phase factors (i n E gives the exact dA/dphi).
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .grid import DEFAULT_GRID_SIZE, PhaseGrid

# probabilities below this are treated as exact zeros (keeps logs clean
# of subnormal noise downstream)
PROB_FLOOR = 1e-300
NORM_TOL = 1e-12
UNITARITY_TOL = 1e-12


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
            value = getattr(self, name)
            if int(value) != value or value < 0:
                raise ValueError(f"photon count {name} must be a non-negative "
                                 f"integer, got {value!r}")
            object.__setattr__(self, name, int(value))

    @property
    def total(self) -> int:
        return self.n_c + self.n_d


@dataclass(eq=False)
class ScatteringMatrix:
    """2x2 unitary relating input-mode to output-mode operators at one phase."""

    entries: np.ndarray
    phase: float

    def unitarity_defect(self) -> float:
        """Max entrywise deviation of S^dagger S from the identity."""
        gram = self.entries.conj().T @ self.entries
        return float(np.abs(gram - np.eye(2)).max())


@dataclass(eq=False)
class StateCoefficients:
    """Unit-norm complex amplitudes c_0..c_N over the basis |n_a, (N-n)_b>."""

    coeffs: np.ndarray
    label: str = "custom"

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
    n = _check_photon_number(n, minimum=0)
    coeffs = np.zeros(n + 1, dtype=np.complex128)
    coeffs[n] = 1.0
    return StateCoefficients(coeffs, label="fock")


def noon_state(n: int) -> StateCoefficients:
    """Equal superposition of all photons in a and all in b: c_0 = c_N = 1/sqrt(2).

    Under photon counting this input is blind to some phase shifts: at
    N = 2 every outcome probability is independent of phi, and for every
    even N every outcome probability has period pi in phi (see
    :func:`noon_outcome_prob`).
    """
    n = _check_photon_number(n, minimum=1)
    coeffs = np.zeros(n + 1, dtype=np.complex128)
    coeffs[0] = coeffs[n] = 1.0 / math.sqrt(2.0)
    return StateCoefficients(coeffs, label="noon")


STATE_FAMILIES = {"fock": fock_state, "noon": noon_state}


def _check_photon_number(n, minimum=0) -> int:
    if int(n) != n or n < minimum:
        raise ValueError(f"photon number must be an integer >= {minimum}, got {n!r}")
    return int(n)


def _check_phase(phi) -> np.ndarray:
    phi = np.asarray(phi, dtype=np.float64)
    if not np.all(np.isfinite(phi)):
        raise ValueError("phase values must be finite")
    return phi


def scattering_entries(phi, geometry: InterferometerGeometry = DEFAULT_GEOMETRY):
    """Entries (s11, s12, s21, s22) of the device unitary, vectorized over phi.

    The matrix is u*sigma_z + v*sigma_x with
    u = (e^{i(phi+kl1)} - e^{i kl2})/2 and v = -i(e^{i(phi+kl1)} + e^{i kl2})/2,
    i.e. rows/columns ordered (port a|c, port b|d).
    """
    phi = _check_phase(phi)
    upper = np.exp(1j * (phi + geometry.kl1))
    lower = np.exp(1j * geometry.kl2)
    u = 0.5 * (upper - lower)
    v = -0.5j * (upper + lower)
    return u, v, v, -u


def build_scattering_matrix(phi: float,
                            geometry: InterferometerGeometry = DEFAULT_GEOMETRY
                            ) -> ScatteringMatrix:
    """Device unitary at a single phase value.

    Raises ``ValueError`` for non-finite input and checks the unitarity
    invariant (defect below 1e-12) before returning.
    """
    phi = float(_check_phase(phi))
    s11, s12, s21, s22 = scattering_entries(phi, geometry)
    matrix = ScatteringMatrix(
        entries=np.array([[s11, s12], [s21, s22]], dtype=np.complex128),
        phase=phi,
    )
    defect = matrix.unitarity_defect()
    if defect > UNITARITY_TOL:  # pragma: no cover - construction guarantees this
        raise ValueError(f"scattering matrix unitarity defect {defect} exceeds "
                         f"{UNITARITY_TOL}")
    return matrix


def _clamp_probs(p: np.ndarray) -> np.ndarray:
    p[p < PROB_FLOOR] = 0.0
    # nothing is negative any more: one-sided is the same clip, and faster
    np.minimum(p, 1.0, out=p)
    return p


def fock_outcome_prob(n_total: int, outcome: Outcome, phi):
    """Outcome probability for the all-photons-in-port-a input, closed form.

    P(n_c, n_d | phi) = [N!/(n_c! n_d!)] sin^{2 n_c}(phi/2) cos^{2 n_d}(phi/2)
    when n_c + n_d = N, else 0.  Accepts scalar or array phi.
    """
    n_total = _check_photon_number(n_total, minimum=0)
    phi = _check_phase(phi)
    if outcome.total != n_total:
        return np.zeros_like(phi) if phi.ndim else 0.0
    half = 0.5 * phi
    p = float(math.comb(n_total, outcome.n_c)) \
        * np.sin(half) ** (2 * outcome.n_c) \
        * np.cos(half) ** (2 * outcome.n_d)
    p = _clamp_probs(np.atleast_1d(np.asarray(p, dtype=np.float64)))
    return p if phi.ndim else float(p[0])


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
    n_total = _check_photon_number(n_total, minimum=1)
    phi = _check_phase(phi)
    if outcome.total != n_total:
        return np.zeros_like(phi) if phi.ndim else 0.0
    s, c = np.sin(0.5 * phi), np.cos(0.5 * phi)
    bracket = (s ** outcome.n_c * c ** outcome.n_d
               + (-1) ** outcome.n_c * s ** outcome.n_d * c ** outcome.n_c)
    p = 0.5 * float(math.comb(n_total, outcome.n_c)) * bracket ** 2
    p = _clamp_probs(np.atleast_1d(np.asarray(p, dtype=np.float64)))
    return p if phi.ndim else float(p[0])


def partition_weight(n_a: int, n_b: int, n_c: int, j: int) -> float:
    """Exact-arithmetic transfer weight for one partition term.

    sqrt(n_c! n_d! / (n_a! n_b!)) * C(n_a, j) * C(n_b, n_c - j): the
    weight of sending j of the n_a photons of port a, and n_c - j of the
    n_b photons of port b, to output c.
    """
    n_d = n_a + n_b - n_c
    ratio = Fraction(math.factorial(n_c) * math.factorial(n_d),
                     math.factorial(n_a) * math.factorial(n_b))
    return math.comb(n_a, j) * math.comb(n_b, n_c - j) * math.sqrt(ratio)


def transition_amplitude(smatrix: ScatteringMatrix,
                         n_a: int, n_b: int, n_c: int, n_d: int) -> complex:
    """Amplitude <n_c, n_d| applied to |n_a, n_b> under the device unitary.

    Photon number is conserved; ``n_a + n_b != n_c + n_d`` is a domain
    error.  Evaluated as a finite sum over transfer partitions with
    exact-integer weights (:func:`partition_weight`), stable up to at
    least 40 photons.  This scalar sum is independent of the grid engine
    behind :func:`likelihood_table` and serves as its reference.
    """
    counts = {"n_a": n_a, "n_b": n_b, "n_c": n_c, "n_d": n_d}
    for name, value in counts.items():
        if int(value) != value or value < 0:
            raise ValueError(f"photon count {name} must be a non-negative "
                             f"integer, got {value!r}")
    n_a, n_b, n_c, n_d = (int(v) for v in (n_a, n_b, n_c, n_d))
    if n_a + n_b != n_c + n_d:
        raise ValueError(f"photon number mismatch: input {n_a}+{n_b} != "
                         f"output {n_c}+{n_d}")
    s = smatrix.entries
    amp = 0.0 + 0.0j
    for j in range(max(0, n_c - n_b), min(n_a, n_c) + 1):
        weight = partition_weight(n_a, n_b, n_c, j)
        amp += (s[0, 0] ** j * s[1, 0] ** (n_a - j)
                * s[0, 1] ** (n_c - j) * s[1, 1] ** (n_b - n_c + j)) * weight
    return complex(amp)


# ---------------------------------------------------------------------------
# factorized amplitude engine
# ---------------------------------------------------------------------------

_I_POWERS = (1.0, 1j, -1.0, -1j)


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
def _transfer_matrices(n_total: int):
    """Photon-number matrices W_L, W_R of the two fixed beam splitters.

    Entry [n_out, n_in] is the amplitude from |n_in, N-n_in> to
    |n_out, N-n_out>: for balanced splitters, an exact integer Krawtchouk
    number K times i^p and sqrt(C(N, n_in) / (C(N, n_out) 2^N)), rounded
    once.  Column n_in of K holds the coefficients of (1-x)^n_in
    (1+x)^(N-n_in), so (1-x) K_{n-1} = (1+x) K_n gives all of K in O(N^2)
    integer additions (MacWilliams & Sloane, The Theory of Error-Correcting
    Codes, ch. 5).  The arrays are shared between callers, hence read-only.
    """
    size = n_total + 1
    binomials = [math.comb(n_total, n) for n in range(size)]
    w_l = np.zeros((size, size), dtype=np.complex128)
    w_r = np.zeros((size, size), dtype=np.complex128)
    column = [(-1) ** j * binomial for j, binomial in enumerate(binomials)]
    for n_in in range(n_total, -1, -1):
        for n_out, krawtchouk in enumerate(column):
            if krawtchouk == 0:
                continue
            magnitude = math.copysign(_sqrt_ratio(
                krawtchouk ** 2 * binomials[n_in], binomials[n_out] << n_total),
                krawtchouk)
            w_l[n_out, n_in] = _I_POWERS[(n_total - n_out - 2 * n_in) % 4] * magnitude
            w_r[n_out, n_in] = _I_POWERS[(3 * n_in - n_total) % 4] * magnitude
        # dividing (1+x) K_n by (1-x) is a running sum of its coefficients
        column = list(accumulate(a + b for a, b in zip(column, [0] + column)))
    w_l.flags.writeable = False
    w_r.flags.writeable = False
    return w_l, w_r


def _phase_factors(n_total: int, phi: np.ndarray,
                   geometry: InterferometerGeometry) -> np.ndarray:
    """Diagonal stage E[n, k] = exp(i (n (phi_k + kl1) + (N - n) kl2))."""
    n = np.arange(n_total + 1)
    angles = (np.multiply.outer(n, phi + geometry.kl1)
              + ((n_total - n) * geometry.kl2)[:, None])
    return np.exp(1j * angles)


def _outcome_amplitudes(coeffs: np.ndarray, stage: np.ndarray) -> np.ndarray:
    """Amplitudes A = (W_L diag(W_R c)) stage, with N+1 = len(stage).

    No grid-sized array but A exists.  The stage E of :func:`_phase_factors`
    gives the amplitudes at its phases, i n E their phase derivatives.
    Outcomes that vanish identically come out as exact zeros: each of
    their Fourier coefficients W_L[n_c, n] (W_R c)[n] has an exactly zero
    factor (an integer Krawtchouk zero, or equal-magnitude terms of
    opposite sign).
    """
    w_l, w_r = _transfer_matrices(stage.shape[0] - 1)
    return (w_l * (w_r @ coeffs)) @ stage


def _outcome_amplitudes_transpose(values: np.ndarray, stage: np.ndarray) -> np.ndarray:
    """v -> W_R^T sum_k stage[n, k] (W_L^T v)[n, k], the transpose of
    :func:`_outcome_amplitudes`: sum(v * A(c)) = c @ this."""
    w_l, w_r = _transfer_matrices(stage.shape[0] - 1)
    # the sum over k first: (W_L^T v)[n, k] never exists
    return w_r.T @ np.einsum("mn,mn->n", w_l, values @ stage.T)


def outcome_distribution(state: StateCoefficients, phi: float,
                         geometry: InterferometerGeometry = DEFAULT_GEOMETRY
                         ) -> np.ndarray:
    """Probabilities of all N+1 outcomes at one phase, ordered by n_c."""
    phi = float(_check_phase(phi))
    amps = _outcome_amplitudes(state.coeffs,
                               _phase_factors(state.n, np.array([phi]), geometry))
    return _clamp_probs(np.abs(amps[:, 0]) ** 2)


def state_outcome_prob(state: StateCoefficients, phi: float,
                       geometry: InterferometerGeometry = DEFAULT_GEOMETRY,
                       outcome: Outcome = None) -> float:
    """Probability of one outcome for an arbitrary input state at one phase.

    Amplitudes of the N+1 basis inputs are summed coherently before
    squaring.  The outcome must carry the state's total photon number.
    """
    if outcome is None:
        raise ValueError("an outcome is required")
    if outcome.total != state.n:
        raise ValueError(f"outcome counts {outcome.n_c}+{outcome.n_d} do not "
                         f"match the state photon number {state.n}")
    return float(outcome_distribution(state, phi, geometry)[outcome.n_c])


@dataclass(eq=False)
class LikelihoodTable:
    """P(m | phi_k) on a phase grid, one row per outcome.

    ``outcomes`` lists the row labels, one ``Outcome`` per row.
    """

    grid: PhaseGrid
    probs: np.ndarray
    outcomes: list
    state_label: str
    n_total: int

    @property
    def outcome_count(self) -> int:
        return self.probs.shape[0]

    def row_for(self, outcome: Outcome) -> np.ndarray:
        if outcome.total != self.n_total:
            raise ValueError(f"outcome counts {outcome.n_c}+{outcome.n_d} do not "
                             f"match the table photon number {self.n_total}")
        return self.probs[outcome.n_c]

    def log_likelihood(self, counts) -> np.ndarray:
        """L[v, k] = sum_m counts[v, m] log P(m | phi_k) for each count vector.

        ``counts`` has one row per count vector and one column per outcome
        row.  0 log 0 is 0; a positive count on a cell where P = 0 gives
        -inf, so ``exp`` of the result is exactly 0 there.
        """
        return next(self.log_likelihood_blocks([counts]))

    def log_likelihood_blocks(self, count_blocks):
        """Yield :meth:`log_likelihood` of each array of count vectors in
        ``count_blocks``, working out log P and its zeros once."""
        zero = self.probs == 0.0
        log_probs = np.log(np.where(zero, 1.0, self.probs))
        zero_rows = np.flatnonzero(zero.any(axis=1))
        for counts in count_blocks:
            counts = np.asarray(counts, dtype=np.float64)
            out = counts @ log_probs
            for m in zero_rows:
                out[np.ix_(counts[:, m] > 0, zero[m])] = -np.inf
            yield out


def likelihood_table(state: StateCoefficients,
                     geometry: InterferometerGeometry = DEFAULT_GEOMETRY,
                     grid_size: int = DEFAULT_GRID_SIZE) -> LikelihoodTable:
    """Tabulate P(m | phi_k) for every outcome on a uniform phase grid.

    Rows are ordered by n_c = 0..N; columns follow the grid points.  Every
    column sums to 1 (photon-number projectors are complete and the device
    unitary).
    """
    grid = PhaseGrid(grid_size)
    amps = _outcome_amplitudes(state.coeffs,
                               _phase_factors(state.n, grid.points, geometry))
    probs = _clamp_probs(np.abs(amps) ** 2)
    outcomes = [Outcome(n_c, state.n - n_c) for n_c in range(state.n + 1)]
    return LikelihoodTable(grid=grid, probs=probs, outcomes=outcomes,
                           state_label=state.label, n_total=state.n)
