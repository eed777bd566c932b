"""Scalar reference for the amplitude engine: the device unitary at one
phase and the partition sum over photon transfers.

Nothing here shares code with the engine in ``mzfidelity.optics``, so the
tests can hold the engine to it.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

import numpy as np

from mzfidelity.optics import DEFAULT_GEOMETRY, InterferometerGeometry, _check_phase

UNITARITY_TOL = 1e-12


@dataclass(eq=False)
class ScatteringMatrix:
    """2x2 unitary relating input-mode to output-mode operators at one phase."""

    entries: np.ndarray
    phase: float

    def unitarity_defect(self) -> float:
        """Max entrywise deviation of S^dagger S from the identity."""
        gram = self.entries.conj().T @ self.entries
        return float(np.abs(gram - np.eye(2)).max())


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
    behind :func:`mzfidelity.likelihood_table` and serves as its reference.
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


def fock_mutual_information(n_total: int) -> float:
    """Exact mutual information, in bits, of the fock state |N, 0> under a
    uniform phase.

    Its outcome is Binomial(N, x) with x = sin^2(phi/2), and x has the
    arcsine law Beta(1/2, 1/2), so the count m is beta-binomial:
    P(m) = C(2m, m) C(2N-2m, N-m) / 4^N.  With psi(j+1/2) - psi(N+1) =
    S_j - H_N - 2 ln 2, S_j = sum_{k<=j} 2/(2k-1) and H_N = sum_{k<=N} 1/k,
    H = H(M) - H(M|X) is, in nats,

        sum_m P(m) [ln(C(N, m) / (C(2m, m) C(2N-2m, N-m)))
                    + m S_m + (N-m) S_{N-m} - N H_N],

    the ln 2 terms cancelling against 4^N.  The harmonic sums are exact
    fractions and each bracket takes two roundings, its log and its
    rational part: within 4e-15 bits of a 40-digit evaluation for N <= 200.
    """
    odd_harmonics = list(accumulate((Fraction(2, 2 * k - 1) for k in range(1, n_total + 1)),
                                    initial=Fraction(0)))
    harmonic = sum((Fraction(1, k) for k in range(1, n_total + 1)), Fraction(0))
    terms = []
    for m in range(n_total + 1):
        central = math.comb(2 * m, m) * math.comb(2 * (n_total - m), n_total - m)
        rational = (m * odd_harmonics[m] + (n_total - m) * odd_harmonics[n_total - m]
                    - n_total * harmonic)
        bracket = math.log(math.comb(n_total, m) / central) + float(rational)
        terms.append(central / 4 ** n_total * bracket)
    return math.fsum(terms) / math.log(2.0)


def trapezoid(y, x) -> float:
    """Trapezoid rule for samples y at the points x, spelled out because
    np.trapezoid exists only from numpy 2.0."""
    y, x = np.asarray(y, dtype=np.float64), np.asarray(x, dtype=np.float64)
    return float(np.sum(np.diff(x) * (y[1:] + y[:-1])) / 2.0)
