"""Search for input states that maximize the interferometer fidelity.

The objective is the mutual information of the candidate's likelihood
table over the 2(N+1) real degrees of freedom (real/imaginary parts of
the coefficients).  Candidates are projected back to the unit sphere
before evaluation, so the search itself is unconstrained; a global phase
never changes the objective and is fixed by convention after projection.
Multiple seeded Nelder-Mead restarts are used, the first two always
starting from the two benchmark states (all photons in one port, and the
two-sided superposition), so the reported optimum can never fall below
either benchmark.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from .fidelity import _mutual_information_bits, mutual_information
from .grid import DEFAULT_GRID_SIZE, PhaseGrid
from .optics import (DEFAULT_GEOMETRY, InterferometerGeometry, StateCoefficients,
                     _amplitude_tensor, _check_photon_number, _clamp_probs,
                     fock_state, likelihood_table, noon_state)

ZERO_NORM_TOL = 1e-15
FIRST_NONZERO_TOL = 1e-12
SEARCH_GRID_SIZE = 4096


@dataclass
class OptimizerConfig:
    """Restart/iteration budget and grids for the coefficient search."""

    restarts: int = 16
    max_iterations: int = 2000
    tol_bits: float = 1e-7
    seed: int = 0
    search_grid_size: int = SEARCH_GRID_SIZE
    report_grid_size: int = DEFAULT_GRID_SIZE

    def __post_init__(self):
        for name in ("restarts", "max_iterations", "seed",
                     "search_grid_size", "report_grid_size"):
            value = getattr(self, name)
            if int(value) != value:
                raise ValueError(f"{name} must be an integer, got {value!r}")
            setattr(self, name, int(value))
        if self.restarts < 1 or self.max_iterations < 1:
            raise ValueError("restarts and max_iterations must be positive")
        if self.search_grid_size < 2 or self.report_grid_size < 2:
            raise ValueError("grid sizes must be at least 2")
        if not self.tol_bits > 0:
            raise ValueError(f"tol_bits must be positive, got {self.tol_bits!r}")


@dataclass(eq=False)
class OptimizationResult:
    """Best state found, its fidelity at the reporting grid, and search stats."""

    best_state: StateCoefficients
    best_h_bits: float
    history: list = field(default_factory=list)
    evaluations: int = 0


def project_normalize(raw) -> StateCoefficients:
    """Map an arbitrary complex vector onto a canonical unit-norm state.

    Divides by the norm, then removes the (physically irrelevant) global
    phase by making the first coefficient with |c_n| > 1e-12 real and
    non-negative.  A zero vector cannot be normalized.
    """
    coeffs = np.atleast_1d(np.asarray(raw, dtype=np.complex128)).ravel()
    norm = float(np.linalg.norm(coeffs))
    if norm <= ZERO_NORM_TOL:
        raise ValueError("cannot normalize a zero coefficient vector")
    coeffs = coeffs / norm
    anchor = int(np.argmax(np.abs(coeffs) > FIRST_NONZERO_TOL))
    phase = coeffs[anchor] / abs(coeffs[anchor])
    coeffs = coeffs * phase.conjugate()
    coeffs[anchor] = abs(coeffs[anchor])
    return StateCoefficients(coeffs, label="custom")


def _seed_vectors(n_photons: int, config: OptimizerConfig) -> list:
    """Initial coefficient vectors: the two benchmarks, then random draws."""
    rng = np.random.default_rng(config.seed)
    seeds = [fock_state(n_photons).coeffs, noon_state(n_photons).coeffs]
    while len(seeds) < config.restarts:
        draw = rng.standard_normal(n_photons + 1) + 1j * rng.standard_normal(n_photons + 1)
        seeds.append(draw)
    return seeds[:config.restarts]


def optimize_input_state(n_photons: int,
                         config: OptimizerConfig = None,
                         geometry: InterferometerGeometry = DEFAULT_GEOMETRY
                         ) -> OptimizationResult:
    """Maximize the fidelity over all unit-norm input coefficient vectors.

    Runs ``config.restarts`` independent Nelder-Mead searches on the
    coarse search grid and re-evaluates the winner on the reporting grid.
    Deterministic for a fixed seed.  Restarts that hit the iteration
    budget are kept (their best value still enters the history).

    Returns
    -------
    OptimizationResult
        ``history`` holds one best-found value per restart (search grid);
        ``best_h_bits`` is the winner re-evaluated on the reporting grid.
    """
    n_photons = _check_photon_number(n_photons, minimum=1)
    if config is None:
        config = OptimizerConfig()

    grid = PhaseGrid(config.search_grid_size)
    dim = n_photons + 1
    tensor_flat = _amplitude_tensor(n_photons, grid.points, geometry).reshape(dim, -1)
    evaluations = 0
    # the objective runs thousands of times: reused buffers keep each call
    # from allocating fresh grid-sized arrays, whose cost depends on the
    # allocator's state
    amps = np.empty(dim * grid.size, dtype=np.complex128)
    probs = np.empty((dim, grid.size))

    def objective(x: np.ndarray) -> float:
        nonlocal evaluations
        evaluations += 1
        raw = x[:dim] + 1j * x[dim:]
        try:
            state = project_normalize(raw)
        except ValueError:
            return np.inf
        np.matmul(state.coeffs, tensor_flat, out=amps)
        np.abs(amps.reshape(dim, grid.size), out=probs)
        np.square(probs, out=probs)
        return -_mutual_information_bits(_clamp_probs(probs), grid.weight)

    best_x = None
    best_value = -np.inf
    history = []
    for start in _seed_vectors(n_photons, config):
        x0 = np.concatenate([start.real, start.imag])
        result = minimize(objective, x0, method="Nelder-Mead",
                          options={"maxiter": config.max_iterations,
                                   "fatol": config.tol_bits,
                                   "xatol": 1e-6})
        h_found = -float(result.fun)
        history.append(h_found)
        # the optimum is often a continuous family of equal-H states, so a
        # later restart must beat the incumbent by more than the tolerance
        if h_found > best_value + config.tol_bits:
            best_value = h_found
            best_x = result.x

    best_state = project_normalize(best_x[:dim] + 1j * best_x[dim:])
    report = mutual_information(
        likelihood_table(best_state, geometry, config.report_grid_size))
    return OptimizationResult(best_state=best_state, best_h_bits=report.h_bits,
                              history=history, evaluations=evaluations)
