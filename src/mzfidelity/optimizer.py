"""Search for input states that maximize the interferometer fidelity.

The objective is the mutual information H of the candidate's likelihood
table, as a function of the 2(N+1) real degrees of freedom (real and
imaginary parts of the coefficients c).  The candidate is normalized,
u = c/|c|, before evaluation, so the search is unconstrained; H changes
neither along c (scale) nor along i*c (global phase), and the global
phase of the winner is fixed by convention after the search.

The amplitudes A = M u = W_L (E * (W_R u)) are linear in u, and the phase
stage E is built once per search, so the analytic gradient costs one pass
of the engine's transpose M^T, in O(N x grid) memory.  With P = |A|^2,
I_m = w sum_k P_mk and G = dH/dP = (w/2pi) log2(2pi P / I_m):

    g   = 2 conj(M^T(conj(A) G))     gradient with respect to u,
    g_c = (g - u Re<u, g>) / |c|     gradient with respect to c,

whose real and imaginary parts are the real gradient; it is orthogonal
to c and to i*c.  Each restart is an L-BFGS-B search (Byrd, Lu, Nocedal
and Zhu, SIAM J. Sci. Comput. 16, 1190 (1995)) on the coarse search
grid.  The first two restarts always start from the two benchmark states
(all photons in one port, and the two-sided superposition), so the
reported optimum can never fall below either benchmark.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .fidelity import TWO_PI, _information_terms, mutual_information
from .grid import DEFAULT_GRID_SIZE, PhaseGrid
from .optics import (DEFAULT_GEOMETRY, InterferometerGeometry, StateCoefficients,
                     _check_photon_number, _clamp_probs, _outcome_amplitudes,
                     _outcome_amplitudes_transpose, _phase_factors, fock_state,
                     likelihood_table, noon_state)

ZERO_NORM_TOL = 1e-15
FIRST_NONZERO_TOL = 1e-12


@dataclass
class OptimizerConfig:
    """Restart/iteration budget and grids for the coefficient search."""

    restarts: int = 16
    max_iterations: int = 2000
    tol_bits: float = 1e-7
    seed: int = 0
    search_grid_size: int = 4096
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
    # one {"success", "nit", "nfev", "message"} record per restart
    restarts: list = field(default_factory=list)


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


def _negative_information(n_photons: int, grid: PhaseGrid,
                          geometry: InterferometerGeometry):
    """The search objective: x = [Re c, Im c] -> (-H, -dH/dx) on ``grid``."""
    dim = n_photons + 1
    stage = _phase_factors(n_photons, grid.points, geometry)
    # the objective runs hundreds of times per search: reused buffers keep
    # each call from allocating fresh grid-sized arrays, whose cost depends
    # on the allocator's state
    probs = np.empty((dim, grid.size))
    log_ratio = np.empty((dim, grid.size))

    def objective(x: np.ndarray):
        coeffs = x[:dim] + 1j * x[dim:]
        norm = np.linalg.norm(coeffs)
        unit = coeffs / norm
        amps = _outcome_amplitudes(unit, stage)
        np.abs(amps, out=probs)
        np.square(probs, out=probs)
        h = math.fsum(_information_terms(_clamp_probs(probs), grid.weight,
                                         out=log_ratio)[0])
        np.conjugate(amps, out=amps)
        np.multiply(amps, log_ratio, out=amps)
        grad = (2.0 * grid.weight / TWO_PI) * np.conjugate(
            _outcome_amplitudes_transpose(amps, stage))
        grad -= unit * np.vdot(unit, grad).real
        grad /= norm
        return -h, -np.concatenate([grad.real, grad.imag])

    return objective


def optimize_input_state(n_photons: int,
                         config: OptimizerConfig = None,
                         geometry: InterferometerGeometry = DEFAULT_GEOMETRY
                         ) -> OptimizationResult:
    """Maximize the fidelity over all unit-norm input coefficient vectors.

    Runs ``config.restarts`` independent L-BFGS-B searches with the
    analytic gradient on the coarse search grid and re-evaluates the
    winner on the reporting grid.  Each search stops after
    ``config.max_iterations`` iterations or when an iteration improves H
    by less than ``config.tol_bits`` relative to max(|H|, 1).  A later
    restart replaces the incumbent only if it beats it by more than
    ``config.tol_bits``.  Deterministic for a fixed seed.  Restarts that
    hit the iteration budget are kept (their best value still enters the
    history, and their record says ``success: False``).

    Returns
    -------
    OptimizationResult
        ``history`` holds one best-found value per restart (search grid)
        and ``restarts`` each restart's convergence record;
        ``best_h_bits`` is the winner re-evaluated on the reporting grid.
    """
    # scipy.optimize costs most of the package's import time; only this
    # function needs it
    from scipy.optimize import minimize

    n_photons = _check_photon_number(n_photons, minimum=1)
    if config is None:
        config = OptimizerConfig()

    dim = n_photons + 1
    objective = _negative_information(n_photons, PhaseGrid(config.search_grid_size),
                                      geometry)
    best_x = None
    best_value = -np.inf
    history = []
    restarts = []
    for start in _seed_vectors(n_photons, config):
        x0 = np.concatenate([start.real, start.imag])
        result = minimize(objective, x0, jac=True, method="L-BFGS-B",
                          options={"maxiter": config.max_iterations,
                                   "ftol": config.tol_bits})
        h_found = -float(result.fun)
        history.append(h_found)
        restarts.append({"success": bool(result.success), "nit": int(result.nit),
                         "nfev": int(result.nfev), "message": str(result.message)})
        # the optimum is often a continuous family of equal-H states, so a
        # later restart must beat the incumbent by more than the tolerance
        if h_found > best_value + config.tol_bits:
            best_value = h_found
            best_x = result.x

    best_state = project_normalize(best_x[:dim] + 1j * best_x[dim:])
    report = mutual_information(
        likelihood_table(best_state, geometry, config.report_grid_size))
    return OptimizationResult(best_state=best_state, best_h_bits=report.h_bits,
                              history=history,
                              evaluations=sum(r["nfev"] for r in restarts),
                              restarts=restarts)
