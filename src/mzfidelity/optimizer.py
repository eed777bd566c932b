"""Search for input states that maximize the interferometer fidelity.

The objective is the mutual information H of the candidate's likelihood
table, as a function of the 2(N+1) real degrees of freedom (real and
imaginary parts of the coefficients c).  The candidate is normalized,
u = c/|c|, before evaluation, so the search is unconstrained; H changes
neither along c (scale) nor along i*c (global phase), and the global
phase of the winner is fixed by convention after the search.

The amplitudes A = M u = K (E * (s K (p u))) are linear in u (K is the
beam splitters' real involution, s = (-1)^n and p = i^(3n-N); see
:func:`~mzfidelity.optics._beam_splitter`), and the phase stage E is built
once per search, from the grid's M roots of unity, so the analytic gradient
costs one pass of the engine's transpose M^T, in O(N x grid) memory.
With P = |A|^2, I_m = w sum_k P_mk and G = dH/dP = (w/2pi) log2(2pi P / I_m):

    H   = sum_m mu_m (w/2pi) sum_k P_mk log2(2pi P_mk / I_m),
    g   = 2 conj(M^T(mu conj(A) G))  gradient with respect to u,
    g_c = (g - u Re<u, g>) / |c|     gradient with respect to c,

whose real and imaginary parts are the real gradient; it is orthogonal
to c and to i*c.  On an even grid row N-m is row m shifted by pi (see
:mod:`~mzfidelity.optics`): only the rows m <= N/2 are computed, with the
multiplicity mu_m of :func:`~mzfidelity.fidelity._count_mirrors` (1 on an
odd grid).  Each restart is an L-BFGS search (Liu and Nocedal, Math. Prog.
45, 503 (1989)) on the coarse search grid, with a strong Wolfe line search
(Nocedal and Wright, *Numerical Optimization*, section 3.5).  It stops when
an iteration lowers -H by at most ``tol_bits`` relative to max(|H_k|,
|H_k+1|, 1), or when no gradient component exceeds GRADIENT_TOL.  The first
two restarts start from the two benchmark states (all photons in one port,
and the two-sided superposition), so the optimum never falls below either.
"""

import math
from collections import deque
from dataclasses import dataclass, field, replace

import numpy as np

from .fidelity import TWO_PI, _count_mirrors, _information_terms, mutual_information
from .grid import DEFAULT_GRID_SIZE, PhaseGrid, _integer
from .optics import (DEFAULT_GEOMETRY, InterferometerGeometry, StateCoefficients,
                     _clamp_probs, _distinct_rows, _grid_stage,
                     _outcome_amplitudes, _outcome_amplitudes_transpose,
                     fock_state, likelihood_table, noon_state)

ZERO_NORM_TOL = 1e-15
FIRST_NONZERO_TOL = 1e-12
HISTORY_SIZE = 10             # correction pairs the search keeps
WOLFE_DECREASE, WOLFE_CURVATURE = 1e-4, 0.9  # c1 and c2 of the strong Wolfe conditions
GRADIENT_TOL = 1e-5           # a restart ends once no |dH/dx| is larger
LINE_SEARCH_EVALUATIONS = 20  # a line search that needs more fails
# the default search grid: SMALL_SEARCH_GRID points while that is at least
# SEARCH_POINTS_PER_OUTCOME per outcome (N <= 15), else LARGE_SEARCH_GRID
SMALL_SEARCH_GRID, LARGE_SEARCH_GRID, SEARCH_POINTS_PER_OUTCOME = 512, 1024, 32


@dataclass
class OptimizerConfig:
    """Restart/iteration budget and grids for the coefficient search."""

    restarts: int = 16
    max_iterations: int = 2000
    tol_bits: float = 1e-7
    seed: int = 0
    # None: 512 points up to N = 15, 1024 above (see resolved).  Measured at
    # the other defaults, seeds 0-3: for N <= 15 the optimum this search
    # reports on the report grid is at most 6.1e-8 bits below a 4096-point
    # search's, under tol_bits; kept up to N = 63 (8 points per outcome) it
    # falls up to 3.5e-7 below, at N = 45, also at tol_bits 1e-11
    search_grid_size: int = None
    report_grid_size: int = DEFAULT_GRID_SIZE

    def __post_init__(self):
        names = [("restarts", 1), ("max_iterations", 1), ("seed", None),
                 ("report_grid_size", 2)]
        if self.search_grid_size is not None:  # None is sized from N by resolved
            names.append(("search_grid_size", 2))
        for name, minimum in names:
            setattr(self, name, _integer(getattr(self, name), name, minimum))
        # an infinite tolerance makes best_value + tol_bits NaN: no restart is kept
        if not (math.isfinite(self.tol_bits) and self.tol_bits > 0):
            raise ValueError(f"tol_bits must be finite and positive, got {self.tol_bits!r}")

    def resolved(self, n_photons: int) -> "OptimizerConfig":
        """This config with the search grid the search runs on for N photons."""
        if self.search_grid_size is not None:
            return self
        small = SEARCH_POINTS_PER_OUTCOME * (n_photons + 1) <= SMALL_SEARCH_GRID
        return replace(self,
                       search_grid_size=SMALL_SEARCH_GRID if small else LARGE_SEARCH_GRID)


@dataclass(eq=False)
class OptimizationResult:
    """Best state found, its fidelity at the reporting grid, and search stats."""

    best_state: StateCoefficients
    best_h_bits: float
    history: list = field(default_factory=list)
    evaluations: int = 0
    # one {"success", "nit", "nfev", "message"} record per restart; message is "H
    # converged", "gradient converged", "iteration limit" or "line search failed"
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
    stage = _grid_stage(n_photons, grid, geometry)
    rows = _distinct_rows(n_photons, grid.size)

    def objective(x: np.ndarray):
        coeffs = x[:dim] + 1j * x[dim:]
        norm = np.linalg.norm(coeffs)
        unit = coeffs / norm
        amps = _outcome_amplitudes(unit, stage, rows)
        probs = np.abs(amps)
        np.square(probs, out=probs)
        terms, log_ratio = _information_terms(_clamp_probs(probs), grid.weight)
        _count_mirrors(dim, terms, log_ratio)
        np.conjugate(amps, out=amps)
        np.multiply(amps, log_ratio, out=amps)
        grad = (2.0 * grid.weight / TWO_PI) * np.conjugate(
            _outcome_amplitudes_transpose(amps, stage))
        grad -= unit * np.vdot(unit, grad).real
        grad /= norm
        return -math.fsum(terms), -np.concatenate([grad.real, grad.imag])

    return objective


def _wolfe_step(fun, x, f, g, direction, step):
    """(step, value, gradient, evaluations) of a strong Wolfe step along
    ``direction``, step None if LINE_SEARCH_EVALUATIONS evaluations find none:
    the step grows fourfold until it brackets one, then moves to the minimizer
    of the cubic through the bracket's ends, or to their midpoint if that is
    not well inside (Nocedal and Wright, Algorithms 3.5-3.6 and eq. (3.59))."""
    slope = float(g @ direction)
    lo, hi = (0.0, f, slope), None
    for evaluations in range(1, LINE_SEARCH_EVALUATIONS + 1):
        value, gradient = fun(x + step * direction)
        trial = (step, value, float(gradient @ direction))
        if value > f + WOLFE_DECREASE * step * slope or value >= lo[1]:
            hi = trial
        elif abs(trial[2]) <= -WOLFE_CURVATURE * slope:
            return step, value, gradient, evaluations
        else:
            if trial[2] * (1.0 if hi is None else hi[0] - lo[0]) >= 0.0:
                hi = lo  # the slope changes sign between lo and the trial
            lo = trial
        if hi is None:
            step *= 4.0
            continue
        (a, f_a, s_a), (b, f_b, s_b) = lo, hi
        d1 = s_a + s_b - 3.0 * (f_a - f_b) / (a - b)
        d2 = math.copysign(math.sqrt(max(d1 * d1 - s_a * s_b, 0.0)), b - a)
        # a zero denominator gives NaN, so the midpoint
        cubic = b - (b - a) * (s_b + d2 - d1) / ((s_b - s_a + 2.0 * d2) or math.nan)
        step = cubic if abs(cubic - (a + b) / 2) <= 0.4 * abs(b - a) else (a + b) / 2
    return None, None, None, LINE_SEARCH_EVALUATIONS


def _lbfgs(fun, x, max_iterations, tol_bits):
    """Minimize ``fun(x) -> (value, gradient)`` from ``x``: (x, value, record)."""
    (f, g), nit, nfev = fun(x), 0, 1
    f_old, pairs, message = f, deque(maxlen=HISTORY_SIZE), None
    while message is None:
        if np.abs(g).max() <= GRADIENT_TOL:
            message = "gradient converged"
        elif nit and f_old - f <= tol_bits * max(abs(f_old), abs(f), 1.0):
            message = "H converged"
        elif nit >= max_iterations:
            message = "iteration limit"
        else:
            # two-loop recursion: direction = -H g, H from the stored pairs
            direction, alphas = -g, []
            for s, y, sy in reversed(pairs):
                alphas.append((s @ direction) / sy)
                direction -= alphas[-1] * y
            if pairs:
                direction *= pairs[-1][2] / (pairs[-1][1] @ pairs[-1][1])
            for (s, y, sy), alpha in zip(pairs, reversed(alphas)):
                direction += (alpha - (y @ direction) / sy) * s
            step, f_new, g_new, evaluations = _wolfe_step(
                fun, x, f, g, direction, 1.0 / np.linalg.norm(g) if nit == 0 else 1.0)
            nfev += evaluations
            if step is None:
                message = "line search failed"
            else:
                s, y = step * direction, g_new - g
                if s @ y > 0.0:
                    pairs.append((s, y, s @ y))
                x, f_old, f, g, nit = x + s, f, f_new, g_new, nit + 1
    return x, f, {"success": message.endswith("converged"), "nit": nit, "nfev": nfev,
                  "message": message}


def optimize_input_state(n_photons: int,
                         config: OptimizerConfig = None,
                         geometry: InterferometerGeometry = DEFAULT_GEOMETRY
                         ) -> OptimizationResult:
    """Maximize the fidelity over all unit-norm input coefficient vectors.

    Runs ``config.restarts`` independent L-BFGS searches with the analytic
    gradient on the coarse search grid and re-evaluates the winner on the
    reporting grid.  Unless ``config.search_grid_size`` is given, the search
    grid has 512 points while that is at least 32 per outcome (N <= 15),
    else 1024 (:meth:`OptimizerConfig.resolved`).  Each search stops after
    ``config.max_iterations`` iterations, when an iteration lowers -H by at
    most ``config.tol_bits`` relative to max(|H_k|, |H_k+1|, 1), or when no
    gradient component exceeds GRADIENT_TOL (1e-5).  A later restart
    replaces the incumbent only if it beats it by more than
    ``config.tol_bits``.  Deterministic for a fixed seed.  Every restart
    enters the history; its record says ``success: False`` if it hit the
    iteration budget or its line search failed.

    Returns
    -------
    OptimizationResult
        ``history`` holds one best-found value per restart (search grid)
        and ``restarts`` each restart's convergence record;
        ``best_h_bits`` is the winner re-evaluated on the reporting grid.
    """
    n_photons = _integer(n_photons, "photon number", minimum=1)
    config = (config or OptimizerConfig()).resolved(n_photons)

    dim = n_photons + 1
    objective = _negative_information(n_photons, PhaseGrid(config.search_grid_size),
                                      geometry)
    best_x, best_value, history, restarts = None, -np.inf, [], []
    for start in _seed_vectors(n_photons, config):
        x, value, record = _lbfgs(objective, np.concatenate([start.real, start.imag]),
                                  config.max_iterations, config.tol_bits)
        history.append(-value)
        restarts.append(record)
        # the optimum is often a continuous family of equal-H states, so a
        # later restart must beat the incumbent by more than the tolerance
        if -value > best_value + config.tol_bits:
            best_x, best_value = x, -value

    best_state = project_normalize(best_x[:dim] + 1j * best_x[dim:])
    report = mutual_information(
        likelihood_table(best_state, geometry, config.report_grid_size))
    return OptimizationResult(best_state=best_state, best_h_bits=report.h_bits,
                              history=history,
                              evaluations=sum(r["nfev"] for r in restarts),
                              restarts=restarts)
