"""Search for input states that maximize the interferometer fidelity.

The search runs over the inputs whose phase-stage vector b = s K (p c)
(:func:`~mzfidelity.optics._stage_vector` at offset 0) is real and
palindromic, b_{N-n} = b_n: the shape of Berry and Wiseman's optimal
phase states (PRL 85, 5098 (2000)), and of every optimum found by searching
all inputs.  Its unknowns are y = (b_0 .. b_h-1), h = floor(N/2) + 1.  As
K[m, N-n] = (-1)^m K[m, n], with the weights u_n = 2 (1 for the middle
entry n = N/2 of an even N), z = y/|b| and |b|^2 = sum_n u_n y_n^2, row m's
amplitude is

    a_m(phi) = sum_{n<h} K[m, n] u_n z_n cos((n - N/2) phi),  sin for odd m,

up to a phase, so the rows are two real products, one per parity of m,
with bases built once per search.  So P = a^2 is even in phi, P(m|phi) =
P(m|-phi), and only the columns phi_k >= 0 are computed, each with weight
c_k = 2 for itself and its mirror -phi_k, but c_k = 1 at phi = 0 and pi
(on an odd grid pi is a grid point and 0 is not).  On an even grid only
the rows m <= N/2 are computed, with the multiplicity mu_m of
:func:`~mzfidelity.fidelity._mirror_weights` (1 on an odd grid).  With
P = a^2, I_m = w sum_k c_k P_mk and G = (w/2pi) log2(2pi P / I_m):

    H     = sum_m mu_m sum_k c_k P_mk G_mk,
    g_n   = sum_m K[m, n] u_n sum_k 2 mu_m c_k a_mk G_mk basis_m[n, k],
    dH/dy = (g - u z (g . z)) / |b|,

orthogonal to y, along which H is flat.  H depends on no geometry, which
only shifts P by its offset (the stage vector's factor e^(i n offset)), so
the winner is c = conj(p) K (s b e^(-i n offset)) (:func:`_class_state`),
whose table under the geometry is the search's.

Each restart is an L-BFGS search (Liu and Nocedal, Math. Prog. 45, 503
(1989)) with a strong Wolfe line search (Nocedal and Wright, *Numerical
Optimization*, section 3.5).  It stops when an iteration lowers -H by at
most ``tol_bits`` relative to max(|H_k|, |H_k+1|, 1), or when no gradient
component exceeds GRADIENT_TOL.
"""

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .fidelity import TWO_PI, _mirror_weights, mutual_information
from .grid import DEFAULT_GRID_SIZE, PhaseGrid, _integer
from .optics import (DEFAULT_GEOMETRY, InterferometerGeometry, StateCoefficients,
                     _beam_splitter, _clamp_probs, _distinct_rows, likelihood_table)

ZERO_NORM_TOL = 1e-15
FIRST_NONZERO_TOL = 1e-12
HISTORY_SIZE = 10             # correction pairs the search keeps
WOLFE_DECREASE, WOLFE_CURVATURE = 1e-4, 0.9  # c1 and c2 of the strong Wolfe conditions
GRADIENT_TOL = 1e-5           # a restart ends once no |dH/dy| is larger
LINE_SEARCH_EVALUATIONS = 20  # a line search that needs more fails


@dataclass
class OptimizerConfig:
    """Restart/iteration budget and grids for the coefficient search."""

    restarts: int = 16
    max_iterations: int = 2000
    tol_bits: float = 1e-7
    seed: int = 0
    # measured at the other defaults: for N = 1..200 at seed 0, and N <= 31
    # at seeds 1-3, the optimum this search reports on the report grid is
    # never more than tol_bits below that of a 4096-point search
    search_grid_size: int = 1024
    report_grid_size: int = DEFAULT_GRID_SIZE

    def __post_init__(self):
        for name, minimum in [("restarts", 1), ("max_iterations", 1), ("seed", 0),
                              ("search_grid_size", 2), ("report_grid_size", 2)]:
            setattr(self, name, _integer(getattr(self, name), name, minimum))
        # an infinite tolerance makes best_value + tol_bits NaN: no restart is kept
        if not (math.isfinite(self.tol_bits) and self.tol_bits > 0):
            raise ValueError(f"tol_bits must be finite and positive, got {self.tol_bits!r}")


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
    return StateCoefficients(coeffs)


def _seed_vectors(n_photons: int, config: OptimizerConfig) -> list:
    """Starting halves y: fock, the two-sided input shifted by a quarter
    period, then random draws."""
    rng = np.random.default_rng(config.seed)
    fock = _beam_splitter(n_photons)[0][0, :n_photons // 2 + 1]
    seeds = [fock, fock * np.cos((2 * np.arange(fock.size) - n_photons) * (np.pi / 4))]
    seeds += [rng.standard_normal(fock.size) for _ in range(config.restarts - 2)]
    return seeds[:config.restarts]


def _class_state(y: np.ndarray, n_photons: int,
                 geometry: InterferometerGeometry) -> StateCoefficients:
    """The input whose table under ``geometry`` is the offset-free table of
    the palindromic stage vector b with first half ``y``."""
    k, phases, signs = _beam_splitter(n_photons)
    b = np.concatenate([y, y[:n_photons + 1 - y.size][::-1]])
    offset = np.exp(-1j * geometry.offset * np.arange(n_photons + 1))
    return project_normalize(phases.conj() * (k @ (signs * b * offset)))


def _negative_information(n_photons: int, grid: PhaseGrid):
    """The search objective: y -> (-H, -dH/dy) on ``grid``."""
    dim, half, size = n_photons + 1, n_photons // 2 + 1, grid.size
    rows = _distinct_rows(n_photons, size)
    weights = _mirror_weights(half, dim)  # the middle entry b_{N/2} is its own mirror
    # the columns phi_k >= 0, 2k - M = 0 or 1, .., M: P(m|phi) = P(m|-phi),
    # so each counts twice but phi = 0 and pi, which are their own mirrors
    steps = np.arange(size % 2, size + 1, 2)
    columns = np.where(steps % size == 0, 1.0, 2.0)
    # (n - N/2) phi_k = (2n - N)(2k - M) pi / 2M, reduced exactly to [0, 2pi)
    turns = np.multiply.outer(2 * np.arange(half) - n_photons, steps) % (4 * size)
    angles = (np.pi / (2 * size)) * turns
    bases = (np.cos(angles), np.sin(angles))
    # the rows in two blocks by parity, each on its basis
    first = rows // 2
    blocks = [(slice(None, first), bases[rows % 2]),
              (slice(first, None), bases[(rows - 1) % 2])]
    order = np.r_[rows % 2:rows:2, (rows - 1) % 2:rows:2]
    # each cell counts for its mirror row and its mirror column
    cells = np.multiply.outer(_mirror_weights(rows, dim)[order], columns)
    coupling = _beam_splitter(n_photons)[0][order, :half] * weights

    def objective(y: np.ndarray):
        norm = math.sqrt(weights @ (y * y))
        unit = y / norm
        coeffs = coupling * unit
        amps = np.empty((rows, columns.size))
        for block, basis in blocks:
            np.matmul(coeffs[block], basis, out=amps[block])
        probs = _clamp_probs(np.square(amps))
        # _information_terms with the column weights, which the tables' path does without;
        # dH/dP_mk = (w/2pi) L_mk, as the terms from differentiating I_m cancel
        totals = grid.weight * np.einsum("mk,k->m", probs, columns)
        with np.errstate(divide="ignore", invalid="ignore"):  # rows with I_m = 0
            log_ratio = np.log2((TWO_PI / totals)[:, None] * probs)
        log_ratio[~(probs > 0.0)] = 0.0
        log_ratio *= cells
        terms = (grid.weight / TWO_PI) * np.einsum("mk,mk->m", probs, log_ratio)
        np.multiply(amps, log_ratio, out=amps)
        for block, basis in blocks:
            np.matmul(amps[block], basis.T, out=coeffs[block])
        grad = (2.0 * grid.weight / TWO_PI) * np.einsum("mn,mn->n", coupling, coeffs)
        grad -= weights * unit * (grad @ unit)
        grad /= norm
        return -math.fsum(terms), -grad

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
    """Maximize the fidelity over the inputs with a real, palindromic
    phase-stage vector (see the module docstring).

    Runs ``config.restarts`` independent L-BFGS searches with the analytic
    gradient on the search grid (1024 points by default, at every N) and
    re-evaluates the winner on the reporting grid.  The first starts from
    fock, y = K[0, :h], the second from the two-sided input shifted by a
    quarter period, y = K[0, :h] cos((2n - N) pi/4), whose H is the
    two-sided input's on a grid of 4k points and only up to quadrature
    error on others, the rest from random draws.  Each also stops after
    ``config.max_iterations`` iterations.  A later restart replaces the
    incumbent only if it beats it by more than ``config.tol_bits``.  The
    search does not depend on ``geometry``: the winner is the input whose
    table under it is the table the search saw.  Deterministic for a fixed
    seed.  Every restart enters the history; its record says ``success:
    False`` if it hit the iteration budget or its line search failed.

    Returns
    -------
    OptimizationResult
        ``history`` holds one best-found value per restart (search grid)
        and ``restarts`` each restart's convergence record;
        ``best_h_bits`` is the winner re-evaluated on the reporting grid.
    """
    n_photons = _integer(n_photons, "photon number", minimum=1)
    config = config or OptimizerConfig()

    objective = _negative_information(n_photons, PhaseGrid(config.search_grid_size))
    best_y, best_value, history, restarts = None, -np.inf, [], []
    for start in _seed_vectors(n_photons, config):
        y, value, record = _lbfgs(objective, start, config.max_iterations, config.tol_bits)
        history.append(-value)
        restarts.append(record)
        # the optimum is often a continuous family of equal-H states, so a
        # later restart must beat the incumbent by more than the tolerance
        if -value > best_value + config.tol_bits:
            best_y, best_value = y, -value

    best_state = _class_state(best_y, n_photons, geometry)
    report = mutual_information(
        likelihood_table(best_state, geometry, config.report_grid_size))
    return OptimizationResult(best_state=best_state, best_h_bits=report.h_bits,
                              history=history,
                              evaluations=sum(r["nfev"] for r in restarts),
                              restarts=restarts)
