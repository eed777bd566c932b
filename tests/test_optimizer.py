"""Coefficient projection, the objective's gradient and the fidelity maximizer."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import mzfidelity
from mzfidelity import (DEFAULT_GEOMETRY, InterferometerGeometry, OptimizerConfig,
                        PhaseGrid, StateCoefficients, fock_state, likelihood_table,
                        mutual_information, noon_state, optimize_input_state,
                        project_normalize)
from mzfidelity.cli import MAX_PHOTONS, main
from mzfidelity.optimizer import (GRADIENT_TOL, _lbfgs, _negative_information,
                                  _wolfe_step)

H_SINGLE_PHOTON = 1.0 / np.log(2.0) - 1.0

SMALL = OptimizerConfig(restarts=4, max_iterations=300, seed=7,
                        search_grid_size=1024, report_grid_size=2048)


def _h_of(state, grid_size=2048):
    return mutual_information(likelihood_table(state, grid_size=grid_size)).h_bits


def _assert_under_holevo_bound(result, chi):
    # H <= chi <= log2(N+1) for the winner of every search
    assert result.best_h_bits <= chi + 1e-12
    assert chi <= math.log2(result.best_state.n + 1) + 1e-12


# ---------------------------------------------------------------------------
# projection
# ---------------------------------------------------------------------------

def test_project_normalize_scales():
    state = project_normalize([0.0, 2.0])
    np.testing.assert_allclose(state.coeffs, [0.0, 1.0], atol=1e-15)


def test_project_normalize_removes_global_phase():
    state = project_normalize([1j, 0.0])
    np.testing.assert_allclose(state.coeffs, [1.0, 0.0], atol=1e-15)
    # the anchor is the first coefficient of non-negligible magnitude
    state = project_normalize([1e-16, 1j])
    assert state.coeffs[1] == pytest.approx(1.0)
    assert state.coeffs[1].imag == 0.0


def test_project_normalize_unit_norm():
    rng = np.random.default_rng(1)
    raw = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    state = project_normalize(raw)
    assert np.sum(np.abs(state.coeffs) ** 2) == pytest.approx(1.0, abs=1e-12)


def test_project_normalize_rejects_zero():
    with pytest.raises(ValueError, match="zero"):
        project_normalize(np.zeros(4))


def test_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(restarts=0)
    with pytest.raises(ValueError):
        OptimizerConfig(tol_bits=0.0)
    with pytest.raises(ValueError):
        OptimizerConfig(tol_bits=math.inf)  # would keep no restart
    with pytest.raises(ValueError):
        OptimizerConfig(max_iterations=-5)


# ---------------------------------------------------------------------------
# objective gradient
# ---------------------------------------------------------------------------

FD_STEP = 1e-5


@pytest.mark.parametrize("geometry", [DEFAULT_GEOMETRY,
                                      InterferometerGeometry(kl1=0.3, kl2=-1.1)])
@pytest.mark.parametrize("n", [1, 5, 12])
def test_gradient_matches_finite_differences(n, geometry):
    rng = np.random.default_rng(1000 + n)
    dim = n + 1
    # the even grid computes the rows m <= N/2 and counts the mirrored
    # ones twice; the odd grid computes all N+1 rows
    for grid_size in (1024, 1023):
        objective = _negative_information(n, PhaseGrid(grid_size), geometry)
        for _ in range(3):
            # unnormalized points: the gradient must carry the 1/|c| factor
            x = rng.uniform(0.5, 3.0) * rng.standard_normal(2 * dim)
            _, grad = objective(x)
            finite = np.empty_like(x)
            for i in range(x.size):
                step = np.zeros_like(x)
                step[i] = FD_STEP
                finite[i] = ((objective(x + step)[0] - objective(x - step)[0])
                             / (2 * FD_STEP))
            assert np.linalg.norm(grad - finite) <= 1e-6 * np.linalg.norm(grad)
            # H is flat along the scale direction c and the global phase i*c
            phase_direction = np.concatenate([-x[dim:], x[:dim]])
            for direction in (x, phase_direction):
                cosine = grad @ direction / (np.linalg.norm(grad)
                                             * np.linalg.norm(direction))
                assert abs(cosine) <= 1e-12


@pytest.mark.parametrize("geometry", [DEFAULT_GEOMETRY,
                                      InterferometerGeometry(kl1=0.3, kl2=-1.1)])
@pytest.mark.parametrize("n", [1, 2, 5, 12, 40])
def test_objective_is_the_tables_information(n, geometry):
    # the objective counts each row m < N/2 for its mirror N-m on an even
    # grid; its H must be the full table's, on an even and an odd grid
    rng = np.random.default_rng(2000 + n)
    x = rng.standard_normal(2 * (n + 1))
    coeffs = x[:n + 1] + 1j * x[n + 1:]
    state = StateCoefficients(coeffs / np.linalg.norm(coeffs))
    for grid_size in (4096, 4095):
        value, _ = _negative_information(n, PhaseGrid(grid_size), geometry)(x)
        table = likelihood_table(state, geometry, grid_size)
        assert -value == pytest.approx(mutual_information(table).h_bits, abs=1e-14)


# ---------------------------------------------------------------------------
# optimization
# ---------------------------------------------------------------------------

def test_objective_memory_is_linear_in_photon_number():
    # the objective holds the (N+1) x grid phase stage and the amplitudes of
    # the N/2 + 1 rows it computes on an even grid, not an (N+1)^2 x grid
    # tensor (105 MB at N = 40 on 4096 points)
    x = np.random.default_rng(40).standard_normal(82)
    tracemalloc.start()
    try:
        objective = _negative_information(40, PhaseGrid(4096),
                                          InterferometerGeometry(0.3, -1.1))
        objective(x)
        objective(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20


def test_objective_invariant_under_global_phase():
    rng = np.random.default_rng(17)
    raw = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    base = project_normalize(raw)
    h_base = _h_of(base, grid_size=512)
    for theta in rng.uniform(0, 2 * np.pi, size=4):
        rotated = StateCoefficients(base.coeffs * np.exp(1j * theta))
        assert _h_of(rotated, grid_size=512) == pytest.approx(h_base, abs=1e-12)


def test_single_photon_optimum_is_a_basis_vector(holevo_bits):
    result = optimize_input_state(1, SMALL)
    assert result.best_h_bits >= H_SINGLE_PHOTON - 1e-6
    _assert_under_holevo_bound(result, holevo_bits(result.best_state.coeffs))
    # the winner is (numerically) all weight on one port
    assert np.abs(result.best_state.coeffs).max() > 0.999
    # dense scan over the whole N=1 state space: nothing beats the
    # one-port state (magnitudes cos t, sin t and a relative phase)
    best_scan = 0.0
    for t in np.linspace(0.0, np.pi / 2, 25):
        for beta in np.linspace(0.0, 2 * np.pi, 24, endpoint=False):
            coeffs = np.array([np.cos(t), np.sin(t) * np.exp(1j * beta)])
            best_scan = max(best_scan, _h_of(StateCoefficients(coeffs),
                                             grid_size=1024))
    assert best_scan <= result.best_h_bits + 1e-6


def test_seeded_benchmarks_are_a_floor(holevo_bits):
    for n in (2, 3):
        result = optimize_input_state(n, SMALL)
        floor = max(_h_of(fock_state(n)), _h_of(noon_state(n)))
        assert result.best_h_bits >= floor - 1e-6
        _assert_under_holevo_bound(result, holevo_bits(result.best_state.coeffs))


def test_result_bookkeeping():
    result = optimize_input_state(2, SMALL)
    assert len(result.history) == SMALL.restarts
    assert result.evaluations > 0
    assert np.sum(np.abs(result.best_state.coeffs) ** 2) == pytest.approx(1.0, abs=1e-12)
    # the reported value is the re-evaluated winner of the restart histories
    assert result.best_h_bits >= max(result.history) - 1e-6


def test_deterministic_for_fixed_seed():
    a = optimize_input_state(2, SMALL)
    b = optimize_input_state(2, SMALL)
    assert a.best_h_bits == b.best_h_bits
    assert np.array_equal(a.best_state.coeffs, b.best_state.coeffs)
    assert a.history == b.history
    assert a.evaluations == b.evaluations


def test_optimizer_works_at_photon_cap(holevo_bits):
    config = OptimizerConfig(restarts=2, search_grid_size=1024)
    result = optimize_input_state(MAX_PHOTONS, config)
    floor = max(_h_of(fock_state(MAX_PHOTONS), grid_size=config.report_grid_size),
                _h_of(noon_state(MAX_PHOTONS), grid_size=config.report_grid_size))
    assert result.best_h_bits >= floor - 1e-6
    _assert_under_holevo_bound(result, holevo_bits(result.best_state.coeffs))


@pytest.mark.parametrize("n", [12, 15, 16, 32, 40, 63, 64])
def test_default_search_grid_finds_the_fine_search_optimum(n):
    coarse = OptimizerConfig(restarts=2, seed=7)
    fine = OptimizerConfig(restarts=2, seed=7, search_grid_size=4096)
    assert coarse.resolved(n).search_grid_size < fine.search_grid_size
    assert (optimize_input_state(n, coarse).best_h_bits
            == pytest.approx(optimize_input_state(n, fine).best_h_bits,
                             abs=coarse.tol_bits))


def test_search_grid_follows_photon_number(tmp_path):
    # 512 points while 32(N+1) <= 512, then 1024; an explicit grid is kept
    assert OptimizerConfig().resolved(15).search_grid_size == 512
    for n in (16, 63, 64):
        assert OptimizerConfig().resolved(n).search_grid_size == 1024
    assert OptimizerConfig(search_grid_size=4096).resolved(3).search_grid_size == 4096
    with pytest.raises(ValueError, match="search_grid_size"):
        OptimizerConfig(search_grid_size=1)
    # the former default grid at N=12 gives the former default optimum
    result = optimize_input_state(12, OptimizerConfig(search_grid_size=1024))
    assert repr(result.best_h_bits) == "1.9400289319822168"
    assert result.evaluations == 300
    # the default search at N=12 runs on the 512-point grid
    assert (optimize_input_state(12).history
            == optimize_input_state(12, OptimizerConfig(search_grid_size=512)).history
            != result.history)
    # the primary JSON and the manifest name the grid that ran
    out = tmp_path / "opt.json"
    assert main(["optimize", "--n", "3", "--restarts", "2", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["config"]["search_grid_size"] == 512
    manifest = json.loads((tmp_path / "opt.json.manifest.json").read_text())
    assert manifest["parameters"]["search_grid"] == 512


MESSAGES = {"H converged": True, "gradient converged": True,
            "iteration limit": False, "line search failed": False}


def _assert_record(record, message, nit=None):
    assert set(record) == {"success", "nit", "nfev", "message"}
    assert record["message"] == message
    assert record["success"] is MESSAGES[message]
    assert nit is None or record["nit"] == nit


def test_restart_records():
    result = optimize_input_state(2, SMALL)
    assert len(result.restarts) == SMALL.restarts
    for record in result.restarts:
        _assert_record(record, record["message"])
        assert record["message"] in ("H converged", "gradient converged")
        assert record["nit"] <= SMALL.max_iterations
    assert result.evaluations == sum(record["nfev"] for record in result.restarts)
    # one iteration from a random seed stops on the budget, not converged
    one = optimize_input_state(2, OptimizerConfig(restarts=3, max_iterations=1, seed=7))
    _assert_record(one.restarts[2], "iteration limit", nit=1)
    assert optimize_input_state(2, SMALL).restarts == result.restarts


def _quadratic(x):
    scales = np.array([1.0, 10.0, 100.0])
    return 0.5 * float(scales @ x ** 2), scales * x


def test_lbfgs_stopping_rules():
    x0 = np.ones(3)
    x, value, record = _lbfgs(_quadratic, x0, 100, 1e-300)
    _assert_record(record, "gradient converged")
    assert np.abs(_quadratic(x)[1]).max() <= GRADIENT_TOL and value == _quadratic(x)[0]
    # a relative reduction of at most 1 always holds for a non-negative value
    _assert_record(_lbfgs(_quadratic, x0, 100, 1.0)[2], "H converged", nit=1)
    _assert_record(_lbfgs(_quadratic, x0, 1, 1e-300)[2], "iteration limit", nit=1)
    # a gradient of the wrong sign: no step along -g lowers the value
    x, value, record = _lbfgs(lambda x: (_quadratic(x)[0], -_quadratic(x)[1]), x0, 100, 1e-7)
    _assert_record(record, "line search failed", nit=0)
    assert np.array_equal(x, x0) and record["nfev"] == 21


def test_wolfe_step_grows_fourfold_then_interpolates():
    def parabola(centre):
        return lambda x: (float((x[0] - centre) ** 2), 2.0 * (x - centre))

    x, direction = np.zeros(1), np.ones(1)
    # slope -200 at 0: steps 1 and 4 keep too steep a slope, 16 is accepted
    fun = parabola(100.0)
    step, value, _, evaluations = _wolfe_step(fun, x, *fun(x), direction, 1.0)
    assert (step, value, evaluations) == (16.0, 84.0 ** 2, 3)
    # 4 overshoots the minimum at 1; the cubic through both ends is exact
    fun = parabola(1.0)
    step, _, _, evaluations = _wolfe_step(fun, x, *fun(x), direction, 4.0)
    assert step == pytest.approx(1.0, abs=1e-12) and evaluations == 2


def test_lbfgs_first_trial_step_is_one_over_gradient_norm():
    points = []

    def recorded(x):
        points.append(x)
        return _quadratic(x)

    x0 = np.array([0.3, 0.4, 0.0])
    gradient = _quadratic(x0)[1]
    _lbfgs(recorded, x0, 1, 1e-7)
    np.testing.assert_allclose(points[1], x0 - gradient / np.linalg.norm(gradient),
                               rtol=1e-15)


def test_lbfgs_minimizes_rosenbrock():
    def rosenbrock(x):
        value = (1.0 - x[0]) ** 2 + 100.0 * (x[1] - x[0] ** 2) ** 2
        grad = np.array([-2.0 * (1.0 - x[0]) - 400.0 * x[0] * (x[1] - x[0] ** 2),
                         200.0 * (x[1] - x[0] ** 2)])
        return value, grad

    x, value, record = _lbfgs(rosenbrock, np.array([-1.2, 1.0]), 200, 1e-300)
    _assert_record(record, "gradient converged")
    np.testing.assert_allclose(x, [1.0, 1.0], atol=1e-4)
    assert record["nfev"] < 60


# default-config (seed 0, 16 restarts) optimum and evaluations of the
# L-BFGS-B search this one replaced
@pytest.mark.parametrize("n,h_bits,evaluations", [(12, 1.9400289319822162, 292),
                                                  (40, 2.925792437374593, 316)])
def test_default_optimum_holds(n, h_bits, evaluations):
    result = optimize_input_state(n)
    assert result.best_h_bits == pytest.approx(h_bits, abs=OptimizerConfig.tol_bits)
    assert result.evaluations <= 1.2 * evaluations


def test_import_leaves_scipy_unloaded():
    src = str(Path(mzfidelity.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import mzfidelity, sys; "
            "assert not any(m.startswith('scipy') for m in sys.modules); "
            "mzfidelity.optimize_input_state(3, mzfidelity.OptimizerConfig(restarts=2)); "
            "assert not any(m.startswith('scipy') for m in sys.modules)")
    result = subprocess.run([sys.executable, "-c", code],
                            env=dict(os.environ, PYTHONPATH=path),
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_photon_number_validation():
    with pytest.raises(ValueError):
        optimize_input_state(0, SMALL)
