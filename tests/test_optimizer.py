"""Coefficient projection, the objective's gradient and the fidelity maximizer."""

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
from mzfidelity.cli import MAX_PHOTONS
from mzfidelity.optimizer import _negative_information

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
    assert state.label == "custom"


def test_project_normalize_rejects_zero():
    with pytest.raises(ValueError, match="zero"):
        project_normalize(np.zeros(4))


def test_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(restarts=0)
    with pytest.raises(ValueError):
        OptimizerConfig(tol_bits=0.0)
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
    objective = _negative_information(n, PhaseGrid(1024), geometry)
    dim = n + 1
    for _ in range(3):
        # unnormalized points: the gradient must carry the 1/|c| factor
        x = rng.uniform(0.5, 3.0) * rng.standard_normal(2 * dim)
        _, grad = objective(x)
        finite = np.empty_like(x)
        for i in range(x.size):
            step = np.zeros_like(x)
            step[i] = FD_STEP
            finite[i] = (objective(x + step)[0] - objective(x - step)[0]) / (2 * FD_STEP)
        assert np.linalg.norm(grad - finite) <= 1e-6 * np.linalg.norm(grad)
        # H is flat along the scale direction c and the global phase i*c
        phase_direction = np.concatenate([-x[dim:], x[:dim]])
        for direction in (x, phase_direction):
            cosine = grad @ direction / (np.linalg.norm(grad) * np.linalg.norm(direction))
            assert abs(cosine) <= 1e-12


# ---------------------------------------------------------------------------
# optimization
# ---------------------------------------------------------------------------

def test_objective_memory_is_linear_in_photon_number():
    # the objective holds the (N+1) x grid phase stage and amplitudes, not
    # an (N+1)^2 x grid tensor (105 MB at N = 40 on 4096 points)
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
    assert peak < 32 << 20


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


def test_restart_records():
    result = optimize_input_state(2, SMALL)
    assert len(result.restarts) == SMALL.restarts
    for record in result.restarts:
        assert set(record) == {"success", "nit", "nfev", "message"}
        assert record["nit"] <= SMALL.max_iterations
    assert result.evaluations == sum(record["nfev"] for record in result.restarts)


def test_import_leaves_scipy_unloaded():
    src = str(Path(mzfidelity.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import mzfidelity, sys; "
            "assert not any(m.startswith('scipy') for m in sys.modules)")
    result = subprocess.run([sys.executable, "-c", code],
                            env=dict(os.environ, PYTHONPATH=path),
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_photon_number_validation():
    with pytest.raises(ValueError):
        optimize_input_state(0, SMALL)
