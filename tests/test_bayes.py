"""Posterior construction, peak counting, circular statistics, simulation."""

import cmath
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mzfidelity

from mzfidelity import (Outcome, PhaseGrid, StateCoefficients,
                        UndefinedCircularMeanError,
                        ZeroProbabilityOutcomeError, circular_summary,
                        count_peaks, fock_state, likelihood_table, noon_state,
                        posterior_density, posterior_for_outcome,
                        simulate_sequence)
from mzfidelity import bayes
from mzfidelity.bayes import PEAK_REL_THRESHOLD, PhasePosterior, _wrap_angle
from mzfidelity.optics import LikelihoodTable

PHI_STAR_4_21 = 2.0 * math.atan(math.sqrt(4.0 / 21.0))  # 0.823033692...


def _outcomes(table):
    """The outcome of each table row: row m is (m, N-m)."""
    return [Outcome(m, table.n_total - m) for m in range(table.n_total + 1)]


# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------

def test_grid_basics():
    grid = PhaseGrid(8)
    assert grid.points[-1] == np.pi
    assert grid.points[0] == pytest.approx(-np.pi + 2 * np.pi / 8)
    np.testing.assert_allclose(np.diff(grid.points), 2 * np.pi / 8, atol=1e-15)
    assert grid.weight == pytest.approx(2 * np.pi / 8)
    assert grid.integrate(np.ones(8)) == pytest.approx(2 * np.pi)
    with pytest.raises(ValueError):
        PhaseGrid(1)
    assert PhaseGrid(8.0).size == 8


# ---------------------------------------------------------------------------
# posteriors
# ---------------------------------------------------------------------------

def test_posterior_single_photon_closed_form():
    # P(0,1|phi) = cos^2(phi/2) normalizes to cos^2(phi/2)/pi
    table = likelihood_table(fock_state(1), grid_size=1024)
    post = posterior_for_outcome(table, Outcome(0, 1))
    expected = np.cos(post.grid.points / 2) ** 2 / np.pi
    np.testing.assert_allclose(post.density, expected, atol=1e-12)
    assert post.grid.integrate(post.density) == pytest.approx(1.0, abs=1e-10)


def test_posterior_flat_likelihood_is_uniform():
    grid = PhaseGrid(64)
    post = posterior_density(np.full(64, 0.37), grid)
    np.testing.assert_allclose(post.density, 1.0 / (2 * np.pi), atol=1e-15)


def test_posterior_impossible_outcome_raises():
    grid = PhaseGrid(16)
    with pytest.raises(ZeroProbabilityOutcomeError):
        posterior_density(np.zeros(16), grid)
    # the N=2 two-sided superposition cannot produce a coincidence count
    table = likelihood_table(noon_state(2), grid_size=64)
    with pytest.raises(ZeroProbabilityOutcomeError):
        posterior_for_outcome(table, Outcome(1, 1))


def test_posterior_rejects_bad_rows():
    grid = PhaseGrid(8)
    # checked before the integral: not the zero-probability error
    with pytest.raises(ValueError, match="finite and non-negative"):
        posterior_density(np.full(8, -1.0), grid)
    with pytest.raises(ValueError):
        posterior_density(np.ones(4), grid)
    # a posterior checks its own values, however it was built
    for bad in (math.nan, math.inf, -math.inf, -1e-300):
        density = np.full(8, 0.125 / math.pi)
        density[3] = bad
        with pytest.raises(ValueError, match="finite and non-negative"):
            PhasePosterior(grid=grid, density=density)
    # a list is converted once, and every reader takes the array
    posterior = PhasePosterior(grid=grid, density=[0.0, 0.0, 1.0, 3.0, 1.0, 0.0, 0.0, 0.0])
    assert posterior.density.dtype == np.float64
    assert count_peaks(posterior) == 1
    assert posterior.peaks == [(0.0, 3.0)]  # phi_3 = 0


def test_posterior_rejects_density_off_its_grid():
    # a 32-point posterior labelled as 64 points put its peak at pi/2, not pi
    density = posterior_for_outcome(likelihood_table(fock_state(1), grid_size=32),
                                    Outcome(1, 0)).density
    for grid, values in ((PhaseGrid(64), density), (PhaseGrid(32), density[None])):
        with pytest.raises(ValueError, match="posterior density of shape"):
            PhasePosterior(grid=grid, density=values)
    assert count_peaks(PhasePosterior(grid=PhaseGrid(32), density=density)) == 1


def test_posterior_normalization_all_outcomes():
    for state in (fock_state(25), noon_state(25)):
        table = likelihood_table(state, grid_size=512)
        for outcome in _outcomes(table):
            if table.row_for(outcome).sum() == 0:
                continue
            post = posterior_for_outcome(table, outcome)
            assert post.grid.integrate(post.density) == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# peak counting
# ---------------------------------------------------------------------------

def test_two_peaks_for_unbalanced_outcome():
    table = likelihood_table(fock_state(25), grid_size=8192)
    post = posterior_for_outcome(table, Outcome(4, 21))
    assert count_peaks(post) == 2
    locations = [loc for loc, _ in post.peaks]
    assert locations[0] == pytest.approx(-PHI_STAR_4_21, abs=post.grid.weight)
    assert locations[1] == pytest.approx(PHI_STAR_4_21, abs=post.grid.weight)
    heights = [h for _, h in post.peaks]
    assert heights[0] == pytest.approx(heights[1], rel=1e-9)


def test_single_peak_at_half_turn():
    # all photons reflected: density ~ sin^50(phi/2), one periodic maximum at pi
    table = likelihood_table(fock_state(25), grid_size=4096)
    post = posterior_for_outcome(table, Outcome(25, 0))
    assert count_peaks(post) == 1
    assert post.peaks[0][0] == pytest.approx(np.pi, abs=post.grid.weight)


def test_single_peak_at_zero():
    table = likelihood_table(fock_state(25), grid_size=4096)
    post = posterior_for_outcome(table, Outcome(0, 25))
    assert count_peaks(post) == 1
    assert post.peaks[0][0] == pytest.approx(0.0, abs=post.grid.weight)


def test_fock_peak_counts_within_range():
    table = likelihood_table(fock_state(25), grid_size=4096)
    counts = {count_peaks(posterior_for_outcome(table, o)) for o in _outcomes(table)}
    assert counts <= {1, 2}


def test_noon_peak_counts_within_range():
    table = likelihood_table(noon_state(25), grid_size=4096)
    counts = set()
    for outcome in _outcomes(table):
        if table.row_for(outcome).sum() == 0:
            continue
        counts.add(count_peaks(posterior_for_outcome(table, outcome)))
    assert counts <= {1, 2, 3, 4}
    assert max(counts) > 2  # the superposition genuinely adds peaks


def test_plateau_counts_once_including_wraparound():
    grid = PhaseGrid(12)
    density = np.zeros(12)
    density[3:6] = 2.0  # flat-top peak
    density[9] = 1.0
    post = PhasePosterior(grid=grid, density=density / grid.integrate(density))
    assert count_peaks(post) == 2
    assert post.peaks[0][0] == pytest.approx(grid.points[4])
    # same flat top wrapped across the +-pi seam: midpoint of the run
    # covering {pi, -5pi/6} sits at -11pi/12
    density = np.zeros(12)
    density[11] = density[0] = 2.0
    density[5] = 1.0
    post = PhasePosterior(grid=grid, density=density / grid.integrate(density))
    assert count_peaks(post) == 2
    locations = [loc for loc, _ in post.peaks]
    assert locations[0] == pytest.approx(-11 * np.pi / 12)
    assert locations[1] == pytest.approx(0.0, abs=1e-15)


def test_flat_posterior_is_one_whole_circle_plateau():
    grid = PhaseGrid(32)
    post = PhasePosterior(grid=grid, density=np.full(32, 1 / (2 * np.pi)))
    assert count_peaks(post) == 1
    assert post.peaks[0][1] == pytest.approx(1 / (2 * np.pi))
    # round-off ripple on a flat posterior does not add structure
    noisy = np.full(64, 0.5) * (1.0 + 1e-15 * np.random.default_rng(0).standard_normal(64))
    post = PhasePosterior(grid=PhaseGrid(64), density=noisy / PhaseGrid(64).integrate(noisy))
    assert count_peaks(post) == 1


def test_plateau_with_ripple_wraps_across_the_seam():
    grid = PhaseGrid(16)
    density = np.full(16, 0.25)
    density[[14, 15, 0, 1]] = 2.0 * (1.0 + np.array([1e-15, -2e-15, 3e-15, 0.0]))
    density[7] = 1.0
    post = PhasePosterior(grid=grid, density=density)
    assert count_peaks(post) == 2
    # the plateau starts at index 14 and spans 4 points: midpoint -pi + 16.5 w
    assert post.peaks[0] == (pytest.approx(-np.pi + 16.5 * grid.weight - 2 * np.pi,
                                           abs=1e-15), density.max())
    assert post.peaks[1] == (grid.points[7], 1.0)


def test_flat_but_for_ripple_is_located_at_first_exact_change():
    # flat to within the threshold: one whole-circle plateau, starting at
    # the first index whose value differs at all from its predecessor
    grid = PhaseGrid(16)
    density = np.full(16, 1.0)
    density[6:9] += 1e-15
    post = PhasePosterior(grid=grid, density=density)
    assert count_peaks(post) == 1
    assert post.peaks == [(pytest.approx(-np.pi + 14.5 * grid.weight, abs=1e-15),
                           density.max())]


def test_single_drift_boundary_makes_one_plateau():
    # steps of 1e-10 stay under the threshold, the drop of 6.3e-9 does not
    grid = PhaseGrid(64)
    density = np.roll(1.0 + 1e-10 * np.arange(64), 10)
    post = PhasePosterior(grid=grid, density=density)
    assert count_peaks(post) == 1
    # one plateau starting at the drop (index 10), around the whole circle
    assert post.peaks == [(pytest.approx(21 * np.pi / 64, abs=1e-15), density.max())]


def _reference_peaks(density, grid, rel_threshold=PEAK_REL_THRESHOLD):
    """Loop version of count_peaks: run-length encode the cyclic density,
    merge neighbouring runs within the threshold, compare the groups."""
    size = len(density)
    tol = rel_threshold * float(density.max())
    bounds = np.flatnonzero(density != np.roll(density, 1)).tolist()
    runs = [(float(density[start]), start, (stop - start) % size or size)
            for start, stop in zip(bounds, bounds[1:] + bounds[:1])]
    groups = []  # max value, start, length, last run value
    for value, start, length in runs or [(float(density[0]), 0, size)]:
        if groups and abs(value - groups[-1][3]) <= tol:
            groups[-1][0] = max(groups[-1][0], value)
            groups[-1][2] += length
            groups[-1][3] = value
        else:
            groups.append([value, start, length, value])
    if len(groups) > 1 and abs(runs[0][0] - groups[-1][3]) <= tol:
        last = groups.pop()
        groups[0][:3] = [max(groups[0][0], last[0]), last[1], groups[0][2] + last[2]]
    peaks = []
    for i, (value, start, length, _) in enumerate(groups):
        neighbours = (groups[i - 1][0], groups[(i + 1) % len(groups)][0])
        if len(groups) == 1 or (value > max(neighbours) and value > tol):
            location = grid.points[start] + 0.5 * (length - 1) * grid.weight
            peaks.append((_wrap_angle(location), value))
    return sorted(peaks)


def test_peaks_match_loop_reference():
    rng = np.random.default_rng(5)
    posteriors = []
    for size in (8, 16, 64, 256):
        grid = PhaseGrid(size)
        for n in (1, 2, 3, 4, 6, 10, 25):
            coeffs = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
            for state in (fock_state(n), noon_state(n),
                          StateCoefficients(coeffs / np.linalg.norm(coeffs))):
                table = likelihood_table(state, grid_size=size)
                posteriors += [posterior_for_outcome(table, outcome)
                               for outcome in _outcomes(table)
                               if table.probs[outcome.n_c].any()]
        for _ in range(20):  # ripple, drift and step plateaus
            density = (1.0 + 1e-12 * rng.standard_normal(size)
                       + 1e-11 * np.roll(np.arange(size), rng.integers(size))
                       * rng.integers(2) + rng.integers(0, 3, size) * rng.integers(2))
            posteriors.append(PhasePosterior(grid=grid, density=density))
    for post in posteriors:
        expected = _reference_peaks(post.density, post.grid)
        assert count_peaks(post) == len(expected)
        assert post.peaks == expected


def test_relative_threshold_suppresses_ripple():
    grid = PhaseGrid(64)
    density = np.zeros(64)
    density[10] = 1.0
    density[40] = 1e-12  # strict local max, but below 1e-9 of the global max
    post = PhasePosterior(grid=grid, density=density / grid.integrate(density))
    assert count_peaks(post) == 1
    density[40] = 1e-6  # above the relative threshold: a genuine second mode
    post = PhasePosterior(grid=grid, density=density / grid.integrate(density))
    assert count_peaks(post) == 2


def test_peak_narrowing_with_photon_number():
    # more photons sharpen the peak but do not split it
    previous_height = 0.0
    for n in (1, 4, 9, 16, 25):
        table = likelihood_table(fock_state(n), grid_size=2048)
        post = posterior_for_outcome(table, Outcome(0, n))
        assert count_peaks(post) == 1
        height = post.peaks[0][1]
        assert height > previous_height
        previous_height = height


# ---------------------------------------------------------------------------
# circular statistics
# ---------------------------------------------------------------------------

def test_circular_summary_concentrated():
    grid = PhaseGrid(4096)
    center = 0.7
    density = np.exp(-0.5 * ((grid.points - center) / 0.01) ** 2)
    post = posterior_density(density, grid)
    mean, std = circular_summary(post)
    assert mean == pytest.approx(center, abs=1e-6)
    assert std == pytest.approx(0.01, rel=1e-3)


def test_circular_summary_uniform_undefined():
    grid = PhaseGrid(256)
    post = PhasePosterior(grid=grid, density=np.full(256, 1 / (2 * np.pi)))
    with pytest.raises(UndefinedCircularMeanError):
        circular_summary(post)


@pytest.mark.parametrize("size", [2, 3, 7, 1000, 8192])
def test_circular_summary_matches_exponential_resultant(size):
    # the resultant from the cached roots of unity against e^{i phi_k}
    # taken point by point, on odd grids and through the phi = pi column
    grid = PhaseGrid(size)
    rng = np.random.default_rng(size)
    densities = [rng.random(size) ** power for power in (1, 4, 16)]
    for k in (0, size // 2, size - 1):  # point masses, the last at phi = pi
        densities.append(np.zeros(size))
        densities[-1][k] = 1.0
    for density in densities:
        density = density / grid.integrate(density)
        z = grid.integrate(density * np.exp(1j * grid.points))
        mean, std = circular_summary(PhasePosterior(grid=grid, density=density))
        assert abs(cmath.rect(math.exp(-0.5 * std ** 2), mean) - z) <= 2e-15
    uniform = PhasePosterior(grid=grid, density=np.full(size, 1 / (2 * np.pi)))
    with pytest.raises(UndefinedCircularMeanError):  # its z is 0 up to round-off
        circular_summary(uniform)


def test_point_mass_std_is_positive_zero():
    # |z| = 1 gives sqrt(-2 ln 1) = sqrt(-0.0), which is -0.0
    table = likelihood_table(fock_state(1), grid_size=2)
    mean, std = circular_summary(posterior_for_outcome(table, Outcome(1, 0)))
    assert (mean, std) == (math.pi, 0.0)
    assert math.copysign(1.0, std) == 1.0


@pytest.mark.parametrize("size", [2, 3, 8192])
def test_circular_mean_at_pi_is_pi(size):
    # the mean lies on (-pi, pi]: a resultant on the negative real axis,
    # whose imaginary part is 0 or round-off of either sign, gives pi
    grid = PhaseGrid(size)
    density = np.zeros(size)
    density[-1] = 1.0 / grid.weight
    assert circular_summary(PhasePosterior(grid=grid, density=density))[0] == math.pi
    # all mass at pi but a round-off tail at phi = 0 (1e-65 on two points)
    table = likelihood_table(fock_state(3), grid_size=size)
    assert circular_summary(posterior_for_outcome(table, Outcome(3, 0)))[0] == math.pi


@pytest.mark.parametrize("size", [63, 64, 1024, 8192])
def test_mirror_symmetric_posterior_mean_is_zero_or_pi(size):
    # a fock input's likelihoods are even in phi, so Im z is exactly 0 and
    # every defined mean is +0.0 or pi, not round-off such as -9e-16 or
    # -3.1415926535897927 (fock 25, outcome (4, 21) and fock 2, (2, 0))
    means = []
    for n in range(1, 41):
        table = likelihood_table(fock_state(n), grid_size=size)
        for m in range(n + 1):
            try:
                means.append(circular_summary(posterior_for_outcome(table, Outcome(m, n - m)))[0])
            except UndefinedCircularMeanError:
                pass
    assert len(means) > 800
    assert all(mean == math.pi or (mean == 0.0 and math.copysign(1.0, mean) == 1.0)
               for mean in means)


def test_circular_summary_does_not_depend_on_thread_count():
    # the resultant is a BLAS product, whose summation order could follow
    # the thread count
    src = str(Path(mzfidelity.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("from mzfidelity import *; table = likelihood_table(fock_state(25)); "
            "print([repr(circular_summary(posterior_for_outcome(table, Outcome(m, 25 - m))))"
            " for m in range(26)])")
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads)
        result = subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1]


def test_circular_summary_two_peaks_misleading_width():
    # symmetric bimodal posterior: the width statistic is large even though
    # each mode is narrow
    table = likelihood_table(fock_state(25), grid_size=2048)
    post = posterior_for_outcome(table, Outcome(4, 21))
    _, std = circular_summary(post)
    assert std > 0.5


# ---------------------------------------------------------------------------
# simulated measurement records
# ---------------------------------------------------------------------------

def test_simulate_validates_inputs():
    with pytest.raises(ValueError):
        simulate_sequence(fock_state(1), shots=0)
    with pytest.raises(ValueError):
        simulate_sequence(fock_state(1), true_phase=np.nan, shots=1)


def test_simulate_checks_seed_before_any_work(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work done before the seed was checked")

    kwargs = dict(true_phase=0.4, shots=50, grid_size=64)
    seven = simulate_sequence(fock_state(2), seed=7, **kwargs)
    assert simulate_sequence(fock_state(2), seed=7.0, **kwargs).record.outcomes \
        == seven.record.outcomes
    monkeypatch.setattr(bayes, "likelihood_table", no_work)
    monkeypatch.setattr(bayes, "outcome_distribution", no_work)
    for seed in (None, 2.5, "3", -1):
        with pytest.raises(ValueError, match="seed"):
            simulate_sequence(fock_state(2), seed=seed, **kwargs)


def test_simulate_deterministic():
    kwargs = dict(true_phase=1.1, shots=64, seed=1234, grid_size=256)
    a = simulate_sequence(fock_state(2), **kwargs)
    b = simulate_sequence(fock_state(2), **kwargs)
    assert a.record.outcomes == b.record.outcomes
    assert np.array_equal(a.final_posterior.density, b.final_posterior.density)


def test_simulate_single_shot_matches_posterior():
    result = simulate_sequence(fock_state(3), true_phase=0.9, shots=1, seed=5,
                               grid_size=128)
    table = likelihood_table(fock_state(3), grid_size=128)
    expected = posterior_for_outcome(table, result.record.outcomes[0])
    np.testing.assert_allclose(result.final_posterior.density, expected.density,
                               atol=1e-12)


def test_simulate_empirical_frequency():
    # single photon at quarter turn: outcome (1,0) has probability 1/2;
    # 3 sigma around 0.5 over 10^4 shots is +-0.015
    result = simulate_sequence(fock_state(1), true_phase=np.pi / 2, shots=10_000,
                               seed=42, grid_size=64)
    frequency = np.mean([o.n_c for o in result.record.outcomes])
    assert 0.485 <= frequency <= 0.515


def test_simulate_posterior_concentrates_on_sign_pair():
    # sin^2 likelihoods cannot distinguish +-phi: mass settles on both signs
    true_phase = np.pi / 3
    result = simulate_sequence(fock_state(1), true_phase=true_phase, shots=4000,
                               seed=9, grid_size=2048)
    post = result.final_posterior
    assert count_peaks(post) == 2
    locations = sorted(loc for loc, _ in post.peaks)
    assert locations[0] == pytest.approx(-true_phase, abs=0.05)
    assert locations[1] == pytest.approx(true_phase, abs=0.05)


def test_simulate_posterior_ignores_shot_order():
    # recompute the final posterior from the reversed record: the product of
    # likelihood rows does not care about outcome order
    result = simulate_sequence(fock_state(2), true_phase=0.4, shots=16, seed=3,
                               grid_size=256)
    table = likelihood_table(fock_state(2), grid_size=256)
    with np.errstate(divide="ignore"):
        log_rows = np.log(table.probs)
    total = np.zeros(256)
    for outcome in reversed(result.record.outcomes):
        total = total + log_rows[outcome.n_c]
    reversed_density = np.exp(total - total.max())
    reversed_density /= table.grid.integrate(reversed_density)
    np.testing.assert_allclose(result.final_posterior.density, reversed_density,
                               atol=1e-12)


def test_simulate_long_record_matches_exact_sum():
    # 1e5 shots: the final log posterior is the exactly rounded sum of the
    # per-shot log-likelihoods (math.fsum); adding rows shot by shot drifts
    # by ~1e-7 relative here
    rng = np.random.default_rng(0)
    coeffs = rng.normal(size=3) + 1j * rng.normal(size=3)
    state = StateCoefficients(coeffs / np.linalg.norm(coeffs))
    result = simulate_sequence(state, true_phase=0.7, shots=100_000, seed=3,
                               grid_size=64)
    table = likelihood_table(state, grid_size=64)
    counts = np.bincount([o.n_c for o in result.record.outcomes], minlength=3)
    with np.errstate(divide="ignore"):
        log_rows = np.log(table.probs)
    total = np.array([math.fsum(itertools.chain.from_iterable(
        itertools.repeat(float(x), int(m)) for x, m in zip(column, counts)))
        for column in log_rows.T])
    exact = np.exp(total - total.max())
    exact /= table.grid.integrate(exact)
    # atol only admits subnormal values, whose relative precision is lost
    np.testing.assert_allclose(result.final_posterior.density, exact,
                               rtol=1e-9, atol=1e-300)


def test_record_impossible_at_every_phase_has_no_posterior():
    # each outcome of [[1, 0], [0, 1]] rules out the phase where the other
    # is certain, so a record that counts both is impossible everywhere
    table = LikelihoodTable(grid=PhaseGrid(2), probs=np.array([[1.0, 0.0], [0.0, 1.0]]),
                            n_total=1)
    log_likelihood = table.log_likelihood([[1, 1]])[0]
    with pytest.raises(ZeroProbabilityOutcomeError, match="whole grid"):
        bayes._posterior_from_log(log_likelihood, table.grid)
    # impossible at some phases only: exact zeros there, the normalized
    # product of the rows elsewhere
    table.grid = PhaseGrid(4)
    table.probs = np.array([[1.0, 0.5, 0.0, 0.25], [0.0, 0.5, 1.0, 0.75]])
    log_likelihood = table.log_likelihood([[1, 1]])[0]
    density = bayes._posterior_from_log(log_likelihood, table.grid).density
    assert density[0] == density[2] == 0.0
    product = table.probs[0] * table.probs[1]
    np.testing.assert_allclose(density, product / table.grid.integrate(product),
                               rtol=1e-15, atol=0.0)


def test_simulate_never_draws_impossible_outcome():
    result = simulate_sequence(noon_state(2), true_phase=0.8, shots=500, seed=11,
                               grid_size=64)
    assert all(o != Outcome(1, 1) for o in result.record.outcomes)
