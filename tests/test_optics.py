"""Scattering matrix oracle, closed-form likelihoods, and the amplitude engine."""

import decimal
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
                        Outcome, PhaseGrid, StateCoefficients,
                        error_propagation_sensitivity, fidelity_sweep,
                        fock_outcome_prob, fock_state, likelihood_table,
                        noon_outcome_prob, noon_state, outcome_distribution, optics,
                        repeated_mutual_information, simulate_sequence)
from mzfidelity.cli import MAX_PHOTONS
from mzfidelity.optics import (_beam_splitter, _half_grid_basis, _half_grid_bases,
                               _mirrors_by_half_period, _phase_amplitudes, _roots_of_unity,
                               _sqrt_ratio, _stage_vector)
from oracle import (build_scattering_matrix, partition_weight, transition_amplitude,
                    trapezoid)

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
I_POWERS = (1.0, 1j, -1.0, -1j)


def _random_state(rng, n):
    c = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
    return StateCoefficients(c / np.linalg.norm(c))


def _row_phases(n):
    # W_L's row phases i^(N-m), which the engine leaves out of A
    return np.array(I_POWERS)[(n - np.arange(n + 1)) % 4][:, None]


def _amplitudes(coeffs, phis, geometry):
    # the device's amplitudes W_L (E * (W_R c)), one engine call per phase,
    # with the phases the engine leaves out of A: the row phases and the
    # geometry's global phase e^(i N kl2)
    n = coeffs.size - 1
    columns = [_phase_amplitudes(coeffs, phi, geometry)[:, 0] for phi in phis]
    return _row_phases(n) * np.exp(1j * n * geometry.kl2) * np.stack(columns, axis=1)


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

def test_geometry_rejects_non_finite():
    with pytest.raises(ValueError):
        InterferometerGeometry(kl1=np.inf)
    with pytest.raises(ValueError):
        InterferometerGeometry(kl2=np.nan)


def test_outcome_validation():
    out = Outcome(4, 21)
    assert out.total == 25
    with pytest.raises(ValueError):
        Outcome(-1, 2)
    with pytest.raises(ValueError):
        Outcome(1.5, 0)


# each documented integer check, called with a value that is no integer:
# int() raises OverflowError for an infinity, ValueError for NaN and
# TypeError for None, and "3" and 2.5 convert but do not equal their int
_INTEGER_CHECKS = {
    "PhaseGrid": (PhaseGrid, "grid size must be an integer >= 2"),
    "fock_state": (fock_state, "photon number must be an integer >= 0"),
    "Outcome": (lambda x: Outcome(x, 0), "n_c must be an integer >= 0"),
    "fidelity_sweep": (lambda x: fidelity_sweep("fock", n_max=x),
                       "n_max must be an integer >= 1"),
    "repeated_mutual_information": (
        lambda x: repeated_mutual_information(likelihood_table(fock_state(1), grid_size=8), x),
        "repeats must be an integer >= 1"),
    "simulate_sequence": (lambda x: simulate_sequence(fock_state(1), shots=x),
                          "shots must be an integer >= 1"),
    "OptimizerConfig": (lambda x: OptimizerConfig(restarts=x),
                        "restarts must be an integer >= 1"),
}


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, None, "3", 2.5])
@pytest.mark.parametrize("check", sorted(_INTEGER_CHECKS))
def test_integer_checks_reject_non_finite_values(check, value):
    call, message = _INTEGER_CHECKS[check]
    with pytest.raises(ValueError, match=message):
        call(value)


def test_state_coefficients_validation():
    with pytest.raises(ValueError):
        StateCoefficients(np.array([0.5, 0.5]))  # norm^2 = 0.5
    with pytest.raises(ValueError):
        StateCoefficients(np.array([np.nan + 0j]))
    for coeffs in ([], np.full((2, 2), 0.5)):
        with pytest.raises(ValueError, match="non-empty 1-D array"):
            StateCoefficients(coeffs)
    state = fock_state(3)
    assert state.n == 3
    assert state.coeffs[3] == 1.0
    noon = noon_state(3)
    assert noon.coeffs[0] == noon.coeffs[3] == pytest.approx(1 / math.sqrt(2))
    with pytest.raises(ValueError):
        noon_state(0)
    with pytest.raises(ValueError):
        fock_state(-1)


# ---------------------------------------------------------------------------
# scattering matrix (the test oracle)
# ---------------------------------------------------------------------------

def test_matrix_at_zero_phase_swaps_ports():
    # a single photon entering port a exits port d with certainty
    s = build_scattering_matrix(0.0)
    np.testing.assert_allclose(s.entries, -1j * SIGMA_X, atol=1e-15)
    assert abs(transition_amplitude(s, 1, 0, 0, 1)) ** 2 == pytest.approx(1.0, abs=1e-15)


def test_matrix_at_pi_transmits():
    s = build_scattering_matrix(np.pi)
    np.testing.assert_allclose(s.entries, -SIGMA_Z, atol=1e-15)
    assert abs(transition_amplitude(s, 1, 0, 1, 0)) ** 2 == pytest.approx(1.0, abs=1e-15)


def test_matrix_rejects_non_finite_phase():
    with pytest.raises(ValueError):
        build_scattering_matrix(np.inf)


@pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf, np.float64(-math.inf)])
def test_single_phase_paths_reject_non_finite_phase(phi):
    for call in (lambda: outcome_distribution(fock_state(2), phi),
                 lambda: error_propagation_sensitivity(fock_state(2), working_point=phi),
                 lambda: simulate_sequence(fock_state(2), true_phase=phi)):
        with pytest.raises(ValueError, match="phase values must be finite"):
            call()


@pytest.mark.parametrize("phi", [1e308, -1e308])
def test_single_phase_paths_reduce_huge_finite_phases(phi):
    # n phi overflows at such a phase; the engine first reduces phi by whole
    # turns, exactly, so each result is the one at the reduced phase
    reduced = math.remainder(phi, 2 * math.pi)
    state = fock_state(3)
    probs = outcome_distribution(state, phi)
    assert np.all(np.isfinite(probs)) and probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert probs.tobytes() == outcome_distribution(state, reduced).tobytes()
    estimate = error_propagation_sensitivity(state, working_point=phi)
    assert all(map(math.isfinite, vars(estimate).values()))
    assert vars(estimate) == vars(error_propagation_sensitivity(state, working_point=reduced))
    drawn, expected = (simulate_sequence(state, true_phase=phase, shots=50, grid_size=64)
                       for phase in (phi, reduced))
    assert drawn.record.outcomes == expected.record.outcomes
    assert (drawn.final_posterior.density.tobytes()
            == expected.final_posterior.density.tobytes())


def test_huge_geometry_phases_reduce_to_one_offset():
    # each arm's phase is reduced by whole turns, exactly, before the offset
    # kl1 - kl2 is formed, so a table under huge arm phases is finite and
    # equals the table under the reduced ones; on [-pi, pi] nothing changes
    tau = 2 * math.pi
    huge = InterferometerGeometry(1e308, -1e308)
    reduced = InterferometerGeometry(math.remainder(1e308, tau), math.remainder(-1e308, tau))
    rng = np.random.default_rng(1)
    for state in (fock_state(3), noon_state(3), _random_state(rng, 10)):
        probs = likelihood_table(state, huge, 64).probs
        assert np.all(np.isfinite(probs))
        np.testing.assert_allclose(probs.sum(axis=0), 1.0, atol=1e-12, rtol=0)
        assert probs.tobytes() == likelihood_table(state, reduced, 64).probs.tobytes()
    assert InterferometerGeometry(0.3, -1.1).offset == 0.3 - -1.1
    assert InterferometerGeometry(math.pi, -math.pi).offset == tau


def test_unitarity_random_phases_and_geometries():
    rng = np.random.default_rng(2024)
    phis = rng.uniform(-np.pi, np.pi, size=1000)
    for phi in phis:
        s = build_scattering_matrix(phi)
        assert s.unitarity_defect() < 1e-12
        assert abs(abs(np.linalg.det(s.entries)) - 1.0) < 1e-12
    for _ in range(50):
        geometry = InterferometerGeometry(*rng.uniform(-10, 10, size=2))
        s = build_scattering_matrix(rng.uniform(-np.pi, np.pi), geometry)
        assert s.unitarity_defect() < 1e-12


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def test_fock_prob_examples():
    assert fock_outcome_prob(1, Outcome(0, 1), 0.0) == 1.0
    assert fock_outcome_prob(2, Outcome(1, 1), np.pi / 2) == pytest.approx(0.5, abs=1e-15)
    # photon-number mismatch is dropped by the delta, not an error
    for phi in np.linspace(-np.pi, np.pi, 7):
        assert fock_outcome_prob(3, Outcome(1, 1), phi) == 0.0


def test_fock_prob_bounds_and_symmetry():
    phis = PhaseGrid(257).points
    for n in (1, 7, 25, 40):
        for n_c in range(0, n + 1, max(1, n // 4)):
            p = fock_outcome_prob(n, Outcome(n_c, n - n_c), phis)
            assert np.all((p >= 0) & (p <= 1))
            # swapping the output ports mirrors the phase by half a turn
            q = fock_outcome_prob(n, Outcome(n - n_c, n_c), phis + np.pi)
            np.testing.assert_allclose(p, q, atol=1e-12)


def test_noon_prob_examples():
    assert noon_outcome_prob(1, Outcome(1, 0), 0.0) == pytest.approx(0.5, abs=1e-15)
    phis = PhaseGrid(512).points
    # N=2 coincidence outcome vanishes identically
    assert np.all(noon_outcome_prob(2, Outcome(1, 1), phis) == 0.0)
    # photon-number mismatch is dropped by the delta, for an array phase too
    mismatched = noon_outcome_prob(3, Outcome(1, 1), phis)
    assert mismatched.shape == phis.shape and np.all(mismatched == 0.0)
    # N=1: P(1,0) = (1 - sin phi)/2, which integrates to pi over the period
    p = noon_outcome_prob(1, Outcome(1, 0), phis)
    np.testing.assert_allclose(p, 0.5 * (1.0 - np.sin(phis)), atol=1e-15)
    dense = np.linspace(-np.pi, np.pi, 100001)
    integral = trapezoid(noon_outcome_prob(1, Outcome(1, 0), dense), dense)
    assert integral == pytest.approx(np.pi, abs=1e-8)


# ---------------------------------------------------------------------------
# transition amplitudes (engine) vs closed forms
# ---------------------------------------------------------------------------

def test_single_photon_amplitude_is_matrix_element():
    s = build_scattering_matrix(0.7)
    assert transition_amplitude(s, 1, 0, 1, 0) == pytest.approx(s.entries[0, 0])
    assert transition_amplitude(s, 0, 1, 1, 0) == pytest.approx(s.entries[0, 1])


def test_amplitude_rejects_photon_mismatch():
    s = build_scattering_matrix(0.3)
    with pytest.raises(ValueError, match="mismatch"):
        transition_amplitude(s, 2, 0, 1, 0)
    with pytest.raises(ValueError):
        transition_amplitude(s, -1, 1, 0, 0)


@pytest.mark.parametrize("n", [1, 2, 3, 8, 15])
def test_engine_reproduces_fock_closed_form(n):
    phis = PhaseGrid(64).points
    for phi in phis[::8]:
        s = build_scattering_matrix(phi)
        for n_c in range(n + 1):
            engine = abs(transition_amplitude(s, n, 0, n_c, n - n_c)) ** 2
            exact = fock_outcome_prob(n, Outcome(n_c, n - n_c), phi)
            assert engine == pytest.approx(exact, abs=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 8, 15])
def test_engine_reproduces_noon_closed_form(n):
    # includes the alternating-sign structure, which fixes the matrix
    # index convention
    phis = PhaseGrid(64).points
    state = noon_state(n)
    for phi in phis[::8]:
        for n_c in range(n + 1):
            engine = outcome_distribution(state, phi)[n_c]
            exact = noon_outcome_prob(n, Outcome(n_c, n - n_c), phi)
            assert engine == pytest.approx(exact, abs=1e-12)


def test_completeness_random_states():
    rng = np.random.default_rng(99)
    phis = np.linspace(-np.pi, np.pi, 17)
    for n in (1, 5, 12, 25):
        for _ in range(5):
            state = _random_state(rng, n)
            for phi in phis:
                total = sum(outcome_distribution(state, phi))
                assert total == pytest.approx(1.0, abs=1e-12)


def test_fock_reduction_of_general_state():
    # a coefficient vector with only c_N set must match the closed form
    state = fock_state(6)
    phis = PhaseGrid(32).points
    for phi in phis[::4]:
        for n_c in range(7):
            general = outcome_distribution(state, phi)[n_c]
            exact = fock_outcome_prob(6, Outcome(n_c, 6 - n_c), phi)
            assert general == pytest.approx(exact, abs=1e-13)


# ---------------------------------------------------------------------------
# factorized engine vs the scalar partition sum
# ---------------------------------------------------------------------------

def test_partition_weight_values():
    # single-photon routing weights are the plain matrix-element picks
    assert partition_weight(1, 0, 1, 1) == 1.0
    assert partition_weight(1, 0, 0, 0) == 1.0
    # 2-photon bunching weight sqrt(2): coefficient of the (1,1)->(2,0) path
    assert partition_weight(1, 1, 2, 1) == pytest.approx(np.sqrt(2), abs=1e-16)


def test_vacuum_amplitude_is_one():
    amps = _amplitudes(np.array([1.0 + 0j]), PhaseGrid(16).points,
                       InterferometerGeometry(0.3, -1.1))
    assert amps.shape == (1, 16)
    assert np.all(amps == 1.0)


@pytest.mark.parametrize("n", [1, 7, 40])
def test_engine_matches_partition_sum(n):
    rng = np.random.default_rng(n)
    geometry = InterferometerGeometry(0.3, -1.1)
    coeffs = _random_state(rng, n).coeffs
    phis = rng.uniform(-np.pi, np.pi, size=2)
    amps = _amplitudes(coeffs, phis, geometry)
    for k, phi in enumerate(phis):
        s = build_scattering_matrix(phi, geometry)
        for n_c in range(n + 1):
            expected = sum(coeffs[n_a] * transition_amplitude(s, n_a, n - n_a,
                                                              n_c, n - n_c)
                           for n_a in range(n + 1))
            assert abs(amps[n_c, k] - expected) < 1e-10


@pytest.mark.parametrize("geometry", [DEFAULT_GEOMETRY,
                                      InterferometerGeometry(0.3, -1.1)])
@pytest.mark.parametrize("n,n_c", [(2, 1), (6, 3), (10, 5), (22, 11), (38, 19),
                                   (198, 99)])
def test_cancelling_outcomes_are_exact_zeros(n, n_c, geometry):
    # the two-sided superposition at these outcomes vanishes identically;
    # the engine must produce true zeros, not last-ulp residue
    amps = _amplitudes(noon_state(n).coeffs, PhaseGrid(256).points, geometry)
    assert np.abs(amps[n_c]).max() == 0.0
    # and so must the tables' root-of-unity stage, also on a grid of fewer
    # than N+1 points, where the powers n k wrap around mod M
    for grid_size in (256, 7):
        table = likelihood_table(noon_state(n), geometry, grid_size)
        assert table.probs[n_c].max() == 0.0


@pytest.mark.parametrize("geometry", [DEFAULT_GEOMETRY,
                                      InterferometerGeometry(0.3, -1.1)])
@pytest.mark.parametrize("n", [0, 1, 40, 200])
@pytest.mark.parametrize("grid_size", [2, 3, 7, 257, 1024, 8192])
def test_grid_stage_matches_phase_factors(n, grid_size, geometry):
    # a table's stage at phi_k, k = 0..M/2, is the half-grid basis
    # [cos n phi_k | sin n phi_k] times the stage vector's e^(i n offset)
    basis = _half_grid_basis(n, grid_size)
    half = grid_size // 2 + 1
    assert basis.shape == (n + 1, 2 * half)
    # against one exp per cell; the exps' own angles n (phi + offset) carry a
    # rounding error that grows with n
    phis = -np.pi + 2 * np.pi * np.arange(half) / grid_size
    n_values = np.arange(n + 1)
    stage = ((basis[:, :half] + 1j * basis[:, half:])
             * np.exp(1j * geometry.offset * n_values)[:, None])
    np.testing.assert_allclose(stage, np.exp(1j * np.outer(n_values, phis + geometry.offset)),
                               atol=4e-15 * (n + 1), rtol=0)
    # bit for bit against Re and Im of the gather (-1)^n w^(n k mod M)
    roots = np.exp((2j * np.pi / grid_size) * np.arange(grid_size))
    powers = np.outer(np.arange(n + 1), np.arange(half)) % grid_size
    gathered = np.where((np.arange(n + 1) % 2 == 1)[:, None], -roots[powers], roots[powers])
    assert basis[:, :half].tobytes() == gathered.real.tobytes()
    assert basis[:, half:].tobytes() == gathered.imag.tobytes()
    # the sine at phi = -pi is an exact 0
    assert not basis[:, half].any()
    # the basis and the roots are shared between calls
    with pytest.raises(ValueError):
        basis[0, 0] = 0.0
    with pytest.raises(ValueError):
        _roots_of_unity(grid_size)[0] = 0.0


def test_half_grid_basis_cache_keeps_four_sizes_at_their_most_photons():
    _half_grid_bases.clear()
    first = _half_grid_basis(3, 16)
    # rows 0..N of a larger basis are the basis of N, bit for bit
    larger = _half_grid_basis(9, 16)
    assert larger[:4].tobytes() == first.tobytes()
    assert _half_grid_basis(5, 16).base is larger.base
    for size in (17, 18, 19, 20):
        _half_grid_basis(2, size)
    assert sorted(_half_grid_bases) == [17, 18, 19, 20]
    # the most recently used size is kept
    _half_grid_basis(1, 17)
    _half_grid_basis(1, 21)
    assert sorted(_half_grid_bases) == [17, 19, 20, 21]
    assert len(_half_grid_basis(9, 16)) == 10 and 16 in _half_grid_bases


def test_fidelity_sweep_builds_each_grid_basis_once(monkeypatch):
    # every basis build gathers from the roots once; the tables of a sweep
    # take their rows from the basis the sweep asked for at its largest N
    built = []
    roots_of_unity = optics._roots_of_unity

    def spy(size):
        built.append(size)
        return roots_of_unity(size)

    monkeypatch.setattr(optics, "_roots_of_unity", spy)
    _half_grid_bases.clear()
    for grid_size in (64, 63):
        reports = fidelity_sweep("fock", 12, grid_size=grid_size)
        assert [r.n_photons for r in reports] == list(range(1, 13))
        fidelity_sweep("noon", 7, grid_size=grid_size)
    assert built == [64, 63]
    fidelity_sweep("noon", 13, grid_size=64)
    assert built == [64, 63, 64]


def _direct_entries(n, n_out, n_in):
    # K, W_L and W_R at [n_out, n_in] from the direct Krawtchouk sum, with
    # the magnitude sqrt(k^2 n_out! (N-n_out)! / (n_in! n_b! 2^N)) taken to
    # 80 digits and then rounded to a float
    n_b = n - n_in
    krawtchouk = sum((-1) ** j * math.comb(n_in, j) * math.comb(n_b, n_out - j)
                     for j in range(max(0, n_out - n_b), min(n_in, n_out) + 1))
    if krawtchouk == 0:
        return 0.0, 0j, 0j
    with decimal.localcontext(prec=80):
        ratio = (decimal.Decimal(krawtchouk ** 2 * math.factorial(n_out)
                                 * math.factorial(n - n_out))
                 / (math.factorial(n_in) * math.factorial(n_b) * 2 ** n))
        magnitude = math.copysign(float(ratio.sqrt()), krawtchouk)
    return (magnitude,
            I_POWERS[(n_b - n_out - n_in) % 4] * magnitude,
            I_POWERS[(2 * n_in - n_b) % 4] * magnitude)


def _transfer_matrices(n):
    # W_L = diag(i^(N-m)) K diag(s) and W_R = K diag(p), rebuilt from K
    k, phases, signs = _beam_splitter(n)
    return _row_phases(n) * k * signs, k * phases


def test_transfer_matrices_match_direct_krawtchouk_sums():
    # K bit for bit: the recurrence's integers and a correctly rounded root.
    # W_L and W_R rebuilt from it match by value: their products carry
    # signed zeros
    for n in range(61):
        reference = [np.array([[_direct_entries(n, n_out, n_in)[part]
                                for n_in in range(n + 1)] for n_out in range(n + 1)])
                     for part in range(3)]
        assert _beam_splitter(n)[0].tobytes() == reference[0].tobytes()
        for w, expected in zip(_transfer_matrices(n), reference[1:]):
            assert np.array_equal(w, expected)
    for n in range(MAX_PHOTONS + 1):
        k, _, signs = _beam_splitter(n)
        assert k.tobytes() == k.T.tobytes()
        # s K[m] has -0.0 where K keeps its exact zeros as +0.0, so the
        # flip is checked by value, and the zeros' sign on its own
        assert np.array_equal(k[::-1], k * signs)
        assert not np.signbit(k[k == 0.0]).any()
        assert np.abs(k @ k - np.eye(n + 1)).max() <= 1e-13


@pytest.mark.parametrize("n,rows", [(150, [2, 12]), (MAX_PHOTONS, [48, 152])])
def test_transfer_matrices_are_correctly_rounded(n, rows):
    # rows holding an entry that truncating the root, instead of rounding
    # it, leaves one ulp low, e.g. |K[48, 70]| = 0.05605728228246341 at
    # N = 200, not 0.0560572822824634
    k = _beam_splitter(n)[0]
    w_l, w_r = _transfer_matrices(n)
    for n_out in rows:
        for n_in in range(n + 1):
            magnitude, *expected = _direct_entries(n, n_out, n_in)
            assert k[n_out, n_in] == magnitude
            assert [w_l[n_out, n_in], w_r[n_out, n_in]] == expected


def test_beam_splitter_is_read_only_and_built_from_few_roots(monkeypatch):
    # the cached arrays are shared between callers
    cached = _beam_splitter(MAX_PHOTONS)
    for array in cached:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0.0
    # only the entries with m <= n <= N/2, about 1/8 of them, take a root;
    # K = K^T, K[m, N-n] = (-1)^m K[m, n] and K[N-m] = s K[m] fill in the
    # rest.  A fresh build, past the cache, counts the roots
    calls = []

    def counting_sqrt_ratio(num, den):
        calls.append((num, den))
        return _sqrt_ratio(num, den)

    monkeypatch.setattr(optics, "_sqrt_ratio", counting_sqrt_ratio)
    fresh = _beam_splitter.__wrapped__(MAX_PHOTONS)
    assert 0 < len(calls) <= 0.13 * (MAX_PHOTONS + 1) ** 2
    for array, shared in zip(fresh, cached):
        assert not array.flags.writeable
        assert array.tobytes() == shared.tobytes()


def test_completeness_and_closed_forms_up_to_photon_cap():
    # criteria 01 and 02 stop at N = 25; the CLI accepts N up to MAX_PHOTONS
    rng = np.random.default_rng(4040)
    for n in [*range(26, 41), 60, 100, 150, MAX_PHOTONS]:
        for _ in range(5):
            table = likelihood_table(_random_state(rng, n), grid_size=64)
            np.testing.assert_allclose(table.probs.sum(axis=0), 1.0,
                                       atol=1e-12, rtol=0)
        fock = likelihood_table(fock_state(n), grid_size=256)
        noon = likelihood_table(noon_state(n), grid_size=256)
        phis = fock.grid.points
        for n_c in range(n + 1):
            outcome = Outcome(n_c, n - n_c)
            np.testing.assert_allclose(
                fock.probs[n_c], fock_outcome_prob(n, outcome, phis), atol=1e-10, rtol=0)
            np.testing.assert_allclose(
                noon.probs[n_c], noon_outcome_prob(n, outcome, phis), atol=1e-10, rtol=0)


def test_import_emits_no_warning():
    src = str(Path(mzfidelity.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-W", "error", "-c", "import mzfidelity"],
                            env=dict(os.environ, PYTHONPATH=path),
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


# ---------------------------------------------------------------------------
# likelihood tables
# ---------------------------------------------------------------------------

def test_single_photon_table_rows():
    table = likelihood_table(fock_state(1), grid_size=4)
    phis = table.grid.points
    np.testing.assert_allclose(table.probs[1], np.sin(phis / 2) ** 2, atol=1e-15)
    np.testing.assert_allclose(table.probs[0], np.cos(phis / 2) ** 2, atol=1e-15)


def test_table_columns_sum_to_one():
    rng = np.random.default_rng(5)
    for state in (fock_state(25), noon_state(25), _random_state(rng, 18)):
        table = likelihood_table(state, grid_size=256)
        np.testing.assert_allclose(table.probs.sum(axis=0), 1.0, atol=1e-12)


def _grid_reference(coeffs, grid_size, geometry):
    # the amplitudes on the grid from a stage of one exp per cell, its angle
    # n phi_k = pi n (2k - M) / M reduced exactly to [0, 2 pi)
    n = coeffs.size - 1
    turns = np.outer(np.arange(n + 1), 2 * np.arange(1, grid_size + 1) - grid_size)
    stage = np.exp((1j * np.pi / grid_size) * (turns % (2 * grid_size)))
    return (_beam_splitter(n)[0] * _stage_vector(coeffs, geometry)) @ stage


@pytest.mark.parametrize("n", [40, MAX_PHOTONS])
def test_table_memory_is_about_one_and_a_half_grid_arrays(n):
    # a unit is one complex (N+1) x grid array.  Warm, the cos and sin
    # products of the N/2 + 1 rows computed on an even grid (half a unit)
    # and the real table (half a unit) are alive at once; the squares are
    # taken in place and the mirrored rows are copied, not computed.  Cold,
    # the half-grid basis (half a unit) is built and kept too, from a
    # gather of the roots (half a unit) freed before the table
    grid_size = 8192
    state = _random_state(np.random.default_rng(41), n)
    unit = (n + 1) * grid_size * 16
    likelihood_table(state, grid_size=2)  # builds K
    # the first call at a grid size builds its roots and its basis
    _roots_of_unity.cache_clear()
    _half_grid_bases.clear()
    for bound in (1.75, 1.25):
        tracemalloc.start()
        try:
            likelihood_table(state, grid_size=grid_size)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * unit


@pytest.mark.parametrize("geometry", [DEFAULT_GEOMETRY,
                                      InterferometerGeometry(0.3, -1.1)])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 40, MAX_PHOTONS])
def test_table_rows_mirror_by_half_a_period(n, geometry):
    # swapping the output ports is a phase shift of pi: on an even grid the
    # table copies row N-m from row m rolled by M/2 points, and the middle
    # row of an even N has period pi.  On every grid it agrees with an
    # independent stage to roundoff, and the outcomes that vanish
    # identically (at all 1024 > 2N + 1 points) are exact zeros
    rng = np.random.default_rng(n)
    states = [_random_state(rng, n)] + ([noon_state(n)] if n else [])
    vanishing = [~_grid_reference(state.coeffs, 1024, geometry).any(axis=1) for state in states]
    for grid_size in (2, 3, 7, 8, 257, 1000, 8192):
        for state, zeros in zip(states, vanishing):
            probs = likelihood_table(state, geometry, grid_size).probs
            assert _mirrors_by_half_period(probs) == (grid_size % 2 == 0)
            if grid_size % 2 == 0:
                for m in range(n + 1):
                    assert (probs[n - m].tobytes()
                            == np.roll(probs[m], grid_size // 2).tobytes())
            full = np.abs(_grid_reference(state.coeffs, grid_size, geometry)) ** 2
            np.testing.assert_allclose(probs, full, atol=2e-15, rtol=0)
            assert not probs[zeros].any()


def test_table_grid_size_validation():
    # a size that is not a finite integer is refused, not truncated or overflowed
    message = "grid size must be an integer >= 2"
    for size in (1, 8.7, math.inf, math.nan):
        with pytest.raises(ValueError, match=message):
            PhaseGrid(size)
        with pytest.raises(ValueError, match=message):
            likelihood_table(fock_state(1), grid_size=size)
        with pytest.raises(ValueError, match=message):
            simulate_sequence(fock_state(1), shots=1, grid_size=size)


def test_grid_equality_and_repr():
    assert PhaseGrid(16) == PhaseGrid(16.0)
    assert PhaseGrid(16) != PhaseGrid(17)
    assert PhaseGrid(16) != 16
    assert repr(PhaseGrid(16)) == "PhaseGrid(size=16)"


def test_table_row_lookup():
    table = likelihood_table(fock_state(2), grid_size=8)
    np.testing.assert_array_equal(table.row_for(Outcome(1, 1)), table.probs[1])
    with pytest.raises(ValueError):
        table.row_for(Outcome(1, 0))


def test_two_equal_maxima_of_unbalanced_outcome():
    # the (4, 21) likelihood at 25 photons peaks at +-2*arctan(sqrt(4/21))
    table = likelihood_table(fock_state(25), grid_size=8192)
    row = table.row_for(Outcome(4, 21))
    order = np.argsort(row)
    top_phis = np.sort(table.grid.points[order[-2:]])
    expected = 2.0 * math.atan(math.sqrt(4.0 / 21.0))
    assert row[order[-1]] == pytest.approx(row[order[-2]], rel=1e-9)
    assert top_phis[1] == pytest.approx(expected, abs=table.grid.weight)
    assert top_phis[0] == pytest.approx(-expected, abs=table.grid.weight)


def test_geometry_shift_translates_likelihoods():
    # path-length imbalance only shifts the phase origin
    grid_size = 64
    steps = 5
    delta = steps * 2 * np.pi / grid_size
    state = noon_state(3)
    base = likelihood_table(state, grid_size=grid_size)
    shifted = likelihood_table(state, InterferometerGeometry(kl1=delta),
                               grid_size=grid_size)
    np.testing.assert_allclose(shifted.probs, np.roll(base.probs, -steps, axis=1),
                               atol=1e-12)
    # and at single phases: a call under the arm phases (a, b) is the call at
    # phi + a - b without them, for the distribution, the slope and delta_m
    rng = np.random.default_rng(33)
    for n in (1, 10, 40):
        for _ in range(10):
            state = _random_state(rng, n)
            kl1, kl2 = rng.uniform(-10.0, 10.0, size=2)
            phi = rng.uniform(-np.pi, np.pi)
            geometry = InterferometerGeometry(kl1, kl2)
            np.testing.assert_allclose(outcome_distribution(state, phi, geometry),
                                       outcome_distribution(state, phi + kl1 - kl2),
                                       atol=1e-14, rtol=0)
            shifted = error_propagation_sensitivity(state, geometry, phi)
            reduced = error_propagation_sensitivity(state, working_point=phi + kl1 - kl2)
            assert shifted.slope == pytest.approx(reduced.slope, abs=1e-15 * (n + 1) ** 2, rel=0)
            assert shifted.delta_m == pytest.approx(reduced.delta_m, abs=1e-15 * (n + 1), rel=0)
