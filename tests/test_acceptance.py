"""Acceptance suite: one test per exit criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.

Criterion 5 is split into three labelled parts.  Part 5c pins how the
two-sided superposition's information depends on photon number.  That
curve does not rise strictly: for even N the phase shift phi -> phi + pi
leaves every outcome probability unchanged, so even-N inputs cannot tell
phi from phi + pi, and at N = 2 no outcome depends on phase at all
(0 bits, below the 1-photon value of 0.4427 bits).  5c checks this
structure: N = 2 is phase-blind, even N has period pi and odd N does
not, each parity rises strictly, and every even N lies below both odd
neighbours.
"""

import math
import time

import numpy as np
import pytest

from mzfidelity import (Outcome, OptimizerConfig, StateCoefficients,
                        count_peaks, error_propagation_sensitivity,
                        fidelity_sweep, fock_outcome_prob, fock_state,
                        likelihood_table, mutual_information, noon_outcome_prob,
                        noon_state, optimize_input_state, posterior_for_outcome,
                        repeated_mutual_information, simulate_sequence,
                        standard_limit)
from mzfidelity.cli import MAX_PHOTONS

H_SINGLE_PHOTON = 1.0 / math.log(2.0) - 1.0
N_MAX = 25
GRID = 8192
# the whole documented range; the orderings hold on 1024 points, whose
# quadrature error (under 1e-6 bits at N = 200) is far below the smallest
# step (0.0035 bits)
WIDE_GRID = 1024


def _report(criterion: str, passed: bool, detail: str):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def sweeps():
    start = time.perf_counter()
    fock = fidelity_sweep("fock", N_MAX, GRID)
    noon = fidelity_sweep("noon", N_MAX, GRID)
    return fock, noon, time.perf_counter() - start


@pytest.fixture(scope="module")
def wide_sweeps():
    fock = [r.h_bits for r in fidelity_sweep("fock", MAX_PHOTONS, WIDE_GRID)]
    noon = [r.h_bits for r in fidelity_sweep("noon", MAX_PHOTONS, WIDE_GRID)]
    return fock, noon


def test_criterion_01_closed_form_equivalence():
    # engine probabilities match both closed forms within 1e-10,
    # all N <= 25, all outcomes, 256 phase points, in under 10 s
    start = time.perf_counter()
    grid_points = None
    worst = 0.0
    for n in range(1, N_MAX + 1):
        fock_table = likelihood_table(fock_state(n), grid_size=256)
        noon_table = likelihood_table(noon_state(n), grid_size=256)
        grid_points = fock_table.grid.points
        for n_c in range(n + 1):
            outcome = Outcome(n_c, n - n_c)
            worst = max(
                worst,
                float(np.abs(fock_table.probs[n_c]
                             - fock_outcome_prob(n, outcome, grid_points)).max()),
                float(np.abs(noon_table.probs[n_c]
                             - noon_outcome_prob(n, outcome, grid_points)).max()),
            )
    elapsed = time.perf_counter() - start
    _report("1", worst < 1e-10 and elapsed < 10.0,
            f"max |engine - closed form| = {worst:.3e} in {elapsed:.2f}s")
    assert worst < 1e-10
    assert elapsed < 10.0


def test_criterion_02_completeness():
    # sum_m P(m|phi) = 1 within 1e-12 for 100 random states per N, on an
    # even grid (rows m > N/2 mirrored) and an odd one (all rows computed)
    rng = np.random.default_rng(20260810)
    worst = 0.0
    for n in range(1, N_MAX + 1):
        for _ in range(100):
            raw = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
            state = StateCoefficients(raw / np.linalg.norm(raw))
            for grid_size in (63, 64):
                table = likelihood_table(state, grid_size=grid_size)
                worst = max(worst, float(np.abs(table.probs.sum(axis=0) - 1.0).max()))
    _report("2", worst < 1e-12, f"max |sum_m P - 1| = {worst:.3e}")
    assert worst < 1e-12


def test_criterion_03_single_photon_value(sweeps):
    fock, _, _ = sweeps
    value = fock[0].h_bits
    error = abs(value - H_SINGLE_PHOTON)
    _report("3", error < 1e-6,
            f"H(1 photon) = {value:.9f} bits vs 1/ln2 - 1 (err {error:.2e})")
    assert error < 1e-6


def test_criterion_04_single_photon_families_agree(sweeps):
    fock, noon, _ = sweeps
    diff = abs(noon[0].h_bits - fock[0].h_bits)
    _report("4", diff < 1e-9, f"|H_noon(1) - H_fock(1)| = {diff:.3e}")
    assert diff < 1e-9


def test_criterion_05a_family_ordering(sweeps):
    fock, noon, elapsed = sweeps
    ordered = all(f.h_bits > n.h_bits for f, n in zip(fock[1:], noon[1:]))
    _report("5a", ordered and elapsed < 60.0,
            f"H_fock(N) > H_noon(N) for N in 2..25 ({elapsed:.1f}s at grid {GRID})")
    assert ordered
    assert elapsed < 60.0


def test_criterion_05a_family_ordering_to_max_photons(wide_sweeps):
    fock, noon = wide_sweeps
    gap = min(f - n for f, n in zip(fock[1:], noon[1:]))
    _report("5a", gap > 0.0, f"H_fock(N) > H_noon(N) for N in 2..{MAX_PHOTONS} "
            f"(min gap {gap:.4f} bits at grid {WIDE_GRID})")
    assert gap > 0.0


def test_criterion_05b_fock_monotone(sweeps):
    fock, _, _ = sweeps
    values = [r.h_bits for r in fock]
    increasing = all(b > a for a, b in zip(values, values[1:]))
    _report("5b", increasing, "one-port input: H strictly increasing in N")
    assert increasing


def test_criterion_05b_fock_monotone_to_max_photons(wide_sweeps):
    fock, _ = wide_sweeps
    step = min(b - a for a, b in zip(fock, fock[1:]))
    _report("5b", step > 0.0, f"one-port input: H strictly increasing in N to "
            f"{MAX_PHOTONS} (min step {step:.4f} bits)")
    assert step > 0.0


def test_criterion_05c_noon_monotone(sweeps):
    # How the two-sided superposition's information depends on N.  Strict
    # growth in N is false for photon counting on this device: for even N
    # the shift phi -> phi + pi maps (sin, cos)(phi/2) to (cos, -sin)(phi/2)
    # and leaves every bracket of noon_outcome_prob unchanged, so no
    # outcome can tell phi from phi + pi and H dips below both odd
    # neighbours.  At N = 2 the coincidence bracket cancels identically and
    # the bunched outcomes are 1/2 each, so no outcome depends on phi.
    _, noon, _ = sweeps
    values = [r.h_bits for r in noon]
    h = dict(enumerate(values, start=1))
    tables = {n: likelihood_table(noon_state(n), grid_size=GRID).probs
              for n in range(1, N_MAX + 1)}

    # 1: N = 2 is phase-blind
    two = tables[2]
    bunched_err = float(np.abs(two[[0, 2]] - 0.5).max())
    blind = (h[2] <= 1e-12 and bool(np.all(two[1] == 0.0))
             and bunched_err <= 1e-14)

    # 2: even N has period pi (half the grid), odd N does not
    shifted = {n: float(np.abs(p - np.roll(p, GRID // 2, axis=1)).max())
               for n, p in tables.items()}
    even_shift = max(shifted[n] for n in range(2, N_MAX + 1, 2))
    odd_shift = min(shifted[n] for n in range(1, N_MAX + 1, 2))
    periodic = even_shift <= 1e-12 and odd_shift > 0.1

    # 3: each parity rises strictly with N
    steps = [b - a for parity in (values[0::2], values[1::2])
             for a, b in zip(parity, parity[1:])]
    parity_monotone = min(steps) > 0.0

    # 4: every even N lies strictly below both odd neighbours
    gaps = [min(h[n - 1], h[n + 1]) - h[n] for n in range(2, N_MAX, 2)]
    alternating = min(gaps) > 0.0

    _report("5c", blind and periodic and parity_monotone and alternating,
            f"N=2 phase-blind (H(2)={h[2]:.3g}, |bunched - 1/2| = "
            f"{bunched_err:.1e}); even-N pi shift <= {even_shift:.1e}, "
            f"odd-N >= {odd_shift:.3f}; odd and even N each strictly "
            f"increasing (min step {min(steps):.4f}); even N below both odd "
            f"neighbours (min gap {min(gaps):.4f})")
    assert blind, ("2-photon outcome probabilities depend on phase: "
                   f"H(2) = {h[2]:.3g}, bunched error {bunched_err:.3g}")
    assert periodic, (f"even-N pi shift {even_shift:.3g} (want <= 1e-12), "
                      f"odd-N pi shift {odd_shift:.3g} (want > 0.1)")
    assert parity_monotone, f"same-parity step {min(steps):.3g} bits <= 0"
    assert alternating, f"even-N gap {min(gaps):.3g} bits <= 0"


def test_criterion_05c_noon_parities_to_max_photons(wide_sweeps):
    # 5c's orderings over the whole range: each parity rises strictly, and
    # every even N lies below its odd neighbours (only N - 1 for the last)
    _, noon = wide_sweeps
    h = dict(enumerate(noon, start=1))
    steps = {parity: min(h[n + 2] - h[n] for n in range(parity, MAX_PHOTONS - 1, 2))
             for parity in (1, 2)}
    gap = min(min(h[n - 1], h.get(n + 1, math.inf)) - h[n]
              for n in range(2, MAX_PHOTONS + 1, 2))
    _report("5c", min(steps.values()) > 0.0 and gap > 0.0,
            f"to N={MAX_PHOTONS}: odd and even N each strictly increasing "
            f"(min steps {steps[1]:.4f}, {steps[2]:.4f}); even N below odd "
            f"neighbours (min gap {gap:.4f})")
    assert steps[1] > 0.0 and steps[2] > 0.0, f"same-parity steps {steps} bits"
    assert gap > 0.0, f"even-N gap {gap:.3g} bits <= 0"


def test_criterion_06_peak_count_ranges():
    fock_counts, noon_counts = set(), set()
    for n in range(1, N_MAX + 1):
        fock_table = likelihood_table(fock_state(n), grid_size=GRID)
        noon_table = likelihood_table(noon_state(n), grid_size=GRID)
        for n_c in range(n + 1):
            outcome = Outcome(n_c, n - n_c)
            fock_counts.add(count_peaks(posterior_for_outcome(fock_table, outcome)))
            if noon_table.probs[n_c].sum() > 0:
                noon_counts.add(count_peaks(posterior_for_outcome(noon_table, outcome)))
    table = likelihood_table(fock_state(25), grid_size=GRID)
    post = posterior_for_outcome(table, Outcome(4, 21))
    n_peaks = count_peaks(post)
    locations = sorted(loc for loc, _ in post.peaks)
    expected = 2.0 * math.atan(math.sqrt(4.0 / 21.0))
    step = 2.0 * np.pi / GRID
    located = (n_peaks == 2
               and abs(locations[0] + expected) <= step
               and abs(locations[1] - expected) <= step)
    ok = fock_counts <= {1, 2} and noon_counts <= {1, 2, 3, 4} and located
    _report("6", ok, f"one-port counts {sorted(fock_counts)}, superposition "
                     f"counts {sorted(noon_counts)}, (4,21) peaks at "
                     f"+-{locations[1]:.6f} vs +-{expected:.6f}")
    assert fock_counts <= {1, 2}
    assert noon_counts <= {1, 2, 3, 4}
    assert located


def test_criterion_07_repeated_single_photon_equivalence(sweeps):
    fock, _, _ = sweeps
    single = likelihood_table(fock_state(1), grid_size=GRID)
    worst = 0.0
    for n in range(1, N_MAX + 1):
        compound = repeated_mutual_information(single, n)
        worst = max(worst, abs(compound.h_bits - fock[n - 1].h_bits))
    _report("7", worst < 1e-9,
            f"max |H(1 photon x N) - H(N-photon)| = {worst:.3e}")
    assert worst < 1e-9


def test_criterion_08_error_propagation_standard_limit():
    worst = 0.0
    for n in (1, 4, 16, 25):
        estimate = error_propagation_sensitivity(
            fock_state(n), working_point=np.pi / 2)
        worst = max(worst, abs(estimate.delta_phi - standard_limit(n)))
    _report("8", worst < 1e-6, f"max |delta_phi - 1/sqrt(N)| = {worst:.3e}")
    assert worst < 1e-6


def test_criterion_09_grid_convergence(sweeps):
    fock, noon, _ = sweeps
    worst = 0.0
    for n in (1, 10, 25):
        for family, coarse in (("fock", fock[n - 1]), ("noon", noon[n - 1])):
            state = fock_state(n) if family == "fock" else noon_state(n)
            fine = mutual_information(likelihood_table(state, grid_size=2 * GRID))
            worst = max(worst, abs(coarse.h_bits - fine.h_bits))
    _report("9", worst < 1e-8, f"max |H(8192) - H(16384)| = {worst:.3e}")
    assert worst < 1e-8


def test_criterion_09_grid_convergence_to_max_photons():
    worst = 0.0
    for n in (MAX_PHOTONS // 2, MAX_PHOTONS):
        for state in (fock_state(n), noon_state(n)):
            coarse, fine = (mutual_information(likelihood_table(state, grid_size=size)).h_bits
                            for size in (GRID, 2 * GRID))
            worst = max(worst, abs(coarse - fine))
    _report("9", worst < 1e-8, f"N = {MAX_PHOTONS // 2}, {MAX_PHOTONS}: "
            f"max |H(8192) - H(16384)| = {worst:.3e}")
    assert worst < 1e-8


def test_criterion_10_optimizer_never_below_benchmarks():
    config = OptimizerConfig(restarts=4, max_iterations=400, seed=20260810,
                             search_grid_size=2048, report_grid_size=GRID)
    start = time.perf_counter()
    worst_margin = np.inf
    for n in range(1, 7):
        result = optimize_input_state(n, config)
        floor = max(
            mutual_information(likelihood_table(fock_state(n), grid_size=GRID)).h_bits,
            mutual_information(likelihood_table(noon_state(n), grid_size=GRID)).h_bits)
        worst_margin = min(worst_margin, result.best_h_bits - floor)
    elapsed = time.perf_counter() - start
    ok = worst_margin >= -1e-6 and elapsed < 300.0
    _report("10", ok, f"min margin over benchmarks = {worst_margin:+.3e} "
                      f"in {elapsed:.1f}s")
    assert worst_margin >= -1e-6
    assert elapsed < 300.0


def test_criterion_11_determinism():
    sim_kwargs = dict(true_phase=0.9, shots=256, seed=77, grid_size=512)
    sim_a = simulate_sequence(fock_state(2), **sim_kwargs)
    sim_b = simulate_sequence(fock_state(2), **sim_kwargs)
    sim_ok = (sim_a.record.outcomes == sim_b.record.outcomes
              and np.array_equal(sim_a.final_posterior.density,
                                 sim_b.final_posterior.density))
    config = OptimizerConfig(restarts=3, max_iterations=150, seed=5,
                             search_grid_size=512, report_grid_size=1024)
    opt_a = optimize_input_state(2, config)
    opt_b = optimize_input_state(2, config)
    opt_ok = (opt_a.best_h_bits == opt_b.best_h_bits
              and np.array_equal(opt_a.best_state.coeffs, opt_b.best_state.coeffs)
              and opt_a.history == opt_b.history)
    _report("11", sim_ok and opt_ok,
            "simulate and optimize reproduce bit-exactly under a fixed seed")
    assert sim_ok
    assert opt_ok
