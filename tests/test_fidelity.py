"""Mutual information, repeated measurements, error-propagation sensitivity."""

import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import mzfidelity
from mzfidelity import (Outcome, PhaseGrid, ResourceLimitError,
                        StateCoefficients, StationaryPointError,
                        error_propagation_sensitivity, fidelity_sweep,
                        fock_state, heisenberg_limit, likelihood_table,
                        mutual_information, noon_state,
                        repeated_mutual_information, standard_limit)
from mzfidelity.optics import LikelihoodTable

H_SINGLE_PHOTON = 1.0 / math.log(2.0) - 1.0  # closed form: 0.4426950408889634


def _table_from_rows(rows, state_label="synthetic", n_total=None):
    rows = np.asarray(rows, dtype=float)
    grid = PhaseGrid(rows.shape[1])
    n_total = rows.shape[0] - 1 if n_total is None else n_total
    outcomes = [Outcome(k, n_total - k) if k <= n_total else (k,)
                for k in range(rows.shape[0])]
    return LikelihoodTable(grid=grid, probs=rows, outcomes=outcomes,
                           state_label=state_label, n_total=n_total)


def _quadrature_oracle(row_functions, n_points=1_000_001):
    """Independent evaluation of the information integral with np.trapezoid
    on a dense endpoint-inclusive grid."""
    phi = np.linspace(-np.pi, np.pi, n_points)
    total = 0.0
    for f in row_functions:
        p = f(phi)
        norm = np.trapezoid(p, phi)
        with np.errstate(divide="ignore", invalid="ignore"):
            integrand = np.where(p > 0, p * np.log2(2 * np.pi * p / norm), 0.0)
        total += np.trapezoid(integrand, phi)
    return total / (2 * np.pi)


def _lexicographic_count_vectors(total, bins):
    if bins == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _lexicographic_count_vectors(total - first, bins - 1):
            yield (first,) + rest


def _long_double_compound_h(probs, repeats, log_cutoff=-60.0):
    """Compound MI of ``repeats`` uses of a table, in np.longdouble.

    A cell with P < e^-60 changes H by less than P (|log2 P| + log2 M) / M,
    so the cells left out move it by under 1e-20 bits here.
    """
    n_outcomes, size = probs.shape
    log_probs = np.log(np.maximum(probs, 1e-300))
    long_log_probs = np.log(np.maximum(probs, 1e-300).astype(np.longdouble))
    total = np.longdouble(0.0)
    for counts in _lexicographic_count_vectors(repeats, n_outcomes):
        log_coeff = math.lgamma(repeats + 1) - sum(math.lgamma(k + 1) for k in counts)
        keep = np.flatnonzero(np.dot(counts, log_probs) + log_coeff > log_cutoff)
        if keep.size == 0:
            continue
        log_l = np.longdouble(log_coeff) + sum(k * long_log_probs[m, keep]
                                               for m, k in enumerate(counts) if k)
        p = np.exp(log_l)
        mass = p.sum()  # I_v M / 2pi
        p_log2_p = (p * log_l).sum() / np.log(np.longdouble(2))
        total += p_log2_p - mass * np.log2(mass / size)
    return float(total / size)


# ---------------------------------------------------------------------------
# mutual information
# ---------------------------------------------------------------------------

def test_phase_independent_table_carries_no_information():
    table = _table_from_rows([np.full(64, 0.5), np.full(64, 0.5)])
    assert mutual_information(table).h_bits == pytest.approx(0.0, abs=1e-12)
    # vacuum input: single certain outcome
    vacuum = likelihood_table(fock_state(0), grid_size=32)
    assert mutual_information(vacuum).h_bits == pytest.approx(0.0, abs=1e-12)


def test_single_photon_value_against_closed_form_and_quadrature():
    report = mutual_information(likelihood_table(fock_state(1), grid_size=8192))
    assert report.h_bits == pytest.approx(H_SINGLE_PHOTON, abs=1e-6)
    oracle = _quadrature_oracle([lambda p: np.sin(p / 2) ** 2,
                                 lambda p: np.cos(p / 2) ** 2])
    assert oracle == pytest.approx(H_SINGLE_PHOTON, abs=1e-9)
    assert report.h_bits == pytest.approx(oracle, abs=1e-9)
    assert report.state_label == "fock"
    assert report.n_photons == 1
    assert report.outcome_count == 2


def test_single_photon_superposition_equals_fock():
    # the two N=1 likelihood sets differ only by a quarter-turn translation
    h_fock = mutual_information(likelihood_table(fock_state(1), grid_size=8192))
    h_noon = mutual_information(likelihood_table(noon_state(1), grid_size=8192))
    assert h_noon.h_bits == pytest.approx(h_fock.h_bits, abs=1e-9)


def test_rejects_unnormalized_columns():
    with pytest.raises(ValueError, match="sum to 1"):
        mutual_information(_table_from_rows([np.full(32, 0.3), np.full(32, 0.3)]))
    # a NaN entry passes a plain "defect > tol" check and gives H = nan
    rows = np.full((2, 32), 0.5)
    rows[0, 5] = np.nan
    with pytest.raises(ValueError, match="sum to 1"):
        mutual_information(_table_from_rows(rows))


def test_information_does_not_depend_on_thread_count():
    # a BLAS reduction may sum in an order that depends on its thread count
    src = str(Path(mzfidelity.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("from mzfidelity import *; "
            "single = mutual_information(likelihood_table(fock_state(25))); "
            "compound = repeated_mutual_information(likelihood_table(fock_state(1)), 1200); "
            "print(repr(single.h_bits), repr(compound.h_bits))")
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads)
        result = subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1]


def test_translation_invariance():
    rng = np.random.default_rng(21)
    table = likelihood_table(noon_state(5), grid_size=512)
    h = mutual_information(table).h_bits
    for shift in rng.integers(1, 512, size=5):
        rolled = _table_from_rows(np.roll(table.probs, int(shift), axis=1),
                                  n_total=5)
        assert mutual_information(rolled).h_bits == pytest.approx(h, abs=1e-10)


def test_information_is_non_negative_and_bounded():
    rng = np.random.default_rng(8)
    for n_rows in (2, 4, 7):
        raw = rng.uniform(0.01, 1.0, size=(n_rows, 128))
        rows = raw / raw.sum(axis=0)
        report = mutual_information(_table_from_rows(rows, n_total=n_rows - 1))
        assert 0.0 <= report.h_bits <= math.log2(n_rows)


def test_bound_counts_only_reachable_outcomes():
    # one outcome never occurs: the bound is log2 of the live outcomes
    rows = np.zeros((3, 256))
    phis = PhaseGrid(256).points
    rows[0] = np.sin(phis / 2) ** 2
    rows[2] = np.cos(phis / 2) ** 2
    report = mutual_information(_table_from_rows(rows, n_total=2))
    assert report.h_bits <= math.log2(2)


def _assert_holevo_bounds(h_bits, chi, n):
    # H <= chi <= log2(N+1)
    assert h_bits <= chi + 1e-12
    assert chi <= math.log2(n + 1) + 1e-12


@pytest.mark.parametrize("family", ["fock", "noon"])
def test_holevo_bound_on_benchmark_sweeps(family, holevo_bits):
    # the acceptance sweeps: N = 1..25 on 8192 points
    builder = {"fock": fock_state, "noon": noon_state}[family]
    for n, report in enumerate(fidelity_sweep(family, 25, 8192), start=1):
        _assert_holevo_bounds(report.h_bits, holevo_bits(builder(n).coeffs), n)


def test_holevo_bound_on_random_states(holevo_bits):
    rng = np.random.default_rng(88)
    for n in (5, 10, 25, 40):
        for _ in range(3):
            raw = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
            state = StateCoefficients(raw / np.linalg.norm(raw))
            h = mutual_information(likelihood_table(state)).h_bits
            _assert_holevo_bounds(h, holevo_bits(state.coeffs), n)


def test_two_photon_superposition_carries_nothing_for_any_measurement(holevo_bits):
    # W_R maps |2,0> + |0,2> onto |1,1> (Hong-Ou-Mandel), so chi = 0
    assert holevo_bits(noon_state(2).coeffs) <= 1e-15


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def test_sweep_orders_and_bounds():
    n_max = 6
    fock = fidelity_sweep("fock", n_max, grid_size=2048)
    noon = fidelity_sweep("noon", n_max, grid_size=2048)
    assert [r.n_photons for r in fock] == list(range(1, n_max + 1))
    fock_h = [r.h_bits for r in fock]
    assert all(b > a for a, b in zip(fock_h, fock_h[1:]))
    for f, n in zip(fock[1:], noon[1:]):
        assert f.h_bits > n.h_bits
    for r in fock + noon:
        assert r.h_bits <= math.log2(r.n_photons + 1)


def test_fock_beats_noon_past_the_acceptance_range(holevo_bits):
    # criteria 5a-5c check N <= 25; here N = 26..60, with noon at 25 and 61
    # as the outer odd neighbours
    fock = {n: r.h_bits for n, r in
            zip(range(26, 61), fidelity_sweep([fock_state(n) for n in range(26, 61)],
                                              grid_size=2048))}
    noon = {n: r.h_bits for n, r in
            zip(range(25, 62), fidelity_sweep([noon_state(n) for n in range(25, 62)],
                                              grid_size=2048))}
    assert all(fock[n] > noon[n] for n in fock)
    assert all(fock[n + 1] > fock[n] for n in range(26, 60))
    assert all(noon[n + 2] > noon[n] for n in range(25, 60))
    assert all(noon[n] < min(noon[n - 1], noon[n + 1]) for n in range(26, 61, 2))
    for n in fock:
        _assert_holevo_bounds(fock[n], holevo_bits(fock_state(n).coeffs), n)
        _assert_holevo_bounds(noon[n], holevo_bits(noon_state(n).coeffs), n)


def test_sweep_accepts_state_list():
    states = [fock_state(2), noon_state(3)]
    reports = fidelity_sweep(states, grid_size=512)
    assert [r.state_label for r in reports] == ["fock", "noon"]
    assert [r.n_photons for r in reports] == [2, 3]


def test_sweep_validation():
    with pytest.raises(ValueError, match="family"):
        fidelity_sweep("squeezed", 3)
    with pytest.raises(ValueError, match="n_max"):
        fidelity_sweep("fock", 0)
    with pytest.raises(ValueError, match="empty"):
        fidelity_sweep([])


# ---------------------------------------------------------------------------
# repeated measurements
# ---------------------------------------------------------------------------

def test_repeat_once_is_identity():
    table = likelihood_table(fock_state(2), grid_size=256)
    base = mutual_information(table)
    rep = repeated_mutual_information(table, 1)
    assert rep.h_bits == pytest.approx(base.h_bits, abs=1e-12)
    assert rep.outcome_count == base.outcome_count


def test_repeating_no_information_gives_no_information():
    table = _table_from_rows([np.full(64, 0.5), np.full(64, 0.5)])
    assert repeated_mutual_information(table, 2).h_bits == pytest.approx(0.0, abs=1e-12)
    # N=2 noon: phase-blind, and the coincidence row is exactly 0 (0 log 0)
    table = likelihood_table(noon_state(2), grid_size=256)
    assert not table.probs[1].any()
    for repeats in (2, 5):
        h = repeated_mutual_information(table, repeats).h_bits
        assert math.isfinite(h) and h <= 1e-12
    # vacuum input: one outcome, so one count vector
    table = likelihood_table(fock_state(0), grid_size=32)
    report = repeated_mutual_information(table, 3)
    assert report.h_bits == 0.0 and report.outcome_count == 1


@pytest.mark.parametrize("repeats", [2, 5, 10])
def test_single_photon_repeats_match_fock(repeats):
    single = likelihood_table(fock_state(1), grid_size=4096)
    compound = repeated_mutual_information(single, repeats)
    direct = mutual_information(likelihood_table(fock_state(repeats), grid_size=4096))
    assert compound.h_bits == pytest.approx(direct.h_bits, abs=1e-9)
    assert compound.n_photons == repeats
    assert compound.outcome_count == repeats + 1
    assert compound.state_label == "fock x" + str(repeats)


def test_compound_distribution_matches_multinomial_oracle():
    # independent enumeration over ordered draws, collapsed onto count vectors
    table = likelihood_table(fock_state(2), grid_size=64)
    repeats = 3
    probs = table.probs
    oracle = {}
    for draw in itertools.product(range(3), repeat=repeats):
        counts = tuple(draw.count(m) for m in range(3))
        p = np.ones(64)
        for m in draw:
            p = p * probs[m]
        oracle[counts] = oracle.get(counts, 0.0) + p
    # reproduce the compound table through the public entry point
    from mzfidelity.fidelity import _count_vectors
    labels = [tuple(row) for row in _count_vectors(repeats, 3).tolist()]
    assert labels == sorted(oracle)  # every count vector once, in lexicographic order
    compound_rows = [(counts, oracle[counts]) for counts in labels]
    h_oracle = mutual_information(
        _table_from_rows([row for _, row in compound_rows], n_total=6)).h_bits
    h_package = repeated_mutual_information(table, repeats).h_bits
    assert h_package == pytest.approx(h_oracle, abs=1e-12)
    # columns of the compound distribution are complete
    total = np.sum([row for _, row in compound_rows], axis=0)
    np.testing.assert_allclose(total, 1.0, atol=1e-12)


@pytest.mark.parametrize("family", ["fock", "noon"])
@pytest.mark.parametrize("n,repeats", [(1, 1200), (2, 50), (3, 20)])
def test_repeats_match_long_double_reference(family, n, repeats):
    table = likelihood_table({"fock": fock_state, "noon": noon_state}[family](n),
                             grid_size=8192)
    h = repeated_mutual_information(table, repeats).h_bits
    assert h == pytest.approx(_long_double_compound_h(table.probs, repeats), abs=1e-13)


@pytest.mark.parametrize("n,repeats", [(2, 2), (2, 50), (6, 3)])
def test_repeats_skip_impossible_outcomes(n, repeats):
    # noon N = 2, 6 have one identically zero row: vectors counting it add
    # exactly nothing, so deleting the row by hand changes no bit of H
    table = likelihood_table(noon_state(n), grid_size=256)
    zero_rows = np.flatnonzero(~table.probs.any(axis=1))
    assert zero_rows.size == 1
    report = repeated_mutual_information(table, repeats)
    pruned = _table_from_rows(np.delete(table.probs, zero_rows, axis=0), n_total=n)
    assert report.h_bits == repeated_mutual_information(pruned, repeats).h_bits
    # the count still covers every outcome, as the cap does
    assert report.outcome_count == math.comb(repeats + n, n)
    with pytest.raises(ValueError, match="sum to 1"):
        repeated_mutual_information(_table_from_rows(np.zeros((2, 8))), repeats)


def test_repeats_resource_cap(monkeypatch):
    table = likelihood_table(fock_state(4), grid_size=32)
    with monkeypatch.context() as patch, pytest.raises(ResourceLimitError):
        patch.setattr("mzfidelity.fidelity.MAX_COUNT_VECTORS", 1000)
        repeated_mutual_information(table, 100)
    with pytest.raises(ValueError):
        repeated_mutual_information(table, 0)
    # 46376 count vectors x 512 points is a 190 MB compound table; streamed
    # in blocks, it runs in a small fraction of that
    table = likelihood_table(fock_state(4), grid_size=512)
    tracemalloc.start()
    try:
        report = repeated_mutual_information(table, 30)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 << 20
    assert report.outcome_count == 46376
    assert mutual_information(table).h_bits < report.h_bits < math.log2(46376)


# ---------------------------------------------------------------------------
# error-propagation sensitivity
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 4, 16, 25])
def test_sensitivity_recovers_classical_scaling(n):
    estimate = error_propagation_sensitivity(fock_state(n), observable="n_c",
                                             working_point=np.pi / 2)
    assert estimate.delta_phi == pytest.approx(standard_limit(n), abs=1e-6)
    assert estimate.delta_phi == pytest.approx(estimate.delta_m / abs(estimate.slope))


@pytest.mark.parametrize("n", [1, 4, 16, 25, 40])
def test_sensitivity_slope_is_exact(n):
    # the mean count of the one-port input is N sin^2(phi/2): slope N sin(phi)/2
    rng = np.random.default_rng(n)
    for phi in rng.uniform(0.3, np.pi - 0.3, size=4):
        estimate = error_propagation_sensitivity(fock_state(n), observable="n_c",
                                                 working_point=phi)
        expected = n * math.sin(phi) / 2
        assert abs(estimate.slope - expected) <= 1e-12 * abs(expected)


def test_sensitivity_other_observables():
    # counting the other port or the count difference gives the same scaling
    for name in ("n_d", "n_c-n_d", "n_c - n_d", "n_c − n_d"):
        estimate = error_propagation_sensitivity(fock_state(9), observable=name,
                                                 working_point=1.0)
        assert estimate.delta_phi == pytest.approx(standard_limit(9), abs=1e-6)
    with pytest.raises(ValueError, match="observable"):
        error_propagation_sensitivity(fock_state(2), observable="parity")


def test_sensitivity_stationary_point():
    with pytest.raises(StationaryPointError):
        error_propagation_sensitivity(fock_state(4), observable="n_c",
                                      working_point=0.0)


def test_reference_limits():
    for n in (2, 5, 25):
        assert heisenberg_limit(n) < standard_limit(n)
    assert standard_limit(1) == heisenberg_limit(1) == 1.0
    assert standard_limit(16) == 0.25
    assert heisenberg_limit(16) == 0.0625
