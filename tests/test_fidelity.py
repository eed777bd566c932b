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
from mzfidelity import (InterferometerGeometry, PhaseGrid,
                        ResourceLimitError, StateCoefficients, StationaryPointError,
                        error_propagation_sensitivity, fidelity_sweep,
                        fock_state, heisenberg_limit, likelihood_table,
                        mutual_information, noon_state,
                        repeated_mutual_information, standard_limit)
from mzfidelity import fidelity
from mzfidelity.cli import MAX_PHOTONS
from mzfidelity.optics import LikelihoodTable
from oracle import fock_mutual_information, trapezoid

H_SINGLE_PHOTON = 1.0 / math.log(2.0) - 1.0  # closed form: 0.4426950408889634


def _table_from_rows(rows, n_total=None):
    rows = np.asarray(rows, dtype=float)
    n_total = rows.shape[0] - 1 if n_total is None else n_total
    return LikelihoodTable(grid=PhaseGrid(rows.shape[1]), probs=rows, n_total=n_total)


def _quadrature_oracle(row_functions, n_points=1_000_001):
    """Independent evaluation of the information integral with the trapezoid
    rule on a dense endpoint-inclusive grid."""
    phi = np.linspace(-np.pi, np.pi, n_points)
    total = 0.0
    for f in row_functions:
        p = f(phi)
        norm = trapezoid(p, phi)
        with np.errstate(divide="ignore", invalid="ignore"):
            integrand = np.where(p > 0, p * np.log2(2 * np.pi * p / norm), 0.0)
        total += trapezoid(integrand, phi)
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
    so the cells left out move it by under 1e-20 bits here.  ln k! is a
    running sum of long-double logs, within 5e-15 nats of the exact value
    for k <= 1200.  Rounded to double it would not do: ln 1200! is then
    2.5e-13 nats low, which scales every compound likelihood alike and
    moves H by 1.1e-12 bits at R = 1200.
    """
    n_outcomes, size = probs.shape
    log_factorials = np.cumsum(np.log(np.arange(1, repeats + 1, dtype=np.longdouble)))
    log_factorials = np.concatenate([np.zeros(1, dtype=np.longdouble), log_factorials])
    log_probs = np.log(np.maximum(probs, 1e-300))
    long_log_probs = np.log(np.maximum(probs, 1e-300).astype(np.longdouble))
    total = np.longdouble(0.0)
    for counts in _lexicographic_count_vectors(repeats, n_outcomes):
        log_coeff = log_factorials[repeats] - sum(log_factorials[k] for k in counts)
        keep = np.flatnonzero(np.dot(counts, log_probs) + float(log_coeff) > log_cutoff)
        if keep.size == 0:
            continue
        log_l = log_coeff + sum(k * long_log_probs[m, keep]
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
    assert report.n_photons == 1
    assert report.outcome_count == 2


def test_single_photon_superposition_equals_fock():
    # the two N=1 likelihood sets differ only by a quarter-turn translation
    h_fock = mutual_information(likelihood_table(fock_state(1), grid_size=8192))
    h_noon = mutual_information(likelihood_table(noon_state(1), grid_size=8192))
    assert h_noon.h_bits == pytest.approx(h_fock.h_bits, abs=1e-9)


def test_fock_information_against_exact_beta_binomial():
    # the periodic trapezoid rule overestimates fock H by an h^3 term from
    # the likelihoods' double zeros: 6.31e-12 N bits on 8192 points, and 8
    # times that on half the points.  Every N to 40, then every tenth, to
    # keep it short: the whole range N <= 200 reads 6.3086e-12 N to
    # 6.3095e-12 N
    assert fock_mutual_information(1) == pytest.approx(H_SINGLE_PHOTON, abs=1e-15)
    for n in [*range(1, 41), *range(50, MAX_PHOTONS + 1, 10)]:
        exact = fock_mutual_information(n)
        fine = mutual_information(likelihood_table(fock_state(n), grid_size=8192)).h_bits
        assert 6.2e-12 * n <= fine - exact <= 6.4e-12 * n
        if n in (1, 2, 3, 5, 10, 25, 40, 100, 150, MAX_PHOTONS):
            coarse = mutual_information(likelihood_table(fock_state(n), grid_size=4096)).h_bits
            assert (coarse - exact) / (fine - exact) == pytest.approx(8.0, abs=0.01)


def test_rejects_unnormalized_columns():
    with pytest.raises(ValueError, match="sum to 1"):
        mutual_information(_table_from_rows([np.full(32, 0.3), np.full(32, 0.3)]))
    # a NaN entry passes a plain "defect > tol" check and gives H = nan
    rows = np.full((2, 32), 0.5)
    rows[0, 5] = np.nan
    with pytest.raises(ValueError, match="sum to 1"):
        mutual_information(_table_from_rows(rows))


def test_table_rejects_negative_entries():
    # columns that sum to 1 around a negative cell gave H = 0.6293 bits, and
    # the compound a "max defect nan" after a RuntimeWarning
    probs = np.array([[0.5, 1.2, 0.5, 0.0], [0.5, -0.2, 0.5, 1.0]])
    with pytest.raises(ValueError, match="must not be negative"):
        LikelihoodTable(grid=PhaseGrid(4), probs=probs, n_total=1)


def test_table_converts_array_likes():
    # a nested list raised AttributeError from the column check's .sum
    rows = [[0.5] * 4, [0.5] * 4]
    table = LikelihoodTable(grid=PhaseGrid(4), probs=rows, n_total=1)
    assert isinstance(table.probs, np.ndarray) and table.probs.tolist() == rows
    assert mutual_information(table).h_bits == 0.0
    # a complex array is not cast, which would drop its imaginary part
    for unconvertible in ([[0.5] * 4, [0.5] * 3], {"rows": rows}, np.full((2, 4), 0.5 + 0j)):
        with pytest.raises(ValueError, match="must convert to a float array"):
            LikelihoodTable(grid=PhaseGrid(4), probs=unconvertible, n_total=1)


def test_mirror_weights_double_entries_whose_mirror_is_left_out():
    for total in range(1, 10):
        for kept in range((total + 1) // 2, total + 1):
            expected = [2.0 if total - 1 - n >= kept else 1.0 for n in range(kept)]
            assert fidelity._mirror_weights(kept, total).tolist() == expected
        # every entry kept, as on an odd grid: all count once
        assert fidelity._mirror_weights(total, total).tolist() == [1.0] * total


def test_table_rejects_probs_off_its_grid():
    # fock 1 on 16 points, labelled as 8 or 32 points, gave H = 0.0 or
    # 0.7218 bits instead of 0.4435, and a broadcast error in the compound
    probs = likelihood_table(fock_state(1), grid_size=16).probs
    for size in (8, 32):
        with pytest.raises(ValueError, match=f"2-D probs with {size} columns"):
            LikelihoodTable(grid=PhaseGrid(size), probs=probs, n_total=1)
    for wrong_rank in (probs[0], probs[None]):
        with pytest.raises(ValueError, match="2-D probs with 16 columns"):
            LikelihoodTable(grid=PhaseGrid(16), probs=wrong_rank, n_total=1)
    table = LikelihoodTable(grid=PhaseGrid(16), probs=probs, n_total=1)
    assert mutual_information(table).h_bits == pytest.approx(0.4435, abs=1e-4)


def test_information_does_not_depend_on_thread_count():
    # a BLAS reduction may sum in an order that depends on its thread count
    src = str(Path(mzfidelity.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("from mzfidelity import *; "
            "single = mutual_information(likelihood_table(fock_state(25))); "
            "binomial = repeated_mutual_information(likelihood_table(fock_state(1)), 1200); "
            "split = repeated_mutual_information(likelihood_table(fock_state(3)), 20); "
            "print(repr(single.h_bits), repr(binomial.h_bits), repr(split.h_bits))")
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


def _all_rows_information(table):
    """H as the sum of every row's terms, mirrored rows and all."""
    return max(math.fsum(fidelity._information_terms(table.probs, table.grid.weight)[0]), 0.0)


def test_information_over_distinct_rows_matches_all_rows():
    # on an even grid row N-m of a table is row m rolled by half a period,
    # so its terms equal row m's up to the order of the row sums
    for n in range(1, MAX_PHOTONS + 1):
        for state in (fock_state(n), noon_state(n)):
            table = likelihood_table(state, grid_size=1024)
            assert abs(mutual_information(table).h_bits - _all_rows_information(table)) <= 1e-15
    rng = np.random.default_rng(28)
    for n in range(1, 41):
        coeffs = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
        table = likelihood_table(StateCoefficients(coeffs / np.linalg.norm(coeffs)))
        assert abs(mutual_information(table).h_bits - _all_rows_information(table)) <= 1e-15


def test_information_evaluates_only_distinct_rows(monkeypatch):
    evaluated = []
    information_terms = fidelity._information_terms

    def spy(probs, weight):
        evaluated.append(len(probs))
        return information_terms(probs, weight)

    monkeypatch.setattr(fidelity, "_information_terms", spy)
    rng = np.random.default_rng(5)
    for n in (1, 2, 5, 6):
        coeffs = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
        state = StateCoefficients(coeffs / np.linalg.norm(coeffs))
        even, odd = (likelihood_table(state, grid_size=size) for size in (64, 63))
        raw = rng.uniform(0.01, 1.0, size=(n + 1, 64))
        unmirrored = _table_from_rows(raw / raw.sum(axis=0))
        # the row count is the table's, not n_total's
        mislabelled = _table_from_rows(even.probs, n_total=2 * n + 3)
        for table, rows in ((even, n // 2 + 1), (odd, n + 1), (unmirrored, n + 1),
                            (mislabelled, n // 2 + 1)):
            evaluated.clear()
            h = mutual_information(table).h_bits
            assert evaluated == [rows]
            expected = _all_rows_information(table)
            if rows == n + 1:
                assert h == expected
            else:
                assert abs(h - expected) <= 1e-15


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
    fock = {n: mutual_information(likelihood_table(fock_state(n), grid_size=2048)).h_bits
            for n in range(26, 61)}
    noon = {n: mutual_information(likelihood_table(noon_state(n), grid_size=2048)).h_bits
            for n in range(25, 62)}
    assert all(fock[n] > noon[n] for n in fock)
    assert all(fock[n + 1] > fock[n] for n in range(26, 60))
    assert all(noon[n + 2] > noon[n] for n in range(25, 60))
    assert all(noon[n] < min(noon[n - 1], noon[n + 1]) for n in range(26, 61, 2))
    for n in fock:
        _assert_holevo_bounds(fock[n], holevo_bits(fock_state(n).coeffs), n)
        _assert_holevo_bounds(noon[n], holevo_bits(noon_state(n).coeffs), n)


def test_sweep_validation():
    with pytest.raises(ValueError, match="family"):
        fidelity_sweep("squeezed", 3)
    with pytest.raises(ValueError, match="n_max"):
        fidelity_sweep("fock", 0)
    with pytest.raises(ValueError, match="family"):
        fidelity_sweep([fock_state(2)], 2)


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
    labels = [tuple(row) for block in _count_vectors(repeats, 3, 4) for row in block.tolist()]
    assert labels == sorted(oracle)  # every count vector once, in lexicographic order
    compound_rows = [(counts, oracle[counts]) for counts in labels]
    h_oracle = mutual_information(
        _table_from_rows([row for _, row in compound_rows], n_total=6)).h_bits
    h_package = repeated_mutual_information(table, repeats).h_bits
    assert h_package == pytest.approx(h_oracle, abs=1e-12)
    # columns of the compound distribution are complete
    total = np.sum([row for _, row in compound_rows], axis=0)
    np.testing.assert_allclose(total, 1.0, atol=1e-12)


@pytest.mark.parametrize("n,repeats", [(1, 60), (2, 30), (3, 20), (6, 10), (3, 80)])
def test_repeated_fock_carries_what_the_total_count_does(n, repeats):
    # the total n_c of R uses of |N,0> is sufficient for phi and is
    # distributed as one use of |NR,0>
    compound = repeated_mutual_information(likelihood_table(fock_state(n)), repeats)
    direct = mutual_information(likelihood_table(fock_state(n * repeats)))
    assert compound.h_bits == pytest.approx(direct.h_bits, abs=1e-12)


def test_three_outcome_repeats_hold_at_many_uses():
    # 600 uses of |2,0> carry what 1200 uses of |1,0> do (the total n_c is
    # sufficient for both); with three outcomes the split H(V) - H(V|phi)
    # must hold that to about 2e-12 bits even at R = 600
    compound = repeated_mutual_information(likelihood_table(fock_state(2)), 600)
    direct = repeated_mutual_information(likelihood_table(fock_state(1)), 1200)
    assert compound.h_bits == pytest.approx(direct.h_bits, abs=4e-12)


@pytest.mark.parametrize("family", ["fock", "noon"])
@pytest.mark.parametrize("n,repeats", [(1, 1200), (2, 50), (3, 20)])
def test_repeats_match_long_double_reference(family, n, repeats, holevo_bits):
    state = {"fock": fock_state, "noon": noon_state}[family](n)
    table = likelihood_table(state, grid_size=8192)
    h = repeated_mutual_information(table, repeats).h_bits
    assert h == pytest.approx(_long_double_compound_h(table.probs, repeats), abs=1e-13)
    assert h <= holevo_bits(state.coeffs, repeats) + 1e-12


@pytest.mark.parametrize("n,repeats", [(2, 2), (2, 50), (6, 3)])
def test_repeats_skip_impossible_outcomes(n, repeats, holevo_bits):
    # noon N = 2, 6 have one identically zero row: vectors counting it add
    # exactly nothing, so deleting the row by hand changes no bit of H
    table = likelihood_table(noon_state(n), grid_size=256)
    zero_rows = np.flatnonzero(~table.probs.any(axis=1))
    assert zero_rows.size == 1
    report = repeated_mutual_information(table, repeats)
    pruned = _table_from_rows(np.delete(table.probs, zero_rows, axis=0), n_total=n)
    assert report.h_bits == repeated_mutual_information(pruned, repeats).h_bits
    assert report.h_bits <= holevo_bits(noon_state(n).coeffs, repeats) + 1e-12
    # the count still covers every outcome, as the cap does
    assert report.outcome_count == math.comb(repeats + n, n)
    with pytest.raises(ValueError, match="sum to 1"):
        repeated_mutual_information(_table_from_rows(np.zeros((2, 8))), repeats)


def _rows_with_isolated_zeros():
    # three random rows on 64 points, not band-limited, that vanish at a
    # few phases only
    rng = np.random.default_rng(13)
    rows = rng.uniform(0.1, 1.0, size=(3, 64))
    rows[0, [3, 17]] = 0.0
    rows[2, [17, 40]] = 0.0
    return rows / rows.sum(axis=0)


def test_repeats_with_isolated_zero_cells(monkeypatch):
    # a vector counting a row that vanishes at a few phases has L at or
    # below optics._LOG_ZERO there, which the clip raises to the floor and
    # the floor turns back into an exact 0
    rows = _rows_with_isolated_zeros()
    column_sums = []
    check = fidelity._check_columns

    def record_and_check(sums):
        column_sums.append(sums)
        check(sums)

    monkeypatch.setattr(fidelity, "_check_columns", record_and_check)
    h = repeated_mutual_information(_table_from_rows(rows, n_total=2), 6).h_bits
    assert h == pytest.approx(_long_double_compound_h(rows, 6), abs=1e-13)
    # the compound table's columns: the table checked its own when built
    assert len(column_sums) == 1
    np.testing.assert_allclose(column_sums[0], 1.0, rtol=0.0, atol=1e-13)


def _random_state(rng, n):
    coeffs = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
    return StateCoefficients(coeffs / np.linalg.norm(coeffs))


def _mirror_pairs_by_loop(counts):
    # the sign of v - reverse(v) at the first place they differ, found by a
    # loop over half the bins
    order = np.zeros(len(counts), dtype=np.int64)
    bins = counts.shape[1]
    for j in range(bins // 2):
        np.copyto(order, np.sign(counts[:, j] - counts[:, bins - 1 - j]), where=order == 0)
    keep = order <= 0
    return counts[keep], np.where(order[keep] < 0, 2.0, 1.0)


def test_mirror_pairs_match_the_loop_over_bins():
    rng = np.random.default_rng(5)
    for bins in range(1, 8):
        counts = rng.integers(0, 4, size=(300, bins), dtype=np.int32)
        counts[::5] += counts[::5, ::-1]  # palindromes
        counts[1::7] = counts[1::7, :1]  # rows that repeat one value
        kept, multiplicity = fidelity._mirror_pairs(counts)
        expected_kept, expected_multiplicity = _mirror_pairs_by_loop(counts)
        assert kept.dtype == expected_kept.dtype and np.array_equal(kept, expected_kept)
        assert multiplicity.tobytes() == expected_multiplicity.tobytes()


@pytest.mark.parametrize("n", [2, 3])
def test_repeats_evaluate_one_vector_per_mirror_pair(monkeypatch, n):
    # on an even grid a count vector and its reverse have the same
    # likelihood half a period apart, so one of them is evaluated; on an odd
    # grid every vector is.  Each is evaluated on the smallest divisor of
    # the grid size above N R (even on an even grid), since the rows of a
    # likelihood_table are band-limited to degree N
    evaluated = []
    stream = fidelity._stream_compound

    def counting_stream(*args):
        for multiplicity, log_compound, compound in stream(*args):
            evaluated.append(compound.shape)
            yield multiplicity, log_compound, compound

    monkeypatch.setattr(fidelity, "_stream_compound", counting_stream)
    repeats = 6
    vectors = math.comb(repeats + n, n)
    palindromes = sum(1 for counts in _lexicographic_count_vectors(repeats, n + 1)
                      if counts == counts[::-1])
    state = _random_state(np.random.default_rng(n), n)
    subgrid = {2: 16, 3: 32}[n]
    for grid_size, expected, columns in ((64, (vectors + palindromes) // 2, subgrid),
                                         (63, vectors, 21)):
        evaluated.clear()
        report = repeated_mutual_information(likelihood_table(state, grid_size=grid_size),
                                             repeats)
        assert sum(count for count, _ in evaluated) == expected
        assert {width for _, width in evaluated} == {columns}
        assert report.outcome_count == vectors
    # rows built by hand are not band-limited, so every column is needed
    evaluated.clear()
    repeated_mutual_information(_table_from_rows(_rows_with_isolated_zeros(), n_total=2),
                                repeats)
    assert sum(count for count, _ in evaluated) == math.comb(repeats + 2, 2)
    assert {width for _, width in evaluated} == {64}


def test_repeats_stop_enumerating_past_the_first_half(monkeypatch):
    # on a mirrored table every vector with v_0 > R/2 is the reverse of one
    # before it, so the enumeration stops at the first block of them; one
    # outcome has a single vector, a palindrome, which is still evaluated
    enumerated, evaluated = [], []
    count_vectors, stream = fidelity._count_vectors, fidelity._stream_compound

    def counting_vectors(*args):
        for counts in count_vectors(*args):
            enumerated.append(len(counts))
            yield counts

    def counting_stream(*args):
        for block in stream(*args):
            evaluated.append(len(block[0]))
            yield block

    monkeypatch.setattr(fidelity, "_count_vectors", counting_vectors)
    monkeypatch.setattr(fidelity, "_stream_compound", counting_stream)
    monkeypatch.setattr(fidelity, "_COMPOUND_BLOCK_CELLS", 4 * 64)  # 4 vectors a block
    table = likelihood_table(fock_state(1), grid_size=64)
    h = repeated_mutual_information(table, 60).h_bits
    assert sum(evaluated) == 31  # (j, 60 - j) for j <= 30
    assert sum(enumerated) == 36  # 32 rows, and the block starting at j = 32
    assert h == pytest.approx(_long_double_compound_h(table.probs, 60), abs=1e-13)
    enumerated.clear(), evaluated.clear()
    assert repeated_mutual_information(likelihood_table(fock_state(0), grid_size=64),
                                      3).h_bits == 0.0
    assert enumerated == evaluated == [1]


def test_repeats_on_both_paths_match_long_double_reference():
    geometry = InterferometerGeometry(0.3, -1.1)
    state = _random_state(np.random.default_rng(5), 3)
    # 54 points: the smallest divisor above N R = 18 is 27, but a half
    # period is no whole number of its columns, so all 54 are needed
    for grid_size in (64, 63, 54):
        table = likelihood_table(state, geometry, grid_size)
        h = repeated_mutual_information(table, 6).h_bits
        assert h == pytest.approx(_long_double_compound_h(table.probs, 6), abs=1e-13)
    # an even grid whose rows mirror by half a period except in a few
    # columns: the pairing must follow the table, not the grid's parity
    rng = np.random.default_rng(17)
    first = rng.uniform(0.1, 0.4, size=64)
    last = np.roll(first, 32)
    last[[5, 40, 41]] *= 1.2
    rows = np.array([first, 1.0 - first - last, last])
    h = repeated_mutual_information(_table_from_rows(rows), 6).h_bits
    assert h == pytest.approx(_long_double_compound_h(rows, 6), abs=1e-13)


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


@pytest.mark.parametrize("n, grid_size, repeats", [(8, 64, 12), (60, 2, 3)])
def test_repeats_enumerate_count_vectors_a_block_at_a_time(n, grid_size, repeats):
    # fock 8 x 12: 125,970 vectors over 9 outcomes, enumerated all at once
    # they took 26 MiB.  fock 60 x 3 on 2 points: 39,711 vectors over 61
    # outcomes, where a block sized by the grid alone took 34 MiB of counts
    table = likelihood_table(fock_state(n), grid_size=grid_size)
    tracemalloc.start()
    try:
        report = repeated_mutual_information(table, repeats)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 << 20
    assert report.outcome_count == math.comb(n + repeats, n)


@pytest.mark.parametrize("bins", [1, 2, 3, 5])
@pytest.mark.parametrize("block", [1, 2, 7, 10_000])
def test_count_vector_blocks_are_the_lexicographic_enumeration(bins, block):
    total = 6
    blocks = list(fidelity._count_vectors(total, bins, block))
    assert all(counts.dtype == np.int32 and counts.shape[1] == bins for counts in blocks)
    assert [len(counts) for counts in blocks[:-1]] == [block] * (len(blocks) - 1)
    assert 1 <= len(blocks[-1]) <= block
    assert [tuple(row) for counts in blocks for row in counts.tolist()] == list(
        _lexicographic_count_vectors(total, bins))


@pytest.mark.parametrize("grid_size", [64, 63])
def test_repeats_do_not_depend_on_the_block_size(monkeypatch, grid_size):
    # a one-row block takes another BLAS path for counts @ ln P than a
    # longer one, and rounds differently
    geometry = InterferometerGeometry(0.3, -1.1)
    cases = [(likelihood_table(fock_state(1), geometry, grid_size), 60),
             (likelihood_table(_random_state(np.random.default_rng(5), 3), geometry,
                               grid_size), 6)]
    for table, repeats in cases:
        default = repeated_mutual_information(table, repeats).h_bits
        shapes = []
        stream = fidelity._stream_compound

        def recording_stream(*args):
            for block in stream(*args):
                shapes.append(block[2].shape)
                yield block

        with monkeypatch.context() as patch:
            patch.setattr(fidelity, "_COMPOUND_BLOCK_CELLS", 1)
            patch.setattr(fidelity, "_stream_compound", recording_stream)
            h = repeated_mutual_information(table, repeats).h_bits
        assert {rows for rows, _ in shapes} == {1}
        assert h == pytest.approx(default, abs=1e-14)
        assert h == pytest.approx(_long_double_compound_h(table.probs, repeats), abs=1e-13)


# ---------------------------------------------------------------------------
# error-propagation sensitivity
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 4, 16, 25])
def test_sensitivity_recovers_classical_scaling(n):
    estimate = error_propagation_sensitivity(fock_state(n), working_point=np.pi / 2)
    assert estimate.delta_phi == pytest.approx(standard_limit(n), abs=1e-6)
    assert estimate.delta_phi == pytest.approx(estimate.delta_m / abs(estimate.slope))


@pytest.mark.parametrize("n", [1, 4, 16, 25, 40])
def test_sensitivity_slope_is_exact(n):
    # the mean count of the one-port input is N sin^2(phi/2): slope N sin(phi)/2,
    # and its spread is sqrt(N) |sin(phi)|/2, also where the count is nearly
    # certain (a variance from the outcome pmf was 9.3e-3 off at N = 25, phi =
    # pi - 1e-6; sqrt(N p (1 - p)) in floats is itself 4.4e-5 off there)
    rng = np.random.default_rng(n)
    for phi in [*rng.uniform(0.3, np.pi - 0.3, size=4), np.pi - 1e-3, np.pi - 1e-6]:
        estimate = error_propagation_sensitivity(fock_state(n), working_point=phi)
        expected = n * math.sin(phi) / 2
        assert abs(estimate.slope - expected) <= 1e-12 * abs(expected)
        spread = math.sqrt(n) * abs(math.sin(phi)) / 2
        assert abs(estimate.delta_m - spread) <= 1e-14 * spread


def test_sensitivity_stationary_point():
    with pytest.raises(StationaryPointError):
        error_propagation_sensitivity(fock_state(4), working_point=0.0)
    # the tolerance scales with N, and still passes a real slope: noon 1 at
    # the random phases of the NOON test below (|slope| >= 0.062 there)
    for phi in np.random.default_rng(0).uniform(-np.pi, np.pi, 40):
        estimate = error_propagation_sensitivity(noon_state(1), working_point=phi)
        assert math.isfinite(estimate.delta_phi)


@pytest.mark.parametrize("n", [2, 3, 25, 150, 199, 200])
def test_sensitivity_noon_mean_is_stationary_everywhere(n):
    # the mean count of a NOON input with N >= 2 is N/2 at every phase: <J_x>
    # is 0 and <J_z> is roundoff (at most 1.6e-15 here), which the tolerance,
    # scaled by N/2, must not take for a slope
    for phi in np.random.default_rng(0).uniform(-np.pi, np.pi, 40):
        with pytest.raises(StationaryPointError):
            error_propagation_sensitivity(noon_state(n), working_point=phi)


def test_reference_limits():
    for n in (2, 5, 25):
        assert heisenberg_limit(n) < standard_limit(n)
    assert standard_limit(1) == heisenberg_limit(1) == 1.0
    assert standard_limit(16) == 0.25
    assert heisenberg_limit(16) == 0.0625
