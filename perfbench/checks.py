"""Correctness gate for benchmark jobs.

Each check raises :class:`CheckFailed` with a reason; the caller counts
the job as failed and carries on with the next one.  The references here
never call the package under test: they are the closed forms of the fock
and NOON families, properties every input state must satisfy (complete
outcomes, degree-N band limit, the port permutation at phi = 0 and pi),
and the reduction formulas of the package docstrings evaluated directly.

CSV output is compared by value, never by bytes: a correct engine change
may flip the 12th printed digit.
"""

import csv
import json
import math

import numpy as np

# sum_m P(m|phi) = 1: criterion 02 states 1e-12 for N <= 25.  Above that
# the package makes no claim yet (7.9e-12 measured at N = 40), so larger N
# is held to 1e-10 and the exact defect is reported as a metric instead.
COMPLETENESS_TOL = 1e-12
COMPLETENESS_TOL_LARGE_N = 1e-10
COMPLETENESS_MAX_N = 25
# |engine - closed form|, criterion 01
CLOSED_FORM_TOL = 1e-10
# agreement of a reduction with its formula evaluated here
REDUCTION_TOL = 1e-9
# a printed value may differ from the exact one by this many units in its
# 12th significant digit (rounding plus a flipped last digit) ...
CSV_DIGIT_UNITS = 1.5
# ... or by this much absolutely, which covers NOON rows near their
# zeros, where the engine's 1e-15 absolute error is a large relative one
CSV_ATOL = 1e-13
# rounding a probability to 12 significant digits moves it by at most
# 5e-13; a column of N+1 of them moves its sum, and about as much its
# band-limit residual, by at most (N+1) times that
PRINTED_ROUNDING = 5e-13
# optimizer: never below the better benchmark state (criterion 10)
BENCHMARK_MARGIN = 1e-6
PROB_FLOOR = 1e-300


class CheckFailed(AssertionError):
    """A job's output failed its correctness check."""


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


def completeness_tol(n):
    return COMPLETENESS_TOL if n <= COMPLETENESS_MAX_N else COMPLETENESS_TOL_LARGE_N


def grid_points(size):
    """The package's uniform grid over (-pi, pi]: -pi + 2 pi k / size, k = 1..size."""
    return np.linspace(-np.pi, np.pi, size + 1)[1:]


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------

def fock_probs(n, phi):
    """P(n_c | phi) for all photons in port a, rows n_c = 0..n."""
    s2, c2 = np.sin(0.5 * phi) ** 2, np.cos(0.5 * phi) ** 2
    rows = np.array([math.comb(n, k) * s2 ** k * c2 ** (n - k) for k in range(n + 1)])
    rows[rows < PROB_FLOOR] = 0.0
    return rows


def noon_probs(n, phi):
    """P(n_c | phi) for (|n,0> + |0,n>)/sqrt(2), rows n_c = 0..n."""
    s, c = np.sin(0.5 * phi), np.cos(0.5 * phi)
    rows = np.array([0.5 * math.comb(n, k)
                     * (s ** k * c ** (n - k) + (-1) ** k * s ** (n - k) * c ** k) ** 2
                     for k in range(n + 1)])
    rows[rows < PROB_FLOOR] = 0.0
    return rows


CLOSED_FORMS = {"fock": fock_probs, "noon": noon_probs}


def mutual_information_bits(probs, weight):
    """H = (1/2pi) sum_m int P log2(2pi P / I_m) dphi on the periodic grid."""
    totals = weight * probs.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(probs > 0.0, probs * np.log2((2.0 * np.pi / totals)[:, None] * probs),
                         0.0)
    return max(weight / (2.0 * np.pi) * float(terms.sum()), 0.0)


def band_limit_residual(probs, degree):
    """Largest deviation of the rows from their Fourier content up to ``degree``.

    Every outcome probability is a trigonometric polynomial of degree N in
    phi, so on a uniform periodic grid this residual is round-off only.
    """
    spectrum = np.fft.rfft(probs, axis=-1)
    spectrum[..., degree + 1:] = 0.0
    return float(np.abs(np.fft.irfft(spectrum, n=probs.shape[-1], axis=-1) - probs).max())


def completeness_defect(probs):
    return float(np.abs(probs.sum(axis=0) - 1.0).max())


# ---------------------------------------------------------------------------
# library outputs
# ---------------------------------------------------------------------------

def check_table(probs, phi, coeffs):
    """Likelihood table of an arbitrary state on the default geometry.

    Checks completeness, non-negativity, the degree-N band limit, and the
    two phases where the device only permutes ports: at phi = pi port a
    maps to c, so P(n_c) = |c_{n_c}|^2; at phi = 0 ports swap, so
    P(n_c) = |c_{N - n_c}|^2.  Returns the completeness defect.
    """
    n = len(coeffs) - 1
    require(probs.shape == (n + 1, len(phi)),
            f"table shape {probs.shape} != ({n + 1}, {len(phi)})")
    require(np.array_equal(phi, grid_points(len(phi))), "grid points differ")
    require(bool(np.all(probs >= 0.0)) and bool(np.all(np.isfinite(probs))),
            "negative or non-finite probability")
    tol = completeness_tol(n)
    defect = completeness_defect(probs)
    require(defect <= tol, f"N={n}: max |sum_m P - 1| = {defect:.3e} > {tol:g}")
    residual = band_limit_residual(probs, n)
    require(residual <= tol, f"N={n}: band-limit residual {residual:.3e} > {tol:g}")
    weights = np.abs(np.asarray(coeffs)) ** 2
    for target, expected in ((np.pi, weights), (0.0, weights[::-1])):
        index = int(np.argmin(np.abs(phi - target)))
        if abs(phi[index] - target) < 1e-12:
            error = float(np.abs(probs[:, index] - expected).max())
            require(error <= tol, f"N={n}: P at phi={target:.3g} off |c|^2 by {error:.3e}")
    return defect


def check_closed_form(probs, phi, family, n):
    """Rows of a fock or NOON table against the closed form; returns max |error|."""
    error = float(np.abs(probs - CLOSED_FORMS[family](n, phi)).max())
    require(error <= CLOSED_FORM_TOL,
            f"{family} N={n}: max |P - closed form| = {error:.3e} > {CLOSED_FORM_TOL:g}")
    return error


def check_mutual_information(h_bits, probs, weight):
    expected = mutual_information_bits(probs, weight)
    require(abs(h_bits - expected) <= REDUCTION_TOL,
            f"mutual information {h_bits!r} != {expected!r}")
    require(h_bits <= math.log2(probs.shape[0]) + REDUCTION_TOL,
            f"mutual information {h_bits!r} exceeds the outcome entropy bound")


def check_posterior(density, row, phi, weight):
    require(np.array_equal(phi, grid_points(len(phi))), "posterior grid points differ")
    expected = row / (weight * row.sum())
    error = float(np.abs(density - expected).max())
    require(error <= REDUCTION_TOL * max(1.0, float(expected.max())),
            f"posterior off row/normalization by {error:.3e}")


def check_peaks(count, peaks, density):
    require(count >= 1 and count == len(peaks), f"peak count {count} vs {len(peaks)} peaks")
    top = float(density.max())
    for location, height in peaks:
        require(-np.pi < location <= np.pi, f"peak location {location!r} outside (-pi, pi]")
        require(0.0 < height <= top * (1 + 1e-12), f"peak height {height!r} out of range")


def check_circular(mean, std, density, phi, weight):
    z = weight * np.sum(density * np.exp(1j * phi))
    expected_mean = float(np.angle(z))
    expected_std = math.sqrt(-2.0 * math.log(min(float(abs(z)), 1.0)))
    require(abs(mean - expected_mean) <= REDUCTION_TOL and abs(std - expected_std)
            <= REDUCTION_TOL, f"circular summary ({mean!r}, {std!r}) != "
                              f"({expected_mean!r}, {expected_std!r})")


def check_point_distribution(pmf, n):
    require(pmf.shape == (n + 1,) and bool(np.all(pmf >= 0.0)), "bad outcome distribution")
    defect = abs(float(pmf.sum()) - 1.0)
    require(defect <= completeness_tol(n), f"N={n}: outcome distribution sums to 1 "
                                           f"+ {defect:.3e}")


def check_sensitivity(estimate, pmf, n):
    """Error propagation: delta_m is the observable's spread under ``pmf``, and no
    state beats the 1/N limit (the phase generator spans 0..N photons)."""
    values = np.arange(n + 1, dtype=np.float64)
    mean = float(values @ pmf)
    delta_m = math.sqrt(max(float(values ** 2 @ pmf) - mean ** 2, 0.0))
    require(abs(estimate.delta_m - delta_m) <= REDUCTION_TOL * max(1.0, delta_m),
            f"delta_m {estimate.delta_m!r} != {delta_m!r}")
    require(math.isfinite(estimate.delta_phi)
            and estimate.delta_phi >= (1.0 - 1e-6) / n,
            f"delta_phi {estimate.delta_phi!r} beats the 1/N limit at N={n}")


def check_repeated(report, single_h_bits, n, repeats, grid_size):
    count = math.comb(repeats + n, n)
    require(report.outcome_count == count, f"{report.outcome_count} count vectors != {count}")
    require(report.grid_size == grid_size, "compound table grid differs")
    require(single_h_bits - REDUCTION_TOL <= report.h_bits
            <= math.log2(count) + REDUCTION_TOL,
            f"compound MI {report.h_bits!r} outside [{single_h_bits!r}, log2 {count}]")


def check_simulation(outcome_counts, pmf, density, phi, weight, true_phase, shots):
    """Sampled outcome frequencies against ``pmf``, and a posterior that puts
    its largest weight next to the true phase (or an exact alias of it)."""
    counts = np.asarray(outcome_counts, dtype=np.float64)
    require(int(counts.sum()) == shots, f"{int(counts.sum())} outcomes != {shots} shots")
    sigma = np.sqrt(shots * pmf * (1.0 - pmf)) + 1.0
    worst = float((np.abs(counts - shots * pmf) / sigma).max())
    require(worst <= 6.0, f"outcome frequencies {worst:.1f} sigma off the distribution")
    require(abs(weight * float(density.sum()) - 1.0) <= REDUCTION_TOL,
            "final posterior is not normalized")
    nearest = int(np.argmin(np.abs(np.angle(np.exp(1j * (phi - true_phase))))))
    window = density[np.arange(nearest - 3, nearest + 4) % len(density)]
    require(float(window.max()) >= 0.1 * float(density.max()),
            f"posterior has no mode near the true phase {true_phase!r}")


def check_optimum(h_bits, n, reference, tolerance):
    """Never below the better benchmark state, never below the pinned
    reference by more than ``tolerance``, never above the outcome entropy."""
    phi = grid_points(8192)
    weight = 2.0 * np.pi / len(phi)
    floor = max(mutual_information_bits(form(n, phi), weight) for form in CLOSED_FORMS.values())
    require(h_bits >= floor - BENCHMARK_MARGIN,
            f"N={n}: optimum {h_bits!r} below the benchmark states ({floor!r})")
    require(h_bits >= reference - tolerance,
            f"N={n}: optimum {h_bits!r} below the pinned {reference!r} - {tolerance:g}")
    require(h_bits <= math.log2(n + 1) + REDUCTION_TOL,
            f"N={n}: optimum {h_bits!r} above log2(N+1)")


# ---------------------------------------------------------------------------
# CLI outputs
# ---------------------------------------------------------------------------

def digit_tolerance(reference):
    """CSV_DIGIT_UNITS units in the 12th significant digit of each value, plus CSV_ATOL."""
    magnitude = np.abs(reference)
    exponent = np.floor(np.log10(np.where(magnitude > 0.0, magnitude, 1.0)))
    return np.where(magnitude > 0.0, CSV_DIGIT_UNITS * 10.0 ** (exponent - 11), 0.0) + CSV_ATOL


def require_printed(values, reference, what):
    excess = np.abs(values - reference) - digit_tolerance(reference)
    worst = int(np.argmax(excess))
    require(excess.flat[worst] <= 0.0,
            f"{what}: printed {values.flat[worst]!r} != {reference.flat[worst]!r}")


def read_csv(path):
    """Header and float columns of a CSV written by the CLI."""
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    require(len(rows) >= 2, f"{path}: no data rows")
    header = rows[0]
    require(all(len(row) == len(header) for row in rows), f"{path}: ragged rows")
    return header, rows[1:]


def float_columns(rows):
    try:
        return np.array([[float(field) for field in row] for row in rows]).T
    except ValueError as exc:
        raise CheckFailed(f"unparsable CSV value: {exc}") from exc


def read_json(path):
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"{path}: {exc}") from exc


def check_manifest(out, command):
    manifest = read_json(out + ".manifest.json")
    require(manifest.get("command") == command, f"manifest command {manifest.get('command')!r}")


def check_probs_csv(out, n, grid_size, family=None, coeffs=None):
    """``probs`` output: a closed form for fock/noon, else the state checks of
    :func:`check_table` at the printed precision."""
    header, rows = read_csv(out)
    require(header == ["phi"] + [f"P({k},{n - k})" for k in range(n + 1)],
            f"probs header {header[:3]}...")
    columns = float_columns(rows)
    phi, probs = columns[0], columns[1:]
    exact_phi = grid_points(grid_size)
    require_printed(phi, exact_phi, "phi")
    if family is not None:
        require_printed(probs, CLOSED_FORMS[family](n, exact_phi), f"{family} N={n}")
    else:
        tol = completeness_tol(n) + (n + 1) * PRINTED_ROUNDING
        defect = completeness_defect(probs)
        require(defect <= tol, f"printed columns sum to 1 + {defect:.3e}")
        residual = band_limit_residual(probs, n)
        require(residual <= tol, f"printed band-limit residual {residual:.3e}")
        weights = np.abs(np.asarray(coeffs)) ** 2
        weights = weights / weights.sum()
        require_printed(probs[:, -1], weights, "P at phi = pi")
        require_printed(probs[:, np.argmin(np.abs(exact_phi))], weights[::-1], "P at phi = 0")
    check_manifest(out, "probs")


def check_posterior_cli(out, family, n, n_c, grid_size):
    header, rows = read_csv(out)
    require(header == ["phi", "density"], f"posterior header {header}")
    phi, density = float_columns(rows)
    exact_phi = grid_points(grid_size)
    require_printed(phi, exact_phi, "phi")
    row = CLOSED_FORMS[family](n, exact_phi)[n_c]
    reference = row / ((2.0 * np.pi / grid_size) * row.sum())
    require_printed(density, reference, "posterior density")
    summary = read_json(out + ".summary.json")
    require(summary["outcome"] == {"n_c": n_c, "n_d": n - n_c}, "summary outcome")
    require(summary["peak_count"] == len(summary["peaks"]) >= 1, "summary peak count")
    check_manifest(out, "posterior")


def check_fidelity_cli(out, families, n_max, grid_size):
    header, rows = read_csv(out)
    require(header == ["state", "N", "H_bits"], f"fidelity header {header}")
    expected = [(family, n) for family in families for n in range(1, n_max + 1)]
    require([(row[0], int(row[1])) for row in rows] == expected, "fidelity sweep rows")
    phi = grid_points(grid_size)
    weight = 2.0 * np.pi / grid_size
    for row in rows:
        family, n, h_bits = row[0], int(row[1]), float(row[2])
        reference = mutual_information_bits(CLOSED_FORMS[family](n, phi), weight)
        require(abs(h_bits - reference) <= REDUCTION_TOL,
                f"{family} N={n}: H = {h_bits!r}, closed form gives {reference!r}")
    check_manifest(out, "fidelity")


def check_simulate_cli(out, family, n, phase, shots, grid_size):
    header, rows = read_csv(out)
    require(header == ["shot", "n_c", "n_d"], f"simulate header {header}")
    require(len(rows) == shots, f"{len(rows)} shots printed, {shots} requested")
    draws = np.array([[int(field) for field in row] for row in rows])
    require(np.array_equal(draws[:, 0], np.arange(shots)), "shot indices")
    require(bool(np.all(draws[:, 1] + draws[:, 2] == n)), "photon number not conserved")
    counts = np.bincount(draws[:, 1], minlength=n + 1)
    pmf = CLOSED_FORMS[family](n, np.array([phase]))[:, 0]
    summary = read_json(out + ".summary.json")
    frequencies = {f"{k},{n - k}": counts[k] / shots for k in range(n + 1) if counts[k]}
    require(summary["outcome_frequencies"] == frequencies, "summary frequencies")
    header, rows = read_csv(out + ".posterior.csv")
    phi, density = float_columns(rows)
    require_printed(phi, grid_points(grid_size), "posterior phi")
    weight = 2.0 * np.pi / grid_size
    # the printed density carries 12 digits; normalization holds to that
    require(abs(weight * float(density.sum()) - 1.0) <= 1e-10, "posterior not normalized")
    density = density / (weight * density.sum())
    check_simulation(counts, pmf, density, phi, weight, phase, shots)
    check_manifest(out, "simulate")
