"""Tests of the benchmark's own code: span arithmetic, the correctness gate,
and seeded inputs.

    python3 -m pytest perfbench -q
"""

import json

import numpy as np
import pytest

import checks
import inputs
from spans import Tracer, covered, self_times


def span(name, start, end, parent=None, job="j"):
    return {"name": name, "start": start, "end": end, "parent": parent, "job": job}


def test_self_time_subtracts_children():
    spans = [span("bench.job", 0.0, 10.0),
             span("optics.table", 1.0, 4.0, parent=0),
             span("bayes.posterior", 5.0, 6.5, parent=0)]
    assert self_times(spans) == pytest.approx({"bench": 5.5, "optics": 3.0, "bayes": 1.5})


def test_self_time_counts_overlapping_and_overhanging_children_once():
    spans = [span("bench.job", 0.0, 10.0),
             span("optics.a", 1.0, 3.0, parent=0),
             span("optics.b", 2.0, 5.0, parent=0),    # overlaps a: 1..5 covered
             span("bayes.c", 8.0, 12.0, parent=0),    # runs past the parent: 8..10
             span("fidelity.d", 2.5, 3.5, parent=2)]  # grandchild: only b loses it
    own = self_times(spans)
    assert own["bench"] == pytest.approx(10.0 - 4.0 - 2.0)
    assert own["optics"] == pytest.approx(2.0 + 3.0 - 1.0)
    assert own["bayes"] == pytest.approx(4.0)
    assert own["fidelity"] == pytest.approx(1.0)


def test_covered_merges_intervals():
    assert covered([(0, 1), (0.5, 2), (3, 4), (3.5, 3.6)]) == pytest.approx(3.0)
    assert covered([]) == 0.0


def test_tracer_links_parents_and_times_when_disabled():
    tracer = Tracer(enabled=True)
    with tracer.span("bench.job", "j1"):
        with tracer.span("optics.table", "j1"):
            pass
    with tracer.span("bench.job", "j2"):
        pass
    assert [(s["name"], s["parent"]) for s in tracer.spans] == [
        ("bench.job", None), ("optics.table", 0), ("bench.job", None)]
    quiet = Tracer(enabled=False)
    with quiet.span("bench.job", "j") as record:
        pass
    assert quiet.spans == [] and record["end"] >= record["start"]


@pytest.mark.parametrize("family,n", [("fock", 25), ("noon", 25), ("fock", 40)])
def test_closed_form_table_passes_and_perturbed_table_fails(family, n):
    phi = checks.grid_points(1024)
    probs = checks.CLOSED_FORMS[family](n, phi)
    coeffs = np.zeros(n + 1)
    coeffs[n] = 1.0
    if family == "noon":
        coeffs[0] = coeffs[n] = 2 ** -0.5
    checks.check_table(probs, phi, coeffs)
    checks.check_closed_form(probs, phi, family, n)

    column = 767  # phi = pi / 2
    assert phi[column] == pytest.approx(np.pi / 2)
    big, bigger = np.argsort(probs[:, column])[-2:]
    shifted = probs.copy()
    shifted[big, column] += 1e-9
    with pytest.raises(checks.CheckFailed, match="sum_m P"):
        checks.check_table(shifted, phi, coeffs)
    with pytest.raises(checks.CheckFailed, match="closed form"):
        checks.check_closed_form(shifted, phi, family, n)

    # moving 1e-9 between two outcomes keeps every column sum: the band
    # limit catches it
    swapped = probs.copy()
    swapped[big, column] += 1e-9
    swapped[bigger, column] -= 1e-9
    with pytest.raises(checks.CheckFailed, match="band-limit"):
        checks.check_table(swapped, phi, coeffs)


def write_probs_csv(path, n, size, family):
    """A ``probs`` output as the CLI writes it: 12 significant digits."""
    phi = checks.grid_points(size)
    probs = checks.CLOSED_FORMS[family](n, phi)
    header = ["phi"] + [f'"P({k},{n - k})"' for k in range(n + 1)]
    lines = [",".join(header)]
    lines += [",".join(f"{v:.12g}" for v in [phi[k], *probs[:, k]]) for k in range(size)]
    path.write_text("\n".join(lines) + "\n")
    (path.parent / (path.name + ".manifest.json")).write_text(json.dumps({"command": "probs"}))
    return lines


def change_digit(line, field, position, digit=None):
    """Replace one digit of one field of a CSV line."""
    fields = line.split(",")
    text = fields[field]
    digits = [i for i, ch in enumerate(text) if ch.isdigit()]
    index = digits[position]
    new = digit if digit is not None else str((int(text[index]) + 5) % 10)
    fields[field] = text[:index] + new + text[index + 1:]
    return ",".join(fields)


def test_cli_csv_with_one_wrong_digit_fails(tmp_path):
    out = tmp_path / "probs.csv"
    lines = write_probs_csv(out, 6, 256, "fock")
    checks.check_probs_csv(str(out), 6, 256, family="fock")

    row = 40  # phi = -pi + 2 pi 40/256: every outcome well away from 0
    for position in (0, 5, 10):
        bad = list(lines)
        bad[row] = change_digit(lines[row], 3, position)
        out.write_text("\n".join(bad) + "\n")
        with pytest.raises(checks.CheckFailed, match="printed"):
            checks.check_probs_csv(str(out), 6, 256, family="fock")


def test_printed_value_may_flip_its_last_digit_but_no_more():
    reference = np.array([0.123456789012345, 0.987654321098765, 1.0])
    printed = np.array([float(f"{value:.12g}") for value in reference])
    unit = 10.0 ** (np.floor(np.log10(reference)) - 11)  # 12th significant digit
    checks.require_printed(printed + unit, reference, "flipped")
    with pytest.raises(checks.CheckFailed):
        checks.require_printed(printed + 5 * unit, reference, "five units off")


def test_same_seed_same_inputs():
    def flat(value):
        if isinstance(value, dict):
            return {k: flat(v) for k, v in value.items()}
        if isinstance(value, list):
            return [flat(v) for v in value]
        if isinstance(value, np.ndarray):
            return value.tolist()
        return value

    for workload in inputs.WORKLOADS:
        first = flat(inputs.make_inputs(workload, 7))
        assert first == flat(inputs.make_inputs(workload, 7))
        assert first != flat(inputs.make_inputs(workload, 8))


def test_seed_changes_inputs_not_work():
    a, b = inputs.make_inputs("tables", 1), inputs.make_inputs("tables", 2)
    assert [(j["n"], j["grid"]) for j in a["jobs"]] == [(j["n"], j["grid"]) for j in b["jobs"]]
    for job in a["jobs"]:
        assert np.linalg.norm(job["coeffs"]) == pytest.approx(1.0, abs=1e-14)
