"""End-to-end CLI behavior: formats, exit codes, manifests, determinism."""

import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mzfidelity
from mzfidelity import cli
from mzfidelity.cli import main

H_SINGLE_PHOTON = 1.0 / math.log(2.0) - 1.0


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    reader = csv.reader(io.StringIO(text))
    records = list(reader)
    return records[0], records[1:]


def test_module_entry_point_exit_codes():
    # python -m mzfidelity passes main's exit code to the process
    src = str(Path(mzfidelity.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    version = subprocess.run([sys.executable, "-m", "mzfidelity", "--version"],
                             env=env, capture_output=True, text=True)
    assert version.returncode == 0, version.stderr
    assert version.stdout == f"mzfidelity {mzfidelity.__version__}\n"
    error = subprocess.run([sys.executable, "-m", "mzfidelity", "probs", "--state", "fock"],
                           env=env, capture_output=True, text=True)
    assert error.returncode == 2
    assert "--n is required" in error.stderr


def test_console_script_exit_codes(monkeypatch, capsys):
    # run, the [project.scripts] target, exits with main's code
    monkeypatch.setattr(sys, "argv", ["mzfidelity", "fidelity", "--state", "fock",
                                      "--n", "1", "--grid", "16"])
    with pytest.raises(SystemExit) as success:
        cli.run()
    assert success.value.code == 0
    assert capsys.readouterr().out.startswith("state,N,H_bits\nfock,1,")
    monkeypatch.setattr(sys, "argv", ["mzfidelity", "probs", "--state", "fock", "--n", "-1"])
    with pytest.raises(SystemExit) as error:
        cli.run()
    assert error.value.code == 2
    assert "--n must be between" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# probs
# ---------------------------------------------------------------------------

def test_probs_single_photon(capsys):
    code, out, _ = run_cli(["probs", "--state", "fock", "--n", "1", "--grid", "8"],
                           capsys)
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["phi", "P(0,1)", "P(1,0)"]
    assert len(rows) == 8
    for row in rows:
        assert float(row[1]) + float(row[2]) == pytest.approx(1.0, abs=1e-11)
    # 12 significant digits, plain ASCII
    assert rows[0][0] == "-2.35619449019"


def test_probs_coincidence_column_is_zero(capsys):
    code, out, _ = run_cli(["probs", "--state", "noon", "--n", "2", "--grid", "8"],
                           capsys)
    assert code == 0
    header, rows = parse_csv(out)
    column = header.index("P(1,1)")
    assert all(row[column] == "0" for row in rows)


def test_probs_vacuum(capsys):
    code, out, _ = run_cli(["probs", "--state", "fock", "--n", "0", "--grid", "4"],
                           capsys)
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["phi", "P(0,0)"]
    assert all(row[1] == "1" for row in rows)


def test_probs_rejects_bad_photon_number(capsys):
    code, _, err = run_cli(["probs", "--state", "fock", "--n", str(cli.MAX_PHOTONS + 1)],
                           capsys)
    assert code == 2
    assert "error" in err
    code, _, err = run_cli(["probs", "--state", "fock"], capsys)
    assert code == 2
    assert "--n is required" in err


def test_probs_rejects_bad_grid(capsys):
    code, _, _ = run_cli(["probs", "--state", "fock", "--n", "1", "--grid", "1"],
                         capsys)
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["probs", "--state", "fock", "--n", "40", "--grid", "64"],
    ["posterior", "--state", "noon", "--n", "40", "--outcome", "20,20", "--grid", "64"],
    ["fidelity", "--state", "fock", "--n", "40", "--grid", "64"],
    ["fidelity", "--sweep", "fock", "--n-max", "40", "--grid", "64"],
    ["optimize", "--n", "40", "--restarts", "1", "--search-grid", "64", "--grid", "16"],
    ["optimize", "--n", "40", "--restarts", "1", "--search-grid", "16", "--grid", "64"],
    ["simulate", "--state", "fock", "--n", "40", "--phase", "1", "--grid", "64"],
])
def test_grid_cap_rejects_before_building(argv, monkeypatch, tmp_path, capsys):
    # 41 x 64 cells exceed a cap of 1000; 41 x 24 do not
    monkeypatch.setattr(cli, "MAX_GRID_CELLS", 1000)
    out = tmp_path / "out.csv"
    code, stdout, err = run_cli(argv + ["--out", str(out)], capsys)
    assert code == 4
    assert "cap" in err
    assert stdout == "" and not list(tmp_path.iterdir())
    fitting = [value if value != "64" else "24" for value in argv]
    assert run_cli(fitting, capsys)[0] == 0


# ---------------------------------------------------------------------------
# posterior
# ---------------------------------------------------------------------------

def test_posterior_two_peak_sidecar(tmp_path, capsys):
    out_path = tmp_path / "post.csv"
    code, _, _ = run_cli(["posterior", "--state", "fock", "--n", "25",
                          "--outcome", "4,21", "--grid", "4096",
                          "--out", str(out_path)], capsys)
    assert code == 0
    summary = json.loads((tmp_path / "post.csv.summary.json").read_text())
    assert summary["peak_count"] == 2
    locations = [p["phi"] for p in summary["peaks"]]
    assert locations == sorted(locations)
    expected = 2 * math.atan(math.sqrt(4 / 21))
    assert locations[1] == pytest.approx(expected, abs=2 * np.pi / 4096)
    # density column integrates to 1 under the grid rule
    header, rows = parse_csv(out_path.read_text())
    assert header == ["phi", "density"]
    density = np.array([float(r[1]) for r in rows])
    assert density.sum() * (2 * np.pi / 4096) == pytest.approx(1.0, abs=1e-10)


def test_posterior_superposition_has_more_ambiguity(tmp_path, capsys):
    out_path = tmp_path / "noon.csv"
    code, _, _ = run_cli(["posterior", "--state", "noon", "--n", "25",
                          "--outcome", "4,21", "--grid", "4096",
                          "--out", str(out_path)], capsys)
    assert code == 0
    summary = json.loads((tmp_path / "noon.csv.summary.json").read_text())
    assert summary["peak_count"] in (1, 2, 3, 4)
    assert summary["peak_count"] >= 2  # at least the one-port count


def test_posterior_single_photon_closed_form(capsys):
    code, out, _ = run_cli(["posterior", "--state", "fock", "--n", "1",
                            "--outcome", "0,1", "--grid", "512"], capsys)
    assert code == 0
    _, rows = parse_csv(out)
    for row in rows:
        phi, density = float(row[0]), float(row[1])
        assert density == pytest.approx(np.cos(phi / 2) ** 2 / np.pi, abs=1e-12)


def test_posterior_vacuum_has_no_circular_mean(tmp_path, capsys):
    # flat posterior: one whole-circle plateau, undefined mean reported as null
    out_path = tmp_path / "vac.csv"
    code, _, _ = run_cli(["posterior", "--state", "fock", "--n", "0",
                          "--outcome", "0,0", "--grid", "64",
                          "--out", str(out_path)], capsys)
    assert code == 0
    summary = json.loads((tmp_path / "vac.csv.summary.json").read_text())
    assert summary["circular_mean"] is None
    assert summary["circular_std"] is None
    assert summary["peak_count"] == 1


def test_posterior_point_mass_std_is_positive_zero(tmp_path, capsys):
    # all the mass at pi: |z| = 1, whose std sqrt(-2 ln 1) was written -0.0
    out_path = tmp_path / "point.csv"
    code, _, _ = run_cli(["posterior", "--state", "fock", "--n", "1", "--outcome", "1,0",
                          "--grid", "2", "--out", str(out_path)], capsys)
    assert code == 0
    text = (tmp_path / "point.csv.summary.json").read_text()
    assert '"circular_std": 0.0,' in text
    assert json.loads(text)["circular_mean"] == 3.14159265359


def test_posterior_impossible_outcome_exit_code(capsys):
    code, _, err = run_cli(["posterior", "--state", "noon", "--n", "2",
                            "--outcome", "1,1", "--grid", "64"], capsys)
    assert code == 3
    assert "zero-probability" in err


def test_posterior_outcome_inconsistent_with_n(capsys):
    code, _, _ = run_cli(["posterior", "--state", "fock", "--n", "2",
                          "--outcome", "1,0", "--grid", "64"], capsys)
    assert code == 2
    code, _, err = run_cli(["posterior", "--state", "fock", "--n", "4",
                            "--outcome", "4", "--grid", "64"], capsys)
    assert code == 2
    assert "--outcome must be 'n_c,n_d'" in err


# ---------------------------------------------------------------------------
# fidelity
# ---------------------------------------------------------------------------

def test_fidelity_single_photon_value(capsys):
    code, out, _ = run_cli(["fidelity", "--state", "fock", "--n", "1"], capsys)
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["state", "N", "H_bits"]
    assert rows == [["fock", "1", "0.442695040895"]]
    assert float(rows[0][2]) == pytest.approx(H_SINGLE_PHOTON, abs=1e-6)


def test_fidelity_sweep_ordering(capsys):
    code, out, _ = run_cli(["fidelity", "--sweep", "fock,noon", "--n-max", "4",
                            "--grid", "2048"], capsys)
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 8
    values = {(r[0], int(r[1])): float(r[2]) for r in rows}
    for n in range(2, 5):
        assert values[("fock", n)] > values[("noon", n)]
    assert values[("noon", 1)] == pytest.approx(values[("fock", 1)], abs=1e-9)


def test_fidelity_requires_state_or_sweep(capsys):
    # each exits 2 with no output; a sweep list with no family in it is no
    # sweep, so no header-only CSV, and no flag is silently ignored
    for sweep, message in (([], "either --state or --sweep"),
                           (["--sweep", ",", "--n-max", "3"], "names no state family"),
                           (["--sweep", " , ", "--n-max", "3"], "names no state family"),
                           (["--sweep", "fock"], "--n-max is required"),
                           (["--state", "noon", "--n", "3", "--sweep", "fock",
                             "--n-max", "2"], "--sweep takes no --state or --n"),
                           (["--n", "3", "--sweep", "fock", "--n-max", "2"],
                            "--sweep takes no --state or --n"),
                           (["--state", "fock", "--n", "3", "--n-max", "2"],
                            "--n-max needs --sweep")):
        code, out, err = run_cli(["fidelity", *sweep], capsys)
        assert code == 2
        assert out == ""
        assert message in err


# ---------------------------------------------------------------------------
# optimize
# ---------------------------------------------------------------------------

OPT_ARGS = ["optimize", "--n", "2", "--seed", "7", "--restarts", "3",
            "--max-iter", "150", "--search-grid", "512", "--grid", "1024"]


def test_optimize_beats_benchmarks_and_repeats(capsys):
    code, out1, err = run_cli(OPT_ARGS, capsys)
    assert code == 0
    # stderr is the manifest alone, with one convergence record per restart
    assert len(json.loads(err)["diagnostics"]["restarts"]) == 3
    payload = json.loads(out1)
    fock_h, noon_h = 0.696668206, 0.0
    assert payload["best_h_bits"] >= max(fock_h, noon_h) - 1e-6
    assert payload["n_photons"] == 2
    assert len(payload["history"]) == 3
    norm = sum(re * re + im * im for re, im in payload["best_state"]["coefficients"])
    assert norm == pytest.approx(1.0, abs=1e-9)
    code, out2, _ = run_cli(OPT_ARGS, capsys)
    assert out2 == out1  # bit-identical rerun


def test_optimize_restart_records_in_manifest_only(tmp_path, capsys):
    out_path = tmp_path / "opt.json"
    argv = ["optimize", "--n", "2", "--seed", "7", "--restarts", "3",
            "--max-iter", "1", "--search-grid", "512", "--grid", "1024",
            "--out", str(out_path)]
    assert run_cli(argv, capsys)[0] == 0
    manifest = json.loads((tmp_path / "opt.json.manifest.json").read_text())
    records = manifest["diagnostics"]["restarts"]
    assert len(records) == 3
    assert any(record["success"] is False for record in records)
    assert all(record["nit"] <= 1 for record in records)
    first = out_path.read_bytes()
    assert b"success" not in first and b"nfev" not in first
    assert run_cli(argv, capsys)[0] == 0
    assert out_path.read_bytes() == first  # bit-identical replay


def test_optimize_rejects_infinite_tolerance(capsys):
    # no restart could beat the incumbent by an infinite margin
    code, out, err = run_cli(["optimize", "--n", "2", "--restarts", "2",
                              "--tol-bits", "inf"], capsys)
    assert code == 2 and "tol_bits" in err
    assert out == ""


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_frequencies_and_determinism(tmp_path, capsys):
    args = ["simulate", "--state", "fock", "--n", "1", "--phase",
            str(np.pi / 2), "--shots", "10000", "--seed", "42", "--grid", "256",
            "--out", str(tmp_path / "sim.csv")]
    code, _, _ = run_cli(args, capsys)
    assert code == 0
    summary = json.loads((tmp_path / "sim.csv.summary.json").read_text())
    assert 0.485 <= summary["outcome_frequencies"]["1,0"] <= 0.515
    first = (tmp_path / "sim.csv").read_bytes()
    code, _, _ = run_cli(args, capsys)
    assert (tmp_path / "sim.csv").read_bytes() == first
    # posterior csv sidecar exists and is normalized
    header, rows = parse_csv((tmp_path / "sim.csv.posterior.csv").read_text())
    total = sum(float(r[1]) for r in rows) * (2 * np.pi / 256)
    assert total == pytest.approx(1.0, abs=1e-9)


def test_simulate_single_shot(capsys):
    code, out, _ = run_cli(["simulate", "--state", "fock", "--n", "1",
                            "--phase", "0.5", "--shots", "1", "--grid", "64"],
                           capsys)
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 1


def test_simulate_coincidences_never_drawn(capsys):
    code, out, _ = run_cli(["simulate", "--state", "noon", "--n", "2",
                            "--phase", "1.0", "--shots", "400", "--seed", "3",
                            "--grid", "64"], capsys)
    assert code == 0
    _, rows = parse_csv(out)
    assert all((row[1], row[2]) != ("1", "1") for row in rows)


def test_simulate_rejects_no_shots(capsys):
    code, _, err = run_cli(["simulate", "--state", "fock", "--n", "1",
                            "--phase", "0.5", "--shots", "0"], capsys)
    assert code == 2 and "shots must be an integer >= 1" in err


def test_simulate_rejects_non_finite_phase(capsys):
    code, _, _ = run_cli(["simulate", "--state", "fock", "--n", "1",
                          "--phase", "nan", "--shots", "5"], capsys)
    assert code == 2


def test_shot_cap_rejects_before_drawing(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(cli, "MAX_SHOTS", 10)
    argv = ["simulate", "--state", "fock", "--n", "1", "--phase", "0.5",
            "--grid", "16", "--out", str(tmp_path / "sim.csv")]
    with monkeypatch.context() as patch:
        patch.setattr(cli, "simulate_sequence", None)  # never reached
        code, stdout, err = run_cli(argv + ["--shots", "11"], capsys)
    assert code == 4 and "cap" in err
    assert stdout == "" and not list(tmp_path.iterdir())
    assert run_cli(argv + ["--shots", "10"], capsys)[0] == 0


# ---------------------------------------------------------------------------
# coefficient files
# ---------------------------------------------------------------------------

def test_coefficient_file_roundtrip(tmp_path, capsys):
    path = tmp_path / "state.txt"
    path.write_text("1 0\n1 0\n")  # normalized on load: the N=1 even split
    code, out, _ = run_cli(["fidelity", "--state", str(path), "--grid", "2048"],
                           capsys)
    assert code == 0
    _, rows = parse_csv(out)
    assert rows[0][0] == "custom"
    assert int(rows[0][1]) == 1
    assert float(rows[0][2]) == pytest.approx(H_SINGLE_PHOTON, abs=1e-6)


def test_coefficient_file_errors(tmp_path, capsys):
    missing = tmp_path / "missing.txt"
    code, _, err = run_cli(["probs", "--state", str(missing)], capsys)
    assert code == 2 and "error" in err

    malformed = tmp_path / "bad.txt"
    malformed.write_text("0.3 not-a-number\n")
    assert run_cli(["probs", "--state", str(malformed)], capsys)[0] == 2

    zero = tmp_path / "zero.txt"
    zero.write_text("0 0\n0 0\n")
    assert run_cli(["probs", "--state", str(zero)], capsys)[0] == 2

    empty = tmp_path / "empty.txt"
    empty.write_text("# comments and blank lines only\n\n")
    code, _, err = run_cli(["probs", "--state", str(empty)], capsys)
    assert code == 2 and "is empty" in err

    mismatched = tmp_path / "short.txt"
    mismatched.write_text("1 0\n")
    assert run_cli(["probs", "--state", str(mismatched), "--n", "3"], capsys)[0] == 2

    # MAX_PHOTONS + 2 lines is N = MAX_PHOTONS + 1, one past the cap that --n enforces
    too_long = tmp_path / "long.txt"
    too_long.write_text("1 0\n" * (cli.MAX_PHOTONS + 2))
    code, _, err = run_cli(["probs", "--state", str(too_long), "--grid", "8"], capsys)
    assert code == 2 and f"N <= {cli.MAX_PHOTONS}" in err


# ---------------------------------------------------------------------------
# manifests
# ---------------------------------------------------------------------------

def test_manifest_reproduces_run(tmp_path, capsys):
    out_path = tmp_path / "probs.csv"
    argv = ["probs", "--state", "noon", "--n", "3", "--grid", "32",
            "--out", str(out_path)]
    assert run_cli(argv, capsys)[0] == 0
    manifest = json.loads((tmp_path / "probs.csv.manifest.json").read_text())
    assert manifest["command"] == "probs"
    assert manifest["tool_version"]
    first = out_path.read_bytes()

    # rebuild the invocation from the manifest alone
    params = manifest["parameters"]
    replay = ["probs", "--state", params["state"], "--n", str(params["n"]),
              "--grid", str(params["grid_size"]), "--kl1", str(params["kl1"]),
              "--kl2", str(params["kl2"]), "--out", str(out_path)]
    assert run_cli(replay, capsys)[0] == 0
    assert out_path.read_bytes() == first


def test_manifest_on_stderr_without_out(capsys):
    code, out, err = run_cli(["probs", "--state", "fock", "--n", "1",
                              "--grid", "4"], capsys)
    assert code == 0
    assert json.loads(err)["command"] == "probs"
    assert out.startswith("phi,")
    code, out, err = run_cli(["fidelity", "--state", "fock", "--n", "1",
                              "--grid", "16"], capsys)
    assert code == 0
    assert json.loads(err)["command"] == "fidelity"
    assert out.startswith("state,")
    code, out, err = run_cli(OPT_ARGS, capsys)
    assert code == 0
    assert json.loads(err)["command"] == "optimize"
    assert json.loads(out)["n_photons"] == 2
    # a summary sidecar and the manifest make one document
    code, out, err = run_cli(["posterior", "--state", "fock", "--n", "2",
                              "--outcome", "1,1", "--grid", "8"], capsys)
    assert code == 0
    document = json.loads(err)
    assert document["manifest"]["command"] == "posterior"
    assert document["summary"]["outcome"] == {"n_c": 1, "n_d": 1}
    assert out.startswith("phi,")
    code, out, err = run_cli(["simulate", "--state", "noon", "--n", "3",
                              "--phase", "0.4", "--shots", "20", "--grid", "64"],
                             capsys)
    assert code == 0
    document = json.loads(err)
    assert document["manifest"]["command"] == "simulate"
    assert document["summary"]["shots"] == 20
    assert out.startswith("shot,")


def test_csv_is_locale_independent(capsys):
    _, out, _ = run_cli(["probs", "--state", "fock", "--n", "1", "--grid", "4"],
                        capsys)
    assert ";" not in out
    assert "\r" not in out
    assert out.count("\n") == 5  # header + 4 rows, trailing newline


@pytest.mark.parametrize("argv", [
    ["probs", "--state", "fock", "--n", "2", "--grid", "8"],
    ["posterior", "--state", "fock", "--n", "2", "--outcome", "1,1", "--grid", "8"],
    ["fidelity", "--state", "fock", "--n", "2", "--grid", "8"],
    ["fidelity", "--sweep", "fock", "--n-max", "2", "--grid", "8"],
    OPT_ARGS,
    ["simulate", "--state", "fock", "--n", "2", "--phase", "0.3", "--shots", "5",
     "--grid", "8"],
])
def test_manifest_outputs_name_every_file_written(argv, tmp_path, capsys):
    out_path = tmp_path / "run.out"
    assert run_cli(argv + ["--out", str(out_path)], capsys) == (0, "", "")
    manifest_path = tmp_path / "run.out.manifest.json"
    outputs = json.loads(manifest_path.read_text())["outputs"]
    written = {str(path) for path in tmp_path.iterdir()} - {str(manifest_path)}
    assert sorted(outputs.values()) == sorted(written)
    assert outputs["json" if argv[0] == "optimize" else "csv"] == str(out_path)


def test_simulate_posterior_file_only_with_out(monkeypatch, tmp_path, capsys):
    # without --out the posterior CSV is neither formatted nor written
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "_float_lines", None)
    code, out, err = run_cli(["simulate", "--state", "fock", "--n", "2",
                              "--phase", "0.3", "--shots", "5", "--grid", "8"],
                             capsys)
    assert code == 0 and out.startswith("shot,")
    assert json.loads(err)["manifest"]["outputs"] == {"csv": "stdout",
                                                      "summary": "stderr"}
    assert not list(tmp_path.iterdir())
