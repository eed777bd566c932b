"""Command-line front end: batch computations with CSV/JSON output.

Every run serializes a manifest (command, parameters, tool version,
timestamp) so results can be reproduced from the manifest alone.  The
parameters are the parsed flags but ``--out``: each key is the flag
without its dashes and with ``_`` for ``-``, each value what was given
or else the flag's default (null for a flag without one), so the run
replays as ``mzfidelity COMMAND --KEY=VALUE ...`` over the non-null
parameters.  With ``--out PATH`` the primary output goes to PATH, a summary
and any extra files to derived paths and the manifest to
``PATH.manifest.json``; without ``--out`` the primary output goes to
stdout, extra files are not written, and the summary and manifest go to
stderr as one JSON document.  ``_emit`` alone applies this rule.

Exit codes: 0 success, 2 usage or parameter error, 3 domain error
(zero-probability outcome), 4 resource cap exceeded.
"""

import argparse
import dataclasses
import datetime
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .bayes import (circular_summary, count_peaks, posterior_for_outcome,
                    simulate_sequence)
from .exceptions import (ResourceLimitError, UndefinedCircularMeanError,
                         ZeroProbabilityOutcomeError)
from .fidelity import fidelity_sweep, mutual_information
from .grid import DEFAULT_GRID_SIZE
from .optics import (STATE_FAMILIES, InterferometerGeometry, Outcome,
                     StateCoefficients, likelihood_table)
from .optimizer import OptimizerConfig, optimize_input_state

MAX_PHOTONS = 200
# (N+1) x grid cells of one request; a run holds a few arrays of 16 B a cell
MAX_GRID_CELLS = 1 << 22
# shots of one simulate run, which holds about 100 B a shot
MAX_SHOTS = 1 << 22
# every number written: 12 significant digits, locale-independent
_NUMBER_FORMAT = "%.12g"


def _fmt(value: float) -> str:
    return _NUMBER_FORMAT % value


def _round12(value: float) -> float:
    return float(_fmt(value))


def load_state(spec: str, n_photons) -> StateCoefficients:
    """Resolve a state spec: "fock", "noon", or a coefficient file path.

    Coefficient files hold one "re im" pair per line for n = 0..N, with
    N at most ``MAX_PHOTONS``; they are normalized on load (hand-edited
    values rarely hit unit norm exactly).
    """
    if spec in STATE_FAMILIES:
        return STATE_FAMILIES[spec](_require_n(n_photons))
    path = Path(spec)
    try:
        rows = [line.split() for line in path.read_text().splitlines()
                if line.strip() and not line.lstrip().startswith("#")]
        coeffs = np.array([float(re) + 1j * float(im) for re, im in rows])
    except OSError as exc:
        raise ValueError(f"cannot read coefficient file {spec!r}: {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed coefficient file {spec!r}: expected one "
                         f"'re im' pair per line ({exc})") from exc
    if coeffs.size == 0:
        raise ValueError(f"coefficient file {spec!r} is empty")
    if coeffs.size > MAX_PHOTONS + 1:
        raise ValueError(f"coefficient file {spec!r} has {coeffs.size} lines; "
                         f"at most {MAX_PHOTONS + 1} (N <= {MAX_PHOTONS}) are supported")
    norm = np.linalg.norm(coeffs)
    if norm == 0:
        raise ValueError(f"coefficient file {spec!r} holds a zero vector")
    if n_photons is not None and coeffs.size != n_photons + 1:
        raise ValueError(f"coefficient file {spec!r} has {coeffs.size} lines "
                         f"but --n {n_photons} needs {n_photons + 1}")
    return StateCoefficients(coeffs / norm)


def _require_n(n_photons) -> int:
    if n_photons is None:
        raise ValueError("--n is required for named state families")
    if n_photons < 0 or n_photons > MAX_PHOTONS:
        raise ValueError(f"--n must be between 0 and {MAX_PHOTONS}")
    return n_photons


def _check_grid(n_photons: int, grid_size: int) -> None:
    """Reject, before anything is built, more than MAX_GRID_CELLS cells."""
    if (n_photons + 1) * grid_size > MAX_GRID_CELLS:
        raise ResourceLimitError(f"(N+1) x grid = {n_photons + 1} x {grid_size} cells "
                                 f"exceed the cap of {MAX_GRID_CELLS}")


def _geometry(args) -> InterferometerGeometry:
    return InterferometerGeometry(kl1=args.kl1, kl2=args.kl2)


def _load(args) -> StateCoefficients:
    """The ``--state``/``--n`` state, checked against the grid cap."""
    state = load_state(args.state, args.n)
    _check_grid(state.n, args.grid)
    return state


def _quote(field: str) -> str:
    # outcome labels like P(4,21) contain the separator
    return f'"{field}"' if "," in field else field


def _csv(header, lines) -> str:
    return "\n".join([",".join(_quote(f) for f in header), *lines]) + "\n"


def _float_lines(*columns):
    """CSV lines of the columns' values, each formatted as ``_fmt`` does."""
    table = np.column_stack(columns)
    row_format = ",".join([_NUMBER_FORMAT] * table.shape[1])
    return (row_format % tuple(row.tolist()) for row in table)


def _json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _emit(args, kind: str, primary: str, summary: dict = None,
          diagnostics: dict = None, files: dict = None) -> None:
    """Write a run's outputs; the only code that decides where they go.

    The ``primary`` text goes to ``--out`` or stdout.  With ``--out`` the
    ``summary`` goes to ``OUT.summary.json``, each ``files`` entry
    ``name: (suffix, make_text)`` to ``OUT<suffix>`` and the manifest to
    ``OUT.manifest.json``; without it ``files`` are neither formatted nor
    written, and the summary and manifest go to stderr as one document,
    {"summary", "manifest"}.  The manifest's command and parameters are
    ``args`` as parsed, less ``command``, ``func`` and ``out``; its
    ``outputs`` name what was written, under ``kind`` for the primary text.
    """
    out = str(Path(args.out)) if args.out else None
    outputs = {kind: out or "stdout"}
    manifest = {
        "command": args.command,
        "parameters": {key: value for key, value in vars(args).items()
                       if key not in ("command", "func", "out")},
        "outputs": outputs,
        "tool_version": __version__,
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    if diagnostics is not None:
        manifest["diagnostics"] = diagnostics
    if out is None:
        sys.stdout.write(primary)
        if summary is not None:
            outputs["summary"] = "stderr"
            manifest = {"summary": summary, "manifest": manifest}
        sys.stderr.write(_json(manifest))
        return
    Path(out).write_text(primary)
    files = dict(files or {})
    if summary is not None:
        files["summary"] = (".summary.json", lambda: _json(summary))
    for name, (suffix, make_text) in files.items():
        outputs[name] = out + suffix
        Path(outputs[name]).write_text(make_text())
    Path(out + ".manifest.json").write_text(_json(manifest))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_probs(args) -> None:
    state = _load(args)
    table = likelihood_table(state, _geometry(args), args.grid)
    header = ["phi"] + [f"P({n_c},{state.n - n_c})" for n_c in range(state.n + 1)]
    _emit(args, "csv", _csv(header, _float_lines(table.grid.points, table.probs.T)))


def cmd_posterior(args) -> None:
    state = _load(args)
    try:
        n_c, n_d = (int(part) for part in args.outcome.split(","))
    except ValueError:
        raise ValueError(f"--outcome must be 'n_c,n_d', got {args.outcome!r}")
    outcome = Outcome(n_c, n_d)
    table = likelihood_table(state, _geometry(args), args.grid)
    posterior = posterior_for_outcome(table, outcome)
    peak_count = count_peaks(posterior)
    try:
        mean, std = circular_summary(posterior)
    except UndefinedCircularMeanError:
        mean = std = None
    summary = {
        "outcome": {"n_c": outcome.n_c, "n_d": outcome.n_d},
        "grid_size": args.grid,
        "peak_count": peak_count,
        "peaks": [{"phi": _round12(loc), "height": _round12(height)}
                  for loc, height in posterior.peaks],
        "circular_mean": None if mean is None else _round12(mean),
        "circular_std": None if std is None else _round12(std),
    }
    _emit(args, "csv",
          _csv(["phi", "density"], _float_lines(posterior.grid.points, posterior.density)),
          summary=summary)


def cmd_fidelity(args) -> None:
    geometry = _geometry(args)
    if args.sweep is not None:
        if args.state is not None or args.n is not None:
            raise ValueError("--sweep takes no --state or --n")
        families = [token.strip() for token in args.sweep.split(",") if token.strip()]
        if not families:
            raise ValueError("--sweep names no state family")
        if args.n_max is None:
            raise ValueError("--n-max is required with --sweep")
        _check_grid(_require_n(args.n_max), args.grid)
        rows = [(family, report) for family in families
                for report in fidelity_sweep(family, args.n_max, args.grid, geometry)]
    elif args.n_max is not None:
        raise ValueError("--n-max needs --sweep")
    elif args.state is None:
        raise ValueError("either --state or --sweep is required")
    else:
        label = args.state if args.state in STATE_FAMILIES else "custom"
        rows = [(label, mutual_information(likelihood_table(_load(args), geometry, args.grid)))]
    csv_rows = (f"{label},{report.n_photons},{_fmt(report.h_bits)}"
                for label, report in rows)
    _emit(args, "csv", _csv(["state", "N", "H_bits"], csv_rows))


def cmd_optimize(args) -> None:
    n_photons = _require_n(args.n)
    config = OptimizerConfig(restarts=args.restarts,
                             max_iterations=args.max_iter,
                             tol_bits=args.tol_bits,
                             seed=args.seed,
                             search_grid_size=args.search_grid,
                             report_grid_size=args.grid)
    _check_grid(n_photons, max(config.report_grid_size, config.search_grid_size))
    result = optimize_input_state(args.n, config, _geometry(args))

    payload = {
        "n_photons": args.n,
        "best_h_bits": _round12(result.best_h_bits),
        "best_state": {
            "label": "custom",
            "coefficients": [[_round12(c.real), _round12(c.imag)]
                             for c in result.best_state.coeffs],
        },
        "history": [_round12(h) for h in result.history],
        "evaluations": result.evaluations,
        "config": dataclasses.asdict(config),
    }
    _emit(args, "json", _json(payload),
          # convergence records stay out of the primary JSON
          diagnostics={"restarts": result.restarts})


def cmd_simulate(args) -> None:
    state = _load(args)
    if args.shots > MAX_SHOTS:
        raise ResourceLimitError(f"--shots {args.shots} exceeds the cap of {MAX_SHOTS}")
    result = simulate_sequence(state, _geometry(args), true_phase=args.phase,
                               shots=args.shots, seed=args.seed,
                               grid_size=args.grid)
    final = result.final_posterior
    peak_count = count_peaks(final)
    labels = [f"{n_c},{state.n - n_c}" for n_c in range(state.n + 1)]
    draws = [outcome.n_c for outcome in result.record.outcomes]
    counts = np.bincount(draws, minlength=state.n + 1)
    summary = {
        "true_phase": args.phase,
        "shots": args.shots,
        "seed": args.seed,
        "grid_size": args.grid,
        "outcome_frequencies": dict(sorted((labels[n_c], int(count) / args.shots)
                                           for n_c, count in enumerate(counts) if count)),
        "final_peak_count": peak_count,
        "final_peaks": [{"phi": _round12(loc), "height": _round12(height)}
                        for loc, height in final.peaks],
    }
    rows = (f"{shot},{labels[n_c]}" for shot, n_c in enumerate(draws))
    posterior_csv = (".posterior.csv", lambda: _csv(
        ["phi", "density"], _float_lines(final.grid.points, final.density)))
    _emit(args, "csv", _csv(["shot", "n_c", "n_d"], rows),
          summary=summary, files={"posterior_csv": posterior_csv})


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common(parser, with_state=True):
    if with_state:
        parser.add_argument("--state", metavar="SPEC",
                            help="'fock', 'noon', or a coefficient file path")
        parser.add_argument("--n", type=int, default=None,
                            help="total photon number (required for fock/noon)")
    parser.add_argument("--grid", type=int, default=DEFAULT_GRID_SIZE,
                        help="phase grid size (default %(default)s)")
    parser.add_argument("--kl1", type=float, default=0.0,
                        help="optical phase k*L1 of the upper path")
    parser.add_argument("--kl2", type=float, default=0.0,
                        help="optical phase k*L2 of the lower path")
    parser.add_argument("--out", metavar="PATH", default=None,
                        help="write the primary output to PATH (manifest to "
                             "PATH.manifest.json); default stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mzfidelity",
        description="Phase-information analysis of a two-port interferometer: "
                    "outcome probabilities, Bayesian posteriors, mutual "
                    "information, and input-state optimization.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    probs = sub.add_parser("probs", help="tabulate outcome probabilities vs phase")
    _add_common(probs)
    probs.set_defaults(func=cmd_probs)

    posterior = sub.add_parser("posterior",
                               help="phase posterior for one outcome, with "
                                    "peaks and circular summary")
    _add_common(posterior)
    posterior.add_argument("--outcome", required=True, metavar="NC,ND",
                           help="outcome counts, e.g. 4,21")
    posterior.set_defaults(func=cmd_posterior)

    fid = sub.add_parser("fidelity", help="mutual information in bits")
    _add_common(fid)
    fid.add_argument("--sweep", metavar="FAMILIES", default=None,
                     help="comma-separated families to sweep (fock,noon); "
                          "not with --state or --n")
    fid.add_argument("--n-max", type=int, default=None,
                     help="sweep photon numbers 1..N_MAX")
    fid.set_defaults(func=cmd_fidelity)

    opt = sub.add_parser("optimize",
                         help="search input coefficients maximizing the fidelity")
    _add_common(opt, with_state=False)
    opt.add_argument("--n", type=int, required=True, help="total photon number")
    opt.add_argument("--seed", type=int, default=OptimizerConfig.seed)
    opt.add_argument("--restarts", type=int, default=OptimizerConfig.restarts)
    opt.add_argument("--max-iter", type=int, default=OptimizerConfig.max_iterations,
                     help="L-BFGS iteration limit of each restart "
                          "(default %(default)s)")
    opt.add_argument("--tol-bits", type=float, default=OptimizerConfig.tol_bits,
                     help="a restart stops when an iteration improves H by "
                          "less than this relative to max(|H|, 1); a later "
                          "restart must beat the best by more than this "
                          "(default %(default)s)")
    opt.add_argument("--search-grid", type=int, default=OptimizerConfig.search_grid_size,
                     help="coarse grid used during the search (default %(default)s)")
    opt.set_defaults(func=cmd_optimize)

    sim = sub.add_parser("simulate",
                         help="draw measurement outcomes at a fixed phase and "
                              "track the posterior")
    _add_common(sim)
    sim.add_argument("--phase", type=float, required=True,
                     help="true phase in radians")
    sim.add_argument("--shots", type=int, default=1)
    sim.add_argument("--seed", type=int, default=0)
    sim.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except ZeroProbabilityOutcomeError as exc:
        print(f"error: zero-probability outcome: {exc}", file=sys.stderr)
        return 3
    except ResourceLimitError as exc:
        print(f"error: resource cap exceeded: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def run() -> None:
    sys.exit(main())
