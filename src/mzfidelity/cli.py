"""Command-line front end: batch computations with CSV/JSON output.

Every run serializes a manifest (command, full parameter set, tool
version, timestamp) so results can be reproduced from the manifest
alone.  With ``--out PATH`` the primary output goes to PATH, auxiliary
JSON to derived paths and the manifest to ``PATH.manifest.json``;
without ``--out`` the primary output goes to stdout and auxiliary
JSON/manifest to stderr, as one JSON document.

Exit codes: 0 success, 2 usage or parameter error, 3 domain error
(zero-probability outcome), 4 resource cap exceeded.
"""

import argparse
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

MAX_PHOTONS = 40


def _fmt(value: float) -> str:
    """Format one number at 12 significant digits, locale-independent."""
    return f"{value:.12g}"


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
    return StateCoefficients(coeffs / norm, label="custom")


def _require_n(n_photons) -> int:
    if n_photons is None:
        raise ValueError("--n is required for named state families")
    if n_photons < 0 or n_photons > MAX_PHOTONS:
        raise ValueError(f"--n must be between 0 and {MAX_PHOTONS}")
    return n_photons


def _geometry(args) -> InterferometerGeometry:
    return InterferometerGeometry(kl1=args.kl1, kl2=args.kl2)


class _OutputSink:
    """Routes the primary stream, auxiliary JSON files and the manifest."""

    def __init__(self, out: str):
        self.out = Path(out) if out else None

    def write_primary(self, text: str) -> None:
        if self.out is None:
            sys.stdout.write(text)
        else:
            self.out.write_text(text)

    def write_aux(self, suffix: str, payload: dict) -> None:
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        if self.out is None:
            sys.stderr.write(text)
        else:
            Path(str(self.out) + suffix).write_text(text)

    def aux_path(self, suffix: str) -> str:
        return "stderr" if self.out is None else str(self.out) + suffix

    def primary_path(self) -> str:
        return "stdout" if self.out is None else str(self.out)


def _write_manifest(sink: _OutputSink, command: str, parameters: dict,
                    outputs: dict, diagnostics: dict = None,
                    summary: dict = None) -> None:
    """Write the manifest, after the ``summary`` sidecar if there is one;
    on stderr the two are one document, {"summary", "manifest"}."""
    manifest = {
        "command": command,
        "parameters": parameters,
        "outputs": outputs,
        "tool_version": __version__,
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    if diagnostics is not None:
        manifest["diagnostics"] = diagnostics
    if summary is not None:
        if sink.out is None:
            manifest = {"summary": summary, "manifest": manifest}
        else:
            sink.write_aux(".summary.json", summary)
    sink.write_aux(".manifest.json", manifest)


def _quote(field: str) -> str:
    # outcome labels like P(4,21) contain the separator
    return f'"{field}"' if "," in field else field


def _csv(header, rows) -> str:
    lines = [",".join(_quote(f) for f in header)]
    lines.extend(",".join(row) for row in rows)
    return "\n".join(lines) + "\n"


def _common_parameters(args, **extra) -> dict:
    params = {"grid_size": args.grid, "kl1": args.kl1, "kl2": args.kl2}
    params.update(extra)
    return params


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_probs(args) -> int:
    state = load_state(args.state, args.n)
    table = likelihood_table(state, _geometry(args), args.grid)
    header = ["phi"] + [f"P({o.n_c},{o.n_d})" for o in table.outcomes]
    rows = ([_fmt(phi)] + [_fmt(p) for p in table.probs[:, k]]
            for k, phi in enumerate(table.grid.points))
    sink = _OutputSink(args.out)
    sink.write_primary(_csv(header, rows))
    _write_manifest(sink, "probs",
                    _common_parameters(args, state=args.state, n=state.n),
                    {"csv": sink.primary_path()})
    return 0


def cmd_posterior(args) -> int:
    state = load_state(args.state, args.n)
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

    sink = _OutputSink(args.out)
    rows = ([_fmt(phi), _fmt(p)]
            for phi, p in zip(posterior.grid.points, posterior.density))
    sink.write_primary(_csv(["phi", "density"], rows))
    summary = {
        "outcome": {"n_c": outcome.n_c, "n_d": outcome.n_d},
        "grid_size": args.grid,
        "peak_count": peak_count,
        "peaks": [{"phi": _round12(loc), "height": _round12(height)}
                  for loc, height in posterior.peaks],
        "circular_mean": None if mean is None else _round12(mean),
        "circular_std": None if std is None else _round12(std),
    }
    _write_manifest(sink, "posterior",
                    _common_parameters(args, state=args.state, n=state.n,
                                       outcome=args.outcome),
                    {"csv": sink.primary_path(),
                     "summary": sink.aux_path(".summary.json")},
                    summary=summary)
    return 0


def cmd_fidelity(args) -> int:
    geometry = _geometry(args)
    rows = []
    if args.sweep:
        families = [token.strip() for token in args.sweep.split(",") if token.strip()]
        if args.n_max is None:
            raise ValueError("--n-max is required with --sweep")
        _require_n(args.n_max)
        for family in families:
            for report in fidelity_sweep(family, args.n_max, args.grid, geometry):
                rows.append((family, report))
    else:
        if args.state is None:
            raise ValueError("either --state or --sweep is required")
        state = load_state(args.state, args.n)
        report = mutual_information(likelihood_table(state, geometry, args.grid))
        rows.append((state.label, report))

    csv_rows = ([label, str(report.n_photons), _fmt(report.h_bits)]
                for label, report in rows)
    sink = _OutputSink(args.out)
    sink.write_primary(_csv(["state", "N", "H_bits"], csv_rows))
    _write_manifest(sink, "fidelity",
                    _common_parameters(args, state=args.state, sweep=args.sweep,
                                       n=args.n, n_max=args.n_max),
                    {"csv": sink.primary_path()})
    return 0


def cmd_optimize(args) -> int:
    if args.n is None:
        raise ValueError("--n is required")
    _require_n(args.n)
    config = OptimizerConfig(restarts=args.restarts,
                             max_iterations=args.max_iter,
                             tol_bits=args.tol_bits,
                             seed=args.seed,
                             search_grid_size=args.search_grid,
                             report_grid_size=args.grid)
    result = optimize_input_state(args.n, config, _geometry(args))

    payload = {
        "n_photons": args.n,
        "best_h_bits": _round12(result.best_h_bits),
        "best_state": {
            "label": result.best_state.label,
            "coefficients": [[_round12(c.real), _round12(c.imag)]
                             for c in result.best_state.coeffs],
        },
        "history": [_round12(h) for h in result.history],
        "evaluations": result.evaluations,
        "config": {
            "restarts": config.restarts,
            "max_iterations": config.max_iterations,
            "tol_bits": config.tol_bits,
            "seed": config.seed,
            "search_grid_size": config.search_grid_size,
            "report_grid_size": config.report_grid_size,
        },
    }
    sink = _OutputSink(args.out)
    sink.write_primary(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    _write_manifest(sink, "optimize",
                    _common_parameters(args, n=args.n, seed=args.seed,
                                       restarts=config.restarts,
                                       max_iter=config.max_iterations,
                                       tol_bits=config.tol_bits,
                                       search_grid=config.search_grid_size),
                    {"json": sink.primary_path()},
                    # convergence records stay out of the primary JSON
                    {"restarts": result.restarts})
    return 0


def cmd_simulate(args) -> int:
    state = load_state(args.state, args.n)
    if args.shots < 1:
        raise ValueError("--shots must be at least 1")
    result = simulate_sequence(state, _geometry(args), true_phase=args.phase,
                               shots=args.shots, seed=args.seed,
                               grid_size=args.grid)
    outcomes = result.record.outcomes
    rows = ([str(i), str(o.n_c), str(o.n_d)] for i, o in enumerate(outcomes))
    sink = _OutputSink(args.out)
    sink.write_primary(_csv(["shot", "n_c", "n_d"], rows))

    final = result.final_posterior
    peak_count = count_peaks(final)
    frequencies = {}
    for outcome in outcomes:
        key = f"{outcome.n_c},{outcome.n_d}"
        frequencies[key] = frequencies.get(key, 0) + 1
    summary = {
        "true_phase": args.phase,
        "shots": args.shots,
        "seed": args.seed,
        "grid_size": args.grid,
        "outcome_frequencies": {key: count / args.shots
                                for key, count in sorted(frequencies.items())},
        "final_peak_count": peak_count,
        "final_peaks": [{"phi": _round12(loc), "height": _round12(height)}
                        for loc, height in final.peaks],
    }
    outputs = {"csv": sink.primary_path(),
               "summary": sink.aux_path(".summary.json")}
    if sink.out is not None:
        posterior_rows = ([_fmt(phi), _fmt(p)]
                          for phi, p in zip(final.grid.points, final.density))
        posterior_path = Path(str(sink.out) + ".posterior.csv")
        posterior_path.write_text(_csv(["phi", "density"], posterior_rows))
        outputs["posterior_csv"] = str(posterior_path)
    _write_manifest(sink, "simulate",
                    _common_parameters(args, state=args.state, n=state.n,
                                       phase=args.phase, shots=args.shots,
                                       seed=args.seed),
                    outputs, summary=summary)
    return 0


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
                     help="comma-separated families to sweep (fock,noon)")
    fid.add_argument("--n-max", type=int, default=None,
                     help="sweep photon numbers 1..N_MAX")
    fid.set_defaults(func=cmd_fidelity)

    opt = sub.add_parser("optimize",
                         help="search input coefficients maximizing the fidelity")
    _add_common(opt, with_state=False)
    opt.add_argument("--n", type=int, required=True, help="total photon number")
    opt.add_argument("--seed", type=int, default=0)
    opt.add_argument("--restarts", type=int, default=16)
    opt.add_argument("--max-iter", type=int, default=2000,
                     help="L-BFGS-B iteration limit of each restart "
                          "(default %(default)s)")
    opt.add_argument("--tol-bits", type=float, default=1e-7,
                     help="a restart stops when an iteration improves H by "
                          "less than this relative to max(|H|, 1); a later "
                          "restart must beat the best by more than this "
                          "(default %(default)s)")
    opt.add_argument("--search-grid", type=int, default=4096,
                     help="coarse grid used during the search")
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
        return args.func(args)
    except ZeroProbabilityOutcomeError as exc:
        print(f"error: zero-probability outcome: {exc}", file=sys.stderr)
        return 3
    except ResourceLimitError as exc:
        print(f"error: resource cap exceeded: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())
