"""One workload of the benchmark, in a fresh interpreter.

    python3 perfbench/worker.py setup --workload tables
    python3 perfbench/worker.py run --workload tables --seed 1 --seconds 15
    python3 perfbench/worker.py run --workload tables --seed 1 --traced [--overhead]

Both modes import ``mzfidelity`` from ``src`` and warm it up with one
``likelihood_table`` call per distinct N on a 2-point grid, so per-N set-up
is paid before timing, then print ``ready``.  ``setup`` stops there.
``run`` runs passes over the workload's fixed job list, one job after the
previous one completes, as many as fit in ``--seconds`` (at least one),
and prints one JSON object as its last line.  With ``--traced`` it
runs one pass with spans recorded and reports the workload's per-layer
metrics; ``--overhead`` adds an untraced pass before it.

Only the standard library is imported before the package, so the
``__init__`` span is a cold import of mzfidelity, numpy and scipy.
"""

import argparse
import importlib
import importlib.metadata
import importlib.util
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

from spans import Tracer, duration

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT_DIR = HERE / "out"
CLI_TIMEOUT_S = 60


class Context:
    """The package, the tracer and the job counts of one worker."""

    def __init__(self, mz, tracer):
        self.mz = mz
        self.tracer = tracer
        self.span = tracer.span
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.stats = {}

    def job(self, job_id, work, check):
        """Time ``work()``, then run ``check(result)`` outside the timing.

        A job that raises or fails its check is counted and reported; the
        run goes on.  Returns the job's wall time.
        """
        self.attempted += 1
        try:
            with self.span("bench.job", job_id) as span:
                result = work()
            check(result)
        except Exception as exc:  # noqa: BLE001 - every failure is a failed job
            self.failed += 1
            self.failures.append(f"{job_id}: {type(exc).__name__}: {exc}")
        return duration(span)

    def record_max(self, key, value):
        self.stats[key] = max(self.stats.get(key, value), value)

    def add(self, key, value):
        self.stats[key] = self.stats.get(key, 0) + value


def spans_named(ctx, name, job_prefix):
    return [s for s in ctx.tracer.spans
            if s["name"] == name and s["job"].startswith(job_prefix)]


def total_s(ctx, name, job_prefix):
    return sum(duration(s) for s in spans_named(ctx, name, job_prefix))


def family_state(mz, family, n):
    return {"fock": mz.fock_state, "noon": mz.noon_state}[family](n)


# ---------------------------------------------------------------------------
# tables: the grid engine at N = 5..25 (8192 points) and N = 40 (1024 points)
# ---------------------------------------------------------------------------

def tables_pass(ctx, inputs, work_dir):
    mz, span, traced = ctx.mz, ctx.span, ctx.tracer.enabled
    for job in inputs["jobs"]:
        n, grid, n_c = job["n"], job["grid"], job["n_c"]
        job_id = f"tables.N{n}"

        def work():
            state = mz.StateCoefficients(job["coeffs"])
            if traced:
                tracemalloc.start()
            try:
                with span("optics.likelihood_table", job_id):
                    table = mz.likelihood_table(state, grid_size=grid)
                if traced:
                    ctx.record_max("optics.table_peak_alloc_mb",
                                   tracemalloc.get_traced_memory()[1] / 2 ** 20)
            finally:
                if traced:
                    tracemalloc.stop()
            with span("fidelity.mutual_information", job_id):
                report = mz.mutual_information(table)
            with span("bayes.posterior_for_outcome", job_id):
                posterior = mz.posterior_for_outcome(table, mz.Outcome(n_c, n - n_c))
            with span("bayes.count_peaks", job_id):
                peaks = mz.count_peaks(posterior)
            with span("bayes.circular_summary", job_id):
                mean, std = mz.circular_summary(posterior)
            return table, report, posterior, peaks, mean, std

        def check(result):
            table, report, posterior, peaks, mean, std = result
            probs, phi = table.probs, table.grid.points
            weight = 2.0 * math.pi / grid
            ctx.record_max("optics.completeness_defect",
                           checks.check_table(probs, phi, job["coeffs"]))
            checks.check_mutual_information(report.h_bits, probs, weight)
            checks.check_posterior(posterior.density, probs[n_c], phi, weight)
            checks.check_peaks(peaks, posterior.peaks, posterior.density)
            checks.check_circular(mean, std, posterior.density, phi, weight)

        yield ctx.job(job_id, work, check)


def tables_metrics(ctx, inputs):
    table_spans = spans_named(ctx, "optics.likelihood_table", "tables.")
    metrics = {f"optics.table_s.{s['job'].split('.')[1]}": duration(s) for s in table_spans}
    cells = sum((n + 1) * grid for n, grid in inp.TABLE_JOBS)
    metrics["optics.table_calls"] = len(table_spans)
    metrics["optics.cells_per_s"] = cells / sum(duration(s) for s in table_spans)
    for name in ("posterior_for_outcome", "count_peaks", "circular_summary"):
        key = "posterior" if name == "posterior_for_outcome" else name
        metrics[f"bayes.{key}_s"] = total_s(ctx, f"bayes.{name}", "tables.")
    metrics["fidelity.mi_s"] = total_s(ctx, "fidelity.mutual_information", "tables.")
    return metrics


# ---------------------------------------------------------------------------
# cli: one child process per job, each writing to --out
# ---------------------------------------------------------------------------

def cli_argv(argv, work_dir):
    return [str(work_dir / arg) if arg == inp.COEFFICIENT_FILE else arg for arg in argv]


# (out path, seeded coefficients) -> None, per entry of inputs.CLI_JOBS
CLI_CHECKS = {
    "probs-fock-40": lambda out, _: checks.check_probs_csv(out, 40, 8192, family="fock"),
    "probs-noon-25": lambda out, _: checks.check_probs_csv(out, 25, 8192, family="noon"),
    "posterior-fock-25": lambda out, _: checks.check_posterior_cli(out, "fock", 25, 4, 8192),
    "fidelity-sweep-25": lambda out, _: checks.check_fidelity_cli(out, ("fock", "noon"), 25,
                                                                  8192),
    "simulate-noon-10": lambda out, _: checks.check_simulate_cli(out, "noon", 10, 0.7,
                                                                 100_000, 8192),
    "probs-file-10": lambda out, coeffs: checks.check_probs_csv(out, inp.CLI_FILE_N, 8192,
                                                                coeffs=coeffs),
}


def cli_pass(ctx, inputs, work_dir):
    coeffs = inputs["coefficients"]
    for name, argv in inp.CLI_JOBS:
        job_id = f"cli.{name}"
        out = work_dir / f"{name}.csv"

        def work():
            command = [sys.executable, "-m", "mzfidelity", *cli_argv(argv, work_dir),
                       "--out", str(out)]
            with ctx.span(f"cli.{argv[0]}", job_id):
                # inherits the environment run.py set: PYTHONPATH, BLAS threads
                return subprocess.run(command, cwd=work_dir, stdout=subprocess.DEVNULL,
                                      stderr=subprocess.PIPE, text=True, timeout=CLI_TIMEOUT_S)

        def check(proc):
            checks.require(proc.returncode == 0, f"exit code {proc.returncode}: "
                                                 f"{proc.stderr.strip()[-300:]}")
            CLI_CHECKS[name](str(out), coeffs)

        yield ctx.job(job_id, work, check)
        written = [path for path in work_dir.iterdir() if path.name.startswith(f"{name}.")]
        ctx.add("cli.bytes_out", sum(path.stat().st_size for path in written))
        for path in written:
            path.unlink()
    if ctx.tracer.enabled:
        ctx.stats["cli.child_rss_mb"] = peak_rss_mb(resource.RUSAGE_CHILDREN)
        cli_in_process(ctx, coeffs, work_dir)


def cli_library_calls(ctx, name, job_id, coeffs):
    """The library calls of one CLI job, made directly.  Returns (family,
    table) when the job tabulates a fock or NOON state, else (None, None)."""
    mz, span = ctx.mz, ctx.span
    if name == "probs-file-10":
        with span("optics.likelihood_table", job_id):
            mz.likelihood_table(mz.StateCoefficients(coeffs))
        return None, None
    if name in ("probs-fock-40", "probs-noon-25"):
        _, family, n = name.split("-")
        with span("optics.likelihood_table", job_id):
            return family, mz.likelihood_table(family_state(mz, family, int(n)))
    if name == "posterior-fock-25":
        with span("optics.likelihood_table", job_id):
            table = mz.likelihood_table(mz.fock_state(25))
        with span("bayes.posterior_for_outcome", job_id):
            posterior = mz.posterior_for_outcome(table, mz.Outcome(4, 21))
        with span("bayes.count_peaks", job_id):
            mz.count_peaks(posterior)
        with span("bayes.circular_summary", job_id):
            mz.circular_summary(posterior)
        return "fock", table
    if name == "fidelity-sweep-25":
        with span("fidelity.fidelity_sweep", job_id):
            mz.fidelity_sweep("fock", 25)
            mz.fidelity_sweep("noon", 25)
        return None, None
    if name == "simulate-noon-10":
        with span("bayes.simulate_sequence", job_id):
            result = mz.simulate_sequence(mz.noon_state(10), true_phase=0.7, shots=100_000)
        with span("bayes.count_peaks", job_id):
            mz.count_peaks(result.final_posterior)
        return None, None
    raise ValueError(f"no library calls listed for CLI job {name!r}")


def cli_in_process(ctx, coeffs, work_dir):
    """Each CLI job through ``cli.main`` in this process, after the same
    library calls made directly: the difference is argument parsing,
    formatting and writing."""
    cli_main = importlib.import_module("mzfidelity.cli").main
    out_dir = work_dir / "in-process"
    out_dir.mkdir()
    library_s = cli_s = 0.0
    for name, argv in inp.CLI_JOBS:
        job_id = f"cli-inproc.{name}"

        def work():
            family, table = cli_library_calls(ctx, name, job_id, coeffs)
            with ctx.span("cli.main", job_id):
                code = cli_main([*cli_argv(argv, work_dir), "--out", str(out_dir / f"{name}.csv")])
            return code, family, table

        def check(result):
            code, family, table = result
            checks.require(code == 0, f"cli.main returned {code}")
            if family is not None:
                ctx.record_max("optics.closed_form_err", checks.check_closed_form(
                    table.probs, table.grid.points, family, table.n_total))

        ctx.job(job_id, work, check)
        job_spans = [s for s in ctx.tracer.spans if s["job"] == job_id]
        cli_s += sum(duration(s) for s in job_spans if s["name"] == "cli.main")
        library_s += sum(duration(s) for s in job_spans
                         if s["name"] not in ("cli.main", "bench.job"))
    shutil.rmtree(out_dir)
    ctx.stats["cli.format_write_s"] = cli_s - library_s


def cli_metrics(ctx, inputs):
    return {f"cli.{sub}_s": total_s(ctx, f"cli.{sub}", "cli.")
            for sub in ("probs", "posterior", "fidelity", "simulate")}


# ---------------------------------------------------------------------------
# optimize: Nelder-Mead searches at N = 3, 6, 12
# ---------------------------------------------------------------------------

def optimize_pass(ctx, inputs, work_dir):
    mz = ctx.mz
    for job in inputs["jobs"]:
        n = job["n"]
        job_id = f"optimize.N{n}"

        def work():
            config = mz.OptimizerConfig(restarts=job["restarts"], seed=job["seed"])
            with ctx.span("optimizer.optimize_input_state", job_id):
                return mz.optimize_input_state(n, config)

        def check(result):
            checks.check_optimum(result.best_h_bits, n, job["reference"], inp.OPTIMUM_TOL_BITS)
            checks.require(result.evaluations > 0, "no objective evaluations")
            ctx.add("optimizer.evaluations", result.evaluations)
            ctx.stats[f"optimizer.h_bits.N{n}"] = result.best_h_bits

        yield ctx.job(job_id, work, check)


def optimize_metrics(ctx, inputs):
    search_s = total_s(ctx, "optimizer.optimize_input_state", "optimize.")
    return {"optimizer.search_s": search_s,
            "optimizer.ms_per_eval": 1e3 * search_s / ctx.stats["optimizer.evaluations"]}


# ---------------------------------------------------------------------------
# inference: many single-phase engine calls, compound MI, a long simulation
# ---------------------------------------------------------------------------

def inference_pass(ctx, inputs, work_dir):
    mz, span = ctx.mz, ctx.span
    for item in inputs["sensitivity"]:
        n = item["n"]
        state = mz.StateCoefficients(item["coeffs"])
        for index, point in enumerate(item["points"]):
            job_id = f"inference.sensitivity.N{n}.{index}"

            def work():
                with span("optics.outcome_distribution", job_id):
                    pmf = mz.outcome_distribution(state, point)
                with span("fidelity.error_propagation_sensitivity", job_id):
                    estimate = mz.error_propagation_sensitivity(state, working_point=point)
                return pmf, estimate

            def check(result):
                pmf, estimate = result
                checks.check_point_distribution(pmf, n)
                checks.check_sensitivity(estimate, pmf, n)

            yield ctx.job(job_id, work, check)

    for family, n, repeats in inp.REPEATED_JOBS:
        job_id = f"inference.repeated.{family}{n}x{repeats}"

        def work():
            with span("optics.likelihood_table", job_id):
                table = mz.likelihood_table(family_state(mz, family, n))
            with span("fidelity.mutual_information", job_id):
                single = mz.mutual_information(table)
            with span("fidelity.repeated_mutual_information", job_id):
                compound = mz.repeated_mutual_information(table, repeats)
            return table, single, compound

        def check(result):
            table, single, compound = result
            probs, phi = table.probs, table.grid.points
            ctx.record_max("optics.closed_form_err",
                           checks.check_closed_form(probs, phi, family, n))
            checks.check_mutual_information(single.h_bits, probs, 2.0 * math.pi / len(phi))
            checks.check_repeated(compound, single.h_bits, n, repeats, len(phi))
            vectors = math.comb(repeats + n, n)
            ctx.add("fidelity.count_vectors", vectors)
            ctx.record_max("fidelity.compound_bytes", vectors * len(phi) * 8)

        yield ctx.job(job_id, work, check)

    sim = inputs["simulate"]
    job_id = "inference.simulate"

    def work():
        state = mz.StateCoefficients(sim["coeffs"])
        with span("bayes.simulate_sequence", job_id):
            return state, mz.simulate_sequence(state, true_phase=sim["phase"],
                                               shots=inp.SIMULATE_SHOTS, seed=sim["seed"])

    def check(result):
        state, simulation = result
        draws = [outcome.n_c for outcome in simulation.record.outcomes]
        counts = np.bincount(draws, minlength=inp.SIMULATE_N + 1)
        final = simulation.final_posterior
        phi = final.grid.points
        checks.check_simulation(counts, mz.outcome_distribution(state, sim["phase"]),
                                final.density, phi, 2.0 * math.pi / len(phi), sim["phase"],
                                inp.SIMULATE_SHOTS)

    yield ctx.job(job_id, work, check)


def inference_metrics(ctx, inputs):
    simulate_s = total_s(ctx, "bayes.simulate_sequence", "inference.")
    sensitivity = spans_named(ctx, "fidelity.error_propagation_sensitivity", "inference.")
    return {
        "optics.point_s": statistics.median(
            duration(s) for s in spans_named(ctx, "optics.outcome_distribution", "inference.")),
        "bayes.simulate_s": simulate_s,
        "bayes.shots_per_s": inp.SIMULATE_SHOTS / simulate_s,
        "fidelity.sensitivity_s": sum(duration(s) for s in sensitivity),
        "fidelity.sensitivity_calls": len(sensitivity),
        "fidelity.compound_mi_s": total_s(ctx, "fidelity.repeated_mutual_information",
                                          "inference."),
    }


PASSES = {"tables": (tables_pass, tables_metrics), "cli": (cli_pass, cli_metrics),
          "optimize": (optimize_pass, optimize_metrics),
          "inference": (inference_pass, inference_metrics)}


# ---------------------------------------------------------------------------
# running one workload
# ---------------------------------------------------------------------------

def peak_rss_mb(who):
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def warm_up(ctx, workload):
    """One call per distinct N on a 2-point grid; a second identical call
    gives the cost of the first call at a new N over a warm one."""
    mz = ctx.mz
    cold_extra = 0.0
    with ctx.span("bench.setup", "setup"):
        for n in inp.distinct_ns(workload):
            state = mz.fock_state(n)
            with ctx.span("optics.likelihood_table", f"setup.N{n}") as cold:
                mz.likelihood_table(state, grid_size=2)
            with ctx.span("optics.likelihood_table", f"setup.N{n}") as warm:
                mz.likelihood_table(state, grid_size=2)
            cold_extra += duration(cold) - duration(warm)
    if workload == "tables":
        ctx.stats["optics.cold_extra_s"] = cold_extra


def provenance(mz):
    def version(package):
        try:
            return importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            return None

    engine = None
    for name in ("engine_name", "ENGINE", "active_backend"):
        value = getattr(mz, name, None)
        if value is not None:
            engine = value() if callable(value) else value
            break
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    except (AttributeError, KeyError, TypeError):
        blas = None
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "engine": engine,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "package_version": getattr(mz, "__version__", None),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--overhead", action="store_true")
    args = parser.parse_args(argv)

    tracer = Tracer(enabled=args.traced)
    with tracer.span("__init__.import", "setup"):
        mz = importlib.import_module("mzfidelity")
    modules_loaded = len(sys.modules)
    if Path(mz.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"imported {mz.__file__}, not the package under {SRC}")

    # heavy imports only after the package, which brings numpy anyway
    global np, checks, inp
    import numpy as np
    import checks
    import inputs as inp

    if args.workload not in inp.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}")
    ctx = Context(mz, tracer)
    ctx.stats["init.modules_loaded"] = modules_loaded
    warm_up(ctx, args.workload)
    setup_stats = dict(ctx.stats)
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    inputs = inp.make_inputs(args.workload, args.seed)
    run_pass, layer_metrics = PASSES[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    pass_s = []
    overhead = None
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        work_dir = Path(tmp)
        if args.workload == "cli":
            (work_dir / inp.COEFFICIENT_FILE).write_text(
                inp.coefficient_file_text(inputs["coefficients"]))
        if args.traced:
            if args.overhead:
                tracer.enabled = False
                untraced = sum(run_pass(ctx, inputs, work_dir))
                ctx.stats = dict(setup_stats)  # counts come from the traced pass only
                tracer.enabled = True
            traced = sum(run_pass(ctx, inputs, work_dir))
            pass_s.append(traced)
            if args.overhead:
                overhead = traced / untraced - 1.0
        else:
            # no pass starts that would end, at the last pass's pace, after --seconds
            start = time.perf_counter()
            while not pass_s or time.perf_counter() - start + pass_s[-1] <= args.seconds:
                pass_s.append(sum(run_pass(ctx, inputs, work_dir)))

    result = {
        "workload": args.workload,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "failures": ctx.failures,
        "pass_s": pass_s,
        "peak_rss_mb": peak_rss_mb(resource.RUSAGE_CHILDREN if args.workload == "cli"
                                   else resource.RUSAGE_SELF),
        "provenance": provenance(mz),
    }
    if args.traced:
        layer = dict(ctx.stats)
        try:
            layer.update(layer_metrics(ctx, inputs))
        except (KeyError, ZeroDivisionError, statistics.StatisticsError) as exc:
            # only reachable when jobs failed; the result is marked incorrect
            result["failures"].append(f"layer metrics: {type(exc).__name__}: {exc}")
        if overhead is not None:
            layer["trace.overhead_frac"] = overhead
        result["layer"] = layer
        result["spans"] = tracer.spans
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
