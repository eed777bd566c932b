"""Layered benchmark of mzfidelity.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  A plain run (``--trace 0``) measures
the end-to-end metrics of one workload: set-up time (median of several
fresh interpreters), the wall time of the workload's fixed job list
(median over the passes that fit in ``--seconds``) and peak RSS.  A
traced run (``--trace 1``) runs one traced pass of every workload, each in
its own fresh interpreter, and reports the per-layer metrics; the
selected workload also runs untraced once, which gives the tracing
overhead.  Every job is checked for correctness; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from inputs import WORKLOADS
from spans import LAYERS, duration, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
WORKER = HERE / "worker.py"

SETUP_SAMPLES = 11
# every child stops before the run's 180 s limit
RUN_BUDGET_S = 170.0
# per-process address-space ceiling: a runaway job fails with MemoryError
# instead of waking the OOM killer.  The largest job (N = 25 table) peaks
# at 2.1 GB resident; the ceiling leaves room above that.
MEMORY_CAP_BYTES = 4 << 30
# one BLAS thread: one job runs at a time and the machine is shared
BLAS_THREADS = "1"

class BenchmarkError(RuntimeError):
    """The benchmark could not measure: a worker crashed or ran out of time."""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def memory_cap():
    total = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    return min(MEMORY_CAP_BYTES, total // 2)


def _limit_memory():
    cap = memory_cap()
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))


class Runner:
    """Starts workers one at a time under the memory ceiling and the run's deadline."""

    def __init__(self):
        self.env = child_env()
        self.deadline = time.monotonic() + RUN_BUDGET_S

    def worker(self, *args):
        """Run ``worker.py`` to completion; returns (seconds to ``ready``, last line)."""
        command = [sys.executable, str(WORKER), *map(str, args)]
        start = time.perf_counter()
        proc = subprocess.Popen(command, env=self.env, cwd=ROOT, stdout=subprocess.PIPE,
                                text=True, preexec_fn=_limit_memory)
        try:
            ready = proc.stdout.readline()
            ready_s = time.perf_counter() - start
            out, _ = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchmarkError(f"{' '.join(map(str, args))}: no result in time")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if ready.strip() != "ready" or proc.returncode != 0:
            raise BenchmarkError(f"{' '.join(map(str, args))}: exit code {proc.returncode}")
        lines = out.strip().splitlines()
        return ready_s, lines[-1] if lines else None


def build(env):
    """Byte-compile the package and the benchmark, so no timed import compiles."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", str(HERE.name)],
                   cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL)


def plain_run(runner, args):
    setup = [runner.worker("setup", "--workload", args.workload)[0]
             for _ in range(SETUP_SAMPLES - 1)]
    ready_s, line = runner.worker("run", "--workload", args.workload, "--seed", args.seed,
                                  "--seconds", args.seconds)
    setup.append(ready_s)
    result = json.loads(line)
    result["metrics"] = {"setup_s": statistics.median(setup),
                         "wall_s": statistics.median(result["pass_s"]),
                         "peak_rss_mb": result["peak_rss_mb"]}
    result["setup_samples_s"] = setup
    return result


def traced_run(runner, args):
    results = {}
    for workload in WORKLOADS:
        extra = ["--overhead"] if workload == args.workload else []
        _, line = runner.worker("run", "--workload", workload, "--seed", args.seed,
                                "--traced", *extra)
        results[workload] = json.loads(line)
    spans = {workload: result.pop("spans") for workload, result in results.items()}
    metrics = {}
    for result in results.values():
        for key, value in result["layer"].items():
            # only accuracy figures are measured by more than one workload
            metrics[key] = max(value, metrics.get(key, value))
    metrics["init.import_s"] = statistics.median(
        duration(span) for worker in spans.values() for span in worker
        if span["name"] == "__init__.import")
    for layer in (*LAYERS, "bench"):
        # span parents are indices into their own worker's list
        metrics[f"self_s.{layer}"] = sum(self_times(worker).get(layer, 0.0)
                                         for worker in spans.values())
    attempted = sum(result["attempted"] for result in results.values())
    failed = sum(result["failed"] for result in results.values())
    metrics["failed_frac"] = failed / attempted
    return {"attempted": attempted, "failed": failed,
            "failures": [f for result in results.values() for f in result["failures"]],
            "provenance": results[args.workload]["provenance"],
            "metrics": metrics, "spans": spans}


def machine():
    cpu = None
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu or platform.processor(),
            "mem_total_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2 ** 20,
            "memory_cap_mb": memory_cap() / 2 ** 20, "platform": platform.platform()}


def git_state():
    if not (ROOT / ".git").exists():
        return {"sha": None, "dirty": None}
    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                              check=True).stdout.strip()
    try:
        return {"sha": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain"))}
    except (OSError, subprocess.CalledProcessError):
        return {"sha": None, "dirty": None}


def declared_metrics(trace):
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description="Layered benchmark of mzfidelity.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "mzfidelity" / "__init__.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    units = declared_metrics(args.trace)
    runner = Runner()
    OUT_DIR.mkdir(exist_ok=True)
    try:
        build(runner.env)
        result = traced_run(runner, args) if args.trace else plain_run(runner, args)
    except (BenchmarkError, subprocess.CalledProcessError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    result["provenance"].update(machine(), **git_state(), workload=args.workload,
                                seed=args.seed, seconds=args.seconds, trace=args.trace)
    metrics = result["metrics"]
    missing = sorted(set(units) - set(metrics))
    correct = result["failed"] == 0 and not missing
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT_DIR / f"{stem}.json", "w") as handle:
        json.dump(result, handle)

    for failure in result["failures"]:
        print(f"FAILED {failure}")
    for name in missing:
        print(f"MISSING {name}")
    for name, unit in units.items():
        if name in metrics:
            print(f"{args.workload:10s} {name:34s} {metrics[name]:16.6g} {unit}")
    if "failed_frac" not in units:
        print(f"{args.workload:10s} {'failed_frac':34s} "
              f"{result['failed'] / max(result['attempted'], 1):16.6g} ratio")
    print(json.dumps({"provenance": result["provenance"]}))
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
