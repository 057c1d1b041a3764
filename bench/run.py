"""cigarflow benchmark: one workload, timed end to end or traced per layer.

    python3 bench/run.py --workload relax_long --seed 0 --seconds 30 --trace 0

Runs the workload's iteration in a closed loop on one thread until
`--seconds` have passed (at least once), checks every iteration's output
and prints each metric as a line `<name> <value> <unit>`, then one JSON
object on the last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`--trace 0` reports the end-to-end metrics (wall_s, setup_s, peak_rss_mb,
max_err), with times in reference seconds (see speed.py).  `--trace 1`
alternates untraced and traced iterations and reports the per-layer
metrics from the traced ones (see tracer.py).
Workloads, seeds and metrics are described in bench/README.md.
"""

import os

# BLAS sizes its thread pool when numpy loads, so pin it before any import
# of numpy, here and in the set-up probes that inherit this environment.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import tracer  # noqa: E402
from speed import MachineSpeed  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "_work"
SETUP_REPEATS = 9
PROBE_TIMEOUT_S = 60

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "max_err": "1"}


def per_layer_units():
    units = {}
    for name in tracer.NAMES:
        units.update({f"{name}.calls": "count", f"{name}.us_per_call": "us",
                      f"{name}.self_s": "s"})
    units.update({
        "flow.steps_per_sim_time": "steps/t",
        "flow.rhs_evals_per_sim_time": "evals/t",
        "flow.probe_step_share": "1",
        "flow.fixed_fields.calls_per_step": "calls/step",
    })
    units.update({f"{name}.bytes": "B" for name in tracer.BYTE_COUNTERS})
    units.update({"trace.overhead_frac": "1", "trace.wall_s": "s", "trace.unwrapped_s": "s"})
    return units


def git_commit():
    if not (ROOT / ".git").exists():
        return "unavailable (not a git checkout)"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired) as err:
        return f"unavailable ({err})"
    return out.stdout.strip() if out.returncode == 0 else "unavailable"


def environment(seed):
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "git_commit": git_commit(),
        "seed": seed,
    }


def setup_seconds(workload, seed):
    """SETUP_REPEATS cold set-ups, each in a fresh interpreter: returns the
    measured times and the same in reference seconds."""
    measured, reference = [], []
    speed = MachineSpeed()
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
        )
        seconds = json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]
        measured.append(seconds)
        reference.append(speed.reference_seconds(seconds))
    return measured, reference


def run_iteration(workload, spans=None):
    """Time one iteration, traced if a Tracer is given, then check it
    untraced.  Returns (wall_s, output, failures)."""
    if spans:
        spans.install()
    t0 = time.perf_counter()
    try:
        output = workload.iterate()
    except Exception:  # a crash in the program is a failed iteration, not a benchmark crash
        traceback.print_exc()
        return time.perf_counter() - t0, None, ["iteration raised"]
    finally:
        wall = time.perf_counter() - t0
        if spans:
            spans.uninstall()
    try:
        failures = workload.check(output)
    except Exception:
        traceback.print_exc()
        failures = ["check raised"]
    return wall, output, failures


def closed_loop(seconds, body):
    """Call `body` back to back, at least once, and stop before the call
    that would end past `seconds` if it took as long as the last one."""
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        body()
        now = time.perf_counter()
        if (now - start) + (now - t0) > seconds:
            return


class Tally:
    """Iterations of one kind: wall times (measured and in reference
    seconds) of those that passed their checks, and the failures."""

    def __init__(self, label, speed):
        self.label = label
        self.speed = speed
        self.attempted = 0
        self.failed = 0
        self.walls = []            # (measured s, reference s) of every iteration
        self.good = []             # the same for iterations that passed
        self.good_output = None
        self.last_output = None

    def add(self, wall, output, failures):
        self.attempted += 1
        walls = (wall, self.speed.reference_seconds(wall))
        self.walls.append(walls)
        if output is not None:
            self.last_output = output
        if failures:
            self.failed += 1
            for failure in failures:
                print(f"check failed ({self.label} iteration {self.attempted}): {failure}",
                      file=sys.stderr)
        else:
            self.good.append(walls)
            if self.good_output is None:
                self.good_output = output

    def median(self, which):
        """Median wall time, 0 = measured, 1 = reference seconds, of the
        iterations that passed (of all of them when none did)."""
        return statistics.median(w[which] for w in (self.good or self.walls))


def print_metric(name, value, unit, note=""):
    text = "null" if value is None else repr(float(value))
    print(f"{name} {text} {unit}" + (f"  # {note}" if note else ""))


def end_to_end(workload, args):
    setup_measured, setup_reference = setup_seconds(args.workload, args.seed)
    speed = MachineSpeed()
    tally = Tally("untraced", speed)
    closed_loop(args.seconds, lambda: tally.add(*run_iteration(workload)))
    output = tally.good_output if tally.good_output is not None else tally.last_output
    max_err = workload.max_err(output) if output is not None else None
    metrics = {
        "wall_s": tally.median(1),
        "setup_s": statistics.median(setup_reference),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "max_err": max_err,
    }
    notes = {
        "wall_s": f"reference s, median of {len(tally.good or tally.walls)} iterations; "
                  f"measured median {tally.median(0):.4f} s, max "
                  f"{max(w[0] for w in tally.walls):.4f} s, speed factor {speed.factor():.4f}",
        "setup_s": f"reference s, median of {len(setup_reference)} cold set-ups; "
                   f"measured median {statistics.median(setup_measured):.4f} s",
        "peak_rss_mb": "ru_maxrss of this process",
        "max_err": "max |u~ - exact| vs 1/(e^{4t}+r^2), exact-cigar run to t=0.5 on this grid",
    }
    return tally.attempted, tally.failed, metrics, notes


def per_layer(workload, args, env):
    spans = tracer.Tracer()
    speed = MachineSpeed()
    untraced, traced = Tally("untraced", speed), Tally("traced", speed)

    def pair():
        untraced.add(*run_iteration(workload))
        traced.add(*run_iteration(workload, spans))

    closed_loop(args.seconds, pair)
    metrics = spans.summary(traced.attempted, workload.sim_time,
                            sum(w[0] for w in traced.walls))
    metrics["trace.overhead_frac"] = traced.median(1) / untraced.median(1) - 1.0
    spans.save(WORK / f"spans_{args.workload}.npz", json.dumps(env))
    notes = {
        "trace.overhead_frac": f"reference s: traced {traced.median(1):.4f} vs untraced "
                               f"{untraced.median(1):.4f}, medians of {traced.attempted} each",
        "trace.wall_s": f"measured s per traced iteration, {traced.attempted} traced",
    }
    return (untraced.attempted + traced.attempted, untraced.failed + traced.failed,
            metrics, notes)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cigarflow" / "__init__.py").is_file():
        print(f"error: no cigarflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    env = environment(args.seed)
    print(f"# cigarflow benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(env))

    out_dir = WORK / args.workload
    workload = workloads.WORKLOADS[args.workload]()
    workload.setup(args.seed, out_dir)
    try:
        if args.trace:
            attempted, failed, metrics, notes = per_layer(workload, args, env)
            units = per_layer_units()
        else:
            attempted, failed, metrics, notes = end_to_end(workload, args)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    for name, unit in units.items():
        print_metric(name, metrics[name], unit, notes.get(name, ""))
    print_metric("failed_frac", failed / attempted, "1",
                 f"{failed} of {attempted} iterations failed a check")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
