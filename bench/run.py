"""Benchmark of the subadapt package, driven through its public API.

    python3 bench/run.py --workload fit_large --seed 1 --seconds 35 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory. With ``--trace 0`` the operations run unwrapped and the last
line of standard output is a JSON object carrying the end-to-end metrics.
Times leave out the host's steal time, and on cv_small and predict_batch
they are scaled to a reference machine speed by a calibration kernel
sampled between operations (see calibration.py). With ``--trace 1`` timed
and traced operations alternate on the same input and the per-layer metrics
are printed instead, unscaled. See README.md beside this file for the
workloads and the metrics.
"""

import os

# BLAS threads change the training trajectory (cycle and step counts), so
# they are pinned before numpy loads. One thread is at most nproc anywhere.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import json
import platform
import resource
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

from calibration import steal_seconds
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DEFAULT_SEED = 1
# setup_s is the median of the set-ups in one run: at least this many, and
# more while they have taken less than SETUP_BUDGET_S in all.
SETUP_REPEATS = 3
SETUP_BUDGET_S = 1.0
# After each operation the calibration kernel is sampled for this share of
# the operation's time, so that long operations get as many samples per
# second of run as short ones.
CALIBRATION_SHARE = 0.05
# Seconds of calibration samples taken before, among and after the set-ups.
SETUP_CALIBRATION_S = 0.1


def import_package():
    """Import the benchmark's workloads and calibration, and with them numpy
    and subadapt from this checkout's ``src/``; exit with an error if it is
    missing."""
    if not (SRC / "subadapt" / "__init__.py").is_file():
        sys.exit(f"error: package source not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import subadapt
    import calibration
    import workloads
    if not Path(subadapt.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"error: subadapt was imported from {subadapt.__file__}, not {SRC}")
    return workloads, calibration


def environment(load_at_start):
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_at_start": load_at_start,
    }


def run_op(workload, inp, tracer=None, layers=()):
    """(wall s, CPU s, Outcome, steal s) of one operation, or None if it
    raised. Steal is the time the host ran other guests instead."""
    if tracer is not None:
        tracer.install(layers)
    try:
        steal0, cpu0, wall0 = steal_seconds(), time.process_time(), time.perf_counter()
        raw = workload.op(inp)
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        steal = steal_seconds() - steal0
    except Exception:  # an operation failure is counted, the run goes on
        traceback.print_exc()
        return None
    finally:
        if tracer is not None:
            tracer.restore()
    try:
        return wall, cpu, workload.outcome(inp, raw), steal
    except Exception:
        traceback.print_exc()
        return None


def report(ops, problems, metrics):
    """The result line; an operation fails if it raised or failed a check."""
    failed = sum(1 for op in ops if op is None or op[2].problems)
    for op in ops:
        if op is not None:
            problems.extend(op[2].problems)
    for problem in dict.fromkeys(problems):
        print(f"check failed: {problem}", file=sys.stderr)
    return {"correct": failed == 0 and not problems, "attempted": len(ops),
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def signature_problems(runs):
    """``runs`` holds (input index, op); every op on one input must match."""
    first = {}
    problems = []
    for index, op in runs:
        if op is None:
            continue
        expected = first.setdefault(index, op[2].signature)
        if op[2].signature != expected:
            problems.append(f"outputs differ between operations on input {index}")
    return problems


def pool_median(runs, value):
    """Mean over the pool's inputs of each input's median ``value(op)`` over
    its operations; every input weighs the same however often it ran."""
    by_input = {}
    for index, op in runs:
        if op is not None:
            by_input.setdefault(index, []).append(value(op))
    return statistics.fmean(statistics.median(values) for values in by_input.values())


def time_left(started, seconds, step_s):
    """Whether one more step of ``step_s`` seconds still ends within ``seconds``."""
    return time.perf_counter() - started + step_s <= seconds


def timed_run(workload, pool, seconds, setup_s, calibration):
    """Unwrapped operations cycling through the pool for ``seconds``, each
    followed by calibration samples; every input runs at least once. Times
    leave out steal and are scaled by the run's calibration. ``objective`` and ``accuracy`` are
    those of input 0, the seed-independent reference input."""
    runs = []  # (input index, op)
    started = time.perf_counter()
    step_s = 0.0
    while len(runs) < len(pool) or time_left(started, seconds, step_s):
        step_started = time.perf_counter()
        index = len(runs) % len(pool)
        runs.append((index, run_op(workload, pool[index])))
        calibration.sample(CALIBRATION_SHARE * (time.perf_counter() - step_started))
        step_s = time.perf_counter() - step_started
    ops = [op for _, op in runs]
    done = [op for op in ops if op is not None]
    if not done:
        sys.exit("error: every operation raised")
    first = {}
    for index, op in runs:
        if op is not None:
            first.setdefault(index, op[2])
    if 0 not in first:
        sys.exit("error: the reference input produced no output")
    op_s = pool_median(runs, lambda op: op[0] - op[3]) * calibration.wall_scale()
    metrics = {
        "op_s": (op_s, "s"),
        "op_cpu_s": (pool_median(runs, lambda op: op[1]) * calibration.cpu_scale(), "s"),
        "rows_per_s": (workload.rows / op_s, "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "objective": (first[0].objective, "value"),
        "accuracy": (first[0].accuracy, "fraction"),
    }
    problems = signature_problems(runs)
    if len(first) < len(pool):
        problems.append("some inputs never produced an output")
    return report(ops, problems, metrics), {"op_runs_s": [op[0] for op in done],
                                            "op_steal_s": [op[3] for op in done]}


def traced_run(workload, pool, seconds, layers, per_layer):
    """Pairs of an unwrapped and a traced operation on the first input, for
    ``seconds`` and at least two pairs, so that counts can be compared.
    Layer values are means over the traced operations; counts must repeat
    exactly, and traced outputs must equal the unwrapped ones. The overhead
    is the median traced/unwrapped time ratio of a pair, minus one: the two
    halves of a pair run back to back, so they share the machine's load."""
    pairs = []
    started = time.perf_counter()
    step_s = 0.0
    while len(pairs) < 2 or time_left(started, seconds, step_s):
        step_started = time.perf_counter()
        tracer = Tracer()
        pairs.append((run_op(workload, pool[0]), tracer,
                      run_op(workload, pool[0], tracer, layers)))
        step_s = time.perf_counter() - step_started
    ops = [timed for timed, _, _ in pairs] + [traced for _, _, traced in pairs]
    problems = signature_problems([(0, op) for op in ops])
    complete = [pair for pair in pairs if pair[0] is not None and pair[2] is not None]
    if not complete:
        sys.exit("error: no pair of operations completed")
    values = [{name: read(tracer, traced[2]) for name, (_, read) in per_layer.items()}
              for _, tracer, traced in complete]
    metrics = {}
    for name, (unit, _) in per_layer.items():
        column = [v[name] for v in values]
        if unit == "count":
            if len(set(column)) > 1:
                problems.append(f"count {name} differs between traced operations")
            metrics[name] = (column[0], unit)
        else:
            metrics[name] = (statistics.fmean(column), unit)
    metrics["trace.spans"] = (sum(stat.calls for stat in complete[0][1].stats.values()), "count")
    metrics["trace.op_s"] = (statistics.median(traced[0] for _, _, traced in complete), "s")
    metrics["trace.overhead"] = (statistics.median(
        traced[0] / timed[0] for timed, _, traced in complete) - 1.0, "ratio")
    return report(ops, problems, metrics), {"op_runs_s": [op[0] for op in ops if op is not None]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("fit_large", "cv_small", "predict_batch"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny sizes and cycle budgets, for the smoke test")
    args = parser.parse_args(argv)

    load_at_start = os.getloadavg()
    # Import time is left out of setup_s and printed on the information
    # line: it is mostly numpy's, and it outweighed the set-up of fit_large
    # and cv_small.
    import_started = time.perf_counter()
    workloads, calibration = import_package()
    import_s = time.perf_counter() - import_started
    workload = workloads.WORKLOADS[args.workload](args.seed, args.tiny)
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as workdir:
        # The set-ups are scaled by the samples taken among them: before,
        # after each of the first SETUP_REPEATS, and after the last.
        setup_cal = calibration.Calibration(workload.calibrated)
        setup_cal.sample(SETUP_CALIBRATION_S)
        setup_times, setup_steal = [], 0.0
        while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_BUDGET_S:
            steal0, started = steal_seconds(), time.perf_counter()
            pool = workload.setup(workdir)
            setup_times.append(time.perf_counter() - started)
            setup_steal += steal_seconds() - steal0
            if len(setup_times) <= SETUP_REPEATS:
                setup_cal.sample(SETUP_CALIBRATION_S)
        setup_cal.sample(SETUP_CALIBRATION_S)
        # Steal is read in clock ticks, too coarse for a set-up of a few
        # milliseconds, so the set-ups leave out its share of their total.
        unstolen = max(0.0, 1.0 - setup_steal / sum(setup_times))
        setup_s = statistics.median(setup_times) * unstolen * setup_cal.wall_scale()
        cal = calibration.Calibration(workload.calibrated)
        cal.sample()
        if args.trace:
            result, run_info = traced_run(workload, pool, args.seconds,
                                          workloads.LAYERS, workloads.PER_LAYER)
        else:
            result, run_info = timed_run(workload, pool, args.seconds, setup_s, cal)

    print(json.dumps({"env": environment(load_at_start), "workload": args.workload,
                      "seed": args.seed, "params": workload.params,
                      "import_s": import_s, "setups": len(setup_times),
                      "setup_raw_s": statistics.median(setup_times),
                      "setup_scale": setup_cal.wall_scale(), "setup_steal_s": setup_steal,
                      "op_scale": cal.wall_scale(), **run_info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
