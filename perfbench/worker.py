"""Benchmark worker: runs one workload in a closed loop and prints its metrics.

Started by ``run.py`` with BLAS/OpenMP threads already pinned in its
environment, so numpy sees them at import.  The worker writes the
workload's inputs from the seed, measures set-up time in cold processes,
runs one untimed warm-up pass and then timed passes until the run length
is used up, checking every operation's output outside the timed interval.
With tracing on it alternates untraced and traced passes and reports the
per-layer metrics and the tracing overhead instead.

The last line of standard output is the result JSON.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import namedtuple
from pathlib import Path

import numpy as np

import tracer
from run import THREAD_VARS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PROBE = HERE / "probe.py"

E2E_UNITS = {"setup_s": "s", "solve_s": "s", "peak_rss_mb": "MB", "time_to_bar_s": "s"}

# Reported times are wall times rescaled to a reference machine speed.  On
# a host with shared cores the speed of all code drifts by up to 40 % over
# tens of seconds, and jitters by tens of percent from one 10 ms to the
# next.  A fixed kernel is timed between operations all through a run; its
# median time tracks the run's mean speed, which moves the workloads' times
# with it.  The kernel mixes the three kinds of work the workloads do:
# interpreter loops, numpy passes over large arrays and many numpy calls on
# tiny ones.  A run's wall times are multiplied by
# CALIBRATION_REF_S / (median kernel time of the run).  CALIBRATION_REF_S
# is about the kernel's time on one core of the 2-core x86-64 VM the
# benchmark was written on, so values there read as wall seconds.  Raw
# wall times are kept in result.json.
CALIBRATION_REF_S = 0.005
KERNEL_REPEATS = 6
_LARGE = np.linspace(0.0, 1.0, 40000)
_SMALL = np.eye(12) * 3.0 + np.linspace(0.0, 1.0, 144).reshape(12, 12)


def _kernel():
    s = 0
    for i in range(30000):
        s += i * i % 7
    y = _LARGE
    for _ in range(5):
        y = np.sqrt(np.exp(-y) + 1.0)
    for _ in range(150):
        np.linalg.solve(_SMALL, _SMALL[0])
    return s


def time_kernel(samples):
    """Append KERNEL_REPEATS timings of the reference kernel to ``samples``."""
    for _ in range(KERNEL_REPEATS):
        start = time.perf_counter()
        _kernel()
        samples.append(time.perf_counter() - start)


def speed_factor(samples):
    return CALIBRATION_REF_S / statistics.median(samples)


def _probe(args):
    """Run the cold-start probe; returns (seconds from spawn, stderr)."""
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, *args], cwd=ROOT, capture_output=True, text=True, timeout=60, check=True
    )
    return float(proc.stdout.strip().splitlines()[-1]) - start, proc.stderr


def measure_setup(plan):
    """Median cold-process time to import the CLI and engines and parse the scenarios.

    Returns (rescaled median, raw wall samples); the reference kernel is
    timed before, between and after the probes.
    """
    args = [str(PROBE), ",".join(plan.engines), *map(str, plan.scenario_files)]
    _probe(args)  # fills the bytecode and file caches, as any earlier run would
    raw, kernel = [], []
    time_kernel(kernel)
    for _ in range(plan.setup_repeats):
        raw.append(_probe(args)[0])
        time_kernel(kernel)
    return statistics.median(raw) * speed_factor(kernel), raw


_IMPORT_LINE = re.compile(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*qphase\.(\w+)\s*$")


def measure_imports(repeats):
    """Median cumulative import time of each qphase module in a cold process."""
    modules = ",".join(f"qphase.{m}" for m in tracer.IMPORT_MODULES)
    samples = {m: [] for m in tracer.IMPORT_MODULES}
    for _ in range(repeats + 1):
        _, err = _probe(["-X", "importtime", str(PROBE), modules])
        for line in err.splitlines():
            match = _IMPORT_LINE.search(line)
            if match and match.group(2) in samples:
                samples[match.group(2)].append(int(match.group(1)) * 1e-6)
    return {m: statistics.median(v[1:]) for m, v in samples.items()}


def run_environment():
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "git_sha": _git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads_pinned": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def _git_sha():
    """Commit of the checkout, read from its own .git only; 'unknown' without one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_pass(plan, kernel, recorder=None):
    """One pass: (op name -> wall s, op name -> output, one message per failed op).

    The reference kernel is timed before each operation and after the
    last, and its timings are appended to ``kernel``.
    """
    times, outputs, failures = {}, {}, []
    time_kernel(kernel)
    for op in plan.ops:
        gc.collect()  # garbage from earlier operations and checks is not this one's cost
        if recorder is not None:
            recorder.op_id = op.name
            recorder.install()
        start = time.perf_counter()
        try:
            output = recorder.span(f"op.{op.name}", op.run) if recorder else op.run()
        except Exception as exc:  # noqa: BLE001 - any engine failure fails the operation
            output, problems = None, [f"{type(exc).__name__}: {exc}"]
        else:
            problems = None
        times[op.name] = time.perf_counter() - start
        if recorder is not None:
            recorder.uninstall()
        time_kernel(kernel)
        if problems is None:
            try:
                problems = op.check(output)
            except Exception as exc:  # noqa: BLE001 - a check that cannot read the output fails
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        outputs[op.name] = output
        if problems:
            failures.append(f"{op.name}: " + "; ".join(problems))
    return times, outputs, failures


def tail_percentile(samples):
    """Highest integer percentile with at least 10 samples beyond it, or None."""
    n = len(samples)
    if n < 20:
        return None
    pct = math.floor(100.0 * (n - 10) / n)
    return pct, statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


Pass = namedtuple("Pass", "traced wall op_wall outputs")


def timed_passes(plan, seconds, trace, workload):
    """Passes until ``seconds`` is used up; with ``trace``, every second pass is traced.

    Returns (passes, layer samples, spans, separation problems, failures,
    speed factor of the run).
    """
    passes, layer_samples, spans, separation, failures, kernel = [], [], None, [], [], []
    start = time.monotonic()
    while True:
        recorder = tracer.Tracer() if trace and len(passes) % 2 == 1 else None
        times, outputs, problems = run_pass(plan, kernel, recorder)
        failures += problems
        passes.append(Pass(recorder is not None, sum(times.values()), times, outputs))
        if recorder is not None:
            layer_samples.append(recorder.layer_values())
            if spans is None:
                spans = recorder.spans
                separation = recorder.check_separation(workload)
        elapsed = time.monotonic() - start
        typical = statistics.median(p.wall for p in passes)
        if (not trace or layer_samples) and elapsed + typical > seconds:
            return passes, layer_samples, spans, separation, failures, speed_factor(kernel)


def end_to_end(plan, untraced, factor, setup_s, result):
    headline = statistics.median(p.op_wall[plan.headline] for p in untraced) * factor
    output = untraced[-1].outputs[plan.headline]
    if plan.bar is None or output is None:
        time_to_bar = headline  # a deterministic engine meets any bar in one solve
    else:
        bar = plan.bar(output)
        time_to_bar = headline * (bar / plan.target_bar) ** 2
        result.update(headline_bar=bar, target_bar=plan.target_bar)
    solve = [p.wall * factor for p in untraced]
    result["headline_s"] = headline
    tail = tail_percentile(solve)
    if tail:
        result["solve_s_tail"] = {"percentile": tail[0], "value": tail[1]}
    values = {
        "setup_s": setup_s,
        "solve_s": statistics.median(solve),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "time_to_bar_s": time_to_bar,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in E2E_UNITS.items()}


def per_layer(passes, factor, layer_samples, imports):
    values = {name: statistics.median(s[name] for s in layer_samples) for name in layer_samples[0]}
    values.update({f"{m}.import_s": v for m, v in imports.items()})
    values["trace.overhead_s"] = factor * (
        statistics.median(p.wall for p in passes if p.traced)
        - statistics.median(p.wall for p in passes if not p.traced)
    )
    return {
        name: {"value": round(values[name]) if unit in ("count", "B") else values[name], "unit": unit}
        for name, unit, _ in tracer.LAYER_METRICS
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=("full", "small"), default="full")
    args = parser.parse_args(argv)

    import qphase

    if not Path(qphase.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"qphase imported from {qphase.__file__}, not from this checkout's src/")
    import workloads

    work = ROOT / ".perfbench_out" / f"{args.workload}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    plan = workloads.build(args.workload, args.seed, args.scale, work)
    env = run_environment()
    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "scale": args.scale, "environment": env, "notes": plan.notes}
    if args.trace:
        imports = measure_imports(plan.setup_repeats)
    else:
        setup_s, result["setup_wall_s_samples"] = measure_setup(plan)

    _, _, failures = run_pass(plan, [])  # warm-up, untimed
    passes, layer_samples, spans, separation, problems, factor = timed_passes(
        plan, args.seconds, args.trace, args.workload
    )
    failures += problems
    attempted = len(plan.ops) * (1 + len(passes))
    untraced = [p for p in passes if not p.traced]
    result["speed_factor"] = factor
    result["solve_wall_s_samples"] = [p.wall for p in untraced]
    result["solve_wall_s"] = statistics.median(result["solve_wall_s_samples"])
    if args.trace:
        metrics = per_layer(passes, factor, layer_samples, imports)
        result["layers"] = {name: layer._asdict() for name, layer in tracer.LAYERS.items()}
        spans_path = work / "spans.json"
        spans_path.write_text(json.dumps(
            {"fields": ["id", "name", "start", "end", "parent", "op"], "spans": spans}
        ))
        result["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        metrics = end_to_end(plan, untraced, factor, setup_s, result)

    failed = len(failures)
    correct = not failures and not separation
    result.update(metrics=metrics, attempted=attempted, failed=failed,
                  failures=failures, separation=separation)
    (work / "result.json").write_text(json.dumps(result, indent=2, default=str))

    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(f"failed_frac = {failed / attempted:.6g} ({failed}/{attempted} operations)")
    tail = result.get("solve_s_tail")
    print(f"solve_s: median of {len(untraced)} passes"
          + (f", p{tail['percentile']} {tail['value']:.6g} s" if tail else "")
          + f"; wall median {result['solve_wall_s']:.6g} s, speed factor {factor:.4g}")
    repr_cells = sum(v for k, v in plan.notes.items() if k.endswith(".csv_numpy_repr_cells"))
    if repr_cells:
        print(f"note: qphase run wrote {repr_cells} CSV cells as np.float64(...) reprs in the last pass")
    for failure in failures + separation:
        print(f"FAILED {failure}")
    print("environment: " + json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
