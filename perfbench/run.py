"""qphase benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Runs one workload (see BENCHMARK.json) against the qphase sources of the
checkout this file sits in, and prints its metrics; the last line of
standard output is the result JSON.  ``--trace 0`` gives the end-to-end
metrics, ``--trace 1`` the per-layer metrics and the tracing overhead.
``--workload all`` runs every workload untraced and prints one table.

This process imports nothing heavy: it pins BLAS/OpenMP threads to 1 in
the environment of the worker process before numpy is imported there,
and stops the worker and everything it started if it overruns.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

from tracer import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def worker_env():
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    # set-up time is measured with the bytecode cache an installed package has
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def run_worker(args, limit):
    """Run one workload in a worker process; returns (exit code, stdout, stderr)."""
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--scale", args.scale,
    ]
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=limit)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        return 124, out, err + f"\nworker stopped after {limit:.0f} s\n"
    return proc.returncode, out, err


def run_all(args):
    rows, results = [], {}
    for name in WORKLOADS:
        code, out, err = run_worker(argparse.Namespace(**{**vars(args), "workload": name}), RUN_LIMIT_S)
        sys.stderr.write(err)
        lines = out.strip().splitlines()
        if code not in (0, 1) or not lines:
            sys.stderr.write(out)
            print(f"{name}: worker failed with exit code {code}", file=sys.stderr)
            return code or 1
        result = json.loads(lines[-1])
        results[name] = result
        metrics = result["metrics"]
        rows.append((name, metrics, result["failed"] / result["attempted"]))
    names = list(rows[0][1])
    print(f"{'workload':<21}" + "".join(f"{n:>16}" for n in names) + f"{'failed_frac':>13}")
    print(f"{'':<21}" + "".join(f"{'[' + rows[0][1][n]['unit'] + ']':>16}" for n in names)
          + f"{'[fraction]':>13}")
    for name, metrics, failed_frac in rows:
        print(f"{name:<21}" + "".join(f"{metrics[n]['value']:>16.6g}" for n in names)
              + f"{failed_frac:>13.6g}")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description="qphase benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "small"), default="full",
                        help="'small' shrinks every operation, for the smoke test")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "qphase" / "cli.py").is_file():
        print(f"error: no qphase sources under {ROOT / 'src'}; run from a qphase checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    code, out, err = run_worker(args, RUN_LIMIT_S)
    sys.stderr.write(err)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
