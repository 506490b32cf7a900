"""qphase command line: run / validate / list scenario configs.

Exit codes: 0 ok, 2 validation failure, 3 runtime failure,
4 inconclusive (the outputs are written, and stderr says why they cannot
be trusted: a sampling bar over its ceiling, more than 1 % of the
trajectories diverged, or an entropy sign problem).
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import sys
import time
from pathlib import Path

import click
import numpy as np

from . import __version__
from .scenarios import SCENARIO_KINDS, ValidationError, parse_scenario, run_scenario

def _json_default(obj):
    if hasattr(obj, "item"):  # numpy scalars
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3
EXIT_INCONCLUSIVE = 4

OUT_DIR_ENV = "QPHASE_OUT_DIR"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _environment() -> dict:
    """The CPUs this process may run on, the BLAS/OpenMP thread settings
    (None where unset), numpy's version and the BLAS library numpy was
    built against ("unknown" where numpy does not say), for the run manifest."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "cpus": cpus,
        **{var: os.environ.get(var) for var in THREAD_VARS},
        "numpy": np.__version__,
        "blas": blas,
    }


@click.group()
@click.version_option(__version__)
def main():
    """Phase-space and exact quantum dynamics scenario runner."""


def _load(scenario_file: str):
    try:
        text = Path(scenario_file).read_text()
    except OSError as exc:
        click.echo(f"error: cannot read {scenario_file}: {exc}", err=True)
        sys.exit(EXIT_VALIDATION)
    try:
        return parse_scenario(text), text
    except ValidationError as exc:
        click.echo(f"invalid scenario {scenario_file}:", err=True)
        for path, message in exc.errors:
            click.echo(f"  {path}: {message}", err=True)
        sys.exit(EXIT_VALIDATION)


@main.command("list-scenarios")
def list_scenarios():
    """List the supported scenario kinds."""
    for kind in SCENARIO_KINDS:
        click.echo(kind)


@main.command()
@click.argument("scenario_file", type=click.Path())
def validate(scenario_file):
    """Validate a scenario file, reporting every problem."""
    scenario, _ = _load(scenario_file)
    click.echo(f"ok: {scenario.kind} scenario" + (f" '{scenario.name}'" if scenario.name else ""))


@main.command()
@click.argument("scenario_file", type=click.Path())
@click.option("--seed", type=int, default=None, help="Override the scenario seed.")
@click.option(
    "--out",
    "out_dir",
    type=click.Path(file_okay=False),
    default=None,
    help=f"Output directory (default: ${OUT_DIR_ENV} or the current directory).",
)
def run(scenario_file, seed, out_dir):
    """Run a scenario and write CSV/JSON outputs plus a manifest."""
    scenario, text = _load(scenario_file)
    out_dir = Path(out_dir or os.environ.get(OUT_DIR_ENV) or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = scenario.name or Path(scenario_file).stem
    effective_seed = scenario.seed if seed is None else seed

    start = time.perf_counter()
    try:
        outcome = run_scenario(scenario, seed=effective_seed)
    except Exception as exc:  # noqa: BLE001 - engine failures map to exit 3
        click.echo(f"runtime failure: {exc}", err=True)
        sys.exit(EXIT_RUNTIME)
    wall = time.perf_counter() - start

    written = []
    if outcome.rows:
        csv_path = out_dir / f"{stem}.csv"
        with open(csv_path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(outcome.rows[0]))
            writer.writeheader()
            for row in outcome.rows:
                writer.writerow({k: repr(float(v)) if isinstance(v, float) else v for k, v in row.items()})
        written.append(str(csv_path))
    report_path = out_dir / f"{stem}.json"
    with open(report_path, "w") as fh:
        json.dump(outcome.report, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")
    written.append(str(report_path))

    manifest = {
        "scenario_file": str(scenario_file),
        "kind": scenario.kind,
        "seed": effective_seed,
        "parameter_hash": hashlib.sha256(text.encode()).hexdigest(),
        "qphase_version": __version__,
        "diverged": outcome.report.get("diverged", 0),
        "wall_time_s": wall,
        "environment": _environment(),
        "outputs": written,
    }
    manifest_path = out_dir / f"{stem}.manifest.json"
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")

    if scenario.kind == "dimension-count":
        click.echo(outcome.report["dimension"] or f"1e{outcome.report['log10_dimension']:.0f}")
    else:
        click.echo(f"wrote {', '.join(written + [str(manifest_path)])} ({wall:.2f}s)")
    if outcome.inconclusive:
        click.echo(f"result inconclusive: {outcome.inconclusive}", err=True)
        sys.exit(EXIT_INCONCLUSIVE)


if __name__ == "__main__":
    main()
