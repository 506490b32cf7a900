"""Each demo script runs end to end on a small problem."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

SCRIPTS = {
    "time_reversal_demo.py": ["--trajectories", "200"],
    "doublewell_squeezing_scan.py": ["--atoms", "20", "--points", "3"],
    "variational_revival.py": ["--steps", "400"],
    "wigner_vs_exact.py": ["--trajectories", "200", "--points", "3"],
}


def test_every_script_is_covered():
    assert set(SCRIPTS) == {p.name for p in (ROOT / "scripts").glob("*.py")}


def _run_script(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


@pytest.mark.parametrize("script", sorted(SCRIPTS))
def test_script_runs(script):
    proc = _run_script(script, *SCRIPTS[script])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_variational_step_failure_is_one_line():
    """Too coarse a step exits 3 with one message naming dt, no traceback."""
    proc = _run_script("variational_revival.py", "--steps", "20")
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1 and "dt=0.314159" in proc.stderr
