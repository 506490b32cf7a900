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


@pytest.mark.parametrize("script", sorted(SCRIPTS))
def test_script_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *SCRIPTS[script]],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
