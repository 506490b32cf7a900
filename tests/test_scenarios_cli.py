import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qphase.scenarios import (
    SCENARIO_KINDS,
    ValidationError,
    parse_scenario,
    run_scenario,
)
from qphase.wigner import LossChannel, run_wigner_x

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def _run_cli(*args, env=None):
    import os

    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(
        [sys.executable, "-m", "qphase.cli", *args],
        capture_output=True,
        text=True,
        env=full_env,
    )


# ---------------------------------------------------------------------------
# parsing / validation
# ---------------------------------------------------------------------------


def test_all_shipped_fixtures_parse():
    fixtures = sorted(SCENARIO_DIR.glob("*.yaml"))
    assert len(fixtures) >= 7
    kinds = set()
    for path in fixtures:
        scenario = parse_scenario(path.read_text())
        kinds.add(scenario.kind)
    assert kinds == set(SCENARIO_KINDS)


def test_validation_collects_every_error():
    text = """
kind: plusp
seed: not-an-int
state: {kind: coherent, alpha: bogus}
chi: []
trajectories: -5
mystery_key: 1
times: {stop: -1}
"""
    with pytest.raises(ValidationError) as err:
        parse_scenario(text)
    paths = {p for p, _ in err.value.errors}
    # one entry per independent problem, with key paths
    assert {"seed", "chi", "trajectories", "mystery_key"} <= paths
    assert any(p.startswith("state.alpha") for p in paths)
    assert len(err.value.errors) >= 5


def test_unknown_kind_rejected():
    with pytest.raises(ValidationError) as err:
        parse_scenario("kind: warp-drive")
    assert err.value.errors[0][0] == "kind"


def test_non_mapping_rejected():
    with pytest.raises(ValidationError):
        parse_scenario("- just\n- a\n- list\n")
    with pytest.raises(ValidationError):
        parse_scenario("kind: [unbalanced")


def test_defaults_fill_in():
    scenario = parse_scenario("kind: plusp-reverse\n")
    assert scenario.params["alpha0"] == 10.0
    assert scenario.params["chi"] == pytest.approx(0.01)
    assert scenario.params["dt"] == 0.002
    assert scenario.params["trajectories"] == 10000
    var = parse_scenario("kind: variational\n")
    assert var.params["components"] == 16
    assert var.params["alpha"] == pytest.approx(math.sqrt(3.0))
    assert var.params["radius"] == pytest.approx(0.1)


def test_times_grid_forms():
    s1 = parse_scenario("kind: wigner\nalpha0: 1.0\ntimes: [0, 0.1, 0.2]\n")
    assert list(s1.params["times"]) == [0.0, 0.1, 0.2]
    s2 = parse_scenario("kind: wigner\nalpha0: 1.0\ntimes: {stop: 0.2, points: 3}\n")
    assert list(s2.params["times"]) == [0.0, 0.1, 0.2]
    with pytest.raises(ValidationError):
        parse_scenario("kind: wigner\nalpha0: 1.0\ntimes: [0.2, 0.1]\n")


def test_complex_number_forms():
    s = parse_scenario('kind: wigner\nalpha0: "1+2j"\ntimes: [0, 0.1]\n')
    assert s.params["alpha0"][0] == 1 + 2j
    s = parse_scenario("kind: wigner\nalpha0: [[1.0, 2.0]]\ntimes: [0, 0.1]\n")
    assert s.params["alpha0"][0] == 1 + 2j


def test_amplitude_list_holds_one_entry_per_component():
    wigner = parse_scenario("kind: wigner\nalpha0: [3.0, 3.0]\ntimes: [0, 0.1]\n")
    assert wigner.params["alpha0"] == [3.0, 3.0]
    plusp = parse_scenario(
        "kind: plusp\nstate: {kind: coherent, alpha: [3.0, 3.0]}\ntimes: [0, 0.1]\n"
    )
    assert plusp.params["state"]["alpha"] == [3.0, 3.0]
    mixed = parse_scenario('kind: wigner\nalpha0: [2.0, "1+2j", [0.5, -1.0]]\ntimes: [0, 0.1]\n')
    assert mixed.params["alpha0"] == [2.0, 1 + 2j, 0.5 - 1j]
    for text, path in (
        ("kind: wigner\nalpha0: [3.0, bogus]\ntimes: [0, 0.1]\n", "alpha0[1]"),
        ("kind: wigner\nalpha0: []\ntimes: [0, 0.1]\n", "alpha0"),
        (
            "kind: plusp\nstate: {kind: coherent, alpha: [1.0, [2.0]]}\ntimes: [0, 0.1]\n",
            "state.alpha[1]",
        ),
    ):
        with pytest.raises(ValidationError) as err:
            parse_scenario(text)
        assert [p for p, _ in err.value.errors] == [path]


# ---------------------------------------------------------------------------
# running scenarios in-process
# ---------------------------------------------------------------------------


def test_run_dimension_count():
    scenario = parse_scenario("kind: dimension-count\nparticles: 2\nmodes: 2\n")
    outcome = run_scenario(scenario)
    assert outcome.report["dimension"] == "3"


def test_run_entropy_scenario():
    scenario = parse_scenario(
        "kind: entropy\nspecies: fermion\npoints: [0.2, 0.7]\npairing: all\n"
    )
    outcome = run_scenario(scenario)
    # exact two-member equal-weight mixture purity
    ip = lambda f, g: (1 - f) * (1 - g) + f * g
    purity = (ip(0.2, 0.2) + 2 * ip(0.2, 0.7) + ip(0.7, 0.7)) / 4.0
    assert outcome.report["S2"] == pytest.approx(-math.log(purity), abs=1e-12)
    assert not outcome.inconclusive


def test_run_variational_scenario_short():
    scenario = parse_scenario(
        "kind: variational\ncomponents: 6\nalpha: 1.0\nt_max: 0.1\n"
        "dt: 0.01\nrecord_every: 5\n"
    )
    outcome = run_scenario(scenario)
    assert outcome.columns == ["t", "x", "y", "norm", "energy"]
    assert outcome.report["norm_drift"] < 1e-3
    assert outcome.report["energy_drift"] < 1e-3


def test_run_seed_override_changes_sampling():
    text = (
        "kind: plusp\nseed: 1\nstate: {kind: coherent, alpha: 2.0}\n"
        "chi: 0.05\ntrajectories: 200\ndt: 0.01\ntimes: {stop: 0.1, points: 2}\n"
    )
    scenario = parse_scenario(text)
    a = run_scenario(scenario, seed=1)
    b = run_scenario(scenario, seed=1)
    c = run_scenario(scenario, seed=2)
    assert a.rows == b.rows
    assert a.rows != c.rows


# ---------------------------------------------------------------------------
# CLI end to end
# ---------------------------------------------------------------------------


def test_cli_list_scenarios():
    proc = _run_cli("list-scenarios")
    assert proc.returncode == 0
    assert set(proc.stdout.split()) == set(SCENARIO_KINDS)


def test_cli_validate_good_and_bad(tmp_path):
    good = SCENARIO_DIR / "dimension_count.yaml"
    proc = _run_cli("validate", str(good))
    assert proc.returncode == 0
    assert proc.stdout.startswith("ok:")

    bad = tmp_path / "bad.yaml"
    bad.write_text("kind: wigner\ntrajectories: -1\ntimes: [0.5]\n")
    proc = _run_cli("validate", str(bad))
    assert proc.returncode == 2
    assert "trajectories" in proc.stderr
    assert "times" in proc.stderr
    assert "alpha0" in proc.stderr  # all errors reported at once

    proc = _run_cli("validate", str(tmp_path / "missing.yaml"))
    assert proc.returncode == 2


def test_cli_dimension_count_prints_exact_integer(tmp_path):
    proc = _run_cli(
        "run", str(SCENARIO_DIR / "dimension_count.yaml"), "--out", str(tmp_path)
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "3"


def test_cli_run_writes_outputs_and_manifest(tmp_path):
    scenario = tmp_path / "tiny.yaml"
    scenario.write_text(
        "kind: plusp\nseed: 4\nstate: {kind: coherent, alpha: 2.0}\n"
        "chi: 0.05\ntrajectories: 200\ndt: 0.01\ntimes: {stop: 0.1, points: 3}\n"
    )
    proc = _run_cli("run", str(scenario), "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    csv_path = tmp_path / "tiny.csv"
    json_path = tmp_path / "tiny.json"
    manifest_path = tmp_path / "tiny.manifest.json"
    assert csv_path.exists() and json_path.exists() and manifest_path.exists()
    manifest = json.loads(manifest_path.read_text())
    assert manifest["kind"] == "plusp"
    assert manifest["seed"] == 4
    assert len(manifest["parameter_hash"]) == 64
    assert manifest["diverged"] == 0
    header = csv_path.read_text().splitlines()[0]
    assert header == "t,re_x,error,diverged_count"


def test_cli_csv_cells_parse_as_floats(tmp_path):
    scenario = tmp_path / "tiny.yaml"
    scenario.write_text(
        "kind: plusp\nseed: 4\nstate: {kind: coherent, alpha: 2.0}\n"
        "chi: 0.05\ntrajectories: 50\ndt: 0.01\ntimes: {stop: 0.02, points: 3}\n"
    )
    proc = _run_cli("run", str(scenario), "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    rows = (tmp_path / "tiny.csv").read_text().splitlines()[1:]
    assert len(rows) == 3
    for row in rows:
        for cell in row.split(","):
            float(cell)


def test_cli_reruns_are_byte_identical(tmp_path):
    scenario = tmp_path / "tiny.yaml"
    scenario.write_text(
        "kind: plusp\nseed: 9\nstate: {kind: coherent, alpha: 1.5}\n"
        "chi: 0.1\ntrajectories: 300\ndt: 0.01\ntimes: {stop: 0.1, points: 3}\n"
    )
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    for out in (out1, out2):
        proc = _run_cli("run", str(scenario), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
    assert (out1 / "tiny.csv").read_bytes() == (out2 / "tiny.csv").read_bytes()
    assert (out1 / "tiny.json").read_bytes() == (out2 / "tiny.json").read_bytes()


def test_cli_out_dir_env(tmp_path):
    scenario = SCENARIO_DIR / "dimension_count.yaml"
    proc = _run_cli("run", str(scenario), env={"QPHASE_OUT_DIR": str(tmp_path)})
    assert proc.returncode == 0
    assert (tmp_path / "dimension-2-2.manifest.json").exists()


def test_cli_runtime_failure_exit_code(tmp_path):
    scenario = tmp_path / "boom.yaml"
    # valid per schema, but the reversal time misses the step grid
    scenario.write_text(
        "kind: plusp-reverse\nalpha0: 2.0\nchi: 0.25\nreversal_time: 0.0013\n"
        "trajectories: 100\ndt: 0.002\npoints: 3\n"
    )
    proc = _run_cli("run", str(scenario), "--out", str(tmp_path))
    assert proc.returncode == 3
    assert "runtime failure" in proc.stderr


def test_cli_inconclusive_exit_code(tmp_path):
    scenario = tmp_path / "hopeless.yaml"
    scenario.write_text(
        "kind: plusp-reverse\nseed: 3\nalpha0: 4.0\nchi: 0.0625\n"
        "reversal_time: 0.2\ntrajectories: 200\ndt: 0.002\n"
        "error_ceiling: 1.0e-9\npoints: 5\n"
    )
    proc = _run_cli("run", str(scenario), "--out", str(tmp_path))
    assert proc.returncode == 4
    assert "inconclusive" in proc.stderr


_TWO_COMPONENT_WIGNER = """kind: wigner
seed: 5
alpha0: [[3.0, 0.0], [3.0, 0.0]]
{chi}
losses:
  - {{powers: [1, 0], rate: 0.05}}
  - {{powers: [0, 1], rate: 0.05}}
  - {{powers: [2, 0], rate: 0.002}}
  - {{powers: [1, 1], rate: 0.002}}
trajectories: 200
dt: 0.01
times: {{stop: 0.1, points: 3}}
"""


def test_cli_two_component_wigner_matches_library(tmp_path):
    chi = [[0.01, 0.005], [0.005, 0.01]]
    scenario = tmp_path / "two.yaml"
    scenario.write_text(_TWO_COMPONENT_WIGNER.format(chi=f"chi: {chi}"))
    proc = _run_cli("run", str(scenario), "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr

    times = np.array([0, 5, 10]) * 0.01
    channels = [
        LossChannel(powers, rate)
        for powers, rate in [((1, 0), 0.05), ((0, 1), 0.05), ((2, 0), 0.002), ((1, 1), 0.002)]
    ]
    result = run_wigner_x([3.0, 3.0], np.array(chi), times, 200, 5, 0.01, channels=channels)
    expected = []
    for name in ("X", "n_w"):
        for i, t in enumerate(times):
            mean, error = result.mean(name)[i].real, result.error(name)[i]
            expected.append([repr(float(t)), name, repr(float(mean)), repr(float(error))])
    rows = [line.split(",") for line in (tmp_path / "two.csv").read_text().splitlines()[1:]]
    assert rows == expected


def test_cli_two_component_wigner_rejects_scalar_chi(tmp_path):
    scenario = tmp_path / "two.yaml"
    scenario.write_text(_TWO_COMPONENT_WIGNER.format(chi="chi: 0.01"))
    proc = _run_cli("run", str(scenario), "--out", str(tmp_path))
    assert proc.returncode == 2
    assert "chi:" in proc.stderr


def test_wigner_chi_forms():
    base = "kind: wigner\nalpha0: {alpha}\ntimes: [0.0, 0.1]\n"
    one = parse_scenario(base.format(alpha="2.0") + "chi: 0.5\n")
    assert one.params["chi"] == 0.5
    one_list = parse_scenario(base.format(alpha="2.0") + "chi: [[0.5]]\n")
    assert np.array_equal(one_list.params["chi"], [[0.5]])
    assert parse_scenario(base.format(alpha="2.0")).params["chi"] is None
    two = "[[2.0, 0.0], [1.0, 0.0]]"
    assert parse_scenario(base.format(alpha=two)).params["chi"] is None
    for bad in ("[[1.0, 0.0]]", "[[1.0, 0.0], [0.0]]", "[[1.0, x], [0.0, 1.0]]", "true"):
        with pytest.raises(ValidationError) as err:
            parse_scenario(base.format(alpha=two) + f"chi: {bad}\n")
        assert [p for p, _ in err.value.errors] == ["chi"]
