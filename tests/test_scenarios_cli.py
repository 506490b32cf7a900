import csv
import json
import math
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
import yaml
from click.testing import CliRunner
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qphase.cli import main
from qphase.doublewell import DoubleWellPoint, doublewell_scan, rb_interaction_matrix
from qphase.fock import kerr_oracle
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
divergence_ceiling: .nan
mystery_key: 1
times: {stop: -1}
"""
    with pytest.raises(ValidationError) as err:
        parse_scenario(text)
    paths = {p for p, _ in err.value.errors}
    # one entry per independent problem, with key paths
    assert {"seed", "chi", "trajectories", "divergence_ceiling", "mystery_key"} <= paths
    assert any(p.startswith("state.alpha") for p in paths)
    assert len(err.value.errors) >= 5


_ENTROPY = "kind: entropy\nspecies: fermion\npoints: [0.2, 0.7, 0.3]\n"


@pytest.mark.parametrize(
    "extra, path",
    [
        ('weights: ["x", 1.0, 1.0]\n', "weights[0]"),
        ("weights: [[1.0], 1.0, 1.0]\n", "weights[0]"),
        ("weights: [1.0, .nan, 1.0]\n", "weights[1]"),
        ("weights: [1.0, 1.0, -.inf]\n", "weights[2]"),
        ("weights: [0, 0.0, 0]\npairing: all\n", "weights"),
        # disjoint pairing normalizes by the paired points (0, 1) only
        ("weights: [1.0, -1.0, 5.0]\n", "weights"),
        ("points: [0.2, .nan, 0.3]\n", "points[1]"),
        ("points: [true, 0.7, 0.3]\n", "points[0]"),
        ("points: [[[0.2, .inf], [0.0, 0.5]], [[0.5, 0.0], [0.0, 0.5]]]\n", "points[0]"),
        ("points: [[[0.2, 0.1], [0.1]], [[0.5, 0.0], [0.0, 0.5]]]\n", "points[0]"),
    ],
)
def test_entropy_rejects_non_finite_or_unnormalizable_inputs(extra, path):
    with pytest.raises(ValidationError) as err:
        parse_scenario(_ENTROPY + extra)
    assert [p for p, _ in err.value.errors] == [path]


_WIGNER_ONE = "kind: wigner\nalpha0: 2.0\ntimes: [0.0, 0.1]\n"
_PLUSP_ONE = "kind: plusp\ntimes: [0.0, 0.1]\n"
_DOUBLEWELL = "kind: exact-doublewell\natoms: 8\n"


@pytest.mark.parametrize(
    "text, paths",
    [
        # occupations 2 and 3 gave S2 = -2.14 with pairing: all
        ("kind: entropy\nspecies: fermion\npoints: [2.0, 3.0]\npairing: all\n", ["points[0]", "points[1]"]),
        ("kind: entropy\nspecies: fermion\npoints: [0.2, -0.1, 0.5]\n", ["points[1]"]),
        ("kind: entropy\nspecies: boson\npoints: [0.2, 0.7, -0.5]\n", ["points[2]"]),
        ("kind: entropy\nspecies: boson\npoints: [[[1.0, 0.2], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]]]\n",
         ["points[0]"]),
        # eigenvalues 1.2 and -0.2 from symmetric matrices with diagonals in [0, 1]
        ("kind: entropy\nspecies: fermion\npoints: [[[0.5, 0.7], [0.7, 0.5]], [[0.5, 0.0], [0.0, 0.5]]]\n",
         ["points[0]"]),
    ],
    ids=["fermion-above-1", "fermion-negative", "boson-negative", "asymmetric", "fermion-off-diagonal"],
)
def test_entropy_rejects_points_that_are_not_greens_functions(text, paths):
    with pytest.raises(ValidationError) as err:
        parse_scenario(text)
    assert [p for p, _ in err.value.errors] == paths


def test_entropy_accepts_occupations_on_the_bounds():
    fermion = parse_scenario("kind: entropy\nspecies: fermion\npoints: [0.0, 1.0]\npairing: all\n")
    assert [m.tolist() for m in fermion.params["matrices"]] == [[[0.0]], [[1.0]]]
    pure = parse_scenario("kind: entropy\nspecies: fermion\npoints: [[[0.5, 0.5], [0.5, 0.5]], "
                          "[[1.0, 0.0], [0.0, 0.0]]]\n")
    assert len(pure.params["matrices"]) == 2
    boson = parse_scenario("kind: entropy\nspecies: boson\npoints: [0.0, 40.0]\n")
    assert [m.tolist() for m in boson.params["matrices"]] == [[[0.0]], [[40.0]]]


@pytest.mark.parametrize("state", ["{kind: thermal, nbar: [1.0]}", "{kind: fock, n: [2]}"])
def test_plusp_delta_width_needs_a_coherent_state(state):
    text = _PLUSP_ONE + f"state: {state}\ncanonical_width: delta\n"
    with pytest.raises(ValidationError) as err:
        parse_scenario(text)
    assert [p for p, _ in err.value.errors] == ["canonical_width"]
    coherent = parse_scenario(_PLUSP_ONE + "state: {kind: coherent, alpha: 1.0}\ncanonical_width: delta\n")
    assert coherent.params["width"] == "delta"


def test_number_written_as_yaml_text_gets_a_hint():
    with pytest.raises(ValidationError) as err:
        parse_scenario(_PLUSP_ONE + "state: {kind: coherent, alpha: 1.0}\ndt: 1e-3\n")
    assert err.value.errors == [("dt", "expected a number, got str (YAML 1.1 reads 1e-3 as text: write 1.0e-3)")]
    assert parse_scenario(_PLUSP_ONE + "state: {kind: coherent, alpha: 1.0}\ndt: 1.0e-3\n").params["dt"] == 1e-3
    for text in ("dt: abc\n", "dt: '0.5'\n", "dt: '1.0e-3'\n"):
        with pytest.raises(ValidationError) as err:
            parse_scenario(_PLUSP_ONE + "state: {kind: coherent, alpha: 1.0}\n" + text)
        assert err.value.errors == [("dt", "expected a number, got str")]


@pytest.mark.parametrize(
    "text, path",
    [
        # YAML booleans are not numbers: true would run as 1
        (_WIGNER_ONE + "losses: [{powers: [true], rate: 0.1}]\n", "losses[0].powers"),
        (_PLUSP_ONE + "state: {kind: fock, n: [true]}\n", "state.n"),
        (_PLUSP_ONE + "state: {kind: thermal, nbar: [true]}\n", "state.nbar"),
        (_PLUSP_ONE + "state: {kind: coherent, alpha: true}\n", "state.alpha"),
        ("kind: wigner\nalpha0: [[true, 0.0]]\ntimes: [0.0, 0.1]\n", "alpha0[0]"),
        ("kind: wigner\nalpha0: 2.0\ntimes: [0, true]\n", "times"),
        (_DOUBLEWELL + "taus: [true, 2]\n", "taus"),
        (_DOUBLEWELL + "taus: [1]\nchi_ratios: [true, 1, 0.5]\n", "chi_ratios"),
        # a loss channel with rate 0 removes no atoms but costs noise draws
        (_WIGNER_ONE + "losses: [{powers: [1], rate: 0}]\n", "losses[0].rate"),
        (_WIGNER_ONE + "losses: [{powers: [1]}]\n", "losses[0].rate"),
        # an infinite thermal occupation used to die mid-run
        (_PLUSP_ONE + "state: {kind: thermal, nbar: [.inf]}\n", "state.nbar"),
        # taus are in units of chi_11, and every tau must be finite
        (_DOUBLEWELL + "taus: [1]\nchi_ratios: [0, 1, 0.5]\n", "chi_ratios"),
        (_DOUBLEWELL + "taus: [1]\nchi_ratios: [-1, 1, 0.5]\n", "chi_ratios"),
        (_DOUBLEWELL + "taus: [1]\nchi_ratios: [1, .nan, 0.5]\n", "chi_ratios"),
        (_DOUBLEWELL + "taus: [1, .inf]\n", "taus"),
        (_DOUBLEWELL + "taus: [.nan]\n", "taus"),
        (_DOUBLEWELL + "taus: {stop: .inf}\n", "taus"),
    ],
)
def test_validation_rejects_booleans_and_degenerate_numbers(text, path):
    with pytest.raises(ValidationError) as err:
        parse_scenario(text)
    assert [p for p, _ in err.value.errors] == [path]


@pytest.mark.parametrize(
    "extra, path",
    [
        ("taus: [1]\nchi_ratios: [0, 1, 0.5]\n", "chi_ratios"),
        ("taus: [.inf]\n", "taus"),
        ("taus: [1]\nchi_ratios: [1, 1, .inf]\n", "chi_ratios"),
    ],
)
def test_cli_doublewell_rejects_degenerate_inputs_with_exit_2(tmp_path, extra, path):
    """These inputs used to run and write all-NaN rows."""
    scenario = tmp_path / "dw.yaml"
    scenario.write_text(_DOUBLEWELL + extra)
    proc = _run_cli("run", str(scenario), "--out", str(tmp_path))
    assert proc.returncode == 2
    assert f"  {path}:" in proc.stderr
    assert not list(tmp_path.glob("*.csv"))


def test_chi_ratios_parse_to_the_rb_interaction_matrix():
    """``chi_ratios`` (a11, a22, a12) build chi the way the shipped 87Rb
    matrix is built, and a scenario without them leaves chi unset."""
    parsed = parse_scenario(_DOUBLEWELL + "taus: [1]\nchi_ratios: [100.4, 95.5, 80.8]\n")
    assert np.array_equal(parsed.params["chi"], rb_interaction_matrix())
    parsed = parse_scenario(_DOUBLEWELL + "taus: [1]\nchi_ratios: [2, 3, 1]\n")
    assert np.array_equal(parsed.params["chi"], [[1.0, 0.5], [0.5, 1.5]])
    assert parse_scenario(_DOUBLEWELL + "taus: [1]\n").params["chi"] is None


_PLUSP_COHERENT = "kind: plusp\nstate: {kind: coherent, alpha: 1.0}\ntrajectories: 20\ndt: 0.01\n"


@pytest.mark.parametrize(
    "text, path",
    [
        # a start used to be accepted and ignored: the run began at t = 0
        (_PLUSP_COHERENT + "times: {start: 0.3, stop: 0.5, points: 3}\n", "times.start"),
        ("kind: wigner\nalpha0: 2.0\ntimes: {start: 0.3, stop: 0.5, points: 3}\n", "times.start"),
        # a nested grid key is named with its parent
        (_PLUSP_COHERENT + "times: {stop: -1, points: 3}\n", "times.stop"),
        ("kind: wigner\nalpha0: 2.0\ntimes: {stop: 0.5, points: 0}\n", "times.points"),
        (_DOUBLEWELL + "taus: {stop: -1}\n", "taus.stop"),
        (_DOUBLEWELL + "taus: {stop: 5, points: 2.5}\n", "taus.points"),
    ],
)
def test_cli_rejects_a_grid_start_and_names_nested_grid_keys(tmp_path, text, path):
    scenario = tmp_path / "grid.yaml"
    scenario.write_text(text)
    proc = _run_cli("run", str(scenario), "--out", str(tmp_path))
    assert proc.returncode == 2
    assert f"  {path}:" in proc.stderr
    assert not list(tmp_path.glob("*.csv"))


_DIMENSIONS = "kind: dimension-count\nparticles: 2\nmodes: 2\n"
_PLUSP_SMALL = "kind: plusp\nstate: {kind: coherent, alpha: 1.0}\ndt: 0.01\n"
_WIGNER_SMALL = "kind: wigner\nalpha0: 2.0\ntrajectories: 20\n"
_VARIATIONAL_SMALL = "kind: variational\ncomponents: 4\nt_max: 0.1\ndt: 0.01\n"


@pytest.mark.parametrize(
    "text, path",
    [
        # each of these used to crash, reach the engine, or run to exit 0
        (_DIMENSIONS + "seed: .inf\n", "seed"),
        (_DIMENSIONS + "seed: .nan\n", "seed"),
        ("kind: wigner\nalpha0: 2.0\ntimes: [0.0, 0.1]\ntrajectories: .inf\n", "trajectories"),
        ("kind: dimension-count\nparticles: .inf\nmodes: 2\n", "particles"),
        (_PLUSP_SMALL + "times: [0.0, 0.1]\nseed: -3\n", "seed"),
        ("kind: exact-doublewell\natoms: .inf\ntaus: [1]\n", "atoms"),
        (_PLUSP_SMALL + "times: [0.0, 0.1]\nchi: .nan\n", "chi"),
        (_WIGNER_SMALL + "times: [0.0, 0.1]\nchi: .nan\n", "chi"),
        ("kind: wigner\nalpha0: .nan\ntimes: [0.0, 0.1]\n", "alpha0"),
        (_PLUSP_SMALL + "times: {stop: .inf}\n", "times.stop"),
        (_PLUSP_SMALL + "times: [0, .inf]\n", "times"),
        (_WIGNER_SMALL + "times: [0.0, 0.1]\ndt: .inf\n", "dt"),
        (_VARIATIONAL_SMALL + "omega: .nan\n", "omega"),
        (_VARIATIONAL_SMALL + "rtol: 0\n", "rtol"),
        (_PLUSP_SMALL + "times: [0.0, 0.1]\ntrajectories: 1\n", "trajectories"),
        (_DOUBLEWELL + "taus: [1]\nmixing_angle: .nan\n", "mixing_angle"),
        (
            "kind: plusp\nstate: {kind: coherent, alpha: 1, bogus: 2}\ntimes: [0.0, 0.1]\n",
            "state.bogus",
        ),
        # these two used to fail at run time, with messages that did not name the key
        (_DOUBLEWELL + "taus: {stop: 1, points: 1}\n", "taus"),
        ("kind: plusp-reverse\ntrajectories: 50\npoints: 1\n", "points"),
        # the exact double well has no Fock cutoff option
        (_DOUBLEWELL + "taus: [10]\ncutoff: 3\n", "cutoff"),
        # outputs stay inside --out
        (_DIMENSIONS + "name: ../escaped\n", "name"),
        (_DIMENSIONS + "name: 'a\\b'\n", "name"),
        (_DIMENSIONS + "name: ''\n", "name"),
        (_DIMENSIONS + "name: '..'\n", "name"),
        # 0.1 and 0.1004 are both step 50 of dt = 0.002: one row would be lost
        (_WIGNER_SMALL + "dt: 0.002\ntimes: [0, 0.1, 0.1004]\n", "times"),
        # the plusp-reverse schedule: 60 points over 20 steps repeat steps,
        # and a reversal time off the dt grid has no step to flip at
        ("kind: plusp-reverse\ntrajectories: 50\nreversal_time: 0.02\npoints: 60\n", "points"),
        ("kind: plusp-reverse\ntrajectories: 50\nreversal_time: 0.0013\npoints: 3\n", "reversal_time"),
        # one trajectory has no error bar, a zero step never advances, an empty grid has no rows
        ("kind: plusp-reverse\ntrajectories: 1\n", "trajectories"),
        (_WIGNER_SMALL + "times: [0.0, 0.1]\ndt: 0\n", "dt"),
        (_DOUBLEWELL + "taus: {stop: 100, points: 0}\n", "taus.points"),
    ],
)
def test_cli_rejects_every_out_of_domain_leaf_with_exit_2(tmp_path, text, path):
    scenario = tmp_path / "case.yaml"
    scenario.write_text(text)
    proc = _run_cli("run", str(scenario), "--out", str(tmp_path / "out"))
    assert proc.returncode == 2, proc.stderr
    assert f"  {path}:" in proc.stderr
    assert not list(tmp_path.rglob("*.csv"))


# keys whose list of numbers is reported as one value
_NUMBER_LISTS = {"taus", "chi_ratios", "times", "n", "nbar", "powers"}


def _scalar_leaves(node, path=""):
    """(path, container, key) of every scalar in loaded YAML data."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    leaves = []
    for key, value in items:
        at = f"{path}[{key}]" if isinstance(node, list) else f"{path}.{key}".lstrip(".")
        if isinstance(value, (dict, list)):
            leaves += _scalar_leaves(value, at)
        else:
            leaves.append((at, node, key))
    return leaves


@given(
    fixture=st.sampled_from(sorted(SCENARIO_DIR.glob("*.yaml"))),
    pick=st.integers(min_value=0),
    bad=st.sampled_from([math.nan, math.inf, -math.inf, True, False, "not a number"]),
)
@settings(max_examples=300, deadline=None)
def test_any_scalar_leaf_out_of_domain_is_rejected_under_its_path(fixture, pick, bad):
    cfg = yaml.safe_load(fixture.read_text())
    leaves = _scalar_leaves(cfg)
    path, container, key = leaves[pick % len(leaves)]
    # +inf means "no ceiling", and any string is a name
    assume(not (path.endswith("_ceiling") and bad == math.inf))
    assume(not (path == "name" and isinstance(bad, str)))
    container[key] = bad
    with pytest.raises(ValidationError) as err:
        parse_scenario(yaml.safe_dump(cfg))
    listed = path.rsplit("[", 1)[0]
    expected = listed if listed.rsplit(".", 1)[-1] in _NUMBER_LISTS else path
    assert expected in [p for p, _ in err.value.errors]


def test_entropy_weights_keep_their_values():
    scenario = parse_scenario(_ENTROPY + "weights: [1, 2.5, 1]\npairing: all\n")
    assert scenario.params["weights"] == [1, 2.5, 1]


def _entropy_ensemble_text(points):
    rng = np.random.default_rng(3)
    # symmetric occupation matrices with spectra inside [0, 1]
    mats = [(0.05 * (a + a.T) + 0.5 * np.eye(4)).tolist() for a in rng.standard_normal((points, 4, 4))]
    return yaml.safe_dump(
        {"kind": "entropy", "species": "fermion", "points": mats,
         "weights": rng.uniform(0.5, 1.5, points).tolist(), "pairing": "all"},
        sort_keys=False,
    )


def test_libyaml_and_python_loaders_agree():
    texts = [path.read_text() for path in sorted(SCENARIO_DIR.glob("*.yaml"))]
    texts.append(_entropy_ensemble_text(300))
    for text in texts:
        assert yaml.load(text, Loader=yaml.CSafeLoader) == yaml.load(text, Loader=yaml.SafeLoader)


def test_parse_scenario_falls_back_without_libyaml(monkeypatch):
    texts = [path.read_text() for path in sorted(SCENARIO_DIR.glob("*.yaml"))]
    texts.append(_entropy_ensemble_text(20))
    expected = [parse_scenario(text) for text in texts]
    monkeypatch.delattr(yaml, "CSafeLoader")
    for text, want in zip(texts, expected):
        got = parse_scenario(text)
        assert (got.kind, got.seed, got.name) == (want.kind, want.seed, want.name)
        np.testing.assert_equal(got.params, want.params)
    with pytest.raises(ValidationError, match="not valid YAML"):
        parse_scenario("kind: [unclosed")


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
    assert var.params["rtol"] == 1e-5


def test_times_grid_forms():
    s1 = parse_scenario("kind: wigner\nalpha0: 1.0\ntimes: [0, 0.1, 0.2]\n")
    assert list(s1.params["times"]) == [0.0, 0.1, 0.2]
    s2 = parse_scenario("kind: wigner\nalpha0: 1.0\ntimes: {stop: 0.2, points: 3}\n")
    assert list(s2.params["times"]) == [0.0, 0.1, 0.2]
    with pytest.raises(ValidationError):
        parse_scenario("kind: wigner\nalpha0: 1.0\ntimes: [0.2, 0.1]\n")


def test_ensemble_times_are_snapped_to_the_dt_grid_at_parse():
    """`times` is stored as the dt steps it records at, and the run's rows
    carry those snapped times."""
    scenario = parse_scenario(_WIGNER_SMALL + "dt: 0.002\ntimes: [0, 0.0502, 0.1004]\n")
    assert scenario.params["times"].tolist() == [0.0, 25 * 0.002, 50 * 0.002]
    outcome = run_scenario(scenario)
    assert sorted({row["t"] for row in outcome.rows}) == scenario.params["times"].tolist()


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
        "kind: variational\ncomponents: 6\nalpha: 1.0\nchi: 1.0\nomega: 0.7\nt_max: 0.1\n"
        "dt: 0.01\nrecord_every: 5\n"
    )
    outcome = run_scenario(scenario)
    assert list(outcome.rows[0]) == ["t", "x", "y", "norm", "energy", "exact_x", "exact_y"]
    assert outcome.report["norm_drift"] < 1e-3
    assert outcome.report["energy_drift"] < 1e-3
    for row in outcome.rows:
        # <a> of |1> under 0.7 N + (1/2) adag^2 a^2
        exact = np.exp(-0.7j * row["t"] + np.expm1(-1j * row["t"]))
        assert row["exact_x"] == pytest.approx(exact.real, abs=1e-12)
        assert row["exact_y"] == pytest.approx(exact.imag, abs=1e-12)
        # the ring reproduces the coherent state to O(radius)
        assert abs(complex(row["x"], row["y"]) - exact) < 0.01


@pytest.mark.parametrize(
    "components, alpha0, chi",
    [
        ("alpha0: 2.0\nchi: 0.05\n", [2.0], [[0.05]]),
        ("alpha0: ['3.0', '2.0+1.0j']\nchi: [[0.01, 0.005], [0.005, 0.02]]\n",
         [3.0, 2.0 + 1.0j], [[0.01, 0.005], [0.005, 0.02]]),
        ("alpha0: '1.5-0.5j'\n", [1.5 - 0.5j], [[0.0]]),
    ],
    ids=["one", "two", "no-chi"],
)
def test_lossless_wigner_rows_carry_the_exact_kerr_solution(components, alpha0, chi):
    scenario = parse_scenario(
        "kind: wigner\nseed: 2\ntrajectories: 50\ndt: 0.01\ntimes: {stop: 0.5, points: 3}\n" + components
    )
    outcome = run_scenario(scenario)
    assert list(outcome.rows[0]) == ["t", "observable", "mean", "error", "diverged_count", "exact"]
    for row in outcome.rows:
        if row["observable"] == "X":
            expected = kerr_oracle(alpha0, chi, row["t"])["a"][0].real
        else:
            expected = abs(alpha0[0]) ** 2 + 0.5
        assert row["exact"] == pytest.approx(expected, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize(
    "text, own_keys",
    [
        (_WIGNER_ONE + "trajectories: 20\ndt: 0.05\n", ["trajectories", "integrator"]),
        (_PLUSP_ONE + "state: {kind: coherent, alpha: 1.0}\ntrajectories: 20\ndt: 0.05\n", ["final_n"]),
        ("kind: plusp-reverse\nalpha0: 1.0\nchi: 0.1\ntrajectories: 20\nreversal_time: 0.1\npoints: 3\n"
         "dt: 0.05\n", ["initial_x", "recovery_residual", "residual_bar", "error_growth",
                        "recovered_within_2bar", "inconclusive"]),
    ],
)
def test_stochastic_reports_share_one_divergence_block(text, own_keys):
    """Every stochastic report carries diverged, first_divergence_time and
    unreliable, in that order, next to its own keys."""
    report = run_scenario(parse_scenario(text)).report
    block = ["diverged", "first_divergence_time", "unreliable"]
    assert [k for k in report if k in block] == block
    assert sorted(report) == sorted(block + own_keys)
    assert report["diverged"] == 0 and report["first_divergence_time"] is None
    assert report["unreliable"] is False


def test_plusp_rows_count_divergence_at_their_own_time():
    """Each CSV row carries the trajectories dead by its time; the report
    keeps the final total."""
    scenario = parse_scenario(
        "kind: plusp\nseed: 4\nstate: {kind: coherent, alpha: 2.0}\nchi: 0.05\n"
        "trajectories: 200\ndt: 0.01\ntimes: {stop: 0.2, points: 5}\ndivergence_ceiling: 4.0\n"
    )
    outcome = run_scenario(scenario)
    counts = [row["diverged_count"] for row in outcome.rows]
    assert counts[0] == 0 and counts == sorted(counts)
    assert counts[-1] == outcome.report["diverged"] > counts[1]
    first = next(row["t"] for row in outcome.rows if row["diverged_count"])
    assert outcome.report["first_divergence_time"] == first


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


@pytest.mark.parametrize("fixture", sorted(SCENARIO_DIR.glob("*.yaml")), ids=lambda path: path.stem)
def test_every_shipped_scenario_runs_through_the_cli(fixture, tmp_path):
    """In-process ``qphase run``: exit 0 and the CSV (for kinds with rows),
    JSON and manifest on disk."""
    result = CliRunner().invoke(main, ["run", str(fixture), "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    scenario = parse_scenario(fixture.read_text())
    stem = scenario.name or fixture.stem
    expected = {f"{stem}.json", f"{stem}.manifest.json"}
    if scenario.kind not in ("entropy", "dimension-count"):
        expected.add(f"{stem}.csv")
    assert {path.name for path in tmp_path.iterdir()} == expected


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
    assert manifest["step_noise"] == "two-point"
    environment = manifest["environment"]
    assert set(environment) == {
        "cpus", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "numpy", "blas"
    }
    assert environment["cpus"] == len(os.sched_getaffinity(0))
    assert environment["numpy"] == np.__version__
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        assert environment[var] == os.environ.get(var)
    header = csv_path.read_text().splitlines()[0]
    assert header == "t,re_x,error,diverged_count"
    assert json.loads(json_path.read_text())["first_divergence_time"] is None
    assert manifest["outputs"] == [str(csv_path), str(json_path)]
    # the time spent writing the CSV and the report, not the manifest
    assert 0 < manifest["write_time_s"] < 5


def test_cli_manifest_names_the_blas_library(tmp_path):
    """The manifest names the BLAS library numpy reports ("unknown" where
    it reports none), so two runs' timings can be told apart by the
    linear algebra they used."""
    scenario = tmp_path / "tiny.yaml"
    scenario.write_text("kind: dimension-count\nparticles: 2\nmodes: 2\nstatistics: boson\n")
    result = CliRunner().invoke(main, ["run", str(scenario), "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    blas = json.loads((tmp_path / "tiny.manifest.json").read_text())["environment"]["blas"]
    assert isinstance(blas, str) and blas


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
    manifest = json.loads((tmp_path / "dimension-2-2.manifest.json").read_text())
    assert manifest["step_noise"] is None  # nothing stochastic ran


@pytest.mark.parametrize(
    "text, law",
    [
        (_PLUSP_SMALL + "trajectories: 20\ntimes: [0.0, 0.1]\n", "two-point"),
        (_WIGNER_ONE + "trajectories: 20\nlosses: [{powers: [1], rate: 0.1}]\n", "two-point"),
        (_WIGNER_ONE + "trajectories: 20\n", None),
        (_DIMENSIONS, None),
    ],
    ids=["plusp", "lossy-wigner", "lossless-wigner", "dimension-count"],
)
def test_outcome_names_the_step_noise_law_it_drew(text, law):
    """The manifest's step_noise: the law of the step noise a run drew, or
    None where it drew none (a lossless Wigner run has no noise term)."""
    assert run_scenario(parse_scenario(text)).step_noise == law


_REVERSE_SMALL = "kind: plusp-reverse\nalpha0: 1.0\nchi: 0.1\nreversal_time: 0.1\npoints: 3\ndt: 0.05\n"


@pytest.mark.parametrize(
    "text, estimator",
    [
        (_PLUSP_SMALL + "trajectories: 20\ntimes: [0.0, 0.1]\n", "antithetic-pairs"),
        (_WIGNER_ONE + "trajectories: 20\nlosses: [{powers: [1], rate: 0.1}]\n", "antithetic-pairs"),
        (_WIGNER_ONE + "trajectories: 20\n", "antithetic-pairs"),
        (_REVERSE_SMALL + "trajectories: 20\n", "antithetic-pairs"),
        (_DOUBLEWELL + "taus: [1]\n", None),
        (_ENTROPY, None),
        (_VARIATIONAL_SMALL, None),
        (_DIMENSIONS, None),
    ],
    ids=["plusp", "lossy-wigner", "lossless-wigner", "plusp-reverse", "exact-doublewell", "entropy",
         "variational", "dimension-count"],
)
def test_manifest_names_the_estimator_behind_its_bars(tmp_path, text, estimator):
    """The manifest's estimator: antithetic pairs for every ensemble, the
    +P reversal too, and None where no ensemble runs."""
    scenario = tmp_path / "case.yaml"
    scenario.write_text(text)
    result = CliRunner().invoke(main, ["run", str(scenario), "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    assert json.loads((tmp_path / "case.manifest.json").read_text())["estimator"] == estimator


@pytest.mark.parametrize(
    "text",
    [
        _PLUSP_SMALL + "trajectories: 21\ntimes: [0.0, 0.1]\n",
        _WIGNER_ONE + "trajectories: 1001\n",
        _WIGNER_ONE + "trajectories: 2\n",  # one pair: no bar
        _REVERSE_SMALL + "trajectories: 21\n",
    ],
    ids=["plusp", "wigner", "one-pair", "plusp-reverse"],
)
def test_cli_rejects_a_trajectory_count_that_pairs_cannot_take(tmp_path, text):
    scenario = tmp_path / "odd.yaml"
    scenario.write_text(text)
    result = CliRunner().invoke(main, ["run", str(scenario), "--out", str(tmp_path)])
    assert result.exit_code == 2
    assert "  trajectories: must be even and at least 4: the run estimates from antithetic pairs" in result.stderr
    assert not list(tmp_path.glob("*.json"))


def _strict_json(path):
    """The file's JSON, refusing the NaN and Infinity tokens RFC 8259 forbids."""

    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(path.read_text(), parse_constant=refuse)


def test_cli_doublewell_criteria_hold_at_any_atom_number(tmp_path):
    """At a mean of 1e-20 atoms the mean spin <Jy> is still the coherent
    N/4 per well, so the criteria (about 1) are defined: the threshold on
    <Jy> is relative to N.  With an absolute threshold the report held a
    NaN token."""
    scenario = tmp_path / "tiny.yaml"
    scenario.write_text("kind: exact-doublewell\natoms: 1.0e-20\ntaus: [1, 5]\n")
    result = CliRunner().invoke(main, ["run", str(scenario), "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    report = _strict_json(tmp_path / "tiny.json")
    assert report["min_e_product"] == pytest.approx(1.0, abs=1e-12)
    _strict_json(tmp_path / "tiny.manifest.json")


def test_cli_doublewell_window_flags_ignore_rounding(tmp_path):
    """A coherent product state at 1e-20 atoms reads E = 1 - 3e-16 and
    S_dB at 0: within rounding of the thresholds, so neither window opens."""
    scenario = tmp_path / "tiny.yaml"
    scenario.write_text("kind: exact-doublewell\natoms: 1.0e-20\ntaus: [1, 5]\n")
    result = CliRunner().invoke(main, ["run", str(scenario), "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    report = _strict_json(tmp_path / "tiny.json")
    assert report["entangled_window"] is False and report["squeezed_window"] is False


def test_cli_doublewell_with_vanishing_mean_spin_writes_null_and_exits_4(tmp_path):
    """At N = 100 and tau = 1000 the Kerr phase spread leaves |<Jy>| ~ 3e-24,
    below 1e-14 N: the criteria are undefined, the CSV holds nan, the
    report's min_e_product is null and the run exits 4 naming the tau."""
    scenario = tmp_path / "flat.yaml"
    scenario.write_text("kind: exact-doublewell\natoms: 100.0\ntaus: [1000]\n")
    result = CliRunner().invoke(main, ["run", str(scenario), "--out", str(tmp_path)])
    assert result.exit_code == 4
    assert "the entanglement criteria are undefined at tau = 1000" in result.stderr
    assert _strict_json(tmp_path / "flat.json")["min_e_product"] is None
    with open(tmp_path / "flat.csv", newline="") as handle:
        (row,) = csv.DictReader(handle)
    assert row["e_product"] == row["e_sum"] == "nan"


def test_cli_entropy_sign_problem_writes_null(tmp_path):
    """Disjoint pairs of opposite weights give a negative purity: S2 and
    its bar are undefined, written as null, and the run exits 4."""
    scenario = tmp_path / "signed.yaml"
    scenario.write_text("kind: entropy\nspecies: fermion\npoints: [0.1, 0.9, 0.2, 0.7]\n"
                        "weights: [1.0, -1.0, 1.0, -0.5]\npairing: disjoint\n")
    result = CliRunner().invoke(main, ["run", str(scenario), "--out", str(tmp_path)])
    assert result.exit_code == 4
    report = _strict_json(tmp_path / "signed.json")
    assert report["S2"] is None and report["error"] is None and report["sign_problem_flag"]


def test_cli_plusp_reverse_with_one_survivor_writes_a_null_bar(tmp_path):
    """One of four trajectories diverges and takes its pair out of the
    statistics: the one pair left has no bar, so the report's
    residual_bar is null (its CSV bar inf) and the run exits 4 on the
    divergence."""
    scenario = tmp_path / "wild.yaml"
    scenario.write_text("kind: plusp-reverse\nseed: 1\nalpha0: 10.0\nchi: 0.5\ntrajectories: 4\n"
                        "error_ceiling: .inf\n")
    result = CliRunner().invoke(main, ["run", str(scenario), "--out", str(tmp_path)])
    assert result.exit_code == 4
    assert "result inconclusive: 1 of 4 trajectories diverged" in result.stderr
    report = _strict_json(tmp_path / "wild.json")
    assert report["residual_bar"] is None and report["unreliable"]
    assert (tmp_path / "wild.csv").read_text().splitlines()[-1].split(",")[2] == "inf"


def test_cli_bad_entropy_input_and_malformed_yaml_exit_2(tmp_path):
    weights = tmp_path / "weights.yaml"
    weights.write_text(_ENTROPY + 'weights: ["x", 1.0, 1.0]\n')
    malformed = tmp_path / "malformed.yaml"
    malformed.write_text("kind: [unclosed\n")
    for scenario, message in ((weights, "weights[0]"), (malformed, "not valid YAML")):
        proc = _run_cli("run", str(scenario), "--out", str(tmp_path))
        assert proc.returncode == 2
        assert message in proc.stderr
    assert not list(tmp_path.glob("*.json"))


@pytest.mark.parametrize(
    "text, message",
    [
        ("kind: entropy\nspecies: fermion\npoints: [2.0, 3.0]\npairing: all\n", "points[0]"),
        (_PLUSP_ONE + "state: {kind: thermal, nbar: [1.0]}\ncanonical_width: delta\n", "canonical_width"),
        (_PLUSP_ONE + "state: {kind: coherent, alpha: 1.0}\ndt: 1e-3\n", "write 1.0e-3"),
    ],
    ids=["entropy-spectrum", "delta-width", "yaml-exponent"],
)
def test_cli_rejects_invalid_physics_inputs_with_exit_2(tmp_path, text, message):
    scenario = tmp_path / "bad.yaml"
    scenario.write_text(text)
    proc = _run_cli("run", str(scenario), "--out", str(tmp_path))
    assert proc.returncode == 2
    assert message in proc.stderr
    assert not list(tmp_path.glob("*.json"))


def test_cli_runtime_failure_exit_code(tmp_path):
    scenario = tmp_path / "boom.yaml"
    # valid per schema, but every trajectory starts beyond the divergence ceiling
    scenario.write_text(
        "kind: plusp\nstate: {kind: coherent, alpha: 2.0}\ncanonical_width: delta\n"
        "trajectories: 100\ndt: 0.01\ntimes: [0.0, 0.1]\ndivergence_ceiling: 1.0\n"
    )
    proc = _run_cli("run", str(scenario), "--out", str(tmp_path))
    assert proc.returncode == 3
    assert "runtime failure: all 100 trajectories diverged by t = 0.1" in proc.stderr


def test_cli_write_failure_exits_3(tmp_path):
    """An output that cannot be written is a runtime failure: one line on
    stderr naming the path, exit 3, no traceback."""
    scenario = tmp_path / "tiny.yaml"
    scenario.write_text("kind: dimension-count\nparticles: 2\nmodes: 2\nstatistics: boson\n")
    (tmp_path / "tiny.json").mkdir()
    proc = _run_cli("run", str(scenario), "--out", str(tmp_path))
    assert proc.returncode == 3
    # the reason is the OS's: "Is a directory" on Linux
    assert proc.stderr.startswith(f"cannot write {tmp_path / 'tiny.json'}: ")
    assert "Traceback" not in proc.stderr and proc.stderr.count("\n") == 1
    assert not (tmp_path / "tiny.manifest.json").exists()


def test_cli_out_dir_that_cannot_be_created_exits_3(tmp_path):
    """An --out directory under a regular file is a runtime failure: one
    line on stderr naming the directory, exit 3, no traceback."""
    scenario = tmp_path / "tiny.yaml"
    scenario.write_text("kind: dimension-count\nparticles: 2\nmodes: 2\nstatistics: boson\n")
    (tmp_path / "file").write_text("")
    out = tmp_path / "file" / "sub"
    proc = _run_cli("run", str(scenario), "--out", str(out))
    assert proc.returncode == 3
    # the reason is the OS's: "Not a directory" on Linux
    assert proc.stderr.startswith(f"cannot create {out}: ")
    assert "Traceback" not in proc.stderr and proc.stderr.count("\n") == 1
    assert proc.stdout == ""


def test_cli_rerun_writes_new_files(tmp_path):
    """A rerun replaces each output with a new file: a hard link or a
    symlink to an earlier output keeps the earlier bytes, and a rerun with
    the same seed writes the same CSV and JSON bytes."""
    scenario = tmp_path / "tiny.yaml"
    scenario.write_text(
        "kind: plusp\nseed: 4\nstate: {kind: coherent, alpha: 2.0}\n"
        "chi: 0.05\ntrajectories: 200\ndt: 0.01\ntimes: {stop: 0.1, points: 3}\n"
    )
    out, fresh = tmp_path / "out", tmp_path / "fresh"
    names = ["tiny.csv", "tiny.json", "tiny.manifest.json"]

    def run(directory, seed):
        result = CliRunner().invoke(main, ["run", str(scenario), "--out", str(directory), "--seed", str(seed)])
        assert result.exit_code == 0, result.output
        return {name: (directory / name).read_bytes() for name in names}

    first = run(out, 4)
    for name in names:
        os.link(out / name, out / f"{name}.keep")
    second = run(out, 5)
    expected = run(fresh, 5)
    for name in names:
        assert (out / f"{name}.keep").read_bytes() == first[name]
        assert second[name] != first[name]
    for name in names[:2]:
        assert second[name] == expected[name]
    assert json.loads(second["tiny.manifest.json"])["seed"] == 5

    (tmp_path / "target.json").write_bytes(b"untouched")
    (out / "tiny.json").unlink()
    (out / "tiny.json").symlink_to(tmp_path / "target.json")
    again = run(out, 5)
    assert not (out / "tiny.json").is_symlink()
    assert (tmp_path / "target.json").read_bytes() == b"untouched"
    for name in names[:2]:
        assert again[name] == second[name]


def test_cli_doublewell_reports_its_fock_check(tmp_path):
    result = CliRunner().invoke(main, ["run", str(SCENARIO_DIR / "doublewell_rb.yaml"), "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    check = json.loads((tmp_path / "doublewell-rb-200.json").read_text())["fock_check"]
    assert check["atoms"] == 20 and check["tau"] == 1.0
    assert 0 <= check["max_relative_gap"] <= 1e-9
    assert abs(check["truncation_loss"]) < 1e-10


def test_doublewell_point_is_the_csv_row(tmp_path):
    """The shipped double-well CSV has one column per ``DoubleWellPoint``
    field, in field order, and each row is the matching scan point."""
    fixture = SCENARIO_DIR / "doublewell_rb.yaml"
    result = CliRunner().invoke(main, ["run", str(fixture), "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    with open(tmp_path / "doublewell-rb-200.csv", newline="") as handle:
        reader = csv.DictReader(handle)
        rows = list(reader)
    names = [f.name for f in fields(DoubleWellPoint)]
    assert reader.fieldnames == names
    p = parse_scenario(fixture.read_text()).params
    points = doublewell_scan(
        p["atoms"], p["taus"], chi=p["chi"], mixing_angle=p["mixing_angle"], bs_phase=p["bs_phase"]
    )
    assert len(rows) == len(points) == len(p["taus"])
    for row, point in zip(rows, points):
        assert row == {name: repr(float(getattr(point, name))) for name in names}


def test_cli_doublewell_fock_check_failure_exits_3(tmp_path, monkeypatch):
    """A closed form off by 1e-6 in one G2 entry fails the run's Fock check."""
    from qphase import doublewell

    original = doublewell.moment_tensors

    def perturbed(alpha, chi, t):
        g1, g2 = original(alpha, chi, t)
        g2[np.unravel_index(np.abs(g2).argmax(), g2.shape)] *= 1 + 1e-6
        return g1, g2

    monkeypatch.setattr(doublewell, "moment_tensors", perturbed)
    result = CliRunner().invoke(main, ["run", str(SCENARIO_DIR / "doublewell_rb.yaml"), "--out", str(tmp_path)])
    assert result.exit_code == 3
    assert "runtime failure: Fock check failed" in result.stderr
    assert "max relative gap of 1.000e-06 (tolerance 1e-09) at N = 20, tau = 1" in result.stderr


def test_cli_variational_reports_its_step_control(tmp_path):
    """The report counts the right-hand-side evaluations and the accepted
    and rejected steps, and gives the smallest accepted step."""
    scenario = tmp_path / "short.yaml"
    scenario.write_text(_VARIATIONAL_SMALL + "rtol: 1.0e-6\n")
    result = CliRunner().invoke(main, ["run", str(scenario), "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    report = json.loads((tmp_path / "short.json").read_text())
    assert set(report) == {"norm_drift", "energy_drift", "rhs_evaluations", "steps_accepted",
                           "steps_rejected", "smallest_step"}
    assert report["steps_accepted"] >= 1 and report["steps_rejected"] >= 0
    assert report["rhs_evaluations"] == 2 + 6 * (report["steps_accepted"] + report["steps_rejected"])
    assert 0 < report["smallest_step"] <= 0.1


def test_cli_variational_without_a_step_writes_a_null_smallest_step(tmp_path):
    """A t_max below dt / 2 rounds to no step: one row, and no smallest
    step, which strict JSON writes as null."""
    scenario = tmp_path / "empty.yaml"
    scenario.write_text("kind: variational\ncomponents: 4\nt_max: 0.001\ndt: 0.01\n")
    result = CliRunner().invoke(main, ["run", str(scenario), "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    report = json.loads((tmp_path / "empty.json").read_text())
    assert report["smallest_step"] is None and report["steps_accepted"] == 0
    assert len((tmp_path / "empty.csv").read_text().splitlines()) == 2


@pytest.mark.parametrize("steps", [20, 50, 100, 200, 400])
def test_variational_full_period_completes_on_a_coarse_record_grid(steps):
    """dt = 2 pi / N only sets the record grid: a full Kerr period
    completes for every N, each row within 0.05 of the exact <a>."""
    scenario = parse_scenario(f"kind: variational\ndt: {2 * math.pi / steps!r}\nrecord_every: 1\n")
    outcome = run_scenario(scenario)
    assert len(outcome.rows) == steps + 1
    assert outcome.rows[-1]["t"] == pytest.approx(2 * math.pi)
    for row in outcome.rows:
        assert abs(row["x"] - row["exact_x"]) <= 0.05 and abs(row["y"] - row["exact_y"]) <= 0.05


def test_cli_variational_step_failure_exits_3(tmp_path, monkeypatch):
    """A step that falls below the floor is a runtime failure: one line on
    stderr naming t and the smallest step tried.  No validated input
    reaches the floor, so a NaN chi stands in for one."""
    from qphase import variational

    kerr_hamiltonian = variational.kerr_hamiltonian
    monkeypatch.setattr(variational, "kerr_hamiltonian", lambda chi, omega: kerr_hamiltonian(math.nan, omega=omega))
    scenario = tmp_path / "nan.yaml"
    scenario.write_text(_VARIATIONAL_SMALL)
    result = CliRunner().invoke(main, ["run", str(scenario), "--out", str(tmp_path)])
    assert result.exit_code == 3
    assert result.stderr.startswith("runtime failure: variational step failed at t=0: ")
    assert "down to step" in result.stderr and result.stderr.count("\n") == 1


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


def test_inconclusive_outcome_names_its_cause():
    scenario = parse_scenario(
        "kind: plusp-reverse\nseed: 3\nalpha0: 4.0\nchi: 0.0625\n"
        "reversal_time: 0.2\ntrajectories: 200\ndt: 0.002\n"
        "error_ceiling: 1.0e-9\npoints: 5\n"
    )
    reason = run_scenario(scenario).inconclusive
    assert reason.startswith("sampling bar ") and reason.endswith("exceeds error_ceiling 1e-09")


def test_cli_wigner_divergence_is_inconclusive(tmp_path):
    """Like plusp, a wigner run with over 1 % of its trajectories diverged
    writes its outputs, says why and exits 4."""
    scenario = tmp_path / "two-body.yaml"
    scenario.write_text(
        "kind: wigner\nseed: 1\nalpha0: 6.0\nchi: 0.0\nlosses: [{powers: [2], rate: 0.4}]\n"
        "trajectories: 400\ndt: 0.05\ntimes: {stop: 1.0, points: 3}\n"
    )
    proc = _run_cli("run", str(scenario), "--out", str(tmp_path))
    assert proc.returncode == 4, proc.stderr
    report = json.loads((tmp_path / "two-body.json").read_text())
    assert report["unreliable"] and report["diverged"] > 4
    assert f"result inconclusive: {report['diverged']} of 400 trajectories diverged" in proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    # each row counts the dead by its own time; the report names the first
    # recorded time with a dead trajectory
    header, *lines = (tmp_path / "two-body.csv").read_text().splitlines()
    assert header == "t,observable,mean,error,diverged_count"
    rows = [dict(zip(header.split(","), line.split(","))) for line in lines]
    counts = {float(row["t"]): int(row["diverged_count"]) for row in rows}
    assert len(rows) == 2 * len(counts) == 6
    assert [counts[t] for t in sorted(counts)] == sorted(counts.values())
    assert counts[max(counts)] == report["diverged"]
    assert report["first_divergence_time"] == min(t for t, dead in counts.items() if dead) > 0.0


def test_cli_plusp_reverse_divergence_is_inconclusive(tmp_path):
    """Like plusp and wigner, a plusp-reverse run with over 1 % of its
    trajectories diverged says why and exits 4, even when its sampling
    bar is within error_ceiling."""
    scenario = tmp_path / "strong.yaml"
    scenario.write_text("kind: plusp-reverse\nalpha0: 10.0\nchi: 0.5\ntrajectories: 400\nerror_ceiling: .inf\n")
    proc = _run_cli("run", str(scenario), "--out", str(tmp_path))
    assert proc.returncode == 4, proc.stderr
    report = json.loads((tmp_path / "strong.json").read_text())
    assert report["unreliable"] and report["diverged"] > 4 and not report["inconclusive"]
    rows = (tmp_path / "strong.csv").read_text().splitlines()[1:]
    first = next(float(t) for t, _, _, dead in (row.split(",") for row in rows) if int(dead))
    assert report["first_divergence_time"] == first
    assert f"result inconclusive: {report['diverged']} of 400 trajectories diverged" in proc.stderr


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
            expected.append([repr(float(t)), name, repr(float(mean)), repr(float(error)), "0"])
    header, *lines = (tmp_path / "two.csv").read_text().splitlines()
    assert header == "t,observable,mean,error,diverged_count"  # no closed form with losses
    assert [line.split(",") for line in lines] == expected


@pytest.mark.parametrize("losses, integrator", [(True, "midpoint"), (False, "exact_flow")])
def test_cli_wigner_report_names_its_integrator(tmp_path, losses, integrator):
    """A lossless run is the exact phase rotation; loss channels are stepped."""
    text = _TWO_COMPONENT_WIGNER.format(chi="chi: [[0.01, 0.005], [0.005, 0.01]]")
    if not losses:
        text = text[:text.index("losses:")] + text[text.index("trajectories:"):]
    scenario = tmp_path / "two.yaml"
    scenario.write_text(text)
    proc = _run_cli("run", str(scenario), "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    report = json.loads((tmp_path / "two.json").read_text())
    assert report["integrator"] == integrator
    assert report["diverged"] == 0 and report["first_divergence_time"] is None


def test_cli_two_component_wigner_rejects_scalar_chi(tmp_path):
    scenario = tmp_path / "two.yaml"
    scenario.write_text(_TWO_COMPONENT_WIGNER.format(chi="chi: 0.01"))
    proc = _run_cli("run", str(scenario), "--out", str(tmp_path))
    assert proc.returncode == 2
    assert "chi:" in proc.stderr


def test_cli_wigner_rejects_an_all_zero_loss_channel(tmp_path):
    """O = 1 removes no atoms but would still cost a noise draw per step."""
    scenario = tmp_path / "two.yaml"
    text = _TWO_COMPONENT_WIGNER.format(chi="chi: [[0.01, 0.0], [0.0, 0.01]]")
    scenario.write_text(text.replace("powers: [0, 1]", "powers: [0, 0]"))
    proc = _run_cli("run", str(scenario), "--out", str(tmp_path))
    assert proc.returncode == 2
    assert "losses[1].powers" in proc.stderr
    assert not list(tmp_path.glob("*.csv"))


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
