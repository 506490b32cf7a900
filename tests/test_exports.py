import ast
import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
import types

import pytest

import qphase

MODULES = sorted(name for _, name, _ in pkgutil.iter_modules(qphase.__path__))
SCENARIO_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")
CALIBRATION_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "calibration")


def test_public_modules_declare_exports():
    declared = [m for m in MODULES if hasattr(importlib.import_module(f"qphase.{m}"), "__all__")]
    assert {"lattice", "gaussian_entropy", "stochastic", "wigner", "plusp"} <= set(declared)


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(f"qphase.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


def _loaded_in_cold_process(code, *argv):
    """Names in sys.modules when a fresh interpreter that ran ``code``,
    with ``argv`` as its arguments, exits."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(qphase.__path__[0]))
    hook = "import atexit, sys; atexit.register(lambda: print(*sys.modules)); "
    proc = subprocess.run(
        [sys.executable, "-c", hook + code, *argv], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def _within(package, modules):
    return sorted(m for m in modules if m == package or m.startswith(package + "."))


def _cold_run(scenario, out_dir):
    """Modules a cold ``qphase run`` of a shipped scenario loads."""
    path = os.path.join(SCENARIO_DIR, scenario)
    code = "from qphase.cli import main; main()"
    return _loaded_in_cold_process(code, "run", path, "--out", str(out_dir))


@pytest.mark.parametrize("module", MODULES)
def test_no_module_imports_scipy(module):
    """The phase-space engines, the Fock ladders, the Kerr oracle and the
    Poisson cutoff need no scipy, so a cold import of any qphase module
    loads none of it; only the brute-force entropy oracles import
    scipy.linalg, where they build."""
    assert _within("scipy", _loaded_in_cold_process(f"import qphase.{module}")) == []


@pytest.mark.parametrize("scenario", sorted(f for f in os.listdir(SCENARIO_DIR) if f.endswith(".yaml")))
def test_cold_phase_space_run_loads_no_scipy(scenario, tmp_path):
    """No shipped scenario's cold ``qphase run`` loads any scipy module:
    the double well's Fock check applies its ladders as numpy index
    shifts, and the entropy run uses only the mode-space determinants."""
    assert _within("scipy", _cold_run(scenario, tmp_path)) == []


_COLD_STEPPED_RUN = """
from qphase import stochastic
from qphase.plusp import run_kerr_plusp

if {cpus} > 1:
    stochastic.MIN_SHARD_WORK = 1
    stochastic._cpu_count = lambda: {cpus}
result = run_kerr_plusp({{"kind": "coherent", "alpha": [2.0]}}, 0.05, [0.0, 0.05], 20, 1, 0.01, reverse_at=0.02)
assert result.shards == {cpus}, result.shards
"""


def test_a_one_shard_run_maps_and_signals_nothing():
    """A cold stepped run of one shard, below MIN_SHARD_WORK, loads neither
    mmap nor signal: only a run that forks shards maps their rows and
    kills its children."""
    loaded = _loaded_in_cold_process(_COLD_STEPPED_RUN.format(cpus=1))
    assert {"mmap", "signal"} & loaded == set()


def test_a_sharded_run_hands_over_without_multiprocessing_or_sockets():
    """A cold run forced to 2 shards hands its records over through plain
    pipes and one mmap, so it loads none of multiprocessing, socket and
    selectors (7-11 ms and 3-4 ms of cold import for the first two)."""
    loaded = _loaded_in_cold_process(_COLD_STEPPED_RUN.format(cpus=2))
    assert "mmap" in loaded
    assert [m for m in loaded if m.split(".")[0] in ("multiprocessing", "socket", "selectors")] == []


def _benchmark_tracer():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", os.path.join(root, "perfbench", "tracer.py")
    )
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_benchmark_tracer_installs_against_the_package():
    """The benchmark's tracer wraps every traced function it names and
    restores them all, so renaming or deleting one fails here too."""
    tracer = _benchmark_tracer()
    originals = {}
    for target in tracer.TARGETS:
        owner = importlib.import_module(target.module)
        *path, attr = target.attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        originals[target.name] = (owner, attr, getattr(owner, attr))
    t = tracer.Tracer()
    t.install()
    try:
        wrapped = [
            name for name, (owner, attr, fn) in originals.items() if getattr(owner, attr) is not fn
        ]
    finally:
        t.uninstall()
    assert sorted(wrapped) == sorted(originals)
    assert all(getattr(owner, attr) is fn for owner, attr, fn in originals.values())


def _plusp_run(n_traj, steps, dt):
    from qphase.plusp import run_kerr_plusp

    run_kerr_plusp({"kind": "coherent", "alpha": [2.0]}, 0.05, [0.0, steps * dt], n_traj, 1, dt,
                   reverse_at=2 * dt)


def _lossy_wigner_run(n_traj, steps, dt):
    from qphase.wigner import LossChannel, run_wigner_x

    run_wigner_x([2.0, 1.0], [[0.01, 0.005], [0.005, 0.01]], [0.0, steps * dt], n_traj, 1, dt,
                 channels=[LossChannel((1, 0), 0.05), LossChannel((1, 1), 0.002)])


@pytest.mark.parametrize("cpus", [1, 2], ids=["one-process", "sharded"])
@pytest.mark.parametrize(
    "run, drift",
    [(_plusp_run, "plusp.KerrPlusP.derivative"), (_lossy_wigner_run, "wigner.WignerModel.derivative")],
)
def test_benchmark_tracer_sees_every_stochastic_layer_per_step(monkeypatch, run, drift, cpus):
    """Under the benchmark's tracer a tiny ensemble records one noise draw,
    one step and MIDPOINT_ITERS drift calls per step, and n_traj x steps
    trajectory steps, so a time loop that bypasses a traced layer fails
    here and not only in the benchmark's smoke run.  A sharded run records
    the same calls in the parent, which steps shard 0: the trajectory
    steps count that shard's rows only."""
    from qphase import stochastic
    from qphase.stochastic import MIDPOINT_ITERS

    monkeypatch.setattr(stochastic, "_cpu_count", lambda: cpus)
    monkeypatch.setattr(stochastic, "MIN_SHARD_WORK", 1)
    n_traj, steps = 6, 5
    shards = stochastic._shard_rows(n_traj, steps, pairs=True)
    assert len(shards) == cpus
    t = _benchmark_tracer().Tracer()
    t.install()
    try:
        run(n_traj, steps, 0.01)
    finally:
        t.uninstall()
    assert t.target_calls["stochastic.noise_block"] == steps
    assert t.target_calls["stochastic.step"] == steps
    assert t.target_calls[drift] == steps * MIDPOINT_ITERS
    assert t.target_calls["stochastic.run_ensemble"] == 1
    assert t.counts["stochastic.traj_steps"] == sum(s.stop - s.start for s in shards[0]) * steps


def test_benchmark_tracer_sees_every_variational_solve():
    """Under the benchmark's tracer a short propagate records one
    variational_system and one tikhonov_solve call per right-hand-side
    evaluation, so a loop that calls a privately bound copy of either
    fails here.  The tracer's solves_per_step divides the solves by
    n_steps x iters, which the step control no longer ties to them."""
    from qphase import variational

    n_steps, iters, stats = 5, 3, {}
    state, ham = variational.ring_initial_state([1.0], members=4), variational.kerr_hamiltonian(1.0)
    t = _benchmark_tracer().Tracer()
    t.install()
    try:
        variational.propagate(state, ham, 0.01, n_steps, iters=iters, record_every=n_steps, stats=stats)
    finally:
        t.uninstall()
    evaluations = stats["rhs_evaluations"]
    assert evaluations > 2
    assert t.target_calls["variational.propagate"] == 1
    assert t.target_calls["variational.variational_system"] == evaluations
    assert t.target_calls["variational.tikhonov_solve"] == evaluations
    assert t.layer_values()["variational.solves_per_step"] == evaluations / (n_steps * iters)


def test_every_benchmark_tracer_target_resolves():
    """Each layer the benchmark's tracer wraps (perfbench/tracer.py
    TARGETS) still exists in qphase, so a rename or deletion that would
    break a traced run fails here in seconds."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")
    tracer = types.ModuleType("perfbench_tracer")
    with open(path) as fh:  # read only: no bytecode is cached beside it
        exec(compile(fh.read(), path, "exec"), vars(tracer))
    missing = []
    for target in tracer.TARGETS:
        owner = importlib.import_module(target.module)
        for part in target.attr.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            missing.append(f"{target.module}.{target.attr}")
    assert len(tracer.TARGETS) > 20 and missing == []


def _own_nodes(scope):
    """The nodes of `scope`, a module or function, outside the functions
    nested in it."""
    todo = list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            todo.extend(ast.iter_child_nodes(node))


def _unused_imports(path):
    """Names a module binds by import and never reads in the scope that
    imports them (the module, or a function and what it nests), less its
    `__all__`."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    exported = {
        elt.value for node in tree.body if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for elt in node.value.elts
    }
    scopes = [tree, *(n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)))]
    unused = []
    for scope in scopes:
        read = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for node in _own_nodes(scope):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
                unused += [name for name in bound if name not in read and name not in exported]
    return unused


# Bound but unread: perfbench's smoke test asserts that the tracer wraps
# these bindings, until the benchmark asserts only stochastic's.
_PINNED_IMPORTS = {"plusp": ["noise_block"], "wigner": ["noise_block"]}


@pytest.mark.parametrize("module", MODULES)
def test_no_module_imports_a_name_it_never_reads(module):
    """The project runs no linter, so this check stands in for an
    unused-import rule: an import left behind when its last reader goes
    (a step-noise law the scenarios no longer work out, say) fails."""
    path = os.path.join(qphase.__path__[0], f"{module}.py")
    assert sorted(_unused_imports(path)) == _PINNED_IMPORTS.get(module, [])


def test_calibration_scripts_collect():
    """The calibration scripts lie outside the tier-1 testpaths; collecting
    them imports every name they take from qphase, so an API change that
    breaks them fails here in about a second."""
    src = os.path.dirname(os.path.dirname(qphase.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", CALIBRATION_DIR],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "test_paired_reversal_bar_is_calibrated" in proc.stdout
