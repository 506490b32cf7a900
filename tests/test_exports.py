import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys

import pytest

import qphase

MODULES = sorted(name for _, name, _ in pkgutil.iter_modules(qphase.__path__))


def test_public_modules_declare_exports():
    declared = [m for m in MODULES if hasattr(importlib.import_module(f"qphase.{m}"), "__all__")]
    assert {"lattice", "gaussian_entropy", "stochastic", "wigner", "plusp"} <= set(declared)


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(f"qphase.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


def _loaded_on_cold_import(imports, module):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(qphase.__path__[0]))
    code = f"import sys, {imports}; print({module!r} in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip() == "True"


def test_cli_and_doublewell_do_not_import_sparse_linalg():
    """The exact stack needs no Krylov or expm code, so a cold import of
    the command line and the double-well pipeline skips scipy.sparse.linalg."""
    assert not _loaded_on_cold_import("qphase.cli, qphase.doublewell", "scipy.sparse.linalg")


def test_gaussian_entropy_does_not_import_scipy_linalg():
    """Only the brute-force Fock oracles need expm and logm, so a cold
    import of the entropy module skips scipy.linalg."""
    assert not _loaded_on_cold_import("qphase.gaussian_entropy", "scipy.linalg")


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


@pytest.mark.parametrize(
    "run, drift",
    [(_plusp_run, "plusp.KerrPlusP.derivative"), (_lossy_wigner_run, "wigner.WignerModel.derivative")],
)
def test_benchmark_tracer_sees_every_stochastic_layer_per_step(run, drift):
    """Under the benchmark's tracer a tiny ensemble records one noise draw,
    one step and MIDPOINT_ITERS drift calls per step, and n_traj x steps
    trajectory steps, so a time loop that bypasses a traced layer fails
    here and not only in the benchmark's smoke run."""
    from qphase.stochastic import MIDPOINT_ITERS

    n_traj, steps = 6, 5
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
    assert t.counts["stochastic.traj_steps"] == n_traj * steps


def test_benchmark_tracer_sees_every_variational_solve():
    """Under the benchmark's tracer a short propagate records one
    variational_system and one tikhonov_solve call per midpoint iteration,
    so a loop that calls a privately bound copy of either fails here."""
    from qphase import variational

    n_steps, iters = 5, 3
    state, ham = variational.ring_initial_state([1.0], members=4), variational.kerr_hamiltonian(1.0)
    t = _benchmark_tracer().Tracer()
    t.install()
    try:
        variational.propagate(state, ham, 0.01, n_steps, iters=iters, record_every=n_steps)
    finally:
        t.uninstall()
    assert t.target_calls["variational.propagate"] == 1
    assert t.target_calls["variational.variational_system"] == n_steps * iters
    assert t.target_calls["variational.tikhonov_solve"] == n_steps * iters
    assert t.layer_values()["variational.solves_per_step"] == 1
