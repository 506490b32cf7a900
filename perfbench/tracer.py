"""Binding-complete call tracer for the qphase layers.

The tracer measures each layer from outside: it replaces the public
functions named in ``TARGETS`` by timing wrappers, in every qphase module
that binds them (``from .stochastic import noise_block`` makes a second
binding in ``plusp`` and ``wigner``) and on the class for methods.  Spans
(name, start, end, parent span, operation id) are kept in memory and
written out by the caller when the run ends.

``LAYERS`` records, per layer, the workloads that exercise it and the
end-to-end metrics a change to it should move.  A traced function must
record calls on every workload that exercises its layer and none on any
other; ``check_separation`` reports each violation.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import namedtuple

WORKLOADS = ("exact-doublewell", "plusp-reverse", "wigner-loss", "variational-entropy")

Layer = namedtuple("Layer", "exercised bypassed moves")

# layer -> workloads that exercise it, the workload named as bypassing it,
# and the end-to-end metrics a change to the layer should move.
LAYERS = {
    "fock": Layer(("exact-doublewell",), "plusp-reverse", ("solve_s",)),
    "spins": Layer(("exact-doublewell",), "plusp-reverse", ("solve_s",)),
    "doublewell": Layer(("exact-doublewell",), "wigner-loss", ("solve_s", "setup_s")),
    "stochastic": Layer(("plusp-reverse", "wigner-loss"), "exact-doublewell", ("solve_s", "time_to_bar_s")),
    "plusp": Layer(("plusp-reverse",), "variational-entropy", ("solve_s", "time_to_bar_s")),
    "wigner": Layer(("wigner-loss",), "plusp-reverse", ("solve_s", "time_to_bar_s")),
    "variational": Layer(("variational-entropy",), "exact-doublewell", ("solve_s",)),
    "gaussian_entropy": Layer(("variational-entropy",), "plusp-reverse", ("solve_s",)),
    "scenarios": Layer(WORKLOADS, None, ("setup_s", "solve_s")),
    "cli": Layer(WORKLOADS, None, ("setup_s", "solve_s")),
}


_signature = functools.lru_cache(maxsize=None)(inspect.signature)


def _bound(fn, args, kwargs):
    bound = _signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _noise_bytes(fn, args, kwargs, result):
    return {"stochastic.noise_block.bytes": result.nbytes}


def _traj_steps(fn, args, kwargs, result):
    return {"stochastic.traj_steps": _bound(fn, args, kwargs)["state"].shape[0]}


def _alive(fn, args, kwargs, result):
    return {
        "stochastic.trajectories": result.trajectories,
        "stochastic.alive": result.trajectories - result.diverged,
    }


def _step_iters(fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    return {"variational.step_iters": a["n_steps"] * a["iters"]}


def _pairs(fn, args, kwargs, result):
    return {"gaussian_entropy.pairs": result.pairs}


def _loss_split(args):
    return "lossy" if args[0].channels else "lossless"


# name -> (module, attribute path, counter hook or None, span-name split or None)
Target = namedtuple("Target", "name module attr counter split")
TARGETS = [
    Target("fock.annihilation_operator", "qphase.fock", "annihilation_operator", None, None),
    Target("fock.coherent_state", "qphase.fock", "coherent_state", None, None),
    Target("fock.well_hamiltonian_diagonal", "qphase.fock", "well_hamiltonian_diagonal", None, None),
    Target("spins.ProductEvaluator", "qphase.spins", "ProductEvaluator.__call__", None, None),
    Target("spins.spin_moments", "qphase.spins", "spin_moments", None, None),
    Target("spins.beam_splitter_map", "qphase.spins", "beam_splitter_map", None, None),
    Target("spins.cross_variances", "qphase.spins", "cross_variances", None, None),
    Target("spins.entanglement_criteria", "qphase.spins", "entanglement_criteria", None, None),
    Target("doublewell.doublewell_scan", "qphase.doublewell", "doublewell_scan", None, None),
    Target("doublewell.poisson_cutoff", "qphase.doublewell", "poisson_cutoff", None, None),
    Target("stochastic.noise_block", "qphase.stochastic", "noise_block", _noise_bytes, None),
    Target("stochastic.step", "qphase.stochastic", "step", _traj_steps, None),
    Target("stochastic.run_ensemble", "qphase.stochastic", "run_ensemble", _alive, None),
    Target("stochastic.MomentAccumulator.add", "qphase.stochastic", "MomentAccumulator.add", None, None),
    Target("plusp.KerrPlusP.derivative", "qphase.plusp", "KerrPlusP.derivative", None, None),
    Target("plusp.sample_canonical", "qphase.plusp", "sample_canonical", None, None),
    Target("wigner.WignerModel.derivative", "qphase.wigner", "WignerModel.derivative", None, _loss_split),
    Target("wigner.sample_wigner_coherent", "qphase.wigner", "sample_wigner_coherent", None, None),
    Target("wigner.evolve_snapshots", "qphase.wigner", "evolve_snapshots", None, None),
    Target("wigner.squeezing_xi2", "qphase.wigner", "squeezing_xi2", None, None),
    Target("wigner.poly_mul", "qphase.wigner", "poly_mul", None, None),
    Target("variational.variational_system", "qphase.variational", "variational_system", None, None),
    Target("variational.tikhonov_solve", "qphase.variational", "tikhonov_solve", None, None),
    Target("variational.propagate", "qphase.variational", "propagate", _step_iters, None),
    Target("gaussian_entropy.inner_product", "qphase.gaussian_entropy", "inner_product", None, None),
    Target("gaussian_entropy.renyi_entropy", "qphase.gaussian_entropy", "renyi_entropy", _pairs, None),
    Target("scenarios.parse_scenario", "qphase.scenarios", "parse_scenario", None, None),
    Target("scenarios.run_scenario", "qphase.scenarios", "run_scenario", None, None),
    Target("cli.run", "qphase.cli", "run.callback", None, None),
]

# Modules whose import time is reported, in the order the probe imports them.
IMPORT_MODULES = (
    "cli", "scenarios", "fock", "spins", "doublewell", "stochastic",
    "plusp", "wigner", "variational", "gaussian_entropy",
)


def _span_metrics():
    """(metric, unit, better, source) for every span-derived metric."""
    def calls(n):
        return (f"{n}.calls", "count", "lower", (n, 0))

    def incl(n):
        return (f"{n}.s", "s", "lower", (n, 1))

    def self_s(n):
        return (f"{n}.self_s", "s", "lower", (n, 2))

    lossy = "wigner.WignerModel.derivative.lossy"
    lossless = "wigner.WignerModel.derivative.lossless"
    return [
        calls("fock.annihilation_operator"), incl("fock.annihilation_operator"),
        incl("fock.coherent_state"), incl("fock.well_hamiltonian_diagonal"),
        calls("spins.ProductEvaluator"), incl("spins.ProductEvaluator"),
        calls("spins.spin_moments"), self_s("spins.spin_moments"),
        incl("spins.beam_splitter_map"), calls("spins.cross_variances"),
        incl("spins.entanglement_criteria"),
        self_s("doublewell.doublewell_scan"), incl("doublewell.poisson_cutoff"),
        calls("stochastic.noise_block"), incl("stochastic.noise_block"),
        calls("stochastic.step"), self_s("stochastic.step"),
        self_s("stochastic.run_ensemble"),
        calls("stochastic.MomentAccumulator.add"), incl("stochastic.MomentAccumulator.add"),
        calls("plusp.KerrPlusP.derivative"), self_s("plusp.KerrPlusP.derivative"),
        incl("plusp.sample_canonical"),
        calls(lossy), self_s(lossy), calls(lossless), self_s(lossless),
        incl("wigner.sample_wigner_coherent"), self_s("wigner.evolve_snapshots"),
        incl("wigner.squeezing_xi2"), calls("wigner.poly_mul"),
        calls("variational.variational_system"), incl("variational.variational_system"),
        calls("variational.tikhonov_solve"), incl("variational.tikhonov_solve"),
        self_s("variational.propagate"),
        calls("gaussian_entropy.inner_product"), incl("gaussian_entropy.inner_product"),
        self_s("gaussian_entropy.renyi_entropy"),
        incl("scenarios.parse_scenario"), self_s("scenarios.run_scenario"),
        self_s("cli.run"),
    ]


SPAN_METRICS = _span_metrics()

# (metric, unit, better) for every per-layer metric, in report order.
LAYER_METRICS = (
    [(m, u, b) for m, u, b, _ in SPAN_METRICS]
    + [
        ("stochastic.noise_block.bytes", "B", "lower"),
        ("stochastic.traj_steps_per_s", "1/s", "higher"),
        ("stochastic.alive_frac", "fraction", "higher"),
        ("variational.solves_per_step", "ratio", "lower"),
        ("gaussian_entropy.pairs_per_s", "1/s", "higher"),
    ]
    + [(f"{m}.import_s", "s", "lower") for m in IMPORT_MODULES]
    + [("trace.overhead_s", "s", "lower")]
)


def _ratio(num, den):
    return num / den if den else 0.0


class Tracer:
    """Records spans and per-name call totals while installed."""

    def __init__(self):
        self.spans = []  # (span id, name, start, end, parent id, op id)
        self.totals = {}  # span name -> [calls, inclusive s, self s]
        self.target_calls = {t.name: 0 for t in TARGETS}
        self.counts = {}
        self.op_id = None
        self._stack = []  # [span id, child seconds]
        self._next_id = 0
        self._patched = []  # (owner, attribute, original)

    # -- recording ---------------------------------------------------------

    def _enter(self):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        frame = [span_id, 0.0]
        self._stack.append(frame)
        return frame, parent

    def _exit(self, name, frame, parent, start, end):
        self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][1] += duration
        agg = self.totals.setdefault(name, [0, 0.0, 0.0])
        agg[0] += 1
        agg[1] += duration
        agg[2] += duration - frame[1]
        self.spans.append((frame[0], name, start, end, parent, self.op_id))

    def span(self, name, fn):
        """Run fn() as a root span (one benchmark operation)."""
        frame, parent = self._enter()
        start = time.perf_counter()
        try:
            return fn()
        finally:
            self._exit(name, frame, parent, start, time.perf_counter())

    def _wrap(self, target, original):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            name = target.name
            if target.split is not None:
                name = f"{name}.{target.split(args)}"
            frame, parent = tracer._enter()
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._exit(name, frame, parent, start, time.perf_counter())
            tracer.target_calls[target.name] += 1
            if target.counter is not None:
                for key, value in target.counter(original, args, kwargs, result).items():
                    tracer.counts[key] = tracer.counts.get(key, 0) + value
            return result

        return traced

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every binding of every target; raises if one is missed."""
        for target in TARGETS:
            importlib.import_module(target.module)
        modules = [m for n, m in sys.modules.items() if n == "qphase" or n.startswith("qphase.")]
        for target in TARGETS:
            owner = sys.modules[target.module]
            *path, attr = target.attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(target, original)
            if path:
                self._patch(owner, attr, original, wrapper)
            else:
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, original, wrapper)
        missed = [
            f"{module.__name__}.{key}"
            for module in modules
            for key, value in vars(module).items()
            if any(value is original for _, _, original in self._patched)
        ]
        if missed:
            self.uninstall()
            raise RuntimeError(f"untraced bindings remain: {missed}")

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- reporting ---------------------------------------------------------

    def layer_values(self):
        """Per-layer metric values for everything recorded so far."""
        values = {}
        for metric, _, _, (name, column) in SPAN_METRICS:
            values[metric] = self.totals.get(name, [0, 0.0, 0.0])[column]
        counts, totals = self.counts, self.totals
        values["stochastic.noise_block.bytes"] = counts.get("stochastic.noise_block.bytes", 0)
        values["stochastic.traj_steps_per_s"] = _ratio(
            counts.get("stochastic.traj_steps", 0), totals.get("stochastic.step", [0, 0.0])[1]
        )
        values["stochastic.alive_frac"] = _ratio(
            counts.get("stochastic.alive", 0), counts.get("stochastic.trajectories", 0)
        )
        values["variational.solves_per_step"] = _ratio(
            self.target_calls["variational.tikhonov_solve"], counts.get("variational.step_iters", 0)
        )
        values["gaussian_entropy.pairs_per_s"] = _ratio(
            counts.get("gaussian_entropy.pairs", 0),
            totals.get("gaussian_entropy.renyi_entropy", [0, 0.0])[1],
        )
        return values

    def check_separation(self, workload):
        """Problems where a target's calls contradict the LAYERS table."""
        problems = []
        for target in TARGETS:
            layer = LAYERS[target.name.split(".")[0]]
            calls = self.target_calls[target.name]
            if workload in layer.exercised and calls == 0:
                problems.append(f"{target.name} recorded no calls on {workload}, which exercises it")
            elif workload not in layer.exercised and calls:
                problems.append(f"{target.name} recorded {calls} calls on {workload}, which bypasses it")
        return problems
