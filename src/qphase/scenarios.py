"""Declarative scenario configs binding all engines.

Scenarios are YAML mappings with a ``kind`` selecting the engine.
Validation returns *all* problems (with key paths), not just the first;
running a validated scenario produces CSV/JSON outputs plus a manifest
sufficient to re-run bit-exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import yaml

__all__ = ["Scenario", "ValidationError", "parse_scenario", "run_scenario", "SCENARIO_KINDS"]

SCENARIO_KINDS = (
    "exact-doublewell",
    "wigner",
    "plusp",
    "plusp-reverse",
    "entropy",
    "variational",
    "dimension-count",
)


class ValidationError(ValueError):
    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(f"{p}: {m}" for p, m in self.errors))


@dataclass
class Scenario:
    kind: str
    seed: int
    params: dict
    name: str = ""
    raw: dict = field(default_factory=dict)


def _as_complex(value, path, errors):
    if _is_number(value):
        return complex(value)
    if isinstance(value, str):
        try:
            return complex(value.replace(" ", ""))
        except ValueError:
            errors.append((path, f"cannot parse complex number from {value!r}"))
            return 0j
    if isinstance(value, (list, tuple)) and len(value) == 2 and all(map(_is_number, value)):
        return complex(float(value[0]), float(value[1]))
    errors.append((path, "expected a number, 're+imj' string, or [re, im] pair"))
    return 0j


def _amplitudes(raw, path, errors):
    """One complex amplitude per component.

    A list holds one entry per component, each a number, 're+imj'
    string or [re, im] pair; any other value is a single amplitude.
    """
    if raw is None:
        errors.append((path, "required key missing"))
        return [0j]
    if not isinstance(raw, list):
        return [_as_complex(raw, path, errors)]
    if not raw:
        errors.append((path, "expected at least one amplitude"))
        return [0j]
    return [_as_complex(v, f"{path}[{i}]", errors) for i, v in enumerate(raw)]


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_count(value):
    """A non-negative integer, YAML booleans excluded."""
    return _is_number(value) and isinstance(value, int) and value >= 0


def _number(cfg, key, errors, default=None, required=False, positive=False, minimum=None, prefix=""):
    """cfg[key] as a number; errors name it `prefix + key` (a nested key
    gets its parent, as in "times.")."""
    path = prefix + key
    if key not in cfg:
        if required:
            errors.append((path, "required key missing"))
        return default
    value = cfg[key]
    if not _is_number(value):
        errors.append((path, f"expected a number, got {type(value).__name__}"))
        return default
    if positive and not value > 0:  # NaN too
        errors.append((path, "must be positive"))
        return default
    if minimum is not None and value < minimum:
        errors.append((path, f"must be >= {minimum}"))
        return default
    return value


def _integer(cfg, key, errors, default=None, required=False, positive=False, prefix=""):
    value = _number(cfg, key, errors, default=default, required=required, positive=positive, prefix=prefix)
    if value is None:
        return None
    if float(value) != int(value):
        errors.append((prefix + key, "expected an integer"))
        return default
    return int(value)


def _choice(cfg, key, errors, options, default=None, required=False):
    if key not in cfg:
        if required:
            errors.append((key, "required key missing"))
        return default
    value = cfg[key]
    if value not in options:
        errors.append((key, f"must be one of {sorted(options)}"))
        return default
    return value


def _times(cfg, errors, key="times", default_stop=None):
    spec = cfg.get(key)
    if spec is None:
        if default_stop is None:
            errors.append((key, "required key missing"))
            return None
        spec = {"stop": default_stop, "points": 51}
    if isinstance(spec, list):
        if not all(map(_is_number, spec)):
            errors.append((key, "time list must contain numbers"))
            return None
        arr = np.asarray([float(v) for v in spec])
        if arr.size < 2 or arr[0] != 0.0 or np.any(np.diff(arr) <= 0):
            errors.append((key, "time list must start at 0 and increase"))
            return None
        return arr
    if isinstance(spec, dict):
        if "start" in spec:
            errors.append((f"{key}.start", "ensembles start at t = 0; remove start"))
        _check_unknown(spec, {"start", "stop", "points"}, errors, prefix=f"{key}.")
        stop = _number(spec, "stop", errors, required=True, positive=True, prefix=f"{key}.")
        points = _integer(spec, "points", errors, default=51, positive=True, prefix=f"{key}.")
        if stop is None or points is None or points < 2:
            errors.append((key, "need stop > 0 and points >= 2"))
            return None
        return np.linspace(0.0, stop, points)
    errors.append((key, "expected a list of times or {stop, points}"))
    return None


def _check_unknown(cfg, allowed, errors, prefix=""):
    for k in sorted(set(cfg) - set(allowed)):
        errors.append((f"{prefix}{k}", "unknown key"))


_COMMON_KEYS = {"kind", "seed", "name"}


def _validate_exact_doublewell(cfg, errors):
    _check_unknown(cfg, _COMMON_KEYS | {"atoms", "taus", "chi_ratios", "mixing_angle", "bs_phase", "cutoff"}, errors)
    params = {
        "atoms": _number(cfg, "atoms", errors, default=200, positive=True),
        "mixing_angle": _number(cfg, "mixing_angle", errors, default=math.pi / 4),
        "bs_phase": _number(cfg, "bs_phase", errors, default=0.0),
        "cutoff": _integer(cfg, "cutoff", errors, default=None, positive=True),
    }
    taus = cfg.get("taus")
    if taus is None:
        errors.append(("taus", "required key missing"))
    elif isinstance(taus, list) and taus and all(
        _is_finite_number(v) and v > 0 for v in taus
    ):
        params["taus"] = np.asarray([float(v) for v in taus])
    elif isinstance(taus, dict):
        _check_unknown(taus, {"start", "stop", "points"}, errors, prefix="taus.")
        start = _number(taus, "start", errors, default=0.0, minimum=0.0, prefix="taus.")
        stop = _number(taus, "stop", errors, required=True, positive=True, prefix="taus.")
        points = _integer(taus, "points", errors, default=21, positive=True, prefix="taus.")
        if stop is not None and not (math.isfinite(start) and math.isfinite(stop)):
            errors.append(("taus", "start and stop must be finite"))
        elif stop is not None and points is not None:
            grid = np.linspace(start, stop, points)
            params["taus"] = grid[grid > 0]
    else:
        errors.append(("taus", "expected a list of finite positive taus or {start, stop, points}"))
    ratios = cfg.get("chi_ratios")
    if ratios is None:
        params["chi"] = None
    elif not (
        isinstance(ratios, list) and len(ratios) == 3 and all(map(_is_finite_number, ratios))
    ):
        errors.append(("chi_ratios", "expected [a11, a22, a12] finite numbers"))
    elif not ratios[0] > 0:
        errors.append(("chi_ratios", "a11 must be positive: taus are in units of chi_11"))
    else:
        a11, a22, a12 = (float(v) for v in ratios)
        params["chi"] = np.array([[a11, a12], [a12, a22]]) / a11
    return params


def _validate_wigner(cfg, errors):
    _check_unknown(cfg, _COMMON_KEYS | {"alpha0", "chi", "losses", "trajectories", "dt", "times"}, errors)
    alpha0 = _amplitudes(cfg.get("alpha0"), "alpha0", errors)
    channels = []
    for i, ch in enumerate(cfg.get("losses") or []):
        if not isinstance(ch, dict):
            errors.append((f"losses[{i}]", "expected {powers, rate}"))
            continue
        _check_unknown(ch, {"powers", "rate"}, errors, prefix=f"losses[{i}].")
        powers, rate = ch.get("powers"), ch.get("rate")
        if not (_is_number(rate) and rate > 0):
            errors.append((f"losses[{i}].rate", "expected a positive number"))
        if not isinstance(powers, list) or len(powers) != len(alpha0) or not all(
            map(_is_count, powers)
        ):
            errors.append((f"losses[{i}].powers", "expected one non-negative integer per mode"))
            continue
        if not any(powers):
            errors.append((f"losses[{i}].powers", "all powers are zero: O = 1 removes no atoms"))
            continue
        channels.append((tuple(powers), rate))
    return {
        "alpha0": alpha0,
        "chi": _wigner_chi(cfg, len(alpha0), errors),
        "channels": channels,
        "trajectories": _integer(cfg, "trajectories", errors, default=1000, positive=True),
        "dt": _number(cfg, "dt", errors, default=1e-3, positive=True),
        "times": _times(cfg, errors),
    }


def _wigner_chi(cfg, components, errors):
    """chi as a number (one component) or an S x S list of numbers; None if omitted."""
    if "chi" not in cfg:
        return None
    value = cfg["chi"]
    if components == 1 and _is_number(value):
        return value
    rows = value if isinstance(value, list) and len(value) == components else []
    if rows and all(
        isinstance(row, list) and len(row) == components and all(map(_is_number, row))
        for row in rows
    ):
        return np.asarray(rows, dtype=float)
    if components == 1:
        errors.append(("chi", "expected a number or a 1x1 list of numbers"))
    else:
        errors.append(("chi", f"expected a {components}x{components} list of numbers"))
    return None


def _validate_plusp(cfg, errors):
    _check_unknown(
        cfg,
        _COMMON_KEYS
        | {"state", "chi", "trajectories", "dt", "times", "canonical_width", "divergence_ceiling"},
        errors,
    )
    state_cfg = cfg.get("state")
    state = {"kind": "coherent", "alpha": [0j]}
    if not isinstance(state_cfg, dict):
        errors.append(("state", "required mapping {kind: coherent|thermal|fock, ...}"))
    else:
        kind = _choice(state_cfg, "kind", errors, {"coherent", "thermal", "fock"}, required=True)
        if kind == "coherent":
            state = {
                "kind": "coherent",
                "alpha": _amplitudes(state_cfg.get("alpha"), "state.alpha", errors),
            }
        elif kind == "thermal":
            raw = state_cfg.get("nbar")
            vals = raw if isinstance(raw, list) else [raw]
            if not all(_is_finite_number(v) and v >= 0 for v in vals):
                errors.append(("state.nbar", "expected finite non-negative number(s)"))
            else:
                state = {"kind": "thermal", "nbar": [float(v) for v in vals]}
        elif kind == "fock":
            raw = state_cfg.get("n")
            vals = raw if isinstance(raw, list) else [raw]
            if not all(map(_is_count, vals)):
                errors.append(("state.n", "expected non-negative integer(s)"))
            else:
                state = {"kind": "fock", "n": vals}
    return {
        "state": state,
        "chi": _number(cfg, "chi", errors, default=0.0),
        "trajectories": _integer(cfg, "trajectories", errors, default=1000, positive=True),
        "dt": _number(cfg, "dt", errors, default=1e-3, positive=True),
        "times": _times(cfg, errors),
        "width": _choice(cfg, "canonical_width", errors, {"canonical", "delta"}, default="canonical"),
        "divergence_ceiling": _number(cfg, "divergence_ceiling", errors, default=1e6, positive=True),
    }


def _validate_plusp_reverse(cfg, errors):
    _check_unknown(
        cfg,
        _COMMON_KEYS
        | {"alpha0", "chi", "reversal_time", "trajectories", "dt", "canonical_width", "error_ceiling", "points"},
        errors,
    )
    alpha0 = _as_complex(cfg.get("alpha0", 10.0), "alpha0", errors)
    nbar = abs(alpha0) ** 2
    return {
        "alpha0": alpha0,
        "chi": _number(cfg, "chi", errors, default=1.0 / nbar if nbar else 1.0),
        "reversal_time": _number(cfg, "reversal_time", errors, default=0.5, positive=True),
        "trajectories": _integer(cfg, "trajectories", errors, default=10000, positive=True),
        "dt": _number(cfg, "dt", errors, default=0.002, positive=True),
        "width": _choice(cfg, "canonical_width", errors, {"canonical", "delta"}, default="canonical"),
        "error_ceiling": _number(cfg, "error_ceiling", errors, default=0.5, positive=True),
        "points": _integer(cfg, "points", errors, default=51, positive=True),
    }


def _validate_entropy(cfg, errors):
    _check_unknown(cfg, _COMMON_KEYS | {"species", "points", "weights", "pairing"}, errors)
    species = _choice(cfg, "species", errors, {"boson", "fermion"}, required=True)
    raw_points = cfg.get("points")
    matrices = []
    if not isinstance(raw_points, list) or len(raw_points) < 2:
        errors.append(("points", "need a list of at least two n matrices"))
    else:
        for i, mat in enumerate(raw_points):
            arr = _square_matrix(mat)
            if arr is None:
                errors.append((f"points[{i}]", "expected a square numeric matrix (or scalar)"))
            elif not np.isfinite(arr).all():
                errors.append((f"points[{i}]", "entries must be finite"))
            else:
                matrices.append(arr)
        shapes = {m.shape for m in matrices}
        if len(shapes) > 1:
            errors.append(("points", "all matrices must share one dimension"))
    weights = cfg.get("weights")
    if weights is not None:
        if not isinstance(weights, list) or len(weights) != len(raw_points or []):
            errors.append(("weights", "must match the number of points"))
            weights = None
        else:
            bad = [i for i, w in enumerate(weights) if not _is_finite_number(w)]
            for i in bad:
                errors.append((f"weights[{i}]", "expected a finite real number"))
            # the weights that normalize the estimate: disjoint pairing
            # leaves an odd point count's last point out
            disjoint = cfg.get("pairing", "disjoint") == "disjoint"
            paired = weights[: len(weights) // 2 * 2] if disjoint else weights
            if not bad and np.array(paired).sum() == 0:
                errors.append(("weights", "weights of the paired points must have a nonzero sum"))
    return {
        "species": species,
        "matrices": matrices,
        "weights": weights,
        "pairing": _choice(cfg, "pairing", errors, {"disjoint", "all"}, default="disjoint"),
    }


def _is_finite_number(value):
    try:
        return _is_number(value) and math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def _is_matrix(value):
    if _is_number(value):
        return True
    return isinstance(value, list) and all(
        _is_number(row) or (isinstance(row, list) and all(map(_is_number, row)))
        for row in value
    )


def _square_matrix(value):
    """A number or list of number rows as a float array, None if it is
    neither, is ragged, overflows float or is not square."""
    if not _is_matrix(value):
        return None
    try:
        arr = np.atleast_2d(np.asarray(value, dtype=float))
    except (ValueError, OverflowError):
        return None
    return arr if arr.ndim == 2 and arr.shape[0] == arr.shape[1] else None


def _validate_variational(cfg, errors):
    _check_unknown(
        cfg,
        _COMMON_KEYS | {"components", "alpha", "chi", "omega", "dt", "lam", "iters", "t_max", "record_every", "radius"},
        errors,
    )
    return {
        "components": _integer(cfg, "components", errors, default=16, positive=True),
        "alpha": _as_complex(cfg.get("alpha", math.sqrt(3.0)), "alpha", errors),
        "chi": _number(cfg, "chi", errors, default=1.0),
        "omega": _number(cfg, "omega", errors, default=None),
        "dt": _number(cfg, "dt", errors, default=2 * math.pi / 2000, positive=True),
        "lam": _number(cfg, "lam", errors, default=1e-4, positive=True),
        "iters": _integer(cfg, "iters", errors, default=4, positive=True),
        "t_max": _number(cfg, "t_max", errors, default=2 * math.pi, positive=True),
        "record_every": _integer(cfg, "record_every", errors, default=10, positive=True),
        "radius": _number(cfg, "radius", errors, default=0.1, positive=True),
    }


def _validate_dimension_count(cfg, errors):
    _check_unknown(cfg, _COMMON_KEYS | {"particles", "modes", "statistics"}, errors)
    return {
        "particles": _integer(cfg, "particles", errors, required=True, positive=True),
        "modes": _integer(cfg, "modes", errors, required=True, positive=True),
        "statistics": _choice(
            cfg, "statistics", errors, {"boson", "fermion"}, default="boson"
        ),
    }


_VALIDATORS = {
    "exact-doublewell": _validate_exact_doublewell,
    "wigner": _validate_wigner,
    "plusp": _validate_plusp,
    "plusp-reverse": _validate_plusp_reverse,
    "entropy": _validate_entropy,
    "variational": _validate_variational,
    "dimension-count": _validate_dimension_count,
}


def parse_scenario(text: str) -> Scenario:
    """Parse + validate a YAML scenario; raises ValidationError with all problems.

    The text is loaded with libyaml's safe loader when PyYAML was built
    with it (about 8x faster on large entropy ensembles) and with the
    pure-Python safe loader otherwise; both build the same plain data.
    """
    loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    try:
        cfg = yaml.load(text, Loader=loader)
    except yaml.YAMLError as exc:
        raise ValidationError([("<file>", f"not valid YAML: {exc}")]) from exc
    if not isinstance(cfg, dict):
        raise ValidationError([("<file>", "scenario must be a YAML mapping")])
    errors = []
    kind = cfg.get("kind")
    if kind not in SCENARIO_KINDS:
        raise ValidationError([("kind", f"must be one of {list(SCENARIO_KINDS)}")])
    seed = _integer(cfg, "seed", errors, default=0)
    name = cfg.get("name", "")
    if not isinstance(name, str):
        errors.append(("name", "expected a string"))
        name = ""
    params = _VALIDATORS[kind](cfg, errors)
    if errors:
        raise ValidationError(errors)
    return Scenario(kind=kind, seed=seed, params=params, name=name, raw=cfg)


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------


@dataclass
class ScenarioOutcome:
    kind: str
    rows: list  # list of dicts, CSV-ready
    columns: list
    report: dict  # scalar JSON report
    inconclusive: bool = False


def run_scenario(scenario: Scenario, seed=None) -> ScenarioOutcome:
    seed = scenario.seed if seed is None else seed
    runner = _RUNNERS[scenario.kind]
    return runner(scenario.params, seed)


def _run_exact_doublewell(p, seed):
    from .doublewell import doublewell_scan

    points = doublewell_scan(
        p["atoms"],
        p["taus"],
        chi=p["chi"],
        mixing_angle=p["mixing_angle"],
        bs_phase=p["bs_phase"],
        cutoff=p["cutoff"],
    )
    columns = [
        "tau", "s_db_theta", "s_db_conj", "n0", "s_plus_db", "s_minus_db",
        "e_product", "e_sum",
    ]
    rows = [
        {
            "tau": pt.tau,
            "s_db_theta": pt.s_db_theta,
            "s_db_conj": pt.s_db_conj,
            "n0": pt.n0_well,
            "s_plus_db": pt.s_plus_db,
            "s_minus_db": pt.s_minus_db,
            "e_product": pt.e_product,
            "e_sum": pt.e_sum,
        }
        for pt in points
    ]
    report = {
        "min_s_db_theta": min(r["s_db_theta"] for r in rows),
        "min_e_product": min(r["e_product"] for r in rows),
        "squeezed_window": any(r["s_db_theta"] < 0 for r in rows),
        "entangled_window": any(r["e_product"] < 1 for r in rows),
    }
    return ScenarioOutcome("exact-doublewell", rows, columns, report)


def _snap_times(times, dt):
    steps = np.unique(np.rint(times / dt).astype(int))
    return steps * dt


def _run_wigner(p, seed):
    from .wigner import LossChannel, run_wigner_x

    times = _snap_times(p["times"], p["dt"])
    channels = [LossChannel(powers, rate) for powers, rate in p["channels"]]
    result = run_wigner_x(
        p["alpha0"], p["chi"], times, p["trajectories"], seed, p["dt"], channels=channels
    )
    rows = []
    for name in ("X", "n_w"):
        for i, t in enumerate(times):
            rows.append(
                {
                    "t": t,
                    "observable": name,
                    "mean": result.mean(name)[i].real,
                    "error": result.error(name)[i],
                }
            )
    report = {"diverged": result.diverged, "trajectories": result.trajectories}
    return ScenarioOutcome("wigner", rows, ["t", "observable", "mean", "error"], report)


def _run_plusp(p, seed):
    from .plusp import run_kerr_plusp

    times = _snap_times(p["times"], p["dt"])
    result = run_kerr_plusp(
        p["state"],
        p["chi"],
        times,
        p["trajectories"],
        seed,
        p["dt"],
        width=p["width"],
        divergence_ceiling=p["divergence_ceiling"],
        extra_observables={"n": lambda s: s[:, 0] * s[:, s.shape[1] // 2]},
    )
    rows = [
        {
            "t": t,
            "re_x": result.mean("X")[i].real,
            "error": result.error("X")[i],
            "diverged_count": int(result.diverged_count[i]),
        }
        for i, t in enumerate(times)
    ]
    report = {
        "diverged": result.diverged,
        "unreliable": result.unreliable,
        "final_n": result.mean("n")[-1].real,
    }
    return ScenarioOutcome(
        "plusp", rows, ["t", "re_x", "error", "diverged_count"], report,
        inconclusive=result.unreliable,
    )


def _run_plusp_reverse(p, seed):
    from .plusp import time_reversal_test

    report_obj = time_reversal_test(
        p["alpha0"],
        p["chi"],
        p["reversal_time"],
        p["trajectories"],
        seed=seed,
        dt=p["dt"],
        n_points=p["points"],
        width=p["width"],
        error_ceiling=p["error_ceiling"],
    )
    rows = [
        {
            "t": t,
            "re_x": report_obj.x_mean[i],
            "error": report_obj.x_error[i],
            "diverged_count": int(report_obj.diverged_count[i]),
        }
        for i, t in enumerate(report_obj.times)
    ]
    report = {
        "initial_x": report_obj.initial_x,
        "recovery_residual": report_obj.recovery_residual,
        "residual_bar": report_obj.residual_bar,
        "error_growth": report_obj.error_growth,
        "recovered_within_2bar": report_obj.recovery_residual
        <= 2.0 * report_obj.residual_bar,
        "diverged": report_obj.diverged,
        "inconclusive": report_obj.inconclusive,
    }
    return ScenarioOutcome(
        "plusp-reverse", rows, ["t", "re_x", "error", "diverged_count"], report,
        inconclusive=report_obj.inconclusive,
    )


def _run_entropy(p, seed):
    from .gaussian_entropy import GaussianPhasePoint, renyi_entropy

    weights = p["weights"] or [1.0] * len(p["matrices"])
    points = [
        GaussianPhasePoint(p["species"], m, w)
        for m, w in zip(p["matrices"], weights)
    ]
    res = renyi_entropy(points, pairing=p["pairing"])
    report = {
        "S2": res.s2,
        "error": res.s2_error,
        "pair_count": res.pairs,
        "sign_problem_flag": res.sign_problem,
    }
    return ScenarioOutcome("entropy", [], [], report, inconclusive=res.sign_problem)


def _run_variational(p, seed):
    from .variational import (
        energy,
        expectation,
        kerr_hamiltonian,
        propagate,
        ring_initial_state,
        state_norm,
    )

    ham = kerr_hamiltonian(
        p["chi"], modes=1, omega=None if p["omega"] is None else [p["omega"]]
    )
    state = ring_initial_state([p["alpha"]], p["components"], radius=p["radius"])
    n_steps = int(round(p["t_max"] / p["dt"]))
    times, states = propagate(
        state, ham, p["dt"], n_steps, lam=p["lam"], iters=p["iters"],
        record_every=p["record_every"],
    )
    rows = []
    for t, st in zip(times, states):
        a_mean = expectation(st, (), (0,))
        rows.append(
            {
                "t": t,
                "x": a_mean.real,
                "y": a_mean.imag,
                "norm": state_norm(st),
                "energy": energy(st, ham),
            }
        )
    report = {
        "norm_drift": abs(rows[-1]["norm"] / rows[0]["norm"] - 1.0),
        "energy_drift": abs(rows[-1]["energy"] - rows[0]["energy"]),
    }
    return ScenarioOutcome("variational", rows, ["t", "x", "y", "norm", "energy"], report)


def _run_dimension_count(p, seed):
    from .lattice import hilbert_dimension

    exact, log10 = hilbert_dimension(p["particles"], p["modes"], p["statistics"])
    report = {
        "particles": p["particles"],
        "modes": p["modes"],
        "statistics": p["statistics"],
        "dimension": str(exact) if exact is not None else None,
        "log10_dimension": log10,
    }
    return ScenarioOutcome("dimension-count", [], [], report)


_RUNNERS = {
    "exact-doublewell": _run_exact_doublewell,
    "wigner": _run_wigner,
    "plusp": _run_plusp,
    "plusp-reverse": _run_plusp_reverse,
    "entropy": _run_entropy,
    "variational": _run_variational,
    "dimension-count": _run_dimension_count,
}
