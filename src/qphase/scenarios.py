"""Declarative scenario configs binding all engines.

A scenario is a YAML mapping whose ``kind`` picks an entry of ``_KINDS``:
its key spec, cross-field check and runner.  Validation reports *all*
problems, each under its full key path (``state.alpha``, ``times.stop``,
``losses[1].powers``); a validated scenario runs to CSV/JSON outputs and
a manifest that reruns them bit-exactly on one numpy build and SIMD dispatch.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from functools import partial

import numpy as np
import yaml

__all__ = ["Scenario", "ValidationError", "parse_scenario", "run_scenario", "SCENARIO_KINDS"]

_REAL = (int, float)  # exact types, so that YAML booleans are not numbers


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


@dataclass(frozen=True)
class Key:
    """One scenario key, read by the ``_read_<type>`` method.  Numbers, and
    a list's length, lie in [``low``, ``high``]; ``item`` reads a list's
    entries, named by index unless ``whole``; ``keys`` is a mapping's spec."""

    type: str
    default: object = None
    required: bool = False
    low: float = -math.inf
    high: float = math.inf
    positive: bool = False
    integer: bool = False
    inf: bool = False  # +inf passes, as "no ceiling"
    options: tuple = ()
    item: Key | None = None
    whole: bool = False
    keys: dict | None = None
    param: str | None = None  # the value's name in the parsed params

    def read(self, value, path, errors):
        """The parsed value, or None after appending ``(path, message)`` per problem."""
        count = len(errors)
        value = getattr(self, f"_read_{self.type}")(value, path, errors)
        return value if len(errors) == count else None

    def _read_mapping(self, value, path, errors):
        if not isinstance(value, dict):
            errors.append((path, f"expected a mapping with keys {list(self.keys)}"))
            return None
        prefix = f"{path}." if path else ""
        errors.extend((f"{prefix}{k}", "unknown key") for k in value if k not in self.keys)
        missing = [k for k, key in self.keys.items() if key.required and k not in value]
        errors.extend((prefix + k, "required key missing") for k in missing)
        read = {k: key.read(value[k], prefix + k, errors)
                for k, key in self.keys.items() if k in value}
        return {key.param or k: read.get(k, key.default) for k, key in self.keys.items()}

    def _read_number(self, value, path, errors):
        """A finite number (or +inf where ``inf``), whole if ``integer``, within the bounds."""
        if type(value) not in _REAL:
            problem = f"expected a number, got {type(value).__name__}" + _yaml_float_hint(value)
        elif not (abs(value) <= sys.float_info.max or self.inf and value == math.inf):
            problem = "must be finite"
        elif self.integer and value != int(value):
            problem = "expected an integer"
        elif self.positive and not value > 0:
            problem = "must be positive"
        elif not self.low <= value <= self.high:
            problem = f"must lie in [{self.low}, {self.high}]"
        else:
            return int(value) if self.integer else value
        errors.append((path, problem))
        return None

    def _read_choice(self, value, path, errors):
        if value not in self.options:
            errors.append((path, f"must be one of {list(self.options)}"))
        return value

    def _read_file_stem(self, value, path, errors):
        """A stem that keeps the output files inside the output directory."""
        if not isinstance(value, str) or value in ("", ".", "..") or "/" in value or "\\" in value:
            errors.append((path, "expected a file name: not empty, '.' or '..', without / or \\"))
        return value

    def _read_complex(self, value, path, errors):
        """A finite number, 're+imj' string or [re, im] pair of numbers."""
        pair = isinstance(value, list) and len(value) == 2 and all(type(v) in _REAL for v in value)
        try:
            z = complex(*value) if pair else complex(str(value).replace(" ", ""))
        except (ValueError, OverflowError):  # not a number, or an integer beyond the float range
            z = complex(math.nan)
        if not np.isfinite(z):
            errors.append((path, f"expected a finite number, 're+imj' or [re, im], got {value!r}"))
        return z

    def _read_list(self, value, path, errors):
        """Entries read by ``item``; a lone value is a one-entry list named by its path."""
        lone = not isinstance(value, list)
        entries = [value] if lone else value
        if not self.low <= len(entries) <= self.high:
            count = f"{self.low:g}" if self.low == self.high else f"at least {self.low:g}"
            errors.append((path, f"expected {count} entries"))
            return None
        names = [path if lone or self.whole else f"{path}[{i}]" for i in range(len(entries))]
        return [self.item.read(v, name, errors) for v, name in zip(entries, names)]

    def _read_grid(self, value, path, errors):
        """A list of numbers, or a mapping of evenly spaced points, as a float array."""
        if not isinstance(value, dict):
            return np.asarray(self._read_list(value, path, errors), dtype=float)
        grid = Key("mapping", keys=self.keys).read(value, path, errors)
        if grid is None:
            return None
        start = grid.get("start", 0.0)
        if not (math.isfinite(start) and math.isfinite(grid["stop"])):
            errors.append((path, "start and stop must be finite"))
            return None
        points = np.linspace(start, grid["stop"], grid["points"])
        points = points[points > 0] if self.item.positive else points  # as a list must be
        if points.size < self.low:
            errors.append((path, f"expected at least {self.low:g} positive points"))
        return points

    def _read_matrix(self, value, path, errors):
        """A number, or a square list of rows of finite numbers as a float array."""
        if type(value) in _REAL:
            return self._read_number(value, path, errors)
        rows = value if isinstance(value, list) else [None]  # anything else fails below
        arr = None
        numbers = (v for row in rows for v in (row if isinstance(row, list) else [row]))
        if all(type(v) in _REAL for v in numbers):
            try:
                arr = np.atleast_2d(np.asarray(rows, dtype=float))
            except (ValueError, OverflowError):  # ragged, or an integer beyond the float range
                pass
        square = arr is not None and arr.ndim == 2 and arr.shape[0] == arr.shape[1]
        if not (square and np.isfinite(arr).all()):
            errors.append((path, "expected a number or a square list of rows of finite numbers"))
        return arr

    def _read_state(self, value, path, errors):
        """The +P initial state, whose ``kind`` picks the key that goes with it."""
        kind = value.get("kind") if isinstance(value, dict) else None
        keys = {"kind": Key("choice", required=True, options=tuple(_STATES))}
        keys.update(_STATES.get(kind, {}) if isinstance(kind, str) else {})
        return Key("mapping", keys=keys)._read_mapping(value, path, errors)


def _yaml_float_hint(value):
    """How to write a string like '1e-3', which YAML 1.1 reads as text
    (its floats need a '.' and a signed exponent), as a number."""
    pattern = r"([-+]?[0-9]+)(\.[0-9]*)?[eE]([-+]?)([0-9]+)"
    match = re.fullmatch(pattern, value) if isinstance(value, str) else None
    if match is None:
        return ""
    mantissa, fraction, sign, exponent = match.groups()
    fixed = f"{mantissa}{fraction or '.0'}e{sign or '+'}{exponent}"
    return f" (YAML 1.1 reads {value} as text: write {fixed})" if fixed != value else ""


_int = partial(Key, "number", integer=True, low=1)
_positive = partial(Key, "number", positive=True)
_numbers = partial(Key, type="list", low=1, item=Key("number"), whole=True)
_STATES = {
    "coherent": {"alpha": Key("list", required=True, low=1, item=Key("complex"))},
    "thermal": {"nbar": _numbers(required=True, item=Key("number", low=0))},
    "fock": {"n": _numbers(required=True, item=_int(low=0))},
}
_ENSEMBLE = {
    "trajectories": Key("number", 1000, integer=True),  # bounded by `_check_pairs` alone
    "dt": _positive(1e-3),
    "times": _numbers(type="grid", required=True, low=2, keys={
        "stop": _positive(required=True),
        "points": _int(51, low=2),
    }),
}
_WIDTH = Key("choice", "canonical", options=("canonical", "delta"), param="width")
_SPECIES = ("boson", "fermion")


def _check_schedule(key, times, dt, errors):
    """Report under `key` why `stochastic.schedule_steps` rejects the
    recording schedule `times`; True if it accepts it."""
    from .stochastic import schedule_steps

    try:
        schedule_steps(times, dt)
    except ValueError as exc:
        errors.append((key, str(exc)))
        return False
    return True


def _check_times(p, errors):
    """An ensemble records each time at its nearest dt step: `times` becomes that grid."""
    if p["times"] is not None and p["dt"] is not None:
        p["times"] = np.rint(p["times"] / p["dt"]).astype(int) * p["dt"]
        _check_schedule("times", p["times"], p["dt"], errors)


def _check_pairs(p, errors):
    """An ensemble runs antithetic pairs: an even trajectory count, and two pairs for a bar."""
    count = p["trajectories"]
    if count is not None and (count % 2 or count < 4):
        errors.append(("trajectories", "must be even and at least 4: the run estimates from antithetic "
                       "pairs, trajectory k + n/2 mirroring trajectory k, and its bars need two pairs"))


def _check_plusp(p, errors):
    _check_times(p, errors)
    _check_pairs(p, errors)
    state = p["state"]
    if p["width"] == "delta" and state is not None and state["kind"] != "coherent":
        errors.append(("canonical_width", f"delta places every trajectory at one point, "
                       f"which represents only a coherent state, not {state['kind']}"))


def _check_doublewell(p, errors):
    if p["chi"] is None:
        return
    if p["chi"][0] > 0:
        from .doublewell import rb_interaction_matrix

        p["chi"] = rb_interaction_matrix(p["chi"])
    else:
        errors.append(("chi_ratios", "a11 must be positive: taus are in units of chi_11"))


def _check_wigner(p, errors):
    _check_times(p, errors)
    _check_pairs(p, errors)
    if p["alpha0"] is None:
        return
    size, chi = len(p["alpha0"]), p["chi"]
    if chi is not None and not (size == 1 and type(chi) in _REAL or np.shape(chi) == (size, size)):
        errors.append(("chi", f"expected a {size}x{size} list of numbers"))
    p["channels"] = [(tuple(c["powers"]), c["rate"]) for c in p["channels"] or ()]
    for i, (powers, _) in enumerate(p["channels"]):
        if len(powers) != size:
            errors.append((f"losses[{i}].powers", "expected one non-negative integer per mode"))
        elif not any(powers):
            errors.append((f"losses[{i}].powers", "all powers are zero: O = 1 removes no atoms"))


def _check_reverse(p, errors):
    from .plusp import reversal_schedule

    _check_pairs(p, errors)
    if p["chi"] is None and p["alpha0"] is not None:
        nbar = abs(p["alpha0"]) ** 2
        p["chi"] = 1.0 / nbar if nbar else 1.0
    reversal, dt, points = p["reversal_time"], p["dt"], p["points"]
    if None not in (reversal, dt, points) and _check_schedule("reversal_time", (0.0, reversal), dt, errors):
        _check_schedule("points", reversal_schedule(reversal, dt, points), dt, errors)


def _check_spectra(stack, species, errors):
    """Each point is a Green's function: symmetric, with occupations (its
    eigenvalues) in [0, 1] for fermions and >= 0 for bosons, to 1e-12 of
    its largest entry (at least 1e-12).  One eigvalsh call covers the stack."""
    tol = 1e-12 * np.maximum(np.abs(stack).max(axis=(1, 2)), 1.0)
    asymmetric = np.abs(stack - stack.transpose(0, 2, 1)).max(axis=(1, 2)) > tol
    occupations = np.linalg.eigvalsh(stack)
    outside = occupations[:, 0] < -tol
    if species == "fermion":
        outside |= occupations[:, -1] > 1.0 + tol
    rule = "lie in [0, 1]" if species == "fermion" else "be non-negative"
    for i in np.flatnonzero(asymmetric | outside):
        lo, hi = occupations[i, 0], occupations[i, -1]
        errors.append((f"points[{i}]", "matrix must be symmetric" if asymmetric[i] else
                       f"{species} occupations (eigenvalues) must {rule}, got {lo:.6g} to {hi:.6g}"))


def _check_entropy(p, errors):
    matrices, weights = p["matrices"], p["weights"]
    if matrices is None:
        return
    p["matrices"] = matrices = [np.atleast_2d(np.asarray(m, dtype=float)) for m in matrices]
    if len({m.shape for m in matrices}) > 1:
        errors.append(("points", "all matrices must share one dimension"))
    elif p["species"] is not None:
        _check_spectra(np.stack(matrices), p["species"], errors)
    if weights is None:
        return
    # the weights that normalize the estimate: disjoint pairing leaves an
    # odd point count's last point out
    paired = weights[: len(weights) // 2 * 2] if p["pairing"] == "disjoint" else weights
    if len(weights) != len(matrices):
        errors.append(("weights", "must match the number of points"))
    elif np.sum(paired) == 0:
        errors.append(("weights", "weights of the paired points must have a nonzero sum"))


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
    kind = cfg.get("kind")
    if kind not in SCENARIO_KINDS:
        raise ValidationError([("kind", f"must be one of {list(SCENARIO_KINDS)}")])
    keys, check, _ = _KINDS[kind]
    errors = []
    params = Key("mapping", keys={**_COMMON, **keys})._read_mapping(cfg, "", errors)
    seed, name = params.pop("seed"), params.pop("name")
    del params["kind"]
    if check:
        check(params, errors)
    if errors:
        raise ValidationError(errors)
    return Scenario(kind=kind, seed=seed, params=params, name=name)


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------


@dataclass
class ScenarioOutcome:
    rows: list  # CSV rows: dicts whose keys, in order, are the header
    report: dict  # scalar JSON report
    inconclusive: str | None = None  # why the result cannot be trusted
    step_noise: str | None = None  # the law the run drew step noise from, if it drew any
    estimator: str | None = None  # how its bars were estimated, if it ran an ensemble
    shards: int | None = None  # how many processes stepped it, if it ran an ensemble


def run_scenario(scenario: Scenario, seed=None) -> ScenarioOutcome:
    _, _, run = _KINDS[scenario.kind]
    return run(scenario.params, scenario.seed if seed is None else seed)


# A window needs a criterion to pass by more than this: a coherent product
# state, whose E is 1, reads E = 1 - 3e-16 at atoms 1e-20 (up to 1e-10
# from 1 at smaller atom numbers), which is rounding, not entanglement.
_WINDOW_ROUNDING = 1e-9


def _run_exact_doublewell(p, seed):
    from dataclasses import asdict

    from .doublewell import doublewell_scan, fock_check

    check = fock_check(p["taus"][0], p["chi"])
    points = doublewell_scan(
        p["atoms"],
        p["taus"],
        chi=p["chi"],
        mixing_angle=p["mixing_angle"],
        bs_phase=p["bs_phase"],
    )
    rows = [asdict(pt) for pt in points]
    # the criteria are NaN where <Jy> vanishes against N (spins.entanglement_criteria)
    defined = [r["e_product"] for r in rows if not math.isnan(r["e_product"])]
    undefined = [r["tau"] for r in rows if math.isnan(r["e_product"])]
    report = {
        "min_s_db_theta": min(r["s_db_theta"] for r in rows),
        "min_e_product": min(defined, default=None),
        "squeezed_window": any(r["s_db_theta"] < -_WINDOW_ROUNDING for r in rows),
        "entangled_window": any(r["e_product"] < 1 - _WINDOW_ROUNDING for r in rows),
        "fock_check": asdict(check),
    }
    reason = None
    if undefined:
        reason = (f"the entanglement criteria are undefined at tau = {', '.join(f'{t:g}' for t in undefined)}:"
                  " the mean spins <Jy> vanish against the atom number")
    return ScenarioOutcome(rows, report, reason)


def _defined(value):
    """`value`, or None where it is NaN or infinite: strict JSON has no
    token for either, and each runner that can meet one says why."""
    return value if math.isfinite(value) else None


def _ensemble_outcome(rows, report, result, reason=None):
    """The outcome of a stochastic run's `result`: `report` gains the keys
    every such run shares, and the run is inconclusive for `reason`, else
    when over 1 % of its trajectories diverged.  The manifest names the
    estimator, the shard count and, where the run drew step noise, its law.

    `first_divergence_time` is the first recorded time by which a
    trajectory had died, or None: the `t` of the first row with a nonzero
    `diverged_count`, not the step at which the trajectory died, which
    lies after the previous recorded time."""
    from .stochastic import ESTIMATOR

    dead = np.flatnonzero(result.diverged_count)
    report.update({
        "diverged": result.diverged,
        "first_divergence_time": float(result.times[dead[0]]) if dead.size else None,
        "unreliable": result.unreliable,
    })
    if reason is None and result.unreliable:
        reason = f"{result.diverged} of {result.trajectories} trajectories diverged (over 1 %)"
    return ScenarioOutcome(rows, report, reason, result.step_noise, ESTIMATOR, result.shards)


def _x_rows(result):
    """One CSV row per recorded time of a +P run: Re <X>, its bar and the dead count."""
    return [
        {"t": t, "re_x": x.real, "error": error, "diverged_count": int(dead)}
        for t, x, error, dead in zip(result.times, result.mean("X"), result.error("X"), result.diverged_count)
    ]


def _run_wigner(p, seed):
    from .fock import kerr_oracle
    from .wigner import LossChannel, run_wigner_x

    channels = [LossChannel(powers, rate) for powers, rate in p["channels"]]
    result = run_wigner_x(
        p["alpha0"], p["chi"], p["times"], p["trajectories"], seed, p["dt"], channels=channels
    )
    rows = [
        {"t": t, "observable": name, "mean": mean.real, "error": error, "diverged_count": int(dead)}
        for name in ("X", "n_w")
        for t, mean, error, dead in zip(result.times, result.mean(name), result.error(name), result.diverged_count)
    ]
    if not channels:  # lossless: Re <a_0> of the closed-form Kerr solution, then |alpha_0|^2 + 1/2
        alpha0 = p["alpha0"]
        chi = np.zeros((len(alpha0),) * 2) if p["chi"] is None else p["chi"]
        exact = [kerr_oracle(alpha0, chi, t)["a"][0].real for t in result.times]
        exact += [abs(alpha0[0]) ** 2 + 0.5] * len(result.times)
        for row, value in zip(rows, exact):
            row["exact"] = value
    report = {"trajectories": result.trajectories, "integrator": result.integrator}
    return _ensemble_outcome(rows, report, result)


def _run_plusp(p, seed):
    from .plusp import run_kerr_plusp

    result = run_kerr_plusp(
        p["state"],
        p["chi"],
        p["times"],
        p["trajectories"],
        seed,
        p["dt"],
        width=p["width"],
        divergence_ceiling=p["divergence_ceiling"],
        extra_observables={"n": lambda s: s[:, 0] * s[:, s.shape[1] // 2]},
    )
    return _ensemble_outcome(_x_rows(result), {"final_n": result.mean("n")[-1].real}, result)


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
    report = {
        "initial_x": report_obj.initial_x,
        "recovery_residual": report_obj.recovery_residual,
        # infinite when one trajectory survives, which over 1 % diverged makes inconclusive
        "residual_bar": _defined(report_obj.residual_bar),
        "error_growth": report_obj.error_growth,
        "recovered_within_2bar": report_obj.recovery_residual
        <= 2.0 * report_obj.residual_bar,
        "inconclusive": report_obj.inconclusive,
    }
    reason = None
    if report_obj.inconclusive:
        reason = (f"sampling bar {report_obj.residual_bar:.3g} at twice the reversal time"
                  f" exceeds error_ceiling {p['error_ceiling']:g}")
    return _ensemble_outcome(_x_rows(report_obj.ensemble), report, report_obj.ensemble, reason)


def _run_entropy(p, seed):
    from .gaussian_entropy import GaussianPhasePoint, renyi_entropy

    weights = p["weights"] or [1.0] * len(p["matrices"])
    points = [
        GaussianPhasePoint(p["species"], m, w)
        for m, w in zip(p["matrices"], weights)
    ]
    res = renyi_entropy(points, pairing=p["pairing"])
    report = {  # S2 and its bar are undefined where the purity is not positive: a sign problem
        "S2": _defined(res.s2),
        "error": _defined(res.s2_error),
        "pair_count": res.pairs,
        "sign_problem_flag": res.sign_problem,
    }
    reason = "sign problem: the purity estimate is not positive or its imaginary part exceeds 3 bars"
    return ScenarioOutcome([], report, reason if res.sign_problem else None)


def _run_variational(p, seed):
    from .fock import kerr_oracle
    from .variational import (
        energy,
        expectation,
        kerr_hamiltonian,
        propagate,
        ring_initial_state,
        state_norm,
    )

    ham = kerr_hamiltonian(p["chi"], omega=p["omega"])
    state = ring_initial_state([p["alpha"]], p["components"], radius=p["radius"])
    n_steps = int(round(p["t_max"] / p["dt"]))
    steps = {}
    times, states = propagate(
        state, ham, p["dt"], n_steps, lam=p["lam"], iters=p["iters"],
        record_every=p["record_every"], rtol=p["rtol"], stats=steps,
    )
    rows, omega = [], p["omega"] or 0.0
    for t, st in zip(times, states):
        a_mean = expectation(st, (), (0,))
        # <a> of |alpha> under omega N + (chi/2) adag^2 a^2, whose two parts commute
        a_exact = np.exp(-1j * omega * t) * kerr_oracle([p["alpha"]], [[p["chi"]]], t)["a"][0]
        rows.append(
            {
                "t": t,
                "x": a_mean.real,
                "y": a_mean.imag,
                "norm": state_norm(st),
                "energy": energy(st, ham),
                "exact_x": a_exact.real,
                "exact_y": a_exact.imag,
            }
        )
    report = {
        "norm_drift": abs(rows[-1]["norm"] / rows[0]["norm"] - 1.0),
        "energy_drift": abs(rows[-1]["energy"] - rows[0]["energy"]),
        **steps,
        # a t_max below dt / 2 takes no step
        "smallest_step": _defined(steps["smallest_step"]),
    }
    return ScenarioOutcome(rows, report)


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
    return ScenarioOutcome([], report)


# kind: (key spec, cross-field check, runner)
_KINDS = {
    "exact-doublewell": ({
        "atoms": _positive(200),
        "taus": _numbers(type="grid", required=True, item=_positive(), keys={
            # +inf passes on to the grid, which reports a non-finite grid as `taus`
            "start": Key("number", 0.0, low=0, inf=True),
            "stop": _positive(required=True, inf=True),
            "points": _int(21),
        }),
        "chi_ratios": _numbers(low=3, high=3, param="chi"),
        "mixing_angle": Key("number", math.pi / 4),
        "bs_phase": Key("number", 0.0),
    }, _check_doublewell, _run_exact_doublewell),
    "wigner": ({
        "alpha0": Key("list", required=True, low=1, item=Key("complex")),
        "chi": Key("matrix"),
        "losses": Key("list", (), item=Key("mapping", keys={
            "powers": _numbers(required=True, item=_int(low=0)),
            "rate": _positive(required=True),
        }), param="channels"),
        **_ENSEMBLE,
    }, _check_wigner, _run_wigner),
    "plusp": ({
        "state": Key("state", required=True),
        "chi": Key("number", 0.0),
        **_ENSEMBLE,
        "canonical_width": _WIDTH,
        "divergence_ceiling": _positive(1e6, inf=True),
    }, _check_plusp, _run_plusp),
    "plusp-reverse": ({
        "alpha0": Key("complex", complex(10.0)),
        "chi": Key("number"),
        "reversal_time": _positive(0.5),
        "trajectories": Key("number", 10000, integer=True),  # bounded by `_check_pairs` alone
        "dt": _positive(0.002),
        "canonical_width": _WIDTH,
        "error_ceiling": _positive(0.5, inf=True),
        "points": _int(51, low=2),
    }, _check_reverse, _run_plusp_reverse),
    "entropy": ({
        "species": Key("choice", required=True, options=_SPECIES),
        "points": Key("list", required=True, low=2, item=Key("matrix"), param="matrices"),
        "weights": Key("list", item=Key("number")),
        "pairing": Key("choice", "disjoint", options=("disjoint", "all")),
    }, _check_entropy, _run_entropy),
    "variational": ({
        "components": _int(16),
        "alpha": Key("complex", complex(math.sqrt(3.0))),
        "chi": Key("number", 1.0),
        "omega": Key("number"),
        "dt": _positive(2 * math.pi / 2000),
        "lam": _positive(1e-4),
        "iters": _int(4),
        "rtol": _positive(1e-5),
        "t_max": _positive(2 * math.pi),
        "record_every": _int(10),
        "radius": _positive(0.1),
    }, None, _run_variational),
    "dimension-count": ({
        "particles": _int(required=True),
        "modes": _int(required=True),
        "statistics": Key("choice", "boson", options=_SPECIES),
    }, None, _run_dimension_count),
}
SCENARIO_KINDS = tuple(_KINDS)
_COMMON = {
    "kind": Key("choice", options=SCENARIO_KINDS),
    "seed": _int(0, low=0, high=2**64 - 1),
    "name": Key("file_stem", ""),
}
