"""Shared stochastic machinery: reproducible noise, SDE stepping, moments.

Every random draw in qphase comes from one stream address, (seed, domain,
index, block): an SFC64 generator seeded through a ``SeedSequence`` of
those four numbers, after the keyed streams of Salmon et al. (SC11).
The domain names the kind of variate (step noise, +P means, ...), the
index the time step, and the block which ``BLOCK_ROWS`` rows of
trajectories the stream fills.  A trajectory's values therefore never
depend on how many trajectories run beside it, on worker assignment or
on evaluation order.  All steppers operate on arrays with a leading
trajectory axis, so a whole ensemble advances in vectorized form.

`schedule_steps` is the one rule that turns recorded times into step
indices: from t = 0, on the dt grid, one step per time.
`evolve` is the one time loop.  It drives a model that provides

    noise(step_index, n_traj, dt) -> this step's noise term (or None)
    derivative(state, step_index, noise, out) -> writes dy/dt with that
        noise into `out` (an array shaped and laid out like `state`)
        and returns `out`

and may declare

    order -> "F" if its drift works on column-contiguous states
        (row-major "C" otherwise)
    flow(state) -> constant complex rates G with dy/dt = G y exactly,
        for every trajectory and component of `state`, or None

When `flow` gives rates, nothing is stepped: `evolve` yields
y(t) = y(0) exp(t G) at the recorded steps (Wigner fields of a lossless
model with real chi and no omega keep every density, so their rates
never change and each trajectory is one phase rotation).  Otherwise it
steps the midpoint scheme and draws the noise once per
step, so every midpoint iteration sees the same object, already scaled
by 1/sqrt(dt) and any factor fixed for the step (+P's rate columns,
Wigner's sqrt(kappa_l) per loss channel).  A run allocates its state,
midpoint and drift buffers once, steps the state in place and copies it
only at the steps its consumer records; models write their drift through
per-run scratch of their own, so no step allocates state-sized memory
beyond its noise draw.  The state is copied into the layout the model
declares, whatever the caller's layout: +P steps column-contiguous
(every mode column is one contiguous run), Wigner row-major.  A
trajectory dies when any component of its state is non-finite or
exceeds the divergence ceiling in modulus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BLOCK_ROWS",
    "STEP_NOISE",
    "HUSIMI_MEANS",
    "CANONICAL_WIDTHS",
    "FOCK_RADII",
    "FOCK_PHASES",
    "WIGNER_SAMPLES",
    "stream",
    "draw_rows",
    "noise_block",
    "MomentAccumulator",
    "step",
    "evolve",
    "schedule_steps",
    "EnsembleResult",
    "run_ensemble",
]


# Trajectory rows drawn from one stream; row r comes from block r // BLOCK_ROWS.
BLOCK_ROWS = 2**16

# Stream domains: each kind of variate draws from its own streams.
STEP_NOISE = 1  # per-step SDE noise, index = step
HUSIMI_MEANS = 2  # +P coherent and thermal Husimi means
CANONICAL_WIDTHS = 3  # +P canonical Gaussian widths
FOCK_RADII = 4  # +P Fock-state Husimi radii
FOCK_PHASES = 5  # +P Fock-state Husimi phases
WIGNER_SAMPLES = 6  # truncated-Wigner coherent samples


def stream(seed: int, domain: int, index: int = 0, block: int = 0) -> np.random.Generator:
    """The generator at stream address (seed, domain, index, block); the
    seed is taken modulo 2**64."""
    key = np.random.SeedSequence((seed & 0xFFFFFFFFFFFFFFFF, domain, index, block))
    return np.random.Generator(np.random.SFC64(key))


def draw_rows(seed: int, domain: int, index: int, rows: int, draw) -> np.ndarray:
    """`rows` rows of `draw(generator, k)` (which returns k rows), where
    rows [b BLOCK_ROWS, (b + 1) BLOCK_ROWS) come from block b's stream.
    Each block draws its rows in order, so adding rows never changes
    the rows before them."""
    parts = [
        draw(stream(seed, domain, index, block), min(BLOCK_ROWS, rows - lo))
        for block, lo in enumerate(range(0, max(rows, 1), BLOCK_ROWS))
    ]
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def noise_block(master_seed: int, step_index: int, n_traj: int, per_traj: int) -> np.ndarray:
    """Standard normals of shape (n_traj, per_traj) for one time step.

    Row i is the noise owned by trajectory i, drawn from the step-noise
    stream (master_seed, STEP_NOISE, step_index, i // BLOCK_ROWS), so
    adding trajectories extends the block without changing existing rows.
    """
    return draw_rows(
        master_seed, STEP_NOISE, step_index, n_traj, lambda gen, k: gen.standard_normal((k, per_traj))
    )


@dataclass
class MomentAccumulator:
    """Running mean / CLT error bar with loss-free merging."""

    value_sum: complex = 0.0
    abs2_sum: float = 0.0
    count: int = 0

    def add(self, values: np.ndarray) -> None:
        values = np.asarray(values)
        self.value_sum += complex(values.sum())
        self.abs2_sum += float((np.abs(values) ** 2).sum())
        self.count += values.size

    def merge(self, other: "MomentAccumulator") -> "MomentAccumulator":
        return MomentAccumulator(
            self.value_sum + other.value_sum,
            self.abs2_sum + other.abs2_sum,
            self.count + other.count,
        )

    @property
    def mean(self) -> complex:
        if self.count == 0:
            raise ValueError("empty accumulator")
        return self.value_sum / self.count

    @property
    def error(self) -> float:
        """Sample standard deviation of the mean (CLT bar)."""
        if self.count < 2:
            return math.inf
        var = self.abs2_sum / self.count - abs(self.value_sum / self.count) ** 2
        var = max(var, 0.0) * self.count / (self.count - 1)
        return math.sqrt(var / self.count)


# Iterations of the semi-implicit midpoint step (Drummond & Mortimer,
# J. Comput. Phys. 93, 5, 1991).
MIDPOINT_ITERS = 4


def step(state, derivative, dt: float, mid, slope):
    """Advance `state` in place by one step of dy/dt = derivative(y).

    `derivative(y, out)` writes dy/dt into `out`; it already contains the
    discretized noise term for this step (drift + B(y) xi with xi of
    variance 1/dt), so the midpoint iteration evaluates both parts at the
    midpoint, which converges to the Stratonovich solution for
    multiplicative noise.  `mid` and `slope` are work buffers shaped like
    `state`; their contents on return are unspecified.
    """
    np.multiply(derivative(state, slope), 0.5 * dt, out=mid)
    mid += state
    for _ in range(MIDPOINT_ITERS - 1):
        np.multiply(derivative(mid, slope), 0.5 * dt, out=mid)
        mid += state
    np.subtract(np.multiply(2.0, mid, out=mid), state, out=state)
    return state


def _flow_rates(model, state):
    """The rates G of the exact flow the model declares for `state`, or None."""
    flow = getattr(model, "flow", None)
    return None if flow is None else flow(state)


def _parts(state):
    """Every real and imaginary part of the contiguous `state` as one flat view."""
    parts = state.ravel(order="K")
    return parts.view(parts.real.dtype) if np.iscomplexobj(parts) else parts


def _cull(state, parts, alive, ceiling):
    """Mark the rows of `state` that are non-finite or exceed `ceiling` in
    modulus dead in `alive`, and zero every dead row when one dies;
    `parts` is ``_parts(state)``."""
    # parts within +-0.7 ceiling give |y| <= 0.99 ceiling: all rows live
    safe = 0.7 * ceiling
    if not (parts.max() <= safe and parts.min() >= -safe):  # NaN fails both
        # NaN compares false and inf exceeds the ceiling: one test each
        within = np.abs(state.reshape(len(alive), -1)) <= ceiling
        if not within.all():
            alive &= within.all(axis=1)
            # freeze dead trajectories so NaNs cannot poison the others
            state[~alive] = 0.0


def evolve(state, model, dt: float, n_steps: int, divergence_ceiling: float = 1e6, record=None):
    """Yield (step index, state, alive mask) at the step indices in
    `record`, or at step 0 and after every step if `record` is None.

    When ``model.flow`` gives rates G for `state` (see the module
    docstring), each recorded state is the exact y(0) exp(t G) at
    t = step * dt and nothing is stepped.  Otherwise each step draws
    `model.noise` once and passes it to every `model.derivative` call of
    that step.  Dead trajectories (see the module docstring) are marked in
    the mask and frozen at zero; a step's overflow warns of nothing, as
    the rows it reaches die.  The mask is updated in place, so a
    consumer that keeps it past the next step must copy it.  Step 0 yields
    the caller's `state`, and every later recorded step a fresh array in
    the model's layout, so no yielded state is overwritten.  The stepped
    run advances its own copy of `state` in place, so a step that is not
    recorded copies nothing.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    ceiling = min(divergence_ceiling, np.finfo(float).max)  # inf rows die even at inf
    n_traj = state.shape[0]
    alive = np.ones(n_traj, dtype=bool)
    order = getattr(model, "order", "C")
    recorded = range(n_steps + 1) if record is None else frozenset(record)
    rates = _flow_rates(model, state)
    if 0 in recorded:
        yield 0, state, alive
    if rates is not None:
        for step_idx in sorted(k for k in recorded if 0 < k <= n_steps):
            flowed = np.multiply(rates, step_idx * dt, order=order)
            np.exp(flowed, out=flowed)
            flowed *= state
            _cull(flowed, _parts(flowed), alive, ceiling)
            if not alive.all():  # rows that died at an earlier record stay zero
                flowed[~alive] = 0.0
            yield step_idx, flowed, alive
        return
    work = np.array(state, order=order)  # contiguous, so ravel is a view
    mid, slope = np.empty_like(work), np.empty_like(work)
    parts = _parts(work)
    for step_idx in range(n_steps):
        noise = model.noise(step_idx, n_traj, dt)
        with np.errstate(over="ignore", invalid="ignore"):  # rows that overflow die in _cull
            step(work, lambda y, out: model.derivative(y, step_idx, noise, out), dt, mid, slope)
            _cull(work, parts, alive, ceiling)
        if step_idx + 1 in recorded:
            yield step_idx + 1, work.copy(order="K"), alive


def schedule_steps(times, dt: float) -> np.ndarray:
    """The step indices of dt at which a run records `times`.

    The first time is 0, each time lies on the step grid (to 1e-9 of the
    time, or 1e-12 near 0) and the steps strictly increase, so every time
    is one record; a schedule that breaks a rule raises ValueError naming
    the time.
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    times = np.asarray(times, dtype=float)
    if not np.isfinite(times).all():
        raise ValueError("times must be finite")
    if times[0] != 0.0:
        raise ValueError(f"the first time must be 0, not {times[0]:g}")
    steps = np.rint(times / dt)
    off = np.abs(steps * dt - times) > 1e-9 * np.abs(times) + 1e-12
    if off.any():
        raise ValueError(f"time {times[off][0]:g} is not a multiple of dt = {dt:g}")
    repeats = np.flatnonzero(np.diff(steps) <= 0)
    if repeats.size:
        i = repeats[0]
        raise ValueError(f"times {times[i]:g} and {times[i + 1]:g} fall on steps "
                         f"{steps[i]:.0f} and {steps[i + 1]:.0f} of dt = {dt:g}: steps must increase")
    return steps.astype(int)


@dataclass
class EnsembleResult:
    times: np.ndarray
    observables: dict  # name -> dict(mean=array, error=array)
    diverged: int = 0  # total by the final step
    trajectories: int = 0
    unreliable: bool = False
    diverged_count: np.ndarray = None  # trajectories dead by each measurement time
    integrator: str = "midpoint"  # or "exact_flow" (see `evolve`)

    def mean(self, name):
        return self.observables[name]["mean"]

    def error(self, name):
        return self.observables[name]["error"]


def run_ensemble(
    sampler,
    model,
    observables: dict,
    trajectory_count: int,
    times,
    dt: float,
    seed: int,
    divergence_ceiling: float = 1e6,
):
    """Evolve an ensemble and accumulate observable means with CLT bars.

    sampler(seed, n) -> initial state array with leading trajectory axis.
    model: provides noise(step_index, n_traj, dt) and
    derivative(state, step_index, noise, out), as driven by `evolve`.
    observables: name -> fn(state) -> per-trajectory complex values.

    `times` is a schedule `schedule_steps` accepts: each time is one
    record.  Trajectories that die (see `evolve`) are excluded from all
    later statistics and counted by each measurement time; a RuntimeError
    names the time by which none is left.
    """
    if trajectory_count < 2:
        raise ValueError("need at least 2 trajectories")
    times = np.asarray(times, dtype=float)
    steps = schedule_steps(times, dt).tolist()
    series = {
        name: {"mean": np.zeros(len(times), dtype=complex), "error": np.zeros(len(times))}
        for name in observables
    }
    diverged_count = np.zeros(len(times), dtype=int)
    initial = sampler(seed, trajectory_count)
    integrator = "midpoint" if _flow_rates(model, initial) is None else "exact_flow"
    recorded = evolve(initial, model, dt, steps[-1], divergence_ceiling, steps)
    for t_idx, (_, state, alive) in enumerate(recorded):
        diverged_count[t_idx] = trajectory_count - alive.sum()
        if not alive.any():
            raise RuntimeError(f"all {trajectory_count} trajectories diverged by t = {times[t_idx]:g}")
        for name, fn in observables.items():
            acc = MomentAccumulator()
            acc.add(np.asarray(fn(state))[alive])
            series[name]["mean"][t_idx] = acc.mean
            series[name]["error"][t_idx] = acc.error

    diverged = int(diverged_count[-1])
    return EnsembleResult(
        times=times,
        observables=series,
        diverged=diverged,
        trajectories=trajectory_count,
        unreliable=diverged > 0.01 * trajectory_count,
        diverged_count=diverged_count,
        integrator=integrator,
    )
