"""Shared stochastic machinery: reproducible noise, SDE stepping, moments.

Noise is counter-based (Philox) and addressed by (master_seed, step,
trajectory, slot), so the values a trajectory sees never depend on worker
assignment or evaluation order.  All steppers operate on arrays with a
leading trajectory axis, so a whole ensemble advances in vectorized form.

`evolve` is the one time loop.  It drives a model that provides

    noise(step_index, n_traj, dt) -> this step's scaled noise (or None)
    derivative(state, step_index, noise) -> dy/dt including that noise

and draws the noise once per step, so every midpoint iteration of the
step sees the same object.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "noise_block",
    "complex_field_noise",
    "MomentAccumulator",
    "step",
    "evolve",
    "EnsembleResult",
    "run_ensemble",
]


def noise_block(master_seed: int, step_index: int, n_traj: int, per_traj: int) -> np.ndarray:
    """Standard normals of shape (n_traj, per_traj) for one time step.

    Row i is the noise owned by trajectory i: slot (i * per_traj + j) of
    the flat Philox-keyed stream for (seed, step).  Adding trajectories
    extends the block without changing existing rows.
    """
    key = np.array([master_seed & 0xFFFFFFFFFFFFFFFF, step_index], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key))
    return gen.standard_normal((n_traj, per_traj))


def complex_field_noise(normals: np.ndarray, dt: float) -> np.ndarray:
    """Pairs of unit normals -> complex noise with <z z*> = 1/dt.

    The last axis of `normals` must have even length; consecutive pairs
    become real and imaginary quadratures.
    """
    if normals.shape[-1] % 2:
        raise ValueError("need an even number of normals for complex noise")
    re = normals[..., 0::2]
    im = normals[..., 1::2]
    return (re + 1j * im) / math.sqrt(2.0 * dt)


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


def step(state, derivative, dt: float):
    """Advance one step of dy/dt = derivative(y).

    `derivative` already contains the discretized noise term for this
    step (drift + B(y) xi with xi of variance 1/dt), so the midpoint
    iteration evaluates both parts at the midpoint, which converges to
    the Stratonovich solution for multiplicative noise.
    """
    mid = state
    for _ in range(MIDPOINT_ITERS):
        mid = state + 0.5 * dt * derivative(mid)
    return 2.0 * mid - state


def evolve(state, model, dt: float, n_steps: int, divergence_ceiling: float = 1e6):
    """Yield (step index, state, alive mask) at step 0 and after each step.

    Each step draws `model.noise` once and passes it to every
    `model.derivative` call of that step.  Trajectories whose state
    leaves the divergence ceiling (or turns non-finite) are marked dead in
    the mask and frozen at zero.  The mask is updated in place, so a
    consumer that keeps it past the next step must copy it.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    n_traj = state.shape[0]
    alive = np.ones(n_traj, dtype=bool)
    yield 0, state, alive
    for step_idx in range(n_steps):
        noise = model.noise(step_idx, n_traj, dt)
        state = step(state, lambda y: model.derivative(y, step_idx, noise), dt)
        flat = state.reshape(n_traj, -1)
        bad = ~np.isfinite(flat).all(axis=1) | (np.abs(flat).max(axis=1) > divergence_ceiling)
        newly_dead = bad & alive
        if newly_dead.any():
            alive &= ~newly_dead
            # freeze dead trajectories so NaNs cannot poison the others
            state = np.where(alive.reshape((-1,) + (1,) * (state.ndim - 1)), state, 0.0)
        yield step_idx + 1, state, alive


@dataclass
class EnsembleResult:
    times: np.ndarray
    observables: dict  # name -> dict(mean=array, error=array)
    diverged: int = 0
    trajectories: int = 0
    unreliable: bool = False

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
    derivative(state, step_index, noise), as driven by `evolve`.
    observables: name -> fn(state) -> per-trajectory complex values.

    Trajectories whose state leaves the divergence ceiling (or turns
    non-finite) are excluded from all later statistics and counted.
    """
    if trajectory_count < 2:
        raise ValueError("need at least 2 trajectories")
    if dt <= 0:
        raise ValueError("dt must be positive")
    times = np.asarray(times, dtype=float)
    if times[0] != 0.0:
        raise ValueError("measurement schedule must start at t=0")
    n_steps = int(round(times[-1] / dt))
    if not math.isclose(n_steps * dt, times[-1], rel_tol=1e-9, abs_tol=1e-12):
        raise ValueError("final time must be a multiple of dt")
    meas_steps = np.rint(times / dt).astype(int)
    if not np.allclose(meas_steps * dt, times, atol=1e-9):
        raise ValueError("measurement times must lie on the step grid")
    meas_lookup = {}
    for idx, s in enumerate(meas_steps):
        meas_lookup.setdefault(int(s), []).append(idx)

    series = {
        name: {"mean": np.zeros(len(times), dtype=complex), "error": np.zeros(len(times))}
        for name in observables
    }
    initial = sampler(seed, trajectory_count)
    for step_idx, state, alive in evolve(initial, model, dt, n_steps, divergence_ceiling):
        for t_idx in meas_lookup.get(step_idx, []):
            for name, fn in observables.items():
                acc = MomentAccumulator()
                acc.add(np.asarray(fn(state))[alive])
                series[name]["mean"][t_idx] = acc.mean
                series[name]["error"][t_idx] = acc.error

    diverged = int(trajectory_count - alive.sum())
    result = EnsembleResult(
        times=times,
        observables=series,
        diverged=diverged,
        trajectories=trajectory_count,
        unreliable=diverged > 0.01 * trajectory_count,
    )
    return result
