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

`evolve` is the one time loop.  It drives a model that provides

    noise(step_index, n_traj, dt) -> this step's noise term (or None)
    derivative(state, step_index, noise, out) -> writes dy/dt with that
        noise into `out` (an array shaped and laid out like `state`)
        and returns `out`

and draws the noise once per step, so every midpoint iteration sees the
same object, already scaled by 1/sqrt(dt) and any factor fixed for the
step (+P's rate columns, Wigner's sqrt(kappa_l) per loss channel).  A
run allocates its state, midpoint and drift buffers once, steps the state
in place and copies it only at the steps its consumer records; models
write their drift through per-run scratch of their own, so no step
allocates state-sized memory beyond its noise draw.  The state is copied
with its memory layout kept, so the layout follows the sampler: +P
samples are column-contiguous (every mode column is one contiguous run),
Wigner fields row-major.  A trajectory dies when any component of its
state is non-finite or exceeds the divergence ceiling in modulus.
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


def evolve(state, model, dt: float, n_steps: int, divergence_ceiling: float = 1e6, record=None):
    """Yield (step index, state, alive mask) at the step indices in
    `record`, or at step 0 and after every step if `record` is None.

    Each step draws `model.noise` once and passes it to every
    `model.derivative` call of that step.  Dead trajectories (see the
    module docstring) are marked in the mask and frozen at zero.  The mask
    is updated in place, so a consumer that keeps it past the next step
    must copy it.  The run steps its own copy of `state`, made in the
    same memory layout, in place: step 0 yields the caller's `state`, and
    every later recorded step a fresh copy, so no yielded state is
    overwritten and a step that is not recorded copies nothing.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    ceiling = min(divergence_ceiling, np.finfo(float).max)  # inf rows die even at inf
    n_traj = state.shape[0]
    alive = np.ones(n_traj, dtype=bool)
    work = np.array(state, order="K")  # contiguous, so ravel is a view
    mid, slope = np.empty_like(work), np.empty_like(work)
    parts = work.ravel(order="K")  # every real and imaginary part
    if np.iscomplexobj(parts):
        parts = parts.view(parts.real.dtype)
    # parts within +-0.7 ceiling give |y| <= 0.99 ceiling: all rows live
    safe = 0.7 * ceiling
    recorded = range(n_steps + 1) if record is None else frozenset(record)
    if 0 in recorded:
        yield 0, state, alive
    for step_idx in range(n_steps):
        noise = model.noise(step_idx, n_traj, dt)
        step(work, lambda y, out: model.derivative(y, step_idx, noise, out), dt, mid, slope)
        if not (parts.max() <= safe and parts.min() >= -safe):  # NaN fails both
            # NaN compares false and inf exceeds the ceiling: one test each
            within = np.abs(work.reshape(n_traj, -1)) <= ceiling
            if not within.all():
                alive &= within.all(axis=1)
                # freeze dead trajectories so NaNs cannot poison the others
                work[~alive] = 0.0
        if step_idx + 1 in recorded:
            yield step_idx + 1, work.copy(order="K"), alive


@dataclass
class EnsembleResult:
    times: np.ndarray
    observables: dict  # name -> dict(mean=array, error=array)
    diverged: int = 0  # total by the final step
    trajectories: int = 0
    unreliable: bool = False
    diverged_count: np.ndarray = None  # trajectories dead by each measurement time

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

    Trajectories that die (see `evolve`) are excluded from all later
    statistics and counted by each measurement time.
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
    diverged_count = np.zeros(len(times), dtype=int)
    initial = sampler(seed, trajectory_count)
    for step_idx, state, alive in evolve(initial, model, dt, n_steps, divergence_ceiling, meas_lookup):
        for t_idx in meas_lookup[step_idx]:
            diverged_count[t_idx] = trajectory_count - alive.sum()
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
    )
