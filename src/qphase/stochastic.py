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

The step noise (`noise_block`) is two-point: each entry is +1 or -1, one
raw bit of its stream.  It shares the first three moments of a standard
normal, which is all the weak order 1 of the midpoint step needs: the
simplified weak scheme of Kloeden & Platen, *Numerical Solution of
Stochastic Differential Equations* (1992), section 14.1.
`STEP_NOISE_LAW` names it for run manifests.  Initial samples (every
`draw_rows` caller) stay Gaussian: they are the phase-space distribution
itself.

Ensemble runs estimate from antithetic pairs (Hammersley & Morton, Proc.
Camb. Phil. Soc. 52, 449 (1956); Glasserman, *Monte Carlo Methods in
Financial Engineering* (2004), section 4.2).  For 2h trajectories the
sampler draws h rows, and rows h..2h-1 are their reflection about the
centre its law is symmetric about (`antithetic`); each step draws h rows
of `noise_block` straight into the first half of its block and negates
them into the second half, before any constant shift the model adds.
Two-point noise and the Gaussian samplers are symmetric, so each member
keeps its law, while the pair mean cancels every term odd in the draws.
Pair k is row k of every stream, so adding pairs never changes an
existing one.  `run_ensemble` averages each observable over its pair and
takes the CLT bar over pair means: for a linear observable of a coherent
start that bar is zero (to rounding) at t = 0, where every pair mean is
the coherent amplitude.  It also reports the trajectory spread, the
sample sd of the single members of the live pairs, which the mirrored
noise does not cancel: the +P time reversal's `error_growth` reads it,
as its pair bar falls again on the way back.  Only the snapshots behind
xi^2 stay unpaired: they feed a block bar that was calibrated on
independent samples.

`schedule_steps` is the one rule that turns recorded times into step
indices: from t = 0, on the dt grid, one step per time.
`evolve` is the one time loop.  It drives a model that provides

    noise(step_index, n_traj, dt) -> this step's noise term (or None)
    noise(step_index, n_traj, dt, pairs=True) -> the same as antithetic
        pairs (only paired runs call it)
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
model with real chi keep every density, so their rates never change and
each trajectory is one phase rotation).  Otherwise it steps the midpoint
scheme and draws the noise once per step, so every midpoint iteration
sees the same object, already scaled by 1/sqrt(dt) and any factor fixed
for the step (+P's rate columns, Wigner's sqrt(kappa_l) per loss
channel).  A run allocates its state, midpoint and drift buffers once,
steps the state in place and copies it only at the steps its consumer
records; models write their drift in place, through per-run scratch of
their own where they need any, so no step allocates state-sized memory
beyond its noise draw.  The state is copied into the layout the model
declares, whatever the caller's layout: +P steps column-contiguous
(every mode column is one contiguous run), Wigner row-major.  A
trajectory dies when any component of its state is non-finite or
exceeds the divergence ceiling in modulus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

__all__ = [
    "BLOCK_ROWS",
    "STEP_NOISE",
    "STEP_NOISE_LAW",
    "HUSIMI_MEANS",
    "CANONICAL_WIDTHS",
    "FOCK_RADII",
    "FOCK_PHASES",
    "WIGNER_SAMPLES",
    "stream",
    "draw_rows",
    "noise_block",
    "antithetic",
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

# The law `noise_block` draws step noise from, as run manifests record it.
STEP_NOISE_LAW = "two-point"


def stream(seed: int, domain: int, index: int = 0, block: int = 0) -> np.random.Generator:
    """The generator at stream address (seed, domain, index, block), the seed
    taken modulo 2**64; keyed by the numbers' uint32 words (least significant
    first, at least one each), which is how numpy keys their tuple."""
    words = [(value >> shift) & 0xFFFFFFFF for value in (seed & 0xFFFFFFFFFFFFFFFF, domain, index, block)
             for shift in range(0, max(value.bit_length(), 1), 32)]
    key = np.random.SeedSequence(np.array(words, dtype=np.uint32))
    return np.random.Generator(np.random.SFC64(key))


def draw_rows(seed: int, domain: int, index: int, rows: int, draw, out=None) -> np.ndarray:
    """`rows` rows of `draw(generator, k)` (which returns k rows), where
    rows [b BLOCK_ROWS, (b + 1) BLOCK_ROWS) come from block b's stream.
    Each block draws its rows in order, so adding rows never changes
    the rows before them.  With `out`, ``draw(generator, k, out=view)``
    writes each block's k rows into its rows of `out`, which is returned."""
    blocks = [(block, lo, min(BLOCK_ROWS, rows - lo))
              for block, lo in enumerate(range(0, max(rows, 1), BLOCK_ROWS))]
    if out is not None:
        for block, lo, k in blocks:
            draw(stream(seed, domain, index, block), k, out=out[lo:lo + k])
        return out
    parts = [draw(stream(seed, domain, index, block), k) for block, _, k in blocks]
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


# Row b: the bits of byte b, most significant first, as +1.0 (bit 0) or -1.0 (bit 1).
_BIT_SIGNS = 1.0 - 2.0 * ((np.arange(256)[:, None] >> np.arange(7, -1, -1)) & 1)


def _two_point(gen: np.random.Generator, rows: int, per_traj: int, out: np.ndarray) -> np.ndarray:
    """(rows, per_traj) two-point variates, one bit of ``gen.bytes(n)`` each
    for n = ceil(rows per_traj / 8), read row-major, written into the
    row-major contiguous `out`."""
    count = rows * per_traj
    # gen.bytes(n) is the bit generator's raw 64-bit words as little-endian
    # bytes; reading the words directly skips its bounded-integer path
    words = gen.bit_generator.random_raw(-(-count // 64))
    raw = words.astype("<u8", copy=False).view(np.uint8)[: -(-count // 8)]
    flat = out.reshape(-1)  # a view: `out` is contiguous
    whole = count // 8
    # a byte indexes one of 256 rows, so "clip" never clips; it takes
    # straight into `out`, where the default "raise" buffers a copy
    _BIT_SIGNS.take(raw[:whole], axis=0, out=flat[: 8 * whole].reshape(whole, 8), mode="clip")
    flat[8 * whole:] = _BIT_SIGNS[raw[whole:]].reshape(-1)[: count - 8 * whole]
    return out


def noise_block(master_seed: int, step_index: int, n_traj: int, per_traj: int, pairs: bool = False) -> np.ndarray:
    """Two-point step noise of shape (n_traj, per_traj) for one time step.

    Each entry is +1.0 or -1.0 with probability 1/2: mean 0, variance
    exactly 1 and third moment 0, as for the standard normal it replaces
    in the simplified weak scheme (Kloeden & Platen 1992, section 14.1).
    Initial samples stay Gaussian.

    Row i is the noise owned by trajectory i, drawn from the step-noise
    stream (master_seed, STEP_NOISE, step_index, i // BLOCK_ROWS): each
    entry is one bit of that stream's ``bytes``, most significant bit of
    each byte first, bit 0 giving +1, taken row-major within the block.
    Adding trajectories extends the block without changing existing rows.

    With `pairs` (an even `n_traj`), rows ..n_traj/2 are drawn as above,
    straight into the returned array, and rows n_traj/2.. are their
    negation: the antithetic pairs of `antithetic`, in one noise block.
    """
    out = np.empty((n_traj, per_traj))
    half = n_traj // 2 if pairs else n_traj
    draw_rows(master_seed, STEP_NOISE, step_index, half, partial(_two_point, per_traj=per_traj), out=out[:half])
    if pairs:
        np.negative(out[:half], out=out[half:])
    return out


def antithetic(draw, rows: int, centre=0.0) -> np.ndarray:
    """`rows` rows as antithetic pairs, in one array: rows [0, h) are
    ``draw(h)`` (which returns h rows), h = rows // 2, and row h + k is the
    reflection 2 centre - (row k) about `centre` (a scalar, or a row that
    broadcasts against one).  `rows` must be even.  When row k of
    ``draw(h)`` does not depend on h, as for every `draw_rows` caller,
    adding pairs never changes an existing pair."""
    half = draw(rows // 2)
    out = np.empty_like(half, shape=(rows,) + half.shape[1:])
    out[: rows // 2] = half
    np.subtract(2 * np.asarray(centre), half, out=out[rows // 2:])
    return out


@dataclass
class MomentAccumulator:
    """Running mean / CLT error bar.

    ``add`` sums each batch's squared deviations about the batch's own mean
    (two passes over the array) and merges batches by the pairwise update
    of Chan, Golub & LeVeque (Am. Stat. 37, 242, 1983).  The one-pass
    E|y|^2 - |E y|^2 cancels when the mean is large against the spread, as
    for antithetic pair means near t = 0; the centred sum does not.
    """

    value_sum: complex = 0.0
    sq_dev: float = 0.0  # sum of |value - mean|^2 over every value added
    count: int = 0

    def add(self, values: np.ndarray) -> None:
        values = np.asarray(values)
        if not values.size:
            return
        batch_sum = complex(values.sum())
        batch_mean = batch_sum / values.size
        dev = values - (batch_mean if np.iscomplexobj(values) else batch_mean.real)
        parts = _parts(dev)  # a fresh array: square it in place
        batch_sq = float(np.square(parts, out=parts).sum())
        if self.count:
            delta = batch_mean - self.value_sum / self.count
            batch_sq += abs(delta) ** 2 * self.count * values.size / (self.count + values.size)
        self.value_sum += batch_sum
        self.sq_dev += batch_sq
        self.count += values.size

    @property
    def mean(self) -> complex:
        if self.count == 0:
            raise ValueError("empty accumulator")
        return self.value_sum / self.count

    @property
    def spread(self) -> float:
        """Sample standard deviation of the values added."""
        if self.count < 2:
            return math.inf
        return math.sqrt(self.sq_dev / (self.count - 1))

    @property
    def error(self) -> float:
        """Sample standard deviation of the mean (CLT bar)."""
        if self.count < 2:
            return math.inf
        return math.sqrt(self.sq_dev / (self.count - 1) / self.count)


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
    modulus dead in `alive`, and zero every dead row, old ones too (additive
    noise moves them); `parts` is ``_parts(state)``."""
    # parts within +-0.7 ceiling give |y| <= 0.99 ceiling: all rows live
    safe = 0.7 * ceiling
    if not (parts.max() <= safe and parts.min() >= -safe):  # NaN fails both
        # NaN compares false and inf exceeds the ceiling: one test each
        alive &= (np.abs(state.reshape(len(alive), -1)) <= ceiling).all(axis=1)
    if not alive.all():
        # freeze dead trajectories so NaNs cannot poison the others
        state[~alive] = 0.0


def evolve(state, model, dt: float, n_steps: int, divergence_ceiling: float = 1e6, record=None,
           pairs: bool = False):
    """Yield (step index, state, alive mask) at the step indices in
    `record`, or at step 0 and after every step if `record` is None.
    With `pairs`, each step's noise is drawn as ``model.noise(...,
    pairs=True)``: antithetic pairs (see the module docstring).

    When ``model.flow`` gives rates G for `state` (see the module
    docstring), each recorded state is the exact y(0) exp(t G) at
    t = step * dt and nothing is stepped.  Otherwise each step draws
    `model.noise` once and passes it to every `model.derivative` call of
    that step.  Dead trajectories (see the module docstring) are marked in
    the mask and zeroed after every step, even where additive noise moved
    them within it; a step's overflow warns of nothing, as the rows it
    reaches die.  The mask is updated in place, so a
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
            yield step_idx, flowed, alive
        return
    work = np.array(state, order=order)  # contiguous, so ravel is a view
    del state  # a stepped run reads only its copy: drop the caller's array
    mid, slope = np.empty_like(work), np.empty_like(work)
    parts = _parts(work)
    draw = partial(model.noise, pairs=True) if pairs else model.noise
    for step_idx in range(n_steps):
        noise = draw(step_idx, n_traj, dt)
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
    observables: dict  # name -> dict(mean=array, error=array, spread=array)
    diverged: int = 0  # total by the final step
    trajectories: int = 0
    unreliable: bool = False
    diverged_count: np.ndarray = None  # trajectories dead by each measurement time
    integrator: str = "midpoint"  # or "exact_flow" (see `evolve`)
    estimator: str = "independent"  # or "antithetic-pairs" (see `run_ensemble`)

    def mean(self, name):
        return self.observables[name]["mean"]

    def error(self, name):
        return self.observables[name]["error"]

    def spread(self, name):
        return self.observables[name]["spread"]


def run_ensemble(
    sampler,
    model,
    observables: dict,
    trajectory_count: int,
    times,
    dt: float,
    seed: int,
    divergence_ceiling: float = 1e6,
    pair_centre=None,
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

    With `pair_centre`, the point the sampler's law is symmetric about (a
    scalar, or a row of the state), the run estimates from antithetic
    pairs (module docstring): the trajectory count must be even and at
    least 4, the sampler draws half of it and `antithetic` mirrors those
    rows about the centre, every step's noise comes from
    ``model.noise(..., pairs=True)``, and each observable is averaged over
    its pair before it is accumulated.  A pair counts only while both
    members live; the divergence counts stay in trajectories.

    Besides each mean and bar, the result holds each observable's
    `spread`: the sample sd of the single trajectories that count (both
    members of every live pair), which is the bar times sqrt(n) in an
    unpaired run of n live trajectories.
    """
    if trajectory_count < 2:
        raise ValueError("need at least 2 trajectories")
    pairs = pair_centre is not None
    if pairs and (trajectory_count % 2 or trajectory_count < 4):
        raise ValueError(f"antithetic pairs need an even trajectory count of at least 4 (two pairs give "
                         f"the first bar), not {trajectory_count}")
    times = np.asarray(times, dtype=float)
    steps = schedule_steps(times, dt).tolist()
    series = {
        name: {"mean": np.zeros(len(times), dtype=complex), "error": np.zeros(len(times)),
               "spread": np.zeros(len(times))}
        for name in observables
    }
    diverged_count = np.zeros(len(times), dtype=int)
    half = trajectory_count // 2
    if pairs:
        initial = antithetic(lambda n: sampler(seed, n), trajectory_count, pair_centre)
    else:
        initial = sampler(seed, trajectory_count)
    integrator = "midpoint" if _flow_rates(model, initial) is None else "exact_flow"
    recorded = evolve(initial, model, dt, steps[-1], divergence_ceiling, steps, pairs)
    del initial  # `evolve` holds it as long as it reads it
    for t_idx in range(len(times)):  # enumerate would hold each record until the next
        _, state, alive = next(recorded)
        diverged_count[t_idx] = trajectory_count - alive.sum()
        live = alive[:half] & alive[half:] if pairs else alive
        if not live.any():
            lost = (f"every pair of the {trajectory_count} trajectories lost a member" if alive.any()
                    else f"all {trajectory_count} trajectories diverged")
            raise RuntimeError(f"{lost} by t = {times[t_idx]:g}")
        for name, fn in observables.items():
            values = np.asarray(fn(state))
            if pairs:
                single = MomentAccumulator()
                # both members of every live pair: all of `values` while every pair lives
                single.add(values if live.all() else values.reshape(2, half)[:, live])
                values = values[:half] + values[half:]
                values *= 0.5
            if not live.all():
                values = values[live]  # rebinding frees the full array before `add` runs
            acc = MomentAccumulator()
            acc.add(values)
            del values  # hold no rows while the next steps run
            series[name]["mean"][t_idx] = acc.mean
            series[name]["error"][t_idx] = acc.error
            series[name]["spread"][t_idx] = (single if pairs else acc).spread
        del state  # nor the record, while the next steps run

    diverged = int(diverged_count[-1])
    return EnsembleResult(
        times=times,
        observables=series,
        diverged=diverged,
        trajectories=trajectory_count,
        unreliable=diverged > 0.01 * trajectory_count,
        diverged_count=diverged_count,
        integrator=integrator,
        estimator="antithetic-pairs" if pairs else "independent",
    )
