import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qphase.stochastic import (
    MomentAccumulator,
    SdeScheme,
    complex_field_noise,
    noise_block,
    run_ensemble,
    step,
)


class Linear:
    """Noise-free model dy/dt = rate * y."""

    def __init__(self, rate):
        self.rate = rate

    def noise(self, step_index, n_traj, dt):
        return None

    def derivative(self, state, step_index, noise):
        return self.rate * state


# ---------------------------------------------------------------------------
# counter-based noise
# ---------------------------------------------------------------------------


def test_noise_block_is_deterministic_and_extends():
    a = noise_block(17, 3, 5, 4)
    b = noise_block(17, 3, 5, 4)
    assert np.array_equal(a, b)
    # growing the ensemble must not disturb existing trajectories
    big = noise_block(17, 3, 9, 4)
    assert np.array_equal(big[:5], a)
    # different step or seed decorrelates
    assert not np.array_equal(noise_block(17, 4, 5, 4), a)
    assert not np.array_equal(noise_block(18, 3, 5, 4), a)


def test_noise_block_statistics():
    block = noise_block(0, 0, 20000, 4)
    assert abs(block.mean()) < 0.02
    assert abs(block.var() - 1.0) < 0.02


def test_field_noise_scaling():
    normals = noise_block(1, 0, 50000, 2)
    dv, dt = 0.5, 0.01
    z = complex_field_noise(normals, dv, dt)
    assert np.mean(np.abs(z) ** 2) == pytest.approx(1.0 / (dv * dt), rel=0.03)
    with pytest.raises(ValueError):
        complex_field_noise(np.zeros((3, 3)), dv, dt)


# ---------------------------------------------------------------------------
# moment accumulator
# ---------------------------------------------------------------------------


def test_accumulator_mean_and_clt_error():
    rng = np.random.default_rng(0)
    vals = rng.standard_normal(10000) + 2.0
    acc = MomentAccumulator()
    acc.add(vals)
    assert acc.mean == pytest.approx(vals.mean())
    expected = vals.std(ddof=1) / math.sqrt(vals.size)
    assert acc.error == pytest.approx(expected, rel=1e-6)


@given(
    seed=st.integers(0, 2**31 - 1),
    split=st.integers(1, 99),
)
@settings(max_examples=30, deadline=None)
def test_accumulator_merge_equals_bulk_add(seed, split):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(100) + 1j * rng.standard_normal(100)
    bulk = MomentAccumulator()
    bulk.add(vals)
    left, right = MomentAccumulator(), MomentAccumulator()
    left.add(vals[:split])
    right.add(vals[split:])
    merged = left.merge(right)
    assert merged.mean == pytest.approx(bulk.mean)
    assert merged.error == pytest.approx(bulk.error)
    assert merged.count == bulk.count


def test_accumulator_empty_and_single():
    acc = MomentAccumulator()
    with pytest.raises(ValueError):
        _ = acc.mean
    acc.add(np.array([2.0]))
    assert acc.error == math.inf


# ---------------------------------------------------------------------------
# SDE stepping
# ---------------------------------------------------------------------------


def test_scheme_validation():
    with pytest.raises(ValueError):
        SdeScheme(scheme="rk4")
    with pytest.raises(ValueError):
        SdeScheme(dt=-1.0)
    with pytest.raises(ValueError):
        SdeScheme(midpoint_iters=0)


def test_midpoint_step_second_order_on_rotation():
    """One midpoint step of dy/dt = -i y is the Cayley transform, exact
    through O(dt^2)."""
    dt = 1e-2
    scheme = SdeScheme(scheme="midpoint", dt=dt, midpoint_iters=50)
    y = np.array([1.0 + 0.0j])
    out = step(y, 0.0, lambda s, t: -1j * s, scheme)
    cayley = (1 - 0.5j * dt) / (1 + 0.5j * dt)
    assert out[0] == pytest.approx(cayley, rel=1e-12)
    assert abs(out[0] - math.cos(dt) - 1j * -math.sin(dt)) < dt**3


def test_euler_step():
    scheme = SdeScheme(scheme="euler", dt=0.1)
    out = step(np.array([2.0]), 0.0, lambda s, t: -s, scheme)
    assert out[0] == pytest.approx(1.8)


def test_run_ensemble_exponential_decay():
    times = np.linspace(0.0, 1.0, 5)
    scheme = SdeScheme(scheme="midpoint", dt=0.01)
    result = run_ensemble(
        sampler=lambda seed, n: np.ones((n, 1), dtype=complex),
        model=Linear(-1.0),
        observables={"y": lambda s: s[:, 0]},
        trajectory_count=4,
        times=times,
        scheme=scheme,
        seed=0,
    )
    assert np.allclose(result.mean("y").real, np.exp(-times), atol=1e-4)
    assert result.diverged == 0


def test_run_ensemble_masks_divergent_trajectories():
    def sampler(seed, n):
        init = np.ones((n, 1), dtype=complex)
        init[0] = 999.0  # this trajectory blows through the ceiling
        return init

    result = run_ensemble(
        sampler=sampler,
        model=Linear(1.0),  # exponential growth
        observables={"y": lambda s: s[:, 0]},
        trajectory_count=8,
        times=np.linspace(0.0, 1.0, 3),
        scheme=SdeScheme(scheme="midpoint", dt=0.05),
        seed=0,
        divergence_ceiling=1e3,
    )
    assert result.diverged == 1
    assert result.unreliable  # 1/8 > 1%
    # survivors still follow e^t
    assert result.mean("y")[-1].real == pytest.approx(math.e, rel=1e-3)


def test_run_ensemble_draws_noise_once_per_step():
    """Every midpoint iteration of a step sees the one noise object drawn
    for that step."""

    class Counting:
        def __init__(self):
            self.drawn = []  # (step index, noise) per noise call
            self.seen = []  # (step index, noise) per derivative call

        def noise(self, step_index, n_traj, dt):
            xi = noise_block(0, step_index, n_traj, 1) / math.sqrt(dt)
            self.drawn.append((step_index, xi))
            return xi

        def derivative(self, state, step_index, noise):
            self.seen.append((step_index, noise))
            return -state + noise

    model = Counting()
    run_ensemble(
        sampler=lambda seed, n: np.ones((n, 1)),
        model=model,
        observables={"y": lambda s: s[:, 0]},
        trajectory_count=4,
        times=np.array([0.0, 0.5]),
        scheme=SdeScheme(scheme="midpoint", dt=0.1, midpoint_iters=3),
        seed=0,
    )
    assert [k for k, _ in model.drawn] == list(range(5))
    assert len(model.seen) == 5 * 3
    for k, xi in model.drawn:
        calls = [noise for j, noise in model.seen if j == k]
        assert len(calls) == 3 and all(noise is xi for noise in calls)


def test_run_ensemble_validates_schedule():
    scheme = SdeScheme(dt=0.01)
    with pytest.raises(ValueError):
        run_ensemble(
            lambda s, n: np.ones((n, 1)), Linear(1.0), {}, 2,
            np.array([0.1, 0.2]), scheme, 0,
        )
    with pytest.raises(ValueError):
        run_ensemble(
            lambda s, n: np.ones((n, 1)), Linear(1.0), {}, 2,
            np.array([0.0, 0.015]), scheme, 0,
        )
    with pytest.raises(ValueError):
        run_ensemble(
            lambda s, n: np.ones((n, 1)), Linear(1.0), {}, 1,
            np.array([0.0, 0.01]), scheme, 0,
        )
