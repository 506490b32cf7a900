import errno
import inspect
import itertools
import math
import os
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import allocating_step, gaussian_noise_block, step_noise

import qphase
from qphase import stochastic
from qphase.fock import kerr_oracle
from qphase.plusp import KerrPlusP, run_kerr_plusp, sample_canonical
from qphase.stochastic import (
    BLOCK_ROWS,
    CANONICAL_WIDTHS,
    FOCK_PHASES,
    FOCK_RADII,
    HUSIMI_MEANS,
    MIDPOINT_ITERS,
    STEP_NOISE,
    WIGNER_SAMPLES,
    MomentAccumulator,
    antithetic,
    draw_rows,
    evolve,
    noise_block,
    run_ensemble,
    schedule_steps,
    step,
    stream,
)
from qphase.wigner import LossChannel, WignerModel, run_wigner_x, sample_wigner_coherent


class Linear:
    """Noise-free model dy/dt = rate * y."""

    noise_columns = 0

    def __init__(self, rate):
        self.rate = rate

    def derivative(self, state, step_index, noise, out):
        return np.multiply(self.rate, state, out=out)


# ---------------------------------------------------------------------------
# stream address and noise
# ---------------------------------------------------------------------------

DOMAINS = (STEP_NOISE, HUSIMI_MEANS, CANONICAL_WIDTHS, FOCK_RADII, FOCK_PHASES, WIGNER_SAMPLES)


def _stream_signs(seed, step_index, block, rows, per_traj):
    """The documented two-point law bit by bit: the first rows * per_traj
    bits of the step-noise stream's bytes, most significant bit of each
    byte first and row-major, with bit 0 -> +1 and bit 1 -> -1."""
    count = rows * per_traj
    raw = stream(seed, STEP_NOISE, step_index, block).bytes(-(-count // 8))
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8))[:count]
    return (1.0 - 2.0 * bits).reshape(rows, per_traj)


def test_stream_is_sfc64_keyed_by_its_address():
    """stream(seed, domain, index, block) is SFC64 seeded by a SeedSequence
    of the four numbers, the seed taken modulo 2**64."""
    expected = np.random.Generator(np.random.SFC64(np.random.SeedSequence((5, STEP_NOISE, 3, 2))))
    assert np.array_equal(stream(5, STEP_NOISE, 3, 2).integers(0, 2**63, 16), expected.integers(0, 2**63, 16))
    assert np.array_equal(stream(-1, STEP_NOISE).random(4), stream(2**64 - 1, STEP_NOISE).random(4))
    assert np.array_equal(noise_block(5, 3, 7, 3), _stream_signs(5, 3, 0, 7, 3))


@pytest.mark.parametrize("seed", [0, 11, 2**32 - 1, 2**32, 2**32 + 5, 2**63, 2**64 - 1, -1, 2**64 + 7])
def test_stream_key_equals_the_tuple_key_at_word_boundaries(seed):
    """The key built from uint32 words is numpy's key of the address tuple,
    on both sides of each 32-bit word boundary and of 2**64."""
    for index in (0, 250, 2**32 - 1, 2**32, 2**40 + 3):
        tuple_key = np.random.SeedSequence((seed % 2**64, STEP_NOISE, index, 3))
        expected = np.random.Generator(np.random.SFC64(tuple_key)).bit_generator.random_raw(8)
        assert np.array_equal(stream(seed, STEP_NOISE, index, 3).bit_generator.random_raw(8), expected)


def test_distinct_addresses_give_distinct_streams():
    """Changing any one of seed, domain, index or block changes the stream;
    every domain differs from every other at the same seed."""
    def head(*address):
        return tuple(stream(*address).integers(0, 2**63, 4))

    base = (9, STEP_NOISE, 4, 1)
    heads = {head(*base)}
    for i in range(4):
        changed = list(base)
        changed[i] += 1
        heads.add(head(*changed))
    heads.update(head(9, domain, 0, 0) for domain in DOMAINS)
    assert len(heads) == 5 + len(DOMAINS)


def test_step_noise_and_the_samplers_differ_at_the_same_seed():
    """Step noise, Wigner samples and the two +P sample draws come from
    different domains, so no value repeats between them at one seed."""
    seed, n = 7, 6
    step0 = noise_block(seed, 0, n, 2)
    wigner = 2.0 * sample_wigner_coherent([0.0], seed, n).view(float)
    plusp = sample_canonical({"kind": "coherent", "alpha": [0.0]}, seed, n)
    means = draw_rows(seed, HUSIMI_MEANS, 0, n, lambda gen, k: gen.standard_normal((k, 2)))
    widths = draw_rows(seed, CANONICAL_WIDTHS, 0, n, lambda gen, k: gen.standard_normal((k, 2)))
    # alpha = (means + widths) / sqrt(2) with the pairing re + i im
    assert np.allclose(plusp[:, 0].view(float).reshape(n, 2), (means + widths) / math.sqrt(2.0))
    for a, b in itertools.combinations((step0, wigner, means, widths), 2):
        assert not np.any(np.isclose(a, b))


def test_rows_past_block_rows_come_from_the_next_block():
    """Each block's rows are the bits of its own stream, also for an odd
    row width, whose rows straddle byte boundaries."""
    big = noise_block(3, 2, BLOCK_ROWS + 3, 3)
    assert np.array_equal(big[:BLOCK_ROWS], _stream_signs(3, 2, 0, BLOCK_ROWS, 3))
    assert np.array_equal(big[BLOCK_ROWS:], _stream_signs(3, 2, 1, 3, 3))
    assert noise_block(3, 2, 0, 2).shape == (0, 2)


_SAMPLERS = {
    "coherent": lambda seed, n: sample_canonical({"kind": "coherent", "alpha": [1.0, 0.5j]}, seed, n),
    "thermal": lambda seed, n: sample_canonical({"kind": "thermal", "nbar": [0.5, 2.0]}, seed, n),
    "fock": lambda seed, n: sample_canonical({"kind": "fock", "n": [1, 3]}, seed, n),
    "wigner": lambda seed, n: sample_wigner_coherent([1.0, 2.0 - 1.0j], seed, n),
    "noise_block": lambda seed, n: noise_block(seed, 4, n, 3),
}


@pytest.mark.parametrize("sizes", [(4, 8), (BLOCK_ROWS, BLOCK_ROWS + 3)], ids=["4-8", "block"])
@pytest.mark.parametrize("draw", sorted(_SAMPLERS))
def test_samples_are_prefix_stable(draw, sizes):
    """Adding trajectories never changes the rows of the existing ones,
    also across the first block boundary."""
    small, big = (_SAMPLERS[draw](21, n) for n in sizes)
    assert small.shape[0] == sizes[0] and big.shape[0] == sizes[1]
    assert np.array_equal(big[: sizes[0]], small)


def test_consecutive_steps_and_domains_are_uncorrelated():
    """The correlation of consecutive steps' 20000 x 2 noise blocks, and of
    equal draws from any two domains, is within 5 / sqrt(N) of 0."""
    n_traj, seed = 20000, 13
    bound = 5.0 / math.sqrt(2 * n_traj)
    steps = [noise_block(seed, k, n_traj, 2).ravel() for k in range(5)]
    for a, b in zip(steps, steps[1:]):
        assert abs(np.corrcoef(a, b)[0, 1]) < bound
    draws = [
        draw_rows(seed, domain, 0, n_traj, lambda gen, k: gen.standard_normal((k, 2))).ravel()
        for domain in DOMAINS
    ]
    for a, b in itertools.combinations(draws, 2):
        assert abs(np.corrcoef(a, b)[0, 1]) < bound


_GENERATOR_USE = re.compile(
    r"\b(random\.|Generator|BitGenerator|SeedSequence|Philox|SFC64|PCG64\w*|MT19937|RandomState|default_rng)"
)


def test_only_stochastic_constructs_random_generators():
    """Every random draw goes through ``stochastic.stream``: no other
    module names numpy.random, a bit generator or a seed sequence."""
    offenders = [
        f"{path.name}:{number}"
        for path in sorted(Path(qphase.__file__).parent.glob("*.py"))
        if path.name != "stochastic.py"
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if _GENERATOR_USE.search(line)
    ]
    assert offenders == []


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
    """Every entry is exactly +1 or -1, so its variance about the law's
    mean 0 is exactly 1; the mean of N entries is within 5 / sqrt(N) of 0,
    in every column and overall."""
    block = noise_block(0, 0, 20000, 4)
    assert block.dtype == np.float64 and block.shape == (20000, 4)
    assert np.all(np.abs(block) == 1.0)
    assert np.mean(block * block) == 1.0
    assert abs(block.mean()) < 5.0 / math.sqrt(block.size)
    assert np.all(np.abs(block.mean(axis=0)) < 5.0 / math.sqrt(block.shape[0]))


def _loss_channels(count):
    return tuple(LossChannel((k % 3 + 1, 0), 0.01 * (k + 1)) for k in range(count))


def test_field_noise_scaling():
    """The Wigner loss noise sqrt(kappa) zeta has <|.|^2> = kappa / dt; no
    channel means no noise."""
    channels = _loss_channels(2)
    dt = 0.01
    z = step_noise(WignerModel(channels=channels, seed=1), 0, 50000, dt)
    rates = np.array([ch.rate for ch in channels])
    assert np.mean(np.abs(z) ** 2, axis=0) == pytest.approx(rates / dt, rel=0.03)
    assert WignerModel(seed=1).noise_columns == 0
    assert step_noise(WignerModel(seed=1), 0, 50000, dt) is None


@pytest.mark.parametrize("seed", range(20))
def test_field_noise_equals_the_quadrature_sum_byte_for_byte(seed):
    """Scaling the model's step noise in place, read as complex, gives every
    bit of the explicit (re + 1j * im) * sqrt(kappa) / sqrt(2 dt) pairing."""
    channels = _loss_channels(seed % 4 + 1)
    dt = 0.01 * (seed + 1)
    raw = noise_block(seed, seed + 1, 300, 2 * len(channels))
    scale = np.sqrt([ch.rate for ch in channels]) / math.sqrt(2.0 * dt)
    explicit = (raw[:, 0::2] + 1j * raw[:, 1::2]) * scale
    zeta = step_noise(WignerModel(channels=channels, seed=seed), seed + 1, 300, dt)
    assert zeta.tobytes() == explicit.tobytes()


# ---------------------------------------------------------------------------
# step-noise laws: two-point against the Gaussian reference
# ---------------------------------------------------------------------------


def _under_both_laws(monkeypatch, run):
    """`run()` with the two-point step noise, then with the Gaussian
    reference law in its place, where `evolve` draws the step noise of
    both engines."""
    two_point = run()
    monkeypatch.setattr("qphase.stochastic.noise_block", gaussian_noise_block)
    return two_point, run()


def _assert_laws_agree(estimates, exact):
    """Each law's (mean, bar) within 4 bars of `exact`, and the two laws
    within 4 combined bars of each other, at every time."""
    (mean_a, bar_a), (mean_b, bar_b) = estimates
    for mean, bar in estimates:
        assert np.all(np.abs(mean - exact) <= 4.0 * bar), (mean - exact) / bar
    combined = np.hypot(bar_a, bar_b)
    assert np.all(np.abs(mean_a - mean_b) <= 4.0 * combined), (mean_a - mean_b) / combined


@pytest.mark.parametrize("dt, points", [(0.0025, 21), (0.01, 11)], ids=["dt", "4dt"])
def test_step_noise_laws_agree_on_forward_plusp(monkeypatch, dt, points):
    """Forward +P Kerr <X> at acceptance criterion 2's inputs, and at four
    times its dt (every other time, so each lies on the grid), under both
    laws against the closed-form Kerr mean."""
    alpha0, chi, times = 10.0, 0.01, np.linspace(0.0, 0.5, points)
    results = _under_both_laws(
        monkeypatch, lambda: run_kerr_plusp({"kind": "coherent", "alpha": [alpha0]}, chi, times, 4000, 42, dt)
    )
    assert [r.diverged for r in results] == [0, 0]
    exact = np.array([kerr_oracle([alpha0], [[chi]], t)["a"][0].real for t in times])
    _assert_laws_agree([(r.mean("X").real, r.error("X")) for r in results], exact)


def test_step_noise_laws_agree_on_one_body_wigner_loss(monkeypatch):
    """One-body lossy truncated Wigner at acceptance criterion 6's loss
    inputs: <n> = n_w - 1/2 under both laws against n0 exp(-2 kappa t)."""
    alpha0, kappa, times = 2.0, 0.3, np.linspace(0.0, 1.0, 6)
    results = _under_both_laws(
        monkeypatch,
        lambda: run_wigner_x([alpha0], None, times, 5000, 12, 0.005, channels=[LossChannel((1,), kappa)]),
    )
    assert [r.diverged for r in results] == [0, 0]
    exact = alpha0**2 * np.exp(-2.0 * kappa * times)
    _assert_laws_agree([(r.mean("n_w").real - 0.5, r.error("n_w")) for r in results], exact)


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


def test_accumulator_bar_survives_a_mean_large_against_the_spread():
    """Mean 1e3 and spread 1e-6: the centred two-pass sum gives the sample
    bar to 1e-6, where the one-pass E|y|^2 - |E y|^2 loses it to rounding."""
    rng = np.random.default_rng(1)
    for vals in (1e3 + 1e-6 * rng.standard_normal(1000), (1e3 + 1e-6 * rng.standard_normal((1000, 2))) @ [1, 1j]):
        expected = vals.std(ddof=1) / math.sqrt(vals.size)
        acc = MomentAccumulator()
        acc.add(vals)
        assert acc.error == pytest.approx(expected, rel=1e-6)
        one_pass = max(np.mean(np.abs(vals) ** 2) - abs(vals.mean()) ** 2, 0.0) * vals.size / (vals.size - 1)
        assert not math.sqrt(one_pass / vals.size) == pytest.approx(expected, rel=0.1)


def test_accumulator_merges_batches_like_one_pass_over_all():
    """Batches added one by one give the mean and bar of all the values at once."""
    vals = np.random.default_rng(2).standard_normal(1000) * (1 + 1j) + 5.0
    whole, parts = MomentAccumulator(), MomentAccumulator()
    whole.add(vals)
    for chunk in np.split(vals, [10, 11, 400]):
        parts.add(chunk)
    assert parts.count == whole.count
    assert parts.mean == pytest.approx(whole.mean, rel=1e-14)
    assert parts.error == pytest.approx(whole.error, rel=1e-12)


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
    for dt in (-1.0, 0.0):
        with pytest.raises(ValueError, match="dt must be positive"):
            next(evolve(np.ones((2, 1)), Linear(1.0), dt, 1, record=range(2)))
        with pytest.raises(ValueError, match="dt must be positive"):
            run_ensemble(
                lambda s, n: np.ones((n, 1)), Linear(1.0), {}, 4, np.array([0.0, 1.0]), dt, 0, pair_centre=1.0
            )


def test_midpoint_step_second_order_on_rotation():
    """One midpoint step of dy/dt = -i y: the fixed point iteration gives
    mid = sum_{j <= MIDPOINT_ITERS} (-i dt/2)^j, and the step is exact
    through O(dt^2)."""
    dt = 1e-2
    y = np.array([1.0 + 0.0j])
    out = step(y.copy(), lambda s, d: np.multiply(-1j, s, out=d), dt, np.empty_like(y), np.empty_like(y))
    closed = 2.0 * sum((-0.5j * dt) ** j for j in range(MIDPOINT_ITERS + 1)) - 1.0
    assert out[0] == pytest.approx(closed, rel=1e-14)
    assert abs(out[0] - math.cos(dt) - 1j * -math.sin(dt)) < dt**3


def test_run_ensemble_exponential_decay():
    times = np.linspace(0.0, 1.0, 5)
    result = run_ensemble(
        sampler=lambda seed, n: np.ones((n, 1), dtype=complex),
        model=Linear(-1.0),
        observables={"y": lambda s: s[:, 0]},
        trajectory_count=4,
        times=times,
        dt=0.01,
        seed=0,
        pair_centre=1.0,
    )
    assert np.allclose(result.mean("y").real, np.exp(-times), atol=1e-4)
    assert result.diverged == 0


def test_run_ensemble_masks_divergent_trajectories():
    def sampler(seed, n):
        init = np.ones((n, 1), dtype=complex)
        # this trajectory blows through the ceiling (369 e > 1e3); its
        # mirror about 1, 2 - 369, stays under it (367 e < 1e3)
        init[0] = 369.0
        return init

    result = run_ensemble(
        sampler=sampler,
        model=Linear(1.0),  # exponential growth
        observables={"y": lambda s: s[:, 0]},
        trajectory_count=8,
        times=np.linspace(0.0, 1.0, 3),
        dt=0.05,
        seed=0,
        divergence_ceiling=1e3,
        pair_centre=1.0,
    )
    assert result.diverged == 1
    assert result.unreliable  # 1/8 > 1%
    # survivors still follow e^t
    assert result.mean("y")[-1].real == pytest.approx(math.e, rel=1e-3)


def test_run_ensemble_counts_divergence_by_measurement_time():
    """diverged_count holds the trajectories dead by each measurement time,
    not the final total repeated."""

    def sampler(seed, n):
        init = np.ones((n, 1), dtype=complex)
        init[0] = 500.0  # crosses 1e3 at t = ln 2, between t = 0.5 and 1
        return init

    # about 100 the mirrors are -300 and 199, which stay under 1e3 up to t = 1
    result = run_ensemble(
        sampler=sampler,
        model=Linear(1.0),
        observables={"y": lambda s: s[:, 0]},
        trajectory_count=8,
        times=np.array([0.0, 0.5, 1.0]),
        dt=0.05,
        seed=0,
        divergence_ceiling=1e3,
        pair_centre=100.0,
    )
    assert result.diverged_count.tolist() == [0, 0, 1]
    assert result.diverged == 1


class ZeroDrift:
    noise_columns = 0

    def derivative(self, state, step_index, noise, out):
        out.fill(0.0)
        return out


@pytest.mark.parametrize("ceiling", [1e3, np.inf])
def test_divergence_mask_edge_rows(ceiling):
    """One comparison |y| <= ceiling kills the same rows as the per-row
    test: non-finite, or largest modulus above the ceiling."""
    # the step maps inf to NaN (2 inf - inf); 1.5e308 overflows to inf in it
    rows = [np.nan, np.inf, complex(1, np.inf), 1.5e308, 1 + 1.5e308j,
            ceiling, np.nextafter(ceiling, np.inf), 2.0]
    state = np.array([[v, 1.0] for v in rows], dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        stepped = allocating_step(state, np.zeros_like, 0.01)
        expected_dead = ~np.isfinite(stepped).all(1) | (np.abs(stepped).max(1) > ceiling)
        _, (_, _, alive) = evolve(state, ZeroDrift(), 0.01, 1, divergence_ceiling=ceiling, record=[0, 1])
    assert np.isposinf(stepped[3, 0].real) and np.isposinf(stepped[4, 0].imag)
    assert np.array_equal(~alive, expected_dead)
    # a row exactly at a finite ceiling lives; at an infinite one it is inf
    assert expected_dead.tolist() == [True] * 5 + [math.isinf(ceiling), True, False]

    clean = np.array([[2.0, 1.0], [1e2, -3j]])
    [(_, _, alive)] = evolve(clean, ZeroDrift(), 0.01, 5, divergence_ceiling=ceiling, record=[5])
    assert alive.all()


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("ceiling", [1e3, 1.0, np.inf])
def test_prefiltered_mask_equals_the_exact_mask(ceiling, order):
    """Skipping the |y| <= ceiling test when every real and imaginary part
    is within 0.7 ceiling kills the same rows as the exact test, at and
    just past that share and at the ceiling itself."""
    big = min(ceiling, np.finfo(float).max)
    safe = 0.7 * big
    rows = [np.nan, np.inf, -np.inf, complex(0, np.nan), big, -big, 1j * big, -1j * big,
            safe * (1 + 1j), -safe * (1 + 1j), safe * (1 - 1j),
            np.nextafter(safe, np.inf) * (1 + 1j), 0.71 * big * (1 + 1j), 0.0, 2.0]
    for picked in [[v] for v in rows] + [rows]:
        state = np.array([[v, 1.0] for v in picked] + [[0.5, -0.5j]], dtype=complex, order=order)
        with np.errstate(over="ignore", invalid="ignore"):
            stepped = allocating_step(state, np.zeros_like, 0.01)
            exact = (np.abs(stepped) <= big).all(axis=1)
            _, (_, _, alive) = evolve(state, ZeroDrift(), 0.01, 1, divergence_ceiling=ceiling, record=[0, 1])
        assert np.array_equal(alive, exact), picked


def _multimode_plusp():
    model = KerrPlusP(chi=0.05, modes=3, seed=3, reverse_step=2)
    return model, sample_canonical({"kind": "thermal", "nbar": [0.5, 1.0, 2.0]}, 3, 64)


def _lossy_wigner():
    channels = (LossChannel((1, 0), 0.05), LossChannel((0, 1), 0.05),
                LossChannel((2, 0), 0.002), LossChannel((1, 1), 0.002))
    chi = np.array([[0.01, 0.005], [0.005, 0.01]])
    model = WignerModel(chi=chi, channels=channels, seed=5)
    return model, sample_wigner_coherent([3.0, 3.0], 5, 64)


@pytest.mark.parametrize("case", [_multimode_plusp, _lossy_wigner])
def test_in_place_step_matches_the_allocating_reference(case):
    """The in-place step on the sampler's layout gives every bit of the
    allocating step on a row-major copy, step after step, with the
    model's drift written into the work buffer."""
    model, initial = case()
    dt, n = 0.01, initial.shape[0]
    state, ref = initial.copy(order="K"), np.ascontiguousarray(initial)
    mid, slope = np.empty_like(state), np.empty_like(state)
    for k in range(4):
        noise = step_noise(model, k, n, dt)
        step(state, lambda y, out: model.derivative(y, k, noise, out), dt, mid, slope)
        ref = allocating_step(ref, lambda y: model.derivative(y, k, noise, np.empty_like(y)), dt)
        assert np.ascontiguousarray(state).tobytes() == ref.tobytes()


def test_run_ensemble_does_not_depend_on_the_initial_layout():
    """C- and Fortran-order initial states holding the same values give
    byte-identical statistics, divergences included."""
    model, initial = _multimode_plusp()
    model.chi = 2.0  # strong enough that some trajectories diverge
    observables = {"a0": lambda s: s[:, 0], "n1": lambda s: s[:, 1] * s[:, 4]}
    results = [
        run_ensemble(lambda seed, n, layout=layout: layout(initial[:n]), model, observables,
                     initial.shape[0], np.linspace(0.0, 0.4, 5), 0.02, 0, divergence_ceiling=50.0,
                     pair_centre=0.0)
        for layout in (np.ascontiguousarray, np.asfortranarray)
    ]
    c_run, f_run = results
    assert c_run.diverged_count.tolist() == f_run.diverged_count.tolist()
    assert c_run.diverged > 0
    for name in observables:
        for field in ("mean", "error"):
            assert c_run.observables[name][field].tobytes() == f_run.observables[name][field].tobytes()


def test_dead_rows_stay_zero_under_additive_noise():
    """A row that dies at step 1 reads zero at every later step, although
    a one-body loss channel's additive noise moves a zeroed row within a
    step; the live rows equal those of a run in which that row lives."""
    model = WignerModel(channels=(LossChannel((1,), 0.5),), seed=3)
    fields = sample_wigner_coherent([2.0], 1, 6)
    wild = fields.copy()
    wild[2] = 1e7  # beyond the default ceiling after one step
    ref = {k: s for k, s, _ in evolve(fields, model, 0.01, 6, record=range(7))}
    for k, state, alive in evolve(wild, model, 0.01, 6, record=range(7)):
        if k > 0:
            assert alive.tolist() == [True, True, False, True, True, True]
            assert np.all(state[2] == 0)
            assert state[alive].tobytes() == ref[k][alive].tobytes()


def test_evolve_keeps_yielded_states_intact():
    """A state yielded at step k is not overwritten by later steps."""
    kept = []
    for k, state, _ in evolve(np.ones((3, 2), dtype=complex), Linear(-1.0), 0.1, 5, record=range(6)):
        kept.append((state, state.copy()))
    for state, copy in kept:
        assert np.array_equal(state, copy)
    assert not np.array_equal(kept[1][0], kept[-1][0])


def _peak_bytes_of_second_call(call):
    """Bytes tracemalloc sees allocated at the peak of `call()`, run once
    untraced first so that per-run scratch already exists."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _drift_cases(n):
    rng = np.random.default_rng(4)
    chi = np.array([[0.01, 0.005], [0.005, 0.01]])
    channels = (LossChannel((1, 0), 0.05), LossChannel((0, 1), 0.05),
                LossChannel((2, 0), 0.002), LossChannel((1, 1), 0.002))
    fields = sample_wigner_coherent([3.0, 3.0], 4, n)
    plusp = KerrPlusP(chi=0.05, modes=2, seed=4, reverse_step=1)
    packed = sample_canonical({"kind": "coherent", "alpha": [2.0, 1.0]}, 4, n)
    return {
        "lossy wigner": (WignerModel(chi=chi, channels=channels, seed=4), fields),
        "lossless wigner": (WignerModel(chi=chi), fields),
        "plusp": (plusp, np.asfortranarray(packed + 0.1 * rng.standard_normal(packed.shape))),
    }


@pytest.mark.parametrize("case", ["lossy wigner", "lossless wigner", "plusp"])
def test_drift_allocates_less_than_one_state_column(case):
    """After one warm-up call a model's drift writes in place, through its
    per-run scratch where it keeps one: one call at n = 4096 allocates less
    than one complex state column."""
    n = 4096
    model, state = _drift_cases(n)[case]
    noise, out = step_noise(model, 1, n, 0.01), np.empty_like(state)
    assert _peak_bytes_of_second_call(lambda: model.derivative(state, 1, noise, out)) < n * 16


def test_plusp_evolve_steps_a_row_major_state_in_its_own_layout():
    """evolve copies a C-order +P state into the model's column-contiguous
    layout: no drift call of a (4096, 2) run allocates a state-sized
    buffer, and every yielded state equals the Fortran-order run's bit for
    bit.  Step 0 still yields the caller's array."""
    n, dt, steps, grown = 4096, 0.01, 5, []

    class Probe(KerrPlusP):
        def derivative(self, state, step_index, noise, out):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            super().derivative(state, step_index, noise, out)
            grown.append(tracemalloc.get_traced_memory()[1] - base)
            return out

    model = Probe(chi=0.05, seed=4)
    packed = sample_canonical({"kind": "coherent", "alpha": [2.0]}, 4, n)
    row_major = np.ascontiguousarray(packed)
    column_major = list(evolve(packed, model, dt, steps, record=range(steps + 1)))
    grown.clear()
    tracemalloc.start()
    try:
        runs = list(evolve(row_major, model, dt, steps, record=range(steps + 1)))
    finally:
        tracemalloc.stop()
    assert runs[0][1] is row_major
    assert len(grown) == steps * MIDPOINT_ITERS
    assert max(grown) < n * 16  # one complex column; the state holds two
    for (k, state, alive), (k_f, state_f, alive_f) in zip(runs, column_major):
        assert k == k_f and np.array_equal(alive, alive_f)
        assert state.tobytes() == state_f.tobytes()
        assert k == 0 or state.flags.f_contiguous


def test_run_ensemble_copies_no_state_between_measurements(monkeypatch):
    """With measurement times 0 and 20 dt, no state copy made at one step
    is still held when the next step starts: the memory in use at every
    step's first drift call equals that at step 0.  One process steps the
    run, whose whole state tracemalloc sees."""
    monkeypatch.setattr(stochastic, "_cpu_count", lambda: 1)
    n, dt, in_use = 4096, 0.01, []

    class Probe(Linear):
        def derivative(self, state, step_index, noise, out):
            if len(in_use) == step_index:  # the step's first call
                in_use.append(tracemalloc.get_traced_memory()[0])
            return super().derivative(state, step_index, noise, out)

    initial = np.ones((n // 2, 2), dtype=complex)
    tracemalloc.start()
    try:
        run_ensemble(lambda seed, n_traj: initial, Probe(-1.0), {"y": lambda s: s[:, 0]}, n,
                     np.array([0.0, 20 * dt]), dt, 0, pair_centre=1.0)
    finally:
        tracemalloc.stop()
    assert len(in_use) == 20
    assert max(in_use) - min(in_use) < n * 16


def test_stepped_run_ensemble_holds_neither_the_initial_state_nor_a_record(monkeypatch):
    """A stepped run reads its initial state only at step 0 and each
    record only while it measures it.  While it steps it holds no
    state-sized array beyond evolve's own three (the stepped copy, the
    midpoint and the drift buffer): keeping a state-sized array that the
    sampler's half rows view alive from outside raises the memory in use
    at every later draw by one state, and without that the peak stays
    under 3.5 states.  One process steps the run, whose whole state
    tracemalloc sees."""
    monkeypatch.setattr(stochastic, "_cpu_count", lambda: 1)
    n, dt = 4096, 0.01
    size = n * 2 * 16

    def in_use_while_stepping(keep):
        in_use, kept = [], []

        class Probe(Linear):
            def derivative(self, state, step_index, noise, out):
                if len(in_use) == step_index:  # the step's first call
                    in_use.append(tracemalloc.get_traced_memory()[0])
                return super().derivative(state, step_index, noise, out)

        def sampler(seed, half):
            kept.append(np.ones((2 * half, 2), dtype=complex))
            return (kept[-1] if keep else kept.pop())[:half]

        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            run_ensemble(sampler, Probe(-1.0), {"y": lambda s: s[:, 0]}, n,
                         np.array([0.0, 10 * dt, 20 * dt]), dt, 0, pair_centre=1.0)
        finally:
            tracemalloc.stop()
        return max(in_use) - base

    released, kept = in_use_while_stepping(False), in_use_while_stepping(True)
    assert kept - released > 0.9 * size
    assert released < 3.5 * size


def test_run_ensemble_draws_noise_once_per_step():
    """Every midpoint iteration of a step sees the one noise object drawn
    for that step."""

    class Counting:
        seed, noise_columns = 0, 1

        def __init__(self):
            self.drawn = []  # (step index, noise) per noise call
            self.seen = []  # (step index, noise) per derivative call

        def noise(self, xi, step_index, dt):
            xi = xi / math.sqrt(dt)
            self.drawn.append((step_index, xi))
            return xi

        def derivative(self, state, step_index, noise, out):
            self.seen.append((step_index, noise))
            return np.add(-state, noise, out=out)

    model = Counting()
    run_ensemble(
        sampler=lambda seed, n: np.ones((n, 1)),
        model=model,
        observables={"y": lambda s: s[:, 0]},
        trajectory_count=4,
        times=np.array([0.0, 0.5]),
        dt=0.1,
        seed=0,
        pair_centre=1.0,
    )
    assert [k for k, _ in model.drawn] == list(range(5))
    assert len(model.seen) == 5 * MIDPOINT_ITERS
    for k, xi in model.drawn:
        calls = [noise for j, noise in model.seen if j == k]
        assert len(calls) == MIDPOINT_ITERS and all(noise is xi for noise in calls)


def test_run_ensemble_validates_schedule():
    dt = 0.01
    with pytest.raises(ValueError):
        run_ensemble(
            lambda s, n: np.ones((n, 1)), Linear(1.0), {}, 4,
            np.array([0.1, 0.2]), dt, 0, pair_centre=1.0,
        )
    with pytest.raises(ValueError):
        run_ensemble(
            lambda s, n: np.ones((n, 1)), Linear(1.0), {}, 4,
            np.array([0.0, 0.015]), dt, 0, pair_centre=1.0,
        )
    with pytest.raises(ValueError):
        run_ensemble(
            lambda s, n: np.ones((n, 1)), Linear(1.0), {}, 1,
            np.array([0.0, 0.01]), dt, 0, pair_centre=1.0,
        )


def test_run_ensemble_records_each_time_at_its_own_step():
    """Two times on one step would be two rows of one state."""
    assert schedule_steps([0.0, 0.1, 0.30000000000000004], 0.1).tolist() == [0, 1, 3]
    with pytest.raises(ValueError, match="steps must increase"):
        run_ensemble(
            lambda s, n: np.ones((n, 1)), Linear(1.0), {}, 4,
            np.array([0.0, 0.01, 0.01]), 0.01, 0, pair_centre=1.0,
        )


def test_run_ensemble_names_the_time_by_which_every_trajectory_died():
    """y grows by about exp(0.3) a step: alive at step 1, beyond 1.5 at step 2."""
    with pytest.raises(RuntimeError, match=r"all 4 trajectories diverged by t = 0\.02"):
        run_ensemble(
            lambda s, n: np.ones((n, 1)), Linear(30.0), {"y": lambda y: y[:, 0]}, 4,
            np.array([0.0, 0.01, 0.02]), 0.01, 0, divergence_ceiling=1.5, pair_centre=1.0,
        )


# ---------------------------------------------------------------------------
# antithetic pairs
# ---------------------------------------------------------------------------


def test_antithetic_reflects_the_draw_about_its_centre():
    """Rows h.. are 2 centre - rows ..h of one array in the draw's layout;
    the first half is the draw itself."""
    half = np.asfortranarray(np.arange(6.0).reshape(3, 2) + 1j)
    rows = antithetic(lambda k: half[:k], 6, np.array([1.0, 2.0j]))
    assert rows.flags.f_contiguous and rows.shape == (6, 2)
    assert np.array_equal(rows[:3], half)
    assert np.array_equal(rows[3:], np.array([2.0, 4.0j]) - half)
    assert np.array_equal(antithetic(lambda k: noise_block(5, 1, k, 3), 8)[4:], -noise_block(5, 1, 4, 3))
    # a paired noise block holds the same bits, across a block boundary too
    for rows, per_traj in ((8, 3), (2 * BLOCK_ROWS + 6, 1)):
        paired = noise_block(5, 1, rows, per_traj, pairs=True)
        assert paired.tobytes() == antithetic(lambda k: noise_block(5, 1, k, per_traj), rows).tobytes()


def test_paired_runs_need_an_even_trajectory_count():
    """An odd count has no pairing and fewer than two pairs no bar: every
    paired entry point refuses them, the +P time reversal too."""
    times = np.array([0.0, 0.02])
    for count in (0, 1, 2, 3, 5):
        with pytest.raises(ValueError, match=f"even trajectory count of at least 4 .*, not {count}"):
            run_ensemble(lambda s, n: np.ones((n, 1)), Linear(-1.0), {}, count, times, 0.01, 0, pair_centre=1.0)
    with pytest.raises(ValueError, match="even trajectory count"):
        run_kerr_plusp({"kind": "coherent", "alpha": [1.0]}, 0.1, times, 7, 0, 0.01)
    with pytest.raises(ValueError, match="even trajectory count"):
        run_wigner_x([1.0], None, times, 7, 0, 0.01, channels=[LossChannel((1,), 0.1)])
    with pytest.raises(ValueError, match="even trajectory count"):
        run_kerr_plusp({"kind": "coherent", "alpha": [1.0]}, 0.1, times, 7, 0, 0.01, reverse_at=0.01)
    reversed_run = run_kerr_plusp({"kind": "coherent", "alpha": [1.0]}, 0.1, times, 8, 0, 0.01, reverse_at=0.01)
    assert reversed_run.trajectories == 8


def test_run_ensemble_has_no_unpaired_path():
    """Every ensemble is antithetic pairs: `pair_centre` has no default,
    and a call without one is refused before anything is sampled."""
    assert inspect.signature(run_ensemble).parameters["pair_centre"].default is inspect.Parameter.empty
    sampled = []
    with pytest.raises(TypeError, match="pair_centre"):
        run_ensemble(lambda s, n: sampled.append(n) or np.ones((n, 1)), Linear(-1.0), {}, 4,
                     np.array([0.0, 0.02]), 0.01, 0)
    assert sampled == []


def test_a_pair_counts_only_while_both_members_live():
    """Trajectory 0 dies; its pair (0, 4) leaves the statistics and the
    divergence counts stay in trajectories."""

    def sampler(seed, n):
        init = np.ones((n, 1), dtype=complex)
        init[0] = 999.0
        return init

    result = run_ensemble(sampler, Linear(1.0), {"y": lambda s: s[:, 0]}, 8, np.array([0.0, 0.5]), 0.05, 0,
                          divergence_ceiling=1e3, pair_centre=1.0)
    # rows 4..7 mirror rows 0..3 about 1: 2 - 999, then 1, 1, 1
    assert result.diverged_count.tolist() == [0, 2]
    assert result.mean("y")[-1].real == pytest.approx(math.exp(0.5), rel=1e-3)
    # about 500, rows 999 mirror to 1: every pair loses its first member
    with pytest.raises(RuntimeError, match=r"every pair of the 4 trajectories lost a member by t = 0\.5"):
        run_ensemble(lambda seed, n: np.full((n, 1), 999.0), Linear(1.0), {"y": lambda s: s[:, 0]}, 4,
                     np.array([0.0, 0.5]), 0.05, 0, divergence_ceiling=1e3, pair_centre=500.0)


def test_a_paired_noise_draw_holds_one_noise_block():
    """A paired `noise_block` draws its h rows straight into the first half
    of the 2h block and negates them into the second: its peak is one
    block and the drawn bits (about 8 % more), where drawing the half
    apart and copying it in held 1.5 blocks."""
    n, per_traj = 4096, 8
    peak = _peak_bytes_of_second_call(lambda: noise_block(3, 1, n, per_traj, pairs=True))
    assert peak < 1.2 * n * per_traj * 8


def test_paired_spread_is_the_sample_sd_of_the_members_of_live_pairs():
    """Paired, `spread` is the sample sd over both members of every live
    pair, and `error` the bar over the pair means; pair (0, 4) dies by
    t = 0.5 and leaves both statistics."""

    def sampler(seed, n):
        init = np.arange(1.0, n + 1, dtype=complex)[:, None]
        init[0] = 999.0
        return init

    states = []

    def capture(s):
        states.append(s[:, 0].copy())
        return s[:, 0]

    result = run_ensemble(sampler, Linear(1.0), {"y": capture}, 8, np.array([0.0, 0.5]), 0.05, 0,
                          divergence_ceiling=1e3, pair_centre=1.0)
    assert result.diverged_count.tolist() == [0, 2]
    for t, (y, live) in enumerate(zip(states, ([True] * 4, [False, True, True, True]))):
        members = np.concatenate([y[:4][live], y[4:][live]])
        pair_means = 0.5 * (y[:4] + y[4:])[live]
        assert result.spread("y")[t] == pytest.approx(np.std(members, ddof=1), rel=1e-12)
        assert result.error("y")[t] == pytest.approx(np.std(pair_means, ddof=1) / math.sqrt(len(pair_means)),
                                                     rel=1e-12)


def _capturing_run(case, n):
    """The states a paired forward run of `case` records, at t = 0 and 0.05."""
    states = []

    def capture(s):
        states.append(s.copy())
        return s[:, 0]

    times, dt, seed = np.array([0.0, 0.05]), 0.01, 3
    if case == "wigner":
        alpha = np.array([1.5, 1.0 + 0.5j])
        channels = (LossChannel((1, 0), 0.1), LossChannel((2, 0), 0.02), LossChannel((1, 1), 0.02))
        model = WignerModel(chi=np.array([[0.1, 0.05], [0.05, 0.1]]), channels=channels, seed=seed)
        run_ensemble(lambda s, k: sample_wigner_coherent(alpha, s, k), model, {"c": capture}, n, times, dt, seed,
                     pair_centre=alpha)
    else:
        state = {"coherent": {"kind": "coherent", "alpha": [2.0, 1.0j]},
                 "thermal": {"kind": "thermal", "nbar": [0.5, 2.0]},
                 "fock": {"kind": "fock", "n": [1, 3]}}[case]
        run_kerr_plusp(state, 0.2, times, n, seed, dt, extra_observables={"c": capture})
    return states


@settings(max_examples=20, deadline=None)
@given(h=st.integers(2, 16), more=st.integers(1, 16),
       case=st.sampled_from(["coherent", "thermal", "fock", "wigner"]))
def test_adding_pairs_keeps_every_existing_pair(h, more, case):
    """Pair k is trajectories k and k + h: at 2h and 2(h + more)
    trajectories both members of each of the first h pairs hold the same
    bits at every recorded time, and so does their pair value."""
    big_h = h + more
    for small, big in zip(_capturing_run(case, 2 * h), _capturing_run(case, 2 * big_h)):
        assert small[:h].tobytes() == big[:h].tobytes()
        assert small[h:].tobytes() == big[big_h:big_h + h].tobytes()
        x_small, x_big = small[:, 0], big[:, 0]
        pair_small = 0.5 * (x_small[:h] + x_small[h:])
        pair_big = 0.5 * (x_big[:big_h] + x_big[big_h:])
        assert pair_small.tobytes() == pair_big[:h].tobytes()


def test_paired_bar_is_calibrated_on_a_small_lossy_wigner_run():
    """Over 40 seeds of a lossy one-mode run (400 trajectories), the spread
    of <X>(0.5) matches the reported pair bar: sd over seeds / rms bar in
    [0.6, 1.5], a window about 4 standard errors of a 40-seed sd wide."""
    estimates, bars = [], []
    for seed in range(40):
        result = run_wigner_x([2.0], [[0.05]], np.array([0.0, 0.5]), 400, seed, 0.01,
                              channels=[LossChannel((1,), 0.3), LossChannel((2,), 0.05)])
        estimates.append(result.mean("X")[-1].real)
        bars.append(result.error("X")[-1])
    ratio = np.std(estimates, ddof=1) / math.sqrt(np.mean(np.square(bars)))
    assert 0.6 <= ratio <= 1.5, ratio


# ---------------------------------------------------------------------------
# shards
# ---------------------------------------------------------------------------


def _forced_shards(monkeypatch, cpus, min_work=1, block_rows=None):
    """Let a stepped run take up to `cpus` shards of at least `min_work`
    rows x steps, whatever this machine has, and optionally shrink
    BLOCK_ROWS."""
    monkeypatch.setattr(stochastic, "_cpu_count", lambda: cpus)
    monkeypatch.setattr(stochastic, "MIN_SHARD_WORK", min_work)
    if block_rows is not None:
        monkeypatch.setattr(stochastic, "BLOCK_ROWS", block_rows)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@settings(max_examples=30, deadline=None)
@given(rows=st.integers(1, 40), first=st.integers(0, 40), per_traj=st.integers(1, 5),
       block_rows=st.sampled_from([4, 5, 8, 13]), pairs=st.booleans())
def test_noise_block_from_a_first_row_is_that_slice_of_the_whole_block(rows, first, per_traj, block_rows, pairs):
    """A shard's noise, drawn from stream row `first` on, holds the bits of
    those rows of the whole block, across block boundaries and from inside
    a byte; paired, the first half is those rows and the second their
    negation."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stochastic, "BLOCK_ROWS", block_rows)
        whole = noise_block(9, 2, first + rows, per_traj)[first:]
        part = noise_block(9, 2, 2 * rows if pairs else rows, per_traj, pairs=pairs, first=first)
    assert part[:rows].tobytes() == whole.tobytes()
    if pairs:
        assert part[rows:].tobytes() == (-whole).tobytes()


_SHARD_CASES = ("plusp-reverse", "lossy wigner", "snapshots")


def _shard_case_records(case, n, ceiling):
    """(step, state bytes, alive bytes) of every record of a run of `case`,
    and whether it ran as antithetic pairs."""
    dt, steps = 0.01, 6
    if case == "plusp-reverse":
        model = KerrPlusP(chi=0.3, seed=5, reverse_step=3)
        initial = antithetic(lambda k: sample_canonical({"kind": "coherent", "alpha": [2.0]}, 5, k), n,
                             np.array([2.0, 2.0]))
        pairs = True
    else:
        alpha = np.array([1.5, 1.0 + 0.5j])
        channels = (LossChannel((1, 0), 0.2), LossChannel((2, 0), 0.05), LossChannel((1, 1), 0.05))
        model = WignerModel(chi=np.array([[0.3, 0.1], [0.1, 0.3]]), channels=channels, seed=5)
        pairs = case == "lossy wigner"
        initial = (antithetic(lambda k: sample_wigner_coherent(alpha, 5, k), n, alpha) if pairs
                   else sample_wigner_coherent(alpha, 5, n))
    records = [(k, s.tobytes(), a.tobytes())
               for k, s, a in evolve(initial, model, dt, steps, ceiling, record=[0, 2, 5, 6], pairs=pairs)]
    return records, pairs


@settings(max_examples=30, deadline=None)
@given(case=st.sampled_from(_SHARD_CASES), units=st.integers(2, 30), cpus=st.integers(2, 4),
       block_rows=st.sampled_from([3, 8, 2**16]), ceiling=st.sampled_from([1e6, 2.2]))
def test_a_sharded_run_equals_the_serial_run_bit_for_bit(case, units, cpus, block_rows, ceiling):
    """Paired +P with a reversal, paired lossy two-component Wigner and
    unpaired snapshots record the same bits, alive flags included, from
    one process and from up to `cpus` forked shards of unequal size, with
    shards that start inside or cross a BLOCK_ROWS block, and with a
    ceiling low enough that trajectories die."""
    n = 2 * units
    with pytest.MonkeyPatch.context() as mp:
        _forced_shards(mp, 1, block_rows=block_rows)
        serial, pairs = _shard_case_records(case, n, ceiling)
        _forced_shards(mp, cpus, block_rows=block_rows)
        assert len(stochastic._shard_rows(n, 6, pairs)) == min(cpus, n // 2 if pairs else n)
        sharded, _ = _shard_case_records(case, n, ceiling)
    assert sharded == serial
    _assert_no_child_left()


class BlockCheck:
    """Zero drift that checks the block `evolve` hands its `noise`: column 0
    of the state holds each row's index in the whole run, so a shard's
    rows can be matched with their rows of the run's `noise_block`.  A
    mismatch raises, in a shard process too (its parent re-raises it)."""

    seed = 7

    def __init__(self, columns, n_traj, pairs):
        self.noise_columns, self.n_traj, self.pairs = columns, n_traj, pairs
        self.calls = []  # (step index, block rows) per noise call in this process

    def noise(self, xi, step_index, dt):
        self.calls.append((step_index, len(xi)))
        return (step_index, xi)

    def derivative(self, state, step_index, noise, out):
        if not self.noise_columns:
            assert noise is None
        else:
            drawn_at, xi = noise
            assert drawn_at == step_index
            rows = state[:, 0].real.astype(int)
            whole = noise_block(self.seed, step_index, self.n_traj, self.noise_columns, pairs=self.pairs)
            assert xi.shape == (len(state), self.noise_columns), xi.shape
            assert xi.tobytes() == whole[rows].tobytes(), f"rows {rows.min()}.. at step {step_index}"
        out.fill(0.0)
        return out


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("pairs", [True, False], ids=["paired", "unpaired"])
@pytest.mark.parametrize("columns", [0, 1, 3])
def test_evolve_hands_each_noise_call_its_rows_of_the_step_block(monkeypatch, columns, pairs, cpus):
    """Each stepped `noise` call of a model with k noise columns gets a
    (rows, k) block holding the bits of that shard's rows of the step's
    `noise_block` of the whole run (as antithetic pairs when paired), in
    one process and from forced shards.  With 0 columns nothing is drawn,
    `noise` is never called and the drift gets None.  The parent steps
    shard 0 and calls `noise` once per step."""
    n, steps = 14, 4
    _forced_shards(monkeypatch, cpus, block_rows=5)
    shards = stochastic._shard_rows(n, steps, pairs)
    assert len(shards) == cpus
    model = BlockCheck(columns, n, pairs)
    initial = np.zeros((n, 1), dtype=complex)
    initial[:, 0] = np.arange(n)
    [(_, final, alive)] = evolve(initial, model, 0.01, steps, record=[steps], pairs=pairs)
    assert alive.all() and final.tobytes() == initial.tobytes()
    shard_rows = sum(s.stop - s.start for s in shards[0])
    assert model.calls == ([(k, shard_rows) for k in range(steps)] if columns else [])
    _assert_no_child_left()


def test_sharded_runs_match_where_trajectories_die(monkeypatch):
    """The low ceiling of the bit-for-bit test kills some trajectories
    and leaves others: the dead rows are masked and zeroed alike in
    every shard."""
    _forced_shards(monkeypatch, 3)
    for case in _SHARD_CASES:
        records, _ = _shard_case_records(case, 40, 2.2)
        alive = np.frombuffer(records[-1][2], dtype=bool)
        assert 0 < alive.sum() < alive.size, case
        _forced_shards(monkeypatch, 1)
        assert _shard_case_records(case, 40, 2.2)[0] == records
        _forced_shards(monkeypatch, 3)


def test_a_sharded_ensemble_reports_its_shards_and_leaves_no_process(monkeypatch):
    """A paired run reports the shards that stepped it, 1 in one process,
    with the same bits either way, and reaps every shard it forked."""
    times = np.linspace(0.0, 0.1, 6)

    def run():
        return run_kerr_plusp({"kind": "coherent", "alpha": [2.0]}, 0.2, times, 24, 3, 0.01, reverse_at=0.05)

    _forced_shards(monkeypatch, 1)
    serial = run()
    _forced_shards(monkeypatch, 3)
    sharded = run()
    assert (serial.shards, sharded.shards) == (1, 3)
    for field in ("mean", "error", "spread"):
        assert sharded.observables["X"][field].tobytes() == serial.observables["X"][field].tobytes()
    _assert_no_child_left()


def _failing_fork(monkeypatch, fail_at):
    """Make the `fail_at`-th `os.fork` call of this process raise EAGAIN,
    as a fork does when no process id is left; the others fork."""
    fork, calls = os.fork, []

    def failing():
        calls.append(None)
        if len(calls) == fail_at:
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return fork()

    monkeypatch.setattr(os, "fork", failing)
    return calls


@pytest.mark.parametrize("fail_at", [1, 2], ids=["first-fork", "second-fork"])
def test_a_run_whose_fork_fails_steps_in_one_process(monkeypatch, fail_at):
    """A fork that fails, the first or the second of 3 forced shards,
    falls back to one process: the bits are those of an unforked run, the
    result reports 1 shard, the shard already forked is reaped and no
    pipe end is left open."""
    times = np.linspace(0.0, 0.1, 6)

    def run():
        return run_kerr_plusp({"kind": "coherent", "alpha": [2.0]}, 0.2, times, 24, 3, 0.01, reverse_at=0.05)

    _forced_shards(monkeypatch, 3)
    sharded = run()
    fds = sorted(os.listdir("/proc/self/fd"))
    calls = _failing_fork(monkeypatch, fail_at)
    fallen_back = run()
    assert len(calls) == fail_at
    assert (sharded.shards, fallen_back.shards) == (3, 1)
    for field in ("mean", "error", "spread"):
        assert fallen_back.observables["X"][field].tobytes() == sharded.observables["X"][field].tobytes()
    assert sorted(os.listdir("/proc/self/fd")) == fds
    _assert_no_child_left()


def test_a_run_reports_how_it_was_integrated_and_its_step_noise():
    """`EnsembleResult` reads `evolve`'s own account of the run: +P and
    lossy Wigner runs step the midpoint scheme and draw two-point noise; a
    lossless Wigner run is an exact flow and draws none, and so does a
    stepped model with no noise columns."""
    times = [0.0, 0.05, 0.1]
    plusp = run_kerr_plusp({"kind": "coherent", "alpha": [2.0]}, 0.2, times, 20, 3, 0.01)
    lossy = run_wigner_x([2.0], [[0.01]], times, 20, 3, 0.01, channels=[LossChannel((1,), 0.1)])
    lossless = run_wigner_x([2.0], [[0.01]], times, 20, 3, 0.01)
    linear = run_ensemble(lambda s, n: np.ones((n, 1)), Linear(-1.0), {"y": lambda s: s[:, 0]}, 8, times,
                          0.01, 0, pair_centre=1.0)
    got = [(r.integrator, r.step_noise, r.shards) for r in (plusp, lossy, lossless, linear)]
    assert got == [("midpoint", "two-point", 1), ("midpoint", "two-point", 1), ("exact_flow", None, 1),
                   ("midpoint", None, 1)]


@pytest.mark.parametrize("channels", [(), (LossChannel((1,), 0.1),)], ids=["lossless", "lossy"])
def test_a_wigner_run_asks_its_model_for_a_flow_once(monkeypatch, channels):
    """`evolve` is the one place that asks a model for its exact flow:
    once per `run_wigner_x` run, whether it gives rates or not."""
    calls = []

    class Counting(WignerModel):
        def flow(self, fields):
            calls.append(fields.shape)
            return super().flow(fields)

    monkeypatch.setattr(qphase.wigner, "WignerModel", Counting)
    result = run_wigner_x([2.0], [[0.01]], [0.0, 0.05, 0.1], 20, 3, 0.01, channels=channels)
    assert calls == [(20, 1)]
    assert result.integrator == ("midpoint" if channels else "exact_flow")


def test_a_sharded_run_whose_pairs_all_die_leaves_no_process(monkeypatch):
    """run_ensemble stops at the record by which every trajectory died and
    stops and reaps the shards still stepping, before the error reaches
    the caller."""
    _forced_shards(monkeypatch, 2)
    with pytest.raises(RuntimeError, match="all 8 trajectories diverged by t = 0.2"):
        run_ensemble(lambda s, n: np.ones((n, 1)), Linear(40.0), {"y": lambda s: s[:, 0]}, 8,
                     np.linspace(0.0, 1.0, 11), 0.01, 0, divergence_ceiling=1e3, pair_centre=1.0)
    _assert_no_child_left()


class ShardFailure(Exception):
    pass


def test_a_failing_shard_raises_its_exception_in_the_parent(monkeypatch):
    """A shard process that raises hands its exception to the parent,
    which raises it with the shard's type and message at the next record
    and reaps every shard.  A shard process is any but the test's own."""
    parent = os.getpid()

    class Failing(Linear):
        def derivative(self, state, step_index, noise, out):
            if os.getpid() != parent and step_index == 3:
                raise ShardFailure(f"no drift in a shard process at step {step_index}")
            return super().derivative(state, step_index, noise, out)

    _forced_shards(monkeypatch, 3)
    with pytest.raises(ShardFailure) as failure:
        run_ensemble(lambda s, n: np.ones((n, 1)), Failing(-1.0), {"y": lambda s: s[:, 0]}, 12,
                     np.linspace(0.0, 0.1, 11), 0.01, 0, pair_centre=1.0)
    assert str(failure.value) == "no drift in a shard process at step 3"
    _assert_no_child_left()


def _run_failing_shards(monkeypatch, fail):
    """A paired 12-trajectory run over 10 recorded steps in 3 forced
    shards, whose shard processes call `fail(step_index)` in their drift;
    returns the exception it raises, the pids it forked, and whether the
    run left this process's open file descriptors as they were."""
    parent = os.getpid()

    class Failing(Linear):
        def derivative(self, state, step_index, noise, out):
            if os.getpid() != parent:
                fail(step_index)
            return super().derivative(state, step_index, noise, out)

    _forced_shards(monkeypatch, 3)
    fork, pids = os.fork, []

    def reporting_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", reporting_fork)
    fds = sorted(os.listdir("/proc/self/fd"))
    with pytest.raises(Exception) as failure:
        run_ensemble(lambda s, n: np.ones((n, 1)), Failing(-1.0), {"y": lambda s: s[:, 0]}, 12,
                     np.linspace(0.0, 0.1, 11), 0.01, 0, pair_centre=1.0)
    return failure.value, pids, sorted(os.listdir("/proc/self/fd")) == fds


def test_a_shard_exception_that_cannot_be_pickled_reaches_the_parent_as_its_text(monkeypatch):
    """A shard process whose exception cannot be pickled (an instance of a
    class local to the test) hands the parent a RuntimeError of its type
    name and message; every shard is reaped and no pipe end is left open."""

    class Local(Exception):
        pass

    def fail(step_index):
        if step_index == 3:
            raise Local(f"no drift in a shard process at step {step_index}")

    error, pids, fds_kept = _run_failing_shards(monkeypatch, fail)
    assert (type(error), str(error)) == (RuntimeError, "Local: no drift in a shard process at step 3")
    assert len(pids) == 2 and fds_kept
    _assert_no_child_left()


def test_a_shard_that_ends_without_its_record_fails_the_run(monkeypatch):
    """A shard process that exits at step 3 without handing over its record
    fails the run with a RuntimeError that names the first such shard's
    pid; every shard is reaped and no pipe end is left open."""

    def fail(step_index):
        if step_index == 3:
            os._exit(0)

    error, pids, fds_kept = _run_failing_shards(monkeypatch, fail)
    assert len(pids) == 2 and fds_kept
    assert (type(error), str(error)) == (RuntimeError, f"the shard process {pids[0]} ended without its record")
    _assert_no_child_left()


def test_one_cpu_or_a_small_run_steps_in_one_process(monkeypatch):
    """No fork where one CPU is allowed, where a shard would get less than
    MIN_SHARD_WORK rows x steps, or where another thread is alive.  Many
    rows over few steps count as little work: 8,192 +P rows at 20 steps
    ran slower in two shards than in one process."""
    import threading

    floor = stochastic.MIN_SHARD_WORK
    _forced_shards(monkeypatch, 1)
    assert len(stochastic._shard_rows(10**6, 100, True)) == 1
    _forced_shards(monkeypatch, 4, min_work=floor)
    assert len(stochastic._shard_rows(8192, 20, True)) == 1
    assert len(stochastic._shard_rows(8192, 200, True)) == 4
    assert len(stochastic._shard_rows(4000, 100, False)) == 1
    assert len(stochastic._shard_rows(2 * floor // 100 - 2, 100, True)) == 1
    assert len(stochastic._shard_rows(3 * floor // 100, 100, False)) == 3
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        assert len(stochastic._shard_rows(10**6, 100, True)) == 1
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive()


_ORPHANED_SHARDS = """
import os, sys, time
import numpy as np
from qphase import stochastic

class Still:
    noise_columns = 0

    def derivative(self, state, step_index, noise, out):
        out[...] = 0.0
        return out

stochastic._cpu_count = lambda: 3
stochastic.MIN_SHARD_WORK = 1
fork = os.fork

def reporting_fork():
    pid = fork()
    if pid:
        print(pid, flush=True)
    return pid

os.fork = reporting_fork
run = stochastic.evolve(np.ones((12, 1)), Still(), 0.01, 1000, record=range(1001))
next(run)
next(run)  # the shards are forked and wait to hand over step 2
print("stepping", flush=True)
time.sleep(120)
"""


def _has_exited(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    stat = Path(f"/proc/{pid}/stat").read_text()
    return stat[stat.rindex(")") + 2] in "ZX"  # exited, not yet reaped by its new parent


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads process states from /proc")
def test_shards_exit_when_their_parent_is_killed():
    """A parent killed mid-run (SIGKILL, so no `close` runs) leaves no
    shard process behind: each child sees its pipes close and exits."""
    import signal
    import subprocess
    import sys
    import time

    env = dict(os.environ, PYTHONPATH=str(Path(qphase.__file__).parents[1]))
    parent = subprocess.Popen([sys.executable, "-c", _ORPHANED_SHARDS], stdout=subprocess.PIPE, text=True, env=env)
    children = []
    try:
        for line in parent.stdout:
            if line.strip() == "stepping":
                break
            children.append(int(line))
        assert len(children) == 2
        parent.kill()
        parent.wait(timeout=10)
        deadline = time.monotonic() + 10
        while not all(map(_has_exited, children)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert all(map(_has_exited, children)), children
    finally:
        parent.kill()
        parent.wait(timeout=10)
        parent.stdout.close()
        for pid in children:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
