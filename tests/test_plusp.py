import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import plusp_derivative, step_noise

from qphase.fock import kerr_oracle
from qphase.plusp import (
    KerrPlusP,
    run_kerr_plusp,
    sample_canonical,
    time_reversal_test,
)
from qphase.stochastic import noise_block


def test_canonical_sampling_coherent_moments():
    """Canonical (alpha, beta) samples reproduce normally ordered moments
    of a coherent state: <a> = alpha0, <adag a> = |alpha0|^2."""
    alpha0 = 1.4 + 0.6j
    ens = sample_canonical(
        {"kind": "coherent", "alpha": [alpha0]}, seed=13, trajectories=200_000
    )
    # columns are [alpha | beta]; <adag^k a^l> is the sample mean of
    # beta^k alpha^l, with a CLT bar
    a, n = ens[:, 0], ens[:, 1] * ens[:, 0]
    mean_a, err_a = a.mean(), a.std(ddof=1) / math.sqrt(a.size)
    assert abs(mean_a - alpha0) < 3.0 * err_a + 1e-3
    mean_n, err_n = n.mean(), n.std(ddof=1) / math.sqrt(n.size)
    assert abs(mean_n - abs(alpha0) ** 2) < 3.0 * err_n + 1e-2
    # the doubled-space spread really is there (width="canonical")
    assert np.var(ens[:, 0].real) > 0.5


def test_canonical_sampling_thermal_and_fock():
    ens_t = sample_canonical(
        {"kind": "thermal", "nbar": [2.5]}, seed=1, trajectories=300_000
    )
    n = ens_t[:, 1] * ens_t[:, 0]
    err_n = n.std(ddof=1) / math.sqrt(n.size)
    assert n.mean().real == pytest.approx(2.5, abs=4 * err_n + 0.02)
    assert abs(ens_t[:, 0].mean()) < 0.02

    ens_f = sample_canonical({"kind": "fock", "n": [3]}, seed=2, trajectories=300_000)
    n = ens_f[:, 1] * ens_f[:, 0]
    err_n = n.std(ddof=1) / math.sqrt(n.size)
    assert n.mean().real == pytest.approx(3.0, abs=4 * err_n + 0.02)


def test_delta_width_is_exact_for_coherent():
    ens = sample_canonical(
        {"kind": "coherent", "alpha": [2.0 - 1.0j]}, seed=0, trajectories=10,
        width="delta",
    )
    assert ens.shape == (10, 2)
    assert np.all(ens[:, 0] == 2.0 - 1.0j)
    assert np.all(ens[:, 1] == np.conj(2.0 - 1.0j))
    with pytest.raises(ValueError):
        sample_canonical({"kind": "fock", "n": [1]}, 0, 10, width="delta")


def test_chi_zero_harmonic_rotation_is_deterministic():
    """With chi = 0 there is neither noise nor drift, so from a delta
    width every trajectory stays at its classical point and <X>(t) is
    Re alpha0 exactly, with a zero bar."""
    alpha0 = 1.0 + 0.5j
    times = np.array([0.0, 0.5, 1.0])
    res = run_kerr_plusp(
        {"kind": "coherent", "alpha": [alpha0]},
        chi=0.0,
        times=times,
        trajectory_count=100,
        seed=3,
        dt=0.005,
        width="delta",
    )
    # X observable is (alpha + beta)/2 = Re in the deterministic case
    assert np.array_equal(res.mean("X"), np.full(times.size, alpha0.real))
    assert not res.error("X").any()


@pytest.mark.parametrize("build", [
    lambda: KerrPlusP(chi=1.0, omega=np.eye(1)),
    lambda: run_kerr_plusp({"kind": "coherent", "alpha": [1.0]}, 1.0, [0.0], 10, 0, 0.01,
                           omega=np.eye(1)),
], ids=["KerrPlusP", "run_kerr_plusp"])
def test_the_engine_takes_no_linear_coupling(build):
    """The +P drift is chi and the Stratonovich correction alone: a linear
    coupling omega is no argument of the model or of its run."""
    with pytest.raises(TypeError, match="omega"):
        build()


def test_kerr_number_is_conserved():
    """beta_0 alpha_0 (the +P number estimator) is conserved by the Kerr
    flow trajectory-by-trajectory up to integrator error."""
    times = np.array([0.0, 0.25, 0.5])
    res = run_kerr_plusp(
        {"kind": "coherent", "alpha": [3.0]},
        chi=0.02,
        times=times,
        trajectory_count=3000,
        seed=8,
        dt=0.0025,
        extra_observables={"n": lambda s: s[:, 0] * s[:, 1]},
    )
    n_series = res.mean("n").real
    assert np.allclose(n_series, n_series[0], rtol=0.02)
    assert n_series[0] == pytest.approx(9.0, abs=4 * res.error("n")[0] + 0.05)


def test_plusp_canonical_width_matches_oracle():
    """Kerr dephasing with the full canonical sampling width still lands
    on the exact quantum mean (the width is an exact representation)."""
    chi = 0.05
    times = np.linspace(0.0, 0.4, 5)
    res = run_kerr_plusp(
        {"kind": "coherent", "alpha": [2.0]},
        chi,
        times,
        trajectory_count=20_000,
        seed=17,
        dt=0.002,
    )
    exact = np.array([kerr_oracle([2.0], [[chi]], t)["a"][0].real for t in times])
    diff = np.abs(res.mean("X").real - exact)
    bars = res.error("X")
    assert np.all(diff <= 4.0 * bars + 5e-3)


def test_drift_carries_the_stratonovich_correction():
    """At zero noise the drift is the Ito drift plus the Ito->Stratonovich
    correction: (-i chi alpha^2 beta + i chi alpha / 2,
    +i chi alpha beta^2 - i chi beta / 2)."""
    chi = 0.3
    rng = np.random.default_rng(2)
    alpha = rng.standard_normal((6, 1)) + 1j * rng.standard_normal((6, 1))
    beta = rng.standard_normal((6, 1)) + 1j * rng.standard_normal((6, 1))
    model = KerrPlusP(chi=chi)
    d = model.derivative(
        np.concatenate([alpha, beta], axis=1), 0, model.noise(np.zeros((6, 2)), 0, 0.01),
        np.empty((6, 2), dtype=complex),
    )
    expected_alpha = -1j * chi * alpha**2 * beta + 0.5j * chi * alpha
    expected_beta = 1j * chi * alpha * beta**2 - 0.5j * chi * beta
    assert np.allclose(d[:, :1], expected_alpha, rtol=1e-14, atol=1e-15)
    assert np.allclose(d[:, 1:], expected_beta, rtol=1e-14, atol=1e-15)


def _scaled_normals(model, step_index, n_traj, dt):
    return noise_block(model.seed, step_index, n_traj, 2 * model.modes) * (1.0 / math.sqrt(dt))


@given(
    seed=st.integers(0, 2**31 - 1),
    modes=st.integers(1, 3),
    reversed_=st.booleans(),
    noisy=st.booleans(),
    column_major=st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_drift_matches_the_per_half_reference(seed, modes, reversed_, noisy, column_major):
    """The rate-column drift, with its noise drawn by the model or set to
    zero, agrees with the parent's per-half drift to rounding, before and
    after the reversal step, in either layout."""
    rng = np.random.default_rng(seed)
    model = KerrPlusP(chi=rng.uniform(0.01, 1.0), modes=modes, seed=seed, reverse_step=4)
    k, dt, n = (6 if reversed_ else 2), 0.01, 16
    state = rng.standard_normal((n, 2 * modes)) + 1j * rng.standard_normal((n, 2 * modes))
    state = np.asfortranarray(state) if column_major else state
    if noisy:
        rates, xi = step_noise(model, k, n, dt), _scaled_normals(model, k, n, dt)
    else:
        xi = np.zeros((n, 2 * modes))
        rates = model.noise(np.zeros_like(xi), k, dt)
    got = model.derivative(state, k, rates, np.empty_like(state))
    np.testing.assert_allclose(got, plusp_derivative(model, state, k, xi), rtol=1e-13, atol=1e-15)


def test_changed_fields_change_the_next_drift():
    """Nothing is compiled from chi or reverse_step: reassigning either
    changes the next noise draw and drift to those of the current values."""
    rng = np.random.default_rng(9)
    model = KerrPlusP(chi=0.1, modes=2, seed=4, reverse_step=None)
    state = np.asfortranarray(rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4)))
    dt = 0.01

    def check(k):
        got = model.derivative(state, k, step_noise(model, k, 8, dt), np.empty_like(state))
        np.testing.assert_allclose(got, plusp_derivative(model, state, k, _scaled_normals(model, k, 8, dt)),
                                   rtol=1e-13, atol=1e-15)
        return got

    before = check(3)
    model.chi = 0.4
    forward = check(3)
    assert not np.allclose(forward, before)
    model.reverse_step = 2
    reversed_ = check(3)
    assert not np.allclose(reversed_, forward)


def test_reverse_step_flips_dynamics():
    """From the reversal step on, the noise term and the drift equal those
    of a sign-flipped Hamiltonian; before it, those of the forward one."""
    state = np.full((4, 2), 1.0 + 0.5j)
    reversing = KerrPlusP(chi=0.1, modes=1, seed=5, reverse_step=10)
    flipped = KerrPlusP(chi=-0.1, modes=1, seed=5)
    forward = KerrPlusP(chi=0.1, modes=1, seed=5)
    for k, same in ((10, flipped), (9, forward)):
        xi = step_noise(reversing, k, 4, 0.01)
        xi_same = step_noise(same, k, 4, 0.01)
        assert xi.tobytes() == xi_same.tobytes()
        d = reversing.derivative(state, k, xi, np.empty_like(state))
        assert d.tobytes() == same.derivative(state, k, xi_same, np.empty_like(state)).tobytes()
    # the sign really is in the noise: sqrt(-i chi) differs from sqrt(i chi)
    assert not np.array_equal(step_noise(reversing, 10, 4, 0.01), step_noise(forward, 10, 4, 0.01))


def test_time_reversal_report_fields():
    report = time_reversal_test(
        alpha0=4.0, chi=1.0 / 16.0, reversal_time=0.2,
        trajectory_count=2000, seed=1, dt=0.002, n_points=11,
    )
    assert report.ensemble.times[0] == 0.0
    assert report.ensemble.times[-1] == pytest.approx(0.4)
    assert report.initial_x == 4.0
    assert not report.inconclusive
    assert report.recovery_residual <= 3.0 * max(report.residual_bar, 1e-3)


def test_time_reversal_inconclusive_flag():
    """A hopeless ceiling marks the run inconclusive instead of failed."""
    report = time_reversal_test(
        alpha0=4.0, chi=1.0 / 16.0, reversal_time=0.2,
        trajectory_count=2000, seed=1, dt=0.002, n_points=11,
        error_ceiling=1e-9,
    )
    assert report.inconclusive


def test_x_bar_is_the_bar_on_re_x_alone():
    """X is Hermitian, so each trajectory contributes Re (alpha_0 + beta_0)/2:
    error("X") is the bar over pair means of that real part, forward and
    after the reversal, without the variance of the imaginary part."""
    states = []

    def capture(s):
        states.append(s.copy())
        return s[:, 0]

    result = run_kerr_plusp({"kind": "coherent", "alpha": [3.0]}, 0.05, np.array([0.0, 0.5, 1.0]), 400, 5, 0.01,
                            reverse_at=0.5, extra_observables={"c": capture})
    for t, s in enumerate(states):
        x = 0.5 * (s[:, 0] + s[:, 1])
        pair_re = 0.5 * (x[:200] + x[200:]).real
        assert result.error("X")[t] == pytest.approx(np.std(pair_re, ddof=1) / math.sqrt(200), rel=1e-9, abs=1e-14)
        assert result.mean("X")[t] == pytest.approx(pair_re.mean(), rel=1e-14)
    # the imaginary part's variance is no part of the bar
    assert result.error("X")[-1] < 0.9 * np.std(0.5 * (x[:200] + x[200:]), ddof=1) / math.sqrt(200)


def test_paired_reversal_bar_is_calibrated_on_a_small_run():
    """Over 40 seeds of a small time reversal (alpha0 = 3, chi = 0.05,
    tau_r = 1, 400 trajectories), the spread of Re <X>(2 tau_r) over the
    seeds matches the reported pair bar: sd over seeds / rms bar in
    [0.6, 1.5], a window about 4 standard errors of a 40-seed sd wide.
    The trajectory spread grows after the reversal at every seed."""
    estimates, bars = [], []
    for seed in range(40):
        report = time_reversal_test(3.0, 0.05, 1.0, 400, seed=seed, dt=0.01, n_points=11)
        assert report.error_growth and report.diverged == 0
        estimates.append(report.ensemble.mean("X")[-1].real)
        bars.append(report.residual_bar)
    ratio = np.std(estimates, ddof=1) / math.sqrt(np.mean(np.square(bars)))
    assert 0.6 <= ratio <= 1.5, ratio
