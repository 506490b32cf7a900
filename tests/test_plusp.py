import numpy as np
import pytest

from qphase.fock import kerr_oracle
from qphase.plusp import (
    KerrPlusP,
    normally_ordered_moment,
    run_kerr_plusp,
    sample_canonical,
    time_reversal_test,
)


def test_canonical_sampling_coherent_moments():
    """Canonical (alpha, beta) samples reproduce normally ordered moments
    of a coherent state: <a> = alpha0, <adag a> = |alpha0|^2."""
    alpha0 = 1.4 + 0.6j
    ens = sample_canonical(
        {"kind": "coherent", "alpha": [alpha0]}, seed=13, trajectories=200_000
    )
    mean_a, err_a = normally_ordered_moment(ens, (), (0,))
    assert abs(mean_a - alpha0) < 3.0 * err_a + 1e-3
    mean_n, err_n = normally_ordered_moment(ens, (0,), (0,))
    assert abs(mean_n - abs(alpha0) ** 2) < 3.0 * err_n + 1e-2
    # the doubled-space spread really is there (width="canonical")
    assert np.var(ens.alpha.real) > 0.5


def test_canonical_sampling_thermal_and_fock():
    ens_t = sample_canonical(
        {"kind": "thermal", "nbar": [2.5]}, seed=1, trajectories=300_000
    )
    mean_n, err_n = normally_ordered_moment(ens_t, (0,), (0,))
    assert mean_n.real == pytest.approx(2.5, abs=4 * err_n + 0.02)
    mean_a, _ = normally_ordered_moment(ens_t, (), (0,))
    assert abs(mean_a) < 0.02

    ens_f = sample_canonical({"kind": "fock", "n": [3]}, seed=2, trajectories=300_000)
    mean_n, err_n = normally_ordered_moment(ens_f, (0,), (0,))
    assert mean_n.real == pytest.approx(3.0, abs=4 * err_n + 0.02)


def test_delta_width_is_exact_for_coherent():
    ens = sample_canonical(
        {"kind": "coherent", "alpha": [2.0 - 1.0j]}, seed=0, trajectories=10,
        width="delta",
    )
    assert np.all(ens.alpha == 2.0 - 1.0j)
    assert np.all(ens.beta == np.conj(2.0 - 1.0j))
    with pytest.raises(ValueError):
        sample_canonical({"kind": "fock", "n": [1]}, 0, 10, width="delta")


def test_chi_zero_harmonic_rotation_is_deterministic():
    """With chi = 0 there is no noise, so <a>(t) = alpha0 e^{-i omega t}
    to integrator precision even with few trajectories."""
    alpha0, omega = 1.0 + 0.5j, 0.7
    times = np.array([0.0, 0.5, 1.0])
    res = run_kerr_plusp(
        {"kind": "coherent", "alpha": [alpha0]},
        chi=0.0,
        times=times,
        trajectory_count=100,
        seed=3,
        dt=0.005,
        omega=np.array([[omega]]),
        width="delta",
    )
    # X observable is (alpha + beta)/2 = Re in the deterministic case
    expected = np.real(alpha0 * np.exp(-1j * omega * times))
    assert np.allclose(res.mean("X").real, expected, atol=1e-9)


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
    d = KerrPlusP(chi=chi).derivative(
        np.concatenate([alpha, beta], axis=1), 0, np.zeros((6, 2))
    )
    expected_alpha = -1j * chi * alpha**2 * beta + 0.5j * chi * alpha
    expected_beta = 1j * chi * alpha * beta**2 - 0.5j * chi * beta
    assert np.allclose(d[:, :1], expected_alpha, rtol=1e-14, atol=1e-15)
    assert np.allclose(d[:, 1:], expected_beta, rtol=1e-14, atol=1e-15)


def test_reverse_step_flips_dynamics():
    """Past the reversal step the drift equals that of a sign-flipped
    Hamiltonian with the same per-step noise."""
    state = np.full((4, 2), 1.0 + 0.5j)
    omega = np.array([[0.3]])
    reversing = KerrPlusP(chi=0.1, modes=1, omega=omega, seed=5, reverse_step=10)
    flipped = KerrPlusP(chi=-0.1, modes=1, omega=-omega, seed=5)
    forward = KerrPlusP(chi=0.1, modes=1, omega=omega, seed=5)
    xi10 = forward.noise(10, 4, 0.01)
    xi9 = forward.noise(9, 4, 0.01)
    assert np.array_equal(
        reversing.derivative(state, 10, xi10), flipped.derivative(state, 10, xi10)
    )
    assert np.array_equal(
        reversing.derivative(state, 9, xi9), forward.derivative(state, 9, xi9)
    )


def test_time_reversal_report_fields():
    report = time_reversal_test(
        alpha0=4.0, chi=1.0 / 16.0, reversal_time=0.2,
        trajectory_count=2000, seed=1, dt=0.002, n_points=11,
    )
    assert report.times[0] == 0.0
    assert report.times[-1] == pytest.approx(0.4)
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
