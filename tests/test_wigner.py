import math

import numpy as np
import pytest

from qphase.fock import (
    FockBasis,
    annihilation_operator,
    coherent_state,
    kerr_oracle,
)
from qphase.stochastic import MomentAccumulator
from qphase.wigner import (
    LossChannel,
    WignerModel,
    WignerMoments,
    evolve_snapshots,
    poly_add,
    poly_mul,
    poly_scale,
    run_wigner_x,
    sample_wigner_coherent,
    spin_polynomials,
    squeezing_xi2,
)


def test_sampling_half_quantum_width():
    alpha0 = 1.5 - 0.5j
    fields = sample_wigner_coherent([alpha0], seed=3, trajectories=200_000)
    assert fields.shape == (200_000, 1)
    assert np.mean(fields) == pytest.approx(alpha0, abs=0.01)
    # symmetric-ordering vacuum: quadrature variance 1/4, |dphi|^2 = 1/2
    assert np.var(fields.real) == pytest.approx(0.25, rel=0.02)
    assert np.var(fields.imag) == pytest.approx(0.25, rel=0.02)
    assert np.mean(np.abs(fields - alpha0) ** 2) == pytest.approx(0.5, rel=0.02)
    # reproducible
    assert np.array_equal(fields, sample_wigner_coherent([alpha0], 3, 200_000))


def test_moment_conversion_against_fock():
    """Symmetric -> normal moment inversion on raw samples reproduces the
    quantum moments of the sampled coherent state."""
    a0, b0 = 1.2 + 0.3j, -0.4 + 0.9j
    fields = sample_wigner_coherent([a0, b0], seed=7, trajectories=400_000)
    mom = WignerMoments(fields[:, 0], fields[:, 1])
    # coherent state: <adag^q a^p bdag^s b^r> = conj(a0)^q a0^p conj(b0)^s b0^r
    for q, p, s, r in [(1, 1, 0, 0), (2, 2, 0, 0), (1, 0, 0, 1), (1, 2, 1, 0)]:
        exact = np.conj(a0) ** q * a0**p * np.conj(b0) ** s * b0**r
        scale = max(abs(exact), 1.0)
        assert abs(mom.normal(q, p, s, r) - exact) / scale < 0.02


def test_poly_mul_matches_operator_algebra():
    """The normally ordered product table agrees with dense matrix algebra."""
    basis = FockBasis((9, 9))
    a = annihilation_operator(basis, 0).toarray()
    b = annihilation_operator(basis, 1).toarray()
    # elements between low occupations are exact: spin bilinears move at
    # most 2 quanta, never touching the cutoff from there
    low = [i for i, occ in enumerate(basis.occupations) if max(occ) <= 4]
    sub = np.ix_(low, low)

    def to_matrix(poly):
        out = np.zeros_like(a)
        for (q, p, s, r), c in poly.items():
            out += c * (
                np.linalg.matrix_power(a.conj().T, q)
                @ np.linalg.matrix_power(a, p)
                @ np.linalg.matrix_power(b.conj().T, s)
                @ np.linalg.matrix_power(b, r)
            )
        return out

    sx, sy, sz, n_tot = spin_polynomials()
    state = coherent_state([0.9, 0.6], basis)
    for p1, p2 in [(sx, sy), (sz, sz), (sx, n_tot)]:
        prod_poly = poly_mul(p1, p2)
        direct = to_matrix(p1) @ to_matrix(p2)
        assert np.allclose(to_matrix(prod_poly)[sub], direct[sub], atol=1e-10)
        assert state.expect(to_matrix(prod_poly)) == pytest.approx(
            state.expect(direct), abs=1e-4
        )


def test_poly_helpers():
    p = {(1, 0, 0, 1): 2.0}
    assert poly_scale(p, 0.5) == {(1, 0, 0, 1): 1.0}
    assert poly_add(p, {(1, 0, 0, 1): 1.0, (0, 0, 0, 0): 3.0}) == {
        (1, 0, 0, 1): 3.0,
        (0, 0, 0, 0): 3.0,
    }


def test_kerr_mean_field_short_time():
    alpha0, chi = 2.0, 0.05
    times = np.linspace(0.0, 1.0, 6)
    res = run_wigner_x([alpha0], [[chi]], times, 4000, seed=5, dt=0.005)
    exact = [kerr_oracle([alpha0], [[chi]], t)["a"][0].real for t in times]
    assert np.allclose(res.mean("X").real, exact, atol=0.05)
    assert res.diverged == 0


def test_matrix_omega_rotates_every_trajectory():
    """Without chi or losses every trajectory rotates as phi0 e^{-i omega t},
    so <X> = Re(mean(phi0) e^{-i omega t}) up to the midpoint phase error
    of (omega dt)^3 / 12 per step."""
    alpha0, omega, dt, seed, n = 1.0 + 0.5j, 0.7, 0.005, 4, 50
    times = np.array([0.0, 1.0, 2.0])
    res = run_wigner_x([alpha0], None, times, n, seed, dt, omega=[[omega]])
    phi0 = sample_wigner_coherent([alpha0], seed, n)[:, 0].mean()
    expected = np.real(phi0 * np.exp(-1j * omega * times))
    tol = 2.0 * abs(phi0) * (times / dt) * (omega * dt) ** 3 / 12 + 1e-12
    assert np.all(np.abs(res.mean("X").real - expected) <= tol)
    # the rotation is what is being checked: the field really moves
    assert abs(expected[-1] - expected[0]) > 0.1


def test_one_body_loss_decay():
    kappa, alpha0 = 0.4, 1.8
    times = np.linspace(0.0, 1.0, 5)
    res = run_wigner_x(
        [alpha0], None, times, 4000, seed=6, dt=0.005,
        channels=[LossChannel(powers=(1,), rate=kappa)],
    )
    n_est = res.mean("n_w").real - 0.5  # symmetric -> normal for n
    expected = abs(alpha0) ** 2 * np.exp(-2.0 * kappa * times)
    assert np.allclose(n_est, expected, atol=0.06)
    # amplitude decays at kappa
    assert np.allclose(
        res.mean("X").real, alpha0 * np.exp(-kappa * times), atol=0.05
    )


def test_two_body_loss_preserves_unaffected_mode():
    """A loss channel acting on component 0 only leaves component 1 alone."""
    model = WignerModel(
        chi=None,
        channels=(LossChannel(powers=(2, 0), rate=0.3),),
        components=2,
        seed=9,
    )
    fields = sample_wigner_coherent([1.5, 1.1], seed=9, trajectories=2000)
    snaps = evolve_snapshots(fields, model, dt=0.01, snapshot_steps=[0, 50])
    n1_before = np.mean(np.abs(snaps[0][:, 1]) ** 2) - 0.5
    n1_after = np.mean(np.abs(snaps[50][:, 1]) ** 2) - 0.5
    n0_before = np.mean(np.abs(snaps[0][:, 0]) ** 2) - 0.5
    n0_after = np.mean(np.abs(snaps[50][:, 0]) ** 2) - 0.5
    assert n1_after == pytest.approx(n1_before, abs=0.05)
    assert n0_after < 0.8 * n0_before  # two-body decay really happens


def test_loss_drift_carries_the_stratonovich_correction():
    """At zero noise a two-body loss channel phi^2 at rate kappa drifts by
    -2 kappa |phi|^2 phi (Ito) - 2 kappa phi (Ito->Stratonovich shift)."""
    kappa = 0.3
    rng = np.random.default_rng(3)
    phi = rng.standard_normal((6, 1)) + 1j * rng.standard_normal((6, 1))
    model = WignerModel(channels=(LossChannel((2,), kappa),))
    d = model.derivative(phi, 0, np.zeros((6, 1), dtype=complex))
    expected = -2.0 * kappa * np.abs(phi) ** 2 * phi - 2.0 * kappa * phi
    assert np.allclose(d, expected, rtol=1e-14, atol=1e-15)


def test_diverged_trajectory_leaves_later_snapshots():
    """A trajectory far outside the midpoint step's stable range diverges
    on the first step; later snapshots hold only the survivors, which
    evolve exactly as they would without it."""
    model = WignerModel(chi=np.array([[1.0]]), seed=4)
    fields = sample_wigner_coherent([1.0], seed=4, trajectories=50)
    fields[3] = 100.0
    snaps = evolve_snapshots(fields, model, dt=0.01, snapshot_steps=[0, 1, 5])
    assert snaps[0].shape == (50, 1)
    assert snaps[1].shape == snaps[5].shape == (49, 1)
    clean = evolve_snapshots(np.delete(fields, 3, axis=0), model, dt=0.01, snapshot_steps=[5])
    assert np.array_equal(snaps[5], clean[5])


def test_snapshot_mean_equals_run_ensemble_mean():
    """Snapshots and run_ensemble share one time loop: on the same seeded
    lossy model the snapshot mean of X is the ensemble mean bit for bit."""
    alpha, chi, seed, dt, n = [1.5, 1.0], [[0.1, 0.05], [0.05, 0.1]], 12, 0.01, 500
    channels = (LossChannel((1, 0), 0.1), LossChannel((1, 1), 0.02))
    times = np.array([0.0, 0.1, 0.2])
    res = run_wigner_x(alpha, chi, times, n, seed, dt, channels=channels)
    model = WignerModel(chi=np.asarray(chi), channels=channels, components=2, seed=seed)
    fields = sample_wigner_coherent(alpha, seed, n)
    snaps = evolve_snapshots(fields, model, dt, snapshot_steps=[10, 20])
    for i, k in ((1, 10), (2, 20)):
        acc = MomentAccumulator()
        acc.add(snaps[k][:, 0].real)
        assert acc.mean == res.mean("X")[i]


def test_squeezing_coherent_state_is_unity():
    """An unsqueezed coherent spin state has xi^2 = 1 (shot noise)."""
    fields = sample_wigner_coherent([2.0, 2.0], seed=21, trajectories=100_000)
    result = squeezing_xi2(fields[:, 0], fields[:, 1])
    assert result.xi2 == pytest.approx(1.0, abs=0.05)
    assert result.total_number == pytest.approx(8.0, rel=0.05)
    assert result.error < 0.05


def test_squeezing_one_axis_twisting_drops_below_shot_noise():
    """Kerr-type twisting of a two-component field squeezes xi^2 < 1."""
    n_per = 20.0
    alpha = math.sqrt(n_per)
    chi = np.array([[1.0, -1.0], [-1.0, 1.0]]) * 0.5  # relative-phase twisting
    model = WignerModel(chi=chi, components=2, seed=31)
    fields = sample_wigner_coherent([alpha, alpha], seed=31, trajectories=20_000)
    t_twist = 0.02  # short OAT time
    steps = int(round(t_twist / 1e-3))
    snaps = evolve_snapshots(fields, model, dt=1e-3, snapshot_steps=[steps])
    result = squeezing_xi2(snaps[steps][:, 0], snaps[steps][:, 1])
    assert result.xi2 < 1.0 - 3.0 * result.error
    assert result.xi2 < 0.7
